//! Strong-scaling gate: one SIS window at the paper's full grid *shape*
//! — 25,000 parameter tuples x 20 replicates = 500,000 cells — on a
//! scaled-down SEIR model, timed at 1, 2, 4 (and 8, when the host has
//! the cores) worker threads. Fixed work, varying threads: results are
//! bit-identical across the sweep (pinned by
//! `tests/determinism_parallel.rs`), so only wall-clock moves. Each
//! point is the fastest of several timed runs after a warm-up.
//!
//! The gate computes parallel efficiency
//! `eff(t) = time(1) / (t · time(t))` and fails when the 4-thread point
//! drops below the floor (see [`epibench::gate::check_scaling`]).
//!
//! Usage: `cargo run --release -p epibench --bin check_scaling`.
//!
//! Environment:
//! - `SCALING_FLOOR`: efficiency floor at the gated thread count
//!   (default `0.70`).
//!
//! Exit status: 0 when the gate passes, 1 when it fails, and 77 when
//! this host cannot measure it: on fewer than 4 cores a 4-thread
//! efficiency number measures oversubscription, not scaling, so the
//! gate exits before timing anything and neither passes nor fails.
//! `scripts/check.sh` and `scripts/check_scaling.sh` report that status
//! as SKIPPED. The 8-thread point on larger runners is printed but
//! never gated.

use epibench::gate;
use episim::seir::SeirParams;
use epismc_core::config::CalibrationConfig;
use epismc_core::observation::BiasMode;
use epismc_core::prior::{BetaPrior, UniformPrior};
use epismc_core::simulator::{SeirSimulator, TrajectorySimulator};
use epismc_core::sis::{ObservedData, Priors, SingleWindowIs};
use epismc_core::window::TimeWindow;
use std::hint::black_box;
use std::process::ExitCode;

const N_PARAMS: usize = 25_000;
const N_REPS: usize = 20;

fn config(threads: usize) -> CalibrationConfig {
    CalibrationConfig::builder()
        .n_params(N_PARAMS)
        .n_replicates(N_REPS)
        .resample_size(2_000)
        .seed(99)
        .threads(threads)
        .build()
}

fn main() -> ExitCode {
    let floor = match gate::env_floor("SCALING_FLOOR", 0.70) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("check_scaling: {e}");
            return ExitCode::FAILURE;
        }
    };
    let simulator = SeirSimulator::new(SeirParams {
        population: 200,
        initial_exposed: 4,
        ..SeirParams::default()
    })
    .expect("valid SEIR parameters");
    let window = TimeWindow::new(3, 8);
    let (truth, _) = simulator
        .run_fresh(&[0.5], 31, window.end)
        .expect("ground-truth run");
    let observed = ObservedData::cases_only_with(
        truth
            .series_f64("infections")
            .expect("SEIR records infections"),
        BiasMode::Mean,
        1.0,
    );
    let priors = Priors {
        theta: vec![Box::new(UniformPrior::new(0.1, 0.9))],
        rho: Box::new(BetaPrior::new(100.0, 1.0)),
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let verdict = gate::check_scaling(cores, floor, |threads| {
        let driver = SingleWindowIs::new(&simulator, config(threads));
        let [time] = gate::fastest_rounds([&mut || {
            black_box(driver.run(&priors, &observed, window).expect("window run"));
        }]);
        time
    });
    println!("strong scaling, {N_PARAMS} x {N_REPS} cells, {cores}-core host:");
    verdict.report("check_scaling")
}
