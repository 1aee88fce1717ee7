//! The repository's benchmark: three closed-loop calibration workloads
//! through the public API, with output checks on every run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch_paper|stream_daily|pmmh_two_source> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the run repeats the workload untraced for `--seconds`
//! and reports the end-to-end metrics. With `--trace 1` it alternates
//! untraced and traced iterations, then runs the layer probes, and
//! reports the per-layer metrics. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Store directories live under `.bench_work/` in the working directory
//! and are removed at exit. See `NOTES.md` for the workloads and metrics.

mod layers;
mod probes;
mod trace;
mod workloads;
mod wrap;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use layers::{median, percentile};
use trace::Stamp;
use workloads::{Inputs, Mode, Outcome, Traced, Untraced, Workload, WORKERS};

/// Set-up-only repetitions before the timed loop. Set-up takes about a
/// millisecond, so `setup_s` is the median of many.
const SETUP_REPS: usize = 40;

/// CPU nanoseconds of [`trace::reference_cpu_ns`] on a quiet host of the
/// kind the benchmark was defined on (2-vCPU x86-64 guest, rustc 1.95).
/// Gated CPU times are reported as `measured × NOMINAL / reference`, the
/// reference read before and after the timed work: seconds at this fixed
/// host speed.
const REFERENCE_NOMINAL_NS: f64 = 15_600_000.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Time the hypervisor gave to other guests, summed over the guest's
/// CPUs, in seconds (0 where the kernel does not report it).
fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: f64 = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    ticks / 100.0
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

fn secs(nanos: u64) -> f64 {
    nanos as f64 * 1e-9
}

fn millis(nanos: u64) -> f64 {
    nanos as f64 * 1e-6
}

/// Everything one run measured, before it becomes metrics.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    /// Set-up CPU times at the nominal host speed.
    setups: Vec<f64>,
    truths: Vec<Stamp>,
    /// Calibration CPU times of the untraced iterations at the nominal
    /// host speed.
    calibs: Vec<f64>,
    /// Reference readings, nanoseconds.
    references: Vec<f64>,
    untraced: Vec<Outcome>,
    traced: Vec<Outcome>,
    layers: Vec<BTreeMap<&'static str, f64>>,
    /// Output fingerprint of each dataset, by dataset index.
    fingerprints: BTreeMap<u64, u64>,
    /// Host steal over the timed loop, as a share of its wall time on
    /// every CPU.
    steal_frac: f64,
}

impl Run {
    /// Count an iteration's operations and check results. Outputs must
    /// not depend on tracing or repetition: every iteration on one
    /// dataset must reproduce the same fingerprint.
    fn check(&mut self, dataset: u64, out: &Outcome) {
        self.attempted += out.attempted;
        self.failed += out.failed;
        for why in &out.failures {
            eprintln!("check failed: {why}");
        }
        let first = *self.fingerprints.entry(dataset).or_insert(out.fingerprint);
        if first != out.fingerprint {
            eprintln!(
                "check failed: dataset {dataset} output fingerprint {:#x} differs from {first:#x}",
                out.fingerprint
            );
            self.failed += 1;
        }
    }

    /// [`Self::check`], and keep the iteration's set-up times.
    fn absorb(&mut self, dataset: u64, out: &Outcome, scale: f64) {
        self.check(dataset, out);
        self.setups.push(out.setup.cpu as f64 * scale);
        self.truths.push(out.truth);
    }

    /// Read the reference and return the factor that converts CPU time
    /// spent since the previous reading to the nominal host speed.
    fn rescale(&mut self) -> f64 {
        let before = self.references.last().copied();
        let now = trace::reference_cpu_ns() as f64;
        self.references.push(now);
        REFERENCE_NOMINAL_NS / before.map_or(now, |b| (b + now) / 2.0)
    }
}

fn iterate<M: Mode>(
    args: &Args,
    dir: &Path,
    dataset: u64,
    setup_only: bool,
) -> Result<Outcome, String> {
    let inputs = Inputs::new(args.seed, dataset);
    workloads::iterate::<M>(args.workload, inputs, dir, setup_only)
}

fn measure(args: &Args, dir: &Path) -> Result<Run, String> {
    let mut run = Run::default();
    run.rescale();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let out = iterate::<Untraced>(args, dir, rep as u64, true)?;
        setups.push(out.setup.cpu as f64);
        run.truths.push(out.truth);
    }
    let scale = run.rescale();
    run.setups.extend(setups.iter().map(|c| c * scale));
    // Closed loop for `--seconds`, which also pays for one warm-up
    // iteration on dataset 0 (checked, not timed): stop before an
    // iteration that would overrun, but always time at least one (one of
    // each when traced). Untraced runs take the next dataset each
    // iteration; traced runs run every dataset untraced and then traced,
    // so both modes see the same data and the same host conditions.
    let budget = args.seconds * 1_000_000_000;
    let started = trace::now();
    let steal_before = steal_s();
    run.check(0, &iterate::<Untraced>(args, dir, 0, false)?);
    run.rescale();
    let mut iterations = 0u64;
    loop {
        let traced_turn = args.trace && iterations % 2 == 1;
        let dataset = if args.trace {
            iterations / 2
        } else {
            iterations
        };
        let out = if traced_turn {
            trace::drain();
            let out = iterate::<Traced>(args, dir, dataset, false)?;
            let spans = trace::drain();
            let layer = layers::of_iteration(args.workload, &out, &spans);
            check_calls(args.workload, &out, &layer, &mut run);
            run.layers.push(layer);
            out
        } else {
            iterate::<Untraced>(args, dir, dataset, false)?
        };
        let scale = run.rescale();
        eprintln!(
            "iteration {iterations} ({}, dataset {dataset}): calibration {:.4} s wall, \
             {:.4} s CPU, {:.4} s CPU at nominal speed",
            if traced_turn { "traced" } else { "untraced" },
            secs(out.calib.wall),
            secs(out.calib.cpu),
            out.calib.cpu as f64 * scale * 1e-9,
        );
        run.absorb(dataset, &out, scale);
        if traced_turn {
            run.traced.push(out);
        } else {
            run.calibs.push(out.calib.cpu as f64 * scale);
            run.untraced.push(out);
        }
        iterations += 1;
        let elapsed = trace::now() - started;
        let per_iteration = elapsed / (iterations + 1);
        let minimum = if args.trace { 2 } else { 1 };
        if iterations >= minimum && elapsed + per_iteration > budget {
            break;
        }
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    run.steal_frac = (steal_s() - steal_before) / (secs(trace::now() - started) * cpus);
    Ok(run)
}

/// The wrapper must have seen exactly the simulator calls the
/// configuration implies (the window counters are exact too, and are
/// part of the output fingerprint).
fn check_calls(
    workload: Workload,
    out: &Outcome,
    layer: &BTreeMap<&'static str, f64>,
    run: &mut Run,
) {
    let windows = out.windows.len();
    let expected = workload.sim_calls(windows) as f64;
    let moves = expected - (windows * workload.cells()) as f64;
    if layer["sim.calls"] != expected || layer["pmmh.calls"] != moves {
        eprintln!(
            "check failed: traced {} simulator calls ({} moves), expected {expected} ({moves})",
            layer["sim.calls"], layer["pmmh.calls"]
        );
        run.failed += 1;
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(run: &Run) -> Result<Metrics, String> {
    Ok(vec![
        ("calib_cpu_s", median(&run.calibs) * 1e-9, "s"),
        ("setup_s", median(&run.setups) * 1e-9, "s"),
        ("peak_rss_mb", peak_rss_mb()?, "MiB"),
    ])
}

fn per_layer(run: &Run) -> Result<Metrics, String> {
    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    if let Some(first) = run.layers.first() {
        for name in first.keys() {
            let values: Vec<f64> = run.layers.iter().map(|m| m[name]).collect();
            layer.insert(name, median(&values));
        }
    }
    let probe = run
        .traced
        .iter()
        .rev()
        .find_map(|o| o.probe.as_ref())
        .ok_or("no traced iteration produced probe inputs")?;
    let probes = probes::run(probe)?;
    let untraced = &run.untraced;
    let calib_wall: Vec<f64> = untraced.iter().map(|o| secs(o.calib.wall)).collect();
    let appends: Vec<f64> = untraced
        .iter()
        .flat_map(|o| o.appends.iter().map(|a| millis(a.wall)))
        .collect();
    let reopens: Vec<&Stamp> = untraced.iter().flat_map(|o| &o.reopens).collect();
    let reopen_wall: Vec<f64> = reopens.iter().map(|r| millis(r.wall)).collect();
    let reopen_cpu: Vec<f64> = reopens.iter().map(|r| millis(r.cpu)).collect();
    // Untraced and traced iterations alternate over the same datasets.
    let overhead: Vec<f64> = untraced
        .iter()
        .zip(&run.traced)
        .map(|(u, t)| t.roots.cpu as f64 / u.roots.cpu as f64 - 1.0)
        .collect();
    let truth: Vec<f64> = run.truths.iter().map(|t| millis(t.cpu)).collect();
    let get = |name: &str| layer.get(name).copied().unwrap_or(0.0);
    Ok(vec![
        ("setup.truth_ms", median(&truth), "ms"),
        ("dist.draw_ns", probes.draw_ns, "ns"),
        ("dist.draws", get("dist.draws"), "count"),
        ("engine.day_ns", probes.day_ns, "ns"),
        ("engine.days", get("engine.days"), "count"),
        ("sim.calls", get("sim.calls"), "count"),
        ("sim.busy_s", get("sim.busy_s"), "s"),
        ("sim.ns_per_day", get("sim.ns_per_day"), "ns"),
        ("runner.grid_s", get("runner.grid_s"), "s"),
        ("runner.util", get("runner.util"), "ratio"),
        ("sis.grid_gap_s", get("sis.grid_gap_s"), "s"),
        ("sis.between_s", get("sis.between_s"), "s"),
        ("sis.fused_frac", get("sis.fused_frac"), "ratio"),
        ("sis.ess_frac", get("sis.ess_frac"), "ratio"),
        ("sis.ancestor_frac", get("sis.ancestor_frac"), "ratio"),
        ("sis.shared_mb", get("sis.shared_mb"), "MiB"),
        ("ckpool.unique", get("ckpool.unique"), "count"),
        ("pmmh.calls", get("pmmh.calls"), "count"),
        ("pmmh.pass_s", get("pmmh.pass_s"), "s"),
        ("pmmh.util", get("pmmh.util"), "ratio"),
        ("pmmh.accept_frac", get("pmmh.accept_frac"), "ratio"),
        ("store.put_ms_p50", get("store.put_ms_p50"), "ms"),
        ("store.record_kb", get("store.record_kb"), "KiB"),
        ("store.get_ms_p50", get("store.get_ms_p50"), "ms"),
        ("store.list_ms_p50", get("store.list_ms_p50"), "ms"),
        ("format.encode_ms", probes.encode_ms, "ms"),
        ("format.decode_ms", probes.decode_ms, "ms"),
        (
            "stream.append_self_ms_p50",
            get("stream.append_self_ms_p50"),
            "ms",
        ),
        (
            "stream.append_self_ms_p90",
            get("stream.append_self_ms_p90"),
            "ms",
        ),
        (
            "stream.open_self_ms_p50",
            get("stream.open_self_ms_p50"),
            "ms",
        ),
        ("calib_wall_s", median(&calib_wall), "s"),
        ("append_p50_ms", percentile(&appends, 50.0), "ms"),
        ("append_p90_ms", percentile(&appends, 90.0), "ms"),
        ("reopen_p50_ms", median(&reopen_wall), "ms"),
        ("reopen_cpu_ms", median(&reopen_cpu), "ms"),
        (
            "failed_frac",
            run.failed as f64 / run.attempted.max(1) as f64,
            "ratio",
        ),
        ("host.steal_frac", run.steal_frac, "ratio"),
        ("host.reference_ms", median(&run.references) * 1e-6, "ms"),
        ("trace.overhead_frac", median(&overhead), "ratio"),
        (
            "trace.unattributed_frac",
            get("trace.unattributed_frac"),
            "ratio",
        ),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"host\": {{\"host_cores\": {host_cores}, \"workers\": {WORKERS}, \"rustc\": {}, \"git_commit\": {}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_GIT_COMMIT")),
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let dir = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let outcome = measure(&args, &dir).and_then(|run| {
        let metrics = if args.trace {
            per_layer(&run)?
        } else {
            end_to_end(&run)?
        };
        Ok((run, metrics))
    });
    // Best effort: a leftover directory is only clutter under .bench_work.
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_work");
    let (run, metrics) = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some((name, value, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("benchmark failed: metric {name} is {value}");
        return ExitCode::FAILURE;
    }
    let correct = run.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
