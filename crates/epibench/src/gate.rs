//! The self-timed performance gates behind `check_scaling` and
//! `check_pipelining`: how they time, and their verdicts as pure
//! functions of the measured times and the host's core count, so each
//! decision is unit-tested apart from any measurement.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Thread count the strong-scaling gate judges: paper-scale CI runners
/// all expose at least 4 cores.
pub const GATE_THREADS: usize = 4;

/// Exit status for "this host cannot measure the gate" (the status
/// automake-style harnesses read as a skip): distinct from a pass, so a
/// host without the cores never reports the gate as passed.
pub const EXIT_CANNOT_MEASURE: u8 = 77;

/// Efficiency above this is flagged as superlinear: fixed-work sweeps
/// with bit-identical results cannot beat perfect scaling, so anything
/// past measurement slack (5%) means a polluted baseline.
const SUPERLINEAR_EFF: f64 = 1.05;

/// Timed rounds per measured point, after one untimed warm-up. Each
/// point reports its fastest round: the timed work is deterministic, so
/// the least-interrupted round estimates the code's cost, while a mean
/// would also estimate the host's background load.
const ROUNDS: usize = 5;

/// What a gate concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// The measurement meets the floor.
    Pass,
    /// The measurement is below the floor, or incomplete.
    Fail,
    /// This host cannot take the measurement; nothing was timed.
    CannotMeasure,
}

/// A gate's verdict, ready to print.
#[derive(Debug)]
pub struct Verdict {
    /// Pass, fail or cannot measure.
    pub status: Status,
    /// The measured table, one line per thread count.
    pub rows: Vec<String>,
    /// Measurement-quality warnings; they do not change the status.
    pub warnings: Vec<String>,
    /// Why the gate passed, failed or could not measure.
    pub message: String,
}

impl Verdict {
    fn new(status: Status, message: String) -> Self {
        Self {
            status,
            rows: Vec::new(),
            warnings: Vec::new(),
            message,
        }
    }

    /// Print the verdict under the gate's name and return its exit
    /// status: 0 on a pass, 1 on a failure, [`EXIT_CANNOT_MEASURE`] when
    /// the host cannot measure.
    pub fn report(&self, gate: &str) -> ExitCode {
        for row in &self.rows {
            println!("{row}");
        }
        for warning in &self.warnings {
            eprintln!("{gate}: WARNING: {warning}");
        }
        match self.status {
            Status::Pass => {
                println!("{}", self.message);
                ExitCode::SUCCESS
            }
            Status::Fail => {
                eprintln!("{gate}: {}", self.message);
                ExitCode::FAILURE
            }
            Status::CannotMeasure => {
                println!("{}", self.message);
                ExitCode::from(EXIT_CANNOT_MEASURE)
            }
        }
    }
}

/// Read a numeric floor from the environment variable `name`, or
/// `default` when it is unset.
pub fn env_floor(name: &str, default: f64) -> Result<f64, String> {
    match std::env::var(name) {
        Ok(v) => v
            .trim()
            .parse()
            .map_err(|_| format!("{name} {v:?} is not a number")),
        Err(_) => Ok(default),
    }
}

/// The thread counts a sweep measures on a host with `cores` cores: 1
/// always; 2, 4 and 8 only when the host has that many cores. A point
/// above the core count measures oversubscription, not scaling.
pub fn thread_points(cores: usize) -> Vec<usize> {
    std::iter::once(1)
        .chain([2, 4, 8].into_iter().filter(|&t| t <= cores))
        .collect()
}

/// Run each of `arms` once untimed, then time them in five alternating
/// rounds (`a, b, a, b, …`) and return each arm's fastest round in
/// nanoseconds. Alternating gives every arm the same exposure to a host
/// whose background load drifts on a seconds timescale, so a ratio of
/// two arms compares code, not load regimes.
pub fn fastest_rounds<const N: usize>(mut arms: [&mut dyn FnMut(); N]) -> [f64; N] {
    for arm in arms.iter_mut() {
        arm();
    }
    let mut best = [f64::INFINITY; N];
    for _ in 0..ROUNDS {
        for (arm, best) in arms.iter_mut().zip(&mut best) {
            let start = Instant::now();
            arm();
            *best = best.min(start.elapsed().as_nanos() as f64);
        }
    }
    best
}

/// The strong-scaling gate: parallel efficiency
/// `eff(t) = time(1) / (t · time(t))` at [`GATE_THREADS`] threads must
/// reach `floor`.
///
/// On a host with fewer than [`GATE_THREADS`] cores a 4-thread point
/// measures oversubscription, not scaling, so the verdict is
/// [`Status::CannotMeasure`] and `time` is never called. Otherwise
/// `time(t)` is called once per [`thread_points`] count and the sweep
/// is judged by [`scaling_verdict`].
pub fn check_scaling(cores: usize, floor: f64, mut time: impl FnMut(usize) -> f64) -> Verdict {
    if cores < GATE_THREADS {
        return Verdict::new(
            Status::CannotMeasure,
            format!(
                "gate cannot measure here: host has {cores} core(s) < {GATE_THREADS}; a \
                 {GATE_THREADS}-thread point here measures oversubscription, not scaling"
            ),
        );
    }
    let times = thread_points(cores)
        .into_iter()
        .map(|t| (t, time(t)))
        .collect();
    scaling_verdict(&times, floor)
}

/// Judge a strong-scaling sweep, given each thread count's time in
/// nanoseconds, against the efficiency `floor` at [`GATE_THREADS`].
///
/// Two sweep artifacts are warned about without changing the status:
/// superlinear efficiency (above 1.05: the 1-thread baseline itself ran
/// slow, so every efficiency derived from it is inflated) and
/// non-monotonic times (more threads taking longer: oversubscription or
/// host noise).
pub fn scaling_verdict(times: &BTreeMap<usize, f64>, floor: f64) -> Verdict {
    let Some(&serial) = times.get(&1) else {
        return Verdict::new(Status::Fail, "sweep has no 1-thread baseline point".into());
    };
    if !(serial.is_finite() && serial > 0.0) {
        return Verdict::new(
            Status::Fail,
            format!("1-thread time {serial} is not a positive time"),
        );
    }
    let mut verdict = Verdict::new(Status::Fail, String::new());
    verdict
        .rows
        .push("  threads      time        speedup   efficiency".into());
    let mut gate_eff = None;
    let mut prev: Option<(usize, f64)> = None;
    for (&t, &time) in times {
        let speedup = serial / time;
        let eff = speedup / t as f64;
        verdict.rows.push(format!(
            "  {t:>7}  {:>10.1} ms  {speedup:>7.2}x  {:>9.1}%",
            time / 1e6,
            eff * 100.0
        ));
        if t == GATE_THREADS {
            gate_eff = Some(eff);
        }
        if t > 1 && eff > SUPERLINEAR_EFF {
            verdict.warnings.push(format!(
                "efficiency {:.1}% at {t} threads is superlinear (> {:.0}%) — the 1-thread \
                 baseline was likely polluted; rerun on a quiet host",
                eff * 100.0,
                SUPERLINEAR_EFF * 100.0
            ));
        }
        if let Some((pt, ptime)) = prev {
            if time > ptime {
                verdict.warnings.push(format!(
                    "non-monotonic timings: {t} threads ({:.1} ms) slower than {pt} threads \
                     ({:.1} ms) — oversubscribed or polluted sweep; rerun on a quiet host",
                    time / 1e6,
                    ptime / 1e6
                ));
            }
        }
        prev = Some((t, time));
    }
    let Some(eff) = gate_eff else {
        verdict.message = format!("sweep has no {GATE_THREADS}-thread point to gate");
        return verdict;
    };
    let (eff_pct, floor_pct) = (eff * 100.0, floor * 100.0);
    if eff < floor {
        verdict.message = format!(
            "parallel efficiency {eff_pct:.1}% at {GATE_THREADS} threads is below the \
             {floor_pct:.0}% floor"
        );
    } else {
        verdict.status = Status::Pass;
        verdict.message = format!(
            "gate passed: {eff_pct:.1}% efficiency at {GATE_THREADS} threads (floor {floor_pct:.0}%)"
        );
    }
    verdict
}

/// The pipelining gate: at every thread count the pipelined run must be
/// at least `floor_pct` percent faster than the synchronous one.
///
/// `points` holds `(threads, sync_ns, pipelined_ns)` per thread count.
pub fn pipelining_verdict(points: &[(usize, f64, f64)], floor_pct: f64) -> Verdict {
    let mut verdict = Verdict::new(Status::Pass, String::new());
    let mut failures = Vec::new();
    for &(t, sync_ns, pipelined_ns) in points {
        let speedup = (1.0 - pipelined_ns / sync_ns) * 100.0;
        let ok = speedup >= floor_pct;
        verdict.rows.push(format!(
            "  {:>4}  {t} thread(s): sync {:.1} ms, pipelined {:.1} ms ({speedup:+.1}%)",
            if ok { "ok" } else { "FAIL" },
            sync_ns / 1e6,
            pipelined_ns / 1e6
        ));
        if !ok {
            failures.push(format!(
                "pipelined only {speedup:+.1}% vs sync at {t} thread(s) (floor +{floor_pct:.0}%)"
            ));
        }
    }
    if points.is_empty() {
        failures.push("no thread count was measured".into());
    }
    if failures.is_empty() {
        verdict.message =
            format!("gate passed: pipelined at least {floor_pct:.0}% faster at every thread count");
    } else {
        verdict.status = Status::Fail;
        verdict.message = failures.join("; ");
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(points: &[(usize, f64)]) -> BTreeMap<usize, f64> {
        points.iter().copied().collect()
    }

    #[test]
    fn scaling_passes_above_the_floor_and_fails_below_it() {
        // 4 threads at 1/3.2 of the serial time: 80% efficiency.
        let good = scaling_verdict(&sweep(&[(1, 3.2e9), (2, 1.7e9), (4, 1.0e9)]), 0.70);
        assert_eq!(good.status, Status::Pass, "{}", good.message);
        assert!(good.warnings.is_empty(), "{:?}", good.warnings);
        // 4 threads at 1/2.4 of the serial time: 60% efficiency.
        let bad = scaling_verdict(&sweep(&[(1, 2.4e9), (2, 1.5e9), (4, 1.0e9)]), 0.70);
        assert_eq!(bad.status, Status::Fail);
        assert!(bad.message.contains("60.0%"), "{}", bad.message);
    }

    #[test]
    fn scaling_cannot_measure_below_four_cores_and_times_nothing() {
        for cores in 1..GATE_THREADS {
            let verdict = check_scaling(cores, 0.70, |t| panic!("timed {t} threads"));
            assert_eq!(verdict.status, Status::CannotMeasure);
        }
        let mut timed = Vec::new();
        let verdict = check_scaling(4, 0.70, |t| {
            timed.push(t);
            1e9 / t as f64
        });
        assert_eq!(timed, [1, 2, 4]);
        assert_eq!(verdict.status, Status::Pass, "{}", verdict.message);
    }

    #[test]
    fn scaling_without_a_one_thread_point_fails() {
        let verdict = scaling_verdict(&sweep(&[(2, 1.0e9), (4, 0.5e9)]), 0.70);
        assert_eq!(verdict.status, Status::Fail);
        assert!(verdict.message.contains("1-thread"), "{}", verdict.message);
        let verdict = scaling_verdict(&sweep(&[(1, 1.0e9), (2, 0.5e9)]), 0.70);
        assert_eq!(verdict.status, Status::Fail);
        assert!(verdict.message.contains("4-thread"), "{}", verdict.message);
    }

    #[test]
    fn scaling_warns_on_superlinear_and_non_monotonic_sweeps() {
        // 2 threads at 40% of the serial time: 125% efficiency.
        let superlinear = scaling_verdict(&sweep(&[(1, 1.0e9), (2, 0.4e9), (4, 0.3e9)]), 0.70);
        assert_eq!(superlinear.warnings.len(), 1, "{:?}", superlinear.warnings);
        assert!(superlinear.warnings[0].contains("superlinear"));
        // 4 threads slower than 2.
        let slower = scaling_verdict(&sweep(&[(1, 1.0e9), (2, 0.6e9), (4, 0.7e9)]), 0.30);
        assert_eq!(slower.status, Status::Pass, "{}", slower.message);
        assert_eq!(slower.warnings.len(), 1, "{:?}", slower.warnings);
        assert!(slower.warnings[0].contains("non-monotonic"));
    }

    #[test]
    fn pipelining_fails_when_any_one_thread_count_is_under_the_floor() {
        let fast = [(1, 117e6, 71e6), (2, 110e6, 70e6)];
        let verdict = pipelining_verdict(&fast, 20.0);
        assert_eq!(verdict.status, Status::Pass, "{}", verdict.message);
        assert_eq!(verdict.rows.len(), 2);
        // 2 threads: 10% faster only.
        let verdict = pipelining_verdict(&[(1, 117e6, 71e6), (2, 110e6, 99e6)], 20.0);
        assert_eq!(verdict.status, Status::Fail);
        assert!(
            verdict.message.contains("2 thread(s)"),
            "{}",
            verdict.message
        );
        assert!(
            !verdict.message.contains("1 thread(s)"),
            "{}",
            verdict.message
        );
        assert_eq!(pipelining_verdict(&[], 20.0).status, Status::Fail);
    }
}
