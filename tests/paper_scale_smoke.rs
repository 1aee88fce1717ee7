//! Paper-scale smoke test for the strong-scaling work: one calibration
//! window at the paper's full grid shape — 25,000 parameter tuples x 20
//! replicates = 500,000 cells (Section V runs this shape per window on
//! HPC) — must complete on a single box with exact deterministic day
//! accounting and bounded checkpoint duplication.
//!
//! The model itself is scaled down (small SEIR population, short
//! window): the point is the *grid shape* — per-cell stream setup,
//! scheduling, slab collection, and resampling at 500k cells — not
//! epidemiological fidelity.
//!
//! `#[ignore]`-gated: this is minutes of single-core runtime. CI runs it
//! from the scheduled `paper-scale` job; locally:
//!
//! ```text
//! cargo test --test paper_scale_smoke --release -- --ignored --nocapture
//! ```

use epismc::prelude::*;

/// Peak resident set size of this process in kilobytes (`VmHWM` from
/// `/proc/self/status`); `None` off Linux.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

#[test]
#[ignore = "paper-scale grid (500k cells); exercised by the scheduled CI job"]
fn paper_scale_window_completes_with_exact_accounting() {
    const N_PARAMS: usize = 25_000;
    const N_REPS: usize = 20;
    const RESAMPLE: usize = 2_000;
    let window = TimeWindow::new(5, 20);

    let simulator = SeirSimulator::new(SeirParams {
        population: 500,
        initial_exposed: 5,
        ..SeirParams::default()
    })
    .unwrap();
    let (truth, _) = simulator.run_fresh(&[0.5], 31, window.end).unwrap();
    let observed =
        ObservedData::cases_only_with(truth.series_f64("infections").unwrap(), BiasMode::Mean, 1.0);
    let priors = Priors {
        theta: vec![Box::new(UniformPrior::new(0.1, 0.9))],
        rho: Box::new(BetaPrior::new(100.0, 1.0)),
    };
    let config = CalibrationConfig::builder()
        .n_params(N_PARAMS)
        .n_replicates(N_REPS)
        .resample_size(RESAMPLE)
        .seed(99)
        .build();

    let result = SingleWindowIs::new(&simulator, config)
        .run(&priors, &observed, window)
        .unwrap();

    // The window completed with the full posterior.
    assert_eq!(result.posterior.len(), RESAMPLE);
    assert!(
        result.ess.is_finite() && result.ess > 0.0,
        "ess {}",
        result.ess
    );
    assert!(result.log_marginal.is_finite());

    // Exact day accounting: every one of the 500k cells simulated
    // 0..window.end days, once — deterministic regardless of scheduling.
    let t = &result.telemetry;
    assert_eq!(
        t.days_simulated,
        (N_PARAMS * N_REPS) as u64 * u64::from(window.end),
        "days_simulated must be exact at paper scale"
    );

    // Checkpoint sharing bounds memory: the posterior holds at most one
    // distinct checkpoint allocation per particle (and at least one).
    assert!(
        (1..=RESAMPLE).contains(&t.unique_checkpoints),
        "unique_checkpoints {} outside 1..={RESAMPLE}",
        t.unique_checkpoints
    );

    // Peak memory is observability, not a gate (machine-dependent):
    // recorded in the scheduled job's log for trend-watching.
    eprintln!(
        "paper-scale smoke: days_simulated={} unique_checkpoints={} \
         stream_setup={:?} serial={:?} peak_rss_kb={:?}",
        t.days_simulated,
        t.unique_checkpoints,
        result.timings.stream_setup,
        result.timings.serial,
        peak_rss_kb()
    );
}
