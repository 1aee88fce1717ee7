//! Determinism guarantees: identical results for identical seeds, across
//! thread counts — the property that makes HPC-scale runs reproducible.

use epismc::prelude::*;

fn setup() -> (GroundTruth, CovidSimulator) {
    let scenario = Scenario::paper_tiny();
    let truth = generate_ground_truth(&scenario, scenario.truth_seed);
    let simulator = CovidSimulator::new(scenario.base_params).unwrap();
    (truth, simulator)
}

fn config(seed: u64, threads: Option<usize>) -> CalibrationConfig {
    let mut b = CalibrationConfig::builder()
        .n_params(120)
        .n_replicates(4)
        .resample_size(200)
        .seed(seed);
    if let Some(t) = threads {
        b = b.threads(t);
    }
    b.build()
}

/// Scheduling chunks a 60-cell grid splits into on 1, 2 and 4 workers.
fn chunks_of_60_cells() -> [usize; 3] {
    [1, 2, 4].map(|t| ParallelRunner::new(Some(t)).unwrap().chunk_count(60))
}

fn posterior_fingerprint(e: &ParticleEnsemble) -> Vec<(u64, u64, u64)> {
    e.particles()
        .iter()
        .map(|p| (p.theta[0].to_bits(), p.rho.to_bits(), p.seed))
        .collect()
}

#[test]
fn same_seed_same_posterior() {
    let (truth, simulator) = setup();
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let window = TimeWindow::new(20, 33);
    let a = SingleWindowIs::new(&simulator, config(42, None))
        .run(&Priors::paper(), &observed, window)
        .unwrap();
    let b = SingleWindowIs::new(&simulator, config(42, None))
        .run(&Priors::paper(), &observed, window)
        .unwrap();
    assert_eq!(
        posterior_fingerprint(&a.posterior),
        posterior_fingerprint(&b.posterior)
    );
    assert_eq!(a.ess, b.ess);
    assert_eq!(a.log_marginal, b.log_marginal);
}

#[test]
fn different_seed_different_posterior() {
    let (truth, simulator) = setup();
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let window = TimeWindow::new(20, 33);
    let a = SingleWindowIs::new(&simulator, config(42, None))
        .run(&Priors::paper(), &observed, window)
        .unwrap();
    let b = SingleWindowIs::new(&simulator, config(43, None))
        .run(&Priors::paper(), &observed, window)
        .unwrap();
    assert_ne!(
        posterior_fingerprint(&a.posterior),
        posterior_fingerprint(&b.posterior)
    );
}

#[test]
fn thread_count_does_not_change_results() {
    let (truth, simulator) = setup();
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let window = TimeWindow::new(20, 33);
    let serial = SingleWindowIs::new(&simulator, config(7, Some(1)))
        .run(&Priors::paper(), &observed, window)
        .unwrap();
    let parallel = SingleWindowIs::new(&simulator, config(7, Some(4)))
        .run(&Priors::paper(), &observed, window)
        .unwrap();
    assert_eq!(
        posterior_fingerprint(&serial.posterior),
        posterior_fingerprint(&parallel.posterior)
    );
    assert_eq!(serial.log_marginal, parallel.log_marginal);
}

#[test]
fn sequential_run_is_deterministic_across_thread_counts() {
    let (truth, simulator) = setup();
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let plan = WindowPlan::new(vec![TimeWindow::new(20, 33), TimeWindow::new(34, 47)]);
    let run = |threads: usize| {
        SequentialCalibrator::new(
            &simulator,
            config(9, Some(threads)),
            vec![JitterKernel::symmetric(0.08, 0.05, 0.8)],
            JitterKernel::asymmetric(0.05, 0.08, 0.05, 1.0),
        )
        .run(&Priors::paper(), &observed, &plan)
        .unwrap()
    };
    let a = run(1);
    let b = run(3);
    assert_eq!(
        posterior_fingerprint(a.final_posterior()),
        posterior_fingerprint(b.final_posterior())
    );
}

#[test]
fn scheduling_matrix_is_bit_identical() {
    // The tentpole guarantee: the flattened (parameter, replicate) cell
    // grid produces bit-identical calibrations for EVERY worker count and
    // the scheduling chunk size each one gets — including the
    // checkpoint-continuation path (window 2 restores window 1's shared
    // checkpoints). The baseline is fully serial; every other shape must
    // reproduce it exactly.
    //
    // The adaptive rule claims `cells / (workers × 8)` cells at a time:
    // on this 15 × 4 grid one worker claims 7-cell chunks that straddle
    // parameter rows, two claim 3-cell chunks, and four claim one cell.
    assert_eq!(chunks_of_60_cells(), [9, 20, 60]);
    let (truth, simulator) = setup();
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let plan = WindowPlan::new(vec![TimeWindow::new(20, 33), TimeWindow::new(34, 47)]);
    let run = |threads: Option<usize>| {
        let mut cfg = CalibrationConfig::builder()
            .n_params(15)
            .n_replicates(4)
            .resample_size(120)
            .seed(11)
            .build();
        cfg.threads = threads;
        SequentialCalibrator::new(
            &simulator,
            cfg,
            vec![JitterKernel::symmetric(0.08, 0.05, 0.8)],
            JitterKernel::asymmetric(0.05, 0.08, 0.05, 1.0),
        )
        .run(&Priors::paper(), &observed, &plan)
        .unwrap()
    };
    let baseline = run(Some(1));
    let baseline_fp = posterior_fingerprint(baseline.final_posterior());
    let baseline_lm: Vec<u64> = baseline
        .windows
        .iter()
        .map(|w| w.log_marginal.to_bits())
        .collect();
    for threads in [Some(2), Some(4), None] {
        let got = run(threads);
        assert_eq!(
            posterior_fingerprint(got.final_posterior()),
            baseline_fp,
            "posterior diverged at threads={threads:?}"
        );
        let lm: Vec<u64> = got
            .windows
            .iter()
            .map(|w| w.log_marginal.to_bits())
            .collect();
        assert_eq!(
            lm, baseline_lm,
            "log marginals diverged at threads={threads:?}"
        );
    }
}

#[test]
fn dir_store_resume_round_trip_is_bit_identical_across_shapes() {
    // Counter-based streams make every window's RNG layout a pure
    // function of `(master seed, window, param, replicate)` — so a run
    // persisted under one scheduling shape, truncated on disk, and
    // resumed under a *different* thread count — and so a different
    // chunk size — must land on the serial baseline bit for bit. On this
    // 20 × 3 grid one worker claims 7-cell chunks that straddle
    // parameter rows, two claim one row at a time, and four claim one
    // cell.
    assert_eq!(chunks_of_60_cells(), [9, 20, 60]);
    let (truth, simulator) = setup();
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let plan = WindowPlan::new(vec![
        TimeWindow::new(20, 33),
        TimeWindow::new(34, 47),
        TimeWindow::new(48, 61),
    ]);
    let policy = CheckpointPolicy::every_window();
    let calibrate = |threads: Option<usize>| {
        let mut cfg = CalibrationConfig::builder()
            .n_params(20)
            .n_replicates(3)
            .resample_size(96)
            .seed(17)
            .build();
        cfg.threads = threads;
        SequentialCalibrator::new(
            &simulator,
            cfg,
            vec![JitterKernel::symmetric(0.08, 0.05, 0.8)],
            JitterKernel::asymmetric(0.05, 0.08, 0.05, 1.0),
        )
    };
    let baseline = calibrate(Some(1))
        .run(&Priors::paper(), &observed, &plan)
        .unwrap();
    let baseline_fp = posterior_fingerprint(baseline.final_posterior());
    let baseline_last_lm = baseline.windows.last().unwrap().log_marginal.to_bits();

    // (write shape, resume shape): every resume crosses the shape it
    // was persisted under.
    let shapes = [(Some(2), Some(4)), (Some(4), None), (None, Some(1))];
    for (case, &(wt, rt)) in shapes.iter().enumerate() {
        let ctx = format!("case {case}: write={wt:?} resume={rt:?}");
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("determinism_dir_resume_{case}"));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        let store = DirStore::open(&dir).unwrap();
        calibrate(wt)
            .run_persisted(&Priors::paper(), &observed, &plan, &store, &policy)
            .unwrap();
        // Crash simulation: the final window's record is lost; the
        // durable prefix ends at window 1.
        store.delete(plan.len() as u32 - 1).unwrap();
        // Round-trip through a fresh handle (re-lists the directory).
        let reopened = DirStore::open(&dir).unwrap();
        let resumed = calibrate(rt)
            .resume_from(&Priors::paper(), &observed, &plan, &reopened, &policy)
            .unwrap();
        assert_eq!(
            resumed.resume,
            Some(ResumeReport {
                resumed_window: plan.len() as u32 - 2,
                recoveries: 0,
            }),
            "{ctx}"
        );
        assert_eq!(
            posterior_fingerprint(resumed.final_posterior()),
            baseline_fp,
            "{ctx}: final posterior diverged"
        );
        assert_eq!(
            resumed.windows.last().unwrap().log_marginal.to_bits(),
            baseline_last_lm,
            "{ctx}: recomputed window log marginal diverged"
        );
    }
}

#[test]
fn same_seed_same_event_ordering_in_raw_engine() {
    // Regression for the engine's per-edge flow bookkeeping: it is keyed
    // by a BTreeMap so that the order in which edge events are drained
    // into the daily flow series is a function of the spec alone, never
    // of hash-state. Two same-seed runs of the event-ordered (Gillespie)
    // stepper must agree bit-for-bit on every recorded series, every day,
    // and on the final checkpoint.
    let model = CovidModel::new(Scenario::paper_tiny().base_params).unwrap();
    let run = || {
        let mut sim = Simulation::new(
            model.spec(),
            GillespieStepper::new(),
            model.initial_state(4242),
        )
        .unwrap();
        sim.run_until(40);
        let ck = sim.checkpoint();
        (sim.into_series(), ck)
    };
    let (series_a, ck_a) = run();
    let (series_b, ck_b) = run();
    assert_eq!(ck_a, ck_b, "checkpoints diverged under a shared seed");
    for name in series_a.names() {
        assert_eq!(
            series_a.series(name).unwrap(),
            series_b.series(name).unwrap(),
            "series '{name}' event ordering diverged under a shared seed"
        );
    }
}

#[test]
fn common_random_numbers_share_seeds_across_parameters() {
    // Section V-B: "the same set of random seeds is employed to generate
    // the 20 realizations" — replicate r's simulation seed is identical
    // for every parameter tuple.
    let (truth, simulator) = setup();
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let mut cfg = config(5, None);
    cfg.keep_prior_ensemble = true;
    let n_reps = cfg.n_replicates;
    let result = SingleWindowIs::new(&simulator, cfg)
        .run(&Priors::paper(), &observed, TimeWindow::new(20, 33))
        .unwrap();
    let prior = result.prior_ensemble.unwrap();
    // Grid layout is row-major (param-major): particle (i, r) at index
    // i * n_reps + r. Seeds must repeat with period n_reps.
    let seeds: Vec<u64> = prior.particles().iter().map(|p| p.seed).collect();
    for (idx, &s) in seeds.iter().enumerate() {
        assert_eq!(s, seeds[idx % n_reps], "seed grid broken at {idx}");
    }
    let unique: std::collections::HashSet<u64> = seeds.iter().copied().collect();
    assert_eq!(unique.len(), n_reps);
}
