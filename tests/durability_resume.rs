//! Durability tentpole: a calibration killed after window k and resumed
//! from its run store is **bit-identical** to the uninterrupted run — for
//! every kill point and across thread counts. Because each window derives
//! its RNG stream independently from the master seed, the posterior
//! ensemble is the only cross-window state; these tests pin that the
//! persisted ensemble restores bit-exactly end to end.

use epismc::prelude::*;
use epismc::smc::sis::WindowResult;

fn setup() -> (GroundTruth, CovidSimulator) {
    let scenario = Scenario::paper_tiny();
    let truth = generate_ground_truth(&scenario, scenario.truth_seed);
    let simulator = CovidSimulator::new(scenario.base_params).unwrap();
    (truth, simulator)
}

fn plan() -> WindowPlan {
    WindowPlan::new(vec![
        TimeWindow::new(20, 33),
        TimeWindow::new(34, 47),
        TimeWindow::new(48, 61),
    ])
}

fn calibrator(
    simulator: &CovidSimulator,
    threads: Option<usize>,
) -> SequentialCalibrator<'_, CovidSimulator> {
    let mut cfg = CalibrationConfig::builder()
        .n_params(48)
        .n_replicates(3)
        .resample_size(96)
        .seed(2024)
        .build();
    cfg.threads = threads;
    SequentialCalibrator::new(
        simulator,
        cfg,
        vec![JitterKernel::symmetric(0.08, 0.05, 0.8)],
        JitterKernel::asymmetric(0.05, 0.08, 0.05, 1.0),
    )
}

/// Bit-level equality of everything a window result determines:
/// scalars by bit pattern, every particle field (including trajectories,
/// checkpoints, and origins), and the deterministic telemetry fields.
/// Wall-clock telemetry (`*_nanos`) and scheduling diagnostics are
/// excluded by design.
fn assert_windows_equal(got: &WindowResult, want: &WindowResult, ctx: &str) {
    assert_eq!(got.window, want.window, "{ctx}: window");
    assert_eq!(got.ess.to_bits(), want.ess.to_bits(), "{ctx}: ess");
    assert_eq!(
        got.log_marginal.to_bits(),
        want.log_marginal.to_bits(),
        "{ctx}: log_marginal"
    );
    assert_eq!(
        got.unique_ancestors, want.unique_ancestors,
        "{ctx}: unique_ancestors"
    );
    let (g, w) = (got.posterior.particles(), want.posterior.particles());
    assert_eq!(g.len(), w.len(), "{ctx}: particle count");
    for (i, (p, q)) in g.iter().zip(w).enumerate() {
        let bits = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&p.theta), bits(&q.theta), "{ctx}: particle {i} theta");
        assert_eq!(p.rho.to_bits(), q.rho.to_bits(), "{ctx}: particle {i} rho");
        assert_eq!(p.seed, q.seed, "{ctx}: particle {i} seed");
        assert_eq!(
            p.log_weight.to_bits(),
            q.log_weight.to_bits(),
            "{ctx}: particle {i} log_weight"
        );
        assert_eq!(p.trajectory, q.trajectory, "{ctx}: particle {i} trajectory");
        assert_eq!(
            *p.checkpoint, *q.checkpoint,
            "{ctx}: particle {i} checkpoint"
        );
        assert_eq!(
            p.origin.as_deref(),
            q.origin.as_deref(),
            "{ctx}: particle {i} origin"
        );
    }
    let (gt, wt) = (&got.telemetry, &want.telemetry);
    for (field, a, b) in [
        (
            "shared_bytes",
            gt.shared_bytes as u64,
            wt.shared_bytes as u64,
        ),
        ("flat_bytes", gt.flat_bytes as u64, wt.flat_bytes as u64),
        (
            "unique_segments",
            gt.unique_segments as u64,
            wt.unique_segments as u64,
        ),
        (
            "segment_refs",
            gt.segment_refs as u64,
            wt.segment_refs as u64,
        ),
        ("days_simulated", gt.days_simulated, wt.days_simulated),
        (
            "unique_checkpoints",
            gt.unique_checkpoints as u64,
            wt.unique_checkpoints as u64,
        ),
        (
            "checkpoint_refs",
            gt.checkpoint_refs as u64,
            wt.checkpoint_refs as u64,
        ),
        ("records_written", gt.records_written, wt.records_written),
    ] {
        assert_eq!(a, b, "{ctx}: telemetry {field}");
    }
}

#[test]
fn kill_resume_matrix_is_bit_identical_across_thread_counts() {
    let (truth, simulator) = setup();
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let plan = plan();
    let policy = CheckpointPolicy::every_window();

    for threads in [Some(1), Some(2), Some(4), None] {
        let baseline_store = MemStore::new();
        let baseline = calibrator(&simulator, threads)
            .run_persisted(&Priors::paper(), &observed, &plan, &baseline_store, &policy)
            .unwrap();
        assert!(baseline.resume.is_none());
        assert_eq!(baseline_store.len(), plan.len());

        // Persistence itself must not perturb results.
        let plain = calibrator(&simulator, threads)
            .run(&Priors::paper(), &observed, &plan)
            .unwrap();
        for (w, (got, want)) in plain.windows.iter().zip(&baseline.windows).enumerate() {
            // `records_written` legitimately differs (0 without a store);
            // compare everything else via the posterior and scalars.
            assert_eq!(got.log_marginal.to_bits(), want.log_marginal.to_bits());
            let fp = |e: &ParticleEnsemble| {
                e.particles()
                    .iter()
                    .map(|p| (p.theta[0].to_bits(), p.rho.to_bits(), p.seed))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                fp(&got.posterior),
                fp(&want.posterior),
                "persistence changed window {w} at threads={threads:?}"
            );
        }

        // Kill during the write after window `kill_at` (0-based write
        // index == window index under an every-window policy): windows
        // 0..kill_at are durable, everything after is lost.
        for kill_at in 1..plan.len() {
            let ctx = format!("threads={threads:?} kill_at={kill_at}");
            let store = MemStore::new();
            let faulty =
                FaultStore::new(&store, FaultPlan::fail_write_at(kill_at, Fault::FailWrite));
            let err = calibrator(&simulator, threads)
                .run_persisted(&Priors::paper(), &observed, &plan, &faulty, &policy)
                .unwrap_err();
            assert!(matches!(err, SmcError::Persist(_)), "{ctx}: {err}");
            assert_eq!(
                store.list().unwrap().len(),
                kill_at,
                "{ctx}: durable prefix"
            );

            let resumed = calibrator(&simulator, threads)
                .resume_from(&Priors::paper(), &observed, &plan, &store, &policy)
                .unwrap();
            assert_eq!(
                resumed.resume,
                Some(ResumeReport {
                    resumed_window: (kill_at - 1) as u32,
                    recoveries: 0,
                }),
                "{ctx}"
            );
            assert_eq!(resumed.windows.len(), plan.len() - kill_at + 1, "{ctx}");
            for (got, want) in resumed.windows.iter().zip(&baseline.windows[kill_at - 1..]) {
                assert_windows_equal(got, want, &ctx);
            }
            // The resumed run re-persists its continuation: the store
            // holds the full campaign again.
            assert_eq!(store.list().unwrap().len(), plan.len(), "{ctx}: refilled");
        }
    }
}

#[test]
fn resume_is_thread_shape_independent() {
    // The snapshot fingerprint deliberately excludes scheduling knobs:
    // a run killed on a 2-thread machine may resume on any machine shape
    // and still reproduce the single-threaded baseline bit for bit.
    let (truth, simulator) = setup();
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let plan = plan();
    let policy = CheckpointPolicy::every_window();

    let baseline_store = MemStore::new();
    let baseline = calibrator(&simulator, Some(1))
        .run_persisted(&Priors::paper(), &observed, &plan, &baseline_store, &policy)
        .unwrap();

    let store = MemStore::new();
    let faulty = FaultStore::new(&store, FaultPlan::fail_write_at(2, Fault::FailWrite));
    calibrator(&simulator, Some(2))
        .run_persisted(&Priors::paper(), &observed, &plan, &faulty, &policy)
        .unwrap_err();

    let resumed = calibrator(&simulator, None)
        .resume_from(&Priors::paper(), &observed, &plan, &store, &policy)
        .unwrap();
    assert_eq!(
        resumed.resume,
        Some(ResumeReport {
            resumed_window: 1,
            recoveries: 0,
        })
    );
    for (got, want) in resumed.windows.iter().zip(&baseline.windows[1..]) {
        assert_windows_equal(got, want, "cross-thread resume");
    }
}

#[test]
fn retention_bounds_the_store_and_still_resumes() {
    let (truth, simulator) = setup();
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let plan = plan();
    let policy = CheckpointPolicy {
        every_windows: 1,
        retain: Some(1),
    };

    let baseline_store = MemStore::new();
    let baseline = calibrator(&simulator, None)
        .run_persisted(&Priors::paper(), &observed, &plan, &baseline_store, &policy)
        .unwrap();
    // Only the newest snapshot survives retention.
    assert_eq!(baseline_store.list().unwrap(), vec![plan.len() as u32 - 1]);

    // Kill after window 1's write: retention already pruned window 0, so
    // the store holds exactly window 1 — and resume picks it up.
    let store = MemStore::new();
    let faulty = FaultStore::new(&store, FaultPlan::fail_write_at(2, Fault::FailWrite));
    calibrator(&simulator, None)
        .run_persisted(&Priors::paper(), &observed, &plan, &faulty, &policy)
        .unwrap_err();
    assert_eq!(store.list().unwrap(), vec![1]);

    let resumed = calibrator(&simulator, None)
        .resume_from(&Priors::paper(), &observed, &plan, &store, &policy)
        .unwrap();
    assert_eq!(
        resumed.resume,
        Some(ResumeReport {
            resumed_window: 1,
            recoveries: 0,
        })
    );
    for (got, want) in resumed.windows.iter().zip(&baseline.windows[1..]) {
        assert_windows_equal(got, want, "retained resume");
    }
}

#[test]
fn sparse_policy_persists_selected_and_final_windows() {
    let (truth, simulator) = setup();
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let plan = plan();
    let policy = CheckpointPolicy {
        every_windows: 2,
        retain: None,
    };

    let store = MemStore::new();
    let result = calibrator(&simulator, None)
        .run_persisted(&Priors::paper(), &observed, &plan, &store, &policy)
        .unwrap();
    // Windows are 0-based: every-2 persists window 1, and the final
    // window always persists regardless of cadence.
    assert_eq!(store.list().unwrap(), vec![1, 2]);
    assert_eq!(result.windows[0].telemetry.records_written, 0);
    assert_eq!(result.windows[1].telemetry.records_written, 1);
    assert_eq!(result.windows[2].telemetry.records_written, 1);

    // A fresh calibrator resumes from the newest snapshot (the final
    // window) — nothing left to recompute, result is just that window.
    let resumed = calibrator(&simulator, None)
        .resume_from(&Priors::paper(), &observed, &plan, &store, &policy)
        .unwrap();
    assert_eq!(resumed.windows.len(), 1);
    assert_windows_equal(
        &resumed.windows[0],
        &result.windows[2],
        "final-window resume",
    );
}

#[test]
fn resume_refuses_mismatched_runs() {
    let (truth, simulator) = setup();
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let plan = plan();
    let policy = CheckpointPolicy::every_window();

    let store = MemStore::new();
    calibrator(&simulator, None)
        .run_persisted(&Priors::paper(), &observed, &plan, &store, &policy)
        .unwrap();

    // A different master seed is a different run.
    let mut cfg = CalibrationConfig::builder()
        .n_params(48)
        .n_replicates(3)
        .resample_size(96)
        .seed(2025)
        .build();
    cfg.threads = None;
    let other = SequentialCalibrator::new(
        &simulator,
        cfg,
        vec![JitterKernel::symmetric(0.08, 0.05, 0.8)],
        JitterKernel::asymmetric(0.05, 0.08, 0.05, 1.0),
    );
    let err = other
        .resume_from(&Priors::paper(), &observed, &plan, &store, &policy)
        .unwrap_err();
    assert!(matches!(err, SmcError::Persist(_)), "{err}");

    // An empty store has nothing to resume.
    let empty = MemStore::new();
    let err = calibrator(&simulator, None)
        .resume_from(&Priors::paper(), &observed, &plan, &empty, &policy)
        .unwrap_err();
    assert!(err.to_string().contains("nothing to resume"), "{err}");
}
