//! Async-persistence durability: the batch loop's background writer
//! must leave exactly the same durable prefix and resume bit-identically
//! as synchronous persistence, for every kill point of the window loop
//! crossed with the three ways a background write can die — still in
//! flight (torn bytes), flushed-but-unacknowledged (record durable,
//! process dead), and dropped before reaching the medium — across
//! 1/2/4/auto thread shapes. The synchronous reference is a
//! [`StreamingCalibrator`] advanced over the same plan: it writes each
//! window inline before computing the next. A background write's error
//! surfaces at the *next* snapshot handoff (or at the final join), one
//! window later than inline; everything the store ends up holding must
//! be indistinguishable.

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
        .seed(7_311)
        .build();
    cfg.threads = threads;
    SequentialCalibrator::new(
        simulator,
        cfg,
        vec![JitterKernel::symmetric(0.08, 0.05, 0.8)],
        JitterKernel::asymmetric(0.05, 0.08, 0.05, 1.0),
    )
}

/// Advance a stream over `plan` into `store`, writing every window
/// inline before the next one starts; returns each window's result.
fn inline_stream(
    simulator: &CovidSimulator,
    threads: Option<usize>,
    observed: &[f64],
    plan: &WindowPlan,
    store: &dyn RunStore,
    policy: CheckpointPolicy,
) -> Vec<WindowResult> {
    let mut stream = StreamingCalibrator::open(
        calibrator(simulator, threads),
        Priors::paper(),
        ObservedData::cases_only(observed.to_vec()),
        store,
        policy,
    )
    .unwrap();
    plan.windows()
        .iter()
        .map(|&w| stream.advance_window(w).unwrap().clone())
        .collect()
}

/// Bit-level equality of everything a window result determines (scalars,
/// every particle field, the counters). The timings are excluded by
/// design: pipelining changes *when* work happens, never *what* is
/// computed.
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
    }
    assert_eq!(got.telemetry, want.telemetry, "{ctx}: counters");
}

#[test]
fn pipelined_matches_sync_bit_for_bit_across_thread_shapes() {
    let (truth, simulator) = setup();
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let plan = plan();
    let policy = CheckpointPolicy::every_window();

    // One reference: single-threaded, every window written inline.
    let ref_store = MemStore::new();
    let reference = inline_stream(
        &simulator,
        Some(1),
        &truth.observed_cases,
        &plan,
        &ref_store,
        policy,
    );

    for threads in [Some(1), Some(2), Some(4), None] {
        let inline_store = MemStore::new();
        let inline = inline_stream(
            &simulator,
            threads,
            &truth.observed_cases,
            &plan,
            &inline_store,
            policy,
        );
        let piped_store = MemStore::new();
        let piped = calibrator(&simulator, threads)
            .run_persisted(&Priors::paper(), &observed, &plan, &piped_store, &policy)
            .unwrap()
            .windows;
        for (path, windows, store) in [
            ("inline", &inline, &inline_store),
            ("pipelined", &piped, &piped_store),
        ] {
            let ctx = format!("threads={threads:?} {path}");
            assert_eq!(windows.len(), reference.len(), "{ctx}");
            for (got, want) in windows.iter().zip(&reference) {
                assert_windows_equal(got, want, &ctx);
            }
            // The stores hold the same records, byte for byte: a record
            // is a pure function of its run, however it was written.
            assert_eq!(store.list().unwrap(), ref_store.list().unwrap(), "{ctx}");
            for w in store.list().unwrap() {
                let (got, want) = (store.get(w).unwrap(), ref_store.get(w).unwrap());
                assert!(got.is_some() && got == want, "{ctx}: record {w}");
            }
        }
    }
}

#[test]
fn background_write_kill_matrix_resumes_bit_identical() {
    let (truth, simulator) = setup();
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let plan = plan();
    let policy = CheckpointPolicy::every_window();

    let baseline = calibrator(&simulator, Some(1))
        .run_persisted(
            &Priors::paper(),
            &observed,
            &plan,
            &MemStore::new(),
            &policy,
        )
        .unwrap();

    // The three kill states of an in-flight background write, each with
    // its expected durable footprint:
    //   in flight  (Truncate)        → valid prefix + one torn record
    //   flushed    (CrashAfterWrite) → the record is durable, ack lost
    //   dropped    (FailWrite)       → nothing past the valid prefix
    let matrix = [
        Fault::Truncate { keep: 40 },
        Fault::CrashAfterWrite,
        Fault::FailWrite,
    ];
    let shapes = [Some(1), Some(2), Some(4), None];

    for (si, &threads) in shapes.iter().enumerate() {
        // Resume on a *different* thread shape than the killed run: the
        // durable snapshot is shape-independent.
        let resume_threads = shapes[(si + 1) % shapes.len()];
        for fault in matrix {
            for write in 1..plan.len() {
                let ctx = format!("threads={threads:?} fault={fault:?} write={write}");
                let store = MemStore::new();
                let faulty = FaultStore::new(&store, FaultPlan::fail_write_at(write, fault));
                let err = calibrator(&simulator, threads)
                    .run_persisted(&Priors::paper(), &observed, &plan, &faulty, &policy)
                    .unwrap_err();
                assert!(
                    matches!(err, SmcError::Persist(_))
                        && err.to_string().contains("injected fault"),
                    "{ctx}: {err}"
                );

                // Durable footprint: the writer is fail-stop, so nothing
                // past the faulted write ever reaches the store.
                let (stored, resumed_window, recoveries) = match fault {
                    Fault::Truncate { .. } => (write + 1, write - 1, 1),
                    Fault::CrashAfterWrite => (write + 1, write, 0),
                    _ => (write, write - 1, 0),
                };
                assert_eq!(store.list().unwrap().len(), stored, "{ctx}: durable prefix");

                let resumed = calibrator(&simulator, resume_threads)
                    .resume_from(&Priors::paper(), &observed, &plan, &store, &policy)
                    .unwrap();
                assert_eq!(
                    resumed.resume,
                    Some(ResumeReport {
                        resumed_window: resumed_window as u32,
                        recoveries,
                    }),
                    "{ctx}"
                );
                assert_eq!(
                    resumed.windows.len(),
                    plan.len() - resumed_window,
                    "{ctx}: windows recomputed"
                );
                for (got, want) in resumed
                    .windows
                    .iter()
                    .zip(&baseline.windows[resumed_window..])
                {
                    assert_windows_equal(got, want, &ctx);
                }
                // The resumed run re-persists its continuation (replacing
                // any torn record): the store holds the full campaign.
                assert_eq!(store.list().unwrap().len(), plan.len(), "{ctx}: refilled");
            }
        }
    }
}

#[test]
fn fault_on_final_window_surfaces_at_the_join() {
    // The last snapshot is handed off and the loop has nothing further to
    // submit: the only place its failure can surface is the final writer
    // join — and it must, as a typed error, not a lost write.
    let (truth, simulator) = setup();
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let plan = plan();
    let policy = CheckpointPolicy::every_window();

    let store = MemStore::new();
    let last = plan.len() - 1;
    let faulty = FaultStore::new(&store, FaultPlan::fail_write_at(last, Fault::FailWrite));
    let err = calibrator(&simulator, None)
        .run_persisted(&Priors::paper(), &observed, &plan, &faulty, &policy)
        .unwrap_err();
    assert!(
        matches!(err, SmcError::Persist(_)) && err.to_string().contains("injected fault"),
        "{err}"
    );
    assert_eq!(store.list().unwrap().len(), last, "durable prefix");
}

#[test]
fn pipelined_retention_prunes_like_sync() {
    let (truth, simulator) = setup();
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let plan = plan();
    let policy = CheckpointPolicy {
        every_windows: 1,
        retain: Some(1),
    };

    let inline = MemStore::new();
    inline_stream(
        &simulator,
        None,
        &truth.observed_cases,
        &plan,
        &inline,
        policy,
    );
    let piped = MemStore::new();
    calibrator(&simulator, None)
        .run_persisted(&Priors::paper(), &observed, &plan, &piped, &policy)
        .unwrap();
    let newest = vec![plan.len() as u32 - 1];
    assert_eq!(inline.list().unwrap(), newest, "inline");
    assert_eq!(piped.list().unwrap(), newest, "pipelined");
}
