//! The streaming calibrator's headline invariant: appending windows one
//! at a time is **bit-identical** to a batch `run_persisted` over the
//! same plan — posterior ensembles, log marginals, and decoded store
//! records — across every resampling scheme, every thread shape, and
//! every kill-point between appends. Plus the retention regression the
//! streaming path exposed: pruning must never delete the newest durable
//! record while an append is in flight.

use epismc::prelude::*;
use epismc::smc::persist::format;
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
    scheme: ResampleScheme,
) -> SequentialCalibrator<'_, CovidSimulator> {
    let mut cfg = CalibrationConfig::builder()
        .n_params(48)
        .n_replicates(3)
        .resample_size(96)
        .seed(7_311)
        .resample(scheme)
        .build();
    cfg.threads = threads;
    SequentialCalibrator::new(
        simulator,
        cfg,
        vec![JitterKernel::symmetric(0.08, 0.05, 0.8)],
        JitterKernel::asymmetric(0.05, 0.08, 0.05, 1.0),
    )
}

/// Bit-level equality of everything a window result determines (scalars,
/// every particle field, deterministic telemetry). Wall-clock telemetry
/// is excluded by design: streaming changes *when* windows are computed,
/// never *what* is computed.
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
    let (gt, wt) = (&got.telemetry, &want.telemetry);
    assert_eq!(gt.shared_bytes, wt.shared_bytes, "{ctx}: shared_bytes");
    assert_eq!(gt.flat_bytes, wt.flat_bytes, "{ctx}: flat_bytes");
    assert_eq!(
        gt.days_simulated, wt.days_simulated,
        "{ctx}: days_simulated"
    );
    assert_eq!(
        gt.unique_checkpoints, wt.unique_checkpoints,
        "{ctx}: unique_checkpoints"
    );
}

/// Decoded-record equality on every run-reproducible field (record
/// *bytes* differ only in wall-clock words).
fn assert_stores_equal(got: &dyn RunStore, want: &dyn RunStore, ctx: &str) {
    assert_eq!(got.list().unwrap(), want.list().unwrap(), "{ctx}: windows");
    for w in got.list().unwrap() {
        let g = format::decode_record(&got.get(w).unwrap().unwrap()).unwrap();
        let e = format::decode_record(&want.get(w).unwrap().unwrap()).unwrap();
        assert_eq!(g.seed, e.seed, "{ctx}: window {w} seed");
        assert_eq!(
            g.fingerprint, e.fingerprint,
            "{ctx}: window {w} fingerprint"
        );
        assert_eq!(g.window_index, e.window_index, "{ctx}: window {w} index");
        assert_eq!(g.window, e.window, "{ctx}: window {w} span");
        assert_eq!(
            g.observed_fingerprint, e.observed_fingerprint,
            "{ctx}: window {w} observed fingerprint"
        );
        assert_ne!(
            g.observed_fingerprint, 0,
            "{ctx}: window {w} records the observed fingerprint"
        );
        assert_eq!(g.ess.to_bits(), e.ess.to_bits(), "{ctx}: window {w} ess");
        assert_eq!(
            g.log_marginal.to_bits(),
            e.log_marginal.to_bits(),
            "{ctx}: window {w} log_marginal"
        );
        let fp = |ens: &ParticleEnsemble| {
            ens.particles()
                .iter()
                .map(|p| (p.theta[0].to_bits(), p.rho.to_bits(), p.seed))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            fp(&g.posterior),
            fp(&e.posterior),
            "{ctx}: window {w} persisted posterior"
        );
    }
}

#[test]
fn streaming_matches_batch_across_schemes_and_thread_shapes() {
    let (truth, simulator) = setup();
    let plan = plan();
    let policy = CheckpointPolicy::every_window();

    for scheme in [
        ResampleScheme::Multinomial,
        ResampleScheme::Stratified,
        ResampleScheme::Systematic,
        ResampleScheme::Residual,
    ] {
        // One single-threaded batch reference per scheme.
        let ref_store = MemStore::new();
        let reference = calibrator(&simulator, Some(1), scheme)
            .run_persisted(
                &Priors::paper(),
                &ObservedData::cases_only(truth.observed_cases.clone()),
                &plan,
                &ref_store,
                &policy,
            )
            .unwrap();

        for threads in [Some(1), Some(2), Some(4), None] {
            let ctx = format!("scheme={scheme:?} threads={threads:?}");
            let store = MemStore::new();
            let mut stream = StreamingCalibrator::open(
                calibrator(&simulator, threads, scheme),
                Priors::paper(),
                ObservedData::cases_only(truth.observed_cases.clone()),
                &store,
                policy,
            )
            .unwrap();
            assert!(stream.resume().is_none(), "{ctx}: fresh stream");
            for (widx, &window) in plan.windows().iter().enumerate() {
                let got = stream.advance_window(window).unwrap();
                assert_windows_equal(got, &reference.windows[widx], &ctx);
            }
            assert_eq!(
                stream.total_log_marginal().to_bits(),
                reference.total_log_marginal().to_bits(),
                "{ctx}: total log marginal"
            );
            assert_stores_equal(&store, &ref_store, &ctx);
        }
    }
}

#[test]
fn append_window_ingests_incrementally_and_matches_batch() {
    let (truth, simulator) = setup();
    let plan = plan();
    let scheme = ResampleScheme::Systematic;
    let policy = CheckpointPolicy::every_window();

    let reference = calibrator(&simulator, Some(1), scheme)
        .run_persisted(
            &Priors::paper(),
            &ObservedData::cases_only(truth.observed_cases.clone()),
            &plan,
            &MemStore::new(),
            &policy,
        )
        .unwrap();

    // Open with only the warm-up days (1..=19, before the first window);
    // each window's data arrives as its own append.
    let store = MemStore::new();
    let mut stream = StreamingCalibrator::open(
        calibrator(&simulator, None, scheme),
        Priors::paper(),
        ObservedData::cases_only(truth.observed_cases[..19].to_vec()),
        &store,
        policy,
    )
    .unwrap();

    for (widx, &window) in plan.windows().iter().enumerate() {
        let arriving = ObservedSeries {
            start_day: window.start,
            values: truth.observed_cases[window.start as usize - 1..window.end as usize].to_vec(),
        };
        let got = stream.append_window(&arriving).unwrap();
        assert_windows_equal(&got, &reference.windows[widx], &format!("append {widx}"));
    }
    assert_eq!(store.list().unwrap(), vec![0, 1, 2]);

    // Contiguity is enforced: a gap (or overlap) in the arriving data is
    // a typed observation error, not a silently mis-aligned window.
    let gapped = ObservedSeries {
        start_day: 64,
        values: vec![1.0, 2.0],
    };
    let err = stream.append_window(&gapped).unwrap_err();
    assert!(matches!(err, SmcError::Observation(_)), "{err}");
    let empty = ObservedSeries {
        start_day: 62,
        values: vec![],
    };
    let err = stream.append_window(&empty).unwrap_err();
    assert!(matches!(err, SmcError::Observation(_)), "{err}");
}

#[test]
fn kill_between_appends_then_reopen_continues_bit_identical() {
    let (truth, simulator) = setup();
    let plan = plan();
    let scheme = ResampleScheme::Stratified;
    let policy = CheckpointPolicy::every_window();

    let baseline = calibrator(&simulator, Some(1), scheme)
        .run_persisted(
            &Priors::paper(),
            &ObservedData::cases_only(truth.observed_cases.clone()),
            &plan,
            &MemStore::new(),
            &policy,
        )
        .unwrap();

    // Clean kill: drop the stream after k appends, reopen (on a different
    // thread shape), continue — every window lands bit-identical.
    for k in 1..plan.len() {
        let ctx = format!("clean kill after {k} appends");
        let store = MemStore::new();
        {
            let mut stream = StreamingCalibrator::open(
                calibrator(&simulator, Some(2), scheme),
                Priors::paper(),
                ObservedData::cases_only(truth.observed_cases.clone()),
                &store,
                policy,
            )
            .unwrap();
            for &window in &plan.windows()[..k] {
                stream.advance_window(window).unwrap();
            }
        } // stream dropped: the "process" dies between appends

        let mut stream = StreamingCalibrator::open(
            calibrator(&simulator, Some(4), scheme),
            Priors::paper(),
            ObservedData::cases_only(truth.observed_cases.clone()),
            &store,
            policy,
        )
        .unwrap();
        let report = stream.resume().unwrap();
        assert_eq!(report.resumed_window, k as u32 - 1, "{ctx}");
        assert_eq!(report.recoveries, 0, "{ctx}");
        assert_eq!(stream.next_window_index(), k, "{ctx}");
        for (widx, &window) in plan.windows().iter().enumerate().skip(k) {
            let got = stream.advance_window(window).unwrap();
            assert_windows_equal(got, &baseline.windows[widx], &ctx);
        }
        assert_eq!(store.list().unwrap(), vec![0, 1, 2], "{ctx}");
    }

    // Faulted kill: the append's own write dies (torn, dropped, or
    // durable-but-unacknowledged). The stream fail-stops; reopening
    // recovers the newest decodable snapshot and the continuation is
    // still bit-identical.
    let matrix = [
        (Fault::Truncate { keep: 40 }, 1usize),
        (Fault::FailWrite, 0),
        (Fault::CrashAfterWrite, 0),
    ];
    for (fault, recoveries) in matrix {
        for write in 1..plan.len() {
            let ctx = format!("fault={fault:?} write={write}");
            let store = MemStore::new();
            let faulty = FaultStore::new(&store, FaultPlan::fail_write_at(write, fault));
            let mut stream = StreamingCalibrator::open(
                calibrator(&simulator, None, scheme),
                Priors::paper(),
                ObservedData::cases_only(truth.observed_cases.clone()),
                &faulty,
                policy,
            )
            .unwrap();
            let mut first_err = None;
            for &window in &plan.windows()[..=write] {
                if let Err(e) = stream.advance_window(window) {
                    first_err = Some(e);
                    break;
                }
            }
            let err = first_err.expect("injected fault must surface");
            assert!(
                matches!(err, SmcError::Persist(_)) && err.to_string().contains("injected fault"),
                "{ctx}: {err}"
            );
            // Fail-stop: the poisoned handle refuses further appends.
            let err = stream.advance_window(plan.windows()[write]).unwrap_err();
            assert!(err.to_string().contains("fail-stopped"), "{ctx}: {err}");
            drop(stream);

            let resumed_window = match fault {
                Fault::CrashAfterWrite => write,
                _ => write - 1,
            };
            let mut stream = StreamingCalibrator::open(
                calibrator(&simulator, Some(2), scheme),
                Priors::paper(),
                ObservedData::cases_only(truth.observed_cases.clone()),
                &store,
                policy,
            )
            .unwrap();
            let report = stream.resume().unwrap();
            assert_eq!(report.resumed_window, resumed_window as u32, "{ctx}");
            assert_eq!(report.recoveries, recoveries, "{ctx}");
            for (widx, &window) in plan.windows().iter().enumerate().skip(resumed_window + 1) {
                let got = stream.advance_window(window).unwrap();
                assert_windows_equal(got, &baseline.windows[widx], &ctx);
            }
            assert_eq!(store.list().unwrap(), vec![0, 1, 2], "{ctx}: refilled");
        }
    }
}

#[test]
fn reopen_rejects_mismatched_seed_and_observed_data() {
    let (truth, simulator) = setup();
    let plan = plan();
    let scheme = ResampleScheme::Systematic;
    let policy = CheckpointPolicy::every_window();

    let store = MemStore::new();
    let mut stream = StreamingCalibrator::open(
        calibrator(&simulator, None, scheme),
        Priors::paper(),
        ObservedData::cases_only(truth.observed_cases.clone()),
        &store,
        policy,
    )
    .unwrap();
    stream.advance_window(plan.windows()[0]).unwrap();
    drop(stream);

    // Different seed: refused.
    let other = SequentialCalibrator::new(
        &simulator,
        CalibrationConfig::builder()
            .n_params(48)
            .n_replicates(3)
            .resample_size(96)
            .seed(999)
            .resample(scheme)
            .build(),
        vec![JitterKernel::symmetric(0.08, 0.05, 0.8)],
        JitterKernel::asymmetric(0.05, 0.08, 0.05, 1.0),
    );
    let err = StreamingCalibrator::open(
        other,
        Priors::paper(),
        ObservedData::cases_only(truth.observed_cases.clone()),
        &store,
        policy,
    )
    .unwrap_err();
    assert!(err.to_string().contains("seed"), "{err}");

    // Same configuration, different observed values over the snapshot
    // window: the v5 observed fingerprint refuses the reopen.
    let mut tampered = truth.observed_cases.clone();
    tampered[25] += 1.0; // day 26, inside window [20, 33]
    let err = StreamingCalibrator::open(
        calibrator(&simulator, None, scheme),
        Priors::paper(),
        ObservedData::cases_only(tampered),
        &store,
        policy,
    )
    .unwrap_err();
    assert!(err.to_string().contains("different observed"), "{err}");
}

#[test]
fn reopen_rejects_data_scored_under_another_sigma_or_bias_mode() {
    // The guard fingerprints the observation model each source scores
    // with, not only the observed values: a store written over σ = 1
    // sampled-binomial data refuses the same counts scored with σ = 2 or
    // with conditional-mean thinning, and reopens the unchanged data.
    let (truth, simulator) = setup();
    let scheme = ResampleScheme::Multinomial;
    let policy = CheckpointPolicy::every_window();
    let data =
        |mode, sigma| ObservedData::cases_only_with(truth.observed_cases.clone(), mode, sigma);
    let store = MemStore::new();
    let open = |observed| {
        StreamingCalibrator::open(
            calibrator(&simulator, None, scheme),
            Priors::paper(),
            observed,
            &store,
            policy,
        )
    };
    let mut stream = open(data(BiasMode::Sampled, 1.0)).unwrap();
    stream.advance_window(plan().windows()[0]).unwrap();
    drop(stream);

    for (mode, sigma) in [(BiasMode::Sampled, 2.0), (BiasMode::Mean, 1.0)] {
        let err = open(data(mode, sigma)).unwrap_err();
        assert!(
            matches!(err, SmcError::Persist(_)),
            "{mode:?}, sigma {sigma}: {err}"
        );
    }
    let reopened = open(data(BiasMode::Sampled, 1.0)).unwrap();
    assert_eq!(reopened.next_window_index(), 1);
}

#[test]
fn retention_never_drops_the_newest_durable_record_mid_append() {
    // The regression: with pruning keyed off the store's *listing*
    // (instead of the record just written), a retained stream whose
    // append fails mid-write could delete its only good snapshot — or
    // let a stale higher-indexed corpse of an abandoned longer run
    // shadow the live one. Retention now runs strictly *after* a
    // successful write and prunes relative to it.
    let (truth, simulator) = setup();
    let plan = plan();
    let scheme = ResampleScheme::Systematic;
    let observed = || ObservedData::cases_only(truth.observed_cases.clone());

    // A store holding windows 0 and 1 of the campaign...
    let store = MemStore::new();
    calibrator(&simulator, Some(1), scheme)
        .run_persisted(
            &Priors::paper(),
            &observed(),
            &WindowPlan::new(plan.windows()[..2].to_vec()),
            &store,
            &CheckpointPolicy::every_window(),
        )
        .unwrap();
    store.delete(0).unwrap();
    // ...plus a corrupt higher-indexed corpse from an abandoned run.
    store
        .put(3, b"stale corpse of an abandoned longer run")
        .unwrap();

    // Append window 2 under retain=1, but its write dies: the newest
    // durable record (window 1) must survive untouched — retention must
    // not have run ahead of the failed write.
    let policy = CheckpointPolicy {
        every_windows: 1,
        retain: Some(1),
    };
    let faulty = FaultStore::new(&store, FaultPlan::fail_write_at(0, Fault::FailWrite));
    let mut stream = StreamingCalibrator::open(
        calibrator(&simulator, None, scheme),
        Priors::paper(),
        observed(),
        &faulty,
        policy,
    )
    .unwrap();
    assert_eq!(stream.resume().unwrap().resumed_window, 1);
    let err = stream.advance_window(plan.windows()[2]).unwrap_err();
    assert!(err.to_string().contains("injected fault"), "{err}");
    let mut left = store.list().unwrap();
    left.sort_unstable();
    assert_eq!(left, vec![1, 3], "good snapshot survives the fault");

    // With a healthy store the append lands, and retention keeps exactly
    // the record just written — pruning both the predecessor and the
    // stale corpse (which a later resume would otherwise trip over).
    let mut stream = StreamingCalibrator::open(
        calibrator(&simulator, None, scheme),
        Priors::paper(),
        observed(),
        &store,
        policy,
    )
    .unwrap();
    stream.advance_window(plan.windows()[2]).unwrap();
    drop(stream);
    assert_eq!(store.list().unwrap(), vec![2]);
    let stream = StreamingCalibrator::open(
        calibrator(&simulator, None, scheme),
        Priors::paper(),
        observed(),
        &store,
        policy,
    )
    .unwrap();
    assert_eq!(stream.resume().unwrap().resumed_window, 2);
    assert_eq!(stream.resume().unwrap().recoveries, 0);
}

#[test]
fn flush_parks_the_newest_window_on_sparse_cadence() {
    let (truth, simulator) = setup();
    let plan = plan();
    let scheme = ResampleScheme::Systematic;
    // Cadence 2: only window 1 persists on its own; the stream's newest
    // state (window 2) reaches disk via flush.
    let policy = CheckpointPolicy {
        every_windows: 2,
        retain: None,
    };

    let store = MemStore::new();
    let mut stream = StreamingCalibrator::open(
        calibrator(&simulator, None, scheme),
        Priors::paper(),
        ObservedData::cases_only(truth.observed_cases.clone()),
        &store,
        policy,
    )
    .unwrap();
    for &window in plan.windows() {
        stream.advance_window(window).unwrap();
    }
    assert_eq!(
        store.list().unwrap(),
        vec![1],
        "cadence writes window 1 only"
    );
    stream.flush().unwrap();
    let mut listed = store.list().unwrap();
    listed.sort_unstable();
    assert_eq!(listed, vec![1, 2], "flush parks the newest window");
    stream.flush().unwrap(); // idempotent
    assert_eq!(store.list().unwrap().len(), 2);

    // The flushed record is a first-class resume point.
    let stream = StreamingCalibrator::open(
        calibrator(&simulator, None, scheme),
        Priors::paper(),
        ObservedData::cases_only(truth.observed_cases.clone()),
        &store,
        policy,
    )
    .unwrap();
    assert_eq!(stream.resume().unwrap().resumed_window, 2);
}

#[test]
fn a_series_ending_past_the_last_representable_day_is_a_typed_error() {
    // Regression: the last day of two values from day `u32::MAX` does
    // not fit in a `u32`. Unchecked, `append_window` panicked with an
    // add overflow in debug builds, and in release the end wrapped to
    // day 0 and the window constructor asserted.
    let (_, simulator) = setup();
    let store = MemStore::new();
    let policy = CheckpointPolicy {
        every_windows: 1,
        retain: None,
    };
    let mut stream = StreamingCalibrator::open(
        calibrator(&simulator, Some(1), ResampleScheme::Systematic),
        Priors::paper(),
        ObservedData::cases_only(Vec::new()),
        &store,
        policy,
    )
    .unwrap();
    let overlong = ObservedSeries {
        start_day: u32::MAX,
        values: vec![1.0, 2.0],
    };
    for err in [
        stream.append_window(&overlong).unwrap_err(),
        stream.ingest(0, &overlong).unwrap_err(),
    ] {
        assert!(matches!(err, SmcError::Observation(_)), "{err}");
        assert!(
            err.to_string().contains("past the last representable day"),
            "{err}"
        );
    }
    // A series may end on the last representable day; nothing can follow it.
    let last = ObservedSeries {
        start_day: u32::MAX - 1,
        values: vec![1.0, 2.0],
    };
    stream.ingest(0, &last).unwrap();
    let next = ObservedSeries {
        start_day: 0,
        values: vec![3.0],
    };
    let err = stream.ingest(0, &next).unwrap_err();
    assert!(matches!(err, SmcError::Observation(_)), "{err}");
    assert!(
        !stream.is_failed(),
        "rejected input does not fail-stop the stream"
    );
    assert!(store.list().unwrap().is_empty());
}
