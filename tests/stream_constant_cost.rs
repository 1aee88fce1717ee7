//! Constant cost per streaming append, pinned with deterministic counts
//! rather than wall time.
//!
//! A 300-append stream keeps deepening every posterior particle's
//! trajectory chain, so any per-append pass that walks whole chains grows
//! with the stream. After every append this suite checks that the handle
//! holds one window, that its evidence total is the running sum of the
//! returned log marginals, that the footprint telemetry matches a
//! reference computed by walking every chain in full and visiting every
//! checkpoint reference, and that an early-stop walk of the posterior
//! asks about each particle's head plus the distinct segments only.
//!
//! The footprint is measured over the distinct resampled candidates,
//! weighted by their draw counts, so a second test holds a persisted
//! batch run's windows — and the records its background writer received
//! — to the same full-walk reference.

use std::collections::BTreeSet;
use std::sync::Arc;

use epismc::prelude::*;
use epismc::smc::persist::{load, MemStore};

/// Appends in the stream, one day each.
const APPENDS: u32 = 300;
/// First appended day; days before it are the warm-up the stream opens
/// with.
const FIRST_DAY: u32 = 5;

/// The footprint counters of a posterior, recomputed by walking every
/// chain to its root and visiting every checkpoint reference:
/// `[segment_refs, unique_segments, shared_bytes, flat_bytes,
/// unique_checkpoints, checkpoint_refs]`.
fn full_walk_reference(posterior: &ParticleEnsemble) -> [usize; 6] {
    let bytes = |s: &DailySeries| s.len() * s.names().len() * std::mem::size_of::<u64>();
    let (mut seen, mut checkpoints) = (BTreeSet::new(), BTreeSet::new());
    let (mut refs, mut shared, mut flat, mut ck_refs) = (0, 0, 0, 0);
    for p in posterior.particles() {
        let (chain, stop) = p.trajectory.unknown_segments(|_| false);
        assert_eq!(stop, None);
        refs += chain.len();
        for (id, series) in chain {
            flat += bytes(series);
            if seen.insert(id) {
                shared += bytes(series);
            }
        }
        for ck in std::iter::once(&p.checkpoint).chain(&p.origin) {
            checkpoints.insert(Arc::as_ptr(ck));
            ck_refs += 1;
        }
    }
    [refs, seen.len(), shared, flat, checkpoints.len(), ck_refs]
}

/// The same counters as a window reported them.
fn footprint(t: &TrajectoryTelemetry) -> [usize; 6] {
    [
        t.segment_refs,
        t.unique_segments,
        t.shared_bytes,
        t.flat_bytes,
        t.unique_checkpoints,
        t.checkpoint_refs,
    ]
}

/// What the footprint arrays hold, for assertion messages.
const FOOTPRINT: &str = "[segment_refs, unique_segments, shared_bytes, flat_bytes, \
                         unique_checkpoints, checkpoint_refs]";

/// Calls an early-stop walk of the whole posterior makes to its `known`
/// closure when every segment it returns is recorded.
fn early_stop_calls(posterior: &ParticleEnsemble) -> usize {
    let mut seen = BTreeSet::new();
    let mut calls = 0;
    for p in posterior.particles() {
        let (fresh, _) = p.trajectory.unknown_segments(|id| {
            calls += 1;
            seen.contains(&id)
        });
        seen.extend(fresh.iter().map(|&(id, _)| id));
    }
    calls
}

#[test]
fn appends_cost_the_ensemble_plus_its_distinct_segments() {
    let sim = SeirSimulator::new(SeirParams {
        population: 20_000,
        initial_exposed: 40,
        ..SeirParams::default()
    })
    .unwrap();
    let last_day = FIRST_DAY + APPENDS - 1;
    let (truth, _) = sim.run_fresh(&[0.45], 5, last_day).unwrap();
    let cases = truth.series_f64("infections").unwrap();
    let warmup = ObservedData::cases_only(cases[..FIRST_DAY as usize - 1].to_vec());
    let config = CalibrationConfig::builder()
        .n_params(16)
        .n_replicates(2)
        .resample_size(64)
        .seed(31)
        .threads(2)
        .build();
    let calibrator = SequentialCalibrator::new(
        &sim,
        config,
        vec![JitterKernel::symmetric(0.08, 0.05, 0.8)],
        JitterKernel::asymmetric(0.05, 0.08, 0.05, 1.0),
    );
    let priors = Priors {
        theta: vec![Box::new(UniformPrior::new(0.1, 0.9))],
        rho: Box::new(BetaPrior::new(100.0, 1.0)),
    };
    let store = MemStore::new();
    let mut stream = StreamingCalibrator::open(
        calibrator,
        priors,
        warmup,
        &store,
        CheckpointPolicy::every_window(),
    )
    .unwrap();

    // `-0.0` is the additive identity `Iterator::sum` starts from.
    let mut running = -0.0;
    let mut last = None;
    for day in FIRST_DAY..=last_day {
        let series = ObservedSeries {
            start_day: day,
            values: vec![cases[day as usize - 1]],
        };
        let w = stream.append_window(&series).unwrap();
        let ctx = format!("append at day {day}");
        assert_eq!(stream.windows().len(), 1, "{ctx}: windows held");
        running += w.log_marginal;
        assert_eq!(
            stream.total_log_marginal().to_bits(),
            running.to_bits(),
            "{ctx}: total log marginal"
        );
        let t = w.telemetry;
        assert_eq!(
            footprint(&t),
            full_walk_reference(&w.posterior),
            "{ctx}: {FOOTPRINT}"
        );
        let calls = early_stop_calls(&w.posterior);
        assert!(
            calls <= w.posterior.len() + t.unique_segments,
            "{ctx}: {calls} walk calls for {} particles and {} distinct segments",
            w.posterior.len(),
            t.unique_segments
        );
        last = Some((calls, t.segment_refs));
    }
    assert_eq!(stream.next_window_index(), APPENDS as usize);
    // The stream ends deep: a full walk of the last posterior visits far
    // more segments than the early-stop walk asks about.
    let (calls, segment_refs) = last.unwrap();
    assert!(
        segment_refs > 10 * calls,
        "segment_refs {segment_refs} vs {calls} early-stop calls"
    );
}

#[test]
fn persisted_windows_report_the_full_walk_footprint() {
    let sim = SeirSimulator::new(SeirParams {
        population: 20_000,
        initial_exposed: 40,
        ..SeirParams::default()
    })
    .unwrap();
    let (truth, _) = sim.run_fresh(&[0.45], 5, 60).unwrap();
    let observed = ObservedData::cases_only(truth.series_f64("infections").unwrap());
    let config = CalibrationConfig::builder()
        .n_params(24)
        .n_replicates(3)
        .resample_size(500)
        .seed(17)
        .threads(2)
        .build();
    let calibrator = SequentialCalibrator::new(
        &sim,
        config,
        vec![JitterKernel::symmetric(0.08, 0.05, 0.8)],
        JitterKernel::asymmetric(0.05, 0.08, 0.05, 1.0),
    );
    let priors = Priors {
        theta: vec![Box::new(UniformPrior::new(0.1, 0.9))],
        rho: Box::new(BetaPrior::new(100.0, 1.0)),
    };
    let plan = WindowPlan::regular(11, 10, 60);
    let store = MemStore::new();
    let result = calibrator
        .run_persisted(
            &priors,
            &observed,
            &plan,
            &store,
            &CheckpointPolicy::every_window(),
        )
        .unwrap();
    assert_eq!(result.windows.len(), 5);
    for (widx, w) in result.windows.iter().enumerate() {
        let ctx = format!("window {widx}");
        // 500 draws from 72 candidates: the draw counts carry the
        // per-reference totals.
        assert!(w.unique_ancestors < w.posterior.len(), "{ctx}");
        assert_eq!(
            footprint(&w.telemetry),
            full_walk_reference(&w.posterior),
            "{ctx}: {FOOTPRINT}"
        );
        // The writer received the same ensemble and telemetry, and the
        // record keeps the ensemble's sharing structure.
        let snap = load(&store, widx as u32).unwrap().unwrap();
        assert_eq!(footprint(&snap.telemetry), footprint(&w.telemetry), "{ctx}");
        assert_eq!(
            full_walk_reference(&snap.posterior),
            footprint(&w.telemetry),
            "{ctx}: decoded {FOOTPRINT}"
        );
    }
}
