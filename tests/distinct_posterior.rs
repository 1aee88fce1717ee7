//! A resampled posterior holds each distinct particle once.
//!
//! Resampling draws a few distinct candidates into many slots. The
//! ensemble keeps each drawn candidate once plus a slot index per draw,
//! so a candidate's allocations are referenced once however often it was
//! drawn, snapshots are the same bytes as for a one-particle-per-slot
//! copy, decoding folds repeated rows back into one particle, a PMMH pass
//! makes only its moved slots into new particles, and mutating one slot
//! never shows in the slots that shared its particle.

use std::sync::Arc;

use epismc::prelude::*;
use epismc::smc::persist::format;

const WINDOWS: [(u32, u32); 3] = [(8, 19), (20, 29), (30, 40)];

fn simulator() -> SeirSimulator {
    SeirSimulator::new(SeirParams {
        population: 20_000,
        initial_exposed: 40,
        ..SeirParams::default()
    })
    .unwrap()
}

fn observed(sim: &SeirSimulator) -> ObservedData {
    let (truth, _) = sim.run_fresh(&[0.45], 5, 40).unwrap();
    ObservedData::cases_only(truth.series_f64("infections").unwrap())
}

fn calibrator(
    sim: &SeirSimulator,
    kernel: RejuvenationKernel,
) -> SequentialCalibrator<'_, SeirSimulator> {
    let config = CalibrationConfig::builder()
        .n_params(20)
        .n_replicates(2)
        .resample_size(200)
        .seed(23)
        .threads(2)
        .rejuvenation(kernel)
        .build();
    SequentialCalibrator::new(
        sim,
        config,
        vec![JitterKernel::symmetric(0.08, 0.05, 0.95)],
        JitterKernel::asymmetric(0.05, 0.08, 0.05, 1.0),
    )
}

fn priors() -> Priors {
    Priors {
        theta: vec![Box::new(UniformPrior::new(0.1, 0.9))],
        rho: Box::new(BetaPrior::new(100.0, 1.0)),
    }
}

fn plan() -> WindowPlan {
    WindowPlan::new(
        WINDOWS
            .iter()
            .map(|&(a, b)| TimeWindow::new(a, b))
            .collect(),
    )
}

/// The slots with distinct particles numbered by first slot: which slots
/// share a particle, whatever order `distinct()` keeps them in.
fn sharing(e: &ParticleEnsemble) -> Vec<u32> {
    let mut first = vec![u32::MAX; e.distinct().len()];
    let mut next = 0;
    e.slots()
        .iter()
        .map(|&s| {
            if first[s as usize] == u32::MAX {
                first[s as usize] = next;
                next += 1;
            }
            first[s as usize]
        })
        .collect()
}

/// Draws per distinct particle, indexed like `distinct()`.
fn draw_counts(e: &ParticleEnsemble) -> Vec<usize> {
    let mut counts = vec![0; e.distinct().len()];
    for &s in e.slots() {
        counts[s as usize] += 1;
    }
    counts
}

#[test]
fn a_window_posterior_holds_each_drawn_candidate_once() {
    let sim = simulator();
    let result = calibrator(&sim, RejuvenationKernel::UniformJitter)
        .run(&priors(), &observed(&sim), &plan())
        .unwrap();
    for (w, win) in result.windows.iter().enumerate() {
        let post = &win.posterior;
        assert_eq!(post.len(), 200, "window {w}");
        assert_eq!(post.distinct().len(), win.unique_ancestors, "window {w}");
        assert!(
            win.unique_ancestors < post.len(),
            "window {w}: no repeated draw"
        );
        assert!(draw_counts(post).iter().all(|&n| n > 0), "window {w}");
        // The slot view reads each slot's own particle.
        for (j, p) in post.particles().iter().enumerate() {
            assert!(std::ptr::eq(p, &post.distinct()[post.slots()[j] as usize]));
            assert_eq!(p.log_weight, 0.0);
        }
    }
    // The final posterior's checkpoints are referenced by it alone: once
    // per drawn candidate, however many slots drew it.
    let last = result.final_posterior();
    let counts = draw_counts(last);
    assert!(counts.iter().any(|&n| n > 2), "no candidate drawn thrice");
    for (p, n) in last.distinct().iter().zip(counts) {
        assert_eq!(
            Arc::strong_count(&p.checkpoint),
            1,
            "a candidate drawn {n} times"
        );
    }
}

#[test]
fn records_are_written_per_slot_and_decode_to_the_distinct_particles() {
    let sim = simulator();
    for kernel in [
        RejuvenationKernel::UniformJitter,
        RejuvenationKernel::Pmmh(PmmhConfig::default()),
    ] {
        let store = MemStore::new();
        let result = calibrator(&sim, kernel)
            .run_persisted(
                &priors(),
                &observed(&sim),
                &plan(),
                &store,
                &CheckpointPolicy::every_window(),
            )
            .unwrap();
        for (w, win) in result.windows.iter().enumerate() {
            let at = format!("{kernel:?}, window {w}");
            let record = store.get(w as u32).unwrap().unwrap();
            let snap = format::decode_record(&record).unwrap();
            // Decoding folds the repeated rows: the same distinct
            // particles, and encoding them again gives the same bytes.
            assert_eq!(
                snap.posterior.distinct().len(),
                win.posterior.distinct().len(),
                "{at}"
            );
            assert_eq!(sharing(&snap.posterior), sharing(&win.posterior), "{at}");
            assert!(
                format::encode_record(&snap) == record,
                "{at}: re-encoding changed a byte"
            );
            // A one-particle-per-slot copy encodes to the same bytes.
            let expanded = RunSnapshot {
                posterior: ParticleEnsemble::from_vec(snap.posterior.particles().to_vec()),
                ..snap.clone()
            };
            assert_eq!(expanded.posterior.distinct().len(), 200, "{at}");
            assert!(
                format::encode_record(&expanded) == record,
                "{at}: expanded copy differs"
            );
            // ... and decodes back to the folded form.
            let folded = format::decode_record(&format::encode_record(&expanded)).unwrap();
            assert_eq!(sharing(&folded.posterior), sharing(&win.posterior), "{at}");
        }
    }
}

#[test]
fn a_pmmh_pass_makes_only_its_moved_slots_new_particles() {
    let sim = simulator();
    let observed = observed(&sim);
    let run = |kernel| {
        calibrator(&sim, kernel)
            .run(&priors(), &observed, &plan())
            .unwrap()
    };
    let moved = run(RejuvenationKernel::Pmmh(PmmhConfig::default()));
    // Everything before the move pass ignores the kernel, so window 1 of
    // a jitter run is the posterior window 1's moves start from.
    let start = run(RejuvenationKernel::UniformJitter);
    let (pre, post) = (&start.windows[0].posterior, &moved.windows[0].posterior);
    let key = |p: &Particle| (p.theta[0].to_bits(), p.rho.to_bits());
    let unmoved: Vec<usize> = (0..pre.len())
        .filter(|&j| key(&pre.particles()[j]) == key(&post.particles()[j]))
        .collect();
    let mut kept: Vec<u32> = unmoved.iter().map(|&j| pre.slots()[j]).collect();
    kept.sort_unstable();
    kept.dedup();
    let n_moved = pre.len() - unmoved.len();
    assert!(n_moved > 0 && !unmoved.is_empty(), "{n_moved} slots moved");
    // Unmoved slots still share their candidate; each moved slot holds a
    // particle of its own.
    assert_eq!(post.distinct().len(), kept.len() + n_moved);
    assert!(kept.len() < unmoved.len());
    assert!(draw_counts(post).iter().all(|&n| n > 0));
}

#[test]
fn mutating_one_slot_leaves_the_slots_that_shared_its_particle() {
    let sim = simulator();
    let result = calibrator(&sim, RejuvenationKernel::UniformJitter)
        .run(&priors(), &observed(&sim), &plan())
        .unwrap();
    let post = result.final_posterior();
    let shared = post.slots()[0];
    let siblings: Vec<usize> = (0..post.len())
        .filter(|&j| post.slots()[j] == shared)
        .collect();
    assert!(siblings.len() > 1, "slot 0's particle was drawn once");
    let rho = post.particles()[0].rho;

    let mut edited = post.clone();
    edited.particles_mut()[siblings[1]].rho = 0.01;
    for (j, p) in edited.particles().iter().enumerate() {
        let want = if j == siblings[1] {
            0.01
        } else {
            post.particles()[j].rho
        };
        assert_eq!(p.rho, want, "slot {j}");
    }
    assert_eq!(edited.particles()[siblings[0]].rho, rho);
    // The original is untouched and still shares its particle.
    assert!(post
        .particles()
        .iter()
        .zip(post.slots())
        .all(|(p, &s)| p.rho == post.distinct()[s as usize].rho));
    assert_eq!(post.distinct().len(), result.windows[2].unique_ancestors);
}
