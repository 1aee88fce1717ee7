//! Weighted trajectory particles and ensembles.
//!
//! A particle is the paper's full input tuple `(theta, s, rho)` *plus its
//! realized trajectory and checkpoint*: trajectory-oriented calibration
//! (Section IV) treats the random seed as an input coordinate, so a
//! particle is one specific epidemic history, not just a parameter value.

use crate::ckpool::SharedCheckpoint;
use crate::runner::ParallelRunner;
use episim::output::SharedTrajectory;
use epistats::logweight::{log_sum_exp, normalize_log_weights};
use epistats::summary::{ess, weighted_mean, weighted_variance};
use std::sync::Arc;

/// One weighted simulated trajectory.
#[derive(Clone, Debug)]
pub struct Particle {
    /// Simulator parameters (dimension `d`; `theta[0]` is the
    /// transmission rate for the built-in models). Shared: the
    /// `n_replicates` particles of one proposal hold the same `Arc`, so
    /// cloning a particle never copies the parameter vector.
    pub theta: Arc<[f64]>,
    /// Reporting probability of the binomial bias model.
    pub rho: f64,
    /// The random seed that generated this trajectory (an input
    /// coordinate under trajectory-oriented calibration).
    pub seed: u64,
    /// Unnormalized log importance weight.
    pub log_weight: f64,
    /// Recorded daily output from day 0 through the last simulated day.
    /// Structurally shared: particles continued from a common ancestor
    /// hold the ancestor's history by `Arc`, so cloning a particle and
    /// appending a window are both `O(window)`, not `O(history)`.
    pub trajectory: SharedTrajectory,
    /// Full simulator state at the last window boundary (enables
    /// parameter-overriding continuation). Shared like the trajectory:
    /// resampled duplicates alias one checkpoint, and restores are
    /// copy-on-write (`restore_into` onto a pooled state) — see
    /// [`crate::ckpool`].
    pub checkpoint: SharedCheckpoint,
    /// Simulator state at the *start* of the last scored window (`None`
    /// when the window was simulated fresh from day 0). Needed by
    /// resample-move rejuvenation, which re-simulates the window under
    /// perturbed parameters.
    pub origin: Option<SharedCheckpoint>,
}

/// A collection of particles with weight-aware summaries.
///
/// A resampled posterior draws a few hundred distinct candidates into
/// thousands of slots, so the ensemble holds each distinct particle once
/// ([`Self::distinct`]) plus one `u32` per slot naming the distinct
/// particle that slot holds, in resample order ([`Self::slots`]). Every
/// reader sees the slot sequence through [`Self::particles`], exactly as
/// if each slot owned its particle, while passes over the posterior's
/// storage (footprint telemetry, snapshot pools, PMMH moves) cost its
/// distinct particles, not its slots. [`Self::from_vec`] builds the
/// one-particle-per-slot form.
///
/// Both sit behind one [`Arc`], so cloning an ensemble is a
/// reference-count bump whatever its size: the snapshot a persisted
/// window hands to the writer, the [`crate::sis::WindowResult`] a
/// streaming append returns and the ensemble the stream keeps all share
/// one allocation. Mutation is copy-on-write: [`Self::push`],
/// [`Self::particles_mut`] and [`Self::set_uniform_weights`] copy the
/// storage first if another clone still shares it, so no clone ever
/// sees another's changes.
#[derive(Clone, Debug, Default)]
pub struct ParticleEnsemble {
    particles: Arc<Particles>,
}

impl ParticleEnsemble {
    /// Create an empty ensemble.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap an existing particle vector, one particle per slot.
    pub fn from_vec(particles: Vec<Particle>) -> Self {
        let slots = (0..particles.len() as u32).collect();
        Self::from_slots(particles, slots)
    }

    /// An ensemble whose slot `j` holds `distinct[slots[j]]`.
    ///
    /// Every slot index must name a particle of `distinct`; the
    /// crate's constructors (resampling, snapshot decoding, the PMMH
    /// pass) guarantee it.
    pub(crate) fn from_slots(distinct: Vec<Particle>, slots: Vec<u32>) -> Self {
        Self {
            particles: Arc::new(Particles { distinct, slots }),
        }
    }

    /// Number of particles (slots).
    pub fn len(&self) -> usize {
        self.particles.slots.len()
    }

    /// Whether the ensemble is empty.
    pub fn is_empty(&self) -> bool {
        self.particles.slots.is_empty()
    }

    /// Append a particle in a slot of its own (copy-on-write, see the
    /// type docs).
    pub fn push(&mut self, p: Particle) {
        let all = Arc::make_mut(&mut self.particles);
        all.slots.push(all.distinct.len() as u32);
        all.distinct.push(p);
    }

    /// The particles in slot order: one entry per slot, a particle drawn
    /// several times appearing once per draw.
    pub fn particles(&self) -> &Particles {
        &self.particles
    }

    /// Each distinct particle once. A slot holds
    /// `distinct()[slots()[slot]]`; every distinct particle is held by
    /// at least one slot.
    pub fn distinct(&self) -> &[Particle] {
        &self.particles.distinct
    }

    /// The index into [`Self::distinct`] of each slot's particle, in
    /// slot order.
    pub fn slots(&self) -> &[u32] {
        &self.particles.slots
    }

    /// Mutable access to the particles, one per slot (copy-on-write, see
    /// the type docs). Slots that share a particle are first given a
    /// copy each — the one-particle-per-slot form of
    /// [`Self::from_vec`] — so a change to one slot never shows in
    /// another.
    pub fn particles_mut(&mut self) -> &mut [Particle] {
        let m = &self.particles;
        let per_slot = m.distinct.len() == m.slots.len()
            && m.slots.iter().enumerate().all(|(j, &s)| s as usize == j);
        if !per_slot {
            *self = Self::from_vec(self.particles().to_vec());
        }
        Arc::make_mut(&mut self.particles).distinct.as_mut_slice()
    }

    /// Normalized linear-space weights (uniform fallback if all log
    /// weights are negative infinity; see
    /// [`epistats::logweight::normalize_log_weights`]).
    pub fn normalized_weights(&self) -> Vec<f64> {
        let lw: Vec<f64> = self.particles().iter().map(|p| p.log_weight).collect();
        normalize_log_weights(&lw)
    }

    /// Effective sample size of the current weights.
    pub fn ess(&self) -> f64 {
        ess(&self.normalized_weights())
    }

    /// Reset every particle to uniform weight (log 0) — done after
    /// resampling. Costs the distinct particles, not the slots.
    pub fn set_uniform_weights(&mut self) {
        for p in &mut Arc::make_mut(&mut self.particles).distinct {
            p.log_weight = 0.0;
        }
    }

    /// The `k`-th coordinate of every particle's theta.
    ///
    /// # Panics
    /// Panics if `k` is out of range for any particle.
    pub fn thetas(&self, k: usize) -> Vec<f64> {
        self.particles().iter().map(|p| p.theta[k]).collect()
    }

    /// Every particle's reporting probability.
    pub fn rhos(&self) -> Vec<f64> {
        self.particles().iter().map(|p| p.rho).collect()
    }

    /// Weighted posterior mean of `theta[k]`.
    pub fn mean_theta(&self, k: usize) -> f64 {
        weighted_mean(&self.thetas(k), &self.normalized_weights())
    }

    /// Weighted posterior standard deviation of `theta[k]`.
    pub fn sd_theta(&self, k: usize) -> f64 {
        weighted_variance(&self.thetas(k), &self.normalized_weights()).sqrt()
    }

    /// Weighted posterior mean of `rho`.
    pub fn mean_rho(&self) -> f64 {
        weighted_mean(&self.rhos(), &self.normalized_weights())
    }

    /// Weighted posterior standard deviation of `rho`.
    pub fn sd_rho(&self) -> f64 {
        weighted_variance(&self.rhos(), &self.normalized_weights()).sqrt()
    }

    /// Weighted posterior correlation between `theta[k]` and `rho` — the
    /// paper's central identifiability diagnostic: with case counts
    /// alone, transmission and reporting are negatively confounded
    /// (higher reporting of a slower epidemic looks like lower reporting
    /// of a faster one).
    pub fn corr_theta_rho(&self, k: usize) -> f64 {
        epistats::summary::weighted_correlation(
            &self.thetas(k),
            &self.rhos(),
            &self.normalized_weights(),
        )
    }

    /// Number of distinct `(theta, seed)` inputs — the degeneracy
    /// diagnostic the paper's Discussion worries about (weights
    /// concentrating on few draws).
    pub fn unique_inputs(&self) -> usize {
        let mut keys: Vec<(u64, Vec<u64>)> = self
            .particles()
            .iter()
            .map(|p| {
                (
                    p.seed,
                    p.theta.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                )
            })
            .collect();
        keys.sort();
        keys.dedup();
        keys.len()
    }
}

/// The particles of a [`ParticleEnsemble`] in slot order (see
/// [`ParticleEnsemble::particles`]): indexing, iteration and length
/// behave as on a `[Particle]` holding one particle per slot.
#[derive(Clone, Debug, Default)]
pub struct Particles {
    distinct: Vec<Particle>,
    slots: Vec<u32>,
}

impl Particles {
    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The particles in slot order.
    pub fn iter(&self) -> SlotIter<'_> {
        SlotIter {
            distinct: &self.distinct,
            slots: self.slots.iter(),
        }
    }

    /// One owned particle per slot (clones share every allocation).
    pub fn to_vec(&self) -> Vec<Particle> {
        self.iter().cloned().collect()
    }
}

impl std::ops::Index<usize> for Particles {
    type Output = Particle;

    fn index(&self, slot: usize) -> &Particle {
        &self.distinct[self.slots[slot] as usize]
    }
}

impl<'a> IntoIterator for &'a Particles {
    type Item = &'a Particle;
    type IntoIter = SlotIter<'a>;

    fn into_iter(self) -> SlotIter<'a> {
        self.iter()
    }
}

/// Iterator over [`Particles`] in slot order.
#[derive(Clone, Debug)]
pub struct SlotIter<'a> {
    distinct: &'a [Particle],
    slots: std::slice::Iter<'a, u32>,
}

impl<'a> Iterator for SlotIter<'a> {
    type Item = &'a Particle;

    fn next(&mut self) -> Option<&'a Particle> {
        self.slots.next().map(|&s| &self.distinct[s as usize])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.slots.size_hint()
    }
}

/// [`normalize_log_weights`] with the elementwise exponentials computed
/// on `runner` — **bit-identical** to the serial form at any thread
/// count: the log-sum-exp *reduction* (whose float summation order is
/// part of the deterministic contract) stays serial, and only the
/// independent per-weight `exp(x - lse)` map, which has no cross-element
/// arithmetic, fans out.
pub(crate) fn normalized_weights_par(log_w: &[f64], runner: &ParallelRunner) -> Vec<f64> {
    if log_w.is_empty() {
        return Vec::new();
    }
    let lse = log_sum_exp(log_w);
    if lse == f64::NEG_INFINITY {
        let u = 1.0 / log_w.len() as f64;
        return vec![u; log_w.len()];
    }
    runner.run_indexed(log_w.len(), |i| (log_w[i] - lse).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use episim::checkpoint::SimCheckpoint;
    use episim::spec::{Compartment, FlowSpec, Infection, ModelSpec, Progression};
    use episim::state::SimState;

    fn dummy_particle(theta: f64, rho: f64, seed: u64, log_w: f64) -> Particle {
        let spec = ModelSpec {
            name: "d".into(),
            compartments: vec![Compartment::simple("S"), Compartment::new("I", 1, 1.0)],
            progressions: vec![Progression {
                from: 1,
                mean_dwell: 1.0,
                branches: vec![(0, 1.0)],
            }],
            infections: vec![Infection::simple(0, 1)],
            transmission_rate: theta,
            flows: vec![FlowSpec {
                name: "x".into(),
                edges: vec![],
            }],
            censuses: vec![],
        };
        let st = SimState::empty(&spec, seed);
        Particle {
            theta: Arc::from(vec![theta]),
            rho,
            seed,
            log_weight: log_w,
            trajectory: SharedTrajectory::empty(vec!["x".into()], 0),
            checkpoint: Arc::new(SimCheckpoint::capture(&spec, &st)),
            origin: None,
        }
    }

    fn ensemble() -> ParticleEnsemble {
        ParticleEnsemble::from_vec(vec![
            dummy_particle(0.2, 0.5, 1, -1.0),
            dummy_particle(0.3, 0.6, 2, -1.0),
            dummy_particle(0.4, 0.7, 3, f64::NEG_INFINITY),
        ])
    }

    #[test]
    fn weights_normalize_excluding_dead_particles() {
        let e = ensemble();
        let w = e.normalized_weights();
        assert!((w[0] - 0.5).abs() < 1e-12);
        assert!((w[1] - 0.5).abs() < 1e-12);
        assert_eq!(w[2], 0.0);
        assert!((e.ess() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_weights_bit_identical_to_serial() {
        let mut e = ensemble();
        e.push(dummy_particle(0.6, 0.2, 9, -997.25));
        e.particles_mut()[0].log_weight = -1000.0;
        let serial = e.normalized_weights();
        let log_w = |e: &ParticleEnsemble| -> Vec<f64> {
            e.particles().iter().map(|p| p.log_weight).collect()
        };
        for threads in [1usize, 2, 4] {
            let runner = ParallelRunner::new(Some(threads)).unwrap();
            let par = normalized_weights_par(&log_w(&e), &runner);
            assert_eq!(serial.len(), par.len());
            for (s, p) in serial.iter().zip(&par) {
                assert_eq!(s.to_bits(), p.to_bits(), "threads = {threads}");
            }
        }
        // Degenerate and empty fallbacks match the serial path too.
        let runner = ParallelRunner::new(Some(2)).unwrap();
        let dead = ParticleEnsemble::from_vec(vec![
            dummy_particle(0.1, 0.1, 1, f64::NEG_INFINITY),
            dummy_particle(0.2, 0.2, 2, f64::NEG_INFINITY),
        ]);
        assert_eq!(
            dead.normalized_weights(),
            normalized_weights_par(&log_w(&dead), &runner)
        );
        assert!(normalized_weights_par(&[], &runner).is_empty());
    }

    #[test]
    fn weighted_means_ignore_zero_weight() {
        let e = ensemble();
        assert!((e.mean_theta(0) - 0.25).abs() < 1e-12);
        assert!((e.mean_rho() - 0.55).abs() < 1e-12);
    }

    #[test]
    fn uniform_reset() {
        let mut e = ensemble();
        e.set_uniform_weights();
        let w = e.normalized_weights();
        for &x in &w {
            assert!((x - 1.0 / 3.0).abs() < 1e-12);
        }
        assert!((e.ess() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn unique_inputs_deduplicates() {
        let mut e = ensemble();
        e.push(dummy_particle(0.2, 0.9, 1, 0.0)); // same (theta, seed) as [0]
        assert_eq!(e.unique_inputs(), 3);
    }

    #[test]
    fn clones_share_storage_until_one_is_mutated() {
        let mut a = ensemble();
        let b = a.clone();
        assert!(std::ptr::eq(a.distinct(), b.distinct()));
        a.particles_mut()[0].log_weight = 7.0;
        assert!(!std::ptr::eq(a.distinct(), b.distinct()));
        assert_eq!(b.particles()[0].log_weight, -1.0);
        assert_eq!(a.particles()[0].log_weight, 7.0);
        // The copy shares each particle's trajectory and checkpoint.
        assert!(Arc::ptr_eq(
            &a.particles()[1].checkpoint,
            &b.particles()[1].checkpoint
        ));
        // A sole owner mutates in place.
        let before = a.distinct().as_ptr();
        a.set_uniform_weights();
        assert_eq!(a.distinct().as_ptr(), before);
        a.particles_mut()[2].rho = 0.1;
        assert_eq!(a.distinct().as_ptr(), before);
        let mut c = b.clone();
        c.push(dummy_particle(0.9, 0.9, 9, 0.0));
        c.set_uniform_weights();
        assert_eq!((b.len(), c.len()), (3, 4));
        assert_eq!(b.particles()[2].log_weight, f64::NEG_INFINITY);
    }

    /// Slots `[2, 0, 2, 2, 1]` over the three particles of [`ensemble`].
    fn shared() -> ParticleEnsemble {
        let distinct = ensemble().particles().to_vec();
        ParticleEnsemble::from_slots(distinct, vec![2, 0, 2, 2, 1])
    }

    #[test]
    fn the_slot_view_reads_like_a_slice_of_one_particle_per_slot() {
        let e = shared();
        let seeds = |v: &[Particle]| v.iter().map(|p| p.seed).collect::<Vec<_>>();
        let view = e.particles();
        assert_eq!((view.len(), e.len(), e.distinct().len()), (5, 5, 3));
        assert_eq!(seeds(&view.to_vec()), [3, 1, 3, 3, 2]);
        assert_eq!(view[3].seed, 3);
        assert!(std::ptr::eq(&view[0], &view[2]));
        let mut n = 0;
        for p in view {
            n += usize::from(p.seed == 3);
        }
        assert_eq!(n, 3);
        // Slot-order summaries weight each particle by its slots.
        assert_eq!(e.thetas(0), [0.4, 0.2, 0.4, 0.4, 0.3]);
        assert_eq!(e.unique_inputs(), 3);
    }

    #[test]
    fn mutating_a_shared_slot_leaves_the_other_slots_unchanged() {
        let mut e = shared();
        let keep = e.clone();
        e.particles_mut()[2].rho = 0.05;
        assert_eq!(e.rhos(), [0.7, 0.5, 0.05, 0.7, 0.6]);
        assert_eq!(e.distinct().len(), 5);
        assert_eq!(keep.rhos(), [0.7, 0.5, 0.7, 0.7, 0.6]);
        // A weight reset costs the distinct particles and keeps the slots.
        let mut w = shared();
        w.set_uniform_weights();
        assert_eq!((w.distinct().len(), w.slots()), (3, &[2, 0, 2, 2, 1][..]));
        assert!(w.particles().iter().all(|p| p.log_weight == 0.0));
        // `push` gives the new particle a slot of its own.
        w.push(dummy_particle(0.9, 0.9, 9, 0.0));
        assert_eq!(w.slots(), [2, 0, 2, 2, 1, 3]);
    }
}
