//! Stochastic steppers: two exact interpretations of one model spec.
//!
//! | Stepper | Time step | Event law | Use |
//! |---|---|---|---|
//! | [`BinomialChainStepper`] | fixed (default 1 day) | binomial competing risks | default; matches the reference model's daily cadence |
//! | [`GillespieStepper`] | event-driven | exact CTMC (direct method) | fidelity baseline, small populations |
//!
//! All steppers consume the same [`CompiledSpec`] and mutate a
//! [`SimState`] by exactly one day per [`Stepper::advance_day`] call,
//! accumulating the day's flow counts into a caller-provided buffer.

mod binomial_chain;
mod gillespie;

pub use binomial_chain::BinomialChainStepper;
pub use gillespie::GillespieStepper;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use epistats::dist::HazardSampler;
use epistats::rng::Xoshiro256PlusPlus;

#[cfg(test)]
use epistats::dist::sample_binomial;

use crate::error::SimError;
use crate::spec::ModelSpec;
use crate::state::SimState;

/// Monotone source for [`CompiledSpec::stamp`] identities.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// A model spec with derived lookup tables precomputed, shared by all
/// steppers (built once per simulation, not per day).
#[derive(Clone, Debug)]
pub struct CompiledSpec {
    /// The validated source spec.
    pub spec: ModelSpec,
    /// Offset of each compartment's first stage; last entry is the total.
    pub offsets: Vec<usize>,
    /// Per-progression per-stage exit rate.
    pub stage_rates: Vec<f64>,
    /// Dense `from * n_compartments + to` lookup for [`Self::record_edge`]:
    /// `u32::MAX` for an unwatched edge, else an index into
    /// `edge_watchers`. The stepper records an edge on every event, so
    /// this replaces a map walk per event with one array load. Built by
    /// iterating a `BTreeMap` in key order — replay determinism must not
    /// depend on hasher state.
    edge_index: Vec<u32>,
    /// Flow-series indices of each watched edge (see `edge_index`).
    edge_watchers: Vec<Vec<usize>>,
    /// Compartment count, the stride of `edge_index`.
    n_compartments: usize,
    /// Per-progression precompiled multinomial split plans: the
    /// conditional branch probabilities of the sequential-binomial chain
    /// and their shared p-setups, computed once per compilation instead
    /// of once per split draw.
    split_plans: Vec<Vec<SplitStep>>,
    /// Process-unique identity of this compilation, used as a cache key
    /// for derived tables (e.g. [`StepScratch`]'s hazard table). Clones
    /// share the stamp, which is sound: a clone has identical rates.
    stamp: u64,
}

impl CompiledSpec {
    /// Validate and compile a spec.
    ///
    /// # Errors
    /// Propagates [`ModelSpec::validate`] failures.
    pub fn new(spec: ModelSpec) -> Result<Self, SimError> {
        spec.validate()?;
        let offsets = spec.stage_offsets();
        let stage_rates = spec
            .progressions
            .iter()
            .map(|p| spec.stage_rate(p))
            .collect();
        let mut edge_flows: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        for (fi, f) in spec.flows.iter().enumerate() {
            for &edge in &f.edges {
                edge_flows.entry(edge).or_default().push(fi);
            }
        }
        let n_compartments = spec.compartments.len();
        let mut edge_index = vec![u32::MAX; n_compartments * n_compartments];
        let mut edge_watchers = Vec::with_capacity(edge_flows.len());
        for ((from, to), watchers) in edge_flows {
            edge_index[from * n_compartments + to] = edge_watchers.len() as u32;
            edge_watchers.push(watchers);
        }
        let split_plans = spec
            .progressions
            .iter()
            .map(|prog| {
                let mut prob_left = 1.0f64;
                let last = prog.branches.len() - 1;
                prog.branches
                    .iter()
                    .enumerate()
                    .map(|(i, &(target, p))| {
                        // Mirrors the sequential conditional-binomial walk
                        // of `multinomial_split`, with the per-branch
                        // conditional probability frozen at compile time.
                        let take_rest = i == last || prob_left <= 0.0;
                        let cond = if take_rest {
                            1.0
                        } else {
                            (p / prob_left).clamp(0.0, 1.0)
                        };
                        prob_left -= p;
                        SplitStep {
                            target,
                            take_rest,
                            sampler: HazardSampler::new(cond),
                        }
                    })
                    .collect()
            })
            .collect();
        Ok(Self {
            spec,
            offsets,
            stage_rates,
            edge_index,
            edge_watchers,
            n_compartments,
            split_plans,
            stamp: NEXT_STAMP.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// Split `total` exiting individuals of progression `pi` across its
    /// branch targets using the precompiled conditional-binomial plan,
    /// applying branch counts directly to `deltas` and the flow series.
    /// Stream-equivalent to [`multinomial_split`] on the same branches.
    #[inline]
    pub(crate) fn apply_split(
        &self,
        rng: &mut Xoshiro256PlusPlus,
        pi: usize,
        from: usize,
        total: u64,
        deltas: &mut [i64],
        flows: &mut [u64],
    ) {
        let mut remaining = total;
        for step in &self.split_plans[pi] {
            if remaining == 0 {
                break;
            }
            let take = if step.take_rest {
                remaining
            } else {
                step.sampler.draw(rng, remaining)
            };
            if take > 0 {
                deltas[self.offsets[step.target]] += take as i64;
                self.record_edge(flows, from, step.target, take);
            }
            remaining -= take;
        }
    }

    /// Process-unique identity of this compilation (shared by clones).
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Add `count` traversals of the `(from, to)` edge to every flow
    /// series that watches it.
    #[inline]
    pub fn record_edge(&self, flows: &mut [u64], from: usize, to: usize, count: u64) {
        if count == 0 {
            return;
        }
        let slot = self.edge_index[from * self.n_compartments + to];
        if slot != u32::MAX {
            for &i in &self.edge_watchers[slot as usize] {
                flows[i] += count;
            }
        }
    }

    /// End-of-day census values in spec order.
    pub fn censuses(&self, state: &SimState) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.spec.censuses.len());
        self.censuses_into(state, &mut out);
        out
    }

    /// Append end-of-day census values (spec order) to `out` without
    /// allocating a fresh vector — the hot-loop variant of
    /// [`Self::censuses`]. Uses the precompiled stage offsets, so unlike
    /// [`SimState::compartment_count`] it never rebuilds the offset
    /// table.
    pub fn censuses_into(&self, state: &SimState, out: &mut Vec<u64>) {
        for c in &self.spec.censuses {
            out.push(
                c.compartments
                    .iter()
                    .map(|&id| {
                        state.stage_counts[self.offsets[id]..self.offsets[id + 1]]
                            .iter()
                            .sum::<u64>()
                    })
                    .sum(),
            );
        }
    }
}

/// One branch of a precompiled multinomial split plan: the conditional
/// probability of taking this branch given the mass left after earlier
/// branches, with its p-derived binomial setup built once per
/// compilation.
#[derive(Clone, Copy, Debug)]
struct SplitStep {
    /// Destination compartment id.
    target: usize,
    /// Final (or probability-exhausted) branch: takes everything left
    /// without consuming randomness.
    take_rest: bool,
    /// Shared setup for `Binomial(remaining, cond)` draws.
    sampler: HazardSampler,
}

/// Reusable scratch buffers for [`Stepper::advance_day`].
///
/// Owned by the caller (typically a [`crate::runner::Simulation`] or a
/// [`crate::workspace::SimWorkspace`]) and threaded through every day
/// advance, so the hot loop performs **zero heap allocations per
/// simulated day** after the first (warm-up) day. The scratch is pure
/// workspace: it never influences results, only where intermediates live —
/// a fresh scratch and a warm one produce bit-identical trajectories.
///
/// Cached derived tables (the discrete-hazard table and its shared
/// binomial p-setups) are keyed on [`CompiledSpec::stamp`] plus the
/// stepper configuration, so one scratch can serve many
/// models/parameterizations in sequence — the per-worker reuse pattern of
/// the parallel grid.
///
/// The layout is struct-of-arrays: per-stage intermediates (`deltas`,
/// `draws`) are parallel flat arrays indexed by the dense stage offset
/// of [`CompiledSpec::offsets`], so the chain stepper batches whole
/// compartments through [`HazardSampler::draw_many`] over contiguous
/// slices.
#[derive(Clone, Debug, Default)]
pub struct StepScratch {
    /// Net per-stage occupancy change within one substep.
    pub(crate) deltas: Vec<i64>,
    /// Per-stage exits drawn this substep (chain stepper).
    pub(crate) draws: Vec<u64>,
    /// Per-infection force of infection, snapshotted at substep start.
    pub(crate) foi_buf: Vec<f64>,
    /// Per-channel propensities (Gillespie).
    pub(crate) channels: Vec<f64>,
    /// Per-progression exit probabilities `1 - exp(-rate * dt)`, computed
    /// once per `(model, substeps)` instead of per substep per day.
    pub(crate) hazards: Vec<f64>,
    /// Per-progression shared binomial setups for the hazard table —
    /// each progression's stages share one exit probability, so the
    /// p-derived half of binomial setup is paid once per hazard refresh,
    /// not once per draw.
    pub(crate) hazard_samplers: Vec<HazardSampler>,
    /// Cache key for `hazards`/`hazard_samplers`:
    /// `(CompiledSpec::stamp, substeps)`.
    hazard_key: Option<(u64, u32)>,
    /// Draws issued through [`HazardSampler::draw_many`] — telemetry
    /// only, never feeds results.
    pub(crate) batched_draws: u64,
}

impl StepScratch {
    /// Create an empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size the SoA buffers for `model` and refresh the hazard table and
    /// its shared samplers if `(model, substeps)` differs from the
    /// cached key.
    pub(crate) fn prepare_chain(&mut self, model: &CompiledSpec, substeps: u32) {
        let n_stages = model.spec.total_stages();
        self.deltas.resize(n_stages, 0);
        self.draws.resize(n_stages, 0);
        self.foi_buf.resize(model.spec.infections.len(), 0.0);
        if self.hazard_key != Some((model.stamp, substeps)) {
            let dt = 1.0 / substeps as f64;
            self.hazards.clear();
            self.hazards
                .extend(model.stage_rates.iter().map(|&r| -(-r * dt).exp_m1()));
            self.hazard_samplers.clear();
            self.hazard_samplers
                .extend(self.hazards.iter().map(|&p| HazardSampler::new(p)));
            self.hazard_key = Some((model.stamp, substeps));
        }
    }

    /// Draws issued through [`HazardSampler::draw_many`] since this
    /// scratch was created.
    pub fn batched_draws(&self) -> u64 {
        self.batched_draws
    }
}

/// A stochastic integrator advancing a model state one day at a time.
pub trait Stepper: Send + Sync {
    /// Advance `state` by exactly one day, adding the day's edge
    /// traversal counts into `flows` (length = number of flow series).
    /// `scratch` provides reusable buffers; any [`StepScratch`] works
    /// (results never depend on its contents), but reusing one across
    /// days makes the advance allocation-free.
    fn advance_day(
        &self,
        model: &CompiledSpec,
        state: &mut SimState,
        flows: &mut [u64],
        scratch: &mut StepScratch,
    );

    /// Short identifier for logs and benchmark labels.
    fn name(&self) -> &'static str;
}

/// Split `total` exiting individuals across branch targets with the given
/// probabilities, by sequential conditional binomial draws (an exact
/// multinomial sample). Superseded in the steppers by the precompiled
/// [`CompiledSpec::apply_split`] plans; retained as the readable
/// reference implementation the equivalence test pins them against.
#[cfg(test)]
pub(crate) fn multinomial_split(
    rng: &mut Xoshiro256PlusPlus,
    total: u64,
    branches: &[(usize, f64)],
    out: &mut Vec<(usize, u64)>,
) {
    out.clear();
    let mut remaining = total;
    let mut prob_left = 1.0f64;
    for (i, &(target, p)) in branches.iter().enumerate() {
        if remaining == 0 {
            break;
        }
        let take = if i == branches.len() - 1 || prob_left <= 0.0 {
            remaining
        } else {
            let cond = (p / prob_left).clamp(0.0, 1.0);
            sample_binomial(rng, remaining, cond)
        };
        if take > 0 {
            out.push((target, take));
        }
        remaining -= take;
        prob_left -= p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Compartment, FlowSpec, Infection, Progression};

    pub(crate) fn si_spec() -> ModelSpec {
        ModelSpec {
            name: "si".into(),
            compartments: vec![
                Compartment::simple("S"),
                Compartment::new("I", 2, 1.0),
                Compartment::simple("R"),
            ],
            progressions: vec![Progression {
                from: 1,
                mean_dwell: 5.0,
                branches: vec![(2, 1.0)],
            }],
            infections: vec![Infection::simple(0, 1)],
            transmission_rate: 0.5,
            flows: vec![
                FlowSpec {
                    name: "infections".into(),
                    edges: vec![(0, 1)],
                },
                FlowSpec {
                    name: "recoveries".into(),
                    edges: vec![(1, 2)],
                },
            ],
            censuses: vec![],
        }
    }

    #[test]
    fn compile_rejects_invalid_spec() {
        let mut s = si_spec();
        s.transmission_rate = -1.0;
        assert!(CompiledSpec::new(s).is_err());
    }

    #[test]
    fn record_edge_fans_out_to_watchers() {
        let mut s = si_spec();
        s.flows.push(FlowSpec {
            name: "also_inf".into(),
            edges: vec![(0, 1)],
        });
        let c = CompiledSpec::new(s).unwrap();
        let mut flows = vec![0u64; 3];
        c.record_edge(&mut flows, 0, 1, 7);
        c.record_edge(&mut flows, 1, 2, 3);
        c.record_edge(&mut flows, 2, 0, 100); // unwatched edge
        assert_eq!(flows, vec![7, 3, 7]);
    }

    #[test]
    fn multinomial_split_conserves_total() {
        let mut rng = Xoshiro256PlusPlus::new(1);
        let branches = [(0usize, 0.2), (1, 0.5), (2, 0.3)];
        let mut out = Vec::new();
        for total in [0u64, 1, 17, 1000] {
            multinomial_split(&mut rng, total, &branches, &mut out);
            let sum: u64 = out.iter().map(|&(_, c)| c).sum();
            assert_eq!(sum, total);
        }
    }

    #[test]
    fn multinomial_split_respects_probabilities() {
        let mut rng = Xoshiro256PlusPlus::new(2);
        let branches = [(0usize, 0.25), (1, 0.75)];
        let mut out = Vec::new();
        let mut counts = [0u64; 2];
        for _ in 0..200 {
            multinomial_split(&mut rng, 1000, &branches, &mut out);
            for &(t, c) in &out {
                counts[t] += c;
            }
        }
        let frac = counts[0] as f64 / (counts[0] + counts[1]) as f64;
        assert!((frac - 0.25).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn apply_split_matches_multinomial_split_stream() {
        // The precompiled split plan must consume the identical RNG
        // stream and produce the identical branch counts as the scalar
        // reference walk, for every branch shape the covid models use.
        let mut spec = si_spec();
        spec.progressions[0].branches = vec![(0, 0.25), (2, 0.45), (1, 0.30)];
        let model = CompiledSpec::new(spec.clone()).unwrap();
        let n_stages = model.spec.total_stages();
        let mut out = Vec::new();
        for seed in 0..20u64 {
            for total in [0u64, 1, 13, 4096, 1_000_000] {
                let mut rng_a = Xoshiro256PlusPlus::new(seed);
                let mut rng_b = Xoshiro256PlusPlus::new(seed);
                let mut deltas = vec![0i64; n_stages];
                let mut flows = vec![0u64; model.spec.flows.len()];
                model.apply_split(&mut rng_a, 0, 1, total, &mut deltas, &mut flows);
                multinomial_split(&mut rng_b, total, &spec.progressions[0].branches, &mut out);
                let mut want = vec![0i64; n_stages];
                for &(target, count) in &out {
                    want[model.offsets[target]] += count as i64;
                }
                assert_eq!(deltas, want, "seed {seed} total {total}");
                assert_eq!(
                    rng_a, rng_b,
                    "RNG streams diverged: seed {seed} total {total}"
                );
            }
        }
    }

    #[test]
    fn multinomial_split_single_branch_takes_all() {
        let mut rng = Xoshiro256PlusPlus::new(3);
        let mut out = Vec::new();
        multinomial_split(&mut rng, 42, &[(5usize, 1.0)], &mut out);
        assert_eq!(out, vec![(5, 42)]);
    }
}
