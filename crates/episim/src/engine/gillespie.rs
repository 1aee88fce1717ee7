//! Exact stochastic simulation (Gillespie's direct method).
//!
//! Simulates the continuous-time Markov chain event by event: exponential
//! waiting times at the total propensity, categorical channel selection
//! proportional to per-channel propensities. Exact but O(events), so
//! practical for the small-population agreement tests against the chain
//! stepper, not for Chicago-scale ensembles.

use super::{CompiledSpec, StepScratch, Stepper};
use crate::state::SimState;

/// Gillespie direct-method stepper.
#[derive(Clone, Debug, Default)]
pub struct GillespieStepper;

impl GillespieStepper {
    /// Create the (stateless) exact stepper.
    pub fn new() -> Self {
        Self
    }
}

impl Stepper for GillespieStepper {
    fn advance_day(
        &self,
        model: &CompiledSpec,
        state: &mut SimState,
        flows: &mut [u64],
        scratch: &mut StepScratch,
    ) {
        let spec = &model.spec;
        let day_end = state.day as f64 + 1.0;
        // Propensity layout: one channel per infection, then one channel
        // per (progression, stage). The channel buffer lives in the
        // scratch so a warm advance allocates nothing.
        let n_inf = spec.infections.len();
        let channels = &mut scratch.channels;

        loop {
            channels.clear();
            for inf in &spec.infections {
                let foi = state.force_of_infection_with(spec, inf, &model.offsets);
                let s = state.stage_counts[model.offsets[inf.susceptible]];
                channels.push(foi * s as f64);
            }
            for (pi, prog) in spec.progressions.iter().enumerate() {
                let rate = model.stage_rates[pi];
                let base = model.offsets[prog.from];
                let stages = spec.compartments[prog.from].stages as usize;
                for s in 0..stages {
                    channels.push(rate * state.stage_counts[base + s] as f64);
                }
            }
            let total: f64 = channels.iter().sum();
            if total <= 0.0 {
                break;
            }
            let wait = -state.rng.next_f64_open().ln() / total;
            if state.time + wait >= day_end {
                break;
            }
            state.time += wait;

            // Select the firing channel.
            let mut u = state.rng.next_f64() * total;
            let mut chosen = channels.len() - 1;
            for (i, &c) in channels.iter().enumerate() {
                if u < c {
                    chosen = i;
                    break;
                }
                u -= c;
            }

            if chosen < n_inf {
                let inf = &spec.infections[chosen];
                let s_off = model.offsets[inf.susceptible];
                debug_assert!(state.stage_counts[s_off] > 0);
                state.stage_counts[s_off] -= 1;
                state.stage_counts[model.offsets[inf.exposed]] += 1;
                model.record_edge(flows, inf.susceptible, inf.exposed, 1);
            } else {
                // Decode (progression, stage) from the channel index.
                let mut idx = chosen - n_inf;
                let mut found = None;
                for (pi, prog) in spec.progressions.iter().enumerate() {
                    let stages = spec.compartments[prog.from].stages as usize;
                    if idx < stages {
                        found = Some((pi, idx));
                        break;
                    }
                    idx -= stages;
                }
                // epilint: allow(panic-unwrap) — chosen < total channel count by construction of the scan above
                let (pi, stage) = found.expect("channel index in range");
                let prog = &spec.progressions[pi];
                let base = model.offsets[prog.from];
                let stages = spec.compartments[prog.from].stages as usize;
                debug_assert!(state.stage_counts[base + stage] > 0);
                state.stage_counts[base + stage] -= 1;
                if stage + 1 < stages {
                    state.stage_counts[base + stage + 1] += 1;
                } else {
                    // Branch selection.
                    let mut v = state.rng.next_f64();
                    // epilint: allow(panic-unwrap) — spec validation rejects empty branch lists
                    let mut target = prog.branches.last().expect("validated").0;
                    for &(t, p) in &prog.branches {
                        if v < p {
                            target = t;
                            break;
                        }
                        v -= p;
                    }
                    state.stage_counts[model.offsets[target]] += 1;
                    model.record_edge(flows, prog.from, target, 1);
                }
            }
        }
        state.day += 1;
        state.time = state.day as f64;
    }

    fn name(&self) -> &'static str {
        "gillespie"
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::si_spec;
    use super::*;

    fn init(model: &CompiledSpec, seed: u64, n: u64, i: u64) -> SimState {
        let mut st = SimState::empty(&model.spec, seed);
        st.seed_compartment(&model.spec, 0, n - i);
        st.seed_compartment(&model.spec, 1, i);
        st
    }

    #[test]
    fn conserves_population_exactly() {
        let mut sc = StepScratch::default();
        let model = CompiledSpec::new(si_spec()).unwrap();
        let stepper = GillespieStepper::new();
        let mut st = init(&model, 31, 2_000, 20);
        let mut flows = vec![0u64; 2];
        for _ in 0..100 {
            stepper.advance_day(&model, &mut st, &mut flows, &mut sc);
            assert_eq!(st.total_population(), 2_000);
        }
    }

    #[test]
    fn pure_death_process_mean_matches_analytic() {
        let mut sc = StepScratch::default();
        // Only I -> R (no infection): I(t) decays with the Erlang-2 dwell,
        // E[I(30)] = N * P(Erlang(2, rate 0.4) > 30) — just check a broad
        // band around the exponential-tail expectation instead of the
        // closed form: mean dwell 5 days, so after 30 days ~nothing left.
        let mut spec = si_spec();
        spec.transmission_rate = 0.0;
        let model = CompiledSpec::new(spec).unwrap();
        let stepper = GillespieStepper::new();
        let mut remaining = 0u64;
        for seed in 0..20u64 {
            let mut st = init(&model, 40 + seed, 1_000, 1_000);
            let mut flows = vec![0u64; 2];
            for _ in 0..30 {
                stepper.advance_day(&model, &mut st, &mut flows, &mut sc);
            }
            remaining += st.compartment_count(&model.spec, 1);
        }
        // Erlang(2, rate 2/5): P(T > 30) = e^{-12} (1 + 12) ~ 8e-5.
        assert!(remaining < 40, "remaining = {remaining}");
    }

    #[test]
    fn agrees_with_chain_binomial_on_final_size() {
        let mut sc = StepScratch::default();
        let model = CompiledSpec::new(si_spec()).unwrap();
        let exact = GillespieStepper::new();
        let chain = super::super::BinomialChainStepper::try_with_substeps(8).unwrap();
        let reps = 12u64;
        let mut fe = 0.0;
        let mut fc = 0.0;
        for seed in 0..reps {
            let mut st = init(&model, 500 + seed, 3_000, 30);
            let mut f = vec![0u64; 2];
            for _ in 0..250 {
                exact.advance_day(&model, &mut st, &mut f, &mut sc);
            }
            fe += st.compartment_count(&model.spec, 2) as f64;
            let mut st = init(&model, 900 + seed, 3_000, 30);
            let mut f = vec![0u64; 2];
            for _ in 0..250 {
                chain.advance_day(&model, &mut st, &mut f, &mut sc);
            }
            fc += st.compartment_count(&model.spec, 2) as f64;
        }
        fe /= reps as f64;
        fc /= reps as f64;
        assert!(
            (fe - fc).abs() / fe < 0.05,
            "gillespie {fe} vs chain {fc} differ by more than 5%"
        );
    }

    #[test]
    fn clock_lands_on_day_boundaries() {
        let mut sc = StepScratch::default();
        let model = CompiledSpec::new(si_spec()).unwrap();
        let stepper = GillespieStepper::new();
        let mut st = init(&model, 3, 500, 5);
        let mut flows = vec![0u64; 2];
        stepper.advance_day(&model, &mut st, &mut flows, &mut sc);
        assert_eq!(st.day, 1);
        assert_eq!(st.time, 1.0);
        stepper.advance_day(&model, &mut st, &mut flows, &mut sc);
        assert_eq!(st.day, 2);
    }
}
