//! Daily binomial-chain stepper (chain-binomial / discrete-hazard model).
//!
//! Each sub-step of length `dt` converts every per-capita rate `r` into an
//! exit probability `1 - exp(-r dt)` and draws binomial counts from the
//! *start-of-step* state snapshot, so transitions within a step are
//! order-independent. This is the classical Reed–Frost-style scheme used
//! by the COVID-Chicago reference model at `dt = 1` day.

use epistats::dist::HazardSampler;

use super::{CompiledSpec, StepScratch, Stepper};
use crate::error::SimError;
use crate::state::SimState;

/// Chain-binomial stepper with a fixed sub-day step.
#[derive(Clone, Debug)]
pub struct BinomialChainStepper {
    /// Number of equal sub-steps per day (>= 1).
    substeps: u32,
}

impl BinomialChainStepper {
    /// The reference configuration: one step per day.
    pub fn daily() -> Self {
        Self { substeps: 1 }
    }

    /// Use `substeps` equal steps per day (finer steps reduce the
    /// discrete-hazard approximation error of simultaneous transitions).
    ///
    /// # Errors
    /// Returns [`SimError::Spec`] if `substeps` is zero.
    pub fn try_with_substeps(substeps: u32) -> Result<Self, SimError> {
        if substeps == 0 {
            return Err(SimError::Spec(
                "BinomialChainStepper: substeps must be >= 1".into(),
            ));
        }
        Ok(Self { substeps })
    }

    /// Sub-steps per day.
    pub fn substeps(&self) -> u32 {
        self.substeps
    }
}

impl Default for BinomialChainStepper {
    fn default() -> Self {
        Self::daily()
    }
}

impl Stepper for BinomialChainStepper {
    fn advance_day(
        &self,
        model: &CompiledSpec,
        state: &mut SimState,
        flows: &mut [u64],
        scratch: &mut StepScratch,
    ) {
        let dt = 1.0 / self.substeps as f64;
        let spec = &model.spec;
        // Sizes the SoA buffers and refreshes the hazard table
        // (per-progression `1 - exp(-rate dt)`) plus its shared binomial
        // p-setups only when the (model, substeps) key changed — the
        // exp_m1/ln_1p calls disappear from the substep loop.
        scratch.prepare_chain(model, self.substeps);

        for _ in 0..self.substeps {
            // Forces of infection from the step-start snapshot, before
            // any draw mutates the RNG borrow.
            for (ii, inf) in spec.infections.iter().enumerate() {
                scratch.foi_buf[ii] = state.force_of_infection_with(spec, inf, &model.offsets);
            }
            // Split the state borrow so batched draws can read occupancy
            // slices while the RNG advances.
            let SimState {
                stage_counts, rng, ..
            } = state;
            scratch.deltas.iter_mut().for_each(|d| *d = 0);

            // Infections: S -> E, each with its own (possibly
            // contact-structured) force of infection.
            for (ii, inf) in spec.infections.iter().enumerate() {
                let foi = scratch.foi_buf[ii];
                if foi <= 0.0 {
                    continue;
                }
                let p_inf = -(-foi * dt).exp_m1();
                let s_off = model.offsets[inf.susceptible];
                let newly = HazardSampler::new(p_inf).draw(rng, stage_counts[s_off]);
                if newly > 0 {
                    scratch.deltas[s_off] -= newly as i64;
                    scratch.deltas[model.offsets[inf.exposed]] += newly as i64;
                    model.record_edge(flows, inf.susceptible, inf.exposed, newly);
                }
            }

            // Progressions: each progression's stages share one exit
            // hazard, so the whole compartment batches through the
            // shared p-setup over its contiguous occupancy slice; the
            // final stage's branch split follows its own draws, exactly
            // as in the scalar walk.
            for (pi, prog) in spec.progressions.iter().enumerate() {
                if scratch.hazards[pi] <= 0.0 {
                    continue;
                }
                let from = prog.from;
                let base = model.offsets[from];
                let stages = spec.compartments[from].stages as usize;
                let hs = scratch.hazard_samplers[pi];
                hs.draw_many(
                    rng,
                    &stage_counts[base..base + stages],
                    &mut scratch.draws[base..base + stages],
                );
                scratch.batched_draws += stages as u64;
                for s in 0..stages {
                    let exits = scratch.draws[base + s];
                    if exits == 0 {
                        continue;
                    }
                    scratch.deltas[base + s] -= exits as i64;
                    if s + 1 < stages {
                        scratch.deltas[base + s + 1] += exits as i64;
                    } else {
                        model.apply_split(rng, pi, from, exits, &mut scratch.deltas, flows);
                    }
                }
            }

            // Apply all moves simultaneously.
            for (c, &d) in stage_counts.iter_mut().zip(&scratch.deltas) {
                let next = *c as i64 + d;
                debug_assert!(next >= 0, "negative occupancy after step");
                *c = next as u64;
            }
        }
        state.day += 1;
        state.time = state.day as f64;
    }

    fn name(&self) -> &'static str {
        "binomial-chain"
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::si_spec;
    use super::*;

    fn init_state(model: &CompiledSpec, seed: u64) -> SimState {
        let mut st = SimState::empty(&model.spec, seed);
        st.seed_compartment(&model.spec, 0, 9_900);
        st.seed_compartment(&model.spec, 1, 100);
        st
    }

    #[test]
    fn population_is_conserved() {
        let mut sc = StepScratch::default();
        let model = CompiledSpec::new(si_spec()).unwrap();
        let stepper = BinomialChainStepper::daily();
        let mut st = init_state(&model, 7);
        let n0 = st.total_population();
        let mut flows = vec![0u64; 2];
        for _ in 0..60 {
            stepper.advance_day(&model, &mut st, &mut flows, &mut sc);
            assert_eq!(st.total_population(), n0);
        }
        assert_eq!(st.day, 60);
    }

    #[test]
    fn epidemic_grows_then_burns_out() {
        let mut sc = StepScratch::default();
        let model = CompiledSpec::new(si_spec()).unwrap();
        let stepper = BinomialChainStepper::daily();
        let mut st = init_state(&model, 11);
        let mut flows = vec![0u64; 2];
        for _ in 0..300 {
            stepper.advance_day(&model, &mut st, &mut flows, &mut sc);
        }
        // R0 = 0.5 * 5 = 2.5 -> most of the population gets infected.
        let recovered = st.compartment_count(&model.spec, 2);
        assert!(recovered > 8_000, "recovered = {recovered}");
        // Flow counter saw every infection: infections = R + I - initial I.
        let infectious_now = st.compartment_count(&model.spec, 1);
        assert_eq!(flows[0], recovered + infectious_now - 100);
        assert_eq!(flows[1], recovered);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut sc = StepScratch::default();
        let model = CompiledSpec::new(si_spec()).unwrap();
        let stepper = BinomialChainStepper::daily();
        let mut a = init_state(&model, 5);
        let mut b = init_state(&model, 5);
        let mut fa = vec![0u64; 2];
        let mut fb = vec![0u64; 2];
        for _ in 0..30 {
            stepper.advance_day(&model, &mut a, &mut fa, &mut sc);
            stepper.advance_day(&model, &mut b, &mut fb, &mut sc);
        }
        assert_eq!(a, b);
        assert_eq!(fa, fb);
    }

    #[test]
    fn substeps_preserve_conservation() {
        let mut sc = StepScratch::default();
        let model = CompiledSpec::new(si_spec()).unwrap();
        let stepper = BinomialChainStepper::try_with_substeps(4).unwrap();
        let mut st = init_state(&model, 13);
        let n0 = st.total_population();
        let mut flows = vec![0u64; 2];
        for _ in 0..30 {
            stepper.advance_day(&model, &mut st, &mut flows, &mut sc);
        }
        assert_eq!(st.total_population(), n0);
    }

    #[test]
    fn zero_transmission_means_no_infections() {
        let mut sc = StepScratch::default();
        let mut spec = si_spec();
        spec.transmission_rate = 0.0;
        let model = CompiledSpec::new(spec).unwrap();
        let stepper = BinomialChainStepper::daily();
        let mut st = init_state(&model, 17);
        let mut flows = vec![0u64; 2];
        for _ in 0..50 {
            stepper.advance_day(&model, &mut st, &mut flows, &mut sc);
        }
        assert_eq!(flows[0], 0);
        assert_eq!(st.compartment_count(&model.spec, 0), 9_900);
    }

    #[test]
    fn zero_substeps_rejected() {
        let err = BinomialChainStepper::try_with_substeps(0).unwrap_err();
        assert!(matches!(err, SimError::Spec(_)), "{err}");
    }
}
