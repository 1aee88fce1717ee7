//! Minimal stochastic SEIR model.
//!
//! A four-compartment baseline used for stepper fidelity studies (where
//! the exact Gillespie run is affordable), quick examples, and tests. It
//! exercises the same engine as the full COVID model.

use crate::spec::{CensusSpec, Compartment, FlowSpec, Infection, ModelSpec, Progression};
use crate::state::SimState;

/// Parameters of the minimal SEIR model.
#[derive(Clone, Debug, PartialEq)]
pub struct SeirParams {
    /// Transmission rate.
    pub transmission_rate: f64,
    /// Mean latent period (days).
    pub latent_period: f64,
    /// Mean infectious period (days).
    pub infectious_period: f64,
    /// Total population.
    pub population: u64,
    /// Initially exposed individuals.
    pub initial_exposed: u64,
    /// Erlang stages for E and I.
    pub stages: u32,
}

impl Default for SeirParams {
    fn default() -> Self {
        Self {
            transmission_rate: 0.4,
            latent_period: 3.0,
            infectious_period: 5.0,
            population: 100_000,
            initial_exposed: 50,
            stages: 2,
        }
    }
}

impl SeirParams {
    /// Validate parameter ranges.
    ///
    /// # Errors
    /// Returns a description of the first invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.transmission_rate.is_finite() && self.transmission_rate >= 0.0) {
            return Err(format!("transmission_rate = {}", self.transmission_rate));
        }
        if !(self.latent_period > 0.0 && self.infectious_period > 0.0) {
            return Err("periods must be positive".into());
        }
        if self.initial_exposed > self.population {
            return Err("initial_exposed exceeds population".into());
        }
        if self.stages == 0 {
            return Err("stages must be >= 1".into());
        }
        Ok(())
    }
}

/// The minimal SEIR model.
#[derive(Clone, Debug)]
pub struct SeirModel {
    params: SeirParams,
}

impl SeirModel {
    /// Create a model from validated parameters.
    ///
    /// # Errors
    /// Propagates [`SeirParams::validate`] failures.
    pub fn new(params: SeirParams) -> Result<Self, String> {
        params.validate()?;
        Ok(Self { params })
    }

    /// The model parameters.
    pub fn params(&self) -> &SeirParams {
        &self.params
    }

    /// Build the model spec.
    pub fn spec(&self) -> ModelSpec {
        let p = &self.params;
        ModelSpec {
            name: "seir".into(),
            compartments: vec![
                Compartment::simple("S"),
                Compartment::new("E", p.stages, 0.0),
                Compartment::new("I", p.stages, 1.0),
                Compartment::simple("R"),
            ],
            progressions: vec![
                Progression {
                    from: 1,
                    mean_dwell: p.latent_period,
                    branches: vec![(2, 1.0)],
                },
                Progression {
                    from: 2,
                    mean_dwell: p.infectious_period,
                    branches: vec![(3, 1.0)],
                },
            ],
            infections: vec![Infection::simple(0, 1)],
            transmission_rate: p.transmission_rate,
            flows: vec![
                FlowSpec {
                    name: "infections".into(),
                    edges: vec![(0, 1)],
                },
                FlowSpec {
                    name: "recoveries".into(),
                    edges: vec![(2, 3)],
                },
            ],
            censuses: vec![CensusSpec {
                name: "infectious".into(),
                compartments: vec![2],
            }],
        }
    }

    /// Initial state: `population - initial_exposed` susceptible,
    /// `initial_exposed` in E.
    pub fn initial_state(&self, seed: u64) -> SimState {
        self.initial_state_in(&self.spec(), seed)
    }

    /// [`Self::initial_state`] against an already-built spec for this
    /// model (e.g. out of a cached [`crate::engine::CompiledSpec`]),
    /// skipping the per-call spec rebuild.
    pub fn initial_state_in(&self, spec: &ModelSpec, seed: u64) -> SimState {
        let mut st = SimState::empty(spec, seed);
        st.seed_compartment(
            spec,
            0,
            self.params.population - self.params.initial_exposed,
        );
        st.seed_compartment(spec, 1, self.params.initial_exposed);
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BinomialChainStepper, GillespieStepper};
    use crate::runner::Simulation;

    #[test]
    fn default_builds_valid_spec() {
        let m = SeirModel::new(SeirParams::default()).unwrap();
        assert!(m.spec().validate().is_ok());
    }

    #[test]
    fn epidemic_final_size_near_r0_prediction() {
        // For R0 = 2, the final-size equation z = 1 - exp(-R0 z) gives
        // z ~ 0.797. The chain-binomial daily scheme has slight
        // discretization bias, so allow a generous band.
        let m = SeirModel::new(SeirParams::default()).unwrap();
        let mut attack = 0.0;
        let reps = 5;
        for seed in 0..reps {
            let mut sim = Simulation::new(
                m.spec(),
                BinomialChainStepper::try_with_substeps(4).unwrap(),
                m.initial_state(seed),
            )
            .unwrap();
            sim.run_until(400);
            attack += sim.state().compartment_count(sim.spec(), 3) as f64 / 100_000.0;
        }
        attack /= reps as f64;
        assert!(
            (attack - 0.797).abs() < 0.05,
            "attack rate {attack} far from final-size prediction 0.797"
        );
    }

    #[test]
    fn gillespie_small_population_runs() {
        let m = SeirModel::new(SeirParams {
            population: 500,
            initial_exposed: 5,
            ..SeirParams::default()
        })
        .unwrap();
        let mut sim =
            Simulation::new(m.spec(), GillespieStepper::new(), m.initial_state(3)).unwrap();
        sim.run_until(100);
        assert_eq!(sim.state().total_population(), 500);
    }

    #[test]
    fn rejects_invalid() {
        assert!(SeirModel::new(SeirParams {
            transmission_rate: -0.1,
            ..SeirParams::default()
        })
        .is_err());
        assert!(SeirModel::new(SeirParams {
            stages: 0,
            ..SeirParams::default()
        })
        .is_err());
    }
}
