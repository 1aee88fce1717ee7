//! Flattened simulation state: the complete dynamical state of a run.
//!
//! Because dwell times are Erlang (memoryless per stage), the entire
//! future of a trajectory is determined by the per-stage occupancy counts
//! plus the RNG state — there is no hidden event queue. This is exactly
//! what makes checkpoints compact and exact.

use epistats::rng::Xoshiro256PlusPlus;
use serde::{Deserialize, Serialize};

use crate::spec::ModelSpec;

/// The complete mutable state of a simulation run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimState {
    /// Completed whole days since the epidemic's start.
    pub day: u32,
    /// Continuous simulation clock in days (equals `day` except inside a
    /// Gillespie sub-day advance).
    pub time: f64,
    /// Occupancy of every Erlang stage, flattened in spec order.
    pub stage_counts: Vec<u64>,
    /// The generator driving all stochasticity of this trajectory.
    pub rng: Xoshiro256PlusPlus,
}

impl SimState {
    /// Create a state with every stage empty and the clock at zero.
    pub fn empty(spec: &ModelSpec, seed: u64) -> Self {
        Self {
            day: 0,
            time: 0.0,
            stage_counts: vec![0; spec.total_stages()],
            rng: Xoshiro256PlusPlus::new(seed),
        }
    }

    /// Overwrite this state with `src`, reusing the existing
    /// `stage_counts` allocation — the pooled-workspace analogue of
    /// `Clone::clone` that keeps a warm buffer allocation-free.
    pub fn assign_from(&mut self, src: &Self) {
        self.day = src.day;
        self.time = src.time;
        self.stage_counts.clone_from(&src.stage_counts);
        self.rng = src.rng.clone();
    }

    /// Occupancy of a compartment (sum over its stages).
    pub fn compartment_count(&self, spec: &ModelSpec, id: usize) -> u64 {
        let offsets = spec.stage_offsets();
        self.stage_counts[offsets[id]..offsets[id + 1]].iter().sum()
    }

    /// Place `count` individuals into the first stage of a compartment.
    pub fn seed_compartment(&mut self, spec: &ModelSpec, id: usize, count: u64) {
        let offsets = spec.stage_offsets();
        self.stage_counts[offsets[id]] += count;
    }

    /// Total population across all compartments (conserved by every
    /// stepper; asserted in tests).
    pub fn total_population(&self) -> u64 {
        self.stage_counts.iter().sum()
    }

    /// Homogeneous-mixing force of infection per susceptible:
    /// `transmission_rate * sum_c(infectivity_c * count_c) / N`.
    ///
    /// Returns 0 for an empty population. Structured-mixing infections
    /// use [`Self::force_of_infection_for`] instead.
    pub fn force_of_infection(&self, spec: &ModelSpec) -> f64 {
        let n = self.total_population();
        if n == 0 {
            return 0.0;
        }
        let offsets = spec.stage_offsets();
        let mut weighted = 0.0;
        for (id, c) in spec.compartments.iter().enumerate() {
            if c.infectivity > 0.0 {
                let count: u64 = self.stage_counts[offsets[id]..offsets[id + 1]].iter().sum();
                weighted += c.infectivity * count as f64;
            }
        }
        spec.transmission_rate * weighted / n as f64
    }

    /// Force of infection felt by a specific
    /// [`Infection`](crate::spec::Infection) transition,
    /// honouring its susceptibility multiplier and (optional) weighted
    /// source set — one row of a contact structure.
    pub fn force_of_infection_for(
        &self,
        spec: &ModelSpec,
        infection: &crate::spec::Infection,
    ) -> f64 {
        self.force_of_infection_with(spec, infection, &spec.stage_offsets())
    }

    /// [`Self::force_of_infection_for`] against caller-supplied stage
    /// offsets (e.g. `CompiledSpec::offsets`), so per-step hot paths
    /// don't rebuild the offset table on every evaluation.
    pub fn force_of_infection_with(
        &self,
        spec: &ModelSpec,
        infection: &crate::spec::Infection,
        offsets: &[usize],
    ) -> f64 {
        let n = self.total_population();
        if n == 0 {
            return 0.0;
        }
        let count_of = |id: usize| -> f64 {
            self.stage_counts[offsets[id]..offsets[id + 1]]
                .iter()
                .sum::<u64>() as f64
        };
        let weighted = match &infection.sources {
            None => spec
                .compartments
                .iter()
                .enumerate()
                .filter(|(_, c)| c.infectivity > 0.0)
                .map(|(id, c)| c.infectivity * count_of(id))
                .sum::<f64>(),
            Some(sources) => sources
                .iter()
                .map(|&(id, w)| w * spec.compartments[id].infectivity * count_of(id))
                .sum::<f64>(),
        };
        spec.transmission_rate * infection.susceptibility * weighted / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Compartment, FlowSpec, Infection, Progression};

    fn spec() -> ModelSpec {
        ModelSpec {
            name: "t".into(),
            compartments: vec![
                Compartment::simple("S"),
                Compartment::new("I", 3, 0.5),
                Compartment::simple("R"),
            ],
            progressions: vec![Progression {
                from: 1,
                mean_dwell: 4.0,
                branches: vec![(2, 1.0)],
            }],
            infections: vec![Infection::simple(0, 1)],
            transmission_rate: 0.4,
            flows: vec![FlowSpec {
                name: "inf".into(),
                edges: vec![(0, 1)],
            }],
            censuses: vec![],
        }
    }

    #[test]
    fn seeding_and_counting() {
        let s = spec();
        let mut st = SimState::empty(&s, 1);
        st.seed_compartment(&s, 0, 990);
        st.seed_compartment(&s, 1, 10);
        assert_eq!(st.compartment_count(&s, 0), 990);
        assert_eq!(st.compartment_count(&s, 1), 10);
        assert_eq!(st.total_population(), 1000);
    }

    #[test]
    fn foi_formula() {
        let s = spec();
        let mut st = SimState::empty(&s, 1);
        st.seed_compartment(&s, 0, 900);
        st.seed_compartment(&s, 1, 100);
        // FOI = 0.4 * (0.5 * 100) / 1000 = 0.02
        assert!((st.force_of_infection(&s) - 0.02).abs() < 1e-14);
    }

    #[test]
    fn foi_zero_for_empty_population() {
        let s = spec();
        let st = SimState::empty(&s, 1);
        assert_eq!(st.force_of_infection(&s), 0.0);
    }

    #[test]
    fn structured_foi_honours_sources_and_susceptibility() {
        let s = spec();
        let mut st = SimState::empty(&s, 1);
        st.seed_compartment(&s, 0, 900);
        st.seed_compartment(&s, 1, 100);
        // Homogeneous with susceptibility 1 matches the global FOI.
        let inf = Infection::simple(0, 1);
        assert!((st.force_of_infection_for(&s, &inf) - st.force_of_infection(&s)).abs() < 1e-14);
        // Susceptibility multiplier scales linearly.
        let half = Infection {
            susceptibility: 0.5,
            ..Infection::simple(0, 1)
        };
        assert!(
            (st.force_of_infection_for(&s, &half) - 0.5 * st.force_of_infection(&s)).abs() < 1e-15
        );
        // Structured sources: weight 2 on compartment I doubles the FOI;
        // sourcing only from the (non-infectious) S pool gives zero.
        let double = Infection::weighted(0, 1, 1.0, vec![(1, 2.0)]);
        assert!(
            (st.force_of_infection_for(&s, &double) - 2.0 * st.force_of_infection(&s)).abs()
                < 1e-15
        );
        let none = Infection::weighted(0, 1, 1.0, vec![(0, 1.0)]);
        assert_eq!(st.force_of_infection_for(&s, &none), 0.0);
    }

    #[test]
    fn state_serde_round_trip() {
        let s = spec();
        let mut st = SimState::empty(&s, 42);
        st.seed_compartment(&s, 0, 5);
        st.day = 7;
        st.time = 7.0;
        let json = serde_json::to_string(&st).unwrap();
        let back: SimState = serde_json::from_str(&json).unwrap();
        assert_eq!(st, back);
    }
}
