//! High-level simulation driver tying a compiled model, a stepper, live
//! state, and recorded output together.

use std::sync::Arc;

use crate::checkpoint::SimCheckpoint;
use crate::engine::{CompiledSpec, StepScratch, Stepper};
use crate::error::SimError;
use crate::output::DailySeries;
use crate::spec::ModelSpec;
use crate::state::SimState;

/// A running simulation: compiled model + stepper + state + recorded
/// daily output.
pub struct Simulation<S: Stepper> {
    model: CompiledSpec,
    stepper: S,
    state: SimState,
    series: DailySeries,
    /// Reusable stepper workspace; makes `step_day` allocation-free
    /// after the first day.
    scratch: StepScratch,
    /// Reusable per-day flow + census row buffer.
    day_buf: Vec<u64>,
}

impl<S: Stepper> Simulation<S> {
    /// Start a fresh simulation at day 0 from an initial state.
    ///
    /// # Errors
    /// Returns the spec validation error, if any.
    pub fn new(spec: ModelSpec, stepper: S, state: SimState) -> Result<Self, SimError> {
        let model = CompiledSpec::new(spec)?;
        if state.stage_counts.len() != model.spec.total_stages() {
            return Err(SimError::Spec(
                "initial state does not match model layout".into(),
            ));
        }
        // Row i of the series covers day `state.day + 1 + i`: the first
        // step advances the clock to day start+1 and records that day.
        let series = DailySeries::new(Arc::clone(model.output_names()), state.day + 1);
        Ok(Self {
            model,
            stepper,
            state,
            series,
            scratch: StepScratch::new(),
            day_buf: Vec::new(),
        })
    }

    /// Resume from a checkpoint under a (possibly re-parameterized) spec,
    /// keeping the captured RNG stream.
    ///
    /// # Errors
    /// Propagates spec validation and checkpoint layout errors.
    pub fn resume(spec: ModelSpec, stepper: S, ck: &SimCheckpoint) -> Result<Self, SimError> {
        let state = ck.restore(&spec)?;
        Self::new(spec, stepper, state)
    }

    /// Resume from a checkpoint with a fresh RNG seed — the paper's
    /// trajectory-branching restart.
    ///
    /// # Errors
    /// Propagates spec validation and checkpoint layout errors.
    pub fn resume_with_seed(
        spec: ModelSpec,
        stepper: S,
        ck: &SimCheckpoint,
        seed: u64,
    ) -> Result<Self, SimError> {
        let state = ck.restore_with_seed(&spec, seed)?;
        Self::new(spec, stepper, state)
    }

    /// Advance one day, recording flows and censuses. Allocation-free
    /// after the first call: the flow/census row and all stepper
    /// intermediates live in buffers owned by the simulation.
    pub fn step_day(&mut self) {
        let n_flows = self.model.spec.flows.len();
        self.day_buf.clear();
        self.day_buf.resize(n_flows, 0);
        self.stepper.advance_day(
            &self.model,
            &mut self.state,
            &mut self.day_buf,
            &mut self.scratch,
        );
        self.model.censuses_into(&self.state, &mut self.day_buf);
        self.series.push_day(&self.day_buf);
    }

    /// Run until the simulation clock reaches `day` (inclusive end: the
    /// state's `day` equals `day` afterwards). No-op if already there.
    pub fn run_until(&mut self, day: u32) {
        while self.state.day < day {
            self.step_day();
        }
    }

    /// The live state.
    pub fn state(&self) -> &SimState {
        &self.state
    }

    /// The recorded output so far.
    pub fn series(&self) -> &DailySeries {
        &self.series
    }

    /// The validated model spec.
    pub fn spec(&self) -> &ModelSpec {
        &self.model.spec
    }

    /// Capture a checkpoint of the current state.
    pub fn checkpoint(&self) -> SimCheckpoint {
        SimCheckpoint::capture_compiled(&self.model, &self.state)
    }

    /// Consume the simulation, returning its recorded output.
    pub fn into_series(self) -> DailySeries {
        self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::BinomialChainStepper;
    use crate::spec::{CensusSpec, Compartment, FlowSpec, Infection, Progression};

    fn spec() -> ModelSpec {
        ModelSpec {
            name: "run".into(),
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
            flows: vec![FlowSpec {
                name: "infections".into(),
                edges: vec![(0, 1)],
            }],
            censuses: vec![CensusSpec {
                name: "active".into(),
                compartments: vec![1],
            }],
        }
    }

    fn start_state(sp: &ModelSpec, seed: u64) -> SimState {
        let mut st = SimState::empty(sp, seed);
        st.seed_compartment(sp, 0, 5_000);
        st.seed_compartment(sp, 1, 50);
        st
    }

    #[test]
    fn records_flows_and_censuses() {
        let sp = spec();
        let st = start_state(&sp, 1);
        let mut sim = Simulation::new(sp, BinomialChainStepper::daily(), st).unwrap();
        sim.run_until(30);
        let series = sim.series();
        assert_eq!(series.len(), 30);
        assert_eq!(
            series.names(),
            &["infections".to_string(), "active".to_string()]
        );
        let total_inf: u64 = series.series("infections").unwrap().iter().sum();
        assert!(total_inf > 100);
        // Census on the last day matches the live state.
        let active = series.series("active").unwrap();
        assert_eq!(
            *active.last().unwrap(),
            sim.state().compartment_count(sim.spec(), 1)
        );
    }

    #[test]
    fn checkpoint_resume_continues_bit_exactly() {
        let sp = spec();
        let st = start_state(&sp, 2);
        // Uninterrupted run to day 40.
        let mut full =
            Simulation::new(sp.clone(), BinomialChainStepper::daily(), st.clone()).unwrap();
        full.run_until(40);
        // Interrupted: run to day 20, checkpoint, resume, run to 40.
        let mut first = Simulation::new(sp.clone(), BinomialChainStepper::daily(), st).unwrap();
        first.run_until(20);
        let ck = first.checkpoint();
        let mut second = Simulation::resume(sp, BinomialChainStepper::daily(), &ck).unwrap();
        second.run_until(40);
        assert_eq!(second.state(), full.state());
        // The resumed series covers days 21..=40 and matches the tail of
        // the full series (whose row 20 is day 21).
        assert_eq!(second.series().start_day(), 21);
        assert_eq!(
            second.series().series("infections").unwrap(),
            &full.series().series("infections").unwrap()[20..]
        );
    }

    #[test]
    fn resume_with_new_parameters_branches_the_trajectory() {
        let sp = spec();
        let st = start_state(&sp, 3);
        let mut base = Simulation::new(sp.clone(), BinomialChainStepper::daily(), st).unwrap();
        base.run_until(20);
        let ck = base.checkpoint();

        let mut hot = sp.clone();
        hot.transmission_rate = 1.2;
        let mut cold = sp.clone();
        cold.transmission_rate = 0.05;

        let mut sim_hot =
            Simulation::resume_with_seed(hot, BinomialChainStepper::daily(), &ck, 10).unwrap();
        let mut sim_cold =
            Simulation::resume_with_seed(cold, BinomialChainStepper::daily(), &ck, 10).unwrap();
        sim_hot.run_until(50);
        sim_cold.run_until(50);
        let inf_hot: u64 = sim_hot.series().series("infections").unwrap().iter().sum();
        let inf_cold: u64 = sim_cold.series().series("infections").unwrap().iter().sum();
        assert!(
            inf_hot > 3 * inf_cold.max(1),
            "hot {inf_hot} should far exceed cold {inf_cold}"
        );
    }

    #[test]
    fn run_until_is_idempotent_at_target() {
        let sp = spec();
        let st = start_state(&sp, 4);
        let mut sim = Simulation::new(sp, BinomialChainStepper::daily(), st).unwrap();
        sim.run_until(10);
        sim.run_until(10);
        assert_eq!(sim.series().len(), 10);
    }

    #[test]
    fn new_rejects_mismatched_state() {
        let sp = spec();
        let other = SimState {
            day: 0,
            time: 0.0,
            stage_counts: vec![0; 99],
            rng: epistats::rng::Xoshiro256PlusPlus::new(1),
        };
        assert!(Simulation::new(sp, BinomialChainStepper::daily(), other).is_err());
    }
}
