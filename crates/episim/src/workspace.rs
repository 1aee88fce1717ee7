//! Reusable simulation arenas for high-volume ensemble runs.
//!
//! The parallel inference grid in `epismc` simulates tens of thousands of
//! short trajectories per calibration window. Building a fresh
//! [`Simulation`](crate::runner::Simulation) per cell allocates a state
//! vector, a step scratch, and a day buffer every time; a [`SimWorkspace`]
//! owns those buffers once per worker thread and rehydrates them in place
//! for each run, so the steady-state cost of a replicate is the simulated
//! days themselves — **zero heap allocations per simulated day** (the
//! recorded [`DailySeries`] and the returned checkpoint are the run's
//! output and are necessarily fresh).
//!
//! The workspace is pure reuse: running a trajectory through a warm
//! workspace is bit-identical to running it through a
//! [`Simulation`](crate::runner::Simulation), which is what lets the
//! parallel runner pool workspaces per worker without perturbing the
//! deterministic replay guarantees.

use std::convert::Infallible;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

use epistats::rng::Xoshiro256PlusPlus;

use crate::checkpoint::SimCheckpoint;
use crate::engine::{CompiledSpec, StepScratch, Stepper};
use crate::error::SimError;
use crate::output::DailySeries;
use crate::state::SimState;

/// A reusable simulation arena: state buffer + stepper scratch + day
/// buffer, plus reuse telemetry counters.
#[derive(Clone, Debug)]
pub struct SimWorkspace {
    /// In-place rehydrated run state (allocation reused across runs).
    state: SimState,
    /// Stepper scratch (hazard tables, sampler setups, delta buffers).
    scratch: StepScratch,
    /// Per-day flow + census row buffer.
    day_buf: Vec<u64>,
    /// Single-slot compiled-model cache: `(salt, key, compiled)`. See
    /// [`Self::compiled_for`].
    compiled_cache: Option<(u64, Box<[u64]>, Arc<CompiledSpec>)>,
    /// Cache-miss count for [`Self::compiled_for`] (compilations done).
    compiled_builds: u64,
    /// Cache-hit count for [`Self::compiled_for`].
    compiled_reuses: u64,
    /// Runs through this workspace, stopped ones included.
    runs: u64,
    /// Total days simulated through this workspace.
    days_simulated: u64,
    /// Wall-clock nanoseconds spent inside day-advance loops.
    sim_nanos: u64,
}

impl Default for SimWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl SimWorkspace {
    /// Create an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self {
            state: SimState {
                day: 0,
                time: 0.0,
                stage_counts: Vec::new(),
                rng: Xoshiro256PlusPlus::new(0),
            },
            scratch: StepScratch::new(),
            day_buf: Vec::new(),
            compiled_cache: None,
            compiled_builds: 0,
            compiled_reuses: 0,
            runs: 0,
            days_simulated: 0,
            sim_nanos: 0,
        }
    }

    /// Return the compiled model cached under `(salt, key)`, building
    /// (and caching) it with `build` on a miss.
    ///
    /// The inference grid walks cells in `(parameter, replicate)` order,
    /// so consecutive runs through one worker's workspace usually share a
    /// parameter vector. Compiling a fresh [`CompiledSpec`] per cell not
    /// only repeats the spec build/validation, it also mints a fresh
    /// [`CompiledSpec::stamp`] each time, which invalidates the scratch's
    /// stamp-keyed hazard table on every run. This single-slot cache keeps
    /// one compilation alive per `(salt, key)` so replicate runs reuse
    /// both the compilation and the derived tables.
    ///
    /// `salt` must identify the builder (so two simulators sharing a
    /// workspace can never alias) and `key` the exact parameterization
    /// (e.g. raw `f64::to_bits` of each calibration coordinate — exact
    /// equality, no float tolerance). The cache is pure memoization:
    /// `build` must be deterministic in `(salt, key)`, and results are
    /// bit-identical whether the slot hits or misses.
    ///
    /// # Errors
    /// Propagates `build` failures; the slot is left unchanged on error.
    pub fn compiled_for<E>(
        &mut self,
        salt: u64,
        key: &[u64],
        build: impl FnOnce() -> Result<CompiledSpec, E>,
    ) -> Result<Arc<CompiledSpec>, E> {
        if let Some((s, k, compiled)) = &self.compiled_cache {
            if *s == salt && k.as_ref() == key {
                self.compiled_reuses += 1;
                return Ok(Arc::clone(compiled));
            }
        }
        let compiled = Arc::new(build()?);
        self.compiled_builds += 1;
        self.compiled_cache = Some((salt, key.into(), Arc::clone(&compiled)));
        Ok(compiled)
    }

    /// Run a fresh trajectory from `init` until the clock reaches
    /// `end_day`, recording daily flows and censuses. Returns the
    /// recorded series and an end-of-run checkpoint.
    ///
    /// # Errors
    /// Returns [`SimError::Spec`] if `init` does not match the model's
    /// stage layout.
    pub fn run<S: Stepper>(
        &mut self,
        model: &CompiledSpec,
        stepper: &S,
        init: &SimState,
        end_day: u32,
    ) -> Result<(DailySeries, SimCheckpoint), SimError> {
        let ControlFlow::Continue(run) =
            self.run_with(model, stepper, init, end_day, never_stop)?;
        Ok(run)
    }

    /// [`Self::run`], calling `on_day(day, row)` after each simulated
    /// day with the day's output row in
    /// [`ModelSpec::output_names`](crate::spec::ModelSpec::output_names)
    /// order. A `Break` from `on_day` stops the run after that day and
    /// is returned in place of the series and checkpoint; the stopped
    /// run's days still count in [`Self::days_simulated`].
    ///
    /// # Errors
    /// Same contract as [`Self::run`].
    pub fn run_with<S: Stepper, B>(
        &mut self,
        model: &CompiledSpec,
        stepper: &S,
        init: &SimState,
        end_day: u32,
        on_day: impl FnMut(u32, &[u64]) -> ControlFlow<B>,
    ) -> Result<ControlFlow<B, (DailySeries, SimCheckpoint)>, SimError> {
        if init.stage_counts.len() != model.spec.total_stages() {
            return Err(SimError::Spec(
                "initial state does not match model layout".into(),
            ));
        }
        self.state.assign_from(init);
        Ok(self.run_loop(model, stepper, end_day, on_day))
    }

    /// Resume a trajectory from a checkpoint with a fresh RNG seed (the
    /// paper's trajectory-branching restart), running until `end_day`.
    ///
    /// The reseed fully replaces the workspace RNG state, so the run
    /// depends only on `(ck, seed, end_day)` — never on what the
    /// workspace simulated before. This is the contract the inference
    /// grid's counter-based streams rely on: each cell's seed derives in
    /// O(1) from `(master seed, window, param, replicate)` (see
    /// `epistats::rng::StreamKey`) and cells may be claimed by any
    /// worker in any order with bit-identical trajectories.
    ///
    /// # Errors
    /// Propagates checkpoint layout errors.
    pub fn run_from_checkpoint<S: Stepper>(
        &mut self,
        model: &CompiledSpec,
        stepper: &S,
        ck: &SimCheckpoint,
        seed: u64,
        end_day: u32,
    ) -> Result<(DailySeries, SimCheckpoint), SimError> {
        let ControlFlow::Continue(run) =
            self.run_from_checkpoint_with(model, stepper, ck, seed, end_day, never_stop)?;
        Ok(run)
    }

    /// [`Self::run_from_checkpoint`] with a per-day callback, as in
    /// [`Self::run_with`].
    ///
    /// # Errors
    /// Same contract as [`Self::run_from_checkpoint`].
    pub fn run_from_checkpoint_with<S: Stepper, B>(
        &mut self,
        model: &CompiledSpec,
        stepper: &S,
        ck: &SimCheckpoint,
        seed: u64,
        end_day: u32,
        on_day: impl FnMut(u32, &[u64]) -> ControlFlow<B>,
    ) -> Result<ControlFlow<B, (DailySeries, SimCheckpoint)>, SimError> {
        ck.restore_into_with_seed(&model.spec, &mut self.state, seed)?;
        Ok(self.run_loop(model, stepper, end_day, on_day))
    }

    /// The one day-advance loop over the workspace buffers.
    fn run_loop<S: Stepper, B>(
        &mut self,
        model: &CompiledSpec,
        stepper: &S,
        end_day: u32,
        mut on_day: impl FnMut(u32, &[u64]) -> ControlFlow<B>,
    ) -> ControlFlow<B, (DailySeries, SimCheckpoint)> {
        // Row i of the series covers day `state.day + 1 + i`, matching
        // `Simulation`'s convention.
        let mut series = DailySeries::with_day_capacity(
            model.spec.output_names(),
            self.state.day + 1,
            end_day.saturating_sub(self.state.day) as usize,
        );
        let n_flows = model.spec.flows.len();
        let mut stopped = None;
        // epilint: allow(wall-clock) — telemetry only; never feeds results
        let started = Instant::now();
        while self.state.day < end_day {
            self.day_buf.clear();
            self.day_buf.resize(n_flows, 0);
            stepper.advance_day(model, &mut self.state, &mut self.day_buf, &mut self.scratch);
            model.censuses_into(&self.state, &mut self.day_buf);
            series.push_day(&self.day_buf);
            self.days_simulated += 1;
            if let ControlFlow::Break(b) = on_day(self.state.day, &self.day_buf) {
                stopped = Some(b);
                break;
            }
        }
        self.sim_nanos += started.elapsed().as_nanos() as u64;
        self.runs += 1;
        match stopped {
            Some(b) => ControlFlow::Break(b),
            None => {
                ControlFlow::Continue((series, SimCheckpoint::capture(&model.spec, &self.state)))
            }
        }
    }

    /// Runs through this workspace, stopped ones included (reuse count
    /// is `runs().saturating_sub(1)`).
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Total simulated days across all runs.
    pub fn days_simulated(&self) -> u64 {
        self.days_simulated
    }

    /// Wall-clock nanoseconds spent inside day-advance loops (telemetry;
    /// inherently nondeterministic).
    pub fn sim_nanos(&self) -> u64 {
        self.sim_nanos
    }

    /// Draws issued through the steppers' batched sampling entry points
    /// across all runs (telemetry; exact for a given run sequence).
    pub fn batched_draws(&self) -> u64 {
        self.scratch.batched_draws()
    }

    /// Compilations performed by [`Self::compiled_for`] (cache misses).
    pub fn compiled_builds(&self) -> u64 {
        self.compiled_builds
    }

    /// Cache hits served by [`Self::compiled_for`].
    pub fn compiled_reuses(&self) -> u64 {
        self.compiled_reuses
    }
}

/// The per-day callback of a run that is never stopped.
fn never_stop(_: u32, _: &[u64]) -> ControlFlow<Infallible> {
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BinomialChainStepper, GillespieStepper};
    use crate::runner::Simulation;
    use crate::seir::{SeirModel, SeirParams};

    fn model() -> (CompiledSpec, SimState) {
        let m = SeirModel::new(SeirParams {
            population: 5_000,
            initial_exposed: 25,
            ..SeirParams::default()
        })
        .unwrap();
        let spec = m.spec();
        let state = m.initial_state(9);
        (CompiledSpec::new(spec).unwrap(), state)
    }

    #[test]
    fn warm_workspace_matches_fresh_simulation() {
        let (model, init) = model();
        let stepper = BinomialChainStepper::daily();

        let mut sim = Simulation::new(model.spec.clone(), stepper.clone(), init.clone()).unwrap();
        sim.run_until(40);

        let mut ws = SimWorkspace::new();
        // Warm the workspace on an unrelated run first.
        ws.run(&model, &stepper, &init, 13).unwrap();
        let (series, ck) = ws.run(&model, &stepper, &init, 40).unwrap();

        assert_eq!(&series, sim.series());
        assert_eq!(ck, sim.checkpoint());
        assert_eq!(ws.runs(), 2);
        assert_eq!(ws.days_simulated(), 53);
    }

    #[test]
    fn checkpoint_branching_matches_simulation_resume() {
        let (model, init) = model();
        let stepper = BinomialChainStepper::try_with_substeps(2).unwrap();
        let mut ws = SimWorkspace::new();
        let (_, ck) = ws.run(&model, &stepper, &init, 20).unwrap();

        let mut sim =
            Simulation::resume_with_seed(model.spec.clone(), stepper.clone(), &ck, 77).unwrap();
        sim.run_until(45);

        let (series, end_ck) = ws
            .run_from_checkpoint(&model, &stepper, &ck, 77, 45)
            .unwrap();
        assert_eq!(&series, sim.series());
        assert_eq!(end_ck, sim.checkpoint());
        assert_eq!(series.start_day(), 21);
    }

    #[test]
    fn day_callback_sees_every_row_and_can_stop_the_run() {
        let (model, init) = model();
        let stepper = BinomialChainStepper::daily();
        let mut ws = SimWorkspace::new();
        let (series, _) = ws.run(&model, &stepper, &init, 30).unwrap();
        let mut rows = Vec::new();
        let flow = ws
            .run_with(&model, &stepper, &init, 30, |day, row| {
                rows.push((day, row.to_vec()));
                if day == 12 {
                    ControlFlow::Break(day)
                } else {
                    ControlFlow::Continue(())
                }
            })
            .unwrap();
        assert!(matches!(flow, ControlFlow::Break(12)));
        assert_eq!(rows.len(), 12);
        for (i, (day, row)) in rows.iter().enumerate() {
            assert_eq!(*day, series.start_day() + i as u32);
            let want: Vec<u64> = (0..series.names().len())
                .map(|k| series.column(k).unwrap()[i])
                .collect();
            assert_eq!(*row, want, "day {day}");
        }
        // The stopped run counts, with the days it simulated.
        assert_eq!((ws.runs(), ws.days_simulated()), (2, 42));
    }

    #[test]
    fn workspace_serves_multiple_steppers() {
        let (model, init) = model();
        let mut ws = SimWorkspace::new();
        let chain = BinomialChainStepper::daily();
        let exact = GillespieStepper::new();
        let (a, _) = ws.run(&model, &chain, &init, 10).unwrap();
        let (b, _) = ws.run(&model, &exact, &init, 10).unwrap();
        let (a2, _) = ws.run(&model, &chain, &init, 10).unwrap();
        assert_eq!(a, a2);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn compiled_cache_hits_on_matching_key_only() {
        let mut ws = SimWorkspace::new();
        let build = || CompiledSpec::new(SeirModel::new(SeirParams::default()).unwrap().spec());
        let a = ws.compiled_for(1, &[10, 20], build).unwrap();
        let b = ws.compiled_for(1, &[10, 20], build).unwrap();
        // Hit: the exact same compilation (and thus the same stamp).
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((ws.compiled_builds(), ws.compiled_reuses()), (1, 1));
        // Different key or salt: rebuilds (single-slot, last one wins).
        let c = ws.compiled_for(1, &[10, 21], build).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        let d = ws.compiled_for(2, &[10, 21], build).unwrap();
        assert!(!Arc::ptr_eq(&c, &d));
        assert_eq!((ws.compiled_builds(), ws.compiled_reuses()), (3, 1));
        // Build errors propagate and leave the slot usable.
        assert!(ws
            .compiled_for(2, &[99], || Err::<CompiledSpec, SimError>(SimError::Spec(
                "no".into()
            )))
            .is_err());
        let e = ws.compiled_for(2, &[10, 21], build).unwrap();
        assert!(Arc::ptr_eq(&d, &e));
    }

    #[test]
    fn counter_derived_reseeds_are_order_independent() {
        use epistats::rng::StreamKey;
        let (model, init) = model();
        let stepper = BinomialChainStepper::daily();
        let mut ws = SimWorkspace::new();
        let (_, ck) = ws.run(&model, &stepper, &init, 15).unwrap();
        // Per-replicate seeds derive in O(1) from a shared counter key,
        // exactly as the inference grid derives them.
        let key = StreamKey::new(42).absorb(0x5EED);
        let run_cell = |ws: &mut SimWorkspace, r: u64| {
            ws.run_from_checkpoint(&model, &stepper, &ck, key.derive(r), 40)
                .unwrap()
        };
        let forward: Vec<_> = (0..6u64).map(|r| run_cell(&mut ws, r)).collect();
        // A differently warmed workspace visiting the cells in reverse
        // order reproduces every trajectory bit for bit: the reseed
        // carries no sequential state between cells.
        let mut ws2 = SimWorkspace::new();
        ws2.run(&model, &stepper, &init, 3).unwrap();
        let mut reverse: Vec<_> = (0..6u64).rev().map(|r| run_cell(&mut ws2, r)).collect();
        reverse.reverse();
        assert_eq!(forward, reverse);
        // Distinct counters branch into distinct trajectories.
        assert!(forward.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn layout_mismatch_rejected() {
        let (model, _) = model();
        let mut ws = SimWorkspace::new();
        let bad = SimState {
            day: 0,
            time: 0.0,
            stage_counts: vec![0; 3],
            rng: Xoshiro256PlusPlus::new(1),
        };
        assert!(ws
            .run(&model, &BinomialChainStepper::daily(), &bad, 5)
            .is_err());
    }
}
