//! Reusable simulation arenas for high-volume ensemble runs.
//!
//! The parallel inference grid in `epismc` simulates tens of thousands of
//! short trajectories per calibration window. Building a fresh
//! [`Simulation`](crate::runner::Simulation) per cell allocates a state
//! vector, a step scratch, and a day buffer every time; a [`SimWorkspace`]
//! owns those buffers once per worker thread and rehydrates them in place
//! for each run, so the steady-state cost of a replicate is the simulated
//! days themselves — **zero heap allocations per simulated day**. A run's
//! own output is its only allocation: the recorded [`DailySeries`], one
//! block sized for the run under the compilation's shared names, and the
//! returned checkpoint's stage vector.
//!
//! The workspace is pure reuse: running a trajectory through a warm
//! workspace is bit-identical to running it through a
//! [`Simulation`](crate::runner::Simulation), which is what lets the
//! parallel runner pool workspaces per worker without perturbing the
//! deterministic replay guarantees.

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
    /// Single-slot compiled-model cache: `(salt, structure key,
    /// compiled)`. See [`Self::compiled_for`].
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

    /// Return the compiled model cached under `(salt, key)` with its
    /// transmission rate set to `transmission_rate`, building (and
    /// caching) it with `build` on a miss.
    ///
    /// Compiling a fresh [`CompiledSpec`] repeats the spec build and
    /// validation, and mints a fresh [`CompiledSpec::stamp`], which
    /// invalidates the scratch's stamp-keyed hazard table. The key
    /// therefore names the model's *structure* — what the compilation
    /// derives tables from — and not the transmission rate, which the
    /// force of infection reads live: a run under a new rate keeps the
    /// compilation, its stamp and the hazard table, and only
    /// [`CompiledSpec::set_transmission_rate`] runs. A calibration whose
    /// parameter vector is the transmission rate alone compiles once per
    /// workspace, however many parameter values the grid visits.
    ///
    /// `salt` must identify the builder (so two simulators sharing a
    /// workspace can never alias) and `key` every structural parameter
    /// (e.g. raw `f64::to_bits` of each calibrated coordinate other
    /// than the transmission rate — exact equality, no float
    /// tolerance; empty when there is none). The cache is pure
    /// memoization: `build` must be deterministic in `(salt, key)`, and
    /// results are bit-identical whether the slot hits or misses. The
    /// returned `Arc` is the slot's own; setting the rate mutates it in
    /// place once the caller has dropped the previous run's handle.
    ///
    /// # Errors
    /// Propagates `build` failures, leaving the slot unchanged, and
    /// [`SimError::Spec`] for an invalid `transmission_rate`, leaving
    /// the cached compilation's rate unchanged.
    pub fn compiled_for<E: From<SimError>>(
        &mut self,
        salt: u64,
        key: &[u64],
        transmission_rate: f64,
        build: impl FnOnce() -> Result<CompiledSpec, E>,
    ) -> Result<Arc<CompiledSpec>, E> {
        let compiled = match &mut self.compiled_cache {
            Some((s, k, compiled)) if *s == salt && k.as_ref() == key => {
                self.compiled_reuses += 1;
                compiled
            }
            slot => {
                let built = Arc::new(build()?);
                self.compiled_builds += 1;
                &mut slot.insert((salt, key.into(), built)).2
            }
        };
        Arc::make_mut(compiled).set_transmission_rate(transmission_rate)?;
        Ok(Arc::clone(compiled))
    }

    /// Run a fresh trajectory from `init` until the clock reaches
    /// `end_day`, recording daily flows and censuses, and calling
    /// `on_day(day, row)` after each simulated day with the day's output
    /// row in [`ModelSpec::output_names`](crate::spec::ModelSpec::output_names)
    /// order. Returns the recorded series and an end-of-run checkpoint.
    /// A `Break` from `on_day` stops the run after that day and is
    /// returned in place of the series and checkpoint; the stopped run's
    /// days still count in [`Self::days_simulated`].
    ///
    /// # Errors
    /// Returns [`SimError::Spec`] if `init` does not match the model's
    /// stage layout.
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
    /// paper's trajectory-branching restart), running until `end_day`
    /// with a per-day callback, as in [`Self::run_with`].
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
    pub fn run_from_checkpoint_with<S: Stepper, B>(
        &mut self,
        model: &CompiledSpec,
        stepper: &S,
        ck: &SimCheckpoint,
        seed: u64,
        end_day: u32,
        on_day: impl FnMut(u32, &[u64]) -> ControlFlow<B>,
    ) -> Result<ControlFlow<B, (DailySeries, SimCheckpoint)>, SimError> {
        ck.restore_compiled_with_seed(model, &mut self.state, seed)?;
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
        // `Simulation`'s convention. The series is sized for the whole
        // run, under the compilation's shared names: one allocation.
        let mut series = DailySeries::with_day_capacity(
            Arc::clone(model.output_names()),
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
                ControlFlow::Continue((series, SimCheckpoint::capture_compiled(model, &self.state)))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BinomialChainStepper, GillespieStepper};
    use crate::runner::Simulation;
    use crate::seir::{SeirModel, SeirParams};
    use std::convert::Infallible;

    type Run = Result<(DailySeries, SimCheckpoint), SimError>;

    fn never_stop(_: u32, _: &[u64]) -> ControlFlow<Infallible> {
        ControlFlow::Continue(())
    }

    /// A fresh run to `end_day` that is never stopped.
    fn run<S: Stepper>(
        ws: &mut SimWorkspace,
        model: &CompiledSpec,
        stepper: &S,
        init: &SimState,
        end_day: u32,
    ) -> Run {
        let ControlFlow::Continue(run) = ws.run_with(model, stepper, init, end_day, never_stop)?;
        Ok(run)
    }

    /// A branched run from `ck` to `end_day` that is never stopped.
    fn branch<S: Stepper>(
        ws: &mut SimWorkspace,
        model: &CompiledSpec,
        stepper: &S,
        ck: &SimCheckpoint,
        seed: u64,
        end_day: u32,
    ) -> Run {
        let ControlFlow::Continue(run) =
            ws.run_from_checkpoint_with(model, stepper, ck, seed, end_day, never_stop)?;
        Ok(run)
    }

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
        run(&mut ws, &model, &stepper, &init, 13).unwrap();
        let (series, ck) = run(&mut ws, &model, &stepper, &init, 40).unwrap();

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
        let (_, ck) = run(&mut ws, &model, &stepper, &init, 20).unwrap();

        let mut sim =
            Simulation::resume_with_seed(model.spec.clone(), stepper.clone(), &ck, 77).unwrap();
        sim.run_until(45);

        let (series, end_ck) = branch(&mut ws, &model, &stepper, &ck, 77, 45).unwrap();
        assert_eq!(&series, sim.series());
        assert_eq!(end_ck, sim.checkpoint());
        assert_eq!(series.start_day(), 21);
    }

    #[test]
    fn day_callback_sees_every_row_and_can_stop_the_run() {
        let (model, init) = model();
        let stepper = BinomialChainStepper::daily();
        let mut ws = SimWorkspace::new();
        let (series, _) = run(&mut ws, &model, &stepper, &init, 30).unwrap();
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
        let (a, _) = run(&mut ws, &model, &chain, &init, 10).unwrap();
        let (b, _) = run(&mut ws, &model, &exact, &init, 10).unwrap();
        let (a2, _) = run(&mut ws, &model, &chain, &init, 10).unwrap();
        assert_eq!(a, a2);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn compiled_cache_keys_on_structure_and_sets_the_rate() {
        let mut ws = SimWorkspace::new();
        let build = || CompiledSpec::new(SeirModel::new(SeirParams::default()).unwrap().spec());
        let a = ws.compiled_for(1, &[10, 20], 0.3, build).unwrap();
        let (stamp, first) = (a.stamp(), Arc::as_ptr(&a));
        drop(a);
        // A new rate under the same key is a hit: the same compilation,
        // stamp and allocation, with the rate set in place.
        let b = ws.compiled_for(1, &[10, 20], 0.7, build).unwrap();
        assert_eq!((b.stamp(), Arc::as_ptr(&b)), (stamp, first));
        assert_eq!(b.spec.transmission_rate, 0.7);
        assert_eq!((ws.compiled_builds(), ws.compiled_reuses()), (1, 1));
        // While a caller still holds the slot's handle, setting a rate
        // copies on write: the held handle keeps its rate, the copy
        // keeps the stamp.
        let c = ws.compiled_for(1, &[10, 20], 0.2, build).unwrap();
        assert!(!Arc::ptr_eq(&b, &c));
        assert_eq!(
            (b.spec.transmission_rate, c.spec.transmission_rate),
            (0.7, 0.2)
        );
        assert_eq!(c.stamp(), stamp);
        // A different key or salt rebuilds (single slot, last one wins).
        let d = ws.compiled_for(1, &[10, 21], 0.2, build).unwrap();
        let e = ws.compiled_for(2, &[10, 21], 0.2, build).unwrap();
        assert!(d.stamp() != stamp && e.stamp() != d.stamp());
        assert_eq!((ws.compiled_builds(), ws.compiled_reuses()), (3, 2));
        // Build errors propagate and leave the slot usable.
        let fail = || Err::<CompiledSpec, SimError>(SimError::Spec("no".into()));
        assert!(ws.compiled_for(2, &[99], 0.2, fail).is_err());
        assert_eq!(
            ws.compiled_for(2, &[10, 21], 0.2, build).unwrap().stamp(),
            e.stamp()
        );
        // An invalid rate is a typed error that leaves the cached rate.
        for bad in [-0.1, f64::NAN, f64::INFINITY] {
            let err = ws.compiled_for(2, &[10, 21], bad, build).unwrap_err();
            assert!(matches!(err, SimError::Spec(_)), "{bad}: {err}");
        }
        let f = ws.compiled_for(2, &[10, 21], 0.5, build).unwrap();
        assert_eq!((f.stamp(), f.spec.transmission_rate), (e.stamp(), 0.5));
        assert_eq!(ws.compiled_builds(), 3);
    }

    #[test]
    fn counter_derived_reseeds_are_order_independent() {
        use epistats::rng::StreamKey;
        let (model, init) = model();
        let stepper = BinomialChainStepper::daily();
        let mut ws = SimWorkspace::new();
        let (_, ck) = run(&mut ws, &model, &stepper, &init, 15).unwrap();
        // Per-replicate seeds derive in O(1) from a shared counter key,
        // exactly as the inference grid derives them.
        let key = StreamKey::new(42).absorb(0x5EED);
        let run_cell = |ws: &mut SimWorkspace, r: u64| {
            branch(ws, &model, &stepper, &ck, key.derive(r), 40).unwrap()
        };
        let forward: Vec<_> = (0..6u64).map(|r| run_cell(&mut ws, r)).collect();
        // A differently warmed workspace visiting the cells in reverse
        // order reproduces every trajectory bit for bit: the reseed
        // carries no sequential state between cells.
        let mut ws2 = SimWorkspace::new();
        run(&mut ws2, &model, &stepper, &init, 3).unwrap();
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
        assert!(run(&mut ws, &model, &BinomialChainStepper::daily(), &bad, 5).is_err());
    }
}
