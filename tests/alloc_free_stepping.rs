//! Counting-allocator proof of the hot-path overhaul's core claim: after
//! a warmup day has sized the [`StepScratch`] buffers and hazard tables,
//! `advance_day` performs **zero heap allocations per simulated day** for
//! every stepper, and once a [`ScoreScratch`] is warm, scoring a window
//! against two data sources allocates nothing per call, reporting-delayed
//! cases included. This is what makes per-worker workspace pooling pay
//! off — the steady-state cost of a grid cell is arithmetic, not malloc.
//! A warm adapter run on a new transmission rate also allocates exactly
//! as often as one on the rate it ran last: the rate is a per-run value,
//! so no model is rebuilt per parameter value. And a warm run allocates
//! only its output, whatever its length: a continued run makes exactly
//! two allocating calls (the recorded series' one block and the end
//! checkpoint's stage vector), a fresh run at most one more (its initial
//! state).
//!
//! The test installs a global counting allocator, so it lives alone in
//! its own integration-test binary. The counter is additionally gated on
//! a thread-local "measuring" flag set only around the measured loops:
//! even with a single `#[test]`, the libtest harness itself owns threads
//! (output capture, progress printing) whose incidental allocations would
//! otherwise land in the counted window and flake the zero assertion.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use epismc::prelude::*;
use epismc::sim::engine::{CompiledSpec, StepScratch};
use epismc::sim::workspace::SimWorkspace;
use epismc::sim::SimState;

/// Forwards to the system allocator, counting every allocating call
/// (alloc, alloc_zeroed, and growth via realloc) made while the current
/// thread has the measuring flag raised.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialized so reading it inside the allocator never
    // triggers a lazy TLS initializer (which could itself allocate).
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count_if_measuring() {
    MEASURING.with(|m| {
        if m.get() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
    });
}

// SAFETY: a pure pass-through allocator — every method forwards its
// exact arguments to `System` and returns its result unchanged, so
// `System`'s implementation of the `GlobalAlloc` contract is the
// contract; the counter increment allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards the caller's layout to `System.alloc` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_measuring();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards the caller's pointer and layout unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by the forwarded `System` calls
        // above with this same layout, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwards the caller's pointer, layout, and size unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_measuring();
        // SAFETY: `ptr` came from the forwarded `System` allocator with
        // this layout, per the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: forwards the caller's layout to `System` unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_measuring();
        // SAFETY: the caller upholds `alloc_zeroed`'s layout contract.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Drive `stepper` for `days` days against pre-sized buffers and return
/// the number of allocating calls the loop made.
fn allocs_over_days<S: Stepper + ?Sized>(
    model: &CompiledSpec,
    stepper: &S,
    state: &mut SimState,
    flows: &mut [u64],
    scratch: &mut StepScratch,
    days: u32,
) -> u64 {
    let before = allocs();
    MEASURING.with(|m| m.set(true));
    for _ in 0..days {
        flows.iter_mut().for_each(|f| *f = 0);
        stepper.advance_day(model, state, flows, scratch);
    }
    MEASURING.with(|m| m.set(false));
    allocs() - before
}

/// Score `calls` warm two-source windows and return the number of
/// allocating calls the scoring made.
fn allocs_over_scores(
    trajectory: &SharedTrajectory,
    observed: &ObservedData,
    prepared: &PreparedObserved,
    scratch: &mut ScoreScratch,
    calls: u64,
) -> u64 {
    let before = allocs();
    MEASURING.with(|m| m.set(true));
    for seed in 0..calls {
        let score = score_window(trajectory, 0.7, seed, observed, prepared, scratch);
        std::hint::black_box(score.is_ok());
    }
    MEASURING.with(|m| m.set(false));
    allocs() - before
}

/// Run one warm adapter simulation at `theta` to `end_day` (fresh from
/// day 0, or continuing `origin`) and return the number of allocating
/// calls it made; the run's own output (series, checkpoint, initial
/// state) is part of the count.
fn allocs_over_run(
    sim: &CovidSimulator,
    ws: &mut SimWorkspace,
    origin: Option<&SimCheckpoint>,
    theta: f64,
    end_day: u32,
) -> u64 {
    let before = allocs();
    MEASURING.with(|m| m.set(true));
    let run = match origin {
        None => sim.run_fresh_in(ws, &[theta], 7, end_day),
        Some(ck) => sim.run_from_in(ws, ck, &[theta], 7, end_day),
    };
    MEASURING.with(|m| m.set(false));
    assert!(run.is_ok(), "warm run at theta {theta}");
    allocs() - before
}

#[test]
fn advance_day_is_allocation_free_after_warmup() {
    let m = CovidModel::new(CovidParams {
        population: 200_000,
        initial_exposed: 200,
        ..CovidParams::default()
    })
    .unwrap();
    let model = CompiledSpec::new(m.spec()).unwrap();
    let n_flows = model.spec.flows.len();

    let steppers: Vec<(&str, Box<dyn Stepper>)> = vec![
        ("binomial-chain", Box::new(BinomialChainStepper::daily())),
        (
            "binomial-chain-substeps",
            Box::new(BinomialChainStepper::try_with_substeps(4).unwrap()),
        ),
        ("gillespie", Box::new(GillespieStepper::new())),
    ];

    for (name, stepper) in steppers {
        let mut state = m.initial_state(4242);
        let mut flows = vec![0u64; n_flows];
        let mut scratch = StepScratch::new();

        // Warmup: the first days size the delta/channel buffers, build
        // the hazard table for this (params, substeps) key, and cache the
        // per-progression binomial sampler setups.
        allocs_over_days(
            &model,
            stepper.as_ref(),
            &mut state,
            &mut flows,
            &mut scratch,
            5,
        );

        // Steady state: 50 further days must not allocate at all.
        let during = allocs_over_days(
            &model,
            stepper.as_ref(),
            &mut state,
            &mut flows,
            &mut scratch,
            50,
        );
        assert_eq!(
            during, 0,
            "{name}: {during} allocating calls over 50 post-warmup days"
        );
        assert!(state.day >= 55, "{name}: clock did not advance");
    }

    // Warm window scoring, cases (sampled binomial bias) plus deaths: the
    // second source is where a per-call term buffer would show up. The
    // counter is process-global, so this runs inside the same #[test].
    let mut series = DailySeries::new(vec!["infections".into(), "deaths".into()], 1);
    for day in 0..40u64 {
        series.push_day(&[200 + 9 * day, day / 4]);
    }
    let trajectory = SharedTrajectory::root(series);
    let observed = ObservedData::cases_and_deaths(
        (0..40).map(|d| 150.0 + 5.0 * d as f64).collect(),
        (0..40).map(|d| (d / 5) as f64).collect(),
    );
    let window = TimeWindow::new(10, 33);
    let prepared = PreparedObserved::build(&observed, window).unwrap();
    let mut scratch = ScoreScratch::new();
    allocs_over_scores(&trajectory, &observed, &prepared, &mut scratch, 2);
    let during = allocs_over_scores(&trajectory, &observed, &prepared, &mut scratch, 100);
    assert_eq!(scratch.fused_scores(), 2 * 102, "both sources must fuse");
    assert_eq!(
        during, 0,
        "score_window: {during} allocating calls over 100 warm two-source calls"
    );

    // The same with reporting-delayed cases: the delay queue lives in the
    // scratch, so once it has grown to the pmf length a warm call still
    // allocates nothing.
    let mut observed = observed;
    observed.sources[0].bias =
        std::sync::Arc::new(DelayedBinomialBias::geometric(BiasMode::Sampled, 2.0, 6));
    let prepared = PreparedObserved::build(&observed, window).unwrap();
    let mut scratch = ScoreScratch::new();
    allocs_over_scores(&trajectory, &observed, &prepared, &mut scratch, 2);
    let during = allocs_over_scores(&trajectory, &observed, &prepared, &mut scratch, 100);
    assert_eq!(scratch.fused_scores(), 2 * 102, "delayed source must fuse");
    assert_eq!(
        during, 0,
        "score_window: {during} allocating calls over 100 warm delayed-source calls"
    );

    // A warm adapter run on a new transmission rate allocates exactly as
    // often as one on the rate the workspace ran last, fresh or
    // continued: the new rate keeps the compiled model, its stamp and the
    // hazard table.
    let sim = CovidSimulator::new(CovidParams {
        population: 200_000,
        initial_exposed: 200,
        ..CovidParams::default()
    })
    .unwrap();
    let mut ws = SimWorkspace::new();
    let (_, ck) = sim.run_fresh_in(&mut ws, &[0.3], 1, 12).unwrap();
    for (origin, end_day) in [(None, 12), (Some(&ck), 24)] {
        allocs_over_run(&sim, &mut ws, origin, 0.3, end_day);
        let same = allocs_over_run(&sim, &mut ws, origin, 0.3, end_day);
        let new = allocs_over_run(&sim, &mut ws, origin, 0.41, end_day);
        let again = allocs_over_run(&sim, &mut ws, origin, 0.27, end_day);
        let fresh = origin.is_none();
        assert!(same > 0, "fresh {fresh}: the run's output is counted");
        assert_eq!(
            (new, again),
            (same, same),
            "fresh {fresh}: allocating calls on new rates vs the same rate"
        );
    }
    assert_eq!(ws.compiled_builds(), 1);

    // A warm run allocates its output and nothing else, however many
    // days it records: the series is one block sized for the run under
    // the compilation's shared names, and the checkpoint reads the layout
    // hash compiled with the model.
    for days in [1, 12, 24] {
        let continued = allocs_over_run(&sim, &mut ws, Some(&ck), 0.35, ck.day + days);
        assert_eq!(
            continued, 2,
            "a continued {days}-day run: series block and checkpoint only"
        );
        let fresh = allocs_over_run(&sim, &mut ws, None, 0.35, days);
        assert!(
            (1..=3).contains(&fresh),
            "a fresh {days}-day run made {fresh} allocating calls (at most initial state, series block and checkpoint)"
        );
    }
}
