//! Heap-tracking proof that a calibration window holds the trajectories
//! and checkpoints of the cells resampling can draw, not of its whole
//! grid: a grid cell scored too far below the best its worker has seen
//! drops its payload as soon as it is scored (see `DESIGN.md`, "grid
//! payload policy"), while `keep_prior_ensemble` keeps every payload.
//!
//! The inputs: an SEIR epidemic of 200,000 people observed on days 1–45
//! (cases, sampled thinning, σ = 1), calibrated on one window, days
//! 15–40, with 1,000 θ × 6 replicates = 6,000 cells and a resample of
//! 600. The data pin θ down: resampling draws 43 distinct cells, and 211
//! of the 6,000 (3.5%) fall within the drop margin of the best log weight
//! scored before them, so only those keep a payload. The run without a
//! prior ensemble peaks at about 1.0 MB of heap against 8.4 MB with it;
//! before the payload policy both held every payload through the grid
//! and peaked at about the same.
//!
//! The test installs a global allocator, so it lives alone in its own
//! integration-test binary. Like `tests/alloc_free_stepping.rs`, the
//! tracking is gated on a thread-local flag raised only around the
//! measured call: the libtest harness owns threads whose incidental
//! allocations would otherwise land in the count. A one-worker runner
//! spawns no thread, so the whole calibration runs on the measuring
//! thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

use epismc::prelude::*;

/// Forwards to the system allocator, tracking the live heap bytes
/// allocated and freed while the current thread has the measuring flag
/// raised, and their peak.
struct TrackingAlloc;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // Const-initialized so reading it inside the allocator never
    // triggers a lazy TLS initializer (which could itself allocate).
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn track(delta: i64) {
    if MEASURING.with(Cell::get) {
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: a pure pass-through allocator — every method forwards its
// exact arguments to `System` and returns its result unchanged, so
// `System`'s implementation of the `GlobalAlloc` contract is the
// contract; the tracking touches only atomics and allocates nothing.
unsafe impl GlobalAlloc for TrackingAlloc {
    // SAFETY: forwards the caller's layout to `System.alloc` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards the caller's pointer and layout unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        // SAFETY: `ptr` was produced by the forwarded `System` calls
        // with this same layout, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwards the caller's pointer, layout, and size unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from the forwarded `System` allocator with
        // this layout, per the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: forwards the caller's layout to `System` unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        // SAFETY: the caller upholds `alloc_zeroed`'s layout contract.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// Run `f` with tracking raised; return its value and the peak of the
/// heap bytes it held live beyond what was live when it started.
fn peak_heap<T>(f: impl FnOnce() -> T) -> (T, i64) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    let out = f();
    MEASURING.with(|m| m.set(false));
    (out, PEAK.load(Ordering::Relaxed))
}

#[test]
fn the_grid_keeps_only_the_payloads_resampling_can_draw() {
    let simulator = SeirSimulator::new(SeirParams {
        population: 200_000,
        initial_exposed: 50,
        ..SeirParams::default()
    })
    .unwrap();
    let (truth, _) = simulator.run_fresh(&[0.45], 3, 45).unwrap();
    let observed = ObservedData::cases_only(truth.series_f64("infections").unwrap());
    let priors = Priors {
        theta: vec![Box::new(UniformPrior::new(0.1, 0.9))],
        rho: Box::new(BetaPrior::new(20.0, 5.0)),
    };
    let plan = WindowPlan::new(vec![TimeWindow::new(15, 40)]);
    let calibrate = |keep_prior_ensemble| {
        let config = CalibrationConfig::builder()
            .n_params(1_000)
            .n_replicates(6)
            .resample_size(600)
            .seed(11)
            .threads(1)
            .keep_prior_ensemble(keep_prior_ensemble)
            .build();
        let calibrator = SequentialCalibrator::new(
            &simulator,
            config,
            vec![JitterKernel::symmetric(0.05, 0.05, 0.95)],
            JitterKernel::asymmetric(0.05, 0.05, 0.05, 1.0),
        );
        peak_heap(|| calibrator.run(&priors, &observed, &plan).unwrap())
    };
    let (dropping, dropping_peak) = calibrate(false);
    let (keeping, keeping_peak) = calibrate(true);

    // Same posteriors either way.
    for (a, b) in dropping.windows.iter().zip(&keeping.windows) {
        assert_eq!(a.log_marginal.to_bits(), b.log_marginal.to_bits());
        assert_eq!(a.posterior.thetas(0), b.posterior.thetas(0));
    }
    // The share of each grid a one-worker pass keeps: cells within
    // `ln(cells · resample) + 28` of the best log weight scored before
    // them, in grid order.
    let margin = (6_000f64 * 600.0).ln() + 28.0;
    for w in &keeping.windows {
        let candidates = w.prior_ensemble.as_ref().unwrap().particles();
        let mut best = f64::NEG_INFINITY;
        let kept = candidates
            .iter()
            .filter(|p| {
                best = best.max(p.log_weight);
                p.log_weight >= best - margin
            })
            .count();
        let share = kept as f64 / candidates.len() as f64;
        eprintln!(
            "window {:?}: {kept} of {} cells within the margin ({share:.3}), {} distinct drawn",
            w.window,
            candidates.len(),
            w.unique_ancestors
        );
        assert!(share < 0.25, "the data keep {share:.3} of the grid");
    }
    eprintln!("peak heap: {dropping_peak} B dropping payloads, {keeping_peak} B keeping them");
    assert!(
        2 * dropping_peak < keeping_peak,
        "peak heap {dropping_peak} B is not below half of {keeping_peak} B"
    );
}
