//! Rayon-parallel ensemble execution with deterministic stream layout.
//!
//! The inner loop of every calibration window is an embarrassingly
//! parallel grid of `(parameter tuple, replicate)` simulations — this is
//! the concurrency the paper leans on HPC for (Section I). Two properties
//! matter beyond raw speed:
//!
//! 1. **Determinism**: results are identical for any thread count. Work
//!    items carry their grid coordinates, RNG streams derive from
//!    `(master seed, coordinates)`, and collection preserves grid order.
//! 2. **Common random numbers** (Section V-B): the simulation seed of
//!    replicate `r` is shared across parameter tuples, so parameter
//!    comparisons are not confounded by Monte Carlo noise.

use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Parallel grid executor.
///
/// A runner with a pinned thread count owns its dedicated pool: the pool
/// is built **once**, at construction, and reused by every
/// [`Self::run_grid`] call. Construct one runner per calibration run and
/// pass it down — not one per window batch.
#[derive(Clone, Debug, Default)]
pub struct ParallelRunner {
    threads: Option<usize>,
    pool: Option<Arc<rayon::ThreadPool>>,
    build_charge: Arc<AtomicBool>,
}

impl ParallelRunner {
    /// Use rayon's global default pool.
    pub fn new() -> Self {
        Self {
            threads: None,
            pool: None,
            build_charge: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Use a dedicated pool with exactly `threads` workers (the knob the
    /// scaling benchmark sweeps). The pool is built here, once.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "ParallelRunner: threads must be >= 1");
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            // epilint: allow(panic-unwrap) — pool construction fails only on OS thread exhaustion; documented panic
            .expect("failed to build rayon pool");
        Self {
            threads: Some(threads),
            pool: Some(Arc::new(pool)),
            build_charge: Arc::new(AtomicBool::new(true)),
        }
    }

    /// A runner for an optional thread count: dedicated pool when
    /// `Some`, rayon's default pool when `None` (the
    /// [`crate::config::CalibrationConfig::threads`] convention).
    pub fn from_option(threads: Option<usize>) -> Self {
        match threads {
            Some(t) => Self::with_threads(t),
            None => Self::new(),
        }
    }

    /// Configured thread count (`None` = rayon default).
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// Consume this runner's one-time pool-build charge: returns `1` the
    /// first time it is called on a runner (or any of its clones) that
    /// built a dedicated pool, `0` afterwards and for default-pool
    /// runners. Lets telemetry attribute the build to the first batch
    /// that uses the pool instead of re-charging every window.
    pub fn take_build_charge(&self) -> usize {
        usize::from(self.build_charge.swap(false, Ordering::Relaxed))
    }

    /// Effective worker count for grid runs.
    fn workers(&self) -> usize {
        self.threads.unwrap_or_else(rayon::current_num_threads)
    }

    /// Scheduling chunk size (in cells) a grid of `total` cells runs
    /// with: several chunks per worker, clamped so the atomic claim
    /// amortizes. Results are bit-identical for every chunk size.
    fn chunk_size(&self, total: usize) -> usize {
        rayon::adaptive_chunk(total, self.workers())
    }

    /// Number of scheduling chunks a grid of `total` cells splits into
    /// (telemetry: `grid_chunks`).
    pub fn chunk_count(&self, total: usize) -> usize {
        total.div_ceil(self.chunk_size(total).max(1))
    }

    /// Evaluate `f(i, r)` for every cell of the `n_params x n_replicates`
    /// grid in parallel; the result vector is laid out row-major
    /// (`result[i * n_replicates + r]`), independent of scheduling.
    pub fn run_grid<T, F>(&self, n_params: usize, n_replicates: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, usize) -> T + Send + Sync,
    {
        let total = n_params * n_replicates;
        let work = |_: &F| -> Vec<T> {
            (0..total)
                .into_par_iter()
                .map(|idx| f(idx / n_replicates, idx % n_replicates))
                .collect()
        };
        match &self.pool {
            None => work(&f),
            Some(pool) => pool.install(|| work(&f)),
        }
    }

    /// Evaluate `f(i)` for `i in 0..n` in parallel, order-preserving.
    pub fn run_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Send + Sync,
    {
        self.run_grid(n, 1, move |i, _| f(i))
    }

    /// Like [`Self::run_grid`], but with a per-worker workspace built by
    /// `make_ws` and threaded through every cell that worker executes.
    ///
    /// Work is scheduled over the **flattened cell grid**: workers claim
    /// fixed-size blocks of `(param, replicate)` cells from a shared
    /// cursor (`cells / (workers × 8)` of them, clamped), so a straggler cell
    /// delays only its own chunk instead of a statically assigned slice
    /// of rows. Each cell writes into its row-major slot
    /// (`result[i * n_replicates + r]`) of a preallocated slab, so the
    /// result layout matches `run_grid` and — because the workspace is
    /// pure scratch and each cell's result depends only on `(i, r)` —
    /// results are bit-identical for any thread count or chunk size.
    pub fn run_grid_pooled<W, T, MK, F>(
        &self,
        n_params: usize,
        n_replicates: usize,
        make_ws: MK,
        f: F,
    ) -> Vec<T>
    where
        W: Send,
        T: Send,
        MK: Fn() -> W + Send + Sync,
        F: Fn(&mut W, usize, usize) -> T + Send + Sync,
    {
        let total = n_params * n_replicates;
        let chunk = self.chunk_size(total);
        let work = || -> Vec<T> {
            (0..total)
                .into_par_iter()
                .with_min_len(chunk)
                .map_init(&make_ws, |ws, idx| {
                    f(ws, idx / n_replicates, idx % n_replicates)
                })
                .collect()
        };
        match &self.pool {
            None => work(),
            Some(pool) => pool.install(work),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn grid_layout_is_row_major() {
        let runner = ParallelRunner::new();
        let out = runner.run_grid(3, 4, |i, r| (i, r));
        assert_eq!(out.len(), 12);
        assert_eq!(out[0], (0, 0));
        assert_eq!(out[5], (1, 1));
        assert_eq!(out[11], (2, 3));
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let f = |i: usize, r: usize| {
            let mut rng = epistats::rng::Xoshiro256PlusPlus::from_stream(99, &[i as u64, r as u64]);
            rng.next()
        };
        let serial = ParallelRunner::with_threads(1).run_grid(8, 8, f);
        let par = ParallelRunner::with_threads(4).run_grid(8, 8, f);
        let default = ParallelRunner::new().run_grid(8, 8, f);
        assert_eq!(serial, par);
        assert_eq!(serial, default);
    }

    #[test]
    fn every_cell_executes_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = ParallelRunner::new().run_grid(10, 7, |_, _| {
            counter.fetch_add(1, Ordering::Relaxed);
            1u8
        });
        assert_eq!(out.len(), 70);
        assert_eq!(counter.load(Ordering::Relaxed), 70);
    }

    #[test]
    fn dedicated_pool_actually_limits_parallelism() {
        // With 1 thread, max concurrent executions must be 1.
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        ParallelRunner::with_threads(1).run_grid(16, 1, |_, _| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert_eq!(peak.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pool_is_built_once_per_runner() {
        let runner = ParallelRunner::with_threads(2);
        let built = runner.pool.as_ref().map(Arc::as_ptr);
        assert!(built.is_some(), "dedicated runner pre-builds its pool");
        for _ in 0..5 {
            let out = runner.run_grid(4, 2, |i, r| i * 10 + r);
            assert_eq!(out.len(), 8);
        }
        // Repeated grids and clones reuse the very same pool allocation.
        assert_eq!(runner.pool.as_ref().map(Arc::as_ptr), built);
        let clone = runner.clone();
        assert_eq!(clone.pool.as_ref().map(Arc::as_ptr), built);
        // Default-pool runners never build a dedicated pool.
        assert!(ParallelRunner::new().pool.is_none());
        assert!(ParallelRunner::from_option(None).pool.is_none());
        assert_eq!(ParallelRunner::from_option(Some(3)).threads(), Some(3));
    }

    #[test]
    fn pooled_grid_matches_plain_grid_across_thread_counts() {
        let f = |i: usize, r: usize| {
            let mut rng = epistats::rng::Xoshiro256PlusPlus::from_stream(7, &[i as u64, r as u64]);
            rng.next()
        };
        let plain = ParallelRunner::with_threads(1).run_grid(9, 5, f);
        for threads in [1usize, 3, 8] {
            let pooled = ParallelRunner::with_threads(threads).run_grid_pooled(
                9,
                5,
                Vec::<u64>::new,
                |ws, i, r| {
                    // The workspace is scratch: abuse it as a call log to
                    // prove reuse, but derive results only from (i, r).
                    ws.push(i as u64);
                    f(i, r)
                },
            );
            assert_eq!(plain, pooled, "threads = {threads}");
        }
    }

    #[test]
    fn pooled_grid_builds_one_workspace_per_worker() {
        let built = AtomicUsize::new(0);
        let out = ParallelRunner::with_threads(2).run_grid_pooled(
            10,
            3,
            || {
                built.fetch_add(1, Ordering::Relaxed);
            },
            |(), i, r| i * 3 + r,
        );
        assert_eq!(out.len(), 30);
        assert_eq!(out[7], 2 * 3 + 1);
        let n = built.load(Ordering::Relaxed);
        assert!(n <= 2, "expected at most one workspace per worker, got {n}");
    }

    #[test]
    fn pooled_grid_identical_across_chunk_sizes() {
        let f = |i: usize, r: usize| {
            let mut rng = epistats::rng::Xoshiro256PlusPlus::from_stream(13, &[i as u64, r as u64]);
            rng.next()
        };
        // One worker claims 3-cell chunks that straddle the 5-cell rows;
        // two and four claim one cell at a time.
        assert_eq!(ParallelRunner::with_threads(1).chunk_size(30), 3);
        assert_eq!(ParallelRunner::with_threads(4).chunk_size(30), 1);
        let baseline = ParallelRunner::with_threads(1).run_grid(6, 5, f);
        for threads in [1usize, 2, 4] {
            let got = ParallelRunner::with_threads(threads).run_grid_pooled(
                6,
                5,
                || (),
                |(), i, r| f(i, r),
            );
            assert_eq!(baseline, got, "threads = {threads}");
        }
    }

    #[test]
    fn build_charge_taken_once() {
        let runner = ParallelRunner::with_threads(2);
        assert_eq!(runner.take_build_charge(), 1);
        assert_eq!(runner.take_build_charge(), 0);
        // Clones share the charge: a calibration that clones its runner
        // still reports the build exactly once.
        let charged = ParallelRunner::with_threads(2);
        let clone = charged.clone();
        assert_eq!(clone.take_build_charge(), 1);
        assert_eq!(charged.take_build_charge(), 0);
        // Default-pool runners never carry a charge.
        assert_eq!(ParallelRunner::new().take_build_charge(), 0);
    }

    #[test]
    fn chunk_helpers_follow_the_adaptive_policy() {
        let runner = ParallelRunner::with_threads(2);
        assert_eq!(runner.chunk_size(100), 6);
        assert_eq!(runner.chunk_count(100), 17);
        // Always at least one cell per chunk.
        assert_eq!(runner.chunk_size(3), 1);
        assert!(runner.chunk_count(0) <= 1);
    }

    #[test]
    fn run_indexed_convenience() {
        let out = ParallelRunner::new().run_indexed(5, |i| i * i);
        assert_eq!(out, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        ParallelRunner::with_threads(0);
    }
}
