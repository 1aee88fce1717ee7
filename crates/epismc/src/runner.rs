//! Parallel ensemble execution with deterministic stream layout.
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
//!
//! Every grid runs one way: on the runner's persistent worker pool.
//! Scheduling is *dynamic* — workers claim fixed-size chunks of the cell
//! range from a shared atomic cursor, so a slow cell delays only its own
//! chunk — and each result is written directly into its cell's slot of
//! a preallocated output slab, so collection order is grid order by
//! construction, for any worker count or chunk size. The workers are
//! spawned once, when the runner is built, and each grid is broadcast to
//! them over a condvar: the per-grid serial cost is one mutex hand-off,
//! not a thread spawn and join per worker.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

use crate::error::SmcError;

/// Parallel grid executor over a persistent worker pool.
///
/// The pool is built **once**, by [`Self::new`], and every grid call
/// broadcasts to the same resident workers; clones share them, and the
/// last clone to drop joins them. Construct one runner per calibration
/// run and pass it down — not one per window batch. A one-worker runner
/// spawns no thread and runs every grid on the calling thread, and a
/// grid of at most one cell always runs inline.
///
/// A cell must not call back into the runner that is running it: the
/// inner call would wait for the job slot its own grid holds, forever.
/// Cells call simulators and scorers only.
#[derive(Clone)]
pub struct ParallelRunner {
    pool: Arc<Pool>,
    build_charge: Arc<AtomicBool>,
}

impl fmt::Debug for ParallelRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParallelRunner")
            .field("workers", &self.pool.workers)
            .finish()
    }
}

impl ParallelRunner {
    /// Build a runner and its pool: `threads` workers, or the process
    /// default when `None` (`RAYON_NUM_THREADS` when set to a positive
    /// integer, else the core count; read once per process). This is
    /// the [`crate::config::CalibrationConfig::threads`] convention.
    ///
    /// # Errors
    /// [`SmcError::Config`] for `Some(0)`, or when the operating system
    /// refuses to spawn a worker thread.
    pub fn new(threads: Option<usize>) -> Result<Self, SmcError> {
        let workers = match threads {
            Some(0) => {
                return Err(SmcError::Config(
                    "ParallelRunner: threads must be >= 1".into(),
                ))
            }
            Some(n) => n,
            None => default_threads(),
        };
        Ok(Self {
            pool: Arc::new(Pool::new(workers)?),
            build_charge: Arc::new(AtomicBool::new(true)),
        })
    }

    /// Consume this runner's one-time pool-build charge: returns `1` the
    /// first time it is called on a runner (or any of its clones), `0`
    /// afterwards. Lets telemetry attribute the build to the first
    /// batch that uses the pool instead of re-charging every window.
    pub fn take_build_charge(&self) -> usize {
        // ORDER: `Relaxed` suffices: the swap's RMW atomicity alone
        // hands the `true` to exactly one caller, and the flag publishes
        // no other data.
        usize::from(self.build_charge.swap(false, Ordering::Relaxed))
    }

    /// Scheduling chunk size (in cells) a grid of `total` cells runs
    /// with: several chunks per worker, clamped so the atomic claim
    /// amortizes. Results are bit-identical for every chunk size.
    fn chunk_size(&self, total: usize) -> usize {
        adaptive_chunk(total, self.pool.workers)
    }

    /// Number of scheduling chunks a grid of `total` cells splits into
    /// (telemetry: `grid_chunks`).
    pub fn chunk_count(&self, total: usize) -> usize {
        total.div_ceil(self.chunk_size(total))
    }

    /// Evaluate `f(i)` for `i in 0..n` in parallel, order-preserving.
    pub fn run_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Send + Sync,
    {
        self.pool
            .run_dynamic(n, self.chunk_size(n), &|| (), &|(), i| f(i))
    }

    /// Evaluate `f(ws, i, r)` for every cell of the `n_params x
    /// n_replicates` grid in parallel, with a per-worker workspace built
    /// by `make_ws` and threaded through every cell that worker executes.
    ///
    /// Work is scheduled over the **flattened cell grid**: workers claim
    /// fixed-size blocks of `(param, replicate)` cells from a shared
    /// cursor (`cells / (workers × 8)` of them, clamped), so a straggler
    /// cell delays only its own chunk instead of a statically assigned
    /// slice of rows. Each cell writes into its row-major slot
    /// (`result[i * n_replicates + r]`) of a preallocated slab, so —
    /// because the workspace is pure scratch and each cell's result
    /// depends only on `(i, r)` — results are bit-identical for any
    /// thread count or chunk size. Each workspace is dropped on its
    /// worker before this call returns.
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
        self.pool
            .run_dynamic(total, self.chunk_size(total), &make_ws, &|ws, idx| {
                f(ws, idx / n_replicates, idx % n_replicates)
            })
    }
}

/// The process default worker count: `RAYON_NUM_THREADS` when it holds a
/// positive integer (the name CI and users already set), else the core
/// count. Read once per process.
fn default_threads() -> usize {
    static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();
    *DEFAULT_THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Default chunk size for `n` items over `workers` workers: small enough
/// that stragglers rebalance (several chunks per worker), large enough
/// that the atomic claim is amortized across many items.
///
/// The upper clamp matters at paper-scale grids: a 500k-cell window
/// under the old `1024` cap split into ~490 chunks *regardless of the
/// worker count*, so per-chunk bookkeeping (cursor claim, state
/// re-entry) dominated cheap cells. `8192` keeps tens of chunks per
/// worker at that scale — enough for stragglers to rebalance, two
/// orders of magnitude fewer claims.
fn adaptive_chunk(n: usize, workers: usize) -> usize {
    (n / (workers.max(1) * 8)).clamp(1, 8192)
}

/// A runner's workers: none for a one-worker runner, else `workers`
/// resident threads sleeping on [`PoolShared::work`] between grids.
/// Dropping the pool shuts them down and joins them.
struct Pool {
    workers: usize,
    shared: Option<Arc<PoolShared>>,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawn the workers — the only place pool threads are spawned. A
    /// spawn failure drops the partly built pool, which joins the
    /// workers already running.
    fn new(workers: usize) -> Result<Self, SmcError> {
        let mut pool = Self {
            workers,
            shared: None,
            handles: Vec::new(),
        };
        if workers >= 2 {
            let shared = Arc::new(PoolShared::new(workers));
            pool.shared = Some(Arc::clone(&shared));
            for _ in 0..workers {
                let shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .spawn(move || worker_loop(&shared))
                    .map_err(|e| {
                        SmcError::Config(format!("ParallelRunner: cannot spawn a worker: {e}"))
                    })?;
                pool.handles.push(handle);
            }
        }
        Ok(pool)
    }

    /// Dynamic-chunk execution: workers claim `chunk`-sized index blocks
    /// from a shared cursor and write each result into its slot of a
    /// preallocated slab. Output order is index order by construction.
    ///
    /// The claim loop is broadcast to the resident workers (one condvar
    /// hand-off); without workers, or for at most one item, it runs
    /// inline on the caller with one `init` state. Each worker builds
    /// its `init` state lazily on its first claimed chunk — workers
    /// beyond the grid's needs find the cursor exhausted and build none —
    /// and drops it on the worker before its completion is reported, so
    /// before this call returns.
    ///
    /// Panic safety: a worker panic is re-raised on the calling thread
    /// (from the payload `broadcast` captured) before `set_len`, so the
    /// slab is dropped with length zero — already-written elements leak
    /// (no drops run) but no uninitialized memory is ever read.
    fn run_dynamic<I, T, INIT, F>(&self, n: usize, chunk: usize, init: &INIT, f: &F) -> Vec<T>
    where
        T: Send,
        INIT: Fn() -> I + Sync,
        F: Fn(&mut I, usize) -> T + Sync,
    {
        let shared = match &self.shared {
            Some(shared) if n > 1 => shared,
            _ => {
                let mut state = init();
                return (0..n).map(|i| f(&mut state, i)).collect();
            }
        };
        let chunk = chunk.max(1);
        let mut out: Vec<T> = Vec::with_capacity(n);
        let slab = SlabPtr(out.as_mut_ptr());
        let cursor = AtomicUsize::new(0);
        // The claim loop every worker runs. It borrows the slab, cursor,
        // `init` and `f` on this stack frame; `broadcast` blocks until
        // every worker finished, keeping those borrows alive throughout.
        let body = || {
            let mut state: Option<I> = None;
            loop {
                // ORDER: `Relaxed` is sufficient here. Claim uniqueness —
                // each index handed to exactly one worker — needs only
                // the RMW atomicity of `fetch_add`, which every ordering
                // provides; no data is published *through* the cursor.
                // The slab writes made under a claim are published to
                // the caller by the worker's final `state` mutex release
                // in `worker_loop`, which happens-before the submitter's
                // wakeup under the same mutex in `broadcast`, and so
                // before `set_len` below. The interleaving model
                // (tests/pool_model.rs) checks the drain-before-return
                // protocol; tests/pool_lifecycle.rs pins claim
                // uniqueness under chunk=1 contention.
                let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
                if lo >= n {
                    break;
                }
                let state = state.get_or_insert_with(init);
                for i in lo..(lo + chunk).min(n) {
                    let value = f(state, i);
                    // SAFETY: `i < n` and the cursor hands each index to
                    // exactly one worker.
                    unsafe { slab.write(i, value) };
                }
            }
        };
        if let Some(payload) = shared.broadcast(make_job(&body)) {
            resume_unwind(payload);
        }
        // SAFETY: every worker finished without panicking, so all n slots
        // were initialized exactly once.
        unsafe { out.set_len(n) };
        out
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            shared.lock().shutdown = true;
            shared.work.notify_all();
            for handle in self.handles.drain(..) {
                let _ = handle.join();
            }
        }
    }
}

/// A type-erased borrow of a submitter's worker closure: a monomorphized
/// trampoline plus the closure's address. Only dereferenced while the
/// submitting call blocks inside [`PoolShared::broadcast`], which keeps
/// the closure alive for the whole execution.
#[derive(Clone, Copy)]
struct Job {
    /// Monomorphized trampoline reconstituting the worker closure.
    // SAFETY: only invoked by `worker_loop` with the `ctx` stored next
    // to it, which the submitter's `broadcast` call keeps alive (it
    // blocks until every worker reports completion).
    run: unsafe fn(usize),
    ctx: usize,
}

/// Monomorphized trampoline reconstituting the worker closure from its
/// erased address.
///
/// # Safety
/// `ctx` must be the address of a live `W` for the duration of the call.
unsafe fn run_erased<W: Fn() + Sync>(ctx: usize) {
    (*(ctx as *const W))();
}

/// Erase `body` into a [`Job`]. The caller must keep `body` alive until
/// the job has fully drained (guaranteed by blocking in `broadcast`).
fn make_job<W: Fn() + Sync>(body: &W) -> Job {
    Job {
        run: run_erased::<W>,
        ctx: std::ptr::from_ref(body) as usize,
    }
}

struct PoolState {
    /// The job every worker runs for the current epoch; `Some` from
    /// submission until the submitter observes completion.
    job: Option<Job>,
    /// Bumped once per broadcast; workers compare against their last
    /// seen value so a job runs exactly once per worker.
    epoch: u64,
    /// Workers still executing the current job.
    running: usize,
    /// First panic payload observed this epoch (re-raised on the
    /// submitting thread).
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

/// Shared state between a persistent pool's workers and submitters.
struct PoolShared {
    workers: usize,
    state: Mutex<PoolState>,
    /// Signals workers: a new epoch was published or shutdown requested.
    work: Condvar,
    /// Signals submitters: the current job drained (or the slot freed).
    done: Condvar,
}

/// Wait on `cv`, recovering a poisoned guard as [`PoolShared::lock`]
/// does.
fn wait<'a>(cv: &Condvar, guard: MutexGuard<'a, PoolState>) -> MutexGuard<'a, PoolState> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

impl PoolShared {
    fn new(workers: usize) -> Self {
        Self {
            workers,
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                running: 0,
                panic: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        }
    }

    /// Lock the pool state. Nothing panics while holding the lock —
    /// cells run outside it, under `catch_unwind` — so it is never
    /// poisoned; were it, every update it guards is complete, and the
    /// guard is recovered rather than propagated as a panic.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run `job` on every pool worker and block until all finish.
    /// Concurrent submitters queue on the `job` slot. Returns the first
    /// panic payload, if any worker panicked.
    fn broadcast(&self, job: Job) -> Option<Box<dyn Any + Send>> {
        let mut st = self.lock();
        while st.job.is_some() {
            st = wait(&self.done, st);
        }
        st.job = Some(job);
        st.epoch = st.epoch.wrapping_add(1);
        st.running = self.workers;
        self.work.notify_all();
        while st.running > 0 {
            st = wait(&self.done, st);
        }
        st.job = None;
        let panic = st.panic.take();
        drop(st);
        // Free the job slot for any queued submitter.
        self.done.notify_all();
        panic
    }
}

/// Body of each persistent worker thread: sleep on the condvar, run one
/// job per epoch, report completion, repeat until shutdown.
fn worker_loop(shared: &PoolShared) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    return;
                }
                // A new epoch is only published together with its job
                // (the interleaving model checks this on every reachable
                // state), so an unseen epoch always finds one.
                match st.job {
                    Some(job) if st.epoch != seen => {
                        seen = st.epoch;
                        break job;
                    }
                    _ => st = wait(&shared.work, st),
                }
            }
        };
        // Catch so a panicking grid cell poisons neither the worker nor
        // the pool: the payload is re-raised on the submitting thread.
        // SAFETY: `job.ctx` is the address of the submitter's closure;
        // the submitter blocks inside `broadcast` until this worker's
        // `running` decrement below, so the closure outlives this call.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (job.run)(job.ctx) }));
        let mut st = shared.lock();
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.running -= 1;
        if st.running == 0 {
            shared.done.notify_all();
        }
    }
}

/// Raw pointer into the output slab, shareable across pool workers.
/// Soundness: every index in `0..n` is claimed by exactly one worker
/// (the atomic cursor hands out disjoint chunks), so no slot is written
/// twice and no two workers alias a slot.
struct SlabPtr<T>(*mut T);

// SAFETY: a `SlabPtr` is a plain pointer into a `Vec<T>` allocation that
// outlives the workers (the submitting frame owns it); moving the
// pointer to a worker thread moves no `T`, and the values written
// through it are `T: Send`.
unsafe impl<T: Send> Send for SlabPtr<T> {}
// SAFETY: shared use is write-only through `SlabPtr::write` at indices
// handed out uniquely by the atomic claim cursor — no two workers ever
// alias one slot, and nothing reads a slot before the join (see
// `run_dynamic`'s panic-safety note for the unwritten-slot case).
unsafe impl<T: Send> Sync for SlabPtr<T> {}

impl<T> SlabPtr<T> {
    /// Write `value` into slot `i`.
    ///
    /// # Safety
    /// `i` must be in bounds of the allocation and written at most once.
    unsafe fn write(&self, i: usize, value: T) {
        self.0.add(i).write(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    fn runner(threads: usize) -> ParallelRunner {
        ParallelRunner::new(Some(threads)).unwrap()
    }

    fn cell_hash(seed: u64) -> impl Fn(usize, usize) -> u64 + Copy {
        move |i, r| {
            epistats::rng::Xoshiro256PlusPlus::from_stream(seed, &[i as u64, r as u64]).next()
        }
    }

    /// Row-major reference for an `n_params x n_replicates` grid.
    fn serial<T>(n_params: usize, n_replicates: usize, f: impl Fn(usize, usize) -> T) -> Vec<T> {
        (0..n_params * n_replicates)
            .map(|idx| f(idx / n_replicates, idx % n_replicates))
            .collect()
    }

    #[test]
    fn grid_layout_is_row_major() {
        let out = runner(2).run_grid_pooled(3, 4, || (), |(), i, r| (i, r));
        assert_eq!(out.len(), 12);
        assert_eq!(out[0], (0, 0));
        assert_eq!(out[5], (1, 1));
        assert_eq!(out[11], (2, 3));
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let f = cell_hash(99);
        let seq = serial(8, 8, f);
        let indexed: Vec<usize> = (0..97).map(|i| i * 3).collect();
        for threads in [Some(1), Some(3), Some(4), None] {
            let runner = ParallelRunner::new(threads).unwrap();
            assert_eq!(
                runner.run_grid_pooled(8, 8, || (), |(), i, r| f(i, r)),
                seq,
                "threads = {threads:?}"
            );
            assert_eq!(runner.run_indexed(97, |i| i * 3), indexed);
            assert_eq!(runner.run_indexed(5, |i| i * i), vec![0, 1, 4, 9, 16]);
        }
    }

    #[test]
    fn ordered_collection_across_chunk_sizes() {
        let f = |(): &mut (), i: usize| i.wrapping_mul(0x9E37_79B9) ^ (i << 7);
        let seq: Vec<usize> = (0..257).map(|i| f(&mut (), i)).collect();
        let runner = runner(4);
        for chunk in [1usize, 3, 7, 64, 300] {
            let par = runner.pool.run_dynamic(257, chunk, &|| (), &f);
            assert_eq!(seq, par, "chunk = {chunk}");
        }
    }

    #[test]
    fn every_cell_executes_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = ParallelRunner::new(None).unwrap().run_grid_pooled(
            10,
            7,
            || (),
            |(), _, _| {
                counter.fetch_add(1, Ordering::Relaxed);
                1u8
            },
        );
        assert_eq!(out.len(), 70);
        assert_eq!(counter.load(Ordering::Relaxed), 70);
    }

    #[test]
    fn one_worker_runner_stays_threadless() {
        let runner = runner(1);
        assert!(runner.pool.shared.is_none());
        assert!(runner.pool.handles.is_empty());
        // Every cell runs on the caller — so one at a time — with one
        // workspace.
        let caller = std::thread::current().id();
        let inits = AtomicUsize::new(0);
        let out = runner.run_grid_pooled(
            16,
            1,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, i, _| (i, std::thread::current().id()),
        );
        let expect: Vec<_> = (0..16).map(|i| (i, caller)).collect();
        assert_eq!(out, expect);
        assert_eq!(inits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pool_is_built_once_and_its_workers_stay_resident() {
        let runner = runner(2);
        let built = Arc::as_ptr(&runner.pool);
        let ids = Mutex::new(HashSet::new());
        // Three grids, one cell per claim: the same two resident workers
        // run them all — no per-call spawning, and never the caller.
        for round in 0..3usize {
            let out = runner.pool.run_dynamic(64, 1, &|| (), &|(), i| {
                ids.lock().unwrap().insert(std::thread::current().id());
                i + round
            });
            assert_eq!(out, (round..64 + round).collect::<Vec<_>>());
        }
        let ids = ids.into_inner().unwrap();
        assert!(ids.len() <= 2, "saw {} worker thread ids", ids.len());
        assert!(!ids.contains(&std::thread::current().id()));
        // Repeated grids and clones reuse the very same pool.
        assert_eq!(Arc::as_ptr(&runner.pool), built);
        assert_eq!(Arc::as_ptr(&runner.clone().pool), built);
    }

    #[test]
    fn pooled_grid_matches_serial_grid_across_thread_counts() {
        let f = cell_hash(7);
        let plain = serial(9, 5, f);
        for threads in [1usize, 3, 8] {
            let pooled = runner(threads).run_grid_pooled(9, 5, Vec::<u64>::new, |ws, i, r| {
                // The workspace is scratch: abuse it as a call log to
                // prove reuse, but derive results only from (i, r).
                ws.push(i as u64);
                f(i, r)
            });
            assert_eq!(plain, pooled, "threads = {threads}");
        }
    }

    #[test]
    fn one_workspace_per_worker_dropped_before_the_call_returns() {
        // Workspaces flush counters when they drop, so each must be
        // built at most once per worker — however small the chunks — and
        // dropped on its worker before the grid call returns.
        struct Ws<'a>(&'a AtomicUsize);
        impl Drop for Ws<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let built = AtomicUsize::new(0);
        let dropped = AtomicUsize::new(0);
        let make = || {
            built.fetch_add(1, Ordering::Relaxed);
            Ws(&dropped)
        };
        for threads in [2usize, 4] {
            built.store(0, Ordering::Relaxed);
            dropped.store(0, Ordering::Relaxed);
            let runner = runner(threads);
            let out = runner.run_grid_pooled(10, 3, make, |_, i, r| i * 3 + r);
            assert_eq!(out, (0..30).collect::<Vec<_>>());
            let chunked = runner.pool.run_dynamic(50, 1, &make, &|_, i| i + 1);
            assert_eq!(chunked, (1..=50).collect::<Vec<_>>());
            let n = built.load(Ordering::Relaxed);
            assert!(n <= 2 * threads, "{n} workspaces on {threads} workers");
            assert_eq!(dropped.load(Ordering::Relaxed), n);
        }
    }

    #[test]
    fn pooled_grid_identical_across_chunk_sizes() {
        let f = cell_hash(13);
        // One worker claims 3-cell chunks that straddle the 5-cell rows;
        // two and four claim one cell at a time.
        assert_eq!(runner(1).chunk_size(30), 3);
        assert_eq!(runner(4).chunk_size(30), 1);
        let baseline = serial(6, 5, f);
        for threads in [1usize, 2, 4] {
            let got = runner(threads).run_grid_pooled(6, 5, || (), |(), i, r| f(i, r));
            assert_eq!(baseline, got, "threads = {threads}");
        }
    }

    #[test]
    fn build_charge_taken_once() {
        for threads in [Some(2), None] {
            let runner = ParallelRunner::new(threads).unwrap();
            assert_eq!(runner.take_build_charge(), 1);
            assert_eq!(runner.take_build_charge(), 0);
        }
        // Clones share the charge: a calibration that clones its runner
        // still reports the build exactly once.
        let charged = runner(2);
        let clone = charged.clone();
        assert_eq!(clone.take_build_charge(), 1);
        assert_eq!(charged.take_build_charge(), 0);
    }

    #[test]
    fn chunk_helpers_follow_the_adaptive_policy() {
        let runner = runner(2);
        assert_eq!(runner.chunk_size(100), 6);
        assert_eq!(runner.chunk_count(100), 17);
        // Always at least one cell per chunk.
        assert_eq!(runner.chunk_size(3), 1);
        assert_eq!(runner.chunk_count(0), 0);
        assert_eq!(adaptive_chunk(0, 4), 1);
        assert_eq!(adaptive_chunk(7, 4), 1);
        assert_eq!(adaptive_chunk(256, 4), 8);
        assert_eq!(adaptive_chunk(1 << 20, 1), 8192);
    }

    #[test]
    fn adaptive_chunk_keeps_chunks_per_worker_bounded() {
        // Characterization of the paper-scale regime: the old 1024 cap
        // saturated at 500k cells and left every worker with hundreds of
        // tiny chunks. The policy must keep chunks-per-worker in a band
        // wide enough for straggler rebalancing but narrow enough that
        // the atomic claim stays amortized.
        for &(n, w) in &[
            (500_000usize, 1usize),
            (500_000, 4),
            (500_000, 8),
            (1 << 20, 4),
        ] {
            let chunk = adaptive_chunk(n, w);
            let chunks = n.div_ceil(chunk);
            let per_worker = chunks as f64 / w as f64;
            assert!(
                per_worker >= 2.0,
                "n={n} w={w}: {per_worker} chunks/worker is too coarse to rebalance"
            );
            assert!(
                per_worker <= 128.0,
                "n={n} w={w}: {per_worker} chunks/worker re-pays the claim overhead \
                 the cap exists to amortize"
            );
        }
        // The small-grid policy (several chunks per worker) is unchanged.
        assert_eq!(adaptive_chunk(256, 4), 256 / (4 * 8));
    }

    #[test]
    fn zero_threads_rejected() {
        assert!(matches!(
            ParallelRunner::new(Some(0)),
            Err(SmcError::Config(_))
        ));
    }

    #[test]
    fn panic_propagates_and_the_pool_is_reused() {
        let runner = runner(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            runner.pool.run_dynamic(64, 1, &|| (), &|(), i| {
                assert!(i != 17, "injected failure");
                i
            })
        }));
        assert!(result.is_err(), "cell panic must propagate to the caller");
        let out = runner.run_indexed(32, |i| i * 2);
        assert_eq!(out, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn drops_run_exactly_once_per_result() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted(usize);
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let out = runner(4).run_indexed(123, Counted);
        assert_eq!(out.len(), 123);
        for (i, c) in out.iter().enumerate() {
            assert_eq!(c.0, i);
        }
        drop(out);
        assert_eq!(DROPS.load(Ordering::Relaxed), 123);
    }
}
