//! Lifecycle-edge coverage for the persistent worker pool behind every
//! calibration grid (`epismc::smc::runner`): claim-cursor uniqueness
//! under contention, panic propagation while other workers are
//! mid-chunk, shutdown behind queued submitters, the threadless shapes,
//! and resident workers on a default-sized runner.
//!
//! The protocol-level proofs live in `pool_model.rs` (an exhaustive
//! interleaving model of the epoch broadcast) and `pool_stress.rs`
//! (seeded jitter over the real pool). This file pins the *observable
//! contract* through the public runner API. Chunk sizes follow the
//! runner's adaptive policy, `cells / (workers × 8)` clamped to at least
//! one, so a grid of fewer than `16 × workers` cells claims one cell at a
//! time.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use epismc::prelude::ParallelRunner;

fn runner(threads: usize) -> ParallelRunner {
    ParallelRunner::new(Some(threads)).unwrap()
}

/// Regression test for the `Relaxed` ordering on the dispatch cursor
/// (`crates/epismc/src/runner.rs`, see the `// ORDER:` note): claim
/// uniqueness needs only the RMW atomicity of `fetch_add`, so under
/// chunk=1 contention every index must be claimed — and its slab slot
/// written — exactly once, and the join must publish every write back
/// to the caller. A double claim trips the per-index counter; a missed
/// or unpublished write corrupts the collected output.
#[test]
fn cursor_claims_partition_indices_exactly_once() {
    for threads in [2usize, 4] {
        let runner = runner(threads);
        let n = 16 * threads - 1;
        assert_eq!(runner.chunk_count(n), n, "one index per claim");
        for round in 0..40u64 {
            let claims: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
            let out: Vec<u64> = runner.run_indexed(n, |i| {
                let prev = claims[i].fetch_add(1, Ordering::Relaxed);
                assert_eq!(prev, 0, "index {i} claimed twice (round {round})");
                i as u64 ^ round
            });
            for (i, c) in claims.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "index {i} never claimed");
            }
            let expect: Vec<u64> = (0..n as u64).map(|i| i ^ round).collect();
            assert_eq!(out, expect, "slab writes not fully published to caller");
        }
    }
}

#[test]
fn panic_propagates_while_other_workers_are_mid_chunk() {
    // Two workers, 4-cell chunks. The worker holding index 0 blocks until
    // the *other* worker is provably mid-chunk — while index 0 blocks,
    // only the sibling can start any other index — then panics, so the
    // unwind races a sibling that is still writing its slab slots. The
    // payload must reach the submitting thread and the pool must stay
    // usable.
    const N: usize = 64;
    let runner = runner(2);
    assert_eq!(runner.chunk_count(N), N / 4);
    for round in 0..5 {
        let sibling_started = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&sibling_started);
        let result: Result<Vec<usize>, _> = catch_unwind(AssertUnwindSafe(|| {
            runner.run_indexed(N, |i| {
                if i != 0 {
                    flag.store(true, Ordering::Release);
                    return i;
                }
                let mut spins = 0u64;
                while !flag.load(Ordering::Acquire) {
                    std::thread::yield_now();
                    spins += 1;
                    assert!(spins < 50_000_000, "sibling never started its chunk");
                }
                panic!("mid-chunk bomb {round}");
            })
        }));
        let payload = result.expect_err("injected panic must reach the submitter");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("mid-chunk bomb"), "foreign payload: {msg}");
        // Pool still serves the next grid.
        let ok: Vec<usize> = runner.run_indexed(16, |i| i * 2);
        assert_eq!(ok, (0..16).map(|i| i * 2).collect::<Vec<usize>>());
    }
}

#[test]
fn shutdown_drains_queued_submitters_before_joining() {
    // Several threads queue broadcasts on one pool through clones of one
    // runner; the pool can only shut down after every queued job drained
    // (each clone keeps the pool alive until its submitter finished — the
    // borrow discipline the model's `Shutdown::Concurrent` scenario shows
    // is load-bearing).
    let runner = runner(2);
    let completed = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let runner = runner.clone();
            let completed = Arc::clone(&completed);
            scope.spawn(move || {
                for _ in 0..6 {
                    let v: Vec<usize> = runner.run_indexed(31, |i| i * i);
                    assert_eq!(v.len(), 31);
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(completed.load(Ordering::Relaxed), 18);
    drop(runner); // joins both workers; a hang here is a lost shutdown wakeup
}

#[test]
fn threadless_shapes_run_sequentially_and_correctly() {
    // A one-worker runner owns no threads and runs every grid on the
    // caller; on any runner a one-cell grid runs inline. Both must
    // produce identical, ordered results.
    let caller = std::thread::current().id();
    let expect: Vec<u64> = (0..37)
        .map(|i| (i as u64).wrapping_mul(0x9E37_79B9))
        .collect();
    let got: Vec<(u64, _)> = runner(1).run_indexed(37, |i| {
        (
            (i as u64).wrapping_mul(0x9E37_79B9),
            std::thread::current().id(),
        )
    });
    assert!(got.iter().all(|&(_, id)| id == caller));
    assert_eq!(got.into_iter().map(|(v, _)| v).collect::<Vec<_>>(), expect);
    for threads in [Some(1), Some(4), None] {
        let runner = ParallelRunner::new(threads).unwrap();
        let one = runner.run_indexed(1, |i| (i + 7, std::thread::current().id()));
        assert_eq!(one, vec![(7, caller)], "threads={threads:?}");
    }
}

#[test]
fn degenerate_grids_empty_single_and_smaller_than_pool() {
    let runner = runner(4);
    let empty: Vec<usize> = runner.run_indexed(0, |i| i);
    assert!(empty.is_empty());
    let single: Vec<usize> = runner.run_indexed(1, |i| i + 7);
    assert_eq!(single, vec![7]);
    // Fewer cells than workers: surplus workers must find the cursor
    // exhausted and park without building a workspace.
    let inits = AtomicUsize::new(0);
    let small = runner.run_grid_pooled(
        2,
        1,
        || {
            inits.fetch_add(1, Ordering::Relaxed);
        },
        |_, i, _| i,
    );
    assert_eq!(small, vec![0, 1]);
    let n = inits.load(Ordering::Relaxed);
    assert!((1..=2).contains(&n), "{n} init calls for a 2-cell grid");
}

/// The worker count a runner built with `threads: None` gets: the
/// runner's documented process default.
fn default_workers() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

#[test]
fn default_runner_keeps_its_workers() {
    // A default-sized runner owns a persistent pool like a pinned one:
    // three grids run on at most its worker count of distinct threads,
    // not on fresh threads per call.
    let runner = ParallelRunner::new(None).unwrap();
    let ids = Mutex::new(HashSet::new());
    for round in 0..3usize {
        let out = runner.run_grid_pooled(
            16,
            4,
            || (),
            |(), i, r| {
                ids.lock().unwrap().insert(std::thread::current().id());
                i * 4 + r + round
            },
        );
        assert_eq!(out, (round..64 + round).collect::<Vec<_>>());
    }
    let distinct = ids.into_inner().unwrap().len();
    let workers = default_workers();
    assert!(
        distinct <= workers,
        "{distinct} thread ids across three grids on {workers} workers"
    );
}
