//! Seeded preemption-injecting stress suite for the persistent pool.
//!
//! Complements the exhaustive protocol model in `pool_model.rs`: the
//! model proves the epoch-broadcast *protocol* correct over every
//! interleaving of its critical sections, while this suite drives the
//! *real* implementation — claim cursor, slab writes, catch_unwind
//! plumbing and all — under deterministic scheduling pressure. Each cell
//! derives its perturbation schedule (spin/yield jitter, panic sites)
//! from a SplitMix64 stream keyed by `(seed, index)`, so a failing cell
//! reproduces from its printed parameters alone.
//!
//! This is one of the suites the ThreadSanitizer CI job runs (see
//! `scripts/check_concurrency.sh`): the jitter widens the window for
//! claim/slab races, which is exactly what TSan instruments for.
//!
//! Chunk sizes follow the runner's adaptive policy, `cells / (workers ×
//! 8)` clamped to at least one, so grid sizes below `16 × workers` cells
//! claim one cell at a time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use epismc::prelude::ParallelRunner;

fn runner(threads: usize) -> ParallelRunner {
    ParallelRunner::new(Some(threads)).unwrap()
}

/// SplitMix64: tiny, deterministic, good diffusion — the same generator
/// the workspace uses for seed derivation elsewhere.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic per-item scheduling perturbation: sometimes spin,
/// sometimes yield, sometimes run straight through. The *decision* is
/// reproducible; the resulting OS interleaving is the fuzz.
fn jitter(word: u64) {
    match word % 8 {
        0 => std::thread::yield_now(),
        1..=3 => {
            for _ in 0..(word >> 56) {
                std::hint::spin_loop();
            }
        }
        _ => {}
    }
}

/// A cheap but seed-dependent payload computation.
fn work_item(seed: u64, i: usize) -> u64 {
    let mut s = seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    let w = splitmix64(&mut s);
    jitter(w);
    w ^ splitmix64(&mut s)
}

#[test]
fn seeded_grid_sweep_is_deterministic_and_ordered() {
    // Prime sizes never divide evenly into chunks; across 2, 3 and 4
    // workers they claim 1 to 16 cells at a time.
    for threads in [2usize, 3, 4] {
        let runner = runner(threads);
        for n in [23usize, 59, 257] {
            for seed in [1u64, 0xDEAD_BEEF, 0x5EED_5EED_5EED_5EED] {
                // Sequential reference.
                let expect: Vec<u64> = (0..n).map(|i| work_item(seed, i)).collect();
                let got = runner.run_indexed(n, |i| work_item(seed, i));
                assert_eq!(got, expect, "seed={seed:#x} threads={threads} n={n}");
            }
        }
    }
}

#[test]
fn panic_storm_leaves_the_pool_reusable() {
    // Alternate panicking and clean broadcasts on one long-lived pool.
    // Panic sites are seed-derived; every payload must surface on the
    // submitting thread, and the very next broadcast must run clean.
    const N: usize = 47;
    let runner = runner(3);
    assert_eq!(runner.chunk_count(N), N, "one cell per claim");
    let mut rng = 0x00C0_FFEEu64;
    for round in 0..20 {
        let bomb = splitmix64(&mut rng) as usize % N;
        let stormy = round % 2 == 0;
        let result: Result<Vec<u64>, _> = catch_unwind(AssertUnwindSafe(|| {
            runner.run_indexed(N, |i| {
                jitter(i as u64 ^ round);
                if stormy && i == bomb {
                    panic!("storm {round} at {i}");
                }
                i as u64 * 3
            })
        }));
        if stormy {
            let payload = result.expect_err("injected panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains(&format!("storm {round}")), "got: {msg}");
        } else {
            let got = result.expect("clean round must not panic");
            assert_eq!(got, (0..N as u64).map(|i| i * 3).collect::<Vec<u64>>());
        }
    }
}

#[test]
fn concurrent_submitters_queue_on_the_job_slot() {
    // Several OS threads share one pool through clones of one runner and
    // submit concurrently, exercising the queued-submitter wait in
    // `broadcast` (the model's `SubmitterStep::Acquire` blocking case)
    // under real contention.
    let runner = runner(2);
    let total = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for sub in 0..4u64 {
            let runner = runner.clone();
            let total = Arc::clone(&total);
            scope.spawn(move || {
                for round in 0..8 {
                    let got: Vec<u64> = runner.run_indexed(31, |i| {
                        jitter(sub << 32 | round << 16 | i as u64);
                        i as u64
                    });
                    let sum: u64 = got.iter().sum();
                    assert_eq!(sum, 30 * 31 / 2, "submitter {sub} round {round}");
                    total.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(total.load(Ordering::Relaxed), 4 * 8);
}

#[test]
fn rapid_build_drop_cycles_join_cleanly() {
    // Runners built, (sometimes) used once, and dropped in a tight loop:
    // shutdown must always wake and join every worker, including workers
    // that never ran a single job.
    let mut rng = 0x0BAD_5EEDu64;
    for cycle in 0..24 {
        let threads = 2 + (splitmix64(&mut rng) as usize % 3);
        let runner = runner(threads);
        if cycle % 3 != 0 {
            let got: Vec<usize> = runner.run_indexed(31, |i| {
                jitter(cycle ^ i as u64);
                i + 1
            });
            assert_eq!(got.len(), 31);
        }
        drop(runner); // joins all workers; hangs here = lost wakeup
    }
}

/// Element whose drop is tallied per index: catches double drops (the
/// slab double-initializing a slot) and, on clean runs, missed drops.
struct Tracked {
    idx: usize,
    flags: Arc<Vec<AtomicU8>>,
}

impl Drop for Tracked {
    fn drop(&mut self) {
        let prev = self.flags[self.idx].fetch_add(1, Ordering::Relaxed);
        assert_eq!(prev, 0, "element {} dropped twice", self.idx);
    }
}

#[test]
fn slab_elements_drop_exactly_once_on_clean_runs() {
    const N: usize = 47;
    let runner = runner(3);
    let flags: Arc<Vec<AtomicU8>> = Arc::new((0..N).map(|_| AtomicU8::new(0)).collect());
    let out: Vec<Tracked> = runner.run_indexed(N, |i| {
        jitter(i as u64);
        Tracked {
            idx: i,
            flags: Arc::clone(&flags),
        }
    });
    assert_eq!(out.len(), N);
    drop(out);
    for (i, flag) in flags.iter().enumerate() {
        assert_eq!(flag.load(Ordering::Relaxed), 1, "element {i} not dropped");
    }
}

#[test]
fn panicked_run_never_double_drops() {
    // On a panicking broadcast the slab is abandoned at length zero:
    // already-written elements intentionally leak, but nothing may drop
    // twice and nothing may read uninitialized slots. The `Tracked`
    // drop assertion enforces the former; Miri checks the latter.
    const N: usize = 47;
    let runner = runner(3);
    let flags: Arc<Vec<AtomicU8>> = Arc::new((0..N).map(|_| AtomicU8::new(0)).collect());
    let result: Result<Vec<Tracked>, _> = catch_unwind(AssertUnwindSafe(|| {
        runner.run_indexed(N, |i| {
            jitter(i as u64);
            if i == N / 2 {
                panic!("mid-run bomb");
            }
            Tracked {
                idx: i,
                flags: Arc::clone(&flags),
            }
        })
    }));
    assert!(result.is_err());
    for (i, flag) in flags.iter().enumerate() {
        assert!(
            flag.load(Ordering::Relaxed) <= 1,
            "element {i} dropped more than once after panic"
        );
    }
    // The pool survives for the next caller.
    let ok: Vec<usize> = runner.run_indexed(8, |i| i);
    assert_eq!(ok, (0..8).collect::<Vec<usize>>());
}
