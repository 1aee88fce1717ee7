//! Span recorder and self-time analysis.
//!
//! Every span is recorded by the benchmark's own code around a call
//! into the program: root spans around the calls a user makes
//! (`run_persisted`, `run`, `append_window`, `open`), wrapper spans
//! around each simulator and store call the program makes back into the
//! benchmark's wrappers, and probe spans around each layer probe.
//!
//! Spans stay in per-thread buffers while the workload runs (a worker
//! only ever locks its own, uncontended buffer) and are collected with
//! [`drain`] when the workload ends. A span's parent root is the root
//! whose interval contains it ([`attach`]); a root's self time is its
//! duration minus the union of its children's intervals ([`self_time`]),
//! so children running at once on two workers are counted once.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Root: one `run_persisted` or `run` call.
    Calibrate,
    /// Root: one `StreamingCalibrator::append_window` call.
    Append,
    /// Root: one `StreamingCalibrator::open` call.
    Open,
    /// Wrapper: `run_fresh` / `run_fresh_in`; `tag` is the end day,
    /// `amount` the days simulated.
    SimFresh,
    /// Wrapper: `run_from` / `run_from_in`; `tag` is the end day,
    /// `amount` the days simulated.
    SimFrom,
    /// Wrapper: `RunStore::put`; `tag` is the window, `amount` the bytes.
    Put,
    /// Wrapper: `RunStore::get`; `tag` is the window, `amount` the bytes.
    Get,
    /// Wrapper: `RunStore::list`; `amount` is the records listed.
    List,
    /// Wrapper: `RunStore::delete`; `tag` is the window.
    Delete,
    /// One layer probe.
    Probe,
}

impl Kind {
    /// Whether spans of this kind are roots.
    pub fn is_root(self) -> bool {
        matches!(self, Self::Calibrate | Self::Append | Self::Open)
    }

    /// Whether this is a simulator wrapper span.
    pub fn is_sim(self) -> bool {
        matches!(self, Self::SimFresh | Self::SimFrom)
    }

    /// Whether this is a store wrapper span.
    pub fn is_store(self) -> bool {
        matches!(self, Self::Put | Self::Get | Self::List | Self::Delete)
    }
}

/// One recorded interval, in nanoseconds since the process's trace
/// epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    pub start: u64,
    pub end: u64,
    /// Recording thread (registration order).
    pub thread: u32,
    pub tag: u32,
    pub amount: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }

    fn contains(&self, other: &Span) -> bool {
        self.start <= other.start && other.end <= self.end
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: (u32, Buffer) = register();
}

fn register() -> (u32, Buffer) {
    let buffer = Buffer::default();
    let mut all = BUFFERS.lock().expect("span registry poisoned");
    all.push(Arc::clone(&buffer));
    (all.len() as u32 - 1, buffer)
}

/// Nanoseconds since the trace epoch (the first call in the process).
pub fn now() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// CPU time of the whole process (every thread, exited ones included),
/// in nanoseconds. Unlike wall time it excludes time the hypervisor
/// gave to other guests, which on a shared host swings wall-clock
/// figures by tens of percent between runs.
pub fn cpu_now() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) for the whole call, and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU nanoseconds of a fixed computation that shares no code with the
/// program under test (best of three): integer hashing, scattered
/// updates to a 256 KiB table, and `exp`/`ln` on a data-dependent
/// branch. The host's speed drifts with its other tenants' load (core
/// clock and sibling hyperthreads: the same calibration took 2.6 s and
/// 4.4 s of CPU minutes apart), and this reading drifts with it, so
/// dividing a CPU time by it cancels the drift.
pub fn reference_cpu_ns() -> u64 {
    const SLOTS: usize = 1 << 15;
    const STEPS: u32 = 1_000_000;
    let mut table = vec![0u64; SLOTS];
    (0..3)
        .map(|_| {
            let start = cpu_now();
            let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0.0f64);
            for _ in 0..STEPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let slot = (x as usize) & (SLOTS - 1);
                table[slot] = table[slot].wrapping_add(x);
                let u = (x >> 11) as f64 / (1u64 << 53) as f64;
                acc += if u < 0.5 { (-u).ln_1p() } else { u.exp() };
            }
            std::hint::black_box((&table, acc));
            cpu_now() - start
        })
        .min()
        .expect("three repetitions")
}

/// A wall-clock and a CPU-clock reading (nanoseconds), or the
/// difference of two.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stamp {
    pub wall: u64,
    pub cpu: u64,
}

impl Stamp {
    pub fn now() -> Self {
        Self {
            wall: now(),
            cpu: cpu_now(),
        }
    }

    /// Time elapsed from `earlier` to `self`.
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            wall: self.wall - earlier.wall,
            cpu: self.cpu - earlier.cpu,
        }
    }

    pub fn add(&mut self, other: &Self) {
        self.wall += other.wall;
        self.cpu += other.cpu;
    }
}

/// Record one span on the calling thread's buffer.
pub fn record(kind: Kind, start: u64, end: u64, tag: u32, amount: u64) {
    LOCAL.with(|(thread, buffer)| {
        buffer.lock().expect("span buffer poisoned").push(Span {
            kind,
            start,
            end,
            thread: *thread,
            tag,
            amount,
        });
    });
}

/// Take every span recorded so far, from every thread, ordered by start.
pub fn drain() -> Vec<Span> {
    let all = BUFFERS.lock().expect("span registry poisoned");
    let mut spans: Vec<Span> = all
        .iter()
        .flat_map(|b| std::mem::take(&mut *b.lock().expect("span buffer poisoned")))
        .collect();
    spans.sort_by_key(|s| (s.start, s.end));
    spans
}

/// A root span and the spans its interval contains.
#[derive(Debug)]
pub struct Tree {
    pub root: Span,
    pub children: Vec<Span>,
}

/// Group spans under the root whose interval contains them. Roots never
/// overlap (the workloads are closed loops on one caller thread). Spans
/// no root contains (probes, untimed checks) come back as `orphans`.
pub fn attach(spans: &[Span]) -> (Vec<Tree>, Vec<Span>) {
    let mut trees: Vec<Tree> = spans
        .iter()
        .filter(|s| s.kind.is_root())
        .map(|&root| Tree {
            root,
            children: Vec::new(),
        })
        .collect();
    trees.sort_by_key(|t| t.root.start);
    let mut orphans = Vec::new();
    for span in spans.iter().filter(|s| !s.kind.is_root()) {
        let idx = trees.partition_point(|t| t.root.start <= span.start);
        match idx.checked_sub(1).map(|i| &mut trees[i]) {
            Some(tree) if tree.root.contains(span) => tree.children.push(*span),
            _ => orphans.push(*span),
        }
    }
    (trees, orphans)
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(intervals: impl IntoIterator<Item = (u64, u64)>, lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .into_iter()
        .map(|(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(cs, ce)| ce - cs)
}

/// A root's duration minus the union of its children's intervals.
pub fn self_time(root: &Span, children: &[Span]) -> u64 {
    root.duration()
        - covered(
            children.iter().map(|c| (c.start, c.end)),
            root.start,
            root.end,
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, start: u64, end: u64, thread: u32) -> Span {
        Span {
            kind,
            start,
            end,
            thread,
            tag: 0,
            amount: 0,
        }
    }

    #[test]
    fn nested_spans_count_once() {
        let root = span(Kind::Append, 0, 100, 0);
        // A store put holding a nested get (a wrapper around a wrapper):
        // the inner interval adds nothing to what the outer one covers.
        let outer = span(Kind::Put, 10, 50, 1);
        let inner = span(Kind::Get, 20, 30, 1);
        let (trees, orphans) = attach(&[root, outer, inner]);
        assert!(orphans.is_empty());
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].children, vec![outer, inner]);
        assert_eq!(self_time(&root, &trees[0].children), 60);
    }

    #[test]
    fn overlapping_children_on_two_workers_are_a_union() {
        let root = span(Kind::Calibrate, 0, 100, 0);
        let a = span(Kind::SimFrom, 10, 60, 1);
        let b = span(Kind::SimFrom, 40, 90, 2);
        let (trees, _) = attach(&[root, a, b]);
        let busy: u64 = trees[0].children.iter().map(Span::duration).sum();
        assert_eq!(busy, 100, "the sum double-counts the overlap");
        assert_eq!(self_time(&root, &trees[0].children), 20);
    }

    #[test]
    fn root_with_no_children_is_all_self_time() {
        let root = span(Kind::Open, 5, 25, 0);
        let probe = span(Kind::Probe, 30, 40, 0);
        let (trees, orphans) = attach(&[root, probe]);
        assert!(trees[0].children.is_empty());
        assert_eq!(self_time(&root, &trees[0].children), 20);
        assert_eq!(orphans, vec![probe]);
    }

    #[test]
    fn spans_go_to_the_root_that_contains_them() {
        let first = span(Kind::Append, 0, 10, 0);
        let second = span(Kind::Append, 20, 30, 0);
        let inside = span(Kind::SimFrom, 22, 28, 1);
        let straddling = span(Kind::Put, 8, 21, 1);
        let (trees, orphans) = attach(&[first, second, inside, straddling]);
        assert!(trees[0].children.is_empty());
        assert_eq!(trees[1].children, vec![inside]);
        assert_eq!(orphans, vec![straddling]);
    }

    #[test]
    fn covered_clips_to_the_window() {
        assert_eq!(covered([(0, 10), (5, 20), (30, 40)], 8, 35), 17);
        assert_eq!(covered(std::iter::empty(), 0, 10), 0);
    }

    #[test]
    fn recorded_spans_come_back_from_every_thread() {
        // The registry is process-global, so this test only looks for
        // its own spans (tagged) among whatever else was drained.
        let t0 = now();
        record(Kind::Probe, t0, t0 + 1, 7_001, 0);
        std::thread::scope(|s| {
            s.spawn(|| record(Kind::Probe, t0, t0 + 2, 7_002, 0));
        });
        let mine: Vec<Span> = drain()
            .into_iter()
            .filter(|s| s.tag == 7_001 || s.tag == 7_002)
            .collect();
        assert_eq!(mine.len(), 2);
        assert_ne!(mine[0].thread, mine[1].thread);
    }
}
