//! Per-layer metrics of one traced iteration, from its spans and the
//! exact counters its window results expose.

use std::collections::BTreeMap;

use crate::trace::{self, Kind, Span};
use crate::workloads::{Outcome, Workload, WORKERS};

const MIB: f64 = 1024.0 * 1024.0;

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile (0 for no samples).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = pct / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `(first start, last end)` of a pass of calls.
fn extent(calls: &[Span]) -> Option<(u64, u64)> {
    let start = calls.iter().map(|s| s.start).min()?;
    let end = calls.iter().map(|s| s.end).max()?;
    Some((start, end))
}

/// Per-worker gaps between consecutive calls of one pass.
fn gaps(calls: &[Span]) -> u64 {
    let mut by_thread: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for c in calls {
        by_thread.entry(c.thread).or_default().push(c);
    }
    by_thread
        .values_mut()
        .map(|v| {
            v.sort_by_key(|s| s.start);
            v.windows(2)
                .map(|w| w[1].start.saturating_sub(w[0].end))
                .sum::<u64>()
        })
        .sum()
}

/// Every per-layer metric the spans and counters of one iteration give.
pub fn of_iteration(
    workload: Workload,
    out: &Outcome,
    spans: &[Span],
) -> BTreeMap<&'static str, f64> {
    let (trees, _) = trace::attach(spans);
    let cells = workload.cells();
    let mut m = BTreeMap::new();

    let sims: Vec<&Span> = spans.iter().filter(|s| s.kind.is_sim()).collect();
    let sim_busy: u64 = sims.iter().map(|s| s.duration()).sum();
    let sim_days: u64 = sims.iter().map(|s| s.amount).sum();
    m.insert("sim.calls", sims.len() as f64);
    m.insert("sim.busy_s", sim_busy as f64 * 1e-9);
    m.insert("sim.ns_per_day", ratio(sim_busy as f64, sim_days as f64));

    // Within a window (the calls sharing an end day under one root) the
    // first `cells` calls are the grid and the rest the PMMH move pass.
    let (mut grid_ns, mut grid_busy, mut grid_gap) = (0u64, 0u64, 0u64);
    let (mut pass_ns, mut move_busy, mut move_calls) = (0u64, 0u64, 0u64);
    let (mut between, mut root_total, mut root_self) = (0u64, 0u64, 0u64);
    let (mut append_self, mut open_self) = (Vec::new(), Vec::new());
    let (mut gets, mut lists) = (Vec::new(), Vec::new());
    for tree in &trees {
        let root = tree.root;
        let mut windows: BTreeMap<u32, Vec<Span>> = BTreeMap::new();
        for c in tree.children.iter().filter(|c| c.kind.is_sim()) {
            windows.entry(c.tag).or_default().push(*c);
        }
        let mut phases: Vec<(u64, u64)> = Vec::new();
        for calls in windows.values_mut() {
            calls.sort_by_key(|s| s.start);
            let (grid, moves) = calls.split_at(cells.min(calls.len()));
            if let Some((s, e)) = extent(grid) {
                grid_ns += e - s;
                phases.push((s, e));
            }
            grid_busy += grid.iter().map(Span::duration).sum::<u64>();
            grid_gap += gaps(grid);
            if let Some((s, e)) = extent(moves) {
                pass_ns += e - s;
                phases.push((s, e));
            }
            move_busy += moves.iter().map(Span::duration).sum::<u64>();
            move_calls += moves.len() as u64;
        }
        phases.extend(
            tree.children
                .iter()
                .filter(|c| c.kind.is_store())
                .map(|c| (c.start, c.end)),
        );
        let own = trace::self_time(&root, &tree.children);
        root_total += root.duration();
        root_self += own;
        match root.kind {
            Kind::Open => {
                open_self.push(own as f64 * 1e-6);
                for c in &tree.children {
                    match c.kind {
                        Kind::Get => gets.push(c.duration() as f64 * 1e-6),
                        Kind::List => lists.push(c.duration() as f64 * 1e-6),
                        _ => {}
                    }
                }
            }
            kind => {
                between += root.duration() - trace::covered(phases, root.start, root.end);
                if kind == Kind::Append {
                    append_self.push(own as f64 * 1e-6);
                }
            }
        }
    }
    let grid_s = grid_ns as f64 * 1e-9;
    let pass_s = pass_ns as f64 * 1e-9;
    m.insert("runner.grid_s", grid_s);
    m.insert(
        "runner.util",
        ratio(grid_busy as f64 * 1e-9, WORKERS as f64 * grid_s),
    );
    m.insert("sis.grid_gap_s", grid_gap as f64 * 1e-9);
    m.insert("sis.between_s", between as f64 * 1e-9);
    m.insert("pmmh.calls", move_calls as f64);
    m.insert("pmmh.pass_s", pass_s);
    m.insert(
        "pmmh.util",
        ratio(move_busy as f64 * 1e-9, WORKERS as f64 * pass_s),
    );
    m.insert(
        "trace.unattributed_frac",
        ratio(root_self as f64, root_total as f64),
    );
    m.insert("stream.append_self_ms_p50", percentile(&append_self, 50.0));
    m.insert("stream.append_self_ms_p90", percentile(&append_self, 90.0));
    m.insert("stream.open_self_ms_p50", percentile(&open_self, 50.0));
    m.insert("store.get_ms_p50", percentile(&gets, 50.0));
    m.insert("store.list_ms_p50", percentile(&lists, 50.0));

    let puts: Vec<&Span> = spans.iter().filter(|s| s.kind == Kind::Put).collect();
    let put_ms: Vec<f64> = puts.iter().map(|s| s.duration() as f64 * 1e-6).collect();
    m.insert("store.put_ms_p50", percentile(&put_ms, 50.0));
    let last_put = puts.iter().max_by_key(|s| s.end);
    m.insert(
        "store.record_kb",
        last_put.map_or(0.0, |s| s.amount as f64 / 1024.0),
    );

    let w = &out.windows;
    let n = w.len() as f64;
    m.insert(
        "engine.days",
        w.iter().map(|c| c.days_simulated).sum::<u64>() as f64,
    );
    m.insert(
        "dist.draws",
        w.iter().map(|c| c.batched_draws).sum::<u64>() as f64,
    );
    let fused = w.iter().map(|c| c.fused_scores).sum::<u64>() as f64;
    m.insert(
        "sis.fused_frac",
        ratio(fused, n * (cells * workload.sources()) as f64),
    );
    let ess = w.iter().map(|c| c.ess / cells as f64).sum::<f64>();
    m.insert("sis.ess_frac", ratio(ess, n));
    let resample = workload.resample_size() as f64;
    let ancestors = w
        .iter()
        .map(|c| c.unique_ancestors as f64 / resample)
        .sum::<f64>();
    m.insert("sis.ancestor_frac", ratio(ancestors, n));
    let last = w.last();
    m.insert(
        "sis.shared_mb",
        last.map_or(0.0, |c| c.shared_bytes as f64 / MIB),
    );
    m.insert(
        "ckpool.unique",
        last.map_or(0.0, |c| c.unique_checkpoints as f64),
    );
    let (accepted, proposed) = w
        .iter()
        .filter_map(|c| c.rejuvenation)
        .fold((0, 0), |(a, p), s| (a + s.accepted, p + s.proposed));
    m.insert("pmmh.accept_frac", ratio(accepted as f64, proposed as f64));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn gaps_are_per_worker() {
        let call = |start, end, thread| Span {
            kind: Kind::SimFrom,
            start,
            end,
            thread,
            tag: 33,
            amount: 14,
        };
        // Worker 1 idles 5 between its calls, worker 2 idles 2; the
        // interleaving across workers is not a gap.
        let calls = [
            call(0, 10, 1),
            call(15, 20, 1),
            call(3, 8, 2),
            call(10, 12, 2),
        ];
        assert_eq!(gaps(&calls), 7);
    }
}
