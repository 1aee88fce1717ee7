//! End-to-end cost of one SIS calibration window (Algorithm 1) — the
//! unit of work the paper parallelizes on HPC — serial vs parallel, and
//! the sequential continuation step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use epidata::{generate_ground_truth, Scenario};
use episim::output::{DailySeries, SharedTrajectory};
use epismc_core::config::CalibrationConfig;
use epismc_core::prior::JitterKernel;
use epismc_core::simulator::CovidSimulator;
use epismc_core::sis::{ObservedData, Priors, SequentialCalibrator, SingleWindowIs};
use epismc_core::window::{TimeWindow, WindowPlan};
use std::hint::black_box;

fn config(threads: Option<usize>) -> CalibrationConfig {
    let mut b = CalibrationConfig::builder()
        .n_params(64)
        .n_replicates(4)
        .resample_size(128)
        .seed(11);
    if let Some(t) = threads {
        b = b.threads(t);
    }
    b.build()
}

fn bench_single_window(c: &mut Criterion) {
    let scenario = Scenario::paper_tiny();
    let truth = generate_ground_truth(&scenario, scenario.truth_seed);
    let simulator = CovidSimulator::new(scenario.base_params.clone()).unwrap();
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let window = TimeWindow::new(20, 33);
    let priors = Priors::paper();

    let mut group = c.benchmark_group("single_window_is");
    group.sample_size(10);
    group.bench_function("serial_1thread", |b| {
        let driver = SingleWindowIs::new(&simulator, config(Some(1)));
        b.iter(|| black_box(driver.run(&priors, &observed, window).unwrap()));
    });
    group.bench_function("parallel_default", |b| {
        let driver = SingleWindowIs::new(&simulator, config(None));
        b.iter(|| black_box(driver.run(&priors, &observed, window).unwrap()));
    });
    group.finish();
}

fn bench_sequential(c: &mut Criterion) {
    let scenario = Scenario::paper_tiny();
    let truth = generate_ground_truth(&scenario, scenario.truth_seed);
    let simulator = CovidSimulator::new(scenario.base_params.clone()).unwrap();
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let plan = WindowPlan::paper(scenario.horizon);
    let priors = Priors::paper();

    let mut group = c.benchmark_group("sequential_calibration");
    group.sample_size(10);
    group.bench_function("four_windows", |b| {
        let calibrator = SequentialCalibrator::new(
            &simulator,
            config(None),
            vec![JitterKernel::symmetric(0.1, 0.05, 0.8)],
            JitterKernel::asymmetric(0.05, 0.08, 0.05, 1.0),
        );
        b.iter(|| black_box(calibrator.run(&priors, &observed, &plan).unwrap()));
    });
    group.finish();
}

/// One simulated window's worth of output (7 days, 2 series) starting at
/// absolute day `start`.
fn window_segment(start: u32) -> DailySeries {
    let mut s = DailySeries::new(vec!["infections".into(), "deaths".into()], start);
    for d in 0..7u64 {
        s.push_day(&[100 + d, d / 3]);
    }
    s
}

/// The storage cost the trajectory refactor targets: continuing one
/// particle lineage across many windows. Owned storage re-copies the
/// whole history every window (`O(history)` per continuation); shared
/// storage appends one `Arc` segment (`O(window)`), so its per-window
/// cost stays flat as the history deepens.
fn bench_trajectory_growth(c: &mut Criterion) {
    let mut group = c.benchmark_group("trajectory_growth");
    for n_windows in [5u32, 20, 80] {
        let flat_bytes = u64::from(n_windows) * 7 * 2 * 8;
        group.throughput(Throughput::Bytes(flat_bytes));
        group.bench_function(BenchmarkId::new("shared_append", n_windows), |b| {
            b.iter(|| {
                let mut t = SharedTrajectory::root(window_segment(0));
                for w in 1..n_windows {
                    t = t.append(window_segment(7 * w));
                }
                black_box(t.len())
            });
        });
        group.bench_function(BenchmarkId::new("owned_clone_extend", n_windows), |b| {
            b.iter(|| {
                let mut t = window_segment(0);
                for w in 1..n_windows {
                    // The pre-refactor continuation path: clone the full
                    // ancestor history, then extend by one window.
                    let mut next = t.clone();
                    next.extend(&window_segment(7 * w));
                    t = next;
                }
                black_box(t.len())
            });
        });
    }
    group.finish();
}

/// Ensemble-scale memory: 128 particles continued from 8 shared ancestors
/// across many windows. Prints the unique-bytes footprint shared storage
/// holds vs what per-particle flat storage would, then times a full read
/// (flatten) of every member to show reads stay cheap.
fn bench_ensemble_sharing(c: &mut Criterion) {
    let mut group = c.benchmark_group("ensemble_sharing");
    for n_windows in [5u32, 20, 80] {
        // 8 ancestor lineages, each continued window by window; 128
        // particles reference them 16:1 (the resampling pattern).
        let mut ancestors: Vec<SharedTrajectory> = (0..8)
            .map(|_| SharedTrajectory::root(window_segment(0)))
            .collect();
        for w in 1..n_windows {
            for a in &mut ancestors {
                *a = a.append(window_segment(7 * w));
            }
        }
        let ensemble: Vec<SharedTrajectory> = (0..128).map(|i| ancestors[i % 8].clone()).collect();

        let mut unique = std::collections::HashSet::new();
        let mut shared_bytes = 0usize;
        for t in &ensemble {
            let (fresh, _) = t.unknown_segments(|id| unique.contains(&id));
            for (id, series) in fresh {
                unique.insert(id);
                shared_bytes += series.len() * series.names().len() * std::mem::size_of::<u64>();
            }
        }
        let flat_bytes: usize = ensemble.iter().map(SharedTrajectory::flat_bytes).sum();
        println!(
            "ensemble_sharing/{n_windows} windows: unique {shared_bytes} B vs flat {flat_bytes} B ({:.1}x)",
            flat_bytes as f64 / shared_bytes as f64
        );

        group.throughput(Throughput::Bytes(flat_bytes as u64));
        group.bench_function(BenchmarkId::new("flatten_all", n_windows), |b| {
            b.iter(|| {
                let total: usize = ensemble.iter().map(|t| black_box(t.flatten().len())).sum();
                black_box(total)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_single_window,
    bench_sequential,
    bench_trajectory_growth,
    bench_ensemble_sharing
);
criterion_main!(benches);
