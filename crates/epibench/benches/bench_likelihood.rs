//! Weighting cost: Gaussian sqrt-scale likelihood evaluation and the full
//! `score_window` path (bias thinning + likelihood) for both bias modes,
//! called as the grid calls it: the window's observed side prepared once,
//! the scratch buffers warm.

use criterion::{criterion_group, criterion_main, Criterion};
use episim::output::{DailySeries, SharedTrajectory};
use epismc_core::likelihood::{GaussianSqrtLikelihood, Likelihood};
use epismc_core::observation::BiasMode;
use epismc_core::sis::{score_window, ObservedData, PreparedObserved, ScoreScratch};
use epismc_core::window::TimeWindow;
use std::hint::black_box;

fn trajectory(days: usize, level: u64) -> SharedTrajectory {
    let mut t = DailySeries::new(vec!["infections".into(), "deaths".into()], 1);
    for d in 0..days {
        t.push_day(&[level + d as u64, (d / 10) as u64]);
    }
    SharedTrajectory::root(t)
}

fn bench_gaussian(c: &mut Criterion) {
    let l = GaussianSqrtLikelihood::paper();
    let y: Vec<f64> = (0..14).map(|d| 100.0 + d as f64).collect();
    let eta: Vec<f64> = (0..14).map(|d| 95.0 + 1.1 * d as f64).collect();
    c.bench_function("gaussian_sqrt_14days", |b| {
        b.iter(|| black_box(l.log_likelihood(black_box(&y), black_box(&eta))));
    });
}

fn bench_score_window(c: &mut Criterion) {
    let traj = trajectory(33, 200);
    let window = TimeWindow::new(20, 33);
    let mut group = c.benchmark_group("score_window");
    for (label, mode) in [("sampled", BiasMode::Sampled), ("mean", BiasMode::Mean)] {
        let obs =
            ObservedData::cases_only_with((0..33).map(|d| 150.0 + d as f64).collect(), mode, 1.0);
        let prepared = PreparedObserved::build(&obs, window).unwrap();
        let mut scratch = ScoreScratch::new();
        group.bench_function(format!("cases_{label}"), |b| {
            b.iter(|| {
                black_box(
                    score_window(black_box(&traj), 0.75, 99, &obs, &prepared, &mut scratch)
                        .unwrap(),
                )
            });
        });
    }
    let obs_both =
        ObservedData::cases_and_deaths((0..33).map(|d| 150.0 + d as f64).collect(), vec![1.0; 33]);
    let prepared = PreparedObserved::build(&obs_both, window).unwrap();
    let mut scratch = ScoreScratch::new();
    group.bench_function("cases_and_deaths_sampled", |b| {
        b.iter(|| {
            black_box(
                score_window(
                    black_box(&traj),
                    0.75,
                    99,
                    &obs_both,
                    &prepared,
                    &mut scratch,
                )
                .unwrap(),
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_gaussian, bench_score_window);
criterion_main!(benches);
