//! Statistical-substrate cost: 2-D KDE evaluation (the Fig 4b/5b contour
//! grids), weighted quantiles (ribbon construction), and CRPS scoring.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epistats::kde::Kde2d;
use epistats::rng::Xoshiro256PlusPlus;
use epistats::score::crps;
use epistats::summary::weighted_quantile;
use std::hint::black_box;

fn samples(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut rng = Xoshiro256PlusPlus::new(seed);
    let xs: Vec<f64> = (0..n).map(|_| 0.3 + 0.05 * rng.next_f64()).collect();
    let ys: Vec<f64> = (0..n).map(|_| 0.7 + 0.1 * rng.next_f64()).collect();
    let ws: Vec<f64> = (0..n).map(|_| rng.next_f64() + 0.01).collect();
    (xs, ys, ws)
}

fn bench_kde(c: &mut Criterion) {
    let mut group = c.benchmark_group("kde");
    for n in [500usize, 2_000] {
        let (xs, ys, ws) = samples(n, 1);
        group.bench_function(BenchmarkId::new("kde2d_grid40", n), |b| {
            let kde = Kde2d::new(&xs, &ys, Some(&ws));
            b.iter(|| black_box(kde.grid((0.1, 0.5), (0.4, 1.0), 40, 40)));
        });
    }
    group.finish();
}

fn bench_summaries(c: &mut Criterion) {
    let mut group = c.benchmark_group("summaries");
    let (xs, _, ws) = samples(10_000, 3);
    group.bench_function("weighted_quantile_10k", |b| {
        b.iter(|| black_box(weighted_quantile(&xs, &ws, black_box(0.9))));
    });
    let ens: Vec<f64> = xs[..500].to_vec();
    group.bench_function("crps_500", |b| {
        b.iter(|| black_box(crps(&ens, black_box(0.32), None)));
    });
    group.finish();
}

criterion_group!(benches, bench_kde, bench_summaries);
criterion_main!(benches);
