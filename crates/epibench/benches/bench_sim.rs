//! Simulator stepper throughput: the two stochastic integrators on the
//! same model specs, across population scales (the stepper-fidelity/cost
//! ablation of DESIGN.md).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use episim::covid::{CovidModel, CovidParams};
use episim::engine::{BinomialChainStepper, CompiledSpec, GillespieStepper, StepScratch, Stepper};
use episim::seir::{SeirModel, SeirParams};
use episim::state::SimState;
use std::hint::black_box;

/// One simulated day, averaged over a 30-day horizon from a fixed state
/// (restored each iteration so work per iteration is stable).
fn bench_days<S: Stepper>(
    group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>,
    label: &str,
    model: &CompiledSpec,
    stepper: &S,
    init: &SimState,
) {
    let n_flows = model.spec.flows.len();
    // State and scratch are reused across iterations (rehydrated in
    // place), matching the pooled-workspace hot path of the parallel
    // grid: steady-state iterations allocate nothing.
    let mut st = init.clone();
    let mut scratch = StepScratch::new();
    let mut flows = vec![0u64; n_flows];
    group.bench_function(BenchmarkId::from_parameter(label), |b| {
        b.iter(|| {
            st.assign_from(init);
            flows.iter_mut().for_each(|f| *f = 0);
            for _ in 0..30 {
                stepper.advance_day(model, &mut st, &mut flows, &mut scratch);
            }
            black_box(st.total_population())
        });
    });
}

fn bench_seir_steppers(c: &mut Criterion) {
    let mut group = c.benchmark_group("seir_30days");
    for pop in [1_000u64, 20_000] {
        let m = SeirModel::new(SeirParams {
            population: pop,
            initial_exposed: pop / 100,
            ..SeirParams::default()
        })
        .unwrap();
        let model = CompiledSpec::new(m.spec()).unwrap();
        let init = m.initial_state(1);
        bench_days(
            &mut group,
            &format!("chain_pop{pop}"),
            &model,
            &BinomialChainStepper::daily(),
            &init,
        );
        // Gillespie cost grows with event count; only the small population.
        if pop <= 1_000 {
            bench_days(
                &mut group,
                &format!("gillespie_pop{pop}"),
                &model,
                &GillespieStepper::new(),
                &init,
            );
        }
    }
    group.finish();
}

fn bench_covid_steppers(c: &mut Criterion) {
    let mut group = c.benchmark_group("covid_30days");
    for pop in [200_000u64, 2_700_000] {
        let m = CovidModel::new(CovidParams {
            population: pop,
            initial_exposed: pop / 1_000,
            ..CovidParams::default()
        })
        .unwrap();
        let model = CompiledSpec::new(m.spec()).unwrap();
        let init = m.initial_state(1);
        bench_days(
            &mut group,
            &format!("chain_pop{pop}"),
            &model,
            &BinomialChainStepper::daily(),
            &init,
        );
    }
    group.finish();
}

criterion_group!(benches, bench_seir_steppers, bench_covid_steppers);
criterion_main!(benches);
