//! Bit-identity of the fused scoring loop.
//!
//! [`score_window`] walks each source's simulated window once, mapping
//! every day through the bias model's per-day transform
//! (`BiasModel::observe_one`) and the likelihood's per-day term
//! (`Likelihood::prepared_day_term`), with no materialized observation
//! buffer. That fusion must be *invisible* in the results: for every
//! stepper, model, bias (reporting delays included) and likelihood, the
//! fused score has to be bit-identical (`total_cmp`) to the whole-window
//! reference — each source's `log_likelihood` of the observed window
//! against `observe` of the simulated one, on the scorer's bias stream —
//! summed over sources in order.

use std::sync::Arc;

use epismc::prelude::*;
use epismc::sim::covid_age::{CovidAgeModel, CovidAgeParams};
use epismc::sim::engine::{CompiledSpec, StepScratch};
use epismc::sim::{ModelSpec, SimState};
use epismc::smc::likelihood::GaussianRawLikelihood;
use epismc::smc::observation::BiasModel;
use epismc::smc::sis::{score_window, DataSource, ObservedSeries, PreparedObserved, ScoreScratch};

/// The scorer's bias-stream tag: source `si` of a window starting on day
/// `start` thins on stream `[TAG_BIAS, start, si]` of the cell's bias
/// seed.
const TAG_BIAS: u64 = 0xB1A5_0002;

/// Score through a freshly built per-window preparation and the given
/// scratch.
fn score_fresh(
    trajectory: &SharedTrajectory,
    rho: f64,
    bias_seed: u64,
    observed: &ObservedData,
    window: TimeWindow,
    scratch: &mut ScoreScratch,
) -> Result<f64, SmcError> {
    let prepared = PreparedObserved::build(observed, window)?;
    score_window(trajectory, rho, bias_seed, observed, &prepared, scratch)
}

/// The whole-window reference: per source, materialize the simulated
/// window, transform it with `observe` on the scorer's bias stream and
/// score it with `log_likelihood`; sum the sources in order from `-0.0`.
fn whole_window(
    trajectory: &SharedTrajectory,
    rho: f64,
    bias_seed: u64,
    observed: &ObservedData,
    window: TimeWindow,
) -> f64 {
    let mut total = -0.0;
    for (si, src) in observed.sources.iter().enumerate() {
        let sim: Vec<f64> = trajectory
            .window(&src.series, window.start, window.end)
            .unwrap()
            .iter()
            .map(|&v| v as f64)
            .collect();
        let obs = src.observed.window(window.start, window.end).unwrap();
        let mut rng =
            Xoshiro256PlusPlus::from_stream(bias_seed, &[TAG_BIAS, window.start as u64, si as u64]);
        total += src
            .likelihood
            .log_likelihood(obs, &src.bias.observe(&sim, rho, &mut rng));
    }
    total
}

/// Run `stepper` over `spec` for `days` days and wrap the output series
/// as a root trajectory (day 1 onward).
fn simulate(
    spec: ModelSpec,
    state: SimState,
    stepper: impl Stepper,
    days: u32,
) -> SharedTrajectory {
    let mut sim = Simulation::new(spec, stepper, state).unwrap();
    sim.run_until(days);
    SharedTrajectory::root(sim.into_series())
}

/// One trajectory per stepper, per covid model (single-population and
/// age-structured — both expose the scored `infections`/`deaths` flows).
fn trajectories() -> Vec<(String, SharedTrajectory)> {
    let covid = CovidModel::new(CovidParams {
        population: 8_000,
        initial_exposed: 40,
        ..CovidParams::default()
    })
    .unwrap();
    let aged = CovidAgeModel::new(CovidAgeParams::three_groups(8_000, 40)).unwrap();
    let specs = [
        ("covid", covid.spec(), covid.initial_state(31)),
        ("covid-age", aged.spec(), aged.initial_state(31)),
    ];
    let mut out = Vec::new();
    for (model, spec, state) in specs {
        out.push((
            format!("{model}/chain"),
            simulate(
                spec.clone(),
                state.clone(),
                BinomialChainStepper::daily(),
                40,
            ),
        ));
        out.push((
            format!("{model}/gillespie"),
            simulate(spec, state, GillespieStepper::new(), 40),
        ));
    }
    out
}

/// Synthetic observed curves long enough to cover the scored window.
fn observed_curves() -> (Vec<f64>, Vec<f64>) {
    let cases: Vec<f64> = (0..45).map(|d| ((d * 7) % 60) as f64).collect();
    let deaths: Vec<f64> = (0..45).map(|d| ((d * 3) % 11) as f64).collect();
    (cases, deaths)
}

fn paper_sources() -> ObservedData {
    let (cases, deaths) = observed_curves();
    ObservedData::cases_and_deaths(cases, deaths)
}

/// Reporting delays for the cases source: a geometric tail, and a pmf
/// with no mass at lag zero.
fn delays(mode: BiasMode) -> [DelayedBinomialBias; 2] {
    [
        DelayedBinomialBias::geometric(mode, 2.0, 6),
        DelayedBinomialBias::new(mode, vec![0.0, 0.6, 0.4]),
    ]
}

/// Delayed cases plus unbiased deaths, both on the paper's likelihood.
fn delayed_sources(delay: DelayedBinomialBias) -> ObservedData {
    let (cases, deaths) = observed_curves();
    ObservedData {
        sources: vec![
            DataSource {
                series: "infections".into(),
                observed: ObservedSeries::from_day_one(cases),
                bias: Arc::new(delay),
                likelihood: Arc::new(GaussianSqrtLikelihood::paper()),
            },
            DataSource {
                series: "deaths".into(),
                observed: ObservedSeries::from_day_one(deaths),
                bias: Arc::new(IdentityBias),
                likelihood: Arc::new(GaussianSqrtLikelihood::paper()),
            },
        ],
    }
}

#[test]
fn fused_matches_materialized_across_steppers_and_models() {
    let window = TimeWindow::new(10, 30);
    let mut sets = vec![("paper".to_string(), paper_sources())];
    for mode in [BiasMode::Sampled, BiasMode::Mean] {
        for delay in delays(mode) {
            let set = format!("{mode:?} {}-day delay", delay.delay_pmf.len());
            sets.push((set, delayed_sources(delay)));
        }
    }
    for (label, traj) in trajectories() {
        for (set, observed) in &sets {
            for (rho, bias_seed) in [(0.4, 77u64), (0.9, 1234), (0.0, 9), (1.0, 5000)] {
                let mut sc = ScoreScratch::new();
                let fused = score_fresh(&traj, rho, bias_seed, observed, window, &mut sc).unwrap();
                assert_eq!(sc.fused_scores(), 2, "{label} {set}: one pass per source");
                let want = whole_window(&traj, rho, bias_seed, observed, window);
                assert!(
                    fused.total_cmp(&want).is_eq(),
                    "{label} {set} rho {rho}: fused {fused:?} != whole-window {want:?}"
                );
            }
        }
    }
}

#[test]
fn fused_matches_materialized_for_raw_gaussian_and_negbinomial() {
    let window = TimeWindow::new(10, 30);
    let (cases, _) = observed_curves();
    let liks: Vec<Arc<dyn Likelihood>> = vec![
        Arc::new(GaussianRawLikelihood::new(2.0)),
        Arc::new(NegBinomialLikelihood::new(8.0)),
    ];
    let mut biases: Vec<Arc<dyn BiasModel>> = vec![Arc::new(BinomialBias::sampled())];
    for mode in [BiasMode::Sampled, BiasMode::Mean] {
        biases.extend(delays(mode).map(|d| Arc::new(d) as Arc<dyn BiasModel>));
    }
    for (label, traj) in trajectories() {
        for lik in &liks {
            for bias in &biases {
                let observed = ObservedData {
                    sources: vec![DataSource {
                        series: "infections".into(),
                        observed: ObservedSeries::from_day_one(cases.clone()),
                        bias: Arc::clone(bias),
                        likelihood: Arc::clone(lik),
                    }],
                };
                let ctx = format!("{label} ({} / {})", lik.name(), bias.name());
                let mut sc = ScoreScratch::new();
                let fused = score_fresh(&traj, 0.55, 42, &observed, window, &mut sc).unwrap();
                assert_eq!(sc.fused_scores(), 1, "{ctx}");
                let want = whole_window(&traj, 0.55, 42, &observed, window);
                assert!(
                    fused.total_cmp(&want).is_eq(),
                    "{ctx}: fused {fused:?} != whole-window {want:?}"
                );
            }
        }
    }
}

#[test]
fn delayed_bias_fuses_and_zero_lag_matches_plain_binomial() {
    // With all delay mass at lag zero, DelayedBinomialBias is
    // stream-equivalent to plain BinomialBias (zero-count days consume
    // no draws in either), so both models fuse and score bit-identically.
    let window = TimeWindow::new(10, 30);
    let (cases, _) = observed_curves();
    let source = |bias: Arc<dyn BiasModel>| ObservedData {
        sources: vec![DataSource {
            series: "infections".into(),
            observed: ObservedSeries::from_day_one(cases.clone()),
            bias,
            likelihood: Arc::new(GaussianSqrtLikelihood::paper()),
        }],
    };
    let delayed = source(Arc::new(DelayedBinomialBias::new(
        BiasMode::Sampled,
        vec![1.0],
    )));
    let plain = source(Arc::new(BinomialBias::sampled()));
    for (label, traj) in trajectories() {
        let mut sc = ScoreScratch::new();
        let got_delayed = score_fresh(&traj, 0.7, 99, &delayed, window, &mut sc).unwrap();
        assert_eq!(sc.fused_scores(), 1, "{label}: delay must fuse");
        let mut sc = ScoreScratch::new();
        let got_plain = score_fresh(&traj, 0.7, 99, &plain, window, &mut sc).unwrap();
        assert_eq!(sc.fused_scores(), 1, "{label}: plain binomial must fuse");
        assert!(
            got_delayed.total_cmp(&got_plain).is_eq(),
            "{label}: zero-lag delayed {got_delayed:?} != plain {got_plain:?}"
        );
    }
}

#[test]
fn scratch_state_and_prepared_reuse_never_change_scores() {
    // A warm scratch (carrying another window's buffers and delay queue)
    // and a shared PreparedObserved must give the same bits as fresh
    // ones — the grid-pass reuse pattern.
    let window = TimeWindow::new(12, 28);
    let trajs = trajectories();
    let [delayed, _] = delays(BiasMode::Sampled);
    for observed in [paper_sources(), delayed_sources(delayed)] {
        let prepared = PreparedObserved::build(&observed, window).unwrap();
        assert_eq!(prepared.window(), window);
        let mut warm = ScoreScratch::new();
        // Warm the scratch on a different window and trajectory first.
        let _ = score_fresh(
            &trajs[0].1,
            0.3,
            1,
            &observed,
            TimeWindow::new(5, 20),
            &mut warm,
        )
        .unwrap();
        for (label, traj) in &trajs {
            let fresh =
                score_fresh(traj, 0.6, 2718, &observed, window, &mut ScoreScratch::new()).unwrap();
            let reused = score_window(traj, 0.6, 2718, &observed, &prepared, &mut warm).unwrap();
            assert!(
                fresh.total_cmp(&reused).is_eq(),
                "{label}: fresh {fresh:?} != warm/prepared {reused:?}"
            );
        }
    }
}

#[test]
fn batched_draw_counter_is_deterministic_and_live() {
    // The batched_draws telemetry counts stages pushed through the chain
    // stepper's batched entry point: nonzero, growing with the work done
    // (four substeps a day batch more than one), and identical across
    // reruns of the same configuration.
    let covid = CovidModel::new(CovidParams {
        population: 8_000,
        initial_exposed: 40,
        ..CovidParams::default()
    })
    .unwrap();
    let count = |stepper: &dyn Stepper| -> u64 {
        let model = CompiledSpec::new(covid.spec()).unwrap();
        let mut scratch = StepScratch::new();
        let mut state = covid.initial_state(7);
        let mut flows = vec![0u64; model.spec.flows.len()];
        for _ in 0..20 {
            stepper.advance_day(&model, &mut state, &mut flows, &mut scratch);
        }
        scratch.batched_draws()
    };
    let quarter_day = || BinomialChainStepper::try_with_substeps(4).unwrap();
    let chain = count(&BinomialChainStepper::daily());
    let fine = count(&quarter_day());
    assert!(chain > 0, "chain stepper issued no batched draws");
    assert!(fine > chain, "4 substeps/day should batch more");
    assert_eq!(chain, count(&BinomialChainStepper::daily()));
    assert_eq!(fine, count(&quarter_day()));
}
