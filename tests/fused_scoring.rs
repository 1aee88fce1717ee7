//! Bit-identity of the fused scoring path.
//!
//! The vectorized inner loop fuses per-day bias transformation and
//! likelihood terms into the window walk ([`score_window`]'s
//! fused day loop) instead of materializing float/observation buffers
//! first. The fusion must be *invisible* in the results: for every
//! stepper, model, bias, and likelihood combination, the fused score has
//! to be bit-identical (`total_cmp`) to the materialize-then-score
//! fallback on the same bias stream. These tests force the fallback
//! through delegating wrappers that keep the trait defaults (`None` from
//! `observe_one` / `prepared_day_term`) and compare both paths through
//! the public scoring API.

use std::sync::Arc;

use epismc::prelude::*;
use epismc::sim::covid_age::{CovidAgeModel, CovidAgeParams};
use epismc::sim::engine::{CompiledSpec, StepScratch};
use epismc::sim::{ModelSpec, SimState};
use epismc::smc::likelihood::GaussianRawLikelihood;
use epismc::smc::observation::BiasModel;
use epismc::smc::sis::{score_window, DataSource, ObservedSeries, PreparedObserved, ScoreScratch};

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

/// Delegates `observe`/`observe_into` to the wrapped bias but keeps the
/// default `observe_one` (`None`), forcing the scorer's materialized
/// fallback while consuming the identical bias stream.
struct MaterializedBias<B: BiasModel>(B);

impl<B: BiasModel> BiasModel for MaterializedBias<B> {
    fn observe(&self, truth: &[f64], rho: f64, rng: &mut Xoshiro256PlusPlus) -> Vec<f64> {
        self.0.observe(truth, rho, rng)
    }

    fn observe_into(
        &self,
        truth: &[f64],
        rho: f64,
        rng: &mut Xoshiro256PlusPlus,
        out: &mut Vec<f64>,
    ) {
        self.0.observe_into(truth, rho, rng, out);
    }

    fn uses_rho(&self) -> bool {
        self.0.uses_rho()
    }

    fn name(&self) -> &'static str {
        "materialized-wrapper"
    }
}

/// Delegates `log_likelihood` but keeps both per-day defaults, forcing
/// the fallback from the likelihood side.
struct MaterializedLik<L: Likelihood>(L);

impl<L: Likelihood> Likelihood for MaterializedLik<L> {
    fn log_likelihood(&self, observed: &[f64], simulated: &[f64]) -> f64 {
        self.0.log_likelihood(observed, simulated)
    }

    fn name(&self) -> &'static str {
        "materialized-wrapper"
    }
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
            format!("{model}/tau-leap"),
            simulate(spec.clone(), state.clone(), TauLeapStepper::new(4), 40),
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

/// The same two sources with the bias forced down the materialized path.
fn fallback_by_bias() -> ObservedData {
    let (cases, deaths) = observed_curves();
    ObservedData {
        sources: vec![
            DataSource {
                series: "infections".into(),
                observed: ObservedSeries::from_day_one(cases),
                bias: Arc::new(MaterializedBias(BinomialBias::sampled())),
                likelihood: Arc::new(GaussianSqrtLikelihood::paper()),
            },
            DataSource {
                series: "deaths".into(),
                observed: ObservedSeries::from_day_one(deaths),
                bias: Arc::new(MaterializedBias(IdentityBias)),
                likelihood: Arc::new(GaussianSqrtLikelihood::paper()),
            },
        ],
    }
}

/// The same two sources with the likelihood forced down the materialized
/// path (per-day bias still available — fusion requires both halves).
fn fallback_by_likelihood() -> ObservedData {
    let (cases, deaths) = observed_curves();
    ObservedData {
        sources: vec![
            DataSource {
                series: "infections".into(),
                observed: ObservedSeries::from_day_one(cases),
                bias: Arc::new(BinomialBias::sampled()),
                likelihood: Arc::new(MaterializedLik(GaussianSqrtLikelihood::paper())),
            },
            DataSource {
                series: "deaths".into(),
                observed: ObservedSeries::from_day_one(deaths),
                bias: Arc::new(IdentityBias),
                likelihood: Arc::new(MaterializedLik(GaussianSqrtLikelihood::paper())),
            },
        ],
    }
}

#[test]
fn fused_matches_materialized_across_steppers_and_models() {
    let window = TimeWindow::new(10, 30);
    let fused_obs = paper_sources();
    let bias_fb = fallback_by_bias();
    let lik_fb = fallback_by_likelihood();
    for (label, traj) in trajectories() {
        for (rho, bias_seed) in [(0.4, 77u64), (0.9, 1234), (0.0, 9), (1.0, 5000)] {
            let mut sc = ScoreScratch::new();
            let fused = score_fresh(&traj, rho, bias_seed, &fused_obs, window, &mut sc).unwrap();
            assert_eq!(sc.fused_scores(), 2, "{label}: both sources must fuse");

            let mut sc = ScoreScratch::new();
            let via_bias = score_fresh(&traj, rho, bias_seed, &bias_fb, window, &mut sc).unwrap();
            assert_eq!(sc.fused_scores(), 0, "{label}: wrapper must force fallback");

            let mut sc = ScoreScratch::new();
            let via_lik = score_fresh(&traj, rho, bias_seed, &lik_fb, window, &mut sc).unwrap();
            assert_eq!(sc.fused_scores(), 0, "{label}: wrapper must force fallback");

            assert!(
                fused.total_cmp(&via_bias).is_eq(),
                "{label} rho {rho}: fused {fused:?} != bias-fallback {via_bias:?}"
            );
            assert!(
                fused.total_cmp(&via_lik).is_eq(),
                "{label} rho {rho}: fused {fused:?} != likelihood-fallback {via_lik:?}"
            );
        }
    }
}

#[test]
fn fused_matches_materialized_for_raw_gaussian_and_negbinomial() {
    let window = TimeWindow::new(10, 30);
    let (cases, _) = observed_curves();
    let liks: Vec<(Arc<dyn Likelihood>, Arc<dyn Likelihood>)> = vec![
        (
            Arc::new(GaussianRawLikelihood::new(2.0)),
            Arc::new(MaterializedLik(GaussianRawLikelihood::new(2.0))),
        ),
        (
            Arc::new(NegBinomialLikelihood::new(8.0)),
            Arc::new(MaterializedLik(NegBinomialLikelihood::new(8.0))),
        ),
    ];
    for (label, traj) in trajectories() {
        for (fused_lik, fallback_lik) in &liks {
            let make = |lik: &Arc<dyn Likelihood>| ObservedData {
                sources: vec![DataSource {
                    series: "infections".into(),
                    observed: ObservedSeries::from_day_one(cases.clone()),
                    bias: Arc::new(BinomialBias::sampled()),
                    likelihood: Arc::clone(lik),
                }],
            };
            let mut sc = ScoreScratch::new();
            let fused = score_fresh(&traj, 0.55, 42, &make(fused_lik), window, &mut sc).unwrap();
            assert_eq!(sc.fused_scores(), 1, "{label}");
            let mut sc = ScoreScratch::new();
            let mat = score_fresh(&traj, 0.55, 42, &make(fallback_lik), window, &mut sc).unwrap();
            assert_eq!(sc.fused_scores(), 0, "{label}");
            assert!(
                fused.total_cmp(&mat).is_eq(),
                "{label} ({}): fused {fused:?} != materialized {mat:?}",
                fused_lik.name()
            );
        }
    }
}

#[test]
fn delayed_bias_takes_the_fallback_and_zero_lag_matches_plain_binomial() {
    // DelayedBinomialBias deliberately has no per-day form (cross-day
    // state), so it must take the materialized fallback. With all delay
    // mass at lag zero it is stream-equivalent to plain BinomialBias
    // (zero-count days consume no draws in either), so the fallback
    // score must be bit-identical to the plain model's fused score.
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
        assert_eq!(sc.fused_scores(), 0, "{label}: delay must not fuse");
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
    // A warm scratch (carrying another window's buffers) and a shared
    // PreparedObserved must give the same bits as fresh ones — the
    // grid-pass reuse pattern.
    let window = TimeWindow::new(12, 28);
    let observed = paper_sources();
    let prepared = PreparedObserved::build(&observed, window).unwrap();
    assert_eq!(prepared.window(), window);
    let trajs = trajectories();
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

#[test]
fn batched_draw_counter_is_deterministic_and_live() {
    // The batched_draws telemetry counts stages pushed through the
    // steppers' batched entry points: nonzero for the batching steppers,
    // identical across reruns of the same configuration.
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
    let chain = count(&BinomialChainStepper::daily());
    let tau = count(&TauLeapStepper::new(4));
    assert!(chain > 0, "chain stepper issued no batched draws");
    assert!(tau > chain, "tau-leap (4 leaps/day) should batch more");
    assert_eq!(chain, count(&BinomialChainStepper::daily()));
    assert_eq!(tau, count(&TauLeapStepper::new(4)));
}
