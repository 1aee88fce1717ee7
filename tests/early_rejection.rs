//! Exact early rejection in the PMMH move pass. The pass stops
//! re-simulating a proposal once a floating-point upper bound on its
//! window log-likelihood already fails the acceptance test, so every
//! accept/reject decision must be the one the full window makes.
//!
//! Three checks pin that:
//! - every likelihood that declares a per-day bound is never above it,
//!   for any observed and simulated value;
//! - the same data scored through likelihoods that declare no bound,
//!   where the pass never stops early, gives the same posteriors and
//!   acceptance counts, also when a stream's window starts inside the
//!   history a particle keeps;
//! - a simulator wrapper that forwards only the four run methods, as a
//!   tracing wrapper does, takes the `run_scored_in` default, which
//!   simulates every window in full and replays its days. Its PMMH runs
//!   must be bit-identical to the built-in adapter's early-exit runs,
//!   with the same move counts, across thread shapes and data sources.

use std::sync::Arc;

use epismc::prelude::*;
use epismc::sim::workspace::SimWorkspace;
use epismc::smc::likelihood::GaussianRawLikelihood;
use epismc::smc::sis::DataSource;
use proptest::prelude::*;

/// Forwards only the required methods and the four run methods, so
/// `run_scored_in` is the trait default: full windows, replayed.
struct FullWindow<S>(S);

impl<S: TrajectorySimulator> TrajectorySimulator for FullWindow<S> {
    fn theta_dim(&self) -> usize {
        self.0.theta_dim()
    }

    fn output_names(&self) -> Vec<String> {
        self.0.output_names()
    }

    fn run_fresh(
        &self,
        theta: &[f64],
        seed: u64,
        end_day: u32,
    ) -> Result<(DailySeries, SimCheckpoint), SmcError> {
        self.0.run_fresh(theta, seed, end_day)
    }

    fn run_from(
        &self,
        checkpoint: &SimCheckpoint,
        theta: &[f64],
        seed: u64,
        end_day: u32,
    ) -> Result<(DailySeries, SimCheckpoint), SmcError> {
        self.0.run_from(checkpoint, theta, seed, end_day)
    }

    fn run_fresh_in(
        &self,
        ws: &mut SimWorkspace,
        theta: &[f64],
        seed: u64,
        end_day: u32,
    ) -> Result<(DailySeries, SimCheckpoint), SmcError> {
        self.0.run_fresh_in(ws, theta, seed, end_day)
    }

    fn run_from_in(
        &self,
        ws: &mut SimWorkspace,
        checkpoint: &SimCheckpoint,
        theta: &[f64],
        seed: u64,
        end_day: u32,
    ) -> Result<(DailySeries, SimCheckpoint), SmcError> {
        self.0.run_from_in(ws, checkpoint, theta, seed, end_day)
    }
}

/// The observed data a case of the matrix scores against.
#[derive(Clone, Copy, Debug)]
enum Sources {
    /// Sampled binomial cases, Gaussian on the sqrt scale.
    Cases,
    /// Cases plus unbiased deaths, both Gaussian on the sqrt scale.
    CasesAndDeaths,
    /// Cases reported with a geometric delay.
    DelayedCases,
    /// Cases plus deaths scored by a negative binomial, which declares
    /// no bound: the pass must never stop early.
    NegBinomialDeaths,
}

fn observed(sources: Sources, truth: &GroundTruth) -> ObservedData {
    let cases = truth.observed_cases.clone();
    let deaths = truth.deaths.clone();
    match sources {
        Sources::Cases => ObservedData::cases_only(cases),
        Sources::CasesAndDeaths => ObservedData::cases_and_deaths(cases, deaths),
        Sources::DelayedCases => ObservedData {
            sources: vec![DataSource {
                series: "infections".into(),
                observed: ObservedSeries::from_day_one(cases),
                bias: Arc::new(DelayedBinomialBias::geometric(BiasMode::Sampled, 2.0, 6)),
                likelihood: Arc::new(GaussianSqrtLikelihood::paper()),
            }],
        },
        Sources::NegBinomialDeaths => {
            let mut data = ObservedData::cases_and_deaths(cases, deaths);
            data.sources[1].likelihood = Arc::new(NegBinomialLikelihood::new(10.0));
            data
        }
    }
}

/// A likelihood that forwards everything but its bound, so a pass
/// scoring through it runs every proposal to its window end.
#[derive(Debug)]
struct NoBound(Arc<dyn Likelihood>);

impl Likelihood for NoBound {
    fn log_likelihood(&self, observed: &[f64], simulated: &[f64]) -> f64 {
        self.0.log_likelihood(observed, simulated)
    }

    fn prepare_observed(&self, observed: &[f64], out: &mut Vec<f64>) {
        self.0.prepare_observed(observed, out);
    }

    fn prepared_day_term(&self, prepared_y: f64, eta_obs: f64) -> f64 {
        self.0.prepared_day_term(prepared_y, eta_obs)
    }

    fn name(&self) -> &'static str {
        "no-bound"
    }
}

fn without_bounds(mut data: ObservedData) -> ObservedData {
    for src in &mut data.sources {
        src.likelihood = Arc::new(NoBound(Arc::clone(&src.likelihood)));
    }
    data
}

/// Two windows: the first from the prior, so its particles re-run from
/// day 0 and simulate 19 pre-window days the pass must not score.
fn plan() -> WindowPlan {
    WindowPlan::new(vec![TimeWindow::new(20, 33), TimeWindow::new(34, 47)])
}

fn calibrator<S: TrajectorySimulator>(
    simulator: &S,
    threads: usize,
) -> SequentialCalibrator<'_, S> {
    let mut cfg = CalibrationConfig::builder()
        .n_params(32)
        .n_replicates(2)
        .resample_size(64)
        .seed(4_242)
        .rejuvenation(RejuvenationKernel::Pmmh(PmmhConfig::default()))
        .build();
    cfg.threads = Some(threads);
    SequentialCalibrator::new(
        simulator,
        cfg,
        vec![JitterKernel::symmetric(0.08, 0.05, 0.8)],
        JitterKernel::asymmetric(0.05, 0.08, 0.05, 1.0),
    )
}

fn run<S: TrajectorySimulator>(
    simulator: &S,
    observed: &ObservedData,
    threads: usize,
) -> CalibrationResult {
    calibrator(simulator, threads)
        .run(&Priors::paper(), observed, &plan())
        .unwrap()
}

/// Everything a particle carries, with floats as bits.
type ParticleBits = (
    Vec<u64>,
    u64,
    u64,
    u64,
    DailySeries,
    SimCheckpoint,
    Option<SimCheckpoint>,
);

/// Per window: the posterior, the log marginal's bits and the move
/// counts `(proposed, accepted, decided_early, decision_days)`.
type WindowBits = (Vec<ParticleBits>, u64, (usize, usize, usize, usize));

fn bits(result: &CalibrationResult) -> Vec<WindowBits> {
    result
        .windows
        .iter()
        .map(|w| {
            let particles = w
                .posterior
                .particles()
                .iter()
                .map(|p| {
                    (
                        p.theta.iter().map(|t| t.to_bits()).collect(),
                        p.rho.to_bits(),
                        p.seed,
                        p.log_weight.to_bits(),
                        p.trajectory.flatten(),
                        (*p.checkpoint).clone(),
                        p.origin.as_deref().cloned(),
                    )
                })
                .collect();
            let stats = w.rejuvenation.expect("the PMMH pass ran");
            let counts = (
                stats.proposed,
                stats.accepted,
                stats.decided_early,
                stats.decision_days,
            );
            (particles, w.log_marginal.to_bits(), counts)
        })
        .collect()
}

#[test]
fn early_exit_matches_full_window_replay_across_sources_and_thread_shapes() {
    let scenario = Scenario::paper_tiny();
    let truth = generate_ground_truth(&scenario, scenario.truth_seed);
    let adapter = CovidSimulator::new(scenario.base_params).unwrap();
    let wrapper = FullWindow(adapter.clone());

    for sources in [
        Sources::Cases,
        Sources::CasesAndDeaths,
        Sources::DelayedCases,
        Sources::NegBinomialDeaths,
    ] {
        let observed = observed(sources, &truth);
        let reference = run(&adapter, &observed, 1);
        let want = bits(&reference);
        // Window 1 came from the prior: its particles re-ran from day 0.
        assert!(reference.windows[0]
            .posterior
            .particles()
            .iter()
            .all(|p| p.origin.is_none()));
        for threads in [1, 2, 4] {
            assert!(
                bits(&run(&adapter, &observed, threads)) == want,
                "{sources:?}: the early-exit run differs at {threads} thread(s)"
            );
            assert!(
                bits(&run(&wrapper, &observed, threads)) == want,
                "{sources:?}: the full-window run differs at {threads} thread(s)"
            );
        }

        // The full-window decisions: no bound, no early stop, and the
        // same posteriors and acceptance counts.
        let full = bits(&run(&adapter, &without_bounds(observed), 2));
        for (w, (got, want)) in full.iter().zip(&want).enumerate() {
            let ((gp, gm, gc), (wp, wm, wc)) = (got, want);
            assert!(
                gp == wp,
                "{sources:?} window {w}: posterior differs without bounds"
            );
            assert_eq!(gm, wm, "{sources:?} window {w}: log marginal");
            assert_eq!(
                (gc.0, gc.1, gc.2),
                (wc.0, wc.1, 0),
                "{sources:?} window {w}"
            );
        }

        for (w, (window, (_, _, counts))) in plan().windows().iter().zip(&want).enumerate() {
            let (proposed, accepted, decided_early, decision_days) = *counts;
            let full_days = proposed * window.len();
            assert!(
                proposed > 0 && accepted > 0,
                "{sources:?} window {w}: {counts:?}"
            );
            assert!(
                decided_early <= proposed - accepted,
                "{sources:?} window {w}"
            );
            assert!(decision_days <= full_days, "{sources:?} window {w}");
            match sources {
                Sources::NegBinomialDeaths => {
                    assert_eq!(decided_early, 0, "window {w}: no bound, no early stop");
                    assert_eq!(decision_days, full_days, "window {w}");
                }
                _ => {
                    assert!(
                        decided_early > 0,
                        "{sources:?} window {w}: nothing stopped early"
                    );
                    assert!(decision_days < full_days, "{sources:?} window {w}");
                }
            }
        }
    }
}

#[test]
fn an_origin_inside_the_window_scores_the_kept_history_first() {
    // A stream may start a window before its ancestors' checkpoints:
    // the move pass then scores the window days the kept history holds
    // before the re-simulated ones.
    let scenario = Scenario::paper_tiny();
    let truth = generate_ground_truth(&scenario, scenario.truth_seed);
    let simulator = CovidSimulator::new(scenario.base_params).unwrap();
    let advance = |observed: ObservedData| {
        let store = MemStore::new();
        let policy = CheckpointPolicy {
            every_windows: 1,
            retain: None,
        };
        let calibrator = calibrator(&simulator, 2);
        let mut stream =
            StreamingCalibrator::open(calibrator, Priors::paper(), observed, &store, policy)
                .unwrap();
        stream.advance_window(TimeWindow::new(20, 33)).unwrap();
        let overlapping = stream.advance_window(TimeWindow::new(30, 45)).unwrap();
        let origin = overlapping.posterior.particles()[0]
            .origin
            .as_ref()
            .unwrap();
        assert_eq!(origin.day, 33);
        let stats = overlapping.rejuvenation.unwrap();
        let bits: Vec<(u64, u64)> = overlapping
            .posterior
            .particles()
            .iter()
            .map(|p| (p.theta[0].to_bits(), p.rho.to_bits()))
            .collect();
        (bits, stats.accepted, stats.decided_early)
    };
    let observed =
        || ObservedData::cases_and_deaths(truth.observed_cases.clone(), truth.deaths.clone());
    let (early, accepted, decided_early) = advance(observed());
    let (full, full_accepted, full_early) = advance(without_bounds(observed()));
    assert!(early == full, "the kept-history window decides differently");
    assert_eq!((accepted, full_early), (full_accepted, 0));
    assert!(decided_early > 0);
}

/// A value of one of four kinds: zero, a fraction below one, an integer
/// count, or a huge magnitude up to `1e300`.
fn value(kind: usize, u: f64) -> f64 {
    match kind {
        0 => 0.0,
        1 => u,
        2 => (u * 1e6).round(),
        _ => 10f64.powf(u * 300.0),
    }
}

const SIGMAS: [f64; 6] = [1.0, 0.5, 2.5, 1e-3, 1e3, 0.1];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn bounded_day_terms_never_exceed_their_bound(
        y_kind in 0usize..4,
        y_u in 0.0f64..1.0,
        eta_kind in 0usize..4,
        eta_u in 0.0f64..1.0,
        sigma_idx in 0usize..6,
    ) {
        let (y, eta, sigma) = (value(y_kind, y_u), value(eta_kind, eta_u), SIGMAS[sigma_idx]);
        let likelihoods: [Box<dyn Likelihood>; 2] = [
            Box::new(GaussianSqrtLikelihood::new(sigma)),
            Box::new(GaussianRawLikelihood::new(sigma)),
        ];
        for l in &likelihoods {
            let mut prepared = Vec::new();
            l.prepare_observed(&[y], &mut prepared);
            let bound = l.day_term_bound(prepared[0]);
            prop_assert!(bound.is_finite(), "{}: bound {bound}", l.name());
            let term = l.prepared_day_term(prepared[0], eta);
            prop_assert!(
                term <= bound || term.is_nan(),
                "{} (sigma {sigma}): term {term} above bound {bound} at y {y}, eta {eta}",
                l.name()
            );
            // The bound is tight: a perfect match scores exactly it.
            let peak = l.prepared_day_term(prepared[0], y);
            prop_assert_eq!(peak.to_bits(), bound.to_bits());
        }
        // No bound declared: the pass never stops early on this source.
        let nb = NegBinomialLikelihood::new(sigma);
        prop_assert_eq!(nb.day_term_bound(y), f64::INFINITY);
    }
}
