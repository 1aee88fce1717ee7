//! Integration tests of the extension layers working against the real
//! COVID simulator: posterior-predictive forecasting, PMMH resample-move
//! rejuvenation, and the declarative SBC validator — each exercised
//! through the public facade. Restarting from stored states is covered
//! by `tests/streaming_equivalence.rs`; the PMMH kernel's mixing and
//! determinism by `tests/rejuvenation_kernels.rs`.

use epismc::prelude::*;
use epismc::smc::forecast::Forecaster;

fn setup() -> (Scenario, GroundTruth, CovidSimulator) {
    let scenario = Scenario::paper_tiny();
    let truth = generate_ground_truth(&scenario, scenario.truth_seed);
    let simulator = CovidSimulator::new(scenario.base_params.clone()).unwrap();
    (scenario, truth, simulator)
}

fn config(seed: u64) -> CalibrationConfig {
    CalibrationConfig::builder()
        .n_params(200)
        .n_replicates(5)
        .resample_size(400)
        .seed(seed)
        .build()
}

#[test]
fn forecast_from_calibrated_posterior_is_sane() {
    let (_, truth, simulator) = setup();
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let window = TimeWindow::new(20, 47);
    let result = SingleWindowIs::new(&simulator, config(1))
        .run(&Priors::paper(), &observed, window)
        .unwrap();

    let forecast = Forecaster::new(&simulator, None)
        .unwrap()
        .forecast(&result.posterior, 20, 60, 7, &["infections", "deaths"])
        .unwrap();
    assert_eq!(forecast.start_day, 48);
    assert_eq!(forecast.len(), 20);

    // The realized truth lies mostly inside the 90% band for the first
    // forecast week (uncertainty compounds later).
    let (_, lo, _, hi) = forecast.band("infections", 0.05, 0.95);
    let mut inside = 0;
    for d in 0..7usize {
        let y = truth.true_cases[47 + d];
        if y >= lo[d] && y <= hi[d] {
            inside += 1;
        }
    }
    assert!(inside >= 4, "only {inside}/7 early forecast days covered");

    // CRPS of the calibrated forecast beats a deliberately wrong one.
    let future: Vec<f64> = truth.true_cases[47..67].to_vec();
    let good = forecast.mean_crps("infections", &future);
    let bad = Forecaster::new(&simulator, None)
        .unwrap()
        .forecast_with(&result.posterior, 20, 60, 7, &["infections"], |_| {
            vec![0.05]
        })
        .unwrap()
        .mean_crps("infections", &future);
    assert!(good < bad, "calibrated CRPS {good:.1} vs wrong {bad:.1}");
}

#[test]
fn rejuvenation_diversifies_a_covid_posterior() {
    // Same seed and single-window plan with and without the PMMH move
    // pass: the uniform-jitter run's posterior is exactly the ensemble
    // the pass moves, so the pass must add distinct inputs to it.
    let (_, truth, simulator) = setup();
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let window = TimeWindow::new(20, 33);
    let plan = WindowPlan::new(vec![window]);
    let run = |kernel: RejuvenationKernel| {
        let mut cfg = config(2);
        cfg.rejuvenation = kernel;
        SequentialCalibrator::new(
            &simulator,
            cfg,
            vec![JitterKernel::symmetric(0.02, 0.05, 0.8)],
            JitterKernel::symmetric(0.05, 0.05, 1.0),
        )
        .run(&Priors::paper(), &observed, &plan)
        .unwrap()
    };
    let before = run(RejuvenationKernel::UniformJitter).windows[0]
        .posterior
        .unique_inputs();
    let pmmh = PmmhConfig {
        moves: 1,
        ..PmmhConfig::default()
    };
    let result = run(RejuvenationKernel::Pmmh(pmmh));
    let win = &result.windows[0];
    let posterior = &win.posterior;

    let stats = win.rejuvenation.expect("PMMH pass must report stats");
    assert_eq!(stats.proposed, posterior.len());
    assert!(posterior.unique_inputs() > before);
    // Post-move trajectories still span the window.
    for p in posterior.particles().iter().take(5) {
        assert!(p
            .trajectory
            .window("infections", window.start, window.end)
            .is_some());
        assert_eq!(p.checkpoint.day, window.end);
    }
    // Posterior still near the data-supported region.
    let th = PosteriorSummary::of_theta(posterior, 0);
    assert!(th.covers(truth.theta_truth[19]) || (th.mean - truth.theta_truth[19]).abs() < 0.08);
}

#[test]
fn sbc_runs_through_the_public_api() {
    use epismc::smc::validate::{run_sbc, SbcConfig};
    let simulator = epismc::smc::simulator::SeirSimulator::new(epismc::sim::seir::SeirParams {
        population: 6_000,
        initial_exposed: 30,
        ..Default::default()
    })
    .unwrap();
    let priors = Priors {
        theta: vec![Box::new(UniformPrior::new(0.2, 0.7))],
        rho: Box::new(BetaPrior::new(4.0, 1.0)),
    };
    let result = run_sbc(
        &simulator,
        &priors,
        &SbcConfig {
            replicates: 10,
            subsample: 10,
            window: TimeWindow::new(5, 20),
            seed: 12,
            calibration: CalibrationConfig::builder()
                .n_params(60)
                .n_replicates(3)
                .resample_size(100)
                .seed(1)
                .build(),
        },
    )
    .unwrap();
    assert_eq!(result.theta_ranks.len(), 10);
    assert!(result.theta_ranks.iter().all(|&r| r <= 10));
    // Ranks are not all identical (the posterior actually moves).
    let distinct: std::collections::HashSet<usize> = result.theta_ranks.iter().copied().collect();
    assert!(
        distinct.len() > 2,
        "degenerate SBC ranks: {:?}",
        result.theta_ranks
    );
}
