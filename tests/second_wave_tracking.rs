//! The calibrator on non-monotone dynamics: the `second_wave` scenario
//! suppresses transmission far below threshold and then relaxes it. The
//! sequential scheme, on weekly windows after the first wave, must
//! track the down-up trajectory of theta.

use epismc::prelude::*;

#[test]
fn sequential_calibration_follows_suppression_and_relaxation() {
    let mut scenario = epismc::data::Scenario::second_wave();
    scenario.base_params.population = 30_000;
    scenario.base_params.initial_exposed = 60;
    let truth = generate_ground_truth(&scenario, 5);
    let simulator = CovidSimulator::new(scenario.base_params.clone()).unwrap();

    let config = CalibrationConfig::builder()
        .n_params(300)
        .n_replicates(6)
        .resample_size(600)
        .seed(8)
        .build();
    let calibrator = SequentialCalibrator::new(
        &simulator,
        config,
        vec![JitterKernel::symmetric(0.15, 0.03, 0.8)],
        JitterKernel::asymmetric(0.05, 0.05, 0.05, 1.0),
    );
    // Wave 1 as one window, then weekly windows through suppression,
    // trough and wave 2: [31,37], ..., [94,100], then [101,110].
    let weekly = WindowPlan::regular(31, 7, 110);
    let plan = WindowPlan::new(
        std::iter::once(TimeWindow::new(15, 30))
            .chain(weekly.windows().iter().copied())
            .collect(),
    );
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let result = calibrator.run(&Priors::paper(), &observed, &plan).unwrap();
    let trace = result.parameter_trace();
    let theta_in = |start: u32| {
        let t = trace.iter().find(|t| t.0.start == start).unwrap();
        t.1
    };

    // Wave 1 (truth 0.42): near the prior's upper region.
    let wave1 = theta_in(15);
    assert!(wave1 > 0.3, "wave-1 estimate {wave1:.3}");
    // Suppression (truth 0.12): a clear drop by [45, 51].
    let suppressed = theta_in(45);
    assert!(
        suppressed < wave1 - 0.10,
        "suppression not tracked: {wave1:.3} -> {suppressed:.3}"
    );
    // Relaxation (truth 0.45 from day 80): a clear rebound in the last
    // window relative to the trough over [31, 37] through [73, 79].
    let trough = (31..=73)
        .step_by(7)
        .map(theta_in)
        .fold(f64::INFINITY, f64::min);
    let last = theta_in(101);
    assert!(
        last > trough + 0.10,
        "relaxation not tracked: trough {trough:.3}, final {last:.3}"
    );
    // And the rebound lands on the truth.
    assert!(
        (last - 0.45).abs() < 0.05,
        "final estimate {last:.3}, truth 0.45"
    );
}
