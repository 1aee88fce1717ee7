//! Operational forecasting demo: calibrate through day 61 (three
//! windows), issue a posterior-predictive forecast for days 62–90, and
//! score it against the realized truth — which contains the paper's
//! day-62 transmission jump (theta 0.25 -> 0.40).
//!
//! The point this binary makes quantitatively: a forecast issued *before*
//! a regime change under-predicts (poor CRPS vs an oracle that knows the
//! new theta), and re-calibrating on the fourth window repairs it — the
//! operational argument for the paper's sequential scheme.

use epibench::{row, section, Args};
use epidata::{generate_ground_truth, io::Table};
use epismc_core::forecast::Forecaster;
use epismc_core::prior::JitterKernel;
use epismc_core::simulator::CovidSimulator;
use epismc_core::sis::{ObservedData, Priors, SequentialCalibrator};
use epismc_core::window::{TimeWindow, WindowPlan};
use epistats::score::pit_uniformity_statistic;

fn main() {
    let args = Args::parse("forecast", Args::default());
    let scenario = args.scenario();
    let truth = generate_ground_truth(&scenario, scenario.truth_seed);
    let simulator = CovidSimulator::new(scenario.base_params.clone()).expect("params");
    let observed = ObservedData::cases_only_with(truth.observed_cases.clone(), args.bias_mode, 1.0);
    println!(
        "forecast: calibrate '{}' through day 61, forecast days 62..90 ({} x {})",
        scenario.name, args.n_params, args.n_replicates
    );

    let make_calibrator = || {
        SequentialCalibrator::new(
            &simulator,
            args.config(),
            vec![JitterKernel::symmetric(0.10, 0.05, 0.8)],
            JitterKernel::asymmetric(0.05, 0.06, 0.05, 1.0),
        )
    };

    // Calibrate through day 61 only (the pre-jump information set).
    let plan3 = WindowPlan::new(vec![
        TimeWindow::new(20, 33),
        TimeWindow::new(34, 47),
        TimeWindow::new(48, 61),
    ]);
    let started = std::time::Instant::now();
    let res3 = make_calibrator()
        .run(&Priors::paper(), &observed, &plan3)
        .expect("calibration");
    println!(
        "3-window calibration done in {:.1}s",
        started.elapsed().as_secs_f64()
    );

    let horizon_days = scenario.horizon - 61;
    let future_truth: Vec<f64> = truth.true_cases[61..scenario.horizon as usize].to_vec();
    let fc = Forecaster::new(&simulator, args.threads).expect("forecaster");

    // (a) the honest day-61 forecast,
    let honest = fc
        .forecast(
            res3.final_posterior(),
            horizon_days,
            300,
            9,
            &["infections"],
        )
        .expect("forecast");
    // (b) an oracle that knows the post-jump theta,
    let oracle = fc
        .forecast_with(
            res3.final_posterior(),
            horizon_days,
            300,
            9,
            &["infections"],
            |_| vec![0.40],
        )
        .expect("forecast");

    section("forecast skill on days 62..90 (truth contains the theta jump)");
    let crps_honest = honest.mean_crps("infections", &future_truth);
    let crps_oracle = oracle.mean_crps("infections", &future_truth);
    let pit_honest = pit_uniformity_statistic(&honest.pits("infections", &future_truth), 5);
    let widths = [24, 12, 14];
    println!(
        "{}",
        row(
            &["forecast", "mean_CRPS", "PIT_chi2(4)"].map(String::from),
            &widths
        )
    );
    println!(
        "{}",
        row(
            &[
                "day-61 posterior".into(),
                format!("{crps_honest:.1}"),
                format!("{pit_honest:.1}"),
            ],
            &widths
        )
    );
    println!(
        "{}",
        row(
            &[
                "oracle theta=0.40".into(),
                format!("{crps_oracle:.1}"),
                "-".into(),
            ],
            &widths
        )
    );
    println!(
        "regime-change penalty: CRPS ratio {:.1}x (the cost of not re-calibrating)",
        crps_honest / crps_oracle.max(1e-9)
    );

    // (c) re-calibrate with the fourth window and verify the repaired
    // posterior forecasts the tail better.
    let plan4 = WindowPlan::paper(scenario.horizon);
    let res4 = make_calibrator()
        .run(&Priors::paper(), &observed, &plan4)
        .expect("calibration");
    section("after re-calibrating on window [62, 90]");
    println!(
        "posterior theta: day-61 {:.3} -> day-90 {:.3}  (truth after jump: 0.40)",
        res3.final_posterior().mean_theta(0),
        res4.final_posterior().mean_theta(0)
    );

    // CSV artifact: honest forecast band vs truth.
    let (days, lo, med, hi) = honest.band("infections", 0.05, 0.95);
    let table = Table::from_pairs(vec![
        ("day", days.iter().map(|&d| d as f64).collect()),
        ("true_cases", future_truth.clone()),
        ("forecast_q05", lo),
        ("forecast_q50", med),
        ("forecast_q95", hi),
    ]);
    let path = args.out_dir.join("forecast_day61.csv");
    table.write_csv(&path).expect("write csv");
    println!("\nwrote {}", path.display());
}
