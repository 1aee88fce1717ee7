//! Regenerates **Figure 5**: sequential calibration using reported cases
//! *and* deaths (Section V-C), and checks the paper's headline comparison
//! against Figure 4 — adding the death stream reduces posterior
//! uncertainty.
//!
//! Runs both configurations (cases-only and cases+deaths) at identical
//! settings and prints the credible-interval-width reduction.

use epibench::{done_in, row, section, Args};
use epidata::{generate_ground_truth, io::Table};
use epismc_core::diagnostics::{coverage, PosteriorSummary, Ribbon};
use epismc_core::prior::JitterKernel;
use epismc_core::simulator::CovidSimulator;
use epismc_core::sis::{CalibrationResult, ObservedData, Priors, SequentialCalibrator};
use epismc_core::window::WindowPlan;

fn run(
    simulator: &CovidSimulator,
    args: &Args,
    observed: &ObservedData,
    plan: &WindowPlan,
) -> CalibrationResult {
    let calibrator = SequentialCalibrator::new(
        simulator,
        args.config(),
        vec![JitterKernel::symmetric(0.10, 0.05, 0.8)],
        JitterKernel::asymmetric(0.05, 0.06, 0.05, 1.0),
    );
    calibrator
        .run(&Priors::paper(), observed, plan)
        .expect("calibration")
}

fn main() {
    let args = Args::parse();
    let scenario = args.scenario();
    let plan = WindowPlan::paper(scenario.horizon);
    println!(
        "fig5: cases+deaths vs cases-only on '{}', {} windows, {} x {} per window",
        scenario.name,
        plan.len(),
        args.n_params,
        args.n_replicates
    );

    let truth = generate_ground_truth(&scenario, scenario.truth_seed);
    let simulator = CovidSimulator::new(scenario.base_params.clone()).expect("params");

    let obs_cases =
        ObservedData::cases_only_with(truth.observed_cases.clone(), args.bias_mode, 1.0);
    let obs_both = ObservedData::cases_and_deaths_with(
        truth.observed_cases.clone(),
        truth.deaths.clone(),
        args.bias_mode,
        1.0,
    );

    let started = std::time::Instant::now();
    let res_cases = run(&simulator, &args, &obs_cases, &plan);
    let res_both = run(&simulator, &args, &obs_both, &plan);
    println!("{} (both runs)", done_in(started));

    // --- Fig 5b: per-window posteriors under both data configurations. ---
    section("per-window posterior vs truth  [Fig 5b]");
    let widths = [10, 9, 9, 9, 9, 9, 9, 8];
    println!(
        "{}",
        row(
            &[
                "window",
                "th_cases",
                "th_both",
                "th_true",
                "rho_cases",
                "rho_both",
                "rho_true",
                "sd_ratio"
            ]
            .map(String::from),
            &widths
        )
    );
    let mut trace_rows: Vec<[f64; 8]> = Vec::new();
    for (wc, wb) in res_cases.windows.iter().zip(&res_both.windows) {
        let tc = PosteriorSummary::of_theta(&wc.posterior, 0);
        let tb = PosteriorSummary::of_theta(&wb.posterior, 0);
        let rc = PosteriorSummary::of_rho(&wc.posterior);
        let rb = PosteriorSummary::of_rho(&wb.posterior);
        let th_true = truth.theta_truth[(wc.window.start - 1) as usize];
        let rho_true = truth.rho_truth[(wc.window.start - 1) as usize];
        // < 1 means deaths tightened the theta posterior in this window.
        let sd_ratio = tb.sd / tc.sd.max(1e-12);
        println!(
            "{}",
            row(
                &[
                    format!("[{},{}]", wc.window.start, wc.window.end),
                    format!("{:.3}", tc.mean),
                    format!("{:.3}", tb.mean),
                    format!("{th_true:.3}"),
                    format!("{:.3}", rc.mean),
                    format!("{:.3}", rb.mean),
                    format!("{rho_true:.3}"),
                    format!("{sd_ratio:.2}"),
                ],
                &widths
            )
        );
        trace_rows.push([
            wc.window.start as f64,
            tc.mean,
            tb.mean,
            th_true,
            rc.mean,
            rb.mean,
            rho_true,
            sd_ratio,
        ]);
    }

    // --- Fig 5a: ribbons under cases+deaths; width comparison. ---
    let lo = plan.windows()[0].start;
    let hi = plan.horizon();
    let span = |v: &[f64]| -> Vec<f64> { (lo..=hi).map(|d| v[(d - 1) as usize]).collect() };
    let obs_span = span(&truth.observed_cases);
    let true_span = span(&truth.true_cases);
    let death_span = span(&truth.deaths);

    let rep_cases =
        Ribbon::from_ensemble_reported(res_cases.final_posterior(), "infections", lo, hi)
            .expect("ribbon");
    let rep_both = Ribbon::from_ensemble_reported(res_both.final_posterior(), "infections", lo, hi)
        .expect("ribbon");
    let act_both =
        Ribbon::from_ensemble(res_both.final_posterior(), "infections", lo, hi).expect("ribbon");
    let deaths_both =
        Ribbon::from_ensemble(res_both.final_posterior(), "deaths", lo, hi).expect("ribbon");

    section("uncertainty reduction from adding deaths  [Fig 5a vs Fig 4a]");
    println!(
        "reported-case 90% ribbon width: cases-only {:.0}, cases+deaths {:.0}  (ratio {:.2})",
        rep_cases.mean_width_90(),
        rep_both.mean_width_90(),
        rep_both.mean_width_90() / rep_cases.mean_width_90().max(1e-12)
    );
    println!(
        "coverage (cases+deaths): reported {:.2}, actual {:.2}, deaths {:.2}",
        coverage(&rep_both, &obs_span),
        coverage(&act_both, &true_span),
        coverage(&deaths_both, &death_span)
    );

    // --- CSV artifacts. ---
    let days: Vec<f64> = (lo..=hi).map(|d| d as f64).collect();
    let rib_table = Table::from_pairs(vec![
        ("day", days),
        ("observed_cases", obs_span),
        ("true_cases", true_span),
        ("deaths", death_span),
        ("reported_q05", rep_both.q05.clone()),
        ("reported_q50", rep_both.q50.clone()),
        ("reported_q95", rep_both.q95.clone()),
        ("actual_q05", act_both.q05.clone()),
        ("actual_q50", act_both.q50.clone()),
        ("actual_q95", act_both.q95.clone()),
        ("deaths_q05", deaths_both.q05.clone()),
        ("deaths_q50", deaths_both.q50.clone()),
        ("deaths_q95", deaths_both.q95.clone()),
        ("cases_only_reported_q05", rep_cases.q05.clone()),
        ("cases_only_reported_q95", rep_cases.q95.clone()),
    ]);
    let rib_path = args.out_dir.join("fig5_ribbons.csv");
    rib_table.write_csv(&rib_path).expect("write csv");

    let trace_table = Table::from_pairs(vec![
        ("window_start", trace_rows.iter().map(|r| r[0]).collect()),
        ("theta_cases", trace_rows.iter().map(|r| r[1]).collect()),
        ("theta_both", trace_rows.iter().map(|r| r[2]).collect()),
        ("theta_true", trace_rows.iter().map(|r| r[3]).collect()),
        ("rho_cases", trace_rows.iter().map(|r| r[4]).collect()),
        ("rho_both", trace_rows.iter().map(|r| r[5]).collect()),
        ("rho_true", trace_rows.iter().map(|r| r[6]).collect()),
        ("theta_sd_ratio", trace_rows.iter().map(|r| r[7]).collect()),
    ]);
    let trace_path = args.out_dir.join("fig5_parameter_trace.csv");
    trace_table.write_csv(&trace_path).expect("write csv");
    println!(
        "\nwrote {} and {}",
        rib_path.display(),
        trace_path.display()
    );
}
