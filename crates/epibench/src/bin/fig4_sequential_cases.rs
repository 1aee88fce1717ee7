//! Regenerates **Figure 4**: sequential calibration across four time
//! windows using reported case counts only (Section V-B).
//!
//! * Fig 4a — posterior credible ribbons (50% and 90%) on reported cases
//!   and on the *unobserved actual* cases, with the truth overlaid.
//! * Fig 4b — per-window joint posterior of `(theta, rho)`: KDE mode,
//!   50%/90% HDR levels, and the truth marker.

use epibench::{done_in, row, section, Args};
use epidata::{generate_ground_truth, io::Table};
use epismc_core::diagnostics::{coverage, joint_density, PosteriorSummary, Ribbon};
use epismc_core::prior::JitterKernel;
use epismc_core::simulator::CovidSimulator;
use epismc_core::sis::{ObservedData, Priors, SequentialCalibrator};
use epismc_core::window::WindowPlan;

fn main() {
    let args = Args::parse();
    let scenario = args.scenario();
    let config = args.config();
    let plan = WindowPlan::paper(scenario.horizon);
    println!(
        "fig4: sequential calibration (cases only) on '{}', {} windows, {} x {} per window",
        scenario.name,
        plan.len(),
        config.n_params,
        config.n_replicates
    );

    let truth = generate_ground_truth(&scenario, scenario.truth_seed);
    let simulator = CovidSimulator::new(scenario.base_params.clone()).expect("params");
    let observed = ObservedData::cases_only_with(truth.observed_cases.clone(), args.bias_mode, 1.0);
    // The paper: symmetric uniform jitter for theta, asymmetric (skewed
    // toward higher reporting) for rho.
    let calibrator = SequentialCalibrator::new(
        &simulator,
        config,
        vec![JitterKernel::symmetric(0.10, 0.05, 0.8)],
        JitterKernel::asymmetric(0.05, 0.06, 0.05, 1.0),
    );
    let started = std::time::Instant::now();
    let result = calibrator
        .run(&Priors::paper(), &observed, &plan)
        .expect("calibration");
    println!("{}", done_in(started));

    // --- Fig 4b: parameter trace per window vs truth. ---
    section("per-window posterior of (theta, rho) vs truth  [Fig 4b]");
    let widths = [10, 8, 8, 8, 8, 8, 8, 6, 8];
    println!(
        "{}",
        row(
            &[
                "window", "th_mean", "th_sd", "th_true", "rho_mean", "rho_sd", "rho_true", "ESS%",
                "uniq"
            ]
            .map(String::from),
            &widths
        )
    );
    let mut trace_rows: Vec<[f64; 7]> = Vec::new();
    for w in &result.windows {
        let th = PosteriorSummary::of_theta(&w.posterior, 0);
        let rh = PosteriorSummary::of_rho(&w.posterior);
        let th_true = truth.theta_truth[(w.window.start - 1) as usize];
        let rho_true = truth.rho_truth[(w.window.start - 1) as usize];
        let ess_pct = 100.0 * w.ess / (w.posterior.len().max(1) as f64);
        println!(
            "{}",
            row(
                &[
                    format!("[{},{}]", w.window.start, w.window.end),
                    format!("{:.3}", th.mean),
                    format!("{:.3}", th.sd),
                    format!("{th_true:.3}"),
                    format!("{:.3}", rh.mean),
                    format!("{:.3}", rh.sd),
                    format!("{rho_true:.3}"),
                    format!("{ess_pct:.0}"),
                    format!("{}", w.unique_ancestors),
                ],
                &widths
            )
        );
        trace_rows.push([
            w.window.start as f64,
            th.mean,
            th.sd,
            th_true,
            rh.mean,
            rh.sd,
            rho_true,
        ]);
    }

    // KDE contour levels per window (the 2-d contour panels).
    section("joint (theta, rho) KDE per window: mode and HDR levels");
    for w in &result.windows {
        let jd = joint_density(&w.posterior, 0, Some(((0.05, 0.8), (0.0, 1.0))), 80);
        let (mx, my) = jd.grid.mode();
        println!(
            "window [{}, {}]: mode (theta {:.3}, rho {:.3}), level50 {:.2}, level90 {:.2}, corr(theta,rho) {:+.2}",
            w.window.start, w.window.end, mx, my, jd.level50, jd.level90,
            w.posterior.corr_theta_rho(0)
        );
    }

    // --- Fig 4a: ribbons on reported and actual cases over the full span. ---
    let final_post = result.final_posterior();
    let lo = plan.windows()[0].start;
    let hi = plan.horizon();
    let reported =
        Ribbon::from_ensemble_reported(final_post, "infections", lo, hi).expect("ribbon");
    let actual = Ribbon::from_ensemble(final_post, "infections", lo, hi).expect("ribbon");

    section("credible ribbons vs truth  [Fig 4a]");
    let obs_span: Vec<f64> = (lo..=hi)
        .map(|d| truth.observed_cases[(d - 1) as usize])
        .collect();
    let true_span: Vec<f64> = (lo..=hi)
        .map(|d| truth.true_cases[(d - 1) as usize])
        .collect();
    println!(
        "reported cases: 90% coverage {:.2}, mean 90% width {:.0}",
        coverage(&reported, &obs_span),
        reported.mean_width_90()
    );
    println!(
        "actual (unobserved) cases: 90% coverage {:.2}, mean 90% width {:.0}",
        coverage(&actual, &true_span),
        actual.mean_width_90()
    );
    println!(
        "actual-case median above reported median (reporting < 1): {}",
        actual
            .q50
            .iter()
            .zip(&reported.q50)
            .filter(|(a, r)| a >= r)
            .count()
    );

    // --- CSV artifacts. ---
    let days: Vec<f64> = (lo..=hi).map(|d| d as f64).collect();
    let rib_table = Table::from_pairs(vec![
        ("day", days),
        ("observed_cases", obs_span),
        ("true_cases", true_span),
        ("reported_q05", reported.q05),
        ("reported_q25", reported.q25),
        ("reported_q50", reported.q50),
        ("reported_q75", reported.q75),
        ("reported_q95", reported.q95),
        ("actual_q05", actual.q05),
        ("actual_q25", actual.q25),
        ("actual_q50", actual.q50),
        ("actual_q75", actual.q75),
        ("actual_q95", actual.q95),
    ]);
    let rib_path = args.out_dir.join("fig4_ribbons.csv");
    rib_table.write_csv(&rib_path).expect("write csv");

    let trace_table = Table::from_pairs(vec![
        ("window_start", trace_rows.iter().map(|r| r[0]).collect()),
        ("theta_mean", trace_rows.iter().map(|r| r[1]).collect()),
        ("theta_sd", trace_rows.iter().map(|r| r[2]).collect()),
        ("theta_true", trace_rows.iter().map(|r| r[3]).collect()),
        ("rho_mean", trace_rows.iter().map(|r| r[4]).collect()),
        ("rho_sd", trace_rows.iter().map(|r| r[5]).collect()),
        ("rho_true", trace_rows.iter().map(|r| r[6]).collect()),
    ]);
    let trace_path = args.out_dir.join("fig4_parameter_trace.csv");
    trace_table.write_csv(&trace_path).expect("write csv");

    // Posterior samples per window for external contour plotting.
    let mut sample_cols: Vec<(String, Vec<f64>)> = Vec::new();
    for (k, w) in result.windows.iter().enumerate() {
        sample_cols.push((format!("w{k}_theta"), w.posterior.thetas(0)));
        sample_cols.push((format!("w{k}_rho"), w.posterior.rhos()));
    }
    let min_len = sample_cols.iter().map(|(_, c)| c.len()).min().unwrap_or(0);
    let samples_table = Table::from_pairs(
        sample_cols
            .iter()
            .map(|(n, c)| (n.as_str(), c[..min_len].to_vec()))
            .collect(),
    );
    let samples_path = args.out_dir.join("fig4_posterior_samples.csv");
    samples_table.write_csv(&samples_path).expect("write csv");

    println!(
        "\nwrote {}, {}, {}",
        rib_path.display(),
        trace_path.display(),
        samples_path.display()
    );
}
