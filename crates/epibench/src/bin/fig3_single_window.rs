//! Regenerates **Figure 3**: single-window importance sampling calibrated
//! to reported case counts only (Section V-B, first window, days 20–33).
//!
//! Emits the three panels' numbers:
//! * left — prior vs posterior trajectory envelopes over the window,
//! * center — prior vs posterior distribution of `rho`,
//! * right — prior vs posterior distribution of `theta`.
//!
//! Pass `--bias-mode mean` for the conditional-mean thinning ablation.

use epibench::{done_in, row, section, Args};
use epidata::{generate_ground_truth, io::Table};
use epismc_core::diagnostics::{coverage, PosteriorSummary, Ribbon};
use epismc_core::simulator::CovidSimulator;
use epismc_core::sis::{ObservedData, Priors, SingleWindowIs};
use epismc_core::window::TimeWindow;
use epistats::summary::Histogram;

fn main() {
    let args = Args::parse("fig3_single_window", Args::default());
    let scenario = args.scenario();
    let mut config = args.config();
    config.keep_prior_ensemble = true;
    let window = TimeWindow::new(20, 33);
    println!(
        "fig3: single-window IS on '{}', window [{}, {}], {} x {} trajectories, resample {}",
        scenario.name,
        window.start,
        window.end,
        config.n_params,
        config.n_replicates,
        config.resample_size
    );

    let truth = generate_ground_truth(&scenario, scenario.truth_seed);
    let simulator = CovidSimulator::new(scenario.base_params.clone()).expect("params");
    let observed = ObservedData::cases_only_with(truth.observed_cases.clone(), args.bias_mode, 1.0);
    let started = std::time::Instant::now();
    let result = SingleWindowIs::new(&simulator, config)
        .run(&Priors::paper(), &observed, window)
        .expect("calibration");
    println!(
        "{}  (ESS {:.1}, unique ancestors {}, log marginal {:.1})",
        done_in(started),
        result.ess,
        result.unique_ancestors,
        result.log_marginal
    );

    // --- Right panel: theta prior vs posterior. ---
    section("theta: prior U(0.1, 0.5) vs posterior");
    // The kept candidate ensemble carries importance weights; the prior
    // panels need the *unweighted* draws, so reset to uniform.
    let prior = {
        let mut p = result.prior_ensemble.clone().expect("kept");
        p.set_uniform_weights();
        p
    };
    let prior = &prior;
    let post_theta = PosteriorSummary::of_theta(&result.posterior, 0);
    let prior_theta = PosteriorSummary::of_theta(prior, 0);
    let true_theta = truth.theta_truth[(window.start - 1) as usize];
    print_summary("prior ", &prior_theta);
    print_summary("post  ", &post_theta);
    println!(
        "truth  : {true_theta:.3}  (covered by 90% CI: {})",
        post_theta.covers(true_theta)
    );
    println!(
        "sd shrinkage: {:.3} -> {:.3} ({:.1}x)",
        prior_theta.sd,
        post_theta.sd,
        prior_theta.sd / post_theta.sd
    );

    // --- Center panel: rho prior vs posterior. ---
    section("rho: prior Beta(4, 1) vs posterior");
    let post_rho = PosteriorSummary::of_rho(&result.posterior);
    let prior_rho = PosteriorSummary::of_rho(prior);
    let true_rho = truth.rho_truth[(window.start - 1) as usize];
    print_summary("prior ", &prior_rho);
    print_summary("post  ", &post_rho);
    println!(
        "truth  : {true_rho:.3}  (covered by 90% CI: {})",
        post_rho.covers(true_rho)
    );
    println!(
        "note: the paper observes rho is less constrained than theta under the strong Beta(4,1) prior"
    );

    // --- Left panel: trajectory envelopes. ---
    section("trajectory envelope on the window (reported scale)");
    let prior_rib = Ribbon::from_ensemble_reported(prior, "infections", window.start, window.end)
        .expect("ribbon");
    let post_rib =
        Ribbon::from_ensemble_reported(&result.posterior, "infections", window.start, window.end)
            .expect("ribbon");
    let widths = [4, 10, 20, 20];
    println!(
        "{}",
        row(
            &["day", "observed", "prior[q05,q95]", "post[q05,q95]"].map(String::from),
            &widths
        )
    );
    for (i, &day) in post_rib.days.iter().enumerate() {
        println!(
            "{}",
            row(
                &[
                    format!("{day}"),
                    format!("{:.0}", truth.observed_cases[(day - 1) as usize]),
                    format!("[{:.0}, {:.0}]", prior_rib.q05[i], prior_rib.q95[i]),
                    format!("[{:.0}, {:.0}]", post_rib.q05[i], post_rib.q95[i]),
                ],
                &widths
            )
        );
    }
    let window_obs: Vec<f64> = (window.start..=window.end)
        .map(|d| truth.observed_cases[(d - 1) as usize])
        .collect();
    println!(
        "posterior envelope narrower: prior width {:.0} -> posterior width {:.0}; \
         90% coverage of observed: {:.2}",
        prior_rib.mean_width_90(),
        post_rib.mean_width_90(),
        coverage(&post_rib, &window_obs)
    );

    // --- Histograms (the empirical posterior histograms of the figure). ---
    let theta_hist = histogram(&result.posterior.thetas(0), 0.1, 0.5, 20);
    let rho_hist = histogram(&result.posterior.rhos(), 0.0, 1.0, 20);
    let prior_theta_hist = histogram(&prior.thetas(0), 0.1, 0.5, 20);
    let prior_rho_hist = histogram(&prior.rhos(), 0.0, 1.0, 20);

    let table = Table::from_pairs(vec![
        ("theta_bin", theta_hist.0.clone()),
        ("theta_prior_density", prior_theta_hist.1),
        ("theta_post_density", theta_hist.1),
        ("rho_bin", rho_hist.0.clone()),
        ("rho_prior_density", prior_rho_hist.1),
        ("rho_post_density", rho_hist.1),
    ]);
    let path = args.out_dir.join("fig3_param_histograms.csv");
    table.write_csv(&path).expect("write csv");

    let rib_table = Table::from_pairs(vec![
        ("day", post_rib.days.iter().map(|&d| d as f64).collect()),
        ("observed", window_obs),
        ("prior_q05", prior_rib.q05),
        ("prior_q95", prior_rib.q95),
        ("post_q05", post_rib.q05),
        ("post_q25", post_rib.q25),
        ("post_q50", post_rib.q50),
        ("post_q75", post_rib.q75),
        ("post_q95", post_rib.q95),
    ]);
    let rib_path = args.out_dir.join("fig3_trajectory_ribbon.csv");
    rib_table.write_csv(&rib_path).expect("write csv");
    println!("\nwrote {} and {}", path.display(), rib_path.display());
}

fn print_summary(label: &str, s: &PosteriorSummary) {
    println!(
        "{label}: mean {:.3}  sd {:.3}  [q05 {:.3}, q50 {:.3}, q95 {:.3}]",
        s.mean, s.sd, s.q05, s.q50, s.q95
    );
}

/// Equal-width histogram returning (bin centers, densities).
fn histogram(xs: &[f64], lo: f64, hi: f64, bins: usize) -> (Vec<f64>, Vec<f64>) {
    let mut h = Histogram::new(lo, hi, bins);
    for &x in xs {
        h.add(x);
    }
    (h.centers(), h.densities())
}
