//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Resampling scheme** — multinomial (the paper's choice) vs
//!    systematic / stratified / residual: Monte Carlo variance of the
//!    posterior mean and ancestor diversity under each.
//! 2. **Bias mode** — sampled binomial thinning (the paper's generative
//!    model) vs conditional-mean thinning: effect on the posteriors of
//!    `rho` and `theta`.
//! 3. **Window length** — the paper's four-window plan vs the same plan
//!    with its hard fourth window (the day-62 transmission jump) split
//!    into four weekly windows, under a θ kernel too narrow to reach the
//!    jump in one window: final-window error, spread and simulated days.

use epibench::runspec::{JitterSpec, RunSpec};
use epibench::{row, section, Args};
use epidata::{generate_ground_truth, io::Table};
use epismc_core::diagnostics::PosteriorSummary;
use epismc_core::observation::BiasMode;
use epismc_core::resample::{Multinomial, Resampler, Residual, Stratified, Systematic};
use epismc_core::simulator::CovidSimulator;
use epismc_core::sis::{ObservedData, Priors, SingleWindowIs};
use epismc_core::window::TimeWindow;
use epistats::rng::Xoshiro256PlusPlus;
use epistats::summary::{mean, variance, weighted_mean};

fn main() {
    let defaults = Args {
        n_params: 400,
        n_replicates: 8,
        resample_size: 800,
        ..Args::default()
    };
    let args = Args::parse("ablation", defaults);
    let scenario = args.scenario();
    let truth = generate_ground_truth(&scenario, scenario.truth_seed);
    let simulator = CovidSimulator::new(scenario.base_params.clone()).expect("params");
    let window = TimeWindow::new(20, 33);

    // ------------------------------------------------------------------
    section("1. resampling schemes (same weighted candidates)");
    let mut cfg = args.config();
    cfg.keep_prior_ensemble = true;
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let result = SingleWindowIs::new(&simulator, cfg.clone())
        .run(&Priors::paper(), &observed, window)
        .expect("calibration");
    let candidates = result.prior_ensemble.as_ref().expect("kept");
    let weights = candidates.normalized_weights();
    let thetas = candidates.thetas(0);
    let target_mean = weighted_mean(&thetas, &weights);

    let schemes: Vec<Box<dyn Resampler>> = vec![
        Box::new(Multinomial),
        Box::new(Systematic),
        Box::new(Stratified),
        Box::new(Residual),
    ];
    let widths = [12, 12, 14, 12];
    println!("weighted target mean theta = {target_mean:.4}");
    println!(
        "{}",
        row(
            &["scheme", "mean_bias", "resamp_var", "uniq_mean"].map(String::from),
            &widths
        )
    );
    let mut scheme_rows: Vec<(String, f64, f64, f64)> = Vec::new();
    for s in &schemes {
        let mut rng = Xoshiro256PlusPlus::new(1234);
        let reps = 40;
        let mut means = Vec::with_capacity(reps);
        let mut uniq = Vec::with_capacity(reps);
        for _ in 0..reps {
            let idx = s.resample(&weights, args.resample_size, &mut rng);
            means.push(mean(&idx.iter().map(|&i| thetas[i]).collect::<Vec<_>>()));
            let mut u = idx.clone();
            u.sort_unstable();
            u.dedup();
            uniq.push(u.len() as f64);
        }
        let bias = mean(&means) - target_mean;
        let var = variance(&means);
        println!(
            "{}",
            row(
                &[
                    s.name().to_string(),
                    format!("{bias:+.5}"),
                    format!("{var:.2e}"),
                    format!("{:.0}", mean(&uniq)),
                ],
                &widths
            )
        );
        scheme_rows.push((s.name().to_string(), bias, var, mean(&uniq)));
    }
    println!("(all schemes unbiased; systematic/stratified cut resampling variance)");

    // ------------------------------------------------------------------
    section("2. bias mode: sampled binomial vs conditional mean");
    let widths = [10, 10, 10, 10, 10];
    println!(
        "{}",
        row(
            &["mode", "th_mean", "th_sd", "rho_mean", "rho_sd"].map(String::from),
            &widths
        )
    );
    for (label, mode) in [("sampled", BiasMode::Sampled), ("mean", BiasMode::Mean)] {
        let obs = ObservedData::cases_only_with(truth.observed_cases.clone(), mode, 1.0);
        let res = SingleWindowIs::new(&simulator, args.config())
            .run(&Priors::paper(), &obs, window)
            .expect("calibration");
        let th = PosteriorSummary::of_theta(&res.posterior, 0);
        let rh = PosteriorSummary::of_rho(&res.posterior);
        println!(
            "{}",
            row(
                &[
                    label.to_string(),
                    format!("{:.3}", th.mean),
                    format!("{:.3}", th.sd),
                    format!("{:.3}", rh.mean),
                    format!("{:.3}", rh.sd),
                ],
                &widths
            )
        );
    }
    println!("(sampled thinning folds reporting noise into the weights, per the paper; both modes recover theta)");

    // ------------------------------------------------------------------
    section("3. window length on the day-62 jump");
    // A theta kernel too narrow to reach the day-62 jump in one window.
    let narrow = JitterSpec {
        theta_half: 0.06,
        rho_down: 0.05,
        rho_up: 0.08,
    };
    let paper = RunSpec::default().windows;
    let weekly = [&paper[..3], &[(62, 68), (69, 75), (76, 82), (83, 90)]].concat();
    let true_last = truth.theta_truth[61];
    let widths = [8, 9, 8, 8, 8, 6, 6, 9];
    let header = [
        "plan", "th_final", "th_sd", "abs_err", "rho", "ESS%", "uniq", "sim_days",
    ];
    println!("{}", row(&header.map(String::from), &widths));
    let mut window_errs = Vec::new();
    for (label, windows) in [("paper", paper), ("weekly", weekly)] {
        let spec = RunSpec {
            scale: args.scale.clone(),
            calibration: args.config(),
            windows,
            jitter: narrow,
            ..RunSpec::default()
        };
        let res = spec.run(&truth).expect("calibration");
        let last = res.windows.last().expect("windows");
        let th = PosteriorSummary::of_theta(&last.posterior, 0);
        let rho = PosteriorSummary::of_rho(&last.posterior);
        let err = (th.mean - true_last).abs();
        let ess_pct = 100.0 * last.ess / (args.n_params * args.n_replicates) as f64;
        let days: u64 = res.windows.iter().map(|w| w.telemetry.days_simulated).sum();
        println!(
            "{}",
            row(
                &[
                    label.to_string(),
                    format!("{:.3}", th.mean),
                    format!("{:.3}", th.sd),
                    format!("{err:.3}"),
                    format!("{:.3}", rho.mean),
                    format!("{ess_pct:.1}"),
                    format!("{}", last.unique_ancestors),
                    format!("{days}"),
                ],
                &widths
            )
        );
        window_errs.push(err);
    }
    println!(
        "(truth in the final window: theta = {true_last:.2}; \
         the weekly plan splits [62, 90] into [62,68], [69,75], [76,82], [83,90])"
    );

    // CSV artifact.
    let table = Table::from_pairs(vec![
        ("scheme_bias", scheme_rows.iter().map(|r| r.1).collect()),
        ("scheme_var", scheme_rows.iter().map(|r| r.2).collect()),
        ("scheme_uniq", scheme_rows.iter().map(|r| r.3).collect()),
        (
            "window_err",
            window_errs
                .iter()
                .copied()
                .chain(std::iter::repeat(0.0))
                .take(4)
                .collect(),
        ),
    ]);
    let path = args.out_dir.join("ablation.csv");
    table.write_csv(&path).expect("write csv");
    println!("\nwrote {}", path.display());
}
