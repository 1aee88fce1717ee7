//! Config-driven calibration CLI: the operational entry point.
//!
//! ```bash
//! calibrate                      # built-in defaults (paper windows, small scale)
//! calibrate my_campaign.json    # declarative RunSpec
//! calibrate --print-spec        # emit the default spec as JSON and exit
//! ```
//!
//! Runs the sequential calibration described by the spec, prints the
//! per-window posterior summary, and writes the parameter trace,
//! posterior samples, and credible ribbons under the spec's `out_dir`.

use epibench::runspec::{RunSpec, SourceSpec};
use epibench::{done_in, row, section};
use epidata::{generate_ground_truth, io::Table};
use epismc_core::diagnostics::{PosteriorSummary, Ribbon};
use epismc_core::observation::BiasMode;
use epismc_core::simulator::CovidSimulator;
use epismc_core::sis::{ObservedData, Priors, SequentialCalibrator};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--print-spec") {
        println!(
            "{}",
            serde_json::to_string_pretty(&RunSpec::default()).expect("serialize")
        );
        return;
    }
    let spec = match args.first() {
        None => RunSpec::default(),
        Some(path) => {
            let json =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            RunSpec::from_json(&json).unwrap_or_else(|e| panic!("invalid spec: {e}"))
        }
    };
    spec.validate().expect("spec validated at parse");
    let scenario = spec.scenario().expect("validated");
    println!(
        "calibrate: scenario '{}' | {} windows | {} x {} trajectories | sources: {:?}{}",
        scenario.name,
        spec.windows.len(),
        spec.calibration.n_params,
        spec.calibration.n_replicates,
        spec.sources,
        if spec.adaptive.is_some() {
            " | adaptive"
        } else {
            ""
        }
    );

    let truth = generate_ground_truth(&scenario, scenario.truth_seed);
    let simulator = CovidSimulator::new(scenario.base_params.clone()).expect("params");
    let observed = match spec.sources {
        SourceSpec::Cases => ObservedData::cases_only_with(
            truth.observed_cases.clone(),
            BiasMode::Sampled,
            spec.sigma,
        ),
        SourceSpec::CasesDeaths => ObservedData::cases_and_deaths_with(
            truth.observed_cases.clone(),
            truth.deaths.clone(),
            BiasMode::Sampled,
            spec.sigma,
        ),
    };
    let (kt, kr) = spec.kernels();
    let mut calibrator = SequentialCalibrator::new(&simulator, spec.calibration.clone(), kt, kr);
    if let Some(a) = spec.adaptive {
        calibrator = calibrator.with_adaptive(a);
    }
    let plan = spec.window_plan();
    let started = std::time::Instant::now();
    let result = calibrator
        .run(&Priors::paper(), &observed, &plan)
        .expect("calibration");
    println!("{}", done_in(started));

    section("per-window posterior");
    let widths = [10, 9, 9, 9, 9, 6, 6];
    println!(
        "{}",
        row(
            &["window", "th_mean", "th_sd", "rho_mean", "rho_sd", "ESS%", "iters"]
                .map(String::from),
            &widths
        )
    );
    let mut trace: Vec<[f64; 5]> = Vec::new();
    for w in &result.windows {
        let th = PosteriorSummary::of_theta(&w.posterior, 0);
        let rh = PosteriorSummary::of_rho(&w.posterior);
        let ess_pct =
            100.0 * w.ess / (spec.calibration.n_params * spec.calibration.n_replicates) as f64;
        println!(
            "{}",
            row(
                &[
                    format!("[{},{}]", w.window.start, w.window.end),
                    format!("{:.3}", th.mean),
                    format!("{:.3}", th.sd),
                    format!("{:.3}", rh.mean),
                    format!("{:.3}", rh.sd),
                    format!("{ess_pct:.0}"),
                    format!("{}", w.iterations),
                ],
                &widths
            )
        );
        trace.push([w.window.start as f64, th.mean, th.sd, rh.mean, rh.sd]);
    }

    // Artifacts.
    let out = std::path::PathBuf::from(&spec.out_dir);
    let trace_table = Table::from_pairs(vec![
        ("window_start", trace.iter().map(|r| r[0]).collect()),
        ("theta_mean", trace.iter().map(|r| r[1]).collect()),
        ("theta_sd", trace.iter().map(|r| r[2]).collect()),
        ("rho_mean", trace.iter().map(|r| r[3]).collect()),
        ("rho_sd", trace.iter().map(|r| r[4]).collect()),
    ]);
    trace_table
        .write_csv(&out.join("parameter_trace.csv"))
        .expect("write trace");

    let final_post = result.final_posterior();
    let samples = Table::from_pairs(vec![
        ("theta", final_post.thetas(0)),
        ("rho", final_post.rhos()),
    ]);
    samples
        .write_csv(&out.join("posterior_samples.csv"))
        .expect("write samples");

    let lo = plan.windows()[0].start;
    let hi = plan.horizon();
    let reported =
        Ribbon::from_ensemble_reported(final_post, "infections", lo, hi).expect("ribbon");
    let days: Vec<f64> = (lo..=hi).map(|d| d as f64).collect();
    let rib = Table::from_pairs(vec![
        ("day", days),
        ("q05", reported.q05),
        ("q50", reported.q50),
        ("q95", reported.q95),
    ]);
    rib.write_csv(&out.join("reported_ribbon.csv"))
        .expect("write ribbon");

    println!(
        "\nwrote parameter_trace.csv, posterior_samples.csv, reported_ribbon.csv under {}",
        out.display()
    );
}
