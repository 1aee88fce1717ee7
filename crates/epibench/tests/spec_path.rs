//! The runspec path behind Figs 4 and 5: the committed specs validate,
//! [`RunSpec::run`] is the paper's calibrator, and the report's ESS is a
//! fraction of the candidates.

use epibench::report::Report;
use epibench::runspec::{RunSpec, SourceSpec};
use epidata::{generate_ground_truth, Scenario};
use epismc_core::config::CalibrationConfig;
use epismc_core::observation::BiasMode;
use epismc_core::prior::JitterKernel;
use epismc_core::simulator::CovidSimulator;
use epismc_core::sis::{CalibrationResult, ObservedData, Priors, SequentialCalibrator};
use epismc_core::window::WindowPlan;

#[test]
fn every_committed_spec_parses_and_validates() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert!(paths.len() >= 2, "{paths:?}");
    for path in paths {
        let parsed = RunSpec::from_json(&std::fs::read_to_string(&path).unwrap());
        assert!(parsed.is_ok(), "{}: {parsed:?}", path.display());
    }
}

/// One window's posterior (θ, ρ, seed), ESS and log marginal, by bits.
type WindowBits = (Vec<(u64, u64, u64)>, u64, u64);

/// [`WindowBits`] of every window.
fn bits(result: &CalibrationResult) -> Vec<WindowBits> {
    let window = |w: &epismc_core::sis::WindowResult| {
        let p = w.posterior.particles().iter();
        let draws = p.map(|p| (p.theta[0].to_bits(), p.rho.to_bits(), p.seed));
        (draws.collect(), w.ess.to_bits(), w.log_marginal.to_bits())
    };
    result.windows.iter().map(window).collect()
}

#[test]
fn a_spec_runs_the_paper_calibrator_and_reports_ess_over_the_candidates() {
    let scenario = Scenario::paper_tiny();
    let truth = generate_ground_truth(&scenario, scenario.truth_seed);
    let simulator = CovidSimulator::new(scenario.base_params).unwrap();
    // 60 x 3 = 180 candidates per window, resampled to 3.
    let config = CalibrationConfig::builder().n_params(60).n_replicates(3);
    let config = config.resample_size(3).seed(3).build();
    let (cases, deaths) = (&truth.observed_cases, &truth.deaths);
    let sampled = |c: &Vec<f64>| ObservedData::cases_only_with(c.clone(), BiasMode::Sampled, 1.0);
    let with_deaths = |c: &Vec<f64>, d: &Vec<f64>| {
        ObservedData::cases_and_deaths_with(c.clone(), d.clone(), BiasMode::Sampled, 1.0)
    };
    for (sources, observed) in [
        (SourceSpec::Cases, sampled(cases)),
        (SourceSpec::CasesDeaths, with_deaths(cases, deaths)),
    ] {
        let theta_kernel = JitterKernel::symmetric(0.10, 0.05, 0.8);
        let rho_kernel = JitterKernel::asymmetric(0.05, 0.06, 0.05, 1.0);
        let direct =
            SequentialCalibrator::new(&simulator, config.clone(), vec![theta_kernel], rho_kernel);
        let direct = direct
            .run(&Priors::paper(), &observed, &WindowPlan::paper(90))
            .unwrap();
        let spec = RunSpec {
            scale: "tiny".into(),
            calibration: config.clone(),
            sources,
            ..RunSpec::default()
        };
        let result = spec.run(&truth).unwrap();
        assert_eq!(bits(&result), bits(&direct), "{sources:?}");

        // Window 1's ESS exceeds the resample of 3: ESS over the
        // resample would read above 1 there.
        assert!(
            result.windows[0].ess > 3.0,
            "{sources:?}: {}",
            result.windows[0].ess
        );
        let report = Report::new(&spec, &truth, &result).unwrap();
        for (r, w) in report.windows.iter().zip(&result.windows) {
            assert_eq!(r.ess_fraction.to_bits(), (w.ess / 180.0).to_bits());
            assert!(r.ess_fraction > 0.0 && r.ess_fraction <= 1.0, "{r:?}");
        }
        assert_eq!(report.deaths.is_some(), sources == SourceSpec::CasesDeaths);
        assert!(report.distinct_paths.iter().all(|&n| (1..=3).contains(&n)));
    }
}
