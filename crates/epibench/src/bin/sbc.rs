//! Simulation-based calibration of the full inference pipeline
//! (Talts et al. 2018): draws `(theta*, rho*)` from the prior, generates
//! prior-predictive data through the simulator + bias model, calibrates,
//! and ranks the truths inside the posterior. Uniform ranks = the
//! pipeline is self-consistent.
//!
//! Prints rank histograms and chi-square uniformity statistics for theta
//! and rho, and writes the raw ranks to CSV.

use epibench::{done_in, row, section, Args};
use epidata::io::Table;
use epismc_core::simulator::SeirSimulator;
use epismc_core::sis::Priors;
use epismc_core::validate::{run_sbc, SbcConfig};
use epismc_core::window::TimeWindow;
use epismc_core::CalibrationConfig;
use epistats::score::pit_uniformity_statistic;

/// SBC's own ensemble, which the flags override one by one.
fn defaults() -> Args {
    Args {
        n_params: 150,
        n_replicates: 4,
        resample_size: 300,
        ..Args::default()
    }
}

fn main() {
    let args = Args::parse("sbc", defaults());
    // SBC replicates many full calibrations; use the cheap SEIR model so
    // the study finishes in seconds.
    let simulator = SeirSimulator::new(episim::seir::SeirParams {
        population: 10_000,
        initial_exposed: 50,
        ..Default::default()
    })
    .expect("params");
    let priors = Priors {
        theta: vec![Box::new(epismc_core::prior::UniformPrior::new(0.2, 0.7))],
        rho: Box::new(epismc_core::prior::BetaPrior::new(4.0, 1.0)),
    };
    let replicates = 60usize;
    let subsample = 20usize;
    let config = SbcConfig {
        replicates,
        subsample,
        window: TimeWindow::new(5, 25),
        seed: args.seed,
        calibration: CalibrationConfig::builder()
            .n_params(args.n_params)
            .n_replicates(args.n_replicates)
            .resample_size(args.resample_size)
            .seed(1)
            .build(),
    };
    println!(
        "sbc: {replicates} replicates, SEIR 10k pop, window [5, 25], {} x {} per posterior",
        args.n_params, args.n_replicates
    );
    let started = std::time::Instant::now();
    let result = run_sbc(&simulator, &priors, &config).expect("sbc");
    println!("{}", done_in(started));

    let bins = 5usize;
    let histogram = |ranks: &[f64]| -> Vec<usize> {
        let mut counts = vec![0usize; bins];
        for &r in ranks {
            counts[((r * bins as f64).floor() as usize).min(bins - 1)] += 1;
        }
        counts
    };
    section("rank histograms (uniform = calibrated)");
    let widths = [8, 28, 14];
    println!(
        "{}",
        row(
            &["param", "histogram (5 bins)", "chi2(4)"].map(String::from),
            &widths
        )
    );
    for (label, ranks) in [
        ("theta", result.normalized_theta_ranks()),
        ("rho", result.normalized_rho_ranks()),
    ] {
        let h = histogram(&ranks);
        let stat = pit_uniformity_statistic(&ranks, bins);
        println!(
            "{}",
            row(
                &[label.to_string(), format!("{h:?}"), format!("{stat:.1}"),],
                &widths
            )
        );
    }
    println!(
        "(chi-square with {} dof: mean {}, 95th percentile ~{:.1}; the finite-ensemble\n\
         posterior adds some excess, see epismc::validate docs)",
        bins - 1,
        bins - 1,
        9.49
    );

    let table = Table::from_pairs(vec![
        (
            "theta_rank",
            result.theta_ranks.iter().map(|&r| r as f64).collect(),
        ),
        (
            "rho_rank",
            result.rho_ranks.iter().map(|&r| r as f64).collect(),
        ),
    ]);
    let path = args.out_dir.join("sbc_ranks.csv");
    table.write_csv(&path).expect("write csv");
    println!("\nwrote {}", path.display());
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_partial_ensemble_flag_keeps_the_other_defaults() {
        let argv = vec!["--n-reps".into(), "7".into()];
        let a = super::defaults().parse_from(argv).unwrap();
        assert_eq!((a.n_params, a.n_replicates, a.resample_size), (150, 7, 300));
    }
}
