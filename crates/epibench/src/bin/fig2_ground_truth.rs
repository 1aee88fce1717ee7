//! Regenerates **Figure 2**: the simulated ground truth of Section V-A.
//!
//! Runs the COVID model with the paper's time-varying transmission rate
//! (0.30 / 0.27 / 0.25 / 0.40 switching at days 34 / 48 / 62), thins the
//! true case counts with the time-varying reporting probability
//! (0.60 / 0.70 / 0.85 / 0.80), and prints/writes the daily series the
//! figure plots: true infections, observed (reported) cases, and deaths.

use epibench::{row, section, Args};
use epidata::{generate_ground_truth, io::Table};

fn main() {
    let args = Args::parse("fig2_ground_truth", Args::default());
    let scenario = args.scenario();
    println!(
        "fig2: scenario '{}' (population {}, horizon {} days, truth seed {})",
        scenario.name, scenario.base_params.population, scenario.horizon, scenario.truth_seed
    );
    let truth = generate_ground_truth(&scenario, scenario.truth_seed);

    section("daily series (every 5th day)");
    let widths = [4, 10, 10, 8, 7, 6];
    println!(
        "{}",
        row(
            &["day", "true", "observed", "deaths", "theta", "rho"].map(String::from),
            &widths
        )
    );
    for d in (0..truth.horizon() as usize).step_by(5) {
        println!(
            "{}",
            row(
                &[
                    format!("{}", d + 1),
                    format!("{:.0}", truth.true_cases[d]),
                    format!("{:.0}", truth.observed_cases[d]),
                    format!("{:.0}", truth.deaths[d]),
                    format!("{:.2}", truth.theta_truth[d]),
                    format!("{:.2}", truth.rho_truth[d]),
                ],
                &widths
            )
        );
    }

    section("summary");
    let total_true: f64 = truth.true_cases.iter().sum();
    let total_obs: f64 = truth.observed_cases.iter().sum();
    let total_deaths: f64 = truth.deaths.iter().sum();
    println!("total true infections : {total_true:.0}");
    println!("total observed cases  : {total_obs:.0}");
    println!("total deaths          : {total_deaths:.0}");
    println!(
        "realized reporting    : {:.3} (schedule range 0.60-0.85)",
        truth.realized_reporting_fraction()
    );
    // The theta jump at day 62 should re-accelerate the epidemic: compare
    // mean daily cases in the two weeks before vs after the jump.
    let before: f64 = truth.true_cases[47..61].iter().sum::<f64>() / 14.0;
    let after: f64 = truth.true_cases[69..83].iter().sum::<f64>() / 14.0;
    println!("mean daily cases d48-61: {before:.1}");
    println!("mean daily cases d70-83: {after:.1} (post theta=0.40 jump)");

    let days: Vec<f64> = (1..=truth.horizon() as usize).map(|d| d as f64).collect();
    let table = Table::from_pairs(vec![
        ("day", days),
        ("true_cases", truth.true_cases.clone()),
        ("observed_cases", truth.observed_cases.clone()),
        ("deaths", truth.deaths.clone()),
        ("hospital_census", truth.hospital_census.clone()),
        ("icu_census", truth.icu_census.clone()),
        ("theta_truth", truth.theta_truth.clone()),
        ("rho_truth", truth.rho_truth.clone()),
    ]);
    let path = args.out_dir.join("fig2_ground_truth.csv");
    table.write_csv(&path).expect("write csv");
    println!("\nwrote {}", path.display());
}
