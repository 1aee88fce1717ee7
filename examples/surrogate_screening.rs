//! Surrogate-assisted calibration (the paper's Discussion: "the use of
//! surrogates for the individual trajectories may be required" for
//! expensive simulators): fit a Gaussian-process emulator of the
//! parameter-to-log-weight surface on a small pilot ensemble, screen a
//! large proposal pool through it, and spend simulator time only on the
//! survivors — then compare against spending the same simulation budget
//! without screening.
//!
//! Run with: `cargo run --release --example surrogate_screening`

use epismc::prelude::*;
use epismc::smc::simulator::TrajectorySimulator;
use epismc::smc::sis::score_window;
use epismc::smc::surrogate::SurrogateScreen;
use epismc::stats::rng::derive_stream;

fn main() {
    let scenario = Scenario::paper_tiny();
    let truth = generate_ground_truth(&scenario, scenario.truth_seed);
    let simulator = CovidSimulator::new(scenario.base_params.clone()).expect("params");
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let window = TimeWindow::new(20, 33);

    // Step 1: a small pilot ensemble (cheap), keeping the weighted
    // candidates.
    let pilot_cfg = CalibrationConfig::builder()
        .n_params(80)
        .n_replicates(3)
        .resample_size(160)
        .seed(31)
        .keep_prior_ensemble(true)
        .build();
    let pilot = SingleWindowIs::new(&simulator, pilot_cfg)
        .run(&Priors::paper(), &observed, window)
        .expect("pilot");
    let pilot_ensemble = pilot.prior_ensemble.as_ref().expect("kept");
    println!(
        "pilot: {} simulated trajectories, posterior theta ~ {:.3}",
        pilot_ensemble.len(),
        pilot.posterior.mean_theta(0)
    );

    // Step 2: fit the emulator and screen a large prior proposal pool.
    let screen = SurrogateScreen::fit_from_ensemble(pilot_ensemble).expect("fit");
    let mut rng = Xoshiro256PlusPlus::new(77);
    let priors = Priors::paper();
    let pool: Vec<(Vec<f64>, f64)> = (0..2_000)
        .map(|_| {
            (
                vec![priors.theta[0].sample(&mut rng)],
                priors.rho.sample(&mut rng),
            )
        })
        .collect();
    let kept = screen.screen(&pool, 0.10, 1.0);
    println!(
        "screened {} proposals down to {} ({}% of the pool) using the GP emulator",
        pool.len(),
        kept.len(),
        100 * kept.len() / pool.len()
    );

    // Step 3: spend the real simulation budget on the survivors and
    // compare their realized weights with an unscreened random subset of
    // the same size.
    let prepared = PreparedObserved::build(&observed, window).expect("observed covers the window");
    let mut scratch = ScoreScratch::new();
    let mut evaluate = |indices: &[usize], tag: u64| -> f64 {
        let mut total = 0.0;
        for (j, &i) in indices.iter().enumerate() {
            let (theta, rho) = &pool[i];
            let seed = derive_stream(500, &[tag, j as u64]);
            let (traj, _) = simulator.run_fresh(theta, seed, window.end).expect("sim");
            let traj = episim::output::SharedTrajectory::root(traj);
            let lw =
                score_window(&traj, *rho, seed, &observed, &prepared, &mut scratch).expect("score");
            total += lw.exp();
        }
        total / indices.len() as f64
    };
    let screened_mean_weight = evaluate(&kept, 1);
    let random_subset: Vec<usize> = (0..kept.len()).collect();
    let random_mean_weight = evaluate(&random_subset, 2);
    println!(
        "mean realized (linear) weight: screened {screened_mean_weight:.2e} vs unscreened {random_mean_weight:.2e}"
    );
    println!(
        "screening concentrated the simulation budget {:.0}x better",
        screened_mean_weight / random_mean_weight.max(1e-300)
    );
    assert!(
        screened_mean_weight > random_mean_weight,
        "screened proposals should realize higher weights"
    );
}
