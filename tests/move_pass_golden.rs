//! Cross-commit golden fingerprints of the Metropolis–Hastings move
//! pass. The other rejuvenation suites pin the pass only across thread
//! shapes within one build; these constants pin what it computes, so a
//! refactor of the move loop (proposal, stream layout, accept rule,
//! write-back) must reproduce every particle bit for bit.
//!
//! Four fixtures on `Scenario::paper_tiny`: the uniform-step kernel at
//! `temper = 1` and at `temper < 1`, the annealed sampler's per-rung
//! moves, and a three-window PMMH sequential run. Each fingerprint is an
//! FNV-1a hash over every particle's θ bits, ρ bits, seed and log-weight
//! bits, in ensemble order.

use epismc::prelude::*;
use epismc::smc::tempered::{tempered_single_window, TemperedConfig};

const FNV_INIT: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn fingerprint(ensemble: &ParticleEnsemble) -> u64 {
    let mut h = fnv(FNV_INIT, ensemble.len() as u64);
    for p in ensemble.particles() {
        for t in p.theta.iter() {
            h = fnv(h, t.to_bits());
        }
        h = fnv(h, p.rho.to_bits());
        h = fnv(h, p.seed);
        h = fnv(h, p.log_weight.to_bits());
    }
    h
}

fn setup() -> (GroundTruth, CovidSimulator) {
    let scenario = Scenario::paper_tiny();
    let truth = generate_ground_truth(&scenario, scenario.truth_seed);
    let simulator = CovidSimulator::new(scenario.base_params).unwrap();
    (truth, simulator)
}

fn calibration(seed: u64) -> CalibrationConfig {
    CalibrationConfig::builder()
        .n_params(48)
        .n_replicates(3)
        .resample_size(96)
        .seed(seed)
        .build()
}

fn move_config(temper: f64) -> RejuvenationConfig {
    RejuvenationConfig {
        moves: 2,
        step_theta: vec![0.02],
        step_rho: 0.05,
        support_theta: vec![(0.05, 0.8)],
        support_rho: (0.05, 1.0),
        temper,
    }
}

/// Fingerprint and accepted-move count of a uniform-step pass over the
/// posterior of window `[20, 33]`.
fn uniform_step(temper: f64) -> (u64, usize) {
    let (truth, simulator) = setup();
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let window = TimeWindow::new(20, 33);
    let mut posterior = SingleWindowIs::new(&simulator, calibration(2))
        .run(&Priors::paper(), &observed, window)
        .unwrap()
        .posterior;
    let runner = ParallelRunner::with_threads(2);
    let stats = rejuvenate(
        &simulator,
        &mut posterior,
        &observed,
        window,
        &move_config(temper),
        11,
        &runner,
    )
    .unwrap();
    assert_eq!(stats.proposed, 2 * posterior.len());
    (fingerprint(&posterior), stats.accepted)
}

#[test]
fn uniform_step_pass_at_full_temper_is_pinned() {
    let (fp, accepted) = uniform_step(1.0);
    assert_eq!((fp, accepted), (0x4A6F_454C_3CBC_F64E, 59));
}

#[test]
fn uniform_step_pass_below_full_temper_is_pinned() {
    let (fp, accepted) = uniform_step(0.35);
    assert_eq!((fp, accepted), (0xDF14_A66A_0B51_8D79, 103));
}

#[test]
fn tempered_rung_moves_are_pinned() {
    let (truth, simulator) = setup();
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let mut move_cfg = move_config(1.0);
    move_cfg.moves = 1;
    let result = tempered_single_window(
        &simulator,
        &calibration(13),
        &TemperedConfig::geometric(move_cfg),
        &Priors::paper(),
        &observed,
        TimeWindow::new(20, 33),
    )
    .unwrap();
    let accepted: Vec<usize> = result.rung_moves.iter().map(|s| s.accepted).collect();
    let fp = fingerprint(&result.posterior);
    assert_eq!(
        (fp, accepted),
        (0xA67B_605E_77EA_8E02, vec![108, 97, 89, 38])
    );
}

#[test]
fn pmmh_sequential_windows_are_pinned() {
    let (truth, simulator) = setup();
    let observed =
        ObservedData::cases_and_deaths(truth.observed_cases.clone(), truth.deaths.clone());
    let mut cfg = calibration(7_311);
    cfg.rejuvenation = RejuvenationKernel::Pmmh(PmmhConfig::default());
    let plan = WindowPlan::new(vec![
        TimeWindow::new(20, 33),
        TimeWindow::new(34, 47),
        TimeWindow::new(48, 61),
    ]);
    let result = SequentialCalibrator::new(
        &simulator,
        cfg,
        vec![JitterKernel::symmetric(0.08, 0.05, 0.8)],
        JitterKernel::asymmetric(0.05, 0.08, 0.05, 1.0),
    )
    .run(&Priors::paper(), &observed, &plan)
    .unwrap();
    let got: Vec<(u64, u64, usize)> = result
        .windows
        .iter()
        .map(|w| {
            let stats = w.rejuvenation.expect("PMMH pass ran");
            (
                fingerprint(&w.posterior),
                w.log_marginal.to_bits(),
                stats.accepted,
            )
        })
        .collect();
    assert_eq!(
        got,
        vec![
            (0xB676_E4E1_F350_150D, 0xC03F_8C54_475C_9009, 17),
            (0x678A_8BF4_FDF3_8F6F, 0xC03F_40CF_3AA9_E9E5, 15),
            (0x1E99_672B_FA14_FF4E, 0xC03F_0346_B588_C253, 31),
        ]
    );
}
