//! Cross-commit golden fingerprints of the Metropolis–Hastings move
//! pass. The other rejuvenation suites pin the pass only across thread
//! shapes within one build; these constants pin what it computes, so a
//! refactor of the move loop (proposal, stream layout, accept rule,
//! write-back) must reproduce every particle bit for bit.
//!
//! The fixture is a three-window PMMH sequential run on
//! `Scenario::paper_tiny`. Each fingerprint is an FNV-1a hash over every
//! particle's θ bits, ρ bits, seed and log-weight bits, in ensemble
//! order.

use epismc::prelude::*;

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
