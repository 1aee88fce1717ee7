//! Simulation-based calibration (SBC) of the full inference pipeline.
//!
//! Talts et al. (2018): if you (1) draw parameters from the prior,
//! (2) simulate data from them, (3) run the posterior machinery, and
//! (4) rank the true parameter within the posterior sample, then over
//! many replicates the ranks are uniform **iff** the posterior machinery
//! is self-consistent. This is the strongest whole-pipeline correctness
//! check available for a simulation-based calibrator: it exercises the
//! prior samplers, the simulator, the bias model, the likelihood, the
//! weighting, and the resampling together.
//!
//! The windowed SIS posterior is itself a finite-ensemble approximation,
//! so small deviations from uniformity are expected; the companion test
//! checks that the SBC statistic is (a) far below that of a deliberately
//! broken pipeline and (b) within a generous uniformity band.

use epistats::rng::{derive_stream, Xoshiro256PlusPlus};

use crate::config::CalibrationConfig;
use crate::observation::{BiasModel, BinomialBias};
use crate::simulator::TrajectorySimulator;
use crate::sis::{ObservedData, Priors, SingleWindowIs};
use crate::window::TimeWindow;

/// The outcome of an SBC run.
#[derive(Clone, Debug)]
pub struct SbcResult {
    /// Rank of the true theta within each replicate's posterior
    /// subsample, in `[0, subsample]`.
    pub theta_ranks: Vec<usize>,
    /// Rank of the true rho within each replicate's posterior subsample.
    pub rho_ranks: Vec<usize>,
    /// Posterior subsample size used for ranking.
    pub subsample: usize,
}

impl SbcResult {
    /// Normalized ranks in `[0, 1]` (suitable for
    /// [`epistats::score::pit_uniformity_statistic`]).
    pub fn normalized_theta_ranks(&self) -> Vec<f64> {
        self.theta_ranks
            .iter()
            .map(|&r| (r as f64 + 0.5) / (self.subsample as f64 + 1.0))
            .collect()
    }

    /// Normalized rho ranks.
    pub fn normalized_rho_ranks(&self) -> Vec<f64> {
        self.rho_ranks
            .iter()
            .map(|&r| (r as f64 + 0.5) / (self.subsample as f64 + 1.0))
            .collect()
    }
}

/// Configuration of an SBC study.
#[derive(Clone, Debug)]
pub struct SbcConfig {
    /// Number of prior-predictive replicates.
    pub replicates: usize,
    /// Posterior draws used for ranking (thinned from the resample).
    pub subsample: usize,
    /// Calibration window (data are generated to `window.end`).
    pub window: TimeWindow,
    /// Master seed.
    pub seed: u64,
    /// Calibration settings for each replicate's posterior.
    pub calibration: CalibrationConfig,
}

/// Run SBC for a one-dimensional-theta simulator under the given priors.
///
/// For each replicate: draw `(theta*, rho*)` from the priors, simulate a
/// truth trajectory, thin its case counts through the binomial bias with
/// `rho*`, calibrate with [`SingleWindowIs`], and record the ranks of
/// `theta*` and `rho*` within a thinned posterior subsample.
///
/// # Errors
/// Propagates simulator and calibration failures.
pub fn run_sbc<S: TrajectorySimulator>(
    simulator: &S,
    priors: &Priors,
    config: &SbcConfig,
) -> Result<SbcResult, String> {
    if simulator.theta_dim() != 1 {
        return Err("run_sbc currently supports 1-d theta".into());
    }
    if config.replicates == 0 || config.subsample == 0 {
        return Err("sbc: replicates and subsample must be positive".into());
    }
    let mut theta_ranks = Vec::with_capacity(config.replicates);
    let mut rho_ranks = Vec::with_capacity(config.replicates);

    for k in 0..config.replicates {
        let mut rng = Xoshiro256PlusPlus::from_stream(config.seed, &[0x5BC0_u64, k as u64]);
        let theta_true = priors.theta[0].sample(&mut rng);
        let rho_true = priors.rho.sample(&mut rng);

        // Prior-predictive data.
        let truth_seed = derive_stream(config.seed, &[0x5BC1, k as u64]);
        let (truth, _) = simulator.run_fresh(&[theta_true], truth_seed, config.window.end)?;
        let true_cases = truth
            .series_f64("infections")
            .ok_or("sbc: simulator lacks 'infections'")?;
        let bias = BinomialBias::sampled();
        let mut bias_rng = Xoshiro256PlusPlus::from_stream(config.seed, &[0x5BC2, k as u64]);
        let observed_cases = bias.observe(&true_cases, rho_true, &mut bias_rng);

        // Posterior.
        let mut cal = config.calibration.clone();
        cal.seed = derive_stream(config.seed, &[0x5BC3, k as u64]);
        let observed = ObservedData::cases_only(observed_cases);
        let result = SingleWindowIs::new(simulator, cal).run(priors, &observed, config.window)?;

        // Thin the (uniformly weighted) posterior to `subsample` draws and
        // rank the truths.
        let post = &result.posterior;
        let stride = (post.len() / config.subsample).max(1);
        let theta_draws: Vec<f64> = post
            .thetas(0)
            .into_iter()
            .step_by(stride)
            .take(config.subsample)
            .collect();
        let rho_draws: Vec<f64> = post
            .rhos()
            .into_iter()
            .step_by(stride)
            .take(config.subsample)
            .collect();
        theta_ranks.push(theta_draws.iter().filter(|&&t| t < theta_true).count());
        rho_ranks.push(rho_draws.iter().filter(|&&r| r < rho_true).count());
    }
    Ok(SbcResult {
        theta_ranks,
        rho_ranks,
        subsample: config.subsample,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prior::{BetaPrior, UniformPrior};
    use crate::simulator::SeirSimulator;
    use episim::seir::SeirParams;
    use epistats::score::pit_uniformity_statistic;

    fn sbc_setup(replicates: usize) -> (SeirSimulator, Priors, SbcConfig) {
        let sim = SeirSimulator::new(SeirParams {
            population: 8_000,
            initial_exposed: 40,
            ..SeirParams::default()
        })
        .unwrap();
        let priors = Priors {
            theta: vec![Box::new(UniformPrior::new(0.2, 0.7))],
            rho: Box::new(BetaPrior::new(4.0, 1.0)),
        };
        let config = SbcConfig {
            replicates,
            subsample: 15,
            window: TimeWindow::new(5, 25),
            seed: 99,
            calibration: CalibrationConfig::builder()
                .n_params(100)
                .n_replicates(4)
                .resample_size(150)
                .seed(1)
                .build(),
        };
        (sim, priors, config)
    }

    #[test]
    fn sbc_ranks_are_roughly_uniform_and_beat_a_broken_pipeline() {
        let (sim, priors, config) = sbc_setup(36);
        let good = run_sbc(&sim, &priors, &config).unwrap();
        assert_eq!(good.theta_ranks.len(), 36);
        assert!(good.theta_ranks.iter().all(|&r| r <= 15));
        let stat_good = pit_uniformity_statistic(&good.normalized_theta_ranks(), 4);

        // Broken pipeline: the "posterior" ignores the data entirely
        // because the observations are replaced by a constant series —
        // theta ranks then collapse toward the prior-vs-truth ordering
        // mismatch... emulate the breakage more directly by ranking
        // against a posterior from the WRONG prior support.
        let wrong_priors = Priors {
            theta: vec![Box::new(UniformPrior::new(0.65, 0.9))],
            rho: Box::new(BetaPrior::new(4.0, 1.0)),
        };
        // Truths still drawn from `priors` (0.2..0.7): posterior mass
        // sits above most truths, so ranks pile up at 0.
        let mut broken_cfg = config.clone();
        broken_cfg.replicates = 24;
        let broken =
            run_sbc_with_mismatched_truth(&sim, &priors, &wrong_priors, &broken_cfg).unwrap();
        let stat_broken = pit_uniformity_statistic(&broken.normalized_theta_ranks(), 4);
        assert!(
            stat_broken > 3.0 * stat_good.max(1.0),
            "broken pipeline stat {stat_broken:.1} should dwarf good {stat_good:.1}"
        );
        // Generous absolute band for the good pipeline: chi2(3) mean 3,
        // far tail at ~16; allow finite-ensemble slack.
        assert!(
            stat_good < 20.0,
            "uniformity statistic {stat_good:.1} too large"
        );
    }

    /// SBC variant where truths come from `truth_priors` but calibration
    /// uses `fit_priors` — a deliberately inconsistent pipeline used as
    /// the negative control.
    fn run_sbc_with_mismatched_truth<S: TrajectorySimulator>(
        simulator: &S,
        truth_priors: &Priors,
        fit_priors: &Priors,
        config: &SbcConfig,
    ) -> Result<SbcResult, String> {
        let mut theta_ranks = Vec::new();
        let mut rho_ranks = Vec::new();
        for k in 0..config.replicates {
            let mut rng = Xoshiro256PlusPlus::from_stream(config.seed, &[0xBAD0_u64, k as u64]);
            let theta_true = truth_priors.theta[0].sample(&mut rng);
            let rho_true = truth_priors.rho.sample(&mut rng);
            let truth_seed = derive_stream(config.seed, &[0xBAD1, k as u64]);
            let (truth, _) = simulator.run_fresh(&[theta_true], truth_seed, config.window.end)?;
            let true_cases = truth.series_f64("infections").unwrap();
            let bias = BinomialBias::sampled();
            let mut bias_rng = Xoshiro256PlusPlus::from_stream(config.seed, &[0xBAD2, k as u64]);
            let observed_cases = bias.observe(&true_cases, rho_true, &mut bias_rng);
            let mut cal = config.calibration.clone();
            cal.seed = derive_stream(config.seed, &[0xBAD3, k as u64]);
            let observed = ObservedData::cases_only(observed_cases);
            let result =
                SingleWindowIs::new(simulator, cal).run(fit_priors, &observed, config.window)?;
            let post = &result.posterior;
            let stride = (post.len() / config.subsample).max(1);
            let draws: Vec<f64> = post
                .thetas(0)
                .into_iter()
                .step_by(stride)
                .take(config.subsample)
                .collect();
            theta_ranks.push(draws.iter().filter(|&&t| t < theta_true).count());
            rho_ranks.push(0);
        }
        Ok(SbcResult {
            theta_ranks,
            rho_ranks,
            subsample: config.subsample,
        })
    }

    #[test]
    fn sbc_rejects_bad_config() {
        let (sim, priors, mut config) = sbc_setup(1);
        config.replicates = 0;
        assert!(run_sbc(&sim, &priors, &config).is_err());
    }

    #[test]
    fn normalized_ranks_live_in_unit_interval() {
        let r = SbcResult {
            theta_ranks: vec![0, 7, 15],
            rho_ranks: vec![3, 3, 3],
            subsample: 15,
        };
        for v in r
            .normalized_theta_ranks()
            .iter()
            .chain(r.normalized_rho_ranks().iter())
        {
            assert!((0.0..=1.0).contains(v));
        }
    }
}
