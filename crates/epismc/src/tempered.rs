//! Annealed (tempered) importance sampling of a single window — an SMC
//! sampler in the sense of Del Moral, Doucet & Jasra (2006).
//!
//! The paper's Gaussian sqrt-scale likelihood with `sigma = 1` over a
//! multi-week window is extremely sharp: a prior-as-proposal importance
//! sampler puts almost all weight on a handful of trajectories (the
//! degeneracy the Discussion worries about). Annealing flattens the
//! target along a ladder `likelihood^phi`, `0 < phi_1 < ... < phi_K = 1`:
//! at each rung particles are re-weighted by the *increment*
//! `(phi_k - phi_{k-1}) * log-likelihood`, resampled, and diversified by
//! a tempered resample-move step. Each rung's target is only slightly
//! sharper than the previous one, so the ensemble is guided into the
//! high-likelihood region instead of being filtered to near-extinction in
//! one step.

use epistats::logweight::normalize_log_weights;
use epistats::rng::{StreamKey, Xoshiro256PlusPlus};
use epistats::summary::ess;

use crate::config::CalibrationConfig;
use crate::error::SmcError;
use crate::particle::ParticleEnsemble;
use crate::rejuvenate::{rejuvenate, RejuvenationConfig, RejuvenationStats};
use crate::resample::{Multinomial, Resampler};
use crate::runner::ParallelRunner;
use crate::simulator::TrajectorySimulator;
use crate::sis::{
    score_window, ObservedData, PreparedObserved, Priors, ScoreScratch, SingleWindowIs,
};
use crate::window::TimeWindow;

/// Configuration of the annealed single-window sampler.
#[derive(Clone, Debug)]
pub struct TemperedConfig {
    /// The temperature ladder, strictly increasing, ending at 1.0.
    pub ladder: Vec<f64>,
    /// Move-step settings applied at every rung (its `temper` field is
    /// overridden per rung).
    pub rejuvenation: RejuvenationConfig,
}

impl TemperedConfig {
    /// Validate the ladder and move settings.
    ///
    /// # Errors
    /// [`SmcError::Config`] naming the first inconsistency.
    pub fn validate(&self) -> Result<(), SmcError> {
        let invalid = |msg: String| Err(SmcError::Config(format!("tempered: {msg}")));
        if self.ladder.is_empty() {
            return invalid("empty ladder".into());
        }
        let mut prev = 0.0;
        for &phi in &self.ladder {
            if !(phi > prev && phi <= 1.0) {
                return invalid(format!("ladder not strictly increasing at {phi}"));
            }
            prev = phi;
        }
        if (prev - 1.0).abs() > 1e-12 {
            return invalid("ladder must end at 1.0".into());
        }
        self.rejuvenation.validate()
    }

    /// A geometric four-rung ladder `[1/8, 1/4, 1/2, 1]` with the given
    /// move settings.
    pub fn geometric(rejuvenation: RejuvenationConfig) -> Self {
        Self {
            ladder: vec![0.125, 0.25, 0.5, 1.0],
            rejuvenation,
        }
    }
}

/// Result of an annealed window run.
pub struct TemperedResult {
    /// Final (uniformly weighted) posterior particles.
    pub posterior: ParticleEnsemble,
    /// ESS fraction observed at each rung *before* resampling.
    pub rung_ess: Vec<f64>,
    /// Move-step statistics per rung.
    pub rung_moves: Vec<RejuvenationStats>,
}

/// Annealed importance sampling of one window from the prior.
///
/// Draws and simulates the initial ensemble exactly like
/// [`SingleWindowIs`], then anneals through the ladder. The final
/// particles target the same posterior as plain Algorithm 1 but with
/// dramatically better ensemble diversity on sharp likelihoods.
///
/// # Errors
/// Propagates simulator, scoring, and configuration failures.
pub fn tempered_single_window<S: TrajectorySimulator>(
    simulator: &S,
    config: &CalibrationConfig,
    tempered: &TemperedConfig,
    priors: &Priors,
    observed: &ObservedData,
    window: TimeWindow,
) -> Result<TemperedResult, SmcError> {
    tempered.validate()?;

    // Rung 0: prior ensemble, simulated once; log_weight holds the FULL
    // log likelihood of each candidate.
    let mut pilot_cfg = config.clone();
    pilot_cfg.keep_prior_ensemble = true;
    let first = SingleWindowIs::try_new(simulator, pilot_cfg)?.run(priors, observed, window)?;
    let mut ensemble = first
        .prior_ensemble
        .ok_or_else(|| SmcError::Degenerate("pilot run returned no prior ensemble".into()))?;

    let mut rng = Xoshiro256PlusPlus::from_stream(config.seed, &[0x7E4D_u64]);
    let mut rung_ess = Vec::with_capacity(tempered.ladder.len());
    let mut rung_moves = Vec::with_capacity(tempered.ladder.len());
    // One pool for every rung's move step, not one per rung.
    let runner = ParallelRunner::from_option(config.threads);
    // Counter-mode stream keys: per-rung move seeds and per-particle
    // refresh bias seeds derive in O(1) from these shared prefixes
    // (bit-identical to the chained derivation they replace).
    let move_key = StreamKey::new(config.seed).absorb(0x7E4E);
    let refresh_key = StreamKey::new(config.seed).absorb(0x7E4F);
    let prepared = PreparedObserved::build(observed, window)?;

    let mut phi_prev = 0.0;
    for (k, &phi) in tempered.ladder.iter().enumerate() {
        // Incremental weights for this rung: (phi - phi_prev) * ll.
        let lls: Vec<f64> = ensemble.particles().iter().map(|p| p.log_weight).collect();
        let incr: Vec<f64> = lls.iter().map(|&ll| (phi - phi_prev) * ll).collect();
        let weights = normalize_log_weights(&incr);
        rung_ess.push(ess(&weights) / weights.len().max(1) as f64);

        // Resample down (or up) to the configured posterior size at the
        // final rung, keeping the working-size ensemble before that.
        let target = if k == tempered.ladder.len() - 1 {
            config.resample_size
        } else {
            ensemble.len()
        };
        let picks = Multinomial.resample(&weights, target, &mut rng);
        let resampled: Vec<_> = picks
            .iter()
            .map(|&i| ensemble.particles()[i].clone())
            .collect();
        ensemble = ParticleEnsemble::from_vec(resampled);

        // Tempered move step to restore diversity at this rung.
        let mut move_cfg = tempered.rejuvenation.clone();
        move_cfg.temper = phi;
        let stats = rejuvenate(
            simulator,
            &mut ensemble,
            observed,
            window,
            &move_cfg,
            move_key.derive(k as u64),
            &runner,
        )?;
        rung_moves.push(stats);

        // Refresh each particle's stored full log likelihood (moves may
        // have changed parameters/trajectories). Scores are computed in
        // parallel on the rung's runner and written back serially in
        // index order — a deterministic reduction.
        let rung_key = refresh_key.absorb(k as u64);
        let refreshed: Vec<Result<f64, SmcError>> = {
            let particles = ensemble.particles();
            runner.run_indexed(particles.len(), |i| {
                let p = &particles[i];
                score_window(
                    &p.trajectory,
                    p.rho,
                    rung_key.derive(i as u64),
                    observed,
                    &prepared,
                    &mut ScoreScratch::new(),
                )
            })
        };
        for (p, ll) in ensemble.particles_mut().iter_mut().zip(refreshed) {
            p.log_weight = ll?;
        }
        phi_prev = phi;
    }

    let mut posterior = ensemble;
    posterior.set_uniform_weights();
    Ok(TemperedResult {
        posterior,
        rung_ess,
        rung_moves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::BiasMode;
    use crate::prior::{BetaPrior, UniformPrior};
    use crate::simulator::SeirSimulator;
    use episim::seir::SeirParams;

    fn setup() -> (SeirSimulator, ObservedData, TimeWindow, Priors) {
        use crate::simulator::TrajectorySimulator;
        let sim = SeirSimulator::new(SeirParams {
            population: 15_000,
            initial_exposed: 60,
            ..SeirParams::default()
        })
        .unwrap();
        let (truth, _) = sim.run_fresh(&[0.5], 31, 30).unwrap();
        let observed = ObservedData::cases_only_with(
            truth.series_f64("infections").unwrap(),
            BiasMode::Mean,
            1.0,
        );
        let priors = Priors {
            theta: vec![Box::new(UniformPrior::new(0.1, 0.9))],
            rho: Box::new(BetaPrior::new(100.0, 1.0)),
        };
        (sim, observed, TimeWindow::new(5, 30), priors)
    }

    fn move_cfg() -> RejuvenationConfig {
        RejuvenationConfig {
            moves: 1,
            step_theta: vec![0.03],
            step_rho: 0.02,
            support_theta: vec![(0.1, 0.9)],
            support_rho: (0.5, 1.0),
            temper: 1.0,
        }
    }

    fn cal_cfg() -> CalibrationConfig {
        CalibrationConfig::builder()
            .n_params(80)
            .n_replicates(3)
            .resample_size(160)
            .seed(13)
            .build()
    }

    #[test]
    fn annealing_recovers_truth_with_better_diversity() {
        let (sim, observed, window, priors) = setup();
        let tempered = TemperedConfig::geometric(move_cfg());
        let result =
            tempered_single_window(&sim, &cal_cfg(), &tempered, &priors, &observed, window)
                .unwrap();
        // Posterior accuracy.
        let mean = result.posterior.mean_theta(0);
        assert!((mean - 0.5).abs() < 0.07, "theta mean {mean}");
        // Rung ESS fractions are recorded and sane.
        assert_eq!(result.rung_ess.len(), 4);
        assert!(result.rung_ess.iter().all(|&e| e > 0.0 && e <= 1.0));
        // Compare against plain Algorithm 1: the flattened first rung
        // must filter far less aggressively than the one-shot phi = 1
        // weighting.
        let plain = SingleWindowIs::new(&sim, cal_cfg())
            .run(&priors, &observed, window)
            .unwrap();
        let plain_ess_frac = plain.ess / (cal_cfg().ensemble_size() as f64);
        assert!(
            result.rung_ess[0] > plain_ess_frac,
            "first-rung ESS {:.3} should exceed one-shot {:.3}",
            result.rung_ess[0],
            plain_ess_frac
        );
        assert!(
            result.posterior.unique_inputs() > plain.posterior.unique_inputs(),
            "tempered {} unique vs plain {}",
            result.posterior.unique_inputs(),
            plain.posterior.unique_inputs()
        );
        // Moves actually happened.
        let total_moves: usize = result.rung_moves.iter().map(|s| s.proposed).sum();
        assert!(total_moves > 0);
    }

    #[test]
    fn ladder_validation() {
        let ok = TemperedConfig::geometric(move_cfg());
        assert!(ok.validate().is_ok());
        let bad = TemperedConfig {
            ladder: vec![0.5, 0.25, 1.0],
            rejuvenation: move_cfg(),
        };
        assert!(bad.validate().is_err());
        let bad = TemperedConfig {
            ladder: vec![0.5],
            rejuvenation: move_cfg(),
        };
        assert!(bad.validate().is_err());
        let bad = TemperedConfig {
            ladder: vec![],
            rejuvenation: move_cfg(),
        };
        assert!(bad.validate().is_err());
        let bad = TemperedConfig {
            ladder: vec![0.5, 1.5],
            rejuvenation: move_cfg(),
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let (sim, observed, window, priors) = setup();
        let tempered = TemperedConfig::geometric(move_cfg());
        let a = tempered_single_window(&sim, &cal_cfg(), &tempered, &priors, &observed, window)
            .unwrap();
        let b = tempered_single_window(&sim, &cal_cfg(), &tempered, &priors, &observed, window)
            .unwrap();
        let fp = |e: &ParticleEnsemble| -> Vec<u64> {
            e.particles().iter().map(|p| p.theta[0].to_bits()).collect()
        };
        assert_eq!(fp(&a.posterior), fp(&b.posterior));
    }
}
