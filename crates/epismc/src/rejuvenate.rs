//! Resample-move rejuvenation (Gilks & Berzuini 2001) for posterior
//! particle ensembles.
//!
//! After resampling, an ensemble contains duplicated particles — the
//! degeneracy the paper's Discussion worries about ("posterior weights
//! concentrating on just a few draws"). A *move step* restores diversity
//! without changing the target: each particle takes a few
//! Metropolis–Hastings steps in `(theta, rho)`, re-simulating its scored
//! window from its stored origin checkpoint **with its own seed held
//! fixed** (the seed is an input coordinate under trajectory-oriented
//! calibration, so the move explores the parameter directions of the
//! posterior while preserving each particle's stochastic identity).
//!
//! Every kernel runs the same move pass, a reflected Gaussian random walk
//! whose proposal covariance arrives as a Cholesky factor: the diagonal
//! of squared step sizes for the uniform-step [`rejuvenate`] (which the
//! annealed sampler in [`crate::tempered`] also uses per rung), or the
//! shrunk, scaled empirical posterior covariance for the
//! [`crate::config::RejuvenationKernel::Pmmh`] kernel. The proposal is
//! symmetric, so the acceptance ratio reduces to the (tempered)
//! likelihood ratio under the locally-flat-prior approximation the
//! windowed scheme already makes.

use std::sync::Arc;

use episim::output::SharedTrajectory;
use epistats::linalg::{sample_mvn, shrink_covariance, Cholesky};
use epistats::rng::StreamKey;
use epistats::summary::covariance_matrix;

use crate::config::PmmhConfig;
use crate::error::SmcError;
use crate::particle::{Particle, ParticleEnsemble};
use crate::prior::JitterKernel;
use crate::runner::ParallelRunner;
use crate::simulator::{PooledWorkspace, TrajectorySimulator, WorkspaceStats};
use crate::sis::{score_window, ObservedData, PreparedObserved};
use crate::window::TimeWindow;

/// Configuration of the move step.
#[derive(Clone, Debug)]
pub struct RejuvenationConfig {
    /// Metropolis steps per particle.
    pub moves: usize,
    /// Random-walk step standard deviation per theta coordinate.
    pub step_theta: Vec<f64>,
    /// Random-walk step standard deviation for rho.
    pub step_rho: f64,
    /// Hard support bounds per theta coordinate (`(lo, hi)`), applied by
    /// reflection.
    pub support_theta: Vec<(f64, f64)>,
    /// Support bounds for rho (reflection; stays inside `(0, 1)` in any
    /// case).
    pub support_rho: (f64, f64),
    /// Likelihood tempering exponent in `(0, 1]`: the move targets
    /// `likelihood^temper` (1 = the plain posterior; used by the
    /// annealed sampler in [`crate::tempered`]).
    pub temper: f64,
}

impl RejuvenationConfig {
    /// Validate the configuration.
    ///
    /// # Errors
    /// [`SmcError::Config`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), SmcError> {
        let invalid = |msg: String| Err(SmcError::Config(msg));
        if self.moves == 0 {
            return invalid("moves must be >= 1".into());
        }
        if self.step_theta.len() != self.support_theta.len() {
            return invalid("step/support dimension mismatch".into());
        }
        if self.step_theta.iter().any(|&s| !(s.is_finite() && s > 0.0)) {
            return invalid("invalid theta step".into());
        }
        if !(self.step_rho.is_finite() && self.step_rho > 0.0) {
            return invalid("invalid rho step".into());
        }
        if !(self.temper > 0.0 && self.temper <= 1.0) {
            return invalid(format!("temper = {} outside (0, 1]", self.temper));
        }
        for &(lo, hi) in self.support_theta.iter().chain([&self.support_rho]) {
            if lo >= hi {
                return invalid(format!("invalid support [{lo}, {hi}]"));
            }
        }
        Ok(())
    }
}

/// Outcome statistics of a rejuvenation pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct RejuvenationStats {
    /// Total proposed moves.
    pub proposed: usize,
    /// Accepted moves.
    pub accepted: usize,
}

impl RejuvenationStats {
    /// Acceptance rate (0 when nothing was proposed).
    pub fn acceptance_rate(&self) -> f64 {
        if self.proposed == 0 {
            0.0
        } else {
            self.accepted as f64 / self.proposed as f64
        }
    }
}

/// Reflect `x` into `[lo, hi]`.
fn reflect(mut x: f64, lo: f64, hi: f64) -> f64 {
    let span = hi - lo;
    // Fold into a 2-span period, then mirror.
    if !x.is_finite() {
        return (lo + hi) / 2.0;
    }
    while x < lo || x > hi {
        if x < lo {
            x = lo + (lo - x);
        }
        if x > hi {
            x = hi - (x - hi);
        }
        // Pathological huge steps: clamp after a few folds.
        if (x - lo).abs() > 10.0 * span {
            return (lo + hi) / 2.0;
        }
    }
    x
}

/// What one move pass does to each particle: the proposal, the support
/// it reflects into, how many steps, at which temperature, and the
/// counter-mode stream keys its draws derive from.
struct MoveKernel {
    /// Cholesky factor of the proposal covariance over `(θ, ρ)`.
    proposal: Cholesky,
    /// Reflection bounds per θ coordinate, then ρ's.
    bounds: Vec<(f64, f64)>,
    /// Metropolis steps per particle.
    moves: usize,
    /// Likelihood tempering exponent (1 = the plain posterior).
    temper: f64,
    /// Key of each particle's proposal and accept/reject stream.
    move_key: StreamKey,
    /// Key of each particle's bias-draw seed.
    bias_key: StreamKey,
}

/// Apply a uniform-step move to every particle of `ensemble` in place,
/// scoring proposals against `observed` on `window`: `config.moves`
/// Metropolis–Hastings steps of independent reflected Gaussian steps
/// (`step_theta`, `step_rho`) targeting `likelihood^temper`.
///
/// Particles simulated fresh from day 0 (`origin == None`) are re-run
/// from day 0; continued particles re-run from their stored origin
/// checkpoint. Trajectories, end checkpoints, and parameters update on
/// acceptance; seeds never change. The pass runs on the caller's
/// `runner`, so callers that rejuvenate repeatedly (e.g. the annealed
/// sampler) pay for one pool, not one per pass; results are
/// bit-identical for any thread count.
///
/// # Errors
/// [`SmcError::Config`] for an invalid config, plus simulator and
/// scoring failures.
pub fn rejuvenate<S: TrajectorySimulator>(
    simulator: &S,
    ensemble: &mut ParticleEnsemble,
    observed: &ObservedData,
    window: TimeWindow,
    config: &RejuvenationConfig,
    master_seed: u64,
    runner: &ParallelRunner,
) -> Result<RejuvenationStats, SmcError> {
    config.validate()?;
    if ensemble.is_empty() {
        return Ok(RejuvenationStats::default());
    }
    // Squared steps on the diagonal: the correlated draw `L z` reduces
    // to one independent step per coordinate.
    let d = config.step_theta.len() + 1;
    let mut covariance = vec![0.0; d * d];
    for (k, s) in config
        .step_theta
        .iter()
        .chain([&config.step_rho])
        .enumerate()
    {
        covariance[k * d + k] = s * s;
    }
    let kernel = MoveKernel {
        proposal: Cholesky::new(&covariance, d).map_err(SmcError::Config)?,
        bounds: config
            .support_theta
            .iter()
            .chain([&config.support_rho])
            .copied()
            .collect(),
        moves: config.moves,
        temper: config.temper,
        move_key: StreamKey::new(master_seed).absorb(0x4E10_u64),
        bias_key: StreamKey::new(master_seed).absorb(0x4E11_u64),
    };
    move_pass(simulator, ensemble, observed, window, &kernel, runner)
}

/// Counter-stream tags for the PMMH pass, distinct from the uniform-step
/// tags (`0x4E10` / `0x4E11`) and additionally keyed by the window
/// index, so every window's move pass draws from its own stream and
/// streaming-vs-batch identity holds window by window.
const TAG_PMMH_MOVE: u64 = 0x4E12;
const TAG_PMMH_BIAS: u64 = 0x4E13;

/// The [`crate::config::RejuvenationKernel::Pmmh`] move pass: after a
/// window's resampling step, every posterior particle takes
/// `config.moves` Metropolis–Hastings steps whose joint `(θ, ρ)`
/// proposal is a Gaussian with covariance `c·Σ̂` — `Σ̂` the
/// shrinkage-regularized empirical covariance of the posterior ensemble
/// ([`covariance_matrix`] + [`shrink_covariance`], so the factorization
/// cannot fail even for collapsed ensembles) and `c = 2.38²/d` by
/// default, the Roberts–Rosenthal optimal random-walk scaling.
///
/// "Particle-marginal" in the trajectory-oriented sense: each particle's
/// seed is held fixed, so the re-simulated window likelihood plays the
/// role of the (here one-replicate) marginal-likelihood estimate and the
/// acceptance ratio reduces to the likelihood ratio, exactly as in the
/// uniform-step [`rejuvenate`]. Proposals are reflected into the
/// jitter kernels' support bounds, keeping the pass inside the same
/// parameter box as the between-window jitter.
///
/// Streams derive from counter-mode keys per `(window, particle)`, so
/// the pass is bit-identical across thread shapes and identical whether
/// the window was computed by a batch run or a streaming append.
///
/// # Errors
/// [`SmcError::Degenerate`] if the proposal covariance cannot be
/// factored (not reachable for valid configs — pinned by proptest in
/// epistats), plus simulator and scoring failures.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pmmh_rejuvenate_window<S: TrajectorySimulator>(
    simulator: &S,
    ensemble: &mut ParticleEnsemble,
    observed: &ObservedData,
    window: TimeWindow,
    config: &PmmhConfig,
    jitter_theta: &[JitterKernel],
    jitter_rho: &JitterKernel,
    master_seed: u64,
    window_index: usize,
    runner: &ParallelRunner,
) -> Result<RejuvenationStats, SmcError> {
    config.validate().map_err(SmcError::Config)?;
    if ensemble.is_empty() {
        return Ok(RejuvenationStats::default());
    }
    let theta_dim = ensemble.particles()[0].theta.len();
    if theta_dim != jitter_theta.len() {
        return Err(SmcError::Config(format!(
            "pmmh: ensemble theta dimension {theta_dim} != jitter dimension {}",
            jitter_theta.len()
        )));
    }
    let d = theta_dim + 1; // theta coordinates plus rho

    // Empirical covariance of the posterior in (θ, ρ), shrunk to SPD and
    // scaled; computed serially once per pass, so it is deterministic
    // for every thread shape.
    let mut columns: Vec<Vec<f64>> = (0..theta_dim).map(|k| ensemble.thetas(k)).collect();
    columns.push(ensemble.rhos());
    let refs: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
    let cov = covariance_matrix(&refs);
    let shrunk = shrink_covariance(&cov, d, config.shrinkage, config.floor);
    let c = config.scale_for(d);
    let scaled: Vec<f64> = shrunk.iter().map(|&v| c * v).collect();
    let kernel = MoveKernel {
        proposal: Cholesky::new(&scaled, d)
            .map_err(|e| SmcError::Degenerate(format!("pmmh proposal covariance: {e}")))?,
        bounds: jitter_theta
            .iter()
            .chain([jitter_rho])
            .map(|k| (k.lo, k.hi))
            .collect(),
        moves: config.moves,
        temper: 1.0,
        move_key: StreamKey::new(master_seed)
            .absorb(TAG_PMMH_MOVE)
            .absorb(window_index as u64),
        bias_key: StreamKey::new(master_seed)
            .absorb(TAG_PMMH_BIAS)
            .absorb(window_index as u64),
    };
    move_pass(simulator, ensemble, observed, window, &kernel, runner)
}

/// The move pass every kernel runs: each particle takes `kernel.moves`
/// Metropolis–Hastings steps, re-simulating its window with its own seed
/// and accepting on the tempered likelihood ratio.
///
/// Particles move in parallel on owned copies, written back in index
/// order. Like the calibration grid, the pass runs on pooled per-worker
/// workspaces (one `SimState` and one score scratch per worker) with the
/// observed-side likelihood preparation built once, and each particle's
/// streams derive in O(1) from the kernel's counter-mode keys — so
/// results are bit-identical for any thread count.
fn move_pass<S: TrajectorySimulator>(
    simulator: &S,
    ensemble: &mut ParticleEnsemble,
    observed: &ObservedData,
    window: TimeWindow,
    kernel: &MoveKernel,
    runner: &ParallelRunner,
) -> Result<RejuvenationStats, SmcError> {
    let prepared = PreparedObserved::build(observed, window)?;
    let d = kernel.bounds.len();
    let (theta_bounds, rho_bounds) = kernel.bounds.split_at(d - 1);
    // ρ also stays inside (0, 1], whatever its support says.
    let (rho_lo, rho_hi) = (rho_bounds[0].0.max(1e-9), rho_bounds[0].1.min(1.0));
    let zeros = vec![0.0f64; d];
    let ws_stats = Arc::new(WorkspaceStats::default());
    let particles: Vec<_> = ensemble.particles().to_vec();
    let moved: Vec<Result<(Particle, usize), SmcError>> = runner.run_grid_pooled(
        particles.len(),
        1,
        || PooledWorkspace::new(Arc::clone(&ws_stats)),
        |ws, i, _| {
            let mut p = particles[i].clone();
            let mut rng = kernel.move_key.rng(i as u64);
            let bias_seed = kernel.bias_key.derive(i as u64);
            let (sim, scratch) = ws.parts();
            // Current likelihood under a fixed bias draw (shared between
            // current and proposed states so the comparison is exact in
            // the parameters).
            let mut current_ll = score_window(
                &p.trajectory,
                p.rho,
                bias_seed,
                observed,
                &prepared,
                scratch,
            )?;
            let mut accepted_here = 0usize;

            for _ in 0..kernel.moves {
                // One correlated Gaussian step for all of (θ, ρ): exactly
                // d standard-normal draws regardless of covariance, so
                // the stream layout is shape-independent.
                let delta = sample_mvn(&kernel.proposal, &zeros, &mut rng);
                let theta_new: Vec<f64> = p
                    .theta
                    .iter()
                    .zip(&delta)
                    .zip(theta_bounds)
                    .map(|((&t, &dx), &(lo, hi))| reflect(t + dx, lo, hi))
                    .collect();
                let rho_new = reflect(p.rho + delta[d - 1], rho_lo, rho_hi);

                // Re-simulate the window with the SAME seed.
                let (trajectory_new, checkpoint_new) = match &p.origin {
                    None => {
                        let (t, ck) =
                            simulator.run_fresh_in(sim, &theta_new, p.seed, window.end)?;
                        (SharedTrajectory::root(t), ck)
                    }
                    Some(origin) => {
                        let (tail, ck) =
                            simulator.run_from_in(sim, origin, &theta_new, p.seed, window.end)?;
                        // Share the (unchanged) pre-window history: only the
                        // re-simulated window segment is fresh storage.
                        (p.trajectory.truncated(origin.day).append(tail), ck)
                    }
                };
                let proposed_ll = score_window(
                    &trajectory_new,
                    rho_new,
                    bias_seed,
                    observed,
                    &prepared,
                    scratch,
                )?;
                let accept = proposed_ll >= current_ll
                    || rng.next_f64() < (kernel.temper * (proposed_ll - current_ll)).exp();
                if accept {
                    p.theta = theta_new.into();
                    p.rho = rho_new;
                    p.trajectory = trajectory_new;
                    p.checkpoint = crate::ckpool::share(checkpoint_new);
                    current_ll = proposed_ll;
                    accepted_here += 1;
                }
            }
            Ok((p, accepted_here))
        },
    );

    let mut stats = RejuvenationStats {
        proposed: kernel.moves * particles.len(),
        accepted: 0,
    };
    for (slot, item) in ensemble.particles_mut().iter_mut().zip(moved) {
        let (p, acc) = item?;
        *slot = p;
        stats.accepted += acc;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CalibrationConfig;
    use crate::observation::BiasMode;
    use crate::simulator::SeirSimulator;
    use crate::sis::{Priors, SingleWindowIs};
    use episim::seir::SeirParams;

    fn default_config() -> RejuvenationConfig {
        RejuvenationConfig {
            moves: 2,
            step_theta: vec![0.03],
            step_rho: 0.03,
            support_theta: vec![(0.05, 1.0)],
            support_rho: (0.05, 1.0),
            temper: 1.0,
        }
    }

    #[test]
    fn reflect_stays_in_bounds() {
        for &x in &[-3.0, -0.2, 0.0, 0.5, 1.0, 1.7, 9.0, f64::NAN] {
            let r = reflect(x, 0.0, 1.0);
            assert!((0.0..=1.0).contains(&r), "reflect({x}) = {r}");
        }
        // Interior points unchanged.
        assert_eq!(reflect(0.3, 0.0, 1.0), 0.3);
        // Simple mirror.
        assert!((reflect(1.2, 0.0, 1.0) - 0.8).abs() < 1e-12);
        assert!((reflect(-0.2, 0.0, 1.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn config_validation() {
        assert!(default_config().validate().is_ok());
        let mut c = default_config();
        c.moves = 0;
        assert!(c.validate().is_err());
        let mut c = default_config();
        c.step_rho = -0.1;
        assert!(c.validate().is_err());
        let mut c = default_config();
        c.support_theta = vec![(1.0, 0.5)];
        assert!(matches!(c.validate(), Err(SmcError::Config(_))));
    }

    fn calibrated() -> (SeirSimulator, ParticleEnsemble, ObservedData, TimeWindow) {
        use crate::simulator::TrajectorySimulator;
        let sim = SeirSimulator::new(SeirParams {
            population: 15_000,
            initial_exposed: 50,
            ..SeirParams::default()
        })
        .unwrap();
        let (truth, _) = sim.run_fresh(&[0.45], 99, 30).unwrap();
        let observed = ObservedData::cases_only_with(
            truth.series_f64("infections").unwrap(),
            BiasMode::Mean,
            1.0,
        );
        let window = TimeWindow::new(5, 30);
        let cfg = CalibrationConfig::builder()
            .n_params(60)
            .n_replicates(3)
            .resample_size(120)
            .seed(3)
            .build();
        let priors = Priors {
            theta: vec![Box::new(crate::prior::UniformPrior::new(0.1, 0.9))],
            rho: Box::new(crate::prior::BetaPrior::new(100.0, 1.0)),
        };
        let result = SingleWindowIs::new(&sim, cfg)
            .run(&priors, &observed, window)
            .unwrap();
        (sim, result.posterior, observed, window)
    }

    #[test]
    fn rejuvenation_increases_diversity_without_losing_accuracy() {
        let (sim, mut posterior, observed, window) = calibrated();
        let before_unique = posterior.unique_inputs();
        let before_mean = posterior.mean_theta(0);
        let stats = rejuvenate(
            &sim,
            &mut posterior,
            &observed,
            window,
            &default_config(),
            42,
            &ParallelRunner::new(),
        )
        .unwrap();
        assert!(stats.proposed > 0);
        assert!(
            stats.acceptance_rate() > 0.05,
            "acceptance {:.3} suspiciously low",
            stats.acceptance_rate()
        );
        let after_unique = posterior.unique_inputs();
        assert!(
            after_unique > before_unique,
            "diversity {before_unique} -> {after_unique} did not improve"
        );
        // Posterior mean must stay in the right neighbourhood (truth 0.45).
        let after_mean = posterior.mean_theta(0);
        assert!(
            (after_mean - 0.45).abs() < (before_mean - 0.45).abs() + 0.05,
            "mean drifted: {before_mean:.3} -> {after_mean:.3}"
        );
    }

    #[test]
    fn rejuvenation_is_deterministic_in_seed() {
        let (sim, posterior, observed, window) = calibrated();
        let mut a = posterior.clone();
        let mut b = posterior.clone();
        rejuvenate(
            &sim,
            &mut a,
            &observed,
            window,
            &default_config(),
            7,
            &ParallelRunner::with_threads(1),
        )
        .unwrap();
        rejuvenate(
            &sim,
            &mut b,
            &observed,
            window,
            &default_config(),
            7,
            &ParallelRunner::with_threads(2),
        )
        .unwrap();
        let fp = |e: &ParticleEnsemble| -> Vec<u64> {
            e.particles().iter().map(|p| p.theta[0].to_bits()).collect()
        };
        assert_eq!(fp(&a), fp(&b));
    }

    #[test]
    fn empty_ensemble_is_a_noop() {
        let (sim, _, observed, window) = calibrated();
        let mut empty = ParticleEnsemble::new();
        let stats = rejuvenate(
            &sim,
            &mut empty,
            &observed,
            window,
            &default_config(),
            1,
            &ParallelRunner::new(),
        )
        .unwrap();
        assert_eq!(stats.proposed, 0);
        assert_eq!(stats.acceptance_rate(), 0.0);
    }
}
