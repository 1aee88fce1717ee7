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
//! The move is the [`crate::config::RejuvenationKernel::Pmmh`] kernel:
//! a reflected Gaussian random walk whose proposal covariance is the
//! shrunk, scaled empirical posterior covariance, arriving as a Cholesky
//! factor. The proposal is symmetric, so the acceptance ratio reduces to
//! the likelihood ratio under the locally-flat-prior approximation the
//! windowed scheme already makes. Most proposals are rejected, and an
//! exact early-rejection rule (Solonen et al. 2012) stops re-simulating
//! one as soon as no remaining window day can get it accepted.

use std::ops::ControlFlow;
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

/// Outcome statistics of a rejuvenation pass. Every count is exact and
/// the same for every thread shape, for a batch run and a stream, and
/// whether the simulator stops its day loop early or replays a full
/// window (the [`TrajectorySimulator::run_scored_in`] default).
#[derive(Clone, Copy, Debug, Default)]
pub struct RejuvenationStats {
    /// Total proposed moves.
    pub proposed: usize,
    /// Accepted moves.
    pub accepted: usize,
    /// Moves rejected before their window's last day, because a bound on
    /// the final log-likelihood already failed the acceptance test.
    pub decided_early: usize,
    /// Window days scored to reach the decisions: all of a move's window
    /// days when it ran to the window end, the days up to its decision
    /// when it was decided early. Days before the window, which a
    /// particle simulated fresh from day 0 re-runs, are not counted.
    pub decision_days: usize,
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

/// The Metropolis–Hastings test on window log-likelihoods: accept `ll`
/// when it is at least `current`, else with probability
/// `exp(ll - current)`, drawing the uniform only then.
fn accepts(ll: f64, current: f64, uniform: impl FnOnce() -> f64) -> bool {
    ll >= current || uniform() < (ll - current).exp()
}

/// Counter-stream tags of the PMMH pass, additionally keyed by the
/// window index, so every window's move pass draws from its own stream
/// and streaming-vs-batch identity holds window by window.
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
/// acceptance ratio reduces to the likelihood ratio. Proposals are
/// reflected into the jitter kernels' support bounds, keeping the pass
/// inside the same parameter box as the between-window jitter.
///
/// Particles simulated fresh from day 0 (`origin == None`) are re-run
/// from day 0; continued particles re-run from their stored origin
/// checkpoint. Trajectories, end checkpoints, and parameters update on
/// acceptance; seeds never change. Slots move in parallel, each from the
/// particle it holds; a slot with an accepted move becomes a new
/// distinct particle of the ensemble, and the others keep sharing
/// theirs (see [`ParticleEnsemble`]). Like the calibration grid, the
/// pass runs on pooled per-worker workspaces (one `SimState` and one
/// score scratch per worker) with the observed-side likelihood
/// preparation built once, and each particle's streams derive in O(1)
/// from counter-mode keys per `(window, particle)` — so the pass is
/// bit-identical across thread shapes and identical whether the window
/// was computed by a batch run or a streaming append.
///
/// **Early rejection.** A move accepts when `ℓ' >= ℓ || u < exp(ℓ' - ℓ)`
/// ([`accepts`]; `ℓ` the current and `ℓ'` the proposed window
/// log-likelihood), and draws `u` only when `ℓ' < ℓ`. The pass reads
/// that `u` ahead from a clone of the move stream, re-simulates the
/// window through [`TrajectorySimulator::run_scored_in`], and scores
/// each window day as it arrives. After each day it bounds `ℓ'` from
/// above in floating point ([`crate::sis::ScoreScratch::bound`]: every
/// unscored day at its likelihood's
/// [`crate::likelihood::Likelihood::day_term_bound`]). When even that
/// bound `B` fails the test, `!accepts(B, ℓ, u)`, the move is rejected
/// and the simulation stops. Every decision is the one the full window
/// makes: `ℓ' <= B` (or `ℓ'` is NaN), and IEEE subtraction and
/// `f64::exp` are monotone, so the full test fails too. The real `u` is
/// then consumed, as the full test would have drawn it. Posteriors and
/// acceptance counts are therefore bit-identical with and without the
/// rule. A source whose likelihood declares no bound turns it off.
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
    let proposal = Cholesky::new(&scaled, d)
        .map_err(|e| SmcError::Degenerate(format!("pmmh proposal covariance: {e}")))?;
    let move_key = StreamKey::new(master_seed)
        .absorb(TAG_PMMH_MOVE)
        .absorb(window_index as u64);
    let bias_key = StreamKey::new(master_seed)
        .absorb(TAG_PMMH_BIAS)
        .absorb(window_index as u64);

    let prepared = PreparedObserved::build(observed, window)?;
    // Each source's column in the simulator's per-day output rows.
    let names = simulator.output_names();
    let columns = observed
        .sources
        .iter()
        .map(|src| {
            names.iter().position(|n| *n == src.series).ok_or_else(|| {
                SmcError::Observation(format!("the simulator records no series '{}'", src.series))
            })
        })
        .collect::<Result<Vec<usize>, SmcError>>()?;
    let n_days = window.len();
    // ρ also stays inside (0, 1], whatever its support says.
    let (rho_lo, rho_hi) = (jitter_rho.lo.max(1e-9), jitter_rho.hi.min(1.0));
    let zeros = vec![0.0f64; d];
    let ws_stats = Arc::new(WorkspaceStats::default());
    let particles = ensemble.particles();
    // Each slot moves on its own streams from the particle it holds, and
    // copies it only once a move is accepted: a slot whose moves are all
    // rejected keeps sharing it.
    let moved = runner.run_grid_pooled(
        particles.len(),
        1,
        || PooledWorkspace::new(Arc::clone(&ws_stats)),
        |ws, i, _| -> Result<_, SmcError> {
            let start = &particles[i];
            let mut moved: Option<Particle> = None;
            let mut rng = move_key.rng(i as u64);
            let bias_seed = bias_key.derive(i as u64);
            let (sim, scratch) = ws.parts();
            // Current likelihood under a fixed bias draw (shared between
            // current and proposed states so the comparison is exact in
            // the parameters).
            let mut current_ll = score_window(
                &start.trajectory,
                start.rho,
                bias_seed,
                observed,
                &prepared,
                scratch,
            )?;
            let mut counts = RejuvenationStats::default();

            for _ in 0..config.moves {
                let p = moved.as_ref().unwrap_or(start);
                // One correlated Gaussian step for all of (θ, ρ): exactly
                // d standard-normal draws regardless of covariance, so
                // the stream layout is shape-independent.
                let delta = sample_mvn(&proposal, &zeros, &mut rng);
                let theta_new: Vec<f64> = p
                    .theta
                    .iter()
                    .zip(&delta)
                    .zip(jitter_theta)
                    .map(|((&t, &dx), k)| reflect(t + dx, k.lo, k.hi))
                    .collect();
                let rho_new = reflect(p.rho + delta[d - 1], rho_lo, rho_hi);
                // The uniform the acceptance test draws when the
                // proposal scores below the current state.
                let u = rng.clone().next_f64();

                // Re-simulate the window with the SAME seed, scoring each
                // window day as it is produced. The pre-window history
                // is shared, not re-simulated; window days it already
                // holds (an origin inside the window) are scored first.
                let kept = p
                    .origin
                    .as_ref()
                    .map(|o| (o.day, p.trajectory.truncated(o.day)));
                scratch.begin(observed, &prepared, bias_seed)?;
                if let Some((origin_day, history)) = &kept {
                    if *origin_day >= window.start {
                        let last = (*origin_day).min(window.end);
                        scratch.score_stored(history, observed, &prepared, last, rho_new)?;
                    }
                }
                let mut on_day = |day: u32, row: &[u64]| {
                    let scored =
                        scratch.score_day(observed, &prepared, &columns, rho_new, day, row);
                    if scored && scratch.scored < n_days {
                        if let Some(b) = scratch.bound(&prepared) {
                            if !accepts(b, current_ll, || u) {
                                return ControlFlow::Break(());
                            }
                        }
                    }
                    ControlFlow::Continue(())
                };
                let run = simulator.run_scored_in(
                    sim,
                    p.origin.as_deref(),
                    &theta_new,
                    p.seed,
                    window.end,
                    &mut on_day,
                )?;
                counts.decision_days += scratch.scored;
                let Some((tail, checkpoint_new)) = run else {
                    // Rejected with ℓ' < ℓ: draw the uniform the full
                    // test would have drawn.
                    rng.next_f64();
                    counts.decided_early += 1;
                    continue;
                };
                if scratch.scored != n_days {
                    return Err(SmcError::Observation(format!(
                        "the re-simulated trajectory does not cover days [{}, {}]",
                        window.start, window.end
                    )));
                }
                let proposed_ll = scratch.total();
                if accepts(proposed_ll, current_ll, || rng.next_f64()) {
                    moved = Some(Particle {
                        theta: theta_new.into(),
                        rho: rho_new,
                        trajectory: match kept {
                            None => SharedTrajectory::root(tail),
                            // Share the (unchanged) pre-window history:
                            // only the re-simulated segment is fresh
                            // storage.
                            Some((_, history)) => history.append(tail),
                        },
                        checkpoint: crate::ckpool::share(checkpoint_new),
                        ..p.clone()
                    });
                    current_ll = proposed_ll;
                    counts.accepted += 1;
                }
            }
            Ok((moved, counts))
        },
    );

    let mut stats = RejuvenationStats {
        proposed: config.moves * particles.len(),
        ..RejuvenationStats::default()
    };
    // Unmoved slots keep sharing their particle and each moved slot holds
    // a new one; a particle no slot holds any more is dropped.
    let old = ensemble.distinct();
    let mut placed = vec![u32::MAX; old.len()];
    let mut distinct = Vec::with_capacity(old.len());
    let mut slots = Vec::with_capacity(particles.len());
    for (&s, item) in ensemble.slots().iter().zip(moved) {
        let (p, counts) = item?;
        let s = s as usize;
        if let Some(p) = p {
            slots.push(distinct.len() as u32);
            distinct.push(p);
        } else {
            if placed[s] == u32::MAX {
                placed[s] = distinct.len() as u32;
                distinct.push(old[s].clone());
            }
            slots.push(placed[s]);
        }
        stats.accepted += counts.accepted;
        stats.decided_early += counts.decided_early;
        stats.decision_days += counts.decision_days;
    }
    *ensemble = ParticleEnsemble::from_slots(distinct, slots);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::BiasMode;
    use crate::simulator::SeirSimulator;
    use episim::seir::SeirParams;

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
    fn empty_ensemble_is_a_noop() {
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
        let mut empty = ParticleEnsemble::new();
        let stats = pmmh_rejuvenate_window(
            &sim,
            &mut empty,
            &observed,
            TimeWindow::new(5, 30),
            &PmmhConfig::default(),
            &[JitterKernel::symmetric(0.03, 0.05, 1.0)],
            &JitterKernel::asymmetric(0.03, 0.03, 0.05, 1.0),
            1,
            0,
            &ParallelRunner::new(None).unwrap(),
        )
        .unwrap();
        assert_eq!(stats.proposed, 0);
        assert_eq!(stats.acceptance_rate(), 0.0);
    }
}
