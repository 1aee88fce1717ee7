#![warn(missing_docs)]

//! # epismc-core — sequential importance sampling for stochastic epidemic models
//!
//! The paper's contribution (Fadikar et al., 2024): calibrate a stochastic
//! epidemic simulator against sequentially arriving surveillance data by
//! **trajectory-oriented sequential importance sampling**, treating the
//! random seed as part of the input, with a **binomial reporting-bias
//! model** linking true simulated counts to observed counts, and exploiting
//! embarrassing parallelism across the `(parameter, replicate)` ensemble.
//!
//! The pieces, bottom-up:
//!
//! * [`simulator`] — the [`simulator::TrajectorySimulator`] abstraction over
//!   `episim` models (run fresh / resume from a checkpoint with new
//!   parameters), with ready adapters for the COVID and SEIR models.
//! * [`particle`] — weighted trajectories `(theta, s, rho, history,
//!   checkpoint)` and ensembles thereof.
//! * [`ckpool`] — `Arc`-interned checkpoint sharing: resampled duplicates
//!   and continued proposals alias one allocation, restores are
//!   copy-on-write onto pooled states.
//! * [`prior`] — priors and the window-to-window [`prior::JitterKernel`]
//!   (symmetric for `theta`, asymmetric for `rho`, per Section V-B).
//! * [`observation`] — bias models: [`observation::BinomialBias`]
//!   (`y_t ~ Binomial(eta_t, rho)`, Section IV-A) and the identity map
//!   used for death counts.
//! * [`likelihood`] — Gaussian likelihood on square-root transformed
//!   counts (`sigma = 1` in the paper) and its alternatives.
//! * [`resample`] — multinomial, systematic, stratified, and residual
//!   resamplers.
//! * [`runner`] — the rayon-parallel ensemble executor with deterministic
//!   common-random-number streams.
//! * [`sis`] — Algorithm 1 ([`sis::SingleWindowIs`]) and the windowed
//!   outer loop ([`sis::SequentialCalibrator`]) with checkpoint
//!   propagation and incremental-likelihood weighting.
//! * [`persist`] — the durable run store: versioned, checksummed
//!   per-window snapshots behind [`persist::RunStore`], crash recovery
//!   (`resume_from`), and deterministic fault injection for tests.
//! * [`diagnostics`] — weighted ribbons, posterior summaries, KDE contour
//!   data for the paper's figures.

pub mod adaptive;
pub mod ckpool;
pub mod config;
pub mod diagnostics;
pub mod error;
pub mod forecast;
pub mod likelihood;
pub mod observation;
pub mod particle;
pub mod persist;
pub mod prior;
pub mod rejuvenate;
pub mod resample;
pub mod runner;
pub mod simulator;
pub mod sis;
pub mod stream;
pub mod validate;
pub mod window;

pub use adaptive::AdaptiveConfig;
pub use ckpool::SharedCheckpoint;
pub use config::{
    CalibrationConfig, CheckpointPolicy, PmmhConfig, RejuvenationKernel, ResampleScheme,
};
pub use diagnostics::{coverage, joint_density, JointDensity, PosteriorSummary, Ribbon};
pub use error::SmcError;
pub use forecast::{Forecast, Forecaster};
pub use likelihood::{GaussianSqrtLikelihood, Likelihood};
pub use observation::{BiasMode, BinomialBias, IdentityBias};
pub use particle::{Particle, ParticleEnsemble};
pub use persist::{
    DirStore, Fault, FaultPlan, FaultStore, MemStore, ResumeReport, RunSnapshot, RunStore,
    SnapshotWriter,
};
pub use prior::{BetaPrior, JitterKernel, Prior, UniformPrior};
pub use rejuvenate::RejuvenationStats;
pub use resample::{Multinomial, Resampler, Residual, Stratified, Systematic};
pub use runner::ParallelRunner;
pub use simulator::{
    CovidSimulator, PooledWorkspace, SeirSimulator, TrajectorySimulator, WorkspaceStats,
};
pub use sis::{
    CalibrationResult, DataSource, ObservedData, ObservedSeries, Priors, SequentialCalibrator,
    SingleWindowIs, WindowResult,
};
pub use stream::StreamingCalibrator;
pub use window::{TimeWindow, WindowPlan};
