#![warn(missing_docs)]

//! # epismc — Sequential Monte Carlo UQ for stochastic epidemic models
//!
//! Facade crate re-exporting the full workspace, reproducing
//! *"Towards Improved Uncertainty Quantification of Stochastic Epidemic
//! Models Using Sequential Monte Carlo"* (Fadikar et al., 2024).
//!
//! The workspace is organized as four layers:
//!
//! * [`stats`] — statistical substrate: serializable RNG, distributions,
//!   special functions, weighted summaries, and kernel density estimation.
//! * [`sim`] — a stochastic compartmental disease simulator with two
//!   stochastic steppers (the daily binomial chain every calibration
//!   runs, and exact Gillespie as its fidelity baseline) and full-state
//!   checkpointing.
//! * [`smc`] — the paper's contribution: sequential importance sampling
//!   over simulator trajectories with reporting-bias observation models,
//!   windowed calibration, and a parallel ensemble runner.
//! * [`data`] — the paper's simulation-study scenario: time-varying
//!   ground truth generation, binomial reporting bias, and CSV IO.
//!
//! ## Quickstart
//!
//! Calibrate the first time window of the paper's scenario with plain
//! importance sampling (Algorithm 1), at a tiny scale that runs in
//! seconds:
//!
//! ```
//! use epismc::prelude::*;
//!
//! // The paper's scenario (Section V-A) at test scale: time-varying
//! // transmission rate and reporting probability, 90-day horizon.
//! let scenario = Scenario::paper_tiny();
//! let truth = generate_ground_truth(&scenario, 42);
//!
//! // The simulator the calibrator drives: theta[0] = transmission rate.
//! let simulator = CovidSimulator::new(scenario.base_params.clone()).unwrap();
//!
//! // Algorithm 1 on the first window, days 20..=33.
//! let config = CalibrationConfig::builder()
//!     .n_params(48)
//!     .n_replicates(4)
//!     .resample_size(96)
//!     .seed(7)
//!     .build();
//! let observed = ObservedData::cases_only(truth.observed_cases.clone());
//! let result = SingleWindowIs::new(&simulator, config)
//!     .run(&Priors::paper(), &observed, TimeWindow::new(20, 33))
//!     .expect("calibration");
//!
//! // The posterior concentrates inside the prior support (0.1, 0.5).
//! let mean_theta = result.posterior.mean_theta(0);
//! assert!(mean_theta > 0.1 && mean_theta < 0.5);
//! ```
//!
//! For the full sequential scheme across the paper's four windows, see
//! [`smc::sis::SequentialCalibrator`] and `examples/sequential_calibration.rs`.
pub use epidata as data;
pub use episim as sim;
pub use epismc_core as smc;
pub use epistats as stats;

/// Commonly used items across the workspace, re-exported for examples and
/// downstream users.
pub mod prelude {
    pub use crate::data::{
        generate_ground_truth, try_generate_ground_truth, DataError, GroundTruth,
        PiecewiseConstant, Scenario,
    };
    pub use crate::sim::{
        checkpoint::SimCheckpoint,
        covid::{CovidModel, CovidParams},
        engine::{BinomialChainStepper, GillespieStepper, Stepper},
        error::SimError,
        output::{DailySeries, SharedTrajectory},
        seir::{SeirModel, SeirParams},
        Simulation,
    };
    pub use crate::smc::{
        config::{
            CalibrationConfig, CheckpointPolicy, PmmhConfig, RejuvenationKernel, ResampleScheme,
        },
        diagnostics::{coverage, joint_density, PosteriorSummary, Ribbon},
        error::SmcError,
        forecast::{Forecast, Forecaster},
        likelihood::{GaussianSqrtLikelihood, Likelihood, NegBinomialLikelihood},
        observation::{BiasMode, BinomialBias, DelayedBinomialBias, IdentityBias},
        particle::{Particle, ParticleEnsemble},
        persist::{
            run_fingerprint, DirStore, Fault, FaultPlan, FaultStore, MemStore, ResumeReport,
            RunSnapshot, RunStore, SnapshotWriter,
        },
        prior::{BetaPrior, JitterKernel, Prior, UniformPrior},
        rejuvenate::RejuvenationStats,
        resample::{Multinomial, Resampler, Residual, Stratified, Systematic},
        runner::ParallelRunner,
        simulator::{
            CovidSimulator, PooledWorkspace, SeirSimulator, TrajectorySimulator, WorkspaceStats,
        },
        sis::{
            score_window, CalibrationResult, ObservedData, ObservedSeries, PreparedObserved,
            Priors, ScoreScratch, SequentialCalibrator, SingleWindowIs, TrajectoryTelemetry,
            WindowResult,
        },
        stream::StreamingCalibrator,
        window::{TimeWindow, WindowPlan},
    };
    pub use crate::stats::{
        dist::{Beta, Binomial, Distribution, Normal, Uniform},
        rng::Xoshiro256PlusPlus,
        summary::{ess, weighted_mean, weighted_quantile},
    };
}
