#![warn(missing_docs)]

//! # epidata — the paper's simulation-study scenario
//!
//! Section V-A of the paper evaluates the SIS framework entirely on
//! *simulated* ground truth: the COVID model is run with a known
//! time-varying transmission rate, the resulting case counts are thinned
//! by a known time-varying reporting probability, and the calibrator is
//! asked to recover both. This crate generates that scenario:
//!
//! * [`schedule::PiecewiseConstant`] — time-varying parameter schedules
//!   (the paper's `theta` horizons at days 34/48/62 and `rho` horizons at
//!   the same breaks).
//! * [`ground_truth`] — runs the truth simulation with checkpoint-based
//!   parameter switching and applies the binomial reporting bias.
//! * [`scenario::Scenario`] — the paper's configuration at full Chicago
//!   scale plus laptop-scale variants used by tests and default bench
//!   runs.
//! * [`io`] — the CSV writer for every series and summary the figure
//!   binaries emit.

pub mod error;
pub mod ground_truth;
pub mod io;
pub mod scenario;
pub mod schedule;

pub use error::DataError;
pub use ground_truth::{generate_ground_truth, try_generate_ground_truth, GroundTruth};
pub use scenario::Scenario;
pub use schedule::PiecewiseConstant;
