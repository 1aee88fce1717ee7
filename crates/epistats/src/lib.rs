#![warn(missing_docs)]

//! # epistats — statistical substrate for `epismc`
//!
//! Everything statistical that the SMC framework and the disease simulator
//! need, implemented from scratch with no dependency outside the workspace:
//!
//! * [`special`] — special functions (`ln_gamma`, incomplete beta/gamma,
//!   `erfc`, inverse normal CDF) with accuracy tested against high-precision
//!   reference values.
//! * [`rng`] — an [`rng::Xoshiro256PlusPlus`] generator with an
//!   explicit state and deterministic stream derivation for parallel
//!   common-random-number designs.
//! * [`dist`] — probability distributions (sampling + log-density + CDF /
//!   quantile where available): uniform, normal, gamma, beta, binomial
//!   (with the shared-hazard batch sampler the simulator's hot loop
//!   uses), categorical (alias method), and a sampler-free Poisson pmf
//!   and CDF used as a test reference.
//! * [`summary`] — weighted means/variances/quantiles, effective sample
//!   size of importance weights, histograms.
//! * [`logweight`] — numerically stable log-weight arithmetic
//!   (`log_sum_exp`, normalization).
//! * [`kde`] — 2-D Gaussian kernel density estimation with
//!   highest-density-region level extraction (used for the paper's joint
//!   posterior contour plots, Figs 4b/5b).
//!
//! The crate is `#![deny(missing_docs)]`-clean on its public API and has
//! no dependency on any external statistics library (see DESIGN.md §5).

pub mod dist;
pub mod kde;
pub mod linalg;
pub mod logweight;
pub mod rng;
pub mod score;
pub mod special;
pub mod summary;

pub use logweight::{log_mean_exp, log_sum_exp, normalize_log_weights};
