#![warn(missing_docs)]

//! # episim — stochastic compartmental disease simulation with checkpointing
//!
//! A from-scratch reimplementation of the simulation substrate the paper
//! builds on (the COVID-Chicago stochastic SEIR model of Runge et al.,
//! 2022), structured as a *generic* engine over a declarative
//! [`spec::ModelSpec`]:
//!
//! * Compartments hold integer occupancy counts split across **Erlang
//!   dwell stages**, so non-exponential residence times are expressible
//!   while the full simulation state remains a plain count vector — which
//!   is what makes checkpoints small and exact.
//! * Transitions are **progressions** (dwell-time driven, with categorical
//!   branching on exit) and **infections** (force-of-infection driven,
//!   mass-action with per-compartment infectivity weights).
//! * Two exact-stochastic steppers share the spec: the daily
//!   [`engine::BinomialChainStepper`] (the default, matching the reference
//!   model's daily cadence, and the stepper every calibration runs) and
//!   [`engine::GillespieStepper`] (the exact direct method, tractable for
//!   small populations and used as the fidelity baseline in tests).
//! * [`checkpoint::SimCheckpoint`] serializes the *entire* simulation
//!   state — clock, stage counts, and RNG state — and supports restarting
//!   **with new parameter values**, which is the paper's trajectory-
//!   branching mechanism (Section III-B).
//!
//! The concrete models live in [`covid`] (the full Fig 1 compartment
//! graph with detected/undetected strata) and [`seir`] (a minimal SEIR
//! used for tests, examples, and stepper-fidelity comparisons).

pub mod checkpoint;
pub mod covid;
pub mod covid_age;
pub mod engine;
pub mod error;
pub mod output;
pub mod runner;
pub mod seir;
pub mod spec;
pub mod state;
pub mod workspace;

pub use checkpoint::SimCheckpoint;
pub use covid::{CovidModel, CovidParams};
pub use covid_age::{AgeGroup, CovidAgeModel, CovidAgeParams};
pub use engine::{BinomialChainStepper, GillespieStepper, Stepper};
pub use error::SimError;
pub use output::DailySeries;
pub use runner::Simulation;
pub use seir::{SeirModel, SeirParams};
pub use spec::ModelSpec;
pub use state::SimState;
pub use workspace::SimWorkspace;
