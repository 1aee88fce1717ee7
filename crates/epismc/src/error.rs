//! Typed errors for the SMC calibration layer.
//!
//! Hand-rolled (no `thiserror` in the vendor tree). `From` bridges keep
//! `?` working both from the simulation layer (`SimError`) and out to
//! legacy `Result<_, String>` signatures.

use std::fmt;

use episim::error::SimError;

/// Errors produced by the calibration/SMC layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SmcError {
    /// Invalid calibration configuration.
    Config(String),
    /// Observed data does not cover the requested window or horizon.
    Observation(String),
    /// The underlying trajectory simulator failed.
    Simulation(String),
    /// A numerical invariant broke (degenerate weights, an unfactorable
    /// proposal covariance, …).
    Degenerate(String),
    /// The run store failed (IO error, missing snapshot, config mismatch).
    Persist(String),
    /// A run-store record failed its checksum or structural validation —
    /// never decoded into a wrong ensemble.
    Corrupt(String),
    /// A run-store record was written by another (older or newer) format
    /// version and is rejected rather than misread.
    UnsupportedFormat(String),
}

impl fmt::Display for SmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmcError::Config(msg) => write!(f, "invalid calibration config: {msg}"),
            SmcError::Observation(msg) => write!(f, "observation error: {msg}"),
            SmcError::Simulation(msg) => write!(f, "simulation error: {msg}"),
            SmcError::Degenerate(msg) => write!(f, "degenerate state: {msg}"),
            SmcError::Persist(msg) => write!(f, "run store error: {msg}"),
            SmcError::Corrupt(msg) => write!(f, "corrupt run record: {msg}"),
            SmcError::UnsupportedFormat(msg) => write!(f, "unsupported run record format: {msg}"),
        }
    }
}

impl std::error::Error for SmcError {}

impl From<SmcError> for String {
    fn from(e: SmcError) -> Self {
        e.to_string()
    }
}

impl From<SimError> for SmcError {
    fn from(e: SimError) -> Self {
        SmcError::Simulation(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefixes_category() {
        assert_eq!(
            SmcError::Observation("window beyond data".into()).to_string(),
            "observation error: window beyond data"
        );
    }

    #[test]
    fn sim_error_lifts_into_simulation_variant() {
        let e: SmcError = SimError::Spec("bad".into()).into();
        assert_eq!(e, SmcError::Simulation("invalid model spec: bad".into()));
    }

    #[test]
    fn persist_variants_render_their_category() {
        assert_eq!(
            SmcError::Persist("disk full".into()).to_string(),
            "run store error: disk full"
        );
        assert_eq!(
            SmcError::Corrupt("crc mismatch".into()).to_string(),
            "corrupt run record: crc mismatch"
        );
        assert_eq!(
            SmcError::UnsupportedFormat("version 9".into()).to_string(),
            "unsupported run record format: version 9"
        );
    }

    #[test]
    fn string_bridge_round_trips_display() {
        let s: String = SmcError::Config("n_params = 0".into()).into();
        assert_eq!(s, "invalid calibration config: n_params = 0");
    }
}
