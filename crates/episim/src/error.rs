//! Typed errors for model construction, checkpointing, and simulation.
//!
//! Hand-rolled (no `thiserror` in the vendor tree): a small enum with
//! `Display`/`Error` impls plus a `From<SimError> for String` bridge so
//! downstream code still returning `Result<_, String>` can `?` these
//! without churn.

use std::fmt;

/// Errors produced by the simulation layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A model specification failed validation (builder or spec checks).
    Spec(String),
    /// A checkpoint does not match the model layout or cannot be decoded.
    Checkpoint(String),
    /// Filesystem failure while persisting or loading simulation state.
    Io(String),
    /// Recorded output whose values do not fit its column names.
    Output(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Spec(msg) => write!(f, "invalid model spec: {msg}"),
            SimError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            SimError::Io(msg) => write!(f, "io error: {msg}"),
            SimError::Output(msg) => write!(f, "invalid output series: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<SimError> for String {
    fn from(e: SimError) -> Self {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefixes_category() {
        assert_eq!(
            SimError::Spec("no compartments".into()).to_string(),
            "invalid model spec: no compartments"
        );
        assert_eq!(
            SimError::Checkpoint("layout mismatch".into()).to_string(),
            "checkpoint error: layout mismatch"
        );
    }

    #[test]
    fn string_bridge_round_trips_display() {
        let s: String = SimError::Io("disk gone".into()).into();
        assert_eq!(s, "io error: disk gone");
    }

    #[test]
    fn implements_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&SimError::Spec("x".into()));
    }
}
