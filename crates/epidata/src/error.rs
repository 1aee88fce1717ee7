//! Typed errors for scenario data and ground truth.
//!
//! Hand-rolled (no `thiserror` in the vendor tree).

use std::fmt;

use episim::error::SimError;

/// Errors produced by the data layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DataError {
    /// Scenario validation or ground-truth simulation failure.
    Scenario(String),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::Scenario(msg) => write!(f, "scenario error: {msg}"),
        }
    }
}

impl std::error::Error for DataError {}

impl From<DataError> for String {
    fn from(e: DataError) -> Self {
        e.to_string()
    }
}

impl From<SimError> for DataError {
    fn from(e: SimError) -> Self {
        DataError::Scenario(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_error_lifts_into_scenario_variant() {
        let e: DataError = SimError::Spec("bad".into()).into();
        assert_eq!(e, DataError::Scenario("invalid model spec: bad".into()));
    }

    #[test]
    fn string_bridge_round_trips_display() {
        let s: String = DataError::Scenario("invalid horizon".into()).into();
        assert_eq!(s, "scenario error: invalid horizon");
    }
}
