//! Declarative model specification shared by all steppers.
//!
//! A [`ModelSpec`] describes a stochastic compartmental model as data:
//! compartments with Erlang dwell stages and infectivity weights,
//! dwell-driven progressions with categorical branching, force-of-
//! infection transitions, and the output flows/censuses to record.
//! Both steppers in [`crate::engine`] interpret the same spec, so
//! model fidelity comparisons (binomial chain vs Gillespie) hold the
//! model definition fixed.

use serde::{Deserialize, Serialize};

use crate::error::SimError;

/// Index of a compartment within a [`ModelSpec`].
pub type CompartmentId = usize;

/// A single compartment: a named pool of individuals with an Erlang
/// dwell-time structure and an infectivity weight.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Compartment {
    /// Human-readable name (unique within a spec).
    pub name: String,
    /// Number of Erlang stages; `1` gives an exponential dwell time,
    /// higher values concentrate the dwell around its mean.
    pub stages: u32,
    /// Weight of this compartment's occupants in the force of infection
    /// (0 for non-infectious compartments).
    pub infectivity: f64,
}

impl Compartment {
    /// A non-infectious compartment with a single stage.
    pub fn simple(name: &str) -> Self {
        Self {
            name: name.to_string(),
            stages: 1,
            infectivity: 0.0,
        }
    }

    /// A compartment with the given Erlang stage count and infectivity.
    pub fn new(name: &str, stages: u32, infectivity: f64) -> Self {
        Self {
            name: name.to_string(),
            stages,
            infectivity,
        }
    }
}

/// A dwell-time-driven transition out of a compartment.
///
/// An individual entering `from` stays for an Erlang-distributed time with
/// the given mean (shape = `from`'s stage count), then moves to one of the
/// `branches` targets with the associated probabilities.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Progression {
    /// Source compartment.
    pub from: CompartmentId,
    /// Mean dwell time in days.
    pub mean_dwell: f64,
    /// `(target, probability)` pairs; probabilities must sum to 1.
    pub branches: Vec<(CompartmentId, f64)>,
}

/// A force-of-infection transition: occupants of `susceptible` become
/// `exposed` at per-capita rate
/// `transmission_rate * susceptibility * sum_c(w_c * infectivity_c * count_c) / N`.
///
/// With `sources == None` every compartment contributes with weight 1
/// (homogeneous mixing). Explicit `sources` express structured mixing —
/// e.g. a row of an age-contact matrix in the age-stratified model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Infection {
    /// The susceptible pool.
    pub susceptible: CompartmentId,
    /// Where newly infected individuals land.
    pub exposed: CompartmentId,
    /// Relative susceptibility multiplier of this pool (1 = baseline).
    pub susceptibility: f64,
    /// Optional weighted source compartments; `None` = homogeneous
    /// mixing over all compartments.
    pub sources: Option<Vec<(CompartmentId, f64)>>,
}

impl Infection {
    /// Homogeneous-mixing infection with baseline susceptibility.
    pub fn simple(susceptible: CompartmentId, exposed: CompartmentId) -> Self {
        Self {
            susceptible,
            exposed,
            susceptibility: 1.0,
            sources: None,
        }
    }

    /// Structured-mixing infection: explicit source weights (e.g. one
    /// row of a contact matrix) and a susceptibility multiplier.
    pub fn weighted(
        susceptible: CompartmentId,
        exposed: CompartmentId,
        susceptibility: f64,
        sources: Vec<(CompartmentId, f64)>,
    ) -> Self {
        Self {
            susceptible,
            exposed,
            susceptibility,
            sources: Some(sources),
        }
    }
}

/// A named flow counter: records the number of individuals crossing any
/// of the listed `(from, to)` edges each day.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Output series name (e.g. `"infections"`, `"deaths"`).
    pub name: String,
    /// Edges whose daily traversals are summed into this series.
    pub edges: Vec<(CompartmentId, CompartmentId)>,
}

/// A named census: records end-of-day occupancy summed over compartments.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CensusSpec {
    /// Output series name (e.g. `"hospital_census"`).
    pub name: String,
    /// Compartments whose occupancies are summed.
    pub compartments: Vec<CompartmentId>,
}

/// A complete stochastic compartmental model definition.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Model name (for diagnostics and serialized artifacts).
    pub name: String,
    /// The compartments, indexed by [`CompartmentId`].
    pub compartments: Vec<Compartment>,
    /// Dwell-driven transitions.
    pub progressions: Vec<Progression>,
    /// Force-of-infection transitions.
    pub infections: Vec<Infection>,
    /// Global transmission-rate multiplier (the paper's calibration
    /// parameter `theta`).
    pub transmission_rate: f64,
    /// Daily flow counters to record.
    pub flows: Vec<FlowSpec>,
    /// End-of-day censuses to record.
    pub censuses: Vec<CensusSpec>,
}

impl ModelSpec {
    /// Validate internal consistency; called by the builders of concrete
    /// models and by [`crate::Simulation::new`].
    ///
    /// # Errors
    /// Returns [`SimError::Spec`] describing the first problem found:
    /// out-of-range compartment ids, non-positive dwell times, branch
    /// probabilities that do not sum to 1, duplicate compartment names,
    /// duplicate progressions from one compartment, or a non-finite /
    /// negative transmission rate.
    pub fn validate(&self) -> Result<(), SimError> {
        self.validate_inner().map_err(SimError::Spec)
    }

    fn validate_inner(&self) -> Result<(), String> {
        let n = self.compartments.len();
        if n == 0 {
            return Err("model has no compartments".into());
        }
        let mut names = std::collections::BTreeSet::new();
        for c in &self.compartments {
            if !names.insert(c.name.as_str()) {
                return Err(format!("duplicate compartment name '{}'", c.name));
            }
            if c.stages == 0 {
                return Err(format!("compartment '{}' has zero stages", c.name));
            }
            if !c.infectivity.is_finite() || c.infectivity < 0.0 {
                return Err(format!(
                    "compartment '{}' has invalid infectivity {}",
                    c.name, c.infectivity
                ));
            }
        }
        let mut seen_from = std::collections::BTreeSet::new();
        for p in &self.progressions {
            if p.from >= n {
                return Err(format!("progression from unknown compartment {}", p.from));
            }
            if !seen_from.insert(p.from) {
                return Err(format!(
                    "multiple progressions from compartment '{}'",
                    self.compartments[p.from].name
                ));
            }
            if !(p.mean_dwell.is_finite() && p.mean_dwell > 0.0) {
                return Err(format!(
                    "progression from '{}' has invalid mean dwell {}",
                    self.compartments[p.from].name, p.mean_dwell
                ));
            }
            if p.branches.is_empty() {
                return Err(format!(
                    "progression from '{}' has no branches",
                    self.compartments[p.from].name
                ));
            }
            let mut total = 0.0;
            for &(t, prob) in &p.branches {
                if t >= n {
                    return Err(format!("branch to unknown compartment {t}"));
                }
                if !(prob.is_finite() && prob >= 0.0) {
                    return Err(format!("invalid branch probability {prob}"));
                }
                total += prob;
            }
            if (total - 1.0).abs() > 1e-9 {
                return Err(format!(
                    "branch probabilities from '{}' sum to {total}, not 1",
                    self.compartments[p.from].name
                ));
            }
        }
        for inf in &self.infections {
            if inf.susceptible >= n || inf.exposed >= n {
                return Err("infection references unknown compartment".into());
            }
            if inf.susceptible == inf.exposed {
                return Err("infection with susceptible == exposed".into());
            }
            if !(inf.susceptibility.is_finite() && inf.susceptibility >= 0.0) {
                return Err(format!(
                    "infection has invalid susceptibility {}",
                    inf.susceptibility
                ));
            }
            if let Some(sources) = &inf.sources {
                for &(c, w) in sources {
                    if c >= n {
                        return Err("infection source references unknown compartment".into());
                    }
                    if !(w.is_finite() && w >= 0.0) {
                        return Err(format!("infection source has invalid weight {w}"));
                    }
                }
            }
        }
        if !(self.transmission_rate.is_finite() && self.transmission_rate >= 0.0) {
            return Err(format!(
                "invalid transmission rate {}",
                self.transmission_rate
            ));
        }
        for f in &self.flows {
            for &(a, b) in &f.edges {
                if a >= n || b >= n {
                    return Err(format!("flow '{}' references unknown compartment", f.name));
                }
            }
        }
        for c in &self.censuses {
            for &i in &c.compartments {
                if i >= n {
                    return Err(format!(
                        "census '{}' references unknown compartment",
                        c.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// Look up a compartment id by name.
    pub fn compartment_id(&self, name: &str) -> Option<CompartmentId> {
        self.compartments.iter().position(|c| c.name == name)
    }

    /// Total number of Erlang stages across all compartments (the length
    /// of the flattened state vector).
    pub fn total_stages(&self) -> usize {
        self.compartments.iter().map(|c| c.stages as usize).sum()
    }

    /// Offset of each compartment's first stage in the flattened state
    /// vector; last entry is [`Self::total_stages`].
    pub fn stage_offsets(&self) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(self.compartments.len() + 1);
        let mut acc = 0usize;
        for c in &self.compartments {
            offsets.push(acc);
            acc += c.stages as usize;
        }
        offsets.push(acc);
        offsets
    }

    /// The per-stage exit rate of a progression: Erlang shape over mean
    /// dwell, so the compartment-level dwell has the requested mean.
    pub fn stage_rate(&self, p: &Progression) -> f64 {
        self.compartments[p.from].stages as f64 / p.mean_dwell
    }

    /// Names of all output series in recording order (flows, then
    /// censuses).
    pub fn output_names(&self) -> Vec<String> {
        self.flows
            .iter()
            .map(|f| f.name.clone())
            .chain(self.censuses.iter().map(|c| c.name.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ModelSpec {
        ModelSpec {
            name: "tiny".into(),
            compartments: vec![
                Compartment::simple("S"),
                Compartment::new("I", 2, 1.0),
                Compartment::simple("R"),
            ],
            progressions: vec![Progression {
                from: 1,
                mean_dwell: 5.0,
                branches: vec![(2, 1.0)],
            }],
            infections: vec![Infection::simple(0, 1)],
            transmission_rate: 0.3,
            flows: vec![FlowSpec {
                name: "infections".into(),
                edges: vec![(0, 1)],
            }],
            censuses: vec![CensusSpec {
                name: "infectious".into(),
                compartments: vec![1],
            }],
        }
    }

    #[test]
    fn valid_spec_passes() {
        assert!(tiny_spec().validate().is_ok());
    }

    #[test]
    fn offsets_and_totals() {
        let s = tiny_spec();
        assert_eq!(s.total_stages(), 4);
        assert_eq!(s.stage_offsets(), vec![0, 1, 3, 4]);
        assert_eq!(s.compartment_id("I"), Some(1));
        assert_eq!(s.compartment_id("X"), None);
    }

    #[test]
    fn stage_rate_scales_with_shape() {
        let s = tiny_spec();
        let p = &s.progressions[0];
        assert!((s.stage_rate(p) - 2.0 / 5.0).abs() < 1e-14);
    }

    #[test]
    fn rejects_bad_branch_sum() {
        let mut s = tiny_spec();
        s.progressions[0].branches = vec![(2, 0.5), (0, 0.4)];
        assert!(s.validate().unwrap_err().to_string().contains("sum to"));
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut s = tiny_spec();
        s.compartments[2].name = "S".into();
        assert!(s.validate().unwrap_err().to_string().contains("duplicate"));
    }

    #[test]
    fn rejects_duplicate_progression_source() {
        let mut s = tiny_spec();
        s.progressions.push(Progression {
            from: 1,
            mean_dwell: 2.0,
            branches: vec![(0, 1.0)],
        });
        assert!(s
            .validate()
            .unwrap_err()
            .to_string()
            .contains("multiple progressions"));
    }

    #[test]
    fn rejects_zero_stages_and_bad_rate() {
        let mut s = tiny_spec();
        s.compartments[1].stages = 0;
        assert!(s.validate().is_err());
        let mut s2 = tiny_spec();
        s2.transmission_rate = f64::NAN;
        assert!(s2.validate().is_err());
    }

    #[test]
    fn rejects_out_of_range_references() {
        let mut s = tiny_spec();
        s.flows[0].edges.push((0, 99));
        assert!(s.validate().is_err());
        let mut s2 = tiny_spec();
        s2.infections[0].exposed = 0;
        assert!(s2.validate().is_err());
    }

    #[test]
    fn output_names_order() {
        let s = tiny_spec();
        assert_eq!(s.output_names(), vec!["infections", "infectious"]);
    }
}
