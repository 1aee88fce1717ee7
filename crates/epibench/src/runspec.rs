//! Declarative run specifications for the `calibrate` CLI binary.
//!
//! A JSON file fully describes a calibration campaign — scenario,
//! ensemble sizes, windows, data sources, jitter kernels — so
//! operational re-runs ("new week of data arrived") are a config edit,
//! not a code change. The sequential figures are committed specs:
//! `specs/fig4.json` (cases) and `specs/fig5.json` (cases and deaths);
//! `specs/fig4_weekly.json` is Fig 4 with its last window split into
//! weeks. [`RunSpec::run`] runs one.

use epidata::GroundTruth;
use epismc_core::config::CalibrationConfig;
use epismc_core::error::SmcError;
use epismc_core::observation::BiasMode;
use epismc_core::prior::JitterKernel;
use epismc_core::simulator::CovidSimulator;
use epismc_core::sis::{CalibrationResult, ObservedData, Priors, SequentialCalibrator};
use epismc_core::window::{TimeWindow, WindowPlan};
use serde::{Deserialize, Serialize};

/// Which observed data streams to calibrate against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum SourceSpec {
    /// Reported case counts only (paper Section V-B).
    Cases,
    /// Cases plus death counts (paper Section V-C).
    CasesDeaths,
}

/// Jitter-kernel settings for the sequential proposal.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct JitterSpec {
    /// Symmetric half-width for theta.
    pub theta_half: f64,
    /// Downward half-width for rho.
    pub rho_down: f64,
    /// Upward half-width for rho.
    pub rho_up: f64,
}

impl Default for JitterSpec {
    fn default() -> Self {
        Self {
            theta_half: 0.10,
            rho_down: 0.05,
            rho_up: 0.06,
        }
    }
}

/// A complete declarative calibration campaign.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunSpec {
    /// Scenario scale name (`tiny` / `small` / `full`).
    #[serde(default = "default_scale")]
    pub scale: String,
    /// Calibration settings.
    #[serde(default)]
    pub calibration: CalibrationConfig,
    /// Inclusive `[start, end]` day pairs, strictly ordered.
    #[serde(default = "default_windows")]
    pub windows: Vec<(u32, u32)>,
    /// Data streams to score against.
    #[serde(default = "default_sources")]
    pub sources: SourceSpec,
    /// Observation standard deviation on the square-root scale, shared
    /// by every source (`sigma_t = 1` in the paper).
    #[serde(default = "default_sigma")]
    pub sigma: f64,
    /// Proposal jitter settings.
    #[serde(default)]
    pub jitter: JitterSpec,
    /// Output directory for CSV artifacts.
    #[serde(default = "default_out")]
    pub out_dir: String,
}

fn default_scale() -> String {
    "small".into()
}
fn default_windows() -> Vec<(u32, u32)> {
    vec![(20, 33), (34, 47), (48, 61), (62, 90)]
}
fn default_sources() -> SourceSpec {
    SourceSpec::Cases
}
fn default_sigma() -> f64 {
    1.0
}
fn default_out() -> String {
    "results/calibrate".into()
}

impl Default for RunSpec {
    fn default() -> Self {
        Self {
            scale: default_scale(),
            calibration: CalibrationConfig::default(),
            windows: default_windows(),
            sources: default_sources(),
            sigma: default_sigma(),
            jitter: JitterSpec::default(),
            out_dir: default_out(),
        }
    }
}

impl RunSpec {
    /// Parse from a JSON string.
    ///
    /// # Errors
    /// Returns parse and validation errors.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let spec: Self = serde_json::from_str(json).map_err(|e| e.to_string())?;
        spec.validate()?;
        Ok(spec)
    }

    /// Validate semantic constraints beyond the type structure.
    ///
    /// # Errors
    /// Returns the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        self.calibration.validate()?;
        if !(self.sigma.is_finite() && self.sigma > 0.0) {
            return Err(format!("runspec: sigma = {} must be positive", self.sigma));
        }
        if self.windows.is_empty() {
            return Err("runspec: no windows".into());
        }
        for &(a, b) in &self.windows {
            if a > b {
                return Err(format!("runspec: inverted window [{a}, {b}]"));
            }
        }
        for pair in self.windows.windows(2) {
            if pair[1].0 <= pair[0].1 {
                return Err("runspec: windows must be strictly ordered".into());
            }
        }
        let scen = crate::scenario(&self.scale)?;
        if self.windows.last().expect("non-empty").1 > scen.horizon {
            return Err("runspec: window beyond scenario horizon".into());
        }
        if !(self.jitter.theta_half > 0.0 && self.jitter.rho_down > 0.0 && self.jitter.rho_up > 0.0)
        {
            return Err("runspec: jitter half-widths must be positive".into());
        }
        Ok(())
    }

    /// Build the window plan.
    pub fn window_plan(&self) -> WindowPlan {
        WindowPlan::new(
            self.windows
                .iter()
                .map(|&(a, b)| TimeWindow::new(a, b))
                .collect(),
        )
    }

    /// Build the jitter kernels `(theta, rho)`.
    pub fn kernels(&self) -> (Vec<JitterKernel>, JitterKernel) {
        (
            vec![JitterKernel::symmetric(self.jitter.theta_half, 0.05, 0.8)],
            JitterKernel::asymmetric(self.jitter.rho_down, self.jitter.rho_up, 0.05, 1.0),
        )
    }

    /// Run the sequential calibration this spec describes against
    /// `truth`, its scenario's ground truth: the scenario's simulator,
    /// the paper's priors, and the spec's kernels and plan, scoring
    /// `truth`'s reported cases (plus its deaths under
    /// [`SourceSpec::CasesDeaths`]) under sampled binomial bias and the
    /// spec's σ.
    ///
    /// # Errors
    /// [`SmcError::Config`] for a spec that does not validate, else
    /// what [`SequentialCalibrator::run`] returns.
    pub fn run(&self, truth: &GroundTruth) -> Result<CalibrationResult, SmcError> {
        // The calibration's own error first, so it is not wrapped twice.
        self.calibration.validate()?;
        self.validate().map_err(SmcError::Config)?;
        let scenario = crate::scenario(&self.scale).map_err(SmcError::Config)?;
        let simulator = CovidSimulator::new(scenario.base_params)?;
        let (kt, kr) = self.kernels();
        let calibrator =
            SequentialCalibrator::try_new(&simulator, self.calibration.clone(), kt, kr)?;
        let (cases, bias) = (truth.observed_cases.clone(), BiasMode::Sampled);
        let observed = match self.sources {
            SourceSpec::Cases => ObservedData::cases_only_with(cases, bias, self.sigma),
            SourceSpec::CasesDeaths => {
                ObservedData::cases_and_deaths_with(cases, truth.deaths.clone(), bias, self.sigma)
            }
        };
        calibrator.run(&Priors::paper(), &observed, &self.window_plan())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_validates() {
        let spec = RunSpec::default();
        assert!(spec.validate().is_ok());
        assert_eq!(spec.window_plan().len(), 4);
    }

    #[test]
    fn json_round_trip_and_partial_configs() {
        // A minimal config relies on defaults.
        let spec = RunSpec::from_json(r#"{}"#).unwrap();
        assert_eq!(spec.scale, "small");
        assert_eq!(spec.sources, SourceSpec::Cases);
        // A partial override.
        let spec = RunSpec::from_json(
            r#"{
                "scale": "tiny",
                "sources": "cases_deaths",
                "windows": [[10, 20], [21, 40]],
                "sigma": 1.5,
                "calibration": {
                    "n_params": 50, "n_replicates": 2, "resample_size": 100,
                    "seed": 5, "threads": null,
                    "keep_prior_ensemble": false
                }
            }"#,
        )
        .unwrap();
        assert_eq!(spec.scale, "tiny");
        assert_eq!(spec.sources, SourceSpec::CasesDeaths);
        assert_eq!(spec.calibration.n_params, 50);
        assert_eq!(spec.sigma, 1.5);
        // Full serde round trip.
        let json = serde_json::to_string(&spec).unwrap();
        let back = RunSpec::from_json(&json).unwrap();
        assert_eq!(back.windows, spec.windows);
    }

    #[test]
    fn rejects_keys_that_name_no_field() {
        // A runspec carrying σ inside `calibration` (since moved to the
        // top level), one setting the retired `adaptive` refinement, and
        // a misspelled top-level key: each fails, naming the key,
        // instead of running without it.
        for (json, key) in [
            (r#"{"calibration": {"sigma": 2.0}}"#, "sigma"),
            (r#"{"adaptive": {"jitter_decay": 0.7}}"#, "adaptive"),
            (r#"{"windws": [[10, 20]]}"#, "windws"),
        ] {
            let err = RunSpec::from_json(json).unwrap_err();
            assert!(err.contains(key), "{json}: {err}");
        }
    }

    #[test]
    fn rejects_bad_windows() {
        assert!(RunSpec::from_json(r#"{"windows": []}"#).is_err());
        assert!(RunSpec::from_json(r#"{"windows": [[10, 5]]}"#).is_err());
        assert!(RunSpec::from_json(r#"{"windows": [[5, 10], [10, 20]]}"#).is_err());
        assert!(RunSpec::from_json(r#"{"windows": [[5, 500]]}"#).is_err());
    }

    #[test]
    fn rejects_bad_sigma() {
        assert_eq!(RunSpec::from_json(r#"{}"#).unwrap().sigma, 1.0);
        assert!(RunSpec::from_json(r#"{"sigma": 0.0}"#).is_err());
        assert!(RunSpec::from_json(r#"{"sigma": -1.0}"#).is_err());
        for sigma in [f64::NAN, f64::INFINITY] {
            let spec = RunSpec {
                sigma,
                ..RunSpec::default()
            };
            assert!(spec.validate().is_err(), "sigma = {sigma}");
        }
    }

    #[test]
    fn rejects_unknown_scale() {
        assert!(RunSpec::from_json(r#"{"scale": "galactic"}"#).is_err());
    }

    #[test]
    fn kernels_reflect_jitter_spec() {
        let spec = RunSpec::from_json(
            r#"{"jitter": {"theta_half": 0.2, "rho_down": 0.01, "rho_up": 0.09}}"#,
        )
        .unwrap();
        let (kt, kr) = spec.kernels();
        assert!((kt[0].down - 0.2).abs() < 1e-12);
        assert!((kr.down - 0.01).abs() < 1e-12);
        assert!((kr.up - 0.09).abs() < 1e-12);
    }
}
