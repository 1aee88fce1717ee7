//! Calibration configuration.

use serde::{Deserialize, Serialize};

use crate::error::SmcError;
use crate::resample::{Multinomial, Resampler, Residual, Stratified, Systematic};

/// Configuration of one calibration run (shared by the single-window and
/// sequential drivers).
///
/// The paper's full-scale experiment uses `n_params = 25_000`,
/// `n_replicates = 20`, `resample_size = 10_000` on HPC; the defaults
/// here are laptop-scale and every figure binary accepts `--full` to run
/// at paper scale.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CalibrationConfig {
    /// Number of parameter tuples drawn per window.
    pub n_params: usize,
    /// Stochastic replicates per parameter tuple (common random numbers
    /// across tuples, per Section V-B).
    pub n_replicates: usize,
    /// Posterior sample size drawn in the resampling step.
    pub resample_size: usize,
    /// Master seed; everything downstream derives deterministically.
    pub seed: u64,
    /// Worker count of the runner's persistent pool (`None` = the
    /// process default: `RAYON_NUM_THREADS` when set to a positive
    /// integer, else the core count). Never changes results.
    pub threads: Option<usize>,
    /// Keep the full prior ensemble in the window result (needed for the
    /// Fig 3 prior-trajectory cloud; memory-heavy at scale).
    pub keep_prior_ensemble: bool,
    /// Resampling scheme drawing the posterior sample. Result-shaping
    /// (part of the run fingerprint): two runs differing only here
    /// produce different posteriors, each bit-reproducible.
    #[serde(default)]
    pub resample: ResampleScheme,
    /// Post-resampling rejuvenation kernel. Result-shaping (part of the
    /// run fingerprint) when non-default; the default,
    /// [`RejuvenationKernel::UniformJitter`], adds no move pass and
    /// leaves every earlier release's RNG stream layout untouched.
    #[serde(default)]
    pub rejuvenation: RejuvenationKernel,
}

/// The rejuvenation menu: how particle diversity is restored after each
/// window's resampling step.
///
/// Under [`RejuvenationKernel::UniformJitter`] (the default and the
/// paper's scheme) diversity comes solely from the uniform jitter
/// kernels applied when posterior particles are proposed into the next
/// window. [`RejuvenationKernel::Pmmh`] keeps that jitter and *adds* a
/// particle-marginal Metropolis–Hastings move pass on each window's
/// posterior before it is persisted or propagated: every particle
/// proposes `(θ', ρ')` from a Gaussian centered on its current value
/// with covariance `c·Σ̂` — `Σ̂` the shrinkage-regularized empirical
/// covariance of the posterior ensemble, `c = 2.38²/d` by default — is
/// re-simulated over the window under its own fixed trajectory seed,
/// and accepts on the window likelihood ratio. Driven by counter-based
/// streams, so results are bit-identical across thread shapes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum RejuvenationKernel {
    /// Between-window uniform jitter only (the paper's scheme).
    #[default]
    UniformJitter,
    /// Uniform jitter plus a covariance-scaled PMMH move pass after
    /// each window's resampling step.
    Pmmh(PmmhConfig),
}

// The vendored `serde_derive` only handles unit enum variants, so the
// payload-carrying `Pmmh` variant gets hand-written impls: unit
// variants follow the derive's string convention, `Pmmh` is
// externally tagged (`{"Pmmh": {..}}`) like upstream serde would do.
impl Serialize for RejuvenationKernel {
    fn to_value(&self) -> serde::Value {
        match self {
            Self::UniformJitter => serde::Value::Str(String::from("UniformJitter")),
            Self::Pmmh(cfg) => serde::Value::Object(vec![(String::from("Pmmh"), cfg.to_value())]),
        }
    }
}

impl Deserialize for RejuvenationKernel {
    fn from_value(v: &serde::Value) -> Result<Self, String> {
        match v {
            serde::Value::Str(s) if s == "UniformJitter" => Ok(Self::UniformJitter),
            serde::Value::Str(other) => Err(format!("unknown RejuvenationKernel variant {other}")),
            serde::Value::Object(entries) => match entries.first() {
                Some((tag, payload)) if tag == "Pmmh" && entries.len() == 1 => {
                    Ok(Self::Pmmh(PmmhConfig::from_value(payload)?))
                }
                _ => Err(String::from(
                    "expected single-key {\"Pmmh\": {..}} object for RejuvenationKernel",
                )),
            },
            _ => Err(String::from(
                "expected string or object for RejuvenationKernel",
            )),
        }
    }
}

impl RejuvenationKernel {
    /// Validate the kernel parameters.
    ///
    /// # Errors
    /// [`SmcError::Config`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), SmcError> {
        match self {
            Self::UniformJitter => Ok(()),
            Self::Pmmh(cfg) => cfg.validate(),
        }
    }
}

/// Parameters of the PMMH move pass (see [`RejuvenationKernel::Pmmh`]).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PmmhConfig {
    /// MH moves per particle per window.
    pub moves: usize,
    /// Proposal covariance scale `c` in `c·Σ̂`. `None` uses the
    /// Roberts–Rosenthal optimal-scaling default `2.38²/d`, with
    /// `d = theta_dim + 1` (the calibrated coordinates plus `ρ`).
    pub scale: Option<f64>,
    /// Shrinkage intensity `λ ∈ (0, 1]` pulling `Σ̂` toward its scaled
    /// identity target (Ledoit–Wolf style) before factoring.
    pub shrinkage: f64,
    /// Absolute variance floor added to the diagonal so the proposal
    /// stays positive definite even for point-collapsed ensembles.
    pub floor: f64,
}

impl Default for PmmhConfig {
    fn default() -> Self {
        Self {
            moves: 2,
            scale: None,
            shrinkage: 0.1,
            floor: 1e-8,
        }
    }
}

impl PmmhConfig {
    /// Validate the parameters.
    ///
    /// # Errors
    /// [`SmcError::Config`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), SmcError> {
        if self.moves == 0 {
            return Err(SmcError::Config("pmmh: moves must be >= 1".into()));
        }
        if let Some(c) = self.scale {
            if !(c.is_finite() && c > 0.0) {
                return Err(SmcError::Config(format!(
                    "pmmh: scale = {c} must be positive"
                )));
            }
        }
        if !(self.shrinkage > 0.0 && self.shrinkage <= 1.0) {
            return Err(SmcError::Config(format!(
                "pmmh: shrinkage = {} must be in (0, 1]",
                self.shrinkage
            )));
        }
        if !(self.floor.is_finite() && self.floor > 0.0) {
            return Err(SmcError::Config(format!(
                "pmmh: floor = {} must be positive",
                self.floor
            )));
        }
        Ok(())
    }

    /// The proposal covariance scale for a `d`-dimensional move.
    pub fn scale_for(&self, d: usize) -> f64 {
        self.scale
            .unwrap_or_else(|| 2.38 * 2.38 / (d.max(1)) as f64)
    }
}

/// The resampling menu: the paper's multinomial scheme (Algorithm 1)
/// plus the standard lower-variance SMC alternatives. The default,
/// [`ResampleScheme::Multinomial`], preserves the RNG stream layout of
/// every earlier release, so existing goldens and persisted runs are
/// unaffected by the menu's existence.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResampleScheme {
    /// Independent categorical draws (the paper's scheme).
    #[default]
    Multinomial,
    /// One uniform offset, `n` evenly spaced pointers.
    Systematic,
    /// One uniform draw per stratum `[k/n, (k+1)/n)`.
    Stratified,
    /// Deterministic `floor(n w_i)` copies, multinomial on residuals.
    Residual,
}

impl ResampleScheme {
    /// The scheme's implementation.
    pub fn resampler(self) -> &'static dyn Resampler {
        match self {
            Self::Multinomial => &Multinomial,
            Self::Systematic => &Systematic,
            Self::Stratified => &Stratified,
            Self::Residual => &Residual,
        }
    }

    /// Stable discriminant folded into the run fingerprint. The
    /// fingerprint skips the default (Multinomial) entirely, so records
    /// persisted before the menu existed remain resumable.
    pub fn fingerprint_tag(self) -> u64 {
        match self {
            Self::Multinomial => 0,
            Self::Systematic => 1,
            Self::Stratified => 2,
            Self::Residual => 3,
        }
    }
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        Self {
            n_params: 512,
            n_replicates: 10,
            resample_size: 1_024,
            seed: 20_240_101,
            threads: None,
            keep_prior_ensemble: false,
            resample: ResampleScheme::Multinomial,
            rejuvenation: RejuvenationKernel::UniformJitter,
        }
    }
}

impl CalibrationConfig {
    /// Start building a configuration from the defaults.
    pub fn builder() -> CalibrationConfigBuilder {
        CalibrationConfigBuilder {
            cfg: Self::default(),
        }
    }

    /// Validate the configuration.
    ///
    /// # Errors
    /// [`SmcError::Config`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), SmcError> {
        if self.n_params == 0 || self.n_replicates == 0 || self.resample_size == 0 {
            return Err(SmcError::Config(
                "n_params, n_replicates, resample_size must be positive".into(),
            ));
        }
        if self.threads == Some(0) {
            return Err(SmcError::Config("threads must be >= 1 when set".into()));
        }
        self.rejuvenation.validate()
    }
}

/// Opt-in durability policy for a calibration run: when the sequential
/// calibrator snapshots its complete state to a
/// [`crate::persist::RunStore`], and how many snapshots it keeps.
///
/// A snapshot is written after every `every_windows`-th completed window
/// (and always after the final window, so a finished durable run can be
/// reopened). Writes are atomic under the directory store
/// (tmp-file + rename), and `retain` bounds how many records are kept.
/// Persistence never changes calibration results: a persisted run, a
/// plain run, and a killed-then-resumed run are bit-identical.
///
/// A batch run ([`crate::sis::SequentialCalibrator::run_persisted`])
/// hands each snapshot to a background writer thread and overlaps the
/// write with the next window; a [`crate::stream::StreamingCalibrator`]
/// writes inline, so each append returns only once its window is
/// durable. Both write the same records in window order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Snapshot cadence: persist after windows `every_windows - 1`,
    /// `2 * every_windows - 1`, … (1 = after every window).
    pub every_windows: usize,
    /// Keep only the newest `retain` records, deleting older ones after
    /// each write (`None` = unbounded retention).
    pub retain: Option<usize>,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        Self {
            every_windows: 1,
            retain: None,
        }
    }
}

impl CheckpointPolicy {
    /// Persist after every window, keeping every record.
    pub fn every_window() -> Self {
        Self::default()
    }

    /// Validate the policy.
    ///
    /// # Errors
    /// [`SmcError::Config`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), SmcError> {
        if self.every_windows == 0 {
            return Err(SmcError::Config("every_windows must be >= 1".into()));
        }
        if self.retain == Some(0) {
            return Err(SmcError::Config("retain must be >= 1 when set".into()));
        }
        Ok(())
    }

    /// Whether window `widx` (0-based) of a `plan_len`-window plan is
    /// persisted under this policy. The final window always is, so a
    /// completed durable run leaves its end state on disk.
    pub fn persists(&self, widx: usize, plan_len: usize) -> bool {
        (widx + 1).is_multiple_of(self.every_windows) || widx + 1 == plan_len
    }
}

/// Fluent builder for [`CalibrationConfig`].
#[derive(Clone, Debug)]
pub struct CalibrationConfigBuilder {
    cfg: CalibrationConfig,
}

impl CalibrationConfigBuilder {
    /// Set the number of parameter tuples per window.
    pub fn n_params(mut self, v: usize) -> Self {
        self.cfg.n_params = v;
        self
    }

    /// Set the replicates per parameter tuple.
    pub fn n_replicates(mut self, v: usize) -> Self {
        self.cfg.n_replicates = v;
        self
    }

    /// Set the posterior resample size.
    pub fn resample_size(mut self, v: usize) -> Self {
        self.cfg.resample_size = v;
        self
    }

    /// Set the master seed.
    pub fn seed(mut self, v: u64) -> Self {
        self.cfg.seed = v;
        self
    }

    /// Pin the runner's worker count.
    pub fn threads(mut self, v: usize) -> Self {
        self.cfg.threads = Some(v);
        self
    }

    /// Keep the prior ensemble in window results.
    pub fn keep_prior_ensemble(mut self, v: bool) -> Self {
        self.cfg.keep_prior_ensemble = v;
        self
    }

    /// Select the posterior resampling scheme.
    pub fn resample(mut self, v: ResampleScheme) -> Self {
        self.cfg.resample = v;
        self
    }

    /// Select the post-resampling rejuvenation kernel.
    pub fn rejuvenation(mut self, v: RejuvenationKernel) -> Self {
        self.cfg.rejuvenation = v;
        self
    }

    /// Finalize.
    ///
    /// # Panics
    /// Panics if the assembled configuration is invalid; use
    /// [`Self::try_build`] to handle that case without panicking.
    pub fn build(self) -> CalibrationConfig {
        // epilint: allow(panic-unwrap) — documented panicking convenience wrapper over try_build
        self.try_build().expect("invalid CalibrationConfig")
    }

    /// Fallible finalizer: validates the assembled configuration.
    ///
    /// # Errors
    /// Returns [`SmcError::Config`] if the configuration is invalid.
    pub fn try_build(self) -> Result<CalibrationConfig, SmcError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let cfg = CalibrationConfig::builder()
            .n_params(100)
            .n_replicates(5)
            .resample_size(200)
            .seed(7)
            .threads(4)
            .keep_prior_ensemble(true)
            .build();
        assert_eq!((cfg.n_params, cfg.n_replicates), (100, 5));
        assert_eq!(cfg.threads, Some(4));
        assert!(cfg.keep_prior_ensemble);
    }

    #[test]
    #[should_panic]
    fn builder_rejects_zero_params() {
        CalibrationConfig::builder().n_params(0).build();
    }

    #[test]
    fn resample_defaults_under_serde() {
        let json = serde_json::to_string(&CalibrationConfig::default()).unwrap();
        let cfg: CalibrationConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg.resample, ResampleScheme::Multinomial);
        let alt = CalibrationConfig::builder()
            .resample(ResampleScheme::Systematic)
            .build();
        assert_eq!(alt.resample.resampler().name(), "systematic");
    }

    #[test]
    fn rejuvenation_defaults_under_serde_and_validates() {
        // Configs serialized before the kernel menu existed must still
        // deserialize, landing on UniformJitter.
        let serde::Value::Object(entries) = CalibrationConfig::default().to_value() else {
            panic!("config serializes to an object");
        };
        let pruned: Vec<(String, serde::Value)> = entries
            .into_iter()
            .filter(|(k, _)| k != "rejuvenation")
            .collect();
        let cfg = CalibrationConfig::from_value(&serde::Value::Object(pruned)).unwrap();
        assert_eq!(cfg.rejuvenation, RejuvenationKernel::UniformJitter);

        let pmmh = CalibrationConfig::builder()
            .rejuvenation(RejuvenationKernel::Pmmh(PmmhConfig::default()))
            .build();
        let json = serde_json::to_string(&pmmh).unwrap();
        let back: CalibrationConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.rejuvenation, pmmh.rejuvenation);

        // Roberts–Rosenthal default scaling: c = 2.38²/d.
        let p = PmmhConfig::default();
        assert!((p.scale_for(2) - 2.38 * 2.38 / 2.0).abs() < 1e-15);
        assert!((PmmhConfig {
            scale: Some(0.5),
            ..p
        })
        .scale_for(2)
        .eq(&0.5));

        for bad in [
            PmmhConfig {
                moves: 0,
                ..PmmhConfig::default()
            },
            PmmhConfig {
                scale: Some(-1.0),
                ..PmmhConfig::default()
            },
            PmmhConfig {
                shrinkage: 0.0,
                ..PmmhConfig::default()
            },
            PmmhConfig {
                floor: 0.0,
                ..PmmhConfig::default()
            },
        ] {
            let cfg = CalibrationConfig {
                rejuvenation: RejuvenationKernel::Pmmh(bad),
                ..Default::default()
            };
            assert!(cfg.validate().is_err(), "{bad:?} should be rejected");
        }
    }
}
