//! Posterior-predictive forecasting from a calibrated particle ensemble.
//!
//! The operational use the paper targets: after calibrating through
//! "today", every posterior particle carries (a) a plausible parameter
//! tuple and (b) a checkpointed simulator state consistent with the
//! observed history. Continuing those checkpoints forward produces a
//! trajectory-level posterior-predictive distribution; scenario analysis
//! (the Discussion's targeted interventions) is a parameter transform
//! applied at the branch point.

use episim::workspace::SimWorkspace;
use epistats::rng::derive_stream;
use epistats::summary::quantile;

use crate::error::SmcError;
use crate::particle::ParticleEnsemble;
use crate::resample::{Multinomial, Resampler};
use crate::runner::ParallelRunner;
use crate::simulator::TrajectorySimulator;

/// A trajectory-ensemble forecast: per-day member values for each
/// recorded output series.
#[derive(Clone, Debug)]
pub struct Forecast {
    /// First forecast day (the day after the calibration horizon).
    pub start_day: u32,
    /// Series name -> `values[day_offset][member]`.
    series: Vec<(String, Vec<Vec<f64>>)>,
}

impl Forecast {
    /// Number of forecast days.
    pub fn len(&self) -> usize {
        self.series.first().map_or(0, |(_, v)| v.len())
    }

    /// Whether the forecast covers zero days.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The member ensemble for `name` on forecast-day offset `d`.
    pub fn ensemble(&self, name: &str, d: usize) -> Option<&[f64]> {
        self.series
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.get(d))
            .map(Vec::as_slice)
    }

    /// Per-day quantile band of one series: `(days, lo, median, hi)` at
    /// probabilities `(q_lo, q_hi)`.
    ///
    /// # Panics
    /// Panics if the series is unknown.
    pub fn band(
        &self,
        name: &str,
        q_lo: f64,
        q_hi: f64,
    ) -> (Vec<u32>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let (_, cols) = self
            .series
            .iter()
            .find(|(n, _)| n == name)
            // epilint: allow(panic-unwrap) — documented panicking accessor; use ensemble() to probe
            .unwrap_or_else(|| panic!("forecast: unknown series '{name}'"));
        let days: Vec<u32> = (0..cols.len() as u32).map(|d| self.start_day + d).collect();
        let lo: Vec<f64> = cols.iter().map(|e| quantile(e, q_lo)).collect();
        let med: Vec<f64> = cols.iter().map(|e| quantile(e, 0.5)).collect();
        let hi: Vec<f64> = cols.iter().map(|e| quantile(e, q_hi)).collect();
        (days, lo, med, hi)
    }

    /// Mean CRPS of one series against realized values (`truth[d]` aligns
    /// with forecast-day offset `d`).
    ///
    /// # Panics
    /// Panics on unknown series or length mismatch.
    pub fn mean_crps(&self, name: &str, truth: &[f64]) -> f64 {
        let (_, cols) = self
            .series
            .iter()
            .find(|(n, _)| n == name)
            // epilint: allow(panic-unwrap) — documented panicking accessor; use ensemble() to probe
            .unwrap_or_else(|| panic!("forecast: unknown series '{name}'"));
        assert_eq!(cols.len(), truth.len(), "mean_crps: length mismatch");
        epistats::score::mean_crps(cols, truth, None)
    }

    /// PIT values of one series against realized values (one per day) —
    /// feed to [`epistats::score::pit_uniformity_statistic`] for a
    /// calibration check.
    ///
    /// # Panics
    /// Panics on unknown series or length mismatch.
    pub fn pits(&self, name: &str, truth: &[f64]) -> Vec<f64> {
        let (_, cols) = self
            .series
            .iter()
            .find(|(n, _)| n == name)
            // epilint: allow(panic-unwrap) — documented panicking accessor; use ensemble() to probe
            .unwrap_or_else(|| panic!("forecast: unknown series '{name}'"));
        assert_eq!(cols.len(), truth.len(), "pits: length mismatch");
        cols.iter()
            .zip(truth)
            .map(|(e, &y)| epistats::score::pit(e, y))
            .collect()
    }
}

/// Posterior-predictive forecaster over a calibrated ensemble.
///
/// Owns its [`ParallelRunner`]: the worker pool is built once by
/// [`Self::new`] and reused by every forecast call. Forecasts are
/// bit-identical for every worker count.
pub struct Forecaster<'a, S: TrajectorySimulator> {
    simulator: &'a S,
    runner: ParallelRunner,
}

impl<'a, S: TrajectorySimulator> Forecaster<'a, S> {
    /// Create a forecaster over a simulator, forecasting on `threads`
    /// workers, or the process default when `None` (the
    /// [`crate::config::CalibrationConfig::threads`] convention, see
    /// [`ParallelRunner::new`]).
    ///
    /// # Errors
    /// [`SmcError::Config`] for `Some(0)`, or if a worker thread cannot be
    /// spawned.
    pub fn new(simulator: &'a S, threads: Option<usize>) -> Result<Self, SmcError> {
        Ok(Self {
            simulator,
            runner: ParallelRunner::new(threads)?,
        })
    }

    /// Forecast `days` beyond the ensemble's checkpoint horizon with
    /// `n_members` posterior-predictive members (particles drawn by
    /// weight, each continued under its own calibrated parameters with a
    /// fresh seed).
    ///
    /// # Errors
    /// Propagates simulator failures and inconsistent checkpoints.
    pub fn forecast(
        &self,
        ensemble: &ParticleEnsemble,
        days: u32,
        n_members: usize,
        seed: u64,
        series_names: &[&str],
    ) -> Result<Forecast, SmcError> {
        self.forecast_with(ensemble, days, n_members, seed, series_names, |t| {
            t.to_vec()
        })
    }

    /// Like [`Self::forecast`], but transforming each particle's
    /// parameters at the branch point — the scenario-analysis hook
    /// (e.g. `|t| vec![t[0] * 0.6]` for a 40% transmission cut).
    ///
    /// # Errors
    /// Propagates simulator failures and inconsistent checkpoints.
    pub fn forecast_with<F>(
        &self,
        ensemble: &ParticleEnsemble,
        days: u32,
        n_members: usize,
        seed: u64,
        series_names: &[&str],
        transform: F,
    ) -> Result<Forecast, SmcError>
    where
        F: Fn(&[f64]) -> Vec<f64> + Send + Sync,
    {
        if ensemble.is_empty() {
            return Err(SmcError::Degenerate("forecast: empty ensemble".into()));
        }
        if days == 0 || n_members == 0 {
            return Err(SmcError::Config(
                "forecast: days and n_members must be positive".into(),
            ));
        }
        let horizon = ensemble.particles()[0].checkpoint.day;
        if ensemble
            .particles()
            .iter()
            .any(|p| p.checkpoint.day != horizon)
        {
            return Err(SmcError::Degenerate(
                "forecast: ensemble checkpoints at mixed horizons".into(),
            ));
        }

        // Draw members by weight (deterministic given seed).
        let mut rng = epistats::rng::Xoshiro256PlusPlus::new(seed);
        let weights = ensemble.normalized_weights();
        let picks = Multinomial.resample(&weights, n_members, &mut rng);

        // One workspace per worker, reused across its members, as the
        // grid does: the model compiles once per worker, not per member.
        let end_day = horizon + days;
        let runs: Vec<Result<episim::output::DailySeries, SmcError>> =
            self.runner
                .run_grid_pooled(n_members, 1, SimWorkspace::new, |ws, m, _| {
                    let p = &ensemble.particles()[picks[m]];
                    let theta = transform(&p.theta);
                    let member_seed = derive_stream(seed, &[0x00F0_CA57_u64, m as u64]);
                    let (tail, _) = self.simulator.run_from_in(
                        ws,
                        &p.checkpoint,
                        &theta,
                        member_seed,
                        end_day,
                    )?;
                    Ok(tail)
                });
        let runs: Vec<episim::output::DailySeries> = runs.into_iter().collect::<Result<_, _>>()?;

        let mut series = Vec::with_capacity(series_names.len());
        for &name in series_names {
            let mut cols: Vec<Vec<f64>> = vec![Vec::with_capacity(n_members); days as usize];
            for run in &runs {
                let vals = run.series(name).ok_or_else(|| {
                    SmcError::Observation(format!("forecast: simulator lacks series '{name}'"))
                })?;
                for (d, &v) in vals.iter().enumerate() {
                    cols[d].push(v as f64);
                }
            }
            series.push((name.to_string(), cols));
        }
        Ok(Forecast {
            start_day: horizon + 1,
            series,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CalibrationConfig;
    use crate::observation::BiasMode;
    use crate::simulator::SeirSimulator;
    use crate::sis::{ObservedData, Priors, SingleWindowIs};
    use crate::window::TimeWindow;
    use episim::seir::SeirParams;

    fn calibrated() -> (SeirSimulator, ParticleEnsemble, Vec<f64>) {
        use crate::simulator::TrajectorySimulator;
        let sim = SeirSimulator::new(SeirParams {
            population: 20_000,
            initial_exposed: 60,
            ..SeirParams::default()
        })
        .unwrap();
        // Truth and its continuation (days 31..60) for scoring.
        let (full, _) = sim.run_fresh(&[0.4], 777, 60).unwrap();
        let cases = full.series_f64("infections").unwrap();
        let observed = ObservedData::cases_only_with(cases[..30].to_vec(), BiasMode::Mean, 1.0);
        let cfg = CalibrationConfig::builder()
            .n_params(120)
            .n_replicates(4)
            .resample_size(240)
            .seed(5)
            .build();
        let priors = Priors {
            theta: vec![Box::new(crate::prior::UniformPrior::new(0.1, 0.8))],
            rho: Box::new(crate::prior::BetaPrior::new(200.0, 1.0)),
        };
        let result = SingleWindowIs::new(&sim, cfg)
            .run(&priors, &observed, TimeWindow::new(5, 30))
            .unwrap();
        (sim, result.posterior, cases[30..].to_vec())
    }

    #[test]
    fn forecast_shapes_and_determinism() {
        let (sim, posterior, _) = calibrated();
        let f = Forecaster::new(&sim, None)
            .unwrap()
            .forecast(&posterior, 30, 50, 9, &["infections"])
            .unwrap();
        assert_eq!(f.start_day, 31);
        assert_eq!(f.len(), 30);
        assert_eq!(f.ensemble("infections", 0).map(<[f64]>::len), Some(50));
        assert!(f.ensemble("infections", 30).is_none());
        assert!(f.ensemble("nope", 0).is_none());
        let f2 = Forecaster::new(&sim, None)
            .unwrap()
            .forecast(&posterior, 30, 50, 9, &["infections"])
            .unwrap();
        assert_eq!(f.ensemble("infections", 10), f2.ensemble("infections", 10));
    }

    #[test]
    fn forecasts_are_bit_identical_across_thread_counts() {
        use crate::simulator::TrajectorySimulator;
        let (sim, posterior, _) = calibrated();
        let outputs = sim.output_names();
        let names: Vec<&str> = outputs.iter().map(String::as_str).collect();
        let at = |threads| {
            Forecaster::new(&sim, Some(threads))
                .unwrap()
                .forecast(&posterior, 30, 50, 9, &names)
                .unwrap()
        };
        let (one, two) = (at(1), at(2));
        assert_eq!((one.start_day, one.len()), (two.start_day, two.len()));
        for &name in &names {
            for d in 0..one.len() {
                let bits = |f: &Forecast| -> Vec<u64> {
                    f.ensemble(name, d)
                        .unwrap()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect()
                };
                assert_eq!(bits(&one), bits(&two), "{name}, day {d}");
            }
        }
        assert!(Forecaster::new(&sim, Some(0)).is_err());
    }

    #[test]
    fn forecast_brackets_realized_future() {
        let (sim, posterior, future) = calibrated();
        let f = Forecaster::new(&sim, None)
            .unwrap()
            .forecast(&posterior, 30, 80, 11, &["infections"])
            .unwrap();
        let (_, lo, _, hi) = f.band("infections", 0.05, 0.95);
        let covered = future
            .iter()
            .enumerate()
            .filter(|&(d, &y)| y >= lo[d] && y <= hi[d])
            .count();
        let frac = covered as f64 / future.len() as f64;
        assert!(frac > 0.5, "90% band covers only {frac:.2} of the future");
    }

    #[test]
    fn calibrated_forecast_beats_wrong_theta_forecast() {
        let (sim, posterior, future) = calibrated();
        let fc = Forecaster::new(&sim, None).unwrap();
        let good = fc
            .forecast(&posterior, 30, 60, 13, &["infections"])
            .unwrap()
            .mean_crps("infections", &future);
        let bad = fc
            .forecast_with(&posterior, 30, 60, 13, &["infections"], |_| vec![0.1])
            .unwrap()
            .mean_crps("infections", &future);
        assert!(
            good < bad,
            "calibrated CRPS {good:.1} not below mis-specified {bad:.1}"
        );
    }

    #[test]
    fn intervention_transform_reduces_caseload() {
        let (sim, posterior, _) = calibrated();
        let fc = Forecaster::new(&sim, None).unwrap();
        let base = fc
            .forecast(&posterior, 30, 60, 17, &["infections"])
            .unwrap();
        let cut = fc
            .forecast_with(&posterior, 30, 60, 17, &["infections"], |t| {
                vec![t[0] * 0.4]
            })
            .unwrap();
        let total = |f: &Forecast| -> f64 {
            (0..f.len())
                .map(|d| {
                    let e = f.ensemble("infections", d).unwrap();
                    e.iter().sum::<f64>() / e.len() as f64
                })
                .sum()
        };
        assert!(
            total(&cut) < 0.7 * total(&base),
            "60% transmission cut should reduce mean caseload: {} vs {}",
            total(&cut),
            total(&base)
        );
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let (sim, posterior, _) = calibrated();
        let fc = Forecaster::new(&sim, None).unwrap();
        assert!(fc
            .forecast(&ParticleEnsemble::new(), 10, 10, 1, &["infections"])
            .is_err());
        assert!(fc.forecast(&posterior, 0, 10, 1, &["infections"]).is_err());
        assert!(fc.forecast(&posterior, 10, 0, 1, &["infections"]).is_err());
        assert!(fc.forecast(&posterior, 10, 10, 1, &["bogus"]).is_err());
    }
}
