//! Posterior diagnostics: the numbers behind every figure panel.
//!
//! * [`Ribbon`] — per-day weighted quantile bands over an ensemble's
//!   trajectories (the 50%/90% credible ribbons of Figs 4a/5a), on the
//!   true scale or pushed through each particle's own reporting bias
//!   (the "reported cases" panels).
//! * [`PosteriorSummary`] — scalar posterior summaries per parameter.
//! * [`joint_density`] — weighted 2-D KDE of `(theta_k, rho)` with 50%/90%
//!   highest-density contour levels (Figs 4b/5b).
//! * [`coverage`] — fraction of truth days inside a credible band, the
//!   calibration check EXPERIMENTS.md reports.

use epistats::kde::{DensityGrid, Kde2d};
use epistats::summary::{weighted_mean, weighted_quantile, weighted_variance};

use crate::particle::ParticleEnsemble;

/// Per-day weighted quantile bands of an ensemble's trajectories.
#[derive(Clone, Debug)]
pub struct Ribbon {
    /// Absolute day of each row.
    pub days: Vec<u32>,
    /// 5th percentile (lower edge of the 90% band).
    pub q05: Vec<f64>,
    /// 25th percentile (lower edge of the 50% band).
    pub q25: Vec<f64>,
    /// Median.
    pub q50: Vec<f64>,
    /// 75th percentile.
    pub q75: Vec<f64>,
    /// 95th percentile.
    pub q95: Vec<f64>,
}

impl Ribbon {
    /// Build a ribbon for one output series of an ensemble on absolute
    /// days `[day_lo, day_hi]`, using the ensemble's current weights.
    ///
    /// # Errors
    /// Returns an error if any particle's trajectory does not cover the
    /// requested range or lacks the series.
    pub fn from_ensemble(
        ensemble: &ParticleEnsemble,
        series: &str,
        day_lo: u32,
        day_hi: u32,
    ) -> Result<Self, String> {
        Self::build(ensemble, series, day_lo, day_hi, |vals, _| vals)
    }

    /// Build a ribbon on the *reported* scale: each particle's true
    /// counts are thinned through the binomial bias with the particle's
    /// own `rho` (conditional mean, which is the posterior-predictive
    /// center; sampled noise belongs to the predictive draw, not the
    /// ribbon center).
    ///
    /// # Errors
    /// Same coverage errors as [`Self::from_ensemble`].
    pub fn from_ensemble_reported(
        ensemble: &ParticleEnsemble,
        series: &str,
        day_lo: u32,
        day_hi: u32,
    ) -> Result<Self, String> {
        Self::build(ensemble, series, day_lo, day_hi, |vals, rho| {
            vals.into_iter().map(|v| v * rho).collect()
        })
    }

    fn build<F>(
        ensemble: &ParticleEnsemble,
        series: &str,
        day_lo: u32,
        day_hi: u32,
        transform: F,
    ) -> Result<Self, String>
    where
        F: Fn(Vec<f64>, f64) -> Vec<f64>,
    {
        if ensemble.is_empty() {
            return Err("ribbon: empty ensemble".into());
        }
        if day_hi < day_lo {
            return Err(format!("ribbon: inverted day range [{day_lo}, {day_hi}]"));
        }
        let n_days = (day_hi - day_lo + 1) as usize;
        let weights = ensemble.normalized_weights();

        // matrix[d] = per-particle values on day day_lo + d.
        let mut matrix: Vec<Vec<f64>> = vec![Vec::with_capacity(ensemble.len()); n_days];
        for p in ensemble.particles() {
            let w = p.trajectory.window(series, day_lo, day_hi).ok_or_else(|| {
                format!("ribbon: trajectory does not cover '{series}' on [{day_lo}, {day_hi}]")
            })?;
            let vals: Vec<f64> = w.iter().map(|&v| v as f64).collect();
            let vals = transform(vals, p.rho);
            for (d, v) in vals.into_iter().enumerate() {
                matrix[d].push(v);
            }
        }

        let mut ribbon = Ribbon {
            days: (day_lo..=day_hi).collect(),
            q05: Vec::with_capacity(n_days),
            q25: Vec::with_capacity(n_days),
            q50: Vec::with_capacity(n_days),
            q75: Vec::with_capacity(n_days),
            q95: Vec::with_capacity(n_days),
        };
        for day_vals in &matrix {
            ribbon.q05.push(weighted_quantile(day_vals, &weights, 0.05));
            ribbon.q25.push(weighted_quantile(day_vals, &weights, 0.25));
            ribbon.q50.push(weighted_quantile(day_vals, &weights, 0.50));
            ribbon.q75.push(weighted_quantile(day_vals, &weights, 0.75));
            ribbon.q95.push(weighted_quantile(day_vals, &weights, 0.95));
        }
        Ok(ribbon)
    }

    /// Mean width of the 90% band — the uncertainty measure compared
    /// between Figs 4 and 5 (adding deaths should shrink it).
    pub fn mean_width_90(&self) -> f64 {
        self.q95
            .iter()
            .zip(&self.q05)
            .map(|(&hi, &lo)| hi - lo)
            .sum::<f64>()
            / self.days.len() as f64
    }
}

/// Fraction of truth values falling inside the ribbon's 90% band.
///
/// `truth[i]` must align with `ribbon.days[i]`.
///
/// # Panics
/// Panics on a length mismatch.
pub fn coverage(ribbon: &Ribbon, truth: &[f64]) -> f64 {
    assert_eq!(truth.len(), ribbon.days.len(), "coverage: length mismatch");
    let inside = truth
        .iter()
        .enumerate()
        .filter(|&(i, &t)| t >= ribbon.q05[i] && t <= ribbon.q95[i])
        .count();
    inside as f64 / truth.len() as f64
}

/// Scalar posterior summary of one parameter.
#[derive(Clone, Copy, Debug)]
pub struct PosteriorSummary {
    /// Weighted mean.
    pub mean: f64,
    /// Weighted standard deviation.
    pub sd: f64,
    /// 5% / 50% / 95% weighted quantiles.
    pub q05: f64,
    /// Median.
    pub q50: f64,
    /// 95th percentile.
    pub q95: f64,
}

impl PosteriorSummary {
    /// Summarize arbitrary weighted values.
    ///
    /// # Panics
    /// Panics on empty or mismatched inputs.
    pub fn from_weighted(values: &[f64], weights: &[f64]) -> Self {
        Self {
            mean: weighted_mean(values, weights),
            sd: weighted_variance(values, weights).sqrt(),
            q05: weighted_quantile(values, weights, 0.05),
            q50: weighted_quantile(values, weights, 0.50),
            q95: weighted_quantile(values, weights, 0.95),
        }
    }

    /// Summarize `theta[k]` of an ensemble.
    pub fn of_theta(ensemble: &ParticleEnsemble, k: usize) -> Self {
        Self::from_weighted(&ensemble.thetas(k), &ensemble.normalized_weights())
    }

    /// Summarize `rho` of an ensemble.
    pub fn of_rho(ensemble: &ParticleEnsemble) -> Self {
        Self::from_weighted(&ensemble.rhos(), &ensemble.normalized_weights())
    }

    /// Whether `value` lies inside the central 90% interval.
    pub fn covers(&self, value: f64) -> bool {
        (self.q05..=self.q95).contains(&value)
    }
}

/// The joint `(theta_k, rho)` posterior density on a grid, with the HDR
/// levels that draw the paper's 50% and 90% contours.
pub struct JointDensity {
    /// The evaluated density grid (x = theta, y = rho).
    pub grid: DensityGrid,
    /// Density level enclosing 50% of the posterior mass.
    pub level50: f64,
    /// Density level enclosing 90% of the posterior mass.
    pub level90: f64,
}

/// Compute the weighted joint KDE of `(theta[k], rho)` over the grid
/// rectangle `bounds` (e.g. the prior support, for window-by-window
/// comparability).
///
/// # Panics
/// Panics on an empty ensemble.
pub fn joint_density(
    ensemble: &ParticleEnsemble,
    k: usize,
    bounds: ((f64, f64), (f64, f64)),
    resolution: usize,
) -> JointDensity {
    assert!(!ensemble.is_empty(), "joint_density: empty ensemble");
    let xs = ensemble.thetas(k);
    let ys = ensemble.rhos();
    let ws = ensemble.normalized_weights();
    let ((x_lo, x_hi), (y_lo, y_hi)) = bounds;
    let grid =
        Kde2d::new(&xs, &ys, Some(&ws)).grid((x_lo, x_hi), (y_lo, y_hi), resolution, resolution);
    let level50 = grid.hdr_level(0.5);
    let level90 = grid.hdr_level(0.9);
    JointDensity {
        grid,
        level50,
        level90,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particle::Particle;
    use episim::checkpoint::SimCheckpoint;
    use episim::output::DailySeries;
    use episim::spec::{Compartment, FlowSpec, Infection, ModelSpec, Progression};
    use episim::state::SimState;

    fn particle_with_series(level: u64, rho: f64, log_w: f64) -> Particle {
        let spec = ModelSpec {
            name: "d".into(),
            compartments: vec![Compartment::simple("S"), Compartment::new("I", 1, 1.0)],
            progressions: vec![Progression {
                from: 1,
                mean_dwell: 1.0,
                branches: vec![(0, 1.0)],
            }],
            infections: vec![Infection::simple(0, 1)],
            transmission_rate: 0.1,
            flows: vec![FlowSpec {
                name: "infections".into(),
                edges: vec![(0, 1)],
            }],
            censuses: vec![],
        };
        let mut traj = DailySeries::new(vec!["infections".into()], 1);
        for _ in 0..10 {
            traj.push_day(&[level]);
        }
        Particle {
            theta: vec![level as f64 / 100.0].into(),
            rho,
            seed: level,
            log_weight: log_w,
            trajectory: traj.into(),
            checkpoint: SimCheckpoint::capture(&spec, &SimState::empty(&spec, 1)).into(),
            origin: None,
        }
    }

    fn ensemble() -> ParticleEnsemble {
        ParticleEnsemble::from_vec(vec![
            particle_with_series(100, 0.5, 0.0),
            particle_with_series(200, 0.6, 0.0),
            particle_with_series(300, 0.7, 0.0),
        ])
    }

    #[test]
    fn ribbon_quantiles_bracket_the_members() {
        let r = Ribbon::from_ensemble(&ensemble(), "infections", 1, 10).unwrap();
        assert_eq!(r.days.len(), 10);
        for d in 0..10 {
            assert!(r.q05[d] >= 100.0 && r.q95[d] <= 300.0);
            assert!((r.q50[d] - 200.0).abs() < 1e-9);
            assert!(r.q05[d] <= r.q25[d] && r.q25[d] <= r.q50[d]);
            assert!(r.q50[d] <= r.q75[d] && r.q75[d] <= r.q95[d]);
        }
    }

    #[test]
    fn reported_ribbon_scales_by_each_rho() {
        let r = Ribbon::from_ensemble_reported(&ensemble(), "infections", 1, 10).unwrap();
        // Reported levels: 50, 120, 210 -> median 120.
        assert!((r.q50[0] - 120.0).abs() < 1e-9);
        assert!(r.q95[0] <= 210.0 + 1e-9);
    }

    #[test]
    fn ribbon_weights_shift_quantiles() {
        let mut e = ensemble();
        e.particles_mut()[2].log_weight = 10.0; // dominate
        let r = Ribbon::from_ensemble(&e, "infections", 1, 10).unwrap();
        assert!(
            r.q50[0] > 290.0,
            "median {} should be pulled to 300",
            r.q50[0]
        );
    }

    #[test]
    fn ribbon_errors_on_missing_coverage() {
        assert!(Ribbon::from_ensemble(&ensemble(), "infections", 1, 11).is_err());
        assert!(Ribbon::from_ensemble(&ensemble(), "nope", 1, 5).is_err());
        assert!(Ribbon::from_ensemble(&ParticleEnsemble::new(), "x", 1, 2).is_err());
    }

    #[test]
    fn coverage_counts_inside_days() {
        let r = Ribbon::from_ensemble(&ensemble(), "infections", 1, 10).unwrap();
        // Truth at the median: covered; truth way outside: not.
        assert_eq!(coverage(&r, &[200.0; 10]), 1.0);
        assert_eq!(coverage(&r, &[1e6; 10]), 0.0);
        let mut half = vec![200.0; 10];
        for v in half.iter_mut().take(5) {
            *v = 1e6;
        }
        assert!((coverage(&r, &half) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn posterior_summary_basics() {
        let e = ensemble();
        let s = PosteriorSummary::of_rho(&e);
        assert!((s.mean - 0.6).abs() < 1e-12);
        assert!(s.covers(0.6));
        assert!(!s.covers(0.99));
        let st = PosteriorSummary::of_theta(&e, 0);
        assert!((st.mean - 2.0).abs() < 1e-9);
    }

    #[test]
    fn joint_density_mode_near_heavy_particle() {
        let mut e = ensemble();
        e.particles_mut()[1].log_weight = 8.0;
        let jd = joint_density(&e, 0, ((0.0, 4.0), (0.0, 1.0)), 50);
        let (mx, my) = jd.grid.mode();
        assert!((mx - 2.0).abs() < 0.5, "mode theta = {mx}");
        assert!((my - 0.6).abs() < 0.1, "mode rho = {my}");
        // With one dominating particle the posterior is near a point mass
        // and one grid cell can hold both HDRs, so levels may coincide.
        assert!(jd.level50 >= jd.level90);
    }
}
