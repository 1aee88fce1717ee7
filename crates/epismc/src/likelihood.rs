//! Likelihoods comparing observed data to (bias-transformed) simulated
//! trajectories.
//!
//! The paper uses a Gaussian likelihood on **square-root transformed
//! counts** with a diagonal covariance and `sigma_t = 1` (Section V-B) —
//! the square root acts as a variance-stabilizing transform for count
//! data. Independent per-source likelihoods multiply (cases x deaths,
//! Equation 4): [`crate::sis::score_window`] adds their log terms.

/// A log-likelihood of an observed window given a simulated window on the
/// observed scale.
///
/// The `Debug` form must show every parameter the likelihood scores
/// with: a persisted run fingerprints it with the data, so a stream
/// cannot reopen under a different σ.
pub trait Likelihood: Send + Sync + std::fmt::Debug {
    /// `log l(observed | simulated_observed)` over a whole window; slices
    /// are aligned by day and must have equal length. The scorer sums
    /// [`Self::prepared_day_term`] instead; this is the reference those
    /// day terms must reproduce.
    fn log_likelihood(&self, observed: &[f64], simulated: &[f64]) -> f64;

    /// Precompute the observed-side transform of a window, one value per
    /// observed day (clearing `out` first). The prepared values are
    /// opaque: only [`Self::prepared_day_term`] of the *same* likelihood
    /// interprets them. The default stores the observations unchanged;
    /// [`GaussianSqrtLikelihood`] stores `sqrt(y_t)`, hoisting the
    /// square root out of the per-particle scoring loop — the observed
    /// window is fixed while thousands of particles score against it.
    fn prepare_observed(&self, observed: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(observed);
    }

    /// One day's log-likelihood contribution given the prepared observed
    /// value and the bias-transformed simulated value.
    ///
    /// Contract: summing the day terms of a window in ascending day order
    /// must be **bit-identical** to `log_likelihood(observed, simulated)`
    /// on the same window — implementations must perform the same float
    /// operations in the same order.
    fn prepared_day_term(&self, prepared_y: f64, eta_obs: f64) -> f64;

    /// An upper bound on [`Self::prepared_day_term`]`(prepared_y, η)`
    /// over every simulated value `η`, as computed in floating point
    /// (a term that comes out NaN counts as under it).
    ///
    /// The PMMH move pass uses it to stop re-simulating a proposal once
    /// no remaining day can get it accepted; a bound that is not exact
    /// in floating point would change which moves are accepted. The
    /// default, `f64::INFINITY`, declares no bound, and a pass over a
    /// source without one never stops early.
    fn day_term_bound(&self, prepared_y: f64) -> f64 {
        let _ = prepared_y;
        f64::INFINITY
    }

    /// Short identifier for logs.
    fn name(&self) -> &'static str;
}

/// The Gaussian day term's peak, `-ln σ - ln √(2π)`. It bounds
/// `-0.5·z·z - ln σ - ln √(2π)` exactly in floating point:
/// `-0.5·z·z` is never above `-0.0`, IEEE subtraction is monotone, and
/// `-0.0 - ln σ` is `-ln σ` exactly.
fn gaussian_peak(sigma: f64) -> f64 {
    -sigma.ln() - LN_SQRT_2PI
}

/// Independent Gaussian likelihood on square-root transformed counts:
/// `sum_t log N(sqrt(y_t); sqrt(eta_t), sigma^2)`.
#[derive(Clone, Copy, Debug)]
pub struct GaussianSqrtLikelihood {
    sigma: f64,
}

const LN_SQRT_2PI: f64 = 0.918_938_533_204_672_7;

impl GaussianSqrtLikelihood {
    /// Create with observation standard deviation `sigma` (the paper uses 1).
    ///
    /// # Panics
    /// Panics unless `sigma > 0` and finite.
    pub fn new(sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma > 0.0,
            "GaussianSqrtLikelihood: sigma = {sigma}"
        );
        Self { sigma }
    }

    /// The paper's configuration, `sigma = 1`.
    pub fn paper() -> Self {
        Self::new(1.0)
    }
}

impl Likelihood for GaussianSqrtLikelihood {
    fn log_likelihood(&self, observed: &[f64], simulated: &[f64]) -> f64 {
        assert_eq!(
            observed.len(),
            simulated.len(),
            "log_likelihood: window length mismatch"
        );
        let mut acc = 0.0;
        for (&y, &eta) in observed.iter().zip(simulated) {
            debug_assert!(y >= 0.0 && eta >= 0.0, "counts must be non-negative");
            let z = (y.max(0.0).sqrt() - eta.max(0.0).sqrt()) / self.sigma;
            acc += -0.5 * z * z - self.sigma.ln() - LN_SQRT_2PI;
        }
        acc
    }

    fn prepare_observed(&self, observed: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(observed.iter().map(|&y| y.max(0.0).sqrt()));
    }

    fn prepared_day_term(&self, prepared_y: f64, eta_obs: f64) -> f64 {
        let z = (prepared_y - eta_obs.max(0.0).sqrt()) / self.sigma;
        -0.5 * z * z - self.sigma.ln() - LN_SQRT_2PI
    }

    fn day_term_bound(&self, _prepared_y: f64) -> f64 {
        gaussian_peak(self.sigma)
    }

    fn name(&self) -> &'static str {
        "gaussian-sqrt"
    }
}

/// Gaussian likelihood on raw counts (no transform) — available for
/// sensitivity comparisons against the paper's sqrt-scale choice.
#[derive(Clone, Copy, Debug)]
pub struct GaussianRawLikelihood {
    sigma: f64,
}

impl GaussianRawLikelihood {
    /// Create with standard deviation `sigma`.
    ///
    /// # Panics
    /// Panics unless `sigma > 0` and finite.
    pub fn new(sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma > 0.0,
            "GaussianRawLikelihood: sigma = {sigma}"
        );
        Self { sigma }
    }
}

impl Likelihood for GaussianRawLikelihood {
    fn log_likelihood(&self, observed: &[f64], simulated: &[f64]) -> f64 {
        assert_eq!(observed.len(), simulated.len(), "window length mismatch");
        observed
            .iter()
            .zip(simulated)
            .map(|(&y, &eta)| {
                let z = (y - eta) / self.sigma;
                -0.5 * z * z - self.sigma.ln() - LN_SQRT_2PI
            })
            .sum()
    }

    fn prepared_day_term(&self, prepared_y: f64, eta_obs: f64) -> f64 {
        let z = (prepared_y - eta_obs) / self.sigma;
        -0.5 * z * z - self.sigma.ln() - LN_SQRT_2PI
    }

    fn day_term_bound(&self, _prepared_y: f64) -> f64 {
        gaussian_peak(self.sigma)
    }

    fn name(&self) -> &'static str {
        "gaussian-raw"
    }
}

/// Negative-binomial count likelihood with mean `eta_t` and dispersion
/// `k` (variance `mu + mu^2 / k`) — the standard overdispersed
/// alternative to the paper's Gaussian sqrt-scale choice, listed here
/// because the framework is "capable of incorporating various types of
/// likelihoods" (Section V-C).
///
/// Observations are rounded to the nearest integer count.
#[derive(Clone, Copy, Debug)]
pub struct NegBinomialLikelihood {
    k: f64,
}

impl NegBinomialLikelihood {
    /// Create with dispersion `k > 0` (smaller = more overdispersed;
    /// `k -> inf` approaches Poisson).
    ///
    /// # Panics
    /// Panics unless `k` is positive and finite.
    pub fn new(k: f64) -> Self {
        assert!(k.is_finite() && k > 0.0, "NegBinomialLikelihood: k = {k}");
        Self { k }
    }

    fn ln_pmf(&self, y: u64, mu: f64) -> f64 {
        use epistats::special::{ln_factorial, ln_gamma};
        // Floor the mean so a zero-prediction day cannot annihilate the
        // whole window on its own; 0.5 cases is "effectively none".
        let mu = mu.max(0.5);
        let k = self.k;
        let y_f = y as f64;
        ln_gamma(y_f + k) - ln_gamma(k) - ln_factorial(y)
            + k * (k / (k + mu)).ln()
            + y_f * (mu / (k + mu)).ln()
    }
}

impl Likelihood for NegBinomialLikelihood {
    fn log_likelihood(&self, observed: &[f64], simulated: &[f64]) -> f64 {
        assert_eq!(observed.len(), simulated.len(), "window length mismatch");
        observed
            .iter()
            .zip(simulated)
            .map(|(&y, &mu)| {
                debug_assert!(y >= 0.0 && mu >= 0.0);
                // epilint: allow(lossy-cast) — rounded and clamped non-negative; exact at count scale
                self.ln_pmf(y.round().max(0.0) as u64, mu)
            })
            .sum()
    }

    fn prepared_day_term(&self, prepared_y: f64, eta_obs: f64) -> f64 {
        // epilint: allow(lossy-cast) — rounded and clamped non-negative; exact at count scale
        self.ln_pmf(prepared_y.round().max(0.0) as u64, eta_obs)
    }

    fn name(&self) -> &'static str {
        "neg-binomial"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_match_gives_maximal_likelihood() {
        let l = GaussianSqrtLikelihood::paper();
        let y = [4.0, 9.0, 16.0];
        let best = l.log_likelihood(&y, &y);
        let worse = l.log_likelihood(&y, &[1.0, 4.0, 9.0]);
        assert!(best > worse);
        // At a perfect match each term is -ln(sqrt(2 pi)).
        assert!((best - (-3.0 * LN_SQRT_2PI)).abs() < 1e-12);
    }

    #[test]
    fn sqrt_transform_stabilizes_scale() {
        let l = GaussianSqrtLikelihood::paper();
        // Same *relative* deviation at small and large counts: the sqrt
        // scale penalizes the large-count case more in absolute sqrt
        // distance (sqrt(10000)-sqrt(9000) ~ 5.13 vs sqrt(100)-sqrt(90)
        // ~ 0.513), keeping information content comparable per count.
        let small = l.log_likelihood(&[100.0], &[90.0]);
        let large = l.log_likelihood(&[10_000.0], &[9_000.0]);
        assert!(small > large);
        // And same absolute sqrt-scale deviation scores identically.
        let a = l.log_likelihood(&[16.0], &[9.0]); // sqrt diff 1
        let b = l.log_likelihood(&[25.0], &[16.0]); // sqrt diff 1
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn sigma_scales_the_penalty() {
        let tight = GaussianSqrtLikelihood::new(0.5);
        let loose = GaussianSqrtLikelihood::new(2.0);
        let y = [100.0];
        let eta = [64.0];
        // Relative to each one's own perfect-match baseline, the tight
        // likelihood penalizes the same deviation more.
        let pt = tight.log_likelihood(&y, &y) - tight.log_likelihood(&y, &eta);
        let pl = loose.log_likelihood(&y, &y) - loose.log_likelihood(&y, &eta);
        assert!(pt > pl);
    }

    #[test]
    fn raw_likelihood_reference_value() {
        let l = GaussianRawLikelihood::new(2.0);
        let got = l.log_likelihood(&[5.0], &[3.0]);
        let want = -0.5 * 1.0 - 2.0f64.ln() - LN_SQRT_2PI;
        assert!((got - want).abs() < 1e-12);
    }

    #[test]
    fn empty_window_is_neutral() {
        let l = GaussianSqrtLikelihood::paper();
        assert_eq!(l.log_likelihood(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        GaussianSqrtLikelihood::paper().log_likelihood(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn negbinomial_peaks_at_the_mean() {
        let l = NegBinomialLikelihood::new(10.0);
        let at_mean = l.log_likelihood(&[50.0], &[50.0]);
        let off_low = l.log_likelihood(&[50.0], &[20.0]);
        let off_high = l.log_likelihood(&[50.0], &[120.0]);
        assert!(at_mean > off_low && at_mean > off_high);
    }

    #[test]
    fn negbinomial_pmf_normalizes() {
        // Sum the pmf over a generous support at small mean.
        let l = NegBinomialLikelihood::new(5.0);
        let mu = 8.0;
        let total: f64 = (0..500u64).map(|y| l.ln_pmf(y, mu).exp()).sum();
        assert!((total - 1.0).abs() < 1e-9, "total mass {total}");
    }

    #[test]
    fn negbinomial_large_k_approaches_poisson() {
        use epistats::dist::Poisson;
        let l = NegBinomialLikelihood::new(1e6);
        let pois = Poisson::new(12.0);
        for y in [0u64, 5, 12, 25] {
            let nb = l.ln_pmf(y, 12.0);
            let p = pois.ln_pmf(y);
            assert!((nb - p).abs() < 1e-3, "y = {y}: nb {nb} vs poisson {p}");
        }
    }

    #[test]
    fn negbinomial_tolerates_zero_prediction() {
        let l = NegBinomialLikelihood::new(10.0);
        let ll = l.log_likelihood(&[3.0], &[0.0]);
        assert!(ll.is_finite());
    }

    #[test]
    fn negbinomial_more_forgiving_than_tight_gaussian_on_outliers() {
        // Relative penalty (vs own best case) for a 3x overshoot.
        let nb = NegBinomialLikelihood::new(2.0); // heavy overdispersion
        let g = GaussianSqrtLikelihood::new(1.0);
        let pen_nb = nb.log_likelihood(&[300.0], &[300.0]) - nb.log_likelihood(&[300.0], &[100.0]);
        let pen_g = g.log_likelihood(&[300.0], &[300.0]) - g.log_likelihood(&[300.0], &[100.0]);
        assert!(
            pen_nb < pen_g,
            "NB penalty {pen_nb} should be smaller than Gaussian {pen_g}"
        );
    }
}
