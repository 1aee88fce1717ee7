//! Normal (Gaussian) distribution.

use super::{Distribution, Quantile};
use crate::rng::Xoshiro256PlusPlus;
use crate::special::{std_normal_cdf, std_normal_quantile};

/// Normal distribution `N(mu, sigma^2)`.
///
/// The paper's observation noise: the likelihood is Gaussian on
/// square-root-transformed counts with `sigma = 1` (Section V-B).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

const LN_SQRT_2PI: f64 = 0.918_938_533_204_672_7;

impl Normal {
    /// Create a normal distribution with mean `mu` and standard deviation
    /// `sigma`.
    ///
    /// # Panics
    /// Panics unless `sigma > 0` and both parameters are finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite() && sigma > 0.0,
            "Normal: invalid parameters mu = {mu}, sigma = {sigma}"
        );
        Self { mu, sigma }
    }

    /// Mean parameter.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Standard deviation parameter.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draw a standard normal variate via the Box–Muller transform.
    ///
    /// Uses the open-interval uniform so the log argument is never zero.
    #[inline]
    pub fn sample_standard(rng: &mut Xoshiro256PlusPlus) -> f64 {
        let u1 = rng.next_f64_open();
        let u2 = rng.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

impl Distribution for Normal {
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> f64 {
        self.mu + self.sigma * Self::sample_standard(rng)
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.sigma;
        -0.5 * z * z - self.sigma.ln() - LN_SQRT_2PI
    }

    fn mean(&self) -> f64 {
        self.mu
    }

    fn var(&self) -> f64 {
        self.sigma * self.sigma
    }

    fn cdf(&self, x: f64) -> f64 {
        std_normal_cdf((x - self.mu) / self.sigma)
    }
}

impl Quantile for Normal {
    fn quantile(&self, p: f64) -> f64 {
        self.mu + self.sigma * std_normal_quantile(p)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{check_ks, check_moments};
    use super::*;

    #[test]
    fn moments_and_ks() {
        check_moments(&Normal::new(3.0, 2.0), 10, 50_000, 4.0);
        check_ks(&Normal::new(0.0, 1.0), 11, 20_000);
    }

    #[test]
    fn ln_pdf_reference() {
        let d = Normal::new(0.0, 1.0);
        // ln pdf(0) = -0.5 ln(2 pi)
        assert!((d.ln_pdf(0.0) + LN_SQRT_2PI).abs() < 1e-14);
        let d2 = Normal::new(1.0, 0.5);
        // pdf(1) = 1/(0.5 sqrt(2pi))
        let want = (1.0 / (0.5 * (2.0 * std::f64::consts::PI).sqrt())).ln();
        assert!((d2.ln_pdf(1.0) - want).abs() < 1e-12);
    }

    #[test]
    fn cdf_quantile_round_trip() {
        let d = Normal::new(-2.0, 3.0);
        for &p in &[0.01, 0.2, 0.5, 0.8, 0.99] {
            let x = d.quantile(p);
            assert!((d.cdf(x) - p).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_sigma() {
        Normal::new(0.0, 0.0);
    }
}
