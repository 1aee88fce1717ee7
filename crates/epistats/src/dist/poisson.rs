//! Poisson distribution: the reference pmf and CDF.

use crate::special::{gamma_q, ln_factorial};

/// Poisson distribution with rate `lambda`.
///
/// No simulator or calibration path draws from it, so it has no
/// sampler: it is the reference pmf for the negative-binomial
/// likelihood's large-dispersion limit, and its CDF is the reference for
/// the gamma CDF's integer-shape identity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Create a Poisson distribution with rate `lambda >= 0`.
    ///
    /// # Panics
    /// Panics if `lambda` is negative or non-finite.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "Poisson: invalid rate {lambda}"
        );
        Self { lambda }
    }

    /// Log probability mass at integer `k`.
    pub fn ln_pmf(&self, k: u64) -> f64 {
        if self.lambda == 0.0 {
            return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        k as f64 * self.lambda.ln() - self.lambda - ln_factorial(k)
    }

    /// Cumulative distribution function `P(X <= x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        if self.lambda == 0.0 {
            return 1.0;
        }
        // P(X <= k) = Q(k + 1, lambda)
        gamma_q(x.floor() + 1.0, self.lambda)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate() {
        let d = Poisson::new(0.0);
        assert_eq!(d.ln_pmf(0), 0.0);
        assert_eq!(d.ln_pmf(1), f64::NEG_INFINITY);
    }

    #[test]
    fn pmf_matches_cdf_increments() {
        let d = Poisson::new(7.3);
        let mut acc = 0.0;
        for k in 0..40u64 {
            acc += d.ln_pmf(k).exp();
            assert!(
                (acc - d.cdf(k as f64)).abs() < 1e-9,
                "k = {k}: {acc} vs {}",
                d.cdf(k as f64)
            );
        }
    }

    #[test]
    fn pmf_reference() {
        // Poisson(2): pmf(3) = 8 e^-2 / 6
        let d = Poisson::new(2.0);
        let want = (8.0 / 6.0) * (-2.0f64).exp();
        assert!((d.ln_pmf(3).exp() - want).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_negative_rate() {
        Poisson::new(-1.0);
    }
}
