//! Beta distribution.

use super::gamma::Gamma;
use super::{Distribution, Quantile};
use crate::rng::Xoshiro256PlusPlus;
use crate::special::{beta_inc, ln_beta};

/// Beta distribution on `(0, 1)` with shape parameters `a` and `b`.
///
/// The paper's prior on the reporting probability `rho` is `Beta(4, 1)`
/// (Section V-B). Sampling goes through two gamma draws,
/// `X = G_a / (G_a + G_b)`, which is exact for all shapes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Beta {
    a: f64,
    b: f64,
}

impl Beta {
    /// Create a beta distribution with shapes `a`, `b`.
    ///
    /// # Panics
    /// Panics unless both shapes are finite and positive.
    pub fn new(a: f64, b: f64) -> Self {
        assert!(
            a.is_finite() && b.is_finite() && a > 0.0 && b > 0.0,
            "Beta: invalid shapes a = {a}, b = {b}"
        );
        Self { a, b }
    }

    /// First shape parameter.
    pub fn a(&self) -> f64 {
        self.a
    }

    /// Second shape parameter.
    pub fn b(&self) -> f64 {
        self.b
    }
}

impl Distribution for Beta {
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> f64 {
        let ga = Gamma::sample_standard(rng, self.a);
        let gb = Gamma::sample_standard(rng, self.b);
        // ga + gb > 0 almost surely; clamp away from the endpoints so the
        // draw is always usable as a probability.
        (ga / (ga + gb)).clamp(f64::MIN_POSITIVE, 1.0 - f64::EPSILON)
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 || x >= 1.0 {
            return f64::NEG_INFINITY;
        }
        (self.a - 1.0) * x.ln() + (self.b - 1.0) * (1.0 - x).ln() - ln_beta(self.a, self.b)
    }

    fn mean(&self) -> f64 {
        self.a / (self.a + self.b)
    }

    fn var(&self) -> f64 {
        let s = self.a + self.b;
        self.a * self.b / (s * s * (s + 1.0))
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else if x >= 1.0 {
            1.0
        } else {
            beta_inc(self.a, self.b, x)
        }
    }
}

impl Quantile for Beta {
    /// Quantile by bisection on the regularized incomplete beta function
    /// (60 iterations gives ~1e-18 interval width — far below f64 ulp at
    /// any point of (0,1)).
    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile: p = {p} outside [0,1]");
        if p == 0.0 {
            return 0.0;
        }
        if p == 1.0 {
            return 1.0;
        }
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{check_ks, check_moments};
    use super::*;

    #[test]
    fn moments_and_ks() {
        check_moments(&Beta::new(4.0, 1.0), 40, 50_000, 4.0);
        check_moments(&Beta::new(0.5, 0.5), 41, 100_000, 5.0);
        check_ks(&Beta::new(2.0, 5.0), 42, 20_000);
    }

    #[test]
    fn paper_prior_mean() {
        // Beta(4,1): mean 0.8 — the "strongly informative" reporting prior.
        let d = Beta::new(4.0, 1.0);
        assert!((d.mean() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn ln_pdf_reference() {
        // Beta(2,2): pdf(x) = 6 x (1-x); pdf(0.5) = 1.5
        let d = Beta::new(2.0, 2.0);
        assert!((d.ln_pdf(0.5) - 1.5f64.ln()).abs() < 1e-12);
        assert_eq!(d.ln_pdf(0.0), f64::NEG_INFINITY);
        assert_eq!(d.ln_pdf(1.0), f64::NEG_INFINITY);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let d = Beta::new(4.0, 1.0);
        for &p in &[0.05, 0.25, 0.5, 0.75, 0.95] {
            let x = d.quantile(p);
            assert!((d.cdf(x) - p).abs() < 1e-10);
        }
        assert_eq!(d.quantile(0.0), 0.0);
        assert_eq!(d.quantile(1.0), 1.0);
    }

    #[test]
    fn samples_strictly_inside_unit_interval() {
        let d = Beta::new(0.3, 0.3);
        let mut rng = Xoshiro256PlusPlus::new(43);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!(x > 0.0 && x < 1.0);
        }
    }
}
