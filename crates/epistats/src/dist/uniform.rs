//! Continuous uniform distribution on `[lo, hi)`.

use super::{Distribution, Quantile};
use crate::rng::Xoshiro256PlusPlus;

/// Uniform distribution on the half-open interval `[lo, hi)`.
///
/// The workhorse prior of the paper's calibration: the transmission rate
/// prior in the first window is `Uniform(0.1, 0.5)` and the window-to-window
/// jitter kernels are (possibly asymmetric) uniforms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Create a uniform distribution on `[lo, hi)`.
    ///
    /// # Panics
    /// Panics unless `lo < hi` and both are finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "Uniform: invalid interval [{lo}, {hi})"
        );
        Self { lo, hi }
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }
}

impl Distribution for Uniform {
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> f64 {
        self.lo + rng.next_f64() * (self.hi - self.lo)
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x >= self.lo && x < self.hi {
            -(self.hi - self.lo).ln()
        } else {
            f64::NEG_INFINITY
        }
    }

    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    fn var(&self) -> f64 {
        let w = self.hi - self.lo;
        w * w / 12.0
    }

    fn cdf(&self, x: f64) -> f64 {
        ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }
}

impl Quantile for Uniform {
    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile: p = {p} outside [0,1]");
        self.lo + p * (self.hi - self.lo)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{check_ks, check_moments};
    use super::*;

    #[test]
    fn samples_stay_in_interval() {
        let d = Uniform::new(0.1, 0.5);
        let mut rng = Xoshiro256PlusPlus::new(1);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((0.1..0.5).contains(&x));
        }
    }

    #[test]
    fn moments_and_ks() {
        let d = Uniform::new(-2.0, 5.0);
        check_moments(&d, 2, 50_000, 4.0);
        check_ks(&d, 3, 20_000);
    }

    #[test]
    fn pdf_and_cdf() {
        let d = Uniform::new(0.0, 4.0);
        assert!((d.ln_pdf(1.0) - (0.25f64).ln()).abs() < 1e-14);
        assert_eq!(d.ln_pdf(-0.1), f64::NEG_INFINITY);
        assert_eq!(d.ln_pdf(4.0), f64::NEG_INFINITY);
        assert_eq!(d.cdf(-1.0), 0.0);
        assert_eq!(d.cdf(2.0), 0.5);
        assert_eq!(d.cdf(9.0), 1.0);
        assert_eq!(d.quantile(0.25), 1.0);
    }

    #[test]
    #[should_panic]
    fn rejects_empty_interval() {
        Uniform::new(1.0, 1.0);
    }
}
