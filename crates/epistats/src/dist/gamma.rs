//! Gamma distribution (shape–rate parameterization).

use super::normal::Normal;
use super::Distribution;
use crate::rng::Xoshiro256PlusPlus;
use crate::special::{gamma_p, ln_gamma};

/// Gamma distribution with shape `alpha` and rate `beta`
/// (density `beta^alpha x^(alpha-1) e^(-beta x) / Gamma(alpha)`).
///
/// Sampling uses the Marsaglia–Tsang (2000) squeeze method for
/// `alpha >= 1` and the boosting transformation `Gamma(alpha + 1) * U^(1/alpha)`
/// for `alpha < 1`; both are exact.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gamma {
    alpha: f64,
    beta: f64,
}

impl Gamma {
    /// Create a gamma distribution with shape `alpha` and rate `beta`.
    ///
    /// # Panics
    /// Panics unless both parameters are finite and positive.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(
            alpha.is_finite() && beta.is_finite() && alpha > 0.0 && beta > 0.0,
            "Gamma: invalid parameters alpha = {alpha}, beta = {beta}"
        );
        Self { alpha, beta }
    }

    /// Shape parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Rate parameter.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Sample a standard (rate 1) gamma variate with the given shape.
    pub fn sample_standard(rng: &mut Xoshiro256PlusPlus, alpha: f64) -> f64 {
        if alpha < 1.0 {
            // Boost: X = Gamma(alpha + 1) * U^(1/alpha)
            let u = rng.next_f64_open();
            return Self::sample_standard(rng, alpha + 1.0) * u.powf(1.0 / alpha);
        }
        let d = alpha - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = Normal::sample_standard(rng);
            let t = 1.0 + c * x;
            if t <= 0.0 {
                continue;
            }
            let v = t * t * t;
            let u = rng.next_f64_open();
            let x2 = x * x;
            // Squeeze step accepts the vast majority without logs.
            if u < 1.0 - 0.0331 * x2 * x2 {
                return d * v;
            }
            if u.ln() < 0.5 * x2 + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }
}

impl Distribution for Gamma {
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> f64 {
        Self::sample_standard(rng, self.alpha) / self.beta
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        self.alpha * self.beta.ln() + (self.alpha - 1.0) * x.ln()
            - self.beta * x
            - ln_gamma(self.alpha)
    }

    fn mean(&self) -> f64 {
        self.alpha / self.beta
    }

    fn var(&self) -> f64 {
        self.alpha / (self.beta * self.beta)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            gamma_p(self.alpha, self.beta * x)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{check_ks, check_moments};
    use super::*;

    #[test]
    fn moments_shape_above_one() {
        check_moments(&Gamma::new(3.0, 2.0), 30, 50_000, 4.0);
        check_ks(&Gamma::new(5.0, 1.0), 31, 20_000);
    }

    #[test]
    fn moments_shape_below_one() {
        check_moments(&Gamma::new(0.4, 1.5), 32, 100_000, 5.0);
        check_ks(&Gamma::new(0.7, 2.0), 33, 20_000);
    }

    #[test]
    fn exponential_special_case() {
        // Gamma(1, beta) is Exponential(beta).
        let g = Gamma::new(1.0, 2.0);
        assert!((g.ln_pdf(0.5) - (2f64.ln() - 1.0)).abs() < 1e-12);
        assert!((g.cdf(1.0) - (1.0 - (-2.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn pdf_integrates_via_cdf() {
        let g = Gamma::new(2.5, 1.3);
        assert_eq!(g.cdf(0.0), 0.0);
        assert!(g.cdf(100.0) > 1.0 - 1e-10);
        assert!(g.cdf(g.mean()) > 0.3 && g.cdf(g.mean()) < 0.8);
    }

    #[test]
    #[should_panic]
    fn rejects_negative_shape() {
        Gamma::new(-1.0, 1.0);
    }
}
