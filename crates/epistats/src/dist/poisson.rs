//! Poisson distribution with exact sampling at every rate.

use serde::{Deserialize, Serialize};

use super::binomial::sample_binomial;
use super::gamma::Gamma;
use super::Distribution;
use crate::rng::Xoshiro256PlusPlus;
use crate::special::{gamma_q, ln_factorial};

/// Poisson distribution with rate `lambda`.
///
/// No simulator or calibration path draws from it: it is the reference
/// pmf for the negative-binomial likelihood's large-dispersion limit and
/// a `bench_distributions` capture row. Sampling is exact: Knuth's
/// product-of-uniforms method for small rates, and the Ahrens–Dieter
/// gamma-reduction recursion for large ones (each round replaces
/// `lambda` with a stochastically ~8x smaller remainder, so the cost is
/// O(log lambda) gamma draws).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Poisson {
    lambda: f64,
}

/// Above this rate the gamma-reduction path is used.
const DIRECT_CUTOFF: f64 = 30.0;

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

    /// Rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Draw one Poisson variate as a native integer.
    pub fn sample_u64(&self, rng: &mut Xoshiro256PlusPlus) -> u64 {
        sample_poisson(rng, self.lambda)
    }

    /// Log probability mass at integer `k`.
    pub fn ln_pmf(&self, k: u64) -> f64 {
        if self.lambda == 0.0 {
            return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        k as f64 * self.lambda.ln() - self.lambda - ln_factorial(k)
    }
}

/// Free-function exact Poisson sampler.
///
/// # Panics
/// Panics if `lambda` is negative or non-finite.
pub fn sample_poisson(rng: &mut Xoshiro256PlusPlus, lambda: f64) -> u64 {
    assert!(
        lambda.is_finite() && lambda >= 0.0,
        "sample_poisson: invalid rate {lambda}"
    );
    let mut lambda = lambda;
    let mut acc: u64 = 0;
    // Ahrens–Dieter (1974): with m ~ 7/8 of the rate, an Erlang(m) arrival
    // time X splits the problem exactly: if X <= lambda, m events happened
    // before X and Poisson(lambda - X) remain; otherwise the event count is
    // Binomial(m - 1, lambda / X).
    while lambda > DIRECT_CUTOFF {
        let m = (7.0 * lambda / 8.0).floor() as u64;
        let x = Gamma::sample_standard(rng, m as f64);
        if x <= lambda {
            acc += m;
            lambda -= x;
        } else {
            return acc + sample_binomial(rng, m - 1, lambda / x);
        }
    }
    acc + small_poisson(rng, lambda)
}

/// Knuth's method: count uniforms until their product drops below
/// `exp(-lambda)`. Expected `lambda + 1` uniforms.
fn small_poisson(rng: &mut Xoshiro256PlusPlus, lambda: f64) -> u64 {
    if lambda == 0.0 {
        return 0;
    }
    let limit = (-lambda).exp();
    let mut prod = rng.next_f64_open();
    let mut k: u64 = 0;
    while prod > limit {
        prod *= rng.next_f64_open();
        k += 1;
    }
    k
}

impl Distribution for Poisson {
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> f64 {
        self.sample_u64(rng) as f64
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x < 0.0 || x.fract() != 0.0 {
            return f64::NEG_INFINITY;
        }
        self.ln_pmf(x as u64)
    }

    fn mean(&self) -> f64 {
        self.lambda
    }

    fn var(&self) -> f64 {
        self.lambda
    }

    fn cdf(&self, x: f64) -> f64 {
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
    use super::super::testutil::check_moments;
    use super::*;

    #[test]
    fn zero_rate() {
        let mut rng = Xoshiro256PlusPlus::new(60);
        assert_eq!(sample_poisson(&mut rng, 0.0), 0);
        let d = Poisson::new(0.0);
        assert_eq!(d.ln_pmf(0), 0.0);
        assert_eq!(d.ln_pmf(1), f64::NEG_INFINITY);
    }

    #[test]
    fn moments_small_and_large() {
        check_moments(&Poisson::new(0.8), 61, 100_000, 4.5);
        check_moments(&Poisson::new(12.0), 62, 50_000, 4.5);
        check_moments(&Poisson::new(300.0), 63, 20_000, 4.5);
        check_moments(&Poisson::new(50_000.0), 64, 5_000, 4.5);
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
    fn large_rate_distribution_shape() {
        // At lambda = 1000 the central region should hold ~all mass.
        let mut rng = Xoshiro256PlusPlus::new(65);
        let lambda = 1000.0;
        let mut within3 = 0;
        let n = 5_000;
        for _ in 0..n {
            let k = sample_poisson(&mut rng, lambda) as f64;
            if (k - lambda).abs() < 3.0 * lambda.sqrt() {
                within3 += 1;
            }
        }
        let frac = within3 as f64 / n as f64;
        assert!(frac > 0.99, "only {frac} within 3 sigma");
    }

    #[test]
    #[should_panic]
    fn rejects_negative_rate() {
        Poisson::new(-1.0);
    }
}
