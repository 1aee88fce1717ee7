//! Probability distributions: sampling, densities, CDFs and quantiles.
//!
//! All samplers draw from the crate's serializable
//! [`Xoshiro256PlusPlus`] generator so a
//! checkpointed simulation resumes with an identical random future. Every
//! sampler is *exact* (no normal approximations to discrete laws): the
//! binomial uses BINV inversion plus BTPE accept/reject (Kachitvichyanukul
//! & Schmeiser 1988), the Poisson uses Knuth multiplication plus the
//! Ahrens–Dieter gamma reduction, and the gamma uses Marsaglia–Tsang
//! squeeze rejection.
//!
//! The unifying [`Distribution`] trait treats discrete laws as
//! integer-valued `f64`s, which is what the generic prior / likelihood
//! machinery in `epismc` consumes; discrete distributions additionally
//! expose native integer samplers (e.g. [`Binomial::sample_u64`]).

mod beta;
mod binomial;
mod categorical;
mod gamma;
mod normal;
mod poisson;
mod uniform;

pub use beta::Beta;
pub use binomial::{sample_binomial, Binomial, BinomialSampler, HazardSampler};
pub use categorical::Categorical;
pub use gamma::Gamma;
pub use normal::Normal;
pub use poisson::{sample_poisson, Poisson};
pub use uniform::Uniform;

use crate::rng::Xoshiro256PlusPlus;

/// A univariate probability distribution.
///
/// Discrete distributions implement this with integer-valued `f64`
/// samples and a log *mass* function in [`Self::ln_pdf`].
pub trait Distribution {
    /// Draw one sample.
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> f64;

    /// Natural log of the density (or mass) at `x`; negative infinity
    /// outside the support.
    fn ln_pdf(&self, x: f64) -> f64;

    /// Distribution mean.
    fn mean(&self) -> f64;

    /// Distribution variance.
    fn var(&self) -> f64;

    /// Cumulative distribution function `P(X <= x)`, where available.
    fn cdf(&self, x: f64) -> f64;

    /// Draw `n` samples into a fresh vector.
    fn sample_n(&self, rng: &mut Xoshiro256PlusPlus, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// A distribution with an invertible CDF.
pub trait Quantile: Distribution {
    /// The quantile function (inverse CDF) at probability `p` in `(0, 1)`.
    fn quantile(&self, p: f64) -> f64;
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Draw `n` samples and check the empirical mean and variance against
    /// the analytic moments within `tol_sigmas` standard errors.
    pub fn check_moments<D: Distribution>(dist: &D, seed: u64, n: usize, tol_sigmas: f64) {
        let mut rng = Xoshiro256PlusPlus::new(seed);
        let xs = dist.sample_n(&mut rng, n);
        let mean: f64 = xs.iter().sum::<f64>() / n as f64;
        let var: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        let se_mean = (dist.var() / n as f64).sqrt();
        assert!(
            (mean - dist.mean()).abs() < tol_sigmas * se_mean.max(1e-12),
            "mean: got {mean}, want {} (se {se_mean})",
            dist.mean()
        );
        // Variance of the sample variance ~ 2 sigma^4 / n for light tails;
        // use a loose 25% relative band instead for robustness.
        if dist.var() > 0.0 {
            assert!(
                (var - dist.var()).abs() / dist.var() < 0.25,
                "var: got {var}, want {}",
                dist.var()
            );
        }
    }

    /// One-sample Kolmogorov–Smirnov test statistic against the analytic
    /// CDF; asserts it is below the asymptotic 0.1% critical value
    /// `1.95 / sqrt(n)` (loose, to keep the test non-flaky).
    pub fn check_ks<D: Distribution>(dist: &D, seed: u64, n: usize) {
        let mut rng = Xoshiro256PlusPlus::new(seed);
        let mut xs = dist.sample_n(&mut rng, n);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut d = 0.0f64;
        for (i, &x) in xs.iter().enumerate() {
            let f = dist.cdf(x);
            let lo = i as f64 / n as f64;
            let hi = (i + 1) as f64 / n as f64;
            d = d.max((f - lo).abs()).max((hi - f).abs());
        }
        let crit = 1.95 / (n as f64).sqrt();
        assert!(d < crit, "KS statistic {d} exceeds {crit}");
    }
}
