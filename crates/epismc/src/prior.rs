//! Priors over calibration parameters and the window-to-window proposal
//! (jitter) kernels.
//!
//! The paper's first-window priors are `Uniform(0.1, 0.5)` on the
//! transmission rate and `Beta(4, 1)` on the reporting probability
//! (Section V-B). From the second window on, the previous window's
//! posterior samples are perturbed by uniform kernels — *symmetric* for
//! `theta` and *asymmetric* for `rho` (skewed toward higher reporting,
//! reflecting improving surveillance) — to form the next proposal.

use epistats::dist::{Beta, Distribution, Uniform};
use epistats::rng::Xoshiro256PlusPlus;

/// A univariate prior: sampling plus log-density evaluation.
pub trait Prior: Send + Sync {
    /// Draw one value.
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> f64;
    /// Log prior density at `x` (negative infinity outside support).
    fn ln_pdf(&self, x: f64) -> f64;
    /// The support interval `(lo, hi)` (used for plot ranges and kernel
    /// truncation).
    fn support(&self) -> (f64, f64);
}

/// Uniform prior on `[lo, hi)`.
#[derive(Clone, Copy, Debug)]
pub struct UniformPrior(Uniform);

impl UniformPrior {
    /// Create a uniform prior on `[lo, hi)`.
    ///
    /// # Panics
    /// Panics unless `lo < hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        Self(Uniform::new(lo, hi))
    }
}

impl Prior for UniformPrior {
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> f64 {
        self.0.sample(rng)
    }
    fn ln_pdf(&self, x: f64) -> f64 {
        self.0.ln_pdf(x)
    }
    fn support(&self) -> (f64, f64) {
        (self.0.lo(), self.0.hi())
    }
}

/// Beta prior on `(0, 1)` — the paper's reporting-probability prior.
#[derive(Clone, Copy, Debug)]
pub struct BetaPrior(Beta);

impl BetaPrior {
    /// Create a `Beta(a, b)` prior.
    ///
    /// # Panics
    /// Panics unless both shapes are positive.
    pub fn new(a: f64, b: f64) -> Self {
        Self(Beta::new(a, b))
    }
}

impl Prior for BetaPrior {
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> f64 {
        self.0.sample(rng)
    }
    fn ln_pdf(&self, x: f64) -> f64 {
        self.0.ln_pdf(x)
    }
    fn support(&self) -> (f64, f64) {
        (0.0, 1.0)
    }
}

/// An asymmetric uniform perturbation kernel with hard support
/// truncation: given a center `c`, proposes uniformly on
/// `[c - down, c + up]` intersected with `[lo, hi]`.
///
/// With `down == up` this is the paper's symmetric kernel for `theta`;
/// with `up > down` it is the asymmetric kernel for `rho` that leans
/// toward improved reporting.
#[derive(Clone, Copy, Debug)]
pub struct JitterKernel {
    /// Downward half-width.
    pub down: f64,
    /// Upward half-width.
    pub up: f64,
    /// Support lower bound.
    pub lo: f64,
    /// Support upper bound.
    pub hi: f64,
}

impl JitterKernel {
    /// Symmetric kernel of half-width `half` on support `[lo, hi]`.
    ///
    /// # Panics
    /// Panics unless `half > 0` and `lo < hi`.
    pub fn symmetric(half: f64, lo: f64, hi: f64) -> Self {
        assert!(half > 0.0 && lo < hi, "JitterKernel: bad parameters");
        Self {
            down: half,
            up: half,
            lo,
            hi,
        }
    }

    /// Asymmetric kernel.
    ///
    /// # Panics
    /// Panics unless both half-widths are positive and `lo < hi`.
    pub fn asymmetric(down: f64, up: f64, lo: f64, hi: f64) -> Self {
        assert!(
            down > 0.0 && up > 0.0 && lo < hi,
            "JitterKernel: bad parameters"
        );
        Self { down, up, lo, hi }
    }

    /// Propose a jittered value around `center`.
    ///
    /// The proposal interval is clipped to the support; if the clipped
    /// interval degenerates (center far outside support), the center
    /// clamped into support is returned.
    pub fn sample(&self, center: f64, rng: &mut Xoshiro256PlusPlus) -> f64 {
        let lo = (center - self.down).max(self.lo);
        let hi = (center + self.up).min(self.hi);
        if lo >= hi {
            return center.clamp(self.lo, self.hi);
        }
        lo + rng.next_f64() * (hi - lo)
    }

    /// Log density of proposing `x` from `center` (the clipped-uniform
    /// density; used when exactness of the proposal correction matters).
    pub fn ln_pdf(&self, center: f64, x: f64) -> f64 {
        let lo = (center - self.down).max(self.lo);
        let hi = (center + self.up).min(self.hi);
        if lo >= hi || x < lo || x >= hi {
            return f64::NEG_INFINITY;
        }
        -(hi - lo).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_prior_support_and_density() {
        let p = UniformPrior::new(0.1, 0.5);
        assert_eq!(p.support(), (0.1, 0.5));
        assert!((p.ln_pdf(0.3) - 2.5f64.ln()).abs() < 1e-12);
        assert_eq!(p.ln_pdf(0.6), f64::NEG_INFINITY);
        let mut rng = Xoshiro256PlusPlus::new(1);
        for _ in 0..1000 {
            let x = p.sample(&mut rng);
            assert!((0.1..0.5).contains(&x));
        }
    }

    #[test]
    fn beta_prior_matches_paper_spec() {
        let p = BetaPrior::new(4.0, 1.0);
        // Beta(4,1) density: 4 x^3.
        assert!((p.ln_pdf(0.5) - (4.0f64 * 0.125).ln()).abs() < 1e-12);
        assert_eq!(p.support(), (0.0, 1.0));
    }

    #[test]
    fn symmetric_jitter_centers_on_ancestor() {
        let k = JitterKernel::symmetric(0.05, 0.0, 1.0);
        let mut rng = Xoshiro256PlusPlus::new(3);
        let mut sum = 0.0;
        let n = 20_000;
        for _ in 0..n {
            let x = k.sample(0.5, &mut rng);
            assert!((0.45..0.55).contains(&x));
            sum += x;
        }
        assert!((sum / n as f64 - 0.5).abs() < 0.002);
    }

    #[test]
    fn asymmetric_jitter_skews_upward() {
        let k = JitterKernel::asymmetric(0.02, 0.10, 0.0, 1.0);
        let mut rng = Xoshiro256PlusPlus::new(4);
        let mut sum = 0.0;
        let n = 20_000;
        for _ in 0..n {
            sum += k.sample(0.6, &mut rng);
        }
        let mean = sum / n as f64;
        // Mean of U(0.58, 0.70) = 0.64.
        assert!((mean - 0.64).abs() < 0.003, "mean = {mean}");
    }

    #[test]
    fn jitter_respects_support_clipping() {
        let k = JitterKernel::symmetric(0.2, 0.0, 1.0);
        let mut rng = Xoshiro256PlusPlus::new(5);
        for _ in 0..5_000 {
            let x = k.sample(0.05, &mut rng);
            assert!((0.0..=0.25).contains(&x), "x = {x}");
        }
        // Degenerate: center far outside support.
        let y = k.sample(5.0, &mut rng);
        assert!((y - 1.0).abs() < 0.2 + 1e-12);
    }

    #[test]
    fn jitter_ln_pdf_consistent_with_clipping() {
        let k = JitterKernel::symmetric(0.1, 0.0, 1.0);
        // Interior center: width 0.2.
        assert!((k.ln_pdf(0.5, 0.55) - (5.0f64).ln()).abs() < 1e-12);
        // Edge center 0.05: clipped to [0, 0.15], width 0.15.
        assert!((k.ln_pdf(0.05, 0.1) - (1.0f64 / 0.15).ln()).abs() < 1e-12);
        assert_eq!(k.ln_pdf(0.5, 0.9), f64::NEG_INFINITY);
    }
}
