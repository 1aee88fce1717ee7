//! Resampling schemes for weighted particle ensembles.
//!
//! The paper's Algorithm 1 resamples with probabilities proportional to
//! the importance weights (multinomial). Systematic, stratified, and
//! residual resampling are the standard lower-variance SMC alternatives;
//! all four are unbiased (expected offspring count of particle `i` equals
//! `n * w_i`) and are compared in the `ablation` experiments.

use epistats::dist::Categorical;
use epistats::rng::Xoshiro256PlusPlus;

/// A resampling scheme: draws `n` ancestor indices from a normalized
/// weight vector.
pub trait Resampler: Send + Sync {
    /// Draw `n` ancestor indices with `P(index = i)` proportional to
    /// `weights[i]`. Weights need not be normalized but must be
    /// non-negative with a positive sum.
    fn resample(&self, weights: &[f64], n: usize, rng: &mut Xoshiro256PlusPlus) -> Vec<usize>;

    /// Short identifier for logs and bench labels.
    fn name(&self) -> &'static str;
}

fn normalized(weights: &[f64]) -> Vec<f64> {
    assert!(!weights.is_empty(), "resample: empty weights");
    let total: f64 = weights
        .iter()
        .map(|&w| {
            assert!(w.is_finite() && w >= 0.0, "resample: bad weight {w}");
            w
        })
        .sum();
    assert!(total > 0.0, "resample: weights sum to zero");
    weights.iter().map(|&w| w / total).collect()
}

/// Independent draws from the categorical weight distribution (the
/// paper's scheme). O(k) setup + O(n) sampling via the alias method.
#[derive(Clone, Copy, Debug, Default)]
pub struct Multinomial;

impl Resampler for Multinomial {
    fn resample(&self, weights: &[f64], n: usize, rng: &mut Xoshiro256PlusPlus) -> Vec<usize> {
        let cat = Categorical::new(weights);
        (0..n).map(|_| cat.sample_usize(rng)).collect()
    }

    fn name(&self) -> &'static str {
        "multinomial"
    }
}

/// Single uniform offset, `n` evenly spaced pointers — the lowest-variance
/// O(n) scheme in common use.
#[derive(Clone, Copy, Debug, Default)]
pub struct Systematic;

impl Resampler for Systematic {
    fn resample(&self, weights: &[f64], n: usize, rng: &mut Xoshiro256PlusPlus) -> Vec<usize> {
        let w = normalized(weights);
        let mut out = Vec::with_capacity(n);
        let step = 1.0 / n as f64;
        let mut pointer = rng.next_f64() * step;
        let mut cum = w[0];
        let mut i = 0usize;
        for _ in 0..n {
            while pointer > cum && i + 1 < w.len() {
                i += 1;
                cum += w[i];
            }
            out.push(i);
            pointer += step;
        }
        out
    }

    fn name(&self) -> &'static str {
        "systematic"
    }
}

/// One uniform draw per stratum `[k/n, (k+1)/n)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stratified;

impl Resampler for Stratified {
    fn resample(&self, weights: &[f64], n: usize, rng: &mut Xoshiro256PlusPlus) -> Vec<usize> {
        let w = normalized(weights);
        let mut out = Vec::with_capacity(n);
        let step = 1.0 / n as f64;
        let mut cum = w[0];
        let mut i = 0usize;
        for k in 0..n {
            let pointer = (k as f64 + rng.next_f64()) * step;
            while pointer > cum && i + 1 < w.len() {
                i += 1;
                cum += w[i];
            }
            out.push(i);
        }
        out
    }

    fn name(&self) -> &'static str {
        "stratified"
    }
}

/// Deterministic `floor(n w_i)` copies, multinomial on the residuals.
#[derive(Clone, Copy, Debug, Default)]
pub struct Residual;

impl Resampler for Residual {
    fn resample(&self, weights: &[f64], n: usize, rng: &mut Xoshiro256PlusPlus) -> Vec<usize> {
        let w = normalized(weights);
        let mut out = Vec::with_capacity(n);
        let mut residuals = Vec::with_capacity(w.len());
        let mut assigned = 0usize;
        for (i, &wi) in w.iter().enumerate() {
            let copies = (wi * n as f64).floor() as usize;
            for _ in 0..copies {
                out.push(i);
            }
            assigned += copies;
            residuals.push(wi * n as f64 - copies as f64);
        }
        let remaining = n - assigned;
        if remaining > 0 {
            let total_resid: f64 = residuals.iter().sum();
            if total_resid > 0.0 {
                let cat = Categorical::new(&residuals);
                for _ in 0..remaining {
                    out.push(cat.sample_usize(rng));
                }
            } else {
                // All weights were exact multiples of 1/n; fill from the
                // categorical over the original weights.
                let cat = Categorical::new(&w);
                for _ in 0..remaining {
                    out.push(cat.sample_usize(rng));
                }
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "residual"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_schemes() -> Vec<Box<dyn Resampler>> {
        vec![
            Box::new(Multinomial),
            Box::new(Systematic),
            Box::new(Stratified),
            Box::new(Residual),
        ]
    }

    #[test]
    fn output_length_and_index_range() {
        let weights = [0.1, 0.4, 0.3, 0.2];
        for scheme in all_schemes() {
            let mut rng = Xoshiro256PlusPlus::new(1);
            let idx = scheme.resample(&weights, 100, &mut rng);
            assert_eq!(idx.len(), 100, "{}", scheme.name());
            assert!(idx.iter().all(|&i| i < 4), "{}", scheme.name());
        }
    }

    #[test]
    fn unbiasedness_of_offspring_counts() {
        let weights = [0.05, 0.15, 0.5, 0.3];
        let n = 1000usize;
        let reps = 200;
        for scheme in all_schemes() {
            let mut rng = Xoshiro256PlusPlus::new(2);
            let mut counts = [0u64; 4];
            for _ in 0..reps {
                for i in scheme.resample(&weights, n, &mut rng) {
                    counts[i] += 1;
                }
            }
            for (i, &c) in counts.iter().enumerate() {
                let expected = weights[i] * (n * reps) as f64;
                let tol = 6.0 * expected.sqrt() + 2.0 * reps as f64;
                assert!(
                    (c as f64 - expected).abs() < tol,
                    "{}: particle {i}: {c} vs {expected}",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn zero_weight_particles_never_selected() {
        let weights = [0.0, 1.0, 0.0, 2.0];
        for scheme in all_schemes() {
            let mut rng = Xoshiro256PlusPlus::new(3);
            let idx = scheme.resample(&weights, 500, &mut rng);
            assert!(
                idx.iter().all(|&i| i == 1 || i == 3),
                "{} selected a zero-weight particle",
                scheme.name()
            );
        }
    }

    #[test]
    fn degenerate_single_heavy_particle() {
        let weights = [1e-12, 1.0, 1e-12];
        for scheme in all_schemes() {
            let mut rng = Xoshiro256PlusPlus::new(4);
            let idx = scheme.resample(&weights, 200, &mut rng);
            let ones = idx.iter().filter(|&&i| i == 1).count();
            assert!(ones >= 199, "{}: only {ones} copies", scheme.name());
        }
    }

    #[test]
    fn systematic_variance_below_multinomial() {
        // Offspring-count variance of systematic resampling is provably
        // <= multinomial; check empirically on a spread-out weight vector.
        let weights: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let n = 200usize;
        let reps = 300;
        let var_of = |scheme: &dyn Resampler, seed: u64| {
            let mut rng = Xoshiro256PlusPlus::new(seed);
            let target = 10usize; // track offspring of particle 10
            let mut counts = Vec::with_capacity(reps);
            for _ in 0..reps {
                let c = scheme
                    .resample(&weights, n, &mut rng)
                    .iter()
                    .filter(|&&i| i == target)
                    .count();
                counts.push(c as f64);
            }
            let m: f64 = counts.iter().sum::<f64>() / reps as f64;
            counts.iter().map(|c| (c - m) * (c - m)).sum::<f64>() / (reps - 1) as f64
        };
        let v_mult = var_of(&Multinomial, 5);
        let v_sys = var_of(&Systematic, 6);
        assert!(
            v_sys < v_mult,
            "systematic variance {v_sys} not below multinomial {v_mult}"
        );
    }

    #[test]
    fn residual_deterministic_part_is_exact() {
        // Weights that are exact multiples of 1/n: fully deterministic.
        let weights = [0.25, 0.5, 0.25];
        let mut rng = Xoshiro256PlusPlus::new(7);
        let idx = Residual.resample(&weights, 4, &mut rng);
        let mut counts = [0; 3];
        for i in idx {
            counts[i] += 1;
        }
        assert_eq!(counts, [1, 2, 1]);
    }

    #[test]
    #[should_panic]
    fn rejects_all_zero_weights() {
        Systematic.resample(&[0.0, 0.0], 10, &mut Xoshiro256PlusPlus::new(8));
    }

    #[test]
    #[should_panic]
    fn rejects_negative_weight() {
        Residual.resample(&[0.5, -0.1], 10, &mut Xoshiro256PlusPlus::new(9));
    }
}
