//! Categorical distribution with O(1) sampling via Walker's alias method.

use super::Distribution;
use crate::rng::Xoshiro256PlusPlus;

/// Categorical distribution over `{0, 1, ..., k-1}`.
///
/// Built once (O(k) preprocessing into an alias table), then sampled in
/// O(1) — this is what makes multinomial resampling of large particle
/// ensembles cheap.
#[derive(Clone, Debug)]
pub struct Categorical {
    probs: Vec<f64>,
    alias: Vec<u32>,
    threshold: Vec<f64>,
}

impl Categorical {
    /// Build from unnormalized non-negative weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// entry, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "Categorical: empty weight vector");
        assert!(
            weights.len() <= u32::MAX as usize,
            "Categorical: too many categories"
        );
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w.is_finite() && w >= 0.0, "Categorical: bad weight {w}");
                w
            })
            .sum();
        assert!(total > 0.0, "Categorical: weights sum to zero");

        let k = weights.len();
        let probs: Vec<f64> = weights.iter().map(|&w| w / total).collect();

        // Walker/Vose alias construction.
        let mut threshold = vec![0.0f64; k];
        let mut alias = vec![0u32; k];
        let scaled: Vec<f64> = probs.iter().map(|&p| p * k as f64).collect();
        let mut small: Vec<u32> = Vec::with_capacity(k);
        let mut large: Vec<u32> = Vec::with_capacity(k);
        let mut scaled_mut = scaled;
        for (i, &s) in scaled_mut.iter().enumerate() {
            if s < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            threshold[s as usize] = scaled_mut[s as usize];
            alias[s as usize] = l;
            scaled_mut[l as usize] -= 1.0 - scaled_mut[s as usize];
            if scaled_mut[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Remaining entries (numerically ~1) take the whole column.
        for &i in small.iter().chain(large.iter()) {
            threshold[i as usize] = 1.0;
            alias[i as usize] = i;
        }
        Self {
            probs,
            alias,
            threshold,
        }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Whether the distribution has zero categories (never true — the
    /// constructor rejects empty weights — but provided for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Draw a category index in O(1).
    pub fn sample_usize(&self, rng: &mut Xoshiro256PlusPlus) -> usize {
        let k = self.probs.len();
        let col = rng.next_bounded(k as u64) as usize;
        if rng.next_f64() < self.threshold[col] {
            col
        } else {
            self.alias[col] as usize
        }
    }
}

impl Distribution for Categorical {
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> f64 {
        self.sample_usize(rng) as f64
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x < 0.0 || x.fract() != 0.0 || x as usize >= self.probs.len() {
            return f64::NEG_INFINITY;
        }
        let p = self.probs[x as usize];
        if p == 0.0 {
            f64::NEG_INFINITY
        } else {
            p.ln()
        }
    }

    fn mean(&self) -> f64 {
        self.probs
            .iter()
            .enumerate()
            .map(|(i, &p)| i as f64 * p)
            .sum()
    }

    fn var(&self) -> f64 {
        let m = self.mean();
        self.probs
            .iter()
            .enumerate()
            .map(|(i, &p)| (i as f64 - m) * (i as f64 - m) * p)
            .sum()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        let k = (x.floor() as usize).min(self.probs.len() - 1);
        self.probs[..=k].iter().sum::<f64>().min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequencies_match_probabilities() {
        let d = Categorical::new(&[1.0, 2.0, 3.0, 4.0]);
        let mut rng = Xoshiro256PlusPlus::new(80);
        let n = 100_000;
        let mut counts = [0u32; 4];
        for _ in 0..n {
            counts[d.sample_usize(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expected = (i + 1) as f64 / 10.0 * n as f64;
            assert!(
                (c as f64 - expected).abs() < 5.0 * expected.sqrt(),
                "cat {i}: {c} vs {expected}"
            );
        }
    }

    #[test]
    fn zero_weight_categories_never_drawn() {
        let d = Categorical::new(&[0.0, 1.0, 0.0, 1.0]);
        let mut rng = Xoshiro256PlusPlus::new(81);
        for _ in 0..20_000 {
            let i = d.sample_usize(&mut rng);
            assert!(i == 1 || i == 3);
        }
        assert_eq!(d.ln_pdf(0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn single_category() {
        let d = Categorical::new(&[5.0]);
        let mut rng = Xoshiro256PlusPlus::new(82);
        assert_eq!(d.sample_usize(&mut rng), 0);
        assert_eq!(d.ln_pdf(0.0), 0.0);
    }

    #[test]
    fn highly_skewed_weights() {
        let d = Categorical::new(&[1e-12, 1.0]);
        let mut rng = Xoshiro256PlusPlus::new(83);
        let hits = (0..10_000)
            .filter(|_| d.sample_usize(&mut rng) == 0)
            .count();
        assert!(hits < 3);
    }

    #[test]
    fn mean_var_cdf() {
        let d = Categorical::new(&[0.5, 0.5]);
        assert!((d.mean() - 0.5).abs() < 1e-12);
        assert!((d.var() - 0.25).abs() < 1e-12);
        assert!((d.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((d.cdf(5.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_all_zero_weights() {
        Categorical::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn rejects_negative_weight() {
        Categorical::new(&[0.5, -0.1]);
    }
}
