//! Weighted and unweighted summary statistics.
//!
//! Posterior summaries in the SIS framework are statistics of *weighted*
//! particle ensembles: weighted quantiles drive the credible-interval
//! ribbons of Figs 4a/5a, and the effective sample size diagnoses weight
//! degeneracy after each window.

/// Arithmetic mean. Returns NaN for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance. Returns NaN for fewer than two values.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Weighted mean with arbitrary non-negative weights.
///
/// # Panics
/// Panics if the slices differ in length or the weights sum to zero.
pub fn weighted_mean(xs: &[f64], ws: &[f64]) -> f64 {
    assert_eq!(xs.len(), ws.len(), "weighted_mean: length mismatch");
    let total: f64 = ws.iter().sum();
    assert!(total > 0.0, "weighted_mean: weights sum to {total}");
    xs.iter().zip(ws).map(|(&x, &w)| x * w).sum::<f64>() / total
}

/// Weighted variance (population form, i.e. normalized by the weight sum).
///
/// # Panics
/// Panics if the slices differ in length or the weights sum to zero.
pub fn weighted_variance(xs: &[f64], ws: &[f64]) -> f64 {
    let m = weighted_mean(xs, ws);
    let total: f64 = ws.iter().sum();
    xs.iter()
        .zip(ws)
        .map(|(&x, &w)| w * (x - m) * (x - m))
        .sum::<f64>()
        / total
}

/// Weighted covariance (population form) of two aligned samples.
///
/// # Panics
/// Panics on length mismatches or a zero weight sum.
pub fn weighted_covariance(xs: &[f64], ys: &[f64], ws: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "weighted_covariance: length mismatch");
    let mx = weighted_mean(xs, ws);
    let my = weighted_mean(ys, ws);
    let total: f64 = ws.iter().sum();
    xs.iter()
        .zip(ys)
        .zip(ws)
        .map(|((&x, &y), &w)| w * (x - mx) * (y - my))
        .sum::<f64>()
        / total
}

/// Population covariance matrix (row-major `d × d`) of `d` aligned
/// coordinate columns, each holding one value per ensemble member.
///
/// Uses the population normalizer `n` (not `n − 1`) so a one-member
/// ensemble yields the zero matrix instead of NaN — the degenerate case
/// [`crate::linalg::shrink_covariance`] is designed to absorb. An empty
/// column set (`n == 0`) also yields zeros.
///
/// # Panics
/// Panics if the columns differ in length.
pub fn covariance_matrix(columns: &[&[f64]]) -> Vec<f64> {
    let d = columns.len();
    let n = columns.first().map_or(0, |c| c.len());
    for (k, col) in columns.iter().enumerate() {
        assert_eq!(
            col.len(),
            n,
            "covariance_matrix: column {k} length mismatch"
        );
    }
    let mut out = vec![0.0f64; d * d];
    if n == 0 {
        return out;
    }
    let means: Vec<f64> = columns.iter().map(|c| mean(c)).collect();
    for i in 0..d {
        for j in 0..=i {
            let acc: f64 = columns[i]
                .iter()
                .zip(columns[j])
                .map(|(&xi, &xj)| (xi - means[i]) * (xj - means[j]))
                .sum();
            let cov = acc / n as f64;
            out[i * d + j] = cov;
            out[j * d + i] = cov;
        }
    }
    out
}

/// Weighted Pearson correlation of two aligned samples; NaN when either
/// marginal variance vanishes.
///
/// # Panics
/// Panics on length mismatches or a zero weight sum.
pub fn weighted_correlation(xs: &[f64], ys: &[f64], ws: &[f64]) -> f64 {
    let cov = weighted_covariance(xs, ys, ws);
    let vx = weighted_variance(xs, ws);
    let vy = weighted_variance(ys, ws);
    cov / (vx * vy).sqrt()
}

/// Effective sample size of a normalized or unnormalized weight vector:
/// `(sum w)^2 / sum(w^2)`.
///
/// Equals `n` for uniform weights and approaches 1 as the ensemble
/// degenerates onto a single particle. Returns 0 for empty or all-zero
/// weights.
pub fn ess(ws: &[f64]) -> f64 {
    let s: f64 = ws.iter().sum();
    let s2: f64 = ws.iter().map(|&w| w * w).sum();
    if s2 == 0.0 {
        0.0
    } else {
        s * s / s2
    }
}

/// Unweighted quantile with linear interpolation (Hyndman–Fan type 7,
/// matching R's default and NumPy's `linear`).
///
/// # Panics
/// Panics if `xs` is empty or `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile: empty input");
    assert!((0.0..=1.0).contains(&q), "quantile: q = {q}");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// Type-7 quantile of an already sorted slice (no allocation).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile_sorted: empty input");
    let n = sorted.len();
    let h = (n as f64 - 1.0) * q;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    let frac = h - lo as f64;
    sorted[lo] + frac * (sorted[hi] - sorted[lo])
}

/// Weighted quantile: the smallest `x_i` whose cumulative normalized
/// weight reaches `q`, with linear interpolation between neighbouring
/// cumulative-weight midpoints.
///
/// # Panics
/// Panics on empty input, mismatched lengths, `q` outside `[0, 1]`, or
/// all-zero weights.
pub fn weighted_quantile(xs: &[f64], ws: &[f64], q: f64) -> f64 {
    assert_eq!(xs.len(), ws.len(), "weighted_quantile: length mismatch");
    assert!(!xs.is_empty(), "weighted_quantile: empty input");
    assert!((0.0..=1.0).contains(&q), "weighted_quantile: q = {q}");
    let total: f64 = ws.iter().sum();
    assert!(total > 0.0, "weighted_quantile: weights sum to {total}");

    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));

    // Midpoint convention: the i-th sorted point sits at cumulative
    // position (cum_before + w_i / 2) / total, which reduces to type-7-like
    // behaviour for uniform weights at large n.
    let mut cum = 0.0;
    let mut prev_pos = f64::NEG_INFINITY;
    let mut prev_x = xs[idx[0]];
    for &i in &idx {
        let w = ws[i];
        if w == 0.0 {
            continue;
        }
        let pos = (cum + 0.5 * w) / total;
        if q <= pos {
            if prev_pos == f64::NEG_INFINITY {
                return xs[i];
            }
            let t = (q - prev_pos) / (pos - prev_pos);
            return prev_x + t * (xs[i] - prev_x);
        }
        cum += w;
        prev_pos = pos;
        prev_x = xs[i];
    }
    prev_x
}

/// A fixed-width histogram over `[lo, hi)`.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<f64>,
    total: f64,
}

impl Histogram {
    /// Create an empty histogram with `bins` equal-width bins on `[lo, hi)`.
    ///
    /// # Panics
    /// Panics unless `lo < hi` and `bins > 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi && bins > 0, "Histogram: bad configuration");
        Self {
            lo,
            hi,
            counts: vec![0.0; bins],
            total: 0.0,
        }
    }

    /// Add a value with weight 1; out-of-range values are clamped into the
    /// edge bins.
    pub fn add(&mut self, x: f64) {
        self.add_weighted(x, 1.0);
    }

    /// Add a weighted value.
    pub fn add_weighted(&mut self, x: f64, w: f64) {
        let bins = self.counts.len();
        let t = (x - self.lo) / (self.hi - self.lo);
        let i = ((t * bins as f64).floor() as i64).clamp(0, bins as i64 - 1) as usize;
        self.counts[i] += w;
        self.total += w;
    }

    /// Bin centers.
    pub fn centers(&self) -> Vec<f64> {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        (0..self.counts.len())
            .map(|i| self.lo + (i as f64 + 0.5) * w)
            .collect()
    }

    /// Normalized densities (integrate to 1 over `[lo, hi)`).
    pub fn densities(&self) -> Vec<f64> {
        if self.total == 0.0 {
            return vec![0.0; self.counts.len()];
        }
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.counts.iter().map(|&c| c / (self.total * w)).collect()
    }

    /// Raw (weighted) counts.
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_mean_variance() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-14);
        assert!((variance(&xs) - 5.0 / 3.0).abs() < 1e-14);
        assert!(mean(&[]).is_nan());
        assert!(variance(&[1.0]).is_nan());
    }

    #[test]
    fn weighted_mean_reduces_to_mean() {
        let xs = [1.0, 2.0, 3.0];
        assert!((weighted_mean(&xs, &[1.0, 1.0, 1.0]) - 2.0).abs() < 1e-14);
        assert!((weighted_mean(&xs, &[0.0, 0.0, 2.0]) - 3.0).abs() < 1e-14);
    }

    #[test]
    fn weighted_variance_matches_population_variance() {
        let xs = [1.0, 3.0];
        let v = weighted_variance(&xs, &[1.0, 1.0]);
        assert!((v - 1.0).abs() < 1e-14);
    }

    #[test]
    fn weighted_correlation_limits() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        let ws = [1.0; 4];
        assert!((weighted_correlation(&xs, &ys, &ws) - 1.0).abs() < 1e-12);
        let ys_neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((weighted_correlation(&xs, &ys_neg, &ws) + 1.0).abs() < 1e-12);
        // Orthogonal pattern: zero correlation.
        let xs2 = [1.0, -1.0, 1.0, -1.0];
        let ys2 = [1.0, 1.0, -1.0, -1.0];
        assert!(weighted_correlation(&xs2, &ys2, &ws).abs() < 1e-12);
        // Weight concentration drives the estimate.
        let w_conc = [1.0, 0.0, 0.0, 1.0];
        assert!((weighted_covariance(&xs, &ys, &w_conc) - 4.5).abs() < 1e-12);
        // Constant marginal: NaN.
        assert!(weighted_correlation(&[1.0, 1.0], &[1.0, 2.0], &[1.0, 1.0]).is_nan());
    }

    #[test]
    fn ess_limits() {
        assert!((ess(&[0.25; 4]) - 4.0).abs() < 1e-12);
        assert!((ess(&[1.0, 0.0, 0.0]) - 1.0).abs() < 1e-12);
        assert_eq!(ess(&[]), 0.0);
        assert_eq!(ess(&[0.0, 0.0]), 0.0);
        // Unnormalized weights give the same answer.
        assert!((ess(&[2.0, 2.0]) - ess(&[0.5, 0.5])).abs() < 1e-12);
    }

    #[test]
    fn quantile_type7_reference() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&xs, 0.0) - 1.0).abs() < 1e-14);
        assert!((quantile(&xs, 1.0) - 4.0).abs() < 1e-14);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-14);
        // R: quantile(1:4, 0.25, type = 7) = 1.75
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-14);
    }

    #[test]
    fn weighted_quantile_uniform_weights_close_to_plain() {
        let xs: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let ws = vec![1.0; 1000];
        for &q in &[0.1, 0.25, 0.5, 0.9] {
            let wq = weighted_quantile(&xs, &ws, q);
            let pq = quantile(&xs, q);
            assert!((wq - pq).abs() < 1.0, "q = {q}: {wq} vs {pq}");
        }
    }

    #[test]
    fn weighted_quantile_degenerate_weight() {
        let xs = [10.0, 20.0, 30.0];
        let ws = [0.0, 1.0, 0.0];
        for &q in &[0.0, 0.5, 1.0] {
            assert!((weighted_quantile(&xs, &ws, q) - 20.0).abs() < 1e-12);
        }
    }

    #[test]
    fn weighted_quantile_monotone_in_q() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        let ws = [0.1, 0.3, 0.2, 0.25, 0.15];
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = weighted_quantile(&xs, &ws, q);
            assert!(v >= prev - 1e-12);
            prev = v;
        }
    }

    #[test]
    fn histogram_densities_integrate_to_one() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        for i in 0..100 {
            h.add(i as f64 / 100.0);
        }
        let bin_w = 0.1;
        let total: f64 = h.densities().iter().map(|d| d * bin_w).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(-5.0);
        h.add(5.0);
        assert_eq!(h.counts()[0], 1.0);
        assert_eq!(h.counts()[3], 1.0);
    }
}
