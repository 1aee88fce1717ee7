//! Minimal dense linear algebra for correlated Gaussian proposals:
//! Cholesky factorization, multivariate-normal draws, and shrinkage
//! regularization of empirical covariances.
//!
//! Exactly what the PMMH move pass needs: shrink the posterior's
//! empirical covariance to SPD, factor it once per pass, then draw each
//! correlated `(θ, ρ)` step as `L z`. Matrices are row-major flat
//! `Vec<f64>`.

/// Cholesky factorization `A = L L^T` of a symmetric positive-definite
/// matrix.
#[derive(Clone, Debug)]
pub struct Cholesky {
    /// Lower-triangular factor, row-major `n x n` (upper part zeroed).
    l: Vec<f64>,
    n: usize,
}

impl Cholesky {
    /// Factor a row-major symmetric matrix of side `n`.
    ///
    /// # Errors
    /// Returns an error if the matrix is not (numerically) positive
    /// definite or the dimensions are inconsistent.
    pub fn new(a: &[f64], n: usize) -> Result<Self, String> {
        if a.len() != n * n {
            return Err(format!("cholesky: {} entries != {n}^2", a.len()));
        }
        let mut l = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[i * n + j];
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(format!("cholesky: non-positive pivot {sum:.3e} at row {i}"));
                    }
                    l[i * n + i] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        Ok(Self { l, n })
    }

    /// Matrix side length.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The lower factor (row-major).
    pub fn factor(&self) -> &[f64] {
        &self.l
    }

    /// `L z`: maps a vector of i.i.d. standard normals onto a draw with
    /// covariance `A = L Lᵀ` (add the mean yourself). The triangular
    /// product is the sampling half of a multivariate-normal draw.
    ///
    /// # Panics
    /// Panics if `z` has the wrong length.
    #[allow(clippy::needless_range_loop)] // triangular index arithmetic reads clearer than iterators
    pub fn mul_lower(&self, z: &[f64]) -> Vec<f64> {
        assert_eq!(z.len(), self.n, "cholesky mul_lower: wrong vector length");
        let mut y = vec![0.0f64; self.n];
        for i in 0..self.n {
            let mut sum = 0.0;
            for k in 0..=i {
                sum += self.l[i * self.n + k] * z[k];
            }
            y[i] = sum;
        }
        y
    }
}

/// Draw one sample from `N(mean, A)` given a Cholesky factor of `A`:
/// `mean + L z` with `z` i.i.d. standard normal. Consumes exactly
/// `dim` standard-normal draws from `rng`, in coordinate order, so the
/// draw count — and therefore downstream reproducibility — depends only
/// on the dimension, never on the covariance values.
///
/// # Panics
/// Panics if `mean` does not match the factor's dimension.
pub fn sample_mvn(
    chol: &Cholesky,
    mean: &[f64],
    rng: &mut crate::rng::Xoshiro256PlusPlus,
) -> Vec<f64> {
    assert_eq!(mean.len(), chol.dim(), "sample_mvn: wrong mean length");
    let z: Vec<f64> = (0..chol.dim())
        .map(|_| crate::dist::Normal::sample_standard(rng))
        .collect();
    chol.mul_lower(&z)
        .iter()
        .zip(mean)
        .map(|(&dx, &m)| m + dx)
        .collect()
}

/// Shrinkage-regularize an empirical covariance matrix so it is always
/// symmetric positive definite, even for one-sample or zero-variance
/// ensembles: `(1-λ)·sym(Σ) + (λ·ν + floor)·I` where `ν = tr(Σ)/d` is
/// the mean variance. The identity target follows Ledoit–Wolf; the
/// absolute `floor` guards the degenerate case `Σ = 0` (a single
/// particle, or an ensemble collapsed to a point), where scaling-based
/// shrinkage alone would stay singular.
///
/// For `λ ∈ (0, 1]` and `floor > 0` the result is SPD whenever `Σ` is
/// positive semi-definite up to floating-point rounding — which every
/// Gram-form empirical covariance is — so a subsequent
/// [`Cholesky::new`] cannot fail.
///
/// # Panics
/// Panics if `cov` is not `d × d`, `λ` is outside `[0, 1]`, or `floor`
/// is negative or non-finite.
pub fn shrink_covariance(cov: &[f64], d: usize, lambda: f64, floor: f64) -> Vec<f64> {
    assert_eq!(cov.len(), d * d, "shrink_covariance: dimension mismatch");
    assert!(
        (0.0..=1.0).contains(&lambda),
        "shrink_covariance: lambda {lambda} outside [0, 1]"
    );
    assert!(
        floor.is_finite() && floor >= 0.0,
        "shrink_covariance: floor {floor} must be finite and non-negative"
    );
    let nu = if d == 0 {
        0.0
    } else {
        (0..d).map(|i| cov[i * d + i]).sum::<f64>() / d as f64
    };
    // A NaN/negative trace (corrupt input) must not poison the ridge.
    let ridge = lambda * nu.max(0.0) + floor;
    let mut out = vec![0.0f64; d * d];
    for i in 0..d {
        for j in 0..d {
            // Symmetrize first: rounding in upstream accumulation can
            // leave Σ_ij ≠ Σ_ji at the last ulp, and Cholesky reads only
            // the lower triangle of whatever we hand it.
            out[i * d + j] = (1.0 - lambda) * 0.5 * (cov[i * d + j] + cov[j * d + i]);
        }
        out[i * d + i] += ridge;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> (Vec<f64>, usize) {
        // A = M M^T + I for a fixed M: guaranteed SPD.
        (
            vec![
                6.0, 3.0, 2.0, //
                3.0, 7.0, 4.0, //
                2.0, 4.0, 9.0,
            ],
            3,
        )
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let (a, n) = spd3();
        let ch = Cholesky::new(&a, n).unwrap();
        let l = ch.factor();
        for i in 0..n {
            for j in 0..n {
                let mut v = 0.0;
                for k in 0..n {
                    v += l[i * n + k] * l[j * n + k];
                }
                assert!((v - a[i * n + j]).abs() < 1e-12, "({i},{j}): {v}");
            }
        }
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = vec![1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, -1
        assert!(Cholesky::new(&a, 2).is_err());
    }

    #[test]
    fn rejects_bad_dimensions() {
        assert!(Cholesky::new(&[1.0, 2.0, 3.0], 2).is_err());
    }
}
