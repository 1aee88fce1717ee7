//! Two-dimensional Gaussian kernel density estimation.
//!
//! Figures 4b and 5b of the paper show the joint posterior of
//! `(theta, rho)` per calibration window as 2-D density contours. This
//! module produces exactly that: a weighted 2-D KDE evaluated on a grid,
//! plus highest-density-region (HDR) level extraction so that "50%" and
//! "90%" contours enclose those posterior masses.

use crate::summary::weighted_variance;

/// Weighted 2-D Gaussian KDE with a diagonal bandwidth matrix.
#[derive(Clone, Debug)]
pub struct Kde2d {
    xs: Vec<f64>,
    ys: Vec<f64>,
    ws: Vec<f64>,
    bw_x: f64,
    bw_y: f64,
}

/// A 2-D density evaluated on a rectangular grid, with the bookkeeping
/// needed to extract HDR contour levels.
#[derive(Clone, Debug)]
pub struct DensityGrid {
    /// Grid x coordinates (length `nx`).
    pub x: Vec<f64>,
    /// Grid y coordinates (length `ny`).
    pub y: Vec<f64>,
    /// Row-major densities, `z[j * nx + i]` at `(x[i], y[j])`.
    pub z: Vec<f64>,
}

impl DensityGrid {
    /// The density level such that the region `{z >= level}` encloses
    /// probability mass `mass` (a highest-density region).
    ///
    /// Computed by sorting cell probabilities in decreasing order and
    /// accumulating until `mass` is covered.
    ///
    /// # Panics
    /// Panics unless `mass` is in `(0, 1)`.
    pub fn hdr_level(&self, mass: f64) -> f64 {
        assert!(mass > 0.0 && mass < 1.0, "hdr_level: mass = {mass}");
        let dx = if self.x.len() > 1 {
            self.x[1] - self.x[0]
        } else {
            1.0
        };
        let dy = if self.y.len() > 1 {
            self.y[1] - self.y[0]
        } else {
            1.0
        };
        let cell = dx * dy;
        let mut dens: Vec<f64> = self.z.clone();
        dens.sort_by(|a, b| b.total_cmp(a));
        let total: f64 = dens.iter().map(|&d| d * cell).sum();
        let mut acc = 0.0;
        for &d in &dens {
            acc += d * cell / total;
            if acc >= mass {
                return d;
            }
        }
        *dens.last().unwrap_or(&0.0)
    }

    /// Location of the density mode on the grid.
    pub fn mode(&self) -> (f64, f64) {
        let (mut best, mut bi) = (f64::NEG_INFINITY, 0);
        for (i, &d) in self.z.iter().enumerate() {
            if d > best {
                best = d;
                bi = i;
            }
        }
        let nx = self.x.len();
        (self.x[bi % nx], self.y[bi / nx])
    }
}

impl Kde2d {
    /// Build a weighted 2-D KDE. Bandwidths follow Scott's rule per
    /// dimension on the weighted standard deviations.
    ///
    /// # Panics
    /// Panics on empty input, mismatched lengths, or zero total weight.
    pub fn new(xs: &[f64], ys: &[f64], ws: Option<&[f64]>) -> Self {
        assert!(!xs.is_empty(), "Kde2d: empty sample");
        assert_eq!(xs.len(), ys.len(), "Kde2d: coordinate length mismatch");
        let ws = match ws {
            Some(w) => {
                assert_eq!(w.len(), xs.len(), "Kde2d: weight length mismatch");
                w.to_vec()
            }
            None => vec![1.0; xs.len()],
        };
        let total: f64 = ws.iter().sum();
        assert!(total > 0.0, "Kde2d: zero total weight");
        let n_eff = crate::summary::ess(&ws).max(2.0);
        let factor = n_eff.powf(-1.0 / 6.0); // Scott, d = 2
        let bw_x = (weighted_variance(xs, &ws).sqrt() * factor).max(1e-9);
        let bw_y = (weighted_variance(ys, &ws).sqrt() * factor).max(1e-9);
        Self {
            xs: xs.to_vec(),
            ys: ys.to_vec(),
            ws,
            bw_x,
            bw_y,
        }
    }

    /// Evaluate the density at a point.
    pub fn density(&self, x: f64, y: f64) -> f64 {
        let total: f64 = self.ws.iter().sum();
        let norm = total * self.bw_x * self.bw_y * 2.0 * std::f64::consts::PI;
        let mut acc = 0.0;
        for ((&xi, &yi), &wi) in self.xs.iter().zip(&self.ys).zip(&self.ws) {
            let zx = (x - xi) / self.bw_x;
            let zy = (y - yi) / self.bw_y;
            acc += wi * (-0.5 * (zx * zx + zy * zy)).exp();
        }
        acc / norm
    }

    /// Evaluate on an `nx` x `ny` grid over the given rectangle.
    pub fn grid(
        &self,
        (x_lo, x_hi): (f64, f64),
        (y_lo, y_hi): (f64, f64),
        nx: usize,
        ny: usize,
    ) -> DensityGrid {
        assert!(
            nx >= 2 && ny >= 2 && x_lo < x_hi && y_lo < y_hi,
            "Kde2d::grid: bad spec"
        );
        let x: Vec<f64> = (0..nx)
            .map(|i| x_lo + (x_hi - x_lo) * i as f64 / (nx - 1) as f64)
            .collect();
        let y: Vec<f64> = (0..ny)
            .map(|j| y_lo + (y_hi - y_lo) * j as f64 / (ny - 1) as f64)
            .collect();
        let mut z = vec![0.0; nx * ny];
        for (j, &yj) in y.iter().enumerate() {
            for (i, &xi) in x.iter().enumerate() {
                z[j * nx + i] = self.density(xi, yj);
            }
        }
        DensityGrid { x, y, z }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, Normal};
    use crate::rng::Xoshiro256PlusPlus;

    #[test]
    fn kde2d_mass_and_mode() {
        let mut rng = Xoshiro256PlusPlus::new(112);
        let dx = Normal::new(0.3, 0.05);
        let dy = Normal::new(0.7, 0.08);
        let xs = dx.sample_n(&mut rng, 3_000);
        let ys = dy.sample_n(&mut rng, 3_000);
        let kde = Kde2d::new(&xs, &ys, None);
        let grid = kde.grid((0.0, 0.6), (0.3, 1.1), 80, 80);
        let cell = (grid.x[1] - grid.x[0]) * (grid.y[1] - grid.y[0]);
        let mass = grid.z.iter().sum::<f64>() * cell;
        assert!((mass - 1.0).abs() < 0.03);
        let (mx, my) = grid.mode();
        assert!((mx - 0.3).abs() < 0.05, "mode x = {mx}");
        assert!((my - 0.7).abs() < 0.08, "mode y = {my}");
    }

    #[test]
    fn hdr_levels_are_nested() {
        let mut rng = Xoshiro256PlusPlus::new(113);
        let d = Normal::new(0.0, 1.0);
        let xs = d.sample_n(&mut rng, 2_000);
        let ys = d.sample_n(&mut rng, 2_000);
        let grid = Kde2d::new(&xs, &ys, None).grid((-4.0, 4.0), (-4.0, 4.0), 60, 60);
        let l50 = grid.hdr_level(0.5);
        let l90 = grid.hdr_level(0.9);
        // The 50% region is smaller, so its bounding level is higher.
        assert!(l50 > l90, "l50 = {l50}, l90 = {l90}");
        // For a standard bivariate normal the 50% HDR level is
        // pdf at radius r where 1 - exp(-r^2/2) = 0.5 -> level = 0.5/(2 pi).
        let want = 0.5 / (2.0 * std::f64::consts::PI);
        assert!(
            (l50 - want).abs() / want < 0.35,
            "l50 = {l50}, want ~ {want}"
        );
    }
}
