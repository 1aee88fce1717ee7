//! Piecewise-constant time-varying parameter schedules.

/// A right-continuous piecewise-constant schedule: `values[k]` applies
/// from `breaks[k]` (inclusive) until `breaks[k+1]` (exclusive); the last
/// value extends to infinity.
#[derive(Clone, Debug, PartialEq)]
pub struct PiecewiseConstant {
    breaks: Vec<u32>,
    values: Vec<f64>,
}

impl PiecewiseConstant {
    /// Create a schedule.
    ///
    /// # Panics
    /// Panics unless `breaks` and `values` have equal nonzero length,
    /// `breaks[0] == 0`, and breaks strictly increase.
    pub fn new(breaks: Vec<u32>, values: Vec<f64>) -> Self {
        assert!(!breaks.is_empty(), "PiecewiseConstant: empty schedule");
        assert_eq!(
            breaks.len(),
            values.len(),
            "PiecewiseConstant: length mismatch"
        );
        assert_eq!(breaks[0], 0, "PiecewiseConstant: first break must be day 0");
        for w in breaks.windows(2) {
            assert!(
                w[0] < w[1],
                "PiecewiseConstant: breaks must strictly increase"
            );
        }
        Self { breaks, values }
    }

    /// A constant schedule.
    pub fn constant(value: f64) -> Self {
        Self::new(vec![0], vec![value])
    }

    /// The paper's transmission-rate truth: 0.30 on days 0–33, 0.27 on
    /// 34–47, 0.25 on 48–61, 0.40 from day 62 on (Section V-A).
    pub fn paper_theta() -> Self {
        Self::new(vec![0, 34, 48, 62], vec![0.30, 0.27, 0.25, 0.40])
    }

    /// The paper's reporting-probability truth: 0.60 / 0.70 / 0.85 / 0.80
    /// on the same horizons.
    pub fn paper_rho() -> Self {
        Self::new(vec![0, 34, 48, 62], vec![0.60, 0.70, 0.85, 0.80])
    }

    /// Value in effect on `day`.
    pub fn value_at(&self, day: u32) -> f64 {
        match self.breaks.binary_search(&day) {
            Ok(i) => self.values[i],
            Err(i) => self.values[i - 1],
        }
    }

    /// The change points (first entry is day 0).
    pub fn breaks(&self) -> &[u32] {
        &self.breaks
    }

    /// The segment values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Days at which the value changes (excludes day 0).
    pub fn change_days(&self) -> &[u32] {
        &self.breaks[1..]
    }

    /// The value per day for days `1..=horizon` as a dense vector
    /// (index `d - 1` holds day `d`).
    pub fn dense(&self, horizon: u32) -> Vec<f64> {
        (1..=horizon).map(|d| self.value_at(d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_theta_schedule_values() {
        let s = PiecewiseConstant::paper_theta();
        assert_eq!(s.value_at(0), 0.30);
        assert_eq!(s.value_at(33), 0.30);
        assert_eq!(s.value_at(34), 0.27);
        assert_eq!(s.value_at(47), 0.27);
        assert_eq!(s.value_at(48), 0.25);
        assert_eq!(s.value_at(61), 0.25);
        assert_eq!(s.value_at(62), 0.40);
        assert_eq!(s.value_at(10_000), 0.40);
    }

    #[test]
    fn paper_rho_schedule_values() {
        let s = PiecewiseConstant::paper_rho();
        assert_eq!(s.value_at(20), 0.60);
        assert_eq!(s.value_at(40), 0.70);
        assert_eq!(s.value_at(50), 0.85);
        assert_eq!(s.value_at(90), 0.80);
    }

    #[test]
    fn constant_schedule() {
        let s = PiecewiseConstant::constant(0.5);
        assert_eq!(s.value_at(0), 0.5);
        assert_eq!(s.value_at(999), 0.5);
        assert!(s.change_days().is_empty());
    }

    #[test]
    fn dense_expansion_aligns_days() {
        let s = PiecewiseConstant::new(vec![0, 3], vec![1.0, 2.0]);
        // Days 1..=4: days 1,2 -> 1.0; days 3,4 -> 2.0.
        assert_eq!(s.dense(4), vec![1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn rejects_nonzero_first_break() {
        PiecewiseConstant::new(vec![1, 5], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn rejects_unsorted_breaks() {
        PiecewiseConstant::new(vec![0, 5, 5], vec![1.0, 2.0, 3.0]);
    }
}
