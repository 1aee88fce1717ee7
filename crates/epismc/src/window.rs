//! Calibration time windows.

/// An inclusive range of days `[start, end]` over which one calibration
/// pass scores trajectories against data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimeWindow {
    /// First scored day.
    pub start: u32,
    /// Last scored day (also the checkpoint boundary).
    pub end: u32,
}

impl TimeWindow {
    /// Create a window `[start, end]`.
    ///
    /// # Panics
    /// Panics unless `start <= end`.
    pub fn new(start: u32, end: u32) -> Self {
        assert!(start <= end, "TimeWindow: start {start} > end {end}");
        Self { start, end }
    }

    /// Number of scored days.
    pub fn len(&self) -> usize {
        (self.end - self.start + 1) as usize
    }

    /// Always false (a window contains at least one day).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `day` falls inside the window.
    pub fn contains(&self, day: u32) -> bool {
        (self.start..=self.end).contains(&day)
    }
}

/// An ordered sequence of contiguous or gapped calibration windows —
/// the outer loop of the sequential scheme.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowPlan {
    windows: Vec<TimeWindow>,
}

impl WindowPlan {
    /// Create a plan from ordered windows.
    ///
    /// # Panics
    /// Panics if empty or if any window starts at or before the previous
    /// window's end (windows must be strictly ordered and non-overlapping).
    pub fn new(windows: Vec<TimeWindow>) -> Self {
        assert!(!windows.is_empty(), "WindowPlan: no windows");
        for pair in windows.windows(2) {
            assert!(
                pair[1].start > pair[0].end,
                "WindowPlan: window {:?} does not follow {:?}",
                pair[1],
                pair[0]
            );
        }
        Self { windows }
    }

    /// The paper's four-window plan: `[20,33], [34,47], [48,61], [62,horizon]`.
    ///
    /// # Panics
    /// Panics unless `horizon >= 62`.
    pub fn paper(horizon: u32) -> Self {
        assert!(
            horizon >= 62,
            "paper plan needs horizon >= 62, got {horizon}"
        );
        Self::new(vec![
            TimeWindow::new(20, 33),
            TimeWindow::new(34, 47),
            TimeWindow::new(48, 61),
            TimeWindow::new(62, horizon),
        ])
    }

    /// Equal-width windows covering `[start, horizon]`: the operational
    /// "recalibrate every `width` days" cadence. The last window absorbs
    /// any remainder.
    ///
    /// # Panics
    /// Panics unless `width >= 1` and `start + width - 1 <= horizon`.
    pub fn regular(start: u32, width: u32, horizon: u32) -> Self {
        assert!(width >= 1, "WindowPlan::regular: zero width");
        assert!(
            start + width - 1 <= horizon,
            "WindowPlan::regular: first window [{start}, {}] exceeds horizon {horizon}",
            start + width - 1
        );
        let mut windows = Vec::new();
        let mut lo = start;
        while lo + width - 1 <= horizon {
            let hi = lo + width - 1;
            // Absorb a trailing remainder shorter than a full window.
            let hi = if hi + width > horizon { horizon } else { hi };
            windows.push(TimeWindow::new(lo, hi));
            lo = hi + 1;
        }
        Self::new(windows)
    }

    /// The windows in order.
    pub fn windows(&self) -> &[TimeWindow] {
        &self.windows
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Always false by construction.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Last scored day of the final window.
    pub fn horizon(&self) -> u32 {
        // epilint: allow(panic-unwrap) — constructor invariant: plans are non-empty
        self.windows.last().expect("non-empty").end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_basics() {
        let w = TimeWindow::new(20, 33);
        assert_eq!(w.len(), 14);
        assert!(w.contains(20) && w.contains(33));
        assert!(!w.contains(19) && !w.contains(34));
        assert_eq!(TimeWindow::new(5, 5).len(), 1);
    }

    #[test]
    #[should_panic]
    fn window_rejects_inverted() {
        TimeWindow::new(10, 9);
    }

    #[test]
    fn paper_plan_matches_section_v() {
        let p = WindowPlan::paper(90);
        assert_eq!(p.len(), 4);
        assert_eq!(p.windows()[0], TimeWindow::new(20, 33));
        assert_eq!(p.windows()[3], TimeWindow::new(62, 90));
        assert_eq!(p.horizon(), 90);
    }

    #[test]
    fn regular_plan_covers_exactly() {
        let p = WindowPlan::regular(10, 7, 42);
        // [10,16], [17,23], [24,30], [31,42] (last absorbs remainder).
        assert_eq!(p.len(), 4);
        assert_eq!(p.windows()[0], TimeWindow::new(10, 16));
        assert_eq!(p.windows()[3], TimeWindow::new(31, 42));
        assert_eq!(p.horizon(), 42);
        // Contiguity: each window starts right after the previous one.
        for pair in p.windows().windows(2) {
            assert_eq!(pair[1].start, pair[0].end + 1);
        }
        // Exact division leaves no remainder absorption.
        let q = WindowPlan::regular(1, 10, 30);
        assert_eq!(q.len(), 3);
        assert_eq!(q.windows()[2], TimeWindow::new(21, 30));
        // Single window when width barely fits.
        let s = WindowPlan::regular(5, 20, 25);
        assert_eq!(s.len(), 1);
        assert_eq!(s.windows()[0], TimeWindow::new(5, 25));
    }

    #[test]
    #[should_panic]
    fn regular_rejects_overlong_first_window() {
        WindowPlan::regular(10, 50, 30);
    }

    #[test]
    #[should_panic]
    fn plan_rejects_overlap() {
        WindowPlan::new(vec![TimeWindow::new(0, 10), TimeWindow::new(10, 20)]);
    }

    #[test]
    #[should_panic]
    fn plan_rejects_short_paper_horizon() {
        WindowPlan::paper(61);
    }
}
