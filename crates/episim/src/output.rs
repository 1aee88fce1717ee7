//! Recorded simulation output: named daily series, owned
//! ([`DailySeries`]) or structurally shared across a particle ensemble
//! ([`SharedTrajectory`]).

use std::sync::Arc;

use crate::error::SimError;

/// Daily output series recorded during a run: one row per simulated day,
/// one named column per flow counter and census in the model spec.
///
/// The values live in one column-major block: column `k` holds its days
/// at `values[k * stride..k * stride + len]`, where `stride` is the day
/// capacity every column has room for. A series sized for its run with
/// [`Self::with_day_capacity`] is therefore one allocation that never
/// regrows, and the names are a shared `Arc<[String]>`, so every run of
/// one compiled model records under the same name allocation.
#[derive(Clone, Debug)]
pub struct DailySeries {
    names: Arc<[String]>,
    /// Column-major values; only the first `len` days of each column's
    /// `stride` slots are recorded.
    values: Vec<u64>,
    /// Day capacity of each column (the distance between column starts).
    stride: usize,
    /// Recorded days.
    len: usize,
    /// Day index of the first recorded row (nonzero when a run resumes
    /// from a checkpoint).
    start_day: u32,
}

impl DailySeries {
    /// Create an empty series set with the given column names, starting
    /// at `start_day`.
    pub fn new(names: impl Into<Arc<[String]>>, start_day: u32) -> Self {
        Self::with_day_capacity(names, start_day, 0)
    }

    /// [`Self::new`] with room for `days` rows in one allocation, so a
    /// run of known length never regrows its block.
    pub fn with_day_capacity(names: impl Into<Arc<[String]>>, start_day: u32, days: usize) -> Self {
        let names = names.into();
        Self {
            values: vec![0; names.len() * days],
            names,
            stride: days,
            len: 0,
            start_day,
        }
    }

    /// Assemble a series from complete columns — the inverse of reading
    /// every [`Self::column`].
    ///
    /// # Errors
    /// Returns [`SimError::Output`] if the column count does not match
    /// the name count or the columns have unequal lengths.
    pub fn from_columns(
        names: impl Into<Arc<[String]>>,
        start_day: u32,
        columns: Vec<Vec<u64>>,
    ) -> Result<Self, SimError> {
        let names = names.into();
        if names.len() != columns.len() {
            return Err(SimError::Output(format!(
                "from_columns: {} names but {} columns",
                names.len(),
                columns.len()
            )));
        }
        let days = columns.first().map_or(0, Vec::len);
        if columns.iter().any(|c| c.len() != days) {
            return Err(SimError::Output(
                "from_columns: columns have unequal lengths".into(),
            ));
        }
        Self::from_block(names, start_day, days, columns.concat())
    }

    /// Assemble a series of `days` rows from its column-major block:
    /// column `k` is `block[k * days..(k + 1) * days]` (used by the
    /// durability layer to read a serialized segment straight into its
    /// one allocation).
    ///
    /// # Errors
    /// Returns [`SimError::Output`] unless the block holds exactly
    /// `days` values per name.
    pub fn from_block(
        names: impl Into<Arc<[String]>>,
        start_day: u32,
        days: usize,
        block: Vec<u64>,
    ) -> Result<Self, SimError> {
        let names = names.into();
        if names.len().checked_mul(days) != Some(block.len()) {
            return Err(SimError::Output(format!(
                "from_block: {} values for {} columns of {days} days",
                block.len(),
                names.len()
            )));
        }
        Ok(Self {
            names,
            values: block,
            stride: days,
            len: days,
            start_day,
        })
    }

    /// Append one day's values (must match the column count).
    ///
    /// # Panics
    /// Panics on a length mismatch.
    pub fn push_day(&mut self, values: &[u64]) {
        assert_eq!(values.len(), self.names.len(), "push_day: column mismatch");
        self.reserve_days(1);
        for (k, &v) in values.iter().enumerate() {
            self.values[k * self.stride + self.len] = v;
        }
        self.len += 1;
    }

    /// Make room for `more` further days, at least doubling the stride
    /// when it grows so repeated pushes stay amortized `O(1)`.
    fn reserve_days(&mut self, more: usize) {
        let need = self.len + more;
        if need <= self.stride {
            return;
        }
        let stride = need.max(2 * self.stride).max(4);
        self.values.resize(self.names.len() * stride, 0);
        // Move columns to their new starts, last first: each column's new
        // start lies at or after its old one and past every lower
        // column's old rows, so nothing is overwritten before it moves.
        for k in (1..self.names.len()).rev() {
            let old = k * self.stride;
            self.values.copy_within(old..old + self.len, k * stride);
        }
        self.stride = stride;
    }

    /// Column names in storage order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Whether `other` records under the same names: the same shared
    /// allocation, or equal strings.
    fn same_names(&self, other: &DailySeries) -> bool {
        Arc::ptr_eq(&self.names, &other.names) || self.names == other.names
    }

    /// Number of recorded days.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether any days have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// First recorded day index.
    pub fn start_day(&self) -> u32 {
        self.start_day
    }

    /// Column `k` in [`Self::names`] order.
    pub fn column(&self, k: usize) -> Option<&[u64]> {
        (k < self.names.len()).then(|| self.column_slice(k))
    }

    /// Column `k`'s recorded days; `k` must be in range.
    fn column_slice(&self, k: usize) -> &[u64] {
        &self.values[k * self.stride..k * self.stride + self.len]
    }

    /// The columns as slices, in [`Self::names`] order.
    fn columns(&self) -> impl Iterator<Item = &[u64]> {
        (0..self.names.len()).map(|k| self.column_slice(k))
    }

    /// A copy of the first `days` rows (`days <= len`), in one block.
    fn first_days(&self, days: usize) -> Self {
        Self {
            names: Arc::clone(&self.names),
            values: self.columns().flat_map(|c| &c[..days]).copied().collect(),
            stride: days,
            len: days,
            start_day: self.start_day,
        }
    }

    /// A column by name.
    pub fn series(&self, name: &str) -> Option<&[u64]> {
        let k = self.names.iter().position(|n| n == name)?;
        self.column(k)
    }

    /// A column by name as `f64` (convenient for likelihood code).
    pub fn series_f64(&self, name: &str) -> Option<Vec<f64>> {
        self.series(name)
            .map(|s| s.iter().map(|&v| v as f64).collect())
    }

    /// Append all rows of `other` (which must have identical column names
    /// and start exactly where `self` ends).
    ///
    /// # Panics
    /// Panics if the names differ or the day ranges are not contiguous.
    pub fn extend(&mut self, other: &DailySeries) {
        assert!(self.same_names(other), "extend: column names differ");
        assert_eq!(
            self.start_day as usize + self.len,
            other.start_day as usize,
            "extend: day ranges are not contiguous"
        );
        self.reserve_days(other.len);
        for (k, src) in other.columns().enumerate() {
            let at = k * self.stride + self.len;
            self.values[at..at + src.len()].copy_from_slice(src);
        }
        self.len += other.len;
    }

    /// The sub-range of a column covering absolute days
    /// `[day_lo, day_hi]` inclusive, if fully recorded.
    pub fn window(&self, name: &str, day_lo: u32, day_hi: u32) -> Option<&[u64]> {
        let col = self.series(name)?;
        if day_lo < self.start_day || day_hi < day_lo {
            return None;
        }
        let lo = (day_lo - self.start_day) as usize;
        let hi = (day_hi - self.start_day) as usize;
        if hi >= col.len() {
            return None;
        }
        Some(&col[lo..=hi])
    }
}

impl PartialEq for DailySeries {
    /// Content equality: names, start day and recorded values, whatever
    /// spare capacity either block holds.
    fn eq(&self, other: &Self) -> bool {
        self.same_names(other)
            && self.start_day == other.start_day
            && self.len == other.len
            && self.columns().eq(other.columns())
    }
}

/// One immutable span of recorded days inside a [`SharedTrajectory`]
/// chain. Segments link backwards to the segment they continue, so every
/// particle descended from the same ancestor shares the ancestor's
/// segments by `Arc` instead of holding its own copy of the history.
#[derive(Debug)]
struct TrajectorySegment {
    /// The days this segment recorded (its `start_day` is the absolute
    /// day right after the parent chain ends).
    series: DailySeries,
    /// The chain being continued (`None` for the day-0 root segment).
    parent: Option<Arc<TrajectorySegment>>,
    /// Absolute first day of the whole chain (cached from the root).
    chain_start: u32,
    /// Total recorded days across the whole chain, this segment included.
    chain_len: usize,
    /// Segments in the whole chain, this one included.
    depth: usize,
}

/// A persistent, structurally shared daily-output trajectory.
///
/// A windowed calibration keeps thousands of particles whose histories
/// are mostly identical: every child of a resampled ancestor repeats the
/// ancestor's past and differs only in the newest window. Storing each
/// particle as an owned [`DailySeries`] makes a continuation cost
/// `O(history)` in time and memory; a `SharedTrajectory` is an
/// `Arc`-linked chain of immutable per-window segments, so continuing a
/// trajectory appends one segment in `O(window)` and all descendants
/// share their common prefix.
///
/// Reads gather across segments and therefore return owned vectors
/// rather than slices; [`Self::flatten`] produces a plain
/// [`DailySeries`] when contiguous storage is needed.
#[derive(Clone, Debug)]
pub struct SharedTrajectory {
    head: Arc<TrajectorySegment>,
}

impl SharedTrajectory {
    /// Wrap a fully owned series as a single root segment.
    pub fn root(series: DailySeries) -> Self {
        let chain_start = series.start_day();
        let chain_len = series.len();
        Self {
            head: Arc::new(TrajectorySegment {
                series,
                parent: None,
                chain_start,
                chain_len,
                depth: 1,
            }),
        }
    }

    /// An empty trajectory with the given column names, starting at
    /// `start_day`.
    pub fn empty(names: impl Into<Arc<[String]>>, start_day: u32) -> Self {
        Self::root(DailySeries::new(names, start_day))
    }

    /// Continue this trajectory with the next window's recorded days.
    /// `O(1)` in the length of the existing history: the new trajectory
    /// shares every prior segment with `self` (and with any other
    /// continuation of the same ancestor).
    ///
    /// # Panics
    /// Panics if the names differ or `tail` does not start on the day
    /// right after this trajectory ends (the same contract as
    /// [`DailySeries::extend`]).
    #[must_use]
    pub fn append(&self, tail: DailySeries) -> Self {
        assert!(
            self.head.series.same_names(&tail),
            "append: column names differ"
        );
        assert_eq!(
            self.head.chain_start as usize + self.head.chain_len,
            tail.start_day() as usize,
            "append: day ranges are not contiguous"
        );
        if tail.is_empty() {
            return self.clone();
        }
        if self.is_empty() && self.head.parent.is_none() {
            // Nothing to share yet: drop the empty root.
            return Self::root(tail);
        }
        let chain_len = self.head.chain_len + tail.len();
        Self {
            head: Arc::new(TrajectorySegment {
                series: tail,
                parent: Some(Arc::clone(&self.head)),
                chain_start: self.head.chain_start,
                chain_len,
                depth: self.head.depth + 1,
            }),
        }
    }

    /// Column names in storage order.
    pub fn names(&self) -> &[String] {
        self.head.series.names()
    }

    /// The shared name allocation, for series built from this one.
    fn names_arc(&self) -> Arc<[String]> {
        Arc::clone(&self.head.series.names)
    }

    /// Total recorded days across all segments.
    pub fn len(&self) -> usize {
        self.head.chain_len
    }

    /// Whether any days have been recorded.
    pub fn is_empty(&self) -> bool {
        self.head.chain_len == 0
    }

    /// First recorded day index.
    pub fn start_day(&self) -> u32 {
        self.head.chain_start
    }

    /// Last recorded day index (`None` when empty).
    pub fn end_day(&self) -> Option<u32> {
        if self.is_empty() {
            None
        } else {
            Some(self.head.chain_start + self.head.chain_len as u32 - 1)
        }
    }

    /// The chain root-first, so reads run in day order.
    fn chain(&self) -> Vec<&TrajectorySegment> {
        let mut segs = Vec::new();
        let mut cur = Some(&self.head);
        while let Some(seg) = cur {
            segs.push(seg.as_ref());
            cur = seg.parent.as_ref();
        }
        segs.reverse();
        segs
    }

    /// A full column by name, gathered across segments.
    pub fn series(&self, name: &str) -> Option<Vec<u64>> {
        let col = self.names().iter().position(|n| n == name)?;
        let mut out = Vec::with_capacity(self.len());
        for seg in self.chain() {
            out.extend_from_slice(seg.series.column_slice(col));
        }
        Some(out)
    }

    /// A full column by name as `f64`.
    pub fn series_f64(&self, name: &str) -> Option<Vec<f64>> {
        self.series(name)
            .map(|s| s.into_iter().map(|v| v as f64).collect())
    }

    /// The sub-range of a column covering absolute days
    /// `[day_lo, day_hi]` inclusive, if fully recorded.
    pub fn window(&self, name: &str, day_lo: u32, day_hi: u32) -> Option<Vec<u64>> {
        if day_lo < self.head.chain_start || day_hi < day_lo {
            return None;
        }
        let end = self.head.chain_start as usize + self.head.chain_len;
        if day_hi as usize >= end {
            return None;
        }
        let col = self.names().iter().position(|n| n == name)?;
        let mut out = Vec::with_capacity((day_hi - day_lo + 1) as usize);
        for seg in self.chain() {
            if seg.series.is_empty() {
                continue;
            }
            let s_lo = seg.series.start_day() as usize;
            let s_hi = s_lo + seg.series.len() - 1;
            let lo = (day_lo as usize).max(s_lo);
            let hi = (day_hi as usize).min(s_hi);
            if lo > hi {
                continue;
            }
            out.extend_from_slice(&seg.series.column_slice(col)[lo - s_lo..=hi - s_lo]);
        }
        Some(out)
    }

    /// Fill `out` with the sub-range of a column covering absolute days
    /// `[day_lo, day_hi]` inclusive — the scratch-buffer variant of
    /// [`Self::window`] for hot scoring loops. `out` is cleared first;
    /// returns `false` (leaving `out` empty) when the range is not fully
    /// recorded or the column is unknown.
    pub fn window_into(&self, name: &str, day_lo: u32, day_hi: u32, out: &mut Vec<u64>) -> bool {
        out.clear();
        if day_lo < self.head.chain_start || day_hi < day_lo {
            return false;
        }
        let end = self.head.chain_start as usize + self.head.chain_len;
        if day_hi as usize >= end {
            return false;
        }
        let Some(col) = self.names().iter().position(|n| n == name) else {
            return false;
        };
        // Segments in a chain cover disjoint contiguous day ranges, so
        // each clip maps to a fixed offset in the output — fill in place,
        // walking head-ward without materializing the chain.
        let n = (day_hi - day_lo + 1) as usize;
        out.resize(n, 0);
        let mut filled = 0usize;
        let mut cur = Some(&self.head);
        while let Some(seg) = cur {
            if !seg.series.is_empty() {
                let s_lo = seg.series.start_day() as usize;
                let s_hi = s_lo + seg.series.len() - 1;
                let lo = (day_lo as usize).max(s_lo);
                let hi = (day_hi as usize).min(s_hi);
                if lo <= hi {
                    let base = day_lo as usize;
                    out[lo - base..=hi - base]
                        .copy_from_slice(&seg.series.column_slice(col)[lo - s_lo..=hi - s_lo]);
                    filled += hi - lo + 1;
                    if filled == n {
                        // The rest of the chain lies before `day_lo`.
                        break;
                    }
                }
            }
            cur = seg.parent.as_ref();
        }
        if filled == n {
            true
        } else {
            out.clear();
            false
        }
    }

    /// Copy the whole chain into one contiguous owned [`DailySeries`].
    pub fn flatten(&self) -> DailySeries {
        let mut flat =
            DailySeries::with_day_capacity(self.names_arc(), self.head.chain_start, self.len());
        for seg in self.chain() {
            flat.extend(&seg.series);
        }
        flat
    }

    /// Iterate recorded days in order as `(absolute_day, row)` pairs,
    /// with one row value per column in [`Self::names`] order.
    pub fn iter_days(&self) -> DayRows {
        let mut segments: Vec<Arc<TrajectorySegment>> = Vec::new();
        let mut cur = Some(&self.head);
        while let Some(seg) = cur {
            segments.push(Arc::clone(seg));
            cur = seg.parent.as_ref();
        }
        segments.reverse();
        DayRows {
            segments,
            seg: 0,
            row: 0,
            day: self.head.chain_start,
        }
    }

    /// The prefix of this trajectory up to and including absolute day
    /// `day` (the whole trajectory if `day` is past the end; empty if
    /// `day` precedes the start).
    ///
    /// When `day` falls on a segment boundary — the common case, because
    /// segments are appended per calibration window and cuts happen at
    /// window-start checkpoints — the prefix is returned in `O(segments)`
    /// with zero copying: it *is* the shared ancestor chain. A
    /// mid-segment cut copies only the partial segment and still shares
    /// everything before it.
    #[must_use]
    pub fn truncated(&self, day: u32) -> Self {
        let start = self.head.chain_start;
        if day < start || self.is_empty() {
            return Self::empty(self.names_arc(), start);
        }
        if day >= start + self.head.chain_len as u32 - 1 {
            return self.clone();
        }
        // Walk head-ward until the segment containing `day`.
        let mut seg = &self.head;
        loop {
            let seg_first = seg.series.start_day();
            if day + 1 == seg_first {
                // Cut exactly before this segment: the parent chain is
                // the prefix, shared as-is.
                // epilint: allow(panic-unwrap) — chain invariant: day >= chain_start implies a parent exists here
                let parent = seg.parent.as_ref().expect("day >= start");
                return Self {
                    head: Arc::clone(parent),
                };
            }
            if day >= seg_first {
                break;
            }
            // epilint: allow(panic-unwrap) — chain invariant: every day in [chain_start, end] lies in some segment
            seg = seg.parent.as_ref().expect("chain covers day");
        }
        // Mid-segment cut: share the parent chain, copy the kept rows.
        let prefix = match &seg.parent {
            Some(p) => Self {
                head: Arc::clone(p),
            },
            None => Self::empty(self.names_arc(), start),
        };
        let seg_first = seg.series.start_day();
        let keep = (day - seg_first + 1) as usize;
        prefix.append(seg.series.first_days(keep))
    }

    /// Number of segments in the chain (`O(1)`: each segment records its
    /// chain depth).
    pub fn segment_count(&self) -> usize {
        self.head.depth
    }

    /// The head segment's id: its allocation address, the same id
    /// [`Self::unknown_segments`] reports for the head. Two trajectories
    /// with equal head ids share their entire chain.
    pub fn head_id(&self) -> usize {
        Arc::as_ptr(&self.head) as usize
    }

    /// Walk the chain head-ward, stopping at the first segment whose id
    /// `known` accepts, and return the segments passed over root-first
    /// as `(id, series)` pairs plus the id the walk stopped at (`None`
    /// when no segment was known). Ids are the ones [`Self::head_id`]
    /// reports, so each id's parent is the preceding id in its chain.
    ///
    /// A caller that records every segment it is handed knows a
    /// root-side prefix of every chain it has walked, because a chain's
    /// ancestors are walked before or with it. Deduplicating a whole
    /// ensemble this way visits each distinct segment once plus one
    /// known segment per trajectory, however long the chains grow.
    pub fn unknown_segments(
        &self,
        mut known: impl FnMut(usize) -> bool,
    ) -> (Vec<(usize, &DailySeries)>, Option<usize>) {
        let mut fresh = Vec::new();
        let mut stop = None;
        let mut cur = Some(&self.head);
        while let Some(seg) = cur {
            let id = Arc::as_ptr(seg) as usize;
            if known(id) {
                stop = Some(id);
                break;
            }
            fresh.push((id, &seg.series));
            cur = seg.parent.as_ref();
        }
        fresh.reverse();
        (fresh, stop)
    }

    /// Heap bytes of recorded values a standalone owned copy of the full
    /// history would take — the denominator of the sharing ratio.
    pub fn flat_bytes(&self) -> usize {
        self.len() * self.names().len() * std::mem::size_of::<u64>()
    }
}

impl PartialEq for SharedTrajectory {
    /// Content equality: same names, alignment, and day values,
    /// regardless of how the history is segmented.
    fn eq(&self, other: &Self) -> bool {
        self.flatten() == other.flatten()
    }
}

impl From<DailySeries> for SharedTrajectory {
    fn from(series: DailySeries) -> Self {
        Self::root(series)
    }
}

/// Iterator over the `(absolute_day, row)` pairs of a
/// [`SharedTrajectory`] (see [`SharedTrajectory::iter_days`]).
pub struct DayRows {
    segments: Vec<Arc<TrajectorySegment>>,
    seg: usize,
    row: usize,
    day: u32,
}

impl Iterator for DayRows {
    type Item = (u32, Vec<u64>);

    fn next(&mut self) -> Option<(u32, Vec<u64>)> {
        while self.seg < self.segments.len() {
            let series = &self.segments[self.seg].series;
            if self.row < series.len() {
                let row: Vec<u64> = series.columns().map(|c| c[self.row]).collect();
                let day = self.day;
                self.row += 1;
                self.day += 1;
                return Some((day, row));
            }
            self.seg += 1;
            self.row = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DailySeries {
        let mut s = DailySeries::new(vec!["a".into(), "b".into()], 0);
        s.push_day(&[1, 10]);
        s.push_day(&[2, 20]);
        s.push_day(&[3, 30]);
        s
    }

    #[test]
    fn push_and_query() {
        let s = sample();
        assert_eq!(s.len(), 3);
        assert_eq!(s.series("a").unwrap(), &[1, 2, 3]);
        assert_eq!(s.series("b").unwrap(), &[10, 20, 30]);
        assert!(s.series("c").is_none());
        assert_eq!(s.series_f64("a").unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn window_extraction() {
        let s = sample();
        assert_eq!(s.window("a", 1, 2).unwrap(), &[2, 3]);
        assert!(s.window("a", 1, 5).is_none());
        assert!(s.window("a", 2, 1).is_none());
    }

    #[test]
    fn window_respects_start_day() {
        let mut s = DailySeries::new(vec!["x".into()], 10);
        s.push_day(&[7]);
        s.push_day(&[8]);
        assert_eq!(s.window("x", 10, 11).unwrap(), &[7, 8]);
        assert!(s.window("x", 9, 10).is_none());
    }

    #[test]
    fn extend_contiguous_runs() {
        let mut a = sample();
        let mut b = DailySeries::new(vec!["a".into(), "b".into()], 3);
        b.push_day(&[4, 40]);
        a.extend(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.series("a").unwrap(), &[1, 2, 3, 4]);
    }

    #[test]
    #[should_panic]
    fn extend_rejects_gap() {
        let mut a = sample();
        let b = DailySeries::new(vec!["a".into(), "b".into()], 5);
        a.extend(&b);
    }

    #[test]
    #[should_panic]
    fn push_rejects_wrong_width() {
        sample().push_day(&[1]);
    }

    fn segment(start: u32, values: &[(u64, u64)]) -> DailySeries {
        let mut s = DailySeries::new(vec!["a".into(), "b".into()], start);
        for &(a, b) in values {
            s.push_day(&[a, b]);
        }
        s
    }

    /// A three-segment chain: days 0..=2, 3..=4, 5..=6.
    fn chained() -> SharedTrajectory {
        SharedTrajectory::root(segment(0, &[(1, 10), (2, 20), (3, 30)]))
            .append(segment(3, &[(4, 40), (5, 50)]))
            .append(segment(5, &[(6, 60), (7, 70)]))
    }

    #[test]
    fn shared_reads_span_segments() {
        let t = chained();
        assert_eq!(t.len(), 7);
        assert_eq!(t.start_day(), 0);
        assert_eq!(t.end_day(), Some(6));
        assert_eq!(t.segment_count(), 3);
        assert_eq!(t.series("a").unwrap(), vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(
            t.series_f64("b").unwrap(),
            vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0]
        );
        assert!(t.series("c").is_none());
        // Window crossing two segment boundaries.
        assert_eq!(t.window("a", 2, 5).unwrap(), vec![3, 4, 5, 6]);
        // Window inside one segment.
        assert_eq!(t.window("b", 3, 4).unwrap(), vec![40, 50]);
        // Out-of-coverage windows.
        assert!(t.window("a", 0, 7).is_none());
        assert!(t.window("a", 5, 4).is_none());
    }

    #[test]
    fn window_into_matches_window() {
        let t = chained();
        let mut buf = Vec::new();
        for (lo, hi) in [(0, 6), (2, 5), (3, 4), (0, 0), (6, 6), (1, 6)] {
            assert!(t.window_into("a", lo, hi, &mut buf), "range {lo}..={hi}");
            assert_eq!(buf, t.window("a", lo, hi).unwrap(), "range {lo}..={hi}");
        }
        // Failure cases clear the buffer and return false.
        assert!(!t.window_into("a", 0, 7, &mut buf));
        assert!(buf.is_empty());
        assert!(!t.window_into("a", 5, 4, &mut buf));
        assert!(!t.window_into("zzz", 0, 1, &mut buf));
        // Scratch reuse: a larger earlier fill must not leak into a
        // smaller later one.
        assert!(t.window_into("b", 0, 6, &mut buf));
        assert!(t.window_into("b", 3, 4, &mut buf));
        assert_eq!(buf, vec![40, 50]);
        // A 300-segment chain of two-day segments (days 2k and 2k + 1):
        // reads at the head, in the middle and at the root stop once the
        // window is filled and still match the full walk.
        let mut long = SharedTrajectory::root(segment(0, &[(0, 0), (1, 10)]));
        for d in (2..600u64).step_by(2) {
            long = long.append(segment(d as u32, &[(d, 10 * d), (d + 1, 10 * d + 10)]));
        }
        assert_eq!(long.segment_count(), 300);
        for (lo, hi) in [
            (599, 599),
            (595, 598),
            (301, 304),
            (300, 301),
            (0, 0),
            (0, 3),
            (0, 599),
        ] {
            assert!(long.window_into("b", lo, hi, &mut buf), "range {lo}..={hi}");
            assert_eq!(buf, long.window("b", lo, hi).unwrap(), "range {lo}..={hi}");
            let expect: Vec<u64> = (lo..=hi).map(|d| 10 * u64::from(d)).collect();
            assert_eq!(buf, expect, "range {lo}..={hi}");
        }
    }

    /// Every segment id of a chain, root-first.
    fn segment_ids(t: &SharedTrajectory) -> Vec<usize> {
        t.unknown_segments(|_| false)
            .0
            .iter()
            .map(|&(id, _)| id)
            .collect()
    }

    #[test]
    fn append_shares_the_prefix() {
        let base = SharedTrajectory::root(segment(0, &[(1, 10), (2, 20)]));
        let child1 = base.append(segment(2, &[(3, 30)]));
        let child2 = base.append(segment(2, &[(9, 90)]));
        // Both children report the same id for the shared root segment.
        let (s1, _) = child1.unknown_segments(|_| false);
        let (s2, _) = child2.unknown_segments(|_| false);
        assert_eq!(s1.len(), 2);
        assert_eq!(s1[0].0, s2[0].0, "root segment must be shared, not copied");
        assert_eq!(s1[0].0, base.head_id());
        assert!(std::ptr::eq(s1[0].1, s2[0].1));
        assert_ne!(s1[1].0, s2[1].0);
        // The parent is untouched by either continuation.
        assert_eq!(base.len(), 2);
        assert_eq!(child1.series("a").unwrap(), vec![1, 2, 3]);
        assert_eq!(child2.series("a").unwrap(), vec![1, 2, 9]);
        // Bytes: the shared root holds 2 days; a flat copy of child1
        // holds 3 days of 2 columns * 8 bytes.
        assert_eq!(s1[0].1.len(), 2);
        assert_eq!(child1.flat_bytes(), 3 * 2 * 8);
    }

    #[test]
    fn flatten_matches_owned_extend() {
        let t = chained();
        let mut owned = segment(0, &[(1, 10), (2, 20), (3, 30)]);
        owned.extend(&segment(3, &[(4, 40), (5, 50)]));
        owned.extend(&segment(5, &[(6, 60), (7, 70)]));
        assert_eq!(t.flatten(), owned);
        assert_eq!(t, SharedTrajectory::root(owned));
    }

    #[test]
    fn iter_days_walks_the_chain_in_order() {
        let rows: Vec<(u32, Vec<u64>)> = chained().iter_days().collect();
        assert_eq!(rows.len(), 7);
        assert_eq!(rows[0], (0, vec![1, 10]));
        assert_eq!(rows[3], (3, vec![4, 40]));
        assert_eq!(rows[6], (6, vec![7, 70]));
    }

    #[test]
    fn truncated_at_boundary_is_the_shared_parent() {
        let t = chained();
        let prefix = t.truncated(4);
        assert_eq!(prefix.len(), 5);
        assert_eq!(prefix.segment_count(), 2);
        // Zero copying: the prefix heads are the very same segments.
        assert_eq!(segment_ids(&prefix), segment_ids(&t)[..2].to_vec());
        // Past-the-end and before-the-start cuts.
        assert_eq!(t.truncated(99).len(), 7);
        assert_eq!(t.truncated(0).len(), 1); // day 0 keeps the first row
        let t1 = SharedTrajectory::root(segment(5, &[(1, 1)]));
        assert!(t1.truncated(4).is_empty());
        assert_eq!(t1.truncated(4).start_day(), 5);
    }

    #[test]
    fn truncated_mid_segment_copies_only_the_tail_segment() {
        let t = chained();
        let prefix = t.truncated(3); // cuts inside the middle segment
        assert_eq!(prefix.len(), 4);
        assert_eq!(prefix.series("a").unwrap(), vec![1, 2, 3, 4]);
        // The root segment is still shared; the cut segment is a copy.
        assert_eq!(prefix.segment_count(), 2);
        assert_eq!(segment_ids(&prefix)[0], segment_ids(&t)[0]);
        assert_ne!(segment_ids(&prefix)[1], segment_ids(&t)[1]);
    }

    #[test]
    fn empty_root_is_dropped_on_append() {
        let e = SharedTrajectory::empty(vec!["a".into(), "b".into()], 0);
        assert!(e.is_empty());
        assert_eq!(e.end_day(), None);
        let t = e.append(segment(0, &[(1, 10)]));
        assert_eq!(t.segment_count(), 1, "empty root should be dropped");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn column_access_and_from_columns_round_trip() {
        let s = sample();
        assert_eq!(s.column(0).unwrap(), &[1, 2, 3]);
        assert_eq!(s.column(1).unwrap(), &[10, 20, 30]);
        assert!(s.column(2).is_none());
        let rebuilt = DailySeries::from_columns(
            s.names().to_vec(),
            s.start_day(),
            (0..2).map(|k| s.column(k).unwrap().to_vec()).collect(),
        )
        .unwrap();
        assert_eq!(rebuilt, s);
        // Structural errors are typed, not panicked.
        for bad in [
            DailySeries::from_columns(vec!["a".into()], 0, vec![]),
            DailySeries::from_columns(vec!["a".into(), "b".into()], 0, vec![vec![1], vec![]]),
            DailySeries::from_block(vec!["a".into(), "b".into()], 0, 2, vec![1, 2, 3]),
        ] {
            assert!(matches!(bad, Err(SimError::Output(_))), "{bad:?}");
        }
        // The block constructor reads the same column-major layout.
        let block = DailySeries::from_block(s.names().to_vec(), 0, 3, vec![1, 2, 3, 10, 20, 30]);
        assert_eq!(block.unwrap(), s);
    }

    #[test]
    fn pushing_past_the_presized_capacity_keeps_every_column() {
        let names: Vec<String> = vec!["a".into(), "b".into(), "c".into()];
        for capacity in [0, 1, 3, 5] {
            let mut s = DailySeries::with_day_capacity(names.clone(), 4, capacity);
            for d in 0..40u64 {
                s.push_day(&[d, 100 + d, 1_000 + d]);
                // Every column holds every day pushed so far, across each
                // regrowth of the block.
                for (k, base) in [0u64, 100, 1_000].into_iter().enumerate() {
                    let want: Vec<u64> = (0..=d).map(|i| base + i).collect();
                    assert_eq!(s.column(k).unwrap(), want, "capacity {capacity}, day {d}");
                }
            }
            assert_eq!((s.len(), s.start_day()), (40, 4));
            assert_eq!(s.window("c", 10, 12).unwrap(), &[1_006, 1_007, 1_008]);
        }
    }

    #[test]
    fn presized_and_grown_series_with_equal_rows_are_equal() {
        let names: Arc<[String]> = vec!["a".into(), "b".into()].into();
        let mut presized = DailySeries::with_day_capacity(Arc::clone(&names), 1, 16);
        // Separately allocated but equal names compare by content.
        let mut grown = DailySeries::new(vec!["a".into(), "b".into()], 1);
        for d in 0..9u64 {
            presized.push_day(&[d, d * d]);
            grown.push_day(&[d, d * d]);
        }
        assert_eq!(presized, grown);
        // A series extended from pieces equals both.
        let mut pieces = DailySeries::new(Arc::clone(&names), 1);
        pieces.extend(
            &DailySeries::from_columns(Arc::clone(&names), 1, vec![vec![0, 1], vec![0, 1]])
                .unwrap(),
        );
        let rest = (2..9u64).map(|d| d * d).collect();
        pieces.extend(&DailySeries::from_columns(names, 3, vec![(2..9).collect(), rest]).unwrap());
        assert_eq!(pieces, presized);
        // Any differing value, start day or length breaks equality.
        grown.push_day(&[9, 81]);
        assert_ne!(presized, grown);
        let shifted = DailySeries::from_columns(
            presized.names().to_vec(),
            2,
            vec![
                presized.column(0).unwrap().to_vec(),
                presized.column(1).unwrap().to_vec(),
            ],
        );
        assert_ne!(shifted.unwrap(), presized);
    }

    #[test]
    fn unknown_segments_stop_at_the_first_known_segment() {
        let t = chained();
        // Nothing known: the whole chain root-first, ending at the head,
        // with one call per segment.
        let mut calls = 0;
        let (all, stop) = t.unknown_segments(|_| {
            calls += 1;
            false
        });
        assert_eq!((calls, stop, all.len()), (3, None, 3));
        assert_eq!(all[0].1.series("a").unwrap(), &[1, 2, 3]);
        assert_eq!(all[1].1.start_day(), 3);
        assert_eq!(all[2].1.series("b").unwrap(), &[60, 70]);
        assert_eq!(all[2].0, t.head_id());
        // The middle segment known: the walk asks about the head, then
        // the middle segment, and never reaches the root.
        let (head, mid) = (all[2].0, all[1].0);
        let mut asked = Vec::new();
        let (fresh, stop) = t.unknown_segments(|id| {
            asked.push(id);
            id == mid
        });
        assert_eq!(asked, vec![head, mid]);
        assert_eq!(stop, Some(mid));
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].0, head);
        // The head known: one call and nothing unknown.
        let mut calls = 0;
        let (fresh, stop) = t.unknown_segments(|id| {
            calls += 1;
            id == head
        });
        assert_eq!((calls, stop), (1, Some(head)));
        assert!(fresh.is_empty());
        // Deduplicating siblings: the second walk stops at the shared
        // root the first one recorded.
        let base = SharedTrajectory::root(segment(0, &[(1, 10)]));
        let c1 = base.append(segment(1, &[(2, 20)]));
        let c2 = base.append(segment(1, &[(9, 90)]));
        let mut seen = std::collections::BTreeSet::new();
        let (fresh, _) = c1.unknown_segments(|id| seen.contains(&id));
        seen.extend(fresh.iter().map(|&(id, _)| id));
        assert_eq!(seen.len(), 2);
        let (fresh, stop) = c2.unknown_segments(|id| seen.contains(&id));
        assert_eq!(stop, Some(base.head_id()));
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].0, c2.head_id());
    }

    #[test]
    #[should_panic]
    fn append_rejects_gap() {
        let _ = chained().append(segment(9, &[(1, 1)]));
    }

    #[test]
    #[should_panic]
    fn append_rejects_name_mismatch() {
        let mut other = DailySeries::new(vec!["x".into(), "y".into()], 7);
        other.push_day(&[0, 0]);
        let _ = chained().append(other);
    }
}
