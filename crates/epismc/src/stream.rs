//! Online inference: streaming window updates over a durable run store.
//!
//! [`StreamingCalibrator`] is the arrival-driven face of
//! [`SequentialCalibrator`]: instead of taking the whole observed series
//! and a complete [`crate::window::WindowPlan`] up front, it opens a
//! [`RunStore`], restores the newest durable snapshot (if any), and then
//! accepts observation windows one at a time as the data come in —
//! [`StreamingCalibrator::append_window`] ingests the new days, advances
//! the SIS pass for exactly that window on the calibrator's persistent
//! worker pool, and re-persists through the same durable-write routine
//! ([`persist::persist`]) as the batch path.
//!
//! ## The equivalence invariant
//!
//! Streaming `N` windows one at a time is **bit-identical** to a batch
//! [`SequentialCalibrator::run_persisted`] over the same `N`-window
//! plan: same posterior ensembles, same log marginals, same counters,
//! and store records that are byte for byte the same — for every
//! resampling scheme, every thread shape, and every kill-point between
//! appends. A record holds no timing, so it is a pure function of the
//! run, not just equal after decoding. This is an identity, not an
//! approximation, because every window's RNG stream derives
//! independently from the master seed and the window index
//! (`from_stream(seed, [TAG_WINDOW, widx])`), so the posterior ensemble
//! is the *only* state a window inherits — and that ensemble is exactly
//! what the store records carry. `tests/streaming_equivalence.rs` pins
//! the invariant with `total_cmp`-exact comparisons.
//!
//! ## Persistence cadence
//!
//! The batch loop persists on the [`CheckpointPolicy`] cadence *plus*
//! the plan's final window. A stream has no final window, so it
//! persists strictly on cadence — with the default `every_windows = 1`
//! the two paths write identical record sets. For sparser cadences,
//! [`StreamingCalibrator::flush`] forces the newest window to disk (the
//! streaming analogue of the batch final-window write) so a stream can
//! always be parked durably.
//!
//! A stream writes inline, where the batch loop hands snapshots to a
//! background writer: an append returns only once its window is
//! durable, so there is no next window to overlap the write with. A
//! stream advanced over a whole plan is therefore also the synchronous
//! form of a persisted batch run — every window durable before the next
//! one starts — with bit-identical results and records.
//!
//! ## Fail-stop
//!
//! Like the pipelined writer, the stream is fail-stop: the first error
//! (simulation, degeneracy, or persistence) poisons the handle, every
//! later call returns [`SmcError::Persist`], and the store keeps the
//! durable prefix written before the fault. Reopen with
//! [`StreamingCalibrator::open`] to continue from the newest snapshot.

use crate::config::CheckpointPolicy;
use crate::error::SmcError;
use crate::particle::ParticleEnsemble;
use crate::persist::{self, ResumeReport, RunStore};
use crate::runner::ParallelRunner;
use crate::simulator::TrajectorySimulator;
use crate::sis::{ObservedData, ObservedSeries, Priors, SequentialCalibrator, WindowResult};
use crate::window::TimeWindow;

/// An open streaming calibration over a durable run store.
///
/// Create with [`Self::open`]; feed with [`Self::append_window`] (single
/// data source) or [`Self::ingest`] + [`Self::advance_window`]
/// (multi-source or custom window geometry); park with [`Self::flush`].
pub struct StreamingCalibrator<'a, S: TrajectorySimulator> {
    calibrator: SequentialCalibrator<'a, S>,
    priors: Priors,
    observed: ObservedData,
    store: &'a dyn RunStore,
    policy: CheckpointPolicy,
    runner: ParallelRunner,
    fingerprint: u64,
    /// The newest window result (plan window `next_window - 1`): the
    /// last one computed, or the snapshot a reopened stream restored.
    /// Older results are dropped, so the handle's memory does not grow
    /// with the stream.
    latest: Option<WindowResult>,
    /// Log evidence summed over every window this handle has seen,
    /// restored window included, in window order from `-0.0` — the
    /// identity `Iterator::sum` starts from, so the running sum matches
    /// summing the windows' log marginals bit for bit.
    total_log_marginal: f64,
    next_window: usize,
    /// Newest window index durably persisted by this handle (restored
    /// snapshots count: they are on disk by definition).
    last_persisted: Option<usize>,
    resume: Option<ResumeReport>,
    failed: bool,
}

impl<S: TrajectorySimulator> std::fmt::Debug for StreamingCalibrator<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingCalibrator")
            .field("fingerprint", &self.fingerprint)
            .field("next_window", &self.next_window)
            .field("last_persisted", &self.last_persisted)
            .field("failed", &self.failed)
            .finish_non_exhaustive()
    }
}

impl<'a, S: TrajectorySimulator> StreamingCalibrator<'a, S> {
    /// Open a stream over `store`: recover the newest decodable snapshot
    /// (corrupt or unsupported records are skipped and counted, exactly
    /// like [`SequentialCalibrator::resume_from`]) and validate it
    /// against this calibrator's seed, configuration fingerprint, and —
    /// when recorded — the observed data. An empty store opens a fresh
    /// stream starting at window 0.
    ///
    /// `observed` must already hold any days *before* the first window
    /// this stream will advance (e.g. the warm-up days a batch plan
    /// would skip); appended series extend it contiguously.
    ///
    /// # Errors
    /// [`SmcError::Config`] for an invalid policy or dimension mismatch,
    /// or a worker thread that cannot be spawned; [`SmcError::Persist`]
    /// when the newest snapshot belongs to a differently configured run
    /// or different observed data.
    pub fn open(
        calibrator: SequentialCalibrator<'a, S>,
        priors: Priors,
        observed: ObservedData,
        store: &'a dyn RunStore,
        policy: CheckpointPolicy,
    ) -> Result<Self, SmcError> {
        policy.validate()?;
        calibrator.validate_dims(&priors)?;
        // One runner — and one worker pool — for the life of the stream,
        // exactly like the batch loop's hoisted runner: every appended
        // window reuses it.
        let runner = ParallelRunner::new(calibrator.config().threads)?;
        let fingerprint = calibrator.fingerprint();
        let (snap, recoveries) = persist::recover_latest(store)?;
        let mut stream = Self {
            calibrator,
            priors,
            observed,
            store,
            policy,
            runner,
            fingerprint,
            latest: None,
            total_log_marginal: -0.0,
            next_window: 0,
            last_persisted: None,
            resume: None,
            failed: false,
        };
        let Some(snap) = snap else {
            return Ok(stream);
        };
        let widx = snap.window_index as usize;
        let restored = stream.calibrator.restore(snap, &stream.observed)?;
        stream.total_log_marginal += restored.log_marginal;
        stream.latest = Some(restored);
        stream.next_window = widx + 1;
        stream.last_persisted = Some(widx);
        stream.resume = Some(ResumeReport {
            resumed_window: widx as u32,
            recoveries,
        });
        Ok(stream)
    }

    /// How this stream rejoined its store: `Some` when [`Self::open`]
    /// restored a snapshot, `None` for a fresh stream.
    pub fn resume(&self) -> Option<&ResumeReport> {
        self.resume.as_ref()
    }

    /// Plan index of the next window [`Self::advance_window`] will
    /// compute.
    pub fn next_window_index(&self) -> usize {
        self.next_window
    }

    /// The newest window result as a slice of at most one entry (plan
    /// window `next_window_index() - 1`): empty until a window has been
    /// computed or restored. The handle keeps no older results; this
    /// slice form survives for callers that read `windows().last()`.
    pub fn windows(&self) -> &[WindowResult] {
        self.latest.as_slice()
    }

    /// The newest posterior ensemble, if any window has been computed or
    /// restored.
    pub fn latest_posterior(&self) -> Option<&ParticleEnsemble> {
        self.latest.as_ref().map(|r| &r.posterior)
    }

    /// Accumulated log evidence over the windows this handle has seen
    /// (restored window included).
    pub fn total_log_marginal(&self) -> f64 {
        self.total_log_marginal
    }

    /// Whether an earlier error fail-stopped this handle.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Append newly arrived days to data source `source` (0-based index
    /// into [`ObservedData::sources`]). The series must be contiguous
    /// with what that source already holds: `series.start_day` exactly
    /// one past the source's current end day (or anywhere, for a source
    /// with no data yet).
    ///
    /// Ingestion alone never computes anything — pair with
    /// [`Self::advance_window`], or use [`Self::append_window`] for the
    /// single-source case.
    ///
    /// # Errors
    /// [`SmcError::Observation`] for an unknown source, an empty series,
    /// a series whose last day lies past `u32::MAX`, or a gap/overlap
    /// with the existing data.
    pub fn ingest(&mut self, source: usize, series: &ObservedSeries) -> Result<(), SmcError> {
        let n_sources = self.observed.sources.len();
        let Some(target) = self.observed.sources.get_mut(source) else {
            return Err(SmcError::Observation(format!(
                "no data source {source} (the stream has {n_sources})"
            )));
        };
        last_day(series)?;
        if target.observed.values.is_empty() {
            target.observed.start_day = series.start_day;
        } else {
            let end = last_day(&target.observed)?;
            if end.checked_add(1) != Some(series.start_day) {
                return Err(SmcError::Observation(format!(
                    "source {source} ends at day {end}; appended series starts at day {} \
                     (must start the day after)",
                    series.start_day
                )));
            }
        }
        target.observed.values.extend_from_slice(&series.values);
        Ok(())
    }

    /// Advance the SIS pass over `window` as plan window
    /// [`Self::next_window_index`]: propose from the newest posterior
    /// (or the priors, for window 0), simulate/weight/resample on the
    /// stream's worker pool, run the configured rejuvenation kernel, and
    /// persist on the policy cadence. Bit-identical to the batch loop
    /// computing the same window index over the same data.
    ///
    /// # Errors
    /// Everything the batch window loop returns; any error fail-stops
    /// the handle (see the module docs).
    pub fn advance_window(&mut self, window: TimeWindow) -> Result<&WindowResult, SmcError> {
        self.guard()?;
        match self.try_advance(window) {
            Ok(()) => {
                // epilint: allow(panic-unwrap) — try_advance just stored this entry
                Ok(self.latest.as_ref().expect("window just advanced"))
            }
            Err(e) => {
                self.failed = true;
                Err(e)
            }
        }
    }

    /// Single-source convenience: ingest `series` (contiguity checked)
    /// and advance one window spanning exactly its days. Returns the
    /// window's result by clone, which is O(1): the result shares the
    /// handle's posterior through its one `Arc`.
    ///
    /// # Errors
    /// [`SmcError::Observation`] unless the stream has exactly one data
    /// source, plus everything [`Self::ingest`] and
    /// [`Self::advance_window`] return.
    pub fn append_window(&mut self, series: &ObservedSeries) -> Result<WindowResult, SmcError> {
        self.guard()?;
        if self.observed.sources.len() != 1 {
            return Err(SmcError::Observation(format!(
                "append_window requires exactly one data source (the stream has {}); \
                 use ingest + advance_window",
                self.observed.sources.len()
            )));
        }
        let window = TimeWindow::new(series.start_day, last_day(series)?);
        self.ingest(0, series)?;
        Ok(self.advance_window(window)?.clone())
    }

    /// Force the newest window to disk if it is not already durable —
    /// the streaming analogue of the batch loop's always-persist-final
    /// rule, for policies with `every_windows > 1`. A no-op when the
    /// newest window is already persisted (or nothing has been computed).
    ///
    /// # Errors
    /// [`SmcError::Persist`] on write failure (fail-stops the handle).
    pub fn flush(&mut self) -> Result<(), SmcError> {
        self.guard()?;
        let (Some(widx), Some(result)) = (self.next_window.checked_sub(1), self.latest.as_mut())
        else {
            return Ok(());
        };
        if self.last_persisted == Some(widx) {
            return Ok(());
        }
        let outcome = persist_one(
            &self.calibrator,
            self.fingerprint,
            &self.observed,
            self.store,
            &self.policy,
            widx,
            result,
        );
        match outcome {
            Ok(()) => {
                self.last_persisted = Some(widx);
                Ok(())
            }
            Err(e) => {
                self.failed = true;
                Err(e)
            }
        }
    }

    fn guard(&self) -> Result<(), SmcError> {
        if self.failed {
            return Err(SmcError::Persist(
                "streaming calibrator is fail-stopped after an earlier error; \
                 reopen from the store to continue"
                    .into(),
            ));
        }
        Ok(())
    }

    fn try_advance(&mut self, window: TimeWindow) -> Result<(), SmcError> {
        let widx = self.next_window;
        let prev = self.latest.as_ref().map(|r| &r.posterior);
        let mut result = self.calibrator.compute_window(
            &self.runner,
            &self.priors,
            &self.observed,
            window,
            widx,
            prev,
        )?;
        if (widx + 1).is_multiple_of(self.policy.every_windows) {
            persist_one(
                &self.calibrator,
                self.fingerprint,
                &self.observed,
                self.store,
                &self.policy,
                widx,
                &mut result,
            )?;
            self.last_persisted = Some(widx);
        }
        self.total_log_marginal += result.log_marginal;
        self.latest = Some(result);
        self.next_window = widx + 1;
        Ok(())
    }
}

/// The last day of a series that has one.
///
/// # Errors
/// [`SmcError::Observation`] for an empty series or one whose last day
/// would lie past `u32::MAX`.
fn last_day(series: &ObservedSeries) -> Result<u32, SmcError> {
    if series.values.is_empty() {
        return Err(SmcError::Observation(
            "cannot append an empty observed series".into(),
        ));
    }
    series.end_day().ok_or_else(|| {
        SmcError::Observation(format!(
            "a series of {} day(s) from day {} ends past the last representable day {}",
            series.values.len(),
            series.start_day,
            u32::MAX
        ))
    })
}

/// Persist one window's snapshot inline through [`persist::persist`]
/// (encode, put, then retention relative to the new record), timing the
/// whole write as the window's persist span — see the module docs.
fn persist_one<S: TrajectorySimulator>(
    calibrator: &SequentialCalibrator<'_, S>,
    fingerprint: u64,
    observed: &ObservedData,
    store: &dyn RunStore,
    policy: &CheckpointPolicy,
    widx: usize,
    result: &mut WindowResult,
) -> Result<(), SmcError> {
    // epilint: allow(wall-clock) — telemetry timing only; never feeds simulation state
    let persist_started = std::time::Instant::now();
    let snap = calibrator.snapshot_for(fingerprint, observed, widx, result);
    persist::persist(store, &snap, policy.retain)?;
    result.timings.persist = persist_started.elapsed();
    Ok(())
}
