//! Durable run store and crash recovery for sequential calibration.
//!
//! The paper's checkpointing machinery (Section III) serializes full
//! simulator state so a run can restart mid-campaign; this module extends
//! that durability to the *calibration* level. After each window the
//! sequential calibrator can snapshot its complete state — the posterior
//! particle ensemble (thetas, log weights, structurally shared
//! trajectories and `SimCheckpoint`s), the window scalars, and the
//! window's deterministic counters — into one versioned, checksummed
//! record (see [`mod@format`]) keyed by window index in a [`RunStore`].
//! The record holds no timing, so it is a pure function of the run.
//!
//! Because every window derives its RNG stream independently from the
//! master seed (`from_stream(seed, [TAG_WINDOW, widx])`), the posterior
//! ensemble is the *only* state carried across windows: restoring it
//! bit-exactly makes a killed-and-resumed run bit-identical to the
//! uninterrupted one, at any thread count. That guarantee is enforced by
//! `tests/durability_resume.rs`; the recovery paths are exercised by the
//! deterministic fault-injection harness in [`fault`].
//!
//! Store implementations:
//! * [`DirStore`] — one file per record, atomic tmp-file + fsync +
//!   rename writes.
//! * [`MemStore`] — in-memory `BTreeMap`, for tests and ephemeral runs.
//! * [`FaultStore`] — deterministic fault injection wrapping any store.
//!
//! Every durable write is one [`persist`] call: encode, put, then
//! retention relative to the record just written. The batch loop makes
//! that call on the background [`SnapshotWriter`] ([`writer`]), which
//! preserves write order and the durable-prefix guarantee while taking
//! encode + fsync off the window loop's critical path; a stream's
//! appends ([`crate::stream`]) make it inline.

pub mod dir;
pub mod fault;
pub mod format;
pub mod memory;
pub mod writer;

pub use dir::DirStore;
pub use fault::{Fault, FaultPlan, FaultStore};
pub use memory::MemStore;
pub use writer::SnapshotWriter;

use crate::config::CalibrationConfig;
use crate::error::SmcError;
use crate::particle::ParticleEnsemble;
use crate::prior::JitterKernel;
use crate::sis::{ObservedData, WindowCounters};
use crate::window::TimeWindow;

/// Keyed record storage for calibration snapshots. Implementations use
/// interior mutability so a store can be shared behind `&dyn RunStore`;
/// writes must be atomic (a torn write must surface as a missing or
/// checksum-failing record, never as a half-new half-old one the decoder
/// accepts).
pub trait RunStore: Send + Sync {
    /// Write (or replace) the record for `window`.
    ///
    /// # Errors
    /// [`SmcError::Persist`] on storage failure.
    fn put(&self, window: u32, record: &[u8]) -> Result<(), SmcError>;

    /// Read the record for `window` (`None` when absent).
    ///
    /// # Errors
    /// [`SmcError::Persist`] on storage failure.
    fn get(&self, window: u32) -> Result<Option<Vec<u8>>, SmcError>;

    /// Window indices with stored records, ascending.
    ///
    /// # Errors
    /// [`SmcError::Persist`] on storage failure.
    fn list(&self) -> Result<Vec<u32>, SmcError>;

    /// Delete the record for `window` (absent records are not an error).
    ///
    /// # Errors
    /// [`SmcError::Persist`] on storage failure.
    fn delete(&self, window: u32) -> Result<(), SmcError>;
}

/// Complete calibration state after one window — everything needed to
/// rebuild the window's result and continue the run bit-identically.
#[derive(Clone, Debug)]
pub struct RunSnapshot {
    /// Master seed of the run (resume validates it matches).
    pub seed: u64,
    /// Configuration fingerprint ([`run_fingerprint`]); resume refuses a
    /// snapshot from a differently configured run.
    pub fingerprint: u64,
    /// 0-based index of the completed window within the plan.
    pub window_index: u32,
    /// The scored window.
    pub window: TimeWindow,
    /// Effective sample size before resampling.
    pub ess: f64,
    /// Log marginal likelihood estimate of the window.
    pub log_marginal: f64,
    /// Distinct candidates surviving the resampling step.
    pub unique_ancestors: u64,
    /// Fingerprint of the observed data slice this window was scored
    /// against ([`observed_fingerprint`]); `0` means "not recorded"
    /// (the observed data did not cover the window when the snapshot
    /// was built) and skips the check. Streaming opens and resumes
    /// validate it, so a snapshot cannot silently continue a run
    /// against different surveillance data.
    pub observed_fingerprint: u64,
    /// The window's deterministic counters.
    pub telemetry: WindowCounters,
    /// The resampled posterior ensemble, sharing structure intact.
    pub posterior: ParticleEnsemble,
}

/// How a resumed calibration rejoined its run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResumeReport {
    /// 0-based index of the window restored from the store.
    pub resumed_window: u32,
    /// Records that had to be skipped during recovery because they were
    /// missing or failed validation (corruption tolerated, counted).
    pub recoveries: usize,
}

/// The one durable write: encode `snap`, put it under its window index,
/// then — when `retain` is set — prune with [`apply_retention_after`]
/// relative to the record just written. The order is what keeps the
/// newest durable record safe: retention only ever runs after the put
/// succeeded, and never deletes the record it follows.
///
/// # Errors
/// [`SmcError::Persist`] on storage failure.
pub fn persist(
    store: &dyn RunStore,
    snap: &RunSnapshot,
    retain: Option<usize>,
) -> Result<(), SmcError> {
    store.put(snap.window_index, &format::encode_record(snap))?;
    if let Some(keep) = retain {
        apply_retention_after(store, keep, snap.window_index)?;
    }
    Ok(())
}

/// Read and decode the snapshot for one window (`None` when absent).
///
/// # Errors
/// Storage failures ([`SmcError::Persist`]) and decode failures
/// ([`SmcError::Corrupt`] / [`SmcError::UnsupportedFormat`]).
pub fn load(store: &dyn RunStore, window: u32) -> Result<Option<RunSnapshot>, SmcError> {
    match store.get(window)? {
        None => Ok(None),
        Some(raw) => format::decode_record(&raw).map(Some),
    }
}

/// Scan the store newest-first and return the latest snapshot that
/// decodes cleanly, together with the number of records skipped along the
/// way (missing, corrupt, or unsupported — each counted as one recovery).
/// Returns `(None, skipped)` when no record is usable.
///
/// # Errors
/// Only storage-level failures propagate; undecodable records are
/// *skipped*, not fatal — that is the recovery path.
pub fn recover_latest(store: &dyn RunStore) -> Result<(Option<RunSnapshot>, usize), SmcError> {
    let mut windows = store.list()?;
    windows.sort_unstable();
    let mut skipped = 0usize;
    for &w in windows.iter().rev() {
        let raw = match store.get(w)? {
            Some(raw) => raw,
            None => {
                skipped += 1;
                continue;
            }
        };
        match format::decode_record(&raw) {
            Ok(snap) => return Ok((Some(snap), skipped)),
            Err(SmcError::Corrupt(_)) | Err(SmcError::UnsupportedFormat(_)) => {
                skipped += 1;
            }
            Err(e) => return Err(e),
        }
    }
    Ok((None, skipped))
}

/// Retention relative to the record just written at index `written`:
/// first delete every record *above* `written` (the run only moves
/// forward, so anything there is a superseded leftover of an earlier,
/// longer incarnation — possibly torn), then keep the newest `retain`
/// of the rest. The `written` record is always among the survivors, so
/// retention can never delete the newest durable state mid-append.
///
/// Index-blind retention (keep the newest `retain` of everything) lacks
/// that guarantee: a stream resuming *before* a stale higher-indexed
/// record would count the corpse toward `retain` and could delete the
/// record it just wrote, leaving only the corpse — total data loss on
/// the next recovery.
///
/// # Errors
/// [`SmcError::Persist`] on storage failure.
pub fn apply_retention_after(
    store: &dyn RunStore,
    retain: usize,
    written: u32,
) -> Result<(), SmcError> {
    let mut windows = store.list()?;
    windows.sort_unstable();
    for &w in windows.iter().filter(|&&w| w > written) {
        store.delete(w)?;
    }
    let live: Vec<u32> = windows.into_iter().filter(|&w| w <= written).collect();
    let excess = live.len().saturating_sub(retain.max(1));
    for &w in live.iter().take(excess) {
        store.delete(w)?;
    }
    Ok(())
}

/// Deterministic fingerprint of the observed data over one window: the
/// source count, then per source the series name bytes, the `Debug`
/// forms of its bias model and likelihood (every parameter they score
/// with, e.g. the bias mode and σ), the window bounds, and the bit
/// pattern of every observed value inside the window. Returns `None`
/// when any source does not cover the window (no score can have been
/// computed there). Never returns `Some(0)`: zero is reserved as the
/// snapshot's "not recorded" sentinel.
pub fn observed_fingerprint(observed: &ObservedData, window: TimeWindow) -> Option<u64> {
    let mut h = FNV_OFFSET;
    h = fnv1a(h, 0x4F42_5346); // "OBSF" domain separator
    h = fnv1a(h, observed.sources.len() as u64);
    for source in &observed.sources {
        let scoring = format!("{:?}{:?}", source.bias, source.likelihood);
        for text in [source.series.as_str(), scoring.as_str()] {
            h = fnv1a(h, text.len() as u64);
            for b in text.bytes() {
                h = fnv1a(h, u64::from(b));
            }
        }
        h = fnv1a(h, u64::from(window.start));
        h = fnv1a(h, u64::from(window.end));
        let values = source.observed.window(window.start, window.end)?;
        for v in values {
            h = fnv1a(h, v.to_bits());
        }
    }
    Some(if h == 0 { 1 } else { h })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, word: u64) -> u64 {
    let mut h = hash;
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Deterministic fingerprint of the configuration knobs that shape
/// calibration *results*: a snapshot written under one fingerprint can
/// only resume a run with the same one. The scheduling knob `threads`
/// and `keep_prior_ensemble` are deliberately excluded — results are
/// bit-identical across them, so resuming on a different machine shape
/// is legal. The observation model (bias mode, σ) lives on each data
/// source and is fingerprinted with the data by
/// [`observed_fingerprint`].
pub fn run_fingerprint(
    config: &CalibrationConfig,
    jitter_theta: &[JitterKernel],
    jitter_rho: &JitterKernel,
) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv1a(h, config.n_params as u64);
    h = fnv1a(h, config.n_replicates as u64);
    h = fnv1a(h, config.resample_size as u64);
    h = fnv1a(h, config.seed);
    // The resampling scheme shapes results, so it is part of the
    // fingerprint — but the default (Multinomial) is skipped entirely,
    // keeping records persisted before the menu existed resumable.
    if config.resample != crate::config::ResampleScheme::Multinomial {
        h = fnv1a(h, 0x5245_5341); // "RESA" domain separator
        h = fnv1a(h, config.resample.fingerprint_tag());
    }
    // Same skip-the-default pattern for the rejuvenation kernel: a PMMH
    // move pass reshapes every posterior, so its parameters are part of
    // the fingerprint, while the default uniform-jitter kernel leaves
    // records persisted before the menu existed resumable.
    if let crate::config::RejuvenationKernel::Pmmh(pmmh) = &config.rejuvenation {
        h = fnv1a(h, 0x504D_4D48); // "PMMH" domain separator
        h = fnv1a(h, pmmh.moves as u64);
        h = fnv1a(h, pmmh.scale.map_or(0, f64::to_bits));
        h = fnv1a(h, pmmh.shrinkage.to_bits());
        h = fnv1a(h, pmmh.floor.to_bits());
    }
    h = fnv1a(h, jitter_theta.len() as u64);
    for k in jitter_theta.iter().chain(std::iter::once(jitter_rho)) {
        h = fnv1a(h, k.down.to_bits());
        h = fnv1a(h, k.up.to_bits());
        h = fnv1a(h, k.lo.to_bits());
        h = fnv1a(h, k.hi.to_bits());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(down: f64, up: f64) -> JitterKernel {
        JitterKernel {
            down,
            up,
            lo: 0.0,
            hi: 1.0,
        }
    }

    #[test]
    fn fingerprint_tracks_result_shaping_knobs_only() {
        let cfg = CalibrationConfig::default();
        let jt = vec![kernel(0.01, 0.01)];
        let jr = kernel(0.02, 0.05);
        let base = run_fingerprint(&cfg, &jt, &jr);
        assert_eq!(base, run_fingerprint(&cfg, &jt, &jr));

        let mut threads = cfg.clone();
        threads.threads = Some(4);
        threads.keep_prior_ensemble = true;
        assert_eq!(base, run_fingerprint(&threads, &jt, &jr));

        let mut seeded = cfg.clone();
        seeded.seed ^= 1;
        assert_ne!(base, run_fingerprint(&seeded, &jt, &jr));

        let wider = vec![kernel(0.02, 0.01)];
        assert_ne!(base, run_fingerprint(&cfg, &wider, &jr));

        // The resampling scheme shapes results; every non-default
        // variant gets its own fingerprint.
        use crate::config::ResampleScheme;
        let mut seen = vec![base];
        for scheme in [
            ResampleScheme::Systematic,
            ResampleScheme::Stratified,
            ResampleScheme::Residual,
        ] {
            let mut alt = cfg.clone();
            alt.resample = scheme;
            let fp = run_fingerprint(&alt, &jt, &jr);
            assert!(!seen.contains(&fp), "fingerprint collision for {scheme:?}");
            seen.push(fp);
        }

        // The rejuvenation kernel shapes results too: the default
        // uniform jitter is skipped (old records resume), PMMH and each
        // of its parameters fingerprint distinctly.
        use crate::config::{PmmhConfig, RejuvenationKernel};
        let mut pmmh = cfg.clone();
        pmmh.rejuvenation = RejuvenationKernel::Pmmh(PmmhConfig::default());
        let pmmh_fp = run_fingerprint(&pmmh, &jt, &jr);
        assert_ne!(base, pmmh_fp);
        let mut more_moves = pmmh.clone();
        more_moves.rejuvenation = RejuvenationKernel::Pmmh(PmmhConfig {
            moves: 5,
            ..PmmhConfig::default()
        });
        assert_ne!(pmmh_fp, run_fingerprint(&more_moves, &jt, &jr));
    }

    #[test]
    fn retention_after_write_preserves_the_written_record() {
        // The mid-append data-loss scenario: a stale (possibly torn)
        // record from an abandoned longer run sits *above* the window
        // just written. Index-blind retention would count it toward the
        // budget and delete the fresh record; the written-relative form
        // must delete the corpse and keep what was just put.
        let store = MemStore::new();
        store.put(1, b"older good").unwrap();
        store.put(3, b"stale corpse of a longer run").unwrap();
        store.put(2, b"just written").unwrap();
        apply_retention_after(&store, 1, 2).unwrap();
        assert_eq!(store.list().unwrap(), vec![2]);

        // Without stale futures it prunes to the newest `retain`.
        let plain = MemStore::new();
        for w in 0..5u32 {
            plain.put(w, &[w as u8]).unwrap();
            apply_retention_after(&plain, 2, w).unwrap();
        }
        assert_eq!(plain.list().unwrap(), vec![3, 4]);
        // Pruning a store that already holds the newest N at once, and
        // retaining more than exists (a no-op).
        let full = MemStore::new();
        for w in 0..5u32 {
            full.put(w, &[w as u8]).unwrap();
        }
        apply_retention_after(&full, 2, 4).unwrap();
        assert_eq!(full.list().unwrap(), vec![3, 4]);
        apply_retention_after(&full, 10, 4).unwrap();
        assert_eq!(full.list().unwrap(), vec![3, 4]);

        // retain = 0 is clamped: the written record always survives.
        let clamped = MemStore::new();
        clamped.put(7, b"written").unwrap();
        apply_retention_after(&clamped, 0, 7).unwrap();
        assert_eq!(clamped.list().unwrap(), vec![7]);
    }

    #[test]
    fn observed_fingerprint_tracks_data_and_window() {
        let data = ObservedData::cases_only(vec![1.0, 2.0, 3.0, 4.0]);
        let w = TimeWindow::new(2, 3);
        let base = observed_fingerprint(&data, w).unwrap();
        assert_ne!(base, 0);
        assert_eq!(base, observed_fingerprint(&data, w).unwrap());

        // Different values, different window, or uncovered window all
        // change (or void) the fingerprint.
        let other = ObservedData::cases_only(vec![1.0, 2.5, 3.0, 4.0]);
        assert_ne!(base, observed_fingerprint(&other, w).unwrap());
        assert_ne!(
            base,
            observed_fingerprint(&data, TimeWindow::new(2, 4)).unwrap()
        );
        assert!(observed_fingerprint(&data, TimeWindow::new(2, 9)).is_none());

        // So does the observation model the data are scored under.
        use crate::observation::BiasMode;
        for scored in [
            ObservedData::cases_only_with(vec![1.0, 2.0, 3.0, 4.0], BiasMode::Sampled, 2.0),
            ObservedData::cases_only_with(vec![1.0, 2.0, 3.0, 4.0], BiasMode::Mean, 1.0),
        ] {
            assert_ne!(base, observed_fingerprint(&scored, w).unwrap());
        }
    }

    #[test]
    fn recover_latest_skips_undecodable_records() {
        let store = MemStore::new();
        store.put(3, b"garbage that is not a record").unwrap();
        let (snap, skipped) = recover_latest(&store).unwrap();
        assert!(snap.is_none());
        assert_eq!(skipped, 1);
        let empty = MemStore::new();
        let (snap, skipped) = recover_latest(&empty).unwrap();
        assert!(snap.is_none());
        assert_eq!(skipped, 0);
    }
}
