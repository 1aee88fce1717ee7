//! Full-state checkpointing with parameter-overriding restarts.
//!
//! The paper (Section III-B) makes checkpointing a first-class citizen of
//! the inference loop: the sequential calibrator stores each posterior
//! particle's exact simulator state at a window boundary and later
//! *restarts it with new parameter values*, branching a fresh trajectory
//! without replaying history. Because `episim` keeps all dwell-time
//! memory in Erlang stage counts, a checkpoint is exactly
//! `(day, stage_counts, rng_state)` — compact, exact, and cheap.
//!
//! One compact binary encoding ([`SimCheckpoint::append_bytes`] /
//! [`SimCheckpoint::from_bytes`]) frames many checkpoints in one buffer
//! for the durable run store; it round-trips bit-exactly.

use epistats::rng::Xoshiro256PlusPlus;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::engine::CompiledSpec;
use crate::error::SimError;
use crate::spec::ModelSpec;
use crate::state::SimState;

/// Process-wide count of [`SimCheckpoint`] deep clones.
static DEEP_CLONES: AtomicU64 = AtomicU64::new(0);

/// Total `SimCheckpoint::clone` calls since process start. Each clone
/// duplicates the full `stage_counts` buffer; inference code is expected
/// to share checkpoints behind `Arc` instead, so a calibration's
/// resample/jitter path should leave this counter untouched — the
/// counting test in `epismc` asserts exactly that.
pub fn deep_clone_count() -> u64 {
    DEEP_CLONES.load(Ordering::Relaxed)
}

/// Magic bytes heading the binary encoding.
const MAGIC: u32 = 0x4550_4953; // "EPIS"
/// Binary format version.
const VERSION: u16 = 1;

/// A serialized simulation state, restorable onto a compatible model.
#[derive(Debug, PartialEq)]
pub struct SimCheckpoint {
    /// Fingerprint of the model layout this state belongs to (compartment
    /// names and stage structure). Restoring onto a model with a
    /// different layout is rejected.
    pub layout_hash: u64,
    /// Simulated day at capture time.
    pub day: u32,
    /// Flattened Erlang stage occupancies.
    pub stage_counts: Vec<u64>,
    /// RNG state at capture time.
    pub rng_state: [u64; 4],
}

impl Clone for SimCheckpoint {
    /// Deep copy, counted by [`deep_clone_count`]. Hot paths should
    /// share checkpoints behind `Arc` (one heap buffer for any number of
    /// resampled siblings) and reserve `clone` for code that genuinely
    /// needs an independent mutable copy.
    fn clone(&self) -> Self {
        DEEP_CLONES.fetch_add(1, Ordering::Relaxed);
        Self {
            layout_hash: self.layout_hash,
            day: self.day,
            stage_counts: self.stage_counts.clone(),
            rng_state: self.rng_state,
        }
    }
}

/// FNV-1a hash of the model layout (names, stage counts) — parameter
/// *values* are deliberately excluded so a restart may change them.
pub fn layout_hash(spec: &ModelSpec) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut absorb = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for c in &spec.compartments {
        absorb(c.name.as_bytes());
        absorb(&c.stages.to_le_bytes());
    }
    h
}

impl SimCheckpoint {
    /// Capture the current state of a run.
    pub fn capture(spec: &ModelSpec, state: &SimState) -> Self {
        Self::capture_hashed(layout_hash(spec), state)
    }

    /// [`Self::capture`] under a compiled model, reading the layout hash
    /// it compiled once instead of rehashing every compartment name.
    pub(crate) fn capture_compiled(model: &CompiledSpec, state: &SimState) -> Self {
        Self::capture_hashed(model.layout_hash(), state)
    }

    fn capture_hashed(layout_hash: u64, state: &SimState) -> Self {
        Self {
            layout_hash,
            day: state.day,
            stage_counts: state.stage_counts.clone(),
            rng_state: state.rng.state(),
        }
    }

    /// Restore to a live state under the given (possibly re-parameterized)
    /// spec.
    ///
    /// # Errors
    /// Returns [`SimError::Checkpoint`] if the spec's layout differs from
    /// the one the checkpoint was captured under.
    pub fn restore(&self, spec: &ModelSpec) -> Result<SimState, SimError> {
        self.validate_layout(spec, layout_hash(spec))?;
        Ok(SimState {
            day: self.day,
            time: self.day as f64,
            stage_counts: self.stage_counts.clone(),
            rng: Xoshiro256PlusPlus::from_state(self.rng_state),
        })
    }

    /// Restore with a *fresh RNG stream* instead of the captured one —
    /// the paper's trajectory-branching restart (new random seed,
    /// Section III-B item 1).
    ///
    /// # Errors
    /// Same layout checks as [`Self::restore`].
    pub fn restore_with_seed(&self, spec: &ModelSpec, seed: u64) -> Result<SimState, SimError> {
        let mut st = self.restore(spec)?;
        st.rng = Xoshiro256PlusPlus::new(seed);
        Ok(st)
    }

    /// Restore *into* an existing state, reusing its `stage_counts`
    /// allocation — the pooled-workspace variant of [`Self::restore`].
    ///
    /// # Errors
    /// Same layout checks as [`Self::restore`]; on error `state` is left
    /// unmodified.
    pub fn restore_into(&self, spec: &ModelSpec, state: &mut SimState) -> Result<(), SimError> {
        self.restore_into_hashed(spec, layout_hash(spec), state)
    }

    fn restore_into_hashed(
        &self,
        spec: &ModelSpec,
        layout: u64,
        state: &mut SimState,
    ) -> Result<(), SimError> {
        self.validate_layout(spec, layout)?;
        state.day = self.day;
        state.time = self.day as f64;
        state.stage_counts.clone_from(&self.stage_counts);
        state.rng = Xoshiro256PlusPlus::from_state(self.rng_state);
        Ok(())
    }

    /// Restore into an existing state with a fresh RNG stream — the
    /// in-place variant of [`Self::restore_with_seed`].
    ///
    /// # Errors
    /// Same layout checks as [`Self::restore`]; on error `state` is left
    /// unmodified.
    pub fn restore_into_with_seed(
        &self,
        spec: &ModelSpec,
        state: &mut SimState,
        seed: u64,
    ) -> Result<(), SimError> {
        self.restore_into(spec, state)?;
        state.rng = Xoshiro256PlusPlus::new(seed);
        Ok(())
    }

    /// [`Self::restore_into_with_seed`] under a compiled model, checking
    /// against the layout hash it compiled once.
    pub(crate) fn restore_compiled_with_seed(
        &self,
        model: &CompiledSpec,
        state: &mut SimState,
        seed: u64,
    ) -> Result<(), SimError> {
        self.restore_into_hashed(&model.spec, model.layout_hash(), state)?;
        state.rng = Xoshiro256PlusPlus::new(seed);
        Ok(())
    }

    /// Shared layout/length validation for the restore family, against
    /// `spec` and its layout hash `layout`.
    fn validate_layout(&self, spec: &ModelSpec, layout: u64) -> Result<(), SimError> {
        if layout != self.layout_hash {
            return Err(SimError::Checkpoint(format!(
                "layout mismatch for model '{}': captured under a different compartment structure",
                spec.name
            )));
        }
        if self.stage_counts.len() != spec.total_stages() {
            return Err(SimError::Checkpoint("stage-count length mismatch".into()));
        }
        Ok(())
    }

    /// Append the compact binary encoding to `out` — the path for
    /// writers that frame many checkpoints in one buffer.
    pub fn append_bytes(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len());
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.layout_hash.to_le_bytes());
        out.extend_from_slice(&self.day.to_le_bytes());
        out.extend_from_slice(&(self.stage_counts.len() as u32).to_le_bytes());
        for &c in self.stage_counts.iter().chain(&self.rng_state) {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }

    /// Decode the binary encoding from the front of `data`; bytes past
    /// [`Self::encoded_len`] are left unread.
    ///
    /// # Errors
    /// Returns [`SimError::Checkpoint`] on truncation, bad magic, or an
    /// unknown version.
    pub fn from_bytes(data: &[u8]) -> Result<Self, SimError> {
        let Some((header, body)) = data.split_first_chunk::<22>() else {
            return Err(SimError::Checkpoint("truncated header".into()));
        };
        // The little-endian header field of `len` bytes at `at`.
        let field = |at: usize, len: usize| {
            let mut word = [0u8; 8];
            word[..len].copy_from_slice(&header[at..at + len]);
            u64::from_le_bytes(word)
        };
        if field(0, 4) != u64::from(MAGIC) {
            return Err(SimError::Checkpoint("bad magic".into()));
        }
        let version = field(4, 2);
        if version != u64::from(VERSION) {
            return Err(SimError::Checkpoint(format!(
                "unsupported version {version}"
            )));
        }
        let n = field(18, 4) as usize;
        let (words, _) = body.as_chunks::<8>();
        if words.len() < n + 4 {
            return Err(SimError::Checkpoint("truncated body".into()));
        }
        Ok(Self {
            layout_hash: field(6, 8),
            day: field(14, 4) as u32,
            stage_counts: words[..n].iter().map(|w| u64::from_le_bytes(*w)).collect(),
            rng_state: std::array::from_fn(|i| u64::from_le_bytes(words[n + i])),
        })
    }

    /// Size of the binary encoding in bytes.
    pub fn encoded_len(&self) -> usize {
        22 + 8 * (self.stage_counts.len() + 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Compartment, FlowSpec, Infection, Progression};

    fn spec() -> ModelSpec {
        ModelSpec {
            name: "ck".into(),
            compartments: vec![
                Compartment::simple("S"),
                Compartment::new("I", 2, 1.0),
                Compartment::simple("R"),
            ],
            progressions: vec![Progression {
                from: 1,
                mean_dwell: 5.0,
                branches: vec![(2, 1.0)],
            }],
            infections: vec![Infection::simple(0, 1)],
            transmission_rate: 0.3,
            flows: vec![FlowSpec {
                name: "inf".into(),
                edges: vec![(0, 1)],
            }],
            censuses: vec![],
        }
    }

    fn state(spec: &ModelSpec) -> SimState {
        let mut st = SimState::empty(spec, 99);
        st.seed_compartment(spec, 0, 1_000);
        st.seed_compartment(spec, 1, 10);
        st.day = 14;
        st.time = 14.0;
        st.rng.next();
        st
    }

    #[test]
    fn capture_restore_round_trip() {
        let sp = spec();
        let st = state(&sp);
        let ck = SimCheckpoint::capture(&sp, &st);
        let restored = ck.restore(&sp).unwrap();
        assert_eq!(restored, st);
    }

    #[test]
    fn binary_round_trip() {
        let sp = spec();
        let ck = SimCheckpoint::capture(&sp, &state(&sp));
        let mut bytes = Vec::new();
        ck.append_bytes(&mut bytes);
        assert_eq!(bytes.len(), ck.encoded_len());
        let back = SimCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn restore_allows_new_parameters_same_layout() {
        let sp = spec();
        let ck = SimCheckpoint::capture(&sp, &state(&sp));
        let mut sp2 = spec();
        sp2.transmission_rate = 0.9; // parameter change: allowed
        sp2.progressions[0].mean_dwell = 3.0; // also a parameter
        assert!(ck.restore(&sp2).is_ok());
    }

    #[test]
    fn restore_rejects_layout_change() {
        let sp = spec();
        let ck = SimCheckpoint::capture(&sp, &state(&sp));
        let mut sp2 = spec();
        sp2.compartments[1].stages = 3; // layout change: rejected
        assert!(ck.restore(&sp2).is_err());
        let mut sp3 = spec();
        sp3.compartments[1].name = "J".into();
        assert!(ck.restore(&sp3).is_err());
    }

    #[test]
    fn restore_with_seed_changes_future_not_state() {
        let sp = spec();
        let st = state(&sp);
        let ck = SimCheckpoint::capture(&sp, &st);
        let a = ck.restore_with_seed(&sp, 1).unwrap();
        let b = ck.restore_with_seed(&sp, 2).unwrap();
        assert_eq!(a.stage_counts, b.stage_counts);
        assert_eq!(a.day, b.day);
        assert_ne!(a.rng, b.rng);
    }

    #[test]
    fn clone_advances_deep_clone_counter() {
        let sp = spec();
        let ck = SimCheckpoint::capture(&sp, &state(&sp));
        // Other tests in this binary may clone concurrently, so assert a
        // lower bound on the delta rather than an exact value.
        let before = deep_clone_count();
        let copy = ck.clone();
        assert_eq!(copy, ck);
        assert!(deep_clone_count() > before);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(SimCheckpoint::from_bytes(&[]).is_err());
        assert!(SimCheckpoint::from_bytes(&[0u8; 40]).is_err());
        let sp = spec();
        let ck = SimCheckpoint::capture(&sp, &state(&sp));
        let mut bytes = Vec::new();
        ck.append_bytes(&mut bytes);
        assert!(SimCheckpoint::from_bytes(&bytes[..bytes.len() - 4]).is_err());
    }
}
