//! Shared checkpoint interning — the zero-copy checkpoint pool.
//!
//! A `SimCheckpoint` owns its full `stage_counts` buffer, so an owned
//! checkpoint per particle deep-copies that buffer for every resampled
//! duplicate and every jittered proposal continued from the same
//! ancestor. Mirroring `SharedTrajectory`'s structural sharing, inference
//! code holds checkpoints behind [`Arc`] instead: resampling and proposal
//! fan-out are `Arc` bumps, and restoring onto a pooled `SimState` is
//! copy-on-write via `SimCheckpoint::restore_into` — the checkpoint is
//! never mutated, the pooled state's buffers are overwritten in place, so
//! no serialization round-trip or deep clone happens between windows.
//!
//! This module is the **only** place in `epismc` allowed to encode or
//! decode a checkpoint, and no code in `epismc` deep-copies one (both
//! enforced by the `checkpoint-clone` epilint rule); everything else
//! goes through [`SharedCheckpoint`].

use crate::ptr_index::PtrIndex;
use episim::checkpoint::SimCheckpoint;
use std::sync::Arc;

/// A structurally shared, immutable simulator checkpoint. Cloning is an
/// `Arc` reference-count bump; the underlying state buffer is allocated
/// once, when the checkpoint is captured.
pub type SharedCheckpoint = Arc<SimCheckpoint>;

/// Intern a freshly captured checkpoint for sharing. Each capture enters
/// the pool exactly once; every resampled or continued particle that
/// descends from it then aliases this allocation.
pub fn share(ck: SimCheckpoint) -> SharedCheckpoint {
    Arc::new(ck)
}

/// Append a shared checkpoint's compact binary form to `out` — the
/// durability layer's sanctioned byte path, writing straight into the
/// record being built. Interned checkpoints are encoded once per
/// allocation by the persist format (deduplicated by [`Arc::as_ptr`]),
/// so this never runs per resampled duplicate.
pub fn encode_into(ck: &SharedCheckpoint, out: &mut Vec<u8>) {
    // epilint: allow(checkpoint-clone) — the interning module's sanctioned serialization path
    ck.append_bytes(out);
}

/// Decode a checkpoint from [`encode_into`]'s binary form. The caller interns
/// the result with [`share`] so all restored references alias one
/// allocation.
///
/// # Errors
/// Returns [`episim::error::SimError::Checkpoint`] on truncated or
/// malformed bytes.
pub fn decode(data: &[u8]) -> Result<SimCheckpoint, episim::error::SimError> {
    // epilint: allow(checkpoint-clone) — the interning module's sanctioned deserialization path
    SimCheckpoint::from_bytes(data)
}

/// Sharing statistics over a set of checkpoint references: how many
/// distinct allocations back them and how many references point at them.
/// Deterministic (identity is the shared allocation, independent of
/// scheduling), so it is safe for golden telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointSharing {
    /// Distinct checkpoint allocations.
    pub unique: usize,
    /// Total references observed (≥ `unique`).
    pub refs: usize,
}

/// Measure sharing over checkpoint references, each given with the
/// number of references it stands for (e.g. every distinct resampled
/// particle's `checkpoint` and `origin`, weighted by its draw count).
pub fn sharing<'a, I>(refs: I) -> CheckpointSharing
where
    I: IntoIterator<Item = (&'a SharedCheckpoint, usize)>,
{
    let refs = refs.into_iter();
    let mut ids = PtrIndex::with_capacity(refs.size_hint().0);
    let mut total = 0usize;
    for (ck, n) in refs {
        ids.intern(Arc::as_ptr(ck) as usize);
        total += n;
    }
    CheckpointSharing {
        unique: ids.len(),
        refs: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use episim::spec::{Compartment, FlowSpec, Infection, ModelSpec, Progression};
    use episim::state::SimState;

    fn checkpoint(seed: u64) -> SimCheckpoint {
        let spec = ModelSpec {
            name: "ckpool".into(),
            compartments: vec![Compartment::simple("S"), Compartment::new("I", 1, 1.0)],
            progressions: vec![Progression {
                from: 1,
                mean_dwell: 1.0,
                branches: vec![(0, 1.0)],
            }],
            infections: vec![Infection::simple(0, 1)],
            transmission_rate: 0.2,
            flows: vec![FlowSpec {
                name: "x".into(),
                edges: vec![],
            }],
            censuses: vec![],
        };
        SimCheckpoint::capture(&spec, &SimState::empty(&spec, seed))
    }

    #[test]
    fn sharing_counts_distinct_allocations() {
        let a = share(checkpoint(1));
        let b = share(checkpoint(2));
        let dup = Arc::clone(&a);
        let s = sharing([(&a, 1), (&b, 1), (&dup, 1), (&a, 1)]);
        assert_eq!(s.unique, 2);
        assert_eq!(s.refs, 4);
        // Weighted references count their multiplicity.
        let s = sharing([(&a, 3), (&b, 5), (&dup, 2)]);
        assert_eq!((s.unique, s.refs), (2, 10));
        assert_eq!(sharing(std::iter::empty()), CheckpointSharing::default());
    }

    #[test]
    fn arc_clone_is_not_a_deep_clone() {
        let a = share(checkpoint(3));
        let before = episim::checkpoint::deep_clone_count();
        let _dup = Arc::clone(&a);
        let _dup2 = a.clone();
        assert_eq!(episim::checkpoint::deep_clone_count(), before);
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let a = share(checkpoint(5));
        // Appending keeps what the buffer already holds.
        let mut bytes = vec![0xAB];
        encode_into(&a, &mut bytes);
        assert_eq!(bytes[0], 0xAB);
        let bytes = bytes.split_off(1);
        assert_eq!(bytes.len(), a.encoded_len());
        let back = decode(&bytes).unwrap();
        assert_eq!(&back, &*a);
        assert!(decode(&bytes[..bytes.len() - 3]).is_err());
        assert!(decode(&[]).is_err());
    }
}
