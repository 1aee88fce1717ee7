//! Deterministic fault injection for the durability layer.
//!
//! [`FaultStore`] wraps any [`RunStore`] and fails the configured i-th
//! write with a chosen failure mode. Faults are **crash-style**: each
//! applies its on-disk effect (nothing, a truncated record, a
//! bit-flipped record, a vanished rename) and then returns an error,
//! modeling a process killed during that write. "Fault at write k" is
//! therefore exactly "run killed after window k", which is what lets one
//! harness drive both the kill/resume bit-identity matrix and the
//! corruption-recovery matrix.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::SmcError;

use super::RunStore;

/// A failure mode applied to one write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The write fails outright; nothing reaches the inner store (e.g.
    /// disk full before the temp file was durable).
    FailWrite,
    /// The write completes durably, then the process dies before the
    /// calibrator observes success (killed between the rename and the
    /// acknowledgement — the "flushed" kill point of a background
    /// writer): the full record lands *and* the error surfaces.
    CrashAfterWrite,
    /// Only the first `keep` bytes of the record land (torn write on a
    /// non-atomic medium).
    Truncate {
        /// Bytes of the record that survive.
        keep: usize,
    },
    /// The full record lands with one byte XOR-ed by `mask` (silent
    /// media corruption; the CRC must catch it).
    FlipByte {
        /// Byte offset to corrupt (clamped into the record).
        offset: usize,
        /// XOR mask; a zero mask is promoted to `0x01` so the byte
        /// always actually changes.
        mask: u8,
    },
    /// The rename never happened: the record vanishes entirely (the
    /// stale temp file a [`super::DirStore`] sweeps on the next open).
    TornRename,
}

/// Which writes fail and how: a deterministic write-index → fault map.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    faults: std::collections::BTreeMap<usize, Fault>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Fail the `write`-th put (0-based) with `fault`.
    pub fn fail_write_at(write: usize, fault: Fault) -> Self {
        Self::none().and_fail_write_at(write, fault)
    }

    /// Add another faulted write to the plan.
    #[must_use]
    pub fn and_fail_write_at(mut self, write: usize, fault: Fault) -> Self {
        self.faults.insert(write, fault);
        self
    }

    /// The fault for the `write`-th put, if any.
    pub fn fault_for(&self, write: usize) -> Option<Fault> {
        self.faults.get(&write).copied()
    }
}

/// A [`RunStore`] decorator that injects the plan's faults. Reads,
/// listing, and deletion pass through untouched — only writes fail.
pub struct FaultStore<'a> {
    inner: &'a dyn RunStore,
    plan: FaultPlan,
    writes: AtomicUsize,
}

impl<'a> FaultStore<'a> {
    /// Wrap `inner`, failing writes per `plan`.
    pub fn new(inner: &'a dyn RunStore, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            writes: AtomicUsize::new(0),
        }
    }
}

impl RunStore for FaultStore<'_> {
    fn put(&self, window: u32, record: &[u8]) -> Result<(), SmcError> {
        let write = self.writes.fetch_add(1, Ordering::SeqCst);
        let Some(fault) = self.plan.fault_for(write) else {
            return self.inner.put(window, record);
        };
        match fault {
            Fault::FailWrite => {}
            Fault::CrashAfterWrite => {
                self.inner.put(window, record)?;
            }
            Fault::Truncate { keep } => {
                let keep = keep.min(record.len());
                self.inner.put(window, &record[..keep])?;
            }
            Fault::FlipByte { offset, mask } => {
                let mut bad = record.to_vec();
                if let Some(byte) = bad.get_mut(offset.min(record.len().saturating_sub(1))) {
                    *byte ^= if mask == 0 { 0x01 } else { mask };
                }
                self.inner.put(window, &bad)?;
            }
            Fault::TornRename => {
                // The record never materialized; make sure no older
                // version lingers either (rename target overwritten by
                // nothing is modeled as the record being absent).
                self.inner.delete(window)?;
            }
        }
        Err(SmcError::Persist(format!(
            "injected fault at write {write} (window {window}): {fault:?}"
        )))
    }

    fn get(&self, window: u32) -> Result<Option<Vec<u8>>, SmcError> {
        self.inner.get(window)
    }

    fn list(&self) -> Result<Vec<u32>, SmcError> {
        self.inner.list()
    }

    fn delete(&self, window: u32) -> Result<(), SmcError> {
        self.inner.delete(window)
    }
}

#[cfg(test)]
mod tests {
    use super::super::MemStore;
    use super::*;

    #[test]
    fn faults_fire_at_the_planned_write_only() {
        let mem = MemStore::new();
        let store = FaultStore::new(&mem, FaultPlan::fail_write_at(1, Fault::FailWrite));
        store.put(0, b"first").unwrap();
        let err = store.put(1, b"second").unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        store.put(2, b"third").unwrap();
        assert_eq!(mem.list().unwrap(), vec![0, 2]);
    }

    #[test]
    fn truncate_and_flip_leave_damaged_bytes_behind() {
        let mem = MemStore::new();
        let store = FaultStore::new(
            &mem,
            FaultPlan::fail_write_at(0, Fault::Truncate { keep: 3 })
                .and_fail_write_at(1, Fault::FlipByte { offset: 1, mask: 0 }),
        );
        assert!(store.put(0, b"abcdef").is_err());
        assert_eq!(mem.get(0).unwrap().as_deref(), Some(&b"abc"[..]));
        assert!(store.put(1, b"xyz").is_err());
        // Zero mask is promoted to 0x01: 'y' ^ 0x01 == 'x'.
        assert_eq!(mem.get(1).unwrap().as_deref(), Some(&b"xxz"[..]));
    }

    #[test]
    fn crash_after_write_lands_the_record_and_still_errors() {
        let mem = MemStore::new();
        let store = FaultStore::new(&mem, FaultPlan::fail_write_at(0, Fault::CrashAfterWrite));
        let err = store.put(5, b"durable").unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert_eq!(mem.get(5).unwrap().as_deref(), Some(&b"durable"[..]));
    }

    #[test]
    fn torn_rename_erases_even_a_prior_record() {
        let mem = MemStore::new();
        mem.put(0, b"old version").unwrap();
        let store = FaultStore::new(&mem, FaultPlan::fail_write_at(0, Fault::TornRename));
        assert!(store.put(0, b"new version").is_err());
        assert_eq!(mem.get(0).unwrap(), None);
    }
}
