//! Background snapshot persistence: a bounded, double-buffered writer
//! thread behind any [`RunStore`].
//!
//! The sequential calibrator's critical path is the window loop; a
//! persisted batch run hands each completed window's [`RunSnapshot`] to
//! a [`SnapshotWriter`] and starts the next window immediately, while
//! encode + CRC + atomic rename run off-thread. The handoff itself is
//! O(1): a [`crate::particle::ParticleEnsemble`] keeps its particles
//! behind one `Arc`, so cloning the posterior into the snapshot is one
//! reference-count bump, not a copy of the particle vector.
//!
//! Protocol invariants (relied on by `tests/async_durability.rs` and
//! documented in DESIGN.md §14):
//!
//! * **Bounded queue** — `sync_channel(QUEUE_DEPTH)` with depth 2: at
//!   most two snapshots queued behind the one being written, so the
//!   loop can run at most three windows ahead of durability and the
//!   memory bound is three snapshots. Depth 1 would already pipeline,
//!   but fsync latency is jittery: with a single slot every slow write
//!   stalls the loop and every fast one gives nothing back, while one
//!   extra slot lets a fast write absorb the next slow one. When the
//!   queue is full, [`SnapshotWriter::submit`] blocks; that wait is the
//!   *backpressure* component of the window's persist timing.
//! * **Write order** — snapshots are written in submission order, which
//!   is window order, so "newest durable snapshot" is always a prefix
//!   of the completed windows and resume semantics are unchanged.
//! * **Fail-stop** — after the first write error the writer drains and
//!   discards every later snapshot without touching the store. The
//!   error surfaces as a typed [`SmcError`] at the next handoff or at
//!   the final join, and the store holds exactly the windows written
//!   before the fault — the same durable prefix an inline writer (a
//!   [`crate::stream::StreamingCalibrator`]) killed at that write would
//!   leave.
//! * **Retention on the writer** — each write is one [`persist`] call
//!   (encode, put, then [`super::apply_retention_after`]), so deletes
//!   run on the writer thread, off the critical path too. Retention
//!   prunes relative to the record just written, so the newest durable
//!   record is never a retention casualty even when the store still
//!   holds stale higher-indexed corpses of an abandoned longer run.

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use crate::error::SmcError;

use super::{persist, RunSnapshot, RunStore};

/// Bounded handoff queue depth (snapshots queued behind the in-flight
/// write). See the module docs for why 2 and not 1.
const QUEUE_DEPTH: usize = 2;

/// The window loop's handle to the background writer thread.
///
/// Created inside a [`std::thread::scope`] so the writer can borrow the
/// caller's `&dyn RunStore` without reference counting; dropping the
/// handle closes the queue and the scope joins the thread.
pub struct SnapshotWriter<'scope> {
    tx: Option<mpsc::SyncSender<RunSnapshot>>,
    /// The writer's first write error, if it has failed.
    failure: mpsc::Receiver<SmcError>,
    handle: Option<thread::ScopedJoinHandle<'scope, ()>>,
}

impl<'scope> SnapshotWriter<'scope> {
    /// Spawn the writer thread on `scope`, writing to `store` and
    /// applying `retain` after each successful write.
    pub fn spawn<'env: 'scope>(
        scope: &'scope thread::Scope<'scope, 'env>,
        store: &'env dyn RunStore,
        retain: Option<usize>,
    ) -> Self {
        let (tx, rx) = mpsc::sync_channel::<RunSnapshot>(QUEUE_DEPTH);
        let (failure_tx, failure) = mpsc::channel::<SmcError>();
        let handle = scope.spawn(move || {
            let mut failed = false;
            for snap in rx {
                if failed {
                    // Fail-stop: drain (so the sender never blocks on a
                    // dead pipeline) but write nothing further.
                    continue;
                }
                if let Err(e) = persist(store, &snap, retain) {
                    failed = true;
                    if failure_tx.send(e).is_err() {
                        return; // calibrator gone; nothing left to report to
                    }
                }
            }
        });
        Self {
            tx: Some(tx),
            failure,
            handle: Some(handle),
        }
    }

    /// Hand one snapshot to the writer. Blocks only while the bounded
    /// queue is full, and returns that wait; surfaces the first
    /// background write error, if any, as `Err`.
    ///
    /// # Errors
    /// The writer's first write error ([`SmcError::Persist`] and
    /// friends), or [`SmcError::Persist`] if the writer thread is gone.
    pub fn submit(&mut self, snap: RunSnapshot) -> Result<Duration, SmcError> {
        self.check_failure()?;
        let Some(tx) = self.tx.as_ref() else {
            return Err(SmcError::Persist("snapshot writer already finished".into()));
        };
        // epilint: allow(wall-clock) — telemetry timing only; never feeds simulation state
        let submit_started = Instant::now();
        if tx.send(snap).is_err() {
            // The writer exited early; its parting error (if it managed
            // to send one) explains why.
            self.check_failure()?;
            return Err(SmcError::Persist(
                "snapshot writer thread exited before the handoff".into(),
            ));
        }
        Ok(submit_started.elapsed())
    }

    /// Close the queue, wait for every outstanding write, and return
    /// the join wait.
    ///
    /// # Errors
    /// The writer's first write error, or [`SmcError::Persist`] if the
    /// writer thread panicked.
    pub fn finish(mut self) -> Result<Duration, SmcError> {
        drop(self.tx.take());
        // epilint: allow(wall-clock) — telemetry timing only; never feeds simulation state
        let join_started = Instant::now();
        if let Some(handle) = self.handle.take() {
            if handle.join().is_err() {
                return Err(SmcError::Persist("snapshot writer thread panicked".into()));
            }
        }
        let joined = join_started.elapsed();
        self.check_failure()?;
        Ok(joined)
    }

    /// The writer's first write error, if it has reported one.
    fn check_failure(&self) -> Result<(), SmcError> {
        match self.failure.try_recv() {
            Ok(e) => Err(e),
            Err(_) => Ok(()),
        }
    }
}

impl Drop for SnapshotWriter<'_> {
    fn drop(&mut self) {
        // Close the queue so the writer thread exits; the enclosing
        // thread::scope joins it. Without this an early calibrator error
        // would deadlock the scope on a writer still waiting for jobs.
        self.tx.take();
    }
}
