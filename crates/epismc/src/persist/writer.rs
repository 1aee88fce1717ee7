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
//!   *backpressure* component reported as `persist_nanos`.
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

use crate::error::SmcError;

use super::{persist, RunSnapshot, RunStore};

/// Bounded handoff queue depth (snapshots queued behind the in-flight
/// write). See the module docs for why 2 and not 1.
const QUEUE_DEPTH: usize = 2;

/// Acknowledgement of one completed background write.
#[derive(Clone, Copy, Debug)]
pub struct WriteReceipt {
    /// Window index the record was keyed by.
    pub window_index: u32,
    /// Nanoseconds the writer spent encoding (serialize + CRC) the
    /// record, off the critical path. Retro-patched into the window's
    /// `encode_nanos` telemetry by the calibrator.
    pub encode_nanos: u64,
}

/// What one handoff (or the final join) observed.
#[derive(Clone, Debug, Default)]
pub struct Handoff {
    /// Nanoseconds the window loop blocked: waiting for queue capacity
    /// on submit, or for the writer to finish on the final join.
    pub blocked_nanos: u64,
    /// Writes that completed in the background since the last handoff.
    pub receipts: Vec<WriteReceipt>,
}

enum Event {
    Done(WriteReceipt),
    Failed(SmcError),
}

/// The window loop's handle to the background writer thread.
///
/// Created inside a [`std::thread::scope`] so the writer can borrow the
/// caller's `&dyn RunStore` without reference counting; dropping the
/// handle closes the queue and the scope joins the thread.
pub struct SnapshotWriter<'scope> {
    tx: Option<mpsc::SyncSender<RunSnapshot>>,
    events: mpsc::Receiver<Event>,
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
        let (event_tx, events) = mpsc::channel::<Event>();
        let handle = scope.spawn(move || {
            let mut failed = false;
            for snap in rx {
                if failed {
                    // Fail-stop: drain (so the sender never blocks on a
                    // dead pipeline) but write nothing further.
                    continue;
                }
                let event = match persist(store, &snap, retain) {
                    Ok(encode_nanos) => Event::Done(WriteReceipt {
                        window_index: snap.window_index,
                        encode_nanos,
                    }),
                    Err(e) => {
                        failed = true;
                        Event::Failed(e)
                    }
                };
                if event_tx.send(event).is_err() {
                    return; // calibrator gone; nothing left to report to
                }
            }
        });
        Self {
            tx: Some(tx),
            events,
            handle: Some(handle),
        }
    }

    /// Hand one snapshot to the writer. Blocks only while the bounded
    /// queue is full (that wait is returned as `blocked_nanos`), and
    /// surfaces the first background write error, if any, as `Err`.
    ///
    /// # Errors
    /// The writer's first write error ([`SmcError::Persist`] and
    /// friends), or [`SmcError::Persist`] if the writer thread is gone.
    pub fn submit(&mut self, snap: RunSnapshot) -> Result<Handoff, SmcError> {
        let receipts = self.drain_events()?;
        let Some(tx) = self.tx.as_ref() else {
            return Err(SmcError::Persist("snapshot writer already finished".into()));
        };
        // epilint: allow(wall-clock) — telemetry timing only; never feeds simulation state
        let submit_started = std::time::Instant::now();
        if tx.send(snap).is_err() {
            // The writer exited early; its parting error (if it managed
            // to send one) explains why.
            self.drain_events()?;
            return Err(SmcError::Persist(
                "snapshot writer thread exited before the handoff".into(),
            ));
        }
        Ok(Handoff {
            blocked_nanos: submit_started.elapsed().as_nanos() as u64,
            receipts,
        })
    }

    /// Close the queue, wait for every outstanding write, and report
    /// the remaining receipts plus the join wait.
    ///
    /// # Errors
    /// The writer's first write error, or [`SmcError::Persist`] if the
    /// writer thread panicked.
    pub fn finish(mut self) -> Result<Handoff, SmcError> {
        drop(self.tx.take());
        // epilint: allow(wall-clock) — telemetry timing only; never feeds simulation state
        let join_started = std::time::Instant::now();
        if let Some(handle) = self.handle.take() {
            if handle.join().is_err() {
                return Err(SmcError::Persist("snapshot writer thread panicked".into()));
            }
        }
        let blocked_nanos = join_started.elapsed().as_nanos() as u64;
        let receipts = self.drain_events()?;
        Ok(Handoff {
            blocked_nanos,
            receipts,
        })
    }

    fn drain_events(&mut self) -> Result<Vec<WriteReceipt>, SmcError> {
        let mut receipts = Vec::new();
        for event in self.events.try_iter() {
            match event {
                Event::Done(receipt) => receipts.push(receipt),
                Event::Failed(e) => return Err(e),
            }
        }
        Ok(receipts)
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
