//! Deterministic interleaving model of the persistent pool's
//! epoch-broadcast protocol (`crates/epismc/src/runner.rs`).
//!
//! Vendoring `loom` is too heavy for this workspace, so this suite does
//! the next-best loom-style thing: it transcribes the protocol —
//! `PoolShared::broadcast`, `worker_loop`, and `Pool::drop` — into
//! an explicit state machine and exhaustively explores **every**
//! interleaving of its critical sections with a DFS over cloned states.
//! Because all shared state in the real pool is guarded by one mutex and
//! every condvar wait sits in a while-loop re-checking its guard, the
//! only scheduling freedom is the order in which threads win the lock;
//! stepping whole critical sections atomically therefore covers the real
//! interleaving space at the protocol level. (The `Relaxed` claim cursor
//! and raw slab writes live *inside* a job and are covered separately:
//! by the `// ORDER:`/`// SAFETY:` arguments in the runner module, the
//! claim-uniqueness regression in `pool_lifecycle.rs`, and the Miri/TSan
//! CI jobs.)
//!
//! Transcription map (state machine ⇄ `crates/epismc/src/runner.rs`):
//!
//! | model step | real code |
//! |---|---|
//! | `WorkerStep::Idle` | `worker_loop`'s locked loop: shutdown check, epoch compare and job take, `work.wait` |
//! | `WorkerStep::Run` | `catch_unwind(.. (job.run)(job.ctx) ..)` outside the lock |
//! | `WorkerStep::Post` | re-lock: first-panic record, `running -= 1`, `done.notify_all` at zero |
//! | `SubmitterStep::Acquire` | `broadcast`: wait for the `job` slot, publish job+epoch+running, `work.notify_all` |
//! | `SubmitterStep::Drain` | `broadcast`: wait for `running == 0`, clear slot, take panic, `done.notify_all` |
//! | `ShutterStep` | `Pool::drop`: set `shutdown`, `work.notify_all`, join workers |
//!
//! Checked invariants, on every reachable state:
//! - `running` never underflows, and a claimed epoch always carries a job
//!   (so `worker_loop` never waits past an epoch it has not run);
//! - every worker runs every broadcast job exactly once per epoch;
//! - `broadcast` returns only after all workers finished its job;
//! - the panic slot is empty at publish time (no payload ever bleeds
//!   into a later broadcast), and a drained broadcast receives a payload
//!   iff one of its own workers panicked;
//! - no lost wakeups: the explorer never relies on spurious wakeups, so
//!   any quiescent non-terminal state is reported as a deadlock.
//!
//! The epoch is deliberately modeled as a *wrapping u8* so wraparound is
//! reachable in a handful of submits (the real u64 wraps identically,
//! just astronomically later).

use std::collections::HashSet;

type Epoch = u8;
type JobId = u8;

/// Scheduling-relevant pool state — the model's `PoolState`.
#[derive(Clone, Debug, Default, Hash, PartialEq, Eq)]
struct PoolSt {
    job: Option<JobId>,
    epoch: Epoch,
    running: usize,
    /// Worker id whose panic payload is stored (first writer wins).
    panic: Option<usize>,
    shutdown: bool,
}

#[derive(Clone, Debug, Hash, PartialEq, Eq)]
enum WorkerStep {
    /// Top of the locked loop: shutdown check / epoch compare / wait.
    Idle,
    /// Executing the claimed job outside the lock.
    Run(JobId),
    /// Re-locked: record panic, decrement `running`, notify at zero.
    Post(JobId, bool),
    Exited,
}

#[derive(Clone, Debug, Hash, PartialEq, Eq)]
struct Worker {
    seen: Epoch,
    step: WorkerStep,
}

#[derive(Clone, Debug, Hash, PartialEq, Eq)]
enum SubmitterStep {
    /// Waiting for the job slot, then publishing.
    Acquire,
    /// Waiting for the published job to drain.
    Drain,
    Done,
}

#[derive(Clone, Debug, Hash, PartialEq, Eq)]
struct Submitter {
    /// Globally-unique ids of the jobs this submitter broadcasts.
    jobs: Vec<JobId>,
    cur: usize,
    step: SubmitterStep,
}

#[derive(Clone, Debug, Hash, PartialEq, Eq)]
enum ShutterStep {
    /// Waiting for its trigger (see [`Shutdown`]).
    Armed,
    /// `shutdown` set; joining the workers.
    Join,
    Done,
}

/// When the modeled `Pool::drop` runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shutdown {
    /// No drop in this scenario; terminal = submitters done, workers
    /// parked on the `work` condvar.
    None,
    /// Drop after every submitter finished — the only shape the real
    /// API permits, since every grid call borrows a runner that keeps
    /// the pool alive.
    AfterSubmits,
    /// Drop racing a still-queued submitter — *forbidden* by the
    /// borrow discipline; the model proves it would deadlock, which is
    /// exactly why `broadcast` may assume no queued submitter survives
    /// shutdown.
    Concurrent,
}

#[derive(Clone, Debug)]
struct Scenario {
    workers: usize,
    /// Jobs per submitter; ids are assigned contiguously in order.
    submitters: Vec<usize>,
    /// `(job, worker)` pairs whose execution panics.
    panics: Vec<(JobId, usize)>,
    epoch0: Epoch,
    shutdown: Shutdown,
}

impl Scenario {
    fn total_jobs(&self) -> usize {
        self.submitters.iter().sum()
    }
}

/// One node in the interleaving graph. `runs`/`delivered` are history
/// needed by the invariant checks; including them in the hash key only
/// splits states whose observable outcomes differ.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
struct State {
    st: PoolSt,
    workers: Vec<Worker>,
    submitters: Vec<Submitter>,
    shutter: Option<ShutterStep>,
    /// Worker tids blocked on the `work` condvar.
    wait_work: Vec<usize>,
    /// Submitter tids blocked on the `done` condvar.
    wait_done: Vec<usize>,
    /// `runs[job][worker]`: executions of `job` by `worker`.
    runs: Vec<Vec<u8>>,
    /// Per submitter: the panic source delivered by each completed
    /// broadcast, in order.
    delivered: Vec<Vec<Option<usize>>>,
}

/// Thread ids: workers are `0..W`, submitters `W..W+S`, shutter `W+S`.
impl State {
    fn new(sc: &Scenario) -> State {
        let mut next_job = 0u8;
        let submitters = sc
            .submitters
            .iter()
            .map(|&n| {
                let jobs: Vec<JobId> = (0..n)
                    .map(|_| {
                        let j = next_job;
                        next_job += 1;
                        j
                    })
                    .collect();
                Submitter {
                    jobs,
                    cur: 0,
                    step: SubmitterStep::Acquire,
                }
            })
            .collect();
        State {
            st: PoolSt {
                epoch: sc.epoch0,
                ..PoolSt::default()
            },
            workers: (0..sc.workers)
                .map(|_| Worker {
                    seen: sc.epoch0,
                    step: WorkerStep::Idle,
                })
                .collect(),
            submitters,
            shutter: match sc.shutdown {
                Shutdown::None => None,
                _ => Some(ShutterStep::Armed),
            },
            wait_work: Vec::new(),
            wait_done: Vec::new(),
            runs: vec![vec![0; sc.workers]; sc.total_jobs()],
            delivered: vec![Vec::new(); sc.submitters.len()],
        }
    }

    fn all_submitters_done(&self) -> bool {
        self.submitters
            .iter()
            .all(|s| s.step == SubmitterStep::Done)
    }

    fn all_workers_exited(&self) -> bool {
        self.workers.iter().all(|w| w.step == WorkerStep::Exited)
    }

    fn shutter_trigger_met(&self, sc: &Scenario) -> bool {
        match sc.shutdown {
            Shutdown::None => false,
            Shutdown::AfterSubmits => self.all_submitters_done(),
            Shutdown::Concurrent => true,
        }
    }

    /// Threads that could win the state mutex next.
    fn runnable(&self, sc: &Scenario) -> Vec<usize> {
        let w = self.workers.len();
        let s = self.submitters.len();
        let mut out = Vec::new();
        for (i, worker) in self.workers.iter().enumerate() {
            if worker.step != WorkerStep::Exited && !self.wait_work.contains(&i) {
                out.push(i);
            }
        }
        for (i, sub) in self.submitters.iter().enumerate() {
            let tid = w + i;
            if sub.step != SubmitterStep::Done && !self.wait_done.contains(&tid) {
                out.push(tid);
            }
        }
        match &self.shutter {
            Some(ShutterStep::Armed) if self.shutter_trigger_met(sc) => out.push(w + s),
            // Join models `handle.join()`: runnable once the workers
            // can actually be joined.
            Some(ShutterStep::Join) if self.all_workers_exited() => out.push(w + s),
            _ => {}
        }
        out
    }

    fn wake_work(&mut self) {
        self.wait_work.clear();
    }

    fn wake_done(&mut self) {
        self.wait_done.clear();
    }

    /// Execute one critical section of thread `tid`.
    fn step(&mut self, tid: usize, sc: &Scenario) -> Result<(), String> {
        let w = self.workers.len();
        if tid < w {
            return self.step_worker(tid, sc);
        }
        if tid < w + self.submitters.len() {
            return self.step_submitter(tid - w, sc);
        }
        self.step_shutter();
        Ok(())
    }

    fn step_worker(&mut self, i: usize, sc: &Scenario) -> Result<(), String> {
        match self.workers[i].step.clone() {
            WorkerStep::Idle => {
                if self.st.shutdown {
                    self.workers[i].step = WorkerStep::Exited;
                } else if self.st.epoch != self.workers[i].seen {
                    self.workers[i].seen = self.st.epoch;
                    // worker_loop takes the job with the epoch: prove an
                    // unseen epoch never lacks one.
                    let job = self.st.job.ok_or_else(|| {
                        format!("worker {i}: epoch advanced without a job\n{self:?}")
                    })?;
                    self.workers[i].step = WorkerStep::Run(job);
                } else {
                    self.wait_work.push(i);
                    self.wait_work.sort_unstable();
                }
            }
            WorkerStep::Run(job) => {
                let cell = &mut self.runs[job as usize][i];
                *cell += 1;
                if *cell > 1 {
                    return Err(format!("worker {i} ran job {job} twice\n{self:?}"));
                }
                let panics = sc.panics.iter().any(|&(j, wk)| j == job && wk == i);
                self.workers[i].step = WorkerStep::Post(job, panics);
            }
            WorkerStep::Post(_, panicked) => {
                if panicked && self.st.panic.is_none() {
                    self.st.panic = Some(i);
                }
                if self.st.running == 0 {
                    return Err(format!("worker {i}: running underflow\n{self:?}"));
                }
                self.st.running -= 1;
                if self.st.running == 0 {
                    self.wake_done();
                }
                self.workers[i].step = WorkerStep::Idle;
            }
            WorkerStep::Exited => return Err(format!("worker {i} stepped after exit")),
        }
        Ok(())
    }

    fn step_submitter(&mut self, s: usize, sc: &Scenario) -> Result<(), String> {
        let tid = self.workers.len() + s;
        match self.submitters[s].step.clone() {
            SubmitterStep::Acquire => {
                if self.st.job.is_some() {
                    self.wait_done.push(tid);
                    self.wait_done.sort_unstable();
                    return Ok(());
                }
                if self.st.panic.is_some() {
                    return Err(format!(
                        "submitter {s}: stale panic at publish time\n{self:?}"
                    ));
                }
                let job = self.submitters[s].jobs[self.submitters[s].cur];
                self.st.job = Some(job);
                self.st.epoch = self.st.epoch.wrapping_add(1);
                self.st.running = sc.workers;
                self.wake_work();
                self.submitters[s].step = SubmitterStep::Drain;
            }
            SubmitterStep::Drain => {
                if self.st.running > 0 {
                    self.wait_done.push(tid);
                    self.wait_done.sort_unstable();
                    return Ok(());
                }
                let job = self.submitters[s].jobs[self.submitters[s].cur];
                // Broadcast returns only after every worker ran its job.
                for (wk, count) in self.runs[job as usize].iter().enumerate() {
                    if *count != 1 {
                        return Err(format!(
                            "broadcast of job {job} drained but worker {wk} ran it {count} times\n{self:?}"
                        ));
                    }
                }
                self.st.job = None;
                let payload = self.st.panic.take();
                // The delivered payload belongs to this very broadcast.
                let expected: Vec<usize> = sc
                    .panics
                    .iter()
                    .filter(|&&(j, _)| j == job)
                    .map(|&(_, wk)| wk)
                    .collect();
                match payload {
                    Some(wk) if !expected.contains(&wk) => {
                        return Err(format!(
                            "job {job} delivered a foreign panic from worker {wk}\n{self:?}"
                        ));
                    }
                    None if !expected.is_empty() => {
                        return Err(format!("job {job} lost its panic payload\n{self:?}"));
                    }
                    _ => {}
                }
                self.delivered[s].push(payload);
                self.wake_done();
                self.submitters[s].cur += 1;
                self.submitters[s].step = if self.submitters[s].cur == self.submitters[s].jobs.len()
                {
                    SubmitterStep::Done
                } else {
                    SubmitterStep::Acquire
                };
            }
            SubmitterStep::Done => return Err(format!("submitter {s} stepped after done")),
        }
        Ok(())
    }

    fn step_shutter(&mut self) {
        match self.shutter {
            Some(ShutterStep::Armed) => {
                self.st.shutdown = true;
                self.wake_work();
                self.shutter = Some(ShutterStep::Join);
            }
            Some(ShutterStep::Join) => {
                self.shutter = Some(ShutterStep::Done);
            }
            _ => {}
        }
    }

    fn is_terminal(&self, sc: &Scenario) -> bool {
        if !self.all_submitters_done() {
            return false;
        }
        match sc.shutdown {
            Shutdown::None => self.wait_work.len() == self.workers.len(),
            _ => self.shutter == Some(ShutterStep::Done) && self.all_workers_exited(),
        }
    }

    /// Invariants of a completed execution.
    fn check_final(&self, sc: &Scenario) -> Result<(), String> {
        for (job, per_worker) in self.runs.iter().enumerate() {
            for (wk, count) in per_worker.iter().enumerate() {
                if *count != 1 {
                    return Err(format!(
                        "terminal state: job {job} ran {count} times on worker {wk}\n{self:?}"
                    ));
                }
            }
        }
        if self.st.job.is_some() || self.st.panic.is_some() || self.st.running != 0 {
            return Err(format!("terminal state left residue\n{self:?}"));
        }
        let _ = sc;
        Ok(())
    }
}

/// Exhaustive-exploration summary.
#[derive(Debug)]
struct Report {
    states: usize,
    terminals: usize,
    deadlocks: usize,
    sample_deadlock: Option<String>,
}

/// DFS over every interleaving of critical sections, deduplicating
/// identical states. Returns `Err` on any invariant violation, with the
/// offending state attached.
fn explore(sc: &Scenario) -> Result<Report, String> {
    let init = State::new(sc);
    let mut visited: HashSet<State> = HashSet::new();
    visited.insert(init.clone());
    let mut stack = vec![init];
    let mut terminals = 0usize;
    let mut deadlocks = 0usize;
    let mut sample_deadlock = None;
    while let Some(state) = stack.pop() {
        let runnable = state.runnable(sc);
        if runnable.is_empty() {
            if state.is_terminal(sc) {
                state.check_final(sc)?;
                terminals += 1;
            } else {
                deadlocks += 1;
                sample_deadlock.get_or_insert_with(|| format!("{state:?}"));
            }
            continue;
        }
        for tid in runnable {
            let mut next = state.clone();
            next.step(tid, sc)?;
            if visited.insert(next.clone()) {
                stack.push(next);
            }
        }
    }
    Ok(Report {
        states: visited.len(),
        terminals,
        deadlocks,
        sample_deadlock,
    })
}

fn assert_clean(sc: Scenario) -> Report {
    let label = format!("{sc:?}");
    let report = explore(&sc).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert!(
        report.deadlocks == 0,
        "{label}: deadlock reachable:\n{}",
        report.sample_deadlock.as_deref().unwrap_or("")
    );
    assert!(report.terminals > 0, "{label}: no terminal state reached");
    report
}

#[test]
fn broadcast_drains_completely_across_all_interleavings() {
    for workers in 1..=3 {
        for jobs in 1..=2 {
            let report = assert_clean(Scenario {
                workers,
                submitters: vec![jobs],
                panics: vec![],
                epoch0: 0,
                shutdown: Shutdown::None,
            });
            // The explorer actually explored something nontrivial.
            assert!(report.states > workers, "{report:?}");
        }
    }
}

#[test]
fn concurrent_submitters_serialize_on_the_job_slot() {
    // Two submitters race for the slot; every interleaving must drain
    // each broadcast fully (exactly-once per worker) with no deadlock
    // on the shared `done` condvar (queued submitters and drain-waiters
    // share it).
    for submitters in [vec![1, 1], vec![2, 1], vec![2, 2]] {
        assert_clean(Scenario {
            workers: 2,
            submitters,
            panics: vec![],
            epoch0: 0,
            shutdown: Shutdown::None,
        });
    }
}

#[test]
fn epoch_wraparound_is_invisible_to_the_protocol() {
    // The epoch counter is a wrapping u8 here (u64 in the real pool);
    // starting at the top makes several submits cross the wrap. A
    // worker can never sleep through a whole epoch (each epoch requires
    // every worker's decrement before the next publish), so `seen`
    // aliasing is impossible — which is exactly what exhaustive
    // exploration confirms.
    for epoch0 in [253u8, 254, 255] {
        assert_clean(Scenario {
            workers: 2,
            submitters: vec![3],
            panics: vec![],
            epoch0,
            shutdown: Shutdown::None,
        });
    }
}

#[test]
fn panic_is_delivered_to_its_own_broadcast_only() {
    // Worker 1 panics in job 0; job 1 must complete clean. The step
    // assertions prove: payload delivered to the panicking broadcast,
    // never leaked into the next, pool reusable afterwards.
    let report = assert_clean(Scenario {
        workers: 2,
        submitters: vec![2],
        panics: vec![(0, 1)],
        epoch0: 0,
        shutdown: Shutdown::None,
    });
    assert!(report.states > 10, "{report:?}");
}

#[test]
fn first_panic_wins_when_several_workers_panic() {
    // All workers panic in the same epoch: exactly one payload (the
    // first Post to win the lock) is stored and delivered; the rest are
    // dropped, matching catch_unwind-payload semantics in worker_loop.
    assert_clean(Scenario {
        workers: 3,
        submitters: vec![1],
        panics: vec![(0, 0), (0, 1), (0, 2)],
        epoch0: 0,
        shutdown: Shutdown::None,
    });
}

#[test]
fn panic_then_clean_job_across_submitters() {
    assert_clean(Scenario {
        workers: 2,
        submitters: vec![1, 1],
        panics: vec![(0, 0)],
        epoch0: 0,
        shutdown: Shutdown::None,
    });
}

#[test]
fn shutdown_after_drain_joins_every_worker() {
    // Pool::drop after the last grid call returned: every
    // interleaving of the shutdown broadcast must wake all parked
    // workers (no lost wakeup) and join them.
    for workers in 1..=3 {
        for jobs in [1, 2] {
            assert_clean(Scenario {
                workers,
                submitters: vec![jobs],
                panics: vec![],
                epoch0: 0,
                shutdown: Shutdown::AfterSubmits,
            });
        }
    }
}

#[test]
fn shutdown_after_panicky_run_still_joins() {
    assert_clean(Scenario {
        workers: 2,
        submitters: vec![2],
        panics: vec![(1, 0)],
        epoch0: 0,
        shutdown: Shutdown::AfterSubmits,
    });
}

#[test]
fn shutdown_racing_a_queued_submitter_deadlocks_in_the_model() {
    // A drop racing a not-yet-published broadcast: once `shutdown` is
    // set, workers exit without touching any later-published job, so
    // the submitter waits on `running > 0` forever. The model MUST find
    // this deadlock — it is the reason every grid call borrowing a
    // runner that owns the pool (making drop-while-queued
    // unrepresentable in safe code) is load-bearing, and it proves the
    // explorer has teeth.
    let sc = Scenario {
        workers: 2,
        submitters: vec![1],
        panics: vec![],
        epoch0: 0,
        shutdown: Shutdown::Concurrent,
    };
    let report = explore(&sc).unwrap_or_else(|e| panic!("{e}"));
    assert!(
        report.deadlocks > 0,
        "expected the drop-vs-queued-submitter deadlock to be reachable: {report:?}"
    );
    // Interleavings where the submitter published first still complete.
    assert!(report.terminals > 0, "{report:?}");
}
