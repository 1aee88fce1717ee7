//! Traced wrappers over the program's public extension traits. Each
//! forwards every trait method to the real implementation and records
//! one span per call; the untraced run uses the real types directly.

use episim::checkpoint::SimCheckpoint;
use episim::output::DailySeries;
use episim::workspace::SimWorkspace;
use epismc_core::error::SmcError;
use epismc_core::persist::RunStore;
use epismc_core::simulator::TrajectorySimulator;

use crate::trace::{self, Kind};

type SimOutput = Result<(DailySeries, SimCheckpoint), SmcError>;

/// A [`TrajectorySimulator`] recording a [`Kind::SimFresh`] or
/// [`Kind::SimFrom`] span per call, tagged with the call's end day (which
/// names the window it belongs to) and the days it simulates.
pub struct TracedSimulator<S> {
    inner: S,
}

impl<S> TracedSimulator<S> {
    pub fn new(inner: S) -> Self {
        Self { inner }
    }
}

fn timed(kind: Kind, end_day: u32, days: u32, call: impl FnOnce() -> SimOutput) -> SimOutput {
    let start = trace::now();
    let out = call();
    trace::record(kind, start, trace::now(), end_day, u64::from(days));
    out
}

impl<S: TrajectorySimulator> TrajectorySimulator for TracedSimulator<S> {
    fn theta_dim(&self) -> usize {
        self.inner.theta_dim()
    }

    fn output_names(&self) -> Vec<String> {
        self.inner.output_names()
    }

    fn run_fresh(&self, theta: &[f64], seed: u64, end_day: u32) -> SimOutput {
        timed(Kind::SimFresh, end_day, end_day, || {
            self.inner.run_fresh(theta, seed, end_day)
        })
    }

    fn run_from(
        &self,
        checkpoint: &SimCheckpoint,
        theta: &[f64],
        seed: u64,
        end_day: u32,
    ) -> SimOutput {
        let days = end_day.saturating_sub(checkpoint.day);
        timed(Kind::SimFrom, end_day, days, || {
            self.inner.run_from(checkpoint, theta, seed, end_day)
        })
    }

    fn run_fresh_in(
        &self,
        ws: &mut SimWorkspace,
        theta: &[f64],
        seed: u64,
        end_day: u32,
    ) -> SimOutput {
        timed(Kind::SimFresh, end_day, end_day, || {
            self.inner.run_fresh_in(ws, theta, seed, end_day)
        })
    }

    fn run_from_in(
        &self,
        ws: &mut SimWorkspace,
        checkpoint: &SimCheckpoint,
        theta: &[f64],
        seed: u64,
        end_day: u32,
    ) -> SimOutput {
        let days = end_day.saturating_sub(checkpoint.day);
        timed(Kind::SimFrom, end_day, days, || {
            self.inner.run_from_in(ws, checkpoint, theta, seed, end_day)
        })
    }
}

/// A [`RunStore`] recording one span per call.
pub struct TracedStore<T> {
    inner: T,
}

impl<T> TracedStore<T> {
    pub fn new(inner: T) -> Self {
        Self { inner }
    }

    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: RunStore> RunStore for TracedStore<T> {
    fn put(&self, window: u32, record: &[u8]) -> Result<(), SmcError> {
        let start = trace::now();
        let out = self.inner.put(window, record);
        trace::record(Kind::Put, start, trace::now(), window, record.len() as u64);
        out
    }

    fn get(&self, window: u32) -> Result<Option<Vec<u8>>, SmcError> {
        let start = trace::now();
        let out = self.inner.get(window);
        let bytes = out
            .as_ref()
            .ok()
            .and_then(|r| r.as_ref())
            .map_or(0, Vec::len);
        trace::record(Kind::Get, start, trace::now(), window, bytes as u64);
        out
    }

    fn list(&self) -> Result<Vec<u32>, SmcError> {
        let start = trace::now();
        let out = self.inner.list();
        let listed = out.as_ref().map_or(0, Vec::len);
        trace::record(Kind::List, start, trace::now(), 0, listed as u64);
        out
    }

    fn delete(&self, window: u32) -> Result<(), SmcError> {
        let start = trace::now();
        let out = self.inner.delete(window);
        trace::record(Kind::Delete, start, trace::now(), window, 0);
        out
    }
}
