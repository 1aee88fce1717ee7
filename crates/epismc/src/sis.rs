//! Sequential importance sampling calibration (paper Sections IV-B/IV-C).
//!
//! [`SingleWindowIs`] is Algorithm 1: sample `(theta, rho)` from the
//! prior, run `n_replicates` seeded simulations per tuple (common random
//! numbers across tuples), weight every trajectory by the likelihood of
//! the observed window, and resample with replacement proportional to
//! the weights.
//!
//! [`SequentialCalibrator`] is the outer loop: the posterior particles of
//! window `m-1` — *including their checkpointed simulator states* — are
//! jittered by uniform kernels and continued through window `m`, weighted
//! by the incremental likelihood of the new data only (the conditional
//! decomposition of Section IV-C.2). This is what the paper's
//! checkpointing machinery buys: window `m` costs only window-`m`
//! simulation days, never a replay from day zero.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use epistats::logweight::log_mean_exp;
use epistats::rng::{StreamKey, Xoshiro256PlusPlus};
use epistats::summary::ess;

use crate::ckpool;
use crate::config::{CalibrationConfig, CheckpointPolicy};
use crate::error::SmcError;
use crate::likelihood::{GaussianSqrtLikelihood, Likelihood};
use crate::observation::{BiasMode, BiasModel, BinomialBias, IdentityBias};
use crate::particle::{Particle, ParticleEnsemble};
use crate::persist::{self, ResumeReport, RunSnapshot, RunStore, SnapshotWriter};
use crate::prior::{JitterKernel, Prior};
use crate::runner::ParallelRunner;
use crate::simulator::{PooledWorkspace, TrajectorySimulator, WorkspaceStats};
use crate::window::{TimeWindow, WindowPlan};

use episim::output::SharedTrajectory;

/// Stream-derivation tags (arbitrary distinct constants).
const TAG_SIM_SEED: u64 = 0x5EED_0001;
const TAG_BIAS: u64 = 0xB1A5_0002;
const TAG_WINDOW: u64 = 0xA11D_0003;

/// An observed data series aligned to absolute simulation days:
/// `values[i]` is the observation for day `start_day + i`.
#[derive(Clone, Debug, PartialEq)]
pub struct ObservedSeries {
    /// Day of the first observation.
    pub start_day: u32,
    /// Daily observed values.
    pub values: Vec<f64>,
}

impl ObservedSeries {
    /// A series starting at day 1 (the usual case: observations from the
    /// epidemic's first simulated day).
    pub fn from_day_one(values: Vec<f64>) -> Self {
        Self {
            start_day: 1,
            values,
        }
    }

    /// The slice covering absolute days `[lo, hi]`, if fully observed.
    pub fn window(&self, lo: u32, hi: u32) -> Option<&[f64]> {
        if lo < self.start_day || hi < lo {
            return None;
        }
        let a = (lo - self.start_day) as usize;
        let b = (hi - self.start_day) as usize;
        if b >= self.values.len() {
            return None;
        }
        Some(&self.values[a..=b])
    }

    /// Last observed day, or `None` for an empty series or one whose
    /// last day would lie past `u32::MAX` (unchecked, an empty series
    /// underflowed here and an overlong one overflowed: a panic in debug
    /// builds, a wrapped day in release).
    pub fn end_day(&self) -> Option<u32> {
        let last = u32::try_from(self.values.len().checked_sub(1)?).ok()?;
        self.start_day.checked_add(last)
    }
}

/// One empirical data stream: which simulator output it observes, the
/// data themselves, and the bias/likelihood pair linking them.
pub struct DataSource {
    /// Simulator output series name (e.g. `"infections"`, `"deaths"`).
    pub series: String,
    /// The observed data.
    pub observed: ObservedSeries,
    /// Measurement-bias model mapping true counts to the observed scale.
    pub bias: Arc<dyn BiasModel>,
    /// Likelihood comparing observed to bias-transformed simulated counts.
    pub likelihood: Arc<dyn Likelihood>,
}

/// The full observed dataset: one or more sources scored jointly
/// (independent product likelihood, Equation 4).
pub struct ObservedData {
    /// The data sources.
    pub sources: Vec<DataSource>,
}

impl ObservedData {
    /// Paper configuration for Section V-B: reported case counts only,
    /// binomially thinned, Gaussian sqrt-scale likelihood with
    /// `sigma = 1`.
    pub fn cases_only(cases: Vec<f64>) -> Self {
        Self::cases_only_with(cases, BiasMode::Sampled, 1.0)
    }

    /// Cases-only with explicit bias mode and likelihood sigma.
    pub fn cases_only_with(cases: Vec<f64>, mode: BiasMode, sigma: f64) -> Self {
        Self {
            sources: vec![DataSource {
                series: "infections".into(),
                observed: ObservedSeries::from_day_one(cases),
                bias: Arc::new(BinomialBias { mode }),
                likelihood: Arc::new(GaussianSqrtLikelihood::new(sigma)),
            }],
        }
    }

    /// Paper configuration for Section V-C: cases (binomial bias) plus
    /// deaths (no bias), both Gaussian on the sqrt scale.
    pub fn cases_and_deaths(cases: Vec<f64>, deaths: Vec<f64>) -> Self {
        Self::cases_and_deaths_with(cases, deaths, BiasMode::Sampled, 1.0)
    }

    /// Cases+deaths with explicit bias mode and sigma.
    pub fn cases_and_deaths_with(
        cases: Vec<f64>,
        deaths: Vec<f64>,
        mode: BiasMode,
        sigma: f64,
    ) -> Self {
        Self {
            sources: vec![
                DataSource {
                    series: "infections".into(),
                    observed: ObservedSeries::from_day_one(cases),
                    bias: Arc::new(BinomialBias { mode }),
                    likelihood: Arc::new(GaussianSqrtLikelihood::new(sigma)),
                },
                DataSource {
                    series: "deaths".into(),
                    observed: ObservedSeries::from_day_one(deaths),
                    bias: Arc::new(IdentityBias),
                    likelihood: Arc::new(GaussianSqrtLikelihood::new(sigma)),
                },
            ],
        }
    }

    /// Add a custom source.
    pub fn push_source(&mut self, source: DataSource) {
        self.sources.push(source);
    }
}

/// Joint prior over `(theta, rho)`.
pub struct Priors {
    /// One prior per theta coordinate.
    pub theta: Vec<Box<dyn Prior>>,
    /// Prior on the reporting probability.
    pub rho: Box<dyn Prior>,
}

impl Priors {
    /// The paper's first-window priors: `Uniform(0.1, 0.5)` on the
    /// transmission rate and `Beta(4, 1)` on `rho` (Section V-B).
    pub fn paper() -> Self {
        Self {
            theta: vec![Box::new(crate::prior::UniformPrior::new(0.1, 0.5))],
            rho: Box::new(crate::prior::BetaPrior::new(4.0, 1.0)),
        }
    }
}

/// Memory and scheduling telemetry of one calibrated window's posterior
/// ensemble — the numbers behind the structural-sharing claim: per-window
/// resident trajectory bytes should stay roughly flat as windows
/// accumulate, while the flat-equivalent bytes grow linearly.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrajectoryTelemetry {
    /// Trajectory bytes actually resident for the posterior ensemble:
    /// every distinct segment counted once, however many particles share
    /// it.
    pub shared_bytes: usize,
    /// Bytes the same ensemble would hold if every particle owned a flat
    /// copy of its full history (the pre-sharing representation).
    pub flat_bytes: usize,
    /// Distinct trajectory segments across the ensemble.
    pub unique_segments: usize,
    /// Total segment references across the ensemble (chain lengths
    /// summed); `segment_refs - unique_segments` references were shared
    /// rather than copied.
    pub segment_refs: usize,
    /// Dedicated rayon pools built while computing this window. The
    /// sequential calibrator pre-builds its pool once per run, so this
    /// should be 0 for every window it emits.
    pub pool_builds: usize,
    /// Days simulated across the window's whole `(parameter, replicate)`
    /// grid (all adaptive iterations included). Deterministic for a
    /// given configuration, regardless of thread count.
    pub days_simulated: u64,
    /// Wall-clock nanoseconds spent inside simulation day loops, summed
    /// across workers (can exceed the window's elapsed time; inherently
    /// nondeterministic — diagnostics only).
    pub sim_nanos: u64,
    /// Per-worker simulation workspaces built for this window (≈ one per
    /// worker chunk; depends on thread count — diagnostics only, must
    /// never feed deterministic fingerprints).
    pub workspaces_built: u64,
    /// Simulation runs that reused an already-built workspace instead of
    /// allocating a fresh one.
    pub workspace_reuses: u64,
    /// Distinct `SimCheckpoint` allocations backing the posterior
    /// ensemble's `checkpoint`/`origin` references. Deterministic:
    /// sharing structure depends only on resampling ancestry, never on
    /// scheduling.
    pub unique_checkpoints: usize,
    /// Total checkpoint references across the posterior ensemble
    /// (`checkpoint` plus `origin`); `checkpoint_refs -
    /// unique_checkpoints` references alias a shared allocation instead
    /// of deep-copying it.
    pub checkpoint_refs: usize,
    /// Wall-clock nanoseconds spent scoring trajectories against the
    /// observed window, summed across workers (fused into the grid pass,
    /// so this can exceed elapsed time — diagnostics only).
    pub score_nanos: u64,
    /// Wall-clock nanoseconds spent generating resampling indices and
    /// assembling the posterior ensemble (diagnostics only).
    pub resample_nanos: u64,
    /// Scheduling chunks the window's simulation grids were split into
    /// (summed over adaptive iterations). Depends on worker count and
    /// chunk policy — diagnostics only, must never feed deterministic
    /// fingerprints.
    pub grid_chunks: u64,
    /// Wall-clock nanoseconds the window loop was *blocked* on
    /// durability for this window. In a batch run that is only the
    /// backpressure wait at the background writer's handoff, and the
    /// run's final window additionally absorbs the writer join (whether
    /// or not that window was itself persisted). A streaming append
    /// writes inline and reports the full encode + write + retention
    /// span. Otherwise 0 for unpersisted windows; inherently
    /// nondeterministic — diagnostics only, zeroed inside the persisted
    /// record itself so snapshots stay byte-reproducible.
    pub persist_nanos: u64,
    /// Durability records written for this window (0 or 1 under the
    /// current policies). Deterministic for a given
    /// [`crate::config::CheckpointPolicy`].
    pub records_written: u64,
    /// Wall-clock nanoseconds spent in serial per-window stream/proposal
    /// setup (prior/jitter sampling and stream-key construction) before
    /// the parallel grid launches (inherently nondeterministic —
    /// diagnostics only).
    pub stream_setup_nanos: u64,
    /// Wall-clock nanoseconds of the window spent outside *any* parallel
    /// phase — neither the simulation grid nor the parallelized
    /// between-window finalize passes (weight exponentiation, posterior
    /// assembly). What remains is the genuinely serial fraction (setup,
    /// log-sum-exp reduction, resampling-index generation, telemetry
    /// footprint measurement) that Amdahl's law bounds strong scaling
    /// by; inherently nondeterministic — diagnostics only.
    pub serial_nanos: u64,
    /// Per-source scoring passes through the fused day loop (per-day
    /// bias + likelihood term, no materialized observation buffer): one
    /// per source per scored cell, adaptive iterations included.
    /// Deterministic for a given configuration, never dependent on
    /// scheduling.
    pub fused_scores: u64,
    /// Binomial stage-exit draws the chain stepper issued through
    /// `HazardSampler::draw_many` across the window's grid.
    /// Deterministic for a given configuration and model.
    pub batched_draws: u64,
    /// Wall-clock nanoseconds spent encoding (serialization + CRC) this
    /// window's snapshot record — on the background writer thread in a
    /// batch run (where it overlaps the next window's grid instead of
    /// blocking the loop), inline in a streaming append (where it is
    /// part of `persist_nanos`). 0 when the window was not persisted;
    /// inherently nondeterministic — diagnostics only, zeroed inside the
    /// persisted record.
    pub encode_nanos: u64,
}

impl TrajectoryTelemetry {
    /// Segment references satisfied by sharing instead of copying.
    pub fn reused_segments(&self) -> usize {
        self.segment_refs - self.unique_segments
    }

    /// Checkpoint references satisfied by `Arc` sharing instead of deep
    /// copies — under interned checkpoints this is every reference beyond
    /// the first per allocation.
    pub fn shared_checkpoints(&self) -> usize {
        self.checkpoint_refs - self.unique_checkpoints
    }

    /// `flat_bytes / shared_bytes` — how many times over the ensemble's
    /// history would have been duplicated without structural sharing
    /// (1.0 when nothing is shared, 0 on an empty ensemble).
    pub fn sharing_ratio(&self) -> f64 {
        if self.shared_bytes == 0 {
            0.0
        } else {
            self.flat_bytes as f64 / self.shared_bytes as f64
        }
    }
}

/// Per-window scheduling/accounting context threaded into
/// [`finalize_window`] — the counters that are not derivable from the
/// candidate ensemble itself.
#[derive(Clone, Copy, Debug, Default)]
struct WindowAccounting {
    /// Importance-sampling iterations spent (1 unless adaptive).
    iterations: usize,
    /// Dedicated pools charged to this window (see
    /// [`crate::runner::ParallelRunner::take_build_charge`]).
    pool_builds: usize,
    /// Scheduling chunks across the window's simulation grids.
    grid_chunks: u64,
    /// Serial stream/proposal setup span (see
    /// [`TrajectoryTelemetry::stream_setup_nanos`]).
    stream_setup_nanos: u64,
    /// Wall-clock spent inside parallel grid passes; subtracted from the
    /// window wall to yield [`TrajectoryTelemetry::serial_nanos`].
    grid_nanos: u64,
}

/// Measure the posterior ensemble's trajectory and checkpoint footprint
/// by deduplicating on allocation identity, folding in the window's
/// workspace-pool counters and phase timings.
///
/// One serial pass: each particle's chain is walked only until the first
/// segment already seen, so the pass costs the ensemble size plus its
/// distinct segments, not the summed chain lengths; `segment_refs` comes
/// from the chain depth each segment records.
fn measure_telemetry(
    posterior: &ParticleEnsemble,
    acct: WindowAccounting,
    resample_nanos: u64,
    ws_stats: &WorkspaceStats,
) -> TrajectoryTelemetry {
    let mut t = TrajectoryTelemetry {
        pool_builds: acct.pool_builds,
        grid_chunks: acct.grid_chunks,
        stream_setup_nanos: acct.stream_setup_nanos,
        days_simulated: ws_stats.days_simulated(),
        sim_nanos: ws_stats.sim_nanos(),
        score_nanos: ws_stats.score_nanos(),
        resample_nanos,
        workspaces_built: ws_stats.built(),
        workspace_reuses: ws_stats.reuses(),
        fused_scores: ws_stats.fused_scores(),
        batched_draws: ws_stats.batched_draws(),
        ..Default::default()
    };
    let mut seen = std::collections::BTreeSet::new();
    for p in posterior.particles() {
        t.flat_bytes += p.trajectory.flat_bytes();
        t.segment_refs += p.trajectory.segment_count();
        let (fresh, _) = p.trajectory.unknown_segments(|id| seen.contains(&id));
        for (id, series) in fresh {
            seen.insert(id);
            t.shared_bytes += series.len() * series.names().len() * std::mem::size_of::<u64>();
        }
    }
    t.unique_segments = seen.len();
    let sharing = ckpool::sharing(
        posterior
            .particles()
            .iter()
            .flat_map(|p| std::iter::once(&p.checkpoint).chain(p.origin.as_ref())),
    );
    t.unique_checkpoints = sharing.unique;
    t.checkpoint_refs = sharing.refs;
    t
}

/// The outcome of calibrating one window. Cloning is cheap where it
/// matters: the ensembles are Arc structural sharing all the way down.
#[derive(Clone, Debug)]
pub struct WindowResult {
    /// The scored window.
    pub window: TimeWindow,
    /// Resampled (uniformly weighted) posterior particles.
    pub posterior: ParticleEnsemble,
    /// The full weighted candidate ensemble, kept only when
    /// [`CalibrationConfig::keep_prior_ensemble`] is set.
    pub prior_ensemble: Option<ParticleEnsemble>,
    /// Effective sample size of the importance weights before resampling.
    pub ess: f64,
    /// Log marginal likelihood estimate of the window
    /// (`log mean exp(log w)`).
    pub log_marginal: f64,
    /// Number of distinct candidates surviving the resampling step.
    pub unique_ancestors: usize,
    /// Importance-sampling iterations spent on this window (1 unless
    /// adaptive refinement re-proposed; see [`crate::adaptive`]).
    pub iterations: usize,
    /// Wall-clock time of the window (simulation + weighting + resampling).
    pub wall_time: Duration,
    /// Trajectory-memory and pool telemetry of the posterior ensemble.
    pub telemetry: TrajectoryTelemetry,
    /// Move statistics of the post-resampling rejuvenation pass; `None`
    /// under the default
    /// [`UniformJitter`](crate::config::RejuvenationKernel::UniformJitter)
    /// kernel (no pass runs) and on windows restored from a snapshot
    /// (diagnostics are not persisted).
    pub rejuvenation: Option<crate::rejuvenate::RejuvenationStats>,
}

/// Reusable buffers for window scoring: the simulated window (integer
/// counts) and one running score per data source. One scratch
/// lives in each worker's [`crate::simulator::PooledWorkspace`], so
/// scoring fused into the grid pass allocates nothing per cell after
/// warm-up.
#[derive(Debug, Default)]
pub struct ScoreScratch {
    /// Simulated window counts (`SharedTrajectory::window_into` target).
    sim_u: Vec<u64>,
    /// The window being scored: one state per source, in source order.
    sources: Vec<SourceScore>,
    /// Window days scored since [`Self::begin`], in day order.
    pub(crate) scored: usize,
    /// Per-source scoring passes (one per source per scored cell);
    /// flushed into [`crate::simulator::WorkspaceStats`] when the owning
    /// pooled workspace drops.
    pub(crate) fused_scores: u64,
}

/// One source's running score over a window: its own bias stream, its
/// own queue of reports not yet due, and its log-likelihood so far.
/// Sources share no state, so scoring day by day across sources draws
/// the same numbers as scoring one source at a time.
#[derive(Debug)]
struct SourceScore {
    bias_rng: Xoshiro256PlusPlus,
    /// The `pending` queue of [`BiasModel::observe_one`].
    pending: VecDeque<f64>,
    /// Day terms summed in day order from `0.0`.
    acc: f64,
}

impl SourceScore {
    /// The one day step of window scoring: map the day's simulated
    /// count through the bias model, then add the likelihood's day term.
    fn day(&mut self, src: &DataSource, count: u64, prepared_y: f64, rho: f64) {
        let eta_obs =
            src.bias
                .observe_one(count as f64, rho, &mut self.bias_rng, &mut self.pending);
        self.acc += src.likelihood.prepared_day_term(prepared_y, eta_obs);
    }
}

impl ScoreScratch {
    /// Fresh (empty) scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-source scoring passes made through this scratch.
    pub fn fused_scores(&self) -> u64 {
        self.fused_scores
    }

    /// Start scoring `prepared`'s window: one fresh state per source,
    /// each on its own bias stream, and no day scored yet.
    ///
    /// # Errors
    /// [`SmcError::Observation`] if `prepared` was built from data with
    /// a different number of sources.
    pub(crate) fn begin(
        &mut self,
        observed: &ObservedData,
        prepared: &PreparedObserved,
        bias_seed: u64,
    ) -> Result<(), SmcError> {
        let n = observed.sources.len();
        if prepared.per_source.len() != n {
            return Err(SmcError::Observation(format!(
                "prepared observations cover {} source(s), the observed data has {n}",
                prepared.per_source.len(),
            )));
        }
        let start = prepared.window.start as u64;
        self.sources.resize_with(n, || SourceScore {
            bias_rng: Xoshiro256PlusPlus::new(0),
            pending: VecDeque::new(),
            acc: 0.0,
        });
        for (si, state) in self.sources.iter_mut().enumerate() {
            state.bias_rng =
                Xoshiro256PlusPlus::from_stream(bias_seed, &[TAG_BIAS, start, si as u64]);
            state.pending.clear();
            state.acc = 0.0;
        }
        self.scored = 0;
        Ok(())
    }

    /// Score the window days from its start through `last` (not before
    /// the start) that `trajectory` already holds, source by source,
    /// each source's days in order.
    ///
    /// # Errors
    /// [`SmcError::Observation`] if the trajectory does not cover those
    /// days on a referenced series.
    pub(crate) fn score_stored(
        &mut self,
        trajectory: &SharedTrajectory,
        observed: &ObservedData,
        prepared: &PreparedObserved,
        last: u32,
        rho: f64,
    ) -> Result<(), SmcError> {
        let start = prepared.window.start;
        for ((src, state), prep) in observed
            .sources
            .iter()
            .zip(&mut self.sources)
            .zip(&prepared.per_source)
        {
            if !trajectory.window_into(&src.series, start, last, &mut self.sim_u) {
                return Err(SmcError::Observation(format!(
                    "trajectory does not cover series '{}' on days [{start}, {last}]",
                    src.series
                )));
            }
            for (&count, &y) in self.sim_u.iter().zip(prep) {
                state.day(src, count, y, rho);
            }
        }
        self.scored = (last - start) as usize + 1;
        Ok(())
    }

    /// Score one simulated day across all sources, each reading its
    /// count from `row[columns[source]]`. Only the window's next
    /// unscored day is scored; returns whether `day` was it.
    pub(crate) fn score_day(
        &mut self,
        observed: &ObservedData,
        prepared: &PreparedObserved,
        columns: &[usize],
        rho: f64,
        day: u32,
        row: &[u64],
    ) -> bool {
        let window = prepared.window;
        let d = self.scored;
        if day < window.start || (day - window.start) as usize != d || d >= window.len() {
            return false;
        }
        for (si, (src, state)) in observed.sources.iter().zip(&mut self.sources).enumerate() {
            state.day(src, row[columns[si]], prepared.per_source[si][d], rho);
        }
        self.scored += 1;
        true
    }

    /// The window's joint log-likelihood so far: the sources' sums added
    /// in source order from `-0.0`, the additive identity
    /// `Iterator::sum` starts from.
    pub(crate) fn total(&self) -> f64 {
        self.sources.iter().fold(-0.0, |t, s| t + s.acc)
    }

    /// An upper bound, in floating point, on the [`Self::total`] the
    /// window will reach once every day is scored: each source's running
    /// sum continued with the per-day bound of each unscored day, in the
    /// order the real terms would be added, then the sources combined as
    /// `total` does. IEEE addition is monotone, so a sum over terms each
    /// at most its bound is at most the bound's sum (or NaN, which the
    /// acceptance test rejects either way). `None` when some source's
    /// likelihood declares no bound.
    pub(crate) fn bound(&self, prepared: &PreparedObserved) -> Option<f64> {
        let rest = |s: &SourceScore, bounds: &Vec<f64>| {
            bounds[self.scored..].iter().fold(s.acc, |a, &b| a + b)
        };
        let sources = self.sources.iter().zip(prepared.bounds.as_ref()?);
        Some(sources.fold(-0.0, |t, (s, b)| t + rest(s, b)))
    }
}

/// Per-window cache of the likelihoods' observed-side preparation (e.g.
/// `sqrt(y_t)` for the paper's sqrt-scale Gaussian), built **once per
/// window** and shared read-only across the grid's workers — the
/// observed series is fixed while every particle scores against it, so
/// re-deriving the transform per particle was pure waste.
#[derive(Clone, Debug)]
pub struct PreparedObserved {
    /// The window the preparation covers.
    window: TimeWindow,
    /// One prepared value per window day, per source (source order of
    /// the [`ObservedData`] it was built from).
    per_source: Vec<Vec<f64>>,
    /// [`Likelihood::day_term_bound`] of each prepared value, or `None`
    /// unless every bound is finite (below `+∞`, so not NaN either).
    bounds: Option<Vec<Vec<f64>>>,
}

impl PreparedObserved {
    /// Prepare every source's observed window through its likelihood's
    /// [`Likelihood::prepare_observed`].
    ///
    /// # Errors
    /// Returns [`SmcError::Observation`] if any source's observed series
    /// does not cover the window, or its likelihood does not prepare
    /// exactly one value per observed day.
    pub fn build(observed: &ObservedData, window: TimeWindow) -> Result<Self, SmcError> {
        let mut per_source = Vec::with_capacity(observed.sources.len());
        for src in &observed.sources {
            let obs_w = src
                .observed
                .window(window.start, window.end)
                .ok_or_else(|| {
                    SmcError::Observation(format!(
                        "observed series '{}' does not cover days [{}, {}]",
                        src.series, window.start, window.end
                    ))
                })?;
            let mut prep = Vec::new();
            src.likelihood.prepare_observed(obs_w, &mut prep);
            if prep.len() != obs_w.len() {
                return Err(SmcError::Observation(format!(
                    "likelihood '{}' prepared {} value(s) for the {} observed day(s) of \
                     series '{}'",
                    src.likelihood.name(),
                    prep.len(),
                    obs_w.len(),
                    src.series
                )));
            }
            per_source.push(prep);
        }
        let bounds: Vec<Vec<f64>> = observed
            .sources
            .iter()
            .zip(&per_source)
            .map(|(src, prep)| {
                prep.iter()
                    .map(|&y| src.likelihood.day_term_bound(y))
                    .collect()
            })
            .collect();
        let bounded = bounds.iter().flatten().all(|&b| b < f64::INFINITY);
        Ok(Self {
            window,
            per_source,
            bounds: bounded.then_some(bounds),
        })
    }

    /// The window this preparation covers.
    pub fn window(&self) -> TimeWindow {
        self.window
    }
}

/// Compute a particle's log weight for a window: the joint log likelihood
/// of all data sources over the window days (independent sources, so
/// their log terms add, in source order).
///
/// `prepared` is the window's observed-side preparation, built once per
/// window from the same `observed`; `scratch` holds the caller's reusable
/// buffers (one per worker), so a warm call allocates nothing.
///
/// Each source is scored in one day loop: walk the simulated window once,
/// map each day through [`BiasModel::observe_one`] and
/// [`Likelihood::prepared_day_term`], and accumulate the log-likelihood
/// directly, with no materialized observation buffer. The result is
/// bit-identical to [`Likelihood::log_likelihood`] of the observed window
/// against [`BiasModel::observe`] of the simulated one on the same bias
/// stream. The PMMH move pass scores its proposals through the same day
/// step, one simulated day at a time.
///
/// # Errors
/// Returns [`SmcError::Observation`] if `prepared` was built from data
/// with a different number of sources, or the trajectory does not cover
/// the window on a referenced series.
pub fn score_window(
    trajectory: &SharedTrajectory,
    rho: f64,
    bias_seed: u64,
    observed: &ObservedData,
    prepared: &PreparedObserved,
    scratch: &mut ScoreScratch,
) -> Result<f64, SmcError> {
    scratch.begin(observed, prepared, bias_seed)?;
    scratch.score_stored(trajectory, observed, prepared, prepared.window.end, rho)?;
    scratch.fused_scores += observed.sources.len() as u64;
    Ok(scratch.total())
}

/// Weight, resample, and package a candidate ensemble into a
/// [`WindowResult`].
///
/// The between-window phases run parallel wherever the deterministic
/// contract allows: weight exponentiation fans out elementwise
/// ([`ParticleEnsemble::normalized_weights_par`]) and posterior duplicate
/// materialization (pure `Arc` bumps under shared trajectories /
/// checkpoints / thetas) runs on the grid runner. The float *reductions*
/// (log-sum-exp, whose summation order is part of the contract),
/// resampling-index generation (a single sequential RNG stream at O(1)
/// alias work per draw) and the telemetry footprint measurement (one
/// early-stop walk costing the ensemble size plus its distinct segments)
/// stay serial — `resample_nanos` keeps the resampling cost visible, and
/// the parallel spans are subtracted from `serial_nanos` so the
/// telemetry reports the true Amdahl fraction.
#[allow(clippy::too_many_arguments)]
fn finalize_window(
    window: TimeWindow,
    candidates: Vec<Particle>,
    config: &CalibrationConfig,
    rng: &mut Xoshiro256PlusPlus,
    runner: &ParallelRunner,
    started: std::time::Instant,
    acct: WindowAccounting,
    ws_stats: &WorkspaceStats,
) -> WindowResult {
    let ensemble = ParticleEnsemble::from_vec(candidates);
    let mut parallel_nanos = 0u64;
    // epilint: allow(wall-clock) — telemetry timing only; never feeds simulation state
    let weights_started = std::time::Instant::now();
    let weights = ensemble.normalized_weights_par(runner);
    parallel_nanos += weights_started.elapsed().as_nanos() as u64;
    let window_ess = ess(&weights);
    let log_w: Vec<f64> = ensemble.particles().iter().map(|p| p.log_weight).collect();
    let log_marginal = log_mean_exp(&log_w);

    // epilint: allow(wall-clock) — telemetry timing only; never feeds simulation state
    let resample_started = std::time::Instant::now();
    let idx = config
        .resample
        .resampler()
        .resample(&weights, config.resample_size, rng);
    let mut unique = idx.clone();
    unique.sort_unstable();
    unique.dedup();
    let unique_ancestors = unique.len();

    // epilint: allow(wall-clock) — telemetry timing only; never feeds simulation state
    let build_started = std::time::Instant::now();
    let mut posterior = ParticleEnsemble::from_vec(
        runner.run_indexed(idx.len(), |j| ensemble.particles()[idx[j]].clone()),
    );
    parallel_nanos += build_started.elapsed().as_nanos() as u64;
    posterior.set_uniform_weights();
    let resample_nanos = resample_started.elapsed().as_nanos() as u64;
    let mut telemetry = measure_telemetry(&posterior, acct, resample_nanos, ws_stats);
    // Everything the window spent outside its parallel phases — grid
    // passes and the parallelized finalize spans above — is the serial
    // fraction strong scaling is bounded by.
    telemetry.serial_nanos = (started.elapsed().as_nanos() as u64)
        .saturating_sub(acct.grid_nanos)
        .saturating_sub(parallel_nanos);

    WindowResult {
        window,
        posterior,
        prior_ensemble: if config.keep_prior_ensemble {
            Some(ensemble)
        } else {
            None
        },
        ess: window_ess,
        log_marginal,
        unique_ancestors,
        iterations: acct.iterations,
        wall_time: started.elapsed(),
        telemetry,
        rejuvenation: None,
    }
}

/// One proposed parameter tuple, optionally anchored to an ancestor
/// particle whose checkpoint it continues from.
#[derive(Clone, Debug)]
pub(crate) struct Proposal {
    /// Index into the ancestor ensemble (ignored for fresh runs).
    pub ancestor: usize,
    /// Proposed simulator parameters, shared across the proposal's
    /// `n_replicates` particles (one allocation per proposal, `Arc`
    /// bumps per particle).
    pub theta: Arc<[f64]>,
    /// Proposed reporting probability.
    pub rho: f64,
}

/// Algorithm 1: importance sampling of a single calibration window from
/// fresh day-0 simulations.
pub struct SingleWindowIs<'a, S: TrajectorySimulator> {
    simulator: &'a S,
    config: CalibrationConfig,
    runner: ParallelRunner,
}

impl<'a, S: TrajectorySimulator> SingleWindowIs<'a, S> {
    /// Create a driver over a simulator with the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid; use [`Self::try_new`] to
    /// handle that case without panicking.
    pub fn new(simulator: &'a S, config: CalibrationConfig) -> Self {
        // epilint: allow(panic-unwrap) — documented panicking convenience wrapper over try_new
        Self::try_new(simulator, config).expect("invalid CalibrationConfig")
    }

    /// Fallible constructor: validates the configuration and pre-builds
    /// the runner (and its dedicated pool, if any) once for the driver's
    /// lifetime — repeated [`Self::run`] calls reuse it, and only the
    /// first charges the build to its window's telemetry.
    ///
    /// # Errors
    /// Returns [`SmcError::Config`] if the configuration is invalid.
    pub fn try_new(simulator: &'a S, config: CalibrationConfig) -> Result<Self, SmcError> {
        config.validate().map_err(SmcError::Config)?;
        let runner =
            ParallelRunner::from_option(config.threads).with_chunk_cells(config.chunk_cells);
        Ok(Self {
            simulator,
            config,
            runner,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &CalibrationConfig {
        &self.config
    }

    /// Run Algorithm 1 on one window.
    ///
    /// # Errors
    /// Propagates simulator failures and window-coverage mismatches.
    pub fn run(
        &self,
        priors: &Priors,
        observed: &ObservedData,
        window: TimeWindow,
    ) -> Result<WindowResult, SmcError> {
        if priors.theta.len() != self.simulator.theta_dim() {
            return Err(SmcError::Config(format!(
                "prior dimension {} != simulator theta dimension {}",
                priors.theta.len(),
                self.simulator.theta_dim()
            )));
        }
        // epilint: allow(wall-clock) — telemetry timing only; never feeds simulation state
        let started = std::time::Instant::now();
        let cfg = &self.config;
        let mut rng = Xoshiro256PlusPlus::new(cfg.seed);

        // Draw parameter tuples from the prior. Each theta is shared
        // across the tuple's replicates — particles take Arc bumps.
        let proposals: Vec<Proposal> = (0..cfg.n_params)
            .map(|_| Proposal {
                ancestor: 0,
                theta: priors.theta.iter().map(|p| p.sample(&mut rng)).collect(),
                rho: priors.rho.sample(&mut rng),
            })
            .collect();
        // Counter-mode stream keys with no window prefix: common random
        // numbers hold by layout, since the simulation counter is the
        // replicate index alone (Section V-B).
        let sim_key = StreamKey::new(cfg.seed).absorb(TAG_SIM_SEED);
        let bias_key = StreamKey::new(cfg.seed).absorb(TAG_BIAS);
        let stream_setup_nanos = started.elapsed().as_nanos() as u64;

        let runner = &self.runner;
        let ws_stats = Arc::new(WorkspaceStats::default());
        // epilint: allow(wall-clock) — telemetry timing only; never feeds simulation state
        let grid_started = std::time::Instant::now();
        let candidates = simulate_grid(
            self.simulator,
            runner,
            cfg.n_replicates,
            &proposals,
            None,
            observed,
            window,
            sim_key,
            bias_key,
            &ws_stats,
        )?;
        let grid_nanos = grid_started.elapsed().as_nanos() as u64;
        // The driver's pre-built pool is charged to the first window that
        // uses it — later runs on the same driver report 0.
        let acct = WindowAccounting {
            iterations: 1,
            pool_builds: runner.take_build_charge(),
            grid_chunks: runner.chunk_count(cfg.n_params * cfg.n_replicates) as u64,
            stream_setup_nanos,
            grid_nanos,
        };
        Ok(finalize_window(
            window, candidates, cfg, &mut rng, runner, started, acct, &ws_stats,
        ))
    }
}

/// The full sequential scheme: window 1 from the prior, every later
/// window from the jittered, checkpoint-continued posterior of its
/// predecessor.
pub struct SequentialCalibrator<'a, S: TrajectorySimulator> {
    simulator: &'a S,
    config: CalibrationConfig,
    jitter_theta: Vec<JitterKernel>,
    jitter_rho: JitterKernel,
    adaptive: Option<crate::adaptive::AdaptiveConfig>,
}

/// Result of a sequential calibration: one [`WindowResult`] per window.
#[derive(Debug)]
pub struct CalibrationResult {
    /// Per-window outcomes, in plan order. For a resumed run this covers
    /// the restored window and everything after it (earlier windows live
    /// only in the original run / the store).
    pub windows: Vec<WindowResult>,
    /// How the run rejoined a durable store, when it was resumed via
    /// [`SequentialCalibrator::resume_from`] (`None` for fresh runs).
    pub resume: Option<ResumeReport>,
}

impl CalibrationResult {
    /// The posterior of the last window.
    ///
    /// # Panics
    /// Panics if there are no windows (cannot happen for results produced
    /// by [`SequentialCalibrator::run`]).
    pub fn final_posterior(&self) -> &ParticleEnsemble {
        // epilint: allow(panic-unwrap) — documented invariant: run() always emits >= 1 window
        &self.windows.last().expect("at least one window").posterior
    }

    /// Per-window `(mean theta[0], sd theta[0], mean rho, sd rho)` —
    /// the time-varying parameter trace of Figs 4b/5b.
    pub fn parameter_trace(&self) -> Vec<(TimeWindow, f64, f64, f64, f64)> {
        self.windows
            .iter()
            .map(|w| {
                (
                    w.window,
                    w.posterior.mean_theta(0),
                    w.posterior.sd_theta(0),
                    w.posterior.mean_rho(),
                    w.posterior.sd_rho(),
                )
            })
            .collect()
    }

    /// Accumulated log evidence: the sum of per-window log marginal
    /// likelihood estimates. Under the sequential decomposition of
    /// Section IV-C this estimates `log p(y_{1:T})` for the model +
    /// prior + bias configuration, so differences between runs on the
    /// *same data* are log Bayes factors — usable for model comparison
    /// (e.g. "does a reporting-bias model explain the data better than
    /// assuming full reporting?").
    pub fn total_log_marginal(&self) -> f64 {
        self.windows.iter().map(|w| w.log_marginal).sum()
    }
}

impl<'a, S: TrajectorySimulator> SequentialCalibrator<'a, S> {
    /// Create a sequential driver.
    ///
    /// `jitter_theta` must have one kernel per theta coordinate; the
    /// paper uses a symmetric kernel for theta and an asymmetric one
    /// (skewed high) for rho.
    ///
    /// # Panics
    /// Panics if the configuration is invalid; use [`Self::try_new`] to
    /// handle that case without panicking.
    pub fn new(
        simulator: &'a S,
        config: CalibrationConfig,
        jitter_theta: Vec<JitterKernel>,
        jitter_rho: JitterKernel,
    ) -> Self {
        let built = Self::try_new(simulator, config, jitter_theta, jitter_rho);
        // epilint: allow(panic-unwrap) — documented panicking convenience wrapper over try_new
        built.expect("invalid CalibrationConfig")
    }

    /// Fallible constructor: validates the configuration.
    ///
    /// # Errors
    /// Returns [`SmcError::Config`] if the configuration is invalid.
    pub fn try_new(
        simulator: &'a S,
        config: CalibrationConfig,
        jitter_theta: Vec<JitterKernel>,
        jitter_rho: JitterKernel,
    ) -> Result<Self, SmcError> {
        config.validate().map_err(SmcError::Config)?;
        Ok(Self {
            simulator,
            config,
            jitter_theta,
            jitter_rho,
            adaptive: None,
        })
    }

    /// Enable adaptive ESS-triggered refinement: when a window's
    /// importance weights degenerate (e.g. the truth jumped beyond the
    /// jitter kernel's reach), re-propose around the current weighted
    /// candidates with shrinking kernels and re-simulate, up to the
    /// configured iteration budget. See [`crate::adaptive`].
    ///
    /// # Panics
    /// Panics if the adaptive configuration is invalid; use
    /// [`Self::try_with_adaptive`] to handle that case without panicking.
    pub fn with_adaptive(self, adaptive: crate::adaptive::AdaptiveConfig) -> Self {
        let built = self.try_with_adaptive(adaptive);
        // epilint: allow(panic-unwrap) — documented panicking convenience wrapper over the fallible path
        built.expect("invalid AdaptiveConfig")
    }

    /// Fallible variant of [`Self::with_adaptive`].
    ///
    /// # Errors
    /// Returns [`SmcError::Config`] if the adaptive configuration is
    /// invalid.
    pub fn try_with_adaptive(
        mut self,
        adaptive: crate::adaptive::AdaptiveConfig,
    ) -> Result<Self, SmcError> {
        adaptive.validate().map_err(SmcError::Config)?;
        self.adaptive = Some(adaptive);
        Ok(self)
    }

    /// Run the full windowed calibration.
    ///
    /// # Errors
    /// Propagates simulator failures, dimension mismatches, and coverage
    /// errors.
    pub fn run(
        &self,
        priors: &Priors,
        observed: &ObservedData,
        plan: &WindowPlan,
    ) -> Result<CalibrationResult, SmcError> {
        self.run_windows(priors, observed, plan, None, None, 0)
    }

    /// [`Self::run`] with durability: after each window the policy
    /// selects, the complete calibration state is snapshotted into
    /// `store` (see [`crate::persist`]). Persistence never changes
    /// results — the returned [`CalibrationResult`] is bit-identical to
    /// a plain [`Self::run`] on every deterministic field.
    ///
    /// Each snapshot is handed to a background [`SnapshotWriter`], and
    /// the next window overlaps its encode + fsync. Records land in
    /// window order, so a failure leaves a durable prefix behind. To
    /// have every window durable before the next one starts, advance a
    /// [`crate::stream::StreamingCalibrator`] over the plan instead: it
    /// writes inline and is bit-identical to this loop.
    ///
    /// # Errors
    /// Everything [`Self::run`] returns, plus [`SmcError::Persist`] when
    /// a snapshot write fails, surfacing at the next handoff or the
    /// final writer join; completed snapshots stay behind for
    /// [`Self::resume_from`].
    pub fn run_persisted(
        &self,
        priors: &Priors,
        observed: &ObservedData,
        plan: &WindowPlan,
        store: &dyn RunStore,
        policy: &CheckpointPolicy,
    ) -> Result<CalibrationResult, SmcError> {
        policy.validate().map_err(SmcError::Config)?;
        self.run_windows(priors, observed, plan, Some((store, policy)), None, 0)
    }

    /// Resume a killed [`Self::run_persisted`] campaign from its store:
    /// recover the newest decodable snapshot (skipping corrupt or
    /// unsupported records, counted in [`ResumeReport::recoveries`]),
    /// rebuild its window result, and continue the remaining windows —
    /// persisting along the way under the same policy.
    ///
    /// Every window's RNG stream derives independently from the master
    /// seed, so the restored posterior ensemble is the only cross-window
    /// state; windows computed after the resume are **bit-identical** to
    /// the uninterrupted run's, at any thread count.
    ///
    /// # Errors
    /// [`SmcError::Persist`] when no usable snapshot exists or the
    /// snapshot belongs to a differently configured run (seed /
    /// fingerprint / plan mismatch), plus everything [`Self::run`]
    /// returns.
    pub fn resume_from(
        &self,
        priors: &Priors,
        observed: &ObservedData,
        plan: &WindowPlan,
        store: &dyn RunStore,
        policy: &CheckpointPolicy,
    ) -> Result<CalibrationResult, SmcError> {
        policy.validate().map_err(SmcError::Config)?;
        let (snap, recoveries) = persist::recover_latest(store)?;
        let Some(snap) = snap else {
            return Err(SmcError::Persist(
                "no usable snapshot in the run store; nothing to resume".into(),
            ));
        };
        let widx = snap.window_index as usize;
        let restored = self.restore(snap, observed)?;
        if plan.windows().get(widx) != Some(&restored.window) {
            return Err(SmcError::Persist(format!(
                "snapshot window {widx} (days [{}, {}]) is not window {widx} of this plan",
                restored.window.start, restored.window.end
            )));
        }
        self.run_windows(
            priors,
            observed,
            plan,
            Some((store, policy)),
            Some((widx, restored)),
            recoveries,
        )
    }

    /// Check a recovered snapshot against this calibrator — its seed, its
    /// configuration fingerprint and, when recorded, the observed data
    /// it was scored against — and rebuild its window result. Shared by
    /// [`Self::resume_from`] and [`crate::stream::StreamingCalibrator::open`].
    ///
    /// # Errors
    /// [`SmcError::Persist`] when the snapshot belongs to a differently
    /// configured run or was scored against different observed data.
    pub(crate) fn restore(
        &self,
        snap: RunSnapshot,
        observed: &ObservedData,
    ) -> Result<WindowResult, SmcError> {
        if snap.seed != self.config.seed {
            return Err(SmcError::Persist(format!(
                "snapshot was written with seed {}, this calibration uses seed {}",
                snap.seed, self.config.seed
            )));
        }
        let fingerprint = self.fingerprint();
        if snap.fingerprint != fingerprint {
            return Err(SmcError::Persist(format!(
                "snapshot fingerprint {:#018x} does not match this calibration's {fingerprint:#018x}",
                snap.fingerprint
            )));
        }
        // The 0 "not recorded" sentinel skips the observed-data check, as
        // does an observed set that does not (yet) cover the window.
        if snap.observed_fingerprint != 0 {
            if let Some(fp) = persist::observed_fingerprint(observed, snap.window) {
                if fp != snap.observed_fingerprint {
                    return Err(SmcError::Persist(format!(
                        "snapshot for window {} was scored against different observed \
                         data (fingerprint {:#018x}, this calibration's data gives {fp:#018x})",
                        snap.window_index, snap.observed_fingerprint
                    )));
                }
            }
        }
        Ok(WindowResult {
            window: snap.window,
            posterior: snap.posterior,
            prior_ensemble: None,
            ess: snap.ess,
            log_marginal: snap.log_marginal,
            unique_ancestors: snap.unique_ancestors as usize,
            iterations: snap.iterations as usize,
            wall_time: Duration::from_nanos(snap.wall_nanos),
            telemetry: snap.telemetry,
            rejuvenation: None,
        })
    }

    /// The configuration fingerprint stamped into every snapshot this
    /// calibrator writes (see [`persist::run_fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        persist::run_fingerprint(&self.config, &self.jitter_theta, &self.jitter_rho)
    }

    /// The calibration configuration this calibrator runs under.
    pub fn config(&self) -> &CalibrationConfig {
        &self.config
    }

    /// Check the jitter kernels and priors against the simulator's
    /// parameter dimension (shared by the batch loop and the streaming
    /// calibrator's open).
    pub(crate) fn validate_dims(&self, priors: &Priors) -> Result<(), SmcError> {
        if self.jitter_theta.len() != self.simulator.theta_dim() {
            return Err(SmcError::Config(format!(
                "jitter dimension {} != simulator theta dimension {}",
                self.jitter_theta.len(),
                self.simulator.theta_dim()
            )));
        }
        if priors.theta.len() != self.simulator.theta_dim() {
            return Err(SmcError::Config(format!(
                "prior dimension {} != simulator theta dimension {}",
                priors.theta.len(),
                self.simulator.theta_dim()
            )));
        }
        Ok(())
    }

    /// Compute one window of the SIS pass: propose (from the priors for
    /// the first window, by jittering `prev` otherwise), simulate and
    /// weight with adaptive refinement, resample, and — when the
    /// configuration selects it — run the PMMH rejuvenation pass on the
    /// posterior.
    ///
    /// This is the entire per-window computation, shared bit-for-bit by
    /// the batch loop ([`Self::run`] and friends) and the streaming
    /// calibrator ([`crate::stream::StreamingCalibrator`]): its output
    /// depends only on the master seed, the window index `widx`, the
    /// observed slice of `window`, and `prev` — never on how many
    /// windows the surrounding run intends to compute or on which
    /// process computed the previous ones. That purity is what makes
    /// streaming-equals-batch an identity rather than an approximation.
    pub(crate) fn compute_window(
        &self,
        runner: &ParallelRunner,
        priors: &Priors,
        observed: &ObservedData,
        window: TimeWindow,
        widx: usize,
        prev: Option<&ParticleEnsemble>,
    ) -> Result<WindowResult, SmcError> {
        // epilint: allow(wall-clock) — telemetry timing only; never feeds simulation state
        let setup_started = std::time::Instant::now();
        let mut result = match prev {
            None => {
                // Window 1: Algorithm 1 from the prior (with optional
                // adaptive refinement over fresh runs).
                let mut rng =
                    Xoshiro256PlusPlus::from_stream(self.config.seed, &[TAG_WINDOW, widx as u64]);
                let proposals: Vec<Proposal> = (0..self.config.n_params)
                    .map(|_| Proposal {
                        ancestor: 0,
                        theta: priors.theta.iter().map(|p| p.sample(&mut rng)).collect(),
                        rho: priors.rho.sample(&mut rng),
                    })
                    .collect();
                let setup_nanos = setup_started.elapsed().as_nanos() as u64;
                self.adaptive_window(
                    runner,
                    observed,
                    window,
                    widx,
                    None,
                    proposals,
                    rng,
                    setup_nanos,
                )?
            }
            Some(ancestors) => {
                let mut rng =
                    Xoshiro256PlusPlus::from_stream(self.config.seed, &[TAG_WINDOW, widx as u64]);
                let n_anc = ancestors.len() as u64;
                let proposals: Vec<Proposal> = (0..self.config.n_params)
                    .map(|_| {
                        let a = rng.next_bounded(n_anc) as usize;
                        let anc = &ancestors.particles()[a];
                        Proposal {
                            ancestor: a,
                            theta: anc
                                .theta
                                .iter()
                                .zip(&self.jitter_theta)
                                .map(|(&t, k)| k.sample(t, &mut rng))
                                .collect::<Arc<[f64]>>(),
                            rho: self.jitter_rho.sample(anc.rho, &mut rng),
                        }
                    })
                    .collect();
                let setup_nanos = setup_started.elapsed().as_nanos() as u64;
                self.adaptive_window(
                    runner,
                    observed,
                    window,
                    widx,
                    Some(ancestors),
                    proposals,
                    rng,
                    setup_nanos,
                )?
            }
        };
        if let crate::config::RejuvenationKernel::Pmmh(pmmh) = &self.config.rejuvenation {
            let stats = crate::rejuvenate::pmmh_rejuvenate_window(
                self.simulator,
                &mut result.posterior,
                observed,
                window,
                pmmh,
                &self.jitter_theta,
                &self.jitter_rho,
                self.config.seed,
                widx,
                runner,
            )?;
            result.rejuvenation = Some(stats);
        }
        Ok(result)
    }

    /// Build the snapshot persisted for window `widx`, marking the
    /// record in the result's telemetry. The snapshot carries the
    /// telemetry with `persist_nanos` and `encode_nanos` still 0: both
    /// are measured around (or after) the write itself, and zeroing
    /// them keeps records byte-reproducible across runs, and between a
    /// batch run and a stream.
    pub(crate) fn snapshot_for(
        &self,
        fingerprint: u64,
        observed: &ObservedData,
        widx: usize,
        result: &mut WindowResult,
    ) -> RunSnapshot {
        result.telemetry.records_written = 1;
        RunSnapshot {
            seed: self.config.seed,
            fingerprint,
            window_index: widx as u32,
            window: result.window,
            ess: result.ess,
            log_marginal: result.log_marginal,
            unique_ancestors: result.unique_ancestors as u64,
            iterations: result.iterations as u64,
            wall_nanos: result.wall_time.as_nanos() as u64,
            observed_fingerprint: persist::observed_fingerprint(observed, result.window)
                .unwrap_or(0),
            telemetry: result.telemetry,
            posterior: result.posterior.clone(),
        }
    }

    /// The shared windowed loop behind [`Self::run`],
    /// [`Self::run_persisted`], and [`Self::resume_from`]: optionally
    /// seeded with a restored window, optionally snapshotting after each
    /// window the policy selects.
    fn run_windows(
        &self,
        priors: &Priors,
        observed: &ObservedData,
        plan: &WindowPlan,
        persist_to: Option<(&dyn RunStore, &CheckpointPolicy)>,
        restored: Option<(usize, WindowResult)>,
        recoveries: usize,
    ) -> Result<CalibrationResult, SmcError> {
        self.validate_dims(priors)?;
        // One runner — and therefore at most one dedicated pool — for the
        // whole calibration run, hoisted out of the per-window (and
        // per-adaptive-iteration) batch loop.
        let runner = ParallelRunner::from_option(self.config.threads)
            .with_chunk_cells(self.config.chunk_cells);
        let fingerprint = self.fingerprint();
        let mut windows: Vec<WindowResult> = Vec::with_capacity(plan.len());
        let resume = restored.as_ref().map(|(widx, _)| ResumeReport {
            resumed_window: *widx as u32,
            recoveries,
        });
        // Plan index of `windows[0]`: background write receipts arrive
        // keyed by plan window index and are mapped back through it.
        let windows_base = match &restored {
            Some((widx, _)) => *widx,
            None => 0,
        };
        let first = match restored {
            Some((widx, result)) => {
                windows.push(result);
                widx + 1
            }
            None => 0,
        };

        // The writer thread borrows the caller's store for the duration
        // of this scope; every exit path — including early `?` returns,
        // which drop the writer handle and thereby close its queue —
        // joins it before returning.
        std::thread::scope(|scope| {
            let mut writer = persist_to.map(|(store, policy)| {
                (SnapshotWriter::spawn(scope, store, policy.retain), policy)
            });

            for widx in first..plan.len() {
                let window = plan.windows()[widx];
                let prev = windows.last().map(|r| &r.posterior);
                let mut result =
                    self.compute_window(&runner, priors, observed, window, widx, prev)?;
                if let Some((w, policy)) = writer.as_mut() {
                    if policy.persists(widx, plan.len()) {
                        // O(1) handoff (the posterior clone in the
                        // snapshot is Arc structural sharing), then the
                        // next window starts while encode + fsync run on
                        // the writer thread. Only backpressure blocks the
                        // loop.
                        let snap = self.snapshot_for(fingerprint, observed, widx, &mut result);
                        let handoff = w.submit(snap)?;
                        result.telemetry.persist_nanos = handoff.blocked_nanos;
                        for receipt in handoff.receipts {
                            let k = receipt.window_index as usize - windows_base;
                            windows[k].telemetry.encode_nanos = receipt.encode_nanos;
                        }
                    }
                }
                windows.push(result);
            }

            // Drain the pipeline: wait for every outstanding background
            // write, surface its first error, and attribute the join wait
            // (plus late encode receipts) to the windows involved.
            if let Some((w, _)) = writer.take() {
                let handoff = w.finish()?;
                for receipt in handoff.receipts {
                    let k = receipt.window_index as usize - windows_base;
                    windows[k].telemetry.encode_nanos = receipt.encode_nanos;
                }
                if let Some(last) = windows.last_mut() {
                    last.telemetry.persist_nanos += handoff.blocked_nanos;
                }
            }
            Ok(CalibrationResult { windows, resume })
        })
    }

    /// Simulate/weight one window, re-proposing with shrinking kernels
    /// while the adaptive criterion demands it, then finalize. The runner
    /// (and its pool) is pre-built by [`Self::run`], so every batch —
    /// across windows *and* adaptive iterations — reuses it; windows
    /// therefore report `pool_builds == 0`.
    #[allow(clippy::too_many_arguments)]
    fn adaptive_window(
        &self,
        runner: &ParallelRunner,
        observed: &ObservedData,
        window: TimeWindow,
        window_index: usize,
        ancestors: Option<&ParticleEnsemble>,
        mut proposals: Vec<Proposal>,
        mut rng: Xoshiro256PlusPlus,
        mut stream_setup_nanos: u64,
    ) -> Result<WindowResult, SmcError> {
        // epilint: allow(wall-clock) — telemetry timing only; never feeds simulation state
        let started = std::time::Instant::now();
        let cfg = &self.config;
        // One stats sink for all iterations of this window: adaptive
        // re-proposals accumulate into the same telemetry.
        let ws_stats = Arc::new(WorkspaceStats::default());
        let mut iteration = 0usize;
        let mut grid_chunks = 0u64;
        let mut grid_nanos = 0u64;
        loop {
            grid_chunks += runner.chunk_count(proposals.len() * cfg.n_replicates) as u64;
            // epilint: allow(wall-clock) — telemetry timing only; never feeds simulation state
            let grid_started = std::time::Instant::now();
            // Counter-mode keys with the `(window, iteration)` prefix
            // absorbed once; every worker derives its cell's seeds in
            // O(1).
            let sim_key = StreamKey::new(cfg.seed)
                .absorb(TAG_SIM_SEED)
                .absorb(window_index as u64)
                .absorb(iteration as u64);
            let bias_key = StreamKey::new(cfg.seed)
                .absorb(TAG_BIAS)
                .absorb(window_index as u64)
                .absorb(iteration as u64);
            let candidates = simulate_grid(
                self.simulator,
                runner,
                cfg.n_replicates,
                &proposals,
                ancestors,
                observed,
                window,
                sim_key,
                bias_key,
                &ws_stats,
            )?;
            grid_nanos += grid_started.elapsed().as_nanos() as u64;
            iteration += 1;
            // The calibration-level pool build is never re-charged to a
            // window: `run` pre-builds the runner, so windows report 0.
            let acct = WindowAccounting {
                iterations: iteration,
                pool_builds: 0,
                grid_chunks,
                stream_setup_nanos,
                grid_nanos,
            };

            let adaptive = match &self.adaptive {
                None => {
                    return Ok(finalize_window(
                        window, candidates, cfg, &mut rng, runner, started, acct, &ws_stats,
                    ))
                }
                Some(a) => a,
            };
            let log_w: Vec<f64> = candidates.iter().map(|p| p.log_weight).collect();
            let weights = epistats::logweight::normalize_log_weights(&log_w);
            let current_ess = ess(&weights);
            if iteration >= adaptive.max_iterations
                || current_ess >= adaptive.target_ess_fraction * candidates.len() as f64
            {
                return Ok(finalize_window(
                    window, candidates, cfg, &mut rng, runner, started, acct, &ws_stats,
                ));
            }

            // Re-propose around the weighted candidates with shrunken
            // kernels, inheriting each chosen candidate's ancestor.
            // epilint: allow(wall-clock) — telemetry timing only; never feeds simulation state
            let repropose_started = std::time::Instant::now();
            let decay = adaptive.jitter_decay.powi(iteration as i32);
            let shrink = |k: &JitterKernel| JitterKernel {
                down: (k.down * decay).max(1e-6),
                up: (k.up * decay).max(1e-6),
                ..*k
            };
            let theta_kernels: Vec<JitterKernel> = self.jitter_theta.iter().map(shrink).collect();
            let rho_kernel = shrink(&self.jitter_rho);
            let picks = cfg
                .resample
                .resampler()
                .resample(&weights, cfg.n_params, &mut rng);
            proposals = picks
                .into_iter()
                .map(|ci| {
                    let cand = &candidates[ci];
                    let parent = proposals[ci / cfg.n_replicates].ancestor;
                    Proposal {
                        ancestor: parent,
                        theta: cand
                            .theta
                            .iter()
                            .zip(&theta_kernels)
                            .map(|(&t, k)| k.sample(t, &mut rng))
                            .collect(),
                        rho: rho_kernel.sample(cand.rho, &mut rng),
                    }
                })
                .collect();
            stream_setup_nanos += repropose_started.elapsed().as_nanos() as u64;
        }
    }
}

/// Run and score the `(proposal, replicate)` grid of one window: fresh
/// day-0 runs when `ancestors` is `None`, checkpoint continuations
/// otherwise. Cell `(i, r)` simulates on seed `sim_key.derive(r)` — the
/// replicate index alone, so common random numbers across proposals hold
/// by construction — and thins on `bias_key.derive2(i, r)`.
#[allow(clippy::too_many_arguments)]
fn simulate_grid<S: TrajectorySimulator>(
    simulator: &S,
    runner: &ParallelRunner,
    n_replicates: usize,
    proposals: &[Proposal],
    ancestors: Option<&ParticleEnsemble>,
    observed: &ObservedData,
    window: TimeWindow,
    sim_key: StreamKey,
    bias_key: StreamKey,
    ws_stats: &Arc<WorkspaceStats>,
) -> Result<Vec<Particle>, SmcError> {
    // One observed-side preparation per grid, shared by all workers.
    let prepared = PreparedObserved::build(observed, window)?;
    let results: Vec<Result<Particle, SmcError>> = runner.run_grid_pooled(
        proposals.len(),
        n_replicates,
        || PooledWorkspace::new(Arc::clone(ws_stats)),
        |ws, i, r| {
            let prop = &proposals[i];
            let (sim, scratch) = ws.parts();
            let sim_seed = sim_key.derive(r as u64);
            let (trajectory, checkpoint, origin) = match ancestors {
                None => {
                    let (t, ck) = simulator.run_fresh_in(sim, &prop.theta, sim_seed, window.end)?;
                    (SharedTrajectory::root(t), ckpool::share(ck), None)
                }
                Some(anc_set) => {
                    let anc = &anc_set.particles()[prop.ancestor];
                    let (tail, ck) = simulator.run_from_in(
                        sim,
                        &anc.checkpoint,
                        &prop.theta,
                        sim_seed,
                        window.end,
                    )?;
                    // O(window), not O(history): the ancestor's past —
                    // trajectory *and* origin checkpoint — is shared
                    // structurally, never copied.
                    (
                        anc.trajectory.append(tail),
                        ckpool::share(ck),
                        Some(Arc::clone(&anc.checkpoint)),
                    )
                }
            };
            let bias_seed = bias_key.derive2(i as u64, r as u64);
            // Incremental likelihood: only this window's data.
            // epilint: allow(wall-clock) — telemetry timing only; never feeds simulation state
            let score_started = std::time::Instant::now();
            let log_weight = score_window(
                &trajectory,
                prop.rho,
                bias_seed,
                observed,
                &prepared,
                scratch,
            )?;
            ws.add_score_nanos(score_started.elapsed().as_nanos() as u64);
            Ok(Particle {
                theta: Arc::clone(&prop.theta),
                rho: prop.rho,
                seed: sim_seed,
                log_weight,
                trajectory,
                checkpoint,
                origin,
            })
        },
    );
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Score with a fresh per-window preparation and scratch.
    fn score(
        trajectory: &SharedTrajectory,
        rho: f64,
        bias_seed: u64,
        observed: &ObservedData,
        window: TimeWindow,
    ) -> Result<f64, SmcError> {
        let prepared = PreparedObserved::build(observed, window)?;
        score_window(
            trajectory,
            rho,
            bias_seed,
            observed,
            &prepared,
            &mut ScoreScratch::new(),
        )
    }

    #[test]
    fn observed_series_windowing() {
        let s = ObservedSeries::from_day_one(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.window(1, 3).unwrap(), &[1.0, 2.0, 3.0]);
        assert_eq!(s.window(5, 5).unwrap(), &[5.0]);
        assert!(s.window(0, 2).is_none());
        assert!(s.window(4, 6).is_none());
        assert_eq!(s.end_day(), Some(5));
    }

    #[test]
    fn empty_observed_series_has_no_end_day() {
        // Regression: `start_day + len - 1` underflowed on empty series.
        let empty = ObservedSeries::from_day_one(Vec::new());
        assert_eq!(empty.end_day(), None);
        assert!(empty.window(1, 1).is_none());
        let zero_start = ObservedSeries {
            start_day: 0,
            values: Vec::new(),
        };
        assert_eq!(zero_start.end_day(), None);
    }

    #[test]
    fn observed_data_constructors() {
        let d = ObservedData::cases_only(vec![1.0; 10]);
        assert_eq!(d.sources.len(), 1);
        assert!(d.sources[0].bias.uses_rho());
        let d2 = ObservedData::cases_and_deaths(vec![1.0; 10], vec![0.0; 10]);
        assert_eq!(d2.sources.len(), 2);
        assert!(!d2.sources[1].bias.uses_rho());
        assert_eq!(d2.sources[1].series, "deaths");
    }

    #[test]
    fn score_window_reports_missing_coverage() {
        let traj = SharedTrajectory::empty(vec!["infections".into()], 1);
        let obs = ObservedData::cases_only(vec![1.0; 5]);
        let err = score(&traj, 0.5, 1, &obs, TimeWindow::new(1, 3)).unwrap_err();
        assert!(
            err.to_string().contains("trajectory does not cover"),
            "{err}"
        );
    }

    #[test]
    fn score_window_rejects_preparation_from_other_data() {
        let traj = SharedTrajectory::root({
            let mut s = episim::output::DailySeries::new(vec!["infections".into()], 1);
            for d in 0..5u64 {
                s.push_day(&[10 + d]);
            }
            s
        });
        let one = ObservedData::cases_only(vec![8.0; 5]);
        let two = ObservedData::cases_and_deaths(vec![8.0; 5], vec![1.0; 5]);
        let prepared = PreparedObserved::build(&two, TimeWindow::new(1, 5)).unwrap();
        let err =
            score_window(&traj, 0.8, 3, &one, &prepared, &mut ScoreScratch::new()).unwrap_err();
        assert!(matches!(err, SmcError::Observation(_)), "{err}");
        assert!(err.to_string().contains("2 source(s)"), "{err}");
    }

    #[test]
    fn prepared_build_rejects_a_likelihood_that_drops_days() {
        /// Prepares one value too few.
        struct ShortPrep;
        impl Likelihood for ShortPrep {
            fn log_likelihood(&self, _: &[f64], _: &[f64]) -> f64 {
                0.0
            }
            fn prepare_observed(&self, observed: &[f64], out: &mut Vec<f64>) {
                out.clear();
                out.extend_from_slice(&observed[1..]);
            }
            fn prepared_day_term(&self, _: f64, _: f64) -> f64 {
                0.0
            }
            fn name(&self) -> &'static str {
                "short-prep"
            }
        }
        let mut observed = ObservedData::cases_only(vec![8.0; 5]);
        observed.sources[0].likelihood = Arc::new(ShortPrep);
        let err = PreparedObserved::build(&observed, TimeWindow::new(2, 4)).unwrap_err();
        assert!(matches!(err, SmcError::Observation(_)), "{err}");
        assert!(
            err.to_string().contains("'short-prep' prepared 2 value(s)"),
            "{err}"
        );
    }

    #[test]
    fn score_window_prefers_matching_trajectory() {
        use episim::output::DailySeries;
        let mut good = DailySeries::new(vec!["infections".into()], 1);
        let mut bad = DailySeries::new(vec!["infections".into()], 1);
        for day in 0..5 {
            good.push_day(&[100 + day]);
            bad.push_day(&[500 + day * 10]);
        }
        // Observed ~ 0.8 * good trajectory.
        let observed: Vec<f64> = (0..5).map(|d| 0.8 * (100 + d) as f64).collect();
        let obs = ObservedData::cases_only_with(observed, BiasMode::Mean, 1.0);
        let w = TimeWindow::new(1, 5);
        let good = SharedTrajectory::root(good);
        let bad = SharedTrajectory::root(bad);
        let lg = score(&good, 0.8, 7, &obs, w).unwrap();
        let lb = score(&bad, 0.8, 7, &obs, w).unwrap();
        assert!(lg > lb, "good {lg} should beat bad {lb}");
    }

    #[test]
    fn score_window_bias_draw_is_reproducible() {
        use episim::output::DailySeries;
        let mut traj = DailySeries::new(vec!["infections".into()], 1);
        for _ in 0..5 {
            traj.push_day(&[250]);
        }
        let traj = SharedTrajectory::root(traj);
        let obs = ObservedData::cases_only(vec![200.0; 5]);
        let w = TimeWindow::new(1, 5);
        let a = score(&traj, 0.8, 42, &obs, w).unwrap();
        let b = score(&traj, 0.8, 42, &obs, w).unwrap();
        let c = score(&traj, 0.8, 43, &obs, w).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c); // different bias seed, different thinning draw
    }

    #[test]
    fn day_by_day_scoring_matches_score_window_under_its_bound() {
        use episim::output::DailySeries;
        // Cases (sampled thinning) and deaths, with deaths stored first
        // so the row columns differ from the source order.
        let mut traj = DailySeries::new(vec!["deaths".into(), "infections".into()], 1);
        for d in 0..12u64 {
            traj.push_day(&[d % 3, 40 + 9 * d]);
        }
        let traj = SharedTrajectory::root(traj);
        let cases: Vec<f64> = (0..12).map(|d| (30 + 6 * d) as f64).collect();
        let obs = ObservedData::cases_and_deaths(cases, vec![1.0; 12]);
        let window = TimeWindow::new(4, 10);
        let prepared = PreparedObserved::build(&obs, window).unwrap();
        let want = score_window(&traj, 0.7, 11, &obs, &prepared, &mut ScoreScratch::new()).unwrap();

        // Days 4-6 from the stored trajectory, days 7-12 as simulated
        // rows; day 11 and 12 lie past the window and are not scored.
        let mut sc = ScoreScratch::new();
        sc.begin(&obs, &prepared, 11).unwrap();
        sc.score_stored(&traj, &obs, &prepared, 6, 0.7).unwrap();
        let mut bounds = vec![sc.bound(&prepared).unwrap()];
        for (day, row) in traj.iter_days().filter(|(day, _)| *day > 6) {
            let scored = sc.score_day(&obs, &prepared, &[1, 0], 0.7, day, &row);
            assert_eq!(scored, day <= 10, "day {day}");
            if scored {
                bounds.push(sc.bound(&prepared).unwrap());
            }
        }
        assert_eq!(sc.scored, window.len());
        assert_eq!(sc.total().to_bits(), want.to_bits());
        assert!(bounds.iter().all(|&b| want <= b), "{bounds:?} vs {want}");
        // With every day scored, the bound is the total itself.
        assert_eq!(bounds.last().unwrap().to_bits(), want.to_bits());
    }

    #[test]
    fn score_window_is_segmentation_invariant() {
        use episim::output::DailySeries;
        // The same history, stored as one segment vs three, must score
        // bit-identically (the equivalence the storage refactor rests on).
        let mut flat = DailySeries::new(vec!["infections".into()], 1);
        for d in 0..9u64 {
            flat.push_day(&[100 + 7 * d]);
        }
        let one = SharedTrajectory::root(flat.clone());
        let mut seg1 = DailySeries::new(vec!["infections".into()], 1);
        let mut seg2 = DailySeries::new(vec!["infections".into()], 4);
        let mut seg3 = DailySeries::new(vec!["infections".into()], 7);
        for d in 0..3u64 {
            seg1.push_day(&[100 + 7 * d]);
            seg2.push_day(&[100 + 7 * (d + 3)]);
            seg3.push_day(&[100 + 7 * (d + 6)]);
        }
        let three = SharedTrajectory::root(seg1).append(seg2).append(seg3);
        assert_eq!(one, three);
        let obs = ObservedData::cases_only(vec![90.0; 9]);
        let w = TimeWindow::new(2, 8);
        let a = score(&one, 0.8, 42, &obs, w).unwrap();
        let b = score(&three, 0.8, 42, &obs, w).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
