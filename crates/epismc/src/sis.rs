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
use std::time::{Duration, Instant};

use epistats::logweight::log_mean_exp;
use epistats::rng::{StreamKey, Xoshiro256PlusPlus};
use epistats::summary::ess;

use crate::ckpool::{self, SharedCheckpoint};
use crate::config::{CalibrationConfig, CheckpointPolicy};
use crate::error::SmcError;
use crate::likelihood::{GaussianSqrtLikelihood, Likelihood};
use crate::observation::{BiasMode, BiasModel, BinomialBias, IdentityBias};
use crate::particle::{normalized_weights_par, Particle, ParticleEnsemble};
use crate::persist::{self, ResumeReport, RunSnapshot, RunStore, SnapshotWriter};
use crate::prior::{JitterKernel, Prior};
use crate::ptr_index::PtrIndex;
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

/// The deterministic counters of one calibrated window: the numbers
/// behind the structural-sharing claim (per-window resident trajectory
/// bytes stay roughly flat as windows accumulate, while the
/// flat-equivalent bytes grow linearly) and the work the window did.
///
/// Each counter is a pure function of the run's configuration and data,
/// whatever the thread count or schedule, so the counters are persisted
/// in the window's snapshot record and restored with it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowCounters {
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
    /// Days simulated across the window's whole `(parameter, replicate)`
    /// grid.
    pub days_simulated: u64,
    /// Distinct `SimCheckpoint` allocations backing the posterior
    /// ensemble's `checkpoint`/`origin` references: sharing structure
    /// depends only on resampling ancestry, never on scheduling.
    pub unique_checkpoints: usize,
    /// Total checkpoint references across the posterior ensemble
    /// (`checkpoint` plus `origin`); `checkpoint_refs -
    /// unique_checkpoints` references alias a shared allocation instead
    /// of deep-copying it.
    pub checkpoint_refs: usize,
    /// Durability records written for this window (0 or 1 under the
    /// current policies), given the [`crate::config::CheckpointPolicy`].
    pub records_written: u64,
    /// Per-source scoring passes through the fused day loop (per-day
    /// bias + likelihood term, no materialized observation buffer): one
    /// per source per scored cell.
    pub fused_scores: u64,
    /// Binomial stage-exit draws the chain stepper issued through
    /// `HazardSampler::draw_many` across the window's grid.
    pub batched_draws: u64,
}

/// Wall-clock spans of one calibrated window. They vary from run to run
/// of the same calibration, so they are never persisted: a window
/// restored from a snapshot reads the default, all zero. The type has no
/// `PartialEq`, so no equality check can depend on them.
#[derive(Clone, Copy, Debug, Default)]
pub struct WindowTimings {
    /// The window's wall time from the grid's launch: simulation,
    /// weighting and resampling.
    pub wall: Duration,
    /// Serial per-window stream/proposal setup (prior/jitter sampling
    /// and stream-key construction) before the parallel grid launches.
    pub stream_setup: Duration,
    /// Generating resampling indices and assembling the posterior
    /// ensemble.
    pub resample: Duration,
    /// The part of [`Self::wall`] outside *any* parallel phase — neither
    /// the simulation grid nor the parallelized weight exponentiation:
    /// the log-sum-exp reduction, resampling, posterior assembly over
    /// the distinct resampled candidates and the footprint pass over
    /// them (which no field times on its own). Amdahl's law bounds
    /// strong scaling by it.
    pub serial: Duration,
    /// Time the window loop was *blocked* on durability for this window.
    /// In a batch run that is only the backpressure wait at the
    /// background writer's handoff, and the run's final window
    /// additionally absorbs the writer join (whether or not that window
    /// was itself persisted). A streaming append writes inline and
    /// reports the full encode + write + retention span. Zero for an
    /// unpersisted window.
    pub persist: Duration,
}

/// Measure the posterior ensemble's trajectory and checkpoint footprint
/// by deduplicating on allocation identity, folding in the window's
/// workspace counters.
///
/// The posterior holds each distinct drawn candidate once, with the
/// slots that drew it. Slots share every allocation with their
/// candidate, so one serial pass over the distinct particles sees every
/// segment and checkpoint the posterior holds, and the per-reference
/// totals (`flat_bytes`, `segment_refs`, `checkpoint_refs`) weight each
/// particle by its slot count. Each chain is walked only until the first
/// segment already seen, so the pass costs the distinct particles plus
/// their distinct segments, however large the resample; `segment_refs`
/// comes from the chain depth each segment records.
fn measure_counters(posterior: &ParticleEnsemble, ws_stats: &WorkspaceStats) -> WindowCounters {
    let mut t = WindowCounters {
        days_simulated: ws_stats.days_simulated(),
        fused_scores: ws_stats.fused_scores(),
        batched_draws: ws_stats.batched_draws(),
        ..Default::default()
    };
    let distinct = posterior.distinct();
    let mut counts = vec![0usize; distinct.len()];
    for &s in posterior.slots() {
        counts[s as usize] += 1;
    }
    let mut seen = PtrIndex::with_capacity(4 * distinct.len());
    for (p, &n) in distinct.iter().zip(&counts) {
        t.flat_bytes += n * p.trajectory.flat_bytes();
        t.segment_refs += n * p.trajectory.segment_count();
        let (fresh, _) = p.trajectory.unknown_segments(|id| seen.get(id).is_some());
        for (id, series) in fresh {
            seen.intern(id);
            t.shared_bytes += series.len() * series.names().len() * std::mem::size_of::<u64>();
        }
    }
    t.unique_segments = seen.len();
    let sharing = ckpool::sharing(distinct.iter().zip(&counts).flat_map(|(p, &n)| {
        std::iter::once((&p.checkpoint, n)).chain(p.origin.as_ref().map(|o| (o, n)))
    }));
    t.unique_checkpoints = sharing.unique;
    t.checkpoint_refs = sharing.refs;
    t
}

/// The outcome of calibrating one window. Cloning is O(1) in the
/// ensemble size: each [`ParticleEnsemble`] is one `Arc` bump.
#[derive(Clone, Debug)]
pub struct WindowResult {
    /// The scored window.
    pub window: TimeWindow,
    /// Resampled (uniformly weighted) posterior particles.
    pub posterior: ParticleEnsemble,
    /// The full weighted candidate ensemble, every candidate with its
    /// trajectory and checkpoint, kept only when
    /// [`CalibrationConfig::keep_prior_ensemble`] is set. Only that
    /// setting holds every candidate's payload through the grid: without
    /// it, a candidate too light to be resampled drops its trajectory and
    /// checkpoint as soon as it is scored.
    pub prior_ensemble: Option<ParticleEnsemble>,
    /// Effective sample size of the importance weights before resampling.
    pub ess: f64,
    /// Log marginal likelihood estimate of the window
    /// (`log mean exp(log w)`).
    pub log_marginal: f64,
    /// Number of distinct candidates surviving the resampling step.
    pub unique_ancestors: usize,
    /// The window's deterministic counters, persisted with it.
    pub telemetry: WindowCounters,
    /// The window's wall-clock spans; the default on a window restored
    /// from a snapshot.
    pub timings: WindowTimings,
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

/// Weight, resample, and package a grid's scored cells into a
/// [`WindowResult`].
///
/// Weight exponentiation fans out elementwise on the grid runner
/// ([`normalized_weights_par`]). The float *reductions* (log-sum-exp,
/// whose summation order is part of the contract), resampling-index
/// generation (a single sequential RNG stream at O(1) alias work per
/// draw), the posterior's assembly and the footprint measurement stay
/// serial. The posterior holds each distinct drawn candidate once plus a
/// `u32` per slot (see [`ParticleEnsemble`]), so assembling it clones one
/// particle per distinct candidate, and the footprint walk costs those
/// candidates plus their distinct segments. The window's wall time runs
/// from `started`, the grid's launch, so the grid span is the time to
/// this call; the resampling span is timed on its own, and the grid span
/// and the weight exponentiation are subtracted from the wall time, so
/// [`WindowTimings::serial`] is the true Amdahl fraction.
///
/// A drawn cell whose payload the grid dropped is rebuilt first: run
/// again through [`Grid::cell`] on the same streams and ancestor
/// checkpoint, on workspaces counting into their own
/// [`WorkspaceStats`], so the window's counters read as if the payload
/// had been kept. A rebuild that does not reproduce the cell's log weight
/// bit for bit fails with [`SmcError::Simulation`].
#[allow(clippy::too_many_arguments)]
fn finalize_window<S: TrajectorySimulator>(
    grid: &Grid<'_, S>,
    mut cells: Vec<Cell>,
    config: &CalibrationConfig,
    rng: &mut Xoshiro256PlusPlus,
    runner: &ParallelRunner,
    started: Instant,
    stream_setup: Duration,
    ws_stats: &WorkspaceStats,
) -> Result<WindowResult, SmcError> {
    let grid_span = started.elapsed();
    let log_w: Vec<f64> = cells.iter().map(|c| c.log_weight).collect();
    // epilint: allow(wall-clock) — telemetry timing only; never feeds simulation state
    let weights_started = Instant::now();
    let weights = normalized_weights_par(&log_w, runner);
    let weights_span = weights_started.elapsed();
    let window_ess = ess(&weights);
    let log_marginal = log_mean_exp(&log_w);

    // epilint: allow(wall-clock) — telemetry timing only; never feeds simulation state
    let resample_started = Instant::now();
    let idx = config
        .resample
        .resampler()
        .resample(&weights, config.resample_size, rng);
    // Each distinct drawn candidate, in candidate order.
    let mut draws = vec![0u32; cells.len()];
    for &k in &idx {
        draws[k] += 1;
    }
    let drawn: Vec<usize> = (0..cells.len()).filter(|&k| draws[k] > 0).collect();
    let unique_ancestors = drawn.len();

    let lost: Vec<usize> = drawn
        .iter()
        .copied()
        .filter(|&k| cells[k].payload.is_none())
        .collect();
    if !lost.is_empty() {
        let rebuild_stats = Arc::new(WorkspaceStats::default());
        let rebuilt = runner.run_grid_pooled(
            lost.len(),
            1,
            || PooledWorkspace::new(Arc::clone(&rebuild_stats)),
            |ws, j, _| grid.cell(ws, lost[j]),
        );
        for (&k, cell) in lost.iter().zip(rebuilt) {
            let cell = cell?;
            if cell.log_weight.to_bits() != cells[k].log_weight.to_bits() {
                return Err(SmcError::Simulation(format!(
                    "grid cell {k} scored {} when run again, {} the first time: the \
                     simulator's runs are not pure functions of (theta, seed, checkpoint, \
                     end day)",
                    cell.log_weight, cells[k].log_weight
                )));
            }
            cells[k] = cell;
        }
    }

    // The posterior: each drawn candidate once, and each slot the index
    // of its candidate among them (`draws` is reused as that map).
    let mut distinct = Vec::with_capacity(drawn.len());
    for (d, &k) in drawn.iter().enumerate() {
        draws[k] = d as u32;
        distinct.push(cells[k].particle()?);
    }
    let slots = idx.iter().map(|&k| draws[k]).collect();
    let mut posterior = ParticleEnsemble::from_slots(distinct, slots);
    posterior.set_uniform_weights();
    let resample = resample_started.elapsed();
    let telemetry = measure_counters(&posterior, ws_stats);
    let prior_ensemble = if config.keep_prior_ensemble {
        let all = cells.iter().map(Cell::particle).collect::<Result<_, _>>()?;
        Some(ParticleEnsemble::from_vec(all))
    } else {
        None
    };

    let wall = started.elapsed();
    Ok(WindowResult {
        window: grid.window,
        posterior,
        prior_ensemble,
        ess: window_ess,
        log_marginal,
        unique_ancestors,
        telemetry,
        timings: WindowTimings {
            wall,
            stream_setup,
            resample,
            // Everything the window spent outside its parallel phases —
            // the grid and the weight exponentiation above — is the
            // serial fraction strong scaling is bounded by.
            serial: wall.saturating_sub(grid_span + weights_span),
            persist: Duration::ZERO,
        },
        rejuvenation: None,
    })
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
    /// Panics if [`Self::try_new`] fails; use it to handle an invalid
    /// configuration without panicking.
    pub fn new(simulator: &'a S, config: CalibrationConfig) -> Self {
        // epilint: allow(panic-unwrap) — documented panicking convenience wrapper over try_new
        Self::try_new(simulator, config).expect("invalid CalibrationConfig or worker pool")
    }

    /// Fallible constructor: validates the configuration and pre-builds
    /// the runner and its worker pool once for the driver's lifetime —
    /// repeated [`Self::run`] calls reuse it.
    ///
    /// # Errors
    /// Returns [`SmcError::Config`] if the configuration is invalid or a
    /// worker thread cannot be spawned.
    pub fn try_new(simulator: &'a S, config: CalibrationConfig) -> Result<Self, SmcError> {
        config.validate()?;
        let runner = ParallelRunner::new(config.threads)?;
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
        let setup_started = Instant::now();
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
        let stream_setup = setup_started.elapsed();

        let runner = &self.runner;
        let ws_stats = Arc::new(WorkspaceStats::default());
        // epilint: allow(wall-clock) — telemetry timing only; never feeds simulation state
        let started = Instant::now();
        let grid = Grid::new(
            self.simulator,
            cfg.n_replicates,
            &proposals,
            None,
            observed,
            window,
            sim_key,
            bias_key,
        )?;
        let cells = simulate_grid(&grid, runner, &ws_stats, drop_margin(cfg, grid.cells()))?;
        finalize_window(
            &grid,
            cells,
            cfg,
            &mut rng,
            runner,
            started,
            stream_setup,
            &ws_stats,
        )
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
        config.validate()?;
        Ok(Self {
            simulator,
            config,
            jitter_theta,
            jitter_rho,
        })
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
        policy.validate()?;
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
        policy.validate()?;
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
            telemetry: snap.telemetry,
            timings: WindowTimings::default(),
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
    /// weight the window's grid in one pass, resample, and — when the
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
    /// The runner (and its pool) is pre-built by the caller.
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
        let setup_started = Instant::now();
        let cfg = &self.config;
        let mut rng = Xoshiro256PlusPlus::from_stream(cfg.seed, &[TAG_WINDOW, widx as u64]);
        let proposals: Vec<Proposal> = match prev {
            // Window 1: Algorithm 1 from the prior.
            None => (0..cfg.n_params)
                .map(|_| Proposal {
                    ancestor: 0,
                    theta: priors.theta.iter().map(|p| p.sample(&mut rng)).collect(),
                    rho: priors.rho.sample(&mut rng),
                })
                .collect(),
            Some(ancestors) => {
                let n_anc = ancestors.len() as u64;
                (0..cfg.n_params)
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
                    .collect()
            }
        };
        // Counter-mode keys with the window prefix absorbed once; every
        // worker derives its cell's seeds in O(1). The `0` after the
        // window index is a fixed slot of the stream layout (DESIGN §11).
        let sim_key = StreamKey::new(cfg.seed)
            .absorb(TAG_SIM_SEED)
            .absorb(widx as u64)
            .absorb(0);
        let bias_key = StreamKey::new(cfg.seed)
            .absorb(TAG_BIAS)
            .absorb(widx as u64)
            .absorb(0);
        let stream_setup = setup_started.elapsed();

        // epilint: allow(wall-clock) — telemetry timing only; never feeds simulation state
        let started = Instant::now();
        let ws_stats = Arc::new(WorkspaceStats::default());
        let grid = Grid::new(
            self.simulator,
            cfg.n_replicates,
            &proposals,
            prev,
            observed,
            window,
            sim_key,
            bias_key,
        )?;
        let cells = simulate_grid(&grid, runner, &ws_stats, drop_margin(cfg, grid.cells()))?;
        let mut result = finalize_window(
            &grid,
            cells,
            cfg,
            &mut rng,
            runner,
            started,
            stream_setup,
            &ws_stats,
        )?;
        if let crate::config::RejuvenationKernel::Pmmh(pmmh) = &cfg.rejuvenation {
            let stats = crate::rejuvenate::pmmh_rejuvenate_window(
                self.simulator,
                &mut result.posterior,
                observed,
                window,
                pmmh,
                &self.jitter_theta,
                &self.jitter_rho,
                cfg.seed,
                widx,
                runner,
            )?;
            result.rejuvenation = Some(stats);
        }
        Ok(result)
    }

    /// Build the snapshot persisted for window `widx`, counting the
    /// record in the result's counters. The snapshot holds the counters
    /// and no timing, so its record is a pure function of the run: the
    /// same bytes across runs, thread counts, and a batch run and a
    /// stream.
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
        // One runner — and therefore one worker pool — for the whole
        // calibration run, hoisted out of the per-window batch loop.
        let runner = ParallelRunner::new(self.config.threads)?;
        let fingerprint = self.fingerprint();
        let mut windows: Vec<WindowResult> = Vec::with_capacity(plan.len());
        let resume = restored.as_ref().map(|(widx, _)| ResumeReport {
            resumed_window: *widx as u32,
            recoveries,
        });
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
                        result.timings.persist = w.submit(snap)?;
                    }
                }
                windows.push(result);
            }

            // Drain the pipeline: wait for every outstanding background
            // write, surface its first error, and attribute the join wait
            // to the final window.
            if let Some((w, _)) = writer.take() {
                let joined = w.finish()?;
                if let Some(last) = windows.last_mut() {
                    last.timings.persist += joined;
                }
            }
            Ok(CalibrationResult { windows, resume })
        })
    }
}

/// One window's `(proposal, replicate)` grid: everything a cell's run
/// and score depend on. Cell `(i, r)` runs fresh from day 0 when
/// `ancestors` is `None` and continues its proposal's ancestor otherwise,
/// simulates on seed `sim_key.derive(r)` — the replicate index alone, so
/// common random numbers across proposals hold by construction — and
/// thins on `bias_key.derive2(i, r)`. Every stream a cell draws derives
/// from its coordinates, so any cell can be run again bit for bit.
struct Grid<'a, S: TrajectorySimulator> {
    simulator: &'a S,
    n_replicates: usize,
    proposals: &'a [Proposal],
    ancestors: Option<&'a ParticleEnsemble>,
    observed: &'a ObservedData,
    /// One observed-side preparation per grid, shared by all workers.
    prepared: PreparedObserved,
    window: TimeWindow,
    sim_key: StreamKey,
    bias_key: StreamKey,
}

/// The payload a grid cell may drop: its trajectory, checkpoint and
/// origin (see [`Particle`]).
type Payload = (SharedTrajectory, SharedCheckpoint, Option<SharedCheckpoint>);

/// One scored grid cell: a [`Particle`] whose payload is `None` once the
/// grid dropped it (see [`simulate_grid`]).
struct Cell {
    theta: Arc<[f64]>,
    rho: f64,
    seed: u64,
    log_weight: f64,
    payload: Option<Payload>,
}

impl Cell {
    /// The cell's particle.
    ///
    /// # Errors
    /// [`SmcError::Simulation`] if the grid dropped the cell's payload.
    fn particle(&self) -> Result<Particle, SmcError> {
        let (trajectory, checkpoint, origin) = self
            .payload
            .clone()
            .ok_or_else(|| SmcError::Simulation("a resampled grid cell was not rebuilt".into()))?;
        Ok(Particle {
            theta: Arc::clone(&self.theta),
            rho: self.rho,
            seed: self.seed,
            log_weight: self.log_weight,
            trajectory,
            checkpoint,
            origin,
        })
    }
}

impl<'a, S: TrajectorySimulator> Grid<'a, S> {
    /// The grid of `proposals` × `n_replicates` cells scored on `window`.
    ///
    /// # Errors
    /// [`SmcError::Observation`] if the observed data do not cover the
    /// window (see [`PreparedObserved::build`]).
    #[allow(clippy::too_many_arguments)]
    fn new(
        simulator: &'a S,
        n_replicates: usize,
        proposals: &'a [Proposal],
        ancestors: Option<&'a ParticleEnsemble>,
        observed: &'a ObservedData,
        window: TimeWindow,
        sim_key: StreamKey,
        bias_key: StreamKey,
    ) -> Result<Self, SmcError> {
        Ok(Self {
            simulator,
            n_replicates,
            proposals,
            ancestors,
            observed,
            prepared: PreparedObserved::build(observed, window)?,
            window,
            sim_key,
            bias_key,
        })
    }

    /// Cells in the grid.
    fn cells(&self) -> usize {
        self.proposals.len() * self.n_replicates
    }

    /// Run and score cell `k` (row-major: proposal `k / n_replicates`,
    /// replicate `k % n_replicates`) on `ws` — the one cell function the
    /// grid pass and [`finalize_window`]'s rebuild share.
    fn cell(&self, ws: &mut PooledWorkspace, k: usize) -> Result<Cell, SmcError> {
        let (i, r) = (k / self.n_replicates, k % self.n_replicates);
        let prop = &self.proposals[i];
        let (sim, scratch) = ws.parts();
        let sim_seed = self.sim_key.derive(r as u64);
        let (trajectory, checkpoint, origin) = match self.ancestors {
            None => {
                let (t, ck) =
                    self.simulator
                        .run_fresh_in(sim, &prop.theta, sim_seed, self.window.end)?;
                (SharedTrajectory::root(t), ckpool::share(ck), None)
            }
            Some(anc_set) => {
                let anc = &anc_set.particles()[prop.ancestor];
                let (tail, ck) = self.simulator.run_from_in(
                    sim,
                    &anc.checkpoint,
                    &prop.theta,
                    sim_seed,
                    self.window.end,
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
        let bias_seed = self.bias_key.derive2(i as u64, r as u64);
        // Incremental likelihood: only this window's data.
        let log_weight = score_window(
            &trajectory,
            prop.rho,
            bias_seed,
            self.observed,
            &self.prepared,
            scratch,
        )?;
        Ok(Cell {
            theta: Arc::clone(&prop.theta),
            rho: prop.rho,
            seed: sim_seed,
            log_weight,
            payload: Some((trajectory, checkpoint, origin)),
        })
    }
}

/// How far, in log weight, a grid cell may fall below the best its worker
/// has scored before [`simulate_grid`] drops its payload:
/// `ln(cells · resample_size) + 28`, or `+∞` — keep every payload — when
/// the configuration keeps the prior ensemble.
///
/// A dropped cell's normalized weight is below `e^-margin`, and each
/// resampler draws a cell with probability at most `resample_size`
/// times its weight, so the chance that resampling draws any dropped
/// cell of the window is below `e^-28 ≈ 7·10⁻¹³`. A drawn one is rebuilt
/// (see [`finalize_window`]), so the margin decides only memory and the
/// odds of a rebuild, never a result.
fn drop_margin(config: &CalibrationConfig, cells: usize) -> f64 {
    if config.keep_prior_ensemble {
        f64::INFINITY
    } else {
        (cells as f64 * config.resample_size as f64).ln() + 28.0
    }
}

/// Run and score every cell of `grid`. Each worker tracks the best log
/// weight it has scored in the grid and drops the payload of a cell
/// whose log weight lies more than `margin` below that best as soon as
/// the cell is scored, so the grid holds the trajectories and
/// checkpoints of the cells resampling can draw, not of every cell (see
/// [`drop_margin`]). θ, ρ, seed and log weight stay for every cell.
fn simulate_grid<S: TrajectorySimulator>(
    grid: &Grid<'_, S>,
    runner: &ParallelRunner,
    ws_stats: &Arc<WorkspaceStats>,
    margin: f64,
) -> Result<Vec<Cell>, SmcError> {
    let results: Vec<Result<Cell, SmcError>> = runner.run_grid_pooled(
        grid.proposals.len(),
        grid.n_replicates,
        || {
            (
                PooledWorkspace::new(Arc::clone(ws_stats)),
                f64::NEG_INFINITY,
            )
        },
        |(ws, best), i, r| {
            let mut cell = grid.cell(ws, i * grid.n_replicates + r)?;
            *best = best.max(cell.log_weight);
            if cell.log_weight < *best - margin {
                cell.payload = None;
            }
            Ok(cell)
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
        #[derive(Debug)]
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

    /// The footprint counters of a posterior, recomputed by walking every
    /// chain to its root and visiting every checkpoint reference (the
    /// reference `tests/stream_constant_cost.rs` uses).
    fn full_walk(posterior: &ParticleEnsemble) -> [usize; 6] {
        use std::collections::BTreeSet;
        let bytes = |s: &episim::output::DailySeries| {
            s.len() * s.names().len() * std::mem::size_of::<u64>()
        };
        let (mut segments, mut checkpoints) = (BTreeSet::new(), BTreeSet::new());
        let (mut refs, mut shared, mut flat, mut ck_refs) = (0, 0, 0, 0);
        for p in posterior.particles() {
            let (chain, _) = p.trajectory.unknown_segments(|_| false);
            refs += chain.len();
            for (id, series) in chain {
                flat += bytes(series);
                if segments.insert(id) {
                    shared += bytes(series);
                }
            }
            for ck in std::iter::once(&p.checkpoint).chain(&p.origin) {
                checkpoints.insert(Arc::as_ptr(ck));
                ck_refs += 1;
            }
        }
        [
            refs,
            segments.len(),
            shared,
            flat,
            checkpoints.len(),
            ck_refs,
        ]
    }

    fn footprint(t: &WindowCounters) -> [usize; 6] {
        [
            t.segment_refs,
            t.unique_segments,
            t.shared_bytes,
            t.flat_bytes,
            t.unique_checkpoints,
            t.checkpoint_refs,
        ]
    }

    #[test]
    fn pmmh_window_footprint_describes_the_posterior_its_moves_start_from() {
        use crate::config::{PmmhConfig, RejuvenationKernel};
        use crate::prior::{BetaPrior, JitterKernel, UniformPrior};
        use crate::simulator::{SeirSimulator, TrajectorySimulator};
        use episim::seir::SeirParams;

        let sim = SeirSimulator::new(SeirParams {
            population: 20_000,
            initial_exposed: 40,
            ..SeirParams::default()
        })
        .unwrap();
        let (truth, _) = sim.run_fresh(&[0.45], 5, 40).unwrap();
        let observed = ObservedData::cases_only(truth.series_f64("infections").unwrap());
        let priors = Priors {
            theta: vec![Box::new(UniformPrior::new(0.1, 0.9))],
            rho: Box::new(BetaPrior::new(100.0, 1.0)),
        };
        let calibrator = |kernel| {
            let config = CalibrationConfig::builder()
                .n_params(20)
                .n_replicates(2)
                .resample_size(200)
                .seed(23)
                .rejuvenation(kernel)
                .build();
            SequentialCalibrator::new(
                &sim,
                config,
                vec![JitterKernel::symmetric(0.08, 0.05, 0.95)],
                JitterKernel::asymmetric(0.05, 0.08, 0.05, 1.0),
            )
        };
        let pmmh = calibrator(RejuvenationKernel::Pmmh(PmmhConfig::default()));
        // Everything before the move pass ignores the kernel, so the
        // jitter twin computes each window's pre-move posterior.
        let twin = calibrator(RejuvenationKernel::UniformJitter);
        let runner = ParallelRunner::new(Some(2)).unwrap();
        let mut prev: Option<ParticleEnsemble> = None;
        for (widx, &window) in [
            TimeWindow::new(8, 19),
            TimeWindow::new(20, 29),
            TimeWindow::new(30, 40),
        ]
        .iter()
        .enumerate()
        {
            let moved = pmmh
                .compute_window(&runner, &priors, &observed, window, widx, prev.as_ref())
                .unwrap();
            let start = twin
                .compute_window(&runner, &priors, &observed, window, widx, prev.as_ref())
                .unwrap();
            let stats = moved.rejuvenation.unwrap();
            assert!(stats.accepted > 0, "window {widx}: no move accepted");
            assert!(start.unique_ancestors < start.posterior.len());
            assert_eq!(
                footprint(&moved.telemetry),
                full_walk(&start.posterior),
                "window {widx}: [segment_refs, unique_segments, shared_bytes, flat_bytes, \
                 unique_checkpoints, checkpoint_refs]"
            );
            assert_eq!(footprint(&start.telemetry), footprint(&moved.telemetry));
            // The next window proposes from moved particles, whose fresh
            // tails and checkpoints its footprint must count.
            prev = Some(moved.posterior);
        }
    }

    /// One window of `sim` from `proposals` (continuing `ancestors`, if
    /// any) through `simulate_grid` and `finalize_window` under drop
    /// margin `margin`, with the keys and generator a sequential window
    /// `widx` uses. Returns the result and the `(theta[0] bits, seed)` of
    /// each cell whose payload the grid dropped.
    #[allow(clippy::too_many_arguments)]
    fn grid_window<S: TrajectorySimulator>(
        sim: &S,
        config: &CalibrationConfig,
        runner: &ParallelRunner,
        observed: &ObservedData,
        proposals: &[Proposal],
        ancestors: Option<&ParticleEnsemble>,
        window: TimeWindow,
        widx: u64,
        margin: f64,
    ) -> Result<(WindowResult, Vec<(u64, u64)>), SmcError> {
        let key = |tag| {
            StreamKey::new(config.seed)
                .absorb(tag)
                .absorb(widx)
                .absorb(0)
        };
        let grid = Grid::new(
            sim,
            config.n_replicates,
            proposals,
            ancestors,
            observed,
            window,
            key(TAG_SIM_SEED),
            key(TAG_BIAS),
        )?;
        let stats = Arc::new(WorkspaceStats::default());
        let cells = simulate_grid(&grid, runner, &stats, margin)?;
        let dropped = cells
            .iter()
            .filter(|c| c.payload.is_none())
            .map(|c| (c.theta[0].to_bits(), c.seed))
            .collect();
        let mut rng = Xoshiro256PlusPlus::from_stream(config.seed, &[TAG_WINDOW, widx]);
        let result = finalize_window(
            &grid,
            cells,
            config,
            &mut rng,
            runner,
            Instant::now(),
            Duration::ZERO,
            &stats,
        )?;
        Ok((result, dropped))
    }

    /// A small SEIR epidemic observed on days 1–40, scored with a wide
    /// likelihood so that resampling draws many distinct cells.
    fn seir_setup() -> (crate::simulator::SeirSimulator, ObservedData) {
        use crate::simulator::SeirSimulator;
        use episim::seir::SeirParams;
        let sim = SeirSimulator::new(SeirParams {
            population: 20_000,
            initial_exposed: 40,
            ..SeirParams::default()
        })
        .unwrap();
        let (truth, _) = sim.run_fresh(&[0.45], 5, 40).unwrap();
        let cases = truth.series_f64("infections").unwrap();
        (
            sim,
            ObservedData::cases_only_with(cases, BiasMode::Sampled, 4.0),
        )
    }

    /// `n` proposals: drawn from a uniform prior when `ancestors` is
    /// `None`, else jittered around ancestors picked in turn.
    fn proposals(n: usize, ancestors: Option<&ParticleEnsemble>) -> Vec<Proposal> {
        use crate::prior::UniformPrior;
        let mut rng = Xoshiro256PlusPlus::new(77);
        let kernel = JitterKernel::symmetric(0.05, 0.05, 0.95);
        (0..n)
            .map(|i| match ancestors {
                None => Proposal {
                    ancestor: 0,
                    theta: Arc::from(vec![UniformPrior::new(0.1, 0.9).sample(&mut rng)]),
                    rho: UniformPrior::new(0.6, 1.0).sample(&mut rng),
                },
                Some(anc) => {
                    let a = i % anc.len();
                    let p = &anc.particles()[a];
                    Proposal {
                        ancestor: a,
                        theta: Arc::from(vec![kernel.sample(p.theta[0], &mut rng)]),
                        rho: kernel.sample(p.rho, &mut rng),
                    }
                }
            })
            .collect()
    }

    /// Every deterministic output of a window: the posterior's inputs,
    /// trajectories and checkpoint bytes, the window statistics, and the
    /// counters a rebuild must leave alone.
    fn window_bits(w: &WindowResult) -> Vec<u64> {
        let mut bits = vec![
            w.log_marginal.to_bits(),
            w.ess.to_bits(),
            w.unique_ancestors as u64,
            w.telemetry.days_simulated,
            w.telemetry.batched_draws,
            w.telemetry.fused_scores,
        ];
        bits.extend(footprint(&w.telemetry).map(|x| x as u64));
        let mut bytes = Vec::new();
        for p in w.posterior.particles() {
            bits.extend(p.theta.iter().map(|t| t.to_bits()));
            bits.extend([p.rho.to_bits(), p.seed, p.log_weight.to_bits()]);
            for (_, row) in p.trajectory.iter_days() {
                bits.extend(row.iter().copied());
            }
            bytes.clear();
            for ck in std::iter::once(&p.checkpoint).chain(&p.origin) {
                ckpool::encode_into(ck, &mut bytes);
            }
            bits.extend(bytes.iter().map(|&b| u64::from(b)));
        }
        bits
    }

    #[test]
    fn rebuilt_cells_are_bit_identical_to_kept_ones() {
        use crate::config::ResampleScheme;
        let (sim, observed) = seir_setup();
        let windows = [TimeWindow::new(8, 22), TimeWindow::new(23, 40)];
        for scheme in [
            ResampleScheme::Multinomial,
            ResampleScheme::Systematic,
            ResampleScheme::Stratified,
            ResampleScheme::Residual,
        ] {
            let config = CalibrationConfig::builder()
                .n_params(30)
                .n_replicates(4)
                .resample_size(200)
                .resample(scheme)
                .seed(41)
                .build();
            let mut reference: Vec<Vec<u64>> = Vec::new();
            for threads in [1, 2, 4] {
                let runner = ParallelRunner::new(Some(threads)).unwrap();
                let mut ancestors: Option<ParticleEnsemble> = None;
                for (widx, &window) in windows.iter().enumerate() {
                    let proposals = proposals(config.n_params, ancestors.as_ref());
                    let run = |margin| {
                        grid_window(
                            &sim,
                            &config,
                            &runner,
                            &observed,
                            &proposals,
                            ancestors.as_ref(),
                            window,
                            widx as u64,
                            margin,
                        )
                        .unwrap()
                    };
                    let (kept, none_dropped) = run(f64::INFINITY);
                    let (rebuilt, dropped) = run(0.0);
                    let at = format!("{scheme:?}, {threads} thread(s), window {widx}");
                    assert!(none_dropped.is_empty(), "{at}");
                    let drawn_dropped = kept
                        .posterior
                        .particles()
                        .iter()
                        .filter(|p| dropped.contains(&(p.theta[0].to_bits(), p.seed)))
                        .count();
                    assert!(drawn_dropped > 0, "{at}: no drawn cell was rebuilt");
                    let bits = window_bits(&kept);
                    assert!(bits == window_bits(&rebuilt), "{at}: rebuild changed a bit");
                    match reference.get(widx) {
                        Some(r) => assert!(*r == bits, "{at}: thread count changed a bit"),
                        None => reference.push(bits),
                    }
                    ancestors = Some(kept.posterior);
                }
            }
        }
    }

    #[test]
    fn a_simulator_that_does_not_reproduce_a_run_is_refused() {
        use crate::simulator::SeirSimulator;
        use episim::checkpoint::SimCheckpoint;
        use episim::output::DailySeries;
        use std::sync::atomic::{AtomicU64, Ordering};

        /// SEIR whose every run draws on its seed plus the number of
        /// runs made before it: no two runs of one cell agree.
        struct CallCounted {
            inner: SeirSimulator,
            calls: AtomicU64,
        }
        impl CallCounted {
            fn seed(&self, seed: u64) -> u64 {
                seed.wrapping_add(self.calls.fetch_add(1, Ordering::Relaxed))
            }
        }
        impl TrajectorySimulator for CallCounted {
            fn theta_dim(&self) -> usize {
                self.inner.theta_dim()
            }
            fn output_names(&self) -> Vec<String> {
                self.inner.output_names()
            }
            fn run_fresh(
                &self,
                theta: &[f64],
                seed: u64,
                end_day: u32,
            ) -> Result<(DailySeries, SimCheckpoint), SmcError> {
                self.inner.run_fresh(theta, self.seed(seed), end_day)
            }
            fn run_from(
                &self,
                ck: &SimCheckpoint,
                theta: &[f64],
                seed: u64,
                end_day: u32,
            ) -> Result<(DailySeries, SimCheckpoint), SmcError> {
                self.inner.run_from(ck, theta, self.seed(seed), end_day)
            }
        }

        let (inner, observed) = seir_setup();
        let sim = CallCounted {
            inner,
            calls: AtomicU64::new(0),
        };
        let config = CalibrationConfig::builder()
            .n_params(30)
            .n_replicates(4)
            .resample_size(200)
            .seed(41)
            .build();
        let runner = ParallelRunner::new(Some(1)).unwrap();
        let window = TimeWindow::new(8, 22);
        let proposals = proposals(config.n_params, None);
        let run = |margin| {
            grid_window(
                &sim, &config, &runner, &observed, &proposals, None, window, 0, margin,
            )
        };
        // Run once, the simulator's impurity goes unseen.
        let (first, _) = run(f64::INFINITY).unwrap();
        let calls = sim.calls.load(Ordering::Relaxed);
        assert_eq!(calls, 120);
        // Run again for a drawn cell, it is refused.
        let err = run(0.0).unwrap_err();
        assert!(matches!(err, SmcError::Simulation(_)), "{err}");
        assert!(err.to_string().contains("not pure functions"), "{err}");
        assert!(sim.calls.load(Ordering::Relaxed) > 2 * calls);
        assert!(first.unique_ancestors > 1);
    }
}
