//! The three closed-loop workloads. One caller thread makes each call
//! into the program only after the previous one returned; the
//! calibrator itself runs on [`WORKERS`] worker threads.
//!
//! Every workload derives its ground truth and its calibration seed from
//! the benchmark's `--seed`; the calibrator only ever sees the generated
//! observations. Output checks run after the timed calls and are never
//! timed.

use std::path::Path;

use epidata::{generate_ground_truth, Scenario};
use episim::checkpoint::SimCheckpoint;
use episim::covid::CovidParams;
use epismc_core::config::{CalibrationConfig, CheckpointPolicy, PmmhConfig, RejuvenationKernel};
use epismc_core::persist::{format, DirStore, RunStore};
use epismc_core::prior::JitterKernel;
use epismc_core::rejuvenate::RejuvenationStats;
use epismc_core::simulator::{CovidSimulator, TrajectorySimulator};
use epismc_core::sis::{ObservedData, ObservedSeries, Priors, SequentialCalibrator, WindowResult};
use epismc_core::stream::StreamingCalibrator;
use epismc_core::window::WindowPlan;
use epismc_core::{ParticleEnsemble, SmcError};

use crate::trace::{self, Kind, Stamp};
use crate::wrap::{TracedSimulator, TracedStore};

/// Worker threads of every calibrator.
pub const WORKERS: usize = 2;

/// Read-only `StreamingCalibrator::open` calls on each finished stream.
const REOPENS: usize = 30;

/// Allowed distance between a `batch_paper` window's posterior mean
/// transmission rate and the scenario's true rate in that window. The
/// truth steps 0.30, 0.27, 0.25, 0.40 across the four windows and the
/// posterior follows each step with some lag: on seeds 1 to 8 the
/// largest miss was 0.037. A calibrator that stopped following the data
/// would stay near the prior mean 0.30 and miss the last window by 0.1.
const THETA_TOLERANCE: f64 = 0.06;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BatchPaper,
    StreamDaily,
    PmmhTwoSource,
}

impl Workload {
    pub const ALL: [Self; 3] = [Self::BatchPaper, Self::StreamDaily, Self::PmmhTwoSource];

    pub fn name(self) -> &'static str {
        match self {
            Self::BatchPaper => "batch_paper",
            Self::StreamDaily => "stream_daily",
            Self::PmmhTwoSource => "pmmh_two_source",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Grid shape: `(n_params, n_replicates, resample_size)`.
    fn shape(self) -> (usize, usize, usize) {
        match self {
            Self::BatchPaper => (1_000, 10, 10_000),
            Self::StreamDaily => (200, 2, 4_096),
            Self::PmmhTwoSource => (1_000, 4, 4_000),
        }
    }

    /// Grid cells per window.
    pub fn cells(self) -> usize {
        let (n, r, _) = self.shape();
        n * r
    }

    pub fn resample_size(self) -> usize {
        self.shape().2
    }

    /// Simulator calls one calibration over `windows` windows makes: the
    /// grid, plus the PMMH move pass's re-simulations.
    pub fn sim_calls(self, windows: usize) -> usize {
        let moves = match self {
            Self::PmmhTwoSource => PmmhConfig::default().moves * self.resample_size(),
            _ => 0,
        };
        windows * (self.cells() + moves)
    }

    /// Observed data sources scored per cell.
    pub fn sources(self) -> usize {
        match self {
            Self::PmmhTwoSource => 2,
            _ => 1,
        }
    }

    fn scenario(self) -> Scenario {
        match self {
            Self::BatchPaper => Scenario::paper_full(),
            Self::StreamDaily => Scenario::slow_burn(),
            Self::PmmhTwoSource => Scenario::paper_small(),
        }
    }

    fn config(self, seed: u64) -> CalibrationConfig {
        let (n_params, n_replicates, resample_size) = self.shape();
        let rejuvenation = match self {
            Self::PmmhTwoSource => RejuvenationKernel::Pmmh(PmmhConfig::default()),
            _ => RejuvenationKernel::UniformJitter,
        };
        CalibrationConfig::builder()
            .n_params(n_params)
            .n_replicates(n_replicates)
            .resample_size(resample_size)
            .seed(seed)
            .threads(WORKERS)
            .rejuvenation(rejuvenation)
            .build()
    }
}

/// The inputs of one dataset: a ground-truth draw and a calibration
/// seed, derived from the run's `--seed` and the dataset's index. A run
/// cycles through datasets so that its medians average over several
/// draws of the data, not one.
#[derive(Clone, Copy, Debug)]
pub struct Inputs {
    pub truth_seed: u64,
    pub calib_seed: u64,
}

impl Inputs {
    pub fn new(seed: u64, dataset: u64) -> Self {
        let base = splitmix(seed).wrapping_add(dataset).wrapping_mul(2);
        Self {
            truth_seed: splitmix(base),
            calib_seed: splitmix(base.wrapping_add(1)),
        }
    }
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Tracing off (the real simulator and store) or on (the traced
/// wrappers and root spans).
pub trait Mode {
    type Sim: TrajectorySimulator;
    type Store: RunStore;
    const TRACED: bool;
    fn sim(inner: CovidSimulator) -> Self::Sim;
    fn store(inner: DirStore) -> Self::Store;
    /// The real store under the mode's store, for untimed checks that
    /// must not appear in the trace.
    fn raw(store: &Self::Store) -> &DirStore;
}

pub struct Untraced;
pub struct Traced;

impl Mode for Untraced {
    type Sim = CovidSimulator;
    type Store = DirStore;
    const TRACED: bool = false;
    fn sim(inner: CovidSimulator) -> Self::Sim {
        inner
    }
    fn store(inner: DirStore) -> Self::Store {
        inner
    }
    fn raw(store: &Self::Store) -> &DirStore {
        store
    }
}

impl Mode for Traced {
    type Sim = TracedSimulator<CovidSimulator>;
    type Store = TracedStore<DirStore>;
    const TRACED: bool = true;
    fn sim(inner: CovidSimulator) -> Self::Sim {
        TracedSimulator::new(inner)
    }
    fn store(inner: DirStore) -> Self::Store {
        TracedStore::new(inner)
    }
    fn raw(store: &Self::Store) -> &DirStore {
        store.inner()
    }
}

/// Time one call into the program; in traced mode also record it as a
/// root span. Returns the result and the elapsed time.
fn root<M: Mode, T>(kind: Kind, call: impl FnOnce() -> T) -> (T, Stamp) {
    let start = Stamp::now();
    let out = call();
    let end = Stamp::now();
    if M::TRACED {
        trace::record(kind, start.wall, end.wall, 0, 0);
    }
    (out, end.since(&start))
}

/// The exact counters one window's result exposes.
#[derive(Clone, Copy, Debug)]
pub struct WindowCounters {
    pub ess: f64,
    pub unique_ancestors: usize,
    pub days_simulated: u64,
    pub batched_draws: u64,
    pub fused_scores: u64,
    pub shared_bytes: usize,
    pub unique_checkpoints: usize,
    pub rejuvenation: Option<RejuvenationStats>,
}

impl WindowCounters {
    fn of(w: &WindowResult) -> Self {
        Self {
            ess: w.ess,
            unique_ancestors: w.unique_ancestors,
            days_simulated: w.telemetry.days_simulated,
            batched_draws: w.telemetry.batched_draws,
            fused_scores: w.telemetry.fused_scores,
            shared_bytes: w.telemetry.shared_bytes,
            unique_checkpoints: w.telemetry.unique_checkpoints,
            rejuvenation: w.rejuvenation,
        }
    }
}

/// What the layer probes run on, taken from the workload itself.
pub struct ProbeInput {
    pub params: CovidParams,
    /// A final-posterior particle's parameters and checkpoint.
    pub theta: Vec<f64>,
    pub checkpoint: SimCheckpoint,
    /// The workload's newest snapshot record, as stored (none without a
    /// store).
    pub record: Option<Vec<u8>>,
}

/// One iteration of a workload: set-up, the timed calls, and checks.
/// Times are nanoseconds.
#[derive(Default)]
pub struct Outcome {
    pub setup: Stamp,
    pub truth: Stamp,
    /// Time to the final posterior: the calibration call, or the sum of
    /// the appends.
    pub calib: Stamp,
    pub appends: Vec<Stamp>,
    pub reopens: Vec<Stamp>,
    /// Sum over the root calls.
    pub roots: Stamp,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub fingerprint: u64,
    pub windows: Vec<WindowCounters>,
    pub probe: Option<ProbeInput>,
}

impl Outcome {
    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.failures.push(why);
    }
}

/// FNV-1a over the bits of every output a run must reproduce.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// A window's outputs and the exact counters it reports.
    fn window(&mut self, w: &WindowResult) {
        self.add(w.log_marginal.to_bits());
        self.add(w.ess.to_bits());
        self.add(w.unique_ancestors as u64);
        let t = &w.telemetry;
        for v in [t.days_simulated, t.batched_draws, t.fused_scores] {
            self.add(v);
        }
        for v in [t.shared_bytes, t.unique_checkpoints] {
            self.add(v as u64);
        }
        if let Some(r) = w.rejuvenation {
            self.add(r.accepted as u64);
            self.add(r.proposed as u64);
        }
        for p in w.posterior.particles() {
            for t in p.theta.iter() {
                self.add(t.to_bits());
            }
            self.add(p.rho.to_bits());
            self.add(p.seed);
        }
    }
}

/// Whether two ensembles carry bit-identical `(theta, rho, seed)` per
/// particle.
fn same_particles(a: &ParticleEnsemble, b: &ParticleEnsemble) -> bool {
    a.len() == b.len()
        && a.particles().iter().zip(b.particles()).all(|(p, q)| {
            p.seed == q.seed
                && p.rho.to_bits() == q.rho.to_bits()
                && p.theta.len() == q.theta.len()
                && p.theta
                    .iter()
                    .zip(q.theta.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

/// A calibrator with the paper figures' jitter kernels.
fn calibrator<S: TrajectorySimulator>(
    sim: &S,
    config: CalibrationConfig,
) -> Result<SequentialCalibrator<'_, S>, SmcError> {
    SequentialCalibrator::try_new(
        sim,
        config,
        vec![JitterKernel::symmetric(0.10, 0.05, 0.8)],
        JitterKernel::asymmetric(0.05, 0.06, 0.05, 1.0),
    )
}

/// The store's newest record, read past the trace.
fn newest_record(store: &DirStore) -> Result<Vec<u8>, String> {
    let newest = store.list().map_err(|e| e.to_string())?.last().copied();
    match newest.map(|w| store.get(w)) {
        Some(Ok(Some(bytes))) => Ok(bytes),
        other => Err(format!("newest store record unreadable: {other:?}")),
    }
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    Ok(())
}

/// Run one iteration of `workload` in `dir`. With `setup_only` the
/// iteration stops after set-up (extra set-up samples). An `Err` is a
/// set-up failure; failed calls and checks are counted in the outcome.
pub fn iterate<M: Mode>(
    workload: Workload,
    inputs: Inputs,
    dir: &Path,
    setup_only: bool,
) -> Result<Outcome, String> {
    match workload {
        Workload::BatchPaper => batch_paper::<M>(inputs, dir, setup_only),
        Workload::StreamDaily => stream_daily::<M>(inputs, dir, setup_only),
        Workload::PmmhTwoSource => pmmh_two_source::<M>(inputs, setup_only),
    }
}

fn batch_paper<M: Mode>(inputs: Inputs, dir: &Path, setup_only: bool) -> Result<Outcome, String> {
    let workload = Workload::BatchPaper;
    let mut out = Outcome::default();
    let scenario = workload.scenario();
    fresh_dir(dir)?;
    let setup_start = Stamp::now();
    let truth = generate_ground_truth(&scenario, inputs.truth_seed);
    out.truth = Stamp::now().since(&setup_start);
    let data = ObservedData::cases_only(truth.observed_cases.clone());
    let sim = M::sim(CovidSimulator::new(scenario.base_params.clone()).map_err(|e| e.to_string())?);
    let store = M::store(DirStore::open(dir).map_err(|e| e.to_string())?);
    let cal = calibrator(&sim, workload.config(inputs.calib_seed)).map_err(|e| e.to_string())?;
    out.setup = Stamp::now().since(&setup_start);
    if setup_only {
        return Ok(out);
    }

    let plan = WindowPlan::paper(scenario.horizon);
    let n_windows = plan.len() as u64;
    let policy = CheckpointPolicy::every_window();
    let (result, took) = root::<M, _>(Kind::Calibrate, || {
        cal.run_persisted(&Priors::paper(), &data, &plan, &store, &policy)
    });
    out.calib = took;
    out.roots.add(&took);
    out.attempted += n_windows;
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            out.fail(n_windows, format!("run_persisted: {e}"));
            return Ok(out);
        }
    };
    let mut fp = Fingerprint::new();
    for w in &result.windows {
        fp.window(w);
        out.windows.push(WindowCounters::of(w));
        let truth_theta =
            mean(&truth.theta_truth[w.window.start as usize - 1..w.window.end as usize]);
        let got = w.posterior.mean_theta(0);
        if (got - truth_theta).abs() > THETA_TOLERANCE {
            out.fail(
                1,
                format!(
                    "window [{}, {}]: posterior mean theta {got:.4} is more than {THETA_TOLERANCE} from the truth {truth_theta:.4}",
                    w.window.start, w.window.end
                ),
            );
        }
    }
    out.fingerprint = fp.0;
    let last = result
        .windows
        .last()
        .ok_or("run_persisted returned no windows")?;

    // The newest record must decode to exactly the returned posterior.
    let record = match newest_record(M::raw(&store)) {
        Ok(bytes) => bytes,
        Err(e) => {
            out.fail(1, e);
            return Ok(out);
        }
    };
    match format::decode_record(&record) {
        Ok(snap)
            if same_particles(&snap.posterior, &last.posterior)
                && snap.log_marginal.to_bits() == last.log_marginal.to_bits() => {}
        Ok(_) => out.fail(
            1,
            "newest store record differs from the returned final posterior".into(),
        ),
        Err(e) => out.fail(1, format!("newest store record does not decode: {e}")),
    }

    if M::TRACED {
        out.probe = Some(probe_input(&scenario, last, Some(record)));
    }
    Ok(out)
}

fn stream_daily<M: Mode>(inputs: Inputs, dir: &Path, setup_only: bool) -> Result<Outcome, String> {
    const FIRST_DAY: u32 = 20;
    let workload = Workload::StreamDaily;
    let mut out = Outcome::default();
    let scenario = workload.scenario();
    fresh_dir(dir)?;
    let setup_start = Stamp::now();
    let truth = generate_ground_truth(&scenario, inputs.truth_seed);
    out.truth = Stamp::now().since(&setup_start);
    let cases = &truth.observed_cases;
    let sim = M::sim(CovidSimulator::new(scenario.base_params.clone()).map_err(|e| e.to_string())?);
    let store = M::store(DirStore::open(dir).map_err(|e| e.to_string())?);
    let config = workload.config(inputs.calib_seed);
    let cal = calibrator(&sim, config.clone()).map_err(|e| e.to_string())?;
    let warmup = ObservedData::cases_only(cases[..FIRST_DAY as usize - 1].to_vec());
    let policy = CheckpointPolicy::every_window();
    let mut stream = StreamingCalibrator::open(cal, Priors::paper(), warmup, &store, policy)
        .map_err(|e| format!("open on the empty store: {e}"))?;
    out.setup = Stamp::now().since(&setup_start);
    if setup_only {
        return Ok(out);
    }

    let mut fp = Fingerprint::new();
    let mut last: Option<WindowResult> = None;
    for day in FIRST_DAY..=scenario.horizon {
        let series = ObservedSeries {
            start_day: day,
            values: vec![cases[day as usize - 1]],
        };
        let (result, took) = root::<M, _>(Kind::Append, || stream.append_window(&series));
        out.attempted += 1;
        match result {
            Ok(w) => {
                out.calib.add(&took);
                out.roots.add(&took);
                out.appends.push(took);
                fp.window(&w);
                out.windows.push(WindowCounters::of(&w));
                last = Some(w);
            }
            Err(e) => {
                // The stream fail-stops: every later append fails too.
                let rest = u64::from(scenario.horizon - day);
                out.attempted += rest;
                out.fail(1 + rest, format!("append_window day {day}: {e}"));
                return Ok(out);
            }
        }
    }
    drop(stream);
    out.fingerprint = fp.0;
    let last = last.ok_or("the stream appended no windows")?;

    // Read-only reopens of the finished store: each must resume after the
    // last window with a posterior bit-identical to the last append's.
    let n_windows = out.appends.len();
    for _ in 0..REOPENS {
        out.attempted += 1;
        let cal = calibrator(&sim, config.clone()).map_err(|e| e.to_string())?;
        let data = ObservedData::cases_only(cases.clone());
        let (opened, took) = root::<M, _>(Kind::Open, || {
            StreamingCalibrator::open(cal, Priors::paper(), data, &store, policy)
        });
        out.roots.add(&took);
        out.reopens.push(took);
        let same = match &opened {
            Ok(s) => {
                s.next_window_index() == n_windows
                    && s.windows().last().is_some_and(|w| {
                        same_particles(&w.posterior, &last.posterior)
                            && w.log_marginal.to_bits() == last.log_marginal.to_bits()
                    })
            }
            Err(_) => false,
        };
        if !same {
            let at = opened.map(|s| s.next_window_index());
            out.fail(
                1,
                format!("reopen resumed at {at:?} without the posterior of window {n_windows}"),
            );
        }
    }
    if M::TRACED {
        out.probe = Some(probe_input(
            &scenario,
            &last,
            Some(newest_record(M::raw(&store))?),
        ));
    }
    Ok(out)
}

fn pmmh_two_source<M: Mode>(inputs: Inputs, setup_only: bool) -> Result<Outcome, String> {
    let workload = Workload::PmmhTwoSource;
    let mut out = Outcome::default();
    let scenario = workload.scenario();
    let setup_start = Stamp::now();
    let truth = generate_ground_truth(&scenario, inputs.truth_seed);
    out.truth = Stamp::now().since(&setup_start);
    let data = ObservedData::cases_and_deaths(truth.observed_cases.clone(), truth.deaths.clone());
    let sim = M::sim(CovidSimulator::new(scenario.base_params.clone()).map_err(|e| e.to_string())?);
    let cal = calibrator(&sim, workload.config(inputs.calib_seed)).map_err(|e| e.to_string())?;
    out.setup = Stamp::now().since(&setup_start);
    if setup_only {
        return Ok(out);
    }

    let plan = WindowPlan::paper(scenario.horizon);
    let n_windows = plan.len() as u64;
    let (result, took) = root::<M, _>(Kind::Calibrate, || cal.run(&Priors::paper(), &data, &plan));
    out.calib = took;
    out.roots.add(&took);
    out.attempted += n_windows;
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            out.fail(n_windows, format!("run: {e}"));
            return Ok(out);
        }
    };
    let mut fp = Fingerprint::new();
    for w in &result.windows {
        fp.window(w);
        out.windows.push(WindowCounters::of(w));
        let acceptance = w.rejuvenation.map(|s| s.acceptance_rate());
        let window_ok =
            w.log_marginal.is_finite() && acceptance.is_some_and(|a| a > 0.0 && a < 1.0);
        if !window_ok {
            out.fail(
                1,
                format!(
                    "window [{}, {}]: log marginal {} and PMMH acceptance {acceptance:?}",
                    w.window.start, w.window.end, w.log_marginal
                ),
            );
        }
    }
    out.fingerprint = fp.0;
    let last = result.windows.last().ok_or("run returned no windows")?;

    if M::TRACED {
        out.probe = Some(probe_input(&scenario, last, None));
    }
    Ok(out)
}

fn probe_input(scenario: &Scenario, last: &WindowResult, record: Option<Vec<u8>>) -> ProbeInput {
    let particle = &last.posterior.particles()[0];
    ProbeInput {
        params: scenario.base_params.clone(),
        theta: particle.theta.to_vec(),
        checkpoint: (*particle.checkpoint).clone(),
        record,
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}
