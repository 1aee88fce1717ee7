//! The report of one sequential calibration: every number Figs 4 and 5
//! print, as data.
//!
//! Two estimates of the same run sit side by side:
//!
//! * **Filtering**, per window, from that window's own posterior — the
//!   estimate the scheme actually produces: θ and ρ against truth, the
//!   ESS as a fraction of the window's `n_params × n_replicates`
//!   candidates, the joint (θ, ρ) KDE, and the 90% coverage of the
//!   window's reported and actual cases.
//! * **Smoothing**, from the final posterior's genealogy: every final
//!   particle carries its ancestors' paths back to the first window, so
//!   its ribbons span the whole plan. Resampling thins those paths
//!   window by window; [`Report::distinct_paths`] counts what is left.
//!
//! [`Report::against`] reads two reports on the same windows: Fig 5's θ
//! sd ratio per window and reported-ribbon width ratio against Fig 4.

use std::collections::BTreeSet;
use std::path::Path;

use epidata::{io::Table, GroundTruth};
use epismc_core::diagnostics::{coverage, joint_density, PosteriorSummary, Ribbon};
use epismc_core::particle::ParticleEnsemble;
use epismc_core::sis::CalibrationResult;
use epismc_core::window::TimeWindow;

use crate::runspec::{RunSpec, SourceSpec};
use crate::section;

/// One window's filtering estimate.
#[derive(Clone, Debug)]
pub struct WindowReport {
    /// The scored window.
    pub window: TimeWindow,
    /// Transmission rate θ.
    pub theta: PosteriorSummary,
    /// True θ on the window's first day.
    pub theta_truth: f64,
    /// Reporting probability ρ.
    pub rho: PosteriorSummary,
    /// True ρ on the window's first day.
    pub rho_truth: f64,
    /// Pre-resampling ESS over the window's `n_params × n_replicates`
    /// candidates, in (0, 1].
    pub ess_fraction: f64,
    /// Distinct candidates the resample drew.
    pub unique_ancestors: usize,
    /// Mode `(θ, ρ)` of the joint KDE over the prior support.
    pub kde_mode: (f64, f64),
    /// Density levels enclosing 50% and 90% of the posterior mass.
    pub kde_levels: (f64, f64),
    /// Posterior correlation of θ and ρ.
    pub corr: f64,
    /// Share of the window's observed cases inside its own 90% ribbon
    /// of reported cases.
    pub reported_coverage: f64,
    /// Share of the window's true cases inside its own 90% ribbon of
    /// actual cases.
    pub actual_coverage: f64,
}

/// A 90% credible ribbon scored against the truth on its days.
#[derive(Clone, Debug)]
pub struct Band {
    /// The ribbon.
    pub ribbon: Ribbon,
    /// The truth on the ribbon's days.
    pub truth: Vec<f64>,
    /// Share of `truth` inside the 90% band.
    pub coverage: f64,
    /// Mean width of the 90% band.
    pub width90: f64,
}

impl Band {
    /// The ribbon of `series` over `ensemble` on days `lo..=hi`, on the
    /// reported scale when `reported`, scored against `truth`, a series
    /// indexed from day 1.
    fn new(
        ensemble: &ParticleEnsemble,
        (series, reported): (&str, bool),
        (lo, hi): (u32, u32),
        truth: &[f64],
    ) -> Result<Self, String> {
        let ribbon = if reported {
            Ribbon::from_ensemble_reported(ensemble, series, lo, hi)?
        } else {
            Ribbon::from_ensemble(ensemble, series, lo, hi)?
        };
        let truth: Vec<f64> = ribbon.days.iter().map(|&d| truth[d as usize - 1]).collect();
        Ok(Self {
            coverage: coverage(&ribbon, &truth),
            width90: ribbon.mean_width_90(),
            ribbon,
            truth,
        })
    }
}

/// Every number a sequential figure prints, as data.
#[derive(Clone, Debug)]
pub struct Report {
    /// The filtering estimate of each window, in plan order.
    pub windows: Vec<WindowReport>,
    /// Final-genealogy ribbon of reported cases (smoothing).
    pub reported: Band,
    /// Final-genealogy ribbon of actual cases (smoothing).
    pub actual: Band,
    /// Final-genealogy ribbon of deaths, when the spec scores them.
    pub deaths: Option<Band>,
    /// Days where the actual-case median lies at or above the
    /// reported-case median.
    pub actual_above_reported: usize,
    /// Distinct infection paths the final posterior holds in each
    /// window.
    pub distinct_paths: Vec<usize>,
}

impl Report {
    /// The report of `result`, `spec`'s calibration against `truth`.
    ///
    /// # Errors
    /// When a posterior trajectory does not cover a window it was
    /// scored on.
    pub fn new(
        spec: &RunSpec,
        truth: &GroundTruth,
        result: &CalibrationResult,
    ) -> Result<Self, String> {
        let candidates = (spec.calibration.n_params * spec.calibration.n_replicates) as f64;
        let last = result.final_posterior();
        let mut windows = Vec::with_capacity(result.windows.len());
        let mut distinct_paths = Vec::with_capacity(result.windows.len());
        let (reported, actual) = (("infections", true), ("infections", false));
        for w in &result.windows {
            let (post, span) = (&w.posterior, (w.window.start, w.window.end));
            let jd = joint_density(post, 0, ((0.05, 0.8), (0.0, 1.0)), 80);
            let day1 = span.0 as usize - 1;
            windows.push(WindowReport {
                window: w.window,
                theta: PosteriorSummary::of_theta(post, 0),
                theta_truth: truth.theta_truth[day1],
                rho: PosteriorSummary::of_rho(post),
                rho_truth: truth.rho_truth[day1],
                ess_fraction: w.ess / candidates,
                unique_ancestors: w.unique_ancestors,
                kde_mode: jd.grid.mode(),
                kde_levels: (jd.level50, jd.level90),
                corr: post.corr_theta_rho(0),
                reported_coverage: Band::new(post, reported, span, &truth.observed_cases)?.coverage,
                actual_coverage: Band::new(post, actual, span, &truth.true_cases)?.coverage,
            });
            let paths: Option<BTreeSet<_>> = last
                .particles()
                .iter()
                .map(|p| p.trajectory.window("infections", span.0, span.1))
                .collect();
            distinct_paths.push(paths.ok_or("report: a final path misses a window")?.len());
        }

        let plan = spec.window_plan();
        let span = (plan.windows()[0].start, plan.horizon());
        let reported = Band::new(last, reported, span, &truth.observed_cases)?;
        let actual = Band::new(last, actual, span, &truth.true_cases)?;
        let deaths = (spec.sources == SourceSpec::CasesDeaths)
            .then(|| Band::new(last, ("deaths", false), span, &truth.deaths))
            .transpose()?;
        let medians = actual.ribbon.q50.iter().zip(&reported.ribbon.q50);
        Ok(Self {
            actual_above_reported: medians.filter(|(a, r)| a >= r).count(),
            windows,
            reported,
            actual,
            deaths,
            distinct_paths,
        })
    }

    /// Print the report's tables to stdout.
    pub fn print(&self) {
        section("per-window posterior vs truth (filtering; ESS% of the n_params x n_replicates candidates)");
        println!("   window  th_mean    th_sd  th_true rho_mean   rho_sd rho_true  ESS%  uniq");
        for w in &self.windows {
            let (t, r) = (&w.theta, &w.rho);
            let values = [t.mean, t.sd, w.theta_truth, r.mean, r.sd, w.rho_truth];
            println!(
                "{:>9}{}{:>6.0}{:>6}",
                label(w.window),
                cols(&values, 3),
                100.0 * w.ess_fraction,
                w.unique_ancestors
            );
        }

        section("per-window joint (theta, rho) KDE and 90% coverage of the window's own cases (filtering)");
        println!("   window  mode_th mode_rho  level50  level90     corr  cov_rep  cov_act");
        for w in &self.windows {
            println!(
                "{:>9}{}{}{:>+9.2}{}",
                label(w.window),
                cols(&[w.kde_mode.0, w.kde_mode.1], 3),
                cols(&[w.kde_levels.0, w.kde_levels.1], 2),
                w.corr,
                cols(&[w.reported_coverage, w.actual_coverage], 2)
            );
        }

        section("final-genealogy ribbons over the whole plan (smoothing)");
        for (
            name,
            Band {
                coverage, width90, ..
            },
        ) in self.bands()
        {
            let name = name.replace('_', " ");
            println!("{name}: 90% coverage {coverage:.2}, mean 90% width {width90:.0}");
        }
        let (above, n) = (self.actual_above_reported, self.reported.ribbon.days.len());
        println!("actual-case median at or above reported median: {above} of {n} days");
        let paths: Vec<String> = self.distinct_paths.iter().map(usize::to_string).collect();
        println!("distinct final paths per window: {}", paths.join(" / "));
    }

    /// Write `parameter_trace.csv` (the per-window numbers),
    /// `ribbons.csv` (the final-genealogy ribbons with their truth) and
    /// `posterior_samples.csv` (each window's `(θ, ρ)` sample from
    /// `result`, for contour plots) under `dir`.
    ///
    /// # Errors
    /// Propagates IO errors.
    pub fn write_csv(&self, result: &CalibrationResult, dir: &Path) -> std::io::Result<()> {
        let col = |f: &dyn Fn(&WindowReport) -> f64| self.windows.iter().map(f).collect();
        Table::from_pairs(vec![
            ("window_start", col(&|w| w.window.start as f64)),
            ("window_end", col(&|w| w.window.end as f64)),
            ("theta_mean", col(&|w| w.theta.mean)),
            ("theta_sd", col(&|w| w.theta.sd)),
            ("theta_true", col(&|w| w.theta_truth)),
            ("rho_mean", col(&|w| w.rho.mean)),
            ("rho_sd", col(&|w| w.rho.sd)),
            ("rho_true", col(&|w| w.rho_truth)),
            ("ess_fraction", col(&|w| w.ess_fraction)),
            ("unique_ancestors", col(&|w| w.unique_ancestors as f64)),
            ("reported_coverage", col(&|w| w.reported_coverage)),
            ("actual_coverage", col(&|w| w.actual_coverage)),
        ])
        .write_csv(&dir.join("parameter_trace.csv"))?;

        let days = self.reported.ribbon.days.iter().map(|&d| d as f64);
        let mut ribbons = vec![("day".to_string(), days.collect())];
        for (name, band) in self.bands() {
            let r = &band.ribbon;
            ribbons.push((format!("{name}_truth"), band.truth.clone()));
            let quantiles = [&r.q05, &r.q25, &r.q50, &r.q75, &r.q95];
            for (q, v) in ["05", "25", "50", "75", "95"].into_iter().zip(quantiles) {
                ribbons.push((format!("{name}_q{q}"), v.clone()));
            }
        }
        let (headers, columns) = ribbons.into_iter().unzip();
        Table { headers, columns }.write_csv(&dir.join("ribbons.csv"))?;

        let mut samples = Table::default();
        for (k, w) in result.windows.iter().enumerate() {
            samples
                .headers
                .extend([format!("w{k}_theta"), format!("w{k}_rho")]);
            samples
                .columns
                .extend([w.posterior.thetas(0), w.posterior.rhos()]);
        }
        samples.write_csv(&dir.join("posterior_samples.csv"))
    }

    /// Fig 5's comparison of this report against `base`, on the same
    /// windows: per window, this run's θ posterior sd over the base's,
    /// and this run's mean 90% width of the reported-case ribbon over
    /// the base's (below 1: this run is tighter).
    pub fn against(&self, base: &Report) -> (Vec<f64>, f64) {
        let windows = base.windows.iter().zip(&self.windows);
        let sd_ratios = windows.map(|(a, b)| b.theta.sd / a.theta.sd.max(1e-12));
        let width_ratio = self.reported.width90 / base.reported.width90.max(1e-12);
        (sd_ratios.collect(), width_ratio)
    }

    /// Print [`Self::against`] `base`, naming this run and the base.
    pub fn print_against(&self, base: &Report, names: (&str, &str)) {
        section(&format!("{} (2) against {} (1)", names.0, names.1));
        println!("   window  th_sd_1  th_sd_2 sd_ratio");
        let (sd_ratios, width_ratio) = self.against(base);
        for ((a, b), ratio) in base.windows.iter().zip(&self.windows).zip(sd_ratios) {
            let sds = cols(&[a.theta.sd, b.theta.sd], 3);
            println!("{:>9}{sds}{}", label(a.window), cols(&[ratio], 2));
        }
        let (from, to) = (base.reported.width90, self.reported.width90);
        println!("reported-case 90% ribbon width: {from:.0} -> {to:.0}  (ratio {width_ratio:.2})");
    }

    /// The final-genealogy bands by name: reported, actual, then deaths
    /// when scored.
    fn bands(&self) -> impl Iterator<Item = (&'static str, &Band)> {
        let cases = [
            ("reported_cases", &self.reported),
            ("actual_cases", &self.actual),
        ];
        cases
            .into_iter()
            .chain(self.deaths.as_ref().map(|d| ("deaths", d)))
    }
}

/// `[start,end]`, a window's row label.
fn label(w: TimeWindow) -> String {
    format!("[{},{}]", w.start, w.end)
}

/// `values` right-aligned in 9-wide columns with `decimals` decimals.
fn cols(values: &[f64], decimals: usize) -> String {
    values.iter().map(|v| format!("{v:>9.decimals$}")).collect()
}
