#![warn(missing_docs)]

//! # epibench — figure regeneration and benchmarking harness
//!
//! One binary per paper figure (see DESIGN.md's experiment index), and
//! one runspec per sequential figure:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig2_ground_truth` | Fig 2 — simulated ground truth |
//! | `fig3_single_window` | Fig 3 — single-window IS on case counts |
//! | `calibrate specs/fig4.json specs/fig5.json` | Figs 4 and 5 — sequential calibration on cases, then on cases and deaths, and Fig 5's comparison (see [`report`]) |
//! | `calibrate specs/fig4_weekly.json` | Fig 4 with its last window, [62, 90], split into four weekly windows |
//! | `scaling` | the HPC claims — thread scaling and checkpoint-restart savings |
//! | `ablation` | resampling schemes, bias modes, window length on the day-62 jump |
//! | `forecast` | operational day-61 forecast across the day-62 jump |
//! | `sbc` | simulation-based calibration rank histograms |
//!
//! Each prints the series/rows behind the figure and writes CSVs under
//! `results/`. Default scale is laptop-friendly; pass `--full` for the
//! paper's 25,000 x 20 ensemble (HPC-sized, [`FULL`]). Bad flags print
//! `<bin>: <reason>` on stderr and exit with status 2 ([`fail`]).
//!
//! Two more binaries are performance gates that time their own runs and
//! answer through their exit status (see [`gate`]): `check_scaling`
//! (parallel efficiency of one 500,000-cell window at 4 threads) and
//! `check_pipelining` (a pipelined persisted calibration against a
//! synchronously written one).

pub mod gate;
pub mod report;
pub mod runspec;

use epidata::Scenario;
use epismc_core::config::CalibrationConfig;
use epismc_core::observation::BiasMode;
use std::str::FromStr;

/// What `--full` selects, as `(scale, n_params, n_replicates,
/// resample_size)`: the paper's configuration (Section V-B), 25,000 θ ×
/// 20 replicates = 500,000 trajectories per window on the 2.7M-person
/// scenario, resampled to 10,000. [`Args`] and `calibrate`'s runspec
/// override share it.
pub const FULL: (&str, usize, usize, usize) = ("full", 25_000, 20, 10_000);

/// Parsed command-line options shared by the figure binaries.
#[derive(Clone, Debug)]
pub struct Args {
    /// Scenario scale: `tiny`, `small` (default), or `full`.
    pub scale: String,
    /// Parameter tuples per window.
    pub n_params: usize,
    /// Replicates per tuple.
    pub n_replicates: usize,
    /// Posterior resample size.
    pub resample_size: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker-pool size for the calibration runner (`None` = the process
    /// default: `RAYON_NUM_THREADS`, else the core count).
    pub threads: Option<usize>,
    /// Binomial bias mode.
    pub bias_mode: BiasMode,
    /// Output directory for CSVs.
    pub out_dir: std::path::PathBuf,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            scale: "small".into(),
            n_params: 1_500,
            n_replicates: 10,
            resample_size: 2_000,
            seed: 20_240_615,
            threads: None,
            bias_mode: BiasMode::Sampled,
            out_dir: "results".into(),
        }
    }
}

impl Args {
    /// The flags this process was started with, applied over `defaults`
    /// (each binary passes its own ensemble). Bad input prints
    /// `<bin>: <reason>` on stderr and exits with status 2 ([`fail`]).
    pub fn parse(bin: &str, defaults: Self) -> Self {
        let parsed = defaults.parse_from(std::env::args().skip(1).collect());
        parsed.unwrap_or_else(|e| fail(bin, 2, e))
    }

    /// Apply the flags in `argv` over `self`.
    ///
    /// # Errors
    /// Names the flag: an unknown one, a missing or malformed value, an
    /// unknown bias mode or scale, or an ensemble that does not
    /// validate.
    pub fn parse_from(mut self, argv: Vec<String>) -> Result<Self, String> {
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--full" => {
                    let (scale, n_params, n_replicates, resample_size) = FULL;
                    self.scale = scale.into();
                    (self.n_params, self.n_replicates, self.resample_size) =
                        (n_params, n_replicates, resample_size);
                }
                "--scale" => {
                    self.scale = flag_value(&mut it, &flag)?;
                    scenario(&self.scale).map_err(|e| format!("{flag}: {e}"))?;
                }
                "--n-params" => self.n_params = flag_value(&mut it, &flag)?,
                "--n-reps" => self.n_replicates = flag_value(&mut it, &flag)?,
                "--resample" => self.resample_size = flag_value(&mut it, &flag)?,
                "--seed" => self.seed = flag_value(&mut it, &flag)?,
                "--threads" => self.threads = Some(flag_value(&mut it, &flag)?),
                "--bias-mode" => {
                    self.bias_mode = match flag_value::<String>(&mut it, &flag)?.as_str() {
                        "sampled" => BiasMode::Sampled,
                        "mean" => BiasMode::Mean,
                        other => return Err(format!("{flag}: 'sampled' or 'mean', got '{other}'")),
                    }
                }
                "--out" => self.out_dir = flag_value::<String>(&mut it, &flag)?.into(),
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --full | --scale tiny|small|full | --n-params N | \
                         --n-reps N | --resample N | --seed N | --threads N | \
                         --bias-mode sampled|mean | --out DIR"
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag '{other}' (try --help)")),
            }
        }
        self.config().validate()?;
        Ok(self)
    }

    /// Build the scenario for the chosen scale.
    ///
    /// # Panics
    /// Panics on an unknown scale name, which [`Self::parse_from`]
    /// refuses.
    pub fn scenario(&self) -> Scenario {
        scenario(&self.scale).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The calibration config for these arguments, which
    /// [`Self::parse_from`] has checked.
    pub fn config(&self) -> CalibrationConfig {
        CalibrationConfig {
            n_params: self.n_params,
            n_replicates: self.n_replicates,
            resample_size: self.resample_size,
            seed: self.seed,
            threads: self.threads,
            ..CalibrationConfig::default()
        }
    }
}

/// The value after `flag` in `it`, parsed.
///
/// # Errors
/// Names the flag when the value is missing or does not parse.
pub fn flag_value<T: FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let v = it
        .next()
        .ok_or_else(|| format!("{flag} requires a value"))?;
    v.parse()
        .map_err(|_| format!("{flag}: expected a non-negative integer, got '{v}'"))
}

/// The paper scenario at `scale`: `tiny`, `small` or `full`.
///
/// # Errors
/// Names an unknown scale.
pub fn scenario(scale: &str) -> Result<Scenario, String> {
    match scale {
        "tiny" => Ok(Scenario::paper_tiny()),
        "small" => Ok(Scenario::paper_small()),
        "full" => Ok(Scenario::paper_full()),
        other => Err(format!("unknown scale '{other}' (tiny|small|full)")),
    }
}

/// Print `<bin>: <reason>` on stderr and exit with `status`: 2 for bad
/// input, 1 for a run that failed.
pub fn fail(bin: &str, status: i32, reason: impl std::fmt::Display) -> ! {
    eprintln!("{bin}: {reason}");
    std::process::exit(status)
}

/// Peak resident set size of this process in MiB: `VmHWM` from
/// `/proc/self/status`, or `None` where that file or line does not exist
/// (off Linux).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// The `done in` footer of a run started at `started`: its wall time and,
/// where the host reports it, the process's peak resident set so far.
pub fn done_in(started: std::time::Instant) -> String {
    let wall = started.elapsed().as_secs_f64();
    match peak_rss_mib() {
        Some(mib) => format!("done in {wall:.1}s, peak RSS {mib:.0} MiB"),
        None => format!("done in {wall:.1}s"),
    }
}

/// Print a named section header to stdout.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Format an aligned numeric table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footer_reports_peak_rss_where_the_host_does() {
        let footer = done_in(std::time::Instant::now());
        assert!(footer.starts_with("done in 0.0s"), "{footer}");
        match peak_rss_mib() {
            Some(mib) => {
                assert!(mib > 0.0);
                assert!(footer.ends_with(" MiB"), "{footer}");
            }
            None => assert_eq!(footer, "done in 0.0s"),
        }
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().is_some());
        }
    }

    #[test]
    fn default_args_build_valid_config() {
        let a = Args::default();
        assert!(a.config().validate().is_ok());
        assert_eq!(a.scenario().name, "paper-small");
    }

    /// `argv` split on spaces, applied over the default arguments.
    fn parse(argv: &str) -> Result<Args, String> {
        Args::default().parse_from(argv.split(' ').map(String::from).collect())
    }

    #[test]
    fn full_flag_sets_paper_scale() {
        let a = parse("--full").unwrap();
        assert_eq!(a.n_params, 25_000);
        assert_eq!(a.n_replicates, 20);
        assert_eq!(a.resample_size, 10_000);
        assert_eq!(a.scenario().name, "paper-full");
    }

    #[test]
    fn individual_flags_override() {
        let argv = "--scale tiny --n-params 10 --n-reps 2 --seed 9 --threads 3 --bias-mode mean";
        let a = parse(&format!("{argv} --resample 44")).unwrap();
        assert_eq!(a.scenario().name, "paper-tiny");
        assert_eq!(a.n_params, 10);
        assert_eq!(a.n_replicates, 2);
        assert_eq!(a.seed, 9);
        assert_eq!(a.threads, Some(3));
        assert_eq!(a.bias_mode, BiasMode::Mean);
        assert_eq!(a.resample_size, 44);
    }

    #[test]
    fn bad_flags_are_errors_naming_the_flag() {
        for (argv, reason) in [
            ("--bogus", "unknown flag '--bogus'"),
            (
                "--bias-mode magic",
                "--bias-mode: 'sampled' or 'mean', got 'magic'",
            ),
            ("--scale galactic", "--scale: unknown scale 'galactic'"),
            ("--n-reps x", "--n-reps: expected"),
            ("--seed", "--seed requires a value"),
            ("--threads 0", "threads must be >= 1"),
        ] {
            let err = parse(argv).unwrap_err();
            assert!(err.contains(reason), "{argv}: {err}");
        }
    }
}
