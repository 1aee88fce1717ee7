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
//! | `scaling` | the HPC claims — thread scaling and checkpoint-restart savings |
//! | `ablation` | resampling schemes, bias modes, adaptive refinement |
//! | `forecast` | operational day-61 forecast across the day-62 jump |
//! | `sbc` | simulation-based calibration rank histograms |
//!
//! Each prints the series/rows behind the figure and writes CSVs under
//! `results/`. Default scale is laptop-friendly; pass `--full` for the
//! paper's 25,000 x 20 ensemble (HPC-sized, [`FULL`]).
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
    /// Parse from `std::env::args`, panicking with usage text on errors.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1).collect())
    }

    /// Parse from an explicit argument vector.
    ///
    /// # Panics
    /// Panics with a usage message on unknown flags or malformed values.
    pub fn parse_from(argv: Vec<String>) -> Self {
        let mut args = Self::default();
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--full" => {
                    let (scale, n_params, n_replicates, resample_size) = FULL;
                    args.scale = scale.into();
                    (args.n_params, args.n_replicates, args.resample_size) =
                        (n_params, n_replicates, resample_size);
                }
                "--scale" => args.scale = value(&mut it, &flag),
                "--n-params" => args.n_params = value(&mut it, &flag),
                "--n-reps" => args.n_replicates = value(&mut it, &flag),
                "--resample" => args.resample_size = value(&mut it, &flag),
                "--seed" => args.seed = value(&mut it, &flag),
                "--threads" => args.threads = Some(value(&mut it, &flag)),
                "--bias-mode" => {
                    args.bias_mode = match value::<String>(&mut it, &flag).as_str() {
                        "sampled" => BiasMode::Sampled,
                        "mean" => BiasMode::Mean,
                        other => panic!("--bias-mode: 'sampled' or 'mean', got '{other}'"),
                    }
                }
                "--out" => args.out_dir = value::<String>(&mut it, &flag).into(),
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --full | --scale tiny|small|full | --n-params N | \
                         --n-reps N | --resample N | --seed N | --threads N | \
                         --bias-mode sampled|mean | --out DIR"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag '{other}' (try --help)"),
            }
        }
        args
    }

    /// Build the scenario for the chosen scale.
    ///
    /// # Panics
    /// Panics on an unknown scale name.
    pub fn scenario(&self) -> Scenario {
        scenario(&self.scale).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build the calibration config for these arguments.
    pub fn config(&self) -> CalibrationConfig {
        let mut b = CalibrationConfig::builder()
            .n_params(self.n_params)
            .n_replicates(self.n_replicates)
            .resample_size(self.resample_size)
            .seed(self.seed);
        if let Some(t) = self.threads {
            b = b.threads(t);
        }
        b.build()
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

/// [`flag_value`], panicking with its message.
fn value<T: FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    flag_value(it, flag).unwrap_or_else(|e| panic!("{e}"))
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

    #[test]
    fn full_flag_sets_paper_scale() {
        let a = Args::parse_from(vec!["--full".into()]);
        assert_eq!(a.n_params, 25_000);
        assert_eq!(a.n_replicates, 20);
        assert_eq!(a.resample_size, 10_000);
        assert_eq!(a.scenario().name, "paper-full");
    }

    #[test]
    fn individual_flags_override() {
        let argv = "--scale tiny --n-params 10 --n-reps 2 --seed 9 --threads 3 --bias-mode mean";
        let argv = format!("{argv} --resample 44");
        let a = Args::parse_from(argv.split(' ').map(String::from).collect());
        assert_eq!(a.scenario().name, "paper-tiny");
        assert_eq!(a.n_params, 10);
        assert_eq!(a.n_replicates, 2);
        assert_eq!(a.seed, 9);
        assert_eq!(a.threads, Some(3));
        assert_eq!(a.bias_mode, BiasMode::Mean);
        assert_eq!(a.resample_size, 44);
    }

    #[test]
    #[should_panic]
    fn unknown_flag_panics() {
        Args::parse_from(vec!["--bogus".into()]);
    }

    #[test]
    #[should_panic]
    fn bad_bias_mode_panics() {
        Args::parse_from(vec!["--bias-mode".into(), "magic".into()]);
    }
}
