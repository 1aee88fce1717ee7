//! Config-driven calibration CLI: the operational entry point, and the
//! one path for the paper's sequential figures.
//!
//! ```bash
//! calibrate specs/fig4.json                  # Fig 4: cases only
//! calibrate specs/fig4.json specs/fig5.json  # Figs 4 and 5, then Fig 5's comparison
//! calibrate specs/fig4.json --full           # at the paper's scale
//! calibrate specs/fig5.json --print-spec     # emit the resolved spec as JSON and exit
//! ```
//!
//! Runs each spec's sequential calibration ([`RunSpec::run`]), prints
//! its report ([`epibench::report`]) and writes the report's CSVs under
//! the spec's `out_dir`. Given two specs, which must share their
//! windows, it then compares the second with the first: the per-window
//! θ sd ratio and the reported-ribbon width ratio.
//!
//! `--full` ([`epibench::FULL`]), `--seed N` and `--threads N` override
//! the matching fields of every spec. Bad input — an unreadable or
//! invalid spec, an unknown flag, a flag without its value, two specs on
//! different windows — prints `calibrate: <reason>` on stderr and exits
//! with status 2; a calibration that fails exits with status 1.

use epibench::report::Report;
use epibench::runspec::RunSpec;
use epibench::{done_in, fail, flag_value, FULL};
use epidata::generate_ground_truth;

/// Parse the command line into the specs to run (path, resolved spec)
/// and whether to print them instead.
fn parse(argv: Vec<String>) -> Result<(Vec<(String, RunSpec)>, bool), String> {
    let (mut specs, mut print_spec, mut full) = (Vec::new(), false, false);
    let (mut seed, mut threads) = (None, None);
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--print-spec" => print_spec = true,
            "--full" => full = true,
            "--seed" => seed = Some(flag_value(&mut it, &arg)?),
            "--threads" => threads = Some(flag_value(&mut it, &arg)?),
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
            path => {
                let json = std::fs::read_to_string(path);
                let json = json.map_err(|e| format!("cannot read {path}: {e}"))?;
                let spec = RunSpec::from_json(&json).map_err(|e| format!("{path}: {e}"))?;
                specs.push((arg, spec));
            }
        }
    }
    if !(1..=2).contains(&specs.len()) {
        return Err(format!(
            "expected one or two spec paths, got {}",
            specs.len()
        ));
    }
    for (path, spec) in &mut specs {
        if full {
            let (scale, n_params, n_replicates, resample_size) = FULL;
            let c = &mut spec.calibration;
            spec.scale = scale.into();
            (c.n_params, c.n_replicates, c.resample_size) = (n_params, n_replicates, resample_size);
        }
        spec.calibration.seed = seed.unwrap_or(spec.calibration.seed);
        spec.calibration.threads = threads.or(spec.calibration.threads);
        spec.validate().map_err(|e| format!("{path}: {e}"))?;
    }
    if let [(a, first), (b, second)] = specs.as_slice() {
        if first.windows != second.windows {
            return Err(format!("{a} and {b} have different windows"));
        }
    }
    Ok((specs, print_spec))
}

/// Run every spec, print its report and write its CSVs, then compare
/// the second report with the first.
fn run(specs: &[(String, RunSpec)]) -> Result<(), String> {
    let mut reports = Vec::with_capacity(specs.len());
    for (path, spec) in specs {
        let scenario = epibench::scenario(&spec.scale)?;
        let (c, name, sources) = (&spec.calibration, &scenario.name, spec.sources);
        let (p, r, n) = (c.n_params, c.n_replicates, c.resample_size);
        println!("calibrate: {path} | '{name}' | {p} x {r}, resample {n} | {sources:?}");
        let truth = generate_ground_truth(&scenario, scenario.truth_seed);
        let started = std::time::Instant::now();
        let result = spec.run(&truth).map_err(|e| format!("{path}: {e}"))?;
        println!("{}", done_in(started));

        let report = Report::new(spec, &truth, &result)?;
        report.print();
        let out = std::path::Path::new(&spec.out_dir);
        let written = report.write_csv(&result, out);
        written.map_err(|e| format!("writing under {}: {e}", out.display()))?;
        println!("\nwrote the report's CSVs under {}", out.display());
        reports.push((path, report));
    }
    if let [(a, first), (b, second)] = reports.as_slice() {
        second.print_against(first, (b, a));
    }
    Ok(())
}

fn main() {
    let parsed = parse(std::env::args().skip(1).collect());
    let (specs, print_spec) = parsed.unwrap_or_else(|e| fail("calibrate", 2, e));
    if print_spec {
        for (_, spec) in &specs {
            let json =
                serde_json::to_string_pretty(spec).unwrap_or_else(|e| fail("calibrate", 1, e));
            println!("{json}");
        }
    } else if let Err(e) = run(&specs) {
        fail("calibrate", 1, e);
    }
}
