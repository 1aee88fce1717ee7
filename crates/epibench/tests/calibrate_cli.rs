//! `calibrate` on bad input: each case prints `calibrate: <reason>` on
//! stderr and exits with status 2, without panicking.

use std::process::Command;

use epibench::runspec::{RunSpec, SourceSpec};

/// A committed spec, by file name.
fn committed(name: &str) -> String {
    format!("{}/../../specs/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Write `json` to a file of this test's own and return its path.
fn spec_file(name: &str, json: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, json).unwrap();
    path.display().to_string()
}

/// Run `calibrate` with `args`; return its status code, stdout and stderr.
fn calibrate(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_calibrate"))
        .args(args)
        .output()
        .unwrap();
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).unwrap();
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn bad_input_exits_2_with_a_reason_and_no_panic() {
    let bad_json = spec_file("bad_json.json", r#"{"scale": "small", "#);
    let bad_key = spec_file("bad_key.json", r#"{"windws": [[20, 33]]}"#);
    let weekly = spec_file("weekly.json", r#"{"windows": [[20, 26], [27, 33]]}"#);
    let fig4 = committed("fig4.json");
    let cases: [(&[&str], &str); 9] = [
        (&["/no/such/spec.json"], "cannot read /no/such/spec.json"),
        (&[&bad_json], &bad_json),
        (&[&bad_key], "windws"),
        (&["--bogus"], "unknown flag '--bogus'"),
        (&[&fig4, "--seed"], "--seed requires a value"),
        (&[&fig4, "--threads", "two"], "--threads: expected"),
        (&[&fig4, "--threads", "0"], "threads must be >= 1"),
        (&[&fig4, &weekly], "have different windows"),
        (&[], "expected one or two spec paths"),
    ];
    for (args, reason) in cases {
        let (status, stdout, stderr) = calibrate(args);
        assert_eq!(status, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("calibrate: ") && stderr.contains(reason),
            "{args:?}: {stderr}"
        );
        assert!(
            !stderr.contains("panicked") && stdout.is_empty(),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn flags_override_the_spec() {
    let fig5 = committed("fig5.json");
    let args = [
        &fig5,
        "--full",
        "--seed",
        "7",
        "--threads",
        "3",
        "--print-spec",
    ];
    let (status, stdout, stderr) = calibrate(&args);
    assert_eq!(status, Some(0), "{stderr}");
    let spec = RunSpec::from_json(&stdout).unwrap();
    let c = &spec.calibration;
    let scale = (
        spec.scale.as_str(),
        c.n_params,
        c.n_replicates,
        c.resample_size,
    );
    assert_eq!(scale, epibench::FULL);
    assert_eq!(
        (c.seed, c.threads, spec.sources),
        (7, Some(3), SourceSpec::CasesDeaths)
    );
}
