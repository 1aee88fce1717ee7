//! The binaries that take the shared flags ([`epibench::Args`]) on bad
//! input: each case prints `<bin>: <reason>` on stderr and exits with
//! status 2, without panicking and before any work.

use std::process::Command;

#[test]
fn bad_flags_exit_2_with_a_reason_and_no_panic() {
    let bins = [
        ("sbc", env!("CARGO_BIN_EXE_sbc")),
        ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ];
    let cases: [(&[&str], &str); 3] = [
        (&["--bogus"], "unknown flag '--bogus'"),
        (
            &["--scale", "galactic"],
            "--scale: unknown scale 'galactic'",
        ),
        (&["--n-reps", "x"], "--n-reps: expected"),
    ];
    for (bin, exe) in bins {
        for (args, reason) in cases {
            let out = Command::new(exe).args(args).output().unwrap();
            let stderr = String::from_utf8(out.stderr).unwrap();
            let ctx = format!("{bin} {args:?}: {stderr}");
            assert_eq!(out.status.code(), Some(2), "{ctx}");
            assert!(
                stderr.starts_with(&format!("{bin}: ")) && stderr.contains(reason),
                "{ctx}"
            );
            assert!(
                !stderr.contains("panicked") && out.stdout.is_empty(),
                "{ctx}"
            );
        }
    }
}
