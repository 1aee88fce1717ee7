//! Fixture-driven integration tests: each rule fires on a known-bad
//! fixture file with exact `file:line` diagnostics, and waivers behave
//! as documented.

use epilint::{lint_source, CrateConfig, Rule, Violation};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn all_rules(name: &str) -> Vec<Violation> {
    let cfg = CrateConfig {
        name: "fixture".into(),
        rules: Rule::ALL.to_vec(),
        ..CrateConfig::default()
    };
    lint_source(&cfg, name, &fixture(name))
}

fn render(violations: &[Violation]) -> Vec<String> {
    violations.iter().map(ToString::to_string).collect()
}

#[test]
fn r1_fixture_exact_diagnostics() {
    let got = render(&all_rules("r1_panics.rs"));
    let want = vec![
        "r1_panics.rs:5: [panic-unwrap] `unwrap`",
        "r1_panics.rs:6: [panic-unwrap] `expect`",
        "r1_panics.rs:8: [panic-unwrap] `panic!`",
        "r1_panics.rs:11: [panic-unwrap] `unreachable!`",
        "r1_panics.rs:12: [panic-unwrap] `todo!`",
        "r1_panics.rs:13: [panic-unwrap] `unimplemented!`",
    ];
    assert_eq!(got, want);
}

#[test]
fn r2_fixture_exact_diagnostics() {
    let got = render(&all_rules("r2_hash.rs"));
    let want = vec![
        "r2_hash.rs:3: [hash-iter] `HashMap`",
        "r2_hash.rs:4: [hash-iter] `HashSet`",
        "r2_hash.rs:6: [hash-iter] `HashMap`",
        "r2_hash.rs:7: [hash-iter] `HashSet`",
        "r2_hash.rs:9: [hash-iter] `HashMap`",
    ];
    assert_eq!(got, want);
}

#[test]
fn r3_fixture_exact_diagnostics() {
    let got = render(&all_rules("r3_clock.rs"));
    let want = vec![
        "r3_clock.rs:4: [wall-clock] `thread_rng`",
        "r3_clock.rs:5: [wall-clock] `from_entropy`",
        "r3_clock.rs:6: [wall-clock] `SystemTime`",
        "r3_clock.rs:7: [wall-clock] `Instant::now`",
        "r3_clock.rs:8: [wall-clock] `rand::random`",
    ];
    assert_eq!(got, want);
}

#[test]
fn r4_fixture_exact_diagnostics() {
    let got = render(&all_rules("r4_float.rs"));
    let want = vec![
        "r4_float.rs:4: [float-eq] bare float comparison `y == 0.0`",
        "r4_float.rs:7: [float-eq] bare float comparison `1.5 != mu`",
        "r4_float.rs:10: [lossy-cast] lossy `as u64` cast on a float-bearing expression",
    ];
    assert_eq!(got, want);
}

#[test]
fn r5_fixture_exact_diagnostics() {
    let got = render(&all_rules("r5_checkpoint.rs"));
    let want = vec![
        "r5_checkpoint.rs:4: [checkpoint-clone] `checkpoint.clone`",
        "r5_checkpoint.rs:5: [checkpoint-clone] `SimCheckpoint::clone`",
        "r5_checkpoint.rs:6: [checkpoint-clone] `SimCheckpoint::from_bytes`",
        "r5_checkpoint.rs:7: [checkpoint-clone] `append_bytes`",
        "r5_checkpoint.rs:8: [checkpoint-clone] `SimCheckpoint::append_bytes`",
    ];
    assert_eq!(got, want);
}

#[test]
fn r5_exempt_path_is_skipped() {
    let cfg = CrateConfig {
        name: "fixture".into(),
        rules: Rule::ALL.to_vec(),
        checkpoint_exempt: vec!["r5_checkpoint.rs".into()],
        ..CrateConfig::default()
    };
    let got = lint_source(&cfg, "r5_checkpoint.rs", &fixture("r5_checkpoint.rs"));
    assert!(
        got.iter().all(|v| v.rule != Rule::CheckpointClone),
        "{got:?}"
    );
}

#[test]
fn r6_fixture_exact_diagnostics() {
    let got = render(&all_rules("r6_fswrite.rs"));
    // Write APIs all fire; read-only APIs and the waived write do not.
    // `fs::create_dir` vs `fs::create_dir_all` (and the `remove_dir`
    // pair) are distinguished by the identifier-boundary check.
    let want = vec![
        "r6_fswrite.rs:4: [fs-write] `File::create`",
        "r6_fswrite.rs:5: [fs-write] `OpenOptions`",
        "r6_fswrite.rs:6: [fs-write] `fs::write`",
        "r6_fswrite.rs:7: [fs-write] `fs::rename`",
        "r6_fswrite.rs:8: [fs-write] `fs::remove_file`",
        "r6_fswrite.rs:9: [fs-write] `fs::remove_dir`",
        "r6_fswrite.rs:10: [fs-write] `fs::remove_dir_all`",
        "r6_fswrite.rs:11: [fs-write] `fs::create_dir`",
        "r6_fswrite.rs:12: [fs-write] `fs::create_dir_all`",
        "r6_fswrite.rs:13: [fs-write] `fs::copy`",
    ];
    assert_eq!(got, want);
}

#[test]
fn r6_exempt_path_is_skipped() {
    let cfg = CrateConfig {
        name: "fixture".into(),
        rules: Rule::ALL.to_vec(),
        fs_exempt: vec!["persist/".into()],
        ..CrateConfig::default()
    };
    // A directory entry exempts every file under it, matched on the
    // relative path the caller hands in.
    let got = lint_source(&cfg, "src/persist/r6_fswrite.rs", &fixture("r6_fswrite.rs"));
    assert!(got.iter().all(|v| v.rule != Rule::FsWrite), "{got:?}");
}

#[test]
fn r7_fixture_exact_diagnostics() {
    // Outside any allowlist every unsafe line breaches containment, and
    // the sites without an adjacent SAFETY justification are flagged a
    // second time. The waived site (line 24) stays silent.
    let got = render(&all_rules("r7_unsafe.rs"));
    let want = vec![
        "r7_unsafe.rs:3: [unsafe-containment] `unsafe` outside the allowlisted module set",
        "r7_unsafe.rs:3: [unsafe-containment] undocumented `unsafe` site (missing adjacent `// SAFETY:` justification)",
        "r7_unsafe.rs:4: [unsafe-containment] `unsafe` outside the allowlisted module set",
        "r7_unsafe.rs:4: [unsafe-containment] undocumented `unsafe` site (missing adjacent `// SAFETY:` justification)",
        "r7_unsafe.rs:11: [unsafe-containment] `unsafe` outside the allowlisted module set",
        "r7_unsafe.rs:13: [unsafe-containment] `unsafe` outside the allowlisted module set",
        "r7_unsafe.rs:17: [unsafe-containment] `unsafe` outside the allowlisted module set",
        "r7_unsafe.rs:18: [unsafe-containment] `unsafe` outside the allowlisted module set",
        "r7_unsafe.rs:18: [unsafe-containment] undocumented `unsafe` site (missing adjacent `// SAFETY:` justification)",
    ];
    assert_eq!(got, want);
}

#[test]
fn r7_allowlisted_module_still_needs_safety_comments() {
    let cfg = CrateConfig {
        name: "fixture".into(),
        rules: Rule::ALL.to_vec(),
        unsafe_allow: vec!["r7_unsafe.rs".into()],
        ..CrateConfig::default()
    };
    let got: Vec<String> = lint_source(&cfg, "r7_unsafe.rs", &fixture("r7_unsafe.rs"))
        .iter()
        .map(ToString::to_string)
        .collect();
    // Containment is satisfied; only the undocumented sites remain.
    let want = vec![
        "r7_unsafe.rs:3: [unsafe-containment] undocumented `unsafe` site (missing adjacent `// SAFETY:` justification)",
        "r7_unsafe.rs:4: [unsafe-containment] undocumented `unsafe` site (missing adjacent `// SAFETY:` justification)",
        "r7_unsafe.rs:18: [unsafe-containment] undocumented `unsafe` site (missing adjacent `// SAFETY:` justification)",
    ];
    assert_eq!(got, want);
}

#[test]
fn r8_fixture_exact_diagnostics() {
    // The explicit-ordering check follows a call's open parenthesis
    // across rustfmt continuation lines (the compare_exchange at line
    // 11 passes), and the Relaxed at line 10 is covered by its ORDER
    // note while the one at line 7 is not.
    let got = render(&all_rules("r8_atomics.rs"));
    let want = vec![
        "r8_atomics.rs:4: [atomics-ordering] atomic operation without an explicit `Ordering`",
        "r8_atomics.rs:7: [atomics-ordering] `Relaxed` ordering without an adjacent `// ORDER:` justification",
        "r8_atomics.rs:17: [atomics-ordering] atomic operation without an explicit `Ordering`",
    ];
    assert_eq!(got, want);
}

#[test]
fn r8_respects_atomics_path_scoping() {
    let cfg = CrateConfig {
        name: "fixture".into(),
        rules: Rule::ALL.to_vec(),
        atomics_paths: vec!["src/lib.rs".into()],
        ..CrateConfig::default()
    };
    let got = lint_source(&cfg, "r8_atomics.rs", &fixture("r8_atomics.rs"));
    assert!(
        got.iter().all(|v| v.rule != Rule::AtomicsOrdering),
        "{got:?}"
    );
}

#[test]
fn waiver_fixture_behavior() {
    let got = render(&all_rules("waivers.rs"));
    // Same-line and line-above waivers suppress; the named-rule waiver
    // leaves the HashMap hit; the reasonless waiver is itself an error
    // and does not suppress its line.
    let want = vec![
        "waivers.rs:14: [hash-iter] `HashMap`",
        "waivers.rs:18: [panic-unwrap] waiver missing a reason after the rule list",
        "waivers.rs:18: [panic-unwrap] `unwrap`",
    ];
    assert_eq!(got, want);
}

#[test]
fn test_code_fixture_is_exempt() {
    let got = render(&all_rules("test_code.rs"));
    // Only the post-test-module unwrap fires: comments, strings, and the
    // #[cfg(test)] module body are all exempt.
    let want = vec!["test_code.rs:20: [panic-unwrap] `unwrap`"];
    assert_eq!(got, want);
}

#[test]
fn disabled_rules_do_not_fire() {
    let cfg = CrateConfig {
        name: "fixture".into(),
        rules: vec![Rule::WallClock],
        ..CrateConfig::default()
    };
    let got = lint_source(&cfg, "r1_panics.rs", &fixture("r1_panics.rs"));
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn epilint_binary_is_wired_into_workspace_gate() {
    // The quality gate and CI must invoke the linter between clippy and
    // the test suite so violations fail fast.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    for (file, needle) in [
        ("scripts/check.sh", "cargo run -p epilint"),
        (".github/workflows/ci.yml", "scripts/check.sh"),
        ("epilint.toml", "[crate.episim]"),
    ] {
        let path = root.join(file);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        assert!(text.contains(needle), "{file} must contain `{needle}`");
    }
}
