//! Stamps the compiler version and the source commit into the binary,
//! for the host record every benchmark run prints.
//!
//! The commit is read from the repository's `.git` directory when one
//! exists next to the benchmark (an exported source tree has none and
//! records `unknown`); nothing outside the source tree is read.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let git = Path::new(&manifest).join("..").join(".git");
    let (commit, watched) = git_commit(&git);
    for path in watched {
        println!("cargo:rerun-if-changed={}", path.display());
    }
    println!("cargo:rustc-env=PERFBENCH_GIT_COMMIT={commit}");
}

/// The commit `HEAD` names, plus the files it was read from (watched so
/// a new commit re-stamps the binary). Only existing files are watched:
/// cargo re-runs a build script on every build when a watched path is
/// missing.
fn git_commit(git: &Path) -> (String, Vec<PathBuf>) {
    let head_path = git.join("HEAD");
    let Ok(head) = fs::read_to_string(&head_path) else {
        return ("unknown".into(), Vec::new());
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return (head.to_string(), vec![head_path]);
    };
    let loose = git.join(reference);
    if let Ok(sha) = fs::read_to_string(&loose) {
        return (sha.trim().to_string(), vec![head_path, loose]);
    }
    let packed_path = git.join("packed-refs");
    let packed = fs::read_to_string(&packed_path).unwrap_or_default();
    let sha = packed
        .lines()
        .filter_map(|line| line.split_once(' '))
        .find(|&(_, name)| name == reference)
        .map_or_else(|| "unknown".to_string(), |(sha, _)| sha.to_string());
    let mut watched = vec![head_path];
    if packed_path.exists() {
        watched.push(packed_path);
    }
    (sha, watched)
}
