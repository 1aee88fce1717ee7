//! Byte-format pinning for the durable run store: a golden fixture locks
//! the record encoding (any accidental change to the wire format fails
//! here before it eats someone's checkpoints), a version test proves
//! records from any other format version — older or newer — are rejected
//! as [`SmcError::UnsupportedFormat`], and property tests drive arbitrary
//! ensembles through encode → decode → encode bit-exactly while arbitrary
//! single-byte corruption always yields a typed error — never a wrong
//! ensemble.

use epismc::prelude::*;
use epismc::sim::spec::{Compartment, FlowSpec, Infection, ModelSpec, Progression};
use epismc::sim::state::SimState;
use epismc::smc::persist::{format, RunSnapshot};
use epismc::smc::sis::TrajectoryTelemetry;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn spec(theta: f64) -> ModelSpec {
    ModelSpec {
        name: "golden".into(),
        compartments: vec![Compartment::simple("S"), Compartment::new("I", 1, 1.0)],
        progressions: vec![Progression {
            from: 1,
            mean_dwell: 1.0,
            branches: vec![(0, 1.0)],
        }],
        infections: vec![Infection::simple(0, 1)],
        transmission_rate: theta,
        flows: vec![FlowSpec {
            name: "cases".into(),
            edges: vec![],
        }],
        censuses: vec![],
    }
}

fn checkpoint(theta: f64, seed: u64) -> SimCheckpoint {
    let spec = spec(theta);
    SimCheckpoint::capture(&spec, &SimState::empty(&spec, seed))
}

fn series(start: u32, cases: &[u64], deaths: &[u64]) -> DailySeries {
    DailySeries::from_columns(
        vec!["cases".into(), "deaths".into()],
        start,
        vec![cases.to_vec(), deaths.to_vec()],
    )
    .unwrap()
}

/// A hand-built snapshot exercising every corner of the format: pooled
/// (shared) thetas and checkpoints, a trajectory chain with two branches
/// off one root segment, an origin checkpoint, a dead particle
/// (`-inf` log weight), and every telemetry word nonzero-or-pinned.
fn golden_snapshot() -> RunSnapshot {
    let root = SharedTrajectory::root(series(0, &[5, 8, 13], &[0, 1, 1]));
    let branch_a = root.append(series(3, &[21, 34], &[2, 3]));
    let branch_b = root.append(series(3, &[20, 30], &[1, 2]));
    let shared_theta: Arc<[f64]> = Arc::from(vec![0.25]);
    let shared_ck = Arc::new(checkpoint(0.25, 7));
    let origin = Arc::new(checkpoint(0.25, 3));
    let particles = vec![
        Particle {
            theta: Arc::clone(&shared_theta),
            rho: 0.4,
            seed: 11,
            log_weight: -1.25,
            trajectory: branch_a,
            checkpoint: Arc::clone(&shared_ck),
            origin: Some(Arc::clone(&origin)),
        },
        Particle {
            theta: shared_theta,
            rho: 0.45,
            seed: 12,
            log_weight: -0.5,
            trajectory: branch_b,
            checkpoint: shared_ck,
            origin: Some(origin),
        },
        Particle {
            theta: Arc::from(vec![0.3]),
            rho: 0.5,
            seed: 13,
            log_weight: f64::NEG_INFINITY,
            trajectory: root,
            checkpoint: Arc::new(checkpoint(0.3, 9)),
            origin: None,
        },
    ];
    RunSnapshot {
        seed: 42,
        fingerprint: 0x1234_5678_9abc_def0,
        window_index: 2,
        window: TimeWindow::new(34, 47),
        ess: 31.5,
        log_marginal: -102.75,
        unique_ancestors: 17,
        wall_nanos: 123_456_789,
        observed_fingerprint: 0x0B5E_4FD5_0BF1_4CED,
        telemetry: TrajectoryTelemetry {
            shared_bytes: 100,
            flat_bytes: 240,
            unique_segments: 3,
            segment_refs: 5,
            pool_builds: 1,
            days_simulated: 28,
            sim_nanos: 0,
            workspaces_built: 3,
            workspace_reuses: 9,
            unique_checkpoints: 3,
            checkpoint_refs: 5,
            score_nanos: 0,
            resample_nanos: 0,
            grid_chunks: 4,
            persist_nanos: 0,
            records_written: 1,
            stream_setup_nanos: 314,
            serial_nanos: 2_718,
            fused_scores: 96,
            batched_draws: 1_722,
            encode_nanos: 0,
        },
        posterior: ParticleEnsemble::from_vec(particles),
    }
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/run_record_v5.bin")
}

#[test]
fn golden_record_bytes_are_pinned() {
    let bytes = format::encode_record(&golden_snapshot());
    let path = golden_path();
    let want = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "golden fixture {} missing ({e}); regenerate with \
             `cargo test --test persist_format regenerate_golden_fixture -- --ignored`",
            path.display()
        )
    });
    if bytes != want {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("run_record_v5.actual.bin");
        std::fs::write(&out, &bytes).unwrap();
        panic!(
            "serialized record diverged from the golden fixture (got {} bytes, want {}); \
             actual bytes written to {} — if the format change is intentional, bump \
             FORMAT_VERSION and regenerate the fixture",
            bytes.len(),
            want.len(),
            out.display()
        );
    }
}

#[test]
fn golden_record_decodes_with_sharing_intact() {
    let raw = std::fs::read(golden_path()).unwrap();
    let snap = format::decode_record(&raw).unwrap();
    assert_eq!(snap.seed, 42);
    assert_eq!(snap.fingerprint, 0x1234_5678_9abc_def0);
    assert_eq!(snap.window_index, 2);
    assert_eq!(snap.window, TimeWindow::new(34, 47));
    assert_eq!(snap.ess.to_bits(), 31.5f64.to_bits());
    assert_eq!(snap.log_marginal.to_bits(), (-102.75f64).to_bits());
    assert_eq!(snap.wall_nanos, 123_456_789);
    assert_eq!(snap.telemetry, golden_snapshot().telemetry);

    let p = snap.posterior.particles();
    assert_eq!(p.len(), 3);
    // Pooled allocations come back *shared*, not merely equal.
    assert!(Arc::ptr_eq(&p[0].theta, &p[1].theta));
    assert!(Arc::ptr_eq(&p[0].checkpoint, &p[1].checkpoint));
    assert!(Arc::ptr_eq(
        p[0].origin.as_ref().unwrap(),
        p[1].origin.as_ref().unwrap()
    ));
    // Both branches hang off one root segment.
    let root_id = |t: &SharedTrajectory| t.unknown_segments(|_| false).0[0].0;
    assert_eq!(root_id(&p[0].trajectory), root_id(&p[1].trajectory));
    assert_eq!(p[2].log_weight, f64::NEG_INFINITY);
    assert_eq!(p[2].origin, None);

    // Canonical encoding: decode → encode reproduces the fixture bytes.
    assert_eq!(format::encode_record(&snap), raw);
}

#[test]
fn future_format_version_is_rejected_as_unsupported() {
    let mut raw = std::fs::read(golden_path()).unwrap();
    // Bytes [4..6] are the little-endian format version, after the magic.
    raw[4..6].copy_from_slice(&(format::FORMAT_VERSION + 1).to_le_bytes());
    let err = format::decode_record(&raw).unwrap_err();
    assert!(matches!(err, SmcError::UnsupportedFormat(_)), "{err}");
    // The version gate fires before the checksum: the message names the
    // version, proving old readers give actionable errors on new blobs.
    assert!(
        err.to_string()
            .contains(&format!("{}", format::FORMAT_VERSION + 1)),
        "{err}"
    );

    // Older versions are rejected the same way: this build reads only
    // the current one.
    for version in 0..format::FORMAT_VERSION {
        raw[4..6].copy_from_slice(&version.to_le_bytes());
        let err = format::decode_record(&raw).unwrap_err();
        assert!(
            matches!(err, SmcError::UnsupportedFormat(_)),
            "version {version}: {err}"
        );
    }
}

#[test]
fn short_and_empty_records_are_corrupt_not_panics() {
    for raw in [&b""[..], &b"EP"[..], &[0x45u8, 0x50, 0x53, 0x4E, 1, 0][..]] {
        let err = format::decode_record(raw).unwrap_err();
        assert!(matches!(err, SmcError::Corrupt(_)), "{err}");
    }
}

#[test]
#[ignore = "regenerates tests/golden/run_record_v5.bin; run only after an intentional format change (with a FORMAT_VERSION bump)"]
fn regenerate_golden_fixture() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, format::encode_record(&golden_snapshot())).unwrap();
}

/// Build a snapshot from generated raw material: each particle chains its
/// own tail onto a shared root, every other particle shares one theta /
/// checkpoint allocation, and weights may be `-inf`.
fn arbitrary_snapshot(parts: Vec<(f64, f64, u64, f64, Vec<u64>)>) -> RunSnapshot {
    let root = SharedTrajectory::root(series(0, &[1, 2], &[0, 1]));
    let shared_theta: Arc<[f64]> = Arc::from(vec![0.2, 0.7]);
    let shared_ck = Arc::new(checkpoint(0.2, 999));
    let particles: Vec<Particle> = parts
        .into_iter()
        .enumerate()
        .map(|(i, (theta, rho, seed, log_w, tail))| {
            let deaths = vec![seed % 5; tail.len()];
            let trajectory = if tail.is_empty() {
                root.clone()
            } else {
                root.append(series(2, &tail, &deaths))
            };
            let (theta, ck) = if i % 2 == 0 {
                (Arc::clone(&shared_theta), Arc::clone(&shared_ck))
            } else {
                (
                    Arc::from(vec![theta, theta / 2.0]),
                    Arc::new(checkpoint(theta, seed)),
                )
            };
            Particle {
                theta,
                rho,
                seed,
                log_weight: if seed % 7 == 0 {
                    f64::NEG_INFINITY
                } else {
                    log_w
                },
                trajectory,
                checkpoint: Arc::clone(&ck),
                origin: (seed % 3 == 0).then_some(ck),
            }
        })
        .collect();
    RunSnapshot {
        seed: 7,
        fingerprint: 3,
        window_index: 1,
        window: TimeWindow::new(2, 5),
        ess: 1.5,
        log_marginal: -8.25,
        unique_ancestors: 2,
        wall_nanos: 0,
        observed_fingerprint: 0xF00D,
        telemetry: TrajectoryTelemetry::default(),
        posterior: ParticleEnsemble::from_vec(particles),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn roundtrip_is_bit_exact(
        parts in proptest::collection::vec(
            (
                0.05f64..0.95,
                0.0f64..1.0,
                0u64..u64::MAX,
                -300.0f64..0.0,
                proptest::collection::vec(0u64..1_000_000, 0..4),
            ),
            1..7,
        )
    ) {
        let snap = arbitrary_snapshot(parts);
        let bytes = format::encode_record(&snap);
        let back = format::decode_record(&bytes).unwrap();
        prop_assert_eq!(back.seed, snap.seed);
        prop_assert_eq!(back.window, snap.window);
        prop_assert_eq!(back.observed_fingerprint, snap.observed_fingerprint);
        prop_assert_eq!(back.telemetry, snap.telemetry);
        let (got, want) = (back.posterior.particles(), snap.posterior.particles());
        prop_assert_eq!(got.len(), want.len());
        for (p, q) in got.iter().zip(want) {
            let bits = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&p.theta), bits(&q.theta));
            prop_assert_eq!(p.rho.to_bits(), q.rho.to_bits());
            prop_assert_eq!(p.seed, q.seed);
            prop_assert_eq!(p.log_weight.to_bits(), q.log_weight.to_bits());
            prop_assert!(p.trajectory == q.trajectory);
            prop_assert!(*p.checkpoint == *q.checkpoint);
            prop_assert_eq!(p.origin.as_deref(), q.origin.as_deref());
        }
        // Canonical: re-encoding the decoded snapshot reproduces the bytes.
        prop_assert_eq!(format::encode_record(&back), bytes);
    }

    #[test]
    fn single_byte_corruption_is_always_detected(
        offset in 0usize..4096,
        mask in 1u8..=255,
    ) {
        let mut bytes = format::encode_record(&golden_snapshot());
        let offset = offset % bytes.len();
        bytes[offset] ^= mask;
        // Any flipped byte must surface as a typed error — never a
        // silently different snapshot, never a panic.
        match format::decode_record(&bytes) {
            Err(SmcError::Corrupt(_)) | Err(SmcError::UnsupportedFormat(_)) => {}
            Err(e) => return Err(proptest::test_runner::TestCaseError::Fail(
                format!("unexpected error kind at offset {offset}: {e}"),
            )),
            Ok(_) => return Err(proptest::test_runner::TestCaseError::Fail(
                format!("corrupted record decoded successfully (offset {offset}, mask {mask:#04x})"),
            )),
        }
    }
}
