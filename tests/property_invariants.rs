//! Property-based tests over cross-crate invariants: population
//! conservation for arbitrary parameterizations, checkpoint round-trips,
//! resampler unbiasedness, weight normalization, and schedule/ground-truth
//! consistency.

use epismc::prelude::*;
use epismc::sim::engine::CompiledSpec;
use epismc::stats::logweight::{log_sum_exp, normalize_log_weights};
use proptest::prelude::*;

fn arb_covid_params() -> impl Strategy<Value = CovidParams> {
    (
        0.05f64..0.8, // transmission rate
        0.3f64..0.9,  // frac symptomatic
        0.01f64..0.3, // frac severe
        0.0f64..1.0,  // detect mild
        0.1f64..1.0,  // rel infectious asymp
        0.0f64..1.0,  // rel infectious detected
        1u32..4,      // latent stages
        1u32..4,      // progression stages
    )
        .prop_map(|(theta, fs, fsev, dm, ka, kd, ls, ps)| CovidParams {
            transmission_rate: theta,
            population: 5_000,
            initial_exposed: 50,
            frac_symptomatic: fs,
            frac_severe: fsev,
            detect_mild: dm,
            rel_infectious_asymp: ka,
            rel_infectious_detected: kd,
            latent_stages: ls,
            progression_stages: ps,
            ..CovidParams::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn population_conserved_for_any_parameterization(
        params in arb_covid_params(),
        seed in 0u64..1_000_000,
    ) {
        let model = CovidModel::new(params).unwrap();
        let mut sim = Simulation::new(
            model.spec(),
            BinomialChainStepper::daily(),
            model.initial_state(seed),
        )
        .unwrap();
        sim.run_until(50);
        prop_assert_eq!(sim.state().total_population(), 5_000);
        // All recorded flows are consistent: deaths never exceed infections.
        let inf: u64 = sim.series().series("infections").unwrap().iter().sum();
        let deaths: u64 = sim.series().series("deaths").unwrap().iter().sum();
        prop_assert!(deaths <= inf + 50); // +50 initial exposed
    }

    #[test]
    fn checkpoint_binary_round_trip_any_state(
        params in arb_covid_params(),
        seed in 0u64..1_000_000,
        day in 1u32..60,
    ) {
        let model = CovidModel::new(params).unwrap();
        let mut sim = Simulation::new(
            model.spec(),
            BinomialChainStepper::daily(),
            model.initial_state(seed),
        )
        .unwrap();
        sim.run_until(day);
        let ck = sim.checkpoint();
        let mut bytes = Vec::new();
        ck.append_bytes(&mut bytes);
        prop_assert_eq!(bytes.len(), ck.encoded_len());
        let back = SimCheckpoint::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &ck);
        // Every strict prefix is a typed error, never a panic.
        for cut in 0..bytes.len() {
            let err = SimCheckpoint::from_bytes(&bytes[..cut]);
            prop_assert!(matches!(err, Err(SimError::Checkpoint(_))), "prefix of {} bytes", cut);
        }
    }

    #[test]
    fn resume_equals_uninterrupted_for_any_split(
        seed in 0u64..100_000,
        split in 5u32..45,
    ) {
        let model = CovidModel::new(Scenario::paper_tiny().base_params).unwrap();
        let mut full = Simulation::new(
            model.spec(),
            BinomialChainStepper::daily(),
            model.initial_state(seed),
        )
        .unwrap();
        full.run_until(50);
        let mut head = Simulation::new(
            model.spec(),
            BinomialChainStepper::daily(),
            model.initial_state(seed),
        )
        .unwrap();
        head.run_until(split);
        let ck = head.checkpoint();
        let mut tail =
            Simulation::resume(model.spec(), BinomialChainStepper::daily(), &ck).unwrap();
        tail.run_until(50);
        prop_assert_eq!(tail.state(), full.state());
    }

    #[test]
    fn resamplers_return_valid_indices_for_any_weights(
        raw in proptest::collection::vec(0.0f64..100.0, 2..80),
        n in 1usize..200,
        scheme_id in 0usize..4,
    ) {
        // Ensure at least one positive weight.
        let mut weights = raw;
        if weights.iter().all(|&w| w == 0.0) {
            weights[0] = 1.0;
        }
        let schemes: Vec<Box<dyn Resampler>> = vec![
            Box::new(Multinomial),
            Box::new(Systematic),
            Box::new(Stratified),
            Box::new(Residual),
        ];
        let mut rng = Xoshiro256PlusPlus::new(7);
        let idx = schemes[scheme_id].resample(&weights, n, &mut rng);
        prop_assert_eq!(idx.len(), n);
        for &i in &idx {
            prop_assert!(i < weights.len());
            prop_assert!(weights[i] > 0.0, "selected zero-weight particle {}", i);
        }
    }

    #[test]
    fn log_weight_normalization_invariants(
        lw in proptest::collection::vec(-2000.0f64..100.0, 1..200),
    ) {
        let w = normalize_log_weights(&lw);
        let total: f64 = w.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "sum = {}", total);
        prop_assert!(w.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
        // Shifting all log weights by a constant leaves probabilities
        // unchanged.
        let shifted: Vec<f64> = lw.iter().map(|x| x + 123.456).collect();
        let w2 = normalize_log_weights(&shifted);
        for (a, b) in w.iter().zip(&w2) {
            prop_assert!((a - b).abs() < 1e-9);
        }
        // log_sum_exp dominates the max.
        let max = lw.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(log_sum_exp(&lw) >= max);
    }

    #[test]
    fn schedule_dense_matches_value_at(
        breaks_tail in proptest::collection::vec(1u32..200, 0..5),
        horizon in 10u32..250,
    ) {
        let mut breaks = vec![0u32];
        let mut sorted = breaks_tail;
        sorted.sort_unstable();
        sorted.dedup();
        breaks.extend(sorted);
        let values: Vec<f64> = (0..breaks.len()).map(|i| i as f64 * 0.1 + 0.1).collect();
        let s = PiecewiseConstant::new(breaks, values);
        let dense = s.dense(horizon);
        prop_assert_eq!(dense.len(), horizon as usize);
        for (i, &v) in dense.iter().enumerate() {
            prop_assert_eq!(v, s.value_at(i as u32 + 1));
        }
    }

    #[test]
    fn resampled_ensemble_weights_normalize(
        lw in proptest::collection::vec(-500.0f64..50.0, 2..120),
        n_out in 1usize..300,
    ) {
        // A weighted candidate ensemble must normalize to unit mass, and
        // the resampled posterior must be exactly uniform — the paper's
        // weight/resample contract for every window.
        let spec = epismc::sim::spec::ModelSpec {
            name: "w".into(),
            compartments: vec![
                epismc::sim::spec::Compartment::simple("S"),
                epismc::sim::spec::Compartment::new("I", 1, 1.0),
            ],
            progressions: vec![epismc::sim::spec::Progression {
                from: 1,
                mean_dwell: 1.0,
                branches: vec![(0, 1.0)],
            }],
            infections: vec![epismc::sim::spec::Infection::simple(0, 1)],
            transmission_rate: 0.1,
            flows: vec![epismc::sim::spec::FlowSpec {
                name: "x".into(),
                edges: vec![],
            }],
            censuses: vec![],
        };
        let particles: Vec<Particle> = lw
            .iter()
            .enumerate()
            .map(|(i, &w)| Particle {
                theta: vec![0.1 + i as f64 * 1e-3].into(),
                rho: 0.5,
                seed: i as u64,
                log_weight: w,
                trajectory: SharedTrajectory::root(DailySeries::new(vec!["x".into()], 1)),
                checkpoint: SimCheckpoint::capture(
                    &spec,
                    &epismc::sim::state::SimState::empty(&spec, 1),
                )
                .into(),
                origin: None,
            })
            .collect();
        let ensemble = ParticleEnsemble::from_vec(particles);
        let weights = ensemble.normalized_weights();
        let total: f64 = weights.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "candidate weights sum {}", total);

        let mut rng = Xoshiro256PlusPlus::new(11);
        let picks = Multinomial.resample(&weights, n_out, &mut rng);
        let mut posterior = ParticleEnsemble::from_vec(
            picks.iter().map(|&i| ensemble.particles()[i].clone()).collect(),
        );
        posterior.set_uniform_weights();
        let post_w = posterior.normalized_weights();
        let post_total: f64 = post_w.iter().sum();
        prop_assert!(
            (post_total - 1.0).abs() < 1e-9,
            "posterior weights sum {}",
            post_total
        );
        let uniform = 1.0 / n_out as f64;
        prop_assert!(post_w.iter().all(|&w| (w - uniform).abs() < 1e-12));
    }

    #[test]
    fn seir_mass_conserved_every_step(
        theta in 0.05f64..0.9,
        seed in 0u64..1_000_000,
        days in 1u32..40,
    ) {
        // Compartment mass conservation checked after EVERY step, not
        // just at the horizon: the chain-binomial update moves people
        // between compartments but never creates or destroys them.
        let params = SeirParams {
            population: 8_000,
            initial_exposed: 40,
            transmission_rate: theta,
            ..SeirParams::default()
        };
        let model = SeirModel::new(params).unwrap();
        let mut sim = Simulation::new(
            model.spec(),
            BinomialChainStepper::daily(),
            model.initial_state(seed),
        )
        .unwrap();
        for day in 1..=days {
            sim.run_until(day);
            prop_assert_eq!(
                sim.state().total_population(),
                8_000,
                "mass leaked by day {}",
                day
            );
        }
    }

    #[test]
    fn multinomial_split_partitions_any_total(
        total in 0u64..10_000,
        p1 in 0.01f64..0.98,
    ) {
        // Via the public engine API: a two-branch progression conserves
        // counts across the split (checked through population totals).
        let p2 = 1.0 - p1;
        let spec = epismc::sim::spec::ModelSpec {
            name: "split".into(),
            compartments: vec![
                epismc::sim::spec::Compartment::simple("A"),
                epismc::sim::spec::Compartment::simple("B"),
                epismc::sim::spec::Compartment::simple("C"),
            ],
            progressions: vec![epismc::sim::spec::Progression {
                from: 0,
                mean_dwell: 1.0,
                branches: vec![(1, p1), (2, p2)],
            }],
            infections: vec![],
            transmission_rate: 0.0,
            flows: vec![],
            censuses: vec![],
        };
        let model = CompiledSpec::new(spec.clone()).unwrap();
        let mut st = epismc::sim::state::SimState::empty(&spec, 3);
        st.seed_compartment(&spec, 0, total);
        let stepper = BinomialChainStepper::daily();
        let mut flows: Vec<u64> = vec![];
        let mut scratch = epismc::sim::engine::StepScratch::default();
        for _ in 0..30 {
            stepper.advance_day(&model, &mut st, &mut flows, &mut scratch);
        }
        prop_assert_eq!(st.total_population(), total);
    }
}

/// Where a generated series starts, given its kind and the end day of the
/// source it goes to (`None` for a source with no data yet), and how many
/// days it holds.
fn series_start(kind: u8, offset: u32, len: usize, end: Option<u32>) -> (u32, usize) {
    match (kind, end) {
        // Contiguous: the day after the source's end.
        (0, Some(e)) => (e.saturating_add(1), len),
        // Gapped: at least one day missing.
        (1, Some(e)) => (e.saturating_add(2 + offset), len),
        // Overlapping: starts on or before the source's end.
        (2, Some(e)) => (e.saturating_sub(offset), len),
        // Near the last representable day, so the series may end past it.
        (3, _) => (u32::MAX - offset, len),
        // Empty.
        (4, e) => (e.map_or(1, |e| e.saturating_add(1)), 0),
        // The first series of a source with no data yet.
        _ => (1 + offset, len),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `StreamingCalibrator::ingest` against a model of each source's end
    /// day: a series is taken exactly when its source exists, it holds at
    /// least one day, its last day fits in a `u32`, and it starts the day
    /// after the source's end (anywhere, on a source with no data yet).
    /// Every refusal is a typed `SmcError::Observation`, never a panic.
    #[test]
    fn stream_ingestion_matches_an_end_day_model(
        calls in proptest::collection::vec((0usize..3, 0u8..5, 0u32..4, 1usize..5), 1..12)
    ) {
        let sim = SeirSimulator::new(SeirParams::default()).unwrap();
        let calibrator = SequentialCalibrator::new(
            &sim,
            CalibrationConfig::builder().threads(1).build(),
            vec![JitterKernel::symmetric(0.05, 0.05, 0.95)],
            JitterKernel::symmetric(0.05, 0.05, 1.0),
        );
        let store = MemStore::new();
        let mut stream = StreamingCalibrator::open(
            calibrator,
            Priors::paper(),
            ObservedData::cases_and_deaths(Vec::new(), Vec::new()),
            &store,
            CheckpointPolicy::every_window(),
        )
        .unwrap();
        // The model: each source's end day. Source 2 does not exist.
        let mut ends = [None::<u32>; 2];
        for (source, kind, offset, len) in calls {
            let end = ends.get(source).copied().flatten();
            let (start_day, len) = series_start(kind, offset, len, end);
            let series = ObservedSeries { start_day, values: vec![3.0; len] };
            let last = u32::try_from(len)
                .ok()
                .and_then(|n| n.checked_sub(1))
                .and_then(|n| start_day.checked_add(n));
            let takes = source < ends.len()
                && last.is_some()
                && end.is_none_or(|e| e.checked_add(1) == Some(start_day));
            match stream.ingest(source, &series) {
                Ok(()) => {
                    prop_assert!(takes, "source {source} took {series:?} after day {end:?}");
                    ends[source] = last;
                }
                Err(e) => {
                    prop_assert!(!takes, "source {source} refused {series:?} after day {end:?}: {e}");
                    prop_assert!(matches!(e, SmcError::Observation(_)), "{e}");
                }
            }
        }
    }
}
