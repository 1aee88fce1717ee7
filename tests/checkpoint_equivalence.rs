//! Checkpoint semantics across the crate boundary: resuming equals never
//! stopping, parameter overrides branch trajectories, and serialized
//! round-trips preserve everything.

use epismc::prelude::*;
use epismc::smc::simulator::TrajectorySimulator;

fn simulator() -> CovidSimulator {
    CovidSimulator::new(Scenario::paper_tiny().base_params).unwrap()
}

#[test]
fn resume_is_bit_exact_with_uninterrupted_run() {
    let params = Scenario::paper_tiny().base_params;
    let model = CovidModel::new(params).unwrap();
    let mut full = Simulation::new(
        model.spec(),
        BinomialChainStepper::daily(),
        model.initial_state(99),
    )
    .unwrap();
    full.run_until(80);

    let mut first = Simulation::new(
        model.spec(),
        BinomialChainStepper::daily(),
        model.initial_state(99),
    )
    .unwrap();
    first.run_until(35);
    let ck = first.checkpoint();
    let mut resumed = Simulation::resume(model.spec(), BinomialChainStepper::daily(), &ck).unwrap();
    resumed.run_until(80);

    assert_eq!(resumed.state(), full.state());
    assert_eq!(
        resumed.series().series("infections").unwrap(),
        &full.series().series("infections").unwrap()[35..]
    );
    assert_eq!(
        resumed.series().series("deaths").unwrap(),
        &full.series().series("deaths").unwrap()[35..]
    );
}

#[test]
fn binary_checkpoint_survives_the_full_pipeline() {
    let sim = simulator();
    let (_, ck) = sim.run_fresh(&[0.3], 5, 40).unwrap();
    // bytes round trip
    let restored = SimCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
    assert_eq!(restored, ck);
    // Continue from original and from the round-tripped copy with the
    // same seed: identical futures.
    let (a, _) = sim.run_from(&ck, &[0.35], 77, 70).unwrap();
    let (b, _) = sim.run_from(&restored, &[0.35], 77, 70).unwrap();
    assert_eq!(a, b);
}

#[test]
fn checkpoint_restart_matches_paper_parameter_list() {
    // Section III-B: a restart may change (1) seed, (2) fraction E->P,
    // (3) fraction P->Sm, (4) asymptomatic infectiousness, (5) detected
    // infectiousness, (6) transmission rate — all without replaying.
    let base = Scenario::paper_tiny().base_params;
    let model = CovidModel::new(base.clone()).unwrap();
    let mut sim = Simulation::new(
        model.spec(),
        BinomialChainStepper::daily(),
        model.initial_state(1),
    )
    .unwrap();
    sim.run_until(30);
    let ck = sim.checkpoint();

    let variants = [
        CovidParams {
            transmission_rate: 0.45,
            ..base.clone()
        },
        CovidParams {
            frac_symptomatic: 0.5,
            ..base.clone()
        },
        CovidParams {
            frac_severe: 0.15,
            ..base.clone()
        },
        CovidParams {
            rel_infectious_asymp: 0.4,
            ..base.clone()
        },
        CovidParams {
            rel_infectious_detected: 0.1,
            ..base.clone()
        },
    ];
    for params in variants {
        let m = CovidModel::new(params).unwrap();
        let mut resumed =
            Simulation::resume_with_seed(m.spec(), BinomialChainStepper::daily(), &ck, 123)
                .unwrap();
        resumed.run_until(60);
        assert_eq!(resumed.state().day, 60);
        assert_eq!(
            resumed.state().total_population(),
            sim.state().total_population()
        );
    }
}

#[test]
fn branched_trajectories_share_history_and_diverge_after() {
    let sim = simulator();
    let (head, ck) = sim.run_fresh(&[0.3], 11, 40).unwrap();
    let (tail_a, _) = sim.run_from(&ck, &[0.3], 1, 70).unwrap();
    let (tail_b, _) = sim.run_from(&ck, &[0.3], 2, 70).unwrap();
    // Same compartment state at day 40 (shared history)...
    assert_eq!(head.len(), 40);
    assert_eq!(tail_a.start_day(), 41);
    assert_eq!(tail_b.start_day(), 41);
    // ...but different stochastic futures (different seeds).
    assert_ne!(
        tail_a.series("infections").unwrap(),
        tail_b.series("infections").unwrap()
    );
}

#[test]
fn restore_into_with_seed_matches_resume_across_steppers_and_models() {
    // The in-place restore (`restore_into_with_seed`, the worker-arena
    // path used by pooled workspaces and the durability layer) must be
    // indistinguishable from the allocate-fresh `resume_with_seed` path —
    // for every stepper and for both the scalar and age-stratified models.
    use epismc::sim::covid_age::{CovidAgeModel, CovidAgeParams};
    use epismc::sim::spec::ModelSpec;
    use epismc::sim::state::SimState;

    fn check<S: Stepper + Clone>(spec: ModelSpec, stepper: S, init: SimState, label: &str) {
        let mut first = Simulation::new(spec.clone(), stepper.clone(), init).unwrap();
        first.run_until(30);
        let ck = first.checkpoint();

        let mut resumed =
            Simulation::resume_with_seed(spec.clone(), stepper.clone(), &ck, 777).unwrap();
        resumed.run_until(60);

        // Restore over a state that already holds unrelated garbage (a
        // different seed's empty arena).
        let mut state = SimState::empty(&spec, 1);
        ck.restore_into_with_seed(&spec, &mut state, 777).unwrap();
        let mut rebuilt = Simulation::new(spec, stepper, state).unwrap();
        rebuilt.run_until(60);

        assert_eq!(rebuilt.state(), resumed.state(), "{label}: state diverged");
        assert_eq!(
            rebuilt.series(),
            resumed.series(),
            "{label}: series diverged"
        );
    }

    let covid = CovidModel::new(Scenario::paper_tiny().base_params).unwrap();
    let age = CovidAgeModel::new(CovidAgeParams::three_groups(20_000, 40)).unwrap();

    check(
        covid.spec(),
        BinomialChainStepper::daily(),
        covid.initial_state(5),
        "covid/binomial-chain",
    );
    check(
        covid.spec(),
        GillespieStepper::new(),
        covid.initial_state(5),
        "covid/gillespie",
    );
    check(
        age.spec(),
        BinomialChainStepper::daily(),
        age.initial_state(5),
        "covid-age/binomial-chain",
    );
    check(
        age.spec(),
        GillespieStepper::new(),
        age.initial_state(5),
        "covid-age/gillespie",
    );
}

#[test]
fn layout_mismatch_is_rejected_end_to_end() {
    let sim = simulator();
    let (_, ck) = sim.run_fresh(&[0.3], 1, 20).unwrap();
    let other = CovidSimulator::new(CovidParams {
        latent_stages: 5, // different Erlang layout
        ..Scenario::paper_tiny().base_params
    })
    .unwrap();
    let err = other.run_from(&ck, &[0.3], 1, 40).unwrap_err();
    assert!(err.to_string().contains("layout"), "{err}");
}
