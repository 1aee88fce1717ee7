//! The COVID-Chicago-style stochastic SEIR model (paper Fig 1).
//!
//! Compartment graph, with `u`/`d` marking undetected/detected strata
//! (detected individuals isolate and transmit less):
//!
//! ```text
//!            ┌────────────► As_u/As_d ────────────────┐
//!            │                                        ▼
//! S ──► E ───┤                                        R
//!            │                                        ▲
//!            └──► P_u/P_d ──┬──► Sm_u/Sm_d ───────────┤
//!                           │                         │
//!                           └──► Ss_u/Ss_d ──► H ──┬──┘
//!                                                  │
//!                                             C ◄──┘
//!                                             │ ├──► Hp ──► R
//!                                             └──► D
//! ```
//!
//! Detection is resolved at entry into each infectious stage (a fraction
//! of entrants are detected after their presymptomatic/asymptomatic or
//! symptomatic onset), matching the reference model's time-varying
//! detection fractions held constant within a run.
//!
//! The six parameters the paper's checkpoint restart can override
//! (Section III-B) are all first-class fields of [`CovidParams`]:
//! the random seed (via [`crate::SimCheckpoint::restore_with_seed`]),
//! `frac_symptomatic` (E to P split), `frac_severe` (P to Sm split),
//! `rel_infectious_asymp`, `rel_infectious_detected`, and
//! `transmission_rate`.

use serde::{Deserialize, Serialize};

use crate::spec::{
    CensusSpec, Compartment, CompartmentId, FlowSpec, Infection, ModelSpec, Progression,
};
use crate::state::SimState;

/// Compartment ids of the COVID model, in spec order.
#[allow(missing_docs)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum C {
    S = 0,
    E = 1,
    AsU = 2,
    AsD = 3,
    PU = 4,
    PD = 5,
    SmU = 6,
    SmD = 7,
    SsU = 8,
    SsD = 9,
    H = 10,
    Icu = 11,
    Hp = 12,
    D = 13,
    R = 14,
}

impl C {
    /// The compartment's index in the model spec.
    pub fn id(self) -> CompartmentId {
        self as CompartmentId
    }
}

/// All parameters of the COVID model.
///
/// Durations are in days; fractions and probabilities in `[0, 1]`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CovidParams {
    /// Transmission rate `theta` — the paper's calibration parameter.
    pub transmission_rate: f64,
    /// Total population.
    pub population: u64,
    /// Individuals initially in E (day 0).
    pub initial_exposed: u64,

    /// Mean latent (E) duration.
    pub latent_period: f64,
    /// Mean presymptomatic (P) duration.
    pub presymp_duration: f64,
    /// Mean asymptomatic (As) infectious duration.
    pub asymp_duration: f64,
    /// Mean mild-symptomatic (Sm) duration until recovery.
    pub mild_duration: f64,
    /// Mean severe-symptomatic (Ss) duration until hospitalization.
    pub severe_to_hosp: f64,
    /// Mean pre-critical hospital (H) stay.
    pub hosp_duration: f64,
    /// Mean ICU (C) stay.
    pub icu_duration: f64,
    /// Mean post-ICU hospital (Hp) stay.
    pub post_icu_duration: f64,

    /// Fraction of exposed becoming presymptomatic (vs asymptomatic) —
    /// the "fraction E to P" checkpoint parameter.
    pub frac_symptomatic: f64,
    /// Fraction of presymptomatic developing severe (vs mild) symptoms —
    /// `1 -` the "fraction P to Sm" checkpoint parameter.
    pub frac_severe: f64,
    /// Fraction of hospitalized progressing to critical (ICU).
    pub frac_critical: f64,
    /// Fraction of critical cases dying.
    pub frac_fatal: f64,

    /// Detection probability for asymptomatic infections.
    pub detect_asymp: f64,
    /// Detection probability at the presymptomatic stage.
    pub detect_presymp: f64,
    /// Detection probability for mild symptomatic cases.
    pub detect_mild: f64,
    /// Detection probability for severe symptomatic cases.
    pub detect_severe: f64,

    /// Relative infectiousness of asymptomatic/presymptomatic vs
    /// symptomatic individuals.
    pub rel_infectious_asymp: f64,
    /// Relative infectiousness of detected (isolating) vs undetected
    /// individuals.
    pub rel_infectious_detected: f64,

    /// Erlang stages for the latent compartment.
    pub latent_stages: u32,
    /// Erlang stages for every other non-terminal compartment.
    pub progression_stages: u32,
}

impl Default for CovidParams {
    /// Chicago-scale defaults with literature-style disease parameters
    /// (see DESIGN.md: values follow the COVID-Chicago reference model's
    /// published magnitudes).
    fn default() -> Self {
        Self {
            transmission_rate: 0.30,
            population: 2_700_000,
            initial_exposed: 300,
            latent_period: 3.5,
            presymp_duration: 2.1,
            asymp_duration: 7.0,
            mild_duration: 7.0,
            severe_to_hosp: 4.5,
            hosp_duration: 6.0,
            icu_duration: 10.0,
            post_icu_duration: 5.0,
            frac_symptomatic: 0.65,
            frac_severe: 0.08,
            frac_critical: 0.25,
            frac_fatal: 0.40,
            detect_asymp: 0.05,
            detect_presymp: 0.10,
            detect_mild: 0.40,
            detect_severe: 0.80,
            rel_infectious_asymp: 0.75,
            rel_infectious_detected: 0.30,
            latent_stages: 3,
            progression_stages: 2,
        }
    }
}

impl CovidParams {
    /// Validate parameter ranges.
    ///
    /// # Errors
    /// Returns a description of the first out-of-range parameter.
    pub fn validate(&self) -> Result<(), String> {
        let fractions = [
            ("frac_symptomatic", self.frac_symptomatic),
            ("frac_severe", self.frac_severe),
            ("frac_critical", self.frac_critical),
            ("frac_fatal", self.frac_fatal),
            ("detect_asymp", self.detect_asymp),
            ("detect_presymp", self.detect_presymp),
            ("detect_mild", self.detect_mild),
            ("detect_severe", self.detect_severe),
        ];
        for (name, v) in fractions {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} = {v} outside [0, 1]"));
            }
        }
        let durations = [
            ("latent_period", self.latent_period),
            ("presymp_duration", self.presymp_duration),
            ("asymp_duration", self.asymp_duration),
            ("mild_duration", self.mild_duration),
            ("severe_to_hosp", self.severe_to_hosp),
            ("hosp_duration", self.hosp_duration),
            ("icu_duration", self.icu_duration),
            ("post_icu_duration", self.post_icu_duration),
        ];
        for (name, v) in durations {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{name} = {v} must be positive"));
            }
        }
        if !(self.transmission_rate.is_finite() && self.transmission_rate >= 0.0) {
            return Err(format!("transmission_rate = {}", self.transmission_rate));
        }
        for (name, v) in [
            ("rel_infectious_asymp", self.rel_infectious_asymp),
            ("rel_infectious_detected", self.rel_infectious_detected),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{name} = {v} must be non-negative"));
            }
        }
        if self.initial_exposed > self.population {
            return Err("initial_exposed exceeds population".into());
        }
        if self.latent_stages == 0 || self.progression_stages == 0 {
            return Err("Erlang stage counts must be >= 1".into());
        }
        Ok(())
    }

    /// Rough basic reproduction number implied by the parameters
    /// (transmission rate times the detection-weighted mean infectious
    /// duration) — a diagnostic, not used by the engine.
    pub fn approx_r0(&self) -> f64 {
        let fs = self.frac_symptomatic;
        let ka = self.rel_infectious_asymp;
        // Mean weighted infectious person-days per infection, ignoring the
        // (small) detected fraction.
        let asymp = (1.0 - fs) * ka * self.asymp_duration;
        let presym = fs * ka * self.presymp_duration;
        let sym = fs
            * ((1.0 - self.frac_severe) * self.mild_duration
                + self.frac_severe * self.severe_to_hosp);
        self.transmission_rate * (asymp + presym + sym)
    }
}

/// The COVID model: validated parameters plus the compiled spec builder.
#[derive(Clone, Debug)]
pub struct CovidModel {
    params: CovidParams,
}

impl CovidModel {
    /// Create a model from validated parameters.
    ///
    /// # Errors
    /// Propagates [`CovidParams::validate`] failures.
    pub fn new(params: CovidParams) -> Result<Self, String> {
        params.validate()?;
        Ok(Self { params })
    }

    /// The model parameters.
    pub fn params(&self) -> &CovidParams {
        &self.params
    }

    /// Build the declarative model spec for the current parameters.
    pub fn spec(&self) -> ModelSpec {
        let p = &self.params;
        let ka = p.rel_infectious_asymp;
        let kd = p.rel_infectious_detected;
        let st = p.progression_stages;

        let compartments = vec![
            Compartment::simple("S"),
            Compartment::new("E", p.latent_stages, 0.0),
            Compartment::new("As_u", st, ka),
            Compartment::new("As_d", st, ka * kd),
            Compartment::new("P_u", st, ka),
            Compartment::new("P_d", st, ka * kd),
            Compartment::new("Sm_u", st, 1.0),
            Compartment::new("Sm_d", st, kd),
            Compartment::new("Ss_u", st, 1.0),
            Compartment::new("Ss_d", st, kd),
            Compartment::new("H", st, 0.0),
            Compartment::new("C", st, 0.0),
            Compartment::new("Hp", st, 0.0),
            Compartment::simple("D"),
            Compartment::simple("R"),
        ];

        let fs = p.frac_symptomatic;
        let fsev = p.frac_severe;
        use C::*;
        let progressions = vec![
            Progression {
                from: E.id(),
                mean_dwell: p.latent_period,
                branches: vec![
                    (AsU.id(), (1.0 - fs) * (1.0 - p.detect_asymp)),
                    (AsD.id(), (1.0 - fs) * p.detect_asymp),
                    (PU.id(), fs * (1.0 - p.detect_presymp)),
                    (PD.id(), fs * p.detect_presymp),
                ],
            },
            Progression {
                from: AsU.id(),
                mean_dwell: p.asymp_duration,
                branches: vec![(R.id(), 1.0)],
            },
            Progression {
                from: AsD.id(),
                mean_dwell: p.asymp_duration,
                branches: vec![(R.id(), 1.0)],
            },
            Progression {
                from: PU.id(),
                mean_dwell: p.presymp_duration,
                branches: vec![
                    (SmU.id(), (1.0 - fsev) * (1.0 - p.detect_mild)),
                    (SmD.id(), (1.0 - fsev) * p.detect_mild),
                    (SsU.id(), fsev * (1.0 - p.detect_severe)),
                    (SsD.id(), fsev * p.detect_severe),
                ],
            },
            Progression {
                from: PD.id(),
                mean_dwell: p.presymp_duration,
                branches: vec![(SmD.id(), 1.0 - fsev), (SsD.id(), fsev)],
            },
            Progression {
                from: SmU.id(),
                mean_dwell: p.mild_duration,
                branches: vec![(R.id(), 1.0)],
            },
            Progression {
                from: SmD.id(),
                mean_dwell: p.mild_duration,
                branches: vec![(R.id(), 1.0)],
            },
            Progression {
                from: SsU.id(),
                mean_dwell: p.severe_to_hosp,
                branches: vec![(H.id(), 1.0)],
            },
            Progression {
                from: SsD.id(),
                mean_dwell: p.severe_to_hosp,
                branches: vec![(H.id(), 1.0)],
            },
            Progression {
                from: H.id(),
                mean_dwell: p.hosp_duration,
                branches: vec![(Icu.id(), p.frac_critical), (R.id(), 1.0 - p.frac_critical)],
            },
            Progression {
                from: Icu.id(),
                mean_dwell: p.icu_duration,
                branches: vec![(D.id(), p.frac_fatal), (Hp.id(), 1.0 - p.frac_fatal)],
            },
            Progression {
                from: Hp.id(),
                mean_dwell: p.post_icu_duration,
                branches: vec![(R.id(), 1.0)],
            },
        ];

        ModelSpec {
            name: "covid-chicago".into(),
            compartments,
            progressions,
            infections: vec![Infection::simple(S.id(), E.id())],
            transmission_rate: p.transmission_rate,
            flows: vec![
                FlowSpec {
                    name: "infections".into(),
                    edges: vec![(S.id(), E.id())],
                },
                FlowSpec {
                    name: "deaths".into(),
                    edges: vec![(Icu.id(), D.id())],
                },
                FlowSpec {
                    name: "detected".into(),
                    edges: vec![
                        (E.id(), AsD.id()),
                        (E.id(), PD.id()),
                        (PU.id(), SmD.id()),
                        (PU.id(), SsD.id()),
                    ],
                },
                FlowSpec {
                    name: "hospitalizations".into(),
                    edges: vec![(SsU.id(), H.id()), (SsD.id(), H.id())],
                },
            ],
            censuses: vec![
                CensusSpec {
                    name: "hospital_census".into(),
                    compartments: vec![H.id(), Icu.id(), Hp.id()],
                },
                CensusSpec {
                    name: "icu_census".into(),
                    compartments: vec![Icu.id()],
                },
            ],
        }
    }

    /// Initial state: everyone susceptible except `initial_exposed` in E.
    pub fn initial_state(&self, seed: u64) -> SimState {
        self.initial_state_in(&self.spec(), seed)
    }

    /// [`Self::initial_state`] against an already-built spec for this
    /// model (e.g. out of a cached [`crate::engine::CompiledSpec`]),
    /// skipping the per-call spec rebuild — the hot-path variant used by
    /// the calibration grid.
    pub fn initial_state_in(&self, spec: &ModelSpec, seed: u64) -> SimState {
        let mut st = SimState::empty(spec, seed);
        st.seed_compartment(
            spec,
            C::S.id(),
            self.params.population - self.params.initial_exposed,
        );
        st.seed_compartment(spec, C::E.id(), self.params.initial_exposed);
        st
    }

    /// Clone of the parameters with a different transmission rate — the
    /// common re-parameterization in the calibration loop.
    pub fn with_transmission_rate(&self, theta: f64) -> CovidParams {
        CovidParams {
            transmission_rate: theta,
            ..self.params.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::BinomialChainStepper;
    use crate::runner::Simulation;

    fn small_params() -> CovidParams {
        CovidParams {
            population: 50_000,
            initial_exposed: 100,
            ..CovidParams::default()
        }
    }

    #[test]
    fn default_params_validate_and_build() {
        let m = CovidModel::new(CovidParams::default()).unwrap();
        let spec = m.spec();
        assert!(spec.validate().is_ok());
        assert_eq!(spec.compartments.len(), 15);
        assert_eq!(spec.compartment_id("Ss_d"), Some(C::SsD.id()));
    }

    #[test]
    fn r0_in_plausible_range() {
        let r0 = CovidParams::default().approx_r0();
        assert!(r0 > 1.2 && r0 < 3.0, "r0 = {r0}");
    }

    #[test]
    fn epidemic_produces_cases_and_deaths() {
        let m = CovidModel::new(small_params()).unwrap();
        let mut sim =
            Simulation::new(m.spec(), BinomialChainStepper::daily(), m.initial_state(42)).unwrap();
        sim.run_until(120);
        let inf: u64 = sim.series().series("infections").unwrap().iter().sum();
        let deaths: u64 = sim.series().series("deaths").unwrap().iter().sum();
        let detected: u64 = sim.series().series("detected").unwrap().iter().sum();
        assert!(inf > 1_000, "infections = {inf}");
        assert!(deaths > 0, "deaths = {deaths}");
        assert!(detected > 0 && detected < inf);
        // Deaths are a small fraction of infections (IFR well below 5%).
        assert!((deaths as f64) < 0.05 * inf as f64);
        // Population conserved.
        assert_eq!(sim.state().total_population(), 50_000);
    }

    #[test]
    fn deaths_lag_infections() {
        let m = CovidModel::new(small_params()).unwrap();
        let mut sim =
            Simulation::new(m.spec(), BinomialChainStepper::daily(), m.initial_state(7)).unwrap();
        sim.run_until(60);
        let deaths = sim.series().series("deaths").unwrap();
        // The death pipeline is ~latent + presymp + severe + hosp + icu
        // ~ 25 days; no deaths in the first ten days.
        let early: u64 = deaths[..10].iter().sum();
        assert_eq!(early, 0, "deaths in first 10 days: {early}");
    }

    #[test]
    fn higher_transmission_more_infections() {
        let mut totals = Vec::new();
        for theta in [0.15, 0.45] {
            let params = CovidParams {
                transmission_rate: theta,
                ..small_params()
            };
            let m = CovidModel::new(params).unwrap();
            let mut sim =
                Simulation::new(m.spec(), BinomialChainStepper::daily(), m.initial_state(9))
                    .unwrap();
            sim.run_until(80);
            totals.push(
                sim.series()
                    .series("infections")
                    .unwrap()
                    .iter()
                    .sum::<u64>(),
            );
        }
        assert!(totals[1] > 3 * totals[0], "{totals:?}");
    }

    #[test]
    fn branch_probabilities_validated() {
        let bad = CovidParams {
            frac_symptomatic: 1.4,
            ..CovidParams::default()
        };
        assert!(CovidModel::new(bad).is_err());
        let bad2 = CovidParams {
            latent_period: 0.0,
            ..CovidParams::default()
        };
        assert!(CovidModel::new(bad2).is_err());
        let bad3 = CovidParams {
            initial_exposed: 10,
            population: 5,
            ..CovidParams::default()
        };
        assert!(CovidModel::new(bad3).is_err());
    }

    #[test]
    fn gillespie_agrees_with_chain_binomial_on_the_full_graph() {
        // Stepper-fidelity check on the complete Fig 1 compartment graph
        // (not just the SEIR toy): cumulative infections and deaths from
        // the exact CTMC and the sub-daily chain-binomial agree in the
        // mean within Monte Carlo tolerance.
        use crate::engine::{GillespieStepper, Stepper};
        let m = CovidModel::new(CovidParams {
            population: 4_000,
            initial_exposed: 40,
            transmission_rate: 0.4,
            ..CovidParams::default()
        })
        .unwrap();
        let run = |stepper: &dyn Stepper, seed: u64| -> (f64, f64) {
            let model = crate::engine::CompiledSpec::new(m.spec()).unwrap();
            let mut st = m.initial_state(seed);
            let n_flows = model.spec.flows.len();
            let mut flows = vec![0u64; n_flows];
            let mut sc = crate::engine::StepScratch::default();
            for _ in 0..80 {
                stepper.advance_day(&model, &mut st, &mut flows, &mut sc);
            }
            assert_eq!(st.total_population(), 4_000);
            (flows[0] as f64, flows[1] as f64) // infections, deaths
        };
        let chain = BinomialChainStepper::try_with_substeps(8).unwrap();
        let reps = 8u64;
        let (mut gi, mut gd, mut ci, mut cd) = (0.0, 0.0, 0.0, 0.0);
        for s in 0..reps {
            let (i, d) = run(&GillespieStepper::new(), 300 + s);
            gi += i;
            gd += d;
            let (i, d) = run(&chain, 600 + s);
            ci += i;
            cd += d;
        }
        let rel = (gi - ci).abs() / gi.max(1.0);
        assert!(
            rel < 0.10,
            "infections: gillespie {gi:.0} vs chain {ci:.0} ({rel:.3})"
        );
        // Deaths are sparse; allow a loose band.
        assert!(
            (gd - cd).abs() <= 3.0 * (gd.max(cd)).sqrt().max(4.0),
            "deaths: gillespie {gd:.0} vs chain {cd:.0}"
        );
    }

    #[test]
    fn checkpoint_reparameterization_round_trip() {
        let m = CovidModel::new(small_params()).unwrap();
        let mut sim =
            Simulation::new(m.spec(), BinomialChainStepper::daily(), m.initial_state(5)).unwrap();
        sim.run_until(30);
        let ck = sim.checkpoint();
        // New theta, same layout: restore must succeed.
        let m2 = CovidModel::new(m.with_transmission_rate(0.5)).unwrap();
        let mut resumed =
            Simulation::resume_with_seed(m2.spec(), BinomialChainStepper::daily(), &ck, 77)
                .unwrap();
        resumed.run_until(60);
        assert_eq!(resumed.state().day, 60);
        // Changing the stage structure breaks the layout: restore fails.
        let m3 = CovidModel::new(CovidParams {
            latent_stages: 5,
            ..small_params()
        })
        .unwrap();
        assert!(
            Simulation::resume_with_seed(m3.spec(), BinomialChainStepper::daily(), &ck, 1).is_err()
        );
    }
}
