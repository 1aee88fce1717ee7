//! Age-stratified COVID model — the "Covid-age" configuration the paper's
//! Section V-A draws its ground truth from.
//!
//! The single-population compartment graph of [`crate::covid`] is
//! replicated per age group, with:
//!
//! * a **contact matrix** `M[i][j]` scaling how much group `j`'s
//!   infectious pool contributes to group `i`'s force of infection
//!   (encoded as structured [`Infection::weighted`] sources);
//! * per-group **susceptibility** multipliers;
//! * per-group **severity ladders** (fraction symptomatic / severe /
//!   critical / fatal), capturing the strong age gradient of COVID-19
//!   outcomes.
//!
//! Outputs aggregate across groups (`infections`, `deaths`, censuses —
//! the series the calibrator scores) and are additionally recorded per
//! group (`infections@<group>`, `deaths@<group>`) for age-targeted
//! analyses, which the paper's Discussion motivates (school closures,
//! age-targeted vaccination).

use crate::spec::{
    CensusSpec, Compartment, CompartmentId, FlowSpec, Infection, ModelSpec, Progression,
};
use crate::state::SimState;

/// Disease parameters shared by all age groups (durations, detection,
/// relative infectiousness) — mirrors the scalar fields of
/// [`crate::covid::CovidParams`].
#[derive(Clone, Debug, PartialEq)]
pub struct SharedDisease {
    /// Mean latent (E) duration.
    pub latent_period: f64,
    /// Mean presymptomatic duration.
    pub presymp_duration: f64,
    /// Mean asymptomatic infectious duration.
    pub asymp_duration: f64,
    /// Mean mild-symptomatic duration.
    pub mild_duration: f64,
    /// Mean severe-symptomatic duration until hospitalization.
    pub severe_to_hosp: f64,
    /// Mean pre-critical hospital stay.
    pub hosp_duration: f64,
    /// Mean ICU stay.
    pub icu_duration: f64,
    /// Mean post-ICU stay.
    pub post_icu_duration: f64,
    /// Detection probability: asymptomatic.
    pub detect_asymp: f64,
    /// Detection probability: presymptomatic.
    pub detect_presymp: f64,
    /// Detection probability: mild.
    pub detect_mild: f64,
    /// Detection probability: severe.
    pub detect_severe: f64,
    /// Relative infectiousness of asymptomatic/presymptomatic carriers.
    pub rel_infectious_asymp: f64,
    /// Relative infectiousness of detected (isolating) carriers.
    pub rel_infectious_detected: f64,
    /// Erlang stages for the latent compartment.
    pub latent_stages: u32,
    /// Erlang stages for other non-terminal compartments.
    pub progression_stages: u32,
}

impl Default for SharedDisease {
    fn default() -> Self {
        let c = crate::covid::CovidParams::default();
        Self {
            latent_period: c.latent_period,
            presymp_duration: c.presymp_duration,
            asymp_duration: c.asymp_duration,
            mild_duration: c.mild_duration,
            severe_to_hosp: c.severe_to_hosp,
            hosp_duration: c.hosp_duration,
            icu_duration: c.icu_duration,
            post_icu_duration: c.post_icu_duration,
            detect_asymp: c.detect_asymp,
            detect_presymp: c.detect_presymp,
            detect_mild: c.detect_mild,
            detect_severe: c.detect_severe,
            rel_infectious_asymp: c.rel_infectious_asymp,
            rel_infectious_detected: c.rel_infectious_detected,
            latent_stages: c.latent_stages,
            progression_stages: c.progression_stages,
        }
    }
}

/// One age group's demography and severity profile.
#[derive(Clone, Debug, PartialEq)]
pub struct AgeGroup {
    /// Group label (used in compartment and output names).
    pub name: String,
    /// Group population.
    pub population: u64,
    /// Initially exposed individuals.
    pub initial_exposed: u64,
    /// Relative susceptibility to infection (1 = baseline).
    pub susceptibility: f64,
    /// Fraction of infections becoming symptomatic.
    pub frac_symptomatic: f64,
    /// Fraction of symptomatic becoming severe.
    pub frac_severe: f64,
    /// Fraction of hospitalized becoming critical.
    pub frac_critical: f64,
    /// Fraction of critical dying.
    pub frac_fatal: f64,
}

/// Full configuration of the age-stratified model.
#[derive(Clone, Debug, PartialEq)]
pub struct CovidAgeParams {
    /// Global transmission rate (the calibration parameter).
    pub transmission_rate: f64,
    /// Shared disease natural history.
    pub shared: SharedDisease,
    /// The age groups.
    pub groups: Vec<AgeGroup>,
    /// Row-stochastic-ish contact matrix: `contact[i][j]` weights group
    /// `j`'s infectious pool in group `i`'s force of infection.
    pub contact: Vec<Vec<f64>>,
}

impl CovidAgeParams {
    /// A three-group (children / adults / elderly) configuration with a
    /// plausible COVID-like age gradient, scaled to `population` total.
    pub fn three_groups(population: u64, initial_exposed: u64) -> Self {
        let frac = [0.22, 0.60, 0.18];
        let groups = vec![
            AgeGroup {
                name: "child".into(),
                population: (population as f64 * frac[0]) as u64,
                initial_exposed: (initial_exposed as f64 * frac[0]) as u64,
                susceptibility: 0.6,
                frac_symptomatic: 0.35,
                frac_severe: 0.01,
                frac_critical: 0.15,
                frac_fatal: 0.05,
            },
            AgeGroup {
                name: "adult".into(),
                population: (population as f64 * frac[1]) as u64,
                initial_exposed: (initial_exposed as f64 * frac[1]) as u64,
                susceptibility: 1.0,
                frac_symptomatic: 0.65,
                frac_severe: 0.06,
                frac_critical: 0.22,
                frac_fatal: 0.25,
            },
            AgeGroup {
                name: "elder".into(),
                population: (population as f64 * frac[2]) as u64,
                initial_exposed: (initial_exposed as f64 * frac[2]).max(1.0) as u64,
                susceptibility: 1.1,
                frac_symptomatic: 0.80,
                frac_severe: 0.22,
                frac_critical: 0.40,
                frac_fatal: 0.55,
            },
        ];
        // POLYMOD-flavoured mixing: strong within-group contact for
        // children, adults mix with everyone, elderly mix less.
        let contact = vec![
            vec![1.8, 0.8, 0.2],
            vec![0.8, 1.2, 0.4],
            vec![0.2, 0.4, 0.7],
        ];
        Self {
            transmission_rate: 0.30,
            shared: SharedDisease::default(),
            groups,
            contact,
        }
    }

    /// Validate ranges and the contact-matrix shape.
    ///
    /// # Errors
    /// Returns the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.groups.is_empty() {
            return Err("no age groups".into());
        }
        if self.contact.len() != self.groups.len() {
            return Err("contact matrix rows != group count".into());
        }
        for (i, row) in self.contact.iter().enumerate() {
            if row.len() != self.groups.len() {
                return Err(format!("contact matrix row {i} has wrong length"));
            }
            for &v in row {
                if !(v.is_finite() && v >= 0.0) {
                    return Err(format!("contact matrix entry {v} invalid"));
                }
            }
        }
        if !(self.transmission_rate.is_finite() && self.transmission_rate >= 0.0) {
            return Err(format!("transmission_rate {}", self.transmission_rate));
        }
        let mut names = std::collections::BTreeSet::new();
        for g in &self.groups {
            if !names.insert(g.name.as_str()) {
                return Err(format!("duplicate group name '{}'", g.name));
            }
            if g.initial_exposed > g.population {
                return Err(format!("group '{}': initial exceeds population", g.name));
            }
            for (label, v) in [
                ("susceptibility", g.susceptibility),
                ("frac_symptomatic", g.frac_symptomatic),
                ("frac_severe", g.frac_severe),
                ("frac_critical", g.frac_critical),
                ("frac_fatal", g.frac_fatal),
            ] {
                let ok = if label == "susceptibility" {
                    v.is_finite() && v >= 0.0
                } else {
                    (0.0..=1.0).contains(&v)
                };
                if !ok {
                    return Err(format!("group '{}': {label} = {v}", g.name));
                }
            }
        }
        Ok(())
    }

    /// Total population across groups.
    pub fn total_population(&self) -> u64 {
        self.groups.iter().map(|g| g.population).sum()
    }
}

/// Per-group compartment roles, in layout order.
const ROLES: [&str; 15] = [
    "S", "E", "As_u", "As_d", "P_u", "P_d", "Sm_u", "Sm_d", "Ss_u", "Ss_d", "H", "C", "Hp", "D",
    "R",
];
const N_ROLES: usize = ROLES.len();
/// Roles that are infectious outside hospital (with their base weight
/// resolved at build time).
const ROLE_S: usize = 0;
const ROLE_E: usize = 1;
const ROLE_AS_U: usize = 2;
const ROLE_AS_D: usize = 3;
const ROLE_P_U: usize = 4;
const ROLE_P_D: usize = 5;
const ROLE_SM_U: usize = 6;
const ROLE_SM_D: usize = 7;
const ROLE_SS_U: usize = 8;
const ROLE_SS_D: usize = 9;
const ROLE_H: usize = 10;
const ROLE_C: usize = 11;
const ROLE_HP: usize = 12;
const ROLE_D: usize = 13;
const ROLE_R: usize = 14;

/// The age-stratified COVID model.
#[derive(Clone, Debug)]
pub struct CovidAgeModel {
    params: CovidAgeParams,
}

impl CovidAgeModel {
    /// Create a model from validated parameters.
    ///
    /// # Errors
    /// Propagates [`CovidAgeParams::validate`] failures.
    pub fn new(params: CovidAgeParams) -> Result<Self, String> {
        params.validate()?;
        Ok(Self { params })
    }

    /// The model parameters.
    pub fn params(&self) -> &CovidAgeParams {
        &self.params
    }

    /// Compartment id of `role` within `group`.
    fn cid(group: usize, role: usize) -> CompartmentId {
        group * N_ROLES + role
    }

    /// Build the declarative spec: `groups x 15` compartments, per-group
    /// progressions, contact-matrix-weighted infections, aggregated and
    /// per-group outputs.
    pub fn spec(&self) -> ModelSpec {
        let p = &self.params;
        let sh = &p.shared;
        let ka = sh.rel_infectious_asymp;
        let kd = sh.rel_infectious_detected;
        let st = sh.progression_stages;
        let n_groups = p.groups.len();

        let mut compartments = Vec::with_capacity(n_groups * N_ROLES);
        let mut progressions = Vec::new();
        let mut infections = Vec::new();

        for (gi, g) in p.groups.iter().enumerate() {
            let suffix = format!("@{}", g.name);
            let infectivity = |role: usize| -> f64 {
                match role {
                    ROLE_AS_U | ROLE_P_U => ka,
                    ROLE_AS_D | ROLE_P_D => ka * kd,
                    ROLE_SM_U | ROLE_SS_U => 1.0,
                    ROLE_SM_D | ROLE_SS_D => kd,
                    _ => 0.0,
                }
            };
            for (ri, role) in ROLES.iter().enumerate() {
                let stages = match ri {
                    ROLE_S | ROLE_D | ROLE_R => 1,
                    ROLE_E => sh.latent_stages,
                    _ => st,
                };
                compartments.push(Compartment::new(
                    &format!("{role}{suffix}"),
                    stages,
                    infectivity(ri),
                ));
            }

            let fs = g.frac_symptomatic;
            let fsev = g.frac_severe;
            progressions.extend([
                Progression {
                    from: Self::cid(gi, ROLE_E),
                    mean_dwell: sh.latent_period,
                    branches: vec![
                        (
                            Self::cid(gi, ROLE_AS_U),
                            (1.0 - fs) * (1.0 - sh.detect_asymp),
                        ),
                        (Self::cid(gi, ROLE_AS_D), (1.0 - fs) * sh.detect_asymp),
                        (Self::cid(gi, ROLE_P_U), fs * (1.0 - sh.detect_presymp)),
                        (Self::cid(gi, ROLE_P_D), fs * sh.detect_presymp),
                    ],
                },
                Progression {
                    from: Self::cid(gi, ROLE_AS_U),
                    mean_dwell: sh.asymp_duration,
                    branches: vec![(Self::cid(gi, ROLE_R), 1.0)],
                },
                Progression {
                    from: Self::cid(gi, ROLE_AS_D),
                    mean_dwell: sh.asymp_duration,
                    branches: vec![(Self::cid(gi, ROLE_R), 1.0)],
                },
                Progression {
                    from: Self::cid(gi, ROLE_P_U),
                    mean_dwell: sh.presymp_duration,
                    branches: vec![
                        (
                            Self::cid(gi, ROLE_SM_U),
                            (1.0 - fsev) * (1.0 - sh.detect_mild),
                        ),
                        (Self::cid(gi, ROLE_SM_D), (1.0 - fsev) * sh.detect_mild),
                        (Self::cid(gi, ROLE_SS_U), fsev * (1.0 - sh.detect_severe)),
                        (Self::cid(gi, ROLE_SS_D), fsev * sh.detect_severe),
                    ],
                },
                Progression {
                    from: Self::cid(gi, ROLE_P_D),
                    mean_dwell: sh.presymp_duration,
                    branches: vec![
                        (Self::cid(gi, ROLE_SM_D), 1.0 - fsev),
                        (Self::cid(gi, ROLE_SS_D), fsev),
                    ],
                },
                Progression {
                    from: Self::cid(gi, ROLE_SM_U),
                    mean_dwell: sh.mild_duration,
                    branches: vec![(Self::cid(gi, ROLE_R), 1.0)],
                },
                Progression {
                    from: Self::cid(gi, ROLE_SM_D),
                    mean_dwell: sh.mild_duration,
                    branches: vec![(Self::cid(gi, ROLE_R), 1.0)],
                },
                Progression {
                    from: Self::cid(gi, ROLE_SS_U),
                    mean_dwell: sh.severe_to_hosp,
                    branches: vec![(Self::cid(gi, ROLE_H), 1.0)],
                },
                Progression {
                    from: Self::cid(gi, ROLE_SS_D),
                    mean_dwell: sh.severe_to_hosp,
                    branches: vec![(Self::cid(gi, ROLE_H), 1.0)],
                },
                Progression {
                    from: Self::cid(gi, ROLE_H),
                    mean_dwell: sh.hosp_duration,
                    branches: vec![
                        (Self::cid(gi, ROLE_C), g.frac_critical),
                        (Self::cid(gi, ROLE_R), 1.0 - g.frac_critical),
                    ],
                },
                Progression {
                    from: Self::cid(gi, ROLE_C),
                    mean_dwell: sh.icu_duration,
                    branches: vec![
                        (Self::cid(gi, ROLE_D), g.frac_fatal),
                        (Self::cid(gi, ROLE_HP), 1.0 - g.frac_fatal),
                    ],
                },
                Progression {
                    from: Self::cid(gi, ROLE_HP),
                    mean_dwell: sh.post_icu_duration,
                    branches: vec![(Self::cid(gi, ROLE_R), 1.0)],
                },
            ]);

            // Structured infection: group gi's susceptibles feel every
            // group gj's infectious pool scaled by contact[gi][gj].
            let infectious_roles = [
                ROLE_AS_U, ROLE_AS_D, ROLE_P_U, ROLE_P_D, ROLE_SM_U, ROLE_SM_D, ROLE_SS_U,
                ROLE_SS_D,
            ];
            let mut sources = Vec::with_capacity(n_groups * infectious_roles.len());
            for (gj, &w) in p.contact[gi].iter().enumerate() {
                for &role in &infectious_roles {
                    sources.push((Self::cid(gj, role), w));
                }
            }
            infections.push(Infection::weighted(
                Self::cid(gi, ROLE_S),
                Self::cid(gi, ROLE_E),
                g.susceptibility,
                sources,
            ));
        }

        // Aggregated flows (scored by the calibrator) + per-group flows.
        let mut flows = vec![
            FlowSpec {
                name: "infections".into(),
                edges: (0..n_groups)
                    .map(|gi| (Self::cid(gi, ROLE_S), Self::cid(gi, ROLE_E)))
                    .collect(),
            },
            FlowSpec {
                name: "deaths".into(),
                edges: (0..n_groups)
                    .map(|gi| (Self::cid(gi, ROLE_C), Self::cid(gi, ROLE_D)))
                    .collect(),
            },
        ];
        for (gi, g) in p.groups.iter().enumerate() {
            flows.push(FlowSpec {
                name: format!("infections@{}", g.name),
                edges: vec![(Self::cid(gi, ROLE_S), Self::cid(gi, ROLE_E))],
            });
            flows.push(FlowSpec {
                name: format!("deaths@{}", g.name),
                edges: vec![(Self::cid(gi, ROLE_C), Self::cid(gi, ROLE_D))],
            });
        }
        let censuses = vec![
            CensusSpec {
                name: "hospital_census".into(),
                compartments: (0..n_groups)
                    .flat_map(|gi| {
                        [
                            Self::cid(gi, ROLE_H),
                            Self::cid(gi, ROLE_C),
                            Self::cid(gi, ROLE_HP),
                        ]
                    })
                    .collect(),
            },
            CensusSpec {
                name: "icu_census".into(),
                compartments: (0..n_groups).map(|gi| Self::cid(gi, ROLE_C)).collect(),
            },
        ];

        ModelSpec {
            name: "covid-age".into(),
            compartments,
            progressions,
            infections,
            transmission_rate: p.transmission_rate,
            flows,
            censuses,
        }
    }

    /// Initial state: each group seeded with its own exposures.
    pub fn initial_state(&self, seed: u64) -> SimState {
        let spec = self.spec();
        let mut st = SimState::empty(&spec, seed);
        for (gi, g) in self.params.groups.iter().enumerate() {
            st.seed_compartment(
                &spec,
                Self::cid(gi, ROLE_S),
                g.population - g.initial_exposed,
            );
            st.seed_compartment(&spec, Self::cid(gi, ROLE_E), g.initial_exposed);
        }
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::BinomialChainStepper;
    use crate::runner::Simulation;

    fn small() -> CovidAgeModel {
        CovidAgeModel::new(CovidAgeParams::three_groups(60_000, 120)).unwrap()
    }

    #[test]
    fn spec_builds_and_validates() {
        let m = small();
        let spec = m.spec();
        assert!(spec.validate().is_ok());
        assert_eq!(spec.compartments.len(), 3 * 15);
        assert_eq!(spec.infections.len(), 3);
        let named = |name: &str| spec.compartments.iter().any(|c| c.name == name);
        assert!(named("Ss_d@elder"));
        assert!(!named("Ss_d@nobody"));
    }

    #[test]
    fn population_conserved_and_outputs_consistent() {
        let m = small();
        let mut sim =
            Simulation::new(m.spec(), BinomialChainStepper::daily(), m.initial_state(3)).unwrap();
        sim.run_until(100);
        assert_eq!(
            sim.state().total_population(),
            m.params().total_population()
        );
        let s = sim.series();
        // Aggregate infections equal the sum of per-group infections.
        let total: Vec<u64> = s.series("infections").unwrap().to_vec();
        let mut summed = vec![0u64; total.len()];
        for g in &m.params().groups {
            for (acc, v) in summed
                .iter_mut()
                .zip(s.series(&format!("infections@{}", g.name)).unwrap())
            {
                *acc += v;
            }
        }
        assert_eq!(total, summed);
    }

    #[test]
    fn age_gradient_shows_in_death_rates() {
        // Elderly must die at a far higher per-infection rate than
        // children (severity ladder: 0.22*0.40*0.55 vs 0.01*0.15*0.05).
        let m = small();
        let mut inf = [0u64; 3];
        let mut deaths = [0u64; 3];
        for seed in 0..4u64 {
            let mut sim = Simulation::new(
                m.spec(),
                BinomialChainStepper::daily(),
                m.initial_state(seed),
            )
            .unwrap();
            sim.run_until(200);
            for (gi, g) in m.params().groups.iter().enumerate() {
                inf[gi] += sim
                    .series()
                    .series(&format!("infections@{}", g.name))
                    .unwrap()
                    .iter()
                    .sum::<u64>();
                deaths[gi] += sim
                    .series()
                    .series(&format!("deaths@{}", g.name))
                    .unwrap()
                    .iter()
                    .sum::<u64>();
            }
        }
        let ifr = |gi: usize| deaths[gi] as f64 / inf[gi].max(1) as f64;
        assert!(
            ifr(2) > 20.0 * ifr(0).max(1e-6),
            "elder IFR {:.4} not >> child IFR {:.4}",
            ifr(2),
            ifr(0)
        );
        assert!(ifr(1) > ifr(0));
    }

    #[test]
    fn contact_matrix_shapes_attack_rates() {
        // Zero out all contact to/from children: children see (almost) no
        // infections beyond their initial seeds' household... in this
        // model, exactly none besides their seeded exposures.
        let mut params = CovidAgeParams::three_groups(60_000, 120);
        params.contact[0] = vec![0.0, 0.0, 0.0];
        let isolated = CovidAgeModel::new(params).unwrap();
        let mut sim = Simulation::new(
            isolated.spec(),
            BinomialChainStepper::daily(),
            isolated.initial_state(9),
        )
        .unwrap();
        sim.run_until(150);
        let child_inf: u64 = sim
            .series()
            .series("infections@child")
            .unwrap()
            .iter()
            .sum();
        assert_eq!(child_inf, 0, "isolated children still got infected");
        let adult_inf: u64 = sim
            .series()
            .series("infections@adult")
            .unwrap()
            .iter()
            .sum();
        assert!(adult_inf > 1_000, "adult epidemic should still run");
    }

    #[test]
    fn checkpoint_restart_works_for_age_model() {
        let m = small();
        let mut sim =
            Simulation::new(m.spec(), BinomialChainStepper::daily(), m.initial_state(5)).unwrap();
        sim.run_until(40);
        let ck = sim.checkpoint();
        let mut hot = m.params().clone();
        hot.transmission_rate = 0.6;
        let m2 = CovidAgeModel::new(hot).unwrap();
        let mut resumed =
            Simulation::resume_with_seed(m2.spec(), BinomialChainStepper::daily(), &ck, 77)
                .unwrap();
        resumed.run_until(80);
        assert_eq!(resumed.state().day, 80);
        assert_eq!(
            resumed.state().total_population(),
            m.params().total_population()
        );
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut p = CovidAgeParams::three_groups(10_000, 20);
        p.contact.pop();
        assert!(CovidAgeModel::new(p).is_err());
        let mut p = CovidAgeParams::three_groups(10_000, 20);
        p.contact[1][2] = -0.5;
        assert!(CovidAgeModel::new(p).is_err());
        let mut p = CovidAgeParams::three_groups(10_000, 20);
        p.groups[0].frac_fatal = 1.2;
        assert!(CovidAgeModel::new(p).is_err());
        let mut p = CovidAgeParams::three_groups(10_000, 20);
        p.groups[1].name = p.groups[0].name.clone();
        assert!(CovidAgeModel::new(p).is_err());
    }
}
