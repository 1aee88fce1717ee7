//! Scenario definitions: the paper's experiment at several scales.

use episim::covid::CovidParams;

use crate::schedule::PiecewiseConstant;

/// A complete ground-truth scenario: disease model base parameters plus
/// the time-varying truth schedules and the simulation horizon.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (used in result file names).
    pub name: String,
    /// Base disease parameters (transmission rate is overridden by the
    /// schedule during truth generation and by the calibrator afterward).
    pub base_params: CovidParams,
    /// True transmission-rate schedule.
    pub theta_schedule: PiecewiseConstant,
    /// True reporting-probability schedule.
    pub rho_schedule: PiecewiseConstant,
    /// Last simulated day.
    pub horizon: u32,
    /// Seed for truth generation (calibration seeds are separate).
    pub truth_seed: u64,
}

impl Scenario {
    /// The paper's scenario at full Chicago scale (2.7M population).
    /// Heavy: use for `--full` figure regeneration runs.
    pub fn paper_full() -> Self {
        Self {
            name: "paper-full".into(),
            base_params: CovidParams::default(),
            theta_schedule: PiecewiseConstant::paper_theta(),
            rho_schedule: PiecewiseConstant::paper_rho(),
            horizon: 90,
            truth_seed: 20_240_615,
        }
    }

    /// The paper's scenario scaled to a 200k population — the default for
    /// figure regeneration on a laptop (identical schedules and horizon;
    /// only the population and seeding scale).
    pub fn paper_small() -> Self {
        Self {
            name: "paper-small".into(),
            base_params: CovidParams {
                population: 200_000,
                initial_exposed: 200,
                ..CovidParams::default()
            },
            ..Self::paper_full()
        }
    }

    /// A tiny variant for fast tests (20k population, horizon 90).
    pub fn paper_tiny() -> Self {
        Self {
            name: "paper-tiny".into(),
            base_params: CovidParams {
                population: 20_000,
                initial_exposed: 80,
                ..CovidParams::default()
            },
            ..Self::paper_full()
        }
    }

    /// A two-wave scenario: suppression after day 30 drives transmission
    /// below the epidemic threshold, a relaxation at day 80 launches a
    /// second wave; reporting improves and then degrades (holiday
    /// backlog). Stress-tests the calibrator's ability to follow
    /// non-monotone dynamics.
    pub fn second_wave() -> Self {
        Self {
            name: "second-wave".into(),
            base_params: CovidParams {
                population: 200_000,
                initial_exposed: 250,
                ..CovidParams::default()
            },
            theta_schedule: PiecewiseConstant::new(vec![0, 30, 80], vec![0.42, 0.12, 0.45]),
            rho_schedule: PiecewiseConstant::new(vec![0, 30, 90], vec![0.5, 0.85, 0.65]),
            horizon: 120,
            truth_seed: 20_240_616,
        }
    }

    /// A slow-burn scenario: transmission barely above threshold for a
    /// long horizon with stable, mediocre reporting — the hard regime for
    /// likelihoods (counts stay small, stochasticity dominates).
    pub fn slow_burn() -> Self {
        Self {
            name: "slow-burn".into(),
            base_params: CovidParams {
                population: 100_000,
                initial_exposed: 150,
                ..CovidParams::default()
            },
            theta_schedule: PiecewiseConstant::constant(0.22),
            rho_schedule: PiecewiseConstant::constant(0.55),
            horizon: 150,
            truth_seed: 20_240_617,
        }
    }

    /// Validate the scenario.
    ///
    /// # Errors
    /// Returns the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        self.base_params.validate()?;
        if self.horizon == 0 {
            return Err("horizon must be positive".into());
        }
        if let Some(&last) = self.theta_schedule.breaks().last() {
            if last >= self.horizon {
                return Err("theta schedule break beyond horizon".into());
            }
        }
        for &v in self.theta_schedule.values() {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("invalid theta value {v}"));
            }
        }
        for &v in self.rho_schedule.values() {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("invalid rho value {v}"));
            }
        }
        Ok(())
    }

    /// True theta on each day `1..=horizon` (dense).
    pub fn theta_truth(&self) -> Vec<f64> {
        self.theta_schedule.dense(self.horizon)
    }

    /// True rho on each day `1..=horizon` (dense).
    pub fn rho_truth(&self) -> Vec<f64> {
        self.rho_schedule.dense(self.horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_in_scenarios_validate() {
        for s in [
            Scenario::paper_full(),
            Scenario::paper_small(),
            Scenario::paper_tiny(),
        ] {
            assert!(s.validate().is_ok(), "{} invalid", s.name);
            assert_eq!(s.horizon, 90);
        }
    }

    #[test]
    fn scaled_scenarios_share_schedules() {
        let full = Scenario::paper_full();
        let small = Scenario::paper_small();
        assert_eq!(full.theta_schedule, small.theta_schedule);
        assert_eq!(full.rho_schedule, small.rho_schedule);
        assert!(small.base_params.population < full.base_params.population);
    }

    #[test]
    fn truth_vectors_have_horizon_length() {
        let s = Scenario::paper_tiny();
        assert_eq!(s.theta_truth().len(), 90);
        // Day 34 (index 33) is the first day at 0.27.
        assert_eq!(s.theta_truth()[33], 0.27);
        assert_eq!(s.rho_truth()[61], 0.80); // day 62
    }

    #[test]
    fn validation_catches_break_past_horizon() {
        let mut s = Scenario::paper_tiny();
        s.horizon = 50;
        assert!(s.validate().is_err());
    }

    #[test]
    fn extra_scenarios_validate_and_behave() {
        for s in [Scenario::second_wave(), Scenario::slow_burn()] {
            assert!(s.validate().is_ok(), "{} invalid", s.name);
        }
        // Second wave: suppression segment sits below threshold
        // (theta * infectious duration < 1 in rough terms).
        let sw = Scenario::second_wave();
        assert!(sw.theta_schedule.value_at(50) < 0.15);
        assert!(sw.theta_schedule.value_at(90) > 0.4);
        assert_eq!(sw.horizon, 120);
    }

    #[test]
    fn second_wave_truth_has_two_waves() {
        use crate::ground_truth::generate_ground_truth;
        let mut s = Scenario::second_wave();
        // Shrink for test speed.
        s.base_params.population = 30_000;
        s.base_params.initial_exposed = 60;
        let t = generate_ground_truth(&s, 5);
        let wave1: f64 = t.true_cases[20..30].iter().sum();
        let trough: f64 = t.true_cases[60..75].iter().sum();
        let wave2: f64 = t.true_cases[105..119].iter().sum();
        assert!(
            wave1 > 1.5 * trough && wave2 > 1.5 * trough,
            "waves {wave1:.0}/{wave2:.0} vs trough {trough:.0}"
        );
    }
}
