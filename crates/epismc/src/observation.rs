//! Measurement-bias models linking true simulated counts to the observed
//! scale.
//!
//! The paper's Section IV-A: observed counts are a binomially thinned
//! version of the true counts, `y_t ~ Binomial(eta_t, rho)`, with the
//! reporting probability `rho` inferred jointly with the model
//! parameters. Death counts are assumed reported without bias (identity
//! map, Section V-C).

use std::collections::VecDeque;

use epistats::dist::sample_binomial;
use epistats::rng::Xoshiro256PlusPlus;

/// How the binomial thinning enters the likelihood.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BiasMode {
    /// Draw `eta_obs ~ Binomial(eta, rho)` — the paper's generative model
    /// (the draw is part of the particle, seeded deterministically).
    Sampled,
    /// Use the conditional mean `rho * eta` — a cheaper deterministic
    /// variant, ablated in `fig3_single_window --bias-mode mean`.
    Mean,
}

/// A map from a true simulated series to the observed scale.
pub trait BiasModel: Send + Sync {
    /// Transform one day's true count into its observed-scale count.
    /// The generator is dedicated to this transformation (derived
    /// deterministically from the particle seed), so sampled thinning is
    /// reproducible.
    ///
    /// A window's days are fed in ascending order through one generator
    /// and one `pending` queue, which starts each window empty: slot `d`
    /// holds the reports due `d` days after the current day, so a model
    /// with cross-day state (reporting delays) files today's reports
    /// there and returns what falls due today. Models without such state
    /// leave it untouched.
    fn observe_one(
        &self,
        eta: f64,
        rho: f64,
        rng: &mut Xoshiro256PlusPlus,
        pending: &mut VecDeque<f64>,
    ) -> f64;

    /// Transform a whole window of true counts: [`Self::observe_one`]
    /// over its days in order, from an empty `pending` queue.
    fn observe(&self, truth: &[f64], rho: f64, rng: &mut Xoshiro256PlusPlus) -> Vec<f64> {
        let mut pending = VecDeque::new();
        truth
            .iter()
            .map(|&eta| self.observe_one(eta, rho, rng, &mut pending))
            .collect()
    }

    /// Whether the model actually uses the `rho` parameter (drives what
    /// the posterior can learn about `rho`).
    fn uses_rho(&self) -> bool;

    /// Short identifier for logs.
    fn name(&self) -> &'static str;
}

/// One day's binomial thinning: a `Binomial(eta, rho)` draw when
/// sampled, the conditional mean `rho * eta` otherwise.
///
/// # Panics
/// Panics unless `rho` lies in `[0, 1]`.
fn thin(mode: BiasMode, eta: f64, rho: f64, rng: &mut Xoshiro256PlusPlus) -> f64 {
    assert!(
        (0.0..=1.0).contains(&rho),
        "binomial thinning: rho = {rho} outside [0, 1]"
    );
    match mode {
        BiasMode::Sampled => {
            // epilint: allow(float-eq) — integrality assertion: fract() == 0.0 is the check itself
            debug_assert!(eta >= 0.0 && eta.fract() == 0.0);
            // epilint: allow(lossy-cast) — eta asserted integer-valued; exact at count scale
            sample_binomial(rng, eta as u64, rho) as f64
        }
        BiasMode::Mean => rho * eta,
    }
}

/// The paper's binomial under-reporting model.
#[derive(Clone, Copy, Debug)]
pub struct BinomialBias {
    /// Thinning mode (sampled per the paper, or conditional-mean).
    pub mode: BiasMode,
}

impl BinomialBias {
    /// Sampled thinning — the paper's model.
    pub fn sampled() -> Self {
        Self {
            mode: BiasMode::Sampled,
        }
    }

    /// Conditional-mean thinning.
    pub fn mean() -> Self {
        Self {
            mode: BiasMode::Mean,
        }
    }
}

impl BiasModel for BinomialBias {
    fn observe_one(
        &self,
        eta: f64,
        rho: f64,
        rng: &mut Xoshiro256PlusPlus,
        _pending: &mut VecDeque<f64>,
    ) -> f64 {
        thin(self.mode, eta, rho, rng)
    }

    fn uses_rho(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        match self.mode {
            BiasMode::Sampled => "binomial-sampled",
            BiasMode::Mean => "binomial-mean",
        }
    }
}

/// Binomial thinning **plus a reporting delay**: each truly occurring
/// case is reported with probability `rho`, and a reported case appears
/// in the data `d` days late with probability `delay_pmf[d]`.
///
/// The paper names "inaccurate reporting of cases *and reporting lag*"
/// as the discrepancy sources its bias model family should capture
/// (Section IV-A); this composes the two. With `delay_pmf = [1.0]`
/// (all mass at zero lag) it reduces exactly to [`BinomialBias`].
#[derive(Clone, Debug)]
pub struct DelayedBinomialBias {
    /// Thinning mode.
    pub mode: BiasMode,
    /// Probability that a reported case appears `d` days after
    /// occurrence (`d` = index); must sum to 1.
    pub delay_pmf: Vec<f64>,
}

impl DelayedBinomialBias {
    /// Create with the given delay distribution.
    ///
    /// # Panics
    /// Panics if the pmf is empty, has negative entries, or does not sum
    /// to 1 within `1e-9`.
    pub fn new(mode: BiasMode, delay_pmf: Vec<f64>) -> Self {
        assert!(
            !delay_pmf.is_empty(),
            "DelayedBinomialBias: empty delay pmf"
        );
        let total: f64 = delay_pmf
            .iter()
            .map(|&p| {
                assert!(
                    p >= 0.0 && p.is_finite(),
                    "DelayedBinomialBias: bad pmf entry {p}"
                );
                p
            })
            .sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "DelayedBinomialBias: pmf sums to {total}, not 1"
        );
        Self { mode, delay_pmf }
    }

    /// A geometric-tail delay with mean roughly `mean_days`, truncated at
    /// `max_days` and renormalized.
    ///
    /// # Panics
    /// Panics unless `mean_days >= 0` and `max_days >= 1`.
    pub fn geometric(mode: BiasMode, mean_days: f64, max_days: usize) -> Self {
        assert!(
            mean_days >= 0.0 && max_days >= 1,
            "geometric: bad parameters"
        );
        let p = 1.0 / (1.0 + mean_days);
        let mut pmf: Vec<f64> = (0..=max_days)
            // epilint: allow(lossy-cast) — delay index is a small day count, far below i32::MAX
            .map(|d| p * (1.0 - p).powi(d as i32))
            .collect();
        let total: f64 = pmf.iter().sum();
        for v in &mut pmf {
            *v /= total;
        }
        Self::new(mode, pmf)
    }
}

impl BiasModel for DelayedBinomialBias {
    /// Thin today's count, spread the reports over `pending[0..D]` (`D`
    /// the pmf length; multinomially when sampled, by convolution in
    /// mean mode), then pop today's total off the front. Reports still
    /// queued when the window ends land past its horizon and are simply
    /// not (yet) observed.
    fn observe_one(
        &self,
        eta: f64,
        rho: f64,
        rng: &mut Xoshiro256PlusPlus,
        pending: &mut VecDeque<f64>,
    ) -> f64 {
        let reported = thin(self.mode, eta, rho, rng);
        let n_delays = self.delay_pmf.len();
        if pending.len() < n_delays {
            pending.resize(n_delays, 0.0);
        }
        // epilint: allow(float-eq) — exact-zero skip: both modes produce literal 0.0 for no reports
        if reported != 0.0 {
            let slots = pending.iter_mut().zip(&self.delay_pmf);
            match self.mode {
                BiasMode::Sampled => {
                    let mut remaining = reported as u64;
                    let mut prob_left = 1.0f64;
                    for (d, (slot, &pd)) in slots.enumerate() {
                        if remaining == 0 {
                            break;
                        }
                        let take = if d == n_delays - 1 || prob_left <= 0.0 {
                            remaining
                        } else {
                            sample_binomial(rng, remaining, (pd / prob_left).clamp(0.0, 1.0))
                        };
                        *slot += take as f64;
                        remaining -= take;
                        prob_left -= pd;
                    }
                }
                BiasMode::Mean => {
                    for (slot, &pd) in slots {
                        *slot += reported * pd;
                    }
                }
            }
        }
        pending.pop_front().unwrap_or(0.0)
    }

    fn uses_rho(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "binomial-delayed"
    }
}

/// No reporting bias (used for death counts in the paper's Section V-C).
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentityBias;

impl BiasModel for IdentityBias {
    fn observe_one(
        &self,
        eta: f64,
        _rho: f64,
        _rng: &mut Xoshiro256PlusPlus,
        _pending: &mut VecDeque<f64>,
    ) -> f64 {
        eta
    }

    fn uses_rho(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "identity"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_thinning_is_binomial() {
        let bias = BinomialBias::sampled();
        let mut rng = Xoshiro256PlusPlus::new(1);
        let truth = vec![1000.0; 2000];
        let obs = bias.observe(&truth, 0.6, &mut rng);
        let mean: f64 = obs.iter().sum::<f64>() / obs.len() as f64;
        assert!((mean - 600.0).abs() < 3.0, "mean = {mean}");
        // Variance should match n p (1-p) = 240, not 0 (mean thinning).
        let var: f64 =
            obs.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / (obs.len() - 1) as f64;
        assert!((var - 240.0).abs() < 30.0, "var = {var}");
        for &o in &obs {
            assert!((0.0..=1000.0).contains(&o));
        }
    }

    #[test]
    fn mean_thinning_is_deterministic() {
        let bias = BinomialBias::mean();
        let mut rng = Xoshiro256PlusPlus::new(2);
        let obs = bias.observe(&[10.0, 20.0, 0.0], 0.5, &mut rng);
        assert_eq!(obs, vec![5.0, 10.0, 0.0]);
    }

    #[test]
    fn sampled_thinning_reproducible_from_seed() {
        let bias = BinomialBias::sampled();
        let truth = vec![57.0, 123.0, 9.0, 0.0];
        let a = bias.observe(&truth, 0.7, &mut Xoshiro256PlusPlus::new(9));
        let b = bias.observe(&truth, 0.7, &mut Xoshiro256PlusPlus::new(9));
        assert_eq!(a, b);
    }

    #[test]
    fn extreme_rho_values() {
        let bias = BinomialBias::sampled();
        let mut rng = Xoshiro256PlusPlus::new(3);
        let truth = vec![50.0, 100.0];
        assert_eq!(bias.observe(&truth, 0.0, &mut rng), vec![0.0, 0.0]);
        assert_eq!(bias.observe(&truth, 1.0, &mut rng), vec![50.0, 100.0]);
    }

    #[test]
    fn identity_passes_through_and_ignores_rho() {
        let bias = IdentityBias;
        let mut rng = Xoshiro256PlusPlus::new(4);
        let truth = vec![3.0, 1.0, 4.0];
        assert_eq!(bias.observe(&truth, 0.1, &mut rng), truth);
        assert!(!bias.uses_rho());
        assert!(BinomialBias::sampled().uses_rho());
    }

    #[test]
    #[should_panic]
    fn rejects_invalid_rho() {
        BinomialBias::sampled().observe(&[1.0], 1.5, &mut Xoshiro256PlusPlus::new(5));
    }

    #[test]
    fn delayed_bias_zero_lag_equals_plain_binomial_mean_mode() {
        let plain = BinomialBias::mean();
        let delayed = DelayedBinomialBias::new(BiasMode::Mean, vec![1.0]);
        let truth = vec![10.0, 20.0, 30.0];
        let mut r1 = Xoshiro256PlusPlus::new(1);
        let mut r2 = Xoshiro256PlusPlus::new(1);
        assert_eq!(
            plain.observe(&truth, 0.5, &mut r1),
            delayed.observe(&truth, 0.5, &mut r2)
        );
    }

    #[test]
    fn delayed_bias_shifts_mass_later() {
        // All reports delayed exactly 2 days.
        let bias = DelayedBinomialBias::new(BiasMode::Mean, vec![0.0, 0.0, 1.0]);
        let truth = vec![100.0, 0.0, 0.0, 0.0, 0.0];
        let mut rng = Xoshiro256PlusPlus::new(2);
        let obs = bias.observe(&truth, 1.0, &mut rng);
        assert_eq!(obs, vec![0.0, 0.0, 100.0, 0.0, 0.0]);
    }

    #[test]
    fn delayed_bias_sampled_conserves_reported_mass_within_horizon() {
        let bias = DelayedBinomialBias::new(BiasMode::Sampled, vec![0.5, 0.3, 0.2]);
        // A pulse early enough that no delay falls off the series end.
        let mut truth = vec![0.0; 10];
        truth[2] = 1_000.0;
        let mut rng = Xoshiro256PlusPlus::new(3);
        let obs = bias.observe(&truth, 1.0, &mut rng);
        let total: f64 = obs.iter().sum();
        assert_eq!(total, 1_000.0);
        assert_eq!(obs[0] + obs[1], 0.0);
        assert!(obs[2] > 0.0 && obs[3] > 0.0);
    }

    #[test]
    fn delayed_bias_truncates_past_horizon() {
        // A pulse on the last day with a forced 1-day delay: nothing is
        // observed within the horizon ("right truncation").
        let bias = DelayedBinomialBias::new(BiasMode::Sampled, vec![0.0, 1.0]);
        let truth = vec![0.0, 0.0, 500.0];
        let mut rng = Xoshiro256PlusPlus::new(4);
        let obs = bias.observe(&truth, 1.0, &mut rng);
        assert_eq!(obs, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn geometric_delay_constructor() {
        let bias = DelayedBinomialBias::geometric(BiasMode::Mean, 2.0, 10);
        assert_eq!(bias.delay_pmf.len(), 11);
        assert!((bias.delay_pmf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Mode at zero lag, decreasing.
        assert!(bias.delay_pmf[0] > bias.delay_pmf[1]);
        assert!(bias.delay_pmf[1] > bias.delay_pmf[5]);
        // Mean close to requested (truncation pulls it down slightly).
        let mean: f64 = bias
            .delay_pmf
            .iter()
            .enumerate()
            .map(|(d, &p)| d as f64 * p)
            .sum();
        assert!((mean - 2.0).abs() < 0.4, "mean delay {mean}");
    }

    #[test]
    #[should_panic]
    fn delayed_bias_rejects_unnormalized_pmf() {
        DelayedBinomialBias::new(BiasMode::Mean, vec![0.5, 0.2]);
    }

    /// The delay model's former whole-window loop: thin each day, then
    /// spread its reports over the following days of the window.
    fn whole_window_delay(
        bias: &DelayedBinomialBias,
        truth: &[f64],
        rho: f64,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Vec<f64> {
        let mut out = vec![0.0f64; truth.len()];
        for (t, &eta) in truth.iter().enumerate() {
            let reported = match bias.mode {
                BiasMode::Sampled => sample_binomial(rng, eta as u64, rho) as f64,
                BiasMode::Mean => rho * eta,
            };
            if reported == 0.0 {
                continue;
            }
            match bias.mode {
                BiasMode::Sampled => {
                    let mut remaining = reported as u64;
                    let mut prob_left = 1.0f64;
                    for (d, &pd) in bias.delay_pmf.iter().enumerate() {
                        if remaining == 0 {
                            break;
                        }
                        let take = if d == bias.delay_pmf.len() - 1 || prob_left <= 0.0 {
                            remaining
                        } else {
                            sample_binomial(rng, remaining, (pd / prob_left).clamp(0.0, 1.0))
                        };
                        if t + d < out.len() {
                            out[t + d] += take as f64;
                        }
                        remaining -= take;
                        prob_left -= pd;
                    }
                }
                BiasMode::Mean => {
                    for (d, &pd) in bias.delay_pmf.iter().enumerate() {
                        if t + d < out.len() {
                            out[t + d] += reported * pd;
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn per_day_delay_matches_the_whole_window_loop() {
        // Random pmfs (lengths 1-12, every third with no mass at lag 0,
        // a quarter of the other entries zero) and windows of 1-40 days
        // with zero-count days; reports run past the horizon whenever a
        // late day's delay does. Output bits and the generator state
        // afterwards must both match.
        let mut gen = Xoshiro256PlusPlus::new(2024);
        for case in 0..400u64 {
            let len = 1 + gen.next_bounded(12) as usize;
            let mut pmf: Vec<f64> = (0..len)
                .map(|d| {
                    let dead = (d == 0 && len > 1 && case % 3 == 0) || gen.next_bounded(4) == 0;
                    if dead {
                        0.0
                    } else {
                        gen.next_f64()
                    }
                })
                .collect();
            if pmf.iter().all(|&p| p == 0.0) {
                pmf[len - 1] = 1.0;
            }
            let total: f64 = pmf.iter().sum();
            pmf.iter_mut().for_each(|p| *p /= total);
            let mode = if case % 2 == 0 {
                BiasMode::Sampled
            } else {
                BiasMode::Mean
            };
            let bias = DelayedBinomialBias::new(mode, pmf);
            let rho = [0.0, 1.0, 0.37, 0.81][(case / 2 % 4) as usize];
            let days = 1 + gen.next_bounded(40) as usize;
            let truth: Vec<f64> = (0..days)
                .map(|_| {
                    if gen.next_bounded(3) == 0 {
                        0.0
                    } else {
                        gen.next_bounded(400) as f64
                    }
                })
                .collect();

            let mut want_rng = Xoshiro256PlusPlus::new(case);
            let want = whole_window_delay(&bias, &truth, rho, &mut want_rng);
            let mut got_rng = Xoshiro256PlusPlus::new(case);
            let got = bias.observe(&truth, rho, &mut got_rng);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "case {case}: {bias:?} rho {rho}");
            assert_eq!(got_rng.state(), want_rng.state(), "case {case}: rng state");
        }
    }
}
