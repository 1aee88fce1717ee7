//! Property-based tests over the distribution substrate: support bounds,
//! CDF monotonicity, quantile inversion, exact-sampler invariants, and
//! special-function identities, across randomly drawn parameterizations.

use epistats::dist::{
    sample_binomial, Beta, Binomial, Distribution, Gamma, Normal, Poisson, Quantile, Uniform,
};
use epistats::rng::Xoshiro256PlusPlus;
use epistats::special::{beta_inc, gamma_p, gamma_q, ln_gamma};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binomial_samples_in_support(n in 0u64..3_000_000, p in 0.0f64..=1.0, seed in 0u64..1000) {
        let mut rng = Xoshiro256PlusPlus::new(seed);
        let k = sample_binomial(&mut rng, n, p);
        prop_assert!(k <= n);
        if p == 0.0 { prop_assert_eq!(k, 0); }
        if p == 1.0 { prop_assert_eq!(k, n); }
    }

    #[test]
    fn binomial_symmetry_in_distribution(n in 1u64..200, p in 0.01f64..0.99) {
        // pmf(k; n, p) == pmf(n-k; n, 1-p)
        let d1 = Binomial::new(n, p);
        let d2 = Binomial::new(n, 1.0 - p);
        for k in [0, n / 3, n / 2, n] {
            let a = d1.ln_pmf(k);
            let b = d2.ln_pmf(n - k);
            if a.is_finite() || b.is_finite() {
                prop_assert!((a - b).abs() < 1e-9, "k={}: {} vs {}", k, a, b);
            }
        }
    }

    #[test]
    fn continuous_cdfs_are_monotone(mu in -5.0f64..5.0, sigma in 0.1f64..4.0) {
        let d = Normal::new(mu, sigma);
        let mut prev = 0.0;
        for i in -40..=40 {
            let x = mu + sigma * i as f64 / 8.0;
            let c = d.cdf(x);
            prop_assert!(c >= prev - 1e-12);
            prop_assert!((0.0..=1.0).contains(&c));
            prev = c;
        }
    }

    #[test]
    fn normal_quantile_inverts_cdf(mu in -3.0f64..3.0, sigma in 0.2f64..3.0, p in 0.001f64..0.999) {
        let d = Normal::new(mu, sigma);
        let x = d.quantile(p);
        prop_assert!((d.cdf(x) - p).abs() < 1e-8);
    }

    #[test]
    fn uniform_quantile_inverts_cdf(lo in -5.0f64..0.0, width in 0.1f64..10.0, p in 0.0f64..=1.0) {
        let d = Uniform::new(lo, lo + width);
        let x = d.quantile(p);
        prop_assert!((d.cdf(x) - p).abs() < 1e-9);
    }

    #[test]
    fn beta_quantile_inverts_cdf(a in 0.5f64..8.0, b in 0.5f64..8.0, p in 0.01f64..0.99) {
        let d = Beta::new(a, b);
        let x = d.quantile(p);
        prop_assert!((d.cdf(x) - p).abs() < 1e-7);
    }

    #[test]
    fn gamma_cdf_additivity_via_poisson(shape in 1u64..20, x in 0.01f64..50.0) {
        // For integer shape k: P(Gamma(k,1) <= x) = P(Poisson(x) >= k).
        let g = Gamma::new(shape as f64, 1.0);
        let pois = Poisson::new(x);
        let lhs = g.cdf(x);
        let rhs = 1.0 - pois.cdf(shape as f64 - 1.0);
        prop_assert!((lhs - rhs).abs() < 1e-8, "{} vs {}", lhs, rhs);
    }

    #[test]
    fn gamma_p_q_complementary(a in 0.1f64..50.0, x in 0.0f64..100.0) {
        prop_assert!((gamma_p(a, x) + gamma_q(a, x) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn beta_inc_reflection(a in 0.2f64..10.0, b in 0.2f64..10.0, x in 0.0f64..=1.0) {
        let lhs = beta_inc(a, b, x);
        let rhs = 1.0 - beta_inc(b, a, 1.0 - x);
        prop_assert!((lhs - rhs).abs() < 1e-9);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&lhs));
    }

    #[test]
    fn ln_gamma_recurrence(x in 0.1f64..50.0) {
        // ln G(x+1) = ln G(x) + ln x
        let lhs = ln_gamma(x + 1.0);
        let rhs = ln_gamma(x) + x.ln();
        prop_assert!((lhs - rhs).abs() < 1e-10 * lhs.abs().max(1.0));
    }

    #[test]
    fn binomial_cdf_pmf_consistency(n in 1u64..100, p in 0.01f64..0.99, k in 0u64..100) {
        let k = k.min(n);
        let d = Binomial::new(n, p);
        let direct: f64 = (0..=k).map(|j| d.ln_pmf(j).exp()).sum();
        prop_assert!((direct - d.cdf(k as f64)).abs() < 1e-8);
    }

    #[test]
    fn rng_streams_disjoint_under_distinct_tags(master in 0u64..u64::MAX / 2, a in 0u64..10_000, b in 0u64..10_000) {
        prop_assume!(a != b);
        let sa = epistats::rng::derive_stream(master, &[a]);
        let sb = epistats::rng::derive_stream(master, &[b]);
        prop_assert_ne!(sa, sb);
    }
}
