//! Binomial distribution with exact sampling at every scale.
//!
//! The binomial is the workhorse of this project twice over: the daily
//! binomial-chain stepper draws competing-risk transition counts from it
//! (with `n` up to the full susceptible population), and the paper's
//! reporting-bias model thins true case counts through it. Sampling must
//! therefore be **exact** (a normal approximation would bias the observation
//! model) and fast for both tiny and huge `n * p`.
//!
//! Two exact samplers are used, dispatched on `n * min(p, 1-p)`:
//!
//! * **BINV** inversion (expected `O(np)` work) for the small-mean regime;
//! * **BTPE** (Kachitvichyanukul & Schmeiser 1988) accept/reject for the
//!   large-mean regime — a triangle/parallelogram/exponential-tail hat over
//!   the scaled pmf with squeeze tests, so the expected cost is `O(1)`
//!   regardless of `n`.
//!
//! Both samplers share setup constants that depend only on `(n, p)`;
//! [`BinomialSampler`] holds them for one pair. The simulator's hot loop
//! draws stage exits with a fixed per-progression hazard and drifting
//! occupancies, so it goes through [`HazardSampler`], which computes the
//! p-only half of that setup once per hazard.

use super::Distribution;
use crate::rng::Xoshiro256PlusPlus;
use crate::special::{beta_inc, ln_choose, ln_factorial};

/// Binomial distribution `Binomial(n, p)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

/// Below this trial count inversion is always used (setup cost dominates).
const INVERSION_N_CUTOFF: u64 = 48;
/// Below this value of `n * min(p, 1-p)` the O(np) inversion sampler is
/// cheapest; at or above it BTPE's O(1) accept/reject wins. The classic
/// threshold from the 1988 paper is 10, chosen against that era's cost
/// model; on current hardware BINV's short multiply-and-compare loop
/// stays cheaper than a fresh BTPE hat setup plus accept/reject until a
/// mean of ~30 (measured on the covid chain benchmark, where occupancy
/// drift forces a new hat per draw). BTPE remains valid from 10 up, so
/// raising the cutoff is purely a cost trade — both samplers are exact.
const BTPE_MEAN_CUTOFF: f64 = 30.0;

impl Binomial {
    /// Create a binomial distribution with `n` trials and success
    /// probability `p`.
    ///
    /// # Panics
    /// Panics unless `p` is in `[0, 1]`.
    pub fn new(n: u64, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "Binomial: p = {p} outside [0, 1]");
        Self { n, p }
    }

    /// Draw one binomial variate as a native integer.
    pub fn sample_u64(&self, rng: &mut Xoshiro256PlusPlus) -> u64 {
        sample_binomial(rng, self.n, self.p)
    }

    /// Log probability mass at integer `k`.
    pub fn ln_pmf(&self, k: u64) -> f64 {
        if k > self.n {
            return f64::NEG_INFINITY;
        }
        if self.p == 0.0 {
            return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        if self.p == 1.0 {
            return if k == self.n { 0.0 } else { f64::NEG_INFINITY };
        }
        ln_choose(self.n, k) + k as f64 * self.p.ln() + (self.n - k) as f64 * (1.0 - self.p).ln()
    }
}

/// Precomputed constants for one `(n, p)` pair: the body of
/// [`sample_binomial`], and the scalar reference [`HazardSampler`] is
/// pinned to draw for draw.
///
/// All samplers reduce to `r = min(p, 1-p)` internally and reflect the
/// result (`n - k`) when `p > 1/2`; the reflection is *exact* — the same
/// random draws produce `k` under `r` and `n - k` under `1 - r`.
#[derive(Clone, Copy, Debug)]
pub struct BinomialSampler {
    n: u64,
    flipped: bool,
    method: Method,
}

#[derive(Clone, Copy, Debug)]
enum Method {
    /// `p` is 0 or 1 (after reflection), or `n == 0`: deterministic result.
    Degenerate,
    /// BINV inversion by sequential search from `k = 0`.
    Binv { s: f64, a: f64, r0: f64 },
    /// BTPE accept/reject.
    Btpe(BtpeSetup),
}

/// Setup constants for BTPE (notation follows Kachitvichyanukul &
/// Schmeiser 1988): a triangle of half-width `p1` centred at `xm`, two
/// parallelogram wings of height `c`, and exponential tails with rates
/// `lambda_l` / `lambda_r` beyond `xl` / `xr`.
#[derive(Clone, Copy, Debug)]
struct BtpeSetup {
    /// Trial count, also cached as f64 for the range guards.
    n: u64,
    nf: f64,
    /// Variance `n * r * q`.
    nrq: f64,
    /// Mode `floor((n + 1) * r)`.
    m: u64,
    /// Triangle half-width.
    p1: f64,
    /// Triangle centre `m + 0.5`.
    xm: f64,
    /// Left/right edges of the triangle+parallelogram region.
    xl: f64,
    xr: f64,
    /// Parallelogram height.
    c: f64,
    /// Exponential tail rates.
    lambda_l: f64,
    lambda_r: f64,
    /// Cumulative region areas: triangle, +parallelograms, +left tail,
    /// +right tail (total hat area).
    p2: f64,
    p3: f64,
    p4: f64,
    /// `r / q` and `(n + 1) * r / q` for the explicit pmf-ratio product.
    s: f64,
    a: f64,
    /// `ln s = ln r - ln q` for the exact acceptance test, which compares
    /// `ln v` against the cancelled log-pmf ratio
    /// `lf(m) + lf(n-m) - lf(y) - lf(n-y) + (y - m) ln s`
    /// (`lf = ln factorial`; the `ln n!` terms of the two `ln C(n, .)`
    /// cancel). `ln s` is p-only, so [`HazardSampler`] precomputes it once
    /// per hazard; the scalar path fills it lazily (`NAN` = not yet) — the
    /// squeeze tests accept or reject most draws without reaching the
    /// exact test at all.
    ln_s: f64,
    /// Mode half of the cancelled ratio, `lf(m) + lf(n - m)`. Lazy
    /// (`NAN` = not yet): it needs two `ln n!` evaluations, which would
    /// otherwise dominate setup — and setup re-runs every time a
    /// channel's occupancy drifts.
    ln_fm2: f64,
}

impl BinomialSampler {
    /// Build the sampler for `(n, p)`, running regime dispatch and setup.
    ///
    /// # Panics
    /// Panics unless `p` is in `[0, 1]`.
    pub fn new(n: u64, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "BinomialSampler: p = {p} outside [0, 1]"
        );
        let flipped = p > 0.5;
        let r = if flipped { 1.0 - p } else { p };
        let method = if n == 0 || r == 0.0 {
            Method::Degenerate
        } else if n < INVERSION_N_CUTOFF || (n as f64) * r < BTPE_MEAN_CUTOFF {
            let q = 1.0 - r;
            let s = r / q;
            Method::Binv {
                s,
                a: (n + 1) as f64 * s,
                // q^n without underflow drama.
                r0: ((n as f64) * (-r).ln_1p()).exp(),
            }
        } else {
            Method::Btpe(BtpeSetup::new(n, r))
        };
        Self { n, flipped, method }
    }

    /// Draw one variate from the cached `(n, p)`. `&mut` only for the
    /// BTPE setup's lazy `ln pmf(m)` memo; the sampled value depends
    /// solely on the cached `(n, p)` and the RNG stream.
    pub fn sample(&mut self, rng: &mut Xoshiro256PlusPlus) -> u64 {
        let n = self.n;
        let k = match &mut self.method {
            Method::Degenerate => 0,
            Method::Binv { s, a, r0 } => Self::sample_binv(rng, n, *s, *a, *r0),
            Method::Btpe(setup) => setup.sample(rng),
        };
        if self.flipped {
            n - k
        } else {
            k
        }
    }

    /// Inversion (BINV): walk the pmf from `k = 0` subtracting mass from a
    /// single uniform. Expected O(n r) iterations.
    ///
    /// The pmf recursion `mass *= a / k - s` is rewritten as
    /// `mass *= a * (1/k) - s` with `1/k` read from a small constant
    /// table: the running product is a serialized dependency chain, and a
    /// multiply has a third of the latency of a divide. BINV only runs in
    /// the small-mean regime (`n r < 10`), so `k` rarely leaves the table.
    fn sample_binv(rng: &mut Xoshiro256PlusPlus, n: u64, s: f64, a: f64, r0: f64) -> u64 {
        loop {
            let mut u = rng.next_f64();
            let mut mass = r0;
            let mut k: u64 = 0;
            loop {
                if u < mass {
                    return k;
                }
                u -= mass;
                k += 1;
                if k > n {
                    // Floating-point leakage past the last mass point (u
                    // very close to 1); retry with a fresh uniform.
                    break;
                }
                let inv_k = if (k as usize) < INV_K.len() {
                    INV_K[k as usize]
                } else {
                    1.0 / k as f64
                };
                mass *= a * inv_k - s;
            }
        }
    }
}

/// Reciprocal table for the BINV pmf recursion (index 0 is unused).
const INV_K: [f64; 64] = {
    let mut t = [0.0f64; 64];
    let mut k = 1usize;
    while k < 64 {
        t[k] = 1.0 / k as f64;
        k += 1;
    }
    t
};

/// Inline `floor` for magnitudes below `2^52`: truncate through `i64` and
/// adjust. Bit-identical to `f64::floor` on that domain, but compiles to a
/// handful of instructions instead of a libm call — which matters because
/// the baseline x86-64 target lowers `f64::floor` to an indirect glibc
/// call, spilling every live xmm register in BTPE's attempt loop. All
/// candidate values in this module are bounded by `n + 1 < 2^52` (enforced
/// by debug assertion).
#[inline(always)]
fn floor_small(x: f64) -> f64 {
    // At or above 2^52 every finite f64 is already an integer.
    if x.abs() >= 4_503_599_627_370_496.0 {
        return x;
    }
    let t = x as i64 as f64;
    if x < t {
        t - 1.0
    } else {
        t
    }
}

impl BtpeSetup {
    fn new(n: u64, r: f64) -> Self {
        let q = 1.0 - r;
        // `ln s` is filled lazily on the first exact test.
        Self::with_consts(n, r, q, r / q, f64::NAN)
    }

    /// Setup from precomputed p-derived constants (`q = 1 - r`,
    /// `s = r / q`, and optionally `ln s` — pass `NAN` to fill it lazily)
    /// — the [`HazardSampler`] path, which shares them across draws with
    /// a common hazard. Must stay float-for-float identical to
    /// [`Self::new`].
    fn with_consts(n: u64, r: f64, q: f64, s: f64, ln_s: f64) -> Self {
        let nf = n as f64;
        let nr = nf * r;
        let nrq = nr * q;
        let ffm = nr + r; // (n + 1) r
        let m = floor_small(ffm) as u64;
        let p1 = floor_small(2.195 * nrq.sqrt() - 4.6 * q) + 0.5;
        let xm = m as f64 + 0.5;
        let xl = xm - p1;
        let xr = xm + p1;
        let c = 0.134 + 20.5 / (15.3 + m as f64);
        // The four setup divides collapse to two: each pair of
        // independent quotients shares one reciprocal of the product of
        // its denominators, halving pressure on the (unpipelined)
        // divider. Changes results only in ulps; covered by this PR's
        // one-time golden re-bless.
        let dl = ffm - xl * r;
        let dr = xr * q;
        let inv_dlr = 1.0 / (dl * dr);
        let al = (ffm - xl) * dr * inv_dlr;
        let lambda_l = al * (1.0 + 0.5 * al);
        let ar = (xr - ffm) * dl * inv_dlr;
        let lambda_r = ar * (1.0 + 0.5 * ar);
        let p2 = p1 * (1.0 + 2.0 * c);
        let inv_ll = c / (lambda_l * lambda_r);
        let p3 = p2 + inv_ll * lambda_r;
        let p4 = p3 + inv_ll * lambda_l;
        Self {
            n,
            nf,
            nrq,
            m,
            p1,
            xm,
            xl,
            xr,
            c,
            lambda_l,
            lambda_r,
            p2,
            p3,
            p4,
            s,
            a: (n as f64 + 1.0) * s,
            ln_s,
            ln_fm2: f64::NAN,
        }
    }

    /// One BTPE draw. Each attempt consumes exactly two uniforms; the
    /// expected number of attempts is bounded (< 1.5) uniformly in `n`.
    /// `&mut` only to memoize the exact-test constants on first use — the
    /// draw itself depends solely on `(n, r)` and the RNG stream.
    fn sample(&mut self, rng: &mut Xoshiro256PlusPlus) -> u64 {
        let nf = self.nf;
        loop {
            let u = rng.next_f64() * self.p4;
            // Open interval keeps ln(v) finite in the tail regions.
            let v = rng.next_f64_open();

            // Region selection by cumulative hat area.
            let (yf, v) = if u <= self.p1 {
                // Triangle: below the scaled pmf by construction —
                // immediate acceptance, no pmf evaluation.
                let yf = floor_small(self.xm - self.p1 * v + u);
                if yf < 0.0 || yf > nf {
                    continue;
                }
                return yf as u64;
            } else if u <= self.p2 {
                // Parallelogram wings: fold v under the triangle's slope.
                let x = self.xl + (u - self.p1) / self.c;
                let v = v * self.c + 1.0 - (x - self.xm).abs() / self.p1;
                if v > 1.0 {
                    continue;
                }
                let yf = floor_small(x);
                if yf < 0.0 || yf > nf {
                    continue;
                }
                (yf, v)
            } else if u <= self.p3 {
                // Left exponential tail.
                let yf = floor_small(self.xl + v.ln() / self.lambda_l);
                if yf < 0.0 {
                    continue;
                }
                (yf, v * (u - self.p2) * self.lambda_l)
            } else {
                // Right exponential tail.
                let yf = floor_small(self.xr - v.ln() / self.lambda_r);
                if yf > nf {
                    continue;
                }
                (yf, v * (u - self.p3) * self.lambda_r)
            };

            // Acceptance test: v <= pmf(y) / pmf(m), with squeezes that
            // usually avoid evaluating the pmf.
            let y = yf as u64;
            let k = y.abs_diff(self.m);
            let kf = k as f64;

            if k <= 20 || kf >= self.nrq / 2.0 - 1.0 {
                // Near the mode (or far enough out that the recursion is
                // short relative to logs): explicit pmf-ratio product via
                // pmf(i)/pmf(i-1) = a/i - s = (a - s i) / i. The two
                // factor products accumulate separately so the loop is
                // pure multiplies (one divide at the end) instead of a
                // serialized divide chain.
                let up = y > self.m;
                let (lo, hi) = if up { (self.m + 1, y) } else { (y + 1, self.m) };
                let f = if k <= 20 && self.nf < 1e12 {
                    // <= 20 factors, each in `[s, a]` with `s >= 10/n` (the
                    // BTPE regime floor) and `a <= n + 1`, and `den <= n^20`:
                    // every magnitude stays inside `[1e-270, 1e270]`, so the
                    // fold guard below can never fire — run the pure-multiply
                    // loop with no per-iteration check. Bit-identical to the
                    // guarded loop (same factors, same single final divide).
                    let mut num = 1.0f64;
                    let mut den = 1.0f64;
                    let mut i = lo as f64;
                    let hi_f = hi as f64;
                    while i <= hi_f {
                        num *= self.a - self.s * i;
                        den *= i;
                        i += 1.0;
                    }
                    if up {
                        num / den
                    } else {
                        den / num
                    }
                } else {
                    // Long recursion: fold magnitudes into `f` before they
                    // can overflow or underflow.
                    let mut f = 1.0f64;
                    let mut num = 1.0f64;
                    let mut den = 1.0f64;
                    for i in lo..=hi {
                        num *= self.a - self.s * i as f64;
                        den *= i as f64;
                        if !(1e-270..=1e270).contains(&num) || den >= 1e270 {
                            f *= if up { num / den } else { den / num };
                            num = 1.0;
                            den = 1.0;
                        }
                    }
                    f * if up { num / den } else { den / num }
                };
                if v <= f {
                    return y;
                }
                continue;
            }

            // Squeeze on ln(v) against a quadratic band around the
            // Gaussian core.
            let rho = (kf / self.nrq) * ((kf * (kf / 3.0 + 0.625) + 1.0 / 6.0) / self.nrq + 0.5);
            let t = -kf * kf / (2.0 * self.nrq);
            let alv = v.ln();
            if alv < t - rho {
                return y;
            }
            if alv > t + rho {
                continue;
            }

            // Final exact test: compare against the true log-pmf ratio,
            // in the cancelled form
            // `lf(m) + lf(n-m) - lf(y) - lf(n-y) + (y - m) ln s`
            // (`lf = ln factorial`; the `ln n!` halves of the two
            // `ln C(n, .)` cancel, halving the `ln n!` evaluations).
            if self.ln_fm2.is_nan() {
                if self.ln_s.is_nan() {
                    self.ln_s = self.s.ln();
                }
                self.ln_fm2 = ln_factorial(self.m) + ln_factorial(self.n - self.m);
            }
            let ln_ratio = self.ln_fm2 - ln_factorial(y) - ln_factorial(self.n - y)
                + (yf - self.m as f64) * self.ln_s;
            if alv <= ln_ratio {
                return y;
            }
        }
    }
}

/// Shared p-derived binomial setup for batched hazard draws: many draws
/// with a **common success probability** but varying trial counts.
///
/// This is the batch entry point of the chain-binomial stepper, where
/// each progression's per-stage exit probability is fixed for the whole
/// day (the precomputed discrete hazard) while the per-stage occupancies
/// drift every substep. Reflection (`p > 1/2`), the BINV constants
/// `s = r/q` and `ln q` (the p-only part of `r0 = q^n`), and the regime
/// constants are computed once here; [`Self::draw`] only runs the
/// n-dependent remainder of setup.
///
/// Stream contract: `HazardSampler::new(p).draw(rng, n)` consumes the RNG
/// exactly as `BinomialSampler::new(n, p).sample(rng)` — the batch is an
/// amortization of setup, never a different sampling algorithm.
#[derive(Clone, Copy, Debug)]
pub struct HazardSampler {
    flipped: bool,
    /// `ln s`, precomputed for BTPE's exact acceptance test.
    ln_s: f64,
    /// Retained success probability `r = min(p, 1-p)`.
    r: f64,
    /// `1 - r`.
    q: f64,
    /// `r / q`.
    s: f64,
    /// `ln(1 - r)`: the p-only factor of BINV's `r0 = exp(n ln q)`.
    ln_q: f64,
}

impl HazardSampler {
    /// Build the shared setup for success probability `p`.
    ///
    /// # Panics
    /// Panics unless `p` is in `[0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "HazardSampler: p = {p} outside [0, 1]"
        );
        let flipped = p > 0.5;
        let r = if flipped { 1.0 - p } else { p };
        let q = 1.0 - r;
        let s = r / q;
        Self {
            flipped,
            r,
            q,
            s,
            ln_q: (-r).ln_1p(),
            ln_s: s.ln(),
        }
    }

    /// Draw one `Binomial(n, p)` variate, running only the n-dependent
    /// part of setup (regime dispatch plus one `exp` for BINV or the
    /// BTPE hat constants).
    #[inline]
    pub fn draw(&self, rng: &mut Xoshiro256PlusPlus, n: u64) -> u64 {
        if n == 0 || self.r == 0.0 {
            return if self.flipped { n } else { 0 };
        }
        let k = if n < INVERSION_N_CUTOFF || (n as f64) * self.r < BTPE_MEAN_CUTOFF {
            let a = (n + 1) as f64 * self.s;
            let r0 = ((n as f64) * self.ln_q).exp();
            BinomialSampler::sample_binv(rng, n, self.s, a, r0)
        } else {
            let mut setup = BtpeSetup::with_consts(n, self.r, self.q, self.s, self.ln_s);
            setup.sample(rng)
        };
        if self.flipped {
            n - k
        } else {
            k
        }
    }

    /// Draw one variate per trial count, in index order — the
    /// compartment-vector batch. Stream-equivalent to calling
    /// [`Self::draw`] once per element.
    ///
    /// # Panics
    /// Panics if `ns` and `out` differ in length.
    pub fn draw_many(&self, rng: &mut Xoshiro256PlusPlus, ns: &[u64], out: &mut [u64]) {
        assert_eq!(ns.len(), out.len(), "draw_many: ns/out length mismatch");
        for (slot, &n) in out.iter_mut().zip(ns) {
            *slot = self.draw(rng, n);
        }
    }
}

/// Free-function exact binomial sampler used directly by the simulator's
/// hot loop (avoids constructing a `Binomial` per draw).
///
/// Dispatches to BINV inversion (small `n * min(p, 1-p)`) or BTPE
/// accept/reject (large); both are exact.
///
/// # Panics
/// Panics unless `p` is in `[0, 1]`.
pub fn sample_binomial(rng: &mut Xoshiro256PlusPlus, n: u64, p: f64) -> u64 {
    BinomialSampler::new(n, p).sample(rng)
}

impl Distribution for Binomial {
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> f64 {
        self.sample_u64(rng) as f64
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x < 0.0 || x.fract() != 0.0 || x > self.n as f64 {
            return f64::NEG_INFINITY;
        }
        self.ln_pmf(x as u64)
    }

    fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    fn var(&self) -> f64 {
        self.n as f64 * self.p * (1.0 - self.p)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        let k = x.floor() as u64;
        if k >= self.n {
            return 1.0;
        }
        if self.p == 0.0 {
            return 1.0;
        }
        if self.p == 1.0 {
            return 0.0;
        }
        // P(X <= k) = I_{1-p}(n - k, k + 1)
        beta_inc((self.n - k) as f64, k as f64 + 1.0, 1.0 - self.p)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::check_moments;
    use super::*;

    #[test]
    fn degenerate_cases() {
        let mut rng = Xoshiro256PlusPlus::new(50);
        assert_eq!(sample_binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(sample_binomial(&mut rng, 100, 0.0), 0);
        assert_eq!(sample_binomial(&mut rng, 100, 1.0), 100);
    }

    #[test]
    fn samples_within_bounds_all_regimes() {
        let mut rng = Xoshiro256PlusPlus::new(51);
        for &(n, p) in &[
            (10u64, 0.3),
            (100, 0.01),
            (100, 0.99),
            (1_000, 0.5),
            (1_000_000, 0.2),
            (2_700_000, 0.000_3),
        ] {
            for _ in 0..200 {
                let k = sample_binomial(&mut rng, n, p);
                assert!(k <= n, "k = {k} > n = {n} at p = {p}");
            }
        }
    }

    #[test]
    fn moments_small_regime() {
        check_moments(&Binomial::new(20, 0.3), 52, 50_000, 4.5);
        check_moments(&Binomial::new(40, 0.9), 53, 50_000, 4.5);
    }

    #[test]
    fn moments_large_regime() {
        check_moments(&Binomial::new(10_000, 0.37), 54, 20_000, 4.5);
        check_moments(&Binomial::new(1_000_000, 0.001), 55, 20_000, 4.5);
        check_moments(&Binomial::new(500_000, 0.73), 56, 20_000, 4.5);
    }

    #[test]
    fn pmf_sums_to_one_and_matches_cdf() {
        let d = Binomial::new(30, 0.4);
        let mut acc = 0.0;
        for k in 0..=30u64 {
            acc += d.ln_pmf(k).exp();
            let cdf = d.cdf(k as f64);
            assert!(
                (acc - cdf).abs() < 1e-10,
                "k = {k}: running sum {acc} vs cdf {cdf}"
            );
        }
        assert!((acc - 1.0).abs() < 1e-10);
    }

    #[test]
    fn pmf_reference_values() {
        // Binomial(10, 0.5) pmf(5) = 252/1024
        let d = Binomial::new(10, 0.5);
        assert!((d.ln_pmf(5) - (252.0f64 / 1024.0).ln()).abs() < 1e-12);
        assert_eq!(d.ln_pmf(11), f64::NEG_INFINITY);
        assert_eq!(d.ln_pdf(2.5), f64::NEG_INFINITY);
        assert_eq!(d.ln_pdf(-1.0), f64::NEG_INFINITY);
    }

    /// Chi-square goodness-of-fit of the empirical sample distribution
    /// against the exact pmf, binned over `[lo, hi]` plus two tail bins.
    /// The bound is mean + 5 sd of the chi-square reference — loose enough
    /// to be deterministic-flake-free at fixed seeds, tight enough to
    /// catch any systematic sampler bias.
    fn chi_square_check(n: u64, p: f64, lo: u64, hi: u64, seed: u64, reps: usize) {
        chi_square_check_with(n, p, lo, hi, seed, reps, |rng| {
            Binomial::new(n, p).sample_u64(rng)
        });
    }

    /// Chi-square GOF with an arbitrary draw function, so the batched
    /// sampling paths can be tested against the same exact pmf.
    fn chi_square_check_with(
        n: u64,
        p: f64,
        lo: u64,
        hi: u64,
        seed: u64,
        reps: usize,
        mut draw: impl FnMut(&mut Xoshiro256PlusPlus) -> u64,
    ) {
        let d = Binomial::new(n, p);
        let mut rng = Xoshiro256PlusPlus::new(seed);
        let mut counts = vec![0u64; (hi - lo + 1) as usize + 2];
        for _ in 0..reps {
            let k = draw(&mut rng);
            let idx = if k < lo {
                0
            } else if k > hi {
                counts.len() - 1
            } else {
                (k - lo + 1) as usize
            };
            counts[idx] += 1;
        }
        let mut chi2 = 0.0;
        let mut dof = 0usize;
        for (idx, &c) in counts.iter().enumerate() {
            let prob = if idx == 0 {
                if lo == 0 {
                    0.0
                } else {
                    d.cdf(lo as f64 - 1.0)
                }
            } else if idx == counts.len() - 1 {
                1.0 - d.cdf(hi as f64)
            } else {
                d.ln_pmf(lo + idx as u64 - 1).exp()
            };
            let expected = prob * reps as f64;
            if expected > 5.0 {
                chi2 += (c as f64 - expected).powi(2) / expected;
                dof += 1;
            }
        }
        let bound = dof as f64 + 5.0 * (2.0 * dof as f64).sqrt();
        assert!(
            chi2 < bound,
            "n={n} p={p}: chi2 = {chi2:.1}, bound = {bound:.1}, dof = {dof}"
        );
    }

    #[test]
    fn exact_distribution_chi_square_btpe_central() {
        // p = 0.5: BTPE path, symmetric pmf.
        chi_square_check(400, 0.5, 160, 240, 57, 40_000);
    }

    #[test]
    fn exact_distribution_chi_square_binv_below_cutoff() {
        // n * q = 9.9 just below the BTPE cutoff: BINV path.
        chi_square_check(1_000, 0.009_9, 0, 30, 58, 40_000);
    }

    #[test]
    fn exact_distribution_chi_square_btpe_above_cutoff() {
        // n * q = 10.1 just above the cutoff: BTPE path with the smallest
        // allowed variance, where hat-vs-pmf gaps are widest.
        chi_square_check(1_000, 0.010_1, 0, 31, 59, 40_000);
    }

    #[test]
    fn exact_distribution_chi_square_p_near_zero() {
        // Tiny p, huge n (Chicago-scale thinning): BTPE on the raw p.
        chi_square_check(2_700_000, 0.000_02, 30, 80, 60, 40_000);
    }

    #[test]
    fn exact_distribution_chi_square_p_near_one() {
        // p close to 1 exercises the reflection: internally samples
        // Binomial(n, 0.02) via BTPE and returns n - k.
        chi_square_check(5_000, 0.98, 4_860, 4_935, 61, 40_000);
    }

    #[test]
    fn exact_distribution_chi_square_binv_flipped() {
        // p close to 1 with a small reflected mean: BINV after reflection.
        chi_square_check(500, 0.99, 485, 500, 62, 40_000);
    }

    #[test]
    fn batched_chi_square_binv_regime() {
        // n r = 5 < 10: the batch path dispatches every draw to BINV.
        let hs = HazardSampler::new(0.005);
        chi_square_check_with(1_000, 0.005, 0, 20, 70, 40_000, |rng| hs.draw(rng, 1_000));
    }

    #[test]
    fn batched_chi_square_btpe_regime() {
        // n r = 120 >= 10: the batch path dispatches every draw to BTPE.
        let hs = HazardSampler::new(0.3);
        chi_square_check_with(400, 0.3, 90, 150, 71, 40_000, |rng| hs.draw(rng, 400));
    }

    #[test]
    fn batched_chi_square_btpe_flipped() {
        // Reflection through the batch path (p > 1/2, BTPE after flip).
        let hs = HazardSampler::new(0.85);
        chi_square_check_with(400, 0.85, 310, 370, 72, 40_000, |rng| hs.draw(rng, 400));
    }

    #[test]
    fn hazard_draw_matches_scalar_sampler() {
        // The shared-p batch setup must consume the stream exactly as a
        // per-draw scalar setup, across regimes, reflection and
        // degenerate cases.
        for &p in &[0.0, 1e-4, 0.005, 0.3, 0.5, 0.7, 0.97, 1.0] {
            let hs = HazardSampler::new(p);
            let mut ra = Xoshiro256PlusPlus::new(74);
            let mut rb = Xoshiro256PlusPlus::new(74);
            for &n in &[0u64, 1, 7, 47, 48, 300, 5_000, 2_700_000] {
                for _ in 0..50 {
                    let got = hs.draw(&mut ra, n);
                    let want = BinomialSampler::new(n, p).sample(&mut rb);
                    assert_eq!(got, want, "n={n} p={p}");
                }
            }
            assert_eq!(ra, rb, "RNG streams diverged at p={p}");
        }
    }

    #[test]
    #[should_panic]
    fn hazard_sampler_rejects_bad_probability() {
        HazardSampler::new(-0.1);
    }

    #[test]
    fn reflection_symmetry_is_exact() {
        // Sampling Binomial(n, p) and Binomial(n, 1-p) from identical RNG
        // states must give exactly mirrored results: the reflection is a
        // post-processing step, not a different random path.
        for &(n, p) in &[(30u64, 0.7), (400, 0.5 + 1e-9), (100_000, 0.93)] {
            for seed in 0..20u64 {
                let mut ra = Xoshiro256PlusPlus::new(seed);
                let mut rb = Xoshiro256PlusPlus::new(seed);
                let hi = sample_binomial(&mut ra, n, p);
                let lo = sample_binomial(&mut rb, n, 1.0 - p);
                assert_eq!(hi, n - lo, "n={n} p={p} seed={seed}");
                assert_eq!(ra, rb, "RNG streams diverged at n={n} p={p}");
            }
        }
    }

    #[test]
    fn cdf_monotone() {
        let d = Binomial::new(50, 0.3);
        let mut prev = -1.0;
        for k in 0..=50 {
            let c = d.cdf(k as f64);
            assert!(c >= prev);
            prev = c;
        }
        assert!((d.cdf(50.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_bad_probability() {
        Binomial::new(10, 1.5);
    }
}
