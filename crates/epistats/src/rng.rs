//! Pseudo-random number generation with an explicit state.
//!
//! Checkpointing a stochastic simulation (DESIGN.md, `episim::checkpoint`)
//! requires the *generator state itself* to be captured so that a
//! restored trajectory continues with the same random future it would have
//! had. The `rand` crate's `StdRng` deliberately hides its state, so we
//! implement xoshiro256++ (Blackman & Vigna, 2019) with an explicit state
//! ([`Xoshiro256PlusPlus::state`] / [`Xoshiro256PlusPlus::from_state`]),
//! which the checkpoint's binary encoding stores as four words.
//!
//! Parallel ensembles additionally need *deterministic stream derivation*:
//! particle `i`, replicate `r` must receive the same stream regardless of
//! which pool worker executes it, and the paper's common-random-number
//! design requires replicate `r` to share seeds across parameter values.
//! [`derive_stream`] provides this by hashing `(master_seed, tags...)`
//! through SplitMix64.

/// One step of the SplitMix64 sequence; used for seeding and stream
/// derivation. Returns the output and advances `state`.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Domain-separation constant xored into the master seed before absorption.
const STREAM_DOMAIN: u64 = 0xA076_1D64_78BD_642F;

/// Multiplier decorrelating tag values before they touch the SplitMix64
/// state (an odd constant, so distinct tags stay distinct).
const STREAM_TAG_MUL: u64 = 0xE703_7ED1_A0B4_28DB;

/// Derive a 64-bit stream seed from a master seed and a sequence of tags.
///
/// The derivation is a chained SplitMix64 absorption: each tag perturbs the
/// state before the next mix, so `derive_stream(m, &[a, b])` differs from
/// `derive_stream(m, &[b, a])` and from `derive_stream(m, &[a])`, while
/// remaining fully deterministic across threads, platforms and runs.
///
/// This is the reference formulation; [`StreamKey`] computes the identical
/// value in counter mode — prefix absorbed once, final tag supplied as an
/// O(1) per-cell counter — which is what the parallel grid uses.
pub fn derive_stream(master: u64, tags: &[u64]) -> u64 {
    let mut key = StreamKey::new(master);
    for &t in tags {
        key = key.absorb(t);
    }
    key.seed()
}

/// Counter-mode stream derivation: a reusable absorbed prefix over
/// `(master_seed, tags...)` from which per-cell seeds are derived in O(1)
/// by supplying the trailing tag(s) as counters.
///
/// `StreamKey::new(m).absorb(a).derive(b)` is **bit-identical** to
/// [`derive_stream`]`(m, &[a, b])` — the key simply caches the chained
/// SplitMix64 absorption state after the prefix, so a worker thread can
/// derive any cell `(i, r)` of a window grid directly from the shared key
/// without replaying the prefix chain or walking cells sequentially.
///
/// The struct is `Copy` (a single `u64` of absorbed state plus the running
/// output word), so hoisting one key per window and handing copies to
/// worker closures costs nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamKey {
    /// SplitMix64 state after absorbing the master seed and every prefix
    /// tag (each absorption advances the Weyl sequence once).
    state: u64,
    /// Output word of the most recent absorption — equals
    /// `derive_stream(master, prefix)` for the tags absorbed so far.
    out: u64,
}

impl StreamKey {
    /// Start a key from a master seed (no tags absorbed yet).
    #[inline]
    pub fn new(master: u64) -> Self {
        let mut state = master ^ STREAM_DOMAIN;
        let out = splitmix64(&mut state);
        Self { state, out }
    }

    /// Absorb one prefix tag, returning the extended key.
    #[inline]
    #[must_use]
    pub fn absorb(mut self, tag: u64) -> Self {
        self.state ^= tag.wrapping_mul(STREAM_TAG_MUL);
        self.out = splitmix64(&mut self.state);
        self
    }

    /// The stream seed for the prefix absorbed so far — identical to
    /// `derive_stream(master, prefix)`.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.out
    }

    /// Derive the stream seed for `counter` appended to the absorbed
    /// prefix, without mutating the key: O(1), no chain replay.
    #[inline]
    pub fn derive(&self, counter: u64) -> u64 {
        let mut state = self.state ^ counter.wrapping_mul(STREAM_TAG_MUL);
        splitmix64(&mut state)
    }

    /// Derive with two trailing counters (e.g. `(param_index, replicate)`),
    /// equivalent to `self.absorb(a).derive(b)`.
    #[inline]
    pub fn derive2(&self, a: u64, b: u64) -> u64 {
        self.absorb(a).derive(b)
    }

    /// Build a generator seeded on [`Self::derive`]`(counter)`.
    #[inline]
    pub fn rng(&self, counter: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::new(self.derive(counter))
    }
}

/// xoshiro256++ generator with an explicit state.
///
/// Passes BigCrush (per the reference authors); period `2^256 - 1`.
/// Parallel streams come from [`StreamKey`] seed derivation, not from
/// jumping one generator ahead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Create a generator from a 64-bit seed, expanding it through
    /// SplitMix64 as the xoshiro authors recommend.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // The all-zero state is invalid (fixed point); SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    /// Create a generator on a derived stream (see [`derive_stream`]).
    pub fn from_stream(master: u64, tags: &[u64]) -> Self {
        Self::new(derive_stream(master, tags))
    }

    /// Next raw 64-bit output.
    #[inline]
    #[allow(clippy::should_implement_trait)] // established generator API, not an Iterator
    pub fn next(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` using the high 53 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in the *open* interval `(0, 1)` — safe as a log or
    /// inverse-CDF argument.
    #[inline]
    pub fn next_f64_open(&mut self) -> f64 {
        loop {
            let u = self.next_f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Uniform integer in `[0, bound)` using Lemire's nearly-divisionless
    /// rejection method (unbiased).
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_bounded: bound must be positive");
        let mut x = self.next();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Expose the raw state (for checkpoint debugging / tests).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a generator from raw state previously returned by
    /// [`Self::state`].
    ///
    /// # Panics
    /// Panics on the all-zero state, which is not a valid xoshiro state.
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s != [0; 4], "from_state: all-zero state is invalid");
        Self { s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_sequence() {
        // Reference outputs for xoshiro256++ seeded with the SplitMix64
        // expansion of 0, cross-checked against the C reference
        // implementation by Blackman & Vigna.
        let rng = Xoshiro256PlusPlus::new(0);
        let s0 = rng.state();
        // SplitMix64(0) expansion:
        assert_eq!(s0[0], 0xE220_A839_7B1D_CDAF);
        assert_eq!(s0[1], 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(s0[2], 0x06C4_5D18_8009_454F);
        assert_eq!(s0[3], 0xF88B_B8A8_724C_81EC);
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256PlusPlus::new(42);
        let mut b = Xoshiro256PlusPlus::new(42);
        let mut c = Xoshiro256PlusPlus::new(43);
        let xs: Vec<u64> = (0..64).map(|_| a.next()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.next()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn uniform_f64_in_range_and_roughly_uniform() {
        let mut rng = Xoshiro256PlusPlus::new(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean = {mean}");
    }

    #[test]
    fn bounded_is_unbiased_over_small_range() {
        let mut rng = Xoshiro256PlusPlus::new(11);
        let mut counts = [0u32; 7];
        let n = 70_000;
        for _ in 0..n {
            counts[rng.next_bounded(7) as usize] += 1;
        }
        for &c in &counts {
            let expected = n as f64 / 7.0;
            assert!(
                (c as f64 - expected).abs() < 5.0 * expected.sqrt(),
                "count {c} far from {expected}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn bounded_rejects_zero() {
        Xoshiro256PlusPlus::new(0).next_bounded(0);
    }

    #[test]
    fn derive_stream_is_order_and_tag_sensitive() {
        let m = 123_456;
        let a = derive_stream(m, &[1, 2]);
        let b = derive_stream(m, &[2, 1]);
        let c = derive_stream(m, &[1]);
        let d = derive_stream(m, &[1, 2]);
        assert_eq!(a, d);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(derive_stream(m, &[]), derive_stream(m + 1, &[]));
    }

    #[test]
    fn stream_key_matches_derive_stream_exactly() {
        // The counter-mode key must reproduce the chained absorption
        // bit-for-bit at every prefix length — this is what keeps
        // persisted snapshots and every seed-pinned golden stable.
        for master in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF_CAFE_F00D] {
            let key = StreamKey::new(master);
            assert_eq!(key.seed(), derive_stream(master, &[]));
            for a in [0u64, 1, 7, u64::MAX] {
                assert_eq!(key.derive(a), derive_stream(master, &[a]));
                let ka = key.absorb(a);
                assert_eq!(ka.seed(), derive_stream(master, &[a]));
                for b in [0u64, 3, 1 << 40] {
                    assert_eq!(ka.derive(b), derive_stream(master, &[a, b]));
                    assert_eq!(key.derive2(a, b), derive_stream(master, &[a, b]));
                    for c in [2u64, 500_000] {
                        assert_eq!(ka.absorb(b).derive(c), derive_stream(master, &[a, b, c]));
                    }
                }
            }
        }
    }

    #[test]
    fn stream_key_derive_is_pure() {
        // derive() must not mutate the key: any cell can be derived any
        // number of times, in any order, from a shared copy.
        let key = StreamKey::new(99).absorb(0x5EED);
        let first = key.derive(17);
        let others: Vec<u64> = (0..8).map(|i| key.derive(i)).collect();
        assert_eq!(key.derive(17), first);
        assert_eq!(others, (0..8).map(|i| key.derive(i)).collect::<Vec<_>>());
    }

    #[test]
    fn stream_key_rng_matches_from_stream() {
        let key = StreamKey::new(7).absorb(11);
        let mut a = key.rng(3);
        let mut b = Xoshiro256PlusPlus::from_stream(7, &[11, 3]);
        for _ in 0..16 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn from_state_round_trip() {
        let mut rng = Xoshiro256PlusPlus::new(77);
        rng.next();
        let st = rng.state();
        let mut again = Xoshiro256PlusPlus::from_state(st);
        assert_eq!(rng.next(), again.next());
    }
}
