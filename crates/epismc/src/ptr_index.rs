//! Allocation-identity interning: the one pointer-keyed index behind
//! every pass that deduplicates a posterior's shared storage — the
//! snapshot format's segment, theta and checkpoint pools, the window
//! footprint telemetry, and [`crate::ckpool::sharing`].
//!
//! Those passes perform a lookup per distinct particle (and per distinct
//! segment) against sets of a few hundred to a few thousand entries, so
//! this is a flat linear-probing table with a multiply-shift hash rather
//! than an ordered map. It is only ever queried and inserted, never
//! iterated, so no result depends on its layout or on the addresses it
//! holds: first-encounter numbering comes from the callers' walk order.

/// Interning index from a key — an allocation address rendered as
/// `usize`, or any other nonzero-safe `usize` identity — to a `u32`
/// slot.
pub(crate) struct PtrIndex {
    /// `(key + 1, value)` pairs; 0 marks an empty slot, which is safe
    /// because keys are addresses of live allocations, never
    /// `usize::MAX`.
    slots: Vec<(usize, u32)>,
    mask: usize,
    len: usize,
}

impl PtrIndex {
    /// An empty index sized for about `n` keys before it first grows.
    pub(crate) fn with_capacity(n: usize) -> Self {
        // Keep load factor under 1/2 so probe chains stay short.
        let cap = (n.max(8) * 2).next_power_of_two();
        Self {
            slots: vec![(0, 0); cap],
            mask: cap - 1,
            len: 0,
        }
    }

    /// Keys held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn slot_of(&self, key: usize) -> usize {
        // Fibonacci multiply-shift: spreads the low entropy of aligned
        // heap addresses across the table without a full hasher.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & self.mask
    }

    /// The value stored for `key`.
    pub(crate) fn get(&self, key: usize) -> Option<u32> {
        let tagged = key + 1;
        let mut i = self.slot_of(key);
        loop {
            let (k, v) = self.slots[i];
            if k == tagged {
                return Some(v);
            }
            if k == 0 {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Insert `key -> value`; the caller checks [`Self::get`] first, so
    /// keys are always fresh.
    pub(crate) fn insert(&mut self, key: usize, value: u32) {
        if self.len * 2 >= self.slots.len() {
            self.grow();
        }
        let tagged = key + 1;
        let mut i = self.slot_of(key);
        while self.slots[i].0 != 0 {
            i = (i + 1) & self.mask;
        }
        self.slots[i] = (tagged, value);
        self.len += 1;
    }

    /// The value of `key`, first interning it at the next free index
    /// ([`Self::len`] before the call) when it is new; `true` when it
    /// was.
    pub(crate) fn intern(&mut self, key: usize) -> (u32, bool) {
        match self.get(key) {
            Some(v) => (v, false),
            None => {
                let v = self.len as u32;
                self.insert(key, v);
                (v, true)
            }
        }
    }

    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); doubled]);
        self.mask = self.slots.len() - 1;
        for (tagged, v) in old {
            if tagged != 0 {
                let mut i = self.slot_of(tagged - 1);
                while self.slots[i].0 != 0 {
                    i = (i + 1) & self.mask;
                }
                self.slots[i] = (tagged, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survives_growth_and_collisions() {
        // Aligned-address-like keys (multiples of 8 and 4096) stress the
        // hash's low-entropy input; inserting past the initial capacity
        // forces at least one grow + rehash.
        let mut idx = PtrIndex::with_capacity(4);
        let keys: Vec<usize> = (1..200).map(|i| i * 4096 + 8).collect();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(idx.get(k), None);
            idx.insert(k, i as u32);
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(idx.get(k), Some(i as u32));
        }
        assert_eq!(idx.get(7), None);
        assert_eq!(idx.len(), keys.len());
    }

    #[test]
    fn intern_numbers_keys_in_first_encounter_order() {
        let mut idx = PtrIndex::with_capacity(2);
        let order: Vec<(u32, bool)> = [64usize, 8, 64, 4096, 8, 12]
            .iter()
            .map(|&k| idx.intern(k))
            .collect();
        assert_eq!(
            order,
            [
                (0, true),
                (1, true),
                (0, false),
                (2, true),
                (1, false),
                (3, true)
            ]
        );
        assert_eq!(idx.len(), 4);
    }
}
