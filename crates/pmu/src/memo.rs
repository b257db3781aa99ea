//! Direct-mapped exact memos for per-event computations.
//!
//! Event-driven stepping asks the same pure questions over and over on
//! bit-identical inputs: the relaxation factor of a repeated step
//! length, the guardband of a repeated license pattern, the ramp time
//! of a repeated voltage delta. An [`ExactMemo`] answers a repeat from a
//! stored result. It compares the whole key, never a hash, so a stored
//! answer is exactly the one a fresh computation would return; a
//! collision only evicts. It lives inline (fixed arrays, no heap) and
//! carries no model state, so one memo serves every run of the model it
//! was built for, and it must stay out of every state equality.

use ichannels_uarch::time::SimTime;

/// Fibonacci-hashing multiplier (2^64 / φ).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// A key of an [`ExactMemo`]: compared whole, folded to 64 bits to
/// pick a slot.
pub trait MemoKey: Copy + Eq {
    /// The key folded to one word; only its distribution matters.
    fn fold(&self) -> u64;
}

impl MemoKey for u64 {
    #[inline]
    fn fold(&self) -> u64 {
        *self
    }
}

impl MemoKey for SimTime {
    #[inline]
    fn fold(&self) -> u64 {
        self.as_ps()
    }
}

impl MemoKey for u128 {
    #[inline]
    fn fold(&self) -> u64 {
        (*self as u64) ^ ((*self >> 64) as u64).rotate_left(29)
    }
}

impl<A: MemoKey, B: MemoKey> MemoKey for (A, B) {
    #[inline]
    fn fold(&self) -> u64 {
        self.0.fold().wrapping_mul(GOLDEN).rotate_left(31) ^ self.1.fold()
    }
}

impl<A: MemoKey, B: MemoKey, C: MemoKey> MemoKey for (A, B, C) {
    #[inline]
    fn fold(&self) -> u64 {
        (self.0, self.1).fold().wrapping_mul(GOLDEN).rotate_left(31) ^ self.2.fold()
    }
}

/// A direct-mapped memo of a pure function with `N` slots (a power of
/// two): slot `fold(key) · φ >> (64 − log2 N)`.
///
/// Every slot starts as one caller-supplied `(key, value)` pair, which
/// must be a true entry of the function, so the memo needs no empty
/// marker. It counts the lookups that had to compute.
#[derive(Debug, Clone)]
pub struct ExactMemo<K, V, const N: usize> {
    keys: [K; N],
    values: [V; N],
    misses: u64,
}

impl<K: MemoKey, V: Copy, const N: usize> ExactMemo<K, V, N> {
    /// Right shift that turns a mixed 64-bit key into a slot index.
    const SHIFT: u32 = {
        assert!(
            N.is_power_of_two() && N > 1,
            "slot count must be a power of two"
        );
        64 - N.trailing_zeros()
    };

    /// A memo whose every slot holds `(key, value)`, a true entry.
    pub fn new(key: K, value: V) -> Self {
        ExactMemo {
            keys: [key; N],
            values: [value; N],
            misses: 0,
        }
    }

    #[inline]
    fn slot(key: &K) -> usize {
        (key.fold().wrapping_mul(GOLDEN) >> Self::SHIFT) as usize
    }

    /// The stored value of `key`, computing and storing it on a miss.
    #[inline]
    pub fn get_or_insert_with(&mut self, key: K, compute: impl FnOnce() -> V) -> V {
        let slot = Self::slot(&key);
        if self.keys[slot] != key {
            self.misses += 1;
            self.keys[slot] = key;
            self.values[slot] = compute();
        }
        self.values[slot]
    }

    /// The stored value of `key`, if its slot holds it. Counts nothing.
    #[inline]
    pub fn get(&self, key: K) -> Option<V> {
        let slot = Self::slot(&key);
        (self.keys[slot] == key).then_some(self.values[slot])
    }

    /// Stores `value` as the answer for `key`, evicting its slot.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) {
        let slot = Self::slot(&key);
        self.keys[slot] = key;
        self.values[slot] = value;
    }

    /// Lookups by [`Self::get_or_insert_with`] that computed, since
    /// creation or the last [`Self::clear_misses`].
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Zeroes the miss count, keeping the stored entries.
    pub fn clear_misses(&mut self) {
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A slow pure function of two words.
    fn f(a: u64, b: u64) -> f64 {
        (a as f64).sqrt() / (1.0 + b as f64)
    }

    #[test]
    fn answers_like_the_function_through_collisions() {
        let mut memo: ExactMemo<(u64, u64), f64, 8> = ExactMemo::new((0, 0), f(0, 0));
        let mut x: u64 = 0x5EED;
        let mut computed = 0;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let (a, b) = ((x >> 60) % 13, (x >> 50) % 3);
            let got = memo.get_or_insert_with((a, b), || {
                computed += 1;
                f(a, b)
            });
            assert_eq!(got.to_bits(), f(a, b).to_bits());
            assert_eq!(memo.get((a, b)).map(f64::to_bits), Some(got.to_bits()));
        }
        assert_eq!(memo.misses(), computed);
        assert!(computed > 0 && computed < 10_000, "{computed}");
        memo.clear_misses();
        assert_eq!(memo.misses(), 0);
    }

    /// A `SimTime` key on 256 slots picks `ps · φ >> 56`, the slot
    /// function the thermal relaxation memo has always used.
    #[test]
    fn simtime_slots_are_fibonacci_hashed() {
        for ps in [0u64, 1, 12_345, 40_000_000, u64::MAX] {
            let slot = ExactMemo::<SimTime, f64, 256>::slot(&SimTime::from_ps(ps));
            assert_eq!(slot, (ps.wrapping_mul(GOLDEN) >> 56) as usize);
        }
    }

    #[test]
    fn insert_and_get_do_not_count() {
        let mut memo: ExactMemo<u64, bool, 4> = ExactMemo::new(7, false);
        assert_eq!(memo.get(7), Some(false));
        assert_eq!(memo.get(8), None);
        memo.insert(8, true);
        assert_eq!(memo.get(8), Some(true));
        assert_eq!(memo.misses(), 0);
    }
}
