//! A fast hasher for the small integer keys of per-transaction sets.
//!
//! The engine's line sets, write buffer and the tables around them are
//! keyed by simulator-chosen [`WordAddr`](crate::WordAddr),
//! [`LineId`](crate::LineId) or `u32` values and probed on every simulated
//! access, so they need no DoS-resistant SipHash.
//!
//! **Fold rule.** A multiply by an odd constant moves entropy *up*: key
//! bits only reach product bits at or above their own position, so keys
//! strided by `2^k` (words of one line, lines of one page) leave the low
//! `k` bits of the product zero. `std`'s `HashMap` (hashbrown) picks the
//! bucket from the *low* bits of the hash and a tag from the top 7, so
//! [`IntHasher::finish`] folds the well-mixed high half down
//! (`h ^ (h >> 32)`) before returning. Without the fold, a stride-4096
//! key set lands in a single bucket group.
//!
//! Iteration order of a [`FastMap`]/[`FastSet`] is deterministic (no random
//! seed) but arbitrary; callers that need an order still sort.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit multiplier (the golden-ratio constant `2^64 / φ`).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiplicative hasher for integer keys; see the module docs for the
/// fold rule.
#[derive(Clone, Copy, Debug, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Non-integer keys (not used on the hot path) still hash correctly.
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(26) ^ n).wrapping_mul(MUL);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of [`IntHasher`].
pub type BuildIntHasher = BuildHasherDefault<IntHasher>;

/// A `HashMap` hashed with [`IntHasher`]; create with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildIntHasher>;

/// A `HashSet` hashed with [`IntHasher`]; create with `FastSet::default()`.
pub type FastSet<K> = HashSet<K, BuildIntHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn int_hash(key: u32) -> u64 {
        BuildIntHasher::default().hash_one(key)
    }

    /// Distinct values among the low 10 bits (1024 buckets) of 1024 keys
    /// strided by `stride`.
    fn low_bit_buckets(hash: impl Fn(u32) -> u64, stride: u32) -> usize {
        let buckets: HashSet<u64> = (0..1024u32).map(|i| hash(i * stride) & 1023).collect();
        buckets.len()
    }

    /// A uniform hash fills ~63% (1 - 1/e) of 1024 buckets with 1024 keys;
    /// half is a generous floor that a clustered hash cannot reach.
    const SPREAD_FLOOR: usize = 512;

    #[test]
    fn strided_keys_spread_over_the_low_bits() {
        for stride in [1u32, 8, 64, 4096] {
            let n = low_bit_buckets(int_hash, stride);
            assert!(n >= SPREAD_FLOOR, "stride {stride}: only {n} of 1024 low-bit buckets used");
        }
    }

    #[test]
    fn a_multiply_without_the_fold_fails_the_spread_check() {
        // The check above has teeth: the same multiply minus the fold
        // leaves the low bits of strided keys zero.
        let plain = |k: u32| (k as u64).wrapping_mul(MUL);
        assert!(low_bit_buckets(plain, 4096) < SPREAD_FLOOR);
    }

    #[test]
    fn newtype_keys_hash_like_their_integer() {
        // `#[derive(Hash)]` on a one-field newtype writes just the field.
        let w = crate::WordAddr(77);
        assert_eq!(BuildIntHasher::default().hash_one(w), int_hash(77));
        let mut h = IntHasher::default();
        crate::LineId(77).hash(&mut h);
        assert_eq!(h.finish(), int_hash(77));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Clone, Debug)]
    enum Op {
        Insert(u32),
        Contains(u32),
        Clear,
    }

    /// Keys drawn from a few address-like shapes: dense words, one word
    /// per line and one line per page.
    fn key() -> impl Strategy<Value = u32> {
        prop_oneof![0u32..512, (0u32..512).prop_map(|k| k * 8), (0u32..512).prop_map(|k| k * 4096),]
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![key().prop_map(Op::Insert), key().prop_map(Op::Contains), Just(Op::Clear),],
            1..400,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A `FastSet` cleared and reused across "retries" behaves exactly
        /// like a fresh-per-use `std` `HashSet`.
        #[test]
        fn fast_set_matches_std_hash_set(ops in ops()) {
            let mut fast: FastSet<u32> = FastSet::default();
            let mut reference = std::collections::HashSet::new();
            for op in &ops {
                match *op {
                    Op::Insert(k) => prop_assert_eq!(fast.insert(k), reference.insert(k)),
                    Op::Contains(k) => prop_assert_eq!(fast.contains(&k), reference.contains(&k)),
                    Op::Clear => {
                        fast.clear();
                        reference = std::collections::HashSet::new();
                    }
                }
                prop_assert_eq!(fast.len(), reference.len());
            }
            let mut a: Vec<u32> = fast.into_iter().collect();
            let mut b: Vec<u32> = reference.into_iter().collect();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }
}
