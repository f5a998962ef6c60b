//! Bitmap sets of conflict-detection lines: a transaction's read, write
//! and spilled sets.
//!
//! A [`LineSet`] spans every line of one arena. Membership is one bit
//! test; a list keeps the inserted lines in insertion order for iteration
//! (commit, release, footprint counts), and clearing zeroes only the bitmap
//! words that list touched, so a set reused across retries costs its
//! footprint, not the arena, per attempt. The bitmap grows on demand up to
//! the highest line inserted, so an engine that never tracks a line (every
//! sequential-mode one) allocates none.

use htm_core::LineId;

/// A set of [`LineId`]s below a fixed bound (the arena's line count).
#[derive(Debug)]
pub(crate) struct LineSet {
    /// Bit `l % 64` of word `l / 64` is set iff line `l` is in the set; a
    /// line past the end is not.
    bits: Vec<u64>,
    /// The set's lines, in insertion order.
    lines: Vec<LineId>,
    /// The bound: lines `0..n_lines` may be inserted.
    n_lines: usize,
}

impl LineSet {
    /// An empty set for lines `0..n_lines`.
    pub(crate) fn new(n_lines: usize) -> LineSet {
        LineSet { bits: Vec::new(), lines: Vec::new(), n_lines }
    }

    /// Whether `line` is in the set (false for a line past the bound).
    #[inline]
    pub(crate) fn contains(&self, line: LineId) -> bool {
        let l = line.0 as usize;
        self.bits.get(l / 64).is_some_and(|w| w >> (l % 64) & 1 != 0)
    }

    /// Adds `line`, returning whether it was new.
    ///
    /// # Panics
    ///
    /// Panics if `line` is past the bound the set was built with.
    #[inline]
    pub(crate) fn insert(&mut self, line: LineId) -> bool {
        let l = line.0 as usize;
        if l / 64 >= self.bits.len() {
            self.grow_to(l);
        }
        let (word, bit) = (&mut self.bits[l / 64], 1u64 << (l % 64));
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.lines.push(line);
        true
    }

    /// Grows the bitmap to cover line `l`, at least doubling it.
    #[cold]
    fn grow_to(&mut self, l: usize) {
        assert!(l < self.n_lines, "line {l} past the {}-line bound", self.n_lines);
        let words = (l / 64 + 1).max(2 * self.bits.len()).min(self.n_lines.div_ceil(64));
        self.bits.resize(words, 0);
    }

    /// Number of lines in the set.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// The set's lines, in insertion order.
    #[inline]
    pub(crate) fn iter(&self) -> impl Iterator<Item = LineId> + '_ {
        self.lines.iter().copied()
    }

    /// Empties the set, zeroing only the bitmap words its lines touched.
    pub(crate) fn clear(&mut self) {
        for line in self.lines.drain(..) {
            self.bits[line.0 as usize / 64] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_clear_and_iteration_order() {
        let mut s = LineSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(LineId(129)), "the last line fits");
        assert!(s.insert(LineId(3)));
        assert!(s.insert(LineId(64)));
        assert!(!s.insert(LineId(3)), "a second insert is not new");
        assert_eq!(s.len(), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), [LineId(129), LineId(3), LineId(64)]);
        assert!(s.contains(LineId(64)) && !s.contains(LineId(65)));
        assert!(!s.contains(LineId(130)) && !s.contains(LineId(u32::MAX)), "past the bound");
        s.clear();
        assert!(s.is_empty());
        assert!(s.bits.iter().all(|&w| w == 0), "clear zeroes every touched word");
        assert!(!s.contains(LineId(129)));
        assert!(s.insert(LineId(129)), "reusable after a clear");
    }

    #[test]
    fn the_bitmap_grows_only_to_the_highest_line() {
        let mut s = LineSet::new(1 << 20);
        assert!(s.bits.is_empty(), "nothing allocated before the first insert");
        s.insert(LineId(5));
        assert_eq!(s.bits.len(), 1);
        s.insert(LineId(64 * 10));
        assert_eq!(s.bits.len(), 11);
        s.insert(LineId(64 * 11));
        assert_eq!(s.bits.len(), 22, "growth at least doubles");
        assert!(s.contains(LineId(5)) && s.contains(LineId(640)) && s.contains(LineId(704)));
    }

    #[test]
    #[should_panic(expected = "past the 64-line bound")]
    fn insert_past_the_bound_panics() {
        LineSet::new(64).insert(LineId(64));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Lines of a 300-line arena (the last one included).
    const LINES: u32 = 300;

    #[derive(Clone, Debug)]
    enum Op {
        Insert(u32),
        Contains(u32),
        Clear,
    }

    fn line() -> impl Strategy<Value = u32> {
        prop_oneof![0u32..LINES, Just(LINES - 1), (0u32..5).prop_map(|k| k * 64)]
    }

    /// Mostly inserts and probes, with a clear about every ninth op, so
    /// sets grow past a bitmap word between clears.
    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let op = (0u8..9, line()).prop_map(|(k, l)| match k {
            0 => Op::Clear,
            1..=4 => Op::Insert(l),
            _ => Op::Contains(l),
        });
        prop::collection::vec(op, 1..400)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A `LineSet` cleared and reused behaves exactly like a
        /// `BTreeSet<LineId>`: same insert and contains answers, same
        /// length, and it iterates the same lines.
        #[test]
        fn line_set_matches_btree_set(ops in ops()) {
            let mut set = LineSet::new(LINES as usize);
            let mut model = BTreeSet::new();
            for op in &ops {
                match *op {
                    Op::Insert(l) => prop_assert_eq!(set.insert(LineId(l)), model.insert(LineId(l))),
                    Op::Contains(l) => {
                        prop_assert_eq!(set.contains(LineId(l)), model.contains(&LineId(l)));
                    }
                    Op::Clear => {
                        set.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(set.len(), model.len());
                prop_assert_eq!(set.is_empty(), model.is_empty());
                let lines: BTreeSet<LineId> = set.iter().collect();
                prop_assert_eq!(&lines, &model);
            }
        }
    }
}
