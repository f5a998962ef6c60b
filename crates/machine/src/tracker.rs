//! Transaction-capacity tracking structures.
//!
//! Each platform bounds the transactional footprint with a different
//! hardware structure (Section 2): zEC12 and Intel Core track reads in the
//! L1 with an overflow extension and bound stores by a small store
//! cache / the L1 itself; POWER8 bounds *everything* by a 64-entry CAM;
//! Blue Gene/Q gives each core a byte budget in the shared L2. A
//! [`Tracker`] is the per-thread embodiment of one of these structures: the
//! transaction engine resets it at `tbegin` (with the current SMT share) and
//! consults it on the first access to every line.

use std::collections::HashMap;

use htm_core::{AbortCause, FastMap, LineId};

/// Declarative description of a platform's capacity structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrackerKind {
    /// L1-based read tracking with an overflow extension for evicted read
    /// lines, and a separate store budget (zEC12, Intel Core).
    SetAssoc {
        /// L1 data-cache size in bytes.
        l1_bytes: u32,
        /// L1 associativity.
        ways: u32,
        /// Tracking granularity (cache-line size) in bytes.
        line_bytes: u32,
        /// Total transactional-load capacity in bytes (L1 + extension).
        load_total_bytes: u64,
        /// Total transactional-store capacity in bytes.
        store_total_bytes: u64,
        /// Whether stores are also subject to L1 way conflicts (Intel Core:
        /// stores must stay in the L1; zEC12: stores go to the fully
        /// associative gathering store cache).
        store_set_assoc: bool,
    },
    /// A content-addressable memory bounding loads + stores together
    /// (POWER8's L2 TMCAM).
    Tmcam {
        /// Number of CAM entries (paper: 64).
        entries: u32,
        /// Bytes tracked per entry (the L2 line size, 128).
        line_bytes: u32,
    },
    /// A combined byte budget for loads + stores (Blue Gene/Q's L2 slice).
    ByteBudget {
        /// Combined transactional capacity in bytes.
        combined_bytes: u64,
        /// Tracking granularity in bytes.
        line_bytes: u32,
    },
}

impl TrackerKind {
    /// Transactional-load capacity in bytes (Table 1 row 2).
    pub fn load_capacity_bytes(&self) -> u64 {
        match *self {
            TrackerKind::SetAssoc { load_total_bytes, .. } => load_total_bytes,
            TrackerKind::Tmcam { entries, line_bytes } => entries as u64 * line_bytes as u64,
            TrackerKind::ByteBudget { combined_bytes, .. } => combined_bytes,
        }
    }

    /// Transactional-store capacity in bytes (Table 1 row 3).
    pub fn store_capacity_bytes(&self) -> u64 {
        match *self {
            TrackerKind::SetAssoc { store_total_bytes, .. } => store_total_bytes,
            TrackerKind::Tmcam { entries, line_bytes } => entries as u64 * line_bytes as u64,
            TrackerKind::ByteBudget { combined_bytes, .. } => combined_bytes,
        }
    }

    /// The tracking granularity (line size) in bytes.
    pub fn line_bytes(&self) -> u32 {
        match *self {
            TrackerKind::SetAssoc { line_bytes, .. }
            | TrackerKind::Tmcam { line_bytes, .. }
            | TrackerKind::ByteBudget { line_bytes, .. } => line_bytes,
        }
    }

    /// Static capacity prediction: would a transaction whose read set is
    /// `load_lines` and write set is `store_lines` (line IDs at this
    /// structure's granularity; duplicates are ignored) overflow this
    /// structure, at the given SMT `share`?
    ///
    /// Every rule the stateful [`Tracker`] enforces is monotone in the
    /// footprint counts, so the final-footprint check here agrees exactly
    /// with feeding the accesses through a `Tracker` in *any* order —
    /// which is what makes "this block cannot commit in HW on platform X"
    /// a sound static verdict. Only the read/write attribution of the
    /// returned cause is order-dependent: when the combined footprint
    /// overflows a union-bounded structure (TMCAM, byte budget), the load
    /// side is blamed only if the loads alone overflow.
    pub fn predict_abort(
        &self,
        share: u32,
        load_lines: &[LineId],
        store_lines: &[LineId],
    ) -> Option<AbortCause> {
        let share = share.max(1);
        let loads: std::collections::HashSet<LineId> = load_lines.iter().copied().collect();
        let stores: std::collections::HashSet<LineId> = store_lines.iter().copied().collect();
        let union = loads.union(&stores).count() as u64;
        match *self {
            TrackerKind::SetAssoc {
                l1_bytes,
                ways,
                line_bytes,
                load_total_bytes,
                store_total_bytes,
                store_set_assoc,
            } => {
                if loads.len() as u64 * line_bytes as u64 > load_total_bytes / share as u64 {
                    return Some(AbortCause::CapacityRead);
                }
                if stores.len() as u64 * line_bytes as u64 > store_total_bytes / share as u64 {
                    return Some(AbortCause::CapacityWrite);
                }
                if store_set_assoc {
                    let n_sets = l1_bytes / (line_bytes * ways);
                    let mut occupancy: HashMap<u32, u32> = HashMap::new();
                    for l in &stores {
                        let occ = occupancy.entry(l.0 % n_sets).or_insert(0);
                        *occ += 1;
                        if *occ > ways / share {
                            return Some(AbortCause::CapacityWrite);
                        }
                    }
                }
                None
            }
            TrackerKind::Tmcam { entries, .. } => {
                let bound = (entries / share).max(1) as u64;
                if loads.len() as u64 > bound {
                    Some(AbortCause::CapacityRead)
                } else if union > bound {
                    Some(AbortCause::CapacityWrite)
                } else {
                    None
                }
            }
            TrackerKind::ByteBudget { combined_bytes, line_bytes } => {
                let budget = combined_bytes / share as u64;
                if loads.len() as u64 * line_bytes as u64 > budget {
                    Some(AbortCause::CapacityRead)
                } else if union * line_bytes as u64 > budget {
                    Some(AbortCause::CapacityWrite)
                } else {
                    None
                }
            }
        }
    }
}

/// Per-thread capacity tracker; reset at every transaction begin.
///
/// The transaction engine calls [`Tracker::on_first_load`] /
/// [`Tracker::on_first_store`] exactly once per (transaction, line,
/// direction), passing whether the line is already tracked in the other
/// direction so that union-based structures (TMCAM, byte budget) do not
/// double-count.
#[derive(Debug)]
pub struct Tracker {
    kind: TrackerKind,
    share: u32,
    load_lines: u64,
    store_lines: u64,
    union_lines: u64,
    store_sets: FastMap<u32, u32>,
}

impl Tracker {
    /// Creates a tracker for the given structure.
    pub fn new(kind: TrackerKind) -> Tracker {
        Tracker {
            kind,
            share: 1,
            load_lines: 0,
            store_lines: 0,
            union_lines: 0,
            store_sets: FastMap::default(),
        }
    }

    /// Resets for a new transaction. `share` is the number of SMT threads
    /// concurrently running transactions on this core (≥ 1); hardware
    /// resources are divided among them (Section 2, "resource sharing among
    /// SMT threads").
    pub fn begin(&mut self, share: u32) {
        self.share = share.max(1);
        self.load_lines = 0;
        self.store_lines = 0;
        self.union_lines = 0;
        self.store_sets.clear();
    }

    /// Distinct lines loaded so far in this transaction.
    pub fn load_lines(&self) -> u64 {
        self.load_lines
    }

    /// Distinct lines stored so far in this transaction.
    pub fn store_lines(&self) -> u64 {
        self.store_lines
    }

    /// The capacity structure this tracker models.
    pub fn kind(&self) -> TrackerKind {
        self.kind
    }

    /// Records the first transactional load of `line`.
    ///
    /// # Errors
    ///
    /// Returns [`AbortCause::CapacityRead`] if the structure overflows.
    pub fn on_first_load(&mut self, line: LineId, already_written: bool) -> Result<(), AbortCause> {
        self.load_lines += 1;
        if !already_written {
            self.union_lines += 1;
        }
        match self.kind {
            TrackerKind::SetAssoc { line_bytes, load_total_bytes, .. } => {
                // Evicted read lines spill into the extension structure, so
                // only the total budget bounds loads.
                let budget = load_total_bytes / self.share as u64;
                if self.load_lines * line_bytes as u64 > budget {
                    return Err(AbortCause::CapacityRead);
                }
            }
            TrackerKind::Tmcam { entries, .. } => {
                if self.union_lines > (entries / self.share).max(1) as u64 {
                    return Err(AbortCause::CapacityRead);
                }
            }
            TrackerKind::ByteBudget { combined_bytes, line_bytes } => {
                let budget = combined_bytes / self.share as u64;
                if self.union_lines * line_bytes as u64 > budget {
                    return Err(AbortCause::CapacityRead);
                }
            }
        }
        let _ = line;
        Ok(())
    }

    /// Records the first transactional store to `line`.
    ///
    /// # Errors
    ///
    /// Returns [`AbortCause::CapacityWrite`] if the structure overflows.
    pub fn on_first_store(&mut self, line: LineId, already_read: bool) -> Result<(), AbortCause> {
        self.store_lines += 1;
        if !already_read {
            self.union_lines += 1;
        }
        match self.kind {
            TrackerKind::SetAssoc {
                l1_bytes,
                ways,
                line_bytes,
                store_total_bytes,
                store_set_assoc,
                ..
            } => {
                let budget = store_total_bytes / self.share as u64;
                if self.store_lines * line_bytes as u64 > budget {
                    return Err(AbortCause::CapacityWrite);
                }
                if store_set_assoc {
                    // Speculatively written lines cannot be evicted from the
                    // L1: a way conflict aborts even below the byte budget
                    // (the "cache-way conflict" capacity aborts of Section 2).
                    let n_sets = l1_bytes / (line_bytes * ways);
                    let set = line.0 % n_sets;
                    let occ = self.store_sets.entry(set).or_insert(0);
                    *occ += 1;
                    if *occ > ways / self.share {
                        return Err(AbortCause::CapacityWrite);
                    }
                }
            }
            TrackerKind::Tmcam { entries, .. } => {
                if self.union_lines > (entries / self.share).max(1) as u64 {
                    return Err(AbortCause::CapacityWrite);
                }
            }
            TrackerKind::ByteBudget { combined_bytes, line_bytes } => {
                let budget = combined_bytes / self.share as u64;
                if self.union_lines * line_bytes as u64 > budget {
                    return Err(AbortCause::CapacityWrite);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmcam() -> Tracker {
        Tracker::new(TrackerKind::Tmcam { entries: 64, line_bytes: 128 })
    }

    #[test]
    fn tmcam_bounds_union_of_loads_and_stores() {
        let mut t = tmcam();
        t.begin(1);
        for i in 0..32 {
            t.on_first_load(LineId(i), false).unwrap();
        }
        for i in 32..64 {
            t.on_first_store(LineId(i), false).unwrap();
        }
        // 65th distinct line overflows.
        assert_eq!(t.on_first_load(LineId(64), false), Err(AbortCause::CapacityRead));
    }

    #[test]
    fn tmcam_store_to_read_line_is_free() {
        let mut t = tmcam();
        t.begin(1);
        for i in 0..64 {
            t.on_first_load(LineId(i), false).unwrap();
        }
        // Upgrading an existing entry to write does not allocate.
        assert!(t.on_first_store(LineId(0), true).is_ok());
        assert_eq!(t.on_first_store(LineId(100), false), Err(AbortCause::CapacityWrite));
    }

    #[test]
    fn tmcam_smt_share_divides_entries() {
        let mut t = tmcam();
        t.begin(8); // SMT-8: 8 entries each
        for i in 0..8 {
            t.on_first_load(LineId(i), false).unwrap();
        }
        assert_eq!(t.on_first_load(LineId(8), false), Err(AbortCause::CapacityRead));
    }

    fn intel() -> Tracker {
        Tracker::new(TrackerKind::SetAssoc {
            l1_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
            load_total_bytes: 4 * 1024 * 1024,
            store_total_bytes: 22 * 1024,
            store_set_assoc: true,
        })
    }

    #[test]
    fn intel_load_capacity_exceeds_l1() {
        let mut t = intel();
        t.begin(1);
        // 1 MB of loads (16384 lines) is far beyond the L1 but fine.
        for i in 0..16384 {
            t.on_first_load(LineId(i), false).unwrap();
        }
        // 4 MB is the limit.
        for i in 16384..65536 {
            t.on_first_load(LineId(i), false).unwrap();
        }
        assert_eq!(t.on_first_load(LineId(70000), false), Err(AbortCause::CapacityRead));
    }

    #[test]
    fn intel_store_byte_budget() {
        let mut t = intel();
        t.begin(1);
        // 22 KB = 352 lines of 64 B. Use stride 64 to spread over all sets
        // (Line i maps to set i % 64), so way conflicts don't fire first:
        // 352 lines over 64 sets is 5..6 per set, under 8 ways.
        let mut n = 0;
        let mut i = 0;
        while n < 352 {
            t.on_first_store(LineId(i), false).unwrap();
            i += 1;
            n += 1;
        }
        assert!(t.on_first_store(LineId(i), false).is_err());
    }

    #[test]
    fn intel_way_conflict_aborts_below_budget() {
        let mut t = intel();
        t.begin(1);
        // 9 store lines mapping to the same set (stride = n_sets = 64).
        for k in 0..8 {
            t.on_first_store(LineId(k * 64), false).unwrap();
        }
        assert_eq!(t.on_first_store(LineId(8 * 64), false), Err(AbortCause::CapacityWrite));
    }

    #[test]
    fn intel_smt_halves_store_capacity() {
        let mut t = intel();
        t.begin(2);
        let mut ok = 0;
        for i in 0.. {
            if t.on_first_store(LineId(i), false).is_err() {
                break;
            }
            ok += 1;
        }
        // 11 KB / 64 B = 176 lines (way conflicts may cut in slightly
        // earlier depending on distribution; sequential lines spread evenly).
        assert_eq!(ok, 176);
    }

    #[test]
    fn zec12_stores_have_no_way_conflicts() {
        let mut t = Tracker::new(TrackerKind::SetAssoc {
            l1_bytes: 96 * 1024,
            ways: 6,
            line_bytes: 256,
            load_total_bytes: 1024 * 1024,
            store_total_bytes: 8 * 1024,
            store_set_assoc: false,
        });
        t.begin(1);
        // All stores to the same set: the gathering store cache is fully
        // associative, only the 8 KB budget (32 lines of 256 B) bounds it.
        for k in 0..32 {
            t.on_first_store(LineId(k * 1024), false).unwrap();
        }
        assert_eq!(t.on_first_store(LineId(32 * 1024), false), Err(AbortCause::CapacityWrite));
    }

    #[test]
    fn byte_budget_counts_union() {
        let mut t = Tracker::new(TrackerKind::ByteBudget { combined_bytes: 1024, line_bytes: 128 });
        t.begin(1);
        // 8 lines of 128 B fill 1 KB.
        for i in 0..4 {
            t.on_first_load(LineId(i), false).unwrap();
        }
        for i in 4..8 {
            t.on_first_store(LineId(i), false).unwrap();
        }
        assert!(t.on_first_load(LineId(8), false).is_err());
        // But re-accessing tracked lines in the other direction is free.
        t.begin(1);
        for i in 0..8 {
            t.on_first_load(LineId(i), false).unwrap();
        }
        assert!(t.on_first_store(LineId(3), true).is_ok());
    }

    #[test]
    fn begin_resets_state() {
        let mut t = tmcam();
        t.begin(1);
        for i in 0..64 {
            t.on_first_load(LineId(i), false).unwrap();
        }
        assert!(t.on_first_load(LineId(64), false).is_err());
        t.begin(1);
        assert!(t.on_first_load(LineId(64), false).is_ok());
        assert_eq!(t.load_lines(), 1);
        assert_eq!(t.store_lines(), 0);
    }

    #[test]
    fn capacity_bytes_reporting() {
        let k = TrackerKind::Tmcam { entries: 64, line_bytes: 128 };
        assert_eq!(k.load_capacity_bytes(), 8192);
        assert_eq!(k.store_capacity_bytes(), 8192);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::config::Platform;
    use proptest::prelude::*;

    /// Feeds a footprint through a stateful tracker in a given interleaved
    /// order; Some(cause) when any access overflows.
    fn run_tracker(
        kind: TrackerKind,
        share: u32,
        accesses: &[(LineId, bool)],
    ) -> Option<AbortCause> {
        let mut t = Tracker::new(kind);
        t.begin(share);
        let mut read = std::collections::HashSet::new();
        let mut written = std::collections::HashSet::new();
        for &(line, is_store) in accesses {
            if is_store {
                if written.insert(line) {
                    if let Err(c) = t.on_first_store(line, read.contains(&line)) {
                        return Some(c);
                    }
                }
            } else if read.insert(line) {
                if let Err(c) = t.on_first_load(line, written.contains(&line)) {
                    return Some(c);
                }
            }
        }
        None
    }

    fn arb_accesses() -> impl Strategy<Value = Vec<(u32, bool)>> {
        // Line IDs drawn from a small range so footprints regularly cross
        // each platform's (share-divided) bounds; at most 600 accesses.
        prop::collection::vec((0u32..4000, any::<bool>()), 0..600)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The order-free static prediction agrees with the stateful
        /// tracker on *whether* a footprint overflows, on all four
        /// platforms, at every SMT share, in whatever order the accesses
        /// arrive. (The read/write attribution of the cause is
        /// order-dependent by design; only is_some is compared.)
        #[test]
        fn prediction_matches_stateful_tracker(
            accesses in arb_accesses(),
            share in 1u32..9,
            platform_idx in 0usize..4,
            reversed in any::<bool>(),
        ) {
            let platform = Platform::ALL[platform_idx];
            let kind = platform.config().tracker;
            let mut ordered: Vec<(LineId, bool)> =
                accesses.iter().map(|&(l, s)| (LineId(l), s)).collect();
            if reversed {
                ordered.reverse();
            }
            let actual = run_tracker(kind, share, &ordered);
            let loads: Vec<LineId> =
                ordered.iter().filter(|&&(_, s)| !s).map(|&(l, _)| l).collect();
            let stores: Vec<LineId> =
                ordered.iter().filter(|&&(_, s)| s).map(|&(l, _)| l).collect();
            let predicted = kind.predict_abort(share, &loads, &stores);
            prop_assert!(
                predicted.is_some() == actual.is_some(),
                "platform {} share {}: predicted {:?}, actual {:?}",
                platform, share, predicted, actual
            );
        }
    }
}
