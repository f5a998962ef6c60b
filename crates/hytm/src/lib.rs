//! # htm-hytm — hybrid-TM fallback policies for the retry mechanism
//!
//! Nakaike et al.'s common retry mechanism (Figure 1) falls back to a
//! single global lock once its retry counters are exhausted, serializing
//! every fallback execution. This crate provides the building blocks for
//! two *concurrent* fallback tiers, selected per run through
//! [`FallbackPolicy`]:
//!
//! * **`Stm`** — a NOrec-style software transaction ("No Ownership
//!   Records", Dalessandro et al., PPoPP 2010): reads are invisible and
//!   value-logged in a [`SoftLog`], writes are buffered privately, and the
//!   commit revalidates the whole read log under a brief hold of the global
//!   sequence lock before writing back. Hardware transactions coexist with
//!   software commits through the existing lock *subscription*: the lock
//!   word doubles as the NOrec global sequence number (its acquisition
//!   counter advances on every software commit), so a software commit dooms
//!   every subscribed hardware transaction — the HW side of a HW/SW
//!   conflict always aborts, matching the two-counter hybrid NOrec schemes.
//! * **`Rot`** — a POWER8 rollback-only transaction used as a
//!   capacity-stretching intermediate tier: loads are untracked by the
//!   TMCAM (writes-only capacity), so the runtime value-logs them in a
//!   [`SoftLog`] and revalidates at commit under the same sequence lock,
//!   restoring the serializability the hardware no longer guarantees.
//!
//! The execution machinery itself lives in `htm-runtime` (the engine owns
//! the write buffer, cycle accounting, certification and record/replay);
//! this crate holds the policy type, the read-log/validation core both
//! tiers share, and the tuning constants, so it depends only on
//! `htm-core`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adapt;

use std::fmt;

use htm_core::{FastMap, WordAddr};

/// What the retry mechanism falls back to when its retry counters are
/// exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum FallbackPolicy {
    /// The paper's irrevocable global-lock fallback (the default).
    #[default]
    Lock,
    /// NOrec-style software transactions: concurrent instrumented
    /// execution, value-based validation, commit under the sequence lock.
    Stm,
    /// POWER8 rollback-only transactions with software read validation; on
    /// platforms without rollback-only support this degrades to
    /// [`Lock`](FallbackPolicy::Lock).
    Rot,
    /// The `htm-adapt` online contention manager: every block picks its
    /// own tier (hardware → capacity-spilled hardware → rollback-only →
    /// software → lock) from live abort-cause feedback, with hysteresis,
    /// capped randomized backoff and a hard starvation bound (see
    /// [`adapt::AdaptiveController`]).
    Adaptive,
}

impl FallbackPolicy {
    /// The *static* policies, in CLI/report order. [`Adaptive`] is
    /// deliberately excluded: the static grid (specs, golden files, lint
    /// cells) iterates this array, and the adaptive policy gets its own
    /// spec comparing against every member.
    ///
    /// [`Adaptive`]: FallbackPolicy::Adaptive
    pub const ALL: [FallbackPolicy; 3] =
        [FallbackPolicy::Lock, FallbackPolicy::Stm, FallbackPolicy::Rot];

    /// Short stable key used in cache keys, TSV columns and CLI flags.
    pub fn key(self) -> &'static str {
        match self {
            FallbackPolicy::Lock => "lock",
            FallbackPolicy::Stm => "stm",
            FallbackPolicy::Rot => "rot",
            FallbackPolicy::Adaptive => "adaptive",
        }
    }

    /// Parses a CLI spelling (the inverse of [`FallbackPolicy::key`]).
    pub fn parse(s: &str) -> Option<FallbackPolicy> {
        match s {
            "lock" => Some(FallbackPolicy::Lock),
            "stm" => Some(FallbackPolicy::Stm),
            "rot" => Some(FallbackPolicy::Rot),
            "adaptive" => Some(FallbackPolicy::Adaptive),
            _ => None,
        }
    }

    /// Whether runs under this policy can commit blocks through a software
    /// validation tier (STM, ROT or the adaptive ladder), and therefore
    /// need the hybrid write epoch installed for consistent software
    /// snapshots.
    pub fn uses_software_commits(self) -> bool {
        !matches!(self, FallbackPolicy::Lock)
    }
}

impl fmt::Display for FallbackPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// Simulated-cycle costs of the software fallback tiers.
///
/// The STM numbers follow the instrumentation overheads reported for
/// NOrec-class systems (a handful of instructions per barrier, a
/// per-location compare on validation); they are deliberately coarse — the
/// experiment compares fallback *policies* under one consistent model, not
/// absolute STM performance.
pub mod cost {
    /// Setting up a software transaction (checkpoint + log reset).
    pub const STM_BEGIN: u64 = 20;
    /// Per-load instrumentation on top of the plain load cost.
    pub const STM_LOAD_EXTRA: u64 = 6;
    /// Per-store instrumentation (write-map insert) on top of the store.
    pub const STM_STORE_EXTRA: u64 = 10;
    /// Re-checking one logged location during validation.
    pub const STM_VALIDATE_PER_WORD: u64 = 2;
    /// Fixed commit overhead (lock handshake + write-back setup).
    pub const STM_COMMIT_OVERHEAD: u64 = 60;
    /// Extra commit work for a rollback-only transaction (its stores are
    /// already in hardware; only the read log is revalidated in software).
    pub const ROT_COMMIT_OVERHEAD: u64 = 30;
}

/// How many times a software transaction retries after a failed commit
/// validation before escalating to the irrevocable global-lock path.
pub const STM_COMMIT_RETRIES: u32 = 8;
/// How many times the rollback-only tier retries (hardware aborts and
/// validation failures combined) before falling through to the next tier.
pub const ROT_RETRIES: u32 = 4;
/// A software transaction revalidates its whole read log every this many
/// reads (and whenever the sequence lock's acquisition counter moved),
/// bounding how long it can run on a stale snapshot (opacity).
pub const REVALIDATE_PERIOD: u32 = 64;
/// Upper bound on instrumented accesses per software attempt; past it the
/// attempt fails validation and the retry machine escalates. Keeps a
/// pathological body from growing an unbounded log.
pub const STM_MAX_ACCESSES: u32 = 1 << 20;

/// Value-based read log: the NOrec read set.
///
/// Records the *first* value observed per address (later reads of the same
/// address are served consistently by the caller: either from the write
/// map or from memory, revalidated here). [`SoftLog::validate`] re-reads
/// every logged address through the caller's closure and succeeds only if
/// all values still match — equivalent to having read an atomic snapshot.
#[derive(Debug, Default)]
pub struct SoftLog {
    entries: Vec<(WordAddr, u64)>,
    index: FastMap<WordAddr, u64>,
}

impl SoftLog {
    /// Creates an empty log.
    pub fn new() -> SoftLog {
        SoftLog::default()
    }

    /// Clears the log for a new attempt (keeps allocations).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
    }

    /// Records the first observed value at `addr`; returns the value every
    /// later read of `addr` must keep observing (the logged first value).
    pub fn record(&mut self, addr: WordAddr, value: u64) -> u64 {
        match self.index.entry(addr) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(value);
                self.entries.push((addr, value));
                value
            }
        }
    }

    /// The logged value at `addr`, if the address was ever read.
    pub fn get(&self, addr: WordAddr) -> Option<u64> {
        self.index.get(&addr).copied()
    }

    /// Number of distinct addresses logged.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The logged `(address, first value)` pairs, in first-read order.
    pub fn entries(&self) -> &[(WordAddr, u64)] {
        &self.entries
    }

    /// Re-reads every logged address through `read` and checks the value
    /// still matches; returns the first mismatching address, or `None` if
    /// the log is consistent (an atomic snapshot).
    pub fn validate(&self, mut read: impl FnMut(WordAddr) -> u64) -> Option<WordAddr> {
        self.entries.iter().find(|&&(addr, v)| read(addr) != v).map(|&(addr, _)| addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_keys_round_trip() {
        for p in FallbackPolicy::ALL {
            assert_eq!(FallbackPolicy::parse(p.key()), Some(p));
            assert_eq!(p.to_string(), p.key());
        }
        assert_eq!(FallbackPolicy::parse("hle"), None);
        assert_eq!(FallbackPolicy::default(), FallbackPolicy::Lock);
    }

    #[test]
    fn adaptive_key_round_trips_but_stays_off_the_static_grid() {
        let a = FallbackPolicy::Adaptive;
        assert_eq!(FallbackPolicy::parse(a.key()), Some(a));
        assert_eq!(a.to_string(), "adaptive");
        assert!(!FallbackPolicy::ALL.contains(&a), "static grid must not grow");
        assert!(a.uses_software_commits());
        assert!(!FallbackPolicy::Lock.uses_software_commits());
        assert!(FallbackPolicy::Stm.uses_software_commits());
        assert!(FallbackPolicy::Rot.uses_software_commits());
    }

    #[test]
    fn soft_log_dedupes_first_values() {
        let mut log = SoftLog::new();
        assert_eq!(log.record(WordAddr(8), 5), 5);
        assert_eq!(log.record(WordAddr(8), 9), 5, "first value wins");
        assert_eq!(log.record(WordAddr(16), 7), 7);
        assert_eq!(log.len(), 2);
        assert_eq!(log.entries(), &[(WordAddr(8), 5), (WordAddr(16), 7)]);
        assert_eq!(log.get(WordAddr(8)), Some(5));
        assert_eq!(log.get(WordAddr(24)), None);
    }

    #[test]
    fn validation_finds_the_changed_address() {
        let mut log = SoftLog::new();
        log.record(WordAddr(1), 10);
        log.record(WordAddr(2), 20);
        assert_eq!(log.validate(|a| if a == WordAddr(1) { 10 } else { 20 }), None);
        assert_eq!(
            log.validate(|a| if a == WordAddr(2) { 99 } else { 10 }),
            Some(WordAddr(2)),
            "mismatch at the changed address"
        );
    }

    #[test]
    fn clear_resets_but_reuses() {
        let mut log = SoftLog::new();
        log.record(WordAddr(1), 1);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.record(WordAddr(1), 2), 2, "stale entries are gone");
    }
}
