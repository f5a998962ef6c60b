//! # htm-core — simulation substrate for the HTM comparison study
//!
//! This crate provides the low-level substrate on which the workspace's HTM
//! emulator is built, reproducing the measurement infrastructure of
//! *"Quantitative Comparison of Hardware Transactional Memory for Blue
//! Gene/Q, zEnterprise EC12, Intel Core, and POWER8"* (Nakaike et al.,
//! ISCA 2015):
//!
//! * [`addr`] — word-granular addressing and conflict-detection geometry,
//! * [`mem`] — the simulated shared memory: word arena, line-granular
//!   reader/writer tracking, and the doom protocol through which conflicting
//!   accesses abort transactions (the simulated analogue of detecting
//!   conflicts through the cache coherence protocol, Section 2 of the paper),
//! * [`alloc`] — non-transactional allocation of simulated memory,
//! * [`abort`] — abort causes and the Figure-3 abort categories,
//! * [`cost`] — the simulated-cycle cost model and per-thread clock,
//! * [`hash`] — the integer-key hasher behind per-transaction sets,
//! * [`hb`] — vector-clock happens-before machinery for the race sanitizer.
//!
//! Higher layers add platform models (`htm-machine`), the transaction engine
//! and Figure-1 retry mechanism (`htm-runtime`), transactional data
//! structures (`tm-structs`), the STAMP port (`stamp`) and the experiment
//! engine (`htm-exp`).
//!
//! ## Example
//!
//! ```
//! use htm_core::{Geometry, TxMemory, WordAddr, SlotId, ConflictPolicy};
//!
//! // A 4 KiB simulated memory with 64-byte conflict-detection lines.
//! let mem = TxMemory::new(512, Geometry::new(64));
//! let addr = WordAddr(8);
//! mem.write_word(addr, 7);
//!
//! // A transaction on hardware-thread slot 0 reads the word's line.
//! let slot = SlotId(0);
//! mem.begin_slot(slot);
//! mem.tx_read_line(slot, mem.line_of(addr), ConflictPolicy::RequesterWins)?;
//! assert_eq!(mem.read_word(addr), 7);
//! mem.start_commit(slot).unwrap();
//! mem.clear_reader(mem.line_of(addr), slot);
//! mem.finish_slot(slot);
//! # Ok::<(), htm_core::AbortCause>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod abort;
pub mod addr;
pub mod alloc;
pub mod coop;
pub mod cost;
pub mod error;
pub mod hash;
pub mod hb;
pub mod mem;
pub mod verify;

pub use abort::{Abort, AbortCategory, AbortCause, TxResult};
pub use addr::{Geometry, LineId, WordAddr, WORD_BYTES};
pub use alloc::{SimAlloc, ThreadAlloc};
pub use coop::{CoopHooks, CoopPoint};
pub use cost::{Clock, CostModel};
pub use error::{panic_message, SimError, SimResult};
pub use hash::{FastMap, FastSet};
pub use hb::{
    detect_races, Access, ConflictEvent, DataRace, RaceAccess, RaceReport, Segment, SyncClock,
    VectorClock,
};
pub use mem::{ConflictPolicy, DoomOutcome, SlotId, TxMemory, MAX_SLOTS};
pub use verify::{
    check_opacity, AbortedAttempt, CertifyReport, EventKind, OpacityReport, OpacityViolation,
    TxEvent, Violation,
};

/// Reinterprets an `f64` as a simulated memory word.
///
/// Simulated memory is typed as `u64` words; floating-point benchmark data
/// (kmeans centroids, bayes scores, yada coordinates) is stored bit-exactly.
#[inline]
pub fn f64_to_word(v: f64) -> u64 {
    v.to_bits()
}

/// Inverse of [`f64_to_word`].
#[inline]
pub fn word_to_f64(w: u64) -> f64 {
    f64::from_bits(w)
}

/// Reinterprets an `i64` as a simulated memory word (two's complement).
#[inline]
pub fn i64_to_word(v: i64) -> u64 {
    v as u64
}

/// Inverse of [`i64_to_word`].
#[inline]
pub fn word_to_i64(w: u64) -> i64 {
    w as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_round_trip() {
        for v in [0.0, -0.0, 1.5, -3.25e300, f64::INFINITY, f64::MIN_POSITIVE] {
            assert_eq!(word_to_f64(f64_to_word(v)).to_bits(), v.to_bits());
        }
        assert!(word_to_f64(f64_to_word(f64::NAN)).is_nan());
    }

    #[test]
    fn i64_round_trip() {
        for v in [0i64, 1, -1, i64::MIN, i64::MAX] {
            assert_eq!(word_to_i64(i64_to_word(v)), v);
        }
    }
}
