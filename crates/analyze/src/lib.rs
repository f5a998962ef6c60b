//! # htm-analyze — post-run analysis passes
//!
//! The simulator's runtime layer answers *what happened* (commit counts,
//! abort ratios, a [`RaceReport`](htm_core::RaceReport) when
//! `SimConfig::sanitize` is on). This crate answers *why*, and turns the
//! answers into actionable lint findings:
//!
//! * [`blame`] — the abort-blame pass: folds the attributed
//!   [`ConflictEvent`](htm_core::ConflictEvent)s of a sanitized run into a
//!   per-line / per-thread-pair [`ConflictMatrix`], and cross-references the
//!   sanitizer's captured segments to detect **false sharing** (threads
//!   conflicting on a line whose word footprints are disjoint),
//! * [`capacity`] — static capacity prediction: replays traced per-block
//!   line footprints against each platform's
//!   [`TrackerKind`](htm_machine::TrackerKind) model (BG/Q L2 directory,
//!   zEC12 LRU-extension vector, Intel L1 eviction, POWER8 TMCAM) to
//!   predict which blocks *cannot* commit in hardware,
//! * [`lint`] — the rule engine behind the `htm-lint` CLI: evaluates the
//!   `race`, `false-sharing`, `capacity-overflow`, `hot-line` and
//!   `excessive-retry` rules over one benchmark cell and gates CI on a
//!   configurable rule subset,
//! * [`json`] — a dependency-free JSON value type (writer + parser) for
//!   machine-readable lint reports.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blame;
pub mod capacity;
pub mod json;
pub mod lint;

pub use blame::{detect_false_sharing, hot_keys, ConflictMatrix, FalseSharing, HotKey};
pub use capacity::{predict_capacity, CapacityCell};
pub use json::Json;
pub use lint::{lint_cell, Gate, Rule, Severity, Thresholds, Violation};
