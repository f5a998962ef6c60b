//! `htm-model` — systematic concurrency model checking for the HTM
//! simulator.
//!
//! Simulation runs and the STAMP ports exercise *statistically likely*
//! interleavings; this crate exercises *all* of them (at atomic-block
//! scheduling-point granularity) for small kernels. It drives the **real**
//! TM engine — the same `TxMemory` conflict protocol, `ThreadCtx` retry
//! ladder, and commit paths every experiment uses — through a cooperative
//! scheduler built on the `htm_core::coop` hook layer, so a model-checking
//! verdict is a statement about the engine that runs the figures, not
//! about a parallel re-implementation.
//!
//! The pieces:
//!
//! * [`sched`] — the [`Explorer`] policy on `htm_runtime`'s cooperative
//!   scheduler: forced-prefix replay, per-step access footprints, and
//!   deadlock/starvation verdicts;
//! * [`kernel`] — loop-free multi-threaded micro-programs (2–3 threads,
//!   2–4 blocks) plus the default suite;
//! * [`explore`](mod@explore) — the schedule enumerator: naive full
//!   branching, DPOR (sleep sets + conflict-driven backtrack sets), and
//!   bounded-preemption modes, with serializability / opacity /
//!   serial-equivalence / deadlock checking on every schedule;
//! * [`trace`] — replayable `htm-model-trace v1` counterexamples.
//!
//! The stock engine passes every kernel in the suite on all platforms and
//! tiers; the three seeded regression bugs (reader-doom skip, epoch-bump
//! skip, early ROT publish) are each caught with a minimal counterexample.

#![deny(unsafe_code)]

pub mod explore;
pub mod kernel;
pub mod sched;
pub mod trace;

pub use explore::{
    diagram, explore, replay_forced, serial_digests, Counterexample, ExploreReport, Mode,
    ModelConfig, SeededBug, Tier, ViolationClass, ALL_TIERS,
};
pub use kernel::{Kernel, Op};
pub use sched::{conflicts, Controller, Decision, Explorer, Footprint, SchedAbort};
pub use trace::ModelTrace;
