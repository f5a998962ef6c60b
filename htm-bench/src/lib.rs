//! # htm-bench — host-performance benchmark of the HTM simulator
//!
//! Four fixed workloads ([`workload::Workload`]) are run for a fixed time
//! each and timed from outside, through the simulator's public functions:
//! end-to-end metrics per workload ([`run::WorkloadRun::end_to_end`]),
//! per-layer phase times, counts and probes in a traced run
//! ([`run::WorkloadRun::per_layer`], [`probes`]), and a digest of every
//! deterministic cell's simulated results, checked against the committed
//! `expected/seed42.txt` so a speed-up cannot hide a behaviour change.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod probes;
pub mod report;
pub mod run;
pub mod trace;
pub mod workload;
