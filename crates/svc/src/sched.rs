//! The deterministic round-robin scheduler svc workers run under (see
//! [`htm_runtime::sched`]). The runtime builds and enters it for every run
//! of a cooperative `Sim`; this re-export serves the `htm-bench` hand-off
//! probe, which enters it on OS threads of its own.

pub use htm_runtime::sched::RoundRobin;
