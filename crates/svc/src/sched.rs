//! The deterministic round-robin scheduler svc workers run under (see
//! [`htm_runtime::sched`]).

pub use htm_runtime::sched::RoundRobin;
