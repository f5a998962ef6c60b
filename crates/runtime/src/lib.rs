//! # htm-runtime — transaction engine and retry mechanism
//!
//! The execution layer of the HTM comparison reproduction (Nakaike et al.,
//! ISCA 2015):
//!
//! * [`tx`] — the per-thread transaction engine and the [`Tx`] access
//!   handle benchmark code uses inside atomic blocks,
//! * [`ctx`] — [`ThreadCtx`] with the Figure-1 retry mechanism (three
//!   tunable retry counters + global-lock fallback), Blue Gene/Q's
//!   system-provided single-counter mechanism with adaptation and lazy
//!   subscription, the hybrid-TM fallback tiers ([`FallbackPolicy`]:
//!   NOrec-style software transactions and POWER8 rollback-only commits,
//!   from `htm-hytm`), and the Section-6 processor-specific interfaces
//!   (HLE, constrained transactions, rollback-only transactions),
//! * [`lock`] — the global fallback lock, living in simulated memory so
//!   lock acquisitions abort subscribed transactions through the ordinary
//!   conflict mechanism,
//! * [`faults`] — deterministic fault injection ([`FaultPlan`]) forcing the
//!   rare branches of the retry machine (spurious aborts, capacity storms,
//!   speculation-ID starvation, delayed lock release) on demand,
//! * [`executor`] — [`Sim`], building a platform instance and running
//!   workloads sequentially (the speed-up baseline) or on worker threads
//!   (a cooperative `Sim`'s workers run as fibers),
//! * [`stats`] — speed-ups, abort-ratio breakdowns (Figure 3),
//!   serialization ratios,
//! * [`trace`] — the footprint tracer behind Figures 10 and 11,
//! * [`certify`](mod@certify) — the runtime correctness certifier:
//!   committed atomic blocks log their read/write sets and commit order,
//!   and a post-run sweep checks conflict-serializability and read
//!   freshness ([`CertifyReport`]),
//! * [`replay`] — deterministic record/replay: `Sim::record_parallel`
//!   captures a [`ScheduleTrace`] of every scheduling decision and
//!   `Sim::replay` re-executes it bit-identically,
//! * [`sched`] — the cooperative scheduler: one worker runs at a time
//!   through the `htm_core::coop` hooks, and a [`Policy`](sched::Policy)
//!   picks each grant ([`RoundRobin`](sched::RoundRobin) for the svc
//!   workload, the model checker's explorer in `htm-model`),
//! * `fiber` (x86_64 Linux) — stackful fibers: a cooperative run's workers
//!   on the calling thread, so a scheduler grant is a register switch; the
//!   crate's only unsafe code,
//! * [`sanitize`] — the happens-before race sanitizer
//!   (`SimConfig::sanitize`): per-thread vector-clocked access capture,
//!   checked post-run by [`htm_core::detect_races`] into a
//!   [`RaceReport`](htm_core::RaceReport) on [`RunStats`].
//!
//! ## Example: a transactional counter on every platform
//!
//! ```
//! use htm_machine::Platform;
//! use htm_runtime::{RetryPolicy, Sim};
//!
//! for platform in Platform::ALL {
//!     let sim = Sim::of(platform.config());
//!     let counter = sim.alloc().alloc(1);
//!     let stats = sim.run_parallel(2, RetryPolicy::default(), |ctx| {
//!         for _ in 0..100 {
//!             ctx.atomic(|tx| {
//!                 let v = tx.load(counter)?;
//!                 tx.store(counter, v + 1)
//!             });
//!         }
//!     });
//!     assert_eq!(sim.read_word(counter), 200);
//!     assert_eq!(stats.committed_blocks(), 200);
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod certify;
pub mod ctx;
pub mod executor;
pub mod faults;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[allow(unsafe_code)]
pub mod fiber;
mod line_set;
pub mod lock;
pub mod replay;
pub mod sanitize;
pub mod sched;
pub mod stats;
pub mod trace;
pub mod tx;

pub use certify::certify;
pub use ctx::{RetryPolicy, ThreadCtx, WatchdogConfig, LOCK_HELD_ABORT};
pub use executor::{Sim, SimConfig};
pub use faults::FaultPlan;
pub use htm_core::CertifyReport;
pub use htm_hytm::FallbackPolicy;
pub use lock::GlobalLock;
pub use replay::ScheduleTrace;
pub use stats::{percentile, LatencyHistogram, RunStats, ThreadStats};
pub use trace::SeqTracer;
pub use tx::{ExecMode, Tx};
