//! # htm-apps — processor-specific feature applications
//!
//! The Section-6 evaluations of *Nakaike et al., ISCA 2015*:
//!
//! * [`clq`] — the zEC12 constrained-transaction experiment: a concurrent
//!   linked queue in four implementations (Michael–Scott lock-free,
//!   no-retry TM, tuned-retry TM, constrained TM), Figure 6;
//! * [`tls`] — ordered thread-level speculation on POWER8 with and without
//!   the suspend/resume instructions, on milc- and sphinx-like loop
//!   kernels, Figures 8 and 9.
//!
//! (The Intel HLE comparison of Figure 7 needs no extra application code:
//! it runs the STAMP suite through `ThreadCtx::atomic_hle`.)

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod clq;
pub mod tls;

pub use clq::{run_queue_bench, ConcurrentQueue, QueueBenchResult, QueueImpl};
pub use tls::{TlsKernel, TlsLoop};
