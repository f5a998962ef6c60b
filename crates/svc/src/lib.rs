//! # htm-svc — sharded KV/order-processing service workload
//!
//! The paper evaluates its four HTM implementations on STAMP kernels;
//! production TM lives in servers handling skewed, bursty request traffic.
//! This crate turns the reproduction into a service-traffic benchmark:
//!
//! * [`zipf`] — deterministic Zipfian key sampler (exponent in permille,
//!   so cell cache keys stay integer-only),
//! * [`traffic`] — the open-loop traffic generator: millions of seeded
//!   client sessions with bursty arrival phases and a mix of point
//!   get/put, 2–8-key cross-shard order transactions, and range scans,
//! * [`store`] — the sharded [`tm_structs::TmHashTable`] store with every
//!   key's node on its own conflict-detection line (so abort blame names
//!   *keys*), plus bounded per-shard request rings handed off with
//!   non-transactional fetch-adds,
//! * [`sched`] — the deterministic round-robin cooperative scheduler
//!   (`htm_runtime::sched::RoundRobin`): bit-identical interleavings (and
//!   therefore bit-identical TSVs) with genuine cross-thread conflicts,
//! * [`workload`] — [`SvcWorkload`], a `stamp::Workload`: shard workers
//!   drain queues through atomic blocks under any fallback tier while a
//!   background compaction thread contends with them; per-request
//!   simulated-cycle latencies land in the run's
//!   [`LatencyHistogram`](htm_runtime::LatencyHistogram).
//!
//! The [`blame_hot_keys`] runner re-executes a cell under the race
//! sanitizer and resolves its conflict lines back to keys — the
//! "which keys are behind the p99 collapse" answer the `svc` experiment
//! prints.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod sched;
pub mod store;
pub mod traffic;
pub mod workload;
pub mod zipf;

use htm_analyze::{hot_keys, ConflictMatrix, HotKey};
use htm_hytm::FallbackPolicy;
use htm_machine::MachineConfig;
use htm_runtime::{RetryPolicy, RunStats, Sim, SimConfig};
use stamp::Scale;

pub use store::Store;
pub use traffic::{Op, Request, SvcParams, Traffic};
pub use workload::SvcWorkload;
pub use zipf::Zipf;

/// Parameters for one experiment cell at `scale` and `skew_permille`.
///
/// `Sim` runs 33 000 sessions per cell, so the default 32-cell grid of
/// `htm-exp run svc` crosses one million simulated client sessions;
/// `Tiny` keeps unit tests and `--smoke` CI fast.
pub fn params_for(scale: Scale, skew_permille: u32) -> SvcParams {
    let (sessions, keys_per_shard, mean_gap) = match scale {
        Scale::Tiny => (800, 128, 500),
        Scale::Sim => (33_000, 512, 600),
        Scale::Full => (250_000, 2048, 600),
    };
    SvcParams { sessions, keys_per_shard, skew_permille, mean_gap, ..Default::default() }
}

/// Brutal-contention parameters for the lint grid: a tiny key space under
/// extreme skew, so the hot-line and excessive-retry rules have something
/// to fire on.
pub fn lint_params() -> SvcParams {
    SvcParams {
        sessions: 1500,
        keys_per_shard: 2,
        skew_permille: 4000,
        mean_gap: 120,
        compaction_batch: 4,
        ..Default::default()
    }
}

/// Worker threads per cell: one per shard plus the compaction thread.
pub fn threads_for(params: &SvcParams) -> u32 {
    params.shards + 1
}

/// Runs one svc cell under the happens-before race sanitizer and resolves
/// its conflict lines to hot keys. Returns the sanitized run's stats and
/// the keys, hottest first.
pub fn blame_hot_keys(
    params: &SvcParams,
    machine: &MachineConfig,
    policy: RetryPolicy,
    seed: u64,
    fallback: FallbackPolicy,
) -> (RunStats, Vec<HotKey>) {
    use stamp::Workload;
    let w = SvcWorkload::new(*params, seed);
    let mem = w.mem_words().max(1 << 20);
    let sim = Sim::new(
        SimConfig::new(machine.clone()).mem_words(mem).seed(seed).sanitize(true).fallback(fallback),
    );
    w.setup(&sim);
    let threads = threads_for(params);
    w.prepare(threads);
    let stats = sim.run_parallel(threads, policy, |ctx| w.work(ctx));
    w.verify(&sim);
    let wpl = machine.granularity.max(8) / 8;
    let key_lines = w.store().key_lines(wpl);
    let matrix = ConflictMatrix::from_stats(&stats);
    let hot = hot_keys(&matrix, &key_lines);
    (stats, hot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_machine::Platform;

    #[test]
    fn blame_names_the_zipf_head() {
        let params = SvcParams {
            sessions: 400,
            keys_per_shard: 32,
            skew_permille: 1400,
            mean_gap: 150,
            ..Default::default()
        };
        let machine = Platform::IntelCore.config();
        let (stats, hot) =
            blame_hot_keys(&params, &machine, RetryPolicy::default(), 9, FallbackPolicy::Lock);
        assert!(stats.race.is_some(), "sanitizer ran");
        assert!(!hot.is_empty(), "skewed traffic must surface hot keys");
        // The Zipf head (rank 0 = key 0) must be among the hottest few.
        assert!(
            hot.iter().take(4).any(|h| h.key < 4),
            "expected a head key in the top blame entries, got {:?}",
            &hot[..hot.len().min(4)]
        );
    }

    #[test]
    fn grid_scale_crosses_a_million_sessions() {
        // 4 platforms x 4 tiers x 2 skews at Sim scale.
        let per_cell = params_for(Scale::Sim, 600).sessions;
        assert!(32 * per_cell >= 1_000_000);
    }
}
