//! ssca2 — graph adjacency construction (STAMP `ssca2`, kernel 1).
//!
//! Millions of *tiny* transactions, each appending one directed edge to a
//! node's adjacency array: two or three accesses per transaction. The
//! benchmark stresses per-transaction fixed costs and exposes two platform
//! findings from the paper:
//!
//! * Blue Gene/Q's speculation-ID pool is churned by the short transactions
//!   — ID reclamation becomes the bottleneck (Sections 5.1 and 5.3),
//! * the streaming inner loop misses the last-level cache; the desktop
//!   Intel Core machine's weaker concurrent memory performance capped its
//!   scaling even with a 1% abort ratio (Section 5.1).

use std::sync::OnceLock;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use htm_core::WordAddr;
use htm_runtime::{Sim, ThreadCtx};

use crate::common::{partition, Scale, Workload};

/// ssca2 configuration.
#[derive(Clone, Copy, Debug)]
pub struct Ssca2Config {
    /// Number of graph nodes.
    pub n_nodes: u32,
    /// Number of directed edges to insert.
    pub n_edges: u32,
    /// Adjacency capacity per node.
    pub max_degree: u32,
}

impl Ssca2Config {
    /// Configuration for a scale.
    pub fn at(scale: Scale) -> Ssca2Config {
        match scale {
            Scale::Tiny => Ssca2Config { n_nodes: 64, n_edges: 512, max_degree: 32 },
            Scale::Sim => Ssca2Config { n_nodes: 2048, n_edges: 32_768, max_degree: 64 },
            Scale::Full => Ssca2Config { n_nodes: 32_768, n_edges: 524_288, max_degree: 64 },
        }
    }
}

struct Shared {
    /// Per-node adjacency counts (`n_nodes` words).
    counts: WordAddr,
    /// Per-node adjacency storage (`n_nodes × max_degree` words).
    adj: WordAddr,
    /// Edge list `(u, v)` packed as `u << 32 | v` (`n_edges` words).
    edges: WordAddr,
}

/// The ssca2 workload.
pub struct Ssca2 {
    cfg: Ssca2Config,
    seed: u64,
    shared: OnceLock<Shared>,
}

impl Ssca2 {
    /// Creates an ssca2 workload.
    pub fn new(cfg: Ssca2Config, seed: u64) -> Ssca2 {
        Ssca2 { cfg, seed, shared: OnceLock::new() }
    }
}

impl Workload for Ssca2 {
    fn name(&self) -> String {
        "ssca2".to_string()
    }

    fn mem_words(&self) -> u32 {
        self.cfg.n_nodes * (self.cfg.max_degree + 1) + self.cfg.n_edges + (1 << 16)
    }

    fn setup(&self, sim: &Sim) {
        let cfg = self.cfg;
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut ctx = sim.seq_ctx();
        let counts = ctx.alloc(cfg.n_nodes);
        let adj = ctx.alloc(cfg.n_nodes * cfg.max_degree);
        let edges = ctx.alloc(cfg.n_edges);
        // Degree-bounded random edge generation: count per node capped so
        // the adjacency array never overflows.
        let mut degree = vec![0u32; cfg.n_nodes as usize];
        for e in 0..cfg.n_edges {
            let u = loop {
                let u = rng.gen_range(0..cfg.n_nodes);
                if degree[u as usize] < cfg.max_degree {
                    break u;
                }
            };
            degree[u as usize] += 1;
            let v = rng.gen_range(0..cfg.n_nodes);
            sim.write_word(edges.offset(e), ((u as u64) << 32) | v as u64);
        }
        self.shared.set(Shared { counts, adj, edges }).ok().expect("setup ran twice");
    }

    fn work(&self, ctx: &mut ThreadCtx) {
        let cfg = self.cfg;
        let sh = self.shared.get().expect("setup not run");
        let range = partition(cfg.n_edges as u64, ctx.thread_id(), ctx.num_threads());
        for e in range {
            // Streaming read of the edge list: misses the cache hierarchy
            // (the paper's concurrent-memory-access bottleneck on Intel).
            let packed = ctx.read_word(sh.edges.offset(e as u32));
            ctx.charge_miss();
            ctx.tick(40); // per-edge kernel arithmetic
            let u = (packed >> 32) as u32;
            let v = (packed & 0xffff_ffff) as u32;
            ctx.atomic(|tx| {
                let c = tx.load(sh.counts.offset(u))?;
                tx.store(sh.counts.offset(u), c + 1)?;
                tx.store(sh.adj.offset(u * cfg.max_degree + c as u32), v as u64 + 1)?;
                Ok(())
            });
        }
    }

    fn verify(&self, sim: &Sim) {
        let cfg = self.cfg;
        let sh = self.shared.get().expect("setup not run");
        let mut total = 0u64;
        for n in 0..cfg.n_nodes {
            let c = sim.read_word(sh.counts.offset(n));
            assert!(c <= cfg.max_degree as u64, "node {n} over-full: {c}");
            total += c;
            // Every filled slot holds a valid (offset-by-one) node id; every
            // slot beyond the count is untouched.
            for s in 0..cfg.max_degree as u64 {
                let slot = sim.read_word(sh.adj.offset(n * cfg.max_degree + s as u32));
                if s < c {
                    assert!(
                        slot >= 1 && slot <= cfg.n_nodes as u64,
                        "node {n} slot {s} corrupt: {slot}"
                    );
                } else {
                    assert_eq!(slot, 0, "node {n} slot {s} written past count");
                }
            }
        }
        assert_eq!(total, cfg.n_edges as u64, "edges lost or duplicated");
    }

    /// Each node's adjacency *multiset* is schedule-independent (only the
    /// insertion order inside a node varies with the commit schedule), so
    /// hashing the sorted per-node slots yields an order-normalized digest
    /// the differential oracle can compare across runs.
    fn result_digest(&self, sim: &Sim) -> Option<u64> {
        let cfg = self.cfg;
        let sh = self.shared.get().expect("setup not run");
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x100_0000_01b3);
        for n in 0..cfg.n_nodes {
            let c = sim.read_word(sh.counts.offset(n));
            let mut slots: Vec<u64> = (0..c as u32)
                .map(|s| sim.read_word(sh.adj.offset(n * cfg.max_degree + s)))
                .collect();
            slots.sort_unstable();
            mix(c);
            for v in slots {
                mix(v);
            }
        }
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{measure, run_parallel, BenchParams};
    use htm_machine::Platform;

    #[test]
    fn ssca2_runs_and_verifies_on_all_platforms() {
        for p in Platform::ALL {
            let r = measure(
                &|| Ssca2::new(Ssca2Config::at(Scale::Tiny), 11),
                &p.config(),
                &BenchParams { threads: 2, scale: Scale::Tiny, ..Default::default() },
            );
            assert_eq!(
                r.stats.committed_blocks(),
                Ssca2Config::at(Scale::Tiny).n_edges as u64,
                "{p}"
            );
        }
    }

    #[test]
    fn bgq_burns_spec_id_wait_cycles_on_short_txs() {
        let stats = run_parallel(
            &|| Ssca2::new(Ssca2Config::at(Scale::Tiny), 11),
            &Platform::BlueGeneQ.config(),
            &BenchParams { threads: 4, seed: 11, ..Default::default() },
        );
        let waits: u64 = stats.threads.iter().map(|t| t.spec_id_wait_cycles).sum();
        assert!(waits > 0, "512 short transactions must exhaust 128 spec IDs");
    }
}
