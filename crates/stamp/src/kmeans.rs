//! kmeans — iterative K-means clustering (STAMP `kmeans`).
//!
//! Each worker assigns its partition of points to the nearest old centroid,
//! then updates the chosen cluster's accumulator (length + per-feature sum)
//! in one transaction — the paper's archetypal *small-transaction,
//! moderate-contention* benchmark. Two paper findings live here:
//!
//! * **False conflicts from misalignment** (Section 4): the original STAMP
//!   code pads clusters but does not align them to cache-line boundaries, so
//!   two clusters can share a conflict-detection line. The
//!   [`KmeansVariant::Original`] layout reproduces that; `Modified` aligns
//!   each accumulator to the platform's conflict-detection granularity.
//! * **Prefetcher-induced conflicts** (Section 5.1): on Intel Core, the
//!   sequential walk over one cluster's features prefetches the first line
//!   of the *neighbouring* cluster into the transactional read set, so a
//!   concurrent update of that neighbour aborts the transaction.
//!
//! `high`/`low` contention mirrors STAMP's `kmeans-high`/`-low`: fewer
//! clusters mean more threads updating the same accumulator.

use std::sync::OnceLock;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use htm_core::WordAddr;
use htm_runtime::{Sim, ThreadCtx};

use crate::common::{partition, PhaseBarrier, Scale, Workload};

/// Original (unaligned) vs modified (line-aligned) cluster layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KmeansVariant {
    /// STAMP 0.9.10 layout: padded but not line-aligned.
    Original,
    /// The paper's fix: accumulators aligned to the conflict-detection
    /// granularity.
    Modified,
}

/// kmeans configuration.
#[derive(Clone, Copy, Debug)]
pub struct KmeansConfig {
    /// Number of points.
    pub n_points: u32,
    /// Features per point.
    pub n_features: u32,
    /// Number of clusters (contention knob: fewer = hotter).
    pub n_clusters: u32,
    /// Assignment/update iterations.
    pub iterations: u32,
    /// Cluster-accumulator layout.
    pub variant: KmeansVariant,
    /// Line size used for the modified variant's alignment.
    pub align_bytes: u32,
}

impl KmeansConfig {
    /// High-contention configuration (STAMP `kmeans-high`).
    pub fn high(scale: Scale, variant: KmeansVariant, align_bytes: u32) -> KmeansConfig {
        let (n_points, n_features, n_clusters, iterations) = match scale {
            Scale::Tiny => (256, 4, 4, 2),
            Scale::Sim => (4096, 16, 12, 3),
            Scale::Full => (65536, 32, 15, 4),
        };
        KmeansConfig { n_points, n_features, n_clusters, iterations, variant, align_bytes }
    }

    /// Low-contention configuration (STAMP `kmeans-low`).
    pub fn low(scale: Scale, variant: KmeansVariant, align_bytes: u32) -> KmeansConfig {
        let mut c = KmeansConfig::high(scale, variant, align_bytes);
        c.n_clusters = match scale {
            Scale::Tiny => 12,
            Scale::Sim => 36,
            Scale::Full => 40,
        };
        c
    }
}

struct Shared {
    /// Points: `n_points × n_features` f64 words, row-major.
    points: WordAddr,
    /// Old centroids (read-only during a pass): `n_clusters × n_features`.
    old_centers: WordAddr,
    /// Accumulator record addresses, one per cluster (layout per variant).
    acc: Vec<WordAddr>,
}

/// The kmeans workload.
pub struct Kmeans {
    cfg: KmeansConfig,
    seed: u64,
    shared: OnceLock<Shared>,
    barrier: PhaseBarrier,
}

/// Accumulator record: `[len, sum_0, …, sum_{D-1}]`.
const ACC_LEN: u32 = 0;
const ACC_SUMS: u32 = 1;

impl Kmeans {
    /// Creates a kmeans workload.
    pub fn new(cfg: KmeansConfig, seed: u64) -> Kmeans {
        Kmeans { cfg, seed, shared: OnceLock::new(), barrier: PhaseBarrier::new() }
    }

    fn acc_words(&self) -> u32 {
        1 + self.cfg.n_features
    }
}

impl Workload for Kmeans {
    fn name(&self) -> String {
        format!(
            "kmeans-{} ({})",
            if self.cfg.n_clusters <= 16 { "high" } else { "low" },
            match self.cfg.variant {
                KmeansVariant::Original => "original",
                KmeansVariant::Modified => "modified",
            }
        )
    }

    fn mem_words(&self) -> u32 {
        let d = self.cfg.n_features;
        self.cfg.n_points * d + self.cfg.n_clusters * (d + 8) * 64 + (1 << 16)
    }

    fn setup(&self, sim: &Sim) {
        let cfg = self.cfg;
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut ctx = sim.seq_ctx();
        let d = cfg.n_features;
        let points = ctx.alloc(cfg.n_points * d);
        for i in 0..cfg.n_points * d {
            sim.write_word(points.offset(i), htm_core::f64_to_word(rng.gen_range(-10.0..10.0)));
        }
        let old_centers = ctx.alloc(cfg.n_clusters * d);
        for k in 0..cfg.n_clusters {
            // Initialize centroids from the first points (standard K-means
            // seeding in STAMP).
            for j in 0..d {
                let v = sim.read_word(points.offset(k * d + j));
                sim.write_word(old_centers.offset(k * d + j), v);
            }
        }
        let acc_words = self.acc_words();
        let mut acc = Vec::with_capacity(cfg.n_clusters as usize);
        match cfg.variant {
            KmeansVariant::Original => {
                // Contiguous records with one word of padding, deliberately
                // *not* line-aligned: neighbouring clusters share lines.
                let base = ctx.alloc(cfg.n_clusters * (acc_words + 1) + 1).offset(1);
                for k in 0..cfg.n_clusters {
                    acc.push(base.offset(k * (acc_words + 1)));
                }
            }
            KmeansVariant::Modified => {
                for _ in 0..cfg.n_clusters {
                    acc.push(ctx.alloc_aligned(acc_words, cfg.align_bytes.max(64)));
                }
            }
        }
        self.shared.set(Shared { points, old_centers, acc }).ok().expect("setup ran twice");
    }

    fn prepare(&self, threads: u32) {
        self.barrier.size_for(threads);
    }

    fn work(&self, ctx: &mut ThreadCtx) {
        let cfg = self.cfg;
        let sh = self.shared.get().expect("setup not run");
        let d = cfg.n_features as usize;
        let k = cfg.n_clusters as usize;
        let range = partition(cfg.n_points as u64, ctx.thread_id(), ctx.num_threads());

        for _iter in 0..cfg.iterations {
            // Snapshot the (stable) old centroids non-transactionally.
            let mut centers = vec![0.0f64; k * d];
            for (i, c) in centers.iter_mut().enumerate() {
                *c = htm_core::word_to_f64(ctx.read_word(sh.old_centers.offset(i as u32)));
            }
            let mut point = vec![0.0f64; d];
            for p in range.clone() {
                let p = p as u32;
                // Distance computation happens *outside* the transaction in
                // STAMP (the tx covers only the accumulator update).
                for (j, f) in point.iter_mut().enumerate() {
                    *f = htm_core::word_to_f64(
                        ctx.read_word(sh.points.offset(p * d as u32 + j as u32)),
                    );
                }
                ctx.tick((k * d) as u64 * 3);
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for (c, chunk) in centers.chunks_exact(d).enumerate() {
                    let mut dist = 0.0;
                    for (j, f) in point.iter().enumerate() {
                        let diff = f - chunk[j];
                        dist += diff * diff;
                    }
                    if dist < best_d {
                        best_d = dist;
                        best = c;
                    }
                }
                ctx.atomic(|tx| {
                    // Re-read the features transactionally (as STAMP's
                    // update loop does) — the sequential walk the Intel
                    // prefetcher trains on.
                    let base = sh.acc[best];
                    let len = tx.load(base.offset(ACC_LEN))?;
                    tx.store(base.offset(ACC_LEN), len + 1)?;
                    for j in 0..d as u32 {
                        let f = tx.load_f64(sh.points.offset(p * d as u32 + j))?;
                        let slot = base.offset(ACC_SUMS + j);
                        let s = tx.load_f64(slot)?;
                        tx.store_f64(slot, s + f)?;
                        // The hot accumulator lines ping-pong between cores:
                        // every RMW pays a coherence transfer.
                        tx.tick(6);
                    }
                    Ok(())
                });
            }
            self.barrier.wait_sync(ctx);
            // Thread 0 recomputes centroids and resets accumulators.
            if ctx.thread_id() == 0 {
                let mut total = 0u64;
                for c in 0..cfg.n_clusters {
                    let base = sh.acc[c as usize];
                    let len = ctx.read_word(base.offset(ACC_LEN));
                    total += len;
                    for j in 0..d as u32 {
                        let sum = htm_core::word_to_f64(ctx.read_word(base.offset(ACC_SUMS + j)));
                        if len > 0 {
                            let center = sum / len as f64;
                            ctx.write_word(
                                sh.old_centers.offset(c * d as u32 + j),
                                htm_core::f64_to_word(center),
                            );
                        }
                        ctx.write_word(base.offset(ACC_SUMS + j), htm_core::f64_to_word(0.0));
                    }
                    ctx.write_word(base.offset(ACC_LEN), 0);
                }
                assert_eq!(total, cfg.n_points as u64, "iteration lost points");
            }
            self.barrier.wait_sync(ctx);
        }
    }

    fn verify(&self, sim: &Sim) {
        // Per-iteration totals were asserted during the run; here check the
        // final centroids are finite (no NaN poisoning from torn updates).
        let sh = self.shared.get().expect("setup not run");
        let d = self.cfg.n_features;
        for c in 0..self.cfg.n_clusters {
            for j in 0..d {
                let v = htm_core::word_to_f64(sim.read_word(sh.old_centers.offset(c * d + j)));
                assert!(v.is_finite(), "centroid {c}[{j}] is not finite: {v}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{measure, BenchParams};
    use htm_machine::Platform;

    fn params() -> BenchParams {
        BenchParams { threads: 2, scale: Scale::Tiny, ..Default::default() }
    }

    #[test]
    fn kmeans_high_runs_on_all_platforms() {
        for p in Platform::ALL {
            let cfg = p.config();
            let gran = cfg.granularity;
            let r = measure(
                &|| Kmeans::new(KmeansConfig::high(Scale::Tiny, KmeansVariant::Modified, gran), 7),
                &cfg,
                &params(),
            );
            assert!(r.seq_cycles > 0, "{p}");
            assert!(r.stats.committed_blocks() > 0, "{p}");
        }
    }

    #[test]
    fn original_layout_has_more_conflicts_than_modified_on_zec12() {
        // 256-byte lines + unaligned accumulators ⇒ false conflicts.
        let cfg = Platform::Zec12.config();
        let mk = |variant| {
            let gran = cfg.granularity;
            move || Kmeans::new(KmeansConfig::high(Scale::Tiny, variant, gran), 7)
        };
        let p = BenchParams { threads: 4, scale: Scale::Tiny, ..Default::default() };
        // Compare only data-conflict aborts: zEC12's random transient
        // "cache-fetch" aborts would add noise to the total.
        let conflicts = |v| {
            let stats = crate::common::run_parallel(&mk(v), &cfg, &p);
            stats.aborts_in(htm_core::AbortCategory::DataConflict)
        };
        let orig = conflicts(KmeansVariant::Original);
        let modi = conflicts(KmeansVariant::Modified);
        assert!(orig >= modi, "original {orig} < modified {modi}");
    }

    #[test]
    fn sequential_is_deterministic() {
        let cfg = Platform::IntelCore.config();
        let run = || {
            crate::common::run_sequential(
                &|| Kmeans::new(KmeansConfig::low(Scale::Tiny, KmeansVariant::Modified, 64), 3),
                &cfg,
                3,
            )
        };
        assert_eq!(run(), run());
    }
}
