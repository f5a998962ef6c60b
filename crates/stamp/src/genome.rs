//! genome — gene sequencing by segment matching (STAMP `genome`).
//!
//! Three phases over a pool of fixed-length gene segments:
//!
//! 1. **Deduplication**: segments are inserted into a shared hash set, in
//!    transactions of `CHUNK_STEP_1` insertions each. This is the knob the
//!    paper tuned per platform (Section 4): a larger chunk amortises
//!    begin/end overhead but inflates the transactional footprint —
//!    9 on Blue Gene/Q, 2 on the other three platforms; the original STAMP
//!    value of 12 overflows POWER8's TMCAM constantly (the 3.7× Figure-4
//!    gain).
//! 2. **Sort** of the unique segments (non-transactional in STAMP; charged
//!    as sequential compute here).
//! 3. **Overlap matching**: for overlap lengths from `S-1` down to 1,
//!    unmatched segments are linked suffix-to-prefix through a shared
//!    prefix hash table, one lookup/link per transaction.
//!
//! Segments are packed 2-bit nucleotide strings (≤ 32 chars per `u64`).

use std::sync::{Mutex, OnceLock};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use htm_core::WordAddr;
use htm_machine::Platform;
use htm_runtime::{Sim, ThreadCtx};
use tm_structs::TmHashTable;

use crate::common::{partition, PhaseBarrier, Scale, Workload};

/// Original vs per-platform-tuned dedup chunking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GenomeVariant {
    /// STAMP 0.9.10 default chunking (`CHUNK_STEP_1 = 12`).
    Original,
    /// The paper's tuning: 9 on Blue Gene/Q, 2 elsewhere.
    Modified {
        /// Platform the chunk is tuned for.
        platform: Platform,
    },
}

impl GenomeVariant {
    fn chunk_step(self) -> u32 {
        match self {
            GenomeVariant::Original => 12,
            GenomeVariant::Modified { platform: Platform::BlueGeneQ } => 9,
            GenomeVariant::Modified { .. } => 2,
        }
    }
}

/// genome configuration.
#[derive(Clone, Copy, Debug)]
pub struct GenomeConfig {
    /// Gene length in nucleotides.
    pub gene_len: u32,
    /// Segment length (≤ 32).
    pub seg_len: u32,
    /// Dedup chunking variant.
    pub variant: GenomeVariant,
}

impl GenomeConfig {
    /// Configuration for a scale.
    pub fn at(scale: Scale, variant: GenomeVariant) -> GenomeConfig {
        let (gene_len, seg_len) = match scale {
            Scale::Tiny => (384, 12),
            Scale::Sim => (8192, 16),
            Scale::Full => (1 << 16, 24),
        };
        GenomeConfig { gene_len, seg_len, variant }
    }
}

/// Per-unique-segment phase-3 record: `[segment, fwd_link, back_matched]`.
/// `fwd_link` packs `(target_uid + 1) | overlap << 32`; 0 = unmatched.
const REC_SEG: u32 = 0;
const REC_FWD: u32 = 1;
const REC_BACK: u32 = 2;
const REC_WORDS: u32 = 3;

struct Shared {
    /// All (possibly duplicate) segments, one packed `u64` per word.
    segments: WordAddr,
    n_segments: u32,
    /// Phase-1 dedup set: packed segment → 1.
    dedup: TmHashTable,
    /// Pre-allocated per-overlap prefix tables (structure allocation is
    /// untimed setup work, as in STAMP).
    prefix_tables: Vec<TmHashTable>,
}

/// State built by thread 0 between phases 1 and 3.
struct Phase3 {
    /// Unique-segment records base (`n_unique × REC_WORDS`).
    records: WordAddr,
    n_unique: u32,
    /// One prefix table per overlap length `1..seg_len` (index `ov - 1`).
    prefix_tables: Vec<TmHashTable>,
}

/// The genome workload.
pub struct Genome {
    cfg: GenomeConfig,
    seed: u64,
    shared: OnceLock<Shared>,
    phase3: OnceLock<Phase3>,
    /// Segments each thread successfully inserted in phase 1.
    uniques: Mutex<Vec<u64>>,
    barrier: PhaseBarrier,
}

impl Genome {
    /// Creates a genome workload.
    pub fn new(cfg: GenomeConfig, seed: u64) -> Genome {
        assert!(cfg.seg_len >= 2 && cfg.seg_len <= 32, "segment length out of range");
        Genome {
            cfg,
            seed,
            shared: OnceLock::new(),
            phase3: OnceLock::new(),
            uniques: Mutex::new(Vec::new()),
            barrier: PhaseBarrier::new(),
        }
    }

    fn n_segments(&self) -> u32 {
        self.cfg.gene_len - self.cfg.seg_len + 1
    }
}

/// Last `ov` characters of a packed segment of length `len`.
fn suffix(seg: u64, _len: u32, ov: u32) -> u64 {
    seg & ((1u64 << (2 * ov)) - 1)
}

/// First `ov` characters of a packed segment of length `len`.
fn prefix(seg: u64, len: u32, ov: u32) -> u64 {
    seg >> (2 * (len - ov))
}

impl Genome {
    /// Phase 3a chunk: insert unmatched-backward segments into the prefix
    /// table.
    fn advertise(
        &self,
        ctx: &mut ThreadCtx,
        uids: &[u32],
        table: TmHashTable,
        ov: u32,
        rec: &impl Fn(u32) -> WordAddr,
    ) {
        let seg_len = self.cfg.seg_len;
        ctx.atomic(|tx| {
            for &uid in uids {
                if tx.load(rec(uid).offset(REC_BACK))? == 0 {
                    let seg = tx.load(rec(uid).offset(REC_SEG))?;
                    tx.tick(4 * ov as u64);
                    table.insert(tx, prefix(seg, seg_len, ov), uid as u64 + 1)?;
                }
            }
            Ok(())
        });
    }

    /// Phase 3b chunk: link unmatched-forward segments to advertised
    /// prefixes.
    fn link(
        &self,
        ctx: &mut ThreadCtx,
        uids: &[u32],
        table: TmHashTable,
        ov: u32,
        seg_len: u32,
        rec: &impl Fn(u32) -> WordAddr,
    ) {
        ctx.atomic(|tx| {
            for &uid in uids {
                if tx.load(rec(uid).offset(REC_FWD))? != 0 {
                    continue;
                }
                let seg = tx.load(rec(uid).offset(REC_SEG))?;
                tx.tick(4 * ov as u64);
                let key = suffix(seg, seg_len, ov);
                if let Some(cand) = table.get(tx, key)? {
                    let target = (cand - 1) as u32;
                    if target != uid && tx.load(rec(target).offset(REC_BACK))? == 0 {
                        table.remove(tx, key)?;
                        tx.store(rec(uid).offset(REC_FWD), cand | ((ov as u64) << 32))?;
                        tx.store(rec(target).offset(REC_BACK), 1)?;
                    }
                }
            }
            Ok(())
        });
    }
}

impl Workload for Genome {
    fn name(&self) -> String {
        format!(
            "genome ({})",
            match self.cfg.variant {
                GenomeVariant::Original => "original".to_string(),
                GenomeVariant::Modified { platform } => format!("modified, {platform}"),
            }
        )
    }

    fn mem_words(&self) -> u32 {
        let n = self.n_segments();
        // Segments + dedup table + per-overlap prefix tables and nodes.
        n * 12 + self.cfg.seg_len * n * 8 + (1 << 18)
    }

    fn setup(&self, sim: &Sim) {
        let cfg = self.cfg;
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let gene: Vec<u8> = (0..cfg.gene_len).map(|_| rng.gen_range(0..4u8)).collect();
        let n = self.n_segments();
        let mut ctx = sim.seq_ctx();
        let segments = ctx.alloc(n);
        for start in 0..n {
            let mut packed = 0u64;
            for i in 0..cfg.seg_len {
                packed = (packed << 2) | gene[(start + i) as usize] as u64;
            }
            sim.write_word(segments.offset(start), packed);
        }
        let dedup = ctx.atomic(|tx| TmHashTable::create(tx, (n * 2).max(16)));
        let mut prefix_tables = Vec::new();
        for _ov in 1..cfg.seg_len {
            prefix_tables.push(ctx.atomic(|tx| TmHashTable::create(tx, (n * 2).max(16))));
        }
        self.shared
            .set(Shared { segments, n_segments: n, dedup, prefix_tables })
            .ok()
            .expect("setup ran twice");
    }

    fn prepare(&self, threads: u32) {
        self.barrier.size_for(threads);
    }

    fn work(&self, ctx: &mut ThreadCtx) {
        let cfg = self.cfg;
        let sh = self.shared.get().expect("setup not run");
        let chunk = cfg.variant.chunk_step().max(1) as u64;

        // ---- Phase 1: chunked dedup inserts -----------------------------
        let range = partition(sh.n_segments as u64, ctx.thread_id(), ctx.num_threads());
        let mut mine = Vec::new();
        let mut i = range.start;
        while i < range.end {
            let hi = (i + chunk).min(range.end);
            // Read the segment values (input data) before the transaction.
            let segs: Vec<u64> =
                (i..hi).map(|j| ctx.read_word(sh.segments.offset(j as u32))).collect();
            let inserted = ctx.atomic(|tx| {
                let mut ins = Vec::new();
                for &s in &segs {
                    // Hashing and comparing a segment string costs ~its
                    // length in cycles (the C code re-hashes the bytes).
                    tx.tick(8 * cfg.seg_len as u64);
                    if sh.dedup.insert(tx, s, 1)? {
                        ins.push(s);
                    }
                }
                Ok(ins)
            });
            mine.extend(inserted);
            i = hi;
        }
        self.uniques.lock().unwrap().extend(mine);
        self.barrier.wait_sync(ctx);

        // ---- Phase 2: thread 0 sorts and builds phase-3 state -----------
        if ctx.thread_id() == 0 {
            let mut uniq = std::mem::take(&mut *self.uniques.lock().unwrap());
            uniq.sort_unstable();
            // Charge the sort: n log n comparisons.
            let nlogn = (uniq.len() as u64 + 1) * (64 - (uniq.len() as u64).leading_zeros()) as u64;
            ctx.tick(nlogn * 4);
            let n_unique = uniq.len() as u32;
            let records = ctx.alloc(n_unique * REC_WORDS);
            for (uid, &seg) in uniq.iter().enumerate() {
                let rec = records.offset(uid as u32 * REC_WORDS);
                ctx.write_word(rec.offset(REC_SEG), seg);
                ctx.write_word(rec.offset(REC_FWD), 0);
                ctx.write_word(rec.offset(REC_BACK), 0);
            }
            self.phase3
                .set(Phase3 { records, n_unique, prefix_tables: sh.prefix_tables.clone() })
                .ok()
                .expect("phase 3 built twice");
        }
        self.barrier.wait_sync(ctx);

        // ---- Phase 3: overlap matching, longest overlaps first ----------
        let p3 = self.phase3.get().expect("phase 3 state missing");
        let rec = |uid: u32| p3.records.offset(uid * REC_WORDS);
        let range = partition(p3.n_unique as u64, ctx.thread_id(), ctx.num_threads());

        // Match-state flags are monotonic (0 → set once), so a
        // non-transactional pre-check safely skips already-settled
        // segments; the transaction re-checks under isolation. Work is
        // chunked like phase 1 to amortise begin/end costs.
        let p3_chunk = 8;
        for ov in (1..cfg.seg_len).rev() {
            let table = p3.prefix_tables[(ov - 1) as usize];
            // 3a: advertise unmatched-backward segments by prefix.
            let mut pending: Vec<u32> = Vec::new();
            for uid in range.clone() {
                let uid = uid as u32;
                if ctx.read_word(rec(uid).offset(REC_BACK)) != 0 {
                    continue;
                }
                pending.push(uid);
                if pending.len() == p3_chunk {
                    self.advertise(ctx, &pending, table, ov, &rec);
                    pending.clear();
                }
            }
            if !pending.is_empty() {
                self.advertise(ctx, &pending, table, ov, &rec);
            }
            self.barrier.wait_sync(ctx);
            // 3b: match unmatched-forward segments by suffix.
            let mut pending: Vec<u32> = Vec::new();
            for uid in range.clone() {
                let uid = uid as u32;
                if ctx.read_word(rec(uid).offset(REC_FWD)) != 0 {
                    continue;
                }
                pending.push(uid);
                if pending.len() == p3_chunk {
                    self.link(ctx, &pending, table, ov, cfg.seg_len, &rec);
                    pending.clear();
                }
            }
            if !pending.is_empty() {
                self.link(ctx, &pending, table, ov, cfg.seg_len, &rec);
            }
            self.barrier.wait_sync(ctx);
        }
    }

    fn verify(&self, sim: &Sim) {
        let cfg = self.cfg;
        let p3 = self.phase3.get().expect("phase 3 never ran");
        let sh = self.shared.get().expect("setup not run");
        // Dedup correctness: table size equals host-side unique count.
        let mut host = std::collections::HashSet::new();
        for i in 0..sh.n_segments {
            host.insert(sim.read_word(sh.segments.offset(i)));
        }
        assert_eq!(p3.n_unique as usize, host.len(), "dedup lost or invented segments");
        // Link invariants: every forward link is a genuine overlap, targets
        // are distinct, and back flags agree with in-degrees.
        let rec = |uid: u32| p3.records.offset(uid * REC_WORDS);
        let mut indegree = vec![0u32; p3.n_unique as usize];
        for uid in 0..p3.n_unique {
            let fwd = sim.read_word(rec(uid).offset(REC_FWD));
            if fwd == 0 {
                continue;
            }
            let target = ((fwd & 0xffff_ffff) - 1) as u32;
            let ov = (fwd >> 32) as u32;
            assert!(target < p3.n_unique && target != uid, "corrupt link {uid}→{target}");
            let a = sim.read_word(rec(uid).offset(REC_SEG));
            let b = sim.read_word(rec(target).offset(REC_SEG));
            assert_eq!(
                suffix(a, cfg.seg_len, ov),
                prefix(b, cfg.seg_len, ov),
                "link {uid}→{target} claims a bogus {ov}-overlap"
            );
            indegree[target as usize] += 1;
        }
        for uid in 0..p3.n_unique {
            let back = sim.read_word(rec(uid).offset(REC_BACK));
            assert!(indegree[uid as usize] <= 1, "segment {uid} matched twice");
            assert_eq!(back != 0, indegree[uid as usize] == 1, "back flag of {uid} out of sync");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{measure, BenchParams};

    #[test]
    fn packing_helpers() {
        // Segment "abcd" with 2-bit chars a=0,b=1,c=2,d=3 packs to 0b00011011.
        let seg = 0b00_01_10_11u64;
        assert_eq!(prefix(seg, 4, 2), 0b00_01);
        assert_eq!(suffix(seg, 4, 2), 0b10_11);
        assert_eq!(prefix(seg, 4, 4), seg);
        assert_eq!(suffix(seg, 4, 4), seg);
    }

    #[test]
    fn genome_runs_and_verifies_on_all_platforms() {
        for p in Platform::ALL {
            let r = measure(
                &|| {
                    Genome::new(
                        GenomeConfig::at(Scale::Tiny, GenomeVariant::Modified { platform: p }),
                        21,
                    )
                },
                &p.config(),
                &BenchParams { threads: 2, scale: Scale::Tiny, ..Default::default() },
            );
            assert!(r.stats.committed_blocks() > 0, "{p}");
        }
    }

    #[test]
    fn original_chunking_overflows_power8_more() {
        let p = Platform::Power8.config();
        let run = |variant| {
            crate::common::run_parallel(
                &|| Genome::new(GenomeConfig::at(Scale::Tiny, variant), 21),
                &p,
                &BenchParams { threads: 4, seed: 21, ..Default::default() },
            )
        };
        let orig = run(GenomeVariant::Original);
        let modi = run(GenomeVariant::Modified { platform: Platform::Power8 });
        let cap = |s: &htm_runtime::RunStats| s.aborts_in(htm_core::AbortCategory::Capacity);
        assert!(
            cap(&orig) >= cap(&modi),
            "chunk 12 ({}) should overflow at least as often as chunk 2 ({})",
            cap(&orig),
            cap(&modi)
        );
    }
}
