//! The service workload: shard workers, compaction, and measurement.
//!
//! `threads - 1` foreground workers each own `shards / (threads - 1)`
//! shards (round-robin by worker id) and drain their shards' bounded
//! request queues in arrival order through `ThreadCtx` atomic blocks; the
//! last thread is a background compaction pass that reads and rewrites
//! value lines in batches, contending with foreground traffic exactly the
//! way a GC does. Sequentially (one thread), the same request streams are
//! processed in global arrival order with no compaction — additive updates
//! make the final store state identical either way, which is what the
//! differential oracle checks.
//!
//! Per-request latency is open-loop: an idle worker advances its simulated
//! clock to the next arrival, and a request's latency is its completion
//! time minus its *arrival* time, so queue wait under overload lands in
//! the percentiles.

use std::sync::OnceLock;

use htm_runtime::{Sim, ThreadCtx};
use stamp::Workload;

use crate::store::Store;
use crate::traffic::{self, Op, Request, SvcParams, Traffic};

/// FNV-1a over a stream of words (the digest hash).
fn fnv64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    }
    h
}

/// The service workload (one instance per run).
pub struct SvcWorkload {
    params: SvcParams,
    traffic: Traffic,
    store: OnceLock<Store>,
}

impl SvcWorkload {
    /// Generates the traffic for `params` from `seed` and wraps it as a
    /// workload. Generation is pure, so two instances with equal inputs
    /// process bit-identical request streams.
    pub fn new(params: SvcParams, seed: u64) -> SvcWorkload {
        let traffic = traffic::generate(&params, seed);
        SvcWorkload { params, traffic, store: OnceLock::new() }
    }

    /// The workload's parameters.
    pub fn params(&self) -> &SvcParams {
        &self.params
    }

    /// Total generated requests.
    pub fn total_requests(&self) -> u64 {
        self.traffic.len()
    }

    /// The store (available after `setup`): blame runners read
    /// [`Store::key_lines`] off it after the run.
    pub fn store(&self) -> &Store {
        self.store.get().expect("setup has not run")
    }

    fn execute(&self, ctx: &mut ThreadCtx, req: &Request) {
        let store = self.store();
        match &req.op {
            Op::Get(key) => {
                let shard = self.params.shard_of(*key) as usize;
                // Point reads walk the table (bucket head + chain), like a
                // service that indexes on every lookup.
                ctx.atomic(|tx| store.tables[shard].get(tx, *key));
            }
            Op::Put(key, delta) => {
                ctx.atomic(|tx| store.add(tx, *key, *delta));
            }
            Op::Order(keys, deltas) => {
                ctx.atomic(|tx| {
                    for (k, d) in keys.iter().zip(deltas.iter()) {
                        store.add(tx, *k, *d)?;
                    }
                    Ok(())
                });
            }
            Op::Scan(start, len) => {
                let total = self.params.total_keys();
                let stride = self.params.shards as u64;
                ctx.atomic(|tx| {
                    let mut acc = 0u64;
                    // Scan the home shard: same residue class, so the
                    // footprint stays on one worker's keys.
                    for i in 0..*len as u64 {
                        let k = (start + i * stride) % total;
                        acc = acc.wrapping_add(store.load(tx, k)?);
                    }
                    Ok(acc)
                });
            }
        }
    }

    /// Drains `shards` (owned by one worker, or all of them sequentially)
    /// in arrival order through the bounded queues.
    fn drain(&self, ctx: &mut ThreadCtx, shards: &[usize]) {
        let store = self.store();
        let streams: Vec<&[Request]> =
            shards.iter().map(|&s| self.traffic.shards[s].as_slice()).collect();
        // Host-side mirrors of each ring's head/tail (the simulated words
        // are the handoff; the mirrors save re-reads).
        let mut next_admit = vec![0usize; shards.len()];
        let mut head = vec![0u64; shards.len()];
        let mut tail = vec![0u64; shards.len()];

        loop {
            // Admit every arrived request with queue space.
            let now = ctx.now();
            for (i, &s) in shards.iter().enumerate() {
                let q = &store.queues[s];
                while next_admit[i] < streams[i].len()
                    && streams[i][next_admit[i]].arrival <= now
                    && tail[i] - head[i] < q.cap as u64
                {
                    q.push(ctx, tail[i], next_admit[i] as u64);
                    tail[i] += 1;
                    next_admit[i] += 1;
                }
            }
            // Serve the queued request that arrived first.
            let served = (0..shards.len()).filter(|&i| head[i] < tail[i]).min_by_key(|&i| {
                let r = &streams[i][head[i] as usize..][..1][0];
                (r.arrival, shards[i])
            });
            if let Some(i) = served {
                let q = &store.queues[shards[i]];
                let idx = q.pop(ctx, head[i]) as usize;
                head[i] += 1;
                let req = &streams[i][idx];
                self.execute(ctx, req);
                ctx.record_latency(ctx.now().saturating_sub(req.arrival));
                continue;
            }
            // Nothing queued: jump to the next arrival, or finish.
            match (0..shards.len())
                .filter(|&i| next_admit[i] < streams[i].len())
                .map(|i| streams[i][next_admit[i]].arrival)
                .min()
            {
                Some(t) => ctx.advance_clock_to(t),
                None => break,
            }
        }
        for &s in shards {
            let flag = store.done_flags[s];
            ctx.atomic(|tx| tx.store(flag, 1));
        }
    }

    /// Background compaction: read and rewrite value lines in batches
    /// until every shard's worker is done. Semantically the identity —
    /// pure conflict and capacity footprint, skipped by the sequential
    /// reference — so it never perturbs the digest, only the schedule.
    fn compact(&self, ctx: &mut ThreadCtx) {
        let store = self.store();
        let total = self.params.total_keys();
        let batch = self.params.compaction_batch.max(1) as u64;
        let mut cursor = 0u64;
        loop {
            let done = ctx.atomic(|tx| {
                let mut all = true;
                for &f in &store.done_flags {
                    all &= tx.load(f)? == 1;
                }
                for i in 0..batch {
                    let k = (cursor + i) % total;
                    let v = store.load(tx, k)?;
                    store.add(tx, k, 0)?;
                    let _ = v;
                }
                Ok(all)
            });
            cursor = (cursor + batch) % total;
            if done {
                break;
            }
        }
    }

    fn owned_shards(&self, worker: u32, n_workers: u32) -> Vec<usize> {
        (0..self.params.shards as usize).filter(|&s| s as u32 % n_workers == worker).collect()
    }
}

impl Workload for SvcWorkload {
    fn name(&self) -> String {
        format!(
            "svc (s={}.{:03}, {} shards)",
            self.params.skew_permille / 1000,
            self.params.skew_permille % 1000,
            self.params.shards
        )
    }

    fn mem_words(&self) -> u32 {
        // Worst case 256-byte lines: one line per key node, plus table
        // headers, queues, flags and slack.
        let per_key = 32u32;
        self.params
            .total_keys()
            .saturating_mul(per_key as u64)
            .saturating_add(1 << 18)
            .min(u32::MAX as u64) as u32
    }

    fn setup(&self, sim: &Sim) {
        let store = Store::build(sim, &self.params);
        assert!(self.store.set(store).is_ok(), "setup ran twice");
        // On a cooperative Sim the runtime runs the parallel workers under
        // its round-robin scheduler, so every interleaving is a pure
        // function of the seed.
        sim.declare_cooperative();
    }

    fn work(&self, ctx: &mut ThreadCtx) {
        let threads = ctx.num_threads();
        if threads <= 1 {
            // Sequential reference (and the degenerate one-thread cell):
            // all shards in global arrival order, no compaction.
            let all: Vec<usize> = (0..self.params.shards as usize).collect();
            self.drain(ctx, &all);
            return;
        }
        let tid = ctx.thread_id();
        if tid == threads - 1 {
            self.compact(ctx);
        } else {
            let shards = self.owned_shards(tid, threads - 1);
            self.drain(ctx, &shards);
        }
    }

    fn verify(&self, sim: &Sim) {
        let store = self.store();
        let (pairs, total) = store.snapshot(sim);
        assert_eq!(pairs.len() as u64, self.params.total_keys(), "keys lost");
        let expect = store.initial_total.wrapping_add(self.traffic.put_total);
        assert_eq!(
            total, expect,
            "store total diverged: additive updates must conserve the put total"
        );
    }

    fn result_digest(&self, sim: &Sim) -> Option<u64> {
        // Additive updates commute, so the final (key, value) image is
        // schedule-independent; compaction is the identity and the digest
        // ignores queue words, so sequential and parallel runs agree.
        let (pairs, _) = self.store().snapshot(sim);
        Some(fnv64(pairs.into_iter().flat_map(|(k, v)| [k, v])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_machine::Platform;
    use stamp::{measure, run_oracle, BenchParams, Scale};

    fn tiny_params() -> SvcParams {
        SvcParams { sessions: 120, keys_per_shard: 64, ..Default::default() }
    }

    #[test]
    fn sequential_and_parallel_agree_on_intel() {
        let params = tiny_params();
        let machine = Platform::IntelCore.config();
        let make = || SvcWorkload::new(params, 11);
        run_oracle(&make, &machine, &BenchParams { threads: 3, seed: 11, ..Default::default() });
    }

    #[test]
    fn measure_reports_latencies_and_is_deterministic() {
        let params = tiny_params();
        let machine = Platform::Power8.config();
        let make = || SvcWorkload::new(params, 5);
        let bench = BenchParams { threads: 5, scale: Scale::Tiny, seed: 5, ..Default::default() };
        let a = measure(&make, &machine, &bench);
        let b = measure(&make, &machine, &bench);
        let expect_reqs = SvcWorkload::new(params, 5).total_requests();
        let lat = a.stats.latency();
        assert_eq!(lat.count(), expect_reqs, "one latency sample per request");
        assert!(lat.value_at(99.0) >= lat.value_at(50.0));
        assert_eq!(a.seq_cycles, b.seq_cycles, "deterministic baseline");
        assert_eq!(a.stats.cycles(), b.stats.cycles(), "deterministic schedule");
        assert_eq!(a.stats.total_aborts(), b.stats.total_aborts(), "deterministic abort counts");
        assert_eq!(a.stats.latency(), b.stats.latency(), "deterministic histogram");
    }
}
