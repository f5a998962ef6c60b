//! Per-layer probes: host nanoseconds per operation of each simulator
//! layer, timed from outside through the layer's public functions.
//!
//! Every probe runs a fixed input, independent of the workload, so a
//! layer's number moves only when that layer's code does. Operations too
//! short for one clock read are timed in batches; p50/p99 are taken over
//! the per-operation time of each batch.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use htm_core::coop::CoopPoint;
use htm_core::{ConflictPolicy, Geometry, LineId, SlotId, TxMemory, WordAddr};
use htm_exp::cell::platform_key;
use htm_exp::{machine_for, CellResult, ResultCache};
use htm_machine::{Platform, Tracker};
use htm_runtime::{LatencyHistogram, RetryPolicy, Sim, SimConfig};
use stamp::BenchId;

use crate::report::Metric;

/// Distinct lines touched per probe batch: inside every platform's
/// transactional capacity (POWER8's 64-entry TMCAM, zEC12's 8 KB store
/// cache), so no probe transaction aborts for capacity.
const LINES: usize = 16;

/// `q`-quantile (0..=1) of `xs`, nearest rank.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn ns_per(start: Instant, n: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / n as f64
}

/// Pushes `name.p50` and `name.p99` of `samples` (ns).
fn p50_p99(out: &mut Vec<Metric>, name: &str, samples: &[f64]) {
    out.push(Metric::new(format!("{name}.p50"), quantile(samples, 0.5), "ns"));
    out.push(Metric::new(format!("{name}.p99"), quantile(samples, 0.99), "ns"));
}

/// Runs every probe; `iters` scales the sample counts (tests pass a small
/// value).
pub fn run_all(iters: usize, scratch_dir: &std::path::Path) -> Vec<Metric> {
    let mut out = Vec::new();
    for platform in Platform::ALL {
        tx_ops(platform, iters, &mut out);
    }
    for platform in Platform::ALL {
        tracker_first_access(platform, iters, &mut out);
    }
    line_protocol(iters, &mut out);
    handoff(iters, &mut out);
    model_step(iters, &mut out);
    softlog(iters, &mut out);
    histogram(iters, &mut out);
    certifier(iters, &mut out);
    cache(iters, scratch_dir, &mut out);
    sim_new(iters, &mut out);
    traffic_gen(iters, &mut out);
    out
}

#[derive(Default)]
struct TxSamples {
    load: Vec<f64>,
    store: Vec<f64>,
    commit: Vec<f64>,
    rollback: Vec<f64>,
}

/// Transactional load, store, commit and rollback on one platform, at one
/// thread (the uncontended path `stamp-1t` runs): per-op ns for loads and
/// stores, per-block ns for commit (write-back of `LINES` stores) and
/// rollback (explicit abort to the retry's re-entry).
fn tx_ops(platform: Platform, iters: usize, out: &mut Vec<Metric>) {
    let sim = Sim::new(SimConfig::new(machine_for(platform, BenchId::Genome)).mem_words(1 << 16));
    // 256-byte stride: one line per address at every platform's granularity.
    let base = sim.alloc().alloc_aligned((LINES * 32) as u32, 256);
    let addrs: Vec<WordAddr> = (0..LINES).map(|i| base.offset(i as u32 * 32)).collect();
    let samples = Mutex::new(TxSamples::default());
    sim.run_parallel(1, RetryPolicy::default(), |ctx| {
        let mut s = TxSamples::default();
        for it in 0..iters as u64 {
            ctx.atomic(|tx| {
                let t = Instant::now();
                for &a in &addrs {
                    black_box(tx.load(a)?);
                }
                s.load.push(ns_per(t, LINES));
                Ok(())
            });
            let mut body_end = Instant::now();
            ctx.atomic(|tx| {
                let t = Instant::now();
                for &a in &addrs {
                    tx.store(a, it)?;
                }
                s.store.push(ns_per(t, LINES));
                body_end = Instant::now();
                Ok(())
            });
            s.commit.push(ns_per(body_end, 1));
            let mut aborted_at = None;
            ctx.atomic(|tx| {
                if let Some(t) = aborted_at {
                    s.rollback.push(ns_per(t, 1));
                    return Ok(());
                }
                for &a in &addrs {
                    tx.store(a, it + 1)?;
                }
                aborted_at = Some(Instant::now());
                tx.abort_tx(1)
            });
        }
        *samples.lock().expect("probe sample lock") = s;
    });
    let s = samples.into_inner().expect("probe sample lock");
    let p = platform_key(platform);
    p50_p99(out, &format!("runtime.tx_load_ns.{p}"), &s.load);
    p50_p99(out, &format!("runtime.tx_store_ns.{p}"), &s.store);
    p50_p99(out, &format!("runtime.tx_commit_ns.{p}"), &s.commit);
    p50_p99(out, &format!("runtime.tx_rollback_ns.{p}"), &s.rollback);
}

/// The platform's capacity tracker: first load and first store of a line
/// (each sample: `REPS` transactions of `LINES` first accesses, including
/// the per-transaction `begin`).
fn tracker_first_access(platform: Platform, iters: usize, out: &mut Vec<Metric>) {
    const REPS: usize = 32;
    let kind = machine_for(platform, BenchId::Genome).tracker;
    let (mut loads, mut stores) = (Vec::new(), Vec::new());
    let mut tr = Tracker::new(kind);
    for _ in 0..iters {
        let t = Instant::now();
        for _ in 0..REPS {
            tr.begin(1);
            for i in 0..LINES as u32 {
                black_box(tr.on_first_load(LineId(i), false)).expect("probe footprint fits");
            }
        }
        loads.push(ns_per(t, REPS * LINES));
        let t = Instant::now();
        for _ in 0..REPS {
            tr.begin(1);
            for i in 0..LINES as u32 {
                black_box(tr.on_first_store(LineId(i), false)).expect("probe footprint fits");
            }
        }
        stores.push(ns_per(t, REPS * LINES));
    }
    let p = platform_key(platform);
    out.push(Metric::new(
        format!("machine.tracker_first_load_ns.{p}"),
        quantile(&loads, 0.5),
        "ns",
    ));
    out.push(Metric::new(
        format!("machine.tracker_first_store_ns.{p}"),
        quantile(&stores, 0.5),
        "ns",
    ));
}

/// The conflict table's read and claim of a line, uncontended (the
/// table has no capacity limit, so one transaction covers a whole batch).
fn line_protocol(iters: usize, out: &mut Vec<Metric>) {
    const N: u32 = 256;
    let mem = TxMemory::new(1 << 14, Geometry::new(64));
    let slot = SlotId(0);
    let (mut reads, mut claims) = (Vec::new(), Vec::new());
    for _ in 0..iters {
        mem.begin_slot(slot);
        let t = Instant::now();
        for i in 0..N {
            mem.tx_read_line(slot, LineId(i), ConflictPolicy::RequesterWins).expect("no conflict");
        }
        reads.push(ns_per(t, N as usize));
        let t = Instant::now();
        for i in N..2 * N {
            mem.tx_claim_line(slot, LineId(i), ConflictPolicy::RequesterWins).expect("no conflict");
        }
        claims.push(ns_per(t, N as usize));
        for i in 0..N {
            mem.clear_reader(LineId(i), slot);
            mem.release_writer(LineId(i + N), slot);
        }
        mem.finish_slot(slot);
    }
    p50_p99(out, "core.tx_read_line_ns", &reads);
    p50_p99(out, "core.tx_claim_line_ns", &claims);
}

/// One scheduler hand-off: two threads ping-pong the svc round-robin grant
/// through `htm_core::coop::point`.
fn handoff(iters: usize, out: &mut Vec<Metric>) {
    const BATCH: usize = 32;
    let rounds = (iters / 8).max(4);
    let sched = htm_svc::sched::RoundRobin::new(2);
    let samples = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for tid in 0..2u32 {
            let sched = Arc::clone(&sched);
            let samples = &samples;
            scope.spawn(move || {
                let _hooks = htm_core::coop::install(sched.hooks(tid));
                let _done = sched.finish_guard(tid);
                sched.register(tid);
                let mut mine = Vec::new();
                for _ in 0..rounds {
                    let t = Instant::now();
                    for _ in 0..BATCH {
                        htm_core::coop::point(CoopPoint::BlockStart);
                    }
                    // Each point hands the grant away and waits for it back.
                    mine.push(ns_per(t, 2 * BATCH));
                }
                if tid == 0 {
                    *samples.lock().expect("probe sample lock") = mine;
                }
            });
        }
    });
    p50_p99(out, "svc.handoff_ns", &samples.into_inner().expect("probe sample lock"));
}

/// Model-checker cost per scheduling step, on one small kernel.
fn model_step(iters: usize, out: &mut Vec<Metric>) {
    let kernel = htm_model::kernel::by_name("counter").expect("suite kernel");
    let cfg = htm_model::ModelConfig::new(kernel, Platform::IntelCore, htm_model::Tier::Hw);
    let mut per_step = Vec::new();
    for _ in 0..(iters / 64).max(3) {
        let t = Instant::now();
        let r = htm_model::explore(&cfg);
        per_step.push(ns_per(t, r.steps_total.max(1) as usize));
    }
    out.push(Metric::new("model.ns_per_step", quantile(&per_step, 0.5), "ns"));
}

/// The STM read log: first-value record and value-based validation.
fn softlog(iters: usize, out: &mut Vec<Metric>) {
    const N: usize = 1024;
    let (mut rec, mut val) = (Vec::new(), Vec::new());
    let mut log = htm_hytm::SoftLog::new();
    for it in 0..(iters / 4).max(8) as u64 {
        log.clear();
        let t = Instant::now();
        for i in 0..N as u32 {
            black_box(log.record(WordAddr(i * 8), it + i as u64));
        }
        rec.push(ns_per(t, N));
        let t = Instant::now();
        let bad = log.validate(|a| it + (a.0 / 8) as u64);
        val.push(ns_per(t, N));
        assert!(bad.is_none(), "probe log must validate");
    }
    out.push(Metric::new("hytm.softlog_record_ns", quantile(&rec, 0.5), "ns"));
    out.push(Metric::new("hytm.softlog_validate_ns", quantile(&val, 0.5), "ns"));
}

/// One latency-histogram record.
fn histogram(iters: usize, out: &mut Vec<Metric>) {
    const N: usize = 256;
    let mut h = LatencyHistogram::default();
    let mut per = Vec::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..iters {
        let t = Instant::now();
        for _ in 0..N {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record(x % 1_000_000);
        }
        per.push(ns_per(t, N));
    }
    assert_eq!(h.count(), (iters * N) as u64);
    out.push(Metric::new("runtime.histogram_record_ns", quantile(&per, 0.5), "ns"));
}

/// The serializability certifier per committed event, on a serial chain
/// of read-modify-write blocks over 64 words.
fn certifier(iters: usize, out: &mut Vec<Metric>) {
    const EVENTS: usize = 512;
    let mut values = [0u64; 64];
    let events: Vec<htm_core::TxEvent> = (0..EVENTS)
        .map(|i| {
            let (a, b) = (i % 64, (i * 7 + 3) % 64);
            let reads = vec![(WordAddr(a as u32), values[a]), (WordAddr(b as u32), values[b])];
            values[a] += 1;
            values[b] += 2;
            let writes = vec![(WordAddr(a as u32), values[a]), (WordAddr(b as u32), values[b])];
            htm_core::TxEvent {
                thread: (i % 2) as u32,
                seq: i as u64 + 1,
                kind: htm_core::EventKind::Hardware { rot: false },
                reads,
                writes,
            }
        })
        .collect();
    let mut per = Vec::new();
    for _ in 0..(iters / 32).max(3) {
        let ev = events.clone();
        let t = Instant::now();
        let report = htm_runtime::certify(ev, false, 0);
        per.push(ns_per(t, EVENTS));
        assert!(report.ok(), "a serial chain must certify:\n{report}");
    }
    out.push(Metric::new("runtime.certify_ns_per_event", quantile(&per, 0.5), "ns"));
}

/// The experiment engine's result cache: store and hit of one cell result.
fn cache(iters: usize, dir: &std::path::Path, out: &mut Vec<Metric>) {
    let n = (iters / 16).max(8);
    let cache = ResultCache::new(dir.join("cache-probe"), true);
    let mut result = CellResult::new();
    for (i, name) in ["speedup", "abort_ratio", "hw_commits", "total_aborts"].iter().enumerate() {
        result.put(name, 1.5 + i as f64);
    }
    let (mut store, mut hit) = (Vec::new(), Vec::new());
    for i in 0..n {
        let key = format!("probe|{i}");
        let t = Instant::now();
        cache.store(&key, "probe", &result).expect("cache probe writes inside the output dir");
        store.push(ns_per(t, 1));
        let t = Instant::now();
        let back = cache.load(&key);
        hit.push(ns_per(t, 1));
        assert_eq!(back.as_ref(), Some(&result), "cache probe must hit");
    }
    // The probe's entries are scratch; a leftover directory is harmless.
    let _ = std::fs::remove_dir_all(cache.dir());
    out.push(Metric::new("exp.cache_store_ns", quantile(&store, 0.5), "ns"));
    out.push(Metric::new("exp.cache_hit_ns", quantile(&hit, 0.5), "ns"));
}

/// `Sim::new` at the STAMP default memory size.
fn sim_new(iters: usize, out: &mut Vec<Metric>) {
    let mut per = Vec::new();
    for _ in 0..(iters / 64).max(3) {
        let cfg = SimConfig::new(Platform::IntelCore.config());
        let t = Instant::now();
        let sim = Sim::new(cfg);
        per.push(t.elapsed().as_secs_f64());
        drop(black_box(sim));
    }
    out.push(Metric::new("runtime.sim_new_s", quantile(&per, 0.5), "s"));
}

/// svc traffic generation for one svc-hot cell's parameters.
fn traffic_gen(iters: usize, out: &mut Vec<Metric>) {
    let params = crate::workload::svc_params(crate::workload::Size::FULL.svc_sessions);
    let mut per = Vec::new();
    for _ in 0..(iters / 256).max(3) {
        let t = Instant::now();
        let traffic = htm_svc::traffic::generate(&params, 42);
        per.push(t.elapsed().as_secs_f64());
        black_box(traffic);
    }
    out.push(Metric::new("svc.traffic_gen_s", quantile(&per, 0.5), "s"));
}
