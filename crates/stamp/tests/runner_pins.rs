//! Runner pins: every way the crate runs a STAMP cell, pinned exactly.
//!
//! Each group folds one runner's results over all 10 benchmarks x both
//! variants x the 4 platforms, at `Scale::Tiny` on one worker, into an
//! FNV-64 hash: every `RunStats::counters()` total, the cycles, the
//! per-category aborts and, for full measurements, the sequential cycles.
//! One worker makes every value a pure function of the code, cycles
//! included. The svc blame cell runs its workers under the round-robin
//! scheduler, so it is exact too. The expected hashes were captured once
//! and are not to be re-blessed: a change that moves any simulated result
//! of a runner fails here and names the runner.

use htm_core::AbortCategory;
use htm_machine::Platform;
use htm_runtime::{FallbackPolicy, FaultPlan, RetryPolicy, RunStats, SeqTracer};
use stamp::{BenchId, BenchParams, Scale, Variant};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, v: u64) -> u64 {
    v.to_le_bytes().iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Folds every counter total, the cycles and the per-category aborts.
fn fold_stats(h: u64, stats: &RunStats) -> u64 {
    let h = stats.counters().fold(h, |h, (_, v)| fnv(h, v));
    let h = fnv(h, stats.cycles());
    AbortCategory::ALL.iter().fold(h, |h, &c| fnv(h, stats.aborts_in(c)))
}

/// Trace granularities: a word and the four platforms' line sizes.
const GRANS: [u32; 4] = [8, 64, 128, 256];

/// Folds the p90 load and store bytes and every block's line-set sizes at
/// each granularity.
fn fold_tracer(h: u64, tracer: &SeqTracer) -> u64 {
    (0..GRANS.len()).fold(h, |h, i| {
        let h = fnv(fnv(h, tracer.p90_load_bytes(i)), tracer.p90_store_bytes(i));
        tracer
            .line_sets(i)
            .iter()
            .fold(h, |h, (loads, stores)| fnv(fnv(h, loads.len() as u64), stores.len() as u64))
    })
}

const VARIANTS: [Variant; 2] = [Variant::Original, Variant::Modified];

/// Folds `run` over every (platform, benchmark, variant) cell.
fn fold_cells(platforms: &[Platform], run: impl Fn(u64, Platform, BenchId, Variant) -> u64) -> u64 {
    let mut h = FNV_OFFSET;
    for &p in platforms {
        for id in BenchId::ALL {
            for v in VARIANTS {
                h = run(h, p, id, v);
            }
        }
    }
    h
}

fn tiny() -> BenchParams {
    BenchParams { threads: 1, scale: Scale::Tiny, ..Default::default() }
}

/// A begin-fault plan: transient and capacity aborts at begin.
fn begin_faults() -> FaultPlan {
    FaultPlan::none().seed(0xB16).transient_abort_per_begin(0.3).capacity_abort_per_begin(0.1)
}

/// `run_bench` over every cell with `params`.
fn run_bench_group(platforms: &[Platform], params: BenchParams) -> u64 {
    fold_cells(platforms, |h, p, id, v| {
        let r = stamp::run_bench(id, v, &p.config(), &params);
        fnv(fold_stats(h, &r.stats), r.seq_cycles)
    })
}

/// Compares computed group hashes against the pinned ones, naming every
/// group that moved.
fn check_pins(actual: &[(&str, u64)], expected: &[(&str, u64)]) {
    let moved: Vec<String> = actual
        .iter()
        .filter(|a| !expected.contains(a))
        .map(|(g, h)| format!("    (\"{g}\", {h:#018x}),"))
        .collect();
    assert!(
        moved.is_empty() && actual.len() == expected.len(),
        "{} of {} runner groups moved (computed values):\n{}",
        moved.len(),
        expected.len(),
        moved.join("\n")
    );
}

const RUN_BENCH_PINS: &[(&str, u64)] = &[
    ("run_bench/default", 0x5329988951b039e1),
    ("run_bench/certify", 0x5329988951b039e1),
    ("run_bench/sanitize", 0x5329988951b039e1),
    ("run_bench/faults", 0x897ed15b19f7a9d2),
    ("run_bench/stm", 0xf68f119440924095),
    ("run_bench/hle", 0x697fc46701d965c9),
];

#[test]
fn run_bench_is_pinned_under_every_param_set() {
    let all = &Platform::ALL[..];
    let actual = [
        ("run_bench/default", run_bench_group(all, tiny())),
        ("run_bench/certify", run_bench_group(all, BenchParams { certify: true, ..tiny() })),
        ("run_bench/sanitize", run_bench_group(all, BenchParams { sanitize: true, ..tiny() })),
        (
            "run_bench/faults",
            run_bench_group(all, BenchParams { faults: begin_faults(), ..tiny() }),
        ),
        (
            "run_bench/stm",
            run_bench_group(all, BenchParams { fallback: FallbackPolicy::Stm, ..tiny() }),
        ),
        (
            "run_bench/hle",
            run_bench_group(&[Platform::IntelCore], BenchParams { use_hle: true, ..tiny() }),
        ),
    ];
    check_pins(&actual, RUN_BENCH_PINS);
}

const ORACLE_AND_TRACE_PINS: &[(&str, u64)] = &[
    ("run_bench_oracle", 0x90adcb5c0654da7d),
    ("trace_bench", 0x7d541315d8114f04),
    ("trace_line_sets", 0x8d178abf4a385954),
];

#[test]
fn oracle_and_trace_runners_are_pinned() {
    let all = &Platform::ALL[..];
    let oracle = fold_cells(all, |h, p, id, v| {
        fold_stats(h, &stamp::run_bench_oracle(id, v, &p.config(), &tiny()))
    });
    let trace = fold_cells(all, |h, p, id, v| {
        fold_tracer(h, &stamp::trace_bench(id, v, &p.config(), Scale::Tiny, &GRANS, 42))
    });
    let line_sets = fold_cells(all, |h, p, id, v| {
        let machine = p.config();
        let make = stamp::workload_factory(id, v, &machine, Scale::Tiny, 42);
        fold_tracer(h, &stamp::trace_line_sets(&|| make(), &machine, &GRANS, 42))
    });
    let actual =
        [("run_bench_oracle", oracle), ("trace_bench", trace), ("trace_line_sets", line_sets)];
    check_pins(&actual, ORACLE_AND_TRACE_PINS);
}

const BLAME_PINS: &[(&str, u64)] =
    &[("blame_hot_keys/stats", 0xc4e3e69a87e40260), ("blame_hot_keys/keys", 0x6a39e967505aaf50)];

#[test]
fn svc_blame_cell_is_pinned() {
    let params = htm_svc::SvcParams {
        sessions: 400,
        keys_per_shard: 32,
        skew_permille: 1400,
        mean_gap: 150,
        ..Default::default()
    };
    let (stats, hot) = htm_svc::blame_hot_keys(
        &params,
        &Platform::IntelCore.config(),
        RetryPolicy::default(),
        9,
        FallbackPolicy::Lock,
    );
    assert!(!hot.is_empty(), "skewed traffic must surface hot keys");
    let keys =
        hot.iter().fold(FNV_OFFSET, |h, k| fnv(fnv(fnv(h, k.key), k.line.0 as u64), k.conflicts));
    let actual =
        [("blame_hot_keys/stats", fold_stats(FNV_OFFSET, &stats)), ("blame_hot_keys/keys", keys)];
    check_pins(&actual, BLAME_PINS);
}
