//! Golden tests: the ported specs reproduce the legacy `htm-bench`
//! binaries' behaviour.
//!
//! The simulator's parallel runs race real OS threads, so multi-threaded
//! cell *values* were never run-to-run reproducible (two invocations of
//! the legacy `fig2` binary already disagreed). What *is* deterministic is
//! pinned bit-for-bit here:
//!
//! * static tables (`table1`, `fig8`) against the legacy stdout,
//! * single-threaded measurement cells against a verbatim transliteration
//!   of the legacy harness loop,
//! * table rendering against a verbatim transliteration of the legacy
//!   `render_table`, fed from one shared set of measured cells, and
//! * cache semantics: a cached re-run serves identical results, a
//!   `--no-cache` run recomputes deterministic cells to the same values,
//!   and overlapping specs (fig2/fig3) share cells.

use htm_apps::QueueImpl;
use htm_exp::cell::{CellKind, StampCell, SvcCell, SvcMode};
use htm_exp::engine::compute_cells;
use htm_exp::sink::{f2, render_table_string};
use htm_exp::{specs, CellSpec, RunOpts};
use htm_machine::Platform;
use htm_runtime::{FallbackPolicy, FaultPlan};
use stamp::{BenchId, BenchParams, Scale, Variant};

/// The small golden grid from the issue: 2 benches × 2 platforms × {1,4}
/// threads, at tiny scale.
const GRID_BENCHES: [BenchId; 2] = [BenchId::Genome, BenchId::Ssca2];
const GRID_PLATFORMS: [Platform; 2] = [Platform::Zec12, Platform::Power8];
const GRID_THREADS: [u32; 2] = [1, 4];

fn no_cache_opts() -> RunOpts {
    RunOpts { use_cache: false, quiet: true, ..RunOpts::default() }
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("htm-exp-golden-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Verbatim transliteration of the legacy `htm_bench::run_cell` body
/// (crates/bench/src/lib.rs before the refactor), returning the speed-up
/// and abort ratio the legacy harness would have printed.
fn legacy_run_cell(
    platform: Platform,
    bench: BenchId,
    variant: Variant,
    threads: u32,
    scale: Scale,
    seed: u64,
    reps: u32,
) -> (f64, f64) {
    let machine = htm_exp::machine_for(platform, bench);
    let mut results = Vec::new();
    for rep in 0..reps {
        let params = BenchParams {
            threads,
            policy: htm_exp::tuned_policy(platform, bench),
            scale,
            seed: seed.wrapping_add(rep as u64 * 7919),
            use_hle: false,
            faults: FaultPlan::none(),
            certify: false,
            sanitize: false,
            fallback: FallbackPolicy::Lock,
        };
        results.push(stamp::run_bench(bench, variant, &machine, &params));
    }
    let n = results.len() as f64;
    (
        results.iter().map(|r| r.speedup()).sum::<f64>() / n,
        results.iter().map(|r| r.abort_ratio()).sum::<f64>() / n,
    )
}

/// Verbatim transliteration of the legacy `htm_bench::render_table`
/// (printing replaced by string assembly, nothing else changed).
fn legacy_render_table(title: &str, headers: &[String], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate().take(ncols) {
            if i == 0 {
                s.push_str(&format!("{:<w$}", c, w = widths[i]));
            } else {
                s.push_str(&format!("  {:>w$}", c, w = widths[i]));
            }
        }
        s
    };
    out.push_str(&format!("{}\n", line(headers)));
    out.push_str(&format!("{}\n", "-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1))));
    for row in rows {
        out.push_str(&format!("{}\n", line(row)));
    }
    out
}

#[test]
fn table1_renders_the_legacy_table_bit_for_bit() {
    let spec = specs::find("table1").unwrap();
    let run = htm_exp::run_spec(spec, &no_cache_opts());
    let expected = "\
== Table 1: HTM implementations ==
Processor type                                         Blue Gene/Q         zEC12  Intel Core i7-4770         POWER8
-------------------------------------------------------------------------------------------------------------------
Conflict-detection granularity                       8 - 128 bytes     256 bytes            64 bytes      128 bytes
Transactional-load capacity                  20 MB (1 MB per core)          1 MB                4 MB           8 KB
Transactional-store capacity                 20 MB (1 MB per core)          8 KB               22 KB           8 KB
L1 data cache                                         16 KB, 8-way  96 KB, 6-way        32 KB, 8-way          64 KB
L2 data cache                   32 MB, 16-way (shared by 16 cores)   1 MB, 8-way              256 KB  512 KB, 8-way
SMT level                                                        4          None                   2              8
Kinds of abort reasons                                           -            14                   6             11
Cores / GHz                                           16 @ 1.6 GHz  16 @ 5.5 GHz         4 @ 3.4 GHz    6 @ 4.1 GHz
";
    assert_eq!(run.sink.text, format!("\n{expected}"));
}

#[test]
fn fig8_listing_is_stable_and_points_at_fig9() {
    let spec = specs::find("fig8").unwrap();
    let run = htm_exp::run_spec(spec, &no_cache_opts());
    // The listing is static; pin its anchors rather than all 30 lines.
    assert!(run.sink.text.starts_with("== Figure 8(a): the original sequential loop =="));
    assert!(run.sink.text.contains("== Figure 8(b): ordered TLS with/without suspend-resume =="));
    assert!(run.sink.text.contains("if (NextIterToCommit != i) tabort();      // tx.abort_tx(1)"));
    assert!(run
        .sink
        .text
        .trim_end()
        .ends_with("abort-ratio collapse measured in Figure 9 (`htm-exp run fig9`)."));
}

#[test]
fn single_threaded_cells_match_the_legacy_harness_bit_for_bit() {
    // One worker thread removes the only nondeterminism (OS scheduling),
    // so the engine cell and the legacy loop must agree to the last bit.
    for bench in GRID_BENCHES {
        for platform in GRID_PLATFORMS {
            let cell = StampCell::tuned(platform, bench, Variant::Modified, 1, Scale::Tiny, 42);
            let got = CellKind::Stamp(cell).compute();
            let (speedup, abort_ratio) =
                legacy_run_cell(platform, bench, Variant::Modified, 1, Scale::Tiny, 42, 1);
            assert_eq!(got.get("speedup"), speedup, "{platform} {bench}");
            assert_eq!(got.get("abort_ratio"), abort_ratio, "{platform} {bench}");
        }
    }
}

#[test]
fn grid_tables_render_in_the_legacy_layout_bit_for_bit() {
    // Measure the small grid once through the engine, then render the same
    // results through the ported sink and through the transliterated
    // legacy renderer: the table strings must be identical.
    let cells: Vec<CellSpec> = GRID_BENCHES
        .iter()
        .flat_map(|&bench| {
            GRID_PLATFORMS.iter().flat_map(move |&platform| {
                GRID_THREADS.iter().map(move |&threads| {
                    CellSpec::new(
                        format!("{}-{}-{}t", bench.label(), platform.short_name(), threads),
                        CellKind::Stamp(StampCell::tuned(
                            platform,
                            bench,
                            Variant::Modified,
                            threads,
                            Scale::Tiny,
                            42,
                        )),
                    )
                })
            })
        })
        .collect();
    let (results, _) = compute_cells("golden", &cells, &no_cache_opts());

    let headers: Vec<String> =
        ["benchmark", "z12-1t", "z12-4t", "P8-1t", "P8-4t"].iter().map(|s| s.to_string()).collect();
    let mut rows = Vec::new();
    for (b, &bench) in GRID_BENCHES.iter().enumerate() {
        let mut row = vec![bench.label().to_string()];
        for (p, _) in GRID_PLATFORMS.iter().enumerate() {
            for (t, _) in GRID_THREADS.iter().enumerate() {
                row.push(f2(results[b * 4 + p * 2 + t].get("speedup")));
            }
        }
        rows.push(row);
    }
    assert_eq!(
        render_table_string("Speed-up over sequential", &headers, &rows),
        legacy_render_table("Speed-up over sequential", &headers, &rows),
    );
}

#[test]
fn cached_rerun_and_no_cache_run_agree_on_deterministic_cells() {
    // Single-threaded queue cells and sequential trace cells are
    // deterministic (multi-threaded cells race real OS threads and never
    // were reproducible, legacy binaries included), so all three paths
    // agree: cold compute, warm cache, and --no-cache recompute.
    let dir = temp_dir("determinism");
    let cells = vec![
        CellSpec::new(
            "q-1t",
            CellKind::Queue { imp: QueueImpl::OptRetryTm { retries: 4 }, threads: 1, ops: 50 },
        ),
        CellSpec::new(
            "trace-genome",
            CellKind::Trace {
                bench: BenchId::Genome,
                variant: Variant::Modified,
                scale: Scale::Tiny,
                seed: 42,
            },
        ),
    ];
    let cached_opts = RunOpts { cache_dir: dir.clone(), quiet: true, ..RunOpts::default() };
    let (cold, r1) = compute_cells("t", &cells, &cached_opts);
    let (warm, r2) = compute_cells("t", &cells, &cached_opts);
    let (fresh, r3) = compute_cells("t", &cells, &no_cache_opts());
    assert_eq!((r1.computed, r1.cached), (2, 0));
    assert_eq!((r2.computed, r2.cached), (0, 2));
    assert_eq!((r3.computed, r3.cached), (2, 0));
    assert_eq!(cold, warm);
    assert_eq!(cold, fresh);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_cache_entry_heals_and_recomputes_identically() {
    // Simulate a crash mid-write (or a torn sector): truncate one stored
    // entry, then re-run. The engine must quarantine the stump, recompute
    // the cell, and land on bit-identical results — never error out or
    // serve a poisoned value.
    let dir = temp_dir("heal");
    let cells = vec![
        CellSpec::new(
            "q-1t",
            CellKind::Queue { imp: QueueImpl::OptRetryTm { retries: 4 }, threads: 1, ops: 50 },
        ),
        CellSpec::new(
            "trace-genome",
            CellKind::Trace {
                bench: BenchId::Genome,
                variant: Variant::Modified,
                scale: Scale::Tiny,
                seed: 42,
            },
        ),
    ];
    let opts = RunOpts { cache_dir: dir.clone(), quiet: true, ..RunOpts::default() };
    let (cold, r1) = compute_cells("t", &cells, &opts);
    assert_eq!((r1.computed, r1.healed), (2, 0));

    let cache = htm_exp::ResultCache::new(&dir, true);
    let path = cache.path_for(&cells[0].kind.key());
    let text = std::fs::read_to_string(&path).expect("entry on disk");
    std::fs::write(&path, &text[..text.len() / 2]).expect("truncate entry");

    let (rerun, r2) = compute_cells("t", &cells, &opts);
    assert_eq!((r2.computed, r2.cached, r2.healed), (1, 1, 1));
    assert_eq!(cold, rerun);
    // The stump was quarantined aside, and the slot was re-stored intact.
    assert!(path.with_extension("json.corrupt").exists(), "stump quarantined");
    let (warm, r3) = compute_cells("t", &cells, &opts);
    assert_eq!((r3.computed, r3.cached, r3.healed), (0, 2, 0));
    assert_eq!(cold, warm);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn svc_tsv_renders_fixed_width_percentiles_bit_for_bit() {
    // The svc cells run under the deterministic round-robin scheduler, so
    // — unlike the STAMP grid — even multi-threaded service cells are
    // reproducible and the whole TSV pins bit-for-bit. Three things are
    // golden here: the row format (fixed 10-character right-aligned
    // percentile fields, transliterated verbatim below), agreement with a
    // cell recomputed outside the engine, and a second `--no-cache` run
    // landing on identical bytes.
    let opts = RunOpts {
        use_cache: false,
        quiet: true,
        svc_sessions: Some(40),
        svc_skew: Some(600),
        ..RunOpts::default()
    };
    let spec = specs::find("svc").unwrap();
    let run = htm_exp::run_spec(spec, &opts);
    let tsv = run.sink.tsv.iter().find(|f| f.name == "svc").expect("svc tsv emitted");
    assert_eq!(
        tsv.header,
        "platform\tfallback\tskew_permille\tsessions\trequests\tspeedup\tthroughput_rpmc\tp50\tp90\tp99\tp999"
    );
    assert_eq!(tsv.rows.len(), 16, "4 platforms x 4 tiers x 1 skew");
    for row in &tsv.rows {
        let fields: Vec<&str> = row.split('\t').collect();
        assert_eq!(fields.len(), 11, "row {row:?}");
        for field in &fields[7..] {
            assert_eq!(field.len(), 10, "percentile field {field:?} in {row:?}");
            assert!(
                field.trim_start().chars().all(|c| c.is_ascii_digit())
                    && !field.trim_start().is_empty(),
                "right-aligned integer, got {field:?}"
            );
        }
    }

    // Verbatim transliteration of the spec's TSV row for one cell,
    // recomputed directly (no engine, no cache).
    let cell = SvcCell {
        platform: Platform::IntelCore,
        fallback: FallbackPolicy::Lock,
        skew_permille: 600,
        scale: opts.scale,
        sessions: opts.svc_sessions,
        seed: opts.seed,
        mode: SvcMode::Measure,
    };
    let r = CellKind::Svc(cell).compute();
    let fixed = |x: f64| format!("{:>10}", x.round() as u64);
    let expected = format!(
        "intel\tlock\t600\t{}\t{}\t{:.4}\t{:.4}\t{}\t{}\t{}\t{}",
        r.get("sessions") as u64,
        r.get("requests") as u64,
        r.get("speedup"),
        r.get("throughput_rpmc"),
        fixed(r.get("p50")),
        fixed(r.get("p90")),
        fixed(r.get("p99")),
        fixed(r.get("p999")),
    );
    assert!(tsv.rows.contains(&expected), "expected row {expected:?} in {:?}", tsv.rows);

    let again = htm_exp::run_spec(spec, &opts);
    assert_eq!(run.sink.text, again.sink.text, "svc tables are bit-identical run to run");
    let tsv2 = again.sink.tsv.iter().find(|f| f.name == "svc").unwrap();
    assert_eq!(tsv.rows, tsv2.rows, "svc TSV is bit-identical run to run");
}

#[test]
fn fig3_reuses_the_grid_fig2_measured() {
    // fig2 and fig3 declare the same 40-cell grid; with a shared cache the
    // second spec computes nothing. Filter to one benchmark to keep the
    // test fast (4 platform cells).
    let dir = temp_dir("share");
    let opts = RunOpts {
        cache_dir: dir.clone(),
        scale: Scale::Tiny,
        scale_explicit: true,
        filter: Some("genome-".into()),
        quiet: true,
        ..RunOpts::default()
    };
    let fig2 = htm_exp::run_spec(specs::find("fig2").unwrap(), &opts);
    assert_eq!((fig2.report.total, fig2.report.computed, fig2.report.cached), (4, 4, 0));
    let fig3 = htm_exp::run_spec(specs::find("fig3").unwrap(), &opts);
    assert_eq!((fig3.report.total, fig3.report.computed, fig3.report.cached), (4, 0, 4));
    let _ = std::fs::remove_dir_all(&dir);
}
