//! The benchmark drives cells phase by phase; these tests pin that path to
//! the experiment engine's (`htm_exp::CellKind::compute`), so the harness
//! cannot drift from what the engine measures.

use htm_bench::trace::Tracer;
use htm_bench::workload::{Cell, StampCell, SvcCell, SVC_SKEW_PERMILLE};
use htm_exp::{CellKind, SvcMode};
use htm_machine::Platform;
use htm_runtime::FallbackPolicy;
use stamp::{BenchId, Scale, Variant};

#[test]
fn stamp_cells_match_the_engine() {
    let seed = 11;
    let mut cells: Vec<(Platform, BenchId, Scale)> =
        Platform::ALL.iter().flat_map(|&p| BenchId::ALL.map(|b| (p, b, Scale::Tiny))).collect();
    // Tiny inputs never exhaust a retry counter; yada at Sim scale does, so
    // the tuned retry policy is pinned too.
    cells.push((Platform::Power8, BenchId::Yada, Scale::Sim));
    for (platform, bench, scale) in cells {
        let cell = StampCell { platform, bench, threads: 1, scale, round: 0, seed };
        let o = Cell::Stamp(cell).run(&mut Tracer::new());
        assert_eq!(o.error, None);
        let stats = o.stats.expect("STAMP cells carry parallel-run stats");
        let engine = CellKind::Stamp(htm_exp::StampCell::tuned(
            platform,
            bench,
            Variant::Modified,
            1,
            scale,
            seed,
        ))
        .compute();
        let what = format!("{platform:?} {bench}");
        assert_eq!(engine.get("speedup"), o.seq_cycles as f64 / stats.cycles() as f64, "{what}");
        assert_eq!(engine.get("abort_ratio"), stats.abort_ratio(), "{what}");
        assert_eq!(engine.get("hw_commits"), stats.hw_commits() as f64, "{what}");
        assert_eq!(engine.get("irrevocable_commits"), stats.irrevocable_commits() as f64, "{what}");
        assert_eq!(engine.get("total_aborts"), stats.total_aborts() as f64, "{what}");
    }
}

#[test]
fn svc_cells_match_the_engine() {
    let (seed, sessions) = (5, 300);
    for platform in Platform::ALL {
        for fallback in [FallbackPolicy::Lock, FallbackPolicy::Stm] {
            let cell = SvcCell { platform, fallback, sessions, seed };
            let o = Cell::Svc(cell).run(&mut Tracer::new());
            assert_eq!(o.error, None);
            let stats = o.stats.expect("svc cells carry parallel-run stats");
            let engine = CellKind::Svc(htm_exp::SvcCell {
                platform,
                fallback,
                skew_permille: SVC_SKEW_PERMILLE,
                scale: Scale::Sim,
                sessions: Some(sessions),
                seed,
                mode: SvcMode::Measure,
            })
            .compute();
            let what = format!("{platform:?} {fallback:?}");
            let lat = stats.latency();
            assert_eq!(engine.get("seq_cycles"), o.seq_cycles as f64, "{what}");
            assert_eq!(engine.get("cycles"), stats.cycles() as f64, "{what}");
            assert_eq!(engine.get("requests"), o.requests as f64, "{what}");
            assert_eq!(engine.get("hw_commits"), stats.hw_commits() as f64, "{what}");
            assert_eq!(engine.get("stm_commits"), stats.stm_commits() as f64, "{what}");
            assert_eq!(engine.get("total_aborts"), stats.total_aborts() as f64, "{what}");
            for (name, pct) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0), ("p999", 99.9)] {
                assert_eq!(engine.get(name), lat.value_at(pct) as f64, "{what} {name}");
            }
        }
    }
}
