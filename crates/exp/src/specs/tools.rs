//! Non-figure specs: the Table-1 parameter listing, the retry-count tuner,
//! the certifier-overhead measurement, and the workload linter.

use htm_analyze::lint;
use htm_apps::{QueueImpl, TlsKernel};
use htm_machine::Platform;
use htm_runtime::{FallbackPolicy, RetryPolicy};
use stamp::{BenchId, Scale, Variant};

use crate::cell::{platform_key, CellKind, CellSpec, StampCell, SvcCell, SvcMode};
use crate::sink::f2;
use crate::spec::ExperimentSpec;

fn bytes(b: u64) -> String {
    if b >= 1024 * 1024 {
        format!("{} MB", b / 1024 / 1024)
    } else {
        format!("{} KB", b / 1024)
    }
}

/// Table 1: the four platforms' HTM parameters (static — rendered from the
/// machine configurations, no cells to measure).
pub static TABLE1: ExperimentSpec = ExperimentSpec {
    name: "table1",
    title: "HTM implementation parameters of the four platforms",
    default_scale: None,
    build: |_opts| Vec::new(),
    render: |_opts, _set, sink| {
        let configs: Vec<_> = Platform::ALL.iter().map(|p| p.config()).collect();
        let headers: Vec<String> = std::iter::once("Processor type".to_string())
            .chain(configs.iter().map(|c| c.name.clone()))
            .collect();
        let row = |label: &str, f: &dyn Fn(&htm_machine::MachineConfig) -> String| {
            let mut r = vec![label.to_string()];
            r.extend(configs.iter().map(f));
            r
        };
        let rows = vec![
            row("Conflict-detection granularity", &|c| {
                if c.platform == Platform::BlueGeneQ {
                    "8 - 128 bytes".to_string()
                } else {
                    format!("{} bytes", c.granularity)
                }
            }),
            row("Transactional-load capacity", &|c| {
                if c.platform == Platform::BlueGeneQ {
                    format!("20 MB ({} per core)", bytes(c.load_capacity_bytes()))
                } else {
                    bytes(c.load_capacity_bytes())
                }
            }),
            row("Transactional-store capacity", &|c| {
                if c.platform == Platform::BlueGeneQ {
                    format!("20 MB ({} per core)", bytes(c.store_capacity_bytes()))
                } else {
                    bytes(c.store_capacity_bytes())
                }
            }),
            row("L1 data cache", &|c| c.l1_desc.clone()),
            row("L2 data cache", &|c| c.l2_desc.clone()),
            row("SMT level", &|c| if c.smt == 1 { "None".to_string() } else { c.smt.to_string() }),
            row("Kinds of abort reasons", &|c| {
                if c.abort_reason_kinds == 0 {
                    "-".to_string()
                } else {
                    c.abort_reason_kinds.to_string()
                }
            }),
            row("Cores / GHz", &|c| format!("{} @ {:.1} GHz", c.cores, c.ghz)),
        ];
        sink.table("Table 1: HTM implementations", &headers, &rows);
    },
};

const TUNE_GRID_SMALL: [u32; 3] = [1, 2, 4];
const TUNE_GRID_BIG: [u32; 3] = [2, 8, 16];

fn tune_id(bench: BenchId, platform: Platform, l: u32, p: u32, t: u32) -> String {
    format!("tune-{}-{}-l{l}-p{p}-t{t}", bench.label(), platform_key(platform))
}

/// Every (l, p, t) point the tuner evaluates for one cell, in legacy
/// iteration order (Blue Gene/Q has a single counter, so only its first
/// (l, p) combination is searched).
fn tune_points(platform: Platform) -> Vec<(u32, u32, u32)> {
    let is_bgq = platform == Platform::BlueGeneQ;
    let mut points = Vec::new();
    for &l in &TUNE_GRID_SMALL {
        for &p in &TUNE_GRID_SMALL {
            for &t in &TUNE_GRID_BIG {
                if is_bgq && (l != TUNE_GRID_SMALL[0] || p != TUNE_GRID_SMALL[0]) {
                    continue;
                }
                points.push((l, p, t));
            }
        }
    }
    points
}

/// The retry-count tuner: grid-searches the retry-counter maxima per
/// (platform × benchmark), the paper's Sections 3/5 methodology.
pub static TUNE: ExperimentSpec = ExperimentSpec {
    name: "tune",
    title: "retry-count grid search per (platform x benchmark)",
    default_scale: None,
    build: |opts| {
        let mut cells = Vec::new();
        for bench in BenchId::AVERAGED {
            for platform in Platform::ALL {
                for (l, p, t) in tune_points(platform) {
                    let mut c = StampCell::tuned(
                        platform,
                        bench,
                        Variant::Modified,
                        4,
                        opts.scale,
                        opts.seed,
                    );
                    c.policy = RetryPolicy {
                        lock_retries: l,
                        persistent_retries: p,
                        transient_retries: t,
                        bgq_retries: t,
                    };
                    cells
                        .push(CellSpec::new(tune_id(bench, platform, l, p, t), CellKind::Stamp(c)));
                }
            }
        }
        cells
    },
    render: |_opts, set, sink| {
        let headers: Vec<String> = ["cell", "lock", "persistent", "transient", "bgq", "speedup"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut rows = Vec::new();
        for bench in BenchId::AVERAGED {
            for platform in Platform::ALL {
                // Strict > in legacy point order: ties keep the earliest.
                let mut best = (RetryPolicy::default(), f64::MIN);
                for (l, p, t) in tune_points(platform) {
                    let speedup = set.get(&tune_id(bench, platform, l, p, t)).get("speedup");
                    if speedup > best.1 {
                        let pol = RetryPolicy {
                            lock_retries: l,
                            persistent_retries: p,
                            transient_retries: t,
                            bgq_retries: t,
                        };
                        best = (pol, speedup);
                    }
                }
                rows.push(vec![
                    format!("{bench} {}", platform.short_name()),
                    best.0.lock_retries.to_string(),
                    best.0.persistent_retries.to_string(),
                    best.0.transient_retries.to_string(),
                    best.0.bgq_retries.to_string(),
                    format!("{:.2}", best.1),
                ]);
            }
        }
        sink.table("Tuned retry counts (best speedup per cell)", &headers, &rows);
    },
};

const CERTIFY_PLATFORMS: [Platform; 2] = [Platform::IntelCore, Platform::Zec12];

/// Certifier overhead: every benchmark run plain and certified on Intel
/// and zEC12, reporting event/edge counts and host wall-time overhead.
/// (Host times are wall-clock, so this spec is inherently not
/// run-to-run deterministic; the simulated metrics are.)
pub static CERTIFY_OVERHEAD: ExperimentSpec = ExperimentSpec {
    name: "certify_overhead",
    title: "serializability-certifier overhead (certifier off vs on)",
    default_scale: None,
    build: |opts| {
        let mut cells = Vec::new();
        for platform in CERTIFY_PLATFORMS {
            for bench in BenchId::ALL {
                let c =
                    StampCell::tuned(platform, bench, Variant::Modified, 4, opts.scale, opts.seed);
                cells.push(CellSpec::new(
                    format!("cert-{}-{}", platform_key(platform), bench.label()),
                    CellKind::CertifyPair(c),
                ));
            }
        }
        cells
    },
    render: |_opts, set, sink| {
        let headers: Vec<String> =
            ["platform", "benchmark", "events", "edges", "violations", "host ovh%"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let mut rows = Vec::new();
        let mut tsv = Vec::new();
        for platform in CERTIFY_PLATFORMS {
            for bench in BenchId::ALL {
                let r = set.get(&format!("cert-{}-{}", platform_key(platform), bench.label()));
                let (events, edges, violations) = (
                    r.get("cert_events") as u64,
                    r.get("cert_edges") as u64,
                    r.get("cert_violations") as u64,
                );
                let overhead = r.get("cert_overhead_pct");
                rows.push(vec![
                    platform.to_string(),
                    bench.label().to_string(),
                    events.to_string(),
                    edges.to_string(),
                    violations.to_string(),
                    f2(overhead),
                ]);
                tsv.push(format!(
                    "{platform}\t{bench}\t{events}\t{edges}\t{violations}\t{overhead:.2}"
                ));
            }
        }
        sink.table("Certifier overhead (4 threads, certifier off vs on)", &headers, &rows);
        sink.tsv(
            "certify_overhead",
            "platform\tbench\tcert_events\tcert_edges\tviolations\thost_overhead_pct",
            tsv,
        );
    },
};

fn lint_id(bench: BenchId, platform: Platform, fallback: FallbackPolicy) -> String {
    match fallback {
        FallbackPolicy::Lock => format!("lint-{}-{}", bench.label(), platform_key(platform)),
        fb => format!("lint-{}-{}-{}", bench.label(), platform_key(platform), fb.key()),
    }
}

/// The lint grid: the classic lock-fallback sweep over every (bench ×
/// platform), plus the HyTM cells — each benchmark sanitized under the
/// NOrec STM tier (Intel model), the ROT tier (POWER8), and the adaptive
/// contention manager (Intel for the conflict ladder, POWER8 for the
/// capacity-spill tier).
fn lint_grid() -> Vec<(BenchId, Platform, FallbackPolicy)> {
    let mut grid = Vec::new();
    for bench in BenchId::ALL {
        for platform in Platform::ALL {
            grid.push((bench, platform, FallbackPolicy::Lock));
        }
        grid.push((bench, Platform::IntelCore, FallbackPolicy::Stm));
        grid.push((bench, Platform::Power8, FallbackPolicy::Rot));
        grid.push((bench, Platform::IntelCore, FallbackPolicy::Adaptive));
        grid.push((bench, Platform::Power8, FallbackPolicy::Adaptive));
    }
    grid
}

/// The svc lint cells: the brutal-contention service shape (tiny key
/// space under extreme skew, `htm_svc::lint_params`) sanitized on the two
/// word-granularity platforms — the grid where the hot-line and
/// excessive-retry rules have real traffic to fire on.
const SVC_LINT_PLATFORMS: [Platform; 2] = [Platform::IntelCore, Platform::Power8];

fn svc_lint_cell(platform: Platform, seed: u64) -> CellSpec {
    CellSpec::new(
        format!("lint-svc-{}", platform_key(platform)),
        CellKind::Svc(SvcCell {
            platform,
            fallback: FallbackPolicy::Lock,
            skew_permille: htm_svc::lint_params().skew_permille,
            scale: Scale::Tiny,
            sessions: None,
            seed,
            mode: SvcMode::Lint,
        }),
    )
}

/// The workload linter: race sanitizer + abort-blame/capacity analyzers +
/// rule engine over the full grid (including the hybrid-TM fallback
/// tiers); violations feed the CLI `--gate`.
pub static LINT: ExperimentSpec = ExperimentSpec {
    name: "lint",
    title: "workload lint: sanitizer + analyzers + rule gate (default scale: tiny)",
    // The legacy htm_lint defaulted to tiny (the sanitizer multiplies
    // run time); `--scale` still overrides.
    default_scale: Some(Scale::Tiny),
    build: |opts| {
        let mut cells: Vec<CellSpec> = lint_grid()
            .into_iter()
            .map(|(bench, platform, fallback)| {
                CellSpec::new(
                    lint_id(bench, platform, fallback),
                    CellKind::Lint {
                        bench,
                        platform,
                        variant: Variant::Modified,
                        threads: 8,
                        scale: opts.scale,
                        seed: opts.seed,
                        fallback,
                    },
                )
            })
            .collect();
        cells.extend(SVC_LINT_PLATFORMS.map(|p| svc_lint_cell(p, opts.seed)));
        cells
    },
    render: |_opts, set, sink| {
        let headers: Vec<String> = [
            "bench",
            "platform",
            "fallback",
            "commits",
            "aborts",
            "races",
            "cap-pred",
            "violations",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut rows = Vec::new();
        let mut violations = Vec::new();
        for (bench, platform, fallback) in lint_grid() {
            let r = set.get(&lint_id(bench, platform, fallback));
            rows.push(vec![
                bench.label().to_owned(),
                platform_key(platform).to_owned(),
                fallback.key().to_owned(),
                format!("{}", r.get("commits") as u64),
                format!("{}", r.get("aborts") as u64),
                format!("{}", r.get("races") as u64),
                format!("{:.0}%", r.get("cap_fraction") * 100.0),
                format!("{}", r.get("violations") as u64),
            ]);
            violations.extend(
                lint::report_from_json(r.get_note("violations"))
                    .expect("lint violation JSON round-trips"),
            );
        }
        for platform in SVC_LINT_PLATFORMS {
            let r = set.get(&format!("lint-svc-{}", platform_key(platform)));
            rows.push(vec![
                "svc".to_owned(),
                platform_key(platform).to_owned(),
                FallbackPolicy::Lock.key().to_owned(),
                format!("{}", r.get("commits") as u64),
                format!("{}", r.get("aborts") as u64),
                format!("{}", r.get("races") as u64),
                // The service store carves every key onto its own line, so
                // there is no footprint trace and no capacity prediction.
                "-".to_owned(),
                format!("{}", r.get("violations") as u64),
            ]);
            violations.extend(
                lint::report_from_json(r.get_note("violations"))
                    .expect("lint violation JSON round-trips"),
            );
        }
        sink.table("htm-lint", &headers, &rows);
        if violations.is_empty() {
            sink.raw("\nno lint violations\n");
        } else {
            sink.raw(&format!("\n{} violation(s):\n", violations.len()));
            for v in &violations {
                sink.raw(&format!("  {v}\n"));
            }
        }
        sink.json("htm_lint", lint::report_to_json(&violations));
        sink.report_violations(violations);
    },
};

/// The deterministic mini-grid behind `htm-exp run fabric_smoke`: every
/// cell is sequential or single-threaded, so the grid's results — and its
/// rendered table and TSV — are bit-identical run to run. That determinism
/// is what the fabric's chaos tests pin: a run that loses workers
/// mid-flight must produce output identical to a clean run.
pub static FABRIC_SMOKE: ExperimentSpec = ExperimentSpec {
    name: "fabric_smoke",
    title: "deterministic mini-grid for fabric and chaos verification",
    default_scale: Some(Scale::Tiny),
    build: |opts| {
        let mut cells = Vec::new();
        let queues = [
            ("lockfree", QueueImpl::LockFree),
            ("noretry", QueueImpl::NoRetryTm),
            ("optretry3", QueueImpl::OptRetryTm { retries: 3 }),
            ("constrained", QueueImpl::ConstrainedTm),
        ];
        for (label, imp) in queues {
            for ops in [40u64, 80] {
                cells.push(CellSpec::new(
                    format!("queue-{label}-o{ops}"),
                    CellKind::Queue { imp, threads: 1, ops },
                ));
            }
        }
        for bench in [BenchId::Genome, BenchId::Ssca2] {
            cells.push(CellSpec::new(
                format!("trace-{}", bench.label()),
                CellKind::Trace {
                    bench,
                    variant: Variant::Modified,
                    scale: opts.scale,
                    seed: opts.seed,
                },
            ));
        }
        for (label, kernel) in [("milc", TlsKernel::Milc), ("sphinx", TlsKernel::Sphinx)] {
            cells.push(CellSpec::new(
                format!("tls-{label}-seq"),
                CellKind::Tls { kernel, threads: 0, suspend: false, iters: 64 },
            ));
        }
        cells
    },
    render: |_opts, set, sink| {
        let headers: Vec<String> =
            ["cell", "metric", "value"].iter().map(|s| s.to_string()).collect();
        let mut rows = Vec::new();
        let mut tsv = Vec::new();
        for (cell, result) in set.iter() {
            for (metric, value) in &result.metrics {
                rows.push(vec![cell.id.clone(), metric.clone(), f2(*value)]);
                tsv.push(format!("{}\t{}\t{}", cell.id, metric, f2(*value)));
            }
        }
        sink.table("fabric smoke (deterministic grid)", &headers, &rows);
        sink.tsv("fabric_smoke", "cell\tmetric\tvalue", tsv);
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn svc_lint_cells_fire_contention_rules_without_races() {
        // The brutal-contention service shape must trip both abort-blame
        // rules — the Zipf head concentrates conflicts on one line
        // (hot-line) and the retry storm burns aborted blocks well past
        // the threshold (excessive-retry) — while staying sanitizer-clean
        // (the non-transactional queue handoff is fetch-add based).
        let spec = svc_lint_cell(Platform::IntelCore, 42);
        let r = spec.kind.compute();
        assert_eq!(r.get("races"), 0.0, "svc handoff must be race-free");
        let report = htm_analyze::lint::report_from_json(r.get_note("violations"))
            .expect("violations note parses");
        let rules: Vec<htm_analyze::Rule> = report.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&htm_analyze::Rule::ExcessiveRetry), "got {rules:?}");
        assert!(rules.contains(&htm_analyze::Rule::HotLine), "got {rules:?}");
    }
}
