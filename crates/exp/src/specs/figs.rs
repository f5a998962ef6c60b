//! Figure specs 2–11: the paper's measurement figures as declarative
//! grids. Renders reproduce the legacy binaries' tables and TSV bit for
//! bit.

use htm_apps::{QueueImpl, TlsKernel};
use htm_machine::Platform;
use stamp::{BenchId, Scale, Variant};

use super::{grid_cell, grid_id};
use crate::cell::{CellKind, CellSpec, StampCell};
use crate::grid::{geomean, machine_for};
use crate::sink::{f2, pct};
use crate::spec::ExperimentSpec;

/// Figure 2: 4-thread speed-ups (modified STAMP, all platforms), plus the
/// Section-5.1 serialization ratios.
pub static FIG2: ExperimentSpec = ExperimentSpec {
    name: "fig2",
    title: "4-thread speed-up over sequential (modified STAMP)",
    default_scale: None,
    build: |opts| {
        let mut cells = Vec::new();
        for bench in BenchId::ALL {
            for platform in Platform::ALL {
                cells.push(grid_cell(opts, bench, platform, Variant::Modified, 4));
            }
        }
        cells
    },
    render: |_opts, set, sink| {
        let mut headers = vec!["benchmark".to_string()];
        headers.extend(Platform::ALL.iter().map(|p| p.short_name().to_string()));
        let mut rows = Vec::new();
        let mut tsv = Vec::new();
        let mut per_platform: Vec<Vec<f64>> = vec![Vec::new(); 4];
        let mut serial_rows = Vec::new();
        for bench in BenchId::ALL {
            let mut row = vec![bench.label().to_string()];
            let mut srow = vec![bench.label().to_string()];
            for (pi, platform) in Platform::ALL.iter().enumerate() {
                let r = set.get(&grid_id(bench, *platform, Variant::Modified, 4));
                let (speedup, abort, serial) =
                    (r.get("speedup"), r.get("abort_ratio"), r.get("serialization"));
                row.push(f2(speedup));
                srow.push(pct(serial));
                tsv.push(format!("{bench}\t{platform}\t{speedup:.4}\t{abort:.4}\t{serial:.4}"));
                // bayes is excluded from the geomean (nondeterministic).
                if bench != BenchId::Bayes {
                    per_platform[pi].push(speedup);
                }
            }
            rows.push(row);
            serial_rows.push(srow);
        }
        let mut gm = vec!["geomean (excl. bayes)".to_string()];
        for speedups in &per_platform {
            gm.push(f2(geomean(speedups)));
        }
        rows.push(gm);
        sink.table("Figure 2: 4-thread speed-up over sequential (modified STAMP)", &headers, &rows);
        sink.table("Section 5.1: serialization ratios (%)", &headers, &serial_rows);
        sink.tsv("fig2", "bench\tplatform\tspeedup\tabort_ratio\tserialization", tsv);
    },
};

/// Figure 3: abort-ratio breakdown with 4 threads.
pub static FIG3: ExperimentSpec = ExperimentSpec {
    name: "fig3",
    title: "abort-ratio breakdown, 4 threads (modified STAMP)",
    default_scale: None,
    // The same grid as fig2 — identical cell keys, so the cache shares
    // results between the two specs.
    build: |opts| {
        let mut cells = Vec::new();
        for bench in BenchId::ALL {
            for platform in Platform::ALL {
                cells.push(grid_cell(opts, bench, platform, Variant::Modified, 4));
            }
        }
        cells
    },
    render: |_opts, set, sink| {
        let headers: Vec<String> = [
            "bench/platform",
            "capacity%",
            "conflict%",
            "other%",
            "lock%",
            "unclassified%",
            "total%",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut rows = Vec::new();
        let mut tsv = Vec::new();
        for bench in BenchId::ALL {
            for platform in Platform::ALL {
                let r = set.get(&grid_id(bench, platform, Variant::Modified, 4));
                let shares = [
                    r.get("share_capacity"),
                    r.get("share_conflict"),
                    r.get("share_other"),
                    r.get("share_lock"),
                    r.get("share_unclassified"),
                ];
                let total = r.get("abort_ratio");
                let mut row = vec![format!("{bench} {}", platform.short_name())];
                for share in shares {
                    row.push(pct(share));
                }
                row.push(pct(total));
                tsv.push(format!(
                    "{bench}\t{platform}\t{:.4}\t{:.4}\t{:.4}\t{:.4}\t{:.4}\t{total:.4}",
                    shares[0], shares[1], shares[2], shares[3], shares[4]
                ));
                rows.push(row);
            }
        }
        sink.table("Figure 3: abort-ratio breakdown, 4 threads (modified STAMP)", &headers, &rows);
        sink.tsv(
            "fig3",
            "bench\tplatform\tcapacity\tconflict\tother\tlock\tunclassified\ttotal",
            tsv,
        );
    },
};

/// Figure 4: original vs modified STAMP speed-ups.
pub static FIG4: ExperimentSpec = ExperimentSpec {
    name: "fig4",
    title: "original vs modified STAMP (4 threads)",
    default_scale: None,
    build: |opts| {
        let mut cells = Vec::new();
        for bench in BenchId::MODIFIED_SET {
            for platform in Platform::ALL {
                cells.push(grid_cell(opts, bench, platform, Variant::Original, 4));
                cells.push(grid_cell(opts, bench, platform, Variant::Modified, 4));
            }
        }
        // The unmodified benchmarks enter the geomean rows only.
        for bench in [BenchId::Labyrinth, BenchId::Ssca2, BenchId::Yada] {
            for platform in Platform::ALL {
                cells.push(grid_cell(opts, bench, platform, Variant::Modified, 4));
            }
        }
        cells
    },
    render: |_opts, set, sink| {
        let headers: Vec<String> = ["bench/platform", "original", "modified", "gain"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut rows = Vec::new();
        let mut tsv = Vec::new();
        // Per (platform, variant) speed-up vectors, filled in the legacy
        // push order so the geomean's log-sum is bit-identical.
        let mut gm: std::collections::HashMap<(Platform, Variant), Vec<f64>> =
            std::collections::HashMap::new();
        for bench in BenchId::MODIFIED_SET {
            for platform in Platform::ALL {
                let o = set.get(&grid_id(bench, platform, Variant::Original, 4)).get("speedup");
                let m = set.get(&grid_id(bench, platform, Variant::Modified, 4)).get("speedup");
                rows.push(vec![
                    format!("{bench} {}", platform.short_name()),
                    f2(o),
                    f2(m),
                    format!("{:.2}x", m / o.max(1e-9)),
                ]);
                tsv.push(format!("{bench}\t{platform}\t{o:.4}\t{m:.4}"));
                gm.entry((platform, Variant::Original)).or_default().push(o);
                gm.entry((platform, Variant::Modified)).or_default().push(m);
            }
        }
        // Geomean rows include the unmodified benchmarks too (paper: "the
        // geometric means are for all of the programs").
        for bench in [BenchId::Labyrinth, BenchId::Ssca2, BenchId::Yada] {
            for platform in Platform::ALL {
                let s = set.get(&grid_id(bench, platform, Variant::Modified, 4)).get("speedup");
                gm.entry((platform, Variant::Original)).or_default().push(s);
                gm.entry((platform, Variant::Modified)).or_default().push(s);
            }
        }
        for platform in Platform::ALL {
            let o = geomean(&gm[&(platform, Variant::Original)]);
            let m = geomean(&gm[&(platform, Variant::Modified)]);
            rows.push(vec![
                format!("geomean {}", platform.short_name()),
                f2(o),
                f2(m),
                format!("{:.2}x", m / o.max(1e-9)),
            ]);
            tsv.push(format!("geomean\t{platform}\t{o:.4}\t{m:.4}"));
        }
        sink.table("Figure 4: original vs modified STAMP (4 threads)", &headers, &rows);
        sink.tsv("fig4", "bench\tplatform\toriginal\tmodified", tsv);
    },
};

const FIG5_THREADS: [u32; 5] = [1, 2, 4, 8, 16];

/// Figure 5: thread scalability per benchmark.
pub static FIG5: ExperimentSpec = ExperimentSpec {
    name: "fig5",
    title: "scalability with 1-16 threads (modified STAMP)",
    default_scale: None,
    build: |opts| {
        let mut cells = Vec::new();
        for bench in BenchId::ALL {
            for platform in Platform::ALL {
                let hw = machine_for(platform, bench).hw_threads();
                for t in FIG5_THREADS {
                    if t <= hw {
                        cells.push(grid_cell(opts, bench, platform, Variant::Modified, t));
                    }
                }
            }
        }
        cells
    },
    render: |_opts, set, sink| {
        let mut tsv = Vec::new();
        for bench in BenchId::ALL {
            let mut headers = vec!["platform".to_string()];
            headers.extend(FIG5_THREADS.iter().map(|t| format!("{t}T")));
            let mut rows = Vec::new();
            for platform in Platform::ALL {
                let hw = machine_for(platform, bench).hw_threads();
                let mut row = vec![platform.short_name().to_string()];
                for t in FIG5_THREADS {
                    if t > hw {
                        row.push("-".to_string());
                        continue;
                    }
                    let r = set.get(&grid_id(bench, platform, Variant::Modified, t));
                    row.push(f2(r.get("speedup")));
                    tsv.push(format!(
                        "{bench}\t{platform}\t{t}\t{:.4}\t{:.4}\t{:.4}",
                        r.get("speedup"),
                        r.get("abort_ratio"),
                        r.get("serialization")
                    ));
                }
                rows.push(row);
            }
            sink.table(&format!("Figure 5: {bench} scalability"), &headers, &rows);
        }
        sink.tsv("fig5", "bench\tplatform\tthreads\tspeedup\tabort_ratio\tserialization", tsv);
    },
};

const FIG6_THREADS: [u32; 5] = [1, 2, 4, 8, 16];
// "Opt" means tuned: pick the best retry count per thread count, as the
// paper did.
const FIG6_RETRY_GRID: [u32; 4] = [1, 2, 4, 8];

fn fig6_ops(scale: Scale) -> u64 {
    match scale {
        Scale::Tiny => 200,
        Scale::Sim => 2000,
        Scale::Full => 20_000,
    }
}

fn queue_id(imp: QueueImpl, threads: u32) -> String {
    let label = match imp {
        QueueImpl::LockFree => "lockfree".to_string(),
        QueueImpl::NoRetryTm => "noretry".to_string(),
        QueueImpl::OptRetryTm { retries } => format!("optretry{retries}"),
        QueueImpl::ConstrainedTm => "constrained".to_string(),
    };
    format!("queue-{label}-{threads}t")
}

/// Figure 6: queue implementations vs the lock-free baseline on zEC12.
pub static FIG6: ExperimentSpec = ExperimentSpec {
    name: "fig6",
    title: "queue vs lock-free baseline on zEC12 (1-16 threads)",
    default_scale: None,
    build: |opts| {
        let ops = fig6_ops(opts.scale);
        let mut cells = Vec::new();
        let mut push = |imp: QueueImpl, threads: u32| {
            cells
                .push(CellSpec::new(queue_id(imp, threads), CellKind::Queue { imp, threads, ops }));
        };
        for t in FIG6_THREADS {
            push(QueueImpl::LockFree, t);
        }
        for t in FIG6_THREADS {
            push(QueueImpl::NoRetryTm, t);
        }
        for t in FIG6_THREADS {
            for r in FIG6_RETRY_GRID {
                push(QueueImpl::OptRetryTm { retries: r }, t);
            }
        }
        for t in FIG6_THREADS {
            push(QueueImpl::ConstrainedTm, t);
        }
        cells
    },
    render: |_opts, set, sink| {
        let mut headers = vec!["implementation".to_string()];
        headers.extend(FIG6_THREADS.iter().map(|t| format!("{t}T")));
        let mut rows = Vec::new();
        let mut tsv = Vec::new();
        let baselines: Vec<f64> = FIG6_THREADS
            .iter()
            .map(|&t| set.get(&queue_id(QueueImpl::LockFree, t)).get("cycles"))
            .collect();
        for which in ["NoRetryTM", "OptRetryTM", "ConstrainedTM"] {
            let mut row = vec![which.to_string()];
            for (i, &t) in FIG6_THREADS.iter().enumerate() {
                let rel = match which {
                    "OptRetryTM" => FIG6_RETRY_GRID
                        .iter()
                        .map(|&r| {
                            set.get(&queue_id(QueueImpl::OptRetryTm { retries: r }, t))
                                .get("cycles")
                                / baselines[i]
                        })
                        .fold(f64::INFINITY, f64::min),
                    "NoRetryTM" => {
                        set.get(&queue_id(QueueImpl::NoRetryTm, t)).get("cycles") / baselines[i]
                    }
                    _ => {
                        set.get(&queue_id(QueueImpl::ConstrainedTm, t)).get("cycles") / baselines[i]
                    }
                };
                row.push(format!("{rel:.2}"));
                tsv.push(format!("{which}\t{t}\t{rel:.4}"));
            }
            rows.push(row);
        }
        sink.table(
            "Figure 6: execution time relative to the lock-free queue (zEC12; lower is better)",
            &headers,
            &rows,
        );
        sink.tsv("fig6", "impl\tthreads\trelative_time", tsv);
    },
};

/// Figure 7: RTM vs HLE on Intel Core.
pub static FIG7: ExperimentSpec = ExperimentSpec {
    name: "fig7",
    title: "RTM vs HLE on Intel Core (4 threads)",
    default_scale: None,
    build: |opts| {
        let mut cells = Vec::new();
        for bench in BenchId::ALL {
            cells.push(grid_cell(opts, bench, Platform::IntelCore, Variant::Modified, 4));
            // HLE has no software retry and the legacy binary ran it once
            // (no --reps averaging, no certifier).
            let hle = StampCell::tuned(
                Platform::IntelCore,
                bench,
                Variant::Modified,
                4,
                opts.scale,
                opts.seed,
            );
            cells.push(CellSpec::new(format!("hle-{}", bench.label()), CellKind::Hle(hle)));
        }
        cells
    },
    render: |_opts, set, sink| {
        let headers: Vec<String> =
            ["benchmark", "RTM", "HLE", "HLE/RTM"].iter().map(|s| s.to_string()).collect();
        let mut rows = Vec::new();
        let mut tsv = Vec::new();
        let (mut rtms, mut hles) = (Vec::new(), Vec::new());
        for bench in BenchId::ALL {
            let rtm =
                set.get(&grid_id(bench, Platform::IntelCore, Variant::Modified, 4)).get("speedup");
            let hle = set.get(&format!("hle-{}", bench.label())).get("speedup");
            rows.push(vec![
                bench.label().to_string(),
                f2(rtm),
                f2(hle),
                format!("{:.0}%", 100.0 * hle / rtm.max(1e-9)),
            ]);
            tsv.push(format!("{bench}\t{rtm:.4}\t{hle:.4}"));
            if bench != BenchId::Bayes {
                rtms.push(rtm);
                hles.push(hle);
            }
        }
        let (g_rtm, g_hle) = (geomean(&rtms), geomean(&hles));
        rows.push(vec![
            "geomean (excl. bayes)".to_string(),
            f2(g_rtm),
            f2(g_hle),
            format!("{:.0}%", 100.0 * g_hle / g_rtm),
        ]);
        sink.table("Figure 7: RTM vs HLE on Intel Core (4 threads)", &headers, &rows);
        sink.tsv("fig7", "bench\trtm\thle", tsv);
    },
};

/// Figure 8: the TLS loop-transformation listing (static text, not a
/// measurement — the paper's Figure 8 is a code listing).
pub static FIG8: ExperimentSpec = ExperimentSpec {
    name: "fig8",
    title: "TLS loop transformation listing (POWER8 suspend/resume)",
    default_scale: None,
    build: |_opts| Vec::new(),
    render: |_opts, _set, sink| {
        sink.raw(concat!(
            "== Figure 8(a): the original sequential loop ==\n\n",
            "    for (i = 0; i < N; i++) {\n",
            "        // Loop body\n",
            "    }\n\n",
            "== Figure 8(b): ordered TLS with/without suspend-resume ==\n\n",
            "    for (i = tid; i < N; i += NumThreads) {      // TlsLoop::run_tls\n",
            "    retry:                                        // run_iteration loop\n",
            "        if (NextIterToCommit != i) {              // fast path check\n",
            "            tbegin();                             // try_hardware\n",
            "            if (isTransactionAborted()) goto retry;\n",
            "        }\n",
            "        // Loop body                              // TlsLoop::body\n",
            "        [dark grey — without suspend/resume:]\n",
            "        if (NextIterToCommit != i) tabort();      // tx.abort_tx(1)\n",
            "        [light grey — with suspend/resume:]\n",
            "        suspend();                                // tx.suspend()\n",
            "        while (NextIterToCommit != i) ;           // non-tx spin, no conflict\n",
            "        resume();                                 // tx.resume()\n",
            "        if (isInTM()) tend();                     // commit_hw\n",
            "        NextIterToCommit = i + 1;                 // ctx.write_word\n",
            "    }\n\n",
            "The dark-grey variant aborts every waiting successor whenever the\n",
            "predecessor publishes NextIterToCommit; the light-grey variant\n",
            "waits outside the transaction and commits immediately — the\n",
            "abort-ratio collapse measured in Figure 9 (`htm-exp run fig9`).\n",
        ));
    },
};

fn fig9_iters(scale: Scale) -> u32 {
    match scale {
        Scale::Tiny => 64,
        Scale::Sim => 1024,
        Scale::Full => 8192,
    }
}

fn tls_id(kernel: TlsKernel, threads: u32, suspend: bool) -> String {
    let k = match kernel {
        TlsKernel::Milc => "milc",
        TlsKernel::Sphinx => "sphinx",
    };
    if threads == 0 {
        format!("tls-{k}-seq")
    } else {
        format!("tls-{k}-{}-{threads}t", if suspend { "suspend" } else { "abort" })
    }
}

/// Figure 9: TLS speed-ups with and without suspend/resume on POWER8.
pub static FIG9: ExperimentSpec = ExperimentSpec {
    name: "fig9",
    title: "TLS on POWER8 with/without suspend-resume (1-6 threads)",
    default_scale: None,
    build: |opts| {
        let iters = fig9_iters(opts.scale);
        let mut cells = Vec::new();
        for kernel in [TlsKernel::Milc, TlsKernel::Sphinx] {
            cells.push(CellSpec::new(
                tls_id(kernel, 0, false),
                CellKind::Tls { kernel, threads: 0, suspend: false, iters },
            ));
            for suspend in [false, true] {
                for threads in 1..=6u32 {
                    cells.push(CellSpec::new(
                        tls_id(kernel, threads, suspend),
                        CellKind::Tls { kernel, threads, suspend, iters },
                    ));
                }
            }
        }
        cells
    },
    render: |_opts, set, sink| {
        let mut tsv = Vec::new();
        for kernel in [TlsKernel::Milc, TlsKernel::Sphinx] {
            let mut headers = vec!["variant".to_string()];
            headers.extend((1..=6u32).map(|t| format!("{t}T")));
            let mut rows = Vec::new();
            let seq = set.get(&tls_id(kernel, 0, false));
            let (seq_cycles, seq_sum) = (seq.get("cycles"), seq.get_note("sum"));
            for use_suspend in [false, true] {
                let label =
                    if use_suspend { "with suspend/resume" } else { "without suspend/resume" };
                let mut row = vec![label.to_string()];
                for t in 1..=6u32 {
                    let r = set.get(&tls_id(kernel, t, use_suspend));
                    assert_eq!(
                        r.get_note("sum"),
                        seq_sum,
                        "TLS must preserve sequential semantics"
                    );
                    let speedup = seq_cycles / r.get("cycles");
                    let aborts = r.get("abort_ratio");
                    row.push(format!("{speedup:.2}"));
                    tsv.push(format!("{kernel}\t{use_suspend}\t{t}\t{speedup:.4}\t{aborts:.4}"));
                }
                rows.push(row);
            }
            sink.table(&format!("Figure 9: TLS on POWER8 — {kernel}"), &headers, &rows);
        }
        sink.tsv("fig9", "kernel\tsuspend\tthreads\tspeedup\tabort_ratio", tsv);
    },
};

/// Figures 10 & 11: p90 transactional footprints vs abort ratios.
pub static FIG10_11: ExperimentSpec = ExperimentSpec {
    name: "fig10_11",
    title: "p90 transactional sizes vs abort ratios",
    default_scale: None,
    build: |opts| {
        let mut cells = Vec::new();
        for bench in BenchId::AVERAGED {
            cells.push(CellSpec::new(
                format!("trace-{}", bench.label()),
                CellKind::Trace {
                    bench,
                    variant: Variant::Modified,
                    scale: opts.scale,
                    seed: opts.seed,
                },
            ));
            for platform in Platform::ALL {
                cells.push(grid_cell(opts, bench, platform, Variant::Modified, 4));
            }
        }
        cells
    },
    render: |_opts, set, sink| {
        let headers: Vec<String> =
            ["bench/platform", "p90 load", "p90 store", "abort%", "load cap", "store cap"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let mut rows = Vec::new();
        let mut tsv = Vec::new();
        for bench in BenchId::AVERAGED {
            let trace = set.get(&format!("trace-{}", bench.label()));
            for platform in Platform::ALL {
                let machine = machine_for(platform, bench);
                let abort =
                    set.get(&grid_id(bench, platform, Variant::Modified, 4)).get("abort_ratio");
                let p90l =
                    trace.get(&format!("p90_load_{}", crate::cell::platform_key(platform))) as u64;
                let p90s =
                    trace.get(&format!("p90_store_{}", crate::cell::platform_key(platform))) as u64;
                rows.push(vec![
                    format!("{bench} {}", platform.short_name()),
                    format!("{:.1} KB", p90l as f64 / 1024.0),
                    format!("{:.2} KB", p90s as f64 / 1024.0),
                    pct(abort),
                    format!("{:.0} KB", machine.load_capacity_bytes() as f64 / 1024.0),
                    format!("{:.0} KB", machine.store_capacity_bytes() as f64 / 1024.0),
                ]);
                tsv.push(format!(
                    "{bench}\t{platform}\t{p90l}\t{p90s}\t{abort:.4}\t{}\t{}",
                    machine.load_capacity_bytes(),
                    machine.store_capacity_bytes()
                ));
            }
        }
        sink.table(
            "Figures 10 & 11: 90-percentile transactional sizes vs abort ratios",
            &headers,
            &rows,
        );
        sink.tsv(
            "fig10_11",
            "bench\tplatform\tp90_load_bytes\tp90_store_bytes\tabort_ratio\tload_capacity\tstore_capacity",
            tsv,
        );
    },
};
