//! Running one workload for a fixed time: passes, digest checks, and the
//! end-to-end and per-layer metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use htm_analyze::Json;
use htm_core::AbortCategory;
use htm_runtime::RunStats;
use stamp::BenchId;

use crate::probes::quantile;
use crate::report::{metrics_json, Metric};
use crate::trace::Tracer;
use crate::workload::{Cell, Size, Workload};

/// Expected cell digests at the seed they were blessed for.
pub struct Expected {
    /// The seed the digests belong to.
    pub seed: u64,
    /// `(workload, cell id) -> digest`.
    pub digests: BTreeMap<(String, String), u64>,
}

/// The committed digests (`htm-bench bless` regenerates the file).
pub const SEED42: &str = include_str!("../expected/seed42.txt");

impl Expected {
    /// Parses `workload cell-id hex-digest` lines (`#` starts a comment).
    pub fn parse(seed: u64, text: &str) -> Result<Expected, String> {
        let mut digests = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let [w, id, d] = f[..] else {
                return Err(format!("line {}: expected 3 fields", i + 1));
            };
            let d = u64::from_str_radix(d, 16).map_err(|e| format!("line {}: {e}", i + 1))?;
            digests.insert((w.to_string(), id.to_string()), d);
        }
        Ok(Expected { seed, digests })
    }

    /// Renders digests in the file format.
    pub fn render(&self) -> String {
        let mut s = format!(
            "# htm-bench expected cell digests: seed {}, full size. Regenerate with `htm-bench bless`.\n",
            self.seed
        );
        for ((w, id), d) in &self.digests {
            s.push_str(&format!("{w} {id} {d:016x}\n"));
        }
        s
    }
}

/// How to run a workload.
pub struct RunOpts<'a> {
    /// Root seed.
    pub seed: u64,
    /// Minimum measured seconds (whole passes are run until it elapses).
    pub seconds: f64,
    /// Record spans and run the per-layer probes.
    pub trace: bool,
    /// Work per pass.
    pub size: Size,
    /// Digests to check against, when they belong to this seed and size.
    pub expected: Option<&'a Expected>,
    /// Probe iteration count.
    pub probe_iters: usize,
    /// Directory for scratch files (the cache probe).
    pub scratch_dir: std::path::PathBuf,
}

/// Totals of one pass over a workload's cells.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// The round the pass ran (see [`Workload::rounds`]).
    pub round: u32,
    /// Host seconds for the pass.
    pub wall_s: f64,
    /// Workload construction (inputs, traffic, kernel configs).
    pub construct_s: f64,
    /// Construction, `Sim::new`, `setup` and `prepare`.
    pub setup_s: f64,
    /// Simulated runs (sequential + parallel, or `explore`).
    pub run_s: f64,
    /// Sequential runs alone.
    pub run_sequential_s: f64,
    /// `verify` and digests.
    pub verify_s: f64,
    /// Committed simulated atomic blocks.
    pub blocks: u64,
    /// Served svc requests.
    pub requests: u64,
    /// Explored model schedules.
    pub schedules: u64,
    /// Model scheduling steps.
    pub steps: u64,
    /// Parallel-run statistics merged over the pass's cells.
    pub stats: RunStats,
    /// Host seconds per STAMP benchmark.
    pub bench_s: [f64; 10],
}

/// The result of running one workload.
pub struct WorkloadRun {
    /// The workload.
    pub workload: Workload,
    /// Root seed.
    pub seed: u64,
    /// Untraced passes (the end-to-end metrics).
    pub passes: Vec<Pass>,
    /// Traced passes (the per-layer metrics).
    pub traced: Vec<Pass>,
    /// Cells run.
    pub attempted: u64,
    /// Cells that panicked, failed `verify`, found a model violation, or
    /// whose digest differed from the expected or an earlier pass.
    pub failed: u64,
    /// The first few failures, `cell: reason`.
    pub failures: Vec<String>,
    /// Digest of every deterministic cell, by cell id.
    pub digests: BTreeMap<String, u64>,
    /// Whether digests were compared with the expected file.
    pub digest_checked: bool,
    /// Peak resident set (VmHWM) in MB.
    pub peak_rss_mb: f64,
    /// Per-layer probe results (traced runs only).
    pub probes: Vec<Metric>,
}

/// Peak resident set of this process in MB (VmHWM), 0 if unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets VmHWM to the current resident set, so the next workload's peak
/// is its own. Best effort: kernels without the interface keep the
/// process-wide peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

impl WorkloadRun {
    fn run_pass(
        &mut self,
        round: u32,
        cells: &[Cell],
        expected: Option<&Expected>,
        tracer: &mut Tracer,
    ) -> Pass {
        let w = self.workload;
        let mut p = Pass { round, ..Pass::default() };
        let start = Instant::now();
        for cell in cells {
            tracer.begin_cell();
            let id = cell.id();
            let c0 = Instant::now();
            let o = cell.run(tracer);
            let c1 = Instant::now();
            tracer.cell_span(&id, c0, c1);
            self.attempted += 1;
            let mut fail = o.error.clone();
            if fail.is_none() && w.deterministic() {
                if let Some(e) = expected {
                    match e.digests.get(&(w.name().to_string(), id.clone())) {
                        Some(&d) if d == o.digest => {}
                        Some(&d) => {
                            fail = Some(format!("digest {:016x}, expected {d:016x}", o.digest))
                        }
                        None => fail = Some("no expected digest".into()),
                    }
                }
                match self.digests.get(&id) {
                    Some(&d) if d != o.digest => {
                        fail = Some(format!(
                            "digest {:016x} differs from an earlier pass's {d:016x}",
                            o.digest
                        ))
                    }
                    _ => {
                        self.digests.insert(id.clone(), o.digest);
                    }
                }
            }
            if let Some(why) = fail {
                self.failed += 1;
                if self.failures.len() < 8 {
                    self.failures.push(format!("{id}: {why}"));
                }
            }
            p.construct_s += o.construct_s;
            p.setup_s += o.setup_total_s();
            p.run_s += o.run_sequential_s + o.run_parallel_s;
            p.run_sequential_s += o.run_sequential_s;
            p.verify_s += o.verify_s;
            p.blocks += o.blocks;
            p.requests += o.requests;
            p.schedules += o.schedules;
            p.steps += o.steps;
            if let Some(s) = &o.stats {
                p.stats.merge(s);
            }
            if let Some(b) = cell.bench() {
                p.bench_s[bench_index(b)] += (c1 - c0).as_secs_f64();
            }
        }
        let end = Instant::now();
        tracer.workload_span(w.name(), start, end);
        p.wall_s = (end - start).as_secs_f64();
        p
    }

    /// The end-to-end metrics over the untraced passes. Host interference
    /// only ever slows a pass, so each round (one set of inputs) counts
    /// with its fastest pass; the rounds are then averaged, each being a
    /// different sample of inputs. Set-up time is the median pass's.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let mut best: BTreeMap<u32, &Pass> = BTreeMap::new();
        for p in &self.passes {
            let b = best.entry(p.round).or_insert(p);
            if p.wall_s < b.wall_s {
                *b = p;
            }
        }
        let sum = |f: &dyn Fn(&Pass) -> f64| best.values().map(|p| f(p)).sum::<f64>();
        let setups: Vec<f64> = self.passes.iter().map(|p| p.setup_s).collect();
        vec![
            Metric::new("wall_s", sum(&|p| p.wall_s) / best.len() as f64, "s"),
            Metric::new("setup_s", quantile(&setups, 0.5), "s"),
            Metric::new(
                "blocks_per_s",
                sum(&|p| p.blocks as f64) / sum(&|p| p.wall_s - p.setup_s),
                "1/s",
            ),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }

    /// The per-layer metrics: phase times and counts of the traced passes,
    /// the tracing overhead, and the probes.
    pub fn per_layer(&self) -> Vec<Metric> {
        let traced = &self.traced;
        let med =
            |f: &dyn Fn(&Pass) -> f64| quantile(&traced.iter().map(f).collect::<Vec<_>>(), 0.5);
        let sum = |f: &dyn Fn(&Pass) -> f64| traced.iter().map(f).sum::<f64>();
        let mut m = vec![
            Metric::new("phase.construct_s", med(&|p| p.construct_s), "s"),
            Metric::new("phase.setup_s", med(&|p| p.setup_s), "s"),
            Metric::new("phase.run_s", med(&|p| p.run_s), "s"),
            Metric::new("phase.verify_s", med(&|p| p.verify_s), "s"),
            Metric::new(
                "phase.sequential_share",
                sum(&|p| p.run_sequential_s) / sum(&|p| p.run_s),
                "ratio",
            ),
            Metric::new("runtime.ns_per_block", med(&|p| p.run_s * 1e9 / p.blocks as f64), "ns"),
        ];
        let wall = sum(&|p| p.wall_s);
        for b in BenchId::ALL {
            let name = format!("stamp.{}.share", b.label());
            m.push(Metric::new(name, sum(&|p| p.bench_s[bench_index(b)]) / wall, "ratio"));
        }
        // Counts of the first traced pass: exact for a deterministic
        // workload at a given seed.
        let first = traced.first().cloned().unwrap_or_default();
        let s = &first.stats;
        let aborts = |c: AbortCategory| s.aborts_in(c) as f64;
        let commits = s.committed_blocks() as f64;
        m.extend([
            Metric::new("runtime.committed_blocks", commits, "count"),
            Metric::new("runtime.hw_commits", s.hw_commits() as f64, "count"),
            Metric::new("runtime.irrevocable_commits", s.irrevocable_commits() as f64, "count"),
            Metric::new("runtime.aborts_capacity", aborts(AbortCategory::Capacity), "count"),
            Metric::new("runtime.aborts_conflict", aborts(AbortCategory::DataConflict), "count"),
            Metric::new("runtime.aborts_other", aborts(AbortCategory::Other), "count"),
            Metric::new("runtime.aborts_lock", aborts(AbortCategory::LockConflict), "count"),
            Metric::new(
                "runtime.aborts_unclassified",
                aborts(AbortCategory::Unclassified),
                "count",
            ),
            Metric::new("runtime.fallback_lock_waits", s.fallback_lock_waits() as f64, "count"),
            Metric::new(
                "runtime.useful_ratio",
                commits / (commits + s.total_aborts() as f64),
                "ratio",
            ),
            Metric::new("hytm.stm_commits", s.stm_commits() as f64, "count"),
            Metric::new("hytm.stm_validation_aborts", s.stm_validation_aborts() as f64, "count"),
            Metric::new("svc.requests", first.requests as f64, "count"),
            Metric::new("model.schedules", first.schedules as f64, "count"),
            Metric::new("model.steps", first.steps as f64, "count"),
        ]);
        let untraced = quantile(&self.passes.iter().map(|p| p.wall_s).collect::<Vec<_>>(), 0.5);
        m.push(Metric::new(
            "trace.overhead_pct",
            (med(&|p| p.wall_s) / untraced - 1.0) * 100.0,
            "%",
        ));
        m.extend(self.probes.iter().cloned());
        m
    }

    /// Whether every cell passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// This workload's section of the run report.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".into(), Json::str(self.workload.name())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("passes".into(), Json::Num(self.passes.len() as f64)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("failures".into(), Json::Arr(self.failures.iter().map(Json::str).collect())),
            ("digest_checked".into(), Json::Bool(self.digest_checked)),
            ("metrics".into(), metrics_json(&self.end_to_end())),
        ];
        let per_pass =
            |f: fn(&Pass) -> f64| Json::Arr(self.passes.iter().map(|p| Json::Num(f(p))).collect());
        fields.push(("pass_wall_s".into(), per_pass(|p| p.wall_s)));
        fields.push(("pass_setup_s".into(), per_pass(|p| p.setup_s)));
        fields.push(("pass_blocks".into(), per_pass(|p| p.blocks as f64)));
        if !self.traced.is_empty() {
            fields.push(("layers".into(), metrics_json(&self.per_layer())));
        }
        let digests =
            self.digests.iter().map(|(id, d)| (id.clone(), Json::str(format!("{d:016x}"))));
        fields.push(("digests".into(), Json::Obj(digests.collect())));
        Json::Obj(fields)
    }
}

fn bench_index(b: BenchId) -> usize {
    BenchId::ALL.iter().position(|&x| x == b).expect("BenchId::ALL lists every benchmark")
}

/// Runs whole passes of `workload` until `opts.seconds` have elapsed. A
/// traced run runs each pass twice, untraced then traced (the order
/// alternating), so the two halves measure the same inputs and their
/// difference is the tracing overhead; the probes run after the passes.
pub fn run_workload(workload: Workload, opts: &RunOpts<'_>, tracer: &mut Tracer) -> WorkloadRun {
    let expected = opts.expected.filter(|e| e.seed == opts.seed && workload.deterministic());
    let mut run = WorkloadRun {
        workload,
        seed: opts.seed,
        passes: Vec::new(),
        traced: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        digests: BTreeMap::new(),
        digest_checked: expected.is_some(),
        peak_rss_mb: 0.0,
        probes: Vec::new(),
    };
    let start = Instant::now();
    let rounds = workload.rounds(&opts.size);
    let mut n = 0;
    loop {
        let round = n % rounds;
        let cells = workload.cells(opts.seed, &opts.size, round);
        if opts.trace {
            for traced in [n % 2 == 1, n % 2 == 0] {
                tracer.set_enabled(traced);
                let p = run.run_pass(round, &cells, expected, tracer);
                if traced {
                    run.traced.push(p)
                } else {
                    run.passes.push(p)
                }
            }
        } else {
            let p = run.run_pass(round, &cells, expected, tracer);
            run.passes.push(p);
        }
        n += 1;
        if start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    tracer.set_enabled(false);
    run.peak_rss_mb = peak_rss_mb();
    if opts.trace {
        run.probes = crate::probes::run_all(opts.probe_iters, &opts.scratch_dir);
    }
    run
}
