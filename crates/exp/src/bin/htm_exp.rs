//! `htm-exp` — the unified experiment CLI.
//!
//! One binary replaces the twenty legacy `htm-bench` binaries:
//!
//! ```text
//! htm-exp list                       # catalogue of specs
//! htm-exp run fig2 --smoke           # one spec, tiny inputs
//! htm-exp run all --jobs 4           # the full grid, 4 workers
//! htm-exp run lint --gate race,capacity-overflow
//! htm-exp diff fig2                  # compare against saved TSV
//! ```
//!
//! `run` prints each spec's tables to stdout, writes TSV/JSON artifacts
//! under `target/results/`, and reuses cached cell results unless
//! `--no-cache`. Exit status: 0 on success, 1 when a `--gate` rule fires
//! or `diff` finds differences, 2 on usage errors.

#![deny(unsafe_code)]

use htm_analyze::Gate;
use htm_exp::{run_spec, specs, RunOpts};
use htm_fabric::{serve, ChaosPlan, FabricConfig};

const USAGE: &str = "usage: htm-exp <command> [options]
commands:
  list                 list available specs
  run <spec>... | all  run specs (tables to stdout, TSV/JSON under target/results)
  diff <spec>...       run specs, compare TSV against the saved files, don't overwrite
  replay <trace>...    re-execute saved model-checker counterexample traces and
                       verify each recorded violation reproduces
options:
  --scale tiny|sim|full   input scale (default: sim; lint defaults to tiny)
  --smoke                 shorthand for --scale tiny
  --seed N                root seed (default 42)
  --reps N                repetitions averaged per figure cell (default 1)
  --certify               run figure cells under the serializability certifier
  --fallback lock|stm|rot|adaptive
                          fallback tier for the tuned figure grids (default: per spec)
  --jobs N                scheduler worker threads (default: one per host core)
  --no-cache              ignore and don't populate the result cache
  --filter SUBSTR         only run cells whose id contains SUBSTR
  --gate rule1,rule2,...  exit 1 if a gated lint rule fires
  --results-dir PATH      artifact directory (default target/results)
  --quiet                 suppress per-cell progress on stderr
svc options (the service-traffic spec):
  --sessions N            simulated client sessions per cell (default: per
                          scale; underscores allowed: 1_000_000)
  --skew S                run one Zipf skew instead of the two-skew grid;
                          permille integer (1100) or decimal (1.1)
fabric options (fault-tolerant multi-process runs):
  --fabric                shard cells to worker processes with lease-based
                          retry; crashed or hung workers are respawned and
                          their cells retried (degrades to in-process when
                          no worker can be spawned)
  --workers N             fabric worker processes (default 2; implies --fabric)
  --cell-timeout SECS     per-cell wall-clock lease before the worker is
                          killed and the cell retried (default 300)
  --chaos PLAN            deterministic fault schedule for testing:
                          'storm:seed=S,kills=K,span=N' or
                          'kill@2;stall@5;lostreport@7;dieafter@9;torn@1'";

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

struct Cli {
    command: String,
    names: Vec<String>,
    opts: RunOpts,
    gate: Gate,
}

fn parse_cli() -> Cli {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        usage_error("missing command");
    };
    if command == "--help" || command == "-h" {
        println!("{USAGE}");
        std::process::exit(0);
    }
    let mut cli = Cli {
        command,
        names: Vec::new(),
        opts: RunOpts::default(),
        gate: Gate::parse("").expect("empty gate"),
    };
    let next = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().unwrap_or_else(|| usage_error(&format!("{flag} needs an argument")))
    };
    while let Some(a) = args.next() {
        if cli.opts.parse_grid_flag(&a, &mut args).unwrap_or_else(|e| usage_error(&e)) {
            continue;
        }
        match a.as_str() {
            "--jobs" => {
                cli.opts.jobs = next(&mut args, "--jobs")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--jobs needs an integer"));
            }
            "--no-cache" => cli.opts.use_cache = false,
            "--fabric" => {
                cli.opts.fabric.get_or_insert_with(FabricConfig::default);
            }
            "--workers" => {
                let n = next(&mut args, "--workers")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--workers needs an integer"));
                if n == 0 {
                    usage_error("--workers needs at least 1");
                }
                cli.opts.fabric.get_or_insert_with(FabricConfig::default).workers = n;
            }
            "--cell-timeout" => {
                let secs: u64 = next(&mut args, "--cell-timeout")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--cell-timeout needs integer seconds"));
                cli.opts.fabric.get_or_insert_with(FabricConfig::default).cell_timeout_ms =
                    secs.saturating_mul(1000);
            }
            "--chaos" => {
                let plan = ChaosPlan::parse(&next(&mut args, "--chaos"))
                    .unwrap_or_else(|e| usage_error(&e));
                cli.opts.fabric.get_or_insert_with(FabricConfig::default).chaos = plan;
            }
            "--gate" => {
                cli.gate =
                    Gate::parse(&next(&mut args, "--gate")).unwrap_or_else(|e| usage_error(&e));
            }
            "--results-dir" => {
                let dir = std::path::PathBuf::from(next(&mut args, "--results-dir"));
                cli.opts.cache_dir = dir.join("cache");
                cli.opts.results_dir = dir;
            }
            "--quiet" => cli.opts.quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => usage_error(&format!("unknown option {other}")),
            name => cli.names.push(name.to_string()),
        }
    }
    if let Some(f) = &mut cli.opts.fabric {
        // Backoff jitter follows the run's root seed so fabric scheduling
        // is as reproducible as the chaos tests require.
        f.seed = cli.opts.seed;
        if !cli.opts.quiet {
            f.verbose = true;
        }
    }
    cli
}

fn resolve_specs(names: &[String]) -> Vec<&'static htm_exp::ExperimentSpec> {
    if names.is_empty() {
        usage_error("name one or more specs, or 'all'");
    }
    if names.len() == 1 && names[0] == "all" {
        return specs::all().to_vec();
    }
    names
        .iter()
        .map(|n| {
            specs::find(n)
                .unwrap_or_else(|| usage_error(&format!("unknown spec {n:?} (try 'htm-exp list')")))
        })
        .collect()
}

fn cmd_list(opts: &RunOpts) {
    let headers: Vec<String> = ["spec", "cells", "title"].iter().map(|s| s.to_string()).collect();
    let rows: Vec<Vec<String>> = specs::all()
        .iter()
        .map(|s| {
            let n = (s.build)(&opts.effective_for(s)).len();
            vec![s.name.to_string(), n.to_string(), s.title.to_string()]
        })
        .collect();
    print!("{}", htm_exp::render_table_string("htm-exp specs", &headers, &rows));
    println!("\nrun with: htm-exp run <spec> [--smoke] (htm-exp run all for everything)");
}

fn cmd_run(cli: &Cli) -> i32 {
    let mut gated = Vec::new();
    for spec in resolve_specs(&cli.names) {
        let run = run_spec(spec, &cli.opts);
        print!("{}", run.sink.text);
        match run.sink.flush_files(&cli.opts.results_dir) {
            Ok(paths) => {
                for p in paths {
                    println!("[saved {}]", p.display());
                }
            }
            Err(e) => {
                eprintln!("error: could not write artifacts for {}: {e}", spec.name);
                return 1;
            }
        }
        if run.report.total > 0 && !cli.opts.quiet {
            eprintln!(
                "[{}] {} cells: {} computed, {} cached, {:.1}s",
                spec.name,
                run.report.total,
                run.report.computed,
                run.report.cached,
                run.report.wall_s
            );
        }
        gated.extend(run.sink.violations);
    }
    let failing = cli.gate.failing(&gated);
    if !failing.is_empty() {
        eprintln!("\ngate {:?} failed:", cli.gate.rules());
        for v in failing {
            eprintln!("  {v}");
        }
        return 1;
    }
    0
}

/// Compares freshly computed TSV against what's on disk, without
/// overwriting: the cheap answer to "did this simulator change move any
/// numbers?" (run the spec before the change, `diff` after).
fn cmd_diff(cli: &Cli) -> i32 {
    let mut changed = false;
    for spec in resolve_specs(&cli.names) {
        let run = run_spec(spec, &cli.opts);
        if run.sink.tsv.is_empty() {
            println!("[{}] no TSV artifacts to compare", spec.name);
            continue;
        }
        for t in &run.sink.tsv {
            let path = cli.opts.results_dir.join(format!("{}.tsv", t.name));
            let mut fresh = vec![t.header.clone()];
            fresh.extend(t.rows.iter().cloned());
            let Ok(saved) = std::fs::read_to_string(&path) else {
                println!(
                    "[{}] {}: no saved file (run 'htm-exp run {}' first)",
                    spec.name,
                    path.display(),
                    spec.name
                );
                changed = true;
                continue;
            };
            let saved: Vec<String> = saved.lines().map(|l| l.to_string()).collect();
            let diffs = diff_lines(&saved, &fresh);
            if diffs.is_empty() {
                println!("[{}] {}: no differences", spec.name, path.display());
            } else {
                changed = true;
                println!("[{}] {}: {} line(s) differ", spec.name, path.display(), diffs.len());
                for d in diffs {
                    println!("  {d}");
                }
            }
        }
    }
    i32::from(changed)
}

/// Line-level diff: `-` lines only in `old`, `+` lines only in `new`
/// (order-preserving set difference — enough for keyed TSV rows).
fn diff_lines(old: &[String], new: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for l in old {
        if !new.contains(l) {
            out.push(format!("- {l}"));
        }
    }
    for l in new {
        if !old.contains(l) {
            out.push(format!("+ {l}"));
        }
    }
    out
}

/// Replays saved model-checker counterexample traces: for each file, the
/// recorded kernel/platform/tier/bug configuration is rebuilt, the exact
/// grant schedule is forced through a fresh controlled execution, and the
/// recorded violation class must reappear. Exit 1 on any divergence.
fn cmd_replay(cli: &Cli) -> i32 {
    if cli.names.is_empty() {
        usage_error("replay needs one or more trace files");
    }
    let mut failed = false;
    for path in &cli.names {
        let trace = match htm_model::ModelTrace::load(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: cannot load trace: {e}");
                failed = true;
                continue;
            }
        };
        match trace.replay() {
            Ok(diagram) => {
                println!(
                    "{path}: `{}` violation reproduced ({} on {:?}/{}, schedule of {} step(s)):",
                    trace.class.key(),
                    trace.kernel,
                    trace.platform,
                    trace.tier.key(),
                    trace.schedule.len()
                );
                print!("{diagram}");
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
            }
        }
    }
    i32::from(failed)
}

/// The hidden `worker` command the fabric coordinator spawns: rebuild the
/// spec's cell grid from the registry (cell builders are deterministic, and
/// the coordinator passes its grid flags, so both agree on the grid),
/// connect back, and serve assignments by content key until told to stop.
/// Exit status does not matter to the coordinator — only protocol
/// messages do.
fn cmd_worker(args: Vec<String>) -> i32 {
    let mut spec_name = String::new();
    let mut addr = String::new();
    let mut worker_id: u64 = 0;
    let mut heartbeat_ms: u64 = 100;
    let mut opts = RunOpts { quiet: true, ..RunOpts::default() };
    let mut it = args.into_iter();
    let next = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().unwrap_or_else(|| usage_error(&format!("worker: {flag} needs an argument")))
    };
    while let Some(a) = it.next() {
        let grid = opts.parse_grid_flag(&a, &mut it);
        if grid.unwrap_or_else(|e| usage_error(&format!("worker: {e}"))) {
            continue;
        }
        match a.as_str() {
            "--spec" => spec_name = next(&mut it, "--spec"),
            "--fabric-addr" => addr = next(&mut it, "--fabric-addr"),
            "--fabric-id" => {
                worker_id = next(&mut it, "--fabric-id")
                    .parse()
                    .unwrap_or_else(|_| usage_error("worker: --fabric-id needs an integer"));
            }
            "--heartbeat-ms" => {
                heartbeat_ms = next(&mut it, "--heartbeat-ms")
                    .parse()
                    .unwrap_or_else(|_| usage_error("worker: --heartbeat-ms needs an integer"));
            }
            other => usage_error(&format!("worker: unknown option {other}")),
        }
    }
    let Some(spec) = specs::find(&spec_name) else {
        eprintln!("worker: unknown spec {spec_name:?}");
        return 1;
    };
    if addr.is_empty() {
        eprintln!("worker: --fabric-addr is required");
        return 1;
    }
    let eff = opts.effective_for(spec);
    let mut cells = (spec.build)(&eff);
    if let Some(f) = &eff.filter {
        cells.retain(|c| c.id.contains(f.as_str()));
    }
    // Serve by content key: assignments name a key, and a key absent from
    // the rebuilt grid means coordinator/worker drift (version skew, option
    // mismatch) — reported as a cell error, never silently miscomputed.
    let outcome = serve(&addr, worker_id, heartbeat_ms, |_, key| {
        let Some(cell) = cells.iter().find(|c| c.kind.key() == key) else {
            return Err(format!("worker grid has no cell with key {key:?} (drift?)"));
        };
        cell.kind.try_compute().map(|r| r.to_json()).map_err(|msg| format!("panic: {msg}"))
    });
    match outcome {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

fn main() {
    // The worker command has its own option surface; dispatch before the
    // general CLI parse.
    let mut raw = std::env::args().skip(1);
    if raw.next().as_deref() == Some("worker") {
        std::process::exit(cmd_worker(raw.collect()));
    }
    let cli = parse_cli();
    let code = match cli.command.as_str() {
        "list" => {
            cmd_list(&cli.opts);
            0
        }
        "run" => cmd_run(&cli),
        "diff" => cmd_diff(&cli),
        "replay" => cmd_replay(&cli),
        other => usage_error(&format!("unknown command {other:?}")),
    };
    std::process::exit(code);
}
