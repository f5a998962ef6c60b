//! `htm-bench`: the simulator's host-performance benchmark.
//!
//! ```text
//! htm-bench [run] [--workload NAME|all] [--seed S] [--seconds N] [--trace 0|1|PATH] [--out PATH] [--smoke]
//! htm-bench compare OLD.json NEW.json
//! htm-bench bless
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use htm_analyze::Json;
use htm_bench::report::{self, metrics_json, print_metrics};
use htm_bench::run::{self, Expected, RunOpts};
use htm_bench::trace::Tracer;
use htm_bench::workload::{Size, Workload};

const USAGE: &str = "usage: htm-bench [run] [--workload NAME|all] [--seed S] [--seconds N] \
                     [--trace 0|1|PATH] [--out PATH] [--smoke]\n       \
                     htm-bench compare OLD.json NEW.json\n       \
                     htm-bench bless";

/// The benchmark package's directory (outputs default under `out/`).
const PKG_DIR: &str = env!("CARGO_MANIFEST_DIR");

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("bless") => bless(&args[1..]),
        Some("run") => run(&args[1..]),
        _ => run(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("htm-bench: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

/// Flag parser over `--name value` pairs and bare `--flag`s.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn check(&self, valued: &[&str], bare: &[&str]) -> Result<(), String> {
        let mut i = 0;
        while i < self.args.len() {
            let a = self.args[i].as_str();
            if valued.contains(&a) {
                if i + 1 >= self.args.len() {
                    return Err(format!("{a} needs a value"));
                }
                i += 2;
            } else if bare.contains(&a) {
                i += 1;
            } else {
                return Err(format!("unknown argument {a:?}"));
            }
        }
        Ok(())
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        self.args.iter().position(|a| a == name).map(|i| self.args[i + 1].as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }
}

fn out_dir() -> PathBuf {
    Path::new(PKG_DIR).join("out")
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The commit the benchmark was run at, read from the repository's `.git`
/// directory; `unknown` outside a git checkout.
fn git_rev() -> String {
    let git = Path::new(PKG_DIR).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).ok().or_else(|| {
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed.lines().find(|l| l.ends_with(r)).map(|l| l[..l.len() - r.len()].to_string())
        }),
        None => Some(head),
    };
    match rev.map(|r| r.trim().to_string()) {
        Some(r) if !r.is_empty() => r,
        _ => "unknown".into(),
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let f = Flags { args };
    f.check(&["--workload", "--seed", "--seconds", "--trace", "--out"], &["--smoke"])?;
    let workloads = match f.value("--workload").unwrap_or("all") {
        "all" => Workload::ALL.to_vec(),
        name => vec![Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?],
    };
    let seed: u64 = match f.value("--seed") {
        Some(s) => s.parse().map_err(|_| format!("--seed: not a number: {s:?}"))?,
        None => 42,
    };
    let smoke = f.has("--smoke");
    let seconds: u64 = match f.value("--seconds") {
        Some(s) => s.parse().map_err(|_| format!("--seconds: not a number: {s:?}"))?,
        None if smoke => 0,
        None => 20,
    };
    let wname = if workloads.len() == 1 { workloads[0].name() } else { "all" };
    let trace_path = match f.value("--trace").unwrap_or("0") {
        "0" => None,
        "1" => Some(out_dir().join(format!("trace-{wname}-{seed}.json"))),
        p => Some(PathBuf::from(p)),
    };
    let out_path = f
        .value("--out")
        .map_or_else(|| out_dir().join(format!("run-{wname}-{seed}.json")), PathBuf::from);

    let expected = Expected::parse(42, run::SEED42)?;
    let opts = RunOpts {
        seed,
        seconds: seconds as f64,
        trace: trace_path.is_some(),
        size: if smoke { Size::SMOKE } else { Size::FULL },
        expected: (!smoke).then_some(&expected),
        probe_iters: if smoke { 64 } else { 4096 },
        scratch_dir: out_dir(),
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "htm-bench: seed {seed}, {seconds} s per workload, {} size, {cores} cores, {} build, rev {}",
        if smoke { "smoke" } else { "full" },
        profile(),
        git_rev()
    );

    let mut tracer = Tracer::new();
    let mut runs = Vec::new();
    for &w in &workloads {
        if workloads.len() > 1 {
            run::reset_peak_rss();
        }
        let r = run::run_workload(w, &opts, &mut tracer);
        let digests = if r.digest_checked {
            "compared with expected/seed42.txt and across passes"
        } else if w.deterministic() {
            "compared across passes (expected digests are for seed 42 at full size)"
        } else {
            "not compared (values race the OS scheduler)"
        };
        println!(
            "\n{}: {} passes, {} cells, {} failed; digests {digests}",
            w.name(),
            r.passes.len() + r.traced.len(),
            r.attempted,
            r.failed,
        );
        for fail in &r.failures {
            println!("  FAILED {fail}");
        }
        print_metrics("  end to end:", &r.end_to_end());
        if opts.trace {
            print_metrics("  per layer:", &r.per_layer());
        }
        runs.push(r);
    }

    let report = Json::Obj(vec![
        ("git_rev".into(), Json::str(git_rev())),
        ("cores".into(), Json::Num(cores as f64)),
        ("profile".into(), Json::str(profile())),
        ("seed".into(), Json::Num(seed as f64)),
        ("size".into(), Json::str(if smoke { "smoke" } else { "full" })),
        ("seconds".into(), Json::Num(seconds as f64)),
        ("workloads".into(), Json::Arr(runs.iter().map(|r| r.to_json()).collect())),
    ]);
    write_file(&out_path, &format!("{report}\n"))?;
    println!("\nreport: {}", out_path.display());
    if let Some(p) = &trace_path {
        write_file(p, &format!("{}\n", tracer.to_chrome_json()))?;
        println!("trace: {}", p.display());
    }

    // The last line: one JSON object for machine readers. Names carry a
    // workload prefix when the run covered several workloads.
    let prefix = runs.len() > 1;
    let metrics: Vec<report::Metric> = runs
        .iter()
        .flat_map(|r| {
            let ms = if opts.trace { r.per_layer() } else { r.end_to_end() };
            ms.into_iter().map(move |m| match prefix {
                true => report::Metric { name: format!("{}.{}", r.workload.name(), m.name), ..m },
                false => m,
            })
        })
        .collect();
    let summary = Json::Obj(vec![
        ("correct".into(), Json::Bool(runs.iter().all(|r| r.correct()))),
        ("attempted".into(), Json::Num(runs.iter().map(|r| r.attempted).sum::<u64>() as f64)),
        ("failed".into(), Json::Num(runs.iter().map(|r| r.failed).sum::<u64>() as f64)),
        ("metrics".into(), metrics_json(&metrics)),
    ]);
    println!("{summary}");
    Ok(ExitCode::SUCCESS)
}

fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [old, new] = args else { return Err("compare needs OLD.json NEW.json".into()) };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let bounds = report::parse_bounds(report::BENCHMARK_JSON)?;
    let deltas = report::compare(&load(old)?, &load(new)?, &bounds)?;
    let mut regressed = false;
    for d in &deltas {
        regressed |= d.regressed;
        println!(
            "{:<11} {:<14} {:>14.6} -> {:>14.6}  {:>+8.2}% (bound {:>4.1}%){}",
            d.workload,
            d.metric,
            d.old,
            d.new,
            d.change * 100.0,
            d.bound * 100.0,
            if d.regressed { "  REGRESSION" } else { "" }
        );
    }
    Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// Regenerates `expected/seed42.txt`: every round of every deterministic
/// workload at seed 42, each cell once.
fn bless(args: &[String]) -> Result<ExitCode, String> {
    Flags { args }.check(&[], &[])?;
    let path = Path::new(PKG_DIR).join("expected/seed42.txt");
    let mut expected = Expected { seed: 42, digests: Default::default() };
    let mut tracer = Tracer::new();
    for w in Workload::ALL.into_iter().filter(|w| w.deterministic()) {
        for round in 0..w.rounds(&Size::FULL) {
            for cell in w.cells(42, &Size::FULL, round) {
                let o = cell.run(&mut tracer);
                if let Some(e) = o.error {
                    return Err(format!("{} {}: {e}", w.name(), cell.id()));
                }
                expected.digests.insert((w.name().to_string(), cell.id()), o.digest);
            }
        }
        println!("{}: blessed", w.name());
    }
    write_file(&path, &expected.render())?;
    println!("{} digests -> {}", expected.digests.len(), path.display());
    Ok(ExitCode::SUCCESS)
}
