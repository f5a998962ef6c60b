//! `htm-bench` end to end: a smoke run emits every metric `BENCHMARK.json`
//! names, and the single-workload form ends with the one-line result.

use std::path::PathBuf;
use std::process::Command;

use htm_analyze::Json;

fn manifest() -> Json {
    Json::parse(htm_bench::report::BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, list: &str) -> Vec<String> {
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("metric name").to_string())
        .collect()
}

fn bench(args: &[&str]) -> String {
    let out =
        Command::new(env!("CARGO_BIN_EXE_htm-bench")).args(args).output().expect("htm-bench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "htm-bench {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn last_line(stdout: &str) -> Json {
    Json::parse(stdout.lines().last().expect("output")).expect("last line is JSON")
}

#[test]
fn smoke_run_emits_every_named_metric() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let out = dir.join("run.json");
    let trace = dir.join("trace.json");
    let stdout = bench(&[
        "run",
        "--smoke",
        "--trace",
        trace.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(last_line(&stdout).get("failed").and_then(Json::as_f64), Some(0.0), "{stdout}");

    let doc = manifest();
    let report = Json::parse(&std::fs::read_to_string(&out).unwrap()).expect("report parses");
    let workloads = report.get("workloads").and_then(Json::as_arr).expect("workloads");
    assert_eq!(workloads.len(), names(&doc, "workloads").len());
    for w in workloads {
        let wname = w.get("name").and_then(Json::as_str).unwrap();
        assert_eq!(w.get("failed").and_then(Json::as_f64), Some(0.0), "{wname}");
        for (section, list) in [("metrics", "end_to_end"), ("layers", "per_layer")] {
            for name in names(&doc, list) {
                let m = w.get(section).and_then(|s| s.get(&name));
                assert!(m.is_some(), "{wname}: {section} lacks {name}");
            }
        }
        let wall = w.get("metrics").and_then(|m| m.get("wall_s")).and_then(|m| m.get("value"));
        assert!(wall.and_then(Json::as_f64).is_some_and(|v| v > 0.0), "{wname}: wall_s");
    }
    let chrome = Json::parse(&std::fs::read_to_string(&trace).unwrap()).expect("trace parses");
    let events = chrome.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
    for cat in ["workload", "cell", "phase"] {
        assert!(
            events.iter().any(|e| e.get("cat").and_then(Json::as_str) == Some(cat)),
            "no {cat} span"
        );
    }
}

#[test]
fn single_workload_run_prints_the_end_to_end_metrics_last() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("single-workload.json");
    let stdout = bench(&[
        "--workload",
        "model-dpor",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--out",
        out.to_str().unwrap(),
    ]);
    let line = last_line(&stdout);
    let Json::Obj(fields) = &line else { panic!("not an object: {line}") };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert!(line.get("attempted").and_then(Json::as_f64).is_some_and(|n| n >= 1.0));
    let Some(Json::Obj(metrics)) = line.get("metrics") else { panic!("no metrics") };
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(got, names(&manifest(), "end_to_end"));
    for (name, m) in metrics {
        assert!(m.get("value").and_then(Json::as_f64).is_some_and(|v| v > 0.0), "{name} is 0");
    }
}

#[test]
fn bad_arguments_exit_2() {
    for args in [&["--workload", "nope"][..], &["--seed"], &["--bogus"], &["compare", "one.json"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_htm-bench")).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
