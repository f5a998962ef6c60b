//! Metrics, the run report's JSON shape, and `compare`.

use htm_analyze::Json;

use crate::workload::Workload;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`s`, `ns`, `1/s`, `MB`, `count`, `ratio`, `%`).
    pub unit: &'static str,
}

impl Metric {
    /// A metric; a non-finite value (an empty ratio) is reported as 0.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value: if value.is_finite() { value } else { 0.0 }, unit }
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let body =
                    vec![("value".into(), Json::Num(m.value)), ("unit".into(), Json::str(m.unit))];
                (m.name.clone(), Json::Obj(body))
            })
            .collect(),
    )
}

/// Prints `metrics` as an aligned `name value unit` table.
pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    for m in metrics {
        println!("  {:<width$}  {:>16.6}  {}", m.name, m.value, m.unit);
    }
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One end-to-end metric's regression bound from `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening, as a share of the old value.
    pub bound: f64,
}

/// The benchmark definition this binary was built with.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `compare`'s bound on `wall_s` and `blocks_per_s` for the deterministic
/// workloads. `BENCHMARK.json` holds one bound per metric, sized for
/// `stamp-2t`, whose free-running threads spread those metrics up to 9.9%
/// from seed to seed on a 2-vCPU AMD EPYC virtual machine. There the
/// deterministic workloads spread them at most 4.0%. `compare` sets one run
/// against one other, and the slowest of 30 `stamp-1t` runs of the same
/// code was 10.5% slower than the fastest.
pub const STEADY_TIME_BOUND: f64 = 0.15;

impl Bound {
    /// The allowed worsening of this metric on `workload`.
    pub fn for_workload(&self, workload: &str) -> f64 {
        let steady = Workload::parse(workload).is_some_and(Workload::deterministic);
        match self.name.as_str() {
            "wall_s" | "blocks_per_s" if steady => self.bound.min(STEADY_TIME_BOUND),
            _ => self.bound,
        }
    }
}

/// Parses the `end_to_end` bounds of a `BENCHMARK.json` document.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(text)?;
    let list =
        doc.get("end_to_end").and_then(Json::as_arr).ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name =
                m.get("name").and_then(Json::as_str).ok_or("end_to_end entry without a name")?;
            let better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            let bound = m.get("bound").and_then(Json::as_f64).ok_or(format!("{name}: no bound"))?;
            Ok(Bound { name: name.to_string(), better, bound })
        })
        .collect()
}

/// One (workload, metric) row of a comparison.
#[derive(Clone, Debug)]
pub struct Delta {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Old value.
    pub old: f64,
    /// New value.
    pub new: f64,
    /// Relative change, `new / old - 1`.
    pub change: f64,
    /// Allowed worsening, as a share of the old value (0 for
    /// `failed_share`, which may not rise at all).
    pub bound: f64,
    /// Whether the change worsens the metric by more than its bound.
    pub regressed: bool,
}

fn workloads_of(report: &Json) -> Result<&[Json], String> {
    report
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| "report has no workloads list".to_string())
}

fn num(v: &Json, key: &str) -> Option<f64> {
    v.get(key).and_then(Json::as_f64)
}

/// Compares two run reports metric by metric. A metric regresses when it
/// worsens by more than its bound ([`Bound::for_workload`]); a workload
/// regresses when its failed share of cells rises (reported as the
/// pseudo-metric `failed_share`).
pub fn compare(old: &Json, new: &Json, bounds: &[Bound]) -> Result<Vec<Delta>, String> {
    let mut out = Vec::new();
    for nw in workloads_of(new)? {
        let name = nw.get("name").and_then(Json::as_str).ok_or("workload without a name")?;
        let Some(ow) =
            workloads_of(old)?.iter().find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        for b in bounds {
            let get = |w: &Json| {
                w.get("metrics").and_then(|m| m.get(&b.name)).and_then(|m| num(m, "value"))
            };
            let (Some(o), Some(n)) = (get(ow), get(nw)) else { continue };
            let change = if o != 0.0 { n / o - 1.0 } else { 0.0 };
            let worse = match b.better {
                Better::Lower => change,
                Better::Higher => -change,
            };
            let bound = b.for_workload(name);
            let row = Delta {
                workload: name.into(),
                metric: b.name.clone(),
                old: o,
                new: n,
                change,
                bound,
                regressed: worse > bound,
            };
            out.push(row);
        }
        let share = |w: &Json| {
            let attempted = num(w, "attempted").unwrap_or(0.0).max(1.0);
            num(w, "failed").unwrap_or(0.0) / attempted
        };
        let (o, n) = (share(ow), share(nw));
        out.push(Delta {
            workload: name.into(),
            metric: "failed_share".into(),
            old: o,
            new: n,
            change: n - o,
            bound: 0.0,
            regressed: n > o,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(workload: &str, wall: f64, bps: f64, failed: f64) -> Json {
        let metrics = [Metric::new("wall_s", wall, "s"), Metric::new("blocks_per_s", bps, "1/s")];
        Json::Obj(vec![(
            "workloads".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("name".into(), Json::str(workload)),
                ("attempted".into(), Json::Num(40.0)),
                ("failed".into(), Json::Num(failed)),
                ("metrics".into(), metrics_json(&metrics)),
            ])]),
        )])
    }

    fn regressed(old: &Json, new: &Json, bounds: &[Bound]) -> Vec<String> {
        compare(old, new, bounds)
            .unwrap()
            .into_iter()
            .filter(|d| d.regressed)
            .map(|d| d.metric)
            .collect::<Vec<_>>()
    }

    #[test]
    fn compare_flags_only_worsening_beyond_the_bound() {
        let bounds = parse_bounds(
            r#"{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
                {"name": "blocks_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let r = |wall, bps, failed| report("stamp-1t", wall, bps, failed);
        let base = r(10.0, 1000.0, 0.0);
        assert!(regressed(&base, &r(10.9, 910.0, 0.0), &bounds).is_empty());
        assert!(regressed(&base, &r(5.0, 5000.0, 0.0), &bounds).is_empty());
        assert_eq!(regressed(&base, &r(11.5, 1000.0, 0.0), &bounds), ["wall_s"]);
        assert_eq!(regressed(&base, &r(10.0, 880.0, 0.0), &bounds), ["blocks_per_s"]);
        assert_eq!(regressed(&base, &r(10.0, 1000.0, 1.0), &bounds), ["failed_share"]);
    }

    #[test]
    fn deterministic_workloads_are_held_to_the_steady_bound() {
        let bounds = parse_bounds(BENCHMARK_JSON).unwrap();
        let wall = bounds.iter().find(|b| b.name == "wall_s").unwrap().bound;
        assert!(wall > STEADY_TIME_BOUND, "BENCHMARK.json's wall_s bound is already steady");
        // Halfway between the two bounds.
        let worse = 1.0 + (STEADY_TIME_BOUND + wall) / 2.0;
        for w in Workload::ALL {
            let base = report(w.name(), 10.0, 1000.0, 0.0);
            let slow = report(w.name(), 10.0 * worse, 1000.0 / worse, 0.0);
            let flagged = regressed(&base, &slow, &bounds);
            let expect: &[&str] = if w.deterministic() { &["wall_s", "blocks_per_s"] } else { &[] };
            assert_eq!(flagged, expect, "{}", w.name());
        }
    }
}
