//! `BENCHMARK.json` and `expected/seed42.txt` agree with the code.

use htm_analyze::Json;
use htm_bench::report::{parse_bounds, BENCHMARK_JSON};
use htm_bench::run::{Expected, SEED42};
use htm_bench::workload::{Size, Workload};

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("BENCHMARK.json: no {key} list"))
}

fn name_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[test]
fn benchmark_json_is_well_formed() {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let e2e = list(&doc, "end_to_end");
    let layers = list(&doc, "per_layer");
    assert!((1..=16).contains(&e2e.len()), "{} end-to-end metrics", e2e.len());
    assert!((1..=128).contains(&layers.len()), "{} per-layer metrics", layers.len());

    let mut seen = std::collections::BTreeSet::new();
    for m in e2e.iter().chain(layers).chain(list(&doc, "workloads")) {
        let name = m.get("name").and_then(Json::as_str).expect("every entry has a name");
        assert!(name_ok(name), "bad name {name:?}");
        assert!(seen.insert(name), "{name} listed twice");
    }
    for b in parse_bounds(BENCHMARK_JSON).expect("bounds parse") {
        assert!(b.bound > 0.0 && b.bound <= 0.25, "{}: bound {}", b.name, b.bound);
    }
    let setup = e2e.iter().find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"));
    let setup = setup.expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));

    let workloads: Vec<&str> = list(&doc, "workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
}

#[test]
fn expected_digests_cover_every_deterministic_cell() {
    let expected = Expected::parse(42, SEED42).expect("seed42.txt parses");
    let mut cells = 0;
    for w in Workload::ALL.into_iter().filter(|w| w.deterministic()) {
        for round in 0..w.rounds(&Size::FULL) {
            for cell in w.cells(42, &Size::FULL, round) {
                let key = (w.name().to_string(), cell.id());
                assert!(expected.digests.contains_key(&key), "no digest for {key:?}");
                cells += 1;
            }
        }
    }
    assert_eq!(expected.digests.len(), cells, "stale digests in seed42.txt");
}
