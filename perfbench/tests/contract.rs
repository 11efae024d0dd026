//! The benchmark reports exactly the metrics `BENCHMARK.json` lists, under
//! names and units the result format allows.

use babelflow_perfbench::bench::{end_to_end_spec, per_layer_spec, run, Config};
use babelflow_trace::json::{parse, Json};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn listed(j: &Json, key: &str) -> Vec<(String, String)> {
    j.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(spec: Vec<(String, &'static str)>) -> Vec<(String, String)> {
    spec.into_iter().map(|(n, u)| (n, u.to_string())).collect()
}

#[test]
fn spec_matches_benchmark_json() {
    let j = benchmark_json();
    assert_eq!(listed(&j, "end_to_end"), owned(end_to_end_spec()));
    assert_eq!(listed(&j, "per_layer"), owned(per_layer_spec()));
}

#[test]
fn names_and_units_use_allowed_characters() {
    let j = benchmark_json();
    let mut seen = std::collections::HashSet::new();
    for (name, unit) in listed(&j, "end_to_end")
        .into_iter()
        .chain(listed(&j, "per_layer"))
    {
        assert!(
            name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "{name}"
        );
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit}"
        );
        assert!(seen.insert(name.clone()), "{name} listed twice");
    }
    for w in j
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
    {
        let name = w.get("name").and_then(Json::as_str).expect("workload name");
        assert!(
            babelflow_perfbench::workload::WORKLOADS.contains(&name),
            "{name}"
        );
        assert!(seen.insert(name.to_string()), "{name} used twice");
    }
}

#[test]
fn every_listed_metric_is_reported() {
    for trace in [false, true] {
        let cfg = Config {
            workload: "step-1k".into(),
            seed: 7,
            seconds: 0.5,
            trace,
        };
        let out = run(&cfg).expect("benchmark runs");
        assert!(out.correct && out.failed == 0 && out.attempted > 0);
        let names = |ms: &[babelflow_perfbench::bench::Metric]| -> Vec<(String, String)> {
            ms.iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect()
        };
        assert_eq!(names(&out.end_to_end), owned(end_to_end_spec()));
        if trace {
            assert_eq!(names(&out.per_layer), owned(per_layer_spec()));
        }
        assert!(
            out.end_to_end.iter().all(|m| m.value > 0.0),
            "end-to-end metrics are never 0"
        );
    }
}
