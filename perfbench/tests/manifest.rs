//! `BENCHMARK.json` (at the repository root) names exactly the workloads
//! and metrics this package defines.

use perfbench::run::{MetricDef, END_TO_END, PER_LAYER};
use perfbench::workload::WORKLOADS;
use serde::value::Value;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("{key} must be a list, got {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key} must be a string, got {other:?}"),
    }
}

fn assert_metrics(entries: &[Value], defs: &[MetricDef]) {
    let got: Vec<(&str, &str, &str)> =
        entries.iter().map(|e| (text(e, "name"), text(e, "unit"), text(e, "better"))).collect();
    let want: Vec<(&str, &str, &str)> = defs.iter().map(|d| (d.name, d.unit, d.better)).collect();
    assert_eq!(got, want);
}

#[test]
fn manifest_matches_the_definitions() {
    let m = manifest();
    let got: Vec<(&str, &str)> =
        list(&m, "workloads").iter().map(|w| (text(w, "name"), text(w, "why"))).collect();
    let want: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(got, want);
    assert_metrics(list(&m, "end_to_end"), &END_TO_END);
    assert_metrics(list(&m, "per_layer"), &PER_LAYER);

    let bounds: Vec<(&str, f64)> = list(&m, "end_to_end")
        .iter()
        .map(|e| (text(e, "name"), e.get("bound").and_then(Value::as_f64).expect("numeric bound")))
        .collect();
    let setup = bounds.iter().find(|(n, _)| *n == "setup_s").expect("setup_s is gated").1;
    for (name, bound) in &bounds {
        assert!(*bound > 0.0, "{name}: bound {bound}");
        assert!(*bound <= setup, "setup_s must carry the largest bound");
    }
    let command: Vec<&str> = list(&m, "command")
        .iter()
        .map(|c| match c {
            Value::Str(s) => s.as_str(),
            other => panic!("command entries are strings, got {other:?}"),
        })
        .collect();
    assert_eq!(command, ["bash", "perfbench/run.sh"]);
}
