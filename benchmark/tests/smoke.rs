//! Runs the benchmark binary at `--smoke` size and checks what it prints
//! against `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::Mutex;

use dyno_obs::json::{self, Value};

const MANIFEST_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// Traced runs of one workload share a span file, so runs take turns.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(format!("{MANIFEST_DIR}/../BENCHMARK.json")).unwrap();
    json::parse(&text).unwrap()
}

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn declared(doc: &Value, list: &str) -> BTreeMap<String, String> {
    doc.get(list)
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn workload_names(doc: &Value) -> Vec<String> {
    doc.get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

/// Runs `run --smoke` with the driver's arguments; returns stdout.
fn smoke(workload: &str, seed: u64, trace: u8) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_dyno-benchmark"))
        .args(["run", "--smoke", "--workload", workload])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .output()
        .unwrap();
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    String::from_utf8(output.stdout).unwrap()
}

/// The `metrics` of the last stdout line, as `name → (value, unit)`.
fn result_metrics(stdout: &str) -> BTreeMap<String, (f64, String)> {
    let result = json::parse(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = result.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(result.get("failed").and_then(Value::as_num), Some(0.0));
    assert!(result.get("attempted").and_then(Value::as_num).unwrap() >= 1.0);
    result
        .get("metrics")
        .and_then(Value::as_obj)
        .unwrap()
        .iter()
        .map(|(name, m)| {
            let keys: Vec<&str> = m.as_obj().unwrap().keys().map(String::as_str).collect();
            assert_eq!(keys, ["unit", "value"], "{name}");
            let value = m.get("value").and_then(Value::as_num).unwrap();
            (name.clone(), (value, m.get("unit").and_then(Value::as_str).unwrap().to_string()))
        })
        .collect()
}

#[test]
fn every_declared_metric_is_printed_once_per_workload() {
    let doc = benchmark_json();
    let _turn = ONE_RUN_AT_A_TIME.lock().unwrap();
    for workload in workload_names(&doc) {
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let stdout = smoke(&workload, 1, trace);
            let want = declared(&doc, list);
            let got = result_metrics(&stdout);
            let got_units: BTreeMap<String, String> =
                got.iter().map(|(n, (_, u))| (n.clone(), u.clone())).collect();
            assert_eq!(got_units, want, "{workload} --trace {trace}: result line");
            for name in want.keys() {
                assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
                // Table rows read `  <workload> <metric> <value> <unit> …`.
                let rows = stdout
                    .lines()
                    .filter(|l| {
                        let mut words = l.split_whitespace();
                        words.next() == Some(workload.as_str())
                            && words.next() == Some(name.as_str())
                    })
                    .count();
                assert_eq!(rows, 1, "{workload}: `{name}` in the table");
            }
            if trace == 0 {
                for (name, (value, _)) in &got {
                    assert!(*value > 0.0, "{workload}: {name} must never be 0");
                }
            }
        }
    }
}

#[test]
fn exact_counts_repeat_for_a_seed_and_differ_between_seeds() {
    let exact = [
        "relational.execute_calls_per_update",
        "relational.rows_scanned_per_update",
        "relational.index_probes_per_update",
        "core.graph_builds",
        "core.reorders",
        "core.merges",
        "core.fast_path_hits",
        "view.batches",
        "view.batched_updates",
        "trace.updates",
    ];
    let _turn = ONE_RUN_AT_A_TIME.lock().unwrap();
    let counts = |seed: u64| -> Vec<(String, f64)> {
        let got = result_metrics(&smoke("sc_storm", seed, 1));
        exact.iter().map(|n| (n.to_string(), got[*n].0)).collect()
    };
    let (first, again, other) = (counts(1), counts(1), counts(2));
    assert_eq!(first, again, "one seed, one set of counts");
    assert_ne!(first, other, "another seed, other counts");
}

#[test]
fn bypassed_layers_count_nothing() {
    let _turn = ONE_RUN_AT_A_TIME.lock().unwrap();
    for workload in ["du_point", "fanout_burst", "durable_du"] {
        let got = result_metrics(&smoke(workload, 1, 1));
        assert_eq!(got["core.graph_builds"].0, 0.0, "{workload}");
        if workload != "durable_du" {
            for (name, (value, _)) in got.iter().filter(|(n, _)| n.starts_with("durable.")) {
                assert_eq!(*value, 0.0, "{workload}: {name}");
            }
        }
    }
    let storm = result_metrics(&smoke("sc_storm", 1, 1));
    assert!(storm["core.graph_builds"].0 > 0.0);
    assert!(storm["view.batches"].0 > 0.0);
}

#[test]
fn span_files_are_consistent() {
    let _turn = ONE_RUN_AT_A_TIME.lock().unwrap();
    smoke("durable_du", 1, 1);
    let text =
        std::fs::read_to_string(format!("{MANIFEST_DIR}/out/trace-durable_du.jsonl")).unwrap();
    let spans: Vec<Value> = text.lines().map(|l| json::parse(l).unwrap()).collect();
    let num = |s: &Value, k: &str| s.get(k).and_then(Value::as_num).unwrap();
    let mut names = std::collections::BTreeSet::new();
    for span in &spans {
        names.insert(span.get("name").and_then(Value::as_str).unwrap().to_string());
        let dur = num(span, "end_ns") - num(span, "start_ns");
        assert!(dur >= 0.0);
        let self_ns = num(span, "self_ns");
        assert!((0.0..=dur).contains(&self_ns), "self time within [0, duration]: {span:?}");
        if let Some(parent) = span.get("parent").and_then(Value::as_num) {
            let parent = &spans[parent as usize];
            assert_eq!(num(parent, "round"), num(span, "round"), "a span stays in its round");
            assert!(num(parent, "start_ns") <= num(span, "start_ns"));
        }
    }
    for name in
        ["update", "source.commit", "view.ingest", "view.step", "port.execute", "storage.append"]
    {
        assert!(names.contains(name), "no `{name}` span in {names:?}");
    }
}
