//! What a run prints, the `--out` file, and `compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dyno_obs::json::{self, Value};

use crate::metrics::{Better, Stat, PER_LAYER};
use crate::run::Outcome;

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric exactly `value` and `unit`.
pub fn result_line(o: &Outcome) -> String {
    render(o, false)
}

/// The same with `n`, `q1` and `q3` beside each value; the `--out` file
/// keeps these so that `compare` can tell a shift from the spread.
pub fn detail_line(o: &Outcome) -> String {
    render(o, true)
}

fn render(o: &Outcome, detail: bool) -> String {
    let mut s = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        o.correct, o.attempted, o.failed
    );
    for (i, (def, stat)) in o.metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\":{{\"value\":", def.name);
        json::push_f64(&mut s, stat.value);
        let _ = write!(s, ",\"unit\":\"{}\"", def.unit);
        if detail {
            let _ = write!(s, ",\"n\":{},\"q1\":", stat.n);
            json::push_f64(&mut s, stat.q1);
            s.push_str(",\"q3\":");
            json::push_f64(&mut s, stat.q3);
        }
        s.push('}');
    }
    s.push_str("}}");
    s
}

/// The human-readable table: every metric by name with its unit and the
/// number of repetitions behind it.
pub fn table(workload: &str, o: &Outcome) -> String {
    let mut s = String::new();
    for note in &o.notes {
        let _ = writeln!(s, "  # {note}");
    }
    for (def, stat) in &o.metrics {
        let _ = write!(s, "  {workload:<13} {:<38} {:>16.4} {:<6}", def.name, stat.value, def.unit);
        if stat.n > 1 {
            let _ = write!(
                s,
                " of {} (q1 {:.4}, q3 {:.4}, spread {:.1} %)",
                stat.n,
                stat.q1,
                stat.q3,
                100.0 * stat.spread()
            );
        }
        s.push('\n');
    }
    let _ = writeln!(
        s,
        "  {workload:<13} {:<38} {:>16} {:<6} {} failed of {} attempted",
        "failed_ratio",
        o.failed as f64 / o.attempted.max(1) as f64,
        "ratio",
        o.failed,
        o.attempted
    );
    s
}

/// One side of a comparison: `(workload, traced) → metric → stat`.
type Side = BTreeMap<(String, bool), BTreeMap<String, Stat>>;

fn load_side(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc.get("runs").and_then(Value::as_arr).ok_or(format!("{path}: no `runs`"))?;
    let mut side = Side::new();
    for run in runs {
        let workload = run.get("workload").and_then(Value::as_str).ok_or("run without workload")?;
        let traced = run.get("trace").and_then(Value::as_num) == Some(1.0);
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_obj)
            .ok_or("run without result.metrics")?;
        let stats = side.entry((workload.to_string(), traced)).or_default();
        for (name, m) in metrics {
            let num = |k: &str| m.get(k).and_then(Value::as_num);
            let value = num("value").ok_or(format!("{name}: no value"))?;
            stats.insert(
                name.clone(),
                Stat {
                    value,
                    q1: num("q1").unwrap_or(value),
                    q3: num("q3").unwrap_or(value),
                    n: num("n").unwrap_or(1.0) as usize,
                },
            );
        }
    }
    Ok(side)
}

/// `name → (better, bound)` of the end-to-end metrics in `BENCHMARK.json`.
fn load_bounds(path: &str) -> Result<Vec<(String, Better, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list =
        doc.get("end_to_end").and_then(Value::as_arr).ok_or(format!("{path}: no end_to_end"))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).ok_or("metric without name")?;
            let better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: no direction")),
            };
            let bound = m.get("bound").and_then(Value::as_num).ok_or("metric without bound")?;
            Ok((name.to_string(), better, bound))
        })
        .collect()
}

/// Compares two `--out` files of the same seed, `a` being the base. One row
/// per workload × end-to-end metric, judged against the bound in
/// `BENCHMARK.json`; one row per exact per-layer count that differs.
/// Returns the table and whether every row passed.
pub fn compare(a_path: &str, b_path: &str, benchmark_json: &str) -> Result<(String, bool), String> {
    let (a, b) = (load_side(a_path)?, load_side(b_path)?);
    let bounds = load_bounds(benchmark_json)?;
    let mut out = format!(
        "{:<13} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    let mut all_pass = true;
    for ((workload, traced), a_metrics) in &a {
        let Some(b_metrics) = b.get(&(workload.clone(), *traced)) else {
            let _ = writeln!(out, "{workload:<13} missing from B");
            all_pass = false;
            continue;
        };
        if *traced {
            for def in PER_LAYER.iter().filter(|d| d.exact) {
                let (x, y) = (a_metrics.get(def.name), b_metrics.get(def.name));
                if x.map(|s| s.value) != y.map(|s| s.value) {
                    let _ =
                        writeln!(out, "{workload:<13} {:<16} {x:?} != {y:?}  DIFFERS", def.name);
                    all_pass = false;
                }
            }
            continue;
        }
        for (name, better, bound) in &bounds {
            let (Some(x), Some(y)) = (a_metrics.get(name), b_metrics.get(name)) else {
                let _ = writeln!(out, "{workload:<13} {name:<16} missing");
                all_pass = false;
                continue;
            };
            let worse_by = match better {
                Better::Lower => (y.value - x.value) / x.value,
                Better::Higher => (x.value - y.value) / x.value,
            };
            // A side whose own repetitions spread wider than the bound
            // cannot resolve a shift of the size of the bound.
            let verdict = if x.spread().max(y.spread()) > *bound {
                "UNRESOLVED"
            } else if worse_by > *bound {
                "WORSE"
            } else {
                "PASS"
            };
            all_pass &= verdict == "PASS";
            let _ = writeln!(
                out,
                "{workload:<13} {name:<16} {:>14.4} {:>14.4} {:>9.4} {:>7.2}  {verdict}",
                x.value,
                y.value,
                y.value / x.value,
                bound
            );
        }
    }
    Ok((out, all_pass))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    fn outcome(rate: f64, q: f64) -> Outcome {
        let stat = |v: f64| Stat { value: v, q1: v - q, q3: v + q, n: 5 };
        Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: END_TO_END
                .iter()
                .map(|d| (*d, if d.name == "updates_per_s" { stat(rate) } else { stat(100.0) }))
                .collect(),
            notes: Vec::new(),
        }
    }

    fn write(dir: &std::path::Path, name: &str, o: &Outcome) -> String {
        let path = dir.join(name);
        let doc = format!(
            "{{\"runs\":[{{\"workload\":\"w\",\"trace\":0,\"result\":{}}}]}}",
            detail_line(o)
        );
        std::fs::write(&path, doc).unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let v = json::parse(&result_line(&outcome(1000.0, 1.0))).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        for m in v.get("metrics").unwrap().as_obj().unwrap().values() {
            let keys: Vec<&str> = m.as_obj().unwrap().keys().map(String::as_str).collect();
            assert_eq!(keys, ["unit", "value"]);
        }
    }

    #[test]
    fn compare_tells_pass_worse_and_unresolved_apart() {
        let dir = crate::run::out_dir().join(format!("test-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bounds = dir.join("BENCHMARK.json");
        std::fs::write(
            &bounds,
            r#"{"end_to_end":[{"name":"updates_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let bounds = bounds.to_str().unwrap();
        let base = write(&dir, "a.json", &outcome(1000.0, 5.0));
        let verdict = |o: &Outcome| {
            let (table, pass) = compare(&base, &write(&dir, "b.json", o), bounds).unwrap();
            (table.lines().nth(1).unwrap().split_whitespace().last().unwrap().to_string(), pass)
        };
        assert_eq!(verdict(&outcome(950.0, 5.0)), ("PASS".to_string(), true));
        assert_eq!(verdict(&outcome(1200.0, 5.0)), ("PASS".to_string(), true));
        assert_eq!(verdict(&outcome(850.0, 5.0)), ("WORSE".to_string(), false));
        assert_eq!(verdict(&outcome(850.0, 80.0)), ("UNRESOLVED".to_string(), false));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
