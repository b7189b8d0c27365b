//! The metric catalogue and the few statistics the benchmark reports.
//!
//! `BENCHMARK.json` repeats the names, units and directions below and adds
//! the regression bounds; the test suite checks the two agree.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As spelled in `BENCHMARK.json`.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name; per-layer metrics are `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// True for a count that must repeat bit-for-bit for one seed.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better, exact: false }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better, exact: true }
}

use Better::{Higher, Lower};

/// What a user of the warehouse sees. Printed by every untraced run.
pub const END_TO_END: [Def; 5] = [
    timing("setup_s", "s", Lower),
    timing("updates_per_s", "1/s", Higher),
    timing("visible_p50_us", "us", Lower),
    timing("visible_p99_us", "us", Lower),
    timing("peak_rss_mib", "MiB", Lower),
];

/// One layer each, measured from outside. Printed by every traced run.
pub const PER_LAYER: [Def; 38] = [
    timing("source.commit_us", "us", Lower),
    count("source.fetch_at_calls_per_batch", "count", Lower),
    timing("source.fetch_at_us_per_batch", "us", Lower),
    timing("relational.execute_us_per_update", "us", Lower),
    count("relational.execute_calls_per_update", "count", Lower),
    count("relational.rows_scanned_per_update", "count", Lower),
    count("relational.index_probes_per_update", "count", Lower),
    timing("relational.join_probe_ns", "ns", Lower),
    timing("core.detect_us_per_round", "us", Lower),
    timing("core.correct_us_per_round", "us", Lower),
    count("core.graph_builds", "count", Lower),
    count("core.reorders", "count", Lower),
    count("core.merges", "count", Lower),
    count("core.fast_path_hits", "count", Higher),
    count("core.broken_queries", "count", Lower),
    timing("view.ingest_us_per_update", "us", Lower),
    timing("view.step_self_us_per_update", "us", Lower),
    timing("view.sweep_us", "us", Lower),
    timing("view.sweep_pending32_us", "us", Lower),
    timing("view.plan_build_us", "us", Lower),
    timing("view.apply_us", "us", Lower),
    timing("view.adapt_ms_per_batch", "ms", Lower),
    count("view.batches", "count", Lower),
    count("view.batched_updates", "count", Lower),
    count("view.aborts", "count", Lower),
    count("view.useful_ratio", "ratio", Higher),
    count("view.subplan_hit_ratio", "ratio", Higher),
    timing("durable.append_us_per_update", "us", Lower),
    count("durable.appends_per_update", "count", Lower),
    count("durable.append_bytes_per_update", "B", Lower),
    count("durable.checkpoints", "count", Lower),
    count("durable.checkpoint_bytes", "B", Lower),
    count("durable.wal_bytes_per_update", "B", Lower),
    timing("durable.checkpoint_ms", "ms", Lower),
    timing("durable.recover_ms", "ms", Lower),
    count("trace.updates", "count", Higher),
    timing("trace.unattributed_share", "ratio", Lower),
    timing("trace.overhead_ratio", "ratio", Higher),
];

/// A reported value: the median — or, from [`Stat::best_of`], the best — of
/// `n` per-repetition values, with their quartiles (all equal when `n` is 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// The reported value.
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of per-repetition values.
    pub n: usize,
}

impl Stat {
    /// A value measured once.
    pub fn single(value: f64) -> Stat {
        Stat { value, q1: value, q3: value, n: 1 }
    }

    /// Median and quartiles of `values`, as Python's
    /// `statistics.quantiles(values, n=4)` gives them.
    pub fn of(values: &[f64]) -> Stat {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        match v.len() {
            0 => Stat::single(0.0),
            1 => Stat::single(v[0]),
            n => {
                let cut = |i: usize| {
                    let j = (i * (n + 1) / 4).clamp(1, n - 1);
                    let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
                    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
                };
                Stat { value: cut(2), q1: cut(1), q3: cut(3), n }
            }
        }
    }

    /// The best of `values` in direction `better`, with the quartiles of all
    /// of them.
    pub fn best_of(values: &[f64], better: Better) -> Stat {
        let best = values.iter().copied().reduce(match better {
            Better::Lower => f64::min,
            Better::Higher => f64::max,
        });
        Stat { value: best.unwrap_or(0.0), ..Stat::of(values) }
    }

    /// Distance between the quartiles as a share of the reported value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Stat::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.value, s.q3, s.n), (1.5, 3.0, 4.5, 5));
        // statistics.quantiles([10, 20, 30, 40, 50, 60], n=4) == [17.5, 35.0, 52.5]
        let s = Stat::of(&[10.0, 20.0, 30.0, 40.0, 50.0, 60.0]);
        assert_eq!((s.q1, s.value, s.q3), (17.5, 35.0, 52.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Stat::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.value, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(Stat::of(&[7.0]), Stat::single(7.0));
    }

    #[test]
    fn best_of_follows_the_direction() {
        let values = [3.0, 1.0, 2.0];
        assert_eq!(Stat::best_of(&values, Better::Lower).value, 1.0);
        assert_eq!(Stat::best_of(&values, Better::Higher).value, 3.0);
        assert_eq!(Stat::best_of(&values, Better::Higher).q3, Stat::of(&values).q3);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        use dyno_obs::json::{self, Value};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (list, defs) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let declared: Vec<(String, String, String)> = doc
                .get(list)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.as_str().to_string()))
                .collect();
            assert_eq!(declared, ours, "{list}");
        }
        let declared: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(declared, crate::workload::WORKLOADS.map(|w| w.name));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64);
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
