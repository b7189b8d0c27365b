//! Paper Figure 10: effect of the time interval between schema changes.
//!
//! Workload: 200 data updates trickling through the run plus a train of ten
//! schema changes (one drop-attribute, then nine rename-relations, randomly
//! targeted over the six relations), with the inter-SC interval swept from
//! 0 s to 41 s. Expected shape (paper Section 6.4.1):
//! * interval 0 — all SCs flood in before maintenance starts; one
//!   correction fixes everything, no broken queries, lowest cost;
//! * interval ≈ one SC-maintenance time (≈ 25 simulated seconds here) —
//!   each SC lands near the end of the previous SC's maintenance, maximal
//!   abort cost;
//! * interval ≫ maintenance time — updates stop interfering, cost flattens
//!   to pure maintenance;
//! * pessimistic ≤ optimistic throughout.

use dyno_bench::{
    cost_model, render_table, run_converged, secs, testbed_config, warn_if_debug, write_json_table,
    BenchArgs,
};
use dyno_core::Strategy;
use dyno_obs::{Capture, RecordKind};
use dyno_sim::{build_testbed, Experiment, TestbedConfig, WorkloadGen};

const SEEDS: u64 = 3;

fn main() {
    warn_if_debug();
    let args = BenchArgs::parse();
    let cfg = testbed_config();
    println!("== Figure 10: time interval of schema changes ==");
    println!("200 DUs + 10 SCs (1 drop-attr + 9 renames); simulated seconds, mean of 3 seeds\n");

    let mut rows = Vec::new();
    for interval_s in [0u64, 3, 9, 17, 23, 29, 41] {
        let mut cells = vec![interval_s.to_string()];
        for strategy in [Strategy::Optimistic, Strategy::Pessimistic] {
            let (mut total, mut abort) = (0u64, 0u64);
            for seed in 0..SEEDS {
                let (space, view) = build_testbed(&cfg);
                let mut gen = WorkloadGen::new(cfg, 0xF10 + interval_s + 1000 * seed);
                // DUs trickle every 0.5 s across the run; 10 SCs at the interval.
                let schedule = gen.mixed(200, 500_000, 10, 0, interval_s * 1_000_000);
                let report = run_converged(
                    &format!("interval {interval_s}s/{strategy:?}"),
                    Experiment {
                        strategy,
                        cost: cost_model(),
                        ..Experiment::new(space, vec![view], schedule)
                    },
                );
                total += report.metrics.total_cost_us();
                abort += report.metrics.abort_us;
            }
            cells.push(secs(total / SEEDS));
            cells.push(secs(abort / SEEDS));
        }
        rows.push(cells);
    }
    let header = [
        "interval (s)",
        "optimistic (s)",
        "abort of opt (s)",
        "pessimistic (s)",
        "abort of pess (s)",
    ];
    println!("{}", render_table(&header, &rows));
    println!(
        "expected shape: cost lowest at interval 0 (everything corrected at once),\n\
         peaks when the interval matches one SC maintenance time (~25 s), then\n\
         flattens; pessimistic stays at or below optimistic."
    );
    if let Some(path) = &args.json {
        write_json_table(path, "fig10", &header, &rows).expect("write --json output");
        println!("\nseries written to {path}");
    }
    if let Some(path) = &args.trace {
        traced_run(path, &cfg);
    }
    if let Some(path) = &args.chrome {
        chrome_run(path, &cfg);
    }
}

/// The representative run the exports below capture: interval 17 s,
/// optimistic — plenty of aborts — with tracing on.
fn representative(cfg: &TestbedConfig) -> Experiment {
    let (space, view) = build_testbed(cfg);
    let mut gen = WorkloadGen::new(*cfg, 0xF10 + 17);
    let schedule = gen.mixed(200, 500_000, 10, 0, 17_000_000);
    Experiment {
        strategy: Strategy::Optimistic,
        cost: cost_model(),
        capture: Capture::TRACE,
        ..Experiment::new(space, vec![view], schedule)
    }
}

/// JSONL trace of the representative run to `path`, metrics snapshot to
/// `path.metrics.json`.
fn traced_run(path: &str, cfg: &TestbedConfig) {
    let report = run_converged("traced run", representative(cfg));
    std::fs::write(path, report.obs.trace_jsonl()).expect("write trace");
    let metrics_path = format!("{path}.metrics.json");
    std::fs::write(&metrics_path, report.obs.metrics_json()).expect("write metrics snapshot");

    // The snapshot is a projection of the same registry the Metrics struct
    // reads, so these hold exactly.
    let reg = report.obs.registry();
    assert_eq!(reg.counter_value("sim.committed_us"), Some(report.metrics.committed_us));
    assert_eq!(reg.counter_value("sim.abort_us"), Some(report.metrics.abort_us));
    assert_eq!(reg.counter_value("sim.aborts"), Some(report.metrics.aborts));
    let records = report.obs.records();
    let spans = records
        .iter()
        .filter(|r| r.kind == RecordKind::SpanStart && r.name == "view.maintain")
        .count() as u64;
    assert_eq!(spans, report.metrics.attempts, "one span per maintenance attempt");
    println!(
        "\ntraced run (interval 17 s, optimistic): {} records ({} maintenance spans, \
         {} aborts) -> {path}\nmetrics snapshot (consistent with sim::Metrics) -> \
         {metrics_path}",
        records.len(),
        spans,
        report.metrics.aborts,
    );
}

/// The representative run with tracing *and* lineage, exported as a Chrome
/// `trace_event` document: per-subsystem lanes, 1 µs `prov.*` slices, and
/// flow arrows following each causal id from source commit to extent delta.
/// Load the file at <https://ui.perfetto.dev>.
fn chrome_run(path: &str, cfg: &TestbedConfig) {
    let capture = Capture::TRACE | Capture::PROV;
    let report = run_converged("chrome-traced run", Experiment { capture, ..representative(cfg) });
    let records = report.obs.records();
    let doc = dyno_obs::export_chrome(&records);
    std::fs::write(path, &doc).expect("write chrome trace");
    let lineage = records.iter().filter(|r| r.kind == RecordKind::Prov).count();
    println!(
        "\nchrome trace (interval 17 s, optimistic): {} trace records + {lineage} lineage \
         records ({} dropped) -> {path}\nopen it at https://ui.perfetto.dev",
        records.len() - lineage,
        report.obs.dropped(),
    );
}
