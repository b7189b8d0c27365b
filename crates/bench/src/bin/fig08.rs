//! Paper Figure 8: data-update processing cost with and without detection.
//!
//! Workload: 500–3000 random data updates (no schema changes) over the
//! six-relation testbed. "With detection" is the pessimistic strategy,
//! whose pre-exec pass reduces to the O(1) `NewSchemaChangeFlag` check in a
//! DU-only stream; "without detection" is the optimistic strategy, which
//! never runs pre-exec detection at all. The paper's finding — detection
//! overhead is almost unobservable — holds by construction of the fast
//! path, and this binary demonstrates it end to end.

use dyno_bench::{
    cost_model, render_table, run_converged, secs, testbed_config, warn_if_debug, write_json_table,
    BenchArgs,
};
use dyno_core::Strategy;
use dyno_sim::{build_testbed, Experiment, WorkloadGen};

fn main() {
    warn_if_debug();
    let args = BenchArgs::parse();
    let cfg = testbed_config();
    println!("== Figure 8: DU processing and detection ==");
    println!(
        "testbed: {} relations x {} tuples; y-values are simulated seconds\n",
        cfg.relation_count(),
        cfg.tuples_per_relation
    );

    let mut rows = Vec::new();
    for n in [500usize, 1000, 1500, 2000, 2500, 3000] {
        let mut cells = vec![n.to_string()];
        let mut costs = Vec::new();
        for strategy in [Strategy::Pessimistic, Strategy::Optimistic] {
            let (space, view) = build_testbed(&cfg);
            let mut gen = WorkloadGen::new(cfg, 0xF18 + n as u64);
            let schedule = gen.du_flood(n);
            let report = run_converged(
                &format!("{n} DUs/{strategy:?}"),
                Experiment {
                    strategy,
                    cost: cost_model(),
                    ..Experiment::new(space, vec![view], schedule)
                },
            );
            assert_eq!(report.metrics.aborts, 0, "sanity: DUs never break queries");
            if strategy == Strategy::Pessimistic {
                assert_eq!(
                    report.counter("dyno.graph_builds"),
                    0,
                    "sanity: the O(1) flag fast path must avoid graph builds"
                );
            }
            costs.push(report.metrics.total_cost_us());
            cells.push(secs(report.metrics.total_cost_us()));
        }
        let overhead = costs[0] as f64 / costs[1] as f64 - 1.0;
        cells.push(format!("{:+.2}%", overhead * 100.0));
        rows.push(cells);
    }
    let header = ["#DUs", "with detection (s)", "without detection (s)", "overhead"];
    println!("{}", render_table(&header, &rows));
    println!("paper's conclusion reproduced: detection overhead on DU processing ~ 0.");
    if let Some(path) = &args.json {
        write_json_table(path, "fig08", &header, &rows).expect("write --json output");
        println!("\nseries written to {path}");
    }
}
