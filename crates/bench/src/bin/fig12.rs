//! Paper Figure 12: effect of the number of data updates on the abort cost.
//!
//! Workload: one drop-attribute plus four rename-relation schema changes at
//! a fixed 25-second interval, while the number of concurrent data updates
//! sweeps 200–600. Expected shape (paper Section 6.4.2): total maintenance
//! cost grows with the DU count, but the **abort cost stays flat** — broken
//! queries are caused by schema changes, not data updates.

use dyno_bench::{
    cost_model, render_table, run_converged, secs, testbed_config, warn_if_debug, write_json_table,
    BenchArgs,
};
use dyno_core::Strategy;
use dyno_sim::{build_testbed, Experiment, WorkloadGen};

const SEEDS: u64 = 3;

fn main() {
    warn_if_debug();
    let args = BenchArgs::parse();
    let cfg = testbed_config();
    println!("== Figure 12: increasing number of data updates ==");
    println!("n DUs + 5 SCs (1 drop-attr + 4 renames) at 25 s intervals; simulated seconds, mean of 3 seeds\n");

    let interval_us = 25_000_000u64;
    let mut rows = Vec::new();
    for n in [200usize, 300, 400, 500, 600] {
        let mut cells = vec![n.to_string()];
        for strategy in [Strategy::Optimistic, Strategy::Pessimistic] {
            let (mut total, mut abort) = (0u64, 0u64);
            for seed in 0..SEEDS {
                let (space, view) = build_testbed(&cfg);
                let mut gen = WorkloadGen::new(cfg, 0xF12 + n as u64 + 1000 * seed);
                let schedule = gen.mixed(n, 500_000, 5, 0, interval_us);
                let report = run_converged(
                    &format!("n={n}/{strategy:?}"),
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
    let header =
        ["#DUs", "optimistic (s)", "abort of opt (s)", "pessimistic (s)", "abort of pess (s)"];
    println!("{}", render_table(&header, &rows));
    println!(
        "expected shape: total cost grows with #DUs, abort cost stays roughly\n\
         constant — aborts are caused by schema changes, not data updates."
    );
    if let Some(path) = &args.json {
        write_json_table(path, "fig12", &header, &rows).expect("write --json output");
        println!("\nseries written to {path}");
    }
}
