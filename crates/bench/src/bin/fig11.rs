//! Paper Figure 11: effect of the *number* of schema changes.
//!
//! Workload: 200 data updates trickling through the run plus a train of
//! `k ∈ {5,10,15,20,25}` schema changes (one drop-attribute followed by
//! renames) spaced 25 simulated seconds apart — the interval at which each
//! change tends to land inside the previous change's maintenance window.
//! Expected shape (paper Section 6.4.1): abort cost grows with the number
//! of schema changes for both strategies; pessimistic stays below
//! optimistic thanks to pre-exec detection.

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
    println!("== Figure 11: increasing number of schema changes ==");
    println!("200 DUs + k SCs at 25 s intervals; simulated seconds, mean of 3 seeds\n");

    let interval_us = 25_000_000u64;
    let mut rows = Vec::new();
    for k in [5usize, 10, 15, 20, 25] {
        let mut cells = vec![k.to_string()];
        for strategy in [Strategy::Optimistic, Strategy::Pessimistic] {
            let (mut total, mut abort) = (0u64, 0u64);
            for seed in 0..SEEDS {
                let (space, view) = build_testbed(&cfg);
                let mut gen = WorkloadGen::new(cfg, 0xF11 + k as u64 + 1000 * seed);
                let schedule = gen.mixed(200, 500_000, k, 0, interval_us);
                let report = run_converged(
                    &format!("k={k}/{strategy:?}"),
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
        ["#SCs", "optimistic (s)", "abort of opt (s)", "pessimistic (s)", "abort of pess (s)"];
    println!("{}", render_table(&header, &rows));
    println!("expected shape: abort cost grows with #SCs; pessimistic <= optimistic.");
    if let Some(path) = &args.json {
        write_json_table(path, "fig11", &header, &rows).expect("write --json output");
        println!("\nseries written to {path}");
    }
}
