//! Ablation: incremental (Equation 6) vs. recompute-only view adaptation.
//!
//! When a merged batch preserves the view's shape (renames, additive
//! changes), the Section-5 incremental path computes `ΔV` over homogenized
//! deltas and writes only `|ΔV|` tuples into the view, instead of
//! re-materializing the whole extent. This experiment measures the saving
//! on a rename-heavy workload (no attribute drops, so every batch is
//! shape-preserving) at increasing view sizes.

use dyno_bench::{render_table, run_converged, secs, warn_if_debug, write_json_table, BenchArgs};
use dyno_sim::{build_testbed, CostModel, Experiment, TestbedConfig, WorkloadGen};
use dyno_view::AdaptationMode;

fn main() {
    warn_if_debug();
    let args = BenchArgs::parse();
    println!("== Ablation: incremental (Eq. 6) vs recompute-only adaptation ==");
    println!("50 DUs + 6 renames at 30 s intervals, pessimistic; simulated seconds\n");

    let mut rows = Vec::new();
    for tuples in [1_000usize, 4_000, 16_000] {
        let cfg = TestbedConfig { tuples_per_relation: tuples, ..Default::default() };
        let mut cells = vec![tuples.to_string()];
        for (label, mode) in
            [("incremental", AdaptationMode::Auto), ("recompute", AdaptationMode::RecomputeOnly)]
        {
            let (space, view) = build_testbed(&cfg);
            let mut gen = WorkloadGen::new(cfg, 0xADA);
            // Renames only (offset the drop by generating it last and
            // discarding it): build the timeline by hand.
            let mut timeline = Vec::new();
            for k in 0..50u64 {
                timeline.push((k * 500_000, dyno_sim::EventKind::DataUpdate));
            }
            for k in 0..6u64 {
                timeline.push((k * 30_000_000, dyno_sim::EventKind::RenameRelation));
            }
            timeline.sort_by_key(|e| e.0);
            let schedule = gen.realize(&timeline);
            let report = run_converged(
                &format!("{tuples}/{label}"),
                Experiment {
                    adaptation: mode,
                    cost: CostModel::calibrated(tuples as u64),
                    ..Experiment::new(space, vec![view], schedule)
                },
            );
            cells.push(secs(report.metrics.total_cost_us()));
            if mode == AdaptationMode::Auto {
                cells.push(report.views[0].stats.incremental_batches.to_string());
            }
        }
        rows.push(cells);
    }
    let header = ["tuples/rel", "incremental (s)", "eq6 batches", "recompute (s)"];
    println!("{}", render_table(&header, &rows));
    if let Some(path) = &args.json {
        write_json_table(path, "ablation_adapt", &header, &rows).expect("write --json output");
        println!("series written to {path}\n");
    }
    println!(
        "the incremental path saves the full-extent materialized-view write on\n\
         every shape-preserving batch; the saving grows with the view size."
    );
}
