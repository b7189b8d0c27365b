//! Ablation: cycle merge vs. blind merge-all (paper Section 4.2).
//!
//! The paper rejects the "simplistic solution" of merging all the updates
//! whenever there is a broken query anomaly" for two reasons: more
//! intermediate view states go missing, and the bigger batch runs longer
//! and is more likely to be aborted by the next conflicting change. This
//! experiment quantifies both on the Figure-10 mixed workload: the number
//! of view refreshes (commits — each is an intermediate state made visible)
//! and the total/abort cost, under the pessimistic strategy.

use dyno_bench::{
    cost_model, render_table, run_converged, secs, testbed_config, warn_if_debug, write_json_table,
    BenchArgs,
};
use dyno_core::CorrectionPolicy;
use dyno_sim::{build_testbed, Experiment, WorkloadGen};

const SEEDS: u64 = 3;

fn main() {
    warn_if_debug();
    let args = BenchArgs::parse();
    let cfg = testbed_config();
    println!("== Ablation: cycle merge vs. blind merge-all (Section 4.2) ==");
    println!("200 DUs + 10 SCs, pessimistic; simulated seconds, mean of 3 seeds\n");

    let mut rows = Vec::new();
    for interval_s in [3u64, 17, 29] {
        let mut cells = vec![interval_s.to_string()];
        for policy in [CorrectionPolicy::MergeCycles, CorrectionPolicy::MergeAll] {
            let (mut total, mut abort, mut refreshes) = (0u64, 0u64, 0u64);
            for seed in 0..SEEDS {
                let (space, view) = build_testbed(&cfg);
                let mut gen = WorkloadGen::new(cfg, 0xAB1 + interval_s + 1000 * seed);
                let schedule = gen.mixed(200, 500_000, 10, 0, interval_s * 1_000_000);
                let report = run_converged(
                    &format!("interval {interval_s}s/{policy:?}"),
                    Experiment {
                        policy,
                        cost: cost_model(),
                        ..Experiment::new(space, vec![view], schedule)
                    },
                );
                total += report.metrics.total_cost_us();
                abort += report.metrics.abort_us;
                refreshes += report.counter("dyno.committed");
            }
            cells.push(secs(total / SEEDS));
            cells.push(secs(abort / SEEDS));
            cells.push((refreshes / SEEDS).to_string());
        }
        rows.push(cells);
    }
    let header = [
        "interval (s)",
        "cycles (s)",
        "abort (s)",
        "refreshes",
        "merge-all (s)",
        "abort (s)",
        "refreshes",
    ];
    println!("{}", render_table(&header, &rows));
    if let Some(path) = &args.json {
        write_json_table(path, "ablation_merge", &header, &rows).expect("write --json output");
        println!("series written to {path}\n");
    }
    println!(
        "the paper's argument quantified: blind merging exposes far fewer\n\
         intermediate view states (refreshes) and tends to waste more work\n\
         when a long merged batch gets broken."
    );
}
