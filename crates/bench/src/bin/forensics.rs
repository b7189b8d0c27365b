//! Provenance forensics over a seeded chaos run: reconstruct per-update
//! timelines from the lineage ring and break end-to-end latency down by
//! phase (queue wait, query time, park time, batch wait) and by anomaly
//! class (paper Section 3.3's four conflict classes).
//!
//! Every fault profile is summarized in one table row; the heaviest profile
//! then gets the full per-phase / per-class report. Not a paper figure —
//! the paper has no observability story — but the forensics answer the
//! question its correctness argument raises: *which* updates conflicted,
//! how were they rescheduled, and what did that cost each of them.
//!
//! `--json <path>` writes the full report as JSON; `--explain <id>` prints
//! the reconstructed timeline of one causal id from the detailed run.
//!
//! `--replica` switches to the **replication lens**: a partitioned
//! three-replica `Experiment::replicated` run with lineage on, broken down
//! per replica — messages resolved, applied, superseded, `rd` conflicts
//! detected, and the replication lag distribution (publish HLC → apply, the
//! `lag_us` field of each `repl.apply` record) against the local
//! commit-to-apply path measured by the chaos lens.

use dyno_bench::render_table;
use dyno_fault::FaultProfile;
use dyno_obs::{forensics, stage, Capture};
use dyno_sim::{run, Experiment, Report};

fn usage(bin: &str) -> ! {
    eprintln!("usage: {bin} [--json <path>] [--explain <id>] [--seed <n>] [--replica]");
    std::process::exit(2);
}

fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

/// The replication lens: per-replica message resolution and lag breakdown
/// of one partitioned three-replica experiment.
fn replica_lens(seed: u64) {
    let exp =
        Experiment { capture: Capture::PROV, ..Experiment::replicated("partition", 3, seed, None) };
    let report = run(exp).expect("testbed views initialize");
    assert!(report.converged, "replica forensics run died: {:?}", report.last_error);

    println!("== replication forensics (partition profile, 3 replicas, seed {seed}) ==\n");
    let header = [
        "replica",
        "resolved",
        "applied",
        "superseded",
        "rd conflicts",
        "lag p50",
        "lag p95",
        "live p50/p95/p99",
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (r, obs) in report.peer_obs.iter().enumerate() {
        // Each replica keeps its own collector, capturing provenance only.
        let records = obs.records();
        let at = |stage: &'static str| records.iter().filter(move |r| r.name == stage);
        let mut lags: Vec<u64> =
            at(stage::REPL_APPLY).filter_map(|r| r.u64_field("lag_us")).collect();
        lags.sort_unstable();
        // Two lag sources, one truth: the post-hoc lineage replay above and
        // the live `replica.lag_us` histogram sampled by the engine. The
        // live column is what `monitor` sees without lineage capture on.
        let live = obs.registry().histogram("replica.lag_us");
        let (p50, p95, p99) = live.percentiles();
        rows.push(vec![
            format!("r{r}"),
            at(stage::REPL_RECV).count().to_string(),
            at(stage::REPL_APPLY).count().to_string(),
            at(stage::SUPERSEDED).count().to_string(),
            at(stage::CONFLICT).filter(|r| r.u64_field("class") == Some(5)).count().to_string(),
            format!("{}µs", percentile(&lags, 50)),
            format!("{}µs", percentile(&lags, 95)),
            format!("{p50}/{p95}/{p99}µs (n={})", live.count()),
        ]);
    }
    println!("{}", render_table(&header, &rows));
    let crcs: Vec<Vec<u32>> =
        report.peer_views.iter().map(|v| v.iter().map(|o| o.extent_crc).collect()).collect();
    println!(
        "partitions held traffic: {}   LWW losers discarded: {}   extents bit-identical: {}",
        report.counter("replica.partitions_injected"),
        report.counter("replica.superseded"),
        crcs.windows(2).all(|w| w[0] == w[1]),
    );
    println!(
        "\n(remote lag is publish-HLC → apply at the receiver; compare against the\n\
         local commit → applied path in the chaos lens, which has no network leg)"
    );
}

fn main() {
    dyno_bench::warn_if_debug();
    let bin = std::env::args().next().unwrap_or_else(|| "forensics".into());
    let mut json: Option<String> = None;
    let mut explain: Option<u64> = None;
    let mut seed: u64 = 0;
    let mut replica = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = Some(args.next().unwrap_or_else(|| usage(&bin))),
            "--explain" => {
                let id = args.next().unwrap_or_else(|| usage(&bin));
                explain = Some(id.parse().unwrap_or_else(|_| usage(&bin)));
            }
            "--seed" => {
                let s = args.next().unwrap_or_else(|| usage(&bin));
                seed = s.parse().unwrap_or_else(|_| usage(&bin));
            }
            "--replica" => replica = true,
            _ => usage(&bin),
        }
    }

    if replica {
        replica_lens(seed);
        return;
    }

    println!("== provenance forensics (chaos workload, seed {seed}) ==\n");
    let header = ["profile", "applied", "conflicted", "lineage", "dropped", "e2e p50", "e2e p95"];
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut detailed: Option<(FaultProfile, Report)> = None;
    for profile in FaultProfile::all() {
        let capture = Capture::PROV | Capture::PROFILE;
        let report = run(Experiment { capture, ..Experiment::chaos(profile, seed) })
            .expect("testbed views initialize");
        assert!(report.last_error.is_none(), "chaos run died: {:?}", report.last_error);
        let records = report.obs.records();
        let f = forensics::analyze(&records);
        let (p50, p95, _) = f.end_to_end_us.percentiles();
        rows.push(vec![
            profile.name.to_string(),
            f.applied_updates.to_string(),
            f.conflicted_updates.to_string(),
            records.len().to_string(),
            report.obs.dropped().to_string(),
            format!("{p50}µs"),
            format!("{p95}µs"),
        ]);
        detailed = Some((profile, report));
    }
    println!("{}", render_table(&header, &rows));

    // Full per-phase / per-class breakdown for the heaviest profile (the
    // last in FaultProfile::all(): crash_restart).
    let (profile, report) = detailed.expect("at least one profile");
    let records = report.obs.records();
    let f = forensics::analyze(&records);
    println!("-- detailed report: profile {} --\n", profile.name);
    println!("{}", f.render_text_with_profile(&report.obs.profile_snapshot()));

    if let Some(id) = explain {
        println!("-- explain {id} (profile {}) --\n", profile.name);
        println!("{}", forensics::explain_text(id, &report.obs.explain(id)));
    } else if let Some(first) = records.iter().find(|r| r.name == stage::COMMIT) {
        // No id requested: demonstrate on the first committed update.
        println!("-- explain {} (first commit; pass --explain <id> to pick) --\n", first.id);
        println!("{}", forensics::explain_text(first.id, &report.obs.explain(first.id)));
    }

    if let Some(path) = &json {
        std::fs::write(path, f.render_json()).expect("write --json output");
        println!("report written to {path}");
    }
}
