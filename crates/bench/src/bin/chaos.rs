//! Chaos robustness sweep: the Section 6.1 testbed driven through the
//! fault-injecting transport (`dyno-fault`), one row per (profile, seed).
//!
//! Not a figure from the paper — the paper assumes reliable delivery — but
//! the same methodology applied to the recovery layer: seeded, simulated,
//! reproducible. `--json` writes the series with a `last_error` field so
//! scripts can distinguish a clean sweep from one a hard error truncated.

use dyno_bench::{render_table, write_json_table_with_status, BenchArgs};
use dyno_fault::FaultProfile;
use dyno_sim::{run, Experiment};

fn main() {
    let args = BenchArgs::parse();
    dyno_bench::warn_if_debug();
    let seeds: u64 =
        std::env::var("DYNO_CHAOS_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(4);
    println!("== chaos robustness sweep ({seeds} seed(s) per profile) ==\n");

    let header =
        ["profile", "seed", "converged", "steps", "parked", "faults", "retries", "dups dropped"];
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut last_error: Option<String> = None;
    for profile in FaultProfile::all() {
        for seed in 0..seeds {
            let report = run(Experiment::chaos(profile, seed)).expect("testbed views initialize");
            if let Some(e) = &report.last_error {
                last_error = Some(e.clone());
            }
            rows.push(vec![
                profile.name.to_string(),
                seed.to_string(),
                report.converged.to_string(),
                report.steps.to_string(),
                report.counter("dyno.parked").to_string(),
                report.counter("fault.injected_total").to_string(),
                report.counter("retry.attempts").to_string(),
                report.counter("fault.duplicates_dropped").to_string(),
            ]);
        }
    }
    println!("{}", render_table(&header, &rows));
    match &last_error {
        Some(e) => println!("last_error: {e}"),
        None => println!("last_error: none"),
    }

    if let Some(path) = &args.json {
        write_json_table_with_status(path, "chaos", &header, &rows, last_error.as_deref())
            .expect("write --json output");
        println!("series written to {path}");
    }
}
