//! Replication sweep: replica count × fault profile, timing one seeded
//! `Experiment::replicated` run per cell — client-write rounds under faults
//! and partitions, heal, NACK flush, and the convergence audit — and
//! reporting its replication counters beside the wall-clock medians.
//!
//! Every cell also cross-checks correctness: the run must converge to
//! bit-identical extents at every replica, and partition cells must detect
//! concurrent writes. The counters are deterministic per seed;
//! `tests/data/replica_grid.txt` pins them exactly, so `--json` carries only
//! the timings `benchdiff` compares.
//!
//! ```text
//! replicate [--reps K] [--seed N] [--json PATH]
//! ```

use std::io::Write as _;
use std::time::Instant;

use dyno_bench::render_table;
use dyno_sim::{run, Experiment, Report};

struct Args {
    reps: usize,
    seed: u64,
    json: Option<String>,
}

fn usage(bin: &str) -> ! {
    eprintln!("usage: {bin} [--reps K] [--seed N] [--json PATH]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let bin = std::env::args().next().unwrap_or_else(|| "replicate".into());
    let mut out = Args { reps: 3, seed: 42, json: None };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |a: &mut dyn FnMut(&str)| match args.next() {
            Some(v) => a(&v),
            None => usage(&bin),
        };
        match arg.as_str() {
            "--reps" => num(&mut |v| out.reps = v.parse().unwrap_or_else(|_| usage(&bin))),
            "--seed" => num(&mut |v| out.seed = v.parse().unwrap_or_else(|_| usage(&bin))),
            "--json" => num(&mut |v| out.json = Some(v.to_string())),
            _ => usage(&bin),
        }
    }
    out
}

fn main() {
    dyno_bench::warn_if_debug();
    let args = parse_args();
    println!("== replication sweep (seed {}, {} reps) ==\n", args.seed, args.reps);

    let header =
        ["cell", "median", "published", "applied", "conflicts", "superseded", "partitions"];
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json_lines: Vec<String> = Vec::new();

    for replicas in [2usize, 3, 5] {
        for profile in ["quiet", "drop_dup", "partition"] {
            let mut times: Vec<u64> = Vec::new();
            let mut last: Option<Report> = None;
            for _ in 0..args.reps.max(1) {
                let t0 = Instant::now();
                let report = run(Experiment::replicated(profile, replicas, args.seed, None))
                    .expect("testbed views initialize");
                times.push(t0.elapsed().as_nanos() as u64);
                assert!(
                    report.converged,
                    "r{replicas}/{profile}: sweep cell must converge: {:?}",
                    report.last_error
                );
                if profile == "partition" {
                    assert!(
                        report.counter("replica.conflicts") > 0
                            && report.counter("replica.partitions_injected") > 0,
                        "r{replicas}/partition: cell must partition and conflict"
                    );
                }
                last = Some(report);
            }
            times.sort_unstable();
            let median = times[times.len() / 2];
            let report = last.expect("at least one rep ran");
            rows.push(vec![
                format!("r{replicas}/{profile}"),
                format!("{:.2}ms", median as f64 / 1e6),
                report.counter("replica.published").to_string(),
                report.counter("replica.remote_applied").to_string(),
                report.counter("replica.conflicts").to_string(),
                report.counter("replica.superseded").to_string(),
                report.counter("replica.partitions_injected").to_string(),
            ]);
            json_lines.push(format!(
                "{{\"group\":\"replicate\",\"bench\":\"converge/r{replicas}_{profile}\",\
                 \"median_ns\":{median}}}"
            ));
        }
    }

    println!("{}", render_table(&header, &rows));

    if let Some(path) = &args.json {
        let mut f = std::fs::File::create(path).expect("create --json output");
        for line in &json_lines {
            writeln!(f, "{line}").expect("write --json output");
        }
        println!("medians written to {path}");
    }
}
