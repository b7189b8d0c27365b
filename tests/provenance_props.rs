//! Provenance conservation: the lineage captured by `dyno::obs` must agree
//! with what the maintenance machinery actually did, under transport faults
//! and across warehouse crashes.
//!
//! Invariants, checked over the full lineage capture of each run:
//!
//! * **conservation** — every member of every committed extent delta
//!   (`stage::EXTENT` batch record) traces back to at least one `admit`
//!   record: nothing reaches the view without passing the UMQ gate;
//! * **no orphan terminals** — every `applied` id was admitted, and every
//!   `applied` id appears in exactly one extent batch;
//! * **exactly-once terminals** — no id carries two `applied` records, even
//!   when the warehouse is killed mid-commit and recovery re-executes the
//!   batch (a durable Applied record must *not* be re-recorded; a dropped
//!   one must be recorded exactly once, post-recovery);
//! * **no silent eviction** — these runs must fit the lineage ring, else
//!   the conservation checks above would be vacuous;
//! * **bit identity** — the same seed re-run yields a byte-identical
//!   `lineage_jsonl()` capture: provenance is as deterministic as the run;
//! * **recorded pins** — every capture surface (trace and lineage JSONL, the
//!   Chrome export, the forensics report, `explain`, the profile's counts)
//!   of a fixed set of runs matches `tests/data/capture_pins.txt`.
//!
//! The quick subset always runs; the full grids are `#[ignore]`d and
//! exercised by `scripts/verify.sh` via `--include-ignored`.

use std::collections::HashMap;

use dyno::fault::FaultProfile;
use dyno::obs::{stage, Capture, Collector, Record, RecordKind, BATCH_BIT};
use dyno::sim::{run, Experiment, Report};
use dyno::view::wal::{CrashPlan, CrashPoint};

const CLASSES: [CrashPoint; 3] =
    [CrashPoint::BetweenSteps, CrashPoint::AfterIntent, CrashPoint::MidBatch];

/// Per-id tallies extracted from one run's lineage capture.
struct Tally {
    admits: HashMap<u64, u64>,
    applieds: HashMap<u64, u64>,
    /// id → number of extent batches naming it as a member.
    extent_memberships: HashMap<u64, u64>,
    extent_batches: u64,
}

fn tally(obs: &Collector) -> Tally {
    let mut t = Tally {
        admits: HashMap::new(),
        applieds: HashMap::new(),
        extent_memberships: HashMap::new(),
        extent_batches: 0,
    };
    for r in obs.records().iter().filter(|r| r.kind == RecordKind::Prov) {
        if r.id & BATCH_BIT != 0 {
            if r.name == stage::EXTENT {
                t.extent_batches += 1;
                for m in r.causal_ids() {
                    *t.extent_memberships.entry(m).or_insert(0) += 1;
                }
            }
            continue;
        }
        match r.name {
            s if s == stage::ADMIT => *t.admits.entry(r.id).or_insert(0) += 1,
            s if s == stage::APPLIED => *t.applieds.entry(r.id).or_insert(0) += 1,
            _ => {}
        }
    }
    t
}

/// The chaos testbed with lineage on and `kills` armed, run to the end.
fn traced(profile: FaultProfile, seed: u64, kills: Vec<CrashPlan>) -> Report {
    run(Experiment { capture: Capture::PROV, kills, ..Experiment::chaos(profile, seed) })
        .expect("testbed views initialize")
}

/// The conservation + exactly-once invariants over one run's capture.
fn assert_conserved(obs: &Collector, ctx: &str) {
    assert_eq!(
        obs.dropped(),
        0,
        "{ctx}: the run must fit the lineage ring (conservation would be vacuous)"
    );
    let t = tally(obs);
    assert!(t.extent_batches > 0, "{ctx}: a converged run commits at least one extent delta");
    assert!(!t.applieds.is_empty(), "{ctx}: a converged run applies at least one update");

    for (id, n) in &t.extent_memberships {
        assert!(
            t.admits.contains_key(id),
            "{ctx}: extent member u{id} has no admit record (untraceable delta)"
        );
        assert_eq!(*n, 1, "{ctx}: u{id} named in {n} extent batches (must be exactly one)");
        assert!(t.applieds.contains_key(id), "{ctx}: extent member u{id} has no applied record");
    }
    for (id, n) in &t.applieds {
        assert_eq!(*n, 1, "{ctx}: u{id} has {n} applied records (terminals are exactly-once)");
        assert!(t.admits.contains_key(id), "{ctx}: applied u{id} was never admitted (orphan)");
        assert!(
            t.extent_memberships.contains_key(id),
            "{ctx}: applied u{id} is in no extent batch"
        );
    }
}

#[test]
fn chaos_lineage_conserves_every_extent_delta() {
    for profile in FaultProfile::all() {
        let report = traced(profile, 7, vec![]);
        let ctx = format!("profile={} seed=7", profile.name);
        assert!(report.last_error.is_none(), "{ctx}: hard error {:?}", report.last_error);
        assert!(report.converged, "{ctx}: run must converge");
        assert_conserved(&report.obs, &ctx);
    }
}

#[test]
fn crash_lineage_terminals_survive_every_kill_class() {
    // A kill at each point of the commit protocol: terminals must come out
    // exactly-once whether the Applied record was durable (the cut tripped
    // on that very append — recovery does not re-execute) or dropped (the
    // cut came earlier — recovery re-executes and records them then).
    for point in CLASSES {
        let report = traced(FaultProfile::quiet(), 7, vec![CrashPlan { point, skip: 1 }]);
        let ctx = format!("kill={point:?} seed=7");
        assert_eq!(report.counter("wal.power_cuts"), 1, "{ctx}: the kill must fire");
        assert!(report.converged, "{ctx}: recovered run converges");
        assert_conserved(&report.obs, &ctx);
    }
}

#[test]
fn multiview_lineage_conserves_every_extent_delta_across_a_kill() {
    // Lineage over N overlapping views, with a kill in the middle: every
    // view's extent deltas still trace to admitted updates, and terminals
    // stay exactly-once per update — not once per view.
    let report = run(Experiment {
        capture: Capture::PROV,
        kills: vec![CrashPlan { point: CrashPoint::BetweenSteps, skip: 3 }],
        ..Experiment::multiview(FaultProfile::drop_dup(), 7)
    })
    .expect("testbed views initialize");
    assert_eq!(report.counter("wal.power_cuts"), 1, "the kill must fire");
    assert!(report.converged, "recovered run converges: {:?}", report.last_error);
    assert_conserved(&report.obs, "multiview drop_dup seed=7 kill=BetweenSteps");
}

#[test]
fn lineage_is_bit_identical_across_same_seed_reruns() {
    let a = traced(FaultProfile::drop_dup(), 4, vec![]).obs.lineage_jsonl();
    let b = traced(FaultProfile::drop_dup(), 4, vec![]).obs.lineage_jsonl();
    assert!(!a.is_empty(), "capture must not be empty");
    assert_eq!(a, b, "same seed, same faults, byte-identical lineage");
}

/// Counts ids per stage in one replica's lineage JSONL capture (replica
/// runs export per-replica JSONL strings rather than sharing a collector).
fn stage_ids(jsonl: &str, stage: &str) -> HashMap<u64, u64> {
    let needle = format!("\"stage\":\"{stage}\"");
    let mut out = HashMap::new();
    for line in jsonl.lines().filter(|l| l.contains(&needle)) {
        let id = line
            .split("\"id\":")
            .nth(1)
            .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|s| s.parse::<u64>().ok())
            .expect("every lineage line carries an id");
        *out.entry(id).or_insert(0) += 1;
    }
    out
}

/// Replica-message conservation: at every receiving replica, each resolved
/// peer message reaches **exactly one** terminal — `repl.apply` when it won
/// (or was causally ordered), `superseded` when a causally later or
/// LWW-winning write already holds the register — never both, never twice,
/// and never without a `repl.recv` record. Holds across partitions,
/// concurrent-write conflicts, and a mid-run kill/recovery.
#[test]
fn replica_lineage_terminates_each_message_exactly_once() {
    let exp =
        Experiment { capture: Capture::PROV, ..Experiment::replicated("partition", 3, 9, Some(6)) };
    let report = run(exp).expect("testbed views initialize");
    assert!(report.converged, "run must converge: {:?}", report.last_error);
    assert!(report.counter("replica.superseded") > 0, "partition conflicts must supersede");
    assert_eq!(report.counter("wal.power_cuts"), 1, "the armed kill fired");
    for (r, obs) in report.peer_obs.iter().enumerate() {
        let jsonl = &obs.lineage_jsonl();
        let recv = stage_ids(jsonl, stage::REPL_RECV);
        let apply = stage_ids(jsonl, stage::REPL_APPLY);
        let superseded = stage_ids(jsonl, stage::SUPERSEDED);
        assert!(!recv.is_empty(), "replica {r}: resolved at least one peer message");
        for (id, n) in &recv {
            assert_eq!(*n, 1, "replica {r}: message {id:#x} resolved {n} times");
            let a = apply.get(id).copied().unwrap_or(0);
            let s = superseded.get(id).copied().unwrap_or(0);
            assert_eq!(
                a + s,
                1,
                "replica {r}: message {id:#x} has apply={a} superseded={s} terminals"
            );
        }
        for id in apply.keys().chain(superseded.keys()) {
            assert!(
                recv.contains_key(id),
                "replica {r}: terminal for {id:#x} without a repl.recv record"
            );
        }
    }
}

/// The full chaos grid with lineage on: every profile × 6 seeds, each run
/// conserved. Run via `scripts/verify.sh` or `cargo test --release --test
/// provenance_props -- --include-ignored`.
#[test]
#[ignore = "full grid; run with --include-ignored (scripts/verify.sh)"]
fn chaos_full_grid_conserves_lineage() {
    for profile in FaultProfile::all() {
        for seed in 0..6u64 {
            let report = traced(profile, seed, vec![]);
            let ctx = format!("profile={} seed={seed}", profile.name);
            assert!(report.converged, "{ctx}: run must converge");
            assert_conserved(&report.obs, &ctx);
        }
    }
}

/// The full crash grid with lineage on: every kill class × 6 seeds × skip
/// variants, terminals exactly-once across every recovery, and the crashed
/// capture bit-identical on rerun.
#[test]
#[ignore = "full grid; run with --include-ignored (VERIFY_FULL=1 scripts/verify.sh)"]
fn crash_full_grid_conserves_lineage() {
    let mut kills = 0u64;
    for point in CLASSES {
        for seed in 0..6u64 {
            let plan = vec![CrashPlan { point, skip: seed % 3 }];
            let report = traced(FaultProfile::quiet(), seed, plan.clone());
            let ctx = format!("kill={point:?} seed={seed}");
            assert!(report.converged, "{ctx}: recovered run converges");
            assert_conserved(&report.obs, &ctx);
            kills += report.counter("wal.power_cuts");

            let again = traced(FaultProfile::quiet(), seed, plan);
            assert_eq!(
                report.obs.lineage_jsonl(),
                again.obs.lineage_jsonl(),
                "{ctx}: crashed capture bit-identical on rerun"
            );
        }
    }
    assert!(kills >= 12, "the grid must actually kill processes (got {kills})");
}

/// One pin line per capturing run: CRC32 of every capture surface each
/// peer renders (`trace_jsonl`, `lineage_jsonl`, `export_chrome`, the
/// forensics JSON report and `explain_text` of the first applied id), the
/// profile's call, row, cancellation and probe totals (never its ns), and
/// the ring's drop count, which must stay 0.
fn capture_pin(name: &str, r: &Report) -> String {
    use dyno::durable::crc32;
    use dyno::obs::{export_chrome, forensics};
    use std::fmt::Write;
    let crc = |s: &str| crc32(s.as_bytes());
    let mut line = format!("{name} converged={} cuts={}", r.converged, r.counter("wal.power_cuts"));
    let mut dropped = 0;
    for obs in &r.peer_obs {
        let records = obs.records();
        let applied = |r: &&Record| r.kind == RecordKind::Prov && r.name == stage::APPLIED;
        let first_applied = records.iter().find(applied).map(|r| r.id);
        let explain =
            first_applied.map_or(String::new(), |id| forensics::explain_text(id, &obs.explain(id)));
        write!(
            line,
            " [trace={:08x} lineage={:08x} chrome={:08x} forensics={:08x} explain={:08x}]",
            crc(&obs.trace_jsonl()),
            crc(&obs.lineage_jsonl()),
            crc(&export_chrome(&records)),
            crc(&forensics::analyze(&records).render_json()),
            crc(&explain),
        )
        .expect("writing to a String");
        dropped += obs.dropped();
    }
    let (mut calls, mut rows_in, mut rows_out, mut cancelled, mut probes) = (0, 0, 0, 0, 0);
    for (_, plan) in r.obs.profile_snapshot().plans() {
        for agg in plan.nodes.values() {
            calls += agg.calls;
            rows_in += agg.rows_in;
            rows_out += agg.rows_out;
            cancelled += agg.weights_cancelled;
            probes += agg.index_probes;
        }
    }
    writeln!(
        line,
        " profile calls={calls} rows_in={rows_in} rows_out={rows_out} cancelled={cancelled} \
         probes={probes} dropped={dropped}"
    )
    .expect("writing to a String");
    line
}

/// Every capture surface of a set of chaos runs (each fault profile × seeds
/// {0, 3}, plus one with a kill) with tracing, lineage and the profiler on,
/// and of a partitioned three-peer run with lineage on, pinned against
/// `tests/data/capture_pins.txt`. After an intended change, replace the file
/// with the `.actual` capture the failure names.
#[test]
fn capture_matches_the_recorded_pins() {
    let mut out = String::new();
    let kill = vec![CrashPlan { point: CrashPoint::BetweenSteps, skip: 2 }];
    let mut runs: Vec<(FaultProfile, u64, Vec<CrashPlan>)> = Vec::new();
    for profile in std::iter::once(FaultProfile::quiet()).chain(FaultProfile::all()) {
        for seed in [0, 3] {
            runs.push((profile, seed, vec![]));
        }
    }
    runs.push((FaultProfile::drop_dup(), 3, kill));
    for (profile, seed, kills) in runs {
        let name = format!("chaos {} seed={seed} kills={}", profile.name, kills.len());
        let capture = Capture::TRACE | Capture::PROV | Capture::PROFILE;
        let exp = Experiment { capture, kills, ..Experiment::chaos(profile, seed) };
        out.push_str(&capture_pin(&name, &run(exp).expect("testbed views initialize")));
    }
    let exp =
        Experiment { capture: Capture::PROV, ..Experiment::replicated("partition", 3, 7, None) };
    let report = run(exp).expect("testbed views initialize");
    out.push_str(&capture_pin("replicated partition r3 seed=7", &report));

    let recorded = include_str!("data/capture_pins.txt");
    if out != recorded {
        let actual = concat!(env!("CARGO_TARGET_TMPDIR"), "/capture_pins.txt.actual");
        std::fs::write(actual, &out).expect("write the actual capture");
        let (mut got, mut want) = (out.lines(), recorded.lines());
        let line = 1 + (0..).find(|_| got.next() != want.next()).expect("the captures differ");
        panic!("capture pins moved (first at line {line}); actual capture in {actual}");
    }
}
