//! The replicated-warehouse convergence suite: N peer warehouses over the
//! shared testbed, exchanging their client writes — one `(relation, key,
//! row)` upsert each — through the partition-capable `PeerNet` fabric
//! (`dyno::sim::Experiment::replicated`). A write, local or a remote winner,
//! is an ordinary logged commit at a peer's sources, which its warehouse
//! maintains like any other.
//!
//! Invariants every healthy run must satisfy:
//!
//! * **bit identity** — after the final heal and flush, every replica's
//!   per-view extent CRCs are identical;
//! * **source-deep convergence** — each replica's extent equals its view
//!   evaluated over its *own* source tables, and every replica's sources
//!   rewind through their whole history to version 0;
//! * **conflict detection** — partition runs must detect concurrent writes
//!   to one `(relation, key)` (the `rd` dependency class) and discard LWW
//!   losers as superseded, while writes to different relations both land;
//! * **crash tolerance** — a replica killed between its durable `Published`
//!   record and the send recovers and re-sends identical bytes;
//! * **determinism** — the same seed reproduces the run bit-for-bit,
//!   lineage capture included.
//!
//! The quick subset always runs; the full grid (replica counts × profiles ×
//! seeds × kill/no-kill) is `#[ignore]`d and exercised by
//! `scripts/verify.sh` under `VERIFY_FULL=1` via `--include-ignored`, and
//! `tests/data/replica_grid.txt` pins every run's counters exactly.

use dyno::fault::PartitionWindow;
use dyno::obs::Capture;
use dyno::relational::{DataUpdate, Delta, SourceUpdate, Tuple, Value};
use dyno::sim::{run, Experiment, Report, ScheduledCommit};
use dyno::source::SourceSpace;
use dyno::view::ViewDefinition;

/// Per-replica, per-view extent CRCs (the convergence fingerprint).
fn crcs(report: &Report) -> Vec<Vec<u32>> {
    report.peer_views.iter().map(|views| views.iter().map(|v| v.extent_crc).collect()).collect()
}

/// Runs one configuration and enforces the invariants.
fn assert_healthy(profile: &str, replicas: usize, seed: u64, kill: Option<usize>) -> Report {
    let ctx = format!("profile={profile} replicas={replicas} seed={seed} kill={kill:?}");
    healthy(Experiment::replicated(profile, replicas, seed, kill), &ctx, profile == "partition")
}

/// Runs `exp` and enforces the invariants (`partitioned`: the conflict
/// ones too).
fn healthy(exp: Experiment, ctx: &str, partitioned: bool) -> Report {
    let report = run(exp).expect("testbed views initialize");
    let crcs = crcs(&report);
    assert!(report.last_error.is_none(), "{ctx}: hard error {:?}", report.last_error);
    assert!(crcs.windows(2).all(|w| w[0] == w[1]), "{ctx}: replica extents diverged: {crcs:?}");
    assert_eq!(report.audit_violations, 0, "{ctx}: an extent disagrees with its own sources");
    assert!(report.converged, "{ctx}: run must converge");
    if partitioned {
        assert!(
            report.counter("replica.partitions_injected") > 0,
            "{ctx}: windows must hold traffic"
        );
        assert!(
            report.counter("replica.conflicts") > 0,
            "{ctx}: concurrent writes must be detected"
        );
        assert!(report.counter("replica.superseded") > 0, "{ctx}: LWW losers must be discarded");
    }
    report
}

#[test]
fn replica_smoke_partition_trio_conflicts_and_converges() {
    // The headline scenario: three replicas, two partition/heal windows
    // with concurrent same-key writes scheduled inside them. The heal must
    // drain to bit-identical extents with nonzero detected conflicts.
    let report = assert_healthy("partition", 3, 42, None);
    assert!(report.counter("replica.published") > 0);
    assert!(report.counter("replica.remote_applied") > 0);
}

#[test]
fn replica_smoke_each_profile_converges() {
    for profile in ["quiet", "drop_dup", "partition"] {
        assert_healthy(profile, 2, 1, None);
    }
}

#[test]
fn replica_smoke_crash_before_send_recovers() {
    let report = assert_healthy("quiet", 3, 3, Some(5));
    assert_eq!(report.counter("wal.power_cuts"), 1, "the armed kill fired");
}

#[test]
fn replica_same_seed_is_bit_reproducible() {
    let run = || {
        run(Experiment {
            capture: Capture::PROV,
            ..Experiment::replicated("partition", 3, 23, None)
        })
        .expect("testbed views initialize")
    };
    let (a, b) = (run(), run());
    let lineage = |r: &Report| r.peer_obs.iter().map(|o| o.lineage_jsonl()).collect::<Vec<_>>();
    assert_eq!(crcs(&a), crcs(&b), "extents reproduce bit-for-bit");
    assert_eq!(a.counter("replica.conflicts"), b.counter("replica.conflicts"));
    assert_eq!(a.counter("replica.superseded"), b.counter("replica.superseded"));
    assert_eq!(lineage(&a), lineage(&b), "lineage capture reproduces bit-for-bit");
}

#[test]
fn every_replica_records_live_lag_samples() {
    // The `replica.lag_us` histogram is registered and recorded by every
    // engine on every run, lineage capture or not.
    let report = assert_healthy("quiet", 2, 42, None);
    assert_eq!(report.counter("replica.conflicts"), 0, "sharded keys, no partitions, no conflicts");
    assert_eq!(report.peer_obs.len(), 2, "one collector per replica");
    for (r, obs) in report.peer_obs.iter().enumerate() {
        let lag = obs.registry().histogram("replica.lag_us");
        assert!(lag.count() > 0, "replica {r}: remote applies recorded live lag samples");
    }
}

/// Schedules a client write of `row` into `relation` at peer `peer`,
/// keeping the schedule in time order.
fn client_write(exp: &mut Experiment, at_us: u64, peer: usize, relation: &str, row: &Tuple) {
    let source = exp.space.locate(relation).expect("a testbed relation");
    let schema = exp.space.server(source).catalog().get(relation).unwrap().schema().clone();
    let delta = Delta::inserts(schema, [row.clone()]).expect("a row of the relation's width");
    let update = SourceUpdate::Data(DataUpdate::new(delta));
    exp.schedule.push(ScheduledCommit { at_us, source, update, peer });
    exp.schedule.sort_by_key(|w| w.at_us);
}

/// The rows `sources` hold in `relation` under `key`.
fn rows_at(sources: &SourceSpace, relation: &str, key: i64) -> Vec<Tuple> {
    let source = sources.locate(relation).expect("a testbed relation");
    let rel = sources.server(source).catalog().get(relation).unwrap();
    let rows = rel.rows().iter().filter(|(t, _)| t.get(0) == &Value::from(key));
    rows.map(|(t, _)| t.clone()).collect()
}

#[test]
fn disjoint_relation_writes_in_one_partition_both_survive() {
    // Peers 0 and 1 are cut off from each other while peer 0 writes R0 and
    // peer 1 writes R1, both under key 5 — one key of one view, but two
    // different source rows. Neither write may be lost.
    let mut exp = Experiment::replicated("quiet", 2, 1, None);
    let window = PartitionWindow { a: 0, b: 1, start_us: 100_000, end_us: 200_000 };
    exp.peers.as_mut().expect("a replicated run").partitions.push(window);
    let row = |v: i64| Tuple::new([5, v, v, v].into_iter().map(Value::from).collect());
    let (r0, r1) = (row(-100), row(-101));
    client_write(&mut exp, 150_000, 0, "R0", &r0);
    client_write(&mut exp, 150_000, 1, "R1", &r1);
    let report = healthy(exp, "disjoint writes", false);
    assert!(report.counter("replica.partitions_injected") > 0, "the window held traffic");
    assert_eq!(report.counter("replica.conflicts"), 0, "different rows never conflict");
    assert_eq!(report.peer_sources.len(), 2);
    for (p, sources) in report.peer_sources.iter().enumerate() {
        assert_eq!(
            rows_at(sources, "R0", 5),
            std::slice::from_ref(&r0),
            "peer {p} holds peer 0's write"
        );
        assert_eq!(
            rows_at(sources, "R1", 5),
            std::slice::from_ref(&r1),
            "peer {p} holds peer 1's write"
        );
    }
}

#[test]
fn replicated_views_need_not_project_every_column() {
    // Each view drops columns of every relation it joins, and V1 filters
    // on a constant: peers exchange source rows, so no view has to carry
    // enough columns to rebuild them.
    let view = |sql: &str| ViewDefinition::parse(sql, "V").expect("valid SQL");
    for (profile, replicas, seed) in [("partition", 3, 7), ("drop_dup", 2, 1)] {
        let mut exp = Experiment::replicated(profile, replicas, seed, Some(5));
        exp.views = vec![
            view(
                "CREATE VIEW V0 AS SELECT R0.K, R0.A1, R1.A2, R2.A3 FROM R0, R1, R2 \
                 WHERE R0.K = R1.K AND R1.K = R2.K",
            ),
            view(
                "CREATE VIEW V1 AS SELECT R3.K, R4.A1, R5.A2 FROM R3, R4, R5 \
                 WHERE R3.K = R4.K AND R4.K = R5.K AND R4.A1 < 500000",
            ),
        ];
        let ctx = format!("narrow views, {profile} r{replicas} seed={seed}");
        let report = healthy(exp, &ctx, profile == "partition");
        assert_eq!(report.counter("wal.power_cuts"), 1, "{ctx}: the armed kill fired");
    }
}

/// The full partition/heal chaos grid: replica counts × profiles × 8 seeds,
/// each both uncrashed and with a mid-run kill. `#[ignore]`d (minutes);
/// run via `scripts/verify.sh` under `VERIFY_FULL=1` or
/// `cargo test --release --test replica_props -- --include-ignored`.
#[test]
#[ignore = "full grid; run with --include-ignored (VERIFY_FULL=1 scripts/verify.sh)"]
fn replica_full_grid_converges_under_partitions_and_kills() {
    let mut partitions = 0u64;
    let mut conflicts = 0u64;
    let mut superseded = 0u64;
    let mut kills = 0u64;
    for replicas in [2usize, 3, 5] {
        for profile in ["quiet", "drop_dup", "partition"] {
            for seed in 0..8u64 {
                let clean = assert_healthy(profile, replicas, seed, None);
                let crashed = assert_healthy(profile, replicas, seed, Some(4 + seed as usize % 3));
                let sum = |name: &str| clean.counter(name) + crashed.counter(name);
                assert!(
                    crashed.counter("wal.power_cuts") >= 1,
                    "{profile} r{replicas} seed={seed}: kill fired"
                );
                partitions += sum("replica.partitions_injected");
                conflicts += sum("replica.conflicts");
                superseded += sum("replica.superseded");
                kills += crashed.counter("wal.power_cuts");
            }
        }
    }
    assert!(partitions > 0, "the grid must partition");
    assert!(conflicts > 0, "the grid must detect concurrent writes");
    assert!(superseded > 0, "the grid must discard LWW losers");
    assert!(kills >= 72, "every crashed run must kill (got {kills})");
}

/// Every replicated run the suites make, one fingerprint line each, against
/// `tests/data/replica_grid.txt`: the full grid (replica counts × profiles ×
/// seeds, clean and killed at round `4 + seed % 3`) plus each smoke case.
/// Registry and lineage bytes stay out: they record port instrumentation,
/// not replication outcomes. After an intended change, replace the file
/// with the `.actual` capture the failure names.
#[test]
#[ignore = "155 runs; scripts/verify.sh runs it in release"]
fn replica_grid_matches_the_recorded_fingerprints() {
    use std::fmt::Write;
    let mut cases: Vec<(&str, usize, u64, Option<usize>)> = Vec::new();
    for replicas in [2usize, 3, 5] {
        for profile in ["quiet", "drop_dup", "partition"] {
            for seed in 0..8u64 {
                cases.push((profile, replicas, seed, None));
                cases.push((profile, replicas, seed, Some(4 + seed as usize % 3)));
            }
        }
    }
    cases.extend([
        ("partition", 3, 42, None),
        ("quiet", 2, 1, None),
        ("drop_dup", 2, 1, None),
        ("partition", 2, 1, None),
        ("quiet", 3, 3, Some(5)),
        ("partition", 3, 23, None),
        ("partition", 3, 9, Some(6)),
        ("quiet", 2, 42, None),
        ("partition", 3, 7, None),
        ("drop_dup", 3, 11, None),
        ("quiet", 2, 5, Some(6)),
    ]);
    let mut out = String::new();
    for (profile, replicas, seed, kill) in cases {
        let r = run(Experiment::replicated(profile, replicas, seed, kill))
            .expect("testbed views initialize");
        let crcs = crcs(&r);
        writeln!(
            out,
            "{profile} r{replicas} seed={seed} kill={kill:?} converged={} bit_identical={} \
             crcs={crcs:?} partitions={} conflicts={} superseded={} remote_applied={} published={} \
             duplicates={} kills={}",
            r.converged,
            crcs.windows(2).all(|w| w[0] == w[1]),
            r.counter("replica.partitions_injected"),
            r.counter("replica.conflicts"),
            r.counter("replica.superseded"),
            r.counter("replica.remote_applied"),
            r.counter("replica.published"),
            r.counter("replica.duplicates"),
            r.counter("wal.power_cuts"),
        )
        .expect("writing to a String");
    }
    let recorded = include_str!("data/replica_grid.txt");
    if out != recorded {
        let actual = concat!(env!("CARGO_TARGET_TMPDIR"), "/replica_grid.txt.actual");
        std::fs::write(actual, &out).expect("write the actual capture");
        let (mut got, mut want) = (out.lines(), recorded.lines());
        let line = 1 + (0..).find(|_| got.next() != want.next()).expect("the captures differ");
        panic!("replica fingerprints moved (first at line {line}); actual capture in {actual}");
    }
}
