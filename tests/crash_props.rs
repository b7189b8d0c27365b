//! The seeded crash-recovery suite: the chaos testbed with the warehouse
//! process itself killed at deterministic points of the commit protocol and
//! recovered from its write-ahead log (`dyno::durable` + `dyno::view::wal`).
//!
//! Every run must satisfy:
//!
//! * **termination** — the run quiesces within its step budget despite the
//!   kills;
//! * **strong consistency** — `check_reflected` passes after every commit
//!   *and immediately after every recovery*;
//! * **convergence** — the final extent equals the view over final source
//!   states;
//! * **bit identity** — the final extent (CRC over its canonical encoding)
//!   and final view SQL equal those of the same seed run with no kills:
//!   recovery changes *when* work happens, never *what* is computed;
//! * **no torn tails** — the simulated power cut drops whole records, so
//!   `recover.torn_records` must stay 0 (torn-write handling itself is
//!   fuzzed per byte in `dyno-durable` and below).
//!
//! The quick subset always runs; the acceptance grid (3 crash classes × 8
//! seeds × 2 correction policies) is `#[ignore]`d and exercised by
//! `scripts/verify.sh` under `VERIFY_FULL=1` via `--include-ignored`. When
//! `DYNO_CRASH_SUMMARY` names a file, each run appends its kill and torn
//! counters so the harness can assert the suite actually crashed processes.

use dyno::core::CorrectionPolicy;
use dyno::durable::{MemStorage, Storage};
use dyno::fault::FaultProfile;
use dyno::obs::Collector;
use dyno::sim::{run_crash_chaos, CrashConfig, CrashReport};
use dyno::view::wal::{CrashPlan, CrashPoint};

const CLASSES: [CrashPoint; 3] =
    [CrashPoint::BetweenSteps, CrashPoint::AfterIntent, CrashPoint::MidBatch];

/// Runs one kill configuration and enforces every invariant above,
/// comparing against the same seed's no-kill baseline.
fn assert_healthy(cfg: &CrashConfig, baseline: &CrashReport) -> CrashReport {
    let report = run_crash_chaos(cfg);
    let ctx = format!(
        "profile={} seed={} policy={:?} kills={:?}",
        cfg.profile.name, cfg.seed, cfg.policy, cfg.kills
    );
    assert!(!report.exhausted, "{ctx}: must terminate within the step budget");
    assert!(report.last_error.is_none(), "{ctx}: hard error {:?}", report.last_error);
    assert!(report.converged, "{ctx}: extent must converge to final source states");
    assert_eq!(report.audit_violations, 0, "{ctx}: strong consistency at every commit");
    assert_eq!(report.recovery_audit_failures, 0, "{ctx}: strong consistency after recovery");
    assert_eq!(report.torn_records, 0, "{ctx}: whole-record cuts leave no torn tail");
    assert_eq!(report.final_view_sql, baseline.final_view_sql, "{ctx}: same final view");
    assert_eq!(
        report.final_extent_crc, baseline.final_extent_crc,
        "{ctx}: final extent bit-identical to the no-kill run"
    );
    write_summary(&report);
    report
}

/// Appends kill/torn counters to `$DYNO_CRASH_SUMMARY` when set.
fn write_summary(report: &CrashReport) {
    use std::io::Write;
    if let Some(path) = std::env::var_os("DYNO_CRASH_SUMMARY") {
        if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
            let _ = writeln!(
                f,
                "wal.kills={} recover.torn_records={}",
                report.kills, report.torn_records
            );
        }
    }
}

#[test]
fn crash_quick_each_class_recovers() {
    let baseline = run_crash_chaos(&CrashConfig::new(FaultProfile::quiet(), 7));
    assert!(baseline.converged && baseline.kills == 0);
    let mut kills = 0;
    for point in CLASSES {
        let cfg = CrashConfig::new(FaultProfile::quiet(), 7)
            .with_kills(vec![CrashPlan { point, skip: 1 }]);
        kills += assert_healthy(&cfg, &baseline).kills;
    }
    assert_eq!(kills, 3, "every crash class must actually fire");
}

#[test]
fn crash_quick_survives_repeated_kills_in_one_run() {
    let baseline = run_crash_chaos(&CrashConfig::new(FaultProfile::quiet(), 11));
    let cfg = CrashConfig::new(FaultProfile::quiet(), 11).with_kills(vec![
        CrashPlan { point: CrashPoint::BetweenSteps, skip: 0 },
        CrashPlan { point: CrashPoint::AfterIntent, skip: 0 },
        CrashPlan { point: CrashPoint::MidBatch, skip: 0 },
    ]);
    let report = assert_healthy(&cfg, &baseline);
    assert_eq!(report.kills, 3, "all three kills fire in a single run");
    assert!(report.replayed_records > 0, "recovery replays logged records");
}

#[test]
fn crash_quick_survives_kills_under_transport_faults() {
    // Kills on top of drop/duplicate transport faults: both recovery layers
    // (delivery resequencing and WAL replay) active at once. Bit identity
    // is only asserted against the no-kill run of the SAME faulty profile.
    let baseline = run_crash_chaos(&CrashConfig::new(FaultProfile::drop_dup(), 3));
    assert!(baseline.converged, "faulty-transport baseline converges");
    let cfg = CrashConfig::new(FaultProfile::drop_dup(), 3)
        .with_kills(vec![CrashPlan { point: CrashPoint::BetweenSteps, skip: 1 }]);
    let report = assert_healthy(&cfg, &baseline);
    assert_eq!(report.kills, 1);
}

/// The view-level torn-write matrix: a real warehouse log truncated at every
/// byte boundary of its tail. Recovery must never panic, never lose the
/// checkpointed prefix, and must report the torn tail via the counter.
#[test]
fn view_recovery_survives_truncation_at_every_byte() {
    // Build a small real log: checkpoint + a few maintained updates.
    use dyno::prelude::*;
    use dyno::view::testkit::{bookinfo_space, bookinfo_view, insert_item};
    use dyno::view::DurableLog;

    let space = bookinfo_space();
    let info = space.info().clone();
    let mut port = InProcessPort::new(space);
    let mut mgr = Warehouse::new(info.clone(), Strategy::Pessimistic);
    mgr.add_view(bookinfo_view());
    mgr.initialize(&mut port).unwrap();
    let disk = MemStorage::new();
    let mut mgr = mgr.with_wal(DurableLog::create(Box::new(disk.clone())).unwrap()).unwrap();
    for i in 0..4 {
        port.commit(
            SourceId(0),
            SourceUpdate::Data(insert_item(20 + i, "Torn Pages", "Author", 10)),
        )
        .unwrap();
        mgr.run_to_quiescence(&mut port, 10).unwrap();
    }
    let image = disk.snapshot();
    let full = Storage::len(&disk).unwrap() as usize;
    let checkpointed_extent = {
        let obs = Collector::disabled();
        let (m, _) = Warehouse::recover(Box::new(disk.clone()), info.clone(), obs).unwrap();
        m.mv(0).len()
    };
    assert!(checkpointed_extent >= 1);

    let mut torn_seen = 0u64;
    for cut in 0..=full {
        let storage = MemStorage::new();
        storage.set(image[..cut].to_vec());
        let obs = Collector::wall();
        match Warehouse::recover(Box::new(storage), info.clone(), obs.clone()) {
            Ok((m, report)) => {
                // The checkpointed prefix survives: the recovered view is a
                // valid bookinfo state, never an empty or corrupt shell.
                assert!(!m.mv(0).is_empty(), "cut={cut}: checkpointed prefix lost");
                torn_seen += report.torn_records;
                assert_eq!(
                    report.torn_records,
                    obs.registry().counter_value("recover.torn_records").unwrap_or(0),
                    "cut={cut}: torn tail must be counted"
                );
            }
            // Cutting inside the very first checkpoint record leaves no
            // recoverable state at all — an explicit error, not a panic.
            Err(e) => {
                let msg = e.to_string();
                assert!(msg.contains("checkpoint"), "cut={cut}: unexpected error {msg}");
            }
        }
    }
    assert!(torn_seen > 0, "some truncation points must yield a reported torn tail");
}

/// The acceptance grid: 3 crash classes × 8 seeds × 2 correction policies,
/// every run audited at every commit and recovery, each compared
/// bit-for-bit against its no-kill baseline. Run via `VERIFY_FULL=1
/// scripts/verify.sh` or `cargo test --release --test crash_props --
/// --include-ignored`.
#[test]
#[ignore = "full grid; run with --include-ignored (VERIFY_FULL=1 scripts/verify.sh)"]
fn crash_full_grid_recovers_on_every_class() {
    let mut kills = 0u64;
    for policy in [CorrectionPolicy::MergeCycles, CorrectionPolicy::MergeAll] {
        for seed in 0..8u64 {
            let baseline =
                run_crash_chaos(&CrashConfig::new(FaultProfile::quiet(), seed).with_policy(policy));
            assert!(baseline.converged, "seed={seed} policy={policy:?}: baseline converges");
            for point in CLASSES {
                let cfg = CrashConfig::new(FaultProfile::quiet(), seed)
                    .with_policy(policy)
                    .with_kills(vec![CrashPlan { point, skip: seed % 3 }]);
                kills += assert_healthy(&cfg, &baseline).kills;
            }
        }
    }
    assert!(kills >= 40, "the grid must actually kill processes (got {kills})");
}

#[test]
#[ignore = "full grid companion; run with --include-ignored (VERIFY_FULL=1 scripts/verify.sh)"]
fn crash_full_grid_is_deterministic() {
    for point in CLASSES {
        let cfg = CrashConfig::new(FaultProfile::drop_dup(), 5)
            .with_kills(vec![CrashPlan { point, skip: 0 }]);
        let a = run_crash_chaos(&cfg);
        let b = run_crash_chaos(&cfg);
        assert_eq!(a.kills, b.kills);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.converged, b.converged);
        assert_eq!(a.final_extent_crc, b.final_extent_crc, "bit-identical replays");
        assert_eq!(a.replayed_records, b.replayed_records);
    }
}
