//! End-to-end randomized test of the paper's correctness claims (Section
//! 4.4): for arbitrary interleavings of data updates and schema changes,
//! under both detection strategies, the view manager
//!
//! * converges (final extent = view over final source states),
//! * maintains strong consistency (after every commit the extent matches
//!   the exact per-source state vector it claims to reflect),
//! * never leaves scheduled commits unapplied, and
//! * terminates within its step budget.
//!
//! Cases are drawn from the in-repo seeded PRNG (`dyno::sim::Rng`), so
//! every run replays the same case set and a failure is reproducible.

use dyno::core::Strategy as Detection;
use dyno::obs::Capture;
use dyno::prelude::*;
use dyno::sim::{build_testbed, EventKind, Rng};

/// The 60-tuple testbed under `timeline`, realized by a generator seeded
/// with `seed`.
fn experiment(timeline: &[(u64, EventKind)], seed: u64, strategy: Detection) -> Experiment {
    let cfg = TestbedConfig { tuples_per_relation: 60, ..Default::default() };
    let (space, view) = build_testbed(&cfg);
    let schedule = WorkloadGen::new(cfg, seed).realize(timeline);
    Experiment { strategy, ..Experiment::new(space, vec![view], schedule) }
}

const KINDS: [EventKind; 6] = [
    EventKind::DataUpdate,
    EventKind::DataUpdate,
    EventKind::DataDelete,
    EventKind::RenameRelation,
    EventKind::DropAttribute,
    EventKind::AddAttribute,
];

/// A random timeline: 1..14 events with random kinds at random times within
/// a 60-simulated-second window (the conflict-prone regime: a schema
/// change's maintenance takes ~25 s).
fn timeline(rng: &mut Rng) -> Vec<(u64, EventKind)> {
    let n = rng.gen_range(1..14usize);
    let mut t: Vec<(u64, EventKind)> =
        (0..n).map(|_| (rng.gen_range(0..60u64) * 1_000_000, *rng.choose(&KINDS))).collect();
    t.sort_by_key(|e| e.0);
    t
}

#[test]
fn any_interleaving_converges_with_strong_consistency() {
    let mut rng = Rng::new(0xC0_4517);
    for case in 0..24 {
        let timeline = timeline(&mut rng);
        let seed = rng.gen_range(0..1000u64);
        for strategy in [Detection::Pessimistic, Detection::Optimistic] {
            let report = run(Experiment { audit: true, ..experiment(&timeline, seed, strategy) })
                .expect("testbed views initialize");
            assert!(
                report.last_error.is_none(),
                "case {case} {strategy:?}: no hard failures on testbed workloads: {:?}",
                report.last_error
            );
            assert!(!report.exhausted, "case {case} {strategy:?}: step budget exhausted");
            assert_eq!(
                report.metrics.skipped_commits, 0,
                "case {case} {strategy:?}: workload generator must stay schema-consistent"
            );
            assert!(report.converged, "case {case} {strategy:?}: view did not converge");
            assert_eq!(
                report.audit_violations, 0,
                "case {case} {strategy:?}: strong consistency violated"
            );
        }
    }
}

/// DU-only interleavings additionally never abort and never build a
/// dependency graph (the O(1) fast path).
#[test]
fn du_only_interleavings_use_fast_path() {
    let mut rng = Rng::new(0xD0_4517);
    for case in 0..24 {
        let n_events = rng.gen_range(1..20usize);
        let mut timeline: Vec<(u64, EventKind)> = (0..n_events)
            .map(|_| (rng.gen_range(0..30u64) * 1_000_000, EventKind::DataUpdate))
            .collect();
        timeline.sort_by_key(|e| e.0);
        let seed = rng.gen_range(0..1000u64);
        let exp = Experiment { audit: true, ..experiment(&timeline, seed, Detection::Pessimistic) };
        let n = exp.schedule.len() as u64;
        let report = run(exp).expect("testbed views initialize");
        assert!(report.converged, "case {case}: DU-only runs cannot fail: {:?}", report.last_error);
        assert_eq!(report.audit_violations, 0, "case {case}");
        assert_eq!(report.metrics.aborts, 0, "case {case}");
        assert_eq!(report.counter("dyno.graph_builds"), 0, "case {case}");
        assert_eq!(report.views[0].stats.du_committed, n, "case {case}");
    }
}

/// The observability registry is a faithful projection: over random traced
/// workloads, the `sim.*` counters always equal the `sim::Metrics` the
/// report carries (they are the same cells, read two ways).
#[test]
fn registry_totals_project_sim_metrics() {
    let mut rng = Rng::new(0x0B5_4517);
    for case in 0..12 {
        let timeline = timeline(&mut rng);
        let seed = rng.gen_range(0..1000u64);
        let strategy = if rng.gen_range(0..2u32) == 0 {
            Detection::Pessimistic
        } else {
            Detection::Optimistic
        };
        let report =
            run(Experiment { capture: Capture::TRACE, ..experiment(&timeline, seed, strategy) })
                .expect("testbed views initialize");
        assert!(report.last_error.is_none(), "case {case}: {:?}", report.last_error);
        let counter = |name: &str| report.counter(name);
        assert_eq!(counter("sim.committed_us"), report.metrics.committed_us, "case {case}");
        assert_eq!(counter("sim.abort_us"), report.metrics.abort_us, "case {case}");
        assert_eq!(counter("sim.committed_sc_us"), report.metrics.committed_sc_us, "case {case}");
        assert_eq!(counter("sim.abort_sc_us"), report.metrics.abort_sc_us, "case {case}");
        assert_eq!(counter("sim.queries"), report.metrics.queries, "case {case}");
        assert_eq!(counter("sim.aborts"), report.metrics.aborts, "case {case}");
        assert_eq!(counter("sim.attempts"), report.metrics.attempts, "case {case}");
        assert_eq!(counter("sim.skipped_commits"), report.metrics.skipped_commits, "case {case}");
    }
}
