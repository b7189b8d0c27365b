//! The incremental (Equation 6) adaptation path must be observationally
//! equivalent to wholesale recomputation: for any shape-preserving workload,
//! both `AdaptationMode`s produce the same final view definition and extent;
//! incremental is used exactly when applicable.

use dyno::core::Strategy;
use dyno::prelude::*;
use dyno::sim::{build_testbed, check_convergence, EventKind};
use dyno::view::AdaptationMode;

fn run_with_mode(
    timeline: &[(u64, EventKind)],
    seed: u64,
    mode: AdaptationMode,
) -> (Warehouse, InProcessPort) {
    let cfg = TestbedConfig { tuples_per_relation: 40, ..Default::default() };
    let (space, view) = build_testbed(&cfg);
    let info = space.info().clone();
    let mut gen = WorkloadGen::new(cfg, seed);
    let schedule = gen.realize(timeline);
    let mut port = InProcessPort::new(space);
    let mut mgr = Warehouse::new(info, Strategy::Pessimistic).with_adaptation(mode);
    mgr.add_view(view);
    mgr.initialize(&mut port).expect("testbed initializes");
    for c in schedule {
        port.commit(c.source, c.update).expect("workload is schema-consistent");
    }
    mgr.run_to_quiescence(&mut port, 2_000).expect("quiesces");
    (mgr, port)
}

/// Auto (incremental where applicable) and RecomputeOnly agree on the final
/// definition and extent for arbitrary DU/rename/drop workloads.
#[test]
fn modes_agree() {
    use dyno::sim::Rng;
    const KINDS: [EventKind; 4] = [
        EventKind::DataUpdate,
        EventKind::DataUpdate,
        EventKind::RenameRelation,
        EventKind::DropAttribute,
    ];
    let mut rng = Rng::new(0xADA_4517);
    for case in 0..16 {
        let n_events = rng.gen_range(1..12usize);
        let timeline: Vec<(u64, EventKind)> =
            (0..n_events).map(|i| (i as u64, *rng.choose(&KINDS))).collect();
        let seed = rng.gen_range(0..500u64);
        let (auto, auto_port) = run_with_mode(&timeline, seed, AdaptationMode::Auto);
        let (reco, _) = run_with_mode(&timeline, seed, AdaptationMode::RecomputeOnly);
        assert_eq!(auto.view(0), reco.view(0), "case {case}");
        assert_eq!(auto.mv(0).extent(), reco.mv(0).extent(), "case {case}");
        assert!(check_convergence(auto_port.space(), auto.view(0), auto.mv(0)).unwrap());
        assert_eq!(
            reco.stats(0).incremental_batches,
            0,
            "case {case}: RecomputeOnly never takes the incremental path"
        );
    }
}

/// A rename-plus-insert batch is adapted incrementally under Auto.
#[test]
fn auto_uses_incremental_for_renames() {
    let timeline = vec![
        (0, EventKind::DataUpdate),
        (0, EventKind::RenameRelation),
        (0, EventKind::RenameRelation),
    ];
    let (mgr, port) = run_with_mode(&timeline, 7, AdaptationMode::Auto);
    assert!(mgr.stats(0).incremental_batches >= 1, "stats: {:?}", mgr.stats(0));
    assert!(check_convergence(port.space(), mgr.view(0), mgr.mv(0)).unwrap());
}
