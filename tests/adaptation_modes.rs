//! The incremental (Equation 6) and projected (from the held extent)
//! adaptation answers must be observationally equivalent to wholesale
//! recomputation: for any workload of data updates, renames and drops,
//! both `AdaptationMode`s produce the same final view definition and extent;
//! incremental is used exactly when applicable; and on a port that answers
//! its reads live, schema-change rounds ship no rows at all.

mod common;

use common::ShipCounter;
use dyno::core::Strategy;
use dyno::obs::Collector;
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

/// Rounds shaped like the `sc_storm` benchmark's — 16 data updates with a
/// drop of a view column after the 5th and a relation rename after the
/// 10th — against a port that answers its adaptation reads live. Once the
/// view is initialized, no row leaves the sources: data updates are SWEEP's
/// probes, renames Equation 6's, and each pruned column comes from the
/// extent the warehouse already holds.
#[test]
fn a_live_port_ships_no_rows_through_schema_change_rounds() {
    let cfg = TestbedConfig { tuples_per_relation: 40, ..Default::default() };
    let (space, view) = build_testbed(&cfg);
    let info = space.info().clone();
    let mut gen = WorkloadGen::new(cfg, 11);
    let obs = Collector::wall();
    let mut port = ShipCounter::new(InProcessPort::new(space));
    let mut wh = Warehouse::new(info, Strategy::Pessimistic).with_obs(obs.clone());
    wh.add_view(view);
    wh.initialize(&mut port).expect("testbed initializes");
    port.shipped = 0;
    for round in 0..12 {
        for d in 0..16 {
            let mut kinds = vec![EventKind::DataUpdate];
            match d {
                4 => kinds.push(EventKind::DropAttribute),
                9 => kinds.push(EventKind::RenameRelation),
                _ => {}
            }
            for kind in kinds {
                let c = gen.event(0, kind);
                port.port.commit(c.source, c.update).expect("workload is schema-consistent");
            }
        }
        wh.run_to_quiescence(&mut port, 2_000).expect("quiesces");
        let converged = check_convergence(port.port.space(), wh.view(0), wh.mv(0)).unwrap();
        assert!(converged, "round {round}: the extent is eval(V′)");
    }
    assert_eq!(wh.view(0).output_cols().len(), 24 - 12, "every round pruned a column");
    assert_eq!(port.shipped, 0, "rows shipped after initialize");
    let projected = obs.registry().counter_value("va.projected").unwrap_or(0);
    assert!(projected >= 1, "va.projected = {projected}");
}
