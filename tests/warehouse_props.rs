//! End-to-end randomized test for the multi-view warehouse: under arbitrary
//! DU/SC interleavings, every view converges to its (current) definition
//! evaluated over the final source states, and all views advance through
//! the same per-source state vector.

use dyno::core::Strategy as Detection;
use dyno::prelude::*;
use dyno::sim::{build_space, EventKind, Rng, TestbedConfig};
use dyno::view::Warehouse;

/// Three views of different widths over the six-relation testbed.
fn views(cfg: &TestbedConfig) -> Vec<ViewDefinition> {
    let full = dyno::sim::build_view(cfg);
    let narrow = ViewDefinition::new(
        "Narrow",
        SpjQuery::over(["R0", "R1"])
            .select_as("R0", "K", "k")
            .select_as("R0", "A1", "a")
            .select_as("R1", "A1", "b")
            .join_eq(("R0", "K"), ("R1", "K"))
            .build(),
    );
    let single = ViewDefinition::new(
        "Single",
        SpjQuery::over(["R4"]).select_as("R4", "K", "k").select_as("R4", "A2", "v").build(),
    );
    vec![full, narrow, single]
}

const KINDS: [EventKind; 5] = [
    EventKind::DataUpdate,
    EventKind::DataUpdate,
    EventKind::DataUpdate,
    EventKind::RenameRelation,
    EventKind::DropAttribute,
];

#[test]
fn all_views_converge_under_any_interleaving() {
    let mut rng = Rng::new(0x3A4_4517);
    for case in 0..12 {
        let n_events = rng.gen_range(1..10usize);
        let timeline: Vec<(u64, EventKind)> =
            (0..n_events).map(|i| (i as u64, *rng.choose(&KINDS))).collect();
        let seed = rng.gen_range(0..500u64);
        let strategy = if rng.gen_range(0..2u32) == 0 {
            Detection::Pessimistic
        } else {
            Detection::Optimistic
        };

        let cfg = TestbedConfig { tuples_per_relation: 40, ..Default::default() };
        let space = build_space(&cfg);
        let info = space.info().clone();
        let mut gen = WorkloadGen::new(cfg, seed);
        let schedule = gen.realize(&timeline);

        let mut port = InProcessPort::new(space);
        let mut wh = Warehouse::new(info, strategy);
        for v in views(&cfg) {
            wh.add_view(v);
        }
        wh.initialize(&mut port).expect("testbed initializes");
        for c in schedule {
            port.commit(c.source, c.update).expect("workload is schema-consistent");
        }
        // A drop of an attribute a view projects is pruned by VS (no
        // replacements are registered in the testbed) — legal, and the
        // convergence check below still applies to the *rewritten* view.
        wh.run_to_quiescence(&mut port, 5_000).expect("quiesces");

        for i in 0..wh.view_count() {
            let expected = dyno::relational::eval(&wh.view(i).query, &port.space().provider())
                .expect("final definitions are valid");
            assert_eq!(
                wh.mv(i).extent(),
                &expected.rows,
                "case {case}: view {i} did not converge under {strategy:?}"
            );
        }
    }
}
