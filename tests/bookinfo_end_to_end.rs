//! Cross-crate integration tests on the paper's running example: every
//! anomaly type (Section 3.1), the cyclic-dependency deadlock (Section 3.5),
//! Definition-1 maintenance shapes, and view-consumer insulation across
//! rewrites.

use dyno::core::Strategy;
use dyno::prelude::*;
use dyno::sim::{check_convergence, check_reflected};
use dyno::view::testkit::{
    bookinfo_space, bookinfo_view, catalog_schema, insert_item, storeitems_change,
};

fn managed(strategy: Strategy) -> (Warehouse, InProcessPort) {
    let space = bookinfo_space();
    let info = space.info().clone();
    let mut port = InProcessPort::new(space);
    let mut mgr = Warehouse::new(info, strategy);
    mgr.add_view(bookinfo_view());
    mgr.initialize(&mut port).expect("fixture initializes");
    (mgr, port)
}

fn quiesce(mgr: &mut Warehouse, port: &mut InProcessPort) {
    mgr.run_to_quiescence(port, 500).expect("scenario completes");
    assert!(
        check_convergence(port.space(), mgr.view(0), mgr.mv(0)).expect("checkable"),
        "extent must match the view over final source states"
    );
    assert!(
        check_reflected(port.space(), mgr.view(0), mgr.reflected(), mgr.mv(0)).expect("checkable"),
        "extent must match the reflected state vector"
    );
}

/// Anomaly type (1): DU conflicts with M(DU) — the duplication anomaly of
/// Example 1.a, resolved by SWEEP compensation inside the manager.
#[test]
fn type1_concurrent_dus_no_duplication() {
    for strategy in [Strategy::Pessimistic, Strategy::Optimistic] {
        let (mut mgr, mut port) = managed(strategy);
        // Two interdependent inserts commit back-to-back; the view manager
        // only learns of them afterwards, so the first's maintenance query
        // already sees the second.
        port.commit(
            SourceId(1),
            SourceUpdate::Data(DataUpdate::new(
                Delta::inserts(
                    catalog_schema(),
                    [Tuple::of([
                        Value::str("Streams"),
                        Value::str("Widom"),
                        Value::str("CS"),
                        Value::str("Stanford"),
                        Value::str("deep"),
                    ])],
                )
                .expect("fixture schema"),
            )),
        )
        .expect("valid");
        port.commit(SourceId(0), SourceUpdate::Data(insert_item(10, "Streams", "Widom", 42)))
            .expect("valid");
        quiesce(&mut mgr, &mut port);
        // Exactly one new view tuple — not two (the duplication anomaly).
        assert_eq!(mgr.mv(0).len(), 2, "{strategy:?}");
    }
}

/// Anomaly type (3): SC conflicts with M(DU) — Example 1.b. Both strategies
/// converge; only the optimistic one pays an abort.
#[test]
fn type3_broken_du_maintenance() {
    let mut aborts = Vec::new();
    for strategy in [Strategy::Pessimistic, Strategy::Optimistic] {
        let (mut mgr, mut port) = managed(strategy);
        port.commit(
            SourceId(0),
            SourceUpdate::Data(insert_item(10, "Data Integration Guide", "Adams", 36)),
        )
        .expect("valid");
        let store = port.space().server(SourceId(0)).catalog().get("Store").unwrap().clone();
        let item = port.space().server(SourceId(0)).catalog().get("Item").unwrap().clone();
        port.commit(SourceId(0), SourceUpdate::Schema(storeitems_change(&store, &item)))
            .expect("valid");
        quiesce(&mut mgr, &mut port);
        assert!(mgr.view(0).references_relation("StoreItems"), "{strategy:?}");
        assert_eq!(mgr.mv(0).len(), 2, "{strategy:?}");
        aborts.push(mgr.stats(0).aborts);
    }
    assert_eq!(aborts[0], 0, "pessimistic avoids the broken query");
    assert!(aborts[1] >= 1, "optimistic suffers it");
}

/// Anomaly type (2): DU conflicts with M(SC) — a data update lands while a
/// schema change's adaptation queries run; rollback compensation keeps the
/// batch-point extent exact and the DU is maintained afterwards.
#[test]
fn type2_du_during_sc_maintenance() {
    let (mut mgr, mut port) = managed(Strategy::Pessimistic);
    // Schema change buffered first.
    port.commit(
        SourceId(1),
        SourceUpdate::Schema(SchemaChange::DropAttribute {
            relation: "Catalog".into(),
            attr: "Review".into(),
        }),
    )
    .expect("valid");
    // A concurrent DU commits before the adaptation queries are answered
    // (with the in-process port, any commit made now is visible to them).
    port.commit(
        SourceId(0),
        SourceUpdate::Data(insert_item(10, "Data Integration Guide", "Adams", 36)),
    )
    .expect("valid");
    quiesce(&mut mgr, &mut port);
    // The fixture's information space replaces the dropped Review attribute
    // with ReaderDigest.Comments, so consumers keep their Review column.
    assert!(mgr.view(0).references_relation("ReaderDigest"));
    assert!(mgr.view(0).output_cols().contains(&"Review".to_string()));
    assert_eq!(mgr.mv(0).len(), 2);
}

/// Anomaly type (4): SC conflicts with M(SC) — the Section 3.5 deadlock:
/// neither schema change can be processed before the other; Dyno merges
/// them and the batch rewrite is the paper's Query (5).
#[test]
fn type4_cyclic_schema_changes() {
    for strategy in [Strategy::Pessimistic, Strategy::Optimistic] {
        let (mut mgr, mut port) = managed(strategy);
        let store = port.space().server(SourceId(0)).catalog().get("Store").unwrap().clone();
        let item = port.space().server(SourceId(0)).catalog().get("Item").unwrap().clone();
        port.commit(SourceId(0), SourceUpdate::Schema(storeitems_change(&store, &item)))
            .expect("valid");
        port.commit(
            SourceId(1),
            SourceUpdate::Schema(SchemaChange::DropAttribute {
                relation: "Catalog".into(),
                attr: "Review".into(),
            }),
        )
        .expect("valid");
        quiesce(&mut mgr, &mut port);
        let v = mgr.view(0);
        assert!(v.references_relation("StoreItems"), "{strategy:?}");
        assert!(v.references_relation("ReaderDigest"), "{strategy:?}");
        assert_eq!(
            v.output_cols(),
            bookinfo_view().output_cols(),
            "{strategy:?}: consumers keep seeing the original columns (Query (5))"
        );
        assert!(mgr.dyno_stats().merges >= 1, "{strategy:?}: the cycle was merged");
    }
}

/// A long chain of renames on one relation (each hop only mentioning the
/// previous hop's name) must be handled transitively.
#[test]
fn rename_chains_are_transitively_relevant() {
    let (mut mgr, mut port) = managed(Strategy::Pessimistic);
    for i in 0..4 {
        let from = if i == 0 { "Catalog".to_string() } else { format!("Catalog_v{i}") };
        let to = format!("Catalog_v{}", i + 1);
        port.commit(SourceId(1), SourceUpdate::Schema(SchemaChange::RenameRelation { from, to }))
            .expect("valid");
    }
    // One more data update against the final name.
    let schema = catalog_schema().renamed("Catalog_v4");
    port.commit(
        SourceId(1),
        SourceUpdate::Data(DataUpdate::new(
            Delta::inserts(
                schema,
                [Tuple::of([
                    Value::str("Data Integration Guide"),
                    Value::str("Adams"),
                    Value::str("Engineering"),
                    Value::str("Princeton"),
                    Value::str("better"),
                ])],
            )
            .expect("fixture schema"),
        )),
    )
    .expect("valid");
    quiesce(&mut mgr, &mut port);
    assert!(mgr.view(0).references_relation("Catalog_v4"));
    // 'Data Integration Guide' now has two catalog rows but no matching
    // item; 'Databases' still matches → extent stays at 1.
    assert_eq!(mgr.mv(0).len(), 1);
}

/// A schema change that touches only unreferenced metadata must not disturb
/// the view (the paper: "a broken query anomaly may not always cause the
/// query to fail").
#[test]
fn irrelevant_changes_cause_no_rewrite() {
    let (mut mgr, mut port) = managed(Strategy::Pessimistic);
    let before = mgr.view(0).clone();
    port.commit(
        SourceId(2),
        SourceUpdate::Schema(SchemaChange::AddAttribute {
            relation: "ReaderDigest".into(),
            attr: Attribute::new("Stars", AttrType::Int),
            default: Value::from(5),
        }),
    )
    .expect("valid");
    quiesce(&mut mgr, &mut port);
    assert_eq!(mgr.view(0), &before);
    assert_eq!(mgr.stats(0).aborts, 0);
    assert_eq!(mgr.dyno_stats().merges, 0);
}

/// Deletes flow through maintenance with negative deltas.
#[test]
fn deletes_shrink_the_view() {
    let (mut mgr, mut port) = managed(Strategy::Pessimistic);
    let existing =
        Tuple::of([Value::from(1), Value::str("Databases"), Value::str("Ullman"), Value::from(50)]);
    port.commit(
        SourceId(0),
        SourceUpdate::Data(DataUpdate::new(
            Delta::deletes(dyno::view::testkit::item_schema(), [existing]).expect("fixture"),
        )),
    )
    .expect("valid");
    quiesce(&mut mgr, &mut port);
    assert!(mgr.mv(0).is_empty(), "the only matching item is gone");
}

/// An undefinable schema change (dropping a relation with no replacement)
/// is a hard error, not a silent wrong answer.
#[test]
fn undefinable_views_fail_loudly() {
    let (mut mgr, mut port) = managed(Strategy::Pessimistic);
    port.commit(
        SourceId(1),
        SourceUpdate::Schema(SchemaChange::DropRelation { relation: "Catalog".into() }),
    )
    .expect("valid");
    let err = mgr.run_to_quiescence(&mut port, 100).unwrap_err();
    assert!(matches!(err, ViewError::Undefinable(_)));
}
