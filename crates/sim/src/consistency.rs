//! Consistency checkers — the correctness criteria of paper Section 4.4.
//!
//! * **Convergence**: once all updates are processed, the materialized
//!   extent equals the view definition evaluated over the sources' final
//!   states.
//! * **Strong consistency** (Zhuge et al.): after every commit, the extent
//!   equals the view evaluated over *some valid source state vector*, and
//!   those vectors advance in per-source commit order. The warehouse
//!   exposes the vector it believes it reflects
//!   ([`dyno_view::Warehouse::reflected`], per view
//!   [`dyno_view::Warehouse::view_reflected`]); the auditor replays source
//!   history to that vector and compares.
//!
//! [`audit`] is the one oracle: [`crate::run`] applies it to every warehouse
//! of a run — one, or each peer — after each commit and recovery.

use std::collections::HashMap;

use dyno_durable::{crc32, Enc};
use dyno_relational::wire::enc_bag;
use dyno_relational::{eval, RelationalError, ZSet};
use dyno_source::{SourceId, SourceSpace};
use dyno_view::{LocalProvider, MaterializedView, ViewDefinition, Warehouse};

/// Evaluates `view` over the source space with each source rolled back to
/// the version given in `versions` (sources absent from the map are taken
/// at version 0 — never reflected). Each source is rewound at most once.
pub fn eval_view_at(
    space: &SourceSpace,
    view: &ViewDefinition,
    versions: &HashMap<SourceId, u64>,
) -> Result<ZSet, RelationalError> {
    let mut provider = LocalProvider::new();
    let mut rewound = vec![None; space.servers().len()];
    for table in &view.query.tables {
        let mut found = false;
        for (server, catalog) in space.servers().iter().zip(&mut rewound) {
            let version = versions.get(&server.id()).copied().unwrap_or(0);
            let catalog = match catalog {
                Some(catalog) => catalog,
                None => catalog.insert(server.state_at(version)?),
            };
            if let Ok(rel) = catalog.get(table) {
                provider.insert_relation(rel);
                found = true;
                break;
            }
        }
        if !found {
            return Err(RelationalError::UnknownRelation { relation: table.clone() });
        }
    }
    Ok(eval(&view.query, &provider)?.rows)
}

/// Convergence check: `mv` equals the view over current source states.
pub fn check_convergence(
    space: &SourceSpace,
    view: &ViewDefinition,
    mv: &MaterializedView,
) -> Result<bool, RelationalError> {
    check_reflected(space, view, &space.versions(), mv)
}

/// Strong-consistency audit of a single point: `mv` equals the view over the
/// state vector it claims to reflect.
pub fn check_reflected(
    space: &SourceSpace,
    view: &ViewDefinition,
    reflected: &HashMap<SourceId, u64>,
    mv: &MaterializedView,
) -> Result<bool, RelationalError> {
    let expected = eval_view_at(space, view, reflected)?;
    Ok(&expected == mv.extent())
}

/// Strong-consistency audit of a whole warehouse: every view is checked at
/// the state vector *that view* claims to reflect (a deferring view audits
/// at its own, older vector). Returns how many views failed; an `Err` means
/// the oracle itself could not evaluate a view, which is not a verdict.
pub fn audit(wh: &Warehouse, space: &SourceSpace) -> Result<u64, RelationalError> {
    let mut failed = 0;
    for i in 0..wh.view_count() {
        let reflected: HashMap<SourceId, u64> =
            wh.view_reflected(i).into_iter().map(|(s, v)| (SourceId(s), v)).collect();
        if !check_reflected(space, wh.view(i), &reflected, wh.mv(i))? {
            failed += 1;
        }
    }
    Ok(failed)
}

/// Canonical fingerprint of an extent (sorted encoding → CRC-32): the
/// bit-identity oracle across crashed/uncrashed, shared/unshared and
/// replicated runs.
pub fn extent_crc(mv: &MaterializedView) -> u32 {
    let mut e = Enc::new();
    enc_bag(&mut e, mv.extent());
    crc32(&e.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyno_core::Strategy;
    use dyno_relational::SourceUpdate;
    use dyno_view::testkit::{bookinfo_space, bookinfo_view, insert_item};
    use dyno_view::{InProcessPort, Warehouse};

    /// The paper's running example, materialized.
    fn bookinfo_warehouse() -> (Warehouse, InProcessPort) {
        let space = bookinfo_space();
        let info = space.info().clone();
        let mut port = InProcessPort::new(space);
        let mut wh = Warehouse::new(info, Strategy::Pessimistic);
        wh.add_view(bookinfo_view());
        wh.initialize(&mut port).unwrap();
        (wh, port)
    }

    #[test]
    fn convergence_and_reflection_after_runs() {
        let (mut mgr, mut port) = bookinfo_warehouse();
        assert!(check_convergence(port.space(), mgr.view(0), mgr.mv(0)).unwrap());

        port.commit(
            SourceId(0),
            SourceUpdate::Data(insert_item(10, "Data Integration Guide", "Adams", 36)),
        )
        .unwrap();
        // Before processing: the MV lags the sources (not converged)…
        assert!(!check_convergence(port.space(), mgr.view(0), mgr.mv(0)).unwrap());
        // …but still reflects the versions it claims (strong consistency).
        assert!(check_reflected(port.space(), mgr.view(0), mgr.reflected(), mgr.mv(0)).unwrap());

        mgr.run_to_quiescence(&mut port, 100).unwrap();
        assert!(check_convergence(port.space(), mgr.view(0), mgr.mv(0)).unwrap());
        assert!(check_reflected(port.space(), mgr.view(0), mgr.reflected(), mgr.mv(0)).unwrap());
    }

    #[test]
    fn audit_fails_exactly_the_views_reading_a_silently_rewritten_relation() {
        use crate::testbed::{build_multiview, build_space, TestbedConfig};
        use dyno_relational::{DataUpdate, Delta, Tuple, Value};
        use dyno_source::SourceServer;

        // V_i = R0 ⋈ R1 ⋈ R{2+i}: R3 is read by V1 alone, R0 by all three.
        let cfg = TestbedConfig { tuples_per_relation: 20, ..Default::default() };
        let space = build_space(&cfg);
        let info = space.info().clone();
        let mut port = InProcessPort::new(space.clone());
        let mut wh = Warehouse::new(info, Strategy::Pessimistic);
        for view in build_multiview(&cfg, 3) {
            wh.add_view(view);
        }
        wh.initialize(&mut port).unwrap();
        assert_eq!(audit(&wh, port.space()).unwrap(), 0);

        // A copy of the sources whose history says the relations `idxs`
        // always held one more row: no version, no message ever told the
        // warehouse, so no view can reflect it.
        let rewritten = |idxs: &[usize]| {
            let mut copy = SourceSpace::new();
            for server in space.servers() {
                let mut catalog = server.catalog().clone();
                for schema in idxs.iter().map(|&idx| cfg.schema(idx)) {
                    if catalog.get(&schema.relation).is_ok() {
                        let row = std::iter::once(7).chain([-1; 3]).map(Value::from).collect();
                        let delta = Delta::inserts(schema, [Tuple::new(row)]).unwrap();
                        catalog.apply_data_update(&DataUpdate::new(delta)).unwrap();
                    }
                }
                copy.add_server(SourceServer::new(server.id(), server.name(), catalog));
            }
            copy
        };
        assert_eq!(audit(&wh, &rewritten(&[3])).unwrap(), 1, "V1 alone reads R3");
        assert_eq!(audit(&wh, &rewritten(&[3, 0])).unwrap(), 3, "every view reads R0");
    }

    #[test]
    fn an_oracle_that_cannot_evaluate_is_an_error_not_a_violation() {
        use dyno_relational::SchemaChange;
        let (wh, mut port) = bookinfo_warehouse();
        // The relation is renamed at its source and the warehouse has not
        // heard: at the vector the view reflects, history still has `Item`…
        port.commit(
            SourceId(0),
            SourceUpdate::Schema(SchemaChange::RenameRelation {
                from: "Item".into(),
                to: "Tome".into(),
            }),
        )
        .unwrap();
        assert_eq!(audit(&wh, port.space()).unwrap(), 0, "the view lags consistently");
        // …but a space that never had it cannot answer at all.
        let err = audit(&wh, &SourceSpace::new()).unwrap_err();
        assert!(matches!(err, RelationalError::UnknownRelation { .. }), "unexpected: {err}");
    }

    #[test]
    fn extent_crc_fingerprints_content_not_history() {
        let fingerprint = |prices: &[i64]| {
            let (mut wh, mut port) = bookinfo_warehouse();
            for &price in prices {
                let du = insert_item(10, "Data Integration Guide", "Adams", price);
                port.commit(SourceId(0), SourceUpdate::Data(du)).unwrap();
                wh.run_to_quiescence(&mut port, 100).unwrap();
            }
            extent_crc(wh.mv(0))
        };
        assert_eq!(fingerprint(&[36, 40]), fingerprint(&[40, 36]), "arrival order is not content");
        assert_ne!(fingerprint(&[36, 40]), fingerprint(&[36]));
        assert_ne!(fingerprint(&[36, 36]), fingerprint(&[36]), "weights are content");
    }

    #[test]
    fn absent_source_is_taken_at_version_zero() {
        let mut space = bookinfo_space();
        let view = bookinfo_view();
        space
            .commit(
                SourceId(0),
                SourceUpdate::Data(insert_item(10, "Data Integration Guide", "Adams", 36)),
            )
            .unwrap();
        // An empty vector and an explicit all-zeros vector must agree:
        // sources missing from the map are "never reflected".
        let absent = eval_view_at(&space, &view, &HashMap::new()).unwrap();
        let zeroed: HashMap<SourceId, u64> = space.versions().keys().map(|&s| (s, 0)).collect();
        assert_eq!(absent, eval_view_at(&space, &view, &zeroed).unwrap());
        assert_eq!(absent.weight(), 1, "pre-commit state");
        // Dropping only the committed source from the current vector rolls
        // just that source back.
        let mut partial = space.versions();
        partial.remove(&SourceId(0));
        assert_eq!(eval_view_at(&space, &view, &partial).unwrap().weight(), 1);
        assert_eq!(eval_view_at(&space, &view, &space.versions()).unwrap().weight(), 2);
    }

    #[test]
    fn rolled_back_catalog_missing_a_relation_is_an_error() {
        use dyno_relational::SchemaChange;
        let mut space = bookinfo_space();
        let view = bookinfo_view();
        let v0 = space.versions();
        space
            .commit(
                SourceId(0),
                SourceUpdate::Schema(SchemaChange::RenameRelation {
                    from: "Item".into(),
                    to: "Tome".into(),
                }),
            )
            .unwrap();
        // At current versions the un-rewritten view references a name no
        // catalog has — a definite error, not an empty result.
        let err = eval_view_at(&space, &view, &space.versions()).unwrap_err();
        assert!(
            matches!(err, RelationalError::UnknownRelation { ref relation } if relation == "Item"),
            "unexpected error: {err}"
        );
        // The pre-change vector still evaluates: history has the relation.
        assert_eq!(eval_view_at(&space, &view, &v0).unwrap().weight(), 1);
    }

    #[test]
    fn eval_view_at_rolls_back() {
        let mut space = bookinfo_space();
        let view = bookinfo_view();
        let v0 = space.versions();
        space
            .commit(
                SourceId(0),
                SourceUpdate::Data(insert_item(10, "Data Integration Guide", "Adams", 36)),
            )
            .unwrap();
        let before = eval_view_at(&space, &view, &v0).unwrap();
        let after = eval_view_at(&space, &view, &space.versions()).unwrap();
        assert_eq!(before.weight(), 1);
        assert_eq!(after.weight(), 2);
    }
}
