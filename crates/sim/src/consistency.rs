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

use std::collections::HashMap;

use dyno_relational::{eval, RelationalError, SignedBag};
use dyno_source::{SourceId, SourceSpace};
use dyno_view::{LocalProvider, MaterializedView, ViewDefinition};

/// Evaluates `view` over the source space with each source rolled back to
/// the version given in `versions` (sources absent from the map are taken
/// at version 0 — never reflected).
pub fn eval_view_at(
    space: &SourceSpace,
    view: &ViewDefinition,
    versions: &HashMap<SourceId, u64>,
) -> Result<SignedBag, RelationalError> {
    let mut provider = LocalProvider::new();
    for table in &view.query.tables {
        let mut found = false;
        for server in space.servers() {
            let version = versions.get(&server.id()).copied().unwrap_or(0);
            let catalog = server.state_at(version)?;
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
    let expected = eval_view_at(space, view, &space.versions())?;
    Ok(&expected == mv.extent())
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

#[cfg(test)]
mod tests {
    use super::*;
    use dyno_core::Strategy;
    use dyno_relational::SourceUpdate;
    use dyno_view::testkit::{bookinfo_space, bookinfo_view, insert_item};
    use dyno_view::{InProcessPort, Warehouse};

    #[test]
    fn convergence_and_reflection_after_runs() {
        let space = bookinfo_space();
        let info = space.info().clone();
        let mut port = InProcessPort::new(space);
        let mut mgr = Warehouse::new(info, Strategy::Pessimistic);
        mgr.add_view(bookinfo_view());
        mgr.initialize(&mut port).unwrap();
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
