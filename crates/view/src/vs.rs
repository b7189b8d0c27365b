//! View synchronization: rewriting the view definition after a source
//! schema change (the `w(VD)` of paper Definition 1(2)).
//!
//! This implements the subset of the EVE approach the paper's examples and
//! experiments exercise:
//! - **renames** (relation or attribute) propagate through the definition;
//!   the view's *output* column names are preserved (they become `AS`
//!   aliases), so view consumers are insulated;
//! - **drop attribute** is compensated from the information space when a
//!   replacement is registered (paper Query (4): `Review` ←
//!   `ReaderDigest.Comments` joined on `Title = Article`), otherwise the
//!   column is pruned from the SELECT list (a legal, non-equivalent rewrite
//!   per EVE's evolution semantics);
//! - **drop / replace relation** is rewritten through a registered relation
//!   replacement (paper Query (3): `Store ⋈ Item` ← `StoreItems`) or, for
//!   `ReplaceRelations`, an implicit name-based mapping against the
//!   replacement's schema; join predicates *internal* to the replaced
//!   relations are absorbed by the replacement.
//!
//! When no rewrite exists the view is **undefinable** and synchronization
//! reports it; the view manager surfaces this as a hard error rather than
//! guessing.

use std::collections::BTreeSet;

use dyno_relational::{ColRef, Predicate, SchemaChange, SpjQuery};
use dyno_source::InfoSpace;

use crate::viewdef::ViewDefinition;

/// Why a view definition could not be synchronized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VsError {
    /// No legal rewrite exists for the change.
    Undefinable {
        /// The change that could not be absorbed.
        change: String,
        /// Explanation.
        reason: String,
    },
}

impl std::fmt::Display for VsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VsError::Undefinable { change, reason } => {
                write!(f, "view undefinable under `{change}`: {reason}")
            }
        }
    }
}

impl std::error::Error for VsError {}

/// Rewrites `view` to be well-defined after `sc`. Returns the (possibly
/// identical) new definition.
pub fn synchronize(
    view: &ViewDefinition,
    sc: &SchemaChange,
    info: &InfoSpace,
) -> Result<ViewDefinition, VsError> {
    if !view.is_invalidated_by(sc) {
        return Ok(view.clone());
    }
    match sc {
        SchemaChange::RenameRelation { from, to } => Ok(rename_relation(view, from, to)),
        SchemaChange::RenameAttribute { relation, from, to } => {
            Ok(rename_attribute(view, relation, from, to))
        }
        SchemaChange::DropAttribute { relation, attr } => {
            drop_attribute(view, &ColRef::new(relation.clone(), attr.clone()), info, sc)
        }
        SchemaChange::DropRelation { relation } => {
            let repl = info.relation_replacement(relation).ok_or_else(|| VsError::Undefinable {
                change: sc.to_string(),
                reason: format!("no replacement known for relation `{relation}`"),
            })?;
            replace_relations(view, std::slice::from_ref(relation), &repl.clone(), sc)
        }
        SchemaChange::ReplaceRelations { dropped, replacement } => {
            let in_view: Vec<String> =
                dropped.iter().filter(|d| view.references_relation(d)).cloned().collect();
            let repl = match info.replacement_for_set(dropped) {
                Some(r) => r.clone(),
                None => implicit_replacement(view, dropped, replacement),
            };
            replace_relations(view, &in_view, &repl, sc)
        }
        SchemaChange::AddAttribute { .. } | SchemaChange::CreateRelation { .. } => {
            // Purely additive changes never invalidate; handled above.
            Ok(view.clone())
        }
    }
}

/// Sequentially synchronizes through a composed batch of schema changes.
pub fn synchronize_all(
    view: &ViewDefinition,
    changes: &[SchemaChange],
    info: &InfoSpace,
) -> Result<ViewDefinition, VsError> {
    let mut v = view.clone();
    for sc in changes {
        v = synchronize(&v, sc, info)?;
    }
    Ok(v)
}

/// The name a relation of a view carries once the view is synchronized
/// through the renames among `changes` alone (every other change leaves
/// the name as it is). With [`renamed_col`] this is the view as a batch
/// would leave it if it dropped and replaced nothing, which batch
/// adaptation holds `V′` against, element by element and without building
/// it, to tell whether `V′` keeps the view's shape or is a projection of it.
pub(crate) fn renamed_relation<'a>(relation: &'a str, changes: &'a [SchemaChange]) -> &'a str {
    changes.iter().fold(relation, |relation, sc| match sc {
        SchemaChange::RenameRelation { from, to } if from == relation => to.as_str(),
        _ => relation,
    })
}

/// The column `col` of a view is rewritten to by synchronization through
/// the renames among `changes` alone, as `(relation, attribute)`.
pub(crate) fn renamed_col<'a>(col: &'a ColRef, changes: &'a [SchemaChange]) -> (&'a str, &'a str) {
    let start = (col.relation.as_str(), col.attr.as_str());
    changes.iter().fold(start, |(relation, attr), sc| match sc {
        SchemaChange::RenameRelation { from, to } if from == relation => (to.as_str(), attr),
        SchemaChange::RenameAttribute { relation: r, from, to }
            if r == relation && from == attr =>
        {
            (relation, to.as_str())
        }
        _ => (relation, attr),
    })
}

fn rename_relation(view: &ViewDefinition, from: &str, to: &str) -> ViewDefinition {
    let mut q = view.query.clone();
    for t in &mut q.tables {
        if t == from {
            *t = to.to_string();
        }
    }
    rewrite_cols(&mut q, |c| {
        if c.relation == from {
            Some(ColRef::new(to, c.attr.clone()))
        } else {
            None
        }
    });
    ViewDefinition::new(view.name.clone(), q)
}

fn rename_attribute(view: &ViewDefinition, relation: &str, from: &str, to: &str) -> ViewDefinition {
    let mut q = view.query.clone();
    rewrite_cols(&mut q, |c| {
        if c.relation == relation && c.attr == from {
            Some(ColRef::new(relation, to))
        } else {
            None
        }
    });
    ViewDefinition::new(view.name.clone(), q)
}

fn drop_attribute(
    view: &ViewDefinition,
    dropped: &ColRef,
    info: &InfoSpace,
    sc: &SchemaChange,
) -> Result<ViewDefinition, VsError> {
    let mut q = view.query.clone();
    if let Some(repl) = info.attr_replacement(dropped) {
        // Rewrite every use to the replacement column; pull the replacement
        // relation (and its linking join) into the view.
        rewrite_cols(&mut q, |c| if c == dropped { Some(repl.replacement.clone()) } else { None });
        if !q.tables.contains(&repl.replacement.relation) {
            q.tables.push(repl.replacement.relation.clone());
            q.predicates.push(Predicate::JoinEq(repl.join.0.clone(), repl.join.1.clone()));
        }
        return Ok(ViewDefinition::new(view.name.clone(), q));
    }
    // No replacement: prune the column from the SELECT list if it is not
    // load-bearing (not used by any predicate).
    let used_in_predicate = q.predicates.iter().any(|p| p.cols().contains(&dropped));
    if used_in_predicate {
        return Err(VsError::Undefinable {
            change: sc.to_string(),
            reason: format!("`{dropped}` participates in a predicate and has no replacement"),
        });
    }
    q.projection.retain(|item| item.col != *dropped);
    if q.projection.is_empty() {
        return Err(VsError::Undefinable {
            change: sc.to_string(),
            reason: "pruning the dropped attribute leaves an empty SELECT list".into(),
        });
    }
    Ok(ViewDefinition::new(view.name.clone(), q))
}

fn replace_relations(
    view: &ViewDefinition,
    dropped_in_view: &[String],
    repl: &dyno_source::RelationReplacement,
    sc: &SchemaChange,
) -> Result<ViewDefinition, VsError> {
    let mut q = view.query.clone();
    let dropped_set: BTreeSet<&str> = dropped_in_view.iter().map(String::as_str).collect();

    // Join predicates entirely internal to the replaced relations are
    // absorbed by the replacement's construction (e.g. `S.SID = I.SID`).
    q.predicates.retain(|p| {
        !p.relations().iter().all(|r| dropped_set.contains(r))
            || !matches!(p, Predicate::JoinEq(..))
    });

    // Map every remaining reference through the attribute map.
    let mut unmapped: Vec<ColRef> = Vec::new();
    rewrite_cols_fallible(&mut q, &mut |c: &ColRef| {
        if dropped_set.contains(c.relation.as_str()) {
            match repl.map_col(c) {
                Some(new) => Some(Some(new)),
                None => {
                    unmapped.push(c.clone());
                    Some(None)
                }
            }
        } else {
            None
        }
    });
    if let Some(first) = unmapped.first() {
        return Err(VsError::Undefinable {
            change: sc.to_string(),
            reason: format!("replacement `{}` does not cover `{first}`", repl.replacement),
        });
    }

    // FROM list: drop the replaced relations, add the replacement once.
    q.tables.retain(|t| !dropped_set.contains(t.as_str()));
    if !q.tables.contains(&repl.replacement) {
        q.tables.insert(0, repl.replacement.clone());
    }
    Ok(ViewDefinition::new(view.name.clone(), q))
}

/// Builds a name-based implicit mapping for a `ReplaceRelations` change:
/// old column `R.a` maps to `replacement.a` when the replacement schema has
/// an attribute `a`.
fn implicit_replacement(
    view: &ViewDefinition,
    dropped: &[String],
    replacement: &dyno_relational::Relation,
) -> dyno_source::RelationReplacement {
    let mut attr_map = Vec::new();
    for col in view.query.referenced_cols() {
        if dropped.contains(&col.relation) && replacement.schema().has_attr(&col.attr) {
            attr_map.push((
                col.clone(),
                ColRef::new(replacement.schema().relation.clone(), col.attr.clone()),
            ));
        }
    }
    dyno_source::RelationReplacement {
        dropped: dropped.to_vec(),
        replacement: replacement.schema().relation.clone(),
        attr_map,
    }
}

/// Applies an infallible column rewrite everywhere a [`ColRef`] appears.
fn rewrite_cols(q: &mut SpjQuery, f: impl Fn(&ColRef) -> Option<ColRef>) {
    rewrite_cols_fallible(q, &mut |c| f(c).map(Some));
}

/// Applies a column rewrite where `f` returns:
/// `None` — leave unchanged; `Some(Some(new))` — replace; `Some(None)` —
/// the reference is unmappable (recorded by the caller; reference left in
/// place so the error message can cite it).
fn rewrite_cols_fallible(q: &mut SpjQuery, f: &mut impl FnMut(&ColRef) -> Option<Option<ColRef>>) {
    let mut apply = |c: &mut ColRef| {
        if let Some(Some(new)) = f(c) {
            *c = new;
        }
    };
    for item in &mut q.projection {
        apply(&mut item.col);
    }
    for p in &mut q.predicates {
        match p {
            Predicate::JoinEq(a, b) => {
                apply(a);
                apply(b);
            }
            Predicate::Compare(c, _, _) => apply(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{bookinfo_space, bookinfo_view, storeitems_change};
    use dyno_source::SourceId;

    #[test]
    fn rename_relation_rewrites_everywhere() {
        let view = bookinfo_view();
        let sc = SchemaChange::RenameRelation { from: "Item".into(), to: "Items2".into() };
        let v2 = synchronize(&view, &sc, &InfoSpace::new()).unwrap();
        assert!(v2.references_relation("Items2"));
        assert!(!v2.references_relation("Item"));
        assert!(v2.query.to_string().contains("Items2.Book = Catalog.Title"));
        // Output columns are preserved for view consumers.
        assert_eq!(v2.output_cols(), view.output_cols());
    }

    #[test]
    fn rename_attribute_keeps_output_name() {
        let view = bookinfo_view();
        let sc = SchemaChange::RenameAttribute {
            relation: "Catalog".into(),
            from: "Review".into(),
            to: "Critique".into(),
        };
        let v2 = synchronize(&view, &sc, &InfoSpace::new()).unwrap();
        assert_eq!(v2.output_cols(), view.output_cols(), "output alias preserved");
        assert!(v2.query.to_string().contains("Catalog.Critique AS Review"));
    }

    #[test]
    fn drop_attribute_with_replacement_is_query4() {
        // Paper Query (4): Review replaced by ReaderDigest.Comments.
        let space = bookinfo_space();
        let view = bookinfo_view();
        let sc = SchemaChange::DropAttribute { relation: "Catalog".into(), attr: "Review".into() };
        let v2 = synchronize(&view, &sc, space.info()).unwrap();
        assert!(v2.references_relation("ReaderDigest"));
        let s = v2.query.to_string();
        assert!(s.contains("ReaderDigest.Comments AS Review"));
        assert!(s.contains("Catalog.Title = ReaderDigest.Article"));
        assert_eq!(v2.output_cols(), view.output_cols());
    }

    #[test]
    fn drop_attribute_without_replacement_prunes() {
        let view = bookinfo_view();
        let sc = SchemaChange::DropAttribute { relation: "Catalog".into(), attr: "Review".into() };
        let v2 = synchronize(&view, &sc, &InfoSpace::new()).unwrap();
        assert!(!v2.output_cols().contains(&"Review".to_string()));
        assert_eq!(v2.output_cols().len(), view.output_cols().len() - 1);
    }

    #[test]
    fn drop_join_attribute_without_replacement_is_undefinable() {
        let view = bookinfo_view();
        let sc = SchemaChange::DropAttribute { relation: "Item".into(), attr: "SID".into() };
        let err = synchronize(&view, &sc, &InfoSpace::new()).unwrap_err();
        assert!(matches!(err, VsError::Undefinable { .. }));
    }

    #[test]
    fn replace_relations_is_query3() {
        // Paper Query (3): StoreItems replaces Store ⋈ Item.
        let space = bookinfo_space();
        let view = bookinfo_view();
        let store = space.server(SourceId(0)).catalog().get("Store").unwrap();
        let item = space.server(SourceId(0)).catalog().get("Item").unwrap();
        let sc = storeitems_change(store, item);
        let v2 = synchronize(&view, &sc, space.info()).unwrap();
        assert!(v2.references_relation("StoreItems"));
        assert!(!v2.references_relation("Store") && !v2.references_relation("Item"));
        let s = v2.query.to_string();
        assert!(s.contains("StoreItems.Book = Catalog.Title"));
        assert!(!s.contains("SID"), "internal join absorbed by the replacement");
        assert_eq!(v2.output_cols(), view.output_cols());
    }

    #[test]
    fn composed_changes_yield_query5() {
        // Paper Query (5): both SC1 (StoreItems) and SC2 (drop Review,
        // replaced by ReaderDigest) applied to the view in one batch.
        let space = bookinfo_space();
        let view = bookinfo_view();
        let store = space.server(SourceId(0)).catalog().get("Store").unwrap();
        let item = space.server(SourceId(0)).catalog().get("Item").unwrap();
        let changes = vec![
            storeitems_change(store, item),
            SchemaChange::DropAttribute { relation: "Catalog".into(), attr: "Review".into() },
        ];
        let v2 = synchronize_all(&view, &changes, space.info()).unwrap();
        let s = v2.query.to_string();
        assert!(v2.references_relation("StoreItems"));
        assert!(v2.references_relation("ReaderDigest"));
        assert!(s.contains("StoreItems.Book = Catalog.Title"));
        assert!(s.contains("Catalog.Title = ReaderDigest.Article"));
        assert_eq!(v2.output_cols(), view.output_cols());
    }

    #[test]
    fn replace_relations_without_info_uses_implicit_mapping() {
        // No registered replacement: the rewrite falls back to name-based
        // mapping against the replacement relation's own schema.
        use dyno_relational::{AttrType, Relation, Schema};
        let view = ViewDefinition::new(
            "V",
            dyno_relational::SpjQuery::over(["Old", "Other"])
                .select("Old", "a")
                .select("Other", "x")
                .join_eq(("Old", "k"), ("Other", "k"))
                .build(),
        );
        let replacement =
            Relation::empty(Schema::of("New", &[("a", AttrType::Int), ("k", AttrType::Int)]));
        let sc = SchemaChange::ReplaceRelations {
            dropped: vec!["Old".into()],
            replacement: Box::new(replacement),
        };
        let v2 = synchronize(&view, &sc, &InfoSpace::new()).unwrap();
        assert!(v2.references_relation("New"));
        assert!(v2.query.to_string().contains("New.k = Other.k"));
        assert_eq!(v2.output_cols(), view.output_cols());
    }

    #[test]
    fn replace_relations_with_uncovered_column_is_undefinable() {
        use dyno_relational::{AttrType, Relation, Schema};
        let view = ViewDefinition::new(
            "V",
            dyno_relational::SpjQuery::over(["Old"]).select("Old", "a").build(),
        );
        // The replacement lacks column `a`.
        let replacement = Relation::empty(Schema::of("New", &[("b", AttrType::Int)]));
        let sc = SchemaChange::ReplaceRelations {
            dropped: vec!["Old".into()],
            replacement: Box::new(replacement),
        };
        assert!(matches!(
            synchronize(&view, &sc, &InfoSpace::new()),
            Err(VsError::Undefinable { .. })
        ));
    }

    #[test]
    fn dropped_join_attribute_with_replacement_rewrites_predicate() {
        // The dropped attribute participates in a join; a registered
        // replacement redirects the predicate through the new relation.
        use dyno_relational::ColRef;
        use dyno_source::AttributeReplacement;
        let view = ViewDefinition::new(
            "V",
            dyno_relational::SpjQuery::over(["A", "B"])
                .select("A", "v")
                .join_eq(("A", "link"), ("B", "link"))
                .build(),
        );
        let mut info = InfoSpace::new();
        info.add_attr_replacement(AttributeReplacement {
            dropped: ColRef::new("A", "link"),
            replacement: ColRef::new("L", "link"),
            join: (ColRef::new("A", "id"), ColRef::new("L", "id")),
        });
        let sc = SchemaChange::DropAttribute { relation: "A".into(), attr: "link".into() };
        let v2 = synchronize(&view, &sc, &info).unwrap();
        assert!(v2.references_relation("L"));
        let s = v2.query.to_string();
        assert!(s.contains("L.link = B.link"), "join predicate redirected: {s}");
        assert!(s.contains("A.id = L.id"), "linking join added: {s}");
    }

    #[test]
    fn drop_relation_without_replacement_is_undefinable() {
        let view = bookinfo_view();
        let sc = SchemaChange::DropRelation { relation: "Catalog".into() };
        assert!(synchronize(&view, &sc, &InfoSpace::new()).is_err());
    }

    #[test]
    fn irrelevant_change_is_identity() {
        let view = bookinfo_view();
        let sc = SchemaChange::DropAttribute { relation: "Catalog".into(), attr: "Year".into() };
        let v2 = synchronize(&view, &sc, &InfoSpace::new()).unwrap();
        assert_eq!(v2, view);
    }
}
