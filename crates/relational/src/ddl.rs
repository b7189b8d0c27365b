//! Schema changes (DDL) and their composition.
//!
//! These are the `SC` updates of the paper: autonomous sources may rename or
//! drop relations and attributes at any time, invalidating view definitions
//! and breaking in-flight maintenance queries. [`compose`] implements the
//! schema-change combination step of the merged-batch algorithm (paper
//! Section 5): e.g. `rename A→B` followed by `rename B→C` combines to
//! `rename A→C`.

use std::fmt;

use crate::error::RelationalError;
use crate::relation::Relation;
use crate::schema::{Attribute, Schema};
use crate::value::Value;

/// A single schema change committed by a source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaChange {
    /// `RENAME TABLE from TO to`.
    RenameRelation {
        /// Old relation name.
        from: String,
        /// New relation name.
        to: String,
    },
    /// `ALTER TABLE relation RENAME COLUMN from TO to`.
    RenameAttribute {
        /// The relation changed.
        relation: String,
        /// Old attribute name.
        from: String,
        /// New attribute name.
        to: String,
    },
    /// `ALTER TABLE relation ADD COLUMN attr DEFAULT default`.
    AddAttribute {
        /// The relation changed.
        relation: String,
        /// The new attribute.
        attr: Attribute,
        /// Value assigned to existing tuples.
        default: Value,
    },
    /// `ALTER TABLE relation DROP COLUMN attr`.
    DropAttribute {
        /// The relation changed.
        relation: String,
        /// The dropped attribute name.
        attr: String,
    },
    /// `DROP TABLE relation`.
    DropRelation {
        /// The dropped relation name.
        relation: String,
    },
    /// `CREATE TABLE` with the given schema (empty extent).
    CreateRelation {
        /// The new relation's schema.
        schema: Schema,
    },
    /// Wholesale replacement of one or more relations by a new one with a
    /// provided extent. This models source-side mapping restructurings such
    /// as the paper's Figure 2, where re-tuning the XML-to-relational mapping
    /// collapses `Store` and `Item` into a single `StoreItems` relation.
    ReplaceRelations {
        /// Relations removed by the restructuring.
        dropped: Vec<String>,
        /// The replacement relation, fully populated by the source.
        replacement: Box<Relation>,
    },
}

impl SchemaChange {
    /// Names of the relations whose schema this change touches (before the
    /// change is applied).
    pub fn touched_relations(&self) -> Vec<&str> {
        match self {
            SchemaChange::RenameRelation { from, .. } => vec![from],
            SchemaChange::RenameAttribute { relation, .. }
            | SchemaChange::AddAttribute { relation, .. }
            | SchemaChange::DropAttribute { relation, .. }
            | SchemaChange::DropRelation { relation } => vec![relation],
            SchemaChange::CreateRelation { .. } => vec![],
            SchemaChange::ReplaceRelations { dropped, .. } => {
                dropped.iter().map(String::as_str).collect()
            }
        }
    }

    /// True iff applying this change invalidates a reference to
    /// `relation.attr` (used to decide whether a view definition that uses
    /// that column is affected).
    pub fn invalidates_column(&self, relation: &str, attr: &str) -> bool {
        match self {
            SchemaChange::RenameRelation { from, .. } => from == relation,
            SchemaChange::RenameAttribute { relation: r, from, .. } => {
                r == relation && from == attr
            }
            SchemaChange::DropAttribute { relation: r, attr: a } => r == relation && a == attr,
            SchemaChange::DropRelation { relation: r } => r == relation,
            SchemaChange::ReplaceRelations { dropped, .. } => dropped.iter().any(|d| d == relation),
            SchemaChange::AddAttribute { .. } | SchemaChange::CreateRelation { .. } => false,
        }
    }

    /// True iff applying this change invalidates any reference to the
    /// relation as a whole (its name disappears).
    pub fn invalidates_relation(&self, relation: &str) -> bool {
        match self {
            SchemaChange::RenameRelation { from, .. } => from == relation,
            SchemaChange::DropRelation { relation: r } => r == relation,
            SchemaChange::ReplaceRelations { dropped, .. } => dropped.iter().any(|d| d == relation),
            _ => false,
        }
    }
}

impl fmt::Display for SchemaChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaChange::RenameRelation { from, to } => {
                write!(f, "RENAME TABLE {from} TO {to}")
            }
            SchemaChange::RenameAttribute { relation, from, to } => {
                write!(f, "ALTER TABLE {relation} RENAME COLUMN {from} TO {to}")
            }
            SchemaChange::AddAttribute { relation, attr, default } => write!(
                f,
                "ALTER TABLE {relation} ADD COLUMN {} {} DEFAULT {default}",
                attr.name, attr.ty
            ),
            SchemaChange::DropAttribute { relation, attr } => {
                write!(f, "ALTER TABLE {relation} DROP COLUMN {attr}")
            }
            SchemaChange::DropRelation { relation } => write!(f, "DROP TABLE {relation}"),
            SchemaChange::CreateRelation { schema } => write!(f, "CREATE TABLE {schema}"),
            SchemaChange::ReplaceRelations { dropped, replacement } => write!(
                f,
                "REPLACE TABLES {} WITH {}",
                dropped.join(", "),
                replacement.schema().relation
            ),
        }
    }
}

/// Applies a schema change to a single relation, producing its new state.
///
/// Returns `Ok(None)` when the relation ceases to exist (drop / replace).
/// `CreateRelation`/`ReplaceRelations` introduce new relations and are
/// handled at the catalog level (see `Catalog::apply_schema_change`).
pub fn apply_to_relation(
    rel: &Relation,
    change: &SchemaChange,
) -> Result<Option<Relation>, RelationalError> {
    match change {
        SchemaChange::RenameRelation { from, to } => {
            expect_touches(rel, from)?;
            Ok(Some(Relation::replace_parts(rel.schema().renamed(to.clone()), rel.rows().clone())))
        }
        SchemaChange::RenameAttribute { relation, from, to } => {
            expect_touches(rel, relation)?;
            let schema = rel.schema().with_attr_renamed(from, to)?;
            Ok(Some(Relation::replace_parts(schema, rel.rows().clone())))
        }
        SchemaChange::AddAttribute { relation, attr, default } => {
            expect_touches(rel, relation)?;
            let schema = rel.schema().with_attr_added(attr.clone())?;
            Ok(Some(Relation::replace_parts(schema, rel.rows().widened(default))))
        }
        SchemaChange::DropAttribute { relation, attr } => {
            expect_touches(rel, relation)?;
            let idx = rel.schema().require(attr)?;
            let schema = rel.schema().with_attr_dropped(attr)?;
            let keep: Vec<usize> = (0..rel.schema().arity()).filter(|&i| i != idx).collect();
            Ok(Some(Relation::replace_parts(schema, rel.rows().project(&keep))))
        }
        SchemaChange::DropRelation { relation } => {
            expect_touches(rel, relation)?;
            Ok(None)
        }
        SchemaChange::ReplaceRelations { dropped, .. } => {
            if dropped.iter().any(|d| *d == rel.schema().relation) {
                Ok(None)
            } else {
                Err(RelationalError::UnknownRelation { relation: rel.schema().relation.clone() })
            }
        }
        SchemaChange::CreateRelation { schema } => {
            Err(RelationalError::DuplicateRelation { relation: schema.relation.clone() })
        }
    }
}

fn expect_touches(rel: &Relation, name: &str) -> Result<(), RelationalError> {
    if rel.schema().relation == name {
        Ok(())
    } else {
        Err(RelationalError::UnknownRelation { relation: name.to_string() })
    }
}

/// Composes a sequence of schema changes over the *same source* into a
/// minimal equivalent sequence (paper Section 5 preprocessing).
///
/// Currently implemented combinations:
/// - chained relation renames collapse (`A→B`, `B→C` ⇒ `A→C`);
/// - chained attribute renames collapse, following relation renames;
/// - a rename followed by a drop collapses to a drop of the original name;
/// - changes to a relation that is later dropped are elided.
///
/// The result applied sequentially is equivalent to applying the input
/// sequentially (verified by property tests). The input is borrowed — a
/// slice of changes or an iterator over changes held elsewhere (a batch's
/// messages) — and each change is copied once, into the output.
pub fn compose<'a>(changes: impl IntoIterator<Item = &'a SchemaChange>) -> Vec<SchemaChange> {
    let mut out: Vec<SchemaChange> = Vec::new();
    for ch in changes {
        push_composed(&mut out, ch.clone());
    }
    out
}

fn push_composed(out: &mut Vec<SchemaChange>, ch: SchemaChange) {
    match &ch {
        SchemaChange::RenameRelation { from, to } => {
            // Collapse with an earlier rename chain ending at `from`.
            let prior = out.iter().position(
                |c| matches!(c, SchemaChange::RenameRelation { to: t0, .. } if t0 == from),
            );
            if let Some(i) = prior {
                let f0 = match &out[i] {
                    SchemaChange::RenameRelation { from: f0, .. } => f0.clone(),
                    _ => unreachable!(),
                };
                let cancelled = &f0 == to;
                if cancelled {
                    // A→B then B→A: both vanish.
                    out.remove(i);
                } else {
                    out[i] = SchemaChange::RenameRelation { from: f0.clone(), to: to.clone() };
                }
                // The intermediate name no longer exists at any point of the
                // composed sequence: changes recorded between the two renames
                // referenced it and must follow the relation to its final
                // name (or back to the original, in the cancellation case).
                let final_name = if cancelled { f0 } else { to.clone() };
                for c in out.iter_mut() {
                    rewrite_relation_name(c, from, &final_name);
                }
                return;
            }
            out.push(ch);
        }
        SchemaChange::RenameAttribute { relation, from, to } => {
            // Collapse chained attribute renames on the same relation.
            let prior = out.iter().position(|c| {
                matches!(c, SchemaChange::RenameAttribute { relation: r0, to: t0, .. }
                    if r0 == relation && t0 == from)
            });
            if let Some(i) = prior {
                let f0 = match &out[i] {
                    SchemaChange::RenameAttribute { from: f0, .. } => f0.clone(),
                    _ => unreachable!(),
                };
                if &f0 == to {
                    out.remove(i);
                } else {
                    out[i] = SchemaChange::RenameAttribute {
                        relation: relation.clone(),
                        from: f0,
                        to: to.clone(),
                    };
                }
                return;
            }
            out.push(ch);
        }
        SchemaChange::DropAttribute { relation, attr } => {
            // `rename a→b` then `drop b` ⇒ `drop a`.
            let mut effective =
                SchemaChange::DropAttribute { relation: relation.clone(), attr: attr.clone() };
            let mut removed = None;
            for (i, prev) in out.iter().enumerate() {
                if let SchemaChange::RenameAttribute { relation: r0, from: f0, to: t0 } = prev {
                    if r0 == relation && t0 == attr {
                        effective = SchemaChange::DropAttribute {
                            relation: relation.clone(),
                            attr: f0.clone(),
                        };
                        removed = Some(i);
                        break;
                    }
                }
            }
            if let Some(i) = removed {
                out.remove(i);
            }
            out.push(effective);
        }
        SchemaChange::DropRelation { relation } => {
            // Elide earlier changes to this relation; a rename chain ending
            // here means the *original* relation is what disappears.
            let mut original = relation.clone();
            let mut i = 0;
            while i < out.len() {
                let drop_this = match &out[i] {
                    SchemaChange::RenameRelation { from, to } if to == &original => {
                        original = from.clone();
                        true
                    }
                    SchemaChange::RenameAttribute { relation: r, .. }
                    | SchemaChange::AddAttribute { relation: r, .. }
                    | SchemaChange::DropAttribute { relation: r, .. }
                        if r == &original || r == relation =>
                    {
                        true
                    }
                    SchemaChange::CreateRelation { schema } if schema.relation == original => {
                        // created then dropped inside the batch: both vanish
                        out.remove(i);
                        return;
                    }
                    _ => false,
                };
                if drop_this {
                    out.remove(i);
                } else {
                    i += 1;
                }
            }
            out.push(SchemaChange::DropRelation { relation: original });
        }
        _ => out.push(ch),
    }
}

/// Renames every reference to relation `from` inside a recorded change.
fn rewrite_relation_name(change: &mut SchemaChange, from: &str, to: &str) {
    match change {
        SchemaChange::RenameAttribute { relation, .. }
        | SchemaChange::AddAttribute { relation, .. }
        | SchemaChange::DropAttribute { relation, .. }
        | SchemaChange::DropRelation { relation } => {
            if relation == from {
                *relation = to.to_string();
            }
        }
        SchemaChange::ReplaceRelations { dropped, .. } => {
            for d in dropped.iter_mut() {
                if d == from {
                    *d = to.to_string();
                }
            }
        }
        SchemaChange::RenameRelation { .. } | SchemaChange::CreateRelation { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrType;
    use crate::tuple::Tuple;

    #[test]
    fn compose_rewrites_interleaved_references() {
        // rename T→T1; alter T1; rename T1→T3 — the collapsed sequence must
        // reference T3, not the vanished T1.
        let composed = compose(&[
            SchemaChange::RenameRelation { from: "T".into(), to: "T1".into() },
            SchemaChange::RenameAttribute {
                relation: "T1".into(),
                from: "a".into(),
                to: "x".into(),
            },
            SchemaChange::RenameRelation { from: "T1".into(), to: "T3".into() },
        ]);
        assert_eq!(
            composed,
            vec![
                SchemaChange::RenameRelation { from: "T".into(), to: "T3".into() },
                SchemaChange::RenameAttribute {
                    relation: "T3".into(),
                    from: "a".into(),
                    to: "x".into()
                },
            ]
        );
    }

    #[test]
    fn compose_cancelled_rename_restores_references() {
        let composed = compose(&[
            SchemaChange::RenameRelation { from: "T".into(), to: "T1".into() },
            SchemaChange::DropAttribute { relation: "T1".into(), attr: "a".into() },
            SchemaChange::RenameRelation { from: "T1".into(), to: "T".into() },
        ]);
        assert_eq!(
            composed,
            vec![SchemaChange::DropAttribute { relation: "T".into(), attr: "a".into() }]
        );
    }

    fn rel() -> Relation {
        let schema = Schema::of("R", &[("a", AttrType::Int), ("b", AttrType::Str)]);
        Relation::from_tuples(schema, [Tuple::of([Value::from(1), Value::str("x")])]).unwrap()
    }

    #[test]
    fn rename_relation_keeps_rows() {
        let r = rel();
        let out = apply_to_relation(
            &r,
            &SchemaChange::RenameRelation { from: "R".into(), to: "S".into() },
        )
        .unwrap()
        .unwrap();
        assert_eq!(out.schema().relation, "S");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn drop_attribute_projects_rows() {
        let r = rel();
        let out = apply_to_relation(
            &r,
            &SchemaChange::DropAttribute { relation: "R".into(), attr: "a".into() },
        )
        .unwrap()
        .unwrap();
        assert_eq!(out.schema().arity(), 1);
        assert_eq!(out.rows().count(&Tuple::of([Value::str("x")])), 1);
    }

    #[test]
    fn add_attribute_fills_default() {
        let r = rel();
        let out = apply_to_relation(
            &r,
            &SchemaChange::AddAttribute {
                relation: "R".into(),
                attr: Attribute::new("c", AttrType::Int),
                default: Value::from(0),
            },
        )
        .unwrap()
        .unwrap();
        assert_eq!(out.schema().arity(), 3);
        assert_eq!(
            out.rows().count(&Tuple::of([Value::from(1), Value::str("x"), Value::from(0)])),
            1
        );
    }

    #[test]
    fn drop_relation_removes() {
        let out = apply_to_relation(&rel(), &SchemaChange::DropRelation { relation: "R".into() })
            .unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn compose_chained_relation_renames() {
        let composed = compose(&[
            SchemaChange::RenameRelation { from: "A".into(), to: "B".into() },
            SchemaChange::RenameRelation { from: "B".into(), to: "C".into() },
        ]);
        assert_eq!(
            composed,
            vec![SchemaChange::RenameRelation { from: "A".into(), to: "C".into() }]
        );
    }

    #[test]
    fn compose_rename_cycle_cancels() {
        let composed = compose(&[
            SchemaChange::RenameRelation { from: "A".into(), to: "B".into() },
            SchemaChange::RenameRelation { from: "B".into(), to: "A".into() },
        ]);
        assert!(composed.is_empty());
    }

    #[test]
    fn compose_attr_rename_chain() {
        let composed = compose(&[
            SchemaChange::RenameAttribute {
                relation: "R".into(),
                from: "a".into(),
                to: "b".into(),
            },
            SchemaChange::RenameAttribute {
                relation: "R".into(),
                from: "b".into(),
                to: "c".into(),
            },
        ]);
        assert_eq!(
            composed,
            vec![SchemaChange::RenameAttribute {
                relation: "R".into(),
                from: "a".into(),
                to: "c".into()
            }]
        );
    }

    #[test]
    fn compose_rename_then_drop_attr() {
        let composed = compose(&[
            SchemaChange::RenameAttribute {
                relation: "R".into(),
                from: "a".into(),
                to: "b".into(),
            },
            SchemaChange::DropAttribute { relation: "R".into(), attr: "b".into() },
        ]);
        assert_eq!(
            composed,
            vec![SchemaChange::DropAttribute { relation: "R".into(), attr: "a".into() }]
        );
    }

    #[test]
    fn compose_changes_then_drop_relation() {
        let composed = compose(&[
            SchemaChange::RenameRelation { from: "A".into(), to: "B".into() },
            SchemaChange::DropAttribute { relation: "B".into(), attr: "x".into() },
            SchemaChange::DropRelation { relation: "B".into() },
        ]);
        assert_eq!(composed, vec![SchemaChange::DropRelation { relation: "A".into() }]);
    }

    #[test]
    fn compose_create_then_drop_cancels() {
        let schema = Schema::of("T", &[("a", AttrType::Int)]);
        let composed = compose(&[
            SchemaChange::CreateRelation { schema },
            SchemaChange::DropRelation { relation: "T".into() },
        ]);
        assert!(composed.is_empty());
    }

    #[test]
    fn invalidation_checks() {
        let sc = SchemaChange::DropAttribute { relation: "R".into(), attr: "a".into() };
        assert!(sc.invalidates_column("R", "a"));
        assert!(!sc.invalidates_column("R", "b"));
        assert!(!sc.invalidates_relation("R"));
        let dr = SchemaChange::DropRelation { relation: "R".into() };
        assert!(dr.invalidates_relation("R"));
        assert!(dr.invalidates_column("R", "anything"));
    }
}
