//! An autonomous source server: a catalog plus a committed-update log that
//! doubles as its version history.
//!
//! Sources commit updates without coordinating with the view manager (the
//! defining property of the loosely-coupled environment). Queries are always
//! answered against the **current** state — this is what makes concurrent
//! updates corrupt or break in-flight maintenance queries.
//!
//! **The log is the history.** Any past state can be reconstructed (the
//! paper attributes this capability to the "intelligent wrapper"; here the
//! consistency oracle uses it), and reconstructing one costs what changed
//! since, not what the source holds:
//! [`SourceServer::state_at`] clones the current catalog and walks the log
//! backwards, applying the inverse of each later entry — derived from the
//! entry itself at that moment, so a commit stores nothing beyond its log
//! record. A data update is a signed delta: its inverse is the negated
//! delta. A rename is undone by the swapped rename, an added attribute by
//! dropping it, a created relation by dropping it. Only a **destructive**
//! change (`DropAttribute`, `DropRelation`, `ReplaceRelations`) cannot be
//! recovered from its description, and it alone pins data: the pre-image of
//! exactly the relations it destroyed, moved out of the catalog as the
//! change applies. A source that is only renamed, widened and updated —
//! however large, however long — keeps no copy of anything.
//!
//! The cost of `state_at(v)` is one catalog clone plus `version − v` inverse
//! applications (an inverse costs what its forward change cost; restoring a
//! destroyed relation copies it). Near the head of the log, where the
//! oracle reads, that is at most what replaying forward from a stored
//! catalog copy would pay — and no commit ever pays for such a copy.

use std::collections::BTreeMap;

use dyno_relational::{Catalog, DataUpdate, Relation, RelationalError, SchemaChange, SourceUpdate};

use crate::id::SourceId;

/// One committed update with the version it produced.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// The source-local version after applying the update (1-based).
    pub version: u64,
    /// The update applied.
    pub update: SourceUpdate,
}

/// An autonomous source server.
#[derive(Debug, Clone)]
pub struct SourceServer {
    id: SourceId,
    name: String,
    catalog: Catalog,
    version: u64,
    log: Vec<LogEntry>,
    /// What the log alone cannot bring back: for each destructive schema
    /// change, keyed by the version it produced, the relations it destroyed
    /// as they were just before. Empty for every other kind of commit.
    destroyed: BTreeMap<u64, Vec<Relation>>,
}

impl SourceServer {
    /// Creates a server over an initial catalog (version 0).
    pub fn new(id: SourceId, name: impl Into<String>, catalog: Catalog) -> Self {
        SourceServer {
            id,
            name: name.into(),
            catalog,
            version: 0,
            log: Vec::new(),
            destroyed: BTreeMap::new(),
        }
    }

    /// The server's id.
    pub fn id(&self) -> SourceId {
        self.id
    }

    /// The server's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current catalog (what queries run against).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Declares a secondary hash index on a relation of this source; the
    /// catalog maintains it across committed updates. Historical states
    /// reconstructed by rewinding from the current catalog carry the current
    /// index set, except on relations a rewound destructive change restored
    /// (indexes speed reconstruction-time queries; they never change their
    /// results).
    pub fn create_index(&mut self, relation: &str, attrs: &[&str]) -> Result<(), RelationalError> {
        self.catalog.create_index(relation, attrs)
    }

    /// The current source-local version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The commit log.
    pub fn log(&self) -> &[LogEntry] {
        &self.log
    }

    /// Commits an update autonomously. On success the catalog reflects the
    /// update and the new version is returned; on failure nothing changes.
    /// Beyond the log entry, only the relations a destructive schema change
    /// destroys are kept (moved, not copied).
    pub fn commit(&mut self, update: SourceUpdate) -> Result<u64, RelationalError> {
        let destroyed = match &update {
            SourceUpdate::Data(du) => {
                self.catalog.apply_data_update(du)?;
                Vec::new()
            }
            SourceUpdate::Schema(sc) => self.catalog.apply_schema_change_displacing(sc)?,
        };
        self.version += 1;
        if !destroyed.is_empty() {
            self.destroyed.insert(self.version, destroyed);
        }
        self.log.push(LogEntry { version: self.version, update });
        Ok(self.version)
    }

    /// Reconstructs the catalog as of `version`: clones the current catalog
    /// and rewinds it through the inverse of every later log entry, newest
    /// first (see the module docs for what each inverse is). Costs one
    /// catalog clone plus `self.version() − version` inverse applications.
    pub fn state_at(&self, version: u64) -> Result<Catalog, RelationalError> {
        if version > self.version {
            return Err(RelationalError::InvalidQuery {
                reason: format!(
                    "source {} asked for future version {version} (current {})",
                    self.id, self.version
                ),
            });
        }
        let mut catalog = self.catalog.clone();
        for entry in self.log.iter().rev().take_while(|e| e.version > version) {
            for undo in self.inverse(entry) {
                catalog.apply_update(&undo)?;
            }
        }
        Ok(catalog)
    }

    /// The updates that take the state just after `entry` back to the state
    /// just before it, in application order.
    fn inverse(&self, entry: &LogEntry) -> Vec<SourceUpdate> {
        let undo = match &entry.update {
            SourceUpdate::Data(du) => {
                return vec![SourceUpdate::Data(DataUpdate::new(du.delta.negated()))]
            }
            SourceUpdate::Schema(sc) => match sc {
                SchemaChange::RenameRelation { from, to } => {
                    SchemaChange::RenameRelation { from: to.clone(), to: from.clone() }
                }
                SchemaChange::RenameAttribute { relation, from, to } => {
                    SchemaChange::RenameAttribute {
                        relation: relation.clone(),
                        from: to.clone(),
                        to: from.clone(),
                    }
                }
                SchemaChange::AddAttribute { relation, attr, .. } => SchemaChange::DropAttribute {
                    relation: relation.clone(),
                    attr: attr.name.clone(),
                },
                SchemaChange::CreateRelation { schema } => {
                    SchemaChange::DropRelation { relation: schema.relation.clone() }
                }
                SchemaChange::DropAttribute { relation, .. } => {
                    return self.restore(entry.version, Some(relation))
                }
                SchemaChange::DropRelation { .. } => return self.restore(entry.version, None),
                SchemaChange::ReplaceRelations { replacement, .. } => {
                    return self.restore(entry.version, Some(&replacement.schema().relation))
                }
            },
        };
        vec![SourceUpdate::Schema(undo)]
    }

    /// Undoes the destructive change that produced `version`: the relation
    /// it left standing where the destroyed ones were (if any) goes, and the
    /// pinned pre-images come back, each through a `ReplaceRelations`.
    fn restore(&self, version: u64, left_standing: Option<&String>) -> Vec<SourceUpdate> {
        let mut dropped: Vec<String> = left_standing.into_iter().cloned().collect();
        let pre_images = self.destroyed.get(&version).map_or(&[][..], Vec::as_slice);
        let mut undo: Vec<SourceUpdate> = pre_images
            .iter()
            .map(|pre| {
                SourceUpdate::Schema(SchemaChange::ReplaceRelations {
                    dropped: std::mem::take(&mut dropped),
                    replacement: Box::new(pre.clone()),
                })
            })
            .collect();
        // A `ReplaceRelations` that replaced nothing destroyed nothing.
        if let Some(relation) = dropped.pop() {
            undo.push(SourceUpdate::Schema(SchemaChange::DropRelation { relation }));
        }
        undo
    }

    /// The updates committed after `version`, in commit order.
    pub fn updates_since(&self, version: u64) -> impl Iterator<Item = &LogEntry> {
        self.log.iter().filter(move |e| e.version > version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyno_relational::{
        AttrType, DataUpdate, Delta, Relation, Schema, SchemaChange, Tuple, Value,
    };

    fn server() -> SourceServer {
        let mut c = Catalog::new();
        c.add_relation(
            Relation::from_tuples(
                Schema::of("R", &[("a", AttrType::Int), ("b", AttrType::Str)]),
                [Tuple::of([Value::from(1), Value::str("x")])],
            )
            .unwrap(),
        )
        .unwrap();
        SourceServer::new(SourceId(0), "S0", c)
    }

    fn insert(server: &mut SourceServer, a: i64, b: &str) -> u64 {
        let schema = server.catalog().get("R").unwrap().schema().clone();
        server
            .commit(SourceUpdate::Data(DataUpdate::new(
                Delta::inserts(schema, [Tuple::of([Value::from(a), Value::str(b)])]).unwrap(),
            )))
            .unwrap()
    }

    #[test]
    fn commit_advances_version() {
        let mut s = server();
        assert_eq!(insert(&mut s, 2, "y"), 1);
        assert_eq!(s.version(), 1);
        assert_eq!(s.catalog().get("R").unwrap().len(), 2);
    }

    #[test]
    fn failed_commit_is_clean() {
        let mut s = server();
        let err =
            s.commit(SourceUpdate::Schema(SchemaChange::DropRelation { relation: "Ghost".into() }));
        assert!(err.is_err());
        assert_eq!(s.version(), 0);
        assert!(s.log().is_empty());
    }

    #[test]
    fn state_at_reconstructs_history() {
        let mut s = server();
        insert(&mut s, 2, "y");
        s.commit(SourceUpdate::Schema(SchemaChange::DropAttribute {
            relation: "R".into(),
            attr: "b".into(),
        }))
        .unwrap();
        insert_narrow(&mut s, 3);

        let v0 = s.state_at(0).unwrap();
        assert_eq!(v0.get("R").unwrap().len(), 1);
        assert_eq!(v0.get("R").unwrap().schema().arity(), 2);

        let v1 = s.state_at(1).unwrap();
        assert_eq!(v1.get("R").unwrap().len(), 2);

        let v2 = s.state_at(2).unwrap();
        assert_eq!(v2.get("R").unwrap().schema().arity(), 1);
        assert_eq!(v2.get("R").unwrap().len(), 2);

        let v3 = s.state_at(3).unwrap();
        assert_eq!(v3.get("R").unwrap().len(), 3);

        assert!(s.state_at(4).is_err(), "future versions are unknowable");
    }

    fn insert_narrow(s: &mut SourceServer, a: i64) {
        let schema = s.catalog().get("R").unwrap().schema().clone();
        s.commit(SourceUpdate::Data(DataUpdate::new(
            Delta::inserts(schema, [Tuple::of([Value::from(a)])]).unwrap(),
        )))
        .unwrap();
    }

    #[test]
    fn data_only_history_pins_nothing() {
        let mut s = server();
        insert(&mut s, 2, "y");
        insert(&mut s, 3, "z");
        assert!(s.destroyed.is_empty(), "data updates are invertible; nothing to pin");
        assert_eq!(s.state_at(0).unwrap().get("R").unwrap().len(), 1);
        assert_eq!(s.state_at(1).unwrap().get("R").unwrap().len(), 2);
        assert_eq!(s.state_at(2).unwrap().get("R").unwrap().len(), 3);
    }

    #[test]
    fn rewind_reinserts_deleted_rows() {
        let mut s = server();
        let schema = s.catalog().get("R").unwrap().schema().clone();
        s.commit(SourceUpdate::Data(DataUpdate::new(
            Delta::deletes(schema, [Tuple::of([Value::from(1), Value::str("x")])]).unwrap(),
        )))
        .unwrap();
        assert_eq!(s.catalog().get("R").unwrap().len(), 0);
        assert_eq!(s.state_at(0).unwrap().get("R").unwrap().len(), 1);
    }

    fn schema_change(s: &mut SourceServer, sc: SchemaChange) -> u64 {
        s.commit(SourceUpdate::Schema(sc)).unwrap()
    }

    #[test]
    fn invertible_changes_pin_nothing() {
        let mut s = server();
        let v0 = s.catalog().clone();
        insert(&mut s, 2, "y");
        schema_change(&mut s, SchemaChange::RenameRelation { from: "R".into(), to: "S".into() });
        schema_change(
            &mut s,
            SchemaChange::RenameAttribute {
                relation: "S".into(),
                from: "a".into(),
                to: "k".into(),
            },
        );
        schema_change(
            &mut s,
            SchemaChange::AddAttribute {
                relation: "S".into(),
                attr: dyno_relational::Attribute::new("c", AttrType::Int),
                default: Value::from(0),
            },
        );
        schema_change(
            &mut s,
            SchemaChange::CreateRelation { schema: Schema::of("T", &[("x", AttrType::Int)]) },
        );
        assert!(s.destroyed.is_empty(), "each of these is undone from its log entry alone");
        assert_eq!(s.state_at(0).unwrap(), v0);
        let v3 = s.state_at(3).unwrap();
        assert_eq!(v3.get("S").unwrap().schema().attrs()[0].name, "k");
        assert_eq!(v3.get("S").unwrap().schema().arity(), 2);
        assert!(!s.state_at(4).unwrap().contains("T"));
    }

    #[test]
    fn destructive_changes_pin_exactly_what_they_destroy() {
        let mut s = server();
        schema_change(
            &mut s,
            SchemaChange::CreateRelation { schema: Schema::of("T", &[("x", AttrType::Int)]) },
        );
        let before_drop_attr = s.catalog().get("R").unwrap().clone();
        let v = schema_change(
            &mut s,
            SchemaChange::DropAttribute { relation: "R".into(), attr: "b".into() },
        );
        assert_eq!(s.destroyed[&v], vec![before_drop_attr], "the narrowed relation, not T");

        let before_replace: Vec<Relation> =
            ["R", "T"].iter().map(|r| s.catalog().get(r).unwrap().clone()).collect();
        let v = schema_change(
            &mut s,
            SchemaChange::ReplaceRelations {
                dropped: vec!["R".into(), "T".into()],
                replacement: Box::new(Relation::empty(Schema::of("M", &[("m", AttrType::Int)]))),
            },
        );
        assert_eq!(s.destroyed[&v], before_replace);

        let before_drop = s.catalog().get("M").unwrap().clone();
        let v = schema_change(&mut s, SchemaChange::DropRelation { relation: "M".into() });
        assert_eq!(s.destroyed[&v], vec![before_drop]);
        assert_eq!(s.destroyed.len(), 3, "one entry per destructive change, none for the create");

        // And every version is still reachable through them.
        assert!(s.state_at(4).unwrap().is_empty());
        assert_eq!(s.state_at(3).unwrap().relation_names().collect::<Vec<_>>(), ["M"]);
        assert_eq!(s.state_at(2).unwrap().relation_names().collect::<Vec<_>>(), ["R", "T"]);
        assert_eq!(s.state_at(1).unwrap().get("R").unwrap().schema().arity(), 2);
        assert_eq!(s.state_at(0).unwrap().relation_names().collect::<Vec<_>>(), ["R"]);
    }

    #[test]
    fn rewound_state_carries_current_indexes() {
        let mut s = server();
        s.create_index("R", &["a"]).unwrap();
        insert(&mut s, 2, "y");
        let v0 = s.state_at(0).unwrap();
        assert!(v0.index_covering("R", &["a"]).is_some());
        assert_eq!(v0.index_covering("R", &["a"]).unwrap().len(), 1);
    }

    #[test]
    fn updates_since_filters() {
        let mut s = server();
        insert(&mut s, 2, "y");
        insert(&mut s, 3, "z");
        assert_eq!(s.updates_since(1).count(), 1);
        assert_eq!(s.updates_since(0).count(), 2);
        assert_eq!(s.updates_since(2).count(), 0);
    }
}
