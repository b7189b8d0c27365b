//! A catalog of named relations — the storage layer of one data source.

use std::collections::BTreeMap;

use crate::ddl::{apply_to_relation, SchemaChange};
use crate::error::RelationalError;
use crate::exec::{RelationProvider, TableSlice};
use crate::index::{AttrName, HashIndex};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::update::{DataUpdate, SourceUpdate};

/// A set of named relations with DDL and DML application, plus the
/// secondary hash indexes maintained over them.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    /// Each relation with its indexes, under the relation's name: one
    /// lookup finds both.
    tables: BTreeMap<String, Table>,
}

/// One relation and the secondary indexes over it, maintained through
/// [`Catalog::apply_data_update`] / [`Catalog::apply_schema_change`].
#[derive(Debug, Clone)]
struct Table {
    relation: Relation,
    indexes: Vec<HashIndex>,
}

/// Catalog equality is over relation *content* only: indexes are an access
/// path derived from it, so two catalogs holding the same relations are
/// equal whether or not indexes were declared on them.
impl PartialEq for Catalog {
    fn eq(&self, other: &Self) -> bool {
        self.tables.len() == other.tables.len()
            && self
                .tables
                .iter()
                .zip(&other.tables)
                .all(|((a, t), (b, u))| a == b && t.relation == u.relation)
    }
}

impl Eq for Catalog {}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Creates an empty relation with the given schema.
    pub fn create(&mut self, schema: Schema) -> Result<(), RelationalError> {
        self.add_relation(Relation::empty(schema))
    }

    /// Adds a populated relation.
    pub fn add_relation(&mut self, relation: Relation) -> Result<(), RelationalError> {
        let name = relation.schema().relation.clone();
        if self.tables.contains_key(&name) {
            return Err(RelationalError::DuplicateRelation { relation: name });
        }
        self.tables.insert(name, Table { relation, indexes: Vec::new() });
        Ok(())
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut Table, RelationalError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| RelationalError::UnknownRelation { relation: name.to_string() })
    }

    /// Looks up a relation by name.
    pub fn get(&self, name: &str) -> Result<&Relation, RelationalError> {
        self.tables
            .get(name)
            .map(|t| &t.relation)
            .ok_or_else(|| RelationalError::UnknownRelation { relation: name.to_string() })
    }

    /// Mutable lookup. Mutating a relation directly bypasses index
    /// maintenance, so any secondary indexes on it are dropped first —
    /// use [`Catalog::apply_data_update`] to keep indexes live.
    pub fn get_mut(&mut self, name: &str) -> Result<&mut Relation, RelationalError> {
        let table = self.table_mut(name)?;
        table.indexes.clear();
        Ok(&mut table.relation)
    }

    /// Declares (or rebuilds) a secondary hash index on `relation` covering
    /// `attrs`. Idempotent per attribute set; fails if the relation or any
    /// attribute is unknown.
    pub fn create_index(&mut self, relation: &str, attrs: &[&str]) -> Result<(), RelationalError> {
        let table = self.table_mut(relation)?;
        let owned: Vec<String> = attrs.iter().map(|a| a.to_string()).collect();
        let index = HashIndex::build(&table.relation, owned)?;
        table.indexes.retain(|i| !i.covers(attrs));
        table.indexes.push(index);
        Ok(())
    }

    /// A relation with the indexes on it, found in one lookup.
    pub fn lookup(&self, name: &str) -> Option<(&Relation, &[HashIndex])> {
        self.tables.get(name).map(|t| (&t.relation, t.indexes.as_slice()))
    }

    /// All indexes on `relation` (empty when none are declared).
    pub fn indexes_on(&self, relation: &str) -> &[HashIndex] {
        self.tables.get(relation).map_or(&[], |t| &t.indexes)
    }

    /// The index on `relation` covering exactly `attrs`, if one exists.
    pub fn index_covering(&self, relation: &str, attrs: &[&str]) -> Option<&HashIndex> {
        self.indexes_on(relation).iter().find(|i| i.covers(attrs))
    }

    /// True iff the relation exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Names of all relations, sorted.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True iff the catalog has no relations.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Applies a data update to its relation, maintaining every index on it
    /// incrementally from the delta.
    pub fn apply_data_update(&mut self, du: &DataUpdate) -> Result<(), RelationalError> {
        let table = self.table_mut(&du.relation)?;
        table.relation.apply(&du.delta)?;
        for index in &mut table.indexes {
            index.apply(du.delta.rows().iter());
        }
        Ok(())
    }

    /// Applies a schema change, updating/removing/creating relations as
    /// needed. Secondary indexes follow the relation: renames carry them
    /// over, attribute changes rebuild them (dropping any index whose key
    /// attribute was dropped), and relation drops/replacements discard them.
    pub fn apply_schema_change(&mut self, sc: &SchemaChange) -> Result<(), RelationalError> {
        self.apply_schema_change_displacing(sc).map(drop)
    }

    /// [`Catalog::apply_schema_change`], handing back what the change
    /// **destroyed**: the relation a `DropAttribute` narrowed (as it was
    /// before), the relation a `DropRelation` removed, every relation a
    /// `ReplaceRelations` replaced. Every other change — renames,
    /// `AddAttribute`, `CreateRelation` — can be undone from the change
    /// itself and returns nothing. The pre-images are moved out, not copied;
    /// a keeper of history (the source server) pins exactly these.
    ///
    /// A relation's indexes move and vanish with it; only a changed column
    /// list rebuilds them, after the change applied cleanly, so a failed
    /// change leaves indexes untouched too.
    pub fn apply_schema_change_displacing(
        &mut self,
        sc: &SchemaChange,
    ) -> Result<Vec<Relation>, RelationalError> {
        let unknown = |name: &String| RelationalError::UnknownRelation { relation: name.clone() };
        match sc {
            SchemaChange::CreateRelation { schema } => {
                self.create(schema.clone())?;
                Ok(Vec::new())
            }
            SchemaChange::ReplaceRelations { dropped, replacement } => {
                for d in dropped {
                    // All dropped relations must exist, checked up front so a
                    // failed change leaves the catalog untouched.
                    self.get(d)?;
                }
                if self.contains(&replacement.schema().relation)
                    && !dropped.contains(&replacement.schema().relation)
                {
                    return Err(RelationalError::DuplicateRelation {
                        relation: replacement.schema().relation.clone(),
                    });
                }
                let displaced =
                    dropped.iter().filter_map(|d| self.tables.remove(d)).map(|t| t.relation);
                let displaced = displaced.collect();
                self.add_relation((**replacement).clone())?;
                Ok(displaced)
            }
            // Renames change no row: the relation is moved (or renamed where
            // it sits) with its indexes, never copied.
            SchemaChange::RenameRelation { from, to } => {
                if self.contains(to) {
                    return Err(RelationalError::DuplicateRelation { relation: to.clone() });
                }
                let mut table = self.tables.remove(from).ok_or_else(|| unknown(from))?;
                table.relation.set_schema(table.relation.schema().renamed(to.clone()));
                self.tables.insert(to.clone(), table);
                Ok(Vec::new())
            }
            SchemaChange::RenameAttribute { relation, from, to } => {
                let table = self.table_mut(relation)?;
                let schema = table.relation.schema().with_attr_renamed(from, to)?;
                table.relation.set_schema(schema);
                // Column positions are unchanged by an attribute rename.
                for index in &mut table.indexes {
                    index.rename_attr(from, to);
                }
                Ok(Vec::new())
            }
            SchemaChange::AddAttribute { relation, .. }
            | SchemaChange::DropAttribute { relation, .. }
            | SchemaChange::DropRelation { relation } => {
                let before = match apply_to_relation(self.get(relation)?, sc)? {
                    Some(updated) => {
                        let table = self.table_mut(relation)?;
                        let before = std::mem::replace(&mut table.relation, updated);
                        // Column positions shifted (or an indexed attribute
                        // went away): rebuild from the post-change relation;
                        // an index whose key attribute was dropped fails to
                        // build and is discarded.
                        let indexes = std::mem::take(&mut table.indexes);
                        table.indexes = indexes
                            .into_iter()
                            .filter_map(|old| {
                                HashIndex::build(&table.relation, old.into_attrs()).ok()
                            })
                            .collect();
                        Some(before)
                    }
                    None => self.tables.remove(relation).map(|t| t.relation),
                };
                Ok(match sc {
                    // A widened relation is recovered by dropping the column.
                    SchemaChange::AddAttribute { .. } => Vec::new(),
                    _ => before.into_iter().collect(),
                })
            }
        }
    }

    /// Applies any source update.
    pub fn apply_update(&mut self, update: &SourceUpdate) -> Result<(), RelationalError> {
        match update {
            SourceUpdate::Data(du) => self.apply_data_update(du),
            SourceUpdate::Schema(sc) => self.apply_schema_change(sc),
        }
    }
}

impl RelationProvider for Catalog {
    fn table(&self, name: &str) -> Result<TableSlice<'_>, RelationalError> {
        self.get(name).map(Into::into)
    }

    fn index_on(&self, name: &str, attrs: &[&str]) -> Option<&HashIndex> {
        self.index_covering(name, attrs)
    }

    fn table_and_index<K: AttrName>(
        &self,
        name: &str,
        key: &[K],
    ) -> Result<(TableSlice<'_>, Option<&HashIndex>), RelationalError> {
        match self.lookup(name) {
            Some((relation, indexes)) => {
                Ok((relation.into(), indexes.iter().find(|i| i.covers(key))))
            }
            None => Err(RelationalError::UnknownRelation { relation: name.to_string() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Delta;
    use crate::schema::AttrType;
    use crate::tuple::Tuple;
    use crate::value::Value;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create(Schema::of("R", &[("a", AttrType::Int), ("b", AttrType::Str)])).unwrap();
        c
    }

    #[test]
    fn create_and_duplicate() {
        let mut c = catalog();
        assert!(c.contains("R"));
        assert!(c.create(Schema::of("R", &[("x", AttrType::Int)])).is_err());
    }

    #[test]
    fn data_update_roundtrip() {
        let mut c = catalog();
        let schema = c.get("R").unwrap().schema().clone();
        let du = DataUpdate::new(
            Delta::inserts(schema, [Tuple::of([Value::from(1), Value::str("x")])]).unwrap(),
        );
        c.apply_data_update(&du).unwrap();
        assert_eq!(c.get("R").unwrap().len(), 1);
    }

    #[test]
    fn rename_moves_relation() {
        let mut c = catalog();
        c.apply_schema_change(&SchemaChange::RenameRelation { from: "R".into(), to: "S".into() })
            .unwrap();
        assert!(!c.contains("R"));
        assert!(c.contains("S"));
        assert_eq!(c.get("S").unwrap().schema().relation, "S");
    }

    #[test]
    fn only_destructive_changes_displace_relations() {
        let mut c = indexed_catalog();
        let original = c.get("R").unwrap().clone();
        let kept = |c: &mut Catalog, sc: SchemaChange| c.apply_schema_change_displacing(&sc);
        let none = [
            SchemaChange::RenameRelation { from: "R".into(), to: "S".into() },
            SchemaChange::RenameAttribute {
                relation: "S".into(),
                from: "b".into(),
                to: "c".into(),
            },
            SchemaChange::AddAttribute {
                relation: "S".into(),
                attr: crate::schema::Attribute::new("d", AttrType::Int),
                default: Value::from(0),
            },
            SchemaChange::CreateRelation { schema: Schema::of("T", &[("x", AttrType::Int)]) },
        ];
        for sc in none {
            assert!(kept(&mut c, sc.clone()).unwrap().is_empty(), "{sc}");
        }
        assert_eq!(c.get("S").unwrap().rows().project(&[0, 1]), *original.rows(), "rows moved");

        let wide = c.get("S").unwrap().clone();
        let sc = SchemaChange::DropAttribute { relation: "S".into(), attr: "d".into() };
        assert_eq!(kept(&mut c, sc).unwrap(), vec![wide]);
        let (s, t) = (c.get("S").unwrap().clone(), c.get("T").unwrap().clone());
        let sc = SchemaChange::ReplaceRelations {
            dropped: vec!["S".into(), "T".into()],
            replacement: Box::new(Relation::empty(Schema::of("M", &[("m", AttrType::Int)]))),
        };
        assert_eq!(kept(&mut c, sc).unwrap(), vec![s, t]);
        let m = c.get("M").unwrap().clone();
        let sc = SchemaChange::DropRelation { relation: "M".into() };
        assert_eq!(kept(&mut c, sc).unwrap(), vec![m]);
        // A refused change displaces nothing and changes nothing.
        assert!(kept(&mut c, SchemaChange::DropRelation { relation: "M".into() }).is_err());
        assert!(c.is_empty());
    }

    #[test]
    fn rename_onto_existing_rejected() {
        let mut c = catalog();
        c.create(Schema::of("S", &[("x", AttrType::Int)])).unwrap();
        assert!(c
            .apply_schema_change(&SchemaChange::RenameRelation { from: "R".into(), to: "S".into() })
            .is_err());
        assert!(c.contains("R"), "failed rename must not mutate");
    }

    #[test]
    fn drop_attribute_via_catalog() {
        let mut c = catalog();
        c.apply_schema_change(&SchemaChange::DropAttribute {
            relation: "R".into(),
            attr: "b".into(),
        })
        .unwrap();
        assert_eq!(c.get("R").unwrap().schema().arity(), 1);
    }

    #[test]
    fn replace_relations() {
        let mut c = catalog();
        c.create(Schema::of("R2", &[("x", AttrType::Int)])).unwrap();
        let replacement =
            Relation::from_tuples(Schema::of("M", &[("a", AttrType::Int)]), [Tuple::of([1i64])])
                .unwrap();
        c.apply_schema_change(&SchemaChange::ReplaceRelations {
            dropped: vec!["R".into(), "R2".into()],
            replacement: Box::new(replacement),
        })
        .unwrap();
        assert!(!c.contains("R") && !c.contains("R2"));
        assert_eq!(c.get("M").unwrap().len(), 1);
    }

    #[test]
    fn replace_missing_relation_fails_cleanly() {
        let mut c = catalog();
        let replacement = Relation::empty(Schema::of("M", &[("a", AttrType::Int)]));
        let err = c.apply_schema_change(&SchemaChange::ReplaceRelations {
            dropped: vec!["R".into(), "Ghost".into()],
            replacement: Box::new(replacement),
        });
        assert!(err.is_err());
        assert!(c.contains("R"), "failed replace must not drop anything");
    }

    #[test]
    fn provider_surface() {
        let c = catalog();
        assert!(c.table("R").is_ok());
        assert!(c.table("nope").unwrap_err().is_schema_conflict());
    }

    fn indexed_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_relation(
            Relation::from_tuples(
                Schema::of("R", &[("a", AttrType::Int), ("b", AttrType::Str)]),
                [
                    Tuple::of([Value::from(1), Value::str("x")]),
                    Tuple::of([Value::from(2), Value::str("y")]),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c.create_index("R", &["a"]).unwrap();
        c
    }

    #[test]
    fn data_update_maintains_index() {
        let mut c = indexed_catalog();
        let schema = c.get("R").unwrap().schema().clone();
        let du = DataUpdate::new(
            Delta::from_rows(
                schema,
                [
                    (Tuple::of([Value::from(1), Value::str("x")]), -1),
                    (Tuple::of([Value::from(3), Value::str("z")]), 1),
                ],
            )
            .unwrap(),
        );
        c.apply_data_update(&du).unwrap();
        let idx = c.index_covering("R", &["a"]).unwrap();
        let (one, three) = (Value::from(1), Value::from(3));
        assert!(idx.probe(&[&one]).is_empty());
        assert_eq!(idx.probe(&[&three]).len(), 1);
    }

    #[test]
    fn failed_data_update_leaves_relation_and_indexes_agreeing() {
        // (5, NULL) fits R(a Int, b Str); (6, 7) does not. The update fails
        // whole, so the index (untouched on failure) still matches R.
        let mut c = indexed_catalog();
        let before = c.get("R").unwrap().clone();
        let du = DataUpdate::new(
            Delta::from_rows(
                Schema::of("R", &[("a", AttrType::Int), ("c", AttrType::Int)]),
                [
                    (Tuple::of([Value::from(5), Value::Null]), 1),
                    (Tuple::of([Value::from(6), Value::from(7)]), 1),
                ],
            )
            .unwrap(),
        );
        assert!(c.apply_data_update(&du).is_err());
        assert_eq!(c.get("R").unwrap(), &before);
        let idx = c.index_covering("R", &["a"]).unwrap();
        assert_eq!(idx.len(), before.rows().distinct_len());
        assert!(idx.probe(&[&Value::from(5)]).is_empty());
    }

    #[test]
    fn rename_relation_carries_indexes() {
        let mut c = indexed_catalog();
        c.apply_schema_change(&SchemaChange::RenameRelation { from: "R".into(), to: "S".into() })
            .unwrap();
        assert!(c.index_covering("S", &["a"]).is_some());
        assert!(c.indexes_on("R").is_empty());
    }

    #[test]
    fn rename_attribute_follows_in_index() {
        let mut c = indexed_catalog();
        c.apply_schema_change(&SchemaChange::RenameAttribute {
            relation: "R".into(),
            from: "a".into(),
            to: "a2".into(),
        })
        .unwrap();
        assert!(c.index_covering("R", &["a"]).is_none());
        let idx = c.index_covering("R", &["a2"]).unwrap();
        let two = Value::from(2);
        assert_eq!(idx.probe(&[&two]).len(), 1);
    }

    #[test]
    fn drop_indexed_attribute_drops_index() {
        let mut c = indexed_catalog();
        c.apply_schema_change(&SchemaChange::DropAttribute {
            relation: "R".into(),
            attr: "a".into(),
        })
        .unwrap();
        assert!(c.indexes_on("R").is_empty());
    }

    #[test]
    fn drop_other_attribute_rebuilds_index() {
        let mut c = indexed_catalog();
        c.apply_schema_change(&SchemaChange::DropAttribute {
            relation: "R".into(),
            attr: "b".into(),
        })
        .unwrap();
        let idx = c.index_covering("R", &["a"]).unwrap();
        let one = Value::from(1);
        let hits = idx.probe(&[&one]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0.arity(), 1, "rebuilt index holds post-DDL rows");
    }

    #[test]
    fn drop_relation_drops_indexes() {
        let mut c = indexed_catalog();
        c.apply_schema_change(&SchemaChange::DropRelation { relation: "R".into() }).unwrap();
        assert!(c.indexes_on("R").is_empty());
    }

    #[test]
    fn get_mut_invalidates_indexes() {
        let mut c = indexed_catalog();
        c.get_mut("R").unwrap();
        assert!(c.indexes_on("R").is_empty(), "direct mutation cannot desync an index");
    }

    #[test]
    fn equality_ignores_indexes() {
        let plain = {
            let mut c = indexed_catalog();
            c.get_mut("R").unwrap(); // drops the index, keeps the rows
            c
        };
        assert_eq!(plain, indexed_catalog());
    }
}
