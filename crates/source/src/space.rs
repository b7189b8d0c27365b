//! The remote source space: all source servers plus the wrapper layer that
//! stamps committed updates into [`UpdateMessage`]s.

use std::collections::HashMap;

use dyno_relational::exec::{RelationProvider, TableSlice};
use dyno_relational::{AttrName, HashIndex, Relation, RelationalError, SourceUpdate};

use crate::id::{SourceId, UpdateId};
use crate::infospace::InfoSpace;
use crate::message::UpdateMessage;
use crate::server::SourceServer;

/// The collection of autonomous sources, with global update numbering and
/// relation-name routing.
#[derive(Debug, Clone, Default)]
pub struct SourceSpace {
    servers: Vec<SourceServer>,
    next_update: u64,
    info: InfoSpace,
}

impl SourceSpace {
    /// An empty source space.
    pub fn new() -> Self {
        SourceSpace::default()
    }

    /// Adds a server; its id must equal its index.
    pub fn add_server(&mut self, server: SourceServer) {
        assert_eq!(
            server.id().0 as usize,
            self.servers.len(),
            "server ids must be assigned densely in registration order"
        );
        self.servers.push(server);
    }

    /// Access to the information space.
    pub fn info(&self) -> &InfoSpace {
        &self.info
    }

    /// Mutable access to the information space (registration).
    pub fn info_mut(&mut self) -> &mut InfoSpace {
        &mut self.info
    }

    /// All servers.
    pub fn servers(&self) -> &[SourceServer] {
        &self.servers
    }

    /// Looks up a server.
    pub fn server(&self, id: SourceId) -> &SourceServer {
        &self.servers[id.0 as usize]
    }

    /// Mutable server lookup.
    pub fn server_mut(&mut self, id: SourceId) -> &mut SourceServer {
        &mut self.servers[id.0 as usize]
    }

    /// The source currently hosting `relation`, if any. Relation names are
    /// globally unique across the source space (as in the paper's testbed).
    pub fn locate(&self, relation: &str) -> Option<SourceId> {
        self.servers.iter().find(|s| s.catalog().contains(relation)).map(|s| s.id())
    }

    /// Declares a secondary hash index on `relation` at whichever source
    /// hosts it. Fails when no source hosts the relation.
    pub fn create_index(&mut self, relation: &str, attrs: &[&str]) -> Result<(), RelationalError> {
        let id = self
            .locate(relation)
            .ok_or_else(|| RelationalError::UnknownRelation { relation: relation.to_string() })?;
        self.server_mut(id).create_index(relation, attrs)
    }

    /// Commits an update at a source, returning the stamped wrapper message.
    /// Fails (changing nothing) if the update does not apply to the source's
    /// current schema.
    pub fn commit(
        &mut self,
        source: SourceId,
        update: SourceUpdate,
    ) -> Result<UpdateMessage, RelationalError> {
        let version = self.server_mut(source).commit(update.clone())?;
        let id = UpdateId(self.next_update);
        self.next_update += 1;
        Ok(UpdateMessage { id, source, source_version: version, update })
    }

    /// A provider over the union of all current source catalogs. Relation
    /// names are globally unique, so the union is unambiguous. Queries
    /// evaluated through this provider see each source's **current** state —
    /// the root of all maintenance anomalies.
    pub fn provider(&self) -> UnionProvider<'_> {
        UnionProvider { space: self }
    }

    /// Per-source versions, as a map — a "vector clock" describing the
    /// current global state (used by consistency checkers).
    pub fn versions(&self) -> HashMap<SourceId, u64> {
        self.servers.iter().map(|s| (s.id(), s.version())).collect()
    }
}

/// [`RelationProvider`] over the union of all source catalogs.
pub struct UnionProvider<'a> {
    space: &'a SourceSpace,
}

impl UnionProvider<'_> {
    /// `name`'s relation with its indexes, from the source hosting it: the
    /// one routing step every lookup below makes, one catalog lookup per
    /// source tried.
    fn route(&self, name: &str) -> Option<(&Relation, &[HashIndex])> {
        self.space.servers.iter().find_map(|s| s.catalog().lookup(name))
    }
}

impl RelationProvider for UnionProvider<'_> {
    fn table(&self, name: &str) -> Result<TableSlice<'_>, RelationalError> {
        match self.route(name) {
            Some((relation, _)) => Ok(relation.into()),
            None => Err(RelationalError::UnknownRelation { relation: name.to_string() }),
        }
    }

    fn index_on(&self, name: &str, attrs: &[&str]) -> Option<&HashIndex> {
        self.route(name)?.1.iter().find(|i| i.covers(attrs))
    }

    fn table_and_index<K: AttrName>(
        &self,
        name: &str,
        key: &[K],
    ) -> Result<(TableSlice<'_>, Option<&HashIndex>), RelationalError> {
        match self.route(name) {
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
    use dyno_relational::{
        AttrType, Catalog, DataUpdate, Delta, Relation, Schema, SchemaChange, Tuple, Value,
    };

    fn space() -> SourceSpace {
        let mut sp = SourceSpace::new();
        for (i, rel) in ["R", "S"].iter().enumerate() {
            let mut c = Catalog::new();
            c.add_relation(
                Relation::from_tuples(
                    Schema::of(rel, &[("a", AttrType::Int)]),
                    [Tuple::of([Value::from(i as i64)])],
                )
                .unwrap(),
            )
            .unwrap();
            sp.add_server(SourceServer::new(SourceId(i as u32), format!("srv{i}"), c));
        }
        sp
    }

    #[test]
    fn routing() {
        let sp = space();
        assert_eq!(sp.locate("R"), Some(SourceId(0)));
        assert_eq!(sp.locate("S"), Some(SourceId(1)));
        assert_eq!(sp.locate("T"), None);
    }

    #[test]
    fn commit_stamps_global_ids() {
        let mut sp = space();
        let schema = Schema::of("R", &[("a", AttrType::Int)]);
        let m1 = sp
            .commit(
                SourceId(0),
                SourceUpdate::Data(DataUpdate::new(
                    Delta::inserts(schema.clone(), [Tuple::of([7i64])]).unwrap(),
                )),
            )
            .unwrap();
        let m2 = sp
            .commit(
                SourceId(1),
                SourceUpdate::Schema(SchemaChange::RenameRelation {
                    from: "S".into(),
                    to: "S2".into(),
                }),
            )
            .unwrap();
        assert!(m1.id < m2.id);
        assert_eq!(m1.source_version, 1);
        assert_eq!(m2.source_version, 1);
        assert_eq!(sp.locate("S2"), Some(SourceId(1)));
    }

    #[test]
    fn union_provider_reflects_current_state() {
        let mut sp = space();
        sp.commit(
            SourceId(1),
            SourceUpdate::Schema(SchemaChange::DropRelation { relation: "S".into() }),
        )
        .unwrap();
        let p = sp.provider();
        assert!(p.table("R").is_ok());
        assert!(p.table("S").unwrap_err().is_schema_conflict());
    }

    #[test]
    fn failed_commit_does_not_consume_id() {
        let mut sp = space();
        let err = sp.commit(
            SourceId(0),
            SourceUpdate::Schema(SchemaChange::DropRelation { relation: "Ghost".into() }),
        );
        assert!(err.is_err());
        let ok = sp
            .commit(
                SourceId(0),
                SourceUpdate::Schema(SchemaChange::RenameRelation {
                    from: "R".into(),
                    to: "R2".into(),
                }),
            )
            .unwrap();
        assert_eq!(ok.id, UpdateId(0), "ids are dense over successful commits");
    }
}
