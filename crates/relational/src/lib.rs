//! # dyno-relational — in-memory relational substrate
//!
//! The relational model underneath the Dyno view-maintenance reproduction
//! (ICDE 2004): typed values, schemas, bag relations with signed deltas, an
//! SPJ (select-project-join) query engine, and DDL (schema changes) with
//! composition.
//!
//! Design notes:
//! - **Bag semantics everywhere.** Relations are multisets; deltas are signed
//!   multisets; the query engine evaluates over signed multiplicities so the
//!   classic incremental identity `(R+Δ) ⋈ S = R ⋈ S + Δ ⋈ S` holds exactly.
//! - **Broken queries are first-class.** Query validation against the current
//!   schema fails with a *schema conflict* error
//!   ([`RelationalError::is_schema_conflict`]) — the mechanical form of the
//!   paper's broken-query anomaly.
//! - **No interior mutability, no threads.** Sources and the view manager are
//!   driven by a deterministic discrete-event simulation in `dyno-sim`.

#![warn(missing_docs)]

pub mod catalog;
pub mod ddl;
pub mod error;
pub mod exec;
pub(crate) mod hash;
pub mod index;
pub mod parser;
pub mod query;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod update;
pub mod value;
pub mod wire;

pub use catalog::Catalog;
pub use ddl::{apply_to_relation, compose, SchemaChange};
pub use error::RelationalError;
pub use exec::{
    delta_hop, delta_join, delta_join_probe, delta_project, delta_select, distinct_delta, eval,
    thread_stats, validate, ExecStats, Overlay, QueryResult, RelationProvider, TableSlice,
};
pub use index::{AttrName, HashIndex};
pub use parser::{parse_create_view, parse_query, ParseError};
pub use query::{CmpOp, Predicate, ProjItem, SpjQuery, SpjQueryBuilder};
pub use relation::{Delta, Relation};
pub use schema::{AttrType, Attribute, ColRef, Schema};
pub use tuple::{Tuple, ZSet};
pub use update::{DataUpdate, SourceUpdate};
pub use value::{Value, F64};
