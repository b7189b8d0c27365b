//! Peer replication for warehouses (DESIGN.md §17): N replicas, each over
//! its own copy of the sources, exchange their client writes — one stamped
//! `(relation, key, row)` upsert per write — over a fault-injected peer
//! network, detect causally concurrent writes to one `(relation, key)` as
//! the cross-replica dependency class (`DepKind::Replica`, "rd"), and
//! resolve them deterministically by hybrid-logical-clock
//! last-writer-wins. A winner is committed to the receiving replica's
//! sources like any other source update, and each replica's warehouse
//! maintains its own views from them, so every replica converges to
//! bit-identical sources and extents once partitions heal.
//!
//! The public surface is the per-replica [`ReplicaEngine`]: publish
//! (log-then-send), receive/resolve, kill recovery, and the [`Outgoing`]
//! copies it hands to the network. The message and record formats stay
//! inside the crate.

mod engine;
mod wire;

pub use engine::{Outgoing, ReplicaEngine};
