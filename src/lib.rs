//! # dyno — Detection and Correction of Conflicting Source Updates for View Maintenance
//!
//! A from-scratch Rust reproduction of the ICDE 2004 paper by Chen, Chen,
//! Zhang and Rundensteiner: the **Dyno** dynamic scheduler that makes
//! materialized-view maintenance correct when autonomous data sources
//! concurrently commit both **data updates** and **schema changes**.
//!
//! The workspace is layered (see `DESIGN.md` for the full inventory):
//!
//! | crate | contents |
//! |---|---|
//! | [`relational`] | in-memory relational substrate: bag relations, signed deltas, SPJ query engine, DDL |
//! | [`source`] | autonomous source servers, wrappers, the EVE-style information space |
//! | [`core`] | Dyno itself: dependency graph, cycle merge, topological correction, pessimistic/optimistic scheduling — data-model-independent |
//! | [`view`] | the warehouse (view manager, one view or many): UMQ, SWEEP maintenance with compensation, view synchronization, view adaptation (paper Equation 6) |
//! | [`fault`] | deterministic fault injection: the transport seam between warehouse and sources, chaos profiles, retry policies, delivery recovery |
//! | [`durable`] | crash durability: CRC-framed write-ahead log, manual binary codec, in-memory and file storage backends |
//! | [`sim`] | the discrete-event testbed replacing the paper's Oracle cluster: virtual clock, cost model, workloads, consistency auditors, and the one `Experiment`/`run` harness (fault-free, chaos, crash, multi-view, monitored) |
//!
//! ## Quickstart
//!
//! ```
//! use dyno::prelude::*;
//! use dyno::view::testkit::{bookinfo_space, bookinfo_view, insert_item};
//!
//! // The paper's running example: the BookInfo view over three sources.
//! let space = bookinfo_space();
//! let info = space.info().clone();
//! let mut port = InProcessPort::new(space);
//! let mut wh = Warehouse::new(info, Strategy::Pessimistic);
//! wh.add_view(bookinfo_view());
//! wh.initialize(&mut port).unwrap();
//!
//! // A source autonomously commits a data update…
//! port.commit(
//!     SourceId(0),
//!     SourceUpdate::Data(insert_item(10, "Data Integration Guide", "Adams", 36)),
//! )
//! .unwrap();
//!
//! // …and the warehouse maintains the view incrementally, compensating for
//! // any concurrent updates and re-ordering around schema changes.
//! wh.run_to_quiescence(&mut port, 100).unwrap();
//! assert_eq!(wh.mv(0).len(), 2);
//! ```

pub use dyno_core as core;
pub use dyno_durable as durable;
pub use dyno_fault as fault;
pub use dyno_obs as obs;
pub use dyno_relational as relational;
pub use dyno_replica as replica;
pub use dyno_sim as sim;
pub use dyno_source as source;
pub use dyno_view as view;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use dyno_core::{Dyno, DynoStats, StepOutcome, Strategy, Umq, UpdateKind, UpdateMeta};
    pub use dyno_fault::{ChaosTransport, Direct, FaultProfile, RetryPolicy, Transport};
    pub use dyno_relational::{
        AttrType, Attribute, Catalog, CmpOp, ColRef, DataUpdate, Delta, Relation, RelationalError,
        Schema, SchemaChange, SourceUpdate, SpjQuery, Tuple, Value,
    };
    pub use dyno_sim::{
        run, CostModel, Experiment, Report, ScheduledCommit, SimPort, TestbedConfig, WorkloadGen,
    };
    pub use dyno_source::{InfoSpace, SourceId, SourceServer, SourceSpace, UpdateMessage};
    pub use dyno_view::{
        FaultedPort, InProcessPort, MaterializedView, SourcePort, ViewDefinition, ViewError,
        Warehouse,
    };
}
