//! # dyno-view — the warehouse
//!
//! The view-manager space of the paper's framework (Figure 3): view
//! definitions, the materialized extent, the Update Message Queue, and the
//! three maintenance algorithms Dyno orchestrates:
//!
//! - **VM** ([`vm`]) — SWEEP-style incremental maintenance of data updates
//!   with local compensation for concurrent data updates (anomaly types 1–2);
//! - **VS** ([`vs`]) — view synchronization: rewriting the definition under
//!   schema changes, using the EVE-style information space for replacements;
//! - **VA** ([`batch`]) — view adaptation: recomputing or incrementally
//!   adapting (paper Equation 6) the extent, including atomic processing of
//!   Dyno's merged dependency-cycle batches (paper Section 5).
//!
//! [`warehouse::Warehouse`] ties these together behind `dyno-core`'s
//! scheduler, for one view or many; [`engine::SourcePort`] abstracts the distributed query engine
//! so the discrete-event simulation (`dyno-sim`) can meter time and inject
//! concurrency.

#![warn(missing_docs)]

pub mod batch;
pub mod engine;
pub mod fport;
pub mod ingress;
pub mod mview;
pub mod plan;
pub mod subplan;
pub mod testkit;
pub mod viewdef;
pub mod vm;
pub mod vs;
pub mod wal;
pub mod warehouse;

pub use batch::{
    adapt_batch, equation6_delta, homogenize_delta, AdaptationMode, Adapted, BatchFailure,
};
pub use engine::{
    eval_with_bound, schema_from_bag, AdaptRead, BoundTable, DeltaCols, HopRequest, InProcessPort,
    LocalProvider, MaintEvent, SourcePort, TracingPort,
};
pub use fport::FaultedPort;
pub use ingress::IngressGate;
pub use mview::MaterializedView;
pub use plan::{MaintPlan, MaintStep, PlanCache};
pub use subplan::SharedSubplans;
pub use viewdef::ViewDefinition;
pub use vm::{sweep_maintain, sweep_maintain_shared, MaintFailure, Pending, ViewDelta};
pub use vs::{synchronize, synchronize_all, VsError};
pub use wal::{
    AppliedChange, AppliedRecord, CrashPlan, CrashPoint, DurableLog, RecoverError, RecoverReport,
    ReplicaTailEvent,
};
pub use warehouse::{ReflectedVersions, ViewError, ViewStats, Warehouse};
