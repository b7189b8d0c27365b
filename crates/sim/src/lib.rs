//! # dyno-sim — the discrete-event experimental testbed
//!
//! Replaces the paper's four-PC/Oracle8i testbed with a deterministic
//! virtual-clock simulation (see DESIGN.md §3 for the substitution
//! rationale). One harness, one oracle:
//!
//! - [`experiment`] — **the** single-warehouse driver: an [`Experiment`]
//!   (sources + view set + schedule + strategy/policy/adaptation/cost, and
//!   optionally a fault profile, a kill plan, a telemetry [`Monitor`]) is
//!   executed by [`run`] into a [`Report`]. The paper's figures, the chaos,
//!   crash and multi-view grids and the live monitor are all this one loop
//!   with different fields set;
//! - [`consistency`] — the Section 4.4 correctness criteria as code:
//!   [`audit`] (strong consistency per view at the vector it reflects),
//!   convergence, and the [`extent_crc`] bit-identity fingerprint — shared by
//!   [`run`] and [`run_replicated`];
//! - [`replica`] — the replicated topology: N peer warehouses over a
//!   partition-capable [`dyno_fault::PeerNet`], with its own round loop
//!   ([`run_replicated`]);
//! - [`port`] — the timed [`dyno_view::SourcePort`]: maintenance queries
//!   advance the clock, and scheduled autonomous commits land mid-flight,
//!   reproducing every concurrency anomaly;
//! - [`cost`] — the calibrated cost model (DU ≈ 0.25 s, SC ≈ 25 s, matching
//!   the paper's magnitudes);
//! - [`metrics`] — the simulated-time series the paper's y-axes plot;
//! - [`testbed`] — the Section 6.1 testbed (6 relations × 3 servers,
//!   one-to-one 6-way join view with 24 output columns) and the overlapping
//!   and tenant view sets built over it;
//! - [`workload`] — schema-evolution-aware generators for the Section 6
//!   workloads (DU floods, drop+rename SC trains) and the open-loop arrival
//!   process;
//! - [`rng`] — the in-repo seeded PRNG behind all generated data.

#![warn(missing_docs)]

pub mod consistency;
pub mod cost;
pub mod experiment;
pub mod metrics;
pub mod port;
pub mod replica;

/// The in-repo seeded PRNG (now hosted by `dyno-fault`, re-exported here so
/// existing `dyno_sim::rng::Rng` paths keep working).
pub use dyno_fault::rng;
pub mod testbed;
pub mod workload;

pub use consistency::{audit, check_convergence, check_reflected, eval_view_at, extent_crc};
pub use cost::CostModel;
pub use experiment::{run, Experiment, Monitor, Report, Telemetry, ViewOutcome};
pub use metrics::Metrics;
pub use port::{ScheduledCommit, SimPort};
pub use replica::{build_replica_views, run_replicated, ReplicaConfig, ReplicaReport};
pub use rng::Rng;
pub use testbed::{
    build_multiview, build_space, build_testbed, build_view, tenant_views, TestbedConfig,
};
pub use workload::{EventKind, OpenLoopConfig, WorkloadGen, Zipf};
