//! # dyno-sim — the discrete-event experimental testbed
//!
//! Replaces the paper's four-PC/Oracle8i testbed with a deterministic
//! virtual-clock simulation (see DESIGN.md §3 for the substitution
//! rationale). One harness, one oracle:
//!
//! - [`experiment`] — **the** driver: an [`Experiment`] (sources, view set,
//!   schedule, strategy/policy/adaptation/cost, and optionally a fault
//!   profile, a kill plan, a telemetry [`Monitor`], a [`Peers`] topology) is
//!   executed by [`run`] into a [`Report`]. The paper's figures, the chaos,
//!   crash, multi-view and replica grids and the live monitor are all this
//!   one loop with different fields set;
//! - [`consistency`] — the Section 4.4 correctness criteria as code:
//!   [`audit`] (strong consistency per view at the vector it reflects),
//!   convergence, and the [`extent_crc`] bit-identity fingerprint;
//! - [`replica`] — the replicated topology: the [`Experiment::replicated`]
//!   preset and the peer-fabric hooks of the loop over [`dyno_fault::PeerNet`];
//! - [`port`] — the timed [`dyno_view::SourcePort`]: maintenance queries
//!   advance the clock, and scheduled autonomous commits land mid-flight,
//!   reproducing every concurrency anomaly;
//! - [`cost`] and [`metrics`] — the calibrated cost model (DU ≈ 0.25 s,
//!   SC ≈ 25 s, the paper's magnitudes) and the simulated-time series the
//!   paper's y-axes plot;
//! - [`testbed`] and [`workload`] — the Section 6.1 testbed (6 relations × 3
//!   servers, a one-to-one 6-way join view) with the view sets built over
//!   it, and schema-evolution-aware generators for the Section 6 workloads
//!   and the open-loop arrival process.

#![warn(missing_docs)]

pub mod consistency;
pub mod cost;
pub mod experiment;
pub mod metrics;
pub mod port;
pub mod replica;
pub mod testbed;
pub mod workload;

/// The in-repo seeded PRNG behind all generated data (hosted by `dyno-fault`).
pub use dyno_fault::rng;

pub use consistency::{audit, check_convergence, check_reflected, eval_view_at, extent_crc};
pub use cost::CostModel;
pub use experiment::{run, Experiment, Monitor, Report, Telemetry, ViewOutcome};
pub use metrics::Metrics;
pub use port::{ScheduledCommit, SimPort};
pub use replica::Peers;
pub use rng::Rng;
pub use testbed::{
    build_multiview, build_space, build_testbed, build_view, tenant_views, TestbedConfig,
};
pub use workload::{EventKind, OpenLoopConfig, WorkloadGen, Zipf};
