//! # dyno-obs — zero-dependency structured tracing and metrics
//!
//! The observability substrate for the Dyno reproduction: a self-contained
//! replacement for the `tracing` + `metrics` crates, built on nothing but
//! `std`, so the workspace stays buildable with no registry access.
//!
//! Three pieces:
//!
//! - [`Collector`] — the handle the whole stack carries around. Cheap to
//!   clone (one `Rc`), and its [`Default`]/[`Collector::disabled`] form is a
//!   **true no-op**: spans and events on a disabled collector neither
//!   allocate nor format anything, so instrumented hot paths (the Dyno
//!   detection loop, the simulation port) cost a branch when observability
//!   is off.
//! - [`metrics::Registry`] — monotonic [`metrics::Counter`]s,
//!   [`metrics::Gauge`]s, and log₂-bucketed [`metrics::Histogram`]s, with
//!   aligned-text and JSON snapshots. Handles are `Rc<Cell<_>>` behind the
//!   scenes: registering is a map lookup, updating is a `Cell` store.
//! - [`trace`] — the one capture store: spans (with parent ids and
//!   key=value [`Field`]s), point events (with levels) and provenance
//!   records are one [`Record`] type in one bounded [`trace::Ring`], behind one
//!   gate word ([`Capture`]). When the ring is full the oldest record, of
//!   whichever kind, is dropped and counted, never reallocated. Two JSONL
//!   formats render it by kind: [`Collector::trace_jsonl`] and
//!   [`Collector::lineage_jsonl`].
//!
//! Timestamps come from a pluggable [`Clock`]: the CLI uses [`WallClock`]
//! (wall micros since collector creation), the simulation stamps records in
//! **simulated microseconds** via [`VirtualClock`], which shares a cell with
//! `dyno-sim`'s virtual clock.
//!
//! Every render reads that one ring ([`Collector::records`]):
//!
//! - [`lineage`] — per-update causal history: the stage vocabulary, batch
//!   ids, and [`Collector::explain`] over the provenance records
//!   ([`Collector::prov`]), same no-op contract as spans.
//! - [`chrome`] — a Chrome `trace_event` exporter
//!   ([`chrome::export_chrome`]) rendering spans, events, and provenance as
//!   a Perfetto-loadable timeline with flow arrows following each causal id.
//! - [`forensics`] — replays the provenance records into per-phase latency
//!   breakdowns and per-anomaly-class histograms
//!   ([`forensics::analyze`]).
//!
//! The third capture kind is not a ring: [`profile`] is the per-operator
//! maintenance-cost profiler (DESIGN.md §18), `EXPLAIN ANALYZE`-style plan
//! trees recording rows in/out, weights cancelled, index probes, and
//! nanoseconds per Z-set operator, folded into an aggregate as samples
//! arrive ([`Profiler`] is the callers' one helper) and off by default
//! behind the same gate word.
//!
//! And the freshness layer (DESIGN.md §14):
//!
//! - [`timeseries`] — a [`Sampler`] snapshotting the registry on a window
//!   cadence into bounded ring-buffered series (counter deltas, gauge
//!   samples, per-window histogram quantiles);
//! - [`slo`] — per-view end-to-end staleness ([`StalenessTracker`]) under
//!   declarative targets with a multi-window burn-rate alert state machine
//!   (ok/warn/page).
//!
//! ```
//! use dyno_obs::{field, Capture, Collector, Level};
//!
//! let obs = Collector::wall().with_capture(Capture::TRACE, 1024);
//! let steps = obs.counter("dyno.steps");
//! {
//!     let _span = obs.span("dyno.step", &[field("queue_depth", 3u64)]);
//!     steps.inc();
//!     obs.event(Level::Info, "dyno.fast_path", &[]);
//! }
//! assert_eq!(steps.get(), 1);
//! assert_eq!(obs.records().len(), 3); // start, event, end
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod clock;
pub mod collector;
pub mod forensics;
pub mod json;
pub mod lineage;
pub mod metrics;
pub mod profile;
pub mod slo;
pub mod timeseries;
pub mod trace;

pub use chrome::export_chrome;
pub use clock::{Clock, VirtualClock, WallClock};
pub use collector::{Capture, Collector, Span};
pub use lineage::{stage, BATCH_BIT};
pub use metrics::{Counter, Gauge, HistWindow, Histogram, Registry};
pub use profile::{NodeKey, OpAgg, OpPhase, OpSample, PlanProfile, Profile, Profiler};
pub use slo::{SloEvaluator, SloPolicy, SloState, StalenessTracker};
pub use timeseries::{Sampler, SeriesKind};
pub use trace::{field, Field, FieldValue, Level, Record, RecordKind};
