//! A multi-view warehouse: several materialized views over the same source
//! space, maintained through **one** Update Message Queue and one Dyno
//! schedule.
//!
//! The paper presents a single view for clarity, but its framework
//! (Figure 3) is a warehouse: the UMQ buffers every source update once, and
//! each update's maintenance must be correct for *every* view. The
//! scheduler-side generalizations are small and instructive:
//!
//! - a schema change is view-relevant (draws concurrent-dependency edges)
//!   iff it invalidates **any** view's definition — transitively, via a
//!   shadow-evolution walk over the queue;
//! - one queue entry is maintained against all views **atomically**: a
//!   broken query during any view's maintenance aborts the entry for all of
//!   them (their already-computed deltas are discarded — abort cost), so
//!   every view reflects the same per-source state vector at all times.
//!
//! A warehouse with one registered view *is* the paper's single-view
//! presentation: one slot, no sharing, no deferral.
//!
//! ## Layout
//!
//! [`Warehouse`] owns the scheduler, the shared queue, the admission gate,
//! and one private `Views` struct: the slots and everything a commit to
//! them touches. A commit has one form, the WAL's [`AppliedRecord`]: one
//! [`AppliedChange`] per slot. The commit protocol is four steps, each a
//! method on `Views` and each existing once — **stage** one view's change
//! for one batch, **commit** it to that slot (`w(MV)`), **record** the
//! commit in the WAL (`c(MV)`), and **fail**. Two callers loop over them:
//! `Maintenance` (the `Maintainer` Dyno drives) over every slot for one
//! shared-queue entry, and `Warehouse::drain_deferred` over one slot's queue
//! of batches it deferred while its source was down.
//! What differs between the two — whose vector advances, whose abort it is,
//! who owns the batch's provenance — lives in the callers; nothing inside a
//! step asks who called.
//!
//! One function, `Views::apply_change`, changes a slot from its
//! `AppliedChange` — extent, definition, deferred queue. Both callers'
//! commits and the replay of an `Applied` record go through it; what only a
//! live commit does (view stats, plan-cache invalidation, the port's write
//! charge, profiler nodes) stays in the commit step, and whose vector
//! advances and which staleness lanes refresh stays with the callers. The
//! record is built only when a WAL consumes it (it appends it by
//! reference), so a warehouse without one clones nothing for it.
//!
//! ## What a data update visits
//!
//! A data update costs the views that read its relation, not N. The
//! relation→slots index ([`ViewDag::dependents_of`], a cache of
//! `references_relation` re-registered wherever a slot's definition
//! changes) names them; classification and Phase 2 visit those plus any
//! slot that is deferring. A slot the update does not touch is not visited
//! at all, because its reflected vector is *implied*: a slot with an empty
//! deferred queue reflects what it held at its last synchronization
//! (`ViewSlot::since`) advanced by every commit since, which is the
//! warehouse vector's entry for every source a later commit touched. Only a
//! deferring slot keeps its own, frozen vector. So a skip advances nothing,
//! and strong consistency holds by construction. Dense vectors are
//! materialized where they are read: `view_reflected`, checkpoints, the
//! WAL's `Applied` record and staleness lanes.

use std::cell::OnceCell;
use std::collections::{HashMap, VecDeque};

use dyno_core::wire as core_wire;
use dyno_core::{
    CorrectionPolicy, Dyno, DynoStats, MaintainOutcome, Maintainer, StepOutcome, Strategy, Umq,
    UpdateKey, UpdateKind, UpdateMeta, ViewDag,
};
use dyno_durable::codec::{dec_seq, enc_seq, Dec, Enc, WireError};
use dyno_durable::storage::Storage;
use dyno_durable::wal::Wal;
use dyno_obs::{field, Capture, Collector, Counter, Gauge, Level, OpPhase, StalenessTracker};
use dyno_relational::wire as rel_wire;
use dyno_relational::{thread_stats, ExecStats, RelationalError, SourceUpdate, ZSet};
use dyno_source::{InfoSpace, SourceId, UpdateMessage};

use crate::batch::{adapt_batch, AdaptationMode, Adapted, BatchFailure};
use crate::engine::{MaintEvent, SourcePort};
use crate::ingress::IngressGate;
use crate::mview::MaterializedView;
use crate::plan::PlanCache;
use crate::subplan::SharedSubplans;
use crate::viewdef::ViewDefinition;
use crate::vm::{profiler, sweep_maintain_shared, Pending};
use crate::vs::VsError;
use crate::wal::{
    dec_batches, dec_versions, enc_batches, enc_versions, parse_view, AppliedChange, AppliedRecord,
    CrashPlan, DurableLog, Record, RecoverError, RecoverReport, ReplicaTailEvent,
};

/// Hard (non-retryable) view-management failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewError {
    /// The view has no legal rewrite under a schema change.
    Undefinable(VsError),
    /// An internal invariant was violated.
    Internal(RelationalError),
}

impl std::fmt::Display for ViewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViewError::Undefinable(e) => write!(f, "{e}"),
            ViewError::Internal(e) => write!(f, "internal error: {e}"),
        }
    }
}

impl std::error::Error for ViewError {}

/// Counters for one view's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Data updates committed to the view via SWEEP.
    pub du_committed: u64,
    /// Batches (schema-change or merged) committed via adaptation.
    pub batches_committed: u64,
    /// Of those, batches adapted incrementally (Equation 6) rather than by
    /// recompute.
    pub incremental_batches: u64,
    /// Updates committed inside those batches.
    pub batched_updates: u64,
    /// Maintenance attempts aborted by broken queries.
    pub aborts: u64,
}

/// The per-source versions a materialized view currently reflects.
pub type ReflectedVersions = HashMap<SourceId, u64>;

/// One view's state inside the warehouse. Views advance independently: each
/// slot carries its own reflected version vector and a queue of batches it
/// had to defer (its source was unavailable) while its peers moved on.
#[derive(Debug, Clone)]
struct ViewSlot {
    view: ViewDefinition,
    /// Bumped whenever `view` changes: the key its plan cache pins.
    generation: u64,
    mv: MaterializedView,
    stats: ViewStats,
    plans: PlanCache,
    /// Per-source versions *this* view reflects: exactly, while it defers;
    /// otherwise as of warehouse commit `since`, every later commit
    /// implied (see [`Views::implied`]).
    reflected: ReflectedVersions,
    /// The warehouse commit `reflected` was last synchronized at.
    since: u64,
    /// Batches committed warehouse-wide but not yet applied to this view,
    /// in arrival order (the per-view drain replays them FIFO).
    deferred: VecDeque<Vec<UpdateMeta<UpdateMessage>>>,
    /// SLA tier: lower tiers are refreshed/drained first.
    tier: u8,
    /// Staleness-tracker lane, when a tracker is attached.
    lane: Option<usize>,
}

impl ViewSlot {
    fn new(view: ViewDefinition, tier: u8) -> Self {
        let mv = MaterializedView::new(view.name.clone(), view.output_cols());
        ViewSlot {
            view,
            generation: 0,
            mv,
            stats: ViewStats::default(),
            plans: PlanCache::new(),
            reflected: HashMap::new(),
            since: 0,
            deferred: VecDeque::new(),
            tier,
            lane: None,
        }
    }
}

/// Pre-registered `exec.*` registry counters mirroring the delta executor's
/// thread-local [`ExecStats`]. The warehouse samples the thread-local once
/// per [`Warehouse::step`] and folds the delta in here, so `monitor` /
/// `stats` surface executor-level cost (scans, index probes, join steps,
/// cartesian fallbacks, cancelled weights) without the profiler being on.
#[derive(Debug, Clone, Default)]
struct ExecCounters {
    rows_scanned: Counter,
    index_probes: Counter,
    index_join_steps: Counter,
    hash_join_steps: Counter,
    cartesian_fallbacks: Counter,
    weights_cancelled: Counter,
}

impl ExecCounters {
    fn registered(obs: &Collector) -> Self {
        ExecCounters {
            rows_scanned: obs.counter("exec.rows_scanned"),
            index_probes: obs.counter("exec.index_probes"),
            index_join_steps: obs.counter("exec.index_join_steps"),
            hash_join_steps: obs.counter("exec.hash_join_steps"),
            cartesian_fallbacks: obs.counter("exec.cartesian_fallbacks"),
            weights_cancelled: obs.counter("exec.weights_cancelled"),
        }
    }

    fn add(&self, d: &ExecStats) {
        self.rows_scanned.add(d.rows_scanned);
        self.index_probes.add(d.index_probes);
        self.index_join_steps.add(d.index_join_steps);
        self.hash_join_steps.add(d.hash_join_steps);
        self.cartesian_fallbacks.add(d.cartesian_fallbacks);
        self.weights_cancelled.add(d.weights_cancelled);
    }
}

/// The construction-time rejection for the documented-unsupported
/// [`Warehouse::with_umq_bound`] + [`Warehouse::with_wal`] combination.
fn shedding_wal_conflict() -> ViewError {
    ViewError::Internal(RelationalError::InvalidQuery {
        reason: "a bounded UMQ (admission shedding) cannot be combined with a WAL: \
                 replay applies admitted deltas strictly, so recovery of a shedding \
                 warehouse would diverge from the live process"
            .into(),
    })
}

/// Registry handles for every series the warehouse pre-registers, bound in
/// one place so a fresh, a re-observed and a recovered warehouse expose the
/// same names on an idle system (a name that only appears once traffic
/// flows reads as a missing metric, not a zero).
#[derive(Debug, Clone, Default)]
struct Metrics {
    umq_depth: Gauge,
    umq_admitted: Counter,
    umq_shed: Counter,
    mv_clamped: Counter,
    divergent: Counter,
    shared_hits: Counter,
    shared_misses: Counter,
    drains: Counter,
    /// Per-step samples of the delta executor's thread-local stats.
    exec: ExecCounters,
    /// Per-entry counters, registered on first use (an idle warehouse
    /// exposes neither).
    attempts: OnceCell<Counter>,
    commits: OnceCell<Counter>,
}

impl Metrics {
    fn bind(obs: &Collector) -> Self {
        // Replica resolution lag feeds this histogram live: pre-registering
        // gives `monitor` a timeseries lane and `forensics --replica` live
        // quantiles even before any remote write lands.
        obs.histogram("replica.lag_us");
        Metrics {
            umq_depth: obs.gauge("umq.depth"),
            umq_admitted: obs.counter("umq.admitted"),
            umq_shed: obs.counter("umq.shed"),
            mv_clamped: obs.counter("view.clamped_rows"),
            divergent: obs.counter("safety.divergent_verdicts"),
            shared_hits: obs.counter("subplan.shared_hits"),
            shared_misses: obs.counter("subplan.shared_misses"),
            drains: obs.counter("view.deferred_drains"),
            exec: ExecCounters::registered(obs),
            attempts: OnceCell::new(),
            commits: OnceCell::new(),
        }
    }
}

fn keys_of(batch: &[UpdateMeta<UpdateMessage>]) -> Vec<u64> {
    batch.iter().map(|m| m.key.0).collect()
}

fn schema_changes_in(batch: &[UpdateMeta<UpdateMessage>]) -> usize {
    batch.iter().filter(|m| m.payload.is_schema_change()).count()
}

/// The batch's only message when it is one plain data update — Figure 6's
/// VM case; anything else is a Section 5 batch.
fn lone_du(batch: &[UpdateMeta<UpdateMessage>]) -> Option<&UpdateMessage> {
    match batch {
        [one] if !one.payload.is_schema_change() => Some(&one.payload),
        _ => None,
    }
}

fn advance(reflected: &mut ReflectedVersions, batch: &[UpdateMeta<UpdateMessage>]) {
    for meta in batch {
        let entry = reflected.entry(meta.payload.source).or_insert(0);
        *entry = (*entry).max(meta.payload.source_version);
    }
}

/// Which change a slot takes when it is not staged: it defers while its
/// queue holds batches, and otherwise skips.
fn unstaged(slot: &ViewSlot) -> AppliedChange {
    if slot.deferred.is_empty() {
        AppliedChange::Skipped
    } else {
        AppliedChange::Deferred
    }
}

/// The views and everything a commit to them touches; the four commit
/// steps ([`Views::stage`], [`Views::commit`], [`Views::record`],
/// [`Views::fail`]) are its methods.
#[derive(Debug, Clone)]
struct Views {
    slots: Vec<ViewSlot>,
    info: InfoSpace,
    /// Per-source versions the warehouse as a whole has maintained.
    reflected: ReflectedVersions,
    adaptation: AdaptationMode,
    last_error: Option<ViewError>,
    obs: Collector,
    metrics: Metrics,
    wal: Option<DurableLog>,
    /// Admission bound on queued (unmaintained) updates; `None` = unbounded.
    /// A bounded warehouse sheds, so it also applies deltas clamped at zero
    /// (the dropped magnitude counted in `view.clamped_rows`) instead of
    /// failing maintenance.
    umq_bound: Option<usize>,
    staleness: Option<StalenessTracker>,
    /// Relation → view dependency DAG: the commit/drain order, and the
    /// fan-out edges every data update is dispatched by.
    dag: ViewDag,
    /// Whether overlapping views share first-hop join subplans per batch.
    share_subplans: bool,
    /// Shared-queue entries committed so far: the clock `ViewSlot::since`
    /// and `touched` read.
    commits: u64,
    /// Source → the commit that last advanced it.
    touched: HashMap<SourceId, u64>,
    /// Slots whose deferred queue is non-empty.
    deferring: usize,
}

impl Views {
    /// Step 1 — **stage**: computes slot `i`'s change for `batch` without
    /// committing anything — SWEEP for a lone data update, batch adaptation
    /// otherwise (lent the slot's extent, which a pruned column is projected
    /// from). `pending` is the compensation set. Returns the slot's change
    /// and the messages that arrived while the queries ran.
    fn stage(
        &mut self,
        i: usize,
        batch: &[UpdateMeta<UpdateMessage>],
        pending: Pending<'_>,
        port: &mut dyn SourcePort,
        shared: Option<&mut SharedSubplans>,
    ) -> (Result<AppliedChange, BatchFailure>, Vec<UpdateMessage>) {
        let slot = &mut self.slots[i];
        if let Some(du) = lone_du(batch) {
            let (result, arrivals) = sweep_maintain_shared(
                (&slot.view, slot.generation),
                du,
                pending,
                port,
                &mut slot.plans,
                &self.obs,
                shared,
            );
            let change = result.map(|rows| AppliedChange::Delta { rows });
            (change.map_err(BatchFailure::from), arrivals)
        } else {
            let refs: Vec<&UpdateMessage> = batch.iter().map(|m| &m.payload).collect();
            let (result, arrivals) = adapt_batch(
                (&slot.view, &slot.mv),
                &refs,
                pending,
                &self.info,
                self.adaptation,
                port,
                &self.obs,
            );
            let change = result.map(|adapted| match adapted {
                Adapted::Replaced { view, cols, extent } => {
                    AppliedChange::Replace { view, cols, extent }
                }
                Adapted::Incremental { view, delta } => {
                    AppliedChange::Incremental { view, rows: delta.rows }
                }
            });
            (change, arrivals)
        }
    }

    /// Commit protocol, write 1 of 2: the batch's intent is durable before
    /// anything is applied. A crash from here until `Applied` lands leaves
    /// the batch where the checkpoint has it, to be redone whole.
    fn log_intent(&mut self, batch: &[UpdateMeta<UpdateMessage>], schema_changes: usize) {
        let Some(log) = self.wal.as_mut() else { return };
        let prof = profiler(&self.obs, "warehouse", "pipeline");
        let keys = keys_of(batch);
        let window = prof.start(|| batch.len());
        log.log_intent(&keys, schema_changes > 0);
        prof.finish(window, 1, OpPhase::Wal, "log_intent", "batch", || batch.len());
    }

    /// Step 2 — **commit**: Definition 1's `w(MV)` for slot `i`. Applies
    /// `change` through [`Views::apply_change`] (kept whole for the record
    /// when `keep`), then does what only a live commit does: view stats,
    /// plan-cache invalidation after a rewrite and the port's write charge.
    /// Whose vector advances past the batch is the caller's business.
    /// Returns the tuples written.
    fn commit(
        &mut self,
        i: usize,
        change: &mut AppliedChange,
        batch: &[UpdateMeta<UpdateMessage>],
        keep: bool,
        port: &mut dyn SourcePort,
    ) -> Result<u64, RelationalError> {
        let clamp = self.umq_bound.is_some();
        let Some(rows) = change.rows().map(ZSet::distinct_len) else {
            return self.apply_change(i, change, batch, keep, clamp);
        };
        let op = match change {
            AppliedChange::Delta { .. } => "apply_delta",
            AppliedChange::Incremental { .. } => "apply_incremental",
            _ => "replace",
        };
        let obs = self.obs.clone();
        let prof = profiler(&obs, "warehouse", "pipeline");
        let window = prof.start(|| rows);
        let applied = self.apply_change(i, change, batch, keep, clamp);
        let slot = &mut self.slots[i];
        prof.finish(window, 2, OpPhase::Apply, op, &slot.view.name, || rows);
        let written = applied?;
        if op == "apply_delta" {
            slot.stats.du_committed += 1;
        } else {
            slot.plans.invalidate(schema_changes_in(batch) as u64, &self.obs);
            slot.stats.batches_committed += 1;
            slot.stats.batched_updates += batch.len() as u64;
            slot.stats.incremental_batches += u64::from(op == "apply_incremental");
        }
        port.charge_mv_write(written);
        Ok(written)
    }

    /// Applies one slot's change — the one place a commit changes a slot,
    /// for a live commit and for the replay of its record alike: a delta
    /// merges into the extent (clamped at zero under admission shedding,
    /// the dropped magnitude counted in `view.clamped_rows`), an adaptation
    /// also installs its rewritten definition — bumping the slot's
    /// generation and re-registering it in the dispatch index when the
    /// definition differs — and a deferral queues a copy of `batch`. With
    /// `keep` the change stays whole for its record (a delta, a replaced
    /// extent and a rewritten definition are cloned into the slot);
    /// without, they move. Returns the tuples written.
    fn apply_change(
        &mut self,
        i: usize,
        change: &mut AppliedChange,
        batch: &[UpdateMeta<UpdateMessage>],
        keep: bool,
        clamp: bool,
    ) -> Result<u64, RelationalError> {
        let slot = &mut self.slots[i];
        let written = match change {
            AppliedChange::Delta { rows } | AppliedChange::Incremental { rows, .. } => {
                let written = rows.weight();
                if clamp {
                    self.metrics.mv_clamped.add(slot.mv.merge_clamped(rows));
                } else if keep {
                    slot.mv.merge(rows)?;
                } else {
                    slot.mv.merge_owned(std::mem::take(rows))?;
                }
                written
            }
            AppliedChange::Replace { cols, extent, .. } => {
                let written = extent.weight();
                if keep {
                    slot.mv.replace(cols.clone(), extent.clone())?;
                } else {
                    slot.mv.replace(std::mem::take(cols), std::mem::take(extent))?;
                }
                written
            }
            AppliedChange::Skipped => 0,
            AppliedChange::Deferred => {
                if slot.deferred.is_empty() {
                    self.deferring += 1;
                }
                slot.deferred.push_back(batch.to_vec());
                0
            }
        };
        if let AppliedChange::Incremental { view, .. } | AppliedChange::Replace { view, .. } =
            change
        {
            if slot.view != *view {
                slot.generation += 1;
                self.dag.add_view(i, &view.query.tables, slot.tier);
            }
            if keep {
                slot.view = view.clone();
            } else {
                std::mem::swap(&mut slot.view, view);
            }
        }
        Ok(written)
    }

    /// Slot `i`'s reflected versions: its own vector while it defers;
    /// otherwise that vector with every source a commit since `since`
    /// touched read off the warehouse vector.
    fn implied(&self, i: usize) -> ReflectedVersions {
        let slot = &self.slots[i];
        let mut reflected = slot.reflected.clone();
        if slot.deferred.is_empty() {
            for (source, &at) in &self.touched {
                if let (true, Some(&v)) = (at > slot.since, self.reflected.get(source)) {
                    reflected.insert(*source, v);
                }
            }
        }
        reflected
    }

    /// [`Views::implied`] in its canonical form, sorted by source.
    fn vector(&self, i: usize) -> Vec<(u32, u64)> {
        sorted(&self.implied(i))
    }

    /// Notes a refresh of slot `i`'s staleness lane at `reflected`.
    fn refresh_lane(&self, i: usize, reflected: &ReflectedVersions) {
        if let (Some(tracker), Some(lane)) = (&self.staleness, self.slots[i].lane) {
            tracker.note_refresh_for(lane, &sorted(reflected), self.obs.now_us());
        }
    }

    /// Re-registers every slot in the dispatch index and recounts the
    /// deferring slots: after a checkpoint decoded, a tail replayed or a
    /// view was dropped.
    fn reindex(&mut self) {
        self.dag = ViewDag::new();
        for (idx, s) in self.slots.iter().enumerate() {
            self.dag.add_view(idx, &s.view.query.tables, s.tier);
        }
        self.deferring = self.slots.iter().filter(|s| !s.deferred.is_empty()).count();
    }

    /// Step 3 — **record**: Definition 1's `c(MV)`. With a WAL the
    /// commit's `staged` changes, every other slot taking `peers`' change,
    /// become its [`AppliedRecord`]: commit protocol,
    /// write 2 of 2 — one atomic `Applied` record across every view, making
    /// the whole batch durable or (on a crash) none of it, the durable form
    /// of Equation 6's all-or-nothing batch; deferring views are part of the
    /// atom (replay moves their copy of the batch into their durable
    /// deferred queue). Either way the commit is counted and reported to
    /// the port.
    fn record(
        &mut self,
        batch: &[UpdateMeta<UpdateMessage>],
        staged: Vec<(usize, AppliedChange)>,
        peers: fn(&ViewSlot) -> AppliedChange,
        written: u64,
        port: &mut dyn SourcePort,
    ) {
        // The record's body is one change per slot: what was staged, and
        // `peers` for every other slot.
        let rec = self.wal.is_some().then(|| {
            let mut changes: Vec<AppliedChange> = self.slots.iter().map(peers).collect();
            for (i, change) in staged {
                changes[i] = change;
            }
            AppliedRecord {
                keys: keys_of(batch),
                changes,
                reflected: sorted(&self.reflected),
                view_reflected: (0..self.slots.len()).map(|i| self.vector(i)).collect(),
            }
        });
        if let (Some(rec), Some(log)) = (rec, self.wal.as_mut()) {
            let prof = profiler(&self.obs, "warehouse", "pipeline");
            let window = prof.start(|| batch.len());
            log.log_applied(&rec);
            prof.finish(window, 3, OpPhase::Wal, "log_applied", "batch", || written as usize);
        }
        self.metrics.commits.get_or_init(|| self.obs.counter("view.commits")).inc();
        port.on_maintenance_event(MaintEvent::Commit);
    }

    /// Step 4 — **fail**: counts and traces the failure, reports it to the
    /// port, keeps a hard error inspectable, and names the scheduler
    /// outcome. `attempted` are the slots whose staged work a broken query
    /// discards.
    fn fail(
        &mut self,
        failure: BatchFailure,
        attempted: std::ops::Range<usize>,
        port: &mut dyn SourcePort,
    ) -> MaintainOutcome {
        match failure {
            BatchFailure::Broken(_) => {
                for slot in &mut self.slots[attempted] {
                    slot.stats.aborts += 1;
                }
                self.obs.counter("view.aborts").inc();
                if self.obs.capturing(Capture::TRACE) {
                    self.obs.event(Level::Warn, "view.abort", &[]);
                }
                port.on_maintenance_event(MaintEvent::Abort);
                MaintainOutcome::BrokenQuery
            }
            BatchFailure::Unavailable(e) => {
                self.obs.counter("view.parked").inc();
                if self.obs.capturing(Capture::TRACE) {
                    self.obs.event(Level::Warn, "view.park", &[field("error", e.to_string())]);
                }
                port.on_maintenance_event(MaintEvent::Park);
                MaintainOutcome::Parked
            }
            BatchFailure::Undefinable(e) => {
                self.last_error = Some(ViewError::Undefinable(e));
                port.on_maintenance_event(MaintEvent::Abort);
                MaintainOutcome::Failed
            }
            BatchFailure::Internal(e) => {
                self.last_error = Some(ViewError::Internal(e));
                port.on_maintenance_event(MaintEvent::Abort);
                MaintainOutcome::Failed
            }
        }
    }

    /// The error behind a `Failed` outcome — kept in `last_error` so it
    /// stays inspectable after being returned (the CLI `stats` view reads it).
    fn failure(&self) -> ViewError {
        self.last_error.clone().unwrap_or(ViewError::Internal(RelationalError::InvalidQuery {
            reason: "warehouse maintenance failed without an error".into(),
        }))
    }
}

/// A set of materialized views maintained together.
#[derive(Debug, Clone)]
pub struct Warehouse {
    dyno: Dyno,
    umq: Umq<UpdateMessage>,
    ingress: IngressGate,
    views: Views,
    /// Engine-owned replication snapshot, carried in every checkpoint.
    replica_ext: Vec<u8>,
    /// Post-checkpoint replication-engine records restored by
    /// [`Warehouse::recover`].
    replica_tail: Vec<ReplicaTailEvent>,
}

impl Warehouse {
    /// An empty warehouse with the given detection strategy.
    pub fn new(info: InfoSpace, strategy: Strategy) -> Self {
        Warehouse {
            dyno: Dyno::new(strategy),
            umq: Umq::new(),
            ingress: IngressGate::new(),
            views: Views {
                slots: Vec::new(),
                info,
                reflected: HashMap::new(),
                adaptation: AdaptationMode::default(),
                last_error: None,
                obs: Collector::disabled(),
                metrics: Metrics::default(),
                wal: None,
                umq_bound: None,
                staleness: None,
                dag: ViewDag::new(),
                share_subplans: true,
                commits: 0,
                touched: HashMap::new(),
                deferring: 0,
            },
            replica_ext: Vec::new(),
            replica_tail: Vec::new(),
        }
    }

    /// Enables/disables cross-view sharing of first-hop join subplans
    /// (default on; only batches that two or more views take ever share).
    /// Shared and unshared execution produce bit-identical view deltas; the
    /// toggle exists for benchmarking and bisection.
    pub fn with_subplan_sharing(mut self, enabled: bool) -> Self {
        self.views.share_subplans = enabled;
        self
    }

    /// Overrides the correction policy. Mutates the scheduler in place, so
    /// builder-call order does not matter and accumulated stats / the bound
    /// collector survive.
    pub fn with_correction(mut self, policy: CorrectionPolicy) -> Self {
        self.dyno.set_policy(policy);
        self
    }

    /// Attaches an observability collector: the scheduler and every
    /// maintenance path report spans, events, and `view.*`/`vm.*`/`va.*`
    /// metrics through it. The default is a disabled collector, which costs
    /// nothing on the hot paths.
    pub fn with_obs(mut self, obs: Collector) -> Self {
        self.dyno = self.dyno.clone().with_obs(obs.clone());
        self.ingress.bind_obs(&obs);
        self.views.metrics = Metrics::bind(&obs);
        self.views.obs = obs;
        self
    }

    /// Bounds the UMQ: once `capacity` updates are queued, further **data**
    /// updates are shed at admission (counted in `umq.shed`, recorded at
    /// lineage stage `shed`, reported to the staleness tracker). Schema
    /// changes are always admitted — shedding one would leave every view
    /// definition permanently behind the source schema.
    ///
    /// Shedding makes maintenance knowingly lossy: a later delete of a
    /// shed insert misses the extent, so bounded warehouses apply deltas
    /// clamped at zero and count the dropped magnitude in
    /// `view.clamped_rows` instead of failing. The combination with
    /// [`Warehouse::with_wal`] is rejected at construction: the WAL logs
    /// raw admitted deltas and its replay applies them strictly, so
    /// recovery of a shedding warehouse would diverge from the live
    /// process.
    pub fn with_umq_bound(mut self, capacity: usize) -> Result<Self, ViewError> {
        if self.views.wal.is_some() {
            return Err(shedding_wal_conflict());
        }
        self.views.umq_bound = Some(capacity);
        Ok(self)
    }

    /// Attaches a staleness tracker: [`Warehouse::initialize`] registers
    /// one lane per view (with the sources its definition reads), committed
    /// maintenance notes refreshes, and admission-control sheds are
    /// reported so they stop aging the views.
    pub fn with_staleness(mut self, tracker: StalenessTracker) -> Self {
        self.views.staleness = Some(tracker);
        self
    }

    /// Enables/disables the UMQ admission gate's dedupe+resequencing
    /// (default on). Disabling exists solely so the chaos suite can prove
    /// it detects the resulting double-applies.
    pub fn with_ingest_dedupe(mut self, enabled: bool) -> Self {
        self.ingress.set_dedupe(enabled);
        self
    }

    /// The warehouse's observability collector.
    pub fn obs(&self) -> &Collector {
        &self.views.obs
    }

    /// Selects the view-adaptation mode.
    pub fn with_adaptation(mut self, mode: AdaptationMode) -> Self {
        self.views.adaptation = mode;
        self
    }

    /// Attaches a write-ahead log and writes the first checkpoint. Call
    /// **after** [`Warehouse::initialize`] so the baseline snapshot covers
    /// the populated extents. Rejected when an admission bound is set —
    /// see [`Warehouse::with_umq_bound`].
    pub fn with_wal(mut self, mut log: DurableLog) -> Result<Self, ViewError> {
        if self.views.umq_bound.is_some() {
            return Err(shedding_wal_conflict());
        }
        log.bind_obs(&self.views.obs);
        self.views.wal = Some(log);
        self.checkpoint_now();
        Ok(self)
    }

    /// Forces a checkpoint now (no-op without a WAL or after a power cut).
    /// The image is encoded straight from the live slots, queue and
    /// deferred batches into the log's frame buffer.
    pub fn checkpoint_now(&mut self) {
        let Some(mut log) = self.views.wal.take() else { return };
        log.checkpoint(self);
        self.views.wal = Some(log);
    }

    /// Pins the attached log to checkpointing every `n` appended records
    /// instead of by size (see [`DurableLog::with_checkpoint_every`]). The
    /// policy is configuration, not logged state: a warehouse built by
    /// [`Warehouse::recover`] starts at the default, and a caller that ran
    /// its previous life with an explicit count re-applies it here. No-op
    /// without a WAL.
    pub fn set_checkpoint_every(&mut self, n: u64) {
        if let Some(log) = self.views.wal.as_mut() {
            log.set_checkpoint_every(n);
        }
    }

    /// The attached log, for reading its size accounting.
    pub fn wal(&self) -> Option<&DurableLog> {
        self.views.wal.as_ref()
    }

    /// Arms a deterministic power cut on the attached WAL (chaos testing).
    pub fn arm_crash(&mut self, plan: CrashPlan) {
        if let Some(log) = self.views.wal.as_mut() {
            log.arm(plan);
        }
    }

    /// True once the attached WAL's simulated power has been cut.
    pub fn wal_power_cut(&self) -> bool {
        self.views.wal.as_ref().is_some_and(DurableLog::power_cut)
    }

    /// The ingress gate's admitted high-water marks (resubscription baseline).
    pub fn ingress_marks(&self) -> Vec<(u32, u64)> {
        self.ingress.marks()
    }

    /// Rebuilds a warehouse from a WAL: the checkpoint decodes into a
    /// warehouse and the tail replays into it through its own queue, gate
    /// and extent code — silently, with no provenance, trace event or queue
    /// counter. A batch whose `Intent` has no `Applied` stays queued for the
    /// scheduler. A record that fails to decode or to apply ends replay like
    /// a torn tail. A fresh closing checkpoint truncates the torn bytes and
    /// makes recovery idempotent. Plan caches restart cold, stats at zero.
    ///
    /// `info` is the information space (replacement metadata is config, not
    /// warehouse state); `obs` receives `recover.*` counters, the reopened
    /// log's `wal.*` counters, and every series a fresh warehouse
    /// pre-registers.
    pub fn recover(
        storage: Box<dyn Storage>,
        info: InfoSpace,
        obs: Collector,
    ) -> Result<(Self, RecoverReport), RecoverError> {
        let (wal, replay) = Wal::open(storage)?;
        let _span = obs.span(
            "recover.replay",
            &[field("records", replay.payloads().len()), field("torn_bytes", replay.torn_bytes)],
        );
        let mut report = RecoverReport {
            torn_records: replay.torn_records,
            torn_bytes: replay.torn_bytes,
            ..RecoverReport::default()
        };
        let (mut restored, mut failure) = (None::<Warehouse>, None);
        for payload in replay.payloads() {
            let replayed = Record::decode(payload).and_then(|record| match record {
                Record::Checkpoint(mut d) => {
                    restored = Some(Warehouse::decode_checkpoint(&mut d, &info, &obs)?);
                    report.reparked_intents = 0;
                    Ok(())
                }
                record => restored
                    .as_mut()
                    .ok_or_else(|| invalid("record before checkpoint"))?
                    .replay(record, &mut report.reparked_intents),
            });
            if let Err(e) = replayed {
                report.torn_records += 1;
                failure = Some(e);
                break;
            }
            report.replayed_records += 1;
        }
        let Some(mut wh) = restored else {
            return Err(failure
                .map_or(RecoverError::NoCheckpoint, |e| RecoverError::Corrupt(e.to_string())));
        };
        wh.views.reindex();
        wh.views.metrics.umq_depth.set(wh.umq.update_count() as i64);
        obs.counter("recover.replayed").add(report.replayed_records);
        obs.counter("recover.torn_records").add(report.torn_records);
        obs.counter("recover.reparked_intents").add(report.reparked_intents);
        let mut log = DurableLog::over(wal);
        log.bind_obs(&obs);
        wh.views.wal = Some(log);
        // The closing checkpoint truncates the torn tail: a second recovery
        // from the same storage replays exactly this one record.
        wh.checkpoint_now();
        Ok((wh, report))
    }

    /// Stores the engine's encoded snapshot, carried opaquely in every later
    /// checkpoint.
    pub fn set_replica_ext(&mut self, ext: Vec<u8>) {
        self.replica_ext = ext;
    }

    /// The engine snapshot restored by [`Warehouse::recover`] (empty for a
    /// fresh or non-replicated warehouse).
    pub fn replica_ext(&self) -> &[u8] {
        &self.replica_ext
    }

    /// Drains the replication engine's records [`Warehouse::recover`]
    /// replayed from the WAL tail, in log order. Recovery's closing
    /// checkpoint truncated them, so the engine folds them exactly once and
    /// re-checkpoints.
    pub fn take_replica_tail(&mut self) -> Vec<ReplicaTailEvent> {
        std::mem::take(&mut self.replica_tail)
    }

    /// Writes the engine's durable `Published` record for a client write —
    /// call **before** handing its messages to the network.
    pub fn log_replica_published(&mut self, bytes: &[u8]) {
        if let Some(log) = self.views.wal.as_mut() {
            log.log_replica_published(bytes);
        }
    }

    /// Writes the engine's durable `Remote` record for one resolved peer
    /// message, applied or superseded.
    pub fn log_replica_remote(&mut self, bytes: &[u8]) {
        if let Some(log) = self.views.wal.as_mut() {
            log.log_replica_remote(bytes);
        }
    }

    /// Checkpoints when the log's policy says so (the replication engine
    /// calls this after each of its records).
    pub fn maybe_checkpoint(&mut self) {
        if self.views.wal.as_ref().is_some_and(DurableLog::should_checkpoint) {
            self.checkpoint_now();
        }
    }

    /// Registers a view at tier 0. Call before [`Warehouse::initialize`].
    pub fn add_view(&mut self, view: ViewDefinition) {
        self.add_view_tiered(view, 0);
    }

    /// Registers a view at an SLA tier (lower = refreshed earlier when
    /// several views need the same batch, and drained first after a
    /// deferral). Call before [`Warehouse::initialize`].
    pub fn add_view_tiered(&mut self, view: ViewDefinition, tier: u8) {
        let idx = self.views.slots.len();
        self.views.dag.add_view(idx, &view.query.tables, tier);
        self.views.slots.push(ViewSlot::new(view, tier));
    }

    /// Populates every view's extent from the sources' current states and
    /// records the reflected versions — global and per view — plus (when
    /// attached) the staleness lanes.
    pub fn initialize(&mut self, port: &mut dyn SourcePort) -> Result<(), ViewError> {
        let views = &mut self.views;
        for slot in &mut views.slots {
            let result = port.execute(&slot.view.query, &[]).map_err(ViewError::Internal)?;
            slot.mv.replace(result.cols, result.rows).map_err(ViewError::Internal)?;
            let mut sources: Vec<u32> = Vec::new();
            for table in &slot.view.query.tables {
                if let Some(sid) = port.locate(table) {
                    let v = port.source_version(sid);
                    views.reflected.insert(sid, v);
                    slot.reflected.insert(sid, v);
                    if !sources.contains(&sid.0) {
                        sources.push(sid.0);
                    }
                }
            }
            sources.sort_unstable();
            if let Some(tracker) = &views.staleness {
                slot.lane = Some(tracker.register_view(&slot.view.name, &sources));
            }
            slot.since = views.commits;
        }
        // Messages for updates already included in the initial evaluation
        // must not be maintained again.
        port.drain_arrivals();
        Ok(())
    }

    /// Enqueues wrapper messages, classifying each schema change against
    /// *all* views.
    pub fn ingest<I: IntoIterator<Item = UpdateMessage>>(&mut self, messages: I) {
        let views = &mut self.views;
        for msg in messages {
            // The admission gate dedupes by (source, version) — including
            // messages committed before initialization, via the reflected
            // floor — and resequences early arrivals so enqueue order always
            // equals version order per source.
            let floor = views.reflected.get(&msg.source).copied().unwrap_or(0);
            for msg in self.ingress.admit(msg, floor) {
                // Admission control: at the bound, data updates are shed
                // (freshness is sacrificed, visibly); schema changes always
                // get through (correctness cannot be shed — a skipped SC
                // would wedge every view definition behind its source).
                let depth = self.umq.update_count();
                if !msg.is_schema_change() && views.umq_bound.is_some_and(|cap| depth >= cap) {
                    views.metrics.umq_shed.inc();
                    views.obs.prov(
                        msg.id.0,
                        dyno_obs::stage::SHED,
                        &[
                            field("source", msg.source.0),
                            field("version", msg.source_version),
                            field("depth", depth),
                        ],
                    );
                    if views.obs.capturing(Capture::TRACE) {
                        views.obs.event(
                            Level::Warn,
                            "umq.shed",
                            &[field("source", msg.source.0), field("depth", depth)],
                        );
                    }
                    if let Some(tracker) = &views.staleness {
                        tracker.note_shed(msg.source.0, msg.source_version);
                    }
                    continue;
                }
                views.metrics.umq_admitted.inc();
                let kind = match &msg.update {
                    SourceUpdate::Data(_) => UpdateKind::Data,
                    SourceUpdate::Schema(sc) => {
                        // Per-view safety verdicts: the SC is scheduled
                        // first if it invalidates *any* view; a split
                        // verdict (safe for A, unsafe for B) is the
                        // cross-view safety divergence the monitor tracks.
                        let verdicts: Vec<bool> =
                            views.slots.iter().map(|s| s.view.is_invalidated_by(sc)).collect();
                        let any = verdicts.iter().any(|&b| b);
                        if any && !verdicts.iter().all(|&b| b) {
                            views.metrics.divergent.inc();
                            if views.obs.capturing(Capture::TRACE) {
                                views.obs.event(
                                    Level::Info,
                                    "safety.divergent_verdict",
                                    &[field("update", msg.id.0)],
                                );
                            }
                        }
                        UpdateKind::Schema { invalidates_view: any }
                    }
                };
                views.obs.prov(
                    msg.id.0,
                    dyno_obs::stage::ADMIT,
                    &[
                        field("source", msg.source.0),
                        field("version", msg.source_version),
                        field("kind", if msg.is_schema_change() { "SC" } else { "DU" }),
                    ],
                );
                let meta = UpdateMeta::new(msg.id.0, msg.source.0, kind, msg);
                if let Some(log) = views.wal.as_mut() {
                    log.log_admitted(&meta);
                }
                self.umq.enqueue(meta);
            }
        }
        views.metrics.umq_depth.set(self.umq.update_count() as i64);
    }

    /// Drains arrivals, replays any view's deferred batches that have
    /// become maintainable (per-view catch-up, in tier order), then runs
    /// one scheduling step.
    ///
    /// The deferred drain runs *before* the scheduler because Dyno reports
    /// `Idle` on an empty queue without consulting the maintainer — a
    /// warehouse whose only remaining work is deferred would otherwise
    /// never catch up. A step whose scheduler was idle but whose drain
    /// committed reports `Committed`.
    pub fn step(&mut self, port: &mut dyn SourcePort) -> Result<StepOutcome, ViewError> {
        let exec_pre = thread_stats();
        let arrivals = port.drain_arrivals();
        self.ingest(arrivals);
        let drained_commits = self.drain_deferred(port)?;
        let mut run = Maintenance { views: &mut self.views, port, arrivals: Vec::new() };
        let mut outcome = self.dyno.step(&mut self.umq, &mut run);
        let arrivals = run.arrivals;
        self.views.metrics.exec.add(&thread_stats().since(exec_pre));
        self.ingest(arrivals);
        if outcome == StepOutcome::Idle && drained_commits > 0 {
            outcome = StepOutcome::Committed;
        }
        if outcome == StepOutcome::Failed {
            return Err(self.views.failure());
        }
        if outcome == StepOutcome::Committed {
            // A completed maintenance supersedes any earlier failure: the
            // error was acted on (or healed) — holding it would make every
            // later health check report a stale fault.
            self.views.last_error = None;
        }
        self.maybe_checkpoint();
        Ok(outcome)
    }

    /// The most recent hard maintenance failure, if any. Cleared when a
    /// later step commits successfully — the warehouse is healthy again and
    /// health checks must not keep reporting the resolved fault.
    pub fn last_error(&self) -> Option<&ViewError> {
        self.views.last_error.as_ref()
    }

    /// Steps until quiescent or `max_steps` exhausted.
    pub fn run_to_quiescence(
        &mut self,
        port: &mut dyn SourcePort,
        max_steps: u64,
    ) -> Result<u64, ViewError> {
        let mut steps = 0;
        loop {
            match self.step(port)? {
                StepOutcome::Idle => return Ok(steps),
                _ => {
                    steps += 1;
                    if steps >= max_steps {
                        return Ok(steps);
                    }
                }
            }
        }
    }

    /// Number of registered views.
    pub fn view_count(&self) -> usize {
        self.views.slots.len()
    }

    /// Updates admitted to the UMQ so far (mirrors the `umq.admitted`
    /// counter).
    pub fn admitted_count(&self) -> u64 {
        self.views.metrics.umq_admitted.get()
    }

    /// Updates shed at the admission bound so far (mirrors `umq.shed`).
    pub fn shed_count(&self) -> u64 {
        self.views.metrics.umq_shed.get()
    }

    /// The admission bound, if one was set (see [`Warehouse::with_umq_bound`]).
    pub fn umq_bound(&self) -> Option<usize> {
        self.views.umq_bound
    }

    /// The `i`-th view's current definition.
    pub fn view(&self, i: usize) -> &ViewDefinition {
        &self.views.slots[i].view
    }

    /// The `i`-th view's extent.
    pub fn mv(&self, i: usize) -> &MaterializedView {
        &self.views.slots[i].mv
    }

    /// The `i`-th view's maintenance counters.
    pub fn stats(&self, i: usize) -> ViewStats {
        self.views.slots[i].stats
    }

    /// Scheduler counters.
    pub fn dyno_stats(&self) -> DynoStats {
        self.dyno.stats()
    }

    /// Per-source versions the warehouse as a whole has maintained (the
    /// admission floor). A deferring view's own vector may trail this —
    /// see [`Warehouse::view_reflected`].
    pub fn reflected(&self) -> &ReflectedVersions {
        &self.views.reflected
    }

    /// The `i`-th view's own reflected version vector, sorted by source.
    pub fn view_reflected(&self, i: usize) -> Vec<(u32, u64)> {
        self.views.vector(i)
    }

    /// Batches currently deferred by the `i`-th view.
    pub fn deferred_len(&self, i: usize) -> usize {
        self.views.slots[i].deferred.len()
    }

    /// Batches currently deferred across all views.
    pub fn deferred_total(&self) -> usize {
        self.views.slots.iter().map(|s| s.deferred.len()).sum()
    }

    /// The relation→view dependency DAG.
    pub fn dag(&self) -> &ViewDag {
        &self.views.dag
    }

    /// Times per-view safety verdicts diverged — an SC safe for one view
    /// but unsafe for another, or a batch some views committed while others
    /// deferred (mirrors `safety.divergent_verdicts`).
    pub fn divergent_verdicts(&self) -> u64 {
        self.views.metrics.divergent.get()
    }

    /// First-hop subplans served from the cross-view cache (mirrors
    /// `subplan.shared_hits`).
    pub fn subplan_hits(&self) -> u64 {
        self.views.metrics.shared_hits.get()
    }

    /// First-hop subplans computed (mirrors `subplan.shared_misses`).
    pub fn subplan_misses(&self) -> u64 {
        self.views.metrics.shared_misses.get()
    }

    /// Deferred batches replayed to their view by the drain (mirrors
    /// `view.deferred_drains`).
    pub fn drained_commits(&self) -> u64 {
        self.views.metrics.drains.get()
    }

    /// Unregisters the `i`-th view: its slot (extent, deferred queue) is
    /// dropped, its staleness lane retired, the DAG rebuilt over the
    /// remaining views, and — when a WAL is attached — a fresh checkpoint
    /// written so subsequent `Applied` records match the new view count.
    pub fn drop_view(&mut self, i: usize) {
        let views = &mut self.views;
        let slot = views.slots.remove(i);
        if let (Some(tracker), Some(lane)) = (&views.staleness, slot.lane) {
            tracker.drop_view(lane);
        }
        views.reindex();
        self.checkpoint_now();
    }

    /// Replays deferred batches, per view in the DAG's refresh order, until
    /// each view's queue is empty or blocked again. Returns how many
    /// batches committed.
    ///
    /// A deferred batch is maintained against *one* view with the rest of
    /// that view's queue plus the shared UMQ as its SWEEP compensation set.
    /// Only this slot's vector advances (the warehouse vector and the
    /// batch's terminal provenance were recorded when it first committed),
    /// its peers are logged `Skipped`, and every drained commit may
    /// checkpoint. A broken query means the correcting SC is further down
    /// the view's own queue: the drain merges batches forward up to and
    /// including the next SC-bearing batch and retries as one atomic
    /// adaptation — the per-view form of Dyno's cycle merge. If no SC is
    /// queued yet, the batch stays deferred (the SC will arrive and defer
    /// behind it).
    fn drain_deferred(&mut self, port: &mut dyn SourcePort) -> Result<u64, ViewError> {
        let mut commits = 0u64;
        if self.views.deferring == 0 {
            return Ok(commits);
        }
        for k in 0..self.views.slots.len() {
            let idx = self.views.dag.refresh_order()[k];
            while !self.views.slots[idx].deferred.is_empty() {
                // The queue leaves its slot while the head is staged: its
                // tail is read as the compensation set while the slot's
                // plan cache is written.
                let mut queue = std::mem::take(&mut self.views.slots[idx].deferred);
                let (head, tail) = queue.make_contiguous().split_first().expect("non-empty");
                let schema_changes = schema_changes_in(head);
                port.on_maintenance_event(MaintEvent::Begin {
                    updates: head.len(),
                    schema_changes,
                });
                let pending = Pending::queued(tail, self.umq.contiguous());
                let (staged, arrivals) = self.views.stage(idx, head, pending, port, None);
                self.views.slots[idx].deferred = queue;
                self.ingest(arrivals);
                let failure = match staged {
                    Ok(mut change) => {
                        let views = &mut self.views;
                        let batch = views.slots[idx].deferred.pop_front().expect("staged head");
                        views.log_intent(&batch, schema_changes);
                        let keep = views.wal.is_some();
                        match views.commit(idx, &mut change, &batch, keep, port) {
                            Err(e) => {
                                views.slots[idx].deferred.push_front(batch);
                                BatchFailure::Internal(e)
                            }
                            Ok(written) => {
                                // Only the drained slot's vector advances;
                                // an emptied queue un-freezes it as of now.
                                let slot = &mut views.slots[idx];
                                advance(&mut slot.reflected, &batch);
                                slot.since = views.commits;
                                if slot.deferred.is_empty() {
                                    views.deferring -= 1;
                                }
                                views.refresh_lane(idx, &views.slots[idx].reflected);
                                // The record holds the drained slot's change
                                // and `Skipped` for every peer.
                                let skip = |_: &ViewSlot| AppliedChange::Skipped;
                                views.record(&batch, vec![(idx, change)], skip, written, port);
                                views.metrics.drains.inc();
                                self.maybe_checkpoint();
                                commits += 1;
                                continue;
                            }
                        }
                    }
                    Err(failure) => failure,
                };
                match self.views.fail(failure, idx..idx + 1, port) {
                    MaintainOutcome::Parked => break,
                    MaintainOutcome::BrokenQuery => {
                        let q = &mut self.views.slots[idx].deferred;
                        let next_sc = q
                            .iter()
                            .skip(1)
                            .position(|b| b.iter().any(|m| m.payload.is_schema_change()));
                        let Some(ahead) = next_sc else { break };
                        let mut merged = q.pop_front().expect("front exists");
                        for _ in 0..=ahead {
                            merged.extend(q.pop_front().expect("position was in range"));
                        }
                        q.push_front(merged);
                        // Retry the merged batch immediately.
                    }
                    _ => return Err(self.views.failure()),
                }
            }
        }
        Ok(commits)
    }
}

/// The checkpoint image and the replay of the log's tail: the warehouse
/// reads and writes itself, so durability has no second model of the state.
impl Warehouse {
    /// Encodes the checkpoint image straight from the live slots, queue
    /// nodes and deferred batches: the only copy of an extent a checkpoint
    /// makes is the one that lands on storage.
    pub(crate) fn encode_checkpoint(&self, e: &mut Enc) {
        core_wire::enc_strategy(e, self.dyno.strategy());
        core_wire::enc_policy(e, self.dyno.policy());
        e.u8(match self.views.adaptation {
            AdaptationMode::Auto => 0,
            AdaptationMode::RecomputeOnly => 1,
        });
        e.bool(self.ingress.dedupe_enabled());
        let views = &self.views;
        let slots: Vec<(usize, &ViewSlot)> = views.slots.iter().enumerate().collect();
        enc_seq(e, &slots, |e, &(i, s)| {
            e.str(&s.view.to_string());
            enc_seq(e, s.mv.cols(), |e, c| e.str(c));
            rel_wire::enc_bag(e, s.mv.extent());
            enc_versions(e, &views.vector(i));
            enc_batches(e, &s.deferred.iter().map(Vec::as_slice).collect::<Vec<_>>());
            e.u8(s.tier);
        });
        enc_versions(e, &sorted(&self.views.reflected));
        enc_versions(e, &self.ingress.marks());
        enc_batches(e, &self.umq.nodes());
        e.bool(self.umq.schema_change_flag());
        e.bytes(&self.replica_ext);
    }

    /// The inverse of [`Warehouse::encode_checkpoint`]. The dispatch index
    /// is left for [`Warehouse::recover`] to derive once the tail has
    /// replayed.
    fn decode_checkpoint(
        d: &mut Dec<'_>,
        info: &InfoSpace,
        obs: &Collector,
    ) -> Result<Self, WireError> {
        let mut wh =
            Warehouse::new(info.clone(), core_wire::dec_strategy(d)?).with_obs(obs.clone());
        wh.dyno.set_policy(core_wire::dec_policy(d)?);
        wh.views.adaptation = match d.u8()? {
            0 => AdaptationMode::Auto,
            1 => AdaptationMode::RecomputeOnly,
            t => return Err(invalid(format!("adaptation tag {t}"))),
        };
        wh.ingress.set_dedupe(d.bool()?);
        wh.views.slots = dec_seq(d, |d| {
            let mut slot = ViewSlot::new(parse_view(&d.str()?)?, 0);
            let cols = dec_seq(d, |d| d.str())?;
            slot.mv.replace(cols, rel_wire::dec_bag(d)?).map_err(invalid)?;
            set_reflected(&mut slot.reflected, &dec_versions(d)?);
            slot.deferred = dec_batches(d)?.into();
            slot.tier = d.u8()?;
            Ok(slot)
        })?;
        set_reflected(&mut wh.views.reflected, &dec_versions(d)?);
        for (source, mark) in dec_versions(d)? {
            wh.ingress.raise_mark(source, mark);
        }
        let batches = dec_batches(d)?;
        wh.umq = Umq::restore(batches, d.bool()?);
        wh.replica_ext = d.bytes()?.to_vec();
        if !d.is_done() {
            return Err(invalid("trailing bytes after the checkpoint"));
        }
        Ok(wh)
    }

    /// Folds one tail record into the warehouse through its live queue,
    /// gate and extent code, counting the intents no `Applied` has closed.
    fn replay(&mut self, record: Record<'_>, open_intents: &mut u64) -> Result<(), WireError> {
        match record {
            Record::Admitted(meta) => {
                self.ingress.raise_mark(meta.source.0, meta.payload.source_version);
                self.umq.enqueue(meta);
            }
            Record::Intent => *open_intents += 1,
            Record::Applied(rec) => {
                self.replay_applied(rec)?;
                *open_intents = 0;
            }
            Record::Replica(event) => self.replica_tail.push(event),
            Record::Checkpoint(_) => {}
        }
        Ok(())
    }

    /// Replays one `Applied` record all or nothing. The whole record is
    /// checked first — one change and one vector per view, a queued batch
    /// for every `Deferred`, deltas that keep every extent non-negative (its
    /// SQL parsed when it decoded) — and only then does any slot change,
    /// through the live commit's [`apply_change`], which moves the record's
    /// extents and definitions into the slots.
    fn replay_applied(&mut self, mut rec: AppliedRecord) -> Result<(), WireError> {
        let slots = &self.views.slots;
        let n = slots.len();
        if rec.changes.len() != n || rec.view_reflected.len() != n {
            return Err(invalid(format!("applied record does not cover the {n} views")));
        }
        let keys: Vec<UpdateKey> = rec.keys.iter().map(|&k| UpdateKey(k)).collect();
        // A deferring view takes its copy of the batch from the queue
        // *before* the committed keys leave it.
        let defers = rec.changes.iter().any(|c| matches!(c, AppliedChange::Deferred));
        let mut batch = Vec::new();
        if defers {
            batch.extend(self.umq.updates().filter(|m| keys.contains(&m.key)).cloned());
        }
        if defers && batch.is_empty() {
            return Err(invalid("deferred change with no queued batch to defer"));
        }
        for (slot, change) in slots.iter().zip(&rec.changes) {
            let fits = match change {
                AppliedChange::Delta { rows } | AppliedChange::Incremental { rows, .. } => {
                    fits(slot.mv.extent(), rows)
                }
                AppliedChange::Replace { extent, .. } => extent.is_non_negative(),
                AppliedChange::Skipped | AppliedChange::Deferred => true,
            };
            if !fits {
                let name = &slot.view.name;
                return Err(invalid(format!("applied change drives `{name}` negative")));
            }
        }
        let views = &mut self.views;
        for (i, change) in rec.changes.iter_mut().enumerate() {
            // A materializing change resolves the keys from this view's own
            // deferred queue too (the per-view drain commits a deferred
            // batch through the same record shape, its peers `Skipped`).
            if change.rows().is_some() {
                let slot = &mut views.slots[i];
                for deferred in &mut slot.deferred {
                    deferred.retain(|m| !keys.contains(&m.key));
                }
                slot.deferred.retain(|b| !b.is_empty());
            }
            views.apply_change(i, change, &batch, false, false).map_err(invalid)?;
        }
        let since = views.commits;
        for (slot, vr) in views.slots.iter_mut().zip(&rec.view_reflected) {
            set_reflected(&mut slot.reflected, vr);
            slot.since = since;
        }
        set_reflected(&mut views.reflected, &rec.reflected);
        views.deferring = views.slots.iter().filter(|s| !s.deferred.is_empty()).count();
        self.umq.remove_by_keys(&keys);
        Ok(())
    }
}

/// True iff merging `delta` into `extent` leaves every multiplicity
/// non-negative (and in range).
fn fits(extent: &ZSet, delta: &ZSet) -> bool {
    delta.iter().all(|(t, w)| extent.count(t).checked_add(w).is_some_and(|c| c >= 0))
}

/// A version vector in its canonical on-disk form: pairs sorted by source.
fn sorted(reflected: &ReflectedVersions) -> Vec<(u32, u64)> {
    let mut v: Vec<(u32, u64)> = reflected.iter().map(|(s, v)| (s.0, *v)).collect();
    v.sort_unstable();
    v
}

/// Overwrites a version vector in place, keeping its allocation.
fn set_reflected(reflected: &mut ReflectedVersions, versions: &[(u32, u64)]) {
    reflected.clear();
    reflected.extend(versions.iter().map(|&(s, v)| (SourceId(s), v)));
}

fn invalid(why: impl std::fmt::Display) -> WireError {
    WireError::Invalid(why.to_string())
}

/// One scheduling step's maintainer: the views, the port their maintenance
/// queries go to, and the messages that arrived while those queries ran
/// (handed back to [`Warehouse::step`] to ingest).
struct Maintenance<'a> {
    views: &'a mut Views,
    port: &'a mut dyn SourcePort,
    arrivals: Vec<UpdateMessage>,
}

impl Maintainer<UpdateMessage> for Maintenance<'_> {
    /// One shared-queue entry against every view, atomically: the four
    /// steps orchestrated over all slots, plus what belongs to the entry
    /// rather than to any one view — dispositions, shared subplans, the
    /// warehouse vector and the batch's provenance.
    fn maintain(
        &mut self,
        batch: &[UpdateMeta<UpdateMessage>],
        rest: &[Vec<UpdateMeta<UpdateMessage>>],
    ) -> MaintainOutcome {
        let (views, port) = (&mut *self.views, &mut *self.port);
        let n = views.slots.len();
        let schema_changes = schema_changes_in(batch);
        port.on_maintenance_event(MaintEvent::Begin { updates: batch.len(), schema_changes });
        let pending = Pending::queued(rest, &[]);
        let is_plain_du = lone_du(batch).is_some();

        let _span = views.obs.span(
            "view.maintain",
            &[
                field("updates", batch.len()),
                field("schema_changes", schema_changes),
                field("kind", if is_plain_du { "du" } else { "batch" }),
                field("views", n),
            ],
        );
        views.metrics.attempts.get_or_init(|| views.obs.counter("view.attempts")).inc();
        profiler(&views.obs, "warehouse", "pipeline").invocation();

        // The intent is durable before any maintenance query runs.
        views.log_intent(batch, schema_changes);
        for meta in batch {
            views.obs.prov(meta.key.0, dyno_obs::stage::INTENT, &[]);
        }

        // Classify the batch per view. A slot with a non-empty deferred
        // queue defers *unconditionally* (per-view FIFO: skip-advancing its
        // vector past queued updates of the same source would corrupt the
        // point-in-time audit). SC-bearing batches are active for every
        // current slot — adaptation handles irrelevance internally, and the
        // relation-irrelevance argument that justifies `Skipped` only holds
        // for data updates, which reach exactly the slots the dispatch
        // index lists for their relation. Active slots stage in index order.
        let has_sc = schema_changes > 0;
        let prof = profiler(&views.obs, "warehouse", "pipeline");
        let window = prof.start(|| batch.len());
        let slots = &views.slots;
        let active: Vec<usize> = if has_sc {
            (0..n).filter(|&i| slots[i].deferred.is_empty()).collect()
        } else {
            let mut active = Vec::new();
            for meta in batch {
                if let SourceUpdate::Data(du) = &meta.payload.update {
                    let readers = views.dag.dependents_of(&du.relation);
                    active.extend(readers.iter().filter(|&&i| slots[i].deferred.is_empty()));
                }
            }
            active.sort_unstable();
            active.dedup();
            active
        };
        let active_total = active.len();
        prof.finish(window, 0, OpPhase::Detect, "classify", "batch", || active_total);

        // Phase 1: stage every active view's change without committing
        // anything, so a broken query in view k discards views 0..k's work
        // too. When two or more views take the batch they share first-hop
        // join subplans through one per-batch cache (a lone view has nobody
        // to share with and runs the plain plan). A source being unavailable
        // is per-view: that view defers while its peers proceed — unless
        // *every* active view is blocked, which parks the whole entry
        // (classic Dyno semantics).
        let mut shared =
            (is_plain_du && views.share_subplans && active_total >= 2).then(SharedSubplans::new);
        let mut blocked = 0usize;
        let mut staged: Vec<(usize, AppliedChange)> = Vec::with_capacity(active_total);
        for &i in &active {
            let (result, arrivals) = views.stage(i, batch, pending, port, shared.as_mut());
            self.arrivals.extend(arrivals);
            match result {
                Ok(change) => staged.push((i, change)),
                Err(BatchFailure::Unavailable(e)) => {
                    blocked += 1;
                    staged.push((i, AppliedChange::Deferred));
                    if views.obs.capturing(Capture::TRACE) {
                        views.obs.event(
                            Level::Warn,
                            "view.defer",
                            &[field("view", i), field("error", e.to_string())],
                        );
                    }
                }
                Err(f) => return views.fail(f, 0..n, port),
            }
        }
        if let Some(sh) = &shared {
            views.metrics.shared_hits.add(sh.hits());
            views.metrics.shared_misses.add(sh.misses());
        }
        if active_total > 0 && blocked == active_total {
            // Every view that needs this batch is blocked: nothing to
            // commit, nothing to defer — park the entry and retry whole.
            let all_blocked = BatchFailure::Unavailable(RelationalError::Unavailable {
                source: "batch".into(),
                reason: format!("all {active_total} dependent views blocked"),
            });
            return views.fail(all_blocked, 0..n, port);
        }
        if blocked > 0 {
            // Split verdict: some views commit this batch, others defer.
            views.metrics.divergent.inc();
        }

        // Phase 2: commit in the DAG's refresh order (ascending tier, then
        // slot index). Active slots apply their staged change; deferring
        // slots enqueue the batch and freeze their vector as it stood before
        // it. Skipped slots are not visited — their vectors advance with the
        // warehouse's — unless a staleness tracker is attached, whose lanes
        // every non-deferring slot refreshes.
        let visit = if views.staleness.is_some() {
            views.dag.refresh_order().to_vec()
        } else {
            let mut visit = active;
            if views.deferring > 0 {
                visit.extend((0..n).filter(|&i| !views.slots[i].deferred.is_empty()));
                visit.sort_unstable();
                visit.dedup();
            }
            views.dag.sort_refresh(&mut visit);
            visit
        };
        // `staged` ⊆ `visit`: ordered alike, one cursor pairs them.
        staged.sort_by_key(|&(i, _)| views.dag.refresh_key(i));
        let keep = views.wal.is_some();
        let mut written = 0;
        let mut next = 0;
        for &i in &visit {
            let at = staged.get(next).is_some_and(|&(j, _)| j == i).then(|| {
                next += 1;
                next - 1
            });
            let mut skip = unstaged(&views.slots[i]);
            let change = at.map_or(&mut skip, |k| &mut staged[k].1);
            let freeze = matches!(change, AppliedChange::Deferred);
            if freeze && views.slots[i].deferred.is_empty() {
                views.slots[i].reflected = views.implied(i);
            }
            // An apply fails only on a message delivered twice (dedupe off),
            // whose versions every vector already holds: leaving them
            // unadvanced is what advancing the slots ahead did.
            match views.commit(i, change, batch, keep, port) {
                Ok(w) => written += w,
                Err(e) => return views.fail(BatchFailure::Internal(e), 0..n, port),
            }
            if !freeze && views.staleness.is_some() {
                let mut reflected = views.implied(i);
                advance(&mut reflected, batch);
                views.refresh_lane(i, &reflected);
            }
        }
        debug_assert_eq!(next, staged.len(), "a staged slot outside the visit");
        advance(&mut views.reflected, batch);
        views.commits += 1;
        for meta in batch {
            views.touched.insert(meta.payload.source, views.commits);
        }
        let was_cut = views.wal.as_ref().is_some_and(DurableLog::power_cut);
        views.record(batch, staged, unstaged, written, port);
        // Terminal provenance, skipped when the power was already cut
        // before the Applied append (the append was dropped, so recovery
        // re-executes this batch and records the terminal stages exactly
        // once, post-recovery). A cut that trips ON the append leaves the
        // record durable — those terminals are recorded here, since
        // recovery will not redo them.
        if !was_cut {
            for meta in batch {
                views.obs.prov(meta.key.0, dyno_obs::stage::APPLIED, &[]);
            }
            if views.obs.capturing(Capture::PROV) {
                views.obs.prov_batch(
                    &keys_of(batch),
                    dyno_obs::stage::EXTENT,
                    &[field("rows", written)],
                );
            }
        }
        MaintainOutcome::Committed
    }

    fn refresh_view_relevance(&mut self, queue: &mut Umq<UpdateMessage>) {
        // Shadow-evolve every view through the queue; a schema change is
        // relevant if it invalidates any shadow at its queue position. A
        // deferring view sees its own queued SCs *before* anything in the
        // shared queue, so its shadow starts from its deferred tail.
        let Views { slots, info, obs, .. } = &*self.views;
        obs.counter("vs.relevance_refreshes").inc();
        let mut shadows: Vec<ViewDefinition> = slots
            .iter()
            .map(|s| {
                let mut shadow = s.view.clone();
                for meta in s.deferred.iter().flatten() {
                    if let SourceUpdate::Schema(sc) = &meta.payload.update {
                        if shadow.is_invalidated_by(sc) {
                            if let Ok(next) = crate::vs::synchronize(&shadow, sc, info) {
                                shadow = next;
                            }
                        }
                    }
                }
                shadow
            })
            .collect();
        for meta in queue.metas_mut() {
            if let SourceUpdate::Schema(sc) = &meta.payload.update {
                let mut invalidates = false;
                for shadow in &mut shadows {
                    if shadow.is_invalidated_by(sc) {
                        invalidates = true;
                        if let Ok(next) = crate::vs::synchronize(shadow, sc, info) {
                            *shadow = next;
                            obs.counter("vs.shadow_rewrites").inc();
                        }
                    }
                }
                meta.kind = UpdateKind::Schema { invalidates_view: invalidates };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{InProcessPort, TracingPort};
    use crate::testkit::*;
    use dyno_relational::{DataUpdate, SchemaChange, SpjQuery, Tuple, Value};
    use dyno_source::SourceId;

    /// A second view over the Retailer only: store price list.
    fn pricelist_view() -> ViewDefinition {
        let q = SpjQuery::over(["Store", "Item"])
            .select("Store", "StoreName")
            .select("Item", "Book")
            .select("Item", "Price")
            .join_eq(("Store", "SID"), ("Item", "SID"))
            .build();
        ViewDefinition::new("PriceList", q)
    }

    /// A third view over the Library only.
    fn catalog_view() -> ViewDefinition {
        let q = SpjQuery::over(["Catalog"])
            .select("Catalog", "Title")
            .select("Catalog", "Publisher")
            .build();
        ViewDefinition::new("Titles", q)
    }

    impl Warehouse {
        /// The keys of every queued batch, in queue order.
        pub(crate) fn queued_keys(&self) -> Vec<Vec<u64>> {
            self.umq.nodes().into_iter().map(keys_of).collect()
        }

        /// The keys of every batch the `i`-th view deferred, oldest first.
        pub(crate) fn deferred_keys(&self, i: usize) -> Vec<Vec<u64>> {
            self.views.slots[i].deferred.iter().map(|b| keys_of(b)).collect()
        }
    }

    fn warehouse() -> (Warehouse, InProcessPort) {
        let space = bookinfo_space();
        let info = space.info().clone();
        let mut port = InProcessPort::new(space);
        let mut wh = Warehouse::new(info, Strategy::Pessimistic);
        wh.add_view(bookinfo_view());
        wh.add_view(pricelist_view());
        wh.add_view(catalog_view());
        wh.initialize(&mut port).unwrap();
        (wh, port)
    }

    /// The paper's single-view presentation: one slot.
    fn single(strategy: Strategy) -> (Warehouse, InProcessPort) {
        let space = bookinfo_space();
        let info = space.info().clone();
        let mut port = InProcessPort::new(space);
        let mut wh = Warehouse::new(info, strategy);
        wh.add_view(bookinfo_view());
        wh.initialize(&mut port).unwrap();
        (wh, port)
    }

    fn commit_guide(port: &mut InProcessPort) {
        port.commit(
            SourceId(0),
            SourceUpdate::Data(insert_item(10, "Data Integration Guide", "Adams", 36)),
        )
        .unwrap();
    }

    /// Commits the Store ⋈ Item → StoreItems restructuring of Example 1.
    fn commit_storeitems(port: &mut InProcessPort) {
        let retailer = port.space().server(SourceId(0)).catalog();
        let change =
            storeitems_change(retailer.get("Store").unwrap(), retailer.get("Item").unwrap());
        port.commit(SourceId(0), SourceUpdate::Schema(change)).unwrap();
    }

    fn commit_drop_review(port: &mut InProcessPort) {
        port.commit(
            SourceId(1),
            SourceUpdate::Schema(SchemaChange::DropAttribute {
                relation: "Catalog".into(),
                attr: "Review".into(),
            }),
        )
        .unwrap();
    }

    #[test]
    fn single_view_initialize_populates_extent_and_vector() {
        let (wh, _) = single(Strategy::Pessimistic);
        assert_eq!(wh.mv(0).len(), 1);
        assert_eq!(wh.reflected().len(), 2, "Retailer and Library reflected");
        assert_eq!(wh.view_reflected(0).len(), 2);
    }

    #[test]
    fn single_view_du_is_maintained_incrementally_without_a_shared_cache() {
        let (mut wh, mut port) = single(Strategy::Pessimistic);
        commit_guide(&mut port);
        wh.run_to_quiescence(&mut port, 100).unwrap();
        assert_eq!(wh.mv(0).len(), 2);
        assert_eq!(wh.stats(0).du_committed, 1);
        assert_eq!(wh.stats(0).aborts, 0);
        // A lone active view has nobody to share a first hop with: the
        // per-batch cache is never built, let alone consulted.
        assert_eq!(wh.subplan_misses(), 0);
        assert_eq!(wh.subplan_hits(), 0);
    }

    #[test]
    fn broken_query_anomaly_resolved_by_reordering() {
        // Example 1(b): DU buffered, then the StoreItems restructuring
        // commits. Pessimistic Dyno reorders so no broken query occurs…
        let (mut wh, mut port) = single(Strategy::Pessimistic);
        commit_guide(&mut port);
        commit_storeitems(&mut port);
        wh.run_to_quiescence(&mut port, 100).unwrap();
        assert!(wh.view(0).references_relation("StoreItems"));
        assert_eq!(wh.mv(0).len(), 2, "both books visible after adaptation");
        assert_eq!(wh.stats(0).aborts, 0, "pessimistic pre-exec avoided the break");
        // DU and SC are same-source → cycle → merged batch.
        assert!(wh.dyno_stats().merges >= 1);
    }

    #[test]
    fn optimistic_endures_abort_on_same_scenario() {
        let (mut wh, mut port) = single(Strategy::Optimistic);
        commit_guide(&mut port);
        commit_storeitems(&mut port);
        wh.run_to_quiescence(&mut port, 100).unwrap();
        assert!(wh.view(0).references_relation("StoreItems"));
        assert_eq!(wh.mv(0).len(), 2);
        assert!(wh.stats(0).aborts >= 1, "optimistic pays the broken query");
    }

    #[test]
    fn cyclic_schema_changes_merge_and_commit() {
        // Section 3.5: SC1 (StoreItems) + SC2 (drop Review) — both relevant,
        // cyclic, processed as one atomic batch producing Query (5).
        let (mut wh, mut port) = single(Strategy::Pessimistic);
        commit_storeitems(&mut port);
        commit_drop_review(&mut port);
        wh.run_to_quiescence(&mut port, 100).unwrap();
        assert!(wh.view(0).references_relation("StoreItems"));
        assert!(wh.view(0).references_relation("ReaderDigest"));
        assert_eq!(wh.stats(0).batches_committed, 1);
        assert_eq!(wh.stats(0).batched_updates, 2);
        assert_eq!(wh.mv(0).len(), 1);
    }

    #[test]
    fn a_dropped_column_re_sourced_from_a_joined_relation_takes_its_new_values() {
        // `Catalog.Review`'s registered replacement is `ReaderDigest.Comments`,
        // and this view already joins ReaderDigest: the rewrite re-sources
        // the column and adds no relation. The view keeps its output names
        // but not its values (`classic`/`good` become `thorough`/
        // `insightful`), so the batch must not adapt as if it kept its shape.
        let space = bookinfo_space();
        let info = space.info().clone();
        let mut port = InProcessPort::new(space);
        let q = SpjQuery::over(["Catalog", "ReaderDigest"])
            .select("Catalog", "Title")
            .select("Catalog", "Review")
            .join_eq(("Catalog", "Title"), ("ReaderDigest", "Article"))
            .build();
        let mut wh = Warehouse::new(info, Strategy::Pessimistic);
        wh.add_view(ViewDefinition::new("Reviews", q));
        wh.initialize(&mut port).unwrap();
        commit_drop_review(&mut port);
        wh.run_to_quiescence(&mut port, 100).unwrap();

        assert!(wh.view(0).query.to_string().contains("ReaderDigest.Comments AS Review"));
        let eval = dyno_relational::eval(&wh.view(0).query, &port.space().provider()).unwrap();
        assert_eq!(wh.mv(0).extent(), &eval.rows, "the extent is eval(V′)");
        let row = |title, review| Tuple::of([Value::str(title), Value::str(review)]);
        assert_eq!(wh.mv(0).extent().count(&row("Databases", "thorough")), 1);
        assert_eq!(wh.mv(0).extent().count(&row("Data Integration Guide", "insightful")), 1);
    }

    #[test]
    fn irrelevant_schema_change_commits_quietly() {
        let (mut wh, mut port) = single(Strategy::Pessimistic);
        port.commit(
            SourceId(1),
            SourceUpdate::Schema(SchemaChange::AddAttribute {
                relation: "Catalog".into(),
                attr: dyno_relational::Attribute::new("ISBN", dyno_relational::AttrType::Str),
                default: dyno_relational::Value::Null,
            }),
        )
        .unwrap();
        wh.run_to_quiescence(&mut port, 100).unwrap();
        assert_eq!(wh.mv(0).len(), 1, "extent untouched");
        assert_eq!(wh.stats(0).aborts, 0);
    }

    #[test]
    fn observed_warehouse_reports_maintenance_metrics() {
        let space = bookinfo_space();
        let info = space.info().clone();
        let mut port = InProcessPort::new(space);
        let obs = Collector::wall().with_capture(Capture::TRACE, 1024);
        let mut wh = Warehouse::new(info, Strategy::Optimistic).with_obs(obs.clone());
        wh.add_view(bookinfo_view());
        wh.initialize(&mut port).unwrap();
        commit_guide(&mut port);
        commit_storeitems(&mut port);
        wh.run_to_quiescence(&mut port, 100).unwrap();

        let reg = obs.registry();
        let counter = |name| reg.counter_value(name).unwrap_or(0);
        let stats = wh.stats(0);
        assert_eq!(counter("view.aborts"), stats.aborts, "abort counter mirrors ViewStats");
        assert_eq!(counter("view.commits"), stats.du_committed + stats.batches_committed);
        assert_eq!(counter("view.attempts"), counter("view.commits") + counter("view.aborts"));
        assert!(counter("va.recompute") + counter("va.incremental") >= 1);
        let names: Vec<&str> = obs.records().iter().map(|r| r.name).collect();
        assert!(names.contains(&"view.maintain"));
        assert!(names.contains(&"va.adapt"));
    }

    #[test]
    fn single_view_wal_recovers_bit_identically_from_a_kill_at_every_crash_point() {
        use crate::wal::CrashPoint;
        let crc = |wh: &Warehouse| {
            let mut e = dyno_durable::Enc::new();
            dyno_relational::wire::enc_bag(&mut e, wh.mv(0).extent());
            dyno_durable::crc32(&e.finish())
        };
        // One schema-change node (a different source than the DUs, so Dyno
        // reorders it first instead of merging) and two plain DUs: every
        // crash point has a record to strike at. All three are admitted —
        // durably — before the cut is armed, so nothing needs redelivery.
        let run = |kill: Option<CrashPoint>| {
            let (wh, mut port) = single(Strategy::Pessimistic);
            let info = port.space().info().clone();
            let disk = dyno_durable::MemStorage::new();
            let mut wh = wh
                .with_wal(DurableLog::create(Box::new(disk.clone())).unwrap())
                .expect("no admission bound");
            commit_guide(&mut port);
            commit_drop_review(&mut port);
            port.commit(
                SourceId(0),
                SourceUpdate::Data(insert_item(11, "Data Integration Guide", "Brook", 41)),
            )
            .unwrap();
            wh.ingest(port.drain_arrivals());
            let mut kills = 0;
            if let Some(point) = kill {
                wh.arm_crash(CrashPlan { point, skip: 0 });
            }
            while wh.step(&mut port).unwrap() != StepOutcome::Idle {
                if wh.wal_power_cut() {
                    kills += 1;
                    drop(wh);
                    let (back, report) =
                        Warehouse::recover(Box::new(disk.clone()), info.clone(), Collector::wall())
                            .unwrap();
                    assert_eq!(report.torn_records, 0, "a power cut drops whole records");
                    wh = back;
                }
            }
            assert_eq!(kills, u32::from(kill.is_some()), "{kill:?}: the planned cut fired");
            (crc(&wh), wh.view(0).clone(), wh.reflected().clone(), disk)
        };

        let (crc0, view0, reflected0, disk0) = run(None);
        assert!(view0.references_relation("ReaderDigest"), "the SC was adapted");
        // The clean log round-trips: extent, definition and vector.
        let info = bookinfo_space().info().clone();
        let (back, report) = Warehouse::recover(Box::new(disk0), info, Collector::wall()).unwrap();
        assert_eq!(report.torn_records, 0);
        assert_eq!((crc(&back), back.view(0), back.reflected()), (crc0, &view0, &reflected0));

        for point in [CrashPoint::BetweenSteps, CrashPoint::AfterIntent, CrashPoint::MidBatch] {
            let (crc, view, reflected, _) = run(Some(point));
            assert_eq!(crc, crc0, "{point:?}: recovery changes when work happens, not what");
            assert_eq!(view, view0, "{point:?}");
            assert_eq!(reflected, reflected0, "{point:?}");
        }
    }

    #[test]
    fn initializes_all_views() {
        let (wh, _) = warehouse();
        assert_eq!(wh.view_count(), 3);
        assert_eq!(wh.mv(0).len(), 1, "BookInfo: one matching book");
        assert_eq!(wh.mv(1).len(), 1, "PriceList: one item");
        assert_eq!(wh.mv(2).len(), 2, "Titles: both catalog rows");
    }

    #[test]
    fn one_du_updates_exactly_the_affected_views() {
        let (mut wh, mut port) = warehouse();
        commit_guide(&mut port);
        wh.run_to_quiescence(&mut port, 100).unwrap();
        assert_eq!(wh.mv(0).len(), 2, "BookInfo gains the joined row");
        assert_eq!(wh.mv(1).len(), 2, "PriceList gains the item");
        assert_eq!(wh.mv(2).len(), 2, "Titles untouched");
    }

    #[test]
    fn schema_change_rewrites_only_affected_views() {
        let (mut wh, mut port) = warehouse();
        commit_storeitems(&mut port);
        wh.run_to_quiescence(&mut port, 100).unwrap();
        assert!(wh.view(0).references_relation("StoreItems"));
        assert!(wh.view(1).references_relation("StoreItems"));
        assert_eq!(wh.view(2), &catalog_view(), "Library-only view untouched");
        assert_eq!(wh.mv(0).len(), 1);
        assert_eq!(wh.mv(1).len(), 1);
        assert_eq!(wh.mv(2).len(), 2);
    }

    #[test]
    fn views_reflect_the_same_state_vector() {
        let (mut wh, mut port) = warehouse();
        commit_guide(&mut port);
        commit_drop_review(&mut port);
        wh.run_to_quiescence(&mut port, 100).unwrap();
        // Every view matches a fresh evaluation of its (current) definition
        // over the final source states.
        for i in 0..wh.view_count() {
            let expected = dyno_relational::eval(&wh.view(i).query, &port.space().provider())
                .expect("final definitions are valid");
            assert_eq!(wh.mv(i).extent(), &expected.rows, "view {i} converged");
        }
    }

    #[test]
    fn sc_relevant_to_any_view_is_scheduled_first() {
        // An SC irrelevant to view 0 but relevant to view 2 still reorders.
        let (mut wh, mut port) = warehouse();
        port.commit(
            SourceId(1),
            SourceUpdate::Schema(SchemaChange::RenameAttribute {
                relation: "Catalog".into(),
                from: "Publisher".into(),
                to: "House".into(),
            }),
        )
        .unwrap();
        wh.run_to_quiescence(&mut port, 100).unwrap();
        // BookInfo and Titles both project Publisher → both rewritten.
        assert!(wh.view(0).query.to_string().contains("Catalog.House AS Publisher"));
        assert!(wh.view(2).query.to_string().contains("Catalog.House AS Publisher"));
        assert_eq!(wh.view(1), &pricelist_view(), "Retailer view untouched");
    }

    #[test]
    fn with_correction_preserves_stats_and_obs_regardless_of_order() {
        // Regression: Warehouse::with_correction rebuilt the scheduler,
        // resetting DynoStats and dropping the collector binding whenever it
        // was called before with_obs.
        let space = bookinfo_space();
        let info = space.info().clone();
        let mut port = InProcessPort::new(space);
        let obs = Collector::wall();
        let mut wh = Warehouse::new(info, Strategy::Pessimistic)
            .with_correction(CorrectionPolicy::MergeAll)
            .with_obs(obs.clone());
        wh.add_view(bookinfo_view());
        wh.initialize(&mut port).unwrap();
        commit_guide(&mut port);
        wh.run_to_quiescence(&mut port, 100).unwrap();
        let before = wh.dyno_stats();
        assert!(before.committed > 0);
        assert_eq!(
            obs.registry().counter_value("dyno.committed"),
            Some(before.committed),
            "correction-then-obs order must not orphan the scheduler's metrics"
        );
        let wh = wh.with_correction(CorrectionPolicy::MergeCycles);
        assert_eq!(wh.dyno_stats(), before, "stats survive a mid-run policy change");
        assert_eq!(
            obs.registry().counter_value("dyno.committed"),
            Some(before.committed),
            "collector binding survives with_correction"
        );
    }

    fn durable_warehouse() -> (Warehouse, InProcessPort, dyno_durable::MemStorage) {
        let space = bookinfo_space();
        let info = space.info().clone();
        let mut port = InProcessPort::new(space);
        let disk = dyno_durable::MemStorage::new();
        let mut wh = Warehouse::new(info, Strategy::Pessimistic);
        wh.add_view(bookinfo_view());
        wh.add_view(pricelist_view());
        wh.initialize(&mut port).unwrap();
        let log = DurableLog::create(Box::new(disk.clone())).unwrap();
        (wh.with_wal(log).expect("no admission bound"), port, disk)
    }

    #[test]
    fn recover_restores_views_versions_and_queue() {
        let (mut wh, mut port, disk) = durable_warehouse();
        commit_guide(&mut port);
        wh.run_to_quiescence(&mut port, 100).unwrap();
        // One more committed source update, ingested but not yet maintained.
        port.commit(
            SourceId(0),
            SourceUpdate::Data(insert_item(11, "Adaptive Views", "Brook", 41)),
        )
        .unwrap();
        let arrivals = port.drain_arrivals();
        wh.ingest(arrivals);

        // Kill: drop the warehouse, recover from the shared disk.
        let info = port.space().info().clone();
        drop(wh);
        let (mut back, report) =
            Warehouse::recover(Box::new(disk), info, Collector::wall()).unwrap();
        assert_eq!(report.torn_records, 0);
        assert_eq!(report.reparked_intents, 0);
        assert_eq!(back.view_count(), 2);
        assert_eq!(back.mv(0).len(), 2, "the committed maintenance survived");
        // The queued-but-unmaintained update survives in the UMQ and is
        // maintained by the restarted scheduler.
        back.run_to_quiescence(&mut port, 100).unwrap();
        for i in 0..back.view_count() {
            let expected = dyno_relational::eval(&back.view(i).query, &port.space().provider())
                .expect("definitions valid");
            assert_eq!(back.mv(i).extent(), &expected.rows, "view {i} converged after restart");
        }
    }

    #[test]
    fn crash_after_intent_loses_nothing() {
        let (mut wh, mut port, disk) = durable_warehouse();
        commit_guide(&mut port);
        wh.arm_crash(CrashPlan { point: crate::wal::CrashPoint::AfterIntent, skip: 0 });
        wh.run_to_quiescence(&mut port, 100).unwrap();
        assert!(wh.wal_power_cut(), "the cut tripped during maintenance");
        assert_eq!(wh.mv(0).len(), 2, "the doomed process still sees its commit");

        let info = port.space().info().clone();
        drop(wh);
        let (mut back, report) =
            Warehouse::recover(Box::new(disk), info, Collector::wall()).unwrap();
        assert_eq!(report.reparked_intents, 1, "the intent had no applied");
        assert_eq!(back.mv(0).len(), 1, "the un-applied commit is gone");
        back.run_to_quiescence(&mut port, 100).unwrap();
        assert_eq!(back.mv(0).len(), 2, "the re-parked batch is redone");
    }

    #[test]
    fn schema_change_commit_is_durable_across_recovery() {
        let (mut wh, mut port, disk) = durable_warehouse();
        commit_storeitems(&mut port);
        wh.run_to_quiescence(&mut port, 100).unwrap();
        assert!(wh.view(0).references_relation("StoreItems"));

        let expected = wh.reflected().clone();
        let frozen = wh.mv(0).sorted_tuples();
        let info = port.space().info().clone();
        drop(wh);
        let (back, report) = Warehouse::recover(Box::new(disk), info, Collector::wall()).unwrap();
        assert_eq!(report.reparked_intents, 0);
        assert!(back.view(0).references_relation("StoreItems"), "rewritten definition survives");
        assert!(back.view(1).references_relation("StoreItems"));
        assert_eq!(back.mv(0).sorted_tuples(), frozen, "extent is bit-identical after recovery");
        assert_eq!(back.reflected(), &expected, "version vector survives");
    }

    #[test]
    fn last_error_clears_when_a_later_step_succeeds() {
        // Regression: last_error was sticky forever, so CLI `stats` kept
        // reporting a failure long after maintenance had committed fine.
        let (mut wh, mut port) = warehouse();
        wh.views.last_error = Some(ViewError::Internal(RelationalError::InvalidQuery {
            reason: "earlier maintenance failure".into(),
        }));
        assert!(wh.last_error().is_some());
        commit_guide(&mut port);
        wh.run_to_quiescence(&mut port, 100).unwrap();
        assert!(wh.dyno_stats().committed > 0, "a step committed");
        assert!(wh.last_error().is_none(), "the successful commit cleared the stale error");
    }

    #[test]
    fn last_error_stays_while_the_failure_persists() {
        let (mut wh, mut port) = warehouse();
        port.commit(
            SourceId(1),
            SourceUpdate::Schema(SchemaChange::DropRelation { relation: "Catalog".into() }),
        )
        .unwrap();
        assert!(wh.run_to_quiescence(&mut port, 100).is_err());
        assert!(wh.last_error().is_some(), "the failure is inspectable after being returned");
        assert!(wh.step(&mut port).is_err(), "the poisoned head keeps failing");
        assert!(wh.last_error().is_some(), "idle/failed steps do not clear the error");
    }

    #[test]
    fn umq_metrics_are_pre_registered_on_an_idle_warehouse() {
        // Satellite fix (same bug class as the PR 5 `wal.*` fix): the
        // admission series must exist — at zero — before any traffic, or
        // `monitor`/`stats` render a missing series for a healthy idle
        // warehouse.
        let obs = Collector::wall();
        let space = bookinfo_space();
        let _wh = Warehouse::new(space.info().clone(), Strategy::Pessimistic).with_obs(obs.clone());
        assert_eq!(obs.registry().gauge_value("umq.depth"), Some(0));
        assert_eq!(obs.registry().counter_value("umq.admitted"), Some(0));
        assert_eq!(obs.registry().counter_value("umq.shed"), Some(0));

        // A warehouse recovered into a fresh collector is the same idle
        // warehouse: every series the fresh one registers is there (it once
        // lacked the `replica.lag_us` lane until the first remote delta).
        let names = |obs: &Collector| -> Vec<&'static str> {
            let reg = obs.registry();
            let counters = reg.counters().into_iter().map(|(n, _)| n);
            let gauges = reg.gauges().into_iter().map(|(n, _)| n);
            counters.chain(gauges).chain(reg.histograms().into_iter().map(|(n, _)| n)).collect()
        };
        let (wh, port, disk) = durable_warehouse();
        drop(wh);
        let recovered = Collector::wall();
        let info = port.space().info().clone();
        Warehouse::recover(Box::new(disk), info, recovered.clone()).unwrap();
        let have = names(&recovered);
        for name in names(&obs) {
            assert!(have.contains(&name), "`{name}` is missing on a recovered idle warehouse");
        }
        assert!(have.contains(&"replica.lag_us"));
    }

    #[test]
    fn bounded_warehouse_rejects_wal_and_vice_versa() {
        // A shedding warehouse cannot be durable: WAL replay applies every
        // admitted delta strictly, so a bound that sheds under pressure
        // would make recovery diverge from the live process. Both builder
        // orders must fail at construction time.
        let space = bookinfo_space();
        let info = space.info().clone();

        let bounded = Warehouse::new(info.clone(), Strategy::Pessimistic)
            .with_umq_bound(4)
            .expect("a bound alone is fine");
        let disk = dyno_durable::MemStorage::new();
        let log = DurableLog::create(Box::new(disk.clone())).unwrap();
        let err = bounded.with_wal(log).expect_err("bound + WAL must be rejected");
        assert!(
            err.to_string().contains("bounded UMQ"),
            "error names the conflicting combination: {err}"
        );

        let log = DurableLog::create(Box::new(disk)).unwrap();
        let durable =
            Warehouse::new(info, Strategy::Pessimistic).with_wal(log).expect("a WAL alone is fine");
        let err = durable.with_umq_bound(4).expect_err("WAL + bound must be rejected");
        assert!(
            err.to_string().contains("bounded UMQ"),
            "error names the conflicting combination: {err}"
        );
    }

    #[test]
    fn bounded_umq_sheds_data_updates_but_never_schema_changes() {
        let space = bookinfo_space();
        let info = space.info().clone();
        let mut port = InProcessPort::new(space);
        let obs = Collector::wall();
        let tracker = dyno_obs::StalenessTracker::new(8);
        let mut wh = Warehouse::new(info, Strategy::Pessimistic)
            .with_obs(obs.clone())
            .with_umq_bound(1)
            .expect("no wal attached")
            .with_staleness(tracker.clone());
        wh.add_view(bookinfo_view());
        wh.initialize(&mut port).unwrap();
        assert_eq!(tracker.view_names(), vec!["BookInfo".to_string()], "lane registered");

        // Three DUs into a bound of one: the first is admitted, the rest
        // shed; an SC gets through regardless.
        for k in 0..3 {
            let book = if k == 0 { "Data Integration Guide" } else { "Shed Fodder" };
            let msg = port
                .commit(SourceId(0), SourceUpdate::Data(insert_item(10 + k, book, "Adams", 36)))
                .unwrap();
            tracker.note_commit(msg.source.0, msg.source_version, 100 + k as u64);
        }
        let sc = port
            .commit(
                SourceId(1),
                SourceUpdate::Schema(SchemaChange::RenameAttribute {
                    relation: "Catalog".into(),
                    from: "Publisher".into(),
                    to: "House".into(),
                }),
            )
            .unwrap();
        tracker.note_commit(sc.source.0, sc.source_version, 200);
        wh.ingest(port.drain_arrivals());
        assert_eq!(wh.admitted_count(), 2, "one DU plus the SC");
        assert_eq!(wh.shed_count(), 2);
        assert_eq!(obs.registry().counter_value("umq.shed"), Some(2));
        assert!(obs.registry().gauge_value("umq.depth").unwrap() >= 1);
        wh.run_to_quiescence(&mut port, 100).unwrap();
        assert_eq!(obs.registry().gauge_value("umq.depth"), Some(0), "drained");
        assert_eq!(tracker.lifetime(0).0, 2, "both admitted commits became staleness samples");
        assert_eq!(tracker.current_staleness_us(0, u64::MAX), 0, "shed commits do not age views");
        assert_eq!(wh.mv(0).len(), 2, "the admitted insert is reflected, the shed ones are not");
    }

    #[test]
    fn bounded_umq_clamps_deletes_of_shed_inserts() {
        // Shedding makes maintenance knowingly lossy: when an insert is
        // shed and its row is later deleted at the source, the delete's
        // view delta has nothing to cancel. A bounded warehouse must clamp
        // (count the divergence in `view.clamped_rows`) instead of failing
        // with a negative-multiplicity error.
        let space = bookinfo_space();
        let info = space.info().clone();
        let mut port = InProcessPort::new(space);
        let obs = Collector::wall();
        let mut wh = Warehouse::new(info, Strategy::Pessimistic)
            .with_obs(obs.clone())
            .with_umq_bound(1)
            .expect("no wal attached");
        wh.add_view(bookinfo_view());
        wh.initialize(&mut port).unwrap();
        assert_eq!(obs.registry().counter_value("view.clamped_rows"), Some(0), "pre-registered");

        let admitted = insert_item(10, "Data Integration Guide", "Adams", 40);
        let shed = insert_item(10, "Data Integration Guide", "Adams", 41);
        port.commit(SourceId(0), SourceUpdate::Data(admitted)).unwrap();
        wh.ingest(port.drain_arrivals());
        port.commit(SourceId(0), SourceUpdate::Data(shed.clone())).unwrap();
        wh.ingest(port.drain_arrivals());
        assert_eq!(wh.shed_count(), 1, "the second insert hit the bound");
        wh.run_to_quiescence(&mut port, 100).unwrap();
        let len_before = wh.mv(0).len();

        // Delete the shed row at the source. The source state is
        // consistent (it applied both inserts); only the warehouse missed
        // one — exactly the divergence shedding signs up for.
        let row = shed.delta.rows().iter().next().unwrap().0.clone();
        let delete = DataUpdate::new(
            dyno_relational::Delta::deletes(item_schema(), [row]).expect("typed row"),
        );
        port.commit(SourceId(0), SourceUpdate::Data(delete)).unwrap();
        wh.ingest(port.drain_arrivals());
        wh.run_to_quiescence(&mut port, 100).expect("clamped apply absorbs the miss");
        assert_eq!(wh.mv(0).len(), len_before, "extent unchanged: nothing to delete");
        assert!(
            obs.registry().counter_value("view.clamped_rows").unwrap() > 0,
            "the dropped magnitude is visible as a counter"
        );
        assert!(wh.last_error().is_none(), "lossy apply is not a maintenance failure");
    }

    /// Delegates to an [`InProcessPort`] but reports queries touching a
    /// relation in `down` as unavailable — the liveness failure that makes
    /// one view defer while its peers proceed.
    struct DownPort {
        inner: InProcessPort,
        down: std::collections::BTreeSet<String>,
    }

    impl DownPort {
        fn new(inner: InProcessPort) -> Self {
            DownPort { inner, down: Default::default() }
        }

        fn err(rel: &str) -> RelationalError {
            RelationalError::Unavailable { source: rel.into(), reason: "host down".into() }
        }
    }

    impl SourcePort for DownPort {
        fn now_ms(&self) -> u64 {
            self.inner.now_ms()
        }

        fn execute(
            &mut self,
            query: &SpjQuery,
            bound: &[crate::engine::BoundTable],
        ) -> Result<dyno_relational::QueryResult, RelationalError> {
            if let Some(t) = query.tables.iter().find(|t| self.down.contains(t.as_str())) {
                return Err(Self::err(t));
            }
            self.inner.execute(query, bound)
        }

        fn locate(&mut self, relation: &str) -> Option<SourceId> {
            self.inner.locate(relation)
        }

        fn source_version(&mut self, source: SourceId) -> u64 {
            self.inner.source_version(source)
        }

        fn charge_local(&mut self, tuples: u64) {
            self.inner.charge_local(tuples)
        }

        fn drain_arrivals(&mut self) -> Vec<UpdateMessage> {
            self.inner.drain_arrivals()
        }
    }

    #[test]
    fn irrelevant_du_skips_but_advances_every_views_vector() {
        let (mut wh, mut port) = warehouse();
        let schema = port
            .space()
            .server(SourceId(2))
            .catalog()
            .get("ReaderDigest")
            .unwrap()
            .schema()
            .clone();
        let du = DataUpdate::new(
            dyno_relational::Delta::inserts(
                schema,
                [dyno_relational::Tuple::of([
                    dyno_relational::Value::str("On Views"),
                    dyno_relational::Value::str("insightful"),
                ])],
            )
            .unwrap(),
        );
        let msg = port.commit(SourceId(2), SourceUpdate::Data(du)).unwrap();
        let before: Vec<_> = (0..3).map(|i| wh.mv(i).sorted_tuples()).collect();
        wh.run_to_quiescence(&mut port, 100).unwrap();
        for (i, extent) in before.iter().enumerate() {
            assert_eq!(&wh.mv(i).sorted_tuples(), extent, "view {i} extent untouched");
            assert!(
                wh.view_reflected(i).contains(&(2, msg.source_version)),
                "view {i} vector still advanced past the irrelevant update"
            );
        }
        assert_eq!(wh.deferred_total(), 0, "nothing deferred: the batch was skipped, not parked");
    }

    #[test]
    fn unavailable_source_defers_one_view_while_peers_commit() {
        let space = bookinfo_space();
        let info = space.info().clone();
        let mut port = DownPort::new(InProcessPort::new(space));
        let mut wh = Warehouse::new(info, Strategy::Pessimistic);
        wh.add_view(bookinfo_view()); // Store ⋈ Item ⋈ Catalog — needs the Library
        wh.add_view(pricelist_view()); // Store ⋈ Item — Retailer only
        wh.add_view(catalog_view()); // Catalog only — the DU does not touch it
        wh.initialize(&mut port).unwrap();

        port.down.insert("Catalog".into());
        port.inner
            .commit(
                SourceId(0),
                SourceUpdate::Data(insert_item(10, "Data Integration Guide", "Adams", 36)),
            )
            .unwrap();
        wh.run_to_quiescence(&mut port, 100).unwrap();

        assert_eq!(wh.mv(1).len(), 2, "PriceList committed the insert");
        assert_eq!(wh.deferred_len(0), 1, "BookInfo deferred it");
        assert_eq!(wh.mv(0).len(), 1, "BookInfo's extent is frozen");
        assert!(wh.divergent_verdicts() >= 1, "commit/defer split is a divergent verdict");
        assert!(wh.subplan_hits() >= 1, "PriceList reused BookInfo's ΔItem ⋈ Store hop");
        let retailer = |vec: Vec<(u32, u64)>| vec.iter().find(|&&(s, _)| s == 0).map(|&(_, v)| v);
        assert!(
            retailer(wh.view_reflected(0)) < retailer(wh.view_reflected(1)),
            "the deferring view's Retailer version trails its peer's"
        );

        port.down.clear();
        wh.run_to_quiescence(&mut port, 100).unwrap();
        assert_eq!(wh.deferred_total(), 0, "the drain caught BookInfo up");
        assert_eq!(wh.drained_commits(), 1);
        assert_eq!(
            wh.view_reflected(0).iter().find(|&&(s, _)| s == 0),
            wh.view_reflected(1).iter().find(|&&(s, _)| s == 0),
            "Retailer versions re-converge after the drain"
        );
        for i in 0..wh.view_count() {
            let expected =
                dyno_relational::eval(&wh.view(i).query, &port.inner.space().provider()).unwrap();
            assert_eq!(wh.mv(i).extent(), &expected.rows, "view {i} converged");
        }
    }

    /// Everything a recovery restores that a reader can see: per slot its
    /// SQL, columns, extent, vector and deferred-batch keys; then the
    /// warehouse vector, the ingress marks and the queued update keys.
    fn restored_state(wh: &Warehouse) -> Vec<String> {
        let slot = |i| {
            let (view, mv) = (wh.view(i), wh.mv(i));
            let (extent, deferred) = (mv.sorted_tuples(), wh.deferred_keys(i));
            format!("{view} {:?} {extent:?} {:?} {deferred:?}", mv.cols(), wh.view_reflected(i))
        };
        let mut state: Vec<String> = (0..wh.view_count()).map(slot).collect();
        state.push(format!("{:?} {:?}", sorted(wh.reflected()), wh.ingress_marks()));
        state.push(format!("{:?}", wh.queued_keys()));
        state
    }

    /// One `Catalog` row in the Library's current schema, whatever renames
    /// and drops have done to its columns.
    fn catalog_insert(port: &DownPort, title: &str, k: u64) -> SourceUpdate {
        let library = port.inner.space().server(SourceId(1)).catalog();
        let schema = library.get("Catalog").unwrap().schema().clone();
        let value = |name: &str| match name {
            "Title" => Value::str(title),
            _ => Value::str(format!("{name}{k}")),
        };
        let row = Tuple::new(schema.attrs().iter().map(|a| value(&a.name)).collect());
        SourceUpdate::Data(DataUpdate::new(dyno_relational::Delta::inserts(schema, [row]).unwrap()))
    }

    #[test]
    fn recovery_after_every_step_restores_the_live_warehouse() {
        // Seeded trains over a WAL: Item inserts and deletes (`Delta`), a
        // ReaderDigest insert no view reads (`Skipped`), a Catalog outage
        // that defers BookInfo while PriceList commits (`Deferred`, drained
        // once the Library returns), a `Publisher` rename (`Incremental`)
        // and a dropped `Category` column that BookInfo and Publishers
        // prune (`Replace`). After every step, recovering a copy of the
        // disk gives back the live warehouse.
        for seed in 0..24u64 {
            let mut rng = dyno_fault::rng::Rng::new(seed);
            let space = bookinfo_space();
            let info = space.info().clone();
            let disk = dyno_durable::MemStorage::new();
            let mut port = DownPort::new(InProcessPort::new(space));
            let strategy = *rng.choose(&[Strategy::Pessimistic, Strategy::Optimistic]);
            let mut wh = Warehouse::new(info.clone(), strategy);
            let three = rng.gen_ratio(1, 2);
            let mut tier = || u8::from(rng.gen_ratio(1, 2));
            wh.add_view_tiered(bookinfo_view(), tier());
            wh.add_view_tiered(pricelist_view(), tier());
            if three {
                wh.add_view_tiered(publishers_view(), tier());
            }
            wh.initialize(&mut port).unwrap();
            let log = DurableLog::create(Box::new(disk.clone())).unwrap();
            let mut wh = wh.with_wal(log).unwrap();
            wh.set_checkpoint_every(rng.gen_range(3..40u64));

            let titles = ["Databases", "Data Integration Guide", "Compilers"];
            let mut script: Vec<&str> = vec!["du", "du", "du", "delete", "digest", "catalog"];
            script.extend(["outage", "du", "rename", "catalog", "restore"]);
            script.extend(["drop", "du", "catalog", "du", "delete"]);
            rng.shuffle(&mut script[..6]);
            let (mut inserted, mut k) = (Vec::new(), 0u64);
            for event in script {
                k += 1;
                let update = match event {
                    "du" => {
                        let (sid, title) = (*rng.choose(&[1, 10]), *rng.choose(&titles));
                        let du = insert_item(sid, title, "Adams", k as i64);
                        inserted.push(du.delta.rows().iter().next().unwrap().0.clone());
                        Some((SourceId(0), SourceUpdate::Data(du)))
                    }
                    "delete" => inserted.pop().map(|row| {
                        let delta = dyno_relational::Delta::deletes(item_schema(), [row]);
                        (SourceId(0), SourceUpdate::Data(DataUpdate::new(delta.unwrap())))
                    }),
                    "digest" => {
                        let schema = readerdigest_schema();
                        let row = Tuple::of([Value::str(format!("Article{k}")), Value::str("ok")]);
                        let delta = dyno_relational::Delta::inserts(schema, [row]).unwrap();
                        Some((SourceId(2), SourceUpdate::Data(DataUpdate::new(delta))))
                    }
                    "catalog" => {
                        let title = *rng.choose(&titles);
                        Some((SourceId(1), catalog_insert(&port, title, k)))
                    }
                    "rename" => Some((
                        SourceId(1),
                        SourceUpdate::Schema(SchemaChange::RenameAttribute {
                            relation: "Catalog".into(),
                            from: "Publisher".into(),
                            to: "House".into(),
                        }),
                    )),
                    "drop" => Some((
                        SourceId(1),
                        SourceUpdate::Schema(SchemaChange::DropAttribute {
                            relation: "Catalog".into(),
                            attr: "Category".into(),
                        }),
                    )),
                    "outage" => {
                        port.down.insert("Catalog".into());
                        None
                    }
                    _ => {
                        port.down.clear();
                        None
                    }
                };
                if let Some((source, update)) = update {
                    port.inner.commit(source, update).unwrap();
                }
                for _ in 0..20 {
                    let outcome = wh.step(&mut port).unwrap();
                    let copy = dyno_durable::MemStorage::new();
                    copy.set(disk.snapshot());
                    let (back, report) =
                        Warehouse::recover(Box::new(copy), info.clone(), Collector::disabled())
                            .unwrap();
                    assert_eq!(report.torn_records, 0, "seed {seed}, {event}");
                    assert_eq!(
                        restored_state(&back),
                        restored_state(&wh),
                        "seed {seed}, {event}: recovered ≠ live"
                    );
                    if outcome == StepOutcome::Idle {
                        break;
                    }
                }
            }
            assert_eq!(wh.deferred_total(), 0, "seed {seed}: the drain caught up");
            for i in 0..wh.view_count() {
                let expected =
                    dyno_relational::eval(&wh.view(i).query, &port.inner.space().provider());
                assert_eq!(wh.mv(i).extent(), &expected.unwrap().rows, "seed {seed}: view {i}");
            }
            let bookinfo = wh.stats(0);
            let replaced = bookinfo.batches_committed - bookinfo.incremental_batches;
            assert!(
                bookinfo.incremental_batches >= 1 && replaced >= 1,
                "seed {seed}: {bookinfo:?}"
            );
            assert!(wh.drained_commits() >= 1, "seed {seed}: BookInfo drained its deferral");
        }
    }

    /// Dense per-slot vectors a test keeps from the WAL alone: `Admitted`
    /// records name each key's source and version; an `Applied` record
    /// whose keys are new advances every slot that did not defer it, and one
    /// whose keys committed before (a drain) advances only the slot that
    /// drained it.
    struct DenseModel {
        dense: Vec<ReflectedVersions>,
        versions: HashMap<u64, (SourceId, u64)>,
        committed: std::collections::HashSet<u64>,
        /// Records of the current log already folded.
        cursor: usize,
    }

    impl DenseModel {
        fn fold(&mut self, disk: &dyno_durable::MemStorage) {
            let payloads = payloads(disk);
            for payload in &payloads[self.cursor..] {
                match Record::decode(payload).unwrap() {
                    Record::Admitted(meta) => {
                        let msg = &meta.payload;
                        self.versions.insert(meta.key.0, (msg.source, msg.source_version));
                    }
                    Record::Applied(rec) => {
                        let fresh = rec.keys.iter().all(|k| !self.committed.contains(k));
                        for (dense, change) in self.dense.iter_mut().zip(&rec.changes) {
                            let takes = match change {
                                AppliedChange::Deferred => false,
                                AppliedChange::Skipped => fresh,
                                _ => true,
                            };
                            for k in rec.keys.iter().filter(|_| takes) {
                                let (source, version) = self.versions[k];
                                let entry = dense.entry(source).or_insert(0);
                                *entry = (*entry).max(version);
                            }
                        }
                        self.committed.extend(&rec.keys);
                    }
                    _ => {}
                }
            }
            self.cursor = payloads.len();
        }
    }

    /// The point-in-time audit: every view's extent is its definition over
    /// the sources rewound to the vector the view claims to reflect.
    fn audit_holds(wh: &Warehouse, space: &dyno_source::SourceSpace) -> bool {
        (0..wh.view_count()).all(|i| {
            let at: HashMap<u32, u64> = wh.view_reflected(i).into_iter().collect();
            let mut provider = crate::engine::LocalProvider::new();
            for table in &wh.view(i).query.tables {
                for server in space.servers() {
                    let version = at.get(&server.id().0).copied().unwrap_or(0);
                    if let Ok(rel) = server.state_at(version).unwrap().get(table) {
                        provider.insert_relation(rel);
                        break;
                    }
                }
            }
            let expected = dyno_relational::eval(&wh.view(i).query, &provider).unwrap();
            &expected.rows == wh.mv(i).extent()
        })
    }

    #[test]
    fn implied_vectors_equal_the_dense_vectors_of_every_committed_batch() {
        // Seeded trains over three views and a WAL: Item inserts and
        // deletes, ReaderDigest inserts no view reads, a Library outage
        // that defers the Catalog readers while PriceList commits, a
        // `Publisher` rename, an explicit checkpoint, a recovery and a
        // dropped view. After every step each view's vector equals the one
        // a model advances from the log's records, and the audit holds.
        for seed in 0..16u64 {
            let mut rng = dyno_fault::rng::Rng::new(seed);
            let space = bookinfo_space();
            let info = space.info().clone();
            let mut disk = dyno_durable::MemStorage::new();
            let mut port = DownPort::new(InProcessPort::new(space));
            let mut wh = Warehouse::new(info.clone(), Strategy::Pessimistic);
            let views = [bookinfo_view(), pricelist_view(), publishers_view()];
            for view in views.iter().cloned() {
                wh.add_view_tiered(view, u8::from(rng.gen_ratio(1, 2)));
            }
            wh.initialize(&mut port).unwrap();
            let dense = views
                .iter()
                .map(|view| {
                    let mut v = ReflectedVersions::new();
                    for table in &view.query.tables {
                        let sid = port.locate(table).unwrap();
                        v.insert(sid, port.source_version(sid));
                    }
                    v
                })
                .collect();
            let mut model = DenseModel {
                dense,
                versions: HashMap::new(),
                committed: Default::default(),
                cursor: 1,
            };
            let mut wh = wh.with_wal(DurableLog::create(Box::new(disk.clone())).unwrap()).unwrap();
            wh.set_checkpoint_every(u64::MAX);

            let titles = ["Databases", "Data Integration Guide", "Compilers"];
            let mut script: Vec<&str> = vec!["du", "du", "delete", "digest", "catalog", "du"];
            script.extend(["outage", "du", "catalog", "rename", "digest", "checkpoint"]);
            script.extend(["catalog", "restore", "du", "recover", "drop", "catalog", "du"]);
            rng.shuffle(&mut script[..6]);
            let (mut inserted, mut k, mut drained) = (Vec::new(), 0u64, false);
            for event in script {
                k += 1;
                let update = match event {
                    "du" => {
                        let (sid, title) = (*rng.choose(&[1, 10]), *rng.choose(&titles));
                        let du = insert_item(sid, title, "Adams", k as i64);
                        inserted.push(du.delta.rows().iter().next().unwrap().0.clone());
                        Some((SourceId(0), SourceUpdate::Data(du)))
                    }
                    "delete" => inserted.pop().map(|row| {
                        let delta = dyno_relational::Delta::deletes(item_schema(), [row]);
                        (SourceId(0), SourceUpdate::Data(DataUpdate::new(delta.unwrap())))
                    }),
                    "digest" => {
                        let schema = readerdigest_schema();
                        let row = Tuple::of([Value::str(format!("Article{k}")), Value::str("ok")]);
                        let delta = dyno_relational::Delta::inserts(schema, [row]).unwrap();
                        Some((SourceId(2), SourceUpdate::Data(DataUpdate::new(delta))))
                    }
                    "catalog" => {
                        let title = *rng.choose(&titles);
                        Some((SourceId(1), catalog_insert(&port, title, k)))
                    }
                    "rename" => Some((
                        SourceId(1),
                        SourceUpdate::Schema(SchemaChange::RenameAttribute {
                            relation: "Catalog".into(),
                            from: "Publisher".into(),
                            to: "House".into(),
                        }),
                    )),
                    "outage" => {
                        port.down.insert("Catalog".into());
                        None
                    }
                    "restore" => {
                        port.down.clear();
                        None
                    }
                    "checkpoint" => {
                        wh.checkpoint_now();
                        model.cursor = 1;
                        None
                    }
                    "recover" => {
                        let copy = dyno_durable::MemStorage::new();
                        copy.set(disk.snapshot());
                        let (back, _) = Warehouse::recover(
                            Box::new(copy.clone()),
                            info.clone(),
                            Collector::disabled(),
                        )
                        .unwrap();
                        (wh, disk) = (back, copy);
                        wh.set_checkpoint_every(u64::MAX);
                        model.cursor = 1;
                        None
                    }
                    _ => {
                        let i = rng.gen_range(0..wh.view_count());
                        wh.drop_view(i);
                        model.dense.remove(i);
                        model.cursor = 1;
                        None
                    }
                };
                if let Some((source, update)) = update {
                    port.inner.commit(source, update).unwrap();
                }
                for _ in 0..20 {
                    let outcome = wh.step(&mut port).unwrap();
                    model.fold(&disk);
                    for (i, dense) in model.dense.iter().enumerate() {
                        assert_eq!(
                            wh.view_reflected(i),
                            sorted(dense),
                            "seed {seed}, {event}: view {i}'s vector"
                        );
                    }
                    assert!(audit_holds(&wh, port.inner.space()), "seed {seed}, {event}: audit");
                    drained |= wh.drained_commits() > 0;
                    if outcome == StepOutcome::Idle {
                        break;
                    }
                }
            }
            assert_eq!(wh.deferred_total(), 0, "seed {seed}: the drain caught up");
            assert!(drained, "seed {seed}: a deferral drained");
        }
    }

    /// One `Catalog` row under the name the Library currently gives it.
    fn library_insert(port: &InProcessPort, relation: &str, k: u64) -> SourceUpdate {
        let library = port.space().server(SourceId(1)).catalog();
        let schema = library.get(relation).unwrap().schema().clone();
        let row = Tuple::new(
            schema.attrs().iter().map(|a| Value::str(format!("{}{k}", a.name))).collect(),
        );
        SourceUpdate::Data(DataUpdate::new(dyno_relational::Delta::inserts(schema, [row]).unwrap()))
    }

    #[test]
    fn the_dispatch_index_follows_a_rename_live_and_through_the_drain() {
        // BookInfo and PriceList read Item, BookInfo and Titles read
        // Catalog. A rename of Item rewrites the first two live; a rename
        // of Catalog reaches BookInfo and Titles only through the drain,
        // since the renamed relation is down when the rename commits. After
        // each, a data update to the renamed relation reaches exactly the
        // rewritten views.
        let (mut wh, port) = warehouse();
        let mut port = DownPort::new(port);
        let du_counts =
            |wh: &Warehouse| (0..3).map(|i| wh.stats(i).du_committed).collect::<Vec<_>>();
        let rename = |from: &str, to: &str| {
            SourceUpdate::Schema(SchemaChange::RenameRelation { from: from.into(), to: to.into() })
        };

        port.inner.commit(SourceId(0), rename("Item", "Items2")).unwrap();
        wh.run_to_quiescence(&mut port, 100).unwrap();
        assert_eq!(wh.dag().dependents_of("Items2"), [0, 1]);
        assert!(wh.dag().dependents_of("Item").is_empty());
        let before = du_counts(&wh);
        let schema = port
            .inner
            .space()
            .server(SourceId(0))
            .catalog()
            .get("Items2")
            .unwrap()
            .schema()
            .clone();
        let row = Tuple::of([
            Value::from(1),
            Value::str("Compilers"),
            Value::str("Aho"),
            Value::from(70),
        ]);
        let du = DataUpdate::new(dyno_relational::Delta::inserts(schema, [row]).unwrap());
        port.inner.commit(SourceId(0), SourceUpdate::Data(du)).unwrap();
        wh.run_to_quiescence(&mut port, 100).unwrap();
        let after = du_counts(&wh);
        assert_eq!([after[0] - before[0], after[1] - before[1], after[2] - before[2]], [1, 1, 0]);

        port.down.insert("Catalog2".into());
        port.inner.commit(SourceId(1), rename("Catalog", "Catalog2")).unwrap();
        wh.run_to_quiescence(&mut port, 100).unwrap();
        assert_eq!((wh.deferred_len(0), wh.deferred_len(1), wh.deferred_len(2)), (1, 0, 1));
        assert_eq!(wh.dag().dependents_of("Catalog"), [0, 2], "not rewritten while deferred");
        port.down.clear();
        wh.run_to_quiescence(&mut port, 100).unwrap();
        assert_eq!(wh.deferred_total(), 0);
        assert_eq!(wh.dag().dependents_of("Catalog2"), [0, 2]);
        assert!(wh.dag().dependents_of("Catalog").is_empty());
        let before = du_counts(&wh);
        port.inner.commit(SourceId(1), library_insert(&port.inner, "Catalog2", 1)).unwrap();
        wh.run_to_quiescence(&mut port, 100).unwrap();
        let after = du_counts(&wh);
        assert_eq!([after[0] - before[0], after[1] - before[1], after[2] - before[2]], [1, 0, 1]);
        for i in 0..3 {
            let expected = dyno_relational::eval(&wh.view(i).query, &port.inner.space().provider());
            assert_eq!(wh.mv(i).extent(), &expected.unwrap().rows, "view {i} converged");
        }
    }

    #[test]
    fn shared_and_unshared_execution_are_bit_identical() {
        let run = |share: bool| {
            let space = bookinfo_space();
            let info = space.info().clone();
            let mut port = InProcessPort::new(space);
            let mut wh = Warehouse::new(info, Strategy::Pessimistic).with_subplan_sharing(share);
            wh.add_view(bookinfo_view());
            wh.add_view(pricelist_view());
            wh.add_view(catalog_view());
            wh.initialize(&mut port).unwrap();
            for k in 0..4 {
                port.commit(
                    SourceId(0),
                    SourceUpdate::Data(insert_item(10 + k, "Data Integration Guide", "Adams", 36)),
                )
                .unwrap();
                wh.run_to_quiescence(&mut port, 100).unwrap();
            }
            let extents: Vec<_> = (0..wh.view_count()).map(|i| wh.mv(i).sorted_tuples()).collect();
            (extents, wh.subplan_hits())
        };
        let (shared, hits) = run(true);
        let (unshared, no_hits) = run(false);
        assert_eq!(shared, unshared, "shared hops derive bit-identical view deltas");
        assert!(hits >= 4, "each DU's ΔItem ⋈ Store hop was shared, got {hits}");
        assert_eq!(no_hits, 0, "sharing off never consults the cache");
    }

    #[test]
    fn dag_refresh_order_follows_tiers() {
        let space = bookinfo_space();
        let info = space.info().clone();
        let mut port = InProcessPort::new(space);
        let mut wh = Warehouse::new(info, Strategy::Pessimistic);
        wh.add_view_tiered(bookinfo_view(), 1);
        wh.add_view_tiered(pricelist_view(), 0);
        wh.add_view_tiered(catalog_view(), 1);
        wh.initialize(&mut port).unwrap();
        assert_eq!(wh.dag().refresh_order(), vec![1, 0, 2], "ascending tier, index breaks ties");
        assert_eq!(
            wh.dag().dependents_of("Catalog"),
            [0, 2],
            "Catalog feeds BookInfo and Titles, in refresh order"
        );
        assert_eq!(wh.dag().dependents_of("Item"), [1, 0], "PriceList is tier 0, BookInfo tier 1");
    }

    #[test]
    fn drop_view_retires_its_lane_and_checkpoints_the_new_shape() {
        let space = bookinfo_space();
        let info = space.info().clone();
        let mut port = InProcessPort::new(space);
        let disk = dyno_durable::MemStorage::new();
        let tracker = dyno_obs::StalenessTracker::new(8);
        let mut wh = Warehouse::new(info, Strategy::Pessimistic).with_staleness(tracker.clone());
        wh.add_view(bookinfo_view());
        wh.add_view(pricelist_view());
        wh.add_view(catalog_view());
        wh.initialize(&mut port).unwrap();
        let mut wh =
            wh.with_wal(DurableLog::create(Box::new(disk.clone())).unwrap()).expect("no bound");
        assert_eq!(wh.dag().view_count(), 3);

        wh.drop_view(1);
        assert_eq!(wh.view_count(), 2);
        assert_eq!(wh.dag().view_count(), 2);
        assert!(tracker.is_retired(1), "the dropped view's lane is tombstoned, not reindexed");

        // Maintenance after the drop logs records in the 2-view shape and
        // recovery replays them cleanly.
        commit_guide(&mut port);
        wh.run_to_quiescence(&mut port, 100).unwrap();
        let info = port.space().info().clone();
        drop(wh);
        let (back, report) = Warehouse::recover(Box::new(disk), info, Collector::wall()).unwrap();
        assert_eq!(report.torn_records, 0);
        assert_eq!(back.view_count(), 2);
        assert_eq!(back.mv(0).len(), 2, "post-drop maintenance survived recovery");
    }

    /// A durable two-view warehouse whose checkpoint has every optional
    /// part of the image: a deferred batch, a merged UMQ node behind a plain
    /// one, and a replication snapshot. The Library (`Catalog`) and the
    /// Retailer's relations are down when it returns.
    fn deferred_and_merged() -> (Warehouse, DownPort, dyno_durable::MemStorage, InfoSpace) {
        let space = bookinfo_space();
        let info = space.info().clone();
        let disk = dyno_durable::MemStorage::new();
        let mut port = DownPort::new(InProcessPort::new(space));
        let mut wh = Warehouse::new(info.clone(), Strategy::Pessimistic);
        wh.add_view(bookinfo_view());
        wh.add_view(pricelist_view());
        wh.initialize(&mut port).unwrap();
        let mut wh =
            wh.with_wal(DurableLog::create(Box::new(disk.clone())).unwrap()).expect("no bound");
        wh.set_replica_ext(vec![0xDE, 0xAD, 0xBE, 0xEF]);

        port.down.insert("Catalog".into());
        commit_guide(&mut port.inner);
        wh.step(&mut port).unwrap();
        assert_eq!(wh.deferred_len(0), 1, "BookInfo deferred the insert");
        // Correction merges an insert with the restructuring that
        // invalidates it; with the Retailer down as well no view can
        // maintain the merged node, so it parks at the head of the queue.
        for rel in ["Store", "Item", "StoreItems"] {
            port.down.insert(rel.into());
        }
        port.inner
            .commit(SourceId(0), SourceUpdate::Data(insert_item(11, "Guide", "Brook", 41)))
            .unwrap();
        commit_storeitems(&mut port.inner);
        wh.step(&mut port).unwrap();
        let nodes: Vec<usize> = wh.umq.nodes().iter().map(|n| n.len()).collect();
        assert!(nodes.iter().any(|&n| n > 1), "a merged node is queued: {nodes:?}");
        wh.checkpoint_now();
        (wh, port, disk, info)
    }

    /// The payload of every intact record on `disk`.
    fn payloads(disk: &dyno_durable::MemStorage) -> Vec<Vec<u8>> {
        let (_, replay) = dyno_durable::Wal::open(Box::new(disk.clone())).unwrap();
        replay.payloads().map(<[u8]>::to_vec).collect()
    }

    #[test]
    fn checkpoint_from_live_state_equals_the_one_rewritten_from_its_decoded_form() {
        // The live checkpoint is encoded from the running warehouse;
        // recovery's closing checkpoint is encoded from the warehouse it
        // decoded. Same bytes, with every optional part of the image present.
        let (_, _, disk, info) = deferred_and_merged();
        let live = payloads(&disk);
        assert_eq!(live.len(), 1, "a checkpoint truncates the log");
        let (back, _) =
            Warehouse::recover(Box::new(disk.clone()), info, Collector::wall()).unwrap();
        assert_eq!(payloads(&disk), live);
        assert_eq!(back.replica_ext(), [0xDE, 0xAD, 0xBE, 0xEF]);
        assert_eq!(back.deferred_len(0), 1);
    }

    #[test]
    fn hostile_bytes_at_the_recovery_boundary_never_panic_and_recover_idempotently() {
        // A real log holding every record kind after that checkpoint: the
        // merged node commits for PriceList while BookInfo defers it, then
        // the replication engine's publish and remote records, an admission.
        let (mut wh, mut port, disk, info) = deferred_and_merged();
        for rel in ["Store", "Item", "StoreItems"] {
            port.down.remove(rel);
        }
        wh.step(&mut port).unwrap();
        assert_eq!(wh.deferred_len(0), 2, "BookInfo deferred the merged node too");
        wh.log_replica_published(b"published");
        wh.log_replica_remote(b"applied");
        wh.log_replica_remote(b"superseded");
        insert_catalog(&mut port);
        wh.ingest(port.drain_arrivals());
        let log = payloads(&disk);
        let mut tags: Vec<u8> = log.iter().map(|p| p[0]).collect();
        tags.dedup();
        assert_eq!(tags, [1, 3, 4, 5, 2], "checkpoint, intent, applied, replica, admitted");

        // Each case damages one payload — a bit flip, a truncation, an
        // extension, or a 4-byte length-like overwrite — and re-frames the
        // log, so every CRC passes and only the decoders see the damage.
        let mut rng = dyno_fault::rng::Rng::new(0x0BAD_B17E);
        let (mut oks, mut torn) = (0, 0);
        for case in 0..300 {
            let mut damaged = log.clone();
            let p = &mut damaged[rng.gen_range(0..log.len())];
            match rng.gen_range(0..4u32) {
                0 => {
                    let at = rng.gen_range(0..p.len());
                    p[at] ^= 1 << rng.gen_range(0..8u32);
                }
                1 => p.truncate(rng.gen_range(0..p.len())),
                2 => p.extend((0..rng.gen_range(1..9usize)).map(|_| rng.next_u64() as u8)),
                _ => {
                    let at = rng.gen_range(0..p.len().saturating_sub(3).max(1));
                    let len = [0, 1, 7, p.len() as u32, u32::MAX, rng.next_u64() as u32];
                    let bytes = rng.choose(&len).to_le_bytes();
                    let end = (at + 4).min(p.len());
                    p[at..end].copy_from_slice(&bytes[..end - at]);
                }
            }
            let hostile = dyno_durable::MemStorage::new();
            let mut wal = dyno_durable::Wal::create(Box::new(hostile.clone())).unwrap();
            for payload in &damaged {
                wal.append_with(|e| e.raw(payload)).unwrap();
            }
            let recover = || {
                Warehouse::recover(Box::new(hostile.clone()), info.clone(), Collector::disabled())
            };
            let Ok((_, report)) = recover() else { continue };
            oks += 1;
            torn += report.torn_records;
            let first = payloads(&hostile);
            recover().unwrap_or_else(|e| panic!("case {case}: a recovered log fails again: {e}"));
            assert_eq!(payloads(&hostile), first, "case {case}: a second recovery moved the image");
        }
        assert!(oks >= 100 && torn >= 50, "{oks} recoveries, {torn} torn records");
    }

    #[test]
    fn deferred_batch_survives_recovery_and_drains() {
        let space = bookinfo_space();
        let info = space.info().clone();
        let disk = dyno_durable::MemStorage::new();
        let mut port = DownPort::new(InProcessPort::new(space));
        let mut wh = Warehouse::new(info, Strategy::Pessimistic);
        wh.add_view(bookinfo_view());
        wh.add_view(pricelist_view());
        wh.initialize(&mut port).unwrap();
        let mut wh =
            wh.with_wal(DurableLog::create(Box::new(disk.clone())).unwrap()).expect("no bound");

        port.down.insert("Catalog".into());
        port.inner
            .commit(
                SourceId(0),
                SourceUpdate::Data(insert_item(10, "Data Integration Guide", "Adams", 36)),
            )
            .unwrap();
        wh.run_to_quiescence(&mut port, 100).unwrap();
        assert_eq!(wh.deferred_len(0), 1);

        let info = port.inner.space().info().clone();
        drop(wh);
        let (mut back, _) = Warehouse::recover(Box::new(disk), info, Collector::wall()).unwrap();
        assert_eq!(back.deferred_len(0), 1, "the deferred batch is durable");
        assert_eq!(back.mv(1).len(), 2, "the peer's commit is durable");

        port.down.clear();
        back.run_to_quiescence(&mut port, 100).unwrap();
        assert_eq!(back.deferred_total(), 0);
        for i in 0..back.view_count() {
            let expected =
                dyno_relational::eval(&back.view(i).query, &port.inner.space().provider()).unwrap();
            assert_eq!(back.mv(i).extent(), &expected.rows, "view {i} converged after restart");
        }
    }

    #[test]
    fn undefinable_for_one_view_fails_the_warehouse() {
        let (mut wh, mut port) = warehouse();
        port.commit(
            SourceId(1),
            SourceUpdate::Schema(SchemaChange::DropRelation { relation: "Catalog".into() }),
        )
        .unwrap();
        assert!(matches!(wh.run_to_quiescence(&mut port, 100), Err(ViewError::Undefinable(_))));
    }

    /// Inserts one `Catalog` row (in the Library's current schema) that
    /// joins the seeded `Databases` item.
    fn insert_catalog(port: &mut DownPort) {
        let library = port.inner.space().server(SourceId(1)).catalog();
        let schema = library.get("Catalog").unwrap().schema().clone();
        let row = dyno_relational::Tuple::of(
            ["Databases", "Ullman", "CS", "Addison", "reprint"].map(Value::str),
        );
        let du = DataUpdate::new(dyno_relational::Delta::inserts(schema, [row]).unwrap());
        port.inner.commit(SourceId(1), SourceUpdate::Data(du)).unwrap();
    }

    fn commit_rename_publisher(port: &mut DownPort) {
        let sc = SchemaChange::RenameAttribute {
            relation: "Catalog".into(),
            from: "Publisher".into(),
            to: "House".into(),
        };
        port.inner.commit(SourceId(1), SourceUpdate::Schema(sc)).unwrap();
    }

    #[test]
    fn drain_merges_forward_to_the_schema_change_its_head_trips_over() {
        use crate::wal::CrashPoint;
        // BookInfo defers an Item insert while the Library is down; the
        // Library's `Publisher` rename then commits for its peers and
        // defers behind the insert, and a Catalog insert behind that. Once
        // the Library is back the Item insert's `Catalog` hop is a broken
        // query: the drain aborts it, merges it with the rename and commits
        // the pair as one adaptation, then drains the lone insert behind
        // them.
        // A kill armed before the Library returns strikes the drain's own
        // records: the merged batch's intent, its applied, the lone DU's
        // intent.
        let run = |wal: bool, kill: Option<CrashPoint>| {
            let space = bookinfo_space();
            let info = space.info().clone();
            let disk = dyno_durable::MemStorage::new();
            let mut port = DownPort::new(InProcessPort::new(space));
            let mut wh = Warehouse::new(info.clone(), Strategy::Pessimistic);
            wh.add_view(bookinfo_view());
            wh.add_view(pricelist_view());
            wh.initialize(&mut port).unwrap();
            if wal {
                wh = wh.with_wal(DurableLog::create(Box::new(disk.clone())).unwrap()).unwrap();
            }

            port.down.insert("Catalog".into());
            commit_guide(&mut port.inner);
            wh.run_to_quiescence(&mut port, 100).unwrap();
            commit_rename_publisher(&mut port);
            wh.run_to_quiescence(&mut port, 100).unwrap();
            insert_catalog(&mut port);
            wh.run_to_quiescence(&mut port, 100).unwrap();
            assert_eq!(wh.deferred_len(0), 3, "the rename deferred behind the insert");
            assert!(wh.view_reflected(1).iter().any(|&(s, _)| s == 1), "PriceList moved on");
            assert_eq!(wh.stats(0).aborts, 0, "a down source parks, it does not abort");

            if let Some(point) = kill {
                wh.arm_crash(CrashPlan { point, skip: 0 });
            }
            port.down.clear();
            let mut kills = 0;
            while wh.step(&mut port).unwrap() != StepOutcome::Idle {
                if wh.wal_power_cut() {
                    kills += 1;
                    let (back, report) =
                        Warehouse::recover(Box::new(disk.clone()), info.clone(), Collector::wall())
                            .unwrap();
                    assert_eq!(report.torn_records, 0, "a power cut drops whole records");
                    wh = back;
                }
            }
            assert_eq!(kills, u32::from(kill.is_some()), "{kill:?}: the planned cut fired");
            assert_eq!(wh.deferred_total(), 0, "{kill:?}: the drain caught BookInfo up");
            if kill.is_none() {
                assert_eq!(wh.stats(0).aborts, 1, "only the drained slot paid the broken query");
                assert_eq!(wh.stats(1).aborts, 0);
                let merged = (wh.stats(0).batches_committed, wh.stats(0).batched_updates);
                assert_eq!(merged, (1, 2), "insert + rename committed as one batch");
                assert_eq!(wh.drained_commits(), 2, "the merged batch, then the lone DU");
            }
            for i in 0..wh.view_count() {
                let expected =
                    dyno_relational::eval(&wh.view(i).query, &port.inner.space().provider());
                assert_eq!(wh.mv(i).extent(), &expected.unwrap().rows, "{kill:?}: view {i}");
                for (s, v) in wh.view_reflected(i) {
                    assert_eq!(Some(&v), wh.reflected().get(&SourceId(s)), "{kill:?}: view {i}");
                }
            }
            let n = wh.view_count();
            let extents: Vec<_> = (0..n).map(|i| wh.mv(i).sorted_tuples()).collect();
            let sql: Vec<String> = (0..n).map(|i| wh.view(i).to_string()).collect();
            let vectors: Vec<_> = (0..n).map(|i| wh.view_reflected(i)).collect();
            (extents, sql, vectors, wh.reflected().clone())
        };

        let clean = run(true, None);
        assert_eq!(run(false, None), clean, "the WAL changes nothing the views show");
        for point in [CrashPoint::BetweenSteps, CrashPoint::AfterIntent, CrashPoint::MidBatch] {
            assert_eq!(run(true, Some(point)), clean, "{point:?}: recovery finishes identically");
        }
    }

    /// What the shared failure step leaves observable after one
    /// [`Warehouse::step`]: registry counter deltas, the last lifecycle
    /// event the port saw, and the kept error.
    #[derive(Debug, PartialEq)]
    struct FailureSeen {
        aborts: u64,
        parked: u64,
        event: Option<String>,
        last_error: Option<ViewError>,
    }

    struct Rig {
        wh: Warehouse,
        port: DownPort,
        obs: Collector,
    }

    impl Rig {
        /// BookInfo beside one peer, under the optimistic strategy (so a
        /// queued DU is maintained before the SC that breaks it).
        fn new(peer: ViewDefinition) -> Self {
            let space = bookinfo_space();
            let info = space.info().clone();
            let mut port = DownPort::new(InProcessPort::new(space));
            let obs = Collector::wall();
            let mut wh = Warehouse::new(info, Strategy::Optimistic).with_obs(obs.clone());
            wh.add_view(bookinfo_view());
            wh.add_view(peer);
            wh.initialize(&mut port).unwrap();
            Rig { wh, port, obs }
        }

        fn down(mut self, relation: &str) -> Self {
            self.port.down.insert(relation.into());
            self
        }

        fn settle(&mut self) {
            self.wh.run_to_quiescence(&mut self.port, 100).unwrap();
        }

        fn observe_step(&mut self) -> FailureSeen {
            let counter = |name| self.obs.registry().counter_value(name).unwrap_or(0);
            let before = (counter("view.aborts"), counter("view.parked"));
            let mut traced = TracingPort::new(&mut self.port);
            let _ = self.wh.step(&mut traced);
            let event =
                traced.trace().iter().rev().find(|e| *e == "ABORT" || *e == "PARK").cloned();
            FailureSeen {
                aborts: counter("view.aborts") - before.0,
                parked: counter("view.parked") - before.1,
                event,
                last_error: self.wh.last_error().cloned(),
            }
        }

        fn empty_bookinfo_extent(&mut self) {
            let mv = &mut self.wh.views.slots[0].mv;
            let cols = mv.cols().to_vec();
            mv.replace(cols, ZSet::new()).unwrap();
        }
    }

    fn delete_the_seeded_item(port: &mut DownPort) {
        let row = dyno_relational::Tuple::of([
            Value::from(1),
            Value::str("Databases"),
            Value::str("Ullman"),
            Value::from(50),
        ]);
        let du = DataUpdate::new(dyno_relational::Delta::deletes(item_schema(), [row]).unwrap());
        port.inner.commit(SourceId(0), SourceUpdate::Data(du)).unwrap();
    }

    fn commit_drop_title(port: &mut DownPort) {
        let sc = SchemaChange::DropAttribute { relation: "Catalog".into(), attr: "Title".into() };
        port.inner.commit(SourceId(1), SourceUpdate::Schema(sc)).unwrap();
    }

    /// A Library-only peer that does not read `Catalog.Title`.
    fn publishers_view() -> ViewDefinition {
        let q = SpjQuery::over(["Catalog"])
            .select("Catalog", "Publisher")
            .select("Catalog", "Category")
            .build();
        ViewDefinition::new("Publishers", q)
    }

    #[test]
    fn every_failure_kind_looks_the_same_from_the_shared_queue_and_from_the_drain() {
        type Scenario = fn(bool) -> FailureSeen;
        // Each scenario reaches one `BatchFailure` kind through `maintain`
        // (`false`) or through the deferred drain (`true`).
        let broken: Scenario = |via_drain| {
            let mut rig = Rig::new(pricelist_view());
            if via_drain {
                rig = rig.down("Catalog");
                commit_guide(&mut rig.port.inner);
                rig.settle();
                assert_eq!(rig.wh.deferred_len(0), 1);
            } else {
                commit_guide(&mut rig.port.inner);
            }
            commit_storeitems(&mut rig.port.inner);
            let seen = rig.observe_step();
            // The one difference kept on purpose: a shared-queue abort
            // discards every view's staged work, a drained one only its own.
            let peer_aborts = u64::from(!via_drain);
            assert_eq!((rig.wh.stats(0).aborts, rig.wh.stats(1).aborts), (1, peer_aborts));
            seen
        };
        let unavailable: Scenario = |via_drain| {
            let mut rig =
                Rig::new(pricelist_view()).down(if via_drain { "Catalog" } else { "Store" });
            commit_guide(&mut rig.port.inner);
            if via_drain {
                rig.settle();
                assert_eq!(rig.wh.deferred_len(0), 1);
            }
            rig.observe_step()
        };
        let undefinable: Scenario = |via_drain| {
            let mut rig = Rig::new(publishers_view());
            if via_drain {
                // A Catalog insert defers (its Store hop is down) and the
                // SC behind it; once Store is back the insert drains and
                // the SC is staged alone.
                rig = rig.down("Store");
                insert_catalog(&mut rig.port);
                rig.settle();
                commit_drop_title(&mut rig.port);
                rig.settle();
                assert_eq!(rig.wh.deferred_len(0), 2);
                rig.port.down.clear();
            } else {
                commit_drop_title(&mut rig.port);
            }
            rig.observe_step()
        };
        let internal: Scenario = |via_drain| {
            let mut rig = Rig::new(pricelist_view());
            if via_drain {
                rig = rig.down("Catalog");
                delete_the_seeded_item(&mut rig.port);
                rig.settle();
                rig.port.down.clear();
            } else {
                delete_the_seeded_item(&mut rig.port);
            }
            // The delete's view delta now has nothing to cancel.
            rig.empty_bookinfo_extent();
            let seen = rig.observe_step();
            if via_drain {
                assert_eq!(rig.wh.deferred_len(0), 1, "the failed batch stays deferred");
            }
            seen
        };

        let table: [(&str, Scenario, u64, u64, &str); 4] = [
            ("Broken", broken, 1, 0, "ABORT"),
            ("Unavailable", unavailable, 0, 1, "PARK"),
            ("Undefinable", undefinable, 0, 0, "ABORT"),
            ("Internal", internal, 0, 0, "ABORT"),
        ];
        for (kind, scenario, aborts, parked, event) in table {
            let (shared, drained) = (scenario(false), scenario(true));
            assert_eq!(shared, drained, "{kind}: the two callers share one failure path");
            assert_eq!((shared.aborts, shared.parked), (aborts, parked), "{kind}: counters");
            assert_eq!(shared.event.as_deref(), Some(event), "{kind}: port event");
            match (kind, &shared.last_error) {
                ("Undefinable", Some(ViewError::Undefinable(_))) => {}
                ("Internal", Some(ViewError::Internal(_))) => {}
                ("Broken" | "Unavailable", None) => {}
                (_, other) => panic!("{kind}: last_error {other:?}"),
            }
        }
    }
}
