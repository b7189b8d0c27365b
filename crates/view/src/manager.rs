//! The view manager: integrates VM (SWEEP), VS, VA and the Dyno scheduler
//! over a single materialized view (paper Figure 3).

use std::collections::HashMap;

use dyno_core::{
    CorrectionPolicy, Dyno, DynoStats, MaintainOutcome, Maintainer, StepOutcome, Strategy, Umq,
    UpdateKind, UpdateMeta,
};
use dyno_durable::storage::Storage;
use dyno_obs::{field, Collector, Level};
use dyno_relational::{RelationalError, SourceUpdate};
use dyno_source::{InfoSpace, SourceId, UpdateMessage};

use crate::batch::{adapt_batch_observed, AdaptationMode, Adapted, BatchFailure};
use crate::engine::{MaintEvent, SourcePort};
use crate::ingress::IngressGate;
use crate::mview::MaterializedView;
use crate::plan::PlanCache;
use crate::viewdef::ViewDefinition;
use crate::vm::sweep_maintain_shared;
use crate::vs::VsError;
use crate::wal::{
    sorted_versions, AppliedChange, AppliedRecord, CrashPlan, DurableLog, DurableState,
    RecoverError, RecoverReport, ViewState,
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

/// Counters for one manager's lifetime.
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

/// The per-source versions the materialized view currently reflects.
pub type ReflectedVersions = HashMap<SourceId, u64>;

/// A materialized view plus everything needed to maintain it.
#[derive(Debug, Clone)]
pub struct ViewManager {
    dyno: Dyno,
    umq: Umq<UpdateMessage>,
    core: ViewCore,
}

/// The manager's mutable state, separated so the maintenance context can
/// borrow it alongside the scheduler and queue.
#[derive(Debug, Clone)]
struct ViewCore {
    view: ViewDefinition,
    mv: MaterializedView,
    info: InfoSpace,
    reflected: ReflectedVersions,
    stats: ViewStats,
    last_error: Option<ViewError>,
    adaptation: AdaptationMode,
    obs: Collector,
    plans: PlanCache,
    ingress: IngressGate,
    wal: Option<DurableLog>,
}

impl ViewManager {
    /// Creates a manager for `view` with the given detection strategy.
    /// Call [`ViewManager::initialize`] before processing updates.
    pub fn new(view: ViewDefinition, info: InfoSpace, strategy: Strategy) -> Self {
        let mv = MaterializedView::new(view.name.clone(), view.output_cols());
        ViewManager {
            dyno: Dyno::new(strategy),
            umq: Umq::new(),
            core: ViewCore {
                view,
                mv,
                info,
                reflected: HashMap::new(),
                stats: ViewStats::default(),
                last_error: None,
                adaptation: AdaptationMode::default(),
                obs: Collector::disabled(),
                plans: PlanCache::new(),
                ingress: IngressGate::new(),
                wal: None,
            },
        }
    }

    /// Attaches a write-ahead log and writes the first checkpoint. Call
    /// **after** [`ViewManager::initialize`] so the baseline snapshot covers
    /// the populated extent.
    pub fn with_wal(mut self, mut log: DurableLog) -> Self {
        log.bind_obs(&self.core.obs);
        self.core.wal = Some(log);
        self.checkpoint_now();
        self
    }

    fn durable_state(&self) -> DurableState {
        DurableState {
            strategy: self.dyno.strategy(),
            policy: self.dyno.policy(),
            adaptation: self.core.adaptation,
            dedupe: self.core.ingress.dedupe_enabled(),
            views: vec![ViewState {
                sql: self.core.view.to_string(),
                cols: self.core.mv.cols().to_vec(),
                extent: self.core.mv.extent().clone(),
                reflected: sorted_versions(self.core.reflected.iter().map(|(s, v)| (s.0, *v))),
                deferred: vec![],
                tier: 0,
            }],
            reflected: sorted_versions(self.core.reflected.iter().map(|(s, v)| (s.0, *v))),
            marks: self.core.ingress.marks(),
            batches: self.umq.nodes().iter().map(|b| b.to_vec()).collect(),
            sc_flag: self.umq.schema_change_flag(),
            ext: Vec::new(),
            tail: Vec::new(),
        }
    }

    /// Forces a checkpoint now (no-op without a WAL or after a power cut).
    pub fn checkpoint_now(&mut self) {
        if self.core.wal.is_some() {
            let state = self.durable_state();
            if let Some(log) = self.core.wal.as_mut() {
                log.checkpoint(&state);
            }
        }
    }

    /// Arms a deterministic power cut on the attached WAL (chaos testing).
    pub fn arm_crash(&mut self, plan: CrashPlan) {
        if let Some(log) = self.core.wal.as_mut() {
            log.arm(plan);
        }
    }

    /// True once the attached WAL's simulated power has been cut.
    pub fn wal_power_cut(&self) -> bool {
        self.core.wal.as_ref().is_some_and(DurableLog::power_cut)
    }

    /// The ingress gate's admitted high-water marks (resubscription baseline).
    pub fn ingress_marks(&self) -> Vec<(u32, u64)> {
        self.core.ingress.marks()
    }

    /// Rebuilds a manager from a WAL — the single-view counterpart of
    /// [`crate::Warehouse::recover`]; see there for the replay semantics.
    pub fn recover(
        storage: Box<dyn Storage>,
        info: InfoSpace,
        obs: Collector,
    ) -> Result<(Self, RecoverReport), RecoverError> {
        let (log, state, report) = crate::wal::recover(storage, &obs)?;
        let [vs]: [ViewState; 1] = <[ViewState; 1]>::try_from(state.views)
            .map_err(|v| RecoverError::Corrupt(format!("manager log holds {} views", v.len())))?;
        let view = ViewDefinition::parse(&vs.sql, "view")
            .map_err(|e| RecoverError::Corrupt(format!("checkpointed view sql: {e}")))?;
        let mut mv = MaterializedView::new(view.name.clone(), vs.cols.clone());
        mv.replace(vs.cols, vs.extent)
            .map_err(|e| RecoverError::Corrupt(format!("checkpointed extent: {e}")))?;
        let mut dyno = Dyno::new(state.strategy).with_obs(obs.clone());
        dyno.set_policy(state.policy);
        let mut ingress = IngressGate::new();
        ingress.bind_obs(&obs);
        ingress.set_dedupe(state.dedupe);
        ingress.restore_marks(&state.marks);
        let mgr = ViewManager {
            dyno,
            umq: Umq::restore(state.batches, state.sc_flag),
            core: ViewCore {
                view,
                mv,
                info,
                reflected: state.reflected.iter().map(|&(s, v)| (SourceId(s), v)).collect(),
                stats: ViewStats::default(),
                last_error: None,
                adaptation: state.adaptation,
                obs,
                plans: PlanCache::new(),
                ingress,
                wal: Some(log),
            },
        };
        Ok((mgr, report))
    }

    /// Overrides the scheduler's correction policy (default: cycle merge;
    /// `MergeAll` is the blind-merge ablation baseline of paper Section 4.2).
    /// Mutates the scheduler in place, so builder-call order does not matter
    /// and accumulated stats / the bound collector survive.
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
        self.core.ingress.bind_obs(&obs);
        self.core.obs = obs;
        self
    }

    /// Enables/disables the UMQ admission gate's dedupe+resequencing
    /// (default on). Disabling exists solely so the chaos suite can prove
    /// it detects the resulting double-applies.
    pub fn with_ingest_dedupe(mut self, enabled: bool) -> Self {
        self.core.ingress.set_dedupe(enabled);
        self
    }

    /// The manager's observability collector (disabled unless one was
    /// attached with [`ViewManager::with_obs`]).
    pub fn obs(&self) -> &Collector {
        &self.core.obs
    }

    /// Selects the view-adaptation mode (default: incremental when the
    /// batch preserves the view's shape). `RecomputeOnly` is the ablation
    /// baseline.
    pub fn with_adaptation(mut self, mode: AdaptationMode) -> Self {
        self.core.adaptation = mode;
        self
    }

    /// Populates the extent by evaluating the view over the sources'
    /// current states and records the reflected versions. Must run before
    /// any source commits are in flight.
    pub fn initialize(&mut self, port: &mut dyn SourcePort) -> Result<(), ViewError> {
        let result = port.execute(&self.core.view.query, &[]).map_err(ViewError::Internal)?;
        self.core.mv.replace(result.cols, result.rows).map_err(ViewError::Internal)?;
        for table in &self.core.view.query.tables {
            if let Some(sid) = port.locate(table) {
                let v = port.source_version(sid);
                self.core.reflected.insert(sid, v);
            }
        }
        // Anything committed before this point is already in the extent the
        // evaluation above produced — its buffered wrapper messages must not
        // be maintained a second time.
        port.drain_arrivals();
        Ok(())
    }

    /// Enqueues wrapper messages into the UMQ (the `UMQ_Manager` of paper
    /// Figure 7).
    pub fn ingest<I: IntoIterator<Item = UpdateMessage>>(&mut self, messages: I) {
        for msg in messages {
            // The admission gate dedupes by (source, version) — including
            // messages committed before initialization, via the reflected
            // floor — and resequences early arrivals so enqueue order always
            // equals version order per source.
            let floor = self.core.reflected.get(&msg.source).copied().unwrap_or(0);
            for msg in self.core.ingress.admit(msg, floor) {
                let kind = match &msg.update {
                    SourceUpdate::Data(_) => UpdateKind::Data,
                    SourceUpdate::Schema(sc) => UpdateKind::Schema {
                        invalidates_view: self.core.view.is_invalidated_by(sc),
                    },
                };
                self.core.obs.prov(
                    msg.id.0,
                    dyno_obs::stage::ADMIT,
                    &[
                        field("source", msg.source.0),
                        field("version", msg.source_version),
                        field("kind", if msg.is_schema_change() { "SC" } else { "DU" }),
                    ],
                );
                let meta = UpdateMeta::new(msg.id.0, msg.source.0, kind, msg);
                if let Some(log) = self.core.wal.as_mut() {
                    log.log_admitted(&meta);
                }
                self.umq.enqueue(meta);
            }
        }
    }

    /// Drains port arrivals and runs one Dyno scheduling step.
    pub fn step(&mut self, port: &mut dyn SourcePort) -> Result<StepOutcome, ViewError> {
        let arrivals = port.drain_arrivals();
        self.ingest(arrivals);
        let mut ctx = MaintCtx { core: &mut self.core, port, drained: Vec::new() };
        let outcome = self.dyno.step(&mut self.umq, &mut ctx);
        let drained = std::mem::take(&mut ctx.drained);
        self.ingest(drained);
        if outcome == StepOutcome::Failed {
            return Err(self.core.last_error.take().unwrap_or(ViewError::Internal(
                RelationalError::InvalidQuery {
                    reason: "maintenance failed without recording an error".into(),
                },
            )));
        }
        if self.core.wal.as_ref().is_some_and(DurableLog::should_checkpoint) {
            self.checkpoint_now();
        }
        Ok(outcome)
    }

    /// Steps until the queue is empty and no arrivals remain, or `max_steps`
    /// is exhausted (guards against the theoretical infinite-abort loop of
    /// paper Section 4.4).
    pub fn run_to_quiescence(
        &mut self,
        port: &mut dyn SourcePort,
        max_steps: u64,
    ) -> Result<u64, ViewError> {
        let mut steps = 0;
        loop {
            match self.step(port)? {
                StepOutcome::Idle => {
                    // `step` ingests arrivals before checking the queue, so
                    // Idle means both the port stream and the queue are dry.
                    return Ok(steps);
                }
                _ => {
                    steps += 1;
                    if steps >= max_steps {
                        return Ok(steps);
                    }
                }
            }
        }
    }

    /// The current view definition (rewritten over time by VS).
    pub fn view(&self) -> &ViewDefinition {
        &self.core.view
    }

    /// The materialized extent.
    pub fn mv(&self) -> &MaterializedView {
        &self.core.mv
    }

    /// Per-source versions the extent currently reflects.
    pub fn reflected(&self) -> &ReflectedVersions {
        &self.core.reflected
    }

    /// Maintenance counters.
    pub fn stats(&self) -> ViewStats {
        self.core.stats
    }

    /// Scheduler counters.
    pub fn dyno_stats(&self) -> DynoStats {
        self.dyno.stats()
    }

    /// Buffered (unprocessed) update count.
    pub fn backlog(&self) -> usize {
        self.umq.update_count()
    }
}

/// Borrowed maintenance context: implements the scheduler's [`Maintainer`]
/// over the manager's state and a source port.
struct MaintCtx<'a> {
    core: &'a mut ViewCore,
    port: &'a mut dyn SourcePort,
    drained: Vec<UpdateMessage>,
}

impl MaintCtx<'_> {
    fn commit_bookkeeping(&mut self, batch: &[UpdateMeta<UpdateMessage>]) {
        for meta in batch {
            let msg = &meta.payload;
            let entry = self.core.reflected.entry(msg.source).or_insert(0);
            *entry = (*entry).max(msg.source_version);
        }
    }
}

impl Maintainer<UpdateMessage> for MaintCtx<'_> {
    fn maintain(
        &mut self,
        batch: &[UpdateMeta<UpdateMessage>],
        rest: &[&[UpdateMeta<UpdateMessage>]],
    ) -> MaintainOutcome {
        let schema_changes = batch.iter().filter(|m| m.payload.is_schema_change()).count();
        self.port.on_maintenance_event(MaintEvent::Begin { updates: batch.len(), schema_changes });
        let pending: Vec<&UpdateMessage> =
            rest.iter().flat_map(|node| node.iter().map(|m| &m.payload)).collect();

        let is_plain_du =
            batch.len() == 1 && matches!(batch[0].payload.update, SourceUpdate::Data(_));

        let _span = self.core.obs.span(
            "view.maintain",
            &[
                field("updates", batch.len()),
                field("schema_changes", schema_changes),
                field("kind", if is_plain_du { "du" } else { "batch" }),
            ],
        );
        self.core.obs.counter("view.attempts").inc();

        // Commit protocol, write 1 of 2: the intent is durable before any
        // maintenance query runs (see `crate::wal`).
        if let Some(log) = self.core.wal.as_mut() {
            let keys: Vec<u64> = batch.iter().map(|m| m.key.0).collect();
            log.log_intent(&keys, schema_changes > 0);
        }
        for meta in batch {
            self.core.obs.prov(meta.key.0, dyno_obs::stage::INTENT, &[]);
        }

        let mut written_rows: u64 = 0;
        let mut logged: Option<AppliedChange> = None;
        let failure: Option<BatchFailure> = if is_plain_du {
            let (result, drained) = sweep_maintain_shared(
                &self.core.view,
                &batch[0].payload,
                &pending,
                self.port,
                &mut self.core.plans,
                &self.core.obs,
                None,
            );
            self.drained.extend(drained);
            match result {
                Ok(delta) => {
                    let written = delta.rows.weight();
                    match self.core.mv.apply_delta(&delta.cols, &delta.rows) {
                        Ok(()) => {
                            self.port.charge_mv_write(written);
                            written_rows = written;
                            self.core.stats.du_committed += 1;
                            if self.core.wal.is_some() {
                                logged = Some(AppliedChange::Delta { rows: delta.rows.clone() });
                            }
                            None
                        }
                        Err(e) => Some(BatchFailure::Internal(e)),
                    }
                }
                Err(f) => Some(f.into()),
            }
        } else {
            let refs: Vec<&UpdateMessage> = batch.iter().map(|m| &m.payload).collect();
            let (result, drained) = adapt_batch_observed(
                &self.core.view,
                &refs,
                &pending,
                &self.core.info,
                self.core.adaptation,
                self.port,
                &self.core.obs,
            );
            self.drained.extend(drained);
            match result {
                Ok(Adapted::Replaced { view, cols, extent }) => {
                    let written = extent.weight();
                    if self.core.wal.is_some() {
                        logged = Some(AppliedChange::Replace {
                            sql: view.to_string(),
                            cols: cols.clone(),
                            extent: extent.clone(),
                        });
                    }
                    match self.core.mv.replace(cols, extent) {
                        Ok(()) => {
                            self.port.charge_mv_write(written);
                            written_rows = written;
                            self.core.view = view;
                            self.core.plans.invalidate(schema_changes as u64, &self.core.obs);
                            self.core.stats.batches_committed += 1;
                            self.core.stats.batched_updates += batch.len() as u64;
                            None
                        }
                        Err(e) => Some(BatchFailure::Internal(e)),
                    }
                }
                Ok(Adapted::Incremental { view, delta }) => {
                    let written = delta.rows.weight();
                    if self.core.wal.is_some() {
                        logged = Some(AppliedChange::Incremental {
                            sql: view.to_string(),
                            rows: delta.rows.clone(),
                        });
                    }
                    match self.core.mv.apply_delta(&delta.cols, &delta.rows) {
                        Ok(()) => {
                            self.port.charge_mv_write(written);
                            written_rows = written;
                            self.core.view = view;
                            self.core.plans.invalidate(schema_changes as u64, &self.core.obs);
                            self.core.stats.batches_committed += 1;
                            self.core.stats.incremental_batches += 1;
                            self.core.stats.batched_updates += batch.len() as u64;
                            None
                        }
                        Err(e) => Some(BatchFailure::Internal(e)),
                    }
                }
                Err(f) => Some(f),
            }
        };

        match failure {
            None => {
                self.commit_bookkeeping(batch);
                // Commit protocol, write 2 of 2: the applied record makes
                // the in-memory commit durable (crash before it = redo).
                let was_cut = self.core.wal.as_ref().is_some_and(DurableLog::power_cut);
                if let Some(log) = self.core.wal.as_mut() {
                    let change =
                        logged.unwrap_or(AppliedChange::Delta { rows: Default::default() });
                    let reflected =
                        sorted_versions(self.core.reflected.iter().map(|(s, v)| (s.0, *v)));
                    log.log_applied(&AppliedRecord {
                        keys: batch.iter().map(|m| m.key.0).collect(),
                        changes: vec![change],
                        view_reflected: vec![reflected.clone()],
                        reflected,
                    });
                }
                // Terminal provenance. Skipped when the power was already
                // cut before the Applied append (the append was dropped, so
                // recovery re-executes this batch and records the terminal
                // stages exactly once, post-recovery). A cut that trips ON
                // the append leaves the record durable — those terminals
                // are recorded here, since recovery will not redo them.
                if !was_cut {
                    for meta in batch {
                        self.core.obs.prov(meta.key.0, dyno_obs::stage::APPLIED, &[]);
                    }
                    if self.core.obs.lineage_on() {
                        let keys: Vec<u64> = batch.iter().map(|m| m.key.0).collect();
                        self.core.obs.prov_batch(
                            &keys,
                            dyno_obs::stage::EXTENT,
                            &[field("rows", written_rows)],
                        );
                    }
                }
                self.core.obs.counter("view.commits").inc();
                self.port.on_maintenance_event(MaintEvent::Commit);
                MaintainOutcome::Committed
            }
            Some(BatchFailure::Broken(ref b)) => {
                if std::env::var_os("DYNO_DEBUG_BROKEN").is_some() {
                    eprintln!("[dyno] broken query: {b:?}");
                }
                self.core.stats.aborts += 1;
                self.core.obs.counter("view.aborts").inc();
                if self.core.obs.tracing_on() {
                    self.core.obs.event(
                        Level::Warn,
                        "view.abort",
                        &[field("updates", batch.len())],
                    );
                }
                self.port.on_maintenance_event(MaintEvent::Abort);
                MaintainOutcome::BrokenQuery
            }
            Some(BatchFailure::Unavailable(e)) => {
                self.core.obs.counter("view.parked").inc();
                if self.core.obs.tracing_on() {
                    self.core.obs.event(Level::Warn, "view.park", &[field("error", e.to_string())]);
                }
                self.port.on_maintenance_event(MaintEvent::Park);
                MaintainOutcome::Parked
            }
            Some(BatchFailure::Undefinable(e)) => {
                self.core.last_error = Some(ViewError::Undefinable(e));
                self.port.on_maintenance_event(MaintEvent::Abort);
                MaintainOutcome::Failed
            }
            Some(BatchFailure::Internal(e)) => {
                self.core.last_error = Some(ViewError::Internal(e));
                self.port.on_maintenance_event(MaintEvent::Abort);
                MaintainOutcome::Failed
            }
        }
    }

    fn refresh_view_relevance(&mut self, queue: &mut Umq<UpdateMessage>) {
        // Relevance must be computed *transitively*: a rename chain
        // `R→R₁`, `R₁→R₂` only mentions `R₁` in its second hop, yet both
        // hops invalidate a view over `R`. We therefore evolve a shadow
        // view definition through the queued schema changes in queue
        // order, classifying each change against the shadow as it stood
        // when that change would be processed. Without this, a
        // second-hop rename is classified irrelevant, escapes the merge,
        // and the rewritten view references a name the source no longer
        // has — an unbreakable livelock of broken queries.
        self.core.obs.counter("vs.relevance_refreshes").inc();
        let mut shadow = self.core.view.clone();
        for meta in queue.metas_mut() {
            if let SourceUpdate::Schema(sc) = &meta.payload.update {
                let invalidates = shadow.is_invalidated_by(sc);
                if invalidates {
                    if let Ok(next) = crate::vs::synchronize(&shadow, sc, &self.core.info) {
                        shadow = next;
                        self.core.obs.counter("vs.shadow_rewrites").inc();
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
    use crate::engine::InProcessPort;
    use crate::testkit::*;
    use dyno_relational::SchemaChange;

    fn manager(strategy: Strategy) -> (ViewManager, InProcessPort) {
        let space = bookinfo_space();
        let info = space.info().clone();
        let mut port = InProcessPort::new(space);
        let mut mgr = ViewManager::new(bookinfo_view(), info, strategy);
        mgr.initialize(&mut port).unwrap();
        (mgr, port)
    }

    #[test]
    fn initialize_populates_extent() {
        let (mgr, _) = manager(Strategy::Pessimistic);
        assert_eq!(mgr.mv().len(), 1);
        assert_eq!(mgr.reflected().len(), 2, "Retailer and Library reflected");
    }

    #[test]
    fn data_update_maintained_incrementally() {
        let (mut mgr, mut port) = manager(Strategy::Pessimistic);
        port.commit(
            dyno_source::SourceId(0),
            SourceUpdate::Data(insert_item(10, "Data Integration Guide", "Adams", 36)),
        )
        .unwrap();
        mgr.run_to_quiescence(&mut port, 100).unwrap();
        assert_eq!(mgr.mv().len(), 2);
        assert_eq!(mgr.stats().du_committed, 1);
        assert_eq!(mgr.stats().aborts, 0);
    }

    #[test]
    fn broken_query_anomaly_resolved_by_reordering() {
        // Example 1(b): DU buffered, then the StoreItems restructuring
        // commits. Pessimistic Dyno reorders so no broken query occurs…
        let (mut mgr, mut port) = manager(Strategy::Pessimistic);
        port.commit(
            dyno_source::SourceId(0),
            SourceUpdate::Data(insert_item(10, "Data Integration Guide", "Adams", 36)),
        )
        .unwrap();
        let store =
            port.space().server(dyno_source::SourceId(0)).catalog().get("Store").unwrap().clone();
        let item =
            port.space().server(dyno_source::SourceId(0)).catalog().get("Item").unwrap().clone();
        port.commit(
            dyno_source::SourceId(0),
            SourceUpdate::Schema(storeitems_change(&store, &item)),
        )
        .unwrap();
        mgr.run_to_quiescence(&mut port, 100).unwrap();
        assert!(mgr.view().references_relation("StoreItems"));
        assert_eq!(mgr.mv().len(), 2, "both books visible after adaptation");
        assert_eq!(mgr.stats().aborts, 0, "pessimistic pre-exec avoided the break");
        // DU and SC are same-source → cycle → merged batch.
        assert!(mgr.dyno_stats().merges >= 1);
    }

    #[test]
    fn optimistic_endures_abort_on_same_scenario() {
        let (mut mgr, mut port) = manager(Strategy::Optimistic);
        port.commit(
            dyno_source::SourceId(0),
            SourceUpdate::Data(insert_item(10, "Data Integration Guide", "Adams", 36)),
        )
        .unwrap();
        let store =
            port.space().server(dyno_source::SourceId(0)).catalog().get("Store").unwrap().clone();
        let item =
            port.space().server(dyno_source::SourceId(0)).catalog().get("Item").unwrap().clone();
        port.commit(
            dyno_source::SourceId(0),
            SourceUpdate::Schema(storeitems_change(&store, &item)),
        )
        .unwrap();
        mgr.run_to_quiescence(&mut port, 100).unwrap();
        assert!(mgr.view().references_relation("StoreItems"));
        assert_eq!(mgr.mv().len(), 2);
        assert!(mgr.stats().aborts >= 1, "optimistic pays the broken query");
    }

    #[test]
    fn cyclic_schema_changes_merge_and_commit() {
        // Section 3.5: SC1 (StoreItems) + SC2 (drop Review) — both relevant,
        // cyclic, processed as one atomic batch producing Query (5).
        let (mut mgr, mut port) = manager(Strategy::Pessimistic);
        let store =
            port.space().server(dyno_source::SourceId(0)).catalog().get("Store").unwrap().clone();
        let item =
            port.space().server(dyno_source::SourceId(0)).catalog().get("Item").unwrap().clone();
        port.commit(
            dyno_source::SourceId(0),
            SourceUpdate::Schema(storeitems_change(&store, &item)),
        )
        .unwrap();
        port.commit(
            dyno_source::SourceId(1),
            SourceUpdate::Schema(SchemaChange::DropAttribute {
                relation: "Catalog".into(),
                attr: "Review".into(),
            }),
        )
        .unwrap();
        mgr.run_to_quiescence(&mut port, 100).unwrap();
        assert!(mgr.view().references_relation("StoreItems"));
        assert!(mgr.view().references_relation("ReaderDigest"));
        assert_eq!(mgr.stats().batches_committed, 1);
        assert_eq!(mgr.stats().batched_updates, 2);
        assert_eq!(mgr.mv().len(), 1);
    }

    #[test]
    fn undefinable_change_is_a_hard_error() {
        let (mut mgr, mut port) = manager(Strategy::Pessimistic);
        port.commit(
            dyno_source::SourceId(1),
            SourceUpdate::Schema(SchemaChange::DropRelation { relation: "Catalog".into() }),
        )
        .unwrap();
        let err = mgr.run_to_quiescence(&mut port, 100).unwrap_err();
        assert!(matches!(err, ViewError::Undefinable(_)));
    }

    #[test]
    fn observed_manager_reports_maintenance_metrics() {
        let space = bookinfo_space();
        let info = space.info().clone();
        let mut port = InProcessPort::new(space);
        let obs = Collector::wall().with_tracing(1024);
        let mut mgr =
            ViewManager::new(bookinfo_view(), info, Strategy::Optimistic).with_obs(obs.clone());
        mgr.initialize(&mut port).unwrap();
        port.commit(
            dyno_source::SourceId(0),
            SourceUpdate::Data(insert_item(10, "Data Integration Guide", "Adams", 36)),
        )
        .unwrap();
        let store =
            port.space().server(dyno_source::SourceId(0)).catalog().get("Store").unwrap().clone();
        let item =
            port.space().server(dyno_source::SourceId(0)).catalog().get("Item").unwrap().clone();
        port.commit(
            dyno_source::SourceId(0),
            SourceUpdate::Schema(storeitems_change(&store, &item)),
        )
        .unwrap();
        mgr.run_to_quiescence(&mut port, 100).unwrap();

        let reg = obs.registry();
        let counter = |name| reg.counter_value(name).unwrap_or(0);
        let stats = mgr.stats();
        assert_eq!(counter("view.aborts"), stats.aborts, "abort counter mirrors ViewStats");
        assert_eq!(counter("view.commits"), stats.du_committed + stats.batches_committed);
        assert_eq!(counter("view.attempts"), counter("view.commits") + counter("view.aborts"));
        assert!(counter("va.recompute") + counter("va.incremental") >= 1);
        let names: Vec<&str> = obs.trace_records().iter().map(|r| r.name).collect();
        assert!(names.contains(&"view.maintain"));
        assert!(names.contains(&"va.adapt"));
    }

    #[test]
    fn with_correction_preserves_stats_and_obs_regardless_of_order() {
        // Regression: with_correction used to rebuild the scheduler from
        // scratch, silently discarding accumulated stats and — when called
        // after with_obs — keeping the collector only by luck of ordering.
        let space = bookinfo_space();
        let info = space.info().clone();
        let mut port = InProcessPort::new(space);
        let obs = Collector::wall();
        // Builder order 1: correction BEFORE obs.
        let mgr1 = ViewManager::new(bookinfo_view(), info.clone(), Strategy::Pessimistic)
            .with_correction(CorrectionPolicy::MergeAll)
            .with_obs(obs.clone());
        // Builder order 2: correction AFTER obs.
        let mgr2 = ViewManager::new(bookinfo_view(), info, Strategy::Pessimistic)
            .with_obs(obs.clone())
            .with_correction(CorrectionPolicy::MergeAll);
        drop(mgr1);

        // Mid-run policy change: stats accumulated so far must survive.
        let mut mgr = mgr2;
        mgr.initialize(&mut port).unwrap();
        port.commit(
            dyno_source::SourceId(0),
            SourceUpdate::Data(insert_item(10, "Data Integration Guide", "Adams", 36)),
        )
        .unwrap();
        mgr.run_to_quiescence(&mut port, 100).unwrap();
        let before = mgr.dyno_stats();
        assert!(before.committed > 0);
        let mgr = mgr.with_correction(CorrectionPolicy::MergeCycles);
        assert_eq!(mgr.dyno_stats(), before, "stats survive a mid-run policy change");
        // The scheduler still reports into the same registry.
        assert_eq!(
            obs.registry().counter_value("dyno.committed"),
            Some(before.committed),
            "collector binding survives with_correction"
        );
    }

    #[test]
    fn manager_recovers_from_wal() {
        let space = bookinfo_space();
        let info = space.info().clone();
        let mut port = InProcessPort::new(space);
        let disk = dyno_durable::MemStorage::new();
        let mut mgr = ViewManager::new(bookinfo_view(), info.clone(), Strategy::Pessimistic);
        mgr.initialize(&mut port).unwrap();
        let mut mgr = mgr.with_wal(crate::wal::DurableLog::create(Box::new(disk.clone())).unwrap());
        port.commit(
            dyno_source::SourceId(0),
            SourceUpdate::Data(insert_item(10, "Data Integration Guide", "Adams", 36)),
        )
        .unwrap();
        mgr.run_to_quiescence(&mut port, 100).unwrap();
        let frozen = mgr.mv().sorted_tuples();
        let reflected = mgr.reflected().clone();
        drop(mgr);

        let (back, report) = ViewManager::recover(Box::new(disk), info, Collector::wall()).unwrap();
        assert_eq!(report.torn_records, 0);
        assert_eq!(back.mv().sorted_tuples(), frozen, "extent is bit-identical");
        assert_eq!(back.reflected(), &reflected);
        assert_eq!(back.view(), &bookinfo_view());
        assert_eq!(back.backlog(), 0);
    }

    #[test]
    fn irrelevant_schema_change_commits_quietly() {
        let (mut mgr, mut port) = manager(Strategy::Pessimistic);
        port.commit(
            dyno_source::SourceId(1),
            SourceUpdate::Schema(SchemaChange::AddAttribute {
                relation: "Catalog".into(),
                attr: dyno_relational::Attribute::new("ISBN", dyno_relational::AttrType::Str),
                default: dyno_relational::Value::Null,
            }),
        )
        .unwrap();
        mgr.run_to_quiescence(&mut port, 100).unwrap();
        assert_eq!(mgr.mv().len(), 1, "extent untouched");
        assert_eq!(mgr.stats().aborts, 0);
    }
}
