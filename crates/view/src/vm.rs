//! Incremental view maintenance for data updates, SWEEP-style
//! (Agrawal et al., SIGMOD 1997 — the compensation algorithm the paper
//! plugs in for anomaly types (1) and (2)).
//!
//! Maintaining a delta `Δ` of relation `Rᵢ` requires one maintenance query
//! per other relation of the view (paper Definition 1 / Query (2)). Each
//! query is answered from the source's **current** state, which may already
//! include *concurrent* data updates; SWEEP removes their effect locally by
//! subtracting `D ⋈ Δⱼ` for every pending (received-but-unmaintained) data
//! update `Δⱼ` of the queried relation — a pure view-manager-side
//! computation, no extra source round trip.
//!
//! The chain ([`hop_chain`]) and the compensation set ([`Compensation`])
//! are the ones batch adaptation's Equation 6 walks too: SWEEP is
//! Equation 6 with exactly one changed relation (see [`crate::batch`]).

use std::borrow::Cow;
use std::rc::Rc;

use dyno_core::UpdateMeta;
use dyno_obs::{field, Capture, Collector, Level, OpPhase, Profiler};
use dyno_relational::exec::TableSlice;
use dyno_relational::{
    delta_join, delta_project, delta_select, thread_stats, CmpOp, ColRef, DataUpdate,
    RelationalError, Schema, SourceUpdate, SpjQuery, Value, ZSet,
};
use dyno_source::{UpdateId, UpdateMessage};

use crate::engine::{HopRequest, SourcePort};
use crate::plan::{MaintPlan, PlanCache};
use crate::subplan::SharedSubplans;
use crate::viewdef::ViewDefinition;

/// A computed change to the view extent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewDelta {
    /// Output column names (the view's SELECT list).
    pub cols: Vec<String>,
    /// Signed rows to merge into the extent.
    pub rows: ZSet,
}

/// Why a maintenance attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintFailure {
    /// A maintenance query hit a schema conflict at a source — the
    /// broken-query anomaly. Dyno handles this by correction + retry.
    Broken {
        /// The failing query (rendered).
        query: String,
        /// The underlying schema conflict.
        error: RelationalError,
    },
    /// A source the maintenance needs is down (crash window / exhausted
    /// retry budget). Not a broken query — no correction — and not an
    /// internal bug: the entry parks and retries when the source is back.
    Unavailable(RelationalError),
    /// Anything else: an internal invariant violation, surfaced verbatim.
    Internal(RelationalError),
}

impl MaintFailure {
    /// Classifies a failed maintenance query; `query` renders it, and runs
    /// only for the broken-query report.
    pub(crate) fn from_query(query: impl FnOnce() -> SpjQuery, error: RelationalError) -> Self {
        if error.is_unavailable() {
            MaintFailure::Unavailable(error)
        } else if error.is_schema_conflict() {
            MaintFailure::Broken { query: query().to_string(), error }
        } else {
            MaintFailure::Internal(error)
        }
    }
}

/// Flattens a qualified column into the single-namespace spelling used for
/// intermediate maintenance results.
pub(crate) fn flat(c: &ColRef) -> String {
    format!("{}.{}", c.relation, c.attr)
}

/// Name of the shipped intermediate table in maintenance queries.
pub(crate) const D: &str = "__D";

/// The operator profiler of plan `(view, scope)`, reading index probes and
/// cancelled weights from the executor's thread-local [`ExecStats`]
/// counters. Inert unless the collector captures operator samples, so the
/// disabled path never reads a clock, sizes a bag, or allocates a key.
pub(crate) fn profiler<'a>(obs: &'a Collector, view: &'a str, scope: &'a str) -> Profiler<'a> {
    Profiler::new(obs, view, scope, || {
        let s = thread_stats();
        (s.weights_cancelled, s.index_probes)
    })
}

/// The updates a maintenance run compensates for — every message received
/// but not yet reflected, excluding what the run maintains — borrowed where
/// they wait: loose messages, then whole queue entries (the shared queue's
/// rest, a view's deferred tail), in that order. Nothing is collected, so a
/// step costs no allocation per queued update.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pending<'a> {
    loose: &'a [&'a UpdateMessage],
    queued: [&'a [Vec<UpdateMeta<UpdateMessage>>]; 2],
    len: usize,
}

impl<'a> Pending<'a> {
    /// Loose messages, in order.
    pub fn loose(messages: &'a [&'a UpdateMessage]) -> Self {
        Pending { loose: messages, len: messages.len(), ..Pending::default() }
    }

    /// Queue entries, front to back, then `then`'s (the shared queue after
    /// a view's own deferred batches).
    pub fn queued(
        entries: &'a [Vec<UpdateMeta<UpdateMessage>>],
        then: &'a [Vec<UpdateMeta<UpdateMessage>>],
    ) -> Self {
        let len = entries.iter().chain(then).map(Vec::len).sum();
        Pending { loose: &[], queued: [entries, then], len }
    }

    /// Number of pending messages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pending messages, in order.
    pub fn iter(&self) -> impl Iterator<Item = &'a UpdateMessage> + 'a {
        let [first, then] = self.queued;
        let queued = first.iter().chain(then).flatten().map(|m| &m.payload);
        self.loose.iter().copied().chain(queued)
    }
}

/// Maintains one data update against the view.
///
/// * `pending` — every update message received but not yet reflected in the
///   view, **excluding** the one being maintained (and its batch): the SWEEP
///   compensation set.
/// * Returns the view delta plus any messages that arrived (were committed
///   and streamed) while the maintenance queries ran; the caller must
///   enqueue those into the UMQ.
///
/// The maintenance [`sweep_maintain_shared`] runs, unobserved and unshared,
/// planning from scratch.
pub fn sweep_maintain(
    view: &ViewDefinition,
    msg: &UpdateMessage,
    pending: &[UpdateMessage],
    port: &mut dyn SourcePort,
) -> (Result<ViewDelta, MaintFailure>, Vec<UpdateMessage>) {
    let pending: Vec<&UpdateMessage> = pending.iter().collect();
    let mut comp = Compensation::new(Pending::loose(&pending), std::slice::from_ref(&msg.id));
    let result = sweep(view, msg, &mut comp, port, None, &Collector::disabled(), None);
    let result = result.map(|rows| ViewDelta { cols: view.output_cols(), rows });
    (result, comp.into_drained())
}

/// [`sweep_maintain`] as a warehouse runs it: under a `vm.sweep` span that
/// reports the compensation-set size, surfacing a broken maintenance query
/// — the in-exec detection of paper Figure 7's `Query_Engine` — as a
/// `vm.broken_query` warning event, planning through the view's
/// [`PlanCache`] (hits/misses/invalidations land in the `plan.*` counters;
/// `generation` names the definition, see [`PlanCache::plan_for`]), over a
/// *borrowed* compensation set (the maintainer hands over its queues
/// without cloning a message) and, optionally, a cross-view
/// [`SharedSubplans`] cache: the first `__D ⋈ target` hop is then served
/// from (or computed into) `shared`, so overlapping views maintaining the
/// same batch pay for it once. The derived per-view result is bit-identical
/// to the unshared path (see the [`crate::subplan`] module docs for the
/// algebra). Returns the view delta's rows: its columns are the view's.
pub fn sweep_maintain_shared(
    (view, generation): (&ViewDefinition, u64),
    msg: &UpdateMessage,
    pending: Pending<'_>,
    port: &mut dyn SourcePort,
    plans: &mut PlanCache,
    obs: &Collector,
    shared: Option<&mut SharedSubplans>,
) -> (Result<ZSet, MaintFailure>, Vec<UpdateMessage>) {
    let _span = obs.span("vm.sweep", &[field("pending", pending.len())]);
    obs.counter("vm.sweeps").inc();
    obs.counter("vm.compensations").add(pending.len() as u64);
    obs.prov(msg.id.0, dyno_obs::stage::SWEEP, &[field("pending", pending.len())]);
    let mut comp = Compensation::new(pending, std::slice::from_ref(&msg.id));
    let result = sweep(view, msg, &mut comp, port, Some((plans, generation)), obs, shared);
    if let Err(MaintFailure::Broken { query, .. }) = &result {
        obs.counter("engine.break_detections").inc();
        if obs.capturing(Capture::TRACE) {
            obs.event(Level::Warn, "vm.broken_query", &[field("query", query.clone())]);
        }
    }
    (result, comp.into_drained())
}

/// Runs the view's maintenance plan for `msg`: seed the intermediate from
/// the delta, walk the `__D ⋈ target` chain with SWEEP compensation,
/// project to the view's SELECT list. The plan comes from `plans` (with the
/// definition's generation), or is built afresh without one. With a
/// `shared` cache the first hop (seed + join to `steps[0].target`) is
/// derived from the cross-view shared hop instead.
fn sweep(
    view: &ViewDefinition,
    msg: &UpdateMessage,
    comp: &mut Compensation<'_>,
    port: &mut dyn SourcePort,
    plans: Option<(&mut PlanCache, u64)>,
    obs: &Collector,
    shared: Option<&mut SharedSubplans>,
) -> Result<ZSet, MaintFailure> {
    let SourceUpdate::Data(du) = &msg.update else {
        return Err(MaintFailure::Internal(RelationalError::InvalidQuery {
            reason: "sweep_maintain called with a schema change".into(),
        }));
    };
    if !view.references_relation(&du.relation) {
        // The update is irrelevant to this view: empty delta, no queries.
        return Ok(ZSet::new());
    }
    let plan = match plans {
        Some((cache, generation)) => cache.plan_for(view, generation, &du.relation, obs),
        None => MaintPlan::build(view, &du.relation).map(Rc::new),
    }
    .map_err(MaintFailure::Internal)?;
    let prof = profiler(obs, &view.name, &du.relation);
    prof.invocation();
    if plan.steps.is_empty()
        && !obs.capturing(Capture::PROFILE)
        && du.delta.rows().distinct_len() <= 2
    {
        return hop_less(&plan, du, port);
    }

    // With a shared-subplan cache and at least one join step, the seed plus
    // the first `__D ⋈ target` hop come out of the cross-view cache; the
    // chain then resumes at the second step. Otherwise: step 0 is the local
    // projection/selection of the delta itself — a direct Z-set pipeline
    // (δσ then δπ) over the update's rows; no provider, no clone of the
    // delta, no executor round.
    let (start, seed) = match shared.filter(|_| plan.first_hop.is_some()) {
        Some(sh) => {
            port.charge_local(du.delta.weight());
            (1, sh.first_hop(&plan, du, comp, port, prof)?)
        }
        None => {
            let seed = seed_delta(&plan, (&du.delta).into(), prof)
                .map_err(|e| MaintFailure::from_query(|| plan.local_query(), e))?;
            port.charge_local(du.delta.weight());
            (0, seed)
        }
    };
    let Some(d_rows) = hop_chain(&plan, start, seed, |hop, step| comp.hop(port, hop, prof, step))?
    else {
        return Ok(ZSet::new());
    };

    port.charge_local(d_rows.weight());
    let window = prof.start(|| d_rows.distinct_len());
    let projected = delta_project(&d_rows, &plan.final_indices);
    let step_no = (plan.steps.len() + 1) as u32;
    prof.finish(window, step_no, OpPhase::Final, "delta_project", "", || projected.distinct_len());
    Ok(projected)
}

/// A plan without hops over a Δ of at most two rows, while no profiler
/// reads the seed's row counts: the seed's δσ, then its δπ and the final δπ
/// as one projection through the composed indices. That is the same rows,
/// the same port charges and the same `weights_cancelled` as projecting
/// twice (two rows cancel or not whatever the order they arrive in).
fn hop_less(
    plan: &MaintPlan,
    du: &DataUpdate,
    port: &mut dyn SourcePort,
) -> Result<ZSet, MaintFailure> {
    let selected = || -> Result<_, RelationalError> {
        let (filters, proj) = seed_positions(plan, du.delta.schema())?;
        Ok((select(du.delta.rows(), &filters)?, proj))
    };
    let (selected, proj) =
        selected().map_err(|e| MaintFailure::from_query(|| plan.local_query(), e))?;
    port.charge_local(du.delta.weight());
    // The seed's weight: two rows the seed projects onto one tuple merge.
    let mut rows = selected.iter();
    let seed_weight = match (rows.next(), rows.next()) {
        (Some((a, wa)), Some((b, wb))) if proj.iter().all(|&i| a.get(i) == b.get(i)) => {
            (wa + wb).unsigned_abs()
        }
        _ => selected.weight(),
    };
    port.charge_local(seed_weight);
    let composed: Vec<usize> = plan.final_indices.iter().map(|&i| proj[i]).collect();
    Ok(delta_project(&selected, &composed))
}

/// The one hop chain SWEEP and every Equation 6 term walk: `plan`'s
/// `__D ⋈ target` steps from `start` on, each answered by
/// `hop(request, step number)` over the intermediate `d_rows`. `None` when
/// an intermediate empties before a hop: it joins to empty, so the remaining
/// hops are skipped.
pub(crate) fn hop_chain<E>(
    plan: &MaintPlan,
    start: usize,
    mut d_rows: ZSet,
    mut hop: impl FnMut(&HopRequest<'_>, u32) -> Result<ZSet, E>,
) -> Result<Option<ZSet>, E> {
    for (i, step) in plan.steps.iter().enumerate().skip(start) {
        if d_rows.is_empty() {
            return Ok(None);
        }
        let rows = hop(&step.request(&d_rows), (i + 1) as u32)?;
        d_rows = rows;
    }
    Ok(Some(d_rows))
}

/// Step 0 as Z-set algebra: a delta of the plan's relation through the
/// plan's compiled local filters and projection. Attribute names resolve
/// against the delta's *own* schema, so an attribute the view references but
/// the delta no longer carries surfaces as the same schema-conflict error
/// the executor's validation would raise.
pub(crate) fn seed_delta(
    plan: &MaintPlan,
    delta: TableSlice<'_>,
    prof: Profiler<'_>,
) -> Result<ZSet, RelationalError> {
    let (filters, proj) = seed_positions(plan, delta.schema)?;
    let relation = plan.relation.as_str();
    let window = prof.start(|| delta.rows.distinct_len());
    let selected = select(delta.rows, &filters)?;
    prof.finish(window, 0, OpPhase::Seed, "delta_select", relation, || selected.distinct_len());
    let window = prof.start(|| selected.distinct_len());
    let out = delta_project(&selected, &proj);
    prof.finish(window, 0, OpPhase::Seed, "delta_project", relation, || out.distinct_len());
    Ok(out)
}

/// Resolved constant filters: (position, op, literal).
type Filters = Vec<(usize, CmpOp, Value)>;

/// Step 0's filter and projection positions in the delta's `schema`.
fn seed_positions(
    plan: &MaintPlan,
    schema: &Schema,
) -> Result<(Filters, Vec<usize>), RelationalError> {
    let filters = plan
        .local_filters
        .iter()
        .map(|(a, op, v)| Ok((schema.require(a)?, *op, v.clone())))
        .collect::<Result<Vec<_>, RelationalError>>()?;
    let proj = plan.local_proj.iter().map(|a| schema.require(a)).collect::<Result<Vec<_>, _>>()?;
    Ok((filters, proj))
}

/// `δσ` of `rows` through `filters`, borrowing `rows` when there is no
/// filter (a filter-less select scans nothing, so no counter moves).
pub(crate) fn select<'z>(
    rows: &'z ZSet,
    filters: &[(usize, CmpOp, Value)],
) -> Result<Cow<'z, ZSet>, RelationalError> {
    if filters.is_empty() {
        return Ok(Cow::Borrowed(rows));
    }
    delta_select(rows, filters).map(Cow::Owned)
}

/// The compensation set of one maintenance run: the pending messages it
/// borrows, the messages that arrive while its queries run, and the update
/// ids it excludes — the data update SWEEP maintains, or the members of an
/// Equation 6 batch.
pub(crate) struct Compensation<'a> {
    pending: Pending<'a>,
    excluded: &'a [UpdateId],
    drained: Vec<UpdateMessage>,
}

impl<'a> Compensation<'a> {
    pub(crate) fn new(pending: Pending<'a>, excluded: &'a [UpdateId]) -> Self {
        Compensation { pending, excluded, drained: Vec::new() }
    }

    /// The messages that arrived during the run, for the caller to enqueue.
    pub(crate) fn into_drained(self) -> Vec<UpdateMessage> {
        self.drained
    }

    /// Streams in the updates that committed since the port last answered,
    /// then yields the pending data updates of `relation`: what its current
    /// state holds beyond the point being maintained.
    pub(crate) fn of<'s>(
        &'s mut self,
        port: &mut dyn SourcePort,
        relation: &'s str,
    ) -> impl Iterator<Item = &'s DataUpdate> + 's {
        self.drained.extend(port.drain_arrivals());
        let excluded = self.excluded;
        self.pending.iter().chain(&self.drained).filter_map(move |m| match &m.update {
            SourceUpdate::Data(du) if du.relation == relation && !excluded.contains(&m.id) => {
                Some(du)
            }
            _ => None,
        })
    }

    /// Answers `req` at the port, then subtracts from its rows the effect of
    /// every pending data update to the hop's target that the source may
    /// already have shown it (SWEEP compensation — view-manager-local, no
    /// further round trip). The probe is a `join` node of `prof`'s `step`,
    /// each compensation join a `compensate` node.
    pub(crate) fn hop(
        &mut self,
        port: &mut dyn SourcePort,
        req: &HopRequest<'_>,
        prof: Profiler<'_>,
        step: u32,
    ) -> Result<ZSet, MaintFailure> {
        let broken = |e| MaintFailure::from_query(|| req.query(), e);
        let window = prof.start(|| req.delta.distinct_len());
        let mut rows = port.hop(req).map_err(broken)?;
        prof.finish(window, step, OpPhase::Hop, "join", req.target, || rows.distinct_len());
        // The target's pending deltas nearly always share one schema: its
        // positions resolve once per hop, again only when a schema differs.
        let mut resolved: Option<(&Schema, Resolved)> = None;
        for du in self.of(port, req.target) {
            let window = prof.start(|| du.delta.rows().distinct_len());
            let schema = du.delta.schema();
            let r = match resolved.take() {
                Some((s, r)) if std::ptr::eq(s, schema) || s == schema => r,
                _ => Resolved::of(req, schema).map_err(broken)?,
            };
            let comp = r.compensate(req, du.delta.rows()).map_err(broken)?;
            resolved = Some((schema, r));
            port.charge_local(comp.weight() + du.delta.weight());
            rows.merge_negated(&comp);
            let out_rows = || comp.distinct_len();
            prof.finish(window, step, OpPhase::Compensate, "compensate", req.target, out_rows);
        }
        Ok(rows)
    }
}

/// The SWEEP compensation term `Δ ⋈ Δⱼ` for one delta `Δⱼ` of the hop's
/// target (a pending update's, or in Equation 6 the batch's own) — a direct
/// delta-delta join (both sides are small Z-sets) instead of a replay of the
/// step query over rebuilt bound tables. The executor's edge semantics
/// survive intact: unknown attributes are schema conflicts, ill-typed
/// filters error on every visited row, NULL join keys match nothing, and the
/// output layout (all of Δ, then the target's projected attributes) equals
/// the hop's exactly.
pub(crate) fn compensate(
    hop: &HopRequest<'_>,
    t_delta: TableSlice<'_>,
) -> Result<ZSet, RelationalError> {
    Resolved::of(hop, t_delta.schema)?.compensate(hop, t_delta.rows)
}

/// A hop's compensation positions, resolved against one schema of its
/// target: filters, join keys on both sides, and the output projection.
struct Resolved {
    filters: Filters,
    t_keys: Vec<usize>,
    d_keys: Vec<usize>,
    out: Vec<usize>,
}

impl Resolved {
    fn of(hop: &HopRequest<'_>, schema: &Schema) -> Result<Self, RelationalError> {
        let filters = hop
            .t_filters
            .iter()
            .map(|(a, op, v)| Ok((schema.require(a)?, *op, v.clone())))
            .collect::<Result<Vec<_>, RelationalError>>()?;
        let t_keys = hop
            .join_keys
            .iter()
            .map(|(_, a)| schema.require(a))
            .collect::<Result<Vec<usize>, RelationalError>>()?;
        let t_proj = hop
            .t_proj
            .iter()
            .map(|a| schema.require(a))
            .collect::<Result<Vec<usize>, RelationalError>>()?;
        let d_keys: Vec<usize> = hop.join_keys.iter().map(|&(i, _)| i).collect();
        let d_len = hop.d_cols.arity();
        let out: Vec<usize> = (0..d_len).chain(t_proj.iter().map(|&i| d_len + i)).collect();
        Ok(Resolved { filters, t_keys, d_keys, out })
    }

    /// `Δ ⋈ σ(t_rows)`, projected to the hop's layout; `t_rows` is read in
    /// place when there is no filter.
    fn compensate(&self, hop: &HopRequest<'_>, t_rows: &ZSet) -> Result<ZSet, RelationalError> {
        let filtered = select(t_rows, &self.filters)?;
        let joined = delta_join(hop.delta, &self.d_keys, &filtered, &self.t_keys);
        if joined.is_empty() {
            return Ok(joined);
        }
        Ok(joined.project(&self.out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::InProcessPort;
    use crate::testkit::{bookinfo_space, bookinfo_view, insert_item, item_schema};
    use dyno_relational::{DataUpdate, Delta, SourceUpdate, Tuple, Value};
    use dyno_source::{SourceId, UpdateId};

    fn msg_of(id: u64, source: u32, du: DataUpdate) -> UpdateMessage {
        UpdateMessage {
            id: UpdateId(id),
            source: SourceId(source),
            source_version: 1,
            update: SourceUpdate::Data(du),
        }
    }

    #[test]
    fn single_insert_produces_one_view_tuple() {
        let space = bookinfo_space();
        let mut port = InProcessPort::new(space);
        let view = bookinfo_view();
        let du = insert_item(10, "Data Integration Guide", "Adams", 36);
        // Commit at the source first (the wrapper reports after commit).
        port.space_mut().commit(SourceId(0), SourceUpdate::Data(du.clone())).unwrap();
        let (res, drained) = sweep_maintain(&view, &msg_of(0, 0, du), &[], &mut port);
        let delta = res.unwrap();
        assert!(drained.is_empty());
        assert_eq!(delta.rows.weight(), 1, "one matching store and catalog row");
        let (t, c) = delta.rows.sorted_entries().pop().unwrap();
        assert_eq!(c, 1);
        assert_eq!(t.get(1), &Value::str("Data Integration Guide"));
    }

    #[test]
    fn delete_produces_negative_delta() {
        let mut space = bookinfo_space();
        // Insert then maintain nothing; now delete the pre-existing tuple.
        let existing = Tuple::of([
            Value::from(1),
            Value::str("Databases"),
            Value::str("Ullman"),
            Value::from(50),
        ]);
        let du = DataUpdate::new(Delta::deletes(item_schema(), [existing]).unwrap());
        space.commit(SourceId(0), SourceUpdate::Data(du.clone())).unwrap();
        let mut port = InProcessPort::new(space);
        let (res, _) = sweep_maintain(&bookinfo_view(), &msg_of(0, 0, du), &[], &mut port);
        let delta = res.unwrap();
        assert_eq!(delta.rows.net(), -1);
    }

    #[test]
    fn duplication_anomaly_without_compensation() {
        // Example 1(a): ΔC (new catalog row) is being maintained; a
        // concurrent ΔI (matching item) commits before the maintenance query
        // probes Item. Without compensation the query result includes the
        // new item — and maintaining ΔI later would duplicate the tuple.
        let mut space = bookinfo_space();
        let cat_schema =
            space.server(SourceId(1)).catalog().get("Catalog").unwrap().schema().clone();
        let dc = DataUpdate::new(
            Delta::inserts(
                cat_schema,
                [Tuple::of([
                    Value::str("Data Integration Guide"),
                    Value::str("Adams"),
                    Value::str("Engineering"),
                    Value::str("Princeton"),
                    Value::str("good"),
                ])],
            )
            .unwrap(),
        );
        space.commit(SourceId(1), SourceUpdate::Data(dc.clone())).unwrap();
        // Concurrent item insert commits before maintenance queries run.
        let di = insert_item(10, "Data Integration Guide", "Adams", 36);
        let di_msg = space.commit(SourceId(0), SourceUpdate::Data(di)).unwrap();
        let mut port = InProcessPort::new(space);
        let view = bookinfo_view();

        // Uncompensated: pending set withheld → anomaly visible.
        let (res, _) = sweep_maintain(&view, &msg_of(0, 1, dc.clone()), &[], &mut port);
        assert_eq!(res.unwrap().rows.weight(), 1, "erroneously sees the concurrent insert");

        // Compensated: pending set supplied → anomaly removed.
        let (res, _) = sweep_maintain(&view, &msg_of(0, 1, dc), &[di_msg], &mut port);
        assert_eq!(res.unwrap().rows.weight(), 0, "compensation removes the concurrent insert");
    }

    #[test]
    fn broken_query_surfaces_as_broken() {
        let mut space = bookinfo_space();
        let du = insert_item(10, "Data Integration Guide", "Adams", 36);
        space.commit(SourceId(0), SourceUpdate::Data(du.clone())).unwrap();
        // A schema change drops Store before the maintenance query runs.
        space
            .commit(
                SourceId(0),
                SourceUpdate::Schema(dyno_relational::SchemaChange::DropRelation {
                    relation: "Store".into(),
                }),
            )
            .unwrap();
        let mut port = InProcessPort::new(space);
        let (res, _) = sweep_maintain(&bookinfo_view(), &msg_of(0, 0, du), &[], &mut port);
        match res {
            Err(MaintFailure::Broken { error, .. }) => assert!(error.is_schema_conflict()),
            other => panic!("expected broken query, got {other:?}"),
        }
    }

    #[test]
    fn irrelevant_update_is_free() {
        let space = bookinfo_space();
        let mut port = InProcessPort::new(space);
        let schema =
            dyno_relational::Schema::of("Unrelated", &[("x", dyno_relational::AttrType::Int)]);
        let du = DataUpdate::new(Delta::inserts(schema, [Tuple::of([1i64])]).unwrap());
        let (res, _) = sweep_maintain(&bookinfo_view(), &msg_of(0, 2, du), &[], &mut port);
        assert!(res.unwrap().rows.is_empty());
    }
}
