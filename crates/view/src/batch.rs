//! View adaptation and merged-batch processing (paper Section 5 and
//! Equation 6).
//!
//! When Dyno merges a dependency cycle, the resulting batch — data updates
//! and schema changes from several sources — must be maintained **atomically**:
//!
//! 1. *preprocess*: split the batch per source, compose its schema changes
//!    (`rename A→B` ∘ `rename B→C` ⇒ `rename A→C`; implemented in
//!    `dyno_relational::ddl::compose`);
//! 2. *rewrite*: synchronize the view definition through the composed
//!    changes (module [`crate::vs`]), yielding `V′`;
//! 3. *homogenize*: batch data updates may be schema-inconsistent when
//!    schema changes interleave them (the paper's example: `insert (3,4)`,
//!    `drop first attribute`, `insert (5)` — homogenized to
//!    `insert (4),(5)`); [`homogenize_delta`] maps each delta through the
//!    changes that follow it in the batch into the final schema;
//! 4. *adapt*: compute the new extent. One shape test (`classify`) holds
//!    `V′` against `V` synchronized through the batch's renames alone and
//!    picks one of three answers:
//!    - **incremental** — the same FROM list, WHERE clause and SELECT list
//!      (renames, additive changes, drops of attributes the view never
//!      used): `ΔV` by paper Equation 6 over the homogenized deltas,
//!      writing only `|ΔV|` tuples to the view;
//!    - **projected** — the same FROM list and WHERE clause, `V′`'s SELECT
//!      list a sub-sequence of `V`'s (a pruned column): `V′` is determined
//!      by `V`, so `V′ = π(V) + ΔV′`, the held extent projected plus
//!      Equation 6 over `V′`. Taken only when the port answers every read
//!      live; a port that ships its reads keeps the recompute, call for
//!      call;
//!    - **recompute** — anything else (relation drops or replacements,
//!      re-sourced attributes): `V′` evaluated over the batch-point source
//!      states wholesale.
//!
//!    Every answer finishes from one batch-point read: each relation of
//!    `V′`, in FROM order, through a real (breakable!) maintenance query
//!    ([`SourcePort::read_for_adaptation`]). A shipped read is rolled back
//!    past the *pending-but-unprocessed* concurrent data updates; a relation
//!    read live is reached by Equation 6 hops instead, which walk SWEEP's
//!    hop chain and take the pending updates back out through SWEEP's
//!    compensation set — one step for both algorithms, by bilinearity. The
//!    recompute ships whatever the read did not.

use std::collections::HashMap;

use dyno_obs::{field, Capture, Collector, Level, OpPhase, Profiler};
use dyno_relational::exec::{RelationProvider, TableSlice};
use dyno_relational::{
    delta_project, ColRef, Delta, Predicate, ProjItem, QueryResult, RelationalError, Schema,
    SchemaChange, SourceUpdate, SpjQuery, ZSet,
};
use dyno_source::{InfoSpace, UpdateId, UpdateMessage};

use crate::engine::{schema_from_bag, AdaptRead, HopRequest, LocalProvider, SourcePort};
use crate::mview::MaterializedView;
use crate::plan::MaintPlan;
use crate::viewdef::ViewDefinition;
use crate::vm::{
    compensate, hop_chain, profiler, seed_delta, Compensation, MaintFailure, Pending, ViewDelta,
};
use crate::vs::{renamed_col, renamed_relation, synchronize_all, VsError};

/// The result of adapting the view for one (possibly merged) batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Adapted {
    /// The extent was recomputed wholesale at the batch point.
    Replaced {
        /// The rewritten view definition.
        view: ViewDefinition,
        /// Output column names of the adapted view.
        cols: Vec<String>,
        /// The full replacement extent.
        extent: ZSet,
    },
    /// The extent change was computed incrementally (paper Equation 6 over
    /// homogenized batch deltas); only `delta` needs writing to the view.
    Incremental {
        /// The rewritten view definition (same output columns as before).
        view: ViewDefinition,
        /// The signed change to the extent.
        delta: ViewDelta,
    },
}

impl Adapted {
    /// The rewritten view definition.
    pub fn view(&self) -> &ViewDefinition {
        match self {
            Adapted::Replaced { view, .. } | Adapted::Incremental { view, .. } => view,
        }
    }
}

/// Which adaptation paths the view manager may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdaptationMode {
    /// Incremental (Equation 6) when the batch preserves the view's shape,
    /// projected from the held extent when it prunes columns and the port
    /// answers live, recompute otherwise.
    #[default]
    Auto,
    /// Always recompute — the ablation baseline for the other two answers.
    RecomputeOnly,
}

/// Why batch adaptation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchFailure {
    /// A maintenance query broke against a concurrently changed schema.
    Broken(MaintFailure),
    /// The view cannot be synchronized over the batch's schema changes.
    Undefinable(VsError),
    /// A source the batch needs is down; park the entry and retry later.
    Unavailable(RelationalError),
    /// Internal invariant violation.
    Internal(RelationalError),
}

impl From<MaintFailure> for BatchFailure {
    fn from(f: MaintFailure) -> Self {
        match f {
            MaintFailure::Internal(e) => BatchFailure::Internal(e),
            MaintFailure::Unavailable(e) => BatchFailure::Unavailable(e),
            broken => BatchFailure::Broken(broken),
        }
    }
}

/// Adapts the view through a batch of updates, under a `va.adapt` span that
/// reports which adaptation answer was taken (`va.mode` event,
/// `va.incremental`/`va.projected`/`va.recompute` counters) and surfaces
/// broken maintenance queries as `va.broken_query` warning events.
///
/// * `(view, mv)` — the view's definition and its extent as it stands
///   before the batch (`V` at the state the view reflects); the extent is
///   read only when `V′` is a projection of `V` and the port answers every
///   read live.
/// * `pending` — received-but-unprocessed messages *excluding* this batch:
///   the compensation set, borrowed.
/// * Returns the adaptation plus any messages that arrived during the
///   maintenance queries (to be enqueued by the caller).
pub fn adapt_batch(
    (view, mv): (&ViewDefinition, &MaterializedView),
    batch: &[&UpdateMessage],
    pending: Pending<'_>,
    info: &InfoSpace,
    mode: AdaptationMode,
    port: &mut dyn SourcePort,
    obs: &Collector,
) -> (Result<Adapted, BatchFailure>, Vec<UpdateMessage>) {
    let _span =
        obs.span("va.adapt", &[field("updates", batch.len()), field("pending", pending.len())]);
    let prof = profiler(obs, &view.name, "batch");
    let batch_ids: Vec<UpdateId> = batch.iter().map(|m| m.id).collect();
    let mut comp = Compensation::new(pending, &batch_ids);
    // Steps 1 and 2: compose the batch's schema changes (in commit order —
    // the batch preserves queue order, which preserves per-source commit
    // order) and rewrite the view definition through them.
    let composed = dyno_relational::compose(schema_changes(batch));
    let result = match synchronize_all(view, &composed, info) {
        Err(e) => Err(BatchFailure::Undefinable(e)),
        Ok(new_view) => {
            port.charge_local(composed.len() as u64);
            let shape = match mode {
                AdaptationMode::Auto => classify(view, mv, &new_view, &composed),
                AdaptationMode::RecomputeOnly => Shape::Other,
            };
            answer(new_view, shape, batch, &mut comp, port, prof)
        }
    };
    match &result {
        Ok((_, answer)) => {
            let (counter, mode) = match answer {
                Answer::Incremental => ("va.incremental", "incremental"),
                Answer::Projected => ("va.projected", "projected"),
                Answer::Recompute => ("va.recompute", "recompute"),
            };
            obs.counter(counter).inc();
            obs.event(Level::Info, "va.mode", &[field("mode", mode)]);
        }
        Err(BatchFailure::Broken(MaintFailure::Broken { query, .. })) => {
            obs.counter("engine.break_detections").inc();
            if obs.capturing(Capture::TRACE) {
                obs.event(Level::Warn, "va.broken_query", &[field("query", query.clone())]);
            }
        }
        Err(_) => {}
    }
    (result.map(|(adapted, _)| adapted), comp.into_drained())
}

/// Which of the three adaptation answers produced an [`Adapted`].
enum Answer {
    /// Equation 6 over the batch's deltas; `V′` keeps `V`'s shape.
    Incremental,
    /// `V′ = π(V) + ΔV′`, from the extent the warehouse holds.
    Projected,
    /// `V′` evaluated over shipped batch-point states.
    Recompute,
}

/// What the batch did to the view's shape, judged by holding `V′` against
/// `V` synchronized through the batch's renames alone (`renamed`).
enum Shape<'m> {
    /// Same FROM list, WHERE clause and SELECT list.
    Same,
    /// Same FROM list and WHERE clause; `V′`'s SELECT list is a
    /// sub-sequence of `V`'s, at these positions of the held extent.
    Projected(&'m ZSet, Vec<usize>),
    /// Anything else: a relation dropped or replaced, a column re-sourced.
    Other,
}

/// Classifies the batch's effect on the view. `renamed` is never built:
/// each element of `V′` is held against the image of `V`'s under the
/// batch's renames ([`renamed_relation`], [`renamed_col`]), since a rename
/// rewrites a definition element by element. A relation drop or
/// replacement is always [`Shape::Other`]: a replacement may reuse the
/// dropped relation's name, keeping the text of `V′` while replacing its
/// rows. So is an extent whose columns are not `V`'s.
fn classify<'m>(
    view: &ViewDefinition,
    mv: &'m MaterializedView,
    new_view: &ViewDefinition,
    composed: &[SchemaChange],
) -> Shape<'m> {
    let replaces = composed.iter().any(|c| {
        matches!(c, SchemaChange::DropRelation { .. } | SchemaChange::ReplaceRelations { .. })
    });
    if replaces {
        return Shape::Other;
    }
    let (old, new) = (&view.query, &new_view.query);
    let col = |new: &ColRef, old: &ColRef| {
        let (relation, attr) = renamed_col(old, composed);
        new.relation == relation && new.attr == attr
    };
    let predicate = |new: &Predicate, old: &Predicate| match (new, old) {
        (Predicate::JoinEq(a, b), Predicate::JoinEq(c, d)) => col(a, c) && col(b, d),
        (Predicate::Compare(a, op, v), Predicate::Compare(c, op2, v2)) => {
            col(a, c) && op == op2 && v == v2
        }
        _ => false,
    };
    let item = |new: &ProjItem, old: &ProjItem| new.output == old.output && col(&new.col, &old.col);
    let table = |new: &String, old: &String| new == renamed_relation(old, composed);
    if !pairwise(&new.tables, &old.tables, table)
        || !pairwise(&new.predicates, &old.predicates, predicate)
    {
        return Shape::Other;
    }
    if pairwise(&new.projection, &old.projection, item) {
        return Shape::Same;
    }
    if mv.cols() != view.output_cols() {
        return Shape::Other;
    }
    let mut indices = Vec::with_capacity(new.projection.len());
    let mut next = 0;
    for n in &new.projection {
        match old.projection[next..].iter().position(|o| item(n, o)) {
            Some(k) => {
                indices.push(next + k);
                next += k + 1;
            }
            None => return Shape::Other,
        }
    }
    Shape::Projected(mv.extent(), indices)
}

/// Whether `new` and `old` are equally long and `eq` element by element.
fn pairwise<T>(new: &[T], old: &[T], eq: impl Fn(&T, &T) -> bool) -> bool {
    new.len() == old.len() && new.iter().zip(old).all(|(n, o)| eq(n, o))
}

/// The batch's schema changes, in batch order. Borrowed: a
/// `ReplaceRelations` carries its whole replacement extent.
fn schema_changes<'a>(batch: &'a [&'a UpdateMessage]) -> impl Iterator<Item = &'a SchemaChange> {
    batch.iter().filter_map(|m| match &m.update {
        SourceUpdate::Schema(sc) => Some(sc),
        SourceUpdate::Data(_) => None,
    })
}

/// Step 4: reads the batch point once and finishes the answer `shape` picks
/// from that read. The incremental answer homogenizes the batch's deltas
/// before the read; the projected one after it, and only once every read
/// answered live — a port that ships its reads recomputes instead, paying
/// exactly the recompute's queries and charges.
fn answer(
    new_view: ViewDefinition,
    shape: Shape<'_>,
    batch: &[&UpdateMessage],
    comp: &mut Compensation<'_>,
    port: &mut dyn SourcePort,
    prof: Profiler<'_>,
) -> Result<(Adapted, Answer), BatchFailure> {
    if let Shape::Same = shape {
        let deltas = batch_deltas(&new_view, batch, port)?;
        let reads = read_batch_point(&new_view, comp, port)?;
        let rows = equation6_from(&new_view.query, deltas, reads, comp, port, prof)?;
        let delta = ViewDelta { cols: new_view.output_cols(), rows };
        return Ok((Adapted::Incremental { view: new_view, delta }, Answer::Incremental));
    }
    let reads = read_batch_point(&new_view, comp, port)?;
    match shape {
        Shape::Projected(extent, indices) if reads.iter().all(|(_, state)| state.is_none()) => {
            // `V′` keeps `V`'s FROM list and WHERE clause and selects a
            // sub-sequence of its columns, so at the state the extent
            // reflects, `V′` *is* the extent projected; `ΔV′` is Equation 6
            // over `V′`, every hop live. The result is a whole extent, as a
            // recompute's is, so the commit, the log and peer replicas see a
            // `Replaced`.
            let deltas = batch_deltas(&new_view, batch, port)?;
            let dv = equation6_from(&new_view.query, deltas, reads, comp, port, prof)?;
            let mut rows = extent.project(&indices);
            rows.merge(&dv);
            if !rows.is_non_negative() {
                return Err(BatchFailure::Internal(RelationalError::InvalidQuery {
                    reason: "projected view extent has negative multiplicities".into(),
                }));
            }
            let cols = new_view.output_cols();
            Ok((Adapted::Replaced { view: new_view, cols, extent: rows }, Answer::Projected))
        }
        _ => recompute(new_view, reads, comp, port).map(|adapted| (adapted, Answer::Recompute)),
    }
}

/// One relation of `V′` read at the batch point: its adaptation query, and
/// the shipped state rolled back to the batch point (`None` when the port
/// answered live).
type Read = (SpjQuery, Option<(Schema, ZSet)>);

/// The batch-point read every answer finishes from: each relation of `V′`,
/// in FROM order, through [`SourcePort::read_for_adaptation`] — a real
/// maintenance query, which may break. A shipped answer comes back rolled
/// back past pending updates to the batch point. A live answer ships
/// nothing; its pending updates are only checked to project onto the read's
/// columns (the one way the rollback fails), so it breaks where a shipped
/// read would.
fn read_batch_point(
    new_view: &ViewDefinition,
    comp: &mut Compensation<'_>,
    port: &mut dyn SourcePort,
) -> Result<Vec<Read>, BatchFailure> {
    let mut reads = Vec::with_capacity(new_view.query.tables.len());
    for table in &new_view.query.tables {
        let q = adaptation_query(new_view, table);
        let state = match port.read_for_adaptation(&q).map_err(|e| read_failure(&q, e))? {
            AdaptRead::Shipped(fetched) => Some(roll_back_pending(table, fetched, comp, port)?),
            AdaptRead::Live => {
                for du in comp.of(port, table) {
                    for p in &q.projection {
                        du.delta.schema().require(&p.output).map_err(classify_rollback_error)?;
                    }
                }
                None
            }
        };
        reads.push((q, state));
    }
    Ok(reads)
}

/// The recompute answer: `V′` evaluated wholesale over the batch-point
/// states. A relation the port answered live is shipped now, with `execute`,
/// and rolled back as a shipped read is.
fn recompute(
    new_view: ViewDefinition,
    reads: Vec<Read>,
    comp: &mut Compensation<'_>,
    port: &mut dyn SourcePort,
) -> Result<Adapted, BatchFailure> {
    let mut states = LocalProvider::new();
    for (table, (q, state)) in new_view.query.tables.iter().zip(reads) {
        let (schema, rows) = match state {
            Some(state) => state,
            None => {
                let fetched = port.execute(&q, &[]).map_err(|e| read_failure(&q, e))?;
                roll_back_pending(table, fetched, comp, port)?
            }
        };
        states.insert(schema, rows);
    }
    let result = dyno_relational::eval(&new_view.query, &states).map_err(BatchFailure::Internal)?;
    port.charge_local(result.weight());
    if !result.rows.is_non_negative() {
        return Err(BatchFailure::Internal(RelationalError::InvalidQuery {
            reason: "recomputed view extent has negative multiplicities".into(),
        }));
    }
    Ok(Adapted::Replaced { view: new_view, cols: result.cols, extent: result.rows })
}

/// The adaptation read of one relation of `V′`: its single-table projection
/// onto the columns the view references.
fn adaptation_query(new_view: &ViewDefinition, table: &str) -> SpjQuery {
    SpjQuery {
        tables: vec![table.to_string()],
        projection: new_view.cols_of_relation(table).into_iter().map(ProjItem::plain).collect(),
        predicates: Vec::new(),
    }
}

/// A failed adaptation read, classified as any maintenance query is.
fn read_failure(q: &SpjQuery, e: RelationalError) -> BatchFailure {
    BatchFailure::from(MaintFailure::from_query(|| q.clone(), e))
}

/// Rolls rows shipped at the sources' current state back to the batch point
/// by subtracting pending non-batch data updates (anomaly-type-(2)
/// compensation). The batch's own effects — its data updates and committed
/// schema changes — remain included. The fetch projects to the view's
/// referenced columns, so the state's attribute names are the plain source
/// names.
fn roll_back_pending(
    table: &str,
    fetched: QueryResult,
    comp: &mut Compensation<'_>,
    port: &mut dyn SourcePort,
) -> Result<(Schema, ZSet), BatchFailure> {
    let mut rows = fetched.rows;
    for du in comp.of(port, table) {
        let projected = du.delta.project_to(&fetched.cols).map_err(classify_rollback_error)?;
        port.charge_local(projected.weight());
        rows.merge_negated(projected.rows());
    }
    Ok((schema_from_bag(table, &fetched.cols, &rows), rows))
}

/// The batch's data updates, homogenized and grouped by final relation
/// name; relations `V′` does not reference are left out.
///
/// Each delta must be mapped through the *raw* schema changes that follow it
/// in the batch (batch order preserves per-source commit order): the
/// composed sequence has collapsed away intermediate relation names that
/// deltas committed mid-chain still carry.
fn batch_deltas(
    new_view: &ViewDefinition,
    batch: &[&UpdateMessage],
    port: &mut dyn SourcePort,
) -> Result<HashMap<String, Delta>, BatchFailure> {
    let mut batch_deltas: HashMap<String, Delta> = HashMap::new();
    for (i, m) in batch.iter().enumerate() {
        let SourceUpdate::Data(du) = &m.update else { continue };
        let homogenized = homogenize_delta(&du.delta, schema_changes(&batch[i + 1..]))
            .map_err(BatchFailure::Internal)?;
        port.charge_local(homogenized.weight());
        let name = homogenized.schema().relation.clone();
        if !new_view.references_relation(&name) {
            continue; // irrelevant to this view
        }
        match batch_deltas.entry(name) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.get_mut().merge(&homogenized).map_err(BatchFailure::Internal)?;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(homogenized);
            }
        }
    }
    Ok(batch_deltas)
}

/// `ΔV′` by Equation 6 from the batch-point `reads`, each of the batch's
/// `deltas` projected onto its read's columns. A shipped read, rolled back
/// past its delta too, is the *old* state that relation's hops run over;
/// every other hop goes live to the port and is compensated.
fn equation6_from(
    query: &SpjQuery,
    mut deltas: HashMap<String, Delta>,
    reads: Vec<Read>,
    comp: &mut Compensation<'_>,
    port: &mut dyn SourcePort,
    prof: Profiler<'_>,
) -> Result<ZSet, BatchFailure> {
    let mut shipped: HashMap<String, (Schema, ZSet)> = HashMap::new();
    for (table, (q, mut state)) in query.tables.iter().zip(reads) {
        if let Some(delta) = deltas.get_mut(table) {
            let cols: Vec<String> = q.projection.iter().map(|p| p.output.clone()).collect();
            *delta = delta.project_to(&cols).map_err(classify_rollback_error)?;
            if let Some((_, rows)) = &mut state {
                rows.merge_negated(delta.rows());
            }
        }
        if let Some(state) = state {
            shipped.insert(table.clone(), state);
        }
    }
    prof.invocation();
    let slices: HashMap<&str, TableSlice<'_>> =
        deltas.iter().map(|(t, d)| (t.as_str(), d.into())).collect();
    let old_states = OldStates(&shipped);
    let hop_rows = |hop: &HopRequest<'_>, delta_j: Option<TableSlice<'_>>, ahead| {
        if shipped.contains_key(hop.target) {
            return shipped_hop(&old_states, hop, delta_j, ahead).map_err(BatchFailure::Internal);
        }
        // A live hop probes the batch point plus every pending update: `comp`
        // takes those back out, and when `Rⱼ` follows `Rᵢ` and so joins at
        // its old state, the batch's own `ΔRⱼ` goes too. By bilinearity this
        // equals `shipped_hop` over the rolled-back extent.
        let mut rows = comp.hop(port, hop, Profiler::default(), 0)?;
        if let (false, Some(delta_j)) = (ahead, delta_j) {
            rows.merge_negated(&compensate(hop, delta_j).map_err(BatchFailure::Internal)?);
        }
        Ok(rows)
    };
    let dv = equation6_chain(query, &slices, hop_rows, BatchFailure::Internal, prof)?;
    port.charge_local(dv.weight());
    Ok(dv.rows)
}

/// Homogenizes a data update's delta through a schema-change sequence —
/// composed, or the raw changes that follow it in its batch (paper
/// Section 5): relation and attribute renames are followed, dropped
/// attributes are projected out, and attributes added later are filled with
/// their declared defaults — so deltas committed under different schema
/// versions become union-compatible in the final schema.
pub fn homogenize_delta<'c>(
    delta: &Delta,
    changes: impl IntoIterator<Item = &'c SchemaChange>,
) -> Result<Delta, RelationalError> {
    let mut name = delta.schema().relation.clone();
    let mut schema = delta.schema().clone();
    let mut rows = delta.rows().clone();
    for change in changes {
        match change {
            SchemaChange::RenameRelation { from, to } if *from == name => {
                name = to.clone();
                schema = schema.renamed(to.clone());
            }
            SchemaChange::RenameAttribute { relation, from, to }
                if *relation == name && schema.has_attr(from) =>
            {
                schema = schema.with_attr_renamed(from, to)?;
            }
            SchemaChange::DropAttribute { relation, attr }
                if *relation == name && schema.has_attr(attr) =>
            {
                let idx = schema.require(attr)?;
                let keep: Vec<usize> = (0..schema.arity()).filter(|&i| i != idx).collect();
                schema = schema.with_attr_dropped(attr)?;
                rows = rows.project(&keep);
            }
            SchemaChange::AddAttribute { relation, attr, default }
                if *relation == name && !schema.has_attr(&attr.name) =>
            {
                schema = schema.with_attr_added(attr.clone())?;
                rows = rows.widened(default);
            }
            _ => {}
        }
    }
    Delta::from_bag(schema, rows)
}

/// Rollback projection failures: a missing attribute means a concurrent
/// schema change drifted under us — a broken-query situation, not a bug.
fn classify_rollback_error(e: RelationalError) -> BatchFailure {
    if e.is_schema_conflict() {
        BatchFailure::Broken(MaintFailure::Broken { query: "<delta rollback>".into(), error: e })
    } else {
        BatchFailure::Internal(e)
    }
}

/// Paper Equation 6: the incremental delta of an n-way join view given, for
/// each relation, its old state and its delta. Term `i` joins relations
/// `1..i` at their **new** states, relation `i`'s **delta**, and relations
/// `i+1..n` at their **old** states:
///
/// ```text
/// ΔV = ΔR₁ ⋈ R₂ ⋈ … ⋈ Rₙ
///    + R₁ⁿᵉʷ ⋈ ΔR₂ ⋈ R₃ ⋈ … ⋈ Rₙ
///    + …
///    + R₁ⁿᵉʷ ⋈ … ⋈ Rₙ₋₁ⁿᵉʷ ⋈ ΔRₙ
/// ```
///
/// `old` maps each of the query's tables to `(schema, rows)` at the state
/// the view currently reflects; `deltas` maps table name to its signed
/// change (tables absent from `deltas` are unchanged).
///
/// Each term is computed as SWEEP computes a data update's view delta, with
/// the fetched old states standing in for the sources: the relation's
/// [`MaintPlan`], `ΔRᵢ` seeded through the plan's local selection and
/// projection, one hop per other relation against its **old** state — and,
/// because `Rⱼⁿᵉʷ = Rⱼ + ΔRⱼ` and the join is bilinear, the compensation
/// term `D ⋈ ΔRⱼ` *added* for every changed relation that precedes `Rᵢ` in
/// FROM order — then the final projection. No new state is materialized and
/// no term scans a relation it does not have to; everything is local.
///
/// ```
/// use std::collections::HashMap;
/// use dyno_relational::{AttrType, Schema, ZSet, SpjQuery, Tuple};
/// use dyno_view::equation6_delta;
///
/// let schema = |n: &str| Schema::of(n, &[("k", AttrType::Int)]);
/// let row = |k: i64| Tuple::of([k]);
/// let bag = |ks: &[i64]| ks.iter().map(|&k| (row(k), 1)).collect::<ZSet>();
///
/// let query = SpjQuery::over(["R", "S"])
///     .select("R", "k")
///     .join_eq(("R", "k"), ("S", "k"))
///     .build();
/// let mut old = HashMap::new();
/// old.insert("R".to_string(), (schema("R"), bag(&[1, 2])));
/// old.insert("S".to_string(), (schema("S"), bag(&[2, 3])));
/// // R gains key 3: the join gains one row.
/// let mut deltas = HashMap::new();
/// deltas.insert("R".to_string(), bag(&[3]));
///
/// let dv = equation6_delta(&query, &old, &deltas).unwrap();
/// assert_eq!(dv.rows.count(&row(3)), 1);
/// assert_eq!(dv.weight(), 1);
/// ```
pub fn equation6_delta(
    query: &SpjQuery,
    old: &HashMap<String, (Schema, ZSet)>,
    deltas: &HashMap<String, ZSet>,
) -> Result<QueryResult, RelationalError> {
    for t in &query.tables {
        if !old.contains_key(t) {
            return Err(RelationalError::UnknownRelation { relation: t.clone() });
        }
    }
    let deltas: HashMap<&str, TableSlice<'_>> = deltas
        .iter()
        .filter_map(|(t, rows)| {
            old.get(t).map(|(schema, _)| (t.as_str(), TableSlice { schema, rows }))
        })
        .collect();
    let old_states = OldStates(old);
    equation6_chain(
        query,
        &deltas,
        |hop, delta_j, ahead| shipped_hop(&old_states, hop, delta_j, ahead),
        |e| e,
        Profiler::default(),
    )
}

/// Equation 6 as one SWEEP chain per changed relation `Rᵢ`: its
/// [`MaintPlan`], `ΔRᵢ` seeded through the plan's local selection and
/// projection, the plan's hop chain, the final projection. `hop_rows`
/// answers each hop with the target's rows term `i` needs, given `ΔRⱼ` when
/// the target changed and whether it precedes `Rᵢ` in FROM order (then it
/// joins at its new state, otherwise at its old). Each term is an
/// `eq6_term` node of `prof`'s plan (scope `"batch"`, phase `adapt`) keyed
/// by the changed relation; `internal` lifts the chain's own errors.
fn equation6_chain<E>(
    query: &SpjQuery,
    deltas: &HashMap<&str, TableSlice<'_>>,
    mut hop_rows: impl FnMut(&HopRequest<'_>, Option<TableSlice<'_>>, bool) -> Result<ZSet, E>,
    internal: impl Fn(RelationalError) -> E,
    prof: Profiler<'_>,
) -> Result<QueryResult, E> {
    let tables = &query.tables;
    let cols: Vec<String> = query.projection.iter().map(|p| p.output.clone()).collect();
    let mut total = QueryResult::empty(cols);
    let changed = |table: &str| deltas.get(table).copied().filter(|d| !d.rows.is_empty());

    for (i, table_i) in tables.iter().enumerate() {
        let Some(delta_i) = changed(table_i) else {
            continue; // unchanged relation contributes no term
        };
        let window = prof.start(|| delta_i.rows.distinct_len());
        let plan = MaintPlan::for_query(query, table_i).map_err(&internal)?;
        let seed = seed_delta(&plan, delta_i, Profiler::default()).map_err(&internal)?;
        let ahead = |target: &str| tables[..i].iter().any(|t| t == target);
        let d_rows = hop_chain(&plan, 0, seed, |hop, _| {
            hop_rows(hop, changed(hop.target), ahead(hop.target))
        })?;
        let term = delta_project(&d_rows.unwrap_or_default(), &plan.final_indices);
        let step = (i + 1) as u32;
        prof.finish(window, step, OpPhase::Adapt, "eq6_term", table_i, || term.distinct_len());
        total.rows.merge(&term);
    }
    Ok(total)
}

/// A hop to a shipped old state `Rⱼ`: answered over the old rows, plus —
/// when `Rⱼ` precedes `Rᵢ` and so joins at `Rⱼⁿᵉʷ = Rⱼ + ΔRⱼ` — the
/// compensation term `D ⋈ ΔRⱼ` (the join is bilinear).
fn shipped_hop(
    old: &OldStates<'_>,
    hop: &HopRequest<'_>,
    delta_j: Option<TableSlice<'_>>,
    ahead: bool,
) -> Result<ZSet, RelationalError> {
    let mut rows = hop.answer(old)?;
    if let (true, Some(delta_j)) = (ahead, delta_j) {
        rows.merge(&compensate(hop, delta_j)?);
    }
    Ok(rows)
}

/// The shipped old states as the provider Equation 6's hops run against
/// (borrowed as they are; no indexes, so every hop is a scan join).
struct OldStates<'a>(&'a HashMap<String, (Schema, ZSet)>);

impl RelationProvider for OldStates<'_> {
    fn table(&self, name: &str) -> Result<TableSlice<'_>, RelationalError> {
        self.0
            .get(name)
            .map(|(schema, rows)| TableSlice { schema, rows })
            .ok_or_else(|| RelationalError::UnknownRelation { relation: name.into() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::InProcessPort;
    use crate::testkit::*;
    use dyno_relational::{Tuple, Value};
    use dyno_source::SourceId;

    fn off() -> Collector {
        Collector::disabled()
    }

    fn states_of(
        space: &dyno_source::SourceSpace,
        view: &ViewDefinition,
    ) -> HashMap<String, (Schema, ZSet)> {
        let mut out = HashMap::new();
        for t in &view.query.tables {
            let sid = space.locate(t).unwrap();
            let rel = space.server(sid).catalog().get(t).unwrap();
            out.insert(t.clone(), (rel.schema().clone(), rel.rows().clone()));
        }
        out
    }

    /// The view's extent over `space`, as a warehouse holds it.
    fn materialized(view: &ViewDefinition, space: &dyno_source::SourceSpace) -> MaterializedView {
        let result = dyno_relational::eval(&view.query, &space.provider()).unwrap();
        let mut mv = MaterializedView::new(view.name.clone(), view.output_cols());
        mv.replace(result.cols, result.rows).unwrap();
        mv
    }

    #[test]
    fn equation6_matches_recompute_for_inserts() {
        let space = bookinfo_space();
        let view = bookinfo_view();
        let old = states_of(&space, &view);
        // Delta: insert an item matching Store 10 and the Guide catalog row.
        let du = insert_item(10, "Data Integration Guide", "Adams", 36);
        let mut deltas = HashMap::new();
        deltas.insert("Item".to_string(), du.delta.rows().clone());

        let dv = equation6_delta(&view.query, &old, &deltas).unwrap();

        // Recompute: apply delta and evaluate fully, then diff.
        let mut provider_old = LocalProvider::new();
        let mut provider_new = LocalProvider::new();
        for (name, (schema, rows)) in &old {
            provider_old.insert(schema.clone(), rows.clone());
            let mut r = rows.clone();
            if let Some(d) = deltas.get(name) {
                r.merge(d);
            }
            provider_new.insert(schema.clone(), r);
        }
        let before = dyno_relational::eval(&view.query, &provider_old).unwrap();
        let after = dyno_relational::eval(&view.query, &provider_new).unwrap();
        assert_eq!(dv.rows, after.rows.diff(&before.rows));
        assert_eq!(dv.weight(), 1);
    }

    #[test]
    fn equation6_multi_relation_deltas() {
        let space = bookinfo_space();
        let view = bookinfo_view();
        let old = states_of(&space, &view);
        let mut deltas = HashMap::new();
        // Insert a store and an item that join with each other.
        let mut store_d = ZSet::new();
        store_d.add(Tuple::of([Value::from(99), Value::str("Powell's")]), 1);
        let mut item_d = ZSet::new();
        item_d.add(
            Tuple::of([
                Value::from(99),
                Value::str("Databases"),
                Value::str("Ullman"),
                Value::from(45),
            ]),
            1,
        );
        // And delete the original matching item.
        item_d.add(
            Tuple::of([
                Value::from(1),
                Value::str("Databases"),
                Value::str("Ullman"),
                Value::from(50),
            ]),
            -1,
        );
        deltas.insert("Store".to_string(), store_d);
        deltas.insert("Item".to_string(), item_d);

        let dv = equation6_delta(&view.query, &old, &deltas).unwrap();
        // Net effect: one row leaves (old item), one arrives (new pair).
        assert_eq!(dv.rows.net(), 0);
        assert_eq!(dv.rows.weight(), 2);
    }

    #[test]
    fn homogenize_matches_paper_example() {
        // Paper Section 5: "insert (3,4)", "drop first attribute",
        // "insert (5)" — the first insert homogenizes to "insert (4)".
        let schema2 = Schema::of(
            "T",
            &[("a", dyno_relational::AttrType::Int), ("b", dyno_relational::AttrType::Int)],
        );
        let early = dyno_relational::Delta::inserts(schema2, [Tuple::of([3i64, 4])]).unwrap();
        let composed = vec![SchemaChange::DropAttribute { relation: "T".into(), attr: "a".into() }];
        let h = homogenize_delta(&early, &composed).unwrap();
        assert_eq!(h.schema().arity(), 1);
        assert_eq!(h.rows().count(&Tuple::of([4i64])), 1);
    }

    #[test]
    fn homogenize_follows_renames_and_adds() {
        let schema = Schema::of("T", &[("a", dyno_relational::AttrType::Int)]);
        let delta = dyno_relational::Delta::inserts(schema, [Tuple::of([1i64])]).unwrap();
        let composed = vec![
            SchemaChange::RenameRelation { from: "T".into(), to: "T2".into() },
            SchemaChange::RenameAttribute {
                relation: "T2".into(),
                from: "a".into(),
                to: "x".into(),
            },
            SchemaChange::AddAttribute {
                relation: "T2".into(),
                attr: dyno_relational::Attribute::new("y", dyno_relational::AttrType::Int),
                default: Value::from(0),
            },
        ];
        let h = homogenize_delta(&delta, &composed).unwrap();
        assert_eq!(h.schema().relation, "T2");
        assert!(h.schema().has_attr("x") && h.schema().has_attr("y"));
        assert_eq!(h.rows().count(&Tuple::of([1i64, 0])), 1);
    }

    #[test]
    fn rename_batch_takes_incremental_path() {
        // A rename plus a same-source DU merge into a batch whose composed
        // changes preserve the view's shape → Equation-6 incremental path.
        let mut space = bookinfo_space();
        let view = bookinfo_view();
        let mv = materialized(&view, &space);
        let du = insert_item(10, "Data Integration Guide", "Adams", 36);
        let m1 = space.commit(SourceId(0), SourceUpdate::Data(du)).unwrap();
        let m2 = space
            .commit(
                SourceId(0),
                SourceUpdate::Schema(SchemaChange::RenameRelation {
                    from: "Item".into(),
                    to: "Item2".into(),
                }),
            )
            .unwrap();
        let info = space.info().clone();
        let mut port = InProcessPort::new(space);
        let batch = [&m1, &m2];
        let (res, _) = adapt_batch(
            (&view, &mv),
            &batch,
            Pending::default(),
            &info,
            AdaptationMode::Auto,
            &mut port,
            &off(),
        );
        match res.unwrap() {
            Adapted::Incremental { view: v, delta } => {
                assert!(v.references_relation("Item2"));
                assert_eq!(delta.rows.net(), 1, "one new view tuple from the insert");
            }
            other => panic!("expected incremental adaptation, got {other:?}"),
        }
        // Forcing recompute yields the same definition and a full extent
        // whose content equals old extent + delta.
        let recompute = AdaptationMode::RecomputeOnly;
        let (res2, _) = adapt_batch(
            (&view, &mv),
            &batch,
            Pending::default(),
            &info,
            recompute,
            &mut port,
            &off(),
        );
        match res2.unwrap() {
            Adapted::Replaced { extent, .. } => assert_eq!(extent.weight(), 2),
            other => panic!("RecomputeOnly must recompute, got {other:?}"),
        }
    }

    #[test]
    fn adapt_batch_reproduces_query5_scenario() {
        // Section 3.5 / Figure 4: DU1 + SC1 (StoreItems) + SC2 (drop Review)
        // merged into one batch; the adapted view is Query (5) and its
        // extent reflects all three updates.
        let mut space = bookinfo_space();
        let view = bookinfo_view();
        let mv = materialized(&view, &space);
        let du1 = insert_item(10, "Data Integration Guide", "Adams", 36);
        let m1 = space.commit(SourceId(0), SourceUpdate::Data(du1)).unwrap();
        let store = space.server(SourceId(0)).catalog().get("Store").unwrap().clone();
        let item = space.server(SourceId(0)).catalog().get("Item").unwrap().clone();
        let sc1 = storeitems_change(&store, &item);
        let m2 = space.commit(SourceId(0), SourceUpdate::Schema(sc1)).unwrap();
        let sc2 = SchemaChange::DropAttribute { relation: "Catalog".into(), attr: "Review".into() };
        let m3 = space.commit(SourceId(1), SourceUpdate::Schema(sc2)).unwrap();

        let info = space.info().clone();
        let mut port = InProcessPort::new(space);
        let batch = [&m1, &m2, &m3];
        let (res, drained) = adapt_batch(
            (&view, &mv),
            &batch,
            Pending::default(),
            &info,
            AdaptationMode::Auto,
            &mut port,
            &off(),
        );
        assert!(drained.is_empty());
        let adapted = res.unwrap();
        assert!(adapted.view().references_relation("StoreItems"));
        assert!(adapted.view().references_relation("ReaderDigest"));
        // A relation replacement forces the recompute path; the extent holds
        // 'Databases' (Store 1) and 'Data Integration Guide' (Store 10),
        // both joining Catalog and ReaderDigest.
        match adapted {
            Adapted::Replaced { extent, .. } => assert_eq!(extent.weight(), 2),
            other => panic!("expected recompute for a relation replacement, got {other:?}"),
        }
    }

    #[test]
    fn adapt_batch_breaks_on_concurrent_rename() {
        // A schema change outside the batch renames Catalog before the
        // adaptation queries run → broken query.
        let mut space = bookinfo_space();
        let view = bookinfo_view();
        let mv = materialized(&view, &space);
        let sc2 = SchemaChange::DropAttribute { relation: "Catalog".into(), attr: "Review".into() };
        let m = space.commit(SourceId(1), SourceUpdate::Schema(sc2)).unwrap();
        // Concurrent, unbuffered rename commits at the source.
        space
            .commit(
                SourceId(1),
                SourceUpdate::Schema(SchemaChange::RenameRelation {
                    from: "Catalog".into(),
                    to: "Catalogue".into(),
                }),
            )
            .unwrap();
        let info = space.info().clone();
        let mut port = InProcessPort::new(space);
        let (res, _) = adapt_batch(
            (&view, &mv),
            &[&m],
            Pending::default(),
            &info,
            AdaptationMode::Auto,
            &mut port,
            &off(),
        );
        assert!(matches!(res.unwrap_err(), BatchFailure::Broken(_)));
    }

    #[test]
    fn adapt_batch_compensates_pending_updates() {
        // A pending (unprocessed, non-batch) DU must not leak into the
        // batch-point extent.
        let mut space = bookinfo_space();
        let view = bookinfo_view();
        let mv = materialized(&view, &space);
        let sc = SchemaChange::DropAttribute { relation: "Catalog".into(), attr: "Review".into() };
        let m_sc = space.commit(SourceId(1), SourceUpdate::Schema(sc)).unwrap();
        // Pending DU committed after the SC.
        let du = insert_item(10, "Data Integration Guide", "Adams", 36);
        let m_du = space.commit(SourceId(0), SourceUpdate::Data(du)).unwrap();

        let info = space.info().clone();
        let mut port = InProcessPort::new(space);
        let auto = AdaptationMode::Auto;
        let (res, _) = adapt_batch(
            (&view, &mv),
            &[&m_sc],
            Pending::loose(&[&m_du]),
            &info,
            auto,
            &mut port,
            &off(),
        );
        // Only the original 'Databases' row — the pending insert is rolled
        // back (it will be maintained by its own SWEEP pass later).
        match res.unwrap() {
            Adapted::Replaced { extent, .. } => assert_eq!(extent.weight(), 1),
            other => panic!("attribute replacement adds a relation → recompute, got {other:?}"),
        }
    }

    #[test]
    fn incremental_adaptation_compensates_pending_updates() {
        // A rename batch (new Item row + Store → Shop) adapts incrementally;
        // a pending Catalog row joins the batch's Item row and must not leak
        // into ΔV, whether the port ships its extents or answers live.
        let mut space = bookinfo_space();
        let view = bookinfo_view();
        let mv = materialized(&view, &space);
        let before = mv.extent().clone();
        let du = insert_item(10, "Data Integration Guide", "Adams", 36);
        let m1 = space.commit(SourceId(0), SourceUpdate::Data(du)).unwrap();
        let rename = SchemaChange::RenameRelation { from: "Store".into(), to: "Shop".into() };
        let m2 = space.commit(SourceId(0), SourceUpdate::Schema(rename)).unwrap();
        let at_batch_point = space.clone();
        let catalog = space.server(SourceId(1)).catalog().get("Catalog").unwrap().schema().clone();
        let row = ["Data Integration Guide", "Adams", "Engineering", "MIT", "fine"];
        let pending_du = dyno_relational::DataUpdate::new(
            dyno_relational::Delta::inserts(catalog, [Tuple::of(row.map(Value::str))]).unwrap(),
        );
        let pending = space.commit(SourceId(1), SourceUpdate::Data(pending_du)).unwrap();

        let info = space.info().clone();
        let mut live = InProcessPort::new(space);
        let mut shipped_base = live.clone();
        let mut shipped = crate::engine::TracingPort::new(&mut shipped_base);
        for port in [&mut live as &mut dyn SourcePort, &mut shipped] {
            let (batch, auto) = ([&m1, &m2], AdaptationMode::Auto);
            let (res, _) = adapt_batch(
                (&view, &mv),
                &batch,
                Pending::loose(&[&pending]),
                &info,
                auto,
                port,
                &off(),
            );
            let Adapted::Incremental { view: v, delta } = res.unwrap() else {
                panic!("a rename batch adapts incrementally");
            };
            let after = dyno_relational::eval(&v.query, &at_batch_point.provider()).unwrap().rows;
            assert_eq!(delta.rows, after.diff(&before), "ΔV = batch-point extent − extent before");
            assert_eq!(delta.rows.weight(), 1, "the pending Catalog row is rolled back");
        }
        assert!(shipped.trace().len() >= 3, "the traced port shipped the extents");
    }
}
