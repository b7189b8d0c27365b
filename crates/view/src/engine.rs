//! The query engine boundary between the view manager and the source space.
//!
//! The [`SourcePort`] trait is where all the paper's timing phenomena live:
//! a port executes maintenance queries against the sources' **current**
//! states (committing any updates that become due first — that is how
//! concurrent updates sneak into query results), reports schema conflicts as
//! broken queries, meters simulated cost, and streams newly committed
//! updates back to the wrapper/UMQ side.
//!
//! `dyno-view` ships [`InProcessPort`], an untimed implementation over a
//! [`SourceSpace`] for tests and examples; the discrete-event simulation in
//! `dyno-sim` provides the timed implementation used by the experiments.

use std::collections::HashMap;

use dyno_relational::exec::{RelationProvider, TableSlice};
use dyno_relational::{
    delta_hop, eval, AttrType, Attribute, CmpOp, ColRef, Predicate, ProjItem, QueryResult,
    RelationalError, Schema, SpjQuery, Value, ZSet,
};
use dyno_source::{SourceId, SourceSpace, UpdateMessage};

use crate::vm::{flat, D};

/// A table shipped with a query (e.g. an update's delta bound in place of
/// its relation in a maintenance query).
#[derive(Debug, Clone)]
pub struct BoundTable {
    /// The name the query refers to it by.
    pub name: String,
    /// Column names, in tuple order.
    pub cols: Vec<String>,
    /// Signed rows.
    pub rows: ZSet,
}

impl BoundTable {
    /// Builds the schema the executor needs, inferring attribute types from
    /// the data (bound tables are intermediate results; any non-NULL value
    /// determines its column's type, and empty/all-NULL columns default to
    /// `Int`, which type-checks trivially because there is nothing to check).
    pub fn to_schema(&self) -> Schema {
        schema_from_bag(&self.name, &self.cols, &self.rows)
    }
}

/// Infers a [`Schema`] for an intermediate result.
pub fn schema_from_bag(name: &str, cols: &[String], rows: &ZSet) -> Schema {
    let mut types: Vec<Option<AttrType>> = vec![None; cols.len()];
    for (t, _) in rows.iter() {
        let mut all_known = true;
        for (i, v) in t.values().iter().enumerate() {
            if types[i].is_none() {
                types[i] = v.runtime_type();
            }
            all_known &= types[i].is_some();
        }
        if all_known {
            break;
        }
    }
    let attrs = cols
        .iter()
        .zip(&types)
        .map(|(n, ty)| Attribute::new(n.clone(), ty.unwrap_or(AttrType::Int)))
        .collect();
    Schema::new(name, attrs).expect("intermediate columns are unique by construction")
}

/// Where the names of Δ's columns come from when a [`HopRequest`] has to be
/// rendered as a query. The hop itself is positional and never looks.
#[derive(Debug, Clone, Copy)]
pub enum DeltaCols<'a> {
    /// A chain hop: the running intermediate's (flattened) column names.
    Named(&'a [String]),
    /// A first hop over an update's own delta at full width: `R.a` for
    /// every attribute `a` of its schema `R`.
    Delta(&'a Schema),
}

impl DeltaCols<'_> {
    /// Δ's arity.
    pub fn arity(&self) -> usize {
        match self {
            DeltaCols::Named(cols) => cols.len(),
            DeltaCols::Delta(schema) => schema.arity(),
        }
    }

    /// The column names, in tuple order.
    pub fn names(&self) -> Vec<String> {
        match self {
            DeltaCols::Named(cols) => cols.to_vec(),
            DeltaCols::Delta(schema) => {
                schema.attrs().iter().map(|a| format!("{}.{}", schema.relation, a.name)).collect()
            }
        }
    }
}

/// One SWEEP hop as a *request*: the intermediate Δ plus the precompiled
/// form of the paper's maintenance query `Δ ⋈ target` (Query (2)), so the
/// source answers with [`delta_hop`] — an index probe when it can — instead
/// of parsing, validating and planning a query per update.
#[derive(Debug, Clone, Copy)]
pub struct HopRequest<'a> {
    /// The view relation to join in.
    pub target: &'a str,
    /// Equi-join keys: position in Δ's rows ↔ target attribute.
    pub join_keys: &'a [(usize, String)],
    /// Constant filters on the target (attribute, op, literal).
    pub t_filters: &'a [(String, CmpOp, Value)],
    /// Target attributes to append to each Δ row, in output order.
    pub t_proj: &'a [String],
    /// Names for Δ's columns, should the request be rendered as a query.
    pub d_cols: DeltaCols<'a>,
    /// The intermediate Δ.
    pub delta: &'a ZSet,
}

impl HopRequest<'_> {
    /// Answers the request over `provider`'s current tables.
    pub fn answer<P: RelationProvider + ?Sized>(
        &self,
        provider: &P,
    ) -> Result<ZSet, RelationalError> {
        delta_hop(provider, self.target, self.join_keys, self.t_filters, self.t_proj, self.delta)
    }

    /// The request as the `__D ⋈ target` query it compiles: what a port
    /// without a native [`SourcePort::hop`] executes, and what error
    /// reports quote.
    pub fn query(&self) -> SpjQuery {
        let d_cols = self.d_cols.names();
        let t_col = |a: &String| ColRef::new(self.target, a.clone());
        SpjQuery {
            tables: vec![D.to_string(), self.target.to_string()],
            projection: d_cols
                .iter()
                .map(|c| ProjItem::aliased(ColRef::new(D, c.clone()), c.clone()))
                .chain(self.t_proj.iter().map(|a| ProjItem::aliased(t_col(a), flat(&t_col(a)))))
                .collect(),
            predicates: self
                .join_keys
                .iter()
                .map(|(pos, a)| Predicate::JoinEq(ColRef::new(D, d_cols[*pos].clone()), t_col(a)))
                .chain(
                    self.t_filters
                        .iter()
                        .map(|(a, op, v)| Predicate::Compare(t_col(a), *op, v.clone())),
                )
                .collect(),
        }
    }
}

/// How a port answered the adaptation read of one relation of `V′`
/// ([`SourcePort::read_for_adaptation`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdaptRead {
    /// The relation's rows, shipped: the view manager rolls pending updates
    /// out of them and answers Equation 6's hops to this relation locally.
    Shipped(QueryResult),
    /// The query validated against the port's current state and no rows
    /// were shipped: Equation 6's hops to this relation go to
    /// [`SourcePort::hop`], and the view manager compensates their answers.
    Live,
}

/// Maintenance lifecycle notifications, so a timed port can meter
/// per-maintenance and abort ("wasted work") costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintEvent {
    /// Maintenance of one queue entry is starting.
    Begin {
        /// Updates in the entry (1 unless a merged batch).
        updates: usize,
        /// How many of them are schema changes.
        schema_changes: usize,
    },
    /// Maintenance committed to the view.
    Commit,
    /// Maintenance aborted on a broken query; all its work is discarded.
    Abort,
    /// Maintenance could not run because a source it needs is down; the
    /// entry stays queued and nothing about the view changed.
    Park,
}

/// The view manager's window onto the source space.
pub trait SourcePort {
    /// Current simulated time (milliseconds). Untimed ports return 0.
    fn now_ms(&self) -> u64;

    /// Current simulated time in microseconds — the resolution fault
    /// injection works at. Defaults to `now_ms() * 1000`; timed ports
    /// override with their exact clock.
    fn now_us(&self) -> u64 {
        self.now_ms() * 1000
    }

    /// Charges pure waiting time (retry backoff, crash-recovery waits) to
    /// the clock without attributing it to any query. Untimed ports ignore
    /// it.
    fn advance_wait(&mut self, _us: u64) {}

    /// Executes a query over the sources' current states, with `bound`
    /// tables spliced in by name. Schema conflicts surface as
    /// `Err(e)` with `e.is_schema_conflict()` — the broken-query signal.
    fn execute(
        &mut self,
        query: &SpjQuery,
        bound: &[BoundTable],
    ) -> Result<QueryResult, RelationalError>;

    /// Answers one SWEEP hop over the target's current state. Semantically
    /// `execute(req.query(), [Δ bound as __D]).rows` — which is the default,
    /// so a port that only implements [`SourcePort::execute`] keeps working —
    /// but every in-repo port answers natively through [`delta_hop`], with
    /// the same results, errors, faults and metering.
    fn hop(&mut self, req: &HopRequest<'_>) -> Result<ZSet, RelationalError> {
        let bound =
            BoundTable { name: D.to_string(), cols: req.d_cols.names(), rows: req.delta.clone() };
        self.execute(&req.query(), &[bound]).map(|r| r.rows)
    }

    /// The adaptation read of one relation of a rewritten view `V′`: `query`
    /// is its single-table projection onto the columns `V′` uses, issued by
    /// Equation 6's incremental path once per relation, in FROM order,
    /// before any hop. A schema conflict is the broken-query signal, exactly
    /// as from [`SourcePort::execute`].
    ///
    /// The default ships the rows — `execute(query, [])` — so a port that
    /// does not override it (every timed, faulted or tracing port) keeps
    /// the paper's cost model of an adaptation: whole extents on the wire,
    /// hops answered over them at the view manager. A port whose hops are
    /// as cheap as a local probe may answer [`AdaptRead::Live`] instead,
    /// after the same validation: the incremental path then hops to the
    /// relation through [`SourcePort::hop`] and rolls pending updates and
    /// the batch's own delta out of each answer, so the adaptation costs
    /// |Δ| × hops probes instead of the extents. Both answers yield the
    /// same `Adapted`.
    fn read_for_adaptation(&mut self, query: &SpjQuery) -> Result<AdaptRead, RelationalError> {
        self.execute(query, &[]).map(AdaptRead::Shipped)
    }

    /// A pinned read of a relation as of a past source version. Nothing
    /// calls it and no port in this workspace implements it: view
    /// adaptation reads current state ([`SourcePort::read_for_adaptation`])
    /// and derives Equation 6's pre-images by compensation. The method stays
    /// on the trait only because the wall-clock benchmark's `TimingPort`,
    /// which is frozen, overrides it.
    fn fetch_relation_at(
        &mut self,
        source: SourceId,
        relation: &str,
        version: u64,
    ) -> Result<dyno_relational::Relation, RelationalError> {
        Err(RelationalError::InvalidQuery {
            reason: format!("no pinned read of `{relation}` at {source}@{version}"),
        })
    }

    /// The source currently hosting `relation`, if any.
    fn locate(&mut self, relation: &str) -> Option<SourceId>;

    /// Current version of a source.
    fn source_version(&mut self, source: SourceId) -> u64;

    /// Charges view-manager-local computation (compensation joins, Equation-6
    /// term evaluation) at the local cost rate.
    fn charge_local(&mut self, tuples: u64);

    /// Charges the `w(MV)` write of `tuples` tuples into the materialized
    /// view on commit. Defaults to the local rate.
    fn charge_mv_write(&mut self, tuples: u64) {
        self.charge_local(tuples);
    }

    /// Drains updates committed at the sources since the last drain —
    /// the wrapper → UMQ stream. Called by the view manager before each
    /// scheduling step and after each query (in-exec arrivals).
    fn drain_arrivals(&mut self) -> Vec<UpdateMessage>;

    /// Maintenance lifecycle notification (metering hook).
    fn on_maintenance_event(&mut self, _event: MaintEvent) {}
}

/// Evaluates a query against a base provider plus bound tables. Shared by
/// port implementations and by the view manager's *local* compensation
/// evaluation.
pub fn eval_with_bound<P: RelationProvider + ?Sized>(
    base: &P,
    query: &SpjQuery,
    bound: &[BoundTable],
) -> Result<QueryResult, RelationalError> {
    let schemas: Vec<Schema> = bound.iter().map(BoundTable::to_schema).collect();
    let mut overlay = dyno_relational::Overlay::new(base);
    for (b, s) in bound.iter().zip(&schemas) {
        overlay = overlay.bind(b.name.clone(), TableSlice { schema: s, rows: &b.rows });
    }
    eval(query, &overlay)
}

/// A provider over owned (schema, rows) pairs — used to evaluate queries
/// entirely at the view manager (compensation, Equation-6 terms).
#[derive(Debug, Clone, Default)]
pub struct LocalProvider {
    tables: HashMap<String, (Schema, ZSet)>,
}

impl LocalProvider {
    /// Empty provider.
    pub fn new() -> Self {
        LocalProvider::default()
    }

    /// Adds a table under its schema's relation name.
    pub fn insert(&mut self, schema: Schema, rows: ZSet) {
        self.tables.insert(schema.relation.clone(), (schema, rows));
    }

    /// Adds a relation.
    pub fn insert_relation(&mut self, relation: &dyno_relational::Relation) {
        self.insert(relation.schema().clone(), relation.rows().clone());
    }
}

impl RelationProvider for LocalProvider {
    fn table(&self, name: &str) -> Result<TableSlice<'_>, RelationalError> {
        self.tables
            .get(name)
            .map(|(s, r)| TableSlice { schema: s, rows: r })
            .ok_or_else(|| RelationalError::UnknownRelation { relation: name.to_string() })
    }
}

/// A decorator recording every source interaction in the notation of paper
/// Definition 1 — `r(DS₁) r(DS₂) … w(MV) c(MV)` — so tests and examples can
/// assert the *shape* of a maintenance process. (`r(VD)`/`w(VD)` happen
/// inside the view manager and are logged by the lifecycle events.)
pub struct TracingPort<'a, P: SourcePort + ?Sized> {
    inner: &'a mut P,
    trace: Vec<String>,
}

impl<'a, P: SourcePort + ?Sized> TracingPort<'a, P> {
    /// Wraps a port.
    pub fn new(inner: &'a mut P) -> Self {
        TracingPort { inner, trace: Vec::new() }
    }

    /// The operations recorded so far.
    pub fn trace(&self) -> &[String] {
        &self.trace
    }

    /// Takes the recorded operations, leaving the trace empty.
    pub fn take_trace(&mut self) -> Vec<String> {
        std::mem::take(&mut self.trace)
    }

    /// Records one `r(DS:relation)` per source relation a just-answered
    /// query or hop read, marking the last one when it came back broken.
    fn record_reads<'t>(&mut self, targets: impl IntoIterator<Item = &'t str>, broken: bool) {
        for t in targets {
            self.trace.push(match self.inner.locate(t) {
                Some(sid) => format!("r({sid}:{t})"),
                None => format!("r(?:{t})!"),
            });
        }
        if broken {
            if let Some(last) = self.trace.last_mut() {
                last.push_str("BROKEN");
            }
        }
    }
}

impl<P: SourcePort + ?Sized> SourcePort for TracingPort<'_, P> {
    fn now_ms(&self) -> u64 {
        self.inner.now_ms()
    }

    fn now_us(&self) -> u64 {
        self.inner.now_us()
    }

    fn advance_wait(&mut self, us: u64) {
        self.inner.advance_wait(us);
    }

    fn execute(
        &mut self,
        query: &SpjQuery,
        bound: &[BoundTable],
    ) -> Result<QueryResult, RelationalError> {
        let result = self.inner.execute(query, bound);
        let targets = query.tables.iter().filter(|t| !bound.iter().any(|b| b.name == **t));
        self.record_reads(targets.map(String::as_str), result.is_err());
        result
    }

    fn hop(&mut self, req: &HopRequest<'_>) -> Result<ZSet, RelationalError> {
        let result = self.inner.hop(req);
        self.record_reads([req.target], result.is_err());
        result
    }

    fn locate(&mut self, relation: &str) -> Option<SourceId> {
        self.inner.locate(relation)
    }

    fn source_version(&mut self, source: SourceId) -> u64 {
        self.inner.source_version(source)
    }

    fn charge_local(&mut self, tuples: u64) {
        self.inner.charge_local(tuples);
    }

    fn charge_mv_write(&mut self, tuples: u64) {
        self.trace.push("w(MV)".to_string());
        self.inner.charge_mv_write(tuples);
    }

    fn drain_arrivals(&mut self) -> Vec<UpdateMessage> {
        self.inner.drain_arrivals()
    }

    fn on_maintenance_event(&mut self, event: MaintEvent) {
        match event {
            MaintEvent::Begin { schema_changes, .. } => {
                self.trace.push(if schema_changes > 0 {
                    "r(VD)w(VD)".to_string()
                } else {
                    "r(VD)".to_string()
                });
            }
            MaintEvent::Commit => self.trace.push("c(MV)".to_string()),
            MaintEvent::Abort => self.trace.push("ABORT".to_string()),
            MaintEvent::Park => self.trace.push("PARK".to_string()),
        }
        self.inner.on_maintenance_event(event);
    }
}

/// An untimed, in-process port over a [`SourceSpace`]: queries see current
/// states immediately; commits made through [`InProcessPort::commit`] are
/// buffered as arrivals. Used by unit/integration tests and examples.
#[derive(Debug, Clone)]
pub struct InProcessPort {
    space: SourceSpace,
    arrivals: Vec<UpdateMessage>,
}

impl InProcessPort {
    /// Wraps a source space.
    pub fn new(space: SourceSpace) -> Self {
        InProcessPort { space, arrivals: Vec::new() }
    }

    /// The wrapped space.
    pub fn space(&self) -> &SourceSpace {
        &self.space
    }

    /// Mutable access to the wrapped space (test setup).
    pub fn space_mut(&mut self) -> &mut SourceSpace {
        &mut self.space
    }

    /// Commits an update at a source and buffers the wrapper message as an
    /// arrival for the view manager.
    pub fn commit(
        &mut self,
        source: SourceId,
        update: dyno_relational::SourceUpdate,
    ) -> Result<UpdateMessage, RelationalError> {
        let msg = self.space.commit(source, update)?;
        self.arrivals.push(msg.clone());
        Ok(msg)
    }
}

impl SourcePort for InProcessPort {
    fn now_ms(&self) -> u64 {
        0
    }

    fn execute(
        &mut self,
        query: &SpjQuery,
        bound: &[BoundTable],
    ) -> Result<QueryResult, RelationalError> {
        eval_with_bound(&self.space.provider(), query, bound)
    }

    fn hop(&mut self, req: &HopRequest<'_>) -> Result<ZSet, RelationalError> {
        req.answer(&self.space.provider())
    }

    /// Live: the sources are in process, so every hop is an index probe on
    /// current state and shipping the extent would only copy it.
    fn read_for_adaptation(&mut self, query: &SpjQuery) -> Result<AdaptRead, RelationalError> {
        dyno_relational::validate(query, &self.space.provider()).map(|()| AdaptRead::Live)
    }

    fn locate(&mut self, relation: &str) -> Option<SourceId> {
        self.space.locate(relation)
    }

    fn source_version(&mut self, source: SourceId) -> u64 {
        self.space.server(source).version()
    }

    fn charge_local(&mut self, _tuples: u64) {}

    fn drain_arrivals(&mut self) -> Vec<UpdateMessage> {
        std::mem::take(&mut self.arrivals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyno_relational::{Catalog, Relation, Tuple, Value};
    use dyno_source::SourceServer;

    fn small_space() -> SourceSpace {
        let mut sp = SourceSpace::new();
        let mut c = Catalog::new();
        c.add_relation(
            Relation::from_tuples(
                Schema::of("R", &[("id", AttrType::Int), ("v", AttrType::Str)]),
                [Tuple::of([Value::from(1), Value::str("a")])],
            )
            .unwrap(),
        )
        .unwrap();
        sp.add_server(SourceServer::new(SourceId(0), "s0", c));
        sp
    }

    #[test]
    fn schema_inference_from_data() {
        let mut rows = ZSet::new();
        rows.add(Tuple::of([Value::Null, Value::str("x")]), 1);
        rows.add(Tuple::of([Value::from(3), Value::str("y")]), 1);
        let s = schema_from_bag("T", &["a".into(), "b".into()], &rows);
        assert_eq!(s.attrs()[0].ty, AttrType::Int);
        assert_eq!(s.attrs()[1].ty, AttrType::Str);
    }

    #[test]
    fn schema_inference_empty_defaults() {
        let s = schema_from_bag("T", &["a".into()], &ZSet::new());
        assert_eq!(s.attrs()[0].ty, AttrType::Int);
    }

    #[test]
    fn in_process_port_executes_and_streams() {
        let mut port = InProcessPort::new(small_space());
        let q = SpjQuery::over(["R"]).select("R", "v").build();
        let out = port.execute(&q, &[]).unwrap();
        assert_eq!(out.weight(), 1);

        let schema = Schema::of("R", &[("id", AttrType::Int), ("v", AttrType::Str)]);
        port.commit(
            SourceId(0),
            dyno_relational::SourceUpdate::Data(dyno_relational::DataUpdate::new(
                dyno_relational::Delta::inserts(
                    schema,
                    [Tuple::of([Value::from(2), Value::str("b")])],
                )
                .unwrap(),
            )),
        )
        .unwrap();
        // The next query sees the committed update (concurrency!).
        let out2 = port.execute(&q, &[]).unwrap();
        assert_eq!(out2.weight(), 2);
        // And the arrival is streamed exactly once.
        assert_eq!(port.drain_arrivals().len(), 1);
        assert!(port.drain_arrivals().is_empty());
    }

    #[test]
    fn bound_table_shadows_source_relation() {
        let mut port = InProcessPort::new(small_space());
        let q = SpjQuery::over(["R"]).select("R", "v").build();
        let mut rows = ZSet::new();
        rows.add(Tuple::of([Value::from(9), Value::str("z")]), 1);
        let bound = BoundTable { name: "R".into(), cols: vec!["id".into(), "v".into()], rows };
        let out = port.execute(&q, &[bound]).unwrap();
        assert_eq!(out.weight(), 1);
        assert_eq!(out.rows.count(&Tuple::of([Value::str("z")])), 1);
    }

    #[test]
    fn tracing_port_records_definition1_shape() {
        use crate::testkit::{bookinfo_space, bookinfo_view, insert_item};
        use dyno_core::Strategy;
        use dyno_relational::SourceUpdate;

        // M(DU) = r(VD) r(DS…)… w(MV) c(MV)  (paper Definition 1(1)).
        let space = bookinfo_space();
        let info = space.info().clone();
        let mut port = InProcessPort::new(space);
        let mut mgr = crate::Warehouse::new(info, Strategy::Pessimistic);
        mgr.add_view(bookinfo_view());
        mgr.initialize(&mut port).unwrap();
        port.commit(
            SourceId(0),
            SourceUpdate::Data(insert_item(10, "Data Integration Guide", "Adams", 36)),
        )
        .unwrap();
        let mut traced = TracingPort::new(&mut port);
        mgr.run_to_quiescence(&mut traced, 10).unwrap();
        let trace = traced.take_trace();
        assert_eq!(trace.first().map(String::as_str), Some("r(VD)"));
        assert_eq!(trace.last().map(String::as_str), Some("c(MV)"));
        assert_eq!(trace[trace.len() - 2], "w(MV)");
        let reads = trace.iter().filter(|t| t.starts_with("r(DS") || t.contains(":")).count();
        assert_eq!(reads, 2, "probes Store and Catalog: {trace:?}");
    }

    #[test]
    fn tracing_port_records_sc_shape() {
        use crate::testkit::{bookinfo_space, bookinfo_view};
        use dyno_core::Strategy;
        use dyno_relational::{SchemaChange, SourceUpdate};

        // M(SC) = r(VD) w(VD) r(DS…)… w(MV) c(MV)  (paper Definition 1(2)).
        let space = bookinfo_space();
        let info = space.info().clone();
        let mut port = InProcessPort::new(space);
        let mut mgr = crate::Warehouse::new(info, Strategy::Pessimistic);
        mgr.add_view(bookinfo_view());
        mgr.initialize(&mut port).unwrap();
        port.commit(
            SourceId(1),
            SourceUpdate::Schema(SchemaChange::DropAttribute {
                relation: "Catalog".into(),
                attr: "Review".into(),
            }),
        )
        .unwrap();
        let mut traced = TracingPort::new(&mut port);
        mgr.run_to_quiescence(&mut traced, 10).unwrap();
        let trace = traced.take_trace();
        assert_eq!(trace.first().map(String::as_str), Some("r(VD)w(VD)"));
        assert_eq!(trace.last().map(String::as_str), Some("c(MV)"));
        assert!(trace.contains(&"w(MV)".to_string()));
    }

    #[test]
    fn local_provider_roundtrip() {
        let mut lp = LocalProvider::new();
        let schema = Schema::of("X", &[("a", AttrType::Int)]);
        let mut rows = ZSet::new();
        rows.add(Tuple::of([Value::from(1)]), -2);
        lp.insert(schema, rows);
        let q = SpjQuery::over(["X"]).select("X", "a").build();
        let out = eval(&q, &lp).unwrap();
        assert_eq!(out.rows.count(&Tuple::of([Value::from(1)])), -2);
    }
}
