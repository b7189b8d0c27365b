//! SPJ query evaluation over signed bags.
//!
//! The executor validates the query against the *current* schemas of the
//! provided tables — exactly like a query shipped to an autonomous source is
//! parsed against that source's current catalog. A mismatch (missing
//! relation or attribute) surfaces as a schema-conflict error, which the view
//! manager layer interprets as a **broken query** (paper Definition 2).
//!
//! Evaluation is uniform over signed multiplicities, so the same engine
//! serves ordinary queries (non-negative counts), maintenance queries with a
//! delta bound in place of a relation, and the Equation-6 adaptation terms
//! where deltas carry negative counts.

use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};

use crate::error::RelationalError;
use crate::hash::{hash_values, PreHashedMap};
use crate::index::{AttrName, HashIndex};
use crate::query::{CmpOp, Predicate, SpjQuery};
use crate::relation::{Delta, Relation};
use crate::schema::{ColRef, Schema};
use crate::tuple::{Tuple, ZSet};
use crate::value::Value;

/// Cumulative per-thread execution statistics, for attributing work in
/// traces. `dyno-relational` has no dependencies (including on the obs
/// crate), so the executor counts into a thread-local and callers sample
/// deltas into whatever metrics sink they own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Base-table rows visited (scans plus collision-checked bucket rows).
    pub rows_scanned: u64,
    /// Secondary-index lookups issued (load probes and join probes).
    pub index_probes: u64,
    /// Join steps executed via index-nested-loop probes.
    pub index_join_steps: u64,
    /// Join steps executed via the hash-join fallback.
    pub hash_join_steps: u64,
    /// Join steps that degenerated to a cartesian product because no
    /// equi-join predicate connected the next table to the intermediate.
    pub cartesian_fallbacks: u64,
    /// Output entries annihilated by Z-set weight cancellation — an `add`
    /// that brought a tuple's net weight to exactly zero inside a delta
    /// operator (projection collisions, join cross terms). High counts mean
    /// the operator did work the downstream pipeline never sees.
    pub weights_cancelled: u64,
}

impl ExecStats {
    /// Field-wise difference since an earlier snapshot.
    pub fn since(self, earlier: ExecStats) -> ExecStats {
        ExecStats {
            rows_scanned: self.rows_scanned.wrapping_sub(earlier.rows_scanned),
            index_probes: self.index_probes.wrapping_sub(earlier.index_probes),
            index_join_steps: self.index_join_steps.wrapping_sub(earlier.index_join_steps),
            hash_join_steps: self.hash_join_steps.wrapping_sub(earlier.hash_join_steps),
            cartesian_fallbacks: self.cartesian_fallbacks.wrapping_sub(earlier.cartesian_fallbacks),
            weights_cancelled: self.weights_cancelled.wrapping_sub(earlier.weights_cancelled),
        }
    }
}

thread_local! {
    static EXEC_STATS: Cell<ExecStats> = const {
        Cell::new(ExecStats {
            rows_scanned: 0,
            index_probes: 0,
            index_join_steps: 0,
            hash_join_steps: 0,
            cartesian_fallbacks: 0,
            weights_cancelled: 0,
        })
    };
}

/// A snapshot of this thread's cumulative [`ExecStats`]. Sample before and
/// after a call and take [`ExecStats::since`] to attribute its work.
pub fn thread_stats() -> ExecStats {
    EXEC_STATS.with(Cell::get)
}

fn bump(f: impl FnOnce(&mut ExecStats)) {
    EXEC_STATS.with(|s| {
        let mut v = s.get();
        f(&mut v);
        s.set(v);
    });
}

/// A borrowed table: schema plus signed rows. Both [`Relation`] and
/// [`Delta`] convert into this.
#[derive(Debug, Clone, Copy)]
pub struct TableSlice<'a> {
    /// The table's schema.
    pub schema: &'a Schema,
    /// The table's signed rows.
    pub rows: &'a ZSet,
}

impl<'a> From<&'a Relation> for TableSlice<'a> {
    fn from(r: &'a Relation) -> Self {
        TableSlice { schema: r.schema(), rows: r.rows() }
    }
}

impl<'a> From<&'a Delta> for TableSlice<'a> {
    fn from(d: &'a Delta) -> Self {
        TableSlice { schema: d.schema(), rows: d.rows() }
    }
}

/// Supplies tables by name to the executor.
pub trait RelationProvider {
    /// Looks up a table; failing with [`RelationalError::UnknownRelation`]
    /// when the name does not resolve.
    fn table(&self, name: &str) -> Result<TableSlice<'_>, RelationalError>;

    /// A secondary hash index on `name` covering exactly `attrs`
    /// (order-insensitive), if the provider maintains one. The default —
    /// no index support — keeps the executor on its scan and hash-join
    /// paths, so plain providers need not implement anything.
    fn index_on(&self, _name: &str, _attrs: &[&str]) -> Option<&HashIndex> {
        None
    }

    /// `name`'s table together with its index covering exactly `key`, if
    /// any: the two lookups behind an index probe, made as one — how
    /// [`delta_hop`] resolves its target. The default makes them as two
    /// calls, [`RelationProvider::table`] then [`RelationProvider::index_on`];
    /// a provider holding a table and its indexes under one name answers
    /// with one lookup and without collecting `key`'s names.
    fn table_and_index<K: AttrName>(
        &self,
        name: &str,
        key: &[K],
    ) -> Result<(TableSlice<'_>, Option<&HashIndex>), RelationalError> {
        let table = self.table(name)?;
        let attrs: Vec<&str> = key.iter().map(AttrName::attr_name).collect();
        Ok((table, self.index_on(name, &attrs)))
    }

    /// Distinct-row cardinality of `name`, used by the planner to order
    /// joins smallest-input-first. `None` means unknown (planned last).
    fn cardinality(&self, name: &str) -> Option<usize> {
        self.table(name).ok().map(|t| t.rows.distinct_len())
    }
}

/// A provider that overrides selected names of a base provider with bound
/// tables — used to splice an update's delta into a maintenance query in
/// place of the updated relation.
pub struct Overlay<'a, P: RelationProvider + ?Sized> {
    base: &'a P,
    bound: HashMap<String, TableSlice<'a>>,
}

impl<'a, P: RelationProvider + ?Sized> Overlay<'a, P> {
    /// Creates an overlay over `base`.
    pub fn new(base: &'a P) -> Self {
        Overlay { base, bound: HashMap::new() }
    }

    /// Binds `name` to the given table, shadowing the base provider.
    pub fn bind(mut self, name: impl Into<String>, table: TableSlice<'a>) -> Self {
        self.bound.insert(name.into(), table);
        self
    }
}

impl<'a, P: RelationProvider + ?Sized> RelationProvider for Overlay<'a, P> {
    fn table(&self, name: &str) -> Result<TableSlice<'_>, RelationalError> {
        if let Some(t) = self.bound.get(name) {
            Ok(*t)
        } else {
            self.base.table(name)
        }
    }

    fn index_on(&self, name: &str, attrs: &[&str]) -> Option<&HashIndex> {
        // A bound table shadows the base relation entirely — its indexes
        // describe rows the query must not see.
        if self.bound.contains_key(name) {
            None
        } else {
            self.base.index_on(name, attrs)
        }
    }

    fn table_and_index<K: AttrName>(
        &self,
        name: &str,
        key: &[K],
    ) -> Result<(TableSlice<'_>, Option<&HashIndex>), RelationalError> {
        match self.bound.get(name) {
            Some(t) => Ok((*t, None)),
            None => self.base.table_and_index(name, key),
        }
    }
}

/// The result of evaluating an SPJ query: named output columns over a signed
/// bag of rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// Output column names, in SELECT-list order.
    pub cols: Vec<String>,
    /// Signed result rows.
    pub rows: ZSet,
}

impl QueryResult {
    /// Empty result with the given columns.
    pub fn empty(cols: Vec<String>) -> Self {
        QueryResult { cols, rows: ZSet::new() }
    }

    /// Total row weight.
    pub fn weight(&self) -> u64 {
        self.rows.weight()
    }
}

/// Internal: an intermediate join state — which columns each tuple position
/// holds, and the signed rows.
struct Cursor {
    cols: Vec<ColRef>,
    rows: ZSet,
}

impl Cursor {
    fn index_of(&self, col: &ColRef) -> Option<usize> {
        self.cols.iter().position(|c| c == col)
    }
}

/// Validates that every relation and column the query references exists in
/// the provider's current schemas. This is the *schema handshake* a source
/// performs before answering; its failure is the broken-query signal.
pub fn validate<P: RelationProvider + ?Sized>(
    query: &SpjQuery,
    provider: &P,
) -> Result<(), RelationalError> {
    let mut schemas: HashMap<&str, &Schema> = HashMap::new();
    for t in &query.tables {
        let slice = provider.table(t)?;
        schemas.insert(t.as_str(), slice.schema);
    }
    for col in query.referenced_cols() {
        let schema =
            schemas.get(col.relation.as_str()).ok_or_else(|| RelationalError::InvalidQuery {
                reason: format!("column {col} references a relation not in FROM"),
            })?;
        schema.require(&col.attr)?;
    }
    Ok(())
}

/// Evaluates an SPJ query against the provider.
///
/// The plan loads tables in a greedy order (smallest input first — for a
/// maintenance query that is the delta side — with ties broken toward
/// constant-filtered tables, then repeatedly the smallest table connected
/// to the current intermediate by an equi-join), applies constant filters
/// at load time, joins on all applicable equi-join keys — probing a
/// provider index when one covers the join key and the driving side is
/// small, hash-joining otherwise — and projects last. Multiplicities
/// multiply through joins and add through projection, per bag-algebra
/// semantics.
pub fn eval<P: RelationProvider + ?Sized>(
    query: &SpjQuery,
    provider: &P,
) -> Result<QueryResult, RelationalError> {
    validate(query, provider)?;
    if query.tables.is_empty() {
        return Err(RelationalError::InvalidQuery { reason: "empty FROM clause".into() });
    }
    if let ([table], []) = (query.tables.as_slice(), query.predicates.as_slice()) {
        return scan_project(query, provider.table(table)?);
    }

    let order = plan_order(query, provider)?;
    let mut cursor: Option<Cursor> = None;
    let mut joined: BTreeSet<&str> = BTreeSet::new();

    for table_name in order {
        let slice = provider.table(table_name)?;
        cursor = Some(match cursor {
            None => load_filtered(query, table_name, slice, provider)?,
            Some(cur) => hash_join(cur, slice, query, &joined, table_name, provider)?,
        });
        joined.insert(table_name);
    }

    let cursor = cursor.expect("non-empty FROM produces a cursor");
    // Project to the SELECT list.
    let mut indices = Vec::with_capacity(query.projection.len());
    let mut cols = Vec::with_capacity(query.projection.len());
    for item in &query.projection {
        let idx = cursor.index_of(&item.col).ok_or_else(|| RelationalError::InvalidQuery {
            reason: format!("projection column {} not found after join", item.col),
        })?;
        indices.push(idx);
        cols.push(item.output.clone());
    }
    Ok(QueryResult { cols, rows: cursor.rows.project(&indices) })
}

/// A single-table, predicate-free query — the shape of every whole-extent
/// fetch (view adaptation, initialization) — answered in one pass: the rows
/// go straight from the table into the projection, with no filtered copy of
/// the table in between. `query` has passed [`validate`], and the scan is
/// metered as [`load_rows`] meters it.
fn scan_project(query: &SpjQuery, slice: TableSlice<'_>) -> Result<QueryResult, RelationalError> {
    let indices = query
        .projection
        .iter()
        .map(|item| slice.schema.require(&item.col.attr))
        .collect::<Result<Vec<usize>, RelationalError>>()?;
    let cols = query.projection.iter().map(|item| item.output.clone()).collect();
    bump(|s| s.rows_scanned += slice.rows.distinct_len() as u64);
    Ok(QueryResult { cols, rows: slice.rows.project(&indices) })
}

/// Chooses the table processing order. The seed is the smallest input by
/// provider cardinality — for a maintenance query, the bound delta — with
/// ties broken toward the most constant-filtered table, then FROM order.
/// After that, repeatedly the smallest table connected to the joined set by
/// an equi-join predicate. A disconnected table forces a cartesian product;
/// that fallback is counted in [`ExecStats::cartesian_fallbacks`] rather
/// than taken silently.
fn plan_order<'q, P: RelationProvider + ?Sized>(
    query: &'q SpjQuery,
    provider: &P,
) -> Result<Vec<&'q str>, RelationalError> {
    let mut remaining: Vec<&str> = query.tables.iter().map(String::as_str).collect();
    if remaining.is_empty() {
        return Ok(vec![]);
    }
    let filters = |t: &str| {
        query
            .predicates
            .iter()
            .filter(|p| matches!(p, Predicate::Compare(c, _, _) if c.relation == t))
            .count()
    };
    let card = |t: &str| provider.cardinality(t).unwrap_or(usize::MAX);
    let seed_pos = (0..remaining.len())
        .min_by_key(|&i| (card(remaining[i]), std::cmp::Reverse(filters(remaining[i])), i))
        .expect("non-empty");
    let mut order = vec![remaining.remove(seed_pos)];
    let mut joined: BTreeSet<&str> = order.iter().copied().collect();
    while !remaining.is_empty() {
        let connected = |t: &str| {
            query.predicates.iter().any(|p| {
                if let Predicate::JoinEq(a, b) = p {
                    (a.relation == t && joined.contains(b.relation.as_str()))
                        || (b.relation == t && joined.contains(a.relation.as_str()))
                } else {
                    false
                }
            })
        };
        let next = (0..remaining.len())
            .filter(|&i| connected(remaining[i]))
            .min_by_key(|&i| (card(remaining[i]), i));
        let pos = match next {
            Some(pos) => pos,
            None => {
                bump(|s| s.cartesian_fallbacks += 1);
                (0..remaining.len()).min_by_key(|&i| (card(remaining[i]), i)).expect("non-empty")
            }
        };
        let t = remaining.remove(pos);
        joined.insert(t);
        order.push(t);
    }
    Ok(order)
}

/// Constant filters on one table, resolved to column positions.
type Filters<'q> = [(usize, CmpOp, &'q Value)];

/// True iff every constant filter compares a non-null literal against a
/// column of the same type. Only then is an index shortcut provably
/// equivalent to the scan: [`compare`] returns `false` for NULL literals
/// and *errors* on type mismatches, and both behaviors must survive intact,
/// so ill-typed filters always take the scan path.
fn filters_well_typed(filters: &Filters<'_>, schema: &Schema) -> bool {
    filters.iter().all(|&(i, _, v)| !v.is_null() && v.runtime_type() == Some(schema.attrs()[i].ty))
}

/// True iff `t` satisfies every filter, with [`compare`]'s semantics.
fn passes(t: &Tuple, filters: &Filters<'_>) -> Result<bool, RelationalError> {
    for &(idx, op, v) in filters {
        if !compare(t.get(idx), op, v)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// [`passes`] for row `t` of a scan over `rows` that stops at its first
/// error. The scan visits rows in hash order, so on an error the one
/// reported is what the least row (in tuple order) among those the scan
/// `checks` raises: the error names the same row whatever the table's
/// layout.
fn passes_in(
    rows: &ZSet,
    t: &Tuple,
    filters: &Filters<'_>,
    checks: impl Fn(&Tuple) -> bool,
) -> Result<bool, RelationalError> {
    passes(t, filters).map_err(|_| {
        rows.least_error(|t, _| if checks(t) { passes(t, filters).map(drop) } else { Ok(()) })
            .expect("the failing row is among the rows checked")
    })
}

/// The constant filters `query` places on table `name`, resolved against
/// `schema`.
fn filters_on<'q>(
    query: &'q SpjQuery,
    name: &str,
    schema: &Schema,
) -> Vec<(usize, CmpOp, &'q Value)> {
    query
        .predicates
        .iter()
        .filter_map(|p| match p {
            Predicate::Compare(c, op, v) if c.relation == name => {
                schema.index_of(&c.attr).map(|i| (i, *op, v))
            }
            _ => None,
        })
        .collect()
}

/// Loads a table into a cursor, applying its constant filters.
fn load_filtered<P: RelationProvider + ?Sized>(
    query: &SpjQuery,
    name: &str,
    slice: TableSlice<'_>,
    provider: &P,
) -> Result<Cursor, RelationalError> {
    let cols: Vec<ColRef> =
        slice.schema.attrs().iter().map(|a| ColRef::new(name, a.name.clone())).collect();
    let filters = filters_on(query, name, slice.schema);
    Ok(Cursor { cols, rows: load_rows(name, slice, &filters, provider)? })
}

/// The rows of `slice` that pass `filters`. When a well-typed equality
/// filter is covered by a provider index, the matching rows are probed
/// instead of scanned.
fn load_rows<P: RelationProvider + ?Sized>(
    name: &str,
    slice: TableSlice<'_>,
    filters: &Filters<'_>,
    provider: &P,
) -> Result<ZSet, RelationalError> {
    let mut rows = ZSet::new();
    let mut scanned = 0u64;

    if filters_well_typed(filters, slice.schema) {
        if let Some(&(ei, _, ev)) = filters.iter().find(|&&(_, op, _)| op == CmpOp::Eq) {
            let attr = slice.schema.attrs()[ei].name.as_str();
            if let Some(index) = provider.index_on(name, &[attr]) {
                let key = [ev];
                for (t, c) in index.lookup(&key) {
                    scanned += 1;
                    // Residual filters (the indexed one re-checks as a
                    // no-op). Well-typedness means this cannot error.
                    if index.key_matches(t, &key) && passes(t, filters)? {
                        rows.add(t.clone(), *c);
                    }
                }
                bump(|s| {
                    s.index_probes += 1;
                    s.rows_scanned += scanned;
                });
                return Ok(rows);
            }
        }
    }

    for (t, c) in slice.rows.iter() {
        scanned += 1;
        if passes_in(slice.rows, t, filters, |_| true)? {
            rows.add(t.clone(), c);
        }
    }
    bump(|s| s.rows_scanned += scanned);
    Ok(rows)
}

/// SQL-style comparison: NULL never satisfies; mismatched types (other than
/// NULL) are an error, surfacing workload bugs instead of silently returning
/// empty results.
fn compare(left: &Value, op: CmpOp, right: &Value) -> Result<bool, RelationalError> {
    if left.is_null() || right.is_null() {
        return Ok(false);
    }
    if left.runtime_type() != right.runtime_type() {
        return Err(RelationalError::IncomparableTypes {
            predicate: format!("{left} {op} {right}"),
        });
    }
    Ok(op.eval(left.cmp(right)))
}

/// How much smaller the driving (probe) side must be before an
/// index-nested-loop join beats rebuilding a hash table over the indexed
/// side. With a maintenance delta driving (|Δ| ≈ 1) any indexed table
/// qualifies; for comparably sized inputs the hash join stays cheaper.
const INDEX_JOIN_FANOUT: usize = 4;

/// Joins the current intermediate with the next table on all equi-join
/// predicates that span them; see [`join_rows`] for the access paths.
fn hash_join<P: RelationProvider + ?Sized>(
    cur: Cursor,
    slice: TableSlice<'_>,
    query: &SpjQuery,
    joined: &BTreeSet<&str>,
    new_name: &str,
    provider: &P,
) -> Result<Cursor, RelationalError> {
    let filters = filters_on(query, new_name, slice.schema);

    // Keys: (index in cur, index in new) for each applicable JoinEq.
    let mut keys: Vec<(usize, usize)> = Vec::new();
    for p in &query.predicates {
        if let Predicate::JoinEq(a, b) = p {
            let (cur_side, new_side) =
                if a.relation == new_name && joined.contains(b.relation.as_str()) {
                    (b, a)
                } else if b.relation == new_name && joined.contains(a.relation.as_str()) {
                    (a, b)
                } else {
                    continue;
                };
            let ci = cur.index_of(cur_side).ok_or_else(|| RelationalError::InvalidQuery {
                reason: format!("join column {cur_side} missing from intermediate"),
            })?;
            let ni = slice.schema.require(&new_side.attr)?;
            keys.push((ci, ni));
        }
    }

    let index = |keys: &[(usize, usize)]| {
        let key_attrs: Vec<&str> =
            keys.iter().map(|&(_, ni)| slice.schema.attrs()[ni].name.as_str()).collect();
        provider.index_on(new_name, &key_attrs)
    };
    let probe = probe_plan(index, slice, &mut keys, &filters, cur.rows.distinct_len());
    let mut rows = ZSet::new();
    join_rows(&cur.rows, slice.rows, &keys, &filters, probe, |lt, rt, w| {
        rows.add(lt.concat(rt), w);
    })?;
    let mut cols = cur.cols;
    cols.extend(slice.schema.attrs().iter().map(|a| ColRef::new(new_name, a.name.clone())));
    Ok(Cursor { cols, rows })
}

/// Decides whether a join of `left_len` driving rows against `slice` runs
/// as an index-nested-loop over the provider's index covering the exact
/// join-key attribute set, if `index` finds one. Only when every constant
/// filter is well-typed (so skipping unprobed rows cannot swallow a type
/// error the scan would raise) and the driving side is at least
/// [`INDEX_JOIN_FANOUT`]× smaller than the table, so probing beats one table
/// pass. On a probe, `keys` are put in the index's key order, so the driving
/// side's key columns hash, in `keys` order, to the index's buckets.
fn probe_plan<'i>(
    index: impl FnOnce(&[(usize, usize)]) -> Option<&'i HashIndex>,
    slice: TableSlice<'_>,
    keys: &mut [(usize, usize)],
    filters: &Filters<'_>,
    left_len: usize,
) -> Option<&'i HashIndex> {
    if keys.is_empty()
        || !filters_well_typed(filters, slice.schema)
        || left_len.saturating_mul(INDEX_JOIN_FANOUT) > slice.rows.distinct_len()
    {
        return None;
    }
    let index = index(keys)?;
    // The index may list its key attributes in a different order.
    for (i, &col) in index.cols().iter().enumerate() {
        let j = keys[i..]
            .iter()
            .position(|&(_, ni)| ni == col)
            .expect("covering index key is a permutation of the join key");
        keys.swap(i, i + j);
    }
    Some(index)
}

/// Up to this many build-side rows a hash join keeps a plain list and every
/// probe row compares its key against each entry, instead of hashing the
/// probe key (over borrowed values) to find a bucket. That is the shape of
/// Equation 6's chains — a Δ of a few rows against an unindexed fetched
/// state of thousands (the `adapt_batch_rename/6x2000` bench row).
/// Measured against 2 000 probe rows when the key hash was SipHash: a key
/// hash cost ≈ 50 ns per probe row, a direct comparison ≈ 2.5 ns per probe
/// row and build row, so the list won up to ≈ 20 build rows (1 row: 17 µs
/// vs 105 µs per hop). [`hash_values`] is cheaper, so that is an upper
/// bound on the crossover.
const LIST_BUILD_MAX: usize = 16;

/// The build side of the hash-join fallback: the rows of the smaller input,
/// bucketed by key hash — or, up to [`LIST_BUILD_MAX`] rows, not bucketed at
/// all. Either way the caller verifies every candidate against the actual
/// key columns, so both forms yield the same matches.
enum BuildSide<'a> {
    List(Vec<(&'a Tuple, i64)>),
    Hashed(PreHashedMap<u64, Vec<(&'a Tuple, i64)>>),
}

impl<'a> BuildSide<'a> {
    /// An empty build side for an input of `rows` distinct rows.
    fn sized_for(rows: usize) -> Self {
        if rows <= LIST_BUILD_MAX {
            BuildSide::List(Vec::with_capacity(rows))
        } else {
            BuildSide::Hashed(PreHashedMap::default())
        }
    }

    /// Adds a row; `hash` (its key hash) is computed only when bucketing.
    fn push(&mut self, hash: impl FnOnce() -> u64, t: &'a Tuple, c: i64) {
        match self {
            BuildSide::List(rows) => rows.push((t, c)),
            BuildSide::Hashed(table) => table.entry(hash()).or_default().push((t, c)),
        }
    }

    /// The rows a probe key hashing to `hash()` can match.
    fn candidates(&self, hash: impl FnOnce() -> u64) -> &[(&'a Tuple, i64)] {
        match self {
            BuildSide::List(rows) => rows,
            BuildSide::Hashed(table) => table.get(&hash()).map_or(&[], Vec::as_slice),
        }
    }
}

/// Joins `left` with `right` on the positional equi-join `keys`
/// (`(left column, right column)` pairs), handing every match to `emit` as
/// `(left row, right row, weight product)`; `filters` are `right`'s constant
/// filters. No keys degenerates to a cartesian product. With a `probe`
/// index (`keys` in its key order, see [`probe_plan`]) each left row probes
/// it — O(|left| × fan-out) instead of O(|right|). Otherwise a hash join
/// runs over 64-bit key hashes of borrowed values (no per-row key tuples
/// are materialized), built over the smaller side ([`BuildSide`]: a
/// handful of build rows are compared directly instead); `right`'s filters
/// are applied before any hash lookup, so non-qualifying rows never hash.
/// NULL keys match nothing.
fn join_rows(
    left: &ZSet,
    right: &ZSet,
    keys: &[(usize, usize)],
    filters: &Filters<'_>,
    probe: Option<&HashIndex>,
    mut emit: impl FnMut(&Tuple, &Tuple, i64),
) -> Result<(), RelationalError> {
    let mut scanned = 0u64;

    if keys.is_empty() {
        // Cartesian product.
        for (lt, lc) in left.iter() {
            for (rt, rc) in right.iter() {
                scanned += 1;
                if passes_in(right, rt, filters, |_| true)? {
                    emit(lt, rt, lc * rc);
                }
            }
        }
        bump(|s| s.rows_scanned += scanned);
        return Ok(());
    }

    let left_null = |t: &Tuple| keys.iter().any(|&(li, _)| t.get(li).is_null());
    let right_null = |t: &Tuple| keys.iter().any(|&(_, ri)| t.get(ri).is_null());
    // Key hashes of borrowed values; candidates are verified against the
    // actual key columns, so hash collisions cannot produce spurious matches.
    let left_hash = |t: &Tuple| hash_values(keys.iter().map(|&(li, _)| t.get(li)));
    let right_hash = |t: &Tuple| hash_values(keys.iter().map(|&(_, ri)| t.get(ri)));
    let keys_match = |lt: &Tuple, rt: &Tuple| keys.iter().all(|&(li, ri)| lt.get(li) == rt.get(ri));

    if let Some(index) = probe {
        let mut probes = 0u64;
        for (lt, lc) in left.iter() {
            if left_null(lt) {
                continue;
            }
            probes += 1;
            for (rt, rc) in index.bucket(left_hash(lt)) {
                scanned += 1;
                if keys_match(lt, rt) && passes(rt, filters)? {
                    emit(lt, rt, lc * rc);
                }
            }
        }
        bump(|s| {
            s.index_probes += probes;
            s.rows_scanned += scanned;
            s.index_join_steps += 1;
        });
        return Ok(());
    }

    // Hash-join fallback over the same key hashes. A build side of a
    // handful of rows is not hashed at all (see [`BuildSide`]).

    if left.distinct_len() <= right.distinct_len() {
        // Build over the (smaller) left side, probe the table.
        let mut build = BuildSide::sized_for(left.distinct_len());
        for (t, c) in left.iter() {
            if !left_null(t) {
                build.push(|| left_hash(t), t, c);
            }
        }
        for (rt, rc) in right.iter() {
            scanned += 1;
            if right_null(rt) || !passes_in(right, rt, filters, |t| !right_null(t))? {
                continue;
            }
            for (lt, lc) in build.candidates(|| right_hash(rt)) {
                if keys_match(lt, rt) {
                    emit(lt, rt, lc * rc);
                }
            }
        }
    } else {
        // Build over the table (filtered), probe the left side.
        let mut build = BuildSide::sized_for(right.distinct_len());
        for (t, c) in right.iter() {
            scanned += 1;
            if !right_null(t) && passes_in(right, t, filters, |t| !right_null(t))? {
                build.push(|| right_hash(t), t, c);
            }
        }
        for (lt, lc) in left.iter() {
            if left_null(lt) {
                continue;
            }
            for (rt, rc) in build.candidates(|| left_hash(lt)) {
                if keys_match(lt, rt) {
                    emit(lt, rt, lc * rc);
                }
            }
        }
    }
    bump(|s| {
        s.rows_scanned += scanned;
        s.hash_join_steps += 1;
    });
    Ok(())
}

// ---------------------------------------------------------------------------
// Incremental (delta-only) operators over Z-sets.
//
// These are the building blocks the view layer composes instead of replaying
// full SPJ queries: every operator touches only rows reachable from a delta,
// and all of them preserve the executor's edge semantics exactly — NULL join
// keys match nothing, constant filters error on type mismatches via
// [`compare`], and weights multiply through joins / add through projections.
// ---------------------------------------------------------------------------

/// δσ — filters a delta by constant predicates, with the executor's
/// comparison semantics: NULL never satisfies, and a type mismatch is an
/// error (raised for *every* row visited, exactly like the scan path —
/// ill-typed workloads surface instead of silently returning empty).
pub fn delta_select(
    delta: &ZSet,
    filters: &[(usize, CmpOp, Value)],
) -> Result<ZSet, RelationalError> {
    if filters.is_empty() {
        return Ok(delta.clone());
    }
    let keep = |t: &Tuple| -> Result<bool, RelationalError> {
        for (idx, op, v) in filters {
            if !compare(t.get(*idx), *op, v)? {
                return Ok(false);
            }
        }
        Ok(true)
    };
    let mut out = ZSet::new();
    let mut scanned = 0u64;
    for (t, c) in delta.iter() {
        scanned += 1;
        // On an error, report the least failing row's (see [`passes_in`]).
        let kept = keep(t).map_err(|_| {
            delta.least_error(|t, _| keep(t).map(drop)).expect("the failing row is in Δ")
        })?;
        if kept {
            out.add(t.clone(), c);
        }
    }
    bump(|s| s.rows_scanned += scanned);
    Ok(out)
}

/// δπ — projects a delta onto `indices`, combining weights (and cancelling
/// entries whose projections collide to zero). Result-identical to
/// [`ZSet::project`](crate::ZSet::project); exported under the operator
/// vocabulary so delta pipelines read uniformly, and counting collisions
/// that annihilate into [`ExecStats::weights_cancelled`].
pub fn delta_project(delta: &ZSet, indices: &[usize]) -> ZSet {
    let mut out = ZSet::with_capacity(delta.distinct_len());
    let mut cancelled = 0u64;
    let mut add = |t: &Tuple, c: i64| {
        if out.add(t.project(indices), c) == 0 {
            cancelled += 1;
        }
    };
    // How often a projected row's running weight touches zero depends on
    // the order its contributions arrive once it has three of them, so a
    // delta that big is projected in tuple order.
    if delta.distinct_len() < 3 {
        delta.iter().for_each(|(t, c)| add(t, c));
    } else {
        delta.sorted().into_iter().for_each(|(t, c)| add(t, c));
    }
    if cancelled > 0 {
        bump(|s| s.weights_cancelled += cancelled);
    }
    out
}

/// Δ ⋈ B via index probes on the non-delta side — the delta-only join of
/// the incremental identity `(B + Δ) ⋈ S = B ⋈ S + Δ ⋈ S`, costing
/// O(|Δ| × fan-out) regardless of |B|.
///
/// `probe_cols` are positions in the delta's tuples, **aligned with
/// `index.attrs()` order**. Output rows are `d ⧺ b` with weight product.
/// Rows with a NULL key match nothing (SQL equi-join semantics); bucket
/// hits are collision-checked against the actual key values.
pub fn delta_join_probe(delta: &ZSet, probe_cols: &[usize], index: &HashIndex) -> ZSet {
    let mut out = ZSet::new();
    let mut probes = 0u64;
    let mut scanned = 0u64;
    let mut cancelled = 0u64;
    let key_matches = |dt: &Tuple, bt: &Tuple| {
        index.cols().iter().zip(probe_cols).all(|(&b, &d)| bt.get(b) == dt.get(d))
    };
    for (dt, dc) in delta.iter() {
        if probe_cols.iter().any(|&i| dt.get(i).is_null()) {
            continue;
        }
        probes += 1;
        for (bt, bc) in index.bucket(hash_values(probe_cols.iter().map(|&i| dt.get(i)))) {
            scanned += 1;
            if key_matches(dt, bt) && out.add(dt.concat(bt), dc * bc) == 0 {
                cancelled += 1;
            }
        }
    }
    bump(|s| {
        s.index_probes += probes;
        s.rows_scanned += scanned;
        s.index_join_steps += 1;
        s.weights_cancelled += cancelled;
    });
    out
}

/// One compiled SWEEP hop, answered at the source: `Δ ⋈ target` on
/// `join_keys` (position in Δ's rows ↔ target attribute), through the
/// target's constant `t_filters`, emitting `Δ-row ⧺ π_{t_proj}(t)`.
///
/// This is [`eval`] of the maintenance step query
/// `SELECT __D.*, target.t_proj FROM __D, target WHERE …` with Δ bound as
/// `__D`, minus everything that query needed only because it was a query:
/// no bound-table schema, no name → position resolution of Δ's columns, no
/// planning, no full-width intermediate. What a source can observe is
/// unchanged, value for value:
///
/// * **Handshake** — the target must exist and carry every attribute the
///   step references, else the [`RelationalError`] [`validate`] returns for
///   that query (an unknown relation, or the first missing attribute in
///   attribute order): the broken-query signal.
/// * **Access path** — the side [`eval`] would seed from drives the join
///   (Δ unless the target is smaller, or as small and filtered); a Δ-driven
///   join probes a covering index when every filter is well-typed and
///   `|Δ| · INDEX_JOIN_FANOUT ≤ |target|`, and hash-joins against the
///   target's rows otherwise. Filter errors, NULL keys and the cartesian
///   fallback behave as in [`eval`].
/// * **Metering** — [`ExecStats`] move exactly as under [`eval`], including
///   the |Δ| rows of the bound table in `rows_scanned`.
///
/// The target and its covering index come from one
/// [`RelationProvider::table_and_index`] call, and column positions are
/// resolved into per-thread buffers, so a hop allocates only its output:
/// the set and one row per match.
pub fn delta_hop<'a, P: RelationProvider + ?Sized>(
    provider: &P,
    target: &str,
    join_keys: &'a [(usize, String)],
    t_filters: &'a [(String, CmpOp, Value)],
    t_proj: &'a [String],
    delta: &ZSet,
) -> Result<ZSet, RelationalError> {
    let (slice, index) = provider.table_and_index(target, join_keys)?;
    let schema = slice.schema;
    let mut cols = HOP_COLS.take();
    let answer = (|| {
        // Resolve every referenced attribute; on a miss report the one a
        // name-ordered walk (the executor's validation order) meets first.
        let mut missing: Option<&'a str> = None;
        let mut resolve = |a: &'a str| {
            schema.index_of(a).unwrap_or_else(|| {
                missing = Some(missing.map_or(a, |m| m.min(a)));
                usize::MAX
            })
        };
        cols.proj.clear();
        cols.proj.extend(t_proj.iter().map(|a| resolve(a)));
        cols.keys.clear();
        cols.keys.extend(join_keys.iter().map(|(d, a)| (*d, resolve(a))));
        let filters: Vec<(usize, CmpOp, &Value)> =
            t_filters.iter().map(|(a, op, v)| (resolve(a), *op, v)).collect();
        if let Some(attr) = missing {
            return Err(schema.require(attr).expect_err("the attribute did not resolve"));
        }

        let (n_d, n_t) = (delta.distinct_len(), slice.rows.distinct_len());
        if cols.keys.is_empty() {
            bump(|s| s.cartesian_fallbacks += 1);
        }
        let proj = &cols.proj;
        let mut out = ZSet::new();
        let mut emit = |d: &Tuple, t: &Tuple, w: i64| {
            let mut row = Vec::with_capacity(d.arity() + proj.len());
            row.extend_from_slice(d.values());
            row.extend(proj.iter().map(|&i| t.get(i).clone()));
            out.add(Tuple::new(row), w);
        };
        let keys = &mut cols.keys;
        if n_d < n_t || (n_d == n_t && filters.is_empty()) {
            // Δ seeds: the executor loads (scans) the unfiltered bound
            // table, then joins the target in.
            bump(|s| s.rows_scanned += n_d as u64);
            let probe = probe_plan(|_| index, slice, keys, &filters, n_d);
            join_rows(delta, slice.rows, keys, &filters, probe, emit)?;
        } else {
            // The target seeds: its filters apply at load, and Δ — bound,
            // so never indexed — joins in from the right.
            let loaded = load_rows(target, slice, &filters, provider)?;
            keys.iter_mut().for_each(|k| *k = (k.1, k.0));
            join_rows(&loaded, delta, keys, &[], None, |t, d, w| emit(d, t, w))?;
        }
        Ok(out)
    })();
    HOP_COLS.set(cols);
    answer
}

/// Column positions one hop resolves against its target's schema: the
/// target columns each output row appends, and the join keys as
/// `(Δ position, target position)`. Kept per thread and reused, so
/// resolving a hop allocates nothing once the thread has hopped before.
#[derive(Default)]
struct HopCols {
    proj: Vec<usize>,
    keys: Vec<(usize, usize)>,
}

thread_local! {
    static HOP_COLS: Cell<HopCols> =
        const { Cell::new(HopCols { proj: Vec::new(), keys: Vec::new() }) };
}

/// ΔA ⋈ ΔB — equi-join of two deltas on positional keys (`left_keys[i]`
/// pairs with `right_keys[i]`), the cross term of the bilinear join
/// expansion and the whole of a SWEEP compensation join. Hash-built over
/// the smaller side; output rows are `l ⧺ r` with weight product. An empty
/// key set degenerates to the cartesian product, mirroring the executor's
/// fallback for disconnected joins.
pub fn delta_join(left: &ZSet, left_keys: &[usize], right: &ZSet, right_keys: &[usize]) -> ZSet {
    debug_assert_eq!(left_keys.len(), right_keys.len());
    let null_key = |t: &Tuple, idx: &[usize]| idx.iter().any(|&i| t.get(i).is_null());
    let hash_of = |t: &Tuple, idx: &[usize]| hash_values(idx.iter().map(|&i| t.get(i)));
    let keys_match = |lt: &Tuple, rt: &Tuple| {
        left_keys.iter().zip(right_keys).all(|(&li, &ri)| lt.get(li) == rt.get(ri))
    };

    let mut out = ZSet::new();
    let mut scanned = 0u64;
    let mut cancelled = 0u64;
    if left.distinct_len() <= right.distinct_len() {
        let mut table: PreHashedMap<u64, Vec<(&Tuple, i64)>> = PreHashedMap::default();
        for (t, c) in left.iter() {
            if !null_key(t, left_keys) {
                table.entry(hash_of(t, left_keys)).or_default().push((t, c));
            }
        }
        for (rt, rc) in right.iter() {
            scanned += 1;
            if null_key(rt, right_keys) {
                continue;
            }
            if let Some(matches) = table.get(&hash_of(rt, right_keys)) {
                for (lt, lc) in matches {
                    if keys_match(lt, rt) && out.add(lt.concat(rt), lc * rc) == 0 {
                        cancelled += 1;
                    }
                }
            }
        }
    } else {
        let mut table: PreHashedMap<u64, Vec<(&Tuple, i64)>> = PreHashedMap::default();
        for (t, c) in right.iter() {
            if !null_key(t, right_keys) {
                table.entry(hash_of(t, right_keys)).or_default().push((t, c));
            }
        }
        for (lt, lc) in left.iter() {
            scanned += 1;
            if null_key(lt, left_keys) {
                continue;
            }
            if let Some(matches) = table.get(&hash_of(lt, left_keys)) {
                for (rt, rc) in matches {
                    if keys_match(lt, rt) && out.add(lt.concat(rt), lc * rc) == 0 {
                        cancelled += 1;
                    }
                }
            }
        }
    }
    bump(|s| {
        s.rows_scanned += scanned;
        s.hash_join_steps += 1;
        s.weights_cancelled += cancelled;
    });
    out
}

/// Incremental distinct-by-weight: the change `distinct(base + delta) −
/// distinct(base)`, touching only the tuples in `delta`'s support. A tuple
/// enters the distinct image (+1) when its weight crosses from ≤ 0 to > 0
/// and leaves it (−1) on the opposite crossing; all other weight changes
/// are absorbed.
pub fn distinct_delta(base: &ZSet, delta: &ZSet) -> ZSet {
    let mut out = ZSet::new();
    for (t, dc) in delta.iter() {
        let before = base.count(t);
        let after = before + dc;
        match (before > 0, after > 0) {
            (false, true) => {
                out.add(t.clone(), 1);
            }
            (true, false) => {
                out.add(t.clone(), -1);
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrType;

    struct Two {
        r: Relation,
        s: Relation,
    }

    impl RelationProvider for Two {
        fn table(&self, name: &str) -> Result<TableSlice<'_>, RelationalError> {
            match name {
                "R" => Ok((&self.r).into()),
                "S" => Ok((&self.s).into()),
                other => Err(RelationalError::UnknownRelation { relation: other.into() }),
            }
        }
    }

    fn fixture() -> Two {
        let r = Relation::from_tuples(
            Schema::of("R", &[("id", AttrType::Int), ("name", AttrType::Str)]),
            [
                Tuple::of([Value::from(1), Value::str("a")]),
                Tuple::of([Value::from(2), Value::str("b")]),
                Tuple::of([Value::from(2), Value::str("b")]), // duplicate
            ],
        )
        .unwrap();
        let s = Relation::from_tuples(
            Schema::of("S", &[("id", AttrType::Int), ("price", AttrType::Int)]),
            [
                Tuple::of([Value::from(1), Value::from(10)]),
                Tuple::of([Value::from(2), Value::from(20)]),
                Tuple::of([Value::from(3), Value::from(30)]),
            ],
        )
        .unwrap();
        Two { r, s }
    }

    fn join_query() -> SpjQuery {
        SpjQuery::over(["R", "S"])
            .select("R", "name")
            .select("S", "price")
            .join_eq(("R", "id"), ("S", "id"))
            .build()
    }

    #[test]
    fn equi_join_with_duplicates() {
        let out = eval(&join_query(), &fixture()).unwrap();
        assert_eq!(out.cols, vec!["name", "price"]);
        assert_eq!(out.rows.count(&Tuple::of([Value::str("a"), Value::from(10)])), 1);
        assert_eq!(
            out.rows.count(&Tuple::of([Value::str("b"), Value::from(20)])),
            2,
            "bag semantics: duplicate R row yields multiplicity 2"
        );
        assert_eq!(out.weight(), 3);
    }

    #[test]
    fn constant_filter() {
        let q =
            SpjQuery::over(["S"]).select("S", "price").filter("S", "price", CmpOp::Gt, 15).build();
        let out = eval(&q, &fixture()).unwrap();
        assert_eq!(out.weight(), 2);
    }

    #[test]
    fn missing_relation_is_schema_conflict() {
        let q = SpjQuery::over(["Nope"]).select("Nope", "x").build();
        let err = eval(&q, &fixture()).unwrap_err();
        assert!(err.is_schema_conflict());
    }

    #[test]
    fn missing_attribute_is_schema_conflict() {
        let q = SpjQuery::over(["R"]).select("R", "ghost").build();
        let err = eval(&q, &fixture()).unwrap_err();
        assert!(err.is_schema_conflict());
    }

    #[test]
    fn delta_overlay_substitutes_relation() {
        let f = fixture();
        let delta = Delta::inserts(
            Schema::of("R", &[("id", AttrType::Int), ("name", AttrType::Str)]),
            [Tuple::of([Value::from(3), Value::str("c")])],
        )
        .unwrap();
        let overlay = Overlay::new(&f).bind("R", (&delta).into());
        let out = eval(&join_query(), &overlay).unwrap();
        assert_eq!(out.weight(), 1);
        assert_eq!(out.rows.count(&Tuple::of([Value::str("c"), Value::from(30)])), 1);
    }

    #[test]
    fn negative_multiplicities_flow_through_join() {
        let f = fixture();
        let delta = Delta::from_rows(
            Schema::of("R", &[("id", AttrType::Int), ("name", AttrType::Str)]),
            [(Tuple::of([Value::from(1), Value::str("a")]), -1)],
        )
        .unwrap();
        let overlay = Overlay::new(&f).bind("R", (&delta).into());
        let out = eval(&join_query(), &overlay).unwrap();
        assert_eq!(out.rows.count(&Tuple::of([Value::str("a"), Value::from(10)])), -1);
    }

    #[test]
    fn incremental_distributivity() {
        // (R + Δ) ⋈ S == R ⋈ S + Δ ⋈ S
        let f = fixture();
        let q = join_query();
        let delta = Delta::from_rows(
            Schema::of("R", &[("id", AttrType::Int), ("name", AttrType::Str)]),
            [
                (Tuple::of([Value::from(3), Value::str("c")]), 2),
                (Tuple::of([Value::from(1), Value::str("a")]), -1),
            ],
        )
        .unwrap();
        let base = eval(&q, &f).unwrap();
        let overlay = Overlay::new(&f).bind("R", (&delta).into());
        let delta_out = eval(&q, &overlay).unwrap();
        let mut incremental = base.rows.clone();
        incremental.merge(&delta_out.rows);

        let mut r2 = f.r.clone();
        r2.apply(&delta).unwrap();
        let f2 = Two { r: r2, s: f.s.clone() };
        let full = eval(&q, &f2).unwrap();
        assert_eq!(incremental, full.rows);
    }

    #[test]
    fn cartesian_when_disconnected() {
        let q = SpjQuery::over(["R", "S"]).select("R", "name").select("S", "price").build();
        let out = eval(&q, &fixture()).unwrap();
        assert_eq!(out.weight(), 9);
    }

    #[test]
    fn null_never_matches_filter_or_join() {
        let r = Relation::from_tuples(
            Schema::of("R", &[("id", AttrType::Int), ("name", AttrType::Str)]),
            [Tuple::of([Value::Null, Value::str("n")])],
        )
        .unwrap();
        let f = Two { r, s: fixture().s };
        let out = eval(&join_query(), &f).unwrap();
        assert!(out.rows.is_empty(), "NULL join key matches nothing");
        let q = SpjQuery::over(["R"]).select("R", "name").filter("R", "id", CmpOp::Eq, 1).build();
        assert!(eval(&q, &f).unwrap().rows.is_empty());
    }

    #[test]
    fn multi_key_join_requires_all_keys() {
        // Join on id AND name-vs-price type-compatible column: use two
        // integer keys so both must match.
        let r = Relation::from_tuples(
            Schema::of("R", &[("k1", AttrType::Int), ("k2", AttrType::Int)]),
            [Tuple::of([1i64, 10]), Tuple::of([1i64, 20])],
        )
        .unwrap();
        let s = Relation::from_tuples(
            Schema::of("S", &[("k1", AttrType::Int), ("k2", AttrType::Int), ("v", AttrType::Int)]),
            [Tuple::of([1i64, 10, 100]), Tuple::of([1i64, 30, 300])],
        )
        .unwrap();
        struct P(Relation, Relation);
        impl RelationProvider for P {
            fn table(&self, name: &str) -> Result<TableSlice<'_>, RelationalError> {
                match name {
                    "R" => Ok((&self.0).into()),
                    "S" => Ok((&self.1).into()),
                    o => Err(RelationalError::UnknownRelation { relation: o.into() }),
                }
            }
        }
        let q = SpjQuery::over(["R", "S"])
            .select("S", "v")
            .join_eq(("R", "k1"), ("S", "k1"))
            .join_eq(("R", "k2"), ("S", "k2"))
            .build();
        let out = eval(&q, &P(r, s)).unwrap();
        assert_eq!(out.weight(), 1, "only the (1,10) pair satisfies both keys");
        assert_eq!(out.rows.count(&Tuple::of([100i64])), 1);
    }

    #[test]
    fn projecting_same_column_twice() {
        let q = SpjQuery::over(["S"]).select("S", "id").select_as("S", "id", "id_again").build();
        let out = eval(&q, &fixture()).unwrap();
        assert_eq!(out.cols, vec!["id", "id_again"]);
        assert_eq!(out.rows.count(&Tuple::of([1i64, 1])), 1);
    }

    #[test]
    fn column_outside_from_is_invalid_query() {
        let q = SpjQuery::over(["S"]).select("R", "name").build();
        let err = eval(&q, &fixture()).unwrap_err();
        assert!(matches!(err, RelationalError::InvalidQuery { .. }));
        assert!(!err.is_schema_conflict(), "a malformed query is not a broken query");
    }

    #[test]
    fn empty_from_is_invalid() {
        let q = SpjQuery { tables: vec![], projection: vec![], predicates: vec![] };
        assert!(matches!(eval(&q, &fixture()).unwrap_err(), RelationalError::InvalidQuery { .. }));
    }

    #[test]
    fn filters_on_both_sides_of_join() {
        let q = SpjQuery::over(["R", "S"])
            .select("R", "name")
            .join_eq(("R", "id"), ("S", "id"))
            .filter("R", "id", CmpOp::Ge, 2)
            .filter("S", "price", CmpOp::Lt, 25)
            .build();
        let out = eval(&q, &fixture()).unwrap();
        // R id 2 ('b' twice) joins S (2, 20): price < 25 passes.
        assert_eq!(out.rows.count(&Tuple::of([Value::str("b")])), 2);
        assert_eq!(out.weight(), 2);
    }

    #[test]
    fn type_mismatch_in_filter_errors() {
        let q = SpjQuery::over(["S"])
            .select("S", "price")
            .filter("S", "price", CmpOp::Eq, "not-an-int")
            .build();
        let err = eval(&q, &fixture()).unwrap_err();
        assert!(matches!(err, RelationalError::IncomparableTypes { .. }));
    }

    /// The one-pass extent scan against the general path (forced by a
    /// filter every row passes): same rows, same metering, same errors.
    #[test]
    fn single_table_scan_matches_the_general_path() {
        let f = fixture();
        for (table, cols) in [("R", vec!["name", "id"]), ("S", vec!["price"]), ("R", vec![])] {
            let mut scan = SpjQuery::over([table]);
            for c in &cols {
                scan = scan.select(table, c);
            }
            let general = scan.clone().filter(table, "id", CmpOp::Ge, -1).build();
            let scan = scan.build();
            let before = thread_stats();
            let a = eval(&scan, &f).unwrap();
            let mid = thread_stats();
            let b = eval(&general, &f).unwrap();
            let after = thread_stats();
            assert_eq!(a, b, "{table} {cols:?}");
            assert_eq!(mid.since(before), after.since(mid), "{table} {cols:?}: ExecStats");
            assert_eq!(
                mid.since(before).rows_scanned,
                f.table(table).unwrap().rows.distinct_len() as u64
            );
        }
        // The broken-query signals, value for value.
        for (table, attr) in [("Nope", "x"), ("R", "ghost")] {
            let scan = SpjQuery::over([table]).select(table, attr);
            let general = scan.clone().filter(table, attr, CmpOp::Ge, -1).build();
            let (a, b) = (eval(&scan.build(), &f).unwrap_err(), eval(&general, &f).unwrap_err());
            assert_eq!(a, b);
            assert!(a.is_schema_conflict());
        }
        assert_eq!(
            eval(&SpjQuery::over(["Nope"]).select("Nope", "x").build(), &f).unwrap_err(),
            RelationalError::UnknownRelation { relation: "Nope".into() }
        );
        assert_eq!(
            eval(&SpjQuery::over(["R"]).select("R", "ghost").build(), &f).unwrap_err(),
            RelationalError::UnknownAttribute { relation: "R".into(), attr: "ghost".into() }
        );
    }

    #[test]
    fn single_table_scan_sums_and_cancels_collapsing_rows() {
        // A signed table (a delta bound in place of a relation): rows that
        // project onto the same tuple add up, and a sum of zero is absent.
        let delta = Delta::from_rows(
            Schema::of("S", &[("id", AttrType::Int), ("price", AttrType::Int)]),
            [
                (Tuple::of([1i64, 10]), 2),
                (Tuple::of([1i64, 20]), -2),
                (Tuple::of([2i64, 5]), 1),
                (Tuple::of([2i64, 6]), 3),
            ],
        )
        .unwrap();
        let f = fixture();
        let overlay = Overlay::new(&f).bind("S", (&delta).into());
        let out = eval(&SpjQuery::over(["S"]).select("S", "id").build(), &overlay).unwrap();
        assert_eq!(out.rows.count(&Tuple::of([2i64])), 4);
        assert_eq!(out.rows.count(&Tuple::of([1i64])), 0);
        assert_eq!(out.rows.distinct_len(), 1, "the cancelled tuple is absent, not zero");
    }

    /// `join_rows` over the hash fallback, with the build side as a list
    /// (≤ `LIST_BUILD_MAX` rows) and as a hash table, against a nested-loop
    /// reference: same matches and same metering whichever form and
    /// whichever side builds; NULL keys match nothing.
    #[test]
    fn list_build_side_matches_hashed_build_side() {
        let row = |k1: Option<i64>, k2: i64, v: i64| {
            Tuple::of([k1.map_or(Value::Null, Value::from), Value::from(k2), Value::from(v)])
        };
        let bag = |n: usize, salt: i64| -> ZSet {
            (0..n as i64)
                .map(|i| {
                    let k1 = if (i + salt) % 5 == 4 { None } else { Some((i * 7 + salt) % 4) };
                    (row(k1, (i + salt) % 3, i * 10 + salt), if i % 3 == 2 { -2 } else { 1 })
                })
                .collect()
        };
        let keys = [(0usize, 0usize), (1, 1)];
        let two = Value::from(2);
        let filters = [(2usize, CmpOp::Ge, &two)];
        let big = bag(40, 1);
        for n in 0..=2 * LIST_BUILD_MAX + 2 {
            let small = bag(n, 0);
            // Either side may be the small (build) one.
            for (left, right) in [(&small, &big), (&big, &small)] {
                let mut expected = ZSet::new();
                for (lt, lc) in left.iter() {
                    for (rt, rc) in right.iter() {
                        let matches = keys
                            .iter()
                            .all(|&(li, ri)| !lt.get(li).is_null() && lt.get(li) == rt.get(ri));
                        if matches && passes(rt, &filters).unwrap() {
                            expected.add(lt.concat(rt), lc * rc);
                        }
                    }
                }
                let mut got = ZSet::new();
                let before = thread_stats();
                join_rows(left, right, &keys, &filters, None, |lt, rt, w| {
                    got.add(lt.concat(rt), w);
                })
                .unwrap();
                let d = thread_stats().since(before);
                assert_eq!(got, expected, "build side of {n}");
                let metered = ExecStats {
                    rows_scanned: right.distinct_len() as u64,
                    hash_join_steps: 1,
                    ..ExecStats::default()
                };
                assert_eq!(d, metered, "build side of {n}");
            }
        }
    }

    #[test]
    fn ill_typed_filter_errors_whatever_the_build_side() {
        let rows = |n: i64| -> ZSet { (0..n).map(|i| (Tuple::of([i % 3, i]), 1)).collect() };
        let text = Value::str("x");
        let filters = [(1usize, CmpOp::Eq, &text)];
        let keys = [(0usize, 0usize)];
        let over = (2 * LIST_BUILD_MAX) as i64;
        for (l, r) in [(2, 30), (30, 2), (over, 30), (30, over)] {
            let err = join_rows(&rows(l), &rows(r), &keys, &filters, None, |_, _, _| {});
            assert!(
                matches!(err, Err(RelationalError::IncomparableTypes { .. })),
                "{l} x {r}: every visited right row is compared"
            );
        }
    }

    /// The fixture as an indexed catalog: same tables, indexes on the join
    /// and filter columns.
    fn indexed_catalog() -> crate::Catalog {
        let f = fixture();
        let mut c = crate::Catalog::new();
        c.add_relation(f.r).unwrap();
        c.add_relation(f.s).unwrap();
        c.create_index("S", &["id"]).unwrap();
        c.create_index("S", &["price"]).unwrap();
        c
    }

    #[test]
    fn indexed_join_matches_scan_join() {
        // S is much larger than R, so the join takes the index-nested-loop
        // path; the result must equal the scan-based evaluation exactly.
        let r = Relation::from_tuples(
            Schema::of("R", &[("id", AttrType::Int), ("name", AttrType::Str)]),
            [
                Tuple::of([Value::from(1), Value::str("a")]),
                Tuple::of([Value::from(2), Value::str("b")]),
                Tuple::of([Value::from(2), Value::str("b")]),
            ],
        )
        .unwrap();
        let s = Relation::from_tuples(
            Schema::of("S", &[("id", AttrType::Int), ("price", AttrType::Int)]),
            (0..20).map(|i| Tuple::of([Value::from(i), Value::from(i * 10)])),
        )
        .unwrap();
        let naive = eval(&join_query(), &Two { r: r.clone(), s: s.clone() }).unwrap();
        let mut c = crate::Catalog::new();
        c.add_relation(r).unwrap();
        c.add_relation(s).unwrap();
        c.create_index("S", &["id"]).unwrap();
        let before = thread_stats();
        let indexed = eval(&join_query(), &c).unwrap();
        let d = thread_stats().since(before);
        assert_eq!(naive, indexed);
        assert_eq!(d.index_join_steps, 1, "S-side index on id must be probed");
        assert_eq!(d.index_probes, 2, "one probe per distinct R row");
    }

    #[test]
    fn indexed_eq_filter_probes_instead_of_scanning() {
        let q = SpjQuery::over(["S"]).select("S", "price").filter("S", "id", CmpOp::Eq, 2).build();
        let c = indexed_catalog();
        let before = thread_stats();
        let out = eval(&q, &c).unwrap();
        let d = thread_stats().since(before);
        assert_eq!(out.weight(), 1);
        assert_eq!(out.rows.count(&Tuple::of([20i64])), 1);
        assert_eq!(d.index_probes, 1);
        assert!(d.rows_scanned < 3, "probe must not visit the whole table");
    }

    #[test]
    fn type_mismatch_still_errors_with_index_present() {
        // An ill-typed filter must take the scan path and surface the same
        // error the naive evaluator raises, index or no index.
        let q = SpjQuery::over(["S"])
            .select("S", "price")
            .filter("S", "price", CmpOp::Eq, "not-an-int")
            .build();
        let err = eval(&q, &indexed_catalog()).unwrap_err();
        assert!(matches!(err, RelationalError::IncomparableTypes { .. }));
    }

    #[test]
    fn overlay_binding_shadows_base_index() {
        let c = indexed_catalog();
        let delta = Delta::inserts(
            Schema::of("S", &[("id", AttrType::Int), ("price", AttrType::Int)]),
            [Tuple::of([Value::from(9), Value::from(90)])],
        )
        .unwrap();
        let overlay = Overlay::new(&c).bind("S", (&delta).into());
        let q = SpjQuery::over(["S"]).select("S", "price").filter("S", "id", CmpOp::Eq, 9).build();
        let out = eval(&q, &overlay).unwrap();
        assert_eq!(out.weight(), 1, "bound table is seen, not the stale indexed base");
        assert!(overlay.index_on("S", &["id"]).is_none());
    }

    #[test]
    fn cartesian_fallback_is_counted() {
        let q = SpjQuery::over(["R", "S"]).select("R", "name").select("S", "price").build();
        let before = thread_stats();
        eval(&q, &fixture()).unwrap();
        let d = thread_stats().since(before);
        assert_eq!(d.cartesian_fallbacks, 1);
        let before = thread_stats();
        eval(&join_query(), &fixture()).unwrap();
        assert_eq!(thread_stats().since(before).cartesian_fallbacks, 0);
    }

    #[test]
    fn planner_seeds_from_smallest_input() {
        // R has 2 distinct rows, S has 3: R seeds, and with a bound delta
        // (1 row) shadowing R, the delta seeds.
        let f = fixture();
        let q = join_query();
        let order = plan_order(&q, &f).unwrap();
        assert_eq!(order, vec!["R", "S"]);
        let delta = Delta::inserts(
            Schema::of("S", &[("id", AttrType::Int), ("price", AttrType::Int)]),
            [Tuple::of([Value::from(1), Value::from(10)])],
        )
        .unwrap();
        let overlay = Overlay::new(&f).bind("S", (&delta).into());
        let order = plan_order(&q, &overlay).unwrap();
        assert_eq!(order, vec!["S", "R"], "the 1-row bound delta must drive the join");
    }

    #[test]
    fn delta_join_probe_equals_eval_with_bound_delta() {
        // The operator form of ΔR ⋈ S must agree with evaluating the join
        // query over an overlay binding Δ in place of R.
        let f = fixture();
        let mut c = crate::Catalog::new();
        c.add_relation(f.r.clone()).unwrap();
        c.add_relation(f.s.clone()).unwrap();
        c.create_index("S", &["id"]).unwrap();
        let delta = Delta::from_rows(
            Schema::of("R", &[("id", AttrType::Int), ("name", AttrType::Str)]),
            [
                (Tuple::of([Value::from(2), Value::str("z")]), 3),
                (Tuple::of([Value::from(1), Value::str("a")]), -1),
                (Tuple::of([Value::Null, Value::str("n")]), 1),
            ],
        )
        .unwrap();
        let overlay = Overlay::new(&c).bind("R", (&delta).into());
        let q = SpjQuery::over(["R", "S"])
            .select("R", "id")
            .select("R", "name")
            .select("S", "id")
            .select("S", "price")
            .join_eq(("R", "id"), ("S", "id"))
            .build();
        let via_eval = eval(&q, &overlay).unwrap();
        let idx = c.index_on("S", &["id"]).unwrap();
        let via_op = delta_join_probe(delta.rows(), &[0], idx);
        assert_eq!(via_op, via_eval.rows);
    }

    #[test]
    fn delta_join_equals_nested_loop_on_both_orders() {
        let a: ZSet = [
            (Tuple::of([1i64, 10]), 2),
            (Tuple::of([2i64, 20]), -1),
            (Tuple::of([Value::Null, Value::from(9)]), 5),
        ]
        .into_iter()
        .collect();
        let b: ZSet =
            [(Tuple::of([1i64, 100]), 3), (Tuple::of([3i64, 300]), 1)].into_iter().collect();
        let expected: ZSet = [(Tuple::of([1i64, 10, 1, 100]), 6)].into_iter().collect();
        assert_eq!(delta_join(&a, &[0], &b, &[0]), expected);
        // Swapping which side is smaller must not change the result layout.
        let bigger: ZSet = (0..10).map(|i| (Tuple::of([i as i64, i as i64]), 1)).collect();
        let lhs = delta_join(&a, &[0], &bigger, &[0]);
        let rhs: ZSet = [(Tuple::of([1i64, 10, 1, 1]), 2), (Tuple::of([2i64, 20, 2, 2]), -1)]
            .into_iter()
            .collect();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn delta_join_empty_keys_is_cartesian() {
        let a: ZSet = [(Tuple::of([1i64]), 2)].into_iter().collect();
        let b: ZSet = [(Tuple::of([7i64]), -3)].into_iter().collect();
        let out = delta_join(&a, &[], &b, &[]);
        assert_eq!(out.count(&Tuple::of([1i64, 7])), -6);
    }

    #[test]
    fn delta_select_matches_scan_semantics() {
        let z: ZSet = [
            (Tuple::of([Value::from(1), Value::str("a")]), 1),
            (Tuple::of([Value::from(5), Value::str("b")]), -2),
            (Tuple::of([Value::Null, Value::str("c")]), 1),
        ]
        .into_iter()
        .collect();
        let out = delta_select(&z, &[(0, CmpOp::Ge, Value::from(2))]).unwrap();
        assert_eq!(out.count(&Tuple::of([Value::from(5), Value::str("b")])), -2);
        assert_eq!(out.distinct_len(), 1, "NULL never satisfies a filter");
        // Ill-typed filters error, exactly like the scan path.
        let err = delta_select(&z, &[(0, CmpOp::Eq, Value::str("x"))]).unwrap_err();
        assert!(matches!(err, RelationalError::IncomparableTypes { .. }));
    }

    #[test]
    fn projection_cancellations_are_counted() {
        let z: ZSet =
            [(Tuple::of([1i64, 10]), 2), (Tuple::of([1i64, 20]), -2), (Tuple::of([2i64, 5]), 1)]
                .into_iter()
                .collect();
        let before = thread_stats();
        let p = delta_project(&z, &[0]);
        let d = thread_stats().since(before);
        assert_eq!(p, z.project(&[0]), "operator form matches ZSet::project");
        assert_eq!(p.count(&Tuple::of([2i64])), 1);
        assert_eq!(d.weights_cancelled, 1, "the colliding pair annihilated once");
        // A collision-free projection cancels nothing.
        let before = thread_stats();
        delta_project(&z, &[0, 1]);
        assert_eq!(thread_stats().since(before).weights_cancelled, 0);
    }

    #[test]
    fn distinct_delta_tracks_support_crossings() {
        let base: ZSet = [(Tuple::of([1i64]), 2), (Tuple::of([2i64]), 1), (Tuple::of([3i64]), -1)]
            .into_iter()
            .collect();
        let delta: ZSet = [
            (Tuple::of([1i64]), -1), // 2 → 1: stays in the image
            (Tuple::of([2i64]), -1), // 1 → 0: leaves
            (Tuple::of([3i64]), 2),  // -1 → 1: enters
            (Tuple::of([4i64]), 3),  // 0 → 3: enters
        ]
        .into_iter()
        .collect();
        let d = distinct_delta(&base, &delta);
        // Differential check: distinct(base+delta) == distinct(base) + d.
        let mut new = base.clone();
        new.merge(&delta);
        let mut composed = base.distinct();
        composed.merge(&d);
        assert_eq!(composed, new.distinct());
        assert_eq!(d.count(&Tuple::of([2i64])), -1);
        assert_eq!(d.count(&Tuple::of([3i64])), 1);
        assert_eq!(d.count(&Tuple::of([4i64])), 1);
        assert_eq!(d.count(&Tuple::of([1i64])), 0);
    }
}
