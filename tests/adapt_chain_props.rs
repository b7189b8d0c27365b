//! Differential tests for batch adaptation's incremental path: Equation 6
//! computed as compensated delta chains, with each relation's adaptation
//! read answered both ways — *live* (`InProcessPort`: validated, no rows
//! shipped, every hop a probe of current state compensated for pending
//! updates) and *shipped* (the trait's default through `ExecuteOnly`: one
//! extent per relation, rolled back, hops over the copies).
//!
//! For seeded random merged batches — data updates on several relations
//! (deletes included) interleaved with relation renames, attribute renames,
//! attribute additions and drops of attributes the view never referenced,
//! with pending non-batch updates to roll back, against views with constant
//! filters and a two-attribute join key — four independently computed
//! answers must agree:
//!
//! 1. `Adapted::Incremental` from the live answers (the chains);
//! 2. the same from the shipped answers — equal as a whole `Adapted`;
//! 3. `RecomputeOnly`'s batch-point extent minus the extent before the batch;
//! 4. Equation 6 term by term through the general executor — one full
//!    `eval` of the view per changed relation over materialized new states,
//!    the formulation the chains replaced, kept here as the reference —
//!    over full-width states this file reconstructs itself.
//!
//! A second train drops an attribute the view *outputs* (`a`, `b` or `c`)
//! among such members: `V′` is then a projection of `V`, which the live
//! port takes from the held extent without shipping a row, while the
//! shipping port and `RecomputeOnly` recompute it; all three must equal
//! `eval(V′)` at the batch point.
//!
//! A third train holds the invariant SWEEP and Equation 6 share one hop
//! chain on: SWEEP is Equation 6 with exactly one changed relation. For
//! batches of one data update, with pending updates on the hop targets
//! ahead of and behind the changed relation, `sweep_maintain` must equal
//! `adapt_batch`'s incremental delta and `RecomputeOnly`'s batch-point
//! extent minus the extent before, on both ports.
//!
//! Cases come from the in-repo seeded PRNG; a failure names its case. Fixed
//! cases pin what the random ones reach only by chance: pending updates that
//! join the batch's delta on both sides of the changed relation, a pending
//! rename the chain never hops to, a dropped predicate column (undefinable
//! on both ports) and a dropped column the information space re-sources
//! from a relation the view already joins (recomputed on both).

mod common;

use std::collections::HashMap;

use common::{ExecuteOnly, ShipCounter};
use dyno::obs::Collector;
use dyno::prelude::*;
use dyno::relational::exec::{RelationProvider, TableSlice};
use dyno::relational::{eval, ZSet};
use dyno::sim::Rng;
use dyno::view::{
    adapt_batch, equation6_delta, homogenize_delta, sweep_maintain, AdaptationMode, Adapted,
    BatchFailure, Pending,
};

const CASES: u64 = 96;

type States = HashMap<String, (Schema, ZSet)>;

/// Equation 6 as the parent commit computed it: for each changed relation
/// `Rᵢ`, evaluate the whole query with `R₁…Rᵢ₋₁` at their new states, `Rᵢ`
/// bound to its delta and `Rᵢ₊₁…Rₙ` at their old states; sum the terms.
fn equation6_by_eval(query: &SpjQuery, old: &States, deltas: &HashMap<String, ZSet>) -> ZSet {
    struct Slices<'a>(HashMap<&'a str, TableSlice<'a>>);
    impl RelationProvider for Slices<'_> {
        fn table(&self, name: &str) -> Result<TableSlice<'_>, RelationalError> {
            self.0
                .get(name)
                .copied()
                .ok_or_else(|| RelationalError::UnknownRelation { relation: name.into() })
        }
    }
    let new_states: HashMap<&str, ZSet> = deltas
        .iter()
        .map(|(t, d)| {
            let mut rows = old[t].1.clone();
            rows.merge(d);
            (t.as_str(), rows)
        })
        .collect();
    let mut total = ZSet::new();
    for (i, table_i) in query.tables.iter().enumerate() {
        let Some(delta_i) = deltas.get(table_i) else { continue };
        let mut provider = Slices(HashMap::new());
        for (j, table_j) in query.tables.iter().enumerate() {
            let (schema, old_rows) = &old[table_j];
            let rows = match j.cmp(&i) {
                std::cmp::Ordering::Less => new_states.get(table_j.as_str()).unwrap_or(old_rows),
                std::cmp::Ordering::Equal => delta_i,
                std::cmp::Ordering::Greater => old_rows,
            };
            provider.0.insert(table_j, TableSlice { schema, rows });
        }
        total.merge(&eval(query, &provider).expect("the reference evaluates").rows);
    }
    total
}

/// One relation of the fixture as the test tracks it across renames: where
/// it lives, what it is called now, how many leading attributes the view
/// references (later ones are fair game for `DropAttribute`), and whether
/// the last of those — its output attribute `a`, `b` or `c` — survives.
struct Tracked {
    source: SourceId,
    name: String,
    referenced: usize,
    output: bool,
}

fn row(rng: &mut Rng, schema: &Schema) -> Tuple {
    // Narrow ranges so keys match, filters cut and projections collide.
    Tuple::new(
        schema
            .attrs()
            .iter()
            .enumerate()
            .map(|(i, _)| Value::from(rng.gen_range(0..if i < 2 { 3 } else { 6i64 })))
            .collect(),
    )
}

fn build_space(rng: &mut Rng) -> (SourceSpace, Vec<Tracked>) {
    let int = |n: &str| (n.to_string(), AttrType::Int);
    let shapes = [
        ("A", vec![int("k1"), int("k2"), int("a"), int("u")], 0u32, 3usize),
        ("B", vec![int("k1"), int("k2"), int("b"), int("u")], 0, 3),
        ("C", vec![int("k1"), int("c"), int("u")], 1, 2),
    ];
    let mut catalogs = [Catalog::new(), Catalog::new()];
    let mut tracked = Vec::new();
    for (name, cols, source, referenced) in shapes {
        let attrs = cols.into_iter().map(|(n, t)| Attribute::new(n, t)).collect();
        let schema = Schema::new(name, attrs).expect("distinct attributes");
        let rows: Vec<Tuple> = (0..rng.gen_range(3..9usize)).map(|_| row(rng, &schema)).collect();
        let rel = Relation::from_tuples(schema, rows).expect("typed rows");
        catalogs[source as usize].add_relation(rel).expect("distinct relations");
        let source = SourceId(source);
        tracked.push(Tracked { source, name: name.into(), referenced, output: true });
    }
    let mut space = SourceSpace::new();
    for (i, catalog) in catalogs.into_iter().enumerate() {
        space.add_server(SourceServer::new(SourceId(i as u32), format!("s{i}"), catalog));
    }
    (space, tracked)
}

/// `A ⋈ B` on two attributes, `B ⋈ C` on one; `filtered` adds filters on
/// two relations. Outputs are aliased, so renames keep the columns.
fn view(filtered: bool) -> ViewDefinition {
    let mut b = SpjQuery::over(["A", "B", "C"])
        .select_as("A", "a", "a")
        .select_as("B", "b", "b")
        .select_as("C", "c", "c")
        .select_as("A", "k1", "k")
        .join_eq(("A", "k1"), ("B", "k1"))
        .join_eq(("A", "k2"), ("B", "k2"))
        .join_eq(("B", "k1"), ("C", "k1"));
    if filtered {
        b = b.filter("A", "a", CmpOp::Ge, 1).filter("C", "c", CmpOp::Lt, 5);
    }
    ViewDefinition::new("V", b.build())
}

/// A data update against `rel`'s current schema: an insert, or (when it has
/// rows) a delete of stored rows.
fn data_update(rng: &mut Rng, rel: &Relation) -> SourceUpdate {
    let schema = rel.schema().clone();
    let stored: Vec<Tuple> = rel.rows().iter().map(|(t, _)| t.clone()).collect();
    let delta = if stored.is_empty() || rng.gen_ratio(3, 5) {
        Delta::inserts(schema.clone(), (0..rng.gen_range(1..3u32)).map(|_| row(rng, &schema)))
    } else {
        Delta::deletes(schema, [rng.choose(&stored).clone()])
    };
    SourceUpdate::Data(DataUpdate::new(delta.expect("typed rows")))
}

/// Commits one random batch member and returns its message.
fn commit_member(
    rng: &mut Rng,
    space: &mut SourceSpace,
    tracked: &mut [Tracked],
    fresh: &mut u32,
) -> UpdateMessage {
    let t = rng.gen_range(0..tracked.len());
    let rel = space.server(tracked[t].source).catalog().get(&tracked[t].name).expect("tracked");
    let attrs = rel.schema().attrs();
    *fresh += 1;
    let update = match rng.gen_range(0..10u32) {
        0..=4 => data_update(rng, rel),
        5 | 6 => {
            let to = format!("{}_{fresh}", tracked[t].name);
            let from = std::mem::replace(&mut tracked[t].name, to.clone());
            SourceUpdate::Schema(SchemaChange::RenameRelation { from, to })
        }
        7 => SourceUpdate::Schema(SchemaChange::RenameAttribute {
            relation: tracked[t].name.clone(),
            from: rng.choose(attrs).name.clone(),
            to: format!("x{fresh}"),
        }),
        8 => SourceUpdate::Schema(SchemaChange::AddAttribute {
            relation: tracked[t].name.clone(),
            attr: Attribute::new(format!("n{fresh}"), AttrType::Int),
            default: Value::from(7),
        }),
        _ if attrs.len() > tracked[t].referenced => {
            SourceUpdate::Schema(SchemaChange::DropAttribute {
                relation: tracked[t].name.clone(),
                attr: rng.choose(&attrs[tracked[t].referenced..]).name.clone(),
            })
        }
        _ => data_update(rng, rel),
    };
    space.commit(tracked[t].source, update).expect("generated against the current schema")
}

/// Commits a drop of one surviving output attribute (`a`, `b` or `c`), when
/// one is left.
fn commit_output_drop(
    rng: &mut Rng,
    space: &mut SourceSpace,
    tracked: &mut [Tracked],
) -> Option<UpdateMessage> {
    let candidates: Vec<usize> = (0..tracked.len()).filter(|&t| tracked[t].output).collect();
    if candidates.is_empty() {
        return None;
    }
    let t = &mut tracked[*rng.choose(&candidates)];
    let rel = space.server(t.source).catalog().get(&t.name).expect("tracked");
    let attr = rel.schema().attrs()[t.referenced - 1].name.clone();
    t.output = false;
    t.referenced -= 1;
    let sc = SchemaChange::DropAttribute { relation: t.name.clone(), attr };
    Some(space.commit(t.source, SourceUpdate::Schema(sc)).expect("drops a current attribute"))
}

fn extent_of(view: &ViewDefinition, space: &SourceSpace) -> ZSet {
    eval(&view.query, &space.provider()).expect("the view is defined").rows
}

/// The view's extent over `space`, as a warehouse holds it.
fn materialized(view: &ViewDefinition, space: &SourceSpace) -> MaterializedView {
    let mut mv = MaterializedView::new(view.name.clone(), view.output_cols());
    mv.replace(view.output_cols(), extent_of(view, space)).expect("non-negative");
    mv
}

type Outcome = (Result<Adapted, BatchFailure>, Vec<UpdateMessage>);

/// Adapts `batch` over a copy of `space` from the extent `mv`, with every
/// adaptation read answered live (`InProcessPort`, through a
/// [`ShipCounter`]) or shipped (`ExecuteOnly`, the default). Returns the
/// outcome and the rows the live port shipped (0 when shipped).
fn adapt_via(
    space: &SourceSpace,
    view: &ViewDefinition,
    mv: &MaterializedView,
    batch: &[UpdateMessage],
    pending: &[UpdateMessage],
    mode: AdaptationMode,
    shipped: bool,
) -> (Outcome, u64) {
    let info = space.info().clone();
    let members: Vec<&UpdateMessage> = batch.iter().collect();
    let pending: Vec<&UpdateMessage> = pending.iter().collect();
    let (port, obs) = (InProcessPort::new(space.clone()), Collector::disabled());
    let adapt = |port: &mut dyn SourcePort| {
        adapt_batch((view, mv), &members, Pending::loose(&pending), &info, mode, port, &obs)
    };
    if shipped {
        (adapt(&mut ExecuteOnly(port)), 0)
    } else {
        let mut port = ShipCounter::new(port);
        let outcome = adapt(&mut port);
        (outcome, port.shipped)
    }
}

/// [`adapt_via`] both ways under `Auto`, asserting the same `Adapted`
/// (definition, columns, rows) or the same failure, and the same arrivals.
/// Returns the outcome and the rows the live port shipped.
fn adapt_both(
    space: &SourceSpace,
    view: &ViewDefinition,
    mv: &MaterializedView,
    batch: &[UpdateMessage],
    pending: &[UpdateMessage],
    ctx: &str,
) -> (Result<Adapted, BatchFailure>, u64) {
    let (live, shipped_rows) =
        adapt_via(space, view, mv, batch, pending, AdaptationMode::Auto, false);
    let (shipped, _) = adapt_via(space, view, mv, batch, pending, AdaptationMode::Auto, true);
    assert_eq!(live, shipped, "{ctx}: live vs shipped answers of the adaptation read");
    assert!(live.1.is_empty(), "{ctx}: nothing commits during adaptation");
    (live.0, shipped_rows)
}

/// The old states and per-relation batch deltas at full width, rebuilt from
/// the sources' current relations the way the adaptation does it from its
/// narrow fetches: current rows minus pending updates minus the batch's own
/// (homogenized) deltas.
fn reconstruct(
    new_view: &ViewDefinition,
    space: &SourceSpace,
    batch: &[UpdateMessage],
    pending: &[UpdateMessage],
) -> (States, HashMap<String, ZSet>) {
    let mut deltas: HashMap<String, ZSet> = HashMap::new();
    for (i, m) in batch.iter().enumerate() {
        let SourceUpdate::Data(du) = &m.update else { continue };
        let later: Vec<SchemaChange> = batch[i + 1..]
            .iter()
            .filter_map(|m| match &m.update {
                SourceUpdate::Schema(sc) => Some(sc.clone()),
                SourceUpdate::Data(_) => None,
            })
            .collect();
        let h = homogenize_delta(&du.delta, &later).expect("homogenizes");
        deltas.entry(h.schema().relation.clone()).or_default().merge(h.rows());
    }
    let mut old = States::new();
    for table in &new_view.query.tables {
        let sid = space.locate(table).expect("the rewritten view names current relations");
        let rel = space.server(sid).catalog().get(table).expect("located");
        let mut rows = rel.rows().clone();
        for m in pending {
            if let SourceUpdate::Data(du) = &m.update {
                if du.relation == *table {
                    rows.merge_negated(du.delta.rows());
                }
            }
        }
        if let Some(d) = deltas.get(table) {
            rows.merge_negated(d);
        }
        old.insert(table.clone(), (rel.schema().clone(), rows));
    }
    (old, deltas)
}

#[test]
fn chains_equal_recompute_diff_and_the_term_by_term_reference() {
    let (mut renames, mut drops, mut with_pending, mut nonempty) = (0, 0, 0, 0);
    for case in 0..CASES {
        let mut rng = Rng::new(0xADA9_7000 + case);
        let (mut space, mut tracked) = build_space(&mut rng);
        let view = view(rng.gen_ratio(2, 3));
        let mv = materialized(&view, &space);
        let before = mv.extent();

        let mut fresh = 0;
        let batch: Vec<UpdateMessage> = (0..rng.gen_range(3..11usize))
            .map(|_| commit_member(&mut rng, &mut space, &mut tracked, &mut fresh))
            .collect();
        let pending = commit_pending(&mut rng, &mut space, &tracked);
        for m in &batch {
            match &m.update {
                SourceUpdate::Schema(SchemaChange::DropAttribute { .. }) => drops += 1,
                SourceUpdate::Schema(_) => renames += 1,
                SourceUpdate::Data(_) => {}
            }
        }
        with_pending += u32::from(!pending.is_empty());

        let ctx = format!("case {case}");
        let (adapted, live_rows) = adapt_both(&space, &view, &mv, &batch, &pending, &ctx);
        let adapted = adapted.unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
        let Adapted::Incremental { view: new_view, delta } = adapted else {
            panic!("{ctx}: a shape-preserving batch adapts incrementally");
        };
        assert_eq!(live_rows, 0, "{ctx}: the live port shipped rows");
        let (recomputed, _) =
            adapt_via(&space, &view, &mv, &batch, &pending, AdaptationMode::RecomputeOnly, false);
        let Ok(Adapted::Replaced { view: recomputed_view, extent, .. }) = recomputed.0 else {
            panic!("{ctx}: RecomputeOnly recomputes, got {recomputed:?}");
        };
        assert_eq!(new_view, recomputed_view, "case {case}");
        assert_eq!(delta.cols, view.output_cols(), "case {case}");
        assert_eq!(delta.rows, extent.diff(before), "case {case}: chains vs recompute");

        let (old, deltas) = reconstruct(&new_view, &space, &batch, &pending);
        let reference = equation6_by_eval(&new_view.query, &old, &deltas);
        assert_eq!(delta.rows, reference, "case {case}: chains vs term-by-term eval");
        // And the public function on the very states the reference saw.
        let direct = equation6_delta(&new_view.query, &old, &deltas).expect("well-formed");
        assert_eq!(direct.rows, reference, "case {case}: equation6_delta at full width");
        nonempty += u32::from(!delta.rows.is_empty());
    }
    assert!(
        renames >= 40 && drops >= 10,
        "schema changes ran: {renames} renames/adds, {drops} drops"
    );
    assert!(with_pending >= 30, "pending rollbacks ran: {with_pending}");
    assert!(nonempty >= 30, "the deltas were not all trivially empty: {nonempty}");
}

/// Pending updates: data updates that commit after the batch, against the
/// final schema, on random relations (ahead of and behind the batch's
/// changed ones in FROM order), to be rolled back out of every read.
fn commit_pending(
    rng: &mut Rng,
    space: &mut SourceSpace,
    tracked: &[Tracked],
) -> Vec<UpdateMessage> {
    (0..rng.gen_range(0..4usize))
        .map(|_| {
            let t = rng.choose(tracked);
            let rel = space.server(t.source).catalog().get(&t.name).expect("tracked");
            let update = data_update(rng, rel);
            space.commit(t.source, update).expect("current schema")
        })
        .collect()
}

#[test]
fn pruned_output_columns_adapt_from_the_extent_and_equal_the_recompute() {
    // Each batch drops one output attribute (`a`, `b` or `c`) among random
    // members on both sides of it. Unless the dropped column sits in a
    // filter (then `V′` is undefinable on both ports), `V′` is a projection
    // of `V`: the live port takes it from the held extent and ships no row,
    // the shipping port and `RecomputeOnly` recompute it, and all three
    // equal `eval(V′)` at the batch point.
    let (mut projected, mut undefinable, mut dus_around, mut with_pending) = (0, 0, 0, 0);
    for case in 0..CASES {
        let mut rng = Rng::new(0xD809_0000 + case);
        let (mut space, mut tracked) = build_space(&mut rng);
        let view = view(rng.gen_ratio(1, 3));
        let mv = materialized(&view, &space);

        let mut fresh = 0;
        let mut members = |rng: &mut Rng, space: &mut SourceSpace, tracked: &mut [Tracked]| {
            (0..rng.gen_range(1..6usize))
                .map(|_| commit_member(rng, space, tracked, &mut fresh))
                .collect::<Vec<_>>()
        };
        let before_drop = members(&mut rng, &mut space, &mut tracked);
        let drop = commit_output_drop(&mut rng, &mut space, &mut tracked).expect("all outputs");
        let after_drop = members(&mut rng, &mut space, &mut tracked);
        let is_du = |m: &UpdateMessage| matches!(m.update, SourceUpdate::Data(_));
        dus_around += u32::from(before_drop.iter().any(is_du) && after_drop.iter().any(is_du));
        let batch: Vec<UpdateMessage> =
            before_drop.into_iter().chain([drop]).chain(after_drop).collect();
        let at_batch_point = space.clone();
        let pending = commit_pending(&mut rng, &mut space, &tracked);
        with_pending += u32::from(!pending.is_empty());

        let ctx = format!("case {case}");
        let (adapted, live_rows) = adapt_both(&space, &view, &mv, &batch, &pending, &ctx);
        let (recomputed, _) =
            adapt_via(&space, &view, &mv, &batch, &pending, AdaptationMode::RecomputeOnly, false);
        assert_eq!(adapted, recomputed.0, "{ctx}: Auto vs RecomputeOnly");
        match adapted {
            Ok(Adapted::Replaced { view: new_view, cols, extent }) => {
                assert_eq!(live_rows, 0, "{ctx}: the live port shipped rows");
                assert_eq!(cols, new_view.output_cols(), "{ctx}");
                assert_eq!(cols.len(), 3, "{ctx}: one column pruned");
                let expected = extent_of(&new_view, &at_batch_point);
                assert_eq!(extent, expected, "{ctx}: eval(V′) at the batch point");
                projected += 1;
            }
            Err(BatchFailure::Undefinable(_)) => undefinable += 1,
            other => panic!("{ctx}: a pruned column replaces the extent, got {other:?}"),
        }
    }
    assert!(projected >= 20, "projected from the extent: {projected}");
    assert!(undefinable >= 5, "filter columns dropped: {undefinable}");
    assert!(dus_around >= 20, "data updates on both sides of the drop: {dus_around}");
    assert!(with_pending >= 30, "pending rollbacks ran: {with_pending}");
}

#[test]
fn sweep_is_equation6_with_one_changed_relation() {
    // The changed relation is B in half the cases, so its pending updates
    // sit both ahead of it (A) and behind it (C) in FROM order; A and C take
    // the other half. Every other relation gets one or two pending updates.
    let (mut both_sides, mut nonempty) = (0, 0);
    for case in 0..64u64 {
        let mut rng = Rng::new(0x5EE9_6000 + case);
        let (mut space, tracked) = build_space(&mut rng);
        let view = view(rng.gen_ratio(1, 2));
        let mv = materialized(&view, &space);
        let changed = [1, 0, 1, 2][case as usize % 4];
        let commit_du = |rng: &mut Rng, space: &mut SourceSpace, t: &Tracked| {
            let rel = space.server(t.source).catalog().get(&t.name).expect("tracked");
            let update = data_update(rng, rel);
            space.commit(t.source, update).expect("current schema")
        };
        let du = commit_du(&mut rng, &mut space, &tracked[changed]);
        let mut pending = Vec::new();
        for (_, t) in tracked.iter().enumerate().filter(|&(i, _)| i != changed) {
            for _ in 0..rng.gen_range(1..3u32) {
                pending.push(commit_du(&mut rng, &mut space, t));
            }
        }
        both_sides += u32::from(changed == 1);

        let ctx = format!("case {case}");
        let sweep = |port: &mut dyn SourcePort| sweep_maintain(&view, &du, &pending, port);
        let (live, arrived) = sweep(&mut InProcessPort::new(space.clone()));
        let (shipped, _) = sweep(&mut ExecuteOnly(InProcessPort::new(space.clone())));
        assert_eq!(live, shipped, "{ctx}: SWEEP live vs shipped");
        assert!(arrived.is_empty(), "{ctx}: nothing commits during maintenance");
        let swept = live.unwrap_or_else(|e| panic!("{ctx}: {e:?}"));

        let batch = std::slice::from_ref(&du);
        let Ok(Adapted::Incremental { delta, .. }) =
            adapt_both(&space, &view, &mv, batch, &pending, &ctx).0
        else {
            panic!("{ctx}: a lone data update adapts incrementally");
        };
        assert_eq!(swept, delta, "{ctx}: SWEEP vs Equation 6");
        let (recomputed, _) =
            adapt_via(&space, &view, &mv, batch, &pending, AdaptationMode::RecomputeOnly, false);
        let Ok(Adapted::Replaced { extent, .. }) = recomputed.0 else {
            panic!("{ctx}: RecomputeOnly recomputes, got {recomputed:?}");
        };
        assert_eq!(delta.rows, extent.diff(mv.extent()), "{ctx}: Equation 6 vs recompute");
        nonempty += u32::from(!delta.rows.is_empty());
    }
    assert!(both_sides >= 24, "pending on both sides of the changed relation: {both_sides}");
    assert!(nonempty >= 20, "the deltas were not all trivially empty: {nonempty}");
}

/// The fixture's relations holding exactly `a`, `b` and `c`.
fn space_with(a: &[[i64; 4]], b: &[[i64; 4]], c: &[[i64; 3]]) -> SourceSpace {
    let int = AttrType::Int;
    let rel = |name: &str, attrs: &[(&str, AttrType)], rows: Vec<Tuple>| {
        Relation::from_tuples(Schema::of(name, attrs), rows).expect("typed rows")
    };
    let ab = |n: &'static str| [("k1", int), ("k2", int), (n, int), ("u", int)];
    let mut s0 = Catalog::new();
    s0.add_relation(rel("A", &ab("a"), a.iter().map(|r| Tuple::of(*r)).collect())).unwrap();
    s0.add_relation(rel("B", &ab("b"), b.iter().map(|r| Tuple::of(*r)).collect())).unwrap();
    let mut s1 = Catalog::new();
    let c_attrs = [("k1", int), ("c", int), ("u", int)];
    s1.add_relation(rel("C", &c_attrs, c.iter().map(|r| Tuple::of(*r)).collect())).unwrap();
    let mut space = SourceSpace::new();
    space.add_server(SourceServer::new(SourceId(0), "s0", s0));
    space.add_server(SourceServer::new(SourceId(1), "s1", s1));
    space
}

fn insert(space: &mut SourceSpace, source: u32, relation: &str, row: &[i64]) -> UpdateMessage {
    let schema = space.server(SourceId(source)).catalog().get(relation).unwrap().schema().clone();
    let delta = Delta::inserts(schema, [Tuple::of(row.iter().copied())]).expect("typed row");
    space.commit(SourceId(source), SourceUpdate::Data(DataUpdate::new(delta))).expect("commits")
}

fn rename(space: &mut SourceSpace, source: u32, from: &str, to: &str) -> UpdateMessage {
    let sc = SchemaChange::RenameRelation { from: from.into(), to: to.into() };
    space.commit(SourceId(source), SourceUpdate::Schema(sc)).expect("commits")
}

#[test]
fn pending_updates_on_both_sides_of_the_changed_relation_are_compensated() {
    // FROM order A, B, C. The batch changes A and B and renames C; pending
    // inserts into A (ahead of B) and C2 (behind B, and behind A) both join
    // the batch's rows, so every term's chain meets a pending update on its
    // way — on the live path as a probe answer it must compensate.
    let mut space =
        space_with(&[[1, 1, 1, 0], [2, 0, 1, 0]], &[[2, 0, 1, 0]], &[[1, 1, 0], [2, 2, 0]]);
    let view = view(false);
    let mv = materialized(&view, &space);
    let batch = vec![
        insert(&mut space, 0, "B", &[1, 1, 2, 0]),
        insert(&mut space, 0, "A", &[2, 0, 5, 0]),
        rename(&mut space, 1, "C", "C2"),
    ];
    let pending =
        vec![insert(&mut space, 0, "A", &[1, 1, 3, 0]), insert(&mut space, 1, "C2", &[1, 4, 0])];

    let Adapted::Incremental { view: new_view, delta } =
        adapt_both(&space, &view, &mv, &batch, &pending, "both sides").0.expect("adapts")
    else {
        panic!("a rename batch adapts incrementally");
    };
    assert!(new_view.references_relation("C2"));
    let (recomputed, _) =
        adapt_via(&space, &view, &mv, &batch, &pending, AdaptationMode::RecomputeOnly, false);
    let Ok(Adapted::Replaced { extent, .. }) = recomputed.0 else { panic!("{recomputed:?}") };
    assert_eq!(delta.rows, extent.diff(mv.extent()), "chains vs recompute");
    // ΔB joins the old A row and C's (1, 1); ΔA joins B (2, 0) and C's (2, 2).
    assert_eq!((delta.rows.weight(), delta.rows.net()), (2, 2), "{:?}", delta.rows);

    // The pending updates matter: withheld, both answers see them.
    let Ok(Adapted::Incremental { delta: leaky, .. }) =
        adapt_both(&space, &view, &mv, &batch, &[], "pending withheld").0
    else {
        panic!("adapts");
    };
    assert_ne!(leaky.rows, delta.rows, "the pending inserts join the batch's rows");
}

#[test]
fn a_pending_rename_the_chain_never_hops_to_breaks_the_up_front_read() {
    // The batch's only data update fails the view's filter `A.a >= 1`, so
    // every chain is empty before its first hop; a pending rename of C is
    // still caught, by the read of C that precedes the chain — identically
    // whether that read ships C or only validates against it.
    let mut space = space_with(&[[1, 1, 1, 0]], &[[1, 1, 1, 0]], &[[1, 1, 0]]);
    let view = view(true);
    let mv = materialized(&view, &space);
    let batch = vec![insert(&mut space, 0, "A", &[1, 1, 0, 0]), rename(&mut space, 0, "B", "B2")];
    let pending = vec![rename(&mut space, 1, "C", "C9")];
    match adapt_both(&space, &view, &mv, &batch, &pending, "pending rename").0 {
        Err(BatchFailure::Broken(broken)) => {
            assert!(format!("{broken:?}").contains("\"C\""), "the read of C broke: {broken:?}")
        }
        other => panic!("expected the read of C to break, got {other:?}"),
    }
}

fn drop_attr(space: &mut SourceSpace, source: u32, relation: &str, attr: &str) -> UpdateMessage {
    let sc = SchemaChange::DropAttribute { relation: relation.into(), attr: attr.into() };
    space.commit(SourceId(source), SourceUpdate::Schema(sc)).expect("commits")
}

#[test]
fn dropping_a_predicate_column_is_undefinable_on_both_ports() {
    // `B.k2` is a join column and `C.c` a filter column; neither has a
    // replacement, so no rewrite of the view exists, whatever the port.
    for (source, relation, attr) in [(0, "B", "k2"), (1, "C", "c")] {
        let mut space = space_with(&[[1, 1, 1, 0]], &[[1, 1, 1, 0]], &[[1, 1, 0]]);
        let view = view(true);
        let mv = materialized(&view, &space);
        let batch = vec![
            insert(&mut space, 0, "A", &[1, 1, 2, 0]),
            drop_attr(&mut space, source, relation, attr),
        ];
        let ctx = format!("drop {relation}.{attr}");
        match adapt_both(&space, &view, &mv, &batch, &[], &ctx) {
            (Err(BatchFailure::Undefinable(e)), 0) => {
                assert!(e.to_string().contains(&format!("{relation}.{attr}")), "{ctx}: {e}")
            }
            other => panic!("{ctx}: expected an undefinable view, got {other:?}"),
        }
    }
}

#[test]
fn a_re_sourced_column_is_recomputed_identically_on_both_ports() {
    // The view joins `ReaderDigest` already, and the information space
    // re-sources a dropped `Catalog.Review` from `ReaderDigest.Comments`:
    // the output names survive but the values do not, so `V′` is no
    // projection of `V` and both ports recompute it, the live one by
    // shipping its relations.
    use dyno::view::testkit::bookinfo_space;
    let mut space = bookinfo_space();
    let q = SpjQuery::over(["Catalog", "ReaderDigest"])
        .select("Catalog", "Title")
        .select("Catalog", "Review")
        .join_eq(("Catalog", "Title"), ("ReaderDigest", "Article"))
        .build();
    let view = ViewDefinition::new("Reviews", q);
    let mv = materialized(&view, &space);
    let batch = vec![drop_attr(&mut space, 1, "Catalog", "Review")];
    let (adapted, live_rows) = adapt_both(&space, &view, &mv, &batch, &[], "re-sourced");
    let Ok(Adapted::Replaced { view: new_view, extent, .. }) = adapted else {
        panic!("a re-sourced column recomputes, got {adapted:?}");
    };
    assert!(new_view.query.to_string().contains("ReaderDigest.Comments AS Review"));
    assert_eq!(extent, extent_of(&new_view, &space), "eval(V′)");
    assert_ne!(&extent, mv.extent(), "the column's values changed");
    assert!(live_rows > 0, "the live port shipped its relations for the recompute");
}
