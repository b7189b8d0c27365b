//! Randomized test for paper Equation 6: the incremental n-way-join delta
//! equals full recomputation over the new states diffed against the old
//! extent, for arbitrary relation states and arbitrary signed deltas.

use std::collections::HashMap;

use dyno::prelude::*;
use dyno::relational::ZSet;
use dyno::sim::Rng;
use dyno::view::{equation6_delta, LocalProvider, ViewDefinition};

fn schema(i: usize) -> Schema {
    Schema::of(&format!("R{i}"), &[("k", AttrType::Int), ("v", AttrType::Int)])
}

fn view(n: usize) -> ViewDefinition {
    filtered_view(n, &[])
}

/// The chain view over `R0..Rn`, with a constant filter `Ri.v <op> c` per
/// entry of `filters`.
fn filtered_view(n: usize, filters: &[(usize, CmpOp, i64)]) -> ViewDefinition {
    let names: Vec<String> = (0..n).map(|i| format!("R{i}")).collect();
    let mut b = SpjQuery::over(names.clone());
    for (i, name) in names.iter().enumerate() {
        b = b.select_as(name, "v", &format!("v{i}"));
    }
    for w in names.windows(2) {
        b = b.join_eq((w[0].as_str(), "k"), (w[1].as_str(), "k"));
    }
    for &(i, op, c) in filters {
        b = b.filter(&names[i], "v", op, c);
    }
    ViewDefinition::new("V", b.build())
}

/// `eval(V, old + deltas) − eval(V, old)`: what Equation 6 must equal.
fn recompute_diff(
    view: &ViewDefinition,
    old: &HashMap<String, (Schema, ZSet)>,
    deltas: &HashMap<String, ZSet>,
) -> ZSet {
    let eval_over = |pick_new: bool| -> ZSet {
        let mut p = LocalProvider::new();
        for (name, (schema, rows)) in old {
            let mut r = rows.clone();
            if let Some(d) = deltas.get(name).filter(|_| pick_new) {
                r.merge(d);
            }
            p.insert(schema.clone(), r);
        }
        dyno::relational::eval(&view.query, &p).expect("well-formed").rows
    };
    eval_over(true).diff(&eval_over(false))
}

/// 0..8 rows over keys 0..5, values 0..3, multiplicities 1..3.
fn rel_rows(rng: &mut Rng) -> Vec<(Tuple, i64)> {
    let n = rng.gen_range(0..8usize);
    (0..n)
        .map(|_| {
            let k = rng.gen_range(0..5i64);
            let v = rng.gen_range(0..3i64);
            let c = rng.gen_range(1..3i64);
            (Tuple::of([k, v]), c)
        })
        .collect()
}

/// Insert rows disjoint from [`rel_rows`] (values 3..6), so `old + delta`
/// stays a valid relation after the deletes the test mixes in.
fn delta_rows(rng: &mut Rng) -> Vec<(Tuple, i64)> {
    let n = rng.gen_range(0..6usize);
    (0..n)
        .map(|_| {
            let k = rng.gen_range(0..5i64);
            let v = rng.gen_range(3..6i64);
            let c = rng.gen_range(1..3i64);
            (Tuple::of([k, v]), c)
        })
        .collect()
}

/// ΔV from Equation 6 equals eval(V, new states) − eval(V, old states),
/// with up to all relations changing at once.
#[test]
fn equation6_equals_recompute_diff() {
    let mut rng = Rng::new(0xE6_4517);
    for case in 0..64 {
        let n = 3;
        let states: Vec<Vec<(Tuple, i64)>> = (0..n).map(|_| rel_rows(&mut rng)).collect();
        let inserts: Vec<Vec<(Tuple, i64)>> = (0..n).map(|_| delta_rows(&mut rng)).collect();
        let changed_mask = rng.gen_range(0..8u32) as u8;

        let view = view(n);
        let mut old: HashMap<String, (Schema, ZSet)> = HashMap::new();
        for (i, rows) in states.iter().enumerate() {
            old.insert(format!("R{i}"), (schema(i), rows.iter().cloned().collect()));
        }
        let mut deltas: HashMap<String, ZSet> = HashMap::new();
        for (i, rows) in inserts.iter().enumerate() {
            if changed_mask & (1 << i) != 0 {
                let mut d: ZSet = rows.iter().cloned().collect();
                // Also delete half of the existing tuples of this relation,
                // exercising negative multiplicities.
                for (j, (t, c)) in states[i].iter().enumerate() {
                    if j % 2 == 0 {
                        d.add(t.clone(), -c);
                    }
                }
                deltas.insert(format!("R{i}"), d);
            }
        }

        let dv = equation6_delta(&view.query, &old, &deltas).expect("well-formed");
        assert_eq!(dv.rows, recompute_diff(&view, &old, &deltas), "case {case}");
    }
}

/// The same identity through constant filters (on the changed relation —
/// the chain's seed selection — and on hop targets), with one relation's
/// delta built to cancel to empty (present in the map, contributing no
/// term), and down to a one-relation view (a chain with no hop at all).
#[test]
fn equation6_with_filters_cancelled_deltas_and_a_single_relation() {
    let mut rng = Rng::new(0xE6_F117);
    for case in 0..96 {
        let n = [1, 2, 4][case % 3];
        let mut filters: Vec<(usize, CmpOp, i64)> = Vec::new();
        for i in 0..n {
            if rng.gen_ratio(1, 2) {
                let op = *rng.choose(&[CmpOp::Ge, CmpOp::Lt, CmpOp::Eq]);
                filters.push((i, op, rng.gen_range(1..4i64)));
            }
        }
        let view = filtered_view(n, &filters);
        let mut old: HashMap<String, (Schema, ZSet)> = HashMap::new();
        let mut deltas: HashMap<String, ZSet> = HashMap::new();
        let cancelled = rng.gen_range(0..n);
        for i in 0..n {
            let rows = rel_rows(&mut rng);
            let mut d: ZSet = delta_rows(&mut rng).into_iter().collect();
            if i == cancelled {
                // Every insert is taken back within the same delta.
                let inserts = d.clone();
                d.merge_negated(&inserts);
                assert!(d.is_empty());
                deltas.insert(format!("R{i}"), d);
            } else if rng.gen_ratio(2, 3) {
                if let Some((t, c)) = rows.first() {
                    d.add(t.clone(), -c);
                }
                deltas.insert(format!("R{i}"), d);
            }
            old.insert(format!("R{i}"), (schema(i), rows.into_iter().collect()));
        }
        let dv = equation6_delta(&view.query, &old, &deltas).expect("well-formed");
        assert_eq!(dv.cols, view.output_cols(), "case {case}");
        assert_eq!(dv.rows, recompute_diff(&view, &old, &deltas), "case {case} ({n} relations)");
    }
}

/// An empty delta map yields an empty ΔV.
#[test]
fn equation6_no_change_is_empty() {
    let mut rng = Rng::new(0xE6_0517);
    for case in 0..32 {
        let view = view(3);
        let mut old: HashMap<String, (Schema, ZSet)> = HashMap::new();
        for i in 0..3 {
            let rows = rel_rows(&mut rng);
            old.insert(format!("R{i}"), (schema(i), rows.into_iter().collect()));
        }
        let dv = equation6_delta(&view.query, &old, &HashMap::new()).expect("well-formed");
        assert!(dv.rows.is_empty(), "case {case}");
    }
}
