//! Randomized tests for the bag algebra underlying incremental maintenance:
//! the identity `(R + Δ) ⋈ S = R ⋈ S + Δ ⋈ S` and its supporting laws are
//! what make SWEEP compensation and Equation 6 correct.

use dyno::prelude::*;
use dyno::relational::ZSet;
use dyno::sim::Rng;
use dyno::view::LocalProvider;

fn r_schema() -> Schema {
    Schema::of("R", &[("k", AttrType::Int), ("a", AttrType::Int)])
}

fn s_schema() -> Schema {
    Schema::of("S", &[("k", AttrType::Int), ("b", AttrType::Int)])
}

/// A small signed bag of (k, v) tuples with keys in a narrow range so joins
/// actually match; multiplicities span `-max_count..=max_count`.
fn signed_rows(rng: &mut Rng, max_count: i64) -> Vec<(Tuple, i64)> {
    let n = rng.gen_range(0..12usize);
    (0..n)
        .map(|_| {
            let k = rng.gen_range(0..6i64);
            let v = rng.gen_range(0..4i64);
            let c = rng.gen_range(-max_count..max_count + 1);
            (Tuple::of([k, v]), c)
        })
        .collect()
}

fn bag_of(rows: &[(Tuple, i64)]) -> ZSet {
    rows.iter().cloned().collect()
}

/// Non-negative bag (a relation state).
fn relation_rows(rng: &mut Rng) -> Vec<(Tuple, i64)> {
    signed_rows(rng, 3).into_iter().map(|(t, c)| (t, c.abs())).collect()
}

fn join_query() -> SpjQuery {
    SpjQuery::over(["R", "S"])
        .select("R", "a")
        .select("S", "b")
        .join_eq(("R", "k"), ("S", "k"))
        .build()
}

fn eval_rs(r: ZSet, s: ZSet) -> ZSet {
    let mut p = LocalProvider::new();
    p.insert(r_schema(), r);
    p.insert(s_schema(), s);
    dyno::relational::eval(&join_query(), &p).expect("well-typed join").rows
}

/// merge/diff are inverse; negation cancels.
#[test]
fn merge_diff_inverse() {
    let mut rng = Rng::new(0xBA6_0517);
    for case in 0..96 {
        let a = bag_of(&signed_rows(&mut rng, 4));
        let b = bag_of(&signed_rows(&mut rng, 4));
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.diff(&b), a.clone(), "case {case}");
        let mut z = a.clone();
        z.merge(&a.negated());
        assert!(z.is_empty(), "case {case}");
    }
}

/// merge is commutative and associative.
#[test]
fn merge_commutative_associative() {
    let mut rng = Rng::new(0xBA6_1517);
    for case in 0..96 {
        let a = bag_of(&signed_rows(&mut rng, 4));
        let b = bag_of(&signed_rows(&mut rng, 4));
        let c = bag_of(&signed_rows(&mut rng, 4));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(&ab, &ba, "case {case}");
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "case {case}");
    }
}

/// The incremental-maintenance identity: (R + Δ) ⋈ S = R ⋈ S + Δ ⋈ S.
#[test]
fn join_distributes_over_delta() {
    let mut rng = Rng::new(0xBA6_2517);
    for case in 0..96 {
        let r = bag_of(&relation_rows(&mut rng));
        let delta = bag_of(&signed_rows(&mut rng, 2));
        let s = bag_of(&relation_rows(&mut rng));
        let mut r_plus = r.clone();
        r_plus.merge(&delta);
        let full = eval_rs(r_plus, s.clone());
        let mut incremental = eval_rs(r, s.clone());
        incremental.merge(&eval_rs(delta, s));
        assert_eq!(full, incremental, "case {case}");
    }
}

/// Projection is linear: π(A + B) = π(A) + π(B).
#[test]
fn projection_linear() {
    let mut rng = Rng::new(0xBA6_3517);
    for case in 0..96 {
        let a = bag_of(&signed_rows(&mut rng, 3));
        let b = bag_of(&signed_rows(&mut rng, 3));
        let mut sum = a.clone();
        sum.merge(&b);
        let lhs = sum.project(&[0]);
        let mut rhs = a.project(&[0]);
        rhs.merge(&b.project(&[0]));
        assert_eq!(lhs, rhs, "case {case}");
    }
}

/// Applying a delta to a relation then diffing recovers the delta's effect
/// (Relation::diff is the inverse of Relation::apply).
#[test]
fn relation_diff_recovers_apply() {
    let mut rng = Rng::new(0xBA6_4517);
    for case in 0..96 {
        let base = relation_rows(&mut rng);
        let extra = relation_rows(&mut rng);
        let old = Relation::from_tuples(
            r_schema(),
            base.iter().flat_map(|(t, c)| std::iter::repeat_n(t.clone(), *c as usize)),
        )
        .expect("well-typed");
        let delta = Delta::from_rows(r_schema(), extra.iter().cloned()).expect("well-typed");
        let mut new = old.clone();
        new.apply(&delta).expect("pure inserts always apply");
        let recovered = Relation::diff(&old, &new);
        assert_eq!(recovered.rows(), delta.rows(), "case {case}");
    }
}

/// Query evaluation commutes with overlay binding: binding Δ in place of R
/// equals evaluating with R replaced by Δ.
#[test]
fn overlay_equals_substitution() {
    let mut rng = Rng::new(0xBA6_5517);
    for case in 0..96 {
        let delta = bag_of(&signed_rows(&mut rng, 2));
        let s = bag_of(&relation_rows(&mut rng));
        // Path 1: LocalProvider with delta as R directly.
        let direct = eval_rs(delta.clone(), s.clone());
        // Path 2: bound table overlaying a base provider that has R and S.
        let mut base = LocalProvider::new();
        base.insert(r_schema(), ZSet::new());
        base.insert(s_schema(), s);
        let bound = dyno::view::BoundTable {
            name: "R".into(),
            cols: vec!["k".into(), "a".into()],
            rows: delta,
        };
        let via_overlay =
            dyno::view::eval_with_bound(&base, &join_query(), &[bound]).expect("well-typed").rows;
        assert_eq!(direct, via_overlay, "case {case}");
    }
}
