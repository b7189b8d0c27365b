//! Differential property tests for the Z-set execution core: the weighted
//! delta algebra (`ZSet`) must satisfy its group laws with zero-weight
//! cancellation as a type invariant, the delta-only operators must agree
//! exactly with naive reference evaluation, and SWEEP maintenance through
//! the algebraic seed/compensation pipeline must reproduce a full recompute
//! of the view — bit-identically on the indexed and scan execution paths —
//! through seeded trains of concurrent data updates.
//!
//! Cases are drawn from the in-repo seeded PRNG (`dyno::sim::Rng`), so every
//! run replays the same case set and a failure is reproducible.

use std::collections::BTreeMap;

use dyno::prelude::*;
use dyno::relational::{delta_join, distinct_delta, eval, ZSet};
use dyno::sim::{build_testbed, Rng};
use dyno::view::sweep_maintain;

/// A random signed bag over 2-column integer tuples: narrow value range so
/// merges actually collide, signed weights so cancellation actually fires.
fn random_zset(rng: &mut Rng) -> ZSet {
    let mut z = ZSet::new();
    for _ in 0..rng.gen_range(0..20usize) {
        let t = Tuple::of([rng.gen_range(0..5i64), rng.gen_range(0..4i64)]);
        let mut w = rng.gen_range(-3..4i64);
        if w == 0 {
            w = 1;
        }
        z.add(t, w);
    }
    z
}

/// The type invariant: no reachable `ZSet` holds a zero-weight entry.
fn assert_no_zero_weights(z: &ZSet, ctx: &str) {
    for (t, w) in z.iter() {
        assert_ne!(w, 0, "{ctx}: zero-weight entry for {t:?} survived");
    }
}

fn merged(a: &ZSet, b: &ZSet) -> ZSet {
    let mut out = a.clone();
    out.merge(b);
    out
}

/// The commutative-group laws of (ZSet, merge, negated) plus the fused and
/// derived operations, all checked for the cancellation invariant.
#[test]
fn zset_group_laws_hold_with_cancellation_invariant() {
    let mut rng = Rng::new(0x025E_7A16);
    for case in 0..200 {
        let (a, b, c) = (random_zset(&mut rng), random_zset(&mut rng), random_zset(&mut rng));

        let ab = merged(&a, &b);
        assert_eq!(ab, merged(&b, &a), "case {case}: merge commutes");
        assert_eq!(merged(&ab, &c), merged(&a, &merged(&b, &c)), "case {case}: merge associates");
        assert_eq!(a.negated().negated(), a, "case {case}: negation is an involution");
        assert!(merged(&a, &a.negated()).is_empty(), "case {case}: a + (−a) cancels to ∅");

        let mut fused = a.clone();
        fused.merge_negated(&b);
        assert_eq!(fused, merged(&a, &b.negated()), "case {case}: merge_negated ≡ merge∘negated");

        let d = a.diff(&b);
        assert_eq!(merged(&d, &b), a, "case {case}: (a − b) + b round-trips");

        for (name, z) in
            [("merge", &ab), ("negated", &a.negated()), ("merge_negated", &fused), ("diff", &d)]
        {
            assert_no_zero_weights(z, &format!("case {case} {name}"));
        }

        let dist = a.distinct();
        assert!(dist.iter().all(|(_, w)| w == 1), "case {case}: distinct weights are 1");
        assert_eq!(dist.distinct(), dist, "case {case}: distinct is idempotent");
    }
}

/// The reference model of a Z-set: an ordered map with every zero-weight
/// entry removed.
type Model = BTreeMap<Tuple, i64>;

fn model_add(m: &mut Model, t: Tuple, c: i64) {
    let w = m.entry(t.clone()).or_insert(0);
    *w += c;
    if *w == 0 {
        m.remove(&t);
    }
}

/// A 3-column row over narrow ranges, so adds collide and cancel.
fn random_row(rng: &mut Rng) -> Tuple {
    Tuple::of([rng.gen_range(0..6i64), rng.gen_range(0..40i64), rng.gen_range(0..3i64)])
}

/// The hashed `ZSet` against an ordered-map reference over random traces of
/// every mutating operation. Bursts of a few hundred adds (and the deletes
/// that cancel them) grow and empty the tables, so equal sets are compared
/// across different table capacities and insertion histories. After every
/// step the set's sorted entries, sizes, sums and probes must equal the
/// model's.
#[test]
fn hashed_zset_equals_an_ordered_reference_model() {
    let mut rng = Rng::new(0x4A54_ED00);
    for trace in 0..40 {
        let mut sets: Vec<(ZSet, Model)> = (0..3).map(|_| (ZSet::new(), Model::new())).collect();
        for step in 0..120 {
            let (i, j) = (rng.gen_range(0..3usize), rng.gen_range(0..3usize));
            let other = sets[j].clone();
            let (z, m) = &mut sets[i];
            let op = rng.gen_range(0..9u32);
            match op {
                0 | 1 => {
                    let n = if rng.gen_ratio(1, 8) { rng.gen_range(100..400usize) } else { 1 };
                    for _ in 0..n {
                        let (t, c) = (random_row(&mut rng), *rng.choose(&[-2, -1, 1, 1, 2]));
                        assert_eq!(z.add(t.clone(), c), m.get(&t).copied().unwrap_or(0) + c);
                        model_add(m, t, c);
                    }
                }
                2 => {
                    z.merge(&other.0);
                    other.1.iter().for_each(|(t, &c)| model_add(m, t.clone(), c));
                }
                3 => {
                    z.merge_negated(&other.0);
                    other.1.iter().for_each(|(t, &c)| model_add(m, t.clone(), -c));
                }
                4 => {
                    *z = z.negated();
                    m.values_mut().for_each(|c| *c = -*c);
                }
                5 => {
                    *z = z.diff(&other.0);
                    other.1.iter().for_each(|(t, &c)| model_add(m, t.clone(), -c));
                }
                6 => {
                    // Only full-width rows project; a projected set is
                    // replaced rather than projected again.
                    let choices: [&[usize]; 5] = [&[0], &[2, 0], &[1, 2], &[0, 1, 2], &[]];
                    let indices = *rng.choose(&choices);
                    if m.keys().all(|t| t.arity() == 3) {
                        *z = z.project(indices);
                        let mut p = Model::new();
                        m.iter().for_each(|(t, &c)| model_add(&mut p, t.project(indices), c));
                        *m = p;
                    }
                }
                7 => {
                    *z = z.distinct();
                    m.retain(|_, c| *c > 0);
                    m.values_mut().for_each(|c| *c = 1);
                }
                _ => {
                    let want: u64 = m.values().filter(|&&c| c < 0).map(|c| c.unsigned_abs()).sum();
                    assert_eq!(z.clamp_non_negative(), want, "trace {trace} step {step}: clamp");
                    m.retain(|_, c| *c > 0);
                }
            }
            let ctx = format!("trace {trace} step {step} op {op}");
            let want: Vec<(Tuple, i64)> = m.iter().map(|(t, &c)| (t.clone(), c)).collect();
            assert_eq!(z.sorted_entries(), want, "{ctx}: entries");
            assert_eq!(z.distinct_len(), m.len(), "{ctx}: distinct_len");
            assert_eq!(z.weight(), m.values().map(|c| c.unsigned_abs()).sum::<u64>(), "{ctx}");
            assert_eq!(z.net(), m.values().sum::<i64>(), "{ctx}: net");
            assert_eq!(z.is_non_negative(), m.values().all(|&c| c > 0), "{ctx}");
            for _ in 0..4 {
                let t = random_row(&mut rng);
                assert_eq!(z.count(&t), m.get(&t).copied().unwrap_or(0), "{ctx}: count {t}");
            }
            assert_no_zero_weights(z, &ctx);
            let rebuilt: ZSet = want.into_iter().rev().collect();
            assert_eq!(*z, rebuilt, "{ctx}: equality ignores insertion history");
            assert_eq!(format!("{z:?}"), format!("{rebuilt:?}"), "{ctx}: Debug");
        }
    }
}

/// `delta_join` against a naive nested-loop reference over random signed
/// bags, and `distinct_delta` against the recompute identity
/// `distinct(base + δ) = distinct(base) + distinct_delta(base, δ)`.
#[test]
fn delta_operators_match_naive_references() {
    let mut rng = Rng::new(0x0D17_A0B5);
    for case in 0..120 {
        let (a, b) = (random_zset(&mut rng), random_zset(&mut rng));

        let fast = delta_join(&a, &[0], &b, &[0]);
        let mut naive = ZSet::new();
        for (ta, wa) in a.iter() {
            for (tb, wb) in b.iter() {
                if ta.get(0) == tb.get(0) {
                    let vals: Vec<Value> =
                        ta.values().iter().chain(tb.values().iter()).cloned().collect();
                    naive.add(Tuple::new(vals), wa * wb);
                }
            }
        }
        assert_eq!(fast, naive, "case {case}: delta_join ≡ nested loop");
        assert_no_zero_weights(&fast, &format!("case {case} delta_join"));

        let (base, delta) = (random_zset(&mut rng), random_zset(&mut rng));
        let incr = merged(&base.distinct(), &distinct_delta(&base, &delta));
        assert_eq!(
            incr,
            merged(&base, &delta).distinct(),
            "case {case}: distinct_delta tracks support crossings"
        );
    }
}

/// A random insert against one testbed relation (key drawn past the seeded
/// range half the time, so some updates join and some don't), or a delete
/// of a row that currently exists.
fn random_testbed_du(
    cfg: &TestbedConfig,
    space: &SourceSpace,
    rng: &mut Rng,
) -> (SourceId, DataUpdate) {
    let rel = rng.gen_range(0..cfg.relation_count());
    let name = format!("R{rel}");
    let sid = space.locate(&name).expect("testbed relation");
    let schema = cfg.schema(rel);
    let extent = space.server(sid).catalog().get(&name).expect("testbed relation");
    if rng.gen_range(0..3u32) > 0 || extent.rows().is_empty() {
        let mut vals = vec![Value::from(rng.gen_range(0..2 * cfg.tuples_per_relation as i64))];
        for _ in 1..schema.arity() {
            vals.push(Value::from(rng.gen_range(0..1_000i64)));
        }
        (sid, DataUpdate::new(Delta::inserts(schema, [Tuple::new(vals)]).expect("testbed schema")))
    } else {
        let tuples: Vec<Tuple> = extent.rows().iter().map(|(t, _)| t.clone()).collect();
        let victim = tuples[rng.gen_range(0..tuples.len())].clone();
        (sid, DataUpdate::new(Delta::deletes(schema, [victim]).expect("testbed schema")))
    }
}

/// The tentpole differential: maintaining a train of data updates through
/// the algebraic seed → delta-join → compensation pipeline leaves the
/// materialized extent equal to a full recompute after every single update,
/// and the maintained deltas are byte-identical between the indexed and the
/// scan execution paths.
#[test]
fn delta_maintenance_matches_full_recompute_through_du_trains() {
    let mut rng = Rng::new(0x025E_7D1F);
    for case in 0..8 {
        let cfg = TestbedConfig {
            tuples_per_relation: 30,
            seed: 0x5EED + case as u64,
            ..Default::default()
        };
        let scan_cfg = TestbedConfig { indexes: false, ..cfg };
        let (mut space, view) = build_testbed(&cfg);
        let (mut scan_space, _) = build_testbed(&scan_cfg);
        let cols = view.output_cols();
        let mut mv = MaterializedView::new("Testbed", cols.clone());
        mv.replace(cols.clone(), eval(&view.query, &space.provider()).expect("testbed view").rows)
            .expect("initial extent is non-negative");

        for step in 0..10 {
            let (sid, du) = random_testbed_du(&cfg, &space, &mut rng);
            let msg = space.commit(sid, SourceUpdate::Data(du.clone())).expect("valid DU");
            let scan_msg =
                scan_space.commit(sid, SourceUpdate::Data(du)).expect("valid DU on scan twin");
            assert_eq!(msg.id, scan_msg.id, "case {case}.{step}: twins stay in lockstep");

            let mut port = InProcessPort::new(space.clone());
            let delta =
                sweep_maintain(&view, &msg, &[], &mut port).0.expect("testbed DU maintains");
            let mut scan_port = InProcessPort::new(scan_space.clone());
            let scan_delta = sweep_maintain(&view, &scan_msg, &[], &mut scan_port)
                .0
                .expect("testbed DU maintains on scan path");
            assert_eq!(delta, scan_delta, "case {case}.{step}: indexed ≡ scan, bit-identical");

            mv.apply_delta(&cols, &delta.rows).expect("maintained extent stays non-negative");
            let recomputed = eval(&view.query, &space.provider()).expect("testbed view");
            assert_eq!(
                *mv.extent(),
                recomputed.rows,
                "case {case}.{step}: maintained extent ≡ full recompute"
            );
        }
    }
}

/// SWEEP compensation as Z-set algebra: commit a batch of concurrent
/// updates first (so every maintenance query already sees all of them),
/// then maintain them in commit order with the not-yet-applied suffix as
/// the pending set. The compensation terms must remove exactly the
/// concurrent effects: after the whole batch the extent equals a full
/// recompute.
#[test]
fn algebraic_compensation_converges_on_concurrent_batches() {
    let mut rng = Rng::new(0xC0_3B5A7E);
    for case in 0..10 {
        let cfg = TestbedConfig {
            tuples_per_relation: 25,
            seed: 0xFACE + case as u64,
            ..Default::default()
        };
        let (mut space, view) = build_testbed(&cfg);
        let cols = view.output_cols();
        let mut mv = MaterializedView::new("Testbed", cols.clone());
        mv.replace(cols.clone(), eval(&view.query, &space.provider()).expect("testbed view").rows)
            .expect("initial extent is non-negative");

        let k = rng.gen_range(2..6usize);
        let mut msgs = Vec::new();
        for _ in 0..k {
            let (sid, du) = random_testbed_du(&cfg, &space, &mut rng);
            msgs.push(space.commit(sid, SourceUpdate::Data(du)).expect("valid DU"));
        }

        for i in 0..k {
            let pending: Vec<UpdateMessage> = msgs[i + 1..].to_vec();
            let mut port = InProcessPort::new(space.clone());
            let delta = sweep_maintain(&view, &msgs[i], &pending, &mut port)
                .0
                .expect("testbed DU maintains");
            mv.apply_delta(&cols, &delta.rows)
                .unwrap_or_else(|e| panic!("case {case} update {i}: extent went negative: {e}"));
        }
        let recomputed = eval(&view.query, &space.provider()).expect("testbed view");
        assert_eq!(
            *mv.extent(),
            recomputed.rows,
            "case {case}: compensated batch ≡ full recompute"
        );
    }
}
