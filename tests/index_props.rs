//! Property test for `HashIndex` buckets: seeded trains of inserts,
//! deletes and cancelling deltas over a catalog relation with a one- and a
//! two-attribute index, mixed with relation and attribute renames and
//! Add/DropAttribute rebuilds. Keys are drawn from a narrow range and rows
//! repeat, so buckets keep moving between one row and many. After every
//! step, for every index:
//!
//! * `probe(k)` equals a scan of the relation for every key;
//! * `len()` equals the relation's `distinct_len()`;
//! * no bucket holds a zero weight, and an emptied key leaves no bucket;
//! * the maintained index equals a fresh build over the relation.
//!
//! Cases come from the in-repo seeded PRNG (`dyno::sim::Rng`).

use std::collections::BTreeSet;

use dyno::prelude::*;
use dyno::relational::HashIndex;
use dyno::sim::Rng;

const SEEDS: u64 = 40;
const STEPS: usize = 60;

fn row(rng: &mut Rng, arity: usize) -> Tuple {
    Tuple::new(
        (0..arity).map(|i| Value::from(rng.gen_range(0..if i == 0 { 4i64 } else { 3 }))).collect(),
    )
}

/// A delta of random inserts and deletes of present rows; a delete takes
/// part or all of a row's weight, so some rows cancel out of the relation.
fn random_delta(rel: &Relation, rng: &mut Rng) -> Delta {
    let arity = rel.schema().arity();
    let present: Vec<(Tuple, i64)> = rel.rows().iter().map(|(t, c)| (t.clone(), c)).collect();
    let mut rows: Vec<(Tuple, i64)> = Vec::new();
    for _ in 0..rng.gen_range(1..5usize) {
        match rng.gen_range(0..3u32) {
            0 if !present.is_empty() => {
                let (t, c) = &present[rng.gen_range(0..present.len())];
                if !rows.iter().any(|(r, _)| r == t) {
                    rows.push((t.clone(), -rng.gen_range(1..c + 1)));
                }
            }
            _ => {
                let t = row(rng, arity);
                if !rows.iter().any(|(r, _)| *r == t) {
                    rows.push((t, rng.gen_range(1..3i64)));
                }
            }
        }
    }
    Delta::from_rows(rel.schema().clone(), rows).expect("well-typed rows")
}

/// The rows of `rel` whose `cols` equal `key`, as a sorted multiset.
fn scan(rel: &Relation, cols: &[usize], key: &[&Value]) -> Vec<(Tuple, i64)> {
    let mut rows: Vec<(Tuple, i64)> = rel
        .rows()
        .iter()
        .filter(|(t, _)| cols.iter().zip(key).all(|(&i, &v)| t.get(i) == v))
        .map(|(t, c)| (t.clone(), c))
        .collect();
    rows.sort();
    rows
}

/// Checks every index on `name` against its relation; `seen` collects
/// every key an index has held, so emptied keys are probed too.
fn check(catalog: &Catalog, name: &str, seen: &mut BTreeSet<(Vec<String>, Vec<Value>)>, ctx: &str) {
    let rel = catalog.get(name).expect("the relation exists");
    for idx in catalog.indexes_on(name) {
        assert_eq!(idx.len(), rel.rows().distinct_len(), "{ctx}: len of {:?}", idx.attrs());
        let rebuilt = HashIndex::build(rel, idx.attrs()).expect("indexed attrs exist");
        assert_eq!(*idx, rebuilt, "{ctx}: {:?} equals a fresh build", idx.attrs());
        for (t, _) in rel.rows().iter() {
            let key: Vec<Value> = idx.cols().iter().map(|&i| t.get(i).clone()).collect();
            seen.insert((idx.attrs().to_vec(), key));
        }
        let mut bucket_rows = 0;
        for (attrs, key) in seen.iter().filter(|(a, _)| a == idx.attrs()) {
            let key: Vec<&Value> = key.iter().collect();
            let mut probed: Vec<(Tuple, i64)> =
                idx.probe(&key).into_iter().map(|(t, c)| (t.clone(), c)).collect();
            probed.sort();
            let scanned = scan(rel, idx.cols(), &key);
            assert_eq!(probed, scanned, "{ctx}: probe {attrs:?} = {key:?}");
            let bucket = idx.lookup(&key);
            assert!(bucket.iter().all(|&(_, c)| c != 0), "{ctx}: zero weight under {key:?}");
            if scanned.is_empty() {
                assert!(bucket.is_empty(), "{ctx}: emptied key {key:?} left a bucket");
            }
            bucket_rows += bucket.len();
        }
        assert_eq!(bucket_rows, idx.len(), "{ctx}: every indexed row sits under a live key");
    }
}

#[test]
fn buckets_follow_their_relation_through_update_and_ddl_trains() {
    let mut moved = (0usize, 0usize);
    for seed in 0..SEEDS {
        let mut rng = Rng::new(seed);
        let mut catalog = Catalog::new();
        catalog
            .create(Schema::of(
                "R",
                &[("k", AttrType::Int), ("j", AttrType::Int), ("v", AttrType::Int)],
            ))
            .expect("fresh catalog");
        catalog.create_index("R", &["k"]).expect("k exists");
        catalog.create_index("R", &["j", "k"]).expect("j, k exist");
        let mut seen = BTreeSet::new();
        let mut extra = 0;
        let mut name = "R";
        for step in 0..STEPS {
            let ctx = format!("seed {seed} step {step}");
            let schema = catalog.get(name).expect("relation").schema().clone();
            let sc = match rng.gen_range(0..13u32) {
                0 => {
                    let (from, to) = if schema.has_attr("k") { ("k", "k2") } else { ("k2", "k") };
                    seen.clear();
                    Some(SchemaChange::RenameAttribute {
                        relation: name.into(),
                        from: from.into(),
                        to: to.into(),
                    })
                }
                1 => {
                    extra += 1;
                    Some(SchemaChange::AddAttribute {
                        relation: name.into(),
                        attr: Attribute::new(format!("x{extra}"), AttrType::Int),
                        default: Value::from(rng.gen_range(0..2i64)),
                    })
                }
                2 => schema.attrs().iter().find(|a| a.name.starts_with('x')).map(|a| {
                    seen.clear();
                    SchemaChange::DropAttribute { relation: name.into(), attr: a.name.clone() }
                }),
                3 => {
                    let to = if name == "R" { "S" } else { "R" };
                    let sc = SchemaChange::RenameRelation { from: name.into(), to: to.into() };
                    name = to;
                    Some(sc)
                }
                _ => None,
            };
            match sc {
                Some(sc) => catalog.apply_schema_change(&sc).expect("valid change"),
                None => {
                    let delta = random_delta(catalog.get(name).expect("relation"), &mut rng);
                    let before: Vec<usize> =
                        catalog.indexes_on(name).iter().map(HashIndex::len).collect();
                    catalog.apply_data_update(&DataUpdate::new(delta)).expect("applies");
                    let after = catalog.indexes_on(name).iter().map(HashIndex::len);
                    for (b, a) in before.iter().zip(after) {
                        if a > *b {
                            moved.0 += 1;
                        } else if a < *b {
                            moved.1 += 1;
                        }
                    }
                }
            }
            assert_eq!(catalog.indexes_on(name).len(), 2, "{ctx}: no index key was dropped");
            check(&catalog, name, &mut seen, &ctx);
        }
    }
    assert!(
        moved.0 > 100 && moved.1 > 100,
        "indexes grew {} and shrank {} times",
        moved.0,
        moved.1
    );
}
