//! Differential property tests for the indexed execution engine: secondary
//! hash indexes, the index-aware planner, and the per-view plan cache must
//! be *invisible* — evaluation over an indexed catalog returns exactly what
//! the naive scan evaluator returns (bag multiplicities included), and
//! indexes stay in lockstep with their relations through data updates and
//! DDL trains.
//!
//! Cases are drawn from the in-repo seeded PRNG (`dyno::sim::Rng`), so every
//! run replays the same case set and a failure is reproducible.

use dyno::prelude::*;
use dyno::relational::{eval, HashIndex};
use dyno::sim::Rng;
use dyno::view::{sweep_maintain, sweep_maintain_shared, InProcessPort, Pending, PlanCache};

/// A relation with key `k` plus `extra` integer attributes, populated with
/// random duplicate-bearing rows over a narrow key range so joins match.
fn random_relation(name: &str, extra: usize, rng: &mut Rng) -> Relation {
    let mut cols = vec![("k".to_string(), AttrType::Int)];
    for i in 0..extra {
        cols.push((format!("a{i}"), AttrType::Int));
    }
    let borrowed: Vec<(&str, AttrType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let mut rel = Relation::empty(Schema::of(name, &borrowed));
    for _ in 0..rng.gen_range(0..25usize) {
        let mut vals = vec![Value::from(rng.gen_range(0..6i64))];
        for _ in 0..extra {
            vals.push(Value::from(rng.gen_range(0..4i64)));
        }
        rel.insert(Tuple::new(vals)).expect("generated tuples are well-typed");
    }
    rel
}

/// A plain catalog and an identical-content clone carrying key indexes
/// (plus, sometimes, a non-key index).
fn random_catalogs(rng: &mut Rng) -> (Catalog, Catalog) {
    let mut plain = Catalog::new();
    for (i, name) in ["R", "S", "T"].iter().enumerate() {
        plain.add_relation(random_relation(name, 1 + i % 2, rng)).expect("unique names");
    }
    let mut indexed = plain.clone();
    for name in ["R", "S", "T"] {
        indexed.create_index(name, &["k"]).expect("key attr exists");
    }
    if rng.gen_range(0..2u32) == 1 {
        indexed.create_index("R", &["a0"]).expect("extra attr exists");
    }
    (plain, indexed)
}

/// A chain join over every relation currently in `catalog` on `k`, with a
/// random projection and (usually) a random constant filter — shaped to
/// exercise both the filter-probe and the index-nested-loop paths.
fn random_query(catalog: &Catalog, rng: &mut Rng) -> SpjQuery {
    let names: Vec<String> = catalog.relation_names().map(str::to_string).collect();
    let mut b = SpjQuery::over(names.clone());
    for name in &names {
        for attr in catalog.get(name).expect("listed").schema().attrs() {
            if attr.name == "k" || rng.gen_range(0..2u32) == 0 {
                b = b.select_as(name, &attr.name, &format!("{name}_{}", attr.name));
            }
        }
    }
    for w in names.windows(2) {
        b = b.join_eq((w[0].as_str(), "k"), (w[1].as_str(), "k"));
    }
    if rng.gen_range(0..3u32) > 0 {
        let name = &names[rng.gen_range(0..names.len())];
        b = b.filter(name, "k", CmpOp::Eq, rng.gen_range(0..6i64));
    }
    b.build()
}

/// A random schema change that keeps the catalog joinable on `k`: renames
/// of relations, drops/renames/adds of non-key attributes.
fn random_sc(catalog: &Catalog, rng: &mut Rng, fresh: &mut u32) -> Option<SchemaChange> {
    let names: Vec<String> = catalog.relation_names().map(str::to_string).collect();
    let relation = names[rng.gen_range(0..names.len())].clone();
    let extras: Vec<String> = catalog
        .get(&relation)
        .expect("listed")
        .schema()
        .attrs()
        .iter()
        .map(|a| a.name.clone())
        .filter(|n| n != "k")
        .collect();
    match rng.gen_range(0..4u32) {
        0 => {
            *fresh += 1;
            Some(SchemaChange::RenameRelation { from: relation, to: format!("N{fresh}") })
        }
        1 if !extras.is_empty() => {
            let attr = extras[rng.gen_range(0..extras.len())].clone();
            Some(SchemaChange::DropAttribute { relation, attr })
        }
        2 if !extras.is_empty() => {
            *fresh += 1;
            let from = extras[rng.gen_range(0..extras.len())].clone();
            Some(SchemaChange::RenameAttribute { relation, from, to: format!("x{fresh}") })
        }
        3 => {
            *fresh += 1;
            Some(SchemaChange::AddAttribute {
                relation,
                attr: Attribute::new(format!("x{fresh}"), AttrType::Int),
                default: Value::from(rng.gen_range(0..4i64)),
            })
        }
        _ => None,
    }
}

/// A random insert/delete against one existing relation (deletes target
/// rows that exist, so extents stay non-negative).
fn random_du(catalog: &Catalog, rng: &mut Rng) -> Option<DataUpdate> {
    let names: Vec<String> = catalog.relation_names().map(str::to_string).collect();
    let relation = names[rng.gen_range(0..names.len())].clone();
    let rel = catalog.get(&relation).expect("listed");
    let schema = rel.schema().clone();
    if rng.gen_range(0..3u32) > 0 || rel.rows().is_empty() {
        let mut vals = Vec::new();
        for _ in schema.attrs() {
            vals.push(Value::from(rng.gen_range(0..6i64)));
        }
        Some(DataUpdate::new(Delta::inserts(schema, [Tuple::new(vals)]).expect("well-typed")))
    } else {
        let tuples: Vec<Tuple> = rel.rows().iter().map(|(t, _)| t.clone()).collect();
        let victim = tuples[rng.gen_range(0..tuples.len())].clone();
        Some(DataUpdate::new(Delta::deletes(schema, [victim]).expect("well-typed")))
    }
}

/// Every index the catalog holds must equal a fresh full-scan rebuild over
/// its relation's current extent — "indexed lookups == full scans".
fn assert_indexes_consistent(catalog: &Catalog, ctx: &str) {
    let names: Vec<String> = catalog.relation_names().map(str::to_string).collect();
    for name in &names {
        let rel = catalog.get(name).expect("listed");
        for idx in catalog.indexes_on(name) {
            let rebuilt = HashIndex::build(rel, idx.attrs())
                .unwrap_or_else(|e| panic!("{ctx}: index on {name} covers live attrs: {e}"));
            assert_eq!(
                *idx,
                rebuilt,
                "{ctx}: index on {name}{:?} matches a full scan",
                idx.attrs()
            );
            for (t, c) in rel.rows().iter() {
                let key: Vec<&Value> = idx.cols().iter().map(|&i| t.get(i)).collect();
                let probed: i64 =
                    idx.probe(&key).into_iter().filter(|(pt, _)| *pt == t).map(|(_, pc)| pc).sum();
                assert_eq!(probed, c, "{ctx}: probe on {name} returns the scan multiplicity");
            }
        }
    }
}

/// The tentpole differential: indexed evaluation equals naive evaluation
/// exactly, before and after a random train of schema changes interleaved
/// with data updates applied identically to both catalogs.
#[test]
fn indexed_eval_matches_naive_eval_through_sc_trains() {
    let mut rng = Rng::new(0x1_DEC5);
    for case in 0..40 {
        let (mut plain, mut indexed) = random_catalogs(&mut rng);
        let mut fresh = 0u32;

        let q = random_query(&plain, &mut rng);
        let naive = eval(&q, &plain).expect("query matches generated schema");
        let fast = eval(&q, &indexed).expect("query matches generated schema");
        assert_eq!(naive, fast, "case {case}: pre-SC results identical");

        for step in 0..rng.gen_range(1..5usize) {
            if rng.gen_range(0..2u32) == 0 {
                if let Some(sc) = random_sc(&plain, &mut rng, &mut fresh) {
                    plain.apply_schema_change(&sc).expect("generated SC applies");
                    indexed.apply_schema_change(&sc).expect("generated SC applies");
                }
            } else if let Some(du) = random_du(&plain, &mut rng) {
                plain.apply_data_update(&du).expect("generated DU applies");
                indexed.apply_data_update(&du).expect("generated DU applies");
            }
            assert_eq!(plain, indexed, "case {case}.{step}: same logical content");
            let q = random_query(&plain, &mut rng);
            let naive = eval(&q, &plain).expect("query matches evolved schema");
            let fast = eval(&q, &indexed).expect("query matches evolved schema");
            assert_eq!(naive, fast, "case {case}.{step}: post-update results identical");
        }
    }
}

/// Index maintenance under DDL: after every drop-attribute / rename-relation
/// (and the other attribute-level changes), surviving indexes answer probes
/// exactly as full scans do, and indexes on dropped attributes vanish.
#[test]
fn index_maintenance_survives_ddl_trains() {
    let mut rng = Rng::new(0xDD1_7EA);
    for case in 0..30 {
        let (_, mut catalog) = random_catalogs(&mut rng);
        let mut fresh = 0u32;
        assert_indexes_consistent(&catalog, &format!("case {case} start"));
        for step in 0..rng.gen_range(2..8usize) {
            let ctx = format!("case {case} step {step}");
            if rng.gen_range(0..3u32) == 0 {
                if let Some(du) = random_du(&catalog, &mut rng) {
                    catalog.apply_data_update(&du).expect("generated DU applies");
                }
            } else if let Some(sc) = random_sc(&catalog, &mut rng, &mut fresh) {
                catalog.apply_schema_change(&sc).expect("generated SC applies");
                if let SchemaChange::DropAttribute { relation, attr } = &sc {
                    assert!(
                        catalog.index_covering(relation, &[attr]).is_none(),
                        "{ctx}: index on dropped attribute is gone"
                    );
                }
            }
            assert_indexes_consistent(&catalog, &ctx);
        }
    }
}

/// Plan-cached SWEEP maintenance produces byte-for-byte the same view delta
/// as the uncached path, across repeated data updates against the indexed
/// testbed (cache hits) and across view rewrites (invalidations).
#[test]
fn plan_cached_sweep_matches_uncached_sweep() {
    let mut rng = Rng::new(0x9A5_CACE);
    for case in 0..10 {
        let cfg =
            TestbedConfig { tuples_per_relation: 40, seed: 0x5EED + case, ..Default::default() };
        let (mut space, view) = dyno::sim::build_testbed(&cfg);
        let obs = dyno::obs::Collector::wall();
        let mut cache = PlanCache::new();
        for n in 0..8u64 {
            let rel = rng.gen_range(0..cfg.relation_count());
            let schema = cfg.schema(rel);
            let mut vals = vec![Value::from(rng.gen_range(0..40i64))];
            for _ in 1..schema.arity() {
                vals.push(Value::from(rng.gen_range(0..1_000_000i64)));
            }
            let du = DataUpdate::new(
                Delta::inserts(schema, [Tuple::new(vals)]).expect("testbed schema"),
            );
            let sid = space.locate(&format!("R{rel}")).expect("testbed relation");
            let msg = space.commit(sid, SourceUpdate::Data(du)).expect("valid DU");
            let mut port = InProcessPort::new(space.clone());
            let uncached =
                sweep_maintain(&view, &msg, &[], &mut port).0.expect("testbed DU maintains");
            let mut port = InProcessPort::new(space.clone());
            let pending = Pending::default();
            let (cached, _) =
                sweep_maintain_shared((&view, 0), &msg, pending, &mut port, &mut cache, &obs, None);
            let cached = cached.expect("testbed DU maintains");
            // The cached path returns rows only: its columns are the view's.
            assert_eq!(uncached.cols, view.output_cols(), "case {case} DU {n}: columns identical");
            assert_eq!(uncached.rows, cached, "case {case} DU {n}: deltas identical");
        }
        // After many same-shape DUs the cache must actually be hitting.
        let hits = obs.registry().counter_value("plan.cache_hits").unwrap_or(0);
        assert!(hits > 0, "case {case}: repeated maintenance hits the plan cache");
    }
}
