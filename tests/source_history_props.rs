//! The log is the history: for seeded random histories over all seven
//! `SchemaChange` variants interleaved with inserts and deletes, every
//! version `SourceServer::state_at` reconstructs (by rewinding the current
//! catalog through inverses derived from the log) equals the state a forward
//! replay from version 0 passed through — relations, schemas and attribute
//! order included. Refused commits leave history untouched, and the future
//! stays unknowable.
//!
//! Cases come from the in-repo seeded PRNG, so every run replays the same
//! histories and a failure names its case.

use dyno::prelude::*;
use dyno::sim::Rng;

const CASES: u64 = 48;
const STEPS: usize = 36;

/// A fresh name per call: histories never reuse a relation or attribute
/// name, so a rename or create can only collide when the test means it to.
struct Names(u32);

impl Names {
    fn next(&mut self, prefix: &str) -> String {
        self.0 += 1;
        format!("{prefix}{}", self.0)
    }
}

fn random_row(rng: &mut Rng, schema: &Schema) -> Tuple {
    Tuple::new(
        schema
            .attrs()
            .iter()
            .map(|a| match a.ty {
                AttrType::Str => Value::str(format!("s{}", rng.gen_range(0..4u32))),
                _ => Value::from(rng.gen_range(0..6i64)),
            })
            .collect(),
    )
}

fn random_relation(rng: &mut Rng, names: &mut Names) -> Relation {
    let cols: Vec<Attribute> = (0..rng.gen_range(1..4usize))
        .map(|_| {
            let ty = if rng.gen_ratio(1, 3) { AttrType::Str } else { AttrType::Int };
            Attribute::new(names.next("a"), ty)
        })
        .collect();
    let schema = Schema::new(names.next("R"), cols).expect("fresh attribute names");
    let rows: Vec<Tuple> =
        (0..rng.gen_range(0..6usize)).map(|_| random_row(rng, &schema)).collect();
    Relation::from_tuples(schema, rows).expect("rows drawn from the schema")
}

/// One random update against the server's *current* catalog. Most are
/// valid; the caller learns which from `commit`.
fn random_update(rng: &mut Rng, names: &mut Names, catalog: &Catalog) -> SourceUpdate {
    let relations: Vec<&str> = catalog.relation_names().collect();
    if relations.is_empty() {
        return SourceUpdate::Schema(SchemaChange::CreateRelation {
            schema: random_relation(rng, names).schema().clone(),
        });
    }
    let relation = rng.choose(&relations).to_string();
    let rel = catalog.get(&relation).expect("listed");
    let schema = rel.schema().clone();
    // A relation whose every attribute was dropped names a missing one.
    let attr = match schema.attrs() {
        [] => "none".to_string(),
        attrs => rng.choose(attrs).name.clone(),
    };
    let sc = match rng.gen_range(0..14u32) {
        0..=3 => {
            let delta = Delta::inserts(schema.clone(), [random_row(rng, &schema)]);
            return SourceUpdate::Data(DataUpdate::new(delta.expect("typed row")));
        }
        4 | 5 => {
            // Delete a stored row when there is one; otherwise (or one time
            // in five) a row that may be absent — a commit the source must
            // refuse.
            let stored: Vec<Tuple> = rel.rows().iter().map(|(t, _)| t.clone()).collect();
            let row = if stored.is_empty() || rng.gen_ratio(1, 5) {
                random_row(rng, &schema)
            } else {
                rng.choose(&stored).clone()
            };
            let delta = Delta::deletes(schema, [row]).expect("typed row");
            return SourceUpdate::Data(DataUpdate::new(delta));
        }
        6 => SchemaChange::RenameRelation { from: relation, to: names.next("R") },
        7 => SchemaChange::RenameAttribute { relation, from: attr, to: names.next("a") },
        8 => SchemaChange::AddAttribute {
            relation,
            attr: Attribute::new(names.next("a"), AttrType::Int),
            default: Value::from(rng.gen_range(0..3i64)),
        },
        9 => SchemaChange::DropAttribute { relation, attr },
        10 => SchemaChange::DropRelation { relation },
        11 => SchemaChange::CreateRelation { schema: random_relation(rng, names).schema().clone() },
        12 => {
            // Replace up to two relations; sometimes under a dropped name.
            let mut dropped = vec![relation];
            let other = rng.choose(&relations).to_string();
            if !dropped.contains(&other) && rng.gen_ratio(1, 2) {
                dropped.push(other);
            }
            if rng.gen_ratio(1, 4) {
                dropped.clear(); // a pure create-with-extent
            }
            let mut replacement = random_relation(rng, names);
            if !dropped.is_empty() && rng.gen_ratio(1, 3) {
                let rows: Vec<Tuple> = replacement.rows().iter().map(|(t, _)| t.clone()).collect();
                let schema = replacement.schema().renamed(dropped[0].clone());
                replacement = Relation::from_tuples(schema, rows).expect("same rows");
            }
            SchemaChange::ReplaceRelations { dropped, replacement: Box::new(replacement) }
        }
        // Refused: the target exists, or the relation does not.
        _ => {
            if rng.gen_ratio(1, 2) {
                let onto = rng.choose(&relations).to_string();
                SchemaChange::RenameRelation { from: relation, to: onto }
            } else {
                SchemaChange::DropRelation { relation: "Ghost".into() }
            }
        }
    };
    SourceUpdate::Schema(sc)
}

fn initial_catalog(rng: &mut Rng, names: &mut Names) -> Catalog {
    let mut catalog = Catalog::new();
    for _ in 0..rng.gen_range(1..4usize) {
        catalog.add_relation(random_relation(rng, names)).expect("fresh names");
    }
    catalog
}

/// Every version the forward replay passes through, from the test's own
/// copy of version 0.
fn forward_replay(v0: &Catalog, server: &SourceServer) -> Vec<Catalog> {
    let mut states = vec![v0.clone()];
    let mut replay = v0.clone();
    for entry in server.log() {
        replay.apply_update(&entry.update).expect("a committed update replays");
        states.push(replay.clone());
    }
    states
}

fn assert_history(case: u64, v0: &Catalog, server: &SourceServer) {
    let expected = forward_replay(v0, server);
    assert_eq!(expected.len() as u64, server.version() + 1);
    for (v, want) in expected.iter().enumerate() {
        let got = server.state_at(v as u64).unwrap_or_else(|e| panic!("case {case} v{v}: {e}"));
        assert_eq!(&got, want, "case {case}: state_at({v}) of {}", server.version());
        // Catalog equality is over relations; schemas (attribute names,
        // types, order) are part of a relation, but say so explicitly.
        for name in want.relation_names() {
            assert_eq!(
                got.get(name).expect("equal catalogs").schema(),
                want.get(name).expect("listed").schema(),
                "case {case}: schema of {name} at v{v}"
            );
        }
    }
    assert!(server.state_at(server.version() + 1).is_err(), "case {case}: the future");
}

#[test]
fn every_version_equals_the_forward_replay() {
    let (mut kinds, mut refused) = ([0u32; 8], 0u32);
    for case in 0..CASES {
        let mut rng = Rng::new(0x4157_0000 + case);
        let mut names = Names(0);
        let v0 = initial_catalog(&mut rng, &mut names);
        let mut server = SourceServer::new(SourceId(0), "s", v0.clone());
        for step in 0..STEPS {
            let update = random_update(&mut rng, &mut names, server.catalog());
            let kind = match &update {
                SourceUpdate::Data(_) => 0,
                SourceUpdate::Schema(sc) => match sc {
                    SchemaChange::RenameRelation { .. } => 1,
                    SchemaChange::RenameAttribute { .. } => 2,
                    SchemaChange::AddAttribute { .. } => 3,
                    SchemaChange::DropAttribute { .. } => 4,
                    SchemaChange::DropRelation { .. } => 5,
                    SchemaChange::CreateRelation { .. } => 6,
                    SchemaChange::ReplaceRelations { .. } => 7,
                },
            };
            let (version, log_len) = (server.version(), server.log().len());
            let current = server.catalog().clone();
            match server.commit(update) {
                Ok(v) => {
                    assert_eq!(v, version + 1);
                    kinds[kind] += 1;
                }
                Err(_) => {
                    // A refused commit changes neither state nor history.
                    refused += 1;
                    assert_eq!(server.version(), version, "case {case} step {step}");
                    assert_eq!(server.log().len(), log_len, "case {case} step {step}");
                    assert_eq!(server.catalog(), &current, "case {case} step {step}");
                    assert_eq!(server.state_at(version).unwrap(), current);
                }
            }
            // Mid-history audits, not only at the end: what a later
            // destructive change pins must not disturb earlier versions.
            if step % 12 == 11 {
                assert_history(case, &v0, &server);
            }
        }
        assert_history(case, &v0, &server);
    }
    assert!(kinds.iter().all(|&n| n >= 10), "every kind of update committed often: {kinds:?}");
    assert!(refused >= 10, "refused commits were exercised: {refused}");
}

/// Rewinding restores a relation's rows under the names it had then: a DU
/// logged before a rename chain is undone against the renamed-back relation.
#[test]
fn rewind_crosses_renames_with_rows_in_between() {
    let r = Relation::from_tuples(
        Schema::of("R", &[("k", AttrType::Int), ("v", AttrType::Int)]),
        [Tuple::of([1i64, 10])],
    )
    .unwrap();
    let mut v0 = Catalog::new();
    v0.add_relation(r).unwrap();
    let mut s = SourceServer::new(SourceId(0), "s", v0.clone());
    let insert = |s: &mut SourceServer, name: &str, k: i64| {
        let schema = s.catalog().get(name).unwrap().schema().clone();
        let delta = Delta::inserts(schema, [Tuple::of([k, k * 10])]).unwrap();
        s.commit(SourceUpdate::Data(DataUpdate::new(delta))).unwrap();
    };
    let rename = |s: &mut SourceServer, from: &str, to: &str| {
        s.commit(SourceUpdate::Schema(SchemaChange::RenameRelation {
            from: from.into(),
            to: to.into(),
        }))
        .unwrap();
    };
    insert(&mut s, "R", 2);
    rename(&mut s, "R", "S");
    insert(&mut s, "S", 3);
    rename(&mut s, "S", "T");
    insert(&mut s, "T", 4);
    assert_history(0, &v0, &s);
    assert_eq!(s.state_at(3).unwrap().get("S").unwrap().len(), 3);
    assert_eq!(s.state_at(1).unwrap().get("R").unwrap().len(), 2);
}
