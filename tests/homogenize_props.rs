//! Randomized test for Section-5 update homogenization: applying a delta
//! and then a schema-change sequence to a relation equals applying the
//! sequence first and then the *homogenized* delta —
//! `changes(R ⊎ Δ) = changes(R) ⊎ homogenize(Δ, changes)`.

use dyno::prelude::*;
use dyno::sim::Rng;
use dyno::view::homogenize_delta;

fn base_relation() -> Relation {
    Relation::from_tuples(
        Schema::of("T", &[("a", AttrType::Int), ("b", AttrType::Int), ("c", AttrType::Int)]),
        [Tuple::of([1i64, 2, 3]), Tuple::of([4i64, 5, 6])],
    )
    .expect("static fixture")
}

/// A consistent schema-change walk over `T` (renames, drops, adds), plus an
/// insert-only delta valid against the *initial* schema. The walk is built
/// exactly like the sources would build it: by tracking the evolving schema.
fn walk_and_delta(rng: &mut Rng) -> (Vec<SchemaChange>, Delta) {
    let n_ops = rng.gen_range(0..6usize);
    let mut rel = base_relation();
    let mut name = "T".to_string();
    let mut serial = 0u32;
    let mut changes = Vec::new();
    for _ in 0..n_ops {
        let op = rng.gen_range(0..4u32) as u8;
        let pick = rng.gen_range(0..8usize);
        let attrs: Vec<String> = rel.schema().attrs().iter().map(|a| a.name.clone()).collect();
        let change = match op {
            0 => {
                serial += 1;
                let to = format!("T{serial}");
                let c = SchemaChange::RenameRelation { from: name.clone(), to: to.clone() };
                name = to;
                c
            }
            1 if !attrs.is_empty() => {
                serial += 1;
                SchemaChange::RenameAttribute {
                    relation: name.clone(),
                    from: attrs[pick % attrs.len()].clone(),
                    to: format!("x{serial}"),
                }
            }
            2 if attrs.len() > 1 => SchemaChange::DropAttribute {
                relation: name.clone(),
                attr: attrs[pick % attrs.len()].clone(),
            },
            _ => {
                serial += 1;
                SchemaChange::AddAttribute {
                    relation: name.clone(),
                    attr: Attribute::new(format!("n{serial}"), AttrType::Int),
                    default: Value::from(-1),
                }
            }
        };
        rel = dyno::relational::apply_to_relation(&rel, &change)
            .expect("walk is consistent")
            .expect("relation survives");
        changes.push(change);
    }
    let n_rows = rng.gen_range(0..5usize);
    let rows: Vec<Tuple> = (0..n_rows)
        .map(|_| {
            let a = rng.gen_range(10..20i64);
            let b = rng.gen_range(10..20i64);
            let c = rng.gen_range(10..20i64);
            Tuple::of([a, b, c])
        })
        .collect();
    let delta = Delta::inserts(base_relation().schema().clone(), rows)
        .expect("rows match the initial schema");
    (changes, delta)
}

fn apply_changes(rel: &Relation, changes: &[SchemaChange]) -> Relation {
    let mut r = rel.clone();
    for c in changes {
        r = dyno::relational::apply_to_relation(&r, c)
            .expect("consistent walk")
            .expect("relation survives");
    }
    r
}

#[test]
fn homogenization_commutes_with_schema_evolution() {
    let mut rng = Rng::new(0x404_4517);
    for case in 0..64 {
        let (changes, delta) = walk_and_delta(&mut rng);

        // Path 1: apply the delta first, then evolve the schema.
        let mut with_delta = base_relation();
        with_delta.apply(&delta).expect("pure inserts");
        let evolved_then = apply_changes(&with_delta, &changes);

        // Path 2: evolve the schema first, then apply the homogenized delta.
        let mut evolved = apply_changes(&base_relation(), &changes);
        let homogenized = homogenize_delta(&delta, &changes).expect("consistent walk");
        evolved.apply(&homogenized).expect("homogenized delta fits the evolved schema");

        assert_eq!(evolved_then, evolved, "case {case}: {changes:?}");
    }
}
