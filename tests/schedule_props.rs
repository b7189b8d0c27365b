//! Randomized tests for the scheduler core: Theorem 2 (a legal order always
//! exists and the correction finds one) against an independent Definition 7
//! checker — with hand-built illegal orders it must reject — per-source
//! commit order preservation, SCC correctness against a brute-force oracle,
//! and schema-change composition equivalence.

use dyno::core::{legal_schedule, merge_all_schedule, DepGraph, Schedule, UpdateKind, UpdateMeta};
use dyno::prelude::*;
use dyno::sim::Rng;

type M = UpdateMeta<()>;

/// A random queue: 1..25 updates, each with a source (0..4) and a kind
/// (~30% schema changes, of which most invalidate the view).
fn random_queue(rng: &mut Rng) -> Vec<M> {
    let n = rng.gen_range(1..25usize);
    (0..n)
        .map(|i| {
            let source = rng.gen_range(0..4u32);
            let kind = match rng.gen_range(0..10u32) {
                0..=6 => UpdateKind::Data,
                7 => UpdateKind::Schema { invalidates_view: false },
                _ => UpdateKind::Schema { invalidates_view: true },
            };
            UpdateMeta::new(i as u64, source, kind, ())
        })
        .collect()
}

fn singleton_nodes(queue: &[M]) -> Vec<Vec<M>> {
    queue.iter().cloned().map(|m| vec![m]).collect()
}

fn build(nodes: &[Vec<M>]) -> DepGraph {
    let views: Vec<&[M]> = nodes.iter().map(Vec::as_slice).collect();
    DepGraph::build(&views)
}

/// `schedule`'s batches as queue nodes, in schedule order.
fn reordered(nodes: &[Vec<M>], schedule: &Schedule) -> Vec<Vec<M>> {
    schedule.batches.iter().map(|b| b.iter().flat_map(|&i| nodes[i].clone()).collect()).collect()
}

/// Definition 7, checked without the code under test: every node is
/// scheduled exactly once, each source's updates keep ascending key
/// (= commit) order across the flattened schedule, and the graph rebuilt
/// over the scheduled batches has no unsafe dependency left.
fn legality(nodes: &[Vec<M>], schedule: &Schedule) -> Result<(), String> {
    let mut seen: Vec<usize> = schedule.batches.iter().flatten().copied().collect();
    seen.sort_unstable();
    if seen != (0..nodes.len()).collect::<Vec<_>>() {
        return Err(format!("not a permutation of the queue: {:?}", schedule.batches));
    }
    let flat: Vec<M> = reordered(nodes, schedule).concat();
    for (i, later) in flat.iter().enumerate() {
        if let Some(earlier) =
            flat[..i].iter().find(|m| m.source == later.source && m.key >= later.key)
        {
            return Err(format!(
                "source {} out of commit order: key {} before key {}",
                later.source.0, earlier.key.0, later.key.0
            ));
        }
    }
    match build(&reordered(nodes, schedule)).unsafe_dependencies().next() {
        Some(d) => Err(format!("unsafe dependency survives: {d:?}")),
        None => Ok(()),
    }
}

/// The correction merges no more than it must: every batch is exactly one
/// mutual-reachability class of the queue's prerequisite graph, by brute
/// force ([`reachable`]) rather than Tarjan.
fn minimality(nodes: &[Vec<M>], schedule: &Schedule) -> Result<(), String> {
    let adj = build(nodes).prerequisite_adjacency();
    let reach: Vec<Vec<bool>> = (0..nodes.len()).map(|v| reachable(&adj, v)).collect();
    for batch in &schedule.batches {
        let class: Vec<usize> =
            (0..nodes.len()).filter(|&v| reach[batch[0]][v] && reach[v][batch[0]]).collect();
        if *batch != class {
            return Err(format!("batch {batch:?} is not the dependency cycle {class:?}"));
        }
    }
    Ok(())
}

fn assert_legal(nodes: &[Vec<M>], schedule: &Schedule, ctx: &str) {
    legality(nodes, schedule).unwrap_or_else(|e| panic!("{ctx}: illegal: {e}"));
    minimality(nodes, schedule).unwrap_or_else(|e| panic!("{ctx}: over-merged: {e}"));
}

/// Theorem 2: over random queues the correction always finds a legal order
/// that keeps per-source commit order and merges exactly the cycles; the
/// blind merge-all ablation is legal too, just not minimal.
#[test]
fn corrected_schedule_is_legal_and_minimal() {
    let mut over_merged = 0;
    for seed in [0x5C4_4517, 0x5C4_0517] {
        let mut rng = Rng::new(seed);
        for case in 0..96 {
            let nodes = singleton_nodes(&random_queue(&mut rng));
            let graph = build(&nodes);
            assert_legal(&nodes, &legal_schedule(&graph), &format!("seed {seed:#x} case {case}"));
            let blind = merge_all_schedule(&graph);
            legality(&nodes, &blind)
                .unwrap_or_else(|e| panic!("seed {seed:#x} case {case}: merge-all illegal: {e}"));
            over_merged += usize::from(minimality(&nodes, &blind).is_err());
        }
    }
    assert!(over_merged > 0, "merge-all must over-merge somewhere, or minimality checks nothing");
}

/// The checker itself bites: hand-built orders that break each clause.
#[test]
fn illegal_and_over_merged_orders_are_rejected() {
    let du = |key, source| vec![UpdateMeta::new(key, source, UpdateKind::Data, ())];
    let sc = |key, source| {
        vec![UpdateMeta::new(key, source, UpdateKind::Schema { invalidates_view: true }, ())]
    };
    let order =
        |batches: &[&[usize]]| Schedule { batches: batches.iter().map(|b| b.to_vec()).collect() };

    // Two updates of one source: commit order is a (safe) dependency, and
    // swapping the singletons makes it unsafe.
    let same_source = [du(0, 0), du(1, 0)];
    assert_legal(&same_source, &order(&[&[0], &[1]]), "commit order");
    let swapped = legality(&same_source, &order(&[&[1], &[0]]));
    assert!(swapped.is_err(), "swapped unsafe-dependent singletons must be illegal");
    assert!(legality(&same_source, &order(&[&[0]])).is_err(), "a dropped node is not a schedule");
    assert!(legality(&same_source, &order(&[&[0], &[1], &[1]])).is_err(), "nor is a repeated one");

    // A DU and an invalidating SC of one source pull in opposite directions:
    // only the merged batch is legal, in either singleton order.
    let cycle = [du(0, 7), sc(1, 7)];
    assert_legal(&cycle, &order(&[&[0, 1]]), "merged cycle");
    assert!(legality(&cycle, &order(&[&[0], &[1]])).is_err());
    assert!(legality(&cycle, &order(&[&[1], &[0]])).is_err());

    // Independent updates merged anyway: legal, but not minimal.
    let independent = [du(0, 0), du(1, 1)];
    let merged = order(&[&[0, 1]]);
    assert!(legality(&independent, &merged).is_ok());
    assert!(minimality(&independent, &merged).is_err());
}

/// Idempotence: correcting an already-legal schedule changes nothing.
#[test]
fn correction_is_idempotent() {
    let mut rng = Rng::new(0x5C4_1517);
    for case in 0..96 {
        let nodes = singleton_nodes(&random_queue(&mut rng));
        let first = legal_schedule(&build(&nodes));
        assert_legal(&nodes, &first, &format!("case {case}"));
        let second = legal_schedule(&build(&reordered(&nodes, &first)));
        assert!(
            second.is_identity(),
            "case {case}: second correction must be a no-op, got {:?}",
            second.batches
        );
    }
}

/// DU-only queues are never disturbed (they arrive in commit order, so
/// every semantic dependency is already safe).
#[test]
fn du_only_queues_untouched() {
    let mut rng = Rng::new(0x5C4_2517);
    for case in 0..96 {
        let n = rng.gen_range(1..30usize);
        let queue: Vec<M> = (0..n)
            .map(|i| UpdateMeta::new(i as u64, rng.gen_range(0..4u32), UpdateKind::Data, ()))
            .collect();
        let nodes = singleton_nodes(&queue);
        let schedule = legal_schedule(&build(&nodes));
        assert_legal(&nodes, &schedule, &format!("case {case}"));
        assert!(schedule.is_identity(), "case {case}");
    }
}

// ---------------------------------------------------------------------------
// Schema-change composition (paper Section 5 preprocessing).
// ---------------------------------------------------------------------------

/// A random but *self-consistent* schema-change sequence over one relation,
/// generated by walking the evolving schema.
fn consistent_changes(rng: &mut Rng) -> (Relation, Vec<SchemaChange>) {
    let base = Relation::from_tuples(
        Schema::of("T", &[("a", AttrType::Int), ("b", AttrType::Int), ("c", AttrType::Int)]),
        [Tuple::of([1i64, 2, 3]), Tuple::of([4i64, 5, 6])],
    )
    .expect("static fixture");
    let n_ops = rng.gen_range(0..8usize);
    let mut rel = base.clone();
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
                let from = attrs[pick % attrs.len()].clone();
                SchemaChange::RenameAttribute {
                    relation: name.clone(),
                    from,
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
                    default: Value::from(0),
                }
            }
        };
        rel = dyno::relational::apply_to_relation(&rel, &change)
            .expect("walk keeps changes consistent")
            .expect("no drops of the whole relation in this walk");
        changes.push(change);
    }
    (base, changes)
}

/// compose(changes) applied sequentially produces the same relation as
/// applying the original sequence.
#[test]
fn composition_equivalent_to_sequence() {
    let mut rng = Rng::new(0x5C4_3517);
    for case in 0..96 {
        let (base, changes) = consistent_changes(&mut rng);
        let apply_all = |rel: &Relation, cs: &[SchemaChange]| -> Relation {
            let mut r = rel.clone();
            for c in cs {
                r = dyno::relational::apply_to_relation(&r, c)
                    .expect("consistent by construction")
                    .expect("relation survives");
            }
            r
        };
        let sequential = apply_all(&base, &changes);
        let composed = dyno::relational::compose(&changes);
        assert!(composed.len() <= changes.len(), "case {case}: composition never grows");
        let via_composed = apply_all(&base, &composed);
        assert_eq!(sequential, via_composed, "case {case}: {changes:?}");
    }
}

// ---------------------------------------------------------------------------
// Tarjan SCC against a brute-force reachability oracle.
// ---------------------------------------------------------------------------

fn reachable(adj: &[Vec<usize>], from: usize) -> Vec<bool> {
    let mut seen = vec![false; adj.len()];
    let mut stack = vec![from];
    seen[from] = true;
    while let Some(v) = stack.pop() {
        for &w in &adj[v] {
            if !seen[w] {
                seen[w] = true;
                stack.push(w);
            }
        }
    }
    seen
}

/// Two nodes share a Tarjan component iff they reach each other.
#[test]
fn scc_matches_reachability_oracle() {
    let mut rng = Rng::new(0x5CC_4517);
    for case in 0..128 {
        let n = 8;
        let mut adj = vec![Vec::new(); n];
        for _ in 0..rng.gen_range(0..20usize) {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            adj[a].push(b);
        }
        let (assign, _) = dyno::core::tarjan::scc(&adj);
        let reach: Vec<Vec<bool>> = (0..n).map(|v| reachable(&adj, v)).collect();
        for a in 0..n {
            for b in 0..n {
                let mutually = reach[a][b] && reach[b][a];
                let same_comp = assign[a] == assign[b];
                assert_eq!(
                    same_comp, mutually,
                    "case {case}: nodes {a},{b}: scc says {same_comp}, oracle says {mutually}"
                );
            }
        }
    }
}
