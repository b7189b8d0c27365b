//! The per-layer budget, measured from outside: sums over the spans of one
//! traced repetition, counters the program already exposes, and *probes* —
//! timed calls into one layer's public functions on inputs taken from the
//! workload that just ran.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use dyno_core::{legal_schedule, DepGraph, UpdateKind, UpdateMeta};
use dyno_relational::{delta_join_probe, SourceUpdate};
use dyno_sim::EventKind;
use dyno_source::UpdateMessage;
use dyno_view::{sweep_maintain, InProcessPort, MaintPlan};

use crate::driver::{recover_and_compare, Bed, BenchPort, Rep};
use crate::metrics::Stat;
use crate::trace::{Name, SpanBuffer, TimingPort};
use crate::workload::Generator;

/// Per-layer values of one traced repetition, by metric name.
pub type Layer = BTreeMap<&'static str, f64>;

fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Everything that comes from the spans and counters of one traced
/// repetition (the probes are added by [`probe`]).
pub fn from_rep<P: BenchPort>(rep: &Rep, spans: &SpanBuffer, bed: &Bed<P>) -> Layer {
    let selfs = spans.self_times_ns();
    // Per span name: (count, total ns, total self ns, total bytes).
    let mut by_name: BTreeMap<&'static str, (u64, u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.spans().iter().zip(&selfs) {
        let e = by_name.entry(s.name.as_str()).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += self_ns;
        e.3 += s.bytes;
    }
    let get = |n: Name| by_name.get(n.as_str()).copied().unwrap_or_default();
    let us = |ns: u64| ns as f64 / 1e3;
    let updates = rep.updates;

    let (commits, commit_ns, ..) = get(Name::SourceCommit);
    let (fetches, fetch_ns, ..) = get(Name::PortFetchAt);
    let (executes, execute_ns, ..) = get(Name::PortExecute);
    let (_, ingest_ns, ..) = get(Name::ViewIngest);
    let (_, step_ns, step_self_ns, _) = get(Name::ViewStep);
    let (appends, append_ns, _, append_bytes) = get(Name::StorageAppend);
    let (replaces, _, _, replace_bytes) = get(Name::StorageReplace);

    let dyno = bed.wh.dyno_stats();
    let (mut batches, mut batched, mut aborts) = (0, 0, 0);
    for i in 0..bed.wh.view_count() {
        let s = bed.wh.stats(i);
        batches += s.batches_committed;
        batched += s.batched_updates;
        aborts += s.aborts;
    }
    let subplans = bed.wh.subplan_hits() + bed.wh.subplan_misses();
    let top_level_ns = commit_ns + ingest_ns + step_ns;

    let mut l = Layer::new();
    l.insert("source.commit_us", per(us(commit_ns), commits));
    l.insert("source.fetch_at_calls_per_batch", per(fetches as f64, rep.adapt_batches));
    l.insert("source.fetch_at_us_per_batch", per(us(fetch_ns), rep.adapt_batches));
    l.insert("relational.execute_us_per_update", per(us(execute_ns), updates));
    l.insert("relational.execute_calls_per_update", per(executes as f64, updates));
    l.insert("relational.rows_scanned_per_update", per(rep.exec.rows_scanned as f64, updates));
    l.insert("relational.index_probes_per_update", per(rep.exec.index_probes as f64, updates));
    l.insert("core.graph_builds", dyno.graph_builds as f64);
    l.insert("core.reorders", dyno.reorders as f64);
    l.insert("core.merges", dyno.merges as f64);
    l.insert("core.fast_path_hits", dyno.fast_path_hits as f64);
    l.insert("core.broken_queries", dyno.broken_queries as f64);
    l.insert("view.ingest_us_per_update", per(us(ingest_ns), updates));
    l.insert("view.step_self_us_per_update", per(us(step_self_ns), updates));
    l.insert("view.adapt_ms_per_batch", per(rep.adapt_ns as f64 / 1e6, rep.adapt_batches));
    l.insert("view.batches", batches as f64);
    l.insert("view.batched_updates", batched as f64);
    l.insert("view.aborts", aborts as f64);
    l.insert("view.useful_ratio", per(dyno.committed as f64, dyno.committed + dyno.broken_queries));
    l.insert("view.subplan_hit_ratio", per(bed.wh.subplan_hits() as f64, subplans));
    l.insert("durable.append_us_per_update", per(us(append_ns), updates));
    l.insert("durable.appends_per_update", per(appends as f64, updates));
    l.insert("durable.append_bytes_per_update", per(append_bytes as f64, updates));
    l.insert("durable.checkpoints", replaces as f64);
    l.insert("durable.checkpoint_bytes", replace_bytes as f64);
    l.insert("durable.wal_bytes_per_update", per((append_bytes + replace_bytes) as f64, updates));
    l.insert("trace.updates", updates as f64);
    l.insert(
        "trace.unattributed_share",
        per(rep.section_ns.saturating_sub(top_level_ns) as f64, rep.section_ns),
    );
    l
}

/// Median wall time of `samples` runs of `f`, each run being `calls` calls,
/// per call, in nanoseconds.
fn time_ns<T>(samples: usize, calls: usize, mut f: impl FnMut() -> T) -> f64 {
    let per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..calls {
                black_box(f());
            }
            started.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    Stat::of(&per_call).value
}

/// The scheduler's view of one round's messages, as `Warehouse::ingest`
/// builds it. Every schema change of `sc_storm` touches a relation and an
/// attribute the 6-way view uses, so each one is marked view-invalidating.
fn metas(round: &[UpdateMessage]) -> Vec<Vec<UpdateMeta<()>>> {
    round
        .iter()
        .map(|m| {
            let kind = match m.update {
                SourceUpdate::Data(_) => UpdateKind::Data,
                SourceUpdate::Schema(_) => UpdateKind::Schema { invalidates_view: true },
            };
            vec![UpdateMeta::new(m.id.0, m.source.0, kind, ())]
        })
        .collect()
}

/// Runs the probes on the bed a traced repetition left behind and adds
/// their metrics to `layer`. Returns the number of recovery mismatches.
///
/// The probes commit 33 more single-row inserts without letting the
/// warehouse see them: the first is the update being maintained, the other
/// 32 are what SWEEP has to compensate for — the situation of the 32nd
/// update of a `fanout_burst` round.
pub fn probe(
    bed: &mut Bed<TimingPort<InProcessPort>>,
    gen: &mut Generator,
    rep: &Rep,
    layer: &mut Layer,
) -> u64 {
    // core: detection and correction on the last round's queue.
    let nodes = metas(&rep.last_round);
    let node_refs: Vec<&[UpdateMeta<()>]> = nodes.iter().map(Vec::as_slice).collect();
    let graph = DepGraph::build(&node_refs);
    layer.insert("core.detect_us_per_round", time_ns(50, 1, || DepGraph::build(&node_refs)) / 1e3);
    layer.insert("core.correct_us_per_round", time_ns(50, 1, || legal_schedule(&graph)) / 1e3);

    let mut fresh = Vec::new();
    for _ in 0..33 {
        gen.push(EventKind::DataUpdate, &mut fresh);
    }
    let msgs: Vec<UpdateMessage> = fresh
        .into_iter()
        .map(|(source, update)| {
            bed.port.base_mut().commit(source, update).expect("a generated insert commits")
        })
        .collect();
    let SourceUpdate::Data(du) = &msgs[0].update else { unreachable!("probe inserts are DUs") };
    // Of the views the probe DU touches, the one with the longest join.
    let slot = (0..bed.wh.view_count())
        .filter(|&i| bed.wh.view(i).references_relation(&du.relation))
        .max_by_key(|&i| bed.wh.view(i).query.tables.len())
        .expect("every testbed relation is in some view");
    let view = bed.wh.view(slot).clone();

    // view: SWEEP alone and against 32 pending updates, planning, apply.
    let port = bed.port.base_mut();
    layer.insert(
        "view.sweep_us",
        time_ns(200, 1, || sweep_maintain(&view, &msgs[0], &[], port)) / 1e3,
    );
    layer.insert(
        "view.sweep_pending32_us",
        time_ns(50, 1, || sweep_maintain(&view, &msgs[0], &msgs[1..], port)) / 1e3,
    );
    layer.insert(
        "view.plan_build_us",
        time_ns(200, 1, || MaintPlan::build(&view, &du.relation)) / 1e3,
    );
    let delta = sweep_maintain(&view, &msgs[0], &[], port).0.expect("probe DU maintains");
    let undo = delta.rows.negated();
    let mut mv = bed.wh.mv(slot).clone();
    let apply_samples: Vec<f64> = (0..200)
        .map(|_| {
            let started = Instant::now();
            mv.apply_delta(&delta.cols, &delta.rows).expect("insert delta applies");
            let ns = started.elapsed().as_nanos() as f64;
            mv.apply_delta(&delta.cols, &undo).expect("and its inverse");
            ns
        })
        .collect();
    layer.insert("view.apply_us", Stat::of(&apply_samples).value / 1e3);

    // relational: the index-probe kernel under one SWEEP hop — the one-row
    // delta of the probe DU against the first join target's key index.
    let join_probe_ns = MaintPlan::build(&view, &du.relation).ok().and_then(|plan| {
        let step = plan.steps.first()?;
        let schema = du.delta.schema();
        let proj: Vec<usize> =
            plan.local_proj.iter().map(|a| schema.require(a)).collect::<Result<_, _>>().ok()?;
        let d_rows = du.delta.rows().project(&proj);
        let space = bed.port.base().space();
        let keys: Vec<&str> = step.join_keys.iter().map(|(_, a)| a.as_str()).collect();
        let index = space
            .server(space.locate(&step.target)?)
            .catalog()
            .index_covering(&step.target, &keys)?;
        let cols: Vec<usize> = step.join_keys.iter().map(|&(i, _)| i).collect();
        Some(time_ns(50, 1000, || delta_join_probe(&d_rows, &cols, index)))
    });
    // 0 if the probed view is a single-relation one: it has no hop.
    layer.insert("relational.join_probe_ns", join_probe_ns.unwrap_or(0.0));

    // durable: one forced checkpoint and recovery from the final image.
    let mut misses = 0;
    let (mut checkpoint_ms, mut recover_ms) = (0.0, 0.0);
    if let Some(disk) = bed.disk.clone() {
        checkpoint_ms = time_ns(5, 1, || bed.wh.checkpoint_now()) / 1e6;
        let runs: Vec<f64> = (0..5)
            .map(|_| {
                let (miss, ms) = recover_and_compare(bed, &disk);
                misses += miss;
                ms
            })
            .collect();
        recover_ms = Stat::of(&runs).value;
    }
    layer.insert("durable.checkpoint_ms", checkpoint_ms);
    layer.insert("durable.recover_ms", recover_ms);
    misses
}
