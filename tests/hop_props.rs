//! Differential property tests for the compiled hop protocol: a port's
//! native [`SourcePort::hop`] (an index probe through
//! `dyno::relational::delta_hop`) must be *indistinguishable* from the
//! trait's default — render the hop as the `__D ⋈ target` step query, bind Δ
//! as `__D`, `execute` — in rows, in the error a broken or ill-typed hop
//! returns, in the executor's work counters, in simulated time, in fault
//! draws and in the Definition-1 trace.
//!
//! Cases are drawn from the in-repo seeded PRNG (`dyno::sim::Rng`), so every
//! run replays the same case set and a failure is reproducible.

mod common;

use common::ExecuteOnly;
use dyno::prelude::*;
use dyno::relational::{thread_stats, ExecStats, ZSet};
use dyno::sim::{build_testbed, EventKind, Rng};
use dyno::view::{DeltaCols, HopRequest, MaintPlan, TracingPort, ViewDefinition};

/// One hop's outcome and the executor work it cost.
type Outcome = (Result<ZSet, RelationalError>, ExecStats);

fn hop_on(port: &mut dyn SourcePort, req: &HopRequest<'_>) -> Outcome {
    let before = thread_stats();
    let result = port.hop(req);
    (result, thread_stats().since(before))
}

/// Answers `req` natively and through the default path over the same
/// space, asserting the two outcomes equal; returns the shared outcome.
fn assert_same_hop(space: &SourceSpace, req: &HopRequest<'_>, case: &str) -> Outcome {
    let native = hop_on(&mut InProcessPort::new(space.clone()), req);
    let generic = hop_on(&mut ExecuteOnly(InProcessPort::new(space.clone())), req);
    assert_eq!(native, generic, "{case}: native hop != default execute path for {}", req.query());
    native
}

/// The target's attributes: three nullable integers and a string.
const T_ATTRS: [&str; 4] = ["k", "a0", "a1", "s"];

fn int_or_null(rng: &mut Rng, range: i64) -> Value {
    if rng.gen_ratio(1, 8) {
        Value::Null
    } else {
        Value::from(rng.gen_range(0..range))
    }
}

/// A one-source space holding `T(k, a0, a1, s)` with `rows` random rows —
/// NULLs and duplicates included, values narrow so joins match.
fn space_with_target(rows: usize, rng: &mut Rng) -> SourceSpace {
    let schema = Schema::of(
        "T",
        &[("k", AttrType::Int), ("a0", AttrType::Int), ("a1", AttrType::Int), ("s", AttrType::Str)],
    );
    let mut rel = Relation::empty(schema);
    for _ in 0..rows {
        let s =
            if rng.gen_ratio(1, 8) { Value::Null } else { Value::str(*rng.choose(&["x", "y"])) };
        rel.insert(Tuple::new(vec![
            int_or_null(rng, 4),
            int_or_null(rng, 3),
            int_or_null(rng, 3),
            s,
        ]))
        .expect("generated tuples are well-typed");
    }
    let mut catalog = Catalog::new();
    catalog.add_relation(rel).expect("one relation");
    let mut space = SourceSpace::new();
    space.add_server(SourceServer::new(SourceId(0), "s0", catalog));
    space
}

/// A random intermediate: `arity` nullable integer columns, signed weights.
fn random_delta(rows: usize, arity: usize, rng: &mut Rng) -> ZSet {
    let mut delta = ZSet::new();
    for _ in 0..rows {
        let t = Tuple::new((0..arity).map(|_| int_or_null(rng, 4)).collect());
        let w = *rng.choose(&[-2i64, -1, 1, 1, 2, 3]);
        delta.add(t, w);
    }
    delta
}

/// The compiled parts of a random hop against `T`.
struct HopParts {
    target: String,
    join_keys: Vec<(usize, String)>,
    t_filters: Vec<(String, CmpOp, Value)>,
    t_proj: Vec<String>,
    d_cols: Vec<String>,
}

impl HopParts {
    fn request<'a>(&'a self, delta: &'a ZSet) -> HopRequest<'a> {
        HopRequest {
            target: &self.target,
            join_keys: &self.join_keys,
            t_filters: &self.t_filters,
            t_proj: &self.t_proj,
            d_cols: DeltaCols::Named(&self.d_cols),
            delta,
        }
    }
}

/// A random hop: zero to two join keys (zero is the cartesian fallback),
/// up to two filters — well-typed, ill-typed or against a NULL literal —
/// a random projection in random order, and now and then an attribute or a
/// relation the source does not have.
fn random_parts(arity: usize, rng: &mut Rng) -> HopParts {
    let attr = |rng: &mut Rng| {
        if rng.gen_ratio(1, 12) {
            rng.choose(&["ghost", "b_gone", "zz"]).to_string()
        } else {
            rng.choose(&T_ATTRS[..3]).to_string()
        }
    };
    let n_keys = *rng.choose(&[0usize, 1, 1, 1, 1, 2, 2, 2]);
    let join_keys = (0..n_keys).map(|_| (rng.gen_range(0..arity), attr(rng))).collect();
    let t_filters = (0..rng.gen_range(0..3usize))
        .map(|_| {
            let a = if rng.gen_ratio(1, 4) { "s".to_string() } else { attr(rng) };
            let op = *rng.choose(&[CmpOp::Eq, CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge]);
            let literal = match rng.gen_range(0..8u32) {
                0 => Value::Null,
                1 => Value::str("x"),
                _ => Value::from(rng.gen_range(0..4i64)),
            };
            (a, op, literal)
        })
        .collect();
    let mut t_proj: Vec<String> =
        T_ATTRS.iter().filter(|_| rng.gen_ratio(2, 3)).map(|a| a.to_string()).collect();
    if rng.gen_ratio(1, 12) {
        t_proj.push(attr(rng));
        t_proj.dedup();
    }
    rng.shuffle(&mut t_proj);
    HopParts {
        target: if rng.gen_ratio(1, 40) { "Nope".into() } else { "T".into() },
        join_keys,
        t_filters,
        t_proj,
        d_cols: (0..arity).map(|i| format!("R.c{i}")).collect(),
    }
}

/// Declares an index on `T` for the hop's join key: none, the key in join
/// order, the key reversed (the probe must line its values up with the
/// index's own attribute order), or an index on something else.
fn random_index(space: &mut SourceSpace, parts: &HopParts, rng: &mut Rng) {
    let mut key: Vec<&str> = parts.join_keys.iter().map(|(_, a)| a.as_str()).collect();
    match rng.gen_range(0..4u32) {
        0 => return,
        1 => {}
        2 => key.reverse(),
        _ => key = vec!["a1"],
    }
    // Keys naming a missing attribute, or one attribute twice, have no index.
    let _ = space.create_index("T", &key);
}

#[test]
fn random_hops_match_the_default_execute_path() {
    let mut rng = Rng::new(0x40b);
    let (mut ok, mut errs, mut probed, mut target_seeded) = (0, 0, 0, 0);
    for case in 0..600 {
        let t_rows = *rng.choose(&[0usize, 1, 3, 8, 20, 40]);
        let mut space = space_with_target(t_rows, &mut rng);
        let arity = rng.gen_range(2..5usize);
        let delta = random_delta(rng.gen_range(0..7usize), arity, &mut rng);
        let parts = random_parts(arity, &mut rng);
        random_index(&mut space, &parts, &mut rng);
        let (result, stats) = assert_same_hop(&space, &parts.request(&delta), &format!("#{case}"));
        match result {
            Ok(_) => ok += 1,
            Err(_) => errs += 1,
        }
        probed += stats.index_join_steps;
        // The bound table was not scanned first: the target seeded the join.
        let t_len = space.server(SourceId(0)).catalog().get("T").unwrap().rows().distinct_len();
        if t_len < delta.distinct_len() {
            target_seeded += 1;
        }
    }
    // The generator reaches every path it is there to compare.
    assert!(ok > 200 && errs > 50, "{ok} ok / {errs} errors");
    assert!(probed > 20, "index-nested-loop hops: {probed}");
    assert!(target_seeded > 10, "hops seeded from the target: {target_seeded}");
}

#[test]
fn composite_key_probes_whatever_order_the_index_lists_it_in() {
    let mut rng = Rng::new(0xc0);
    for order in [["k", "a0"], ["a0", "k"]] {
        let mut space = space_with_target(60, &mut rng);
        space.create_index("T", &order).expect("both attributes exist");
        let delta = random_delta(3, 3, &mut rng);
        let parts = HopParts {
            target: "T".into(),
            join_keys: vec![(2, "k".into()), (0, "a0".into())],
            t_filters: vec![],
            t_proj: vec!["k".into(), "a0".into(), "s".into()],
            d_cols: vec!["R.x".into(), "R.y".into(), "R.z".into()],
        };
        let (result, stats) = assert_same_hop(&space, &parts.request(&delta), "composite");
        assert_eq!(stats.index_join_steps, 1, "index {order:?} covers the key");
        for (row, _) in result.expect("well-formed hop").iter() {
            assert_eq!((row.get(2), row.get(0)), (row.get(3), row.get(4)), "D.z = T.k, D.x = T.a0");
        }
    }
}

#[test]
fn fan_out_boundary_flips_both_paths_at_the_same_size() {
    // |Δ| · 4 ≤ |T| probes the index; one row fewer in T hash-joins.
    let mut rng = Rng::new(0xfa);
    for d_rows in 1..5usize {
        for t_rows in [4 * d_rows - 1, 4 * d_rows, 4 * d_rows + 1] {
            // Distinct rows on both sides, so lengths are exact.
            let mut rel =
                Relation::empty(Schema::of("T", &[("k", AttrType::Int), ("a0", AttrType::Int)]));
            for i in 0..t_rows as i64 {
                rel.insert(Tuple::of([i % 3, i])).unwrap();
            }
            let mut catalog = Catalog::new();
            catalog.add_relation(rel).unwrap();
            catalog.create_index("T", &["k"]).unwrap();
            let mut space = SourceSpace::new();
            space.add_server(SourceServer::new(SourceId(0), "s0", catalog));
            let delta: ZSet =
                (0..d_rows as i64).map(|i| (Tuple::of([i % 3, 100 + i]), 1)).collect();
            let parts = HopParts {
                target: "T".into(),
                join_keys: vec![(0, "k".into())],
                t_filters: if rng.gen_ratio(1, 2) {
                    vec![("a0".into(), CmpOp::Ge, Value::from(0))]
                } else {
                    vec![]
                },
                t_proj: vec!["a0".into(), "k".into()],
                d_cols: vec!["R.k".into(), "R.v".into()],
            };
            let (result, stats) = assert_same_hop(&space, &parts.request(&delta), "fan-out");
            assert!(result.is_ok());
            let probes = 4 * d_rows <= t_rows;
            assert_eq!(
                (stats.index_join_steps, stats.hash_join_steps),
                if probes { (1, 0) } else { (0, 1) },
                "|Δ| = {d_rows}, |T| = {t_rows}"
            );
        }
    }
}

/// The paper's testbed (six relations joined on `K`) and one committed
/// single-row insert into `R0`.
fn testbed_with_insert(tuples: usize) -> (SourceSpace, ViewDefinition, UpdateMessage) {
    let cfg = TestbedConfig { tuples_per_relation: tuples, ..Default::default() };
    let (mut space, view) = build_testbed(&cfg);
    let mut gen = WorkloadGen::new(cfg, 7);
    let msg = loop {
        let c = gen.event(0, EventKind::DataUpdate);
        let hit = matches!(&c.update, SourceUpdate::Data(du) if du.relation == "R0");
        let msg = space.commit(c.source, c.update).expect("generated inserts commit");
        if hit {
            break msg;
        }
    };
    (space, view, msg)
}

#[test]
fn schema_drift_mid_plan_breaks_both_paths_with_the_same_error() {
    let (space, view, msg) = testbed_with_insert(40);
    let SourceUpdate::Data(du) = &msg.update else { unreachable!() };
    let plan = MaintPlan::build(&view, "R0").expect("testbed view plans");
    let proj: Vec<usize> =
        plan.local_proj.iter().map(|a| du.delta.schema().require(a).unwrap()).collect();
    let seed = du.delta.rows().project(&proj);

    let drifts = [
        ("R3", SchemaChange::DropRelation { relation: "R3".into() }),
        ("R2", SchemaChange::RenameRelation { from: "R2".into(), to: "R2x".into() }),
        ("R1", SchemaChange::DropAttribute { relation: "R1".into(), attr: "A1".into() }),
        (
            "R4",
            SchemaChange::RenameAttribute {
                relation: "R4".into(),
                from: "K".into(),
                to: "K2".into(),
            },
        ),
    ];
    for (relation, sc) in drifts {
        let mut drifted = space.clone();
        let source = drifted.locate(relation).expect("testbed relation");
        drifted.commit(source, SourceUpdate::Schema(sc.clone())).expect("valid schema change");
        // Walk the plan as SWEEP does; the hop into the drifted relation
        // must break, identically, and every other hop must still agree.
        let mut d_rows = seed.clone();
        let mut broke = 0;
        for step in &plan.steps {
            let (result, _) = assert_same_hop(&drifted, &step.request(&d_rows), "drift");
            match result {
                Ok(rows) => d_rows = rows,
                Err(e) => {
                    assert!(e.is_schema_conflict(), "{sc:?}: {e}");
                    assert_eq!(step.target, relation);
                    broke += 1;
                    break;
                }
            }
        }
        assert_eq!(broke, 1, "{sc:?} breaks exactly the hop that reads it");
    }
}

#[test]
fn sim_port_meters_a_hop_like_the_query_it_replaces() {
    let (space, view, msg) = testbed_with_insert(200);
    let SourceUpdate::Data(du) = &msg.update else { unreachable!() };
    let plan = MaintPlan::build(&view, "R0").expect("testbed view plans");
    let proj: Vec<usize> =
        plan.local_proj.iter().map(|a| du.delta.schema().require(a).unwrap()).collect();
    // A commit scheduled inside the first round trip: it must be visible to
    // that hop's answer on both ports.
    let late = WorkloadGen::new(TestbedConfig::default(), 9).event(10, EventKind::DataUpdate);
    let mut native = SimPort::new(space.clone(), vec![late.clone()], CostModel::default());
    let mut generic = ExecuteOnly(SimPort::new(space, vec![late], CostModel::default()));
    native.start_metering();
    generic.0.start_metering();

    let mut d_rows = du.delta.rows().project(&proj);
    for step in &plan.steps {
        let a = hop_on(&mut native, &step.request(&d_rows));
        let b = hop_on(&mut generic, &step.request(&d_rows));
        assert_eq!(a, b);
        assert_eq!(native.now_us(), generic.now_us(), "simulated time after {}", step.target);
        d_rows = a.0.expect("testbed hop");
    }
    assert_eq!(native.metrics(), generic.0.metrics());
    assert_eq!(native.metrics().queries, plan.steps.len() as u64);
    assert_eq!(native.drain_arrivals(), generic.drain_arrivals());
}

/// Commits `n` generated updates through `commit`.
fn commit_stream(n: usize, mut commit: impl FnMut(SourceId, SourceUpdate)) {
    let cfg = TestbedConfig { tuples_per_relation: 60, ..Default::default() };
    let mut gen = WorkloadGen::new(cfg, 11);
    for i in 0..n {
        let kind = if i % 4 == 3 { EventKind::DataDelete } else { EventKind::DataUpdate };
        let c = gen.event(0, kind);
        commit(c.source, c.update);
    }
}

#[test]
fn execute_only_and_tracing_ports_drive_a_warehouse_identically() {
    // Port contract: a decorator written before `hop` existed (it inherits
    // the default) and the in-repo tracing decorator (native hop) are
    // interchangeable — same extents, same reflected versions, same
    // Definition-1 trace `r(VD) r(DS…)… w(MV) c(MV)`.
    let cfg = TestbedConfig { tuples_per_relation: 60, ..Default::default() };
    let run = |native: bool| {
        let (space, view) = build_testbed(&cfg);
        let mut wh = Warehouse::new(space.info().clone(), Strategy::Pessimistic);
        wh.add_view(view);
        let mut base = InProcessPort::new(space);
        wh.initialize(&mut base).expect("testbed initializes");
        commit_stream(12, |s, u| {
            base.commit(s, u).expect("generated updates commit");
        });
        let trace = if native {
            let mut port = TracingPort::new(&mut base);
            wh.run_to_quiescence(&mut port, 200).expect("maintains");
            port.take_trace()
        } else {
            let mut inner = ExecuteOnly(base);
            let mut port = TracingPort::new(&mut inner);
            wh.run_to_quiescence(&mut port, 200).expect("maintains");
            port.take_trace()
        };
        (wh.mv(0).extent().clone(), wh.reflected().clone(), trace)
    };
    let (native, generic) = (run(true), run(false));
    assert_eq!(native.0, generic.0, "extents");
    assert_eq!(native.1, generic.1, "reflected versions");
    assert_eq!(native.2, generic.2, "traces");

    // Twelve DUs, each M(DU) = r(VD) r(DS)×5 w(MV) c(MV).
    let per_du: Vec<&[String]> = native.2.chunks(8).collect();
    assert_eq!(per_du.len(), 12, "{:?}", native.2);
    for m in per_du {
        assert_eq!(m[0], "r(VD)");
        assert!(m[1..6].iter().all(|r| r.starts_with("r(DS") && !r.ends_with("BROKEN")), "{m:?}");
        assert_eq!(m[6..], ["w(MV)", "c(MV)"]);
    }
}

#[test]
fn faulted_port_draws_the_same_faults_for_a_hop() {
    let cfg = TestbedConfig { tuples_per_relation: 60, ..Default::default() };
    for seed in 0..6 {
        let run = |native: bool| {
            let (space, view) = build_testbed(&cfg);
            let info = space.info().clone();
            let mut base = InProcessPort::new(space);
            let mut mgr = Warehouse::new(info, Strategy::Pessimistic);
            mgr.add_view(view);
            mgr.initialize(&mut base).expect("testbed initializes");
            let baseline = base.space().versions();
            let profile = FaultProfile { timeout_pm: 300, ..FaultProfile::drop_dup() };
            let transport = ChaosTransport::new(profile, seed);
            let finish = |mgr: &mut Warehouse, port: &mut dyn SourcePort| {
                mgr.run_to_quiescence(port, 500).expect("maintains under chaos");
            };
            let (injected, now) = if native {
                let mut port = FaultedPort::new(base, transport, baseline);
                commit_stream(10, |s, u| {
                    port.inner_mut().commit(s, u).expect("commits");
                });
                finish(&mut mgr, &mut port);
                port.flush_all();
                finish(&mut mgr, &mut port);
                (port.injected_total(), port.now_us())
            } else {
                let mut port = FaultedPort::new(ExecuteOnly(base), transport, baseline);
                commit_stream(10, |s, u| {
                    port.inner_mut().0.commit(s, u).expect("commits");
                });
                finish(&mut mgr, &mut port);
                port.flush_all();
                finish(&mut mgr, &mut port);
                (port.injected_total(), port.now_us())
            };
            (mgr.mv(0).extent().clone(), mgr.stats(0), injected, now)
        };
        assert_eq!(run(true), run(false), "seed {seed}");
    }
}
