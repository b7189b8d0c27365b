//! Properties of the per-operator cost profiler (DESIGN.md §18), asserted
//! at the facade level against real maintenance runs:
//!
//! * **conservation** — in a captured profile, every per-phase total is
//!   exactly the sum of that phase's child operator nodes, across every
//!   plan, for every column (calls, rows, cancellations, probes, and ns);
//! * **invisibility** — turning the profiler on changes no determinism
//!   surface: a monitored run's full JSON capture and a chaos run's
//!   convergence scalars and metrics registry are byte-identical with the
//!   profiler on and off;
//! * **one zero-cost gate** — the disabled gate path (the exact sequence
//!   instrumented callers execute when capture is off: spans, events,
//!   provenance records and batches, operator samples) performs zero heap
//!   allocations, measured with a counting global allocator;
//! * **a hop costs its probe** — with the same allocator: building a key
//!   index allocates one row copy per row and no bucket storage of its own,
//!   and a one-row SWEEP hop against a warm key index allocates only its
//!   output set and one row per match.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dyno::obs::json::{parse, Value};
use dyno::obs::{field, stage, Capture, Collector, Level, NodeKey, OpPhase, OpSample, Profiler};
use dyno::relational::{
    delta_hop, AttrType, Catalog, HashIndex, Relation, Schema, Tuple, Value as Val, ZSet,
};
use dyno::sim::{run, Experiment, Monitor, OpenLoopConfig, Report, TestbedConfig};
use dyno::source::{SourceId, SourceServer, SourceSpace};

/// Counts heap allocations made by *this thread* only, so the measurement
/// is immune to other tests running concurrently in the same binary.
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn thread_allocations() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

/// A short profiled open-loop run that exercises every plan family: SWEEP
/// seeds/hops/compensations, the warehouse pipeline, and (via the rename
/// storm) the Equation-6 adaptation path.
fn open_loop_run(seed: u64, op_profile: bool) -> Report {
    let load = OpenLoopConfig {
        duration_us: 10_000_000,
        du_per_sec: 4.0,
        sc_storms: 1,
        sc_storm_len: 1,
        sc_storm_gap_us: 1_000_000,
        ..Default::default()
    };
    let report = run(Experiment {
        umq_bound: Some(12),
        monitor: Some(Monitor { drain_windows: 4, ..Default::default() }),
        capture: if op_profile { Capture::PROFILE } else { Capture::NONE },
        ..Experiment::open_loop(
            TestbedConfig { tuples_per_relation: 60, ..Default::default() },
            &load,
            seed,
            2,
        )
    })
    .expect("testbed views initialize");
    assert!(report.last_error.is_none(), "run died: {:?}", report.last_error);
    report
}

fn num(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_num).unwrap_or_else(|| panic!("missing numeric `{key}`")) as u64
}

/// Every phase total in the rendered JSON equals the sum of that phase's
/// child nodes — for every plan and every column, including `ns`.
#[test]
fn phase_totals_are_conserved_sums_of_operator_nodes() {
    let profile = open_loop_run(7, true).obs.profile_snapshot();
    assert!(profile.plan_count() > 0, "run captured no plans");

    let doc = parse(&profile.render_json()).expect("profile JSON parses");
    let plans = doc.get("profile").and_then(|p| p.get("plans")).and_then(Value::as_arr).unwrap();
    assert!(!plans.is_empty());
    let mut checked_nodes = 0usize;
    for plan in plans {
        let nodes = plan.get("nodes").and_then(Value::as_arr).unwrap();
        let phases = plan.get("phases").and_then(Value::as_obj).unwrap();
        for (phase, total) in phases {
            for col in ["calls", "rows_in", "rows_out", "cancelled", "probes", "ns"] {
                let node_sum: u64 = nodes
                    .iter()
                    .filter(|n| n.get("phase").and_then(Value::as_str) == Some(phase))
                    .map(|n| num(n, col))
                    .sum();
                assert_eq!(
                    node_sum,
                    num(total, col),
                    "phase `{phase}` column `{col}` is not the sum of its nodes in plan {:?}·{:?}",
                    plan.get("view"),
                    plan.get("scope"),
                );
            }
        }
        checked_nodes += nodes.len();
    }
    assert!(checked_nodes > 0, "conservation held vacuously — no nodes captured");

    // Renders are byte-stable for a fixed set of samples.
    assert_eq!(profile.render_json(), profile.render_json());
    assert_eq!(profile.render_text(None), profile.render_text(None));
}

/// The profiler cannot move a byte of any determinism surface: the
/// monitored run's combined JSON capture (run summary, registry series,
/// staleness lanes) is identical with the profiler on and off.
#[test]
fn monitor_capture_is_bit_identical_with_profiler_on_and_off() {
    let (on, off) = (open_loop_run(42, true), open_loop_run(42, false));
    assert_eq!(on.to_json(), off.to_json(), "profiler leaked into the JSON capture");
    assert!(on.obs.profile_snapshot().plan_count() > 0);
    assert!(off.obs.profile_snapshot().is_empty());
}

/// Same property against the fault-injection path, without and with a
/// mid-run kill: a chaos run's extent, convergence scalars, and entire
/// metrics registry are unchanged by the profiler (which a recovered
/// warehouse keeps feeding: it is the collector's switch, not its own).
#[test]
fn chaos_run_is_bit_identical_with_profiler_on_and_off() {
    use dyno::view::wal::{CrashPlan, CrashPoint};
    let kill = vec![CrashPlan { point: CrashPoint::BetweenSteps, skip: 2 }];
    for profile in dyno::fault::FaultProfile::all() {
        for kills in [vec![], kill.clone()] {
            let ctx = format!("{} with {} kill(s)", profile.name, kills.len());
            let chaos = |op_profile| {
                let kills = kills.clone();
                let capture = if op_profile { Capture::PROFILE } else { Capture::NONE };
                run(Experiment { capture, kills, ..Experiment::chaos(profile, 11) })
                    .expect("testbed views initialize")
            };
            let (off, on) = (chaos(false), chaos(true));
            assert!(off.converged && on.converged, "{ctx}: runs must converge");
            assert_eq!(off.views[0].extent_crc, on.views[0].extent_crc, "{ctx}: extent moved");
            assert_eq!(off.steps, on.steps, "{ctx}: steps moved");
            assert_eq!(
                off.obs.metrics_text(),
                on.obs.metrics_text(),
                "{ctx}: registry moved with the profiler on"
            );
            assert_eq!(on.counter("wal.power_cuts"), kills.len() as u64, "{ctx}");
            assert!(on.obs.profile_snapshot().plan_count() > 0, "{ctx}");
            assert!(off.obs.profile_snapshot().is_empty(), "{ctx}");
        }
    }
}

/// The disabled path instrumented callers actually execute — one gate
/// check, or an early-returning record call — performs zero allocations,
/// for every kind behind the gate word: spans, events, provenance records
/// and batches, and operator samples, on an enabled-but-off collector and
/// on a disabled one. A disabled collector's metric handles are free too:
/// looking up a counter, gauge or histogram and writing to it allocates
/// nothing.
#[test]
fn disabled_profiler_path_does_not_allocate() {
    let obs = Collector::wall();
    let disabled = Collector::disabled();
    assert!(!obs.capturing(Capture::PROFILE));
    // Warm up lazily-initialized state (TLS, collector internals) so the
    // measured loop sees steady state.
    obs.profile_invocation("V", "warm");
    obs.profile_op(
        "V",
        "warm",
        NodeKey { step: 0, phase: OpPhase::Seed, op: "warm", detail: String::new() },
        OpSample::default(),
    );

    let before = thread_allocations();
    for i in 0..10_000u64 {
        // The caller-side gate: cheap check, no timestamp, no key built.
        if obs.capturing(Capture::PROFILE) {
            unreachable!("profiler is off");
        }
        // The store-side gates: both must bail before touching the map.
        obs.profile_invocation("V", "scope");
        obs.profile_op(
            "V",
            "scope",
            // An empty `String` does not allocate, so a disabled-path
            // allocation here can only come from the profiler itself.
            NodeKey { step: i as u32, phase: OpPhase::Seed, op: "noop", detail: String::new() },
            OpSample::default(),
        );
        for o in [&obs, &disabled] {
            // The callers' one profiler helper: no clock, no rows, no key.
            let prof = Profiler::new(o, "V", "scope", || (0, 0));
            prof.invocation();
            let window = prof.start(|| unreachable!("rows counted while off"));
            prof.finish(window, 1, OpPhase::Hop, "join", "R", || unreachable!("rows counted"));
            // Spans, events and provenance share the same gate word.
            let _span = o.span("dyno.step", &[field("depth", i)]);
            o.event(Level::Info, "dyno.fast_path", &[field("depth", i)]);
            o.prov(i, stage::ADMIT, &[field("source", i % 6), field("version", i)]);
            assert_eq!(o.prov_batch(&[i, i + 1], stage::MERGE, &[field("position", i)]), 0);
            o.profile_invocation("V", "scope");
        }
        disabled.counter("view.commits").inc();
        disabled.gauge("umq.depth").set(i as i64);
        disabled.histogram("replica.lag_us").record(i);
    }
    let delta = thread_allocations() - before;
    assert_eq!(delta, 0, "disabled profiler path allocated {delta} times in 10k iterations");
}

/// `R(K, V)` with `n` rows, keys `0..n / fanout`, each key on `fanout` rows.
fn keyed_relation(n: i64, fanout: i64) -> Relation {
    let schema = Schema::of("R", &[("K", AttrType::Int), ("V", AttrType::Int)]);
    Relation::from_tuples(schema, (0..n).map(|i| Tuple::of([i / fanout, i]))).expect("well-typed")
}

/// Building an index over N unique-key rows allocates each row's copy and
/// the bucket table: N + 2 allocations (the key positions and the table).
/// Buckets of one row live inline in the table; a bucket that owned a hash
/// map of its own cost ≈ 2N.
#[test]
fn building_a_key_index_allocates_one_copy_per_row() {
    const N: u64 = 2_000;
    let rel = keyed_relation(N as i64, 1);
    let attrs = vec!["K".to_string()];
    let before = thread_allocations();
    let index = HashIndex::build(&rel, attrs).expect("K exists");
    let allocs = thread_allocations() - before;
    assert_eq!(index.len(), N as usize);
    assert!(allocs <= N + 2, "building over {N} unique-key rows allocated {allocs} times");
}

/// A one-row-Δ SWEEP hop against a warm key index allocates its output set
/// and one row per match, and nothing else: the target and its index are
/// resolved in one provider call, and column positions, the probe key and
/// the covering check allocate nothing. Checked through a catalog and
/// through the union of a source space's catalogs, at fan-out 1 (the
/// testbed's key index) and 3.
#[test]
fn a_one_row_hop_allocates_its_output_and_one_row_per_match() {
    for fanout in [1, 3] {
        let mut catalog = Catalog::new();
        catalog.add_relation(keyed_relation(600, fanout)).expect("fresh catalog");
        catalog.create_index("R", &["K"]).expect("K exists");
        let mut space = SourceSpace::new();
        space.add_server(SourceServer::new(SourceId(0), "s0", catalog.clone()));
        let join_keys = vec![(0usize, "K".to_string())];
        let t_proj = vec!["V".to_string()];
        let mut delta = ZSet::new();
        delta.add(Tuple::of([Val::from(7), Val::str("d")]), 1);

        let hop = |label: &str, answer: &dyn Fn() -> ZSet| {
            let warm = answer();
            assert_eq!(warm.distinct_len(), fanout as usize, "{label}: the key's rows match");
            let before = thread_allocations();
            let out = answer();
            let allocs = thread_allocations() - before;
            let matches = out.distinct_len() as u64;
            assert_eq!(out, warm);
            assert!(
                allocs <= 1 + matches,
                "{label}: a one-row hop with {matches} match(es) allocated {allocs} times"
            );
        };
        hop(&format!("catalog, fan-out {fanout}"), &|| {
            delta_hop(&catalog, "R", &join_keys, &[], &t_proj, &delta).expect("hop")
        });
        let provider = space.provider();
        hop(&format!("source space, fan-out {fanout}"), &|| {
            delta_hop(&provider, "R", &join_keys, &[], &t_proj, &delta).expect("hop")
        });
    }
}
