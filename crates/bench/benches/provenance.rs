//! Provenance overhead: the lineage layer must be free when it is off.
//!
//! Three levels are measured:
//!
//! * the raw `prov()` call — disabled collector, enabled-but-off, and on
//!   (the on path pays a clock read, a `Vec` copy of the fields, and a
//!   ring append);
//! * a full maintenance run (the SWEEP-heavy mixed workload of the chaos
//!   suite, fault-free) with lineage off vs. on;
//! * and, before any timing, a **hard assertion** that the off paths
//!   allocate nothing: a counting global allocator brackets 10 000 `prov`
//!   calls on a disabled and an enabled-but-off collector and demands a
//!   delta of zero.
//!
//! `DYNO_BENCH_JSON` appends results as JSON lines (see `BENCH_pr5.json`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use dyno_bench::harness::Harness;
use dyno_bench::run_converged;
use dyno_obs::{field, stage, Capture, Collector, VirtualClock};
use dyno_sim::{build_testbed, Experiment, TestbedConfig, WorkloadGen};

/// Counts every heap allocation (alloc + realloc + alloc_zeroed).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// 10 000 `prov` calls against `obs` must not allocate.
fn assert_zero_alloc(label: &str, obs: &Collector) {
    let before = allocations();
    for i in 0..10_000u64 {
        obs.prov(black_box(i), stage::ADMIT, &[field("source", i % 6), field("version", i)]);
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "{label}: prov with lineage off must not allocate (saw {delta})");
    println!("zero-alloc check ({label}): 10000 prov calls, 0 allocations");
}

/// The chaos suite's mixed workload, fault-free: 12 DUs + 3 SCs over a
/// 200-tuple testbed — every SWEEP/merge/reorder instrumentation point runs.
fn sweep_scenario(lineage: bool) -> Experiment {
    let cfg = TestbedConfig { tuples_per_relation: 200, ..Default::default() };
    let (space, view) = build_testbed(&cfg);
    let mut gen = WorkloadGen::new(cfg, 42);
    let mut schedule = gen.du_flood(12);
    schedule.extend(gen.sc_train(3, 1_000_000, 20_000_000));
    let capture = if lineage { Capture::PROV } else { Capture::NONE };
    Experiment { capture, ..Experiment::new(space, vec![view], schedule) }
}

fn main() {
    assert_zero_alloc("disabled collector", &Collector::disabled());
    let enabled = Collector::with_virtual_clock(VirtualClock::new());
    assert_zero_alloc("enabled, lineage off", &enabled);
    println!();

    let mut h = Harness::new("provenance");

    // Raw call overhead at each gate level.
    let disabled = Collector::disabled();
    h.bench("prov/disabled", || {
        disabled.prov(black_box(7), stage::ADMIT, &[field("source", 1u64)]);
    });
    let off = Collector::with_virtual_clock(VirtualClock::new());
    h.bench("prov/enabled_off", || {
        off.prov(black_box(7), stage::ADMIT, &[field("source", 1u64)]);
    });
    let on =
        Collector::with_virtual_clock(VirtualClock::new()).with_capture(Capture::PROV, 64 * 1024);
    h.bench("prov/on", || {
        on.prov(black_box(7), stage::ADMIT, &[field("source", 1u64)]);
    });

    // Whole maintenance runs: the number the ISSUE cares about — what does
    // switching lineage on cost an entire sweep-heavy run.
    h.bench_with_setup(
        "sweep_run/lineage_off",
        || sweep_scenario(false),
        |s| run_converged("lineage off", s).steps,
    );
    h.bench_with_setup(
        "sweep_run/lineage_on",
        || sweep_scenario(true),
        |s| {
            let r = run_converged("lineage on", s);
            assert!(!r.obs.records().is_empty(), "lineage actually captured");
            r.steps
        },
    );

    h.finish();
}
