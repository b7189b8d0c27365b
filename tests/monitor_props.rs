//! Properties of monitored open-loop runs (DESIGN.md §14): the
//! telemetry stack — registry time series (`obs::timeseries`), per-view
//! staleness lanes and burn-rate SLO states (`obs::slo`) — observed against
//! the open-loop workload generator:
//!
//! * **burst** — a diurnal Zipfian load against a small admission bound
//!   sheds hard (nonzero `shed`, clamped extents) while producing a dense
//!   window series for every registry metric;
//! * **slow-source** — a rename train stalls maintenance until every lane
//!   pages (through warn first — the burn-rate ladder never skips a rung on
//!   the way up from ok), then recovers to ok over the drain windows;
//! * **determinism** — the entire report (every series point, transition,
//!   and counter) is a pure function of the seed.
//!
//! Scales are kept small (tens of simulated seconds, 60-tuple relations);
//! the full-size profiles live in `dyno-bench monitor`.

use dyno::obs::{SloPolicy, SloState};
use dyno::sim::{run, Experiment, Monitor, OpenLoopConfig, Report, Telemetry, TestbedConfig};

/// Runs a monitored experiment that must neither die nor exhaust its budget.
fn monitored(exp: Experiment) -> (Report, Telemetry) {
    let mut report = run(exp).expect("testbed views initialize");
    assert!(report.last_error.is_none(), "run died: {:?}", report.last_error);
    assert!(!report.exhausted, "must finish within the step budget");
    let telemetry = report.telemetry.take().expect("open-loop runs are monitored");
    (report, telemetry)
}

/// The bursty bounded-UMQ scenario at test scale.
fn burst(seed: u64) -> Experiment {
    let load = OpenLoopConfig {
        duration_us: 40_000_000,
        du_per_sec: 6.0,
        zipf_skew: 1.1,
        diurnal_amplitude: 0.9,
        diurnal_period_us: 10_000_000,
        sc_storms: 2,
        sc_storm_len: 2,
        sc_storm_gap_us: 2_000_000,
    };
    Experiment {
        umq_bound: Some(8),
        monitor: Some(Monitor {
            slo: SloPolicy::target(15_000_000),
            drain_windows: 16,
            ..Default::default()
        }),
        ..Experiment::open_loop(
            TestbedConfig { tuples_per_relation: 60, ..Default::default() },
            &load,
            seed,
            3,
        )
    }
}

/// The stalled-maintenance scenario. Full-size relations: the stall that
/// drives the page state is the cost of re-adapting the views, which
/// scales with the extent — at toy scale the train clears too fast to
/// breach the SLO.
fn slow_source() -> Experiment {
    let load = OpenLoopConfig {
        duration_us: 40_000_000,
        du_per_sec: 1.0,
        sc_storms: 1,
        sc_storm_len: 8,
        sc_storm_gap_us: 2_000_000,
        ..Default::default()
    };
    Experiment {
        monitor: Some(Monitor {
            slo: SloPolicy::target(3_000_000),
            drain_windows: 24,
            ..Default::default()
        }),
        ..Experiment::open_loop(
            TestbedConfig { tuples_per_relation: 300, ..Default::default() },
            &load,
            42,
            3,
        )
    }
}

#[test]
fn burst_profile_sheds_and_samples_densely() {
    let (report, Telemetry { sampler, tracker }) = monitored(burst(42));
    assert!(report.counter("umq.shed") > 0, "the admission bound must actually shed");
    assert!(report.counter("umq.admitted") > 0, "and still admit most of the load");
    assert!(sampler.windows() >= 20, "a dense window series");
    assert!(sampler.series_count() >= 3, "several registry series");
    assert!(
        sampler.counter_points("umq.shed").iter().any(|&(_, d)| d > 0),
        "sheds are visible as a per-window rate, not just a lifetime total"
    );
    // Shedding implies clamped deletes sooner or later; at minimum the
    // series must exist so a zero is a statement, not an omission.
    assert!(
        sampler.counter_points("view.clamped_rows").len() >= 20,
        "the clamp counter is sampled every window"
    );
    for (lane, name) in tracker.view_names().iter().enumerate() {
        let (count, _p50, _p95, p99) = tracker.lifetime(lane);
        assert!(count > 0, "lane {name} measured refreshes");
        assert!(p99 > 0, "lane {name} has a lifetime p99");
    }
}

#[test]
fn slow_source_pages_then_recovers() {
    let (_, Telemetry { tracker, .. }) = monitored(slow_source());
    let transitions = tracker.transitions();
    assert!(
        transitions.iter().any(|(_, _, _, to)| *to == SloState::Page),
        "the stall must page at least one lane: {transitions:?}"
    );
    // The burn-rate ladder climbs rung by rung: a lane can only reach page
    // from warn, so its first page transition must be preceded by its own
    // ok→warn.
    for (at, view, _from, to) in &transitions {
        if *to == SloState::Page {
            assert!(
                transitions
                    .iter()
                    .any(|(a2, v2, _, t2)| v2 == view && *t2 == SloState::Warn && a2 <= at),
                "{view} paged at {at} without warning first: {transitions:?}"
            );
        }
    }
    for (name, state) in tracker.states() {
        assert_eq!(state, SloState::Ok, "lane {name} must recover over the drain windows");
    }
}

#[test]
fn dropped_lane_stops_contributing_to_burn_rate_evaluation() {
    // Regression: lanes registered by `Warehouse::initialize` were never
    // deregistered, so a rotated-out tenant view kept aging forever and
    // eventually paged the SLO on traffic it no longer consumed.
    use dyno::obs::StalenessTracker;

    let tracker = StalenessTracker::new(64);
    tracker.set_slo(SloPolicy::target(1_000));
    tracker.set_cadence(1_000_000, 0);
    let a = tracker.register_view("A", &[0]);
    let b = tracker.register_view("B", &[0]);
    let c = tracker.register_view("C", &[1]);

    // One commit each view reads, refreshed only by A and C: B is now the
    // tenant being rotated out with a commit still pending.
    tracker.note_commit(0, 1, 10);
    tracker.note_commit(1, 1, 10);
    tracker.note_refresh_for(a, &[(0, 1)], 500);
    tracker.note_refresh_for(c, &[(1, 1)], 500);
    assert!(tracker.current_staleness_us(b, 1_000) > 0, "B's pending commit is aging");

    tracker.drop_view(b);
    assert!(tracker.is_retired(b));
    assert!(!tracker.is_retired(a) && !tracker.is_retired(c), "peers untouched");
    assert_eq!(
        tracker.current_staleness_us(b, u64::MAX / 2),
        0,
        "retirement discards the pending backlog"
    );

    // New commits and refreshes no longer touch the tombstoned lane…
    tracker.note_commit(0, 2, 2_000);
    assert_eq!(tracker.current_staleness_us(b, 1_000_000), 0, "retired lanes ignore commits");
    let (count_before, ..) = tracker.lifetime(b);
    tracker.note_refresh_for(b, &[(0, 2)], 2_500);
    let (count_after, ..) = tracker.lifetime(b);
    assert_eq!(count_before, count_after, "refreshing a retired lane is a no-op");

    // …while surviving lanes keep their indexes and keep measuring.
    tracker.note_refresh_for(a, &[(0, 2)], 3_000);
    let (a_count, ..) = tracker.lifetime(a);
    assert_eq!(a_count, 2, "A resolved both commits under its stable index");

    // Burn-rate evaluation over many windows of un-refreshed aging: the
    // survivors may escalate, the retired lane must stay out of the ladder.
    tracker.note_commit(1, 2, 3_000);
    tracker.maybe_sample(80_000_000);
    let states = tracker.states();
    assert_eq!(states.len(), 3, "tombstoned in place: indices stay stable");
    assert_eq!(states[b].1, SloState::Ok, "a rotated-out view can never warn or page");
    assert_ne!(states[c].1, SloState::Ok, "a live stalled lane still escalates");
}

#[test]
fn monitor_report_is_a_pure_function_of_the_seed() {
    let json = |seed| run(burst(seed)).expect("testbed views initialize").to_json();
    let a = json(42);
    assert_eq!(a, json(42), "same seed, byte-identical report");
    assert_ne!(a, json(7), "a different seed moves the series");
}
