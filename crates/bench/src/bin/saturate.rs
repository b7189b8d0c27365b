//! The saturation-curve capacity sweep: step the open-loop arrival rate
//! across a fixed grid and chart admitted throughput against p99 staleness
//! until the warehouse hits its knee — the first rate where the maintenance
//! pipeline stops keeping up (p99 staleness blows past 2× the baseline, or
//! the bounded UMQ starts shedding).
//!
//! Every step is one monitored [`run`] with the per-operator profiler on,
//! so the sweep also answers *why* the knee is where it is: the heaviest
//! step's `EXPLAIN ANALYZE` plan tree is printed after the curve, showing
//! which operator's rows grew superlinearly with offered load.
//!
//! `--json <path>` writes one JSONL line per rate plus a `knee` summary
//! line, keyed by `group`/`bench` so `benchdiff` can compare captures
//! (`BENCH_pr10.json` is the checked-in default-grid capture). Only
//! virtual-clock-deterministic fields land in the JSON — admitted/shed
//! counts, step counts, staleness quantiles, and profile row/probe totals.
//! Wall-nanosecond timings stay in the text render, never the capture.
//!
//! Staleness and the knee are *simulated* time (the `sim::cost` model), not
//! hardware time, and the text render labels them so; only the operator
//! profile's ns columns are wall-clock.

use dyno_bench::render_table;
use dyno_obs::{Capture, Profile, SloPolicy};
use dyno_sim::{run, Experiment, Monitor, OpenLoopConfig, TestbedConfig};

fn usage(bin: &str) -> ! {
    eprintln!(
        "usage: {bin} [--seed N] [--duration-s N] [--tuples N] [--umq-bound N] [--json <path>]"
    );
    std::process::exit(2);
}

/// The default rate grid, DU/s. Chosen so the bounded warehouse is
/// comfortable at the low end and firmly saturated at the high end.
const RATES: [u64; 6] = [1, 2, 4, 8, 16, 24];

/// One sweep step's deterministic measurements.
struct StepResult {
    rate: u64,
    admitted: u64,
    shed: u64,
    steps: u64,
    samples: u64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    /// Deterministic profile totals summed over every plan node:
    /// (rows_in, rows_out, weights_cancelled, index_probes).
    prof: (u64, u64, u64, u64),
    profile: Profile,
}

/// Sums the deterministic columns of every node in every plan. The `ns`
/// column is wall-clock and deliberately not aggregated here.
fn profile_totals(p: &Profile) -> (u64, u64, u64, u64) {
    let mut t = (0u64, 0u64, 0u64, 0u64);
    for (_, plan) in p.plans() {
        for agg in plan.nodes.values() {
            t.0 += agg.rows_in;
            t.1 += agg.rows_out;
            t.2 += agg.weights_cancelled;
            t.3 += agg.index_probes;
        }
    }
    t
}

fn sweep_experiment(
    rate: u64,
    seed: u64,
    duration_s: u64,
    tuples: usize,
    bound: usize,
) -> Experiment {
    let load = OpenLoopConfig {
        duration_us: duration_s * 1_000_000,
        du_per_sec: rate as f64,
        zipf_skew: 0.8,
        diurnal_amplitude: 0.0,
        sc_storms: 0,
        ..Default::default()
    };
    Experiment {
        umq_bound: if bound == 0 { None } else { Some(bound) },
        monitor: Some(Monitor {
            slo: SloPolicy::target(15_000_000),
            drain_windows: 8,
            ..Default::default()
        }),
        capture: Capture::PROFILE,
        ..Experiment::open_loop(
            TestbedConfig { tuples_per_relation: tuples, ..Default::default() },
            &load,
            seed,
            2,
        )
    }
}

fn run_step(rate: u64, seed: u64, duration_s: u64, tuples: usize, bound: usize) -> StepResult {
    let report =
        run(sweep_experiment(rate, seed, duration_s, tuples, bound)).expect("saturate sweep step");
    assert!(report.last_error.is_none(), "rate {rate} DU/s died: {:?}", report.last_error);
    assert!(!report.exhausted, "step budget exhausted at rate {rate} DU/s");
    // Lane 0 is the full testbed join — the heaviest view and the one whose
    // staleness defines the knee.
    let tracker = &report.telemetry.as_ref().expect("monitored run").tracker;
    let (samples, p50_us, p95_us, p99_us) = tracker.lifetime(0);
    let profile = report.obs.profile_snapshot();
    StepResult {
        rate,
        admitted: report.counter("umq.admitted"),
        shed: report.counter("umq.shed"),
        steps: report.steps,
        samples,
        p50_us,
        p95_us,
        p99_us,
        prof: profile_totals(&profile),
        profile,
    }
}

/// The knee: the first rate whose p99 staleness exceeds 2× the lowest-rate
/// baseline, or whose admission bound shed load. Falls back to the largest
/// step-over-step p99 increase when the grid never crosses either line.
fn find_knee(steps: &[StepResult]) -> usize {
    let baseline_p99 = steps[0].p99_us.max(1);
    for (i, s) in steps.iter().enumerate().skip(1) {
        if s.shed > 0 || s.p99_us > 2 * baseline_p99 {
            return i;
        }
    }
    let mut best = steps.len() - 1;
    let mut best_ratio = 0.0f64;
    for i in 1..steps.len() {
        let prev = steps[i - 1].p99_us.max(1) as f64;
        let ratio = steps[i].p99_us as f64 / prev;
        if ratio > best_ratio {
            best_ratio = ratio;
            best = i;
        }
    }
    best
}

fn jsonl(steps: &[StepResult], knee: usize, seed: u64, duration_s: u64) -> String {
    let mut out = String::new();
    for s in steps {
        out.push_str(&format!(
            "{{\"group\":\"saturate\",\"bench\":\"r{}\",\"rate_du_per_sec\":{},\
             \"admitted\":{},\"shed\":{},\"steps\":{},\"staleness_samples\":{},\
             \"staleness_p50_us\":{},\"staleness_p95_us\":{},\"staleness_p99_us\":{},\
             \"profile_rows_in\":{},\"profile_rows_out\":{},\"profile_cancelled\":{},\
             \"profile_probes\":{}}}\n",
            s.rate,
            s.rate,
            s.admitted,
            s.shed,
            s.steps,
            s.samples,
            s.p50_us,
            s.p95_us,
            s.p99_us,
            s.prof.0,
            s.prof.1,
            s.prof.2,
            s.prof.3,
        ));
    }
    let k = &steps[knee];
    out.push_str(&format!(
        "{{\"group\":\"saturate\",\"bench\":\"knee\",\"seed\":{seed},\"duration_s\":{duration_s},\
         \"knee_rate_du_per_sec\":{},\"baseline_p99_us\":{},\"knee_p99_us\":{},\
         \"knee_shed\":{}}}\n",
        k.rate, steps[0].p99_us, k.p99_us, k.shed,
    ));
    out
}

fn main() {
    dyno_bench::warn_if_debug();
    let bin = std::env::args().next().unwrap_or_else(|| "saturate".into());
    let mut seed = 42u64;
    let mut duration_s = 20u64;
    let mut tuples = 80usize;
    let mut bound = 12usize;
    let mut json: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage(&bin))
            }
            "--duration-s" => {
                duration_s = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage(&bin))
            }
            "--tuples" => {
                tuples = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage(&bin))
            }
            "--umq-bound" => {
                bound = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage(&bin))
            }
            "--json" => json = Some(args.next().unwrap_or_else(|| usage(&bin))),
            _ => usage(&bin),
        }
    }

    println!(
        "== saturation sweep: rates {RATES:?} DU/s, {duration_s}s simulated, \
         {tuples} tuples/relation, umq bound {bound}, seed {seed} ==\n"
    );
    let steps: Vec<StepResult> =
        RATES.iter().map(|&r| run_step(r, seed, duration_s, tuples, bound)).collect();

    // The offered-load ramp must actually ramp: a flat admitted column means
    // the grid is mis-sized, not that the warehouse saturated.
    for w in steps.windows(2) {
        assert!(
            w[1].admitted + w[1].shed >= w[0].admitted + w[0].shed,
            "offered load must be nondecreasing across the rate grid"
        );
    }

    let knee = find_knee(&steps);
    let header = [
        "rate DU/s",
        "admitted",
        "shed",
        "steps",
        "p50 simulated",
        "p95 simulated",
        "p99 simulated",
        "rows_out",
        "probes",
        "",
    ];
    let rows: Vec<Vec<String>> = steps
        .iter()
        .enumerate()
        .map(|(i, s)| {
            vec![
                s.rate.to_string(),
                s.admitted.to_string(),
                s.shed.to_string(),
                s.steps.to_string(),
                format!("{}µs", s.p50_us),
                format!("{}µs", s.p95_us),
                format!("{}µs", s.p99_us),
                s.prof.1.to_string(),
                s.prof.3.to_string(),
                if i == knee { "← knee".to_string() } else { String::new() },
            ]
        })
        .collect();
    println!("{}", render_table(&header, &rows));
    println!(
        "knee: {} DU/s in simulated time (baseline p99 {}µs → {}µs simulated, shed {})\n",
        steps[knee].rate, steps[0].p99_us, steps[knee].p99_us, steps[knee].shed
    );

    // Why the knee is where it is: the per-operator plan trees of the knee
    // step. ns columns are wall-clock — informative here, never in the JSON.
    println!("-- operator profile at the knee ({} DU/s) --\n", steps[knee].rate);
    print!("{}", steps[knee].profile.render_text(None));

    if let Some(path) = json {
        std::fs::write(&path, jsonl(&steps, knee, seed, duration_s)).expect("write --json output");
        println!("\nwrote {path}");
    }
}
