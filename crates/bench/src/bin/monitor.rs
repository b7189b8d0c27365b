//! The live-load monitor: an open-loop workload against a bounded-UMQ
//! warehouse, with the full telemetry stack on — registry time series
//! (`obs::timeseries`), per-view staleness lanes, and burn-rate SLO states
//! (`obs::slo`). Prints the text dashboard; `--json` writes the combined
//! series document (`BENCH_scale.json` is a checked-in capture of the
//! default burst profile).
//!
//! Profiles:
//! * `burst` (default) — diurnal Zipfian DU load with hot-key SC storms
//!   against a small admission bound: the UMQ sheds hard under the peaks
//!   (`umq.shed`, `view.clamped_rows`), which is exactly what keeps the
//!   staleness lanes inside the SLO — load is dropped, not delayed.
//! * `slow-source` — a long rename train stalls maintenance mid-run:
//!   every lane walks ok → warn → page, then recovers to ok over the
//!   drain windows.
//! * `steady` — an unbounded, low-rate control run that stays ok
//!   everywhere.
//!
//! Everything is virtual-clock driven, so every number in the dashboard
//! and the JSON is deterministic for a given `--seed` (the `--overhead`
//! section, which measures *wall-clock* sampling cost, is the one
//! exception and is off by default).

use dyno_obs::SloPolicy;
use dyno_sim::{run, Experiment, Monitor, OpenLoopConfig, TestbedConfig};

fn usage(bin: &str) -> ! {
    eprintln!(
        "usage: {bin} [--profile burst|slow-source|steady] [--seed N] \
         [--duration-s N] [--json <path>] [--overhead] [--umq-bound N] [--storms N]"
    );
    std::process::exit(2);
}

/// The profile's open-loop arrival process, UMQ bound, staleness SLO target
/// and drain windows; `storms` overrides its schema-change storm count.
fn profile_experiment(
    profile: &str,
    seed: u64,
    duration_s: u64,
    storms: Option<usize>,
) -> Experiment {
    let duration_us = duration_s * 1_000_000;
    let (mut load, umq_bound, slo_us, drain_windows) = match profile {
        "burst" => (
            OpenLoopConfig {
                duration_us,
                du_per_sec: 6.0,
                zipf_skew: 1.1,
                diurnal_amplitude: 0.9,
                diurnal_period_us: duration_us / 4,
                sc_storms: 2,
                sc_storm_len: 2,
                sc_storm_gap_us: 2_000_000,
            },
            Some(16),
            15_000_000,
            16,
        ),
        "slow-source" => (
            OpenLoopConfig {
                duration_us,
                du_per_sec: 1.0,
                sc_storms: 1,
                sc_storm_len: 8,
                sc_storm_gap_us: 2_000_000,
                ..Default::default()
            },
            None,
            3_000_000,
            24,
        ),
        "steady" => (
            OpenLoopConfig {
                duration_us,
                du_per_sec: 2.0,
                diurnal_amplitude: 0.3,
                sc_storms: 0,
                ..Default::default()
            },
            None,
            15_000_000,
            12,
        ),
        other => {
            eprintln!("unknown profile: {other}");
            std::process::exit(2);
        }
    };
    if let Some(s) = storms {
        load.sc_storms = s;
    }
    let testbed = TestbedConfig { tuples_per_relation: 300, ..Default::default() };
    Experiment {
        umq_bound,
        monitor: Some(Monitor {
            slo: SloPolicy::target(slo_us),
            drain_windows,
            ..Default::default()
        }),
        ..Experiment::open_loop(testbed, &load, seed, 3)
    }
}

/// Wall-clock cost of the telemetry itself: the steady profile run twice,
/// once sampling every window and once with the sampler effectively off
/// (one window spanning the whole run). Reported so regressions in
/// sampling cost show up in `BENCH_scale.json`; inherently noisy.
fn overhead_json(seed: u64, duration_s: u64) -> String {
    let timed = |window_us: u64| -> (u128, u64) {
        let mut exp = profile_experiment("steady", seed, duration_s, None);
        exp.monitor.as_mut().expect("open-loop runs are monitored").window_us = window_us;
        let t0 = std::time::Instant::now();
        let report = run(exp).expect("steady overhead run");
        (t0.elapsed().as_nanos(), report.telemetry.expect("monitored run").sampler.windows())
    };
    let (with_ns, with_windows) = timed(1_000_000);
    let (without_ns, without_windows) = timed(duration_s * 1_000_000 * 4);
    format!(
        "{{\"sampled_wall_ns\":{with_ns},\"sampled_windows\":{with_windows},\
         \"unsampled_wall_ns\":{without_ns},\"unsampled_windows\":{without_windows}}}"
    )
}

fn main() {
    let bin = std::env::args().next().unwrap_or_else(|| "monitor".into());
    let mut profile = "burst".to_string();
    let mut seed = 42u64;
    let mut duration_s = 120u64;
    let mut json: Option<String> = None;
    let mut overhead = false;
    let mut umq_bound: Option<usize> = None;
    let mut storms: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--profile" => profile = args.next().unwrap_or_else(|| usage(&bin)),
            "--seed" => {
                seed = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage(&bin))
            }
            "--duration-s" => {
                duration_s = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage(&bin))
            }
            "--json" => json = Some(args.next().unwrap_or_else(|| usage(&bin))),
            "--overhead" => overhead = true,
            "--umq-bound" => {
                umq_bound =
                    Some(args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage(&bin)))
            }
            "--storms" => {
                storms =
                    Some(args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage(&bin)))
            }
            _ => usage(&bin),
        }
    }

    let mut exp = profile_experiment(&profile, seed, duration_s, storms);
    if let Some(b) = umq_bound {
        exp.umq_bound = if b == 0 { None } else { Some(b) };
    }
    println!("== live monitor: profile {profile}, seed {seed}, {duration_s}s simulated ==\n");
    let report = run(exp).expect("monitored run");
    assert!(report.last_error.is_none(), "monitored run died: {:?}", report.last_error);
    print!("{}", report.render_text());

    if let Some(path) = json {
        let mut doc = report.to_json();
        if overhead {
            doc.pop();
            doc.push_str(",\n\"overhead\":");
            doc.push_str(&overhead_json(seed, duration_s.min(60)));
            doc.push('}');
        }
        doc.push('\n');
        std::fs::write(&path, doc).expect("write --json output");
        println!("wrote {path}");
    }
}
