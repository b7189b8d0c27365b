//! `dyno-benchmark` — how long a source commit takes to become visible in
//! a view extent, on real hardware, in wall-clock time.
//!
//! ```text
//! dyno-benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//!                    [--smoke] [--out FILE]
//! dyno-benchmark compare A.json B.json
//! ```
//!
//! `run --workload W` measures one workload in this process and ends with
//! the one-line JSON result that `BENCHMARK.json`'s driver reads. Without
//! `--workload`, `run` re-executes itself once per workload (and once more
//! per workload with `--trace`), so that peak memory and allocator state
//! are per workload. See `benchmark/README.md`.

mod driver;
mod layers;
mod metrics;
mod report;
mod run;
mod trace;
mod workload;

use std::error::Error;
use std::process::{Command, ExitCode};

use workload::{Spec, WORKLOADS};

/// `BENCHMARK.json`, one level above this package.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// `--smoke`: a twentieth of the rows and a fraction of a second per run —
/// enough to exercise every code path, far too little to quote a number.
const SMOKE_ROW_DIVISOR: usize = 20;
const SMOKE_SECONDS: f64 = 0.2;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed =
        RunArgs { workload: None, seed: 1, seconds: None, trace: false, smoke: false, out: None };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                parsed.seconds = Some(s);
            }
            "--out" => parsed.out = Some(value("a file name")?),
            "--smoke" => parsed.smoke = true,
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    parsed.trace = false;
                }
                Some("1") => {
                    it.next();
                    parsed.trace = true;
                }
                _ => parsed.trace = true,
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// glibc's allocator moves its mmap and trim thresholds with the sizes it
/// has seen, so whether a freed checkpoint buffer goes back to the kernel —
/// and is paged in again by the next checkpoint — depends on the order of
/// earlier allocations. On this sandbox that made `durable_du` flip between
/// two speeds a fifth apart from one repetition to the next. Pinning both
/// thresholds (never trim, mmap only above 32 MiB) keeps freed memory
/// mapped, which is also what lets the warm-up repetition pay the page
/// faults for the ones that are timed.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator_thresholds() {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` is glibc's documented tuning call; with these two
    // parameters it stores an integer each in the allocator's settings under
    // the allocator's own lock, and touches no memory of ours.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, c_int::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator_thresholds() {}

/// One workload, in this process. Prints the table, the detail line and —
/// last — the result line.
fn run_one(spec: &Spec, args: &RunArgs) -> Result<bool, Box<dyn Error>> {
    pin_allocator_thresholds();
    let spec = if args.smoke {
        Spec { rows: (spec.rows / SMOKE_ROW_DIVISOR).max(1), ..*spec }
    } else {
        *spec
    };
    let seconds =
        args.seconds.unwrap_or(if args.smoke { SMOKE_SECONDS } else { default_seconds() });
    let outcome = if args.trace {
        run::traced(&spec, args.seed, seconds)?
    } else {
        run::untraced(&spec, args.seed, seconds)?
    };
    println!(
        "{} seed {} seconds {} {}",
        spec.name,
        args.seed,
        seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    print!("{}", report::table(spec.name, &outcome));
    println!("detail {}", report::detail_line(&outcome));
    println!("{}", report::result_line(&outcome));
    Ok(outcome.correct)
}

/// `run_seconds` of `BENCHMARK.json`, so that a run by hand measures what
/// the driver measures; 10 when the file cannot be read.
fn default_seconds() -> f64 {
    std::fs::read_to_string(BENCHMARK_JSON)
        .ok()
        .and_then(|text| dyno_obs::json::parse(&text).ok())
        .and_then(|doc| doc.get("run_seconds").and_then(|v| v.as_num()))
        .unwrap_or(10.0)
}

/// Every workload, each in a fresh child process of this executable, so
/// that peak memory and allocator state are per workload.
fn run_all(args: &RunArgs) -> Result<bool, Box<dyn Error>> {
    let exe = std::env::current_exe()?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for spec in &WORKLOADS {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            let mut child = Command::new(&exe);
            child.args(["run", "--workload", spec.name, "--seed", &args.seed.to_string()]);
            child.args(["--trace", if trace { "1" } else { "0" }]);
            if let Some(s) = args.seconds {
                child.args(["--seconds", &s.to_string()]);
            }
            if args.smoke {
                child.arg("--smoke");
            }
            // `output` waits for the child to end.
            let output = child.output()?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut detail = None;
            for line in stdout.lines() {
                match line.strip_prefix("detail ") {
                    Some(d) => detail = Some(d.to_string()),
                    // The child's result line is for the driver, not for people.
                    None if line.starts_with('{') => {}
                    None => println!("{line}"),
                }
            }
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            all_correct &= output.status.success();
            let detail = detail.ok_or_else(|| format!("{}: no result from child", spec.name))?;
            runs.push(format!(
                "{{\"workload\":\"{}\",\"trace\":{},\"result\":{detail}}}",
                spec.name,
                u8::from(trace)
            ));
        }
    }
    if let Some(path) = &args.out {
        let doc = format!("{{\"seed\":{},\"runs\":[\n{}\n]}}\n", args.seed, runs.join(",\n"));
        std::fs::write(path, doc)?;
        println!("wrote {path}");
    }
    Ok(all_correct)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dyno-benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] \
         [--smoke] [--out FILE]\n       dyno-benchmark compare A.json B.json\nworkloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ok = match args.first().map(String::as_str) {
        Some("run") => {
            let parsed = match parse_run_args(&args[1..]) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: {e}");
                    return usage();
                }
            };
            match &parsed.workload {
                Some(name) => match workload::find(name) {
                    Some(spec) => run_one(spec, &parsed),
                    None => {
                        eprintln!("error: unknown workload `{name}`");
                        return usage();
                    }
                },
                None => run_all(&parsed),
            }
        }
        Some("compare") if args.len() == 3 => report::compare(&args[1], &args[2], BENCHMARK_JSON)
            .map_err(Into::into)
            .map(|(table, pass)| {
                print!("{table}");
                pass
            }),
        _ => return usage(),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
