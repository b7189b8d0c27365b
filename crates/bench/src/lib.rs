//! Shared helpers for the experiment binaries (`fig04`, `fig05`,
//! `fig08`–`fig12`) that regenerate the paper's figures, and for the
//! in-repo micro-benchmarks ([`harness`]).

use dyno_sim::{Experiment, Report, TestbedConfig};

pub mod harness;

/// Command-line options shared by the experiment binaries.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// `--json <path>`: also write the figure's series as JSON.
    pub json: Option<String>,
    /// `--trace <path>`: run one representative scenario with structured
    /// tracing on, writing the JSONL trace to `<path>` and the metrics
    /// snapshot to `<path>.metrics.json` (binaries that support it).
    pub trace: Option<String>,
    /// `--chrome <path>`: run one representative scenario with tracing and
    /// lineage on, writing a Chrome `trace_event` JSON document to `<path>`
    /// — load it in Perfetto to see per-subsystem lanes and per-update flow
    /// arrows (binaries that support it).
    pub chrome: Option<String>,
}

impl BenchArgs {
    /// Parses `std::env::args`, exiting with a usage message on unknown
    /// flags.
    pub fn parse() -> BenchArgs {
        let mut out = BenchArgs::default();
        let mut args = std::env::args().skip(1);
        let bin = std::env::args().next().unwrap_or_else(|| "bench".into());
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" => out.json = args.next().or_else(|| usage(&bin)),
                "--trace" => out.trace = args.next().or_else(|| usage(&bin)),
                "--chrome" => out.chrome = args.next().or_else(|| usage(&bin)),
                _ => {
                    usage(&bin);
                }
            }
        }
        out
    }
}

fn usage(bin: &str) -> Option<String> {
    eprintln!("usage: {bin} [--json <path>] [--trace <path>] [--chrome <path>]");
    std::process::exit(2);
}

/// Writes a figure's table as JSON: `{"figure": ..., "header": [...],
/// "rows": [[...], ...]}`, with all strings escaped by the obs JSON
/// writer. Cells are emitted as numbers when they parse as such, so the
/// series plot directly.
pub fn write_json_table(
    path: &str,
    figure: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    write_json_table_with_status(path, figure, header, rows, None)
}

/// Like [`write_json_table`], with a trailing `"last_error"` field: `null`
/// for a clean run, or the warehouse's sticky
/// [`dyno_view::Warehouse::last_error`] message — so scripts consuming a
/// figure can tell a truncated series from a complete one.
pub fn write_json_table_with_status(
    path: &str,
    figure: &str,
    header: &[&str],
    rows: &[Vec<String>],
    last_error: Option<&str>,
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\"figure\":");
    dyno_obs::json::push_str(&mut out, figure);
    out.push_str(",\"header\":[");
    for (i, h) in header.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        dyno_obs::json::push_str(&mut out, h);
    }
    out.push_str("],\"rows\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, cell) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            // A bare numeric cell (no %, units, or commas) stays a number.
            if cell.parse::<f64>().map(f64::is_finite).unwrap_or(false) {
                out.push_str(cell);
            } else {
                dyno_obs::json::push_str(&mut out, cell);
            }
        }
        out.push(']');
    }
    out.push(']');
    match last_error {
        Some(e) => {
            out.push_str(",\"last_error\":");
            dyno_obs::json::push_str(&mut out, e);
        }
        None => out.push_str(",\"last_error\":null"),
    }
    out.push_str("}\n");
    std::fs::write(path, out)
}

/// Reads the testbed scale from `DYNO_TUPLES` (tuples per relation).
/// Defaults to 2 000 for reasonable wall-clock time on one core; pass
/// `DYNO_TUPLES=100000` for the paper's full size. The cost model is
/// re-calibrated per scale ([`dyno_sim::CostModel::calibrated`]), so the
/// simulated-second results keep the paper's magnitudes at any size.
pub fn testbed_config() -> TestbedConfig {
    let tuples = std::env::var("DYNO_TUPLES").ok().and_then(|s| s.parse().ok()).unwrap_or(2_000);
    TestbedConfig { tuples_per_relation: tuples, ..Default::default() }
}

/// The cost model matched to [`testbed_config`]'s scale.
pub fn cost_model() -> dyno_sim::CostModel {
    dyno_sim::CostModel::calibrated(testbed_config().tuples_per_relation as u64)
}

/// Runs one figure cell's experiment. A cell from a run that could not be set
/// up, died or did not converge would be a wrong number, so all three panic
/// naming the cell.
pub fn run_converged(cell: &str, exp: Experiment) -> Report {
    let report = dyno_sim::run(exp).unwrap_or_else(|e| panic!("{cell}: {e}"));
    assert!(report.converged, "{cell} must converge (last error: {:?})", report.last_error);
    report
}

/// Warns when running unoptimized (the experiment binaries are meant to run
/// with `--release`).
pub fn warn_if_debug() {
    #[cfg(debug_assertions)]
    eprintln!(
        "note: running a debug build; pass --release for sensible wall-clock time \
         (simulated results are identical)"
    );
}

/// Renders an aligned text table: header row plus data rows.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    let mut out = fmt_row(&header_cells);
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Formats seconds with one decimal.
pub fn secs(us: u64) -> String {
    format!("{:.1}", us as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()], vec!["100".into(), "20000000".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn secs_format() {
        assert_eq!(secs(1_500_000), "1.5");
        assert_eq!(secs(0), "0.0");
    }

    #[test]
    fn json_table_quotes_text_and_passes_numbers() {
        let dir = std::env::temp_dir().join("dyno_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        write_json_table(
            path.to_str().unwrap(),
            "fig-test",
            &["n", "cost (s)"],
            &[vec!["100".into(), "1.5".into()], vec!["200".into(), "+0.25%".into()]],
        )
        .unwrap();
        let got = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            got,
            "{\"figure\":\"fig-test\",\"header\":[\"n\",\"cost (s)\"],\
             \"rows\":[[100,1.5],[200,\"+0.25%\"]],\"last_error\":null}\n"
        );
    }

    #[test]
    fn json_table_surfaces_last_error() {
        let dir = std::env::temp_dir().join("dyno_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("err.json");
        write_json_table_with_status(
            path.to_str().unwrap(),
            "chaos",
            &["seed", "converged"],
            &[vec!["1".into(), "false".into()]],
            Some("source \"2\" unavailable: retry budget exhausted"),
        )
        .unwrap();
        let got = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            got,
            "{\"figure\":\"chaos\",\"header\":[\"seed\",\"converged\"],\
             \"rows\":[[1,\"false\"]],\
             \"last_error\":\"source \\\"2\\\" unavailable: retry budget exhausted\"}\n",
            "the error lands in a dedicated field, JSON-escaped"
        );
    }
}
