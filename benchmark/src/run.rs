//! One run of one workload, in this process: an untraced run gives the
//! end-to-end metrics, a traced run the per-layer ones.

use std::error::Error;
use std::path::PathBuf;
use std::time::Duration;

use crate::driver::{
    recover_and_compare, run_rep, set_up_plain, set_up_traced, verify, Budget, Rep,
};
use crate::layers::{self, Layer};
use crate::metrics::{Def, Stat, END_TO_END, PER_LAYER};
use crate::trace::SpanBuffer;
use crate::workload::{Generator, Spec};

/// Timed repetitions of an untraced run; one more, run first, is discarded.
pub const REPS: usize = 8;

/// Untraced/traced repetition pairs of a traced run, after one warm-up.
pub const TRACE_PAIRS: usize = 3;

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Every oracle check passed and every update became visible.
    pub correct: bool,
    /// Source updates committed, warm-up included.
    pub attempted: u64,
    /// Updates never visible + failed commits and steps + oracle, recovery
    /// and count-repeat mismatches.
    pub failed: u64,
    /// The metrics, in catalogue order.
    pub metrics: Vec<(Def, Stat)>,
    /// Lines for the human-readable report only.
    pub notes: Vec<String>,
}

/// Where traced runs leave their span files.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn budget(spec: &Spec, seconds: f64, reps: usize) -> Budget {
    let per_rep = seconds / reps as f64;
    Budget {
        rounds: ((spec.rounds_per_s * per_rep).round() as u64).max(1),
        // Twice the nominal time, plus what keeps a smoke-sized repetition
        // of a debug build from ever being cut short.
        cap: Duration::from_secs_f64(2.0 * per_rep + 5.0),
    }
}

fn peak_rss_mib() -> Result<f64, Box<dyn Error>> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or("no VmHWM in /proc/self/status")?
        .parse()?;
    Ok(kib / 1024.0)
}

fn note_rep(notes: &mut Vec<String>, label: &str, rep: &Rep) {
    notes.push(format!(
        "{label}: {} rounds, {} updates, {} visible samples, timed section {:.3} s, \
         {:.1} updates/s, visible p50 {:.1} us, p99 {:.1} us{}",
        rep.rounds,
        rep.updates,
        rep.visible_ns.len(),
        rep.section_ns as f64 / 1e9,
        rep.updates_per_s(),
        rep.visible_us(0.50),
        rep.visible_us(0.99),
        if rep.capped { " (CAPPED: machine too slow for the sized work)" } else { "" },
    ));
}

/// Warm-up + [`REPS`] timed repetitions, each on a fresh bed with the same
/// seed, so every repetition does the same work. Beds follow one another in
/// one process: the warm-up also maps the memory the later ones reuse.
/// Each timing metric reports its best repetition.
pub fn untraced(spec: &Spec, seed: u64, seconds: f64) -> Result<Outcome, Box<dyn Error>> {
    let budget = budget(spec, seconds, REPS);
    let (mut attempted, mut failed) = (0, 0);
    let (mut setups, mut rates, mut p50s, mut p99s, mut recovers) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut notes = Vec::new();
    for i in 0..=REPS {
        let (mut bed, setup_s) = set_up_plain(spec, seed)?;
        setups.push(setup_s);
        let rep = run_rep(&mut bed, &mut Generator::new(spec, seed), budget, None);
        let mut misses = verify(&bed);
        if let Some(disk) = &bed.disk {
            let (miss, ms) = recover_and_compare(&bed, disk);
            misses += miss;
            recovers.push(ms);
        }
        attempted += rep.updates;
        failed += rep.failed + misses;
        if i == 0 {
            note_rep(&mut notes, "warm-up (discarded)", &rep);
            continue;
        }
        note_rep(&mut notes, &format!("repetition {i}"), &rep);
        rates.push(rep.updates_per_s());
        p50s.push(rep.visible_us(0.50));
        p99s.push(rep.visible_us(0.99));
    }
    if !recovers.is_empty() {
        let r = Stat::of(&recovers);
        notes.push(format!("recover_ms {} ms (median of {})", r.value, r.n));
    }
    let samples = [setups, rates, p50s, p99s, vec![peak_rss_mib()?]];
    let metrics = END_TO_END
        .iter()
        .zip(samples)
        .map(|(def, values)| {
            // Set-up is timed once per bed and reported as a median. The
            // three timings of the measured section report their best
            // repetition — see "Why the best repetition" in the README.
            let stat = if def.name == "setup_s" {
                Stat::of(&values)
            } else {
                Stat::best_of(&values, def.better)
            };
            (*def, stat)
        })
        .collect();
    Ok(Outcome { correct: failed == 0, attempted, failed, metrics, notes })
}

/// Warm-up, then [`TRACE_PAIRS`] × (untraced repetition, traced repetition)
/// at the same size, then the probes. Writes the last traced repetition's
/// spans to `out/trace-<workload>.jsonl`.
pub fn traced(spec: &Spec, seed: u64, seconds: f64) -> Result<Outcome, Box<dyn Error>> {
    let budget = budget(spec, seconds, 2 * TRACE_PAIRS);
    let (mut attempted, mut failed) = (0, 0);
    let (mut plain_rates, mut traced_rates) = (Vec::new(), Vec::new());
    let mut layers: Vec<Layer> = Vec::new();
    let mut notes = Vec::new();
    let mut last_spans = SpanBuffer::new();
    for pair in 0..=TRACE_PAIRS {
        let (mut bed, _) = set_up_plain(spec, seed)?;
        let rep = run_rep(&mut bed, &mut Generator::new(spec, seed), budget, None);
        attempted += rep.updates;
        failed += rep.failed + verify(&bed);
        if pair == 0 {
            note_rep(&mut notes, "warm-up (discarded)", &rep);
            continue;
        }
        note_rep(&mut notes, "untraced", &rep);
        plain_rates.push(rep.updates_per_s());
        // One bed at a time, as in an untraced run.
        drop(bed);

        let spans = SpanBuffer::new();
        let (mut bed, _) = set_up_traced(spec, seed, &spans)?;
        let mut gen = Generator::new(spec, seed);
        let rep = run_rep(&mut bed, &mut gen, budget, Some(&spans));
        attempted += rep.updates;
        failed += rep.failed + verify(&bed);
        note_rep(&mut notes, "traced", &rep);
        traced_rates.push(rep.updates_per_s());
        let mut layer = layers::from_rep(&rep, &spans, &bed);
        if pair == TRACE_PAIRS {
            failed += layers::probe(&mut bed, &mut gen, &rep, &mut layer);
        }
        layers.push(layer);
        last_spans = spans;
    }
    // Best against best, as the end-to-end throughput is reported.
    let best = |rates: &[f64]| rates.iter().copied().fold(0.0, f64::max);
    let overhead = best(&traced_rates) / best(&plain_rates);

    let last = layers.last().expect("TRACE_PAIRS is at least 1");
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for def in PER_LAYER {
        let stat = if def.name == "trace.overhead_ratio" {
            Stat::single(overhead)
        } else if def.exact || !layers[0].contains_key(def.name) {
            // A count, or a probe (run once, after the last repetition).
            // Same seed, fresh bed: every repetition must count the same.
            let value = last[def.name];
            if layers.iter().any(|l| l.get(def.name).is_some_and(|&v| v != value)) {
                notes.push(format!("{}: count differs between repetitions", def.name));
                failed += 1;
            }
            Stat::single(value)
        } else {
            Stat::of(&layers.iter().map(|l| l[def.name]).collect::<Vec<_>>())
        };
        metrics.push((def, stat));
    }

    let share = metrics.iter().find(|(d, _)| d.name == "trace.unattributed_share");
    if share.is_some_and(|(_, s)| s.value > 0.05) || overhead < 0.9 {
        notes.push(
            "NOT TRUSTWORTHY: unattributed_share > 0.05 or overhead_ratio < 0.9; \
             read the traced numbers as upper bounds"
                .to_string(),
        );
    }
    std::fs::create_dir_all(out_dir())?;
    let path = out_dir().join(format!("trace-{}.jsonl", spec.name));
    last_spans.write_jsonl(&path)?;
    notes.push(format!("{} spans written to {}", last_spans.spans().len(), path.display()));
    Ok(Outcome { correct: failed == 0, attempted, failed, metrics, notes })
}
