//! The invariants every healthy [`run`] must satisfy, shared by the chaos,
//! crash and multi-view suites, plus the summary lines `scripts/verify.sh`
//! reads back to assert a suite was not a silent no-op.

use dyno::sim::{run, Experiment, Report};

/// Runs `exp` and enforces termination, no hard error, per-view convergence
/// and strong consistency at every commit and recovery; then appends the
/// run's counters to whichever `DYNO_*_SUMMARY` file is named.
pub fn assert_healthy(exp: Experiment) -> Report {
    let ctx = format!(
        "profile={} seed={} strategy={:?} policy={:?} views={} share={} kills={:?}",
        exp.fault.map_or("none", |p| p.name),
        exp.seed,
        exp.strategy,
        exp.policy,
        exp.views.len(),
        exp.share_subplans,
        exp.kills,
    );
    let report = run(exp).unwrap_or_else(|e| panic!("{ctx}: set-up failed: {e}"));
    assert!(!report.exhausted, "{ctx}: must quiesce within the step budget");
    assert!(report.last_error.is_none(), "{ctx}: hard error {:?}", report.last_error);
    let per_view: Vec<bool> = report.views.iter().map(|v| v.converged).collect();
    assert!(report.converged, "{ctx}: every view must converge, got {per_view:?}");
    assert_eq!(report.audit_violations, 0, "{ctx}: strong consistency at every commit/recovery");

    let c = |name| report.counter(name);
    summary("DYNO_CHAOS_SUMMARY", format!("fault.injected_total={}", c("fault.injected_total")));
    summary(
        "DYNO_CRASH_SUMMARY",
        format!(
            "wal.kills={} recover.torn_records={}",
            c("wal.power_cuts"),
            c("recover.torn_records")
        ),
    );
    summary(
        "DYNO_MULTIVIEW_SUMMARY",
        format!(
            "views={}\nsubplan.shared_hits={}\nsafety.divergent_verdicts={}",
            report.views.len(),
            c("subplan.shared_hits"),
            c("safety.divergent_verdicts")
        ),
    );
    report
}

/// Appends `lines` to the file `var` names, when it names one.
fn summary(var: &str, lines: String) {
    use std::io::Write;
    if let Some(path) = std::env::var_os(var) {
        if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
            let _ = writeln!(f, "{lines}");
        }
    }
}
