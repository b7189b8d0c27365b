//! Shared by the integration suites, each of which uses a part: the
//! invariants every healthy [`run`] must satisfy (chaos, crash and
//! multi-view suites), the summary lines `scripts/verify.sh` reads back to
//! assert a suite was not a silent no-op, and [`ExecuteOnly`], the
//! reference port of the hop and adaptation differential suites.

#![allow(dead_code)]

use dyno::prelude::*;
use dyno::relational::QueryResult;
use dyno::sim::{run, Experiment, Report};
use dyno::view::{BoundTable, MaintEvent};

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

/// A port that forwards only the required methods of [`SourcePort`]: its
/// hops and adaptation reads take the trait's defaults, the generic paths
/// through `execute` (a hop as the `__D ⋈ target` step query, an adaptation
/// read as shipped rows). The reference every native implementation is
/// compared against, and the shape of every out-of-workspace `SourcePort`
/// written before those methods existed.
pub struct ExecuteOnly<P>(pub P);

impl<P: SourcePort> SourcePort for ExecuteOnly<P> {
    fn now_ms(&self) -> u64 {
        self.0.now_ms()
    }
    fn now_us(&self) -> u64 {
        self.0.now_us()
    }
    fn advance_wait(&mut self, us: u64) {
        self.0.advance_wait(us);
    }
    fn execute(
        &mut self,
        query: &SpjQuery,
        bound: &[BoundTable],
    ) -> Result<QueryResult, RelationalError> {
        self.0.execute(query, bound)
    }
    fn locate(&mut self, relation: &str) -> Option<SourceId> {
        self.0.locate(relation)
    }
    fn source_version(&mut self, source: SourceId) -> u64 {
        self.0.source_version(source)
    }
    fn charge_local(&mut self, tuples: u64) {
        self.0.charge_local(tuples);
    }
    fn charge_mv_write(&mut self, tuples: u64) {
        self.0.charge_mv_write(tuples);
    }
    fn drain_arrivals(&mut self) -> Vec<UpdateMessage> {
        self.0.drain_arrivals()
    }
    fn on_maintenance_event(&mut self, event: MaintEvent) {
        self.0.on_maintenance_event(event);
    }
}
