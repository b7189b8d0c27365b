//! The experiment runner: drives a one-view [`dyno_view::Warehouse`] against a
//! [`SimPort`] until every scheduled source commit has been maintained.

use dyno_core::{CorrectionPolicy, StepOutcome, Strategy};
use dyno_obs::Collector;
use dyno_view::{AdaptationMode, ViewDefinition, ViewError, Warehouse};

use crate::consistency::{check_convergence, check_reflected};
use crate::cost::CostModel;
use crate::metrics::Metrics;
use crate::port::{ScheduledCommit, SimPort};

/// One experiment to run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The source space (initial states).
    pub space: dyno_source::SourceSpace,
    /// The view to materialize.
    pub view: ViewDefinition,
    /// Future autonomous commits.
    pub schedule: Vec<ScheduledCommit>,
    /// Detection strategy.
    pub strategy: Strategy,
    /// Correction policy (cycle merge vs. blind merge-all ablation).
    pub policy: CorrectionPolicy,
    /// View-adaptation mode (incremental-when-possible vs. recompute-only
    /// ablation).
    pub adaptation: AdaptationMode,
    /// Cost model.
    pub cost: CostModel,
    /// When true, audit strong consistency after every committed entry
    /// (expensive; for correctness tests, not cost experiments).
    pub audit: bool,
    /// Step budget (guards the theoretical infinite-abort loop of paper
    /// Section 4.4).
    pub max_steps: u64,
    /// When true, the run's collector records a structured trace (spans per
    /// maintenance attempt, scheduler decisions, abort events) stamped in
    /// simulated µs; export it from [`RunReport::obs`].
    pub tracing: bool,
    /// When true, the run's collector also captures per-update lineage
    /// (causal provenance records); query it with
    /// [`dyno_obs::Collector::explain`] or export it via
    /// [`dyno_obs::export_chrome`] from [`RunReport::obs`].
    pub lineage: bool,
}

impl Scenario {
    /// A scenario with defaults: pessimistic, calibrated costs, no audit,
    /// generous step budget.
    pub fn new(
        space: dyno_source::SourceSpace,
        view: ViewDefinition,
        schedule: Vec<ScheduledCommit>,
    ) -> Self {
        let max_steps = 50 * schedule.len() as u64 + 1_000;
        Scenario {
            space,
            view,
            schedule,
            strategy: Strategy::Pessimistic,
            policy: CorrectionPolicy::default(),
            adaptation: AdaptationMode::default(),
            cost: CostModel::default(),
            audit: false,
            max_steps,
            tracing: false,
            lineage: false,
        }
    }

    /// Sets the strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the correction policy.
    pub fn with_policy(mut self, policy: CorrectionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the adaptation mode.
    pub fn with_adaptation(mut self, adaptation: AdaptationMode) -> Self {
        self.adaptation = adaptation;
        self
    }

    /// Sets the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Enables the strong-consistency audit.
    pub fn with_audit(mut self) -> Self {
        self.audit = true;
        self
    }

    /// Enables structured tracing for the run.
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Enables lineage (provenance) capture for the run.
    pub fn with_lineage(mut self) -> Self {
        self.lineage = true;
        self
    }
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Simulated-time metrics (the paper's y-axes).
    pub metrics: Metrics,
    /// View-manager counters.
    pub view_stats: dyno_view::ViewStats,
    /// Scheduler counters.
    pub dyno_stats: dyno_core::DynoStats,
    /// Final materialized extent size.
    pub final_mv_len: u64,
    /// Whether the final extent matches the view over final source states.
    pub converged: bool,
    /// Strong-consistency audit failures (0 when `audit` was false or all
    /// checks passed).
    pub audit_violations: u64,
    /// Steps executed.
    pub steps: u64,
    /// Whether the run exhausted its step budget before quiescing.
    pub exhausted: bool,
    /// The run's collector: registry snapshots (`sim.*`, `dyno.*`,
    /// `view.*`, …) and — when [`Scenario::tracing`] was on — the full
    /// trace, ready for `trace_jsonl()` / `metrics_json()` export.
    pub obs: Collector,
}

/// Runs a scenario to completion.
pub fn run_scenario(scenario: Scenario) -> Result<RunReport, ViewError> {
    let Scenario {
        space,
        view,
        schedule,
        strategy,
        policy,
        adaptation,
        cost,
        audit,
        max_steps,
        tracing,
        lineage,
    } = scenario;
    let info = space.info().clone();
    let mut port = SimPort::new(space, schedule, cost);
    if tracing {
        port.obs().set_tracing(true);
    }
    if lineage {
        // `with_lineage` installs the ring in the shared inner, so every
        // clone of this run's collector sees it.
        let _ = port.obs().clone().with_lineage(64 * 1024);
    }
    let mut mgr = Warehouse::new(info, strategy)
        .with_obs(port.obs().clone())
        .with_correction(policy)
        .with_adaptation(adaptation);
    mgr.add_view(view);
    mgr.initialize(&mut port)?;
    port.start_metering();

    let mut steps = 0;
    let mut audit_violations = 0;
    let mut exhausted = false;
    loop {
        if steps >= max_steps {
            exhausted = true;
            break;
        }
        match mgr.step(&mut port)? {
            StepOutcome::Idle => {
                if !port.advance_to_next_commit() {
                    break;
                }
            }
            StepOutcome::Committed => {
                steps += 1;
                if audit {
                    let ok = check_reflected(port.space(), mgr.view(0), mgr.reflected(), mgr.mv(0))
                        .unwrap_or(false);
                    if !ok {
                        audit_violations += 1;
                    }
                }
            }
            StepOutcome::Aborted => {
                steps += 1;
            }
            StepOutcome::Parked => {
                // A bare SimPort never reports a source unavailable; only
                // the chaos runner (crate::chaos) drives parked entries.
                steps += 1;
            }
            StepOutcome::Failed => unreachable!("warehouse.step surfaces failures as Err"),
        }
    }

    let converged =
        !exhausted && check_convergence(port.space(), mgr.view(0), mgr.mv(0)).unwrap_or(false);
    let metrics = port.metrics();
    assert_eq!(
        metrics.skipped_commits, 0,
        "workload scheduled a commit its source rejected — generator bug",
    );
    Ok(RunReport {
        metrics,
        view_stats: mgr.stats(0),
        dyno_stats: mgr.dyno_stats(),
        final_mv_len: mgr.mv(0).len(),
        converged,
        audit_violations,
        steps,
        exhausted,
        obs: port.obs().clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::{build_testbed, TestbedConfig};
    use crate::workload::WorkloadGen;

    fn tiny_cfg() -> TestbedConfig {
        TestbedConfig { tuples_per_relation: 200, ..Default::default() }
    }

    #[test]
    fn du_only_run_converges_with_audit() {
        let cfg = tiny_cfg();
        let (space, view) = build_testbed(&cfg);
        let mut gen = WorkloadGen::new(cfg, 11);
        let schedule = gen.du_flood(20);
        let report = run_scenario(Scenario::new(space, view, schedule).with_audit()).unwrap();
        assert!(report.converged, "MV must converge to final source states");
        assert_eq!(report.audit_violations, 0, "strong consistency at every commit");
        assert_eq!(report.view_stats.du_committed, 20);
        assert_eq!(report.metrics.aborts, 0);
        assert_eq!(report.dyno_stats.graph_builds, 0, "O(1) fast path for DU-only");
        assert!(report.metrics.total_cost_us() > 0);
    }

    #[test]
    fn mixed_run_converges_both_strategies() {
        for strategy in [Strategy::Pessimistic, Strategy::Optimistic] {
            let cfg = tiny_cfg();
            let (space, view) = build_testbed(&cfg);
            let mut gen = WorkloadGen::new(cfg, 13);
            let mut schedule = gen.du_flood(10);
            schedule.extend(gen.sc_train(3, 1_000_000, 20_000_000));
            let report = run_scenario(
                Scenario::new(space, view, schedule).with_strategy(strategy).with_audit(),
            )
            .unwrap();
            assert!(report.converged, "{strategy:?} must converge");
            assert_eq!(report.audit_violations, 0, "{strategy:?} strong consistency");
            assert!(!report.exhausted);
            assert_eq!(report.metrics.skipped_commits, 0);
        }
    }

    #[test]
    fn traced_run_metrics_project_the_registry() {
        let cfg = tiny_cfg();
        let (space, view) = build_testbed(&cfg);
        let mut gen = WorkloadGen::new(cfg, 13);
        let mut schedule = gen.du_flood(10);
        schedule.extend(gen.sc_train(2, 1_000_000, 10_000_000));
        let report = run_scenario(
            Scenario::new(space, view, schedule).with_strategy(Strategy::Optimistic).with_tracing(),
        )
        .unwrap();
        let reg = report.obs.registry();
        let counter = |name| reg.counter_value(name).unwrap_or(0);
        // Metrics is a projection of the registry, so equality is exact.
        assert_eq!(counter("sim.committed_us"), report.metrics.committed_us);
        assert_eq!(counter("sim.abort_us"), report.metrics.abort_us);
        assert_eq!(counter("sim.aborts"), report.metrics.aborts);
        assert_eq!(counter("sim.attempts"), report.metrics.attempts);
        assert_eq!(counter("sim.queries"), report.metrics.queries);
        // One span per maintenance attempt, stamped in simulated µs.
        let spans: Vec<_> = report
            .obs
            .trace_records()
            .iter()
            .filter(|r| r.kind == dyno_obs::RecordKind::SpanStart && r.name == "view.maintain")
            .map(|r| r.ts_us)
            .collect();
        assert_eq!(spans.len() as u64, report.metrics.attempts);
        assert!(spans.windows(2).all(|w| w[0] <= w[1]), "virtual timestamps are monotone");
        assert!(spans.last().copied().unwrap_or(0) <= report.metrics.end_us);
    }

    #[test]
    fn simulated_costs_are_independent_of_the_exec_path() {
        // The paper figures' simulated-seconds series must be identical
        // whether maintenance queries probe secondary indexes or scan:
        // costs are charged from schema-level relation sizes, never from
        // the access path the in-process executor picked.
        for strategy in [Strategy::Pessimistic, Strategy::Optimistic] {
            let run = |indexes: bool| {
                let cfg = TestbedConfig { indexes, ..tiny_cfg() };
                let (space, view) = build_testbed(&cfg);
                let mut gen = WorkloadGen::new(cfg, 23);
                let mut schedule = gen.du_flood(12);
                schedule.extend(gen.sc_train(3, 2_000_000, 15_000_000));
                run_scenario(Scenario::new(space, view, schedule).with_strategy(strategy)).unwrap()
            };
            let on = run(true);
            let off = run(false);
            assert_eq!(on.metrics, off.metrics, "{strategy:?}: identical simulated series");
            assert!(on.converged && off.converged);
        }
    }

    #[test]
    fn pessimistic_never_costs_more_aborts_than_optimistic_here() {
        // A flood of conflicting updates at t=0: pessimistic pre-exec
        // correction avoids every abort; optimistic must suffer at least one.
        let cfg = tiny_cfg();
        let mk = |strategy| {
            let (space, view) = build_testbed(&cfg);
            let mut gen = WorkloadGen::new(cfg, 17);
            let mut schedule = gen.du_flood(5);
            schedule.extend(gen.sc_train(2, 0, 0));
            run_scenario(Scenario::new(space, view, schedule).with_strategy(strategy)).unwrap()
        };
        let p = mk(Strategy::Pessimistic);
        let o = mk(Strategy::Optimistic);
        assert_eq!(p.metrics.aborts, 0, "pre-exec detection sees the flooded SCs");
        assert!(o.metrics.aborts >= 1, "optimistic discovers conflicts the hard way");
        assert!(p.metrics.total_cost_us() <= o.metrics.total_cost_us());
        assert!(p.converged && o.converged);
    }
}
