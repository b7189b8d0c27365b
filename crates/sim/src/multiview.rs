//! Multi-view chaos/crash runner: the warehouse-level sibling of
//! [`run_chaos`](crate::chaos::run_chaos) and
//! [`run_crash_chaos`](crate::crash::run_crash_chaos) that drives a
//! [`dyno_view::Warehouse`] holding **N overlapping views** through the
//! seeded fault-injection transport, optionally killing and recovering the
//! whole warehouse process from its WAL.
//!
//! The views are built by [`build_multiview`]: view *i* is
//! `R0 ⋈ R1 ⋈ R{2+i}`, so every view shares the `ΔR0 ⋈ R1` / `ΔR1 ⋈ R0`
//! first hop (the shared-subplan cache's bread and butter) while fanning out
//! to distinct third relations on distinct sources.
//!
//! ## Oracles
//!
//! * **Per-view strong consistency** — after every commit (and every
//!   recovery) each view's extent must equal its definition evaluated at the
//!   state vector *that view* claims to reflect
//!   ([`dyno_view::Warehouse::view_reflected`]) — a deferred view audits at
//!   its own, older vector while its peers audit ahead of it.
//! * **Per-view convergence** — once quiescent, every extent equals its
//!   (current) definition over the final source states and no batch is
//!   still deferred.
//! * **Bit identity** — [`MultiViewReport::final_extent_crcs`] must match
//!   across shared/unshared subplan execution and across crashed/uncrashed
//!   runs of the same seed.

use dyno_core::{CorrectionPolicy, Strategy};
use dyno_durable::MemStorage;
use dyno_fault::{ChaosTransport, FaultProfile, RetryPolicy};
use dyno_obs::Collector;
use dyno_source::SourceSpace;
use dyno_view::wal::{CrashPlan, DurableLog};
use dyno_view::{ViewDefinition, Warehouse};

use crate::chaos::{drive, faulted, FaultOutcome, FaultRun};
use crate::consistency::check_convergence;
use crate::cost::CostModel;
use crate::crash::extent_crc;
use crate::port::SimPort;
use crate::testbed::{build_space, TestbedConfig};
use crate::workload::WorkloadGen;

/// Builds `views` overlapping definitions over the standard testbed space:
/// view *i* is `R0 ⋈ R1 ⋈ R{2+i}` projecting every attribute of its three
/// relations. All views share the `R0 ⋈ R1` join (same equi-join signature,
/// so their ΔR0/ΔR1 first hops hit the shared-subplan cache) and each view
/// additionally reads a distinct relation, giving per-view source sets that
/// overlap without coinciding. Panics if the testbed has fewer than
/// `views + 2` relations.
pub fn build_multiview(cfg: &TestbedConfig, views: usize) -> (SourceSpace, Vec<ViewDefinition>) {
    let names = cfg.relation_names();
    assert!(
        views + 2 <= names.len(),
        "need {} relations for {views} overlapping views, testbed has {}",
        views + 2,
        names.len()
    );
    let space = build_space(cfg);
    let defs = (0..views)
        .map(|i| {
            let tables = [names[0].clone(), names[1].clone(), names[2 + i].clone()];
            let mut b = dyno_relational::SpjQuery::over(tables.clone());
            for (t, name) in tables.iter().enumerate() {
                let idx = if t < 2 { t } else { 2 + i };
                for attr in cfg.schema(idx).attrs() {
                    b = b.select_as(name, &attr.name, &format!("{name}_{}", attr.name));
                }
            }
            b = b.join_eq((tables[0].as_str(), "K"), (tables[1].as_str(), "K"));
            b = b.join_eq((tables[1].as_str(), "K"), (tables[2].as_str(), "K"));
            ViewDefinition::new(format!("V{i}"), b.build())
        })
        .collect();
    (space, defs)
}

/// One multi-view chaos (or crash-chaos) experiment; everything derives from
/// `(profile, seed)` plus the explicit knobs.
#[derive(Debug, Clone)]
pub struct MultiViewConfig {
    /// Transport fault intensities.
    pub profile: FaultProfile,
    /// Master seed (workload, transport rolls, retry jitter).
    pub seed: u64,
    /// Detection strategy.
    pub strategy: Strategy,
    /// Correction policy.
    pub policy: CorrectionPolicy,
    /// Query-retry policy.
    pub retry: RetryPolicy,
    /// Number of overlapping views (2..=4 on the default testbed).
    pub views: usize,
    /// Share first-hop subplans across views (the default); `false` is the
    /// ablation the bit-identity oracle compares against.
    pub share_subplans: bool,
    /// Data updates to schedule.
    pub du_count: usize,
    /// Schema changes to schedule.
    pub sc_count: usize,
    /// Testbed scale.
    pub tuples_per_relation: usize,
    /// Audit per-view strong consistency after every commit/recovery.
    pub audit: bool,
    /// Maintenance-step budget.
    pub max_steps: u64,
    /// Kill sequence (armed one plan at a time); empty = chaos only. A
    /// non-empty sequence attaches a WAL over in-memory storage.
    pub kills: Vec<CrashPlan>,
    /// WAL checkpoint policy when kills are armed.
    pub checkpoint_every: u64,
}

impl MultiViewConfig {
    /// A small-but-representative run: 3 views, 12 DUs + 2 SCs over a
    /// 150-tuple testbed, audited, pessimistic with default correction.
    pub fn new(profile: FaultProfile, seed: u64) -> Self {
        MultiViewConfig {
            profile,
            seed,
            strategy: Strategy::Pessimistic,
            policy: CorrectionPolicy::default(),
            retry: RetryPolicy::default(),
            views: 3,
            share_subplans: true,
            du_count: 12,
            sc_count: 2,
            tuples_per_relation: 150,
            audit: true,
            max_steps: 5_000,
            kills: Vec::new(),
            checkpoint_every: 16,
        }
    }

    /// Sets the view count.
    pub fn with_views(mut self, views: usize) -> Self {
        self.views = views;
        self
    }

    /// Disables cross-view subplan sharing (ablation).
    pub fn without_sharing(mut self) -> Self {
        self.share_subplans = false;
        self
    }

    /// Sets the kill sequence (attaches a WAL).
    pub fn with_kills(mut self, kills: Vec<CrashPlan>) -> Self {
        self.kills = kills;
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
}

/// What a multi-view run produced.
#[derive(Debug, Clone)]
pub struct MultiViewReport {
    /// All views converged and nothing stayed deferred.
    pub converged: bool,
    /// Per-view convergence verdicts.
    pub per_view_converged: Vec<bool>,
    /// Per-view strong-consistency audit failures after commits.
    pub audit_violations: u64,
    /// Audit failures immediately after a recovery.
    pub recovery_audit_failures: u64,
    /// Kills actually executed.
    pub kills: u64,
    /// Committed + aborted + parked steps, over all lives.
    pub steps: u64,
    /// Steps that parked (every active view blocked).
    pub parked_steps: u64,
    /// Whether the step budget ran out before quiescence.
    pub exhausted: bool,
    /// Total faults the transport injected.
    pub fault_injected: u64,
    /// Batches whose per-view safety verdicts split (`safety.divergent_verdicts`).
    pub divergent_verdicts: u64,
    /// Shared first hops served from cache (`subplan.shared_hits`).
    pub subplan_hits: u64,
    /// Shared first hops computed (`subplan.shared_misses`).
    pub subplan_misses: u64,
    /// Deferred batches drained to commit (`view.deferred_drains`).
    pub deferred_drains: u64,
    /// Batches still deferred at the end (nonzero fails convergence).
    pub deferred_at_end: usize,
    /// A hard maintenance error that ended the run, if any.
    pub last_error: Option<String>,
    /// CRC-32 of each view's canonically encoded final extent, in slot
    /// order — the bit-identity fingerprint.
    pub final_extent_crcs: Vec<u32>,
    /// The run's collector.
    pub obs: Collector,
}

/// Runs one seeded multi-view experiment to quiescence (or budget/error).
pub fn run_multiview(cfg: &MultiViewConfig) -> MultiViewReport {
    let tb = TestbedConfig { tuples_per_relation: cfg.tuples_per_relation, ..Default::default() };
    let (space, views) = build_multiview(&tb, cfg.views);
    let info = space.info().clone();
    let mut gen = WorkloadGen::new(tb, cfg.seed);
    let mut schedule = gen.du_flood(cfg.du_count);
    if cfg.sc_count > 0 {
        schedule.extend(gen.sc_train(cfg.sc_count, 1_000_000, 20_000_000));
    }

    let mut port = SimPort::new(space, schedule, CostModel::default());
    let obs = port.obs().clone();
    let mut wh = Warehouse::new(info.clone(), cfg.strategy)
        .with_obs(obs.clone())
        .with_correction(cfg.policy)
        .with_subplan_sharing(cfg.share_subplans);
    for view in views {
        wh.add_view(view);
    }
    wh.initialize(&mut port).expect("testbed initialization runs fault-free");
    port.start_metering();

    // A non-empty kill sequence makes the run durable.
    let disk = MemStorage::new();
    let durable = !cfg.kills.is_empty();
    if durable {
        let log = DurableLog::create(Box::new(disk.clone()))
            .expect("MemStorage never fails")
            .with_checkpoint_every(cfg.checkpoint_every);
        wh = wh.with_wal(log).expect("no admission bound is configured");
    }

    let run = FaultRun {
        info: &info,
        obs: &obs,
        retry: cfg.retry,
        seed: cfg.seed,
        max_steps: cfg.max_steps,
        audit: cfg.audit,
        durable: durable.then_some((&disk, &cfg.kills, cfg.checkpoint_every)),
    };
    let baseline = port.space().versions();
    let transport = ChaosTransport::new(cfg.profile, cfg.seed).with_obs(&obs);
    let fport = faulted(port, transport, baseline, &run, 0);
    let FaultOutcome {
        wh,
        fport,
        steps,
        parked_steps,
        kills,
        audit_violations,
        recovery_audit_failures,
        exhausted,
        last_error,
    } = drive(wh, fport, &run);

    let space = fport.inner().space();
    let per_view_converged: Vec<bool> = (0..wh.view_count())
        .map(|i| check_convergence(space, wh.view(i), wh.mv(i)).unwrap_or(false))
        .collect();
    let deferred_at_end = wh.deferred_total();
    let converged = last_error.is_none()
        && !exhausted
        && deferred_at_end == 0
        && per_view_converged.iter().all(|&ok| ok);
    MultiViewReport {
        converged,
        per_view_converged,
        audit_violations,
        recovery_audit_failures,
        kills,
        steps,
        parked_steps,
        exhausted,
        fault_injected: fport.injected_total(),
        divergent_verdicts: wh.divergent_verdicts(),
        subplan_hits: wh.subplan_hits(),
        subplan_misses: wh.subplan_misses(),
        deferred_drains: wh.drained_commits(),
        deferred_at_end,
        last_error,
        final_extent_crcs: (0..wh.view_count()).map(|i| extent_crc(wh.mv(i))).collect(),
        obs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_profile_converges_with_three_views() {
        let report = run_multiview(&MultiViewConfig::new(FaultProfile::quiet(), 42));
        assert!(report.converged, "no faults, must converge: {:?}", report.last_error);
        assert_eq!(report.audit_violations, 0);
        assert_eq!(report.fault_injected, 0);
        assert!(report.subplan_hits > 0, "overlapping views share first hops");
    }

    #[test]
    fn drop_dup_profile_converges_and_injects() {
        let report = run_multiview(&MultiViewConfig::new(FaultProfile::drop_dup(), 7));
        assert!(report.converged, "recovery must mask drops/duplicates: {:?}", report.last_error);
        assert_eq!(report.audit_violations, 0);
        assert!(report.fault_injected > 0);
    }

    #[test]
    fn shared_and_unshared_runs_are_bit_identical() {
        let shared = run_multiview(&MultiViewConfig::new(FaultProfile::quiet(), 19));
        let unshared =
            run_multiview(&MultiViewConfig::new(FaultProfile::quiet(), 19).without_sharing());
        assert!(shared.converged && unshared.converged);
        assert!(shared.subplan_hits > 0);
        assert_eq!(unshared.subplan_hits, 0);
        assert_eq!(
            shared.final_extent_crcs, unshared.final_extent_crcs,
            "sharing changes how much work runs, never what is computed"
        );
    }

    #[test]
    fn runs_are_deterministic_by_seed() {
        let run = || run_multiview(&MultiViewConfig::new(FaultProfile::reorder_delay(), 23));
        let (a, b) = (run(), run());
        assert_eq!(a.converged, b.converged);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.fault_injected, b.fault_injected);
        assert_eq!(a.final_extent_crcs, b.final_extent_crcs);
    }

    #[test]
    fn a_kill_mid_run_recovers_every_view() {
        use dyno_view::wal::CrashPoint;
        let baseline = run_multiview(&MultiViewConfig::new(FaultProfile::quiet(), 42));
        let crashed = run_multiview(
            &MultiViewConfig::new(FaultProfile::quiet(), 42)
                .with_kills(vec![CrashPlan { point: CrashPoint::BetweenSteps, skip: 2 }]),
        );
        assert_eq!(crashed.kills, 1, "the kill fired");
        assert!(crashed.converged, "recovered run converges: {:?}", crashed.last_error);
        assert_eq!(crashed.recovery_audit_failures, 0);
        assert_eq!(
            crashed.final_extent_crcs, baseline.final_extent_crcs,
            "recovery is bit-identical per view"
        );
    }
}
