//! The crash-chaos runner: [`run_chaos`](crate::chaos::run_chaos)'s sibling
//! that additionally **kills the warehouse process** at deterministic points
//! of the commit protocol and recovers it from its write-ahead log.
//!
//! A kill is a [`CrashPlan`] armed on the warehouse's [`DurableLog`]: after
//! the planned record is written, the log simulates a power cut (drops every
//! later write). The shared driver ([`crate::chaos`]) polls for the cut after
//! each scheduling step; when it trips, the warehouse is dropped — taking its
//! in-memory extent, queue, and the port's in-flight delivery state with it —
//! and rebuilt via [`Warehouse::recover`] from the surviving storage. The
//! transport and sources live on (they are the outside world), and the
//! rebuilt port re-subscribes from the recovered high-water marks, replaying
//! the window between the last durable admission and the crash.
//!
//! ## Oracles
//!
//! * **Per-commit audit** — strong consistency ([`check_reflected`]) after
//!   every commit *and immediately after every recovery*.
//! * **Convergence** — the final extent equals the view evaluated over the
//!   final source states.
//! * **Bit identity** — [`CrashReport::final_extent_crc`] for a crashed run
//!   must equal the same seed's no-kill run: recovery must not change *what*
//!   is computed, only when.

use dyno_core::{CorrectionPolicy, Strategy};
use dyno_durable::{crc32, Enc, MemStorage};
use dyno_fault::{ChaosTransport, FaultProfile, RetryPolicy};
use dyno_obs::Collector;
use dyno_relational::wire::enc_bag;
use dyno_view::wal::{CrashPlan, DurableLog};
use dyno_view::Warehouse;

use crate::chaos::{drive, faulted, FaultOutcome, FaultRun};
use crate::consistency::check_convergence;
use crate::cost::CostModel;
use crate::port::SimPort;
use crate::testbed::{build_testbed, TestbedConfig};
use crate::workload::WorkloadGen;

/// One crash-chaos experiment: a chaos run plus a planned kill sequence.
#[derive(Debug, Clone)]
pub struct CrashConfig {
    /// Transport fault intensities (crashes ride on top of these).
    pub profile: FaultProfile,
    /// Master seed (workload, transport rolls, retry jitter).
    pub seed: u64,
    /// Detection strategy.
    pub strategy: Strategy,
    /// Correction policy.
    pub policy: CorrectionPolicy,
    /// Query-retry policy.
    pub retry: RetryPolicy,
    /// The kill sequence, armed one plan at a time: the first plan is armed
    /// at start, the next after each recovery. Empty = the no-kill baseline
    /// run the bit-identity oracle compares against.
    pub kills: Vec<CrashPlan>,
    /// WAL checkpoint policy (records between snapshots).
    pub checkpoint_every: u64,
    /// Data updates to schedule.
    pub du_count: usize,
    /// Schema changes to schedule.
    pub sc_count: usize,
    /// Testbed scale.
    pub tuples_per_relation: usize,
    /// Audit strong consistency after every commit and recovery.
    pub audit: bool,
    /// Capture per-update lineage; the report's `obs` then answers
    /// `explain(id)` across kills and recoveries.
    pub lineage: bool,
    /// Maintenance-step budget.
    pub max_steps: u64,
}

impl CrashConfig {
    /// A representative crash run over the standard small chaos workload.
    pub fn new(profile: FaultProfile, seed: u64) -> Self {
        CrashConfig {
            profile,
            seed,
            strategy: Strategy::Pessimistic,
            policy: CorrectionPolicy::default(),
            retry: RetryPolicy::default(),
            kills: Vec::new(),
            checkpoint_every: 16,
            du_count: 12,
            sc_count: 3,
            tuples_per_relation: 200,
            audit: true,
            lineage: false,
            max_steps: 5_000,
        }
    }

    /// Sets the kill sequence.
    pub fn with_kills(mut self, kills: Vec<CrashPlan>) -> Self {
        self.kills = kills;
        self
    }

    /// Sets the correction policy.
    pub fn with_policy(mut self, policy: CorrectionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Enables lineage capture.
    pub fn with_lineage(mut self) -> Self {
        self.lineage = true;
        self
    }
}

/// What a crash-chaos run produced.
#[derive(Debug, Clone)]
pub struct CrashReport {
    /// Whether the final extent matches the view over final source states.
    pub converged: bool,
    /// Kills actually executed (≤ planned: a plan whose point never occurs
    /// stays armed forever).
    pub kills: u64,
    /// Strong-consistency audit failures after commits.
    pub audit_violations: u64,
    /// Strong-consistency audit failures immediately after a recovery.
    pub recovery_audit_failures: u64,
    /// Records replayed across all recoveries (`recover.replayed`).
    pub replayed_records: u64,
    /// Torn tails discarded across all recoveries (`recover.torn_records`).
    pub torn_records: u64,
    /// Intents re-parked across all recoveries.
    pub reparked_intents: u64,
    /// Committed + aborted + parked steps, summed over all lives.
    pub steps: u64,
    /// Whether the step budget ran out before quiescence.
    pub exhausted: bool,
    /// A hard maintenance error that ended the run, if any.
    pub last_error: Option<String>,
    /// Final materialized extent size.
    pub final_mv_len: u64,
    /// CRC-32 of the canonically encoded final extent — the bit-identity
    /// fingerprint compared across crashed and crash-free runs.
    pub final_extent_crc: u32,
    /// The final view definition's SQL.
    pub final_view_sql: String,
    /// The run's collector (`wal.*`, `recover.*`, `fault.*`, …).
    pub obs: Collector,
}

/// Canonical fingerprint of an extent (sorted encoding → CRC-32).
pub(crate) fn extent_crc(mv: &dyno_view::MaterializedView) -> u32 {
    let mut e = Enc::new();
    enc_bag(&mut e, mv.extent());
    crc32(&e.finish())
}

/// Runs one seeded crash-chaos experiment to quiescence (or budget/error).
pub fn run_crash_chaos(cfg: &CrashConfig) -> CrashReport {
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
    let mut wh = Warehouse::new(info.clone(), cfg.strategy)
        .with_obs(obs.clone())
        .with_correction(cfg.policy);
    wh.add_view(view);
    wh.initialize(&mut port).expect("testbed initialization runs fault-free");
    port.start_metering();

    let disk = MemStorage::new();
    let log = DurableLog::create(Box::new(disk.clone()))
        .expect("MemStorage never fails")
        .with_checkpoint_every(cfg.checkpoint_every);
    let wh = wh.with_wal(log).expect("no admission bound is configured");

    let run = FaultRun {
        info: &info,
        obs: &obs,
        retry: cfg.retry,
        seed: cfg.seed,
        max_steps: cfg.max_steps,
        audit: cfg.audit,
        durable: Some((&disk, &cfg.kills, cfg.checkpoint_every)),
    };
    let baseline = port.space().versions();
    let transport = ChaosTransport::new(cfg.profile, cfg.seed).with_obs(&obs);
    let fport = faulted(port, transport, baseline, &run, 0);
    let FaultOutcome {
        wh,
        fport,
        steps,
        kills,
        audit_violations,
        recovery_audit_failures,
        exhausted,
        last_error,
        ..
    } = drive(wh, fport, &run);

    let converged = last_error.is_none()
        && !exhausted
        && check_convergence(fport.inner().space(), wh.view(0), wh.mv(0)).unwrap_or(false);
    let reg = obs.registry();
    let counter = |name: &str| reg.counter_value(name).unwrap_or(0);
    CrashReport {
        converged,
        kills,
        audit_violations,
        recovery_audit_failures,
        replayed_records: counter("recover.replayed"),
        torn_records: counter("recover.torn_records"),
        reparked_intents: counter("recover.reparked_intents"),
        steps,
        exhausted,
        last_error,
        final_mv_len: wh.mv(0).len(),
        final_extent_crc: extent_crc(wh.mv(0)),
        final_view_sql: wh.view(0).to_string(),
        obs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyno_view::wal::CrashPoint;

    #[test]
    fn no_kill_run_matches_plain_chaos_semantics() {
        let report = run_crash_chaos(&CrashConfig::new(FaultProfile::quiet(), 42));
        assert!(report.converged);
        assert_eq!(report.kills, 0);
        assert_eq!(report.audit_violations, 0);
        assert_eq!(report.torn_records, 0);
    }

    #[test]
    fn a_between_steps_kill_recovers_and_converges() {
        let cfg = CrashConfig::new(FaultProfile::quiet(), 42)
            .with_kills(vec![CrashPlan { point: CrashPoint::BetweenSteps, skip: 2 }]);
        let report = run_crash_chaos(&cfg);
        assert_eq!(report.kills, 1, "the kill fired");
        assert!(report.converged, "recovered run converges");
        assert_eq!(report.audit_violations, 0);
        assert_eq!(report.recovery_audit_failures, 0);
        assert!(report.replayed_records >= 1);
    }

    #[test]
    fn crashed_run_is_bit_identical_to_uncrashed_run() {
        let baseline = run_crash_chaos(&CrashConfig::new(FaultProfile::quiet(), 42));
        let crashed = run_crash_chaos(
            &CrashConfig::new(FaultProfile::quiet(), 42)
                .with_kills(vec![CrashPlan { point: CrashPoint::AfterIntent, skip: 1 }]),
        );
        assert!(baseline.converged && crashed.converged);
        assert_eq!(crashed.kills, 1);
        assert_eq!(crashed.final_view_sql, baseline.final_view_sql);
        assert_eq!(
            crashed.final_extent_crc, baseline.final_extent_crc,
            "recovery changes when work happens, never what is computed"
        );
    }
}
