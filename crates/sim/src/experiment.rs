//! The one simulation harness: an [`Experiment`] says what to run, [`run`]
//! steps its warehouses against [`SimPort`]s until every scheduled source
//! commit has been maintained, and a [`Report`] says what happened.
//!
//! Everything the paper's evaluation varies is a field of the experiment —
//! sources, view set, commit schedule, strategy/policy/adaptation, cost
//! model — and so is everything later PRs bolted on: a fault profile routes
//! the warehouse/source conversation through a [`ChaosTransport`], a kill
//! plan attaches a WAL and cuts its power at planned records, a [`Monitor`]
//! samples the registry and the staleness lanes every window, and a
//! [`Peers`] topology runs N warehouses, each over its own copy of the
//! sources, joined by a peer fabric ([`crate::replica`]). The fields
//! compose: the loop is the same whichever are set, and so is the oracle
//! ([`audit`] after every commit and recovery, convergence per view at the
//! end, and — across peers — every source's history rewound to its start).
//!
//! A run is a pure function of its experiment: the workload, the transport's
//! fault rolls, the retry jitter and the discrete-event clock are all seeded,
//! so every report field — and `obs`'s lineage capture — replays exactly.
//!
//! ## The loop
//!
//! An idle run jumps to the next scheduled commit, transport event or fabric
//! event, and flushes what a faulty transport or the fabric withheld once
//! nothing is left to fall due. Parked entries wait for the next event. A
//! power cut, inside a step or a publish, drops the warehouse and rebuilds
//! it from its WAL; sources, transport and fabric are the outside world and
//! live on, so the rebuilt port re-subscribes from the recovered marks and a
//! peer re-sends its unacked outbox.

use std::collections::HashMap;

use dyno_core::{CorrectionPolicy, StepOutcome, Strategy};
use dyno_durable::MemStorage;
use dyno_fault::{ChaosTransport, Direct, FaultProfile, RetryPolicy, Transport};
use dyno_obs::{Capture, Collector, Sampler, SloPolicy, StalenessTracker};
use dyno_source::{SourceId, SourceSpace};
use dyno_view::wal::{CrashPlan, DurableLog};
use dyno_view::{
    AdaptationMode, FaultedPort, SourcePort, ViewDefinition, ViewError, ViewStats, Warehouse,
};

use crate::consistency::{audit, check_convergence, extent_crc};
use crate::cost::CostModel;
use crate::metrics::Metrics;
use crate::port::{ScheduledCommit, SimPort};
use crate::replica::{Fabric, Peers};
use crate::testbed::{build_multiview, build_space, build_view, tenant_views, TestbedConfig};
use crate::workload::{OpenLoopConfig, WorkloadGen};

/// Ring capacity per captured stream — spans and events, provenance — of a
/// run's collector: capturing both gets the sum, so neither evicts sooner
/// than it would alone.
const RING_PER_STREAM: usize = 64 * 1024;
/// Records between WAL snapshots of a run with a kill plan.
const CHECKPOINT_EVERY: u64 = 16;
/// Ring capacity per monitored series, in windows.
const WINDOW_CAPACITY: usize = 4096;

/// The telemetry stack of a monitored run (DESIGN.md §14): a registry
/// sampler and per-view staleness lanes, ticked on the virtual clock.
#[derive(Debug, Clone, Copy)]
pub struct Monitor {
    /// Sampling window, simulated µs.
    pub window_us: u64,
    /// The staleness SLO every view lane is evaluated against.
    pub slo: SloPolicy,
    /// Windows to keep ticking after the schedule is fully maintained, so
    /// burn-rate states can recover to `ok` on the record.
    pub drain_windows: u64,
}

impl Default for Monitor {
    fn default() -> Self {
        Monitor { window_us: 1_000_000, slo: SloPolicy::target(10_000_000), drain_windows: 12 }
    }
}

/// One experiment. [`Experiment::new`] is the paper's setting — reliable
/// delivery, no crashes, nothing sampled; the other constructors are the
/// standard testbeds of the chaos, multi-view and open-loop suites. Set
/// fields with struct-update syntax.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The source space (initial states).
    pub space: SourceSpace,
    /// The views to materialize, in slot order.
    pub views: Vec<ViewDefinition>,
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
    /// Transport fault intensities; `None` is the reliable [`Direct`]
    /// transport, indistinguishable from no transport at all.
    pub fault: Option<FaultProfile>,
    /// Query-retry policy under a faulty transport.
    pub retry: RetryPolicy,
    /// Seeds the transport's fault rolls and the retry jitter.
    pub seed: u64,
    /// Disables BOTH dedupe/resequencing lines (transport recovery and the
    /// UMQ ingress gate) — the deliberately broken configuration the chaos
    /// suite must detect as non-convergent.
    pub break_dedupe: bool,
    /// Share first-hop subplans across views (the default); `false` is the
    /// ablation the bit-identity oracle compares against.
    pub share_subplans: bool,
    /// The kill sequence, armed one plan at a time: the first at start, the
    /// next after each recovery. Non-empty attaches a WAL over in-memory
    /// storage — and a replay-capable transport, `quiet` unless
    /// [`Experiment::fault`] says otherwise: a killed warehouse loses its
    /// undrained deliveries and must be able to ask for them again.
    pub kills: Vec<CrashPlan>,
    /// UMQ admission bound (`None` = unbounded, nothing is ever shed).
    pub umq_bound: Option<usize>,
    /// Sample the registry and the staleness lanes while running.
    pub monitor: Option<Monitor>,
    /// Audit strong consistency ([`audit`]) after every commit and recovery
    /// (expensive; for correctness tests, not cost experiments).
    pub audit: bool,
    /// What the run's collector captures, stamped in simulated µs:
    /// [`Capture::TRACE`] records spans per maintenance attempt, scheduler
    /// decisions and abort events; [`Capture::PROV`] per-update lineage, so
    /// [`Report::obs`] answers `explain(id)` — across kills and recoveries
    /// — and exports it; [`Capture::PROFILE`] turns the per-operator cost
    /// profiler on (`Report::obs.profile_snapshot()` holds the plan trees).
    pub capture: Capture,
    /// `None` is one warehouse; `Some` runs one peer warehouse per
    /// [`Peers::count`], each over its own copy of [`Experiment::space`].
    pub peers: Option<Peers>,
}

impl Experiment {
    /// A fault-free experiment with defaults: pessimistic, calibrated costs,
    /// no audit.
    pub fn new(
        space: SourceSpace,
        views: Vec<ViewDefinition>,
        schedule: Vec<ScheduledCommit>,
    ) -> Self {
        Experiment {
            space,
            views,
            schedule,
            strategy: Strategy::Pessimistic,
            policy: CorrectionPolicy::default(),
            adaptation: AdaptationMode::default(),
            cost: CostModel::default(),
            fault: None,
            retry: RetryPolicy::default(),
            seed: 0,
            break_dedupe: false,
            share_subplans: true,
            kills: Vec::new(),
            umq_bound: None,
            monitor: None,
            audit: false,
            capture: Capture::NONE,
            peers: None,
        }
    }

    /// The chaos testbed: the Section 6.1 view over 200-tuple relations,
    /// 12 DUs + 3 SCs, audited, everything derived from `(profile, seed)`.
    pub fn chaos(profile: FaultProfile, seed: u64) -> Self {
        let tb = TestbedConfig { tuples_per_relation: 200, ..Default::default() };
        Self::seeded(tb, vec![build_view(&tb)], 3, profile, seed)
    }

    /// The multi-view testbed: three overlapping views ([`build_multiview`])
    /// over 150-tuple relations, 12 DUs + 2 SCs, audited per view.
    pub fn multiview(profile: FaultProfile, seed: u64) -> Self {
        let tb = TestbedConfig { tuples_per_relation: 150, ..Default::default() };
        Self::seeded(tb, build_multiview(&tb, 3), 2, profile, seed)
    }

    fn seeded(
        tb: TestbedConfig,
        views: Vec<ViewDefinition>,
        scs: usize,
        profile: FaultProfile,
        seed: u64,
    ) -> Self {
        let mut gen = WorkloadGen::new(tb, seed);
        let mut schedule = gen.du_flood(12);
        schedule.extend(gen.sc_train(scs, 1_000_000, 20_000_000));
        Experiment {
            fault: Some(profile),
            seed,
            audit: true,
            ..Experiment::new(build_space(&tb), views, schedule)
        }
    }

    /// The monitored open-loop testbed: the full testbed join plus `tenants`
    /// [`tenant_views`] under a fixed arrival schedule that never waits for
    /// the warehouse — when maintenance falls behind, the UMQ grows (or,
    /// with an admission bound, sheds) and staleness climbs.
    pub fn open_loop(tb: TestbedConfig, load: &OpenLoopConfig, seed: u64, tenants: usize) -> Self {
        let mut views = vec![build_view(&tb)];
        views.extend(tenant_views(&tb, tenants));
        let schedule = WorkloadGen::new(tb, seed).open_loop(load);
        Experiment {
            monitor: Some(Monitor::default()),
            ..Experiment::new(build_space(&tb), views, schedule)
        }
    }
}

/// How one view ended the run.
#[derive(Debug, Clone)]
pub struct ViewOutcome {
    /// Whether the final extent equals the (current) definition over the
    /// final source states.
    pub converged: bool,
    /// Maintenance counters.
    pub stats: ViewStats,
    /// [`extent_crc`] of the final extent.
    pub extent_crc: u32,
    /// The final definition's SQL.
    pub sql: String,
}

/// The series a [`Monitor`] collected.
#[derive(Debug)]
pub struct Telemetry {
    /// The registry sampler (counter rates, gauges, histogram windows).
    pub sampler: Sampler,
    /// The per-view staleness lanes and their SLO states.
    pub tracker: StalenessTracker,
}

impl Telemetry {
    fn tick(&mut self, now_us: u64) {
        self.sampler.maybe_sample(now_us);
        self.tracker.maybe_sample(now_us);
    }
}

/// What a run produced. Counters the run's collector already holds
/// (`fault.*`, `retry.*`, `wal.*`, `recover.*`, `dyno.*`, `umq.*`,
/// `subplan.*`, `safety.*`, …) are read through [`Report::counter`], not
/// copied here.
#[derive(Debug)]
pub struct Report {
    /// Every view converged, nothing stayed deferred, every peer's extents
    /// are bit-identical, and the run neither exhausted its budget nor died
    /// on a hard error.
    pub converged: bool,
    /// Views that failed [`audit`], summed over every commit and recovery
    /// (0 when [`Experiment::audit`] was off).
    pub audit_violations: u64,
    /// Committed + aborted + parked steps, summed over all warehouse lives.
    pub steps: u64,
    /// Whether the step budget ran out before quiescence.
    pub exhausted: bool,
    /// The hard maintenance or oracle error that ended the run, if any.
    pub last_error: Option<String>,
    /// Simulated-time metrics (the paper's y-axes).
    pub metrics: Metrics,
    /// Per-view outcomes, in slot order (of peer 0 in a replicated run).
    pub views: Vec<ViewOutcome>,
    /// Every warehouse's view outcomes, in peer order.
    pub peer_views: Vec<Vec<ViewOutcome>>,
    /// The monitor's series, when [`Experiment::monitor`] was set.
    pub telemetry: Option<Telemetry>,
    /// The run's collector: the registry and — when switched on — the trace,
    /// the lineage capture and the operator profile (peer 0's in a
    /// replicated run, which also holds the fabric's counters).
    pub obs: Collector,
    /// Every warehouse's collector, in peer order.
    pub peer_obs: Vec<Collector>,
    /// Every warehouse's sources as the run left them, in peer order.
    pub peer_sources: Vec<SourceSpace>,
}

impl Report {
    /// A registry counter of the run, summed over its warehouses (0 when it
    /// was never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.peer_obs.iter().map(|o| o.registry().counter_value(name).unwrap_or(0)).sum()
    }

    /// The JSON document `dyno-bench monitor --json` writes and `benchdiff`
    /// compares: run summary, then the monitor's registry series and
    /// staleness lanes. Byte-identical across runs of the same experiment.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"monitor\":{{\"steps\":{},\"admitted\":{},\"shed\":{},\"exhausted\":{},\
             \"end_us\":{},\"committed_us\":{},\"aborts\":{}}}",
            self.steps,
            self.counter("umq.admitted"),
            self.counter("umq.shed"),
            self.exhausted,
            self.metrics.end_us,
            self.metrics.committed_us,
            self.metrics.aborts,
        );
        if let Some(t) = &self.telemetry {
            out.push_str(",\n\"series\":");
            out.push_str(&t.sampler.to_json());
            out.push_str(",\n\"slo\":");
            out.push_str(&t.tracker.to_json());
        }
        out.push('}');
        out
    }

    /// The text dashboard: registry series, staleness lanes, run summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if let Some(t) = &self.telemetry {
            out.push_str(&t.sampler.render_text());
            out.push('\n');
            out.push_str(&t.tracker.render_text(self.metrics.end_us));
            out.push('\n');
        }
        out.push_str(&format!(
            "run: {} steps, {} admitted, {} shed, {} aborts, {} queries, {} attempts, {:.1}s simulated{}\n",
            self.steps,
            self.counter("umq.admitted"),
            self.counter("umq.shed"),
            self.metrics.aborts,
            self.metrics.queries,
            self.metrics.attempts,
            self.metrics.end_us as f64 / 1e6,
            if self.exhausted { " [step budget exhausted]" } else { "" },
        ));
        out
    }
}

/// What [`drive`] needs besides the warehouses and the fabric.
struct Run<'a> {
    /// The experiment's knobs (its sources and schedule moved out).
    exp: &'a Experiment,
    /// Whether the transport can hold, drop or delay anything.
    faulty: bool,
    /// Maintenance-step budget (guards the theoretical infinite-abort loop
    /// of paper Section 4.4).
    max_steps: u64,
    /// Records between WAL snapshots.
    checkpoint_every: u64,
}

/// One warehouse of a run behind its port and transport, with what outlives
/// each of its lives: its collector, the disk behind its WAL, and the
/// source versions its first life started from.
pub(crate) struct Node<T> {
    pub(crate) wh: Warehouse,
    pub(crate) port: FaultedPort<SimPort, T>,
    pub(crate) obs: Collector,
    disk: MemStorage,
    versions: HashMap<SourceId, u64>,
    /// Lives lost to power cuts so far.
    kills: u64,
}

impl<T: Transport> Node<T> {
    /// The next life after a power cut (see the module docs): this one is
    /// dropped, the next is rebuilt from the disk and, as peer `peer`,
    /// rejoins the fabric.
    fn recover(self, peer: usize, fabric: Option<&mut Fabric>, run: &Run<'_>) -> Self {
        let Node { wh, port, obs, disk, versions, kills } = self;
        drop(wh);
        let (port, transport) = port.into_parts();
        let info = port.space().info().clone();
        let mut wh = Warehouse::recover(Box::new(disk.clone()), info, obs.clone())
            .expect("a cut log always holds its initial checkpoint")
            .0
            .with_subplan_sharing(run.exp.share_subplans);
        wh.set_checkpoint_every(run.checkpoint_every);
        if let Some(fabric) = fabric {
            fabric.rejoin(peer, &mut wh, &obs, port.now_us());
        }
        // Resubscription baseline: pre-wrap versions overlaid with the
        // recovered admission marks.
        let mut baseline = versions.clone();
        for (s, v) in wh.ingress_marks() {
            baseline.entry(SourceId(s)).and_modify(|e| *e = v.max(*e)).or_insert(v);
        }
        let mut port = wrap(port, transport, baseline, run, &obs, kills + 1);
        port.resubscribe();
        Node { wh, port, obs, disk, versions, kills: kills + 1 }
    }
}

/// What a step of the loop or a fabric hook ends with; `Err` ends the run.
pub(crate) type Fallible = Result<(), Box<dyn std::error::Error>>;

/// What a run did.
#[derive(Default)]
struct Driven {
    steps: u64,
    audit_violations: u64,
    exhausted: bool,
}

/// Wraps `port` behind `transport` for warehouse life number `life` (0 for
/// the first, the kill count after each recovery — so every life's retry
/// jitter differs). Wrap after `initialize`: `baseline` versions are already
/// reflected and must not be refetched.
///
/// A reliable transport delivers exactly once and in commit order, so its
/// wrap switches the resequencer off — it would regroup a burst of commits
/// by source, a legal order but not the one a bare [`SimPort`] streams — and
/// leaves the `retry.*`/`fault.*` counters unregistered: a fault-free run
/// costs, and registers, exactly what it did before it had a transport.
fn wrap<T: Transport>(
    port: SimPort,
    transport: T,
    baseline: HashMap<SourceId, u64>,
    run: &Run<'_>,
    obs: &Collector,
    life: u64,
) -> FaultedPort<SimPort, T> {
    let fport = FaultedPort::new(port, transport, baseline);
    if !run.faulty {
        return fport.with_recovery(false);
    }
    fport
        .with_retry(run.exp.retry)
        .with_seed(run.exp.seed ^ 0x9e37_79b9_7f4a_7c15 ^ life)
        .with_obs(obs)
        .with_recovery(!run.exp.break_dedupe)
}

/// The earliest moment a port changes on its own: a scheduled source
/// commit, or a transport event (delayed delivery falling due, crashed
/// source restarting).
fn port_event<T: Transport>(nodes: &[Node<T>]) -> Option<u64> {
    let next = |n: &Node<T>| [n.port.inner().next_commit_at_us(), n.port.next_wakeup_us()];
    nodes.iter().flat_map(next).flatten().min()
}

/// Lets simulated time pass to `t` at every port.
fn advance<T: Transport>(nodes: &mut [Node<T>], t: u64) {
    nodes.iter_mut().for_each(|n| n.port.inner_mut().advance_to(t));
}

/// Steps every warehouse to quiescence (or budget), recovering a warehouse
/// from its WAL at each planned power cut and ticking `telemetry` once per
/// iteration; `Err` is the hard maintenance or oracle error that ended the
/// run. A fabric acts at three of the loop's points: as an event source,
/// when due, and at quiescence.
fn drive<T: Transport>(
    nodes: &mut Vec<Node<T>>,
    fabric: &mut Option<Fabric>,
    telemetry: &mut Option<Telemetry>,
    run: &Run<'_>,
    d: &mut Driven,
) -> Fallible {
    let victim = run.exp.peers.as_ref().map_or(0, |p| p.victim);
    let mut plans = run.exp.kills.iter();
    let mut arm = |nodes: &mut [Node<T>]| plans.next().map(|&p| nodes[victim].wh.arm_crash(p));
    arm(nodes);
    let check = |n: &Node<T>| {
        let verdict = run.exp.audit.then(|| audit(&n.wh, n.port.inner().space()));
        verdict.unwrap_or(Ok(0)).map_err(|e| format!("audit oracle: {e}"))
    };
    // Under a faulty transport an idle or parked warehouse always lets at
    // least 1 µs pass, so the next fault rolls differ and a wakeup that is
    // already due cannot spin; a reliable one jumps exactly to the commit.
    let slack = u64::from(run.faulty);
    // What only a quiescence flush recovers: messages a faulty transport
    // dropped, and peer writes the fabric dropped or a gap withholds. A
    // second flush in a row finds nothing and ends the run.
    let withheld = run.faulty || fabric.is_some();
    let mut flushed = false;
    // Idle iterations do not count as steps, so bound raw iterations
    // separately against driver bugs.
    let mut iters = 0u64;
    let iter_budget = run.max_steps.saturating_mul(20).max(100_000);

    loop {
        let just_flushed = std::mem::take(&mut flushed);
        // The power cut may have tripped anywhere inside a step or a
        // publish. The doomed process may even have "committed" in memory —
        // none of it is durable past the cut, and the kill discards it.
        if let Some(p) = nodes.iter().position(|n| n.wh.wal_power_cut()) {
            let node = nodes.remove(p).recover(p, fabric.as_mut(), run);
            nodes.insert(p, node);
            d.audit_violations += check(&nodes[p])?;
            arm(nodes);
            continue;
        }
        iters += 1;
        if d.steps >= run.max_steps || iters >= iter_budget {
            d.exhausted = true;
            break;
        }
        // Step the first warehouse with work; the run is idle when none has.
        let (mut p, mut outcome) = (0, Ok(StepOutcome::Idle));
        for (i, n) in nodes.iter_mut().enumerate() {
            (p, outcome) = (i, n.wh.step(&mut n.port));
            if n.wh.wal_power_cut() || !matches!(outcome, Ok(StepOutcome::Idle)) {
                break;
            }
        }
        if nodes[p].wh.wal_power_cut() {
            continue;
        }
        let outcome = outcome?;
        d.steps += u64::from(outcome != StepOutcome::Idle);
        let now = nodes.iter().map(|n| n.port.now_us()).max().unwrap_or(0);
        match outcome {
            StepOutcome::Idle => {
                let fabric_at = fabric.as_ref().and_then(|f| f.next_event_us(now));
                match (port_event(nodes), fabric_at) {
                    // A client write or a delivery, at its own instant.
                    (port_at, Some(t)) if port_at.unwrap_or(u64::MAX) >= t => {
                        advance(nodes, t);
                        fabric.as_mut().expect("a fabric event has a fabric").fire(t, nodes)?;
                    }
                    (Some(t), _) => advance(nodes, t.max(now + slack)),
                    // Nothing will ever fall due on its own; whatever is
                    // still withheld is only recoverable by a flush.
                    (None, None) if withheld && !just_flushed => {
                        if run.faulty {
                            nodes.iter_mut().for_each(|n| n.port.flush_all());
                        }
                        fabric.as_mut().map_or(Ok(()), |f| f.flush(nodes, now))?;
                        flushed = true;
                    }
                    _ => break,
                }
            }
            StepOutcome::Committed => {
                d.audit_violations += check(&nodes[p])?;
                let n = &mut nodes[p];
                if !run.exp.kills.is_empty() {
                    // Everything admitted is durable (logged before
                    // enqueue), so the transport may prune up to the marks.
                    for (s, v) in n.wh.ingress_marks() {
                        n.port.ack_durable(SourceId(s), v);
                    }
                }
            }
            StepOutcome::Aborted => {}
            StepOutcome::Parked => {
                // Let simulated time pass before the retry: to the next
                // transport event if one is pending, otherwise a fixed
                // 1-second think so the next fault rolls differ.
                let t = port_event(nodes).unwrap_or(now + 1_000_000);
                advance(nodes, t.max(now + slack));
            }
            StepOutcome::Failed => unreachable!("warehouse.step surfaces failures as Err"),
        }
        telemetry.iter_mut().for_each(|t| t.tick(nodes[0].port.now_us()));
    }

    // Recovery ticks: with the schedule drained and the UMQ empty, clean
    // windows accumulate and the burn-rate states walk back toward ok.
    if let (Some(t), Some(m)) = (telemetry.as_mut(), run.exp.monitor) {
        let n = &mut nodes[0];
        for _ in 0..m.drain_windows {
            let next = n.port.now_us() + m.window_us;
            n.port.inner_mut().advance_to(next);
            n.wh.step(&mut n.port)?;
            t.tick(n.port.now_us());
        }
    }
    Ok(())
}

/// Runs one experiment to quiescence (or step budget / hard error). `Err`
/// means the experiment could not be set up — a view that does not
/// initialize, an admission bound combined with a kill plan; an error that
/// ends a started run is reported, with everything up to it, in
/// [`Report::last_error`].
pub fn run(mut exp: Experiment) -> Result<Report, ViewError> {
    // A killed warehouse loses its undrained deliveries and must be able to
    // ask for them again, which `Direct` cannot answer.
    if !exp.kills.is_empty() {
        exp.fault.get_or_insert_with(FaultProfile::quiet);
    }
    match exp.fault {
        None => simulate(exp, |_| Direct),
        Some(profile) => {
            let seed = exp.seed;
            simulate(exp, move |obs| ChaosTransport::new(profile, seed).with_obs(obs))
        }
    }
}

/// [`run`] over the transport `transport` builds for each warehouse's
/// collector.
fn simulate<T: Transport>(
    mut exp: Experiment,
    transport: impl Fn(&Collector) -> T,
) -> Result<Report, ViewError> {
    let max_steps = (50 * exp.schedule.len() as u64 + 1_000).max(5_000);
    let spaces = vec![std::mem::take(&mut exp.space); exp.peers.as_ref().map_or(1, |p| p.count)];
    // A replicated run's schedule is its client writes, which the fabric
    // releases one at a time; a lone warehouse's port holds its own.
    let mut schedule = std::mem::take(&mut exp.schedule);
    let writes = if exp.peers.is_some() { std::mem::take(&mut schedule) } else { Vec::new() };
    // A peer also logs its publishes and resolutions: it snapshots twice as often.
    let checkpoint_every = CHECKPOINT_EVERY >> u32::from(exp.peers.is_some());
    let run = Run { exp: &exp, faulty: exp.fault.is_some(), max_steps, checkpoint_every };

    let mut telemetry = None;
    let mut nodes = Vec::new();
    for space in spaces {
        let mut port = SimPort::new(space, std::mem::take(&mut schedule), exp.cost);
        let streams = [Capture::TRACE, Capture::PROV]
            .into_iter()
            .filter(|&k| exp.capture.contains(k))
            .count();
        let obs = port.obs().clone().with_capture(exp.capture, RING_PER_STREAM * streams.max(1));
        // The monitor, like the single-warehouse summary, reads the first.
        if nodes.is_empty() {
            telemetry = exp.monitor.map(|m| {
                let tracker = StalenessTracker::new(WINDOW_CAPACITY);
                tracker.bind_obs(&obs);
                tracker.set_cadence(m.window_us, 0);
                tracker.set_slo(m.slo);
                port.set_staleness(tracker.clone());
                Telemetry {
                    sampler: Sampler::new(obs.registry(), m.window_us, WINDOW_CAPACITY, 0),
                    tracker,
                }
            });
        }

        let mut wh = Warehouse::new(port.space().info().clone(), exp.strategy)
            .with_obs(obs.clone())
            .with_correction(exp.policy)
            .with_adaptation(exp.adaptation)
            .with_subplan_sharing(exp.share_subplans)
            .with_ingest_dedupe(!exp.break_dedupe);
        if let Some(bound) = exp.umq_bound {
            wh = wh.with_umq_bound(bound)?;
        }
        if let Some(t) = telemetry.as_ref().filter(|_| nodes.is_empty()) {
            wh = wh.with_staleness(t.tracker.clone());
        }
        exp.views.iter().for_each(|view| wh.add_view(view.clone()));
        wh.initialize(&mut port)?;
        port.start_metering();

        // A kill needs a log to recover from, and a peer logs its publishes
        // and resolutions.
        let disk = MemStorage::new();
        if !exp.kills.is_empty() || exp.peers.is_some() {
            let log = DurableLog::create(Box::new(disk.clone()))
                .expect("MemStorage never fails")
                .with_checkpoint_every(run.checkpoint_every);
            wh = wh.with_wal(log)?;
        }
        let versions = port.space().versions();
        let port = wrap(port, transport(&obs), versions.clone(), &run, &obs, 0);
        nodes.push(Node { wh, port, obs, disk, versions, kills: 0 });
    }
    let mut fabric = exp.peers.as_ref().map(|p| Fabric::new(p, exp.seed, writes, &nodes));

    let mut driven = Driven::default();
    let driven_to = drive(&mut nodes, &mut fabric, &mut telemetry, &run, &mut driven);
    let mut last_error = driven_to.err().map(|e| e.to_string());
    // Close the logs cleanly (a no-op without one): the final checkpoint
    // truncates the WAL so a later `recover` replays exactly one record and
    // reports no torn tail.
    nodes.iter_mut().for_each(|n| n.wh.checkpoint_now());

    let peer_views: Vec<Vec<ViewOutcome>> = nodes
        .iter()
        .map(|Node { wh, port, .. }| {
            let space = port.inner().space();
            let skipped = port.inner().metrics().skipped_commits;
            assert_eq!(skipped, 0, "a source rejected a scheduled commit — generator bug");
            let outcome = |i| ViewOutcome {
                converged: check_convergence(space, wh.view(i), wh.mv(i)).unwrap_or_else(|e| {
                    last_error.get_or_insert(format!("convergence oracle: {e}"));
                    false
                }),
                stats: wh.stats(i),
                extent_crc: extent_crc(wh.mv(i)),
                sql: wh.view(i).to_string(),
            };
            (0..wh.view_count()).map(outcome).collect()
        })
        .collect();
    // A peer's sources commit every write they hold, local or remote, as an
    // ordinary logged update: each one's history must rewind to its start.
    if exp.peers.is_some() {
        for (p, n) in nodes.iter().enumerate() {
            for server in n.port.inner().space().servers() {
                if let Err(e) = server.state_at(0) {
                    let s = server.id();
                    last_error.get_or_insert(format!("history oracle: peer {p} source {s}: {e}"));
                }
            }
        }
    }
    let crcs = |views: &[ViewOutcome]| views.iter().map(|v| v.extent_crc).collect::<Vec<_>>();
    Ok(Report {
        converged: last_error.is_none()
            && !driven.exhausted
            && nodes.iter().all(|n| n.wh.deferred_total() == 0)
            && peer_views.iter().flatten().all(|v| v.converged)
            && peer_views.windows(2).all(|w| crcs(&w[0]) == crcs(&w[1])),
        audit_violations: driven.audit_violations,
        steps: driven.steps,
        exhausted: driven.exhausted,
        last_error,
        metrics: nodes[0].port.inner().metrics(),
        views: peer_views[0].clone(),
        peer_views,
        telemetry,
        obs: nodes[0].obs.clone(),
        peer_obs: nodes.iter().map(|n| n.obs.clone()).collect(),
        peer_sources: nodes
            .iter_mut()
            .map(|n| std::mem::take(n.port.inner_mut().space_mut()))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::build_testbed;
    use dyno_obs::SloState;
    use dyno_view::wal::CrashPoint;

    fn tiny_cfg() -> TestbedConfig {
        TestbedConfig { tuples_per_relation: 200, ..Default::default() }
    }

    /// A fault-free experiment over the tiny testbed: `dus` flooded DUs plus
    /// an SC train of `scs` changes starting at `sc_start_us`.
    fn tiny(
        cfg: TestbedConfig,
        seed: u64,
        dus: usize,
        scs: usize,
        sc_start_us: u64,
        sc_gap_us: u64,
    ) -> Experiment {
        let (space, view) = build_testbed(&cfg);
        let mut gen = WorkloadGen::new(cfg, seed);
        let mut schedule = gen.du_flood(dus);
        schedule.extend(gen.sc_train(scs, sc_start_us, sc_gap_us));
        Experiment::new(space, vec![view], schedule)
    }

    fn crcs(report: &Report) -> Vec<u32> {
        report.views.iter().map(|v| v.extent_crc).collect()
    }

    #[test]
    fn traced_run_has_one_span_per_maintenance_attempt() {
        let report = run(Experiment {
            strategy: Strategy::Optimistic,
            capture: Capture::TRACE,
            ..tiny(tiny_cfg(), 13, 10, 2, 1_000_000, 10_000_000)
        })
        .unwrap();
        // One span per maintenance attempt, stamped in simulated µs.
        let spans: Vec<_> = report
            .obs
            .records()
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
            let run_with = |indexes: bool| {
                let cfg = TestbedConfig { indexes, ..tiny_cfg() };
                run(Experiment { strategy, ..tiny(cfg, 23, 12, 3, 2_000_000, 15_000_000) }).unwrap()
            };
            let (on, off) = (run_with(true), run_with(false));
            assert_eq!(on.metrics, off.metrics, "{strategy:?}: identical simulated series");
            assert!(on.converged && off.converged);
        }
    }

    #[test]
    fn pessimistic_never_costs_more_aborts_than_optimistic_here() {
        // A flood of conflicting updates at t=0: pessimistic pre-exec
        // correction avoids every abort; optimistic must suffer at least one.
        let mk =
            |strategy| run(Experiment { strategy, ..tiny(tiny_cfg(), 17, 5, 2, 0, 0) }).unwrap();
        let p = mk(Strategy::Pessimistic);
        let o = mk(Strategy::Optimistic);
        assert_eq!(p.metrics.aborts, 0, "pre-exec detection sees the flooded SCs");
        assert!(o.metrics.aborts >= 1, "optimistic discovers conflicts the hard way");
        assert!(p.metrics.total_cost_us() <= o.metrics.total_cost_us());
        assert!(p.converged && o.converged);
    }

    #[test]
    fn reliable_transport_costs_what_a_bare_port_costs() {
        // The fault-free figures run behind `Direct`; the wrap must not move
        // a simulated µs, a counter or the registered names. A burst large
        // enough that a resequencer would regroup it by source is the case
        // that tells the two apart.
        let exp = tiny(tiny_cfg(), 23, 60, 3, 2_000_000, 15_000_000);
        let (space, schedule) = (exp.space.clone(), exp.schedule.clone());
        let mut port = SimPort::new(space, schedule, CostModel::default());
        let mut wh = Warehouse::new(port.space().info().clone(), Strategy::Pessimistic)
            .with_obs(port.obs().clone());
        wh.add_view(exp.views[0].clone());
        wh.initialize(&mut port).unwrap();
        port.start_metering();
        loop {
            if wh.step(&mut port).unwrap() == StepOutcome::Idle {
                let Some(t) = port.next_commit_at_us() else { break };
                port.advance_to(t);
            }
        }

        let report = run(exp).unwrap();
        assert!(report.converged);
        assert_eq!(report.metrics, port.metrics(), "bit-identical series");
        assert_eq!(report.obs.metrics_text(), port.obs().metrics_text(), "bit-identical registry");
    }

    type Preset = fn(FaultProfile, u64) -> Experiment;

    /// The standard testbeds, by name.
    const PRESETS: [(&str, Preset); 2] =
        [("chaos", Experiment::chaos), ("multiview", Experiment::multiview)];

    #[test]
    fn every_preset_converges_quiet_and_faulty_and_replays_by_seed() {
        for (name, preset) in PRESETS {
            let quiet = run(preset(FaultProfile::quiet(), 42)).unwrap();
            assert!(quiet.converged, "{name}: no faults, must converge: {:?}", quiet.last_error);
            assert_eq!(quiet.audit_violations, 0, "{name}");
            assert_eq!(quiet.counter("fault.injected_total"), 0, "{name}");
            assert_eq!(quiet.counter("dyno.parked"), 0, "{name}");

            let faulty = run(preset(FaultProfile::drop_dup(), 7)).unwrap();
            assert!(faulty.converged, "{name}: recovery must mask drops and duplicates");
            assert_eq!(faulty.audit_violations, 0, "{name}");
            assert!(faulty.counter("fault.injected_total") > 0, "{name}: the profile fired");

            let (a, b) = (
                run(preset(FaultProfile::reorder_delay(), 19)).unwrap(),
                run(preset(FaultProfile::reorder_delay(), 19)).unwrap(),
            );
            assert_eq!(a.converged, b.converged, "{name}");
            assert_eq!(a.steps, b.steps, "{name}");
            assert_eq!(
                a.counter("fault.injected_total"),
                b.counter("fault.injected_total"),
                "{name}"
            );
            assert_eq!(a.metrics, b.metrics, "{name}: bit-identical simulated series");
            assert_eq!(crcs(&a), crcs(&b), "{name}: bit-identical extents");
        }
    }

    #[test]
    fn every_preset_recovers_a_mid_run_kill_bit_identically() {
        for (name, preset) in PRESETS {
            let baseline = run(preset(FaultProfile::quiet(), 42)).unwrap();
            let crashed = run(Experiment {
                kills: vec![CrashPlan { point: CrashPoint::BetweenSteps, skip: 2 }],
                ..preset(FaultProfile::quiet(), 42)
            })
            .unwrap();
            assert_eq!(crashed.counter("wal.power_cuts"), 1, "{name}: the kill fired");
            assert!(crashed.converged, "{name}: recovered run converges: {:?}", crashed.last_error);
            assert_eq!(crashed.audit_violations, 0, "{name}: after commits and the recovery");
            assert!(crashed.counter("recover.replayed") >= 1, "{name}");
            assert_eq!(crashed.counter("recover.torn_records"), 0, "{name}");
            assert_eq!(
                crcs(&crashed),
                crcs(&baseline),
                "{name}: recovery changes when work happens, never what is computed"
            );
            let sql = |r: &Report| r.views.iter().map(|v| v.sql.clone()).collect::<Vec<_>>();
            assert_eq!(sql(&crashed), sql(&baseline), "{name}: same final definitions");
        }
    }

    #[test]
    fn shared_and_unshared_runs_are_bit_identical() {
        let shared = run(Experiment::multiview(FaultProfile::quiet(), 19)).unwrap();
        let unshared = run(Experiment {
            share_subplans: false,
            ..Experiment::multiview(FaultProfile::quiet(), 19)
        })
        .unwrap();
        assert!(shared.converged && unshared.converged);
        assert!(shared.counter("subplan.shared_hits") > 0, "overlapping views share first hops");
        assert_eq!(unshared.counter("subplan.shared_hits"), 0);
        assert_eq!(
            crcs(&shared),
            crcs(&unshared),
            "sharing changes how much work runs, never what is computed"
        );
    }

    #[test]
    fn a_crash_that_outlives_the_retry_budget_parks_and_is_waited_out() {
        // `crash_restart` keeps a crashed source down for 2 s; with a 1 s
        // retry budget every crash the profile rolls parks its entry.
        let retry = RetryPolicy { budget_us: 1_000_000, ..RetryPolicy::default() };
        for seed in [3, 5, 9] {
            let report =
                run(Experiment { retry, ..Experiment::chaos(FaultProfile::crash_restart(), seed) })
                    .unwrap();
            assert!(report.counter("fault.crashes") > 0, "seed {seed}: a source crashed");
            assert!(report.counter("dyno.parked") > 0, "seed {seed}: and its entry parked");
            assert!(report.converged, "seed {seed}: crashes must be waited out");
            assert_eq!(report.audit_violations, 0, "seed {seed}");
        }
    }

    #[test]
    fn a_fault_free_run_takes_a_kill_plan() {
        // The figure workload plus a kill: the run is promoted to a
        // replay-capable transport and audited like any crash run.
        let plain = run(tiny(tiny_cfg(), 13, 10, 3, 1_000_000, 20_000_000)).unwrap();
        let killed = run(Experiment {
            kills: vec![CrashPlan { point: CrashPoint::AfterIntent, skip: 1 }],
            audit: true,
            ..tiny(tiny_cfg(), 13, 10, 3, 1_000_000, 20_000_000)
        })
        .unwrap();
        assert_eq!(killed.counter("wal.power_cuts"), 1);
        assert!(killed.converged, "{:?}", killed.last_error);
        assert_eq!(killed.audit_violations, 0);
        assert_eq!(crcs(&killed), crcs(&plain));
    }

    #[test]
    fn a_monitored_run_takes_a_fault_profile() {
        // Lanes still recover to ok behind a lossy link, and the run is
        // audited at every commit like any chaos run.
        let lossy =
            run(Experiment { fault: Some(FaultProfile::drop_dup()), audit: true, ..quick(42) })
                .unwrap();
        assert!(lossy.converged, "{:?}", lossy.last_error);
        assert!(lossy.counter("fault.injected_total") > 0);
        assert_eq!(lossy.audit_violations, 0);
        for (name, state) in lossy.telemetry.unwrap().tracker.states() {
            assert_eq!(state, SloState::Ok, "lane {name}");
        }
    }

    #[test]
    fn an_admission_bound_refuses_a_kill_plan_at_set_up() {
        // A bounded UMQ sheds what a WAL would have to replay.
        let refused = run(Experiment {
            umq_bound: Some(8),
            kills: vec![CrashPlan { point: CrashPoint::BetweenSteps, skip: 0 }],
            ..quick(42)
        });
        assert!(refused.is_err(), "shedding + WAL is rejected before the run starts");
    }

    #[test]
    fn an_unmonitored_report_renders_its_summary_alone() {
        let report = run(tiny(tiny_cfg(), 11, 4, 0, 0, 0)).unwrap();
        assert!(report.telemetry.is_none());
        let json = report.to_json();
        assert!(json.starts_with("{\"monitor\":{\"steps\":4,") && json.ends_with("}}"), "{json}");
        assert!(!json.contains("\"series\""), "no monitor, no series: {json}");
        assert!(report.render_text().starts_with("run: 4 steps, 4 admitted, 0 shed"));
    }

    /// A short steady open-loop run.
    fn quick(seed: u64) -> Experiment {
        Experiment::open_loop(
            TestbedConfig { tuples_per_relation: 60, ..Default::default() },
            &OpenLoopConfig {
                duration_us: 40_000_000,
                du_per_sec: 2.0,
                sc_storms: 0,
                ..Default::default()
            },
            seed,
            2,
        )
    }

    #[test]
    fn steady_monitored_run_recovers_to_ok_on_every_lane() {
        let report = run(quick(42)).unwrap();
        assert!(!report.exhausted && report.last_error.is_none());
        assert!(report.counter("umq.admitted") > 0, "DUs flowed through the UMQ");
        assert_eq!(report.counter("umq.shed"), 0, "unbounded UMQ never sheds");
        let t = report.telemetry.as_ref().unwrap();
        assert!(t.sampler.windows() >= 20, "a dense window series");
        assert!(t.tracker.windows() >= 20);
        assert_eq!(t.tracker.view_names(), vec!["Testbed", "T0", "T1"], "a lane per view");
        for (name, state) in t.tracker.states() {
            assert_eq!(state, SloState::Ok, "lane {name} must recover to ok");
        }
    }

    #[test]
    fn monitored_json_is_a_function_of_the_seed_and_blind_to_the_profiler() {
        let a = run(quick(42)).unwrap();
        assert_eq!(a.to_json(), run(quick(42)).unwrap().to_json(), "same experiment, same bytes");
        assert_ne!(a.to_json(), run(quick(43)).unwrap().to_json(), "the seed moves the series");
        let on = run(Experiment { capture: Capture::PROFILE, ..quick(42) }).unwrap();
        assert_eq!(a.to_json(), on.to_json(), "the profiler must not perturb the report");
        assert!(a.obs.profile_snapshot().is_empty(), "profiler off captures nothing");
        assert!(on.obs.profile_snapshot().plan_count() > 0, "profiled run captured plan trees");
    }
}
