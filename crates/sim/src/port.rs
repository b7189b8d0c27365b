//! The timed source port: a [`SourcePort`] implementation driven by a
//! virtual clock, with a schedule of future autonomous source commits.
//!
//! This is where the paper's concurrency physics is reproduced: every
//! maintenance query first advances the clock by its cost, and **any
//! scheduled source commit whose time has come is applied before the query
//! is answered**. A query therefore sees exactly the source state that a
//! real loosely-coupled system would have shown it — including updates the
//! view manager has not heard about yet.

use std::collections::VecDeque;

use dyno_obs::{field, Collector, Counter, Histogram, Level, StalenessTracker, VirtualClock};
use dyno_relational::{QueryResult, Relation, RelationalError, SourceUpdate, SpjQuery, ZSet};
use dyno_source::{SourceId, SourceSpace, UpdateMessage};
use dyno_view::{eval_with_bound, BoundTable, HopRequest, MaintEvent, SourcePort};

use crate::cost::CostModel;
use crate::metrics::Metrics;

/// A future autonomous commit.
#[derive(Debug, Clone)]
pub struct ScheduledCommit {
    /// Simulated commit time (µs from run start).
    pub at_us: u64,
    /// The committing source.
    pub source: SourceId,
    /// The update.
    pub update: SourceUpdate,
    /// The peer whose sources commit it (0 in a single-warehouse run).
    pub peer: usize,
}

/// The port's run counters, bound once to `sim.*` registry entries so hot
/// paths update `Cell`s instead of looking up names.
#[derive(Debug, Clone)]
struct SimCounters {
    committed_us: Counter,
    abort_us: Counter,
    committed_sc_us: Counter,
    abort_sc_us: Counter,
    queries: Counter,
    aborts: Counter,
    attempts: Counter,
    skipped_commits: Counter,
    /// Maintenance attempts parked on an unavailable source, and the
    /// simulated time they consumed before parking.
    parks: Counter,
    parked_us: Counter,
    /// Per-entry simulated cost of committed maintenance (log₂ buckets).
    entry_committed: Histogram,
    /// Per-entry simulated cost of aborted maintenance.
    entry_abort: Histogram,
}

impl SimCounters {
    fn bind(obs: &Collector) -> Self {
        SimCounters {
            committed_us: obs.counter("sim.committed_us"),
            abort_us: obs.counter("sim.abort_us"),
            committed_sc_us: obs.counter("sim.committed_sc_us"),
            abort_sc_us: obs.counter("sim.abort_sc_us"),
            queries: obs.counter("sim.queries"),
            aborts: obs.counter("sim.aborts"),
            attempts: obs.counter("sim.attempts"),
            skipped_commits: obs.counter("sim.skipped_commits"),
            parks: obs.counter("sim.parks"),
            parked_us: obs.counter("sim.parked_us"),
            entry_committed: obs.histogram("sim.entry_committed_us"),
            entry_abort: obs.histogram("sim.entry_abort_us"),
        }
    }
}

/// The timed port.
#[derive(Debug, Clone)]
pub struct SimPort {
    space: SourceSpace,
    now_us: u64,
    schedule: VecDeque<ScheduledCommit>,
    arrivals: Vec<UpdateMessage>,
    cost: CostModel,
    metering: bool,
    maint_begin_us: Option<u64>,
    maint_has_sc: bool,
    clock: VirtualClock,
    obs: Collector,
    sim: SimCounters,
    staleness: Option<StalenessTracker>,
}

impl SimPort {
    /// Creates a port over `space` with a commit schedule (sorted by time;
    /// ties keep the given order) and a cost model. Metering starts
    /// disabled so view initialization is free; call
    /// [`SimPort::start_metering`] when the run begins.
    ///
    /// The port owns an enabled [`Collector`] stamped by its virtual clock:
    /// run counters live in its registry (the [`Metrics`] struct is a
    /// projection of them) and, when tracing is switched on, events and
    /// spans carry simulated-µs timestamps. Share it with the warehouse
    /// (`Warehouse::with_obs(port.obs().clone())`) to get one coherent
    /// timeline across the scheduler, the maintenance paths, and the port.
    pub fn new(space: SourceSpace, mut schedule: Vec<ScheduledCommit>, cost: CostModel) -> Self {
        schedule.sort_by_key(|c| c.at_us);
        let clock = VirtualClock::new();
        let obs = Collector::with_virtual_clock(clock.clone());
        let sim = SimCounters::bind(&obs);
        SimPort {
            space,
            now_us: 0,
            schedule: schedule.into(),
            arrivals: Vec::new(),
            cost,
            metering: false,
            maint_begin_us: None,
            maint_has_sc: false,
            clock,
            obs,
            sim,
            staleness: None,
        }
    }

    /// Enables cost metering (initialization is complete).
    pub fn start_metering(&mut self) {
        self.metering = true;
    }

    /// Attaches a staleness tracker: every applied scheduled commit is
    /// noted at its true simulated commit time, which is the "commit"
    /// endpoint of the end-to-end staleness measurement (DESIGN.md §14).
    pub fn set_staleness(&mut self, tracker: StalenessTracker) {
        self.staleness = Some(tracker);
    }

    /// The wrapped source space.
    pub fn space(&self) -> &SourceSpace {
        &self.space
    }

    /// The sources, mutably: for setup outside the schedule, and to move
    /// them out at the end of a run.
    pub fn space_mut(&mut self) -> &mut SourceSpace {
        &mut self.space
    }

    /// The port's collector. Clones share the pipeline, so this is the
    /// handle to thread into `Warehouse::with_obs` and to switch capture on
    /// (`with_capture`) for a run.
    pub fn obs(&self) -> &Collector {
        &self.obs
    }

    /// Metrics so far: a projection of the `sim.*` registry counters plus
    /// the current clock, so registry snapshots and this struct can never
    /// disagree.
    pub fn metrics(&self) -> Metrics {
        Metrics {
            committed_us: self.sim.committed_us.get(),
            abort_us: self.sim.abort_us.get(),
            committed_sc_us: self.sim.committed_sc_us.get(),
            abort_sc_us: self.sim.abort_sc_us.get(),
            queries: self.sim.queries.get(),
            aborts: self.sim.aborts.get(),
            attempts: self.sim.attempts.get(),
            skipped_commits: self.sim.skipped_commits.get(),
            end_us: self.now_us,
        }
    }

    /// The next scheduled commit's time, if any.
    pub fn next_commit_at_us(&self) -> Option<u64> {
        self.schedule.front().map(|c| c.at_us)
    }

    /// Jumps the clock forward to `t_us` (never backward) and applies newly
    /// due commits — how the driver lets an idle or parked warehouse wait
    /// for the next scheduled commit or transport event (delayed delivery,
    /// source restart).
    pub fn advance_to(&mut self, t_us: u64) {
        let t = t_us.max(self.now_us);
        self.set_now(t);
        self.apply_due_commits();
    }

    /// Moves the clock, keeping the collector's virtual clock in lockstep
    /// so trace timestamps are simulated µs.
    fn set_now(&mut self, t_us: u64) {
        self.now_us = t_us;
        self.clock.set(t_us);
    }

    /// Advances the clock and applies newly due commits. Only used at
    /// points *immediately before a query evaluation* (and at idle jumps):
    /// a commit must never become visible to the wrapper stream without
    /// also being visible to the next query result, or compensation would
    /// subtract updates the query never saw.
    fn advance(&mut self, dt_us: u64) {
        self.set_now(self.now_us + dt_us);
        self.apply_due_commits();
    }

    /// Advances the clock without applying commits (post-evaluation cost
    /// charges: result shipping, local computation, MV writes). Commits
    /// whose time passes during a quiet advance are applied at the next
    /// pre-evaluation point, exactly when they next become observable.
    fn advance_quiet(&mut self, dt_us: u64) {
        self.set_now(self.now_us + dt_us);
    }

    fn apply_due_commits(&mut self) {
        while self.schedule.front().is_some_and(|c| c.at_us <= self.now_us) {
            let c = self.schedule.pop_front().expect("peeked");
            self.commit(c);
        }
    }

    /// Applies one commit now, as if it had been scheduled: its message
    /// joins the arrivals, or a rejected commit is counted as skipped.
    pub fn commit(&mut self, c: ScheduledCommit) {
        match self.space.commit(c.source, c.update) {
            Ok(msg) => {
                // The causal id is born here: every later provenance record
                // for this update keys on msg.id.
                self.obs.prov(
                    msg.id.0,
                    dyno_obs::stage::COMMIT,
                    &[field("source", msg.source.0), field("version", msg.source_version)],
                );
                if let Some(tracker) = &self.staleness {
                    tracker.note_commit(msg.source.0, msg.source_version, c.at_us);
                }
                self.arrivals.push(msg);
            }
            Err(_) => {
                self.sim.skipped_commits.inc();
                self.obs.event(
                    Level::Warn,
                    "sim.skipped_commit",
                    &[field("source", c.source.0), field("at_us", c.at_us)],
                );
            }
        }
    }

    /// Estimated tuples a query or hop scans at sources: the sizes of the
    /// source relations (`tables`) it reads.
    fn scanned_tuples<'t>(&self, tables: impl Iterator<Item = &'t str>) -> u64 {
        tables
            .map(|t| {
                self.space
                    .locate(t)
                    .and_then(|sid| self.space.server(sid).catalog().get(t).ok().map(Relation::len))
                    .unwrap_or(0)
            })
            .sum()
    }

    /// One metered source round trip — the shared body of `execute` and
    /// `hop`. The clock advances by the query latency *before* `eval`
    /// (commits landing during the round trip are visible to it), and the
    /// answer is charged for scanning `scanned` and shipping
    /// `weight(&answer)` tuples. The executor's own work is not metered
    /// here: the warehouse samples it per step into `exec.*`.
    fn round_trip<'t, R>(
        &mut self,
        scanned: impl Iterator<Item = &'t str>,
        eval: impl FnOnce(&SourceSpace) -> Result<R, RelationalError>,
        weight: impl FnOnce(&R) -> u64,
    ) -> Result<R, RelationalError> {
        if self.metering {
            self.sim.queries.inc();
            self.advance(self.cost.query_latency_us);
        }
        let result = eval(&self.space);
        if self.metering {
            // Simulated time is charged from *schema-level* relation sizes,
            // not the executor's actual work: the simulated-seconds series
            // of the paper figures must not depend on which access path the
            // in-process executor happened to pick.
            let scanned = self.scanned_tuples(scanned);
            let shipped = result.as_ref().map(weight).unwrap_or(0);
            self.advance_quiet(
                scanned * self.cost.scan_tuple_us + shipped * self.cost.result_tuple_us,
            );
        }
        result
    }
}

impl SourcePort for SimPort {
    fn now_ms(&self) -> u64 {
        self.now_us / 1000
    }

    fn now_us(&self) -> u64 {
        self.now_us
    }

    fn advance_wait(&mut self, us: u64) {
        // Backoff/crash waits pass quietly: commits falling due during the
        // wait become observable at the next pre-evaluation point, like any
        // other post-eval charge.
        if self.metering {
            self.advance_quiet(us);
        }
    }

    fn execute(
        &mut self,
        query: &SpjQuery,
        bound: &[BoundTable],
    ) -> Result<QueryResult, RelationalError> {
        let unbound = query.tables.iter().filter(|t| !bound.iter().any(|b| b.name == **t));
        self.round_trip(
            unbound.map(String::as_str),
            |space| eval_with_bound(&space.provider(), query, bound),
            QueryResult::weight,
        )
    }

    fn hop(&mut self, req: &HopRequest<'_>) -> Result<ZSet, RelationalError> {
        self.round_trip(
            std::iter::once(req.target),
            |space| req.answer(&space.provider()),
            ZSet::weight,
        )
    }

    fn locate(&mut self, relation: &str) -> Option<SourceId> {
        self.space.locate(relation)
    }

    fn source_version(&mut self, source: SourceId) -> u64 {
        self.space.server(source).version()
    }

    fn charge_local(&mut self, tuples: u64) {
        if self.metering {
            self.advance_quiet(tuples * self.cost.local_tuple_us);
        }
    }

    fn drain_arrivals(&mut self) -> Vec<UpdateMessage> {
        std::mem::take(&mut self.arrivals)
    }

    fn charge_mv_write(&mut self, tuples: u64) {
        if self.metering {
            self.advance_quiet(tuples * self.cost.mv_write_tuple_us);
        }
    }

    fn on_maintenance_event(&mut self, event: MaintEvent) {
        if !self.metering {
            return;
        }
        match event {
            MaintEvent::Begin { schema_changes, updates: _ } => {
                self.sim.attempts.inc();
                self.maint_has_sc = schema_changes > 0;
                self.maint_begin_us = Some(self.now_us);
                // VS rewriting cost is paid per schema change in the batch.
                self.advance_quiet(schema_changes as u64 * self.cost.vs_rewrite_us);
            }
            MaintEvent::Commit => {
                if let Some(t0) = self.maint_begin_us.take() {
                    let dt = self.now_us - t0;
                    self.sim.committed_us.add(dt);
                    self.sim.entry_committed.record(dt);
                    if self.maint_has_sc {
                        self.sim.committed_sc_us.add(dt);
                    }
                }
            }
            MaintEvent::Abort => {
                if let Some(t0) = self.maint_begin_us.take() {
                    let dt = self.now_us - t0;
                    self.sim.aborts.inc();
                    self.sim.abort_us.add(dt);
                    self.sim.entry_abort.record(dt);
                    if self.maint_has_sc {
                        self.sim.abort_sc_us.add(dt);
                    }
                }
            }
            MaintEvent::Park => {
                // Not an abort: no maintenance work was discarded, the
                // entry just could not run. Track it separately.
                if let Some(t0) = self.maint_begin_us.take() {
                    self.sim.parks.inc();
                    self.sim.parked_us.add(self.now_us - t0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyno_relational::{AttrType, Catalog, Schema, SchemaChange, Tuple, Value};
    use dyno_relational::{DataUpdate, Delta};
    use dyno_source::SourceServer;

    fn space() -> SourceSpace {
        let mut sp = SourceSpace::new();
        let mut c = Catalog::new();
        c.add_relation(
            dyno_relational::Relation::from_tuples(
                Schema::of("R", &[("a", AttrType::Int)]),
                [Tuple::of([Value::from(1)])],
            )
            .unwrap(),
        )
        .unwrap();
        sp.add_server(SourceServer::new(SourceId(0), "s0", c));
        sp
    }

    fn du(v: i64) -> SourceUpdate {
        SourceUpdate::Data(DataUpdate::new(
            Delta::inserts(Schema::of("R", &[("a", AttrType::Int)]), [Tuple::of([v])]).unwrap(),
        ))
    }

    #[test]
    fn commits_become_visible_when_clock_passes_them() {
        let schedule =
            vec![ScheduledCommit { at_us: 50_000, source: SourceId(0), update: du(2), peer: 0 }];
        let mut port = SimPort::new(space(), schedule, CostModel::default());
        port.start_metering();
        let q = dyno_relational::SpjQuery::over(["R"]).select("R", "a").build();
        // First query: latency 40ms < 50ms → commit not yet visible.
        let r1 = port.execute(&q, &[]).unwrap();
        assert_eq!(r1.weight(), 1);
        // Second query pushes the clock past 50ms → commit visible.
        let r2 = port.execute(&q, &[]).unwrap();
        assert_eq!(r2.weight(), 2);
        assert_eq!(port.drain_arrivals().len(), 1);
    }

    #[test]
    fn metering_toggle() {
        let schedule =
            vec![ScheduledCommit { at_us: 1, source: SourceId(0), update: du(2), peer: 0 }];
        let mut port = SimPort::new(space(), schedule, CostModel::default());
        let q = dyno_relational::SpjQuery::over(["R"]).select("R", "a").build();
        port.execute(&q, &[]).unwrap();
        assert_eq!(port.now_ms(), 0, "unmetered execution is free");
        assert!(port.next_commit_at_us().is_some());
        port.start_metering();
        port.execute(&q, &[]).unwrap();
        assert!(port.now_ms() >= 40);
        assert!(port.next_commit_at_us().is_none());
    }

    #[test]
    fn abort_cost_accounting() {
        let mut port = SimPort::new(space(), vec![], CostModel::default());
        port.start_metering();
        port.on_maintenance_event(MaintEvent::Begin { updates: 1, schema_changes: 0 });
        let q = dyno_relational::SpjQuery::over(["R"]).select("R", "a").build();
        port.execute(&q, &[]).unwrap();
        port.on_maintenance_event(MaintEvent::Abort);
        let m = port.metrics();
        assert_eq!(m.aborts, 1);
        assert!(m.abort_us >= 40_000);
        assert_eq!(m.committed_us, 0);
    }

    #[test]
    fn sc_cost_classified() {
        let mut port = SimPort::new(space(), vec![], CostModel::default());
        port.start_metering();
        port.on_maintenance_event(MaintEvent::Begin { updates: 1, schema_changes: 1 });
        port.on_maintenance_event(MaintEvent::Commit);
        let m = port.metrics();
        assert!(m.committed_sc_us >= CostModel::default().vs_rewrite_us);
    }

    #[test]
    fn idle_jump_applies_commits() {
        let schedule =
            vec![ScheduledCommit { at_us: 2_000_000, source: SourceId(0), update: du(5), peer: 0 }];
        let mut port = SimPort::new(space(), schedule, CostModel::default());
        port.start_metering();
        port.advance_to(port.next_commit_at_us().unwrap());
        assert_eq!(port.now_ms(), 2000);
        assert_eq!(port.drain_arrivals().len(), 1);
        assert!(port.next_commit_at_us().is_none());
    }

    #[test]
    fn arrivals_stream_in_commit_order() {
        let schedule: Vec<ScheduledCommit> = (0..5)
            .map(|k| ScheduledCommit {
                at_us: (k as u64 + 1) * 10_000,
                source: SourceId(0),
                update: du(100 + k as i64),
                peer: 0,
            })
            .collect();
        let mut port = SimPort::new(space(), schedule, CostModel::default());
        port.start_metering();
        let mut seen = Vec::new();
        while let Some(t) = port.next_commit_at_us() {
            port.advance_to(t);
            seen.extend(port.drain_arrivals());
        }
        assert_eq!(seen.len(), 5);
        assert!(seen.windows(2).all(|w| w[0].id < w[1].id), "wrapper stream is FIFO");
        assert!(
            seen.windows(2).all(|w| w[0].source_version + 1 == w[1].source_version),
            "per-source versions are dense"
        );
    }

    #[test]
    fn quiet_advance_defers_commit_visibility() {
        // A commit falling due during a post-eval charge must not be
        // streamed before the next pre-eval point.
        let schedule =
            vec![ScheduledCommit { at_us: 1_000, source: SourceId(0), update: du(2), peer: 0 }];
        let mut port = SimPort::new(space(), vec![], CostModel::default());
        port.start_metering();
        port.schedule = schedule.into();
        port.charge_local(2_000_000); // 2 s pass quietly
        assert!(port.drain_arrivals().is_empty(), "not yet observable");
        let q = dyno_relational::SpjQuery::over(["R"]).select("R", "a").build();
        let r = port.execute(&q, &[]).unwrap();
        assert_eq!(r.weight(), 2, "visible to the query that could observe it");
        assert_eq!(port.drain_arrivals().len(), 1, "and streamed at the same moment");
    }

    #[test]
    fn exec_counters_have_one_writer_when_a_warehouse_shares_the_ports_collector() {
        // Regression: the port and the warehouse both folded the executor's
        // thread-local stats into the same `exec.*` registry counters, so a
        // warehouse bound to `port.obs()` read double.
        use crate::testbed::{build_testbed, TestbedConfig};
        let cfg = TestbedConfig { tuples_per_relation: 200, ..Default::default() };
        let (space, view) = build_testbed(&cfg);
        let schedule = crate::workload::WorkloadGen::new(cfg, 11).du_flood(20);
        let info = space.info().clone();
        let mut port = SimPort::new(space, schedule, CostModel::default());
        let mut wh = dyno_view::Warehouse::new(info, dyno_core::Strategy::Pessimistic)
            .with_obs(port.obs().clone());
        wh.add_view(view);
        wh.initialize(&mut port).unwrap();
        port.start_metering();

        let before = dyno_relational::thread_stats();
        loop {
            if wh.step(&mut port).unwrap() == dyno_core::StepOutcome::Idle {
                let Some(t) = port.next_commit_at_us() else { break };
                port.advance_to(t);
            }
        }
        let ran = dyno_relational::thread_stats().since(before);
        assert_eq!(wh.stats(0).du_committed, 20);
        assert!(ran.index_probes > 0, "the testbed maintains through index probes");
        let reg = port.obs().registry();
        assert_eq!(reg.counter_value("exec.index_probes"), Some(ran.index_probes));
        assert_eq!(reg.counter_value("exec.rows_scanned"), Some(ran.rows_scanned));
    }

    #[test]
    fn invalid_scheduled_commit_is_counted_not_fatal() {
        let schedule = vec![ScheduledCommit {
            at_us: 1,
            source: SourceId(0),
            update: SourceUpdate::Schema(SchemaChange::DropRelation { relation: "Ghost".into() }),
            peer: 0,
        }];
        let mut port = SimPort::new(space(), schedule, CostModel::default());
        port.start_metering();
        port.advance_to(1);
        assert_eq!(port.metrics().skipped_commits, 1);
    }
}
