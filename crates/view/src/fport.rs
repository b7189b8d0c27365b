//! [`FaultedPort`]: a [`SourcePort`] decorator that routes both legs of the
//! warehouse/source conversation through a [`Transport`] and recovers from
//! whatever the transport does to them.
//!
//! * **Delivery leg** (wrapper → UMQ): every message the inner port commits
//!   passes through [`Transport::send`]; what comes out (possibly dropped,
//!   duplicated, reordered, delayed) is resequenced by a
//!   [`Recovery`] — exactly-once, in-order per source, with NACK/refetch on
//!   gaps — before the view manager sees it.
//! * **Query leg** (maintenance engine → source): every query first asks
//!   [`Transport::query_fault`]. Timeouts and transient errors are retried
//!   under a [`RetryPolicy`] (exponential backoff + deterministic jitter,
//!   charged to the simulated clock via [`SourcePort::advance_wait`]); a
//!   crashed source is waited out within the retry budget, and beyond it the
//!   query fails with [`RelationalError::Unavailable`] — which parks the
//!   queue entry instead of aborting it.
//!
//! ## Why compensation stays correct under chaos
//!
//! SWEEP compensation subtracts, from each maintenance-query result, the
//! effect of every *pending-but-unprocessed* update the query already saw.
//! That argument needs one invariant: an update visible in a query result
//! must be in the manager's pending/drained set by compensation time. A
//! delayed message would break it — the query sees the commit, the UMQ does
//! not. [`FaultedPort`] restores the invariant by force-flushing
//! ([`Recovery::sync_to`]) every source the query touched, up to the version
//! the query saw, immediately after each execution — including failed ones,
//! so in-exec schema-change arrivals reach the queue and correction can see
//! them. Uninvolved sources' messages may stay delayed: the view does not
//! advance for them, so consistency is unaffected.

use std::collections::HashMap;

use dyno_fault::rng::Rng;
use dyno_fault::{QueryFault, Recovery, RetryPolicy, Transport};
use dyno_obs::{Collector, Counter};
use dyno_relational::{QueryResult, Relation, RelationalError, SpjQuery, ZSet};
use dyno_source::{SourceId, UpdateMessage};

use crate::engine::{BoundTable, HopRequest, MaintEvent, SourcePort};

/// `retry.*` registry handles.
#[derive(Debug, Clone, Default)]
struct RetryCounters {
    attempts: Counter,
    recoveries: Counter,
    exhausted: Counter,
    wait_us: Counter,
}

impl RetryCounters {
    fn bind(obs: &Collector) -> Self {
        RetryCounters {
            attempts: obs.counter("retry.attempts"),
            recoveries: obs.counter("retry.recoveries"),
            exhausted: obs.counter("retry.exhausted"),
            wait_us: obs.counter("retry.wait_us"),
        }
    }
}

/// A [`SourcePort`] wrapped in a (possibly faulty) transport plus the
/// recovery machinery that makes the combination safe to maintain views
/// over. With [`dyno_fault::Direct`] it is a zero-fault passthrough.
#[derive(Debug, Clone)]
pub struct FaultedPort<P, T> {
    inner: P,
    transport: T,
    recovery: Recovery,
    retry: RetryPolicy,
    /// Jitter PRNG — separate from the transport's so adding retries never
    /// perturbs the fault sequence.
    rng: Rng,
    /// In-order messages released by recovery, awaiting `drain_arrivals`.
    out: Vec<UpdateMessage>,
    /// Every source in the space (sorted) — the fallback scope when a query
    /// references a relation `locate` no longer knows.
    all_sources: Vec<SourceId>,
    counters: RetryCounters,
}

impl<P: SourcePort, T: Transport> FaultedPort<P, T> {
    /// Wraps `inner` behind `transport`. `baseline` must be the per-source
    /// versions the view already reflects (wrap *after*
    /// `Warehouse::initialize`), so pre-wrap commits are not refetched.
    pub fn new(inner: P, transport: T, baseline: HashMap<SourceId, u64>) -> Self {
        let mut all_sources: Vec<SourceId> = baseline.keys().copied().collect();
        all_sources.sort_unstable();
        FaultedPort {
            inner,
            transport,
            recovery: Recovery::new(baseline),
            retry: RetryPolicy::default(),
            rng: Rng::new(0x5eed_f0c5),
            out: Vec::new(),
            all_sources,
            counters: RetryCounters::default(),
        }
    }

    /// Overrides the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Reseeds the jitter PRNG.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = Rng::new(seed);
        self
    }

    /// Binds the `retry.*` and recovery `fault.*` counters into a
    /// collector's registry.
    pub fn with_obs(mut self, obs: &Collector) -> Self {
        self.counters = RetryCounters::bind(obs);
        self.recovery = self.recovery.with_obs(obs);
        self
    }

    /// Disables delivery recovery (dedupe/resequencing/NACK) — the
    /// deliberately broken configuration the chaos suite must catch.
    pub fn with_recovery(mut self, enabled: bool) -> Self {
        self.recovery = self.recovery.with_recovery(enabled);
        self
    }

    /// The wrapped port.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Mutable access to the wrapped port (test/scenario drivers commit
    /// through here).
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// The transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Tears the port down to its parts — a warehouse **kill**. The recovery
    /// sequencer, its reorder buffers, and the undrained `out` messages die
    /// with the process (that is the point: only WAL + transport survive);
    /// the inner port and transport are the outside world and live on.
    pub fn into_parts(self) -> (P, T) {
        (self.inner, self.transport)
    }

    /// Re-subscribes after a restart: asks the transport to replay, per
    /// source, everything beyond what this (rebuilt) port's baseline says
    /// was delivered. With the baseline taken from recovered WAL marks, the
    /// replay covers exactly the window between the last durable admission
    /// and the crash; the recovery sequencer and the warehouse's ingress
    /// gate dedupe any overlap.
    pub fn resubscribe(&mut self) {
        let sources = self.all_sources.clone();
        for s in sources {
            let after = self.recovery.delivered(s);
            let replayed = self.transport.replay(s, after);
            if !replayed.is_empty() {
                self.recovery.admit(replayed, &mut self.transport, &mut self.out);
            }
        }
    }

    /// Tells the transport that `source`'s messages through `upto` are
    /// durable on the warehouse side (checkpointed or applied) and need not
    /// be retained for replay.
    pub fn ack_durable(&mut self, source: SourceId, upto: u64) {
        self.transport.ack(source, upto);
    }

    /// The earliest future simulated µs at which transport-held state
    /// changes on its own (delayed delivery due / crashed source restart).
    pub fn next_wakeup_us(&self) -> Option<u64> {
        self.transport.next_event_us(self.inner.now_us())
    }

    /// Total faults the transport has injected.
    pub fn injected_total(&self) -> u64 {
        self.transport.injected_total()
    }

    /// Force-delivers everything the transport still holds (quiescence
    /// flush; the scenario driver calls this once commits stop).
    pub fn flush_all(&mut self) {
        self.ingest_arrivals();
        self.recovery.flush_all(&mut self.transport, &mut self.out);
    }

    /// Moves fresh inner-port commits through the transport and recovery
    /// into the ordered `out` buffer, along with any held deliveries that
    /// have fallen due.
    fn ingest_arrivals(&mut self) {
        let now = self.inner.now_us();
        let mut delivered = self.transport.poll(now);
        let committed = self.inner.drain_arrivals();
        if !committed.is_empty() {
            delivered.extend(self.transport.send(committed, now));
        }
        if !delivered.is_empty() {
            self.recovery.admit(delivered, &mut self.transport, &mut self.out);
        }
    }

    /// The consistency-critical flush: everything `sources` committed up to
    /// the versions a just-executed query saw must reach the UMQ before
    /// compensation runs.
    fn sync_sources(&mut self, sources: &[SourceId]) {
        for &s in sources {
            let seen = self.inner.source_version(s);
            self.recovery.sync_to(s, seen, &mut self.transport, &mut self.out);
        }
    }

    /// Runs `op` against the inner port under the transport's query-fault
    /// oracle, retrying per policy. `sources` are the sources `op` contacts
    /// (fault rolls and post-success sync are per source, in sorted order
    /// for determinism).
    fn with_query_faults<R>(
        &mut self,
        sources: &[SourceId],
        mut op: impl FnMut(&mut P) -> Result<R, RelationalError>,
    ) -> Result<R, RelationalError> {
        let mut attempt: u32 = 0;
        let mut waited_us: u64 = 0;
        loop {
            let now = self.inner.now_us();
            let fault =
                sources.iter().find_map(|&s| self.transport.query_fault(s, now).map(|f| (s, f)));
            match fault {
                None => {
                    let result = op(&mut self.inner);
                    // Arrivals and the per-source flush must happen even on
                    // Err: an in-exec schema-change message has to reach the
                    // queue or correction never sees it.
                    self.ingest_arrivals();
                    self.sync_sources(sources);
                    if attempt > 0 {
                        self.counters.recoveries.inc();
                    }
                    return result;
                }
                Some((_, QueryFault::Timeout)) => {
                    // The query ran and cost source time; only the answer
                    // was lost. Execute and discard.
                    let _ = op(&mut self.inner);
                    self.ingest_arrivals();
                    self.sync_sources(sources);
                }
                Some((_, QueryFault::Transient)) => {
                    // Refused before running: only backoff is charged.
                }
                Some((source, QueryFault::SourceDown { until_us })) => {
                    let wait = until_us.saturating_sub(now).max(1);
                    if waited_us.saturating_add(wait) > self.retry.budget_us {
                        self.counters.exhausted.inc();
                        return Err(unavailable(source, "crash outlives retry budget"));
                    }
                    waited_us += wait;
                    self.counters.wait_us.add(wait);
                    self.inner.advance_wait(wait);
                    // The wait is not an attempt: the restart moment is
                    // known, so waiting for it always "succeeds".
                    self.ingest_arrivals();
                    continue;
                }
            }
            attempt += 1;
            self.counters.attempts.inc();
            if attempt >= self.retry.max_attempts {
                self.counters.exhausted.inc();
                return Err(unavailable(
                    sources.first().copied().unwrap_or(SourceId(0)),
                    "retry attempts exhausted",
                ));
            }
            let backoff = self.retry.backoff_us(attempt, &mut self.rng);
            if waited_us.saturating_add(backoff) > self.retry.budget_us {
                self.counters.exhausted.inc();
                return Err(unavailable(
                    sources.first().copied().unwrap_or(SourceId(0)),
                    "retry budget exhausted",
                ));
            }
            waited_us += backoff;
            self.counters.wait_us.add(backoff);
            self.inner.advance_wait(backoff);
        }
    }

    /// The distinct sources hosting `tables` — the relations a query or hop
    /// reads at the sources — sorted so fault rolls are deterministic.
    ///
    /// If any of them cannot be located, the view's name map is stale
    /// — typically a schema change renamed or dropped the relation and the
    /// announcing message is still in flight (or was dropped). The query is
    /// about to fail as broken, and the announcement MUST reach the queue
    /// or the scheduler re-runs the same broken query forever; scoping to
    /// every source makes the post-execution sync recover it.
    fn involved_sources<'t>(&mut self, tables: impl Iterator<Item = &'t str>) -> Vec<SourceId> {
        let mut sources = Vec::new();
        for t in tables {
            match self.inner.locate(t) {
                Some(s) => sources.push(s),
                None => return self.all_sources.clone(),
            }
        }
        sources.sort_unstable();
        sources.dedup();
        sources
    }
}

fn unavailable(source: SourceId, reason: &str) -> RelationalError {
    RelationalError::Unavailable { source: source.to_string(), reason: reason.to_string() }
}

impl<P: SourcePort, T: Transport> SourcePort for FaultedPort<P, T> {
    fn now_ms(&self) -> u64 {
        self.inner.now_ms()
    }

    fn now_us(&self) -> u64 {
        self.inner.now_us()
    }

    fn advance_wait(&mut self, us: u64) {
        self.inner.advance_wait(us);
    }

    fn execute(
        &mut self,
        query: &SpjQuery,
        bound: &[BoundTable],
    ) -> Result<QueryResult, RelationalError> {
        let unbound = query.tables.iter().filter(|t| !bound.iter().any(|b| &b.name == *t));
        let sources = self.involved_sources(unbound.map(String::as_str));
        self.with_query_faults(&sources, |p| p.execute(query, bound))
    }

    fn hop(&mut self, req: &HopRequest<'_>) -> Result<ZSet, RelationalError> {
        let sources = self.involved_sources(std::iter::once(req.target));
        self.with_query_faults(&sources, |p| p.hop(req))
    }

    fn fetch_relation_at(
        &mut self,
        source: SourceId,
        relation: &str,
        version: u64,
    ) -> Result<Relation, RelationalError> {
        self.with_query_faults(&[source], |p| p.fetch_relation_at(source, relation, version))
    }

    fn locate(&mut self, relation: &str) -> Option<SourceId> {
        self.inner.locate(relation)
    }

    fn source_version(&mut self, source: SourceId) -> u64 {
        self.inner.source_version(source)
    }

    fn charge_local(&mut self, tuples: u64) {
        self.inner.charge_local(tuples);
    }

    fn charge_mv_write(&mut self, tuples: u64) {
        self.inner.charge_mv_write(tuples);
    }

    fn drain_arrivals(&mut self) -> Vec<UpdateMessage> {
        self.ingest_arrivals();
        std::mem::take(&mut self.out)
    }

    fn on_maintenance_event(&mut self, event: MaintEvent) {
        self.inner.on_maintenance_event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::InProcessPort;
    use crate::testkit::*;
    use crate::Warehouse;
    use dyno_core::Strategy;
    use dyno_fault::{ChaosTransport, Direct, FaultProfile};
    use dyno_relational::SourceUpdate;

    fn faulted_manager<T: Transport>(transport: T) -> (Warehouse, FaultedPort<InProcessPort, T>) {
        let (mgr, port) = plain_manager();
        let baseline = port.space().versions();
        (mgr, FaultedPort::new(port, transport, baseline))
    }

    fn plain_manager() -> (Warehouse, InProcessPort) {
        let space = bookinfo_space();
        let info = space.info().clone();
        let mut port = InProcessPort::new(space);
        let mut mgr = Warehouse::new(info, Strategy::Pessimistic);
        mgr.add_view(bookinfo_view());
        mgr.initialize(&mut port).unwrap();
        (mgr, port)
    }

    fn commit_three_dus(port: &mut InProcessPort) {
        for (i, title) in
            [(10, "Data Integration Guide"), (11, "Chaos Engineering"), (12, "Query Processing")]
        {
            port.commit(
                dyno_source::SourceId(0),
                SourceUpdate::Data(insert_item(i, title, "Adams", 36)),
            )
            .unwrap();
        }
    }

    #[test]
    fn direct_transport_is_transparent() {
        let (mut mgr_f, mut fport) = faulted_manager(Direct);
        let (mut mgr_p, mut plain) = plain_manager();
        commit_three_dus(fport.inner_mut());
        commit_three_dus(&mut plain);
        mgr_f.run_to_quiescence(&mut fport, 100).unwrap();
        mgr_p.run_to_quiescence(&mut plain, 100).unwrap();
        assert_eq!(mgr_f.mv(0).extent(), mgr_p.mv(0).extent());
        assert_eq!(mgr_f.stats(0), mgr_p.stats(0));
        assert_eq!(mgr_f.dyno_stats(), mgr_p.dyno_stats());
        assert_eq!(fport.injected_total(), 0);
    }

    #[test]
    fn drop_dup_chaos_converges_to_the_same_extent() {
        let obs = Collector::wall();
        let (mut mgr_p, mut plain) = plain_manager();
        commit_three_dus(&mut plain);
        mgr_p.run_to_quiescence(&mut plain, 100).unwrap();

        for seed in 0..10 {
            let transport = ChaosTransport::new(FaultProfile::drop_dup(), seed).with_obs(&obs);
            let (mut mgr, mut fport) = faulted_manager(transport);
            commit_three_dus(fport.inner_mut());
            mgr.run_to_quiescence(&mut fport, 200).unwrap();
            // Dropped stragglers may still be held; a quiescence flush
            // delivers them, then maintenance finishes.
            fport.flush_all();
            mgr.run_to_quiescence(&mut fport, 200).unwrap();
            assert_eq!(
                mgr.mv(0).extent(),
                mgr_p.mv(0).extent(),
                "seed {seed}: chaos run must converge to the fault-free extent"
            );
            assert_eq!(mgr.stats(0).du_committed, 3, "seed {seed}: each DU exactly once");
        }
        assert!(obs.registry().counter_value("fault.injected_total").unwrap_or(0) > 0);
    }

    #[test]
    fn duplicated_delivery_of_every_message_changes_nothing() {
        // Satellite regression: dup_pm = 1000 duplicates every single
        // message; the dedupe line must make that a no-op.
        let obs = Collector::wall();
        let profile = FaultProfile { dup_pm: 1000, ..FaultProfile::quiet() };
        let transport = ChaosTransport::new(profile, 7).with_obs(&obs);
        let (mut mgr, mut fport) = faulted_manager(transport);
        fport = fport.with_obs(&obs);
        commit_three_dus(fport.inner_mut());
        mgr.run_to_quiescence(&mut fport, 200).unwrap();

        let (mut mgr_p, mut plain) = plain_manager();
        commit_three_dus(&mut plain);
        mgr_p.run_to_quiescence(&mut plain, 100).unwrap();

        assert_eq!(mgr.mv(0).extent(), mgr_p.mv(0).extent(), "extent unchanged by duplication");
        assert_eq!(mgr.stats(0).du_committed, 3);
        let dropped = obs.registry().counter_value("fault.duplicates_dropped").unwrap_or(0);
        assert_eq!(dropped, 3, "every duplicated copy was dropped at the boundary");
    }

    #[test]
    fn timeouts_are_retried_to_success() {
        let obs = Collector::wall();
        // ~50% of queries time out; retries must still land every DU.
        let profile = FaultProfile { timeout_pm: 500, ..FaultProfile::quiet() };
        let transport = ChaosTransport::new(profile, 11).with_obs(&obs);
        let (mut mgr, mut fport) = faulted_manager(transport);
        fport = fport.with_obs(&obs);
        commit_three_dus(fport.inner_mut());
        mgr.run_to_quiescence(&mut fport, 200).unwrap();
        assert_eq!(mgr.stats(0).du_committed, 3);
        assert!(obs.registry().counter_value("retry.attempts").unwrap_or(0) > 0);
        assert_eq!(
            obs.registry().counter_value("retry.exhausted").unwrap_or(0),
            0,
            "50% timeout rate never exhausts six attempts"
        );
    }

    #[test]
    fn permanent_fault_exhausts_and_parks() {
        // Every query times out: retries exhaust, the failure surfaces as
        // Unavailable, and the manager parks the entry instead of failing.
        let profile = FaultProfile { timeout_pm: 1000, ..FaultProfile::quiet() };
        let (mut mgr, mut fport) = faulted_manager(ChaosTransport::new(profile, 3));
        commit_three_dus(fport.inner_mut());
        let outcome = mgr.step(&mut fport).unwrap();
        assert_eq!(outcome, dyno_core::StepOutcome::Parked);
        assert_eq!(mgr.dyno_stats().parked, 1);
        assert_eq!(mgr.admitted_count(), 3, "nothing lost");
        assert_eq!(mgr.dyno_stats().committed, 0, "nothing consumed");
        assert_eq!(mgr.stats(0).aborts, 0, "a park is not an abort");
    }
}
