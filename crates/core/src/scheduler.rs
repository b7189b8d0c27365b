//! The Dyno scheduler loop (paper Figure 6) with pluggable detection
//! strategy (Section 4.1.3).

use dyno_obs::{field, Collector, Counter, Gauge, Level};

use crate::correct::{legal_schedule_observed, merge_all_schedule};
use crate::graph::DepGraph;
use crate::meta::UpdateMeta;
use crate::umq::Umq;

/// When unsafe-dependency detection runs (paper Section 4.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Pre-exec detection before every maintenance round (plus in-exec as a
    /// safety net): anticipates and avoids broken queries at the price of a
    /// detection pass whenever a new schema change has arrived.
    Pessimistic,
    /// In-exec detection only: maintenance is attempted optimistically; a
    /// broken query triggers correction after the fact (abort + redo).
    Optimistic,
}

impl Strategy {
    /// Lower-case name, used as a trace field.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Pessimistic => "pessimistic",
            Strategy::Optimistic => "optimistic",
        }
    }
}

/// How unsafe dependencies are corrected (paper Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CorrectionPolicy {
    /// Merge only dependency cycles, then topologically sort — the paper's
    /// proposal: updates are maintained at "the smallest possible
    /// granularity" and the view refreshes as often as possible.
    #[default]
    MergeCycles,
    /// Merge the whole queue into one batch whenever the order is illegal —
    /// the simplistic alternative the paper rejects; kept for ablation.
    MergeAll,
}

/// How a maintenance attempt for one queue entry ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintainOutcome {
    /// The batch was maintained and committed to the view.
    Committed,
    /// A maintenance query failed against a source's changed schema
    /// (in-exec detection, paper Figure 7 `Query_Engine`). The work done so
    /// far for this entry is discarded (abort cost).
    BrokenQuery,
    /// Maintenance failed for a reason that is *not* a schema conflict (an
    /// internal invariant violation). The scheduler stops touching the queue
    /// and surfaces the failure to the caller.
    Failed,
    /// A source the entry needs is unavailable (crashed / retry budget
    /// exhausted). The entry stays at the head of the queue — parked, not
    /// aborted — and maintenance resumes once the source recovers.
    Parked,
}

/// The maintenance machinery Dyno drives: the composite of VM, VS, VA and
/// the query engine. Implementations must be able to process a batch of
/// updates atomically (singleton batches are ordinary single-update
/// maintenance; merged batches use the Section 5 algorithm).
pub trait Maintainer<P> {
    /// Attempts to maintain one queue entry.
    ///
    /// `rest` is the remainder of the queue (everything buffered but not yet
    /// processed, excluding `batch`), borrowed as the queue's own entries:
    /// compensation-based view maintenance needs it to subtract the effect
    /// of concurrent, not-yet-maintained data updates from maintenance-query
    /// results (anomaly types 1–2).
    fn maintain(&mut self, batch: &[UpdateMeta<P>], rest: &[Vec<UpdateMeta<P>>])
        -> MaintainOutcome;

    /// Recomputes whether each buffered schema change still invalidates the
    /// *current* (possibly just rewritten) view definition. Called before
    /// every graph build, because processing one schema change rewrites the
    /// view definition and may change which other changes are relevant.
    fn refresh_view_relevance(&mut self, queue: &mut Umq<P>);
}

/// Counters describing one run of the scheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DynoStats {
    /// Maintenance attempts that committed.
    pub committed: u64,
    /// Maintenance attempts aborted by a broken query.
    pub broken_queries: u64,
    /// Dependency-graph builds (detection passes).
    pub graph_builds: u64,
    /// Correction passes that actually changed the queue order.
    pub reorders: u64,
    /// Cycle merges performed (batches created).
    pub merges: u64,
    /// Head checks that skipped detection via the O(1) schema-change-flag
    /// fast path.
    pub fast_path_hits: u64,
    /// Maintenance attempts parked on an unavailable source.
    pub parked: u64,
}

/// What one [`Dyno::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The queue was empty.
    Idle,
    /// The head entry was maintained and removed.
    Committed,
    /// The head entry's maintenance hit a broken query; the queue has been
    /// corrected and the entry will be retried in a later step.
    Aborted,
    /// Maintenance reported an internal failure; the queue is untouched and
    /// the caller must inspect the maintainer's error state.
    Failed,
    /// The head entry needs a source that is currently down; it stays queued
    /// untouched and the caller should advance time before stepping again.
    Parked,
}

/// Registry handles the scheduler updates on its hot path. Bound once at
/// construction: incrementing is a `Cell` store, never a name lookup. On a
/// disabled collector the handles are detached cells — still just stores,
/// and invisible.
#[derive(Debug, Clone, Default)]
struct DynoMetrics {
    steps: Counter,
    committed: Counter,
    broken_queries: Counter,
    graph_builds: Counter,
    reorders: Counter,
    merges: Counter,
    fast_path_hits: Counter,
    parked: Counter,
    umq_depth: Gauge,
    umq_updates: Gauge,
}

impl DynoMetrics {
    fn bind(obs: &Collector) -> Self {
        DynoMetrics {
            steps: obs.counter("dyno.steps"),
            committed: obs.counter("dyno.committed"),
            broken_queries: obs.counter("dyno.broken_queries"),
            graph_builds: obs.counter("dyno.graph_builds"),
            reorders: obs.counter("dyno.reorders"),
            merges: obs.counter("dyno.merges"),
            fast_path_hits: obs.counter("dyno.fast_path_hits"),
            parked: obs.counter("dyno.parked"),
            umq_depth: obs.gauge("umq.depth"),
            umq_updates: obs.gauge("umq.updates"),
        }
    }
}

/// The Dyno dynamic scheduler: integrates detection (pre-exec and/or
/// in-exec) and static correction into the maintenance loop of paper
/// Figure 6.
#[derive(Debug, Clone)]
pub struct Dyno {
    strategy: Strategy,
    policy: CorrectionPolicy,
    stats: DynoStats,
    /// Raised by an abort so the next step corrects even if no new schema
    /// change arrived meanwhile.
    force_correction: bool,
    obs: Collector,
    metrics: DynoMetrics,
}

impl Dyno {
    /// Creates a scheduler with the given detection strategy and the
    /// cycle-merge correction policy.
    pub fn new(strategy: Strategy) -> Self {
        Dyno {
            strategy,
            policy: CorrectionPolicy::default(),
            stats: DynoStats::default(),
            force_correction: false,
            obs: Collector::disabled(),
            metrics: DynoMetrics::default(),
        }
    }

    /// Overrides the correction policy (ablation).
    pub fn with_policy(mut self, policy: CorrectionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Changes the correction policy in place, preserving accumulated stats
    /// and the bound collector (unlike rebuilding via [`Dyno::new`] +
    /// [`Dyno::with_policy`], which would silently reset both).
    pub fn set_policy(&mut self, policy: CorrectionPolicy) {
        self.policy = policy;
    }

    /// Attaches an observability collector; scheduler phases become spans
    /// and the `dyno.*` / `umq.*` metrics go live.
    pub fn with_obs(mut self, obs: Collector) -> Self {
        self.metrics = DynoMetrics::bind(&obs);
        self.obs = obs;
        self
    }

    /// The attached collector (disabled unless [`Dyno::with_obs`] was used).
    pub fn obs(&self) -> &Collector {
        &self.obs
    }

    /// The configured correction policy.
    pub fn policy(&self) -> CorrectionPolicy {
        self.policy
    }

    /// The configured strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Statistics so far.
    pub fn stats(&self) -> DynoStats {
        self.stats
    }

    /// Runs one iteration of the Figure 6 loop: (pessimistic only) detect and
    /// correct if a new schema change arrived; then maintain the head entry;
    /// on a broken query, correct and leave the entry queued for retry.
    pub fn step<P, M: Maintainer<P>>(
        &mut self,
        queue: &mut Umq<P>,
        maintainer: &mut M,
    ) -> StepOutcome {
        self.metrics.steps.inc();
        self.metrics.umq_depth.set(queue.len() as i64);
        self.metrics.umq_updates.set(queue.update_count() as i64);
        let _step = self.obs.span(
            "dyno.step",
            &[field("strategy", self.strategy.name()), field("queue_depth", queue.len())],
        );
        let should_correct = match self.strategy {
            Strategy::Pessimistic => {
                let flagged = queue.take_schema_change_flag();
                if !flagged && !self.force_correction {
                    self.stats.fast_path_hits += 1;
                    self.metrics.fast_path_hits.inc();
                }
                flagged || self.force_correction
            }
            // Optimistic: never pre-exec; correct only after an abort.
            Strategy::Optimistic => {
                if self.force_correction {
                    // The abort-triggered correction consumes the flag too:
                    // the graph build sees every buffered update.
                    queue.take_schema_change_flag();
                }
                self.force_correction
            }
        };
        if should_correct {
            self.obs.event(
                Level::Info,
                "dyno.detect",
                &[field("trigger", if self.force_correction { "abort" } else { "flag" })],
            );
            self.correct(queue, maintainer);
            self.force_correction = false;
        }

        let Some((head, rest)) = queue.contiguous().split_first() else {
            return StepOutcome::Idle;
        };
        // Captured only when provenance is on: the `Parked` arm below needs
        // the head's causal ids after the queue borrow ends.
        let head_keys: Vec<u64> = if self.obs.capturing(dyno_obs::Capture::PROV) {
            head.iter().map(|u| u.key.0).collect()
        } else {
            Vec::new()
        };
        let outcome = {
            let _maintain = self.obs.span("dyno.maintain", &[field("batch", head.len())]);
            maintainer.maintain(head, rest)
        };
        match outcome {
            MaintainOutcome::Committed => {
                self.stats.committed += 1;
                self.metrics.committed.inc();
                queue.remove_head();
                self.metrics.umq_depth.set(queue.len() as i64);
                StepOutcome::Committed
            }
            MaintainOutcome::BrokenQuery => {
                self.stats.broken_queries += 1;
                self.metrics.broken_queries.inc();
                self.obs.event(Level::Warn, "dyno.broken_query", &[]);
                // In-exec detection fired: by Theorem 1 an unsafe dependency
                // exists; correct now (both strategies) and retry later.
                self.correct(queue, maintainer);
                queue.take_schema_change_flag();
                self.force_correction = false;
                StepOutcome::Aborted
            }
            MaintainOutcome::Failed => StepOutcome::Failed,
            MaintainOutcome::Parked => {
                self.stats.parked += 1;
                self.metrics.parked.inc();
                self.obs.event(Level::Warn, "dyno.parked", &[]);
                for &k in &head_keys {
                    self.obs.prov(k, dyno_obs::stage::PARK, &[]);
                }
                // No correction, no removal: the schedule is still legal; the
                // entry simply cannot run until its source comes back.
                StepOutcome::Parked
            }
        }
    }

    /// Builds the dependency graph over the queue and applies a legal
    /// schedule (Sections 4.1.1 and 4.2).
    fn correct<P, M: Maintainer<P>>(&mut self, queue: &mut Umq<P>, maintainer: &mut M) {
        let _span = self.obs.span("dyno.correct", &[field("nodes", queue.len())]);
        maintainer.refresh_view_relevance(queue);
        let graph = DepGraph::build_observed(&queue.nodes(), &self.obs);
        self.stats.graph_builds += 1;
        self.metrics.graph_builds.inc();
        let schedule = match self.policy {
            CorrectionPolicy::MergeCycles => legal_schedule_observed(&graph, &self.obs),
            CorrectionPolicy::MergeAll => merge_all_schedule(&graph),
        };
        if !schedule.is_identity() {
            self.stats.reorders += 1;
            self.metrics.reorders.inc();
            let merged = schedule.merged_batches() as u64;
            self.stats.merges += merged;
            self.metrics.merges.add(merged);
            self.obs.event(
                Level::Info,
                "dyno.reordered",
                &[field("batches", schedule.batches.len()), field("merged_batches", merged)],
            );
            if self.obs.capturing(dyno_obs::Capture::PROV) {
                let nodes = queue.nodes();
                let mut flat_pos = 0usize;
                for (pos, batch) in schedule.batches.iter().enumerate() {
                    let members: Vec<u64> =
                        batch.iter().flat_map(|&i| nodes[i].iter().map(|u| u.key.0)).collect();
                    if batch.len() > 1 {
                        // A cyclic-group merge: the batch record carries the
                        // member causal ids.
                        self.obs.prov_batch(
                            &members,
                            dyno_obs::stage::MERGE,
                            &[field("position", pos as u64)],
                        );
                    }
                    // Updates whose node moved were topologically reordered.
                    let moved = batch.iter().enumerate().any(|(off, &i)| i != flat_pos + off);
                    if moved {
                        for &m in &members {
                            self.obs.prov(m, dyno_obs::stage::REORDER, &[]);
                        }
                    }
                    flat_pos += batch.len();
                }
            }
            queue.apply_schedule(&schedule);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::{UpdateKind, UpdateMeta};

    /// A scripted maintainer: schema changes "break" any maintenance whose
    /// batch does not contain them while they wait in the queue — mimicking
    /// the broken-query anomaly without a relational layer.
    struct Scripted {
        /// Keys of schema changes that will break earlier-scheduled work.
        breaks_while_queued: Vec<u64>,
        maintained: Vec<Vec<u64>>,
    }

    impl Maintainer<()> for Scripted {
        fn maintain(
            &mut self,
            batch: &[UpdateMeta<()>],
            _rest: &[Vec<UpdateMeta<()>>],
        ) -> MaintainOutcome {
            let keys: Vec<u64> = batch.iter().map(|u| u.key.0).collect();
            // If a breaking SC exists that is not in this batch and has not
            // been maintained yet, the query breaks.
            let pending_break = self
                .breaks_while_queued
                .iter()
                .any(|k| !keys.contains(k) && !self.maintained.iter().flatten().any(|m| m == k));
            if pending_break {
                return MaintainOutcome::BrokenQuery;
            }
            self.maintained.push(keys);
            MaintainOutcome::Committed
        }

        fn refresh_view_relevance(&mut self, _queue: &mut Umq<()>) {}
    }

    fn du(key: u64, source: u32) -> UpdateMeta<()> {
        UpdateMeta::new(key, source, UpdateKind::Data, ())
    }

    fn sc(key: u64, source: u32) -> UpdateMeta<()> {
        UpdateMeta::new(key, source, UpdateKind::Schema { invalidates_view: true }, ())
    }

    #[test]
    fn pessimistic_avoids_broken_query() {
        // DU then SC on different sources: pre-exec correction runs the SC
        // first, so the DU never breaks.
        let mut q = Umq::new();
        q.enqueue(du(0, 0));
        q.enqueue(sc(1, 1));
        let mut m = Scripted { breaks_while_queued: vec![1], maintained: vec![] };
        let mut dyno = Dyno::new(Strategy::Pessimistic);
        while !q.is_empty() {
            dyno.step(&mut q, &mut m);
        }
        assert_eq!(m.maintained, vec![vec![1], vec![0]]);
        assert_eq!(dyno.stats().broken_queries, 0);
        assert_eq!(dyno.stats().graph_builds, 1);
    }

    #[test]
    fn optimistic_endures_abort_then_recovers() {
        let mut q = Umq::new();
        q.enqueue(du(0, 0));
        q.enqueue(sc(1, 1));
        let mut m = Scripted { breaks_while_queued: vec![1], maintained: vec![] };
        let mut dyno = Dyno::new(Strategy::Optimistic);
        let mut outcomes = Vec::new();
        while !q.is_empty() {
            outcomes.push(dyno.step(&mut q, &mut m));
        }
        assert_eq!(outcomes[0], StepOutcome::Aborted, "optimistic hits the broken query");
        assert_eq!(m.maintained, vec![vec![1], vec![0]]);
        assert_eq!(dyno.stats().broken_queries, 1);
    }

    #[test]
    fn du_only_fast_path_never_builds_graph() {
        let mut q = Umq::new();
        for k in 0..50 {
            q.enqueue(du(k, (k % 3) as u32));
        }
        let mut m = Scripted { breaks_while_queued: vec![], maintained: vec![] };
        let mut dyno = Dyno::new(Strategy::Pessimistic);
        while !q.is_empty() {
            dyno.step(&mut q, &mut m);
        }
        assert_eq!(dyno.stats().graph_builds, 0, "O(1) flag check suffices for DUs");
        assert_eq!(dyno.stats().fast_path_hits, 50);
        assert_eq!(dyno.stats().committed, 50);
    }

    #[test]
    fn cycle_merges_into_one_batch() {
        // DU then SC on the same source: SD + CD cycle → merged batch.
        let mut q = Umq::new();
        q.enqueue(du(0, 0));
        q.enqueue(sc(1, 0));
        let mut m = Scripted { breaks_while_queued: vec![1], maintained: vec![] };
        let mut dyno = Dyno::new(Strategy::Pessimistic);
        while !q.is_empty() {
            dyno.step(&mut q, &mut m);
        }
        assert_eq!(m.maintained, vec![vec![0, 1]], "cycle processed atomically");
        assert_eq!(dyno.stats().merges, 1);
    }

    #[test]
    fn merge_all_policy_batches_everything() {
        let mut q = Umq::new();
        q.enqueue(du(0, 0));
        q.enqueue(du(1, 1));
        q.enqueue(sc(2, 2));
        q.enqueue(du(3, 3));
        let mut m = Scripted { breaks_while_queued: vec![2], maintained: vec![] };
        let mut dyno = Dyno::new(Strategy::Pessimistic).with_policy(CorrectionPolicy::MergeAll);
        while !q.is_empty() {
            dyno.step(&mut q, &mut m);
        }
        assert_eq!(m.maintained, vec![vec![0, 1, 2, 3]], "one atomic batch");
        assert_eq!(dyno.stats().committed, 1, "a single view refresh");
    }

    #[test]
    fn merge_all_policy_leaves_legal_queues_alone() {
        let mut q = Umq::new();
        q.enqueue(du(0, 0));
        q.enqueue(du(1, 1));
        let mut m = Scripted { breaks_while_queued: vec![], maintained: vec![] };
        let mut dyno = Dyno::new(Strategy::Pessimistic).with_policy(CorrectionPolicy::MergeAll);
        while !q.is_empty() {
            dyno.step(&mut q, &mut m);
        }
        assert_eq!(m.maintained, vec![vec![0], vec![1]]);
    }

    #[test]
    fn observed_run_mirrors_stats_in_registry() {
        let obs = dyno_obs::Collector::wall().with_capture(dyno_obs::Capture::TRACE, 256);
        let mut q = Umq::new();
        q.enqueue(du(0, 0));
        q.enqueue(sc(1, 1));
        q.enqueue(du(2, 2));
        let mut m = Scripted { breaks_while_queued: vec![1], maintained: vec![] };
        let mut dyno = Dyno::new(Strategy::Pessimistic).with_obs(obs.clone());
        while !q.is_empty() {
            dyno.step(&mut q, &mut m);
        }
        let reg = obs.registry();
        let stats = dyno.stats();
        assert_eq!(reg.counter_value("dyno.committed"), Some(stats.committed));
        assert_eq!(reg.counter_value("dyno.graph_builds"), Some(stats.graph_builds));
        assert_eq!(reg.counter_value("dyno.fast_path_hits"), Some(stats.fast_path_hits));
        assert_eq!(reg.counter_value("graph.builds"), Some(stats.graph_builds));
        assert_eq!(reg.gauge_value("umq.depth"), Some(0), "drained");
        // Phase spans made it into the trace.
        let names: Vec<&str> = obs.records().iter().map(|r| r.name).collect();
        assert!(names.contains(&"dyno.step"));
        assert!(names.contains(&"dyno.correct"));
        assert!(names.contains(&"graph.build"));
        assert!(names.contains(&"dyno.maintain"));
    }

    #[test]
    fn disabled_collector_records_nothing() {
        // The default Dyno carries a disabled collector: stepping must leave
        // no trace records and no registry entries anywhere.
        let mut q = Umq::new();
        q.enqueue(du(0, 0));
        q.enqueue(sc(1, 1));
        let mut m = Scripted { breaks_while_queued: vec![], maintained: vec![] };
        let mut dyno = Dyno::new(Strategy::Pessimistic);
        while !q.is_empty() {
            dyno.step(&mut q, &mut m);
        }
        assert!(!dyno.obs().is_enabled());
        assert!(dyno.obs().records().is_empty());
        assert_eq!(dyno.obs().registry().counter_value("dyno.steps"), None);
        assert_eq!(dyno.stats().committed, 2, "scheduling itself is unaffected");
    }

    /// Parks the first `park_for` attempts, then delegates to [`Scripted`].
    struct Flaky {
        park_for: u32,
        inner: Scripted,
    }

    impl Maintainer<()> for Flaky {
        fn maintain(
            &mut self,
            batch: &[UpdateMeta<()>],
            rest: &[Vec<UpdateMeta<()>>],
        ) -> MaintainOutcome {
            if self.park_for > 0 {
                self.park_for -= 1;
                return MaintainOutcome::Parked;
            }
            self.inner.maintain(batch, rest)
        }

        fn refresh_view_relevance(&mut self, queue: &mut Umq<()>) {
            self.inner.refresh_view_relevance(queue);
        }
    }

    #[test]
    fn parked_head_stays_queued_and_resumes() {
        let mut q = Umq::new();
        q.enqueue(du(0, 0));
        q.enqueue(du(1, 1));
        let mut m = Flaky {
            park_for: 2,
            inner: Scripted { breaks_while_queued: vec![], maintained: vec![] },
        };
        let mut dyno = Dyno::new(Strategy::Pessimistic);
        assert_eq!(dyno.step(&mut q, &mut m), StepOutcome::Parked);
        assert_eq!(dyno.step(&mut q, &mut m), StepOutcome::Parked);
        assert_eq!(q.len(), 2, "parked entries are not consumed");
        while !q.is_empty() {
            dyno.step(&mut q, &mut m);
        }
        assert_eq!(m.inner.maintained, vec![vec![0], vec![1]], "order preserved across parks");
        assert_eq!(dyno.stats().parked, 2);
        assert_eq!(dyno.stats().broken_queries, 0, "a park is not an abort");
    }

    #[test]
    fn set_policy_preserves_stats_and_obs() {
        let obs = dyno_obs::Collector::wall();
        let mut q = Umq::new();
        q.enqueue(du(0, 0));
        let mut m = Scripted { breaks_while_queued: vec![], maintained: vec![] };
        let mut dyno = Dyno::new(Strategy::Pessimistic).with_obs(obs.clone());
        while !q.is_empty() {
            dyno.step(&mut q, &mut m);
        }
        let before = dyno.stats();
        dyno.set_policy(CorrectionPolicy::MergeAll);
        assert_eq!(dyno.policy(), CorrectionPolicy::MergeAll);
        assert_eq!(dyno.stats(), before, "stats survive a policy change");
        assert!(dyno.obs().is_enabled(), "collector binding survives too");
        // The bound metric handles still feed the same registry.
        q.enqueue(du(1, 1));
        while !q.is_empty() {
            dyno.step(&mut q, &mut m);
        }
        assert_eq!(obs.registry().counter_value("dyno.committed"), Some(dyno.stats().committed));
    }

    #[test]
    fn idle_on_empty_queue() {
        let mut q: Umq<()> = Umq::new();
        let mut m = Scripted { breaks_while_queued: vec![], maintained: vec![] };
        let mut dyno = Dyno::new(Strategy::Pessimistic);
        assert_eq!(dyno.step(&mut q, &mut m), StepOutcome::Idle);
    }

    #[test]
    fn late_sc_breaks_then_corrected_once() {
        // SC arrives only after the DU's maintenance has begun — modeled by
        // enqueueing it before stepping but letting the scripted maintainer
        // break. Both strategies converge to the same final sequence.
        for strategy in [Strategy::Pessimistic, Strategy::Optimistic] {
            let mut q = Umq::new();
            q.enqueue(du(0, 0));
            let mut m = Scripted { breaks_while_queued: vec![5], maintained: vec![] };
            let mut dyno = Dyno::new(strategy);
            // First step: maintenance of DU breaks (the SC is committed at the
            // source but not yet in the UMQ — Theorem 1's in-exec case).
            assert_eq!(dyno.step(&mut q, &mut m), StepOutcome::Aborted);
            // Now the SC arrives.
            q.enqueue(sc(5, 1));
            while !q.is_empty() {
                dyno.step(&mut q, &mut m);
            }
            assert_eq!(m.maintained, vec![vec![5], vec![0]], "{strategy:?}");
        }
    }
}
