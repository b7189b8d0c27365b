//! Per-view staleness tracking and declarative SLO evaluation.
//!
//! **Staleness** is end-to-end: the age of the oldest source commit a view
//! has *not yet* reflected. A [`StalenessTracker`] timestamps each source
//! commit (`note_commit`) and each view refresh (`note_refresh`); the delta
//! is one staleness sample, recorded per view into a histogram that serves
//! both lifetime percentiles and per-window snapshots. Views register the
//! set of sources their definition reads, so a commit against a source a
//! view never joins does not age that view — under skewed load, per-view
//! staleness genuinely diverges even though the warehouse refreshes all
//! views in lockstep.
//!
//! A window's **observed p99** is `max(p99 of the refresh samples in the
//! window, age of the oldest still-pending commit at the window boundary)`:
//! a stalled warehouse that refreshes nothing must page, not look idle.
//! Shed updates (`note_shed`) are *removed* from pending — a shed update
//! will never be reflected, so it measures lost load (the `umq.shed`
//! counter), not staleness.
//!
//! **SLO evaluation** is a multi-window burn-rate state machine
//! ([`SloEvaluator`]) over the per-window verdicts (`bad` ⇔ observed p99 >
//! target). With policy `P` and the last `P.long_windows` verdicts:
//!
//! - → **page** when at least `P.page_short_bad` of the last
//!   `P.short_windows` windows are bad **and** at least `P.page_long_bad`
//!   of the last `P.long_windows` are (fast burn confirmed by sustained
//!   burn);
//! - → **warn** when at least `P.warn_bad` of the last `P.short_windows`
//!   are bad;
//! - → **ok** only when the last `P.short_windows` contain no bad window;
//! - otherwise the state *holds* (a page whose page condition lapsed
//!   degrades to warn). Since `P.warn_bad ≥ 2`, a single isolated bad
//!   window can never move the state — the machine cannot flap.
//!
//! The machine is a pure function of the verdict sequence, so same-seed
//! simulated runs produce bit-identical alert timelines.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::collector::Collector;
use crate::json;
use crate::metrics::{Counter, HistWindow, Histogram};
use crate::timeseries::Cadence;
use crate::trace::field;

/// Alert state of one view's staleness SLO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum SloState {
    /// Within target.
    #[default]
    Ok,
    /// Burning error budget: sustained short-window breaches.
    Warn,
    /// Fast burn confirmed over the long window — a human would be paged.
    Page,
}

impl SloState {
    /// Lowercase name (`ok` / `warn` / `page`).
    pub fn as_str(self) -> &'static str {
        match self {
            SloState::Ok => "ok",
            SloState::Warn => "warn",
            SloState::Page => "page",
        }
    }
}

impl fmt::Display for SloState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A declarative staleness SLO: target plus burn-rate thresholds (see the
/// module docs for the exact transition rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloPolicy {
    /// The objective: per-window observed p99 staleness must not exceed
    /// this many microseconds.
    pub target_p99_us: u64,
    /// Length of the fast-burn window, in sampling windows.
    pub short_windows: usize,
    /// Length of the sustained-burn window, in sampling windows.
    pub long_windows: usize,
    /// Bad windows among the last `short_windows` needed to warn (≥ 2, or
    /// the no-single-window-flap guarantee is lost).
    pub warn_bad: usize,
    /// Bad windows among the last `short_windows` needed to page.
    pub page_short_bad: usize,
    /// Bad windows among the last `long_windows` needed to page.
    pub page_long_bad: usize,
}

impl SloPolicy {
    /// The documented default burn-rate shape for a given target: warn at
    /// 2-of-3 recent windows bad, page when the last 3 are all bad and at
    /// least 6 of the last 12 are.
    pub fn target(target_p99_us: u64) -> Self {
        SloPolicy {
            target_p99_us,
            short_windows: 3,
            long_windows: 12,
            warn_bad: 2,
            page_short_bad: 3,
            page_long_bad: 6,
        }
    }
}

/// The burn-rate state machine for one view (see the module docs).
#[derive(Debug, Clone)]
pub struct SloEvaluator {
    policy: SloPolicy,
    history: VecDeque<bool>,
    state: SloState,
    evaluations: u64,
    breaches: u64,
}

impl SloEvaluator {
    /// A fresh evaluator in the `ok` state.
    pub fn new(policy: SloPolicy) -> Self {
        assert!(policy.short_windows >= 1 && policy.long_windows >= policy.short_windows);
        assert!(policy.warn_bad >= 2, "warn_bad < 2 would flap on a single bad window");
        SloEvaluator {
            policy,
            history: VecDeque::new(),
            state: SloState::Ok,
            evaluations: 0,
            breaches: 0,
        }
    }

    /// The policy under evaluation.
    pub fn policy(&self) -> &SloPolicy {
        &self.policy
    }

    /// Current alert state.
    pub fn state(&self) -> SloState {
        self.state
    }

    /// Windows evaluated so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Bad (target-exceeding) windows seen so far.
    pub fn breaches(&self) -> u64 {
        self.breaches
    }

    /// Feeds one window's observed p99 staleness; returns `Some((from, to))`
    /// when the alert state changed.
    pub fn evaluate(&mut self, observed_p99_us: u64) -> Option<(SloState, SloState)> {
        let bad = observed_p99_us > self.policy.target_p99_us;
        self.evaluations += 1;
        if bad {
            self.breaches += 1;
        }
        if self.history.len() == self.policy.long_windows {
            self.history.pop_front();
        }
        self.history.push_back(bad);
        let short_bad =
            self.history.iter().rev().take(self.policy.short_windows).filter(|&&b| b).count();
        let long_bad = self.history.iter().filter(|&&b| b).count();
        let next =
            if short_bad >= self.policy.page_short_bad && long_bad >= self.policy.page_long_bad {
                SloState::Page
            } else if short_bad >= self.policy.warn_bad {
                SloState::Warn
            } else if short_bad == 0 {
                SloState::Ok
            } else {
                // Hysteresis: a lone bad (or lone good) window holds the line;
                // a page whose page condition lapsed degrades one step.
                match self.state {
                    SloState::Page => SloState::Warn,
                    held => held,
                }
            };
        let prev = self.state;
        self.state = next;
        (prev != next).then_some((prev, next))
    }
}

/// One emitted staleness window for one view.
#[derive(Debug, Clone, Copy)]
pub struct LanePoint {
    /// Window boundary (clock µs).
    pub end_us: u64,
    /// Summary of the refresh-time staleness samples in the window.
    pub window: HistWindow,
    /// `max(window.p99, oldest pending commit age at the boundary)`.
    pub observed_p99_us: u64,
    /// Alert state after evaluating this window.
    pub state: SloState,
}

#[derive(Debug)]
struct Lane {
    name: String,
    sources: Vec<u32>,
    /// Commits admitted for this view and not yet reflected:
    /// `(source, version, commit_us)` in commit order per source.
    pending: VecDeque<(u32, u64, u64)>,
    hist: Histogram,
    refreshed: u64,
    evaluator: Option<SloEvaluator>,
    points: VecDeque<LanePoint>,
    dropped: u64,
    /// Tombstone: a retired (dropped) view keeps its lane index — indices
    /// were handed out to callers — but stops participating in commit
    /// tracking, refreshes, sampling, and burn-rate evaluation.
    retired: bool,
}

impl Lane {
    /// Age of the oldest pending commit at `now_us` (0 when nothing is
    /// pending or every pending commit is in the future).
    fn staleness_us(&self, now_us: u64) -> u64 {
        self.pending
            .iter()
            .map(|&(_, _, committed)| now_us.saturating_sub(committed))
            .max()
            .unwrap_or(0)
    }

    /// Current alert state (`ok` when no SLO is set).
    fn state(&self) -> SloState {
        self.evaluator.as_ref().map_or(SloState::Ok, SloEvaluator::state)
    }
}

#[derive(Debug)]
struct Inner {
    lanes: Vec<Lane>,
    capacity: usize,
    /// `None` until [`StalenessTracker::set_cadence`]: sampling is inert.
    cadence: Option<Cadence>,
    windows: u64,
    policy: Option<SloPolicy>,
    transitions: Vec<(u64, String, SloState, SloState)>,
    obs: Collector,
    evals: Counter,
    breaches: Counter,
    warns: Counter,
    pages: Counter,
}

/// Tracks per-view end-to-end staleness and evaluates SLOs on a window
/// cadence. Cheap-clone shared handle (like [`Collector`]): the simulation
/// port notes commits, the warehouse notes refreshes and sheds, the monitor
/// loop drives sampling — all through clones of one tracker.
#[derive(Debug, Clone)]
pub struct StalenessTracker {
    inner: Rc<RefCell<Inner>>,
}

impl StalenessTracker {
    /// A tracker holding at most `window_capacity` points per view. Sampling
    /// is inert until [`StalenessTracker::set_cadence`].
    pub fn new(window_capacity: usize) -> Self {
        assert!(window_capacity > 0);
        StalenessTracker {
            inner: Rc::new(RefCell::new(Inner {
                lanes: Vec::new(),
                capacity: window_capacity,
                cadence: None,
                windows: 0,
                policy: None,
                transitions: Vec::new(),
                obs: Collector::disabled(),
                evals: Counter::default(),
                breaches: Counter::default(),
                warns: Counter::default(),
                pages: Counter::default(),
            })),
        }
    }

    /// Binds an observability collector: SLO evaluations tick `slo.*`
    /// counters and state transitions are recorded as warn-level events.
    pub fn bind_obs(&self, obs: &Collector) {
        let mut t = self.inner.borrow_mut();
        t.evals = obs.counter("slo.evaluations");
        t.breaches = obs.counter("slo.breaches");
        t.warns = obs.counter("slo.warns");
        t.pages = obs.counter("slo.pages");
        t.obs = obs.clone();
    }

    /// Sets the sampling cadence: one window per `window_us`, the first
    /// ending at `start_us + window_us`.
    pub fn set_cadence(&self, window_us: u64, start_us: u64) {
        self.inner.borrow_mut().cadence = Some(Cadence::new(window_us, start_us));
    }

    /// Applies an SLO policy to every registered view (and to views
    /// registered later).
    pub fn set_slo(&self, policy: SloPolicy) {
        let mut t = self.inner.borrow_mut();
        t.policy = Some(policy);
        for lane in &mut t.lanes {
            lane.evaluator = Some(SloEvaluator::new(policy));
        }
    }

    /// Registers a view over the given source ids; returns its lane index.
    pub fn register_view(&self, name: &str, sources: &[u32]) -> usize {
        let mut t = self.inner.borrow_mut();
        let evaluator = t.policy.map(SloEvaluator::new);
        t.lanes.push(Lane {
            name: name.to_string(),
            sources: sources.to_vec(),
            pending: VecDeque::new(),
            hist: Histogram::default(),
            refreshed: 0,
            evaluator,
            points: VecDeque::new(),
            dropped: 0,
            retired: false,
        });
        t.lanes.len() - 1
    }

    /// Retires view `lane`: discards its pending commits, disables its
    /// evaluator, and excludes it from future commits, refreshes, and
    /// window sampling. The lane is tombstoned in place (indices stay
    /// stable); its emitted points and lifetime histogram remain readable.
    pub fn drop_view(&self, lane: usize) {
        let mut t = self.inner.borrow_mut();
        let l = &mut t.lanes[lane];
        l.retired = true;
        l.pending.clear();
        l.evaluator = None;
    }

    /// Whether view `lane` has been retired via [`StalenessTracker::drop_view`].
    pub fn is_retired(&self, lane: usize) -> bool {
        self.inner.borrow().lanes[lane].retired
    }

    /// Number of registered views.
    pub fn view_count(&self) -> usize {
        self.inner.borrow().lanes.len()
    }

    /// Registered view names, lane order.
    pub fn view_names(&self) -> Vec<String> {
        self.inner.borrow().lanes.iter().map(|l| l.name.clone()).collect()
    }

    /// Notes a source commit at `at_us`: it becomes pending for every view
    /// that reads `source`.
    pub fn note_commit(&self, source: u32, version: u64, at_us: u64) {
        let mut t = self.inner.borrow_mut();
        for lane in &mut t.lanes {
            if !lane.retired && lane.sources.contains(&source) {
                lane.pending.push_back((source, version, at_us));
            }
        }
    }

    /// Notes that an admitted commit was shed: it will never be reflected,
    /// so it stops aging the views (lost load is the `umq.shed` counter's
    /// story, not staleness's).
    pub fn note_shed(&self, source: u32, version: u64) {
        let mut t = self.inner.borrow_mut();
        for lane in &mut t.lanes {
            lane.pending.retain(|&(s, v, _)| !(s == source && v == version));
        }
    }

    /// Notes a view refresh: every pending commit now covered by the
    /// reflected `(source, version)` vector is resolved, recording its age
    /// at `at_us` as one staleness sample per covering view.
    pub fn note_refresh(&self, reflected: &[(u32, u64)], at_us: u64) {
        let mut t = self.inner.borrow_mut();
        for lane in &mut t.lanes {
            Self::refresh_lane(lane, reflected, at_us);
        }
    }

    /// Notes a refresh of *one* view: only `lane`'s pending commits are
    /// resolved against the reflected vector. A multi-view warehouse whose
    /// views advance independently (a parked view defers a batch its peers
    /// commit) reports each view's own reflected vector through this,
    /// keeping the deferred view's staleness honestly aging.
    pub fn note_refresh_for(&self, lane: usize, reflected: &[(u32, u64)], at_us: u64) {
        let mut t = self.inner.borrow_mut();
        Self::refresh_lane(&mut t.lanes[lane], reflected, at_us);
    }

    fn refresh_lane(lane: &mut Lane, reflected: &[(u32, u64)], at_us: u64) {
        if lane.retired {
            return;
        }
        let before = lane.pending.len();
        let hist = &lane.hist;
        lane.pending.retain(|&(s, v, committed)| {
            let covered = reflected.iter().any(|&(rs, rv)| rs == s && rv >= v);
            if covered {
                hist.record(at_us.saturating_sub(committed));
            }
            !covered
        });
        lane.refreshed += (before - lane.pending.len()) as u64;
    }

    /// Age of view `lane`'s oldest pending commit at `now_us` (0 when
    /// nothing is pending or every pending commit is in the future).
    pub fn current_staleness_us(&self, lane: usize, now_us: u64) -> u64 {
        self.inner.borrow().lanes[lane].staleness_us(now_us)
    }

    /// Emits a staleness window for every boundary `now_us` has passed
    /// (no-op before [`StalenessTracker::set_cadence`]). Returns windows
    /// emitted. Pending ages are evaluated at each boundary exactly, so a
    /// multi-window clock jump during a long maintenance batch still yields
    /// a correct per-boundary stall series.
    pub fn maybe_sample(&self, now_us: u64) -> u64 {
        let mut emitted = 0;
        let due = || self.inner.borrow_mut().cadence.as_mut()?.next_due(now_us);
        while let Some(end) = due() {
            self.sample_window(end);
            emitted += 1;
        }
        emitted
    }

    /// Closes the current partial window at `now_us` and restarts the
    /// cadence from there (interactive use).
    pub fn sample_now(&self, now_us: u64) {
        self.sample_window(now_us);
        if let Some(c) = self.inner.borrow_mut().cadence.as_mut() {
            c.restart(now_us);
        }
    }

    fn sample_window(&self, end_us: u64) {
        let mut t = self.inner.borrow_mut();
        t.windows += 1;
        let capacity = t.capacity;
        let mut fired: Vec<(String, SloState, SloState, u64)> = Vec::new();
        let mut evals = 0u64;
        let mut breaches = 0u64;
        for lane in &mut t.lanes {
            if lane.retired {
                continue;
            }
            let window = lane.hist.snapshot_and_reset_window();
            let observed_p99_us = window.p99.max(lane.staleness_us(end_us));
            let mut state = SloState::Ok;
            if let Some(eval) = &mut lane.evaluator {
                evals += 1;
                let before = eval.breaches();
                if let Some((from, to)) = eval.evaluate(observed_p99_us) {
                    fired.push((lane.name.clone(), from, to, observed_p99_us));
                }
                breaches += eval.breaches() - before;
                state = eval.state();
            }
            if lane.points.len() == capacity {
                lane.points.pop_front();
                lane.dropped += 1;
            }
            lane.points.push_back(LanePoint { end_us, window, observed_p99_us, state });
        }
        t.evals.add(evals);
        t.breaches.add(breaches);
        for (name, from, to, observed) in fired {
            match to {
                SloState::Warn => t.warns.inc(),
                SloState::Page => t.pages.inc(),
                SloState::Ok => {}
            }
            t.obs.warn(
                "slo.state",
                &[
                    field("view", name.clone()),
                    field("from", from.as_str()),
                    field("to", to.as_str()),
                    field("observed_p99_us", observed),
                ],
            );
            t.transitions.push((end_us, name, from, to));
        }
    }

    /// Current alert state of view `lane` (`ok` when no SLO is set).
    pub fn state(&self, lane: usize) -> SloState {
        self.inner.borrow().lanes[lane].state()
    }

    /// `(name, state)` for every view, lane order.
    pub fn states(&self) -> Vec<(String, SloState)> {
        self.inner.borrow().lanes.iter().map(|l| (l.name.clone(), l.state())).collect()
    }

    /// Lifetime staleness of view `lane`: `(samples, p50, p95, p99)` µs.
    pub fn lifetime(&self, lane: usize) -> (u64, u64, u64, u64) {
        let t = self.inner.borrow();
        let h = &t.lanes[lane].hist;
        let (p50, p95, p99) = h.percentiles();
        (h.count(), p50, p95, p99)
    }

    /// The emitted points of view `lane`, oldest first.
    pub fn points(&self, lane: usize) -> Vec<LanePoint> {
        self.inner.borrow().lanes[lane].points.iter().copied().collect()
    }

    /// Every alert transition so far: `(at_us, view, from, to)`.
    pub fn transitions(&self) -> Vec<(u64, String, SloState, SloState)> {
        self.inner.borrow().transitions.clone()
    }

    /// Windows emitted so far.
    pub fn windows(&self) -> u64 {
        self.inner.borrow().windows
    }

    /// The capture as one JSON object. Per-view points are
    /// `[end_us,count,p50,p95,p99,observed_p99,state]` rows (state 0=ok,
    /// 1=warn, 2=page); transitions carry states by name so scenarios can be
    /// asserted with a string match. Byte-stable for identical runs.
    pub fn to_json(&self) -> String {
        let t = self.inner.borrow();
        let mut out = String::new();
        let window_us = t.cadence.map_or(0, |c| c.window_us());
        let _ = write!(out, "{{\"window_us\":{window_us},\"windows\":{},", t.windows);
        if let Some(p) = &t.policy {
            let _ = write!(
                out,
                "\"slo\":{{\"target_p99_us\":{},\"short_windows\":{},\"long_windows\":{},\
                 \"warn_bad\":{},\"page_short_bad\":{},\"page_long_bad\":{}}},",
                p.target_p99_us,
                p.short_windows,
                p.long_windows,
                p.warn_bad,
                p.page_short_bad,
                p.page_long_bad
            );
        }
        out.push_str("\"views\":{");
        for (i, lane) in t.lanes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(&mut out, &lane.name);
            let (p50, p95, p99) = lane.hist.percentiles();
            let _ = write!(
                out,
                ":{{{}\"sources\":{:?},\"state\":\"{}\",\"refreshed\":{},\"pending\":{},\
                 \"dropped\":{},\"evaluations\":{},\"breaches\":{},\
                 \"lifetime\":{{\"count\":{},\"p50\":{p50},\"p95\":{p95},\
                 \"p99\":{p99}}},\"points\":[",
                if lane.retired { "\"retired\":true," } else { "" },
                lane.sources,
                lane.state().as_str(),
                lane.refreshed,
                lane.pending.len(),
                lane.dropped,
                lane.evaluator.as_ref().map_or(0, SloEvaluator::evaluations),
                lane.evaluator.as_ref().map_or(0, SloEvaluator::breaches),
                lane.hist.count(),
            );
            for (j, p) in lane.points.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "[{},{},{},{},{},{},{}]",
                    p.end_us,
                    p.window.count,
                    p.window.p50,
                    p.window.p95,
                    p.window.p99,
                    p.observed_p99_us,
                    p.state as u8
                );
            }
            out.push_str("]}");
        }
        out.push_str("},\"transitions\":[");
        for (i, (at, view, from, to)) in t.transitions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{at},");
            json::push_str(&mut out, view);
            let _ = write!(out, ",\"{}\",\"{}\"]", from.as_str(), to.as_str());
        }
        out.push_str("]}");
        out
    }

    /// An aligned text rendering of per-view staleness and alert state at
    /// `now_us`.
    pub fn render_text(&self, now_us: u64) -> String {
        let t = self.inner.borrow();
        let width = t.lanes.iter().map(|l| l.name.len()).max().unwrap_or(4).max(4);
        let mut out = format!(
            "{:<width$}  {:<5}  {:>8}  {:>9}  lifetime p50/p95/p99 (ms)\n",
            "view", "state", "pending", "stale(ms)"
        );
        for lane in &t.lanes {
            let (p50, p95, p99) = lane.hist.percentiles();
            let _ = writeln!(
                out,
                "{:<width$}  {:<5}  {:>8}  {:>9}  {}/{}/{}",
                lane.name,
                lane.state().as_str(),
                lane.pending.len(),
                lane.staleness_us(now_us) / 1000,
                p50 / 1000,
                p95 / 1000,
                p99 / 1000
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staleness_is_commit_to_refresh_per_relevant_source() {
        let t = StalenessTracker::new(16);
        let a = t.register_view("A", &[0]);
        let b = t.register_view("B", &[0, 1]);
        t.note_commit(0, 1, 100);
        t.note_commit(1, 1, 200);
        assert_eq!(t.current_staleness_us(a, 1_000), 900);
        assert_eq!(t.current_staleness_us(b, 1_000), 900, "oldest pending commit");
        // Refresh covering source 0 only: A is fully fresh, B still waits on
        // source 1 — the lockstep refresh diverges per view via relevance.
        t.note_refresh(&[(0, 1)], 600);
        assert_eq!(t.current_staleness_us(a, 1_000), 0);
        assert_eq!(t.current_staleness_us(b, 1_000), 800);
        assert_eq!(t.lifetime(a), (1, 500, 500, 500), "one 500µs sample");
        t.note_refresh(&[(0, 1), (1, 1)], 700);
        assert_eq!(t.lifetime(b).0, 2);
    }

    #[test]
    fn shed_commits_stop_aging_views() {
        let t = StalenessTracker::new(16);
        let a = t.register_view("A", &[0]);
        t.note_commit(0, 1, 100);
        t.note_commit(0, 2, 200);
        t.note_shed(0, 1);
        assert_eq!(t.current_staleness_us(a, 1_000), 800, "only the admitted commit ages");
        t.note_shed(0, 2);
        assert_eq!(t.current_staleness_us(a, 1_000), 0);
        assert_eq!(t.lifetime(a).0, 0, "shed commits never become samples");
    }

    #[test]
    fn per_lane_refresh_leaves_peer_views_pending() {
        let t = StalenessTracker::new(16);
        let a = t.register_view("A", &[0]);
        let b = t.register_view("B", &[0]);
        t.note_commit(0, 1, 100);
        t.note_refresh_for(a, &[(0, 1)], 600);
        assert_eq!(t.current_staleness_us(a, 1_000), 0);
        assert_eq!(t.current_staleness_us(b, 1_000), 900, "B's copy stays pending");
        assert_eq!(t.lifetime(a), (1, 500, 500, 500));
        assert_eq!(t.lifetime(b).0, 0, "no sample until B itself refreshes");
    }

    #[test]
    fn dropped_view_stops_contributing_to_evaluation() {
        let t = StalenessTracker::new(16);
        let a = t.register_view("A", &[0]);
        let b = t.register_view("B", &[0]);
        t.set_slo(SloPolicy::target(1_000));
        t.set_cadence(1_000, 0);
        t.note_commit(0, 1, 0);
        t.drop_view(b);
        assert!(t.is_retired(b));
        assert_eq!(t.current_staleness_us(b, 10_000), 0, "pending discarded on drop");
        for w in 1..=8u64 {
            t.maybe_sample(w * 1_000);
        }
        assert_eq!(t.state(a), SloState::Page, "the live lane still pages");
        assert_eq!(t.state(b), SloState::Ok, "a retired lane never evaluates");
        assert!(t.points(b).is_empty(), "no windows emitted after retirement");
        t.note_commit(0, 2, 9_000);
        assert_eq!(t.current_staleness_us(b, 10_000), 0, "new commits skip the lane");
        t.note_refresh_for(b, &[(0, 2)], 9_500);
        assert_eq!(t.lifetime(b).0, 0, "refreshes are no-ops for the lane");
        assert!(t.to_json().contains("\"retired\":true"));
    }

    #[test]
    fn stalled_view_pages_via_pending_age() {
        // No refresh ever happens; the pending age alone must drive the SLO
        // through warn to page at the documented thresholds.
        let t = StalenessTracker::new(32);
        let v = t.register_view("V", &[0]);
        t.set_slo(SloPolicy::target(1_000));
        t.set_cadence(1_000, 0);
        t.note_commit(0, 1, 0);
        let mut states = Vec::new();
        for w in 1..=8u64 {
            t.maybe_sample(w * 1_000);
            states.push(t.state(v));
        }
        // Window 1 observes age 1000 (not > target); 2.. breach. Warn needs
        // 2 bad of last 3 → window 3. Page needs 3-of-3 and 6 long bad →
        // window 7.
        assert_eq!(states[1], SloState::Ok, "a single bad window never moves the state");
        assert_eq!(states[2], SloState::Warn);
        assert_eq!(states[5], SloState::Warn, "5 bad windows: short condition met, long not yet");
        assert_eq!(states[6], SloState::Page);
        let trans: Vec<(SloState, SloState)> =
            t.transitions().iter().map(|&(_, _, f, to)| (f, to)).collect();
        assert_eq!(
            trans,
            vec![(SloState::Ok, SloState::Warn), (SloState::Warn, SloState::Page)],
            "ok → warn → page, in order"
        );
    }

    #[test]
    fn recovery_steps_page_down_to_ok() {
        let mut e = SloEvaluator::new(SloPolicy::target(100));
        for _ in 0..8 {
            e.evaluate(5_000);
        }
        assert_eq!(e.state(), SloState::Page);
        assert_eq!(e.evaluate(0), Some((SloState::Page, SloState::Warn)), "page condition lapsed");
        assert_eq!(e.evaluate(0), None, "one bad window still in the short view: warn holds");
        assert_eq!(e.evaluate(0), Some((SloState::Warn, SloState::Ok)), "short window clean");
        assert_eq!(e.breaches(), 8);
        assert_eq!(e.evaluations(), 11);
    }

    #[test]
    fn single_bad_window_never_flaps() {
        let mut e = SloEvaluator::new(SloPolicy::target(100));
        for k in 0..50u64 {
            // Isolated breaches, never two within a short window.
            let observed = if k % 5 == 0 { 10_000 } else { 0 };
            e.evaluate(observed);
            assert_eq!(e.state(), SloState::Ok, "window {k}");
        }
        assert_eq!(e.breaches(), 10);
    }

    #[test]
    fn evaluator_is_deterministic() {
        let run = || {
            let mut e = SloEvaluator::new(SloPolicy::target(500));
            let mut rng = super::tests_rng::TestRng::new(42);
            let mut log = Vec::new();
            for _ in 0..200 {
                e.evaluate(rng.next() % 2_000);
                log.push(e.state());
            }
            log
        };
        assert_eq!(run(), run(), "bit-identical across same-seed reruns");
    }

    #[test]
    fn json_capture_is_parseable_and_labeled() {
        let t = StalenessTracker::new(8);
        t.register_view("V0", &[0, 1]);
        t.set_slo(SloPolicy::target(1_000));
        t.set_cadence(1_000, 0);
        t.note_commit(0, 1, 10);
        t.note_refresh(&[(0, 1)], 400);
        t.maybe_sample(5_000);
        let j = t.to_json();
        let v = json::parse(&j).expect("tracker JSON parses");
        assert_eq!(v.get("windows").and_then(json::Value::as_num), Some(5.0));
        let v0 = v.get("views").and_then(|m| m.get("V0")).expect("view present");
        assert_eq!(v0.get("state").and_then(json::Value::as_str), Some("ok"));
        assert_eq!(v0.get("points").and_then(json::Value::as_arr).map(<[_]>::len), Some(5));
        assert!(t.render_text(5_000).contains("V0"));
    }
}

#[cfg(test)]
mod tests_rng {
    //! A tiny deterministic generator for the evaluator determinism test
    //! (`dyno-obs` depends on nothing, including the workspace PRNG crate).

    pub struct TestRng(u64);

    impl TestRng {
        pub fn new(seed: u64) -> Self {
            TestRng(seed)
        }

        pub fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }
}
