//! The per-operator maintenance-cost profiler (DESIGN.md §18): an
//! `EXPLAIN ANALYZE`-style accounting of where a maintenance plan spends
//! its rows and nanoseconds.
//!
//! Forensics (DESIGN.md §13) stops at *phase* granularity — queue wait,
//! query time, park time. This module drills the query-time phase down to
//! individual Z-set operators: each seed selection, join hop, compensation
//! join, Equation-6 term, extent apply, and WAL append records rows
//! in/out, weights cancelled, index probes, and elapsed nanoseconds into a
//! bounded per-plan aggregate keyed by `(view, scope)` — the same shape as
//! the view layer's compiled `MaintPlan`s.
//!
//! The store sits behind the collector's one gate word
//! ([`Capture::PROFILE`]), and instrumented callers reach it through one
//! helper, [`Profiler`], which checks the gate once per plan and otherwise
//! takes no timestamp, counts no row and builds no [`NodeKey`]: the disabled
//! path costs one `Option` deref plus one `Cell` read — no allocation, no
//! clock access. Samples fold into the aggregate as they are recorded; it
//! is not derived from the record ring, so its totals stay exact however
//! long the run. Timing samples are wall nanoseconds and appear **only** in
//! profile renders, never in extents or metric series, so turning the
//! profiler on cannot move a byte of any same-seed determinism surface.
//!
//! Renders are byte-stable for a given set of samples: plans and nodes
//! live in `BTreeMap`s, and the per-phase totals in both renders are
//! computed as the sums of their child operator nodes — conservation holds
//! by construction and is asserted by `tests/profile_props.rs`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::collector::{Capture, Collector};
use crate::json;

/// The pipeline phase an operator sample belongs to. Variant order is
/// render order within a plan step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpPhase {
    /// δσ+δπ of the update's delta — the SWEEP seed.
    Seed,
    /// A `__D ⋈ target` hop of the maintenance chain (including shared
    /// first-hop cache computation and per-view derivation).
    Hop,
    /// A SWEEP compensation join (`__D ⋈ Δⱼ`) plus its negated merge.
    Compensate,
    /// The final projection onto the view layout.
    Final,
    /// An Equation-6 adaptation term (schema-change batch path).
    Adapt,
    /// Conflict detection / disposition classification.
    Detect,
    /// Extent application (signed merge or full replace).
    Apply,
    /// WAL appends (intent, applied, replica records).
    Wal,
}

impl OpPhase {
    /// Every phase, in render order.
    pub const ALL: [OpPhase; 8] = [
        OpPhase::Seed,
        OpPhase::Hop,
        OpPhase::Compensate,
        OpPhase::Final,
        OpPhase::Adapt,
        OpPhase::Detect,
        OpPhase::Apply,
        OpPhase::Wal,
    ];

    /// The phase's render name.
    pub fn name(self) -> &'static str {
        match self {
            OpPhase::Seed => "seed",
            OpPhase::Hop => "hop",
            OpPhase::Compensate => "compensate",
            OpPhase::Final => "final",
            OpPhase::Adapt => "adapt",
            OpPhase::Detect => "detect",
            OpPhase::Apply => "apply",
            OpPhase::Wal => "wal",
        }
    }
}

/// Identity of one operator node within a plan's tree. Ordering — step,
/// then phase, then operator, then detail — is the render order, so the
/// tree reads in plan-execution order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct NodeKey {
    /// Plan step index (0 = seed; hops count up; the final projection uses
    /// one past the last hop; warehouse-level nodes use 0).
    pub step: u32,
    /// Pipeline phase.
    pub phase: OpPhase,
    /// Operator name (`delta_select`, `delta_join_probe`, `eq6_term`,
    /// `apply_delta`, …).
    pub op: &'static str,
    /// Free-form discriminator — usually the target relation or term name.
    pub detail: String,
}

/// One operator invocation's measurements.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpSample {
    /// Distinct input rows the operator consumed.
    pub rows_in: u64,
    /// Distinct output rows it produced.
    pub rows_out: u64,
    /// Z-set entries annihilated by weight cancellation.
    pub weights_cancelled: u64,
    /// Secondary-index probes issued.
    pub index_probes: u64,
    /// Elapsed wall nanoseconds.
    pub ns: u64,
}

/// A node's running aggregate over every recorded invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpAgg {
    /// Invocations recorded.
    pub calls: u64,
    /// Summed input rows.
    pub rows_in: u64,
    /// Summed output rows.
    pub rows_out: u64,
    /// Summed cancellations.
    pub weights_cancelled: u64,
    /// Summed index probes.
    pub index_probes: u64,
    /// Summed nanoseconds.
    pub ns: u64,
}

impl OpAgg {
    fn absorb(&mut self, s: OpSample) {
        self.calls += 1;
        self.rows_in += s.rows_in;
        self.rows_out += s.rows_out;
        self.weights_cancelled += s.weights_cancelled;
        self.index_probes += s.index_probes;
        self.ns += s.ns;
    }

    fn merge(&mut self, o: &OpAgg) {
        self.calls += o.calls;
        self.rows_in += o.rows_in;
        self.rows_out += o.rows_out;
        self.weights_cancelled += o.weights_cancelled;
        self.index_probes += o.index_probes;
        self.ns += o.ns;
    }
}

/// One plan's profile: its operator nodes plus an invocation count.
#[derive(Debug, Clone, Default)]
pub struct PlanProfile {
    /// Times the plan as a whole was invoked.
    pub invocations: u64,
    /// Per-operator aggregates, in render order.
    pub nodes: BTreeMap<NodeKey, OpAgg>,
    /// Samples dropped because the per-plan node cap was hit.
    pub dropped_nodes: u64,
}

impl PlanProfile {
    /// Per-phase totals, computed as the sums of the phase's child nodes —
    /// the conservation invariant the profile tests assert.
    pub fn phase_totals(&self) -> BTreeMap<OpPhase, OpAgg> {
        let mut out: BTreeMap<OpPhase, OpAgg> = BTreeMap::new();
        for (k, agg) in &self.nodes {
            out.entry(k.phase).or_default().merge(agg);
        }
        out
    }
}

/// Default cap on distinct `(view, scope)` plans.
pub const DEFAULT_MAX_PLANS: usize = 64;
/// Default cap on distinct operator nodes per plan.
pub const DEFAULT_MAX_NODES: usize = 256;

/// The bounded profile store: per-plan operator aggregates keyed by
/// `(view, scope)`, where scope is the driving relation for SWEEP plans,
/// `batch` for Equation-6 adaptation, and `pipeline` for warehouse-level
/// apply/WAL/conflict work.
#[derive(Debug, Clone)]
pub struct Profile {
    plans: BTreeMap<(String, String), PlanProfile>,
    max_plans: usize,
    max_nodes: usize,
    dropped_plans: u64,
}

impl Default for Profile {
    fn default() -> Self {
        Profile::new(DEFAULT_MAX_PLANS, DEFAULT_MAX_NODES)
    }
}

impl Profile {
    /// An empty profile bounded to `max_plans` plans of `max_nodes` nodes.
    pub fn new(max_plans: usize, max_nodes: usize) -> Self {
        Profile { plans: BTreeMap::new(), max_plans, max_nodes, dropped_plans: 0 }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Number of tracked plans.
    pub fn plan_count(&self) -> usize {
        self.plans.len()
    }

    /// Samples dropped at the plan cap.
    pub fn dropped_plans(&self) -> u64 {
        self.dropped_plans
    }

    /// Iterates `((view, scope), plan)` in render order.
    pub fn plans(&self) -> impl Iterator<Item = (&(String, String), &PlanProfile)> {
        self.plans.iter()
    }

    /// The profile of one `(view, scope)` plan, if tracked.
    pub fn plan(&self, view: &str, scope: &str) -> Option<&PlanProfile> {
        self.plans.get(&(view.to_string(), scope.to_string()))
    }

    /// Discards everything (caps are kept).
    pub fn clear(&mut self) {
        self.plans.clear();
        self.dropped_plans = 0;
    }

    fn plan_mut(&mut self, view: &str, scope: &str) -> Option<&mut PlanProfile> {
        let key = (view.to_string(), scope.to_string());
        if !self.plans.contains_key(&key) && self.plans.len() >= self.max_plans {
            self.dropped_plans += 1;
            return None;
        }
        Some(self.plans.entry(key).or_default())
    }

    /// Counts one invocation of the `(view, scope)` plan.
    pub fn invocation(&mut self, view: &str, scope: &str) {
        if let Some(p) = self.plan_mut(view, scope) {
            p.invocations += 1;
        }
    }

    /// Records one operator sample under the `(view, scope)` plan.
    pub fn record(&mut self, view: &str, scope: &str, key: NodeKey, s: OpSample) {
        let max_nodes = self.max_nodes;
        let Some(p) = self.plan_mut(view, scope) else { return };
        if !p.nodes.contains_key(&key) && p.nodes.len() >= max_nodes {
            p.dropped_nodes += 1;
            return;
        }
        p.nodes.entry(key).or_default().absorb(s);
    }

    /// Renders every plan (or only `view`'s plans) as an aligned
    /// `EXPLAIN ANALYZE`-style tree with per-phase totals.
    pub fn render_text(&self, view: Option<&str>) -> String {
        let mut out = String::new();
        let mut shown = 0usize;
        for ((v, scope), plan) in &self.plans {
            if view.is_some_and(|f| f != v) {
                continue;
            }
            shown += 1;
            let _ = writeln!(out, "plan {v} · {scope}  ({} invocations)", plan.invocations);
            let _ = writeln!(
                out,
                "  {:<4} {:<10} {:<28} {:>6} {:>9} {:>9} {:>7} {:>7} {:>12}",
                "step",
                "phase",
                "operator",
                "calls",
                "rows_in",
                "rows_out",
                "cancel",
                "probes",
                "ns"
            );
            for (k, a) in &plan.nodes {
                let op = if k.detail.is_empty() {
                    k.op.to_string()
                } else {
                    format!("{} {}", k.op, k.detail)
                };
                let _ = writeln!(
                    out,
                    "  {:<4} {:<10} {:<28} {:>6} {:>9} {:>9} {:>7} {:>7} {:>12}",
                    k.step,
                    k.phase.name(),
                    op,
                    a.calls,
                    a.rows_in,
                    a.rows_out,
                    a.weights_cancelled,
                    a.index_probes,
                    a.ns
                );
            }
            let totals = plan.phase_totals();
            out.push_str("  phase totals:");
            for phase in OpPhase::ALL {
                if let Some(t) = totals.get(&phase) {
                    let _ = write!(
                        out,
                        "  {}[rows {}→{}, {} ns]",
                        phase.name(),
                        t.rows_in,
                        t.rows_out,
                        t.ns
                    );
                }
            }
            out.push('\n');
            if plan.dropped_nodes > 0 {
                let _ = writeln!(out, "  ({} samples dropped at the node cap)", plan.dropped_nodes);
            }
        }
        if shown == 0 {
            out.push_str(match view {
                Some(v) => return format!("no profile for view {v} (is the profiler on?)\n"),
                None => "no profile captured (is the profiler on?)\n",
            });
        }
        if self.dropped_plans > 0 {
            let _ = writeln!(out, "({} samples dropped at the plan cap)", self.dropped_plans);
        }
        out
    }

    /// The profile as one JSON document. Per-phase totals are emitted as
    /// sums of the child nodes, so `nodes` and `phases` are conserved by
    /// construction.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"profile\":{\"plans\":[");
        for (i, ((v, scope), plan)) in self.plans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"view\":");
            json::push_str(&mut out, v);
            out.push_str(",\"scope\":");
            json::push_str(&mut out, scope);
            let _ = write!(out, ",\"invocations\":{},\"nodes\":[", plan.invocations);
            for (j, (k, a)) in plan.nodes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ =
                    write!(out, "{{\"step\":{},\"phase\":\"{}\",\"op\":", k.step, k.phase.name());
                json::push_str(&mut out, k.op);
                out.push_str(",\"detail\":");
                json::push_str(&mut out, &k.detail);
                let _ = write!(
                    out,
                    ",\"calls\":{},\"rows_in\":{},\"rows_out\":{},\"cancelled\":{},\
                     \"probes\":{},\"ns\":{}}}",
                    a.calls, a.rows_in, a.rows_out, a.weights_cancelled, a.index_probes, a.ns
                );
            }
            out.push_str("],\"phases\":{");
            let totals = plan.phase_totals();
            let mut first = true;
            for phase in OpPhase::ALL {
                if let Some(t) = totals.get(&phase) {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(
                        out,
                        "\"{}\":{{\"calls\":{},\"rows_in\":{},\"rows_out\":{},\
                         \"cancelled\":{},\"probes\":{},\"ns\":{}}}",
                        phase.name(),
                        t.calls,
                        t.rows_in,
                        t.rows_out,
                        t.weights_cancelled,
                        t.index_probes,
                        t.ns
                    );
                }
            }
            let _ = write!(out, "}},\"dropped_nodes\":{}}}", plan.dropped_nodes);
        }
        let _ = write!(out, "],\"dropped_plans\":{}}}}}", self.dropped_plans);
        out
    }
}

/// One plan's operator timer, the one helper instrumented callers use: the
/// collector, the plan's `(view, scope)`, and where the thread's cumulative
/// `(weights_cancelled, index_probes)` counters are read (the relational
/// executor's thread-locals; this crate depends on nothing). Live only when
/// built while the collector captures [`Capture::PROFILE`]; otherwise every
/// method returns at once, without reading a clock, counting rows or
/// building a key.
#[derive(Clone, Copy, Default)]
pub struct Profiler<'a>(Option<Plan<'a>>);

/// What a live [`Profiler`] records into.
#[derive(Clone, Copy)]
struct Plan<'a> {
    obs: &'a Collector,
    view: &'a str,
    scope: &'a str,
    counters: fn() -> (u64, u64),
}

/// An operator's open measurement window (inert under an inert profiler).
pub struct OpWindow(Option<(Instant, u64, (u64, u64))>);

impl<'a> Profiler<'a> {
    /// The profiler of plan `(view, scope)` on `obs`, reading probe and
    /// cancellation totals from `counters`.
    pub fn new(
        obs: &'a Collector,
        view: &'a str,
        scope: &'a str,
        counters: fn() -> (u64, u64),
    ) -> Self {
        Profiler(obs.capturing(Capture::PROFILE).then_some(Plan { obs, view, scope, counters }))
    }

    /// Counts one invocation of the plan.
    pub fn invocation(self) {
        if let Some(p) = self.0 {
            p.obs.profile_invocation(p.view, p.scope);
        }
    }

    /// Opens a window over an operator that consumes `rows_in()` distinct
    /// rows.
    pub fn start(self, rows_in: impl FnOnce() -> usize) -> OpWindow {
        OpWindow(self.0.map(|p| (Instant::now(), rows_in() as u64, (p.counters)())))
    }

    /// Closes `window`, recording it as node `(step, phase, op, detail)`
    /// of the plan, having produced `rows_out()` distinct rows.
    pub fn finish(
        self,
        window: OpWindow,
        step: u32,
        phase: OpPhase,
        op: &'static str,
        detail: &str,
        rows_out: impl FnOnce() -> usize,
    ) {
        let (Some(p), OpWindow(Some((t0, rows_in, before)))) = (self.0, window) else { return };
        let (cancelled, probes) = (p.counters)();
        p.obs.profile_op(
            p.view,
            p.scope,
            NodeKey { step, phase, op, detail: detail.to_string() },
            OpSample {
                rows_in,
                rows_out: rows_out() as u64,
                weights_cancelled: cancelled.wrapping_sub(before.0),
                index_probes: probes.wrapping_sub(before.1),
                ns: t0.elapsed().as_nanos() as u64,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(step: u32, phase: OpPhase, op: &'static str, detail: &str) -> NodeKey {
        NodeKey { step, phase, op, detail: detail.into() }
    }

    fn sample(rows_in: u64, rows_out: u64, ns: u64) -> OpSample {
        OpSample { rows_in, rows_out, weights_cancelled: 0, index_probes: 0, ns }
    }

    #[test]
    fn phase_totals_are_sums_of_child_nodes() {
        let mut p = Profile::default();
        p.invocation("V", "R");
        p.record("V", "R", key(0, OpPhase::Seed, "delta_select", "R"), sample(10, 6, 100));
        p.record("V", "R", key(0, OpPhase::Seed, "delta_project", "R"), sample(6, 5, 40));
        p.record("V", "R", key(1, OpPhase::Hop, "join", "S"), sample(5, 9, 300));
        p.record("V", "R", key(0, OpPhase::Seed, "delta_select", "R"), sample(4, 2, 60));
        let plan = p.plan("V", "R").unwrap();
        let totals = plan.phase_totals();
        let seed = totals[&OpPhase::Seed];
        assert_eq!(seed.calls, 3);
        assert_eq!(seed.rows_in, 20);
        assert_eq!(seed.rows_out, 13);
        assert_eq!(seed.ns, 200);
        assert_eq!(totals[&OpPhase::Hop].ns, 300);
        // Conservation: summing every node equals summing every phase.
        let node_ns: u64 = plan.nodes.values().map(|a| a.ns).sum();
        let phase_ns: u64 = totals.values().map(|a| a.ns).sum();
        assert_eq!(node_ns, phase_ns);
    }

    #[test]
    fn renders_are_stable_and_parse() {
        let mut p = Profile::default();
        p.invocation("V", "R");
        p.record("V", "R", key(1, OpPhase::Hop, "join", "S"), sample(5, 9, 300));
        p.record("V", "R", key(0, OpPhase::Seed, "delta_select", "R"), sample(10, 6, 100));
        let text = p.render_text(None);
        assert!(text.contains("plan V · R  (1 invocations)"));
        let seed_pos = text.find("delta_select").unwrap();
        let hop_pos = text.find("join S").unwrap();
        assert!(seed_pos < hop_pos, "nodes render in step order regardless of insertion");
        assert!(text.contains("phase totals:"));
        let json = p.render_json();
        crate::json::parse(&json).expect("valid JSON");
        assert_eq!(json, p.clone().render_json(), "byte-stable render");
        assert!(json.contains("\"phase\":\"seed\""));
        assert!(p.render_text(Some("V")).contains("plan V"));
        assert!(p.render_text(Some("other")).contains("no profile for view other"));
    }

    #[test]
    fn caps_drop_and_count() {
        let mut p = Profile::new(1, 2);
        p.record("A", "r", key(0, OpPhase::Seed, "a", ""), sample(1, 1, 1));
        p.record("A", "r", key(0, OpPhase::Seed, "b", ""), sample(1, 1, 1));
        p.record("A", "r", key(0, OpPhase::Seed, "c", ""), sample(1, 1, 1));
        p.record("B", "r", key(0, OpPhase::Seed, "a", ""), sample(1, 1, 1));
        assert_eq!(p.plan_count(), 1);
        assert_eq!(p.dropped_plans(), 1);
        assert_eq!(p.plan("A", "r").unwrap().dropped_nodes, 1);
        // Existing nodes keep absorbing at the cap.
        p.record("A", "r", key(0, OpPhase::Seed, "a", ""), sample(1, 1, 1));
        assert_eq!(p.plan("A", "r").unwrap().nodes.len(), 2);
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p.dropped_plans(), 0);
    }

    #[test]
    fn empty_profile_renders_a_hint() {
        let p = Profile::default();
        assert!(p.render_text(None).contains("no profile captured"));
        crate::json::parse(&p.render_json()).expect("valid JSON");
    }
}
