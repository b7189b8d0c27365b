//! The source→view dependency DAG of a multi-view warehouse.
//!
//! A warehouse maintains N views over overlapping sources. Every admitted
//! update fans out of the single shared UMQ to the views that *depend* on
//! its source; everything else about maintenance (per-view safety verdicts,
//! per-view deferral, staleness lanes) is keyed by the view's index in this
//! DAG. The structure is deliberately simple — views depend only on base
//! sources, never on each other, so the "topological order" collapses to a
//! stable ordering by SLA tier. It answers two scheduling questions:
//!
//! * **refresh order** — in which order are views brought up to date
//!   ([`ViewDag::refresh_order`]): ascending SLA tier (tier 0 = tightest
//!   staleness SLO first), index order within a tier for determinism. The
//!   warehouse takes every Phase-2 commit and every deferred drain in this
//!   order, so it is kept sorted as views register rather than sorted per
//!   batch.
//! * **fan-out** — which views depend on the sources a batch touched
//!   ([`ViewDag::dependents_of`])? The warehouse keeps these edges in step
//!   on add/initialize/drop/recover but does not dispatch by them yet: it
//!   still classifies every slot per batch (ROADMAP item 2).
//!
//! The DAG is data-model independent (sources are opaque `u32` ids, views
//! are opaque indices), so it lives here in `dyno-core` beside the
//! dependency graph and the scheduler rather than in the relational layer.

use std::collections::BTreeMap;

/// One registered view: the sources it reads and its SLA tier.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ViewNode {
    /// Sorted, deduplicated source ids this view reads from.
    sources: Vec<u32>,
    /// SLA tier: lower = tighter staleness target = refreshed earlier.
    tier: u8,
}

/// Source→view dependency DAG with per-view SLA tiers.
///
/// Views are addressed by the caller's index (the warehouse slot index);
/// indices need not be dense — a removed view simply stops participating.
#[derive(Debug, Clone, Default)]
pub struct ViewDag {
    views: BTreeMap<usize, ViewNode>,
    /// source id → sorted view indices reading it (the fan-out edge list).
    dependents: BTreeMap<u32, Vec<usize>>,
    /// Every registered view in refresh order, re-sorted on registration so
    /// the per-batch reader pays nothing.
    order: Vec<usize>,
}

impl ViewDag {
    /// An empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-registers) view `idx` as reading `sources` at SLA
    /// tier `tier`. Re-registering replaces the previous edges.
    pub fn add_view(&mut self, idx: usize, sources: &[u32], tier: u8) {
        self.remove_view(idx);
        let mut srcs: Vec<u32> = sources.to_vec();
        srcs.sort_unstable();
        srcs.dedup();
        for &s in &srcs {
            let deps = self.dependents.entry(s).or_default();
            if let Err(pos) = deps.binary_search(&idx) {
                deps.insert(pos, idx);
            }
        }
        self.views.insert(idx, ViewNode { sources: srcs, tier });
        let mut order = std::mem::take(&mut self.order);
        order.push(idx);
        self.sort_refresh(&mut order);
        self.order = order;
    }

    /// Removes view `idx` and all its edges. Unknown indices are a no-op.
    pub fn remove_view(&mut self, idx: usize) {
        if self.views.remove(&idx).is_none() {
            return;
        }
        self.dependents.retain(|_, deps| {
            deps.retain(|&v| v != idx);
            !deps.is_empty()
        });
        self.order.retain(|&v| v != idx);
    }

    /// Number of registered views.
    pub fn view_count(&self) -> usize {
        self.views.len()
    }

    /// The sorted source ids view `idx` reads, if registered.
    pub fn sources_of(&self, idx: usize) -> Option<&[u32]> {
        self.views.get(&idx).map(|n| n.sources.as_slice())
    }

    /// The SLA tier of view `idx` (`None` if unregistered).
    pub fn tier_of(&self, idx: usize) -> Option<u8> {
        self.views.get(&idx).map(|n| n.tier)
    }

    /// View indices depending on source `source`, in refresh order
    /// (ascending tier, then index).
    pub fn dependents_of(&self, source: u32) -> Vec<usize> {
        let mut out: Vec<usize> = self.dependents.get(&source).cloned().unwrap_or_default();
        self.sort_refresh(&mut out);
        out
    }

    /// View indices depending on *any* of `sources`, deduplicated, in
    /// refresh order.
    pub fn dependents_of_any(&self, sources: &[u32]) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        for &s in sources {
            if let Some(deps) = self.dependents.get(&s) {
                for &v in deps {
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
        }
        self.sort_refresh(&mut out);
        out
    }

    /// All registered view indices in refresh order: ascending SLA tier
    /// (tier 0 first), ascending index within a tier. Views read only base
    /// sources — never other views — so this tier order *is* the
    /// topological refresh order of the maintenance DAG.
    pub fn refresh_order(&self) -> &[usize] {
        &self.order
    }

    /// Views sharing at least one source with view `idx` (excluding
    /// itself) — the overlap set whose join subplans are candidates for
    /// shared computation.
    pub fn overlapping(&self, idx: usize) -> Vec<usize> {
        let Some(node) = self.views.get(&idx) else { return Vec::new() };
        let mut out: Vec<usize> = Vec::new();
        for &s in &node.sources {
            if let Some(deps) = self.dependents.get(&s) {
                for &v in deps {
                    if v != idx && !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn sort_refresh(&self, order: &mut [usize]) {
        order.sort_by_key(|&v| (self.views.get(&v).map_or(u8::MAX, |n| n.tier), v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dag3() -> ViewDag {
        let mut dag = ViewDag::new();
        dag.add_view(0, &[0, 1], 1); // wide view, relaxed tier
        dag.add_view(1, &[0], 0); // hot view on source 0
        dag.add_view(2, &[1, 2], 2);
        dag
    }

    #[test]
    fn fan_out_follows_source_edges() {
        let dag = dag3();
        assert_eq!(dag.dependents_of(0), vec![1, 0]); // tier 0 before tier 1
        assert_eq!(dag.dependents_of(1), vec![0, 2]);
        assert_eq!(dag.dependents_of(2), vec![2]);
        assert_eq!(dag.dependents_of(9), Vec::<usize>::new());
    }

    #[test]
    fn dependents_of_any_dedupes_and_orders_by_tier() {
        let dag = dag3();
        assert_eq!(dag.dependents_of_any(&[0, 1, 2]), vec![1, 0, 2]);
        assert_eq!(dag.dependents_of_any(&[2]), vec![2]);
    }

    #[test]
    fn refresh_order_is_tier_then_index() {
        let dag = dag3();
        assert_eq!(dag.refresh_order(), vec![1, 0, 2]);
    }

    #[test]
    fn remove_view_drops_all_edges() {
        let mut dag = dag3();
        dag.remove_view(0);
        assert_eq!(dag.view_count(), 2);
        assert_eq!(dag.dependents_of(0), vec![1]);
        assert_eq!(dag.dependents_of(1), vec![2]);
        assert_eq!(dag.sources_of(0), None);
        // Removing twice is a no-op.
        dag.remove_view(0);
        assert_eq!(dag.view_count(), 2);
    }

    #[test]
    fn reregistering_replaces_edges() {
        let mut dag = dag3();
        dag.add_view(1, &[2, 2, 1], 3); // dup source collapses
        assert_eq!(dag.sources_of(1), Some(&[1, 2][..]));
        assert_eq!(dag.tier_of(1), Some(3));
        assert_eq!(dag.dependents_of(0), vec![0]);
        assert_eq!(dag.dependents_of(2), vec![2, 1]); // tier 2 before tier 3
    }

    #[test]
    fn overlapping_views_share_a_source() {
        let dag = dag3();
        assert_eq!(dag.overlapping(0), vec![1, 2]);
        assert_eq!(dag.overlapping(1), vec![0]);
        assert_eq!(dag.overlapping(2), vec![0]);
    }
}
