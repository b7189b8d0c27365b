//! The relation→view dependency DAG of a multi-view warehouse.
//!
//! A warehouse maintains N views over overlapping relations. Every admitted
//! data update fans out of the single shared UMQ to the views that *read*
//! its relation; everything else about maintenance (per-view safety
//! verdicts, per-view deferral, staleness lanes) is keyed by the view's
//! index in this DAG. The structure is deliberately simple — views depend
//! only on base relations, never on each other, so the "topological order"
//! collapses to a stable ordering by SLA tier. It answers two scheduling
//! questions:
//!
//! * **refresh order** — in which order are views brought up to date
//!   ([`ViewDag::refresh_order`]): ascending SLA tier (tier 0 = tightest
//!   staleness SLO first), index order within a tier for determinism. The
//!   warehouse takes every Phase-2 commit and every deferred drain in this
//!   order, so it is kept sorted as views register rather than sorted per
//!   batch.
//! * **fan-out** — which views read the relation a data update touched
//!   ([`ViewDag::dependents_of`]), in refresh order? The warehouse
//!   dispatches every data update by this list, so a view that does not
//!   read the relation costs that update nothing. The edges are keyed by
//!   relation, not by source: a source holds several relations, and a view
//!   reading one of them is not affected by an update to another.
//!
//! The DAG is data-model independent (relations are opaque names, views
//! are opaque indices), so it lives here in `dyno-core` beside the
//! dependency graph and the scheduler rather than in the relational layer.

use std::collections::{BTreeMap, HashMap};

/// One registered view: the relations it reads and its SLA tier.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ViewNode {
    /// Sorted, deduplicated relation names this view reads.
    relations: Vec<String>,
    /// SLA tier: lower = tighter staleness target = refreshed earlier.
    tier: u8,
}

/// Relation→view dependency DAG with per-view SLA tiers.
///
/// Views are addressed by the caller's index (the warehouse slot index);
/// indices need not be dense — a removed view simply stops participating.
#[derive(Debug, Clone, Default)]
pub struct ViewDag {
    views: BTreeMap<usize, ViewNode>,
    /// relation → view indices reading it, in refresh order (the fan-out
    /// edge list, kept sorted as views register).
    dependents: HashMap<String, Vec<usize>>,
    /// Every registered view in refresh order, re-sorted on registration so
    /// the per-batch reader pays nothing.
    order: Vec<usize>,
}

impl ViewDag {
    /// An empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-registers) view `idx` as reading `relations` at SLA
    /// tier `tier`. Re-registering replaces the previous edges.
    pub fn add_view(&mut self, idx: usize, relations: &[impl AsRef<str>], tier: u8) {
        self.remove_view(idx);
        let mut rels: Vec<String> = relations.iter().map(|r| r.as_ref().to_string()).collect();
        rels.sort_unstable();
        rels.dedup();
        self.views.insert(idx, ViewNode { relations: rels.clone(), tier });
        for r in rels {
            let mut deps = self.dependents.remove(&r).unwrap_or_default();
            deps.push(idx);
            self.sort_refresh(&mut deps);
            self.dependents.insert(r, deps);
        }
        let mut order = std::mem::take(&mut self.order);
        order.push(idx);
        self.sort_refresh(&mut order);
        self.order = order;
    }

    /// Removes view `idx` and all its edges. Unknown indices are a no-op.
    pub fn remove_view(&mut self, idx: usize) {
        let Some(node) = self.views.remove(&idx) else { return };
        for r in &node.relations {
            if let Some(deps) = self.dependents.get_mut(r) {
                deps.retain(|&v| v != idx);
                if deps.is_empty() {
                    self.dependents.remove(r);
                }
            }
        }
        self.order.retain(|&v| v != idx);
    }

    /// Number of registered views.
    pub fn view_count(&self) -> usize {
        self.views.len()
    }

    /// The sorted relation names view `idx` reads, if registered.
    pub fn relations_of(&self, idx: usize) -> Option<&[String]> {
        self.views.get(&idx).map(|n| n.relations.as_slice())
    }

    /// The SLA tier of view `idx` (`None` if unregistered).
    pub fn tier_of(&self, idx: usize) -> Option<u8> {
        self.views.get(&idx).map(|n| n.tier)
    }

    /// View indices reading `relation`, in refresh order (ascending tier,
    /// then index). Kept sorted on registration: the per-update reader
    /// pays one map lookup.
    pub fn dependents_of(&self, relation: &str) -> &[usize] {
        self.dependents.get(relation).map_or(&[], Vec::as_slice)
    }

    /// All registered view indices in refresh order: ascending SLA tier
    /// (tier 0 first), ascending index within a tier. Views read only base
    /// relations — never other views — so this tier order *is* the
    /// topological refresh order of the maintenance DAG.
    pub fn refresh_order(&self) -> &[usize] {
        &self.order
    }

    /// Sorts view indices into refresh order.
    pub fn sort_refresh(&self, order: &mut [usize]) {
        order.sort_by_key(|&v| self.refresh_key(v));
    }

    /// View `v`'s place in refresh order: (tier, index), unregistered last.
    pub fn refresh_key(&self, v: usize) -> (u8, usize) {
        (self.views.get(&v).map_or(u8::MAX, |n| n.tier), v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dag3() -> ViewDag {
        let mut dag = ViewDag::new();
        dag.add_view(0, &["R", "S"], 1); // wide view, relaxed tier
        dag.add_view(1, &["R"], 0); // hot view on R
        dag.add_view(2, &["S", "T"], 2);
        dag
    }

    #[test]
    fn fan_out_follows_relation_edges() {
        let dag = dag3();
        assert_eq!(dag.dependents_of("R"), [1, 0]); // tier 0 before tier 1
        assert_eq!(dag.dependents_of("S"), [0, 2]);
        assert_eq!(dag.dependents_of("T"), [2]);
        assert_eq!(dag.dependents_of("U"), [0usize; 0]);
    }

    #[test]
    fn refresh_order_is_tier_then_index() {
        let dag = dag3();
        assert_eq!(dag.refresh_order(), vec![1, 0, 2]);
        let mut some = vec![2, 1, 0];
        dag.sort_refresh(&mut some);
        assert_eq!(some, [1, 0, 2]);
    }

    #[test]
    fn remove_view_drops_all_edges() {
        let mut dag = dag3();
        dag.remove_view(0);
        assert_eq!(dag.view_count(), 2);
        assert_eq!(dag.dependents_of("R"), [1]);
        assert_eq!(dag.dependents_of("S"), [2]);
        assert_eq!(dag.relations_of(0), None);
        // Removing twice is a no-op.
        dag.remove_view(0);
        assert_eq!(dag.view_count(), 2);
    }

    #[test]
    fn reregistering_replaces_edges() {
        let mut dag = dag3();
        dag.add_view(1, &["T", "T", "S"], 3); // dup relation collapses
        assert_eq!(dag.relations_of(1), Some(&["S".to_string(), "T".to_string()][..]));
        assert_eq!(dag.tier_of(1), Some(3));
        assert_eq!(dag.dependents_of("R"), [0]);
        assert_eq!(dag.dependents_of("T"), [2, 1]); // tier 2 before tier 3
    }
}
