//! Dependency-graph construction (paper Section 4.1.1).
//!
//! Nodes are the entries of the Update Message Queue in their current
//! processing order. An entry is usually a single update, but a previous
//! correction pass may have merged several updates into an atomic batch; a
//! batch node behaves like the union of its members.
//!
//! Edges:
//! - **Concurrent** — for every node `Y` containing a view-invalidating
//!   schema change, every other node `X` gets `M(X) cd← M(Y)` (every
//!   maintenance reads the view definition that `M(Y)` rewrites). This is
//!   the `O(m·n)` pass, `m` = number of schema changes.
//! - **Semantic** — per source, adjacent nodes containing that source's
//!   updates are chained `M(later) sd← M(earlier)` — the `O(n)` bucketed
//!   pass.

use std::collections::{BTreeMap, BTreeSet};

use dyno_obs::{field, Collector, Level};

use crate::dependency::{DepKind, Dependency};
use crate::meta::{SourceKey, UpdateMeta};

/// A dependency graph over queue nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepGraph {
    node_count: usize,
    deps: Vec<Dependency>,
}

impl DepGraph {
    /// Builds the graph from the queue's node snapshot. Each element of
    /// `nodes` is one queue entry (a batch of one or more updates in commit
    /// order).
    ///
    /// ```
    /// use dyno_core::{DepGraph, UpdateKind, UpdateMeta};
    ///
    /// // A data update queued before a view-invalidating schema change:
    /// let du = vec![UpdateMeta::new(0, 0, UpdateKind::Data, "du")];
    /// let sc = vec![UpdateMeta::new(
    ///     1, 1, UpdateKind::Schema { invalidates_view: true }, "sc",
    /// )];
    /// let graph = DepGraph::build(&[&du, &sc]);
    /// // M(du) cd← M(sc) points forward in the queue: unsafe (Def. 6).
    /// assert!(!graph.order_is_legal());
    /// assert_eq!(graph.unsafe_dependencies().count(), 1);
    /// ```
    pub fn build<P>(nodes: &[&[UpdateMeta<P>]]) -> DepGraph {
        let n = nodes.len();
        let mut deps: BTreeSet<(usize, usize, DepKind)> = BTreeSet::new();

        // Concurrent dependencies: O(m·n).
        for (j, node) in nodes.iter().enumerate() {
            if node.iter().any(|u| u.kind.writes_view_definition()) {
                for i in 0..n {
                    if i != j {
                        deps.insert((i, j, DepKind::Concurrent));
                    }
                }
            }
        }

        // Semantic dependencies: one bucket per source, O(n) scan.
        let mut buckets: BTreeMap<SourceKey, Vec<usize>> = BTreeMap::new();
        for (i, node) in nodes.iter().enumerate() {
            let mut seen: BTreeSet<SourceKey> = BTreeSet::new();
            for u in node.iter() {
                if seen.insert(u.source) {
                    buckets.entry(u.source).or_default().push(i);
                }
            }
        }
        for positions in buckets.values() {
            for w in positions.windows(2) {
                deps.insert((w[1], w[0], DepKind::Semantic));
            }
        }

        DepGraph {
            node_count: n,
            deps: deps
                .into_iter()
                .map(|(dependent, prerequisite, kind)| Dependency { dependent, prerequisite, kind })
                .collect(),
        }
    }

    /// [`DepGraph::build`] wrapped in a `graph.build` span, reporting edge
    /// counts and the unsafe-order verdict to `obs`. The scheduler calls
    /// this; direct callers that don't observe keep using `build`.
    pub fn build_observed<P>(nodes: &[&[UpdateMeta<P>]], obs: &Collector) -> DepGraph {
        let _span = obs.span("graph.build", &[field("nodes", nodes.len())]);
        let graph = DepGraph::build(nodes);
        let (cd, sd) = graph.edge_counts();
        obs.counter("graph.builds").inc();
        obs.counter("graph.cd_edges").add(cd as u64);
        obs.counter("graph.sd_edges").add(sd as u64);
        obs.event(
            Level::Debug,
            "graph.built",
            &[
                field("nodes", nodes.len()),
                field("cd_edges", cd),
                field("sd_edges", sd),
                field("order_is_legal", graph.order_is_legal()),
            ],
        );
        if obs.capturing(dyno_obs::Capture::PROV) {
            graph.record_conflicts(nodes, obs);
        }
        graph
    }

    /// Emits one `conflict` provenance record per member of the dependent
    /// node of every unsafe edge, tagged with the paper's anomaly class:
    /// 1 = same-source DU ordering (SD between data updates), 2 = semantic
    /// dependency involving a schema change, 3 = concurrent DU/SC conflict,
    /// 4 = mutual concurrent conflict (the SC↔SC cycle of Section 3.5).
    fn record_conflicts<P>(&self, nodes: &[&[UpdateMeta<P>]], obs: &Collector) {
        let cd_pairs: BTreeSet<(usize, usize)> = self
            .deps
            .iter()
            .filter(|d| d.kind == DepKind::Concurrent)
            .map(|d| (d.dependent, d.prerequisite))
            .collect();
        for d in self.unsafe_dependencies() {
            let class: u64 = match d.kind {
                DepKind::Concurrent => {
                    if cd_pairs.contains(&(d.prerequisite, d.dependent)) {
                        4
                    } else {
                        3
                    }
                }
                DepKind::Semantic => {
                    let any_sc = nodes[d.dependent]
                        .iter()
                        .chain(nodes[d.prerequisite].iter())
                        .any(|u| u.kind.is_schema_change());
                    if any_sc {
                        2
                    } else {
                        1
                    }
                }
                // Cross-replica conflicts never enter the intra-warehouse
                // queue graph (they are detected at the peer-ingest path),
                // but the class is numbered for forensics continuity.
                DepKind::Replica => 5,
            };
            let with = nodes[d.prerequisite].first().map_or(0, |u| u.key.0);
            let kind = match d.kind {
                DepKind::Concurrent => "CD",
                DepKind::Semantic => "SD",
                DepKind::Replica => "RD",
            };
            for u in nodes[d.dependent] {
                obs.prov(
                    u.key.0,
                    dyno_obs::stage::CONFLICT,
                    &[field("with", with), field("class", class), field("kind", kind)],
                );
            }
        }
    }

    /// `(concurrent, semantic)` edge counts.
    pub fn edge_counts(&self) -> (usize, usize) {
        let cd = self.deps.iter().filter(|d| d.kind == DepKind::Concurrent).count();
        (cd, self.deps.len() - cd)
    }

    /// Builds a graph from explicit dependencies (for tests, benchmarks and
    /// worked examples over abstract graphs, e.g. paper Figure 5).
    pub fn from_edges(node_count: usize, deps: Vec<Dependency>) -> DepGraph {
        for d in &deps {
            assert!(
                d.dependent < node_count && d.prerequisite < node_count,
                "dependency references node out of range"
            );
        }
        DepGraph { node_count, deps }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// All dependencies.
    pub fn dependencies(&self) -> &[Dependency] {
        &self.deps
    }

    /// The dependencies violated by the current (index) order — Definition 6
    /// unsafe dependencies.
    pub fn unsafe_dependencies(&self) -> impl Iterator<Item = &Dependency> {
        self.deps.iter().filter(|d| d.is_unsafe())
    }

    /// True iff the current order is already *legal* (Definition 7).
    pub fn order_is_legal(&self) -> bool {
        self.unsafe_dependencies().next().is_none()
    }

    /// Renders the graph in Graphviz DOT format, `labels(i)` naming node
    /// `i`. Concurrent dependencies are solid red edges, semantic ones
    /// dashed blue; unsafe edges are bold. Arrows point from dependent to
    /// prerequisite ("must run first").
    pub fn to_dot(&self, labels: impl Fn(usize) -> String) -> String {
        let mut out = String::from("digraph dependencies {\n  rankdir=LR;\n");
        for i in 0..self.node_count {
            out.push_str(&format!("  n{i} [label=\"{}\"];\n", labels(i)));
        }
        for d in &self.deps {
            let (color, style) = match d.kind {
                DepKind::Concurrent => ("red", "solid"),
                DepKind::Semantic => ("blue", "dashed"),
                DepKind::Replica => ("purple", "dotted"),
            };
            let penwidth = if d.is_unsafe() { 2.5 } else { 1.0 };
            out.push_str(&format!(
                "  n{} -> n{} [label=\"{}\", color={color}, style={style}, penwidth={penwidth}];\n",
                d.dependent, d.prerequisite, d.kind
            ));
        }
        out.push_str("}\n");
        out
    }

    /// Adjacency in "dependent → prerequisite" direction, for SCC/topo
    /// algorithms: `adj[i]` lists the nodes `i` depends on.
    pub fn prerequisite_adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.node_count];
        for d in &self.deps {
            adj[d.dependent].push(d.prerequisite);
        }
        adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::UpdateKind;

    type M = UpdateMeta<()>;

    fn du(key: u64, source: u32) -> M {
        UpdateMeta::new(key, source, UpdateKind::Data, ())
    }

    fn sc(key: u64, source: u32, invalidates: bool) -> M {
        UpdateMeta::new(key, source, UpdateKind::Schema { invalidates_view: invalidates }, ())
    }

    fn graph_of(nodes: &[Vec<M>]) -> DepGraph {
        let views: Vec<&[M]> = nodes.iter().map(|v| v.as_slice()).collect();
        DepGraph::build(&views)
    }

    #[test]
    fn data_updates_only_chain_semantically() {
        let g = graph_of(&[vec![du(0, 0)], vec![du(1, 0)], vec![du(2, 1)]]);
        assert_eq!(g.dependencies().len(), 1);
        let d = g.dependencies()[0];
        assert_eq!((d.dependent, d.prerequisite, d.kind), (1, 0, DepKind::Semantic));
        assert!(g.order_is_legal(), "commit-order DUs are already safe");
    }

    #[test]
    fn view_invalidating_sc_gets_edges_from_everyone() {
        // DU, then SC (view-relevant) on a different source.
        let g = graph_of(&[vec![du(0, 0)], vec![sc(1, 1, true)]]);
        let cds: Vec<_> =
            g.dependencies().iter().filter(|d| d.kind == DepKind::Concurrent).collect();
        assert_eq!(cds.len(), 1);
        assert_eq!((cds[0].dependent, cds[0].prerequisite), (0, 1));
        assert!(!g.order_is_legal(), "DU before its invalidating SC is unsafe");
    }

    #[test]
    fn irrelevant_sc_draws_no_cd() {
        let g = graph_of(&[vec![du(0, 0)], vec![sc(1, 1, false)]]);
        assert!(g.dependencies().iter().all(|d| d.kind == DepKind::Semantic));
        assert!(g.order_is_legal());
    }

    #[test]
    fn two_relevant_scs_form_cycle() {
        // Paper Section 3.5: SC1 and SC2 both invalidate the view → mutual CD.
        let g = graph_of(&[vec![sc(0, 0, true)], vec![sc(1, 1, true)]]);
        let pairs: BTreeSet<(usize, usize)> = g
            .dependencies()
            .iter()
            .filter(|d| d.kind == DepKind::Concurrent)
            .map(|d| (d.dependent, d.prerequisite))
            .collect();
        assert!(pairs.contains(&(0, 1)) && pairs.contains(&(1, 0)));
    }

    #[test]
    fn figure4_scenario() {
        // DU1 (source 1), SC1 (source 0, relevant), SC2 (source 1, relevant).
        let g = graph_of(&[vec![du(0, 1)], vec![sc(1, 0, true)], vec![sc(2, 1, true)]]);
        // Semantic: node2 (SC2) depends on node0 (DU1) — same source chain.
        assert!(g.dependencies().contains(&Dependency {
            dependent: 2,
            prerequisite: 0,
            kind: DepKind::Semantic
        }));
        // Concurrent: everyone depends on SC1 and SC2.
        assert!(g.dependencies().contains(&Dependency {
            dependent: 0,
            prerequisite: 1,
            kind: DepKind::Concurrent
        }));
        assert!(g.dependencies().contains(&Dependency {
            dependent: 1,
            prerequisite: 2,
            kind: DepKind::Concurrent
        }));
        assert!(g.dependencies().contains(&Dependency {
            dependent: 2,
            prerequisite: 1,
            kind: DepKind::Concurrent
        }));
        assert!(!g.order_is_legal());
    }

    #[test]
    fn batch_nodes_act_as_unions() {
        // A batch containing an invalidating SC is a CD prerequisite; its
        // sources all participate in semantic chains.
        let g = graph_of(&[vec![du(0, 0)], vec![sc(1, 1, true), du(2, 0)]]);
        assert!(g.dependencies().contains(&Dependency {
            dependent: 0,
            prerequisite: 1,
            kind: DepKind::Concurrent
        }));
        assert!(g.dependencies().contains(&Dependency {
            dependent: 1,
            prerequisite: 0,
            kind: DepKind::Semantic
        }));
    }

    #[test]
    fn dot_export_shape() {
        let g = graph_of(&[vec![du(0, 0)], vec![sc(1, 0, true)]]);
        let dot = g.to_dot(|i| format!("u{i}"));
        assert!(dot.starts_with("digraph dependencies {"));
        assert!(dot.contains("n0 [label=\"u0\"]"));
        assert!(dot.contains("n0 -> n1"), "CD edge: DU depends on SC");
        assert!(dot.contains("n1 -> n0"), "SD edge: SC depends on DU");
        assert!(dot.contains("color=red") && dot.contains("color=blue"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn complexity_shape_edge_counts() {
        // 3 relevant SCs + 7 DUs on distinct sources: CD edges = m*(n-1).
        let mut nodes: Vec<Vec<M>> = Vec::new();
        for k in 0..7 {
            nodes.push(vec![du(k, k as u32 + 10)]);
        }
        for k in 0..3 {
            nodes.push(vec![sc(100 + k, k as u32 + 50, true)]);
        }
        let g = graph_of(&nodes);
        let cd = g.dependencies().iter().filter(|d| d.kind == DepKind::Concurrent).count();
        assert_eq!(cd, 3 * 9);
    }
}
