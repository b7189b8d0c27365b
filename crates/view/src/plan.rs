//! Cached maintenance-query plans.
//!
//! The *shape* of a SWEEP maintenance run — the local seed query, the chain
//! of `__D ⋈ target` queries, and the final projection — depends only on
//! the view definition and the updated relation, not on the delta's rows.
//! A fig08-style run maintains thousands of data updates against a view
//! that changes only when view synchronization rewrites it, so the plan is
//! computed once per (view definition, relation) and replayed from a
//! [`PlanCache`].
//!
//! Invalidation is two-layered: the view manager explicitly invalidates on
//! every schema-change batch commit (VS rewrote or revalidated the view),
//! and the cache additionally pins the *generation* of the definition it
//! planned for — a number its owner bumps whenever the definition changes.
//! If a view ever changes without an explicit invalidation, the generation
//! mismatch clears the cache rather than serving a stale plan, and a lookup
//! costs one integer compare instead of a walk over the whole definition.

use std::collections::HashMap;
use std::rc::Rc;

use dyno_obs::Collector;
use dyno_relational::{CmpOp, ColRef, Predicate, ProjItem, RelationalError, SpjQuery, Value, ZSet};

use crate::engine::{DeltaCols, HopRequest};
use crate::viewdef::ViewDefinition;
use crate::vm::flat;

/// One maintenance step: join the running intermediate `__D` with `target`
/// through the view's predicates.
///
/// A step is the *compiled* form of the paper's per-source maintenance
/// query — key positions, residual filters, and the target projection — so
/// that both the source round trip ([`MaintStep::request`] →
/// [`crate::SourcePort::hop`]) and view-manager-local work (SWEEP
/// compensation against a pending delta) run as direct Z-set algebra. The
/// `__D ⋈ target` [`SpjQuery`] itself is rendered only on demand
/// ([`MaintStep::query`]). Target-side attribute names are resolved against
/// the concrete schema at use time, which keeps the plan valid across
/// schema versions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaintStep {
    /// The view relation this step joins in.
    pub target: String,
    /// Column names of the intermediate flowing *into* this step.
    pub d_cols_in: Vec<String>,
    /// Equi-join keys: position in `d_cols_in` ↔ target attribute name.
    pub join_keys: Vec<(usize, String)>,
    /// Residual constant filters on the target (attribute, op, literal).
    pub t_filters: Vec<(String, CmpOp, Value)>,
    /// Target attributes the view references, in step-projection order
    /// (the step output is all of `d_cols_in` followed by these).
    pub t_proj: Vec<String>,
}

impl MaintStep {
    /// This step's hop over the intermediate `delta`.
    pub fn request<'a>(&'a self, delta: &'a ZSet) -> HopRequest<'a> {
        HopRequest {
            target: &self.target,
            join_keys: &self.join_keys,
            t_filters: &self.t_filters,
            t_proj: &self.t_proj,
            d_cols: DeltaCols::Named(&self.d_cols_in),
            delta,
        }
    }

    /// The step as the `__D ⋈ target` query a generic source would be sent.
    pub fn query(&self) -> SpjQuery {
        self.request(&ZSet::new()).query()
    }
}

/// The shared-join signature of a plan's first hop: two views share the hop
/// iff they join the same updated relation to the same target over the same
/// attribute pairs — the signature the secondary indexes key on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct HopKey {
    pub(crate) relation: String,
    pub(crate) target: String,
    /// Sorted `(ΔR attribute, target attribute)` equi-join pairs.
    pub(crate) keys: Vec<(String, String)>,
}

/// The full per-relation maintenance plan for a view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaintPlan {
    /// The updated relation this plan maintains.
    pub relation: String,
    /// Step 0: constant filters on the updated relation (attribute, op,
    /// literal), applied with executor semantics.
    pub local_filters: Vec<(String, CmpOp, Value)>,
    /// Step 0: referenced attributes of the updated relation, in
    /// seed-projection order.
    pub local_proj: Vec<String>,
    /// The `__D ⋈ target` chain, in join order.
    pub steps: Vec<MaintStep>,
    /// Projection from the final intermediate to the view's SELECT list.
    pub final_indices: Vec<usize>,
    /// The view's output column names.
    pub out_cols: Vec<String>,
    /// `steps[0]`'s cross-view sharing signature (`None` without steps).
    pub(crate) first_hop: Option<Rc<HopKey>>,
}

impl MaintPlan {
    /// Plans maintenance of an update to `relation` against `view`. The
    /// relation must be referenced by the view.
    pub fn build(view: &ViewDefinition, relation: &str) -> Result<MaintPlan, RelationalError> {
        MaintPlan::for_query(&view.query, relation)
    }

    /// [`MaintPlan::build`] from the defining query alone — a plan depends
    /// on nothing else of the view.
    pub fn for_query(query: &SpjQuery, relation: &str) -> Result<MaintPlan, RelationalError> {
        // Every column the view uses, borrowed and sorted: the name order the
        // per-relation ranges below (and the executor's validation) walk
        // them in. Columns are matched as `ColRef`s throughout; the
        // flattened `R.a` spelling is formatted only where a step keeps it.
        let mut all_refs: Vec<&ColRef> = query.projection.iter().map(|p| &p.col).collect();
        for p in &query.predicates {
            match p {
                Predicate::JoinEq(a, b) => all_refs.extend([a, b]),
                Predicate::Compare(c, ..) => all_refs.push(c),
            }
        }
        all_refs.sort_unstable();
        all_refs.dedup();
        // The range of `all_refs` holding relation `r`'s columns.
        let cols_of = |r: &str| {
            let start = all_refs.partition_point(|c| c.relation.as_str() < r);
            let len = all_refs[start..].partition_point(|c| c.relation == r);
            start..start + len
        };

        // Step 0: local projection/selection of the delta itself.
        let local_filters: Vec<(String, CmpOp, Value)> = query
            .predicates
            .iter()
            .filter_map(|p| match p {
                Predicate::Compare(c, op, v) if c.relation == relation => {
                    Some((c.attr.clone(), *op, v.clone()))
                }
                _ => None,
            })
            .collect();
        // The running intermediate's columns, and their flattened names —
        // formatted once each, copied into every step that keeps them.
        let mut d_cols: Vec<&ColRef> = all_refs[cols_of(relation)].to_vec();
        let mut d_names: Vec<String> = d_cols.iter().map(|c| flat(c)).collect();
        let local_proj: Vec<String> = d_cols.iter().map(|c| c.attr.clone()).collect();
        let mut joined: Vec<&str> = vec![relation];

        // Join order: repeatedly pick a not-yet-joined view relation
        // connected to the current intermediate by an equi-join predicate.
        let mut remaining: Vec<&str> =
            query.tables.iter().map(String::as_str).filter(|t| *t != relation).collect();
        let mut steps = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            let next_pos = remaining
                .iter()
                .position(|t| {
                    query.predicates.iter().any(|p| match p {
                        Predicate::JoinEq(a, b) => {
                            (a.relation == *t && joined.contains(&b.relation.as_str()))
                                || (b.relation == *t && joined.contains(&a.relation.as_str()))
                        }
                        _ => false,
                    })
                })
                .unwrap_or(0);
            let target = remaining.remove(next_pos);

            // The hop: __D ⋈ target through the view's join and filter
            // predicates, emitting __D plus target's referenced columns.
            let mut join_keys: Vec<(usize, String)> = Vec::new();
            let mut t_filters: Vec<(String, CmpOp, Value)> = Vec::new();
            for p in &query.predicates {
                match p {
                    Predicate::JoinEq(a, b) => {
                        let (d_side, t_side) = if a.relation == target
                            && joined.contains(&b.relation.as_str())
                        {
                            (b, a)
                        } else if b.relation == target && joined.contains(&a.relation.as_str()) {
                            (a, b)
                        } else {
                            continue;
                        };
                        let d_pos = d_cols.iter().position(|c| *c == d_side).ok_or_else(|| {
                            RelationalError::InvalidQuery {
                                reason: format!("join column {d_side} missing from intermediate"),
                            }
                        })?;
                        join_keys.push((d_pos, t_side.attr.clone()));
                    }
                    Predicate::Compare(c, op, v) if c.relation == target => {
                        t_filters.push((c.attr.clone(), *op, v.clone()));
                    }
                    Predicate::Compare(..) => {}
                }
            }

            let width = d_cols.len();
            d_cols.extend_from_slice(&all_refs[cols_of(target)]);
            let d_cols_in = d_names.clone();
            d_names.extend(d_cols[width..].iter().map(|c| flat(c)));
            steps.push(MaintStep {
                target: target.to_string(),
                d_cols_in,
                join_keys,
                t_filters,
                t_proj: d_cols[width..].iter().map(|c| c.attr.clone()).collect(),
            });
            joined.push(target);
        }

        // Final projection to the view's SELECT list.
        let final_indices: Vec<usize> = query
            .projection
            .iter()
            .map(|item| {
                d_cols.iter().position(|c| **c == item.col).ok_or_else(|| {
                    RelationalError::InvalidQuery {
                        reason: format!("column {} missing from maintenance result", item.col),
                    }
                })
            })
            .collect::<Result<_, _>>()?;

        // `steps[0].d_cols_in[pos]` is the flattened `local_proj[pos]`, so
        // the first hop's keys name ΔR attributes directly.
        let first_hop = steps.first().map(|step| {
            let mut keys: Vec<(String, String)> = step
                .join_keys
                .iter()
                .map(|(pos, t_attr)| (local_proj[*pos].clone(), t_attr.clone()))
                .collect();
            keys.sort();
            Rc::new(HopKey { relation: relation.to_string(), target: step.target.clone(), keys })
        });

        Ok(MaintPlan {
            relation: relation.to_string(),
            local_filters,
            local_proj,
            steps,
            final_indices,
            out_cols: query.projection.iter().map(|p| p.output.clone()).collect(),
            first_hop,
        })
    }

    /// Step 0 as the query a generic executor would run over the delta:
    /// the local selection and (flattened) projection.
    pub fn local_query(&self) -> SpjQuery {
        let col = |a: &String| ColRef::new(self.relation.clone(), a.clone());
        SpjQuery {
            tables: vec![self.relation.clone()],
            projection: self
                .local_proj
                .iter()
                .map(|a| ProjItem::aliased(col(a), flat(&col(a))))
                .collect(),
            predicates: self
                .local_filters
                .iter()
                .map(|(a, op, v)| Predicate::Compare(col(a), *op, v.clone()))
                .collect(),
        }
    }
}

/// Per-view cache of [`MaintPlan`]s, keyed by updated relation and pinned
/// to the generation of the view definition they were planned for.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    pinned: Option<u64>,
    plans: HashMap<String, Rc<MaintPlan>>,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True iff no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Explicit invalidation: a schema-change batch committed, so VS has
    /// rewritten (or at least revalidated) the view under `schema_changes`
    /// source schema changes. Counts one invalidation per schema change —
    /// the granularity the fig10 trace check asserts against.
    pub fn invalidate(&mut self, schema_changes: u64, obs: &Collector) {
        if schema_changes == 0 {
            return;
        }
        self.plans.clear();
        self.pinned = None;
        obs.counter("plan.cache_invalidations").add(schema_changes);
    }

    /// The plan maintaining `relation` against `view`, whose definition is
    /// at `generation` (its owner bumps the number whenever the definition
    /// changes): cached when the pinned generation is still `generation`,
    /// rebuilt (and counted as a miss) otherwise.
    pub fn plan_for(
        &mut self,
        view: &ViewDefinition,
        generation: u64,
        relation: &str,
        obs: &Collector,
    ) -> Result<Rc<MaintPlan>, RelationalError> {
        if self.pinned != Some(generation) {
            if self.pinned.is_some() {
                // The view changed without an explicit invalidation — the
                // pinned-generation safety net catches it.
                obs.counter("plan.cache_invalidations").inc();
            }
            self.plans.clear();
            self.pinned = Some(generation);
        }
        if let Some(plan) = self.plans.get(relation) {
            obs.counter("plan.cache_hits").inc();
            return Ok(Rc::clone(plan));
        }
        obs.counter("plan.cache_misses").inc();
        let plan = Rc::new(MaintPlan::build(view, relation)?);
        self.plans.insert(relation.to_string(), Rc::clone(&plan));
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::bookinfo_view;
    use dyno_obs::Collector;

    #[test]
    fn plan_is_cached_per_relation() {
        let obs = Collector::wall();
        let mut cache = PlanCache::new();
        let view = bookinfo_view();
        let p1 = cache.plan_for(&view, 0, "Item", &obs).unwrap();
        let p2 = cache.plan_for(&view, 0, "Item", &obs).unwrap();
        assert!(Rc::ptr_eq(&p1, &p2));
        cache.plan_for(&view, 0, "Catalog", &obs).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(obs.registry().counter_value("plan.cache_hits"), Some(1));
        assert_eq!(obs.registry().counter_value("plan.cache_misses"), Some(2));
    }

    #[test]
    fn explicit_invalidation_clears_and_counts() {
        let obs = Collector::wall();
        let mut cache = PlanCache::new();
        let view = bookinfo_view();
        cache.plan_for(&view, 0, "Item", &obs).unwrap();
        cache.invalidate(3, &obs);
        assert!(cache.is_empty());
        assert_eq!(obs.registry().counter_value("plan.cache_invalidations"), Some(3));
        // Re-planning after invalidation is a miss, not a hit.
        cache.plan_for(&view, 1, "Item", &obs).unwrap();
        assert_eq!(obs.registry().counter_value("plan.cache_hits"), None);
    }

    #[test]
    fn fingerprint_mismatch_is_a_safety_net() {
        let obs = Collector::wall();
        let mut cache = PlanCache::new();
        let view = bookinfo_view();
        cache.plan_for(&view, 0, "Item", &obs).unwrap();
        let mut renamed = view.clone();
        renamed.name = "other_view".into();
        // The owner bumped the generation with the rename.
        cache.plan_for(&renamed, 1, "Item", &obs).unwrap();
        assert_eq!(obs.registry().counter_value("plan.cache_invalidations"), Some(1));
        assert_eq!(cache.len(), 1, "plans for the old definition are gone");
    }

    #[test]
    fn plan_join_order_matches_sweep_expectations() {
        let view = bookinfo_view();
        let plan = MaintPlan::build(&view, "Item").unwrap();
        assert_eq!(plan.steps.len(), view.query.tables.len() - 1);
        for step in &plan.steps {
            let query = step.query();
            assert_eq!(query.tables, [crate::vm::D, step.target.as_str()]);
            assert!(
                query.predicates.iter().any(|p| matches!(p, Predicate::JoinEq(..))),
                "each step joins through at least one equi-join key"
            );
        }
        assert_eq!(plan.out_cols, view.output_cols());
    }
}
