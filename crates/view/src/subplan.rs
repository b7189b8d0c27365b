//! Cross-view sharing of the first maintenance-join hop.
//!
//! When N overlapping views maintain the *same* data update ΔR in the same
//! batch, each view's SWEEP chain starts with the same shape of work: join
//! ΔR against the first target relation on the same equi-join keys — the
//! keys the PR 2 secondary indexes are built over, which is why the cache
//! key is exactly that index signature: `(updated relation, target, sorted
//! join-attribute pairs)`. A [`SharedSubplans`] cache computes that hop
//! **once per batch** at full width — the *unfiltered, unprojected* ΔR rows
//! joined to the union of every view's referenced target attributes, with
//! SWEEP compensation applied at hop level — and each view then derives its
//! own step-1 intermediate by pure Z-set algebra: `δσ` of its local and
//! target filters followed by `δπ` to its step layout.
//!
//! ## Why the derived result is bit-identical to unshared execution
//!
//! Selection commutes with join on disjoint attribute sets and projection
//! is linear over Z-sets, so
//! `π_V σ_V (ΔR ⋈ T) = π_V ((σ_R ΔR) ⋈ (σ_T T))` — the right-hand side is
//! what the unshared per-view step computes. Both sides aggregate into a
//! canonical [`ZSet`] (sorted, zero-weights cancelled), so equal
//! multisets are equal bytes. SWEEP compensation distributes the same way:
//! compensating the full-width hop then filtering equals filtering then
//! compensating, because `__D ⋈ Δⱼ` is bilinear.
//!
//! The cache lives for one maintenance batch (the hop embeds that batch's
//! pending-set compensation), so the warehouse creates a fresh instance per
//! [`crate::Warehouse`] maintain call and rolls the hit/miss counts into
//! `subplan.shared_hits` / `subplan.shared_misses`.

use std::collections::HashMap;
use std::rc::Rc;

use dyno_relational::{CmpOp, DataUpdate, RelationalError, Value, ZSet};

use dyno_obs::{OpPhase, Profiler};

use crate::engine::{DeltaCols, HopRequest, SourcePort};
use crate::plan::{HopKey, MaintPlan};
use crate::vm::{select, Compensation, MaintFailure};

/// One computed full-width hop: `ΔR ⋈ target` (compensated), no per-view
/// filters, no per-view projection. Rows are all of ΔR in its schema's
/// order, then `t_attrs`.
#[derive(Debug, Clone)]
struct Hop {
    /// Target attributes covered.
    t_attrs: Vec<String>,
    rows: ZSet,
}

/// Per-batch cache of shared first hops, keyed by the plans' [`HopKey`]
/// signatures. See the module docs.
#[derive(Debug, Default)]
pub struct SharedSubplans {
    entries: HashMap<Rc<HopKey>, Hop>,
    hits: u64,
    misses: u64,
}

impl SharedSubplans {
    /// An empty cache (one maintenance batch's lifetime).
    pub fn new() -> Self {
        SharedSubplans::default()
    }

    /// Hops served from cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Hops computed (first computation or coverage widening).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Executes (or reuses) the shared first hop of `plan` — its first
    /// step, with signature `plan.first_hop` — and derives this view's
    /// step-1 intermediate, in the exact layout the unshared step would
    /// produce (`step.d_cols_in` then the flattened `step.t_proj`).
    pub(crate) fn first_hop(
        &mut self,
        plan: &MaintPlan,
        du: &DataUpdate,
        comp: &mut Compensation<'_>,
        port: &mut dyn SourcePort,
        prof: Profiler<'_>,
    ) -> Result<ZSet, MaintFailure> {
        let step = &plan.steps[0];
        let key = plan.first_hop.as_ref().expect("a plan with a first step has its signature");
        // Everything the view names in ΔR resolves against the delta's own
        // schema, as the unshared seed does — an attribute the delta no
        // longer carries is the same schema conflict there and here.
        let schema = du.delta.schema();
        let local = || -> Result<_, RelationalError> {
            let filters = plan
                .local_filters
                .iter()
                .map(|(a, op, v)| Ok((schema.require(a)?, *op, v.clone())))
                .collect::<Result<Vec<(usize, CmpOp, Value)>, RelationalError>>()?;
            let proj =
                plan.local_proj.iter().map(|a| schema.require(a)).collect::<Result<Vec<_>, _>>()?;
            let d_keys =
                key.keys.iter().map(|(a, _)| schema.require(a)).collect::<Result<Vec<_>, _>>()?;
            Ok((filters, proj, d_keys))
        };
        let (mut filters, mut out, d_keys) =
            local().map_err(|e| MaintFailure::from_query(|| plan.local_query(), e))?;

        let covered = self
            .entries
            .get(key)
            .is_some_and(|h| step.t_proj.iter().all(|a| h.t_attrs.contains(a)));
        if covered {
            self.hits += 1;
        } else {
            // First computation, or a later view needs target attributes
            // the cached hop does not carry: (re)compute at the widened
            // attribute set so every view seen so far stays covered.
            self.misses += 1;
            let mut t_attrs: Vec<String> =
                self.entries.get(key).map(|h| h.t_attrs.clone()).unwrap_or_default();
            for a in &step.t_proj {
                if !t_attrs.contains(a) {
                    t_attrs.push(a.clone());
                }
            }
            let window = prof.start(|| du.delta.rows().distinct_len());
            let rows = compute_hop(key, &d_keys, &t_attrs, du, comp, port)?;
            let out_rows = || rows.distinct_len();
            prof.finish(window, 1, OpPhase::Hop, "first_hop_compute", &step.target, out_rows);
            self.entries.insert(Rc::clone(key), Hop { t_attrs, rows });
        }
        let hop = &self.entries[key];

        // Per-view derivation: δσ (local ΔR filters + target filters) then
        // δπ to the unshared step's output layout.
        let t_pos = |a: &String| {
            let i = hop.t_attrs.iter().position(|t| t == a);
            schema.arity() + i.expect("a covering hop carries every attribute the step projects")
        };
        filters.extend(step.t_filters.iter().map(|(a, op, v)| (t_pos(a), *op, v.clone())));
        out.extend(step.t_proj.iter().map(t_pos));
        let window = prof.start(|| hop.rows.distinct_len());
        let derived = select(&hop.rows, &filters)
            .map_err(|e| MaintFailure::from_query(|| step.query(), e))?
            .project(&out);
        let out_rows = || derived.distinct_len();
        prof.finish(window, 1, OpPhase::Hop, "first_hop_derive", &step.target, out_rows);
        port.charge_local(derived.weight());
        Ok(derived)
    }
}

/// Answers the full-width hop — all of ΔR, joined on `key` (ΔR-side
/// positions in `d_keys`), projecting `t_attrs`; no target filters, they
/// are per-view and applied in the derivation — and applies SWEEP
/// compensation at hop width.
fn compute_hop(
    key: &HopKey,
    d_keys: &[usize],
    t_attrs: &[String],
    du: &DataUpdate,
    comp: &mut Compensation<'_>,
    port: &mut dyn SourcePort,
) -> Result<ZSet, MaintFailure> {
    let join_keys: Vec<(usize, String)> =
        d_keys.iter().zip(&key.keys).map(|(&d, (_, t))| (d, t.clone())).collect();
    let hop = HopRequest {
        target: &key.target,
        join_keys: &join_keys,
        t_filters: &[],
        t_proj: t_attrs,
        d_cols: DeltaCols::Delta(du.delta.schema()),
        delta: du.delta.rows(),
    };
    comp.hop(port, &hop, Profiler::default(), 1)
}
