//! Tuples (rows) and weighted sets ([`ZSet`]s) of tuples.
//!
//! The [`ZSet`] here is the DBSP-style weighted multiset: a map from row to
//! a non-zero signed weight, ordered by row. It is the single carrier type
//! for relations (non-negative weights), deltas (arbitrary signs), and
//! every intermediate of incremental maintenance, which keeps the algebra
//! `(R + Δ) ⋈ S = R ⋈ S + Δ ⋈ S` uniform across the whole engine.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::RelationalError;
use crate::schema::Schema;
use crate::value::Value;

/// A row: an ordered sequence of values matching some schema's attributes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple(Vec<Value>);

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple(values)
    }

    /// Builds a tuple from anything convertible into values.
    pub fn of<V: Into<Value>, I: IntoIterator<Item = V>>(values: I) -> Self {
        Tuple(values.into_iter().map(Into::into).collect())
    }

    /// The values.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The value at `idx`.
    pub fn get(&self, idx: usize) -> &Value {
        &self.0[idx]
    }

    /// A new tuple containing the fields at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple(indices.iter().map(|&i| self.0[i].clone()).collect())
    }

    /// Concatenation of `self` and `other` (used by joins).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.0.len() + other.0.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Tuple(v)
    }

    /// Checks that this tuple's values are compatible with `schema`
    /// (matching arity; each non-NULL value matching the attribute type).
    pub fn check_against(&self, schema: &Schema) -> Result<(), RelationalError> {
        if self.arity() != schema.arity() {
            return Err(RelationalError::ArityMismatch {
                relation: schema.relation.clone(),
                expected: schema.arity(),
                got: self.arity(),
            });
        }
        for (v, a) in self.0.iter().zip(schema.attrs()) {
            if let Some(ty) = v.runtime_type() {
                if ty != a.ty {
                    return Err(RelationalError::TypeMismatch {
                        relation: schema.relation.clone(),
                        attr: a.name.clone(),
                        expected: a.ty,
                        got: ty,
                    });
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// A weighted set (Z-set) of tuples: each tuple maps to a **non-zero**
/// signed weight. Positive weights represent presence (or insertions in a
/// delta); negative weights represent deletions.
///
/// Two invariants hold on every mutation path (`add`, `merge`, `negated`,
/// `diff`, `project`, `retain`-style clamping, `FromIterator`):
///
/// * **Zero-weight cancellation** — an entry whose weight reaches zero is
///   removed immediately, so equality of Z-sets is equality of the
///   mathematical objects and `distinct_len`/`is_empty` never count
///   phantom rows.
/// * **Deterministic order** — entries are stored sorted by tuple, so
///   [`ZSet::iter`] (and anything derived from it: `Debug`, wire encoding,
///   replay) is byte-stable across runs and independent of insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ZSet {
    weights: BTreeMap<Tuple, i64>,
}

/// Distinct rows from which [`ZSet::project`] bulk-builds its output.
/// Measured: for the one- and two-row deltas SWEEP projects per view,
/// row-by-row insertion is ≈ 13 ns cheaper (no vector); the two are level to
/// a few dozen rows; from 32 rows the bulk build is ≥ 20 % faster, and on a
/// 2 000-row extent in key order (the `fetch_extent/2000x4` bench row) 3.5×.
const BULK_PROJECT_MIN: usize = 32;

impl ZSet {
    /// Empty set.
    pub fn new() -> Self {
        ZSet::default()
    }

    /// Adds `count` occurrences of `tuple`, removing the entry if the total
    /// reaches zero. Returns the new weight.
    pub fn add(&mut self, tuple: Tuple, count: i64) -> i64 {
        if count == 0 {
            return self.count(&tuple);
        }
        use std::collections::btree_map::Entry;
        match self.weights.entry(tuple) {
            Entry::Occupied(mut e) => {
                let c = e.get_mut();
                *c += count;
                if *c == 0 {
                    e.remove();
                    0
                } else {
                    *c
                }
            }
            Entry::Vacant(e) => {
                e.insert(count);
                count
            }
        }
    }

    /// Weight of `tuple` (zero if absent).
    pub fn count(&self, tuple: &Tuple) -> i64 {
        self.weights.get(tuple).copied().unwrap_or(0)
    }

    /// Number of distinct tuples.
    pub fn distinct_len(&self) -> usize {
        self.weights.len()
    }

    /// Sum of absolute weights (the "size" of the set as a workload).
    pub fn weight(&self) -> u64 {
        self.weights.values().map(|c| c.unsigned_abs()).sum()
    }

    /// Sum of signed weights.
    pub fn net(&self) -> i64 {
        self.weights.values().sum()
    }

    /// True iff no tuples are present.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// True iff every weight is positive.
    pub fn is_non_negative(&self) -> bool {
        self.weights.values().all(|&c| c > 0)
    }

    /// Drops every entry with a negative weight, returning the total
    /// magnitude removed (0 when the set was already non-negative). Used by
    /// knowingly-lossy consumers — a view maintained under admission
    /// shedding can receive deletes for rows it never applied.
    pub fn clamp_non_negative(&mut self) -> u64 {
        let mut clamped = 0u64;
        self.weights.retain(|_, c| {
            if *c < 0 {
                clamped += c.unsigned_abs();
                false
            } else {
                true
            }
        });
        clamped
    }

    /// Iterates over `(tuple, weight)` pairs in sorted tuple order — the
    /// deterministic-replay guarantee: two equal Z-sets iterate
    /// identically regardless of how they were built.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.weights.iter().map(|(t, &c)| (t, c))
    }

    /// Adds every entry of `other` into `self` (Z-set addition).
    pub fn merge(&mut self, other: &ZSet) {
        for (t, c) in other.iter() {
            self.add(t.clone(), c);
        }
    }

    /// Subtracts every entry of `other` from `self` in place — the fused
    /// form of `merge(&other.negated())`, without materializing the
    /// negation.
    pub fn merge_negated(&mut self, other: &ZSet) {
        for (t, c) in other.iter() {
            self.add(t.clone(), -c);
        }
    }

    /// The set with all weights negated. Negation maps non-zero to
    /// non-zero, so cancellation holds by construction.
    pub fn negated(&self) -> ZSet {
        ZSet { weights: self.weights.iter().map(|(t, c)| (t.clone(), -c)).collect() }
    }

    /// `self − other` as a new set.
    pub fn diff(&self, other: &ZSet) -> ZSet {
        let mut out = self.clone();
        out.merge_negated(other);
        out
    }

    /// Projects every tuple onto `indices`, combining weights (entries
    /// whose projections collide and cancel disappear).
    ///
    /// A large input — a fetched extent — is projected into one vector,
    /// sorted, combined and bulk-loaded, instead of paying a tree descent
    /// and a possible node split per row; a projection that keeps the sort
    /// order (a leading-columns projection of the key) then sorts in one
    /// linear pass.
    pub fn project(&self, indices: &[usize]) -> ZSet {
        if self.weights.len() < BULK_PROJECT_MIN {
            let mut out = ZSet::new();
            for (t, c) in self.iter() {
                out.add(t.project(indices), c);
            }
            return out;
        }
        let mut rows: Vec<(Tuple, i64)> =
            self.iter().map(|(t, c)| (t.project(indices), c)).collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        // `dedup_by` hands over (later, kept): fold the later weight in.
        rows.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        rows.retain(|&(_, c)| c != 0);
        ZSet { weights: rows.into_iter().collect() }
    }

    /// The distinct (set) image: every tuple with positive weight maps to
    /// weight 1; non-positive entries vanish. This is DBSP's `distinct`
    /// operator on a state (not on a delta — see
    /// [`crate::exec::distinct_delta`] for the incremental form).
    pub fn distinct(&self) -> ZSet {
        ZSet {
            weights: self
                .weights
                .iter()
                .filter(|(_, &c)| c > 0)
                .map(|(t, _)| (t.clone(), 1))
                .collect(),
        }
    }

    /// Tuples in deterministic (sorted) order. Iteration is already
    /// sorted, so this is a plain copy-out — kept for display, tests, and
    /// the wire encoding.
    pub fn sorted_entries(&self) -> Vec<(Tuple, i64)> {
        self.weights.iter().map(|(t, &c)| (t.clone(), c)).collect()
    }
}

impl FromIterator<(Tuple, i64)> for ZSet {
    fn from_iter<I: IntoIterator<Item = (Tuple, i64)>>(iter: I) -> Self {
        let mut bag = ZSet::new();
        for (t, c) in iter {
            bag.add(t, c);
        }
        bag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Tuple {
        Tuple::of(vals.iter().copied())
    }

    #[test]
    fn add_and_cancel() {
        let mut b = ZSet::new();
        b.add(t(&[1]), 2);
        b.add(t(&[1]), -2);
        assert!(b.is_empty());
        assert_eq!(b.count(&t(&[1])), 0);
    }

    #[test]
    fn merge_and_diff_are_inverse() {
        let a: ZSet = [(t(&[1]), 2), (t(&[2]), -1)].into_iter().collect();
        let b: ZSet = [(t(&[1]), 1), (t(&[3]), 4)].into_iter().collect();
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.diff(&b), a);
    }

    #[test]
    fn merge_cancellation_leaves_no_zero_entries() {
        // The type invariant: merging a set with its own negation yields
        // the canonical empty set — no zero-weight residue that would
        // corrupt distinct_len or equality.
        let a: ZSet = [(t(&[1]), 2), (t(&[2]), -3), (t(&[3]), 1)].into_iter().collect();
        let mut m = a.clone();
        m.merge(&a.negated());
        assert!(m.is_empty());
        assert_eq!(m.distinct_len(), 0);
        assert_eq!(m, ZSet::new());

        let mut n = a.clone();
        n.merge_negated(&a);
        assert!(n.is_empty());
    }

    #[test]
    fn diff_cancellation_leaves_no_zero_entries() {
        let a: ZSet = [(t(&[1]), 2), (t(&[2]), -1)].into_iter().collect();
        let d = a.diff(&a);
        assert!(d.is_empty());
        assert_eq!(d.distinct_len(), 0);
        // Partial cancellation: only the surviving entry remains.
        let b: ZSet = [(t(&[1]), 2)].into_iter().collect();
        let d2 = a.diff(&b);
        assert_eq!(d2.distinct_len(), 1);
        assert_eq!(d2.count(&t(&[2])), -1);
        assert_eq!(d2.count(&t(&[1])), 0);
    }

    #[test]
    fn negated_is_an_involution_without_residue() {
        let a: ZSet = [(t(&[1]), 5), (t(&[2]), -7)].into_iter().collect();
        let n = a.negated();
        assert_eq!(n.count(&t(&[1])), -5);
        assert_eq!(n.count(&t(&[2])), 7);
        assert_eq!(n.distinct_len(), 2);
        assert_eq!(n.negated(), a);
    }

    #[test]
    fn iteration_is_sorted_and_insertion_order_independent() {
        let fwd: ZSet = (0..100).map(|i| (t(&[i]), 1)).collect();
        let rev: ZSet = (0..100).rev().map(|i| (t(&[i]), 1)).collect();
        assert_eq!(fwd, rev);
        let order: Vec<_> = fwd.iter().map(|(tp, _)| tp.clone()).collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted, "iter() yields tuples in sorted order");
        // Debug formatting (BTreeMap) is therefore byte-stable too.
        assert_eq!(format!("{fwd:?}"), format!("{rev:?}"));
    }

    #[test]
    fn weight_and_net() {
        let a: ZSet = [(t(&[1]), 2), (t(&[2]), -3)].into_iter().collect();
        assert_eq!(a.weight(), 5);
        assert_eq!(a.net(), -1);
        assert!(!a.is_non_negative());
    }

    #[test]
    fn projection_combines_counts() {
        let a: ZSet = [(Tuple::of([1, 10]), 1), (Tuple::of([1, 20]), 2)].into_iter().collect();
        let p = a.project(&[0]);
        assert_eq!(p.count(&t(&[1])), 3);
    }

    #[test]
    fn projection_cancellation_removes_colliding_entries() {
        let a: ZSet = [(Tuple::of([1, 10]), 2), (Tuple::of([1, 20]), -2)].into_iter().collect();
        let p = a.project(&[0]);
        assert!(p.is_empty(), "collapsing projections that cancel must vanish");
    }

    #[test]
    fn bulk_projection_equals_row_by_row_insertion() {
        // Sizes on both sides of the bulk threshold; narrow value ranges so
        // projections collide, signed weights so collisions cancel.
        let mut state = 0x5EED_u64;
        let mut next = |span: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % span) as i64
        };
        for n in
            (0..3 * BULK_PROJECT_MIN).step_by(5).chain([BULK_PROJECT_MIN - 1, BULK_PROJECT_MIN])
        {
            let mut z = ZSet::new();
            while z.distinct_len() < n {
                let t = Tuple::of([next(7), next(1000), next(3)]);
                z.add(t, [-2, -1, 1, 2][next(4) as usize]);
            }
            for indices in [&[0usize, 2][..], &[2, 0], &[0], &[1, 0, 2], &[0, 1, 2], &[]] {
                let mut reference = ZSet::new();
                for (t, c) in z.iter() {
                    reference.add(t.project(indices), c);
                }
                let got = z.project(indices);
                assert_eq!(got, reference, "{n} rows onto {indices:?}");
                assert!(got.iter().all(|(_, c)| c != 0), "no zero weight survives");
            }
        }
    }

    #[test]
    fn distinct_by_weight() {
        let a: ZSet = [(t(&[1]), 3), (t(&[2]), 1), (t(&[3]), -2)].into_iter().collect();
        let d = a.distinct();
        assert_eq!(d.count(&t(&[1])), 1);
        assert_eq!(d.count(&t(&[2])), 1);
        assert_eq!(d.count(&t(&[3])), 0, "non-positive weights leave the support");
        assert_eq!(d.distinct_len(), 2);
    }

    #[test]
    fn tuple_ops() {
        let x = Tuple::of([1, 2, 3]);
        assert_eq!(x.project(&[2, 0]), Tuple::of([3, 1]));
        assert_eq!(x.concat(&Tuple::of([4])), Tuple::of([1, 2, 3, 4]));
    }

    #[test]
    fn type_check() {
        use crate::schema::{AttrType, Schema};
        let s = Schema::of("R", &[("a", AttrType::Int), ("b", AttrType::Str)]);
        assert!(Tuple::of([Value::from(1), Value::str("x")]).check_against(&s).is_ok());
        assert!(Tuple::of([Value::from(1), Value::Null]).check_against(&s).is_ok());
        assert!(Tuple::of([Value::from(1)]).check_against(&s).is_err());
        assert!(Tuple::of([Value::from(1), Value::from(2)]).check_against(&s).is_err());
    }
}
