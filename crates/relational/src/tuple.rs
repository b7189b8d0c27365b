//! Tuples (rows) and weighted sets ([`ZSet`]s) of tuples.
//!
//! The [`ZSet`] here is the DBSP-style weighted multiset: a map from row to
//! a non-zero signed weight. It is the single carrier type for relations
//! (non-negative weights), deltas (arbitrary signs), index buckets, and
//! every intermediate of incremental maintenance, which keeps the algebra
//! `(R + Δ) ⋈ S = R ⋈ S + Δ ⋈ S` uniform across the whole engine.
//!
//! A Z-set is a hash map keyed for the probe: a [`Tuple`] carries its
//! 64-bit row hash, computed once when the row is built, so an apply, a
//! lookup, a table growth or a clone never re-hashes a row. Iteration order
//! is unspecified. Order is imposed only where bytes or text are produced:
//! [`ZSet::sorted`] (the wire encoding, renders, `Debug`) and the error a
//! failed per-row check reports (`ZSet::least_error`).

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::RelationalError;
use crate::hash::{hash_values, PreHashedMap};
use crate::schema::Schema;
use crate::value::Value;

/// A row: an ordered sequence of values matching some schema's attributes,
/// with its hash (`hash::hash_values` of the values) cached. Rows are immutable
/// once built, so the cache never goes stale. Equality and order are those
/// of the values.
#[derive(Clone)]
pub struct Tuple {
    hash: u64,
    values: Box<[Value]>,
}

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { hash: hash_values(&values), values: values.into_boxed_slice() }
    }

    /// Builds a tuple from anything convertible into values.
    pub fn of<V: Into<Value>, I: IntoIterator<Item = V>>(values: I) -> Self {
        Tuple::new(values.into_iter().map(Into::into).collect())
    }

    /// The values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The value at `idx`.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// A new tuple containing the fields at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple::new(indices.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Concatenation of `self` and `other` (used by joins).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.arity() + other.arity());
        v.extend_from_slice(&self.values);
        v.extend_from_slice(&other.values);
        Tuple::new(v)
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
        for (v, a) in self.values.iter().zip(schema.attrs()) {
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

impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.values == other.values
    }
}

impl Eq for Tuple {}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.values.cmp(&other.values)
    }
}

/// A tuple hashes as its cached row hash (one `u64`), which is what a
/// `PreHashedMap` passes straight through.
impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Tuple").field(&self.values).finish()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
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
/// * **Order only where it shows** — [`ZSet::iter`] visits entries in an
///   unspecified order that depends on how the set was built. Everything
///   that produces bytes or text from a Z-set (the wire encoding, and with
///   it WAL records, checkpoints and extent CRCs; renders; `Debug`) goes
///   through [`ZSet::sorted`], so equal sets always produce equal output.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct ZSet {
    weights: PreHashedMap<Tuple, i64>,
}

impl ZSet {
    /// Empty set.
    pub fn new() -> Self {
        ZSet::default()
    }

    /// Empty set with room for `n` distinct tuples.
    pub fn with_capacity(n: usize) -> Self {
        ZSet { weights: PreHashedMap::with_capacity_and_hasher(n, Default::default()) }
    }

    /// Adds `count` occurrences of `tuple`, removing the entry if the total
    /// reaches zero. Returns the new weight.
    pub fn add(&mut self, tuple: Tuple, count: i64) -> i64 {
        if count == 0 {
            return self.count(&tuple);
        }
        use std::collections::hash_map::Entry;
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

    /// Iterates over `(tuple, weight)` pairs in an unspecified order. Use
    /// it only where the order cannot show (a sum, a set built from the
    /// rows, a test of every row); [`ZSet::sorted`] is the ordered view.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.weights.iter().map(|(t, &c)| (t, c))
    }

    /// The entries by value, in the same unspecified order as
    /// [`ZSet::iter`].
    pub fn into_entries(self) -> impl Iterator<Item = (Tuple, i64)> {
        self.weights.into_iter()
    }

    /// The entries in tuple order — the deterministic view: two equal
    /// Z-sets yield identical sequences however they were built.
    ///
    /// Each entry is sorted with an order-preserving key of its first value
    /// beside it, so when that value tells rows apart (a key column) a
    /// comparison never dereferences a row.
    pub fn sorted(&self) -> Vec<(&Tuple, i64)> {
        if self.distinct_len() < 2 {
            return self.iter().collect();
        }
        let mut keyed: Vec<_> = self.iter().map(|(t, c)| (lead(t), t, c)).collect();
        keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(b.1)));
        keyed.into_iter().map(|(_, t, c)| (t, c)).collect()
    }

    /// [`ZSet::sorted`], copied out.
    pub fn sorted_entries(&self) -> Vec<(Tuple, i64)> {
        self.sorted().into_iter().map(|(t, c)| (t.clone(), c)).collect()
    }

    /// The error `check` raises on the least entry (in tuple order) it
    /// fails, or `None` when it fails none. A loop over [`ZSet::iter`] that
    /// stops at its first failure calls this to report instead, so the
    /// error it returns does not depend on the set's layout.
    pub(crate) fn least_error<E>(
        &self,
        mut check: impl FnMut(&Tuple, i64) -> Result<(), E>,
    ) -> Option<E> {
        self.sorted().into_iter().find_map(|(t, c)| check(t, c).err())
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
        let mut out = self.clone();
        out.weights.values_mut().for_each(|c| *c = -*c);
        out
    }

    /// `self − other` as a new set.
    pub fn diff(&self, other: &ZSet) -> ZSet {
        let mut out = self.clone();
        out.merge_negated(other);
        out
    }

    /// Projects every tuple onto `indices`, combining weights (entries
    /// whose projections collide and cancel disappear).
    pub fn project(&self, indices: &[usize]) -> ZSet {
        let mut out = ZSet::with_capacity(self.distinct_len());
        for (t, c) in self.iter() {
            out.add(t.project(indices), c);
        }
        // A projection that collapsed most rows gives back the room.
        if out.distinct_len() < self.distinct_len() / 2 {
            out.weights.shrink_to_fit();
        }
        out
    }

    /// Every tuple extended by one trailing `value` (an added attribute's
    /// default). Distinct tuples stay distinct, so weights carry over.
    pub fn widened(&self, value: &Value) -> ZSet {
        let mut out = ZSet::with_capacity(self.distinct_len());
        for (t, c) in self.iter() {
            let mut vals = Vec::with_capacity(t.arity() + 1);
            vals.extend_from_slice(t.values());
            vals.push(value.clone());
            out.weights.insert(Tuple::new(vals), c);
        }
        out
    }

    /// The distinct (set) image: every tuple with positive weight maps to
    /// weight 1; non-positive entries vanish. This is DBSP's `distinct`
    /// operator on a state (not on a delta — see
    /// [`crate::exec::distinct_delta`] for the incremental form).
    pub fn distinct(&self) -> ZSet {
        let mut out = self.clone();
        out.weights.retain(|_, c| *c > 0);
        out.weights.values_mut().for_each(|c| *c = 1);
        out
    }
}

/// A key of `t`'s first value that orders as [`Tuple`]'s `Ord` does, up
/// to ties: `lead(a) < lead(b)` implies `a < b`. The tag is the variant
/// (the order of [`Value`]'s variants), after the empty tuple; the payload
/// orders within a variant, a string by its first eight bytes.
fn lead(t: &Tuple) -> (u8, u64) {
    let Some(v) = t.values.first() else { return (0, 0) };
    match v {
        Value::Null => (1, 0),
        Value::Bool(b) => (2, u64::from(*b)),
        Value::Int(i) => (3, (*i as u64) ^ (1 << 63)),
        Value::Float(f) => {
            let bits = f.get().to_bits();
            let key = if f.get().is_nan() {
                u64::MAX
            } else if bits >> 63 == 1 {
                !bits
            } else {
                bits | (1 << 63)
            };
            (4, key)
        }
        Value::Str(s) => {
            let mut prefix = [0u8; 8];
            let n = s.len().min(8);
            prefix[..n].copy_from_slice(&s.as_bytes()[..n]);
            (5, u64::from_be_bytes(prefix))
        }
    }
}

/// Prints the entries in tuple order, in the shape a derived `Debug` of an
/// ordered map would: equal sets print identically however they were
/// built, and a determinism check may compare the text.
impl fmt::Debug for ZSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Sorted<'a>(&'a ZSet);
        impl fmt::Debug for Sorted<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.sorted()).finish()
            }
        }
        f.debug_struct("ZSet").field("weights", &Sorted(self)).finish()
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
        // Iteration order is the table's business; the byte surface is not.
        // Equal sets built forward, in reverse, and through inserts and
        // deletes that leave a much larger table encode, sort and print
        // identically.
        let fwd: ZSet = (0..100).map(|i| (t(&[i, i % 7]), 1 + i % 3)).collect();
        let rev: ZSet = (0..100).rev().map(|i| (t(&[i, i % 7]), 1 + i % 3)).collect();
        let mut churned = ZSet::new();
        for i in (0..5000).rev() {
            churned.add(t(&[i, i % 7]), 1);
        }
        for i in 0..5000 {
            churned.add(t(&[i, i % 7]), if i < 100 { i % 3 } else { -1 });
        }
        assert!(churned.weights.capacity() > 8 * fwd.weights.capacity());
        let bytes = |z: &ZSet| {
            let mut e = dyno_durable::codec::Enc::new();
            crate::wire::enc_bag(&mut e, z);
            e.finish()
        };
        for other in [&rev, &churned] {
            assert_eq!(&fwd, other);
            assert_eq!(bytes(&fwd), bytes(other), "enc_bag bytes");
            assert_eq!(fwd.sorted_entries(), other.sorted_entries());
            assert_eq!(format!("{fwd:?}"), format!("{other:?}"), "Debug");
            assert_eq!(format!("{fwd:#?}"), format!("{other:#?}"), "pretty Debug");
        }
        let order: Vec<_> = fwd.sorted_entries().into_iter().map(|(tp, _)| tp).collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted, "sorted_entries() yields tuples in tuple order");
        // The text is the shape a derived `Debug` of an ordered map prints.
        let two: ZSet = [(t(&[2]), -1), (t(&[1]), 3)].into_iter().collect();
        assert_eq!(
            format!("{two:?}"),
            "ZSet { weights: {Tuple([Int(1)]): 3, Tuple([Int(2)]): -1} }"
        );
    }

    #[test]
    fn sorted_orders_every_kind_of_leading_value() {
        let lead_values = [
            Value::Null,
            Value::from(false),
            Value::from(true),
            Value::from(i64::MIN),
            Value::from(-1),
            Value::from(0),
            Value::from(i64::MAX),
            Value::float(f64::NEG_INFINITY),
            Value::float(-2.5),
            Value::float(-0.0),
            Value::float(1e-300),
            Value::float(f64::INFINITY),
            Value::float(f64::NAN),
            Value::str(""),
            Value::str("a"),
            Value::str("a\0"),
            Value::str("abcdefgh"),
            Value::str("abcdefghb"),
            Value::str("abcdefgha"),
            Value::str("b"),
        ];
        let mut z = ZSet::new();
        z.add(Tuple::new(vec![]), 1);
        for (i, v) in lead_values.iter().rev().enumerate() {
            for tail in [0i64, 1] {
                z.add(Tuple::new(vec![v.clone(), Value::from(tail)]), i as i64 + 1);
            }
            z.add(Tuple::new(vec![v.clone()]), -1);
        }
        let got: Vec<Tuple> = z.sorted().into_iter().map(|(t, _)| t.clone()).collect();
        let mut want = got.clone();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(got.len(), 1 + 3 * lead_values.len());
    }

    #[test]
    fn least_error_names_the_least_failing_row() {
        let z: ZSet = (0..50).rev().map(|i| (t(&[i]), 1)).collect();
        let fails_above = |k: i64| {
            move |tp: &Tuple, _: i64| match tp.get(0) {
                Value::Int(i) if *i > k => Err(*i),
                _ => Ok(()),
            }
        };
        assert_eq!(z.least_error(fails_above(20)), Some(21));
        assert_eq!(z.least_error(fails_above(60)), None);
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
    fn projection_equals_a_sorted_reference_model() {
        // Sizes from a handful of rows to ~100; narrow value ranges so
        // projections collide, signed weights so collisions cancel. The
        // reference sorts the projected rows and folds equal neighbours.
        let mut state = 0x5EED_u64;
        let mut next = |span: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % span) as i64
        };
        for n in (0..96).step_by(5).chain([31, 32]) {
            let mut z = ZSet::new();
            while z.distinct_len() < n {
                let t = Tuple::of([next(7), next(1000), next(3)]);
                z.add(t, [-2, -1, 1, 2][next(4) as usize]);
            }
            for indices in [&[0usize, 2][..], &[2, 0], &[0], &[1, 0, 2], &[0, 1, 2], &[]] {
                let mut want: Vec<(Tuple, i64)> =
                    z.iter().map(|(t, c)| (t.project(indices), c)).collect();
                want.sort_by(|a, b| a.0.cmp(&b.0));
                want.dedup_by(|later, kept| {
                    let same = later.0 == kept.0;
                    if same {
                        kept.1 += later.1;
                    }
                    same
                });
                want.retain(|&(_, c)| c != 0);
                let got = z.project(indices);
                assert_eq!(got.sorted_entries(), want, "{n} rows onto {indices:?}");
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
