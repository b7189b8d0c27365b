//! Secondary hash indexes over relations.
//!
//! A [`HashIndex`] maps a key — the values of a fixed attribute set — to the
//! signed rows carrying that key. Buckets are keyed by a 64-bit hash of the
//! key values (`hash::hash_values`, the crate's one hasher), and the bucket map
//! uses that hash as is, so probes never materialize a key [`Tuple`]: the executor
//! hashes *borrowed* values straight out of the probing row and verifies
//! candidate rows with an equality check (hash collisions are possible and
//! must be filtered by the caller via [`HashIndex::key_matches`]).
//!
//! Indexes are maintained by [`crate::Catalog`] as updates commit: data
//! updates apply their delta to every index on the touched relation; schema
//! changes rebuild or drop affected indexes (see
//! `Catalog::apply_schema_change`).

use crate::error::RelationalError;
use crate::hash::{hash_values, PreHashedMap};
use crate::relation::Relation;
use crate::tuple::{Tuple, ZSet};
use crate::value::Value;

/// A secondary hash index on one relation, covering a fixed attribute set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HashIndex {
    /// Indexed attribute names, in index-key order.
    attrs: Vec<String>,
    /// Column positions of `attrs` in the indexed relation's schema.
    cols: Vec<usize>,
    /// Bucket-hash ([`hash_values`] of the key) → signed rows whose key
    /// hashes there. Buckets hold whole rows (not projections), so probes
    /// return rows directly.
    buckets: PreHashedMap<u64, ZSet>,
}

impl HashIndex {
    /// Builds an index over `relation` covering `attrs`. Fails if any
    /// attribute is missing from the relation's schema.
    pub fn build(relation: &Relation, attrs: &[String]) -> Result<HashIndex, RelationalError> {
        let cols =
            attrs.iter().map(|a| relation.schema().require(a)).collect::<Result<Vec<_>, _>>()?;
        // Pre-size for the distinct-row count: a multi-million-row build
        // would otherwise rehash through every table doubling, churning
        // hundreds of megabytes of transient allocations.
        let buckets = PreHashedMap::with_capacity_and_hasher(
            relation.rows().distinct_len(),
            Default::default(),
        );
        let mut index = HashIndex { attrs: attrs.to_vec(), cols, buckets };
        index.apply(relation.rows().iter());
        Ok(index)
    }

    /// The indexed attribute names, in key order.
    pub fn attrs(&self) -> &[String] {
        &self.attrs
    }

    /// The indexed column positions, aligned with [`HashIndex::attrs`].
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// True iff this index covers exactly the given attribute set
    /// (order-insensitive; duplicate attributes never match).
    pub fn covers(&self, attrs: &[&str]) -> bool {
        if attrs.len() != self.attrs.len() {
            return false;
        }
        let mut want: Vec<&str> = attrs.to_vec();
        let mut have: Vec<&str> = self.attrs.iter().map(String::as_str).collect();
        want.sort_unstable();
        have.sort_unstable();
        want == have
    }

    /// Applies signed rows (a delta, or a full relation on build) to the
    /// index. Counts that cancel to zero disappear; empty buckets are
    /// removed so the index never retains tombstones.
    pub fn apply<'a, I: IntoIterator<Item = (&'a Tuple, i64)>>(&mut self, rows: I) {
        for (t, c) in rows {
            let h = hash_values(self.cols.iter().map(|&i| t.get(i)));
            let bucket = self.buckets.entry(h).or_default();
            bucket.add(t.clone(), c);
            if bucket.is_empty() {
                self.buckets.remove(&h);
            }
        }
    }

    /// The bucket a key hashes to, if non-empty. Candidate rows still need
    /// [`HashIndex::key_matches`] — a bucket may mix hash-colliding keys.
    /// `key` values align with [`HashIndex::attrs`] order.
    pub fn lookup(&self, key: &[&Value]) -> Option<&ZSet> {
        debug_assert_eq!(key.len(), self.cols.len());
        self.buckets.get(&hash_values(key.iter().copied()))
    }

    /// True iff `row`'s indexed columns equal `key` (aligned with
    /// [`HashIndex::attrs`] order).
    pub fn key_matches(&self, row: &Tuple, key: &[&Value]) -> bool {
        self.cols.iter().zip(key).all(|(&i, &v)| row.get(i) == v)
    }

    /// Collects the rows matching `key` exactly — the collision-checked
    /// convenience form of [`HashIndex::lookup`].
    pub fn probe(&self, key: &[&Value]) -> Vec<(&Tuple, i64)> {
        match self.lookup(key) {
            Some(bucket) => bucket.iter().filter(|(t, _)| self.key_matches(t, key)).collect(),
            None => Vec::new(),
        }
    }

    /// Renames an indexed attribute in place (column positions are
    /// unchanged by an attribute rename).
    pub(crate) fn rename_attr(&mut self, from: &str, to: &str) {
        for a in &mut self.attrs {
            if a == from {
                *a = to.to_string();
            }
        }
    }

    /// Number of distinct rows indexed.
    pub fn len(&self) -> usize {
        self.buckets.values().map(ZSet::distinct_len).sum()
    }

    /// True iff no rows are indexed.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Delta;
    use crate::schema::{AttrType, Schema};

    fn rel() -> Relation {
        Relation::from_tuples(
            Schema::of("R", &[("k", AttrType::Int), ("v", AttrType::Str)]),
            [
                Tuple::of([Value::from(1), Value::str("a")]),
                Tuple::of([Value::from(2), Value::str("b")]),
                Tuple::of([Value::from(2), Value::str("b")]),
                Tuple::of([Value::from(2), Value::str("c")]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn build_and_probe() {
        let idx = HashIndex::build(&rel(), &["k".into()]).unwrap();
        let two = Value::from(2);
        let hits = idx.probe(&[&two]);
        assert_eq!(hits.iter().map(|(_, c)| c).sum::<i64>(), 3);
        let missing = Value::from(9);
        assert!(idx.probe(&[&missing]).is_empty());
    }

    #[test]
    fn probe_agrees_with_scan_on_every_key() {
        let r = rel();
        let idx = HashIndex::build(&r, &["k".into()]).unwrap();
        for (t, _) in r.rows().iter() {
            let key = [t.get(0)];
            let scanned: i64 =
                r.rows().iter().filter(|(u, _)| u.get(0) == t.get(0)).map(|(_, c)| c).sum();
            let probed: i64 = idx.probe(&key).iter().map(|(_, c)| c).sum();
            assert_eq!(scanned, probed);
        }
    }

    #[test]
    fn delta_maintenance_removes_cancelled_rows() {
        let r = rel();
        let mut idx = HashIndex::build(&r, &["k".into()]).unwrap();
        let delta = Delta::from_rows(
            r.schema().clone(),
            [
                (Tuple::of([Value::from(1), Value::str("a")]), -1),
                (Tuple::of([Value::from(3), Value::str("d")]), 1),
            ],
        )
        .unwrap();
        idx.apply(delta.rows().iter());
        let one = Value::from(1);
        let three = Value::from(3);
        assert!(idx.probe(&[&one]).is_empty(), "cancelled row must vanish");
        assert_eq!(idx.probe(&[&three]).len(), 1);
    }

    #[test]
    fn covers_is_order_insensitive_and_duplicate_safe() {
        let r = Relation::empty(Schema::of("R", &[("a", AttrType::Int), ("b", AttrType::Int)]));
        let idx = HashIndex::build(&r, &["a".into(), "b".into()]).unwrap();
        assert!(idx.covers(&["b", "a"]));
        assert!(!idx.covers(&["a"]));
        assert!(!idx.covers(&["a", "a"]));
    }

    #[test]
    fn build_on_missing_attr_fails() {
        assert!(HashIndex::build(&rel(), &["ghost".into()]).is_err());
    }

    #[test]
    fn multi_column_key() {
        let r = Relation::from_tuples(
            Schema::of("R", &[("a", AttrType::Int), ("b", AttrType::Int)]),
            [Tuple::of([1i64, 10]), Tuple::of([1i64, 20])],
        )
        .unwrap();
        let idx = HashIndex::build(&r, &["a".into(), "b".into()]).unwrap();
        let (one, ten) = (Value::from(1), Value::from(10));
        assert_eq!(idx.probe(&[&one, &ten]).len(), 1);
    }
}
