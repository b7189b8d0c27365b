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
//! A bucket is a flat list of signed rows held in the map entry itself: one
//! row inline (the common case — a key index over a key), more in one `Vec`.
//! Probing a key is one map lookup and a walk over a slice; no bucket owns a
//! hash table of its own.
//!
//! Indexes are maintained by [`crate::Catalog`] as updates commit: data
//! updates apply their delta to every index on the touched relation; schema
//! changes rebuild or drop affected indexes (see
//! `Catalog::apply_schema_change`).

use std::collections::hash_map::Entry;

use crate::error::RelationalError;
use crate::hash::{hash_values, PreHashedMap};
use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::value::Value;

/// Something that names one key attribute: a bare name, or a join key
/// `(probing column, attribute)` as a compiled hop carries it. Lets
/// [`HashIndex::covers`] match a key wherever its names already live,
/// without collecting them first.
pub trait AttrName {
    /// The attribute's name.
    fn attr_name(&self) -> &str;
}

impl AttrName for &str {
    fn attr_name(&self) -> &str {
        self
    }
}

impl AttrName for String {
    fn attr_name(&self) -> &str {
        self
    }
}

impl AttrName for (usize, String) {
    fn attr_name(&self) -> &str {
        &self.1
    }
}

/// The signed rows whose key hashes to one bucket hash: one row inline, or
/// two and more in a list. Never empty, never a zero weight, and a row
/// appears at most once.
#[derive(Debug, Clone)]
enum Bucket {
    One((Tuple, i64)),
    Many(Vec<(Tuple, i64)>),
}

impl Bucket {
    fn rows(&self) -> &[(Tuple, i64)] {
        match self {
            Bucket::One(row) => std::slice::from_ref(row),
            Bucket::Many(rows) => rows,
        }
    }

    /// Appends a row the bucket does not hold.
    fn push(&mut self, t: Tuple, c: i64) {
        match self {
            Bucket::One(_) => {
                let Bucket::One(first) = std::mem::replace(self, Bucket::Many(Vec::new())) else {
                    unreachable!("matched One above")
                };
                *self = Bucket::Many(vec![first, (t, c)]);
            }
            Bucket::Many(rows) => rows.push((t, c)),
        }
    }

    /// Adds `c` to `t`'s weight; true when the bucket is left empty.
    fn add(&mut self, t: &Tuple, c: i64) -> bool {
        match self {
            Bucket::One((row, w)) if row == t => {
                *w += c;
                *w == 0
            }
            Bucket::One(_) => {
                self.push(t.clone(), c);
                false
            }
            Bucket::Many(rows) => {
                match rows.iter().position(|(row, _)| row == t) {
                    Some(i) => {
                        rows[i].1 += c;
                        if rows[i].1 == 0 {
                            rows.swap_remove(i);
                        }
                    }
                    None => rows.push((t.clone(), c)),
                }
                if rows.len() == 1 {
                    *self = Bucket::One(rows.pop().expect("one row"));
                }
                false
            }
        }
    }
}

/// A secondary hash index on one relation, covering a fixed attribute set.
///
/// Two indexes are equal when they cover the same attributes at the same
/// positions and hold the same signed rows under every key.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    /// Indexed attribute names, in index-key order.
    attrs: Vec<String>,
    /// Column positions of `attrs` in the indexed relation's schema.
    cols: Vec<usize>,
    /// Bucket-hash ([`hash_values`] of the key) → signed rows whose key
    /// hashes there. Buckets hold whole rows (not projections), so probes
    /// return rows directly.
    buckets: PreHashedMap<u64, Bucket>,
}

impl PartialEq for HashIndex {
    fn eq(&self, other: &Self) -> bool {
        // A bucket's row order is its edit history, not its content.
        let same_rows = |a: &[(Tuple, i64)], b: &[(Tuple, i64)]| {
            a.len() == b.len() && a.iter().all(|row| b.contains(row))
        };
        self.attrs == other.attrs
            && self.cols == other.cols
            && self.buckets.len() == other.buckets.len()
            && self.buckets.iter().all(|(h, bucket)| {
                other.buckets.get(h).is_some_and(|o| same_rows(bucket.rows(), o.rows()))
            })
    }
}

impl Eq for HashIndex {}

impl HashIndex {
    /// Builds an index over `relation` covering `attrs` (taken over, so an
    /// owned list is not copied). Fails if any attribute is missing from the
    /// relation's schema.
    pub fn build(
        relation: &Relation,
        attrs: impl Into<Vec<String>>,
    ) -> Result<HashIndex, RelationalError> {
        let attrs = attrs.into();
        let cols =
            attrs.iter().map(|a| relation.schema().require(a)).collect::<Result<Vec<_>, _>>()?;
        // Pre-size for the distinct-row count: a multi-million-row build
        // would otherwise rehash through every table doubling, churning
        // hundreds of megabytes of transient allocations.
        let mut buckets = PreHashedMap::with_capacity_and_hasher(
            relation.rows().distinct_len(),
            Default::default(),
        );
        // A relation's rows are distinct and non-zero, so each one either
        // opens its key's bucket or is appended to it: nothing to search.
        for (t, c) in relation.rows().iter() {
            let h = hash_values(cols.iter().map(|&i| t.get(i)));
            match buckets.entry(h) {
                Entry::Vacant(e) => {
                    e.insert(Bucket::One((t.clone(), c)));
                }
                Entry::Occupied(mut e) => e.get_mut().push(t.clone(), c),
            }
        }
        Ok(HashIndex { attrs, cols, buckets })
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
    /// (order-insensitive; duplicate attributes never match). Neither
    /// allocates nor sorts: a key is a handful of attributes, so each name's
    /// count is compared on both sides.
    pub fn covers<A: AttrName>(&self, attrs: &[A]) -> bool {
        attrs.len() == self.attrs.len()
            && attrs.iter().all(|a| {
                let name = a.attr_name();
                let want = attrs.iter().filter(|b| b.attr_name() == name).count();
                want == self.attrs.iter().filter(|h| *h == name).count()
            })
    }

    /// Applies signed rows (a delta) to the index. Counts that cancel to
    /// zero disappear; emptied buckets are removed so the index never
    /// retains tombstones. A row joining or leaving a key compares against
    /// that key's rows, so its cost is the bucket's length — what one probe
    /// of the key walks anyway.
    pub fn apply<'a, I: IntoIterator<Item = (&'a Tuple, i64)>>(&mut self, rows: I) {
        for (t, c) in rows {
            if c == 0 {
                continue;
            }
            let h = hash_values(self.cols.iter().map(|&i| t.get(i)));
            match self.buckets.entry(h) {
                Entry::Vacant(e) => {
                    e.insert(Bucket::One((t.clone(), c)));
                }
                Entry::Occupied(mut e) => {
                    if e.get_mut().add(t, c) {
                        e.remove();
                    }
                }
            }
        }
    }

    /// The candidate rows for a key whose [`hash_values`] (over its values
    /// in [`HashIndex::attrs`] order) is `hash`; empty when no row hashes
    /// there. Candidates still need a key check — a bucket may mix
    /// hash-colliding keys. Lets a caller hash values borrowed from a
    /// probing row without collecting them into a key.
    pub fn bucket(&self, hash: u64) -> &[(Tuple, i64)] {
        self.buckets.get(&hash).map_or(&[], Bucket::rows)
    }

    /// The bucket a key hashes to ([`HashIndex::bucket`]); empty when no
    /// row has the key's hash. Candidate rows still need
    /// [`HashIndex::key_matches`]. `key` values align with
    /// [`HashIndex::attrs`] order.
    pub fn lookup(&self, key: &[&Value]) -> &[(Tuple, i64)] {
        debug_assert_eq!(key.len(), self.cols.len());
        self.bucket(hash_values(key.iter().copied()))
    }

    /// True iff `row`'s indexed columns equal `key` (aligned with
    /// [`HashIndex::attrs`] order).
    pub fn key_matches(&self, row: &Tuple, key: &[&Value]) -> bool {
        self.cols.iter().zip(key).all(|(&i, &v)| row.get(i) == v)
    }

    /// Collects the rows matching `key` exactly — the collision-checked
    /// convenience form of [`HashIndex::lookup`].
    pub fn probe(&self, key: &[&Value]) -> Vec<(&Tuple, i64)> {
        self.lookup(key)
            .iter()
            .filter(|(t, _)| self.key_matches(t, key))
            .map(|(t, c)| (t, *c))
            .collect()
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

    /// Gives up the attribute list, for a rebuild over a changed relation.
    pub(crate) fn into_attrs(self) -> Vec<String> {
        self.attrs
    }

    /// Number of distinct rows indexed.
    pub fn len(&self) -> usize {
        self.buckets.values().map(|b| b.rows().len()).sum()
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
        let idx = HashIndex::build(&rel(), ["k".to_string()]).unwrap();
        let two = Value::from(2);
        let hits = idx.probe(&[&two]);
        assert_eq!(hits.iter().map(|(_, c)| c).sum::<i64>(), 3);
        let missing = Value::from(9);
        assert!(idx.probe(&[&missing]).is_empty());
    }

    #[test]
    fn probe_agrees_with_scan_on_every_key() {
        let r = rel();
        let idx = HashIndex::build(&r, ["k".to_string()]).unwrap();
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
        let mut idx = HashIndex::build(&r, ["k".to_string()]).unwrap();
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
        let idx = HashIndex::build(&r, ["a".to_string(), "b".to_string()]).unwrap();
        assert!(idx.covers(&["b", "a"]));
        assert!(!idx.covers(&["a"]));
        assert!(!idx.covers(&["a", "a"]));
    }

    #[test]
    fn build_on_missing_attr_fails() {
        assert!(HashIndex::build(&rel(), ["ghost".to_string()]).is_err());
    }

    #[test]
    fn multi_column_key() {
        let r = Relation::from_tuples(
            Schema::of("R", &[("a", AttrType::Int), ("b", AttrType::Int)]),
            [Tuple::of([1i64, 10]), Tuple::of([1i64, 20])],
        )
        .unwrap();
        let idx = HashIndex::build(&r, ["a".to_string(), "b".to_string()]).unwrap();
        let (one, ten) = (Value::from(1), Value::from(10));
        assert_eq!(idx.probe(&[&one, &ten]).len(), 1);
    }

    #[test]
    fn a_bucket_moves_between_one_row_and_many() {
        let r = rel();
        let mut idx = HashIndex::build(&r, ["k".to_string()]).unwrap();
        let row = |k: i64, v: &str| Tuple::of([Value::from(k), Value::str(v)]);
        let one = Value::from(1);
        idx.apply([(&row(1, "x"), 2), (&row(1, "y"), 1)]);
        assert_eq!(idx.probe(&[&one]).len(), 3);
        idx.apply([(&row(1, "a"), -1), (&row(1, "x"), -2)]);
        assert_eq!(idx.probe(&[&one]), vec![(&row(1, "y"), 1)]);
        idx.apply([(&row(1, "y"), -1)]);
        assert!(idx.lookup(&[&one]).is_empty(), "an emptied key leaves no bucket");
        assert_eq!(idx.len(), 2);
        let rebuilt = HashIndex::build(
            &Relation::from_tuples(r.schema().clone(), [row(2, "b"), row(2, "b"), row(2, "c")])
                .unwrap(),
            ["k".to_string()],
        )
        .unwrap();
        let mut twos = HashIndex::build(&r, ["k".to_string()]).unwrap();
        twos.apply([(&row(1, "a"), -1)]);
        assert_eq!(twos, rebuilt);
    }
}
