//! Relations (non-negative bags) and deltas (signed bags) with schemas.

use std::fmt;

use crate::error::RelationalError;
use crate::schema::Schema;
use crate::tuple::{Tuple, ZSet};

/// A stored relation: a schema plus a bag of tuples with positive
/// multiplicities (SQL bag semantics; duplicates allowed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    schema: Schema,
    rows: ZSet,
}

impl Relation {
    /// An empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Relation { schema, rows: ZSet::new() }
    }

    /// Builds a relation from tuples, type-checking each against the schema.
    pub fn from_tuples<I: IntoIterator<Item = Tuple>>(
        schema: Schema,
        tuples: I,
    ) -> Result<Self, RelationalError> {
        let mut r = Relation::empty(schema);
        for t in tuples {
            r.insert(t)?;
        }
        Ok(r)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The underlying bag.
    pub fn rows(&self) -> &ZSet {
        &self.rows
    }

    /// Total number of tuples counting duplicates.
    pub fn len(&self) -> u64 {
        self.rows.weight()
    }

    /// True iff the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts one occurrence of `tuple`.
    pub fn insert(&mut self, tuple: Tuple) -> Result<(), RelationalError> {
        tuple.check_against(&self.schema)?;
        self.rows.add(tuple, 1);
        Ok(())
    }

    /// Deletes one occurrence of `tuple`; errors if it is not present.
    pub fn delete(&mut self, tuple: &Tuple) -> Result<(), RelationalError> {
        if self.rows.count(tuple) <= 0 {
            return Err(RelationalError::DeleteMissing {
                relation: self.schema.relation.clone(),
                tuple: tuple.to_string(),
            });
        }
        self.rows.add(tuple.clone(), -1);
        Ok(())
    }

    /// Applies a delta; errors (leaving `self` unchanged) if the result would
    /// contain a negative multiplicity or the schemas are incompatible.
    ///
    /// Each row is type-checked and applied with one probe; the first
    /// failure undoes the rows already applied. The error reported does not
    /// depend on the order rows were applied in: a row that would go
    /// negative if there is one, else an ill-typed row — the least such row
    /// in tuple order.
    pub fn apply(&mut self, delta: &Delta) -> Result<(), RelationalError> {
        if delta.schema().arity() != self.schema.arity() {
            return Err(RelationalError::ArityMismatch {
                relation: self.schema.relation.clone(),
                expected: self.schema.arity(),
                got: delta.schema().arity(),
            });
        }
        let mut applied = 0;
        let ok = delta.rows().iter().all(|(t, c)| {
            t.check_against(&self.schema).is_ok() && {
                applied += 1;
                self.rows.add(t.clone(), c) >= 0
            }
        });
        if ok {
            return Ok(());
        }
        for (t, c) in delta.rows().iter().take(applied) {
            self.rows.add(t.clone(), -c);
        }
        let rows = delta.rows();
        let negative = rows.least_error(|t, c| {
            if self.rows.count(t) + c < 0 {
                Err(RelationalError::DeleteMissing {
                    relation: self.schema.relation.clone(),
                    tuple: t.to_string(),
                })
            } else {
                Ok(())
            }
        });
        Err(negative
            .or_else(|| rows.least_error(|t, _| t.check_against(&self.schema)))
            .expect("a row failed to apply"))
    }

    /// Replaces this relation's schema (used by DDL); the caller must have
    /// already transformed the rows to match.
    pub(crate) fn replace_parts(schema: Schema, rows: ZSet) -> Relation {
        debug_assert!(rows.is_non_negative());
        Relation { schema, rows }
    }

    /// Renames in place (a relation or attribute rename): the rows stay
    /// where they are, so `schema` must keep the arity and column types.
    pub(crate) fn set_schema(&mut self, schema: Schema) {
        debug_assert_eq!(schema.arity(), self.schema.arity());
        self.schema = schema;
    }

    /// The delta that transforms `old` into `new` (i.e. `new − old`).
    pub fn diff(old: &Relation, new: &Relation) -> Delta {
        Delta { schema: new.schema.clone(), rows: new.rows.diff(&old.rows) }
    }

    /// Renders up to `limit` tuples as a sorted, human-readable table.
    pub fn display_sample(&self, limit: usize) -> String {
        let mut out = format!("{} [{} tuples]\n", self.schema, self.len());
        for (t, c) in self.rows.sorted().into_iter().take(limit) {
            if c == 1 {
                out.push_str(&format!("  {t}\n"));
            } else {
                out.push_str(&format!("  {t} x{c}\n"));
            }
        }
        out
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_sample(20))
    }
}

/// A signed change to one relation: tuples with positive multiplicities are
/// insertions, negative are deletions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    schema: Schema,
    rows: ZSet,
}

impl Delta {
    /// An empty delta over `schema`.
    pub fn empty(schema: Schema) -> Self {
        Delta { schema, rows: ZSet::new() }
    }

    /// Builds a delta from signed rows, type-checking each tuple.
    pub fn from_rows<I: IntoIterator<Item = (Tuple, i64)>>(
        schema: Schema,
        rows: I,
    ) -> Result<Self, RelationalError> {
        let mut d = Delta::empty(schema);
        for (t, c) in rows {
            d.add(t, c)?;
        }
        Ok(d)
    }

    /// A delta over `schema` holding `rows`, type-checking each tuple (the
    /// error names the least ill-typed one, in tuple order).
    pub fn from_bag(schema: Schema, rows: ZSet) -> Result<Self, RelationalError> {
        if rows.iter().any(|(t, _)| t.check_against(&schema).is_err()) {
            let err = rows.least_error(|t, _| t.check_against(&schema));
            return Err(err.expect("a row is ill-typed"));
        }
        Ok(Delta { schema, rows })
    }

    /// A pure-insert delta.
    pub fn inserts<I: IntoIterator<Item = Tuple>>(
        schema: Schema,
        tuples: I,
    ) -> Result<Self, RelationalError> {
        Delta::from_rows(schema, tuples.into_iter().map(|t| (t, 1)))
    }

    /// A pure-delete delta.
    pub fn deletes<I: IntoIterator<Item = Tuple>>(
        schema: Schema,
        tuples: I,
    ) -> Result<Self, RelationalError> {
        Delta::from_rows(schema, tuples.into_iter().map(|t| (t, -1)))
    }

    /// The schema this delta applies to.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The signed rows.
    pub fn rows(&self) -> &ZSet {
        &self.rows
    }

    /// Adds `count` occurrences of `tuple`.
    pub fn add(&mut self, tuple: Tuple, count: i64) -> Result<(), RelationalError> {
        tuple.check_against(&self.schema)?;
        self.rows.add(tuple, count);
        Ok(())
    }

    /// Merges another delta into this one (schemas must agree in arity).
    pub fn merge(&mut self, other: &Delta) -> Result<(), RelationalError> {
        if other.schema.arity() != self.schema.arity() {
            return Err(RelationalError::ArityMismatch {
                relation: self.schema.relation.clone(),
                expected: self.schema.arity(),
                got: other.schema.arity(),
            });
        }
        self.rows.merge(&other.rows);
        Ok(())
    }

    /// The inverse delta.
    pub fn negated(&self) -> Delta {
        Delta { schema: self.schema.clone(), rows: self.rows.negated() }
    }

    /// Total affected tuple count (insert + delete magnitudes).
    pub fn weight(&self) -> u64 {
        self.rows.weight()
    }

    /// True iff the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Projects the delta onto the attributes named in `attrs`
    /// (in that order), producing a delta over the projected schema.
    pub fn project_to(&self, attrs: &[String]) -> Result<Delta, RelationalError> {
        let indices: Vec<usize> =
            attrs.iter().map(|a| self.schema.require(a)).collect::<Result<_, _>>()?;
        let kept: Vec<_> = indices.iter().map(|&i| self.schema.attrs()[i].clone()).collect();
        let schema = Schema::new(self.schema.relation.clone(), kept)?;
        Ok(Delta { schema, rows: self.rows.project(&indices) })
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Δ{} [{} rows]", self.schema, self.rows.distinct_len())?;
        for (t, c) in self.rows.sorted().into_iter().take(20) {
            writeln!(f, "  {} {t}", if c > 0 { "+" } else { "-" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrType;

    fn schema() -> Schema {
        Schema::of("R", &[("a", AttrType::Int), ("b", AttrType::Int)])
    }

    fn t(a: i64, b: i64) -> Tuple {
        Tuple::of([a, b])
    }

    #[test]
    fn insert_delete_roundtrip() {
        let mut r = Relation::empty(schema());
        r.insert(t(1, 2)).unwrap();
        r.insert(t(1, 2)).unwrap();
        assert_eq!(r.len(), 2);
        r.delete(&t(1, 2)).unwrap();
        assert_eq!(r.len(), 1);
        r.delete(&t(1, 2)).unwrap();
        assert!(r.is_empty());
        assert!(r.delete(&t(1, 2)).is_err(), "deleting absent tuple is an error");
    }

    #[test]
    fn apply_delta_atomic_on_failure() {
        let mut r = Relation::from_tuples(schema(), [t(1, 1)]).unwrap();
        let bad = Delta::from_rows(schema(), [(t(5, 5), 1), (t(9, 9), -1)]).unwrap();
        let before = r.clone();
        assert!(r.apply(&bad).is_err());
        assert_eq!(r, before, "failed apply must not partially mutate");
    }

    #[test]
    fn apply_leaves_no_prefix_when_a_later_row_is_ill_typed() {
        use crate::value::Value;
        // R(K Int, B Str) and a delta over (K Int, A Int): (1, NULL) fits R,
        // (2, 6) does not. Neither may land, whichever is visited first.
        let r_schema = Schema::of("R", &[("K", AttrType::Int), ("B", AttrType::Str)]);
        let d_schema = Schema::of("R", &[("K", AttrType::Int), ("A", AttrType::Int)]);
        let mut r = Relation::from_tuples(r_schema, [Tuple::of([Value::from(0), Value::str("a")])])
            .unwrap();
        let before = r.clone();
        let delta = Delta::from_rows(
            d_schema,
            [
                (Tuple::of([Value::from(1), Value::Null]), 1),
                (Tuple::of([Value::from(2), Value::from(6)]), 1),
            ],
        )
        .unwrap();
        let err = r.apply(&delta).unwrap_err();
        assert!(matches!(err, RelationalError::TypeMismatch { ref attr, .. } if attr == "B"));
        assert_eq!(r, before, "a failed apply leaves the relation unchanged");
    }

    #[test]
    fn apply_reports_the_least_negative_row_before_any_type_error() {
        use crate::value::Value;
        let mut r = Relation::from_tuples(schema(), (0..40).map(|i| t(i, i))).unwrap();
        let before = r.clone();
        let mut rows: Vec<(Tuple, i64)> = (0..40).map(|i| (t(i, i), -1)).collect();
        rows.extend([(t(70, 70), -1), (t(60, 60), -1)]);
        let delta = Delta::from_rows(schema(), rows).unwrap();
        let err = r.apply(&delta).unwrap_err();
        assert_eq!(
            err.to_string(),
            RelationalError::DeleteMissing { relation: "R".into(), tuple: t(60, 60).to_string() }
                .to_string()
        );
        assert_eq!(r, before);
        // Negativity outranks an ill-typed row, as it always has.
        let mixed = Schema::of("R", &[("a", AttrType::Int), ("b", AttrType::Str)]);
        let bad = Delta::from_rows(
            mixed,
            [
                (Tuple::of([Value::from(1), Value::str("x")]), 1),
                (Tuple::of([Value::from(99), Value::Null]), -1),
            ],
        )
        .unwrap();
        assert!(matches!(r.apply(&bad), Err(RelationalError::DeleteMissing { .. })));
        assert_eq!(r, before);
    }

    #[test]
    fn diff_then_apply_is_identity() {
        let old = Relation::from_tuples(schema(), [t(1, 1), t(2, 2)]).unwrap();
        let new = Relation::from_tuples(schema(), [t(2, 2), t(3, 3), t(3, 3)]).unwrap();
        let d = Relation::diff(&old, &new);
        let mut r = old.clone();
        r.apply(&d).unwrap();
        assert_eq!(r, new);
    }

    #[test]
    fn delta_projection() {
        let d = Delta::from_rows(schema(), [(t(1, 10), 1), (t(1, 20), 1), (t(2, 30), -1)]).unwrap();
        let p = d.project_to(&["a".to_string()]).unwrap();
        assert_eq!(p.rows().count(&Tuple::of([1i64])), 2);
        assert_eq!(p.rows().count(&Tuple::of([2i64])), -1);
    }

    #[test]
    fn delta_merge_and_negate() {
        let mut d = Delta::inserts(schema(), [t(1, 1)]).unwrap();
        d.merge(&Delta::deletes(schema(), [t(1, 1)]).unwrap()).unwrap();
        assert!(d.is_empty());
        let d2 = Delta::inserts(schema(), [t(4, 4)]).unwrap();
        let mut sum = d2.clone();
        sum.merge(&d2.negated()).unwrap();
        assert!(sum.is_empty());
    }

    #[test]
    fn typed_insert_rejected() {
        use crate::value::Value;
        let mut r = Relation::empty(schema());
        assert!(r.insert(Tuple::of([Value::from(1), Value::str("no")])).is_err());
    }
}
