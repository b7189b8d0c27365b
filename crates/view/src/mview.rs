//! The materialized view extent.

use std::fmt;

use dyno_relational::{RelationalError, Tuple, ZSet};

/// The stored extent of a view: named output columns over a bag of tuples.
///
/// Kept untyped (column names only): the view's output types follow the
/// source schemas, which change over time; the extent is always replaced or
/// delta-adjusted in lockstep with the view definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaterializedView {
    name: String,
    cols: Vec<String>,
    extent: ZSet,
}

impl MaterializedView {
    /// An empty extent with the given columns.
    pub fn new(name: impl Into<String>, cols: Vec<String>) -> Self {
        MaterializedView { name: name.into(), cols, extent: ZSet::new() }
    }

    /// The view name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Output column names.
    pub fn cols(&self) -> &[String] {
        &self.cols
    }

    /// The extent.
    pub fn extent(&self) -> &ZSet {
        &self.extent
    }

    /// Number of tuples (with duplicates).
    pub fn len(&self) -> u64 {
        self.extent.weight()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.extent.is_empty()
    }

    /// Applies a signed delta whose columns must match positionally.
    /// The resulting extent must be non-negative (a view never holds
    /// "negative tuples"); violations indicate a maintenance bug and are
    /// reported as errors.
    pub fn apply_delta(&mut self, cols: &[String], delta: &ZSet) -> Result<(), RelationalError> {
        self.check_cols(cols)?;
        self.merge(delta)
    }

    /// [`MaterializedView::apply_delta`] of a delta known to be in this
    /// view's columns (recovery replays the view's own logged deltas).
    pub(crate) fn merge(&mut self, delta: &ZSet) -> Result<(), RelationalError> {
        // A negative multiplicity can only appear at a tuple the delta
        // touches, so merge in place and read each touched key's new weight
        // off its one probe — O(|Δ|) instead of cloning and re-walking the
        // whole extent. On violation the merge is undone, preserving the
        // unchanged-on-error contract.
        let mut negative = false;
        for (t, c) in delta.iter() {
            negative |= self.extent.add(t.clone(), c) < 0;
        }
        if negative {
            self.extent.merge_negated(delta);
            return Err(RelationalError::InvalidQuery {
                reason: format!(
                    "applying delta to view `{}` would produce negative multiplicities",
                    self.name
                ),
            });
        }
        Ok(())
    }

    /// [`MaterializedView::merge`] of a delta nobody reads afterwards: its
    /// tuples move into the extent instead of being cloned. Every touched
    /// weight is checked first, so a delta that would go negative leaves
    /// the extent untouched.
    pub(crate) fn merge_owned(&mut self, delta: ZSet) -> Result<(), RelationalError> {
        let fits =
            |(t, c): (&Tuple, i64)| self.extent.count(t).checked_add(c).is_some_and(|w| w >= 0);
        if !delta.iter().all(fits) {
            return Err(RelationalError::InvalidQuery {
                reason: format!(
                    "applying delta to view `{}` would produce negative multiplicities",
                    self.name
                ),
            });
        }
        for (t, c) in delta.into_entries() {
            self.extent.add(t, c);
        }
        Ok(())
    }

    /// Like [`MaterializedView::merge`], but **clamps** instead of
    /// erroring: entries that would go negative are dropped and their
    /// magnitude returned. This is the apply path for warehouses running
    /// admission shedding (DESIGN.md §14) — a shed insert's later delete
    /// legitimately misses the extent, and the divergence is the priced-in
    /// cost of bounding the queue, surfaced through the returned count
    /// rather than a maintenance failure.
    pub(crate) fn merge_clamped(&mut self, delta: &ZSet) -> u64 {
        self.extent.merge(delta);
        self.extent.clamp_non_negative()
    }

    fn check_cols(&self, cols: &[String]) -> Result<(), RelationalError> {
        if cols == self.cols.as_slice() {
            return Ok(());
        }
        Err(RelationalError::InvalidQuery {
            reason: format!(
                "view delta columns {:?} do not match view columns {:?}",
                cols, self.cols
            ),
        })
    }

    /// Replaces columns and extent wholesale (view adaptation after a
    /// definition rewrite).
    pub fn replace(&mut self, cols: Vec<String>, extent: ZSet) -> Result<(), RelationalError> {
        if !extent.is_non_negative() {
            return Err(RelationalError::InvalidQuery {
                reason: format!(
                    "replacement extent for `{}` has negative multiplicities",
                    self.name
                ),
            });
        }
        self.cols = cols;
        self.extent = extent;
        Ok(())
    }

    /// Tuples in deterministic order (tests, display).
    pub fn sorted_tuples(&self) -> Vec<(Tuple, i64)> {
        self.extent.sorted_entries()
    }
}

impl fmt::Display for MaterializedView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}({}) [{} tuples]", self.name, self.cols.join(", "), self.len())?;
        for (t, c) in self.extent.sorted().into_iter().take(20) {
            if c == 1 {
                writeln!(f, "  {t}")?;
            } else {
                writeln!(f, "  {t} x{c}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyno_relational::Value;

    fn cols() -> Vec<String> {
        vec!["a".to_string(), "b".to_string()]
    }

    fn t(a: i64, b: &str) -> Tuple {
        Tuple::of([Value::from(a), Value::str(b)])
    }

    #[test]
    fn delta_application() {
        let mut mv = MaterializedView::new("V", cols());
        let mut d = ZSet::new();
        d.add(t(1, "x"), 2);
        mv.apply_delta(&cols(), &d).unwrap();
        assert_eq!(mv.len(), 2);
        let mut d2 = ZSet::new();
        d2.add(t(1, "x"), -1);
        mv.apply_delta(&cols(), &d2).unwrap();
        assert_eq!(mv.len(), 1);
    }

    #[test]
    fn negative_extent_rejected_and_untouched() {
        let mut mv = MaterializedView::new("V", cols());
        let mut d = ZSet::new();
        d.add(t(1, "x"), -1);
        assert!(mv.apply_delta(&cols(), &d).is_err());
        assert!(mv.is_empty());
    }

    #[test]
    fn column_mismatch_rejected() {
        let mut mv = MaterializedView::new("V", cols());
        let d = ZSet::new();
        assert!(mv.apply_delta(&["a".to_string()], &d).is_err());
    }

    #[test]
    fn replace_swaps_schema() {
        let mut mv = MaterializedView::new("V", cols());
        let mut extent = ZSet::new();
        extent.add(Tuple::of([Value::from(5)]), 1);
        mv.replace(vec!["only".to_string()], extent).unwrap();
        assert_eq!(mv.cols(), &["only".to_string()]);
        assert_eq!(mv.len(), 1);
    }
}
