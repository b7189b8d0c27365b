//! The Update Message Queue (UMQ) — the view manager's buffer of pending
//! source updates (paper Figures 3, 6, 7).

use std::collections::VecDeque;

use crate::correct::Schedule;
use crate::meta::UpdateMeta;

/// The UMQ: an ordered queue of entries, each a batch of one or more updates
/// (singletons until a correction pass merges a dependency cycle), plus the
/// `NewSchemaChangeFlag` that lets the pessimistic strategy skip detection in
/// data-update-only periods (the O(1) fast path of Section 4.1.1).
#[derive(Debug, Clone)]
pub struct Umq<P> {
    entries: VecDeque<Vec<UpdateMeta<P>>>,
    /// Updates across all entries, kept by every mutation so the admission
    /// gate reads the depth in O(1).
    updates: usize,
    new_schema_change: bool,
    enqueued: u64,
}

impl<P> Default for Umq<P> {
    fn default() -> Self {
        Umq { entries: VecDeque::new(), updates: 0, new_schema_change: false, enqueued: 0 }
    }
}

impl<P> Umq<P> {
    /// An empty queue.
    pub fn new() -> Self {
        Umq::default()
    }

    /// Rebuilds a queue from a WAL checkpoint: the batch structure
    /// (including merged SC batches) and the schema-change flag exactly as
    /// the checkpoint captured them. Recovery then replays the log's tail
    /// through [`Umq::enqueue`] and [`Umq::remove_by_keys`]. `total_enqueued`
    /// restarts from the restored update count — statistics are not part of
    /// the durability contract.
    pub fn restore(batches: Vec<Vec<UpdateMeta<P>>>, new_schema_change: bool) -> Self {
        let updates = batches.iter().map(Vec::len).sum();
        Umq {
            entries: batches.into_iter().filter(|b| !b.is_empty()).collect(),
            updates,
            new_schema_change,
            enqueued: updates as u64,
        }
    }

    /// Removes every buffered update whose key is in `keys`: the replay of a
    /// logged `Applied` record, which proves they were committed (a live
    /// commit removes the head entry instead). Entries left empty disappear.
    /// Returns how many updates were removed.
    pub fn remove_by_keys(&mut self, keys: &[crate::meta::UpdateKey]) -> usize {
        let mut removed = 0;
        for batch in &mut self.entries {
            let before = batch.len();
            batch.retain(|m| !keys.contains(&m.key));
            removed += before - batch.len();
        }
        self.entries.retain(|b| !b.is_empty());
        self.updates -= removed;
        removed
    }

    /// Enqueues a newly arrived update (the `UMQ_Manager` process of paper
    /// Figure 7): appends it as a singleton entry and raises the
    /// schema-change flag if it is a schema change.
    pub fn enqueue(&mut self, meta: UpdateMeta<P>) {
        if meta.kind.is_schema_change() {
            self.new_schema_change = true;
        }
        self.enqueued += 1;
        self.updates += 1;
        self.entries.push_back(vec![meta]);
    }

    /// `Test_If_True_Set_False(NewSchemaChangeFlag)` from paper Figure 6:
    /// returns whether a schema change arrived since the last correction,
    /// atomically lowering the flag.
    pub fn take_schema_change_flag(&mut self) -> bool {
        std::mem::take(&mut self.new_schema_change)
    }

    /// Peeks at the flag without lowering it.
    pub fn schema_change_flag(&self) -> bool {
        self.new_schema_change
    }

    /// The head entry (the batch Dyno will maintain next).
    pub fn head(&self) -> Option<&[UpdateMeta<P>]> {
        self.entries.front().map(Vec::as_slice)
    }

    /// Removes the head entry after successful maintenance.
    pub fn remove_head(&mut self) -> Option<Vec<UpdateMeta<P>>> {
        let head = self.entries.pop_front()?;
        self.updates -= head.len();
        Some(head)
    }

    /// Number of entries (batches).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total updates across all entries (O(1)).
    pub fn update_count(&self) -> usize {
        self.updates
    }

    /// Updates ever enqueued (for statistics).
    pub fn total_enqueued(&self) -> u64 {
        self.enqueued
    }

    /// The entries, front to back, as one contiguous slice — what a step
    /// hands the maintainer (its head and the rest) without collecting
    /// anything. Takes `&mut` only to close the ring's wrap-around, which
    /// moves entry handles, never updates, and is free once closed.
    pub fn contiguous(&mut self) -> &[Vec<UpdateMeta<P>>] {
        self.entries.make_contiguous()
    }

    /// Every buffered update in queue order, batch by batch.
    pub fn updates(&self) -> impl Iterator<Item = &UpdateMeta<P>> {
        self.entries.iter().flatten()
    }

    /// Borrow the entries as node slices, the graph builder's input.
    pub fn nodes(&self) -> Vec<&[UpdateMeta<P>]> {
        self.entries.iter().map(Vec::as_slice).collect()
    }

    /// Mutable iteration over every buffered update, e.g. to recompute each
    /// schema change's view-relevance after the view definition is rewritten.
    pub fn metas_mut(&mut self) -> impl Iterator<Item = &mut UpdateMeta<P>> {
        self.entries.iter_mut().flat_map(|b| b.iter_mut())
    }

    /// Rebuilds the queue according to a correction schedule computed over
    /// the current entries. Panics if the schedule does not cover the exact
    /// set of current entries (schedules must be applied to the snapshot
    /// they were computed from; Dyno is single-threaded per the paper's
    /// maintenance loop).
    pub fn apply_schedule(&mut self, schedule: &Schedule) {
        assert_eq!(
            schedule.node_count(),
            self.entries.len(),
            "schedule must cover the queue snapshot it was computed from"
        );
        let mut old: Vec<Option<Vec<UpdateMeta<P>>>> = self.entries.drain(..).map(Some).collect();
        self.updates = 0;
        for batch in &schedule.batches {
            let mut merged: Vec<UpdateMeta<P>> = Vec::new();
            for &idx in batch {
                merged.extend(old[idx].take().expect("schedule references each node exactly once"));
            }
            self.updates += merged.len();
            self.entries.push_back(merged);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correct::Schedule;
    use crate::meta::{UpdateKind, UpdateMeta};

    fn du(key: u64) -> UpdateMeta<&'static str> {
        UpdateMeta::new(key, 0, UpdateKind::Data, "du")
    }

    fn sc(key: u64) -> UpdateMeta<&'static str> {
        UpdateMeta::new(key, 1, UpdateKind::Schema { invalidates_view: true }, "sc")
    }

    #[test]
    fn flag_raises_on_schema_change_only() {
        let mut q = Umq::new();
        q.enqueue(du(0));
        assert!(!q.schema_change_flag());
        q.enqueue(sc(1));
        assert!(q.schema_change_flag());
        assert!(q.take_schema_change_flag());
        assert!(!q.take_schema_change_flag(), "test-and-set lowers the flag");
    }

    #[test]
    fn fifo_until_reordered() {
        let mut q = Umq::new();
        q.enqueue(du(0));
        q.enqueue(sc(1));
        assert_eq!(q.head().unwrap()[0].key.0, 0);
        q.remove_head();
        assert_eq!(q.head().unwrap()[0].key.0, 1);
    }

    #[test]
    fn apply_schedule_reorders_and_merges() {
        let mut q = Umq::new();
        q.enqueue(du(0));
        q.enqueue(sc(1));
        q.enqueue(du(2));
        // Schedule: [1], then merged [0,2].
        q.apply_schedule(&Schedule { batches: vec![vec![1], vec![0, 2]] });
        assert_eq!(q.len(), 2);
        assert_eq!(q.head().unwrap()[0].key.0, 1);
        q.remove_head();
        let batch = q.head().unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!((batch[0].key.0, batch[1].key.0), (0, 2));
    }

    #[test]
    #[should_panic(expected = "schedule must cover")]
    fn stale_schedule_panics() {
        let mut q = Umq::new();
        q.enqueue(du(0));
        q.apply_schedule(&Schedule { batches: vec![vec![0], vec![1]] });
    }

    #[test]
    fn restore_rebuilds_batches_and_flag() {
        let q = Umq::restore(vec![vec![sc(1)], vec![du(0), du(2)], vec![]], true);
        assert_eq!(q.len(), 2, "empty batches are dropped");
        assert_eq!(q.update_count(), 3);
        assert_eq!(q.total_enqueued(), 3);
        assert!(q.schema_change_flag());
    }

    #[test]
    fn remove_by_keys_drops_committed_updates() {
        let mut q = Umq::new();
        q.enqueue(du(0));
        q.enqueue(sc(1));
        q.enqueue(du(2));
        q.apply_schedule(&Schedule { batches: vec![vec![1], vec![0, 2]] });
        use crate::meta::UpdateKey;
        assert_eq!(q.remove_by_keys(&[UpdateKey(1)]), 1);
        assert_eq!(q.len(), 1, "the emptied SC batch disappears");
        assert_eq!(q.remove_by_keys(&[UpdateKey(0), UpdateKey(2), UpdateKey(9)]), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn running_update_count_equals_the_sum_after_every_mutation() {
        use crate::meta::UpdateKey;
        fn check(q: &Umq<&'static str>) {
            let sum: usize = q.nodes().iter().map(|b| b.len()).sum();
            assert_eq!(q.update_count(), sum);
        }
        let mut q = Umq::restore(vec![vec![du(0), du(1)], vec![], vec![sc(2)]], false);
        check(&q);
        for k in 3..7 {
            q.enqueue(if k % 2 == 0 { sc(k) } else { du(k) });
            check(&q);
        }
        q.apply_schedule(&Schedule { batches: vec![vec![1, 3], vec![0], vec![2, 4, 5]] });
        check(&q);
        assert_eq!(q.update_count(), 7);
        assert_eq!(q.remove_by_keys(&[UpdateKey(1), UpdateKey(4), UpdateKey(9)]), 2);
        check(&q);
        while q.remove_head().is_some() {
            check(&q);
        }
        assert_eq!(q.update_count(), 0);
        assert!(q.remove_head().is_none());
        check(&q);
    }

    #[test]
    fn counts() {
        let mut q: Umq<&'static str> = Umq::new();
        assert!(q.is_empty());
        q.enqueue(du(0));
        q.enqueue(du(1));
        q.apply_schedule(&Schedule { batches: vec![vec![0, 1]] });
        assert_eq!(q.len(), 1);
        assert_eq!(q.update_count(), 2);
        assert_eq!(q.total_enqueued(), 2);
    }
}
