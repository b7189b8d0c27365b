//! The UMQ admission gate: idempotent, gap-aware ingestion.
//!
//! The dependency analysis chains one source's updates by queue position, so
//! the enqueue order per source must equal its version order, and nothing may
//! be enqueued twice. A perfect transport guarantees both for free; a faulty
//! one (or an at-least-once wrapper retry) does not. The gate makes the
//! boundary safe regardless of what the delivery path promises:
//!
//! * **dedupe** — a `(source, version)` at or below the admitted high-water
//!   mark, or already waiting in the buffer, is dropped
//!   (`fault.duplicates_dropped`);
//! * **resequencing** — an early arrival parks in a per-source reorder
//!   buffer until its predecessors show up, then releases in version order.
//!
//! This is the second, authoritative dedupe line behind the transport-side
//! [`Recovery`](dyno_fault::Recovery) sequencer: even a port that bypasses
//! the fault layer entirely cannot double-apply an update.

use std::collections::HashMap;

use dyno_fault::Sequencer;
use dyno_obs::{stage, Collector, Counter};
use dyno_source::UpdateMessage;

/// Admission state for one UMQ: the workspace's one [`Sequencer`], keyed by
/// source id and sequenced by source version, plus what only the gate knows
/// — the reflected-version baseline, its counters and provenance stages,
/// and the pass-through ablation.
#[derive(Debug, Clone)]
pub struct IngressGate {
    /// Per-source admitted high-water marks and reorder buffers.
    seq: Sequencer<UpdateMessage>,
    /// False = pass-through (the broken-recovery ablation).
    dedupe: bool,
    duplicates_dropped: Counter,
    resequenced: Counter,
    obs: Collector,
}

impl Default for IngressGate {
    fn default() -> Self {
        IngressGate::new()
    }
}

impl IngressGate {
    /// A gate with detached counters (bind with [`IngressGate::bind_obs`]).
    pub fn new() -> Self {
        IngressGate {
            seq: Sequencer::new(HashMap::new()),
            dedupe: true,
            duplicates_dropped: Counter::default(),
            resequenced: Counter::default(),
            obs: Collector::disabled(),
        }
    }

    /// Binds the gate's counters into a collector's registry and keeps the
    /// handle for per-message provenance (`ingress.*` stages).
    pub fn bind_obs(&mut self, obs: &Collector) {
        self.duplicates_dropped = obs.counter("fault.duplicates_dropped");
        self.resequenced = obs.counter("fault.resequenced");
        self.obs = obs.clone();
    }

    /// Enables/disables dedupe+resequencing (disable only to demonstrate
    /// that the chaos suite catches the resulting corruption).
    pub fn set_dedupe(&mut self, enabled: bool) {
        self.dedupe = enabled;
    }

    /// Messages parked in reorder buffers.
    pub fn pending(&self) -> usize {
        self.seq.buffered()
    }

    /// Whether dedupe+resequencing is enabled.
    pub fn dedupe_enabled(&self) -> bool {
        self.dedupe
    }

    /// The admitted high-water marks as sorted `(source, version)` pairs —
    /// the warehouse WAL persists these so a restart resubscribes from
    /// exactly where admission stopped.
    pub fn marks(&self) -> Vec<(u32, u64)> {
        self.seq.streams().into_iter().map(|s| (s, self.seq.delivered(s))).collect()
    }

    /// Raises `source`'s mark to at least `version`, whatever the dedupe
    /// switch says: how recovery restores a checkpoint's marks and replays
    /// a logged admission. Reorder buffers stay empty: anything parked
    /// before a crash is redelivered by resubscription.
    pub(crate) fn raise_mark(&mut self, source: u32, version: u64) {
        self.seq.set_floor(source, version);
    }

    /// Memory footprint: retained map entries (per-source marks, live
    /// reorder buffers) plus parked messages. The gate keeps **no**
    /// per-version state at or below the high-water mark — dedupe there is a
    /// single integer compare — so under any redelivery volume this stays
    /// O(sources + reorder window).
    pub fn footprint(&self) -> usize {
        self.seq.streams().len() + self.seq.gaps().len() + self.pending()
    }

    /// Offers one message; returns the messages now admissible, in order.
    /// `floor` is the version the view already reflects for the source:
    /// nothing at or below it is admitted. Reflected versions trail the
    /// admitted mark, so it only bites as the baseline the first time a
    /// source is seen.
    pub fn admit(&mut self, msg: UpdateMessage, floor: u64) -> Vec<UpdateMessage> {
        if !self.dedupe {
            return vec![msg];
        }
        let (source, id) = (msg.source.0, msg.id.0);
        self.seq.set_floor(source, floor);
        if self.seq.offer(source, msg.source_version, msg).duplicate {
            self.duplicates_dropped.inc();
            self.obs.prov(id, stage::INGRESS_DUP, &[]);
        }
        let mut out = Vec::new();
        self.seq.pop_ready(&mut out);
        if out.len() > 1 {
            self.resequenced.add(out.len() as u64 - 1);
            // The gap-filling arrival releases first; everything after it
            // was waiting in the reorder buffer.
            for m in &out[1..] {
                self.obs.prov(m.id.0, stage::INGRESS_RESEQ, &[]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyno_relational::{AttrType, DataUpdate, Delta, Schema, SourceUpdate, Tuple};
    use dyno_source::{SourceId, UpdateId};

    fn msg(id: u64, source: u32, version: u64) -> UpdateMessage {
        let schema = Schema::of("R", &[("a", AttrType::Int)]);
        UpdateMessage {
            id: UpdateId(id),
            source: SourceId(source),
            source_version: version,
            update: SourceUpdate::Data(DataUpdate::new(
                Delta::inserts(schema, [Tuple::of([id as i64])]).unwrap(),
            )),
        }
    }

    fn released(out: &[UpdateMessage]) -> Vec<u64> {
        out.iter().map(|m| m.source_version).collect()
    }

    #[test]
    fn in_order_messages_flow_through() {
        let mut g = IngressGate::new();
        assert_eq!(released(&g.admit(msg(1, 0, 1), 0)), vec![1]);
        assert_eq!(released(&g.admit(msg(2, 0, 2), 0)), vec![2]);
        assert_eq!(g.pending(), 0);
    }

    #[test]
    fn duplicate_of_admitted_version_is_dropped() {
        let obs = Collector::wall();
        let mut g = IngressGate::new();
        g.bind_obs(&obs);
        assert_eq!(g.admit(msg(1, 0, 1), 0).len(), 1);
        assert!(g.admit(msg(1, 0, 1), 0).is_empty());
        assert!(g.admit(msg(1, 0, 1), 0).is_empty());
        assert_eq!(obs.registry().counter_value("fault.duplicates_dropped"), Some(2));
    }

    #[test]
    fn early_arrival_waits_for_predecessor() {
        let mut g = IngressGate::new();
        assert!(g.admit(msg(3, 0, 3), 0).is_empty());
        assert!(g.admit(msg(2, 0, 2), 0).is_empty());
        assert_eq!(g.pending(), 2);
        assert_eq!(released(&g.admit(msg(1, 0, 1), 0)), vec![1, 2, 3]);
        assert_eq!(g.pending(), 0);
    }

    #[test]
    fn duplicate_of_buffered_version_is_dropped() {
        let mut g = IngressGate::new();
        assert!(g.admit(msg(2, 0, 2), 0).is_empty());
        assert!(g.admit(msg(2, 0, 2), 0).is_empty());
        assert_eq!(g.pending(), 1, "second copy was not double-buffered");
    }

    #[test]
    fn floor_seeds_the_baseline_per_source() {
        let mut g = IngressGate::new();
        assert!(g.admit(msg(1, 0, 3), 3).is_empty(), "at the floor: duplicate");
        assert_eq!(released(&g.admit(msg(2, 0, 4), 3)), vec![4]);
        // Sources are independent.
        assert_eq!(released(&g.admit(msg(3, 1, 1), 0)), vec![1]);
    }

    #[test]
    fn marks_round_trip_through_restore() {
        let mut g = IngressGate::new();
        g.admit(msg(1, 0, 1), 0);
        g.admit(msg(2, 0, 2), 0);
        g.admit(msg(3, 1, 1), 0);
        assert_eq!(g.marks(), vec![(0, 2), (1, 1)]);

        let mut fresh = IngressGate::new();
        for (source, mark) in g.marks() {
            fresh.raise_mark(source, mark);
        }
        assert!(fresh.admit(msg(4, 0, 2), 0).is_empty(), "below restored mark: duplicate");
        assert_eq!(released(&fresh.admit(msg(5, 0, 3), 0)), vec![3]);
    }

    #[test]
    fn footprint_stays_bounded_under_redelivery_heavy_traffic() {
        // An at-least-once transport redelivers every message many times and
        // the stream is long. A seen-set design would grow O(versions); the
        // high-water-mark design must stay O(sources + reorder window).
        let mut g = IngressGate::new();
        let mut admitted = 0u64;
        for v in 1..=1_000u64 {
            for _ in 0..3 {
                admitted += g.admit(msg(v, 0, v), 0).len() as u64;
            }
            // A stale duplicate from far below the mark, every round.
            g.admit(msg(1, 0, 1), 0);
        }
        assert_eq!(admitted, 1_000);
        assert_eq!(
            g.footprint(),
            1,
            "one mark entry, no buffers: memory is independent of stream length"
        );

        // Now with a persistent reorder gap of window 4.
        let mut g = IngressGate::new();
        for v in 2..=1_000u64 {
            g.admit(msg(v, 0, v), 0);
            if v >= 5 {
                // Predecessor arrives 4 versions late.
                g.admit(msg(v - 4, 0, v - 4), 0);
                g.admit(msg(v - 4, 0, v - 4), 0); // and is redelivered
            }
        }
        assert!(
            g.footprint() <= 2 + 4,
            "footprint {} exceeds marks + reorder window",
            g.footprint()
        );
    }

    #[test]
    fn drained_reorder_buffer_leaves_no_empty_entry() {
        let mut g = IngressGate::new();
        for s in 0..100u32 {
            assert!(g.admit(msg(1, s, 2), 0).is_empty(), "parks: gap at version 1");
            assert_eq!(g.admit(msg(2, s, 1), 0).len(), 2, "gap fills, buffer drains");
        }
        assert_eq!(g.pending(), 0);
        assert_eq!(g.footprint(), 100, "only the 100 marks remain — no empty buffers");
    }

    #[test]
    fn disabled_gate_passes_duplicates() {
        let mut g = IngressGate::new();
        g.set_dedupe(false);
        assert_eq!(g.admit(msg(1, 0, 1), 0).len(), 1);
        assert_eq!(g.admit(msg(1, 0, 1), 0).len(), 1, "ablation: the dup leaks");
    }
}
