//! Delivery recovery: the receiver-side sequencer that turns the chaos
//! transport's lossy, duplicated, out-of-order stream back into exactly-once
//! in-order per-source delivery.
//!
//! The UMQ's dependency analysis chains a source's updates by *queue
//! position*, so within-source version order on enqueue is a correctness
//! requirement, not a nicety; cross-source interleaving stays free. The
//! sequencer dedupes by (source, version) — equivalent to `UpdateId` dedupe,
//! since versions are dense per source — buffers out-of-order arrivals, and
//! NACKs the transport on gaps so dropped messages are refetched from the
//! wrapper's send log.

use std::collections::{BTreeMap, HashMap};

use dyno_obs::{Collector, Counter};
use dyno_source::{SourceId, UpdateMessage};

use crate::transport::Transport;

/// Recovery-side registry handles.
#[derive(Debug, Clone, Default)]
struct RecoveryCounters {
    duplicates_dropped: Counter,
    out_of_order: Counter,
    gap_refetches: Counter,
}

impl RecoveryCounters {
    fn bind(obs: &Collector) -> Self {
        RecoveryCounters {
            duplicates_dropped: obs.counter("fault.duplicates_dropped"),
            out_of_order: obs.counter("fault.out_of_order"),
            gap_refetches: obs.counter("fault.gap_refetches"),
        }
    }
}

/// What [`Sequencer::offer`] decided about one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Offer {
    /// Redundant copy: at or below the release floor, or already buffered.
    pub duplicate: bool,
    /// Arrived ahead of a gap (`seq > floor + 1`).
    pub out_of_order: bool,
}

/// The message-agnostic resequencing core: per-stream exactly-once, in-order
/// release via a dense sequence number. Streams are keyed by `u32` (a
/// `SourceId` for warehouse ingress, a peer replica id for the replication
/// engine); the caller owns counters and gap refetching, the sequencer owns
/// floors and reorder buffers.
#[derive(Debug, Clone, Default)]
pub struct Sequencer<M> {
    /// Highest sequence released to the consumer, per stream.
    delivered: HashMap<u32, u64>,
    /// Out-of-order arrivals waiting for their predecessors, keyed by
    /// stream then sequence (BTreeMaps so release order is deterministic).
    buffer: BTreeMap<u32, BTreeMap<u64, M>>,
}

impl<M> Sequencer<M> {
    /// A sequencer whose baseline is the per-stream sequences already known
    /// to the consumer (messages at or below the baseline are duplicates).
    pub fn new(baseline: HashMap<u32, u64>) -> Self {
        Sequencer { delivered: baseline, buffer: BTreeMap::new() }
    }

    /// Highest sequence released for `stream` (0 if unknown).
    pub fn delivered(&self, stream: u32) -> u64 {
        self.delivered.get(&stream).copied().unwrap_or(0)
    }

    /// Registers `stream` and raises its release floor to at least `seq`
    /// (used when restoring durable floors after a restart).
    pub fn set_floor(&mut self, stream: u32, seq: u64) {
        let d = self.delivered.entry(stream).or_insert(0);
        *d = (*d).max(seq);
    }

    /// Messages currently parked in reorder buffers.
    pub fn buffered(&self) -> usize {
        self.buffer.values().map(BTreeMap::len).sum()
    }

    /// Every known stream (released or buffered), ascending.
    pub fn streams(&self) -> Vec<u32> {
        let mut s: Vec<u32> = self.delivered.keys().copied().collect();
        s.sort_unstable();
        s
    }

    /// Offers one message; duplicates are discarded, everything else parks
    /// in the reorder buffer until [`Sequencer::pop_ready`].
    pub fn offer(&mut self, stream: u32, seq: u64, m: M) -> Offer {
        let d = self.delivered.entry(stream).or_insert(0);
        if seq <= *d {
            return Offer { duplicate: true, out_of_order: false };
        }
        let out_of_order = seq > *d + 1;
        let duplicate = self.buffer.entry(stream).or_default().insert(seq, m).is_some();
        Offer { duplicate, out_of_order }
    }

    /// Offers one message and releases into `out` what it makes
    /// deliverable on its stream: [`Sequencer::offer`] then
    /// [`Sequencer::pop_ready`] for a caller that releases after every
    /// offer, so that no other stream can hold a ready prefix. The next
    /// expected sequence of a stream with nothing parked goes straight to
    /// `out`: an in-order stream never touches a reorder buffer.
    pub fn offer_release(&mut self, stream: u32, seq: u64, m: M, out: &mut Vec<M>) -> Offer {
        let d = self.delivered.entry(stream).or_insert(0);
        if seq == *d + 1 && !self.buffer.contains_key(&stream) {
            *d = seq;
            out.push(m);
            return Offer::default();
        }
        let offer = self.offer(stream, seq, m);
        if let Some(buf) = self.buffer.get_mut(&stream) {
            let d = self.delivered.entry(stream).or_insert(0);
            release_prefix(d, buf, out);
            if buf.is_empty() {
                self.buffer.remove(&stream);
            }
        }
        offer
    }

    /// Releases every contiguous prefix (per stream, ascending stream order)
    /// into `out`, advancing the floors. A drained reorder buffer is evicted:
    /// memory stays O(streams + parked messages) however many streams have
    /// ever been out of order.
    pub fn pop_ready(&mut self, out: &mut Vec<M>) {
        self.buffer.retain(|s, buf| {
            release_prefix(self.delivered.entry(*s).or_insert(0), buf, out);
            !buf.is_empty()
        });
    }

    /// Streams still holding parked messages, with their release floors —
    /// i.e. where the caller should refetch `(floor, first_buffered)` from.
    pub fn gaps(&self) -> Vec<(u32, u64)> {
        self.buffer.keys().map(|&s| (s, self.delivered(s))).collect()
    }
}

/// Moves the parked run that continues floor `d` from `buf` into `out`,
/// advancing `d` past it.
fn release_prefix<M>(d: &mut u64, buf: &mut BTreeMap<u64, M>, out: &mut Vec<M>) {
    while let Some(entry) = buf.first_entry() {
        if *entry.key() == *d + 1 {
            out.push(entry.remove());
            *d += 1;
        } else {
            break;
        }
    }
}

/// Per-source resequencing state between a [`Transport`] and the consumer:
/// a [`Sequencer`] keyed by source id plus the transport-facing NACK loop
/// and fault counters.
#[derive(Debug, Clone)]
pub struct Recovery {
    seq: Sequencer<UpdateMessage>,
    /// False = broken-recovery ablation: everything passes through verbatim
    /// (duplicates, gaps and all), which demonstrably violates convergence.
    enabled: bool,
    counters: RecoveryCounters,
}

impl Recovery {
    /// A sequencer whose baseline is the per-source versions already known
    /// to the consumer (messages at or below the baseline are duplicates).
    pub fn new(baseline: HashMap<SourceId, u64>) -> Self {
        Recovery {
            seq: Sequencer::new(baseline.into_iter().map(|(s, v)| (s.0, v)).collect()),
            enabled: true,
            counters: RecoveryCounters::default(),
        }
    }

    /// Binds the `fault.duplicates_dropped` / `fault.out_of_order` /
    /// `fault.gap_refetches` counters into a collector's registry.
    pub fn with_obs(mut self, obs: &Collector) -> Self {
        self.counters = RecoveryCounters::bind(obs);
        self
    }

    /// Disables dedupe/resequencing (the deliberately broken recovery path
    /// used to prove the chaos suite can fail).
    pub fn with_recovery(mut self, enabled: bool) -> Self {
        self.enabled = enabled;
        self
    }

    /// Highest version released for `source`.
    pub fn delivered(&self, source: SourceId) -> u64 {
        self.seq.delivered(source.0)
    }

    /// Messages currently parked in reorder buffers.
    pub fn buffered(&self) -> usize {
        self.seq.buffered()
    }

    /// Feeds transport deliveries through the sequencer; released in-order
    /// messages are appended to `out`. Gaps trigger a NACK/refetch against
    /// the transport.
    pub fn admit(
        &mut self,
        msgs: Vec<UpdateMessage>,
        transport: &mut dyn Transport,
        out: &mut Vec<UpdateMessage>,
    ) {
        if !self.enabled {
            out.extend(msgs);
            return;
        }
        for m in msgs {
            self.insert(m);
        }
        self.release(transport, out);
    }

    /// Forces delivery of everything `source` has committed up to `version`
    /// (the consistency-critical flush: a maintenance query has just *seen*
    /// that state, so compensation needs the messages now, not later).
    pub fn sync_to(
        &mut self,
        source: SourceId,
        version: u64,
        transport: &mut dyn Transport,
        out: &mut Vec<UpdateMessage>,
    ) {
        if !self.enabled {
            return;
        }
        let d = self.delivered(source);
        if d >= version {
            return;
        }
        self.counters.gap_refetches.inc();
        let refetched = transport.nack(source, d);
        for m in refetched {
            self.insert(m);
        }
        self.release(transport, out);
    }

    /// Final-drain flush: refetches every held message for every known
    /// source (quiescence must not strand messages inside the transport).
    pub fn flush_all(&mut self, transport: &mut dyn Transport, out: &mut Vec<UpdateMessage>) {
        if !self.enabled {
            out.extend(transport.poll(u64::MAX));
            return;
        }
        for s in self.seq.streams() {
            let refetched = transport.nack(SourceId(s), self.seq.delivered(s));
            for m in refetched {
                self.insert(m);
            }
        }
        self.release(transport, out);
    }

    fn insert(&mut self, m: UpdateMessage) {
        let offer = self.seq.offer(m.source.0, m.source_version, m);
        if offer.out_of_order {
            self.counters.out_of_order.inc();
        }
        if offer.duplicate {
            self.counters.duplicates_dropped.inc();
        }
    }

    /// Releases every contiguous prefix; NACKs once per gapped source and
    /// retries until the transport has nothing more to give.
    fn release(&mut self, transport: &mut dyn Transport, out: &mut Vec<UpdateMessage>) {
        loop {
            self.seq.pop_ready(out);
            let gaps = self.seq.gaps();
            if gaps.is_empty() {
                return;
            }
            let mut refetched = Vec::new();
            for (s, d) in gaps {
                self.counters.gap_refetches.inc();
                refetched.extend(transport.nack(SourceId(s), d));
            }
            if refetched.is_empty() {
                // The missing messages have not reached the transport yet
                // (e.g. still buffered at the wrapper); they stay parked in
                // the reorder buffer until a later admit.
                return;
            }
            for m in refetched {
                self.insert(m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::FaultProfile;
    use crate::transport::{ChaosTransport, Direct};
    use dyno_relational::{AttrType, DataUpdate, Delta, Schema, SourceUpdate, Tuple};
    use dyno_source::UpdateId;

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

    fn versions(out: &[UpdateMessage]) -> Vec<(u32, u64)> {
        out.iter().map(|m| (m.source.0, m.source_version)).collect()
    }

    #[test]
    fn sequencer_is_message_agnostic() {
        let mut s: Sequencer<&'static str> = Sequencer::new(HashMap::new());
        assert!(s.offer(7, 2, "b").out_of_order, "arrived over a gap");
        assert!(s.offer(7, 2, "b2").duplicate, "buffer duplicate");
        let mut out = Vec::new();
        s.pop_ready(&mut out);
        assert!(out.is_empty());
        assert_eq!(s.gaps(), vec![(7, 0)]);
        let first = s.offer(7, 1, "a");
        assert!(!first.duplicate && !first.out_of_order);
        s.pop_ready(&mut out);
        assert_eq!(out, vec!["a", "b2"], "latest copy wins the buffer slot");
        assert_eq!(s.delivered(7), 2);
        assert!(s.offer(7, 2, "b3").duplicate, "below the floor");
        assert_eq!(s.streams(), vec![7]);
    }

    #[test]
    fn sequencer_set_floor_only_raises() {
        let mut s: Sequencer<u8> = Sequencer::new(HashMap::new());
        s.set_floor(1, 5);
        s.set_floor(1, 3);
        assert_eq!(s.delivered(1), 5);
        assert!(s.offer(1, 4, 0).duplicate);
    }

    #[test]
    fn in_order_stream_passes_through() {
        let mut r = Recovery::new(HashMap::new());
        let mut t = Direct;
        let mut out = Vec::new();
        r.admit(vec![msg(1, 0, 1), msg(2, 0, 2), msg(3, 1, 1)], &mut t, &mut out);
        assert_eq!(versions(&out), vec![(0, 1), (0, 2), (1, 1)]);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn duplicates_are_dropped() {
        let mut r = Recovery::new(HashMap::new());
        let mut t = Direct;
        let mut out = Vec::new();
        r.admit(vec![msg(1, 0, 1), msg(1, 0, 1), msg(2, 0, 2)], &mut t, &mut out);
        r.admit(vec![msg(2, 0, 2)], &mut t, &mut out);
        assert_eq!(versions(&out), vec![(0, 1), (0, 2)], "each version released once");
    }

    #[test]
    fn out_of_order_is_buffered_then_released_in_order() {
        let mut r = Recovery::new(HashMap::new());
        let mut t = Direct;
        let mut out = Vec::new();
        r.admit(vec![msg(3, 0, 3), msg(2, 0, 2)], &mut t, &mut out);
        assert!(out.is_empty(), "v1 missing: nothing released");
        assert_eq!(r.buffered(), 2);
        r.admit(vec![msg(1, 0, 1)], &mut t, &mut out);
        assert_eq!(versions(&out), vec![(0, 1), (0, 2), (0, 3)]);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn gap_is_refetched_from_the_transport() {
        let mut t = ChaosTransport::new(FaultProfile { drop_pm: 1000, ..FaultProfile::quiet() }, 1);
        // v1 and v2 are dropped into the transport's hold…
        assert!(t.send(vec![msg(1, 0, 1), msg(2, 0, 2)], 0).is_empty());
        let mut r = Recovery::new(HashMap::new());
        let mut out = Vec::new();
        // …v3 arrives directly; the gap NACK pulls v1 and v2 back.
        r.admit(vec![msg(3, 0, 3)], &mut t, &mut out);
        assert_eq!(versions(&out), vec![(0, 1), (0, 2), (0, 3)]);
    }

    #[test]
    fn sync_to_force_delivers_known_state() {
        let mut t = ChaosTransport::new(FaultProfile { drop_pm: 1000, ..FaultProfile::quiet() }, 1);
        assert!(t.send(vec![msg(1, 0, 1), msg(2, 0, 2)], 0).is_empty());
        let mut r = Recovery::new(HashMap::new());
        let mut out = Vec::new();
        // A query just saw source 0 at version 2: everything through v2 must
        // be delivered now for compensation to be complete.
        r.sync_to(SourceId(0), 2, &mut t, &mut out);
        assert_eq!(versions(&out), vec![(0, 1), (0, 2)]);
        assert_eq!(r.delivered(SourceId(0)), 2);
    }

    #[test]
    fn baseline_filters_pre_initialization_messages() {
        let mut r = Recovery::new(HashMap::from([(SourceId(0), 2)]));
        let mut t = Direct;
        let mut out = Vec::new();
        r.admit(vec![msg(1, 0, 1), msg(2, 0, 2), msg(3, 0, 3)], &mut t, &mut out);
        assert_eq!(versions(&out), vec![(0, 3)], "baseline versions are duplicates");
    }

    #[test]
    fn disabled_recovery_passes_everything_verbatim() {
        let mut r = Recovery::new(HashMap::new()).with_recovery(false);
        let mut t = Direct;
        let mut out = Vec::new();
        r.admit(vec![msg(2, 0, 2), msg(1, 0, 1), msg(1, 0, 1)], &mut t, &mut out);
        assert_eq!(versions(&out), vec![(0, 2), (0, 1), (0, 1)], "dups and disorder leak");
    }

    #[test]
    fn flush_all_drains_the_transport() {
        let profile = FaultProfile { delay_pm: 500, drop_pm: 500, ..FaultProfile::quiet() };
        let mut t = ChaosTransport::new(FaultProfile { max_delay_us: 1_000_000, ..profile }, 4);
        let sent: Vec<UpdateMessage> = (1..=20).map(|v| msg(v, 0, v)).collect();
        let mut r = Recovery::new(HashMap::from([(SourceId(0), 0)]));
        let mut out = Vec::new();
        let delivered = t.send(sent, 0);
        r.admit(delivered, &mut t, &mut out);
        r.flush_all(&mut t, &mut out);
        assert_eq!(out.len(), 20, "every message exactly once");
        assert!(versions(&out).windows(2).all(|w| w[0].1 + 1 == w[1].1));
        assert_eq!(t.held_len(), 0);
    }

    /// A seeded train of in-order runs, redeliveries, gaps filled late and
    /// floor raises (each followed by an offer on its stream, as the
    /// warehouse's admission gate does), over a few streams:
    /// `offer_release` must release exactly what `offer` + `pop_ready`
    /// released, with the same verdicts, floors and parked messages.
    #[test]
    fn offer_release_matches_offer_then_pop_ready() {
        for seed in 0..64u64 {
            let mut rng = crate::rng::Rng::new(seed);
            let mut fast: Sequencer<u64> = Sequencer::new(HashMap::new());
            let mut model: Sequencer<u64> = Sequencer::new(HashMap::new());
            let mut next = [1u64; 3];
            for step in 0..200 {
                let stream = rng.gen_range(0..3u32);
                if rng.gen_ratio(1, 10) {
                    let floor = fast.delivered(stream) + rng.gen_range(0..3u64);
                    fast.set_floor(stream, floor);
                    model.set_floor(stream, floor);
                }
                let top = next[stream as usize];
                let seq = match rng.gen_range(0..9u32) {
                    0..=4 => top,                          // in order
                    5 | 6 => top + rng.gen_range(1..4u64), // over a gap
                    7 => rng.gen_range(1..top + 1),        // a redelivery
                    _ => fast.delivered(stream) + 1,       // fills a gap
                };
                next[stream as usize] = next[stream as usize].max(seq + 1);
                let m = (u64::from(stream) << 32) | seq;
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let offer = fast.offer_release(stream, seq, m, &mut got);
                assert_eq!(offer, model.offer(stream, seq, m), "seed {seed} step {step}");
                model.pop_ready(&mut want);
                assert_eq!(got, want, "seed {seed} step {step}: released");
                assert_eq!(fast.buffered(), model.buffered(), "seed {seed} step {step}");
                assert_eq!(fast.gaps(), model.gaps(), "seed {seed} step {step}");
            }
            assert_eq!(fast.streams(), model.streams());
        }
    }
}
