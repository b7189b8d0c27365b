//! The per-replica replication engine: publishes its replica's client
//! writes to peers, resolves incoming peer writes against causal conflict
//! registers, and survives kills through the warehouse WAL.
//!
//! ## Conflict model
//!
//! Each replica keeps one **register** per `(relation, key)`: the [`Stamp`]
//! of the last write that won there. An incoming [`PeerDelta`] compares its
//! vector clock against the register's:
//!
//! * register absent, or message **dominates** → causally ordered; apply.
//! * message **dominated** (or equal) → stale; discard as superseded.
//! * **incomparable** → the cross-replica dependency class
//!   ([`DepKind::Replica`], "rd"): neither writer saw the other. The HLC
//!   resolves it — higher `(hlc, origin)` wins deterministically; the loser
//!   is logged to lineage as `superseded` and leaves no residue (a write is
//!   a keyed upsert, so the winner replaces the key's row wholesale).
//!
//! The engine only decides. The caller commits its replica's own client
//! write and every winner the engine returns to the replica's sources as an
//! ordinary source update, which the replica's warehouse then maintains
//! like any other.
//!
//! ## Durability protocol
//!
//! Publish order is **log, then send**: the `Published` WAL record (full
//! message bodies) lands before any message reaches the network, so a crash
//! between the two re-sends those exact bytes instead of reusing sequence
//! numbers for different content. Every resolved message lands as a
//! `Remote` record ([`RemoteMeta`]) before its winner is returned, so
//! registers and delivery floors survive a kill. Both records are bytes the
//! warehouse carries without reading. [`ReplicaEngine::recover`] folds the
//! checkpoint snapshot plus the WAL tail and keeps every unacked outbox
//! message for the caller to re-send.

use std::collections::BTreeMap;
use std::collections::HashMap;

use dyno_core::clock::{CausalOrder, Hlc, VectorClock};
use dyno_core::DepKind;
use dyno_durable::codec::{dec_seq, enc_seq, Dec, Enc, WireError};
use dyno_fault::Sequencer;
use dyno_obs::trace::field;
use dyno_obs::{stage, Collector, Counter, Gauge, Histogram};
use dyno_relational::wire::{dec_value, enc_value};
use dyno_relational::{RelationalError, Tuple, Value};
use dyno_view::wal::ReplicaTailEvent;
use dyno_view::{ViewError, Warehouse};

use crate::wire::{
    dec_msg, dec_peer_delta, dec_published, dec_remote_meta, dec_stamp, enc_msg, enc_peer_delta,
    enc_published, enc_remote_meta, enc_stamp, PeerDelta, PublishedRecord, RemoteMeta, Stamp,
};

/// Bit marking a synthetic peer-message lineage id; disjoint from both real
/// causal ids (small integers) and batch ids (`1 << 63`).
pub(crate) const REPL_BIT: u64 = 1 << 62;

/// The synthetic lineage id of message `seq` from `origin`.
pub(crate) fn msg_lineage_id(origin: u16, seq: u64) -> u64 {
    REPL_BIT | ((origin as u64) << 48) | (seq & 0xFFFF_FFFF_FFFF)
}

/// Static gauge names for per-peer replication lag (gauge names must be
/// `'static`; eight peers is far beyond the tested replica counts).
const LAG_GAUGES: [&str; 8] = [
    "replica.lag_us.r0",
    "replica.lag_us.r1",
    "replica.lag_us.r2",
    "replica.lag_us.r3",
    "replica.lag_us.r4",
    "replica.lag_us.r5",
    "replica.lag_us.r6",
    "replica.lag_us.r7",
];

/// One message queued for the network: `(receiving peer, link seq, body)`.
#[derive(Debug, Clone)]
pub struct Outgoing {
    /// Receiving replica.
    pub to: u16,
    /// Per-link sequence number.
    pub seq: u64,
    /// The encoded message.
    pub bytes: Vec<u8>,
}

/// The per-replica replication engine (one per [`Warehouse`] peer).
#[derive(Debug)]
pub struct ReplicaEngine {
    id: u16,
    n: usize,
    hlc: Hlc,
    vc: VectorClock,
    registers: BTreeMap<(String, Value), Stamp>,
    /// Next sequence number per outgoing link (1-based; index = peer id).
    next_seq: Vec<u64>,
    /// Unacked sent messages per link, for re-send after a kill or NACK.
    outbox: Vec<BTreeMap<u64, PeerDelta>>,
    /// Per-origin reorder buffer; releases contiguous runs, reports gaps.
    inbox: Sequencer<PeerDelta>,
    obs: Collector,
    published: Counter,
    remote_applied: Counter,
    superseded: Counter,
    conflicts: Counter,
    duplicates: Counter,
    lag: Vec<Gauge>,
    /// Apply-side lag distribution across all origins (`replica.lag_us`):
    /// the histogram behind `monitor`'s lag lane and the live p50/p95/p99
    /// in `forensics --replica`.
    lag_hist: Histogram,
}

impl ReplicaEngine {
    /// A fresh engine for replica `id` of `n`. Binds the `replica.*`
    /// counters.
    pub fn new(id: u16, n: usize, obs: Collector) -> Self {
        assert!((id as usize) < n, "replica id out of range");
        assert!(n <= LAG_GAUGES.len(), "at most {} replicas", LAG_GAUGES.len());
        let lag = (0..n).map(|i| obs.gauge(LAG_GAUGES[i])).collect();
        ReplicaEngine {
            id,
            n,
            hlc: Hlc::new(),
            vc: VectorClock::new(n),
            registers: BTreeMap::new(),
            next_seq: vec![1; n],
            outbox: (0..n).map(|_| BTreeMap::new()).collect(),
            inbox: Sequencer::new(HashMap::new()),
            published: obs.counter("replica.published"),
            remote_applied: obs.counter("replica.remote_applied"),
            superseded: obs.counter("replica.superseded"),
            conflicts: obs.counter("replica.conflicts"),
            duplicates: obs.counter("replica.duplicates"),
            lag,
            lag_hist: obs.histogram("replica.lag_us"),
            obs,
        }
    }

    /// The delivery floor for messages from `origin` (contiguously resolved).
    pub fn delivered(&self, origin: u16) -> u64 {
        self.inbox.delivered(origin as u32)
    }

    /// Streams with buffered-but-gapped deliveries, as `(origin, floor)` —
    /// NACK the origin for everything after `floor`.
    pub fn gaps(&self) -> Vec<(u16, u64)> {
        self.inbox.gaps().into_iter().map(|(s, f)| (s as u16, f)).collect()
    }

    /// Peer `peer` has durably resolved everything up to `seq`; drop those
    /// outbox copies. Acks are volatile — a crashed receiver re-dedupes
    /// re-sent copies via its recovered floor.
    pub fn acked(&mut self, peer: u16, seq: u64) {
        let ob = &mut self.outbox[peer as usize];
        *ob = ob.split_off(&(seq + 1));
    }

    /// Every unacked outbox message (kill recovery re-sends all of these).
    pub fn unacked(&self) -> Vec<Outgoing> {
        let mut out = Vec::new();
        for (peer, ob) in self.outbox.iter().enumerate() {
            for (&seq, m) in ob {
                out.push(Outgoing { to: peer as u16, seq, bytes: enc_msg(m) });
            }
        }
        out
    }

    /// Publishes one client write this replica's sources just committed:
    /// `row` replaces the rows of `relation` keyed by its first attribute.
    /// Stamps it (HLC tick + vector-clock bump), takes its register, writes
    /// the durable `Published` record, refreshes the engine snapshot, and
    /// returns the copies to hand to the network. **Log-then-send**: callers
    /// must not send before this call's WAL writes (the method itself
    /// guarantees the order; a crash after it re-sends from the outbox).
    pub fn publish(
        &mut self,
        wh: &mut Warehouse,
        relation: &str,
        row: &Tuple,
        now_us: u64,
    ) -> Vec<Outgoing> {
        self.vc.bump(self.id as usize);
        let hlc = self.hlc.tick(now_us);
        let vc = self.vc.counters().to_vec();
        let body = PeerDelta {
            origin: self.id,
            seq: 0,
            relation: relation.into(),
            row: row.clone(),
            hlc,
            vc,
        };
        self.registers.insert(body.register(), body.stamp());

        let mut record = PublishedRecord { msgs: Vec::new() };
        let mut out = Vec::new();
        for peer in (0..self.n as u16).filter(|&p| p != self.id) {
            let seq = self.next_seq[peer as usize];
            self.next_seq[peer as usize] += 1;
            let msg = PeerDelta { seq, ..body.clone() };
            self.obs.prov(
                msg_lineage_id(self.id, seq),
                stage::REPL_SEND,
                &[
                    field("peer", peer as u64),
                    field("seq", seq),
                    field("relation", relation.to_string()),
                ],
            );
            self.outbox[peer as usize].insert(seq, msg.clone());
            out.push(Outgoing { to: peer, seq, bytes: enc_msg(&msg) });
            record.msgs.push((peer, msg));
        }
        self.published.inc();
        wh.log_replica_published(&enc_published(&record));
        wh.set_replica_ext(self.encode_ext());
        wh.maybe_checkpoint();
        out
    }

    /// Offers one network delivery to the reorder buffer and resolves every
    /// message that became contiguously deliverable. Returns the winning
    /// writes, in resolution order, as `(relation, row)`: the caller commits
    /// each to its replica's sources as a keyed upsert.
    pub fn on_delivery(
        &mut self,
        wh: &mut Warehouse,
        bytes: &[u8],
        now_us: u64,
    ) -> Result<Vec<(String, Tuple)>, ViewError> {
        let msg = dec_msg(bytes).map_err(|e| corrupt("peer delta", e))?;
        let mut ready = Vec::new();
        if self.inbox.offer_release(msg.origin as u32, msg.seq, msg, &mut ready).duplicate {
            self.duplicates.inc();
        }
        let winners = ready.into_iter().filter_map(|m| self.resolve(wh, m, now_us)).collect();
        wh.set_replica_ext(self.encode_ext());
        wh.maybe_checkpoint();
        Ok(winners)
    }

    /// Resolves one causally-released message against its register, logs
    /// the resolution, and returns the write when it won.
    fn resolve(
        &mut self,
        wh: &mut Warehouse,
        msg: PeerDelta,
        now_us: u64,
    ) -> Option<(String, Tuple)> {
        let mid = msg_lineage_id(msg.origin, msg.seq);
        self.obs.prov(
            mid,
            stage::REPL_RECV,
            &[
                field("origin", msg.origin as u64),
                field("seq", msg.seq),
                field("relation", msg.relation.clone()),
            ],
        );
        let lag_us = now_us.saturating_sub(Hlc::unpack(msg.hlc).0);
        self.lag[msg.origin as usize].set(lag_us as i64);
        self.lag_hist.record(lag_us);

        let register = msg.register();
        let stamp = msg.stamp();
        let applied = match self.registers.get(&register) {
            None => true,
            Some(reg) => match VectorClock::restore(reg.vc.clone()).compare(&msg.vc) {
                CausalOrder::Before => true,
                CausalOrder::After | CausalOrder::Equal => false,
                CausalOrder::Concurrent => {
                    // The cross-replica dependency: neither writer observed
                    // the other. Deterministic last-writer-wins by HLC.
                    self.conflicts.inc();
                    self.obs.prov(
                        mid,
                        stage::CONFLICT,
                        &[
                            field("with", reg.origin as u64),
                            field("class", 5u64),
                            field("kind", DepKind::Replica.to_string()),
                        ],
                    );
                    stamp.wins_over(reg)
                }
            },
        };

        let ((origin, seq), (relation, key)) = ((msg.origin, msg.seq), register);
        let meta = RemoteMeta { origin, seq, relation, key, stamp, applied };
        wh.log_replica_remote(&enc_remote_meta(&meta));
        self.vc.merge(&msg.vc);
        self.hlc.observe(msg.hlc, now_us);

        if applied {
            self.registers.insert((meta.relation, meta.key), meta.stamp);
            self.remote_applied.inc();
            let fields = [field("origin", origin as u64), field("lag_us", lag_us)];
            self.obs.prov(mid, stage::REPL_APPLY, &fields);
            Some((msg.relation, msg.row))
        } else {
            self.superseded.inc();
            let kind = DepKind::Replica.to_string();
            let fields = [field("origin", origin as u64), field("kind", kind)];
            self.obs.prov(mid, stage::SUPERSEDED, &fields);
            None
        }
    }

    /// Serializes the engine for the warehouse checkpoint (see
    /// [`Warehouse::set_replica_ext`]).
    fn encode_ext(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.hlc.last());
        enc_seq(&mut e, self.vc.counters(), |e, &c| e.u64(c));
        enc_seq(&mut e, &self.next_seq, |e, &s| e.u64(s));
        let floors: Vec<u64> = (0..self.n).map(|i| self.inbox.delivered(i as u32)).collect();
        enc_seq(&mut e, &floors, |e, &f| e.u64(f));
        let regs: Vec<_> = self.registers.iter().collect();
        enc_seq(&mut e, &regs, |e, ((relation, key), stamp)| {
            e.str(relation);
            enc_value(e, key);
            enc_stamp(e, stamp);
        });
        let ob: Vec<(u64, &PeerDelta)> = self
            .outbox
            .iter()
            .enumerate()
            .flat_map(|(peer, m)| m.values().map(move |d| (peer as u64, d)))
            .collect();
        enc_seq(&mut e, &ob, |e, (peer, m)| {
            e.u64(*peer);
            enc_peer_delta(e, m);
        });
        e.finish()
    }

    fn decode_ext(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut d = Dec::new(bytes);
        self.hlc = Hlc::restore(d.u64()?);
        self.vc = VectorClock::restore(dec_seq(&mut d, |d| d.u64())?);
        self.next_seq = dec_seq(&mut d, |d| d.u64())?;
        let floors = dec_seq(&mut d, |d| d.u64())?;
        for (i, f) in floors.iter().enumerate() {
            self.inbox.set_floor(i as u32, *f);
        }
        let regs = dec_seq(&mut d, |d| Ok(((d.str()?, dec_value(d)?), dec_stamp(d)?)))?;
        self.registers = regs.into_iter().collect();
        let ob: Vec<(u64, PeerDelta)> = dec_seq(&mut d, |d| Ok((d.u64()?, dec_peer_delta(d)?)))?;
        for (peer, m) in ob {
            self.outbox[peer as usize].insert(m.seq, m);
        }
        Ok(())
    }

    /// Rebuilds an engine after a kill from the warehouse just recovered:
    /// folds the checkpoint snapshot ([`Warehouse::replica_ext`]) and the
    /// `Published`/`Remote` records replay left
    /// ([`Warehouse::take_replica_tail`]), then refreshes the engine
    /// snapshot so the recovery checkpoint is complete. The caller must then
    /// re-send [`ReplicaEngine::unacked`].
    pub fn recover(
        id: u16,
        n: usize,
        obs: Collector,
        wh: &mut Warehouse,
        now_us: u64,
    ) -> Result<Self, ViewError> {
        let mut eng = ReplicaEngine::new(id, n, obs);
        if !wh.replica_ext().is_empty() {
            eng.decode_ext(wh.replica_ext()).map_err(|e| corrupt("snapshot", e))?;
        }
        for ev in wh.take_replica_tail() {
            match ev {
                ReplicaTailEvent::Published { bytes } => {
                    let sent = dec_published(&bytes).map_err(|e| corrupt("publish record", e))?;
                    for (peer, m) in sent.msgs {
                        eng.next_seq[peer as usize] = eng.next_seq[peer as usize].max(m.seq + 1);
                        eng.registers.insert(m.register(), m.stamp());
                        eng.vc.merge(&m.vc);
                        eng.hlc.observe(m.hlc, now_us);
                        eng.outbox[peer as usize].insert(m.seq, m);
                    }
                }
                ReplicaTailEvent::Remote { bytes } => {
                    let meta = dec_remote_meta(&bytes).map_err(|e| corrupt("remote record", e))?;
                    eng.inbox.set_floor(meta.origin as u32, meta.seq);
                    if meta.applied {
                        eng.vc.merge(&meta.stamp.vc);
                        eng.hlc.observe(meta.stamp.hlc, now_us);
                        eng.registers.insert((meta.relation, meta.key), meta.stamp);
                    }
                }
            }
        }
        wh.set_replica_ext(eng.encode_ext());
        Ok(eng)
    }
}

/// A replication byte string that does not decode.
fn corrupt(what: &str, e: WireError) -> ViewError {
    let reason = format!("corrupt replica {what}: {e}");
    ViewError::Internal(RelationalError::InvalidQuery { reason })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyno_core::Strategy;
    use dyno_durable::MemStorage;
    use dyno_relational::{AttrType, Catalog, DataUpdate, Delta, Relation, Schema};
    use dyno_relational::{SourceUpdate, SpjQuery};
    use dyno_source::{SourceId, SourceServer, SourceSpace};
    use dyno_view::engine::InProcessPort;
    use dyno_view::wal::DurableLog;
    use dyno_view::ViewDefinition;

    fn space() -> SourceSpace {
        let mut c = Catalog::new();
        c.add_relation(
            Relation::from_tuples(
                Schema::of("R", &[("K", AttrType::Int), ("V", AttrType::Int)]),
                [Tuple::of([Value::from(1), Value::from(10)])],
            )
            .unwrap(),
        )
        .unwrap();
        let mut sp = SourceSpace::new();
        sp.add_server(SourceServer::new(SourceId(0), "s0", c));
        sp
    }

    fn view() -> ViewDefinition {
        let mut b = SpjQuery::over(["R".to_string()]);
        b = b.select_as("R", "K", "R_K").select_as("R", "V", "R_V");
        ViewDefinition::new("V", b.build())
    }

    fn replica(id: u16) -> (Warehouse, InProcessPort, MemStorage, ReplicaEngine, Collector) {
        let sp = space();
        let info = sp.info().clone();
        let mut port = InProcessPort::new(sp);
        let disk = MemStorage::new();
        let obs = Collector::wall();
        let mut wh = Warehouse::new(info, Strategy::Pessimistic).with_obs(obs.clone());
        wh.add_view(view());
        wh.initialize(&mut port).unwrap();
        let log = DurableLog::create(Box::new(disk.clone())).unwrap();
        let wh = wh.with_wal(log).expect("no admission bound");
        let eng = ReplicaEngine::new(id, 2, obs.clone());
        (wh, port, disk, eng, obs)
    }

    /// Commits `row` to `R` as a keyed upsert and maintains it — what the
    /// caller does with its own client write and with every winner.
    fn land(port: &mut InProcessPort, wh: &mut Warehouse, row: &Tuple) {
        let rel = port.space().server(SourceId(0)).catalog().get("R").unwrap();
        let schema = rel.schema().clone();
        let old = rel.rows().iter().filter(|(t, _)| t.get(0) == row.get(0)).map(|(t, _)| t.clone());
        let mut d = Delta::deletes(schema.clone(), old).unwrap();
        d.merge(&Delta::inserts(schema, [row.clone()]).unwrap()).unwrap();
        port.commit(SourceId(0), SourceUpdate::Data(DataUpdate::new(d))).unwrap();
        wh.run_to_quiescence(port, 100).unwrap();
    }

    /// A client write of `(k, v)` at a replica: committed, then published.
    fn write(
        (wh, port, eng): (&mut Warehouse, &mut InProcessPort, &mut ReplicaEngine),
        k: i64,
        v: i64,
        now_us: u64,
    ) -> Vec<Outgoing> {
        let row = Tuple::of([Value::from(k), Value::from(v)]);
        land(port, wh, &row);
        eng.publish(wh, "R", &row, now_us)
    }

    /// Delivers `bytes` and lands every winner; returns how many won.
    fn deliver(
        (wh, port, eng): (&mut Warehouse, &mut InProcessPort, &mut ReplicaEngine),
        bytes: &[u8],
        now_us: u64,
    ) -> usize {
        let winners = eng.on_delivery(wh, bytes, now_us).unwrap();
        winners.iter().for_each(|(_, row)| land(port, wh, row));
        winners.len()
    }

    #[test]
    fn publish_then_apply_replicates_a_commit() {
        let (mut wa, mut pa, _da, mut ea, _oa) = replica(0);
        let (mut wb, mut pb, _db, mut eb, ob) = replica(1);
        let out = write((&mut wa, &mut pa, &mut ea), 1, 20, 1_000);
        assert_eq!(out.len(), 1, "one write, one peer");
        assert_eq!(deliver((&mut wb, &mut pb, &mut eb), &out[0].bytes, 2_000), 1);
        assert_eq!(wb.mv(0).extent(), wa.mv(0).extent(), "extents converge");
        assert_eq!(pb.space().server(SourceId(0)).version(), 1, "an ordinary logged commit");
        assert_eq!(ob.registry().counter_value("replica.remote_applied"), Some(1));
        assert_eq!(eb.delivered(0), 1);
    }

    #[test]
    fn concurrent_writes_resolve_by_hlc_both_sides_agree() {
        let (mut wa, mut pa, _da, mut ea, _oa) = replica(0);
        let (mut wb, mut pb, _db, mut eb, ob) = replica(1);
        // Both replicas change key 1, unaware of each other (a partition).
        let out_a = write((&mut wa, &mut pa, &mut ea), 1, 111, 1_000);
        let out_b = write((&mut wb, &mut pb, &mut eb), 1, 222, 1_000);
        // Cross-deliver after the heal.
        deliver((&mut wb, &mut pb, &mut eb), &out_a[0].bytes, 5_000);
        deliver((&mut wa, &mut pa, &mut ea), &out_b[0].bytes, 5_000);
        assert_eq!(wa.mv(0).extent(), wb.mv(0).extent(), "deterministic LWW winner");
        // Same HLC physical time → origin 1 wins the tie.
        let winner = Tuple::of([Value::from(1), Value::from(222)]);
        assert_eq!(wa.mv(0).extent().count(&winner), 1);
        assert_eq!(ob.registry().counter_value("replica.conflicts"), Some(1));
        // b's own value won, so the incoming copy of a's write is the loser.
        assert_eq!(ob.registry().counter_value("replica.superseded"), Some(1));
        assert_eq!(ob.registry().counter_value("replica.remote_applied"), Some(0));
    }

    #[test]
    fn duplicate_deliveries_are_dropped() {
        let (mut wa, mut pa, _da, mut ea, _oa) = replica(0);
        let (mut wb, mut pb, _db, mut eb, ob) = replica(1);
        let out = write((&mut wa, &mut pa, &mut ea), 1, 20, 1_000);
        assert_eq!(deliver((&mut wb, &mut pb, &mut eb), &out[0].bytes, 2_000), 1);
        let second = deliver((&mut wb, &mut pb, &mut eb), &out[0].bytes, 3_000);
        assert_eq!(second, 0, "the duplicate resolves nothing");
        assert_eq!(ob.registry().counter_value("replica.duplicates"), Some(1));
    }

    #[test]
    fn out_of_order_deliveries_buffer_and_gap() {
        let (mut wa, mut pa, _da, mut ea, _oa) = replica(0);
        let (mut wb, mut pb, _db, mut eb, _ob) = replica(1);
        let mut out = write((&mut wa, &mut pa, &mut ea), 1, 20, 1_000);
        out.extend(write((&mut wa, &mut pa, &mut ea), 1, 30, 1_000));
        assert_eq!(out.len(), 2);
        // Deliver seq 2 first: buffered, a gap is reported.
        assert_eq!(deliver((&mut wb, &mut pb, &mut eb), &out[1].bytes, 2_000), 0);
        assert_eq!(eb.gaps(), vec![(0, 0)]);
        // Seq 1 releases both, in order.
        assert_eq!(deliver((&mut wb, &mut pb, &mut eb), &out[0].bytes, 2_500), 2);
        assert_eq!(wb.mv(0).extent(), wa.mv(0).extent());
    }

    #[test]
    fn recover_resends_published_but_unacked_messages_with_same_seq() {
        let (mut wa, mut pa, da, mut ea, oa) = replica(0);
        let out = write((&mut wa, &mut pa, &mut ea), 1, 20, 1_000);
        let orig = dec_msg(&out[0].bytes).unwrap();
        // Crash after log-then-send, before any ack.
        drop(ea);
        let info = pa.space().info().clone();
        drop(wa);
        let (mut back, _report) =
            Warehouse::recover(Box::new(da.clone()), info, oa.clone()).unwrap();
        let eng = ReplicaEngine::recover(0, 2, oa, &mut back, 9_000).unwrap();
        let resend = eng.unacked();
        assert_eq!(resend.len(), 1);
        let m = dec_msg(&resend[0].bytes).unwrap();
        assert_eq!(
            (m.seq, m.hlc, &m.row),
            (orig.seq, orig.hlc, &orig.row),
            "identical bytes re-sent, no seq reuse for different content"
        );
    }

    #[test]
    fn receiver_floor_survives_a_kill() {
        let (mut wa, mut pa, _da, mut ea, _oa) = replica(0);
        let (mut wb, mut pb, db, mut eb, ob) = replica(1);
        let out = write((&mut wa, &mut pa, &mut ea), 1, 20, 1_000);
        deliver((&mut wb, &mut pb, &mut eb), &out[0].bytes, 2_000);
        let frozen = wb.mv(0).extent().clone();
        drop(eb);
        let info = pb.space().info().clone();
        drop(wb);
        let (mut back, _report) =
            Warehouse::recover(Box::new(db.clone()), info, ob.clone()).unwrap();
        assert_eq!(back.mv(0).extent(), &frozen, "the maintained winner survived via the WAL");
        let mut eng = ReplicaEngine::recover(1, 2, ob, &mut back, 9_000).unwrap();
        assert_eq!(eng.delivered(0), 1, "delivery floor recovered");
        // A re-sent duplicate of seq 1 is dropped, not re-applied.
        assert!(eng.on_delivery(&mut back, &out[0].bytes, 9_500).unwrap().is_empty());
        assert_eq!(back.mv(0).extent(), &frozen);
    }

    #[test]
    fn registers_recover_from_remote_records() {
        // b resolves two of a's writes to one key and is killed before any
        // checkpoint: the register its `Remote` records restore holds the
        // newer write's stamp, so a stale copy can never win there again.
        let (mut wa, mut pa, _da, mut ea, _oa) = replica(0);
        let (mut wb, mut pb, db, mut eb, ob) = replica(1);
        let first = write((&mut wa, &mut pa, &mut ea), 1, 20, 1_000);
        let second = write((&mut wa, &mut pa, &mut ea), 1, 30, 2_000);
        deliver((&mut wb, &mut pb, &mut eb), &first[0].bytes, 3_000);
        deliver((&mut wb, &mut pb, &mut eb), &second[0].bytes, 3_000);
        let info = pb.space().info().clone();
        drop((eb, wb));
        let (mut back, _) = Warehouse::recover(Box::new(db.clone()), info, ob.clone()).unwrap();
        let eng = ReplicaEngine::recover(1, 2, ob, &mut back, 9_000).unwrap();
        let newer = dec_msg(&second[0].bytes).unwrap();
        assert_eq!(eng.registers[&newer.register()], newer.stamp());
        assert_eq!(eng.delivered(0), 2);
    }
}
