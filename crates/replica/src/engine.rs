//! The per-replica replication engine: publishes committed view changes to
//! peers, resolves incoming peer deltas against causal conflict registers,
//! and survives kills through the warehouse WAL.
//!
//! ## Conflict model
//!
//! Each replica keeps one **register** per `(view, key)`: the [`Stamp`] of
//! the last write that won there. An incoming [`PeerDelta`] compares its
//! vector clock against the register's:
//!
//! * register absent, or message **dominates** → causally ordered; apply.
//! * message **dominated** (or equal) → stale; discard as superseded.
//! * **incomparable** → the cross-replica dependency class
//!   ([`DepKind::Replica`], "rd"): neither writer saw the other. The HLC
//!   resolves it — higher `(hlc, origin)` wins deterministically; the loser
//!   is logged to lineage as `superseded` and leaves no residue (post-image
//!   replication replaces the key's rows wholesale).
//!
//! ## Durability protocol
//!
//! Publish order is **log, then send**: the `Published` WAL record (full
//! message bodies) lands before any message reaches the network, so a crash
//! between the two re-sends those exact bytes instead of reusing sequence
//! numbers for different content. Resolved remote deltas land as `Remote`
//! records (post-image plus [`RemoteMeta`]) whose replay restores registers
//! and delivery floors; the warehouse replays applied post-images into the
//! extent exactly once. [`ReplicaEngine::recover`] folds the checkpoint
//! snapshot plus the WAL tail, re-publishes commits whose `Applied` record
//! has no paired `Published`, and re-queues every unacked outbox message.
//!
//! A commit is published from its [`AppliedRecord`] — the value the
//! warehouse logged — whether the warehouse queued it live
//! ([`Warehouse::take_published`]) or replay handed it back after a kill
//! ([`ReplicaTailEvent::Applied`]).

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::collections::HashMap;

use dyno_core::clock::{CausalOrder, Hlc, VectorClock};
use dyno_core::DepKind;
use dyno_durable::codec::{dec_seq, enc_seq, Dec, Enc, WireError};
use dyno_fault::Sequencer;
use dyno_obs::trace::field;
use dyno_obs::{stage, Collector, Counter, Gauge, Histogram};
use dyno_relational::{Value, ZSet};
use dyno_view::wal::{AppliedRecord, RemoteRecord, ReplicaTailEvent};
use dyno_view::{ViewError, Warehouse};

use crate::wire::{
    dec_msg, dec_published, dec_remote_meta, dec_stamp, enc_msg, enc_published, enc_remote_meta,
    enc_stamp, PeerDelta, PublishedRecord, RemoteMeta, Stamp,
};

/// Bit marking a synthetic peer-message lineage id; disjoint from both real
/// causal ids (small integers) and batch ids (`1 << 63`).
pub const REPL_BIT: u64 = 1 << 62;

/// The synthetic lineage id of message `seq` from `origin`.
pub fn msg_lineage_id(origin: u16, seq: u64) -> u64 {
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
    /// Encoded [`PeerDelta`].
    pub bytes: Vec<u8>,
}

/// One remote post-image the engine applied to the local extent; the caller
/// mirrors it into the local source tables (write-back), so later local
/// commits build on the resolved state.
#[derive(Debug, Clone)]
pub struct RemoteApply {
    /// View slot the post-image landed in.
    pub view: usize,
    /// Key column of that view.
    pub key_col: usize,
    /// The replaced key.
    pub key: Value,
    /// The key's new rows (empty = the key vanished).
    pub post: ZSet,
}

/// The per-replica replication engine (one per [`Warehouse`] peer).
#[derive(Debug)]
pub struct ReplicaEngine {
    id: u16,
    n: usize,
    key_cols: Vec<usize>,
    hlc: Hlc,
    vc: VectorClock,
    registers: BTreeMap<(u32, Value), Stamp>,
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
    /// A fresh engine for replica `id` of `n`, over views whose key columns
    /// are `key_cols` (slot order). Binds the `replica.*` counters.
    pub fn new(id: u16, n: usize, key_cols: Vec<usize>, obs: Collector) -> Self {
        assert!((id as usize) < n, "replica id out of range");
        assert!(n <= LAG_GAUGES.len(), "at most {} replicas", LAG_GAUGES.len());
        let lag = (0..n).map(|i| obs.gauge(LAG_GAUGES[i])).collect();
        ReplicaEngine {
            id,
            n,
            key_cols,
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

    /// This replica's id.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// The replica-set size.
    pub fn n(&self) -> usize {
        self.n
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

    /// Publishes every commit the warehouse has queued: derives per-key
    /// post-images from the committed extents, stamps them (HLC tick +
    /// vector-clock bump per commit), writes the durable `Published` record,
    /// refreshes the engine snapshot, and returns the copies to hand to the
    /// network. **Log-then-send**: callers must not reorder the returned
    /// sends before this call's WAL writes (the method itself guarantees
    /// the order; a crash after it re-sends from the outbox).
    pub fn publish(&mut self, wh: &mut Warehouse, now_us: u64) -> Result<Vec<Outgoing>, ViewError> {
        let mut out = Vec::new();
        for rec in wh.take_published() {
            out.extend(self.publish_batch(wh, &rec, now_us));
        }
        wh.set_replica_ext(self.encode_ext());
        wh.maybe_checkpoint();
        Ok(out)
    }

    fn publish_batch(
        &mut self,
        wh: &mut Warehouse,
        batch: &AppliedRecord,
        now_us: u64,
    ) -> Vec<Outgoing> {
        // One causal event per commit: every key post-image in the batch
        // shares the stamp, so a multi-view commit replicates atomically
        // per key yet carries one vector-clock step.
        self.vc.bump(self.id as usize);
        let hlc = self.hlc.tick(now_us);
        let vc = self.vc.counters().to_vec();

        let mut bodies = Vec::new();
        for (view, change) in batch.changes.iter().enumerate() {
            let Some(rows) = change.rows().filter(|rows| !rows.is_empty()) else { continue };
            let key_col = self.key_cols[view];
            let keys: BTreeSet<Value> = rows.iter().map(|(t, _)| t.get(key_col).clone()).collect();
            for key in keys {
                let mut post = ZSet::new();
                for (t, w) in wh.mv(view).extent().iter() {
                    if t.get(key_col) == &key {
                        post.add(t.clone(), w);
                    }
                }
                self.registers.insert(
                    (view as u32, key.clone()),
                    Stamp { hlc, origin: self.id, vc: vc.clone() },
                );
                bodies.push(PeerDelta {
                    origin: self.id,
                    seq: 0,
                    view: view as u32,
                    key_col: key_col as u32,
                    key,
                    post,
                    hlc,
                    vc: vc.clone(),
                    ids: batch.keys.clone(),
                });
            }
        }

        let mut record = PublishedRecord { keys: batch.keys.clone(), msgs: Vec::new() };
        let mut out = Vec::new();
        for peer in 0..self.n as u16 {
            if peer == self.id {
                continue;
            }
            for body in &bodies {
                let seq = self.next_seq[peer as usize];
                self.next_seq[peer as usize] += 1;
                let msg = PeerDelta { seq, ..body.clone() };
                self.obs.prov(
                    msg_lineage_id(self.id, seq),
                    stage::REPL_SEND,
                    &[
                        field("peer", peer as u64),
                        field("seq", seq),
                        field("view", msg.view as u64),
                    ],
                );
                self.outbox[peer as usize].insert(seq, msg.clone());
                out.push(Outgoing { to: peer, seq, bytes: enc_msg(&msg) });
                record.msgs.push((peer, msg));
            }
        }
        self.published.add(bodies.len() as u64);
        if !record.msgs.is_empty() || !record.keys.is_empty() {
            wh.log_replica_published(&enc_published(&record));
        }
        out
    }

    /// Offers one network delivery to the reorder buffer and resolves every
    /// message that became contiguously deliverable. Returns the applied
    /// post-images for source write-back.
    pub fn on_delivery(
        &mut self,
        wh: &mut Warehouse,
        bytes: &[u8],
        now_us: u64,
    ) -> Result<Vec<RemoteApply>, ViewError> {
        let msg = dec_msg(bytes).map_err(|e| {
            ViewError::Internal(dyno_relational::RelationalError::InvalidQuery {
                reason: format!("undecodable peer delta: {e}"),
            })
        })?;
        let offer = self.inbox.offer(msg.origin as u32, msg.seq, msg);
        if offer.duplicate {
            self.duplicates.inc();
        }
        let mut ready = Vec::new();
        self.inbox.pop_ready(&mut ready);
        let mut applied = Vec::new();
        for m in ready {
            if let Some(a) = self.resolve(wh, m, now_us)? {
                applied.push(a);
            }
        }
        wh.set_replica_ext(self.encode_ext());
        wh.maybe_checkpoint();
        Ok(applied)
    }

    /// Resolves one causally-released message against its register.
    fn resolve(
        &mut self,
        wh: &mut Warehouse,
        msg: PeerDelta,
        now_us: u64,
    ) -> Result<Option<RemoteApply>, ViewError> {
        let mid = msg_lineage_id(msg.origin, msg.seq);
        self.obs.prov(
            mid,
            stage::REPL_RECV,
            &[
                field("origin", msg.origin as u64),
                field("seq", msg.seq),
                field("view", msg.view as u64),
            ],
        );
        let lag_us = now_us.saturating_sub(Hlc::unpack(msg.hlc).0);
        self.lag[msg.origin as usize].set(lag_us as i64);
        self.lag_hist.record(lag_us);

        let slot = (msg.view, msg.key.clone());
        let stamp = msg.stamp();
        let apply = match self.registers.get(&slot) {
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

        let bytes =
            enc_remote_meta(&RemoteMeta { origin: msg.origin, seq: msg.seq, stamp: stamp.clone() });
        let (view, key_col, key, post) = (msg.view, msg.key_col, msg.key, msg.post);
        let remote = RemoteRecord { view, key_col, key, post, applied: apply, bytes };
        wh.apply_remote(&remote)?;
        self.vc.merge(&msg.vc);
        self.hlc.observe(msg.hlc, now_us);

        if apply {
            self.registers.insert(slot, stamp);
            self.remote_applied.inc();
            self.obs.prov(
                mid,
                stage::REPL_APPLY,
                &[field("origin", msg.origin as u64), field("lag_us", lag_us)],
            );
            let RemoteRecord { view, key_col, key, post, .. } = remote;
            Ok(Some(RemoteApply { view: view as usize, key_col: key_col as usize, key, post }))
        } else {
            self.superseded.inc();
            self.obs.prov(
                mid,
                stage::SUPERSEDED,
                &[field("origin", msg.origin as u64), field("kind", DepKind::Replica.to_string())],
            );
            Ok(None)
        }
    }

    /// Serializes the engine for the warehouse checkpoint (see
    /// [`Warehouse::set_replica_ext`]).
    pub fn encode_ext(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.hlc.last());
        enc_seq(&mut e, self.vc.counters(), |e, &c| e.u64(c));
        enc_seq(&mut e, &self.next_seq, |e, &s| e.u64(s));
        let floors: Vec<u64> = (0..self.n).map(|i| self.inbox.delivered(i as u32)).collect();
        enc_seq(&mut e, &floors, |e, &f| e.u64(f));
        let regs: Vec<(&(u32, Value), &Stamp)> = self.registers.iter().collect();
        enc_seq(&mut e, &regs, |e, ((view, key), stamp)| {
            e.u32(*view);
            dyno_relational::wire::enc_value(e, key);
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
            crate::wire::enc_peer_delta(e, m);
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
        let regs = dec_seq(&mut d, |d| {
            let view = d.u32()?;
            let key = dyno_relational::wire::dec_value(d)?;
            let stamp = dec_stamp(d)?;
            Ok(((view, key), stamp))
        })?;
        self.registers = regs.into_iter().collect();
        let ob: Vec<(u64, PeerDelta)> = dec_seq(&mut d, |d| {
            let peer = d.u64()?;
            let m = crate::wire::dec_peer_delta(d)?;
            Ok((peer, m))
        })?;
        for (peer, m) in ob {
            self.outbox[peer as usize].insert(m.seq, m);
        }
        Ok(())
    }

    /// Rebuilds an engine after a kill from the warehouse just recovered:
    /// folds the checkpoint snapshot ([`Warehouse::replica_ext`]) and the
    /// WAL tail replay left ([`Warehouse::take_replica_tail`]),
    /// **re-publishes** any commit whose `Applied` record has no paired
    /// `Published` (the crash hit between commit and publish; fresh stamps,
    /// fresh seqs), and refreshes the engine snapshot so the recovery
    /// checkpoint is complete. The caller must then re-send
    /// [`ReplicaEngine::unacked`].
    pub fn recover(
        id: u16,
        n: usize,
        key_cols: Vec<usize>,
        obs: Collector,
        wh: &mut Warehouse,
        now_us: u64,
    ) -> Result<Self, ViewError> {
        let mut eng = ReplicaEngine::new(id, n, key_cols, obs);
        if !wh.replica_ext().is_empty() {
            eng.decode_ext(wh.replica_ext()).map_err(|e| {
                ViewError::Internal(dyno_relational::RelationalError::InvalidQuery {
                    reason: format!("corrupt replica snapshot: {e}"),
                })
            })?;
        }
        let corrupt = |what: &str, e: WireError| {
            ViewError::Internal(dyno_relational::RelationalError::InvalidQuery {
                reason: format!("corrupt replica {what}: {e}"),
            })
        };
        // Commits whose publish may not have made the log yet, in order.
        let mut pending: Vec<AppliedRecord> = Vec::new();
        for ev in wh.take_replica_tail() {
            match ev {
                ReplicaTailEvent::Applied(rec) => pending.push(rec),
                ReplicaTailEvent::Published { bytes } => {
                    let sent = dec_published(&bytes).map_err(|e| corrupt("publish record", e))?;
                    pending.retain(|p| p.keys != sent.keys);
                    for (peer, m) in sent.msgs {
                        eng.next_seq[peer as usize] = eng.next_seq[peer as usize].max(m.seq + 1);
                        eng.registers.insert((m.view, m.key.clone()), m.stamp());
                        eng.vc.merge(&m.vc);
                        eng.hlc.observe(m.hlc, now_us);
                        eng.outbox[peer as usize].insert(m.seq, m);
                    }
                }
                ReplicaTailEvent::Remote(remote) => {
                    let meta =
                        dec_remote_meta(&remote.bytes).map_err(|e| corrupt("remote meta", e))?;
                    eng.inbox.set_floor(meta.origin as u32, meta.seq);
                    if remote.applied {
                        eng.vc.merge(&meta.stamp.vc);
                        eng.hlc.observe(meta.stamp.hlc, now_us);
                        eng.registers.insert((remote.view, remote.key), meta.stamp);
                    }
                }
            }
        }
        for rec in pending {
            // Returned copies are already queued in the outbox; the caller's
            // unacked() re-send covers them.
            let _ = eng.publish_batch(wh, &rec, now_us);
        }
        wh.set_replica_ext(eng.encode_ext());
        Ok(eng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyno_core::Strategy;
    use dyno_durable::MemStorage;
    use dyno_relational::{AttrType, Catalog, Relation, Schema, SourceUpdate, SpjQuery, Tuple};
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
        let mut wh = wh.with_wal(log).expect("no admission bound");
        wh.enable_replication();
        let eng = ReplicaEngine::new(id, 2, vec![0], obs.clone());
        (wh, port, disk, eng, obs)
    }

    fn commit_v(port: &mut InProcessPort, wh: &mut Warehouse, k: i64, old: i64, new: i64) {
        let schema = port.space().server(SourceId(0)).catalog().get("R").unwrap().schema().clone();
        let mut d = dyno_relational::Delta::deletes(
            schema.clone(),
            [Tuple::of([Value::from(k), Value::from(old)])],
        )
        .unwrap();
        d.merge(
            &dyno_relational::Delta::inserts(
                schema,
                [Tuple::of([Value::from(k), Value::from(new)])],
            )
            .unwrap(),
        )
        .unwrap();
        port.commit(SourceId(0), SourceUpdate::Data(dyno_relational::DataUpdate::new(d))).unwrap();
        wh.run_to_quiescence(port, 100).unwrap();
    }

    #[test]
    fn publish_then_apply_replicates_a_commit() {
        let (mut wa, mut pa, _da, mut ea, _oa) = replica(0);
        let (mut wb, _pb, _db, mut eb, ob) = replica(1);
        commit_v(&mut pa, &mut wa, 1, 10, 20);
        let out = ea.publish(&mut wa, 1_000).unwrap();
        assert_eq!(out.len(), 1, "one key changed, one peer");
        let applied = eb.on_delivery(&mut wb, &out[0].bytes, 2_000).unwrap();
        assert_eq!(applied.len(), 1);
        assert_eq!(wb.mv(0).extent(), wa.mv(0).extent(), "extents converge");
        assert_eq!(ob.registry().counter_value("replica.remote_applied"), Some(1));
        assert_eq!(eb.delivered(0), 1);
    }

    #[test]
    fn concurrent_writes_resolve_by_hlc_both_sides_agree() {
        let (mut wa, mut pa, _da, mut ea, _oa) = replica(0);
        let (mut wb, mut pb, _db, mut eb, ob) = replica(1);
        // Both replicas change key 1, unaware of each other (a partition).
        commit_v(&mut pa, &mut wa, 1, 10, 111);
        commit_v(&mut pb, &mut wb, 1, 10, 222);
        let out_a = ea.publish(&mut wa, 1_000).unwrap();
        let out_b = eb.publish(&mut wb, 1_000).unwrap();
        // Cross-deliver after the heal.
        let _ = eb.on_delivery(&mut wb, &out_a[0].bytes, 5_000).unwrap();
        let _ = ea.on_delivery(&mut wa, &out_b[0].bytes, 5_000).unwrap();
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
        let (mut wb, _pb, _db, mut eb, ob) = replica(1);
        commit_v(&mut pa, &mut wa, 1, 10, 20);
        let out = ea.publish(&mut wa, 1_000).unwrap();
        let first = eb.on_delivery(&mut wb, &out[0].bytes, 2_000).unwrap();
        let second = eb.on_delivery(&mut wb, &out[0].bytes, 3_000).unwrap();
        assert_eq!(first.len(), 1);
        assert!(second.is_empty(), "the duplicate resolves nothing");
        assert_eq!(ob.registry().counter_value("replica.duplicates"), Some(1));
    }

    #[test]
    fn out_of_order_deliveries_buffer_and_gap() {
        let (mut wa, mut pa, _da, mut ea, _oa) = replica(0);
        let (mut wb, _pb, _db, mut eb, _ob) = replica(1);
        commit_v(&mut pa, &mut wa, 1, 10, 20);
        commit_v(&mut pa, &mut wa, 1, 20, 30);
        let out = ea.publish(&mut wa, 1_000).unwrap();
        assert_eq!(out.len(), 2);
        // Deliver seq 2 first: buffered, a gap is reported.
        let none = eb.on_delivery(&mut wb, &out[1].bytes, 2_000).unwrap();
        assert!(none.is_empty());
        assert_eq!(eb.gaps(), vec![(0, 0)]);
        // Seq 1 releases both, in order.
        let both = eb.on_delivery(&mut wb, &out[0].bytes, 2_500).unwrap();
        assert_eq!(both.len(), 2);
        assert_eq!(wb.mv(0).extent(), wa.mv(0).extent());
    }

    #[test]
    fn recover_republishes_an_unpublished_commit() {
        let (mut wa, mut pa, da, ea, oa) = replica(0);
        commit_v(&mut pa, &mut wa, 1, 10, 20);
        // Crash between commit and publish: the Applied record is durable,
        // no Published record exists. (Simulated by dropping both halves.)
        drop(ea);
        let info = pa.space().info().clone();
        drop(wa);
        let (mut back, _report) =
            Warehouse::recover(Box::new(da.clone()), info, oa.clone()).unwrap();
        let eng = ReplicaEngine::recover(0, 2, vec![0], oa, &mut back, 9_000).unwrap();
        let resend = eng.unacked();
        assert_eq!(resend.len(), 1, "the lost publish is regenerated");
        let m = dec_msg(&resend[0].bytes).unwrap();
        assert_eq!(m.key, Value::from(1));
        assert_eq!(m.post.iter().count(), 1);
    }

    #[test]
    fn recover_resends_published_but_unacked_messages_with_same_seq() {
        let (mut wa, mut pa, da, mut ea, oa) = replica(0);
        commit_v(&mut pa, &mut wa, 1, 10, 20);
        let out = ea.publish(&mut wa, 1_000).unwrap();
        let orig = dec_msg(&out[0].bytes).unwrap();
        // Crash after log-then-send, before any ack.
        drop(ea);
        let info = pa.space().info().clone();
        drop(wa);
        let (mut back, _report) =
            Warehouse::recover(Box::new(da.clone()), info, oa.clone()).unwrap();
        let eng = ReplicaEngine::recover(0, 2, vec![0], oa, &mut back, 9_000).unwrap();
        let resend = eng.unacked();
        assert_eq!(resend.len(), 1);
        let m = dec_msg(&resend[0].bytes).unwrap();
        assert_eq!(
            (m.seq, m.hlc, &m.post),
            (orig.seq, orig.hlc, &orig.post),
            "identical bytes re-sent, no seq reuse for different content"
        );
    }

    #[test]
    fn receiver_floor_survives_a_kill() {
        let (mut wa, mut pa, _da, mut ea, _oa) = replica(0);
        let (mut wb, pb, db, mut eb, ob) = replica(1);
        commit_v(&mut pa, &mut wa, 1, 10, 20);
        let out = ea.publish(&mut wa, 1_000).unwrap();
        let _ = eb.on_delivery(&mut wb, &out[0].bytes, 2_000).unwrap();
        let frozen = wb.mv(0).extent().clone();
        drop(eb);
        let info = pb.space().info().clone();
        drop(wb);
        let (mut back, _report) =
            Warehouse::recover(Box::new(db.clone()), info, ob.clone()).unwrap();
        assert_eq!(back.mv(0).extent(), &frozen, "remote apply survived via the WAL");
        let mut eng = ReplicaEngine::recover(1, 2, vec![0], ob, &mut back, 9_000).unwrap();
        assert_eq!(eng.delivered(0), 1, "delivery floor recovered");
        // A re-sent duplicate of seq 1 is dropped, not re-applied.
        let again = eng.on_delivery(&mut back, &out[0].bytes, 9_500).unwrap();
        assert!(again.is_empty());
        assert_eq!(back.mv(0).extent(), &frozen);
    }
}
