//! The replicated topology: N peer warehouses, each over its own copy of the
//! sources, exchanging their client writes through the fault-injected,
//! partition-capable [`PeerNet`]. It is a preset
//! ([`Experiment::replicated`]) and three hooks of the one loop, at the
//! points a transport already plugs into:
//!
//! | loop point | what the fabric adds |
//! |---|---|
//! | next event | the next client write or [`PeerNet`] delivery |
//! | when due | the write, committed at its peer's sources, then [`ReplicaEngine::publish`] and [`PeerNet::send`]; else every due delivery, through [`ReplicaEngine::on_delivery`], each winner committed at the receiver's sources, acks settled |
//! | at quiescence | NACK-refetch until every link's floor reaches its last send |
//!
//! A write and a winner alike are a keyed upsert committed to a peer's
//! sources as an ordinary, logged source update: the peer's warehouse
//! maintains it like any other, and the sources keep their whole history.
//! The fabric never touches a view. A relation is keyed on its first
//! attribute.

use std::collections::VecDeque;

use dyno_fault::{FaultProfile, PartitionWindow, PeerNet, Transport};
use dyno_obs::Collector;
use dyno_relational::{DataUpdate, Delta, SourceUpdate, Tuple, Value};
use dyno_replica::ReplicaEngine;
use dyno_view::wal::{CrashPlan, CrashPoint};
use dyno_view::Warehouse;

use crate::cost::CostModel;
use crate::experiment::{Experiment, Fallible, Node};
use crate::port::{ScheduledCommit, SimPort};
use crate::rng::Rng;
use crate::testbed::{build_space, join_view, TestbedConfig};

/// Virtual time between the client-write rounds of [`Experiment::replicated`].
const ROUND_US: u64 = 20_000;
/// Client-write rounds of [`Experiment::replicated`].
const ROUNDS: usize = 24;
/// Tuples per relation of [`Experiment::replicated`].
const TUPLES: usize = 60;
/// NACK rounds a quiescence flush may take before the run is declared stuck.
const FLUSH_ROUNDS: usize = 10_000;

/// The replicated topology of an [`Experiment`]: `count` peers, each
/// committing the [`Experiment::schedule`] entries that name it.
#[derive(Debug, Clone)]
pub struct Peers {
    /// Peer count (2..=8).
    pub count: usize,
    /// Per-link delivery faults (drops, duplicates, delay, reorder).
    pub links: FaultProfile,
    /// Partition/heal windows (empty = fully connected).
    pub partitions: Vec<PartitionWindow>,
    /// The peer [`Experiment::kills`] are armed on.
    pub victim: usize,
}

impl Experiment {
    /// The replication testbed: `replicas` peers over identical 60-tuple
    /// copies of the testbed, maintaining `V0 = R0 ⋈ R1 ⋈ R2` and
    /// `V1 = R3 ⋈ R4 ⋈ R5` under one client write per 20 ms round for 24
    /// rounds, each from a random peer inside its own key shard. A client
    /// write is a keyed upsert, resolved when it falls due. Profiles:
    /// `quiet` (clean links), `drop_dup` (lossy, duplicating links),
    /// `partition` (clean links plus two partition windows with two
    /// same-key conflict pairs each). `kill` names a round: its first writer
    /// dies right after publishing ([`CrashPoint::AfterPublish`]). Free
    /// costs, audited; everything derives from the arguments. Panics on an
    /// unknown profile.
    pub fn replicated(profile: &str, replicas: usize, seed: u64, kill: Option<usize>) -> Self {
        let (links, windows, conflicts) = match profile {
            "quiet" => (FaultProfile::quiet(), 0, 0),
            "drop_dup" => (FaultProfile::drop_dup(), 0, 0),
            "partition" => (FaultProfile::quiet(), 2, 2),
            other => panic!("unknown replica profile {other:?}"),
        };
        let n = replicas as u64;
        let tb = TestbedConfig { tuples_per_relation: TUPLES, seed, ..Default::default() };
        let mut rng = Rng::new(seed ^ 0x5EED_5EED_5EED_5EED);
        let shard = (TUPLES as u64 / n).max(1);
        let key = |r: &mut Rng, peer: usize| (peer as u64 * shard + r.gen_range(0..shard)) as i64;
        let draw = |rng: &mut Rng, bound: u64| rng.gen_range(0..bound) as usize;
        let round_us = |round: usize| (round as u64 + 1) * ROUND_US;
        // (round, peer, view, relation of the view, key)
        let mut writes: Vec<_> = (0..ROUNDS)
            .map(|round| {
                let (peer, view, rel) = (draw(&mut rng, n), draw(&mut rng, 2), draw(&mut rng, 3));
                (round, peer, view, rel, key(&mut rng, peer))
            })
            .collect();
        let seg = (ROUNDS / windows.max(1)).max(4);
        let mut partitions = Vec::new();
        for w in 0..windows {
            let a = draw(&mut rng, n);
            let b = (a + 1 + draw(&mut rng, n - 1)) % replicas;
            let first = (w * seg + 1).min(ROUNDS - 2);
            let last = (first + seg / 2).min(ROUNDS - 1);
            // Severed from half a round before `first` until the round
            // after `last`, whose writes go out before the held traffic.
            let (start_us, end_us) = (round_us(first) - ROUND_US / 2, round_us(last + 1));
            partitions.push(PartitionWindow { a: a as u16, b: b as u16, start_us, end_us });
            for c in 0..conflicts {
                let (round, view) = (first + c % (last - first + 1), draw(&mut rng, 2));
                let key = key(&mut rng, a);
                writes.extend([(round, a, view, 0, key), (round, b, view, 0, key)]);
            }
        }
        writes.sort_by_key(|w| w.0);
        let space = build_space(&tb);
        let schedule = writes
            .iter()
            .map(|&(round, peer, view, rel, key)| {
                let schema = tb.schema(view * 3 + rel);
                let source = space.locate(&schema.relation).expect("testbed relation exists");
                let vals = std::iter::once(key)
                    .chain((0..tb.extra_attrs).map(|_| rng.gen_range(0..1_000_000i64)));
                let row = Delta::inserts(schema, [Tuple::new(vals.map(Value::from).collect())]);
                let update = SourceUpdate::Data(DataUpdate::new(row.expect("testbed schema")));
                ScheduledCommit { at_us: round_us(round), source, update, peer }
            })
            .collect();
        // The kill strikes the round's first writer after as many publishes
        // as it made before that round.
        let kill = kill.and_then(|k| writes.iter().find(|w| w.0 == k)).map(|&(k, victim, ..)| {
            let skip = writes.iter().filter(|w| w.1 == victim && w.0 < k).count() as u64;
            (victim, CrashPlan { point: CrashPoint::AfterPublish, skip })
        });
        let views = (0..2).map(|v| join_view(&tb, format!("V{v}"), &[v * 3, v * 3 + 1, v * 3 + 2]));
        let victim = kill.map_or(0, |k| k.0);
        Experiment {
            cost: CostModel::free(),
            seed,
            audit: true,
            kills: kill.iter().map(|k| k.1).collect(),
            peers: Some(Peers { count: replicas, links, partitions, victim }),
            ..Experiment::new(space, views.collect(), schedule)
        }
    }
}

/// The fabric's state in a replicated run: the network, one replication
/// engine per peer, and the client writes not yet due.
pub(crate) struct Fabric {
    net: PeerNet<Vec<u8>>,
    engines: Vec<ReplicaEngine>,
    /// In schedule order; released one at a time.
    writes: VecDeque<ScheduledCommit>,
    /// When the last partition window heals: the quiescence flush waits for
    /// it, since a NACK cannot cross a partition.
    healed_us: u64,
}

impl Fabric {
    /// Joins `nodes` — every warehouse initialized, logging and not yet
    /// stepped — into a replica set.
    pub fn new<T: Transport>(
        peers: &Peers,
        seed: u64,
        writes: Vec<ScheduledCommit>,
        nodes: &[Node<T>],
    ) -> Self {
        assert!((2..=8).contains(&peers.count), "replica count {} outside 2..=8", peers.count);
        let mut net = PeerNet::new(peers.links, seed).with_obs(&nodes[0].obs);
        peers.partitions.iter().for_each(|&w| net.add_partition(w));
        let engines = nodes.iter().enumerate();
        let engines =
            engines.map(|(p, n)| ReplicaEngine::new(p as u16, peers.count, n.obs.clone()));
        let healed_us = peers.partitions.iter().map(|w| w.end_us).max().unwrap_or(0);
        Fabric { net, engines: engines.collect(), writes: writes.into(), healed_us }
    }

    /// The next instant the fabric acts on its own: a client write or a
    /// delivery falling due, or the last partition healing.
    pub fn next_event_us(&self, now: u64) -> Option<u64> {
        let write = self.writes.front().map(|w| w.at_us);
        let heal = (self.healed_us > now).then_some(self.healed_us);
        [write, self.net.next_event_us(), heal].into_iter().flatten().min()
    }

    /// Acts at `t`: if a client write is due — writes come before
    /// deliveries at equal times, and the loop maintains each before the
    /// next applies — commits it at its peer's sources and publishes it:
    /// log, then send, so a cut in between keeps every copy off the network
    /// and recovery re-sends them. Otherwise delivers everything due, then
    /// settles the acks.
    pub fn fire<T: Transport>(&mut self, t: u64, nodes: &mut [Node<T>]) -> Fallible {
        if self.writes.front().is_some_and(|w| w.at_us <= t) {
            let w = self.writes.pop_front().expect("peeked");
            let SourceUpdate::Data(du) = &w.update else { return Err("a write is a row".into()) };
            let (row, _) = du.delta.rows().iter().next().expect("a write inserts one row");
            let n = &mut nodes[w.peer];
            upsert(n.port.inner_mut(), w.peer, &du.relation, row.clone(), w.at_us)?;
            let out = self.engines[w.peer].publish(&mut n.wh, &du.relation, row, t);
            if !n.wh.wal_power_cut() {
                out.into_iter().for_each(|o| self.net.send(w.peer as u16, o.to, o.seq, o.bytes, t));
            }
            return Ok(());
        }
        let mut acks = Vec::new();
        for (from, to, _seq, bytes) in self.net.poll(t) {
            self.deliver(&mut nodes[to as usize], to, &bytes, t)?;
            acks.push((from, to));
        }
        acks.into_iter().for_each(|(from, to)| self.settle(from, to));
        Ok(())
    }

    /// Rebuilds peer `p`'s engine over its warehouse, just recovered from
    /// the WAL, and re-sends every unacked outbox message.
    pub fn rejoin(&mut self, p: usize, wh: &mut Warehouse, obs: &Collector, t: u64) {
        let n = self.engines.len();
        self.engines[p] = ReplicaEngine::recover(p as u16, n, obs.clone(), wh, t)
            .expect("a cut log holds a decodable replica snapshot");
        for o in self.engines[p].unacked() {
            self.net.send(p as u16, o.to, o.seq, o.bytes, t);
        }
    }

    /// The quiescence flush: every peer NACKs each gap and each link whose
    /// floor trails its last send, resolving the refetched tails, until a
    /// round refetches nothing.
    pub fn flush<T: Transport>(&mut self, nodes: &mut [Node<T>], t: u64) -> Fallible {
        let n = self.engines.len() as u16;
        for _ in 0..FLUSH_ROUNDS {
            let mut progressed = false;
            for r in 0..n {
                let e = &self.engines[r as usize];
                let floors = (0..n).filter(|&o| o != r).map(|o| (o, e.delivered(o)));
                let mut wanted = e.gaps();
                wanted.extend(floors.filter(|&(o, floor)| self.net.last_sent(o, r) > floor));
                for (origin, after) in wanted {
                    for (_seq, bytes) in self.net.nack(r, origin, after, t) {
                        self.deliver(&mut nodes[r as usize], r, &bytes, t)?;
                        progressed = true;
                    }
                    self.settle(origin, r);
                }
            }
            if !progressed {
                return Ok(());
            }
        }
        Err("replication flush did not quiesce".into())
    }

    /// Delivers one message body to peer `p` and commits every write that
    /// won resolution at its sources.
    fn deliver<T: Transport>(&mut self, n: &mut Node<T>, p: u16, msg: &[u8], t: u64) -> Fallible {
        for (relation, row) in self.engines[p as usize].on_delivery(&mut n.wh, msg, t)? {
            upsert(n.port.inner_mut(), p as usize, &relation, row, t)?;
        }
        Ok(())
    }

    /// Peer `to` acks its contiguous floor from `from`, pruning the link log
    /// and the sender's outbox.
    fn settle(&mut self, from: u16, to: u16) {
        let floor = self.engines[to as usize].delivered(from);
        self.net.ack(from, to, floor);
        self.engines[from as usize].acked(to, floor);
    }
}

/// Commits `row` at `port`'s sources as a keyed upsert stamped `at_us`: it
/// replaces whatever rows of `relation` share its key (first attribute)
/// now. A row already in place commits nothing.
fn upsert(port: &mut SimPort, peer: usize, relation: &str, row: Tuple, at_us: u64) -> Fallible {
    let source = port.space().locate(relation).ok_or("a write names a replicated relation")?;
    let rel = port.space().server(source).catalog().get(relation)?;
    let schema = rel.schema().clone();
    let old = rel.rows().iter().filter(|(r, _)| r.get(0) == row.get(0)).map(|(r, _)| r.clone());
    let mut delta = Delta::deletes(schema.clone(), old)?;
    delta.merge(&Delta::inserts(schema, [row])?)?;
    if !delta.is_empty() {
        let update = SourceUpdate::Data(DataUpdate::new(delta));
        port.commit(ScheduledCommit { at_us, source, update, peer });
    }
    Ok(())
}
