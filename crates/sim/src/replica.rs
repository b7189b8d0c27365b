//! Replicated-warehouse chaos runner: N peer warehouses, each over its own
//! copy of the testbed sources, maintaining the same two join views and
//! exchanging committed per-key post-images through the fault-injected
//! [`PeerNet`] fabric — including **network partitions**, the fault class
//! that manufactures genuinely concurrent writes.
//!
//! Each replica owns a [`dyno_replica::ReplicaEngine`]: local commits are
//! published to every peer stamped with an HLC + vector clock; incoming
//! deltas are resolved against per-`(view, key)` conflict registers
//! (causally ordered → apply in order; concurrent → the cross-replica
//! dependency `rd`, resolved deterministic last-writer-wins by HLC). Applied
//! winners are **written back** into the replica's local source tables via
//! [`dyno_source::SourceServer::overwrite`], so later local commits build on
//! the resolved state and convergence is source-deep, not just extent-deep.
//!
//! ## Oracles
//!
//! * **Bit identity** — after the final heal and flush, every replica's
//!   per-view extent CRC must be identical ([`ReplicaReport::extent_crcs`]).
//! * **Source-deep convergence** — each replica's extent must equal its view
//!   definition evaluated over its *own* (written-back) source tables
//!   ([`audit`]), after every local commit quiesces and once more at the end.
//! * **Determinism** — the whole run derives from `(config, seed)`; two runs
//!   of the same seed produce identical reports, lineage included.
//!
//! A `kill_round` arms the harshest crash window: the victim logs its
//! `Published` record, then dies **before any copy reaches the network**.
//! Recovery ([`dyno_view::Warehouse::recover`] +
//! [`dyno_replica::ReplicaEngine::recover`]) must re-send the identical
//! bytes from the durable outbox.

use std::collections::{BTreeMap, BTreeSet};

use dyno_core::Strategy;
use dyno_durable::MemStorage;
use dyno_fault::{FaultProfile, PartitionWindow, PeerNet};
use dyno_obs::{Collector, VirtualClock};
use dyno_relational::{DataUpdate, Delta, SourceUpdate, Tuple, Value};
use dyno_replica::{RemoteApply, ReplicaEngine};
use dyno_view::wal::DurableLog;
use dyno_view::{InProcessPort, ViewDefinition, Warehouse};

use crate::consistency::{audit, extent_crc};
use crate::rng::Rng;
use crate::testbed::{build_space, join_view, TestbedConfig};

/// Virtual time between client-commit rounds.
const ROUND_US: u64 = 20_000;

/// Builds the two disjoint replicated views over the standard six-relation
/// testbed: `V0 = R0 ⋈ R1 ⋈ R2` and `V1 = R3 ⋈ R4 ⋈ R5`, each projecting
/// every attribute of its three relations (so a view post-image row can be
/// sliced back into per-relation rows for source write-back). Both views
/// key on output column 0 (`R0_K` / `R3_K`).
pub fn build_replica_views(cfg: &TestbedConfig) -> Vec<ViewDefinition> {
    assert!(cfg.relation_count() >= 6, "the replica testbed needs six relations");
    (0..2).map(|v| join_view(cfg, format!("V{v}"), &[v * 3, v * 3 + 1, v * 3 + 2])).collect()
}

/// Key columns of [`build_replica_views`], in slot order.
pub fn replica_key_cols() -> Vec<usize> {
    vec![0, 0]
}

/// One replicated-warehouse experiment; everything derives from the config
/// plus `seed`.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Replica count (2..=8).
    pub replicas: usize,
    /// Per-link delivery faults (drops, duplicates, delay, reorder).
    pub profile: FaultProfile,
    /// Partition/heal windows to inject (0 = fully connected).
    pub partitions: usize,
    /// Conflicting same-`(view, key)` commit pairs scheduled inside each
    /// partition window.
    pub conflicts_per_partition: usize,
    /// Master seed (testbed data, workload, fault rolls).
    pub seed: u64,
    /// Client-commit rounds.
    pub rounds: usize,
    /// Tuples per relation.
    pub tuples_per_relation: usize,
    /// Kill the committing replica at this round — after its `Published`
    /// WAL record, before any send — then recover it from its WAL.
    pub kill_round: Option<usize>,
    /// Capture lineage (provenance records) per replica.
    pub lineage: bool,
    /// WAL checkpoint cadence.
    pub checkpoint_every: u64,
    /// Maintenance-step budget per quiescence drive.
    pub max_steps: u64,
}

impl ReplicaConfig {
    /// A representative run: 24 rounds over a 60-tuple testbed.
    pub fn new(replicas: usize, seed: u64) -> Self {
        ReplicaConfig {
            replicas,
            profile: FaultProfile::quiet(),
            partitions: 0,
            conflicts_per_partition: 0,
            seed,
            rounds: 24,
            tuples_per_relation: 60,
            kill_round: None,
            lineage: false,
            checkpoint_every: 8,
            max_steps: 5_000,
        }
    }

    /// The named grid profiles: `quiet` (clean links), `drop_dup` (lossy,
    /// duplicating links), `partition` (clean links + two partition/heal
    /// windows with two conflict pairs each). Panics on unknown names.
    pub fn named(profile: &str, replicas: usize, seed: u64) -> Self {
        let cfg = ReplicaConfig::new(replicas, seed);
        match profile {
            "quiet" => cfg,
            "drop_dup" => ReplicaConfig { profile: FaultProfile::drop_dup(), ..cfg },
            "partition" => ReplicaConfig { partitions: 2, conflicts_per_partition: 2, ..cfg },
            other => panic!("unknown replica profile {other:?}"),
        }
    }

    /// Arms the crash-before-send kill at `round`.
    pub fn with_kill(mut self, round: usize) -> Self {
        self.kill_round = Some(round);
        self
    }

    /// Turns on per-replica lineage capture.
    pub fn with_lineage(mut self) -> Self {
        self.lineage = true;
        self
    }
}

/// What a replicated run produced.
#[derive(Debug, Clone)]
pub struct ReplicaReport {
    /// Bit-identical extents, source-deep consistency, no errors.
    pub converged: bool,
    /// Every replica's per-view extent CRCs matched.
    pub bit_identical: bool,
    /// Every replica's extent equalled its view over its own sources, after
    /// each of its commits quiesced and at the end ([`audit`]).
    pub source_consistent: bool,
    /// Per-replica, per-view extent CRCs (the convergence fingerprint).
    pub extent_crcs: Vec<Vec<u32>>,
    /// Partition windows that actually held traffic.
    pub partitions_injected: u64,
    /// Concurrent-write conflicts detected (summed over replicas).
    pub conflicts: u64,
    /// Messages discarded as causally superseded (LWW losers).
    pub superseded: u64,
    /// Messages applied to extents.
    pub remote_applied: u64,
    /// Key post-images published.
    pub published: u64,
    /// Duplicate deliveries dropped by reorder buffers.
    pub duplicates: u64,
    /// Kills executed.
    pub kills: u64,
    /// A hard error that ended the run early, if any.
    pub last_error: Option<String>,
    /// Per-replica lineage JSONL (empty unless `lineage` was on).
    pub lineage: Vec<String>,
    /// Per-replica live apply-lag quantiles from the `replica.lag_us`
    /// histogram: `(count, p50, p95, p99)` in virtual µs. Unlike
    /// [`ReplicaReport::lineage`], these are populated on every run — the
    /// histogram is always registered and recorded by the engine.
    pub lag_quantiles: Vec<(u64, u64, u64, u64)>,
}

struct Peer {
    port: InProcessPort,
    wh: Warehouse,
    eng: ReplicaEngine,
    disk: MemStorage,
    obs: Collector,
}

#[derive(Debug, Clone)]
enum Ev {
    /// One replica commits to one relation of one view triple.
    Commit { replica: usize, view: usize, rel: usize, key: i64 },
    /// Two partitioned replicas commit to the same `(view, key)`.
    Conflict { a: usize, b: usize, view: usize, key: i64 },
}

/// Commits `key ← fresh random attrs` to relation `R{view*3+rel}` at one
/// replica, drives its warehouse quiescent and audits it against its own
/// sources; returns the number of views that failed.
fn do_commit(
    p: &mut Peer,
    tb: &TestbedConfig,
    view: usize,
    rel: usize,
    key: i64,
    rng: &mut Rng,
    max_steps: u64,
) -> Result<u64, String> {
    let name = format!("R{}", view * 3 + rel);
    let sid = p.port.space().locate(&name).expect("testbed relation exists");
    let relation = p.port.space().server(sid).catalog().get(&name).map_err(|e| e.to_string())?;
    let schema = relation.schema().clone();
    let old: Vec<Tuple> = relation
        .rows()
        .iter()
        .filter(|(t, _)| t.get(0) == &Value::from(key))
        .map(|(t, _)| t.clone())
        .collect();
    let mut vals = vec![Value::from(key)];
    for _ in 0..tb.extra_attrs {
        vals.push(Value::from(rng.gen_range(0..1_000_000i64)));
    }
    let mut d = Delta::deletes(schema.clone(), old).map_err(|e| e.to_string())?;
    d.merge(&Delta::inserts(schema, [Tuple::new(vals)]).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    p.port.commit(sid, SourceUpdate::Data(DataUpdate::new(d))).map_err(|e| e.to_string())?;
    p.wh.run_to_quiescence(&mut p.port, max_steps).map_err(|e| e.to_string())?;
    audit(&p.wh, p.port.space()).map_err(|e| e.to_string())
}

/// Mirrors applied remote post-images into the replica's own source tables
/// (per-relation slices of the view row), so local state is the resolved
/// state. Silent — no version bump, no committed-update message.
fn write_back(p: &mut Peer, applied: &[RemoteApply], tb: &TestbedConfig) -> Result<(), String> {
    let width = 1 + tb.extra_attrs;
    for ra in applied {
        for j in 0..3 {
            let name = format!("R{}", ra.view * 3 + j);
            let sid = p.port.space().locate(&name).expect("testbed relation exists");
            let mut rows: BTreeSet<Tuple> = BTreeSet::new();
            for (t, w) in ra.post.iter() {
                if w <= 0 {
                    continue;
                }
                let vals: Vec<Value> = (0..width).map(|c| t.get(j * width + c).clone()).collect();
                rows.insert(Tuple::new(vals));
            }
            let relation =
                p.port.space().server(sid).catalog().get(&name).map_err(|e| e.to_string())?;
            let schema = relation.schema().clone();
            let old: Vec<Tuple> = relation
                .rows()
                .iter()
                .filter(|(t, _)| t.get(0) == &ra.key)
                .map(|(t, _)| t.clone())
                .collect();
            let mut d = Delta::deletes(schema.clone(), old).map_err(|e| e.to_string())?;
            d.merge(&Delta::inserts(schema, rows).map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
            if d.rows().is_empty() {
                continue;
            }
            p.port.space_mut().server_mut(sid).overwrite(&d).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Delivers one raw message body to a replica and write-backs what applied.
fn deliver(p: &mut Peer, bytes: &[u8], now: u64, tb: &TestbedConfig) -> Result<(), String> {
    let applied = p.eng.on_delivery(&mut p.wh, bytes, now).map_err(|e| e.to_string())?;
    write_back(p, &applied, tb)
}

/// Drains every network delivery due at `now`, then settles acks: each
/// receiver acks its contiguous floor, pruning both the link logs and the
/// sender outboxes.
fn pump(
    peers: &mut [Peer],
    net: &mut PeerNet<Vec<u8>>,
    now: u64,
    tb: &TestbedConfig,
) -> Result<(), String> {
    let mut acks = Vec::new();
    for (from, to, _seq, bytes) in net.poll(now) {
        deliver(&mut peers[to as usize], &bytes, now, tb)?;
        acks.push((from, to));
    }
    for (from, to) in acks {
        let floor = peers[to as usize].eng.delivered(from);
        net.ack(from, to, floor);
        peers[from as usize].eng.acked(to, floor);
    }
    Ok(())
}

/// Kills a replica in place (engine and warehouse dropped, sources survive —
/// they are autonomous) and recovers it from its WAL, re-sending every
/// unacked outbox message.
fn restart(
    peers: &mut [Peer],
    r: usize,
    net: &mut PeerNet<Vec<u8>>,
    key_cols: Vec<usize>,
    checkpoint_every: u64,
    now: u64,
) -> Result<(), String> {
    let n = peers.len();
    let p = &mut peers[r];
    let info = p.port.space().info().clone();
    let (mut wh, _report) = Warehouse::recover(Box::new(p.disk.clone()), info, p.obs.clone())
        .map_err(|e| e.to_string())?;
    wh.set_checkpoint_every(checkpoint_every);
    wh.enable_replication();
    let ext = wh.replica_ext().to_vec();
    let tail = wh.take_replica_tail();
    let eng =
        ReplicaEngine::recover(r as u16, n, key_cols, p.obs.clone(), &ext, tail, &mut wh, now)
            .map_err(|e| e.to_string())?;
    p.wh = wh;
    p.eng = eng;
    for o in p.eng.unacked() {
        net.send(r as u16, o.to, o.seq, o.bytes.clone(), now);
    }
    Ok(())
}

/// Runs one seeded replicated experiment: commit rounds under faults and
/// partitions, then heal, flush (NACK-driven refetch of dropped or
/// partition-lost tails), and audit convergence.
pub fn run_replicated(cfg: &ReplicaConfig) -> ReplicaReport {
    assert!((2..=8).contains(&cfg.replicas), "replica count {} outside 2..=8", cfg.replicas);
    let n = cfg.replicas;
    let tb = TestbedConfig {
        tuples_per_relation: cfg.tuples_per_relation,
        seed: cfg.seed,
        ..Default::default()
    };
    let key_cols = replica_key_cols();
    let clock = VirtualClock::new();
    let mut rng = Rng::new(cfg.seed ^ 0x5EED_5EED_5EED_5EED);

    // Identical seeded sources at every replica; divergence only ever comes
    // from the replicas' own commits, and replication must erase it.
    let mut peers: Vec<Peer> = (0..n)
        .map(|r| {
            let space = build_space(&tb);
            let info = space.info().clone();
            let mut port = InProcessPort::new(space);
            let obs = if cfg.lineage {
                Collector::with_virtual_clock(clock.clone()).with_lineage(1 << 16)
            } else {
                Collector::with_virtual_clock(clock.clone())
            };
            let mut wh = Warehouse::new(info, Strategy::Pessimistic).with_obs(obs.clone());
            for v in build_replica_views(&tb) {
                wh.add_view(v);
            }
            wh.initialize(&mut port).expect("testbed initialization runs fault-free");
            let disk = MemStorage::new();
            let log = DurableLog::create(Box::new(disk.clone()))
                .expect("MemStorage never fails")
                .with_checkpoint_every(cfg.checkpoint_every);
            let mut wh = wh.with_wal(log).expect("no admission bound is configured");
            wh.enable_replication();
            let eng = ReplicaEngine::new(r as u16, n, key_cols.clone(), obs.clone());
            Peer { port, wh, eng, disk, obs }
        })
        .collect();

    let net_obs = Collector::with_virtual_clock(clock.clone());
    let mut net: PeerNet<Vec<u8>> = PeerNet::new(cfg.profile, cfg.seed).with_obs(&net_obs);

    // Schedule: one commit per round from a rotating random replica, each
    // writing inside its own key shard; partition windows spanning whole
    // rounds, with same-(view, key) conflict pairs committed inside them.
    let shard = (cfg.tuples_per_relation / n).max(1) as i64;
    let mut sched: BTreeMap<usize, Vec<Ev>> = BTreeMap::new();
    for round in 0..cfg.rounds {
        let replica = rng.gen_range(0..n as u64) as usize;
        let view = rng.gen_range(0..2u64) as usize;
        let rel = rng.gen_range(0..3u64) as usize;
        let key = replica as i64 * shard + rng.gen_range(0..shard as u64) as i64;
        sched.entry(round).or_default().push(Ev::Commit { replica, view, rel, key });
    }
    let mut windows = Vec::new();
    if let Some(seg) = cfg.rounds.checked_div(cfg.partitions) {
        let seg = seg.max(4);
        for w in 0..cfg.partitions {
            let a = rng.gen_range(0..n as u64) as usize;
            let b = (a + 1 + rng.gen_range(0..(n as u64 - 1)) as usize) % n;
            let first = (w * seg + 1).min(cfg.rounds.saturating_sub(2));
            let last = (first + seg / 2).min(cfg.rounds - 1);
            let window = PartitionWindow {
                a: a as u16,
                b: b as u16,
                start_us: (first as u64 + 1) * ROUND_US - ROUND_US / 2,
                end_us: (last as u64 + 1) * ROUND_US + ROUND_US / 2,
            };
            net.add_partition(window);
            windows.push(window);
            for c in 0..cfg.conflicts_per_partition {
                let round = first + c % (last - first + 1);
                let view = rng.gen_range(0..2u64) as usize;
                let key = a as i64 * shard + rng.gen_range(0..shard as u64) as i64;
                sched.entry(round).or_default().push(Ev::Conflict { a, b, view, key });
            }
        }
    }

    let mut kills = 0u64;
    let mut audit_failures = 0u64;
    let mut last_error: Option<String> = None;
    let mut killed = false;

    'drive: for round in 0..cfg.rounds {
        let now = (round as u64 + 1) * ROUND_US;
        clock.set(now);
        for ev in sched.remove(&round).unwrap_or_default() {
            let committers: Vec<(usize, usize, usize, i64)> = match ev {
                Ev::Commit { replica, view, rel, key } => vec![(replica, view, rel, key)],
                Ev::Conflict { a, b, view, key } => {
                    vec![(a, view, 0, key), (b, view, 0, key)]
                }
            };
            for (r, view, rel, key) in committers {
                match do_commit(&mut peers[r], &tb, view, rel, key, &mut rng, cfg.max_steps) {
                    Ok(failed) => audit_failures += failed,
                    Err(e) => {
                        last_error = Some(e);
                        break 'drive;
                    }
                }
                let p = &mut peers[r];
                let out = match p.eng.publish(&mut p.wh, now) {
                    Ok(out) => out,
                    Err(e) => {
                        last_error = Some(e.to_string());
                        break 'drive;
                    }
                };
                if cfg.kill_round == Some(round) && !killed {
                    // Crash before send: the Published record is durable, the
                    // copies never left. Recovery re-sends identical bytes.
                    killed = true;
                    kills += 1;
                    drop(out);
                    if let Err(e) = restart(
                        &mut peers,
                        r,
                        &mut net,
                        key_cols.clone(),
                        cfg.checkpoint_every,
                        now,
                    ) {
                        last_error = Some(e);
                        break 'drive;
                    }
                } else {
                    for o in out {
                        net.send(r as u16, o.to, o.seq, o.bytes, now);
                    }
                }
            }
        }
        if let Err(e) = pump(&mut peers, &mut net, now, &tb) {
            last_error = Some(e);
            break 'drive;
        }
    }

    // Heal and flush: advance past every partition window, deliver held
    // traffic, then NACK-refetch whatever drops or reorder gaps withheld
    // until every link's floor reaches its last sent sequence.
    if last_error.is_none() {
        let healed = windows.iter().map(|w| w.end_us).max().unwrap_or(0);
        let mut now = ((cfg.rounds as u64 + 2) * ROUND_US).max(healed + ROUND_US);
        let mut spins = 0u32;
        loop {
            clock.set(now);
            if let Err(e) = pump(&mut peers, &mut net, now, &tb) {
                last_error = Some(e);
                break;
            }
            let mut progressed = false;
            for r in 0..n {
                let mut wanted: Vec<(u16, u64)> = peers[r].eng.gaps();
                for origin in (0..n as u16).filter(|&o| o as usize != r) {
                    let floor = peers[r].eng.delivered(origin);
                    if net.last_sent(origin, r as u16) > floor {
                        wanted.push((origin, floor));
                    }
                }
                for (origin, after) in wanted {
                    let refetch = net.nack(r as u16, origin, after, now);
                    for (_seq, bytes) in refetch {
                        if let Err(e) = deliver(&mut peers[r], &bytes, now, &tb) {
                            last_error = Some(e);
                            break;
                        }
                        progressed = true;
                    }
                    if last_error.is_some() {
                        break;
                    }
                    let floor = peers[r].eng.delivered(origin);
                    net.ack(origin, r as u16, floor);
                    peers[origin as usize].eng.acked(r as u16, floor);
                }
                if last_error.is_some() {
                    break;
                }
            }
            if last_error.is_some() {
                break;
            }
            if net.inflight_len() == 0 && !progressed {
                break;
            }
            if let Some(t) = net.next_event_us() {
                now = now.max(t);
            }
            spins += 1;
            if spins > 10_000 {
                last_error = Some("replication flush did not quiesce".to_string());
                break;
            }
        }
    }

    let extent_crcs: Vec<Vec<u32>> = peers
        .iter()
        .map(|p| (0..p.wh.view_count()).map(|i| extent_crc(p.wh.mv(i))).collect())
        .collect();
    let bit_identical = extent_crcs.windows(2).all(|w| w[0] == w[1]);
    for p in &peers {
        match audit(&p.wh, p.port.space()) {
            Ok(failed) => audit_failures += failed,
            Err(e) => last_error = last_error.or(Some(e.to_string())),
        }
    }
    let source_consistent = audit_failures == 0;
    let sum = |name: &str| {
        peers.iter().map(|p| p.obs.registry().counter_value(name).unwrap_or(0)).sum::<u64>()
    };
    ReplicaReport {
        converged: last_error.is_none() && bit_identical && source_consistent,
        bit_identical,
        source_consistent,
        extent_crcs,
        partitions_injected: net.partitions_injected(),
        conflicts: sum("replica.conflicts"),
        superseded: sum("replica.superseded"),
        remote_applied: sum("replica.remote_applied"),
        published: sum("replica.published"),
        duplicates: sum("replica.duplicates"),
        kills,
        last_error,
        lineage: peers.iter().map(|p| p.obs.lineage_jsonl()).collect(),
        lag_quantiles: peers
            .iter()
            .map(|p| {
                let h = p.obs.registry().histogram("replica.lag_us");
                let (p50, p95, p99) = h.percentiles();
                (h.count(), p50, p95, p99)
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_pair_converges() {
        let report = run_replicated(&ReplicaConfig::named("quiet", 2, 42));
        assert!(report.converged, "quiet links must converge: {:?}", report.last_error);
        assert!(report.published > 0);
        assert!(report.remote_applied > 0);
        assert_eq!(report.conflicts, 0, "sharded keys, no partitions, no conflicts");
        assert_eq!(report.lag_quantiles.len(), 2, "one lag summary per replica");
        assert!(
            report.lag_quantiles.iter().any(|&(count, ..)| count > 0),
            "remote applies recorded live lag samples"
        );
    }

    #[test]
    fn partition_trio_detects_conflicts_and_converges() {
        let report = run_replicated(&ReplicaConfig::named("partition", 3, 7));
        assert!(report.converged, "heal must converge: {:?}", report.last_error);
        assert!(report.partitions_injected > 0, "windows held traffic");
        assert!(report.conflicts > 0, "concurrent writes were detected");
        assert!(report.superseded > 0, "LWW losers were discarded");
    }

    #[test]
    fn drop_dup_links_recover_by_nack() {
        let report = run_replicated(&ReplicaConfig::named("drop_dup", 3, 11));
        assert!(report.converged, "refetch must converge: {:?}", report.last_error);
    }

    #[test]
    fn crash_before_send_resends_from_the_wal() {
        let report = run_replicated(&ReplicaConfig::named("quiet", 2, 5).with_kill(6));
        assert_eq!(report.kills, 1, "the kill fired");
        assert!(report.converged, "recovery re-sends: {:?}", report.last_error);
    }

    #[test]
    fn same_seed_is_bit_reproducible() {
        let run = || run_replicated(&ReplicaConfig::named("partition", 3, 23).with_lineage());
        let (a, b) = (run(), run());
        assert_eq!(a.extent_crcs, b.extent_crcs);
        assert_eq!(a.conflicts, b.conflicts);
        assert_eq!(a.superseded, b.superseded);
        assert_eq!(a.lineage, b.lineage, "lineage is bit-reproducible");
    }
}
