//! The warehouse's durable commit protocol over a [`dyno_durable::Wal`].
//!
//! ## Records
//!
//! | tag | record | written |
//! |---|---|---|
//! | 1 | `Checkpoint` — the warehouse's whole image, encoded straight from the live warehouse | at attach, whenever the tail has grown as large as the last checkpoint (see [`DurableLog::should_checkpoint`]), and at the end of every recovery (as a [`Wal::rewrite`], truncating the log) |
//! | 2 | `Admitted(UpdateMeta)` | when the ingress gate admits a message to the UMQ |
//! | 3 | `Intent{keys, has_sc}` | immediately **before** a batch's maintenance executes |
//! | 4 | `Applied(AppliedRecord)` — `{keys, changes, reflected, view_reflected}` | immediately **after** the in-memory commit of a batch, as **one** record covering every view |
//! | 5 | `Replica`: sub-tag 0 `Published{bytes}`, sub-tag 2 `Remote{bytes}` (sub-tag 1, a view post-image, is retired and rejected on replay) | when the replication engine publishes a client write (before it reaches the network) and when it resolves a received peer write (applied or superseded) |
//!
//! A commit has one form: the [`AppliedRecord`], one [`AppliedChange`] per
//! view slot. Staging yields the changes, the warehouse applies them through
//! one function (live and on replay), and this log appends the record by
//! reference. In memory a change carries its parsed [`ViewDefinition`]; the
//! codec renders it as SQL and parses it back, and SQL that does not parse
//! makes the record corrupt.
//!
//! The two replication records are the engine's own bytes: the warehouse
//! logs them and hands them back after a recovery
//! ([`Warehouse::take_replica_tail`]) without reading them. A replicated
//! write reaches a view only as a source update the warehouse maintains.
//!
//! The checkpoint image and the replay that folds records back into a
//! warehouse belong to [`Warehouse`] itself ([`Warehouse::recover`]).
//!
//! ## The recovery invariants
//!
//! * **Intent without Applied ⇒ nothing happened.** The in-memory commit is
//!   atomic with writing `Applied`; a crash between them discards the
//!   process along with its un-logged view writes, so replay simply re-parks
//!   the batch (it is still in the restored UMQ) and the restarted scheduler
//!   redoes it. This is the paper's Equation 6 atomicity made durable: a
//!   batch node is either fully applied (one `Applied` record covering every
//!   view and every batched update) or not at all — and replay keeps it so:
//!   an `Applied` record is checked whole before any view changes.
//! * **Torn tail ⇒ never sent.** [`dyno_durable::Wal::open`] stops at the
//!   first corrupt byte; everything before it is a complete record,
//!   everything after was never acknowledged to anyone (the warehouse acks
//!   sources only from checkpoints/applied state).
//! * **Dependency edges are not persisted.** Correction is a deterministic
//!   function of (queue, views, policy); the restored scheduler recomputes
//!   the graph from the restored queue, so persisting it would only create a
//!   second source of truth. SC-batch *boundaries* (merged entries) ARE
//!   persisted — they are queue structure, not derived data.
//!
//! ## Deterministic power cuts
//!
//! [`CrashPlan`] arms the log to simulate a power failure at a chosen
//! protocol point: after the N-th matching record is written, the log
//! silently drops every later write, exactly like a host that lost power
//! with its page cache unflushed. The chaos driver polls
//! [`DurableLog::power_cut`] and kills/recovers the warehouse when it trips.

use dyno_core::wire as core_wire;
use dyno_core::UpdateMeta;
use dyno_durable::codec::{dec_seq, enc_seq, Dec, Enc, WireError};
use dyno_durable::storage::Storage;
use dyno_durable::wal::{Wal, WalError};
use dyno_obs::Collector;
use dyno_relational::wire as rel_wire;
use dyno_relational::ZSet;
use dyno_source::wire as src_wire;
use dyno_source::UpdateMessage;

use crate::{ViewDefinition, Warehouse};

/// One post-checkpoint replication-engine record surfaced by replay (see
/// [`Warehouse::take_replica_tail`]); both bodies are engine-opaque.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaTailEvent {
    /// The engine published a client write to its peers (assigned
    /// sequences, message bodies, stamps).
    Published {
        /// Engine-opaque publish event.
        bytes: Vec<u8>,
    },
    /// The engine resolved one received peer write (applied or superseded).
    Remote {
        /// Engine-opaque resolution.
        bytes: Vec<u8>,
    },
}

/// What one commit does to one view slot. Staging yields it, the warehouse
/// applies it and the WAL logs it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppliedChange {
    /// SWEEP delta merged into the extent (definition and columns unchanged).
    Delta {
        /// Signed rows merged into the extent.
        rows: ZSet,
    },
    /// Adaptation replaced the extent wholesale (and rewrote the definition).
    Replace {
        /// The rewritten definition (logged as its SQL).
        view: ViewDefinition,
        /// The adapted view's output columns.
        cols: Vec<String>,
        /// The full replacement extent.
        extent: ZSet,
    },
    /// Adaptation rewrote the definition but patched the extent
    /// incrementally (Equation 6; output columns unchanged).
    Incremental {
        /// The rewritten definition (logged as its SQL).
        view: ViewDefinition,
        /// Signed rows merged into the extent.
        rows: ZSet,
    },
    /// The batch did not touch this view's sources/relations: the view's
    /// extent is unchanged but its reflected vector still advances.
    Skipped,
    /// The view could not maintain this batch (source unavailable) while
    /// its peers committed: the batch moves to the view's deferred queue
    /// and its reflected vector freezes.
    Deferred,
}

impl AppliedChange {
    /// The rows the change writes: the delta, or a replace's whole new
    /// extent; `None` when the extent is left alone.
    pub fn rows(&self) -> Option<&ZSet> {
        match self {
            AppliedChange::Delta { rows } | AppliedChange::Incremental { rows, .. } => Some(rows),
            AppliedChange::Replace { extent, .. } => Some(extent),
            AppliedChange::Skipped | AppliedChange::Deferred => None,
        }
    }
}

/// One atomic commit: which queue entries it consumed, what it did to every
/// view, and the version vectors after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedRecord {
    /// Update keys of the committed batch.
    pub keys: Vec<u64>,
    /// Per-view changes, in slot order.
    pub changes: Vec<AppliedChange>,
    /// The full reflected version vector after the commit, sorted.
    pub reflected: Vec<(u32, u64)>,
    /// Per-view reflected vectors after the commit, in slot order (a
    /// deferring view's vector stays frozen while its peers advance).
    pub view_reflected: Vec<Vec<(u32, u64)>>,
}

/// Where in the commit protocol a planned power cut strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// After a completed commit (`Applied` durable), before the next step.
    BetweenSteps,
    /// After the `Intent` of a single plain-DU maintenance, before its
    /// `Applied` — the half-done SWEEP.
    AfterIntent,
    /// After the `Intent` of a merged batch or schema-change node, before
    /// its `Applied` — the half-done adaptation Equation 6 must never
    /// expose.
    MidBatch,
    /// After a replica's `Published` record (and the checkpoint it made
    /// due, which the publish takes before returning), before any of its
    /// peer deltas reach the network — recovery must re-send them from the
    /// outbox.
    AfterPublish,
}

/// A deterministic kill: power is cut right after the `(skip+1)`-th record
/// matching [`CrashPoint`] is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// The protocol point to strike at.
    pub point: CrashPoint,
    /// How many matching records to let through first.
    pub skip: u64,
}

/// Why a recovery could not produce a warehouse.
#[derive(Debug, Clone)]
pub enum RecoverError {
    /// The underlying log failed (storage I/O).
    Wal(WalError),
    /// The log contains no checkpoint record — nothing to recover from.
    NoCheckpoint,
    /// An intact (CRC-valid) record decoded to an impossible value.
    Corrupt(String),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Wal(e) => write!(f, "{e}"),
            RecoverError::NoCheckpoint => write!(f, "log holds no checkpoint record"),
            RecoverError::Corrupt(why) => write!(f, "corrupt log record: {why}"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<WalError> for RecoverError {
    fn from(e: WalError) -> Self {
        RecoverError::Wal(e)
    }
}

/// What a recovery replay found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverReport {
    /// Intact records replayed (checkpoint + tail).
    pub replayed_records: u64,
    /// 1 if a torn/corrupt tail was discarded.
    pub torn_records: u64,
    /// Bytes discarded with it.
    pub torn_bytes: u64,
    /// In-flight intents without a matching `Applied` — batches the crash
    /// interrupted mid-maintenance, re-parked for the restarted scheduler.
    pub reparked_intents: u64,
}

const TAG_CHECKPOINT: u8 = 1;
const TAG_ADMITTED: u8 = 2;
const TAG_INTENT: u8 = 3;
const TAG_APPLIED: u8 = 4;
const TAG_REPLICA: u8 = 5;

const REPL_PUBLISHED: u8 = 0;
/// Retired: a view post-image forced into the extent on replay. Replay
/// rejects it by name.
const REPL_REMOTE_POST_IMAGE: u8 = 1;
const REPL_REMOTE: u8 = 2;

/// Below this many tail bytes the size rule never fires, so a warehouse
/// whose whole snapshot is a few hundred bytes does not compact every third
/// record.
const COMPACT_FLOOR_BYTES: u64 = 16 * 1024;

/// When the log compacts itself into a fresh checkpoint.
#[derive(Debug, Clone, Copy)]
enum CheckpointPolicy {
    /// The tail has grown as large as the checkpoint it follows.
    TailOutgrowsSnapshot,
    /// A fixed number of records were appended (seeded crash grids pin
    /// their kill points to this cadence).
    EveryRecords(u64),
}

/// The commit-protocol log: typed records over a [`Wal`], plus the armed
/// power-cut machinery for crash testing.
///
/// Log methods are infallible by design: a storage failure mid-run is
/// indistinguishable from a power cut, so it latches [`DurableLog::power_cut`]
/// instead of surfacing an error into the maintenance path (the driver kills
/// and recovers, which is exactly the correct response).
#[derive(Debug, Clone)]
pub struct DurableLog {
    wal: Wal,
    policy: CheckpointPolicy,
    appends_since_ckpt: u64,
    plan: Option<CrashPlan>,
    cut: bool,
    /// An [`CrashPoint::AfterPublish`] cut struck while a checkpoint was
    /// due: the publish takes that checkpoint right after its record, so it
    /// still lands.
    publish_checkpoint: bool,
    obs: Collector,
}

enum RecordKind {
    Admitted,
    Intent { batch_len: usize, has_sc: bool },
    Applied,
    Published,
    Remote,
}

impl DurableLog {
    pub(crate) fn over(wal: Wal) -> Self {
        DurableLog {
            wal,
            policy: CheckpointPolicy::TailOutgrowsSnapshot,
            appends_since_ckpt: 0,
            plan: None,
            cut: false,
            publish_checkpoint: false,
            obs: Collector::disabled(),
        }
    }

    /// Starts a fresh log on `storage` (erasing prior content).
    pub fn create(storage: Box<dyn Storage>) -> Result<Self, WalError> {
        Ok(Self::over(Wal::create(storage)?))
    }

    /// Overrides the checkpoint policy: snapshot after `n` appended records
    /// (`u64::MAX` disables periodic checkpoints).
    pub fn with_checkpoint_every(mut self, n: u64) -> Self {
        self.set_checkpoint_every(n);
        self
    }

    /// [`DurableLog::with_checkpoint_every`] on a log already in use — a
    /// recovered log starts at the default policy, whatever its previous
    /// life ran with (the policy is configuration, not logged state).
    pub fn set_checkpoint_every(&mut self, n: u64) {
        self.policy = CheckpointPolicy::EveryRecords(n.max(1));
    }

    /// Binds `wal.*` counters into a collector's registry.
    pub fn bind_obs(&mut self, obs: &Collector) {
        self.obs = obs.clone();
        self.wal.bind_obs(obs);
    }

    /// Arms a deterministic power cut.
    pub fn arm(&mut self, plan: CrashPlan) {
        self.plan = Some(plan);
    }

    /// True once the (simulated) power has been cut: every write since was
    /// silently dropped and the process should be considered dead.
    pub fn power_cut(&self) -> bool {
        self.cut
    }

    /// Current log size in bytes (0 after a cut is *not* implied — the cut
    /// only stops new writes).
    pub fn len_bytes(&self) -> u64 {
        self.wal.len_bytes()
    }

    /// Framed size of the checkpoint record the log currently starts with.
    pub fn snapshot_bytes(&self) -> u64 {
        self.wal.head_bytes()
    }

    /// Appends one record, its payload encoded in the WAL's frame buffer.
    fn append(&mut self, kind: RecordKind, encode: impl FnOnce(&mut Enc)) {
        if self.cut {
            return;
        }
        if self.wal.append_with(encode).is_err() {
            self.cut = true;
            return;
        }
        self.appends_since_ckpt += 1;
        if let Some(plan) = &mut self.plan {
            let matches = match (&plan.point, &kind) {
                (CrashPoint::BetweenSteps, RecordKind::Applied) => true,
                (CrashPoint::AfterIntent, RecordKind::Intent { batch_len, has_sc }) => {
                    *batch_len == 1 && !has_sc
                }
                (CrashPoint::MidBatch, RecordKind::Intent { batch_len, has_sc }) => {
                    *batch_len > 1 || *has_sc
                }
                (CrashPoint::AfterPublish, RecordKind::Published) => true,
                _ => false,
            };
            if matches {
                if plan.skip == 0 {
                    self.publish_checkpoint =
                        plan.point == CrashPoint::AfterPublish && self.should_checkpoint();
                    self.cut = true;
                    self.obs.counter("wal.power_cuts").inc();
                } else {
                    plan.skip -= 1;
                }
            }
        }
    }

    /// Logs one gate-admitted message (with its classification) before it
    /// enters the UMQ.
    pub fn log_admitted(&mut self, meta: &UpdateMeta<UpdateMessage>) {
        self.append(RecordKind::Admitted, |e| {
            e.u8(TAG_ADMITTED);
            core_wire::enc_meta(e, meta, src_wire::enc_message);
        });
    }

    /// Logs the intent to maintain a batch, before any query runs.
    pub fn log_intent(&mut self, keys: &[u64], has_sc: bool) {
        self.append(RecordKind::Intent { batch_len: keys.len(), has_sc }, |e| {
            e.u8(TAG_INTENT);
            enc_seq(e, keys, |e, k| e.u64(*k));
            e.bool(has_sc);
        });
    }

    /// Logs a completed commit — one atomic record across every view.
    pub fn log_applied(&mut self, rec: &AppliedRecord) {
        self.append(RecordKind::Applied, |e| {
            e.u8(TAG_APPLIED);
            enc_applied(e, rec);
        });
    }

    /// Logs the engine-encoded publish event for a client write — written
    /// **before** the messages reach the network, so a crash after this
    /// record re-sends (receivers dedupe by sequence) rather than assigning
    /// the same sequences to different bodies.
    pub fn log_replica_published(&mut self, bytes: &[u8]) {
        self.append(RecordKind::Published, |e| {
            e.u8(TAG_REPLICA);
            e.u8(REPL_PUBLISHED);
            e.bytes(bytes);
        });
    }

    /// Logs the engine-encoded resolution of one received peer write.
    pub fn log_replica_remote(&mut self, bytes: &[u8]) {
        self.append(RecordKind::Remote, |e| {
            e.u8(TAG_REPLICA);
            e.u8(REPL_REMOTE);
            e.bytes(bytes);
        });
    }

    /// True when the log should be compacted into a fresh checkpoint.
    ///
    /// By default that is when the tail appended since the last checkpoint
    /// has reached that checkpoint's own size `S` (or a small floor, for a
    /// near-empty warehouse). Every rewrite of a snapshot is then paid for
    /// by at least as many bytes of records, which bounds three things at
    /// once: the log holds less than `2·S + floor` bytes whenever a step
    /// ends, the bytes ever written stay under twice the record bytes plus
    /// one snapshot, and recovery never replays a tail longer than the
    /// snapshot it follows. A log built
    /// [`DurableLog::with_checkpoint_every`] counts records instead.
    pub fn should_checkpoint(&self) -> bool {
        if self.cut && !self.publish_checkpoint {
            return false;
        }
        match self.policy {
            CheckpointPolicy::TailOutgrowsSnapshot => {
                let snapshot = self.wal.head_bytes();
                self.wal.len_bytes() - snapshot >= snapshot.max(COMPACT_FLOOR_BYTES)
            }
            CheckpointPolicy::EveryRecords(n) => self.appends_since_ckpt >= n,
        }
    }

    /// Writes a checkpoint of `wh`, atomically truncating the log to that
    /// single record (sequence numbers keep counting). The image is encoded
    /// straight from the live warehouse into the WAL's frame buffer.
    pub(crate) fn checkpoint(&mut self, wh: &Warehouse) {
        if self.cut && !std::mem::take(&mut self.publish_checkpoint) {
            return;
        }
        let written = self.wal.rewrite_with(|e| {
            e.u8(TAG_CHECKPOINT);
            wh.encode_checkpoint(e);
        });
        if written.is_err() {
            self.cut = true;
            return;
        }
        self.appends_since_ckpt = 0;
    }
}

/// One decoded log record, as [`Warehouse::recover`] replays it.
pub(crate) enum Record<'a> {
    /// A checkpoint, its image still encoded: the warehouse decodes itself.
    Checkpoint(Dec<'a>),
    /// One gate-admitted message.
    Admitted(UpdateMeta<UpdateMessage>),
    /// The intent to maintain a batch.
    Intent,
    /// One atomic commit.
    Applied(AppliedRecord),
    /// A replication-engine record (`Published` or `Remote`).
    Replica(ReplicaTailEvent),
}

impl<'a> Record<'a> {
    /// Decodes one payload. Every record but the checkpoint must be
    /// consumed exactly: trailing bytes are corruption, not padding.
    pub(crate) fn decode(payload: &'a [u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(payload);
        let record = match d.u8()? {
            TAG_CHECKPOINT => return Ok(Record::Checkpoint(d)),
            TAG_ADMITTED => Record::Admitted(core_wire::dec_meta(&mut d, src_wire::dec_message)?),
            TAG_INTENT => {
                dec_seq(&mut d, |d| d.u64())?;
                d.bool()?;
                Record::Intent
            }
            TAG_APPLIED => Record::Applied(dec_applied(&mut d)?),
            TAG_REPLICA => Record::Replica(match d.u8()? {
                REPL_PUBLISHED => ReplicaTailEvent::Published { bytes: d.bytes()?.to_vec() },
                REPL_REMOTE => ReplicaTailEvent::Remote { bytes: d.bytes()?.to_vec() },
                REPL_REMOTE_POST_IMAGE => {
                    return Err(WireError::Invalid(format!(
                        "replica subtag {REPL_REMOTE_POST_IMAGE} (a view post-image \
                         `Remote` record) is retired: peers now replicate source writes"
                    )))
                }
                t => return Err(WireError::Invalid(format!("replica subtag {t}"))),
            }),
            t => return Err(WireError::Invalid(format!("record tag {t}"))),
        };
        if !d.is_done() {
            return Err(WireError::Invalid("trailing bytes after a record".into()));
        }
        Ok(record)
    }
}

pub(crate) fn enc_versions(e: &mut Enc, versions: &[(u32, u64)]) {
    enc_seq(e, versions, |e, (s, v)| {
        e.u32(*s);
        e.u64(*v);
    });
}

pub(crate) fn dec_versions(d: &mut Dec<'_>) -> Result<Vec<(u32, u64)>, WireError> {
    dec_seq(d, |d| Ok((d.u32()?, d.u64()?)))
}

/// Encodes a queue of batches (the UMQ's nodes, or a view's deferred
/// queue) with its `u32` count prefix.
pub(crate) fn enc_batches(e: &mut Enc, batches: &[&[UpdateMeta<UpdateMessage>]]) {
    enc_seq(e, batches, |e, batch| {
        enc_seq(e, batch, |e, m| core_wire::enc_meta(e, m, src_wire::enc_message));
    });
}

pub(crate) fn dec_batches(
    d: &mut Dec<'_>,
) -> Result<Vec<Vec<UpdateMeta<UpdateMessage>>>, WireError> {
    dec_seq(d, |d| dec_seq(d, |d| core_wire::dec_meta(d, src_wire::dec_message)))
}

/// Parses a logged definition; SQL that does not parse is a corrupt record.
pub(crate) fn parse_view(sql: &str) -> Result<ViewDefinition, WireError> {
    ViewDefinition::parse(sql, "view").map_err(|e| WireError::Invalid(format!("view sql: {e}")))
}

fn enc_applied(e: &mut Enc, rec: &AppliedRecord) {
    enc_seq(e, &rec.keys, |e, k| e.u64(*k));
    enc_seq(e, &rec.changes, |e, c| match c {
        AppliedChange::Delta { rows } => {
            e.u8(0);
            rel_wire::enc_bag(e, rows);
        }
        AppliedChange::Replace { view, cols, extent } => {
            e.u8(1);
            e.str(&view.to_string());
            enc_seq(e, cols, |e, c| e.str(c));
            rel_wire::enc_bag(e, extent);
        }
        AppliedChange::Incremental { view, rows } => {
            e.u8(2);
            e.str(&view.to_string());
            rel_wire::enc_bag(e, rows);
        }
        AppliedChange::Skipped => e.u8(3),
        AppliedChange::Deferred => e.u8(4),
    });
    enc_versions(e, &rec.reflected);
    enc_seq(e, &rec.view_reflected, |e, vr| enc_versions(e, vr));
}

fn dec_applied(d: &mut Dec<'_>) -> Result<AppliedRecord, WireError> {
    let keys = dec_seq(d, |d| d.u64())?;
    let changes = dec_seq(d, |d| {
        Ok(match d.u8()? {
            0 => AppliedChange::Delta { rows: rel_wire::dec_bag(d)? },
            1 => AppliedChange::Replace {
                view: parse_view(&d.str()?)?,
                cols: dec_seq(d, |d| d.str())?,
                extent: rel_wire::dec_bag(d)?,
            },
            2 => AppliedChange::Incremental {
                view: parse_view(&d.str()?)?,
                rows: rel_wire::dec_bag(d)?,
            },
            3 => AppliedChange::Skipped,
            4 => AppliedChange::Deferred,
            t => return Err(WireError::Invalid(format!("applied change tag {t}"))),
        })
    })?;
    let reflected = dec_versions(d)?;
    let view_reflected = dec_seq(d, dec_versions)?;
    Ok(AppliedRecord { keys, changes, reflected, view_reflected })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InProcessPort, ViewDefinition};
    use dyno_core::{CorrectionPolicy, Strategy, UpdateKind};
    use dyno_durable::storage::MemStorage;
    use dyno_obs::Capture;
    use dyno_relational::{AttrType, Catalog, Relation, Schema, Tuple, Value};
    use dyno_source::{InfoSpace, SourceId, SourceServer, SourceSpace, UpdateId};

    fn msg(key: u64, source: u32, version: u64) -> UpdateMessage {
        let schema = Schema::of("R", &[("a", AttrType::Int)]);
        UpdateMessage {
            id: UpdateId(key),
            source: SourceId(source),
            source_version: version,
            update: dyno_relational::SourceUpdate::Data(dyno_relational::DataUpdate::new(
                dyno_relational::Delta::inserts(schema, [Tuple::of([key as i64])]).unwrap(),
            )),
        }
    }

    fn meta(key: u64, source: u32, version: u64) -> UpdateMeta<UpdateMessage> {
        UpdateMeta::new(key, source, UpdateKind::Data, msg(key, source, version))
    }

    fn bag(vals: &[i64]) -> ZSet {
        vals.iter().map(|&v| (Tuple::new(vec![Value::Int(v)]), 1)).collect()
    }

    /// Source 0 holds `R(a) = {1, 2}`, source 1 holds `S(a) = {9}`.
    fn space() -> SourceSpace {
        let mut space = SourceSpace::new();
        for (id, relation, rows) in [(0, "R", &[1, 2][..]), (1, "S", &[9][..])] {
            let schema = Schema::of(relation, &[("a", AttrType::Int)]);
            let mut catalog = Catalog::new();
            let tuples = rows.iter().map(|&v| Tuple::of([v]));
            catalog.add_relation(Relation::from_tuples(schema, tuples).unwrap()).unwrap();
            space.add_server(SourceServer::new(SourceId(id), format!("s{id}"), catalog));
        }
        space
    }

    /// View V over R — plus W over S, at tier 1, when `two` — initialized,
    /// with update 7 (source 0, version 1) admitted but not maintained and a
    /// replication snapshot set.
    fn warehouse(two: bool) -> (Warehouse, InfoSpace) {
        let space = space();
        let info = space.info().clone();
        let mut port = InProcessPort::new(space);
        let mut wh = Warehouse::new(info.clone(), Strategy::Pessimistic)
            .with_correction(CorrectionPolicy::MergeCycles);
        let view = |sql| ViewDefinition::parse(sql, "view").unwrap();
        wh.add_view(view("CREATE VIEW V AS SELECT R.a FROM R"));
        if two {
            wh.add_view_tiered(view("CREATE VIEW W AS SELECT S.a FROM S"), 1);
        }
        wh.initialize(&mut port).unwrap();
        wh.ingest([msg(7, 0, 1)]);
        wh.set_replica_ext(vec![0xAB, 0xCD]);
        (wh, info)
    }

    /// A fresh log on a fresh disk, starting with `wh`'s checkpoint.
    fn logged(wh: &Warehouse) -> (MemStorage, DurableLog) {
        let disk = MemStorage::new();
        let mut log = DurableLog::create(Box::new(disk.clone())).unwrap();
        log.checkpoint(wh);
        (disk, log)
    }

    /// `wh`'s checkpoint payload: two warehouses with equal images are
    /// equal in everything a recovery restores.
    fn image(wh: &Warehouse) -> Vec<u8> {
        let (disk, _) = logged(wh);
        let (_, replay) = Wal::open(Box::new(disk)).unwrap();
        let image = replay.payloads().next().unwrap().to_vec();
        image
    }

    fn recover(disk: &MemStorage, info: &InfoSpace, obs: &Collector) -> (Warehouse, RecoverReport) {
        Warehouse::recover(Box::new(disk.clone()), info.clone(), obs.clone()).unwrap()
    }

    #[test]
    fn state_round_trips_through_a_checkpoint() {
        let (wh, info) = warehouse(true);
        let (disk, _) = logged(&wh);
        let (back, report) = recover(&disk, &info, &Collector::wall());
        assert_eq!(image(&back), image(&wh));
        assert_eq!(back.queued_keys(), vec![vec![7]]);
        assert_eq!(back.ingress_marks(), vec![(0, 1)]);
        assert_eq!(back.replica_ext(), [0xAB, 0xCD]);
        assert_eq!(report.replayed_records, 1);
        assert_eq!(report.torn_records, 0);
        assert_eq!(report.reparked_intents, 0);
    }

    #[test]
    fn admitted_and_applied_fold_into_the_state() {
        let (wh, info) = warehouse(false);
        let (disk, mut log) = logged(&wh);
        // A new message is admitted…
        log.log_admitted(&meta(8, 1, 2));
        // …then the older queued batch commits.
        log.log_intent(&[7], false);
        log.log_applied(&AppliedRecord {
            keys: vec![7],
            changes: vec![AppliedChange::Delta { rows: bag(&[4]) }],
            reflected: vec![(0, 1), (1, 1)],
            view_reflected: vec![vec![(0, 1)]],
        });

        let obs = Collector::wall().with_capture(Capture::TRACE | Capture::PROV, 64);
        let (back, report) = recover(&disk, &info, &obs);
        assert_eq!(report.replayed_records, 4);
        assert_eq!(report.reparked_intents, 0, "the intent has its applied");
        // Replay is silent: its span is all it records, and it moves no
        // queue or stats counter.
        let names: Vec<&str> = obs.records().iter().map(|r| r.name).collect();
        assert_eq!(names, ["recover.replay", "recover.replay"], "span start and end");
        assert_eq!(obs.registry().counter_value("umq.admitted"), Some(0));
        assert_eq!(back.stats(0), crate::ViewStats::default());
        assert_eq!(back.mv(0).extent(), &bag(&[1, 2, 4]));
        assert_eq!(back.view_reflected(0), vec![(0, 1)]);
        let reflected = [(SourceId(0), 1), (SourceId(1), 1)].into_iter().collect();
        assert_eq!(back.reflected(), &reflected);
        assert_eq!(back.ingress_marks(), vec![(0, 1), (1, 2)], "admitted raised source 1");
        assert_eq!(back.queued_keys(), vec![vec![8]], "batch 7 gone, admitted 8 queued");
    }

    #[test]
    fn deferred_change_moves_the_batch_to_the_views_queue() {
        let (wh, info) = warehouse(true);
        let (disk, mut log) = logged(&wh);
        // V commits batch 7, W defers it (its source was down): W's vector
        // freezes while V's advances.
        log.log_intent(&[7], false);
        log.log_applied(&AppliedRecord {
            keys: vec![7],
            changes: vec![AppliedChange::Delta { rows: bag(&[4]) }, AppliedChange::Deferred],
            reflected: vec![(0, 1), (1, 0)],
            view_reflected: vec![vec![(0, 1)], vec![(1, 0)]],
        });

        let obs = Collector::wall();
        let (back, _) = recover(&disk, &info, &obs);
        assert_eq!(back.mv(0).extent(), &bag(&[1, 2, 4]));
        assert_eq!(back.view_reflected(0), vec![(0, 1)]);
        assert_eq!(back.mv(1).extent(), &bag(&[9]), "deferring view untouched");
        assert_eq!(back.view_reflected(1), vec![(1, 0)], "frozen vector");
        assert_eq!(back.deferred_keys(1), vec![vec![7]], "batch parked per-view");
        assert!(back.queued_keys().is_empty(), "the shared queue is drained");

        // The per-view drain later commits the deferred batch for W alone
        // (V marked Skipped) — replay must resolve W's deferred copy.
        let (disk, mut log) = logged(&back);
        log.log_intent(&[7], false);
        log.log_applied(&AppliedRecord {
            keys: vec![7],
            changes: vec![AppliedChange::Skipped, AppliedChange::Delta { rows: bag(&[4]) }],
            reflected: vec![(0, 1), (1, 0)],
            view_reflected: vec![vec![(0, 1)], vec![(0, 1), (1, 0)]],
        });
        let (drained, _) = recover(&disk, &info, &obs);
        assert_eq!(drained.mv(0).extent(), &bag(&[1, 2, 4]), "skipped peer untouched");
        assert_eq!(drained.mv(1).extent(), &bag(&[9, 4]));
        assert_eq!(drained.deferred_len(1), 0, "deferred copy resolved");
        assert_eq!(drained.view_reflected(1), vec![(0, 1), (1, 0)], "vector caught up");
    }

    #[test]
    fn skipped_peer_keeps_its_own_deferred_copy() {
        // Both views deferred batch 7; V drains it first. W's copy must
        // survive the drain record (its change is `Skipped`, not applied).
        let (wh, info) = warehouse(true);
        let (disk, mut log) = logged(&wh);
        log.log_applied(&AppliedRecord {
            keys: vec![7],
            changes: vec![AppliedChange::Deferred, AppliedChange::Deferred],
            reflected: vec![(0, 1), (1, 0)],
            view_reflected: vec![vec![(0, 0)], vec![(1, 0)]],
        });
        log.log_applied(&AppliedRecord {
            keys: vec![7],
            changes: vec![AppliedChange::Delta { rows: bag(&[4]) }, AppliedChange::Skipped],
            reflected: vec![(0, 1), (1, 0)],
            view_reflected: vec![vec![(0, 1)], vec![(1, 0)]],
        });
        let (back, _) = recover(&disk, &info, &Collector::wall());
        assert_eq!(back.deferred_len(0), 0, "drained view's copy resolved");
        assert_eq!(back.deferred_keys(1), vec![vec![7]], "peer's copy survives");
    }

    /// A definition whose rendered SQL (`CREATE VIEW W W AS …`) no parser
    /// accepts: the record carrying it is corrupt on the log.
    fn unparsable_view() -> ViewDefinition {
        let w = ViewDefinition::parse("CREATE VIEW W AS SELECT S.a FROM S", "view").unwrap();
        let view = ViewDefinition::new("W W", w.query);
        assert!(ViewDefinition::parse(&view.to_string(), "view").is_err());
        view
    }

    #[test]
    fn applied_record_replays_all_or_nothing() {
        // A CRC-valid `Applied` whose second change cannot replay is torn
        // as a whole: V, whose own change was fine, keeps the checkpoint's
        // extent and vector too.
        let bad_second_changes = [
            // W defers a batch that is not queued.
            (vec![8], AppliedChange::Deferred),
            // W's delta deletes a row it does not hold.
            (vec![7], AppliedChange::Delta { rows: [(Tuple::of([9]), -2)].into_iter().collect() }),
            // W's rewritten definition renders SQL that does not parse.
            (vec![7], AppliedChange::Incremental { view: unparsable_view(), rows: bag(&[]) }),
        ];
        for (keys, second) in bad_second_changes {
            let (wh, info) = warehouse(true);
            let (disk, mut log) = logged(&wh);
            log.log_applied(&AppliedRecord {
                keys,
                changes: vec![AppliedChange::Delta { rows: bag(&[4]) }, second.clone()],
                reflected: vec![(0, 1), (1, 0)],
                view_reflected: vec![vec![(0, 1)], vec![(1, 0)]],
            });
            let (back, report) = recover(&disk, &info, &Collector::wall());
            assert_eq!((report.replayed_records, report.torn_records), (1, 1), "{second:?}");
            assert_eq!(back.mv(0).extent(), &bag(&[1, 2]), "{second:?}: V's extent");
            assert_eq!(back.view_reflected(0), vec![(0, 0)], "{second:?}: V's vector");
            assert_eq!(image(&back), image(&wh), "{second:?}: the checkpoint, unchanged");
        }
    }

    #[test]
    fn applied_record_without_a_vector_per_view_is_torn() {
        // No writer leaves the per-view vectors out; replayed, such a record
        // would move the extent and leave the view's vector behind it.
        let (wh, info) = warehouse(false);
        let (disk, mut log) = logged(&wh);
        log.log_applied(&AppliedRecord {
            keys: vec![7],
            changes: vec![AppliedChange::Delta { rows: bag(&[4]) }],
            reflected: vec![(0, 1)],
            view_reflected: vec![],
        });
        let (back, report) = recover(&disk, &info, &Collector::wall());
        assert_eq!((report.replayed_records, report.torn_records), (1, 1));
        assert_eq!(back.mv(0).extent(), &bag(&[1, 2]), "the checkpoint's extent");
        assert_eq!(back.view_reflected(0), vec![(0, 0)], "the checkpoint's vector");
        assert_eq!(image(&back), image(&wh));
    }

    #[test]
    fn intent_without_applied_is_reparked() {
        let (wh, info) = warehouse(false);
        let (disk, mut log) = logged(&wh);
        log.log_intent(&[7], false);
        // crash here — no Applied.
        let obs = Collector::wall();
        let (back, report) = recover(&disk, &info, &obs);
        assert_eq!(report.reparked_intents, 1);
        assert_eq!(back.queued_keys(), vec![vec![7]], "the batch is still queued");
        assert_eq!(obs.registry().counter_value("recover.reparked_intents"), Some(1));
    }

    #[test]
    fn armed_after_intent_cut_drops_the_applied() {
        let (wh, info) = warehouse(false);
        let (disk, mut log) = logged(&wh);
        log.arm(CrashPlan { point: CrashPoint::AfterIntent, skip: 0 });
        log.log_intent(&[7], false);
        assert!(log.power_cut(), "single-DU intent trips AfterIntent");
        // The in-memory commit still "happens" in the live process…
        log.log_applied(&AppliedRecord {
            keys: vec![7],
            changes: vec![AppliedChange::Delta { rows: bag(&[4]) }],
            reflected: vec![(0, 1)],
            view_reflected: vec![vec![(0, 1)]],
        });
        // …but was never durable.
        let (back, report) = recover(&disk, &info, &Collector::wall());
        assert_eq!(report.reparked_intents, 1);
        assert_eq!(back.mv(0).extent(), &bag(&[1, 2]), "the applied never landed");
    }

    #[test]
    fn crash_point_classification() {
        let disk = MemStorage::new();
        let mut log = DurableLog::create(Box::new(disk)).unwrap();
        log.arm(CrashPlan { point: CrashPoint::MidBatch, skip: 1 });
        log.log_intent(&[1], false); // plain DU: no match
        assert!(!log.power_cut());
        log.log_intent(&[2], true); // SC node: first match, skipped
        assert!(!log.power_cut());
        log.log_intent(&[3, 4], false); // merged batch: second match → cut
        assert!(log.power_cut());
    }

    #[test]
    fn between_steps_cut_fires_on_applied() {
        let disk = MemStorage::new();
        let mut log = DurableLog::create(Box::new(disk)).unwrap();
        log.arm(CrashPlan { point: CrashPoint::BetweenSteps, skip: 0 });
        log.log_intent(&[1], false);
        assert!(!log.power_cut());
        log.log_applied(&AppliedRecord {
            keys: vec![1],
            changes: vec![],
            reflected: vec![],
            view_reflected: vec![],
        });
        assert!(log.power_cut());
    }

    #[test]
    fn torn_tail_is_reported_and_truncated_by_recovery() {
        let (wh, info) = warehouse(false);
        let (disk, mut log) = logged(&wh);
        let intact = disk.snapshot().len();
        log.log_admitted(&meta(8, 1, 2));
        // Tear the admitted record.
        disk.truncate(intact + 5);

        let obs = Collector::wall();
        let (back, report) = recover(&disk, &info, &obs);
        assert_eq!(report.torn_records, 1);
        assert!(report.torn_bytes > 0);
        assert_eq!(image(&back), image(&wh), "checkpointed prefix survives intact");
        assert_eq!(obs.registry().counter_value("recover.torn_records"), Some(1));

        // Recovery re-checkpointed: a second pass replays cleanly.
        let (again, report2) = recover(&disk, &info, &obs);
        assert_eq!(image(&again), image(&back));
        assert_eq!(report2.torn_records, 0, "the torn tail was truncated away");
    }

    #[test]
    fn replica_records_fold_and_surface_in_the_tail() {
        let (wh, info) = warehouse(false);
        let (disk, mut log) = logged(&wh);
        log.log_replica_published(&[1, 2, 3]);
        log.log_replica_remote(&[9]);
        log.log_replica_remote(&[8]);

        let obs = Collector::wall();
        let (mut back, report) = recover(&disk, &info, &obs);
        assert_eq!(report.replayed_records, 4);
        assert_eq!(back.mv(0).extent(), &bag(&[1, 2]), "engine records never touch a view");
        let remote = |bytes: &[u8]| ReplicaTailEvent::Remote { bytes: bytes.to_vec() };
        assert_eq!(
            back.take_replica_tail(),
            [ReplicaTailEvent::Published { bytes: vec![1, 2, 3] }, remote(&[9]), remote(&[8])],
            "in log order, bytes untouched"
        );

        // Recovery's closing checkpoint truncated the tail records: a
        // second pass starts with an empty tail.
        let (mut again, _) = recover(&disk, &info, &obs);
        assert!(again.take_replica_tail().is_empty());
    }

    #[test]
    fn a_retired_post_image_remote_record_is_rejected_by_name() {
        let (wh, info) = warehouse(false);
        let (disk, mut log) = logged(&wh);
        log.log_replica_remote(&[]);
        // The same record under the retired sub-tag, re-framed.
        let (_, replay) = Wal::open(Box::new(disk)).unwrap();
        let mut payloads: Vec<Vec<u8>> = replay.payloads().map(<[u8]>::to_vec).collect();
        assert_eq!(payloads[1][..2], [TAG_REPLICA, REPL_REMOTE]);
        payloads[1][1] = REPL_REMOTE_POST_IMAGE;
        let err = Record::decode(&payloads[1]).err().expect("the retired sub-tag is rejected");
        let err = err.to_string();
        assert!(err.contains("replica subtag 1") && err.contains("retired"), "{err}");
        // Replay stops there: the record is a torn tail, never folded.
        let retired = MemStorage::new();
        let mut wal = Wal::create(Box::new(retired.clone())).unwrap();
        for payload in &payloads {
            wal.append_with(|e| e.raw(payload)).unwrap();
        }
        let (mut back, report) = recover(&retired, &info, &Collector::wall());
        assert_eq!((report.replayed_records, report.torn_records), (1, 1));
        assert!(back.take_replica_tail().is_empty());
    }

    #[test]
    fn compaction_follows_the_tail_to_snapshot_ratio_unless_a_count_is_pinned() {
        let (small, info) = warehouse(false);
        let mut large = small.clone();
        large.set_replica_ext(vec![7; 3 * COMPACT_FLOOR_BYTES as usize]);
        let (disk, mut log) = logged(&large);
        let snapshot = log.snapshot_bytes();
        assert_eq!((log.len_bytes(), snapshot), (disk.snapshot().len() as u64, snapshot));
        assert!(snapshot > 3 * COMPACT_FLOOR_BYTES);
        while log.len_bytes() < 2 * snapshot {
            assert!(!log.should_checkpoint(), "tail {} B", log.len_bytes() - snapshot);
            log.log_replica_published(&[0; 4096]);
        }
        assert!(log.should_checkpoint(), "the tail has reached the snapshot's size");

        // A near-empty snapshot waits for the floor instead.
        log.checkpoint(&small);
        assert!(log.snapshot_bytes() < 1024);
        log.log_replica_published(&[0; 4096]);
        assert!(!log.should_checkpoint(), "4 KiB of tail over a sub-KiB snapshot");
        log.log_replica_published(&[0; COMPACT_FLOOR_BYTES as usize]);
        assert!(log.should_checkpoint());

        // A pinned count ignores sizes…
        log.set_checkpoint_every(3);
        assert!(!log.should_checkpoint(), "two records, whatever their size");
        log.log_intent(&[3], false);
        assert!(log.should_checkpoint());
        log.checkpoint(&large);

        // …and is configuration, not state: the recovered log is back on
        // the size rule, its sizes re-seeded by the closing checkpoint.
        let (mut back, _) = recover(&disk, &info, &Collector::disabled());
        let sizes = |wh: &Warehouse| {
            let log = wh.wal().unwrap();
            (log.len_bytes(), log.snapshot_bytes())
        };
        assert_eq!(sizes(&back), (snapshot, snapshot));
        for _ in 0..3 {
            back.log_replica_published(&[]);
        }
        assert!(!back.wal().unwrap().should_checkpoint());
        back.set_checkpoint_every(3);
        assert!(back.wal().unwrap().should_checkpoint());
    }

    #[test]
    fn empty_log_has_no_checkpoint() {
        let disk = MemStorage::new();
        let info = space().info().clone();
        let recovered = Warehouse::recover(Box::new(disk), info, Collector::wall());
        assert!(matches!(recovered, Err(RecoverError::NoCheckpoint)));
    }

    #[test]
    fn power_cut_makes_the_log_read_only() {
        let (wh, _) = warehouse(false);
        let (disk, mut log) = logged(&wh);
        let frozen = disk.snapshot();
        log.arm(CrashPlan { point: CrashPoint::BetweenSteps, skip: 0 });
        log.log_applied(&AppliedRecord {
            keys: vec![1],
            changes: vec![],
            reflected: vec![],
            view_reflected: vec![],
        });
        let after_cut = disk.snapshot();
        log.log_admitted(&meta(9, 0, 9));
        log.checkpoint(&wh);
        assert_eq!(disk.snapshot(), after_cut, "nothing lands after the cut");
        assert!(after_cut.len() > frozen.len(), "the tripping record itself did land");
    }

    /// The `Published` records a recovery hands the replication engine.
    fn published(disk: &MemStorage) -> Vec<Vec<u8>> {
        let (mut wh, _) = recover(disk, space().info(), &Collector::wall());
        let bytes = |e: ReplicaTailEvent| match e {
            ReplicaTailEvent::Published { bytes } => Some(bytes),
            _ => None,
        };
        wh.take_replica_tail().into_iter().filter_map(bytes).collect()
    }

    #[test]
    fn after_publish_cut_keeps_the_published_record_and_drops_every_later_append() {
        let (wh, _) = warehouse(false);
        let (disk, mut log) = logged(&wh);
        log.arm(CrashPlan { point: CrashPoint::AfterPublish, skip: 1 });
        log.log_replica_remote(b"m"); // no match
        log.log_replica_published(b"first"); // first match, skipped
        assert!(!log.power_cut());
        log.log_replica_published(b"second");
        assert!(log.power_cut(), "the second publish trips the cut");
        assert!(!log.should_checkpoint(), "no checkpoint was due");
        let after_cut = disk.snapshot();
        log.log_admitted(&meta(9, 0, 9));
        log.log_replica_published(b"third");
        log.checkpoint(&wh);
        assert_eq!(disk.snapshot(), after_cut, "nothing lands after the cut");
        assert_eq!(published(&disk), [b"first".to_vec(), b"second".to_vec()]);
    }

    #[test]
    fn after_publish_cut_lands_the_checkpoint_its_publish_made_due() {
        let (wh, _) = warehouse(false);
        let disk = MemStorage::new();
        let mut log = DurableLog::create(Box::new(disk.clone())).unwrap().with_checkpoint_every(2);
        log.checkpoint(&wh);
        log.arm(CrashPlan { point: CrashPoint::AfterPublish, skip: 0 });
        log.log_admitted(&meta(9, 0, 9));
        log.log_replica_published(b"p");
        assert!(log.power_cut() && log.should_checkpoint(), "cut, with its checkpoint due");
        log.checkpoint(&wh);
        assert!(!log.should_checkpoint(), "that checkpoint was the last write");
        let after = disk.snapshot();
        log.log_admitted(&meta(10, 0, 10));
        log.checkpoint(&wh);
        assert_eq!(disk.snapshot(), after, "nothing lands after it");
        assert!(published(&disk).is_empty(), "the publish is folded into the checkpoint");
    }
}
