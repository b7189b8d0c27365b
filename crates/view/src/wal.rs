//! The warehouse's durable commit protocol over a [`dyno_durable::Wal`].
//!
//! ## Records
//!
//! | tag | record | written |
//! |---|---|---|
//! | 1 | `Checkpoint(DurableState)` | at attach, whenever the tail has grown as large as the last checkpoint (see [`DurableLog::should_checkpoint`]), and at the end of every recovery (as a [`Wal::rewrite`], truncating the log) |
//! | 2 | `Admitted(UpdateMeta)` | when the ingress gate admits a message to the UMQ |
//! | 3 | `Intent{keys, has_sc}` | immediately **before** a batch's maintenance executes |
//! | 4 | `Applied{keys, changes, reflected}` | immediately **after** the in-memory commit of a batch, as **one** record covering every view |
//! | 5 | `Replica` (`Published{bytes}` / `Remote{view, key, post, applied, bytes}`) | when the replication engine publishes a commit's peer deltas (before they reach the network) and when a received peer delta is resolved (applied or superseded) |
//!
//! ## The recovery invariants
//!
//! * **Intent without Applied ⇒ nothing happened.** The in-memory commit is
//!   atomic with writing `Applied`; a crash between them discards the
//!   process along with its un-logged view writes, so replay simply re-parks
//!   the batch (it is still in the restored UMQ) and the restarted scheduler
//!   redoes it. This is the paper's Equation 6 atomicity made durable: a
//!   batch node is either fully applied (one `Applied` record covering every
//!   view and every batched update) or not at all.
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
use dyno_core::{CorrectionPolicy, Strategy, UpdateMeta};
use dyno_durable::codec::{dec_seq, enc_seq, Dec, Enc, WireError};
use dyno_durable::storage::Storage;
use dyno_durable::wal::{Wal, WalError};
use dyno_obs::{field, Collector};
use dyno_relational::wire as rel_wire;
use dyno_relational::{Value, ZSet};
use dyno_source::wire as src_wire;
use dyno_source::UpdateMessage;

use crate::batch::AdaptationMode;

/// One view's recoverable state: its definition (as round-trippable SQL),
/// output columns, extent, and — in a multi-view warehouse — the per-view
/// progress a deferring view may hold back from its peers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewState {
    /// `CREATE VIEW name AS SELECT …` — the Display form of the definition.
    pub sql: String,
    /// Output column names of the materialized extent.
    pub cols: Vec<String>,
    /// The extent itself.
    pub extent: ZSet,
    /// *This* view's reflected version vector, sorted by source. Views
    /// advance independently: a batch one view defers freezes its vector
    /// while its peers move on.
    pub reflected: Vec<(u32, u64)>,
    /// Batches committed warehouse-wide but deferred by this view (its
    /// source was unavailable), in arrival order — replayed by the
    /// per-view drain after recovery.
    pub deferred: Vec<Vec<UpdateMeta<UpdateMessage>>>,
    /// SLA tier (lower = refreshed earlier).
    pub tier: u8,
}

/// Everything a warehouse needs to resume after a kill: scheduler
/// configuration, every view, the version vector, the ingress gate's
/// high-water marks, and the UMQ including merged-batch boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableState {
    /// Detection strategy the scheduler ran with.
    pub strategy: Strategy,
    /// Correction policy the scheduler ran with.
    pub policy: CorrectionPolicy,
    /// View-adaptation mode.
    pub adaptation: AdaptationMode,
    /// Whether the ingress gate's dedupe/resequencing was enabled.
    pub dedupe: bool,
    /// Every registered view, in slot order.
    pub views: Vec<ViewState>,
    /// Per-source versions the views reflect, sorted by source.
    pub reflected: Vec<(u32, u64)>,
    /// The ingress gate's admitted high-water marks, sorted by source —
    /// the resubscription baseline after a restart.
    pub marks: Vec<(u32, u64)>,
    /// The UMQ's entries in order, each a batch of one or more updates
    /// (SC-batch boundaries survive the crash).
    pub batches: Vec<Vec<UpdateMeta<UpdateMessage>>>,
    /// The `NewSchemaChangeFlag`.
    pub sc_flag: bool,
    /// Opaque replication-engine snapshot (vector clock, HLC, conflict
    /// registers, outbox, sequence floors) — owned and encoded by the
    /// engine, carried in every checkpoint. Empty when the warehouse is
    /// not replicated.
    pub ext: Vec<u8>,
    /// Post-checkpoint replication events, rebuilt by replay and **never
    /// encoded**: the engine pairs `Applied` with `Published` to re-publish
    /// commits the crash cut off before their peer deltas went out, and
    /// replays `Remote` write-backs/registers. Recovery truncates these
    /// records with its closing checkpoint, so the engine must fold the
    /// tail and re-checkpoint before normal operation resumes.
    pub tail: Vec<ReplicaTailEvent>,
}

/// A checkpoint's content borrowed from wherever it lives — the running
/// warehouse's slots and queue, or a decoded [`DurableState`]. The one
/// checkpoint encoder takes this form, so the extents and queued messages
/// are never copied on their way into the log.
pub(crate) struct StateRef<'a> {
    pub strategy: Strategy,
    pub policy: CorrectionPolicy,
    pub adaptation: AdaptationMode,
    pub dedupe: bool,
    pub views: Vec<ViewRef<'a>>,
    pub reflected: Vec<(u32, u64)>,
    pub marks: Vec<(u32, u64)>,
    pub batches: Vec<&'a [UpdateMeta<UpdateMessage>]>,
    pub sc_flag: bool,
    pub ext: &'a [u8],
}

/// One view of a [`StateRef`]; field for field a borrowed [`ViewState`].
pub(crate) struct ViewRef<'a> {
    pub sql: String,
    pub cols: &'a [String],
    pub extent: &'a ZSet,
    pub reflected: Vec<(u32, u64)>,
    pub deferred: Vec<&'a [UpdateMeta<UpdateMessage>]>,
    pub tier: u8,
}

impl DurableState {
    fn as_ref(&self) -> StateRef<'_> {
        StateRef {
            strategy: self.strategy,
            policy: self.policy,
            adaptation: self.adaptation,
            dedupe: self.dedupe,
            views: self
                .views
                .iter()
                .map(|v| ViewRef {
                    sql: v.sql.clone(),
                    cols: &v.cols,
                    extent: &v.extent,
                    reflected: v.reflected.clone(),
                    deferred: v.deferred.iter().map(Vec::as_slice).collect(),
                    tier: v.tier,
                })
                .collect(),
            reflected: self.reflected.clone(),
            marks: self.marks.clone(),
            batches: self.batches.iter().map(Vec::as_slice).collect(),
            sc_flag: self.sc_flag,
            ext: &self.ext,
        }
    }
}

/// One post-checkpoint replication event surfaced to the engine by replay
/// (see [`DurableState::tail`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaTailEvent {
    /// A local commit landed (its `Applied` record was durable). `rows` are
    /// the per-view extent changes — enough for the engine to recompute
    /// which `(view, key)` post-images the commit should have published.
    Applied {
        /// Update keys of the committed batch.
        keys: Vec<u64>,
        /// Per-view changed rows, in slot order (a `Replace` contributes
        /// its whole new extent; `Skipped`/`Deferred` contribute nothing).
        rows: Vec<ZSet>,
    },
    /// The engine published the peer deltas for a commit; `bytes` is the
    /// engine-encoded publish event (assigned sequences, message bodies,
    /// stamps).
    Published {
        /// Engine-opaque publish event.
        bytes: Vec<u8>,
    },
    /// A peer delta was received and resolved. Replay has already folded an
    /// `applied` event's post-image into the view extent (exactly once);
    /// `bytes` is the engine-encoded stamp metadata for register/floor
    /// restoration.
    Remote {
        /// View slot the delta targeted.
        view: u32,
        /// Join-key column in the view's output row.
        key_col: u32,
        /// The key whose post-image the delta replaced.
        key: Value,
        /// The winning post-image rows.
        post: ZSet,
        /// True iff the delta won resolution and was applied (a superseded
        /// loser is logged too, so registers survive the crash).
        applied: bool,
        /// Engine-opaque stamp metadata.
        bytes: Vec<u8>,
    },
}

/// The change one `Applied` record carries for one view slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppliedChange {
    /// SWEEP delta merged into the extent (definition and columns unchanged).
    Delta {
        /// Signed rows merged into the extent.
        rows: ZSet,
    },
    /// Adaptation replaced the extent wholesale (and rewrote the definition).
    Replace {
        /// The rewritten definition's SQL.
        sql: String,
        /// The adapted view's output columns.
        cols: Vec<String>,
        /// The full replacement extent.
        extent: ZSet,
    },
    /// Adaptation rewrote the definition but patched the extent
    /// incrementally (Equation 6; output columns unchanged).
    Incremental {
        /// The rewritten definition's SQL.
        sql: String,
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

/// One atomic commit: which queue entries it consumed, what it did to every
/// view, and the version vector after it.
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
const REPL_REMOTE: u8 = 1;

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
    fn over(wal: Wal) -> Self {
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

    /// Logs the engine-encoded publish event for a commit — written
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

    /// Logs one received peer delta and its resolution. Replay folds an
    /// `applied` record's post-image into the view extent exactly once;
    /// `bytes` carries the engine's stamp metadata either way.
    pub fn log_replica_remote(
        &mut self,
        view: u32,
        key_col: u32,
        key: &Value,
        post: &ZSet,
        applied: bool,
        bytes: &[u8],
    ) {
        self.append(RecordKind::Remote, |e| {
            e.u8(TAG_REPLICA);
            e.u8(REPL_REMOTE);
            e.u32(view);
            e.u32(key_col);
            rel_wire::enc_value(e, key);
            rel_wire::enc_bag(e, post);
            e.bool(applied);
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

    /// Writes a checkpoint, atomically truncating the log to that single
    /// record (sequence numbers keep counting).
    pub fn checkpoint(&mut self, state: &DurableState) {
        self.checkpoint_ref(&state.as_ref());
    }

    /// [`DurableLog::checkpoint`] straight from borrowed live state: the
    /// image is encoded once, into the WAL's frame buffer.
    pub(crate) fn checkpoint_ref(&mut self, state: &StateRef<'_>) {
        if self.cut && !std::mem::take(&mut self.publish_checkpoint) {
            return;
        }
        let written = self.wal.rewrite_with(|e| {
            e.u8(TAG_CHECKPOINT);
            enc_state(e, state);
        });
        if written.is_err() {
            self.cut = true;
            return;
        }
        self.appends_since_ckpt = 0;
    }
}

/// Replays a log: checkpoint + tail, folding every intact record into the
/// state, discarding the torn tail, and counting intents the crash left
/// open. Ends by writing a fresh checkpoint (which truncates the torn bytes
/// and makes recovery idempotent). Returns the reopened log, the state to
/// rebuild a warehouse from, and the replay accounting.
pub fn recover(
    storage: Box<dyn Storage>,
    obs: &Collector,
) -> Result<(DurableLog, DurableState, RecoverReport), RecoverError> {
    let (wal, replay) = Wal::open(storage)?;
    let _span = obs.span(
        "recover.replay",
        &[field("records", replay.payloads().len()), field("torn_bytes", replay.torn_bytes)],
    );
    let mut report = RecoverReport {
        torn_records: replay.torn_records,
        torn_bytes: replay.torn_bytes,
        ..RecoverReport::default()
    };
    let mut state: Option<DurableState> = None;
    let mut open_intents: Vec<Vec<u64>> = Vec::new();

    'replay: for payload in replay.payloads() {
        let mut d = Dec::new(payload);
        let parsed: Result<(), WireError> = (|| {
            match d.u8()? {
                TAG_CHECKPOINT => {
                    state = Some(dec_state(&mut d)?);
                    open_intents.clear();
                }
                TAG_ADMITTED => {
                    let meta = core_wire::dec_meta(&mut d, src_wire::dec_message)?;
                    let st = state
                        .as_mut()
                        .ok_or_else(|| WireError::Invalid("record before checkpoint".into()))?;
                    bump_mark(&mut st.marks, meta.source.0, meta.payload.source_version);
                    if meta.kind.is_schema_change() {
                        st.sc_flag = true;
                    }
                    st.batches.push(vec![meta]);
                }
                TAG_INTENT => {
                    let keys = dec_seq(&mut d, |d| d.u64())?;
                    let _has_sc = d.bool()?;
                    open_intents.push(keys);
                }
                TAG_APPLIED => {
                    let rec = dec_applied(&mut d)?;
                    let st = state
                        .as_mut()
                        .ok_or_else(|| WireError::Invalid("record before checkpoint".into()))?;
                    let event = apply_record(st, rec)?;
                    st.tail.push(event);
                    open_intents.clear();
                }
                TAG_REPLICA => {
                    let st = state
                        .as_mut()
                        .ok_or_else(|| WireError::Invalid("record before checkpoint".into()))?;
                    match d.u8()? {
                        REPL_PUBLISHED => {
                            st.tail
                                .push(ReplicaTailEvent::Published { bytes: d.bytes()?.to_vec() });
                        }
                        REPL_REMOTE => {
                            let view = d.u32()?;
                            let key_col = d.u32()?;
                            let key = rel_wire::dec_value(&mut d)?;
                            let post = rel_wire::dec_bag(&mut d)?;
                            let applied = d.bool()?;
                            let bytes = d.bytes()?.to_vec();
                            if applied {
                                let vs = st.views.get_mut(view as usize).ok_or_else(|| {
                                    WireError::Invalid(format!("remote delta for view {view}"))
                                })?;
                                fold_remote(vs, key_col as usize, &key, &post);
                            }
                            st.tail.push(ReplicaTailEvent::Remote {
                                view,
                                key_col,
                                key,
                                post,
                                applied,
                                bytes,
                            });
                        }
                        t => return Err(WireError::Invalid(format!("replica subtag {t}"))),
                    }
                }
                t => return Err(WireError::Invalid(format!("record tag {t}"))),
            }
            Ok(())
        })();
        match parsed {
            Ok(()) => report.replayed_records += 1,
            Err(_) => {
                // A CRC-valid record that fails to decode can only come
                // from a format bug or hand-corruption; treat it like a
                // torn tail — keep the intact prefix, drop from here on.
                report.torn_records += 1;
                break 'replay;
            }
        }
    }

    let state = state.ok_or(RecoverError::NoCheckpoint)?;
    report.reparked_intents = open_intents.len() as u64;

    obs.counter("recover.replayed").add(report.replayed_records);
    obs.counter("recover.torn_records").add(report.torn_records);
    obs.counter("recover.reparked_intents").add(report.reparked_intents);

    let mut log = DurableLog::over(wal);
    log.bind_obs(obs);
    // Recovery commits its result durably: the torn tail is truncated away
    // and a second recovery from the same storage replays exactly this
    // checkpoint.
    log.checkpoint(&state);
    Ok((log, state, report))
}

/// Replaces `key`'s rows in a view extent with the winning post-image — the
/// replay-side mirror of [`Warehouse::apply_remote`](crate::Warehouse::apply_remote),
/// idempotent because the post-image is absolute.
fn fold_remote(vs: &mut ViewState, key_col: usize, key: &Value, post: &ZSet) {
    let mut delta = ZSet::new();
    for (t, w) in vs.extent.iter() {
        if t.get(key_col) == key {
            delta.add(t.clone(), -w);
        }
    }
    for (t, w) in post.iter() {
        delta.add(t.clone(), w);
    }
    vs.extent.merge(&delta);
}

fn bump_mark(marks: &mut Vec<(u32, u64)>, source: u32, version: u64) {
    match marks.iter_mut().find(|(s, _)| *s == source) {
        Some((_, v)) => *v = (*v).max(version),
        None => {
            marks.push((source, version));
            marks.sort_unstable();
        }
    }
}

/// Folds one `Applied` record into the replayed state — the replay-side
/// mirror of the in-memory commit it describes — and hands its rows on as
/// the tail event the replication engine pairs with `Published`.
fn apply_record(st: &mut DurableState, rec: AppliedRecord) -> Result<ReplicaTailEvent, WireError> {
    if rec.changes.len() != st.views.len() {
        return Err(WireError::Invalid(format!(
            "applied record covers {} views, state has {}",
            rec.changes.len(),
            st.views.len()
        )));
    }
    if !rec.view_reflected.is_empty() && rec.view_reflected.len() != st.views.len() {
        return Err(WireError::Invalid(format!(
            "applied record carries {} view vectors, state has {} views",
            rec.view_reflected.len(),
            st.views.len()
        )));
    }
    // A deferring view takes its copy of the batch from the queue *before*
    // the committed keys are removed from it.
    let deferred_batch: Vec<UpdateMeta<UpdateMessage>> =
        if rec.changes.iter().any(|c| matches!(c, AppliedChange::Deferred)) {
            st.batches.iter().flatten().filter(|m| rec.keys.contains(&m.key.0)).cloned().collect()
        } else {
            Vec::new()
        };
    let mut rows = Vec::with_capacity(rec.changes.len());
    for (view, change) in st.views.iter_mut().zip(rec.changes) {
        // A materializing change resolves the keys from this view's own
        // deferred queue too (the per-view drain commits deferred batches
        // through the same record shape, the peers marked `Skipped`).
        if !matches!(change, AppliedChange::Skipped | AppliedChange::Deferred) {
            for batch in &mut view.deferred {
                batch.retain(|m| !rec.keys.contains(&m.key.0));
            }
            view.deferred.retain(|b| !b.is_empty());
        }
        rows.push(match change {
            AppliedChange::Delta { rows } => {
                view.extent.merge(&rows);
                rows
            }
            AppliedChange::Replace { sql, cols, extent } => {
                view.sql = sql;
                view.cols = cols;
                view.extent = extent.clone();
                extent
            }
            AppliedChange::Incremental { sql, rows } => {
                view.sql = sql;
                view.extent.merge(&rows);
                rows
            }
            AppliedChange::Skipped => ZSet::new(),
            AppliedChange::Deferred => {
                if deferred_batch.is_empty() {
                    return Err(WireError::Invalid(
                        "deferred change with no queued batch to defer".into(),
                    ));
                }
                view.deferred.push(deferred_batch.clone());
                ZSet::new()
            }
        });
    }
    for (view, vr) in st.views.iter_mut().zip(rec.view_reflected) {
        view.reflected = vr;
    }
    st.reflected = rec.reflected;
    // The committed batch leaves the queue.
    for batch in &mut st.batches {
        batch.retain(|m| !rec.keys.contains(&m.key.0));
    }
    st.batches.retain(|b| !b.is_empty());
    Ok(ReplicaTailEvent::Applied { keys: rec.keys, rows })
}

fn enc_versions(e: &mut Enc, versions: &[(u32, u64)]) {
    enc_seq(e, versions, |e, (s, v)| {
        e.u32(*s);
        e.u64(*v);
    });
}

fn enc_batches(e: &mut Enc, batches: &[&[UpdateMeta<UpdateMessage>]]) {
    enc_seq(e, batches, |e, batch| {
        enc_seq(e, batch, |e, m| core_wire::enc_meta(e, m, src_wire::enc_message));
    });
}

fn enc_state(e: &mut Enc, st: &StateRef<'_>) {
    core_wire::enc_strategy(e, st.strategy);
    core_wire::enc_policy(e, st.policy);
    e.u8(match st.adaptation {
        AdaptationMode::Auto => 0,
        AdaptationMode::RecomputeOnly => 1,
    });
    e.bool(st.dedupe);
    enc_seq(e, &st.views, |e, v| {
        e.str(&v.sql);
        enc_seq(e, v.cols, |e, c| e.str(c));
        rel_wire::enc_bag(e, v.extent);
        enc_versions(e, &v.reflected);
        enc_batches(e, &v.deferred);
        e.u8(v.tier);
    });
    enc_versions(e, &st.reflected);
    enc_versions(e, &st.marks);
    enc_batches(e, &st.batches);
    e.bool(st.sc_flag);
    e.bytes(st.ext);
}

fn dec_state(d: &mut Dec<'_>) -> Result<DurableState, WireError> {
    let strategy = core_wire::dec_strategy(d)?;
    let policy = core_wire::dec_policy(d)?;
    let adaptation = match d.u8()? {
        0 => AdaptationMode::Auto,
        1 => AdaptationMode::RecomputeOnly,
        t => return Err(WireError::Invalid(format!("adaptation tag {t}"))),
    };
    let dedupe = d.bool()?;
    let views = dec_seq(d, |d| {
        Ok(ViewState {
            sql: d.str()?,
            cols: dec_seq(d, |d| d.str())?,
            extent: rel_wire::dec_bag(d)?,
            reflected: dec_seq(d, |d| Ok((d.u32()?, d.u64()?)))?,
            deferred: dec_seq(d, |d| {
                dec_seq(d, |d| core_wire::dec_meta(d, src_wire::dec_message))
            })?,
            tier: d.u8()?,
        })
    })?;
    let reflected = dec_seq(d, |d| Ok((d.u32()?, d.u64()?)))?;
    let marks = dec_seq(d, |d| Ok((d.u32()?, d.u64()?)))?;
    let batches = dec_seq(d, |d| dec_seq(d, |d| core_wire::dec_meta(d, src_wire::dec_message)))?;
    let sc_flag = d.bool()?;
    let ext = d.bytes()?.to_vec();
    Ok(DurableState {
        strategy,
        policy,
        adaptation,
        dedupe,
        views,
        reflected,
        marks,
        batches,
        sc_flag,
        ext,
        tail: Vec::new(),
    })
}

fn enc_applied(e: &mut Enc, rec: &AppliedRecord) {
    enc_seq(e, &rec.keys, |e, k| e.u64(*k));
    enc_seq(e, &rec.changes, |e, c| match c {
        AppliedChange::Delta { rows } => {
            e.u8(0);
            rel_wire::enc_bag(e, rows);
        }
        AppliedChange::Replace { sql, cols, extent } => {
            e.u8(1);
            e.str(sql);
            enc_seq(e, cols, |e, c| e.str(c));
            rel_wire::enc_bag(e, extent);
        }
        AppliedChange::Incremental { sql, rows } => {
            e.u8(2);
            e.str(sql);
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
                sql: d.str()?,
                cols: dec_seq(d, |d| d.str())?,
                extent: rel_wire::dec_bag(d)?,
            },
            2 => AppliedChange::Incremental { sql: d.str()?, rows: rel_wire::dec_bag(d)? },
            3 => AppliedChange::Skipped,
            4 => AppliedChange::Deferred,
            t => return Err(WireError::Invalid(format!("applied change tag {t}"))),
        })
    })?;
    let reflected = dec_seq(d, |d| Ok((d.u32()?, d.u64()?)))?;
    let view_reflected = dec_seq(d, |d| dec_seq(d, |d| Ok((d.u32()?, d.u64()?))))?;
    Ok(AppliedRecord { keys, changes, reflected, view_reflected })
}

/// Helper for warehouse/manager: sorted `(source, version)` pairs from any
/// iterator of pairs (the canonical on-disk form of a version vector).
pub fn sorted_versions(it: impl IntoIterator<Item = (u32, u64)>) -> Vec<(u32, u64)> {
    let mut v: Vec<(u32, u64)> = it.into_iter().collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyno_core::UpdateKind;
    use dyno_durable::storage::MemStorage;
    use dyno_relational::{Tuple, Value};
    use dyno_source::{SourceId, UpdateId};

    fn msg(key: u64, source: u32, version: u64) -> UpdateMessage {
        let schema = dyno_relational::Schema::of("R", &[("a", dyno_relational::AttrType::Int)]);
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

    fn sample_state() -> DurableState {
        DurableState {
            strategy: Strategy::Pessimistic,
            policy: CorrectionPolicy::MergeCycles,
            adaptation: AdaptationMode::Auto,
            dedupe: true,
            views: vec![ViewState {
                sql: "CREATE VIEW V AS SELECT R.a FROM R".into(),
                cols: vec!["a".into()],
                extent: bag(&[1, 2]),
                reflected: vec![(0, 3), (1, 1)],
                deferred: vec![],
                tier: 0,
            }],
            reflected: vec![(0, 3), (1, 1)],
            marks: vec![(0, 3), (1, 1)],
            batches: vec![vec![meta(7, 0, 4)]],
            sc_flag: false,
            ext: vec![0xAB, 0xCD],
            tail: Vec::new(),
        }
    }

    #[test]
    fn state_round_trips_through_a_checkpoint() {
        let disk = MemStorage::new();
        let mut log = DurableLog::create(Box::new(disk.clone())).unwrap();
        let st = sample_state();
        log.checkpoint(&st);

        let obs = Collector::wall();
        let (_, recovered, report) = recover(Box::new(disk), &obs).unwrap();
        assert_eq!(recovered, st);
        assert_eq!(report.replayed_records, 1);
        assert_eq!(report.torn_records, 0);
        assert_eq!(report.reparked_intents, 0);
    }

    #[test]
    fn admitted_and_applied_fold_into_the_state() {
        let disk = MemStorage::new();
        let mut log = DurableLog::create(Box::new(disk.clone())).unwrap();
        let st = sample_state();
        log.checkpoint(&st);
        // A new message is admitted…
        log.log_admitted(&meta(8, 1, 2));
        // …then the older queued batch commits.
        log.log_intent(&[7], false);
        log.log_applied(&AppliedRecord {
            keys: vec![7],
            changes: vec![AppliedChange::Delta { rows: bag(&[4]) }],
            reflected: vec![(0, 4), (1, 1)],
            view_reflected: vec![vec![(0, 4), (1, 1)]],
        });

        let obs = Collector::wall();
        let (_, recovered, report) = recover(Box::new(disk), &obs).unwrap();
        assert_eq!(report.replayed_records, 4);
        assert_eq!(report.reparked_intents, 0, "the intent has its applied");
        assert_eq!(recovered.views[0].extent, bag(&[1, 2, 4]));
        assert_eq!(recovered.reflected, vec![(0, 4), (1, 1)]);
        assert_eq!(recovered.marks, vec![(0, 3), (1, 2)], "admitted bumped source 1");
        assert_eq!(recovered.batches.len(), 1, "batch 7 gone, admitted 8 queued");
        assert_eq!(recovered.batches[0][0].key.0, 8);
    }

    /// Two-view state: V0 as in `sample_state`, V1 a peer over source 1.
    fn two_view_state() -> DurableState {
        let mut st = sample_state();
        st.views.push(ViewState {
            sql: "CREATE VIEW W AS SELECT R.a FROM R".into(),
            cols: vec!["a".into()],
            extent: bag(&[9]),
            reflected: vec![(0, 3), (1, 1)],
            deferred: vec![],
            tier: 1,
        });
        st
    }

    #[test]
    fn deferred_change_moves_the_batch_to_the_views_queue() {
        let disk = MemStorage::new();
        let mut log = DurableLog::create(Box::new(disk.clone())).unwrap();
        let st = two_view_state();
        log.checkpoint(&st);
        // V0 commits batch 7, V1 defers it (its source was down): V1's
        // vector freezes while V0's advances.
        log.log_intent(&[7], false);
        log.log_applied(&AppliedRecord {
            keys: vec![7],
            changes: vec![AppliedChange::Delta { rows: bag(&[4]) }, AppliedChange::Deferred],
            reflected: vec![(0, 4), (1, 1)],
            view_reflected: vec![vec![(0, 4), (1, 1)], vec![(0, 3), (1, 1)]],
        });

        let obs = Collector::wall();
        let (_, recovered, _) = recover(Box::new(disk.clone()), &obs).unwrap();
        assert_eq!(recovered.views[0].extent, bag(&[1, 2, 4]));
        assert_eq!(recovered.views[0].reflected, vec![(0, 4), (1, 1)]);
        assert_eq!(recovered.views[1].extent, bag(&[9]), "deferring view untouched");
        assert_eq!(recovered.views[1].reflected, vec![(0, 3), (1, 1)], "frozen vector");
        assert_eq!(recovered.views[1].deferred.len(), 1, "batch parked per-view");
        assert_eq!(recovered.views[1].deferred[0][0].key.0, 7);
        assert!(recovered.batches.is_empty(), "the shared queue is drained");

        // The per-view drain later commits the deferred batch for V1 alone
        // (V0 marked Skipped) — replay must resolve V1's deferred copy.
        let mut log2 = DurableLog::create(Box::new(disk.clone())).unwrap();
        log2.checkpoint(&recovered);
        log2.log_intent(&[7], false);
        log2.log_applied(&AppliedRecord {
            keys: vec![7],
            changes: vec![AppliedChange::Skipped, AppliedChange::Delta { rows: bag(&[4]) }],
            reflected: vec![(0, 4), (1, 1)],
            view_reflected: vec![vec![(0, 4), (1, 1)], vec![(0, 4), (1, 1)]],
        });
        let (_, drained, _) = recover(Box::new(disk), &obs).unwrap();
        assert_eq!(drained.views[0].extent, bag(&[1, 2, 4]), "skipped peer untouched");
        assert_eq!(drained.views[1].extent, bag(&[9, 4]));
        assert!(drained.views[1].deferred.is_empty(), "deferred copy resolved");
        assert_eq!(drained.views[1].reflected, vec![(0, 4), (1, 1)], "vector caught up");
    }

    #[test]
    fn skipped_peer_keeps_its_own_deferred_copy() {
        // Both views deferred batch 7; V0 drains it first. V1's copy must
        // survive the drain record (its change is `Skipped`, not applied).
        let mut st = two_view_state();
        st.views[0].deferred = vec![vec![meta(7, 0, 4)]];
        st.views[1].deferred = vec![vec![meta(7, 0, 4)]];
        st.batches.clear();
        let disk = MemStorage::new();
        let mut log = DurableLog::create(Box::new(disk.clone())).unwrap();
        log.checkpoint(&st);
        log.log_applied(&AppliedRecord {
            keys: vec![7],
            changes: vec![AppliedChange::Delta { rows: bag(&[4]) }, AppliedChange::Skipped],
            reflected: vec![(0, 4), (1, 1)],
            view_reflected: vec![vec![(0, 4), (1, 1)], vec![(0, 3), (1, 1)]],
        });
        let obs = Collector::wall();
        let (_, recovered, _) = recover(Box::new(disk), &obs).unwrap();
        assert!(recovered.views[0].deferred.is_empty(), "drained view's copy resolved");
        assert_eq!(recovered.views[1].deferred.len(), 1, "peer's copy survives");
    }

    #[test]
    fn intent_without_applied_is_reparked() {
        let disk = MemStorage::new();
        let mut log = DurableLog::create(Box::new(disk.clone())).unwrap();
        log.checkpoint(&sample_state());
        log.log_intent(&[7], false);
        // crash here — no Applied.
        let obs = Collector::wall();
        let (_, recovered, report) = recover(Box::new(disk), &obs).unwrap();
        assert_eq!(report.reparked_intents, 1);
        assert_eq!(recovered.batches.len(), 1, "the batch is still queued");
        assert_eq!(obs.registry().counter_value("recover.reparked_intents"), Some(1));
    }

    #[test]
    fn armed_after_intent_cut_drops_the_applied() {
        let disk = MemStorage::new();
        let mut log = DurableLog::create(Box::new(disk.clone())).unwrap();
        log.checkpoint(&sample_state());
        log.arm(CrashPlan { point: CrashPoint::AfterIntent, skip: 0 });
        log.log_intent(&[7], false);
        assert!(log.power_cut(), "single-DU intent trips AfterIntent");
        // The in-memory commit still "happens" in the live process…
        log.log_applied(&AppliedRecord {
            keys: vec![7],
            changes: vec![AppliedChange::Delta { rows: bag(&[4]) }],
            reflected: vec![(0, 4), (1, 1)],
            view_reflected: vec![vec![(0, 4), (1, 1)]],
        });
        // …but was never durable.
        let obs = Collector::wall();
        let (_, recovered, report) = recover(Box::new(disk), &obs).unwrap();
        assert_eq!(report.reparked_intents, 1);
        assert_eq!(recovered.views[0].extent, bag(&[1, 2]), "the applied never landed");
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
        let disk = MemStorage::new();
        let mut log = DurableLog::create(Box::new(disk.clone())).unwrap();
        log.checkpoint(&sample_state());
        let intact = disk.snapshot().len();
        log.log_admitted(&meta(8, 1, 2));
        // Tear the admitted record.
        disk.truncate(intact + 5);

        let obs = Collector::wall();
        let (_, recovered, report) = recover(Box::new(disk.clone()), &obs).unwrap();
        assert_eq!(report.torn_records, 1);
        assert!(report.torn_bytes > 0);
        assert_eq!(recovered, sample_state(), "checkpointed prefix survives intact");
        assert_eq!(obs.registry().counter_value("recover.torn_records"), Some(1));

        // Recovery re-checkpointed: a second pass replays cleanly.
        let (_, again, report2) = recover(Box::new(disk), &obs).unwrap();
        assert_eq!(again, recovered);
        assert_eq!(report2.torn_records, 0, "the torn tail was truncated away");
    }

    #[test]
    fn replica_records_fold_and_surface_in_the_tail() {
        let disk = MemStorage::new();
        let mut log = DurableLog::create(Box::new(disk.clone())).unwrap();
        log.checkpoint(&sample_state());
        log.log_replica_published(&[1, 2, 3]);
        // A winning remote post-image replaces key 1's rows…
        log.log_replica_remote(0, 0, &Value::Int(1), &bag(&[5]), true, &[9]);
        // …a superseded loser is logged but never applied.
        log.log_replica_remote(0, 0, &Value::Int(2), &bag(&[7]), false, &[8]);

        let obs = Collector::wall();
        let (_, recovered, report) = recover(Box::new(disk.clone()), &obs).unwrap();
        assert_eq!(report.replayed_records, 4);
        assert_eq!(recovered.views[0].extent, bag(&[2, 5]), "applied folded exactly once");
        assert_eq!(recovered.tail.len(), 3);
        assert_eq!(recovered.tail[0], ReplicaTailEvent::Published { bytes: vec![1, 2, 3] });
        assert!(matches!(
            &recovered.tail[1],
            ReplicaTailEvent::Remote { applied: true, bytes, .. } if bytes == &vec![9]
        ));
        assert!(matches!(&recovered.tail[2], ReplicaTailEvent::Remote { applied: false, .. }));

        // Recovery's closing checkpoint truncated the tail records: a
        // second pass starts from the folded extent with an empty tail.
        let (_, again, _) = recover(Box::new(disk), &obs).unwrap();
        assert_eq!(again.views[0].extent, bag(&[2, 5]));
        assert!(again.tail.is_empty());
    }

    #[test]
    fn applied_records_surface_their_rows_in_the_tail() {
        let disk = MemStorage::new();
        let mut log = DurableLog::create(Box::new(disk.clone())).unwrap();
        log.checkpoint(&sample_state());
        log.log_intent(&[7], false);
        log.log_applied(&AppliedRecord {
            keys: vec![7],
            changes: vec![AppliedChange::Delta { rows: bag(&[4]) }],
            reflected: vec![(0, 4), (1, 1)],
            view_reflected: vec![vec![(0, 4), (1, 1)]],
        });
        let obs = Collector::wall();
        let (_, recovered, _) = recover(Box::new(disk), &obs).unwrap();
        assert_eq!(
            recovered.tail,
            vec![ReplicaTailEvent::Applied { keys: vec![7], rows: vec![bag(&[4])] }]
        );
    }

    #[test]
    fn compaction_follows_the_tail_to_snapshot_ratio_unless_a_count_is_pinned() {
        let disk = MemStorage::new();
        let mut log = DurableLog::create(Box::new(disk.clone())).unwrap();
        let mut st = sample_state();
        st.ext = vec![7; 3 * COMPACT_FLOOR_BYTES as usize];
        log.checkpoint(&st);
        let snapshot = log.snapshot_bytes();
        assert_eq!((log.len_bytes(), snapshot), (disk.snapshot().len() as u64, snapshot));
        assert!(snapshot > 3 * COMPACT_FLOOR_BYTES);
        while log.len_bytes() < 2 * snapshot {
            assert!(!log.should_checkpoint(), "tail {} B", log.len_bytes() - snapshot);
            log.log_replica_published(&[0; 4096]);
        }
        assert!(log.should_checkpoint(), "the tail has reached the snapshot's size");

        // A near-empty snapshot waits for the floor instead.
        log.checkpoint(&sample_state());
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
        log.checkpoint(&st);

        // …and is configuration, not state: the recovered log is back on
        // the size rule, its sizes re-seeded by the closing checkpoint.
        let (mut back, _, _) = recover(Box::new(disk.clone()), &Collector::disabled()).unwrap();
        assert_eq!((back.len_bytes(), back.snapshot_bytes()), (snapshot, snapshot));
        for key in 0..3 {
            back.log_intent(&[key], false);
        }
        assert!(!back.should_checkpoint());
        back.set_checkpoint_every(3);
        assert!(back.should_checkpoint());
    }

    #[test]
    fn empty_log_has_no_checkpoint() {
        let disk = MemStorage::new();
        let obs = Collector::wall();
        assert!(matches!(recover(Box::new(disk), &obs), Err(RecoverError::NoCheckpoint)));
    }

    #[test]
    fn power_cut_makes_the_log_read_only() {
        let disk = MemStorage::new();
        let mut log = DurableLog::create(Box::new(disk.clone())).unwrap();
        log.checkpoint(&sample_state());
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
        log.checkpoint(&sample_state());
        assert_eq!(disk.snapshot(), after_cut, "nothing lands after the cut");
        assert!(after_cut.len() > frozen.len(), "the tripping record itself did land");
    }

    /// The `Published` records a recovery hands the replication engine.
    fn published(disk: MemStorage) -> Vec<Vec<u8>> {
        let (_, state, _) = recover(Box::new(disk), &Collector::wall()).unwrap();
        let bytes = |e: ReplicaTailEvent| match e {
            ReplicaTailEvent::Published { bytes } => Some(bytes),
            _ => None,
        };
        state.tail.into_iter().filter_map(bytes).collect()
    }

    #[test]
    fn after_publish_cut_keeps_the_published_record_and_drops_every_later_append() {
        let disk = MemStorage::new();
        let mut log = DurableLog::create(Box::new(disk.clone())).unwrap();
        log.checkpoint(&sample_state());
        log.arm(CrashPlan { point: CrashPoint::AfterPublish, skip: 1 });
        log.log_replica_remote(0, 0, &Value::from(1), &ZSet::new(), false, b"m"); // no match
        log.log_replica_published(b"first"); // first match, skipped
        assert!(!log.power_cut());
        log.log_replica_published(b"second");
        assert!(log.power_cut(), "the second publish trips the cut");
        assert!(!log.should_checkpoint(), "no checkpoint was due");
        let after_cut = disk.snapshot();
        log.log_admitted(&meta(9, 0, 9));
        log.log_replica_published(b"third");
        log.checkpoint(&sample_state());
        assert_eq!(disk.snapshot(), after_cut, "nothing lands after the cut");
        assert_eq!(published(disk), [b"first".to_vec(), b"second".to_vec()]);
    }

    #[test]
    fn after_publish_cut_lands_the_checkpoint_its_publish_made_due() {
        let disk = MemStorage::new();
        let mut log = DurableLog::create(Box::new(disk.clone())).unwrap().with_checkpoint_every(2);
        log.checkpoint(&sample_state());
        log.arm(CrashPlan { point: CrashPoint::AfterPublish, skip: 0 });
        log.log_admitted(&meta(9, 0, 9));
        log.log_replica_published(b"p");
        assert!(log.power_cut() && log.should_checkpoint(), "cut, with its checkpoint due");
        log.checkpoint(&sample_state());
        assert!(!log.should_checkpoint(), "that checkpoint was the last write");
        let after = disk.snapshot();
        log.log_admitted(&meta(10, 0, 10));
        log.checkpoint(&sample_state());
        assert_eq!(disk.snapshot(), after, "nothing lands after it");
        assert!(published(disk).is_empty(), "the publish is folded into the checkpoint");
    }
}
