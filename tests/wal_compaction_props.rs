//! The durable layer's size-proportional compaction and one-pass framing,
//! checked from outside the crates:
//!
//! * **policy independence** — over random DU/SC trains × a kill at every
//!   `CrashPoint`, a default-policy log, a `with_checkpoint_every(16)` log
//!   and a run with no WAL at all end with equal extent CRC, definition SQL
//!   and reflected vector, and recovering the same storage twice changes
//!   nothing;
//! * **the 2× bounds** — after every `step` the log holds at most two
//!   snapshots (plus the floor and one record), and the bytes written never
//!   exceed twice the record bytes plus one snapshot;
//! * **CRC** — the slice-by-8 checksum equals the bytewise reference on
//!   random buffers, at every split point of the streaming form;
//! * **format** — the torn-write matrix through the in-place framing path,
//!   and a log image written by the parent commit's copy-then-CRC framing,
//!   checked in as a literal, which the current code must both replay and
//!   reproduce byte for byte.
//!
//! Seeded and bounded, so it runs by default; `scripts/verify.sh` runs it
//! again in release.

use dyno::core::{CorrectionPolicy, Strategy as Detection, UpdateKind, UpdateMeta};
use dyno::durable::{crc32, Crc32, Enc, MemStorage, Storage, Wal};
use dyno::obs::Collector;
use dyno::prelude::*;
use dyno::relational::wire::enc_bag;
use dyno::relational::ZSet;
use dyno::sim::{build_space, build_view, EventKind, Rng};
use dyno::source::UpdateId;
use dyno::view::wal::{AppliedChange, AppliedRecord, CrashPlan, CrashPoint, ReplicaTailEvent};
use dyno::view::DurableLog;

/// `COMPACT_FLOOR_BYTES` in `crates/view/src/wal.rs` (private there: it is
/// not a knob). The bounds below are stated in terms of it.
const FLOOR: u64 = 16 * 1024;

const KINDS: [EventKind; 8] = [
    EventKind::DataUpdate,
    EventKind::DataUpdate,
    EventKind::DataUpdate,
    EventKind::DataUpdate,
    EventKind::DataDelete,
    EventKind::RenameRelation,
    EventKind::DropAttribute,
    EventKind::AddAttribute,
];

/// How a run's log decides to checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Policy {
    /// No WAL attached.
    NoWal,
    /// `DurableLog::create` as is: compaction by size.
    Default,
    /// `with_checkpoint_every(n)`, re-applied after every recovery.
    Every(u64),
}

/// What two runs of one case must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    extent_crc: u32,
    sql: String,
    reflected: Vec<(SourceId, u64)>,
}

fn outcome(wh: &Warehouse) -> Outcome {
    let mut e = Enc::new();
    enc_bag(&mut e, wh.mv(0).extent());
    let mut reflected: Vec<_> = wh.reflected().iter().map(|(s, v)| (*s, *v)).collect();
    reflected.sort_unstable();
    Outcome { extent_crc: crc32(&e.finish()), sql: wh.view(0).to_string(), reflected }
}

/// One random DU/SC train over the six-relation testbed.
struct Case {
    cfg: TestbedConfig,
    seed: u64,
    timeline: Vec<(u64, EventKind)>,
    /// Commits handed to the sources between maintenance steps.
    chunk: usize,
}

impl Case {
    fn random(rng: &mut Rng, events: std::ops::Range<usize>, tuples: usize) -> Self {
        let n = rng.gen_range(events);
        Case {
            cfg: TestbedConfig { tuples_per_relation: tuples, ..Default::default() },
            seed: rng.gen_range(0..10_000u64),
            timeline: (0..n).map(|i| (i as u64, *rng.choose(&KINDS))).collect(),
            chunk: rng.gen_range(1..9usize),
        }
    }
}

/// What a run leaves behind for the caller to inspect.
struct Run {
    wh: Warehouse,
    disk: MemStorage,
    info: InfoSpace,
    obs: Collector,
    kills: u32,
}

fn recover_wh(disk: &MemStorage, info: &InfoSpace, obs: &Collector, policy: Policy) -> Warehouse {
    let (mut wh, report) =
        Warehouse::recover(Box::new(disk.clone()), info.clone(), obs.clone()).expect("recovers");
    assert_eq!(report.torn_records, 0, "a power cut drops whole records");
    if let Policy::Every(n) = policy {
        wh.set_checkpoint_every(n);
    }
    wh
}

/// Drives `case` to quiescence: commits arrive `case.chunk` at a time with
/// one maintenance step between chunks; a tripped power cut kills the
/// warehouse and recovers it from the disk. `after_step` sees the warehouse
/// after every step that did not end in a kill.
fn run(
    case: &Case,
    policy: Policy,
    kill: Option<CrashPlan>,
    mut after_step: impl FnMut(&Run),
) -> Run {
    let space = build_space(&case.cfg);
    let info = space.info().clone();
    let schedule = WorkloadGen::new(case.cfg, case.seed).realize(&case.timeline);
    let mut port = InProcessPort::new(space);
    let obs = Collector::wall();
    let mut wh = Warehouse::new(info.clone(), Detection::Pessimistic)
        .with_obs(obs.clone())
        .with_correction(CorrectionPolicy::MergeCycles);
    wh.add_view(build_view(&case.cfg));
    wh.initialize(&mut port).expect("testbed initializes");
    let disk = MemStorage::new();
    if policy != Policy::NoWal {
        let mut log = DurableLog::create(Box::new(disk.clone())).expect("MemStorage never fails");
        if let Policy::Every(n) = policy {
            log = log.with_checkpoint_every(n);
        }
        wh = wh.with_wal(log).expect("no admission bound");
    }
    if let Some(plan) = kill {
        wh.arm_crash(plan);
    }
    let mut run = Run { wh, disk, info, obs, kills: 0 };
    let mut pending = schedule.into_iter().peekable();
    loop {
        for c in pending.by_ref().take(case.chunk) {
            port.commit(c.source, c.update).expect("workload is schema-consistent");
        }
        let outcome = run.wh.step(&mut port).expect("no hard maintenance error");
        if run.wh.wal_power_cut() {
            run.kills += 1;
            run.wh = recover_wh(&run.disk, &run.info, &run.obs, policy);
            continue;
        }
        after_step(&run);
        if outcome == StepOutcome::Idle && pending.peek().is_none() {
            return run;
        }
    }
}

#[test]
fn every_policy_and_every_kill_point_ends_in_the_same_state() {
    let mut rng = Rng::new(0x0C04_FAC7);
    let mut kills = 0;
    for case_no in 0..6 {
        let case = Case::random(&mut rng, 20..60, 40);
        let want = outcome(&run(&case, Policy::NoWal, None, |_| {}).wh);
        for policy in [Policy::Default, Policy::Every(16)] {
            let clean = run(&case, policy, None, |_| {});
            assert_eq!(outcome(&clean.wh), want, "case {case_no} {policy:?}, no kill");
            for point in [CrashPoint::BetweenSteps, CrashPoint::AfterIntent, CrashPoint::MidBatch] {
                let plan = CrashPlan { point, skip: rng.gen_range(0..3u64) };
                let ctx = format!("case {case_no} {policy:?} {plan:?}");
                let killed = run(&case, policy, Some(plan), |_| {});
                kills += killed.kills;
                assert_eq!(outcome(&killed.wh), want, "{ctx}");

                // Recovery is idempotent: the storage the run ended on
                // recovers to the same state and the same checkpoint, twice.
                let once = recover_wh(&killed.disk, &killed.info, &Collector::disabled(), policy);
                assert_eq!(outcome(&once), want, "{ctx}: first recovery");
                let after_once = wal_payloads(&killed.disk.snapshot());
                let twice = recover_wh(&killed.disk, &killed.info, &Collector::disabled(), policy);
                assert_eq!(outcome(&twice), want, "{ctx}: second recovery");
                assert_eq!(after_once.len(), 1, "{ctx}: recovery closes with one checkpoint");
                assert_eq!(wal_payloads(&killed.disk.snapshot()), after_once, "{ctx}");
            }
        }
    }
    assert!(kills >= 12, "the planned cuts must actually fire (got {kills})");
}

fn wal_payloads(image: &[u8]) -> Vec<Vec<u8>> {
    let disk = MemStorage::new();
    disk.set(image.to_vec());
    let (_, replay) = Wal::open(Box::new(disk)).expect("MemStorage never fails");
    assert_eq!(replay.torn_records, 0);
    replay.payloads().map(<[u8]>::to_vec).collect()
}

/// The default policy crossed under a power cut: both the life that was
/// killed and the life that recovered compact by size, and the run still
/// ends where the no-WAL run does. (`scripts/verify.sh` runs this one by
/// name in its crash-recovery stage.)
#[test]
fn size_rule_is_crossed_before_and_after_a_power_cut() {
    let mut rng = Rng::new(0x512E);
    let case = Case { chunk: 4, ..Case::random(&mut rng, 240..241, 40) };
    let want = outcome(&run(&case, Policy::NoWal, None, |_| {}).wh);
    let counter = |r: &Run, name: &str| r.obs.registry().counter_value(name).unwrap_or(0);
    // Attach writes checkpoint 1. Find the commit by which two size-driven
    // compactions have followed it, and cut the power right after the next.
    let mut commits_when_compacted_twice = None;
    run(&case, Policy::Default, None, |r| {
        if commits_when_compacted_twice.is_none() && counter(r, "wal.checkpoints") >= 3 {
            commits_when_compacted_twice = Some(counter(r, "view.commits"));
        }
    });
    let skip = commits_when_compacted_twice.expect("the train compacts twice before the cut");
    let plan = CrashPlan { point: CrashPoint::BetweenSteps, skip };
    let killed = run(&case, Policy::Default, Some(plan), |_| {});
    assert_eq!(killed.kills, 1, "the cut fired");
    assert_eq!(outcome(&killed.wh), want);
    // 1 attach + ≥2 before the cut + 1 closing the recovery + ≥1 after it.
    let checkpoints = counter(&killed, "wal.checkpoints");
    assert!(checkpoints >= 5, "the recovered life compacted by size too ({checkpoints})");
}

#[test]
fn log_size_and_write_amplification_stay_within_two_snapshots() {
    let mut rng = Rng::new(0x0B00_7D55);
    // 40 rows: the snapshot is smaller than the floor, which then rules.
    // 240 rows: the snapshot is several floors, and rules itself.
    for tuples in [40usize, 240] {
        let case = Case::random(&mut rng, 300..340, tuples);
        let mut snapshots_written = 0u64; // bytes, over every checkpoint
        let mut first_snapshot = 0u64;
        let mut seen_checkpoints = 0u64;
        let done = run(&case, Policy::Default, None, |r| {
            let log = r.wh.wal().expect("a WAL is attached");
            let (len, snapshot) = (log.len_bytes(), log.snapshot_bytes());
            assert_eq!(len, Storage::len(&r.disk).unwrap(), "own accounting equals the disk's");
            let checkpoints = r.obs.registry().counter_value("wal.checkpoints").unwrap();
            assert!(checkpoints - seen_checkpoints <= 1, "at most one compaction per step");
            if checkpoints > seen_checkpoints {
                seen_checkpoints = checkpoints;
                snapshots_written += snapshot;
                if first_snapshot == 0 {
                    first_snapshot = snapshot;
                }
            }
            // A step ends compacted, or with a tail still under the trigger.
            assert!(
                len < 2 * snapshot + FLOOR,
                "{tuples} rows: log {len} B over a {snapshot} B snapshot"
            );
        });
        let written = done.obs.registry().counter_value("wal.bytes").unwrap();
        let records = written - snapshots_written;
        let last_snapshot = done.wh.wal().unwrap().snapshot_bytes();
        assert!(seen_checkpoints >= 3, "{tuples} rows: the run compacted ({seen_checkpoints})");
        assert_eq!(snapshots_written > FLOOR * seen_checkpoints, tuples == 240, "regime");
        // Every compaction rewrote a snapshot no larger than the tail that
        // triggered it, so snapshots ≤ records + the one snapshot the log
        // started or ended with.
        assert!(
            written <= 2 * records + first_snapshot.max(last_snapshot),
            "{tuples} rows: wrote {written} B for {records} B of records"
        );
    }
}

/// The one-byte-per-step CRC-32 the slice-by-8 tables are derived from.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

#[test]
fn fast_crc_equals_the_bytewise_reference_at_every_split() {
    let mut rng = Rng::new(0x0C2C_0032);
    let mut lens: Vec<usize> = (0..24).chain([4096]).collect();
    lens.extend((0..12).map(|_| rng.gen_range(24..4097usize)));
    for len in lens {
        let buf: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256u32) as u8).collect();
        let want = crc32_bytewise(&buf);
        assert_eq!(crc32(&buf), want, "one-shot, len {len}");
        for split in 0..=len {
            let mut c = Crc32::new();
            c.update(&buf[..split]);
            c.update(&buf[split..]);
            assert_eq!(c.finish(), want, "len {len} split {split}");
        }
    }
}

#[test]
fn torn_write_matrix_through_the_in_place_framing_path() {
    // A checkpoint and two records, every payload encoded straight into
    // the log's frame buffer; then the image is cut at every byte of the
    // final record.
    let disk = MemStorage::new();
    let mut wal = Wal::create(Box::new(disk.clone())).unwrap();
    wal.append_with(|e| e.str("dropped by the rewrite")).unwrap();
    wal.rewrite_with(|e| {
        e.u8(1);
        e.bytes(&[0xAB; 300]);
    })
    .unwrap();
    wal.append_with(|e| e.u64(0xFEED)).unwrap();
    let intact = disk.snapshot().len();
    assert_eq!((wal.head_bytes(), wal.len_bytes()), (18 + 305, intact as u64));
    wal.append_with(|e| e.str("the record that tears")).unwrap();
    let full = disk.snapshot();
    assert_eq!(wal.len_bytes(), full.len() as u64);

    let kept = wal_payloads(&full[..intact]);
    assert_eq!(kept.len(), 2);
    assert_eq!(kept[1], 0xFEEDu64.to_le_bytes());
    for cut in intact..full.len() {
        let torn = MemStorage::new();
        torn.set(full[..cut].to_vec());
        let (reopened, replay) = Wal::open(Box::new(torn)).unwrap();
        let got: Vec<&[u8]> = replay.payloads().collect();
        assert_eq!(got, kept, "cut at byte {cut}");
        assert_eq!(replay.torn_records, u64::from(cut > intact), "cut at byte {cut}");
        assert_eq!(replay.torn_bytes, (cut - intact) as u64);
        assert_eq!(reopened.next_seq(), 4, "rewrite kept the sequence counting");
        assert_eq!((reopened.head_bytes(), reopened.len_bytes()), (18 + 305, cut as u64));
    }
    // Any one flipped bit of the final record is caught.
    for byte in intact..full.len() {
        let mut bad = full.clone();
        bad[byte] ^= 0x10;
        let flipped = MemStorage::new();
        flipped.set(bad);
        let (_, replay) = Wal::open(Box::new(flipped)).unwrap();
        assert_eq!(replay.payloads().len(), 2, "flip at byte {byte}");
        assert_eq!(replay.torn_records, 1);
    }
}

/// The tail records behind [`PARENT_IMAGE`], after its checkpoint: one
/// admitted / intent / applied triple.
fn fixture_tail() -> (UpdateMeta<UpdateMessage>, AppliedRecord) {
    let schema = Schema::of("R", &[("a", AttrType::Int), ("b", AttrType::Str)]);
    let row = Tuple::new(vec![Value::from(8), Value::str("admitted")]);
    let admitted = UpdateMeta::new(
        8,
        0,
        UpdateKind::Data,
        UpdateMessage {
            id: UpdateId(8),
            source: SourceId(0),
            source_version: 5,
            update: SourceUpdate::Data(DataUpdate::new(Delta::inserts(schema, [row]).unwrap())),
        },
    );
    let applied = AppliedRecord {
        keys: vec![7],
        changes: vec![AppliedChange::Delta { rows: bag(&[(7, "queued")]) }],
        reflected: vec![(0, 4)],
        view_reflected: vec![vec![(0, 4)]],
    };
    (admitted, applied)
}

fn bag(rows: &[(i64, &str)]) -> ZSet {
    rows.iter().map(|&(a, b)| (Tuple::new(vec![Value::from(a), Value::str(b)]), 1)).collect()
}

/// Frames `payloads` as a fresh log on `disk`.
fn frame(disk: &MemStorage, payloads: &[Vec<u8>]) {
    let mut wal = Wal::create(Box::new(disk.clone())).expect("MemStorage never fails");
    for payload in payloads {
        wal.append_with(|e| e.raw(payload)).expect("MemStorage never fails");
    }
}

/// Writes [`PARENT_IMAGE`] from values: its checkpoint is restored into a
/// warehouse, which encodes itself again, and the tail records are logged
/// from [`fixture_tail`].
fn write_fixture(disk: &MemStorage) {
    let restored = MemStorage::new();
    frame(&restored, &wal_payloads(&unhex(PARENT_IMAGE))[..1]);
    Warehouse::recover(Box::new(restored.clone()), InfoSpace::new(), Collector::disabled())
        .expect("the parent's checkpoint restores");
    let tail = MemStorage::new();
    let (admitted, applied) = fixture_tail();
    let mut log = DurableLog::create(Box::new(tail.clone())).expect("MemStorage never fails");
    log.log_admitted(&admitted);
    log.log_intent(&[7], false);
    log.log_applied(&applied);
    frame(disk, &[wal_payloads(&restored.snapshot()), wal_payloads(&tail.snapshot())].concat());
}

/// `write_fixture`'s image as written by the parent commit (36ea866), whose
/// `frame_record` built `seq ‖ payload` in one buffer, checksummed it
/// bytewise and copied it again behind the header.
const PARENT_IMAGE: &str = "\
    d1408b0100000100000000000000f72ccc510100000001010000002700000043524541544520564945572056\
    2041532053454c45435420522e612c20522e622046524f4d2052020000000100000061010000006202000000\
    0200000002010000000000000004030000006f6e650100000000000000020000000202000000000000000403\
    00000074776f0100000000000000010000000000000003000000000000000100000001000000050000000000\
    0000000000000005000000000000000000000002000000000000000001000000520100000052020000000100\
    0000610001000000620201000000020000000205000000000000000408000000646566657272656401000000\
    0000000001010000000000000003000000000000000100000000000000040000000000000001000000010000\
    0007000000000000000000000000070000000000000000000000040000000000000000010000005201000000\
    5202000000010000006100010000006202010000000200000002070000000000000004060000007175657565\
    6401000000000000000003000000abcdefd14063000000020000000000000089d81f78020800000000000000\
    0000000000080000000000000000000000050000000000000000010000005201000000520200000001000000\
    61000100000062020100000002000000020800000000000000040800000061646d6974746564010000000000\
    0000d1400e0000000300000000000000378dc7540301000000070000000000000000d1405a00000004000000\
    000000003fda19be040100000007000000000000000100000000010000000200000002070000000000000004\
    0600000071756575656401000000000000000100000000000000040000000000000001000000010000000000\
    00000400000000000000\
";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

#[test]
fn a_log_written_by_the_parent_commit_replays_and_is_reproduced() {
    // Same bytes out: framing, CRC, the checkpoint image and every record
    // encoder are format-identical.
    let disk = MemStorage::new();
    write_fixture(&disk);
    assert_eq!(hex(&disk.snapshot()), PARENT_IMAGE);

    // Same state in: the checkpoint's view, deferred batch and snapshot,
    // with the admitted update queued and the applied one committed.
    let parent = MemStorage::new();
    parent.set(unhex(PARENT_IMAGE));
    let obs = Collector::wall();
    let (mut wh, report) =
        Warehouse::recover(Box::new(parent), InfoSpace::new(), obs.clone()).unwrap();
    assert_eq!((report.replayed_records, report.torn_records), (4, 0));
    assert_eq!(report.reparked_intents, 0);
    assert_eq!(wh.view(0).to_string(), "CREATE VIEW V AS SELECT R.a, R.b FROM R");
    assert_eq!(wh.mv(0).cols(), ["a", "b"]);
    assert_eq!(wh.mv(0).extent(), &bag(&[(1, "one"), (2, "two"), (7, "queued")]));
    assert_eq!(wh.view_reflected(0), [(0, 4)]);
    assert_eq!(wh.reflected(), &[(SourceId(0), 4)].into_iter().collect());
    assert_eq!(wh.ingress_marks(), [(0, 5)]);
    assert_eq!(wh.deferred_len(0), 1);
    assert_eq!(obs.registry().gauge_value("umq.depth"), Some(1), "update 8 is queued");
    assert_eq!(wh.replica_ext(), [0xAB, 0xCD, 0xEF]);
    let (_, applied) = fixture_tail();
    let AppliedChange::Delta { rows } = &applied.changes[0] else { unreachable!() };
    assert_eq!(
        wh.take_replica_tail(),
        [ReplicaTailEvent::Applied { keys: vec![7], rows: vec![rows.clone()] }]
    );
}
