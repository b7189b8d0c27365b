//! Recovery-time sweep: how long `Warehouse::recover` takes as a function
//! of WAL length × checkpoint policy.
//!
//! Each configuration drives a real manager through `n` insert/delete DU
//! pairs with a write-ahead log attached (every DU writes an Admitted, an
//! Intent, and an Applied record, plus checkpoints as the policy says). The
//! pairs cancel, so the extent — and with it the checkpoint snapshot — stays
//! O(1) while the log history grows with `n`. Cold recovery from the
//! resulting disk image is then timed. The expected shape: with
//! checkpointing enabled, recovery cost is bounded by the records written
//! *since the last snapshot* — independent of history length — while with
//! checkpointing disabled (`ckpt=off`) it replays all `6n` records and grows
//! linearly with `n`. `ckpt=16`/`64` pin a record count; `ckpt=auto` is the
//! default size rule (compact when the tail reaches the snapshot's size, or
//! a small floor), whose log may not exceed two snapshots plus that floor —
//! `scripts/verify.sh` checks exactly that on the `--json` rows.
//!
//! `DYNO_BENCH_MS` budgets each cell; `--json PATH` writes one line per
//! cell — log bytes, snapshot bytes, median replay time — the checked-in
//! `BENCH_pr4.json` baseline.

use dyno_bench::harness::Harness;
use dyno_core::Strategy;
use dyno_durable::MemStorage;
use dyno_obs::Collector;
use dyno_relational::{
    AttrType, Catalog, DataUpdate, Delta, Schema, SchemaChange, SourceUpdate, Tuple, Value,
};
use dyno_source::{SourceId, SourceServer, SourceSpace};
use dyno_view::{DurableLog, InProcessPort, ViewDefinition, Warehouse};

/// What one cell's log looked like when the run ended.
struct Image {
    disk: MemStorage,
    log_bytes: u64,
    snapshot_bytes: u64,
}

/// Runs `n` maintained DU pairs with a WAL checkpointing every
/// `checkpoint_every` records (`None`: the default size rule).
fn build_log(n: usize, checkpoint_every: Option<u64>) -> Image {
    let mut space = SourceSpace::new();
    let source = SourceId(0);
    space.add_server(SourceServer::new(source, "s0", Catalog::new()));
    let schema = Schema::of("T", &[("a", AttrType::Int), ("b", AttrType::Int)]);
    space
        .commit(
            source,
            SourceUpdate::Schema(SchemaChange::CreateRelation { schema: schema.clone() }),
        )
        .expect("create T");
    let info = space.info().clone();
    let mut port = InProcessPort::new(space);

    let view = ViewDefinition::parse("SELECT T.a, T.b FROM T", "V").expect("view parses");
    let disk = MemStorage::new();
    let mut log = DurableLog::create(Box::new(disk.clone())).expect("MemStorage never fails");
    if let Some(every) = checkpoint_every {
        log = log.with_checkpoint_every(every);
    }
    let mut mgr = Warehouse::new(info, Strategy::Pessimistic).with_obs(Collector::disabled());
    mgr.add_view(view);
    mgr.initialize(&mut port).expect("initialize");
    let mut mgr = mgr.with_wal(log).expect("no admission bound");

    for i in 0..n {
        let row = Tuple::of([Value::from(i as i64), Value::from(1i64)]);
        let ins = Delta::inserts(schema.clone(), [row.clone()]).expect("delta");
        port.commit(source, SourceUpdate::Data(DataUpdate::new(ins))).expect("commit");
        mgr.step(&mut port).expect("maintain");
        let del = Delta::deletes(schema.clone(), [row]).expect("delta");
        port.commit(source, SourceUpdate::Data(DataUpdate::new(del))).expect("commit");
        mgr.step(&mut port).expect("maintain");
    }
    let log = mgr.wal().expect("attached above");
    Image { log_bytes: log.len_bytes(), snapshot_bytes: log.snapshot_bytes(), disk }
}

fn main() {
    dyno_bench::warn_if_debug();
    let mut args = std::env::args().skip(1);
    let json = match (args.next().as_deref(), args.next()) {
        (None, _) => None,
        (Some("--json"), Some(path)) => Some(path),
        _ => {
            eprintln!("usage: recover [--json PATH]");
            std::process::exit(2);
        }
    };
    println!("== recovery-time sweep (log length x checkpoint policy) ==\n");

    let mut h = Harness::new("recover");
    let mut sizes = Vec::new();
    for &n in &[64usize, 256, 1024] {
        for &(label, every) in
            &[("16", Some(16u64)), ("64", Some(64)), ("off", Some(u64::MAX)), ("auto", None)]
        {
            let Image { disk, log_bytes, snapshot_bytes } = build_log(n, every);
            let info = {
                // Recovery only needs the info space for relevance wiring;
                // rebuild the same single-source layout.
                let mut space = SourceSpace::new();
                space.add_server(SourceServer::new(SourceId(0), "s0", Catalog::new()));
                let schema = Schema::of("T", &[("a", AttrType::Int), ("b", AttrType::Int)]);
                space
                    .commit(
                        SourceId(0),
                        SourceUpdate::Schema(SchemaChange::CreateRelation { schema }),
                    )
                    .expect("create T");
                space.info().clone()
            };
            // `recover` compacts the log it replays (it ends by writing a
            // fresh checkpoint), so every timed call gets its own disk
            // restored from the image; the restore is setup, not timed.
            let image = disk.snapshot();
            let id = format!("n={n}/ckpt={label} ({log_bytes} B)");
            h.bench_with_setup(
                &id,
                || {
                    let d = MemStorage::new();
                    d.set(image.clone());
                    d
                },
                |d| {
                    Warehouse::recover(Box::new(d), info.clone(), Collector::disabled())
                        .expect("recover")
                },
            );
            sizes.push((format!("n={n}/ckpt={label}"), log_bytes, snapshot_bytes));
        }
    }
    if let Some(path) = json {
        let mut out = String::new();
        for ((bench, log_bytes, snapshot_bytes), (_, stats)) in sizes.iter().zip(h.results()) {
            out.push_str(&format!(
                "{{\"group\":\"recover\",\"bench\":\"{bench}\",\"log_bytes\":{log_bytes},\
                 \"snapshot_bytes\":{snapshot_bytes},\"median_ns\":{:.1}}}\n",
                stats.median_ns
            ));
        }
        std::fs::write(&path, out).expect("write --json output");
        println!("series written to {path}");
    }
    h.finish();
}
