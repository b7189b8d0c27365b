//! Recovery-time sweep: how long `Warehouse::recover` takes as a function
//! of WAL length × checkpoint interval.
//!
//! Each configuration drives a real manager through `n` insert/delete DU
//! pairs with a write-ahead log attached (every DU writes an Admitted, an
//! Intent, and an Applied record, plus periodic checkpoints). The pairs
//! cancel, so the extent — and with it the checkpoint snapshot — stays O(1)
//! while the log history grows with `n`. Cold recovery from the resulting
//! disk image is then timed. The expected shape: with checkpointing
//! enabled, recovery cost is bounded by the records written *since the last
//! snapshot* — independent of history length — while with checkpointing
//! disabled (`ckpt=off`) it replays all `6n` records and grows linearly
//! with `n`.
//!
//! `DYNO_BENCH_MS` budgets each cell; `DYNO_BENCH_JSON` appends the series
//! as JSON lines (the checked-in `BENCH_pr4.json` baseline).

use dyno_bench::harness::Harness;
use dyno_core::Strategy;
use dyno_durable::MemStorage;
use dyno_obs::Collector;
use dyno_relational::{
    AttrType, Catalog, DataUpdate, Delta, Schema, SchemaChange, SourceUpdate, Tuple, Value,
};
use dyno_source::{SourceId, SourceServer, SourceSpace};
use dyno_view::{DurableLog, InProcessPort, ViewDefinition, Warehouse};

/// Runs `n` maintained DUs with a WAL at the given checkpoint interval and
/// returns the disk image plus the final log size in bytes.
fn build_log(n: usize, checkpoint_every: u64) -> (MemStorage, u64) {
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
    let log = DurableLog::create(Box::new(disk.clone()))
        .expect("MemStorage never fails")
        .with_checkpoint_every(checkpoint_every);
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
    let bytes = disk.snapshot().len() as u64;
    (disk, bytes)
}

fn main() {
    dyno_bench::warn_if_debug();
    println!("== recovery-time sweep (log length x checkpoint interval) ==\n");

    let mut h = Harness::new("recover");
    for &n in &[64usize, 256, 1024] {
        for &(label, every) in &[("16", 16u64), ("64", 64), ("off", u64::MAX)] {
            let (disk, bytes) = build_log(n, every);
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
            let id = format!("n={n}/ckpt={label} ({bytes} B)");
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
        }
    }
    h.finish();
}
