//! The paper's running example, end to end: the `BookInfo` view (Query (1))
//! over the Retailer, Library and Digest sources, driven through every
//! anomaly the paper describes —
//!
//! 1. **Duplication anomaly** (Example 1.a): a concurrent data update
//!    corrupts a maintenance-query result; SWEEP compensation removes it.
//! 2. **Broken query anomaly** (Example 1.b): the retailer re-tunes its
//!    XML-to-relational mapping, collapsing `Store ⋈ Item` into
//!    `StoreItems` (Figure 2); the pending insert's maintenance query can
//!    no longer succeed, and Dyno re-orders/merges around it.
//! 3. **Cyclic dependencies** (Section 3.5): the mapping re-tune *and* the
//!    drop of `Catalog.Review` are both pending; either order alone fails,
//!    so Dyno merges them into one atomic batch whose rewrite is the
//!    paper's Query (5), with `ReaderDigest.Comments` replacing the review.
//!
//! Run with: `cargo run --example bookinfo`

use dyno::prelude::*;
use dyno::view::sweep_maintain;
use dyno::view::testkit::{bookinfo_space, bookinfo_view, insert_item, storeitems_change};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Paper Query (1): the BookInfo view ===\n  {}\n", bookinfo_view());

    part1_duplication_anomaly()?;
    part2_broken_query()?;
    part3_cyclic_dependencies()?;
    Ok(())
}

/// Example 1.a — the duplication anomaly and SWEEP compensation.
fn part1_duplication_anomaly() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Part 1: duplication anomaly (Example 1.a) ===");
    let mut space = bookinfo_space();
    let view = bookinfo_view();

    // ΔC: the Library catalog gains 'Data Integration Guide'… it is already
    // in the fixture, so we add a fresh book to keep the walkthrough exact.
    let cat_schema = space.server(SourceId(1)).catalog().get("Catalog")?.schema().clone();
    let dc = DataUpdate::new(Delta::inserts(
        cat_schema,
        [Tuple::of([
            Value::str("Streams"),
            Value::str("Widom"),
            Value::str("CS"),
            Value::str("Stanford"),
            Value::str("deep"),
        ])],
    )?);
    let dc_msg = space.commit(SourceId(1), SourceUpdate::Data(dc))?;

    // Before the view manager processes ΔC, the Item table commits ΔI —
    // a matching book — exactly the interleaving of Example 1.a.
    let di = insert_item(10, "Streams", "Widom", 42);
    let di_msg = space.commit(SourceId(0), SourceUpdate::Data(di))?;

    let mut port = InProcessPort::new(space);
    // Naive maintenance (no compensation): the query to Item already sees ΔI.
    let (naive, _) = sweep_maintain(&view, &dc_msg, &[], &mut port);
    println!(
        "  without compensation, maintaining ΔC yields {} tuple(s) — the \n\
         \x20 concurrent ΔI leaked in; maintaining ΔI later would duplicate it.",
        naive.unwrap().rows.weight()
    );
    // SWEEP: the pending ΔI is compensated away.
    let (swept, _) = sweep_maintain(&view, &dc_msg, std::slice::from_ref(&di_msg), &mut port);
    println!(
        "  with SWEEP compensation: {} tuple(s) — ΔI's effect removed; it will\n\
         \x20 be maintained by its own pass.\n",
        swept.unwrap().rows.weight()
    );
    Ok(())
}

/// Example 1.b — the broken query, resolved by Dyno's reordering.
fn part2_broken_query() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Part 2: broken query anomaly (Example 1.b / Figure 2) ===");
    let space = bookinfo_space();
    let info = space.info().clone();
    let mut port = InProcessPort::new(space);
    let mut mgr = Warehouse::new(info, Strategy::Pessimistic);
    mgr.add_view(bookinfo_view());
    mgr.initialize(&mut port)?;

    // The insert of Example 1 is buffered…
    port.commit(
        SourceId(0),
        SourceUpdate::Data(insert_item(10, "Data Integration Guide", "Adams", 36)),
    )?;
    // …and then the designer re-tunes the mapping: Store+Item → StoreItems.
    let store = port.space().server(SourceId(0)).catalog().get("Store")?.clone();
    let item = port.space().server(SourceId(0)).catalog().get("Item")?.clone();
    port.commit(SourceId(0), SourceUpdate::Schema(storeitems_change(&store, &item)))?;

    mgr.run_to_quiescence(&mut port, 100)?;
    println!("  rewritten definition (paper Query (3) shape):\n    {}", mgr.view(0));
    println!(
        "  extent: {} tuples; aborts suffered: {} (pessimistic pre-exec detection\n\
         \x20 scheduled the schema change first, so the insert's query never broke);\n\
         \x20 cycles merged: {}\n",
        mgr.mv(0).len(),
        mgr.stats(0).aborts,
        mgr.dyno_stats().merges,
    );
    Ok(())
}

/// Section 3.5 — cyclic dependencies merged into one batch → Query (5).
fn part3_cyclic_dependencies() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Part 3: cyclic schema changes (Section 3.5 → Query (5)) ===");
    let space = bookinfo_space();
    let info = space.info().clone();
    let mut port = InProcessPort::new(space);
    let mut mgr = Warehouse::new(info, Strategy::Pessimistic);
    mgr.add_view(bookinfo_view());
    mgr.initialize(&mut port)?;

    // SC1: the mapping re-tune; SC2: Review is dropped from the Catalog.
    let store = port.space().server(SourceId(0)).catalog().get("Store")?.clone();
    let item = port.space().server(SourceId(0)).catalog().get("Item")?.clone();
    port.commit(SourceId(0), SourceUpdate::Schema(storeitems_change(&store, &item)))?;
    port.commit(
        SourceId(1),
        SourceUpdate::Schema(SchemaChange::DropAttribute {
            relation: "Catalog".into(),
            attr: "Review".into(),
        }),
    )?;

    mgr.run_to_quiescence(&mut port, 100)?;
    println!("  final definition (paper Query (5)):\n    {}", mgr.view(0));
    println!(
        "  processed as {} atomic batch(es) covering {} updates; extent:\n{}",
        mgr.stats(0).batches_committed,
        mgr.stats(0).batched_updates,
        mgr.mv(0)
    );
    assert!(mgr.view(0).references_relation("StoreItems"));
    assert!(mgr.view(0).references_relation("ReaderDigest"));
    Ok(())
}
