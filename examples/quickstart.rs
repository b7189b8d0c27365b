//! Quickstart: define two autonomous sources, materialize a join view over
//! them, and watch the view manager absorb a data update and a schema
//! change — including the rewrite of the view definition.
//!
//! Run with: `cargo run --example quickstart`

use dyno::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Build two autonomous sources -----------------------------------
    let orders_schema = Schema::of(
        "Orders",
        &[("id", AttrType::Int), ("sku", AttrType::Str), ("qty", AttrType::Int)],
    );
    let products_schema = Schema::of(
        "Products",
        &[("sku", AttrType::Str), ("name", AttrType::Str), ("price", AttrType::Int)],
    );

    let mut store = Catalog::new();
    store.add_relation(Relation::from_tuples(
        orders_schema.clone(),
        [Tuple::of([Value::from(1), Value::str("A-1"), Value::from(3)])],
    )?)?;

    let mut warehouse = Catalog::new();
    warehouse.add_relation(Relation::from_tuples(
        products_schema.clone(),
        [
            Tuple::of([Value::str("A-1"), Value::str("widget"), Value::from(9)]),
            Tuple::of([Value::str("B-2"), Value::str("gadget"), Value::from(25)]),
        ],
    )?)?;

    let mut space = SourceSpace::new();
    space.add_server(SourceServer::new(SourceId(0), "store", store));
    space.add_server(SourceServer::new(SourceId(1), "warehouse", warehouse));

    // --- 2. Define the view (in SQL, as the paper writes them) -------------
    let view = ViewDefinition::parse(
        "CREATE VIEW OrderReport AS \
         SELECT Orders.id, Products.name, Orders.qty, Products.price \
         FROM Orders, Products \
         WHERE Orders.sku = Products.sku",
        "OrderReport",
    )?;
    println!("view definition:\n  {view}\n");

    let info = space.info().clone();
    let mut port = InProcessPort::new(space);
    let mut mgr = Warehouse::new(info, Strategy::Pessimistic);
    mgr.add_view(view);
    mgr.initialize(&mut port)?;
    println!("initial extent:\n{}", mgr.mv(0));

    // --- 3. A source commits a data update ---------------------------------
    port.commit(
        SourceId(0),
        SourceUpdate::Data(DataUpdate::new(Delta::inserts(
            orders_schema,
            [Tuple::of([Value::from(2), Value::str("B-2"), Value::from(1)])],
        )?)),
    )?;
    mgr.run_to_quiescence(&mut port, 100)?;
    println!("after the order insert:\n{}", mgr.mv(0));

    // --- 4. A source autonomously renames a relation -----------------------
    // The view definition is rewritten (view synchronization) and the extent
    // adapted; consumers keep seeing the same output columns.
    port.commit(
        SourceId(1),
        SourceUpdate::Schema(SchemaChange::RenameRelation {
            from: "Products".into(),
            to: "Items".into(),
        }),
    )?;
    mgr.run_to_quiescence(&mut port, 100)?;
    println!("after the source renamed Products to Items:\n  {}\n", mgr.view(0));
    println!("extent (unchanged content, new definition):\n{}", mgr.mv(0));

    println!(
        "stats: {} data updates maintained incrementally, {} adaptation batches, {} aborts",
        mgr.stats(0).du_committed,
        mgr.stats(0).batches_committed,
        mgr.stats(0).aborts
    );
    Ok(())
}
