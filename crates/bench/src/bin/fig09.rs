//! Paper Figure 9: the cost of a broken query.
//!
//! Two workloads over the six-relation testbed:
//! * **One DU + one SC** — a data update followed by a conflicting
//!   drop-attribute schema change (anomaly type 3);
//! * **One SC + one SC** — a drop-attribute schema change followed by a
//!   conflicting rename-relation change (anomaly type 4).
//!
//! Three settings per workload: *no concurrency* (updates spaced so far
//! apart they never interact — the minimum cost), *pessimistic* (pre-exec
//! detection discovers the buffered conflict and reorders/merges before any
//! query is sent), and *optimistic* (maintenance dives in, suffers the
//! broken query, and pays the abort).

use dyno_bench::{
    cost_model, render_table, run_converged, secs, testbed_config, warn_if_debug, write_json_table,
    BenchArgs,
};
use dyno_core::Strategy;
use dyno_relational::{DataUpdate, Delta, SchemaChange, SourceUpdate, Tuple, Value};
use dyno_sim::{build_testbed, Experiment, ScheduledCommit, TestbedConfig};
use dyno_source::SourceId;

fn du_on_r0(cfg: &TestbedConfig, at_us: u64) -> ScheduledCommit {
    let schema = cfg.schema(0);
    let vals: Vec<Value> = (0..schema.arity()).map(|i| Value::from((5 + i) as i64)).collect();
    ScheduledCommit {
        at_us,
        source: SourceId(0),
        update: SourceUpdate::Data(DataUpdate::new(
            Delta::inserts(schema, [Tuple::new(vals)]).expect("testbed schema"),
        )),
        peer: 0,
    }
}

fn drop_attr_r3(at_us: u64) -> ScheduledCommit {
    ScheduledCommit {
        at_us,
        source: SourceId(1),
        update: SourceUpdate::Schema(SchemaChange::DropAttribute {
            relation: "R3".into(),
            attr: "A1".into(),
        }),
        peer: 0,
    }
}

fn rename_r5(at_us: u64) -> ScheduledCommit {
    ScheduledCommit {
        at_us,
        source: SourceId(2),
        update: SourceUpdate::Schema(SchemaChange::RenameRelation {
            from: "R5".into(),
            to: "R5_tuned".into(),
        }),
        peer: 0,
    }
}

fn main() {
    warn_if_debug();
    let args = BenchArgs::parse();
    let cfg = testbed_config();
    println!("== Figure 9: cost of broken query ==");
    println!("values are simulated seconds (maintenance cost incl. abort)\n");

    // (workload label, schedule builder taking the gap between the updates)
    type Builder = Box<dyn Fn(u64) -> Vec<ScheduledCommit>>;
    let far = 600_000_000u64; // 10 simulated minutes: no interaction
    let workloads: Vec<(&str, Builder)> = vec![
        (
            "One DU + One SC",
            Box::new(|gap| vec![du_on_r0(&testbed_config(), 0), drop_attr_r3(gap)]),
        ),
        ("One SC + One SC", Box::new(|gap| vec![drop_attr_r3(0), rename_r5(gap)])),
    ];

    let mut rows = Vec::new();
    for (label, build) in &workloads {
        let mut cells = vec![label.to_string()];
        // No concurrency: spaced far apart (strategy irrelevant; use pessimistic).
        // Concurrent: both committed at t=0, i.e. both already at the sources
        // when maintenance begins — the conflict of Definition 2.
        for (setting, gap, strategy) in [
            ("no-conc", far, Strategy::Pessimistic),
            ("pessimistic", 0, Strategy::Pessimistic),
            ("optimistic", 0, Strategy::Optimistic),
        ] {
            let (space, view) = build_testbed(&cfg);
            let report = run_converged(
                &format!("{label}/{setting}"),
                Experiment {
                    strategy,
                    cost: cost_model(),
                    ..Experiment::new(space, vec![view], build(gap))
                },
            );
            cells.push(secs(report.metrics.total_cost_us()));
            if setting == "optimistic" {
                cells.push(report.metrics.aborts.to_string());
            }
        }
        rows.push(cells);
    }
    let header = ["workload", "no-conc (s)", "pessimistic (s)", "optimistic (s)", "opt aborts"];
    println!("{}", render_table(&header, &rows));
    if let Some(path) = &args.json {
        write_json_table(path, "fig09", &header, &rows).expect("write --json output");
        println!("series written to {path}\n");
    }
    println!(
        "shape reproduced: optimistic pays the abort (worst for SC+SC, where the\n\
         aborted work is an expensive schema-change maintenance); pessimistic\n\
         avoids it via pre-exec detection. Note: our merged-batch adaptation\n\
         recomputes the view once, so the pessimistic SC+SC bar sits *below*\n\
         the no-concurrency bar (the paper processed merged work per update)."
    );
}
