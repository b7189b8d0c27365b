//! Chrome `trace_event` JSON export — load the result in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! The exporter renders the one record ring of a
//! [`Collector`](crate::Collector):
//!
//! * **spans** become duration (`"B"`/`"E"`) events. Only *matched*
//!   start/end pairs are emitted, so the output always balances even when
//!   the ring evicted one half of a pair or a span is still open;
//! * **events** become instant (`"i"`) events;
//! * **provenance records** become 1 µs complete (`"X"`) slices named
//!   `prov.<stage>`, and every causal id's trajectory across lanes is tied
//!   together with **flow events** (`"s"` → `"t"` → `"f"`), which Perfetto
//!   renders as arrows from the source commit to the view-extent delta.
//!
//! Everything runs in one process, so the export uses a single `pid` with
//! one **lane** (`tid`) per subsystem: each source wrapper, the transport,
//! the scheduler (Dyno core), and the warehouse. Lanes are named via
//! `thread_name` metadata events.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::json;
use crate::lineage::stage;
use crate::trace::{push_json_fields, Field, Record, RecordKind};

/// The single process id used by the export.
const PID: u32 = 1;

/// Lane ids. Sources occupy `SOURCE_BASE + source_id`.
const LANE_SCHEDULER: u32 = 1;
const LANE_TRANSPORT: u32 = 2;
const LANE_WAREHOUSE: u32 = 3;
const SOURCE_BASE: u32 = 10;

/// The lane a span/event name belongs to, by subsystem prefix.
fn lane_of_name(name: &str) -> u32 {
    if name.starts_with("dyno.") || name.starts_with("graph.") || name.starts_with("correct.") {
        LANE_SCHEDULER
    } else if name.starts_with("fault.") || name.starts_with("xport.") {
        LANE_TRANSPORT
    } else {
        // view.*, vm.*, wal.*, sim.*, plan.*, …: the warehouse side.
        LANE_WAREHOUSE
    }
}

/// The lane a provenance record belongs to: commits land on their source's
/// lane, transport stages on the transport lane, scheduling stages on the
/// scheduler lane, everything else on the warehouse lane.
fn lane_of_prov(rec: &Record) -> u32 {
    match rec.name {
        stage::COMMIT => SOURCE_BASE + rec.u64_field("source").unwrap_or(0) as u32,
        s if s.starts_with("xport.") => LANE_TRANSPORT,
        stage::CONFLICT | stage::MERGE | stage::REORDER => LANE_SCHEDULER,
        _ => LANE_WAREHOUSE,
    }
}

fn push_args(out: &mut String, causal_id: Option<u64>, fields: &[Field]) {
    out.push_str(",\"args\":{");
    if let Some(id) = causal_id {
        let _ = write!(out, "\"causal_id\":{id}");
        if !fields.is_empty() {
            out.push(',');
        }
    }
    push_json_fields(out, fields);
    out.push('}');
}

fn push_event_head(out: &mut String, name: &str, ph: char, ts: u64, tid: u32) {
    out.push_str("{\"name\":");
    json::push_str(out, name);
    let _ = write!(out, ",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":{PID},\"tid\":{tid}");
}

/// Exports a ring snapshot (spans, events and provenance in capture order)
/// as one Chrome `trace_event` JSON document (`{"traceEvents":[...]}`):
/// spans and events first, then provenance slices, then flows.
pub fn export_chrome(records: &[Record]) -> String {
    let mut events: Vec<String> = Vec::new();

    // Which spans have both halves in the capture, start first.
    let (mut started, mut matched) = (BTreeSet::new(), BTreeSet::new());
    for r in records {
        match r.kind {
            RecordKind::SpanStart => started.insert(r.id),
            RecordKind::SpanEnd if started.contains(&r.id) => matched.insert(r.id),
            _ => false,
        };
    }

    let mut lanes: BTreeMap<u32, String> = BTreeMap::new();
    let lane = |tid: u32, lanes: &mut BTreeMap<u32, String>| {
        lanes.entry(tid).or_insert_with(|| match tid {
            LANE_SCHEDULER => "scheduler".into(),
            LANE_TRANSPORT => "transport".into(),
            LANE_WAREHOUSE => "warehouse".into(),
            t => format!("source.DS{}", t - SOURCE_BASE),
        });
        tid
    };

    // Spans and point events, in capture order (the tracer is
    // single-threaded, so capture order is timestamp order and B/E nesting
    // per lane is inherited from the span stack).
    let (prov, trace): (Vec<&Record>, Vec<&Record>) =
        records.iter().partition(|r| r.kind == RecordKind::Prov);
    for r in trace {
        let tid = lane(lane_of_name(r.name), &mut lanes);
        let mut e = String::new();
        match r.kind {
            RecordKind::SpanStart if matched.contains(&r.id) => {
                push_event_head(&mut e, r.name, 'B', r.ts_us, tid);
                if !r.fields.is_empty() {
                    push_args(&mut e, None, &r.fields);
                }
            }
            RecordKind::SpanEnd if matched.contains(&r.id) => {
                push_event_head(&mut e, r.name, 'E', r.ts_us, tid);
            }
            RecordKind::Event => {
                push_event_head(&mut e, r.name, 'i', r.ts_us, tid);
                e.push_str(",\"s\":\"t\"");
                if !r.fields.is_empty() {
                    push_args(&mut e, None, &r.fields);
                }
            }
            _ => continue, // unmatched half of a pair
        }
        e.push('}');
        events.push(e);
    }

    // Provenance records as 1 µs slices, with causal-id appearances
    // collected for the flow pass. A batch record is an appearance of every
    // member id.
    let mut trajectories: BTreeMap<u64, Vec<(u64, u32, &'static str)>> = BTreeMap::new();
    for r in prov {
        let tid = lane(lane_of_prov(r), &mut lanes);
        let mut e = String::new();
        let name = format!("prov.{}", r.name);
        e.push_str("{\"name\":");
        json::push_str(&mut e, &name);
        let _ = write!(e, ",\"ph\":\"X\",\"ts\":{},\"dur\":1,\"pid\":{PID},\"tid\":{tid}", r.ts_us);
        push_args(&mut e, Some(r.id), &r.fields);
        e.push('}');
        events.push(e);
        for id in r.causal_ids() {
            trajectories.entry(id).or_default().push((r.ts_us, tid, r.name));
        }
    }

    // Flow arrows: one flow per causal id, stepping through every lane the
    // id appeared on. `s` opens the flow, `t` continues it, `f` closes it.
    for (id, hops) in &trajectories {
        if hops.len() < 2 {
            continue;
        }
        let last = hops.len() - 1;
        for (i, (ts, tid, stg)) in hops.iter().enumerate() {
            let ph = match i {
                0 => 's',
                i if i == last => 'f',
                _ => 't',
            };
            let mut e = String::new();
            e.push_str("{\"name\":\"causal\",\"cat\":\"provenance\",");
            let _ =
                write!(e, "\"ph\":\"{ph}\",\"id\":{id},\"ts\":{ts},\"pid\":{PID},\"tid\":{tid}");
            if ph == 'f' {
                e.push_str(",\"bp\":\"e\"");
            }
            let _ = write!(e, ",\"args\":{{\"stage\":{}}}", json::escape(stg));
            e.push('}');
            events.push(e);
        }
    }

    // Lane names (metadata events, conventionally first).
    let lane_names = lanes.iter().map(|(tid, name)| {
        format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\
             \"args\":{{\"name\":{}}}}}",
            json::escape(name)
        )
    });
    let all: Vec<String> = lane_names.chain(events).collect();
    format!("{{\"traceEvents\":[{}]}}\n", all.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::trace::{field, Level, Ring};

    fn events_of(doc: &str) -> Vec<Value> {
        let v = parse(doc).expect("valid JSON");
        v.get("traceEvents").and_then(Value::as_arr).expect("traceEvents array").to_vec()
    }

    fn snapshot(ring: &Ring) -> Vec<Record> {
        ring.records().cloned().collect()
    }

    #[test]
    fn spans_export_as_balanced_be_pairs() {
        let mut t = Ring::new(64);
        let a = t.begin_span("dyno.step", 10, vec![field("depth", 2u64)]);
        let b = t.begin_span("vm.sweep", 20, vec![]);
        t.end_span("vm.sweep", b, 20, 30);
        t.end_span("dyno.step", a, 10, 40);
        let open = t.begin_span("view.maintain", 50, vec![]); // never closed
        let _ = open;

        let doc = export_chrome(&snapshot(&t));
        let evs = events_of(&doc);
        let mut b_count = 0;
        let mut e_count = 0;
        for ev in &evs {
            match ev.get("ph").and_then(Value::as_str) {
                Some("B") => b_count += 1,
                Some("E") => e_count += 1,
                _ => {}
            }
        }
        assert_eq!(b_count, 2, "the open span is not exported");
        assert_eq!(e_count, 2);
    }

    #[test]
    fn lanes_split_by_subsystem_and_are_named() {
        let mut t = Ring::new(64);
        t.prov(0, 7, stage::COMMIT, vec![field("source", 2u64)]);
        let a = t.begin_span("dyno.step", 1, vec![]);
        t.end_span("dyno.step", a, 1, 2);
        let b = t.begin_span("view.maintain", 3, vec![]);
        t.end_span("view.maintain", b, 3, 4);

        let doc = export_chrome(&snapshot(&t));
        let evs = events_of(&doc);
        let names: Vec<&str> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(Value::as_str))
            .collect();
        assert!(names.contains(&"scheduler"));
        assert!(names.contains(&"warehouse"));
        assert!(names.contains(&"source.DS2"));
        // Spans and events come first, provenance slices after, whatever
        // the capture order.
        let order: Vec<&str> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) != Some("M"))
            .filter_map(|e| e.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(order.last(), Some(&"prov.commit"), "{order:?}");
    }

    #[test]
    fn flows_connect_a_causal_id_across_lanes() {
        let mut l = Ring::new(16);
        l.prov(10, 7, stage::COMMIT, vec![field("source", 0u64)]);
        l.prov(20, 7, stage::ADMIT, vec![]);
        l.prov(30, 7, stage::APPLIED, vec![]);
        let doc = export_chrome(&snapshot(&l));
        let evs = events_of(&doc);
        let phases: Vec<&str> = evs
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("causal"))
            .filter_map(|e| e.get("ph").and_then(Value::as_str))
            .collect();
        assert_eq!(phases, vec!["s", "t", "f"], "start, step, finish in order");
    }

    #[test]
    fn batch_records_step_every_member_flow() {
        let mut l = Ring::new(16);
        l.prov(1, 5, stage::COMMIT, vec![field("source", 0u64)]);
        l.prov(2, 6, stage::COMMIT, vec![field("source", 1u64)]);
        let b = l.batch_id();
        l.prov(3, b, stage::MERGE, vec![field("member", 5u64), field("member", 6u64)]);
        l.prov(4, 5, stage::APPLIED, vec![]);
        l.prov(4, 6, stage::APPLIED, vec![]);
        let doc = export_chrome(&snapshot(&l));
        let evs = events_of(&doc);
        let flow_ids: Vec<u64> = evs
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("causal"))
            .filter_map(|e| e.get("id").and_then(Value::as_num))
            .map(|n| n as u64)
            .collect();
        // Both member flows have 3 hops each (commit → merge → applied).
        assert_eq!(flow_ids.iter().filter(|&&i| i == 5).count(), 3);
        assert_eq!(flow_ids.iter().filter(|&&i| i == 6).count(), 3);
    }

    #[test]
    fn export_is_valid_json_with_escaped_payloads() {
        let mut t = Ring::new(8);
        t.event(Level::Warn, "vm.broken_query", 5, vec![field("query", String::from("a\"b"))]);
        let doc = export_chrome(&snapshot(&t));
        assert!(parse(&doc).is_ok(), "must parse: {doc}");
    }
}
