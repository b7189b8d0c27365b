//! The one capture store: spans, events and provenance records as one
//! [`Record`] type in one bounded [`Ring`].
//!
//! A span is two records (`SpanStart`, `SpanEnd`) sharing an id; the ring
//! keeps a stack of open spans so every span and event record carries the
//! id of its enclosing span (`parent_id`, 0 at the root). A provenance
//! record (`Prov`, see [`crate::lineage`]) carries a causal or batch id
//! instead and never touches the span stack. When the ring is full the
//! oldest record — of whichever kind — is dropped and counted: capture
//! never grows without bound and never reallocates after warm-up.
//!
//! The ring renders as two line formats, each over its own kinds
//! ([`Record::push_jsonl`]): spans and events as trace lines, provenance
//! records as lineage lines.

use std::collections::VecDeque;
use std::fmt::{self, Write as _};

use crate::json;
use crate::lineage::BATCH_BIT;

/// A field value. `Str` carries `&'static str` so hot-path fields never
/// allocate; `Text` is for dynamic strings on cold paths (error messages).
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A static string (no allocation).
    Str(&'static str),
    /// An owned string (cold paths only).
    Text(String),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float.
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(v)
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Text(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// The text form (`explain` timelines): strings bare, numbers and booleans
/// as Rust prints them.
impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::Str(s) => f.write_str(s),
            FieldValue::Text(s) => f.write_str(s),
            FieldValue::U64(n) => write!(f, "{n}"),
            FieldValue::I64(n) => write!(f, "{n}"),
            FieldValue::F64(x) => write!(f, "{x}"),
            FieldValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// A named field: `key = value`.
pub type Field = (&'static str, FieldValue);

/// Builds a [`Field`] from anything convertible to a [`FieldValue`].
pub fn field(key: &'static str, value: impl Into<FieldValue>) -> Field {
    (key, value.into())
}

/// Appends `fields` as comma-separated JSON members (`"k":v,…`, no braces):
/// the one `FieldValue` JSON encoder, shared by both line formats and the
/// Chrome export.
pub fn push_json_fields(out: &mut String, fields: &[Field]) {
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_str(out, k);
        out.push(':');
        match v {
            FieldValue::Str(s) => json::push_str(out, s),
            FieldValue::Text(s) => json::push_str(out, s),
            FieldValue::F64(x) => json::push_f64(out, *x),
            // Integers and booleans print as JSON already.
            n => {
                let _ = write!(out, "{n}");
            }
        }
    }
}

/// Event severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Fine-grained diagnostics.
    Debug,
    /// Normal operational events.
    Info,
    /// Something surprising that deserves attention (e.g. a skipped commit).
    Warn,
}

impl Level {
    /// Lower-case name, as exported in JSONL.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }
}

/// What a [`Record`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A span opened.
    SpanStart,
    /// A span closed (carries `dur_us`).
    SpanEnd,
    /// A point event.
    Event,
    /// A provenance record: update `id` reached stage `name`.
    Prov,
}

impl RecordKind {
    fn as_str(self) -> &'static str {
        match self {
            RecordKind::SpanStart => "span_start",
            RecordKind::SpanEnd => "span_end",
            RecordKind::Event => "event",
            RecordKind::Prov => "prov",
        }
    }
}

/// One captured record.
#[derive(Debug, Clone)]
pub struct Record {
    /// Record kind.
    pub kind: RecordKind,
    /// Severity (events; spans and provenance are `Info`).
    pub level: Level,
    /// Span or event name; a provenance record's stage (see
    /// [`crate::lineage::stage`]).
    pub name: &'static str,
    /// A span's own id; for an event, the enclosing span's (0 at the root);
    /// for a provenance record, the causal id or a [`BATCH_BIT`]-tagged
    /// batch id.
    pub id: u64,
    /// Id of the enclosing span (0 at the root and for provenance).
    pub parent_id: u64,
    /// Timestamp in clock microseconds.
    pub ts_us: u64,
    /// Span duration; `SpanEnd` only.
    pub dur_us: Option<u64>,
    /// Key=value payload.
    pub fields: Vec<Field>,
}

impl Record {
    /// An `Info`-level root record without a duration.
    fn new(kind: RecordKind, name: &'static str, id: u64, ts_us: u64, fields: Vec<Field>) -> Self {
        Record { kind, level: Level::Info, name, id, parent_id: 0, ts_us, dur_us: None, fields }
    }

    /// Appends this record as one JSON line (newline included): a trace
    /// line for a span or event, a lineage line for a provenance record.
    pub fn push_jsonl(&self, out: &mut String) {
        if self.kind == RecordKind::Prov {
            let _ = write!(out, "{{\"ts_us\":{},\"id\":{},\"stage\":", self.ts_us, self.id);
            json::push_str(out, self.name);
            if !self.fields.is_empty() {
                out.push(',');
                push_json_fields(out, &self.fields);
            }
        } else {
            let _ = write!(
                out,
                "{{\"ts_us\":{},\"kind\":\"{}\",\"level\":\"{}\",\"name\":",
                self.ts_us,
                self.kind.as_str(),
                self.level.as_str()
            );
            json::push_str(out, self.name);
            let _ = write!(out, ",\"span\":{},\"parent\":{}", self.id, self.parent_id);
            if let Some(d) = self.dur_us {
                let _ = write!(out, ",\"dur_us\":{d}");
            }
            if !self.fields.is_empty() {
                out.push_str(",\"fields\":{");
                push_json_fields(out, &self.fields);
                out.push('}');
            }
        }
        out.push_str("}\n");
    }

    /// The first `U64` field named `key`.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.fields.iter().find_map(|(k, v)| match v {
            FieldValue::U64(n) if *k == key => Some(*n),
            _ => None,
        })
    }

    /// The causal ids a provenance record concerns: its own id, or — for a
    /// batch record — every `member` it lists.
    pub fn causal_ids(&self) -> impl Iterator<Item = u64> + '_ {
        let batch = self.id & BATCH_BIT != 0;
        let members = self.fields.iter().filter_map(move |(k, v)| match v {
            FieldValue::U64(m) if batch && *k == "member" => Some(*m),
            _ => None,
        });
        (!batch).then_some(self.id).into_iter().chain(members)
    }
}

/// The bounded record ring, the open-span stack, and the span and batch id
/// counters.
#[derive(Debug)]
pub struct Ring {
    capacity: usize,
    records: VecDeque<Record>,
    dropped: u64,
    next_span: u64,
    next_batch: u64,
    stack: Vec<u64>,
}

impl Ring {
    /// A ring holding at most `capacity` records (0 retains nothing and
    /// counts every record as dropped).
    pub fn new(capacity: usize) -> Self {
        Ring {
            capacity,
            records: VecDeque::new(),
            dropped: 0,
            next_span: 1,
            next_batch: 0,
            stack: Vec::new(),
        }
    }

    fn push(&mut self, rec: Record) {
        if self.records.len() == self.capacity {
            self.dropped += 1;
            if self.records.pop_front().is_none() {
                return; // a zero-capacity ring keeps nothing
            }
        }
        self.records.push_back(rec);
    }

    fn parent(&self) -> u64 {
        self.stack.last().copied().unwrap_or(0)
    }

    /// Opens a span; returns its id.
    pub fn begin_span(&mut self, name: &'static str, ts_us: u64, fields: Vec<Field>) -> u64 {
        let id = self.next_span;
        self.next_span += 1;
        let parent_id = self.parent();
        self.push(Record {
            parent_id,
            ..Record::new(RecordKind::SpanStart, name, id, ts_us, fields)
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` opened at `start_us`. Spans close LIFO (RAII guards
    /// enforce this); out-of-order closes just pop to the matching frame.
    pub fn end_span(&mut self, name: &'static str, id: u64, start_us: u64, ts_us: u64) {
        while let Some(top) = self.stack.pop() {
            if top == id {
                break;
            }
        }
        self.push(Record {
            parent_id: self.parent(),
            dur_us: Some(ts_us.saturating_sub(start_us)),
            ..Record::new(RecordKind::SpanEnd, name, id, ts_us, Vec::new())
        });
    }

    /// Records a point event inside the current span.
    pub fn event(&mut self, level: Level, name: &'static str, ts_us: u64, fields: Vec<Field>) {
        let parent_id = self.parent();
        self.push(Record {
            level,
            parent_id,
            ..Record::new(RecordKind::Event, name, parent_id, ts_us, fields)
        });
    }

    /// Records that causal (or batch) id `id` reached `stage`.
    pub fn prov(&mut self, ts_us: u64, id: u64, stage: &'static str, fields: Vec<Field>) {
        self.push(Record::new(RecordKind::Prov, stage, id, ts_us, fields));
    }

    /// A fresh batch id: [`BATCH_BIT`] plus a sequence number.
    pub fn batch_id(&mut self) -> u64 {
        self.next_batch += 1;
        BATCH_BIT | self.next_batch
    }

    /// Records currently in the ring, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &Record> + Clone {
        self.records.iter()
    }

    /// Number of records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The provenance records (`prov`) or the spans and events (`!prov`) as
    /// JSONL, oldest first.
    pub fn jsonl(&self, prov: bool) -> String {
        let mut out = String::new();
        for rec in self.records.iter().filter(|r| (r.kind == RecordKind::Prov) == prov) {
            rec.push_jsonl(&mut out);
        }
        out
    }

    /// Empties the ring (keeps the id counters and the open-span stack).
    pub fn clear(&mut self) {
        self.records.clear();
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_nesting_assigns_parent_ids() {
        let mut t = Ring::new(64);
        let outer = t.begin_span("outer", 10, vec![]);
        let inner = t.begin_span("inner", 20, vec![]);
        t.event(Level::Info, "tick", 25, vec![]);
        t.prov(26, 7, "admit", vec![]);
        t.end_span("inner", inner, 20, 30);
        t.end_span("outer", outer, 10, 40);

        let recs: Vec<&Record> = t.records().collect();
        assert_eq!(recs.len(), 6);
        assert_eq!((recs[0].name, recs[0].parent_id), ("outer", 0));
        assert_eq!((recs[1].name, recs[1].parent_id), ("inner", outer));
        assert_eq!((recs[2].name, recs[2].id), ("tick", inner));
        assert_eq!((recs[3].id, recs[3].parent_id), (7, 0), "provenance ignores the span stack");
        assert_eq!(recs[4].dur_us, Some(10));
        assert_eq!(recs[5].dur_us, Some(30));
        assert_eq!(recs[5].parent_id, 0);
    }

    #[test]
    fn ring_buffer_wraps_and_counts_drops() {
        let mut t = Ring::new(3);
        for i in 0..5u64 {
            t.event(Level::Info, "e", i, vec![field("i", i)]);
        }
        assert_eq!(t.dropped(), 2);
        let ts: Vec<u64> = t.records().map(|r| r.ts_us).collect();
        assert_eq!(ts, vec![2, 3, 4]);
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let mut t = Ring::new(8);
        let s = t.begin_span("step", 5, vec![field("strategy", "pessimistic")]);
        t.event(Level::Warn, "skip", 6, vec![field("err", String::from("x\"y"))]);
        t.prov(6, 3, "admit", vec![]);
        t.end_span("step", s, 5, 9);
        let out = t.jsonl(false);
        let lines: Vec<&str> = out.trim_end().split('\n').collect();
        assert_eq!(lines.len(), 3, "the provenance record is not a trace line");
        assert!(lines[0].starts_with("{\"ts_us\":5,\"kind\":\"span_start\""));
        assert!(lines[0].contains("\"strategy\":\"pessimistic\""));
        assert!(lines[1].contains("\"level\":\"warn\""));
        assert!(lines[1].contains("\"err\":\"x\\\"y\""));
        assert!(lines[2].contains("\"dur_us\":4"));
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
        assert_eq!(t.jsonl(true), "{\"ts_us\":6,\"id\":3,\"stage\":\"admit\"}\n");
    }
}
