//! The forensics analyzer: replays the provenance records of a capture
//! (see [`crate::lineage`]) into per-update phase latencies and
//! per-anomaly-class distributions.
//!
//! For every causal id with a terminal `applied` record the analyzer
//! reconstructs:
//!
//! * **queue wait** — admission to the UMQ → the first maintenance Intent
//!   naming the id;
//! * **query time** — the last Intent → `applied` (a retried or re-parked
//!   step logs a fresh Intent, so this measures the *successful* attempt;
//!   retries show up as park time instead);
//! * **park time** — each `park` → the next Intent (the unpark retry),
//!   summed;
//! * **batch wait** — cyclic-group merge → the first Intent after it (how
//!   long an update waited for its batch to reach the queue head);
//! * **end-to-end latency** — source commit (falling back to admission when
//!   the commit record was evicted) → `applied`, bucketed by the worst
//!   **anomaly class** (paper §4: 1 = same-source DU ordering, 2 = semantic
//!   dependency involving a schema change, 3 = concurrent DU/SC conflict,
//!   4 = mutual/cyclic SC conflict; 0 = never in conflict).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::lineage::{stage, BATCH_BIT};
use crate::metrics::Histogram;
use crate::trace::{Record, RecordKind};

/// Aggregated phase latencies and anomaly-class distributions.
#[derive(Debug, Default)]
pub struct Forensics {
    /// Causal ids with a terminal `applied` record.
    pub applied_updates: u64,
    /// Ids that appear in at least one `conflict` record.
    pub conflicted_updates: u64,
    /// Admission → first Intent, µs.
    pub queue_wait_us: Histogram,
    /// Last Intent → applied, µs.
    pub query_time_us: Histogram,
    /// Summed park → retry-Intent gaps, µs (parked ids only).
    pub park_time_us: Histogram,
    /// Merge → first post-merge Intent, µs (merged ids only).
    pub batch_wait_us: Histogram,
    /// Commit (or admission) → applied, µs, over every applied id.
    pub end_to_end_us: Histogram,
    /// End-to-end latency by anomaly class (0 = no conflict).
    pub by_class_us: BTreeMap<u8, Histogram>,
}

/// The per-id event list, batch records expanded to every member they name
/// (`member` fields), ordered as captured.
fn timelines(records: &[Record]) -> BTreeMap<u64, Vec<(u64, &'static str, u8)>> {
    let mut by_id: BTreeMap<u64, Vec<(u64, &'static str, u8)>> = BTreeMap::new();
    for r in records.iter().filter(|r| r.kind == RecordKind::Prov) {
        let class = r.u64_field("class").unwrap_or(0) as u8;
        for id in r.causal_ids() {
            by_id.entry(id).or_default().push((r.ts_us, r.name, class));
        }
    }
    by_id
}

/// Analyzes the provenance records of a capture (see the module docs for
/// the phase definitions); other records are ignored.
pub fn analyze(records: &[Record]) -> Forensics {
    let mut f = Forensics::default();
    for events in timelines(records).values() {
        let applied = events.iter().rev().find(|(_, s, _)| *s == stage::APPLIED);
        let Some(&(applied_ts, _, _)) = applied else { continue };
        f.applied_updates += 1;

        let admit = events.iter().find(|(_, s, _)| *s == stage::ADMIT).map(|e| e.0);
        let commit = events.iter().find(|(_, s, _)| *s == stage::COMMIT).map(|e| e.0);
        let intents: Vec<u64> = events
            .iter()
            .filter(|&&(ts, s, _)| s == stage::INTENT && ts <= applied_ts)
            .map(|e| e.0)
            .collect();

        if let (Some(admit_ts), Some(&first_intent)) = (admit, intents.first()) {
            f.queue_wait_us.record(first_intent.saturating_sub(admit_ts));
        }
        if let Some(&last_intent) = intents.last() {
            f.query_time_us.record(applied_ts.saturating_sub(last_intent));
        }

        let mut parked = 0u64;
        let mut saw_park = false;
        for &(park_ts, s, _) in events {
            if s == stage::PARK {
                saw_park = true;
                let retry = intents.iter().find(|&&t| t > park_ts).copied().unwrap_or(applied_ts);
                parked += retry.saturating_sub(park_ts);
            }
        }
        if saw_park {
            f.park_time_us.record(parked);
        }

        if let Some(&(merge_ts, _, _)) = events.iter().find(|(_, s, _)| *s == stage::MERGE) {
            let next = intents.iter().find(|&&t| t >= merge_ts).copied().unwrap_or(applied_ts);
            f.batch_wait_us.record(next.saturating_sub(merge_ts));
        }

        let class = events
            .iter()
            .filter(|(_, s, _)| *s == stage::CONFLICT)
            .map(|&(_, _, c)| c)
            .max()
            .unwrap_or(0);
        if class > 0 {
            f.conflicted_updates += 1;
        }
        let born = commit.or(admit).unwrap_or(applied_ts);
        let e2e = applied_ts.saturating_sub(born);
        f.end_to_end_us.record(e2e);
        f.by_class_us.entry(class).or_default().record(e2e);
    }
    f
}

fn hist_line(out: &mut String, label: &str, h: &Histogram) {
    let (p50, p95, p99) = h.percentiles();
    let _ = writeln!(
        out,
        "  {label:<12}  n={:<6} p50={p50} p95={p95} p99={p99} max={} µs",
        h.count(),
        h.max()
    );
}

impl Forensics {
    /// Renders the report as aligned text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "forensics: {} applied updates ({} conflicted)",
            self.applied_updates, self.conflicted_updates
        );
        out.push_str("per-phase latency\n");
        hist_line(&mut out, "queue wait", &self.queue_wait_us);
        hist_line(&mut out, "query time", &self.query_time_us);
        hist_line(&mut out, "park time", &self.park_time_us);
        hist_line(&mut out, "batch wait", &self.batch_wait_us);
        hist_line(&mut out, "end to end", &self.end_to_end_us);
        out.push_str("end-to-end latency by anomaly class\n");
        for (class, h) in &self.by_class_us {
            let label = match class {
                0 => "none".to_string(),
                c => format!("class {c}"),
            };
            hist_line(&mut out, &label, h);
        }
        out
    }

    /// The report as one JSON object (histograms as
    /// `{count,p50,p95,p99,max}`).
    pub fn render_json(&self) -> String {
        let hist = |h: &Histogram| {
            let (p50, p95, p99) = h.percentiles();
            format!(
                "{{\"count\":{},\"p50\":{p50},\"p95\":{p95},\"p99\":{p99},\"max\":{}}}",
                h.count(),
                h.max()
            )
        };
        let mut out = format!(
            "{{\"applied_updates\":{},\"conflicted_updates\":{},\"phases\":{{\
             \"queue_wait_us\":{},\"query_time_us\":{},\"park_time_us\":{},\
             \"batch_wait_us\":{},\"end_to_end_us\":{}}},\"by_class_us\":{{",
            self.applied_updates,
            self.conflicted_updates,
            hist(&self.queue_wait_us),
            hist(&self.query_time_us),
            hist(&self.park_time_us),
            hist(&self.batch_wait_us),
            hist(&self.end_to_end_us),
        );
        for (i, (class, h)) in self.by_class_us.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{class}\":{}", hist(h));
        }
        out.push_str("}}\n");
        out
    }

    /// [`Forensics::render_text`] followed by the per-operator drill-down
    /// from a [`Profile`](crate::profile::Profile) capture, so the
    /// phase-level attribution above is explained operator-by-operator
    /// below. When the profile is empty the drill-down is a one-line hint.
    pub fn render_text_with_profile(&self, profile: &crate::profile::Profile) -> String {
        let mut out = self.render_text();
        out.push_str("operator drill-down (query-time phase, per maintenance plan)\n");
        out.push_str(&profile.render_text(None));
        out
    }
}

/// Renders one id's lineage as a human-readable timeline (the CLI
/// `explain <id>` output). `records` should come from
/// [`Collector::explain`](crate::Collector::explain).
pub fn explain_text(id: u64, records: &[Record]) -> String {
    if records.is_empty() {
        return format!("no lineage for id {id} (is lineage capture on?)\n");
    }
    let mut out = format!("lineage of {id}\n");
    let t0 = records.first().map(|r| r.ts_us).unwrap_or(0);
    for r in records {
        let _ = write!(out, "  +{:>8} µs  {:<14}", r.ts_us.saturating_sub(t0), r.name);
        if r.id != id {
            let _ = write!(out, " [batch {}]", r.id & !BATCH_BIT);
        }
        for (k, v) in &r.fields {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{field, Ring};

    fn capture() -> Vec<Record> {
        let mut l = Ring::new(64);
        // id 1: clean DU — commit 0, admit 10, intent 30, applied 50.
        l.prov(0, 1, stage::COMMIT, vec![field("source", 0u64)]);
        l.prov(10, 1, stage::ADMIT, vec![]);
        l.prov(30, 1, stage::INTENT, vec![]);
        l.prov(50, 1, stage::APPLIED, vec![]);
        // id 2: conflicted (class 3), parked once, merged.
        l.prov(0, 2, stage::COMMIT, vec![field("source", 1u64)]);
        l.prov(5, 2, stage::ADMIT, vec![]);
        l.prov(8, 2, stage::CONFLICT, vec![field("with", 1u64), field("class", 3u64)]);
        let b = l.batch_id();
        l.prov(12, b, stage::MERGE, vec![field("member", 2u64)]);
        l.prov(20, 2, stage::INTENT, vec![]);
        l.prov(25, 2, stage::PARK, vec![]);
        l.prov(100, 2, stage::INTENT, vec![]);
        l.prov(140, 2, stage::APPLIED, vec![]);
        // id 3: admitted, never applied (still queued) — not counted.
        l.prov(7, 3, stage::ADMIT, vec![]);
        // Spans and events in the same ring are not provenance.
        l.event(crate::trace::Level::Info, "dyno.step", 8, vec![field("class", 4u64)]);
        l.records().cloned().collect()
    }

    #[test]
    fn phases_reconstruct_from_the_timeline() {
        let f = analyze(&capture());
        assert_eq!(f.applied_updates, 2);
        assert_eq!(f.conflicted_updates, 1);
        // id 1: queue wait 30-10=20; id 2: 20-5=15.
        assert_eq!(f.queue_wait_us.count(), 2);
        assert_eq!(f.queue_wait_us.sum(), 35);
        // Query time: id 1 50-30=20; id 2 uses the retry intent, 140-100=40.
        assert_eq!(f.query_time_us.sum(), 60);
        // Park time: id 2 only, 100-25=75.
        assert_eq!(f.park_time_us.count(), 1);
        assert_eq!(f.park_time_us.sum(), 75);
        // Batch wait: merge at 12 → next intent at 20.
        assert_eq!(f.batch_wait_us.count(), 1);
        assert_eq!(f.batch_wait_us.sum(), 8);
    }

    #[test]
    fn end_to_end_latency_buckets_by_class() {
        let f = analyze(&capture());
        assert_eq!(f.by_class_us.keys().copied().collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(f.by_class_us[&0].sum(), 50, "id 1: commit 0 → applied 50");
        assert_eq!(f.by_class_us[&3].sum(), 140, "id 2: commit 0 → applied 140");
    }

    #[test]
    fn reports_render_both_ways() {
        let f = analyze(&capture());
        let text = f.render_text();
        assert!(text.contains("2 applied updates (1 conflicted)"));
        assert!(text.contains("queue wait"));
        assert!(text.contains("class 3"));
        let json = f.render_json();
        crate::json::parse(&json).expect("valid JSON");
        assert!(json.contains("\"applied_updates\":2"));
        assert!(json.contains("\"3\":{\"count\":1"));
    }

    #[test]
    fn explain_renders_a_timeline() {
        let recs = capture();
        let two: Vec<Record> = recs
            .iter()
            .filter(|r| r.kind == RecordKind::Prov && r.causal_ids().any(|m| m == 2))
            .cloned()
            .collect();
        let text = explain_text(2, &two);
        assert!(text.contains("lineage of 2"));
        assert!(text.contains("commit"));
        assert!(text.contains("[batch 1]"), "batch records are flagged: {text}");
        assert!(text.contains("class=3"));
        assert!(explain_text(99, &[]).contains("no lineage"));
    }
}
