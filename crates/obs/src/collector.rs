//! The [`Collector`]: the one handle instrumented code carries.
//!
//! A collector is either **disabled** (the default — every call returns
//! immediately, no allocation, no formatting, no clock read) or **enabled**,
//! in which case it owns a [`Clock`], a metrics [`Registry`], one bounded
//! record [`Ring`] and the operator [`Profile`]. What it captures is one
//! gate word — a [`Capture`] set, changeable at runtime:
//!
//! - [`Capture::TRACE`]: spans and events, into the ring;
//! - [`Capture::PROV`]: provenance records, into the same ring;
//! - [`Capture::PROFILE`]: operator samples, folded into the [`Profile`]
//!   aggregate at record time (an aggregate, not a ring, so its totals stay
//!   exact over runs far longer than any ring).
//!
//! Every gated call costs one `Option` deref plus one `Cell` read when its
//! kind is off. Spans are RAII: [`Collector::span`] returns a [`Span`] guard
//! that closes the span when dropped. Field slices are passed by reference
//! and only copied into the ring when their kind is captured, so a call
//! site like
//!
//! ```ignore
//! let _s = obs.span("dyno.step", &[field("depth", depth)]);
//! ```
//!
//! costs a branch and a few stack stores when tracing is off.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::ops::BitOr;
use std::rc::Rc;

use crate::clock::{Clock, VirtualClock, WallClock};
use crate::lineage;
use crate::metrics::{Counter, Gauge, Histogram, Registry};
use crate::profile::{NodeKey, OpSample, Profile};
use crate::trace::{Field, Level, Record, Ring};

/// Ring capacity of a collector that was never given one.
pub const DEFAULT_RING_CAPACITY: usize = 64 * 1024;

/// A set of capture kinds: a collector's one gate word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Capture(u8);

impl Capture {
    /// Nothing is captured.
    pub const NONE: Capture = Capture(0);
    /// Spans and events.
    pub const TRACE: Capture = Capture(1);
    /// Provenance records.
    pub const PROV: Capture = Capture(1 << 1);
    /// Operator samples, folded into the profile.
    pub const PROFILE: Capture = Capture(1 << 2);

    /// Whether every kind of `kinds` is in the set.
    pub const fn contains(self, kinds: Capture) -> bool {
        self.0 & kinds.0 == kinds.0
    }

    /// The set with `kinds` added (`on`) or removed.
    pub const fn with(self, kinds: Capture, on: bool) -> Capture {
        Capture(if on { self.0 | kinds.0 } else { self.0 & !kinds.0 })
    }
}

impl BitOr for Capture {
    type Output = Capture;

    fn bitor(self, other: Capture) -> Capture {
        Capture(self.0 | other.0)
    }
}

struct CollectorInner {
    clock: Box<dyn Clock>,
    registry: Registry,
    capture: Cell<Capture>,
    ring: RefCell<Ring>,
    profile: RefCell<Profile>,
}

/// A cloneable handle to an observability pipeline (or to nothing).
#[derive(Clone, Default)]
pub struct Collector {
    inner: Option<Rc<CollectorInner>>,
}

impl fmt::Debug for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("Collector(disabled)"),
            Some(inner) => f
                .debug_struct("Collector")
                .field("capture", &inner.capture.get())
                .finish_non_exhaustive(),
        }
    }
}

impl Collector {
    /// The null collector: every operation is a no-op.
    pub fn disabled() -> Self {
        Collector { inner: None }
    }

    /// An enabled collector on the given clock; metrics on, capture off.
    pub fn new(clock: impl Clock + 'static) -> Self {
        Collector {
            inner: Some(Rc::new(CollectorInner {
                clock: Box::new(clock),
                registry: Registry::new(),
                capture: Cell::new(Capture::NONE),
                ring: RefCell::new(Ring::new(DEFAULT_RING_CAPACITY)),
                profile: RefCell::new(Profile::default()),
            })),
        }
    }

    /// An enabled collector stamped with wall time.
    pub fn wall() -> Self {
        Self::new(WallClock::new())
    }

    /// An enabled collector stamped with simulated time from `clock`.
    pub fn with_virtual_clock(clock: VirtualClock) -> Self {
        Self::new(clock)
    }

    /// Captures `kinds` into a fresh ring of `capacity` records, shared by
    /// every clone. No-op when disabled.
    pub fn with_capture(self, kinds: Capture, capacity: usize) -> Self {
        if let Some(inner) = &self.inner {
            *inner.ring.borrow_mut() = Ring::new(capacity);
            inner.capture.set(kinds);
        }
        self
    }

    /// Switches capture to exactly `kinds`; the ring and the profile keep
    /// what they hold. No-op when disabled.
    pub fn set_capture(&self, kinds: Capture) {
        if let Some(inner) = &self.inner {
            inner.capture.set(kinds);
        }
    }

    /// The kinds being captured ([`Capture::NONE`] when disabled).
    pub fn capture(&self) -> Capture {
        self.inner.as_ref().map_or(Capture::NONE, |i| i.capture.get())
    }

    /// Whether every kind of `kinds` is being captured. Instrumented call
    /// sites check this **before** reading a clock, sizing a bag or building
    /// a field, so the disabled path is one `Option` deref plus one `Cell`
    /// read.
    #[inline]
    pub fn capturing(&self, kinds: Capture) -> bool {
        self.inner.as_ref().is_some_and(|i| i.capture.get().contains(kinds))
    }

    /// Whether this is an enabled collector (metrics are live).
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Folds one operator sample into the `(view, scope)` plan's profile.
    /// No-op unless capturing [`Capture::PROFILE`] — though call sites
    /// should go through [`crate::Profiler`], which never builds the `key`
    /// and `sample` when the gate is off.
    #[inline]
    pub fn profile_op(&self, view: &str, scope: &str, key: NodeKey, sample: OpSample) {
        if let Some(inner) = self.live(Capture::PROFILE) {
            inner.profile.borrow_mut().record(view, scope, key, sample);
        }
    }

    /// Counts one invocation of the `(view, scope)` plan. Gated like
    /// [`Collector::profile_op`].
    #[inline]
    pub fn profile_invocation(&self, view: &str, scope: &str) {
        if let Some(inner) = self.live(Capture::PROFILE) {
            inner.profile.borrow_mut().invocation(view, scope);
        }
    }

    /// A clone of the profile (empty when disabled); render it with
    /// [`Profile::render_text`] or [`Profile::render_json`].
    pub fn profile_snapshot(&self) -> Profile {
        self.inner.as_ref().map_or_else(Profile::default, |i| i.profile.borrow().clone())
    }

    /// Clock reading, in microseconds; 0 when disabled.
    pub fn now_us(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_us())
    }

    /// The shared metrics registry. A disabled collector hands out a fresh
    /// detached registry: writes to it are cheap and invisible.
    pub fn registry(&self) -> Registry {
        self.inner.as_ref().map_or_else(Registry::new, |i| i.registry.clone())
    }

    /// Counter `name` (detached and invisible when disabled: it counts in
    /// place and allocates nothing).
    pub fn counter(&self, name: &'static str) -> Counter {
        self.inner.as_ref().map_or_else(Counter::detached, |i| i.registry.counter(name))
    }

    /// Gauge `name` (detached and invisible when disabled, like
    /// [`Collector::counter`]).
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.inner.as_ref().map_or_else(Gauge::detached, |i| i.registry.gauge(name))
    }

    /// Histogram `name` (detached when disabled: it allocates nothing and
    /// drops its samples).
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.inner.as_ref().map_or_else(Histogram::detached, |i| i.registry.histogram(name))
    }

    /// The inner pipeline when it is capturing `kinds`.
    #[inline]
    fn live(&self, kinds: Capture) -> Option<&Rc<CollectorInner>> {
        self.inner.as_ref().filter(|i| i.capture.get().contains(kinds))
    }

    /// Opens a span. Unless capturing [`Capture::TRACE`] this returns an
    /// inert guard without copying `fields` or reading the clock.
    #[inline]
    pub fn span(&self, name: &'static str, fields: &[Field]) -> Span {
        let Some(inner) = self.live(Capture::TRACE) else {
            return Span { active: None };
        };
        let ts = inner.clock.now_us();
        let id = inner.ring.borrow_mut().begin_span(name, ts, fields.to_vec());
        Span { active: Some(SpanActive { inner: Rc::clone(inner), name, id, start_us: ts }) }
    }

    /// Records a point event. No-op (no copy, no clock read) unless
    /// capturing [`Capture::TRACE`].
    #[inline]
    pub fn event(&self, level: Level, name: &'static str, fields: &[Field]) {
        if let Some(inner) = self.live(Capture::TRACE) {
            let ts = inner.clock.now_us();
            inner.ring.borrow_mut().event(level, name, ts, fields.to_vec());
        }
    }

    /// [`Collector::event`] at [`Level::Warn`].
    pub fn warn(&self, name: &'static str, fields: &[Field]) {
        self.event(Level::Warn, name, fields);
    }

    /// Records that causal id `id` reached `stage`. True no-op (no copy, no
    /// clock read, no allocation) unless capturing [`Capture::PROV`].
    #[inline]
    pub fn prov(&self, id: u64, stage: &'static str, fields: &[Field]) {
        if let Some(inner) = self.live(Capture::PROV) {
            let ts = inner.clock.now_us();
            inner.ring.borrow_mut().prov(ts, id, stage, fields.to_vec());
        }
    }

    /// Records one provenance record against a fresh batch id at `stage`,
    /// carrying `fields` plus one `member` field per causal id — the only
    /// place batch membership is kept (see [`crate::lineage`]). Returns the
    /// batch id, or 0 unless capturing [`Capture::PROV`].
    pub fn prov_batch(&self, members: &[u64], stage: &'static str, fields: &[Field]) -> u64 {
        let Some(inner) = self.live(Capture::PROV) else { return 0 };
        let ts = inner.clock.now_us();
        let mut all: Vec<Field> = Vec::with_capacity(fields.len() + members.len());
        all.extend_from_slice(fields);
        all.extend(members.iter().map(|&m| ("member", m.into())));
        let mut ring = inner.ring.borrow_mut();
        let id = ring.batch_id();
        ring.prov(ts, id, stage, all);
        id
    }

    /// The lineage of `id` ([`lineage::explain`]) over the ring, oldest
    /// first. Empty when disabled.
    pub fn explain(&self, id: u64) -> Vec<Record> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| lineage::explain(i.ring.borrow().records(), id))
    }

    /// Snapshot of the ring — spans, events and provenance interleaved in
    /// capture order, oldest first. Empty when disabled.
    pub fn records(&self) -> Vec<Record> {
        self.inner.as_ref().map_or_else(Vec::new, |i| i.ring.borrow().records().cloned().collect())
    }

    /// Records evicted from the ring so far, of every kind.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.ring.borrow().dropped())
    }

    /// The ring's spans and events as JSONL, oldest first. Empty when
    /// disabled.
    pub fn trace_jsonl(&self) -> String {
        self.inner.as_ref().map_or_else(String::new, |i| i.ring.borrow().jsonl(false))
    }

    /// The ring's provenance records as JSONL, oldest first. Empty when
    /// disabled. Byte-stable for identical runs, so same-seed determinism
    /// tests can compare captures as strings.
    pub fn lineage_jsonl(&self) -> String {
        self.inner.as_ref().map_or_else(String::new, |i| i.ring.borrow().jsonl(true))
    }

    /// Empties the ring (its drop count too) and the profile.
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            inner.ring.borrow_mut().clear();
            inner.profile.borrow_mut().clear();
        }
    }

    /// Aligned-text metrics snapshot (empty when disabled).
    pub fn metrics_text(&self) -> String {
        self.inner.as_ref().map_or_else(String::new, |i| i.registry.snapshot_text())
    }

    /// JSON metrics snapshot (`{}` when disabled).
    pub fn metrics_json(&self) -> String {
        self.inner.as_ref().map_or_else(|| String::from("{}"), |i| i.registry.snapshot_json())
    }
}

struct SpanActive {
    inner: Rc<CollectorInner>,
    name: &'static str,
    id: u64,
    start_us: u64,
}

/// RAII guard for an open span; closes it (recording duration) on drop.
pub struct Span {
    active: Option<SpanActive>,
}

impl Span {
    /// The span id, or 0 for an inert guard.
    pub fn id(&self) -> u64 {
        self.active.as_ref().map_or(0, |a| a.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            let ts = a.inner.clock.now_us();
            a.inner.ring.borrow_mut().end_span(a.name, a.id, a.start_us, ts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::stage;
    use crate::trace::{field, RecordKind};

    #[test]
    fn disabled_collector_is_a_no_op() {
        let obs = Collector::disabled();
        assert!(!obs.is_enabled());
        assert!(!obs.capturing(Capture::TRACE));
        // Spans and events vanish; guards are inert.
        let s = obs.span("x", &[field("k", 1u64)]);
        assert_eq!(s.id(), 0);
        drop(s);
        obs.event(Level::Warn, "y", &[]);
        assert!(obs.records().is_empty());
        assert_eq!(obs.trace_jsonl(), "");
        assert_eq!(obs.metrics_json(), "{}");
        // Metric handles work but are invisible.
        let c = obs.counter("c");
        c.inc();
        assert_eq!(c.get(), 1);
        assert_eq!(obs.registry().counter_value("c"), None);
    }

    #[test]
    fn disabled_span_does_not_copy_fields() {
        // A disabled collector must not read fields at all; passing a slice
        // borrowed from a value we immediately mutate would be a compile
        // error if the guard held it. Behaviourally, we check no records
        // appear and the guard is inert even when nested.
        let obs = Collector::disabled();
        {
            let _a = obs.span("outer", &[]);
            let _b = obs.span("inner", &[]);
        }
        assert!(obs.records().is_empty());
    }

    #[test]
    fn enabled_without_tracing_records_metrics_only() {
        let obs = Collector::wall();
        obs.counter("hits").add(2);
        let _s = obs.span("ignored", &[]);
        obs.event(Level::Info, "ignored", &[]);
        obs.prov(1, stage::COMMIT, &[]);
        assert_eq!(obs.registry().counter_value("hits"), Some(2));
        assert!(obs.records().is_empty());
    }

    #[test]
    fn spans_nest_with_parent_ids_through_the_guard_api() {
        let clock = VirtualClock::new();
        let obs = Collector::with_virtual_clock(clock.clone()).with_capture(Capture::TRACE, 64);
        clock.set(100);
        {
            let outer = obs.span("outer", &[]);
            clock.set(150);
            {
                let inner = obs.span("inner", &[field("n", 3u64)]);
                assert_ne!(inner.id(), outer.id());
                obs.event(Level::Info, "tick", &[]);
                clock.set(180);
            }
            clock.set(200);
        }
        let recs = obs.records();
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[0].kind, RecordKind::SpanStart);
        assert_eq!(recs[0].ts_us, 100);
        assert_eq!(recs[1].parent_id, recs[0].id);
        assert_eq!(recs[2].id, recs[1].id); // event inside inner
        assert_eq!(recs[3].dur_us, Some(30)); // inner: 150→180
        assert_eq!(recs[4].dur_us, Some(100)); // outer: 100→200
    }

    #[test]
    fn set_tracing_toggles_capture() {
        let obs = Collector::wall().with_capture(Capture::TRACE, 16);
        obs.event(Level::Info, "a", &[]);
        obs.set_capture(Capture::NONE);
        obs.event(Level::Info, "b", &[]);
        obs.set_capture(obs.capture().with(Capture::TRACE, true));
        obs.event(Level::Info, "c", &[]);
        let names: Vec<&str> = obs.records().iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["a", "c"]);
    }

    #[test]
    fn disabled_or_off_lineage_is_a_no_op() {
        let off = Collector::disabled();
        off.prov(1, stage::COMMIT, &[field("k", 1u64)]);
        assert_eq!(off.prov_batch(&[1, 2], stage::MERGE, &[]), 0);
        assert!(off.records().is_empty());
        assert!(off.explain(1).is_empty());
        assert_eq!(off.lineage_jsonl(), "");

        // Enabled but provenance never turned on: same behaviour.
        let obs = Collector::wall().with_capture(Capture::TRACE, 16);
        assert!(!obs.capturing(Capture::PROV));
        obs.prov(1, stage::COMMIT, &[]);
        assert_eq!(obs.prov_batch(&[1, 2], stage::MERGE, &[]), 0);
        assert!(obs.records().is_empty());
    }

    #[test]
    fn lineage_captures_and_toggles() {
        let clock = VirtualClock::new();
        let obs = Collector::with_virtual_clock(clock.clone()).with_capture(Capture::PROV, 16);
        clock.set(40);
        obs.prov(7, stage::ADMIT, &[field("source", 2u64)]);
        obs.set_capture(Capture::NONE);
        obs.prov(7, stage::INTENT, &[]);
        obs.set_capture(Capture::PROV);
        let b = obs.prov_batch(&[7, 9], stage::MERGE, &[]);
        assert_ne!(b, 0);
        let recs = obs.records();
        let stages: Vec<&str> = recs.iter().map(|r| r.name).collect();
        assert_eq!(stages, vec!["admit", "merge"], "record while off is dropped");
        assert_eq!(recs[0].ts_us, 40);
        // The batch record carries its members as fields and explain()
        // reaches it from a member id.
        assert_eq!(obs.explain(9).len(), 1);
        assert_eq!(obs.explain(7).len(), 2);
        assert_eq!(obs.explain(b).len(), 2, "a batch id reaches its members");
        obs.clear();
        assert!(obs.records().is_empty());
    }

    #[test]
    fn both_streams_share_one_ring_evicting_oldest_first_across_kinds() {
        let clock = VirtualClock::new();
        let obs = Collector::with_virtual_clock(clock.clone())
            .with_capture(Capture::TRACE | Capture::PROV, 4);
        for t in 1..=3u64 {
            clock.set(t);
            obs.event(Level::Info, "e", &[]);
            obs.prov(t, stage::ADMIT, &[]);
        }
        // Six records into four slots: the two oldest (an event and a
        // provenance record) went, and one counter saw both.
        assert_eq!(obs.dropped(), 2);
        let kept: Vec<(RecordKind, u64)> =
            obs.records().iter().map(|r| (r.kind, r.ts_us)).collect();
        let (e, p) = (RecordKind::Event, RecordKind::Prov);
        assert_eq!(kept, vec![(e, 2), (p, 2), (e, 3), (p, 3)]);
        // Each line format renders its own kind from the one ring.
        assert_eq!(obs.trace_jsonl().lines().count(), 2);
        assert_eq!(obs.lineage_jsonl().lines().count(), 2);
        assert!(obs.lineage_jsonl().starts_with("{\"ts_us\":2,\"id\":2,\"stage\":\"admit\"}"));
        obs.clear();
        assert_eq!(obs.dropped(), 0);
    }

    #[test]
    fn profile_gate_toggles_and_records() {
        use crate::profile::{NodeKey, OpPhase, OpSample};
        let key =
            || NodeKey { step: 0, phase: OpPhase::Seed, op: "delta_select", detail: "R".into() };
        let s = OpSample { rows_in: 3, rows_out: 2, ..Default::default() };

        let off = Collector::disabled();
        assert!(!off.capturing(Capture::PROFILE));
        off.profile_op("V", "R", key(), s);
        assert!(off.profile_snapshot().is_empty());
        assert!(off.profile_snapshot().render_text(None).contains("no profile captured"));

        let obs = Collector::wall();
        assert!(!obs.capturing(Capture::PROFILE), "profiling is off by default");
        obs.profile_op("V", "R", key(), s);
        assert!(obs.profile_snapshot().is_empty(), "samples while off are dropped");

        obs.set_capture(Capture::PROFILE);
        obs.profile_invocation("V", "R");
        obs.profile_op("V", "R", key(), s);
        let snap = obs.profile_snapshot();
        assert_eq!(snap.plan("V", "R").unwrap().invocations, 1);
        assert!(snap.render_text(Some("V")).contains("delta_select R"));
        crate::json::parse(&snap.render_json()).expect("valid JSON");

        obs.set_capture(Capture::NONE);
        obs.profile_op("V", "R", key(), s);
        assert_eq!(
            obs.profile_snapshot().plan("V", "R").unwrap().nodes.values().next().unwrap().calls,
            1,
            "the store is kept but records while off are dropped"
        );
        obs.clear();
        assert!(obs.profile_snapshot().is_empty());
    }

    #[test]
    fn with_profile_builder_flips_the_gate() {
        let kinds = Capture::PROFILE | Capture::PROV;
        assert!(Collector::wall().with_capture(kinds, 8).capturing(Capture::PROFILE));
        assert!(!Collector::wall().with_capture(kinds, 8).capturing(Capture::TRACE));
        assert!(!Collector::disabled().with_capture(kinds, 8).capturing(Capture::PROFILE));
        assert_eq!(kinds.with(Capture::PROV, false), Capture::PROFILE);
    }

    #[test]
    fn clones_share_the_pipeline() {
        let obs = Collector::wall().with_capture(Capture::TRACE, 16);
        let other = obs.clone();
        other.counter("n").inc();
        other.event(Level::Info, "e", &[]);
        assert_eq!(obs.registry().counter_value("n"), Some(1));
        assert_eq!(obs.records().len(), 1);
    }
}
