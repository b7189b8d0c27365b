//! Time-series telemetry: windowed sampling of a metrics [`Registry`] into
//! bounded ring-buffered series.
//!
//! The registry keeps *cumulative* state — counters only grow, histograms
//! only accumulate — which answers "how much in total?" but not "how stale
//! were we at minute 3?". A [`Sampler`] closes that gap: on a fixed
//! virtual-clock cadence it snapshots every registered metric into one point
//! per window —
//!
//! - **counters** → the per-window *delta* (divide by the window length for
//!   a rate),
//! - **gauges** → the value at the window boundary,
//! - **histograms** → a per-window [`HistWindow`] (count/sum/min/max and
//!   p50/p95/p99 of only that window's samples), taken via
//!   [`Histogram::snapshot_and_reset_window`] so the cumulative quantiles
//!   that `stats` and the figures report are untouched.
//!
//! Each series lives in a bounded ring: when `capacity` windows are held the
//! oldest point is dropped and counted, never reallocated. Sampling is
//! *lazy* — the driver calls [`Sampler::maybe_sample`] whenever its clock
//! moved, and every window boundary the clock passed since the last call is
//! emitted. When the clock jumps several windows at once (a long maintenance
//! batch), the accumulated counter deltas and histogram samples are
//! attributed to the **first** elapsed window and the remaining skipped
//! windows record zeros: the sampler reports what it observed rather than
//! fabricating a distribution over the gap.
//!
//! One registry should be watched by at most one sampler: histogram window
//! snapshots are consuming, so two samplers would steal windows from each
//! other.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use crate::json;
use crate::metrics::{HistWindow, Registry};

/// What kind of metric a series was sampled from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Per-window deltas of a monotonic counter.
    Counter,
    /// Gauge value at each window boundary.
    Gauge,
    /// Per-window histogram summaries.
    Histogram,
}

impl SeriesKind {
    fn as_str(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
            SeriesKind::Histogram => "histogram",
        }
    }
}

/// One window's point of a series.
#[derive(Debug, Clone, Copy)]
enum Point {
    Counter(u64),
    Gauge(i64),
    Histogram(HistWindow),
}

impl Point {
    fn kind(&self) -> SeriesKind {
        match self {
            Point::Counter(_) => SeriesKind::Counter,
            Point::Gauge(_) => SeriesKind::Gauge,
            Point::Histogram(_) => SeriesKind::Histogram,
        }
    }
}

/// A bounded ring of `(window_end_us, point)`, all of one kind.
#[derive(Debug)]
struct Series {
    kind: SeriesKind,
    points: VecDeque<(u64, Point)>,
    dropped: u64,
}

/// A fixed window cadence on a clock: where the next window ends. The one
/// window clock of every sampling loop ([`Sampler`] and the staleness
/// tracker each keep their own, since their windows are set
/// independently).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cadence {
    window_us: u64,
    next_end: u64,
}

impl Cadence {
    /// One window per `window_us`, the first ending at `start_us +
    /// window_us`.
    pub(crate) fn new(window_us: u64, start_us: u64) -> Self {
        assert!(window_us > 0, "window must be positive");
        Cadence { window_us, next_end: start_us + window_us }
    }

    pub(crate) fn window_us(&self) -> u64 {
        self.window_us
    }

    /// The next window boundary `now_us` has passed, stepping the cadence
    /// past it; `None` once `now_us` is inside the current window.
    pub(crate) fn next_due(&mut self, now_us: u64) -> Option<u64> {
        let end = self.next_end;
        (now_us >= end).then(|| {
            self.next_end += self.window_us;
            end
        })
    }

    /// Restarts the cadence at `now_us`, where a forced sample just closed
    /// a partial window.
    pub(crate) fn restart(&mut self, now_us: u64) {
        self.next_end = now_us + self.window_us;
    }
}

/// Samples a [`Registry`] into bounded per-metric time series on a fixed
/// window cadence (see the module docs for semantics).
#[derive(Debug)]
pub struct Sampler {
    registry: Registry,
    cadence: Cadence,
    capacity: usize,
    windows: u64,
    last_counters: BTreeMap<&'static str, u64>,
    series: BTreeMap<&'static str, Series>,
}

impl Sampler {
    /// A sampler over `registry` emitting one point per `window_us` of
    /// clock, holding at most `capacity` points per series. The first window
    /// ends at `start_us + window_us`. Counters registered at creation time
    /// are baselined at their current values, so the first window reports
    /// only activity after the sampler existed.
    pub fn new(registry: Registry, window_us: u64, capacity: usize, start_us: u64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let last_counters = registry.counters().into_iter().collect();
        Sampler {
            registry,
            cadence: Cadence::new(window_us, start_us),
            capacity,
            windows: 0,
            last_counters,
            series: BTreeMap::new(),
        }
    }

    /// The window length, in clock microseconds.
    pub fn window_us(&self) -> u64 {
        self.cadence.window_us()
    }

    /// Windows emitted so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Number of distinct series sampled so far.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Emits a point for every window boundary `now_us` has passed since
    /// the last call. Returns the number of windows emitted (0 when the
    /// clock has not yet crossed the next boundary).
    pub fn maybe_sample(&mut self, now_us: u64) -> u64 {
        let mut emitted = 0;
        while let Some(end) = self.cadence.next_due(now_us) {
            self.sample_window(end);
            emitted += 1;
        }
        emitted
    }

    /// Closes the current partial window at `now_us` immediately and
    /// restarts the cadence from there. For interactive use (the CLI's
    /// `series sample`), where waiting for a wall-clock boundary would make
    /// the command feel broken.
    pub fn sample_now(&mut self, now_us: u64) {
        self.sample_window(now_us);
        self.cadence.restart(now_us);
    }

    fn sample_window(&mut self, end_us: u64) {
        self.windows += 1;
        let (capacity, series) = (self.capacity, &mut self.series);
        let mut push = |name, point: Point| {
            let kind = point.kind();
            let s =
                series.entry(name).or_insert(Series { kind, points: VecDeque::new(), dropped: 0 });
            if s.kind != kind {
                return; // the name was first sampled as another kind
            }
            if s.points.len() == capacity {
                s.points.pop_front();
                s.dropped += 1;
            }
            s.points.push_back((end_us, point));
        };
        for (name, v) in self.registry.counters() {
            let last = self.last_counters.insert(name, v).unwrap_or(0);
            push(name, Point::Counter(v.wrapping_sub(last)));
        }
        for (name, v) in self.registry.gauges() {
            push(name, Point::Gauge(v));
        }
        for (name, h) in self.registry.histograms() {
            push(name, Point::Histogram(h.snapshot_and_reset_window()));
        }
    }

    fn points(&self, name: &str) -> impl Iterator<Item = &(u64, Point)> {
        self.series.get(name).into_iter().flat_map(|s| &s.points)
    }

    /// The counter series `name` as `(window_end_us, delta)` points (empty
    /// when absent or of another kind).
    pub fn counter_points(&self, name: &str) -> Vec<(u64, u64)> {
        let counter = |&(t, p): &(u64, Point)| match p {
            Point::Counter(v) => Some((t, v)),
            _ => None,
        };
        self.points(name).filter_map(counter).collect()
    }

    /// The gauge series `name` as `(window_end_us, value)` points.
    pub fn gauge_points(&self, name: &str) -> Vec<(u64, i64)> {
        let gauge = |&(t, p): &(u64, Point)| match p {
            Point::Gauge(v) => Some((t, v)),
            _ => None,
        };
        self.points(name).filter_map(gauge).collect()
    }

    /// The histogram series `name` as `(window_end_us, window)` points.
    pub fn histogram_points(&self, name: &str) -> Vec<(u64, HistWindow)> {
        let histogram = |&(t, p): &(u64, Point)| match p {
            Point::Histogram(w) => Some((t, w)),
            _ => None,
        };
        self.points(name).filter_map(histogram).collect()
    }

    /// Points evicted from series `name`'s ring so far.
    pub fn dropped(&self, name: &str) -> u64 {
        self.series.get(name).map_or(0, |s| s.dropped)
    }

    /// The capture as one JSON object:
    /// `{"window_us":W,"windows":N,"series":{name:{"kind":..,"dropped":..,"points":[..]}}}`
    /// where counter/gauge points are `[t,v]` pairs and histogram points are
    /// `[t,count,p50,p95,p99,max]` rows. Byte-stable for identical runs.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"window_us\":{},\"windows\":{},", self.window_us(), self.windows);
        out.push_str("\"series\":{");
        for (i, (name, s)) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(&mut out, name);
            let _ = write!(out, ":{{\"kind\":\"{}\",\"dropped\":{},", s.kind.as_str(), s.dropped);
            out.push_str("\"points\":[");
            for (j, (t, p)) in s.points.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = match p {
                    Point::Counter(v) => write!(out, "[{t},{v}]"),
                    Point::Gauge(v) => write!(out, "[{t},{v}]"),
                    Point::Histogram(w) => {
                        write!(out, "[{t},{},{},{},{},{}]", w.count, w.p50, w.p95, w.p99, w.max)
                    }
                };
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// An aligned text rendering of the latest state of every series: last
    /// point, per-window rate for counters, and point counts.
    pub fn render_text(&self) -> String {
        let width = self.series.keys().map(|n| n.len()).max().unwrap_or(6).max(6);
        let mut out = format!("{:<width$}  {:<9}  {:>7}  last\n", "series", "kind", "points");
        for (name, s) in &self.series {
            let last = match s.points.back() {
                None => "-".to_string(),
                Some((t, Point::Counter(v))) => format!("Δ{v}/win @{}ms", t / 1000),
                Some((t, Point::Gauge(v))) => format!("{v} @{}ms", t / 1000),
                Some((t, Point::Histogram(w))) => {
                    format!("n={} p50={} p99={} @{}ms", w.count, w.p50, w.p99, t / 1000)
                }
            };
            let (kind, len) = (s.kind.as_str(), s.points.len());
            let _ = writeln!(out, "{name:<width$}  {kind:<9}  {len:>7}  {last}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_become_deltas_and_gauges_samples() {
        let r = Registry::new();
        let c = r.counter("hits");
        let g = r.gauge("depth");
        c.add(5);
        let mut s = Sampler::new(r.clone(), 1_000, 8, 0);
        // Pre-existing counter value is the baseline, not the first delta.
        c.add(3);
        g.set(7);
        assert_eq!(s.maybe_sample(999), 0, "window not yet closed");
        assert_eq!(s.maybe_sample(1_000), 1);
        c.add(10);
        g.set(-2);
        assert_eq!(s.maybe_sample(2_500), 1);
        assert_eq!(s.counter_points("hits"), vec![(1_000, 3), (2_000, 10)]);
        assert_eq!(s.gauge_points("depth"), vec![(1_000, 7), (2_000, -2)]);
        assert_eq!(s.windows(), 2);
        assert_eq!(s.series_count(), 2);
    }

    #[test]
    fn skipped_windows_attribute_activity_to_the_first() {
        let r = Registry::new();
        let c = r.counter("n");
        let mut s = Sampler::new(r, 100, 8, 0);
        c.add(30);
        // The clock jumps three windows at once: the whole delta lands in
        // the first, the rest are zeros — never fabricated.
        assert_eq!(s.maybe_sample(300), 3);
        assert_eq!(s.counter_points("n"), vec![(100, 30), (200, 0), (300, 0)]);
    }

    #[test]
    fn histogram_series_use_window_snapshots() {
        let r = Registry::new();
        let h = r.histogram("lat");
        let mut s = Sampler::new(r, 100, 8, 0);
        h.record(10);
        h.record(20);
        s.maybe_sample(100);
        h.record(1_000);
        s.maybe_sample(200);
        let pts = s.histogram_points("lat");
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].1.count, 2);
        assert_eq!(pts[1].1.count, 1);
        assert_eq!(pts[1].1.p50, 1_000, "second window sees only its own sample");
        assert_eq!(h.count(), 3, "cumulative histogram unaffected");
    }

    #[test]
    fn rings_are_bounded_and_count_drops() {
        let r = Registry::new();
        r.counter("n");
        let mut s = Sampler::new(r, 10, 3, 0);
        s.maybe_sample(60);
        assert_eq!(s.counter_points("n").len(), 3);
        assert_eq!(s.dropped("n"), 3);
        assert_eq!(s.counter_points("n")[0].0, 40, "oldest points evicted first");
    }

    #[test]
    fn json_and_text_render_all_kinds() {
        let r = Registry::new();
        r.counter("c").add(1);
        r.gauge("g").set(4);
        r.histogram("h").record(9);
        let mut s = Sampler::new(r.clone(), 50, 4, 0);
        r.counter("c").add(2);
        s.maybe_sample(50);
        let j = s.to_json();
        assert!(j.contains("\"window_us\":50"));
        assert!(j.contains("\"c\":{\"kind\":\"counter\",\"dropped\":0,\"points\":[[50,2]]"));
        assert!(j.contains("\"g\":{\"kind\":\"gauge\""));
        assert!(j.contains("\"h\":{\"kind\":\"histogram\""));
        crate::json::parse(&j).expect("sampler JSON parses");
        let t = s.render_text();
        assert!(t.contains("series"));
        assert!(t.contains("histogram"));
    }

    #[test]
    fn sample_now_closes_a_partial_window() {
        let r = Registry::new();
        let c = r.counter("n");
        let mut s = Sampler::new(r, 1_000_000, 4, 0);
        c.add(2);
        s.sample_now(1_234);
        assert_eq!(s.counter_points("n"), vec![(1_234, 2)]);
        // Cadence restarts from the forced sample.
        assert_eq!(s.maybe_sample(1_001_233), 0);
        assert_eq!(s.maybe_sample(1_001_234), 1);
    }
}
