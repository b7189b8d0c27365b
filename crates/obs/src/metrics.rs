//! Metrics: monotonic counters, gauges, and log₂-bucketed histograms.
//!
//! A [`Registry`] maps static names to shared handles. Handles are
//! `Rc<Cell<_>>` (histograms: `Rc<RefCell<_>>`): registering is a one-time
//! map lookup, updating is a plain store — cheap enough to leave on
//! unconditionally, which is why `dyno-sim`'s `Metrics` can be a pure
//! projection of a registry without a measurable cost.
//!
//! Everything is single-threaded by design (the whole reproduction is);
//! clones of a handle share the same cell. The one exception is a
//! *detached* handle, what a disabled collector hands out: it allocates
//! nothing, a counter or gauge keeps its value in place (so a clone copies
//! it), and a histogram drops its samples.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::json;

/// The cell behind a counter or gauge: shared by every clone, or held in
/// place by a detached handle.
#[derive(Debug, Clone)]
enum Slot<T: Copy> {
    Shared(Rc<Cell<T>>),
    Detached(Cell<T>),
}

impl<T: Copy + Default> Default for Slot<T> {
    fn default() -> Self {
        Slot::Shared(Rc::default())
    }
}

impl<T: Copy> Slot<T> {
    fn cell(&self) -> &Cell<T> {
        match self {
            Slot::Shared(c) => c,
            Slot::Detached(c) => c,
        }
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Slot<u64>);

impl Counter {
    /// A counter no registry sees, made without allocating.
    pub(crate) fn detached() -> Self {
        Counter(Slot::Detached(Cell::new(0)))
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        let c = self.0.cell();
        c.set(c.get().wrapping_add(n));
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.cell().get()
    }
}

/// A gauge: a signed value that can move both ways.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Slot<i64>);

impl Gauge {
    /// A gauge no registry sees, made without allocating.
    pub(crate) fn detached() -> Self {
        Gauge(Slot::Detached(Cell::new(0)))
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.cell().set(v);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        let c = self.0.cell();
        c.set(c.get() + d);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.cell().get()
    }
}

/// Number of histogram buckets: one for zero plus one per power of two up
/// to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Maps a value to its bucket: 0 → bucket 0; otherwise bucket `k` holds
/// values in `[2^(k-1), 2^k)`.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i` (see [`bucket_index`]).
pub fn bucket_lo(i: usize) -> u64 {
    match i {
        0 => 0,
        k => 1u64 << (k - 1),
    }
}

/// One observation window's summary of a [`Histogram`], as produced by
/// [`Histogram::snapshot_and_reset_window`]. All values concern only the
/// samples recorded since the previous window snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistWindow {
    /// Samples recorded in the window.
    pub count: u64,
    /// Sum of the window's samples.
    pub sum: u64,
    /// Smallest sample in the window (0 if empty).
    pub min: u64,
    /// Largest sample in the window (0 if empty).
    pub max: u64,
    /// Estimated median of the window's samples.
    pub p50: u64,
    /// Estimated 95th percentile of the window's samples.
    pub p95: u64,
    /// Estimated 99th percentile of the window's samples.
    pub p99: u64,
}

/// Count, sum, extremes and log₂ bucket occupancy of a set of samples.
#[derive(Debug, Clone, Copy)]
struct Bins {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Bins {
    fn default() -> Self {
        Bins { count: 0, sum: 0, min: 0, max: 0, buckets: [0; HISTOGRAM_BUCKETS] }
    }
}

impl Bins {
    fn record(&mut self, v: u64) {
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Rank-based quantile: the quantile's bucket is found by rank, then the
    /// value is linearly interpolated across the bucket's range, clamped to
    /// the observed `min`/`max`. Shared by the cumulative and windowed views
    /// of a histogram so both report identically for identical sample sets.
    fn quantile(&self, q: f64) -> u64 {
        let Bins { count, min, max, .. } = *self;
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cum + n >= rank {
                let bucket_hi = match i {
                    0 => 0,
                    64 => u64::MAX,
                    k => (1u64 << k) - 1,
                };
                let lo = bucket_lo(i).max(min).min(max);
                let hi = bucket_hi.min(max).max(lo);
                let within = rank - cum; // 1 ..= n
                let frac = if n <= 1 { 0.5 } else { (within - 1) as f64 / (n - 1) as f64 };
                return lo + ((hi - lo) as f64 * frac).round() as u64;
            }
            cum += n;
        }
        max
    }
}

#[derive(Debug, Default)]
struct HistData {
    /// Every sample since creation.
    total: Bins,
    /// The samples since the last window snapshot: reset by
    /// `snapshot_and_reset_window`, never consulted by the cumulative
    /// accessors, so lifetime quantiles are unaffected by windowing.
    window: Bins,
}

/// A log₂-bucketed histogram of `u64` samples (typically microseconds). A
/// detached one holds nothing and reads as empty.
#[derive(Debug, Clone)]
pub struct Histogram(Option<Rc<RefCell<HistData>>>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Some(Rc::default()))
    }
}

impl Histogram {
    /// A histogram no registry sees, made without allocating; it drops
    /// every sample.
    pub(crate) fn detached() -> Self {
        Histogram(None)
    }

    /// `f` over the recorded state (an empty one when detached).
    fn read<R>(&self, f: impl FnOnce(&HistData) -> R) -> R {
        match &self.0 {
            Some(h) => f(&h.borrow()),
            None => f(&HistData::default()),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            let mut h = h.borrow_mut();
            h.total.record(v);
            h.window.record(v);
        }
    }

    /// Summarizes the samples recorded since the last call (or since
    /// creation) and resets the window, leaving the cumulative state — and
    /// therefore [`Histogram::quantile`] / [`Histogram::percentiles`] —
    /// untouched. This is what lets `stats` and figure output keep lifetime
    /// percentiles while the time-series sampler reads per-window ones off
    /// the same histogram.
    pub fn snapshot_and_reset_window(&self) -> HistWindow {
        let Some(h) = &self.0 else { return HistWindow::default() };
        let w = std::mem::take(&mut h.borrow_mut().window);
        HistWindow {
            count: w.count,
            sum: w.sum,
            min: w.min,
            max: w.max,
            p50: w.quantile(0.50),
            p95: w.quantile(0.95),
            p99: w.quantile(0.99),
        }
    }

    /// Samples recorded in the current (un-snapshotted) window.
    pub fn window_count(&self) -> u64 {
        self.read(|h| h.window.count)
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.read(|h| h.total.count)
    }

    /// Sum of samples.
    pub fn sum(&self) -> u64 {
        self.read(|h| h.total.sum)
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> u64 {
        self.read(|h| h.total.min)
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.read(|h| h.total.max)
    }

    /// Occupancy of bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.read(|h| h.total.buckets[i])
    }

    /// `(bucket lower bound, count)` for every non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        let buckets = self.read(|h| h.total.buckets);
        (0..HISTOGRAM_BUCKETS)
            .filter(|&i| buckets[i] != 0)
            .map(|i| (bucket_lo(i), buckets[i]))
            .collect()
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) of the recorded samples.
    ///
    /// Exact to the resolution of the log₂ buckets: the quantile's bucket is
    /// found by rank, then the value is linearly interpolated across the
    /// bucket's range (clamped to the observed `min`/`max`, so single-bucket
    /// distributions report exact values). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        self.read(|h| h.total.quantile(q))
    }

    /// The `(p50, p95, p99)` estimates (see [`Histogram::quantile`]).
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (self.quantile(0.50), self.quantile(0.95), self.quantile(0.99))
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<&'static str, Counter>,
    gauges: BTreeMap<&'static str, Gauge>,
    histograms: BTreeMap<&'static str, Histogram>,
}

/// A named collection of metrics. Clones share the same underlying maps.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Rc<RefCell<RegistryInner>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, registering it at 0 on first use.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.inner.borrow_mut().counters.entry(name).or_default().clone()
    }

    /// The gauge named `name`, registering it at 0 on first use.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.inner.borrow_mut().gauges.entry(name).or_default().clone()
    }

    /// The histogram named `name`, registering it empty on first use.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.inner.borrow_mut().histograms.entry(name).or_default().clone()
    }

    /// Current value of a counter, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.inner.borrow().counters.get(name).map(Counter::get)
    }

    /// Current value of a gauge, if registered.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        self.inner.borrow().gauges.get(name).map(Gauge::get)
    }

    /// `(name, value)` for every registered counter, name order.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.borrow().counters.iter().map(|(n, c)| (*n, c.get())).collect()
    }

    /// `(name, value)` for every registered gauge, name order.
    pub fn gauges(&self) -> Vec<(&'static str, i64)> {
        self.inner.borrow().gauges.iter().map(|(n, g)| (*n, g.get())).collect()
    }

    /// `(name, handle)` for every registered histogram, name order. The
    /// handles share state with the registry, so the time-series sampler can
    /// take per-window snapshots without holding the registry borrowed.
    pub fn histograms(&self) -> Vec<(&'static str, Histogram)> {
        self.inner.borrow().histograms.iter().map(|(n, h)| (*n, h.clone())).collect()
    }

    /// An aligned, human-readable snapshot of every registered metric.
    pub fn snapshot_text(&self) -> String {
        let inner = self.inner.borrow();
        let width = inner
            .counters
            .keys()
            .chain(inner.gauges.keys())
            .chain(inner.histograms.keys())
            .map(|n| n.len())
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        if !inner.counters.is_empty() {
            out.push_str("counters\n");
            for (name, c) in &inner.counters {
                let _ = writeln!(out, "  {name:<width$}  {}", c.get());
            }
        }
        if !inner.gauges.is_empty() {
            out.push_str("gauges\n");
            for (name, g) in &inner.gauges {
                let _ = writeln!(out, "  {name:<width$}  {}", g.get());
            }
        }
        if !inner.histograms.is_empty() {
            out.push_str("histograms\n");
            for (name, h) in &inner.histograms {
                let (p50, p95, p99) = h.percentiles();
                let _ = write!(
                    out,
                    "  {name:<width$}  count={} sum={} min={} max={} p50={p50} p95={p95} p99={p99}",
                    h.count(),
                    h.sum(),
                    h.min(),
                    h.max()
                );
                for (lo, n) in h.nonzero_buckets() {
                    let _ = write!(out, " [{lo}+]={n}");
                }
                out.push('\n');
            }
        }
        out
    }

    /// The snapshot as a single JSON object:
    /// `{"counters":{..},"gauges":{..},"histograms":{name:{count,sum,min,max,p50,p95,p99,buckets:[[lo,n],..]}}}`.
    pub fn snapshot_json(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::from("{\"counters\":{");
        for (i, (name, c)) in inner.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(&mut out, name);
            let _ = write!(out, ":{}", c.get());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, g)) in inner.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(&mut out, name);
            let _ = write!(out, ":{}", g.get());
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in inner.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(&mut out, name);
            let (p50, p95, p99) = h.percentiles();
            let _ = write!(
                out,
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                 \"p50\":{p50},\"p95\":{p95},\"p99\":{p99},\"buckets\":[",
                h.count(),
                h.sum(),
                h.min(),
                h.max()
            );
            for (j, (lo, n)) in h.nonzero_buckets().into_iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{lo},{n}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_share_state_across_clones() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(r.counter_value("x"), Some(3));

        let g = r.gauge("depth");
        g.set(5);
        r.gauge("depth").add(-2);
        assert_eq!(r.gauge_value("depth"), Some(3));
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // Bucket 0 is exactly zero; bucket k covers [2^(k-1), 2^k).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Lower bounds invert the mapping at each boundary.
        for k in 1..HISTOGRAM_BUCKETS {
            let lo = bucket_lo(k);
            assert_eq!(bucket_index(lo), k);
            assert_eq!(bucket_index(lo - 1), k - 1, "lo={lo}");
        }
    }

    #[test]
    fn histogram_accumulates() {
        let r = Registry::new();
        let h = r.histogram("us");
        for v in [0, 1, 1, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1005);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.bucket(0), 1); // the zero
        assert_eq!(h.bucket(1), 2); // the ones
        assert_eq!(h.bucket(2), 1); // 3 ∈ [2,4)
        assert_eq!(h.bucket(10), 1); // 1000 ∈ [512,1024)
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 2), (2, 1), (512, 1)]);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let r = Registry::new();
        let h = r.histogram("lat");
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        // 100 samples 1..=100: log₂ buckets blur values, but the estimates
        // must stay within the containing bucket and be monotone in q.
        for v in 1..=100u64 {
            h.record(v);
        }
        let (p50, p95, p99) = h.percentiles();
        assert!((32..=63).contains(&p50), "p50={p50} must land in the [32,64) bucket");
        assert!((64..=100).contains(&p95), "p95={p95} clamped by max");
        assert!((64..=100).contains(&p99), "p99={p99} clamped by max");
        assert!(p50 <= p95 && p95 <= p99, "monotone in q");
        assert_eq!(h.quantile(0.0), 1, "q=0 clamps to min");
        assert_eq!(h.quantile(1.0), 100, "q=1 clamps to max");
    }

    #[test]
    fn window_reset_leaves_cumulative_quantiles_untouched() {
        // Regression (ISSUE 6 satellite): the same histogram must serve both
        // the lifetime view (stats / figure output) and per-window snapshots
        // (time series) without either disturbing the other.
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let lifetime_before = h.percentiles();
        let w1 = h.snapshot_and_reset_window();
        assert_eq!(w1.count, 100);
        assert_eq!(w1.sum, 5050);
        assert_eq!((w1.min, w1.max), (1, 100));
        assert_eq!((w1.p50, w1.p95, w1.p99), lifetime_before, "same samples, same estimates");
        assert_eq!(h.percentiles(), lifetime_before, "cumulative view survives the reset");
        assert_eq!(h.count(), 100, "cumulative count survives");
        assert_eq!(h.window_count(), 0, "window is reset");

        // A second window sees only its own (much larger) samples; the
        // cumulative view blends both epochs.
        for v in 10_000..10_050u64 {
            h.record(v);
        }
        let w2 = h.snapshot_and_reset_window();
        assert_eq!(w2.count, 50);
        assert!(w2.min >= 10_000, "window min is window-scoped, got {}", w2.min);
        assert!(w2.p50 >= 10_000, "window quantiles see only window samples");
        assert_eq!(h.count(), 150);
        assert_eq!(h.min(), 1, "cumulative min spans both windows");
        assert!(h.quantile(0.5) < 10_000, "cumulative median still dominated by epoch one");

        // An empty window snapshots as all zeros.
        let w3 = h.snapshot_and_reset_window();
        assert_eq!(w3, HistWindow::default());
    }

    #[test]
    fn quantile_of_single_sample_is_exact() {
        let h = Histogram::default();
        h.record(777);
        assert_eq!(h.quantile(0.5), 777);
        assert_eq!(h.quantile(0.99), 777);
    }

    #[test]
    fn snapshots_render_all_metric_kinds() {
        let r = Registry::new();
        r.counter("a.count").add(7);
        r.gauge("b.depth").set(-2);
        r.histogram("c.us").record(5);
        let text = r.snapshot_text();
        assert!(text.contains("a.count"));
        assert!(text.contains('7'));
        assert!(text.contains("-2"));
        assert!(text.contains("count=1"));
        assert!(text.contains("p50=5"), "quantiles in the text snapshot: {text}");
        let json = r.snapshot_json();
        assert!(json.contains("\"a.count\":7"));
        assert!(json.contains("\"b.depth\":-2"));
        assert!(json.contains("\"p50\":5"), "quantiles in the JSON snapshot");
        assert!(json.contains("\"buckets\":[[4,1]]"));
    }
}
