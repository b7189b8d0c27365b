//! Workload generation for the Section 6 experiments.
//!
//! The generator tracks the evolving source schemas (renames, dropped
//! attributes) so that every scheduled commit is valid at its commit time —
//! exactly like autonomous sources, which always commit against their own
//! current schema.

use std::collections::BTreeMap;

use crate::rng::Rng;
use dyno_relational::{DataUpdate, Delta, Schema, SchemaChange, SourceUpdate, Tuple, Value};
use dyno_source::SourceId;

use crate::port::ScheduledCommit;
use crate::testbed::TestbedConfig;

/// What happens at one point of a workload timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A random single-tuple insert against a random relation.
    DataUpdate,
    /// A delete of a tuple previously inserted by this generator (skipped —
    /// degraded to an insert — when nothing has been inserted yet).
    DataDelete,
    /// A rename of a random relation (view-invalidating).
    RenameRelation,
    /// A drop of a random still-present non-key attribute
    /// (view-invalidating; pruned by VS since no replacement exists).
    DropAttribute,
    /// An added attribute with a default (never view-invalidating: exercises
    /// the flag-raised-but-no-reorder path).
    AddAttribute,
}

/// A deterministic Zipfian sampler over ranks `0..n` with exponent `s`:
/// rank `k` is drawn with probability proportional to `1/(k+1)^s`. Built as
/// a precomputed CDF + binary search, so sampling is `O(log n)` and exactly
/// reproducible from the PRNG stream.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n ≥ 1` ranks with skew `s ≥ 0` (`s = 0` is uniform).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "need at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank in `0..n` using `rng`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = unit_f64(rng);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A uniform draw in `[0, 1)` from the workspace PRNG (53 mantissa bits).
fn unit_f64(rng: &mut Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Parameters of the open-loop generator ([`WorkloadGen::open_loop`]):
/// arrivals follow their own clock regardless of how far the warehouse has
/// fallen behind — the load shape a bounded UMQ and the staleness SLOs are
/// measured under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopConfig {
    /// Length of the generated arrival timeline, simulated µs.
    pub duration_us: u64,
    /// Mean data-update arrival rate, per simulated second.
    pub du_per_sec: f64,
    /// Zipf exponent for DU key choice (0 = uniform; ~1 = classic hot-key
    /// skew). Rank 0 maps to key 0, the hottest.
    pub zipf_skew: f64,
    /// Diurnal modulation amplitude in `[0, 1]`:
    /// `rate(t) = du_per_sec · (1 + a·sin(2πt/period))`.
    pub diurnal_amplitude: f64,
    /// Diurnal period, simulated µs.
    pub diurnal_period_us: u64,
    /// Number of schema-change storms, spread evenly over the run.
    pub sc_storms: usize,
    /// Renames per storm, all against the hot relation (`R0`'s lineage).
    pub sc_storm_len: usize,
    /// Gap between a storm's renames, simulated µs.
    pub sc_storm_gap_us: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            duration_us: 120_000_000,
            du_per_sec: 4.0,
            zipf_skew: 1.1,
            diurnal_amplitude: 0.6,
            diurnal_period_us: 30_000_000,
            sc_storms: 0,
            sc_storm_len: 3,
            sc_storm_gap_us: 2_000_000,
        }
    }
}

/// Tracks evolving schemas and materializes timelines into commit schedules.
#[derive(Debug, Clone)]
pub struct WorkloadGen {
    cfg: TestbedConfig,
    rng: Rng,
    /// Current name of relation `i`.
    names: Vec<String>,
    /// Non-key attributes still present on relation `i`.
    attrs: Vec<Vec<String>>,
    rename_serial: u64,
    /// Tuples this generator inserted and has not yet deleted, per relation
    /// index, stored with the schema arity they were committed under.
    live: Vec<Vec<Tuple>>,
    /// The open-loop generator's keyed rows, per relation index: the last
    /// tuple committed for each hot key, replaced (delete + insert) on the
    /// next update of the same key so multiplicities stay bounded.
    keyed: Vec<BTreeMap<i64, Tuple>>,
}

impl WorkloadGen {
    /// A generator over the given testbed, seeded independently of the
    /// testbed's data seed.
    pub fn new(cfg: TestbedConfig, seed: u64) -> Self {
        let n = cfg.relation_count();
        let names = cfg.relation_names();
        let attrs =
            (0..n).map(|_| (1..=cfg.extra_attrs).map(|a| format!("A{a}")).collect()).collect();
        let live = vec![Vec::new(); n];
        let keyed = vec![BTreeMap::new(); n];
        WorkloadGen { cfg, rng: Rng::new(seed), names, attrs, rename_serial: 0, live, keyed }
    }

    /// The source hosting relation index `i`.
    fn source_of(&self, i: usize) -> SourceId {
        SourceId(i as u32 / self.cfg.relations_per_source)
    }

    /// A single-warehouse commit of `update` against relation `i`'s source.
    fn commit(&self, at_us: u64, i: usize, update: SourceUpdate) -> ScheduledCommit {
        ScheduledCommit { at_us, source: self.source_of(i), update, peer: 0 }
    }

    /// Current schema of relation `i` (key + surviving attributes).
    fn current_schema(&self, i: usize) -> Schema {
        let names = std::iter::once("K").chain(self.attrs[i].iter().map(String::as_str));
        let attrs =
            names.map(|a| dyno_relational::Attribute::new(a, dyno_relational::AttrType::Int));
        Schema::new(self.names[i].clone(), attrs.collect()).expect("tracked attributes are unique")
    }

    /// A fresh `arity`-wide row for `key`, every other attribute random.
    fn row(&mut self, arity: usize, key: i64) -> Tuple {
        let rest = (1..arity).map(|_| self.rng.gen_range(0..1_000_000i64));
        Tuple::new(std::iter::once(key).chain(rest).map(Value::from).collect())
    }

    /// Materializes one event at `at_us`.
    pub fn event(&mut self, at_us: u64, kind: EventKind) -> ScheduledCommit {
        match kind {
            EventKind::DataUpdate => self.data_update(at_us),
            EventKind::DataDelete => self.data_delete(at_us),
            EventKind::RenameRelation => self.rename_relation(at_us),
            EventKind::DropAttribute => self.drop_attribute(at_us),
            EventKind::AddAttribute => self.add_attribute(at_us),
        }
    }

    /// Materializes a whole timeline (must be sorted by time; the generator
    /// tracks schema evolution in that order).
    pub fn realize(&mut self, timeline: &[(u64, EventKind)]) -> Vec<ScheduledCommit> {
        debug_assert!(timeline.windows(2).all(|w| w[0].0 <= w[1].0), "timeline must be sorted");
        timeline.iter().map(|&(t, k)| self.event(t, k)).collect()
    }

    fn data_update(&mut self, at_us: u64) -> ScheduledCommit {
        let i = self.rng.gen_range(0..self.cfg.relation_count());
        let schema = self.current_schema(i);
        let key = self.rng.gen_range(0..self.cfg.tuples_per_relation as i64);
        let tuple = self.row(schema.arity(), key);
        self.live[i].push(tuple.clone());
        let delta =
            Delta::inserts(schema, [tuple]).expect("generated tuple matches tracked schema");
        self.commit(at_us, i, SourceUpdate::Data(DataUpdate::new(delta)))
    }

    fn data_delete(&mut self, at_us: u64) -> ScheduledCommit {
        // Delete a tuple we inserted earlier, provided its relation's schema
        // has not changed since (otherwise the stored tuple no longer
        // matches); fall back to an insert when no such tuple exists.
        let candidates: Vec<usize> = (0..self.cfg.relation_count())
            .filter(|&i| {
                self.live[i].last().is_some_and(|t| t.arity() == self.current_schema(i).arity())
            })
            .collect();
        let Some(&i) = candidates.first() else {
            return self.data_update(at_us);
        };
        let tuple = self.live[i].pop().expect("candidate has a live tuple");
        let delta = Delta::deletes(self.current_schema(i), [tuple])
            .expect("tuple arity checked against current schema");
        self.commit(at_us, i, SourceUpdate::Data(DataUpdate::new(delta)))
    }

    fn add_attribute(&mut self, at_us: u64) -> ScheduledCommit {
        let i = self.rng.gen_range(0..self.cfg.relation_count());
        self.rename_serial += 1;
        let attr = format!("X{}", self.rename_serial);
        self.attrs[i].push(attr.clone());
        // Stored live tuples for this relation no longer match the widened
        // schema; forget them rather than fabricate defaults.
        self.live[i].clear();
        self.keyed[i].clear();
        let attr = dyno_relational::Attribute::new(attr, dyno_relational::AttrType::Int);
        let relation = self.names[i].clone();
        let change = SchemaChange::AddAttribute { relation, attr, default: Value::from(0) };
        self.commit(at_us, i, SourceUpdate::Schema(change))
    }

    fn rename_relation(&mut self, at_us: u64) -> ScheduledCommit {
        let i = self.rng.gen_range(0..self.cfg.relation_count());
        self.rename_of(at_us, i)
    }

    fn drop_attribute(&mut self, at_us: u64) -> ScheduledCommit {
        // Pick a relation that still has a non-key attribute to drop.
        let candidates: Vec<usize> =
            (0..self.cfg.relation_count()).filter(|&i| !self.attrs[i].is_empty()).collect();
        let i = candidates[self.rng.gen_range(0..candidates.len())];
        let pos = self.rng.gen_range(0..self.attrs[i].len());
        let attr = self.attrs[i].remove(pos);
        self.live[i].clear();
        self.keyed[i].clear();
        let relation = self.names[i].clone();
        self.commit(at_us, i, SourceUpdate::Schema(SchemaChange::DropAttribute { relation, attr }))
    }

    /// The Figure-8 workload: `n` data updates, all buffered at time zero.
    pub fn du_flood(&mut self, n: usize) -> Vec<ScheduledCommit> {
        (0..n).map(|_| self.data_update(0)).collect()
    }

    /// The full mixed workload of Figures 10–12: a DU stream plus an SC
    /// train, generated in **chronological order** so every update targets
    /// the schema its source will actually have at commit time (a DU
    /// generated against a name a prior rename already retired could never
    /// be committed by a real source).
    pub fn mixed(
        &mut self,
        du_count: usize,
        du_gap_us: u64,
        sc_count: usize,
        sc_start_us: u64,
        sc_interval_us: u64,
    ) -> Vec<ScheduledCommit> {
        let mut timeline: Vec<(u64, EventKind)> =
            (0..du_count).map(|k| (k as u64 * du_gap_us, EventKind::DataUpdate)).collect();
        timeline.extend(sc_timeline(sc_count, sc_start_us, sc_interval_us));
        timeline.sort_by_key(|e| e.0);
        self.realize(&timeline)
    }

    /// A keyed **upsert** against a uniformly chosen relation: the new
    /// tuple for `key` (the Zipf rank picked by the open-loop generator) is
    /// inserted and the previous generator-committed tuple for the same key
    /// is deleted in the same delta. Hot keys therefore model a
    /// frequently-rewritten row, and join multiplicities stay bounded — a
    /// pure-insert hot key would multiply the testbed's n-way join output
    /// combinatorially.
    fn data_update_keyed(&mut self, at_us: u64, key: i64) -> ScheduledCommit {
        let i = self.rng.gen_range(0..self.cfg.relation_count());
        let schema = self.current_schema(i);
        let tuple = self.row(schema.arity(), key);
        let mut rows = vec![(tuple.clone(), 1i64)];
        if let Some(prev) = self.keyed[i].insert(key, tuple) {
            // A schema change since the previous write invalidates the
            // stored tuple; only delete it when it still matches.
            if prev.arity() == schema.arity() {
                rows.push((prev, -1));
            }
        }
        let delta = Delta::from_rows(schema, rows).expect("generated tuples match tracked schema");
        self.commit(at_us, i, SourceUpdate::Data(DataUpdate::new(delta)))
    }

    /// A rename of a **specific** relation index (the open-loop generator's
    /// hot-key SC storms always hit the hot relation's lineage).
    fn rename_of(&mut self, at_us: u64, i: usize) -> ScheduledCommit {
        self.rename_serial += 1;
        let from = self.names[i].clone();
        let to = format!("R{i}_v{}", self.rename_serial);
        self.names[i] = to.clone();
        self.commit(at_us, i, SourceUpdate::Schema(SchemaChange::RenameRelation { from, to }))
    }

    /// The open-loop monitor workload (DESIGN.md §14): Poisson DU arrivals
    /// whose rate follows a diurnal sine, keys drawn Zipfian (rank 0 = the
    /// hot key), plus `sc_storms` evenly spaced rename trains against the
    /// hot relation (index 0). Arrivals are generated and materialized in
    /// chronological order, so every commit targets the schema its source
    /// actually has at commit time. Deterministic for a given seed.
    pub fn open_loop(&mut self, olc: &OpenLoopConfig) -> Vec<ScheduledCommit> {
        assert!(olc.du_per_sec > 0.0, "open loop needs a positive arrival rate");
        assert!(
            (0.0..=1.0).contains(&olc.diurnal_amplitude),
            "diurnal amplitude must be in [0, 1]"
        );
        let zipf = Zipf::new(self.cfg.tuples_per_relation.max(1), olc.zipf_skew);
        // (at_us, Some(key) = DU | None = hot-relation rename)
        let mut events: Vec<(u64, Option<i64>)> = Vec::new();
        let base_per_us = olc.du_per_sec / 1_000_000.0;
        let mut t = 0.0f64;
        loop {
            // Thinning-free approximation: step with the rate at the current
            // instant. The trough rate is floored at 5% of base so a full
            // amplitude cannot stall the stream forever.
            let phase = if olc.diurnal_period_us == 0 {
                0.0
            } else {
                2.0 * std::f64::consts::PI * t / olc.diurnal_period_us as f64
            };
            let rate =
                (base_per_us * (1.0 + olc.diurnal_amplitude * phase.sin())).max(base_per_us * 0.05);
            let u = unit_f64(&mut self.rng);
            t += -(1.0 - u).ln() / rate;
            if t >= olc.duration_us as f64 {
                break;
            }
            events.push((t as u64, Some(zipf.sample(&mut self.rng) as i64)));
        }
        for s in 0..olc.sc_storms {
            let center = olc.duration_us * (s as u64 + 1) / (olc.sc_storms as u64 + 1);
            for j in 0..olc.sc_storm_len {
                events.push((center + j as u64 * olc.sc_storm_gap_us, None));
            }
        }
        // Stable sort: at equal instants DUs (generated first) precede the
        // storm's renames, matching a source that commits data before it
        // evolves its schema.
        events.sort_by_key(|e| e.0);
        events
            .into_iter()
            .map(|(at, ev)| match ev {
                Some(key) => self.data_update_keyed(at, key),
                None => self.rename_of(at, 0),
            })
            .collect()
    }

    /// The Figures 10–12 schema-change train: one drop-attribute followed by
    /// `n - 1` rename-relation changes, spaced `interval_us` apart starting
    /// at `start_us` (paper Section 6.4).
    pub fn sc_train(&mut self, n: usize, start_us: u64, interval_us: u64) -> Vec<ScheduledCommit> {
        self.realize(&sc_timeline(n, start_us, interval_us).collect::<Vec<_>>())
    }
}

/// The timeline of [`WorkloadGen::sc_train`].
fn sc_timeline(
    n: usize,
    start_us: u64,
    interval_us: u64,
) -> impl Iterator<Item = (u64, EventKind)> {
    let kind = |k| if k == 0 { EventKind::DropAttribute } else { EventKind::RenameRelation };
    (0..n).map(move |k| (start_us + k as u64 * interval_us, kind(k)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::build_space;

    fn cfg() -> TestbedConfig {
        TestbedConfig { tuples_per_relation: 100, ..Default::default() }
    }

    /// Every generated schedule must apply cleanly in time order — the
    /// generator's schema tracking matches the sources' evolution.
    #[test]
    fn schedules_apply_cleanly() {
        let cfg = cfg();
        let mut space = build_space(&cfg);
        let mut gen = WorkloadGen::new(cfg, 7);
        let mut timeline = Vec::new();
        for k in 0..30 {
            timeline.push((k * 10, EventKind::DataUpdate));
        }
        timeline.push((95, EventKind::DropAttribute));
        timeline.push((155, EventKind::RenameRelation));
        timeline.push((255, EventKind::RenameRelation));
        timeline.sort_by_key(|e| e.0);
        let schedule = gen.realize(&timeline);
        for c in schedule {
            space.commit(c.source, c.update).expect("workload must be self-consistent");
        }
    }

    #[test]
    fn du_flood_is_all_at_zero() {
        let mut gen = WorkloadGen::new(cfg(), 1);
        let w = gen.du_flood(10);
        assert_eq!(w.len(), 10);
        assert!(w.iter().all(|c| c.at_us == 0));
        assert!(w.iter().all(|c| !c.update.is_schema_change()));
    }

    #[test]
    fn sc_train_shape() {
        let mut gen = WorkloadGen::new(cfg(), 1);
        let w = gen.sc_train(5, 1_000, 25_000_000);
        assert_eq!(w.len(), 5);
        assert!(matches!(w[0].update, SourceUpdate::Schema(SchemaChange::DropAttribute { .. })));
        for c in &w[1..] {
            assert!(matches!(c.update, SourceUpdate::Schema(SchemaChange::RenameRelation { .. })));
        }
        assert_eq!(w[1].at_us - w[0].at_us, 25_000_000);
    }

    #[test]
    fn renames_chain_consistently() {
        let cfg = cfg();
        let mut space = build_space(&cfg);
        let mut gen = WorkloadGen::new(cfg, 3);
        // Many renames: later renames of the same relation must start from
        // the previous new name.
        let timeline: Vec<(u64, EventKind)> =
            (0..40).map(|k| (k, EventKind::RenameRelation)).collect();
        for c in gen.realize(&timeline) {
            space.commit(c.source, c.update).expect("rename chains must be consistent");
        }
    }

    /// The empirical log-frequency / log-rank slope of the Zipf sampler must
    /// sit near `-s` over the head ranks (the tail is too sparse to fit).
    #[test]
    fn zipf_frequency_rank_slope_matches_skew() {
        let s = 1.25;
        let zipf = Zipf::new(300, s);
        let mut rng = Rng::new(7);
        let mut counts = vec![0u64; 300];
        for _ in 0..50_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10], "rank 0 must dominate");
        // Least-squares fit of ln(count) against ln(rank+1) over the head.
        let pts: Vec<(f64, f64)> = (0..20)
            .filter(|&k| counts[k] > 0)
            .map(|k| (((k + 1) as f64).ln(), (counts[k] as f64).ln()))
            .collect();
        let n = pts.len() as f64;
        let (sx, sy): (f64, f64) = pts.iter().fold((0.0, 0.0), |(a, b), p| (a + p.0, b + p.1));
        let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
        let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        assert!(
            (slope + s).abs() < 0.25,
            "fitted slope {slope:.3} should be within 0.25 of {:.3}",
            -s
        );
    }

    /// Same seed → byte-identical arrival schedule; a different seed moves
    /// the arrivals. Compared through a raw `Debug` of the whole schedule:
    /// `ZSet` is a `ZSet` over a `BTreeMap`, so its iteration (and
    /// `Debug`) order is sorted and instance-independent — byte-stable even
    /// on upsert deltas (two rows), with no canonicalization step needed.
    #[test]
    fn open_loop_is_deterministic_by_seed() {
        fn canon(schedule: &[ScheduledCommit]) -> String {
            format!("{schedule:#?}")
        }
        let olc = OpenLoopConfig {
            duration_us: 5_000_000,
            du_per_sec: 40.0,
            sc_storms: 2,
            ..Default::default()
        };
        let a = canon(&WorkloadGen::new(cfg(), 11).open_loop(&olc));
        let b = canon(&WorkloadGen::new(cfg(), 11).open_loop(&olc));
        assert_eq!(a, b, "same seed, same schedule");
        let c = canon(&WorkloadGen::new(cfg(), 12).open_loop(&olc));
        assert_ne!(a, c, "different seed, different schedule");
    }

    /// The open-loop schedule is sorted, carries the configured number of
    /// storm renames, and applies cleanly against the space (the generator's
    /// schema tracking survives interleaved storms).
    #[test]
    fn open_loop_schedule_applies_cleanly() {
        let cfg = cfg();
        let mut space = build_space(&cfg);
        let mut gen = WorkloadGen::new(cfg, 5);
        let olc = OpenLoopConfig {
            duration_us: 10_000_000,
            du_per_sec: 20.0,
            sc_storms: 3,
            sc_storm_len: 2,
            ..Default::default()
        };
        let schedule = gen.open_loop(&olc);
        assert!(schedule.windows(2).all(|w| w[0].at_us <= w[1].at_us), "sorted by time");
        let scs = schedule.iter().filter(|c| c.update.is_schema_change()).count();
        assert_eq!(scs, 6, "3 storms × 2 renames");
        assert!(schedule.len() > 100, "open loop should produce a dense DU stream");
        for c in schedule {
            space.commit(c.source, c.update).expect("open-loop schedule must be self-consistent");
        }
    }

    /// Diurnal modulation concentrates arrivals near the sine peak: the
    /// quarter-period around the peak must out-arrive the one at the trough.
    #[test]
    fn open_loop_diurnal_peak_beats_trough() {
        let period = 8_000_000u64;
        let olc = OpenLoopConfig {
            duration_us: period,
            du_per_sec: 100.0,
            diurnal_amplitude: 0.9,
            diurnal_period_us: period,
            sc_storms: 0,
            ..Default::default()
        };
        let schedule = WorkloadGen::new(cfg(), 21).open_loop(&olc);
        // Peak of sin(2πt/P) is at t = P/4; trough at t = 3P/4.
        let around = |center: u64| {
            schedule
                .iter()
                .filter(|c| {
                    c.at_us >= center.saturating_sub(period / 8) && c.at_us < center + period / 8
                })
                .count()
        };
        let peak = around(period / 4);
        let trough = around(3 * period / 4);
        assert!(
            peak > trough * 2,
            "peak quarter ({peak}) should carry at least twice the trough quarter ({trough})"
        );
    }

    #[test]
    fn drop_attribute_exhaustion_moves_on() {
        let cfg = cfg();
        let mut space = build_space(&cfg);
        let mut gen = WorkloadGen::new(cfg, 3);
        // 18 drops = every non-key attribute of all six relations.
        let timeline: Vec<(u64, EventKind)> =
            (0..18).map(|k| (k, EventKind::DropAttribute)).collect();
        for c in gen.realize(&timeline) {
            space.commit(c.source, c.update).expect("drops must target present attributes");
        }
    }
}
