//! The closed loop: one client on one thread commits a round of source
//! updates, runs the warehouse to quiescence, and only then sends the next
//! round. Also set-up and the from-scratch oracle.

use std::collections::VecDeque;
use std::error::Error;
use std::rc::Rc;
use std::time::{Duration, Instant};

use dyno_core::{StepOutcome, Strategy};
use dyno_durable::storage::{MemStorage, Storage};
use dyno_obs::Collector;
use dyno_relational::{thread_stats, ExecStats, SourceUpdate};
use dyno_sim::build_space;
use dyno_source::{InfoSpace, SourceId, UpdateMessage};
use dyno_view::{DurableLog, InProcessPort, SourcePort, Warehouse};

use crate::trace::{Name, SpanBuffer, SpanId, TimingPort, TimingStorage};
use crate::workload::{Generator, Spec};

/// A port the driver can commit through: the plain `InProcessPort`, or the
/// timing decorator around one.
pub trait BenchPort: SourcePort {
    /// The in-process port underneath.
    fn base(&self) -> &InProcessPort;
    /// The same, mutably.
    fn base_mut(&mut self) -> &mut InProcessPort;
}

impl BenchPort for InProcessPort {
    fn base(&self) -> &InProcessPort {
        self
    }
    fn base_mut(&mut self) -> &mut InProcessPort {
        self
    }
}

impl BenchPort for TimingPort<InProcessPort> {
    fn base(&self) -> &InProcessPort {
        self.inner()
    }
    fn base_mut(&mut self) -> &mut InProcessPort {
        self.inner_mut()
    }
}

/// Sources, warehouse and (for `durable_du`) the WAL's disk, freshly set up.
pub struct Bed<P> {
    /// The port the warehouse maintains through.
    pub port: P,
    /// The system under test.
    pub wh: Warehouse,
    /// A handle on the bytes the WAL wrote (`MemStorage` clones share them).
    pub disk: Option<MemStorage>,
    /// The information space, kept for `Warehouse::recover`.
    pub info: InfoSpace,
}

/// A bed and the seconds its set-up took.
pub type SetUp<P> = Result<(Bed<P>, f64), Box<dyn Error>>;

/// Builds sources, registers and initializes the views and attaches the
/// WAL; returns the bed and how long that took. The two wrappers are the
/// identity on the untraced path, so neither decorator exists there.
fn set_up<P: BenchPort>(
    spec: &Spec,
    seed: u64,
    wrap_port: impl FnOnce(InProcessPort) -> P,
    wrap_disk: impl FnOnce(MemStorage) -> Box<dyn Storage>,
) -> SetUp<P> {
    let started = Instant::now();
    let cfg = spec.testbed(seed);
    let space = build_space(&cfg);
    let info = space.info().clone();
    let mut port = wrap_port(InProcessPort::new(space));
    let mut wh = Warehouse::new(info.clone(), Strategy::Pessimistic);
    for view in spec.view_defs(&cfg) {
        wh.add_view(view);
    }
    wh.initialize(&mut port)?;
    let mut disk = None;
    if spec.wal {
        let mem = MemStorage::new();
        disk = Some(mem.clone());
        wh = wh.with_wal(DurableLog::create(wrap_disk(mem))?)?;
    }
    Ok((Bed { port, wh, disk, info }, started.elapsed().as_secs_f64()))
}

/// Untraced set-up: a plain `InProcessPort` and a plain `MemStorage`.
pub fn set_up_plain(spec: &Spec, seed: u64) -> SetUp<InProcessPort> {
    set_up(spec, seed, |p| p, |m| Box::new(m))
}

/// Traced set-up: both decorators, recording into `spans`.
pub fn set_up_traced(
    spec: &Spec,
    seed: u64,
    spans: &Rc<SpanBuffer>,
) -> SetUp<TimingPort<InProcessPort>> {
    set_up(
        spec,
        seed,
        |p| TimingPort::new(p, Rc::clone(spans)),
        |m| Box::new(TimingStorage::new(m, Rc::clone(spans))),
    )
}

/// When a repetition's timed section ends: after `rounds` rounds. `cap` is
/// a safety valve for a machine far slower than the one the workloads were
/// sized on — a repetition whose timed section reaches it stops early, so
/// that a run always ends; such a run does less work than its seed says and
/// is reported as capped.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Rounds to run.
    pub rounds: u64,
    /// Longest timed section.
    pub cap: Duration,
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Rounds completed.
    pub rounds: u64,
    /// True when the budget's cap, not its round count, ended the section.
    pub capped: bool,
    /// Source updates committed (attempted).
    pub updates: u64,
    /// Updates never made visible, commits refused and steps that failed.
    pub failed: u64,
    /// The timed section: the sum of the rounds' wall times. Generating a
    /// round's inputs happens between rounds and is not in it.
    pub section_ns: u64,
    /// Commit → visible, one sample per update, sorted ascending.
    pub visible_ns: Vec<u64>,
    /// Executor counters over the timed section (`thread_stats()` delta).
    pub exec: ExecStats,
    /// Wall time of the `Warehouse::step` calls that committed an
    /// adaptation batch, and how many batches they committed (traced only).
    pub adapt_ns: u64,
    /// See `adapt_ns`.
    pub adapt_batches: u64,
    /// The last round's messages, in commit order (input for the probes).
    pub last_round: Vec<UpdateMessage>,
}

impl Rep {
    /// Updates made visible per second of the timed section.
    pub fn updates_per_s(&self) -> f64 {
        (self.updates - self.failed.min(self.updates)) as f64 / (self.section_ns as f64 / 1e9)
    }

    /// The `q`-quantile of commit → visible, in microseconds (nearest rank).
    pub fn visible_us(&self, q: f64) -> f64 {
        if self.visible_ns.is_empty() {
            return 0.0;
        }
        let rank = (q * self.visible_ns.len() as f64).ceil() as usize;
        self.visible_ns[rank.clamp(1, self.visible_ns.len()) - 1] as f64 / 1e3
    }
}

/// A committed update the warehouse has not yet made visible.
struct Pending {
    source: SourceId,
    version: u64,
    committed_ns: u64,
    root: Option<SpanId>,
}

/// A round that needs more steps than this is stuck, not slow.
const MAX_STEPS_PER_ROUND: u64 = 100_000;

/// Runs rounds until `budget` is spent. With `spans`, records the span tree
/// and — so that ingest has a span of its own — drains and ingests arrivals
/// itself before each step, which is what `Warehouse::step` would do first.
pub fn run_rep<P: BenchPort>(
    bed: &mut Bed<P>,
    gen: &mut Generator,
    budget: Budget,
    spans: Option<&SpanBuffer>,
) -> Rep {
    let mut rep = Rep::default();
    let epoch = spans.map_or_else(Instant::now, SpanBuffer::epoch);
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let mut round: Vec<(SourceId, SourceUpdate)> = Vec::new();
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let exec_before = thread_stats();
    if let Some(buf) = spans {
        buf.set_recording(true);
    }
    loop {
        rep.capped = rep.section_ns >= budget.cap.as_nanos() as u64;
        if rep.rounds >= budget.rounds || rep.capped {
            break;
        }
        round.clear();
        gen.next_round(&mut round);
        rep.last_round.clear();
        if let Some(buf) = spans {
            buf.next_round();
        }

        let round_started = now_ns();
        for (source, update) in round.drain(..) {
            rep.updates += 1;
            let committed_ns = now_ns();
            let root = spans.map(|buf| buf.open_update(committed_ns));
            let result = {
                let _span = spans.map(|buf| buf.enter(Name::SourceCommit, root));
                bed.port.base_mut().commit(source, update)
            };
            match result {
                Ok(msg) => {
                    pending.push_back(Pending {
                        source,
                        version: msg.source_version,
                        committed_ns,
                        root,
                    });
                    rep.last_round.push(msg);
                }
                Err(_) => rep.failed += 1,
            }
        }
        let mut steps = 0;
        loop {
            // The step works for the oldest update still waiting.
            let cause = pending.front().and_then(|p| p.root);
            let batches_before = spans.map(|_| bed.wh.stats(0).batches_committed);
            if let Some(buf) = spans {
                let _span = buf.enter(Name::ViewIngest, cause);
                let arrivals = bed.port.drain_arrivals();
                bed.wh.ingest(arrivals);
            }
            let step_started = now_ns();
            let outcome = {
                let _span = spans.map(|buf| buf.enter(Name::ViewStep, cause));
                bed.wh.step(&mut bed.port)
            };
            let now = now_ns();
            if let Some(before) = batches_before {
                let batches = bed.wh.stats(0).batches_committed - before;
                if batches > 0 {
                    rep.adapt_ns += now - step_started;
                    rep.adapt_batches += batches;
                }
            }
            let reflected = bed.wh.reflected();
            pending.retain(|p| {
                let visible = reflected.get(&p.source).is_some_and(|&v| v >= p.version);
                if visible {
                    rep.visible_ns.push(now - p.committed_ns);
                    if let (Some(buf), Some(root)) = (spans, p.root) {
                        buf.close_at(root, now);
                    }
                }
                !visible
            });
            steps += 1;
            match outcome {
                Ok(StepOutcome::Idle) => break,
                Ok(_) if steps < MAX_STEPS_PER_ROUND => {}
                Ok(_) | Err(_) => {
                    rep.failed += 1;
                    break;
                }
            }
        }
        rep.failed += pending.len() as u64;
        pending.clear();
        rep.section_ns += now_ns() - round_started;
        rep.rounds += 1;
    }
    if let Some(buf) = spans {
        buf.set_recording(false);
    }
    rep.exec = thread_stats().since(exec_before);
    rep.visible_ns.sort_unstable();
    rep
}

/// The oracle. Every extent must equal a from-scratch evaluation of its
/// *current* (possibly rewritten) definition over the sources' current
/// states, the reflected vector must equal the sources' versions, and no
/// error may be latched. Returns the number of misses.
pub fn verify<P: BenchPort>(bed: &Bed<P>) -> u64 {
    let space = bed.port.base().space();
    let mut misses = 0;
    for i in 0..bed.wh.view_count() {
        let fresh = dyno_relational::eval(&bed.wh.view(i).query, &space.provider());
        if !fresh.is_ok_and(|r| &r.rows == bed.wh.mv(i).extent()) {
            misses += 1;
        }
    }
    if bed.wh.reflected() != &space.versions() {
        misses += 1;
    }
    if bed.wh.last_error().is_some() {
        misses += 1;
    }
    misses
}

/// Recovers a warehouse from a copy of the WAL's current bytes into a fresh
/// `MemStorage`; returns the misses against the live warehouse (extents and
/// reflected vector must be equal) and the recovery time in milliseconds.
pub fn recover_and_compare<P: BenchPort>(bed: &Bed<P>, disk: &MemStorage) -> (u64, f64) {
    let copy = MemStorage::new();
    copy.set(disk.snapshot());
    let started = Instant::now();
    let recovered = Warehouse::recover(Box::new(copy), bed.info.clone(), Collector::disabled());
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let Ok((twin, _report)) = recovered else {
        return (1, ms);
    };
    let mut misses = 0;
    if twin.view_count() != bed.wh.view_count() || twin.reflected() != bed.wh.reflected() {
        misses += 1;
    } else {
        for i in 0..twin.view_count() {
            if twin.mv(i).cols() != bed.wh.mv(i).cols()
                || twin.mv(i).extent() != bed.wh.mv(i).extent()
            {
                misses += 1;
            }
        }
    }
    (misses, ms)
}
