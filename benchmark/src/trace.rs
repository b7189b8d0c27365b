//! Spans recorded by the benchmark around its own calls into the program,
//! and the two decorators that record at the `SourcePort` and `Storage`
//! trait seams. Nothing here is constructed on the untraced path.
//!
//! Spans live in memory until the run ends. One thread runs everything, so
//! spans opened through [`SpanBuffer::enter`] nest as a stack; the root
//! `update` span of each source update (commit stamp → visible) is the
//! exception — updates of one burst overlap — and is opened and closed by
//! explicit timestamps.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::io::Write as _;
use std::rc::Rc;
use std::time::Instant;

use dyno_durable::storage::{Storage, StorageError};
use dyno_relational::{QueryResult, Relation, RelationalError, SpjQuery};
use dyno_source::{SourceId, UpdateMessage};
use dyno_view::{BoundTable, MaintEvent, SourcePort};

/// Span names, one per boundary the benchmark can see from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// Root: one source update, from just before its commit to visible.
    Update,
    /// `InProcessPort::commit`.
    SourceCommit,
    /// `SourcePort::drain_arrivals` + `Warehouse::ingest`.
    ViewIngest,
    /// `Warehouse::step`.
    ViewStep,
    /// `SourcePort::execute`, seen by [`TimingPort`].
    PortExecute,
    /// `SourcePort::fetch_relation_at`, seen by [`TimingPort`].
    PortFetchAt,
    /// `Storage::append`, seen by [`TimingStorage`].
    StorageAppend,
    /// `Storage::replace`, seen by [`TimingStorage`].
    StorageReplace,
}

impl Name {
    /// The name written to the span file.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Update => "update",
            Name::SourceCommit => "source.commit",
            Name::ViewIngest => "view.ingest",
            Name::ViewStep => "view.step",
            Name::PortExecute => "port.execute",
            Name::PortFetchAt => "port.fetch_relation_at",
            Name::StorageAppend => "storage.append",
            Name::StorageReplace => "storage.replace",
        }
    }
}

/// Index of a span in its buffer.
pub type SpanId = u32;

/// "No parent".
pub const NO_SPAN: SpanId = u32::MAX;

/// One recorded span. Times are nanoseconds since the buffer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which boundary.
    pub name: Name,
    /// The span that caused this one, or [`NO_SPAN`] for a root.
    pub parent: SpanId,
    /// The closed-loop round (one client request) the span belongs to.
    pub round: u32,
    /// Start.
    pub start_ns: u64,
    /// End; equal to `start_ns` while the span is open.
    pub end_ns: u64,
    /// Bytes handed over, for the storage spans; 0 elsewhere.
    pub bytes: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span store shared by the driver and the decorators.
#[derive(Debug)]
pub struct SpanBuffer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<SpanId>>,
    round: Cell<u32>,
    recording: Cell<bool>,
}

/// Closes its span when dropped.
pub struct OpenSpan<'a> {
    buf: &'a SpanBuffer,
    id: SpanId,
}

#[cfg(test)]
impl OpenSpan<'_> {
    /// The open span's id.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for OpenSpan<'_> {
    fn drop(&mut self) {
        if self.id != NO_SPAN {
            let now = self.buf.now_ns();
            self.buf.spans.borrow_mut()[self.id as usize].end_ns = now;
            let popped = self.buf.stack.borrow_mut().pop();
            debug_assert_eq!(popped, Some(self.id), "spans close in stack order");
        }
    }
}

impl SpanBuffer {
    /// An empty buffer that is not yet recording.
    pub fn new() -> Rc<Self> {
        Rc::new(SpanBuffer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            round: Cell::new(0),
            recording: Cell::new(false),
        })
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the buffer was made.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Turns recording on or off. Set-up, the oracle and the probes run with
    /// recording off, so the decorators they pass through add no spans.
    pub fn set_recording(&self, on: bool) {
        self.recording.set(on);
    }

    /// Marks the start of the next round.
    pub fn next_round(&self) {
        self.round.set(self.round.get() + 1);
    }

    fn push(&self, name: Name, parent: SpanId, start_ns: u64, bytes: u64) -> SpanId {
        let mut spans = self.spans.borrow_mut();
        let id = spans.len() as SpanId;
        spans.push(Span {
            name,
            parent,
            round: self.round.get(),
            start_ns,
            end_ns: start_ns,
            bytes,
        });
        id
    }

    /// Opens a root `update` span at `start_ns`; closed by [`Self::close_at`].
    pub fn open_update(&self, start_ns: u64) -> SpanId {
        self.push(Name::Update, NO_SPAN, start_ns, 0)
    }

    /// Closes a span opened by [`Self::open_update`].
    pub fn close_at(&self, id: SpanId, end_ns: u64) {
        self.spans.borrow_mut()[id as usize].end_ns = end_ns;
    }

    /// Opens a span under `parent`, or under the innermost open span when
    /// `parent` is `None`. Records nothing while recording is off.
    pub fn enter(&self, name: Name, parent: Option<SpanId>) -> OpenSpan<'_> {
        self.enter_io(name, parent, 0)
    }

    /// [`Self::enter`] for a span that hands `bytes` to storage.
    fn enter_io(&self, name: Name, parent: Option<SpanId>, bytes: u64) -> OpenSpan<'_> {
        if !self.recording.get() {
            return OpenSpan { buf: self, id: NO_SPAN };
        }
        let parent =
            parent.unwrap_or_else(|| self.stack.borrow().last().copied().unwrap_or(NO_SPAN));
        let id = self.push(name, parent, self.now_ns(), bytes);
        self.stack.borrow_mut().push(id);
        OpenSpan { buf: self, id }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }

    /// Self time per span: duration minus the part of it that its direct
    /// children cover. Children are clipped to the parent and overlapping
    /// children are counted once, so the result cannot go negative.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let spans = self.spans.borrow();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if s.parent != NO_SPAN {
                let p = &spans[s.parent as usize];
                let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
                if a < b {
                    children[s.parent as usize].push((a, b));
                }
            }
        }
        spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut upto) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    let a = a.max(upto);
                    if b > a {
                        covered += b - a;
                        upto = b;
                    }
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let selfs = self.self_times_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_ns)) in self.spans.borrow().iter().zip(&selfs).enumerate() {
            let parent =
                if s.parent == NO_SPAN { "null".to_string() } else { s.parent.to_string() };
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"round\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"bytes\":{}}}",
                s.round,
                s.name.as_str(),
                s.start_ns,
                s.end_ns,
                s.bytes
            )?;
        }
        out.flush()
    }
}

/// A `SourcePort` decorator that records `port.execute` and
/// `port.fetch_relation_at` spans and passes everything else through.
pub struct TimingPort<P: SourcePort> {
    inner: P,
    buf: Rc<SpanBuffer>,
}

impl<P: SourcePort> TimingPort<P> {
    /// Wraps `inner`.
    pub fn new(inner: P, buf: Rc<SpanBuffer>) -> Self {
        TimingPort { inner, buf }
    }

    /// The wrapped port.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The wrapped port, mutably (the driver commits through it).
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }
}

impl<P: SourcePort> SourcePort for TimingPort<P> {
    fn now_ms(&self) -> u64 {
        self.inner.now_ms()
    }

    fn now_us(&self) -> u64 {
        self.inner.now_us()
    }

    fn advance_wait(&mut self, us: u64) {
        self.inner.advance_wait(us);
    }

    fn execute(
        &mut self,
        query: &SpjQuery,
        bound: &[BoundTable],
    ) -> Result<QueryResult, RelationalError> {
        let _span = self.buf.enter(Name::PortExecute, None);
        self.inner.execute(query, bound)
    }

    fn fetch_relation_at(
        &mut self,
        source: SourceId,
        relation: &str,
        version: u64,
    ) -> Result<Relation, RelationalError> {
        let _span = self.buf.enter(Name::PortFetchAt, None);
        self.inner.fetch_relation_at(source, relation, version)
    }

    fn locate(&mut self, relation: &str) -> Option<SourceId> {
        self.inner.locate(relation)
    }

    fn source_version(&mut self, source: SourceId) -> u64 {
        self.inner.source_version(source)
    }

    fn charge_local(&mut self, tuples: u64) {
        self.inner.charge_local(tuples);
    }

    fn charge_mv_write(&mut self, tuples: u64) {
        self.inner.charge_mv_write(tuples);
    }

    fn drain_arrivals(&mut self) -> Vec<UpdateMessage> {
        self.inner.drain_arrivals()
    }

    fn on_maintenance_event(&mut self, event: MaintEvent) {
        self.inner.on_maintenance_event(event);
    }
}

/// A `Storage` decorator that records `storage.append` and
/// `storage.replace` spans with the bytes handed over.
pub struct TimingStorage<S: Storage> {
    inner: S,
    buf: Rc<SpanBuffer>,
}

impl<S: Storage> TimingStorage<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, buf: Rc<SpanBuffer>) -> Self {
        TimingStorage { inner, buf }
    }
}

impl<S: Storage> fmt::Debug for TimingStorage<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimingStorage").field("inner", &self.inner).finish()
    }
}

impl<S: Storage + Clone + 'static> Storage for TimingStorage<S> {
    fn read_all(&self) -> Result<Vec<u8>, StorageError> {
        self.inner.read_all()
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        let _span = self.buf.enter_io(Name::StorageAppend, None, bytes.len() as u64);
        self.inner.append(bytes)
    }

    fn replace(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        let _span = self.buf.enter_io(Name::StorageReplace, None, bytes.len() as u64);
        self.inner.replace(bytes)
    }

    fn len(&self) -> Result<u64, StorageError> {
        self.inner.len()
    }

    fn box_clone(&self) -> Box<dyn Storage> {
        Box::new(TimingStorage { inner: self.inner.clone(), buf: Rc::clone(&self.buf) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_clips_and_merges_children() {
        let buf = SpanBuffer::new();
        buf.set_recording(true);
        let root = buf.open_update(100);
        buf.close_at(root, 200);
        // Two overlapping children, one of them sticking out of the parent.
        for (a, b) in [(90u64, 150u64), (140, 180)] {
            let id = buf.push(Name::ViewStep, root, a, 0);
            buf.close_at(id, b);
        }
        let selfs = buf.self_times_ns();
        // Parent [100, 200) minus the union [100, 180) leaves 20.
        assert_eq!(selfs[root as usize], 20);
        assert_eq!(selfs[1], 60);
    }

    #[test]
    fn nothing_is_recorded_while_recording_is_off() {
        let buf = SpanBuffer::new();
        drop(buf.enter(Name::PortExecute, None));
        assert!(buf.spans().is_empty());
        buf.set_recording(true);
        {
            let outer = buf.enter(Name::ViewStep, Some(NO_SPAN));
            let inner = buf.enter(Name::PortExecute, None);
            assert_eq!(buf.spans()[inner.id() as usize].parent, outer.id());
        }
        assert_eq!(buf.spans().len(), 2);
    }
}
