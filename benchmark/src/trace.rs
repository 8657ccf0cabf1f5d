//! Tracing from the outside: spans recorded by benchmark code around the
//! calls into each layer, never inside the program.
//!
//! Each node thread owns a [`Recorder`] in a thread-local. Spans nest by
//! call structure — `host.step` contains `net.recv_wait`, and, through the
//! callback, `net.send` and `wal.append` — so a layer's *self* time (its
//! span minus the part its children cover) falls out of a stack: closing a
//! span charges its duration to the parent's child total. Aggregates are
//! kept for every span; the raw spans written to `trace.json` are capped
//! per thread so a 20-second run does not produce a gigabyte.
//!
//! The decorators ([`TracedTransport`], [`TracedStorage`]) are only
//! installed in traced runs; with no recorder on a thread, [`span`] is a
//! thread-local read and a branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use awr_sim::{ActorId, Transport};
use awr_storage::{DynMsg, Recovered, Snapshot, Storage, WalRecord};
use awr_types::CsRef;

/// The message type every hosted node speaks.
pub type Msg = DynMsg<u64>;

/// Raw spans kept per thread for `trace.json` (aggregates cover all).
const MAX_STORED_SPANS: usize = 20_000;
/// Raw duration samples kept per thread (one-way delays, WAL appends).
const MAX_SAMPLES: usize = 2_000_000;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;
/// `actor` of a span that belongs to no client operation.
pub const NO_ACTOR: u32 = u32::MAX;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds on the process-wide monotonic clock (first call is zero).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded span. `(actor, op)` identifies the client operation that
/// caused it, when one did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same thread's list, or
    /// [`NO_PARENT`] (also used once the list is full).
    pub parent: u32,
    pub actor: u32,
    pub op: u64,
}

/// Totals of one span name on one thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by child spans.
    pub self_ns: u64,
}

/// Everything one thread recorded.
#[derive(Debug, Default)]
pub struct ThreadTrace {
    pub thread: String,
    pub spans: Vec<Span>,
    pub aggs: BTreeMap<&'static str, Agg>,
    pub counters: BTreeMap<&'static str, u64>,
    /// `net.send` start → `recv_timeout` return, per ABD message.
    pub oneway_ns: Vec<u32>,
    pub wal_append_ns: Vec<u32>,
}

struct Open {
    name: &'static str,
    start: u64,
    child_ns: u64,
    index: u32,
    actor: u32,
    op: u64,
}

/// The span stack of one thread. Timestamps are passed in, so the
/// bookkeeping can be tested without a clock.
pub struct Recorder {
    stack: Vec<Open>,
    out: ThreadTrace,
}

impl Recorder {
    pub fn new(thread: &str) -> Recorder {
        Recorder {
            stack: Vec::new(),
            out: ThreadTrace {
                thread: thread.to_string(),
                ..ThreadTrace::default()
            },
        }
    }

    pub fn open(&mut self, name: &'static str, now: u64, actor: u32, op: u64) {
        // Reserve the slot now so children can point at it.
        let index = if self.out.spans.len() < MAX_STORED_SPANS {
            self.out.spans.push(Span {
                name,
                start: now,
                end: now,
                parent: self.stack.last().map_or(NO_PARENT, |p| p.index),
                actor,
                op,
            });
            (self.out.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.stack.push(Open {
            name,
            start: now,
            child_ns: 0,
            index,
            actor,
            op,
        });
    }

    /// Closes the innermost open span; returns its duration.
    pub fn close(&mut self, now: u64) -> u64 {
        let Some(o) = self.stack.pop() else { return 0 };
        let dur = now.saturating_sub(o.start);
        if let Some(s) = self.out.spans.get_mut(o.index as usize) {
            debug_assert!(s.name == o.name && s.actor == o.actor && s.op == o.op);
            s.end = now;
        }
        let agg = self.out.aggs.entry(o.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(o.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        dur
    }

    pub fn count(&mut self, key: &'static str, add: u64) {
        *self.out.counters.entry(key).or_default() += add;
    }

    pub fn finish(self) -> ThreadTrace {
        self.out
    }
}

thread_local! {
    static LOCAL: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on the calling thread.
pub fn begin_thread(name: &str) {
    LOCAL.with(|l| *l.borrow_mut() = Some(Recorder::new(name)));
}

/// Stops recording on the calling thread and hands back what it held.
pub fn end_thread() -> Option<ThreadTrace> {
    LOCAL.with(|l| l.borrow_mut().take()).map(Recorder::finish)
}

fn with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    LOCAL.with(|l| l.borrow_mut().as_mut().map(f))
}

/// Keeps one raw duration sample of the calling thread, up to the cap.
fn keep_sample(pick: impl FnOnce(&mut ThreadTrace) -> &mut Vec<u32>, ns: u64) {
    with_recorder(|r| {
        let samples = pick(&mut r.out);
        if samples.len() < MAX_SAMPLES {
            samples.push(ns.min(u32::MAX as u64) as u32);
        }
    });
}

/// An open span; closes when dropped. Inert on a thread with no recorder.
pub struct SpanGuard {
    live: bool,
}

impl SpanGuard {
    /// Closes the span now and returns `(end time, duration)` in ns.
    pub fn finish(mut self) -> (u64, u64) {
        self.live = false;
        let now = now_ns();
        (now, with_recorder(|r| r.close(now)).unwrap_or(0))
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.live {
            let now = now_ns();
            with_recorder(|r| r.close(now));
        }
    }
}

/// Opens a span that belongs to no particular client operation.
pub fn span(name: &'static str) -> SpanGuard {
    span_op(name, NO_ACTOR, 0)
}

/// Opens a span caused by operation `op` of client actor `actor`.
pub fn span_op(name: &'static str, actor: u32, op: u64) -> SpanGuard {
    let live = with_recorder(|r| r.open(name, now_ns(), actor, op)).is_some();
    SpanGuard { live }
}

/// Adds to a named counter of the calling thread (no-op when untraced).
pub fn count(key: &'static str, add: u64) {
    with_recorder(|r| r.count(key, add));
}

// ---------------------------------------------------------------------
// Transport decorator
// ---------------------------------------------------------------------

/// `(from, to, kind, op)` of an ABD-phase message in flight.
type FlightKey = (u32, u32, u8, u64);

/// Send-start times of ABD messages not yet received. Shared by all node
/// threads of the process (same monotonic clock on both ends).
static IN_FLIGHT: Mutex<BTreeMap<FlightKey, u64>> = Mutex::new(BTreeMap::new());

/// What the decorator reads off a typed message: which client operation
/// it belongs to and the change-set reference it carries.
fn abd_fields(msg: &Msg) -> Option<(u8, u64, &CsRef)> {
    match msg {
        DynMsg::R { op, changes, .. } => Some((0, *op, changes)),
        DynMsg::RAck { op, changes, .. } => Some((1, *op, changes)),
        DynMsg::W { op, changes, .. } => Some((2, *op, changes)),
        DynMsg::WAck { op, changes, .. } => Some((3, *op, changes)),
        _ => None,
    }
}

/// The client end of an ABD exchange between `from` and `to`: requests
/// travel client → server and acks back, and clients sit above servers in
/// the id space.
fn client_of(from: ActorId, to: ActorId) -> u32 {
    from.index().max(to.index()) as u32
}

/// Times `send` and `recv_timeout` of any [`Transport`] and counts what
/// the typed messages reveal (kind, operation, `CsRef` variant).
pub struct TracedTransport<T> {
    inner: T,
}

impl<T> TracedTransport<T> {
    pub fn new(inner: T) -> TracedTransport<T> {
        TracedTransport { inner }
    }

    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Transport<Msg>> Transport<Msg> for TracedTransport<T> {
    fn local_id(&self) -> ActorId {
        self.inner.local_id()
    }

    fn n_actors(&self) -> usize {
        self.inner.n_actors()
    }

    fn send(&mut self, to: ActorId, msg: Msg) {
        let me = self.inner.local_id();
        let guard = match abd_fields(&msg) {
            Some((kind, op, cs)) => {
                count(
                    match cs {
                        CsRef::Summary { .. } => "csref.summary",
                        CsRef::Delta { .. } => "csref.delta",
                        CsRef::Full(_) => "csref.full",
                    },
                    1,
                );
                let guard = span_op("net.send", client_of(me, to), op);
                let key = (me.index() as u32, to.index() as u32, kind, op);
                IN_FLIGHT
                    .lock()
                    .expect("in-flight map lock")
                    .insert(key, now_ns());
                guard
            }
            None => span("net.send"),
        };
        self.inner.send(to, msg);
        drop(guard);
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(ActorId, Msg)> {
        let guard = span("net.recv_wait");
        let got = self.inner.recv_timeout(timeout);
        let (now, _) = guard.finish();
        if let Some((from, msg)) = &got {
            if let Some((kind, op, _)) = abd_fields(msg) {
                let me = self.inner.local_id();
                let key = (from.index() as u32, me.index() as u32, kind, op);
                let sent = IN_FLIGHT.lock().expect("in-flight map lock").remove(&key);
                if let Some(sent) = sent {
                    keep_sample(|t| &mut t.oneway_ns, now.saturating_sub(sent));
                }
            }
        }
        got
    }
}

// ---------------------------------------------------------------------
// Storage decorator
// ---------------------------------------------------------------------

/// Times every WAL append of any [`Storage`] backend.
#[derive(Debug)]
pub struct TracedStorage<S> {
    inner: S,
}

impl<S> TracedStorage<S> {
    pub fn new(inner: S) -> TracedStorage<S> {
        TracedStorage { inner }
    }
}

impl<S: Storage<u64>> Storage<u64> for TracedStorage<S> {
    fn append(&mut self, rec: WalRecord<u64>) {
        let guard = span("wal.append");
        self.inner.append(rec);
        let (_, dur) = guard.finish();
        keep_sample(|t| &mut t.wal_append_ns, dur);
    }

    fn install_snapshot(&mut self, snap: Snapshot<u64>) {
        let _guard = span("wal.snapshot");
        self.inner.install_snapshot(snap);
    }

    fn load(&mut self) -> Option<Recovered<u64>> {
        let _guard = span("wal.load");
        self.inner.load()
    }

    fn wal_len(&self) -> usize {
        self.inner.wal_len()
    }
}

// ---------------------------------------------------------------------
// Merging and output
// ---------------------------------------------------------------------

/// All threads' recordings of one run.
#[derive(Debug, Default)]
pub struct RunTrace {
    pub threads: Vec<ThreadTrace>,
}

impl RunTrace {
    /// Totals of span `name` over every thread.
    pub fn agg(&self, name: &str) -> Agg {
        let mut sum = Agg::default();
        for t in &self.threads {
            if let Some(a) = t.aggs.get(name) {
                sum.count += a.count;
                sum.total_ns += a.total_ns;
                sum.self_ns += a.self_ns;
            }
        }
        sum
    }

    pub fn counter(&self, key: &str) -> u64 {
        self.threads
            .iter()
            .filter_map(|t| t.counters.get(key))
            .sum()
    }

    /// One kind of raw duration sample from every thread, ascending.
    pub fn samples_sorted(&self, pick: impl Fn(&ThreadTrace) -> &Vec<u32>) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .threads
            .iter()
            .flat_map(|t| pick(t).iter().map(|&d| d as u64))
            .collect();
        v.sort_unstable();
        v
    }

    /// The `trace.json` document: per thread, the raw spans as
    /// `[name, start_ns, end_ns, parent, actor, op]` rows (`parent` is an
    /// index into the same thread's rows, −1 for a root; `actor` is −1
    /// when the span belongs to no client operation), plus the per-name
    /// aggregates, which cover every span including those past the cap.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"clock\":\"ns since process epoch\",\"threads\":["
        );
        for (i, t) in self.threads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"thread\":\"{}\",\"aggregates\":{{", t.thread);
            for (j, (name, a)) in t.aggs.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                    a.count, a.total_ns, a.self_ns
                );
            }
            out.push_str("},\"spans\":[");
            for (j, s) in t.spans.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let parent = if s.parent == NO_PARENT {
                    -1
                } else {
                    s.parent as i64
                };
                let actor = if s.actor == NO_ACTOR {
                    -1
                } else {
                    s.actor as i64
                };
                let _ = write!(
                    out,
                    "[\"{}\",{},{},{parent},{actor},{}]",
                    s.name, s.start, s.end, s.op
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut r = Recorder::new("t");
        r.open("host.step", 100, NO_ACTOR, 0);
        r.open("net.recv_wait", 100, NO_ACTOR, 0);
        r.close(160); // 60 waiting
        r.open("net.send", 170, 5, 9);
        r.close(190); // 20 sending
        r.open("wal.append", 190, NO_ACTOR, 0);
        r.close(195); // 5 appending
        r.close(200); // step: 100 total
        let t = r.finish();
        let step = t.aggs["host.step"];
        assert_eq!((step.count, step.total_ns), (1, 100));
        assert_eq!(step.self_ns, 100 - 60 - 20 - 5);
        assert_eq!(t.aggs["net.send"].self_ns, 20);
        // Stored spans carry the parent link and the operation id.
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.spans[0].parent, NO_PARENT);
        assert_eq!(
            (t.spans[2].parent, t.spans[2].actor, t.spans[2].op),
            (0, 5, 9)
        );
        assert_eq!((t.spans[0].start, t.spans[0].end), (100, 200));
    }

    #[test]
    fn grandchildren_charge_only_their_parent() {
        let mut r = Recorder::new("t");
        r.open("a", 0, NO_ACTOR, 0);
        r.open("b", 10, NO_ACTOR, 0);
        r.open("c", 20, NO_ACTOR, 0);
        r.close(30);
        r.close(50);
        r.close(100);
        let t = r.finish();
        assert_eq!(t.aggs["c"].self_ns, 10);
        assert_eq!(t.aggs["b"].self_ns, 40 - 10);
        assert_eq!(t.aggs["a"].self_ns, 100 - 40);
    }

    #[test]
    fn aggregates_outlive_the_span_cap() {
        let mut r = Recorder::new("t");
        for i in 0..(MAX_STORED_SPANS as u64 + 10) {
            r.open("x", i * 10, NO_ACTOR, 0);
            r.close(i * 10 + 3);
        }
        let t = r.finish();
        assert_eq!(t.spans.len(), MAX_STORED_SPANS);
        assert_eq!(t.aggs["x"].count, MAX_STORED_SPANS as u64 + 10);
        assert_eq!(t.aggs["x"].total_ns, 3 * (MAX_STORED_SPANS as u64 + 10));
    }

    #[test]
    fn untraced_threads_record_nothing() {
        let g = span("net.send");
        drop(g);
        count("k", 1);
        assert!(end_thread().is_none());
    }
}
