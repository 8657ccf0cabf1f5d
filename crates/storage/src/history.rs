//! Operation histories for correctness checking.
//!
//! Harnesses record every completed `read`/`write` with its invocation and
//! response times; the linearizability checker consumes the history.

use std::collections::BTreeMap;

use awr_sim::Time;
use awr_types::ObjectId;

/// What an operation did.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum OpKind<V> {
    /// A read returning the given value (`None` = initial/unwritten).
    Read(Option<V>),
    /// A write of the given value.
    Write(V),
}

/// One completed operation in a history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistOp<V> {
    /// The invoking process (harness-level client index).
    pub client: usize,
    /// The object (keyed register) the operation targeted.
    pub obj: ObjectId,
    /// Read or write, with the observed/written value.
    pub kind: OpKind<V>,
    /// Invocation time.
    pub invoke: Time,
    /// Response time.
    pub response: Time,
}

impl<V> HistOp<V> {
    /// `true` if this op finished strictly before `other` began
    /// (the real-time precedence relation of Definition 6).
    pub fn precedes(&self, other: &HistOp<V>) -> bool {
        self.response < other.invoke
    }
}

/// A recorded history.
#[derive(Clone, Debug, Default)]
pub struct History<V> {
    /// Completed operations (any order; the checker sorts).
    pub ops: Vec<HistOp<V>>,
}

impl<V: Clone> History<V> {
    /// Creates an empty history.
    pub fn new() -> History<V> {
        History { ops: Vec::new() }
    }

    /// Adds a completed operation.
    pub fn record(&mut self, op: HistOp<V>) {
        debug_assert!(op.invoke <= op.response, "response before invocation");
        self.ops.push(op);
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if no operations were recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Splits the history into independent per-object histories.
    ///
    /// Objects are separate registers: an atomicity violation can only ever
    /// involve operations on one object, so the per-object parts can be
    /// checked independently (and in sum far more cheaply than the whole —
    /// concurrency windows that straddle objects never entangle).
    pub fn partition_by_object(&self) -> BTreeMap<ObjectId, History<V>> {
        let mut parts: BTreeMap<ObjectId, History<V>> = BTreeMap::new();
        for op in &self.ops {
            parts
                .entry(op.obj)
                .or_insert_with(History::new)
                .ops
                .push(op.clone());
        }
        parts
    }

    /// The distinct objects the history touches, in key order.
    pub fn objects(&self) -> Vec<ObjectId> {
        self.partition_by_object().into_keys().collect()
    }

    /// Per-object `(completed ops, mean latency in virtual ms)` — the
    /// latency side of the per-object metrics (the byte side lives in
    /// `awr_sim::Metrics::bytes_of_object`).
    pub fn per_object_latency(&self) -> BTreeMap<ObjectId, (usize, f64)> {
        self.partition_by_object()
            .into_iter()
            .map(|(obj, part)| {
                let total_ms: f64 = part
                    .ops
                    .iter()
                    .map(|o| (o.response - o.invoke) as f64 / 1e6)
                    .sum();
                let n = part.len();
                (obj, (n, if n == 0 { 0.0 } else { total_ms / n as f64 }))
            })
            .collect()
    }

    /// The maximum number of mutually concurrent operations — a cheap
    /// tractability proxy for the checker.
    pub fn max_concurrency(&self) -> usize {
        let mut events: Vec<(Time, i64)> = Vec::with_capacity(self.ops.len() * 2);
        for op in &self.ops {
            events.push((op.invoke, 1));
            events.push((op.response + 1, -1)); // +1: closed intervals overlap at equal times
        }
        events.sort();
        let mut cur = 0i64;
        let mut max = 0i64;
        for (_, d) in events {
            cur += d;
            max = max.max(cur);
        }
        max as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(client: usize, kind: OpKind<u64>, i: u64, r: u64) -> HistOp<u64> {
        HistOp {
            client,
            obj: ObjectId::DEFAULT,
            kind,
            invoke: Time(i),
            response: Time(r),
        }
    }

    #[test]
    fn precedence() {
        let a = op(0, OpKind::Write(1), 0, 10);
        let b = op(1, OpKind::Read(Some(1)), 11, 20);
        let c = op(2, OpKind::Read(Some(1)), 5, 30);
        assert!(a.precedes(&b));
        assert!(!a.precedes(&c)); // overlapping
        assert!(!b.precedes(&a));
    }

    #[test]
    fn concurrency_measure() {
        let mut h = History::new();
        h.record(op(0, OpKind::Write(1), 0, 10));
        h.record(op(1, OpKind::Write(2), 5, 15));
        h.record(op(2, OpKind::Write(3), 12, 20));
        assert_eq!(h.max_concurrency(), 2);
        assert_eq!(h.len(), 3);
        assert!(!h.is_empty());
    }

    #[test]
    fn partition_splits_per_object() {
        let mut h = History::new();
        h.record(op(0, OpKind::Write(1), 0, 10));
        let mut keyed = op(1, OpKind::Write(2), 5, 15);
        keyed.obj = ObjectId(3);
        h.record(keyed);
        h.record(op(1, OpKind::Read(Some(1)), 20, 30));
        let parts = h.partition_by_object();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[&ObjectId::DEFAULT].len(), 2);
        assert_eq!(parts[&ObjectId(3)].len(), 1);
        assert_eq!(h.objects(), vec![ObjectId::DEFAULT, ObjectId(3)]);
    }
}
