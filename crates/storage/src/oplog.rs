//! [`OpLog`]: a client's completed operations, kept as compact records in
//! fixed-size byte chunks.
//!
//! Every client keeps a record of each operation it completes, for the
//! linearizability checker, for as long as it lives. A
//! `DynCompletedOp<u64>` is 48 bytes; a record here is about 20, and it
//! sits in a chunk of 4 KiB (the first four of a log are smaller) that is
//! allocated once and never reallocated, so the allocator's doubling
//! slack never shows in the resident set either.
//!
//! # Record layout
//!
//! One record per operation, in completion order, never split across
//! chunks (a record longer than a chunk gets a chunk of its own size):
//!
//! | field | encoding |
//! |---|---|
//! | flags | one byte: bits 0–1 the kind (0 write, 1 read of a value, 2 read of ⊥), bit 2 set when `restarts` follows |
//! | `obj` | varint |
//! | value | `V`'s [`Wire`](awr_types::wire::Wire) layout; absent for a read of ⊥ |
//! | `invoke` | varint, virtual or wall nanoseconds |
//! | `response − invoke` | varint (wrapping, so any pair of times round-trips) |
//! | `restarts` | varint, only when nonzero |
//!
//! The fields use the codec's primitives ([`put_varint`], [`Reader`]), but
//! this is an in-memory layout, not a wire format: a record never leaves
//! the process that wrote it, so it carries no version, no frame and no
//! `Wire` impl of its own, and it may change without a `WIRE_VERSION`
//! bump. A record that does not decode is a bug in this module, and
//! panics.

use std::fmt;
use std::marker::PhantomData;

use awr_sim::Time;
use awr_types::wire::{put_varint, FrameError, Reader};
use awr_types::ObjectId;

use crate::dynamic::DynCompletedOp;
use crate::history::OpKind;
use crate::Value;

/// Flags-byte kinds (bits 0–1).
const WRITE: u8 = 0;
const READ_VALUE: u8 = 1;
const READ_BOTTOM: u8 = 2;
const KIND: u8 = 0b11;
/// Flags-byte bit 2: a `restarts` varint ends the record.
const RESTARTS: u8 = 0b100;

/// One chunk: record bytes, and the index of its first record.
struct Chunk {
    first: usize,
    bytes: Vec<u8>,
}

/// A client's completed operations, oldest first, as compact records (see
/// the [module docs](self) for the layout).
///
/// Appending never moves a record: a chunk is filled up to the capacity it
/// was allocated with, and the next record that does not fit starts a new
/// chunk. [`OpLog::last`] and [`OpLog::pop`] find the newest record through
/// its stored offset; [`OpLog::get`] decodes forward from the start of the
/// record's chunk.
pub struct OpLog<V> {
    chunks: Vec<Chunk>,
    len: usize,
    /// Offset of the newest record in the last chunk (0 when empty).
    last_at: usize,
    /// Where [`OpLog::push`] encodes a record before copying it into a
    /// chunk: sized once by the longest record seen.
    scratch: Vec<u8>,
    _value: PhantomData<fn() -> V>,
}

impl<V> Default for OpLog<V> {
    fn default() -> Self {
        OpLog {
            chunks: Vec::new(),
            len: 0,
            last_at: 0,
            scratch: Vec::new(),
            _value: PhantomData,
        }
    }
}

impl<V> OpLog<V> {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the log holds no record.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Record bytes held, excluding the chunks' unused tails.
    pub fn bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.bytes.len()).sum()
    }

    /// Chunks allocated.
    pub fn chunks(&self) -> usize {
        self.chunks.len()
    }
}

impl<V: Value> OpLog<V> {
    /// Bytes a chunk is allocated with; a record longer than this gets a
    /// chunk of exactly its own length. The first four chunks are smaller
    /// (256, 512, 1 024 and 2 048 B), so a client that completes a few
    /// dozen operations does not hold a whole chunk for them.
    const CHUNK_BYTES: usize = 4096;

    /// Capacity of the next chunk: doubling from 256 B up to
    /// [`OpLog::CHUNK_BYTES`], and never below the record it is for.
    fn next_chunk(&self, record: usize) -> Vec<u8> {
        let cap = (Self::CHUNK_BYTES >> 4) << self.chunks.len().min(4);
        Vec::with_capacity(cap.max(record))
    }

    /// An empty log; it allocates nothing until the first push.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `op` as the newest record.
    pub fn push(&mut self, op: &DynCompletedOp<V>) {
        let rec = &mut self.scratch;
        rec.clear();
        let (kind, value) = match &op.kind {
            OpKind::Write(v) => (WRITE, Some(v)),
            OpKind::Read(Some(v)) => (READ_VALUE, Some(v)),
            OpKind::Read(None) => (READ_BOTTOM, None),
        };
        let restarts = if op.restarts == 0 { 0 } else { RESTARTS };
        rec.push(kind | restarts);
        put_varint(rec, op.obj.0);
        if let Some(v) = value {
            v.put(rec);
        }
        put_varint(rec, op.invoke.0);
        put_varint(rec, op.response.0.wrapping_sub(op.invoke.0));
        if op.restarts != 0 {
            put_varint(rec, op.restarts);
        }

        let n = rec.len();
        match self.chunks.last() {
            Some(c) if c.bytes.len() + n <= c.bytes.capacity() => {}
            // The log is empty and its one kept chunk is too small.
            Some(c) if c.bytes.is_empty() => {
                let bytes = self.next_chunk(n);
                self.chunks.last_mut().expect("a kept chunk").bytes = bytes;
            }
            _ => {
                let bytes = self.next_chunk(n);
                self.chunks.push(Chunk {
                    first: self.len,
                    bytes,
                });
            }
        }
        let tail = self.chunks.last_mut().expect("a chunk to append to");
        self.last_at = tail.bytes.len();
        tail.bytes.extend_from_slice(&self.scratch);
        self.len += 1;
    }

    /// The newest record, decoded; `None` if the log is empty.
    pub fn last(&self) -> Option<DynCompletedOp<V>> {
        if self.len == 0 {
            return None;
        }
        let tail = self.chunks.last().expect("a nonempty log has a chunk");
        Some(decode(&mut Reader::new(&tail.bytes[self.last_at..])))
    }

    /// Removes and returns the newest record. Removing the only record
    /// keeps its chunk, so a push-then-pop loop allocates nothing once
    /// warm. If records remain in the last chunk, the newest of them is
    /// found by decoding that chunk from its start.
    pub fn pop(&mut self) -> Option<DynCompletedOp<V>> {
        let op = self.last()?;
        self.len -= 1;
        let tail = self.chunks.last_mut().expect("a nonempty log has a chunk");
        tail.bytes.truncate(self.last_at);
        if tail.bytes.is_empty() && self.chunks.len() > 1 {
            self.chunks.pop();
        }
        self.last_at = 0;
        if self.len > 0 {
            let tail = self.chunks.last().expect("a nonempty log has a chunk");
            let mut r = Reader::new(&tail.bytes);
            while r.remaining() > 0 {
                self.last_at = tail.bytes.len() - r.remaining();
                decode::<V>(&mut r);
            }
        }
        Some(op)
    }

    /// Record `i` (0 = oldest), decoded; `None` past the end.
    pub fn get(&self, i: usize) -> Option<DynCompletedOp<V>> {
        if i >= self.len {
            return None;
        }
        let c = &self.chunks[self.chunks.partition_point(|c| c.first <= i) - 1];
        let mut r = Reader::new(&c.bytes);
        for _ in c.first..i {
            decode::<V>(&mut r);
        }
        Some(decode(&mut r))
    }

    /// Every record, oldest first, decoded.
    pub fn iter(&self) -> Iter<'_, V> {
        Iter {
            chunks: self.chunks.iter(),
            r: Reader::new(&[]),
            left: self.len,
            _value: PhantomData,
        }
    }
}

/// Decodes the record at the front of `r`.
fn decode<V: Value>(r: &mut Reader<'_>) -> DynCompletedOp<V> {
    try_decode(r).expect("an op-log record decodes")
}

fn try_decode<V: Value>(r: &mut Reader<'_>) -> Result<DynCompletedOp<V>, FrameError> {
    let flags = r.byte()?;
    let obj = ObjectId(r.varint()?);
    let kind = match flags & KIND {
        WRITE => OpKind::Write(V::get(r)?),
        READ_VALUE => OpKind::Read(Some(V::get(r)?)),
        READ_BOTTOM => OpKind::Read(None),
        _ => unreachable!("op-log flags {flags:#x}"),
    };
    let invoke = r.varint()?;
    let response = invoke.wrapping_add(r.varint()?);
    let restarts = if flags & RESTARTS != 0 {
        r.varint()?
    } else {
        0
    };
    Ok(DynCompletedOp {
        obj,
        kind,
        invoke: Time(invoke),
        response: Time(response),
        restarts,
    })
}

/// The records of an [`OpLog`], oldest first ([`OpLog::iter`]).
pub struct Iter<'a, V> {
    chunks: std::slice::Iter<'a, Chunk>,
    r: Reader<'a>,
    left: usize,
    _value: PhantomData<fn() -> V>,
}

impl<V: Value> Iterator for Iter<'_, V> {
    type Item = DynCompletedOp<V>;

    fn next(&mut self) -> Option<DynCompletedOp<V>> {
        if self.left == 0 {
            return None;
        }
        while self.r.remaining() == 0 {
            self.r = Reader::new(&self.chunks.next()?.bytes);
        }
        self.left -= 1;
        Some(decode(&mut self.r))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<V: Value> ExactSizeIterator for Iter<'_, V> {}

impl<'a, V: Value> IntoIterator for &'a OpLog<V> {
    type Item = DynCompletedOp<V>;
    type IntoIter = Iter<'a, V>;

    fn into_iter(self) -> Iter<'a, V> {
        self.iter()
    }
}

impl<V> fmt::Debug for OpLog<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OpLog")
            .field("len", &self.len)
            .field("bytes", &self.bytes())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn op<V>(
        obj: u64,
        kind: OpKind<V>,
        invoke: u64,
        response: u64,
        restarts: u64,
    ) -> DynCompletedOp<V> {
        DynCompletedOp {
            obj: ObjectId(obj),
            kind,
            invoke: Time(invoke),
            response: Time(response),
            restarts,
        }
    }

    #[test]
    fn a_typical_record_is_far_below_the_struct() {
        // A write of a 3-byte value to a key above 128, 12 s into a run,
        // taking 150 ms: flags 1, key 2, value 3, invoke 5, latency 4.
        let mut log = OpLog::new();
        log.push(&op(
            2_000,
            OpKind::Write(70_000u64),
            12_000_000_000,
            12_150_000_000,
            0,
        ));
        assert_eq!(log.bytes(), 15);
        assert_eq!(std::mem::size_of::<DynCompletedOp<u64>>(), 48);
        log.push(&op(5, OpKind::Read(None), 1, 2, 3));
        assert_eq!(log.bytes(), 15 + 5, "⊥ has no value; restarts follow");
    }

    #[test]
    fn a_record_longer_than_a_chunk_gets_its_own() {
        let big = "x".repeat(3 * OpLog::<String>::CHUNK_BYTES);
        let mut log = OpLog::new();
        log.push(&op(1, OpKind::Write("a".to_string()), 0, 1, 0));
        log.push(&op(2, OpKind::Write(big.clone()), 0, 1, 0));
        log.push(&op(3, OpKind::Read(Some("b".to_string())), 0, 1, 0));
        assert_eq!(log.chunks(), 3);
        assert_eq!(log.get(1).map(|o| o.kind), Some(OpKind::Write(big)));
        assert_eq!(log.pop().map(|o| o.obj), Some(ObjectId(3)));
        assert_eq!(log.last().map(|o| o.obj), Some(ObjectId(2)));
    }

    /// One step of the model test.
    #[derive(Clone, Debug)]
    enum Step<V> {
        Push(DynCompletedOp<V>),
        Pop,
        Get(usize),
        Last,
        Iter,
    }

    /// Zero, `u64::MAX`, anything, or something small.
    fn edgy() -> impl Strategy<Value = u64> {
        (0..4u8, 0..u64::MAX).prop_map(|(c, x)| match c {
            0 => 0,
            1 => u64::MAX,
            2 => x,
            _ => x % 1_000_000,
        })
    }

    fn record<V>(value: impl Strategy<Value = V>) -> impl Strategy<Value = DynCompletedOp<V>> {
        let restarts = (0..4u8, 0..5u64).prop_map(|(c, x)| match c {
            0 | 1 => 0,
            2 => u64::MAX,
            _ => x,
        });
        (edgy(), 0..3u8, value, edgy(), edgy(), restarts).prop_map(
            |(obj, kind, v, invoke, response, restarts)| {
                let kind = match kind {
                    0 => OpKind::Write(v),
                    1 => OpKind::Read(Some(v)),
                    _ => OpKind::Read(None),
                };
                op(obj, kind, invoke, response, restarts)
            },
        )
    }

    /// Up to `max` steps, about half of them pushes.
    fn steps<V>(
        value: impl Strategy<Value = V>,
        max: usize,
    ) -> impl Strategy<Value = Vec<Step<V>>> {
        let step = (0..10u8, record(value), 0..max).prop_map(|(c, o, i)| match c {
            0..=4 => Step::Push(o),
            5 | 6 => Step::Pop,
            7 => Step::Get(i),
            8 => Step::Last,
            _ => Step::Iter,
        });
        collection::vec(step, 0..max)
    }

    /// Runs `steps` on an [`OpLog`] and on a `Vec` reference, comparing
    /// every answer.
    fn agrees_with_a_vec<V: Value>(steps: Vec<Step<V>>) -> Result<(), TestCaseError> {
        let mut log = OpLog::new();
        let mut model: Vec<DynCompletedOp<V>> = Vec::new();
        for step in steps {
            match step {
                Step::Push(o) => {
                    log.push(&o);
                    model.push(o);
                }
                Step::Pop => prop_assert_eq!(log.pop(), model.pop()),
                Step::Get(i) => prop_assert_eq!(log.get(i), model.get(i).cloned()),
                Step::Last => prop_assert_eq!(log.last(), model.last().cloned()),
                Step::Iter => prop_assert_eq!(log.iter().collect::<Vec<_>>(), model.clone()),
            }
            prop_assert_eq!(log.len(), model.len());
            prop_assert_eq!(log.is_empty(), model.is_empty());
        }
        prop_assert_eq!(log.iter().len(), model.len());
        prop_assert_eq!(log.iter().collect::<Vec<_>>(), model);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Hundreds of records: several chunks, pops across their seams.
        #[test]
        fn an_op_log_of_u64_agrees_with_a_vec(steps in steps(edgy(), 1_500)) {
            agrees_with_a_vec(steps)?;
        }

        /// Strings up to twice a chunk long, so some records need a chunk
        /// of their own.
        #[test]
        fn an_op_log_of_long_strings_agrees_with_a_vec(steps in steps(
            (0..4u8, 0..2 * OpLog::<String>::CHUNK_BYTES)
                .prop_map(|(c, n)| "v".repeat(if c == 0 { n } else { n % 40 })),
            120,
        )) {
            agrees_with_a_vec(steps)?;
        }
    }
}
