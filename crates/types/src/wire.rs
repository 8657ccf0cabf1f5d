//! The typed, positional codec — format [`WIRE_VERSION`] — and the frame
//! around it: one format for what a server sends and what it persists.
//!
//! A **frame** is one value, length-prefixed:
//!
//! ```text
//! +------------------------+------------------------------+
//! | length: LEB128, 1–4 B  | payload: the value, typed    |
//! +------------------------+------------------------------+
//! ```
//!
//! `length` counts the payload, and is written with the same varint as
//! every integer inside it, in its shortest form: one byte for a payload
//! under 128 B — every steady-state message — and at most four, since a
//! payload above [`MAX_FRAME`] is refused. A reader thus needs the prefix
//! and then exactly `length` more bytes for a whole frame. Every message
//! on an `awr_net` socket is one frame, and so is every record of
//! `awr_storage`'s file WAL and its snapshot.
//!
//! A frame carries no version: the format is stated once, at the start of
//! each stream — in `awr_net`'s connection hello, and in the file header
//! of the WAL and of the snapshot — and [`WIRE_VERSION`] is checked
//! there, before the first frame is read.
//!
//! A payload is the value's fields in declaration order, with no field
//! names, no type tags and no intermediate tree: [`Wire::put`] appends
//! straight to the writer's buffer and [`Wire::get`] reads straight out of
//! the reader's. A value that carries no change list, change set or
//! register map is encoded and decoded without touching the heap.
//!
//! This module holds the primitives on [`Reader`], the helpers for
//! sequences and maps, and the [`Wire`] impl of every primitive and
//! `awr_types` type; a message or record type defined further up (`WrMsg`
//! in `awr_core`, `DynMsg` and the WAL records in `awr_storage`) has its
//! impl next to its definition. **Any layout change bumps
//! [`WIRE_VERSION`]** — the format is positional, so two layouts cannot
//! share a version.
//!
//! # Layout
//!
//! Integers and counts are LEB128 varints (at most 10 bytes for 64
//! bits); digests are 8 bytes little endian; a `bool` is one byte, `0`
//! or `1`; an `Option` is such a byte and then the value if `1`; a
//! sequence, string or map is its count and then its elements, bytes or
//! `key value` pairs; an enum is one tag byte and then the variant's
//! fields; a struct is its fields in declaration order. Each impl is the
//! statement of its type's layout — `put` writes the fields in wire
//! order — and `docs/RUNTIME.md` tabulates them, one row per type.
//!
//! # The decoder is a trust boundary
//!
//! Every byte comes from a socket or a file. [`Reader`] never reads past
//! the payload; a claimed element count is checked against the bytes left
//! before anything is reserved ([`Reader::count`]); varints are capped; a
//! frame length above [`MAX_FRAME`], longer than [`MAX_PREFIX`] bytes or
//! not in its shortest form is refused before anything is allocated; an
//! unknown enum tag, a `bool` other than `0`/`1`, a zero denominator, a
//! server id that could size a table, and (in [`decode_frame`]) bytes
//! left over after the value are all [`FrameError::Codec`] — never a
//! panic.

use std::collections::BTreeMap;
use std::fmt;
use std::io;

use crate::{
    Change, ChangeSet, ClientId, CsRef, ObjectId, ProcessId, Ratio, ServerId, Tag, TaggedValue,
    TransferChanges,
};

/// The format version, stated once at the start of every stream: in
/// `awr_net`'s connection hello and in the header of each `awr_storage`
/// file. Version 1 (a self-describing value tree), version 2 (whose
/// `RAck`/`WAck` always carried a reference and ended in a `bool`),
/// version 3 (a `u32` length and a version byte in front of every frame)
/// version 4 (whose `read_changes` messages carried digests and
/// change-set references, and a write-back miss under tag 6), version 5
/// (which had no length-only [`CsRef`] summary) and version 6 (whose
/// phase-1 reply always carried the register's value, behind an option
/// byte) are refused like any other foreign version.
pub const WIRE_VERSION: u8 = 7;

/// Upper bound on a frame's payload, in bytes. Generous for this
/// workspace's values (a full change-set transfer is kilobytes) but small
/// enough that a garbage length prefix cannot exhaust memory.
pub const MAX_FRAME: usize = 16 << 20;

/// The most bytes a frame's length prefix takes: four 7-bit groups hold
/// any length up to [`MAX_FRAME`]. A frame is at most
/// `MAX_FRAME + MAX_PREFIX` bytes exactly when its payload is at most
/// `MAX_FRAME`, since a frame grows with its payload.
pub const MAX_PREFIX: usize = 4;

const _: () = assert!(MAX_FRAME < 1 << (7 * MAX_PREFIX));

/// Largest [`ServerId`] the decoder accepts. A server id indexes
/// per-server tables (a [`ChangeSet`] sizes its weight cache by the
/// highest target it holds), so it is bounded like a length before it can
/// size an allocation.
pub const MAX_SERVER_ID: u32 = u16::MAX as u32;

/// Fewest bytes a [`Change`] can occupy: 2 (issuer) + 1 + 1 + 2 (delta).
pub const MIN_CHANGE: usize = 6;

/// Everything that can go wrong reading or writing a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The stream closed cleanly at a frame boundary (orderly peer exit).
    Closed,
    /// The stream ended in the middle of a frame.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// The length the prefix claimed.
        len: usize,
    },
    /// The version a stream opens with (a connection hello, a file
    /// header) is not [`WIRE_VERSION`].
    BadVersion(u8),
    /// The payload bytes do not decode to the expected type.
    Codec(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame io error: {e}"),
            FrameError::Closed => write!(f, "stream closed at frame boundary"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Oversized { len } => {
                write!(f, "frame length {len} exceeds MAX_FRAME {MAX_FRAME}")
            }
            FrameError::BadVersion(v) => {
                write!(f, "wire version {v} (expected {WIRE_VERSION})")
            }
            FrameError::Codec(e) => write!(f, "frame payload codec error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        match e.kind() {
            io::ErrorKind::UnexpectedEof => FrameError::Truncated,
            _ => FrameError::Io(e),
        }
    }
}

/// Where [`Wire::put`] writes: a byte buffer, or a tally of the bytes a
/// buffer would receive — [`frame_len`]'s size-only pass. One `put` per
/// type thus states both a value's encoding and its size.
pub trait Sink {
    /// Appends one byte.
    fn push(&mut self, byte: u8);

    /// Appends `bytes`.
    fn extend_from_slice(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    #[inline]
    fn push(&mut self, byte: u8) {
        Vec::push(self, byte);
    }

    #[inline]
    fn extend_from_slice(&mut self, bytes: &[u8]) {
        Vec::extend_from_slice(self, bytes);
    }
}

/// A [`Sink`] that keeps only the number of bytes written to it.
struct Tally(usize);

impl Sink for Tally {
    #[inline]
    fn push(&mut self, _: u8) {
        self.0 += 1;
    }

    #[inline]
    fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// A type with a layout in the format of [`WIRE_VERSION`].
///
/// `put` and `get` must mirror each other field for field; adding a
/// message is one impl (or one arm of an enum's) plus one generator arm
/// in `crates/net/tests/codec_props.rs`.
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn put(&self, out: &mut impl Sink);

    /// Decodes one value from the front of `r`.
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError>;
}

/// A cursor over one frame's payload. Every read is bounds-checked and
/// consumes what it returns.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over `payload`.
    pub fn new(payload: &'a [u8]) -> Reader<'a> {
        Reader { buf: payload }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The next byte.
    pub fn byte(&mut self) -> Result<u8, FrameError> {
        let (&b, rest) = self
            .buf
            .split_first()
            .ok_or(FrameError::Codec("payload ends inside a value"))?;
        self.buf = rest;
        Ok(b)
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if n > self.buf.len() {
            return Err(FrameError::Codec("payload ends inside a value"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// An LEB128 varint of at most 64 bits. Nearly every field of every
    /// message is one, so it has a loop of its own: going through the
    /// 128-bit one below was measured at twice the decode time of a
    /// steady-state frame.
    pub fn varint(&mut self) -> Result<u64, FrameError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            // The tenth byte holds bit 63 alone.
            if shift == 63 && b > 1 {
                break;
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(FrameError::Codec("varint exceeds 64 bits"))
    }

    /// An LEB128 varint of at most 128 bits (a [`Ratio`]'s parts).
    fn varint128(&mut self) -> Result<u128, FrameError> {
        let mut v = 0u128;
        for shift in (0..128).step_by(7) {
            let b = self.byte()?;
            // The nineteenth byte holds bits 126 and 127 alone.
            if shift == 126 && b > 3 {
                break;
            }
            v |= u128::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(FrameError::Codec("varint exceeds 128 bits"))
    }

    /// A fixed-width digest: 8 bytes little endian.
    pub fn digest(&mut self) -> Result<u64, FrameError> {
        let bytes = self.bytes(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// An element count, refused unless `count × min_each` bytes are
    /// still present — so a reservation made from it is bounded by the
    /// input actually received. `min_each` is the fewest bytes one
    /// element can occupy (taken as 1 if 0).
    pub fn count(&mut self, min_each: usize) -> Result<usize, FrameError> {
        match usize::try_from(self.varint()?) {
            Ok(n) if n <= self.buf.len() / min_each.max(1) => Ok(n),
            _ => Err(FrameError::Codec("count exceeds the bytes present")),
        }
    }
}

/// Appends `v` as an LEB128 varint.
pub fn put_varint(out: &mut impl Sink, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_varint128(out: &mut impl Sink, mut v: u128) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Appends a fixed-width digest: 8 bytes little endian.
pub fn put_digest(out: &mut impl Sink, digest: u64) {
    out.extend_from_slice(&digest.to_le_bytes());
}

/// Appends a sequence of `len` items: the count, then each item.
pub fn put_seq<'a, T: Wire + 'a>(
    out: &mut impl Sink,
    len: usize,
    items: impl IntoIterator<Item = &'a T>,
) {
    put_varint(out, len as u64);
    for item in items {
        item.put(out);
    }
}

/// Reads a sequence written by [`put_seq`]; `min_each` as in
/// [`Reader::count`].
pub fn get_vec<T: Wire>(r: &mut Reader<'_>, min_each: usize) -> Result<Vec<T>, FrameError> {
    let n = r.count(min_each)?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(T::get(r)?);
    }
    Ok(items)
}

/// Appends a map: the count, then `key value` per entry in key order.
pub fn put_map<K: Wire, T: Wire>(out: &mut impl Sink, map: &BTreeMap<K, T>) {
    put_varint(out, map.len() as u64);
    for (k, v) in map {
        k.put(out);
        v.put(out);
    }
}

/// Reads a map written by [`put_map`]; `min_each` (the fewest bytes one
/// entry can occupy) as in [`Reader::count`].
pub fn get_map<K: Wire + Ord, T: Wire>(
    r: &mut Reader<'_>,
    min_each: usize,
) -> Result<BTreeMap<K, T>, FrameError> {
    let n = r.count(min_each)?;
    let mut map = BTreeMap::new();
    for _ in 0..n {
        map.insert(K::get(r)?, T::get(r)?);
    }
    Ok(map)
}

/// Bytes [`put_varint`] writes for `v`.
fn varint_len(v: u64) -> usize {
    (70 - (v | 1).leading_zeros() as usize) / 7
}

/// Appends `msg` to `out` as one complete frame, returning the frame's
/// size. The value is encoded in place behind one byte reserved for its
/// length, which is then patched, so a writer can encode straight into
/// its buffer — without allocating, once the buffer has the capacity.
/// Only a payload of 128 B or more, whose length takes more than that
/// byte, is moved up to make room for it.
pub fn encode_frame_into<T: Wire>(msg: &T, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.push(0);
    msg.put(out);
    let len = out.len() - start - 1;
    if len < 0x80 {
        out[start] = len as u8;
        return 1 + len;
    }
    widen_prefix(out, start, len)
}

/// Makes room for the length of the `len`-byte payload at `out[start +
/// 1..]`, which takes more than the one byte reserved for it, and writes
/// it; returns the frame's size. Out of line, so that the common frame's
/// encoder stays small. A payload past `MAX_FRAME` is framed all the
/// same; the writer checks the returned size against
/// `MAX_FRAME + MAX_PREFIX` before writing.
#[cold]
#[inline(never)]
fn widen_prefix(out: &mut Vec<u8>, start: usize, len: usize) -> usize {
    let prefix = varint_len(len as u64);
    out.resize(out.len() + prefix - 1, 0);
    out.copy_within(start + 1..start + 1 + len, start + prefix);
    let mut v = len;
    for byte in &mut out[start..start + prefix - 1] {
        *byte = v as u8 | 0x80;
        v >>= 7;
    }
    out[start + prefix - 1] = v as u8;
    prefix + len
}

/// The bytes [`encode_frame_into`] would write for `msg`, length prefix
/// included: what a message costs on a socket, and so what the simulator
/// charges for it. The same [`Wire::put`] runs into a [`Sink`] that only
/// counts, so sizing a message neither copies nor allocates.
pub fn frame_len<T: Wire>(msg: &T) -> usize {
    let mut tally = Tally(0);
    msg.put(&mut tally);
    varint_len(tally.0 as u64) + tally.0
}

/// Encodes `msg` as one complete frame (length prefix + payload).
pub fn encode_frame<T: Wire>(msg: &T) -> Vec<u8> {
    // Room for any frame without a change list or register map, so that
    // the returned buffer is this call's one allocation.
    let mut frame = Vec::with_capacity(64);
    encode_frame_into(msg, &mut frame);
    frame
}

/// Reads the length prefix at the front of `buf`: `Ok(Some((len,
/// prefix)))` — a payload of `len` bytes follows the `prefix` bytes of
/// the length — or `Ok(None)` while the prefix is still incomplete. A
/// length above [`MAX_FRAME`], one that would take more than
/// [`MAX_PREFIX`] bytes, and one not in its shortest form are refused
/// from the prefix alone.
#[inline]
pub fn frame_prefix(buf: &[u8]) -> Result<Option<(usize, usize)>, FrameError> {
    let mut len = 0;
    for (i, &b) in buf.iter().take(MAX_PREFIX).enumerate() {
        len |= usize::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            if b == 0 && i > 0 {
                return Err(FrameError::Codec("frame length not in its shortest form"));
            }
            if len > MAX_FRAME {
                return Err(FrameError::Oversized { len });
            }
            return Ok(Some((len, i + 1)));
        }
    }
    if buf.len() >= MAX_PREFIX {
        return Err(FrameError::Codec(
            "frame length longer than MAX_PREFIX bytes",
        ));
    }
    Ok(None)
}

/// Tries to decode one frame from the front of `buf`.
///
/// Returns `Ok(None)` when `buf` holds only a *prefix* of a frame (read
/// more bytes and retry), `Ok(Some((msg, consumed)))` on success — drain
/// `consumed` bytes — and an error when the bytes present already prove
/// the frame bad (a refused length, a corrupt payload).
pub fn decode_frame<T: Wire>(buf: &[u8]) -> Result<Option<(T, usize)>, FrameError> {
    let Some((len, prefix)) = frame_prefix(buf)? else {
        return Ok(None);
    };
    let Some(payload) = buf.get(prefix..prefix + len) else {
        return Ok(None);
    };
    let mut payload = Reader::new(payload);
    let msg = T::get(&mut payload)?;
    if payload.remaining() != 0 {
        return Err(FrameError::Codec("trailing bytes after the message"));
    }
    Ok(Some((msg, prefix + len)))
}

/// An encode → decode round trip through a whole frame, for tests and for
/// cross-checking that a type's [`Wire`] impl mirrors itself.
pub fn roundtrip<T: Wire>(msg: &T) -> Result<T, FrameError> {
    match decode_frame(&encode_frame(msg))? {
        Some((out, _)) => Ok(out),
        None => Err(FrameError::Truncated),
    }
}

impl Wire for u64 {
    fn put(&self, out: &mut impl Sink) {
        put_varint(out, *self);
    }

    fn get(r: &mut Reader<'_>) -> Result<u64, FrameError> {
        r.varint()
    }
}

impl Wire for u32 {
    fn put(&self, out: &mut impl Sink) {
        put_varint(out, u64::from(*self));
    }

    fn get(r: &mut Reader<'_>) -> Result<u32, FrameError> {
        u32::try_from(r.varint()?).map_err(|_| FrameError::Codec("integer exceeds 32 bits"))
    }
}

impl Wire for usize {
    fn put(&self, out: &mut impl Sink) {
        put_varint(out, *self as u64);
    }

    fn get(r: &mut Reader<'_>) -> Result<usize, FrameError> {
        usize::try_from(r.varint()?).map_err(|_| FrameError::Codec("integer exceeds usize"))
    }
}

impl Wire for bool {
    fn put(&self, out: &mut impl Sink) {
        out.push(u8::from(*self));
    }

    fn get(r: &mut Reader<'_>) -> Result<bool, FrameError> {
        match r.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(FrameError::Codec("bool is neither 0 nor 1")),
        }
    }
}

impl Wire for String {
    fn put(&self, out: &mut impl Sink) {
        self.len().put(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn get(r: &mut Reader<'_>) -> Result<String, FrameError> {
        let n = r.count(1)?;
        String::from_utf8(r.bytes(n)?.to_vec())
            .map_err(|_| FrameError::Codec("string is not UTF-8"))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut impl Sink) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Option<T>, FrameError> {
        Ok(if bool::get(r)? {
            Some(T::get(r)?)
        } else {
            None
        })
    }
}

impl Wire for ServerId {
    fn put(&self, out: &mut impl Sink) {
        self.0.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<ServerId, FrameError> {
        match u32::get(r)? {
            id if id <= MAX_SERVER_ID => Ok(ServerId(id)),
            _ => Err(FrameError::Codec("server id exceeds MAX_SERVER_ID")),
        }
    }
}

impl Wire for ClientId {
    fn put(&self, out: &mut impl Sink) {
        self.0.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<ClientId, FrameError> {
        Ok(ClientId(u32::get(r)?))
    }
}

impl Wire for ObjectId {
    fn put(&self, out: &mut impl Sink) {
        self.0.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<ObjectId, FrameError> {
        Ok(ObjectId(u64::get(r)?))
    }
}

impl Wire for ProcessId {
    fn put(&self, out: &mut impl Sink) {
        match self {
            ProcessId::Server(s) => {
                out.push(0);
                s.put(out);
            }
            ProcessId::Client(c) => {
                out.push(1);
                c.put(out);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<ProcessId, FrameError> {
        match r.byte()? {
            0 => Ok(ProcessId::Server(ServerId::get(r)?)),
            1 => Ok(ProcessId::Client(ClientId::get(r)?)),
            _ => Err(FrameError::Codec("unknown ProcessId tag")),
        }
    }
}

impl Wire for Ratio {
    fn put(&self, out: &mut impl Sink) {
        let n = self.numer();
        put_varint128(out, ((n << 1) ^ (n >> 127)) as u128);
        put_varint128(out, self.denom() as u128);
    }

    fn get(r: &mut Reader<'_>) -> Result<Ratio, FrameError> {
        let z = r.varint128()?;
        let num = ((z >> 1) as i128) ^ -((z & 1) as i128);
        let den = i128::try_from(r.varint128()?)
            .map_err(|_| FrameError::Codec("denominator exceeds i128"))?;
        // `Ratio::new` panics on a zero denominator and cannot negate
        // `i128::MIN`; no ratio built by this program holds either.
        if den == 0 || num == i128::MIN {
            return Err(FrameError::Codec("ratio out of range"));
        }
        Ok(Ratio::new(num, den))
    }
}

impl Wire for Tag {
    fn put(&self, out: &mut impl Sink) {
        self.ts.put(out);
        self.pid.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Tag, FrameError> {
        Ok(Tag {
            ts: u64::get(r)?,
            pid: ProcessId::get(r)?,
        })
    }
}

impl<V: Wire> Wire for TaggedValue<V> {
    fn put(&self, out: &mut impl Sink) {
        self.tag.put(out);
        self.value.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<TaggedValue<V>, FrameError> {
        Ok(TaggedValue {
            tag: Tag::get(r)?,
            value: Option::get(r)?,
        })
    }
}

impl Wire for Change {
    fn put(&self, out: &mut impl Sink) {
        self.issuer.put(out);
        self.counter.put(out);
        self.target.put(out);
        self.delta.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Change, FrameError> {
        Ok(Change {
            issuer: ProcessId::get(r)?,
            counter: u64::get(r)?,
            target: ServerId::get(r)?,
            delta: Ratio::get(r)?,
        })
    }
}

impl Wire for TransferChanges {
    fn put(&self, out: &mut impl Sink) {
        self.debit.put(out);
        self.credit.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<TransferChanges, FrameError> {
        Ok(TransferChanges {
            debit: Change::get(r)?,
            credit: Change::get(r)?,
        })
    }
}

/// Set order. A decoded set's journal is in that order, whatever the
/// writer's was.
impl Wire for ChangeSet {
    fn put(&self, out: &mut impl Sink) {
        put_seq(out, self.len(), self);
    }

    fn get(r: &mut Reader<'_>) -> Result<ChangeSet, FrameError> {
        let n = r.count(MIN_CHANGE)?;
        (0..n).map(|_| Change::get(r)).collect()
    }
}

/// A summary whose digest is 0 — the [length-only](CsRef::length_only)
/// form — is its own tag and the length: 2–3 bytes for the sets of a
/// running deployment, against 10–11 with the digest. Tag 0 with a zero
/// digest is refused, so each value has one encoding.
impl Wire for CsRef {
    fn put(&self, out: &mut impl Sink) {
        match self {
            CsRef::Summary { digest: 0, len } => {
                out.push(3);
                len.put(out);
            }
            CsRef::Summary { digest, len } => {
                out.push(0);
                put_digest(out, *digest);
                len.put(out);
            }
            CsRef::Delta { base_digest, adds } => {
                out.push(1);
                put_digest(out, *base_digest);
                put_seq(out, adds.len(), adds);
            }
            CsRef::Full(set) => {
                out.push(2);
                set.put(out);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<CsRef, FrameError> {
        match r.byte()? {
            0 => match r.digest()? {
                0 => Err(FrameError::Codec(
                    "a zero-digest summary not in its length-only form",
                )),
                digest => Ok(CsRef::Summary {
                    digest,
                    len: usize::get(r)?,
                }),
            },
            1 => Ok(CsRef::Delta {
                base_digest: r.digest()?,
                adds: get_vec(r, MIN_CHANGE)?,
            }),
            2 => Ok(CsRef::Full(ChangeSet::get(r)?)),
            3 => Ok(CsRef::length_only(usize::get(r)?)),
            _ => Err(FrameError::Codec("unknown CsRef tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec_error<T>(got: Result<T, FrameError>) -> bool {
        matches!(got, Err(FrameError::Codec(_)))
    }

    #[test]
    fn scalars_roundtrip_at_their_extremes() {
        for v in [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(roundtrip(&v).unwrap(), v);
        }
        for v in [0, u32::MAX] {
            assert_eq!(roundtrip(&v).unwrap(), v);
        }
        for v in [false, true] {
            assert_eq!(roundtrip(&v).unwrap(), v);
        }
        for v in [None, Some(0u64), Some(u64::MAX)] {
            assert_eq!(roundtrip(&v).unwrap(), v);
        }

        // u64::MAX is ten bytes ending in 1; anything more is refused.
        let mut max = Vec::new();
        put_varint(&mut max, u64::MAX);
        assert_eq!(
            max,
            [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1]
        );
        for last in [2, 0x81] {
            max[9] = last;
            assert!(codec_error(Reader::new(&max).varint()));
        }
        assert!(codec_error(Reader::new(&[0x80; 11]).varint()));
        assert!(codec_error(Reader::new(&[0x80]).varint()));
        let mut wide = Vec::new();
        put_varint(&mut wide, u64::from(u32::MAX) + 1);
        assert!(codec_error(u32::get(&mut Reader::new(&wide))));
        assert!(codec_error(bool::get(&mut Reader::new(&[2]))));
        assert!(codec_error(Option::<u64>::get(&mut Reader::new(&[2, 0]))));
    }

    #[test]
    fn varint_len_counts_what_put_varint_writes() {
        for v in [0, 1, 127, 128, 16_383, 16_384, MAX_FRAME as u64, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            assert_eq!(varint_len(v), out.len(), "{v}");
        }
    }

    /// A string whose encoding — its count, then its bytes — is `n` bytes.
    fn string_of_payload(n: usize) -> String {
        let chars = (n.saturating_sub(3)..n)
            .find(|&k| varint_len(k as u64) + k == n)
            .expect("a length for every payload size");
        "x".repeat(chars)
    }

    /// Payloads either side of the sizes at which the length takes one
    /// byte more: encoded in place (behind earlier bytes too) with the
    /// shortest prefix, sized by `frame_len`, decoded back, and every
    /// proper prefix — a cut inside the length included — incomplete.
    #[test]
    fn payloads_either_side_of_a_length_byte_roundtrip() {
        for (n, prefix) in [(127, 1), (128, 2), (16_383, 2), (16_384, 3)] {
            let value = string_of_payload(n);
            let frame = encode_frame(&value);
            assert_eq!(frame.len(), prefix + n, "{n}");
            assert_eq!(frame_len(&value), frame.len(), "{n}");
            let mut length = Vec::new();
            put_varint(&mut length, n as u64);
            assert_eq!(frame[..prefix], length, "{n}");
            assert_eq!(roundtrip(&value).unwrap(), value);

            let mut out = b"earlier".to_vec();
            assert_eq!(encode_frame_into(&value, &mut out), frame.len());
            assert_eq!(out[..7], *b"earlier");
            assert_eq!(out[7..], frame);
            for cut in 0..frame.len() {
                assert!(matches!(decode_frame::<String>(&frame[..cut]), Ok(None)));
            }
        }
    }

    #[test]
    fn a_bad_length_is_refused_from_the_prefix_alone() {
        // `MAX_FRAME + 1`, with no payload behind it; `MAX_FRAME` itself
        // waits for its payload.
        let mut over = Vec::new();
        put_varint(&mut over, MAX_FRAME as u64 + 1);
        assert_eq!(over.len(), MAX_PREFIX);
        assert!(matches!(
            decode_frame::<u64>(&over),
            Err(FrameError::Oversized { len }) if len == MAX_FRAME + 1
        ));
        let mut max = Vec::new();
        put_varint(&mut max, MAX_FRAME as u64);
        assert!(matches!(decode_frame::<u64>(&max), Ok(None)));

        // A fifth length byte is refused as soon as four continuation
        // bytes are present; three are still a prefix.
        assert!(codec_error(decode_frame::<u64>(&[0x80; 4])));
        assert!(codec_error(decode_frame::<u64>(&[
            0xff, 0xff, 0xff, 0xff, 0x01
        ])));
        assert!(matches!(decode_frame::<u64>(&[0x80; 3]), Ok(None)));

        // Over-long forms: 1 and 0 in two bytes, 128 in three.
        for frame in [&[0x81, 0x00, 7][..], &[0x80, 0x00], &[0x80, 0x81, 0x00]] {
            assert!(codec_error(decode_frame::<u64>(frame)), "{frame:?}");
        }
    }

    #[test]
    fn nested_values_roundtrip() {
        let change = Change::new(ClientId(7), 9, ServerId(1), Ratio::new(-3, 7));
        let set: ChangeSet = [change, Change::initial(ServerId(0), Ratio::ONE)]
            .into_iter()
            .collect();
        for changes in [
            CsRef::summary(&set),
            CsRef::length_only(set.len()),
            CsRef::length_only(300),
            CsRef::NONE,
            CsRef::Delta {
                base_digest: u64::MAX,
                adds: vec![change],
            },
            CsRef::Delta {
                base_digest: 0,
                adds: Vec::new(),
            },
            CsRef::Full(set.clone()),
            CsRef::Full(ChangeSet::new()),
        ] {
            assert_eq!(roundtrip(&changes).unwrap(), changes);
        }
        let mut bytes = Vec::new();
        CsRef::length_only(300).put(&mut bytes);
        assert_eq!(bytes, [3, 0xAC, 0x02]);
        // The same value under the digest-carrying tag is refused.
        let mut zero = vec![0];
        put_digest(&mut zero, 0);
        zero.push(5);
        assert!(codec_error(CsRef::get(&mut Reader::new(&zero))));

        let back = roundtrip(&set).unwrap();
        assert_eq!((back.digest(), back.len()), (set.digest(), set.len()));

        for reg in [
            TaggedValue::<u64>::bottom(),
            TaggedValue::new(Tag::new(u64::MAX, ProcessId::Server(ServerId(2))), 0),
        ] {
            assert_eq!(roundtrip(&reg).unwrap(), reg);
        }
    }

    /// Every `awr_types` value with a layout, plus strings.
    #[test]
    fn every_type_roundtrips() {
        fn check<T: Wire + PartialEq + fmt::Debug>(v: T) {
            assert_eq!(roundtrip(&v).unwrap(), v);
        }
        check(Ratio::dec("0.7"));
        check(Ratio::new(-7, 3));
        check(ServerId(3));
        check(ClientId(0));
        check(ObjectId(u64::MAX));
        check(ProcessId::Server(ServerId(1)));
        check(Change::new(ServerId(0), 2, ServerId(1), Ratio::dec("0.25")));
        check(ChangeSet::uniform_initial(4, Ratio::ONE));
        check(Tag::new(3, ProcessId::Client(ClientId(1))));
        check(TaggedValue::new(Tag::bottom(), 42u64));
        check(TransferChanges::new(
            ServerId(0),
            ServerId(1),
            2,
            Ratio::dec("0.1"),
            true,
        ));
        check(String::new());
        check("W_A ⟨T⟩".to_string());
        assert!(codec_error(String::get(&mut Reader::new(&[1, 0xff]))));
    }

    #[test]
    fn a_count_is_checked_against_the_bytes_left_before_use() {
        // Three elements of at least two bytes each need six bytes.
        let mut payload = vec![3];
        payload.extend_from_slice(&[0; 6]);
        assert_eq!(Reader::new(&payload).count(2).unwrap(), 3);
        assert!(codec_error(Reader::new(&payload[..6]).count(2)));

        // A count no allocation could serve is refused like any other.
        let mut huge = Vec::new();
        put_varint(&mut huge, u64::MAX);
        huge.extend_from_slice(&[0; 64]);
        assert!(codec_error(Reader::new(&huge).count(1)));
        assert!(codec_error(get_vec::<Change>(
            &mut Reader::new(&huge),
            MIN_CHANGE
        )));
        assert!(codec_error(ChangeSet::get(&mut Reader::new(&huge))));
    }
}
