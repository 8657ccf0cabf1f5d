//! The typed, positional payload codec — wire format **version 2**.
//!
//! A frame's payload is the message's fields in declaration order, with
//! no field names, no type tags and no intermediate tree: [`Wire::put`]
//! appends straight to the sender's write buffer and [`Wire::get`] reads
//! straight out of the receiver's read buffer. A message that carries no
//! change list, change set or register map is encoded and decoded without
//! touching the heap.
//!
//! The whole format lives in this module: the primitives on [`Reader`]
//! and one [`Wire`] impl per type that crosses a socket. **Any layout
//! change bumps [`WIRE_VERSION`](crate::frame::WIRE_VERSION)** — the
//! format is positional, so two layouts cannot share a version.
//!
//! # Layout
//!
//! Integers and counts are LEB128 varints (at most 10 bytes for 64
//! bits); digests are 8 bytes little endian; a `bool` is one byte, `0`
//! or `1`; an `Option` is such a byte and then the value if `1`; a
//! sequence or map is its count and then its elements or `key value`
//! pairs; an enum is one tag byte and then the variant's fields; a
//! struct is its fields in declaration order. Each impl below is the
//! statement of its type's layout — `put` writes the fields in wire
//! order — and `docs/RUNTIME.md` tabulates them, one row per type.
//!
//! # The decoder is a trust boundary
//!
//! Every byte comes from a socket. [`Reader`] never reads past the
//! payload; a claimed element count is checked against the bytes left
//! before anything is reserved ([`Reader::count`]); varints are capped;
//! an unknown enum tag, a `bool` other than `0`/`1`, a zero denominator,
//! a server id that could size a table, and (in
//! [`decode_frame`](crate::frame::decode_frame)) bytes left over after
//! the message are all [`FrameError::Codec`] — never a panic.

use std::collections::BTreeMap;

use awr_core::restricted::WrMsg;
use awr_core::RbEnvelope;
use awr_sim::ActorId;
use awr_storage::{DynMsg, RefreshHave, Value};
use awr_types::{
    Change, ChangeSet, ClientId, CsRef, ObjectId, ProcessId, Ratio, ServerId, Tag, TaggedValue,
    TransferChanges,
};

use crate::frame::FrameError;

/// Largest [`ServerId`] the decoder accepts. A server id indexes
/// per-server tables (a [`ChangeSet`] sizes its weight cache by the
/// highest target it holds), so it is bounded like a length before it can
/// size an allocation.
pub const MAX_SERVER_ID: u32 = u16::MAX as u32;

/// Fewest bytes a [`Change`] can occupy: 2 (issuer) + 1 + 1 + 2 (delta).
const MIN_CHANGE: usize = 6;

/// A type with a version-2 wire layout.
///
/// `put` and `get` must mirror each other field for field; adding a
/// message is one impl (or one arm of an enum's) here plus one generator
/// arm in `tests/codec_props.rs`.
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);

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
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_varint128(out: &mut Vec<u8>, mut v: u128) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Appends a fixed-width digest: 8 bytes little endian.
pub fn put_digest(out: &mut Vec<u8>, digest: u64) {
    out.extend_from_slice(&digest.to_le_bytes());
}

fn put_seq<'a, T: Wire + 'a>(
    out: &mut Vec<u8>,
    len: usize,
    items: impl IntoIterator<Item = &'a T>,
) {
    put_varint(out, len as u64);
    for item in items {
        item.put(out);
    }
}

fn get_vec<T: Wire>(r: &mut Reader<'_>, min_each: usize) -> Result<Vec<T>, FrameError> {
    let n = r.count(min_each)?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(T::get(r)?);
    }
    Ok(items)
}

fn put_map<K: Wire, T: Wire>(out: &mut Vec<u8>, map: &BTreeMap<K, T>) {
    put_varint(out, map.len() as u64);
    for (k, v) in map {
        k.put(out);
        v.put(out);
    }
}

fn get_map<K: Wire + Ord, T: Wire>(
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

impl Wire for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }

    fn get(r: &mut Reader<'_>) -> Result<u64, FrameError> {
        r.varint()
    }
}

impl Wire for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(*self));
    }

    fn get(r: &mut Reader<'_>) -> Result<u32, FrameError> {
        u32::try_from(r.varint()?).map_err(|_| FrameError::Codec("integer exceeds 32 bits"))
    }
}

impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }

    fn get(r: &mut Reader<'_>) -> Result<usize, FrameError> {
        usize::try_from(r.varint()?).map_err(|_| FrameError::Codec("integer exceeds usize"))
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
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

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
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
    fn put(&self, out: &mut Vec<u8>) {
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
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<ClientId, FrameError> {
        Ok(ClientId(u32::get(r)?))
    }
}

impl Wire for ObjectId {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<ObjectId, FrameError> {
        Ok(ObjectId(u64::get(r)?))
    }
}

impl Wire for ActorId {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<ActorId, FrameError> {
        Ok(ActorId(usize::get(r)?))
    }
}

impl Wire for ProcessId {
    fn put(&self, out: &mut Vec<u8>) {
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
    fn put(&self, out: &mut Vec<u8>) {
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
    fn put(&self, out: &mut Vec<u8>) {
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
    fn put(&self, out: &mut Vec<u8>) {
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
    fn put(&self, out: &mut Vec<u8>) {
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
    fn put(&self, out: &mut Vec<u8>) {
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

/// Set order on the wire. A decoded set's journal is in that order with
/// nothing compacted, whatever the sender's was: owners re-compact on
/// their own cadence.
impl Wire for ChangeSet {
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(out, self.len(), self);
    }

    fn get(r: &mut Reader<'_>) -> Result<ChangeSet, FrameError> {
        let n = r.count(MIN_CHANGE)?;
        (0..n).map(|_| Change::get(r)).collect()
    }
}

impl Wire for CsRef {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
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
            0 => Ok(CsRef::Summary {
                digest: r.digest()?,
                len: usize::get(r)?,
            }),
            1 => Ok(CsRef::Delta {
                base_digest: r.digest()?,
                adds: get_vec(r, MIN_CHANGE)?,
            }),
            2 => Ok(CsRef::Full(ChangeSet::get(r)?)),
            _ => Err(FrameError::Codec("unknown CsRef tag")),
        }
    }
}

impl Wire for RefreshHave {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            RefreshHave::Tags(tags) => {
                out.push(0);
                put_map(out, tags);
            }
            RefreshHave::Digest { digest, count } => {
                out.push(1);
                put_digest(out, *digest);
                count.put(out);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<RefreshHave, FrameError> {
        match r.byte()? {
            // An object id and a tag: at least 1 + 3 bytes.
            0 => Ok(RefreshHave::Tags(get_map(r, 4)?)),
            1 => Ok(RefreshHave::Digest {
                digest: r.digest()?,
                count: usize::get(r)?,
            }),
            _ => Err(FrameError::Codec("unknown RefreshHave tag")),
        }
    }
}

impl Wire for WrMsg {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            WrMsg::Rb(env) => {
                out.push(0);
                env.origin.put(out);
                env.seq.put(out);
                put_seq(out, env.payload.len(), &env.payload);
            }
            WrMsg::TAck { counter } => {
                out.push(1);
                counter.put(out);
            }
            WrMsg::Rc { op, target, known } => {
                out.push(2);
                op.put(out);
                target.put(out);
                put_digest(out, *known);
            }
            WrMsg::RcAck { op, changes } => {
                out.push(3);
                op.put(out);
                changes.put(out);
            }
            WrMsg::Wc {
                op,
                target,
                changes,
            } => {
                out.push(4);
                op.put(out);
                target.put(out);
                changes.put(out);
            }
            WrMsg::WcAck { op } => {
                out.push(5);
                op.put(out);
            }
            WrMsg::WcMiss { op, have } => {
                out.push(6);
                op.put(out);
                put_digest(out, *have);
            }
            WrMsg::Invoke { to, delta } => {
                out.push(7);
                to.put(out);
                delta.put(out);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<WrMsg, FrameError> {
        match r.byte()? {
            0 => Ok(WrMsg::Rb(RbEnvelope {
                origin: ActorId::get(r)?,
                seq: u64::get(r)?,
                payload: get_vec(r, 2 * MIN_CHANGE)?,
            })),
            1 => Ok(WrMsg::TAck {
                counter: u64::get(r)?,
            }),
            2 => Ok(WrMsg::Rc {
                op: u64::get(r)?,
                target: ServerId::get(r)?,
                known: r.digest()?,
            }),
            3 => Ok(WrMsg::RcAck {
                op: u64::get(r)?,
                changes: CsRef::get(r)?,
            }),
            4 => Ok(WrMsg::Wc {
                op: u64::get(r)?,
                target: ServerId::get(r)?,
                changes: CsRef::get(r)?,
            }),
            5 => Ok(WrMsg::WcAck { op: u64::get(r)? }),
            6 => Ok(WrMsg::WcMiss {
                op: u64::get(r)?,
                have: r.digest()?,
            }),
            7 => Ok(WrMsg::Invoke {
                to: ServerId::get(r)?,
                delta: Ratio::get(r)?,
            }),
            _ => Err(FrameError::Codec("unknown WrMsg tag")),
        }
    }
}

impl<V: Value + Wire> Wire for DynMsg<V> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            DynMsg::Wr(m) => {
                out.push(0);
                m.put(out);
            }
            DynMsg::R { op, obj, changes } => {
                out.push(1);
                op.put(out);
                obj.put(out);
                changes.put(out);
            }
            DynMsg::RAck {
                op,
                obj,
                reg,
                changes,
                accepted,
            } => {
                out.push(2);
                op.put(out);
                obj.put(out);
                reg.put(out);
                changes.put(out);
                accepted.put(out);
            }
            DynMsg::W {
                op,
                obj,
                reg,
                changes,
            } => {
                out.push(3);
                op.put(out);
                obj.put(out);
                reg.put(out);
                changes.put(out);
            }
            DynMsg::WAck {
                op,
                obj,
                changes,
                accepted,
            } => {
                out.push(4);
                op.put(out);
                obj.put(out);
                changes.put(out);
                accepted.put(out);
            }
            DynMsg::RefreshR { op, have } => {
                out.push(5);
                op.put(out);
                have.put(out);
            }
            DynMsg::RefreshAck {
                op,
                regs,
                need_tags,
            } => {
                out.push(6);
                op.put(out);
                put_map(out, regs);
                need_tags.put(out);
            }
            DynMsg::SyncR { digest } => {
                out.push(7);
                put_digest(out, *digest);
            }
            DynMsg::SyncAck { changes } => {
                out.push(8);
                changes.put(out);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<DynMsg<V>, FrameError> {
        match r.byte()? {
            0 => Ok(DynMsg::Wr(WrMsg::get(r)?)),
            1 => Ok(DynMsg::R {
                op: u64::get(r)?,
                obj: ObjectId::get(r)?,
                changes: CsRef::get(r)?,
            }),
            2 => Ok(DynMsg::RAck {
                op: u64::get(r)?,
                obj: ObjectId::get(r)?,
                reg: TaggedValue::get(r)?,
                changes: CsRef::get(r)?,
                accepted: bool::get(r)?,
            }),
            3 => Ok(DynMsg::W {
                op: u64::get(r)?,
                obj: ObjectId::get(r)?,
                reg: TaggedValue::get(r)?,
                changes: CsRef::get(r)?,
            }),
            4 => Ok(DynMsg::WAck {
                op: u64::get(r)?,
                obj: ObjectId::get(r)?,
                changes: CsRef::get(r)?,
                accepted: bool::get(r)?,
            }),
            5 => Ok(DynMsg::RefreshR {
                op: u64::get(r)?,
                have: RefreshHave::get(r)?,
            }),
            6 => Ok(DynMsg::RefreshAck {
                op: u64::get(r)?,
                // An object id, a tag and the option byte: at least 5 bytes.
                regs: get_map(r, 5)?,
                need_tags: bool::get(r)?,
            }),
            7 => Ok(DynMsg::SyncR {
                digest: r.digest()?,
            }),
            8 => Ok(DynMsg::SyncAck {
                changes: CsRef::get(r)?,
            }),
            _ => Err(FrameError::Codec("unknown DynMsg tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::roundtrip;

    fn codec_error<T>(got: Result<T, FrameError>) -> bool {
        matches!(got, Err(FrameError::Codec(_)))
    }

    /// The layout itself, byte for byte: a change here is a change of
    /// `WIRE_VERSION`.
    #[test]
    fn the_version_2_layout_is_pinned() {
        let msg: DynMsg<u64> = DynMsg::RAck {
            op: 300,
            obj: ObjectId(2),
            reg: TaggedValue::new(Tag::new(5, ProcessId::Client(ClientId(1))), 9),
            changes: CsRef::Summary {
                digest: 0x0102_0304_0506_0708,
                len: 130,
            },
            accepted: true,
        };
        let mut bytes = Vec::new();
        msg.put(&mut bytes);
        assert_eq!(
            bytes,
            [
                2, // RAck
                0xAC, 0x02, // op 300
                2,    // obj
                5, 1, 1, // tag: ts 5, client 1
                1, 9, // Some(9)
                0, 8, 7, 6, 5, 4, 3, 2, 1, 0x82, 0x01, // summary: digest, len 130
                1,    // accepted
            ]
        );

        let change = Change::new(ServerId(3), 2, ServerId(4), Ratio::new(-1, 8));
        let mut bytes = Vec::new();
        change.put(&mut bytes);
        assert_eq!(bytes, [0, 3, 2, 4, 1, 8]);
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
    fn nested_values_roundtrip() {
        let change = Change::new(ClientId(7), 9, ServerId(1), Ratio::new(-3, 7));
        let set: ChangeSet = [change, Change::initial(ServerId(0), Ratio::ONE)]
            .into_iter()
            .collect();
        for changes in [
            CsRef::summary(&set),
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
        let back = roundtrip(&set).unwrap();
        assert_eq!((back.digest(), back.len()), (set.digest(), set.len()));

        for reg in [
            TaggedValue::<u64>::bottom(),
            TaggedValue::new(Tag::new(u64::MAX, ProcessId::Server(ServerId(2))), 0),
        ] {
            assert_eq!(roundtrip(&reg).unwrap(), reg);
        }
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
