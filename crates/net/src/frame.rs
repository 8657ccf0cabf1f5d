//! Length-prefixed binary frames over byte streams.
//!
//! Every message on an `awr_net` socket is one **frame**:
//!
//! ```text
//! +----------------+-----------+------------------------------+
//! | length: u32 LE | version u8| payload: encoded Value tree  |
//! +----------------+-----------+------------------------------+
//! ```
//!
//! * `length` counts everything after itself (version byte + payload), so
//!   a reader needs exactly `4 + length` bytes for a whole frame;
//! * `version` is [`WIRE_VERSION`]; any other value is rejected before the
//!   payload is touched, so incompatible peers fail fast instead of
//!   misparsing each other;
//! * the payload is the message's [`serde::Value`] tree in a compact
//!   tag-length-value binary encoding (see [`encode_value`]): one tag byte
//!   per node, LEB128 varints for integers and lengths, IEEE-754 little
//!   endian for floats. Struct/enum layout is whatever the type's
//!   [`serde::Serialize`] impl produces — the same layout `serde_json`
//!   renders, just binary instead of text.
//!
//! A length prefix above [`MAX_FRAME`] is rejected
//! ([`FrameError::Oversized`]) so a corrupt or hostile one cannot make a
//! reader allocate unboundedly. A stream that ends cleanly *between*
//! frames reports [`FrameError::Closed`]; one that ends *inside* a frame
//! reports [`FrameError::Truncated`].
//!
//! Before its first frame a connection carries a fixed 13-byte **hello**
//! (`magic ∥ version ∥ ActorId`, [`write_hello`]/[`read_hello`]) so the
//! accepting side knows which peer the stream speaks for.

use std::fmt;
use std::io::{self, Read, Write};

use awr_sim::ActorId;
use serde::{DeserializeOwned, Error as SerdeError, Serialize, Value};

/// The wire protocol version carried in every frame header.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on `version byte + payload` length, in bytes. Generous for
/// this workspace's messages (a full change-set transfer is kilobytes) but
/// small enough that a garbage length prefix cannot exhaust memory.
pub const MAX_FRAME: usize = 16 << 20;

/// Nesting bound for the payload decoder: deeper trees are rejected as
/// corrupt rather than recursing toward stack exhaustion.
const MAX_DEPTH: u32 = 64;

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
    /// The frame's version byte is not [`WIRE_VERSION`].
    BadVersion(u8),
    /// The payload bytes do not decode to the expected message type.
    Codec(SerdeError),
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
                write!(f, "frame version {v} (expected {WIRE_VERSION})")
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

// ---------------------------------------------------------------------
// Value codec: tag byte + varint lengths.
// ---------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_UINT: u8 = 4;
const TAG_FLOAT: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_SEQ: u8 = 7;
const TAG_MAP: u8 = 8;

fn put_varint(out: &mut Vec<u8>, mut v: u128) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u128, FrameError> {
    let mut v: u128 = 0;
    for shift in (0..19).map(|i| i * 7) {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| FrameError::Codec(SerdeError::custom("varint past payload end")))?;
        *pos += 1;
        v |= u128::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(FrameError::Codec(SerdeError::custom("varint too long")))
}

fn zigzag(i: i128) -> u128 {
    ((i << 1) ^ (i >> 127)) as u128
}

fn unzigzag(u: u128) -> i128 {
    ((u >> 1) as i128) ^ -((u & 1) as i128)
}

/// Appends the binary encoding of `v` to `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            put_varint(out, zigzag(*i));
        }
        Value::UInt(u) => {
            out.push(TAG_UINT);
            put_varint(out, *u);
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_varint(out, s.len() as u128);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Seq(items) => {
            out.push(TAG_SEQ);
            put_varint(out, items.len() as u128);
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Map(entries) => {
            out.push(TAG_MAP);
            put_varint(out, entries.len() as u128);
            for (k, val) in entries {
                put_varint(out, k.len() as u128);
                out.extend_from_slice(k.as_bytes());
                encode_value(val, out);
            }
        }
    }
}

fn get_len(buf: &[u8], pos: &mut usize) -> Result<usize, FrameError> {
    let n = get_varint(buf, pos)?;
    let n = usize::try_from(n)
        .map_err(|_| FrameError::Codec(SerdeError::custom("length overflows usize")))?;
    // Every encoded element costs at least one byte, so a count that
    // exceeds the remaining payload is provably corrupt — reject it before
    // reserving anything.
    if n > buf.len() - *pos {
        return Err(FrameError::Codec(SerdeError::custom(
            "length exceeds remaining payload",
        )));
    }
    Ok(n)
}

fn get_str(buf: &[u8], pos: &mut usize) -> Result<String, FrameError> {
    let len = get_len(buf, pos)?;
    let bytes = &buf[*pos..*pos + len];
    *pos += len;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| FrameError::Codec(SerdeError::custom("invalid utf-8 in string")))
}

/// Decodes one [`Value`] from `buf` starting at `*pos`, advancing `*pos`
/// past it.
pub fn decode_value(buf: &[u8], pos: &mut usize) -> Result<Value, FrameError> {
    decode_value_at(buf, pos, 0)
}

fn decode_value_at(buf: &[u8], pos: &mut usize, depth: u32) -> Result<Value, FrameError> {
    if depth > MAX_DEPTH {
        return Err(FrameError::Codec(SerdeError::custom("value tree too deep")));
    }
    let tag = *buf
        .get(*pos)
        .ok_or_else(|| FrameError::Codec(SerdeError::custom("tag past payload end")))?;
    *pos += 1;
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_INT => Ok(Value::Int(unzigzag(get_varint(buf, pos)?))),
        TAG_UINT => Ok(Value::UInt(get_varint(buf, pos)?)),
        TAG_FLOAT => {
            let end = *pos + 8;
            let bytes = buf
                .get(*pos..end)
                .ok_or_else(|| FrameError::Codec(SerdeError::custom("float past payload end")))?;
            *pos = end;
            Ok(Value::Float(f64::from_le_bytes(bytes.try_into().unwrap())))
        }
        TAG_STR => Ok(Value::Str(get_str(buf, pos)?)),
        TAG_SEQ => {
            let n = get_len(buf, pos)?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_value_at(buf, pos, depth + 1)?);
            }
            Ok(Value::Seq(items))
        }
        TAG_MAP => {
            let n = get_len(buf, pos)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let k = get_str(buf, pos)?;
                let v = decode_value_at(buf, pos, depth + 1)?;
                entries.push((k, v));
            }
            Ok(Value::Map(entries))
        }
        other => Err(FrameError::Codec(SerdeError::custom(format!(
            "unknown value tag {other}"
        )))),
    }
}

// ---------------------------------------------------------------------
// Frames.
// ---------------------------------------------------------------------

/// Appends `msg` to `out` as one complete frame, returning the frame's
/// size: the value tree is encoded in place behind a placeholder length,
/// which is then patched, so a sender can encode straight into its write
/// buffer.
pub(crate) fn encode_frame_into<T: Serialize>(msg: &T, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0, 0, 0, 0, WIRE_VERSION]);
    encode_value(&msg.to_value(), out);
    let len = out.len() - start - 4;
    // A length past `u32` wraps here; it is past `MAX_FRAME` too, and the
    // sender checks the returned size against that before writing.
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    4 + len
}

/// Encodes `msg` as one complete frame (header + payload).
pub fn encode_frame<T: Serialize>(msg: &T) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame_into(msg, &mut frame);
    frame
}

/// Tries to decode one frame from the front of `buf`.
///
/// Returns `Ok(None)` when `buf` holds only a *prefix* of a frame (read
/// more bytes and retry), `Ok(Some((msg, consumed)))` on success — drain
/// `consumed` bytes — and an error when the bytes present already prove
/// the frame bad (oversized length, wrong version, corrupt payload).
pub fn decode_frame<T: DeserializeOwned>(buf: &[u8]) -> Result<Option<(T, usize)>, FrameError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized { len });
    }
    if len == 0 {
        return Err(FrameError::Codec(SerdeError::custom("empty frame")));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let version = buf[4];
    if version != WIRE_VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let payload = &buf[5..4 + len];
    let mut pos = 0;
    let value = decode_value(payload, &mut pos)?;
    if pos != payload.len() {
        return Err(FrameError::Codec(SerdeError::custom(
            "trailing bytes after payload",
        )));
    }
    let msg = T::from_value(&value).map_err(FrameError::Codec)?;
    Ok(Some((msg, 4 + len)))
}

/// First bytes of every connection, before any frame.
pub const HELLO_MAGIC: [u8; 4] = *b"AWRT";

/// Size of the connection hello in bytes.
pub const HELLO_LEN: usize = 13;

/// Writes the connection hello: magic, wire version, and the dialer's id.
pub fn write_hello(w: &mut impl Write, me: ActorId) -> Result<(), FrameError> {
    let mut hello = [0u8; HELLO_LEN];
    hello[..4].copy_from_slice(&HELLO_MAGIC);
    hello[4] = WIRE_VERSION;
    hello[5..].copy_from_slice(&(me.index() as u64).to_le_bytes());
    w.write_all(&hello).map_err(FrameError::Io)
}

/// Reads and validates a connection hello, returning the dialer's id.
pub fn read_hello(r: &mut impl Read) -> Result<ActorId, FrameError> {
    let mut hello = [0u8; HELLO_LEN];
    r.read_exact(&mut hello)?;
    if hello[..4] != HELLO_MAGIC {
        return Err(FrameError::Codec(SerdeError::custom("bad hello magic")));
    }
    if hello[4] != WIRE_VERSION {
        return Err(FrameError::BadVersion(hello[4]));
    }
    let id = u64::from_le_bytes(hello[5..].try_into().unwrap());
    Ok(ActorId(id as usize))
}

/// A deserialize round-trip through the frame codec, for tests and for
/// cross-checking that a type's serde impls survive the wire.
pub fn roundtrip<T: Serialize + DeserializeOwned>(msg: &T) -> Result<T, FrameError> {
    match decode_frame(&encode_frame(msg))? {
        Some((out, _)) => Ok(out),
        None => Err(FrameError::Truncated),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value_roundtrip(v: &Value) {
        let mut out = Vec::new();
        encode_value(v, &mut out);
        let mut pos = 0;
        let back = decode_value(&out, &mut pos).unwrap();
        assert_eq!(pos, out.len());
        assert_eq!(&back, v);
    }

    #[test]
    fn scalar_values_roundtrip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(-1),
            Value::Int(i128::MAX),
            Value::Int(i128::MIN),
            Value::UInt(u128::MAX),
            Value::Float(3.25),
            Value::Str("héllo".into()),
        ] {
            value_roundtrip(&v);
        }
    }

    #[test]
    fn nested_values_roundtrip() {
        value_roundtrip(&Value::Map(vec![
            ("xs".into(), Value::Seq(vec![Value::Int(1), Value::Null])),
            (
                "m".into(),
                Value::Map(vec![("k".into(), Value::Str(String::new()))]),
            ),
        ]));
    }

    #[test]
    fn a_proper_prefix_is_incomplete_never_a_message() {
        let frame = encode_frame(&vec![1u64, 2, 3]);
        for cut in 0..frame.len() {
            assert!(matches!(decode_frame::<Vec<u64>>(&frame[..cut]), Ok(None)));
        }
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut frame = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        frame.push(WIRE_VERSION);
        assert!(matches!(
            decode_frame::<u64>(&frame),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn encoding_in_place_appends_the_same_bytes() {
        // The reference layout, built the long way round.
        let msg = (7u64, "héllo".to_string(), vec![1i64, -2, 3]);
        let mut payload = vec![WIRE_VERSION];
        encode_value(&msg.to_value(), &mut payload);
        let mut reference = (payload.len() as u32).to_le_bytes().to_vec();
        reference.extend_from_slice(&payload);
        assert_eq!(encode_frame(&msg), reference);

        // Appending behind earlier bytes patches the right four.
        let mut out = b"earlier".to_vec();
        assert_eq!(encode_frame_into(&msg, &mut out), reference.len());
        assert_eq!(
            encode_frame_into(&9u64, &mut out),
            encode_frame(&9u64).len()
        );
        let mut expected = b"earlier".to_vec();
        expected.extend_from_slice(&reference);
        expected.extend_from_slice(&encode_frame(&9u64));
        assert_eq!(out, expected);
    }

    #[test]
    fn hello_roundtrips_and_rejects_strangers() {
        let mut hello = Vec::new();
        write_hello(&mut hello, ActorId(41)).unwrap();
        assert_eq!(hello.len(), HELLO_LEN);
        assert_eq!(read_hello(&mut &hello[..]).unwrap(), ActorId(41));

        let mut bad_magic = hello.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_hello(&mut &bad_magic[..]),
            Err(FrameError::Codec(_))
        ));
        let mut bad_version = hello.clone();
        bad_version[4] = WIRE_VERSION + 1;
        assert!(matches!(
            read_hello(&mut &bad_version[..]),
            Err(FrameError::BadVersion(v)) if v == WIRE_VERSION + 1
        ));
        assert!(matches!(
            read_hello(&mut &hello[..HELLO_LEN - 1]),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut frame = encode_frame(&7u64);
        frame[4] = WIRE_VERSION + 1;
        assert!(matches!(
            decode_frame::<u64>(&frame),
            Err(FrameError::BadVersion(_))
        ));
    }

    #[test]
    fn corrupt_payload_is_a_codec_error() {
        let mut frame = encode_frame(&7u64);
        let last = frame.len() - 1;
        frame[last] ^= 0xff;
        assert!(matches!(
            decode_frame::<u64>(&frame),
            Err(FrameError::Codec(_))
        ));
    }
}
