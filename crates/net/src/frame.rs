//! Length-prefixed binary frames over byte streams.
//!
//! Every message on an `awr_net` socket is one **frame**:
//!
//! ```text
//! +----------------+-----------+------------------------------+
//! | length: u32 LE | version u8| payload: the message, typed  |
//! +----------------+-----------+------------------------------+
//! ```
//!
//! * `length` counts everything after itself (version byte + payload), so
//!   a reader needs exactly `4 + length` bytes for a whole frame;
//! * `version` is [`WIRE_VERSION`]; any other value is rejected before the
//!   payload is touched, so incompatible peers fail fast instead of
//!   misparsing each other;
//! * the payload is the message's [`Wire`] encoding (see [`crate::wire`]
//!   for the layout of every type): fields in declaration order, LEB128
//!   varints, fixed-width digests, one tag byte per enum — no field
//!   names, and no tree built on either side. The payload must be
//!   consumed exactly: bytes left over are a codec error.
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

use crate::wire::{Reader, Wire};

/// The wire protocol version carried in every frame header and hello.
/// Version 1 (a self-describing value tree) is refused like any other
/// foreign version.
pub const WIRE_VERSION: u8 = 2;

/// Upper bound on `version byte + payload` length, in bytes. Generous for
/// this workspace's messages (a full change-set transfer is kilobytes) but
/// small enough that a garbage length prefix cannot exhaust memory.
pub const MAX_FRAME: usize = 16 << 20;

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

/// Appends `msg` to `out` as one complete frame, returning the frame's
/// size: the message is encoded in place behind a placeholder length,
/// which is then patched, so a sender can encode straight into its write
/// buffer — without allocating, once the buffer has the capacity.
pub fn encode_frame_into<T: Wire>(msg: &T, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0, 0, 0, 0, WIRE_VERSION]);
    msg.put(out);
    let len = out.len() - start - 4;
    // A length past `u32` wraps here; it is past `MAX_FRAME` too, and the
    // sender checks the returned size against that before writing.
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    4 + len
}

/// Encodes `msg` as one complete frame (header + payload).
pub fn encode_frame<T: Wire>(msg: &T) -> Vec<u8> {
    // Room for any frame without a change list or register map, so that
    // the returned buffer is this call's one allocation.
    let mut frame = Vec::with_capacity(64);
    encode_frame_into(msg, &mut frame);
    frame
}

/// Tries to decode one frame from the front of `buf`.
///
/// Returns `Ok(None)` when `buf` holds only a *prefix* of a frame (read
/// more bytes and retry), `Ok(Some((msg, consumed)))` on success — drain
/// `consumed` bytes — and an error when the bytes present already prove
/// the frame bad (oversized length, wrong version, corrupt payload).
pub fn decode_frame<T: Wire>(buf: &[u8]) -> Result<Option<(T, usize)>, FrameError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized { len });
    }
    if len == 0 {
        return Err(FrameError::Codec("empty frame"));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let version = buf[4];
    if version != WIRE_VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let mut payload = Reader::new(&buf[5..4 + len]);
    let msg = T::get(&mut payload)?;
    if payload.remaining() != 0 {
        return Err(FrameError::Codec("trailing bytes after the message"));
    }
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
        return Err(FrameError::Codec("bad hello magic"));
    }
    if hello[4] != WIRE_VERSION {
        return Err(FrameError::BadVersion(hello[4]));
    }
    let id = u64::from_le_bytes(hello[5..].try_into().unwrap());
    Ok(ActorId(id as usize))
}

/// An encode → decode round trip through a whole frame, for tests and for
/// cross-checking that a type's [`Wire`] impl mirrors itself.
pub fn roundtrip<T: Wire>(msg: &T) -> Result<T, FrameError> {
    match decode_frame(&encode_frame(msg))? {
        Some((out, _)) => Ok(out),
        None => Err(FrameError::Truncated),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awr_storage::DynMsg;
    use awr_types::{CsRef, ObjectId};

    fn read(op: u64) -> DynMsg<u64> {
        DynMsg::R {
            op,
            obj: ObjectId(2),
            changes: CsRef::Summary {
                digest: 0x0123_4567_89AB_CDEF,
                len: 5,
            },
        }
    }

    #[test]
    fn a_proper_prefix_is_incomplete_never_a_message() {
        let frame = encode_frame(&read(300));
        for cut in 0..frame.len() {
            assert!(matches!(
                decode_frame::<DynMsg<u64>>(&frame[..cut]),
                Ok(None)
            ));
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
        let msg = read(300);
        let mut payload = vec![WIRE_VERSION];
        msg.put(&mut payload);
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
        for foreign in [1, WIRE_VERSION + 1] {
            let mut bad_version = hello.clone();
            bad_version[4] = foreign;
            assert!(matches!(
                read_hello(&mut &bad_version[..]),
                Err(FrameError::BadVersion(v)) if v == foreign
            ));
        }
        assert!(matches!(
            read_hello(&mut &hello[..HELLO_LEN - 1]),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        for foreign in [1, WIRE_VERSION + 1] {
            let mut frame = encode_frame(&7u64);
            frame[4] = foreign;
            assert!(matches!(
                decode_frame::<u64>(&frame),
                Err(FrameError::BadVersion(v)) if v == foreign
            ));
        }
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

    #[test]
    fn bytes_after_the_message_are_a_codec_error() {
        let mut frame = encode_frame(&read(1));
        frame.push(0);
        let len = (frame.len() - 4) as u32;
        frame[..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            decode_frame::<DynMsg<u64>>(&frame),
            Err(FrameError::Codec(_))
        ));
    }
}
