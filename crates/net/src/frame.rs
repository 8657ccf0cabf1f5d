//! The frame on a socket, and the hello that opens a connection.
//!
//! Every message on an `awr_net` socket is one **frame** of the
//! [`awr_types::wire`] codec:
//!
//! ```text
//! +------------------------+------------------------------+
//! | length: LEB128, 1–4 B  | payload: the message, typed  |
//! +------------------------+------------------------------+
//! ```
//!
//! `length` counts the payload, in the codec's own varint and its
//! shortest form: one byte for a payload under 128 B, which every
//! steady-state message is.
//! [`encode_frame_into`](crate::encode_frame_into) writes one into a
//! peer's write buffer and [`decode_frame`](crate::decode_frame) reads one
//! off a connection's read buffer: `Ok(None)` for a prefix (read more and
//! retry), an error once the bytes present prove the frame bad — a length
//! above [`MAX_FRAME`](crate::MAX_FRAME) or not in its shortest form, a
//! payload that does not decode exactly. A stream that ends cleanly
//! *between* frames reports [`FrameError::Closed`]; one that ends
//! *inside* a frame reports [`FrameError::Truncated`].
//!
//! Before its first frame a connection carries a fixed 13-byte **hello**
//! (`magic ∥ version ∥ ActorId`, [`write_hello`]/[`read_hello`]) so the
//! accepting side knows which peer the stream speaks for. The hello is
//! where the stream states its [`WIRE_VERSION`], once: a frame carries
//! none, and a peer of another version is refused before its first frame.
//! The frames the accepting side sends back need no hello of their own:
//! it writes nothing on a connection before its hello has passed.

use std::io::{Read, Write};

use awr_sim::ActorId;
use awr_types::wire::{FrameError, WIRE_VERSION};

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

// The codec itself lives in `awr_types::wire`; these pin the frame as a
// socket carries it, around the protocol's own messages.
#[cfg(test)]
mod tests {
    use super::*;
    use awr_storage::DynMsg;
    use awr_types::wire::{
        decode_frame, encode_frame, encode_frame_into, put_varint, Wire, MAX_FRAME,
    };
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
        let mut frame = Vec::new();
        put_varint(&mut frame, MAX_FRAME as u64 + 1);
        assert!(matches!(
            decode_frame::<u64>(&frame),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn encoding_in_place_appends_the_same_bytes() {
        // The reference layout, built the long way round: a one-byte
        // length, then the payload.
        let msg = read(300);
        let mut payload = Vec::new();
        msg.put(&mut payload);
        assert!(payload.len() < 128);
        let mut reference = vec![payload.len() as u8];
        reference.extend_from_slice(&payload);
        assert_eq!(encode_frame(&msg), reference);

        // Appending behind earlier bytes patches the right one.
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
        for foreign in [1, WIRE_VERSION - 1, WIRE_VERSION + 1] {
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

    /// A frame carries no version: a peer's is refused at the hello,
    /// version-3 to version-6 peers' included, before any frame of its
    /// stream is read.
    #[test]
    fn wrong_version_is_rejected() {
        let mut stream = Vec::new();
        write_hello(&mut stream, ActorId(3)).unwrap();
        stream.extend_from_slice(&encode_frame(&7u64));
        assert_eq!(stream[HELLO_LEN..], [1, 7]);
        for foreign in [1, 3, 4, 5, 6, WIRE_VERSION + 1] {
            stream[4] = foreign;
            assert!(matches!(
                read_hello(&mut &stream[..]),
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
        frame[0] += 1;
        assert!(matches!(
            decode_frame::<DynMsg<u64>>(&frame),
            Err(FrameError::Codec(_))
        ));
    }
}
