//! Property tests for the frame codec: encode/decode identity over
//! arbitrary value trees and real protocol messages, and rejection of
//! truncated or oversized frames.

use awr_net::frame::{self, decode_frame, encode_frame, FrameError, MAX_FRAME};
use awr_rb::RbEnvelope;
use awr_sim::ActorId;
use awr_storage::DynMsg;
use awr_types::{Change, ChangeSet, CsRef, ObjectId, ProcessId, Ratio, ServerId, Tag, TaggedValue};
use proptest::prelude::*;
use serde::{Serialize, Value};

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A pseudo-random value tree, depth-bounded, derived entirely from `seed`.
fn arb_value(seed: &mut u64, depth: u32) -> Value {
    let pick = splitmix(seed) % if depth == 0 { 6 } else { 8 };
    match pick {
        0 => Value::Null,
        1 => Value::Bool(splitmix(seed).is_multiple_of(2)),
        2 => Value::Int((splitmix(seed) as i64 as i128) << (splitmix(seed) % 64)),
        3 => Value::UInt((splitmix(seed) as u128) << (splitmix(seed) % 64)),
        4 => Value::Float(f64::from_bits(
            0x3FF0_0000_0000_0000 | (splitmix(seed) >> 12),
        )),
        5 => {
            let len = (splitmix(seed) % 12) as usize;
            Value::Str(
                (0..len)
                    .map(|_| char::from_u32(0x61 + (splitmix(seed) % 26) as u32).unwrap())
                    .collect(),
            )
        }
        6 => {
            let len = (splitmix(seed) % 4) as usize;
            Value::Seq((0..len).map(|_| arb_value(seed, depth - 1)).collect())
        }
        _ => {
            let len = (splitmix(seed) % 4) as usize;
            Value::Map(
                (0..len)
                    .map(|i| (format!("k{i}"), arb_value(seed, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// A pseudo-random `DynMsg<u64>`, covering every wire variant.
fn arb_dyn_msg(seed: &mut u64) -> DynMsg<u64> {
    let tag = Tag::new(
        splitmix(seed) % 50,
        ProcessId::Client(awr_types::ClientId((splitmix(seed) % 4) as u32)),
    );
    let reg = TaggedValue {
        tag,
        value: Some(splitmix(seed)),
    };
    let mut set = ChangeSet::new();
    for _ in 0..(splitmix(seed) % 4) {
        set.insert(Change::new(
            ServerId((splitmix(seed) % 5) as u32),
            2 + splitmix(seed) % 7,
            ServerId((splitmix(seed) % 5) as u32),
            Ratio::new(1 + (splitmix(seed) % 3) as i128, 8),
        ));
    }
    let cs = match splitmix(seed) % 3 {
        0 => CsRef::summary(&set),
        1 => CsRef::Delta {
            base_digest: splitmix(seed),
            adds: set.iter().cloned().collect(),
        },
        _ => CsRef::Full(set.clone()),
    };
    let obj = ObjectId(splitmix(seed) % 3);
    let op = splitmix(seed) % 100;
    match splitmix(seed) % 6 {
        0 => DynMsg::R {
            op,
            obj,
            changes: cs,
        },
        1 => DynMsg::RAck {
            op,
            obj,
            reg,
            changes: cs,
            accepted: splitmix(seed).is_multiple_of(2),
        },
        2 => DynMsg::W {
            op,
            obj,
            reg,
            changes: cs,
        },
        3 => DynMsg::WAck {
            op,
            obj,
            changes: cs,
            accepted: splitmix(seed).is_multiple_of(2),
        },
        4 => DynMsg::SyncR {
            digest: splitmix(seed),
        },
        _ => DynMsg::Wr(awr_core::restricted::WrMsg::Rb(RbEnvelope {
            origin: ActorId((splitmix(seed) % 5) as usize),
            seq: splitmix(seed) % 9,
            payload: vec![],
        })),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any value tree survives encode → decode unchanged, and the decoder
    /// consumes exactly the bytes the encoder produced.
    #[test]
    fn value_trees_roundtrip(seed in 0u64..u64::MAX) {
        let mut s = seed;
        let v = arb_value(&mut s, 4);
        let mut bytes = Vec::new();
        frame::encode_value(&v, &mut bytes);
        let mut pos = 0;
        let back = frame::decode_value(&bytes, &mut pos).expect("decode");
        prop_assert_eq!(pos, bytes.len());
        prop_assert_eq!(back, v);
    }

    /// Every protocol message variant round-trips through a whole frame
    /// (version byte, length prefix, payload) to an identical value tree.
    #[test]
    fn protocol_messages_roundtrip(seed in 0u64..u64::MAX) {
        let mut s = seed;
        let msg = arb_dyn_msg(&mut s);
        let back: DynMsg<u64> = frame::roundtrip(&msg).expect("roundtrip");
        prop_assert_eq!(back.to_value(), msg.to_value());
    }

    /// Any proper prefix of a frame is `Ok(None)` (incomplete) — never a
    /// bogus message, never a panic.
    #[test]
    fn truncated_frames_rejected(seed in 0u64..u64::MAX, frac in 0.0f64..1.0) {
        let mut s = seed;
        let msg = arb_dyn_msg(&mut s);
        let full = encode_frame(&msg);
        let cut = ((full.len() - 1) as f64 * frac) as usize;
        prop_assert!(matches!(
            decode_frame::<DynMsg<u64>>(&full[..cut]),
            Ok(None)
        ));
    }

    /// Any length prefix above `MAX_FRAME` is rejected before allocation.
    #[test]
    fn oversized_lengths_rejected(extra in 1u64..u32::MAX as u64 - MAX_FRAME as u64) {
        let len = (MAX_FRAME as u64 + extra) as u32;
        let mut buf = len.to_le_bytes().to_vec();
        buf.extend_from_slice(&[frame::WIRE_VERSION, 0, 0, 0]);
        prop_assert!(matches!(
            decode_frame::<u64>(&buf),
            Err(FrameError::Oversized { .. })
        ));
    }
}
