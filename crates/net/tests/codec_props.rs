//! The frame codec at the trust boundary: encode/decode identity over
//! every protocol message and every durable record, a metered size equal
//! to the frame for every message, and a decoder that
//! answers truncated, corrupt, inflated or arbitrary input with `Ok(None)`
//! or an error — never a panic, never a reservation the bytes present do
//! not pay for. A socket and a WAL file feed it the same way.

use std::collections::BTreeMap;

use awr_core::restricted::WrMsg;
use awr_rb::RbEnvelope;
use awr_sim::{ActorId, Message};
use awr_storage::{DynMsg, RefreshHave, Snapshot, WalRecord};
use awr_types::wire::{
    decode_frame, encode_frame, frame_len, frame_prefix, put_digest, put_varint, roundtrip,
    FrameError, Wire, MAX_FRAME, MAX_PREFIX, MAX_SERVER_ID,
};
use awr_types::{
    Change, ChangeSet, ClientId, CsRef, ObjectId, ProcessId, Ratio, ServerId, Tag, TaggedValue,
    TransferChanges,
};
use proptest::prelude::*;

type Msg = DynMsg<u64>;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn arb_change(seed: &mut u64) -> Change {
    let issuer = match splitmix(seed) % 3 {
        0 => ProcessId::Client(ClientId((splitmix(seed) % 4) as u32)),
        _ => ProcessId::Server(ServerId((splitmix(seed) % 5) as u32)),
    };
    Change::new(
        issuer,
        2 + splitmix(seed) % 5_000,
        ServerId((splitmix(seed) % 5) as u32),
        Ratio::new(
            splitmix(seed) as i64 as i128 % 1_000,
            1 + (splitmix(seed) % 64) as i128,
        ),
    )
}

fn arb_set(seed: &mut u64, len: usize) -> ChangeSet {
    let mut set = ChangeSet::new();
    while set.len() < len {
        set.insert(arb_change(seed));
    }
    set
}

/// A set of up to four changes, the empty one included.
fn arb_small_set(seed: &mut u64) -> ChangeSet {
    let len = (splitmix(seed) % 5) as usize;
    arb_set(seed, len)
}

/// A change-set reference in one of its three forms, empty ones and the
/// length-only summary (one and two length bytes) included.
fn arb_cs_ref(seed: &mut u64) -> CsRef {
    let set = arb_small_set(seed);
    match splitmix(seed) % 4 {
        0 => CsRef::summary(&set),
        3 => CsRef::length_only((splitmix(seed) % 300) as usize),
        1 => CsRef::Delta {
            base_digest: splitmix(seed),
            adds: set.iter().copied().collect(),
        },
        _ => CsRef::Full(set),
    }
}

/// A register: bottom, a tag without a value, or a tagged value.
fn arb_reg(seed: &mut u64) -> TaggedValue<u64> {
    let pid = match splitmix(seed) % 2 {
        0 => ProcessId::Client(ClientId((splitmix(seed) % 4) as u32)),
        _ => ProcessId::Server(ServerId((splitmix(seed) % 5) as u32)),
    };
    let tag = Tag::new(splitmix(seed) >> (splitmix(seed) % 64), pid);
    match splitmix(seed) % 4 {
        0 => TaggedValue::bottom(),
        1 => TaggedValue { tag, value: None },
        _ => TaggedValue::new(tag, splitmix(seed) >> (splitmix(seed) % 64)),
    }
}

fn arb_pair(seed: &mut u64) -> TransferChanges {
    TransferChanges::new(
        ServerId((splitmix(seed) % 5) as u32),
        ServerId((splitmix(seed) % 5) as u32),
        2 + splitmix(seed) % 100,
        Ratio::new(1 + (splitmix(seed) % 9) as i128, 100),
        splitmix(seed).is_multiple_of(2),
    )
}

/// Number of arms in [`arb_msg`]: every `DynMsg` variant, and every
/// `WrMsg` variant inside `DynMsg::Wr`. A new message adds one arm.
const MSG_ARMS: u64 = 17;

fn arb_msg(arm: u64, seed: &mut u64) -> Msg {
    let op = splitmix(seed) >> (splitmix(seed) % 64);
    let obj = ObjectId(splitmix(seed) % 3);
    let target = ServerId((splitmix(seed) % 5) as u32);
    let flag = splitmix(seed).is_multiple_of(2);
    match arm {
        0 => DynMsg::R {
            op,
            obj,
            changes: arb_cs_ref(seed),
        },
        1 => DynMsg::RAck {
            op,
            obj,
            reg: arb_reg(seed),
            changes: arb_cs_ref(seed),
            accepted: flag,
        },
        2 => DynMsg::W {
            op,
            obj,
            reg: arb_reg(seed),
            changes: arb_cs_ref(seed),
        },
        3 => DynMsg::WAck {
            op,
            obj,
            changes: arb_cs_ref(seed),
            accepted: flag,
        },
        4 => DynMsg::RefreshR {
            op,
            have: RefreshHave::Tags(
                (0..splitmix(seed) % 4)
                    .map(|k| (ObjectId(k), arb_reg(seed).tag))
                    .collect(),
            ),
        },
        5 => DynMsg::RefreshR {
            op,
            have: RefreshHave::Digest {
                digest: splitmix(seed),
                count: (splitmix(seed) % 10_000) as usize,
            },
        },
        6 => DynMsg::RefreshAck {
            op,
            regs: (0..splitmix(seed) % 4)
                .map(|k| (ObjectId(k), arb_reg(seed)))
                .collect::<BTreeMap<_, _>>(),
            need_tags: flag,
        },
        7 => DynMsg::SyncR {
            digest: splitmix(seed),
        },
        8 => DynMsg::SyncAck {
            changes: arb_cs_ref(seed),
        },
        9 => DynMsg::Wr(WrMsg::Rb(RbEnvelope {
            origin: ActorId((splitmix(seed) % 5) as usize),
            seq: op,
            payload: (0..splitmix(seed) % 4).map(|_| arb_pair(seed)).collect(),
        })),
        10 => DynMsg::Wr(WrMsg::TAck { counter: op }),
        11 => DynMsg::Wr(WrMsg::Rc { op, target }),
        12 => DynMsg::Wr(WrMsg::RcAck {
            op,
            changes: arb_small_set(seed),
        }),
        13 => DynMsg::Wr(WrMsg::Wc {
            op,
            changes: arb_small_set(seed),
        }),
        14 => DynMsg::Wr(WrMsg::WcAck { op }),
        15 => DynMsg::Wr(WrMsg::Invoke {
            to: target,
            delta: arb_change(seed).delta,
        }),
        _ => DynMsg::RV {
            op,
            obj,
            changes: arb_cs_ref(seed),
        },
    }
}

/// A WAL record of either kind.
fn arb_record(seed: &mut u64) -> WalRecord<u64> {
    match splitmix(seed) % 2 {
        0 => WalRecord::Change(arb_change(seed)),
        _ => WalRecord::Register(ObjectId(splitmix(seed) % 3), arb_reg(seed)),
    }
}

/// A snapshot, empty change set and register map included.
fn arb_snapshot(seed: &mut u64) -> Snapshot<u64> {
    let len = (splitmix(seed) % 6) as usize;
    Snapshot {
        changes: arb_set(seed, len),
        registers: (0..splitmix(seed) % 4)
            .map(|k| (ObjectId(k), arb_reg(seed)))
            .collect(),
    }
}

/// `value` round-trips through a whole frame, which `frame_len` sizes;
/// every proper prefix of that frame is incomplete; the frame with one
/// bit flipped decodes to anything but a panic.
fn frame_survives<T: Wire + PartialEq + std::fmt::Debug>(
    value: &T,
    seed: &mut u64,
) -> Result<(), TestCaseError> {
    let mut bytes = encode_frame(value);
    prop_assert_eq!(frame_len(value), bytes.len());
    let (back, used) = decode_frame::<T>(&bytes).expect("decode").expect("whole");
    prop_assert_eq!(used, bytes.len());
    prop_assert_eq!(&back, value);
    for cut in 0..bytes.len() {
        prop_assert!(matches!(decode_frame::<T>(&bytes[..cut]), Ok(None)));
    }
    let at = (splitmix(seed) % bytes.len() as u64) as usize;
    bytes[at] ^= 1 << (splitmix(seed) % 8);
    let _ = decode_frame::<T>(&bytes);
    Ok(())
}

/// A whole frame around `payload`, with an honest length.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_varint(&mut buf, payload.len() as u64);
    buf.extend_from_slice(payload);
    buf
}

/// Whether `frame` is refused as corrupt.
fn refused(frame: &[u8]) -> bool {
    matches!(decode_frame::<Msg>(frame), Err(FrameError::Codec(_)))
}

/// Whether `frame` is one whole message.
fn accepted(frame: &[u8]) -> bool {
    matches!(decode_frame::<Msg>(frame), Ok(Some((_, used))) if used == frame.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every protocol message variant round-trips through a whole frame
    /// (length prefix, payload) to an equal message, and the decoder
    /// consumes exactly the bytes the encoder produced.
    #[test]
    fn protocol_messages_roundtrip(seed in 0u64..u64::MAX) {
        for arm in 0..MSG_ARMS {
            let mut s = seed ^ arm;
            let msg = arb_msg(arm, &mut s);
            let bytes = encode_frame(&msg);
            let (back, used) = decode_frame::<Msg>(&bytes).expect("decode").expect("whole");
            prop_assert_eq!(used, bytes.len());
            prop_assert_eq!(back, msg);
        }
    }

    /// A message's metered size is its frame: what the simulator charges
    /// is what a socket carries, for every `DynMsg` and every `WrMsg`.
    #[test]
    fn the_size_is_the_frame(seed in 0u64..u64::MAX) {
        for arm in 0..MSG_ARMS {
            let mut s = seed ^ arm;
            let msg = arb_msg(arm, &mut s);
            prop_assert_eq!(frame_len(&msg), encode_frame(&msg).len());
            prop_assert_eq!(msg.wire_size(), frame_len(&msg));
            if let DynMsg::Wr(inner) = &msg {
                prop_assert_eq!(inner.wire_size(), encode_frame(inner).len());
            }
        }
    }

    /// An `RAck` or `WAck` round-trips under every combination of its
    /// flags byte — accepted or not, with a reference or [`CsRef::NONE`],
    /// and for an `RAck` with its register's value or without (the
    /// answer to a tag query) — and its metered size is its frame.
    #[test]
    fn every_ack_flag_combination_roundtrips(seed in 0u64..u64::MAX) {
        let mut s = seed;
        // The summary of an empty set is `NONE` itself.
        let some_ref = std::iter::repeat_with(|| arb_cs_ref(&mut s))
            .find(|r| *r != CsRef::NONE)
            .expect("a reference");
        let tag = std::iter::repeat_with(|| arb_reg(&mut s).tag)
            .find(|t| *t != Tag::bottom())
            .expect("a written tag");
        let regs = [TaggedValue::new(tag, seed), TaggedValue { tag, value: None }];
        for accepted in [false, true] {
            for changes in [CsRef::NONE, some_ref.clone()] {
                let acks: [Msg; 3] = [
                    DynMsg::RAck {
                        op: seed,
                        obj: ObjectId(1),
                        reg: regs[0],
                        changes: changes.clone(),
                        accepted,
                    },
                    DynMsg::RAck {
                        op: seed,
                        obj: ObjectId(1),
                        reg: regs[1],
                        changes: changes.clone(),
                        accepted,
                    },
                    DynMsg::WAck {
                        op: seed,
                        obj: ObjectId(1),
                        changes,
                        accepted,
                    },
                ];
                for ack in &acks {
                    prop_assert_eq!(&roundtrip(ack).expect("decode"), ack);
                    prop_assert_eq!(frame_len(ack), encode_frame(ack).len());
                }
            }
        }
    }

    /// Every proper prefix of a frame is `Ok(None)` (incomplete) — never a
    /// bogus message, never a panic.
    #[test]
    fn truncated_frames_rejected(seed in 0u64..u64::MAX, arm in 0u64..MSG_ARMS) {
        let mut s = seed;
        let full = encode_frame(&arb_msg(arm, &mut s));
        for cut in 0..full.len() {
            prop_assert!(matches!(decode_frame::<Msg>(&full[..cut]), Ok(None)));
        }
    }

    /// Any length above `MAX_FRAME` is rejected from the prefix alone,
    /// before allocation: as oversized while it fits in `MAX_PREFIX`
    /// bytes, and as a prefix too long beyond that.
    #[test]
    fn oversized_lengths_rejected(extra in 1u64..u32::MAX as u64 - MAX_FRAME as u64) {
        let len = MAX_FRAME as u64 + extra;
        let mut buf = Vec::new();
        put_varint(&mut buf, len);
        let got = decode_frame::<u64>(&buf);
        if buf.len() <= MAX_PREFIX {
            prop_assert!(matches!(got, Err(FrameError::Oversized { len: l }) if l as u64 == len));
        } else {
            prop_assert!(matches!(got, Err(FrameError::Codec(_))));
        }
        prop_assert!(decode_frame::<u64>(&buf[..MAX_PREFIX]).is_err());
    }

    /// A frame whose length is written longer than it needs — padded with
    /// continuation bytes, to any width up to `MAX_PREFIX` and past it —
    /// is refused: one length, one encoding.
    #[test]
    fn non_canonical_lengths_are_refused(seed in 0u64..u64::MAX, arm in 0u64..MSG_ARMS, pad in 1usize..6) {
        let mut s = seed;
        let frame = encode_frame(&arb_msg(arm, &mut s));
        let (_, prefix) = frame_prefix(&frame).expect("own length").expect("whole");
        let (head, payload) = frame.split_at(prefix);
        let mut long = head.to_vec();
        *long.last_mut().expect("a length byte") |= 0x80;
        long.extend(std::iter::repeat_n(0x80, pad - 1));
        long.push(0);
        long.extend_from_slice(payload);
        prop_assert!(matches!(decode_frame::<Msg>(&long), Err(FrameError::Codec(_))));
    }

    /// Arbitrary bytes — bare, and as the payload of a well-formed frame —
    /// decode to an error or a message. Returning at all is the property.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..96)) {
        let _ = decode_frame::<Msg>(&bytes);
        if let Ok(Some((msg, used))) = decode_frame::<Msg>(&framed(&bytes)) {
            // Whatever decoded is a message like any other: it re-encodes
            // and decodes to itself.
            prop_assert_eq!(used, framed(&bytes).len());
            prop_assert_eq!(roundtrip(&msg).expect("roundtrip"), msg);
        }
    }

    /// A valid frame with one bit flipped anywhere — header included —
    /// yields `Ok(None)`, an error or a message.
    #[test]
    fn one_flipped_bit_never_panics(seed in 0u64..u64::MAX, arm in 0u64..MSG_ARMS) {
        let mut s = seed;
        let mut bytes = encode_frame(&arb_msg(arm, &mut s));
        let at = (splitmix(&mut s) % bytes.len() as u64) as usize;
        bytes[at] ^= 1 << (splitmix(&mut s) % 8);
        let _ = decode_frame::<Msg>(&bytes);
    }

    /// A sequence whose count claims more elements than the payload holds
    /// is refused — by a little or by enough to overflow any reservation —
    /// before anything is reserved for it.
    #[test]
    fn inflated_counts_are_refused(seed in 0u64..u64::MAX, present in 0usize..6, shift in 0u32..60) {
        let mut s = seed;
        let adds: Vec<Change> = (0..present).map(|_| arb_change(&mut s)).collect();
        for claimed in [present as u64 + 1, (present as u64 + 1) << shift] {
            // SyncAck { changes: Delta { base_digest, adds } }, by hand.
            let mut payload = vec![8, 1];
            put_digest(&mut payload, 7);
            put_varint(&mut payload, claimed);
            for c in &adds {
                c.put(&mut payload);
            }
            prop_assert!(refused(&framed(&payload)));
        }
    }

    /// WAL records and snapshots — what `FileStorage` reads back after a
    /// crash — round-trip, and a torn or bit-flipped one is refused
    /// without a panic.
    #[test]
    fn durable_records_roundtrip_and_refuse_damage(seed in 0u64..u64::MAX) {
        let mut s = seed;
        frame_survives(&arb_record(&mut s), &mut s)?;
        frame_survives(&arb_snapshot(&mut s), &mut s)?;
    }

    /// A snapshot whose change count or register count claims more than
    /// the payload holds is refused before anything is reserved for it.
    #[test]
    fn inflated_snapshot_counts_are_refused(seed in 0u64..u64::MAX, present in 0u64..6, shift in 0u32..60) {
        let mut s = seed;
        for claimed in [present + 1, (present + 1) << shift] {
            // Snapshot { changes: <claimed>, registers: {} } and
            // Snapshot { changes: {}, registers: <claimed> }, by hand.
            let mut changes = Vec::new();
            put_varint(&mut changes, claimed);
            let mut regs = vec![0];
            put_varint(&mut regs, claimed);
            for k in 0..present {
                arb_change(&mut s).put(&mut changes);
                ObjectId(k).put(&mut regs);
                arb_reg(&mut s).put(&mut regs);
            }
            changes.push(0);
            for payload in [changes, regs] {
                let got = decode_frame::<Snapshot<u64>>(&framed(&payload));
                prop_assert!(matches!(got, Err(FrameError::Codec(_))));
            }
        }
    }
}

/// The largest reference the benchmark's ledger ships: a rejecting `R_A`
/// carrying a whole change set of 3 000, a frame whose length takes three
/// bytes. Every proper prefix of it — a cut inside the length included —
/// is incomplete.
#[test]
fn a_full_reference_of_3000_changes_roundtrips() {
    let mut s = 11;
    let msg: Msg = DynMsg::RAck {
        op: 1,
        obj: ObjectId(0),
        reg: arb_reg(&mut s),
        changes: CsRef::Full(arb_set(&mut s, 3_000)),
        accepted: false,
    };
    assert_eq!(roundtrip(&msg).expect("roundtrip"), msg);
    let frame = encode_frame(&msg);
    assert_eq!(frame_len(&msg), frame.len());
    assert!(matches!(frame_prefix(&frame), Ok(Some((_, 3)))));
    for cut in 0..frame.len() {
        assert!(matches!(decode_frame::<Msg>(&frame[..cut]), Ok(None)));
    }
}

fn invoke(delta: Ratio) -> Msg {
    DynMsg::Wr(WrMsg::Invoke {
        to: ServerId(1),
        delta,
    })
}

#[test]
fn ratio_extremes_survive() {
    for delta in [
        Ratio::ZERO,
        Ratio::new(i128::MAX, 1),
        Ratio::new(-i128::MAX, 1),
        Ratio::new(1, i128::MAX),
        Ratio::new(-1, i128::MAX),
        Ratio::new(i128::MAX, i128::MAX - 1),
    ] {
        let msg = invoke(delta);
        assert_eq!(roundtrip(&msg).expect("roundtrip"), msg, "{delta:?}");
    }
}

#[test]
fn ratios_no_program_builds_are_refused() {
    // Invoke { to: 1, delta: num/den }, by hand: 19-byte varints.
    let max_varint = |last: u8| {
        let mut v = vec![0xff; 18];
        v.push(last);
        v
    };
    let invoke = |num: &[u8], den: &[u8]| framed(&[&[0, 7, 1][..], num, den].concat());
    // 1/0, i128::MIN/1 (zigzag u128::MAX), a denominator past i128::MAX,
    // and a varint past 128 bits.
    assert!(refused(&invoke(&[2], &[0])));
    assert!(refused(&invoke(&max_varint(3), &[1])));
    assert!(refused(&invoke(&[2], &max_varint(2))));
    assert!(refused(&invoke(&max_varint(0x83), &[1])));
    // The neighbours are fine: 1/1 and i128::MAX/1.
    assert!(accepted(&invoke(&[2], &[1])));
    let mut max = max_varint(3);
    max[0] = 0xfe;
    assert!(accepted(&invoke(&max, &[1])));
}

#[test]
fn unknown_tags_bad_bools_and_table_sized_ids_are_codec_errors() {
    let summary = {
        let mut b = vec![0];
        put_digest(&mut b, 9);
        b.push(3);
        b
    };
    // WAck { op: 1, obj: 2 }, then its flags byte: bit 0 accepted, bit 1
    // a reference follows. Any other bit is refused, bit 2 included.
    let w_ack = |flags: u8, tail: &[u8]| framed(&[&[4, 1, 2, flags][..], tail].concat());
    assert!(accepted(&w_ack(1, &[])));
    assert!(accepted(&w_ack(3, &summary)));
    assert!(refused(&w_ack(4, &[])));
    assert!(refused(&w_ack(4 | 3, &summary)));
    // RAck { op: 1, obj: 2, tag ⟨5, c1⟩ }, then its flags byte: bit 2 says
    // the register's value follows, before any reference. Bit 3 and up
    // are refused.
    let r_ack = |flags: u8, tail: &[u8]| framed(&[&[2, 1, 2, 5, 1, 1, flags][..], tail].concat());
    assert!(accepted(&r_ack(1, &[])));
    assert!(accepted(&r_ack(4 | 1, &[9])));
    assert!(accepted(&r_ack(4 | 2, &[&[9][..], &summary].concat())));
    assert!(refused(&r_ack(8 | 1, &[])));
    // RefreshAck { op: 1, regs: {}, need_tags: <byte> }.
    let refresh_ack = |need_tags: u8| framed(&[6, 1, 0, need_tags]);
    assert!(accepted(&refresh_ack(1)));
    assert!(refused(&refresh_ack(2)));
    // DynMsg, WrMsg, CsRef, RefreshHave and ProcessId tags one past the
    // last, and WrMsg's tag 6 (version 4's write-back miss: op 1, a digest).
    let mut wc_miss = vec![0, 6, 1];
    put_digest(&mut wc_miss, 9);
    assert!(matches!(
        decode_frame::<Msg>(&framed(&wc_miss)),
        Err(FrameError::Codec("unknown WrMsg tag"))
    ));
    for payload in [
        vec![10],
        vec![0, 8],
        vec![8, 4],
        vec![5, 1, 2],
        vec![3, 1, 2, 1, 2, 0],
    ] {
        assert!(refused(&framed(&payload)), "{payload:?}");
    }
    // Rc { op: 1, target }, by hand: the largest server id, and one more.
    let rc = |target: u32| {
        let mut b = vec![0, 2, 1];
        put_varint(&mut b, u64::from(target));
        b
    };
    assert!(accepted(&framed(&rc(MAX_SERVER_ID))));
    assert!(refused(&framed(&rc(MAX_SERVER_ID + 1))));
    let rc3: Msg = DynMsg::Wr(WrMsg::Rc {
        op: 1,
        target: ServerId(3),
    });
    assert_eq!(encode_frame(&rc3), framed(&rc(3)));
    // Version 4's Rc ended in the requester's 8-byte digest: trailing
    // bytes now.
    let mut v4_rc = rc(3);
    put_digest(&mut v4_rc, 9);
    assert!(matches!(
        decode_frame::<Msg>(&framed(&v4_rc)),
        Err(FrameError::Codec("trailing bytes after the message"))
    ));
    // A WAL record (Register { obj: 1, reg: bottom }) and the tag past it.
    let register = |tag: u8| decode_frame::<WalRecord<u64>>(&framed(&[tag, 1, 0, 0, 0, 0]));
    assert!(matches!(register(1), Ok(Some(_))));
    assert!(matches!(register(2), Err(FrameError::Codec(_))));
}
