//! The storage protocol's message layouts, in the format of
//! [`WIRE_VERSION`](awr_types::wire::WIRE_VERSION) (see
//! [`awr_types::wire`]): one [`Wire`] impl per type, the statement of its
//! byte layout. The durable records' impls sit with their types in
//! `durable.rs`.
//!
//! `RAck` and `WAck` open their tail with a flags byte: [`ACCEPTED`], and
//! [`HAS_REF`] when a change-set reference follows. An accept under the
//! negotiated wire carries [`CsRef::NONE`], which is written as nothing.
//! An `RAck` writes its register's tag before the flags byte and its value,
//! when [`HAS_VALUE`] says there is one, after it: the answer to a tag
//! query (`R`) ends at the flags byte.

use awr_core::restricted::WrMsg;
use awr_types::wire::{get_map, put_digest, put_map, FrameError, Reader, Sink, Wire};
use awr_types::{CsRef, ObjectId, Tag, TaggedValue};

use crate::{DynMsg, RefreshHave, Value};

/// Flags-byte bit of `RAck`/`WAck`: the server accepted the operation.
const ACCEPTED: u8 = 1;
/// Flags-byte bit of `RAck`/`WAck`: a change-set reference follows.
const HAS_REF: u8 = 2;
/// Flags-byte bit of `RAck`: the register's value follows.
const HAS_VALUE: u8 = 4;

/// Writes an ack's flags byte: [`ACCEPTED`], [`HAS_REF`] unless `changes`
/// is [`CsRef::NONE`], and the `extra` bits of the ack's own.
fn put_flags(out: &mut impl Sink, accepted: bool, changes: &CsRef, extra: u8) {
    let has_ref = *changes != CsRef::NONE;
    out.push(u8::from(accepted) * ACCEPTED + u8::from(has_ref) * HAS_REF + extra);
}

/// Writes an ack's reference, unless it is [`CsRef::NONE`].
fn put_ref(out: &mut impl Sink, changes: &CsRef) {
    if *changes != CsRef::NONE {
        changes.put(out);
    }
}

/// Reads an ack's flags byte, refusing any bit outside `known`.
fn get_flags(r: &mut Reader<'_>, known: u8) -> Result<u8, FrameError> {
    let flags = r.byte()?;
    if flags & !known != 0 {
        return Err(FrameError::Codec("unknown ack flag"));
    }
    Ok(flags)
}

/// Reads the reference `flags` announce ([`CsRef::NONE`] when none
/// follows).
fn get_ref(r: &mut Reader<'_>, flags: u8) -> Result<CsRef, FrameError> {
    if flags & HAS_REF != 0 {
        CsRef::get(r)
    } else {
        Ok(CsRef::NONE)
    }
}

impl Wire for RefreshHave {
    fn put(&self, out: &mut impl Sink) {
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

impl<V: Value> Wire for DynMsg<V> {
    fn put(&self, out: &mut impl Sink) {
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
                reg.tag.put(out);
                let has_value = u8::from(reg.value.is_some()) * HAS_VALUE;
                put_flags(out, *accepted, changes, has_value);
                if let Some(v) = &reg.value {
                    v.put(out);
                }
                put_ref(out, changes);
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
                put_flags(out, *accepted, changes, 0);
                put_ref(out, changes);
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
            DynMsg::RV { op, obj, changes } => {
                out.push(9);
                op.put(out);
                obj.put(out);
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
            2 => {
                let (op, obj, tag) = (u64::get(r)?, ObjectId::get(r)?, Tag::get(r)?);
                let flags = get_flags(r, ACCEPTED | HAS_REF | HAS_VALUE)?;
                let value = (flags & HAS_VALUE != 0).then(|| V::get(r)).transpose()?;
                Ok(DynMsg::RAck {
                    op,
                    obj,
                    reg: TaggedValue { tag, value },
                    changes: get_ref(r, flags)?,
                    accepted: flags & ACCEPTED != 0,
                })
            }
            3 => Ok(DynMsg::W {
                op: u64::get(r)?,
                obj: ObjectId::get(r)?,
                reg: TaggedValue::get(r)?,
                changes: CsRef::get(r)?,
            }),
            4 => {
                let (op, obj) = (u64::get(r)?, ObjectId::get(r)?);
                let flags = get_flags(r, ACCEPTED | HAS_REF)?;
                Ok(DynMsg::WAck {
                    op,
                    obj,
                    changes: get_ref(r, flags)?,
                    accepted: flags & ACCEPTED != 0,
                })
            }
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
            9 => Ok(DynMsg::RV {
                op: u64::get(r)?,
                obj: ObjectId::get(r)?,
                changes: CsRef::get(r)?,
            }),
            _ => Err(FrameError::Codec("unknown DynMsg tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awr_types::wire::encode_frame;
    use awr_types::{Change, ClientId, ProcessId, Ratio, ServerId, Tag};

    /// The layout itself, byte for byte: a change here is a change of
    /// `WIRE_VERSION`. An `R`, an `RV` or a `W` names the client's set by
    /// its length alone (tag 3) or by its summary (tag 0: the digest, then
    /// the length); an accept carries no reference; a reject carries its
    /// catch-up after the flags byte; the frame is the payload's length in
    /// one varint byte, then the payload.
    #[test]
    fn the_version_7_layout_is_pinned() {
        let reg = TaggedValue::new(Tag::new(5, ProcessId::Client(ClientId(1))), 9);
        let frame = |msg: DynMsg<u64>| {
            let mut bytes = Vec::new();
            msg.put(&mut bytes);
            assert_eq!(
                encode_frame(&msg),
                [&[bytes.len() as u8][..], &bytes].concat()
            );
            bytes
        };
        let head = [
            0xAC, 0x02, // op 300
            2,    // obj
        ];
        let named = [
            (CsRef::length_only(5), &[3, 5][..]),
            (CsRef::length_only(200), &[3, 0xC8, 0x01]),
            (
                CsRef::Summary {
                    digest: 0x0102_0304_0506_0708,
                    len: 5,
                },
                &[0, 8, 7, 6, 5, 4, 3, 2, 1, 5],
            ),
        ];
        for (changes, tail) in named {
            let (op, obj) = (300, ObjectId(2));
            let read = DynMsg::R {
                op,
                obj,
                changes: changes.clone(),
            };
            assert_eq!(
                frame(read),
                [&[1][..], &head, tail].concat(),
                "R {changes:?}"
            );
            let read_value = DynMsg::RV {
                op,
                obj,
                changes: changes.clone(),
            };
            assert_eq!(
                frame(read_value),
                [&[9][..], &head, tail].concat(),
                "RV {changes:?}"
            );
            let write = DynMsg::W {
                op,
                obj,
                reg,
                changes: changes.clone(),
            };
            assert_eq!(
                frame(write),
                [&[3][..], &head, &[5, 1, 1, 1, 9], tail].concat(),
                "W {changes:?}"
            );
        }
        // A steady-state `R` of a five-server deployment: 6 bytes, where
        // the summary made it 14.
        let small = |changes| DynMsg::<u64>::R {
            op: 7,
            obj: ObjectId(2),
            changes,
        };
        assert_eq!(encode_frame(&small(CsRef::length_only(5))).len(), 6);
        let summary = CsRef::summary(&awr_types::ChangeSet::uniform_initial(5, Ratio::ONE));
        assert_eq!(encode_frame(&small(summary)).len(), 14);
    }

    /// The acks' layout. An `RAck` writes its register's tag, then the
    /// flags byte, then the value if [`HAS_VALUE`] is set, then the
    /// reference if [`HAS_REF`] is: the answer to a tag query is the
    /// value-carrying one minus the value's bytes, and the bottom register
    /// has no value to carry.
    #[test]
    fn the_version_7_ack_layout_is_pinned() {
        let tag = Tag::new(5, ProcessId::Client(ClientId(1)));
        let ack = |reg, changes, accepted| {
            let msg: DynMsg<u64> = DynMsg::RAck {
                op: 300,
                obj: ObjectId(2),
                reg,
                changes,
                accepted,
            };
            let mut bytes = Vec::new();
            msg.put(&mut bytes);
            let frame = encode_frame(&msg);
            assert_eq!(frame, [&[bytes.len() as u8][..], &bytes].concat());
            bytes
        };
        let head = [
            2, // RAck
            0xAC, 0x02, // op 300
            2,    // obj
        ];
        let whole = TaggedValue::new(tag, 9);
        let elided = TaggedValue { tag, value: None };
        assert_eq!(
            ack(whole, CsRef::NONE, true),
            [
                &head[..],
                &[
                    5, 1, 1, // tag: ts 5, client 1
                    5, // accepted, the value follows
                    9, // the value
                ]
            ]
            .concat()
        );
        assert_eq!(
            ack(elided, CsRef::NONE, true),
            [&head[..], &[5, 1, 1, 1]].concat() // accepted, no value
        );
        assert_eq!(
            ack(TaggedValue::bottom(), CsRef::NONE, true),
            [&head[..], &[0, 0, 0, 1]].concat() // tag ⟨0, s0⟩, accepted
        );
        let change = Change::new(ServerId(3), 2, ServerId(4), Ratio::new(-1, 8));
        let delta = CsRef::Delta {
            base_digest: 0x0102_0304_0506_0708,
            adds: vec![change],
        };
        let catch_up = [
            1, // delta
            8, 7, 6, 5, 4, 3, 2, 1, // base digest
            1, // one change
            0, 3, 2, 4, 1, 8, // the change
        ];
        assert_eq!(
            ack(whole, delta.clone(), false),
            [
                &head[..],
                &[
                    5, 1, 1, // tag
                    6, // the value and a reference follow, not accepted
                    9, // the value
                ],
                &catch_up,
            ]
            .concat()
        );
        assert_eq!(
            ack(elided, delta, false),
            [&head[..], &[5, 1, 1, 2], &catch_up].concat() // a reference follows
        );

        let mut bytes = Vec::new();
        change.put(&mut bytes);
        assert_eq!(bytes, [0, 3, 2, 4, 1, 8]);
    }

    /// Each flags byte admits only its own bits: `HAS_VALUE` belongs to an
    /// `RAck`, and is an unknown flag on a `WAck`.
    #[test]
    fn an_unknown_ack_flag_is_refused() {
        let decode = |bytes: &[u8]| DynMsg::<u64>::get(&mut Reader::new(bytes));
        let w_ack = [4, 0xAC, 0x02, 2];
        assert!(decode(&[&w_ack[..], &[ACCEPTED]].concat()).is_ok());
        for flags in [HAS_VALUE | ACCEPTED, 8] {
            assert!(matches!(
                decode(&[&w_ack[..], &[flags]].concat()),
                Err(FrameError::Codec("unknown ack flag"))
            ));
        }
        let r_ack = [2, 0xAC, 0x02, 2, 5, 1, 1];
        assert!(decode(&[&r_ack[..], &[HAS_VALUE | ACCEPTED, 9]].concat()).is_ok());
        assert!(matches!(
            decode(&[&r_ack[..], &[8 | ACCEPTED]].concat()),
            Err(FrameError::Codec("unknown ack flag"))
        ));
    }
}
