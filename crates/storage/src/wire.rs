//! The version-6 layouts of the storage protocol's messages (see
//! [`awr_types::wire`] for the format): one [`Wire`] impl per type, the
//! statement of its byte layout. The durable records' impls sit with
//! their types in `durable.rs`.
//!
//! `RAck` and `WAck` open their tail with a flags byte: [`ACCEPTED`], and
//! [`HAS_REF`] when a change-set reference follows. An accept under the
//! negotiated wire carries [`CsRef::NONE`], which is written as nothing.

use awr_core::restricted::WrMsg;
use awr_types::wire::{get_map, put_digest, put_map, FrameError, Reader, Sink, Wire};
use awr_types::{CsRef, ObjectId, TaggedValue};

use crate::{DynMsg, RefreshHave, Value};

/// Flags-byte bit of `RAck`/`WAck`: the server accepted the operation.
const ACCEPTED: u8 = 1;
/// Flags-byte bit of `RAck`/`WAck`: a change-set reference follows.
const HAS_REF: u8 = 2;

/// Writes an ack's flags byte and, unless it is [`CsRef::NONE`], its
/// reference.
fn put_ack_tail(out: &mut impl Sink, accepted: bool, changes: &CsRef) {
    let has_ref = *changes != CsRef::NONE;
    out.push(u8::from(accepted) * ACCEPTED + u8::from(has_ref) * HAS_REF);
    if has_ref {
        changes.put(out);
    }
}

/// Reads what [`put_ack_tail`] wrote: whether the operation was accepted,
/// and the reference ([`CsRef::NONE`] when none follows).
fn get_ack_tail(r: &mut Reader<'_>) -> Result<(bool, CsRef), FrameError> {
    let flags = r.byte()?;
    if flags & !(ACCEPTED | HAS_REF) != 0 {
        return Err(FrameError::Codec("unknown ack flag"));
    }
    let changes = if flags & HAS_REF != 0 {
        CsRef::get(r)?
    } else {
        CsRef::NONE
    };
    Ok((flags & ACCEPTED != 0, changes))
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
                reg.put(out);
                put_ack_tail(out, *accepted, changes);
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
                put_ack_tail(out, *accepted, changes);
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
            2 => {
                let (op, obj, reg) = (u64::get(r)?, ObjectId::get(r)?, TaggedValue::get(r)?);
                let (accepted, changes) = get_ack_tail(r)?;
                Ok(DynMsg::RAck {
                    op,
                    obj,
                    reg,
                    changes,
                    accepted,
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
                let (accepted, changes) = get_ack_tail(r)?;
                Ok(DynMsg::WAck {
                    op,
                    obj,
                    changes,
                    accepted,
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
    /// `WIRE_VERSION`. An `R` or a `W` names the client's set by its
    /// length alone (tag 3) or by its summary (tag 0: the digest, then the
    /// length); an accept carries no reference; a reject carries its
    /// catch-up after the flags byte; the frame is the payload's length in
    /// one varint byte, then the payload.
    #[test]
    fn the_version_6_layout_is_pinned() {
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
        let read = |changes| DynMsg::R {
            op: 300,
            obj: ObjectId(2),
            changes,
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
            assert_eq!(
                frame(read(changes.clone())),
                [&[1][..], &head, tail].concat(),
                "R {changes:?}"
            );
            let write = DynMsg::W {
                op: 300,
                obj: ObjectId(2),
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

    /// The acks' layout.
    #[test]
    fn the_version_6_ack_layout_is_pinned() {
        let reg = TaggedValue::new(Tag::new(5, ProcessId::Client(ClientId(1))), 9);
        let ack = |changes, accepted| {
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
            5, 1, 1, // tag: ts 5, client 1
            1, 9, // Some(9)
        ];
        assert_eq!(ack(CsRef::NONE, true), [&head[..], &[1]].concat()); // accepted
        let change = Change::new(ServerId(3), 2, ServerId(4), Ratio::new(-1, 8));
        let delta = CsRef::Delta {
            base_digest: 0x0102_0304_0506_0708,
            adds: vec![change],
        };
        assert_eq!(
            ack(delta, false),
            [
                &head[..],
                &[
                    2, // a reference follows, not accepted
                    1, // delta
                    8, 7, 6, 5, 4, 3, 2, 1, // base digest
                    1, // one change
                    0, 3, 2, 4, 1, 8, // the change
                ]
            ]
            .concat()
        );

        let mut bytes = Vec::new();
        change.put(&mut bytes);
        assert_eq!(bytes, [0, 3, 2, 4, 1, 8]);
    }
}
