//! Wire messages of the restricted pairwise weight reassignment protocol
//! (Algorithms 3 and 4), as the paper states them.
//!
//! `read_changes` (Algorithm 3) ships change sets whole: each `⟨RC_Ack⟩`
//! carries the replier's `get_changes(s)`, and the write-back `⟨WC⟩`
//! carries the union the reader collected. A `WC_Ack` is sent only once
//! the receiving server stores that set (line 8), which is what
//! Validity-II rests on.
//!
//! The byte layout of each message is its [`Wire`] impl below, in the
//! format of [`awr_types::wire`], version
//! [`WIRE_VERSION`](awr_types::wire::WIRE_VERSION).

use std::hash::{Hash, Hasher};

use awr_rb::RbEnvelope;
use awr_sim::{ActorId, Message};
use awr_types::wire::{frame_len, get_vec, put_seq, FrameError, Reader, Sink, Wire, MIN_CHANGE};
use awr_types::{ChangeSet, Ratio, ServerId, TransferChanges};

/// Protocol messages. Names follow the paper's:
///
/// * `⟨T, c, c′⟩` — reliable-broadcast transfer announcement (Algorithm 4
///   line 14), carried inside an RB envelope. The envelope payload is a
///   *batch*: transfers queued behind an in-flight one (via
///   `TransferCore::transfer_queued`) are announced together, one envelope
///   and one relay wave for the whole batch, so the `T` leg is charged
///   per batch rather than per transfer. A single `transfer` is a batch of
///   one, with the per-transfer `T_Ack` contract unchanged;
/// * `⟨T_Ack, lc⟩` — per-transfer acknowledgment (line 11/15);
/// * `⟨RC, s⟩` / `⟨RC_Ack, C|s⟩` — read_changes collect phase (Algorithm 3);
/// * `⟨WC, C⟩` / `⟨WC_Ack⟩` — read_changes write-back phase.
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum WrMsg {
    /// Reliable-broadcast leg carrying a batch of transfer change pairs.
    Rb(RbEnvelope<Vec<TransferChanges>>),
    /// Acknowledgment that the sender stored the changes of the transfer
    /// identified by the origin's local counter.
    TAck {
        /// The origin's local counter of the acknowledged transfer.
        counter: u64,
    },
    /// `read_changes` collect request for `target`'s changes.
    Rc {
        /// Requester-local operation number (matches replies to requests).
        op: u64,
        /// The server whose changes are being read.
        target: ServerId,
    },
    /// Reply to [`WrMsg::Rc`]: the changes the replier has stored for the
    /// requested server, `get_changes(target)`.
    RcAck {
        /// Echo of the request's `op`.
        op: u64,
        /// The replier's restriction `C|target`.
        changes: ChangeSet,
    },
    /// Write-back of the collected set (Algorithm 3 line 7).
    Wc {
        /// Echo of the request's `op`.
        op: u64,
        /// The union the reader collected.
        changes: ChangeSet,
    },
    /// Acknowledgment of a write-back: the sender stores the set.
    WcAck {
        /// Echo of the request's `op`.
        op: u64,
    },
    /// Management RPC: ask the receiving server to invoke
    /// `transfer(self, to, delta)`. Not part of the paper's wire protocol —
    /// it stands in for the monitoring system's "please reassign" signal
    /// and lets harnesses (including real-thread `NodeHost` runs, where
    /// the actor lives on another thread) drive transfers through ordinary
    /// messages.
    Invoke {
        /// The destination server.
        to: ServerId,
        /// The amount to transfer.
        delta: Ratio,
    },
}

impl Message for WrMsg {
    fn kind(&self) -> &'static str {
        match self {
            WrMsg::Rb(_) => "T",
            WrMsg::TAck { .. } => "T_Ack",
            WrMsg::Rc { .. } => "RC",
            WrMsg::RcAck { .. } => "RC_Ack",
            WrMsg::Wc { .. } => "WC",
            WrMsg::WcAck { .. } => "WC_Ack",
            WrMsg::Invoke { .. } => "Invoke",
        }
    }

    fn wire_size(&self) -> usize {
        frame_len(self)
    }

    // Every field hashes, a change set by its digest and cardinality.
    fn content_digest(&self) -> Option<u64> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        Some(h.finish())
    }
}

impl Wire for WrMsg {
    fn put(&self, out: &mut impl Sink) {
        match self {
            WrMsg::Rb(env) => {
                out.push(0);
                env.origin.index().put(out);
                env.seq.put(out);
                put_seq(out, env.payload.len(), &env.payload);
            }
            WrMsg::TAck { counter } => {
                out.push(1);
                counter.put(out);
            }
            WrMsg::Rc { op, target } => {
                out.push(2);
                op.put(out);
                target.put(out);
            }
            WrMsg::RcAck { op, changes } => {
                out.push(3);
                op.put(out);
                changes.put(out);
            }
            WrMsg::Wc { op, changes } => {
                out.push(4);
                op.put(out);
                changes.put(out);
            }
            WrMsg::WcAck { op } => {
                out.push(5);
                op.put(out);
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
                origin: ActorId(usize::get(r)?),
                seq: u64::get(r)?,
                payload: get_vec(r, 2 * MIN_CHANGE)?,
            })),
            1 => Ok(WrMsg::TAck {
                counter: u64::get(r)?,
            }),
            2 => Ok(WrMsg::Rc {
                op: u64::get(r)?,
                target: ServerId::get(r)?,
            }),
            3 => Ok(WrMsg::RcAck {
                op: u64::get(r)?,
                changes: ChangeSet::get(r)?,
            }),
            4 => Ok(WrMsg::Wc {
                op: u64::get(r)?,
                changes: ChangeSet::get(r)?,
            }),
            5 => Ok(WrMsg::WcAck { op: u64::get(r)? }),
            // Tag 6, version 4's write-back miss, is unknown since version 5.
            7 => Ok(WrMsg::Invoke {
                to: ServerId::get(r)?,
                delta: Ratio::get(r)?,
            }),
            _ => Err(FrameError::Codec("unknown WrMsg tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_match_paper_names() {
        let rc = WrMsg::Rc {
            op: 0,
            target: ServerId(0),
        };
        assert_eq!(rc.kind(), "RC");
        assert_eq!(WrMsg::TAck { counter: 2 }.kind(), "T_Ack");
        assert_eq!(WrMsg::WcAck { op: 1 }.kind(), "WC_Ack");
    }

    #[test]
    fn kinds_are_distinct_per_variant() {
        use awr_types::Ratio;
        let variants = [
            WrMsg::Rb(RbEnvelope {
                origin: awr_sim::ActorId(0),
                seq: 0,
                payload: vec![TransferChanges::new(
                    ServerId(0),
                    ServerId(1),
                    2,
                    Ratio::ONE,
                    true,
                )],
            }),
            WrMsg::TAck { counter: 1 },
            WrMsg::Rc {
                op: 0,
                target: ServerId(0),
            },
            WrMsg::RcAck {
                op: 0,
                changes: ChangeSet::new(),
            },
            WrMsg::Wc {
                op: 0,
                changes: ChangeSet::new(),
            },
            WrMsg::WcAck { op: 0 },
            WrMsg::Invoke {
                to: ServerId(1),
                delta: Ratio::ONE,
            },
        ];
        let kinds: std::collections::BTreeSet<&str> = variants.iter().map(|m| m.kind()).collect();
        assert_eq!(kinds.len(), variants.len(), "kind labels must be distinct");
    }

    #[test]
    fn rb_batch_wire_size_scales_with_batch() {
        use awr_types::Ratio;
        let pair = |c| TransferChanges::new(ServerId(0), ServerId(1), c, Ratio::ONE, true);
        let env = |payload| {
            WrMsg::Rb(RbEnvelope {
                origin: awr_sim::ActorId(0),
                seq: 0,
                payload,
            })
        };
        let one = env(vec![pair(2)]);
        let three = env(vec![pair(2), pair(3), pair(4)]);
        // Three coalesced transfers cost one envelope, not three: the
        // extra two add their own encodings and nothing else.
        assert!(three.wire_size() < 3 * one.wire_size());
        let mut extra = Vec::new();
        pair(3).put(&mut extra);
        pair(4).put(&mut extra);
        assert_eq!(three.wire_size() - one.wire_size(), extra.len());
    }

    #[test]
    fn wire_size_charges_for_change_payloads() {
        use awr_types::{Change, Ratio};
        let mut set = ChangeSet::new();
        for i in 0..50u64 {
            set.insert(Change::new(ServerId(0), 2 + i, ServerId(0), Ratio::ZERO));
        }
        let empty = WrMsg::RcAck {
            op: 0,
            changes: ChangeSet::new(),
        };
        let full = WrMsg::RcAck {
            op: 0,
            changes: set.clone(),
        };
        assert!(empty.wire_size() < full.wire_size());
        assert!(full.wire_size() > 50 * MIN_CHANGE);
        // A write-back costs what the reply carrying the same set costs.
        let wc = WrMsg::Wc {
            op: 0,
            changes: set,
        };
        assert_eq!(wc.wire_size(), full.wire_size());
    }
}
