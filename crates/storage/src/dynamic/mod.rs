//! Dynamic-weighted atomic storage (paper §VII, Algorithms 5 and 6) over a
//! delta-aware wire protocol and a *keyed object space*.
//!
//! Multi-writer ABD where quorums are judged by *weight* under the most
//! up-to-date set of completed changes `C`, and weights move via the
//! restricted pairwise weight reassignment protocol (Algorithm 4, embedded
//! through [`TransferCore`]). Each server hosts a whole *map* of registers
//! keyed by [`ObjectId`] — the paper's reassignment machinery governs the
//! quorum system, not a datum, so a single `C` (and a single reassignment
//! protocol instance) serves any number of objects: every `R`/`W` names its
//! object, quorum judgement is object-independent, and one weight transfer
//! re-weights the whole shard. Mechanically:
//!
//! * every `R`/`W` message references the client's `C`; servers **reject**
//!   operations whose `C` differs from theirs; the client reconciles and
//!   restarts the operation (§VII, first requirement);
//! * `is_quorum(Q)` holds iff `Σ_{s∈Q} W_s > W_{S,0}/2` with weights taken
//!   from the client's current `C` (Algorithm 5 lines 5–8);
//! * both phases are *addressed* to the smallest such quorum, not to all
//!   `n` servers, and widened to everyone on a measured deadline — the one
//!   deviation from Algorithm 5's message pattern, see [`Fanout`]
//!   ([`Fanout::All`] is the paper-literal oracle);
//! * phase 1 asks for the register's value only where the client uses it:
//!   `R` is a tag query, answered with the register's tag alone, and `RV`
//!   the paper's ⟨R⟩. A write asks for tags; a read asks one server for
//!   the register and the rest of its quorum for tags, and re-asks a
//!   max-tag replier when the server it asked was behind (see
//!   [`DynOpDriver`]'s phase 1). Every phase still completes on the same
//!   accepting servers under the same `C`;
//! * when a server gains weight it refreshes its register *before*
//!   applying the change (Algorithm 4 lines 8–9) so that newly possible
//!   quorums always contain the latest value (Lemma 4). The refresh is a
//!   count-based `n − f` read answered unconditionally — safe because an
//!   `n − f` count set intersects every weighted quorum under every
//!   Property-1 map (docs/LOAD.md, "Who stores a write"), and live where a
//!   weight-judged read deadlocks with f + 1 concurrent gainers (the
//!   reason is spelled out where the refresh starts, in `drain_applies`).
//!
//! # The change-set negotiation
//!
//! The paper's Algorithm 6 only ever *compares* the attached `C` against
//! the server's own (`C = C_i`), and a rejected client only needs the
//! changes it is missing — so shipping the full set both ways is pure
//! overhead once the system is converged. Under
//! [`WireMode::Negotiate`] (the default) the phases carry
//! [`CsRef`] references instead, per the discipline of [`awr_types::sync`]:
//!
//! 1. the client attaches an O(1) [`CsRef::Summary`] of its `C` to every
//!    `R`/`W`; the server's accept check is the digest comparison. To a
//!    server known to hold exactly that `C` — it accepted a request that
//!    carried it, and has rejected none since; at first every server, as
//!    all start from the initial set — the summary is
//!    [length-only](CsRef::length_only), 2–3 bytes instead of 10–11, and
//!    the accept check is `|C| = |C_i|`. That is the same check: a
//!    server's `C` only grows (its changes are persisted before any reply
//!    leaves, and a restart recovers them from its own WAL), so it holds
//!    at most one set of each length, the one it accepted. A change of
//!    `C` voids the client's knowledge, and its next request to each
//!    server carries the digest again;
//! 2. an accepting server attaches no reference ([`CsRef::NONE`], which
//!    the codec writes as nothing): the client reads none off an accept.
//!    A rejecting server answers with [`CsRef::Delta`] against the
//!    client's digest when its journal covers the gap (the steady-state
//!    mismatch: the client is a few transfers behind), falling back to
//!    [`CsRef::Full`] when it cannot (client ahead or diverged). A server
//!    whose register refresh is in flight *holds* a request whose digest
//!    its journal cannot place — the client is usually ahead by the very
//!    change the refresh waits to apply — and judges it again when the
//!    refresh lands: then it is accepted, or rejected under the new `C`,
//!    or held again behind a chained refresh. At most one request per
//!    client is held (a newer one replaces it), and a crash loses it like
//!    any message in flight;
//! 3. the client absorbs a rejection's reference
//!    ([`ChangeSet::apply_ref`]); if it learned new changes it restarts
//!    the operation (Algorithm 5 lines 14–16), otherwise the server is
//!    behind with no refresh in flight and the client re-polls just that
//!    server — both exactly the pre-delta semantics;
//! 4. each server keeps one record per client: the digest it presented
//!    last — for a length, the digest of the journal prefix of that
//!    length, where the journal is the server's own history, and none
//!    where it is not (the client then gets `Full`) — and whether the
//!    reply cut a delta against it. One unresolved
//!    delta (the client presents again the digest a delta was cut
//!    against) degrades the next reply to `Full`, so every exchange is
//!    bounded and liveness needs no new argument: a held request waits
//!    only for the refresh, a count read that every `n − f` servers
//!    answer unconditionally.
//!
//! [`WireMode::ForceFull`] restores the ship-everything wire on the ABD
//! messages (`R`/`RV`/`RAck`/`W`/`WAck`) — the accept check becomes the
//! exact set comparison again and every payload, an accept's included, is
//! [`CsRef::Full`]; every phase 1 asks for the whole register (`RV`); a
//! server holds under the same digest test — which makes
//! it the equivalence baseline of the `wire_equivalence` test suite and
//! the "before" arm of its |C| sweep. The knob deliberately does not reach
//! the embedded Algorithm 3/4 legs (`RC`/`RC_Ack`/`WC`): those negotiate
//! unconditionally (see [`awr_core::restricted`]), so byte comparisons
//! between the two modes are scoped to the ABD message kinds.
//!
//! # Layout
//!
//! This file holds the messages and the options; `client.rs` the
//! Algorithm 5 phase machine ([`DynOpDriver`], hosted by [`DynClient`]);
//! `server.rs` Algorithm 6 ([`DynServer`]: one judgement for `R`, `RV`
//! and `W`, one record per client), over the register table of
//! `registers.rs`; and `select.rs` whom a client asks — the
//! [`Fanout::Quorum`] policy, which the phase machine follows without a
//! fanout branch of its own. Messages digest for the model checker by
//! their derived `Hash`, change sets by digest and cardinality.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use awr_core::restricted::WrMsg;
use awr_sim::{Message, Nanos};
use awr_types::wire::frame_len;
use awr_types::{CsRef, ObjectId, Tag, TaggedValue};

use crate::durable::CheckpointCadence;
use crate::Value;

mod client;
mod registers;
mod select;
mod server;

pub use client::{DynClient, DynCompletedOp, DynOpDriver};
pub use server::DynServer;

/// Wire messages of the dynamic-weighted storage: the weight-reassignment
/// sub-protocol plus change-set-referencing ABD phases (see the module
/// docs for the negotiation).
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum DynMsg<V> {
    /// Weight-reassignment traffic (Algorithms 3–4).
    Wr(WrMsg),
    /// Phase-1 *tag query* referencing the client's `C`: the server
    /// answers with its register's tag and elides the value (see
    /// [`DynMsg::RV`]).
    R {
        /// Client-local operation counter.
        op: u64,
        /// The object being read or written.
        obj: ObjectId,
        /// Reference to the client's current set of completed changes.
        changes: CsRef,
    },
    /// Phase-1 request for the whole register — the paper's ⟨R⟩ — with the
    /// fields of [`DynMsg::R`]. A read asks one server for the value and
    /// the rest for tags (see `DynOpDriver`'s phase 1).
    RV {
        /// Client-local operation counter.
        op: u64,
        /// The object being read.
        obj: ObjectId,
        /// Reference to the client's current set of completed changes.
        changes: CsRef,
    },
    /// Phase-1 reply; `accepted == false` means the server rejected the
    /// operation because the change sets differ (a reference that lets the
    /// client catch up — delta or full — is attached).
    RAck {
        /// Echo of the request counter.
        op: u64,
        /// Echo of the object key.
        obj: ObjectId,
        /// The server's register content for that object. Its value is
        /// elided (`None` above the bottom tag) in the answer to an `R`,
        /// and sent whole in the answer to an `RV`.
        reg: TaggedValue<V>,
        /// On a reject, what the client lacks of the server's change set
        /// (delta or full); on an accept, [`CsRef::NONE`] (the whole set
        /// under [`WireMode::ForceFull`]), which the client does not read.
        changes: CsRef,
        /// Whether the server accepted the operation. On the wire, bit 0
        /// of the flags byte; bit 1 says whether a reference follows, bit
        /// 2 whether the register's value does.
        accepted: bool,
    },
    /// Phase-2 request referencing the client's `C`.
    W {
        /// Client-local operation counter.
        op: u64,
        /// The object being written back.
        obj: ObjectId,
        /// The tagged value to store.
        reg: TaggedValue<V>,
        /// Reference to the client's current change set.
        changes: CsRef,
    },
    /// Phase-2 reply, laid out like [`DynMsg::RAck`]'s tail.
    WAck {
        /// Echo of the request counter.
        op: u64,
        /// Echo of the object key.
        obj: ObjectId,
        /// On a reject, what the client lacks of the server's change set;
        /// on an accept, [`CsRef::NONE`] (the whole set under
        /// [`WireMode::ForceFull`]).
        changes: CsRef,
        /// Whether the server accepted (and possibly applied) the write.
        /// On the wire, bit 0 of the flags byte.
        accepted: bool,
    },
    /// Register-refresh read request (Algorithm 4 lines 8–9). Answered
    /// unconditionally — by *count*, not weight — so it can never deadlock:
    /// an `n − f` count set intersects every weighted quorum under every
    /// Property-1 map (its complement is `f` servers, holding < half).
    ///
    /// One refresh covers the *whole object space*: a weight gain changes
    /// which quorums are possible for every object at once, so the
    /// refresher must catch up on every register before applying it
    /// (Lemma 4, per object).
    RefreshR {
        /// Refresher-local operation number.
        op: u64,
        /// What the refresher already holds — per-object tags, or a bound
        /// digest of them above 64 registers (see [`RefreshHave`]).
        have: RefreshHave,
    },
    /// Reply to [`DynMsg::RefreshR`]: the subset of the replier's registers
    /// that are *strictly newer* than the tags the refresher presented.
    /// Everything else is elided, so in the converged case the ack is a
    /// bare header regardless of how many objects the shard holds.
    /// Observationally equivalent to always shipping the full register map:
    /// the refresher adopts the freshest register per object, and a
    /// register with `tag ≤ have[obj]` can never be that (the refresher's
    /// own registers only grow newer while the read is in flight).
    RefreshAck {
        /// Echo of the request number.
        op: u64,
        /// The replier's registers that are newer than the refresher's.
        regs: BTreeMap<ObjectId, TaggedValue<V>>,
        /// Set when the request presented a [`RefreshHave::Digest`] that
        /// did not match: the replier cannot tell which registers are
        /// newer. The refresher answers with a per-key
        /// [`RefreshHave::Tags`] round aimed at this replier alone; only
        /// the substantive reply counts toward the `n − f` quorum.
        need_tags: bool,
    },
    /// Recovery rejoin, request leg: a restarted server presents the digest
    /// of its recovered change set and asks each peer for whatever it
    /// missed while down. Never sent in a crash-free run.
    SyncR {
        /// Digest of the recovering server's `C`.
        digest: u64,
    },
    /// Recovery rejoin, reply leg: the cheapest reference that brings the
    /// recovering server up to the replier's `C` — a delta against the
    /// presented digest when the replier's journal covers the gap, the
    /// full set otherwise. One round suffices: delta adds are absorbed
    /// even when the base has moved (facts are facts), and register
    /// catch-up runs separately through the refresh read.
    SyncAck {
        /// Reference to the replier's change set.
        changes: CsRef,
    },
}

/// What a refresher presents in [`DynMsg::RefreshR`] to let repliers elide
/// registers the refresher already has.
///
/// The per-object tag map is exact but linear in the number of stored
/// keys; on a shard with many objects that made every refresh request
/// O(|objects|) on the wire. Above 64 stored registers the refresher
/// sends a constant-size commutative digest of its `(object, tag)` pairs
/// instead: a replier whose own pairs digest identically has nothing newer
/// and acks empty, and a replier that differs answers `need_tags` so the
/// refresher falls back to a per-key round with that
/// replier alone. Converged steady state therefore costs O(1) per
/// replier, and the fallback is bounded by one extra round trip.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum RefreshHave {
    /// Exact per-object register tags (absent = bottom).
    Tags(BTreeMap<ObjectId, Tag>),
    /// Commutative digest over the refresher's `(object, tag)` pairs plus
    /// their count, constant-size whatever the shard holds.
    Digest {
        /// [`reg_tag_digest`] of the refresher's register map.
        digest: u64,
        /// Number of registers the refresher holds.
        count: usize,
    },
}

/// Largest register map a refresher enumerates per key in
/// [`DynMsg::RefreshR`]; above it the request carries a
/// [`RefreshHave::Digest`] instead (constant-size, one extra round trip per
/// diverged replier).
const REFRESH_TAGS_CAP: usize = 64;

/// Commutative digest of a register map's `(object, tag)` pairs: equal
/// maps digest equally regardless of insertion order, and (w.h.p.) unequal
/// maps do not. The register *values* are deliberately excluded — tags
/// alone decide freshness.
pub fn reg_tag_digest<'a, V: 'a>(
    registers: impl IntoIterator<Item = (&'a ObjectId, &'a TaggedValue<V>)>,
) -> u64 {
    registers
        .into_iter()
        .map(|(o, r)| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            (o, r.tag).hash(&mut h);
            h.finish() | 1
        })
        .fold(0u64, u64::wrapping_add)
}

impl<V: Value> Message for DynMsg<V> {
    fn kind(&self) -> &'static str {
        match self {
            DynMsg::Wr(m) => m.kind(),
            DynMsg::R { .. } => "R",
            DynMsg::RV { .. } => "RV",
            DynMsg::RAck { .. } => "R_A",
            DynMsg::W { .. } => "W",
            DynMsg::WAck { .. } => "W_A",
            DynMsg::RefreshR { .. } => "RefR",
            DynMsg::RefreshAck { .. } => "RefA",
            DynMsg::SyncR { .. } => "SyR",
            DynMsg::SyncAck { .. } => "SyA",
        }
    }

    fn wire_size(&self) -> usize {
        frame_len(self)
    }

    // Full-content digest for the model-checking explorer: `Value: Hash`
    // lets register payloads hash directly, and change-set references hash
    // by variant (see `WrMsg::content_digest`).
    fn content_digest(&self) -> Option<u64> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        Some(h.finish())
    }

    // Per-object byte attribution: the four keyed ABD phases carry their
    // object; reassignment traffic and the (whole-space) refresh legs are
    // shared infrastructure and stay unattributed.
    fn object_key(&self) -> Option<u64> {
        match self {
            DynMsg::R { obj, .. }
            | DynMsg::RV { obj, .. }
            | DynMsg::RAck { obj, .. }
            | DynMsg::W { obj, .. }
            | DynMsg::WAck { obj, .. } => Some(obj.key()),
            DynMsg::Wr(_)
            | DynMsg::RefreshR { .. }
            | DynMsg::RefreshAck { .. }
            | DynMsg::SyncR { .. }
            | DynMsg::SyncAck { .. } => None,
        }
    }
}

/// How `R`/`RV`/`W`/`RAck`/`WAck` reference the change set on the wire,
/// and whether phase 1 asks for tags where it can.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WireMode {
    /// Digest summaries with delta/full negotiation on mismatch (the
    /// module docs' state machine): steady-state payloads are O(1) in |C|.
    #[default]
    Negotiate,
    /// Ship the full change set on every `R`/`RV`/`RAck`/`W`/`WAck`, and
    /// ask every phase 1 for the whole register (`RV`) — the
    /// paper-literal wire format for the ABD phases (the embedded
    /// Algorithm 3/4 legs negotiate regardless). Baseline for the
    /// `wire_equivalence` tests.
    ForceFull,
}

/// How reads complete: the one-phase weighted fast path or the
/// paper-literal two phases.
///
/// Under [`ReadMode::FastPath`] a read returns at the end of phase 1 when
/// the cumulative weight of the repliers that reported the maximum tag
/// already satisfies the quorum rule
/// ([`awr_quorum::fast_path_read_quorum`]) — those servers all store the
/// max-tag register, so the write-back phase would change nothing and
/// their phase-1 acks double as its acks. When the fresh weight falls
/// short, phase 2 still runs but `W` goes only to the *stale* repliers:
/// the fresh repliers are pre-counted as acks (same zero-delay-write-back
/// argument) and the stale repliers' weight tops the quorum up, because
/// together they are exactly the phase-1 quorum. Writes are unaffected —
/// their tag is brand-new, so no replier can ever be fresh.
///
/// Every fast-path execution is observationally equivalent to a two-phase
/// execution of the same schedule with some `W` deliveries reordered to
/// zero delay, so linearizability carries over; `tests/read_fastpath.rs`
/// pins the equivalence seed-for-seed and the `awr_check` fast-path
/// scenarios exhaust the racing-reassignment interleavings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReadMode {
    /// One-phase reads when the max-tag repliers' weight is a quorum;
    /// targeted write-backs otherwise (the default).
    #[default]
    FastPath,
    /// Always run both phases with a full-fanout write-back — the
    /// paper-literal Algorithm 5. Baseline for equivalence tests.
    TwoPhase,
}

/// Whom the two phases of a read or write are sent to.
///
/// Algorithm 5 sends `R` and `W` to all servers and waits for a quorum by
/// weight, so a reassignment changes who is *waited for*, never who is
/// *asked*. Under [`Fanout::Quorum`] the client asks only the smallest
/// quorum by weight under its current `C` — heaviest server first, ties by
/// id ([`awr_quorum::smallest_quorum_avoiding`]), skipping servers it
/// currently suspects — which is what makes a weighted quorum cost fewer
/// messages, not just fewer waits. Phase 2 follows phase 1: the greedy
/// quorum is minimal, so an un-widened phase 1 completes exactly when every
/// target has answered, and `W` (a write's, or a read's write-back) goes to
/// those same servers — a function of `C`, not of timing. A completed write
/// therefore lives on its quorum only; the servers outside it catch up
/// through the gainer's refresh before they gain weight, the rejoin refresh
/// after a restart, and targeted write-backs when a client's quorum moves.
///
/// **Safety** needs nothing new: each phase still completes only on a
/// quorum by weight of servers that *accepted under the client's `C`*, and
/// any two such quorums intersect (Lemma 3) however many servers were
/// asked; the fast-path rule is judged over the same replies. **Liveness**
/// is restored by a timer: a targeted send arms the driver's rebroadcast
/// timer, and when it fires the phase in flight is re-sent to *every*
/// server that has not answered it (the paper's fanout) and the
/// asked-but-silent servers become suspects. The deadline is measured, not
/// configured: eight times an EWMA of this client's own un-widened phase-1
/// completion times, never under 5 ms. A client with no sample yet asks
/// everyone and arms nothing — the paper's behaviour — unless
/// [`DynOptions::retry`] supplies a deadline.
///
/// **Suspicion lapses.** A suspect is skipped until it next speaks — and a
/// server nobody asks never speaks, so each suspicion also arms a lapse
/// timer of 2^k widen deadlines (k = suspicions in a row with no message
/// from that server in between, capped at 2^8), after which the server is
/// a candidate again. A recovered heavy server is back in its clients'
/// quorum within one lapse; a dead one costs a geometrically thinning
/// series of single deadlines, not one per operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Fanout {
    /// `R` and `W` to all `n` servers — the paper-literal Algorithm 5.
    /// Baseline for equivalence tests and the pinned replays.
    All,
    /// `R` and `W` to the smallest quorum by weight, widened to all on a
    /// measured deadline (the default).
    #[default]
    Quorum,
}

/// Behaviour knobs, defaulting to the paper's protocol (with the
/// delta-negotiated wire).
#[derive(Clone, Copy, Debug)]
pub struct DynOptions {
    /// Wire representation of change sets on the ABD phases.
    pub wire: WireMode,
    /// Read completion strategy (one-phase fast path vs paper-literal two
    /// phases).
    pub read: ReadMode,
    /// Journal-compaction (and, with a [`crate::StorageHandle`] attached,
    /// snapshot) cadence. `None` — the default — never compacts, which is
    /// the pre-durability behaviour: the journal holds every change.
    pub checkpoint: Option<CheckpointCadence>,
    /// Client-side rebroadcast for operations stalled because their quorum
    /// contacts died mid-phase. `None` — the default — never retries,
    /// matching the crash-free model where every sent message is
    /// eventually delivered.
    pub retry: Option<RetryPolicy>,
    /// Whom both phases ask: the smallest quorum by weight (default) or all
    /// `n` servers. Client-side only — servers answer whoever asks.
    pub fanout: Fanout,
}

impl Default for DynOptions {
    fn default() -> DynOptions {
        DynOptions {
            wire: WireMode::Negotiate,
            read: ReadMode::FastPath,
            checkpoint: None,
            retry: None,
            fanout: Fanout::Quorum,
        }
    }
}

/// Bounded-backoff rebroadcast for in-flight client operations (see
/// [`DynOptions::retry`]).
///
/// When armed, the [`DynOpDriver`] sets a timer after broadcasting a
/// phase; if the operation is still in the same numbered attempt when the
/// timer fires, the driver re-broadcasts the *current* phase (phase 1
/// verbatim; phase 2 with the already-chosen register, to the servers whose
/// ack is still missing) and re-arms with the delay doubled. Retries are
/// tag-idempotent by construction: servers adopt registers only if
/// strictly newer, and the driver's reply/ack accounting is keyed by
/// [`ServerId`](awr_types::ServerId), so a duplicate delivery can neither double-apply a write
/// nor double-count a quorum member. A
/// crash-free schedule with `retry: Some(..)` therefore completes every
/// operation before its first timer matters only when the network outruns
/// `base`. With the default `retry: None` the only timers are the widen
/// deadline of a [`Fanout::Quorum`] client — the same machinery under a
/// *measured* base — and the lapse of a suspicion that deadline raised (see
/// [`Fanout`]); under [`Fanout::All`] no timer is ever set. An explicit
/// policy overrides the measured one, base and budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Delay before the first rebroadcast; doubles per attempt.
    pub base: Nanos,
    /// Rebroadcast at most this many times per operation attempt.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            // 200 µs: comfortably above the simulated latencies used in
            // tests, so healthy quorums always answer first.
            base: 200_000,
            max_attempts: 8,
        }
    }
}

#[cfg(test)]
mod driver_tests {
    use super::*;
    use crate::harness::StorageHarness;
    use crate::history::OpKind;
    use awr_core::RpConfig;
    use awr_sim::UniformLatency;
    use awr_types::ClientId;
    use awr_types::{ChangeSet, ProcessId, Ratio, ServerId};

    fn s(i: u32) -> ServerId {
        ServerId(i)
    }

    #[test]
    fn a_dyn_msg_of_u64_fits_in_96_bytes() {
        // The simulator parks each delivery in a 128-byte slot sized for a
        // 96-byte message.
        let size = std::mem::size_of::<DynMsg<u64>>();
        assert!(
            size <= 96,
            "DynMsg<u64> takes {size} B: above 96 B a parked delivery outgrows \
             128 B, and every park and take in the simulator becomes a memcpy call"
        );
    }

    #[test]
    fn writer_value_survives_restarts() {
        // A writer whose phase 1 collides with a weight change restarts but
        // must still write its original value.
        let mut h: StorageHarness<u64> = StorageHarness::build(
            RpConfig::uniform(7, 2),
            2,
            21,
            UniformLatency::new(1_000, 40_000),
            DynOptions::default(),
        );
        // Make client 0's view stale: complete a transfer it never hears of.
        h.transfer_and_wait(s(3), s(0), Ratio::dec("0.2")).unwrap();
        h.settle();
        let done = h.write(0, 777).unwrap();
        assert!(done.restarts > 0, "stale writer should restart");
        let (v, _) = h.read(1).unwrap();
        assert_eq!(v, Some(777), "value lost across restart");
    }

    #[test]
    fn stale_op_replies_are_ignored() {
        // Drive a driver manually: replies tagged with an old op number
        // must not advance the current operation.
        let cfg = RpConfig::uniform(3, 1);
        let mut h: StorageHarness<u64> = StorageHarness::build(
            cfg.clone(),
            1,
            22,
            UniformLatency::new(1_000, 2_000),
            DynOptions::default(),
        );
        h.write(0, 1).unwrap();
        let c0 = h.client_actor(0);
        // Feed a forged RAck for a long-gone op id through the world.
        let forged = DynMsg::RAck {
            op: 9999,
            obj: ObjectId::DEFAULT,
            reg: TaggedValue::new(Tag::new(99, ProcessId::Client(ClientId(7))), 424242u64),
            changes: CsRef::Full(ChangeSet::from_initial_weights(&cfg.initial_weights)),
            accepted: true,
        };
        h.world.inject(h.server_actor(s(0)), c0, forged);
        h.settle();
        // The forged high tag must not have leaked into any result.
        let (v, _) = h.read(0).unwrap();
        assert_eq!(v, Some(1));
    }

    /// A server stand-in that never answers: the test speaks for it.
    struct Silent;

    impl awr_sim::Actor for Silent {
        type Msg = DynMsg<u64>;
        fn on_message(
            &mut self,
            _: awr_sim::ActorId,
            _: DynMsg<u64>,
            _: &mut awr_sim::Context<'_, DynMsg<u64>>,
        ) {
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// What makes an accept's reference safe to drop: the client never
    /// reads it. Accepted `R_A`s and `W_A`s carrying a mismatching summary,
    /// then a `Full` set the client lacks, complete a read and a write
    /// with `C` untouched, no restart and no re-poll.
    #[test]
    fn the_client_ignores_an_accepts_reference() {
        use awr_sim::{ActorId, World};
        let cfg = RpConfig::uniform(3, 1);
        let initial = ChangeSet::from_initial_weights(&cfg.initial_weights);
        let mut ahead = initial.clone();
        let pair = awr_types::TransferChanges::new(s(1), s(0), 2, Ratio::new(1, 10), true);
        for c in pair.both() {
            ahead.insert(c);
        }
        let refs = [
            CsRef::Summary {
                digest: 0xBAD,
                len: 9,
            },
            CsRef::Full(ahead),
        ];
        let mut w = World::new(5, UniformLatency::new(1_000, 2_000));
        for _ in 0..3 {
            w.add_actor(Silent);
        }
        let id = ProcessId::Client(ClientId(0));
        let client = w.add_actor(DynClient::<u64>::new(id, cfg, DynOptions::default()));
        let obj = ObjectId::DEFAULT;
        let reg = TaggedValue::new(Tag::new(1, ProcessId::Client(ClientId(1))), 5u64);
        let r_acks = |w: &mut World<DynMsg<u64>>, op: u64| {
            for (i, changes) in refs.iter().enumerate() {
                let changes = changes.clone();
                let ack = DynMsg::RAck {
                    op,
                    obj,
                    reg,
                    changes,
                    accepted: true,
                };
                w.inject(ActorId(i), client, ack);
                w.run_to_quiescence();
            }
        };

        w.with_actor_ctx(client, |c: &mut DynClient<u64>, ctx| c.begin_read(ctx));
        r_acks(&mut w, 1);
        w.with_actor_ctx(client, |c: &mut DynClient<u64>, ctx| c.begin_write(9, ctx));
        r_acks(&mut w, 2);
        for (i, changes) in refs.iter().enumerate() {
            let changes = changes.clone();
            let ack = DynMsg::WAck {
                op: 2,
                obj,
                changes,
                accepted: true,
            };
            w.inject(ActorId(i), client, ack);
            w.run_to_quiescence();
        }

        let driver = &w.actor::<DynClient<u64>>(client).expect("a client").driver;
        assert_eq!(driver.changes, initial);
        let done: Vec<(OpKind<u64>, u64)> = driver
            .completed
            .iter()
            .map(|c| (c.kind, c.restarts))
            .collect();
        assert_eq!(done, [(OpKind::Read(Some(5)), 0), (OpKind::Write(9), 0)]);
        assert_eq!(w.metrics().counter("repolled_behind"), 0);
    }

    #[test]
    fn a_message_from_another_client_is_dropped() {
        // Servers are actors 0..n and clients follow them. Over TCP any
        // peer can name itself a client, so a client's frame can reach
        // another client; it must not touch a per-server slot.
        let cfg = RpConfig::uniform(3, 1);
        let mut h: StorageHarness<u64> = StorageHarness::build(
            cfg.clone(),
            2,
            25,
            UniformLatency::new(1_000, 2_000),
            DynOptions::default(),
        );
        h.write(0, 5).unwrap();
        let stray = DynMsg::R {
            op: 1,
            obj: ObjectId::DEFAULT,
            changes: CsRef::Full(ChangeSet::from_initial_weights(&cfg.initial_weights)),
        };
        h.world.inject(h.client_actor(1), h.client_actor(0), stray);
        h.settle();
        let (v, _) = h.read(0).unwrap();
        assert_eq!(v, Some(5));
    }

    #[test]
    fn refresh_metrics_zero_without_gains() {
        let mut h: StorageHarness<u64> = StorageHarness::build(
            RpConfig::uniform(5, 1),
            1,
            23,
            UniformLatency::new(1_000, 10_000),
            DynOptions::default(),
        );
        h.write(0, 1).unwrap();
        h.read(0).unwrap();
        h.settle();
        for i in 0..5 {
            let srv = h
                .world
                .actor::<DynServer<u64>>(h.server_actor(s(i)))
                .unwrap();
            assert_eq!(srv.refreshes, 0, "no transfer → no refresh");
        }
    }

    #[test]
    fn null_transfers_do_not_touch_registers_or_weights() {
        let mut h: StorageHarness<u64> = StorageHarness::build(
            RpConfig::uniform(5, 1),
            1,
            24,
            UniformLatency::new(1_000, 10_000),
            DynOptions::default(),
        );
        h.write(0, 9).unwrap();
        // floor = 5/8; Δ = 0.4 needs 1 > 1.025 → null.
        let out = h.transfer_and_wait(s(1), s(0), Ratio::dec("0.4")).unwrap();
        assert!(!out.is_effective());
        h.settle();
        for i in 0..5 {
            let srv = h
                .world
                .actor::<DynServer<u64>>(h.server_actor(s(i)))
                .unwrap();
            assert_eq!(srv.weight(), Ratio::ONE);
            assert_eq!(srv.refreshes, 0);
        }
        let (v, _) = h.read(0).unwrap();
        assert_eq!(v, Some(9));
    }

    #[test]
    fn queued_transfer_burst_batches_and_stays_linearizable() {
        use crate::lin::check_linearizable;
        use awr_core::audit_transfers;

        let mut h: StorageHarness<u64> = StorageHarness::build(
            RpConfig::uniform(7, 2),
            2,
            31,
            UniformLatency::new(1_000, 40_000),
            DynOptions::default(),
        );
        h.write(0, 1).unwrap();
        // A burst of three donations from s3: two queue behind the first
        // and drain as one batched ⟨T⟩ envelope.
        h.transfer_queued(s(3), s(0), Ratio::dec("0.05")).unwrap();
        h.transfer_queued(s(3), s(0), Ratio::dec("0.05")).unwrap();
        h.transfer_queued(s(3), s(0), Ratio::dec("0.05")).unwrap();
        let (v, _) = h.read(1).unwrap();
        assert_eq!(v, Some(1));
        h.settle();
        check_linearizable(&h.history()).expect("linearizable under batched transfers");
        let report = audit_transfers(h.config(), &h.all_completed_transfers());
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.effective, 3);
        // Two RB instances (eager relay = (n−1)² T messages each), and the
        // gainer refreshed once per *batch*, not once per transfer.
        assert_eq!(h.world.metrics().sent_of_kind("T"), 2 * 36);
        let s0 = h
            .world
            .actor::<DynServer<u64>>(h.server_actor(s(0)))
            .unwrap();
        assert_eq!(s0.refreshes, 2);
        assert_eq!(s0.weight(), Ratio::dec("1.15"));
    }

    #[test]
    fn refresh_acks_are_delta_encoded_for_large_values() {
        // A fat register: shipping it in every RefreshAck would cost
        // n × ~0.5 KB per refresh. With delta encoding, a replier whose
        // register is no newer than the refresher's sends an empty ack.
        let fat = "x".repeat(512);
        let mut h: StorageHarness<String> = StorageHarness::build(
            RpConfig::uniform(5, 1),
            1,
            33,
            UniformLatency::new(1_000, 10_000),
            DynOptions::default(),
        );
        h.write(0, fat.clone()).unwrap();
        // Weight moves → both endpoints refresh before applying. Every
        // server already holds the written register, so every ack elides
        // its value.
        h.transfer_and_wait(s(1), s(0), Ratio::dec("0.1")).unwrap();
        h.settle();
        let s0 = h
            .world
            .actor::<DynServer<String>>(h.server_actor(s(0)))
            .unwrap();
        assert_eq!(s0.refreshes, 1);
        let m = h.world.metrics();
        assert!(m.sent_of_kind("RefA") >= 5);
        let empty = frame_len(&DynMsg::<String>::RefreshAck {
            op: 0,
            regs: BTreeMap::new(),
            need_tags: false,
        });
        assert_eq!(
            m.mean_bytes_of_kind("RefA"),
            empty as f64,
            "every ack should elide the register (full would be over {} B)",
            fat.len()
        );
        // The refresh outcome is unchanged: the register survives.
        let (v, _) = h.read(0).unwrap();
        assert_eq!(v, Some(fat));
    }

    #[test]
    fn options_default_matches_paper() {
        let o = DynOptions::default();
        // Reads default to the weighted fast path, both phases to the
        // smallest quorum by weight, and change sets to the negotiated
        // wire; the paper-literal `TwoPhase`, `All` and `ForceFull` stay
        // available as the equivalence baselines.
        assert_eq!(o.read, ReadMode::FastPath);
        assert_eq!(o.fanout, Fanout::Quorum);
        assert_eq!(o.wire, WireMode::Negotiate);
    }

    #[test]
    fn quiescent_read_takes_one_phase() {
        // After a settled write, every server stores the max tag, so a
        // read's phase-1 repliers are all fresh: no W traffic at all.
        let mut h = StorageHarness::<u64>::build(
            RpConfig::uniform(5, 1),
            1,
            11,
            UniformLatency::new(1_000, 2_000),
            DynOptions::default(),
        );
        h.write(0, 42).expect("write");
        h.settle();
        let before = h.world.metrics().clone();
        let (v, _) = h.read(0).expect("read");
        assert_eq!(v, Some(42));
        let window = h.world.metrics().since(&before);
        assert_eq!(window.sent_of_kind("W"), 0, "fast path must skip phase 2");
        assert_eq!(window.counter("read_fastpath_hit"), 1);
        assert_eq!(window.counter("read_fastpath_miss"), 0);
    }

    #[test]
    fn two_phase_mode_keeps_full_write_back() {
        // No replier is pre-counted: `W` goes to everyone the phase asked —
        // all five under the paper's fanout, the three-server quorum under
        // the default.
        for (fanout, asked) in [(Fanout::All, 5), (Fanout::Quorum, 3)] {
            let mut h = StorageHarness::<u64>::build(
                RpConfig::uniform(5, 1),
                1,
                11,
                UniformLatency::new(1_000, 2_000),
                DynOptions {
                    read: ReadMode::TwoPhase,
                    fanout,
                    ..DynOptions::default()
                },
            );
            h.write(0, 42).expect("write");
            h.settle();
            let before = h.world.metrics().clone();
            let (v, _) = h.read(0).expect("read");
            assert_eq!(v, Some(42));
            let window = h.world.metrics().since(&before);
            assert_eq!(
                window.sent_of_kind("W"),
                asked,
                "two-phase reads write back to every server asked"
            );
            assert_eq!(window.counter("read_fastpath_hit"), 0);
        }
    }
}
