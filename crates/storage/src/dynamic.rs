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
//! * when a server gains weight it refreshes its register *before*
//!   applying the change (Algorithm 4 lines 8–9) so that newly possible
//!   quorums always contain the latest value (Lemma 4). The refresh is a
//!   count-based `n − f` read answered unconditionally — safe because an
//!   `n − f` count set intersects every weighted quorum under every
//!   Property-1 map, and live where a weight-judged read provably
//!   deadlocks with f + 1 concurrent gainers (DESIGN.md §5.6);
//! * two ablation knobs — [`DynOptions::restart_on_stale`] and
//!   [`DynOptions::refresh_on_gain`] — let experiment E10 demonstrate that
//!   both mechanisms are load-bearing.
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
//!    `R`/`W`; the server's accept check is the digest comparison;
//! 2. a rejecting server answers with [`CsRef::Delta`] against the
//!    client's digest when its journal covers the gap (the steady-state
//!    mismatch: the client is a few transfers behind), falling back to
//!    [`CsRef::Full`] when it cannot (client ahead or diverged);
//! 3. the client absorbs the reply ([`ChangeSet::apply_ref`]); if it
//!    learned new changes it restarts the operation (Algorithm 5
//!    lines 14–16), otherwise the server is behind and the client re-polls
//!    just that server — both exactly the pre-delta semantics;
//! 4. per rejecting server, one unresolved delta (the client re-presents
//!    the digest the server already answered) degrades the next reply to
//!    `Full`, so every exchange is bounded and liveness needs no new
//!    argument.
//!
//! [`WireMode::ForceFull`] restores the ship-everything wire on these four
//! ABD phases (`R`/`RAck`/`W`/`WAck`) — the accept check becomes the exact
//! set comparison again and every payload is [`CsRef::Full`] — which makes
//! it the equivalence baseline for the `wire_equivalence` test suite and
//! the "before" arm of `bench_wire`. The knob deliberately does not reach
//! the embedded Algorithm 3/4 legs (`RC`/`RC_Ack`/`WC`): those negotiate
//! unconditionally (see [`awr_core::restricted`]), so byte comparisons
//! between the two modes are scoped to the ABD message kinds.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use awr_core::restricted::{ApplyRequest, CoreEvent, TransferCore, TransferStart, WrMsg};
use awr_core::{RpConfig, TransferError, TransferOutcome};
use awr_epoch::CheckpointCadence;
use awr_quorum::{smallest_quorum_avoiding, WeightedMajorityQuorumSystem};
use awr_sim::{Actor, ActorId, Context, Message, Nanos, Time, TimerId};
use awr_types::{ChangeSet, CsRef, ObjectId, ProcessId, Ratio, ServerId, Tag, TaggedValue};

use crate::durable::{Snapshot, StorageHandle, WalRecord};
use crate::history::{HistOp, OpKind};
use crate::Value;

/// Wire messages of the dynamic-weighted storage: the weight-reassignment
/// sub-protocol plus change-set-referencing ABD phases (see the module
/// docs for the negotiation).
#[derive(Clone, Debug, PartialEq)]
pub enum DynMsg<V> {
    /// Weight-reassignment traffic (Algorithms 3–4).
    Wr(WrMsg),
    /// Phase-1 request referencing the client's `C`.
    R {
        /// Client-local operation counter.
        op: u64,
        /// The object being read or written.
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
        /// The server's register content for that object.
        reg: TaggedValue<V>,
        /// Reference to the server's current change set.
        changes: CsRef,
        /// Whether the server accepted the operation.
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
    /// Phase-2 reply.
    WAck {
        /// Echo of the request counter.
        op: u64,
        /// Echo of the object key.
        obj: ObjectId,
        /// Reference to the server's current change set.
        changes: CsRef,
        /// Whether the server accepted (and possibly applied) the write.
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
        /// digest of them above [`DynOptions::refresh_tags_cap`] (see
        /// [`RefreshHave`]).
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
/// O(|objects|) on the wire. Above [`DynOptions::refresh_tags_cap`] the
/// refresher sends a constant-size commutative digest of its `(object,
/// tag)` pairs instead: a replier whose own pairs digest identically has
/// nothing newer and acks empty, and a replier that differs answers
/// `need_tags` so the refresher falls back to a per-key round with that
/// replier alone. Converged steady state therefore costs O(1) per
/// replier, and the fallback is bounded by one extra round trip.
#[derive(Clone, Debug, PartialEq, Eq)]
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

/// Commutative digest of a register map's `(object, tag)` pairs: equal
/// maps digest equally regardless of insertion order, and (w.h.p.) unequal
/// maps do not. The register *values* are deliberately excluded — tags
/// alone decide freshness.
pub fn reg_tag_digest<V>(registers: &BTreeMap<ObjectId, TaggedValue<V>>) -> u64 {
    use std::hash::{Hash, Hasher};
    registers
        .iter()
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
            DynMsg::RAck { .. } => "R_A",
            DynMsg::W { .. } => "W",
            DynMsg::WAck { .. } => "W_A",
            DynMsg::RefreshR { .. } => "RefR",
            DynMsg::RefreshAck { .. } => "RefA",
            DynMsg::SyncR { .. } => "SyR",
            DynMsg::SyncAck { .. } => "SyA",
        }
    }

    // Register values are metered at their in-memory footprint
    // (`size_of_val`), which is exact for the inline `Copy` values used
    // throughout this workspace but undercounts a heap-backed `V` (e.g.
    // `String`): `Value` is blanket-implemented, so there is no hook to ask
    // an arbitrary `V` for its heap size. The change-set payloads — the
    // quantity this accounting exists to expose — are always charged fully.
    fn wire_size(&self) -> usize {
        const OBJ: usize = std::mem::size_of::<ObjectId>();
        match self {
            DynMsg::Wr(m) => m.wire_size(),
            DynMsg::R { changes, .. } => 12 + OBJ + changes.wire_size(),
            DynMsg::WAck { changes, .. } => 16 + OBJ + changes.wire_size(),
            DynMsg::RAck { reg, changes, .. } | DynMsg::W { reg, changes, .. } => {
                16 + OBJ + std::mem::size_of_val(reg) + changes.wire_size()
            }
            // Tags mode: header + one (key, tag) pair per object the
            // refresher holds — the per-reassignment cost of covering the
            // whole object space, independent of register value sizes.
            // Digest mode: a constant header + digest + count, however many
            // objects the shard holds.
            DynMsg::RefreshR { have, .. } => match have {
                RefreshHave::Tags(t) => 16 + t.len() * (OBJ + std::mem::size_of::<Tag>()),
                RefreshHave::Digest { .. } => 16 + 12,
            },
            // Elided registers cost nothing: a converged replier sends a
            // 16-byte header (the `need_tags` bit rides in it) however many
            // objects the shard holds. Shipped registers are charged at
            // their footprint plus their key.
            DynMsg::RefreshAck { regs, .. } => {
                16 + regs
                    .values()
                    .map(|r| OBJ + std::mem::size_of_val(r))
                    .sum::<usize>()
            }
            DynMsg::SyncR { .. } => 12,
            DynMsg::SyncAck { changes } => 16 + changes.wire_size(),
        }
    }

    // Full-content digest for the model-checking explorer: `Value: Hash`
    // lets register payloads hash directly, and change-set references hash
    // by variant + implied digest (see `WrMsg::content_digest`).
    fn content_digest(&self) -> Option<u64> {
        use std::hash::{Hash, Hasher};
        fn hash_cs_ref(h: &mut impl Hasher, r: &CsRef) {
            match r {
                CsRef::Summary { digest, len } => (0u8, digest, len).hash(h),
                CsRef::Delta { base_digest, adds } => (1u8, base_digest, adds).hash(h),
                CsRef::Full(set) => (2u8, set.digest(), set.len()).hash(h),
            }
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        match self {
            DynMsg::Wr(m) => (0u8, m.content_digest()?).hash(&mut h),
            DynMsg::R { op, obj, changes } => {
                (1u8, op, obj).hash(&mut h);
                hash_cs_ref(&mut h, changes);
            }
            DynMsg::RAck {
                op,
                obj,
                reg,
                changes,
                accepted,
            } => {
                (2u8, op, obj, reg, accepted).hash(&mut h);
                hash_cs_ref(&mut h, changes);
            }
            DynMsg::W {
                op,
                obj,
                reg,
                changes,
            } => {
                (3u8, op, obj, reg).hash(&mut h);
                hash_cs_ref(&mut h, changes);
            }
            DynMsg::WAck {
                op,
                obj,
                changes,
                accepted,
            } => {
                (4u8, op, obj, accepted).hash(&mut h);
                hash_cs_ref(&mut h, changes);
            }
            DynMsg::RefreshR { op, have } => {
                (5u8, op).hash(&mut h);
                match have {
                    RefreshHave::Tags(tags) => (0u8, tags).hash(&mut h),
                    RefreshHave::Digest { digest, count } => (1u8, digest, count).hash(&mut h),
                }
            }
            DynMsg::RefreshAck {
                op,
                regs,
                need_tags,
            } => (6u8, op, regs, need_tags).hash(&mut h),
            DynMsg::SyncR { digest } => (7u8, digest).hash(&mut h),
            DynMsg::SyncAck { changes } => {
                8u8.hash(&mut h);
                hash_cs_ref(&mut h, changes);
            }
        }
        Some(h.finish())
    }

    // Per-object byte attribution: the four keyed ABD phases carry their
    // object; reassignment traffic and the (whole-space) refresh legs are
    // shared infrastructure and stay unattributed.
    fn object_key(&self) -> Option<u64> {
        match self {
            DynMsg::R { obj, .. }
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

/// How `R`/`W`/`RAck`/`WAck` reference the change set on the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WireMode {
    /// Digest summaries with delta/full negotiation on mismatch (the
    /// module docs' state machine): steady-state payloads are O(1) in |C|.
    #[default]
    Negotiate,
    /// Ship the full change set on every `R`/`RAck`/`W`/`WAck` — the
    /// paper-literal wire format for the ABD phases (the embedded
    /// Algorithm 3/4 legs negotiate regardless). Baseline for equivalence
    /// tests and `bench_wire`.
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
/// delta-negotiated wire). Turning either boolean off reproduces the E10
/// ablations (and breaks atomicity, as the checker shows).
#[derive(Clone, Copy, Debug)]
pub struct DynOptions {
    /// Restart operations when a server's change set differs (paper: on).
    pub restart_on_stale: bool,
    /// Refresh the register with a full read before applying a weight gain
    /// (Algorithm 4 lines 8–9; paper: on).
    pub refresh_on_gain: bool,
    /// Wire representation of change sets on the ABD phases.
    pub wire: WireMode,
    /// Read completion strategy (one-phase fast path vs paper-literal two
    /// phases).
    pub read: ReadMode,
    /// Journal-compaction (and, with a [`crate::StorageHandle`] attached,
    /// snapshot) cadence. `None` — the default — never compacts, which is
    /// the pre-durability behaviour: the journal holds every change.
    pub checkpoint: Option<CheckpointCadence>,
    /// Largest register map a refresher will enumerate per-key in
    /// [`DynMsg::RefreshR`]; above it the request carries a
    /// [`RefreshHave::Digest`] instead (constant-size, one extra round
    /// trip per diverged replier).
    pub refresh_tags_cap: usize,
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
            restart_on_stale: true,
            refresh_on_gain: true,
            wire: WireMode::Negotiate,
            read: ReadMode::FastPath,
            checkpoint: None,
            refresh_tags_cap: 64,
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
/// [`ServerId`], so a duplicate delivery can neither double-apply a write
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

/// A completed read/write (client-side record).
#[derive(Clone, Debug)]
pub struct DynCompletedOp<V> {
    /// The object the operation targeted.
    pub obj: ObjectId,
    /// What happened.
    pub kind: OpKind<V>,
    /// Invocation time.
    pub invoke: Time,
    /// Response time.
    pub response: Time,
    /// How many times the operation restarted due to stale change sets.
    pub restarts: u64,
}

#[derive(Debug)]
enum DynPhase<V> {
    Idle,
    One {
        op: u64,
        obj: ObjectId,
        write_value: Option<V>,
        invoke: Time,
        restarts: u64,
        /// Running quorum weight of [`DynOpDriver::replies`] under the
        /// client's `C`:
        /// maintained incrementally so each ack is O(1) instead of
        /// re-summing every responder. Sound because `C` is frozen for the
        /// lifetime of the phase (any change to `C` restarts the phase).
        weight: Ratio,
    },
    Two {
        op: u64,
        obj: ObjectId,
        write_value: Option<V>,
        invoke: Time,
        restarts: u64,
        chosen: TaggedValue<V>,
        /// Running quorum weight of [`DynOpDriver::acks`] (same discipline
        /// as phase 1).
        weight: Ratio,
    },
}

/// The reader/writer engine of Algorithm 5 — embeddable by any process
/// that wants to read or write the register.
#[derive(Debug)]
pub struct DynOpDriver<V> {
    id: ProcessId,
    cfg: RpConfig,
    actor_base: usize,
    options: DynOptions,
    /// The process's current set of completed changes `C`.
    pub changes: ChangeSet,
    op_cnt: u64,
    phase: DynPhase<V>,
    /// Phase-1 replies of the operation in flight, one slot per server
    /// (index = [`ServerId`]). The slots live on the driver and are
    /// cleared when a phase 1 begins, so an operation allocates nothing
    /// for them; meaningful only in [`DynPhase::One`].
    replies: Vec<Option<TaggedValue<V>>>,
    /// Phase-2 acks, one flag per server: the fresh phase-1 repliers plus
    /// every `WAck` since. Meaningful only in [`DynPhase::Two`].
    acks: Vec<bool>,
    /// Completed operations, oldest first.
    pub completed: Vec<DynCompletedOp<V>>,
    /// The armed rebroadcast timer, if [`DynOptions::retry`] is on and an
    /// operation is in flight.
    retry_timer: Option<TimerId>,
    /// Rebroadcasts already spent on the current operation attempt.
    attempts: u32,
    /// The smallest quorum by weight avoiding the current suspects under
    /// the `C` digested in `targets_for` — heaviest first, empty if
    /// the unsuspected servers cannot form one. Recomputed at a phase-1
    /// send when `C` or the suspect set has moved, so a steady-state send
    /// neither sorts nor allocates.
    targets: Vec<ServerId>,
    /// Digest of the `C` that `targets` was computed under; `None` when the
    /// suspect set changed since.
    targets_for: Option<u64>,
    /// Suspicion, one slot per server (index = [`ServerId`]): a server that
    /// was asked and stayed silent past a widen deadline is skipped by
    /// `targets` until it next speaks or its suspicion lapses. Only ever
    /// touched under [`Fanout::Quorum`].
    suspicion: Vec<Suspicion>,
    /// Whether the attempt in flight has been sent to `targets` only — its
    /// phase 1, and the phase 2 that follows — and not widened since.
    targeted: bool,
    /// When the phase 1 in flight was (last) started.
    phase1_sent: Time,
    /// EWMA (α = 1/8) of un-widened phase-1 completion times — the measured
    /// half of the widen deadline. Sampled under [`Fanout::Quorum`] only.
    phase1_ewma: Option<Nanos>,
}

/// What a driver holds against one server (see [`Fanout`]).
#[derive(Clone, Copy, Debug, Default)]
struct Suspicion {
    /// Suspicions in a row with no message from the server in between: the
    /// next lapse is 2^`strikes` widen deadlines.
    strikes: u32,
    /// The armed lapse timer — `Some` exactly while the server is a suspect.
    lapse: Option<TimerId>,
}

/// Timer tags with this bit set are suspicion lapses (the server's index in
/// the low bits); rebroadcast timers are tagged with the operation counter.
/// Clear of the top bit, which [`crate::OpenLoopClient`] reserves.
const LAPSE_TAG: u64 = 1 << 62;
/// A lapse is at most 2^8 widen deadlines: 1.3 s at the deadline's floor,
/// and a dead quorum member costs its clients under 0.4 % of their time.
const LAPSE_CAP_LOG2: u32 = 8;

/// The widen deadline is this many times the phase-1 EWMA …
const WIDEN_FACTOR: u64 = 8;
/// … and never shorter than this (5 ms). Two reasons, both measured on the
/// loopback mesh, where the EWMA is tens of microseconds: a deadline under
/// a scheduler timeslice fires whenever a server thread is descheduled;
/// and a deadline under the embedding loop's own step timeout (2 ms in
/// `benchmark/` and `tcp_demo`) makes every wait of the hot path the
/// earliest timer on its CPU, which costs two clock-event reprogrammings
/// per wait (33.4 k → 28.0 k ops/s on `tcp_read_mostly` at a 1 ms floor).
const WIDEN_FLOOR: Nanos = 5_000_000;

impl<V: Value> DynOpDriver<V> {
    /// Creates a driver whose initial `C` is the conventional initial set.
    pub fn new(id: ProcessId, cfg: RpConfig, actor_base: usize, options: DynOptions) -> Self {
        DynOpDriver {
            changes: ChangeSet::from_initial_weights(&cfg.initial_weights),
            id,
            actor_base,
            options,
            op_cnt: 0,
            phase: DynPhase::Idle,
            replies: vec![None; cfg.n],
            acks: vec![false; cfg.n],
            completed: Vec::new(),
            retry_timer: None,
            attempts: 0,
            targets: Vec::new(),
            targets_for: None,
            suspicion: vec![Suspicion::default(); cfg.n],
            targeted: false,
            phase1_sent: Time::ZERO,
            phase1_ewma: None,
            cfg,
        }
    }

    /// Whether an operation is in flight.
    pub fn is_busy(&self) -> bool {
        !matches!(self.phase, DynPhase::Idle)
    }

    /// A canonical digest of the driver's logical state, for the
    /// model-checking explorer. Invocation times and timer identities are
    /// excluded — two schedules reaching the same protocol state at
    /// different simulated clocks must collide.
    pub fn state_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.id.hash(&mut h);
        self.op_cnt.hash(&mut h);
        self.changes.digest().hash(&mut h);
        self.attempts.hash(&mut h);
        self.retry_timer.is_some().hash(&mut h);
        // Fanout state — constant under `Fanout::All`. The measured
        // deadline enters only as "is there one": its value sets a timer's
        // delay, which the explorer does not order by.
        self.targeted.then_some(&self.targets).hash(&mut h);
        // Who is a suspect, not for how long: strikes only scale a delay.
        for s in &self.suspicion {
            s.lapse.is_some().hash(&mut h);
        }
        self.phase1_ewma.is_some().hash(&mut h);
        match &self.phase {
            DynPhase::Idle => 0u8.hash(&mut h),
            DynPhase::One {
                op,
                obj,
                write_value,
                invoke: _,
                restarts,
                weight,
            } => {
                (1u8, op, obj, write_value, restarts).hash(&mut h);
                // The sequence a `BTreeMap<ServerId, _>` of the replies
                // hashes: the length, then the pairs by ascending server.
                self.replies.iter().flatten().count().hash(&mut h);
                for (i, reg) in self.replies.iter().enumerate() {
                    if let Some(reg) = reg {
                        (ServerId(i as u32), reg).hash(&mut h);
                    }
                }
                weight.hash(&mut h);
            }
            DynPhase::Two {
                op,
                obj,
                write_value,
                invoke: _,
                restarts,
                chosen,
                weight,
            } => {
                (2u8, op, obj, write_value, restarts, chosen).hash(&mut h);
                // As a `BTreeSet<ServerId>` of the ackers would hash.
                self.acks.iter().filter(|&&a| a).count().hash(&mut h);
                for (i, _) in self.acks.iter().enumerate().filter(|(_, &a)| a) {
                    ServerId(i as u32).hash(&mut h);
                }
                weight.hash(&mut h);
            }
        }
        for c in &self.completed {
            (c.obj, &c.kind, c.restarts).hash(&mut h);
        }
        h.finish()
    }

    /// Begins `read()` (write value `None`) or `write(v)` on the
    /// [default object](ObjectId::DEFAULT).
    ///
    /// # Panics
    ///
    /// Panics if an operation is already in flight.
    pub fn begin<M: Message>(
        &mut self,
        write_value: Option<V>,
        ctx: &mut Context<'_, M>,
        wrap: impl Fn(DynMsg<V>) -> M + Copy,
    ) {
        self.begin_obj(ObjectId::DEFAULT, write_value, ctx, wrap);
    }

    /// Begins `read(obj)` (write value `None`) or `write(obj, v)`. All
    /// objects share this driver's change set `C` and quorum judgement —
    /// only the register addressed by the two phases differs.
    ///
    /// # Panics
    ///
    /// Panics if an operation is already in flight.
    pub fn begin_obj<M: Message>(
        &mut self,
        obj: ObjectId,
        write_value: Option<V>,
        ctx: &mut Context<'_, M>,
        wrap: impl Fn(DynMsg<V>) -> M + Copy,
    ) {
        assert!(!self.is_busy(), "operation already in flight");
        self.op_cnt += 1;
        self.replies.fill(None);
        self.phase = DynPhase::One {
            op: self.op_cnt,
            obj,
            write_value,
            invoke: ctx.now(),
            restarts: 0,
            weight: Ratio::ZERO,
        };
        self.start_phase1(ctx, wrap);
    }

    /// The rebroadcast policy in force: the configured one, else — for a
    /// [`Fanout::Quorum`] client with a phase-1 sample — the measured widen
    /// deadline under the default budget. `None` means no timer is ever
    /// armed and phase 1 asks everyone: [`Fanout::All`], or no sample yet.
    fn retry_policy(&self) -> Option<RetryPolicy> {
        self.options.retry.or_else(|| {
            let ewma = self.phase1_ewma?;
            Some(RetryPolicy {
                base: ewma.saturating_mul(WIDEN_FACTOR).max(WIDEN_FLOOR),
                ..RetryPolicy::default()
            })
        })
    }

    /// (Re)arms the rebroadcast timer for the current operation, with the
    /// delay doubled per attempt already spent. No-op without a
    /// [`DynOpDriver::retry_policy`].
    fn arm_retry<M: Message>(&mut self, ctx: &mut Context<'_, M>) {
        let Some(rp) = self.retry_policy() else {
            return;
        };
        if let Some(t) = self.retry_timer.take() {
            ctx.cancel_timer(t);
        }
        let delay = rp.base.saturating_mul(1u64 << self.attempts.min(16));
        self.retry_timer = Some(ctx.set_timer(delay, self.op_cnt));
    }

    /// Disarms the rebroadcast timer (operation finished or superseded).
    fn disarm_retry<M: Message>(&mut self, ctx: &mut Context<'_, M>) {
        if let Some(t) = self.retry_timer.take() {
            ctx.cancel_timer(t);
        }
        self.attempts = 0;
    }

    /// Timer callback: rebroadcasts the current phase if the operation the
    /// timer was armed for is still in flight (see [`RetryPolicy`]), or lets
    /// a suspicion lapse (see [`Fanout`]). Embedding actors forward
    /// [`Actor::on_timer`] here.
    pub fn on_timer<M: Message>(
        &mut self,
        tag: u64,
        ctx: &mut Context<'_, M>,
        wrap: impl Fn(DynMsg<V>) -> M + Copy,
    ) {
        if tag & LAPSE_TAG != 0 {
            // The server is a candidate again; its strikes stand until it
            // speaks, so a dead one is retried ever more rarely.
            self.suspicion[(tag & !LAPSE_TAG) as usize].lapse = None;
            self.targets_for = None;
            ctx.record_counter("suspicion_lapsed", 1);
            return;
        }
        let Some(rp) = self.retry_policy() else {
            return;
        };
        let cur_op = match &self.phase {
            DynPhase::One { op, .. } | DynPhase::Two { op, .. } => *op,
            DynPhase::Idle => return,
        };
        if tag != cur_op {
            return; // stale timer from a superseded attempt
        }
        self.retry_timer = None;
        if self.attempts >= rp.max_attempts {
            return; // give up rebroadcasting; the op stays pending
        }
        self.attempts += 1;
        if self.options.fanout == Fanout::Quorum {
            self.suspect_silent(rp.base, ctx);
        }
        let widened = std::mem::take(&mut self.targeted);
        match &self.phase {
            DynPhase::One { .. } => {
                if widened {
                    ctx.record_counter("phase1_widened", 1);
                }
                self.send_phase1(ctx, wrap);
            }
            DynPhase::Two {
                op, obj, chosen, ..
            } => {
                if widened {
                    ctx.record_counter("phase2_widened", 1);
                }
                // Same op number, same chosen register, to every server
                // whose ack is not in yet — the targets that stayed silent
                // and, on the widen, everyone outside them. A server that
                // already adopted the register (or something newer) acks
                // without effect, and the driver's ack slots dedupe by
                // ServerId — the write cannot double-apply.
                let base = self.actor_base;
                let acks = &self.acks;
                ctx.broadcast_filter(
                    (0..self.cfg.n).map(|i| ActorId(base + i)),
                    wrap(DynMsg::W {
                        op: *op,
                        obj: *obj,
                        reg: chosen.clone(),
                        changes: self.cs_payload(),
                    }),
                    |a| !acks[a.index() - base],
                );
            }
            DynPhase::Idle => unreachable!("checked above"),
        }
        // Re-arm only while there is a rebroadcast left to spend: a timer
        // that could do nothing is still an event to every runtime (and a
        // free choice to the model checker).
        if self.attempts < rp.max_attempts {
            self.arm_retry(ctx);
        }
    }

    /// Client-side journal hygiene: a client's journal exists only to feed
    /// its own `delta_since` — but clients never *serve* deltas (they send
    /// summaries or full sets), so beyond a small tail the journal is dead
    /// weight. Compacts on the configured cadence; no-op by default.
    fn maybe_compact(&mut self) {
        if let Some(cad) = self.options.checkpoint {
            if cad.due(self.changes.journal_len()) {
                self.changes.compact_journal(cad.min_retain);
            }
        }
    }

    /// The wire reference this client attaches to its `R`/`W` requests: an
    /// O(1) summary under [`WireMode::Negotiate`] (the server only needs
    /// to *compare*), the whole set under [`WireMode::ForceFull`].
    fn cs_payload(&self) -> CsRef {
        match self.options.wire {
            WireMode::Negotiate => CsRef::summary(&self.changes),
            // Attaching `C` is a reference-count bump: the n messages of a
            // round share one copy-on-write storage.
            WireMode::ForceFull => CsRef::Full(self.changes.clone()),
        }
    }

    /// Starts (or restarts) phase 1 of the operation in [`DynPhase::One`]:
    /// decides whom this attempt asks, sends `R`, arms the rebroadcast
    /// timer (which stays armed through the attempt's phase 2).
    fn start_phase1<M: Message>(
        &mut self,
        ctx: &mut Context<'_, M>,
        wrap: impl Fn(DynMsg<V>) -> M + Copy,
    ) {
        self.attempts = 0;
        self.phase1_sent = ctx.now();
        // Ask a quorum only when a timer will widen a stalled attempt, and
        // when the servers not under suspicion can still form one.
        self.targeted = self.options.fanout == Fanout::Quorum
            && self.retry_policy().is_some()
            && self.refresh_targets();
        if self.targeted {
            ctx.record_counter("phase1_targeted", 1);
            ctx.record_sample("phase1_fanout", self.targets.len() as u64);
        }
        self.send_phase1(ctx, wrap);
        self.arm_retry(ctx);
    }

    /// Brings [`DynOpDriver::targets`] up to date with `C` and the suspect
    /// set; returns whether there is a quorum to target.
    fn refresh_targets(&mut self) -> bool {
        let digest = self.changes.digest();
        if self.targets_for != Some(digest) {
            let q = WeightedMajorityQuorumSystem::with_threshold_total(
                self.changes.weights(self.cfg.n),
                self.cfg.initial_total(),
            );
            let suspects = (0..self.cfg.n)
                .filter(|&i| self.suspicion[i].lapse.is_some())
                .map(|i| ServerId(i as u32))
                .collect();
            self.targets = smallest_quorum_avoiding(&q, &suspects).unwrap_or_default();
            self.targets_for = Some(digest);
        }
        !self.targets.is_empty()
    }

    /// A widen deadline (`deadline`, undoubled) passed: every server this
    /// attempt asked that has not answered the phase in flight becomes a
    /// suspect, to be skipped until it next speaks or the suspicion lapses.
    /// While the attempt is targeted the asked are `targets` — in phase 2
    /// too, where they are exactly the phase-1 repliers; otherwise every
    /// server was sent this attempt's `R` or `W`.
    fn suspect_silent<M: Message>(&mut self, deadline: Nanos, ctx: &mut Context<'_, M>) {
        let phase2 = matches!(self.phase, DynPhase::Two { .. });
        for i in 0..self.cfg.n {
            let asked = !self.targeted || self.targets.contains(&ServerId(i as u32));
            let answered = if phase2 {
                self.acks[i]
            } else {
                self.replies[i].is_some()
            };
            let s = &mut self.suspicion[i];
            if asked && !answered && s.lapse.is_none() {
                let lapse = deadline.saturating_mul(2 << s.strikes.min(LAPSE_CAP_LOG2 - 1));
                s.lapse = Some(ctx.set_timer(lapse, LAPSE_TAG | i as u64));
                s.strikes += 1;
                self.targets_for = None;
                ctx.record_counter("server_suspected", 1);
            }
        }
    }

    /// Sends the current phase 1's `R` — to [`DynOpDriver::targets`] while
    /// the phase is targeted, to every server otherwise.
    fn send_phase1<M: Message>(
        &mut self,
        ctx: &mut Context<'_, M>,
        wrap: impl Fn(DynMsg<V>) -> M + Copy,
    ) {
        let (op, obj) = match &self.phase {
            DynPhase::One { op, obj, .. } => (*op, *obj),
            _ => unreachable!("send_phase1 outside phase 1"),
        };
        let r = || {
            wrap(DynMsg::R {
                op,
                obj,
                changes: self.cs_payload(),
            })
        };
        if self.targeted {
            for s in &self.targets {
                ctx.send(ActorId(self.actor_base + s.index()), r());
            }
        } else {
            for i in 0..self.cfg.n {
                ctx.send(ActorId(self.actor_base + i), r());
            }
        }
    }

    /// Restarts the whole operation under the (already reconciled) newer
    /// `C` (Algorithm 5 lines 14–16 / 30–32).
    fn restart<M: Message>(
        &mut self,
        ctx: &mut Context<'_, M>,
        wrap: impl Fn(DynMsg<V>) -> M + Copy,
    ) {
        self.op_cnt += 1;
        let (obj, write_value, invoke, restarts) =
            match std::mem::replace(&mut self.phase, DynPhase::Idle) {
                DynPhase::One {
                    obj,
                    write_value,
                    invoke,
                    restarts,
                    ..
                } => (obj, write_value, invoke, restarts),
                DynPhase::Two {
                    obj,
                    write_value,
                    invoke,
                    restarts,
                    chosen,
                    ..
                } => {
                    // A write restarted from phase 2 re-runs phase 1 with its
                    // original value; a read re-runs phase 1 discarding the
                    // previously chosen register.
                    let _ = chosen;
                    (obj, write_value, invoke, restarts)
                }
                DynPhase::Idle => unreachable!("restart on idle driver"),
            };
        self.replies.fill(None);
        self.phase = DynPhase::One {
            op: self.op_cnt,
            obj,
            write_value,
            invoke,
            restarts: restarts + 1,
            weight: Ratio::ZERO,
        };
        self.start_phase1(ctx, wrap);
    }

    /// Feeds a client-side message. Returns the completed operation when the
    /// invocation finishes.
    pub fn on_message<M: Message>(
        &mut self,
        from: ActorId,
        msg: &DynMsg<V>,
        ctx: &mut Context<'_, M>,
        wrap: impl Fn(DynMsg<V>) -> M + Copy,
    ) -> Option<DynCompletedOp<V>> {
        let sid = ServerId((from.index() - self.actor_base) as u32);
        // It spoke: no longer a suspect, whatever it said.
        if let Some(t) = std::mem::take(&mut self.suspicion[sid.index()]).lapse {
            ctx.cancel_timer(t);
            self.targets_for = None;
        }
        match msg {
            DynMsg::RAck {
                op,
                obj,
                reg,
                changes,
                accepted,
            } => {
                let (cur_op, cur_obj) = match &self.phase {
                    DynPhase::One { op, obj, .. } => (*op, *obj),
                    _ => return None,
                };
                if *op != cur_op || *obj != cur_obj {
                    return None;
                }
                if !accepted && self.options.restart_on_stale {
                    // Two kinds of mismatch. If the server's reference
                    // taught us changes we lacked, restart the operation
                    // (Algorithm 5 lines 14–16). If instead the server is
                    // *behind* us (e.g. frozen mid-refresh) — the reference
                    // added nothing — restarting teaches us nothing and
                    // livelocks; re-poll just that server. The re-poll
                    // presents our (possibly unchanged) digest again; a
                    // server whose delta failed to resolve degrades its
                    // next reply to `Full`, keeping the exchange bounded.
                    let learned = self.changes.apply_ref(changes).learned();
                    self.maybe_compact();
                    if learned {
                        self.restart(ctx, wrap);
                    } else {
                        ctx.send(
                            from,
                            wrap(DynMsg::R {
                                op: cur_op,
                                obj: cur_obj,
                                changes: self.cs_payload(),
                            }),
                        );
                    }
                    return None;
                }
                let sid_weight = self.changes.server_weight(sid);
                let DynPhase::One {
                    write_value,
                    invoke,
                    restarts,
                    weight,
                    ..
                } = &mut self.phase
                else {
                    return None;
                };
                if self.replies[sid.index()].replace(reg.clone()).is_none() {
                    // First reply from this server: O(1) accumulator update
                    // (re-polled servers replace their register but count
                    // their weight once).
                    *weight += sid_weight;
                }
                let quorum = *weight > self.cfg.quorum_threshold();
                if quorum {
                    if self.options.fanout == Fanout::Quorum && self.attempts == 0 {
                        // An un-widened phase 1 completed: one sample of
                        // how long this client's quorums take to answer.
                        let took = ctx.now().0.saturating_sub(self.phase1_sent.0);
                        self.phase1_ewma = Some(match self.phase1_ewma {
                            None => took,
                            Some(e) => e - e / 8 + took / 8,
                        });
                    }
                    let maxreg = self
                        .replies
                        .iter()
                        .flatten()
                        .max_by_key(|r| r.tag)
                        .expect("nonempty")
                        .clone();
                    let is_read = write_value.is_none();
                    // The weighted fast path: the repliers already storing
                    // the max tag, and their cumulative weight under the
                    // same frozen `C` the phase accumulated against. Every
                    // counted replier *accepted* under that `C`, which is
                    // what makes these the replier-consistent weights the
                    // rule requires.
                    // They are marked straight into the phase-2 ack slots.
                    self.acks.fill(false);
                    let mut fresh_weight = Ratio::ZERO;
                    if is_read && self.options.read == ReadMode::FastPath {
                        for (i, r) in self.replies.iter().enumerate() {
                            if r.as_ref().is_some_and(|r| r.tag == maxreg.tag) {
                                self.acks[i] = true;
                                fresh_weight += self.changes.server_weight(ServerId(i as u32));
                            }
                        }
                        #[allow(unused_mut)]
                        let mut fast = awr_quorum::fast_path_read_quorum(
                            fresh_weight,
                            self.cfg.initial_total(),
                        );
                        #[cfg(feature = "mutate")]
                        {
                            use awr_sim::mutate::{armed, Mutation};
                            if armed(Mutation::DisarmFastPathWeightCheck) {
                                fast = true;
                            }
                        }
                        if fast {
                            // One phase suffices: the max-tag repliers form
                            // a quorum that already stores the value, so
                            // the write-back would change no server state —
                            // their phase-1 acks double as its acks.
                            let done = DynCompletedOp {
                                obj: cur_obj,
                                kind: OpKind::Read(maxreg.value.clone()),
                                invoke: *invoke,
                                response: ctx.now(),
                                restarts: *restarts,
                            };
                            self.phase = DynPhase::Idle;
                            self.completed.push(done.clone());
                            self.disarm_retry(ctx);
                            ctx.record_counter("read_fastpath_hit", 1);
                            return Some(done);
                        }
                        ctx.record_counter("read_fastpath_miss", 1);
                    }
                    let (chosen, wv) = match write_value.take() {
                        None => (maxreg, None),
                        Some(v) => (
                            TaggedValue::new(Tag::new(maxreg.tag.ts + 1, self.id), v.clone()),
                            Some(v),
                        ),
                    };
                    let (op, invoke, restarts) = (cur_op, *invoke, *restarts);
                    // Targeted write-back: fresh repliers already store
                    // `chosen` and accepted under this `C`, so they count
                    // as acks without being re-contacted (their phase-1
                    // ack is what a zero-delay `W` round trip would have
                    // produced) and `W` goes only to the stale repliers,
                    // whose weight tops the quorum up — fresh + stale is
                    // exactly the phase-1 quorum. With an empty `fresh`
                    // (reads under TwoPhase, every write) every replier is
                    // stale: while the attempt is still targeted those are
                    // the targets — the greedy quorum is minimal, so it
                    // took all of them to get here — and `W` goes to them;
                    // an attempt that asked everyone (a client's first, a
                    // widened one) keeps the paper's full broadcast.
                    let (replies, fresh) = (&self.replies, &self.acks);
                    let stale = |i: usize| replies[i].is_some() && !fresh[i];
                    let everyone = !self.targeted && !fresh.contains(&true);
                    self.phase = DynPhase::Two {
                        op,
                        obj: cur_obj,
                        write_value: wv,
                        invoke,
                        restarts,
                        chosen: chosen.clone(),
                        weight: fresh_weight,
                    };
                    let base = self.actor_base;
                    let fan = ctx.broadcast_filter(
                        (0..self.cfg.n).map(|i| ActorId(base + i)),
                        wrap(DynMsg::W {
                            op,
                            obj: cur_obj,
                            reg: chosen.clone(),
                            changes: self.cs_payload(),
                        }),
                        |a| everyone || stale(a.index() - base),
                    ) as u64;
                    if is_read && self.options.read == ReadMode::FastPath {
                        ctx.record_sample("read_writeback_fanout", fan);
                    }
                    if self.targeted {
                        ctx.record_counter("phase2_targeted", 1);
                        ctx.record_sample("phase2_fanout", fan);
                    }
                    #[cfg(feature = "mutate")]
                    if !everyone
                        && awr_sim::mutate::armed(
                            awr_sim::mutate::Mutation::CountPhase2TargetsAsAcked,
                        )
                    {
                        // MUTATION: the servers `W` was just sent to count
                        // as having acked it — the first `W_A` then
                        // completes a write that one server stores.
                        if let DynPhase::Two { weight, .. } = &mut self.phase {
                            for i in 0..self.cfg.n {
                                if self.replies[i].is_some() && !self.acks[i] {
                                    self.acks[i] = true;
                                    *weight += self.changes.server_weight(ServerId(i as u32));
                                }
                            }
                        }
                    }
                }
                None
            }
            DynMsg::WAck {
                op,
                obj,
                changes,
                accepted,
            } => {
                let (cur_op, cur_obj) = match &self.phase {
                    DynPhase::Two { op, obj, .. } => (*op, *obj),
                    _ => return None,
                };
                if *op != cur_op || *obj != cur_obj {
                    return None;
                }
                if !accepted && self.options.restart_on_stale {
                    let learned = self.changes.apply_ref(changes).learned();
                    self.maybe_compact();
                    if learned {
                        self.restart(ctx, wrap);
                    } else if let DynPhase::Two { chosen, .. } = &self.phase {
                        // Re-poll the behind server with the same write.
                        let reg = chosen.clone();
                        ctx.send(
                            from,
                            wrap(DynMsg::W {
                                op: cur_op,
                                obj: cur_obj,
                                reg,
                                changes: self.cs_payload(),
                            }),
                        );
                    }
                    return None;
                }
                let sid_weight = self.changes.server_weight(sid);
                let DynPhase::Two {
                    write_value,
                    invoke,
                    restarts,
                    chosen,
                    weight,
                    ..
                } = &mut self.phase
                else {
                    return None;
                };
                if !std::mem::replace(&mut self.acks[sid.index()], true) {
                    *weight += sid_weight;
                }
                let quorum = *weight > self.cfg.quorum_threshold();
                if quorum {
                    let done = DynCompletedOp {
                        obj: cur_obj,
                        kind: match write_value.take() {
                            None => OpKind::Read(chosen.value.clone()),
                            Some(v) => OpKind::Write(v),
                        },
                        invoke: *invoke,
                        response: ctx.now(),
                        restarts: *restarts,
                    };
                    self.phase = DynPhase::Idle;
                    self.completed.push(done.clone());
                    self.disarm_retry(ctx);
                    return Some(done);
                }
                None
            }
            _ => None,
        }
    }
}

/// A dynamic-weighted storage server: Algorithm 6 over a keyed object
/// space, plus the embedded Algorithm 4 engine and the register-refresh
/// rule.
///
/// One server hosts *many* registers — a map keyed by [`ObjectId`] — under
/// a *single* change set `C`: the weighted configuration is shared
/// infrastructure beneath every object, so one reassignment re-weights the
/// whole shard and one register refresh (on weight gain) catches up every
/// key at once. Registers are stored sparsely: a key is absent until some
/// write for it is adopted, and an absent key reads as the bottom register.
#[derive(Debug)]
pub struct DynServer<V> {
    core: TransferCore,
    registers: BTreeMap<ObjectId, TaggedValue<V>>,
    options: DynOptions,
    /// Queue of change applications awaiting their turn (each may require a
    /// register refresh first).
    pending_applies: VecDeque<ApplyRequest>,
    /// The in-flight refresh read, if any.
    refresh: Option<RefreshRead<V>>,
    refresh_ops: u64,
    /// Per-client negotiation memory: the client digest the last reject
    /// reply cut a delta against. A client re-presenting the same digest
    /// means that delta did not resolve — the next reply degrades to
    /// `Full`. One u64 per client keeps the state machine bounded.
    nego: BTreeMap<ActorId, u64>,
    /// Completed own transfers (`⟨Complete, c⟩` log).
    pub transfer_log: Vec<TransferOutcome>,
    /// Number of register refreshes performed (metric for E10c).
    pub refreshes: u64,
    /// Durable backend, if this server runs durably. Every adopted change
    /// and register lands in its WAL before the triggering callback's
    /// outgoing messages are released (the [`Context`] buffers effects
    /// until the callback returns), so anything this server ever *said* is
    /// recoverable from what it *stored*.
    storage: Option<StorageHandle<V>>,
    /// Digest of `core.changes()` as of the last persist point. The WAL
    /// diff is `delta_since(persisted_digest)` — the journal suffix grown
    /// since that state — which keeps persisting O(new changes). The
    /// anchor is a digest, not a length: a sync-round merge can *adopt* a
    /// peer's storage wholesale (journal and all), after which length
    /// arithmetic would mis-address the suffix; when no journal suffix
    /// expresses the growth, persisting falls back to a full snapshot.
    persisted_digest: u64,
    /// Last change-set digest each client presented, feeding the
    /// compaction retention heuristic: the journal keeps enough depth to
    /// cut deltas for every digest still in sight.
    peer_digests: BTreeMap<ActorId, u64>,
    /// Set by [`DynServer::recover`]: on the next [`Actor::on_start`] this
    /// server runs the rejoin round (change-set sync + register refresh)
    /// before resuming normal service.
    rejoin: bool,
}

impl<V: Value> DynServer<V> {
    /// Creates the server for `me` under `cfg`. Servers must occupy world
    /// indices `0..n`.
    pub fn new(cfg: RpConfig, me: ServerId, options: DynOptions) -> DynServer<V> {
        let core = TransferCore::new(cfg, me, 0);
        let persisted_digest = core.changes().digest();
        DynServer {
            core,
            registers: BTreeMap::new(),
            options,
            pending_applies: VecDeque::new(),
            refresh: None,
            refresh_ops: 0,
            nego: BTreeMap::new(),
            transfer_log: Vec::new(),
            refreshes: 0,
            storage: None,
            persisted_digest,
            peer_digests: BTreeMap::new(),
            rejoin: false,
        }
    }

    /// Creates a *fresh* durable server: like [`DynServer::new`], but every
    /// subsequently adopted change and register is appended to `storage`'s
    /// WAL (and snapshotted on the [`DynOptions::checkpoint`] cadence).
    /// The initial changes are derived from `cfg`, never logged — recovery
    /// re-derives them the same way.
    pub fn with_storage(
        cfg: RpConfig,
        me: ServerId,
        options: DynOptions,
        storage: StorageHandle<V>,
    ) -> DynServer<V> {
        let mut s = DynServer::new(cfg, me, options);
        s.storage = Some(storage);
        s
    }

    /// Reconstructs a crashed server from its durable state: loads the
    /// snapshot (if any), folds the WAL suffix over it as it is read
    /// ([`StorageHandle::recover_state`]), and resumes the
    /// reassignment engine via [`TransferCore::recover`] (which re-derives
    /// a safe logical clock from the recovered set; in-flight transfer
    /// state is legitimately lost — a crash-stop observer cannot tell a
    /// recovered server from a slow one that never started those rounds).
    /// The returned server rejoins on its next [`Actor::on_start`]: it
    /// syncs its change set off every peer ([`DynMsg::SyncR`]) and runs a
    /// register refresh, the same count-based read that guards weight
    /// gains.
    pub fn recover(
        cfg: RpConfig,
        me: ServerId,
        options: DynOptions,
        storage: StorageHandle<V>,
    ) -> DynServer<V> {
        let (changes, registers) =
            storage.recover_state(ChangeSet::from_initial_weights(&cfg.initial_weights));
        let persisted_digest = changes.digest();
        DynServer {
            core: TransferCore::recover(cfg, me, 0, changes),
            registers,
            options,
            pending_applies: VecDeque::new(),
            refresh: None,
            refresh_ops: 0,
            nego: BTreeMap::new(),
            transfer_log: Vec::new(),
            refreshes: 0,
            storage: Some(storage),
            persisted_digest,
            peer_digests: BTreeMap::new(),
            rejoin: true,
        }
    }

    /// Appends the change-set growth since the last persist point to the
    /// WAL. Must run before [`DynServer::maybe_checkpoint`] (compaction
    /// drops journal entries; the persist-before-compact order keeps the
    /// anchor addressable). When the set did not grow linearly from the
    /// persisted state — a rejoin sync merged a peer's set wholesale, or a
    /// second compaction outran the anchor — no journal suffix expresses
    /// the diff, and the whole state is checkpointed instead (the snapshot
    /// also resets the WAL, so durable cost stays bounded).
    fn persist_new_changes(&mut self) {
        let Some(st) = &self.storage else { return };
        let digest = self.core.changes().digest();
        if digest == self.persisted_digest {
            return;
        }
        match self.core.changes().delta_since(self.persisted_digest) {
            Some(suffix) => {
                for c in suffix {
                    st.append(WalRecord::Change(*c));
                }
            }
            None => st.install_snapshot(Snapshot {
                changes: self.core.changes().clone(),
                registers: self.registers.clone(),
            }),
        }
        self.persisted_digest = digest;
    }

    /// Checkpoint pass, on the [`DynOptions::checkpoint`] cadence:
    /// truncates the in-memory journal (keeping enough depth to serve
    /// deltas for every client digest recently seen) and, when a durable
    /// backend is attached and its WAL has grown past the cadence, folds
    /// WAL + state into a fresh snapshot.
    fn maybe_checkpoint(&mut self) {
        let Some(cad) = self.options.checkpoint else {
            return;
        };
        if cad.due(self.core.changes().journal_len()) {
            let deepest = self
                .peer_digests
                .values()
                .filter_map(|d| self.core.changes().delta_since(*d).map(<[_]>::len))
                .max()
                .unwrap_or(0);
            self.core.compact_journal(cad.retain(deepest));
        }
        if let Some(st) = &self.storage {
            if cad.due(st.wal_len()) {
                st.install_snapshot(Snapshot {
                    changes: self.core.changes().clone(),
                    registers: self.registers.clone(),
                });
            }
        }
    }

    /// Harness/bench hook: merges `set` into the local `C` directly, with
    /// no protocol interaction (no acks, no register refresh). Used to
    /// pre-seed converged steady states; not part of the protocol.
    pub fn seed_changes(&mut self, set: &ChangeSet) {
        self.core.absorb_changes(set);
    }

    /// The reference attached to an *accepting* `RAck`/`WAck` (the client
    /// ignores it; a summary costs nothing, while `ForceFull` reproduces
    /// the paper-literal full-set echo).
    fn ack_payload(&self) -> CsRef {
        match self.options.wire {
            WireMode::Negotiate => CsRef::summary(self.core.changes()),
            WireMode::ForceFull => CsRef::Full(self.core.changes().clone()),
        }
    }

    /// The reference attached to a *rejecting* `RAck`/`WAck`: whatever most
    /// cheaply lets `peer` catch up to this server's `C` — a delta against
    /// the digest it presented when the journal covers the gap, `Full`
    /// otherwise, and `Full` unconditionally once a delta against the same
    /// digest has already failed to resolve (see the module docs).
    fn reject_payload(&mut self, peer: ActorId, client_ref: &CsRef) -> CsRef {
        let mine = self.core.changes();
        if self.options.wire == WireMode::ForceFull {
            return CsRef::Full(mine.clone());
        }
        let client_digest = client_ref.implied_digest();
        if self.nego.get(&peer) == Some(&client_digest) {
            // Second reject for the same client digest: the delta we cut
            // last time did not resolve. Degrade.
            self.nego.remove(&peer);
            return CsRef::Full(mine.clone());
        }
        match CsRef::for_peer(mine, client_digest) {
            r @ CsRef::Delta { .. } => {
                self.nego.insert(peer, client_digest);
                r
            }
            // A summary teaches a rejected client nothing (and equal
            // digests should have been accepted): send content.
            CsRef::Summary { .. } => {
                self.nego.remove(&peer);
                CsRef::Full(mine.clone())
            }
            r @ CsRef::Full(_) => {
                self.nego.remove(&peer);
                r
            }
        }
    }

    /// This server's id.
    pub fn server_id(&self) -> ServerId {
        self.core.server_id()
    }

    /// The local change set.
    pub fn changes(&self) -> &ChangeSet {
        self.core.changes()
    }

    /// This server's current weight.
    pub fn weight(&self) -> Ratio {
        self.core.weight()
    }

    /// The [default object](ObjectId::DEFAULT)'s register (inspection).
    pub fn register(&self) -> TaggedValue<V> {
        self.register_of(ObjectId::DEFAULT)
    }

    /// The register stored for `obj` — the bottom register if no write for
    /// that key has been adopted (inspection).
    pub fn register_of(&self, obj: ObjectId) -> TaggedValue<V> {
        self.registers
            .get(&obj)
            .cloned()
            .unwrap_or_else(TaggedValue::bottom)
    }

    /// The sparse register map (inspection).
    pub fn registers(&self) -> &BTreeMap<ObjectId, TaggedValue<V>> {
        &self.registers
    }

    /// Adopts `incoming` for `obj` if it is strictly newer than what the
    /// sparse map holds (absent = bottom). Keys are only materialized by
    /// genuinely newer registers, so an idle object costs nothing anywhere.
    /// Every adoption is WAL-logged when a durable backend is attached;
    /// returns whether the map changed.
    fn adopt_register(&mut self, obj: ObjectId, incoming: &TaggedValue<V>) -> bool {
        let adopted = match self.registers.get_mut(&obj) {
            Some(cur) => cur.adopt_if_newer(incoming),
            None => {
                if incoming.tag > Tag::bottom() {
                    self.registers.insert(obj, incoming.clone());
                    true
                } else {
                    false
                }
            }
        };
        if adopted {
            if let Some(st) = &self.storage {
                st.append(WalRecord::Register(obj, incoming.clone()));
            }
        }
        adopted
    }

    /// Completed own transfers with completion times.
    pub fn completed_transfers(&self) -> &[(TransferOutcome, Time)] {
        self.core.completed()
    }

    /// Invokes `transfer(me, to, Δ)` (weights move while reads/writes run).
    ///
    /// # Errors
    ///
    /// See [`TransferCore::transfer`].
    pub fn begin_transfer(
        &mut self,
        to: ServerId,
        delta: Ratio,
        ctx: &mut Context<'_, DynMsg<V>>,
    ) -> Result<TransferStart, TransferError> {
        let r = self.core.transfer(to, delta, ctx, DynMsg::Wr)?;
        if let TransferStart::Null(o) = &r {
            self.transfer_log.push(o.clone());
        }
        self.persist_new_changes();
        self.maybe_checkpoint();
        Ok(r)
    }

    /// Like [`DynServer::begin_transfer`], but a request arriving while a
    /// transfer is in flight queues instead of failing `Busy`; the queue
    /// drains as one batched `⟨T⟩` envelope, so this server's peers pay a
    /// single relay wave — and at most one register refresh — for the whole
    /// burst (see [`awr_core::restricted::TransferCore::transfer_queued`]).
    ///
    /// # Errors
    ///
    /// See [`awr_core::restricted::TransferCore::transfer_queued`].
    pub fn begin_transfer_queued(
        &mut self,
        to: ServerId,
        delta: Ratio,
        ctx: &mut Context<'_, DynMsg<V>>,
    ) -> Result<TransferStart, TransferError> {
        let r = self.core.transfer_queued(to, delta, ctx, DynMsg::Wr)?;
        if let TransferStart::Null(o) = &r {
            self.transfer_log.push(o.clone());
        }
        self.persist_new_changes();
        self.maybe_checkpoint();
        Ok(r)
    }

    /// Processes the apply queue: applies head requests, pausing to refresh
    /// the register when a request changes this server's own weight.
    fn drain_applies(&mut self, ctx: &mut Context<'_, DynMsg<V>>) {
        while self.refresh.is_none() {
            let Some(req) = self.pending_applies.front() else {
                return;
            };
            let needs_refresh = self.options.refresh_on_gain && req.affects(self.core.server_id());
            if needs_refresh {
                // Algorithm 4 lines 8–9: register ← read(), then apply.
                // Implemented as an n − f *count* read answered
                // unconditionally: such a set intersects every weighted
                // quorum under every Property-1 weight map, so the refresh
                // observes every completed write and can never deadlock —
                // even when f + 1 gainers refresh simultaneously (where a
                // weight-judged read provably stalls; see DESIGN.md §5).
                self.start_refresh(true, ctx);
                return; // resume in on_message when the read completes
            }
            let req = self.pending_applies.pop_front().expect("peeked");
            self.core.apply(req, ctx, DynMsg::Wr);
        }
    }

    /// What this server would present in a refresh request: the exact
    /// per-key tag map while small, a constant-size digest of it once the
    /// object count exceeds [`DynOptions::refresh_tags_cap`].
    fn refresh_have(&self) -> RefreshHave {
        if self.registers.len() <= self.options.refresh_tags_cap {
            RefreshHave::Tags(self.registers.iter().map(|(o, r)| (*o, r.tag)).collect())
        } else {
            RefreshHave::Digest {
                digest: reg_tag_digest(&self.registers),
                count: self.registers.len(),
            }
        }
    }

    /// Starts the whole-object-space count read. `for_apply` records
    /// whether the head of the apply queue is waiting on it (a weight-gain
    /// refresh) or not (a recovery rejoin): only the former may pop an
    /// apply on completion — an apply that arrived mid-rejoin still needs
    /// its *own* refresh decision in [`DynServer::drain_applies`].
    fn start_refresh(&mut self, for_apply: bool, ctx: &mut Context<'_, DynMsg<V>>) {
        self.refreshes += 1;
        self.refresh_ops += 1;
        let op = self.refresh_ops;
        self.refresh = Some(RefreshRead {
            op,
            for_apply,
            acks: BTreeSet::new(),
            best: BTreeMap::new(),
        });
        let n = self.core.config().n;
        // One read covers the whole object space: present what this server
        // holds, so repliers can elide everything it is up to date on.
        let have = self.refresh_have();
        for i in 0..n {
            ctx.send(
                ActorId(i),
                DynMsg::RefreshR {
                    op,
                    have: have.clone(),
                },
            );
        }
    }

    fn on_refresh_complete(
        &mut self,
        for_apply: bool,
        best: BTreeMap<ObjectId, TaggedValue<V>>,
        ctx: &mut Context<'_, DynMsg<V>>,
    ) {
        // Adopt the freshest value observed per object: every register this
        // server holds is now at least as new as any write completed before
        // the refresh began (Lemma 4's requirement, per key), so quorums
        // that become possible once the weight gain applies cannot serve
        // stale data through us for any object.
        for (obj, reg) in &best {
            #[cfg(feature = "mutate")]
            if awr_sim::mutate::armed(awr_sim::mutate::Mutation::SkipRefreshTagCheck) {
                // MUTATION: install the refresh outcome without the
                // strictly-newer comparison — a register adopted from an
                // in-flight write while the refresh ran can be rolled back
                // to an older tag.
                if reg.tag > Tag::bottom() {
                    self.registers.insert(*obj, reg.clone());
                    if let Some(st) = &self.storage {
                        st.append(WalRecord::Register(*obj, reg.clone()));
                    }
                }
                continue;
            }
            self.adopt_register(*obj, reg);
        }
        // The head request triggered this refresh: apply it now.
        if for_apply {
            if let Some(req) = self.pending_applies.pop_front() {
                self.core.apply(req, ctx, DynMsg::Wr);
            }
        }
        self.drain_applies(ctx);
    }
}

/// An in-flight count-based register refresh, covering every object.
#[derive(Debug)]
struct RefreshRead<V> {
    op: u64,
    /// Whether the head apply is waiting on this read (weight-gain refresh)
    /// as opposed to a recovery rejoin.
    for_apply: bool,
    /// Counted repliers (deduped — a rebroadcast or the digest-mismatch
    /// second round must not double-count a server).
    acks: BTreeSet<ActorId>,
    /// Freshest register observed so far, per object.
    best: BTreeMap<ObjectId, TaggedValue<V>>,
}

impl<V: Value> Actor for DynServer<V> {
    type Msg = DynMsg<V>;

    fn on_start(&mut self, ctx: &mut Context<'_, DynMsg<V>>) {
        if !self.rejoin {
            return;
        }
        self.rejoin = false;
        // Rejoin round (recovery only — never runs in a crash-free world):
        // ask every peer for the change-set suffix this server missed while
        // down, and catch the registers up with the same count-based read
        // that guards weight gains. Until the acks land the server answers
        // from its recovered state, which is exactly what a slow-but-alive
        // server would do — crash-stop recovery adds no new behaviours.
        let digest = self.core.changes().digest();
        let me = self.core.server_id().index();
        for i in 0..self.core.config().n {
            if i != me {
                ctx.send(ActorId(i), DynMsg::SyncR { digest });
            }
        }
        if self.refresh.is_none() {
            self.start_refresh(false, ctx);
        }
    }

    fn on_message(&mut self, from: ActorId, msg: DynMsg<V>, ctx: &mut Context<'_, DynMsg<V>>) {
        match msg {
            DynMsg::Wr(WrMsg::Invoke { to, delta }) => {
                // Management RPC: start the transfer, or queue it behind an
                // in-flight one — bursts of monitor-driven reassignments
                // batch into one ⟨T⟩ envelope per drain.
                let _ = self.begin_transfer_queued(to, delta, ctx);
            }
            DynMsg::Wr(wr) => {
                // Feed the refresh driver first: its R_A/W_A arrive as
                // DynMsg, not WrMsg, so only core traffic lands here.
                for ev in self.core.handle(from, wr, ctx, DynMsg::Wr) {
                    match ev {
                        CoreEvent::NeedApply(req) => {
                            self.pending_applies.push_back(req);
                        }
                        CoreEvent::Completed(o) => self.transfer_log.push(o),
                    }
                }
                self.drain_applies(ctx);
            }
            DynMsg::R { op, obj, changes } => {
                // Algorithm 6's accept check `C = C_i`, answered from the
                // reference without materializing the client's set. The
                // digest is remembered so journal compaction keeps enough
                // depth to cut deltas for clients still at it.
                self.peer_digests.insert(from, changes.implied_digest());
                let accepted = self.core.changes().matches_ref(&changes);
                let reply = if accepted {
                    self.nego.remove(&from);
                    self.ack_payload()
                } else {
                    self.reject_payload(from, &changes)
                };
                ctx.send(
                    from,
                    DynMsg::RAck {
                        op,
                        obj,
                        reg: self.register_of(obj),
                        changes: reply,
                        accepted,
                    },
                );
            }
            DynMsg::W {
                op,
                obj,
                reg,
                changes,
            } => {
                self.peer_digests.insert(from, changes.implied_digest());
                let accepted = self.core.changes().matches_ref(&changes);
                let reply = if accepted {
                    self.nego.remove(&from);
                    self.adopt_register(obj, &reg);
                    self.ack_payload()
                } else {
                    self.reject_payload(from, &changes)
                };
                ctx.send(
                    from,
                    DynMsg::WAck {
                        op,
                        obj,
                        changes: reply,
                        accepted,
                    },
                );
            }
            DynMsg::RefreshR { op, have } => {
                // Answered unconditionally — no C matching (see above).
                // Delta-encoding over the register *map*: a value ships only
                // when it can matter, i.e. when it is strictly newer than
                // what the refresher already holds for that key (absent =
                // bottom). In the converged case the ack is a bare header
                // however many objects the shard stores.
                match have {
                    RefreshHave::Tags(have) => {
                        let regs: BTreeMap<ObjectId, TaggedValue<V>> = self
                            .registers
                            .iter()
                            .filter(|(obj, reg)| {
                                reg.tag > have.get(obj).copied().unwrap_or_else(Tag::bottom)
                            })
                            .map(|(obj, reg)| (*obj, reg.clone()))
                            .collect();
                        ctx.send(
                            from,
                            DynMsg::RefreshAck {
                                op,
                                regs,
                                need_tags: false,
                            },
                        );
                    }
                    RefreshHave::Digest { digest, count } => {
                        // A matching digest + count means (w.h.p.) identical
                        // per-key tags — nothing newer here; ack empty. On a
                        // mismatch this replier cannot tell *which* keys
                        // differ, so it asks for the per-key round.
                        let same = count == self.registers.len()
                            && digest == reg_tag_digest(&self.registers);
                        ctx.send(
                            from,
                            DynMsg::RefreshAck {
                                op,
                                regs: BTreeMap::new(),
                                need_tags: !same,
                            },
                        );
                    }
                }
            }
            DynMsg::RefreshAck {
                op,
                regs,
                need_tags,
            } => {
                let cfg_needed = self.core.config().n - self.core.config().f;
                let mut resend_tags = false;
                let done = match self.refresh.as_mut() {
                    Some(r) if r.op == op => {
                        if need_tags {
                            // Digest mismatch: this replier needs the exact
                            // tag map before it can answer substantively.
                            // Its eventual Tags-round ack is the one that
                            // counts.
                            resend_tags = true;
                            false
                        } else {
                            r.acks.insert(from);
                            for (obj, reg) in regs {
                                #[cfg(feature = "mutate")]
                                if awr_sim::mutate::armed(
                                    awr_sim::mutate::Mutation::SkipRefreshTagCheck,
                                ) {
                                    // MUTATION: absorb without the tag
                                    // comparison — a stale replier's
                                    // register clobbers a newer best.
                                    r.best.insert(obj, reg);
                                    continue;
                                }
                                match r.best.get_mut(&obj) {
                                    Some(b) => {
                                        b.adopt_if_newer(&reg);
                                    }
                                    None => {
                                        r.best.insert(obj, reg);
                                    }
                                }
                            }
                            r.acks.len() >= cfg_needed
                        }
                    }
                    _ => false,
                };
                if resend_tags {
                    let have = RefreshHave::Tags(
                        self.registers.iter().map(|(o, r)| (*o, r.tag)).collect(),
                    );
                    ctx.send(from, DynMsg::RefreshR { op, have });
                }
                if done {
                    let r = self.refresh.take().expect("checked");
                    self.on_refresh_complete(r.for_apply, r.best, ctx);
                }
            }
            DynMsg::SyncR { digest } => {
                // A recovering peer presented the digest of what it salvaged;
                // answer with the cheapest reference that covers the gap (a
                // delta when the journal reaches back that far). Equal
                // digests come back as a no-op summary.
                let changes = CsRef::for_peer(self.core.changes(), digest);
                ctx.send(from, DynMsg::SyncAck { changes });
            }
            DynMsg::SyncAck { changes } => {
                // One absorb per peer suffices: delta adds land even when
                // the base digest has moved on (set union of facts), and a
                // peer whose journal could not cover the gap sent `Full`.
                self.core.absorb_ref(&changes);
            }
            DynMsg::RAck { .. } | DynMsg::WAck { .. } => {
                // Client-side replies; a server has no client driver.
            }
        }
        // Durability epilogue, once per delivery: WAL whatever `C` gained,
        // then (on cadence) compact the journal and roll a snapshot. The
        // Context buffers outgoing sends until this callback returns, so
        // state is persisted before any message that presupposes it leaves.
        self.persist_new_changes();
        self.maybe_checkpoint();
    }

    fn state_digest(&self) -> Option<u64> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.core.state_digest().hash(&mut h);
        // BTreeMaps/Sets iterate sorted, so hashing them whole is
        // deterministic; everything time-valued is excluded.
        self.registers.hash(&mut h);
        self.pending_applies.len().hash(&mut h);
        for req in &self.pending_applies {
            req.new_changes.hash(&mut h);
            req.wc_ack.map(|(a, op)| (a.index(), op)).hash(&mut h);
        }
        match &self.refresh {
            None => false.hash(&mut h),
            Some(r) => {
                true.hash(&mut h);
                (r.op, r.for_apply).hash(&mut h);
                let acks: Vec<usize> = r.acks.iter().map(|a| a.index()).collect();
                acks.hash(&mut h);
                r.best.hash(&mut h);
            }
        }
        self.refresh_ops.hash(&mut h);
        self.refreshes.hash(&mut h);
        for (a, d) in &self.nego {
            (a.index(), d).hash(&mut h);
        }
        self.transfer_log.hash(&mut h);
        self.persisted_digest.hash(&mut h);
        for (a, d) in &self.peer_digests {
            (a.index(), d).hash(&mut h);
        }
        self.rejoin.hash(&mut h);
        // Durable content is digested separately by the explorer (it can
        // reach the backend through the harness); here only presence.
        self.storage.is_some().hash(&mut h);
        Some(h.finish())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A dynamic-weighted storage client.
#[derive(Debug)]
pub struct DynClient<V> {
    /// The embedded Algorithm 5 engine.
    pub driver: DynOpDriver<V>,
}

impl<V: Value> DynClient<V> {
    /// Creates a client.
    pub fn new(id: ProcessId, cfg: RpConfig, options: DynOptions) -> DynClient<V> {
        DynClient {
            driver: DynOpDriver::new(id, cfg, 0, options),
        }
    }

    /// Begins a read of the [default object](ObjectId::DEFAULT).
    ///
    /// # Panics
    ///
    /// Panics if an operation is in flight.
    pub fn begin_read(&mut self, ctx: &mut Context<'_, DynMsg<V>>) {
        self.driver.begin(None, ctx, |m| m);
    }

    /// Begins a write to the [default object](ObjectId::DEFAULT).
    ///
    /// # Panics
    ///
    /// Panics if an operation is in flight.
    pub fn begin_write(&mut self, v: V, ctx: &mut Context<'_, DynMsg<V>>) {
        self.driver.begin(Some(v), ctx, |m| m);
    }

    /// Begins a read of `obj`.
    ///
    /// # Panics
    ///
    /// Panics if an operation is in flight.
    pub fn begin_read_obj(&mut self, obj: ObjectId, ctx: &mut Context<'_, DynMsg<V>>) {
        self.driver.begin_obj(obj, None, ctx, |m| m);
    }

    /// Begins a write of `v` to `obj`.
    ///
    /// # Panics
    ///
    /// Panics if an operation is in flight.
    pub fn begin_write_obj(&mut self, obj: ObjectId, v: V, ctx: &mut Context<'_, DynMsg<V>>) {
        self.driver.begin_obj(obj, Some(v), ctx, |m| m);
    }

    /// Converts completed ops into history entries for client index `ci`.
    pub fn history_ops(&self, ci: usize) -> Vec<HistOp<V>> {
        self.driver
            .completed
            .iter()
            .map(|c| HistOp {
                client: ci,
                obj: c.obj,
                kind: c.kind.clone(),
                invoke: c.invoke,
                response: c.response,
            })
            .collect()
    }
}

impl<V: Value> Actor for DynClient<V> {
    type Msg = DynMsg<V>;

    fn on_message(&mut self, from: ActorId, msg: DynMsg<V>, ctx: &mut Context<'_, DynMsg<V>>) {
        let _ = self.driver.on_message(from, &msg, ctx, |m| m);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, DynMsg<V>>) {
        self.driver.on_timer(tag, ctx, |m| m);
    }

    fn state_digest(&self) -> Option<u64> {
        Some(self.driver.state_digest())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod driver_tests {
    use super::*;
    use crate::harness::StorageHarness;
    use awr_core::RpConfig;
    use awr_sim::UniformLatency;
    use awr_types::ClientId;

    fn s(i: u32) -> ServerId {
        ServerId(i)
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
        // register is no newer than the refresher's sends a 16-byte header.
        type Fat = [u64; 64];
        let mut h: StorageHarness<Fat> = StorageHarness::build(
            RpConfig::uniform(5, 1),
            1,
            33,
            UniformLatency::new(1_000, 10_000),
            DynOptions::default(),
        );
        h.write(0, [7u64; 64]).unwrap();
        // Weight moves → both endpoints refresh before applying. Every
        // server already holds the written register, so every ack elides
        // its value.
        h.transfer_and_wait(s(1), s(0), Ratio::dec("0.1")).unwrap();
        h.settle();
        let s0 = h
            .world
            .actor::<DynServer<Fat>>(h.server_actor(s(0)))
            .unwrap();
        assert_eq!(s0.refreshes, 1);
        let m = h.world.metrics();
        assert!(m.sent_of_kind("RefA") >= 5);
        let full = std::mem::size_of::<TaggedValue<Fat>>() as f64;
        assert_eq!(
            m.mean_bytes_of_kind("RefA"),
            16.0,
            "every ack should elide the register (full would be ≥ {full})"
        );
        // The refresh outcome is unchanged: the register survives.
        let (v, _) = h.read(0).unwrap();
        assert_eq!(v, Some([7u64; 64]));
    }

    #[test]
    fn options_default_matches_paper() {
        let o = DynOptions::default();
        assert!(o.restart_on_stale);
        assert!(o.refresh_on_gain);
        // Reads default to the weighted fast path; the paper-literal
        // two-phase wire stays available as the equivalence baseline.
        assert_eq!(o.read, ReadMode::FastPath);
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
