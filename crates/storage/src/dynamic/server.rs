//! The server side of Algorithm 6: [`DynServer`], with the embedded
//! Algorithm 4 engine and the register refresh on weight gain.
//!
//! `R`, `RV` and `W` share one judgement, `DynServer::judge`: accept when
//! the client's `C` equals this server's, otherwise reply with what the
//! client lacks — or, while a refresh is in flight and the client is
//! ahead, hold the request until the refresh lands. Only `W` adopts the
//! register on accept; an `R` is answered with the register's tag alone
//! and an `RV` with the whole register, held or not. The server keeps one
//! record per client — the digest it presented last and whether a delta
//! was cut against it — which serves both the degrade rule and the
//! journal's compaction depth, and at most one held request per client.
//! Everything else it knows lives once: the completed transfers in the
//! embedded engine, the refresh count as the refresh operation number.
//!
//! The registers live in a hash table keyed by object (`registers.rs`):
//! a request costs one probe, not a tree walk. Where order is observable —
//! snapshots, `RefreshAck`, the state digest — they are read sorted, and
//! the ordered map [`DynServer::registers`] returns is built on its first
//! call and dropped by the next adoption.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use awr_core::restricted::{ApplyRequest, CoreEvent, TransferCore, TransferStart, WrMsg};
use awr_core::{RpConfig, TransferError, TransferOutcome};
use awr_sim::{Actor, ActorId, Context, Time};
use awr_types::{ChangeSet, CsRef, ObjectId, Ratio, ServerId, Tag, TaggedValue};

use super::registers::Registers;
use super::{reg_tag_digest, DynMsg, DynOptions, RefreshHave, WireMode, REFRESH_TAGS_CAP};
use crate::durable::{Snapshot, StorageHandle, WalRecord};
use crate::Value;

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
    registers: Registers<V>,
    options: DynOptions,
    /// Queue of change applications awaiting their turn (each may require a
    /// register refresh first).
    pending_applies: VecDeque<ApplyRequest>,
    /// The in-flight refresh read, if any.
    refresh: Option<RefreshRead<V>>,
    /// Number of register refreshes performed (so tests can tell a gain
    /// paid for one); the latest one's operation number.
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
    /// What each client presented last (see [`DynServer::judge`]),
    /// indexed by [`ActorId`]: `None` for an actor that never sent an
    /// `R`/`W` (every server, and clients not yet heard from) or whose
    /// last length-only summary this server could not place.
    clients: Vec<Option<Presented>>,
    /// The shortest journal prefix known to be a set this server held:
    /// below it the journal's order is not this server's history (a
    /// snapshot decodes in set order; a merge can adopt a peer's journal),
    /// so a length-only summary of a shorter set is answered `Full`.
    named_from: usize,
    /// Requests held until the refresh in flight lands (see
    /// [`DynServer::judge`]), at most one per client, in arrival order.
    /// Volatile, like a message in flight: a crash loses them.
    held: Vec<Request<V>>,
    /// Set by [`DynServer::recover`]: on the next [`Actor::on_start`] this
    /// server runs the rejoin round (change-set sync + register refresh)
    /// before resuming normal service.
    rejoin: bool,
}

impl<V: Value> DynServer<V> {
    /// Creates the server for `me` under `cfg`. Servers must occupy world
    /// indices `0..n`.
    pub fn new(cfg: RpConfig, me: ServerId, options: DynOptions) -> DynServer<V> {
        let core = TransferCore::new(cfg, me);
        let persisted_digest = core.changes().digest();
        DynServer {
            core,
            registers: Registers::default(),
            options,
            pending_applies: VecDeque::new(),
            refresh: None,
            refreshes: 0,
            storage: None,
            persisted_digest,
            clients: Vec::new(),
            named_from: 0,
            held: Vec::new(),
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
        let mut s = DynServer::with_storage(cfg.clone(), me, options, storage);
        s.persisted_digest = changes.digest();
        s.named_from = changes.len();
        s.core = TransferCore::recover(cfg, me, changes);
        s.registers = Registers::from_map(registers);
        s.rejoin = true;
        s
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
                registers: self.registers.to_map(),
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
                .clients
                .iter()
                .flatten()
                .filter_map(|p| self.core.changes().delta_since(p.digest).map(<[_]>::len))
                .max()
                .unwrap_or(0);
            self.core.compact_journal(cad.retain(deepest));
        }
        if let Some(st) = &self.storage {
            if cad.due(st.wal_len()) {
                st.install_snapshot(Snapshot {
                    changes: self.core.changes().clone(),
                    registers: self.registers.to_map(),
                });
            }
        }
    }

    /// Harness/bench hook: merges `set` into the local `C` directly, with
    /// no protocol interaction (no acks, no register refresh). Used to
    /// pre-seed converged steady states; not part of the protocol.
    pub fn seed_changes(&mut self, set: &ChangeSet) {
        self.core.absorb_changes(set);
        self.named_from = self.core.changes().len();
    }

    /// Algorithm 6's accept check `C = C_i` for an `R` or a `W` from
    /// `from`, answered from the reference it presented without
    /// materializing the client's set. Returns whether the operation is
    /// accepted and the reference to reply with, or `None` to hold it.
    ///
    /// - A [length-only](CsRef::length_only) summary is accepted iff this
    ///   server's `C` has that length. A client names a length only to a
    ///   server that accepted its very set, and a server's `C` only grows
    ///   (changes are persisted before any reply leaves, and a restart
    ///   recovers from this server's own WAL), so it held one set of that
    ///   length: the client's. Otherwise the client's set is the journal
    ///   prefix of that length, and is judged as if its digest had been
    ///   presented; a length this server cannot place — behind the
    ///   compaction point or `named_from`, or past its own length — is
    ///   answered `Full`, or held as below when it is past.
    /// - An accept carries [`CsRef::NONE`]: the client reads no reference
    ///   off an accept.
    /// - A reject carries what the client lacks: a delta against the
    ///   digest it presented when the journal covers the gap, `Full`
    ///   otherwise. It carries `Full` unconditionally when the client
    ///   presents again a digest a delta was cut against: that delta did
    ///   not resolve (see the module docs).
    /// - A request whose digest the journal cannot place (the client is
    ///   ahead or diverged) is held while a refresh is in flight: `Full`
    ///   would teach that client nothing, and the change it holds is
    ///   usually the one the refresh waits to apply. The refresh answers
    ///   it ([`DynServer::on_refresh_complete`]). The test is the same
    ///   digest test in both wire modes.
    ///
    /// `ForceFull` answers `Full` either way. What the client presented is
    /// recorded on every answer: one record per client bounds the state
    /// machine, and compaction keeps the journal deep enough to cut deltas
    /// for every digest still in sight.
    fn judge(&mut self, from: ActorId, presented: &CsRef) -> Option<(bool, CsRef)> {
        let mine = self.core.changes();
        let named = presented.named_len();
        // The digest of the client's set, as far as this server can tell.
        let (accepted, digest) = match named {
            Some(len) => {
                let placed = (len >= self.named_from)
                    .then(|| mine.prefix_digest(len))
                    .flatten();
                (len == mine.len(), placed)
            }
            None => (
                mine.matches_ref(presented),
                Some(presented.implied_digest()),
            ),
        };
        let reply = if accepted {
            match self.options.wire {
                WireMode::Negotiate => CsRef::NONE,
                WireMode::ForceFull => CsRef::Full(mine.clone()),
            }
        } else {
            let lacks = digest.and_then(|d| mine.delta_since(d));
            // A digest the journal cannot place is usually a client ahead;
            // a length says whether it is.
            let ahead = named.map_or(lacks.is_none(), |len| len > mine.len());
            if ahead && self.refresh.is_some() {
                return None;
            }
            let delta_failed = self
                .clients
                .get(from.index())
                .copied()
                .flatten()
                .is_some_and(|p| p.delta_cut && Some(p.digest) == digest);
            match (self.options.wire, lacks) {
                // An empty delta (equal digests, which should have been
                // accepted) teaches a rejected client nothing: send content.
                (WireMode::Negotiate, Some(adds)) if !delta_failed && !adds.is_empty() => {
                    CsRef::Delta {
                        base_digest: digest.expect("a delta was cut against it"),
                        adds: adds.to_vec(),
                    }
                }
                _ => CsRef::Full(mine.clone()),
            }
        };
        let delta_cut = matches!(reply, CsRef::Delta { .. });
        if self.clients.len() <= from.index() {
            self.clients.resize(from.index() + 1, None);
        }
        self.clients[from.index()] = digest.map(|digest| Presented { digest, delta_cut });
        Some((accepted, reply))
    }

    /// Answers an `R`, an `RV` or a `W`, or holds it (see
    /// [`DynServer::judge`]). A client has one operation in flight, so its
    /// newer request replaces a held one.
    fn serve(&mut self, req: Request<V>, ctx: &mut Context<'_, DynMsg<V>>) {
        let Some((accepted, changes)) = self.judge(req.from, &req.changes) else {
            ctx.record_counter("held_behind", 1);
            match self.held.iter_mut().find(|h| h.from == req.from) {
                Some(older) => *older = req,
                None => self.held.push(req),
            }
            return;
        };
        let Request {
            from, op, obj, ask, ..
        } = req;
        let reg = match ask {
            // The tag query: no value is cloned, none is sent.
            Ask::Tag => TaggedValue {
                tag: self.registers.tag(obj),
                value: None,
            },
            Ask::Register => self.register_of(obj),
            Ask::Write(reg) => {
                if accepted {
                    self.adopt_register(obj, &reg);
                }
                let ack = DynMsg::WAck {
                    op,
                    obj,
                    changes,
                    accepted,
                };
                ctx.send(from, ack);
                return;
            }
        };
        let ack = DynMsg::RAck {
            op,
            obj,
            reg,
            changes,
            accepted,
        };
        ctx.send(from, ack);
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
            .get(obj)
            .cloned()
            .unwrap_or_else(TaggedValue::bottom)
    }

    /// The sparse register map, in key order (inspection). Built on the
    /// first call after a change, and kept until the next: a caller
    /// polling it while the server adopts writes pays a copy per change.
    pub fn registers(&self) -> &BTreeMap<ObjectId, TaggedValue<V>> {
        self.registers.view()
    }

    /// Adopts `incoming` for `obj` if it is strictly newer than what the
    /// sparse map holds (absent = bottom). Keys are only materialized by
    /// genuinely newer registers, so an idle object costs nothing anywhere.
    /// Every adoption is WAL-logged when a durable backend is attached;
    /// returns whether the map changed.
    fn adopt_register(&mut self, obj: ObjectId, incoming: &TaggedValue<V>) -> bool {
        let adopted = self.registers.adopt(obj, incoming);
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
        if self.core.is_busy() {
            return Err(TransferError::Busy);
        }
        self.begin_transfer_queued(to, delta, ctx)
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
            let needs_refresh = req.affects(self.core.server_id());
            #[cfg(feature = "mutate")]
            // MUTATION: apply the gain over whatever register this server
            // holds.
            let needs_refresh = needs_refresh
                && !awr_sim::mutate::armed(awr_sim::mutate::Mutation::SkipRefreshOnGain);
            if needs_refresh {
                // Algorithm 4 lines 8–9: register ← read(), then apply.
                // Implemented as an n − f *count* read answered
                // unconditionally: such a set intersects every weighted
                // quorum under every Property-1 weight map (docs/LOAD.md,
                // "Who stores a write"), so the refresh observes every
                // completed write and can never deadlock. A weight-judged
                // read can: a server answers only an `R` carrying its own
                // `C`, and a gainer stays on the old `C` until its refresh
                // ends. With f + 1 gainers refreshing at once, neither the
                // gainers (old `C`) nor the other n − f − 1 servers (new
                // `C`) need hold a quorum by weight, so no refresh
                // completes. With at most f gainers, n − f servers share
                // the new `C`, which Property 1 makes a quorum.
                self.start_refresh(true, ctx);
                return; // resume in on_message when the read completes
            }
            let req = self.pending_applies.pop_front().expect("peeked");
            self.core.apply(req, ctx, DynMsg::Wr);
        }
    }

    /// What this server would present in a refresh request: the exact
    /// per-key tag map while small, a constant-size digest of it once the
    /// object count exceeds `REFRESH_TAGS_CAP`.
    fn refresh_have(&self) -> RefreshHave {
        if self.registers.len() <= REFRESH_TAGS_CAP {
            self.tags()
        } else {
            RefreshHave::Digest {
                digest: reg_tag_digest(self.registers.unordered()),
                count: self.registers.len(),
            }
        }
    }

    /// The exact per-key tag map (absent = bottom).
    fn tags(&self) -> RefreshHave {
        RefreshHave::Tags(
            self.registers
                .unordered()
                .map(|(o, r)| (*o, r.tag))
                .collect(),
        )
    }

    /// Starts the whole-object-space count read. `for_apply` records
    /// whether the head of the apply queue is waiting on it (a weight-gain
    /// refresh) or not (a recovery rejoin): only the former may pop an
    /// apply on completion — an apply that arrived mid-rejoin still needs
    /// its *own* refresh decision in [`DynServer::drain_applies`].
    fn start_refresh(&mut self, for_apply: bool, ctx: &mut Context<'_, DynMsg<V>>) {
        self.refreshes += 1;
        let op = self.refreshes;
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
                    self.registers.overwrite(*obj, reg.clone());
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
        // Answer what was held behind the refresh, under the new `C` — or
        // hold it again, when the drain started a chained refresh.
        for req in std::mem::take(&mut self.held) {
            self.serve(req, ctx);
        }
    }
}

/// The change-set digest a client presented in its latest `R`/`W`, and
/// whether the reply cut a delta against it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Presented {
    digest: u64,
    delta_cut: bool,
}

/// An `R`, an `RV` or a `W`, as [`DynServer::serve`] answers or holds it.
#[derive(Debug)]
struct Request<V> {
    from: ActorId,
    op: u64,
    obj: ObjectId,
    ask: Ask<V>,
    changes: CsRef,
}

/// What a [`Request`] asks for.
#[derive(Debug, Hash)]
enum Ask<V> {
    /// `R`: the register's tag.
    Tag,
    /// `RV`: the whole register.
    Register,
    /// `W`: that this register be adopted.
    Write(TaggedValue<V>),
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
                    if let CoreEvent::NeedApply(req) = ev {
                        self.pending_applies.push_back(req);
                    }
                }
                self.drain_applies(ctx);
            }
            DynMsg::R { op, obj, changes } => self.serve(
                Request {
                    from,
                    op,
                    obj,
                    ask: Ask::Tag,
                    changes,
                },
                ctx,
            ),
            DynMsg::RV { op, obj, changes } => self.serve(
                Request {
                    from,
                    op,
                    obj,
                    ask: Ask::Register,
                    changes,
                },
                ctx,
            ),
            DynMsg::W {
                op,
                obj,
                reg,
                changes,
            } => self.serve(
                Request {
                    from,
                    op,
                    obj,
                    ask: Ask::Write(reg),
                    changes,
                },
                ctx,
            ),
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
                            .unordered()
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
                            && digest == reg_tag_digest(self.registers.unordered());
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
                    let have = self.tags();
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
                if self.core.absorb_ref(&changes) {
                    self.named_from = self.core.changes().len();
                }
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
        // deterministic, and the registers are hashed sorted as the
        // `BTreeMap` they were; everything time-valued is excluded.
        self.registers.hash_sorted(&mut h);
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
        self.refreshes.hash(&mut h);
        self.persisted_digest.hash(&mut h);
        self.named_from.hash(&mut h);
        for (a, p) in self.clients.iter().enumerate() {
            if let Some(p) = p {
                (a, p).hash(&mut h);
            }
        }
        self.held.len().hash(&mut h);
        for r in &self.held {
            (r.from.index(), r.op, r.obj, &r.ask, &r.changes).hash(&mut h);
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

#[cfg(test)]
mod tests {
    use super::*;
    use awr_core::restricted::ApplyRequest;
    use awr_sim::{TraceKind, UniformLatency, World};
    use awr_types::{ClientId, ProcessId, TransferChanges};

    type Msg = DynMsg<u64>;

    /// Keeps every message it receives and hands it on to its server, if
    /// it wraps one; a bare tap stands in for a client.
    struct Tap {
        server: Option<DynServer<u64>>,
        inbox: Vec<(ActorId, Msg)>,
    }

    fn tap(server: Option<DynServer<u64>>) -> Tap {
        Tap {
            server,
            inbox: Vec::new(),
        }
    }

    impl Actor for Tap {
        type Msg = Msg;
        fn on_message(&mut self, from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            self.inbox.push((from, msg.clone()));
            if let Some(s) = &mut self.server {
                s.on_message(from, msg, ctx);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn tapped(w: &World<Msg>, a: ActorId) -> &Tap {
        w.actor::<Tap>(a).expect("a tap")
    }

    fn form(r: &CsRef) -> &'static str {
        match r {
            _ if *r == CsRef::NONE => "none",
            _ if r.named_len().is_some() => "length",
            CsRef::Summary { .. } => "summary",
            CsRef::Delta { .. } => "delta",
            CsRef::Full(_) => "full",
        }
    }

    /// The degrade rule: a client that presents again the digest a delta
    /// was cut against gets `Full`, which bounds every negotiation.
    #[test]
    fn a_delta_that_did_not_resolve_degrades_to_full() {
        let cfg = RpConfig::uniform(3, 1);
        let behind = ChangeSet::from_initial_weights(&cfg.initial_weights);
        let mut ahead = behind.clone();
        let pair = TransferChanges::new(ServerId(0), ServerId(1), 2, Ratio::new(1, 10), true);
        ahead.insert(pair.debit);
        ahead.insert(pair.credit);
        for wire in [WireMode::Negotiate, WireMode::ForceFull] {
            let options = DynOptions {
                wire,
                ..DynOptions::default()
            };
            let mut w = World::new(1, UniformLatency::new(1_000, 2_000));
            let mut server = DynServer::new(cfg.clone(), ServerId(0), options);
            server.seed_changes(&ahead);
            let srv = w.add_actor(tap(Some(server)));
            for i in 1..3 {
                w.add_actor(DynServer::<u64>::new(cfg.clone(), ServerId(i), options));
            }
            let client = w.add_actor(tap(None));
            let mut ask = |set: &ChangeSet| {
                let changes = match wire {
                    WireMode::Negotiate => CsRef::summary(set),
                    WireMode::ForceFull => CsRef::Full(set.clone()),
                };
                let obj = ObjectId::DEFAULT;
                w.inject(
                    client,
                    srv,
                    DynMsg::R {
                        op: 0,
                        obj,
                        changes,
                    },
                );
                w.run_to_quiescence();
                match &tapped(&w, client).inbox.last().expect("a reply").1 {
                    DynMsg::RAck {
                        accepted, changes, ..
                    } => (*accepted, form(changes)),
                    m => panic!("not an R_A: {m:?}"),
                }
            };
            let replies = [ask(&behind), ask(&behind), ask(&ahead), ask(&behind)];
            let expected = match wire {
                WireMode::Negotiate => [
                    (false, "delta"),
                    (false, "full"),
                    (true, "none"),
                    (false, "delta"),
                ],
                WireMode::ForceFull => [
                    (false, "full"),
                    (false, "full"),
                    (true, "full"),
                    (false, "full"),
                ],
            };
            assert_eq!(replies, expected, "{wire:?}");
        }
    }

    /// The `need_tags` round: a refresher holding more than
    /// `REFRESH_TAGS_CAP` registers presents a digest; a replier whose
    /// registers differ answers `need_tags` with nothing, the refresher
    /// re-asks that replier alone with its tags, and only the answer to
    /// that counts toward n − f.
    #[test]
    fn a_digest_mismatch_is_settled_by_one_per_key_round() {
        let cfg = RpConfig::uniform(3, 1);
        let initial = CsRef::summary(&ChangeSet::from_initial_weights(&cfg.initial_weights));
        let mut w = World::new(2, UniformLatency::new(1_000, 2_000));
        w.enable_trace(1 << 12);
        for i in 0..3 {
            let server = DynServer::new(cfg.clone(), ServerId(i), DynOptions::default());
            w.add_actor(tap(Some(server)));
        }
        let (refresher, replier, down) = (ActorId(0), ActorId(1), ActorId(2));
        let client = w.add_actor(tap(None));
        let pid = ProcessId::Client(ClientId(0));
        let mut write = |to: ActorId, obj: u64, ts: u64| {
            let reg = TaggedValue::new(Tag::new(ts, pid), ts);
            let changes = initial.clone();
            let obj = ObjectId(obj);
            w.inject(
                client,
                to,
                DynMsg::W {
                    op: 0,
                    obj,
                    reg,
                    changes,
                },
            );
        };
        for obj in 0..=REFRESH_TAGS_CAP as u64 {
            write(refresher, obj, 1);
            write(replier, obj, 1);
        }
        write(replier, 0, 2);
        w.run_to_quiescence();
        w.crash_now(down);
        w.with_actor_ctx(refresher, |t: &mut Tap, ctx| {
            t.server
                .as_mut()
                .expect("a server")
                .start_refresh(false, ctx);
        });

        let acks = |w: &World<Msg>, from: ActorId| -> Vec<(bool, usize)> {
            tapped(w, refresher)
                .inbox
                .iter()
                .filter(|(f, _)| *f == from)
                .filter_map(|(_, m)| match m {
                    DynMsg::RefreshAck {
                        regs, need_tags, ..
                    } => Some((*need_tags, regs.len())),
                    _ => None,
                })
                .collect()
        };
        let refreshing = |w: &World<Msg>| {
            let server = tapped(w, refresher).server.as_ref().expect("a server");
            server.refresh.is_some()
        };
        // Both first-round answers are in: the refresher's own, which
        // matches, and the replier's, which cannot count.
        assert!(w.run_until(|w| !acks(w, refresher).is_empty() && !acks(w, replier).is_empty()));
        assert_eq!(acks(&w, refresher), [(false, 0)]);
        assert_eq!(acks(&w, replier), [(true, 0)]);
        assert!(refreshing(&w), "a need_tags answer counted toward n − f");

        w.run_to_quiescence();
        assert_eq!(acks(&w, replier), [(true, 0), (false, 1)]);
        assert!(!refreshing(&w));
        let asked = |at: ActorId| -> Vec<&'static str> {
            tapped(&w, at)
                .inbox
                .iter()
                .filter_map(|(f, m)| match m {
                    DynMsg::RefreshR { have, .. } if *f == refresher => Some(match have {
                        RefreshHave::Tags(_) => "tags",
                        RefreshHave::Digest { .. } => "digest",
                    }),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(asked(replier), ["digest", "tags"]);
        assert_eq!(asked(refresher), ["digest"]);
        let dropped = w
            .trace()
            .expect("tracing")
            .records()
            .filter(
                |r| matches!(r.kind, TraceKind::DropCrashed { to, kind: "RefR", .. } if to == down),
            )
            .count();
        assert_eq!(dropped, 1, "the per-key round goes to the replier alone");
        let server = tapped(&w, refresher).server.as_ref().expect("a server");
        assert_eq!(server.register_of(ObjectId(0)).value, Some(2));
    }

    /// The hold tests' world: server 0 (tapped) holds `mid`, one transfer
    /// past the initial set, and with `refreshing` has started the refresh
    /// that precedes applying the gain `ahead` adds on top of `mid`. Two
    /// bare taps stand in for clients (actors 3 and 4).
    struct Gainer {
        w: World<Msg>,
        behind: ChangeSet,
        ahead: ChangeSet,
    }

    const SRV: ActorId = ActorId(0);
    const CLIENTS: [ActorId; 2] = [ActorId(3), ActorId(4)];

    fn gainer(refreshing: bool) -> Gainer {
        let cfg = RpConfig::uniform(3, 1);
        let behind = ChangeSet::from_initial_weights(&cfg.initial_weights);
        let earlier = TransferChanges::new(ServerId(2), ServerId(1), 2, Ratio::new(1, 10), true);
        let gain = TransferChanges::new(ServerId(1), ServerId(0), 2, Ratio::new(1, 10), true);
        let mut mid = behind.clone();
        let mut ahead = behind.clone();
        for c in earlier.both() {
            mid.insert(c);
            ahead.insert(c);
        }
        for c in gain.both() {
            ahead.insert(c);
        }
        let mut w = World::new(3, UniformLatency::new(1_000, 2_000));
        for i in 0..3 {
            let mut server = DynServer::new(cfg.clone(), ServerId(i), DynOptions::default());
            server.seed_changes(&mid);
            w.add_actor(tap(Some(server)));
        }
        for _ in CLIENTS {
            w.add_actor(tap(None));
        }
        if refreshing {
            w.with_actor_ctx(SRV, |t: &mut Tap, ctx| {
                let s = t.server.as_mut().expect("a server");
                let req = ApplyRequest {
                    new_changes: gain.both().to_vec(),
                    wc_ack: None,
                };
                assert!(req.affects(ServerId(0)), "server 0 gains");
                s.pending_applies.push_back(req);
                s.drain_applies(ctx);
                assert!(s.refresh.is_some());
            });
        }
        Gainer { w, behind, ahead }
    }

    impl Gainer {
        fn server(&self) -> &DynServer<u64> {
            tapped(&self.w, SRV).server.as_ref().expect("a server")
        }

        /// Delivers `msg` from `client` to server 0 now, past the network,
        /// so that it lands before any refresh reply.
        fn deliver(&mut self, client: ActorId, msg: Msg) {
            self.w
                .with_actor_ctx(SRV, |t: &mut Tap, ctx| t.on_message(client, msg, ctx));
        }

        fn read(&mut self, client: ActorId, op: u64, set: &ChangeSet) {
            self.ask(client, op, CsRef::summary(set));
        }

        fn ask(&mut self, client: ActorId, op: u64, changes: CsRef) {
            let obj = ObjectId::DEFAULT;
            self.deliver(client, DynMsg::R { op, obj, changes });
        }

        fn server_mut(&mut self) -> &mut DynServer<u64> {
            let tap = self.w.actor_mut::<Tap>(SRV).expect("a tap");
            tap.server.as_mut().expect("a server")
        }

        /// `(op, accepted, form)` of every reply `client` received.
        fn replies(&self, client: ActorId) -> Vec<(u64, bool, &'static str)> {
            tapped(&self.w, client)
                .inbox
                .iter()
                .map(|(_, m)| match m {
                    DynMsg::RAck {
                        op,
                        accepted,
                        changes,
                        ..
                    }
                    | DynMsg::WAck {
                        op,
                        accepted,
                        changes,
                        ..
                    } => (*op, *accepted, form(changes)),
                    m => panic!("not an ack: {m:?}"),
                })
                .collect()
        }
    }

    /// A client already holding the gain a refreshing server waits to
    /// apply gets one reply, once the refresh lands: an accept. A write
    /// held so is adopted then.
    #[test]
    fn a_client_ahead_of_a_refreshing_gainer_is_answered_once_it_lands() {
        let mut g = gainer(true);
        let ahead = g.ahead.clone();
        g.read(CLIENTS[0], 1, &ahead);
        let reg = TaggedValue::new(Tag::new(1, ProcessId::Client(ClientId(1))), 7);
        g.deliver(
            CLIENTS[1],
            DynMsg::W {
                op: 1,
                obj: ObjectId::DEFAULT,
                reg,
                changes: CsRef::summary(&ahead),
            },
        );
        assert_eq!(g.server().held.len(), 2);
        assert!(g.w.run_until(|w| !tapped(w, CLIENTS[0]).inbox.is_empty()));
        assert!(
            g.server().refresh.is_none(),
            "answered before the refresh landed"
        );
        g.w.run_to_quiescence();
        for client in CLIENTS {
            assert_eq!(g.replies(client), [(1, true, "none")]);
        }
        assert_eq!(*g.server().changes(), ahead);
        assert_eq!(g.server().register(), reg);
        assert!(g.server().held.is_empty());
        assert_eq!(g.w.metrics().counter("held_behind"), 2);
    }

    /// While the refresh runs, a client behind the server is answered at
    /// once with the delta it lacks.
    #[test]
    fn a_client_behind_a_refreshing_server_gets_a_delta_at_once() {
        let mut g = gainer(true);
        let behind = g.behind.clone();
        g.read(CLIENTS[0], 1, &behind);
        assert!(g.server().held.is_empty());
        assert!(g.server().refresh.is_some());
        g.w.run_to_quiescence();
        assert_eq!(g.replies(CLIENTS[0]), [(1, false, "delta")]);
        assert_eq!(g.w.metrics().counter("held_behind"), 0);
    }

    /// With no refresh in flight there is nothing to wait for: a client
    /// ahead of the server gets `Full` at once.
    #[test]
    fn with_no_refresh_in_flight_a_client_ahead_gets_full() {
        let mut g = gainer(false);
        let ahead = g.ahead.clone();
        g.read(CLIENTS[0], 1, &ahead);
        assert!(g.server().held.is_empty());
        g.w.run_to_quiescence();
        assert_eq!(g.replies(CLIENTS[0]), [(1, false, "full")]);
    }

    /// A client has one operation in flight: its newer request replaces
    /// the one held, and only the newer is answered.
    #[test]
    fn a_newer_request_replaces_the_held_one() {
        let mut g = gainer(true);
        let ahead = g.ahead.clone();
        g.read(CLIENTS[0], 1, &ahead);
        g.read(CLIENTS[0], 2, &ahead);
        let held: Vec<u64> = g.server().held.iter().map(|r| r.op).collect();
        assert_eq!(held, [2]);
        g.w.run_to_quiescence();
        assert_eq!(g.replies(CLIENTS[0]), [(2, true, "none")]);
        assert_eq!(g.w.metrics().counter("held_behind"), 2);
    }

    /// A length-only summary is accepted at the server's own length.
    /// Shorter, it names the journal prefix of that length, answered with
    /// the delta from there — or with `Full` below `named_from`, where the
    /// journal is not this server's history; an unresolved delta degrades
    /// to `Full` as for a digest. Longer, it is a client ahead: `Full`.
    #[test]
    fn a_length_names_the_journal_prefix_of_that_length() {
        let mut g = gainer(false);
        let (behind, ahead) = (g.behind.clone(), g.ahead.len());
        let mid = g.server().changes().clone();
        assert_eq!(g.server().named_from, mid.len(), "seeded");
        for (op, len) in [mid.len(), behind.len(), ahead].into_iter().enumerate() {
            g.ask(CLIENTS[0], op as u64, CsRef::length_only(len));
            g.w.run_to_quiescence();
        }
        g.server_mut().named_from = 0;
        for op in 3..5 {
            g.ask(CLIENTS[0], op, CsRef::length_only(behind.len()));
            g.w.run_to_quiescence();
        }
        assert_eq!(
            g.replies(CLIENTS[0]),
            [
                (0, true, "none"),
                (1, false, "full"),
                (2, false, "full"),
                (3, false, "delta"),
                (4, false, "full"),
            ]
        );
        // The delta is exactly what a client at the initial set lacks.
        let delta = match &tapped(&g.w, CLIENTS[0]).inbox[3].1 {
            DynMsg::RAck { changes, .. } => changes.clone(),
            m => panic!("not an R_A: {m:?}"),
        };
        let mut client = behind;
        assert_eq!(
            client.apply_ref(&delta),
            awr_types::ReconcileOutcome::InSync { added: 2 }
        );
        assert_eq!(client, mid);
        assert_eq!(g.w.metrics().counter("held_behind"), 0);
    }

    /// While a refresh runs, a length past the server's own is held and
    /// accepted once the gain lands; a shorter one is answered at once.
    #[test]
    fn a_length_past_a_refreshing_server_is_held() {
        let mut g = gainer(true);
        g.server_mut().named_from = 0;
        let (behind, ahead) = (g.behind.len(), g.ahead.len());
        g.ask(CLIENTS[0], 1, CsRef::length_only(ahead));
        g.ask(CLIENTS[1], 1, CsRef::length_only(behind));
        assert_eq!(g.server().held.len(), 1);
        g.w.run_to_quiescence();
        assert_eq!(g.replies(CLIENTS[0]), [(1, true, "none")]);
        assert_eq!(g.replies(CLIENTS[1]), [(1, false, "delta")]);
        assert_eq!(g.w.metrics().counter("held_behind"), 1);
    }

    /// A client names its `C` by length to every server at first, all
    /// starting from the initial set. Once `C` changes it sends the summary
    /// until a server has accepted the new `C`, the late acceptors of an
    /// operation included, and the summary again to a server that
    /// rejected.
    #[test]
    fn a_client_names_c_by_length_where_a_server_accepted_it() {
        let cfg = RpConfig::uniform(3, 1);
        let options = DynOptions {
            fanout: super::super::Fanout::All,
            ..DynOptions::default()
        };
        let mut w = World::new(4, UniformLatency::new(1_000, 2_000));
        for i in 0..3 {
            let server = DynServer::new(cfg.clone(), ServerId(i), options);
            w.add_actor(tap(Some(server)));
        }
        let pid = ProcessId::Client(ClientId(0));
        let client = w.add_actor(crate::DynClient::<u64>::new(pid, cfg, options));
        let mut seen = [0; 3];
        let mut read = |w: &mut World<Msg>| -> Vec<&'static str> {
            w.with_actor_ctx(client, |c: &mut crate::DynClient<u64>, ctx| {
                c.begin_read(ctx)
            });
            w.run_to_quiescence();
            let mut forms = Vec::new();
            for (i, seen) in seen.iter_mut().enumerate() {
                let inbox = &tapped(w, ActorId(i)).inbox;
                for (from, m) in &inbox[*seen..] {
                    if let (true, DynMsg::R { changes, .. } | DynMsg::RV { changes, .. }) =
                        (*from == client, m)
                    {
                        forms.push(form(changes));
                    }
                }
                *seen = inbox.len();
            }
            forms.sort_unstable();
            forms
        };
        let initial = ["length"; 3];
        assert_eq!(read(&mut w), initial);
        w.with_actor_ctx(ActorId(0), |t: &mut Tap, ctx| {
            let s = t.server.as_mut().expect("a server");
            s.begin_transfer(ServerId(1), Ratio::new(1, 10), ctx)
                .expect("a transfer starts");
        });
        w.run_to_quiescence();
        // Rejected at the initial length, the client learns the transfer
        // and restarts with summaries; every server accepts them.
        assert_eq!(
            read(&mut w),
            ["length", "length", "length", "summary", "summary", "summary"]
        );
        assert_eq!(read(&mut w), initial);
    }

    /// What a request asks for survives the hold: once the refresh lands,
    /// a held `R` is answered with the register's tag alone and a held
    /// `RV` with the whole register.
    #[test]
    fn a_held_r_is_answered_with_the_tag_and_a_held_rv_with_the_register() {
        let mut g = gainer(true);
        let (mid, ahead) = (g.server().changes().clone(), g.ahead.clone());
        let reg = TaggedValue::new(Tag::new(1, ProcessId::Client(ClientId(1))), 7);
        let obj = ObjectId::DEFAULT;
        let changes = CsRef::summary(&mid);
        g.deliver(
            CLIENTS[1],
            DynMsg::W {
                op: 1,
                obj,
                reg,
                changes,
            },
        );
        assert_eq!(g.server().register(), reg, "accepted at the server's own C");
        let changes = CsRef::summary(&ahead);
        let (tag_query, read) = (
            DynMsg::R {
                op: 2,
                obj,
                changes: changes.clone(),
            },
            DynMsg::RV {
                op: 2,
                obj,
                changes,
            },
        );
        g.deliver(CLIENTS[0], tag_query);
        g.deliver(CLIENTS[1], read);
        assert_eq!(g.server().held.len(), 2);
        g.w.run_to_quiescence();
        let answered = |client: ActorId| -> Vec<TaggedValue<u64>> {
            let inbox = &tapped(&g.w, client).inbox;
            inbox
                .iter()
                .filter_map(|(_, m)| match m {
                    DynMsg::RAck {
                        reg,
                        accepted: true,
                        ..
                    } => Some(*reg),
                    _ => None,
                })
                .collect()
        };
        let tag_only = TaggedValue {
            tag: reg.tag,
            value: None,
        };
        assert_eq!(answered(CLIENTS[0]), [tag_only]);
        assert_eq!(answered(CLIENTS[1]), [reg]);
        assert_eq!(g.w.metrics().counter("held_behind"), 2);
    }

    /// A held request is server state: the explorer must tell a server
    /// holding one from the same server without it.
    #[test]
    fn a_held_request_is_in_the_state_digest() {
        let (mut holds, idle) = (gainer(true), gainer(true));
        assert_eq!(holds.server().state_digest(), idle.server().state_digest());
        let ahead = holds.ahead.clone();
        holds.read(CLIENTS[0], 1, &ahead);
        assert_eq!(holds.server().held.len(), 1);
        assert_ne!(holds.server().state_digest(), idle.server().state_digest());
    }

    // -----------------------------------------------------------------
    // Differential: the register table against the `BTreeMap` it
    // replaced, over adoptions, refresh installs and recoveries.
    // -----------------------------------------------------------------

    use proptest::prelude::*;
    use std::hash::{Hash, Hasher};

    type Reference = BTreeMap<ObjectId, TaggedValue<u64>>;

    /// Object keys by selector: small keys, and keys far apart.
    fn key_of(sel: u8) -> ObjectId {
        ObjectId(match sel {
            0..=5 => u64::from(sel),
            6 => 1 << 40,
            _ => u64::MAX,
        })
    }

    fn reg_of(ts: u64, writer: u32) -> TaggedValue<u64> {
        let tag = Tag::new(ts, ProcessId::Client(ClientId(writer)));
        TaggedValue::new(tag, ts * 10 + u64::from(writer))
    }

    /// The old map's adoption rule, verbatim.
    fn adopt_into(reference: &mut Reference, obj: ObjectId, incoming: &TaggedValue<u64>) {
        match reference.get_mut(&obj) {
            Some(cur) => {
                cur.adopt_if_newer(incoming);
            }
            None => {
                if incoming.tag > Tag::bottom() {
                    reference.insert(obj, *incoming);
                }
            }
        }
    }

    fn digest_of(value: &impl Hash) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    /// A fresh server that adopted `regs` in the order given.
    fn adopted(regs: impl Iterator<Item = (ObjectId, TaggedValue<u64>)>) -> DynServer<u64> {
        let mut s = DynServer::new(RpConfig::uniform(3, 1), ServerId(0), DynOptions::default());
        for (obj, reg) in regs {
            s.adopt_register(obj, &reg);
        }
        s
    }

    fn same_registers(s: &DynServer<u64>, reference: &Reference) -> Result<(), TestCaseError> {
        prop_assert_eq!(s.registers(), reference);
        prop_assert_eq!(
            reg_tag_digest(s.registers.unordered()),
            reg_tag_digest(reference)
        );
        let mut h = std::collections::hash_map::DefaultHasher::new();
        s.registers.hash_sorted(&mut h);
        prop_assert_eq!(h.finish(), digest_of(reference), "hashed as the map was");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Steps: 0 adopt, 1 refresh install of two registers, 2 recover
        /// from the WAL, 3 read the ordered view (so that the next change
        /// must drop it).
        #[test]
        fn the_register_table_reads_as_the_map_it_replaced(
            steps in proptest::collection::vec(
                (0u8..4, (0u8..8, 0u64..5, 0u32..3), (0u8..8, 0u64..5, 0u32..3)),
                1..40,
            ),
        ) {
            let cfg = RpConfig::uniform(3, 1);
            let storage = StorageHandle::<u64>::in_memory();
            let mut w: World<Msg> = World::new(1, UniformLatency::new(1_000, 2_000));
            let srv = w.add_actor(DynServer::<u64>::with_storage(
                cfg.clone(),
                ServerId(0),
                DynOptions::default(),
                storage.clone(),
            ));
            let mut reference = Reference::new();
            for (op, (k1, ts1, w1), (k2, ts2, w2)) in steps {
                let (first, second) = ((key_of(k1), reg_of(ts1, w1)), (key_of(k2), reg_of(ts2, w2)));
                match op {
                    0 => {
                        let s = w.actor_mut::<DynServer<u64>>(srv).expect("server");
                        s.adopt_register(first.0, &first.1);
                        adopt_into(&mut reference, first.0, &first.1);
                    }
                    1 => {
                        let mut best = Reference::new();
                        for (obj, reg) in [&first, &second] {
                            adopt_into(&mut best, *obj, reg);
                            adopt_into(&mut reference, *obj, reg);
                        }
                        w.with_actor_ctx(srv, |s: &mut DynServer<u64>, ctx| {
                            s.on_refresh_complete(false, best, ctx);
                        })
                        .expect("a live server");
                    }
                    2 => {
                        let s = w.actor_mut::<DynServer<u64>>(srv).expect("server");
                        *s = DynServer::recover(
                            cfg.clone(),
                            ServerId(0),
                            DynOptions::default(),
                            storage.clone(),
                        );
                    }
                    _ => {
                        let s = w.actor::<DynServer<u64>>(srv).expect("server");
                        prop_assert_eq!(s.registers(), &reference);
                    }
                }
                let s = w.actor::<DynServer<u64>>(srv).expect("server");
                same_registers(s, &reference)?;
                // The same registers adopted in opposite orders digest
                // equally.
                let up = adopted(reference.clone().into_iter());
                let down = adopted(reference.clone().into_iter().rev());
                prop_assert_eq!(up.state_digest(), down.state_digest());
                same_registers(&up, &reference)?;
            }
        }
    }
}
