//! The server side of Algorithm 6: [`DynServer`], with the embedded
//! Algorithm 4 engine and the register refresh on weight gain.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use awr_core::restricted::{ApplyRequest, CoreEvent, TransferCore, TransferStart, WrMsg};
use awr_core::{RpConfig, TransferError, TransferOutcome};
use awr_sim::{Actor, ActorId, Context, Time};
use awr_types::{ChangeSet, CsRef, ObjectId, Ratio, ServerId, Tag, TaggedValue};

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
        let core = TransferCore::new(cfg, me);
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
            core: TransferCore::recover(cfg, me, changes),
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
