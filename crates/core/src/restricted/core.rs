//! The embeddable protocol engines: [`TransferCore`] (Algorithm 4) and
//! [`ReadChangesClient`] (Algorithm 3, requester side).
//!
//! Both are plain state machines that host actors embed. The pure
//! weight-reassignment server ([`crate::restricted::RpServer`]) applies
//! learned changes immediately; the dynamic-weighted storage server defers
//! application behind a register refresh (Algorithm 4 lines 8–9) — which is
//! why "apply these changes" is surfaced to the host as an
//! [`ApplyRequest`] instead of happening internally.

use std::collections::{BTreeMap, HashSet, VecDeque};

use awr_rb::RbEngine;
use awr_sim::{ActorId, Context, Message, Time};
use awr_types::{Change, ChangeSet, CsRef, ProcessId, Ratio, ServerId, TransferChanges};

use crate::problem::{RpConfig, TransferError, TransferOutcome};
use crate::restricted::messages::WrMsg;

/// Maps a server id to its actor id: servers occupy actors `0..n`.
pub fn server_actor(s: ServerId) -> ActorId {
    ActorId(s.index())
}

/// Changes that a host must apply (possibly after a register refresh),
/// together with the write-back acknowledgment owed once applied.
#[derive(Clone, Debug)]
pub struct ApplyRequest {
    /// Changes not yet in the local set `C`.
    pub new_changes: Vec<Change>,
    /// If the changes came from a `⟨WC, C⟩` write-back: who to ack and with
    /// which op number, once applied.
    pub wc_ack: Option<(ActorId, u64)>,
}

impl ApplyRequest {
    /// Whether any new change (with non-zero delta) targets `me` — the
    /// Algorithm 4 line 8 condition triggering a register refresh.
    pub fn affects(&self, me: ServerId) -> bool {
        self.new_changes
            .iter()
            .any(|c| c.target == me && !c.is_null())
    }
}

/// Events surfaced to the host by [`TransferCore::handle`].
#[derive(Clone, Debug)]
pub enum CoreEvent {
    /// New changes to apply; call [`TransferCore::apply`] (immediately, or
    /// after a register refresh in storage mode).
    NeedApply(ApplyRequest),
    /// This server's own outstanding transfer completed.
    Completed(TransferOutcome),
}

/// The immediate disposition of a [`TransferCore::transfer`] (or
/// [`TransferCore::transfer_queued`]) invocation.
#[derive(Clone, Debug)]
pub enum TransferStart {
    /// The local C2 check failed: the transfer completed *null* right away
    /// (Algorithm 4 lines 17–18); the outcome records zero-weight changes.
    Null(TransferOutcome),
    /// The transfer is effective and in flight (waiting for `n − f − 1`
    /// acknowledgments); completion surfaces later as
    /// [`CoreEvent::Completed`].
    Effective,
    /// The request was queued behind an in-flight transfer
    /// ([`TransferCore::transfer_queued`] only). Its C2 check runs when the
    /// queue drains; it is announced — coalesced with every other queued
    /// request — in a single RB envelope, and both its start and its
    /// completion surface later as [`CoreEvent::Completed`] (null requests
    /// included).
    Queued,
}

#[derive(Debug)]
struct PendingTransfer {
    outcome: TransferOutcome,
    acks: HashSet<ActorId>,
    needed: usize,
}

/// Per-server engine for Algorithm 4 (`transfer`) plus the server side of
/// Algorithm 3 (`RC`/`WC` handling).
#[derive(Debug)]
pub struct TransferCore {
    cfg: RpConfig,
    me: ServerId,
    /// Local counter `lc`. Starts at 2: counter 1 is reserved for the
    /// conventional initial-weight changes (Algorithm 4 line 2 pairs
    /// `lc ← 1` with `⟨s, 1, s, 1⟩`; starting real transfers at 2 keeps
    /// operation keys collision-free and matches the `⟨s_j, 2, …⟩` lookups
    /// of Algorithms 1–2).
    lc: u64,
    changes: ChangeSet,
    /// The RB engine carries *batches* of change pairs: queued transfers
    /// coalesce into one envelope (see [`TransferCore::transfer_queued`]).
    rb: RbEngine<Vec<TransferChanges>>,
    /// In-flight own transfers, keyed by local counter. [`TransferCore::transfer`]
    /// keeps at most one entry (processes are sequential, §II); a drained
    /// queue of [`TransferCore::transfer_queued`] requests may hold several,
    /// all announced by the same envelope.
    pending: BTreeMap<u64, PendingTransfer>,
    /// Requests accepted by [`TransferCore::transfer_queued`] while a
    /// transfer was in flight, started (as one batch) when it completes.
    queued: VecDeque<(ServerId, Ratio)>,
    /// Transfers (issuer, counter) we already acknowledged — the
    /// "if not already sent" of Algorithm 4 line 11.
    acked: HashSet<(ServerId, u64)>,
    /// Completed own transfers with completion times (for the auditor).
    completed: Vec<(TransferOutcome, Time)>,
}

impl TransferCore {
    /// Creates the engine for server `me`; servers occupy actors `0..n`.
    pub fn new(cfg: RpConfig, me: ServerId) -> TransferCore {
        let members = (0..cfg.n).map(ActorId).collect();
        TransferCore {
            changes: ChangeSet::from_initial_weights(&cfg.initial_weights),
            rb: RbEngine::new(server_actor(me), members),
            cfg,
            me,
            lc: 2,
            pending: BTreeMap::new(),
            queued: VecDeque::new(),
            acked: HashSet::new(),
            completed: Vec::new(),
        }
    }

    /// Rebuilds the engine from a recovered set of completed changes (the
    /// durable-storage restart path). The local counter resumes past the
    /// highest counter this server ever issued — changes are globally keyed
    /// by `⟨issuer, counter⟩`, so reusing a counter after a crash would
    /// alias a previous operation. In-flight transfer state (pending
    /// invocations, relay acks, queued requests) is *not* recovered: an
    /// interrupted own transfer was never completed, and restarting with it
    /// dropped is indistinguishable from the invocation never having been
    /// accepted (crash-stop semantics, paper §II).
    pub fn recover(cfg: RpConfig, me: ServerId, changes: ChangeSet) -> TransferCore {
        let mut core = TransferCore::new(cfg, me);
        let issued_max = changes
            .iter()
            .filter(|c| c.issuer == ProcessId::Server(me))
            .map(|c| c.counter)
            .max()
            .unwrap_or(1);
        core.lc = (issued_max + 1).max(2);
        // Resume the RB sequence past anything we could have broadcast:
        // every envelope consumed at least one counter, so counters are an
        // upper bound on sequences used. Without this, peers (whose dedup
        // sets survive our crash) would swallow every post-recovery
        // broadcast as a duplicate and the transfer would never complete.
        core.rb.resume_at(issued_max + 1);
        core.changes = changes;
        core
    }

    /// The configuration this server runs under.
    pub fn config(&self) -> &RpConfig {
        &self.cfg
    }

    /// This server's id.
    pub fn server_id(&self) -> ServerId {
        self.me
    }

    /// The local set of changes `C`.
    pub fn changes(&self) -> &ChangeSet {
        &self.changes
    }

    /// Harness/bench hook: merges `set` into the local `C` directly,
    /// bypassing the protocol (no `T_Ack`s, no write-back bookkeeping).
    /// Used to pre-seed converged steady states in benchmarks and tests;
    /// never called by protocol code.
    pub fn absorb_changes(&mut self, set: &ChangeSet) {
        self.changes.merge(set);
    }

    /// Reconciles the local `C` against a wire reference (the recovery
    /// rejoin path), returning whether anything new was absorbed.
    pub fn absorb_ref(&mut self, r: &CsRef) -> bool {
        self.changes.apply_ref(r).learned()
    }

    /// Truncates the local change journal to at most `keep` recent entries
    /// (see [`ChangeSet::compact_journal`]); returns the entries dropped.
    /// Callers owning a write-ahead log must persist the journal tail
    /// before compacting.
    pub fn compact_journal(&mut self, keep: usize) -> usize {
        self.changes.compact_journal(keep)
    }

    /// `weight()` of Algorithm 4 lines 4–5: this server's weight computed
    /// from its local changes.
    pub fn weight(&self) -> Ratio {
        self.changes.server_weight(self.me)
    }

    /// `get_changes(s)` of Algorithm 4 line 6.
    pub fn get_changes(&self, s: ServerId) -> ChangeSet {
        self.changes.restricted_to(s)
    }

    /// Completed own transfers with completion times.
    pub fn completed(&self) -> &[(TransferOutcome, Time)] {
        &self.completed
    }

    /// Whether a transfer is currently in flight or queued.
    pub fn is_busy(&self) -> bool {
        !self.pending.is_empty() || !self.queued.is_empty()
    }

    /// A canonical digest of this engine's logical state, for the
    /// model-checking explorer. Covers everything that decides future
    /// behaviour — counter, change set, RB engine, in-flight/queued/acked
    /// bookkeeping, completed outcomes — but no virtual times (two
    /// schedules reaching the same protocol state must hash equal).
    /// Hash-set contents are sorted before hashing.
    pub fn state_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.lc.hash(&mut h);
        self.changes.digest().hash(&mut h);
        self.rb.state_digest().hash(&mut h);
        for (counter, p) in &self.pending {
            counter.hash(&mut h);
            p.outcome.hash(&mut h);
            p.needed.hash(&mut h);
            let mut acks: Vec<usize> = p.acks.iter().map(|a| a.index()).collect();
            acks.sort_unstable();
            acks.hash(&mut h);
        }
        for (to, delta) in &self.queued {
            (to, delta).hash(&mut h);
        }
        let mut acked: Vec<(ServerId, u64)> = self.acked.iter().copied().collect();
        acked.sort_unstable();
        acked.hash(&mut h);
        for (outcome, _at) in &self.completed {
            outcome.hash(&mut h);
        }
        h.finish()
    }

    fn validate(&self, to: ServerId, delta: Ratio) -> Result<(), TransferError> {
        if !delta.is_positive() {
            return Err(TransferError::InvalidArguments {
                reason: format!("delta must be positive, got {delta}"),
            });
        }
        if to == self.me {
            return Err(TransferError::InvalidArguments {
                reason: "cannot transfer to self".into(),
            });
        }
        if to.index() >= self.cfg.n {
            return Err(TransferError::InvalidArguments {
                reason: format!("unknown destination {to}"),
            });
        }
        Ok(())
    }

    /// Invokes `transfer(me, to, Δ)` (Algorithm 4 lines 12–20).
    ///
    /// Under C1, only this server can move its own weight, which the
    /// signature enforces structurally: there is no way to name another
    /// source.
    ///
    /// # Errors
    ///
    /// [`TransferError::Busy`] if the previous transfer has not completed
    /// (processes are sequential, §II); [`TransferError::InvalidArguments`]
    /// for `Δ ≤ 0`, unknown `to`, or `to == me`.
    pub fn transfer<M: Message>(
        &mut self,
        to: ServerId,
        delta: Ratio,
        ctx: &mut Context<'_, M>,
        wrap: impl Fn(WrMsg) -> M + Copy,
    ) -> Result<TransferStart, TransferError> {
        if self.is_busy() {
            return Err(TransferError::Busy);
        }
        // Not busy, so this can never return `Queued`.
        self.transfer_queued(to, delta, ctx, wrap)
    }

    /// Like [`TransferCore::transfer`], but a request arriving while a
    /// transfer is in flight is *queued* instead of rejected. When the
    /// in-flight transfer completes, every queued request runs its C2 check
    /// (in arrival order, each seeing its predecessors' debits) and all
    /// effective ones are RB-broadcast **in a single `⟨T⟩` envelope** — the
    /// batching that keeps the reliable-broadcast leg from paying one
    /// envelope-plus-relay wave per transfer under bursty reassignment.
    ///
    /// Queued requests surface *only* as [`CoreEvent::Completed`] events
    /// (null outcomes included), since the invocation has long returned by
    /// the time their C2 check runs.
    ///
    /// # Errors
    ///
    /// [`TransferError::InvalidArguments`] for `Δ ≤ 0`, unknown `to`, or
    /// `to == me` (checked at enqueue time).
    pub fn transfer_queued<M: Message>(
        &mut self,
        to: ServerId,
        delta: Ratio,
        ctx: &mut Context<'_, M>,
        wrap: impl Fn(WrMsg) -> M + Copy,
    ) -> Result<TransferStart, TransferError> {
        self.validate(to, delta)?;
        if self.is_busy() {
            self.queued.push_back((to, delta));
            return Ok(TransferStart::Queued);
        }
        let mut starts = self.start_batch(vec![(to, delta)], ctx, wrap);
        // Degenerate configs (n − f − 1 == 0) complete instantly.
        let _ = self.reap_complete(ctx.now());
        Ok(starts.pop().expect("one request, one disposition"))
    }

    /// Starts every request in `reqs` now: per-request C2 check (each
    /// seeing its predecessors' debits), then one RB broadcast carrying all
    /// effective pairs. Returns the per-request dispositions, in order.
    fn start_batch<M: Message>(
        &mut self,
        reqs: Vec<(ServerId, Ratio)>,
        ctx: &mut Context<'_, M>,
        wrap: impl Fn(WrMsg) -> M + Copy,
    ) -> Vec<TransferStart> {
        let mut starts = Vec::with_capacity(reqs.len());
        let mut batch: Vec<TransferChanges> = Vec::new();
        for (to, delta) in reqs {
            let counter = self.lc;
            self.lc += 1;
            // Line 12: the local C2 check — weight() > Δ + W_{S,0}/(2(n−f)).
            let clamp_ok = self.weight() > delta + self.cfg.floor();
            #[cfg(feature = "mutate")]
            // MUTATION: drop the Property-1 floor clamp — the transfer
            // proceeds even when it takes the issuer below the RP-Integrity
            // floor.
            let clamp_ok =
                clamp_ok || awr_sim::mutate::armed(awr_sim::mutate::Mutation::DropFloorClamp);
            if clamp_ok {
                let pair = TransferChanges::new(self.me, to, counter, delta, true);
                // Line 13: add both changes to the local set now.
                self.changes.insert(pair.debit);
                self.changes.insert(pair.credit);
                // Never ack our own transfer (we wait for *other* servers).
                self.acked.insert((self.me, counter));
                let outcome = TransferOutcome {
                    from: self.me,
                    to,
                    requested: delta,
                    changes: pair,
                    counter,
                };
                self.pending.insert(
                    counter,
                    PendingTransfer {
                        outcome,
                        acks: HashSet::new(),
                        needed: self.cfg.n - self.cfg.f - 1,
                    },
                );
                batch.push(pair);
                starts.push(TransferStart::Effective);
            } else {
                // Lines 17–18: null completion, no broadcast, no stored
                // change (zero-weight changes don't affect weights, per the
                // paper's Theorem 4 proof remark).
                let pair = TransferChanges::new(self.me, to, counter, delta, false);
                let outcome = TransferOutcome {
                    from: self.me,
                    to,
                    requested: delta,
                    changes: pair,
                    counter,
                };
                self.completed.push((outcome.clone(), ctx.now()));
                starts.push(TransferStart::Null(outcome));
            }
        }
        if !batch.is_empty() {
            // Line 14: RB-broadcast ⟨T, c, c′⟩ — once for the whole batch.
            self.rb
                .broadcast(batch, ctx, move |env| wrap(WrMsg::Rb(env)));
        }
        starts
    }

    /// Moves every fully-acknowledged pending transfer to `completed`,
    /// returning the reaped outcomes (in counter order).
    fn reap_complete(&mut self, now: Time) -> Vec<TransferOutcome> {
        let done: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.acks.len() >= p.needed)
            .map(|(c, _)| *c)
            .collect();
        done.into_iter()
            .map(|c| {
                let p = self.pending.remove(&c).expect("key collected above");
                self.completed.push((p.outcome.clone(), now));
                p.outcome
            })
            .collect()
    }

    /// Handles a protocol message addressed to this server. Returns events
    /// the host must act on (change application, completion).
    pub fn handle<M: Message>(
        &mut self,
        from: ActorId,
        msg: WrMsg,
        ctx: &mut Context<'_, M>,
        wrap: impl Fn(WrMsg) -> M + Copy,
    ) -> Vec<CoreEvent> {
        match msg {
            WrMsg::Rb(env) => {
                let delivered = self.rb.on_envelope(env, ctx, move |e| wrap(WrMsg::Rb(e)));
                match delivered {
                    Some(batch) => {
                        // One staging pass for the whole batch: a storage
                        // host pays at most one register refresh for all
                        // the coalesced transfers.
                        let all: Vec<Change> = batch.iter().flat_map(|pair| pair.both()).collect();
                        let req = self.stage_changes(all, None);
                        match req {
                            Some(r) => vec![CoreEvent::NeedApply(r)],
                            None => Vec::new(),
                        }
                    }
                    None => Vec::new(),
                }
            }
            WrMsg::TAck { counter } => {
                let mut events = Vec::new();
                if let Some(p) = self.pending.get_mut(&counter) {
                    p.acks.insert(from);
                }
                for outcome in self.reap_complete(ctx.now()) {
                    events.push(CoreEvent::Completed(outcome));
                }
                // Every in-flight transfer is done: start the queued batch.
                if self.pending.is_empty() && !self.queued.is_empty() {
                    let reqs: Vec<(ServerId, Ratio)> = self.queued.drain(..).collect();
                    for start in self.start_batch(reqs, ctx, wrap) {
                        // Queued invocations returned long ago; null
                        // dispositions surface as completions instead.
                        if let TransferStart::Null(o) = start {
                            events.push(CoreEvent::Completed(o));
                        }
                    }
                    for outcome in self.reap_complete(ctx.now()) {
                        events.push(CoreEvent::Completed(outcome));
                    }
                }
                events
            }
            WrMsg::Rc { op, target } => {
                // Algorithm 3 lines 12–13.
                let changes = self.get_changes(target);
                ctx.send(from, wrap(WrMsg::RcAck { op, changes }));
                Vec::new()
            }
            WrMsg::Wc { op, changes } => {
                // Algorithm 3 lines 14–15: ack once the set is stored. A
                // set with news is staged with the ack owed, which
                // [`TransferCore::apply`] sends once the host applies it.
                if self.changes.contains_all(&changes) {
                    ctx.send(from, wrap(WrMsg::WcAck { op }));
                    return Vec::new();
                }
                let req = self
                    .stage_changes(changes.iter().copied().collect(), Some((from, op)))
                    .expect("a staged write-back owes an ack");
                vec![CoreEvent::NeedApply(req)]
            }
            WrMsg::RcAck { .. } | WrMsg::WcAck { .. } | WrMsg::Invoke { .. } => {
                // Client-side / management messages; the host handles
                // `Invoke` before calling into the core.
                Vec::new()
            }
        }
    }

    /// Filters already-known changes and packages the rest for the host.
    fn stage_changes(
        &self,
        candidate: Vec<Change>,
        wc_ack: Option<(ActorId, u64)>,
    ) -> Option<ApplyRequest> {
        let new_changes: Vec<Change> = candidate
            .into_iter()
            .filter(|c| !self.changes.contains(c))
            .collect();
        if new_changes.is_empty() && wc_ack.is_none() {
            None
        } else {
            Some(ApplyRequest {
                new_changes,
                wc_ack,
            })
        }
    }

    /// `write_changes` (Algorithm 4 lines 7–11): inserts the staged changes,
    /// acknowledges the originating transfer(s), and sends any owed WC ack.
    /// Hosts call this directly (pure mode) or after their register refresh
    /// (storage mode).
    pub fn apply<M: Message>(
        &mut self,
        req: ApplyRequest,
        ctx: &mut Context<'_, M>,
        wrap: impl Fn(WrMsg) -> M + Copy,
    ) {
        for c in &req.new_changes {
            self.changes.insert(*c);
            // Line 11: T_Ack to the issuer, once per (issuer, counter).
            if let Some(issuer) = c.issuer.as_server() {
                if issuer != self.me && self.acked.insert((issuer, c.counter)) {
                    ctx.send(
                        server_actor(issuer),
                        wrap(WrMsg::TAck { counter: c.counter }),
                    );
                }
            }
        }
        if let Some((to, op)) = req.wc_ack {
            ctx.send(to, wrap(WrMsg::WcAck { op }));
        }
    }
}

// ---------------------------------------------------------------------------
// Algorithm 3, requester side.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct RcPending {
    op: u64,
    target: ServerId,
    acc: ChangeSet,
    responders: HashSet<ActorId>,
    wrote_back: bool,
    wc_acks: HashSet<ActorId>,
    started: Time,
}

/// A completed `read_changes` invocation.
#[derive(Clone, Debug)]
pub struct ReadChangesResult {
    /// The server whose changes were read.
    pub target: ServerId,
    /// The returned set (a superset of `C_{s,t}` at invocation time —
    /// Validity-II).
    pub changes: ChangeSet,
    /// Invocation time.
    pub started: Time,
    /// Completion time.
    pub finished: Time,
}

impl ReadChangesResult {
    /// The target's weight under the returned set.
    pub fn weight(&self) -> Ratio {
        self.changes.server_weight(self.target)
    }
}

/// Requester-side engine for `read_changes` (Algorithm 3 lines 1–9): any
/// process — client or server — embeds one to read a server's changes.
/// It unions `f + 1` replies, writes the union back to every server, and
/// returns it once `n − f` of them store it.
#[derive(Debug)]
pub struct ReadChangesClient {
    cfg: RpConfig,
    next_op: u64,
    pending: Option<RcPending>,
    /// Completed invocations, in completion order.
    pub results: Vec<ReadChangesResult>,
}

impl ReadChangesClient {
    /// Creates an engine for a system whose servers are actors `0..n`.
    pub fn new(cfg: RpConfig) -> ReadChangesClient {
        ReadChangesClient {
            cfg,
            next_op: 0,
            pending: None,
            results: Vec::new(),
        }
    }

    /// Whether an invocation is in flight.
    pub fn is_busy(&self) -> bool {
        self.pending.is_some()
    }

    /// Invokes `read_changes(target)`: broadcasts `⟨RC, target⟩` to all
    /// servers (Algorithm 3 line 2).
    ///
    /// # Errors
    ///
    /// [`TransferError::Busy`] if an invocation is already in flight
    /// (processes are sequential).
    pub fn start<M: Message>(
        &mut self,
        target: ServerId,
        ctx: &mut Context<'_, M>,
        wrap: impl Fn(WrMsg) -> M + Copy,
    ) -> Result<(), TransferError> {
        if self.pending.is_some() {
            return Err(TransferError::Busy);
        }
        let op = self.next_op;
        self.next_op += 1;
        self.pending = Some(RcPending {
            op,
            target,
            acc: ChangeSet::new(),
            responders: HashSet::new(),
            wrote_back: false,
            wc_acks: HashSet::new(),
            started: ctx.now(),
        });
        for i in 0..self.cfg.n {
            ctx.send(ActorId(i), wrap(WrMsg::Rc { op, target }));
        }
        Ok(())
    }

    /// Feeds a client-side message (`RC_Ack` / `WC_Ack`). Returns the result
    /// when the invocation completes.
    pub fn on_message<M: Message>(
        &mut self,
        from: ActorId,
        msg: &WrMsg,
        ctx: &mut Context<'_, M>,
        wrap: impl Fn(WrMsg) -> M + Copy,
    ) -> Option<ReadChangesResult> {
        let p = self.pending.as_mut()?;
        match msg {
            WrMsg::RcAck { op, changes } if *op == p.op && !p.wrote_back => {
                p.acc.merge(changes);
                p.responders.insert(from);
                // Line 6: until more than f responses.
                if p.responders.len() > self.cfg.f {
                    p.wrote_back = true;
                    // Line 7: broadcast ⟨WC, C⟩.
                    for i in 0..self.cfg.n {
                        let changes = p.acc.clone();
                        ctx.send(ActorId(i), wrap(WrMsg::Wc { op: p.op, changes }));
                    }
                }
                None
            }
            WrMsg::WcAck { op } if *op == p.op && p.wrote_back => {
                p.wc_acks.insert(from);
                // Line 8: wait for n − f acknowledgments.
                if p.wc_acks.len() < self.cfg.n - self.cfg.f {
                    return None;
                }
                let p = self.pending.take().expect("pending checked");
                // Every reply was a restriction to the target, so the
                // union is `C|target` (line 9).
                let result = ReadChangesResult {
                    target: p.target,
                    changes: p.acc,
                    started: p.started,
                    finished: ctx.now(),
                };
                self.results.push(result.clone());
                Some(result)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_request_affects() {
        let req = ApplyRequest {
            new_changes: vec![Change::new(ServerId(0), 2, ServerId(1), Ratio::dec("0.2"))],
            wc_ack: None,
        };
        assert!(req.affects(ServerId(1)));
        assert!(!req.affects(ServerId(0)));
        let null = ApplyRequest {
            new_changes: vec![Change::new(ServerId(0), 2, ServerId(1), Ratio::ZERO)],
            wc_ack: None,
        };
        assert!(!null.affects(ServerId(1)));
    }
}
