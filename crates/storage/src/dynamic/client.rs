//! The client side of Algorithm 5: [`DynOpDriver`], the read/write phase
//! machine, and [`DynClient`], the actor that hosts it.

use std::any::Any;

use awr_core::RpConfig;
use awr_sim::{Actor, ActorId, Context, Time, TimerId};
use awr_types::{ChangeSet, CsRef, ObjectId, ProcessId, Ratio, ServerId, Tag, TaggedValue};

use super::select::QuorumSelector;
use super::{DynMsg, DynOptions, ReadMode, WireMode};
use crate::history::{HistOp, OpKind};
use crate::Value;

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

/// The operation in flight.
#[derive(Debug)]
struct InFlight<V> {
    /// The attempt's operation number; a restart takes a fresh one.
    op: u64,
    obj: ObjectId,
    write_value: Option<V>,
    invoke: Time,
    restarts: u64,
    /// Running quorum weight, under the client's `C`, of the phase's
    /// counted servers — [`DynOpDriver::replies`] in phase 1,
    /// [`DynOpDriver::acks`] in phase 2: maintained incrementally so each
    /// ack is O(1) instead of re-summing every responder. Sound because `C`
    /// is frozen for the lifetime of the attempt (any change to `C`
    /// restarts it).
    weight: Ratio,
    stage: Stage<V>,
}

#[derive(Debug)]
enum Stage<V> {
    /// Collecting `RAck`s.
    One,
    /// Collecting `WAck`s for the register phase 1 chose.
    Two { chosen: TaggedValue<V> },
}

/// The reader/writer engine of Algorithm 5, hosted by [`DynClient`].
#[derive(Debug)]
pub struct DynOpDriver<V> {
    id: ProcessId,
    cfg: RpConfig,
    options: DynOptions,
    /// The process's current set of completed changes `C`.
    pub changes: ChangeSet,
    op_cnt: u64,
    op: Option<InFlight<V>>,
    /// Phase-1 replies of the operation in flight, one slot per server
    /// (index = [`ServerId`]). The slots live on the driver and are
    /// cleared when an attempt begins, so an operation allocates nothing
    /// for them; meaningful only in [`Stage::One`].
    replies: Vec<Option<TaggedValue<V>>>,
    /// Phase-2 acks, one flag per server: the fresh phase-1 repliers plus
    /// every `WAck` since. Meaningful only in [`Stage::Two`].
    acks: Vec<bool>,
    /// Completed operations, oldest first.
    pub completed: Vec<DynCompletedOp<V>>,
    /// The armed rebroadcast timer, if an operation is in flight under a
    /// retry policy.
    retry_timer: Option<TimerId>,
    /// Rebroadcasts already spent on the current operation attempt.
    attempts: u32,
    /// Whom each attempt asks (see [`super::Fanout`]).
    select: QuorumSelector,
}

impl<V: Value> DynOpDriver<V> {
    /// Creates a driver whose initial `C` is the conventional initial set.
    fn new(id: ProcessId, cfg: RpConfig, options: DynOptions) -> Self {
        DynOpDriver {
            changes: ChangeSet::from_initial_weights(&cfg.initial_weights),
            id,
            select: QuorumSelector::new(options.fanout, options.retry, &cfg),
            options,
            op_cnt: 0,
            op: None,
            replies: vec![None; cfg.n],
            acks: vec![false; cfg.n],
            completed: Vec::new(),
            retry_timer: None,
            attempts: 0,
            cfg,
        }
    }

    /// Whether an operation is in flight.
    pub fn is_busy(&self) -> bool {
        self.op.is_some()
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
        self.select.hash_into(&mut h);
        match &self.op {
            None => 0u8.hash(&mut h),
            Some(f) => {
                let stage = match f.stage {
                    Stage::One => 1u8,
                    Stage::Two { .. } => 2u8,
                };
                (stage, f.op, f.obj, &f.write_value, f.restarts).hash(&mut h);
                match &f.stage {
                    Stage::One => {
                        // The sequence a `BTreeMap<ServerId, _>` of the
                        // replies hashes: the length, then the pairs by
                        // ascending server.
                        self.replies.iter().flatten().count().hash(&mut h);
                        for (i, reg) in self.replies.iter().enumerate() {
                            if let Some(reg) = reg {
                                (ServerId(i as u32), reg).hash(&mut h);
                            }
                        }
                    }
                    Stage::Two { chosen } => {
                        chosen.hash(&mut h);
                        // As a `BTreeSet<ServerId>` of the ackers would hash.
                        self.acks.iter().filter(|&&a| a).count().hash(&mut h);
                        for (i, _) in self.acks.iter().enumerate().filter(|(_, &a)| a) {
                            ServerId(i as u32).hash(&mut h);
                        }
                    }
                }
                f.weight.hash(&mut h);
            }
        }
        for c in &self.completed {
            (c.obj, &c.kind, c.restarts).hash(&mut h);
        }
        h.finish()
    }

    /// Begins `read(obj)` (write value `None`) or `write(obj, v)`. All
    /// objects share this driver's change set `C` and quorum judgement —
    /// only the register addressed by the two phases differs.
    ///
    /// # Panics
    ///
    /// Panics if an operation is already in flight.
    fn begin_obj(
        &mut self,
        obj: ObjectId,
        write_value: Option<V>,
        ctx: &mut Context<'_, DynMsg<V>>,
    ) {
        assert!(!self.is_busy(), "operation already in flight");
        self.op = Some(InFlight {
            op: 0,
            obj,
            write_value,
            invoke: ctx.now(),
            restarts: 0,
            weight: Ratio::ZERO,
            stage: Stage::One,
        });
        self.attempt(ctx);
    }

    /// Starts a fresh attempt of the operation in flight — at invocation
    /// and at every restart (Algorithm 5 lines 14–16 / 30–32): a new
    /// operation number, phase 1 from scratch with `R` sent to whom the
    /// selector names (everyone if it names nobody), and the rebroadcast
    /// timer armed, which stays armed through the attempt's phase 2. A
    /// write restarted from phase 2 re-runs phase 1 with its original
    /// value; a read discards the register it had chosen.
    fn attempt(&mut self, ctx: &mut Context<'_, DynMsg<V>>) {
        self.op_cnt += 1;
        let f = self.op.as_mut().expect("an operation in flight");
        f.op = self.op_cnt;
        f.weight = Ratio::ZERO;
        f.stage = Stage::One;
        self.replies.fill(None);
        self.attempts = 0;
        let r = self.request();
        let targets = self.select.begin(ctx.now(), &self.changes);
        if targets.is_empty() {
            ctx.send_to_all((0..self.cfg.n).map(ActorId), r);
        } else {
            ctx.record_counter("phase1_targeted", 1);
            ctx.record_sample("phase1_fanout", targets.len() as u64);
            ctx.send_to_all(targets.iter().map(|s| ActorId(s.index())), r);
        }
        self.arm_retry(ctx);
    }

    /// (Re)arms the rebroadcast timer for the current operation, with the
    /// delay doubled per attempt already spent. No-op without a retry
    /// policy.
    fn arm_retry(&mut self, ctx: &mut Context<'_, DynMsg<V>>) {
        let Some(rp) = self.select.retry_policy() else {
            return;
        };
        if let Some(t) = self.retry_timer.take() {
            ctx.cancel_timer(t);
        }
        let delay = rp.base.saturating_mul(1u64 << self.attempts.min(16));
        self.retry_timer = Some(ctx.set_timer(delay, self.op_cnt));
    }

    /// Timer callback: rebroadcasts the current phase if the operation the
    /// timer was armed for is still in flight (see
    /// [`super::RetryPolicy`]), or lets a suspicion lapse (see
    /// [`super::Fanout`]).
    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, DynMsg<V>>) {
        if self.select.on_lapse(tag) {
            ctx.record_counter("suspicion_lapsed", 1);
            return;
        }
        let Some(rp) = self.select.retry_policy() else {
            return;
        };
        let phase2 = match &self.op {
            Some(f) if f.op == tag => matches!(f.stage, Stage::Two { .. }),
            _ => return, // idle, or a stale timer from a superseded attempt
        };
        self.retry_timer = None;
        if self.attempts >= rp.max_attempts {
            return; // give up rebroadcasting; the op stays pending
        }
        self.attempts += 1;
        let (replies, acks) = (&self.replies, &self.acks);
        let widened = self.select.on_widen(
            |i| {
                if phase2 {
                    acks[i]
                } else {
                    replies[i].is_some()
                }
            },
            |after, tag| {
                let t = ctx.set_timer(after, tag);
                ctx.record_counter("server_suspected", 1);
                t
            },
        );
        if phase2 {
            if widened {
                ctx.record_counter("phase2_widened", 1);
            }
            // Same op number, same chosen register, to every server whose
            // ack is not in yet — the targets that stayed silent and, on
            // the widen, everyone outside them. A server that already
            // adopted the register (or something newer) acks without
            // effect, and the ack slots dedupe by ServerId — the write
            // cannot double-apply.
            self.send_phase2(ctx, |i| !acks[i]);
        } else {
            if widened {
                ctx.record_counter("phase1_widened", 1);
            }
            ctx.send_to_all((0..self.cfg.n).map(ActorId), self.request());
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

    /// The request of the phase in flight: `R`, or `W` with the chosen
    /// register. The attached reference is an O(1) summary under
    /// [`WireMode::Negotiate`] (the server only needs to *compare*), the
    /// whole set under [`WireMode::ForceFull`].
    fn request(&self) -> DynMsg<V> {
        let f = self.op.as_ref().expect("an operation in flight");
        let changes = match self.options.wire {
            WireMode::Negotiate => CsRef::summary(&self.changes),
            // Attaching `C` is a reference-count bump: the n messages of a
            // round share one copy-on-write storage.
            WireMode::ForceFull => CsRef::Full(self.changes.clone()),
        };
        match &f.stage {
            Stage::One => DynMsg::R {
                op: f.op,
                obj: f.obj,
                changes,
            },
            Stage::Two { chosen } => DynMsg::W {
                op: f.op,
                obj: f.obj,
                reg: chosen.clone(),
                changes,
            },
        }
    }

    /// Sends phase 2's `W` to every server `to` keeps; returns how many.
    fn send_phase2(&self, ctx: &mut Context<'_, DynMsg<V>>, to: impl Fn(usize) -> bool) -> u64 {
        let w = self.request();
        ctx.broadcast_filter((0..self.cfg.n).map(ActorId), w, |a| to(a.index())) as u64
    }

    /// Ends the operation in flight with `kind`.
    fn complete(&mut self, kind: OpKind<V>, ctx: &mut Context<'_, DynMsg<V>>) {
        let f = self.op.take().expect("an operation in flight");
        self.completed.push(DynCompletedOp {
            obj: f.obj,
            kind,
            invoke: f.invoke,
            response: ctx.now(),
            restarts: f.restarts,
        });
        if let Some(t) = self.retry_timer.take() {
            ctx.cancel_timer(t);
        }
        self.attempts = 0;
    }

    /// Feeds a message from `from`.
    fn on_message(&mut self, from: ActorId, msg: &DynMsg<V>, ctx: &mut Context<'_, DynMsg<V>>) {
        let i = from.index();
        if i >= self.cfg.n {
            // Servers are actors 0..n, and only a server's reply concerns
            // a client: another client's message owns no slot here.
            return;
        }
        // It spoke: no longer a suspect, whatever it said.
        if let Some(t) = self.select.on_reply(i) {
            ctx.cancel_timer(t);
        }
        let (op, obj, changes, accepted, reg) = match msg {
            DynMsg::RAck {
                op,
                obj,
                reg,
                changes,
                accepted,
            } => (*op, *obj, changes, *accepted, Some(reg)),
            DynMsg::WAck {
                op,
                obj,
                changes,
                accepted,
            } => (*op, *obj, changes, *accepted, None),
            _ => return,
        };
        // A reply counts only toward the phase of the attempt it answers.
        let Some(f) = &self.op else { return };
        if (op, obj) != (f.op, f.obj) || reg.is_some() != matches!(f.stage, Stage::One) {
            return;
        }
        if !accepted && self.options.restart_on_stale {
            // Two kinds of mismatch. If the server's reference taught us
            // changes we lacked, restart the operation (Algorithm 5 lines
            // 14–16 / 30–32). If instead the server is *behind* us (e.g.
            // frozen mid-refresh) — the reference added nothing —
            // restarting teaches us nothing and livelocks; re-poll just
            // that server with the same request. The re-poll presents our
            // (possibly unchanged) digest again; a server whose delta
            // failed to resolve degrades its next reply to `Full`, keeping
            // the exchange bounded.
            let learned = self.changes.apply_ref(changes).learned();
            self.maybe_compact();
            if learned {
                self.op.as_mut().expect("checked above").restarts += 1;
                self.attempt(ctx);
            } else {
                ctx.send(from, self.request());
            }
            return;
        }
        match reg {
            Some(reg) => self.phase1_reply(i, reg, ctx),
            None => self.phase2_ack(i, ctx),
        }
    }

    /// Counts server `i`'s accepted `RAck`; on a quorum, completes a read
    /// on the fast path or moves to phase 2.
    fn phase1_reply(&mut self, i: usize, reg: &TaggedValue<V>, ctx: &mut Context<'_, DynMsg<V>>) {
        let f = self.op.as_mut().expect("an operation in flight");
        if self.replies[i].replace(reg.clone()).is_none() {
            // First reply from this server: O(1) accumulator update
            // (re-polled servers replace their register but count their
            // weight once).
            f.weight += self.changes.server_weight(ServerId(i as u32));
        }
        if f.weight <= self.cfg.quorum_threshold() {
            return;
        }
        let fast_path = f.write_value.is_none() && self.options.read == ReadMode::FastPath;
        self.select.on_quorum(ctx.now());
        let maxreg = self
            .replies
            .iter()
            .flatten()
            .max_by_key(|r| r.tag)
            .expect("nonempty")
            .clone();
        // The weighted fast path: the repliers already storing the max
        // tag, and their cumulative weight under the same frozen `C` the
        // phase accumulated against. Every counted replier *accepted*
        // under that `C`, which is what makes these the replier-consistent
        // weights the rule requires. They are marked straight into the
        // phase-2 ack slots.
        self.acks.fill(false);
        let mut fresh_weight = Ratio::ZERO;
        if fast_path {
            for (i, r) in self.replies.iter().enumerate() {
                if r.as_ref().is_some_and(|r| r.tag == maxreg.tag) {
                    self.acks[i] = true;
                    fresh_weight += self.changes.server_weight(ServerId(i as u32));
                }
            }
            #[allow(unused_mut)]
            let mut fast =
                awr_quorum::fast_path_read_quorum(fresh_weight, self.cfg.initial_total());
            #[cfg(feature = "mutate")]
            {
                use awr_sim::mutate::{armed, Mutation};
                if armed(Mutation::DisarmFastPathWeightCheck) {
                    fast = true;
                }
            }
            if fast {
                // One phase suffices: the max-tag repliers form a quorum
                // that already stores the value, so the write-back would
                // change no server state — their phase-1 acks double as its
                // acks.
                self.complete(OpKind::Read(maxreg.value), ctx);
                ctx.record_counter("read_fastpath_hit", 1);
                return;
            }
            ctx.record_counter("read_fastpath_miss", 1);
        }
        let f = self.op.as_mut().expect("an operation in flight");
        let chosen = match &f.write_value {
            None => maxreg,
            Some(v) => TaggedValue::new(Tag::new(maxreg.tag.ts + 1, self.id), v.clone()),
        };
        f.stage = Stage::Two { chosen };
        f.weight = fresh_weight;
        // Targeted write-back: fresh repliers already store `chosen` and
        // accepted under this `C`, so they count as acks without being
        // re-contacted (their phase-1 ack is what a zero-delay `W` round
        // trip would have produced) and `W` goes only to the stale
        // repliers, whose weight tops the quorum up — fresh + stale is
        // exactly the phase-1 quorum. With an empty `fresh` (reads under
        // TwoPhase, every write) every replier is stale: while the attempt
        // is still targeted those are the targets — the greedy quorum is
        // minimal, so it took all of them to get here — and `W` goes to
        // them; an attempt that asked everyone (a client's first, a
        // widened one) keeps the paper's full broadcast.
        let (replies, fresh) = (&self.replies, &self.acks);
        let everyone = !self.select.targeted() && !fresh.contains(&true);
        let fan = self.send_phase2(ctx, |i| everyone || (replies[i].is_some() && !fresh[i]));
        if fast_path {
            ctx.record_sample("read_writeback_fanout", fan);
        }
        if self.select.targeted() {
            ctx.record_counter("phase2_targeted", 1);
            ctx.record_sample("phase2_fanout", fan);
        }
        #[cfg(feature = "mutate")]
        if !everyone && awr_sim::mutate::armed(awr_sim::mutate::Mutation::CountPhase2TargetsAsAcked)
        {
            // MUTATION: the servers `W` was just sent to count as having
            // acked it — the first `W_A` then completes a write that one
            // server stores.
            let f = self.op.as_mut().expect("an operation in flight");
            for i in 0..self.cfg.n {
                if self.replies[i].is_some() && !self.acks[i] {
                    self.acks[i] = true;
                    f.weight += self.changes.server_weight(ServerId(i as u32));
                }
            }
        }
    }

    /// Counts server `i`'s accepted `WAck`; on a quorum, completes.
    fn phase2_ack(&mut self, i: usize, ctx: &mut Context<'_, DynMsg<V>>) {
        let f = self.op.as_mut().expect("an operation in flight");
        if !std::mem::replace(&mut self.acks[i], true) {
            f.weight += self.changes.server_weight(ServerId(i as u32));
        }
        if f.weight <= self.cfg.quorum_threshold() {
            return;
        }
        let Stage::Two { chosen } = &f.stage else {
            unreachable!("acks count in phase 2 only");
        };
        let kind = match f.write_value.take() {
            None => OpKind::Read(chosen.value.clone()),
            Some(v) => OpKind::Write(v),
        };
        self.complete(kind, ctx);
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
            driver: DynOpDriver::new(id, cfg, options),
        }
    }

    /// Begins a read of the [default object](ObjectId::DEFAULT).
    ///
    /// # Panics
    ///
    /// Panics if an operation is in flight.
    pub fn begin_read(&mut self, ctx: &mut Context<'_, DynMsg<V>>) {
        self.driver.begin_obj(ObjectId::DEFAULT, None, ctx);
    }

    /// Begins a write to the [default object](ObjectId::DEFAULT).
    ///
    /// # Panics
    ///
    /// Panics if an operation is in flight.
    pub fn begin_write(&mut self, v: V, ctx: &mut Context<'_, DynMsg<V>>) {
        self.driver.begin_obj(ObjectId::DEFAULT, Some(v), ctx);
    }

    /// Begins a read of `obj`.
    ///
    /// # Panics
    ///
    /// Panics if an operation is in flight.
    pub fn begin_read_obj(&mut self, obj: ObjectId, ctx: &mut Context<'_, DynMsg<V>>) {
        self.driver.begin_obj(obj, None, ctx);
    }

    /// Begins a write of `v` to `obj`.
    ///
    /// # Panics
    ///
    /// Panics if an operation is in flight.
    pub fn begin_write_obj(&mut self, obj: ObjectId, v: V, ctx: &mut Context<'_, DynMsg<V>>) {
        self.driver.begin_obj(obj, Some(v), ctx);
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
        self.driver.on_message(from, &msg, ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, DynMsg<V>>) {
        self.driver.on_timer(tag, ctx);
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
