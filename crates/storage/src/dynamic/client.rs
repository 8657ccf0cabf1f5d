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
    /// Number of servers `n`.
    n: usize,
    /// `W_{S,0}` and the quorum threshold `W_{S,0}/2`, fixed for the
    /// deployment: computed once here, compared against on every reply.
    total: Ratio,
    threshold: Ratio,
    options: DynOptions,
    /// The process's current set of completed changes `C`.
    pub changes: ChangeSet,
    op_cnt: u64,
    op: Option<InFlight<V>>,
    /// Phase-1 replies of the operation in flight, one slot per server
    /// (index = [`ServerId`]). The slots live on the driver and are
    /// cleared when an attempt begins, so an operation allocates nothing
    /// for them; meaningful only in [`Stage::One`]. A slot holds the
    /// newest register its server answered with, its value elided (`None`
    /// above the bottom tag) when only tag queries were answered.
    replies: Vec<Option<TaggedValue<V>>>,
    /// One flag per server: this attempt's phase 1 asks it for the whole
    /// register (`RV`) rather than the tag alone (`R`). Set before a
    /// request is sent, and never cleared within the attempt, so a re-poll
    /// repeats the request the server was sent.
    valued: Vec<bool>,
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
    /// The digest of the `C` that [`DynOpDriver::holds`] speaks for: a
    /// change of `C` voids every flag at once.
    proof: u64,
    /// The first operation number sent under that `C`: an accept of this
    /// attempt or a later one is an accept of `C`.
    proof_from: u64,
    /// One flag per server: it is known to hold exactly the `C` that
    /// digests to [`DynOpDriver::proof`], so `C`'s length alone names it
    /// there (see [`CsRef::length_only`]). Set by an accept of an attempt
    /// sent under `C`, cleared by any reject.
    holds: Vec<bool>,
}

impl<V: Value> DynOpDriver<V> {
    /// Creates a driver whose initial `C` is the conventional initial set.
    fn new(id: ProcessId, cfg: RpConfig, options: DynOptions) -> Self {
        let changes = ChangeSet::from_initial_weights(&cfg.initial_weights);
        DynOpDriver {
            // Every server starts from the same initial set.
            proof: changes.digest(),
            proof_from: 0,
            holds: vec![true; cfg.n],
            changes,
            id,
            select: QuorumSelector::new(options.fanout, options.retry, &cfg),
            options,
            op_cnt: 0,
            op: None,
            replies: vec![None; cfg.n],
            valued: vec![false; cfg.n],
            acks: vec![false; cfg.n],
            completed: Vec::new(),
            retry_timer: None,
            attempts: 0,
            n: cfg.n,
            total: cfg.initial_total(),
            threshold: cfg.quorum_threshold(),
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
        for i in 0..self.n {
            self.proven(i).hash(&mut h);
        }
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
                        self.valued.hash(&mut h);
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
    /// operation number, phase 1 from scratch sent to whom the selector
    /// names (everyone if it names nobody), and the rebroadcast timer
    /// armed, which stays armed through the attempt's phase 2. A write
    /// restarted from phase 2 re-runs phase 1 with its original value; a
    /// read discards the register it had chosen.
    ///
    /// Phase 1 asks for values only where they are used. A write reads
    /// only the max tag: it sends every server the tag query `R`. A read
    /// returns one max-tag register: a targeted read asks its first target
    /// for the register (`RV`) and the rest for tags — the greedy quorum is
    /// minimal, so that reply is in before the quorum is — and a read that
    /// asks everyone asks everyone for the register, so its liveness is
    /// the paper's. Under [`WireMode::ForceFull`] every request is `RV`.
    fn attempt(&mut self, ctx: &mut Context<'_, DynMsg<V>>) {
        self.op_cnt += 1;
        let digest = self.changes.digest();
        if self.proof != digest {
            self.proof = digest;
            self.proof_from = self.op_cnt;
            self.holds.fill(false);
        }
        let f = self.op.as_mut().expect("an operation in flight");
        f.op = self.op_cnt;
        f.weight = Ratio::ZERO;
        f.stage = Stage::One;
        self.replies.fill(None);
        self.attempts = 0;
        let read = f.write_value.is_none();
        let paper = self.options.wire == WireMode::ForceFull;
        let fanout = self.select.begin(ctx.now(), &self.changes).len();
        if fanout == 0 {
            self.valued.fill(read || paper);
            self.send_request(ctx, 0..self.n);
        } else {
            ctx.record_counter("phase1_targeted", 1);
            ctx.record_sample("phase1_fanout", fanout as u64);
            let asked = self.select.asked();
            self.valued.fill(paper);
            self.valued[asked[0].index()] |= read;
            let targets = asked.iter().map(|s| s.index());
            self.send_request(ctx, targets);
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
            // Same op number, to every server whose reply is not in yet. A
            // read stops counting tag-only replies here: it asks everyone
            // it re-sends to for the register, so that, as in the paper,
            // any quorum of live servers completes it — none waits on the
            // value of one server that answered with a tag.
            let f = self.op.as_mut().expect("an operation in flight");
            let read = f.write_value.is_none();
            for (i, r) in self.replies.iter_mut().enumerate() {
                if read && r.as_ref().is_some_and(|r| !holds_value(r)) {
                    *r = None;
                    f.weight -= self.changes.server_weight(ServerId(i as u32));
                }
                self.valued[i] |= read && r.is_none();
            }
            let replies = &self.replies;
            self.send_request(ctx, (0..self.n).filter(|&i| replies[i].is_none()));
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

    /// Whether server `i` is known to hold exactly `C`: it accepted `C`
    /// and has rejected nothing since. A server's set only grows, so while
    /// its length is `C`'s it holds `C`.
    fn proven(&self, i: usize) -> bool {
        self.holds[i] && self.proof == self.changes.digest()
    }

    /// The request of the phase in flight: `R` (or `RV` where `valued`),
    /// or `W` with the chosen register. Under [`WireMode::Negotiate`] the
    /// attached reference is O(1) — the server only needs to *compare* —
    /// and `named` picks its form: `C`'s length alone for a server proven
    /// to hold `C`, its summary otherwise. [`WireMode::ForceFull`]
    /// attaches the whole set.
    fn request(&self, named: bool, valued: bool) -> DynMsg<V> {
        let f = self.op.as_ref().expect("an operation in flight");
        let changes = match self.options.wire {
            WireMode::Negotiate if named => CsRef::length_only(self.changes.len()),
            WireMode::Negotiate => CsRef::summary(&self.changes),
            // Attaching `C` is a reference-count bump: the n messages of a
            // round share one copy-on-write storage.
            WireMode::ForceFull => CsRef::Full(self.changes.clone()),
        };
        match &f.stage {
            Stage::One if valued => DynMsg::RV {
                op: f.op,
                obj: f.obj,
                changes,
            },
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

    /// Sends the request of the phase in flight to each server of `to`,
    /// in order, with `C` named by its length to the servers proven to
    /// hold it and by its summary to the rest, and in phase 1 as `RV` to
    /// the servers [`DynOpDriver::valued`] marks; returns how many were
    /// sent. Each form of the request is built once.
    fn send_request(
        &self,
        ctx: &mut Context<'_, DynMsg<V>>,
        to: impl IntoIterator<Item = usize>,
    ) -> u64 {
        let mut requests: [Option<DynMsg<V>>; 4] = [None, None, None, None];
        let phase1 = self
            .op
            .as_ref()
            .is_some_and(|f| matches!(f.stage, Stage::One));
        let mut sent = 0;
        for i in to {
            let named = self.proven(i);
            #[cfg(feature = "mutate")]
            // MUTATION: every server is named `C` by its length — one
            // holding another set of that length accepts.
            let named =
                named || awr_sim::mutate::armed(awr_sim::mutate::Mutation::UnprovenLengthRef);
            let valued = phase1 && self.valued[i];
            let form = usize::from(named) + 2 * usize::from(valued);
            let msg = requests[form].get_or_insert_with(|| self.request(named, valued));
            ctx.send(ActorId(i), msg.clone());
            sent += 1;
        }
        sent
    }

    /// Sends phase 2's `W` to every server `to` keeps; returns how many.
    fn send_phase2(&self, ctx: &mut Context<'_, DynMsg<V>>, to: impl Fn(usize) -> bool) -> u64 {
        self.send_request(ctx, (0..self.n).filter(|&i| to(i)))
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
        if i >= self.n {
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
        // Whatever it rejected, the server is not known to hold `C`; an
        // accept of a request that carried `C` proves it held `C`, late
        // or not.
        self.holds[i] = accepted && (self.holds[i] || op >= self.proof_from);
        // A reply counts only toward the phase of the attempt it answers.
        let Some(f) = &self.op else { return };
        if (op, obj) != (f.op, f.obj) || reg.is_some() != matches!(f.stage, Stage::One) {
            return;
        }
        let stale = !accepted;
        #[cfg(feature = "mutate")]
        // MUTATION: a rejecting reply counts as an accept — the client keeps
        // judging quorums under its stale `C`.
        let stale = stale && !awr_sim::mutate::armed(awr_sim::mutate::Mutation::SkipRestartOnStale);
        if stale {
            // Two kinds of mismatch. If the server's reference taught us
            // changes we lacked, restart the operation (Algorithm 5 lines
            // 14–16 / 30–32). If instead the server is *behind* us — the
            // reference added nothing — restarting teaches us nothing and
            // livelocks; re-poll just that server with the same request.
            // A server behind us with a refresh in flight holds the
            // request and answers it when the refresh lands, so a re-poll
            // happens only when no refresh is in flight there. The re-poll
            // presents our (possibly unchanged) digest again; a server
            // whose delta failed to resolve degrades its next reply to
            // `Full`, keeping the exchange bounded. An accept's reference
            // is never read: servers send [`CsRef::NONE`] on one.
            let learned = self.changes.apply_ref(changes).learned();
            self.maybe_compact();
            if learned {
                self.op.as_mut().expect("checked above").restarts += 1;
                self.attempt(ctx);
            } else {
                ctx.record_counter("repolled_behind", 1);
                self.send_request(ctx, [i]);
            }
            return;
        }
        match reg {
            Some(reg) => self.phase1_reply(i, reg, ctx),
            None => self.phase2_ack(i, ctx),
        }
    }

    /// Counts server `i`'s accepted `RAck`; on a quorum, completes a read
    /// on the fast path or moves to phase 2. A read needs, besides, one
    /// counted reply at the max tag that carries its value; when only tag
    /// queries were answered at that tag, the max-tag repliers are asked
    /// for the register under the same operation number, and phase 1 goes
    /// on when the first answers.
    fn phase1_reply(&mut self, i: usize, reg: &TaggedValue<V>, ctx: &mut Context<'_, DynMsg<V>>) {
        let f = self.op.as_mut().expect("an operation in flight");
        let read = f.write_value.is_none();
        if read && !holds_value(reg) && !self.select.targeted() {
            // An answer to a tag query of the attempt before its widen:
            // once widened, a read counts registers only (see `on_timer`).
            return;
        }
        match &mut self.replies[i] {
            // First reply from this server: O(1) accumulator update.
            slot @ None => {
                *slot = Some(reg.clone());
                f.weight += self.changes.server_weight(ServerId(i as u32));
            }
            // A server answering again (a re-poll, a rebroadcast, a value
            // re-ask) counts its weight once, and keeps the newest register
            // it answered with — its value, at an equal tag.
            Some(old) => {
                if reg.tag > old.tag || (reg.tag == old.tag && old.value.is_none()) {
                    *old = reg.clone();
                }
            }
        }
        if f.weight <= self.threshold {
            return;
        }
        let fast_path = read && self.options.read == ReadMode::FastPath;
        self.select.on_quorum(ctx.now());
        // The max-tag reply: one that holds its value, where one does.
        let best = self
            .replies
            .iter()
            .flatten()
            .reduce(|a, b| {
                let valued = holds_value(b) && !holds_value(a);
                if b.tag > a.tag || (b.tag == a.tag && valued) {
                    b
                } else {
                    a
                }
            })
            .expect("nonempty");
        let max = best.tag;
        #[allow(unused_mut)]
        let mut maxreg = (!read || holds_value(best)).then_some(best);
        #[cfg(feature = "mutate")]
        if maxreg.is_none() && awr_sim::mutate::armed(awr_sim::mutate::Mutation::StaleValueTarget) {
            // MUTATION: the read settles for the newest register it was
            // sent — the `RV` target's — though a tag query named a newer
            // tag.
            maxreg = self
                .replies
                .iter()
                .flatten()
                .filter(|r| holds_value(r))
                .max_by_key(|r| r.tag);
        }
        let Some(maxreg) = maxreg.cloned() else {
            let to: Vec<usize> = (0..self.n)
                .filter(|&j| {
                    !self.valued[j] && self.replies[j].as_ref().is_some_and(|r| r.tag == max)
                })
                .collect();
            if !to.is_empty() {
                ctx.record_counter("read_value_reasked", 1);
                for &j in &to {
                    self.valued[j] = true;
                }
                self.send_request(ctx, to);
            }
            return;
        };
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
            let mut fast = awr_quorum::fast_path_read_quorum(fresh_weight, self.total);
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
            for i in 0..self.n {
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
        if f.weight <= self.threshold {
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

/// Whether a phase-1 reply holds its register's value: it answered an
/// `RV`, or it is the bottom register, whose value is ⊥ either way.
fn holds_value<V>(r: &TaggedValue<V>) -> bool {
    r.value.is_some() || r.tag == Tag::bottom()
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

/// Whom phase 1 asks for the register's value (`RV`) and whom for its tag
/// alone (`R`): one test per rule of [`DynOpDriver::attempt`], the re-ask
/// of [`DynOpDriver::phase1_reply`] and the widen of `on_timer`.
#[cfg(test)]
mod tests {
    use awr_core::RpConfig;
    use awr_sim::{Metrics, TargetedDelay, Time, TraceKind, UniformLatency, World, SECOND};
    use awr_types::{ClientId, ProcessId, ServerId};

    use super::*;
    use crate::dynamic::{DynServer, Fanout};
    use crate::harness::StorageHarness;

    /// Three uniform servers and one default-option client that has a
    /// write behind it, so that its next attempt is targeted at {s0, s1}.
    fn warmed() -> StorageHarness<u64> {
        let mut h = StorageHarness::build(
            RpConfig::uniform(3, 1),
            1,
            11,
            UniformLatency::new(1_000, 20_000),
            DynOptions::default(),
        );
        h.write(0, 7).unwrap();
        h
    }

    /// `(R, RV)` sent since `before`.
    fn asked(h: &StorageHarness<u64>, before: &Metrics) -> (u64, u64) {
        let m = h.world.metrics().since(before);
        (m.sent_of_kind("R"), m.sent_of_kind("RV"))
    }

    #[test]
    fn a_write_asks_for_tags_only() {
        let mut h = warmed();
        // The warm-up write asked everyone, for tags.
        assert_eq!(asked(&h, &Metrics::default()), (3, 0));
        let before = h.world.metrics().clone();
        h.write(0, 8).unwrap();
        assert_eq!(asked(&h, &before), (2, 0));
        assert_eq!(h.world.metrics().counter("phase1_targeted"), 1);
    }

    #[test]
    fn a_targeted_read_asks_its_first_target_for_the_register() {
        let mut h = warmed();
        h.world.enable_trace(1 << 10);
        assert_eq!(h.read(0).unwrap().0, Some(7));
        let client = h.client_actor(0);
        let trace = h.world.trace().expect("tracing");
        let mut asked: Vec<(&str, usize)> = trace
            .records()
            .filter_map(|r| match r.kind {
                TraceKind::Deliver {
                    from,
                    to,
                    kind: kind @ ("R" | "RV"),
                    ..
                } if from == client => Some((kind, to.index())),
                _ => None,
            })
            .collect();
        asked.sort_unstable();
        // The quorum is {s0, s1}, heaviest first with ties by id.
        assert_eq!(asked, [("R", 1), ("RV", 0)]);
    }

    #[test]
    fn a_read_that_asks_everyone_asks_everyone_for_the_register() {
        // A client's first attempt has no deadline to widen on.
        let mut h = StorageHarness::<u64>::build(
            RpConfig::uniform(3, 1),
            1,
            11,
            UniformLatency::new(1_000, 20_000),
            DynOptions::default(),
        );
        assert_eq!(h.read(0).unwrap().0, None);
        assert_eq!(asked(&h, &Metrics::default()), (0, 3));
        // The paper's fanout, on every attempt; and under `ForceFull` the
        // paper's messages, writes included.
        for (fanout, wire, rv) in [
            (Fanout::All, WireMode::Negotiate, (3, 3 + 3)),
            (Fanout::Quorum, WireMode::ForceFull, (0, 3 + 2 + 2)),
        ] {
            let options = DynOptions {
                fanout,
                wire,
                ..DynOptions::default()
            };
            let cfg = RpConfig::uniform(3, 1);
            let lat = UniformLatency::new(1_000, 20_000);
            let mut h = StorageHarness::<u64>::build(cfg, 1, 11, lat, options);
            h.write(0, 7).unwrap();
            h.read(0).unwrap();
            h.read(0).unwrap();
            assert_eq!(asked(&h, &Metrics::default()), rv, "{fanout:?} {wire:?}");
        }
    }

    #[test]
    fn a_widened_read_asks_every_server_without_a_register_for_it() {
        let mut h = warmed();
        let before = h.world.metrics().clone();
        // s1, asked for its tag, dies with the request unread; s0 answers
        // with the register. The widen asks s1 and s2 for theirs.
        h.begin_async(0, None);
        h.crash_server(ServerId(1));
        let client = h.client_actor(0);
        h.world
            .run_until(|w| !w.actor::<DynClient<u64>>(client).unwrap().driver.is_busy());
        assert_eq!(h.history().ops.last().unwrap().kind, OpKind::Read(Some(7)));
        let m = h.world.metrics().since(&before);
        assert_eq!(m.counter("phase1_widened"), 1);
        assert_eq!(asked(&h, &before), (1, 1 + 2));
    }

    /// The writer cannot reach s0, so its write completes on {s1, s2}
    /// with s0 at bottom; the reader's targeted read then asks s0 for the
    /// register and s1 for its tag.
    fn behind_value_target() -> StorageHarness<u64> {
        let writer = ActorId(4);
        let d = TargetedDelay::new(
            UniformLatency::new(1_000, 10_000),
            move |f, t| f == writer && t == ActorId(0),
            Time(600 * SECOND),
        );
        let mut h = StorageHarness::build(RpConfig::uniform(3, 1), 2, 44, d, DynOptions::default());
        assert_eq!(h.read(0).unwrap().0, None);
        h.write(1, 1).unwrap();
        h
    }

    #[test]
    fn a_behind_value_target_costs_one_re_ask_of_the_max_tag() {
        let mut h = behind_value_target();
        let before = h.world.metrics().clone();
        assert_eq!(h.read(0).unwrap().0, Some(1));
        let m = h.world.metrics().since(&before);
        assert_eq!(m.counter("read_value_reasked"), 1);
        // The tag query to s1, the register from s0, then s1's register.
        assert_eq!(asked(&h, &before), (1, 2));
        let s1 = h.server_actor(ServerId(1));
        assert_eq!(m.msgs_on_link(h.client_actor(0), s1), 2);
        // The max tag's one replier is no quorum: s0 is written back.
        assert_eq!(m.counter("read_fastpath_miss"), 1);
    }

    /// A driver's digest tells apart whom its phase 1 asked for values.
    #[test]
    fn whom_a_read_asked_for_values_is_in_the_state_digest() {
        let cfg = RpConfig::uniform(3, 1);
        let reading = || {
            let mut w = World::new(1, UniformLatency::new(1_000, 2_000));
            for s in cfg.servers() {
                w.add_actor(DynServer::<u64>::new(cfg.clone(), s, DynOptions::default()));
            }
            let id = ProcessId::Client(ClientId(0));
            let c = w.add_actor(DynClient::<u64>::new(
                id,
                cfg.clone(),
                DynOptions::default(),
            ));
            w.with_actor_ctx(c, |c: &mut DynClient<u64>, ctx| c.begin_read(ctx));
            (w, c)
        };
        let digest =
            |w: &World<DynMsg<u64>>, c| w.actor::<DynClient<u64>>(c).unwrap().state_digest();
        let (mut w, c) = reading();
        let (twin, _) = reading();
        assert_eq!(digest(&w, c), digest(&twin, c));
        w.actor_mut::<DynClient<u64>>(c).unwrap().driver.valued[1] = false;
        assert_ne!(digest(&w, c), digest(&twin, c));
    }
}
