//! The deterministic discrete-event world.
//!
//! [`World`] owns the actors, the event queue, the network model, and a
//! seeded RNG. Every run with the same seed, actors, and network model
//! replays the exact same schedule — the property all experiment harnesses
//! and failure-injection tests rely on.
//!
//! The queue holds keys, not events: each pending event's payload is
//! parked in a slot of `Park` when the event is scheduled, and the
//! scheduler orders only `(at, seq, slot)` — 24 bytes, where an event
//! carrying a protocol message is several times that — so the timing
//! wheel's pushes, cascades, slot sorts and pops move keys while the
//! payload stays put until its event runs.
//!
//! A parked event is at most 128 bytes when the message is at most 96
//! (the size of `DynMsg<u64>`): a delivery stores its endpoints and byte
//! count as `u32`, so parking it and taking it back are inline moves, not
//! `memcpy` calls.
//!
//! Whether a timer is still armed is read off its owner's list of pending
//! timer ids (`Armed`): setting a timer pushes its id, cancelling removes
//! the id if it is still there (a cancel after the timer fired changes
//! nothing), and a timer's event fires only if it finds — and removes —
//! its id. A cancelled timer's event still pops, as a no-op. An actor has
//! a few timers pending at a time, so its list is a short scan of ids
//! stored in `World`'s per-actor row itself, not a hash probe or a
//! pointer to chase.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::actor::{Actor, ActorId, Context, Effect, Message, TimerId};
use crate::metrics::Metrics;
use crate::network::NetworkModel;
use crate::sched::{build_scheduler, Scheduler, SchedulerKind};
use crate::time::{Nanos, Time};
use crate::trace::{Trace, TraceKind};

/// Timer ids an [`Armed`] row holds without a heap allocation.
const ARMED_INLINE: usize = 4;

/// The timers one actor has armed that have neither fired nor been
/// cancelled, in no order: the first [`ARMED_INLINE`] inline, the rest
/// spilled to the heap.
#[derive(Clone, Debug)]
struct Armed {
    /// How many of `inline` hold ids; `spill` is empty unless it is full.
    len: usize,
    inline: [TimerId; ARMED_INLINE],
    spill: Vec<TimerId>,
}

impl Default for Armed {
    fn default() -> Armed {
        Armed {
            len: 0,
            inline: [TimerId(0); ARMED_INLINE],
            spill: Vec::new(),
        }
    }
}

impl Armed {
    fn arm(&mut self, id: TimerId) {
        if self.len < ARMED_INLINE {
            self.inline[self.len] = id;
            self.len += 1;
        } else {
            self.spill.push(id);
        }
    }

    /// Removes `id`; returns whether it was armed.
    fn disarm(&mut self, id: TimerId) -> bool {
        if let Some(i) = self.inline[..self.len].iter().position(|&t| t == id) {
            self.len -= 1;
            self.inline[i] = self.inline[self.len];
            if let Some(t) = self.spill.pop() {
                self.inline[self.len] = t;
                self.len += 1;
            }
            return true;
        }
        match self.spill.iter().position(|&t| t == id) {
            Some(i) => {
                self.spill.swap_remove(i);
                true
            }
            None => false,
        }
    }

    fn contains(&self, id: TimerId) -> bool {
        self.inline[..self.len].contains(&id) || self.spill.contains(&id)
    }

    /// The armed ids, sorted (tests).
    #[cfg(test)]
    fn ids(&self) -> Vec<TimerId> {
        let mut ids: Vec<TimerId> = self.inline[..self.len].to_vec();
        ids.extend_from_slice(&self.spill);
        ids.sort_unstable();
        ids
    }
}

/// A scheduled occurrence. A delivery's `u32` fields keep it within
/// 128 bytes (see the module docs; `a_parked_delivery_fits_in_128_bytes`
/// pins it).
enum EventKind<M> {
    Start(ActorId),
    Deliver {
        /// Sender's [`ActorId`] index.
        from: u32,
        /// Receiver's [`ActorId`] index.
        to: u32,
        /// The message's [`Message::wire_size`], as charged at the send.
        bytes: u32,
        msg: M,
        /// Transmission + queueing component of the delivery delay.
        tx: Nanos,
        /// Propagation component of the delivery delay.
        prop: Nanos,
    },
    Timer {
        actor: ActorId,
        id: TimerId,
        tag: u64,
    },
    Crash(ActorId),
    Restart {
        actor: ActorId,
        /// Runs at restart time — typically recovering state from a
        /// durable store shared with the dead actor.
        builder: Box<dyn FnOnce() -> Box<dyn Actor<Msg = M>>>,
    },
}

/// An [`ActorId`] as a parked delivery stores it.
fn narrow(a: ActorId) -> u32 {
    u32::try_from(a.index()).expect("under 2^32 actors")
}

/// The [`ActorId`] a parked delivery names.
fn widen(a: u32) -> ActorId {
    ActorId(a as usize)
}

/// The pending events' payloads, one slot each, with a free list: a slot
/// is taken when its event runs and reused by the next event scheduled,
/// so the park grows only to the peak number of pending events.
struct Park<M> {
    slots: Vec<Option<EventKind<M>>>,
    free: Vec<u32>,
}

impl<M> Park<M> {
    fn new() -> Self {
        Park {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Parks `ev`, returning its slot.
    fn put(&mut self, ev: EventKind<M>) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(ev);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("under 2^32 pending events");
                self.slots.push(Some(ev));
                slot
            }
        }
    }

    /// Removes the event parked in `slot`, freeing the slot.
    fn take(&mut self, slot: u32) -> EventKind<M> {
        let ev = self.slots[slot as usize]
            .take()
            .expect("a queued key names a parked event");
        self.free.push(slot);
        ev
    }

    /// The event parked in `slot`.
    fn get(&self, slot: u32) -> &EventKind<M> {
        self.slots[slot as usize]
            .as_ref()
            .expect("a queued key names a parked event")
    }
}

/// A pending event summary exposed by [`World::pending_events`] — the
/// explorer's view of one schedulable choice. `seq` is the handle to hand
/// back to [`World::step_seq`]; within one deterministic replay, sequence
/// numbers are assigned identically, so a recorded `seq` names the same
/// event on every replay of the same prefix.
#[derive(Clone, Debug)]
pub struct PendingEvent {
    /// The event's sequence number (pass to [`World::step_seq`]).
    pub seq: u64,
    /// The virtual time the event-clock scheduler would run it at.
    pub at: Time,
    /// What the event is.
    pub kind: PendingKind,
}

/// The payload-free shape of a pending event.
#[derive(Clone, Debug)]
pub enum PendingKind {
    /// An actor's `on_start` callback.
    Start {
        /// The starting actor.
        actor: ActorId,
    },
    /// A message delivery.
    Deliver {
        /// Sender.
        from: ActorId,
        /// Receiver.
        to: ActorId,
        /// The message's [`Message::kind`] label.
        kind: &'static str,
        /// The message's [`Message::content_digest`], if any.
        digest: Option<u64>,
    },
    /// A pending (uncancelled) timer.
    Timer {
        /// The timer's owner.
        actor: ActorId,
        /// The timer tag passed back to `on_timer`.
        tag: u64,
    },
    /// A scheduled crash.
    Crash {
        /// The actor to crash.
        actor: ActorId,
    },
    /// A scheduled restart.
    Restart {
        /// The actor to rebuild.
        actor: ActorId,
    },
}

/// A deterministic discrete-event simulation of an asynchronous
/// message-passing system.
///
/// # Examples
///
/// ```
/// use awr_sim::{Actor, ActorId, ConstantLatency, Context, Message, World};
///
/// #[derive(Clone, Debug)]
/// struct Ping(u32);
/// impl Message for Ping {}
///
/// /// Forwards a counter around the ring until it reaches 10.
/// struct Node { last: u32 }
/// impl Actor for Node {
///     type Msg = Ping;
///     fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
///         if ctx.id() == ActorId(0) {
///             ctx.send(ActorId(1), Ping(1));
///         }
///     }
///     fn on_message(&mut self, _from: ActorId, msg: Ping, ctx: &mut Context<'_, Ping>) {
///         self.last = msg.0;
///         if msg.0 < 10 {
///             let next = ActorId((ctx.id().index() + 1) % ctx.n_actors());
///             ctx.send(next, Ping(msg.0 + 1));
///         }
///     }
///     fn as_any(&self) -> &dyn std::any::Any { self }
///     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
/// }
///
/// let mut world = World::new(7, ConstantLatency(1_000));
/// world.add_actor(Node { last: 0 });
/// world.add_actor(Node { last: 0 });
/// world.run_to_quiescence();
/// let max = (0..2).map(|i| world.actor::<Node>(ActorId(i)).unwrap().last).max();
/// assert_eq!(max, Some(10));
/// ```
pub struct World<M: Message> {
    time: Time,
    seq: u64,
    /// Orders the pending events by `(at, seq)`; its items are slots of
    /// `park`.
    queue: Box<dyn Scheduler<u32>>,
    /// The pending events' payloads, which stay put while their keys move
    /// through `queue`.
    park: Park<M>,
    scheduler_kind: SchedulerKind,
    actors: Vec<Box<dyn Actor<Msg = M>>>,
    crashed: Vec<bool>,
    /// Dead incarnations displaced by [`World::restart_now`], kept for
    /// post-hoc inspection: an omniscient checker (history auditor,
    /// metrics scraper) must still see what a crashed process had observed,
    /// even though the process itself lost it.
    graveyard: Vec<(ActorId, Box<dyn Actor<Msg = M>>)>,
    started: bool,
    network: Box<dyn NetworkModel>,
    rng: StdRng,
    next_timer: u64,
    /// Per actor, its armed timers (see the module docs).
    timers: Vec<Armed>,
    /// The effect buffer every callback fills and [`World::apply_effects`]
    /// empties: kept here so an event costs no allocation once it has
    /// grown (the discipline of [`crate::NodeHost`]).
    effects: Vec<Effect<M>>,
    metrics: Metrics,
    trace: Option<Trace>,
    /// Hard cap on processed events, a runaway-protocol guard.
    event_limit: u64,
}

impl<M: Message> World<M> {
    /// Creates a world with the given RNG seed and network model. Any
    /// [`crate::LatencyModel`] works directly (infinite bandwidth); wrap it
    /// in [`crate::BandwidthLinks`] to make message sizes shape delivery.
    ///
    /// Events run on the default [`SchedulerKind::TimingWheel`]; the
    /// tie-break contract (ascending `(at, seq)`) makes the schedule
    /// identical under every [`SchedulerKind`], so this is purely a
    /// wall-clock choice — see [`World::new_with_scheduler`].
    pub fn new(seed: u64, network: impl NetworkModel + 'static) -> World<M> {
        Self::new_with_scheduler(seed, network, SchedulerKind::TimingWheel)
    }

    /// [`World::new`] with an explicit event-queue implementation —
    /// `tests/scheduler_equivalence.rs` uses this to pin the timing wheel
    /// against the [`SchedulerKind::BinaryHeap`] reference seed-for-seed.
    pub fn new_with_scheduler(
        seed: u64,
        network: impl NetworkModel + 'static,
        kind: SchedulerKind,
    ) -> World<M> {
        World {
            time: Time::ZERO,
            seq: 0,
            queue: build_scheduler(kind),
            park: Park::new(),
            scheduler_kind: kind,
            actors: Vec::new(),
            crashed: Vec::new(),
            graveyard: Vec::new(),
            started: false,
            network: Box::new(network),
            rng: StdRng::seed_from_u64(seed),
            next_timer: 0,
            timers: Vec::new(),
            effects: Vec::new(),
            metrics: Metrics::default(),
            trace: None,
            event_limit: 50_000_000,
        }
    }

    /// Enables execution tracing with the given ring-buffer capacity.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// The trace, if enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Adds an actor, returning its id. Must be called before the first
    /// [`World::step`].
    ///
    /// # Panics
    ///
    /// Panics if the world has already started running.
    pub fn add_actor(&mut self, actor: impl Actor<Msg = M>) -> ActorId {
        assert!(!self.started, "cannot add actors after the world started");
        let id = ActorId(self.actors.len());
        self.actors.push(Box::new(actor));
        self.crashed.push(false);
        self.timers.push(Armed::default());
        self.push_event(Time::ZERO, EventKind::Start(id));
        id
    }

    /// Number of actors.
    pub fn n_actors(&self) -> usize {
        self.actors.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.time
    }

    /// Run metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Overrides the runaway-event guard (default 50 M events).
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// The event-queue implementation this world runs on.
    pub fn scheduler_kind(&self) -> SchedulerKind {
        self.scheduler_kind
    }

    /// Swaps the event-queue implementation, migrating every pending
    /// event's key (sequence numbers preserved; payloads stay parked).
    /// Because all schedulers honor the same `(at, seq)` total order, this
    /// changes nothing about the schedule — harnesses built on [`World::new`] use it to rerun a
    /// scenario on the [`SchedulerKind::BinaryHeap`] reference.
    pub fn set_scheduler(&mut self, kind: SchedulerKind) {
        if kind == self.scheduler_kind {
            return;
        }
        let mut fresh = build_scheduler(kind);
        while let Some((at, seq, slot)) = self.queue.pop() {
            fresh.push(at, seq, slot);
        }
        self.queue = fresh;
        self.scheduler_kind = kind;
    }

    /// Schedules actor `a` to crash at virtual time `at`. Crashed actors
    /// receive no further callbacks; in-flight messages to them are dropped
    /// on delivery (equivalent, in the crash model, to never processing
    /// them).
    pub fn schedule_crash(&mut self, a: ActorId, at: Time) {
        self.push_event(at, EventKind::Crash(a));
    }

    /// Crashes actor `a` immediately.
    pub fn crash_now(&mut self, a: ActorId) {
        self.crashed[a.index()] = true;
    }

    /// Returns `true` if `a` has crashed.
    pub fn is_crashed(&self, a: ActorId) -> bool {
        self.crashed[a.index()]
    }

    /// Schedules actor `a` to be rebuilt and rebooted at virtual time
    /// `at`. The `builder` runs at the restart instant — typically
    /// recovering state from a durable store it shares with the dead
    /// actor — and the rebuilt actor replaces the old one, clears the
    /// crashed flag, and gets an `on_start` callback. Everything sent to
    /// the actor while it was down stays dropped: a restart resumes from
    /// what the builder reconstructs, never from lost in-flight messages.
    pub fn schedule_restart(
        &mut self,
        a: ActorId,
        at: Time,
        builder: impl FnOnce() -> Box<dyn Actor<Msg = M>> + 'static,
    ) {
        self.push_event(
            at,
            EventKind::Restart {
                actor: a,
                builder: Box::new(builder),
            },
        );
    }

    /// Replaces actor `a` with `actor` immediately, clearing its crashed
    /// flag and running `on_start` at the current virtual time — the
    /// harness-driven form of [`World::schedule_restart`].
    pub fn restart_now(&mut self, a: ActorId, actor: Box<dyn Actor<Msg = M>>) {
        let corpse = std::mem::replace(&mut self.actors[a.index()], actor);
        self.graveyard.push((a, corpse));
        self.crashed[a.index()] = false;
        self.metrics.restarts += 1;
        if let Some(t) = self.trace.as_mut() {
            t.record(self.time, TraceKind::Restart { actor: a });
        }
        self.dispatch(a, |actor, ctx| actor.on_start(ctx));
    }

    /// Injects a message from `from` to `to` as if `from` had sent it now.
    /// Useful for harness-driven stimuli.
    pub fn inject(&mut self, from: ActorId, to: ActorId, msg: M) {
        let bytes = msg.wire_size();
        self.send_message(from, to, msg, bytes);
    }

    /// Puts `msg`, charged `bytes`, on the network.
    fn send_message(&mut self, from: ActorId, to: ActorId, msg: M, bytes: usize) {
        let d = self
            .network
            .delivery(from, to, self.time, bytes, &mut self.rng);
        let tx = d.queued.saturating_add(d.transmission);
        self.metrics.record_send(msg.kind(), bytes, from, to, d);
        if let Some(obj) = msg.object_key() {
            self.metrics.record_object(obj, bytes);
        }
        self.push_event(
            self.time + d.total(),
            EventKind::Deliver {
                from: narrow(from),
                to: narrow(to),
                bytes: u32::try_from(bytes).expect("a message under 4 GiB"),
                msg,
                tx,
                prop: d.propagation,
            },
        );
    }

    /// Immutable typed access to an actor's state (post-run inspection).
    pub fn actor<T: Actor<Msg = M>>(&self, id: ActorId) -> Option<&T> {
        self.actors.get(id.index())?.as_any().downcast_ref::<T>()
    }

    /// Typed access to the dead incarnations of actor `id`: every actor
    /// value a restart displaced, in displacement order. A crashed process
    /// forgets, but the simulation's omniscient observers (auditors,
    /// checkers) must not — they read what each incarnation had recorded
    /// before it died here.
    pub fn dead_incarnations<T: Actor<Msg = M>>(
        &self,
        id: ActorId,
    ) -> impl Iterator<Item = &T> + '_ {
        self.graveyard
            .iter()
            .filter(move |(a, _)| *a == id)
            .filter_map(|(_, actor)| actor.as_any().downcast_ref::<T>())
    }

    /// Mutable typed access to an actor's state.
    pub fn actor_mut<T: Actor<Msg = M>>(&mut self, id: ActorId) -> Option<&mut T> {
        self.actors
            .get_mut(id.index())?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Calls `f` with a [`Context`] on behalf of actor `id` — the harness
    /// hook to start client operations mid-run (e.g. "invoke a read now")
    /// — and returns what it returns. A crashed actor takes no step:
    /// `f` is not run, nothing is sent, and the result is `None`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn with_actor_ctx<T: Actor<Msg = M>, R>(
        &mut self,
        id: ActorId,
        f: impl FnOnce(&mut T, &mut Context<'_, M>) -> R,
    ) -> Option<R> {
        if self.crashed[id.index()] {
            return None;
        }
        let n_actors = self.actors.len();
        let mut effects = std::mem::take(&mut self.effects);
        let mut ctx = Context {
            now: self.time,
            self_id: id,
            n_actors,
            rng: &mut self.rng,
            effects: &mut effects,
            next_timer: &mut self.next_timer,
        };
        let actor = self.actors[id.index()]
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("actor type mismatch in with_actor_ctx");
        let r = f(actor, &mut ctx);
        self.apply_effects(id, effects);
        Some(r)
    }

    fn push_event(&mut self, at: Time, kind: EventKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        let slot = self.park.put(kind);
        self.queue.push(at, seq, slot);
    }

    /// Applies the effects a callback of `from` buffered, then parks the
    /// emptied buffer for the next callback.
    fn apply_effects(&mut self, from: ActorId, mut effects: Vec<Effect<M>>) {
        for e in effects.drain(..) {
            match e {
                Effect::Send { to, msg, bytes } => {
                    self.send_message(from, to, msg, bytes);
                }
                Effect::SetTimer { id, after, tag } => {
                    self.timers[from.index()].arm(id);
                    self.push_event(
                        self.time + after,
                        EventKind::Timer {
                            actor: from,
                            id,
                            tag,
                        },
                    );
                }
                Effect::CancelTimer { id } => {
                    self.timers[from.index()].disarm(id);
                }
                Effect::CrashSelf => {
                    self.crashed[from.index()] = true;
                }
                Effect::Counter { key, add } => {
                    self.metrics.record_counter(key, add);
                }
                Effect::Sample { key, value } => {
                    self.metrics.record_sample(key, value);
                }
            }
        }
        self.effects = effects;
    }

    fn dispatch(
        &mut self,
        to: ActorId,
        cb: impl FnOnce(&mut dyn Actor<Msg = M>, &mut Context<'_, M>),
    ) {
        if self.crashed[to.index()] {
            return;
        }
        let n_actors = self.actors.len();
        let mut effects = std::mem::take(&mut self.effects);
        {
            let mut ctx = Context {
                now: self.time,
                self_id: to,
                n_actors,
                rng: &mut self.rng,
                effects: &mut effects,
                next_timer: &mut self.next_timer,
            };
            cb(self.actors[to.index()].as_mut(), &mut ctx);
        }
        self.apply_effects(to, effects);
    }

    /// Processes the next event. Returns `false` when the queue is empty.
    ///
    /// # Panics
    ///
    /// Panics if the event limit is exceeded (runaway protocol).
    pub fn step(&mut self) -> bool {
        let Some((at, _seq, slot)) = self.queue.pop() else {
            self.started = true;
            return false;
        };
        debug_assert!(at >= self.time, "time went backwards");
        let kind = self.park.take(slot);
        self.process_event(at, kind);
        true
    }

    /// Processes the pending event with sequence number `seq`, regardless
    /// of its position in the time order — the explorer-driven scheduling
    /// seam. Virtual time only moves forward: delivering a "late" event
    /// before an "early" one clamps the clock to the later of the two, so
    /// actors still observe monotonic `now()`. Returns `false` if no
    /// pending event has that sequence number.
    ///
    /// # Panics
    ///
    /// Panics if the event limit is exceeded (runaway protocol).
    pub fn step_seq(&mut self, seq: u64) -> bool {
        match self.queue.take_seq(seq) {
            Some((at, _seq, slot)) => {
                let kind = self.park.take(slot);
                self.process_event(at, kind);
                true
            }
            None => false,
        }
    }

    fn process_event(&mut self, at: Time, kind: EventKind<M>) {
        self.started = true;
        assert!(
            self.metrics.events_processed < self.event_limit,
            "event limit exceeded ({}) — runaway protocol?",
            self.event_limit
        );
        self.metrics.events_processed += 1;
        self.time = self.time.max(at);
        self.metrics.last_time = self.time;
        match kind {
            EventKind::Start(a) => {
                self.dispatch(a, |actor, ctx| actor.on_start(ctx));
            }
            EventKind::Deliver {
                from,
                to,
                bytes,
                msg,
                tx,
                prop,
            } => {
                let (from, to, bytes) = (widen(from), widen(to), bytes as usize);
                if self.crashed[to.index()] {
                    self.metrics.messages_dropped_crashed += 1;
                    if let Some(t) = self.trace.as_mut() {
                        t.record(
                            self.time,
                            TraceKind::DropCrashed {
                                from,
                                to,
                                kind: msg.kind(),
                                bytes,
                            },
                        );
                    }
                } else {
                    self.metrics.messages_delivered += 1;
                    if let Some(t) = self.trace.as_mut() {
                        t.record(
                            self.time,
                            TraceKind::Deliver {
                                from,
                                to,
                                kind: msg.kind(),
                                bytes,
                                transmission: tx,
                                propagation: prop,
                            },
                        );
                    }
                    self.dispatch(to, |actor, ctx| actor.on_message(from, msg, ctx));
                }
            }
            EventKind::Timer { actor, id, tag } => {
                if !self.timers[actor.index()].disarm(id) {
                    // cancelled; skip
                } else if !self.crashed[actor.index()] {
                    self.metrics.timers_fired += 1;
                    if let Some(t) = self.trace.as_mut() {
                        t.record(self.time, TraceKind::Timer { actor, tag });
                    }
                    self.dispatch(actor, |a, ctx| a.on_timer(tag, ctx));
                }
            }
            EventKind::Crash(a) => {
                self.crashed[a.index()] = true;
                if let Some(t) = self.trace.as_mut() {
                    t.record(self.time, TraceKind::Crash { actor: a });
                }
            }
            EventKind::Restart { actor, builder } => {
                let rebuilt = builder();
                self.restart_now(actor, rebuilt);
            }
        }
    }

    /// The pending events, in `(time, seq)` order, with opaque payloads
    /// summarized — what an explorer enumerates to choose the next
    /// scheduling decision. Cancelled timers are omitted (firing them is a
    /// no-op).
    pub fn pending_events(&self) -> Vec<PendingEvent> {
        let mut out: Vec<PendingEvent> = Vec::with_capacity(self.queue.len());
        self.queue.for_each(&mut |at, seq, &slot| {
            let kind = match self.park.get(slot) {
                EventKind::Start(a) => PendingKind::Start { actor: *a },
                EventKind::Deliver { from, to, msg, .. } => PendingKind::Deliver {
                    from: widen(*from),
                    to: widen(*to),
                    kind: msg.kind(),
                    digest: msg.content_digest(),
                },
                EventKind::Timer { actor, id, tag } => {
                    if !self.timers[actor.index()].contains(*id) {
                        return;
                    }
                    PendingKind::Timer {
                        actor: *actor,
                        tag: *tag,
                    }
                }
                EventKind::Crash(a) => PendingKind::Crash { actor: *a },
                EventKind::Restart { actor, .. } => PendingKind::Restart { actor: *actor },
            };
            out.push(PendingEvent { seq, at, kind });
        });
        out.sort_by_key(|e| (e.at, e.seq));
        out
    }

    /// A canonical digest of the world's logical state: every actor's
    /// [`Actor::state_digest`] (live and dead incarnations), crash flags,
    /// and the multiset of in-flight messages and pending timers —
    /// deliberately excluding virtual times and event sequence numbers, so
    /// two different schedules that reach the same protocol state hash
    /// equal. Returns `None` if any actor or any in-flight message is not
    /// diggestible.
    pub fn canonical_digest(&self) -> Option<u64> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for (i, a) in self.actors.iter().enumerate() {
            i.hash(&mut h);
            self.crashed[i].hash(&mut h);
            a.state_digest()?.hash(&mut h);
        }
        for (id, corpse) in &self.graveyard {
            id.index().hash(&mut h);
            corpse.state_digest()?.hash(&mut h);
        }
        // In-flight events as a sorted multiset of identities, independent
        // of delivery times and queue positions.
        let mut pending: Vec<(u8, usize, usize, u64)> = Vec::with_capacity(self.queue.len());
        let mut undigestible = false;
        self.queue
            .for_each(&mut |_, _, &slot| match self.park.get(slot) {
                EventKind::Start(a) => pending.push((0, a.index(), 0, 0)),
                EventKind::Deliver { from, to, msg, .. } => match msg.content_digest() {
                    Some(d) => pending.push((1, *from as usize, *to as usize, d)),
                    None => undigestible = true,
                },
                EventKind::Timer { actor, id, tag } => {
                    if self.timers[actor.index()].contains(*id) {
                        pending.push((2, actor.index(), 0, *tag));
                    }
                }
                EventKind::Crash(a) => pending.push((3, a.index(), 0, 0)),
                EventKind::Restart { actor, .. } => pending.push((4, actor.index(), 0, 0)),
            });
        if undigestible {
            return None;
        }
        pending.sort_unstable();
        pending.hash(&mut h);
        Some(h.finish())
    }

    /// Runs until the event queue drains. Returns the metrics summary.
    pub fn run_to_quiescence(&mut self) -> &Metrics {
        while self.step() {}
        self.metrics()
    }

    /// Runs until `pred(self)` is true or the queue drains. Returns `true`
    /// if the predicate was satisfied.
    pub fn run_until(&mut self, mut pred: impl FnMut(&World<M>) -> bool) -> bool {
        loop {
            if pred(self) {
                return true;
            }
            if !self.step() {
                return pred(self);
            }
        }
    }

    /// Runs until virtual time reaches `deadline` or the queue drains.
    pub fn run_for(&mut self, duration: Nanos) {
        let deadline = self.time + duration;
        loop {
            match self.queue.next_key() {
                Some((at, _)) if at <= deadline => {
                    self.step();
                }
                _ => {
                    self.time = deadline;
                    self.metrics.last_time = deadline;
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{ConstantLatency, UniformLatency};
    use std::any::Any;

    #[derive(Clone, Debug)]
    enum Msg {
        Ping(u64),
        Pong(u64),
    }
    impl Message for Msg {
        fn kind(&self) -> &'static str {
            match self {
                Msg::Ping(_) => "ping",
                Msg::Pong(_) => "pong",
            }
        }
    }

    /// Sends a ping to everyone on start; replies pong to pings.
    struct Echo {
        pongs: Vec<u64>,
        fired_tags: Vec<u64>,
    }

    impl Echo {
        fn new() -> Echo {
            Echo {
                pongs: Vec::new(),
                fired_tags: Vec::new(),
            }
        }
    }

    impl Actor for Echo {
        type Msg = Msg;
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if ctx.id() == ActorId(0) {
                let n = ctx.n_actors();
                let targets: Vec<ActorId> = (0..n).map(ActorId).collect();
                ctx.send_to_all(targets, Msg::Ping(7));
            }
        }
        fn on_message(&mut self, from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            match msg {
                Msg::Ping(x) => ctx.send(from, Msg::Pong(x)),
                Msg::Pong(x) => self.pongs.push(x),
            }
        }
        fn on_timer(&mut self, tag: u64, _ctx: &mut Context<'_, Msg>) {
            self.fired_tags.push(tag);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn world_with(n: usize, seed: u64) -> World<Msg> {
        let mut w = World::new(seed, UniformLatency::new(1, 1000));
        for _ in 0..n {
            w.add_actor(Echo::new());
        }
        w
    }

    #[test]
    fn ping_pong_all() {
        let mut w = world_with(5, 1);
        w.run_to_quiescence();
        let a0 = w.actor::<Echo>(ActorId(0)).unwrap();
        assert_eq!(a0.pongs.len(), 5); // includes self
        assert_eq!(w.metrics().sent_of_kind("ping"), 5);
        assert_eq!(w.metrics().sent_of_kind("pong"), 5);
        assert_eq!(w.metrics().messages_delivered, 10);
        // Every send is byte-accounted with the default wire size.
        let per_msg = std::mem::size_of::<Msg>() as u64;
        assert_eq!(w.metrics().bytes_sent, 10 * per_msg);
        assert_eq!(w.metrics().bytes_of_kind("ping"), 5 * per_msg);
        assert_eq!(w.metrics().mean_bytes_of_kind("pong"), per_msg as f64);
    }

    #[test]
    fn determinism_same_seed() {
        let run = |seed| {
            let mut w = world_with(6, seed);
            w.run_to_quiescence();
            (w.now(), w.metrics().messages_delivered)
        };
        assert_eq!(run(42), run(42));
        // Different seeds virtually always give different final times.
        assert_ne!(run(42).0, run(43).0);
    }

    #[test]
    fn crashed_actor_receives_nothing() {
        let mut w = world_with(4, 2);
        w.schedule_crash(ActorId(3), Time::ZERO);
        w.run_to_quiescence();
        let crashed = w.actor::<Echo>(ActorId(3)).unwrap();
        assert!(crashed.pongs.is_empty());
        assert!(w.is_crashed(ActorId(3)));
        assert!(w.metrics().messages_dropped_crashed > 0);
        // a0 gets pongs only from the 3 live actors.
        let a0 = w.actor::<Echo>(ActorId(0)).unwrap();
        assert_eq!(a0.pongs.len(), 3);
    }

    #[test]
    fn a_crashed_actor_takes_no_step_through_with_actor_ctx() {
        let mut w = world_with(3, 2);
        w.run_to_quiescence();
        let sent = w.metrics().messages_sent;
        w.crash_now(ActorId(1));
        let ran =
            w.with_actor_ctx::<Echo, _>(ActorId(1), |_, ctx| ctx.send(ActorId(0), Msg::Ping(9)));
        assert_eq!(ran, None);
        w.run_to_quiescence();
        assert_eq!(w.metrics().messages_sent, sent);

        // A live actor's call runs and sends.
        let ran =
            w.with_actor_ctx::<Echo, _>(ActorId(2), |_, ctx| ctx.send(ActorId(0), Msg::Ping(9)));
        assert_eq!(ran, Some(()));
        w.run_to_quiescence();
        assert_eq!(w.metrics().messages_sent, sent + 2);
    }

    #[test]
    fn timers_fire_in_order_and_cancel() {
        let mut w: World<Msg> = World::new(3, ConstantLatency(10));
        w.add_actor(Echo::new());
        let cancel_me = w
            .with_actor_ctx::<Echo, _>(ActorId(0), |_, ctx| {
                ctx.set_timer(50, 1);
                let id = ctx.set_timer(100, 2);
                ctx.set_timer(150, 3);
                id
            })
            .expect("a live actor");
        w.with_actor_ctx::<Echo, _>(ActorId(0), |_, ctx| ctx.cancel_timer(cancel_me));
        w.run_to_quiescence();
        let a = w.actor::<Echo>(ActorId(0)).unwrap();
        assert_eq!(a.fired_tags, vec![1, 3]);
        assert_eq!(w.metrics().timers_fired, 2);
    }

    #[test]
    fn armed_timers_spill_past_the_inline_row_and_come_back() {
        let mut armed = Armed::default();
        let ids: Vec<TimerId> = (0..2 * ARMED_INLINE as u64 + 1).map(TimerId).collect();
        for &id in &ids {
            armed.arm(id);
        }
        assert_eq!(armed.ids(), ids);
        // Inline, spilled, then a late (absent) id.
        let mut left = ids.clone();
        for id in [
            TimerId(1),
            TimerId(2 * ARMED_INLINE as u64),
            TimerId(0),
            TimerId(1),
        ] {
            let was = left.contains(&id);
            assert_eq!(armed.disarm(id), was, "{id:?}");
            left.retain(|&t| t != id);
            assert_eq!(armed.ids(), left);
            assert!(left.iter().all(|&t| armed.contains(t)) && !armed.contains(id));
        }
        for &id in &left {
            assert!(armed.disarm(id));
        }
        assert!(armed.ids().is_empty() && armed.spill.is_empty());
    }

    #[test]
    fn a_cancel_after_the_timer_fired_changes_nothing() {
        let mut w: World<Msg> = World::new(3, ConstantLatency(10));
        w.add_actor(Echo::new());
        let fired = w
            .with_actor_ctx::<Echo, _>(ActorId(0), |_, ctx| {
                let id = ctx.set_timer(50, 1);
                ctx.set_timer(100, 2);
                id
            })
            .expect("a live actor");
        w.run_for(60);
        assert_eq!(w.metrics().timers_fired, 1);
        let armed = w.timers[0].ids();
        assert_eq!(armed.len(), 1);
        let digest = w.canonical_digest();
        w.with_actor_ctx::<Echo, _>(ActorId(0), |_, ctx| ctx.cancel_timer(fired));
        assert_eq!(
            w.timers[0].ids(),
            armed,
            "a late cancel leaves the armed timers as they were"
        );
        assert_eq!(w.canonical_digest(), digest);
        w.run_to_quiescence();
        assert_eq!(w.actor::<Echo>(ActorId(0)).unwrap().fired_tags, vec![1, 2]);
        assert!(w.timers[0].ids().is_empty());
    }

    #[test]
    fn run_for_respects_deadline() {
        let mut w = world_with(5, 3);
        w.run_for(1); // at most the start events at t=0 and nothing later
        assert!(w.now() <= Time(1));
        w.run_for(10_000_000);
        assert_eq!(w.now(), Time(1 + 10_000_000));
    }

    #[test]
    fn run_until_predicate() {
        let mut w = world_with(5, 4);
        let got = w.run_until(|w| {
            w.actor::<Echo>(ActorId(0))
                .map(|a| a.pongs.len() >= 2)
                .unwrap_or(false)
        });
        assert!(got);
        assert!(w.actor::<Echo>(ActorId(0)).unwrap().pongs.len() >= 2);
    }

    #[test]
    fn inject_external_message() {
        let mut w = world_with(2, 5);
        w.run_to_quiescence();
        w.inject(ActorId(1), ActorId(0), Msg::Pong(99));
        w.run_to_quiescence();
        assert!(w.actor::<Echo>(ActorId(0)).unwrap().pongs.contains(&99));
    }

    #[test]
    fn restart_rebuilds_and_reboots() {
        // Echo 3 dies at t=0 and is rebuilt at t=2ms; a fresh ping after
        // the restart reaches it, while pings sent during the downtime
        // stay dropped.
        let mut w = world_with(4, 2);
        w.enable_trace(64);
        w.schedule_crash(ActorId(3), Time::ZERO);
        w.schedule_restart(ActorId(3), Time(2_000_000), || Box::new(Echo::new()));
        w.run_to_quiescence();
        assert!(!w.is_crashed(ActorId(3)));
        assert_eq!(w.metrics().restarts, 1);
        assert!(w.metrics().messages_dropped_crashed > 0);
        let t = w.trace().unwrap();
        assert_eq!(
            t.records()
                .filter(|r| matches!(r.kind, TraceKind::Restart { .. }))
                .count(),
            1
        );
        // Post-restart traffic flows: inject a ping, expect a pong back.
        w.inject(ActorId(0), ActorId(3), Msg::Ping(42));
        w.run_to_quiescence();
        let a0 = w.actor::<Echo>(ActorId(0)).unwrap();
        assert!(a0.pongs.contains(&42), "restarted actor must answer");
    }

    #[test]
    fn restart_now_replaces_state() {
        let mut w = world_with(2, 9);
        w.run_to_quiescence();
        w.crash_now(ActorId(1));
        assert!(w.is_crashed(ActorId(1)));
        let mut fresh = Echo::new();
        fresh.pongs.push(777); // "recovered" state travels in with the actor
        w.restart_now(ActorId(1), Box::new(fresh));
        assert!(!w.is_crashed(ActorId(1)));
        assert_eq!(w.actor::<Echo>(ActorId(1)).unwrap().pongs, vec![777]);
        assert_eq!(w.metrics().restarts, 1);
    }

    #[test]
    #[should_panic(expected = "cannot add actors")]
    fn adding_actor_after_start_panics() {
        let mut w = world_with(2, 6);
        w.step();
        w.add_actor(Echo::new());
    }

    /// A message with a hop budget; its digest is the budget.
    #[derive(Clone, Debug)]
    struct Hop(u64);
    impl Message for Hop {
        fn content_digest(&self) -> Option<u64> {
            Some(self.0)
        }
    }

    /// Forwards hops to random peers, arms timers that start shorter
    /// chains, and cancels its latest armed timer now and then.
    struct Churner {
        /// The hop budget of the chains started on `on_start`.
        ttl: u64,
        seen: u64,
        armed: Vec<TimerId>,
    }

    impl Actor for Churner {
        type Msg = Hop;
        fn on_start(&mut self, ctx: &mut Context<'_, Hop>) {
            let peers: Vec<ActorId> = (0..ctx.n_actors()).map(ActorId).collect();
            ctx.send_to_all(peers, Hop(self.ttl));
            self.armed.push(ctx.set_timer(3_000_000, 12));
        }
        fn on_message(&mut self, _from: ActorId, Hop(ttl): Hop, ctx: &mut Context<'_, Hop>) {
            use rand::Rng;
            self.seen += 1;
            if ttl == 0 {
                return;
            }
            let n = ctx.n_actors();
            let to = ActorId(ctx.rng().random_range(0..n));
            ctx.send(to, Hop(ttl - 1));
            if ttl % 3 == 0 {
                let after = ctx.rng().random_range(1..20_000_000);
                self.armed.push(ctx.set_timer(after, ttl));
            }
            if ttl % 5 == 0 {
                if let Some(id) = self.armed.pop() {
                    ctx.cancel_timer(id);
                }
            }
        }
        fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, Hop>) {
            use rand::Rng;
            let n = ctx.n_actors();
            let to = ActorId(ctx.rng().random_range(0..n));
            ctx.send(to, Hop(tag / 2));
        }
        fn state_digest(&self) -> Option<u64> {
            Some(self.seen)
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Four churners over 1 µs – 5 ms links (so events spread over the
    /// wheel's levels); actor 2 crashes at 4 ms and restarts at 9 ms.
    fn churn_world(kind: SchedulerKind, ttl: u64) -> World<Hop> {
        let churner = move || Churner {
            ttl,
            seen: 0,
            armed: Vec::new(),
        };
        let mut w = World::new_with_scheduler(21, UniformLatency::new(1_000, 5_000_000), kind);
        for _ in 0..4 {
            w.add_actor(churner());
        }
        w.schedule_crash(ActorId(2), Time(4_000_000));
        w.schedule_restart(ActorId(2), Time(9_000_000), move || Box::new(churner()));
        w
    }

    #[test]
    fn a_parked_delivery_fits_in_128_bytes() {
        // `[u64; 12]` stands in for `DynMsg<u64>`: 96 bytes, with no niche
        // for the event's tag to hide in.
        let slot = std::mem::size_of::<Option<EventKind<[u64; 12]>>>();
        assert!(
            slot <= 128,
            "a parked delivery of a 96-byte message takes {slot} B: above 128 B, \
             every park and take becomes a memcpy call"
        );
    }

    #[test]
    fn the_park_never_outgrows_the_peak_of_pending_events() {
        let mut w = churn_world(SchedulerKind::TimingWheel, 120);
        let mut peak = w.queue.len();
        // Parked timer events whose timer is no longer armed: only the
        // no-op pop of a cancelled timer lowers the count (a callback can
        // arm or cancel, which leaves it or raises it).
        let dead_timers = |w: &World<Hop>| {
            let parked = w
                .park
                .slots
                .iter()
                .filter(|e| matches!(e, Some(EventKind::Timer { .. })))
                .count();
            parked - w.timers.iter().map(|a| a.ids().len()).sum::<usize>()
        };
        let (mut steps, mut skipped) = (0u64, 0);
        loop {
            let dead = dead_timers(&w);
            if !w.step() {
                break;
            }
            steps += 1;
            if dead_timers(&w) < dead {
                skipped += 1; // a cancelled timer's event ran as a no-op
            }
            peak = peak.max(w.queue.len());
            assert!(w.park.slots.len() <= peak, "step {steps}");
            assert_eq!(w.park.slots.len(), w.queue.len() + w.park.free.len());
        }
        assert!(w.park.slots.iter().all(Option::is_none));
        // The run churned through everything the park must survive.
        let m = w.metrics();
        assert!(steps > 20 * peak as u64, "{steps} steps, peak {peak}");
        assert!(m.timers_fired > 0 && skipped > 0);
        assert!(m.messages_dropped_crashed > 0);
        assert_eq!(m.restarts, 1);
    }

    #[test]
    fn wheel_and_heap_worlds_show_the_same_pending_events_after_every_step() {
        let view = |w: &World<Hop>| {
            let pending: Vec<String> = w
                .pending_events()
                .iter()
                .map(|e| format!("{e:?}"))
                .collect();
            (pending, w.canonical_digest())
        };
        let mut wheel = churn_world(SchedulerKind::TimingWheel, 30);
        let mut heap = churn_world(SchedulerKind::BinaryHeap, 30);
        // A third world moves its keys from the wheel to the heap mid-run.
        let mut moved = churn_world(SchedulerKind::TimingWheel, 30);
        let mut steps = 0;
        loop {
            let (a, b, c) = (wheel.step(), heap.step(), moved.step());
            assert_eq!((a, a), (b, c), "step {steps}");
            if !a {
                break;
            }
            steps += 1;
            if steps == 200 {
                moved.set_scheduler(SchedulerKind::BinaryHeap);
            }
            let here = view(&wheel);
            assert!(here.1.is_some());
            assert_eq!(here, view(&heap), "step {steps}");
            assert_eq!(here, view(&moved), "step {steps}");
        }
        assert!(steps > 200);
        assert_eq!(wheel.now(), heap.now());
    }

    #[test]
    fn bandwidth_model_shapes_the_schedule() {
        use crate::network::{BandwidthLinks, BandwidthMatrix};

        // Same seed and actors; the only difference is link bandwidth.
        let run = |bw: u64| {
            let net = BandwidthLinks::new(ConstantLatency(1_000), BandwidthMatrix::uniform(3, bw));
            let mut w: World<Msg> = World::new(11, net);
            for _ in 0..3 {
                w.add_actor(Echo::new());
            }
            w.enable_trace(64);
            w.run_to_quiescence();
            let tx_total = w.trace().unwrap().delivered_delay_components_of("ping").0;
            (w.now(), w.metrics().clone(), tx_total)
        };
        let (slow_end, slow_m, slow_tx) = run(1_000); // 1 KB/s: tx dominates
        let (fast_end, fast_m, fast_tx) = run(crate::network::UNLIMITED_BANDWIDTH);
        assert!(
            slow_end > fast_end,
            "constrained links must stretch the run ({slow_end} vs {fast_end})"
        );
        assert!(slow_tx > 0 && fast_tx == 0);
        // Same traffic either way; the bytes are link-attributed.
        assert_eq!(slow_m.bytes_sent, fast_m.bytes_sent);
        let per_msg = std::mem::size_of::<Msg>() as u64;
        assert_eq!(slow_m.bytes_on_link(ActorId(0), ActorId(1)), per_msg);
        assert!(slow_m.max_link_utilization() > 0.0);
        assert_eq!(fast_m.max_link_utilization(), 0.0);
    }
}
