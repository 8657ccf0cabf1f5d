//! The actor abstraction: event-driven processes over an asynchronous
//! network.
//!
//! Protocols are written as explicit state machines: an [`Actor`] reacts to
//! `on_start`, `on_message`, and `on_timer` callbacks, and interacts with the
//! world exclusively through [`Context`] effects (sends, timers, crash).
//! This style is deliberately faithful to the asynchronous model of the
//! paper (§II): there is no way for an actor to block, read the clock, or
//! peek at another actor's state.

use std::any::Any;
use std::fmt;

use rand::rngs::StdRng;

use crate::time::{Nanos, Time};

/// Identifier of an actor inside a [`crate::World`] (dense `0..n_actors`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub usize);

impl ActorId {
    /// The underlying index.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Debug for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Identifier of a pending timer, used for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub u64);

/// Messages exchanged by actors.
///
/// The `kind` is a coarse label used by the metrics to break message counts
/// down per protocol phase (`"RC"`, `"T"`, `"W"`, …).
pub trait Message: Clone + fmt::Debug + Send + 'static {
    /// A short label for metrics; defaults to `"msg"`.
    fn kind(&self) -> &'static str {
        "msg"
    }

    /// Size of this message on the wire, in bytes. Both runtimes charge
    /// every send against this, once per send call, so message cost is a
    /// first-class, benchmarkable quantity
    /// ([`crate::Metrics::bytes_sent`] / [`crate::Metrics::bytes_by_kind`]).
    ///
    /// A message with a codec returns its frame length
    /// (`awr_types::wire::frame_len`), so the simulator charges what a
    /// socket carries. The default — the in-memory footprint — is for
    /// messages that never cross a socket: baselines and test doubles.
    fn wire_size(&self) -> usize {
        std::mem::size_of_val(self)
    }

    /// The object (keyed register) this message belongs to, if any — the
    /// hook behind the per-object byte accounting
    /// ([`crate::Metrics::bytes_of_object`]). Multi-object storage
    /// protocols return the key of their addressed register on the keyed
    /// phases; shared-infrastructure traffic (reassignment, whole-space
    /// refreshes) and single-register protocols return `None` (the
    /// default) and stay unattributed.
    fn object_key(&self) -> Option<u64> {
        None
    }

    /// Content digest of this message, used by the model-checking explorer
    /// to identify in-flight messages independently of delivery times and
    /// queue positions. Two messages with equal digests are treated as the
    /// same pending event when deduplicating explored states, so the digest
    /// must cover the full payload — a partial digest silently merges
    /// distinct states and makes the exploration unsound.
    ///
    /// The default `None` means "not diggestible": worlds carrying such
    /// messages report no canonical digest
    /// ([`crate::World::canonical_digest`]) and cannot be state-deduped.
    fn content_digest(&self) -> Option<u64> {
        None
    }
}

/// An event-driven process.
///
/// Implementors must provide [`Actor::as_any`]/[`Actor::as_any_mut`]
/// (two lines of boilerplate) so harnesses can inspect final state through
/// [`crate::World::actor`].
pub trait Actor: 'static {
    /// The message type of the protocol this actor speaks.
    type Msg: Message;

    /// Called once at time zero, before any delivery.
    fn on_start(&mut self, _ctx: &mut Context<'_, Self::Msg>) {}

    /// Called on every message delivery.
    fn on_message(&mut self, from: ActorId, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>);

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _tag: u64, _ctx: &mut Context<'_, Self::Msg>) {}

    /// Canonical digest of this actor's protocol state, used by the
    /// model-checking explorer to deduplicate reachable states. Must be
    /// deterministic across replays *in the same process*: implementations
    /// hash logical protocol state only (no times, no event sequence
    /// numbers) and must sort any `HashMap`/`HashSet` contents before
    /// hashing — iteration order of std hash containers differs per
    /// instance.
    ///
    /// The default `None` means "not diggestible"; a world containing such
    /// an actor reports no canonical digest.
    fn state_digest(&self) -> Option<u64> {
        None
    }

    /// Upcast for harness inspection.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for harness inspection.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// An effect requested by an actor during a callback; applied by the world
/// after the callback returns (keeping callbacks pure with respect to the
/// event queue). A `Send` carries the message's [`Message::wire_size`],
/// taken once per send call.
#[derive(Debug)]
pub(crate) enum Effect<M> {
    Send { to: ActorId, msg: M, bytes: usize },
    SetTimer { id: TimerId, after: Nanos, tag: u64 },
    CancelTimer { id: TimerId },
    CrashSelf,
    Counter { key: &'static str, add: u64 },
    Sample { key: &'static str, value: u64 },
}

/// The actor's handle onto the world during a callback.
///
/// All interaction is buffered: sends and timers take effect when the
/// callback returns. The RNG is the world's seeded RNG, so randomized actors
/// stay deterministic per seed.
pub struct Context<'a, M> {
    pub(crate) now: Time,
    pub(crate) self_id: ActorId,
    pub(crate) n_actors: usize,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) effects: &'a mut Vec<Effect<M>>,
    pub(crate) next_timer: &'a mut u64,
}

impl<'a, M> Context<'a, M> {
    /// Current time: virtual in [`crate::World`], monotonic nanoseconds
    /// since the host started under a [`crate::NodeHost`]. For bookkeeping
    /// (operation latency stamps) and for *when* to retry — never for what
    /// a protocol step decides: safety must not depend on a clock.
    pub fn now(&self) -> Time {
        self.now
    }

    /// This actor's id.
    pub fn id(&self) -> ActorId {
        self.self_id
    }

    /// Total number of actors in the world.
    pub fn n_actors(&self) -> usize {
        self.n_actors
    }

    /// The world's deterministic RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Sends `msg` to `to` over the asynchronous network.
    pub fn send(&mut self, to: ActorId, msg: M)
    where
        M: Message,
    {
        let bytes = msg.wire_size();
        self.effects.push(Effect::Send { to, msg, bytes });
    }

    /// Sends `msg` to every actor in `targets`.
    pub fn send_to_all(&mut self, targets: impl IntoIterator<Item = ActorId>, msg: M)
    where
        M: Message,
    {
        self.broadcast_filter(targets, msg, |_| true);
    }

    /// Filtered broadcast: sends `msg` to every actor in `targets` that
    /// satisfies `keep`, returning how many sends were issued. This is the
    /// targeted write-back shape — phase 2 of an optimized read contacts
    /// only the repliers observed stale in phase 1. It expands to plain
    /// sends, so protocols written against it behave identically on both
    /// runtimes.
    pub fn broadcast_filter(
        &mut self,
        targets: impl IntoIterator<Item = ActorId>,
        msg: M,
        mut keep: impl FnMut(ActorId) -> bool,
    ) -> usize
    where
        M: Message,
    {
        let bytes = msg.wire_size();
        let mut sent = 0;
        for to in targets {
            if keep(to) {
                self.effects.push(Effect::Send {
                    to,
                    msg: msg.clone(),
                    bytes,
                });
                sent += 1;
            }
        }
        sent
    }

    /// Schedules `on_timer(tag)` to fire `after` nanoseconds from now.
    pub fn set_timer(&mut self, after: Nanos, tag: u64) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.effects.push(Effect::SetTimer { id, after, tag });
        id
    }

    /// Cancels a pending timer (no-op if already fired).
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer { id });
    }

    /// Crashes this actor at the end of the callback: no further callbacks
    /// will run and pending deliveries to it are dropped.
    pub fn crash_self(&mut self) {
        self.effects.push(Effect::CrashSelf);
    }

    /// Bumps the named protocol counter by `add`
    /// ([`crate::Metrics::counters`]). A metrics-only effect: it changes no
    /// actor or network state, so protocols may record freely without
    /// perturbing schedules or state digests.
    pub fn record_counter(&mut self, key: &'static str, add: u64) {
        self.effects.push(Effect::Counter { key, add });
    }

    /// Records one observation of `value` into the named histogram
    /// ([`crate::Metrics::samples`]). Like [`Context::record_counter`],
    /// purely observational.
    pub fn record_sample(&mut self, key: &'static str, value: u64) {
        self.effects.push(Effect::Sample { key, value });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Ping;
    impl Message for Ping {}

    #[test]
    fn default_message_kind() {
        assert_eq!(Ping.kind(), "msg");
    }

    #[test]
    fn actor_id_display() {
        assert_eq!(ActorId(3).to_string(), "a3");
        assert_eq!(ActorId(3).index(), 3);
    }
}
