//! The runtime seam: hosting an [`Actor`] over a pluggable message fabric.
//!
//! The workspace runs the same protocol state machines in two runtimes:
//!
//! 1. the discrete-event [`crate::World`] (deterministic, adversarial —
//!    the reference semantics), which drives actors directly;
//! 2. a [`NodeHost`] per actor over a [`Transport`] (wall-clock time, real
//!    concurrency): one thread per host over a [`ChannelTransport`] mesh
//!    in-process, or one OS process per host over the `awr_net` crate's
//!    TCP transport.
//!
//! This module is the second one's seam: a [`Transport`] abstracts "send a
//! message / receive a message" for **one** node, and a [`NodeHost`] pumps
//! any [`Actor`] over any [`Transport`], reproducing the
//! callback-and-effects contract the actors were written against. A
//! runtime is therefore just a `Transport` implementation plus whatever
//! process/thread scaffolding it needs — for the in-process one,
//! `std::thread::spawn` around [`NodeHost::start`] +
//! [`NodeHost::run_until_idle`] + [`NodeHost::into_parts`] — and
//! [`ChannelTransport`] is the minimal implementation (and the test double
//! for transport-generic code).
//!
//! # Semantics a `Transport` must provide
//!
//! The paper's system model (§II) asks for reliable, FIFO-per-link,
//! asynchronous point-to-point channels between non-Byzantine processes.
//! Concretely:
//!
//! * **Best-effort send, crash-model drops.** `send` may not fail loudly:
//!   a peer that cannot be reached is indistinguishable from a crashed
//!   peer, and the protocols already tolerate crashed peers. A transport
//!   reports delivery trouble by *dropping*, never by duplicating or
//!   reordering within a link.
//! * **FIFO per directed link.** Two messages from `a` to `b` arrive in
//!   send order (the RB engine and the phase drivers rely on this only
//!   weakly, but the DES provides it and equivalence arguments assume it).
//!
//! # Timers and the clock
//!
//! A [`NodeHost`] keeps what [`crate::World`] keeps for its actors: a clock
//! and a timer queue. [`crate::Context::now`] is monotonic nanoseconds since
//! the host started (one `Instant` read per callback), so operation records
//! stamped from it are real and ordered on every runtime — per host: two
//! hosts' clocks share no origin. `SetTimer` lands in a
//! [`crate::sched::TimingWheel`] keyed by that clock and `CancelTimer`
//! removes it again; [`NodeHost::step`] bounds its wait in
//! [`Transport::recv_timeout`] by the next deadline and runs `on_timer`
//! only when that wait came back **empty**. A ready frame therefore always
//! outranks an overdue timer: after a `send` that blocked for a dial's
//! worth of back-off, the acks that arrived meanwhile are handled — and
//! cancel the timers they answer — before anything fires, so one slow call
//! cannot start a rebroadcast cascade. Timer-dependent options (client
//! retry policies, the measured widen deadline of `awr_storage`'s
//! quorum-targeted phase 1) thereby work over channels and sockets as they
//! do in the simulator, which is what lets a real client get past a peer
//! that died mid-phase.
//!
//! # Persist-before-send
//!
//! Durable servers (`awr_storage`) append to their WAL *inside* the
//! callback, while sends are buffered [`crate::Context`] effects applied
//! only after the callback returns. [`NodeHost`] preserves exactly that
//! ordering — effects are flushed to the transport strictly after the
//! callback completes — so the persist-before-send invariant holds on
//! every runtime built through this seam, not just the DES.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::actor::{Actor, ActorId, Context, Effect, Message};
use crate::metrics::Metrics;
use crate::sched::{Scheduler, TimingWheel};
use crate::time::Time;

/// One node's view of the message fabric: identity, mesh size, best-effort
/// sends, and blocking-with-deadline receives.
///
/// Implementations exist for in-process channels ([`ChannelTransport`])
/// and real TCP sockets (`awr_net::TcpTransport`); the contract each must
/// honour is spelled out in the [module docs](self).
///
/// # Examples
///
/// Two nodes ping-pong over the in-process implementation:
///
/// ```
/// use std::time::Duration;
/// use awr_sim::{ActorId, ChannelTransport, Transport};
///
/// let mut mesh = ChannelTransport::<u32>::mesh(2);
/// let mut b = mesh.pop().unwrap();
/// let mut a = mesh.pop().unwrap();
/// assert_eq!((a.local_id(), b.local_id()), (ActorId(0), ActorId(1)));
///
/// a.send(ActorId(1), 7);
/// let (from, msg) = b.recv_timeout(Duration::from_secs(1)).unwrap();
/// assert_eq!((from, msg), (ActorId(0), 7));
/// b.send(from, msg + 1);
/// assert_eq!(a.recv_timeout(Duration::from_secs(1)), Some((ActorId(1), 8)));
/// ```
pub trait Transport<M> {
    /// The actor id this transport speaks for.
    fn local_id(&self) -> ActorId;

    /// Total number of actors in the mesh (dense ids `0..n_actors`).
    fn n_actors(&self) -> usize;

    /// Sends `msg` to `to`, best-effort: an unreachable peer means the
    /// message is dropped, exactly as the crash model drops traffic to a
    /// dead process. Must preserve FIFO order per directed link.
    fn send(&mut self, to: ActorId, msg: M);

    /// Receives the next `(sender, message)` pair, waiting at most
    /// `timeout`. `None` means the deadline passed with nothing to
    /// deliver (not an error — an asynchronous network is allowed to be
    /// arbitrarily quiet).
    fn recv_timeout(&mut self, timeout: Duration) -> Option<(ActorId, M)>;
}

/// What one [`NodeHost::step`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// A message was received and dispatched to the actor.
    Delivered,
    /// No message was ready, a timer was due, and the actor's `on_timer`
    /// ran.
    TimerFired,
    /// The receive deadline passed with no traffic and no timer due.
    Idle,
    /// The actor has crashed itself; no further callbacks will run.
    Stopped,
}

/// Hosts one [`Actor`] over one [`Transport`]: the event loop of the
/// real-transport runtimes.
///
/// The host reproduces the runtime contract actors are written against —
/// callbacks receive a [`Context`], effects are buffered during the
/// callback and applied after it returns (sends go to the transport,
/// timers to the host's own queue, `CrashSelf` stops the host) — and meters
/// every send at the [`Message::wire_size`] its send call took into a
/// [`Metrics`], so byte accounting is comparable across all runtimes. Time
/// is the host's own monotonic clock (see the
/// [module docs](self#timers-and-the-clock)).
///
/// Driving is explicit and single-threaded: call [`NodeHost::step`] in a
/// loop (servers), or interleave [`NodeHost::with_actor`] invocations with
/// steps (clients starting operations). This mirrors how the DES harness
/// drives `World` and keeps the host free of locks.
pub struct NodeHost<A: Actor, T: Transport<A::Msg>> {
    actor: A,
    transport: T,
    rng: StdRng,
    next_timer: u64,
    /// Origin of [`Context::now`].
    started: Instant,
    /// Pending timers by deadline on the host's clock: the sequence number
    /// is the [`crate::TimerId`] (unique per host, which is what
    /// cancellation looks up), the item the tag handed back to `on_timer`.
    timers: TimingWheel<u64>,
    /// The effect buffer every callback fills and the flush empties: kept
    /// here so a callback costs no allocation once it has grown.
    effects: Vec<Effect<A::Msg>>,
    metrics: Metrics,
    running: bool,
}

impl<A: Actor, T: Transport<A::Msg>> NodeHost<A, T> {
    /// Builds the host and runs the actor's `on_start` (flushing its
    /// effects), exactly as [`crate::World`] does before any delivery.
    /// `seed` feeds the actor's [`Context::rng`]; each host derives its
    /// own per-node stream from it and its actor id.
    pub fn start(actor: A, transport: T, seed: u64) -> NodeHost<A, T> {
        let id = transport.local_id();
        let rng = StdRng::seed_from_u64(seed ^ (id.index() as u64).wrapping_mul(0x9E37_79B9));
        let mut host = NodeHost {
            actor,
            transport,
            rng,
            next_timer: 0,
            started: Instant::now(),
            timers: TimingWheel::new(),
            effects: Vec::new(),
            metrics: Metrics::default(),
            running: true,
        };
        host.callback(|a, ctx| a.on_start(ctx));
        host
    }

    /// The host's clock: monotonic nanoseconds since [`NodeHost::start`].
    fn now(&self) -> Time {
        Time(self.started.elapsed().as_nanos() as u64)
    }

    /// Runs one callback with a fresh [`Context`] and flushes the
    /// resulting effects (the send-after-return discipline that makes
    /// persist-before-send hold; see the module docs).
    fn callback<R>(&mut self, f: impl FnOnce(&mut A, &mut Context<'_, A::Msg>) -> R) -> R {
        let mut effects = std::mem::take(&mut self.effects);
        let self_id = self.transport.local_id();
        let n_actors = self.transport.n_actors();
        let now = self.now();
        let out = {
            let mut ctx = Context {
                now,
                self_id,
                n_actors,
                rng: &mut self.rng,
                effects: &mut effects,
                next_timer: &mut self.next_timer,
            };
            f(&mut self.actor, &mut ctx)
        };
        for e in effects.drain(..) {
            match e {
                Effect::Send { to, msg, bytes } => {
                    self.metrics.record_untimed_send(
                        msg.kind(),
                        bytes,
                        self_id,
                        to,
                        msg.object_key(),
                    );
                    self.transport.send(to, msg);
                }
                Effect::SetTimer { id, after, tag } => self.timers.push(now + after, id.0, tag),
                Effect::CancelTimer { id } => {
                    // Already fired: nothing to cancel.
                    let _ = self.timers.take_seq(id.0);
                }
                Effect::CrashSelf => self.running = false,
                Effect::Counter { key, add } => self.metrics.record_counter(key, add),
                Effect::Sample { key, value } => self.metrics.record_sample(key, value),
            }
        }
        self.effects = effects;
        out
    }

    /// Waits up to `timeout` — or until the next timer is due, if that is
    /// sooner — for one message and dispatches it; if the wait comes back
    /// empty and a timer is due, fires that timer instead (one per call; a
    /// ready message always goes first, see the module docs). Returns what
    /// happened; once [`Step::Stopped`] has been returned the host
    /// delivers nothing further (the crash model: a dead process's inbound
    /// traffic is dropped).
    pub fn step(&mut self, timeout: Duration) -> Step {
        if !self.running {
            return Step::Stopped;
        }
        let due = self.timers.next_key().map(|(at, _)| at);
        let wait = match due {
            Some(at) => timeout.min(Duration::from_nanos(at.0.saturating_sub(self.now().0))),
            None => timeout,
        };
        let step = match self.transport.recv_timeout(wait) {
            Some((from, msg)) => {
                self.callback(|a, ctx| a.on_message(from, msg, ctx));
                Step::Delivered
            }
            None => match due {
                Some(at) if at <= self.now() => {
                    let (_, _, tag) = self.timers.pop().expect("peeked above");
                    self.callback(|a, ctx| a.on_timer(tag, ctx));
                    Step::TimerFired
                }
                _ => return Step::Idle,
            },
        };
        if self.running {
            step
        } else {
            Step::Stopped
        }
    }

    /// Keeps stepping until the fabric has been quiet — no delivery, no
    /// timer due — for `idle` (or the actor stopped). The localhost
    /// analogue of the DES's run-to-quiescence, useful for draining stray
    /// acks before a measurement boundary.
    pub fn run_until_idle(&mut self, idle: Duration) {
        while matches!(self.step(idle), Step::Delivered | Step::TimerFired) {}
    }

    /// Runs `f` against the actor with a live [`Context`] (for starting
    /// client operations, invoking transfers, …) and flushes the effects
    /// it requested. The transport-runtime counterpart of
    /// `World::with_actor_ctx`.
    pub fn with_actor<R>(&mut self, f: impl FnOnce(&mut A, &mut Context<'_, A::Msg>) -> R) -> R {
        self.callback(f)
    }

    /// The hosted actor (read-only; mutate through
    /// [`NodeHost::with_actor`] so effects are flushed).
    pub fn actor(&self) -> &A {
        &self.actor
    }

    /// Send-side accounting, metered through [`Message::wire_size`] — the
    /// same quantity the DES records and, for a message with a codec, the
    /// frame bytes a socket transport writes.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The underlying transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Whether the actor is still live (has not crashed itself).
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// Tears the host apart, returning the actor and transport (final
    /// inspection, transport-level metric harvesting).
    pub fn into_parts(self) -> (A, T) {
        (self.actor, self.transport)
    }
}

/// In-process [`Transport`] over `std::sync::mpsc` channels: the minimal
/// implementation of the seam, used as the reference double in
/// transport-generic tests and doc examples. One mesh = `n` transports,
/// each owning its receiver and a sender to every peer.
///
/// Messages never drop (no process can die), so this models the crash-free
/// asynchronous network; FIFO per link follows from channel FIFO.
pub struct ChannelTransport<M> {
    me: ActorId,
    n: usize,
    peers: Vec<mpsc::Sender<(ActorId, M)>>,
    rx: mpsc::Receiver<(ActorId, M)>,
}

impl<M: Send> ChannelTransport<M> {
    /// Builds a fully connected mesh of `n` transports; element `i` speaks
    /// for [`ActorId`]`(i)`.
    pub fn mesh(n: usize) -> Vec<ChannelTransport<M>> {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| mpsc::channel()).unzip();
        rxs.into_iter()
            .enumerate()
            .map(|(i, rx)| ChannelTransport {
                me: ActorId(i),
                n,
                peers: txs.clone(),
                rx,
            })
            .collect()
    }
}

impl<M: Send> Transport<M> for ChannelTransport<M> {
    fn local_id(&self) -> ActorId {
        self.me
    }

    fn n_actors(&self) -> usize {
        self.n
    }

    fn send(&mut self, to: ActorId, msg: M) {
        // A closed receiver is a dead peer: the message is dropped, per
        // the crash model.
        let _ = self.peers[to.index()].send((self.me, msg));
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(ActorId, M)> {
        self.rx.recv_timeout(timeout).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    #[derive(Clone, Debug)]
    enum Ping {
        Hit,
        Report,
        Count(u64),
    }
    impl Message for Ping {}

    struct Counter {
        hits: u64,
        reported: Option<u64>,
    }

    impl Actor for Counter {
        type Msg = Ping;
        fn on_message(&mut self, from: ActorId, msg: Ping, ctx: &mut Context<'_, Ping>) {
            match msg {
                Ping::Hit => self.hits += 1,
                Ping::Report => ctx.send(from, Ping::Count(self.hits)),
                Ping::Count(c) => self.reported = Some(c),
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn host_pumps_actor_over_channel_mesh() {
        let mut mesh = ChannelTransport::mesh(2);
        let t1 = mesh.pop().unwrap();
        let t0 = mesh.pop().unwrap();
        let mut h0 = NodeHost::start(
            Counter {
                hits: 0,
                reported: None,
            },
            t0,
            1,
        );
        let mut h1 = NodeHost::start(
            Counter {
                hits: 0,
                reported: None,
            },
            t1,
            1,
        );
        h1.with_actor(|_, ctx| {
            for _ in 0..10 {
                ctx.send(ActorId(0), Ping::Hit);
            }
            ctx.send(ActorId(0), Ping::Report);
        });
        for _ in 0..11 {
            assert_eq!(h0.step(Duration::from_secs(1)), Step::Delivered);
        }
        assert_eq!(h1.step(Duration::from_secs(1)), Step::Delivered);
        assert_eq!(h1.actor().reported, Some(10));
        // Sends are wire_size-metered, same as in the DES.
        assert_eq!(h1.metrics().messages_sent, 11);
        assert_eq!(h0.metrics().sent_of_kind("msg"), 1);
    }

    #[test]
    fn crash_self_stops_the_host() {
        struct Quitter;
        impl Actor for Quitter {
            type Msg = Ping;
            fn on_message(&mut self, _f: ActorId, _m: Ping, ctx: &mut Context<'_, Ping>) {
                ctx.crash_self();
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut mesh = ChannelTransport::mesh(1);
        let t = mesh.pop().unwrap();
        let mut h = NodeHost::start(Quitter, t, 3);
        h.with_actor(|_, ctx| ctx.send(ActorId(0), Ping::Hit));
        assert!(h.is_running());
        assert_eq!(h.step(Duration::from_secs(1)), Step::Stopped);
        assert_eq!(h.step(Duration::from_millis(1)), Step::Stopped);
        assert!(!h.is_running());
    }

    #[test]
    fn idle_when_quiet() {
        let mut mesh = ChannelTransport::<Ping>::mesh(1);
        let t = mesh.pop().unwrap();
        let mut h = NodeHost::start(
            Counter {
                hits: 0,
                reported: None,
            },
            t,
            0,
        );
        assert_eq!(h.step(Duration::from_millis(5)), Step::Idle);
    }

    /// What reached an [`Alarm`]: a message, or a timer's tag with the
    /// host's clock at the firing.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Msg,
        Timer(u64, Time),
    }

    /// Logs what reaches it, in order.
    #[derive(Default)]
    struct Alarm {
        log: Vec<Seen>,
    }

    impl Actor for Alarm {
        type Msg = Ping;
        fn on_message(&mut self, _from: ActorId, _msg: Ping, _ctx: &mut Context<'_, Ping>) {
            self.log.push(Seen::Msg);
        }
        fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, Ping>) {
            self.log.push(Seen::Timer(tag, ctx.now()));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn alarm_host() -> NodeHost<Alarm, ChannelTransport<Ping>> {
        let t = ChannelTransport::mesh(1).pop().unwrap();
        NodeHost::start(Alarm::default(), t, 0)
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn a_timer_fires_once_its_deadline_has_passed() {
        let mut h = alarm_host();
        let armed = h.with_actor(|_, ctx| {
            ctx.set_timer(2 * MS, 7);
            ctx.now()
        });
        // The wait is cut to the deadline, far short of the step's own.
        let started = Instant::now();
        assert_eq!(h.step(Duration::from_secs(30)), Step::TimerFired);
        assert!(started.elapsed() < Duration::from_secs(10));
        let [Seen::Timer(7, fired)] = h.actor().log[..] else {
            panic!("one firing of tag 7, got {:?}", h.actor().log);
        };
        assert!(
            fired.0 >= armed.0 + 2 * MS,
            "fired at {fired:?}, armed at {armed:?}"
        );
        assert_eq!(
            h.step(Duration::from_millis(5)),
            Step::Idle,
            "it fires once"
        );
    }

    #[test]
    fn a_cancelled_timer_does_not_fire() {
        let mut h = alarm_host();
        let (first, second) =
            h.with_actor(|_, ctx| (ctx.set_timer(MS, 1), ctx.set_timer(2 * MS, 2)));
        h.with_actor(|_, ctx| ctx.cancel_timer(first));
        assert_eq!(h.step(Duration::from_secs(30)), Step::TimerFired);
        assert_eq!(h.step(Duration::from_millis(5)), Step::Idle);
        assert!(matches!(h.actor().log[..], [Seen::Timer(2, _)]));
        // Cancelling what has fired already is a no-op.
        h.with_actor(|_, ctx| ctx.cancel_timer(second));
        h.run_until_idle(Duration::from_millis(1));
        assert_eq!(h.actor().log.len(), 1);
    }

    #[test]
    fn a_ready_frame_outranks_an_overdue_timer() {
        let mut h = alarm_host();
        h.with_actor(|_, ctx| {
            ctx.set_timer(MS, 9);
            ctx.send(ActorId(0), Ping::Hit);
        });
        // Both are due by now — as after a send that blocked in a dial.
        std::thread::sleep(Duration::from_millis(3));
        assert_eq!(h.step(Duration::from_secs(30)), Step::Delivered);
        assert_eq!(h.step(Duration::from_secs(30)), Step::TimerFired);
        assert!(matches!(h.actor().log[..], [Seen::Msg, Seen::Timer(9, _)]));
    }
}
