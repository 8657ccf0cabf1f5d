//! A real-threads runtime for the same [`Actor`] trait.
//!
//! The discrete-event [`crate::World`] is the reference environment (it is
//! deterministic and supports adversaries), but wall-clock benchmarks want
//! actual parallelism. [`ThreadedSystem`] runs each actor on its own thread
//! connected by crossbeam channels. Message delivery is FIFO per link and
//! as fast as the OS allows; there is no virtual time and timers are not
//! supported (none of the paper's protocols need them).
//!
//! Crash/restart fault injection mirrors the DES: [`ThreadedSystem::kill`]
//! tears an actor's thread down and [`ThreadedSystem::restart`] rebuilds it
//! (typically from a durable store shared with the dead incarnation).
//! Because a thread cannot be killed mid-message, a kill is a stop marker:
//! messages already queued ahead of it are still processed, while messages
//! arriving during the downtime are discarded when the actor restarts —
//! a best-effort rendition of the DES drop-while-crashed rule.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::actor::{Actor, ActorId, Context, Effect, Message};
use crate::metrics::Metrics;

enum Envelope<M> {
    Msg { from: ActorId, msg: M },
    Stop,
}

type Channel<M> = (Sender<Envelope<M>>, Receiver<Envelope<M>>);
type Callback<'cb, M> = dyn FnMut(&mut dyn Actor<Msg = M>, &mut Context<'_, M>) + 'cb;

/// Run-wide send accounting shared by every actor thread. Totals are
/// lock-free atomics updated per send; everything else is a [`Metrics`]
/// each thread keeps for itself and merges here, under the lock, only when
/// it exits.
#[derive(Default)]
struct SharedCounters {
    messages_sent: AtomicU64,
    bytes_sent: AtomicU64,
    merged: Mutex<Metrics>,
}

impl SharedCounters {
    fn record_totals(&self, bytes: usize) {
        self.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn merged(&self) -> MutexGuard<'_, Metrics> {
        self.merged.lock().expect("metrics mutex poisoned")
    }
}

/// A cloneable handle onto a [`ThreadedSystem`] run's message and byte
/// accounting, usable before and after [`ThreadedSystem::shutdown`].
///
/// Totals ([`Metrics::messages_sent`], [`Metrics::bytes_sent`]) are live at
/// any time; the per-kind breakdowns are merged when each actor thread
/// exits, so they are complete once `shutdown` returns.
#[derive(Clone)]
pub struct ThreadedMetrics {
    shared: Arc<SharedCounters>,
}

impl ThreadedMetrics {
    /// Snapshots the counters into a [`Metrics`] (fields the threaded
    /// runtime does not track — virtual time, timers, link busy time —
    /// stay zero).
    pub fn snapshot(&self) -> Metrics {
        let mut m = self.shared.merged().clone();
        m.messages_sent = self.shared.messages_sent.load(Ordering::Relaxed);
        m.bytes_sent = self.shared.bytes_sent.load(Ordering::Relaxed);
        m
    }
}

/// A running threaded actor system.
///
/// # Examples
///
/// ```
/// use awr_sim::{Actor, ActorId, Context, Message, ThreadedSystem};
///
/// #[derive(Clone, Debug)]
/// struct Inc(u64);
/// impl Message for Inc {}
///
/// struct Counter { total: u64 }
/// impl Actor for Counter {
///     type Msg = Inc;
///     fn on_message(&mut self, _f: ActorId, m: Inc, _c: &mut Context<'_, Inc>) {
///         self.total += m.0;
///     }
///     fn as_any(&self) -> &dyn std::any::Any { self }
///     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
/// }
///
/// let sys = ThreadedSystem::spawn(vec![Counter { total: 0 }], 1);
/// for _ in 0..100 { sys.inject(ActorId(0), ActorId(0), Inc(1)); }
/// let actors = sys.shutdown();
/// assert_eq!(actors[0].as_any().downcast_ref::<Counter>().unwrap().total, 100);
/// ```
pub struct ThreadedSystem<M: Message> {
    senders: Vec<Sender<Envelope<M>>>,
    handles: Vec<Option<JoinHandle<Parked<M>>>>,
    /// Actors joined by [`ThreadedSystem::kill`] and not yet restarted,
    /// kept (with their receiver, so the channel stays open and peers'
    /// cloned senders remain valid) until restart or shutdown.
    parked: Vec<Option<Parked<M>>>,
    counters: Arc<SharedCounters>,
    seed: u64,
}

/// What an actor thread yields on exit: the actor for inspection plus its
/// receiver, which keeps the channel alive across a downtime and lets
/// [`ThreadedSystem::restart`] drain (drop) whatever arrived while dead.
type Parked<M> = (Box<dyn Actor<Msg = M> + Send>, Receiver<Envelope<M>>);

/// Runs one actor on a fresh thread: `on_start`, then the delivery loop
/// until a stop marker, crash, or channel closure; merges the thread-local
/// tallies and returns the actor and its receiver on exit.
fn spawn_actor_thread<M: Message + Send>(
    i: usize,
    n: usize,
    seed: u64,
    mut actor: Box<dyn Actor<Msg = M> + Send>,
    rx: Receiver<Envelope<M>>,
    peer_senders: Vec<Sender<Envelope<M>>>,
    shared: Arc<SharedCounters>,
) -> JoinHandle<Parked<M>> {
    std::thread::spawn(move || {
        let self_id = ActorId(i);
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E3779B9));
        let mut next_timer = 0u64;
        // The breakdowns stay thread-local and merge into the shared
        // `Metrics` once, on exit, to keep the send path lock-free.
        let mut local = Metrics::default();
        let mut run_cb = |actor: &mut Box<dyn Actor<Msg = M> + Send>, cb: &mut Callback<'_, M>| {
            let mut effects: Vec<Effect<M>> = Vec::new();
            {
                let mut ctx = Context {
                    now: crate::time::Time::ZERO,
                    self_id,
                    n_actors: n,
                    rng: &mut rng,
                    effects: &mut effects,
                    next_timer: &mut next_timer,
                };
                cb(actor.as_mut(), &mut ctx);
            }
            let mut crash = false;
            for e in effects {
                match e {
                    Effect::Send { to, msg } => {
                        let bytes = msg.wire_size();
                        shared.record_totals(bytes);
                        local.record_untimed_send(msg.kind(), bytes, self_id, to, msg.object_key());
                        // A send to a stopped peer is a dropped
                        // message, matching the crash model.
                        let _ = peer_senders[to.index()].send(Envelope::Msg { from: self_id, msg });
                    }
                    Effect::SetTimer { .. } | Effect::CancelTimer { .. } => {
                        // Timers are a DES-only facility.
                    }
                    Effect::CrashSelf => crash = true,
                    Effect::Counter { key, add } => local.record_counter(key, add),
                    Effect::Sample { key, value } => local.record_sample(key, value),
                }
            }
            crash
        };

        let mut crashed = run_cb(&mut actor, &mut |a, ctx| a.on_start(ctx));
        while !crashed {
            match rx.recv() {
                Ok(Envelope::Msg { from, msg }) => {
                    // Move the owned message into the (single)
                    // callback invocation instead of cloning it:
                    // for Arc-backed payloads the clone+drop pair
                    // is an avoidable hit on a refcount shared
                    // with every other actor thread (see
                    // docs/THREADED_NOTES.md).
                    let mut slot = Some(msg);
                    crashed = run_cb(&mut actor, &mut |a, ctx| {
                        a.on_message(from, slot.take().expect("delivered once"), ctx)
                    });
                }
                Ok(Envelope::Stop) | Err(_) => break,
            }
        }
        // Drain silently after crash/stop until Stop arrives so
        // senders never block (channels are unbounded anyway).
        shared.merged().absorb(&local);
        (actor, rx)
    })
}

impl<M: Message + Send> ThreadedSystem<M> {
    /// Spawns one thread per actor. `on_start` runs on each thread before
    /// any delivery.
    pub fn spawn<A>(actors: Vec<A>, seed: u64) -> ThreadedSystem<M>
    where
        A: Actor<Msg = M> + Send,
    {
        let boxed: Vec<Box<dyn Actor<Msg = M> + Send>> = actors
            .into_iter()
            .map(|a| Box::new(a) as Box<dyn Actor<Msg = M> + Send>)
            .collect();
        Self::spawn_boxed(boxed, seed)
    }

    /// Spawns heterogeneous actors (e.g. servers and clients).
    pub fn spawn_boxed(
        actors: Vec<Box<dyn Actor<Msg = M> + Send>>,
        seed: u64,
    ) -> ThreadedSystem<M> {
        let n = actors.len();
        let channels: Vec<Channel<M>> = (0..n).map(|_| unbounded()).collect();
        let senders: Vec<Sender<Envelope<M>>> = channels.iter().map(|(s, _)| s.clone()).collect();
        let counters = Arc::new(SharedCounters::default());

        let mut handles = Vec::with_capacity(n);
        let mut parked = Vec::with_capacity(n);
        for (i, (actor, (_, rx))) in actors.into_iter().zip(channels).enumerate() {
            handles.push(Some(spawn_actor_thread(
                i,
                n,
                seed,
                actor,
                rx,
                senders.clone(),
                Arc::clone(&counters),
            )));
            parked.push(None);
        }

        ThreadedSystem {
            senders,
            handles,
            parked,
            counters,
            seed,
        }
    }

    /// Tears down an actor's thread (fault injection). The stop marker is
    /// FIFO behind already-queued messages, so those are still processed;
    /// messages arriving *after* the kill are discarded when the actor is
    /// [`restart`](ThreadedSystem::restart)ed. The joined actor is parked
    /// so [`ThreadedSystem::shutdown`] still returns it if it never
    /// restarts. No-op if the actor is already down.
    pub fn kill(&mut self, a: ActorId) {
        let i = a.index();
        if let Some(handle) = self.handles[i].take() {
            let _ = self.senders[i].send(Envelope::Stop);
            self.parked[i] = Some(handle.join().expect("actor thread panicked"));
        }
    }

    /// Rebuilds a killed actor on a fresh thread, first discarding every
    /// message that arrived during the downtime (the crash model drops
    /// in-flight traffic to a dead actor). The replacement typically
    /// recovers its state from a durable store shared with the dead
    /// incarnation; its `on_start` runs before any delivery.
    ///
    /// # Panics
    ///
    /// Panics if the actor is still running.
    pub fn restart(&mut self, a: ActorId, actor: Box<dyn Actor<Msg = M> + Send>) {
        let i = a.index();
        assert!(
            self.handles[i].is_none(),
            "restart of a running actor {a}; kill it first"
        );
        let (_, rx) = self.parked[i].take().expect("killed actor was parked");
        while rx.try_recv().is_ok() {}
        self.handles[i] = Some(spawn_actor_thread(
            i,
            self.senders.len(),
            self.seed,
            actor,
            rx,
            self.senders.clone(),
            Arc::clone(&self.counters),
        ));
    }

    /// Whether the actor is currently torn down (killed, not restarted).
    pub fn is_down(&self, a: ActorId) -> bool {
        self.handles[a.index()].is_none()
    }

    /// Number of actors.
    pub fn n_actors(&self) -> usize {
        self.senders.len()
    }

    /// Injects a message as if sent by `from`.
    pub fn inject(&self, from: ActorId, to: ActorId, msg: M) {
        // Injection is rare enough that one lock per call is fine.
        let bytes = msg.wire_size();
        self.counters.record_totals(bytes);
        self.counters
            .merged()
            .record_untimed_send(msg.kind(), bytes, from, to, msg.object_key());
        let _ = self.senders[to.index()].send(Envelope::Msg { from, msg });
    }

    /// A cloneable handle onto this run's message/byte accounting. Keep it
    /// across [`ThreadedSystem::shutdown`] to read the final counters.
    pub fn metrics(&self) -> ThreadedMetrics {
        ThreadedMetrics {
            shared: Arc::clone(&self.counters),
        }
    }

    /// Stops all actors after their queued messages *before the stop marker*
    /// are processed, then joins and returns them for inspection.
    pub fn shutdown(self) -> Vec<Box<dyn Actor<Msg = M> + Send>> {
        for (s, h) in self.senders.iter().zip(&self.handles) {
            if h.is_some() {
                let _ = s.send(Envelope::Stop);
            }
        }
        self.handles
            .into_iter()
            .zip(self.parked)
            .map(|(h, p)| match h {
                Some(h) => h.join().expect("actor thread panicked").0,
                None => p.expect("killed actor was parked").0,
            })
            .collect()
    }
}

/// Convenience: downcasts a boxed actor returned by
/// [`ThreadedSystem::shutdown`].
pub fn downcast_actor<T: 'static, M: Message>(b: &dyn Actor<Msg = M>) -> Option<&T> {
    let any: &dyn Any = b.as_any();
    any.downcast_ref::<T>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Context;

    #[derive(Clone, Debug)]
    enum M2 {
        Hit,
        Report,
        Count(u64),
    }
    impl Message for M2 {}

    struct CounterActor {
        hits: u64,
        reported: Option<u64>,
    }

    impl Actor for CounterActor {
        type Msg = M2;
        fn on_message(&mut self, from: ActorId, msg: M2, ctx: &mut Context<'_, M2>) {
            match msg {
                M2::Hit => self.hits += 1,
                M2::Report => ctx.send(from, M2::Count(self.hits)),
                M2::Count(c) => self.reported = Some(c),
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
    fn threaded_messages_flow() {
        let sys = ThreadedSystem::spawn(
            vec![
                CounterActor {
                    hits: 0,
                    reported: None,
                },
                CounterActor {
                    hits: 0,
                    reported: None,
                },
            ],
            9,
        );
        let metrics = sys.metrics();
        for _ in 0..1000 {
            sys.inject(ActorId(1), ActorId(0), M2::Hit);
        }
        // Ask actor 0 to report back to actor 1 (FIFO per channel ensures
        // the report question arrives after all hits).
        sys.inject(ActorId(1), ActorId(0), M2::Report);
        // Give the report time to land.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let actors = sys.shutdown();
        let a0 = downcast_actor::<CounterActor, M2>(actors[0].as_ref()).unwrap();
        assert_eq!(a0.hits, 1000);
        let a1 = downcast_actor::<CounterActor, M2>(actors[1].as_ref()).unwrap();
        assert_eq!(a1.reported, Some(1000));
        // 1001 injects + actor 0's Count reply are all byte-accounted.
        let m = metrics.snapshot();
        let per_msg = std::mem::size_of::<M2>() as u64;
        assert_eq!(m.messages_sent, 1002);
        assert_eq!(m.bytes_sent, 1002 * per_msg);
        assert_eq!(m.sent_of_kind("msg"), 1002);
        assert_eq!(m.bytes_of_kind("msg"), m.bytes_sent);
        // Per-link attribution: 1001 a1→a0 (injected), one a0→a1 reply.
        assert_eq!(m.bytes_on_link(ActorId(1), ActorId(0)), 1001 * per_msg);
        assert_eq!(m.bytes_on_link(ActorId(0), ActorId(1)), per_msg);
        assert_eq!(m.msgs_on_link(ActorId(1), ActorId(0)), 1001);
        assert_eq!(m.msgs_on_link(ActorId(0), ActorId(1)), 1);
    }

    #[test]
    fn kill_restart_drops_messages_while_down() {
        let mut sys = ThreadedSystem::spawn(
            vec![
                CounterActor {
                    hits: 0,
                    reported: None,
                },
                CounterActor {
                    hits: 0,
                    reported: None,
                },
            ],
            7,
        );
        for _ in 0..10 {
            sys.inject(ActorId(1), ActorId(0), M2::Hit);
        }
        // The stop marker is FIFO behind the 10 hits, so the dying
        // incarnation still processes them.
        sys.kill(ActorId(0));
        assert!(sys.is_down(ActorId(0)));
        // Traffic to a dead actor is dropped at restart.
        for _ in 0..5 {
            sys.inject(ActorId(1), ActorId(0), M2::Hit);
        }
        // The replacement carries "recovered" state in with it.
        sys.restart(
            ActorId(0),
            Box::new(CounterActor {
                hits: 40,
                reported: None,
            }),
        );
        assert!(!sys.is_down(ActorId(0)));
        for _ in 0..3 {
            sys.inject(ActorId(1), ActorId(0), M2::Hit);
        }
        sys.inject(ActorId(1), ActorId(0), M2::Report);
        std::thread::sleep(std::time::Duration::from_millis(100));
        let actors = sys.shutdown();
        let a1 = downcast_actor::<CounterActor, M2>(actors[1].as_ref()).unwrap();
        // 40 recovered + 3 post-restart; the 5 sent while down are gone.
        assert_eq!(a1.reported, Some(43));
    }

    #[test]
    fn kill_parks_actor_for_shutdown() {
        let mut sys = ThreadedSystem::spawn(
            vec![CounterActor {
                hits: 0,
                reported: None,
            }],
            3,
        );
        for _ in 0..3 {
            sys.inject(ActorId(0), ActorId(0), M2::Hit);
        }
        sys.kill(ActorId(0));
        sys.kill(ActorId(0)); // idempotent
        let actors = sys.shutdown();
        let a0 = downcast_actor::<CounterActor, M2>(actors[0].as_ref()).unwrap();
        assert_eq!(a0.hits, 3);
    }

    #[test]
    fn shutdown_without_traffic() {
        let sys = ThreadedSystem::spawn(
            vec![CounterActor {
                hits: 0,
                reported: None,
            }],
            1,
        );
        let actors = sys.shutdown();
        assert_eq!(actors.len(), 1);
    }
}
