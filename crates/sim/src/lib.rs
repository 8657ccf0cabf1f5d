//! # awr-sim — a deterministic simulator for asynchronous message-passing
//!
//! The substrate beneath every protocol in the `awr` workspace. The paper's
//! system model (§II) is an asynchronous message-passing system: a static
//! set of processes, reliable point-to-point links with arbitrary finite
//! delays, and up to `f` crash faults. This crate provides that model twice:
//!
//! * [`World`] — a seeded discrete-event simulation. Deterministic per seed,
//!   with pluggable [`LatencyModel`]s (constant, uniform, WAN matrices) and
//!   composable adversaries ([`TargetedDelay`], [`SlowActors`]) that
//!   reorder and stall but never drop messages.
//!   Crash faults are injected by schedule or immediately, and crashed
//!   actors can be rebuilt and rebooted ([`World::schedule_restart`]) —
//!   [`FaultPlan`] generates whole kill/restart campaigns (scheduled, or
//!   random at a rate).
//! * [`NodeHost`] over a [`Transport`] — the [`transport`] seam: a
//!   [`Transport`] abstracts one node's message fabric and a [`NodeHost`]
//!   pumps the same [`Actor`] over it on wall-clock time. One thread per
//!   `NodeHost` over a [`ChannelTransport`] mesh is the in-process
//!   real-threads runtime; the `awr_net` crate's `TcpTransport` puts one
//!   OS process per actor behind the same host (see `docs/RUNTIME.md` for
//!   the architecture).
//!
//! # The network model: propagation, transmission, serialization
//!
//! Delivery delay is decided by a [`NetworkModel`], which sees each
//! message's [`Message::wire_size`] — for every protocol message, the
//! length of its codec frame, taken once per send call — and splits the
//! delay into three components (recorded per delivery when tracing is
//! on):
//!
//! * **propagation** — the classic [`LatencyModel`] sample (distance,
//!   jitter, adversarial holds);
//! * **transmission** — `wire_size / link bandwidth`, from a
//!   [`BandwidthMatrix`] (per-region-pair bytes/second, mirroring
//!   [`WanMatrix`]);
//! * **queueing** — time waiting for the link: [`BandwidthLinks`] keeps a
//!   per-directed-link (or per-sender-uplink, [`LinkDiscipline`]) FIFO
//!   horizon, so a 12 MB full change set really *occupies* the link and
//!   delays everything queued behind it.
//!
//! Every [`LatencyModel`] is a [`NetworkModel`] via a blanket impl that
//! charges zero transmission — size-oblivious scenarios, tests, and
//! benches run unchanged, and wrapping the same model in
//! [`BandwidthLinks`] with [`UNLIMITED_BANDWIDTH`] reproduces their
//! schedules *exactly* (pinned by `tests/network_equivalence.rs`).
//! Two topology presets cover the interesting regimes: [`geo_network`]
//! (five regions, bandwidth falling with distance) and
//! [`constrained_uplink`] (every sender's outgoing traffic serializes on
//! one modest uplink).
//! [`Metrics`] attributes bytes, transmission time, and delivery-delay
//! components per directed link ([`Metrics::bytes_on_link`],
//! [`Metrics::link_utilization`], [`Metrics::link_delay`]) — the
//! observation inputs of `awr_quorum`'s placement policies.
//!
//! # Cross traffic
//!
//! Real links carry other people's bytes too. The [`workload`] module adds
//! background flows — [`ConstantBitrate`], [`BurstyOnOff`],
//! [`ReassignmentBurst`] — that a [`CrossTraffic`] decorator charges onto a
//! [`BandwidthLinks`] network (via [`BandwidthLinks::occupy`]), so protocol
//! messages queue behind competing traffic. Generators are pure functions
//! of virtual time: an empty flow list reproduces the unwrapped schedule
//! exactly.
//!
//! Protocols are explicit state machines (no async runtime): see the crate
//! `awr-core` for the paper's protocols built on this.
//!
//! # Examples
//!
//! A two-actor echo in a simulated WAN:
//!
//! ```
//! use awr_sim::{five_region_wan, Actor, ActorId, Context, Message, World};
//!
//! #[derive(Clone, Debug)]
//! struct Hello;
//! impl Message for Hello {}
//!
//! struct Greeter { got: bool }
//! impl Actor for Greeter {
//!     type Msg = Hello;
//!     fn on_start(&mut self, ctx: &mut Context<'_, Hello>) {
//!         if ctx.id() == ActorId(0) { ctx.send(ActorId(1), Hello); }
//!     }
//!     fn on_message(&mut self, _f: ActorId, _m: Hello, _c: &mut Context<'_, Hello>) {
//!         self.got = true;
//!     }
//!     fn as_any(&self) -> &dyn std::any::Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
//! }
//!
//! let mut w = World::new(0xA11CE, five_region_wan(2, 0.1));
//! w.add_actor(Greeter { got: false });
//! w.add_actor(Greeter { got: false });
//! w.run_to_quiescence();
//! assert!(w.actor::<Greeter>(ActorId(1)).unwrap().got);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod fault;
mod metrics;
#[cfg(feature = "mutate")]
pub mod mutate;
mod network;
pub mod openloop;
mod rows;
pub mod sched;
mod time;
mod topology;
mod trace;
pub mod transport;
pub mod workload;
mod world;

pub use actor::{Actor, ActorId, Context, Message, TimerId};
pub use fault::{Fault, FaultPlan};
pub use metrics::{LinkDelayStat, LinkStat, Metrics, NameTable, ObjectStat, U64Build, U64Hasher};
pub use network::{
    shared_latency, BandwidthLinks, BandwidthMatrix, ConstantLatency, Delivery, FifoLinks,
    LatencyModel, LinkDiscipline, NetworkModel, SharedLatency, SlowActors, TargetedDelay,
    UniformLatency, WanMatrix, UNLIMITED_BANDWIDTH,
};
pub use openloop::{ArrivalProcess, ArrivalSpec, BurstyArrivals, PoissonArrivals};
pub use sched::{BinaryHeapScheduler, Scheduler, SchedulerKind, TimingWheel};
pub use time::{Nanos, Time, MICRO, MILLI, SECOND};
pub use topology::{
    constrained_uplink, five_region_bandwidth, five_region_matrix, five_region_wan,
    five_region_wan_with_placement, geo_network, Region, GBIT10,
};
pub use trace::{Trace, TraceKind, TraceRecord};
pub use transport::{ChannelTransport, NodeHost, Step, Transport};
pub use workload::{
    BurstyOnOff, ConstantBitrate, CrossTraffic, CrossTrafficStats, Flow, ReassignmentBurst,
    RegimeShift, TrafficGen,
};
pub use world::{PendingEvent, PendingKind, World};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::any::Any;

    #[derive(Clone, Debug)]
    struct Token(u64);
    impl Message for Token {}

    /// Relays each token once to a pseudo-random neighbour; counts receipts.
    struct Relay {
        received: u64,
        budget: u64,
    }

    impl Actor for Relay {
        type Msg = Token;
        fn on_start(&mut self, ctx: &mut Context<'_, Token>) {
            if ctx.id().index() == 0 {
                for i in 0..self.budget {
                    let n = ctx.n_actors();
                    ctx.send(ActorId((i as usize) % n), Token(i));
                }
            }
        }
        fn on_message(&mut self, _f: ActorId, t: Token, ctx: &mut Context<'_, Token>) {
            self.received += 1;
            if t.0 > 0 {
                let n = ctx.n_actors();
                ctx.send(ActorId((t.0 as usize) % n), Token(t.0 - 1));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    proptest! {
        /// Total receipts are schedule-independent: reliable links deliver
        /// everything exactly once, whatever the latency seed.
        #[test]
        fn delivery_count_is_seed_independent(seed in 0u64..500, n in 2usize..6) {
            let run = |seed: u64| {
                let mut w: World<Token> = World::new(seed, UniformLatency::new(1, 10_000));
                for _ in 0..n {
                    w.add_actor(Relay { received: 0, budget: 20 });
                }
                w.run_to_quiescence();
                (0..n).map(|i| w.actor::<Relay>(ActorId(i)).unwrap().received).sum::<u64>()
            };
            prop_assert_eq!(run(seed), run(seed + 12345));
        }

        /// Same seed ⇒ byte-identical schedule (event and message counts).
        #[test]
        fn replay_identical(seed in 0u64..500) {
            let run = |seed: u64| {
                let mut w: World<Token> = World::new(seed, UniformLatency::new(1, 10_000));
                for _ in 0..4 {
                    w.add_actor(Relay { received: 0, budget: 15 });
                }
                w.run_to_quiescence();
                (w.now(), w.metrics().events_processed, w.metrics().messages_sent)
            };
            prop_assert_eq!(run(seed), run(seed));
        }
    }
}
