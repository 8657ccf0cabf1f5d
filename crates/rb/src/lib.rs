//! # awr-rb — uniform reliable broadcast for crash-prone systems
//!
//! Algorithm 4 of the paper broadcasts each transfer's change pair with a
//! *reliable broadcast* primitive (citing Hadzilacos–Toueg). This crate
//! provides the classic eager-relay construction for the crash model:
//!
//! * **RB-broadcast(m)**: send `m` to every process (including yourself);
//! * **on first receipt of m**: relay `m` to every process, then deliver.
//!
//! Guarantees (with reliable links, any number of crash faults):
//!
//! * **Validity** — if a correct process broadcasts `m`, it delivers `m`;
//! * **Agreement (uniform)** — if *any* process delivers `m`, every correct
//!   process eventually delivers `m` (even if the origin crashed mid-send);
//! * **Integrity** — every process delivers `m` at most once, and only if
//!   it was broadcast.
//!
//! [`RbEngine`] is an embeddable component: protocols own one, wrap
//! [`RbEnvelope`]s into their own message enums, and call
//! [`RbEngine::on_envelope`] on receipt. This keeps one network (and one
//! adversary) for the whole protocol stack instead of layering actors.
//!
//! # Examples
//!
//! The typical embedding is:
//!
//! ```ignore
//! match msg {
//!     MyMsg::Rb(env) => {
//!         if let Some(payload) = self.rb.on_envelope(env, ctx, MyMsg::Rb) {
//!             self.handle_delivery(payload, ctx);
//!         }
//!     }
//!     // ... other protocol messages
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashSet;
use std::fmt;

use awr_sim::{ActorId, Context, Message};

/// A broadcast instance on the wire: the origin's id, the origin-local
/// sequence number (deduplication key), and the payload.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct RbEnvelope<P> {
    /// The process that invoked `RB-broadcast`.
    pub origin: ActorId,
    /// Origin-local sequence number of the broadcast.
    pub seq: u64,
    /// The broadcast content.
    pub payload: P,
}

impl<P: fmt::Debug> fmt::Debug for RbEnvelope<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RB[{}#{} {:?}]", self.origin, self.seq, self.payload)
    }
}

/// Per-process state of the eager-relay uniform reliable broadcast.
///
/// One engine per actor. The engine does not know the enclosing protocol's
/// message type; callers pass a `wrap` function that injects an
/// [`RbEnvelope`] into their own message enum.
#[derive(Debug)]
pub struct RbEngine<P> {
    self_id: ActorId,
    /// All actor ids that participate in relays (typically all servers).
    members: Vec<ActorId>,
    seen: HashSet<(ActorId, u64)>,
    next_seq: u64,
    delivered_count: u64,
    _marker: std::marker::PhantomData<P>,
}

impl<P: Clone + fmt::Debug + Send + 'static> RbEngine<P> {
    /// Creates an engine for `self_id`, relaying among `members`.
    pub fn new(self_id: ActorId, members: Vec<ActorId>) -> RbEngine<P> {
        RbEngine {
            self_id,
            members,
            seen: HashSet::new(),
            next_seq: 0,
            delivered_count: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// The number of payloads this engine has delivered.
    pub fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    /// Advances the broadcast sequence to at least `seq` — the crash
    /// recovery hook. Deduplication is keyed by `(origin, seq)`, so a
    /// rebooted process that restarted its sequence at 0 would have every
    /// fresh broadcast swallowed as a duplicate of a pre-crash envelope;
    /// callers resume past an upper bound on the sequences they could have
    /// used (gaps are harmless — delivery is dedup-only, not ordered).
    pub fn resume_at(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }

    /// A canonical digest of this engine's logical state (sequence cursor
    /// and sorted dedup set), for the model-checking explorer.
    pub fn state_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.next_seq.hash(&mut h);
        self.delivered_count.hash(&mut h);
        let mut seen: Vec<(usize, u64)> = self.seen.iter().map(|(a, s)| (a.index(), *s)).collect();
        seen.sort_unstable();
        seen.hash(&mut h);
        h.finish()
    }

    /// RB-broadcasts `payload`. Sends the envelope to every *other* member
    /// and delivers locally at once (the local delivery is the return
    /// value — handle it exactly like a delivery from the network).
    pub fn broadcast<M: Message>(
        &mut self,
        payload: P,
        ctx: &mut Context<'_, M>,
        wrap: impl Fn(RbEnvelope<P>) -> M,
    ) -> P {
        #[cfg(feature = "mutate")]
        let seq =
            if awr_sim::mutate::armed(awr_sim::mutate::Mutation::ReuseRbSeq) && self.next_seq > 0 {
                // MUTATION: reuse the previous sequence number — every peer's
                // dedup set already contains (origin, seq), so this broadcast
                // is swallowed network-wide.
                self.next_seq - 1
            } else {
                self.next_seq
            };
        #[cfg(not(feature = "mutate"))]
        let seq = self.next_seq;
        let env = RbEnvelope {
            origin: self.self_id,
            seq,
            payload: payload.clone(),
        };
        self.next_seq = self.next_seq.max(seq + 1);
        self.seen.insert((env.origin, env.seq));
        self.delivered_count += 1;
        for &m in &self.members {
            if m != self.self_id {
                ctx.send(m, wrap(env.clone()));
            }
        }
        payload
    }

    /// Processes an incoming envelope. On first receipt, relays it to every
    /// other member and returns `Some(payload)` (the delivery); duplicate
    /// receipts return `None`.
    pub fn on_envelope<M: Message>(
        &mut self,
        env: RbEnvelope<P>,
        ctx: &mut Context<'_, M>,
        wrap: impl Fn(RbEnvelope<P>) -> M,
    ) -> Option<P> {
        if !self.seen.insert((env.origin, env.seq)) {
            return None;
        }
        for &m in &self.members {
            if m != self.self_id && m != env.origin {
                ctx.send(m, wrap(env.clone()));
            }
        }
        self.delivered_count += 1;
        Some(env.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awr_sim::{Actor, ActorId, Message, UniformLatency, World};
    use std::any::Any;

    #[derive(Clone, Debug)]
    enum Msg {
        Rb(RbEnvelope<String>),
        /// A "broken" direct send used to model a crash mid-broadcast: the
        /// origin manually sends the envelope to a subset and crashes.
        Partial(RbEnvelope<String>),
    }
    impl Message for Msg {
        fn kind(&self) -> &'static str {
            "rb"
        }
    }

    struct Node {
        rb: RbEngine<String>,
        delivered: Vec<String>,
        /// If set on actor 0: broadcast this payload on start.
        broadcast_on_start: Option<String>,
        /// If set: send the envelope to only this many peers, then crash.
        partial_then_crash: Option<usize>,
    }

    impl Node {
        fn new(id: usize, n: usize) -> Node {
            Node {
                rb: RbEngine::new(ActorId(id), (0..n).map(ActorId).collect()),
                delivered: Vec::new(),
                broadcast_on_start: None,
                partial_then_crash: None,
            }
        }
    }

    impl Actor for Node {
        type Msg = Msg;

        fn on_start(&mut self, ctx: &mut awr_sim::Context<'_, Msg>) {
            if let Some(k) = self.partial_then_crash {
                // Crash mid-broadcast: envelope reaches only k peers.
                let env = RbEnvelope {
                    origin: ctx.id(),
                    seq: 0,
                    payload: "half-done".to_string(),
                };
                let n = ctx.n_actors();
                for i in 0..n {
                    if ActorId(i) != ctx.id() && i <= k {
                        ctx.send(ActorId(i), Msg::Partial(env.clone()));
                    }
                }
                ctx.crash_self();
            } else if let Some(p) = self.broadcast_on_start.take() {
                let delivered = self.rb.broadcast(p, ctx, Msg::Rb);
                self.delivered.push(delivered);
            }
        }

        fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut awr_sim::Context<'_, Msg>) {
            let env = match msg {
                Msg::Rb(e) | Msg::Partial(e) => e,
            };
            if let Some(p) = self.rb.on_envelope(env, ctx, Msg::Rb) {
                self.delivered.push(p);
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn build(n: usize, seed: u64) -> World<Msg> {
        let mut w = World::new(seed, UniformLatency::new(1, 100_000));
        for i in 0..n {
            w.add_actor(Node::new(i, n));
        }
        w
    }

    #[test]
    fn validity_and_agreement_no_faults() {
        let mut w = build(5, 1);
        w.actor_mut::<Node>(ActorId(0)).unwrap().broadcast_on_start = Some("hello".into());
        w.run_to_quiescence();
        for i in 0..5 {
            let node = w.actor::<Node>(ActorId(i)).unwrap();
            assert_eq!(node.delivered, vec!["hello".to_string()], "actor {i}");
        }
    }

    #[test]
    fn integrity_no_duplicates_under_heavy_reordering() {
        for seed in 0..20 {
            let mut w = build(6, seed);
            for i in 0..3 {
                w.actor_mut::<Node>(ActorId(i)).unwrap().broadcast_on_start = Some(format!("m{i}"));
            }
            w.run_to_quiescence();
            for i in 0..6 {
                let node = w.actor::<Node>(ActorId(i)).unwrap();
                assert_eq!(node.delivered.len(), 3, "seed {seed} actor {i}");
                let mut sorted = node.delivered.clone();
                sorted.sort();
                assert_eq!(sorted, vec!["m0", "m1", "m2"]);
            }
        }
    }

    #[test]
    fn uniform_agreement_crash_mid_broadcast() {
        // Origin crashes after the envelope reaches a single peer. The
        // eager relay must still deliver to every correct process.
        for seed in 0..20 {
            let mut w = build(5, seed);
            w.actor_mut::<Node>(ActorId(0)).unwrap().partial_then_crash = Some(1);
            w.run_to_quiescence();
            for i in 1..5 {
                let node = w.actor::<Node>(ActorId(i)).unwrap();
                assert_eq!(
                    node.delivered,
                    vec!["half-done".to_string()],
                    "seed {seed} actor {i}"
                );
            }
        }
    }

    #[test]
    fn agreement_with_extra_crashes() {
        // Origin partial-crashes AND one relay may crash mid-run; remaining
        // correct processes must agree (uniformity).
        for seed in 0..20 {
            let mut w = build(6, seed);
            w.actor_mut::<Node>(ActorId(0)).unwrap().partial_then_crash = Some(1);
            if seed % 2 == 0 {
                w.schedule_crash(ActorId(2), awr_sim::Time(50_000));
            }
            w.run_to_quiescence();
            let mut delivered_by_correct = Vec::new();
            for i in 1..6 {
                if w.is_crashed(ActorId(i)) {
                    continue;
                }
                let node = w.actor::<Node>(ActorId(i)).unwrap();
                delivered_by_correct.push(node.delivered.clone());
            }
            let first = &delivered_by_correct[0];
            for d in &delivered_by_correct {
                assert_eq!(d, first, "seed {seed}");
            }
        }
    }

    #[test]
    fn delivered_count_tracks() {
        let mut w = build(3, 9);
        w.actor_mut::<Node>(ActorId(0)).unwrap().broadcast_on_start = Some("x".into());
        w.run_to_quiescence();
        for i in 0..3 {
            assert_eq!(w.actor::<Node>(ActorId(i)).unwrap().rb.delivered_count(), 1);
        }
    }
}
