//! Open-loop load harness: thousands of logical clients offering
//! operations at a target rate, with tail latency recorded per op kind
//! and per object.
//!
//! Every earlier harness drives the protocol *closed-loop*: the next
//! operation starts when the previous one returns, so the offered rate
//! collapses exactly when the system congests and the
//! latency-vs-throughput knee is invisible. Here arrivals come from an
//! [`ArrivalSpec`] (Poisson or bursty on/off) fixed up front:
//!
//! * each [`OpenLoopClient`] owns a private arrival process and a
//!   private op-script RNG — neither touches the simulation RNG, and
//!   neither observes completions, so the arrival sequence for a given
//!   `(spec, seed)` is identical no matter how the system behaves (the
//!   *open-loop invariant*, pinned by [`OpenLoopStats::arrival_hash`]
//!   being latency-model-independent);
//! * arrivals that land while an operation is in flight queue in a
//!   client-side backlog and start FIFO as completions free the slot —
//!   recorded latency is *completion minus arrival*, so queueing delay
//!   is part of the number and the knee shows up in p99/p99.9;
//! * latencies feed mergeable [`hist::Histogram`]s (read, write, and
//!   optionally per object), allocation-free on the record path.
//!
//! The harness wraps a [`StorageHarness`] built with zero built-in
//! clients and adds [`OpenLoopClient`] actors on top, so every
//! server-side facility — durable stores, fault plans,
//! [`PlacementDriver`] ticks, converged-change seeding — works
//! unchanged.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use awr_core::RpConfig;
use awr_sim::{Actor, ActorId, ArrivalProcess, ArrivalSpec, Context, Nanos, NetworkModel, Time};
use awr_types::{ChangeSet, ClientId, ObjectId, ProcessId};
use hist::Histogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dynamic::{DynClient, DynCompletedOp, DynMsg, DynOptions};
use crate::harness::StorageHarness;
use crate::history::{HistOp, History, OpKind};
use crate::placement::PlacementDriver;
use crate::workload::{KeyDistribution, KeySampler};

/// Timer tag reserved for arrival ticks. The embedded [`DynClient`]'s
/// only timers are retry timers tagged with its operation counter — a
/// small integer — so a tag with the top bit set can never collide.
const ARRIVAL_TAG: u64 = 1 << 63;

/// One splitmix64 step — the harness's deterministic seed derivation.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A hash of a few words — the arrival-stream fingerprint: each word is
/// folded in with one [`splitmix64`] step, a bijection of the running
/// hash, so two sequences of equal length that differ in one word never
/// hash equal.
fn hash_words(words: &[u64]) -> u64 {
    words
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &w| splitmix64(h ^ w))
}

/// The workload one open-loop run offers.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopSpec {
    /// Number of logical clients the aggregate load splits across.
    pub n_clients: usize,
    /// Size of the key space.
    pub n_objects: usize,
    /// How keys are drawn per operation.
    pub dist: KeyDistribution,
    /// Fraction of operations that are writes (the rest read).
    pub write_fraction: f64,
    /// The aggregate arrival process (split by Poisson superposition).
    pub arrivals: ArrivalSpec,
    /// Load window: arrivals stop at this virtual time; in-flight and
    /// backlogged operations then drain.
    pub duration: Nanos,
    /// Record a per-object histogram alongside the per-kind ones.
    pub per_object: bool,
    /// Master seed for the world, every arrival process, and every
    /// op script.
    pub seed: u64,
}

/// Shared mutable recording state, one per harness, handed to every
/// client. `Rc<RefCell>` because the [`awr_sim::World`] is
/// single-threaded by construction.
struct RecInner {
    reads: Histogram,
    writes: Histogram,
    per_object: Option<BTreeMap<ObjectId, Histogram>>,
    generated: u64,
    completed: u64,
    arrival_hash: u64,
    max_backlog: usize,
    /// Operations that arrived before this are counted but their latency
    /// is not recorded (see [`OpenLoopHarness::record_from`]).
    record_from: Time,
}

impl RecInner {
    fn new(per_object: bool) -> RecInner {
        RecInner {
            reads: Histogram::new(),
            writes: Histogram::new(),
            per_object: per_object.then(BTreeMap::new),
            generated: 0,
            completed: 0,
            arrival_hash: 0,
            max_backlog: 0,
            record_from: Time::ZERO,
        }
    }
}

/// A snapshot of everything an open-loop run recorded.
#[derive(Clone, Debug)]
pub struct OpenLoopStats {
    /// Operations the arrival processes generated.
    pub generated: u64,
    /// Operations that completed (== `generated` after a full drain).
    pub completed: u64,
    /// Order-insensitive fingerprint of the arrival stream — every
    /// arrival's `(client, time, object, kind)` hashed and summed. Equal
    /// across runs with the same spec and seed *regardless of the
    /// network model or scheduler*: the open-loop invariant.
    pub arrival_hash: u64,
    /// Largest client-side backlog observed on any single client — how
    /// deep the queueing went past the knee.
    pub max_backlog: usize,
    /// Read latency (arrival → completion), nanoseconds, of the reads
    /// that arrived since [`OpenLoopHarness::record_from`] (all by
    /// default).
    pub reads: Histogram,
    /// Write latency (arrival → completion), nanoseconds, likewise.
    pub writes: Histogram,
    /// Per-object latency, if [`OpenLoopSpec::per_object`] was set.
    pub per_object: BTreeMap<ObjectId, Histogram>,
}

impl OpenLoopStats {
    /// Reads and writes merged into one distribution.
    pub fn all(&self) -> Histogram {
        let mut h = self.reads.clone();
        h.merge(&self.writes);
        h
    }
}

/// A logical open-loop client: an embedded [`DynClient`] driven by a
/// private arrival process, with a FIFO backlog for arrivals that land
/// while an operation is in flight.
pub struct OpenLoopClient {
    inner: DynClient<u64>,
    client_ix: u64,
    arrivals: Box<dyn ArrivalProcess>,
    /// Private op script (keys, read/write coin): never touches the
    /// world RNG, so the script is independent of system behaviour.
    script: StdRng,
    sampler: KeySampler,
    write_fraction: f64,
    /// Arrivals waiting for the in-flight slot: `(arrival, object,
    /// write value or None for a read)`.
    backlog: VecDeque<(Time, ObjectId, Option<u64>)>,
    /// The op in flight: `(arrival, object)`.
    inflight: Option<(Time, ObjectId)>,
    seen_completed: usize,
    next_val: u64,
    rec: Rc<RefCell<RecInner>>,
}

impl OpenLoopClient {
    /// Completed-operation records (the raw per-op trace).
    pub fn completed_ops(&self) -> &[DynCompletedOp<u64>] {
        &self.inner.driver.completed
    }

    /// Completed ops as history entries for client index `ci`.
    pub fn history_ops(&self, ci: usize) -> Vec<HistOp<u64>> {
        self.inner.history_ops(ci)
    }

    fn start(
        &mut self,
        arrived: Time,
        obj: ObjectId,
        val: Option<u64>,
        ctx: &mut Context<'_, DynMsg<u64>>,
    ) {
        self.inflight = Some((arrived, obj));
        match val {
            Some(v) => self.inner.begin_write_obj(obj, v, ctx),
            None => self.inner.begin_read_obj(obj, ctx),
        }
    }

    /// After any delegation into the embedded client: if an op just
    /// completed, record its latency and start the next backlogged one.
    fn after_progress(&mut self, ctx: &mut Context<'_, DynMsg<u64>>) {
        let n = self.inner.driver.completed.len();
        if n == self.seen_completed {
            return;
        }
        debug_assert_eq!(n, self.seen_completed + 1, "one op in flight at a time");
        self.seen_completed = n;
        let (arrived, obj) = self
            .inflight
            .take()
            .expect("completion with no op in flight");
        let latency = ctx.now().0.saturating_sub(arrived.0);
        {
            let mut rec = self.rec.borrow_mut();
            rec.completed += 1;
            if arrived >= rec.record_from {
                match self.inner.driver.completed[n - 1].kind {
                    OpKind::Read(_) => rec.reads.record(latency),
                    OpKind::Write(_) => rec.writes.record(latency),
                }
                if let Some(m) = rec.per_object.as_mut() {
                    m.entry(obj).or_default().record(latency);
                }
            }
        }
        if let Some((arrived, obj, val)) = self.backlog.pop_front() {
            self.start(arrived, obj, val, ctx);
        }
    }
}

impl Actor for OpenLoopClient {
    type Msg = DynMsg<u64>;

    fn on_start(&mut self, ctx: &mut Context<'_, DynMsg<u64>>) {
        if let Some(t) = self.arrivals.next_arrival() {
            ctx.set_timer(t.0.saturating_sub(ctx.now().0), ARRIVAL_TAG);
        }
    }

    fn on_message(&mut self, from: ActorId, msg: DynMsg<u64>, ctx: &mut Context<'_, DynMsg<u64>>) {
        Actor::on_message(&mut self.inner, from, msg, ctx);
        self.after_progress(ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, DynMsg<u64>>) {
        if tag != ARRIVAL_TAG {
            // The embedded client's retry timer.
            Actor::on_timer(&mut self.inner, tag, ctx);
            self.after_progress(ctx);
            return;
        }
        let now = ctx.now();
        let obj = self.sampler.sample(&mut self.script);
        let is_write = self.script.random_range(0.0f64..1.0) < self.write_fraction;
        let val = is_write.then(|| {
            self.next_val += 1;
            // Globally unique write values: client index in the top bits.
            (self.client_ix + 1) << 40 | self.next_val
        });
        {
            let mut rec = self.rec.borrow_mut();
            rec.generated += 1;
            // Summed, not chained: insensitive to how same-instant
            // arrivals of different clients interleave.
            rec.arrival_hash = rec.arrival_hash.wrapping_add(hash_words(&[
                self.client_ix,
                now.0,
                obj.key(),
                is_write as u64,
            ]));
        }
        if self.inflight.is_none() {
            self.start(now, obj, val, ctx);
        } else {
            self.backlog.push_back((now, obj, val));
            let depth = self.backlog.len();
            let mut rec = self.rec.borrow_mut();
            rec.max_backlog = rec.max_backlog.max(depth);
        }
        if let Some(t) = self.arrivals.next_arrival() {
            ctx.set_timer(t.0.saturating_sub(now.0), ARRIVAL_TAG);
        }
    }

    fn state_digest(&self) -> Option<u64> {
        Some(hash_words(&[
            self.inner.driver.state_digest(),
            self.backlog.len() as u64,
            self.inflight.is_some() as u64,
            self.next_val,
        ]))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// An open-loop load harness over the dynamic-weight protocol.
pub struct OpenLoopHarness {
    /// The wrapped storage harness (servers only; the open-loop clients
    /// live in `inner.world` but are owned by this layer).
    pub inner: StorageHarness<u64>,
    clients: Vec<ActorId>,
    rec: Rc<RefCell<RecInner>>,
    duration: Nanos,
}

impl OpenLoopHarness {
    /// Builds servers from `cfg` over `network`, then adds
    /// [`OpenLoopClient`]s per `spec`. Arrival and script seeds derive
    /// deterministically from `spec.seed`.
    pub fn build(
        cfg: RpConfig,
        spec: &OpenLoopSpec,
        network: impl NetworkModel + 'static,
        options: DynOptions,
    ) -> OpenLoopHarness {
        assert!(spec.n_clients > 0, "open-loop load needs clients");
        let mut inner = StorageHarness::<u64>::build(cfg.clone(), 0, spec.seed, network, options);
        // Sweep points run millions of ops; the default runaway guard is
        // sized for unit tests.
        inner.world.set_event_limit(4_000_000_000);
        let rec = Rc::new(RefCell::new(RecInner::new(spec.per_object)));
        let sampler = KeySampler::new(spec.n_objects, spec.dist);
        let share = spec.arrivals.split(spec.n_clients);
        let mut clients = Vec::with_capacity(spec.n_clients);
        for k in 0..spec.n_clients {
            let arr_seed = splitmix64(spec.seed ^ splitmix64(k as u64));
            let client = OpenLoopClient {
                inner: DynClient::new(ProcessId::Client(ClientId(k as u32)), cfg.clone(), options),
                client_ix: k as u64,
                arrivals: share.build(arr_seed, Time(spec.duration)),
                script: StdRng::seed_from_u64(splitmix64(arr_seed)),
                sampler: sampler.clone(),
                write_fraction: spec.write_fraction,
                backlog: VecDeque::new(),
                inflight: None,
                seen_completed: 0,
                next_val: 0,
                rec: Rc::clone(&rec),
            };
            clients.push(inner.world.add_actor(client));
        }
        OpenLoopHarness {
            inner,
            clients,
            rec,
            duration: spec.duration,
        }
    }

    /// Actor ids of the open-loop clients (e.g. as
    /// [`PlacementDriver`] observers).
    pub fn client_actors(&self) -> &[ActorId] {
        &self.clients
    }

    /// Pre-seeds servers *and* open-loop clients with the same converged
    /// set of at least `extra` changes (see
    /// [`StorageHarness::seed_converged_changes`]). Call before
    /// [`OpenLoopHarness::run`].
    pub fn seed_changes(&mut self, extra: usize) -> ChangeSet {
        let set = self.inner.seed_converged_changes(extra);
        for &a in &self.clients {
            self.inner
                .world
                .actor_mut::<OpenLoopClient>(a)
                .expect("open-loop client")
                .inner
                .driver
                .changes
                .merge(&set);
        }
        set
    }

    /// Runs the load window, ticking `driver` (if any) every
    /// `decide_every` of virtual time, then drains in-flight and
    /// backlogged operations to quiescence.
    ///
    /// # Panics
    ///
    /// Panics if `decide_every` is zero.
    pub fn run(&mut self, mut driver: Option<&mut PlacementDriver>, decide_every: Nanos) {
        assert!(decide_every > 0, "decide_every must be positive");
        while self.inner.world.now().0 < self.duration {
            let remaining = self.duration - self.inner.world.now().0;
            self.inner.world.run_for(decide_every.min(remaining));
            if let Some(d) = driver.as_deref_mut() {
                d.tick(&mut self.inner);
            }
        }
        self.inner.settle();
    }

    /// Records the latency of operations that arrive at `from` or later
    /// only — e.g. to measure the tail once a placement tick has acted,
    /// without the warm-up before it. Every operation is still counted in
    /// [`OpenLoopStats::generated`] and [`OpenLoopStats::completed`].
    pub fn record_from(&mut self, from: Time) {
        self.rec.borrow_mut().record_from = from;
    }

    /// Snapshot of everything recorded so far.
    pub fn stats(&self) -> OpenLoopStats {
        let rec = self.rec.borrow();
        OpenLoopStats {
            generated: rec.generated,
            completed: rec.completed,
            arrival_hash: rec.arrival_hash,
            max_backlog: rec.max_backlog,
            reads: rec.reads.clone(),
            writes: rec.writes.clone(),
            per_object: rec.per_object.clone().unwrap_or_default(),
        }
    }

    /// The full operation history across open-loop clients, for
    /// linearizability checking.
    pub fn history(&self) -> History<u64> {
        let mut h = History::new();
        for (k, &a) in self.clients.iter().enumerate() {
            if let Some(c) = self.inner.world.actor::<OpenLoopClient>(a) {
                for op in c.history_ops(k) {
                    h.record(op);
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lin::check_linearizable_keyed;
    use awr_sim::{SchedulerKind, UniformLatency, MILLI, SECOND};

    fn spec(rate: f64, duration: Nanos, seed: u64) -> OpenLoopSpec {
        OpenLoopSpec {
            n_clients: 8,
            n_objects: 4,
            dist: KeyDistribution::Zipfian { exponent: 1.0 },
            write_fraction: 0.3,
            arrivals: ArrivalSpec::Poisson { rate_per_sec: rate },
            duration,
            per_object: true,
            seed,
        }
    }

    fn build(rate: f64, duration: Nanos, seed: u64, lat: (u64, u64)) -> OpenLoopHarness {
        OpenLoopHarness::build(
            RpConfig::uniform(3, 1),
            &spec(rate, duration, seed),
            UniformLatency::new(lat.0, lat.1),
            DynOptions::default(),
        )
    }

    #[test]
    fn completes_offered_load_and_linearizes() {
        let mut h = build(2_000.0, SECOND / 2, 11, (100_000, 900_000));
        h.run(None, 50 * MILLI);
        let s = h.stats();
        assert!(s.generated > 500, "load too light: {}", s.generated);
        assert_eq!(s.completed, s.generated, "drain left ops behind");
        assert_eq!(s.reads.count() + s.writes.count(), s.completed);
        assert!(s.reads.count() > 0 && s.writes.count() > 0);
        // Latency is at least one round trip of the minimum latency.
        assert!(s.all().min() >= 200_000);
        let per_obj: u64 = s.per_object.values().map(Histogram::count).sum();
        assert_eq!(per_obj, s.completed);
        check_linearizable_keyed(&h.history()).expect("open-loop history linearizable");
    }

    #[test]
    fn same_seed_same_everything() {
        let run = || {
            let mut h = build(3_000.0, SECOND / 4, 7, (100_000, 900_000));
            h.run(None, 50 * MILLI);
            let s = h.stats();
            (
                s.generated,
                s.arrival_hash,
                s.reads.clone(),
                s.writes.clone(),
                h.inner.world.metrics().events_processed,
            )
        };
        let (g1, h1, r1, w1, e1) = run();
        let (g2, h2, r2, w2, e2) = run();
        assert_eq!(g1, g2);
        assert_eq!(h1, h2);
        assert_eq!(r1, r2);
        assert_eq!(w1, w2);
        assert_eq!(e1, e2);
    }

    #[test]
    fn open_loop_invariant_arrivals_ignore_latency() {
        // Same spec and seed under radically different network latency:
        // the arrival stream (count and fingerprint) must be identical,
        // even though latencies and schedules differ wildly.
        let fast = {
            let mut h = build(3_000.0, SECOND / 4, 21, (50_000, 200_000));
            h.run(None, 50 * MILLI);
            h.stats()
        };
        let slow = {
            let mut h = build(3_000.0, SECOND / 4, 21, (5 * MILLI, 20 * MILLI));
            h.run(None, 50 * MILLI);
            h.stats()
        };
        assert_eq!(fast.generated, slow.generated);
        assert_eq!(fast.arrival_hash, slow.arrival_hash);
        // The slow network queues: its tail is far worse.
        assert!(slow.all().quantile(0.99) > fast.all().quantile(0.99));
        assert!(slow.max_backlog >= fast.max_backlog);
    }

    #[test]
    fn backlog_pipelines_and_drains() {
        // Offered rate far beyond what one client can close-loop: the
        // backlog must engage, and the drain must still finish all ops.
        let mut h = OpenLoopHarness::build(
            RpConfig::uniform(3, 1),
            &OpenLoopSpec {
                n_clients: 1,
                n_objects: 2,
                dist: KeyDistribution::Uniform,
                write_fraction: 0.5,
                arrivals: ArrivalSpec::Poisson {
                    rate_per_sec: 2_000.0,
                },
                duration: SECOND / 8,
                per_object: false,
                seed: 3,
            },
            UniformLatency::new(MILLI, 4 * MILLI),
            DynOptions::default(),
        );
        h.run(None, 50 * MILLI);
        let s = h.stats();
        assert!(s.max_backlog > 0, "backlog never engaged");
        assert_eq!(s.completed, s.generated);
        // Queueing delay dominates: p99 far above one round trip.
        assert!(s.all().quantile(0.99) > 8 * MILLI);
    }

    #[test]
    fn replays_identically_on_the_heap_scheduler() {
        let run = |kind: SchedulerKind| {
            let mut h = build(2_000.0, SECOND / 4, 5, (100_000, 900_000));
            h.inner.world.set_scheduler(kind);
            h.run(None, 50 * MILLI);
            let s = h.stats();
            (
                s.generated,
                s.completed,
                s.arrival_hash,
                s.reads.clone(),
                s.writes.clone(),
                h.inner.world.metrics().events_processed,
                h.inner.world.metrics().bytes_sent,
            )
        };
        assert_eq!(
            run(SchedulerKind::TimingWheel),
            run(SchedulerKind::BinaryHeap)
        );
    }

    #[test]
    fn seeded_changes_reach_clients() {
        let mut h = build(1_000.0, SECOND / 8, 9, (100_000, 900_000));
        let set = h.seed_changes(64);
        assert!(set.len() >= 64);
        for &a in &h.clients.clone() {
            let c = h.inner.world.actor::<OpenLoopClient>(a).expect("client");
            assert!(c.inner.driver.changes.len() >= 64);
        }
        h.run(None, 50 * MILLI);
        let s = h.stats();
        assert_eq!(s.completed, s.generated);
        check_linearizable_keyed(&h.history()).expect("seeded history linearizable");
    }
}
