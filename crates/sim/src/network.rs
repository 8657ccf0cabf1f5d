//! Network models and adversarial delivery strategies.
//!
//! The system model (§II) assumes reliable links in an asynchronous system:
//! every sent message is eventually delivered, after an arbitrary finite
//! delay. Two layers decide that delay:
//!
//! * A [`LatencyModel`] samples *propagation* delay per message — distance,
//!   jitter, adversarial holds. Composable decorators turn a base model
//!   into an adversary: reordering bursts, targeted slow-downs, or
//!   temporary partitions that heal (preserving reliability).
//! * A [`NetworkModel`] additionally sees the message's *size* and charges
//!   transmission time plus link-serialization queueing. Every
//!   `LatencyModel` is a `NetworkModel` with infinite bandwidth (a blanket
//!   impl), so size-oblivious scenarios keep working unchanged; wrap any
//!   model in [`BandwidthLinks`] to make wire bytes shape the schedule.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rand::rngs::StdRng;
use rand::Rng;

use crate::actor::ActorId;
use crate::rows::LinkRows;
use crate::time::{Nanos, Time, MILLI, SECOND};

/// Decides the propagation delay of each message. Stateful and seeded:
/// given the same seed and send sequence, delays are reproducible.
pub trait LatencyModel: Send {
    /// Delay for a message from `from` to `to` sent at `now`.
    fn sample(&mut self, from: ActorId, to: ActorId, now: Time, rng: &mut StdRng) -> Nanos;
}

/// The components of one message's delivery delay, as decided by a
/// [`NetworkModel`]. The world schedules delivery at
/// `send time + total()` and the trace records the components.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Delivery {
    /// Time spent waiting for the link to free up (serialization behind
    /// earlier messages on the same link/uplink).
    pub queued: Nanos,
    /// Transmission time: `wire_size / link bandwidth`.
    pub transmission: Nanos,
    /// Propagation delay (the [`LatencyModel`] sample).
    pub propagation: Nanos,
}

impl Delivery {
    /// A pure-propagation delivery (infinite bandwidth, idle link).
    pub fn propagation_only(propagation: Nanos) -> Delivery {
        Delivery {
            queued: 0,
            transmission: 0,
            propagation,
        }
    }

    /// Total send-to-delivery delay.
    pub fn total(&self) -> Nanos {
        self.queued
            .saturating_add(self.transmission)
            .saturating_add(self.propagation)
    }
}

/// Decides the full delivery delay of each message, *including* its size:
/// delay = queueing (link serialization) + transmission (size / bandwidth)
/// + propagation.
///
/// Every [`LatencyModel`] is a `NetworkModel` through a blanket impl that
/// charges zero transmission — so constant/uniform/WAN models, all the
/// adversary decorators, and every existing scenario remain valid network
/// models verbatim. Size-aware models ([`BandwidthLinks`]) implement this
/// trait directly.
pub trait NetworkModel: Send {
    /// Delivery components for a message of `bytes` from `from` to `to`
    /// sent at `now`.
    fn delivery(
        &mut self,
        from: ActorId,
        to: ActorId,
        now: Time,
        bytes: usize,
        rng: &mut StdRng,
    ) -> Delivery;
}

impl<L: LatencyModel> NetworkModel for L {
    fn delivery(
        &mut self,
        from: ActorId,
        to: ActorId,
        now: Time,
        _bytes: usize,
        rng: &mut StdRng,
    ) -> Delivery {
        Delivery::propagation_only(self.sample(from, to, now, rng))
    }
}

impl NetworkModel for Box<dyn NetworkModel> {
    fn delivery(
        &mut self,
        from: ActorId,
        to: ActorId,
        now: Time,
        bytes: usize,
        rng: &mut StdRng,
    ) -> Delivery {
        (**self).delivery(from, to, now, bytes, rng)
    }
}

/// Sentinel bandwidth meaning "unlimited" (zero transmission time).
pub const UNLIMITED_BANDWIDTH: u64 = u64::MAX;

/// A per-link bandwidth matrix, mirroring [`WanMatrix`]: bandwidth in
/// bytes/second per (from-region, to-region) pair, with actors mapped to
/// regions by `region_of`. Self-sends are free (no wire is crossed).
///
/// # Examples
///
/// ```
/// use awr_sim::{ActorId, BandwidthMatrix};
///
/// // 4 actors sharing one 10 MB/s fabric.
/// let bw = BandwidthMatrix::uniform(4, 10_000_000);
/// // A 1 MB message occupies the link for 100 ms.
/// assert_eq!(
///     bw.transmission_nanos(ActorId(0), ActorId(1), 1_000_000),
///     100_000_000
/// );
/// assert_eq!(bw.transmission_nanos(ActorId(2), ActorId(2), 1_000_000), 0);
/// ```
#[derive(Clone, Debug)]
pub struct BandwidthMatrix {
    /// `bw[i][j]` = bytes/second from region `i` to region `j`.
    bw: Vec<Vec<u64>>,
    /// Region of each actor (index = actor index).
    region_of: Vec<usize>,
}

impl BandwidthMatrix {
    /// Builds a bandwidth model from a region matrix (bytes/second) and an
    /// actor→region map.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square, a region index is out of range,
    /// or any bandwidth is zero.
    pub fn new(bw: Vec<Vec<u64>>, region_of: Vec<usize>) -> BandwidthMatrix {
        let r = bw.len();
        assert!(bw.iter().all(|row| row.len() == r), "matrix must be square");
        assert!(
            bw.iter().all(|row| row.iter().all(|&b| b > 0)),
            "bandwidth must be positive (use UNLIMITED_BANDWIDTH for ∞)"
        );
        assert!(
            region_of.iter().all(|&x| x < r),
            "region index out of range"
        );
        BandwidthMatrix { bw, region_of }
    }

    /// All `n` actors in one region with the same link bandwidth.
    pub fn uniform(n: usize, bytes_per_sec: u64) -> BandwidthMatrix {
        BandwidthMatrix::new(vec![vec![bytes_per_sec]], vec![0; n])
    }

    /// All `n` actors in one region with unlimited bandwidth — the identity
    /// element: wrapping a latency model with this matrix reproduces the
    /// pure-propagation schedule exactly.
    pub fn unlimited(n: usize) -> BandwidthMatrix {
        BandwidthMatrix::uniform(n, UNLIMITED_BANDWIDTH)
    }

    /// Region of an actor.
    pub fn region(&self, a: ActorId) -> usize {
        self.region_of[a.index()]
    }

    /// Re-maps an actor to a different region (regime shifts; mirror of
    /// [`WanMatrix::set_region`]).
    pub fn set_region(&mut self, a: ActorId, region: usize) {
        assert!(region < self.bw.len());
        self.region_of[a.index()] = region;
    }

    /// The bandwidth of the directed link between two actors, bytes/second.
    pub fn link_bandwidth(&self, from: ActorId, to: ActorId) -> u64 {
        self.bw[self.region(from)][self.region(to)]
    }

    /// Transmission time of `bytes` on the `from → to` link. Zero for
    /// self-sends and unlimited links.
    pub fn transmission_nanos(&self, from: ActorId, to: ActorId, bytes: usize) -> Nanos {
        if from == to || bytes == 0 {
            return 0;
        }
        let bw = self.link_bandwidth(from, to);
        if bw == UNLIMITED_BANDWIDTH {
            return 0;
        }
        ((bytes as u128 * SECOND as u128) / bw as u128) as Nanos
    }
}

/// What serializes transmissions in a [`BandwidthLinks`] model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LinkDiscipline {
    /// Each directed `(from, to)` link is its own FIFO pipe: a broadcast's
    /// messages transmit in parallel, but two messages on the *same* link
    /// serialize.
    #[default]
    PerLink,
    /// All of a sender's outgoing messages share one uplink: a broadcast of
    /// `n` large messages occupies the uplink `n` transmissions long — the
    /// regime where full-change-set wires hurt most.
    SharedUplink,
}

/// A size-aware network: wraps any [`NetworkModel`] (typically a plain
/// [`LatencyModel`]) and adds transmission time plus link serialization
/// from a [`BandwidthMatrix`].
///
/// Each transmission starts when its link (per [`LinkDiscipline`]) frees
/// up, occupies it for `size / bandwidth`, then propagates independently —
/// so a 12 MB full change set really does delay everything queued behind
/// it. With a constant propagation model this makes every link FIFO; with
/// jittered propagation, messages still serialize at the sender but may
/// reorder in flight (the asynchronous model is preserved).
///
/// # Examples
///
/// ```
/// use awr_sim::{BandwidthLinks, BandwidthMatrix, ConstantLatency, MILLI};
///
/// // 1 ms propagation, 1 MB/s links.
/// let net = BandwidthLinks::new(ConstantLatency(MILLI), BandwidthMatrix::uniform(4, 1_000_000));
/// // give `net` to World::new(..): a 1 KB message now takes 2 ms.
/// # drop(net);
/// ```
pub struct BandwidthLinks<N> {
    inner: N,
    bandwidth: BandwidthMatrix,
    discipline: LinkDiscipline,
    /// When each link frees up: `[from][to]` per-link, `[from][0]`
    /// shared-uplink (see [`BandwidthLinks::free_horizon`]).
    free_at: LinkRows<Time>,
}

impl<N: NetworkModel> BandwidthLinks<N> {
    /// Wraps `inner` with per-directed-link serialization.
    pub fn new(inner: N, bandwidth: BandwidthMatrix) -> BandwidthLinks<N> {
        BandwidthLinks::with_discipline(inner, bandwidth, LinkDiscipline::PerLink)
    }

    /// Wraps `inner` with an explicit serialization discipline.
    pub fn with_discipline(
        inner: N,
        bandwidth: BandwidthMatrix,
        discipline: LinkDiscipline,
    ) -> BandwidthLinks<N> {
        BandwidthLinks {
            inner,
            bandwidth,
            discipline,
            free_at: LinkRows::default(),
        }
    }

    /// Charges `bytes` of *non-protocol* traffic onto the `from → to` link
    /// (or `from`'s uplink, under [`LinkDiscipline::SharedUplink`]) as if a
    /// competing flow had enqueued them at `at`: the link's free horizon
    /// advances by their transmission time, so protocol messages sent later
    /// queue behind them. This is the injection point the cross-traffic
    /// generators of [`crate::workload`] use; it creates no deliveries and
    /// draws no randomness. Returns the transmission time charged (zero for
    /// self-sends and unlimited links).
    pub fn occupy(&mut self, from: ActorId, to: ActorId, bytes: usize, at: Time) -> Nanos {
        let tx = self.bandwidth.transmission_nanos(from, to, bytes);
        if tx == 0 {
            return 0;
        }
        let free = self.free_horizon(from, to);
        let start = if *free > at { *free } else { at };
        *free = start + tx;
        tx
    }

    /// The free horizon a `from → to` transmission serializes on: the
    /// link's own under [`LinkDiscipline::PerLink`], the one all of
    /// `from`'s links share under [`LinkDiscipline::SharedUplink`].
    fn free_horizon(&mut self, from: ActorId, to: ActorId) -> &mut Time {
        let col = match self.discipline {
            LinkDiscipline::PerLink => to.index(),
            LinkDiscipline::SharedUplink => 0,
        };
        self.free_at.cell_mut(from.index(), col)
    }
}

impl<N: NetworkModel> NetworkModel for BandwidthLinks<N> {
    fn delivery(
        &mut self,
        from: ActorId,
        to: ActorId,
        now: Time,
        bytes: usize,
        rng: &mut StdRng,
    ) -> Delivery {
        let base = self.inner.delivery(from, to, now, bytes, rng);
        let tx = self.bandwidth.transmission_nanos(from, to, bytes);
        let free = self.free_horizon(from, to);
        let start = if *free > now { *free } else { now };
        let queued = (start - now).saturating_add(base.queued);
        *free = start + tx;
        Delivery {
            queued,
            transmission: tx.saturating_add(base.transmission),
            propagation: base.propagation,
        }
    }
}

/// A fixed delay for every message — synchronous-looking, useful for
/// deterministic protocol unit tests.
#[derive(Clone, Copy, Debug)]
pub struct ConstantLatency(pub Nanos);

impl LatencyModel for ConstantLatency {
    fn sample(&mut self, _: ActorId, _: ActorId, _: Time, _: &mut StdRng) -> Nanos {
        self.0
    }
}

/// Uniformly random delay in `[lo, hi]` — the canonical "asynchronous"
/// network where messages overtake each other freely.
#[derive(Clone, Copy, Debug)]
pub struct UniformLatency {
    /// Minimum delay (inclusive).
    pub lo: Nanos,
    /// Maximum delay (inclusive).
    pub hi: Nanos,
}

impl UniformLatency {
    /// A uniform delay between `lo` and `hi` nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: Nanos, hi: Nanos) -> UniformLatency {
        assert!(lo <= hi, "uniform latency needs lo <= hi");
        UniformLatency { lo, hi }
    }
}

impl LatencyModel for UniformLatency {
    fn sample(&mut self, _: ActorId, _: ActorId, _: Time, rng: &mut StdRng) -> Nanos {
        rng.random_range(self.lo..=self.hi)
    }
}

/// A wide-area latency matrix: one-way base delay per (from, to) region pair
/// plus multiplicative jitter. Actors are mapped to regions by
/// `region_of[actor index]`.
pub struct WanMatrix {
    /// `base[i][j]` = one-way delay from region `i` to region `j`.
    base: Vec<Vec<Nanos>>,
    /// Region of each actor (index = actor index).
    region_of: Vec<usize>,
    /// Jitter as a fraction of the base delay (e.g. 0.2 → ±20 %).
    jitter: f64,
    /// Local (same-actor or same-region) floor delay.
    floor: Nanos,
}

impl WanMatrix {
    /// Builds a WAN model from a region RTT/2 matrix and an actor→region map.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square, a region index is out of range,
    /// or `jitter` is negative.
    pub fn new(base: Vec<Vec<Nanos>>, region_of: Vec<usize>, jitter: f64) -> WanMatrix {
        let r = base.len();
        assert!(
            base.iter().all(|row| row.len() == r),
            "matrix must be square"
        );
        assert!(
            region_of.iter().all(|&x| x < r),
            "region index out of range"
        );
        assert!(jitter >= 0.0, "jitter must be non-negative");
        WanMatrix {
            base,
            region_of,
            jitter,
            floor: MILLI / 2,
        }
    }

    /// Region of an actor.
    pub fn region(&self, a: ActorId) -> usize {
        self.region_of[a.index()]
    }

    /// Re-maps an actor to a different region (used by regime-shift
    /// experiments where a replica "moves" / degrades).
    pub fn set_region(&mut self, a: ActorId, region: usize) {
        assert!(region < self.base.len());
        self.region_of[a.index()] = region;
    }

    /// The base one-way delay between two actors.
    pub fn base_delay(&self, from: ActorId, to: ActorId) -> Nanos {
        if from == to {
            return self.floor;
        }
        self.base[self.region(from)][self.region(to)].max(self.floor)
    }
}

impl LatencyModel for WanMatrix {
    fn sample(&mut self, from: ActorId, to: ActorId, _: Time, rng: &mut StdRng) -> Nanos {
        let base = self.base_delay(from, to) as f64;
        let j = if self.jitter > 0.0 {
            rng.random_range(-self.jitter..=self.jitter)
        } else {
            0.0
        };
        (base * (1.0 + j)).max(1.0) as Nanos
    }
}

/// A shared, mutable handle to a latency model: clone one side into the
/// world, keep the other to mutate the model mid-run (regime shifts).
///
/// # Examples
///
/// ```
/// use awr_sim::{shared_latency, ConstantLatency};
///
/// let (handle, model) = shared_latency(ConstantLatency(10));
/// // give `model` to World::new(..); later:
/// handle.lock().0 = 500; // the network just got 50× slower
/// # drop(model);
/// ```
pub struct SharedLatency<L>(Arc<Mutex<L>>);

impl<L> Clone for SharedLatency<L> {
    fn clone(&self) -> SharedLatency<L> {
        SharedLatency(Arc::clone(&self.0))
    }
}

impl<L> SharedLatency<L> {
    /// Locks the model. A panic while it was held does not poison it: the
    /// next `lock` recovers the guard, as it would after a clean unlock.
    pub fn lock(&self) -> MutexGuard<'_, L> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Creates a shared latency model; both values refer to the same state.
pub fn shared_latency<L: LatencyModel>(inner: L) -> (SharedLatency<L>, SharedLatency<L>) {
    let a = SharedLatency(Arc::new(Mutex::new(inner)));
    (a.clone(), a)
}

impl<L: LatencyModel> LatencyModel for SharedLatency<L> {
    fn sample(&mut self, from: ActorId, to: ActorId, now: Time, rng: &mut StdRng) -> Nanos {
        self.lock().sample(from, to, now, rng)
    }
}

/// Decorator that multiplies delays touching a set of "slow" actors —
/// models degraded replicas for the E7/E9 experiments.
pub struct SlowActors<L> {
    inner: L,
    slow: Vec<ActorId>,
    factor: u64,
}

impl<L: LatencyModel> SlowActors<L> {
    /// Wraps `inner`, multiplying delays from/to any actor in `slow` by
    /// `factor`.
    pub fn new(inner: L, slow: Vec<ActorId>, factor: u64) -> SlowActors<L> {
        SlowActors {
            inner,
            slow,
            factor,
        }
    }

    /// Replaces the slow set (regime shift mid-run).
    pub fn set_slow(&mut self, slow: Vec<ActorId>) {
        self.slow = slow;
    }
}

impl<L: LatencyModel> LatencyModel for SlowActors<L> {
    fn sample(&mut self, from: ActorId, to: ActorId, now: Time, rng: &mut StdRng) -> Nanos {
        let base = self.inner.sample(from, to, now, rng);
        if self.slow.contains(&from) || self.slow.contains(&to) {
            base.saturating_mul(self.factor)
        } else {
            base
        }
    }
}

/// Decorator that delays every message matching a predicate until at least
/// a release time — an *adversary* in the formal sense: it controls
/// scheduling but must keep links reliable (messages are delayed, never
/// dropped). Used to stall a Paxos leader (E9) or force stale reads.
pub struct TargetedDelay<L> {
    inner: L,
    /// `(from, to) -> should delay`.
    pred: Box<dyn Fn(ActorId, ActorId) -> bool + Send>,
    /// Messages matching the predicate are held until this virtual time.
    release_at: Time,
}

impl<L: LatencyModel> TargetedDelay<L> {
    /// Wraps `inner`; messages with `pred(from, to)` are delivered no
    /// earlier than `release_at`.
    pub fn new(
        inner: L,
        pred: impl Fn(ActorId, ActorId) -> bool + Send + 'static,
        release_at: Time,
    ) -> TargetedDelay<L> {
        TargetedDelay {
            inner,
            pred: Box::new(pred),
            release_at,
        }
    }
}

impl<L: LatencyModel> LatencyModel for TargetedDelay<L> {
    fn sample(&mut self, from: ActorId, to: ActorId, now: Time, rng: &mut StdRng) -> Nanos {
        let base = self.inner.sample(from, to, now, rng);
        if (self.pred)(from, to) {
            let held = self.release_at - now; // saturating
            base.max(held)
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn a(i: usize) -> ActorId {
        ActorId(i)
    }

    #[test]
    fn a_panic_holding_the_shared_model_leaves_it_usable() {
        let (handle, mut model) = shared_latency(ConstantLatency(10));
        let held = handle.clone();
        let panicked = std::thread::spawn(move || {
            let _guard = held.lock();
            panic!("a harness fails while shifting the network");
        })
        .join();
        assert!(panicked.is_err());
        handle.lock().0 = 500;
        assert_eq!(model.sample(a(0), a(1), Time::ZERO, &mut rng()), 500);
    }

    #[test]
    fn constant_latency() {
        let mut m = ConstantLatency(5);
        assert_eq!(m.sample(a(0), a(1), Time::ZERO, &mut rng()), 5);
    }

    #[test]
    fn uniform_bounds() {
        let mut m = UniformLatency::new(10, 20);
        let mut r = rng();
        for _ in 0..100 {
            let d = m.sample(a(0), a(1), Time::ZERO, &mut r);
            assert!((10..=20).contains(&d));
        }
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        let mut m1 = UniformLatency::new(0, 1000);
        let mut m2 = UniformLatency::new(0, 1000);
        let (mut r1, mut r2) = (rng(), rng());
        for _ in 0..50 {
            assert_eq!(
                m1.sample(a(0), a(1), Time::ZERO, &mut r1),
                m2.sample(a(0), a(1), Time::ZERO, &mut r2)
            );
        }
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn uniform_bad_bounds() {
        let _ = UniformLatency::new(5, 1);
    }

    #[test]
    fn wan_matrix_regions() {
        // Two regions, 40 ms apart; actors 0,1 in region 0, actor 2 in 1.
        let m = vec![vec![0, 40 * MILLI], vec![40 * MILLI, 0]];
        let mut wan = WanMatrix::new(m, vec![0, 0, 1], 0.0);
        let mut r = rng();
        let cross = wan.sample(a(0), a(2), Time::ZERO, &mut r);
        let local = wan.sample(a(0), a(1), Time::ZERO, &mut r);
        assert_eq!(cross, 40 * MILLI);
        assert!(local < cross);
        wan.set_region(a(2), 0);
        let now_local = wan.sample(a(0), a(2), Time::ZERO, &mut r);
        assert!(now_local < cross);
    }

    #[test]
    fn slow_actors_multiply() {
        let mut m = SlowActors::new(ConstantLatency(10), vec![a(1)], 10);
        let mut r = rng();
        assert_eq!(m.sample(a(0), a(1), Time::ZERO, &mut r), 100);
        assert_eq!(m.sample(a(1), a(0), Time::ZERO, &mut r), 100);
        assert_eq!(m.sample(a(0), a(2), Time::ZERO, &mut r), 10);
        m.set_slow(vec![]);
        assert_eq!(m.sample(a(0), a(1), Time::ZERO, &mut r), 10);
    }

    #[test]
    fn targeted_delay_holds_until_release() {
        let release = Time(1000);
        let mut m = TargetedDelay::new(ConstantLatency(10), |f, _| f == ActorId(0), release);
        let mut r = rng();
        // At t=0, messages from a0 are held ~1000ns.
        assert_eq!(m.sample(a(0), a(1), Time::ZERO, &mut r), 1000);
        // Other senders unaffected.
        assert_eq!(m.sample(a(1), a(0), Time::ZERO, &mut r), 10);
        // After release, no extra delay.
        assert_eq!(m.sample(a(0), a(1), Time(2000), &mut r), 10);
    }

    #[test]
    fn partition_heals() {
        // A partition of {a0} from everyone else that heals at t = 500 is a
        // `TargetedDelay` on the links that cross it.
        let crosses = |f: ActorId, t: ActorId| (f == a(0)) != (t == a(0));
        let mut m = TargetedDelay::new(ConstantLatency(10), crosses, Time(500));
        let mut r = rng();
        assert_eq!(m.sample(a(0), a(1), Time::ZERO, &mut r), 500);
        assert_eq!(m.sample(a(1), a(2), Time::ZERO, &mut r), 10); // same side
        assert_eq!(m.sample(a(0), a(1), Time(600), &mut r), 10); // healed
    }
}

/// Decorator that makes every link FIFO: per (from, to) pair, deliveries
/// never overtake. The base model still decides raw delays; this clamps
/// each arrival to be no earlier than the previous arrival on the link.
/// The paper's model (§II) does not assume FIFO links, so the default
/// everywhere is non-FIFO; this exists to measure how much protocol
/// behaviour depends on reordering (none, for safety — that is the point).
///
/// Relation to [`BandwidthLinks`]: that wrapper serializes *transmissions*
/// at the sender (arrivals can still reorder under jittered propagation),
/// while this decorator forces FIFO *arrivals* outright with no bandwidth
/// semantics. Compose them — `FifoLinks` inside, as the propagation model —
/// to get both.
pub struct FifoLinks<L> {
    inner: L,
    last_arrival: std::collections::HashMap<(ActorId, ActorId), Time>,
}

impl<L: LatencyModel> FifoLinks<L> {
    /// Wraps `inner` with per-link FIFO enforcement.
    pub fn new(inner: L) -> FifoLinks<L> {
        FifoLinks {
            inner,
            last_arrival: std::collections::HashMap::new(),
        }
    }
}

impl<L: LatencyModel> LatencyModel for FifoLinks<L> {
    fn sample(&mut self, from: ActorId, to: ActorId, now: Time, rng: &mut StdRng) -> Nanos {
        let raw = self.inner.sample(from, to, now, rng);
        let arrival = now + raw;
        let entry = self.last_arrival.entry((from, to)).or_insert(Time::ZERO);
        let fifo_arrival = if arrival > *entry {
            arrival
        } else {
            *entry + 1
        };
        *entry = fifo_arrival;
        fifo_arrival - now
    }
}

#[cfg(test)]
mod bandwidth_tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn a(i: usize) -> ActorId {
        ActorId(i)
    }

    #[test]
    fn blanket_impl_is_pure_propagation() {
        let mut m = ConstantLatency(500);
        let d = m.delivery(a(0), a(1), Time::ZERO, 1 << 20, &mut rng());
        assert_eq!(d, Delivery::propagation_only(500));
        assert_eq!(d.total(), 500);
    }

    #[test]
    fn transmission_is_size_over_bandwidth() {
        let bw = BandwidthMatrix::uniform(3, 1_000_000); // 1 MB/s
        assert_eq!(bw.transmission_nanos(a(0), a(1), 1_000), MILLI);
        assert_eq!(bw.transmission_nanos(a(0), a(1), 0), 0);
        assert_eq!(bw.transmission_nanos(a(1), a(1), 1_000), 0, "self-send");
        let inf = BandwidthMatrix::unlimited(3);
        assert_eq!(inf.transmission_nanos(a(0), a(1), 1 << 30), 0);
    }

    #[test]
    fn unlimited_bandwidth_reproduces_latency_schedule() {
        let mut plain = UniformLatency::new(1, 10_000);
        let mut wrapped = BandwidthLinks::new(
            UniformLatency::new(1, 10_000),
            BandwidthMatrix::unlimited(4),
        );
        let (mut r1, mut r2) = (rng(), rng());
        for k in 0..100u64 {
            let p = plain.delivery(a(0), a(1), Time(k), 10_000, &mut r1);
            let w = wrapped.delivery(a(0), a(1), Time(k), 10_000, &mut r2);
            assert_eq!(p, w, "infinite bandwidth must be a no-op (k={k})");
        }
    }

    #[test]
    fn per_link_serialization_queues_behind_large_messages() {
        // 1 KB/ms links, zero propagation: a 10 KB message occupies the
        // link for 10 ms; a small message sent right after waits for it.
        let mut net =
            BandwidthLinks::new(ConstantLatency(0), BandwidthMatrix::uniform(3, 1_000_000));
        let big = net.delivery(a(0), a(1), Time::ZERO, 10_000, &mut rng());
        assert_eq!(big.queued, 0);
        assert_eq!(big.transmission, 10 * MILLI);
        let small = net.delivery(a(0), a(1), Time(1), 100, &mut rng());
        assert_eq!(small.queued, 10 * MILLI - 1, "must wait for the link");
        // A different link is idle.
        let other = net.delivery(a(0), a(2), Time(1), 100, &mut rng());
        assert_eq!(other.queued, 0);
        // The reverse direction is a separate link too.
        let reverse = net.delivery(a(1), a(0), Time(1), 100, &mut rng());
        assert_eq!(reverse.queued, 0);
        // So is another sender's link to the same receiver: arrivals that
        // converge on one receiver do not queue there.
        let converging = net.delivery(a(2), a(1), Time(1), 100, &mut rng());
        assert_eq!(converging.queued, 0);
    }

    #[test]
    fn shared_uplink_serializes_a_broadcast() {
        let mut net = BandwidthLinks::with_discipline(
            ConstantLatency(0),
            BandwidthMatrix::uniform(5, 1_000_000),
            LinkDiscipline::SharedUplink,
        );
        // Broadcast of four 1 KB messages from a0: the k-th waits k·1 ms.
        for k in 0..4u64 {
            let d = net.delivery(a(0), a(1 + k as usize), Time::ZERO, 1_000, &mut rng());
            assert_eq!(d.queued, k * MILLI, "message {k} must queue");
            assert_eq!(d.transmission, MILLI);
        }
        // Another sender's uplink is independent.
        let d = net.delivery(a(1), a(0), Time::ZERO, 1_000, &mut rng());
        assert_eq!(d.queued, 0);
    }

    #[test]
    fn bandwidth_links_preserve_fifo_per_link() {
        // Constant propagation + serialization ⇒ arrivals on a link never
        // overtake, whatever the message sizes.
        let mut net =
            BandwidthLinks::new(ConstantLatency(MILLI), BandwidthMatrix::uniform(2, 500_000));
        let mut r = rng();
        let mut last = 0u64;
        for k in 0..50u64 {
            let now = Time(k * 100);
            let bytes = if k % 3 == 0 { 20_000 } else { 50 };
            let d = net.delivery(a(0), a(1), now, bytes, &mut r);
            let arrival = now.nanos() + d.total();
            assert!(arrival >= last, "overtake at k={k}");
            last = arrival;
        }
    }

    #[test]
    fn matrix_regions_and_remap() {
        let mut bw = BandwidthMatrix::new(
            vec![vec![1_000_000, 100_000], vec![100_000, 1_000_000]],
            vec![0, 0, 1],
        );
        assert_eq!(bw.region(a(2)), 1);
        assert_eq!(bw.link_bandwidth(a(0), a(1)), 1_000_000);
        assert_eq!(bw.link_bandwidth(a(0), a(2)), 100_000);
        // Cross-region is 10× slower for the same payload.
        assert_eq!(
            bw.transmission_nanos(a(0), a(2), 1_000),
            10 * bw.transmission_nanos(a(0), a(1), 1_000)
        );
        bw.set_region(a(2), 0);
        assert_eq!(bw.link_bandwidth(a(0), a(2)), 1_000_000);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = BandwidthMatrix::uniform(2, 0);
    }
}

#[cfg(test)]
mod fifo_tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn arrivals_never_overtake() {
        let mut m = FifoLinks::new(UniformLatency::new(1, 1_000_000));
        let mut rng = StdRng::seed_from_u64(1);
        let (a, b) = (ActorId(0), ActorId(1));
        let mut last = 0u64;
        for k in 0..200u64 {
            let now = Time(k); // sends 1 ns apart
            let d = m.sample(a, b, now, &mut rng);
            let arrival = now.nanos() + d;
            assert!(arrival > last, "message overtook at k={k}");
            last = arrival;
        }
        // Other links are independent.
        let d = m.sample(b, a, Time(0), &mut rng);
        assert!(d >= 1);
    }
}
