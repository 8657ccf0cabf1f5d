//! Open-loop knee claims, in virtual time.
//!
//! An [`OpenLoopHarness`] offers Poisson (or on/off bursty) arrivals at a
//! fixed rate over pipelined logical clients, and records completion minus
//! arrival: below a system's knee the tail stays at the protocol round
//! trip, past it queueing delay blows the tail up and the run drains long
//! after the arrival horizon. Three claims, each comparing two arms:
//!
//! * **wire** — at converged `|C| = 300` on shared 4 MB/s uplinks, the
//!   paper-literal full change-set wire (`WireMode::ForceFull`) ships at
//!   least twice the delta wire's bytes per op at every rate, and at the
//!   top rate it is past its knee (p99 ≥ 10× the delta wire's) while the
//!   delta wire still keeps up (drain shorter than the run);
//! * **placement** — on the five-region WAN with every client in
//!   Virginia, adaptive placement (`LatencyGreedy`, windowed) has a lower
//!   p99 than static weights at every rate, and it moves the knee: at
//!   220 ops/s static weights fall further behind the longer the run (the
//!   backlog, the median and the drain all grow with the horizon) while
//!   adaptive placement holds its backlog and drains within a second or
//!   two. The first tick comes 5 s in, and what came before is warm-up on
//!   static weights for both arms, so at that point latency is recorded
//!   only for the operations that arrive after it (the every-rate claim
//!   keeps the whole run's tail, warm-up included);
//! * **burst** — at the same mean rate, 25 %-duty on/off arrivals queue
//!   inside their "on" windows, so their p99 is worse than Poisson's.
//!
//! Every generated operation completes in every run. Every number is
//! virtual time or bytes, so a run repeats exactly; the wall-clock cost of
//! the simulator is `benchmark/`'s `sim_wan_adaptive` to measure.

use awr::core::RpConfig;
use awr::quorum::placement::LatencyGreedy;
use awr::sim::{constrained_uplink, geo_network, ArrivalSpec, Nanos, Region, Time, MILLI, SECOND};
use awr::storage::workload::KeyDistribution;
use awr::storage::{DynOptions, OpenLoopHarness, OpenLoopSpec, PlacementDriver, WireMode};

const N: usize = 5;
const F: usize = 1;
/// Converged change-set size (what `ForceFull` ships per phase message).
const C_SIZE: usize = 300;
/// Every sender's outgoing traffic shares one uplink of this many B/s.
const UPLINK_BYTES_PER_SEC: u64 = 4_000_000;
const WIRE_RATES: [f64; 2] = [500.0, 4_000.0];
const WIRE_CLIENTS: usize = 64;
const WIRE_DURATION: Nanos = 4 * SECOND;
const PLACEMENT_RATES: [f64; 2] = [200.0, 800.0];
const PLACEMENT_CLIENTS: usize = 32;
const PLACEMENT_DURATION: Nanos = 30 * SECOND;
/// Past static placement's knee and short of adaptive placement's.
const KNEE_RATE: f64 = 220.0;
/// The placement driver's tick period; the first tick ends the warm-up.
const DECIDE_EVERY: Nanos = 5 * SECOND;

/// What one run shows.
#[derive(Debug)]
struct Point {
    p50_ns: u64,
    p99_ns: u64,
    /// Deepest client-side backlog of the run.
    max_backlog: usize,
    /// Virtual time past the arrival horizon spent finishing queued ops.
    drain_ns: u64,
    bytes_per_op: f64,
}

fn spec(n_clients: usize, arrivals: ArrivalSpec, duration: Nanos) -> OpenLoopSpec {
    OpenLoopSpec {
        n_clients,
        n_objects: 16,
        dist: KeyDistribution::Zipfian { exponent: 1.0 },
        write_fraction: 0.3,
        arrivals,
        duration,
        per_object: false,
        seed: 0x0F_EED,
    }
}

/// Runs `h` for `duration` (ticking `driver` every 5 s), asserts that
/// every generated op completed, and reads its point.
fn finish(
    mut h: OpenLoopHarness,
    driver: Option<&mut PlacementDriver>,
    duration: Nanos,
    what: &str,
) -> Point {
    h.run(driver, DECIDE_EVERY);
    let s = h.stats();
    assert_eq!(s.completed, s.generated, "{what}: ops left incomplete");
    let m = h.inner.world.metrics();
    let all = s.all();
    Point {
        p50_ns: all.quantile(0.50),
        p99_ns: all.quantile(0.99),
        max_backlog: s.max_backlog,
        drain_ns: m.last_time.0.saturating_sub(duration),
        bytes_per_op: m.bytes_sent as f64 / s.completed.max(1) as f64,
    }
}

/// A run on shared uplinks with a seeded converged `C`.
fn wire_run(wire: WireMode, arrivals: ArrivalSpec) -> Point {
    let mut h = OpenLoopHarness::build(
        RpConfig::uniform(N, F),
        &spec(WIRE_CLIENTS, arrivals, WIRE_DURATION),
        constrained_uplink(N + WIRE_CLIENTS, UPLINK_BYTES_PER_SEC),
        DynOptions {
            wire,
            ..DynOptions::default()
        },
    );
    h.seed_changes(C_SIZE);
    finish(h, None, WIRE_DURATION, &format!("{wire:?} {arrivals:?}"))
}

/// A run of `duration` on the five-region WAN with every client in
/// Virginia, recording the latency of the operations that arrive at
/// `record_from` or later.
fn placement_run(adaptive: bool, rate: f64, duration: Nanos, record_from: Time) -> Point {
    let mut regions = Region::ALL.to_vec();
    regions.extend(std::iter::repeat_n(Region::Virginia, PLACEMENT_CLIENTS));
    let arrivals = ArrivalSpec::Poisson { rate_per_sec: rate };
    let mut h = OpenLoopHarness::build(
        RpConfig::uniform(N, F),
        &spec(PLACEMENT_CLIENTS, arrivals, duration),
        geo_network(&regions, 0.05),
        DynOptions::default(),
    );
    h.record_from(record_from);
    let mut driver = PlacementDriver::new(LatencyGreedy::default(), h.client_actors().to_vec());
    driver.windowed = true;
    let what = format!(
        "placement (adaptive: {adaptive}) at {rate}/s over {} s",
        duration / SECOND
    );
    finish(h, adaptive.then_some(&mut driver), duration, &what)
}

#[test]
fn the_full_wire_ships_more_bytes_and_saturates_first() {
    for rate in WIRE_RATES {
        let arrivals = ArrivalSpec::Poisson { rate_per_sec: rate };
        let delta = wire_run(WireMode::Negotiate, arrivals);
        let full = wire_run(WireMode::ForceFull, arrivals);
        assert!(
            full.bytes_per_op >= 2.0 * delta.bytes_per_op,
            "at {rate}/s: full {full:?} against delta {delta:?}"
        );
        if rate == WIRE_RATES[WIRE_RATES.len() - 1] {
            assert!(
                full.p99_ns >= 10 * delta.p99_ns && delta.drain_ns < WIRE_DURATION,
                "at the top rate the full wire must be past its knee and the delta wire not: \
                 full {full:?} against delta {delta:?}"
            );
        }
    }
}

#[test]
fn adaptive_placement_beats_static_at_every_rate() {
    for rate in PLACEMENT_RATES {
        let (fixed, adaptive) = (
            placement_run(false, rate, PLACEMENT_DURATION, Time::ZERO),
            placement_run(true, rate, PLACEMENT_DURATION, Time::ZERO),
        );
        assert!(
            adaptive.p99_ns < fixed.p99_ns,
            "at {rate}/s: adaptive {adaptive:?} against static {fixed:?}"
        );
    }
}

/// Saturation is a backlog that grows with the horizon: doubling the run
/// deepens static placement's backlog and raises its median, and its
/// drain exceeds a placement interval, while adaptive placement keeps the
/// same backlog, no higher a median, and drains within one interval.
#[test]
fn adaptive_placement_moves_the_knee() {
    let run =
        |adaptive, secs| placement_run(adaptive, KNEE_RATE, secs * SECOND, Time(DECIDE_EVERY));
    let (fixed, fixed_longer) = (run(false, 30), run(false, 60));
    let (adaptive, adaptive_longer) = (run(true, 30), run(true, 60));
    let all = format!(
        "static {fixed:?} then {fixed_longer:?}; adaptive {adaptive:?} then {adaptive_longer:?}"
    );
    assert!(
        fixed_longer.max_backlog > fixed.max_backlog
            && fixed_longer.p50_ns > fixed.p50_ns
            && fixed.drain_ns > DECIDE_EVERY,
        "static weights must be past their knee at {KNEE_RATE}/s: {all}"
    );
    assert!(
        adaptive_longer.max_backlog == adaptive.max_backlog
            && adaptive_longer.p50_ns <= adaptive.p50_ns
            && adaptive_longer.drain_ns < DECIDE_EVERY,
        "adaptive placement must keep up at {KNEE_RATE}/s: {all}"
    );
    assert!(
        4 * adaptive.p99_ns < fixed.p99_ns,
        "the tail after the first tick: {all}"
    );
}

#[test]
fn bursts_queue_harder_than_poisson_at_equal_mean_rate() {
    let mean = WIRE_RATES[WIRE_RATES.len() - 1];
    let poisson = wire_run(
        WireMode::Negotiate,
        ArrivalSpec::Poisson { rate_per_sec: mean },
    );
    let bursty = wire_run(
        WireMode::Negotiate,
        ArrivalSpec::Bursty {
            on_rate_per_sec: 4.0 * mean,
            on_ns: 50 * MILLI,
            off_ns: 150 * MILLI,
        },
    );
    assert!(
        bursty.p99_ns > poisson.p99_ns,
        "at {mean}/s mean: bursty {bursty:?} against Poisson {poisson:?}"
    );
}
