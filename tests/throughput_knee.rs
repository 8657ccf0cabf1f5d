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
//!   p99 than static weights at every rate. The first tick comes 5 s in,
//!   and what came before is warm-up on static weights, so the arm runs
//!   30 s at ≥ 200 ops/s: at 100 ops/s over 20 s the warm-up is the tail,
//!   and adaptive placement's p99 is the worse one;
//! * **burst** — at the same mean rate, 25 %-duty on/off arrivals queue
//!   inside their "on" windows, so their p99 is worse than Poisson's.
//!
//! Every generated operation completes in every run. Every number is
//! virtual time or bytes, so a run repeats exactly; the wall-clock cost of
//! the simulator is `benchmark/`'s `sim_wan_adaptive` to measure.

use awr::core::RpConfig;
use awr::quorum::placement::LatencyGreedy;
use awr::sim::{constrained_uplink, geo_network, ArrivalSpec, Nanos, Region, MILLI, SECOND};
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

/// What one run shows.
#[derive(Debug)]
struct Point {
    p99_ns: u64,
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
    h.run(driver, 5 * SECOND);
    let s = h.stats();
    assert_eq!(s.completed, s.generated, "{what}: ops left incomplete");
    let m = h.inner.world.metrics();
    Point {
        p99_ns: s.all().quantile(0.99),
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

/// A run on the five-region WAN with every client in Virginia.
fn placement_run(adaptive: bool, rate: f64) -> Point {
    let mut regions = Region::ALL.to_vec();
    regions.extend(std::iter::repeat_n(Region::Virginia, PLACEMENT_CLIENTS));
    let arrivals = ArrivalSpec::Poisson { rate_per_sec: rate };
    let h = OpenLoopHarness::build(
        RpConfig::uniform(N, F),
        &spec(PLACEMENT_CLIENTS, arrivals, PLACEMENT_DURATION),
        geo_network(&regions, 0.05),
        DynOptions::default(),
    );
    let mut driver = PlacementDriver::new(LatencyGreedy::default(), h.client_actors().to_vec());
    driver.windowed = true;
    let what = format!("placement (adaptive: {adaptive}) at {rate}/s");
    finish(
        h,
        adaptive.then_some(&mut driver),
        PLACEMENT_DURATION,
        &what,
    )
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
        let (fixed, adaptive) = (placement_run(false, rate), placement_run(true, rate));
        assert!(
            adaptive.p99_ns < fixed.p99_ns,
            "at {rate}/s: adaptive {adaptive:?} against static {fixed:?}"
        );
    }
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
