//! Cross-crate tests for the adaptive placement subsystem: policy safety
//! properties, the zero-cross-traffic replay pin, cross-traffic
//! congestion, and the core-harness reassignment driver.

use awr::core::{audit_transfers, RpConfig, RpHarness};
use awr::quorum::placement::{
    LatencyGreedy, PlacementInputs, PlacementPolicy, Static, UtilizationAware,
};
use awr::quorum::{
    integrity_holds, rp_floor, rp_integrity_holds, verify_intersection,
    WeightedMajorityQuorumSystem,
};
use awr::sim::{
    geo_network, ActorId, ArrivalSpec, BurstyOnOff, CrossTraffic, Delivery, Flow, LinkDelayStat,
    Metrics, Region, UniformLatency, MILLI, SECOND,
};
use awr::storage::workload::KeyDistribution;
use awr::storage::{
    DynOptions, Fanout, OpenLoopHarness, OpenLoopSpec, PlacementDriver, StorageHarness,
};
use awr::types::{Ratio, ServerId, WeightMap};
use proptest::prelude::*;

fn s(i: u32) -> ServerId {
    ServerId(i)
}

/// Servers in the five regions, one client beside Virginia.
fn geo_placement() -> Vec<Region> {
    let mut p = Region::ALL.to_vec();
    p.push(Region::Virginia);
    p
}

// ---------------------------------------------------------------------------
// Property: every policy's proposal is a valid weight map.
// ---------------------------------------------------------------------------

/// Builds synthetic metrics from random per-link delay observations
/// between the observer (actor `n`) and each server.
fn synthetic_metrics(n: usize, props: &[u64], queues: &[u64], t_end: u64) -> Metrics {
    let mut m = Metrics::default();
    let obs = ActorId(n);
    for (i, (&p, &q)) in props.iter().zip(queues).enumerate() {
        let server = ActorId(i);
        for (from, to) in [(obs, server), (server, obs)] {
            m.record_send(
                "R",
                64 + p as usize % 512,
                from,
                to,
                Delivery {
                    queued: q,
                    transmission: p % 10_000,
                    propagation: p,
                },
            );
        }
    }
    m.last_time = awr::sim::Time(t_end);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever a policy observes, its proposal is a valid weight map:
    /// total preserved exactly, every weight non-negative (in fact above
    /// the RP-Integrity floor), quorum intersection holds, and the
    /// deployment still tolerates `f` crashes (Property 1).
    #[test]
    fn policy_proposals_are_valid_weight_maps(
        n in 3usize..8,
        f in 1usize..3,
        weights in proptest::collection::vec(500i128..2_000, 8),
        props in proptest::collection::vec(1_000u64..200_000_000, 8),
        queues in proptest::collection::vec(0u64..500_000_000, 8),
        t_end in 1_000_000u64..10_000_000_000,
    ) {
        prop_assume!(2 * f < n);
        let current: WeightMap = weights[..n].iter().map(|&w| Ratio::new(w, 1000)).collect();
        let total = current.total();
        let floor = rp_floor(total, n, f);
        let metrics = synthetic_metrics(n, &props[..n], &queues[..n], t_end);
        let inputs = PlacementInputs::for_prefix_servers(&metrics, &current, floor, f, vec![ActorId(n)]);

        let policies: [&dyn PlacementPolicy; 3] =
            [&Static, &LatencyGreedy::default(), &UtilizationAware::default()];
        for policy in policies {
            let p = policy.propose(&inputs);
            prop_assert_eq!(p.len(), n, "{}: wrong length", policy.name());
            prop_assert_eq!(p.total(), total, "{}: total not preserved", policy.name());
            for (sv, w) in p.iter() {
                prop_assert!(!w.is_negative(), "{}: negative weight at {sv}", policy.name());
            }
            // Adaptive proposals stay above the floor (Static inherits
            // whatever the current map does, by design).
            if policy.name() != "static" {
                prop_assert!(
                    rp_integrity_holds(&p, floor),
                    "{}: floor violated: {p}", policy.name()
                );
                prop_assert!(
                    integrity_holds(&p, f),
                    "{}: Property 1 violated: {p}", policy.name()
                );
            }
            // Quorum intersection (Lemma 3 generalized) for the proposal.
            let q = WeightedMajorityQuorumSystem::new(p);
            prop_assert!(verify_intersection(&q), "{}: quorums must intersect", policy.name());
        }
    }
}

// ---------------------------------------------------------------------------
// Replay pin: Static + zero cross traffic is observationally the plain
// bandwidth-aware schedule (the PR 3 network stack), seed for seed.
// ---------------------------------------------------------------------------

#[derive(Debug, PartialEq)]
struct Fingerprint {
    events: u64,
    sent: u64,
    bytes: u64,
    end_nanos: u64,
    reads: Vec<Option<u64>>,
    weights: WeightMap,
}

fn drive(
    h: &mut StorageHarness<u64>,
    mut on_round: impl FnMut(&mut StorageHarness<u64>, usize),
) -> Vec<Option<u64>> {
    let mut reads = Vec::new();
    for round in 0..6 {
        h.write(0, round as u64).unwrap();
        reads.push(h.read(0).unwrap().0);
        on_round(h, round);
    }
    h.settle();
    reads
}

fn fingerprint(h: &StorageHarness<u64>, reads: Vec<Option<u64>>) -> Fingerprint {
    let m = h.world.metrics();
    let n = h.config().n;
    Fingerprint {
        events: m.events_processed,
        sent: m.messages_sent,
        bytes: m.bytes_sent,
        end_nanos: m.last_time.nanos(),
        reads,
        weights: h
            .world
            .actor::<awr::storage::DynServer<u64>>(h.server_actor(s(0)))
            .unwrap()
            .changes()
            .weights(n),
    }
}

#[test]
fn static_policy_with_zero_cross_traffic_replays_the_plain_schedule() {
    for seed in [3u64, 11, 42] {
        // Arm 1: the plain bandwidth-aware geo network (the PR 3 stack).
        let mut plain: StorageHarness<u64> = StorageHarness::build(
            RpConfig::uniform(5, 1),
            1,
            seed,
            geo_network(&geo_placement(), 0.05),
            DynOptions::default(),
        );
        let plain_reads = drive(&mut plain, |_, _| {});

        // Arm 2: the same network wrapped in CrossTraffic with no flows,
        // plus a Static placement driver ticking every other round.
        let net = CrossTraffic::new(geo_network(&geo_placement(), 0.05), vec![]);
        let stats = net.stats();
        let mut wrapped: StorageHarness<u64> =
            StorageHarness::build(RpConfig::uniform(5, 1), 1, seed, net, DynOptions::default());
        let mut driver = PlacementDriver::new(Static, vec![wrapped.client_actor(0)]);
        let wrapped_reads = drive(&mut wrapped, |h, round| {
            if round % 2 == 1 {
                assert_eq!(driver.tick(h), 0, "static must never reassign");
            }
        });

        assert_eq!(
            fingerprint(&plain, plain_reads),
            fingerprint(&wrapped, wrapped_reads),
            "seed {seed}: schedules diverged"
        );
        assert_eq!(stats.total_injected(), 0);
        assert_eq!(driver.log.len(), 3);
        assert!(driver.log.entries().iter().all(|d| d.is_noop()));
    }
}

// ---------------------------------------------------------------------------
// Cross traffic really contends, and the contention is observable.
// ---------------------------------------------------------------------------

#[test]
fn cross_traffic_slows_ops_and_is_observed_in_metrics() {
    let run = |with_flows: bool| {
        let flows = if with_flows {
            // Ireland's ack link: 50 MB bursts every 400 ms.
            vec![Flow::new(
                ActorId(1),
                ActorId(5),
                BurstyOnOff::new(40 * MILLI, 360 * MILLI, 1_250_000_000),
            )]
        } else {
            vec![]
        };
        let net = CrossTraffic::new(geo_network(&geo_placement(), 0.0), flows);
        let stats = net.stats();
        let mut h: StorageHarness<u64> =
            StorageHarness::build(RpConfig::uniform(5, 1), 1, 7, net, DynOptions::default());
        let mut total_ms = 0.0;
        for v in 0..8u64 {
            let op = if v % 2 == 0 {
                h.write(0, v).unwrap()
            } else {
                h.read(0).unwrap().1
            };
            total_ms += (op.response - op.invoke) as f64 / 1e6;
        }
        let queued = h
            .world
            .metrics()
            .mean_link_queueing(ActorId(1), ActorId(5))
            .unwrap_or(0.0);
        (total_ms, queued, stats.total_injected())
    };
    let (clean_ms, clean_q, clean_bytes) = run(false);
    let (hot_ms, hot_q, hot_bytes) = run(true);
    assert_eq!(clean_bytes, 0);
    assert!(hot_bytes > 100_000_000, "flows must inject ({hot_bytes})");
    assert_eq!(clean_q, 0.0);
    assert!(hot_q > 1e6, "queueing must be observed ({hot_q})");
    assert!(
        hot_ms > clean_ms,
        "contention must slow ops ({hot_ms:.2} vs {clean_ms:.2})"
    );
}

// ---------------------------------------------------------------------------
// The bare restricted protocol's reassignment driver.
// ---------------------------------------------------------------------------

#[test]
fn rp_harness_reassigns_toward_a_target() {
    let cfg = RpConfig::uniform(5, 1);
    let mut h = RpHarness::build(cfg.clone(), 1, 9, UniformLatency::new(1_000, 60_000));
    let target = WeightMap::dec(&["1.2", "1.2", "0.8", "0.8", "1"]);
    let issued = h.reassign_toward(&target).unwrap();
    assert_eq!(issued, 2);
    h.settle();
    assert_eq!(h.weights_seen_by(s(0)), target);
    let report = audit_transfers(&cfg, &h.all_completed());
    assert!(report.is_clean(), "{:?}", report.violations);
    // Already at target: nothing further to do.
    assert_eq!(h.reassign_toward(&target).unwrap(), 0);
}

// ---------------------------------------------------------------------------
// Adaptive placement end-to-end beats static under contention (the bench
// gate's scenario in miniature).
// ---------------------------------------------------------------------------

#[test]
fn adaptive_placement_beats_static_under_cross_traffic() {
    let run = |adaptive: bool| {
        let flows = vec![Flow::new(
            ActorId(1),
            ActorId(5),
            BurstyOnOff::new(40 * MILLI, 360 * MILLI, 1_250_000_000),
        )];
        let net = CrossTraffic::new(geo_network(&geo_placement(), 0.0), flows);
        let mut h: StorageHarness<u64> =
            StorageHarness::build(RpConfig::uniform(5, 1), 1, 13, net, DynOptions::default());
        let mut driver: PlacementDriver = if adaptive {
            PlacementDriver::new(UtilizationAware::default(), vec![h.client_actor(0)])
        } else {
            PlacementDriver::new(Static, vec![h.client_actor(0)])
        };
        for v in 0..6u64 {
            if v % 2 == 0 {
                h.write(0, v).unwrap();
            } else {
                h.read(0).unwrap();
            }
        }
        driver.tick(&mut h);
        h.settle();
        h.write(0, 99).unwrap();
        h.read(0).unwrap();
        let mut total_ms = 0.0;
        const OPS: u64 = 10;
        for v in 0..OPS {
            let op = if v % 2 == 0 {
                h.write(0, 100 + v).unwrap()
            } else {
                h.read(0).unwrap().1
            };
            total_ms += (op.response - op.invoke) as f64 / 1e6;
        }
        total_ms / OPS as f64
    };
    let static_ms = run(false);
    let adaptive_ms = run(true);
    assert!(
        adaptive_ms < static_ms,
        "adaptive ({adaptive_ms:.2} ms) must beat static ({static_ms:.2} ms)"
    );
}

// ---------------------------------------------------------------------------
// Seed-pinned replay: the schedule, the byte accounting and every placement
// decision of an adaptive open-loop run, with every message charged its
// codec frame. A change to the simulator's bookkeeping that is only meant
// to make it faster must reproduce these to the last digit.
// ---------------------------------------------------------------------------

/// What one seed of the pinned run must reproduce.
struct ReplayPin {
    seed: u64,
    generated: u64,
    events: u64,
    sent: u64,
    bytes: u64,
    end_nanos: u64,
    /// `link_delay` of client 0 → server 2 and back.
    request_delay: LinkDelayStat,
    reply_delay: LinkDelayStat,
    /// `(bytes_of_object, msgs_of_object)` of key 3.
    object3: (u64, u64),
    busiest: (usize, usize, u64),
    incident_bytes_s0: u64,
    max_link_utilization: f64,
    max_uplink_utilization: f64,
    /// The `repolled_behind` counter: rejections that taught a client
    /// nothing, answered by re-sending the same request to that server.
    repolled_behind: u64,
    /// The `held_behind` counter: requests a server held until its
    /// refresh landed, instead of rejecting them.
    held_behind: u64,
}

const REPLAY_PINS: [ReplayPin; 2] = [
    ReplayPin {
        seed: 7,
        generated: 4_030,
        events: 57_214,
        sent: 53_163,
        bytes: 551_355,
        end_nanos: 29_775_208_401,
        request_delay: LinkDelayStat {
            count: 341,
            queued: 0,
            transmission: 20_085,
            propagation: 20_479_197_091,
        },
        reply_delay: LinkDelayStat {
            count: 341,
            queued: 0,
            transmission: 26_020,
            propagation: 20_502_799_588,
        },
        object3: (9_135, 900),
        busiest: (3, 18, 4_449),
        incident_bytes_s0: 112_436,
        max_link_utilization: 0.000001494196090950141,
        max_uplink_utilization: 0.00002096848463969211,
        repolled_behind: 0,
        held_behind: 115,
    },
    ReplayPin {
        seed: 1234,
        generated: 3_891,
        events: 55_186,
        sent: 51_274,
        bytes: 533_167,
        end_nanos: 30_644_646_813,
        request_delay: LinkDelayStat {
            count: 305,
            queued: 0,
            transmission: 17_844,
            propagation: 18_318_815_461,
        },
        reply_delay: LinkDelayStat {
            count: 305,
            queued: 0,
            transmission: 23_371,
            propagation: 18_290_041_581,
        },
        object3: (7_057, 647),
        busiest: (4, 18, 4_338),
        incident_bytes_s0: 109_209,
        max_link_utilization: 0.000001415581659815294,
        max_uplink_utilization: 0.00001977608042599176,
        repolled_behind: 0,
        held_behind: 110,
    },
];

/// The decisions of the windowed latency-greedy driver, the same on both
/// seeds: `(virtual second, transfers issued, proposal)`. The first
/// window moves weight to the clients' region; every later one agrees.
const REPLAY_DECISIONS: [(u64, usize, &str); 4] = [
    (5, 4, "[2.248, 0.688, 0.688, 0.688, 0.688]"),
    (10, 0, "[2.248, 0.688, 0.688, 0.688, 0.688]"),
    (15, 0, "[2.248, 0.688, 0.688, 0.688, 0.688]"),
    (20, 0, "[2.248, 0.688, 0.688, 0.688, 0.688]"),
];

#[test]
fn adaptive_open_loop_run_replays_the_pinned_schedule_and_accounting() {
    for pin in &REPLAY_PINS {
        let seed = pin.seed;
        let mut placement = Region::ALL.to_vec();
        placement.extend(std::iter::repeat_n(Region::Virginia, 16));
        let mut h = OpenLoopHarness::build(
            RpConfig::uniform(5, 1),
            &OpenLoopSpec {
                n_clients: 16,
                n_objects: 64,
                dist: KeyDistribution::Uniform,
                write_fraction: 0.3,
                arrivals: ArrivalSpec::Poisson {
                    rate_per_sec: 200.0,
                },
                duration: 20 * SECOND,
                per_object: false,
                seed,
            },
            geo_network(&placement, 0.05),
            // The pins capture the paper-literal phase-1 fanout.
            DynOptions {
                fanout: Fanout::All,
                ..DynOptions::default()
            },
        );
        let mut driver = PlacementDriver::new(LatencyGreedy::default(), h.client_actors().to_vec());
        driver.windowed = true;
        h.run(Some(&mut driver), 5 * SECOND);

        let st = h.stats();
        assert_eq!((st.generated, st.completed), (pin.generated, pin.generated));
        let m = h.inner.world.metrics();
        assert_eq!(m.events_processed, pin.events, "seed {seed}: events");
        assert_eq!(m.messages_sent, pin.sent, "seed {seed}: messages");
        assert_eq!(m.bytes_sent, pin.bytes, "seed {seed}: bytes");
        assert_eq!(m.last_time.nanos(), pin.end_nanos, "seed {seed}: end");
        let (c0, s2) = (h.client_actors()[0], ActorId(2));
        assert_eq!(
            m.link_delay(c0, s2),
            Some(&pin.request_delay),
            "seed {seed}"
        );
        assert_eq!(m.link_delay(s2, c0), Some(&pin.reply_delay), "seed {seed}");
        assert_eq!(
            (m.bytes_of_object(3), m.msgs_of_object(3)),
            pin.object3,
            "seed {seed}: object 3"
        );
        let (from, to, bytes) = pin.busiest;
        assert_eq!(
            m.busiest_link(),
            Some(((ActorId(from), ActorId(to)), bytes)),
            "seed {seed}: busiest link"
        );
        assert_eq!(m.incident_bytes(ActorId(0)), pin.incident_bytes_s0);
        // Bit-for-bit: the utilization maxima are one division each.
        assert_eq!(m.max_link_utilization(), pin.max_link_utilization);
        assert_eq!(m.max_uplink_utilization(), pin.max_uplink_utilization);
        assert_eq!(
            m.counter("repolled_behind"),
            pin.repolled_behind,
            "seed {seed}: re-polls of a server behind its client"
        );
        assert_eq!(
            m.counter("held_behind"),
            pin.held_behind,
            "seed {seed}: requests held behind a refresh"
        );

        let decisions: Vec<(u64, usize, String)> = driver
            .log
            .entries()
            .iter()
            .map(|d| (d.at_nanos / SECOND, d.issued, d.proposed.to_string()))
            .collect();
        let expected: Vec<(u64, usize, String)> = REPLAY_DECISIONS
            .iter()
            .map(|&(at, issued, proposed)| (at, issued, proposed.to_string()))
            .collect();
        assert_eq!(decisions, expected, "seed {seed}: placement decisions");
    }
}
