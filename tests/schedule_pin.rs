//! A schedule pin for a reduced run shaped like the benchmark's
//! `sim_wan_adaptive` workload: five servers, one per region, every client
//! in Virginia, a uniform draw over 2 048 keys, 30 % writes, Poisson
//! arrivals on a jittered WAN, and windowed `LatencyGreedy` placement
//! ticked every 5 s.
//!
//! A change that only makes the simulator faster must leave every number
//! below as it is: the events run, the messages and bytes of each kind,
//! the completed operations and the virtual medians. A pin that moves is a
//! behaviour change — explain it and re-pin in the same change.

use awr::core::RpConfig;
use awr::quorum::placement::LatencyGreedy;
use awr::sim::{geo_network, ArrivalSpec, Region, SECOND};
use awr::storage::workload::KeyDistribution;
use awr::storage::{
    DynOptions, OpKind, OpenLoopClient, OpenLoopHarness, OpenLoopSpec, PlacementDriver,
};

const N: usize = 5;
const F: usize = 1;
const CLIENTS: usize = 32;
const KEYS: usize = 2048;
const RATE_PER_S: f64 = 400.0;
const DURATION: u64 = 16 * SECOND;
const DECIDE_EVERY: u64 = 5 * SECOND;

/// What the pin compares.
#[derive(Debug, PartialEq, Eq)]
struct Schedule {
    events: u64,
    timers_fired: u64,
    /// `(kind, messages, bytes)` in kind order.
    kinds: Vec<(&'static str, u64, u64)>,
    /// Keys named by a message, and the messages and bytes they drew.
    objects: (usize, u64, u64),
    completed: u64,
    read_p50_ns: u64,
    write_p50_ns: u64,
}

/// The nearest-rank median of `v`.
fn median(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    v[(v.len() - 1) / 2]
}

fn run(seed: u64) -> Schedule {
    let mut regions = Region::ALL.to_vec();
    regions.extend(std::iter::repeat_n(Region::Virginia, CLIENTS));
    let spec = OpenLoopSpec {
        n_clients: CLIENTS,
        n_objects: KEYS,
        dist: KeyDistribution::Uniform,
        write_fraction: 0.3,
        arrivals: ArrivalSpec::Poisson {
            rate_per_sec: RATE_PER_S,
        },
        duration: DURATION,
        per_object: false,
        seed,
    };
    let mut h = OpenLoopHarness::build(
        RpConfig::uniform(N, F),
        &spec,
        geo_network(&regions, 0.05),
        DynOptions::default(),
    );
    let mut driver = PlacementDriver::new(LatencyGreedy::default(), h.client_actors().to_vec());
    driver.windowed = true;
    h.run(Some(&mut driver), DECIDE_EVERY);
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for &a in h.client_actors() {
        let c = h.inner.world.actor::<OpenLoopClient>(a).expect("client");
        for op in c.completed_ops() {
            let latency = op.response.0 - op.invoke.0;
            match op.kind {
                OpKind::Read(_) => reads.push(latency),
                OpKind::Write(_) => writes.push(latency),
            }
        }
    }
    let m = h.inner.world.metrics();
    Schedule {
        events: m.events_processed,
        timers_fired: m.timers_fired,
        kinds: m
            .sent_by_kind
            .iter()
            .map(|(&kind, &msgs)| (kind, msgs, m.bytes_of_kind(kind)))
            .collect(),
        objects: m.objects().fold((0, 0, 0), |(k, msgs, bytes), (_, s)| {
            (k + 1, msgs + s.msgs, bytes + s.bytes)
        }),
        completed: h.stats().completed,
        read_p50_ns: median(reads),
        write_p50_ns: median(writes),
    }
}

#[test]
fn a_reduced_wan_adaptive_run_keeps_its_schedule() {
    let pins = [
        (
            7,
            Schedule {
                events: 49_704,
                timers_fired: 6_398,
                kinds: vec![
                    ("R", 9_501, 70_274),
                    ("RV", 4_591, 34_013),
                    ("R_A", 14_035, 147_805),
                    ("RefA", 36, 180),
                    ("RefR", 36, 22_536),
                    ("T", 64, 1_152),
                    ("T_Ack", 16, 64),
                    ("W", 4_271, 77_832),
                    ("W_A", 4_271, 27_145),
                ],
                objects: (1_932, 36_669, 357_069),
                completed: 6_383,
                read_p50_ns: 76_417_795,
                write_p50_ns: 152_636_297,
            },
        ),
        (
            8,
            Schedule {
                events: 50_483,
                timers_fired: 6_516,
                kinds: vec![
                    ("R", 9_647, 71_670),
                    ("RV", 4_680, 34_543),
                    ("R_A", 14_267, 151_307),
                    ("RefA", 36, 180),
                    ("RefR", 36, 23_608),
                    ("T", 64, 1_152),
                    ("T_Ack", 16, 64),
                    ("W", 4_306, 78_641),
                    ("W_A", 4_306, 27_604),
                ],
                objects: (1_958, 37_206, 363_765),
                completed: 6_503,
                read_p50_ns: 76_439_375,
                write_p50_ns: 152_685_633,
            },
        ),
    ];
    for (seed, pin) in pins {
        assert_eq!(run(seed), pin, "seed {seed}");
    }
}
