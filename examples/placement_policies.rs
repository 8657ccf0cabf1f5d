//! The adaptive placement loop end-to-end: a geo-replicated dynamic
//! storage system under cross traffic observes its per-link latency and
//! utilization matrices, lets a placement policy propose a weight map,
//! and reassigns through the restricted protocol — then keeps serving,
//! measurably faster.
//!
//! Run with: `cargo run --example placement_policies`

// stdout is this target's interface; exempt from the workspace print lint.
#![allow(clippy::print_stdout)]

use awr::core::{audit_transfers, RpConfig};
use awr::quorum::placement::{LatencyGreedy, PlacementPolicy, Static, UtilizationAware};
use awr::sim::{
    geo_network, ActorId, BurstyOnOff, CrossTraffic, Flow, ReassignmentBurst, Region, MILLI,
};
use awr::storage::{check_linearizable, DynClient, DynOptions, PlacementDriver, StorageHarness};

const N: usize = 5;

/// Five servers, one per region; the client lives beside Virginia.
fn placement() -> Vec<Region> {
    let mut p = Region::ALL.to_vec();
    p.push(Region::Virginia);
    p
}

/// Elephant bursts and a competing reassignment wave congest the Ireland
/// and São Paulo ack corridors.
fn flows() -> Vec<Flow> {
    let client = ActorId(N);
    const MB: u64 = 1_000_000;
    vec![
        Flow::new(
            ActorId(1),
            client,
            BurstyOnOff::new(40 * MILLI, 360 * MILLI, 1_250 * MB),
        ),
        Flow::new(
            ActorId(2),
            client,
            ReassignmentBurst::new(450 * MILLI, 20 * MB, 100 * MILLI),
        ),
    ]
}

fn run(policy: Box<dyn PlacementPolicy>) -> (String, f64, usize) {
    let net = CrossTraffic::new(geo_network(&placement(), 0.02), flows());
    let mut h: StorageHarness<u64> = StorageHarness::build(
        RpConfig::uniform(N, 1),
        1,
        0x91ACE,
        net,
        DynOptions::default(),
    );
    let name = policy.name().to_string();
    let mut driver = PlacementDriver::new(policy, vec![h.client_actor(0)]);

    // Observe: six warmup ops fill the delay/utilization matrices.
    for v in 0..6u64 {
        if v % 2 == 0 {
            h.write(0, v).unwrap();
        } else {
            h.read(0).unwrap();
        }
    }
    // Decide + reassign.
    let issued = driver.tick(&mut h);
    h.settle();
    let decision = driver.log.last().expect("one decision").clone();
    println!(
        "{name:<18} proposed {} ({} transfer(s) issued)",
        decision.proposed, issued
    );

    // Measure twelve steady-state ops.
    h.write(0, 100).unwrap();
    h.read(0).unwrap();
    for v in 0..12u64 {
        if v % 2 == 0 {
            h.write(0, 200 + v).unwrap();
        } else {
            h.read(0).unwrap();
        }
    }
    let completed = &h
        .world
        .actor::<DynClient<u64>>(h.client_actor(0))
        .expect("client")
        .driver
        .completed;
    let measured = completed.iter().skip(8);
    let count = measured.len();
    let mean_ms = measured
        .map(|o| (o.response - o.invoke) as f64 / 1e6)
        .sum::<f64>()
        / count as f64;

    // Whatever the policy did, the system stayed correct.
    h.settle();
    check_linearizable(&h.history()).expect("linearizable under adaptive placement");
    let report = audit_transfers(h.config(), &h.all_completed_transfers());
    assert!(report.is_clean(), "{:?}", report.violations);
    (name, mean_ms, issued)
}

fn main() {
    println!("geo-replicated storage under cross traffic; one decision tick\n");
    let mut results = Vec::new();
    for policy in [
        Box::new(Static) as Box<dyn PlacementPolicy>,
        Box::new(LatencyGreedy::default()),
        Box::new(UtilizationAware::default()),
    ] {
        results.push(run(policy));
    }
    println!();
    for (name, mean_ms, _) in &results {
        println!("{name:<18} mean op latency {mean_ms:>7.2} ms");
    }
    let static_ms = results[0].1;
    let best = results[1..]
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    assert!(
        best.1 < static_ms,
        "an adaptive policy should beat static ({:.2} vs {static_ms:.2})",
        best.1
    );
    println!(
        "\nadaptive placement ({}) beat static by {:.2}x",
        best.0,
        static_ms / best.1
    );
}
