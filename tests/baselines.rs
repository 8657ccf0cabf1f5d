//! Integration tests contrasting the paper's protocol with its baselines:
//! the reassignment ones (epoch-based [11] and consensus-based related
//! work — the E8/E9 shapes as assertions) and the §VII storage ones, static
//! MQS and static WMQS, which are the dynamic storage under a configuration
//! that is never reassigned (the E7 shape, and that identity).

use awr::consensus::{CwrNode, SlotMsg, WeightCmd};
use awr::core::{RpConfig, RpHarness};
use awr::epoch::{EpochEngine, EpochRequest};
use awr::sim::{shared_latency, ActorId, SlowActors, Time, UniformLatency, World, MILLI, SECOND};
use awr::storage::{DynOptions, StorageHarness};
use awr::types::{Ratio, ServerId, WeightMap};
use awr_bench::e7;

#[test]
fn e7_ordering_and_the_frozen_config_identity() {
    let (mqs_a, _) = e7::run(RpConfig::uniform(e7::N, 1), e7::SEED, |_| {});
    let (wmqs_a, wmqs_b) = e7::run(e7::wheat_config(), e7::SEED, |_| {});
    let (dyn_a, dyn_b, _) = e7::run_dynamic(e7::SEED);
    assert!(
        wmqs_a < mqs_a,
        "healthy phase: WMQS {wmqs_a} vs MQS {mqs_a}"
    );
    assert!(
        dyn_b < wmqs_b,
        "after the shift: dynamic {dyn_b} vs static WMQS {wmqs_b}"
    );
    // Until its first transfer the dynamic system *is* the static one.
    assert_eq!(wmqs_a, dyn_a);
    assert_eq!(format!("{dyn_a:.2}"), "114.09");
}

fn frozen(cfg: RpConfig, seed: u64) -> StorageHarness<u64> {
    let latency = UniformLatency::new(1_000, 60_000);
    StorageHarness::build(cfg, 2, seed, latency, DynOptions::default())
}

#[test]
fn frozen_config_serves_with_f_servers_crashed() {
    let mut h = frozen(RpConfig::uniform(5, 2), 3);
    h.crash_server(ServerId(0));
    h.crash_server(ServerId(1));
    h.write(0, 7).unwrap();
    assert_eq!(h.read(1).unwrap().0, Some(7));
}

#[test]
fn frozen_nonuniform_weights_complete_on_the_heavy_pair_alone() {
    // Static WMQS: s0 + s1 carry 4 of 7, a quorum by themselves, so
    // operations complete with every light server down.
    let cfg = RpConfig::new(1, WeightMap::dec(&["2", "2", "1", "1", "1"])).unwrap();
    let mut h = frozen(cfg, 4);
    for light in 2..5 {
        h.crash_server(ServerId(light));
    }
    h.write(0, 9).unwrap();
    assert_eq!(h.read(1).unwrap().0, Some(9));
}

#[test]
fn epochless_applies_faster_than_epoch_based() {
    // Epoch-based: a request submitted right after a boundary waits almost
    // a full epoch.
    let mut e = EpochEngine::new(WeightMap::uniform(7, Ratio::ONE), 2);
    e.submit(EpochRequest {
        server: ServerId(0),
        delta: Ratio::dec("-0.1"),
        submitted: Time(10 * MILLI),
    });
    e.end_epoch(Time(SECOND));
    let epoch_delay_ms = e.mean_apply_delay_ms();
    assert!(epoch_delay_ms > 900.0);

    // Epochless: one RB round trip on the same-scale network.
    let cfg = RpConfig::uniform(7, 2);
    let mut h = RpHarness::build(cfg, 1, 8, UniformLatency::new(10 * MILLI, 60 * MILLI));
    let t0 = h.world.now();
    h.transfer_and_wait(ServerId(0), ServerId(1), Ratio::dec("0.1"))
        .unwrap();
    let protocol_delay_ms = (h.world.now() - t0) as f64 / 1e6;
    assert!(
        protocol_delay_ms < epoch_delay_ms / 2.0,
        "epochless {protocol_delay_ms} ms should beat epoch-based {epoch_delay_ms} ms"
    );
}

#[test]
fn epoch_based_can_leak_total_weight_but_protocol_cannot() {
    // Epoch-based: a decrease whose matching increase misses the boundary.
    let mut e = EpochEngine::new(WeightMap::uniform(7, Ratio::ONE), 2);
    e.submit(EpochRequest {
        server: ServerId(0),
        delta: Ratio::dec("-0.2"),
        submitted: Time(0),
    });
    e.end_epoch(Time(SECOND)); // increase not yet submitted
    e.submit(EpochRequest {
        server: ServerId(1),
        delta: Ratio::dec("0.2"),
        submitted: Time(SECOND + MILLI),
    });
    e.end_epoch(Time(2 * SECOND)); // no release in this epoch → rejected
    assert!(e.weights().total() < Ratio::integer(7), "leak expected");

    // The pairwise protocol conserves the total by construction.
    let cfg = RpConfig::uniform(7, 2);
    let mut h = RpHarness::build(cfg, 1, 9, UniformLatency::new(1_000, 40_000));
    for i in 0..6u32 {
        let _ = h.transfer_and_wait(ServerId(i), ServerId(i + 1), Ratio::dec("0.05"));
    }
    h.settle();
    assert_eq!(h.weights_seen_by(ServerId(0)).total(), Ratio::integer(7));
}

#[test]
fn consensus_baseline_stalls_with_leader_but_protocol_does_not() {
    // Consensus-based: delay the leader 1000× and submit one command.
    let (handle, model) = shared_latency(SlowActors::new(
        UniformLatency::new(MILLI, 20 * MILLI),
        vec![],
        1_000,
    ));
    let mut w: World<SlotMsg> = World::new(10, model);
    for i in 0..5 {
        w.add_actor(CwrNode::new(
            5,
            2,
            WeightMap::uniform(5, Ratio::ONE),
            i == 0,
        ));
    }
    handle.lock().set_slow(vec![ActorId(0)]);
    w.with_actor_ctx::<CwrNode, _>(ActorId(0), |n, ctx| {
        n.submit(
            WeightCmd {
                from: ServerId(1),
                to: ServerId(0),
                delta: Ratio::dec("0.1"),
            },
            ctx,
        );
    });
    w.run_for(2 * SECOND);
    assert_eq!(
        w.actor::<CwrNode>(ActorId(1)).unwrap().applied_count(),
        0,
        "consensus must stall while the leader is delayed"
    );

    // Restricted pairwise under the *same* adversary: transfers between
    // non-delayed servers complete.
    let (handle, model) = shared_latency(SlowActors::new(
        UniformLatency::new(MILLI, 20 * MILLI),
        vec![],
        1_000,
    ));
    let cfg = RpConfig::uniform(5, 1);
    let mut h = RpHarness::build(cfg, 1, 10, model);
    handle.lock().set_slow(vec![ActorId(0)]);
    let out = h
        .transfer_and_wait(ServerId(1), ServerId(2), Ratio::dec("0.1"))
        .expect("leaderless transfer must complete");
    assert!(out.is_effective());
}
