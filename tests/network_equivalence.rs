//! Seed-for-seed equivalence of the `LatencyModel` and `NetworkModel`
//! paths: wrapping any latency model in [`BandwidthLinks`] with infinite
//! bandwidth must reproduce the *exact* schedule — same event count, same
//! byte accounting, same virtual end time, same protocol outcomes — because
//! the blanket `NetworkModel` impl charges zero transmission and the
//! wrapper draws no extra randomness. This is the contract that lets every
//! pre-existing scenario, test, and bench keep its meaning now that the
//! simulator is size-aware.

use awr::core::{RpConfig, RpHarness};
use awr::sim::{
    BandwidthLinks, BandwidthMatrix, ConstantLatency, Metrics, NetworkModel, UniformLatency,
};
use awr::storage::{DynOptions, StorageHarness};
use awr::types::{Ratio, ServerId};

fn s(i: u32) -> ServerId {
    ServerId(i)
}

/// The observable fingerprint of a run.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    events: u64,
    sent: u64,
    bytes: u64,
    end_nanos: u64,
    reads: Vec<Option<u64>>,
}

fn storage_scenario(seed: u64, network: impl NetworkModel + 'static) -> Fingerprint {
    let cfg = RpConfig::uniform(5, 1);
    let mut h: StorageHarness<u64> =
        StorageHarness::build(cfg, 2, seed, network, DynOptions::default());
    let mut reads = Vec::new();
    h.write(0, 7).unwrap();
    h.transfer_and_wait(s(3), s(0), Ratio::dec("0.1")).unwrap();
    reads.push(h.read(1).unwrap().0);
    h.transfer_async(s(4), s(1), Ratio::dec("0.1")).unwrap();
    h.write(1, 8).unwrap();
    reads.push(h.read(0).unwrap().0);
    h.settle();
    let m: &Metrics = h.world.metrics();
    Fingerprint {
        events: m.events_processed,
        sent: m.messages_sent,
        bytes: m.bytes_sent,
        end_nanos: m.last_time.nanos(),
        reads,
    }
}

#[test]
fn constant_latency_schedule_is_identical_under_infinite_bandwidth() {
    for seed in 0..5 {
        let plain = storage_scenario(seed, ConstantLatency(25_000));
        let wrapped = storage_scenario(
            seed,
            BandwidthLinks::new(ConstantLatency(25_000), BandwidthMatrix::unlimited(7)),
        );
        assert_eq!(plain, wrapped, "seed {seed}: schedules diverged");
    }
}

#[test]
fn uniform_latency_schedule_is_identical_under_infinite_bandwidth() {
    for seed in 0..5 {
        let plain = storage_scenario(seed, UniformLatency::new(1_000, 50_000));
        let wrapped = storage_scenario(
            seed,
            BandwidthLinks::new(
                UniformLatency::new(1_000, 50_000),
                BandwidthMatrix::unlimited(7),
            ),
        );
        assert_eq!(plain, wrapped, "seed {seed}: schedules diverged");
    }
}

#[test]
fn finite_bandwidth_changes_the_schedule_but_not_the_outcome() {
    // Sanity check of the flip side: a constrained network stretches the
    // run (the bytes now cost time) without changing what the protocol
    // computes. (Message/byte totals legitimately differ — a different
    // schedule means different stale-read restarts and re-polls.)
    let plain = storage_scenario(3, UniformLatency::new(1_000, 50_000));
    let constrained = storage_scenario(
        3,
        BandwidthLinks::new(
            UniformLatency::new(1_000, 50_000),
            BandwidthMatrix::uniform(7, 100_000), // 100 KB/s: bytes hurt
        ),
    );
    assert_eq!(plain.reads, constrained.reads);
    assert!(
        constrained.end_nanos > plain.end_nanos,
        "transmission time must stretch the run ({} vs {})",
        constrained.end_nanos,
        plain.end_nanos
    );
}

#[test]
fn rp_harness_schedule_is_identical_under_infinite_bandwidth() {
    let run = |network: Box<dyn NetworkModel>| {
        let cfg = RpConfig::uniform(7, 2);
        let mut h = RpHarness::build(cfg, 1, 11, network);
        h.transfer_and_wait(s(3), s(0), Ratio::dec("0.2")).unwrap();
        h.transfer_queued(s(4), s(1), Ratio::dec("0.1")).unwrap();
        h.transfer_queued(s(4), s(2), Ratio::dec("0.1")).unwrap();
        h.settle();
        let rc = h.read_changes(0, s(0)).unwrap();
        (
            h.world.metrics().events_processed,
            h.world.metrics().bytes_sent,
            h.world.now().nanos(),
            rc.weight(),
        )
    };
    let plain = run(Box::new(UniformLatency::new(1_000, 80_000)));
    let wrapped = run(Box::new(BandwidthLinks::new(
        UniformLatency::new(1_000, 80_000),
        BandwidthMatrix::unlimited(8),
    )));
    assert_eq!(plain, wrapped);
    assert_eq!(plain.3, Ratio::dec("1.2"));
}
