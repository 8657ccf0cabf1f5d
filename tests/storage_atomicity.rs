//! Integration tests for the dynamic-weighted atomic storage (Theorem 6):
//! linearizability under concurrent reads, writes, transfers, crashes, and
//! adversarial schedules.

use awr::core::{audit_transfers, RpConfig};
use awr::sim::UniformLatency;
use awr::storage::workload::{run_mixed_workload, WorkloadSpec};
use awr::storage::{check_linearizable, DynOptions, StorageHarness};
use awr::types::{Ratio, ServerId};

fn s(i: u32) -> ServerId {
    ServerId(i)
}

#[test]
fn mixed_workloads_linearizable_many_seeds() {
    // With no transfer attempted the configuration stays frozen: that run
    // is the static (majority) ABD baseline.
    for (seed, transfer_percent) in (0..8).flat_map(|seed| [(seed, 30), (seed, 0)]) {
        let mut h: StorageHarness<u64> = StorageHarness::build(
            RpConfig::uniform(7, 2),
            4,
            seed,
            UniformLatency::new(1_000, 50_000),
            DynOptions::default(),
        );
        let spec = WorkloadSpec {
            transfer_percent,
            ..WorkloadSpec::default()
        };
        let stats = run_mixed_workload(&mut h, 4, &spec, seed);
        assert!(stats.reads + stats.writes > 10, "seed {seed}: thin history");
        assert_eq!(stats.transfers_attempted == 0, transfer_percent == 0);
        check_linearizable(&h.history()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let report = audit_transfers(h.config(), &h.all_completed_transfers());
        assert!(report.is_clean(), "seed {seed}: {:?}", report.violations);
    }
}

#[test]
fn storage_linearizable_with_crashes_and_transfers() {
    for seed in 0..6 {
        let mut h: StorageHarness<u64> = StorageHarness::build(
            RpConfig::uniform(7, 2),
            3,
            100 + seed,
            UniformLatency::new(1_000, 50_000),
            DynOptions::default(),
        );
        h.write(0, 1).unwrap();
        h.transfer_and_wait(s(3), s(0), Ratio::dec("0.2")).unwrap();
        // Crash two servers (the maximum f).
        h.crash_server(s(5));
        h.crash_server(s(6));
        h.write(1, 2).unwrap();
        h.transfer_and_wait(s(4), s(1), Ratio::dec("0.2")).unwrap();
        let (v, _) = h.read(2).unwrap();
        assert_eq!(v, Some(2), "seed {seed}");
        h.settle();
        check_linearizable(&h.history()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn weight_gains_by_crashed_servers_do_not_block_the_system() {
    // A transfer *to* a crashed server still completes (the receiver's
    // register refresh never runs, but n − f − 1 other servers ack), and
    // the system keeps serving.
    let mut h: StorageHarness<u64> = StorageHarness::build(
        RpConfig::uniform(7, 2),
        2,
        9,
        UniformLatency::new(1_000, 50_000),
        DynOptions::default(),
    );
    h.write(0, 5).unwrap();
    h.crash_server(s(6));
    let out = h.transfer_and_wait(s(3), s(6), Ratio::dec("0.1")).unwrap();
    assert!(out.is_effective());
    let (v, _) = h.read(1).unwrap();
    assert_eq!(v, Some(5));
    check_linearizable(&h.history()).unwrap();
}

#[test]
fn many_small_transfers_conserve_total_and_stay_atomic() {
    let mut h: StorageHarness<u64> = StorageHarness::build(
        RpConfig::uniform(5, 1),
        2,
        11,
        UniformLatency::new(1_000, 30_000),
        DynOptions::default(),
    );
    h.write(0, 1).unwrap();
    for i in 0..20u32 {
        let from = s(i % 5);
        let to = s((i + 2) % 5);
        let _ = h.transfer_and_wait(from, to, Ratio::dec("0.05"));
        if i % 5 == 0 {
            h.write(1, 100 + i as u64).unwrap();
        }
    }
    h.settle();
    // Conservation through ~20 transfers.
    let total = h
        .world
        .actor::<awr::storage::DynServer<u64>>(h.server_actor(s(0)))
        .unwrap()
        .changes()
        .total_weight(5);
    assert_eq!(total, Ratio::integer(5));
    check_linearizable(&h.history()).unwrap();
    let report = audit_transfers(h.config(), &h.all_completed_transfers());
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn restart_metric_visible_to_clients() {
    let mut h: StorageHarness<u64> = StorageHarness::build(
        RpConfig::uniform(7, 2),
        2,
        13,
        UniformLatency::new(1_000, 40_000),
        DynOptions::default(),
    );
    h.write(0, 1).unwrap();
    h.transfer_and_wait(s(3), s(0), Ratio::dec("0.25")).unwrap();
    h.settle();
    let (_, op) = h.read(1).unwrap(); // client 1 is stale → restarts
    assert!(op.restarts > 0);
    assert!(h.total_restarts() > 0);
}
