//! Multi-object keyed storage: many registers, one weighted configuration.
//!
//! Builds a 5-server dynamic-weighted shard, runs a Zipf-skewed keyed
//! workload over 64 objects from three clients, fires one weight
//! reassignment mid-run (re-weighting *every* object at once), and then
//! checks each object's history independently with the per-key checker.
//!
//! Run with: `cargo run --example keyed_objects`

// stdout is this target's interface; exempt from the workspace print lint.
#![allow(clippy::print_stdout)]

use awr::core::{audit_transfers, RpConfig};
use awr::sim::UniformLatency;
use awr::storage::workload::{run_keyed_workload, KeyDistribution, KeyedWorkloadSpec};
use awr::storage::{check_linearizable_keyed, DynOptions, DynServer, StorageHarness};
use awr::types::{ObjectId, Ratio, ServerId};

fn main() {
    let cfg = RpConfig::uniform(5, 1);
    let mut h: StorageHarness<u64> = StorageHarness::build(
        cfg,
        3,
        42,
        UniformLatency::new(1_000, 40_000),
        DynOptions::default(),
    );

    // A skewed keyed workload: a few hot keys, a long cold tail — all
    // served by the same quorum system. The spec's random transfers are
    // disabled; we fire one deliberate reassignment below instead.
    let spec = KeyedWorkloadSpec {
        n_objects: 64,
        dist: KeyDistribution::Zipfian { exponent: 1.0 },
        base: awr::storage::workload::WorkloadSpec {
            rounds: 30,
            transfer_percent: 0,
            ..Default::default()
        },
    };

    // Warm half the workload, then shift weight while ops keep flowing:
    // one transfer re-weights the whole shard — every object's quorums
    // change together, and the gaining server refreshes its entire
    // register map in a single count-based read.
    let stats = run_keyed_workload(&mut h, 3, &spec, 42);
    h.transfer_and_wait(ServerId(3), ServerId(0), Ratio::dec("0.25"))
        .unwrap();
    let stats2 = run_keyed_workload(&mut h, 3, &spec, 43);
    h.settle();

    println!("== keyed workload over 64 objects ==");
    println!(
        "phase 1: {} reads, {} writes over {} objects (mean {:.2} ms)",
        stats.totals.reads,
        stats.totals.writes,
        stats.objects_touched(),
        stats.totals.mean_latency_ms,
    );
    println!(
        "phase 2 (after reassignment): {} reads, {} writes, {} stale-C restarts",
        stats2.totals.reads, stats2.totals.writes, stats2.totals.restarts,
    );
    if let Some((hot, n)) = stats2.hottest() {
        println!("hottest key: {hot} with {n} ops (zipf skew at work)");
    }

    // Per-object wire accounting from the simulator's metrics.
    let m = h.world.metrics();
    let mut keys: Vec<(u64, u64)> = m.objects().map(|(o, s)| (o, s.bytes)).collect();
    keys.sort_by_key(|&(_, b)| std::cmp::Reverse(b));
    println!("top objects by attributed wire bytes:");
    for (o, b) in keys.iter().take(3) {
        println!("  {} -> {b} bytes", ObjectId(*o));
    }

    // One configuration governs all objects: the gaining server's weight
    // rose for every key, and its register map holds the hot keys.
    let s0 = h
        .world
        .actor::<DynServer<u64>>(h.server_actor(ServerId(0)))
        .unwrap();
    println!(
        "s1 weight after reassignment: {} ({} registers hosted, {} refreshes)",
        s0.weight(),
        s0.registers().len(),
        s0.refreshes,
    );

    // Atomicity per object, protocol audit across the run.
    check_linearizable_keyed(&h.history()).expect("every object must linearize");
    let report = audit_transfers(h.config(), &h.all_completed_transfers());
    assert!(report.is_clean(), "{:?}", report.violations);
    println!(
        "per-object linearizability: OK across {} objects; audit clean",
        h.history().objects().len(),
    );
}
