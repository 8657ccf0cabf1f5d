//! Wire-equivalence tests: the delta-negotiated wire
//! ([`awr::storage::WireMode::Negotiate`]) must be *observably identical*
//! to the paper-literal full-set wire ([`awr::storage::WireMode::ForceFull`])
//! — same operation results, same final registers, same converged change
//! sets, both linearizable — while shipping asymptotically fewer bytes.
//!
//! The comparison runs the same seeded scenario once per mode. Client
//! operations are issued sequentially (each runs to completion before the
//! next starts) so that the schedule divergence the extra negotiation legs
//! introduce cannot change which of two concurrent writes "wins": with a
//! sequential workload, linearizability pins every read's result, and any
//! deviation between the modes is a real protocol difference, not noise.
//! Transfers still overlap the client ops freely, which is what forces the
//! stale-`C` rejections the negotiation exists to serve.
//!
//! A |C| sweep then pins what each mode costs in steady state, in bytes and,
//! on a bandwidth-limited uplink, in operation latency.

use std::collections::BTreeSet;

use awr::core::{audit_transfers, RpConfig};
use awr::sim::{constrained_uplink, UniformLatency};
use awr::storage::{
    check_linearizable, DynClient, DynOptions, DynServer, StorageHarness, WireMode,
};
use awr::types::wire::put_varint;
use awr::types::{Change, Ratio, ServerId};

fn s(i: u32) -> ServerId {
    ServerId(i)
}

/// The ABD phases' kinds: the tag query and the paper's ⟨R⟩, the phase-1
/// reply, phase 2 and its ack.
const ABD_KINDS: [&str; 5] = ["R", "RV", "R_A", "W", "W_A"];

/// Everything observable about one scenario run.
#[derive(Debug, PartialEq, Eq)]
struct Observation {
    /// Per completed client op: (client, is_write, value read/written).
    ops: Vec<(usize, bool, Option<u64>)>,
    /// Final register value per server.
    registers: Vec<Option<u64>>,
    /// Final change set per server, as plain sets of changes.
    change_sets: Vec<BTreeSet<Change>>,
}

/// A deterministic mixed scenario: interleaved transfers (sync and async)
/// with sequential reads and writes from three clients. Donors and deltas
/// are chosen so every transfer passes the C2 check regardless of message
/// timing (weight only ever helps), keeping the outcome schedule-independent.
fn run_scenario(seed: u64, wire: WireMode) -> (Observation, u64, u64) {
    let cfg = RpConfig::uniform(7, 2);
    let n = cfg.n;
    let mut h: StorageHarness<u64> = StorageHarness::build(
        cfg,
        3,
        seed,
        UniformLatency::new(1_000, 50_000),
        DynOptions {
            wire,
            ..DynOptions::default()
        },
    );
    let mut ops = Vec::new();
    let mut record = |client: usize, kind: (bool, Option<u64>)| {
        ops.push((client, kind.0, kind.1));
    };

    h.write(0, 10).unwrap();
    record(0, (true, Some(10)));
    // floor = 7/10; donors at 1.0 give 0.1 twice: 0.9 > 0.1 + 0.7 holds
    // even if no credit ever lands, so effectiveness is schedule-free.
    h.transfer_and_wait(s(3), s(0), Ratio::dec("0.1")).unwrap();
    let (v, _) = h.read(1).unwrap();
    record(1, (false, v));
    // Async transfers overlapping the next ops: stale clients must
    // renegotiate mid-operation.
    h.transfer_async(s(4), s(1), Ratio::dec("0.1")).unwrap();
    h.write(2, 20).unwrap();
    record(2, (true, Some(20)));
    h.transfer_async(s(5), s(2), Ratio::dec("0.1")).unwrap();
    let (v, _) = h.read(0).unwrap();
    record(0, (false, v));
    h.write(1, 30).unwrap();
    record(1, (true, Some(30)));
    h.transfer_and_wait(s(3), s(6), Ratio::dec("0.1")).unwrap();
    let (v, _) = h.read(2).unwrap();
    record(2, (false, v));
    h.write(0, 40).unwrap();
    record(0, (true, Some(40)));
    h.transfer_async(s(4), s(0), Ratio::dec("0.1")).unwrap();
    let (v, _) = h.read(1).unwrap();
    record(1, (false, v));
    h.settle();

    check_linearizable(&h.history()).expect("scenario must stay linearizable");
    let report = audit_transfers(h.config(), &h.all_completed_transfers());
    assert!(report.is_clean(), "{:?}", report.violations);

    let mut registers = Vec::new();
    let mut change_sets = Vec::new();
    for i in 0..n as u32 {
        let srv = h
            .world
            .actor::<DynServer<u64>>(h.server_actor(s(i)))
            .unwrap();
        registers.push(srv.register().value);
        change_sets.push(srv.changes().iter().copied().collect());
    }
    let m = h.world.metrics();
    let cs_bytes = ABD_KINDS.iter().map(|k| m.bytes_of_kind(k)).sum();
    (
        Observation {
            ops,
            registers,
            change_sets,
        },
        cs_bytes,
        m.bytes_sent,
    )
}

#[test]
fn negotiate_and_force_full_are_observably_identical() {
    for seed in 0..10 {
        let (delta_obs, delta_cs_bytes, _) = run_scenario(seed, WireMode::Negotiate);
        let (full_obs, full_cs_bytes, _) = run_scenario(seed, WireMode::ForceFull);
        assert_eq!(
            delta_obs, full_obs,
            "seed {seed}: wire modes observably diverged"
        );
        // All servers converge to one change set after settle, in both modes.
        for cs in &delta_obs.change_sets[1..] {
            assert_eq!(
                cs, &delta_obs.change_sets[0],
                "seed {seed}: servers diverged"
            );
        }
        // The whole point: the negotiated wire moves fewer bytes on the
        // change-set-referencing phases, same scenario, same results.
        assert!(
            delta_cs_bytes < full_cs_bytes,
            "seed {seed}: negotiation did not save bytes ({delta_cs_bytes} vs {full_cs_bytes})"
        );
    }
}

#[test]
fn force_full_workload_stays_linearizable() {
    // The baseline mode is a live protocol in its own right (it is the
    // paper-literal wire): run the shared mixed workload under it.
    use awr::storage::workload::{run_mixed_workload, WorkloadSpec};
    for seed in 0..4 {
        let mut h: StorageHarness<u64> = StorageHarness::build(
            RpConfig::uniform(7, 2),
            4,
            900 + seed,
            UniformLatency::new(1_000, 50_000),
            DynOptions {
                wire: WireMode::ForceFull,
                ..DynOptions::default()
            },
        );
        let stats = run_mixed_workload(&mut h, 4, &WorkloadSpec::default(), seed);
        assert!(stats.reads + stats.writes > 10, "seed {seed}: thin history");
        check_linearizable(&h.history()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn negotiated_concurrent_workload_stays_linearizable() {
    // And the negotiated mode survives genuinely concurrent clients (the
    // observable-equivalence test is sequential by design; this one is not).
    use awr::storage::workload::{run_mixed_workload, WorkloadSpec};
    for seed in 0..4 {
        let mut h: StorageHarness<u64> = StorageHarness::build(
            RpConfig::uniform(7, 2),
            4,
            700 + seed,
            UniformLatency::new(1_000, 50_000),
            DynOptions::default(),
        );
        let stats = run_mixed_workload(&mut h, 4, &WorkloadSpec::default(), seed);
        assert!(stats.reads + stats.writes > 10, "seed {seed}: thin history");
        check_linearizable(&h.history()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let report = audit_transfers(h.config(), &h.all_completed_transfers());
        assert!(report.is_clean(), "seed {seed}: {:?}", report.violations);
    }
}

#[test]
fn steady_state_requests_are_constant_size() {
    // After the system converges, R/W requests under negotiation are O(1):
    // growing |C| grows the mean request size only by the wider varint of
    // |C| in the summary, never by the changes themselves.
    let mean_r_bytes = |extra: usize| -> (f64, usize) {
        let cfg = RpConfig::uniform(5, 1);
        let mut h: StorageHarness<u64> = StorageHarness::build(
            cfg,
            1,
            7,
            UniformLatency::new(1_000, 20_000),
            DynOptions::default(),
        );
        h.seed_converged_changes(extra);
        for v in 0..10 {
            h.write(0, v).unwrap();
            h.read(0).unwrap();
        }
        let client = h.world.actor::<DynClient<u64>>(h.client_actor(0));
        let c_len = client.expect("client").driver.changes.len();
        (h.world.metrics().mean_bytes_of_kind("R"), c_len)
    };
    let varint_width = |n: usize| {
        let mut buf = Vec::new();
        put_varint(&mut buf, n as u64);
        buf.len() as f64
    };
    let (small, small_c) = mean_r_bytes(10);
    let (large, large_c) = mean_r_bytes(2_000);
    assert_eq!(
        large - small,
        varint_width(large_c) - varint_width(small_c),
        "steady-state R size must not depend on |C| beyond its varint ({small} vs {large})"
    );
}

/// One closed-loop steady-state run of the |C| sweep.
struct SweepRow {
    c_size: usize,
    mode: &'static str,
    bytes_per_op: f64,
    mean_r_bytes: f64,
    mean_rack_bytes: f64,
    mean_latency_ms: f64,
    max_latency_ms: f64,
    max_uplink_utilization: f64,
}

impl SweepRow {
    /// The row at the precision the pins below are written in.
    fn pinned(&self) -> String {
        format!(
            "{} {} {:.1} {:.1} {:.1} {:.3} {:.3} {:.4}",
            self.c_size,
            self.mode,
            self.bytes_per_op,
            self.mean_r_bytes,
            self.mean_rack_bytes,
            self.mean_latency_ms,
            self.max_latency_ms,
            self.max_uplink_utilization
        )
    }
}

/// Every participant pre-seeded with the same converged change set of
/// `N + extra` changes, then 40 alternating writes and reads from one
/// client in that steady state, on five servers whose every sender shares
/// one 4 MB/s uplink — so a message's size is part of its delay.
fn sweep_run(extra: usize, wire: WireMode) -> SweepRow {
    const OPS: usize = 40;
    let n = 5;
    let mut h: StorageHarness<u64> = StorageHarness::build(
        RpConfig::uniform(n, 1),
        1,
        0xBA2D,
        constrained_uplink(n + 1, 4_000_000),
        DynOptions {
            wire,
            ..DynOptions::default()
        },
    );
    let big = h.seed_converged_changes(extra);
    for v in 0..OPS as u64 {
        if v % 2 == 0 {
            h.write(0, v).unwrap();
        } else {
            h.read(0).unwrap();
        }
    }
    let client = h.world.actor::<DynClient<u64>>(h.client_actor(0));
    let ops = &client.expect("client").driver.completed;
    assert_eq!(ops.len(), OPS);
    let latencies_ms: Vec<f64> = ops
        .iter()
        .map(|o| (o.response - o.invoke) as f64 / 1e6)
        .collect();
    let m = h.world.metrics();
    let cs_bytes = ABD_KINDS.iter().map(|k| m.bytes_of_kind(k)).sum::<u64>();
    let phase1 = ["R", "RV"];
    let phase1_bytes = phase1.iter().map(|k| m.bytes_of_kind(k)).sum::<u64>();
    let phase1_sent = phase1.iter().map(|k| m.sent_of_kind(k)).sum::<u64>();
    SweepRow {
        c_size: n + big.len(),
        mode: match wire {
            WireMode::Negotiate => "delta",
            WireMode::ForceFull => "full",
        },
        bytes_per_op: cs_bytes as f64 / OPS as f64,
        mean_r_bytes: phase1_bytes as f64 / phase1_sent as f64,
        mean_rack_bytes: m.mean_bytes_of_kind("R_A"),
        mean_latency_ms: latencies_ms.iter().sum::<f64>() / OPS as f64,
        max_latency_ms: latencies_ms.iter().copied().fold(0.0, f64::max),
        max_uplink_utilization: m.max_uplink_utilization(),
    }
}

#[test]
fn delta_wire_is_flat_in_c_where_the_full_wire_grows_linearly() {
    let rows: Vec<SweepRow> = [10, 100, 1_000, 10_000]
        .into_iter()
        .flat_map(|extra| [(extra, WireMode::Negotiate), (extra, WireMode::ForceFull)])
        .map(|(extra, wire)| sweep_run(extra, wire))
        .collect();
    // |C|, mode, ABD bytes/op, mean R or RV, mean R_A (bytes), mean and max op
    // latency (virtual ms), busiest uplink's utilisation.
    let pinned: Vec<String> = rows.iter().map(SweepRow::pinned).collect();
    assert_eq!(
        pinned,
        [
            "15 delta 69.4 6.3 8.2 2.233 3.488 0.0041",
            "15 full 1091.6 116.0 121.0 2.368 3.681 0.0572",
            "105 delta 69.4 6.3 8.2 2.233 3.488 0.0041",
            "105 full 7724.8 837.0 842.0 3.238 5.084 0.2979",
            "1005 delta 74.0 7.3 8.2 2.234 3.489 0.0046",
            "1005 full 73974.0 8038.0 8043.0 13.804 19.642 0.6698",
            "10005 delta 74.0 7.3 8.2 2.234 3.489 0.0046",
            "10005 full 736383.2 80039.0 80044.0 122.706 181.644 0.7501",
        ]
    );
    for pair in rows.chunks(2) {
        let (delta, full) = (&pair[0], &pair[1]);
        assert!(
            delta.bytes_per_op < full.bytes_per_op,
            "|C| = {}: delta moved no fewer bytes than full",
            delta.c_size
        );
        assert!(
            delta.mean_latency_ms < full.mean_latency_ms,
            "|C| = {}: delta was no faster than full",
            delta.c_size
        );
    }
    let latencies = |mode| -> Vec<f64> {
        rows.iter()
            .filter(|r| r.mode == mode)
            .map(|r| r.mean_latency_ms)
            .collect()
    };
    let delta = latencies("delta");
    let spread = delta.iter().copied().fold(0.0, f64::max)
        / delta.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(spread <= 2.0, "delta latency not flat: {spread:.2}x");
    let full = latencies("full");
    let growth = full[full.len() - 1] / full[0];
    assert!(growth >= 10.0, "full latency grew only {growth:.2}x");
}
