//! Seed-pinned single-object replay: the keyed-object refactor must be
//! invisible to single-object deployments.
//!
//! The constants below were captured by running the *pre-refactor* engine
//! (one hardcoded `TaggedValue` register per server, scalar `RefreshR`
//! tags) on the shared mixed workload. The refactored engine — keyed
//! register maps, object ids on every ABD phase, map-valued refresh legs —
//! must replay the exact same schedules when driven through the
//! single-object entry points: same operations at the same virtual-time
//! stamps, same restart counts, same final registers and weights, in both
//! wire modes. Any divergence (an extra message, a reordered send, a
//! changed RNG draw) shows up as a checksum mismatch.

use awr::core::RpConfig;
use awr::sim::UniformLatency;
use awr::storage::workload::{run_mixed_workload, WorkloadSpec};
use awr::storage::{DynOptions, DynServer, Fanout, OpKind, ReadMode, StorageHarness, WireMode};
use awr::types::{ObjectId, ServerId};

/// One recorded op: (client, is_write, value, invoke ns, response ns).
type OpRec = (usize, bool, Option<u64>, u64, u64);

struct Pinned {
    seed: u64,
    ops: usize,
    restarts: u64,
    /// FNV-1a-style fold over the sorted op records (see [`checksum`]).
    checksum: u64,
    /// Converged final register on every server: (tag.ts, value).
    reg: (u64, Option<u64>),
    /// Final per-server weights (decimal strings).
    weights: [&'static str; 7],
}

/// Captured from the pre-refactor engine (commit before the object layer),
/// `RpConfig::uniform(7, 2)`, 3 clients, `UniformLatency::new(1_000,
/// 50_000)`, `WorkloadSpec::default()`, world seed = workload seed, and
/// re-captured once since: when a server mid-refresh began to hold a
/// request from a client ahead of it instead of bouncing `Full`, which
/// moves the schedule (seed 0 keeps its ops, restarts and final state).
/// The two wire modes produce identical schedules on this workload, and
/// still do with the hold; both are replayed against the same pins.
const PINNED: &[Pinned] = &[
    Pinned {
        seed: 0,
        ops: 34,
        restarts: 10,
        checksum: 0xd7b5250cb7b2da69,
        reg: (12, Some(19)),
        weights: ["1", "1", "0.95", "1", "1", "1", "1.05"],
    },
    Pinned {
        seed: 1,
        ops: 37,
        restarts: 8,
        checksum: 0x7bb278e89010c9b2,
        reg: (12, Some(13)),
        weights: ["1.05", "1", "1.05", "1", "1.05", "0.9", "0.95"],
    },
    Pinned {
        seed: 2,
        ops: 42,
        restarts: 9,
        checksum: 0x884782dadb5a07eb,
        reg: (16, Some(24)),
        weights: ["0.95", "1.05", "1", "1", "1", "1", "1"],
    },
];

fn checksum(ops: &[OpRec]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let fold = |x: u64, h: &mut u64| {
        *h ^= x;
        *h = h.wrapping_mul(0x100000001b3);
    };
    for &(c, w, v, i, r) in ops {
        fold(c as u64, &mut h);
        fold(w as u64, &mut h);
        fold(v.unwrap_or(u64::MAX), &mut h);
        fold(i, &mut h);
        fold(r, &mut h);
    }
    h
}

/// (sorted op records, restarts, per-server (tag.ts, value), weights).
type RunOutcome = (Vec<OpRec>, u64, Vec<(u64, Option<u64>)>, Vec<String>);

fn run(seed: u64, wire: WireMode) -> RunOutcome {
    let mut h: StorageHarness<u64> = StorageHarness::build(
        RpConfig::uniform(7, 2),
        3,
        seed,
        UniformLatency::new(1_000, 50_000),
        DynOptions {
            wire,
            // The pinned checksums capture the pre-fast-path engine, whose
            // reads always ran both phases; `tests/read_fastpath.rs` owns
            // the FastPath-vs-TwoPhase equivalence.
            read: ReadMode::TwoPhase,
            // … and asked every server in phase 1.
            fanout: Fanout::All,
            ..DynOptions::default()
        },
    );
    let stats = run_mixed_workload(&mut h, 3, &WorkloadSpec::default(), seed);
    let hist = h.history();
    let mut ops: Vec<OpRec> = hist
        .ops
        .iter()
        .map(|o| {
            assert_eq!(o.obj, ObjectId::DEFAULT, "single-object mode leaked a key");
            let (w, v) = match &o.kind {
                OpKind::Read(v) => (false, *v),
                OpKind::Write(v) => (true, Some(*v)),
            };
            (o.client, w, v, o.invoke.nanos(), o.response.nanos())
        })
        .collect();
    ops.sort();
    let mut regs = Vec::new();
    let mut weights = Vec::new();
    for i in 0..7u32 {
        let srv = h
            .world
            .actor::<DynServer<u64>>(h.server_actor(ServerId(i)))
            .unwrap();
        let reg = srv.register();
        regs.push((reg.tag.ts, reg.value));
        weights.push(srv.weight().to_string());
    }
    (ops, stats.restarts, regs, weights)
}

#[test]
fn single_object_mode_replays_pre_refactor_schedule() {
    for pin in PINNED {
        for wire in [WireMode::Negotiate, WireMode::ForceFull] {
            let (ops, restarts, regs, weights) = run(pin.seed, wire);
            assert_eq!(
                ops.len(),
                pin.ops,
                "seed {} {wire:?}: op count diverged",
                pin.seed
            );
            assert_eq!(
                restarts, pin.restarts,
                "seed {} {wire:?}: restart count diverged",
                pin.seed
            );
            assert_eq!(
                checksum(&ops),
                pin.checksum,
                "seed {} {wire:?}: schedule checksum diverged from the \
                 pre-refactor capture",
                pin.seed
            );
            for (s, reg) in regs.iter().enumerate() {
                assert_eq!(
                    reg, &pin.reg,
                    "seed {} {wire:?}: register on s{s}",
                    pin.seed
                );
            }
            let want: Vec<String> = pin.weights.iter().map(|w| w.to_string()).collect();
            assert_eq!(weights, want, "seed {} {wire:?}: weights", pin.seed);
        }
    }
}

#[test]
fn seed0_schedule_is_bit_for_bit() {
    // The full op list for seed 0 — checksum failures above point here
    // for a readable diff.
    let expected: Vec<OpRec> = vec![
        (0, false, Some(11), 1050000, 1149026),
        (0, false, Some(13), 1350000, 1447343),
        (0, false, Some(17), 1950000, 2052557),
        (0, false, Some(17), 2100000, 2206541),
        (0, false, Some(17), 2400000, 2488161),
        (0, false, Some(18), 2700000, 2838184),
        (0, false, Some(18), 2850000, 2943190),
        (0, true, Some(1), 0, 124837),
        (0, true, Some(4), 150000, 245985),
        (0, true, Some(6), 300000, 421088),
        (0, true, Some(10), 900000, 1049195),
        (0, true, Some(12), 1200000, 1313507),
        (0, true, Some(18), 2550000, 2640971),
        (1, false, Some(8), 450000, 656109),
        (1, false, Some(17), 2400000, 2510423),
        (1, false, Some(17), 2550000, 2670831),
        (1, true, Some(2), 0, 77641),
        (1, true, Some(5), 150000, 242004),
        (1, true, Some(7), 300000, 401833),
        (1, true, Some(9), 750000, 849306),
        (1, true, Some(13), 1200000, 1278704),
        (1, true, Some(14), 1350000, 1449959),
        (1, true, Some(16), 1800000, 1956558),
        (2, false, Some(11), 1050000, 1156152),
        (2, false, Some(13), 1350000, 1456085),
        (2, false, Some(17), 2250000, 2338496),
        (2, false, Some(17), 2400000, 2509683),
        (2, false, Some(18), 2700000, 2817075),
        (2, true, Some(3), 0, 92977),
        (2, true, Some(8), 450000, 604535),
        (2, true, Some(11), 900000, 1022910),
        (2, true, Some(15), 1500000, 1610684),
        (2, true, Some(17), 1800000, 1920531),
        (2, true, Some(19), 2850000, 2951163),
    ];
    let (ops, _, _, _) = run(0, WireMode::Negotiate);
    assert_eq!(ops, expected);
}
