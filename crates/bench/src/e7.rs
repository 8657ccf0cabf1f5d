//! The E7 scenario (§VII + §I motivation): one definition, printed by the
//! `e7_storage` binary and asserted by `tests/baselines.rs`.
//!
//! Five servers, one per region; three clients (two Virginia, one Ireland).
//! Phase A: healthy network. Phase B: the Virginia replica degrades 150×.
//! All three systems are the same [`StorageHarness`]; they differ in the
//! configuration and in what happens between the phases — the static
//! baselines (uniform weights = MQS, WHEAT weights = static WMQS) keep their
//! configuration frozen, the dynamic system re-plans its weights.

use awr_core::RpConfig;
use awr_quorum::plan_transfers;
use awr_sim::{shared_latency, ActorId, SlowActors, WanMatrix};
use awr_storage::{DynOptions, Fanout, StorageHarness};
use awr_types::WeightMap;

use crate::Stats;

/// The seed the printed table and the asserted shape are pinned to.
pub const SEED: u64 = 0xE7;
/// Servers, one per region.
pub const N: usize = 5;
const CLIENTS: usize = 3;
const OPS_PER_PHASE: usize = 30;
const SLOW_FACTOR: u64 = 150;

/// Client placement: actor ids n..n+3 map to regions 0 (VA), 0 (VA), 1 (IE)
/// — the client mass sits on the Atlantic, as in the WHEAT evaluation.
fn wan() -> WanMatrix {
    let mut placement: Vec<usize> = (0..N).collect(); // one server per region
    placement.extend([0, 0, 1]); // clients
    WanMatrix::new(awr_sim::five_region_matrix(), placement, 0.08)
}

/// WHEAT-style weights: heavy on Virginia & Ireland (the client mass),
/// floor-respecting for f = 1 (floor = 5/8 = 0.625).
pub fn initial_weights() -> WeightMap {
    WeightMap::dec(&["1.55", "1.55", "0.63", "0.64", "0.63"])
}

/// Post-shift targets: the heavy role moves from Virginia to São Paulo
/// (the next-best replica for the Atlantic client mass).
fn shifted_targets() -> WeightMap {
    WeightMap::dec(&["0.63", "1.55", "1.56", "0.63", "0.63"])
}

/// The static weighted baseline's configuration — and the dynamic system's
/// initial one.
pub fn wheat_config() -> RpConfig {
    RpConfig::new(1, initial_weights()).expect("valid WHEAT weights")
}

/// Runs one system through both phases and returns each phase's mean
/// operation latency in virtual ms. `after_shift` runs between them, once
/// Virginia has degraded: the static baselines pass a no-op (not even
/// `settle()`, which would draw latency jitter from the shared RNG and
/// move their phase B), the dynamic system reassigns there.
pub fn run(
    cfg: RpConfig,
    seed: u64,
    after_shift: impl FnOnce(&mut StorageHarness<u64>),
) -> (f64, f64) {
    let (handle, model) = shared_latency(SlowActors::new(wan(), vec![], SLOW_FACTOR));
    // The printed table is pinned to the paper-literal fanout: all three
    // systems ask every server, so the rows differ in weights alone.
    let options = DynOptions {
        fanout: Fanout::All,
        ..DynOptions::default()
    };
    let mut h: StorageHarness<u64> = StorageHarness::build(cfg, CLIENTS, seed, model, options);

    let run_phase = |h: &mut StorageHarness<u64>, base: u64| -> f64 {
        let mut lats = Vec::new();
        for i in 0..OPS_PER_PHASE {
            let k = i % CLIENTS;
            let t0 = h.world.now();
            let ok = if i % 2 == 0 {
                h.write(k, base + i as u64).is_ok()
            } else {
                h.read(k).is_ok()
            };
            if ok {
                lats.push((h.world.now() - t0) as f64 / 1e6);
            }
        }
        Stats::of(&lats).mean
    };

    let a = run_phase(&mut h, 0);
    handle.lock().set_slow(vec![ActorId(0)]); // Virginia degrades
    after_shift(&mut h);
    let b = run_phase(&mut h, 1000);
    (a, b)
}

/// The dynamic system: monitoring detects the degradation and the planner
/// emits C1-respecting pairwise transfers toward the post-shift targets.
/// Returns the phase means and the plan, rendered.
pub fn run_dynamic(seed: u64) -> (f64, f64, String) {
    let plan = plan_transfers(&initial_weights(), &shifted_targets());
    let plan_str = plan
        .iter()
        .map(|t| format!("{}→{}:{}", t.from, t.to, t.delta))
        .collect::<Vec<_>>()
        .join(", ");
    let (a, b) = run(wheat_config(), seed, |h| {
        for t in &plan {
            let _ = h.transfer_and_wait(t.from, t.to, t.delta);
        }
        h.settle();
    });
    (a, b, plan_str)
}
