//! Integration tests contrasting the paper's protocol with its baselines:
//! the reassignment ones (epoch-based [11] and consensus-based related
//! work — the E8/E9 shapes as assertions) and the §VII storage ones, static
//! MQS and static WMQS, which are the dynamic storage under a configuration
//! that is never reassigned (the E7 shape, and that identity).

use awr::consensus::{CwrNode, SlotMsg, WeightCmd};
use awr::core::{RpConfig, RpHarness};
use awr::epoch::{EpochEngine, EpochRequest};
use awr::sim::{
    five_region_wan, shared_latency, ActorId, SlowActors, Time, UniformLatency, World, MILLI,
    SECOND,
};
use awr::storage::{DynOptions, StorageHarness};
use awr::types::{Ratio, ServerId, WeightMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The E7 scenario (§VII + §I motivation).
///
/// Five servers, one per region; three clients (two Virginia, one
/// Ireland). Phase A: healthy network. Phase B: the Virginia replica
/// degrades 150×. All three systems are the same [`StorageHarness`]; they
/// differ in the configuration and in what happens between the phases —
/// the static baselines (uniform weights = MQS, WHEAT weights = static
/// WMQS) keep their configuration frozen, the dynamic system re-plans its
/// weights.
mod e7 {
    use awr::core::RpConfig;
    use awr::quorum::plan_transfers;
    use awr::sim::{five_region_matrix, shared_latency, ActorId, SlowActors, WanMatrix};
    use awr::storage::{DynOptions, Fanout, StorageHarness};
    use awr::types::WeightMap;

    pub const SEED: u64 = 0xE7;
    /// Servers, one per region.
    pub const N: usize = 5;
    const CLIENTS: usize = 3;
    const OPS_PER_PHASE: usize = 30;
    const SLOW_FACTOR: u64 = 150;

    /// Client placement: actor ids n..n+3 map to regions 0 (VA), 0 (VA),
    /// 1 (IE) — the client mass sits on the Atlantic, as in the WHEAT
    /// evaluation.
    fn wan() -> WanMatrix {
        let mut placement: Vec<usize> = (0..N).collect(); // one server per region
        placement.extend([0, 0, 1]); // clients
        WanMatrix::new(five_region_matrix(), placement, 0.08)
    }

    /// WHEAT-style weights: heavy on Virginia & Ireland (the client mass),
    /// floor-respecting for f = 1 (floor = 5/8 = 0.625).
    fn initial_weights() -> WeightMap {
        WeightMap::dec(&["1.55", "1.55", "0.63", "0.64", "0.63"])
    }

    /// Post-shift targets: the heavy role moves from Virginia to São Paulo
    /// (the next-best replica for the Atlantic client mass).
    fn shifted_targets() -> WeightMap {
        WeightMap::dec(&["0.63", "1.55", "1.56", "0.63", "0.63"])
    }

    /// The static weighted baseline's configuration — and the dynamic
    /// system's initial one.
    pub fn wheat_config() -> RpConfig {
        RpConfig::new(1, initial_weights()).expect("valid WHEAT weights")
    }

    /// Runs one system through both phases and returns each phase's mean
    /// operation latency in virtual ms. `after_shift` runs between them,
    /// once Virginia has degraded: the static baselines pass a no-op (not
    /// even `settle()`, which would draw latency jitter from the shared RNG
    /// and move their phase B), the dynamic system reassigns there.
    pub fn run(
        cfg: RpConfig,
        seed: u64,
        after_shift: impl FnOnce(&mut StorageHarness<u64>),
    ) -> (f64, f64) {
        let (handle, model) = shared_latency(SlowActors::new(wan(), vec![], SLOW_FACTOR));
        // The paper-literal fanout: all three systems ask every server, so
        // the rows differ in weights alone.
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
            lats.iter().sum::<f64>() / lats.len() as f64
        };

        let a = run_phase(&mut h, 0);
        handle.lock().set_slow(vec![ActorId(0)]); // Virginia degrades
        after_shift(&mut h);
        let b = run_phase(&mut h, 1000);
        (a, b)
    }

    /// The dynamic system: monitoring detects the degradation and the
    /// planner emits C1-respecting pairwise transfers toward the post-shift
    /// targets. Returns the phase means and the plan, rendered.
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
}

#[test]
fn e7_ordering_and_the_frozen_config_identity() {
    let (mqs_a, mqs_b) = e7::run(RpConfig::uniform(e7::N, 1), e7::SEED, |_| {});
    let (wmqs_a, wmqs_b) = e7::run(e7::wheat_config(), e7::SEED, |_| {});
    let (dyn_a, dyn_b, plan) = e7::run_dynamic(e7::SEED);
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
    // Phase A and phase B means (virtual ms) of MQS, static WMQS and the
    // dynamic system, and the dynamic system's post-shift plan.
    let phases = [mqs_a, mqs_b, wmqs_a, wmqs_b, dyn_a, dyn_b].map(|ms| format!("{ms:.2}"));
    assert_eq!(
        phases,
        ["212.52", "251.59", "114.09", "251.38", "114.09", "218.69"]
    );
    assert_eq!(plan, "s1→s3:0.92, s4→s3:0.01");
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

/// The E8 demand: 40 random pairwise moves among seven servers, one every
/// 120 ms, as (submit time, from, to, delta).
fn e8_demand(seed: u64) -> Vec<(Time, ServerId, ServerId, Ratio)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..40)
        .map(|i| {
            let from = ServerId(rng.random_range(0..7));
            let mut to = ServerId(rng.random_range(0..7));
            while to == from {
                to = ServerId(rng.random_range(0..7));
            }
            let delta = Ratio::new(rng.random_range(1..=3i128), 100);
            (Time(i * 120 * MILLI), from, to, delta)
        })
        .collect()
}

/// The E8 demand through the epoch-based engine: each move is a decrease
/// and, 300 ms later (monitoring and reaction are not atomic), the matching
/// increase. Returns the mean request→effect delay (ms) and the final total
/// weight.
fn e8_epoch_based(epoch_ns: u64, seed: u64) -> (f64, Ratio) {
    let mut e = EpochEngine::new(WeightMap::uniform(7, Ratio::ONE), 2);
    let mut events: Vec<(Time, ServerId, Ratio)> = Vec::new();
    for (t, from, to, delta) in e8_demand(seed) {
        events.push((t, from, -delta));
        events.push((Time(t.nanos() + 300 * MILLI), to, delta));
    }
    events.sort_by_key(|(t, s, _)| (*t, *s));
    let mut boundary = epoch_ns;
    for (t, server, delta) in events {
        while t.nanos() >= boundary {
            e.end_epoch(Time(boundary));
            boundary += epoch_ns;
        }
        e.submit(EpochRequest {
            server,
            delta,
            submitted: t,
        });
    }
    e.end_epoch(Time(boundary));
    (e.mean_apply_delay_ms(), e.weights().total())
}

/// The E8 demand through restricted pairwise transfers on the five-region
/// WAN, each invoked at its submit time.
fn e8_epochless(seed: u64) -> (f64, Ratio) {
    let mut h = RpHarness::build(RpConfig::uniform(7, 2), 1, seed, five_region_wan(8, 0.1));
    let mut delays = Vec::new();
    for (t, from, to, delta) in e8_demand(seed) {
        let now = h.world.now();
        if t > now {
            h.world.run_for(t - now);
        }
        let t0 = h.world.now();
        if h.transfer_and_wait(from, to, delta).is_ok() {
            delays.push((h.world.now() - t0) as f64 / 1e6);
        }
    }
    h.settle();
    let mean = delays.iter().sum::<f64>() / delays.len() as f64;
    (mean, h.weights_seen_by(ServerId(0)).total())
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

    // The E8 sweep: the same demand under 1, 5 and 15 s epochs and
    // epochless. The epoch-based delay grows with the epoch, and a 1 s
    // epoch leaks weight when a decrease's increase lands in the next
    // epoch; the epochless protocol applies in one WAN round trip and
    // conserves the total.
    let seed = 0xE8;
    let mut rows: Vec<(f64, Ratio)> = [1, 5, 15]
        .into_iter()
        .map(|epoch_s| e8_epoch_based(epoch_s * SECOND, seed))
        .collect();
    rows.push(e8_epochless(seed));
    let pinned: Vec<String> = rows
        .iter()
        .map(|(delay, total)| format!("{delay:.2} {total}"))
        .collect();
    // Mean request→effect delay (ms) and final total weight.
    assert_eq!(
        pinned,
        ["518.63 6.88", "2510.00 7", "12510.00 7", "191.21 7"]
    );
    let (epochless_ms, epochless_total) = rows[3];
    assert!(rows[0].0 < rows[1].0 && rows[1].0 < rows[2].0);
    assert!(epochless_ms < rows[0].0);
    assert_eq!(epochless_total, Ratio::integer(7));
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
