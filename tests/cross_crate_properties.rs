//! Property-based integration tests spanning crates: random workloads
//! through the full protocol stack, audited by the executable specs.

use awr::core::{audit_transfers, RpConfig, RpHarness};
use awr::epoch::{EpochEngine, EpochRequest};
use awr::quorum::{first_infeasible_step, plan_transfers, shape_weights};
use awr::sim::{Time, UniformLatency};
use awr::types::{Ratio, ServerId, WeightMap};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any sequence of transfer requests, on any schedule, audits clean:
    /// RP-Integrity, P-Integrity, C1, conservation (Theorem 4).
    #[test]
    fn random_transfer_workloads_audit_clean(
        seed in 0u64..1000,
        ops in proptest::collection::vec((0u32..7, 0u32..7, 1i128..6), 1..15),
    ) {
        let cfg = RpConfig::uniform(7, 2);
        let mut h = RpHarness::build(cfg.clone(), 1, seed, UniformLatency::new(1_000, 60_000));
        for (from, to, d) in ops {
            if from == to { continue; }
            let _ = h.transfer_and_wait(
                ServerId(from), ServerId(to), Ratio::new(d, 20));
        }
        h.settle();
        let report = audit_transfers(&cfg, &h.all_completed());
        prop_assert!(report.is_clean(), "{:?}", report.violations);
        // All servers converge to the same weight map.
        let w0 = h.weights_seen_by(ServerId(0));
        for i in 1..7 {
            prop_assert_eq!(&h.weights_seen_by(ServerId(i)), &w0);
        }
        prop_assert_eq!(w0.total(), Ratio::integer(7));
    }

    /// The placement pipeline — `shape_weights` → `plan_transfers` — always
    /// emits feasible, total-preserving plans for valid latency inputs.
    #[test]
    fn planner_always_feasible(
        lat in proptest::collection::vec(1.0f64..500.0, 7),
    ) {
        let cfg = RpConfig::uniform(7, 2);
        let targets = shape_weights(&lat, cfg.initial_total(), cfg.floor(), 0.1);
        prop_assert_eq!(targets.total(), cfg.initial_total());
        prop_assert!(awr::quorum::rp_integrity_holds(&targets, cfg.floor()));
        let plan = plan_transfers(&cfg.initial_weights, &targets);
        prop_assert!(first_infeasible_step(cfg.floor(), &cfg.initial_weights, &plan).is_none());
        // Applying the plan reaches the target exactly.
        let mut w = cfg.initial_weights.clone();
        for t in &plan {
            w.add(t.from, -t.delta);
            w.add(t.to, t.delta);
        }
        prop_assert_eq!(w, targets);
    }

    /// The epoch engine never violates Property 1 and never grows the total,
    /// whatever the request mix.
    #[test]
    fn epoch_engine_safe_under_random_demand(
        reqs in proptest::collection::vec((0u32..7, -5i128..6), 0..40),
    ) {
        let mut e = EpochEngine::new(WeightMap::uniform(7, Ratio::ONE), 2);
        let mut t = 0u64;
        for (server, d) in reqs {
            if d == 0 { continue; }
            e.submit(EpochRequest {
                server: ServerId(server),
                delta: Ratio::new(d, 10),
                submitted: Time(t),
            });
            t += 50;
            if t.is_multiple_of(250) {
                e.end_epoch(Time(t));
            }
        }
        e.end_epoch(Time(t + 1000));
        prop_assert!(awr::quorum::integrity_holds(e.weights(), 2));
        prop_assert!(e.weights().total() <= Ratio::integer(7));
        prop_assert!(awr::quorum::rp_integrity_holds(
            e.weights(),
            awr::quorum::rp_floor(Ratio::integer(7), 7, 2)
        ));
    }
}

/// Deterministic cross-check: executing a planner plan through the real
/// protocol lands exactly on the target weights.
#[test]
fn planner_plan_executes_on_protocol() {
    let cfg = RpConfig::uniform(7, 2);
    let target = WeightMap::dec(&["1.25", "1.2", "1.15", "0.8", "0.8", "0.8", "1"]);
    let plan = plan_transfers(&cfg.initial_weights, &target);
    let mut h = RpHarness::build(cfg.clone(), 1, 77, UniformLatency::new(1_000, 50_000));
    for t in &plan {
        let out = h.transfer_and_wait(t.from, t.to, t.delta).unwrap();
        assert!(out.is_effective(), "planned transfer must be feasible");
    }
    h.settle();
    assert_eq!(h.weights_seen_by(ServerId(0)), target);
    let report = audit_transfers(&cfg, &h.all_completed());
    assert!(report.is_clean());
}
