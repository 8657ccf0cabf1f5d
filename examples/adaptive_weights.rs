//! The adaptive loop the paper points at (§VI, citing AWARE): derive
//! target weights from replica latencies, plan C1/C2-compatible pairwise
//! transfers, and execute them on the live system — then watch the loop
//! react to a regime shift. Targets come from `shape_weights`, the shaping
//! every `awr::quorum::placement` policy uses; `placement_policies` shows
//! the same planner fed from observed metrics by a `PlacementDriver`.
//!
//! Run with: `cargo run --example adaptive_weights`

// stdout is this target's interface; exempt from the workspace print lint.
#![allow(clippy::print_stdout)]

use awr::core::{audit_transfers, RpConfig, RpHarness};
use awr::quorum::{plan_transfers, shape_weights};
use awr::sim::UniformLatency;
use awr::types::ServerId;

fn main() {
    let cfg = RpConfig::uniform(7, 2);
    let mut system = RpHarness::build(cfg.clone(), 1, 7, UniformLatency::new(1_000, 60_000));

    // A synthetic latency regime (ms per server): the last two servers
    // degrade tenfold at the shift.
    let regimes = [
        ("before", [15.0, 15.0, 15.0, 18.0, 18.0, 20.0, 20.0]),
        ("after", [15.0, 15.0, 15.0, 18.0, 18.0, 200.0, 220.0]),
    ];

    for (regime, latencies) in regimes {
        // Derive targets and a transfer plan from the *current* weights.
        let current = system.weights_seen_by(ServerId(0));
        let targets = shape_weights(&latencies, cfg.initial_total(), cfg.floor(), 0.1);
        let plan = plan_transfers(&current, &targets);
        println!("{regime} the shift: latencies = {latencies:?}");
        println!("  current weights: {current}");
        println!("  target  weights: {targets}");
        println!("  plan: {} transfer(s)", plan.len());

        // Execute: every donor drives its own transfer (C1); the protocol's
        // local check (C2) guards the floor even if the plan raced.
        for t in &plan {
            let out = system
                .transfer_and_wait(t.from, t.to, t.delta)
                .expect("transfer completes");
            let effect = if out.is_effective() {
                "effective"
            } else {
                "null"
            };
            println!("    {}→{} {}: {effect}", t.from, t.to, t.delta);
        }
        system.settle();
    }

    let final_weights = system.weights_seen_by(ServerId(0));
    println!("final weights: {final_weights}");
    // The degraded servers shed weight; the healthy ones picked it up.
    assert!(final_weights.weight(ServerId(5)) < final_weights.weight(ServerId(0)));

    let report = audit_transfers(&cfg, &system.all_completed());
    assert!(report.is_clean());
    println!(
        "audit clean across the whole adaptive run ({} effective transfers)",
        report.effective
    );
}
