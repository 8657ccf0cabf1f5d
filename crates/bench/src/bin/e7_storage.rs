//! **E7 / §VII + §I motivation** — dynamic-weighted atomic storage vs the
//! static baselines on a five-region WAN with a mid-run regime shift.
//!
//! The scenario lives in [`awr_bench::e7`]. Weights follow the WHEAT
//! pattern: two "heavy" replicas near the client mass (Virginia + Ireland)
//! so two-server quorums exist. The static systems are the same protocol
//! over a configuration that is never reassigned; the dynamic system's
//! monitor re-plans weights via pairwise transfers after Virginia degrades
//! (the heavy role moves to Sao Paulo).
//!
//! Expected shape (WHEAT + §VII): static-WMQS beats MQS before the
//! shift; after the shift the dynamic system recovers most of the gap while
//! static-WMQS falls back to MQS-like latency.

// stdout is this target's interface; exempt from the workspace print lint.
#![allow(clippy::print_stdout)]

use awr_bench::e7::{initial_weights, run, run_dynamic, wheat_config, N, SEED};
use awr_bench::{f2, print_table};
use awr_core::RpConfig;

fn main() {
    let (mqs_a, mqs_b) = run(RpConfig::uniform(N, 1), SEED, |_| {});
    let (wmqs_a, wmqs_b) = run(wheat_config(), SEED, |_| {});
    let (dyn_a, dyn_b, plan) = run_dynamic(SEED);

    print_table(
        "E7 — read/write latency (virtual ms), 5-region WAN, Virginia degrades 150× mid-run",
        &["system", "phase A (healthy)", "phase B (shifted)", "B/A"],
        &[
            vec![
                "MQS ABD (majority)".into(),
                f2(mqs_a),
                f2(mqs_b),
                f2(mqs_b / mqs_a),
            ],
            vec![
                "static WMQS ABD (WHEAT weights)".into(),
                f2(wmqs_a),
                f2(wmqs_b),
                f2(wmqs_b / wmqs_a),
            ],
            vec![
                "dynamic-weighted ABD (this paper)".into(),
                f2(dyn_a),
                f2(dyn_b),
                f2(dyn_b / dyn_a),
            ],
        ],
    );
    println!(
        "\ninitial weights: {} → post-shift plan: {plan}",
        initial_weights()
    );
    println!(
        "\nShape check: static-WMQS < MQS in phase A (two-server quorums near\n\
         the clients); after the shift the dynamic system re-weights São\n\
         Paulo and recovers, while static-WMQS loses its advantage."
    );

    assert!(
        wmqs_a < mqs_a,
        "weighted quorums should beat majority in the healthy phase"
    );
    assert!(
        dyn_b < wmqs_b,
        "dynamic should beat static WMQS after the shift"
    );
}
