//! **E3 / §V.C** — flexibility limits of the restricted problems when
//! servers fail or become slow.
//!
//! Reproduces the discussion instance: n = 7, f = 2, weights
//! (1.6, 1.4, 0.8, 0.8, 0.8, 0.8, 0.8); s1 and s2 are failed/slow. Under
//! *unrestricted* reassignment the others could regain small quorums; under
//! pairwise reassignment only redistribution is possible; under restricted
//! pairwise reassignment the slow servers' weight is stuck entirely —
//! the smallest live quorum is 5 and nothing can shrink it.

// stdout is this target's interface; exempt from the workspace print lint.
#![allow(clippy::print_stdout)]

use std::collections::BTreeSet;

use awr_bench::print_table;
use awr_quorum::{
    rp_floor, rp_integrity_holds, smallest_quorum_avoiding, WeightedMajorityQuorumSystem,
};
use awr_types::{Ratio, ServerId, WeightMap};

fn min_live_quorum(w: &WeightMap, threshold_total: Ratio, dead: &BTreeSet<ServerId>) -> String {
    let qs = WeightedMajorityQuorumSystem::with_threshold_total(w.clone(), threshold_total);
    match smallest_quorum_avoiding(&qs, dead) {
        Some(q) => q.len().to_string(),
        None => "unavailable".to_string(),
    }
}

fn main() {
    let w0 = WeightMap::dec(&["1.6", "1.4", "0.8", "0.8", "0.8", "0.8", "0.8"]);
    let total = w0.total();
    let (n, f) = (7usize, 2usize);
    let floor = rp_floor(total, n, f);
    let dead: BTreeSet<ServerId> = [ServerId(0), ServerId(1)].into();

    println!("§V.C flexibility comparison — s1, s2 failed/slow");
    println!("initial weights: {w0}, floor = {floor}");

    let mut rows = Vec::new();

    // Baseline: no reassignment at all.
    rows.push(vec![
        "no reassignment".into(),
        format!("{w0}"),
        min_live_quorum(&w0, total, &dead),
        "—".into(),
    ]);

    // Unrestricted weight reassignment: boost the live servers
    // (approach II of §V.C). E.g. give each live server +0.56: the five
    // live servers then hold 6.8 of total 9.8 > 4.9.
    let mut w_unres = w0.clone();
    for i in 2..7 {
        w_unres.add(ServerId(i), Ratio::dec("0.56"));
    }
    let new_total = w_unres.total();
    rows.push(vec![
        "unrestricted (boost live servers)".into(),
        format!("{w_unres}"),
        min_live_quorum(&w_unres, new_total, &dead),
        format!("total grew to {new_total}"),
    ]);

    // Pairwise: total fixed, but approach I of §V.C works — *any* server
    // may transfer a failed server's weight away (no C1 yet):
    // transfer(s1, s3, 0.7) and transfer(s2, s4, 0.6) by live servers.
    let mut w_pair = w0.clone();
    w_pair.add(ServerId(0), Ratio::dec("-0.7"));
    w_pair.add(ServerId(2), Ratio::dec("0.7"));
    w_pair.add(ServerId(1), Ratio::dec("-0.6"));
    w_pair.add(ServerId(3), Ratio::dec("0.6"));
    rows.push(vec![
        "pairwise (drain the failed servers)".into(),
        format!("{w_pair}"),
        min_live_quorum(&w_pair, total, &dead),
        "approach I: others move the dead weight".into(),
    ]);

    // Restricted pairwise: additionally every server must stay above the
    // floor (0.7): s7 can donate at most 0.8 − 0.7 − ε. The live servers
    // can barely move anything.
    let max_donation = Ratio::dec("0.8") - floor; // 0.1, and strictly less
    let mut w_rp = w0.clone();
    w_rp.add(ServerId(6), -(max_donation - Ratio::new(1, 100)));
    w_rp.add(ServerId(2), max_donation - Ratio::new(1, 100));
    assert!(rp_integrity_holds(&w_rp, floor));
    rows.push(vec![
        "restricted pairwise (max legal shuffle)".into(),
        format!("{w_rp}"),
        min_live_quorum(&w_rp, total, &dead),
        format!("donors capped at {} above floor", max_donation),
    ]);

    print_table(
        "E3 — smallest live quorum under each problem variant",
        &["variant", "weights", "min live quorum", "note"],
        &rows,
    );

    println!(
        "\nPaper's claim (§V.C): with s1, s2 slow the smallest quorum is 5 and\n\
         restricted pairwise reassignment cannot shrink it — confirmed above."
    );
}
