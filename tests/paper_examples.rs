//! Integration tests replaying every worked example in the paper, through
//! the public facade crate.

use awr::core::{audit_transfers, RpConfig, RpHarness, WrOracle};
use awr::quorum::{rp_floor, QuorumSystem, WeightedMajorityQuorumSystem};
use awr::sim::UniformLatency;
use awr::types::{Change, Ratio, ServerId, WeightMap};

fn s(i: u32) -> ServerId {
    ServerId(i)
}

/// Paper Example 1 (§III): reassign semantics, abort on Integrity
/// violation, and read_changes responses.
#[test]
fn example1_reassign_semantics() {
    // S = {s1..s4}, Π = {c1, c2}, f = 1, all initial weights 1.
    let oracle = WrOracle::new(WeightMap::uniform(4, Ratio::ONE), 1);

    // s1 invokes reassign(s1, 1.5) → completed with the non-zero change
    // ⟨s1, 2, s1, 1.5⟩ (Validity-I forbids a null outcome here).
    let c = oracle.reassign(s(0).into(), 2, s(0), Ratio::dec("1.5"));
    assert_eq!(c, Change::new(s(0), 2, s(0), Ratio::dec("1.5")));

    // c1 invokes read_changes(s1) and must receive C_{s1,0} ∪ {⟨s1,2,s1,1.5⟩}.
    let response = oracle.read_changes(s(0));
    assert!(response.contains(&Change::initial(s(0), Ratio::ONE)));
    assert!(response.contains(&c));
    assert_eq!(response.server_weight(s(0)), Ratio::dec("2.5"));

    // s3 invokes reassign(s2, −0.5): creating ⟨s3, 2, s2, −0.5⟩ would
    // violate Integrity, so the null change ⟨s3, 2, s2, 0⟩ is created.
    let c2 = oracle.reassign(s(2).into(), 2, s(1), Ratio::dec("-0.5"));
    assert!(c2.is_null());
    assert_eq!(c2.issuer, s(2).into());

    // c2's read_changes(s2) contains the initial change and the null one.
    let response = oracle.read_changes(s(1));
    assert_eq!(response.len(), 2);
    assert!(response.contains(&c2));
    assert_eq!(response.server_weight(s(1)), Ratio::ONE);
}

/// Paper Example 2 + Figure 1 (§V.B): the restricted pairwise protocol on
/// a real asynchronous schedule.
#[test]
fn fig1_replay_full_protocol() {
    let cfg = RpConfig::uniform(7, 2);
    assert_eq!(cfg.floor(), Ratio::dec("0.7")); // "weights must exceed 0.7"

    // "the size of each quorum is four at the beginning"
    let initial_qs = WeightedMajorityQuorumSystem::new(cfg.initial_weights.clone());
    assert_eq!(initial_qs.min_quorum_size(), 4);

    let mut h = RpHarness::build(cfg.clone(), 1, 0xF161, UniformLatency::new(1_000, 80_000));

    // Transfers by s4, s5, s6 (completed before t1).
    for (from, to) in [(3, 0), (4, 1), (5, 2)] {
        let out = h
            .transfer_and_wait(s(from), s(to), Ratio::dec("0.25"))
            .unwrap();
        assert!(out.is_effective());
    }
    h.settle();

    // "As a result, {s1, s2, s3} (a minority of servers) constitutes a
    // quorum."
    let w = h.weights_seen_by(s(0));
    assert_eq!(
        w,
        WeightMap::dec(&["1.25", "1.25", "1.25", "0.75", "0.75", "0.75", "1"])
    );
    let qs = WeightedMajorityQuorumSystem::with_threshold_total(w, cfg.initial_total());
    assert!(qs.is_quorum_slice(&[s(0), s(1), s(2)]));
    assert_eq!(qs.min_quorum_size(), 3);

    // "two other invocations made by s6 and s7 after t1 … cannot be
    // executed in the restricted pairwise weight reassignment due to
    // RP-Integrity violation."
    let out = h.transfer_and_wait(s(5), s(0), Ratio::dec("0.1")).unwrap();
    assert!(!out.is_effective(), "s6 is at 0.75; 0.75 ≯ 0.1 + 0.7");
    let out = h.transfer_and_wait(s(6), s(1), Ratio::dec("0.4")).unwrap();
    assert!(!out.is_effective(), "s7 is at 1; 1 ≯ 0.4 + 0.7");

    // Weights unchanged by the null transfers; the audit is clean.
    h.settle();
    assert_eq!(
        h.weights_seen_by(s(6)),
        WeightMap::dec(&["1.25", "1.25", "1.25", "0.75", "0.75", "0.75", "1"])
    );
    let report = audit_transfers(&cfg, &h.all_completed());
    assert!(report.is_clean(), "{:?}", report.violations);
    assert_eq!(report.effective, 3);
    assert_eq!(report.null, 2);
}

/// §V.C: the flexibility discussion instance — smallest quorum is 5 with
/// the two heavy servers slow, and the floor blocks meaningful shuffles.
#[test]
fn section5c_flexibility_limits() {
    let w = WeightMap::dec(&["1.6", "1.4", "0.8", "0.8", "0.8", "0.8", "0.8"]);
    let floor = rp_floor(w.total(), 7, 2);
    assert_eq!(floor, Ratio::dec("0.7"));

    // "the size of the smallest quorum is five" when s1, s2 are slow.
    let qs = WeightedMajorityQuorumSystem::new(w.clone());
    let dead: std::collections::BTreeSet<ServerId> = [s(0), s(1)].into();
    let live = awr::quorum::smallest_quorum_avoiding(&qs, &dead);
    assert_eq!(live.map(|q| q.len()), Some(5));

    // "servers cannot form smaller quorums by reassigning weights": every
    // live donor has at most 0.1 of headroom above the floor, and any
    // redistribution among the five 0.8-servers keeps their total at 4 —
    // the smallest live quorum stays 5 whatever they do.
    let live_total: Ratio = (2..7).map(|i| w.weight(s(i))).sum();
    assert_eq!(live_total, Ratio::integer(4));
    assert!(live_total > w.total().half()); // they can still form quorums…
                                            // …but four of them max out at 4 − 0.7-floor'ed fifth < 3.5:
    let best_four = live_total - floor; // leave the weakest at the floor
    assert!(best_four < w.total().half() + Ratio::dec("0.2")); // 3.3 < 3.5 ✓
    assert!(best_four < Ratio::dec("3.5"));
}

/// The Fig. 1 weights as a (valid) starting configuration, and the paper's
/// §V.C weights rejected for f = 3 (floor climbs to 7/8).
#[test]
fn config_validation_follows_floor() {
    let w = WeightMap::dec(&["1.6", "1.4", "0.8", "0.8", "0.8", "0.8", "0.8"]);
    assert!(RpConfig::new(2, w.clone()).is_ok());
    let w2 = WeightMap::dec(&["1.6", "1.4", "0.8", "0.8", "0.8", "0.8", "0.8"]);
    assert!(RpConfig::new(3, w2).is_err());
}
