//! Quorum-system analysis helpers used by the experiment harnesses
//! (E3 flexibility, E11 quorum sweeps).

use std::collections::BTreeSet;

use awr_types::{Ratio, ServerId, WeightMap};

use crate::{QuorumSystem, WeightedMajorityQuorumSystem};

/// The smallest quorum that avoids every server in `excluded` (failed, slow
/// or suspected servers), members heaviest first with ties broken by id —
/// for a weighted majority this greedy choice is optimal, so `.len()` is the
/// minimal quorum size among the remaining servers. `None` when they cannot
/// form a quorum at all.
///
/// This is the §V.C question — “can the others still form a small quorum
/// when `s1`, `s2` are failed or slow?” — and the set a storage client
/// addresses its phase 1 to (`awr_storage::Fanout::Quorum`).
///
/// # Examples
///
/// ```
/// use awr_quorum::{smallest_quorum_avoiding, WeightedMajorityQuorumSystem};
/// use awr_types::{ServerId, WeightMap};
///
/// // §V.C: weights 1.6, 1.4, 0.8×5; s1 and s2 slow → smallest live quorum is 5.
/// let w = WeightMap::dec(&["1.6", "1.4", "0.8", "0.8", "0.8", "0.8", "0.8"]);
/// let q = WeightedMajorityQuorumSystem::new(w);
/// let slow = [ServerId(0), ServerId(1)].into_iter().collect();
/// assert_eq!(smallest_quorum_avoiding(&q, &slow).map(|q| q.len()), Some(5));
/// ```
pub fn smallest_quorum_avoiding(
    q: &WeightedMajorityQuorumSystem,
    excluded: &BTreeSet<ServerId>,
) -> Option<Vec<ServerId>> {
    let mut candidates: Vec<ServerId> = ServerId::all(q.universe_size())
        .filter(|s| !excluded.contains(s))
        .collect();
    candidates.sort_by(|a, b| {
        q.weights()
            .weight(*b)
            .cmp(&q.weights().weight(*a))
            .then(a.cmp(b))
    });
    let goal = q.threshold_total().half();
    let mut acc = Ratio::ZERO;
    for (k, s) in candidates.iter().enumerate() {
        acc += q.weights().weight(*s);
        if acc > goal {
            candidates.truncate(k + 1);
            return Some(candidates);
        }
    }
    None
}

/// Expected quorum-formation latency: given a per-server response latency
/// vector, the time at which the fastest quorum completes (i.e. the minimal,
/// over quorums `Q`, of the maximal latency inside `Q`).
///
/// For weighted majorities this is computable greedily: sort servers by
/// latency ascending and take the shortest prefix that is a quorum; the
/// answer is that prefix's last latency. (Any quorum's max latency is at
/// least the latency of its slowest member, and prefixes dominate.)
pub fn fastest_quorum_latency(q: &WeightedMajorityQuorumSystem, latencies: &[f64]) -> Option<f64> {
    assert_eq!(
        latencies.len(),
        q.universe_size(),
        "latency vector length must equal n"
    );
    let mut order: Vec<usize> = (0..latencies.len()).collect();
    order.sort_by(|&a, &b| latencies[a].total_cmp(&latencies[b]));
    let goal = q.threshold_total().half();
    let mut acc = Ratio::ZERO;
    for &i in &order {
        acc += q.weights().weight(ServerId(i as u32));
        if acc > goal {
            return Some(latencies[i]);
        }
    }
    None
}

/// A row of the E11 sweep: how quorum size responds to weight skew.
#[derive(Clone, Debug, PartialEq)]
pub struct SkewRow {
    /// Weight given to each of the `k` heavy servers.
    pub heavy_weight: Ratio,
    /// Smallest quorum size.
    pub min_quorum: usize,
    /// Whether Property 1 still holds for the given `f`.
    pub available: bool,
}

/// Sweeps weight skew: `k` servers get weight `w_heavy`, the rest share the
/// remaining weight equally (total fixed at `n`), reporting quorum size and
/// Property-1 availability for each step.
pub fn skew_sweep(n: usize, f: usize, k: usize, steps: &[Ratio]) -> Vec<SkewRow> {
    assert!(k < n, "need at least one light server");
    let total = Ratio::integer(n as i64);
    steps
        .iter()
        .map(|&heavy| {
            let rest = (total - heavy * Ratio::integer(k as i64)) / Ratio::integer((n - k) as i64);
            let w = WeightMap::from_fn(n, |s| if s.index() < k { heavy } else { rest });
            let qs = WeightedMajorityQuorumSystem::new(w.clone());
            SkewRow {
                heavy_weight: heavy,
                min_quorum: qs.min_quorum_size(),
                available: crate::integrity_holds(&w, f),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avoiding_failed_servers_section5c() {
        let w = WeightMap::dec(&["1.6", "1.4", "0.8", "0.8", "0.8", "0.8", "0.8"]);
        let q = WeightedMajorityQuorumSystem::new(w);
        // Nothing failed: smallest quorum is 3 (1.6+1.4+0.8 = 3.8 > 3.5).
        let size = |dead: &BTreeSet<ServerId>| smallest_quorum_avoiding(&q, dead).map(|m| m.len());
        assert_eq!(size(&BTreeSet::new()), Some(3));
        // s1, s2 failed: five 0.8s needed (4.0 > 3.5; four give 3.2).
        let failed: BTreeSet<ServerId> = [ServerId(0), ServerId(1)].into();
        assert_eq!(size(&failed), Some(5));
        // Members come heaviest first, ties by id.
        assert_eq!(
            smallest_quorum_avoiding(&q, &[ServerId(1)].into()),
            Some(vec![ServerId(0), ServerId(2), ServerId(3), ServerId(4)])
        );
        // Everything failed: no quorum.
        let all: BTreeSet<ServerId> = ServerId::all(7).collect();
        assert_eq!(size(&all), None);
    }

    #[test]
    fn fastest_quorum_prefers_heavy_fast_servers() {
        // Two heavy fast servers can outvote three slow ones.
        let w = WeightMap::dec(&["2", "2", "1", "1", "1"]);
        let q = WeightedMajorityQuorumSystem::new(w);
        let lat = [10.0, 12.0, 100.0, 110.0, 120.0];
        // {s1, s2} = 4 > 3.5 → latency 12.
        assert_eq!(fastest_quorum_latency(&q, &lat), Some(12.0));
        // Uniform weights need 3 of 5 → latency 100.
        let u = WeightedMajorityQuorumSystem::new(WeightMap::uniform(5, Ratio::ONE));
        assert_eq!(fastest_quorum_latency(&u, &lat), Some(100.0));
    }

    #[test]
    fn skew_sweep_shrinks_quorums_until_unavailable() {
        let steps: Vec<Ratio> = ["1", "1.5", "2", "2.5", "3"]
            .iter()
            .map(|s| Ratio::dec(s))
            .collect();
        let rows = skew_sweep(7, 2, 2, &steps);
        assert_eq!(rows.len(), 5);
        // Quorum size is non-increasing in skew.
        for w in rows.windows(2) {
            assert!(w[1].min_quorum <= w[0].min_quorum);
        }
        // Uniform start: quorum 4, available.
        assert_eq!(rows[0].min_quorum, 4);
        assert!(rows[0].available);
        // Extreme skew: two servers with weight 3 each = 6 of 7 ≥ 3.5 → unavailable.
        assert!(!rows[4].available);
    }

    #[test]
    #[should_panic(expected = "latency vector length")]
    fn latency_length_mismatch_panics() {
        let q = WeightedMajorityQuorumSystem::new(WeightMap::uniform(3, Ratio::ONE));
        let _ = fastest_quorum_latency(&q, &[1.0]);
    }
}
