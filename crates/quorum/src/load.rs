//! Quorum-system *load* (Naor & Wool [2]; the paper's §I cites this line
//! of work when introducing quorum systems).
//!
//! The load of a quorum system under an access strategy is the busiest
//! server's access probability; the system's load is the minimum over
//! strategies. Low load = good throughput scaling. We compute the exact
//! load for small systems by linear programming over minimal quorums —
//! implemented here as a simple iterative (multiplicative-weights) solver,
//! adequate for the `n ≤ 20` analysis sizes this crate targets.

use awr_types::ServerId;

use crate::system::minimal_quorums;
use crate::QuorumSystem;

/// The result of a load computation.
#[derive(Clone, Debug)]
pub struct LoadAnalysis {
    /// The computed (approximate) system load in `[1/n, 1]`.
    pub load: f64,
    /// The strategy: one probability per minimal quorum.
    pub strategy: Vec<f64>,
    /// Per-server access probabilities under the strategy.
    pub per_server: Vec<f64>,
}

/// Approximates the load of a quorum system by multiplicative-weights over
/// its minimal quorums: repeatedly shift probability mass toward quorums
/// that avoid the currently-busiest servers.
///
/// Exact for symmetric systems (majority, square grids) and within ~1 % in
/// general at the default iteration count.
///
/// # Panics
///
/// Panics if the system has no quorums or more than 2^20 minimal quorums.
pub fn approximate_load<Q: QuorumSystem + ?Sized>(q: &Q, iterations: usize) -> LoadAnalysis {
    let quorums = minimal_quorums(q);
    assert!(!quorums.is_empty(), "system has no quorums");
    let n = q.universe_size();
    let m = quorums.len();
    let mut weights = vec![1.0f64; m];

    let mut best: Option<LoadAnalysis> = None;
    for _ in 0..iterations.max(1) {
        let total: f64 = weights.iter().sum();
        let strategy: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let mut per_server = vec![0.0f64; n];
        for (p, quorum) in strategy.iter().zip(&quorums) {
            for s in quorum {
                per_server[s.index()] += p;
            }
        }
        let load = per_server.iter().cloned().fold(0.0, f64::max);
        if best.as_ref().map(|b| load < b.load).unwrap_or(true) {
            best = Some(LoadAnalysis {
                load,
                strategy: strategy.clone(),
                per_server: per_server.clone(),
            });
        }
        // Penalize quorums that touch heavily-loaded servers.
        for (w, quorum) in weights.iter_mut().zip(&quorums) {
            let q_load: f64 = quorum.iter().map(|s| per_server[s.index()]).sum();
            let avg = q_load / quorum.len() as f64;
            *w *= (-(avg - load / 2.0).max(0.0)).exp().max(0.2);
        }
    }
    best.expect("at least one iteration ran")
}

/// The trivially-optimal lower bound `max(1/c(Q), c(Q)/n)` where `c(Q)` is
/// the smallest quorum size (Naor–Wool Proposition 4.3 simplification).
pub fn load_lower_bound<Q: QuorumSystem + ?Sized>(q: &Q) -> f64 {
    let c = q.min_quorum_size() as f64;
    let n = q.universe_size() as f64;
    (1.0 / c).max(c / n)
}

/// Per-server access frequency implied by a weighted-majority system when
/// clients always use the *smallest* quorum (greedy-by-weight): heavy
/// servers absorb all traffic — the load-concentration effect weighted
/// quorums trade for latency.
pub fn greedy_weighted_load(
    system: &crate::WeightedMajorityQuorumSystem,
) -> Option<(f64, Vec<ServerId>)> {
    let q = system.smallest_quorum()?;
    Some((1.0, q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GridQuorumSystem, MajorityQuorumSystem, WeightedMajorityQuorumSystem};
    use awr_types::{Ratio, WeightMap};

    #[test]
    fn majority_load_is_about_half() {
        // Majority systems have load ⌈(n+1)/2⌉ / n ≈ 1/2.
        let q = MajorityQuorumSystem::new(5);
        let a = approximate_load(&q, 200);
        assert!(
            (a.load - 0.6).abs() < 0.05,
            "5-server majority load ≈ 3/5, got {}",
            a.load
        );
        // Strategy is a distribution.
        let sum: f64 = a.strategy.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn grid_load_achieves_its_lower_bound() {
        // For the row+column grid the symmetric strategy is optimal: load
        // = (2√n − 1)/n = 5/9 for 3×3 — the same as a 9-server majority's.
        // (The grid's advantage over majorities is quorum *size*, not load;
        // Naor–Wool's low-load constructions use different quorums.)
        let grid = GridQuorumSystem::new(3, 3);
        let a = approximate_load(&grid, 300);
        let bound = 5.0 / 9.0;
        assert!(
            (a.load - bound).abs() < 0.02,
            "grid load {} should sit at its bound {bound}",
            a.load
        );
    }

    #[test]
    fn lower_bound_holds() {
        for n in [3usize, 5, 7] {
            let q = MajorityQuorumSystem::new(n);
            let a = approximate_load(&q, 200);
            assert!(a.load >= load_lower_bound(&q) - 1e-9, "n={n}");
        }
        let g = GridQuorumSystem::new(3, 3);
        assert!(approximate_load(&g, 300).load >= load_lower_bound(&g) - 1e-9);
    }

    #[test]
    fn greedy_weighted_concentrates_load() {
        let w = WeightMap::dec(&["2", "2", "1", "1", "1"]);
        let q = WeightedMajorityQuorumSystem::new(w);
        let (load, quorum) = greedy_weighted_load(&q).unwrap();
        assert_eq!(load, 1.0); // the heavy pair serves every access
        assert_eq!(quorum.len(), 2);
    }

    #[test]
    fn zero_weight_system_has_no_greedy_quorum() {
        let q = WeightedMajorityQuorumSystem::new(WeightMap::uniform(3, Ratio::ZERO));
        assert!(greedy_weighted_load(&q).is_none());
    }

    #[test]
    fn heaviest_first_puts_all_load_on_the_quorum_members() {
        // What docs/LOAD.md quotes: the best any access strategy can do
        // (Naor–Wool load) against what a client that always asks the
        // heaviest-first quorum does (`awr_storage::Fanout::Quorum`).
        let uniform = WeightedMajorityQuorumSystem::new(WeightMap::uniform(5, Ratio::ONE));
        let wheat = WeightedMajorityQuorumSystem::new(WeightMap::dec(&[
            "1.55", "1.55", "0.63", "0.64", "0.63",
        ]));
        // Spread as well as any strategy can, every server of the uniform
        // system sees 3/5 of the accesses, of the WHEAT system 4/7 …
        let spread = approximate_load(&uniform, 400);
        assert!((spread.load - 0.6).abs() < 0.005, "{}", spread.load);
        let spread = approximate_load(&wheat, 400);
        assert!((spread.load - 4.0 / 7.0).abs() < 0.005, "{}", spread.load);
        // … while heaviest-first sends every access to the same members —
        // three of five, or WHEAT's two Vmax replicas — and none to the rest.
        let ids = |v: &[u32]| v.iter().map(|&i| ServerId(i)).collect::<Vec<_>>();
        assert_eq!(greedy_weighted_load(&uniform), Some((1.0, ids(&[0, 1, 2]))));
        assert_eq!(greedy_weighted_load(&wheat), Some((1.0, ids(&[0, 1]))));
    }
}
