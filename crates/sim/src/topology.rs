//! Topology presets: propagation matrices and full bandwidth-aware
//! networks.
//!
//! The paper motivates weighted quorums with geo-replication (WHEAT [20],
//! AWARE [10]): replicas in different regions see very different quorum
//! latencies. These presets encode a five-region planet-scale matrix with
//! one-way delays in the ballpark of public-cloud inter-region RTTs, which
//! is all the experiments need — only the *shape* (heterogeneity) matters.
//!
//! Two presets pair propagation with a [`BandwidthMatrix`] so wire bytes
//! shape schedules: [`geo_network`] (five regions, bandwidth falling with
//! distance) and [`constrained_uplink`] (every sender's outgoing traffic
//! serializes on one modest uplink — the regime where full-change-set
//! wires hurt most).

use crate::network::{BandwidthLinks, BandwidthMatrix, LinkDiscipline, UniformLatency, WanMatrix};
use crate::time::{Nanos, MICRO, MILLI};

/// A named region of the five-region preset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Region {
    /// North America (east).
    Virginia,
    /// Europe (west).
    Ireland,
    /// South America (east).
    SaoPaulo,
    /// Asia-Pacific (north-east).
    Tokyo,
    /// Asia-Pacific (south-east).
    Sydney,
}

impl Region {
    /// All regions, index-aligned with [`five_region_matrix`].
    pub const ALL: [Region; 5] = [
        Region::Virginia,
        Region::Ireland,
        Region::SaoPaulo,
        Region::Tokyo,
        Region::Sydney,
    ];

    /// The row/column index of this region in [`five_region_matrix`].
    pub fn index(&self) -> usize {
        Region::ALL.iter().position(|r| r == self).unwrap()
    }

    /// A short human-readable name, for benchmark reports.
    pub fn name(&self) -> &'static str {
        match self {
            Region::Virginia => "virginia",
            Region::Ireland => "ireland",
            Region::SaoPaulo => "sao-paulo",
            Region::Tokyo => "tokyo",
            Region::Sydney => "sydney",
        }
    }
}

/// One-way delay matrix (nanoseconds) between the five preset regions.
/// Derived from typical public-cloud RTT/2 figures; symmetric.
pub fn five_region_matrix() -> Vec<Vec<Nanos>> {
    // ms one-way:         VA    IE    SP    TK    SY
    let ms: [[u64; 5]; 5] = [
        [1, 38, 60, 73, 98],   // Virginia
        [38, 1, 92, 106, 132], // Ireland
        [60, 92, 1, 128, 160], // São Paulo
        [73, 106, 128, 1, 52], // Tokyo
        [98, 132, 160, 52, 1], // Sydney
    ];
    ms.iter()
        .map(|row| row.iter().map(|&m| m * MILLI).collect())
        .collect()
}

/// A WAN model placing `n` actors round-robin across the five regions with
/// the given jitter fraction. Actor `i` goes to region `i % 5`.
pub fn five_region_wan(n: usize, jitter: f64) -> WanMatrix {
    let region_of = (0..n).map(|i| i % 5).collect();
    WanMatrix::new(five_region_matrix(), region_of, jitter)
}

/// A WAN model with an explicit actor→region placement.
pub fn five_region_wan_with_placement(placement: &[Region], jitter: f64) -> WanMatrix {
    let region_of = placement.iter().map(|r| r.index()).collect();
    WanMatrix::new(five_region_matrix(), region_of, jitter)
}

// ---------------------------------------------------------------------------
// Bandwidth-aware network presets.
// ---------------------------------------------------------------------------

/// 10 Gbit/s in bytes/second — the LAN / intra-region link speed.
pub const GBIT10: u64 = 1_250_000_000;

/// Inter-region bandwidth (bytes/second) between the five preset regions:
/// intra-region links run at [`GBIT10`], cross-region capacity falls with
/// distance (same shape as the delay matrix — long-haul links are both
/// slower and thinner).
pub fn five_region_bandwidth() -> Vec<Vec<u64>> {
    const MB: u64 = 1_000_000;
    // bytes/s:                  VA        IE        SP        TK        SY
    [
        [GBIT10, 250 * MB, 150 * MB, 120 * MB, 100 * MB],
        [250 * MB, GBIT10, 100 * MB, 90 * MB, 80 * MB],
        [150 * MB, 100 * MB, GBIT10, 70 * MB, 60 * MB],
        [120 * MB, 90 * MB, 70 * MB, GBIT10, 200 * MB],
        [100 * MB, 80 * MB, 60 * MB, 200 * MB, GBIT10],
    ]
    .iter()
    .map(|row| row.to_vec())
    .collect()
}

/// The five-region WAN with an explicit actor→region placement — the
/// geo-replicated deployment the paper's motivating systems (WHEAT, AWARE)
/// run in.
pub fn geo_network(placement: &[Region], jitter: f64) -> BandwidthLinks<WanMatrix> {
    let region_of: Vec<usize> = placement.iter().map(|r| r.index()).collect();
    BandwidthLinks::new(
        five_region_wan_with_placement(placement, jitter),
        BandwidthMatrix::new(five_region_bandwidth(), region_of),
    )
}

/// A constrained-uplink topology: modest propagation (0.2–1 ms) and one
/// shared uplink of `bytes_per_sec` per sender, so a broadcast's messages
/// serialize behind each other. Pass [`crate::UNLIMITED_BANDWIDTH`] to
/// recover the pure-propagation schedule (useful for A/B comparisons).
pub fn constrained_uplink(n: usize, bytes_per_sec: u64) -> BandwidthLinks<UniformLatency> {
    BandwidthLinks::with_discipline(
        UniformLatency::new(200 * MICRO, MILLI),
        BandwidthMatrix::uniform(n, bytes_per_sec),
        LinkDiscipline::SharedUplink,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::ActorId;

    #[test]
    fn matrix_is_square_and_symmetric() {
        let m = five_region_matrix();
        assert_eq!(m.len(), 5);
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row.len(), 5);
            for (j, &cell) in row.iter().enumerate() {
                assert_eq!(cell, m[j][i], "asymmetric at {i},{j}");
            }
        }
    }

    #[test]
    fn region_indices() {
        for (i, r) in Region::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn round_robin_placement() {
        let wan = five_region_wan(7, 0.0);
        // Actors 0 and 5 share region Virginia → near-local delay.
        assert!(wan.base_delay(ActorId(0), ActorId(5)) < 5 * MILLI);
        // Actor 0 (VA) to actor 4 (Sydney) is the long haul.
        assert_eq!(wan.base_delay(ActorId(0), ActorId(4)), 98 * MILLI);
    }

    #[test]
    fn explicit_placement() {
        let wan = five_region_wan_with_placement(&[Region::Tokyo, Region::Sydney], 0.0);
        assert_eq!(wan.base_delay(ActorId(0), ActorId(1)), 52 * MILLI);
    }

    #[test]
    fn bandwidth_presets_have_expected_shape() {
        use crate::network::NetworkModel;
        use rand::SeedableRng;

        let bw = five_region_bandwidth();
        assert_eq!(bw.len(), 5);
        for (i, row) in bw.iter().enumerate() {
            assert_eq!(row.len(), 5);
            assert_eq!(row[i], GBIT10, "intra-region must be LAN speed");
            for (j, &cell) in row.iter().enumerate() {
                assert_eq!(cell, bw[j][i], "asymmetric at {i},{j}");
                assert!(cell > 0);
            }
        }
        // A 1 MB payload crosses VA→SP slower than VA→IE (thinner pipe).
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let round_robin = [
            Region::Virginia,
            Region::Ireland,
            Region::SaoPaulo,
            Region::Tokyo,
            Region::Sydney,
        ];
        let mut net = geo_network(&round_robin, 0.0);
        let to_ie = net.delivery(
            ActorId(0),
            ActorId(1),
            crate::time::Time::ZERO,
            1 << 20,
            &mut rng,
        );
        let mut net = geo_network(&round_robin, 0.0);
        let to_sp = net.delivery(
            ActorId(0),
            ActorId(2),
            crate::time::Time::ZERO,
            1 << 20,
            &mut rng,
        );
        assert!(to_sp.transmission > to_ie.transmission);

        // The constrained uplink serializes a fan-out; an intra-region
        // link does not (same 100 KB payload, wildly different
        // transmission).
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut con = constrained_uplink(4, 1_000_000);
        let first = con.delivery(
            ActorId(0),
            ActorId(1),
            crate::time::Time::ZERO,
            100_000,
            &mut rng,
        );
        let second = con.delivery(
            ActorId(0),
            ActorId(2),
            crate::time::Time::ZERO,
            100_000,
            &mut rng,
        );
        assert_eq!(first.transmission, 100 * MILLI);
        assert_eq!(second.queued, 100 * MILLI, "uplink shared across targets");
        let mut intra = geo_network(&[Region::Ireland, Region::Ireland], 0.0);
        let d = intra.delivery(
            ActorId(0),
            ActorId(1),
            crate::time::Time::ZERO,
            100_000,
            &mut rng,
        );
        assert!(d.transmission < MILLI / 10);

        // Geo placement honours the explicit region list.
        let mut geo = geo_network(&[Region::Tokyo, Region::Sydney], 0.0);
        let d = geo.delivery(
            ActorId(0),
            ActorId(1),
            crate::time::Time::ZERO,
            1 << 20,
            &mut rng,
        );
        assert!(d.propagation >= 52 * MILLI);
    }

    #[test]
    fn delay_profile_orders_regions() {
        // With one actor per region, São Paulo and Sydney are the loneliest:
        // their mean one-way delay to the other four regions is the largest.
        let wan = five_region_wan(5, 0.0);
        let prof: Vec<Nanos> = (0..5)
            .map(|i| {
                (0..5)
                    .filter(|&j| j != i)
                    .map(|j| wan.base_delay(ActorId(i), ActorId(j)))
                    .sum::<Nanos>()
                    / 4
            })
            .collect();
        let va = prof[0];
        let sp = prof[2];
        let sy = prof[4];
        assert!(
            va < sp,
            "Virginia should be better connected than São Paulo"
        );
        assert!(va < sy);
    }
}
