//! Random workload generation for storage experiments.
//!
//! Drives a [`crate::StorageHarness`] with a closed-loop mix of reads, writes, and transfers, then hands back the
//! recorded history for checking. Keyed workloads
//! ([`run_keyed_workload`]) additionally spread the operations over a
//! multi-object key space, uniformly or with the Zipfian skew real
//! key-value traffic exhibits ([`KeyDistribution`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use awr_types::{ObjectId, Ratio, ServerId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::StorageHarness;
use crate::history::History;

/// Parameters of a random mixed workload.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Scheduling rounds.
    pub rounds: usize,
    /// Virtual nanoseconds the world advances between rounds.
    pub round_ns: u64,
    /// Probability (0..100) that an idle client starts an op each round.
    pub op_percent: u32,
    /// Probability (0..100) that an op is a write (else read).
    pub write_percent: u32,
    /// Probability (0..100) that a random transfer is attempted each round.
    pub transfer_percent: u32,
    /// The Δ used for random transfers.
    pub transfer_delta: Ratio,
}

impl Default for WorkloadSpec {
    fn default() -> WorkloadSpec {
        WorkloadSpec {
            rounds: 20,
            round_ns: 150_000,
            op_percent: 60,
            write_percent: 50,
            transfer_percent: 30,
            transfer_delta: Ratio::new(1, 20),
        }
    }
}

/// Statistics of a completed workload run.
#[derive(Clone, Debug, Default)]
pub struct WorkloadStats {
    /// Completed reads.
    pub reads: usize,
    /// Completed writes.
    pub writes: usize,
    /// Transfers attempted (accepted invocations).
    pub transfers_attempted: usize,
    /// Mean operation latency (virtual ms).
    pub mean_latency_ms: f64,
    /// Total stale-set restarts across completed ops.
    pub restarts: u64,
}

/// Runs `spec` against the harness with `n_clients` closed-loop clients,
/// writing distinct `u64` values. Returns run statistics; the history stays
/// in the harness for checking.
pub fn run_mixed_workload(
    h: &mut StorageHarness<u64>,
    n_clients: usize,
    spec: &WorkloadSpec,
    seed: u64,
) -> WorkloadStats {
    run_workload_engine(h, n_clients, spec, seed, None).0
}

/// The engine behind every workload shape. `sampler == None` is the
/// single-object workload (the RNG draw sequence is pinned by
/// `tests/single_object_replay.rs` — do not reorder the draws); a sampler
/// adds exactly one key draw per issued op. Statistics and the returned
/// history cover only the operations *this call* completed (the engine may
/// be invoked repeatedly on one harness), and written values continue
/// strictly above anything already in the history, keeping them globally
/// distinct across calls — both of which the per-key linearizability check
/// relies on.
fn run_workload_engine(
    h: &mut StorageHarness<u64>,
    n_clients: usize,
    spec: &WorkloadSpec,
    seed: u64,
    sampler: Option<&KeySampler>,
) -> (WorkloadStats, History<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = h.config().n;
    let prior = h.history();
    let mut next_val = prior
        .ops
        .iter()
        .filter_map(|o| match &o.kind {
            crate::history::OpKind::Write(v) => Some(*v),
            crate::history::OpKind::Read(_) => None,
        })
        .max()
        .map_or(1, |m| m + 1);
    // Per-client completed-op counts before this call: client histories
    // are append-only, so these index the start of this call's window.
    // Sized to cover every client the harness has recorded, not just the
    // ones this workload drives.
    let width = prior
        .ops
        .iter()
        .map(|o| o.client + 1)
        .max()
        .unwrap_or(0)
        .max(n_clients);
    let mut prior_per_client = vec![0usize; width];
    for op in &prior.ops {
        prior_per_client[op.client] += 1;
    }
    let restarts_before = h.total_restarts();
    let mut stats = WorkloadStats::default();
    for _ in 0..spec.rounds {
        for k in 0..n_clients {
            if !h.client_busy(k) && rng.random_range(0..100) < spec.op_percent {
                let obj = match sampler {
                    Some(s) => s.sample(&mut rng),
                    None => ObjectId::DEFAULT,
                };
                if rng.random_range(0..100) < spec.write_percent {
                    h.begin_async_obj(k, obj, Some(next_val));
                    next_val += 1;
                } else {
                    h.begin_async_obj(k, obj, None);
                }
            }
        }
        if rng.random_range(0..100) < spec.transfer_percent {
            let from = ServerId(rng.random_range(0..n as u32));
            let to = ServerId(rng.random_range(0..n as u32));
            if from != to && h.transfer_async(from, to, spec.transfer_delta).is_ok() {
                stats.transfers_attempted += 1;
            }
        }
        h.world.run_for(spec.round_ns);
    }
    h.settle();
    // Window the statistics to this call's ops: each client's first
    // `prior_per_client` records predate this call and are skipped.
    let mut seen = vec![0usize; prior_per_client.len()];
    let mut hist = History::new();
    for op in h.history().ops {
        if op.client < seen.len() {
            seen[op.client] += 1;
            if seen[op.client] <= prior_per_client[op.client] {
                continue;
            }
        }
        hist.record(op);
    }
    let mut total_ms = 0.0;
    for op in &hist.ops {
        match op.kind {
            crate::history::OpKind::Read(_) => stats.reads += 1,
            crate::history::OpKind::Write(_) => stats.writes += 1,
        }
        total_ms += (op.response - op.invoke) as f64 / 1e6;
    }
    if !hist.is_empty() {
        stats.mean_latency_ms = total_ms / hist.len() as f64;
    }
    stats.restarts = h.total_restarts() - restarts_before;
    (stats, hist)
}

/// How a keyed workload draws its object keys.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyDistribution {
    /// Every object equally likely.
    Uniform,
    /// Zipf's law: object rank `k` (1-based) drawn with probability
    /// ∝ `1 / k^exponent`. Exponent 0 degenerates to uniform; ~1 is the
    /// classic web/key-value skew (a few hot keys, a long cold tail).
    Zipfian {
        /// The skew exponent `s ≥ 0`.
        exponent: f64,
    },
}

/// A seeded key sampler over a dense key space `o0..o(n-1)`: a precomputed
/// cumulative distribution, sampled by binary search in O(log n) — or, under
/// [`KeyDistribution::Uniform`], in O(1) by stepping from `⌊u·n⌋` to the
/// first bound above `u`, which lands where the binary search would (the
/// bounds are sums of `1/n` and stray from `(k+1)/n` by rounding only).
/// Clones share the distribution, so a hundred clients drawing from one
/// key space search one table.
///
/// # Examples
///
/// ```
/// use awr_storage::workload::{KeyDistribution, KeySampler};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let sampler = KeySampler::new(100, KeyDistribution::Zipfian { exponent: 1.0 });
/// let mut rng = StdRng::seed_from_u64(7);
/// let hot = (0..1_000).filter(|_| sampler.sample(&mut rng).key() == 0).count();
/// assert!(hot > 100, "rank-1 key should be hot under zipf(1), got {hot}");
/// ```
#[derive(Clone, Debug)]
pub struct KeySampler {
    /// Normalized cumulative weights; `cum[k]` = P(key ≤ k).
    cum: Arc<[f64]>,
    /// Whether every key has the same weight, so that `cum[k]` ≈ `(k+1)/n`.
    uniform: bool,
}

impl KeySampler {
    /// Builds the sampler for `n_objects` keys under `dist`.
    ///
    /// # Panics
    ///
    /// Panics if `n_objects` is zero or a Zipfian exponent is negative.
    pub fn new(n_objects: usize, dist: KeyDistribution) -> KeySampler {
        assert!(n_objects > 0, "key space must be non-empty");
        let weights: Vec<f64> = match dist {
            KeyDistribution::Uniform => vec![1.0; n_objects],
            KeyDistribution::Zipfian { exponent } => {
                assert!(exponent >= 0.0, "zipf exponent must be non-negative");
                (1..=n_objects)
                    .map(|k| 1.0 / (k as f64).powf(exponent))
                    .collect()
            }
        };
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cum = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        KeySampler {
            cum,
            uniform: matches!(dist, KeyDistribution::Uniform),
        }
    }

    /// Number of keys in the space.
    pub fn n_objects(&self) -> usize {
        self.cum.len()
    }

    /// Draws one key.
    pub fn sample(&self, rng: &mut StdRng) -> ObjectId {
        let k = self.bound_above(rng.random_range(0.0f64..1.0));
        ObjectId(k.min(self.cum.len() - 1) as u64)
    }

    /// The first `k` with `cum[k] > u` (`n` if none):
    /// `cum.partition_point(|&c| c <= u)`.
    fn bound_above(&self, u: f64) -> usize {
        let cum = &self.cum;
        if !self.uniform {
            return cum.partition_point(|&c| c <= u);
        }
        // `cum` is non-decreasing: below the start every bound is ≤ `u` once
        // the first loop stops, so the second stops at the partition point.
        let mut k = ((u * cum.len() as f64) as usize).min(cum.len());
        while k > 0 && cum[k - 1] > u {
            k -= 1;
        }
        while k < cum.len() && cum[k] <= u {
            k += 1;
        }
        k
    }
}

/// Parameters of a keyed random workload: the base closed-loop mix of
/// [`WorkloadSpec`], spread over `n_objects` keys drawn from `dist`.
#[derive(Clone, Debug)]
pub struct KeyedWorkloadSpec {
    /// The op/transfer mix and pacing.
    pub base: WorkloadSpec,
    /// Size of the key space.
    pub n_objects: usize,
    /// How keys are drawn per operation.
    pub dist: KeyDistribution,
}

impl Default for KeyedWorkloadSpec {
    fn default() -> KeyedWorkloadSpec {
        KeyedWorkloadSpec {
            base: WorkloadSpec::default(),
            n_objects: 16,
            dist: KeyDistribution::Zipfian { exponent: 1.0 },
        }
    }
}

/// Statistics of a completed keyed workload run.
#[derive(Clone, Debug, Default)]
pub struct KeyedWorkloadStats {
    /// The object-oblivious statistics of the run.
    pub totals: WorkloadStats,
    /// Per-object `(completed ops, mean latency in virtual ms)`.
    pub per_object: BTreeMap<ObjectId, (usize, f64)>,
}

impl KeyedWorkloadStats {
    /// Number of distinct objects that completed at least one op.
    pub fn objects_touched(&self) -> usize {
        self.per_object.len()
    }

    /// The hottest object and its op count, if any op completed.
    pub fn hottest(&self) -> Option<(ObjectId, usize)> {
        self.per_object
            .iter()
            .max_by_key(|&(obj, &(n, _))| (n, std::cmp::Reverse(*obj)))
            .map(|(&o, &(n, _))| (o, n))
    }
}

/// Runs `spec` against the harness with `n_clients` closed-loop clients:
/// the same mix as [`run_mixed_workload`], but each operation targets a key
/// drawn from `spec.dist` — all keys served by the one shared weighted
/// configuration, so the spec's random transfers re-weight every object at
/// once. Statistics cover only the ops this call completed, and written
/// values stay globally distinct across repeated calls on one harness,
/// keeping the combined per-key history checkable; the history stays in
/// the harness.
pub fn run_keyed_workload(
    h: &mut StorageHarness<u64>,
    n_clients: usize,
    spec: &KeyedWorkloadSpec,
    seed: u64,
) -> KeyedWorkloadStats {
    let sampler = KeySampler::new(spec.n_objects, spec.dist);
    let (totals, hist) = run_workload_engine(h, n_clients, &spec.base, seed, Some(&sampler));
    KeyedWorkloadStats {
        totals,
        per_object: hist.per_object_latency(),
    }
}

/// Unique-value generator helper for open-coded workloads.
pub fn distinct_values(start: u64) -> impl FnMut() -> u64 {
    let mut next = start;
    move || {
        let v = next;
        next += 1;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::DynOptions;
    use crate::lin::check_linearizable;
    use awr_core::RpConfig;
    use awr_sim::UniformLatency;

    #[test]
    fn mixed_workload_completes_and_checks() {
        let mut h: StorageHarness<u64> = StorageHarness::build(
            RpConfig::uniform(5, 1),
            3,
            11,
            UniformLatency::new(1_000, 40_000),
            DynOptions::default(),
        );
        let stats = run_mixed_workload(&mut h, 3, &WorkloadSpec::default(), 11);
        assert!(stats.reads + stats.writes > 5);
        assert!(stats.mean_latency_ms > 0.0);
        check_linearizable(&h.history()).unwrap();
    }

    #[test]
    fn distinct_values_distinct() {
        let mut g = distinct_values(5);
        assert_eq!(g(), 5);
        assert_eq!(g(), 6);
    }

    #[test]
    fn zipf_sampler_is_rank_monotone() {
        use awr_types::ObjectId;
        let sampler = KeySampler::new(50, KeyDistribution::Zipfian { exponent: 1.2 });
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = vec![0usize; 50];
        for _ in 0..20_000 {
            counts[sampler.sample(&mut rng).key() as usize] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[40]);
        assert!(
            counts[0] > 3_000,
            "rank 1 should dominate, got {}",
            counts[0]
        );
        // Uniform: no key dominates.
        let uni = KeySampler::new(50, KeyDistribution::Uniform);
        let mut counts = vec![0usize; 50];
        for _ in 0..20_000 {
            counts[uni.sample(&mut rng).key() as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 200 && c < 800), "{counts:?}");
        assert_eq!(uni.n_objects(), 50);
        // Zipf(0) degenerates to uniform weights; samples stay in range.
        let z0 = KeySampler::new(4, KeyDistribution::Zipfian { exponent: 0.0 });
        for _ in 0..100 {
            assert!(z0.sample(&mut rng) < ObjectId(4));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The uniform draw's walk from `⌊u·n⌋` returns what the binary
        /// search returns: for drawn `u`, and at every bound `cum[k]` and
        /// the floats either side of it, where rounding decides.
        #[test]
        fn the_uniform_walk_lands_where_the_binary_search_does(
            n in 1usize..3_000,
            us in proptest::collection::vec(0.0f64..1.0, 64),
        ) {
            let sampler = KeySampler::new(n, KeyDistribution::Uniform);
            let search = |u: f64| sampler.cum.partition_point(|&c| c <= u);
            for u in us {
                proptest::prop_assert_eq!(sampler.bound_above(u), search(u), "u = {}", u);
            }
            for &c in sampler.cum.iter() {
                for u in [c.next_down(), c, c.next_up()] {
                    proptest::prop_assert_eq!(sampler.bound_above(u), search(u), "u = {}", u);
                }
            }
        }
    }

    #[test]
    fn the_uniform_draw_keeps_its_key_stream() {
        // The same seed draws the same keys as the binary search over the
        // same table.
        let sampler = KeySampler::new(2_048, KeyDistribution::Uniform);
        let (mut a, mut b) = (StdRng::seed_from_u64(7), StdRng::seed_from_u64(7));
        for _ in 0..100_000 {
            let u = b.random_range(0.0f64..1.0);
            let k = sampler.cum.partition_point(|&c| c <= u).min(2_047);
            assert_eq!(sampler.sample(&mut a), ObjectId(k as u64));
        }
    }

    #[test]
    fn sampler_clones_share_one_table_and_draw_the_same_keys() {
        let dist = KeyDistribution::Zipfian { exponent: 1.0 };
        let sampler = KeySampler::new(2_000, dist);
        let clone = sampler.clone();
        assert!(Arc::ptr_eq(&sampler.cum, &clone.cum));
        let fresh = KeySampler::new(2_000, dist);
        let (mut a, mut b) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
        for _ in 0..10_000 {
            assert_eq!(clone.sample(&mut a), fresh.sample(&mut b));
        }
    }

    #[test]
    fn keyed_workload_is_per_key_linearizable() {
        use crate::lin::{check_linearizable, check_linearizable_keyed};
        let mut h: StorageHarness<u64> = StorageHarness::build(
            RpConfig::uniform(5, 1),
            3,
            17,
            UniformLatency::new(1_000, 40_000),
            DynOptions::default(),
        );
        let spec = KeyedWorkloadSpec {
            n_objects: 8,
            ..KeyedWorkloadSpec::default()
        };
        let stats = run_keyed_workload(&mut h, 3, &spec, 17);
        assert!(stats.totals.reads + stats.totals.writes > 5);
        assert!(stats.objects_touched() > 1, "workload never spread keys");
        check_linearizable_keyed(&h.history()).unwrap();
        // The per-object latency table matches the history totals.
        let ops: usize = stats.per_object.values().map(|(n, _)| n).sum();
        assert_eq!(ops, stats.totals.reads + stats.totals.writes);
        let (hot, hot_ops) = stats.hottest().unwrap();
        assert!(hot_ops >= 1);
        assert!(stats.per_object.contains_key(&hot));
        // Sanity: this mixed history is NOT a single register's history
        // (the whole-history checker is the wrong predicate here) unless
        // the run happened to stay on one key.
        if stats.objects_touched() > 1 {
            let _ = check_linearizable(&h.history());
        }
        // A second run on the SAME harness: stats must cover only the new
        // ops, written values must stay globally distinct (the combined
        // per-key history still checks), and the harness history grows by
        // exactly the second window.
        let total_before = h.history().len();
        let stats2 = run_keyed_workload(&mut h, 3, &spec, 18);
        let window2: usize = stats2.per_object.values().map(|(n, _)| n).sum();
        assert_eq!(window2, stats2.totals.reads + stats2.totals.writes);
        assert_eq!(h.history().len(), total_before + window2);
        check_linearizable_keyed(&h.history()).unwrap();
        let writes: Vec<u64> = h
            .history()
            .ops
            .iter()
            .filter_map(|o| match &o.kind {
                crate::history::OpKind::Write(v) => Some(*v),
                crate::history::OpKind::Read(_) => None,
            })
            .collect();
        let mut dedup = writes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), writes.len(), "duplicate write values");
    }
}
