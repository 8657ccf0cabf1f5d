//! Per-operation cost is flat in the number of objects a shard hosts, and
//! the one-phase read pays for itself across key skew.
//!
//! The weighted configuration is shared infrastructure: however many
//! registers a server stores, a read or write touches one of them and
//! references `C` by an O(1) summary, so growing the key space 15 → 10 005
//! must not grow per-op cost under [`awr::storage::WireMode::Negotiate`].
//! Each run prepopulates its keys through the full protocol, then measures
//! a Zipf-skewed read/write mix while two weight reassignments race the
//! operations across the whole key space (each completed transfer
//! re-weights every object and forces the client's stale-`C` restart).
//!
//! The refresh leg — the gaining server's price of catching the whole
//! object space up — is pinned, not bounded. It is linear in the key space
//! at every size, because a write lands on its quorum only: here
//! {s1, s2, s3} hold every key and s4, s5 almost none. Above 64 stored
//! registers a `RefreshR` presents an O(1) digest of the tag map instead of
//! one tag per key, but when s1 gains, s4 and s5 do not match it, and each
//! asks for the per-key round, which carries s1's whole tag map. When s4
//! gains, it holds fewer than 64 registers, so it presents its few tags,
//! and each of s1..s3 ships it every register — the catch-up that Lemma 4
//! requires of a gainer.

use awr::core::RpConfig;
use awr::sim::{Metrics, UniformLatency};
use awr::storage::workload::{KeyDistribution, KeySampler};
use awr::storage::{
    check_linearizable_keyed, DynClient, DynCompletedOp, DynOptions, OpKind, ReadMode,
    StorageHarness,
};
use awr::types::{ObjectId, Ratio, ServerId};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 0x0B7EC7;
const OPS: usize = 300;
const ABD_KINDS: [&str; 5] = ["R", "RV", "R_A", "W", "W_A"];
const REFRESH_KINDS: [&str; 2] = ["RefR", "RefA"];

fn kinds_bytes(m: &Metrics, kinds: &[&str]) -> u64 {
    kinds.iter().map(|k| m.bytes_of_kind(k)).sum()
}

fn completed(h: &StorageHarness<u64>) -> &[DynCompletedOp<u64>] {
    let client = h.world.actor::<DynClient<u64>>(h.client_actor(0));
    &client.expect("client").driver.completed
}

/// What one measured window of [`OPS`] operations cost.
struct Window {
    abd_bytes: u64,
    refresh_bytes: u64,
    restarts: u64,
    /// Bytes attributed to the hottest key within the window, so that the
    /// near-uniform prepopulation does not dilute the skew.
    hot_key_bytes: u64,
    /// Latency of every measured op, and of its reads alone, virtual ms.
    latencies_ms: Vec<f64>,
    read_latencies_ms: Vec<f64>,
    fastpath_hits: u64,
    fastpath_misses: u64,
}

/// Five servers, one client: `objects` keys written once each, then
/// [`OPS`] alternating writes and reads over a Zipf(`skew`) key stream with
/// two 0.05 transfers (s4 → s1 a third of the way in, s1 → s4 at two
/// thirds). Operations are synchronous, so both read modes replay the
/// identical invocation schedule.
fn window(objects: usize, skew: f64, read: ReadMode, rng_seed: u64, first_value: u64) -> Window {
    let mut h: StorageHarness<u64> = StorageHarness::build(
        RpConfig::uniform(5, 1),
        1,
        SEED,
        UniformLatency::new(1_000, 20_000),
        DynOptions {
            read,
            ..DynOptions::default()
        },
    );
    for o in 0..objects as u64 {
        h.write_obj(0, ObjectId(o), o).unwrap();
    }

    let sampler = KeySampler::new(objects, KeyDistribution::Zipfian { exponent: skew });
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let before = h.world.metrics().clone();
    let completed_before = completed(&h).len();
    let restarts_before = h.total_restarts();

    let mut value = first_value;
    for i in 0..OPS {
        if i == OPS / 3 {
            h.transfer_queued(ServerId(3), ServerId(0), Ratio::dec("0.05"))
                .unwrap();
        }
        if i == 2 * OPS / 3 {
            h.transfer_queued(ServerId(0), ServerId(3), Ratio::dec("0.05"))
                .unwrap();
        }
        let obj = sampler.sample(&mut rng);
        if i % 2 == 0 {
            h.write_obj(0, obj, value).unwrap();
            value += 1;
        } else {
            h.read_obj(0, obj).unwrap();
        }
    }
    h.settle();
    check_linearizable_keyed(&h.history()).expect("keyed history must stay linearizable");

    let after = h.world.metrics();
    let ops = &completed(&h)[completed_before..];
    assert_eq!(ops.len(), OPS);
    let ms = |o: &DynCompletedOp<u64>| (o.response - o.invoke) as f64 / 1e6;
    let delta = |kinds: &[&str]| kinds_bytes(after, kinds) - kinds_bytes(&before, kinds);
    let counter = |name: &str| after.counter(name) - before.counter(name);
    Window {
        abd_bytes: delta(&ABD_KINDS),
        refresh_bytes: delta(&REFRESH_KINDS),
        restarts: h.total_restarts() - restarts_before,
        hot_key_bytes: (0..objects as u64)
            .map(|o| after.bytes_of_object(o) - before.bytes_of_object(o))
            .max()
            .unwrap_or(0),
        latencies_ms: ops.iter().map(ms).collect(),
        read_latencies_ms: ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Read(_)))
            .map(ms)
            .collect(),
        fastpath_hits: counter("read_fastpath_hit"),
        fastpath_misses: counter("read_fastpath_miss"),
    }
}

fn spread(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::MIN, f64::max) / v.iter().copied().fold(f64::MAX, f64::min)
}

#[test]
fn per_op_cost_is_flat_in_object_count() {
    let mut pinned = Vec::new();
    let (mut bytes, mut latencies) = (Vec::new(), Vec::new());
    for objects in [15, 105, 1005, 10005] {
        let w = window(
            objects,
            1.0,
            ReadMode::FastPath,
            SEED ^ objects as u64,
            1_000_000,
        );
        let abd_bytes_per_op = w.abd_bytes as f64 / OPS as f64;
        let mean_latency_ms = w.latencies_ms.iter().sum::<f64>() / OPS as f64;
        // Two transfers raced the window.
        let refresh_bytes_per_transfer = w.refresh_bytes as f64 / 2.0;
        pinned.push(format!(
            "{objects} {abd_bytes_per_op:.2} {mean_latency_ms:.4} \
             {refresh_bytes_per_transfer:.0} {} {}",
            w.restarts, w.hot_key_bytes
        ));
        bytes.push(abd_bytes_per_op);
        latencies.push(mean_latency_ms);
    }
    // Objects, ABD bytes/op, mean op latency (virtual ms), refresh bytes
    // per transfer, stale-`C` restarts, hottest key's bytes.
    assert_eq!(
        pinned,
        [
            "15 76.67 0.0413 387 2 5919",
            "105 79.33 0.0425 1580 2 4512",
            "1005 82.66 0.0411 16810 2 3300",
            "10005 83.62 0.0416 169830 2 2862",
        ]
    );
    assert!(
        spread(&bytes) <= 1.10,
        "bytes/op spread {:.3}x",
        spread(&bytes)
    );
    assert!(
        spread(&latencies) <= 1.30,
        "latency spread {:.3}x",
        spread(&latencies)
    );
}

#[test]
fn fast_path_reads_beat_two_phase_across_key_skew() {
    const OBJECTS: usize = 105;
    let mut pinned = Vec::new();
    for skew in [0.0, 1.0, 1.4] {
        let rng_seed = SEED ^ OBJECTS as u64 ^ f64::to_bits(skew);
        let [fast, two] = [ReadMode::FastPath, ReadMode::TwoPhase].map(|mode| {
            let w = window(OBJECTS, skew, mode, rng_seed, 2_000_000);
            let mut reads = w.read_latencies_ms;
            assert_eq!(reads.len(), OPS / 2, "half the measured ops are reads");
            reads.sort_by(f64::total_cmp);
            let pct = |p: f64| reads[((reads.len() - 1) as f64 * p) as usize];
            let looked = w.fastpath_hits + w.fastpath_misses;
            let hit_rate = if looked > 0 {
                w.fastpath_hits as f64 / looked as f64
            } else {
                0.0
            };
            let abd_bytes_per_op = w.abd_bytes as f64 / OPS as f64;
            let (p50, p99) = (pct(0.50), pct(0.99));
            pinned.push(format!(
                "{skew:.1} {mode:?} {hit_rate:.3} {abd_bytes_per_op:.2} {p50:.4} {p99:.4} {}",
                w.hot_key_bytes
            ));
            (hit_rate, abd_bytes_per_op, p99)
        });
        let ((hit_rate, fast_bytes, fast_p99), (_, two_bytes, two_p99)) = (fast, two);
        assert!(hit_rate > 0.0, "skew {skew}: the fast path never fired");
        if skew >= 1.0 {
            assert!(hit_rate >= 0.30, "skew {skew}: hit rate {hit_rate:.2}");
            assert!(
                fast_bytes < two_bytes,
                "skew {skew}: {fast_bytes:.1} vs {two_bytes:.1} ABD bytes/op"
            );
            assert!(
                fast_p99 <= two_p99,
                "skew {skew}: read p99 {fast_p99:.3} vs {two_p99:.3} ms"
            );
        }
    }
    // Skew, read mode, hit rate, ABD bytes/op, read p50 and p99 (virtual
    // ms), hottest key's bytes.
    assert_eq!(
        pinned,
        [
            "0.0 FastPath 1.000 79.15 0.0278 0.0377 740",
            "0.0 TwoPhase 0.000 107.09 0.0553 0.0711 958",
            "1.0 FastPath 1.000 79.33 0.0278 0.0377 5249",
            "1.0 TwoPhase 0.000 107.81 0.0553 0.0711 6923",
            "1.4 FastPath 1.000 79.46 0.0278 0.0377 8984",
            "1.4 TwoPhase 0.000 108.34 0.0553 0.0711 12020",
        ]
    );
}
