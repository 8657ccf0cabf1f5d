//! Object-count scaling benchmark: per-operation wire bytes and latency
//! must be *flat* in the number of objects the shard hosts.
//!
//! The keyed refactor's claim is that the weighted configuration is shared
//! infrastructure: however many registers a server stores, a read or write
//! touches one of them and references `C` by an O(1) summary, so growing
//! the key space 15 → 10k must not grow per-op cost under
//! [`awr_storage::WireMode::Negotiate`]. The run prepopulates `objects` keys through
//! the full protocol, then measures a Zipf-skewed read/write mix while
//! weight reassignments race the operations across the whole key space
//! (each completed transfer re-weights every object and forces the
//! client's stale-`C` restart path).
//!
//! The refresh leg — the gaining server's per-reassignment price of
//! catching the whole object space up — is reported, not gated. It is
//! linear in the key space at every size, because a write lands on its
//! quorum only: here {s1, s2, s3} hold every key and s4, s5 almost none.
//! Above 64 stored registers a `RefreshR` presents an O(1) digest of the
//! tag map instead of one tag per key, but when s1 gains, s4 and s5 do
//! not match it, and each asks for the per-key round, which carries s1's
//! whole tag map. When s4 gains, it holds fewer than 64 registers, so it
//! presents its few tags, and each of s1..s3 ships it every register —
//! the catch-up that Lemma 4 requires of a gainer.
//!
//! A second section compares [`awr_storage::ReadMode::FastPath`] against
//! the paper-literal `TwoPhase` baseline on a fixed key space, sweeping
//! Zipf skew: hit rate, ABD bytes/op, read p50/p99, and hot-key bytes per
//! mode. Gated: the fast path must fire (nonzero hit rate everywhere,
//! ≥ 30% at skew ≥ 1.0 on the full run) and must beat the baseline on
//! bytes and read-tail latency.
//!
//! The `--smoke` gate (CI) runs the two smallest points and asserts
//! flatness; the full run also covers 1k and 10k objects and writes
//! BENCH_objects.json.
//!
//! Run with: `cargo run --release --bin bench_objects [-- --smoke] [out.json]`

// stdout is this target's interface; exempt from the workspace print lint.
#![allow(clippy::print_stdout)]

use awr_core::RpConfig;
use awr_sim::UniformLatency;
use awr_storage::workload::{KeyDistribution, KeySampler};
use awr_storage::{
    check_linearizable_keyed, DynClient, DynOptions, OpKind, ReadMode, StorageHarness,
};
use awr_types::{ObjectId, Ratio, ServerId};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 5;
const F: usize = 1;
const SEED: u64 = 0x0B7EC7;

const ABD_KINDS: [&str; 4] = ["R", "R_A", "W", "W_A"];
const REFRESH_KINDS: [&str; 2] = ["RefR", "RefA"];

struct Row {
    objects: usize,
    measured_ops: usize,
    /// Mean ABD-phase wire bytes per measured op.
    abd_bytes_per_op: f64,
    /// Mean op latency over the measured window, virtual ms.
    mean_latency_ms: f64,
    /// Refresh-leg bytes per reassignment: per-key rounds from the
    /// servers outside the write quorum, and the registers shipped to a
    /// gainer that is one of them (see the module docs).
    refresh_bytes_per_transfer: f64,
    /// Stale-`C` restarts over the measured window.
    restarts: u64,
    /// Bytes attributed to the hottest measured key (per-object metrics).
    hot_key_bytes: u64,
}

fn kinds_bytes(m: &awr_sim::Metrics, kinds: &[&str]) -> u64 {
    kinds.iter().map(|k| m.bytes_of_kind(k)).sum()
}

/// One (skew, read-mode) cell of the fast-path comparison.
struct FpRow {
    skew: f64,
    mode: ReadMode,
    /// read_fastpath_hit / (hit + miss); 0 under `TwoPhase` by definition.
    hit_rate: f64,
    abd_bytes_per_op: f64,
    /// Read-op latency percentiles: writes are two-phase under either
    /// mode, so the whole-mix tail is identical modulo latency-draw noise
    /// — the reads are where the saved round trip shows.
    read_p50_ms: f64,
    read_p99_ms: f64,
    hot_key_bytes: u64,
}

/// The fast-path measurement: the same seed-pinned Zipf window as [`run`],
/// but parameterized by skew and read mode so `FastPath` and `TwoPhase`
/// replay the identical invocation schedule (synchronous ops — the stream
/// cannot diverge) and the deltas are the fast path's doing alone.
fn run_fastpath(skew: f64, mode: ReadMode, objects: usize, ops: usize) -> FpRow {
    let cfg = RpConfig::uniform(N, F);
    let mut h: StorageHarness<u64> = StorageHarness::build(
        cfg,
        1,
        SEED,
        UniformLatency::new(1_000, 20_000),
        DynOptions {
            read: mode,
            ..DynOptions::default()
        },
    );
    for o in 0..objects as u64 {
        h.write_obj(0, ObjectId(o), o).unwrap();
    }

    let sampler = KeySampler::new(objects, KeyDistribution::Zipfian { exponent: skew });
    let mut rng = StdRng::seed_from_u64(SEED ^ objects as u64 ^ skew.to_bits());
    let before = h.world.metrics().clone();
    let client = h.client_actor(0);
    let completed_before = h
        .world
        .actor::<DynClient<u64>>(client)
        .expect("client")
        .driver
        .completed
        .len();

    let mut next_val = 2_000_000u64;
    for i in 0..ops {
        if i == ops / 3 {
            h.transfer_queued(ServerId(3), ServerId(0), Ratio::dec("0.05"))
                .unwrap();
        }
        if i == 2 * ops / 3 {
            h.transfer_queued(ServerId(0), ServerId(3), Ratio::dec("0.05"))
                .unwrap();
        }
        let obj = sampler.sample(&mut rng);
        if i % 2 == 0 {
            h.write_obj(0, obj, next_val).unwrap();
            next_val += 1;
        } else {
            h.read_obj(0, obj).unwrap();
        }
    }
    h.settle();
    check_linearizable_keyed(&h.history()).expect("keyed history must stay linearizable");

    let after = h.world.metrics().clone();
    let completed = &h
        .world
        .actor::<DynClient<u64>>(client)
        .expect("client")
        .driver
        .completed;
    let mut lat_ms: Vec<f64> = completed[completed_before..]
        .iter()
        .filter(|o| matches!(o.kind, OpKind::Read(_)))
        .map(|o| (o.response - o.invoke) as f64 / 1e6)
        .collect();
    assert_eq!(lat_ms.len(), ops / 2, "half the measured ops are reads");
    lat_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| lat_ms[((lat_ms.len() - 1) as f64 * p) as usize];

    let hits = after.counter("read_fastpath_hit") - before.counter("read_fastpath_hit");
    let misses = after.counter("read_fastpath_miss") - before.counter("read_fastpath_miss");
    let abd_delta = kinds_bytes(&after, &ABD_KINDS) - kinds_bytes(&before, &ABD_KINDS);
    let hot_key_bytes = (0..objects as u64)
        .map(|o| after.bytes_of_object(o) - before.bytes_of_object(o))
        .max()
        .unwrap_or(0);
    FpRow {
        skew,
        mode,
        hit_rate: if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        },
        abd_bytes_per_op: abd_delta as f64 / ops as f64,
        read_p50_ms: pct(0.50),
        read_p99_ms: pct(0.99),
        hot_key_bytes,
    }
}

fn run(objects: usize, ops: usize) -> Row {
    let cfg = RpConfig::uniform(N, F);
    let mut h: StorageHarness<u64> = StorageHarness::build(
        cfg,
        1,
        SEED,
        UniformLatency::new(1_000, 20_000),
        DynOptions::default(),
    );
    // Prepopulate every key through the full protocol: the servers end up
    // holding `objects` registers each.
    for o in 0..objects as u64 {
        h.write_obj(0, ObjectId(o), o).unwrap();
    }

    let sampler = KeySampler::new(objects, KeyDistribution::Zipfian { exponent: 1.0 });
    let mut rng = StdRng::seed_from_u64(SEED ^ objects as u64);
    let before = h.world.metrics().clone();
    let client = h.client_actor(0);
    let completed_before = h
        .world
        .actor::<DynClient<u64>>(client)
        .expect("client")
        .driver
        .completed
        .len();
    let restarts_before = h.total_restarts();

    // Measured window: Zipf-skewed ops racing two reassignment bursts that
    // each re-weight the whole shard (and refresh all `objects` registers
    // on the gaining side).
    let mut next_val = 1_000_000u64;
    let mut transfers = 0usize;
    for i in 0..ops {
        if i == ops / 3 {
            h.transfer_queued(ServerId(3), ServerId(0), Ratio::dec("0.05"))
                .unwrap();
            transfers += 1;
        }
        if i == 2 * ops / 3 {
            h.transfer_queued(ServerId(0), ServerId(3), Ratio::dec("0.05"))
                .unwrap();
            transfers += 1;
        }
        let obj = sampler.sample(&mut rng);
        if i % 2 == 0 {
            h.write_obj(0, obj, next_val).unwrap();
            next_val += 1;
        } else {
            h.read_obj(0, obj).unwrap();
        }
    }
    h.settle();
    check_linearizable_keyed(&h.history()).expect("keyed history must stay linearizable");

    let after = h.world.metrics().clone();
    let completed = &h
        .world
        .actor::<DynClient<u64>>(client)
        .expect("client")
        .driver
        .completed;
    let lat_ms: Vec<f64> = completed[completed_before..]
        .iter()
        .map(|o| (o.response - o.invoke) as f64 / 1e6)
        .collect();
    assert_eq!(lat_ms.len(), ops);

    let abd_delta = kinds_bytes(&after, &ABD_KINDS) - kinds_bytes(&before, &ABD_KINDS);
    let refresh_delta = kinds_bytes(&after, &REFRESH_KINDS) - kinds_bytes(&before, &REFRESH_KINDS);
    // Windowed like the other deltas: prepopulation traffic (one write per
    // key, near-uniform) must not dilute the measured Zipf skew.
    let hot_key_bytes = (0..objects as u64)
        .map(|o| after.bytes_of_object(o) - before.bytes_of_object(o))
        .max()
        .unwrap_or(0);
    Row {
        objects,
        measured_ops: ops,
        abd_bytes_per_op: abd_delta as f64 / ops as f64,
        mean_latency_ms: lat_ms.iter().sum::<f64>() / ops as f64,
        refresh_bytes_per_transfer: refresh_delta as f64 / transfers as f64,
        restarts: h.total_restarts() - restarts_before,
        hot_key_bytes,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_objects.json".to_string());
    let (counts, ops): (&[usize], usize) = if smoke {
        (&[15, 255], 60)
    } else {
        (&[15, 105, 1005, 10005], 300)
    };

    let rows: Vec<Row> = counts.iter().map(|&o| run(o, ops)).collect();

    // Fast-path comparison: fixed key space, skew swept, both read modes
    // on the identical synchronous schedule.
    let fp_objects = if smoke { 45 } else { 105 };
    let skews = [0.0, 1.0, 1.4];
    let fp_rows: Vec<FpRow> = skews
        .iter()
        .flat_map(|&s| {
            [ReadMode::FastPath, ReadMode::TwoPhase]
                .into_iter()
                .map(move |m| (s, m))
        })
        .map(|(s, m)| run_fastpath(s, m, fp_objects, ops))
        .collect();

    println!(
        "{:>8} {:>8} {:>16} {:>14} {:>20} {:>9}",
        "objects", "ops", "ABD bytes/op", "mean op (ms)", "refresh B/transfer", "restarts"
    );
    for r in &rows {
        println!(
            "{:>8} {:>8} {:>16.1} {:>14.3} {:>20.0} {:>9}",
            r.objects,
            r.measured_ops,
            r.abd_bytes_per_op,
            r.mean_latency_ms,
            r.refresh_bytes_per_transfer,
            r.restarts
        );
    }

    let mode_name = |m: ReadMode| match m {
        ReadMode::FastPath => "fastpath",
        ReadMode::TwoPhase => "twophase",
    };
    println!(
        "\n{:>6} {:>9} {:>9} {:>16} {:>10} {:>10} {:>14}",
        "skew", "mode", "hit rate", "ABD bytes/op", "p50 (ms)", "p99 (ms)", "hot-key bytes"
    );
    for r in &fp_rows {
        println!(
            "{:>6.1} {:>9} {:>9.2} {:>16.1} {:>10.3} {:>10.3} {:>14}",
            r.skew,
            mode_name(r.mode),
            r.hit_rate,
            r.abd_bytes_per_op,
            r.read_p50_ms,
            r.read_p99_ms,
            r.hot_key_bytes
        );
    }

    let mut json = String::from(
        "{\n  \"bench\": \"objects\",\n  \"unit\": \"abd_bytes_per_op\",\n  \"wire\": \
         \"negotiate\",\n  \"workload\": {\"dist\": \"zipf(1.0)\", \"transfers_racing\": 2},\n  \
         \"results\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"objects\": {}, \"measured_ops\": {}, \"abd_bytes_per_op\": {:.2}, \
             \"mean_op_latency_ms\": {:.4}, \"refresh_bytes_per_transfer\": {:.0}, \
             \"restarts\": {}, \"hot_key_bytes\": {}}}{}\n",
            r.objects,
            r.measured_ops,
            r.abd_bytes_per_op,
            r.mean_latency_ms,
            r.refresh_bytes_per_transfer,
            r.restarts,
            r.hot_key_bytes,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"fastpath\": [\n");
    for (i, r) in fp_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"skew\": {:.1}, \"mode\": \"{}\", \"objects\": {}, \"measured_ops\": {}, \
             \"hit_rate\": {:.3}, \"abd_bytes_per_op\": {:.2}, \"read_p50_ms\": {:.4}, \
             \"read_p99_ms\": {:.4}, \"hot_key_bytes\": {}}}{}\n",
            r.skew,
            mode_name(r.mode),
            fp_objects,
            ops,
            r.hit_rate,
            r.abd_bytes_per_op,
            r.read_p50_ms,
            r.read_p99_ms,
            r.hot_key_bytes,
            if i + 1 < fp_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("\nwrote {out_path}");

    // The gate: per-op ABD bytes and latency must be flat in object count.
    let bytes: Vec<f64> = rows.iter().map(|r| r.abd_bytes_per_op).collect();
    let lats: Vec<f64> = rows.iter().map(|r| r.mean_latency_ms).collect();
    let spread = |v: &[f64]| -> f64 {
        let max = v.iter().cloned().fold(f64::MIN, f64::max);
        let min = v.iter().cloned().fold(f64::MAX, f64::min);
        max / min
    };
    let mut ok = true;
    let byte_spread = spread(&bytes);
    if byte_spread > 1.10 {
        eprintln!("FAIL: per-op ABD bytes not flat in object count ({byte_spread:.3}x spread)");
        ok = false;
    }
    let lat_spread = spread(&lats);
    if lat_spread > 1.30 {
        eprintln!("FAIL: per-op latency not flat in object count ({lat_spread:.3}x spread)");
        ok = false;
    }
    println!(
        "spread over {}..{} objects: bytes {byte_spread:.3}x, latency {lat_spread:.3}x",
        counts.first().unwrap(),
        counts.last().unwrap()
    );

    // Fast-path gates: the one-phase read must actually fire under skew and
    // must pay for itself against the paper-literal baseline on the same
    // schedule. Smoke keeps the cheap liveness gate; the full run also pins
    // the acceptance numbers (≥30% hits at Zipf ≥ 1.0, fewer ABD bytes).
    for pair in fp_rows.chunks(2) {
        let (fast, two) = (&pair[0], &pair[1]);
        assert_eq!(
            (fast.mode, two.mode),
            (ReadMode::FastPath, ReadMode::TwoPhase)
        );
        if fast.hit_rate == 0.0 {
            eprintln!("FAIL: zero fast-path hit rate at skew {:.1}", fast.skew);
            ok = false;
        }
        if fast.skew >= 1.0 && !smoke {
            if fast.hit_rate < 0.30 {
                eprintln!(
                    "FAIL: fast-path hit rate {:.2} < 0.30 at skew {:.1}",
                    fast.hit_rate, fast.skew
                );
                ok = false;
            }
            if fast.abd_bytes_per_op >= two.abd_bytes_per_op {
                eprintln!(
                    "FAIL: fast path saved no ABD bytes at skew {:.1} ({:.1} vs {:.1})",
                    fast.skew, fast.abd_bytes_per_op, two.abd_bytes_per_op
                );
                ok = false;
            }
            if fast.read_p99_ms > two.read_p99_ms {
                eprintln!(
                    "FAIL: fast-path p99 regressed at skew {:.1} ({:.3} vs {:.3} ms)",
                    fast.skew, fast.read_p99_ms, two.read_p99_ms
                );
                ok = false;
            }
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
