//! RP-Liveness (Definition 5) under failure injection: every invocation by
//! a correct process completes with up to `f` crashes, arbitrary crash
//! timing, and adversarial message delays.

use awr::core::{audit_transfers, RpConfig, RpHarness, TransferError};
use awr::sim::{five_region_wan, Time, UniformLatency, MILLI};
use awr::types::{Ratio, ServerId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn s(i: u32) -> ServerId {
    ServerId(i)
}

#[test]
fn transfers_complete_with_f_crashes_at_random_times() {
    for seed in 0..12 {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = RpConfig::uniform(7, 2);
        let mut h = RpHarness::build(cfg.clone(), 1, seed, UniformLatency::new(1_000, 70_000));
        // Crash two random distinct servers at random virtual times, but
        // never the two we will use as transfer endpoints.
        let mut victims: Vec<u32> = (2..7).collect();
        for _ in 0..2 {
            let k = rng.random_range(0..victims.len());
            let v = victims.swap_remove(k);
            let at = Time(rng.random_range(0..200) * MILLI);
            h.world.schedule_crash(h.server_actor(s(v)), at);
        }
        // The surviving donor/receiver pair keeps completing transfers.
        for round in 0..5 {
            let out = h
                .transfer_and_wait(s(0), s(1), Ratio::dec("0.02"))
                .unwrap_or_else(|e| panic!("seed {seed} round {round}: {e}"));
            assert!(out.is_effective());
        }
        let report = audit_transfers(&cfg, &h.all_completed());
        assert!(report.is_clean(), "seed {seed}");
    }
}

#[test]
fn read_changes_completes_with_f_crashes() {
    for seed in 0..12 {
        let cfg = RpConfig::uniform(7, 2);
        let mut h = RpHarness::build(cfg, 1, 50 + seed, UniformLatency::new(1_000, 70_000));
        h.crash_server(s(5));
        h.crash_server(s(6));
        h.transfer_and_wait(s(0), s(1), Ratio::dec("0.1")).unwrap();
        let rc = h.read_changes(0, s(1)).expect("read_changes liveness");
        assert_eq!(rc.weight(), Ratio::dec("1.1"), "seed {seed}");
    }
}

#[test]
fn f_plus_one_crashes_do_break_liveness() {
    // Sanity-check the boundary: with f + 1 crashes the protocol *should*
    // stall (the model's assumption is at most f crash faults).
    let cfg = RpConfig::uniform(7, 2);
    let mut h = RpHarness::build(cfg, 1, 99, UniformLatency::new(1_000, 70_000));
    h.crash_server(s(4));
    h.crash_server(s(5));
    h.crash_server(s(6));
    // n − f − 1 = 4 acks needed, only 3 other live servers remain.
    let result = h.transfer_and_wait(s(0), s(1), Ratio::dec("0.1"));
    assert!(
        result.is_err(),
        "transfer should not complete with f+1 crashes"
    );
}

#[test]
fn concurrent_transfers_all_complete_under_heavy_reordering() {
    for seed in 0..10 {
        let cfg = RpConfig::uniform(7, 2);
        // Huge delay spread = heavy reordering.
        let mut h = RpHarness::build(cfg.clone(), 1, seed, UniformLatency::new(1, 500 * MILLI));
        for from in 0..7u32 {
            let to = (from + 1) % 7;
            h.transfer_async(s(from), s(to), Ratio::dec("0.1")).unwrap();
        }
        h.settle();
        let completed = h.all_completed();
        assert_eq!(completed.len(), 7, "seed {seed}: all invocations complete");
        let report = audit_transfers(&cfg, &completed);
        assert!(report.is_clean(), "seed {seed}: {:?}", report.violations);
        // A full ring of 0.1-transfers returns everyone to weight 1.
        for i in 0..7 {
            assert_eq!(h.weights_seen_by(s(i)).weight(s(i)), Ratio::ONE);
        }
    }
}

#[test]
fn protocol_outcome_identical_fifo_vs_reordering() {
    // Safety is schedule-independent: the same transfer workload lands on
    // the same final weights whether links are FIFO or wildly reordering.
    use awr::sim::{FifoLinks, UniformLatency};
    let run = |fifo: bool, seed: u64| {
        let cfg = RpConfig::uniform(7, 2);
        let mut h = if fifo {
            RpHarness::build(
                cfg.clone(),
                1,
                seed,
                FifoLinks::new(UniformLatency::new(1, 200 * MILLI)),
            )
        } else {
            RpHarness::build(cfg.clone(), 1, seed, UniformLatency::new(1, 200 * MILLI))
        };
        for i in 0..7u32 {
            h.transfer_async(s(i), s((i + 2) % 7), Ratio::dec("0.1"))
                .unwrap();
        }
        h.settle();
        let report = audit_transfers(&cfg, &h.all_completed());
        assert!(report.is_clean());
        (h.weights_seen_by(s(0)), h.all_completed().len())
    };
    for seed in 0..5 {
        let (w_fifo, n_fifo) = run(true, seed);
        let (w_wild, n_wild) = run(false, seed);
        assert_eq!(n_fifo, n_wild, "seed {seed}");
        // All transfers in this ring are effective under both schedules, so
        // the final weights agree (everyone back to 1).
        assert_eq!(w_fifo, w_wild, "seed {seed}");
    }
}

#[test]
fn transfers_and_read_changes_complete_on_the_wan_with_f_crashed() {
    // Ten transfers round-robin over s1..s(n−1), each followed by a
    // read_changes, on the five-region WAN with the last f servers crashed
    // before the first — twice the scale of the tests above at n = 13.
    // Every transfer by a correct donor completes, effective, and so does
    // every read_changes. The one round whose donor is crashed is refused
    // at once: a crashed process takes no step, so it broadcasts no ⟨T⟩,
    // and the `T`/`T_Ack` counts below are the nine live transfers' alone.
    let mut pinned = Vec::new();
    for (n, f, dead_round) in [(7, 2, 5), (13, 4, 9)] {
        let mut h = RpHarness::build(RpConfig::uniform(n, f), 1, 42, five_region_wan(n + 1, 0.1));
        for i in 0..f {
            h.crash_server(s((n - 1 - i) as u32));
        }
        let (mut transfer_ms, mut read_ms) = (Vec::new(), Vec::new());
        for round in 0..10 {
            let (from, to) = (s(round % (n as u32 - 1)), s((round + 1) % (n as u32 - 1)));
            let t0 = h.world.now();
            let out = h.transfer_and_wait(from, to, Ratio::new(1, 50));
            if round == dead_round {
                assert_eq!(out, Err(TransferError::Crashed), "n = {n}: {from}");
            } else {
                assert!(out.unwrap().is_effective(), "n = {n}, round {round}");
                transfer_ms.push((h.world.now() - t0) as f64 / 1e6);
            }
            let t0 = h.world.now();
            h.read_changes(0, to)
                .unwrap_or_else(|e| panic!("n = {n}, round {round}: {e}"));
            read_ms.push((h.world.now() - t0) as f64 / 1e6);
        }
        h.settle();
        let m = h.world.metrics();
        // A read_changes asks all n servers in each of its two phases and
        // hears from the n − f up.
        for (kind, per_op) in [("RC", n), ("RC_Ack", n - f), ("WC", n), ("WC_Ack", n - f)] {
            assert_eq!(m.sent_of_kind(kind), 10 * per_op as u64, "n = {n}, {kind}");
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
        pinned.push(format!(
            "n={n} {} {} {:.2} {:.2} {:.2} {:.2}",
            m.sent_of_kind("T"),
            m.sent_of_kind("T_Ack"),
            mean(&transfer_ms),
            max(&transfer_ms),
            mean(&read_ms),
            max(&read_ms)
        ));
    }
    // `T` and `T_Ack` sent, then mean and max latency of the completed
    // transfers and of the read_changes (virtual ms).
    assert_eq!(
        pinned,
        [
            "n=7 234 36 263.40 325.99 503.64 526.55",
            "n=13 900 72 263.35 327.15 414.63 428.89",
        ]
    );
}
