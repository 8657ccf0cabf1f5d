//! Placement benchmark: mean operation latency under `geo_network` +
//! cross traffic, adaptive placement policies versus the `Static`
//! baseline.
//!
//! Two geo-replicated scenarios (the paper's motivating WHEAT/AWARE
//! deployment shape), each with background flows contending for the ack
//! links:
//!
//! * **colocated** — five servers, one per region, client beside the
//!   Virginia server; bursty/reassignment-wave cross traffic congests the
//!   Ireland, São Paulo, and Tokyo corridors. A static uniform map needs
//!   three of five servers per phase (two remote acks through the
//!   contention); an adaptive policy concentrates weight on Virginia so a
//!   single remote ack — from whichever corridor is clean — completes the
//!   phase. Here `latency-greedy` and `utilization-aware` converge on the
//!   same map and both beat `static`.
//! * **remote-client** — no server in the client's region; the two
//!   nearest (Ireland) servers sit behind links that heavy bursts keep
//!   ~90 % occupied. `latency-greedy` trusts pure RTT, piles weight onto
//!   Ireland, and *backfires* — its quorums wait out the backlog.
//!   `utilization-aware` sees the queueing in the per-link delay matrix,
//!   clamps Ireland to the floor, and forms clean São-Paulo+Tokyo quorums
//!   instead. Only the utilization signal separates the two policies.
//!
//! A third scenario exercises *re-deciding mid-run*: the congestion
//! **regime shifts** partway through (the saturated corridors swap), and a
//! driver that decided once — correctly, at the time — is stranded on a
//! stale map while a periodically-ticking driver with windowed
//! observations ([`awr_sim::Metrics::since`]) re-decides and recovers.
//! The JSON records the weights before and after the shift for each arm.
//!
//! The JSON output records all scenarios; the `--smoke` gate (CI)
//! asserts that in each static-vs-adaptive scenario the best adaptive
//! policy beats `static` on mean op latency and actually reassigned
//! weight, and that in the regime-shift scenario the re-deciding arm
//! beats decide-once on post-shift latency and actually moved weight at
//! the second decision.
//!
//! Run with: `cargo run --release --bin bench_placement [-- --smoke] [out.json]`

// stdout is this target's interface; exempt from the workspace print lint.
#![allow(clippy::print_stdout)]

use awr_core::RpConfig;
use awr_quorum::placement::{LatencyGreedy, PlacementPolicy, Static, UtilizationAware};
use awr_sim::{
    geo_network, ActorId, BurstyOnOff, ConstantBitrate, CrossTraffic, Flow, ReassignmentBurst,
    RegimeShift, Region, Time, MILLI, SECOND,
};
use awr_storage::{DynClient, DynOptions, PlacementDriver, StorageHarness};

const N: usize = 5;
const F: usize = 1;
const SEED: u64 = 0xA17A;
const JITTER: f64 = 0.02;
/// Virtual time at which the regime-shift scenario swaps its congested
/// corridors (generously after phase 1's measurement window; the harness
/// fast-forwards dead time up to it).
const SHIFT: Time = Time(60 * SECOND);

struct Scenario {
    name: &'static str,
    placement: Vec<Region>,
    flows: fn() -> Vec<Flow>,
}

struct Row {
    scenario: &'static str,
    /// Region of each *server* (the client's region is in the topology
    /// header).
    placement: Vec<&'static str>,
    policy: &'static str,
    mean_latency_ms: f64,
    max_latency_ms: f64,
    transfers_issued: usize,
    restarts: u64,
    weights_after: Vec<String>,
    cross_traffic_bytes: u64,
}

/// Colocated: servers in the five regions, client beside Virginia,
/// periodic congestion on the Ireland / São Paulo / Tokyo ack links.
fn colocated_flows() -> Vec<Flow> {
    let client = ActorId(N);
    const MB: u64 = 1_000_000;
    vec![
        // Ireland → client (250 MB/s link): 50 MB elephant bursts, 200 ms
        // of backlog each, every 400 ms.
        Flow::new(
            ActorId(1),
            client,
            BurstyOnOff::new(40 * MILLI, 360 * MILLI, 1_250 * MB),
        ),
        // São Paulo → client (150 MB/s link): a competing tenant's
        // reassignment wave, 20 MB at once every 450 ms.
        Flow::new(
            ActorId(2),
            client,
            ReassignmentBurst::new(450 * MILLI, 20 * MB, 100 * MILLI),
        ),
        // Tokyo → client (120 MB/s link): the same, heavier and slower.
        Flow::new(
            ActorId(3),
            client,
            ReassignmentBurst::new(600 * MILLI, 24 * MB, 250 * MILLI),
        ),
        // Background trickle on the São Paulo corridor (utilization
        // signal, negligible queueing on its own).
        Flow::new(ActorId(2), client, ConstantBitrate::new(30 * MB)),
    ]
}

/// Remote-client: both Ireland servers' ack links carry ~95 MB bursts
/// every 400 ms — ~380 ms of backlog per period on a 250 MB/s link, with
/// the two flows phase-shifted so the corridor is clean only ~5 % of the
/// time; a lighter wave grazes Sydney. A policy that keeps quorums
/// dependent on Ireland pays that backlog on almost every phase.
fn remote_client_flows() -> Vec<Flow> {
    let client = ActorId(N);
    const MB: u64 = 1_000_000;
    vec![
        Flow::new(
            ActorId(0),
            client,
            BurstyOnOff::new(45 * MILLI, 355 * MILLI, 2_111 * MB),
        ),
        Flow::new(
            ActorId(1),
            client,
            ReassignmentBurst::new(400 * MILLI, 95 * MB, 200 * MILLI),
        ),
        // A lighter competing wave on the Sydney ack link (100 MB/s):
        // static's count-three fallback quorum pays it, the clean
        // São Paulo + Tokyo pair does not.
        Flow::new(
            ActorId(4),
            client,
            ReassignmentBurst::new(500 * MILLI, 12 * MB, 50 * MILLI),
        ),
    ]
}

/// Regime shift, on the remote-client placement (client in Virginia, no
/// server there). Phase 1 (t < SHIFT): the two Ireland ack links carry the
/// heavy bursts — the right call is to weight São Paulo / Tokyo / Sydney.
/// Phase 2 (t ≥ SHIFT): Ireland clears and all three of those corridors
/// saturate instead — now only an Ireland-heavy map forms clean quorums.
fn regime_shift_flows() -> Vec<Flow> {
    let client = ActorId(N);
    const MB: u64 = 1_000_000;
    let silence = || ConstantBitrate::new(0);
    vec![
        // Phase 1: Ireland pair congested (as in remote-client), then clear.
        Flow::new(
            ActorId(0),
            client,
            RegimeShift::new(
                SHIFT,
                BurstyOnOff::new(45 * MILLI, 355 * MILLI, 2_111 * MB),
                silence(),
            ),
        ),
        Flow::new(
            ActorId(1),
            client,
            RegimeShift::new(
                SHIFT,
                ReassignmentBurst::new(400 * MILLI, 95 * MB, 200 * MILLI),
                silence(),
            ),
        ),
        // Phase 2: São Paulo (150 MB/s), Tokyo (120 MB/s), Sydney
        // (100 MB/s) ack links saturate ~92 % each, phase-staggered.
        Flow::new(
            ActorId(2),
            client,
            RegimeShift::new(
                SHIFT,
                silence(),
                ReassignmentBurst::new(400 * MILLI, 55 * MB, 100 * MILLI),
            ),
        ),
        Flow::new(
            ActorId(3),
            client,
            RegimeShift::new(
                SHIFT,
                silence(),
                ReassignmentBurst::new(400 * MILLI, 44 * MB, 200 * MILLI),
            ),
        ),
        Flow::new(
            ActorId(4),
            client,
            RegimeShift::new(
                SHIFT,
                silence(),
                ReassignmentBurst::new(400 * MILLI, 37 * MB, 300 * MILLI),
            ),
        ),
    ]
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "colocated",
            placement: {
                let mut p = Region::ALL.to_vec();
                p.push(Region::Virginia); // the client
                p
            },
            flows: colocated_flows,
        },
        Scenario {
            name: "remote-client",
            placement: vec![
                Region::Ireland,
                Region::Ireland,
                Region::SaoPaulo,
                Region::Tokyo,
                Region::Sydney,
                Region::Virginia, // the client
            ],
            flows: remote_client_flows,
        },
    ]
}

fn run(sc: &Scenario, policy: Box<dyn PlacementPolicy>, warm: usize, ops: usize) -> Row {
    let cfg = RpConfig::uniform(N, F);
    let net = CrossTraffic::new(geo_network(&sc.placement, JITTER), (sc.flows)());
    let stats = net.stats();
    let mut h: StorageHarness<u64> =
        StorageHarness::build(cfg, 1, SEED, net, DynOptions::default());
    let name = policy.name();
    let mut driver = PlacementDriver::new(policy, vec![h.client_actor(0)]);

    // Observe: warmup ops populate the per-link delay matrices.
    for v in 0..warm as u64 {
        if v % 2 == 0 {
            h.write(0, v).unwrap();
        } else {
            h.read(0).unwrap();
        }
    }
    // Decide + reassign, then let the transfers complete.
    let transfers_issued = driver.tick(&mut h);
    h.settle();
    // Two unmeasured sync ops: the client reconciles its change set (the
    // post-reassignment restart) outside the measurement window, so every
    // policy is measured from a converged client.
    h.write(0, 1_000_000).unwrap();
    h.read(0).unwrap();

    let measured_from = warm + 2;
    for v in 0..ops as u64 {
        if v % 2 == 0 {
            h.write(0, 2_000_000 + v).unwrap();
        } else {
            h.read(0).unwrap();
        }
    }

    let client = h.client_actor(0);
    let completed = &h
        .world
        .actor::<DynClient<u64>>(client)
        .expect("client")
        .driver
        .completed;
    assert_eq!(completed.len(), measured_from + ops);
    let lat_ms: Vec<f64> = completed
        .iter()
        .skip(measured_from)
        .map(|o| (o.response - o.invoke) as f64 / 1e6)
        .collect();
    let weights = driver.current_weights(&h);
    Row {
        scenario: sc.name,
        placement: sc.placement[..N].iter().map(Region::name).collect(),
        policy: name,
        mean_latency_ms: lat_ms.iter().sum::<f64>() / lat_ms.len() as f64,
        max_latency_ms: lat_ms.iter().cloned().fold(0.0, f64::max),
        transfers_issued,
        restarts: h.total_restarts(),
        weights_after: weights.iter().map(|(_, w)| w.to_string()).collect(),
        cross_traffic_bytes: stats.total_injected(),
    }
}

/// One arm of the regime-shift scenario.
struct RegimeRow {
    arm: &'static str,
    phase1_ms: f64,
    phase2_ms: f64,
    /// Transfers issued at the first / second decision point.
    transfers: (usize, usize),
    weights_after_first: Vec<String>,
    weights_final: Vec<String>,
}

/// Runs the regime-shift scenario. `decisions`: 0 = static (never decide),
/// 1 = decide once before the shift, 2 = also re-decide after it.
fn run_regime(decisions: usize, warm: usize, ops: usize) -> RegimeRow {
    let placement = vec![
        Region::Ireland,
        Region::Ireland,
        Region::SaoPaulo,
        Region::Tokyo,
        Region::Sydney,
        Region::Virginia, // the client
    ];
    let cfg = RpConfig::uniform(N, F);
    let net = CrossTraffic::new(geo_network(&placement, JITTER), regime_shift_flows());
    let mut h: StorageHarness<u64> =
        StorageHarness::build(cfg, 1, SEED, net, DynOptions::default());
    let mut driver = PlacementDriver::new(UtilizationAware::default(), vec![h.client_actor(0)]);
    // Windowed observations: each decision sees only its own regime.
    driver.windowed = true;

    let client = h.client_actor(0);
    let mean_of = |h: &StorageHarness<u64>, from: usize| -> f64 {
        let completed = &h
            .world
            .actor::<DynClient<u64>>(client)
            .expect("client")
            .driver
            .completed;
        let lat: Vec<f64> = completed
            .iter()
            .skip(from)
            .map(|o| (o.response - o.invoke) as f64 / 1e6)
            .collect();
        lat.iter().sum::<f64>() / lat.len() as f64
    };
    let completed_len = |h: &StorageHarness<u64>| {
        h.world
            .actor::<DynClient<u64>>(client)
            .expect("client")
            .driver
            .completed
            .len()
    };

    // Phase 1: observe, (maybe) decide, sync, measure.
    for v in 0..warm as u64 {
        if v % 2 == 0 {
            h.write(0, v).unwrap();
        } else {
            h.read(0).unwrap();
        }
    }
    let t1 = if decisions >= 1 {
        driver.tick(&mut h)
    } else {
        0
    };
    h.settle();
    h.write(0, 1_000_000).unwrap();
    h.read(0).unwrap();
    let m1 = completed_len(&h);
    for v in 0..ops as u64 {
        if v % 2 == 0 {
            h.write(0, 2_000_000 + v).unwrap();
        } else {
            h.read(0).unwrap();
        }
    }
    let phase1_ms = mean_of(&h, m1);
    let weights_after_first = driver
        .current_weights(&h)
        .iter()
        .map(|(_, w)| w.to_string())
        .collect();

    // Cross the shift (dead virtual time is free). The re-deciding arm
    // keeps ticking *through* it: the first post-shift tick closes the
    // stale window (its mixed evidence rarely moves much), and the next
    // tick decides on a clean window of purely new-regime observations.
    // The decide-once arm runs the identical op schedule without ticks.
    let now = h.world.now();
    assert!(now < SHIFT, "phase 1 overran the regime shift ({now})");
    h.world.run_for(SHIFT.nanos() - now.nanos());
    let mut t2 = 0;
    let half = warm.div_ceil(2);
    for v in 0..warm as u64 {
        if v as usize == half && decisions >= 2 {
            t2 += driver.tick(&mut h);
            h.settle();
        }
        if v % 2 == 0 {
            h.write(0, 3_000_000 + v).unwrap();
        } else {
            h.read(0).unwrap();
        }
    }
    if decisions >= 2 {
        t2 += driver.tick(&mut h);
    }
    h.settle();
    h.write(0, 4_000_000).unwrap();
    h.read(0).unwrap();
    let m2 = completed_len(&h);
    for v in 0..ops as u64 {
        if v % 2 == 0 {
            h.write(0, 5_000_000 + v).unwrap();
        } else {
            h.read(0).unwrap();
        }
    }
    RegimeRow {
        arm: match decisions {
            0 => "static",
            1 => "decide-once",
            _ => "re-decide",
        },
        phase1_ms,
        phase2_ms: mean_of(&h, m2),
        transfers: (t1, t2),
        weights_after_first,
        weights_final: driver
            .current_weights(&h)
            .iter()
            .map(|(_, w)| w.to_string())
            .collect(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_placement.json".to_string());
    let (warm, ops) = if smoke { (6, 12) } else { (10, 40) };

    let mut rows = Vec::new();
    for sc in scenarios() {
        rows.push(run(&sc, Box::new(Static), warm, ops));
        rows.push(run(&sc, Box::new(LatencyGreedy::default()), warm, ops));
        rows.push(run(&sc, Box::new(UtilizationAware::default()), warm, ops));
    }
    let regime: Vec<RegimeRow> = (0..3).map(|d| run_regime(d, warm, ops)).collect();

    println!(
        "{:<14} {:<18} {:>14} {:>13} {:>10} {:>9}  weights after",
        "scenario", "policy", "mean op (ms)", "max op (ms)", "transfers", "restarts"
    );
    for r in &rows {
        println!(
            "{:<14} {:<18} {:>14.2} {:>13.2} {:>10} {:>9}  [{}]",
            r.scenario,
            r.policy,
            r.mean_latency_ms,
            r.max_latency_ms,
            r.transfers_issued,
            r.restarts,
            r.weights_after.join(", ")
        );
    }

    println!("\nregime-shift scenario (corridors swap at t = {SHIFT}):");
    println!(
        "{:<14} {:>14} {:>14} {:>11}  weights after shift",
        "arm", "phase1 (ms)", "phase2 (ms)", "transfers"
    );
    for r in &regime {
        println!(
            "{:<14} {:>14.2} {:>14.2} {:>5}+{:<5}  [{}]",
            r.arm,
            r.phase1_ms,
            r.phase2_ms,
            r.transfers.0,
            r.transfers.1,
            r.weights_final.join(", ")
        );
    }

    let mut json = String::from(
        "{\n  \"bench\": \"placement\",\n  \"unit\": \"mean_op_latency_ms\",\n  \"topology\": \
         {\"kind\": \"geo_network\", \"client_region\": \"virginia\", \"cross_traffic\": true},\n  \
         \"results\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"placement\": [{}], \"policy\": \"{}\", \
             \"mean_op_latency_ms\": {:.3}, \"max_op_latency_ms\": {:.3}, \
             \"transfers_issued\": {}, \"restarts\": {}, \"cross_traffic_bytes\": {}, \
             \"weights_after\": [{}]}}{}\n",
            r.scenario,
            r.placement
                .iter()
                .map(|p| format!("\"{p}\""))
                .collect::<Vec<_>>()
                .join(", "),
            r.policy,
            r.mean_latency_ms,
            r.max_latency_ms,
            r.transfers_issued,
            r.restarts,
            r.cross_traffic_bytes,
            r.weights_after
                .iter()
                .map(|w| format!("\"{w}\""))
                .collect::<Vec<_>>()
                .join(", "),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"regime_shift\": {\n    \"shift_at_ns\": ");
    json.push_str(&format!("{},\n    \"results\": [\n", SHIFT.nanos()));
    for (i, r) in regime.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"arm\": \"{}\", \"phase1_mean_ms\": {:.3}, \"phase2_mean_ms\": {:.3}, \
             \"transfers_first\": {}, \"transfers_second\": {}, \
             \"weights_after_first_decision\": [{}], \"weights_after_shift\": [{}]}}{}\n",
            r.arm,
            r.phase1_ms,
            r.phase2_ms,
            r.transfers.0,
            r.transfers.1,
            r.weights_after_first
                .iter()
                .map(|w| format!("\"{w}\""))
                .collect::<Vec<_>>()
                .join(", "),
            r.weights_final
                .iter()
                .map(|w| format!("\"{w}\""))
                .collect::<Vec<_>>()
                .join(", "),
            if i + 1 < regime.len() { "," } else { "" }
        ));
    }
    json.push_str("    ]\n  }\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("\nwrote {out_path}");

    // The CI gate, per scenario: the best adaptive policy must beat
    // Static on mean op latency and must actually have reassigned weight;
    // Static must not move anything.
    let mut ok = true;
    for chunk in rows.chunks(3) {
        let stat = &chunk[0];
        let best = chunk[1..]
            .iter()
            .min_by(|a, b| a.mean_latency_ms.total_cmp(&b.mean_latency_ms))
            .unwrap();
        if best.mean_latency_ms >= stat.mean_latency_ms {
            eprintln!(
                "FAIL[{}]: best adaptive ({}) {:.2} ms/op >= static {:.2} ms/op",
                stat.scenario, best.policy, best.mean_latency_ms, stat.mean_latency_ms
            );
            ok = false;
        }
        if best.transfers_issued == 0 {
            eprintln!("FAIL[{}]: winning policy issued no transfer", stat.scenario);
            ok = false;
        }
        if stat.transfers_issued != 0 {
            eprintln!("FAIL[{}]: static issued transfers", stat.scenario);
            ok = false;
        }
        // Full runs additionally require a real margin, not a rounding win.
        if !smoke {
            let speedup = stat.mean_latency_ms / best.mean_latency_ms;
            if speedup < 1.1 {
                eprintln!(
                    "FAIL[{}]: adaptive speedup only {speedup:.3}x (< 1.1x)",
                    stat.scenario
                );
                ok = false;
            }
            println!(
                "{}: adaptive speedup {speedup:.2}x ({} {:.2} ms vs static {:.2} ms)",
                stat.scenario, best.policy, best.mean_latency_ms, stat.mean_latency_ms
            );
        }
    }
    // Regime-shift gates: the re-deciding arm must beat decide-once on
    // post-shift latency, must actually have moved weight at the second
    // decision, and the decide-once arm must not have (its second decision
    // point never runs).
    let once = regime.iter().find(|r| r.arm == "decide-once").unwrap();
    let re = regime.iter().find(|r| r.arm == "re-decide").unwrap();
    if re.phase2_ms >= once.phase2_ms {
        eprintln!(
            "FAIL[regime-shift]: re-decide {:.2} ms >= decide-once {:.2} ms after the shift",
            re.phase2_ms, once.phase2_ms
        );
        ok = false;
    }
    if re.transfers.1 == 0 {
        eprintln!("FAIL[regime-shift]: re-decide issued no transfer at the second decision");
        ok = false;
    }
    if re.weights_final == re.weights_after_first {
        eprintln!("FAIL[regime-shift]: the second decision did not change the map");
        ok = false;
    }
    if once.transfers.1 != 0 {
        eprintln!("FAIL[regime-shift]: decide-once ticked twice");
        ok = false;
    }
    if !smoke {
        let speedup = once.phase2_ms / re.phase2_ms;
        if speedup < 1.1 {
            eprintln!("FAIL[regime-shift]: re-decide speedup only {speedup:.3}x (< 1.1x)");
            ok = false;
        }
        println!(
            "regime-shift: re-decide speedup {speedup:.2}x after the shift ({:.2} ms vs {:.2} ms)",
            re.phase2_ms, once.phase2_ms
        );
    }
    if !ok {
        std::process::exit(1);
    }
}
