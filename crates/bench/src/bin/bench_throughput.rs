//! Throughput benchmark: open-loop tail-latency knee curves on the
//! timing-wheel scheduler.
//!
//! Closed-loop harnesses (every bench before this one) re-issue on
//! completion, so offered load sags exactly when the system congests and
//! the latency-vs-throughput knee is invisible. Here an
//! [`OpenLoopHarness`] offers Poisson arrivals at a swept target rate
//! over thousands of pipelined logical clients; recorded latency is
//! *completion minus arrival*, so past the knee the queueing delay blows
//! up the p99/p99.9 tail while below it the curve stays flat at the
//! protocol round-trip. Two sweeps:
//!
//! * **wire**: delta-negotiated (`WireMode::Negotiate`) versus
//!   paper-literal full-set (`WireMode::ForceFull`) change-set wire, at
//!   converged `|C| ≈ 300`, on a shared-uplink topology. The full wire
//!   ships `C` on every phase message, saturating server uplinks an
//!   order of magnitude earlier — its knee sits far left of the delta
//!   wire's.
//! * **placement**: static versus adaptive (`LatencyGreedy`) weight
//!   placement on the five-region WAN with all clients in Virginia.
//!   Adaptive placement concentrates weight near the clients, cutting
//!   the quorum RTT — which both lowers the flat part of the curve and
//!   shifts the knee right (each pipelined client turns over faster).
//!
//! A **burst** pair contrasts Poisson with on/off bursty arrivals at the
//! same mean rate: bursts queue during "on" windows, so the tail is
//! strictly worse at equal offered load.
//!
//! Every number here is virtual time and repeats exactly. What a run
//! costs on the wall clock — and the timing wheel against the reference
//! heap — is `benchmark/`'s to measure (`sim_wan_adaptive`, the
//! `sim.sched.*` ledger lines); that the two schedulers replay a run
//! identically is pinned by `tests/scheduler_equivalence.rs`.
//!
//! Run with: `cargo run --release --bin bench_throughput [-- --smoke] [out.json]`

// stdout is this target's interface; exempt from the workspace print lint.
#![allow(clippy::print_stdout)]

use awr_core::RpConfig;
use awr_quorum::placement::LatencyGreedy;
use awr_sim::{constrained_uplink, geo_network, ArrivalSpec, Nanos, Region, MILLI, SECOND};
use awr_storage::{
    workload::KeyDistribution, DynOptions, OpenLoopHarness, OpenLoopSpec, OpenLoopStats,
    PlacementDriver, WireMode,
};
use awr_types::ObjectId;

const N: usize = 5;
const F: usize = 1;
const SEED: u64 = 0x0F_EED;
/// Converged change-set size for the wire sweep (what `ForceFull` ships
/// per phase message).
const C_SIZE: usize = 300;
/// Every sender's outgoing traffic shares one 4 MB/s uplink (wire sweep).
const UPLINK_BYTES_PER_SEC: u64 = 4_000_000;
const N_OBJECTS: usize = 16;
const WRITE_FRACTION: f64 = 0.3;

/// One sweep point's outcome.
struct Row {
    scenario: &'static str,
    mode: &'static str,
    rate_per_sec: f64,
    generated: u64,
    completed: u64,
    duration_s: f64,
    /// Sim time past the arrival horizon spent finishing queued ops —
    /// ~0 below the knee, huge above it.
    drain_s: f64,
    mean_ns: f64,
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
    read_p99_ns: u64,
    write_p99_ns: u64,
    /// p99 of the zipf-hottest object (key 0).
    hot_p99_ns: u64,
    max_backlog: usize,
    bytes_per_op: f64,
}

fn row(
    scenario: &'static str,
    mode: &'static str,
    rate: f64,
    duration: Nanos,
    s: &OpenLoopStats,
    last_time_ns: u64,
    bytes_sent: u64,
) -> Row {
    let all = s.all();
    Row {
        scenario,
        mode,
        rate_per_sec: rate,
        generated: s.generated,
        completed: s.completed,
        duration_s: duration as f64 / 1e9,
        drain_s: last_time_ns.saturating_sub(duration) as f64 / 1e9,
        mean_ns: all.mean(),
        p50_ns: all.quantile(0.5),
        p99_ns: all.quantile(0.99),
        p999_ns: all.quantile(0.999),
        read_p99_ns: s.reads.quantile(0.99),
        write_p99_ns: s.writes.quantile(0.99),
        hot_p99_ns: s
            .per_object
            .get(&ObjectId(0))
            .map(|h| h.quantile(0.99))
            .unwrap_or(0),
        max_backlog: s.max_backlog,
        bytes_per_op: bytes_sent as f64 / s.completed.max(1) as f64,
    }
}

fn spec(n_clients: usize, arrivals: ArrivalSpec, duration: Nanos) -> OpenLoopSpec {
    OpenLoopSpec {
        n_clients,
        n_objects: N_OBJECTS,
        dist: KeyDistribution::Zipfian { exponent: 1.0 },
        write_fraction: WRITE_FRACTION,
        arrivals,
        duration,
        per_object: true,
        seed: SEED,
    }
}

/// One wire-sweep point: shared-uplink topology, seeded converged `C`.
fn run_wire(
    wire: WireMode,
    arrivals: ArrivalSpec,
    n_clients: usize,
    duration: Nanos,
) -> (OpenLoopStats, u64, u64) {
    let mut h = OpenLoopHarness::build(
        RpConfig::uniform(N, F),
        &spec(n_clients, arrivals, duration),
        constrained_uplink(N + n_clients, UPLINK_BYTES_PER_SEC),
        DynOptions {
            wire,
            ..DynOptions::default()
        },
    );
    h.seed_changes(C_SIZE);
    h.run(None, SECOND);
    let m = h.inner.world.metrics();
    (h.stats(), m.bytes_sent, m.last_time.0)
}

/// One placement-sweep point: five-region WAN, clients in Virginia,
/// optionally ticking an adaptive placement driver.
fn run_placement(
    adaptive: bool,
    rate: f64,
    n_clients: usize,
    duration: Nanos,
) -> (OpenLoopStats, u64, u64) {
    let mut placement = Region::ALL.to_vec();
    placement.extend(std::iter::repeat_n(Region::Virginia, n_clients));
    let mut h = OpenLoopHarness::build(
        RpConfig::uniform(N, F),
        &spec(
            n_clients,
            ArrivalSpec::Poisson { rate_per_sec: rate },
            duration,
        ),
        geo_network(&placement, 0.05),
        DynOptions::default(),
    );
    if adaptive {
        let mut driver = PlacementDriver::new(LatencyGreedy::default(), h.client_actors().to_vec());
        driver.windowed = true;
        h.run(Some(&mut driver), 5 * SECOND);
    } else {
        h.run(None, 5 * SECOND);
    }
    let m = h.inner.world.metrics();
    let (bytes, last) = (m.bytes_sent, m.last_time.0);
    (h.stats(), bytes, last)
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_throughput.json".to_string());

    // Sweeps are sized so the *top* rate offers >= 10^6 operations; the
    // smoke profile keeps CI under a minute.
    let (wire_rates, wire_clients, wire_dur): (&[f64], usize, Nanos) = if smoke {
        (&[400.0, 1_200.0], 32, 2 * SECOND)
    } else {
        (
            &[100.0, 250.0, 500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0],
            256,
            127 * SECOND,
        )
    };
    let (place_rates, place_clients, place_dur): (&[f64], usize, Nanos) = if smoke {
        (&[200.0, 600.0], 32, 2 * SECOND)
    } else {
        (
            &[100.0, 200.0, 400.0, 800.0, 1_600.0, 3_000.0],
            128,
            336 * SECOND,
        )
    };

    let mut rows: Vec<Row> = Vec::new();
    let mut ok = true;

    // --- Wire sweep: Negotiate vs ForceFull knee. ---
    for &rate in wire_rates {
        let arrivals = ArrivalSpec::Poisson { rate_per_sec: rate };
        for (mode, wire) in [
            ("delta", WireMode::Negotiate),
            ("full", WireMode::ForceFull),
        ] {
            let (s, bytes, last) = run_wire(wire, arrivals, wire_clients, wire_dur);
            if s.completed != s.generated {
                eprintln!(
                    "FAIL: wire/{mode}@{rate}: {} of {} ops completed",
                    s.completed, s.generated
                );
                ok = false;
            }
            rows.push(row("wire", mode, rate, wire_dur, &s, last, bytes));
        }
    }

    // --- Burst pair: same mean rate, Poisson vs 25%-duty on/off. ---
    let burst_mean = wire_rates[wire_rates.len() / 2];
    for (mode, arrivals) in [
        (
            "poisson",
            ArrivalSpec::Poisson {
                rate_per_sec: burst_mean,
            },
        ),
        (
            "bursty",
            ArrivalSpec::Bursty {
                on_rate_per_sec: 4.0 * burst_mean,
                on_ns: 50 * MILLI,
                off_ns: 150 * MILLI,
            },
        ),
    ] {
        let (s, bytes, last) = run_wire(WireMode::Negotiate, arrivals, wire_clients, wire_dur);
        if s.completed != s.generated {
            eprintln!("FAIL: burst/{mode}: incomplete drain");
            ok = false;
        }
        rows.push(row("burst", mode, burst_mean, wire_dur, &s, last, bytes));
    }

    // --- Placement sweep: static vs adaptive knee. ---
    for &rate in place_rates {
        for (mode, adaptive) in [("static", false), ("adaptive", true)] {
            let (s, bytes, last) = run_placement(adaptive, rate, place_clients, place_dur);
            if s.completed != s.generated {
                eprintln!(
                    "FAIL: placement/{mode}@{rate}: {} of {} ops completed",
                    s.completed, s.generated
                );
                ok = false;
            }
            rows.push(row("placement", mode, rate, place_dur, &s, last, bytes));
        }
    }

    // --- Report. ---
    println!(
        "{:<10} {:<9} {:>8} {:>9} {:>10} {:>10} {:>10} {:>9} {:>9} {:>10}",
        "scenario",
        "mode",
        "rate/s",
        "ops",
        "p50 ms",
        "p99 ms",
        "p99.9 ms",
        "drain s",
        "backlog",
        "bytes/op"
    );
    for r in &rows {
        println!(
            "{:<10} {:<9} {:>8.0} {:>9} {:>10.2} {:>10.2} {:>10.2} {:>9.1} {:>9} {:>10.1}",
            r.scenario,
            r.mode,
            r.rate_per_sec,
            r.completed,
            r.p50_ns as f64 / 1e6,
            r.p99_ns as f64 / 1e6,
            r.p999_ns as f64 / 1e6,
            r.drain_s,
            r.max_backlog,
            r.bytes_per_op
        );
    }
    // --- JSON. ---
    let mut json = format!(
        "{{\n  \"bench\": \"throughput\",\n  \"unit\": \"ns\",\n  \"smoke\": {smoke},\n  \
         \"config\": {{\"n\": {N}, \"f\": {F}, \"c_size\": {C_SIZE}, \"n_objects\": {N_OBJECTS}, \
         \"write_fraction\": {WRITE_FRACTION}, \"uplink_bytes_per_sec\": {UPLINK_BYTES_PER_SEC}}},\n  \
         \"results\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"mode\": \"{}\", \"rate_per_sec\": {:.0}, \
             \"generated\": {}, \"completed\": {}, \"duration_s\": {:.3}, \"drain_s\": {:.3}, \
             \"mean_ns\": {:.0}, \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \
             \"read_p99_ns\": {}, \"write_p99_ns\": {}, \"hot_p99_ns\": {}, \
             \"max_backlog\": {}, \"bytes_per_op\": {:.1}}}{}\n",
            r.scenario,
            r.mode,
            r.rate_per_sec,
            r.generated,
            r.completed,
            r.duration_s,
            r.drain_s,
            r.mean_ns,
            r.p50_ns,
            r.p99_ns,
            r.p999_ns,
            r.read_p99_ns,
            r.write_p99_ns,
            r.hot_p99_ns,
            r.max_backlog,
            r.bytes_per_op,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("wrote {out_path}");

    // --- Gates. ---
    // The full wire pays for shipping C on every phase: far more bytes
    // per op at every rate.
    for pair in rows
        .iter()
        .filter(|r| r.scenario == "wire")
        .collect::<Vec<_>>()
        .chunks(2)
    {
        let (delta, full) = (pair[0], pair[1]);
        if full.bytes_per_op < 2.0 * delta.bytes_per_op {
            eprintln!(
                "FAIL: wire@{}: full {:.0} B/op not >= 2x delta {:.0} B/op",
                delta.rate_per_sec, full.bytes_per_op, delta.bytes_per_op
            );
            ok = false;
        }
    }
    if !smoke {
        // Knee separation: at the top rate the full wire is saturated
        // (long drain, exploded tail) while the delta wire still keeps up.
        let at = |sc: &str, mode: &str, rate: f64| {
            rows.iter()
                .find(|r| r.scenario == sc && r.mode == mode && r.rate_per_sec == rate)
                .expect("row")
        };
        let top = *wire_rates.last().unwrap();
        let (d_top, f_top) = (at("wire", "delta", top), at("wire", "full", top));
        if f_top.p99_ns < 10 * d_top.p99_ns {
            eprintln!("FAIL: full wire p99 did not explode past its knee");
            ok = false;
        }
        if d_top.drain_s > wire_dur as f64 / 1e9 {
            eprintln!("FAIL: delta wire already saturated at the top rate");
            ok = false;
        }
        // Adaptive placement beats static at every offered rate.
        for &rate in place_rates {
            let (st, ad) = (
                at("placement", "static", rate),
                at("placement", "adaptive", rate),
            );
            if ad.p99_ns >= st.p99_ns {
                eprintln!(
                    "FAIL: placement@{rate}: adaptive p99 {} >= static p99 {}",
                    ad.p99_ns, st.p99_ns
                );
                ok = false;
            }
        }
        // Bursty arrivals at the same mean rate queue harder.
        let (po, bu) = (
            at("burst", "poisson", burst_mean),
            at("burst", "bursty", burst_mean),
        );
        if bu.p99_ns <= po.p99_ns {
            eprintln!("FAIL: bursty tail not worse than poisson at equal mean rate");
            ok = false;
        }
        // The sweep is sized to offer 10^6 operations at its top point.
        if d_top.completed < 1_000_000 {
            eprintln!("FAIL: top point ran only {} ops (< 10^6)", d_top.completed);
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
