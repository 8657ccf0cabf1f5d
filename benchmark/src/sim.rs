//! `sim_wan_adaptive`: the protocol and the simulator engine with no
//! sockets or threads — an open-loop WAN run inside `awr_sim::World`.
//!
//! Latencies here are **virtual** time (the simulated WAN's milliseconds,
//! taken exactly from each client's per-operation record — invocation to
//! response, excluding any wait in the client's backlog); `ops_per_s` is
//! simulator throughput on the wall clock. Byte and message counts repeat
//! exactly under a seed.

use std::time::Instant;

use awr_core::RpConfig;
use awr_quorum::placement::LatencyGreedy;
use awr_sim::{geo_network, ArrivalSpec, Region, SECOND};
use awr_storage::workload::KeyDistribution;
use awr_storage::{
    DynOptions, DynServer, OpKind, OpenLoopClient, OpenLoopHarness, OpenLoopSpec, PlacementDriver,
};

use crate::calib::{Calibrator, SpeedLog};
use crate::checks;
use crate::metrics::Outcome;
use crate::procfs;
use crate::stats::{self, Stat, SEGMENTS};
use crate::trace::{self, now_ns, RunTrace};

const N: usize = 5;
const F: usize = 1;
const CLIENTS: usize = 128;
/// Few enough operations per key that every per-key concurrency window
/// stays inside the linearizability checker's 64-op capacity.
const KEYS: usize = 2048;
const RATE_PER_S: f64 = 400.0;
const WRITE_FRACTION: f64 = 0.3;
/// Makes the WAN's delays continuous, so latency quantiles are not pinned
/// to a handful of region-to-region constants.
const JITTER: f64 = 0.05;
const DECIDE_EVERY: u64 = 5 * SECOND;
/// Virtual seconds simulated per second of `--seconds`: sized so the run
/// takes roughly three fifths of its budget on the sizing machine, and so
/// that the operation count depends on the arguments alone.
const VIRTUAL_PER_RUN_SECOND: u64 = 100;
/// Harnesses built per run; `setup_s` is their median.
const SETUPS: usize = 25;

fn build(seed: u64, duration: u64) -> (OpenLoopHarness, PlacementDriver) {
    let mut placement = Region::ALL.to_vec();
    placement.extend(std::iter::repeat_n(Region::Virginia, CLIENTS));
    let spec = OpenLoopSpec {
        n_clients: CLIENTS,
        n_objects: KEYS,
        dist: KeyDistribution::Uniform,
        write_fraction: WRITE_FRACTION,
        arrivals: ArrivalSpec::Poisson {
            rate_per_sec: RATE_PER_S,
        },
        duration,
        per_object: false,
        seed,
    };
    let mut h = OpenLoopHarness::build(
        RpConfig::uniform(N, F),
        &spec,
        geo_network(&placement, JITTER),
        DynOptions::default(),
    );
    let mut driver = PlacementDriver::new(LatencyGreedy::default(), h.client_actors().to_vec());
    driver.windowed = true;
    // Set-up ends when the harness has served its first placement
    // interval (~2 000 operations): by then every client has dialled in,
    // buffers have grown to their working size, and the time is mostly
    // the simulator's own work rather than a millisecond of page faults.
    h.inner.world.run_for(DECIDE_EVERY.min(duration));
    (h, driver)
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<(Outcome, RunTrace), String> {
    let duration = seconds * VIRTUAL_PER_RUN_SECOND * SECOND;
    // The host's speed is sampled between the pieces of work this one
    // thread does — before every build, before every placement interval —
    // and every wall-clock time below is read on the calibrated clock.
    let mut calibrator = Calibrator::new()?;
    let mut speed = SpeedLog::default();
    let mut setups: Vec<(u64, f64)> = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        speed.sample(&mut calibrator);
        let began = now_ns();
        let started = Instant::now();
        built = Some(build(seed, duration));
        setups.push((began, started.elapsed().as_secs_f64()));
    }
    let (mut h, mut driver) = built.expect("SETUPS > 0");
    if traced {
        trace::begin_thread("sim");
    }

    let cpu_before = procfs::cpu_seconds();
    let ctx_before = procfs::context_switches();
    let allocs_before = crate::alloc::allocations();
    // One lap per placement interval: (segment, began, ended, operations).
    let mut laps: Vec<(usize, u64, u64, u64)> = Vec::new();
    let mut ticks = 0u64;
    let started = now_ns();
    while h.inner.world.now().0 < duration {
        let now = h.inner.world.now().0;
        let seg = stats::segment_of(now, 0, duration, SEGMENTS).expect("inside the load window");
        speed.sample(&mut calibrator);
        let lap = now_ns();
        let before = h.stats().completed;
        {
            let _g = trace::span("world.run");
            h.inner.world.run_for(DECIDE_EVERY.min(duration - now));
        }
        {
            let _g = trace::span("placement.tick");
            driver.tick(&mut h.inner);
        }
        ticks += 1;
        laps.push((seg, lap, now_ns(), h.stats().completed - before));
    }
    {
        let _g = trace::span("world.run");
        h.inner.settle();
    }
    let ended = now_ns();
    speed.sample(&mut calibrator);
    speed.despike();
    let run_s = speed.calibrated_seconds(started, ended);
    // Before the output checks: their copies of the history are the
    // benchmark's memory, not the system's.
    let peak_rss_mb = procfs::peak_rss_mb();
    let cpu_s = procfs::cpu_seconds() - cpu_before;
    let ctx = procfs::context_switches().saturating_sub(ctx_before);
    let allocs = crate::alloc::allocations() - allocs_before;

    let s = h.stats();
    let mut out = Outcome {
        correct: true,
        attempted: s.generated,
        failed: s.generated - s.completed,
        ..Outcome::default()
    };
    out.notes.push(format!(
        "open loop: Poisson {RATE_PER_S} ops/s over {} virtual s from {CLIENTS} clients in Virginia, {N} servers one per region (WAN jitter {JITTER}); latencies are VIRTUAL time, ops_per_s is simulator throughput on the wall clock",
        duration / SECOND
    ));

    // ----- end-to-end --------------------------------------------------
    let mut seg_s = [0f64; SEGMENTS];
    let mut seg_ops = [0u64; SEGMENTS];
    for (seg, began, ended, ops) in &laps {
        seg_s[*seg] += speed.calibrated_seconds(*began, *ended);
        seg_ops[*seg] += ops;
    }
    let tput: Vec<Option<f64>> = seg_ops
        .iter()
        .zip(seg_s)
        .map(|(ops, s)| (s > 0.0).then(|| *ops as f64 / s))
        .collect();
    let (slow, slow_lo, slow_hi) = speed.summary(started, ended).unwrap_or((1.0, 1.0, 1.0));
    out.notes.push(format!(
        "host slowness over the run: median {slow:.3} (min {slow_lo:.3}, max {slow_hi:.3}; 1 = the sizing machine undisturbed); ops_per_s and setup_s are on the calibrated clock, uncalibrated {:.0} ops/s",
        s.completed as f64 / ((ended - started) as f64 / 1e9)
    ));
    let ops_per_s = stats::over_segments(&tput, s.completed).ok_or("no throughput segments")?;
    // (virtual response time, virtual latency) per completed operation.
    let mut reads: Vec<(u64, u64)> = Vec::new();
    let mut writes: Vec<(u64, u64)> = Vec::new();
    let mut restarts = 0u64;
    for &a in h.client_actors() {
        let c = h
            .inner
            .world
            .actor::<OpenLoopClient>(a)
            .ok_or("open-loop client missing from the world")?;
        for op in c.completed_ops() {
            restarts += op.restarts;
            let sample = (op.response.0, op.response.0 - op.invoke.0);
            match op.kind {
                OpKind::Read(_) => reads.push(sample),
                OpKind::Write(_) => writes.push(sample),
            }
        }
    }
    let metrics = h.inner.world.metrics().clone();
    if traced {
        out.set_layer("trace.ops_per_s", ops_per_s);
        out.layer_value("proc.host_slowness", slow, laps.len() as u64);
        for (name, samples) in [("read_p99_us", &reads), ("write_p99_us", &writes)] {
            let stat = stats::latency_quantile_us(samples, 0, duration, 0.99);
            out.per_layer.extend(stat.map(|s| (name.to_string(), s)));
        }
    } else {
        out.set_e2e("ops_per_s", ops_per_s);
        for (name, samples) in [("read_p50_us", &reads), ("write_p50_us", &writes)] {
            match stats::latency_quantile_us(samples, 0, duration, 0.50) {
                Some(stat) => out.set_e2e(name, stat),
                None => out.fail_check(format!("no samples for {name}")),
            }
        }
        out.set_e2e(
            "wire_bytes_per_op",
            Stat::single(
                metrics.bytes_sent as f64 / s.completed.max(1) as f64,
                s.completed,
            ),
        );
        out.set_e2e("peak_rss_mb", Stat::single(peak_rss_mb, 1));
        let setups: Vec<Option<f64>> = setups
            .iter()
            .map(|(at, s)| Some(s / speed.slowness_at(*at)))
            .collect();
        out.set_e2e(
            "setup_s",
            stats::over_segments(&setups, SETUPS as u64).expect("SETUPS > 0"),
        );
    }

    // ----- output checks -----------------------------------------------
    if s.completed != s.generated {
        out.fail_check(format!(
            "{} of {} generated operations never completed",
            s.generated - s.completed,
            s.generated
        ));
    }
    let history = h.history();
    let lin_ms = checks::linearizable_into(&mut out, &history);
    let transfers = h.inner.all_completed_transfers();
    let stamped = transfers.iter().map(|(o, at)| (o.clone(), at.0)).collect();
    match checks::audit(h.inner.config(), stamped) {
        Ok(()) => out.notes.push(format!(
            "transfer audit clean over {} placement transfers",
            transfers.len()
        )),
        Err(e) => out.fail_check(e),
    }
    let servers: Vec<&DynServer<u64>> = h
        .inner
        .config()
        .servers()
        .filter_map(|sid| {
            h.inner
                .world
                .actor::<DynServer<u64>>(h.inner.server_actor(sid))
        })
        .collect();
    let views: Vec<_> = servers.iter().map(|srv| srv.changes().weights(N)).collect();
    if let Err(e) = checks::weights_sound(h.inner.config(), &views) {
        out.fail_check(e);
    }

    // ----- per-layer ---------------------------------------------------
    let mut run_trace = RunTrace::default();
    if traced {
        run_trace.threads.extend(trace::end_thread());
        let ops = s.completed.max(1) as f64;
        out.layer_value(
            "failed_share",
            stats::percent(out.failed as f64, out.attempted as f64),
            out.attempted,
        );
        out.layer_value(
            "sim.world.events_per_s",
            metrics.events_processed as f64 / run_s,
            metrics.events_processed,
        );
        out.layer_value(
            "sim.world.events_per_op",
            metrics.events_processed as f64 / ops,
            metrics.events_processed,
        );
        let tick = run_trace.agg("placement.tick");
        out.layer_value(
            "quorum.placement.tick_ms",
            tick.total_ns as f64 / 1e6 / ticks.max(1) as f64,
            ticks,
        );
        let (hits, misses) = (
            metrics.counter("read_fastpath_hit"),
            metrics.counter("read_fastpath_miss"),
        );
        out.layer_value(
            "storage.read.fastpath_hit_rate",
            stats::percent(hits as f64, (hits + misses) as f64),
            hits + misses,
        );
        if metrics.sample_count("read_writeback_fanout") > 0 {
            out.layer_value(
                "storage.read.writeback_fanout_mean",
                metrics.sample_mean("read_writeback_fanout"),
                metrics.sample_count("read_writeback_fanout"),
            );
        }
        out.layer_value(
            "storage.op.restarts_per_op",
            restarts as f64 / ops,
            s.completed,
        );
        let refreshes: u64 = servers.iter().map(|srv| srv.refreshes).sum();
        out.layer_value("storage.refresh.count", refreshes as f64, refreshes);
        if let Some(ms) = lin_ms {
            checks::lin_cost_layers(&mut out, ms, history.len() as u64);
        }
        let len_end = servers
            .iter()
            .map(|srv| srv.changes().len())
            .max()
            .unwrap_or(0);
        out.layer_value("types.changeset.len_end", len_end as f64, 1);
        out.layer_value("proc.cpu_s_per_kop", cpu_s / (ops / 1e3), s.completed);
        out.layer_value("proc.ctx_switches_per_op", ctx as f64 / ops, s.completed);
        out.layer_value("proc.allocs_per_op", allocs as f64 / ops, s.completed);
    }
    Ok((out, run_trace))
}
