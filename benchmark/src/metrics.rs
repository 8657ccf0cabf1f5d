//! The metric registry: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` at the repository root lists exactly
//! these names (a unit test holds the two together).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Stat;

/// The four workloads, in the order they run.
pub const WORKLOADS: [&str; 4] = [
    "tcp_read_mostly",
    "tcp_crash_restart",
    "tcp_reassign",
    "sim_wan_adaptive",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees. Every workload defines every one.
pub const END_TO_END: &[MetricDef] = &[
    higher("ops_per_s", "1/s"),
    lower("read_p50_us", "us"),
    lower("write_p50_us", "us"),
    lower("wire_bytes_per_op", "B"),
    lower("peak_rss_mb", "MB"),
    lower("setup_s", "s"),
];

/// Message kinds whose frame codec cost the ledger times.
pub const FRAME_KINDS: [&str; 7] = ["R", "R_A", "W", "W_A", "T", "RefA", "R_A_full"];
/// Change-set sizes the ledger times `ChangeSet` operations at.
pub const CHANGESET_SIZES: [usize; 2] = [100, 3000];
/// `ChangeSet` operations in the ledger.
pub const CHANGESET_OPS: [&str; 4] = ["merge", "delta_since", "apply_ref", "insert"];

/// Single layers, from the traced run. A metric a workload does not
/// exercise reads 0 there (e.g. `storage.wal.appends_per_op` on a
/// non-durable cluster).
pub const PER_LAYER_FIXED: &[MetricDef] = &[
    // Tails: user-visible, but on two shared cores a run in three lands
    // in a mode with 2–3× the p99, so no regression bound would hold.
    lower("read_p99_us", "us"),
    lower("write_p99_us", "us"),
    // Workload-specific user-visible timings: each is defined on one
    // workload only, so they cannot sit in the end-to-end list, which
    // every workload must report in full.
    lower("reassign_p50_us", "us"),
    lower("reassign_p99_us", "us"),
    lower("down_op_p50_us", "us"),
    lower("recovery_ms", "ms"),
    lower("failed_share", "%"),
    // awr_net
    lower("net.send_us_per_op", "us"),
    lower("net.send_ns_per_frame", "ns"),
    lower("net.oneway_us_p50", "us"),
    lower("net.recv_wait_share", "%"),
    lower("net.frames_per_op", "count"),
    lower("net.frame_bytes_per_op", "B"),
    lower("net.frame_overhead_bytes_per_frame", "B"),
    lower("net.dropped_frames", "count"),
    lower("net.dials", "count"),
    // awr_sim
    lower("sim.host.callback_us_per_op", "us"),
    lower("sim.host.steps_per_op", "count"),
    higher("sim.world.events_per_s", "1/s"),
    lower("sim.world.events_per_op", "count"),
    lower("sim.sched.wheel_push_pop_ns", "ns"),
    lower("sim.sched.heap_push_pop_ns", "ns"),
    // awr_storage
    lower("storage.wal.append_us_p50", "us"),
    lower("storage.wal.appends_per_op", "count"),
    lower("storage.wal.bytes_per_op", "B"),
    lower("storage.wal.records_end", "count"),
    lower("storage.recover.load_ms", "ms"),
    higher("storage.read.fastpath_hit_rate", "%"),
    lower("storage.read.writeback_fanout_mean", "count"),
    lower("storage.op.restarts_per_op", "count"),
    lower("storage.refresh.count", "count"),
    lower("storage.lin.check_ms", "ms"),
    higher("storage.lin.ops_per_s", "1/s"),
    // awr_types
    lower("types.changeset.len_end", "count"),
    lower("types.csref.full_share", "%"),
    lower("types.csref.delta_share", "%"),
    // awr_quorum
    lower("quorum.set_weight_ns", "ns"),
    lower("quorum.fast_path_check_ns", "ns"),
    lower("quorum.placement.tick_ms", "ms"),
    // awr_core / awr_rb
    lower("core.transfer.msgs_per_transfer", "count"),
    lower("core.transfer.bytes_per_transfer", "B"),
    lower("core.transfer.null_share", "%"),
    lower("rb.t_msgs_per_transfer", "count"),
    // awr_check
    higher("check.explore.states_per_s", "1/s"),
    lower("check.explore.states", "count"),
    // process
    lower("proc.cpu_s_per_kop", "s"),
    lower("proc.ctx_switches_per_op", "count"),
    lower("proc.allocs_per_op", "count"),
    // Not the program's doing: how slow the host ran during the window
    // (see `calib.rs`), so a reader can tell a disturbed run from a calm one.
    lower("proc.host_slowness", "x"),
    lower("gen.late_p99_us", "us"),
    higher("trace.ops_per_s", "1/s"),
];

/// Name of a frame-codec ledger line, e.g. `net.frame.encode_ns.R_A`.
pub fn frame_metric(what: &str, kind: &str) -> String {
    format!("net.frame.{what}.{kind}")
}

/// Name of a change-set ledger line, e.g. `types.changeset.merge_ns.3000`.
pub fn changeset_metric(op: &str, what: &str, size: usize) -> String {
    format!("types.changeset.{op}_{what}.{size}")
}

/// The full per-layer list: the fixed names plus the generated ledger
/// families, as `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut all: Vec<(String, &'static str, Better)> = PER_LAYER_FIXED
        .iter()
        .map(|d| (d.name.to_string(), d.unit, d.better))
        .collect();
    for kind in FRAME_KINDS {
        for (what, unit) in [
            ("encode_ns", "ns"),
            ("decode_ns", "ns"),
            ("encode_allocs", "count"),
            ("decode_allocs", "count"),
        ] {
            all.push((frame_metric(what, kind), unit, Better::Lower));
        }
    }
    for op in CHANGESET_OPS {
        for size in CHANGESET_SIZES {
            all.push((changeset_metric(op, "ns", size), "ns", Better::Lower));
            all.push((changeset_metric(op, "allocs", size), "count", Better::Lower));
        }
    }
    all
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<String, Stat>,
    pub per_layer: BTreeMap<String, Stat>,
    /// One line per output check and stated condition, for the human.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set_e2e(&mut self, name: &str, stat: Stat) {
        self.end_to_end.insert(name.to_string(), stat);
    }

    pub fn set_layer(&mut self, name: &str, stat: Stat) {
        self.per_layer.insert(name.to_string(), stat);
    }

    pub fn layer_value(&mut self, name: &str, value: f64, samples: u64) {
        self.set_layer(name, Stat::single(value, samples));
    }

    /// Records a failed output check: the run is invalid.
    pub fn fail_check(&mut self, what: impl std::fmt::Display) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {what}"));
    }

    /// The driver-facing last line. `traced` picks the per-layer list.
    /// `Err` names an end-to-end metric the run failed to produce.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        let rows: Vec<(String, &'static str, f64)> = if traced {
            per_layer()
                .into_iter()
                .map(|(name, unit, _)| {
                    let v = self.per_layer.get(&name).map_or(0.0, |s| s.value);
                    (name, unit, v)
                })
                .collect()
        } else {
            let mut rows = Vec::new();
            for d in END_TO_END {
                let s = self
                    .end_to_end
                    .get(d.name)
                    .ok_or_else(|| format!("end-to-end metric `{}` was not measured", d.name))?;
                rows.push((d.name.to_string(), d.unit, s.value));
            }
            rows
        };
        for (i, (name, unit, value)) in rows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        out.push_str("}}");
        Ok(out)
    }

    /// Every metric by name with unit, sample count and segment spread.
    pub fn print_human(&self, workload: &str, traced: bool) {
        println!("== {workload} ==");
        for note in &self.notes {
            println!("   {note}");
        }
        let units: BTreeMap<String, &'static str> = END_TO_END
            .iter()
            .map(|d| (d.name.to_string(), d.unit))
            .chain(per_layer().into_iter().map(|(n, u, _)| (n, u)))
            .collect();
        let show = |name: &String, s: &Stat| {
            println!(
                "   {name:<44} {:>16.4} {:<6} n={:<9} spread={:.1}%",
                s.value,
                units.get(name).copied().unwrap_or(""),
                s.samples,
                s.spread * 100.0
            );
        };
        for d in END_TO_END {
            if let Some(s) = self.end_to_end.get(d.name) {
                show(&d.name.to_string(), s);
            }
        }
        if traced {
            for (name, _, _) in per_layer() {
                match self.per_layer.get(&name) {
                    Some(s) => show(&name, s),
                    None => println!("   {name:<44} {:>16} (not defined on this workload)", "-"),
                }
            }
        }
    }
}

/// A finite JSON number with all its digits (non-finite values read 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_obey_the_contract() {
        let ok_name = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END {
            assert!(ok_name(d.name) && ok_unit(d.unit), "{}", d.name);
            assert!(seen.insert(d.name.to_string()), "duplicate {}", d.name);
        }
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        for (name, unit, _) in layers {
            assert!(ok_name(&name) && ok_unit(unit), "{name}");
            assert!(seen.insert(name.clone()), "duplicate {name}");
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn result_line_needs_every_end_to_end_metric() {
        let mut o = Outcome {
            correct: true,
            attempted: 10,
            ..Outcome::default()
        };
        assert!(o.result_line(false).is_err());
        for d in END_TO_END {
            o.set_e2e(d.name, Stat::single(1.5, 1));
        }
        let line = o.result_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        // Traced lines list every per-layer metric, 0 where undefined.
        let traced = o.result_line(true).unwrap();
        assert_eq!(traced.matches("\"unit\"").count(), per_layer().len());
    }
}
