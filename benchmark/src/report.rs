//! Result files and `--compare`.
//!
//! A result file is what a full run (`--out`) writes: the environment it
//! ran in and, per workload, the driver-facing result object (plus the
//! per-layer metrics when the run was traced). `--compare A B` holds two
//! such files against the bounds `BENCHMARK.json` fixes.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use serde::Value;

use crate::metrics::{json_number, Better, WORKLOADS};

/// Any JSON document, through the vendored serde's value tree.
pub struct Json(pub Value);

impl<'de> serde::Deserialize<'de> for Json {
    fn from_value(v: &Value) -> Result<Json, serde::Error> {
        Ok(Json(v.clone()))
    }
}

pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Json>(text)
        .map(|j| j.0)
        .map_err(|e| e.to_string())
}

pub fn get<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how a run happened, as a JSON object.
pub fn environment(seed: u64, seconds: u64) -> String {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"commit\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \"nproc\": {nproc}, \"kernel\": \"{kernel}\", \"rustc\": \"{}\", \"wal_flush_policy\": \"buffered; flushed when the buffer fills and on close; no fsync\", \"injected_message_delay_ns\": 0, \"clock\": \"calibrated: times divided by the host's slowness, sampled every 100 ms on one pinned CPU (src/calib.rs)\"}}",
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["--version"]),
    )
}

/// One workload's entry of a result file: the untraced result object,
/// with the traced run's metrics (and `extra` percentages) beside it
/// under `"layers"`. Both lines are this program's own output, so the
/// metrics object is lifted out textually.
pub fn workload_entry(
    untraced_line: &str,
    traced_line: Option<&str>,
    extra: &[(String, f64)],
) -> Result<String, String> {
    let entry = untraced_line.trim();
    let Some(traced) = traced_line else {
        return Ok(entry.to_string());
    };
    let body = entry
        .strip_suffix('}')
        .ok_or_else(|| format!("not a result object: {untraced_line}"))?;
    let layers = traced
        .trim()
        .split_once("\"metrics\": ")
        .and_then(|(_, rest)| rest.strip_suffix("}}"))
        .ok_or("traced result has no metrics")?;
    let mut out = format!("{body}, \"layers\": {layers}");
    for (name, value) in extra {
        let _ = write!(
            out,
            ", \"{name}\": {{\"value\": {}, \"unit\": \"%\"}}",
            json_number(*value)
        );
    }
    out.push_str("}}");
    Ok(out)
}

// ---------------------------------------------------------------------
// --compare
// ---------------------------------------------------------------------

/// One end-to-end metric's contract, from `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Bound {
    pub name: String,
    pub better: Better,
    pub bound: f64,
}

pub fn bounds_of(benchmark_json: &Value) -> Result<Vec<Bound>, String> {
    let list = get(benchmark_json, "end_to_end")
        .and_then(Value::as_seq)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |key: &str| match get(m, key) {
                Some(Value::Str(s)) => Ok(s.clone()),
                _ => Err(format!("end_to_end entry lacks `{key}`")),
            };
            Ok(Bound {
                name: text("name")?,
                better: if text("better")? == "higher" {
                    Better::Higher
                } else {
                    Better::Lower
                },
                bound: get(m, "bound")
                    .and_then(number)
                    .ok_or("end_to_end entry lacks `bound`")?,
            })
        })
        .collect()
}

/// By what share of `a` the value `b` is worse (negative: better), and
/// whether that stays within `bound`.
pub fn verdict(better: Better, bound: f64, a: f64, b: f64) -> (f64, bool) {
    if a == 0.0 {
        return (0.0, b == 0.0 || better == Better::Higher);
    }
    let worse = match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    (worse, worse <= bound)
}

/// Compares result file `b` against `a`. Returns the printed table and
/// whether every pairing stayed within its bound with no new failures.
pub fn compare(a: &Value, b: &Value, bounds: &[Bound]) -> Result<(String, bool), String> {
    let mut table = String::new();
    let mut ok = true;
    let _ = writeln!(
        table,
        "{:<18} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for workload in WORKLOADS {
        let entry =
            |file: &'_ Value| -> Option<Value> { get(get(file, "workloads")?, workload).cloned() };
        let (Some(wa), Some(wb)) = (entry(a), entry(b)) else {
            continue;
        };
        let failed = |w: &Value| get(w, "failed").and_then(number).unwrap_or(0.0);
        let attempted = |w: &Value| get(w, "attempted").and_then(number).unwrap_or(1.0).max(1.0);
        let (share_a, share_b) = (failed(&wa) / attempted(&wa), failed(&wb) / attempted(&wb));
        if share_b > share_a {
            ok = false;
        }
        let _ = writeln!(
            table,
            "{workload:<18} {:<18} {:>14.6} {:>14.6} {:>9} {:>7}  {}",
            "failed_share",
            share_a,
            share_b,
            "",
            "",
            if share_b > share_a { "ROSE" } else { "ok" }
        );
        for bound in bounds {
            let value = |w: &Value| -> Option<f64> {
                get(get(get(w, "metrics")?, &bound.name)?, "value").and_then(number)
            };
            let (Some(va), Some(vb)) = (value(&wa), value(&wb)) else {
                return Err(format!(
                    "{workload}: `{}` missing from a result file",
                    bound.name
                ));
            };
            let (worse, within) = verdict(bound.better, bound.bound, va, vb);
            ok &= within;
            let _ = writeln!(
                table,
                "{workload:<18} {:<18} {va:>14.4} {vb:>14.4} {:>8.1}% {:>6.0}%  {}",
                bound.name,
                worse * 100.0,
                bound.bound * 100.0,
                if within { "ok" } else { "EXCEEDED" }
            );
        }
    }
    Ok((table, ok))
}

pub fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The untraced/traced throughput gap, in percent of the untraced value.
pub fn trace_overhead_pct(untraced_line: &str, traced_line: &str) -> Option<f64> {
    let metric = |line: &str, name: &str| -> Option<f64> {
        let v = parse(line).ok()?;
        get(get(get(&v, "metrics")?, name)?, "value").and_then(number)
    };
    let plain = metric(untraced_line, "ops_per_s")?;
    let traced = metric(traced_line, "trace.ops_per_s")?;
    (plain > 0.0).then(|| 100.0 * (plain - traced) / plain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{per_layer, END_TO_END};
    use std::collections::BTreeMap;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        // Lower is better: +8% is inside 10%, +12% is not, −50% is fine.
        assert!(verdict(Better::Lower, 0.10, 100.0, 108.0).1);
        assert!(!verdict(Better::Lower, 0.10, 100.0, 112.0).1);
        assert!(verdict(Better::Lower, 0.10, 100.0, 50.0).1);
        // Higher is better: a 12% drop fails, any rise passes.
        assert!(!verdict(Better::Higher, 0.10, 1000.0, 880.0).1);
        assert!(verdict(Better::Higher, 0.10, 1000.0, 5000.0).1);
        let (worse, _) = verdict(Better::Higher, 0.10, 1000.0, 900.0);
        assert!((worse - 0.10).abs() < 1e-12);
    }

    fn file(ops: f64, failed: u64) -> Value {
        let metrics: String = END_TO_END
            .iter()
            .map(|d| {
                let v = if d.name == "ops_per_s" { ops } else { 10.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        parse(&format!(
            "{{\"workloads\": {{\"tcp_reassign\": {{\"correct\": true, \"attempted\": 100, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}}}}}"
        ))
        .unwrap()
    }

    /// Everything `BENCHMARK.json` lists, for the consistency test.
    fn listed_names(benchmark_json: &Value, section: &str) -> BTreeMap<String, String> {
        get(benchmark_json, section)
            .and_then(Value::as_seq)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| match (get(m, "name"), get(m, "unit")) {
                (Some(Value::Str(n)), Some(Value::Str(u))) => Some((n.clone(), u.clone())),
                _ => None,
            })
            .collect()
    }

    fn bounds() -> Vec<Bound> {
        END_TO_END
            .iter()
            .map(|d| Bound {
                name: d.name.to_string(),
                better: d.better,
                bound: 0.10,
            })
            .collect()
    }

    #[test]
    fn result_file_entries_carry_the_layers() {
        let plain = r#"{"correct": true, "attempted": 5, "failed": 0, "metrics": {"ops_per_s": {"value": 200, "unit": "1/s"}}}"#;
        let traced = r#"{"correct": true, "attempted": 5, "failed": 0, "metrics": {"trace.ops_per_s": {"value": 150, "unit": "1/s"}, "net.dials": {"value": 12, "unit": "count"}}}"#;
        assert_eq!(workload_entry(plain, None, &[]).unwrap(), plain);
        assert_eq!(trace_overhead_pct(plain, traced), Some(25.0));
        let extra = [("trace.overhead_pct".to_string(), 25.0)];
        let entry = parse(&workload_entry(plain, Some(traced), &extra).unwrap()).unwrap();
        let layer = |name: &str| {
            get(get(get(&entry, "layers").unwrap(), name).unwrap(), "value").and_then(number)
        };
        assert_eq!(layer("net.dials"), Some(12.0));
        assert_eq!(layer("trace.overhead_pct"), Some(25.0));
        assert_eq!(get(&entry, "failed").and_then(number), Some(0.0));
    }

    #[test]
    fn compare_flags_regressions_and_new_failures() {
        let (table, ok) = compare(&file(1000.0, 0), &file(950.0, 0), &bounds()).unwrap();
        assert!(ok, "{table}");
        let (table, ok) = compare(&file(1000.0, 0), &file(800.0, 0), &bounds()).unwrap();
        assert!(!ok && table.contains("EXCEEDED"), "{table}");
        let (table, ok) = compare(&file(1000.0, 0), &file(1000.0, 3), &bounds()).unwrap();
        assert!(!ok && table.contains("ROSE"), "{table}");
    }

    /// `BENCHMARK.json` and the registry must name the same metrics with
    /// the same units, and the workloads in the same order.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = read_json(&path).expect("BENCHMARK.json parses");
        let e2e = listed_names(&doc, "end_to_end");
        let want: BTreeMap<String, String> = END_TO_END
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect();
        assert_eq!(e2e, want);
        let layers = listed_names(&doc, "per_layer");
        let want: BTreeMap<String, String> = per_layer()
            .into_iter()
            .map(|(n, u, _)| (n, u.to_string()))
            .collect();
        assert_eq!(layers, want);
        let bounds = bounds_of(&doc).unwrap();
        for (b, d) in bounds.iter().zip(END_TO_END) {
            assert_eq!((b.name.as_str(), b.better), (d.name, d.better));
            assert!(b.bound > 0.0 && b.bound <= 0.25, "{}", b.name);
        }
        let names: Vec<String> = get(&doc, "workloads")
            .and_then(Value::as_seq)
            .unwrap()
            .iter()
            .filter_map(|w| match get(w, "name") {
                Some(Value::Str(n)) => Some(n.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(names, WORKLOADS);
    }
}
