//! The repository's standing benchmark: wall-clock cluster workloads, a
//! simulator workload, and a per-layer ledger. See `README.md` beside
//! this package for every workload and metric.
//!
//! ```text
//! awr-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last stdout line is the result object
//! awr-benchmark [--seed <n>] [--seconds <s>] [--smoke] [--trace] [--only <name>] [--out <file>]
//!     every workload, each in a process of its own; writes a result file
//! awr-benchmark --compare <A.json> <B.json> [--bench-json <BENCHMARK.json>]
//!     holds two result files against the bounds in BENCHMARK.json
//! ```

mod alloc;
mod calib;
mod checks;
mod ledger;
mod metrics;
mod procfs;
mod report;
mod script;
mod sim;
mod stats;
mod tcp;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use awr_net::TcpTransport;

use crate::metrics::{Outcome, WORKLOADS};
use crate::trace::{Msg, RunTrace, TracedTransport};

// One binary for traced and untraced runs: counting stays off (a relaxed
// load of a never-written flag per allocation) unless a traced run turns
// it on.
#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const DEFAULT_SECONDS: u64 = 24;
const SMOKE_SECONDS: u64 = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    work_dir: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    bench_json: Option<PathBuf>,
}

impl Args {
    fn seconds(&self) -> u64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
        work_dir: None,
        compare: None,
        bench_json: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--workload" | "--only" => a.workload = Some(value(&mut i, flag)?),
            "--seed" => {
                a.seed = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: u64 = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
                a.seconds = Some(s);
            }
            // `--trace` alone switches tracing on; the driver spells it
            // `--trace 0` / `--trace 1`.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    a.trace = false;
                    i += 1;
                }
                Some("1") => {
                    a.trace = true;
                    i += 1;
                }
                _ => a.trace = true,
            },
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(PathBuf::from(value(&mut i, flag)?)),
            "--work-dir" => a.work_dir = Some(PathBuf::from(value(&mut i, flag)?)),
            "--bench-json" => a.bench_json = Some(PathBuf::from(value(&mut i, flag)?)),
            "--compare" => {
                let first = PathBuf::from(value(&mut i, flag)?);
                let second = PathBuf::from(value(&mut i, flag)?);
                a.compare = Some((first, second));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(a)
}

/// Where temp directories and traces go: always inside the checkout.
fn work_dir(args: &Args) -> PathBuf {
    args.work_dir.clone().unwrap_or_else(|| {
        if Path::new("benchmark").is_dir() {
            PathBuf::from("benchmark/results")
        } else {
            PathBuf::from("results")
        }
    })
}

fn run_workload(
    name: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    dir: &Path,
) -> Result<(Outcome, RunTrace), String> {
    if name == "sim_wan_adaptive" {
        return sim::run(seed, seconds, traced);
    }
    let spec = tcp::spec_of(name).ok_or_else(|| {
        format!(
            "unknown workload `{name}` (known: {})",
            WORKLOADS.join(", ")
        )
    })?;
    if traced {
        tcp::run::<TracedTransport<TcpTransport<Msg>>>(spec, seed, seconds, dir)
    } else {
        tcp::run::<TcpTransport<Msg>>(spec, seed, seconds, dir)
    }
}

/// One workload in this process. The last line printed is the result.
fn single(args: &Args, name: &str) -> Result<bool, String> {
    let seconds = args.seconds();
    let dir = work_dir(args);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    alloc::set_counting(args.trace);
    // Before any thread is started: they inherit the restriction.
    let cpu = calib::pin_to_one_cpu();
    let (mut out, run_trace) = run_workload(name, args.seed, seconds, args.trace, &dir)?;
    out.notes.push(match cpu {
        Some(cpu) => format!("every thread of the run pinned to CPU {cpu}"),
        None => "could not pin the run to one CPU: the calibrated clock may not see the speed the nodes see".to_string(),
    });
    if args.trace {
        ledger::run(&mut out, args.smoke);
        let path = dir.join(format!("trace-{name}.json"));
        std::fs::write(&path, run_trace.to_json(name))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        out.notes
            .push(format!("spans written to {}", path.display()));
    }
    out.print_human(name, args.trace);
    println!("{}", out.result_line(args.trace)?);
    Ok(out.correct)
}

/// Runs `name` in a child process; relays its output and returns its
/// last line (the result object) and whether it exited cleanly.
fn child(args: &Args, name: &str, seconds: u64, traced: bool) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--work-dir")
        .arg(work_dir(args))
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    let last = text
        .lines()
        .last()
        .filter(|l| l.starts_with('{'))
        .ok_or_else(|| format!("{name} printed no result"))?;
    Ok((last.to_string(), output.status.success()))
}

/// Every workload (or `--only` one), each in its own process.
fn full(args: &Args) -> Result<bool, String> {
    let seconds = args.seconds();
    let names: Vec<&str> = match &args.workload {
        Some(only) => vec![only.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut all_ok = true;
    let mut entries: Vec<String> = Vec::new();
    for name in names {
        let (plain, ok) = child(args, name, seconds, false)?;
        all_ok &= ok;
        let mut traced_line = None;
        let mut extra = Vec::new();
        if args.trace {
            let (traced, ok) = child(args, name, seconds, true)?;
            all_ok &= ok;
            if let Some(pct) = report::trace_overhead_pct(&plain, &traced) {
                println!("   trace.overhead_pct {pct:>40.2} %  (ops_per_s untraced vs traced)");
                extra.push(("trace.overhead_pct".to_string(), pct));
            }
            traced_line = Some(traced);
        }
        let entry = report::workload_entry(&plain, traced_line.as_deref(), &extra)?;
        entries.push(format!("\"{name}\": {entry}"));
    }
    if let Some(path) = &args.out {
        let doc = format!(
            "{{\"env\": {}, \"workloads\": {{{}}}}}\n",
            report::environment(args.seed, seconds),
            entries.join(", ")
        );
        std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("results written to {}", path.display());
    }
    Ok(all_ok)
}

fn compare(args: &Args, a: &Path, b: &Path) -> Result<bool, String> {
    let bench = match &args.bench_json {
        Some(p) => p.clone(),
        None => ["BENCHMARK.json", "../BENCHMARK.json"]
            .iter()
            .map(PathBuf::from)
            .find(|p| p.is_file())
            .ok_or("BENCHMARK.json not found; pass --bench-json")?,
    };
    let bounds = report::bounds_of(&report::read_json(&bench)?)?;
    let (table, ok) = report::compare(&report::read_json(a)?, &report::read_json(b)?, &bounds)?;
    print!("{table}");
    println!(
        "{}",
        if ok {
            "every pairing within its bound, no new failures"
        } else {
            "REGRESSION: a bound was exceeded or failed_share rose"
        }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let verdict = parse_args(&argv).and_then(|args| {
        if let Some((a, b)) = &args.compare {
            compare(&args, a, b)
        } else if let (Some(name), None) = (&args.workload, &args.out) {
            single(&args, name)
        } else {
            full(&args)
        }
    });
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("awr-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn driver_spelling_parses() {
        let a = args("--workload tcp_reassign --seed 9 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("tcp_reassign"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, Some(12), true));
        let a = args("--workload sim_wan_adaptive --seed 3 --seconds 10 --trace 0").unwrap();
        assert!(!a.trace);
    }

    #[test]
    fn human_spelling_parses() {
        let a = args("--seed 4 --trace --smoke --only tcp_read_mostly --out r.json").unwrap();
        assert!(a.trace && a.smoke);
        assert_eq!(a.workload.as_deref(), Some("tcp_read_mostly"));
        assert_eq!(a.out, Some(PathBuf::from("r.json")));
        assert!(args("--seconds 0").is_err());
        assert!(args("--frobnicate").is_err());
    }
}
