//! # awr-bench — experiment harnesses
//!
//! The paper-figure binaries whose claims still wait on other work
//! (`e3_flexibility`, `e4_reductions`, `e9_consensus_stall`, `e11_quorum`),
//! the `bench_*` writers whose files hold wall-clock numbers
//! (`bench_changeset`) or fail at full size (`bench_placement`), and the
//! criterion micro-benchmarks. The deterministic claims of the other
//! experiments, the open-loop knee curves and the durability soak among
//! them, are tier-1 tests under `tests/`. This library holds
//! the shared table-printing and statistics helpers, and the naive change
//! set `bench_changeset` compares against.

// stdout is this target's interface; exempt from the workspace print lint.
#![allow(clippy::print_stdout)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod naive_changeset;

/// Prints a fixed-width table: a header row, then rows of cells.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!(" {:<width$} |", c, width = widths[i]));
        }
        out
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", line(&header_cells));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", line(&sep));
    for row in rows {
        println!("{}", line(row));
    }
}

/// Simple summary statistics over a sample.
#[derive(Clone, Debug, PartialEq)]
pub struct Stats {
    /// Sample count.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// 50th percentile.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Stats {
    /// Computes statistics; returns zeros for an empty sample.
    pub fn of(samples: &[f64]) -> Stats {
        if samples.is_empty() {
            return Stats {
                count: 0,
                mean: 0.0,
                min: 0.0,
                max: 0.0,
                p50: 0.0,
                p99: 0.0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let pct = |p: f64| {
            let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
            sorted[idx]
        };
        Stats {
            count: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            min: sorted[0],
            max: *sorted.last().unwrap(),
            p50: pct(0.5),
            p99: pct(0.99),
        }
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basics() {
        let s = Stats::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!(s.p50 >= 2.0 && s.p50 <= 3.0);
    }

    #[test]
    fn stats_empty() {
        assert_eq!(Stats::of(&[]).count, 0);
    }

    #[test]
    fn table_prints() {
        print_table("demo", &["a", "b"], &[vec!["1".into(), "2".into()]]);
    }
}
