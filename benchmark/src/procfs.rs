//! Process-level readings from `/proc/self` (Linux; zeros elsewhere).

use std::fs;

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM:"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// User + system CPU seconds consumed by the whole process so far.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the
    // parenthesised command name; in clock ticks of 1/100 s (USER_HZ is
    // fixed at 100 on Linux).
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some(after) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let f: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Voluntary + involuntary context switches summed over the live threads.
pub fn context_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches:").unwrap_or(0)
                + status_field(&s, "nonvoluntary_ctxt_switches:").unwrap_or(0)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_fields() {
        let s = "Name:\tx\nVmHWM:\t    2048 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(s, "VmHWM:"), Some(2048));
        assert_eq!(status_field(s, "voluntary_ctxt_switches:"), Some(7));
        assert_eq!(status_field(s, "Missing:"), None);
    }
}
