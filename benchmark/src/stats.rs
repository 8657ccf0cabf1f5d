//! The measurement rule's arithmetic: exact quantiles over raw samples,
//! and "median of equal segments" with the spread printed beside it.
//!
//! Quantiles are taken over the raw nanosecond samples (nearest rank),
//! not a bucketed histogram: a log-bucketed p50 snaps to a bucket edge
//! and would read identically on every run.

/// Number of equal segments the measured window is cut into.
pub const SEGMENTS: usize = 5;

/// Nearest-rank quantile of an ascending slice (`None` when empty).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The values in ascending order.
pub fn sorted(values: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = values.collect();
    v.sort_unstable();
    v
}

/// Median of `vals` (mean of the two middle values for an even count).
/// Sorts in place; `None` when empty.
pub fn median(vals: &mut [f64]) -> Option<f64> {
    if vals.is_empty() {
        return None;
    }
    vals.sort_by(|a, b| a.total_cmp(b));
    let mid = vals.len() / 2;
    Some(if vals.len() % 2 == 1 {
        vals[mid]
    } else {
        (vals[mid - 1] + vals[mid]) / 2.0
    })
}

/// A reported number: the median over segments, how many raw samples
/// stand behind it, and `(max − min) / median` over the segment values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub samples: u64,
    pub spread: f64,
}

impl Stat {
    /// A single measured value with no segment structure.
    pub fn single(value: f64, samples: u64) -> Stat {
        Stat {
            value,
            samples,
            spread: 0.0,
        }
    }
}

/// Median over the segments that produced a value. `None` when no segment
/// did (the metric is undefined for this run).
pub fn over_segments(per_segment: &[Option<f64>], samples: u64) -> Option<Stat> {
    let mut vals: Vec<f64> = per_segment.iter().flatten().copied().collect();
    let value = median(&mut vals)?;
    let (lo, hi) = (vals[0], vals[vals.len() - 1]);
    Some(Stat {
        value,
        samples,
        spread: if value == 0.0 { 0.0 } else { (hi - lo) / value },
    })
}

/// `part` as a percentage of `whole` (0 when there is no whole).
pub fn percent(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// Which of `segments` equal slices of `[t0, t0 + window)` holds `t`.
pub fn segment_of(t: u64, t0: u64, window: u64, segments: usize) -> Option<usize> {
    if t < t0 || t >= t0 + window || window == 0 {
        return None;
    }
    let seg = ((t - t0) as u128 * segments as u128 / window as u128) as usize;
    Some(seg.min(segments - 1))
}

/// Per-segment quantile of latency samples, then the median of those.
/// `samples` are `(response time, latency)` pairs in nanoseconds; the
/// result is in microseconds.
pub fn latency_quantile_us(samples: &[(u64, u64)], t0: u64, window: u64, q: f64) -> Option<Stat> {
    let mut segs: Vec<Vec<u64>> = vec![Vec::new(); SEGMENTS];
    for &(at, lat) in samples {
        if let Some(s) = segment_of(at, t0, window, SEGMENTS) {
            segs[s].push(lat);
        }
    }
    let n: usize = segs.iter().map(Vec::len).sum();
    let per: Vec<Option<f64>> = segs
        .iter_mut()
        .map(|s| {
            s.sort_unstable();
            quantile_sorted(s, q).map(|ns| ns as f64 / 1e3)
        })
        .collect();
    over_segments(&per, n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), Some(50));
        assert_eq!(quantile_sorted(&v, 0.99), Some(99));
        assert_eq!(quantile_sorted(&v, 1.0), Some(100));
        assert_eq!(quantile_sorted(&v, 0.0), Some(1));
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn median_of_segments_ignores_one_outlier() {
        let segs = [Some(10.0), Some(11.0), Some(500.0), Some(9.0), Some(10.5)];
        let s = over_segments(&segs, 1234).unwrap();
        assert_eq!(s.value, 10.5);
        assert_eq!(s.samples, 1234);
        assert!((s.spread - (500.0 - 9.0) / 10.5).abs() < 1e-12);
    }

    #[test]
    fn undefined_segments_are_skipped() {
        assert_eq!(over_segments(&[None, None], 0), None);
        let s = over_segments(&[None, Some(4.0), Some(2.0), None], 2).unwrap();
        assert_eq!(s.value, 3.0);
    }

    #[test]
    fn segments_partition_the_window() {
        let (t0, w) = (1_000, 500);
        assert_eq!(segment_of(999, t0, w, 5), None);
        assert_eq!(segment_of(1_000, t0, w, 5), Some(0));
        assert_eq!(segment_of(1_099, t0, w, 5), Some(0));
        assert_eq!(segment_of(1_100, t0, w, 5), Some(1));
        assert_eq!(segment_of(1_499, t0, w, 5), Some(4));
        assert_eq!(segment_of(1_500, t0, w, 5), None);
    }

    #[test]
    fn latency_quantile_is_median_of_segment_quantiles() {
        // Segment i (100 ns wide) holds latencies (i+1)*1000 .. +9.
        let mut samples = Vec::new();
        for seg in 0..5u64 {
            for k in 0..10u64 {
                samples.push((seg * 100 + k, (seg + 1) * 1_000 + k));
            }
        }
        let s = latency_quantile_us(&samples, 0, 500, 0.5).unwrap();
        assert_eq!(s.samples, 50);
        assert!((s.value - 3.004).abs() < 1e-9, "{}", s.value);
    }
}
