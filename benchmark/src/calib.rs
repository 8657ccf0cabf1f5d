//! The calibrated clock: wall-clock times scaled by how fast the host was
//! running while they were measured.
//!
//! The sizing machine is two vCPUs of a shared host, and it has two
//! speeds. For seconds to minutes at a time a vCPU does the same work in
//! about 1.5× the CPU time — no steal is reported, user + system time of
//! the process is unchanged, there is simply less done per tick (a busy
//! sibling hyperthread or a contended cache, most likely). Every
//! wall-clock metric of a closed-loop run follows that factor, so ten runs
//! of the same code spread by 20–30 % and no statistic inside a run helps:
//! a slow stretch is often longer than the run.
//!
//! What does help is measuring the factor while the run goes on. Every
//! [`SAMPLE_EVERY_NS`] a [`Calibrator`] does a fixed piece of work of the
//! same nature as the workloads — [`ROUND_TRIPS`] round trips of 128 bytes
//! over a loopback TCP connection whose two ends it both holds, so system
//! calls and the kernel's TCP path with no context switch — and times it
//! on its **thread's CPU clock**, which does not count the time the
//! nodes' threads ran in between. The result, divided by
//! [`REFERENCE_ROUND_TRIP_NS`], is the host's **slowness** at that
//! moment: 1.0 on the sizing machine undisturbed, ~1.5 in a slow stretch.
//! A [`SpeedLog`] keeps the samples; a duration measured at time `t` is
//! divided by the slowness at `t`, and a stretch of the run counts for as
//! many **calibrated seconds** as it would have taken at slowness 1.
//! Over 1-second stretches of `tcp_read_mostly`, throughput × slowness
//! varies by 3.5 % where throughput alone varies by 10 %; ten 20-second
//! runs spread (interquartile range / median) by 2–3 % instead of 10–14 %.
//! The simulator workload follows the same sample just as closely, so one
//! calibrator serves all four workloads.
//!
//! For the calibrator to see the speed the workload sees, the whole
//! process is pinned to one CPU ([`pin_to_one_cpu`]). The closed-loop
//! clusters are mostly serial — throughput on one CPU equals or beats
//! throughput on two, where every hand-off between threads is a
//! cross-CPU wake-up — so this costs nothing and removes a second source
//! of spread (which vCPU is slow, and who runs where).
//!
//! Set-up of a cluster is short, and part of it is waiting (threads
//! starting, dials, polls) which does not follow the host's speed, so
//! there only the CPU time is calibrated ([`calibrated_s`]).
//!
//! The calibrator touches no code of the repository: a change to the
//! program moves the operations done per calibrated second and cannot
//! move the calibration.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

/// One calibration sample is taken this often.
pub const SAMPLE_EVERY_NS: u64 = 100_000_000;
/// Loopback round trips per sample (~1 ms of CPU: 1 % of the run).
const ROUND_TRIPS: u32 = 200;
/// CPU time of one round trip on the sizing machine, undisturbed. It only
/// fixes the unit: any constant gives the same spreads and ratios.
const REFERENCE_ROUND_TRIP_NS: f64 = 5_000.0;

#[cfg(target_os = "linux")]
mod sys {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    /// Room for 1 024 CPUs, the size of glibc's `cpu_set_t`.
    const MASK_WORDS: usize = 16;

    // Declared here because no `libc` crate is vendored; the symbols come
    // from the C library `std` already links.
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    fn cpu_ns(clock: i32) -> Option<u64> {
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
        // fields on every 64-bit Linux target) for the duration of the call.
        let rc = unsafe { clock_gettime(clock, &mut ts) };
        (rc == 0).then(|| ts.sec as u64 * 1_000_000_000 + ts.nsec as u64)
    }

    pub fn thread_cpu_ns() -> Option<u64> {
        cpu_ns(CLOCK_THREAD_CPUTIME_ID)
    }

    pub fn process_cpu_ns() -> Option<u64> {
        cpu_ns(CLOCK_PROCESS_CPUTIME_ID)
    }

    pub fn pin_to_one_cpu() -> Option<usize> {
        let mut mask = [0u64; MASK_WORDS];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is `size` writable bytes; pid 0 is this thread.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        // The highest CPU allowed: interrupts and whatever else the
        // machine runs tend to land on the lowest.
        let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
        let bit = 63 - bits.leading_zeros() as usize;
        let mut one = [0u64; MASK_WORDS];
        one[word] = 1 << bit;
        // SAFETY: `one` is `size` readable bytes; pid 0 is this thread.
        (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(word * 64 + bit)
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn thread_cpu_ns() -> Option<u64> {
        None
    }
    pub fn process_cpu_ns() -> Option<u64> {
        None
    }
    pub fn pin_to_one_cpu() -> Option<usize> {
        None
    }
}

/// Restricts the calling thread — and every thread it starts from now
/// on — to one CPU. Returns which, or `None` where that is not possible
/// (the run then goes on unpinned and says so).
pub fn pin_to_one_cpu() -> Option<usize> {
    sys::pin_to_one_cpu()
}

/// CPU time of the calling thread; the wall clock where the platform has
/// no per-thread CPU clock.
fn thread_cpu_ns() -> u64 {
    sys::thread_cpu_ns().unwrap_or_else(crate::trace::now_ns)
}

/// CPU time of the whole process so far (0 where the platform does not
/// say, which leaves [`calibrated_s`] on the wall clock).
pub fn process_cpu_ns() -> u64 {
    sys::process_cpu_ns().unwrap_or(0)
}

/// A stretch of `wall_s` seconds of which the process computed for
/// `cpu_s` (all of it on the one CPU it is pinned to) and waited for the
/// rest, as it would read at slowness 1: the computing is divided by the
/// slowness, the waiting is not.
pub fn calibrated_s(wall_s: f64, cpu_s: f64, slowness: f64) -> f64 {
    let cpu_s = cpu_s.clamp(0.0, wall_s);
    (wall_s - cpu_s) + cpu_s / slowness
}

/// Does the fixed piece of work and says how slow the host did it.
pub struct Calibrator {
    near: TcpStream,
    far: TcpStream,
}

impl Calibrator {
    pub fn new() -> Result<Calibrator, String> {
        let err = |e: std::io::Error| format!("calibrator: {e}");
        let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
        let near = TcpStream::connect(listener.local_addr().map_err(err)?).map_err(err)?;
        let (far, _) = listener.accept().map_err(err)?;
        near.set_nodelay(true).map_err(err)?;
        far.set_nodelay(true).map_err(err)?;
        Ok(Calibrator { near, far })
    }

    /// The host's slowness now: CPU time per loopback round trip over the
    /// reference. Takes about a millisecond of CPU.
    pub fn sample(&mut self) -> f64 {
        let mut buf = [0u8; 128];
        let started = thread_cpu_ns();
        for _ in 0..ROUND_TRIPS {
            // Loopback delivers inside `write`, so each read finds its
            // bytes waiting and the thread never blocks. An I/O error
            // here cannot be survived: the run has no clock without it.
            self.near.write_all(&buf).expect("calibrator write");
            self.far.read_exact(&mut buf).expect("calibrator read");
            self.far.write_all(&buf).expect("calibrator write");
            self.near.read_exact(&mut buf).expect("calibrator read");
        }
        let cpu_ns = thread_cpu_ns().saturating_sub(started).max(1);
        cpu_ns as f64 / (ROUND_TRIPS as f64 * REFERENCE_ROUND_TRIP_NS)
    }
}

/// Slowness samples over a stretch of the process clock, in time order.
#[derive(Clone, Debug, Default)]
pub struct SpeedLog {
    /// `(when on the `now_ns()` clock, slowness)`.
    samples: Vec<(u64, f64)>,
}

impl SpeedLog {
    pub fn push(&mut self, at_ns: u64, slowness: f64) {
        debug_assert!(self.samples.last().is_none_or(|(t, _)| *t <= at_ns));
        self.samples.push((at_ns, slowness));
    }

    /// Takes one sample now, stamped with the middle of the stretch it
    /// took (on a busy CPU the millisecond of work is spread over ten).
    pub fn sample(&mut self, calibrator: &mut Calibrator) {
        let started = crate::trace::now_ns();
        let slowness = calibrator.sample();
        self.push(started + (crate::trace::now_ns() - started) / 2, slowness);
    }

    /// Replaces every sample by the median of itself and its two
    /// neighbours. A sample that the host interrupts (a few milliseconds
    /// stolen in the middle of one millisecond of work) reads several
    /// times too slow for a stretch that lost a few percent; slow
    /// stretches proper last many samples and keep their edges.
    pub fn despike(&mut self) {
        let raw: Vec<f64> = self.samples.iter().map(|(_, s)| *s).collect();
        for (i, w) in raw.windows(3).enumerate() {
            let mut w = [w[0], w[1], w[2]];
            w.sort_by(f64::total_cmp);
            self.samples[i + 1].1 = w[1];
        }
    }

    /// Slowness at `t`: linear between the two samples around it, the
    /// nearest sample outside their range, 1 with no samples at all.
    pub fn slowness_at(&self, t: u64) -> f64 {
        let after = self.samples.partition_point(|(at, _)| *at <= t);
        let before = after.checked_sub(1).map(|i| self.samples[i]);
        match (before, self.samples.get(after).copied()) {
            (None, None) => 1.0,
            (Some((_, s)), None) | (None, Some((_, s))) => s,
            (Some((t0, s0)), Some((t1, s1))) => {
                s0 + (s1 - s0) * ((t - t0) as f64 / (t1 - t0).max(1) as f64)
            }
        }
    }

    /// A duration of `ns` measured at `t`, as it would read at slowness 1.
    pub fn scale(&self, t: u64, ns: u64) -> f64 {
        ns as f64 / self.slowness_at(t)
    }

    /// Calibrated seconds in `[from, to)`: the integral of 1 / slowness,
    /// by the trapezoid rule over the samples inside.
    pub fn calibrated_seconds(&self, from: u64, to: u64) -> f64 {
        if to <= from {
            return 0.0;
        }
        let inside = self
            .samples
            .iter()
            .map(|(at, _)| *at)
            .filter(|at| *at > from && *at < to);
        let mut total = 0.0;
        let (mut t0, mut v0) = (from, 1.0 / self.slowness_at(from));
        for t1 in inside.chain(std::iter::once(to)) {
            let v1 = 1.0 / self.slowness_at(t1);
            total += (t1 - t0) as f64 / 1e9 * (v0 + v1) / 2.0;
            (t0, v0) = (t1, v1);
        }
        total
    }

    /// Median and range of the samples in `[from, to)`, for the output.
    pub fn summary(&self, from: u64, to: u64) -> Option<(f64, f64, f64)> {
        let mut inside: Vec<f64> = self
            .samples
            .iter()
            .filter(|(at, _)| *at >= from && *at < to)
            .map(|(_, s)| *s)
            .collect();
        let median = crate::stats::median(&mut inside)?;
        Some((median, inside[0], inside[inside.len() - 1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(samples: &[(u64, f64)]) -> SpeedLog {
        let mut l = SpeedLog::default();
        for (at, s) in samples {
            l.push(*at, *s);
        }
        l
    }

    #[test]
    fn slowness_interpolates_and_clamps() {
        assert_eq!(SpeedLog::default().slowness_at(5), 1.0);
        let l = log(&[(100, 1.0), (200, 2.0), (400, 1.0)]);
        assert_eq!(l.slowness_at(0), 1.0);
        assert_eq!(l.slowness_at(100), 1.0);
        assert!((l.slowness_at(150) - 1.5).abs() < 1e-12);
        assert_eq!(l.slowness_at(200), 2.0);
        assert!((l.slowness_at(300) - 1.5).abs() < 1e-12);
        assert_eq!(l.slowness_at(9_999), 1.0);
        assert!((l.scale(200, 3_000) - 1_500.0).abs() < 1e-9);
    }

    #[test]
    fn despike_drops_lone_outliers_and_keeps_steps() {
        let mut l = log(&[
            (0, 1.0),
            (1, 9.0),
            (2, 1.1),
            (3, 1.5),
            (4, 1.6),
            (5, 1.5),
            (6, 0.2),
        ]);
        l.despike();
        let got: Vec<f64> = l.samples.iter().map(|(_, s)| *s).collect();
        assert_eq!(got, [1.0, 1.1, 1.5, 1.5, 1.5, 1.5, 0.2]);
    }

    #[test]
    fn calibrated_seconds_integrate_the_speed() {
        // Constant slowness 2: every second counts for half.
        let l = log(&[(0, 2.0), (4_000_000_000, 2.0)]);
        assert!((l.calibrated_seconds(0, 4_000_000_000) - 2.0).abs() < 1e-12);
        assert!((l.calibrated_seconds(1_000_000_000, 2_000_000_000) - 0.5).abs() < 1e-12);
        assert_eq!(l.calibrated_seconds(5, 5), 0.0);
        // Speed 1 → 0.5 linearly in slowness 1 → 2 is not linear in speed,
        // but the trapezoid over the two end points is what is computed.
        let l = log(&[(0, 1.0), (1_000_000_000, 2.0)]);
        assert!((l.calibrated_seconds(0, 1_000_000_000) - 0.75).abs() < 1e-12);
        // No samples: the wall clock.
        assert!((SpeedLog::default().calibrated_seconds(0, 3_000_000_000) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_covers_the_samples_inside() {
        let l = log(&[(10, 1.0), (20, 1.6), (30, 1.2), (40, 9.0)]);
        assert_eq!(l.summary(10, 40), Some((1.2, 1.0, 1.6)));
        assert_eq!(l.summary(50, 60), None);
    }

    #[test]
    fn only_the_computing_part_is_calibrated() {
        assert_eq!(calibrated_s(4.0, 2.0, 2.0), 3.0);
        assert_eq!(calibrated_s(4.0, 0.0, 2.0), 4.0);
        // More CPU than wall (not pinned after all): all of it computing.
        assert_eq!(calibrated_s(4.0, 6.0, 2.0), 2.0);
    }

    #[test]
    fn calibrator_reports_a_positive_finite_slowness() {
        let mut c = Calibrator::new().unwrap();
        let s = c.sample();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
