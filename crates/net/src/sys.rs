//! The workspace's one FFI call: `ppoll(2)`, behind a safe wrapper.
//!
//! `std` has non-blocking sockets but no way to wait on several of them;
//! the transport's readiness loop needs exactly that, with a timeout finer
//! than `poll(2)`'s milliseconds (hosts step with sub-millisecond
//! deadlines). Everything unsafe the workspace ships is in this file: the
//! `extern` declaration, two `repr(C)` structs and one call. (`ppoll` is
//! in Linux, the BSDs and illumos, not in macOS: there the crate fails to
//! link rather than fall back to something coarser.)

#![allow(unsafe_code)]

#[cfg(not(unix))]
compile_error!("awr_net waits for socket readiness with ppoll(2), which only unix has");

use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// There is data to read, a connection to accept, or end-of-stream.
pub(crate) const POLLIN: c_short = 0x001;
/// Writing will not block.
pub(crate) const POLLOUT: c_short = 0x004;

/// One entry of the poll set: `struct pollfd`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watches `fd` for `events`; a negative `fd` is an entry the kernel
    /// skips (its `revents` stays zero), which keeps a set's layout fixed.
    pub(crate) fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// What the last [`wait`] reported: the requested events that hold,
    /// and possibly `POLLERR`/`POLLHUP`/`POLLNVAL`, which are never masked.
    pub(crate) fn revents(&self) -> c_short {
        self.revents
    }
}

/// `struct timespec` as the `ppoll` symbol takes it: both fields are
/// `long` on LP64 unix and on 32-bit glibc.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Blocks until an entry of `fds` is ready or `timeout` has passed, and
/// returns how many entries have a non-zero [`PollFd::revents`] (zero on
/// timeout). `ErrorKind::Interrupted` means a signal cut the wait short.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ts = Timespec {
        // Decades are as good as forever, and no kernel rejects them.
        tv_sec: timeout.as_secs().min(i32::MAX as u64) as c_long,
        tv_nsec: c_long::from(timeout.subsec_nanos() as i32),
    };
    // SAFETY: `fds` is an exclusive borrow of `fds.len()` initialised
    // `PollFd`s, whose `repr(C)` layout is `struct pollfd`; the kernel
    // reads `fd`/`events` and writes only `revents`, within that length.
    // `ts` outlives the call and holds `0 <= tv_nsec < 10^9`. A null
    // signal mask is allowed and leaves the mask alone. A descriptor that
    // is closed or not ours cannot break memory safety: the kernel
    // answers `POLLNVAL` for it.
    let n = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    #[test]
    fn times_out_on_a_quiet_socket_and_wakes_on_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        let mut set = [PollFd::new(-1, POLLIN), PollFd::new(b.as_raw_fd(), POLLIN)];

        let started = Instant::now();
        assert_eq!(wait(&mut set, Duration::from_micros(300)).unwrap(), 0);
        assert!(started.elapsed() >= Duration::from_micros(300));

        a.write_all(b"x").unwrap();
        assert_eq!(wait(&mut set, Duration::from_secs(5)).unwrap(), 1);
        assert_eq!(set[0].revents(), 0, "negative descriptors are skipped");
        assert_ne!(set[1].revents() & POLLIN, 0);
    }

    #[test]
    fn a_fresh_connection_is_writable_and_a_closed_peer_is_readable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        let mut set = [PollFd::new(a.as_raw_fd(), POLLIN | POLLOUT)];
        assert_eq!(wait(&mut set, Duration::ZERO).unwrap(), 1);
        assert_eq!(set[0].revents() & (POLLIN | POLLOUT), POLLOUT);

        drop(b);
        let mut set = [PollFd::new(a.as_raw_fd(), POLLIN)];
        assert_eq!(wait(&mut set, Duration::from_secs(5)).unwrap(), 1);
        assert_ne!(
            set[0].revents() & POLLIN,
            0,
            "end-of-stream reads as POLLIN"
        );
    }
}
