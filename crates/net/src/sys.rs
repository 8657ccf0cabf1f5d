//! The workspace's FFI: Linux `epoll(7)`, behind a safe wrapper.
//!
//! `std` has non-blocking sockets but no way to wait on several of them;
//! the transport's readiness loop needs exactly that, with a timeout finer
//! than `epoll_wait(2)`'s milliseconds (hosts step with sub-millisecond
//! deadlines), hence `epoll_pwait2(2)` and its `timespec`. A socket is
//! registered once and a wait returns only the sockets that are ready, so
//! a turn costs what is ready, not what is open. Everything unsafe the
//! workspace ships is in this file: three `extern` functions and their
//! calls, two `repr(C)` structs, and taking ownership of the descriptor
//! `epoll_create1` returns. (epoll is Linux's: on other targets the crate
//! fails to compile rather than fall back to something slower.)

#![allow(unsafe_code)]

#[cfg(not(target_os = "linux"))]
compile_error!("awr_net waits for socket readiness with epoll(7), which only Linux has");

use std::ffi::{c_int, c_long, c_void};
use std::io;
use std::os::fd::{AsFd, AsRawFd, FromRawFd, OwnedFd};
use std::time::Duration;

/// There is data to read, a connection to accept, or end-of-stream.
pub(crate) const EPOLLIN: u32 = 0x001;
/// Writing will not block.
pub(crate) const EPOLLOUT: u32 = 0x004;

const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_MOD: c_int = 3;

/// One readiness report: `struct epoll_event`, which the kernel packs on
/// x86-64 (a `u64` at offset 4) and lays out naturally elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub(crate) struct EpollEvent {
    events: u32,
    data: u64,
}

// A layout the kernel does not share would be read and written out of
// step with it: 12 bytes on x86-64, and `data` at a `u64`'s alignment on
// every other target (16 bytes where that is 8).
const _: () = assert!(
    std::mem::size_of::<EpollEvent>()
        == if cfg!(target_arch = "x86_64") {
            12
        } else {
            8 + std::mem::align_of::<u64>()
        }
);

impl EpollEvent {
    /// The events that hold: those registered, plus `EPOLLERR` (0x008) and
    /// `EPOLLHUP` (0x010), which are never masked.
    pub(crate) fn events(&self) -> u32 {
        self.events
    }

    /// The token the socket was registered under.
    pub(crate) fn token(&self) -> u64 {
        self.data
    }
}

/// `struct timespec` as the `epoll_pwait2` symbol takes it: both fields
/// are `long` on LP64 Linux and on 32-bit glibc.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_pwait2(
        epfd: c_int,
        events: *mut EpollEvent,
        maxevents: c_int,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// A libc return value as a `Result`: negative means `errno` is set.
fn check(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// A level-triggered interest set. A socket stays in it until the last
/// descriptor of that socket is closed: dropping the (only) `TcpStream`
/// is how a socket leaves.
pub(crate) struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// An empty set, whose descriptor is closed on `exec`.
    pub(crate) fn new() -> io::Result<Epoll> {
        // SAFETY: no pointers; a non-negative return is a fresh descriptor
        // that nothing else owns.
        let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: `fd` was just returned open and is owned by no one else.
        Ok(Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: c_int, fd: impl AsFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `event` is an initialised `struct epoll_event` that
        // outlives the call, which only reads it; both descriptors are
        // borrowed, so open for its duration.
        check(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd.as_fd().as_raw_fd(), &mut event) })
            .map(drop)
    }

    /// Watches `fd` for `events`; a wait reports it under `token`.
    pub(crate) fn add(&self, fd: impl AsFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes what an added `fd` is watched for.
    pub(crate) fn modify(&self, fd: impl AsFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Blocks until a watched socket is ready or `timeout` has passed, and
    /// returns how many reports it wrote to the front of `events` (zero on
    /// timeout) — at most `events.len()`; the rest stay ready for the next
    /// wait. `ErrorKind::Interrupted` means a signal cut the wait short.
    pub(crate) fn wait(&self, events: &mut [EpollEvent], timeout: Duration) -> io::Result<usize> {
        let ts = Timespec {
            // Decades are as good as forever, and no kernel rejects them.
            tv_sec: timeout.as_secs().min(i32::MAX as u64) as c_long,
            tv_nsec: c_long::from(timeout.subsec_nanos() as i32),
        };
        let max = events.len().min(c_int::MAX as usize) as c_int;
        // SAFETY: `events` is an exclusive borrow of initialised
        // `EpollEvent`s, whose layout is `struct epoll_event` (checked
        // above); the kernel writes at most `max <= events.len()` of them.
        // `ts` outlives the call and holds `0 <= tv_nsec < 10^9`. A null
        // signal mask leaves the mask alone.
        let n = check(unsafe {
            epoll_pwait2(
                self.fd.as_raw_fd(),
                events.as_mut_ptr(),
                max,
                &ts,
                std::ptr::null(),
            )
        })?;
        Ok(n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn times_out_on_a_quiet_socket_and_wakes_on_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(&listener, EPOLLIN, 1).unwrap();
        epoll.add(&b, EPOLLIN, 2).unwrap();
        let mut events = [EpollEvent::default(); 4];

        let started = Instant::now();
        let n = epoll.wait(&mut events, Duration::from_micros(300)).unwrap();
        assert_eq!(n, 0);
        assert!(started.elapsed() >= Duration::from_micros(300));

        a.write_all(b"x").unwrap();
        let n = epoll.wait(&mut events, Duration::from_secs(5)).unwrap();
        assert_eq!(n, 1, "the quiet listener is not reported");
        assert_eq!(events[0].token(), 2);
        assert_ne!(events[0].events() & EPOLLIN, 0);
    }

    #[test]
    fn a_fresh_connection_is_writable_and_a_closed_peer_is_readable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        let epoll = Epoll::new().unwrap();
        let mut events = [EpollEvent::default(); 4];
        epoll.add(&a, EPOLLIN, 7).unwrap();
        let n = epoll.wait(&mut events, Duration::ZERO).unwrap();
        assert_eq!(n, 0, "writable, but EPOLLOUT is not registered");

        epoll.modify(&a, EPOLLIN | EPOLLOUT, 7).unwrap();
        assert_eq!(epoll.wait(&mut events, Duration::ZERO).unwrap(), 1);
        assert_eq!(events[0].token(), 7);
        assert_eq!(events[0].events() & (EPOLLIN | EPOLLOUT), EPOLLOUT);

        epoll.modify(&a, EPOLLIN, 7).unwrap();
        assert_eq!(epoll.wait(&mut events, Duration::ZERO).unwrap(), 0);

        drop(b);
        assert_eq!(epoll.wait(&mut events, Duration::from_secs(5)).unwrap(), 1);
        assert_ne!(
            events[0].events() & EPOLLIN,
            0,
            "end-of-stream reads as EPOLLIN"
        );

        // Level-triggered, the closed peer would be reported again; closing
        // the socket takes it out of the set instead.
        drop(a);
        assert_eq!(epoll.wait(&mut events, Duration::ZERO).unwrap(), 0);
    }
}
