//! The socket-mesh [`Transport`]: one endpoint per actor, TCP links
//! between them, and **no thread of its own** — the node's thread, which
//! already sits in [`Transport::recv_timeout`], is the event loop.
//!
//! Topology: every node — server or client — **listens**, and every
//! message travels on a connection *dialed by its sender*, lazily, on the
//! first send to that peer. A connection opens with the
//! [hello](crate::frame::write_hello) naming the dialer and then carries
//! [frames](crate::frame) one way only: accepted connections are
//! receive-only.
//!
//! # The readiness loop
//!
//! A [`TcpTransport`] owns its listener, the sockets it accepted and the
//! sockets it dialed, all non-blocking, and one `epoll(7)` set (the
//! crate's private `sys` module — Linux only) in which each of them is
//! registered once: the listener at start, a dialed socket when it is
//! dialed, an accepted one when it is accepted. Closing a socket is
//! dropping it, which takes it out of the set. `recv_timeout` runs turns;
//! a turn is one wait that returns only the sockets that are ready, after
//! which it
//!
//! * reads each readable accepted socket once into that connection's
//!   buffer and parses the hello and every whole frame out of it — a
//!   message is decoded ([`Wire::get`]) straight out of that buffer, on
//!   the thread that will handle it, with no hand-off and no
//!   intermediate tree in between;
//! * flushes each dialed socket that reports `EPOLLOUT`, and discards a
//!   dialed socket whose peer has closed it. A dialed socket is watched
//!   for `EPOLLIN` (how a hang-up shows) always and for `EPOLLOUT` only
//!   while it has a write backlog: one `epoll_ctl` when a backlog appears
//!   and one when it is gone, none while sends go straight out;
//! * accepts whatever the listener has pending.
//!
//! Decoded messages queue in arrival order, which is FIFO per link
//! because a link is one connection at a time and a connection's bytes
//! are parsed in order. The kernel reports ready sockets in no particular
//! order, so a turn marks the ready accepted sockets and then reads them
//! in accept order: after a reconnect, what is left of the sender's
//! previous connection is read before the new one. A corrupt, oversized
//! or truncated frame, a bad hello or an id outside the mesh closes
//! **that connection** and nothing else; an `accept` error
//! (`ECONNABORTED`, `EMFILE`, …) skips that attempt and the listener stays
//! in the set.
//!
//! # Sending never blocks in a write
//!
//! `send` encodes the frame ([`Wire::put`]) straight into the peer's
//! write buffer — no allocation once the buffer has grown — and writes
//! as much as the socket takes. What is left is the **backlog**,
//! flushed by later turns of the loop. Nobody else drains this node's
//! sockets, so a blocking write could deadlock two nodes shipping each
//! other frames larger than the kernel's buffers; instead, while a peer's
//! backlog is above [`HIGH_WATER`] `send` runs turns of the same loop —
//! reading inbound, flushing outbound — until the peer has taken enough
//! or its connection has died. Memory per peer is bounded by the mark
//! plus one frame, and two nodes over the mark toward each other drain
//! each other.
//!
//! Each frame is written when it is sent; sends are not gathered into one
//! write per callback. Counted over 6 s of each TCP benchmark workload, a
//! frame followed another to the same peer within one callback 0, 2 and
//! about 90 times in half a million or more: there is nothing to batch.
//!
//! # The transport contract
//!
//! * **FIFO per directed link** — as above;
//! * **best-effort send, crash-model drops** — a send to a peer that
//!   cannot be dialed within the [`Reconnect`] budget is dropped and
//!   counted, like traffic to a crashed process; a write error redials
//!   once. The backlog of a connection that dies is lost with it, as
//!   bytes in a kernel buffer would be, and so is the backlog of a
//!   transport that is dropped;
//! * **no duplication** — a reconnect opens a fresh connection and only
//!   the frame being sent goes out on it.
//!
//! The transport meters what actually crosses the wire: per-kind frame
//! counts and frame bytes on the send side ([`TcpTransport::sent_frames`])
//! and aggregate receive counters. The hosting `NodeHost` independently
//! meters the same sends by [`Message::wire_size`], which is what the
//! simulator charges — the two views together let the demo cross-validate
//! the sim's byte accounting against real sockets.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use awr_sim::{ActorId, KindStats, Message, Transport};
use awr_types::wire::{decode_frame, encode_frame_into, FrameError, Wire, MAX_FRAME};

use crate::frame::{read_hello, write_hello, HELLO_LEN};
use crate::sys::{Epoll, EpollEvent, EPOLLIN, EPOLLOUT};

/// Write backlog toward one peer above which [`Transport::send`] stops
/// returning at once and drives the readiness loop until the peer has
/// taken some. One maximal frame always fits under it.
pub const HIGH_WATER: usize = MAX_FRAME;

/// Bytes asked of a socket per read. Every whole frame of a read is
/// decoded before the first is handled, and a decoded message can be far
/// larger than its frame (a `CsRef::Full` of 200 changes: 1.2 KB on the
/// wire, 54 KB as a `ChangeSet`), so this also bounds what a backlog of
/// such frames holds decoded at once — the answers of a server that had
/// lagged behind its client, say. Frames longer than a read collect in
/// the connection's buffer.
const READ_CHUNK: usize = 16 << 10;

/// Capacity a connection's buffer keeps once it has emptied; what a burst
/// grew beyond that is given back.
const KEEP_CAPACITY: usize = 64 << 10;

/// Accept attempts per turn. Bounds the spin when `accept` keeps failing
/// with the connection still queued (`EMFILE`).
const ACCEPT_BURST: usize = 64;

/// Readiness reports one wait returns at most. Sockets left out are
/// still ready, so the next wait reports them (the set is
/// level-triggered).
const EVENT_BATCH: usize = 64;

/// The token a wait reports the listener under. A dialed socket's token
/// is its peer's index, an accepted socket's `INBOUND` plus its place in
/// accept order.
const LISTENER: u64 = u64::MAX;
const INBOUND: u64 = 1 << 63;

/// Dial-retry policy of a [`TcpTransport`].
#[derive(Clone, Copy, Debug)]
pub struct Reconnect {
    /// Dial attempts per send before the message is dropped.
    pub attempts: u32,
    /// Pause between attempts.
    pub backoff: Duration,
}

impl Default for Reconnect {
    fn default() -> Reconnect {
        Reconnect {
            attempts: 5,
            backoff: Duration::from_millis(40),
        }
    }
}

/// Send-side counters of a [`TcpTransport`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolStats {
    /// Frames accepted for a live connection (written, or in its backlog).
    pub frames_sent: u64,
    /// Total bytes of those frames (header + version + payload).
    pub frame_bytes_sent: u64,
    /// Messages dropped after the reconnect budget was exhausted.
    pub dropped: u64,
    /// Successful dials (first connections and reconnects).
    pub dials: u64,
}

/// The outbound half of a link: the socket this node dialed, if it is up,
/// and the bytes not yet written to it. `wbuf` is empty whenever `stream`
/// is `None`, except inside `send`.
struct Peer {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    wbuf: Vec<u8>,
    /// `wbuf[..wpos]` has been written already.
    wpos: usize,
    /// `stream` is watched for `EPOLLOUT` as well as `EPOLLIN`.
    watching_out: bool,
}

impl Peer {
    fn backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Writes backlog until it is gone or the socket would block. An
    /// error means the connection is dead.
    fn flush(&mut self) -> io::Result<()> {
        let Some(stream) = self.stream.as_mut() else {
            return Ok(());
        };
        while self.wpos < self.wbuf.len() {
            match stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    // Give the written prefix back once it outweighs
                    // what is left: each byte is moved at most once.
                    if self.wpos > self.backlog() {
                        self.wbuf.drain(..self.wpos);
                        self.wpos = 0;
                    }
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.wbuf.clear();
        self.wbuf.shrink_to(KEEP_CAPACITY);
        self.wpos = 0;
        Ok(())
    }

    /// Forgets the connection and everything queued on it except the last
    /// `keep` bytes of the buffer (the frame a `send` is about to retry).
    /// Dropping the socket takes it out of the epoll set.
    fn close(&mut self, keep: usize) {
        self.stream = None;
        self.watching_out = false;
        self.wbuf.drain(..self.wbuf.len() - keep);
        self.wpos = 0;
    }

    /// Watches the socket for `EPOLLOUT` exactly while it has a backlog,
    /// so a wait neither misses the moment it can be flushed nor wakes for
    /// a socket with nothing to write. `token` is this peer's.
    fn watch_backlog(&mut self, epoll: &Epoll, token: u64) {
        let Some(stream) = &self.stream else {
            return;
        };
        let want = self.backlog() > 0;
        if want == self.watching_out {
            return;
        }
        let interest = if want { EPOLLIN | EPOLLOUT } else { EPOLLIN };
        match epoll.modify(stream, interest, token) {
            Ok(()) => self.watching_out = want,
            // Unwatched, a backlog would never leave; watched for nothing
            // to write, the socket would wake every wait.
            Err(_) => self.close(0),
        }
    }

    /// Services a dialed socket that a wait reported as readable, hung
    /// up or in error: the accepting side never writes, so all there is
    /// to learn is whether the peer is still there.
    fn check_alive(&mut self, scratch: &mut [u8]) {
        let Some(stream) = self.stream.as_mut() else {
            return;
        };
        match stream.read(scratch) {
            Ok(n) if n > 0 => {} // not ours to interpret
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Ok(_) | Err(_) => self.close(0),
        }
    }
}

/// The inbound half of a link: an accepted socket, who dialed it (once
/// the hello is in), and the bytes read but not yet parsed.
struct Inbound {
    stream: TcpStream,
    /// What a wait reports this socket under; increases in accept order.
    token: u64,
    /// The last wait reported this socket.
    ready: bool,
    from: Option<ActorId>,
    rbuf: Vec<u8>,
}

impl Inbound {
    /// Reads once and hands every whole frame now buffered to `deliver`
    /// (sender, message, frame size). An error — end of stream included —
    /// means the connection is finished.
    fn pump<M: Wire>(
        &mut self,
        scratch: &mut [u8],
        n_actors: usize,
        mut deliver: impl FnMut(ActorId, M, usize),
    ) -> Result<(), FrameError> {
        match self.stream.read(scratch) {
            Ok(0) if self.rbuf.is_empty() => return Err(FrameError::Closed),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => self.rbuf.extend_from_slice(&scratch[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                return Ok(());
            }
            Err(e) => return Err(e.into()),
        }
        let mut pos = 0;
        let from = match self.from {
            Some(from) => from,
            None if self.rbuf.len() < HELLO_LEN => return Ok(()),
            None => {
                let from = read_hello(&mut &self.rbuf[..])?;
                if from.index() >= n_actors {
                    return Err(FrameError::Codec("hello from outside the mesh"));
                }
                self.from = Some(from);
                pos = HELLO_LEN;
                from
            }
        };
        while let Some((msg, used)) = decode_frame::<M>(&self.rbuf[pos..])? {
            pos += used;
            deliver(from, msg, used);
        }
        self.rbuf.drain(..pos);
        if self.rbuf.is_empty() {
            self.rbuf.shrink_to(KEEP_CAPACITY);
        }
        Ok(())
    }
}

/// A node's endpoint in the TCP mesh. See the [module docs](self).
///
/// Build one with [`TcpTransport::start`] from a bound listener and the
/// full mesh address list, then hand it to an `awr_sim::NodeHost`.
/// Dropping the transport closes the listener and every connection.
pub struct TcpTransport<M> {
    me: ActorId,
    reconnect: Reconnect,
    listener: TcpListener,
    peers: Vec<Peer>,
    /// Accepted sockets, in accept order.
    inbound: Vec<Inbound>,
    /// Connections accepted so far: the next accepted socket's token.
    accepted: u64,
    /// Decoded and not yet handed out, in arrival order.
    ready: VecDeque<(ActorId, M)>,
    /// Every socket above, registered once.
    epoll: Epoll,
    events: Box<[EpollEvent]>,
    scratch: Box<[u8]>,
    sent_frames: KindStats,
    /// Drops and dials only: `pool_stats` reads the frame counts off
    /// `sent_frames`.
    stats: PoolStats,
    frames_received: u64,
    frame_bytes_received: u64,
}

impl<M: Message + Wire> fmt::Debug for TcpTransport<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpTransport")
            .field("me", &self.me)
            .field("n_actors", &self.peers.len())
            .field("accepted", &self.inbound.len())
            .field("ready", &self.ready.len())
            .field("stats", &self.pool_stats())
            .finish_non_exhaustive()
    }
}

impl<M> TcpTransport<M>
where
    M: Message + Wire,
{
    /// Starts the endpoint for `me` on `listener` (which must already be
    /// bound; `127.0.0.1:0` then [`TcpListener::local_addr`] is the usual
    /// dance) with one peer slot per entry of `addrs`, where `addrs[i]`
    /// is the listener of [`ActorId`]`(i)`. Nothing is dialed until the
    /// first send.
    pub fn start(
        me: ActorId,
        listener: TcpListener,
        addrs: Vec<SocketAddr>,
    ) -> io::Result<TcpTransport<M>> {
        TcpTransport::start_with(me, listener, addrs, Reconnect::default())
    }

    /// [`TcpTransport::start`] with an explicit reconnect policy.
    pub fn start_with(
        me: ActorId,
        listener: TcpListener,
        addrs: Vec<SocketAddr>,
        reconnect: Reconnect,
    ) -> io::Result<TcpTransport<M>> {
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        epoll.add(&listener, EPOLLIN, LISTENER)?;
        let peers = addrs
            .into_iter()
            .map(|addr| Peer {
                addr,
                stream: None,
                wbuf: Vec::new(),
                wpos: 0,
                watching_out: false,
            })
            .collect();
        Ok(TcpTransport {
            me,
            reconnect,
            listener,
            peers,
            inbound: Vec::new(),
            accepted: 0,
            ready: VecDeque::new(),
            epoll,
            events: vec![EpollEvent::default(); EVENT_BATCH].into_boxed_slice(),
            scratch: vec![0; READ_CHUNK].into_boxed_slice(),
            sent_frames: KindStats::default(),
            stats: PoolStats::default(),
            frames_received: 0,
            frame_bytes_received: 0,
        })
    }

    /// Per-kind counts and byte totals of the frames handed to sockets
    /// (header + version + payload — compare against the
    /// `wire_size`-metered numbers the hosting `NodeHost` records).
    pub fn sent_frames(&self) -> &KindStats {
        &self.sent_frames
    }

    /// Send-side counters (frames, bytes, dials, drops). The frame and
    /// byte counts are the [`TcpTransport::sent_frames`] totals.
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats {
            frames_sent: self.sent_frames.total_msgs(),
            frame_bytes_sent: self.sent_frames.total_wire_bytes(),
            ..self.stats
        }
    }

    /// Total frames decoded from accepted connections.
    pub fn frames_received(&self) -> u64 {
        self.frames_received
    }

    /// Total frame bytes decoded from accepted connections.
    pub fn frame_bytes_received(&self) -> u64 {
        self.frame_bytes_received
    }

    /// Dials `to` within the reconnect budget. The new connection's hello
    /// goes in front of the frame `send` has already encoded, so both
    /// leave in one write.
    fn dial(&mut self, to: ActorId) -> bool {
        let peer = &mut self.peers[to.index()];
        for attempt in 0..self.reconnect.attempts {
            if attempt > 0 {
                std::thread::sleep(self.reconnect.backoff);
            }
            let dialed = TcpStream::connect(peer.addr).and_then(|s| {
                s.set_nodelay(true)?;
                s.set_nonblocking(true)?;
                self.epoll.add(&s, EPOLLIN, to.index() as u64)?;
                Ok(s)
            });
            if let Ok(stream) = dialed {
                let mut hello = [0u8; HELLO_LEN];
                write_hello(&mut hello.as_mut_slice(), self.me)
                    .expect("a hello is HELLO_LEN bytes");
                peer.wbuf.splice(..0, hello);
                peer.stream = Some(stream);
                self.stats.dials += 1;
                return true;
            }
        }
        false
    }

    /// Gets the frame `send` encoded — the last `bytes` of `to`'s buffer —
    /// onto a live connection, behind whatever is queued there: dials if
    /// there is none, and redials once if the one there turns out dead.
    /// Returns `false` if the frame has to be dropped.
    fn transmit(&mut self, to: ActorId, bytes: usize) -> bool {
        for _ in 0..2 {
            if self.peers[to.index()].stream.is_none() && !self.dial(to) {
                return false;
            }
            let peer = &mut self.peers[to.index()];
            match peer.flush() {
                Ok(()) => return true,
                // What was queued on the dead socket is lost with it.
                Err(_) => peer.close(bytes),
            }
        }
        false
    }

    /// One turn of the readiness loop: waits up to `timeout` for any
    /// socket, then reads, flushes and accepts as reported. Returns
    /// `true` if the wait timed out with nothing ready.
    fn turn(&mut self, timeout: Duration) -> bool {
        let reported = match self.epoll.wait(&mut self.events, timeout) {
            Ok(0) => return true,
            Ok(n) => n,
            // A signal, or the kernel short of memory: the caller's
            // deadline decides whether to wait again.
            Err(_) => return false,
        };

        let mut accept = false;
        for event in &self.events[..reported] {
            match event.token() {
                LISTENER => accept = true,
                token if token & INBOUND != 0 => {
                    // Absent if a socket closed since was reported anyway
                    // (a forked child still held it, say).
                    if let Ok(i) = self.inbound.binary_search_by_key(&token, |c| c.token) {
                        self.inbound[i].ready = true;
                    }
                }
                token => {
                    let peer = &mut self.peers[token as usize];
                    let events = event.events();
                    if events & EPOLLOUT != 0 && peer.flush().is_err() {
                        peer.close(0);
                    }
                    if events & !EPOLLOUT != 0 {
                        peer.check_alive(&mut self.scratch);
                    }
                    peer.watch_backlog(&self.epoll, token);
                }
            }
        }

        // Older connections first: after a reconnect, what is left of the
        // sender's previous connection is delivered before the new one's.
        // A full batch may have left a ready socket out, older than one it
        // reported; every accepted socket is read then, and those with
        // nothing to read answer `WouldBlock`.
        let all = reported == self.events.len();
        let n_actors = self.peers.len();
        self.inbound.retain_mut(|conn| {
            let due = std::mem::take(&mut conn.ready) || all;
            !due || conn
                .pump(&mut self.scratch, n_actors, |from, msg, bytes| {
                    self.frames_received += 1;
                    self.frame_bytes_received += bytes as u64;
                    self.ready.push_back((from, msg));
                })
                .is_ok()
        });

        if accept {
            for _ in 0..ACCEPT_BURST {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        let token = INBOUND | self.accepted;
                        self.accepted += 1;
                        if stream.set_nonblocking(true).is_ok()
                            && self.epoll.add(&stream, EPOLLIN, token).is_ok()
                        {
                            self.inbound.push(Inbound {
                                stream,
                                token,
                                ready: false,
                                from: None,
                                rbuf: Vec::new(),
                            });
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    // This attempt failed, transiently (`ECONNABORTED`,
                    // `EINTR`) or not (`EMFILE`); the listener is waited
                    // on again next turn either way.
                    Err(_) => {}
                }
            }
        }
        false
    }
}

impl<M> Transport<M> for TcpTransport<M>
where
    M: Message + Wire,
{
    fn local_id(&self) -> ActorId {
        self.me
    }

    fn n_actors(&self) -> usize {
        self.peers.len()
    }

    fn send(&mut self, to: ActorId, msg: M) {
        let peer = &mut self.peers[to.index()];
        let bytes = encode_frame_into(&msg, &mut peer.wbuf);
        // A frame over the limit is not worth a connection: the receiver
        // would refuse it and close the link.
        if bytes - 4 > MAX_FRAME || !self.transmit(to, bytes) {
            let peer = &mut self.peers[to.index()];
            peer.wbuf.truncate(peer.wbuf.len() - bytes);
            self.stats.dropped += 1;
            return;
        }
        self.sent_frames.record(msg.kind(), bytes as u64);
        self.peers[to.index()].watch_backlog(&self.epoll, to.index() as u64);
        // Any readiness ends the wait: the peer took bytes, or hung up.
        while self.peers[to.index()].backlog() > HIGH_WATER {
            self.turn(Duration::MAX);
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(ActorId, M)> {
        let deadline = Instant::now().checked_add(timeout);
        loop {
            if let Some(delivery) = self.ready.pop_front() {
                return Some(delivery);
            }
            let left = match deadline {
                Some(d) => d.saturating_duration_since(Instant::now()),
                None => Duration::MAX,
            };
            if self.turn(left) || left.is_zero() {
                return self.ready.pop_front();
            }
        }
    }
}
