//! The socket-mesh [`Transport`]: one endpoint per actor, TCP links
//! between them, and **no thread of its own** — the node's thread, which
//! already sits in [`Transport::recv_timeout`], is the event loop.
//!
//! Topology: every node — server or client — **listens**, and **one
//! connection carries a node pair's frames both ways**. A node sends to
//! `p` on the connection it holds for `p`: one it dialed, or one `p`
//! dialed in. A connection opens with the
//! [hello](crate::frame::write_hello) naming the dialer, and an accepted
//! connection whose hello arrives while this node holds none for the
//! dialer becomes the one it sends on. A node dials only when it holds
//! none, lazily, on the first send to that peer. So a reply rides the
//! connection its request came in on, and a server never dials the
//! clients it serves. Two nodes that dial each other at once each keep
//! sending on their own connection: that pair has two one-way links. A
//! connection that dies leaves its peer's slot empty, and the next send
//! redials, unless the peer's next connection greets first. A connection
//! that was already open never takes an emptied slot.
//!
//! Why both ways: a connection that carries frames one way gives the
//! receiver nothing to carry its ACK on, so Linux answers each small
//! pushed segment with a pure ACK, and every frame crosses the loopback
//! stack twice. `OutSegs` in `/proc/net/snmp`, read around traced 6 s
//! runs of the benchmark's `tcp_read_mostly` and `tcp_reassign`
//! workloads, counted 2.11–2.12 segments per frame sent when every
//! connection was one-way, and 1.06–1.11 now that the ACK rides the
//! reply. There is still one write per frame: only the ACK segment is
//! gone.
//!
//! # The readiness loop
//!
//! A [`TcpTransport`] owns its listener and its connections, all
//! non-blocking, and one `epoll(7)` set (the crate's private `sys` module
//! — Linux only) in which each of them is registered once: the listener
//! at start, a connection when it is dialed or accepted. Every
//! connection, dialed or accepted, takes its token from one counter, so
//! tokens increase in creation order. Closing a connection is dropping
//! it, which takes it out of the set. `recv_timeout` runs turns; a turn
//! is one wait that returns only the sockets that are ready, after which
//! it
//!
//! * serves each ready connection: flushes it if it reported `EPOLLOUT`,
//!   and if it is readable (or hung up) reads it once into its buffer and
//!   parses the hello (an accepted connection's first bytes) and every
//!   whole frame out of it — a message is decoded ([`Wire::get`])
//!   straight out of that buffer, on the thread that will handle it, with
//!   no hand-off and no intermediate tree in between. A connection is
//!   watched for `EPOLLIN` always and for `EPOLLOUT` only while it has a
//!   write backlog: one `epoll_ctl` when a backlog appears and one when
//!   it is gone, none while sends go straight out;
//! * accepts whatever the listener has pending.
//!
//! Decoded messages queue in arrival order, which is FIFO per directed
//! link: a sender writes to one connection at a time and a connection's
//! bytes are parsed in order. The kernel reports ready sockets in no
//! particular order, so a turn marks the ready connections and then
//! serves them in creation order: after a reconnect, what is left of the
//! previous connection is read before the new one. (That is also why an
//! emptied slot is never filled by a connection that was open already:
//! at the other end it could be older than the one that died.) A
//! corrupt, oversized or truncated frame, a bad hello or an id outside
//! the mesh closes **that connection** and nothing else; an `accept`
//! error (`ECONNABORTED`, `EMFILE`, …) skips that attempt and the
//! listener stays in the set.
//!
//! # Sending never blocks in a write
//!
//! `send` encodes the frame ([`Wire::put`]) into a buffer kept for it —
//! no allocation once the buffer has grown — appends it to the write
//! buffer of the peer's connection, and writes as much as the socket
//! takes. What is left is the **backlog**, flushed by later turns of the
//! loop. Nobody else drains this node's sockets, so a blocking write
//! could deadlock two nodes shipping each other frames larger than the
//! kernel's buffers; instead, while a peer's backlog is above
//! [`HIGH_WATER`] `send` runs turns of the same loop — reading inbound,
//! flushing outbound — until the peer has taken enough or its connection
//! has died. Memory per peer is bounded by the mark
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
//! The transport counts what actually crosses the wire: frames and frame
//! bytes sent ([`PoolStats`]) and received. The per-kind view is the
//! hosting `NodeHost`'s [`Message::wire_size`] meter: a message's size
//! is its frame length, so that meter, the simulator's charge and these
//! counters agree byte for byte.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use awr_sim::{ActorId, Message, Transport};
use awr_types::wire::{decode_frame, encode_frame_into, FrameError, Wire, MAX_FRAME, MAX_PREFIX};

use crate::frame::{read_hello, write_hello, HELLO_LEN};
use crate::sys::{Epoll, EpollEvent, EPOLLIN, EPOLLOUT};

/// Write backlog toward one peer above which [`Transport::send`] stops
/// returning at once and drives the readiness loop until the peer has
/// taken some. A maximal frame is over it only by its length prefix.
pub const HIGH_WATER: usize = MAX_FRAME;

/// Bytes asked of a socket per read. Every whole frame of a read is
/// decoded before the first is handled, and a decoded message can be far
/// larger than its frame (a `CsRef::Full` of 200 changes: 1.2 KB on the
/// wire, 54 KB as a `ChangeSet`), so this also bounds what a backlog of
/// such frames holds decoded at once — the answers of a server that had
/// lagged behind its client, say. Frames longer than a read collect in
/// the connection's buffer.
const READ_CHUNK: usize = 16 << 10;

/// Capacity a connection's buffers keep once they have emptied; what a
/// burst grew beyond that is given back.
const KEEP_CAPACITY: usize = 64 << 10;

/// Accept attempts per turn. Bounds the spin when `accept` keeps failing
/// with the connection still queued (`EMFILE`).
const ACCEPT_BURST: usize = 64;

/// Readiness reports one wait returns at most. Sockets left out are
/// still ready, so the next wait reports them (the set is
/// level-triggered).
const EVENT_BATCH: usize = 64;

/// The token a wait reports the listener under. A connection's token is
/// its place in creation order.
const LISTENER: u64 = u64::MAX;

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
    /// Total bytes of those frames (length prefix + payload).
    pub frame_bytes_sent: u64,
    /// Messages dropped after the reconnect budget was exhausted.
    pub dropped: u64,
    /// Successful dials (first connections and reconnects).
    pub dials: u64,
}

/// Where frames to one peer go: the connection they travel on, if this
/// node holds one, and where to dial when it does not.
struct Slot {
    addr: SocketAddr,
    /// Token of the connection frames to this peer go out on; always an
    /// open connection whose `peer` is this slot's.
    conn: Option<u64>,
    /// Connections this node dialed to the peer.
    dials: u64,
}

/// One TCP connection, dialed or accepted: it carries frames both ways,
/// and writes only while it is its peer's [`Slot`] connection.
struct Conn {
    stream: TcpStream,
    /// What a wait reports this socket under; increases in creation order.
    token: u64,
    /// The events the last wait reported for this socket.
    ready: u32,
    /// The node at the other end: known when dialed, and from the hello
    /// when accepted.
    peer: Option<ActorId>,
    /// Bytes read but not yet parsed.
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// `wbuf[..wpos]` has been written already.
    wpos: usize,
    /// The socket is watched for `EPOLLOUT` as well as `EPOLLIN`.
    watching_out: bool,
}

impl Conn {
    fn backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Writes backlog until it is gone or the socket would block. An
    /// error means the connection is dead.
    fn flush(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
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

    /// Watches the socket for `EPOLLOUT` exactly while it has a backlog,
    /// so a wait neither misses the moment it can be flushed nor wakes for
    /// a socket with nothing to write. An error means the connection has
    /// to go: unwatched, a backlog would never leave; watched for nothing
    /// to write, the socket would wake every wait.
    fn watch_backlog(&mut self, epoll: &Epoll) -> io::Result<()> {
        let want = self.backlog() > 0;
        if want != self.watching_out {
            let interest = if want { EPOLLIN | EPOLLOUT } else { EPOLLIN };
            epoll.modify(&self.stream, interest, self.token)?;
            self.watching_out = want;
        }
        Ok(())
    }

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
        let from = match self.peer {
            Some(from) => from,
            None if self.rbuf.len() < HELLO_LEN => return Ok(()),
            None => {
                let from = read_hello(&mut &self.rbuf[..])?;
                if from.index() >= n_actors {
                    return Err(FrameError::Codec("hello from outside the mesh"));
                }
                self.peer = Some(from);
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
    /// One per actor of the mesh, indexed by [`ActorId`].
    slots: Vec<Slot>,
    /// Every open connection, in creation order.
    conns: Vec<Conn>,
    /// Connections created so far: the next one's token.
    created: u64,
    /// The frame `send` is getting onto a connection.
    frame: Vec<u8>,
    /// Decoded and not yet handed out, in arrival order.
    ready: VecDeque<(ActorId, M)>,
    /// The listener and every connection, registered once.
    epoll: Epoll,
    events: Box<[EpollEvent]>,
    scratch: Box<[u8]>,
    frames_sent: u64,
    frame_bytes_sent: u64,
    /// Messages dropped after the reconnect budget was exhausted.
    dropped: u64,
    frames_received: u64,
    frame_bytes_received: u64,
}

impl<M: Message + Wire> fmt::Debug for TcpTransport<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpTransport")
            .field("me", &self.me)
            .field("n_actors", &self.slots.len())
            .field("connections", &self.conns.len())
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
        let slots = addrs
            .into_iter()
            .map(|addr| Slot {
                addr,
                conn: None,
                dials: 0,
            })
            .collect();
        Ok(TcpTransport {
            me,
            reconnect,
            listener,
            slots,
            conns: Vec::new(),
            created: 0,
            frame: Vec::new(),
            ready: VecDeque::new(),
            epoll,
            events: vec![EpollEvent::default(); EVENT_BATCH].into_boxed_slice(),
            scratch: vec![0; READ_CHUNK].into_boxed_slice(),
            frames_sent: 0,
            frame_bytes_sent: 0,
            dropped: 0,
            frames_received: 0,
            frame_bytes_received: 0,
        })
    }

    /// Send-side counters (frames, bytes, dials, drops).
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats {
            frames_sent: self.frames_sent,
            frame_bytes_sent: self.frame_bytes_sent,
            dropped: self.dropped,
            dials: self.slots.iter().map(|s| s.dials).sum(),
        }
    }

    /// Successful dials to `to`: the part of [`PoolStats::dials`] spent on
    /// that peer.
    pub fn dials_to(&self, to: ActorId) -> u64 {
        self.slots[to.index()].dials
    }

    /// Total frames decoded, over every connection.
    pub fn frames_received(&self) -> u64 {
        self.frames_received
    }

    /// Total frame bytes decoded, over every connection.
    pub fn frame_bytes_received(&self) -> u64 {
        self.frame_bytes_received
    }

    /// Where connection `token` is in `conns`, if it is open.
    fn find(&self, token: u64) -> Option<usize> {
        self.conns.binary_search_by_key(&token, |c| c.token).ok()
    }

    /// Makes `stream` this node's newest connection: non-blocking, with
    /// Nagle's delay off (it may write), and in the epoll set.
    fn open(&mut self, stream: TcpStream, peer: Option<ActorId>) -> io::Result<()> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let token = self.created;
        self.created += 1;
        self.epoll.add(&stream, EPOLLIN, token)?;
        self.conns.push(Conn {
            stream,
            token,
            ready: 0,
            peer,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            watching_out: false,
        });
        Ok(())
    }

    /// Closes `conns[i]`, with whatever is queued on it; its peer's slot
    /// is empty if it held this connection.
    fn close(&mut self, i: usize) {
        let conn = self.conns.remove(i);
        if let Some(peer) = conn.peer {
            let slot = &mut self.slots[peer.index()];
            if slot.conn == Some(conn.token) {
                slot.conn = None;
            }
        }
    }

    /// Dials `to` within the reconnect budget and makes the new connection
    /// `to`'s slot connection. Its hello waits in its write buffer, so the
    /// frame `send` appends next leaves in the same write.
    fn dial(&mut self, to: ActorId) -> Option<usize> {
        for attempt in 0..self.reconnect.attempts {
            if attempt > 0 {
                std::thread::sleep(self.reconnect.backoff);
            }
            let dialed = TcpStream::connect(self.slots[to.index()].addr)
                .and_then(|stream| self.open(stream, Some(to)));
            if dialed.is_ok() {
                let conn = self.conns.last_mut().expect("just opened");
                write_hello(&mut conn.wbuf, self.me).expect("a Vec takes every write");
                let slot = &mut self.slots[to.index()];
                slot.conn = Some(conn.token);
                slot.dials += 1;
                return Some(self.conns.len() - 1);
            }
        }
        None
    }

    /// Gets `self.frame` onto `to`'s connection, behind whatever is queued
    /// there: dials if there is none, and redials once if the one there
    /// turns out dead. Returns where that connection is in `conns`, or
    /// `None` if the frame has to be dropped.
    fn transmit(&mut self, to: ActorId) -> Option<usize> {
        for _ in 0..2 {
            let i = match self.slots[to.index()].conn {
                Some(token) => self.find(token).expect("a slot's connection is open"),
                None => self.dial(to)?,
            };
            let conn = &mut self.conns[i];
            conn.wbuf.extend_from_slice(&self.frame);
            match conn.flush() {
                Ok(()) => return Some(i),
                // What was queued on the dead socket is lost with it.
                Err(_) => self.close(i),
            }
        }
        None
    }

    /// The write backlog toward `to`.
    fn backlog_to(&self, to: ActorId) -> usize {
        let conn = self.slots[to.index()]
            .conn
            .and_then(|token| self.find(token));
        conn.map_or(0, |i| self.conns[i].backlog())
    }

    /// Flushes and reads `conns[i]` as the last wait reported it, or reads
    /// it anyway when `all`. Returns `false` if the connection is finished.
    fn serve(&mut self, i: usize, all: bool) -> bool {
        let n_actors = self.slots.len();
        let conn = &mut self.conns[i];
        let events = std::mem::take(&mut conn.ready);
        let (greeted, readable) = (conn.peer.is_some(), events & !EPOLLOUT != 0 || all);
        let open = (events & EPOLLOUT == 0 || conn.flush().is_ok())
            && (!readable
                || conn
                    .pump(&mut self.scratch, n_actors, |from, msg, bytes| {
                        self.frames_received += 1;
                        self.frame_bytes_received += bytes as u64;
                        self.ready.push_back((from, msg));
                    })
                    .is_ok())
            && conn.watch_backlog(&self.epoll).is_ok();
        match conn.peer {
            // Its hello just arrived: if this node holds no connection to
            // the dialer, it answers on this one.
            Some(peer) if open && !greeted => {
                let slot = &mut self.slots[peer.index()];
                slot.conn = slot.conn.or(Some(conn.token));
            }
            _ => {}
        }
        open
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
                token => {
                    // Absent if a socket closed since was reported anyway
                    // (a forked child still held it, say).
                    if let Some(i) = self.find(token) {
                        self.conns[i].ready = event.events();
                    }
                }
            }
        }

        // Older connections first: after a reconnect, what is left of the
        // sender's previous connection is delivered before the new one's.
        // A full batch may have left a ready socket out, older than one it
        // reported; every connection is read then, and those with nothing
        // to read answer `WouldBlock`.
        let all = reported == self.events.len();
        let mut i = 0;
        while i < self.conns.len() {
            if self.serve(i, all) {
                i += 1;
            } else {
                self.close(i);
            }
        }

        if accept {
            for _ in 0..ACCEPT_BURST {
                match self.listener.accept() {
                    // A socket that cannot be set up is dropped: its
                    // dialer sees the connection end.
                    Ok((stream, _)) => {
                        let _ = self.open(stream, None);
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
        self.slots.len()
    }

    fn send(&mut self, to: ActorId, msg: M) {
        self.frame.clear();
        let bytes = encode_frame_into(&msg, &mut self.frame);
        // A frame over the limit is not worth a connection: the receiver
        // would refuse it and close the link.
        let sent = if bytes > MAX_FRAME + MAX_PREFIX {
            None
        } else {
            self.transmit(to)
        };
        self.frame.shrink_to(KEEP_CAPACITY);
        let Some(i) = sent else {
            self.dropped += 1;
            return;
        };
        self.frames_sent += 1;
        self.frame_bytes_sent += bytes as u64;
        if self.conns[i].watch_backlog(&self.epoll).is_err() {
            self.close(i);
        }
        // Any readiness ends the wait: the peer took bytes, or hung up.
        while self.backlog_to(to) > HIGH_WATER {
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

#[cfg(test)]
mod tests {
    use super::*;
    use awr_types::wire::{encode_frame, Reader, Sink};

    #[derive(Clone, Debug, PartialEq)]
    struct Ping(u64);

    impl Message for Ping {}

    impl Wire for Ping {
        fn put(&self, out: &mut impl Sink) {
            self.0.put(out);
        }

        fn get(r: &mut Reader<'_>) -> Result<Ping, FrameError> {
            Ok(Ping(u64::get(r)?))
        }
    }

    const PATIENCE: Duration = Duration::from_secs(30);

    /// Two bound listeners and their addresses: the mesh of actors 0 and 1.
    fn listeners() -> (Vec<TcpListener>, Vec<SocketAddr>) {
        let listeners: Vec<TcpListener> = (0..2)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let addrs = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        (listeners, addrs)
    }

    #[test]
    fn an_adopted_accepted_socket_writes_without_nagles_delay() {
        let (mut ls, addrs) = listeners();
        let mut b = TcpTransport::start(ActorId(1), ls.pop().unwrap(), addrs.clone()).unwrap();
        let mut a = TcpTransport::start(ActorId(0), ls.pop().unwrap(), addrs).unwrap();
        a.send(ActorId(1), Ping(1));
        assert_eq!(b.recv_timeout(PATIENCE), Some((ActorId(0), Ping(1))));

        // `b` dialed nothing: what it would send to `a` goes out on the
        // connection `a` dialed.
        assert_eq!(b.pool_stats().dials, 0);
        let token = b.slots[0]
            .conn
            .expect("the accepted connection took the slot");
        let conn = &b.conns[b.find(token).unwrap()];
        assert_eq!(conn.peer, Some(ActorId(0)));
        assert!(conn.stream.nodelay().unwrap());
    }

    /// Actor 0 is a bare listener speaking the wire by hand. `b` accepts a
    /// connection from it, then dials it before that connection greets;
    /// when the dialed one dies, `b` dials again rather than send on the
    /// older connection.
    #[test]
    fn an_emptied_slot_is_redialed_not_given_an_older_connection() {
        let (mut ls, addrs) = listeners();
        let mut b = TcpTransport::start(ActorId(1), ls.pop().unwrap(), addrs.clone()).unwrap();
        let raw = ls.pop().unwrap();
        let mut older = TcpStream::connect(addrs[1]).unwrap();
        let deadline = Instant::now() + PATIENCE;
        while b.conns.is_empty() {
            assert!(Instant::now() < deadline, "never accepted");
            assert_eq!(b.recv_timeout(Duration::from_millis(1)), None);
        }
        b.send(ActorId(0), Ping(1));
        let (dialed, _) = raw.accept().unwrap();
        let mut hello = Vec::new();
        write_hello(&mut hello, ActorId(0)).unwrap();
        older.write_all(&hello).unwrap();
        older.write_all(&encode_frame(&Ping(2))).unwrap();
        assert_eq!(b.recv_timeout(PATIENCE), Some((ActorId(0), Ping(2))));

        drop(dialed);
        while b.slots[0].conn.is_some() {
            assert!(Instant::now() < deadline, "never saw the connection end");
            assert_eq!(b.recv_timeout(Duration::from_millis(1)), None);
        }
        b.send(ActorId(0), Ping(3));
        assert_eq!(b.pool_stats().dials, 2);
        older.set_nonblocking(true).unwrap();
        let unread = older.read(&mut [0u8; 64]);
        assert_eq!(unread.unwrap_err().kind(), ErrorKind::WouldBlock);
        let (mut redialed, _) = raw.accept().unwrap();
        let mut wire = [0u8; HELLO_LEN];
        redialed.read_exact(&mut wire).unwrap();
        assert_eq!(read_hello(&mut &wire[..]).unwrap(), ActorId(1));
    }
}
