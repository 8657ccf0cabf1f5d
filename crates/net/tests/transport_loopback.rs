//! `TcpTransport` over real loopback sockets: the transport contract
//! (FIFO per link, best-effort sends, crash-model drops), the readiness
//! loop's handling of partial and hostile input, and the rule that a send
//! never blocks in a write — and, last, the storage protocol hosted over
//! the mesh: a real clock in its operation records, and a client getting
//! past a quorum member that died mid-phase. Nothing here sleeps to
//! synchronise: waits are loops that end on an observed condition.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use awr_core::RpConfig;
use awr_net::tcp::HIGH_WATER;
use awr_net::{
    encode_frame, frame_len, write_hello, FrameError, Reader, Reconnect, Sink, TcpTransport, Wire,
    MAX_FRAME, MAX_PREFIX, WIRE_VERSION,
};
use awr_sim::{ActorId, ChannelTransport, Message, NodeHost, Step, Transport};
use awr_storage::{DynClient, DynCompletedOp, DynMsg, DynOptions, DynServer, OpKind};
use awr_types::wire::put_varint;
use awr_types::{ClientId, ProcessId, ServerId};

/// A sequenced message with a payload of any size (a string travels as
/// its bytes, so `body.len()` is very nearly the frame size).
#[derive(Clone, Debug, PartialEq)]
struct Seq {
    n: u64,
    body: String,
}

impl Wire for Seq {
    fn put(&self, out: &mut impl Sink) {
        self.n.put(out);
        self.body.len().put(out);
        out.extend_from_slice(self.body.as_bytes());
    }

    fn get(r: &mut Reader<'_>) -> Result<Seq, FrameError> {
        let n = u64::get(r)?;
        let len = r.count(1)?;
        let body = std::str::from_utf8(r.bytes(len)?)
            .map_err(|_| FrameError::Codec("body is not utf-8"))?;
        Ok(Seq {
            n,
            body: body.to_string(),
        })
    }
}

impl Message for Seq {}

fn seq(n: u64) -> Seq {
    Seq {
        n,
        body: String::new(),
    }
}

fn blob(n: u64, len: usize) -> Seq {
    Seq {
        n,
        body: "x".repeat(len),
    }
}

const MIB: usize = 1 << 20;
/// Far beyond anything a passing run needs; a wait this long is a failure.
const PATIENCE: Duration = Duration::from_secs(30);
/// No test waits for a dial budget: one attempt, no pause.
const ONE_SHOT: Reconnect = Reconnect {
    attempts: 1,
    backoff: Duration::ZERO,
};

/// A mesh of `n` endpoints on loopback, element `i` speaking for actor
/// `i`, and where each listens.
fn mesh_at(n: usize) -> (Vec<TcpTransport<Seq>>, Vec<SocketAddr>) {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    let nodes = listeners
        .into_iter()
        .enumerate()
        .map(|(i, l)| TcpTransport::start_with(ActorId(i), l, addrs.clone(), ONE_SHOT).unwrap())
        .collect();
    (nodes, addrs)
}

fn mesh(n: usize) -> Vec<TcpTransport<Seq>> {
    mesh_at(n).0
}

fn recv(t: &mut TcpTransport<Seq>) -> (ActorId, Seq) {
    t.recv_timeout(PATIENCE).expect("a message within PATIENCE")
}

/// A raw connection to `t`'s listener, for speaking the wire by hand.
fn raw_dial(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

fn hello(from: usize) -> Vec<u8> {
    let mut h = Vec::new();
    write_hello(&mut h, ActorId(from)).unwrap();
    h
}

// ---------------------------------------------------------------------
// (a) A send never blocks in a write.
// ---------------------------------------------------------------------

/// Both endpoints are driven by this one thread, and each queues 8 MiB
/// for the other before either receives. With a blocking write the first
/// endpoint would wait forever for a reader that is itself.
#[test]
fn one_thread_ships_megabytes_both_ways_before_receiving() {
    let mut m = mesh(2);
    let (mut b, mut a) = (m.pop().unwrap(), m.pop().unwrap());
    for n in 0..8 {
        a.send(ActorId(1), blob(n, MIB));
    }
    for n in 0..8 {
        b.send(ActorId(0), blob(100 + n, MIB));
    }

    // Each side's receive turns also flush its own backlog to the other.
    let (mut at_a, mut at_b) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + PATIENCE;
    while at_a.len() < 8 || at_b.len() < 8 {
        assert!(Instant::now() < deadline, "stalled: {a:?} {b:?}");
        at_a.extend(a.recv_timeout(Duration::from_millis(1)));
        at_b.extend(b.recv_timeout(Duration::from_millis(1)));
    }
    for (i, (from, msg)) in at_a.iter().enumerate() {
        assert_eq!(
            (*from, msg.n, msg.body.len()),
            (ActorId(1), 100 + i as u64, MIB)
        );
    }
    for (i, (from, msg)) in at_b.iter().enumerate() {
        assert_eq!((*from, msg.n, msg.body.len()), (ActorId(0), i as u64, MIB));
    }
    assert_eq!(a.pool_stats().dropped + b.pool_stats().dropped, 0);
}

/// Two nodes, a thread each, both far over the high-water mark toward
/// the other before either receives: each `send` has to keep reading its
/// own inbound while it waits for the peer, or both wait forever.
#[test]
fn two_nodes_over_the_high_water_mark_drain_each_other() {
    const FRAMES: u64 = 40;
    const _: () = assert!(FRAMES as usize * MIB > 2 * HIGH_WATER);
    let start = Arc::new(Barrier::new(2));
    let finished = Arc::new(AtomicUsize::new(0));
    let nodes: Vec<_> = mesh(2)
        .into_iter()
        .enumerate()
        .map(|(i, mut t)| {
            let (start, finished) = (Arc::clone(&start), Arc::clone(&finished));
            std::thread::spawn(move || {
                let peer = ActorId(1 - i);
                start.wait();
                for n in 0..FRAMES {
                    t.send(peer, blob(n, MIB));
                }
                for n in 0..FRAMES {
                    let (from, msg) = recv(&mut t);
                    assert_eq!((from, msg.n, msg.body.len()), (peer, n, MIB));
                }
                // The peer may still be waiting for this node's backlog.
                finished.fetch_add(1, Ordering::SeqCst);
                while finished.load(Ordering::SeqCst) < 2 {
                    assert!(t.recv_timeout(Duration::from_millis(5)).is_none());
                }
                t.pool_stats()
            })
        })
        .collect();
    for node in nodes {
        let stats = node.join().expect("node thread");
        assert_eq!(
            (stats.frames_sent, stats.dropped, stats.dials),
            (FRAMES, 0, 1)
        );
    }
}

#[test]
fn a_frame_the_receiver_would_refuse_is_dropped_by_the_sender() {
    let mut m = mesh(2);
    let (mut b, mut a) = (m.pop().unwrap(), m.pop().unwrap());
    // One byte of payload too many: `n`, a four-byte string length and
    // the string make `MAX_FRAME + 1`.
    let over = blob(0, MAX_FRAME - 4);
    assert_eq!(frame_len(&over), MAX_PREFIX + MAX_FRAME + 1);
    a.send(ActorId(1), over);
    a.send(ActorId(1), seq(1));
    assert_eq!(recv(&mut b), (ActorId(0), seq(1)));
    let stats = a.pool_stats();
    assert_eq!((stats.frames_sent, stats.dropped), (1, 1));
}

// ---------------------------------------------------------------------
// (b) Partial and hostile input.
// ---------------------------------------------------------------------

#[test]
fn a_connection_trickling_one_byte_per_write_delivers_whole_frames() {
    let (mut nodes, addrs) = mesh_at(3);
    let mut t = nodes.remove(0);
    let msgs = [seq(1), blob(2, 300), seq(3)];
    let mut wire = hello(2);
    let frame_bytes: usize = msgs
        .iter()
        .map(|m| {
            let f = encode_frame(m);
            wire.extend_from_slice(&f);
            f.len()
        })
        .sum();

    let mut raw = raw_dial(addrs[0]);
    let mut got = Vec::new();
    for byte in wire {
        raw.write_all(&[byte]).unwrap();
        got.extend(t.recv_timeout(Duration::ZERO));
    }
    while got.len() < msgs.len() {
        got.push(recv(&mut t));
    }
    let expected: Vec<_> = msgs.iter().map(|m| (ActorId(2), m.clone())).collect();
    assert_eq!(got, expected);
    assert_eq!(t.recv_timeout(Duration::ZERO), None);
    assert_eq!(t.frames_received(), 3);
    assert_eq!(t.frame_bytes_received(), frame_bytes as u64);
}

/// Turns `t`'s loop until it has closed `raw` (which must not deliver
/// anything on the way).
fn await_close(t: &mut TcpTransport<Seq>, raw: &mut TcpStream, case: &str) {
    raw.set_nonblocking(true).unwrap();
    let deadline = Instant::now() + PATIENCE;
    loop {
        assert_eq!(t.recv_timeout(Duration::from_millis(1)), None, "{case}");
        match raw.read(&mut [0u8; 16]) {
            Ok(0) => return,
            Err(e) if e.kind() == ErrorKind::ConnectionReset => return,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            other => panic!("{case}: unexpected read result {other:?}"),
        }
        assert!(Instant::now() < deadline, "{case}: connection still open");
    }
}

#[test]
fn a_bad_connection_is_closed_alone_while_a_good_peer_is_served() {
    let mut bad_magic = hello(2);
    bad_magic[0] = b'X';
    let mut bad_version = hello(2);
    bad_version[4] = WIRE_VERSION + 1;
    let mut old_hello = hello(2);
    old_hello[4] = 1;
    let mut v3_hello = hello(2);
    v3_hello[4] = 3;
    let mut v4_hello = hello(2);
    v4_hello[4] = 4;
    let mut oversized = hello(2);
    put_varint(&mut oversized, MAX_FRAME as u64 + 1);
    let mut five_byte_length = hello(2);
    five_byte_length.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x00]);
    // seq(9)'s two-byte payload behind its length written in two bytes.
    let mut long_length = hello(2);
    long_length.extend_from_slice(&[0x82, 0x00, 9, 0]);
    let mut corrupt = hello(2);
    let mut frame = encode_frame(&seq(9));
    let last = frame.len() - 1;
    frame[last] ^= 0xff;
    corrupt.extend_from_slice(&frame);
    let cases = [
        ("bad hello magic", bad_magic),
        ("wrong hello version", bad_version),
        ("version-1 hello", old_hello),
        ("version-3 hello", v3_hello),
        ("version-4 hello", v4_hello),
        ("length prefix above MAX_FRAME", oversized),
        ("length prefix of five bytes", five_byte_length),
        ("length prefix not in its shortest form", long_length),
        ("corrupt payload", corrupt),
        ("hello from outside the mesh", hello(3)),
    ];

    let (mut m, addrs) = mesh_at(3);
    let (mut good, mut t) = (m.remove(1), m.remove(0));
    let mut n = 0;
    for (case, bytes) in cases {
        good.send(ActorId(0), seq(n));
        assert_eq!(recv(&mut t), (ActorId(1), seq(n)), "{case}");
        let mut raw = raw_dial(addrs[0]);
        raw.write_all(&bytes).unwrap();
        await_close(&mut t, &mut raw, case);
        good.send(ActorId(0), seq(n + 1));
        assert_eq!(recv(&mut t), (ActorId(1), seq(n + 1)), "{case}");
        n += 2;
    }
    assert_eq!(t.frames_received(), n);
    assert_eq!(good.pool_stats().dials, 1, "the good link was never cut");
}

#[test]
fn a_connection_cut_mid_frame_delivers_only_the_whole_frames() {
    let (mut nodes, addrs) = mesh_at(3);
    let mut t = nodes.remove(0);
    let mut wire = hello(1);
    wire.extend_from_slice(&encode_frame(&seq(1)));
    let second = encode_frame(&blob(2, 64));
    wire.extend_from_slice(&second[..second.len() / 2]);
    let mut raw = raw_dial(addrs[0]);
    raw.write_all(&wire).unwrap();
    assert_eq!(recv(&mut t), (ActorId(1), seq(1)));
    drop(raw);

    // The same actor dials again: its new connection is a new link.
    let mut raw = raw_dial(addrs[0]);
    raw.write_all(&hello(1)).unwrap();
    raw.write_all(&encode_frame(&seq(3))).unwrap();
    assert_eq!(recv(&mut t), (ActorId(1), seq(3)));
    assert_eq!(t.frames_received(), 2);
}

// ---------------------------------------------------------------------
// (c) FIFO per link and exact accounting under load.
// ---------------------------------------------------------------------

/// A hub and two spokes, a thread each: 10 000 messages on each of the
/// links 0→1, 1→0, 0→2, 2→0, all in flight together.
#[test]
fn four_links_stay_fifo_and_every_byte_is_accounted_for() {
    const PER_LINK: u64 = 10_000;
    const LINKS: usize = 4;
    let received = Arc::new(AtomicUsize::new(0));
    let start = Arc::new(Barrier::new(3));
    let nodes: Vec<_> = mesh(3)
        .into_iter()
        .enumerate()
        .map(|(i, mut t)| {
            let (start, received) = (Arc::clone(&start), Arc::clone(&received));
            std::thread::spawn(move || {
                let targets: &[usize] = if i == 0 { &[1, 2] } else { &[0] };
                start.wait();
                for n in 0..PER_LINK {
                    for &to in targets {
                        // Every seventh message is padded, so frames of
                        // two sizes interleave on each link.
                        let msg = if n % 7 == 0 { blob(n, 100) } else { seq(n) };
                        t.send(ActorId(to), msg);
                    }
                }
                let mut next = [0u64; 3];
                // Keep turning after this node has everything: its own
                // backlog may not have left yet.
                while received.load(Ordering::SeqCst) < LINKS * PER_LINK as usize {
                    if let Some((from, msg)) = t.recv_timeout(Duration::from_millis(5)) {
                        assert_eq!(msg.n, next[from.index()], "link {from:?}→{i} out of order");
                        next[from.index()] += 1;
                        received.fetch_add(1, Ordering::SeqCst);
                    }
                }
                for &from in targets {
                    assert_eq!(next[from], PER_LINK, "link {from}→{i} incomplete");
                }
                t
            })
        })
        .collect();
    let nodes: Vec<TcpTransport<Seq>> = nodes.into_iter().map(|h| h.join().unwrap()).collect();

    let sum = |f: &dyn Fn(&TcpTransport<Seq>) -> u64| nodes.iter().map(f).sum::<u64>();
    assert_eq!(
        sum(&|t| t.pool_stats().frames_sent),
        LINKS as u64 * PER_LINK
    );
    assert_eq!(sum(&|t| t.frames_received()), LINKS as u64 * PER_LINK);
    assert_eq!(
        sum(&|t| t.pool_stats().frame_bytes_sent),
        sum(&|t| t.frame_bytes_received())
    );
    assert_eq!(sum(&|t| t.pool_stats().dropped), 0);
    assert_eq!(sum(&|t| t.pool_stats().dials), LINKS as u64);
}

/// The frames `ns`, back to back, as a connection carries them.
fn frames(ns: std::ops::Range<u64>) -> Vec<u8> {
    ns.flat_map(|n| encode_frame(&seq(n))).collect()
}

/// Two connections with the same hello — a sender's older connection and
/// the one it dialed after — each with frames waiting when the receiver
/// turns: the older one's come first, whichever socket the kernel reports
/// first.
#[test]
fn a_senders_older_connection_drains_before_its_newer_one() {
    const K: u64 = 16;
    let (mut nodes, addrs) = mesh_at(2);
    let mut t = nodes.remove(0);
    let mut older = raw_dial(addrs[0]);
    let mut newer = raw_dial(addrs[0]);
    // All of it before the receiver's first turn.
    older.write_all(&[hello(1), frames(0..K)].concat()).unwrap();
    newer
        .write_all(&[hello(1), frames(K..2 * K)].concat())
        .unwrap();
    for n in 0..2 * K {
        assert_eq!(recv(&mut t), (ActorId(1), seq(n)));
    }
    // A wait that finds both idle takes them off the kernel's ready list...
    assert_eq!(t.recv_timeout(Duration::ZERO), None);

    // ...so the newer one, readable first this time, leads it.
    newer.write_all(&frames(3 * K..4 * K)).unwrap();
    older.write_all(&frames(2 * K..3 * K)).unwrap();
    for n in 2 * K..4 * K {
        assert_eq!(recv(&mut t), (ActorId(1), seq(n)));
    }
    assert_eq!(t.recv_timeout(Duration::ZERO), None);
}

/// More connections with a frame waiting than one wait reports (and than
/// one turn accepts): what a wait leaves out is still ready at the next,
/// and every frame is delivered once, in accept order — also when the
/// kernel reports the newest connections first and a full batch leaves
/// the oldest out.
#[test]
fn more_ready_sockets_than_the_event_buffer() {
    const CONNECTIONS: u64 = 100;
    let (mut nodes, addrs) = mesh_at(2);
    let mut t = nodes.remove(0);
    let mut raw: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|n| {
            let mut raw = raw_dial(addrs[0]);
            raw.write_all(&[hello(1), frames(n..n + 1)].concat())
                .unwrap();
            raw
        })
        .collect();
    for n in 0..CONNECTIONS {
        assert_eq!(recv(&mut t), (ActorId(1), seq(n)));
    }
    assert_eq!(t.recv_timeout(Duration::ZERO), None);

    // Newest first: the ready list is the reverse of accept order.
    for (i, raw) in raw.iter_mut().enumerate().rev() {
        let n = CONNECTIONS + i as u64;
        raw.write_all(&frames(n..n + 1)).unwrap();
    }
    for n in CONNECTIONS..2 * CONNECTIONS {
        assert_eq!(recv(&mut t), (ActorId(1), seq(n)));
    }
    assert_eq!(t.recv_timeout(Duration::from_millis(20)), None);
    assert_eq!(t.frames_received(), 2 * CONNECTIONS);
}

/// The receiver holds no connection to the sender when the request
/// arrives, so it answers on the one the request came in on: it never
/// dials.
#[test]
fn a_reply_rides_the_connection_its_request_came_in_on() {
    let mut m = mesh(2);
    let (mut b, mut a) = (m.pop().unwrap(), m.pop().unwrap());
    for n in 0..3 {
        a.send(ActorId(1), seq(n));
        assert_eq!(recv(&mut b), (ActorId(0), seq(n)));
        b.send(ActorId(0), seq(100 + n));
        assert_eq!(recv(&mut a), (ActorId(1), seq(100 + n)));
    }
    assert_eq!((a.pool_stats().dials, b.pool_stats().dials), (1, 0));
    assert_eq!((a.frames_received(), b.frames_received()), (3, 3));
}

/// Both ends send before either has turned, so both dial, and each keeps
/// sending on its own connection while reading the other's: 10 000 frames
/// each way, sends and receives interleaved.
#[test]
fn two_nodes_that_dial_each_other_at_once_keep_both_links_fifo() {
    const PER_LINK: u64 = 10_000;
    let mut m = mesh(2);
    let (mut b, mut a) = (m.pop().unwrap(), m.pop().unwrap());
    let (mut at_a, mut at_b) = (Vec::new(), Vec::new());
    for n in 0..PER_LINK {
        let msg = if n % 7 == 0 { blob(n, 100) } else { seq(n) };
        a.send(ActorId(1), msg.clone());
        b.send(ActorId(0), msg);
        at_a.extend(a.recv_timeout(Duration::ZERO));
        at_b.extend(b.recv_timeout(Duration::ZERO));
    }
    let deadline = Instant::now() + PATIENCE;
    while at_a.len() < PER_LINK as usize || at_b.len() < PER_LINK as usize {
        assert!(Instant::now() < deadline, "stalled: {a:?} {b:?}");
        at_a.extend(a.recv_timeout(Duration::from_millis(1)));
        at_b.extend(b.recv_timeout(Duration::from_millis(1)));
    }
    for (got, from) in [(&at_a, ActorId(1)), (&at_b, ActorId(0))] {
        for (n, (sender, msg)) in got.iter().enumerate() {
            assert_eq!((*sender, msg.n), (from, n as u64));
        }
    }
    assert_eq!(a.recv_timeout(Duration::ZERO), None);
    assert_eq!(b.recv_timeout(Duration::ZERO), None);
    let (sa, sb) = (a.pool_stats(), b.pool_stats());
    assert_eq!((sa.frames_sent, sb.frames_sent), (PER_LINK, PER_LINK));
    assert_eq!(sa.dropped + sb.dropped, 0);
    assert!(sa.dials + sb.dials <= 2, "{sa:?} {sb:?}");
}

#[test]
fn a_node_can_send_to_itself() {
    let mut t = mesh(1).remove(0);
    for n in 0..3 {
        t.send(ActorId(0), seq(n));
    }
    for n in 0..3 {
        assert_eq!(recv(&mut t), (ActorId(0), seq(n)));
    }
}

// ---------------------------------------------------------------------
// (d) Crash-model drops and redialing.
// ---------------------------------------------------------------------

#[test]
fn sends_to_a_peer_that_never_listened_are_dropped_and_counted() {
    let mut m = mesh(2);
    drop(m.pop()); // actor 1's listener is gone before anyone dialed it
    let mut a = m.pop().unwrap();
    for n in 0..3 {
        a.send(ActorId(1), seq(n));
    }
    let stats = a.pool_stats();
    assert_eq!((stats.frames_sent, stats.dropped, stats.dials), (0, 3, 0));
}

#[test]
fn a_restarted_peer_is_redialed_on_the_first_send_after_it_is_back() {
    let (mut m, addrs) = mesh_at(2);
    let (mut b, mut a) = (m.pop().unwrap(), m.pop().unwrap());
    a.send(ActorId(1), seq(0));
    assert_eq!(recv(&mut b), (ActorId(0), seq(0)));
    assert_eq!(a.pool_stats().dials, 1);

    // The peer goes down. Until this node has seen the connection end, a
    // send may still be taken by the dead socket; from the first counted
    // drop on, every send is a counted drop.
    drop(b);
    let deadline = Instant::now() + PATIENCE;
    while a.pool_stats().dropped == 0 {
        assert!(Instant::now() < deadline, "never noticed the peer was gone");
        assert_eq!(a.recv_timeout(Duration::from_millis(1)), None);
        a.send(ActorId(1), seq(1));
    }
    let down = a.pool_stats();
    for n in 0..5 {
        a.send(ActorId(1), seq(10 + n));
    }
    let still_down = a.pool_stats();
    assert_eq!(still_down.dropped, down.dropped + 5);
    assert_eq!(still_down.frames_sent, down.frames_sent);
    assert_eq!(still_down.dials, 1);

    // The peer comes back on the same port.
    let listener = loop {
        match TcpListener::bind(addrs[1]) {
            Ok(l) => break l,
            Err(e) => assert!(Instant::now() < deadline, "rebinding {}: {e}", addrs[1]),
        }
    };
    let mut b = TcpTransport::<Seq>::start(ActorId(1), listener, addrs).unwrap();
    a.send(ActorId(1), seq(99));
    assert_eq!(recv(&mut b), (ActorId(0), seq(99)));
    let back = a.pool_stats();
    assert_eq!((back.dials, back.dropped), (2, still_down.dropped));
}

// ---------------------------------------------------------------------
// (e) The storage protocol over the seam: a real clock, and a widen past
//     a quorum member that died mid-phase — in a read's phase 1, or
//     between a write's `R_A` and its `W`.
// ---------------------------------------------------------------------

type StoreMsg = DynMsg<u64>;

/// A server thread's orders: serve; stop stepping and say so; exit; handle
/// one more message, then stop stepping and say so.
const RUN: u8 = 0;
const FREEZE: u8 = 1;
const FROZEN: u8 = 2;
const KILL: u8 = 3;
const ONE_MORE: u8 = 4;

fn store_cfg() -> RpConfig {
    RpConfig::uniform(3, 1)
}

/// Hosts server `t.local_id()` on a thread of its own until told `KILL`.
/// The thread's exit drops the host — listener and sockets close, unread
/// frames die with them — which is all a crash is to its peers.
fn serve<T>(t: T, orders: Arc<AtomicU8>) -> JoinHandle<()>
where
    T: Transport<StoreMsg> + Send + 'static,
{
    std::thread::spawn(move || {
        let me = ServerId(t.local_id().index() as u32);
        let server = DynServer::<u64>::new(store_cfg(), me, DynOptions::default());
        let mut host = NodeHost::start(server, t, 1);
        loop {
            match orders.load(Ordering::SeqCst) {
                RUN => {
                    host.step(Duration::from_millis(1));
                }
                KILL => return,
                ONE_MORE => {
                    if host.step(Duration::from_millis(1)) == Step::Delivered {
                        orders.store(FROZEN, Ordering::SeqCst);
                    }
                }
                _ => {
                    // Only ever FREEZE → FROZEN: an order given meanwhile
                    // is not overwritten.
                    let _ =
                        orders.compare_exchange(FREEZE, FROZEN, Ordering::SeqCst, Ordering::SeqCst);
                    std::thread::yield_now();
                }
            }
        }
    })
}

/// The widen deadline's floor: a client's deadline is never shorter, so an
/// operation — or the part of one — that finished in less cannot have
/// widened, and a suspicion (first lapse: two deadlines) cannot lapse
/// within two of it.
const WIDEN_FLOOR: Duration = Duration::from_millis(5);
/// How often the scenario is run before a host too busy to stay under
/// [`WIDEN_FLOOR`] counts as a failure.
const ATTEMPTS: usize = 5;

/// An attempt at the scenario that ran a pinned phase past
/// [`WIDEN_FLOOR`]: a widen there is legitimate, so the counts it would
/// move prove nothing either way. Says which part was slow.
#[derive(Debug)]
struct Slow(&'static str);

/// The server threads and their orders. Dropping it tells every thread to
/// exit and joins them, so an attempt given up early leaves nothing
/// running.
struct Servers {
    orders: Vec<Arc<AtomicU8>>,
    threads: Vec<Option<JoinHandle<()>>>,
}

impl Servers {
    /// Tells server `i` to exit and joins it.
    fn kill(&mut self, i: usize) {
        self.orders[i].store(KILL, Ordering::SeqCst);
        if let Some(t) = self.threads[i].take() {
            t.join().unwrap();
        }
    }
}

impl Drop for Servers {
    fn drop(&mut self) {
        for (o, t) in self.orders.iter().zip(&mut self.threads) {
            o.store(KILL, Ordering::SeqCst);
            if let Some(t) = t.take() {
                // Already unwinding, or the thread's panic is reported by
                // the test that is failing anyway.
                let _ = t.join();
            }
        }
    }
}

/// Whether an operation record shows it ran long enough to have widened.
fn under_floor(ops: &[&DynCompletedOp<u64>], what: &'static str) -> Result<(), Slow> {
    let floor = WIDEN_FLOOR.as_nanos() as u64;
    match ops.iter().all(|o| o.response.0 - o.invoke.0 < floor) {
        true => Ok(()),
        false => Err(Slow(what)),
    }
}

/// What [`finish_op`] saw of an operation besides its record.
struct Watched {
    /// When the step in which the operation widened began — no later than
    /// the widen itself; `None` if it never widened.
    widened: Option<Instant>,
    /// When the step that completed it ended — no earlier than the
    /// completion.
    done: Instant,
}

fn finish_op<T: Transport<StoreMsg>>(
    host: &mut NodeHost<DynClient<u64>, T>,
    done_before: usize,
) -> (DynCompletedOp<u64>, Watched) {
    let widens = |host: &NodeHost<DynClient<u64>, T>| {
        let m = host.metrics();
        m.counter("phase1_widened") + m.counter("phase2_widened")
    };
    let widens_before = widens(host);
    let mut widened = None;
    let deadline = Instant::now() + PATIENCE;
    while host.actor().driver.completed.len() == done_before {
        assert!(Instant::now() < deadline, "operation never completed");
        let began = Instant::now();
        host.step(Duration::from_millis(1));
        if widened.is_none() && widens(host) > widens_before {
            widened = Some(began);
        }
    }
    let done = Instant::now();
    let op = host.actor().driver.completed[done_before].clone();
    (op, Watched { widened, done })
}

fn run_op<T: Transport<StoreMsg>>(
    host: &mut NodeHost<DynClient<u64>, T>,
    write: Option<u64>,
) -> DynCompletedOp<u64> {
    let done_before = host.actor().driver.completed.len();
    host.with_actor(|c, ctx| match write {
        Some(v) => c.begin_write(v, ctx),
        None => c.begin_read(ctx),
    });
    finish_op(host, done_before).0
}

/// When s1 dies: with a read's `R` unread, or having answered a write's `R`
/// and with its `W` unread.
#[derive(Clone, Copy, PartialEq)]
enum Dies {
    InPhase1,
    BetweenRAckAndW,
}

/// `fabric[0..3]` host the servers, `fabric[3]` the client — under the
/// default options: quorum-targeted phases, `retry: None`. Every phase the
/// scenario pins as un-widened must run under [`WIDEN_FLOOR`]; where one
/// did not, the attempt stops before the counts it could move and says so.
fn a_dead_quorum_member_is_widened_past_and_then_avoided<T>(
    mut fabric: Vec<T>,
    dies: Dies,
) -> Result<(), Slow>
where
    T: Transport<StoreMsg> + Send + 'static,
{
    assert_eq!(DynOptions::default().retry, None);
    let client = DynClient::<u64>::new(
        ProcessId::Client(ClientId(0)),
        store_cfg(),
        DynOptions::default(),
    );
    let mut host = NodeHost::start(client, fabric.pop().unwrap(), 1);
    let me = ActorId(3);
    let orders: Vec<Arc<AtomicU8>> = (0..3).map(|_| Arc::new(AtomicU8::new(RUN))).collect();
    let threads = fabric
        .into_iter()
        .zip(&orders)
        .map(|(t, o)| Some(serve(t, Arc::clone(o))))
        .collect();
    let mut servers = Servers {
        orders: orders.clone(),
        threads,
    };

    // The first operation has no phase-1 sample: it asks everyone, as the
    // paper does. The second asks the smallest quorum by weight, {s0, s1}:
    // s0 for the register, s1 for its tag.
    let w = run_op(&mut host, Some(7));
    let r = run_op(&mut host, None);
    assert_eq!(r.kind, OpKind::Read(Some(7)));
    // Operation records carry the host's clock: real, and ordered.
    assert!(w.invoke.0 > 0, "invoke stamped {:?}", w.invoke);
    assert!(w.invoke < w.response, "{w:?}");
    assert!(
        w.response <= r.invoke && r.invoke < r.response,
        "{w:?} {r:?}"
    );
    under_floor(&[&w, &r], "a warm-up operation")?;
    let m = host.metrics();
    assert_eq!(m.counter("phase1_targeted"), 1);
    assert_eq!((m.sent_of_kind("R"), m.sent_of_kind("RV")), (3 + 1, 1));
    assert_eq!(m.msgs_on_link(me, ActorId(2)), 1 + 1, "one R, one W");

    let before = host.metrics().clone();
    let done_before = host.actor().driver.completed.len();
    let frozen = || {
        while orders[1].load(Ordering::SeqCst) != FROZEN {
            std::thread::yield_now();
        }
    };
    let expect = match dies {
        Dies::InPhase1 => {
            // s1 stops serving, a read's phase 1 goes out to {s0, s1}, and
            // s1 dies with the request unread.
            orders[1].store(FREEZE, Ordering::SeqCst);
            frozen();
            host.with_actor(|c, ctx| c.begin_read(ctx));
            7
        }
        Dies::BetweenRAckAndW => {
            // s1 answers a write's `R` and nothing after it: the write's
            // `W` goes out to {s0, s1}, and s1 dies with it unread.
            // (Parked first: told while inside a step, it would count the
            // `R` under its old orders and wait for one message more.)
            orders[1].store(FREEZE, Ordering::SeqCst);
            frozen();
            orders[1].store(ONE_MORE, Ordering::SeqCst);
            let began = Instant::now();
            host.with_actor(|c, ctx| c.begin_write(8, ctx));
            frozen();
            while host.metrics().sent_of_kind("W") == before.sent_of_kind("W") {
                host.step(Duration::from_millis(1));
            }
            if began.elapsed() >= WIDEN_FLOOR {
                return Err(Slow("the write's phase 1"));
            }
            8
        }
    };
    servers.kill(1);
    let (stalled, watched) = finish_op(&mut host, done_before);
    let m = host.metrics().clone();
    let since = m.since(&before);
    // Completed through the widen, for the price of one deadline (never
    // under 5 ms), spent in the phase the server died in.
    assert!(
        stalled.response.0 - stalled.invoke.0 >= 5_000_000,
        "{stalled:?}"
    );
    // Within one floor of the widen no timer can fire: the next rebroadcast
    // is at least a deadline away, the suspicion's lapse two.
    if watched
        .widened
        .is_some_and(|at| watched.done - at >= WIDEN_FLOOR)
    {
        return Err(Slow("the stalled operation after its widen"));
    }
    assert_eq!(since.counter("server_suspected"), 1);
    match dies {
        Dies::InPhase1 => {
            assert_eq!(stalled.kind, OpKind::Read(Some(7)));
            assert_eq!(since.counter("phase1_widened"), 1);
            assert_eq!(since.counter("phase2_widened"), 0);
        }
        Dies::BetweenRAckAndW => {
            assert_eq!(stalled.kind, OpKind::Write(8));
            assert_eq!(since.counter("phase1_widened"), 0);
            assert_eq!(since.counter("phase2_targeted"), 1);
            assert_eq!(since.counter("phase2_widened"), 1);
            assert_eq!(since.sent_of_kind("R"), 2);
            // To the quorum; then to s1 again and to s2, not to s0, whose
            // ack was in long before the deadline.
            assert_eq!(since.sent_of_kind("W"), 2 + 2);
            assert_eq!(since.msgs_on_link(me, ActorId(0)), 1 + 1, "one R, one W");
        }
    }

    // The next operations are targeted again — at the quorum without the
    // suspect, in both phases — and need no widen.
    let r = run_op(&mut host, None);
    assert_eq!(r.kind, OpKind::Read(Some(expect)));
    let first = host.metrics().since(&m);
    let w = run_op(&mut host, Some(9));
    let r9 = run_op(&mut host, None);
    assert_eq!(r9.kind, OpKind::Read(Some(9)));
    under_floor(&[&r, &w, &r9], "an operation after the widen")?;
    if watched
        .widened
        .is_some_and(|at| at.elapsed() >= 2 * WIDEN_FLOOR)
    {
        return Err(Slow("the operations before the suspicion's lapse"));
    }
    assert_eq!(first.counter("phase1_targeted"), 1);
    assert_eq!((first.sent_of_kind("R"), first.sent_of_kind("RV")), (1, 1));
    let since = host.metrics().since(&m);
    assert_eq!(
        since.counter("phase1_widened") + since.counter("phase2_widened"),
        0
    );
    assert_eq!(since.counter("phase2_targeted"), 1);
    let asked = ["R", "RV", "W"].map(|k| since.sent_of_kind(k));
    assert_eq!(asked, [4, 2, 2]);
    assert_eq!(
        since.msgs_on_link(me, ActorId(1)),
        0,
        "the suspect is asked nothing"
    );

    for i in [0, 2] {
        servers.kill(i);
    }
    Ok(())
}

/// Runs the scenario on fresh fabrics until one attempt keeps every pinned
/// phase under the widen floor (and passes); fails if none does.
fn widened_past_on_some_attempt<T>(fabric: impl Fn() -> Vec<T>, dies: Dies)
where
    T: Transport<StoreMsg> + Send + 'static,
{
    let mut slow = Vec::new();
    for _ in 0..ATTEMPTS {
        match a_dead_quorum_member_is_widened_past_and_then_avoided(fabric(), dies) {
            Ok(()) => return,
            Err(Slow(what)) => slow.push(what),
        }
    }
    panic!("no attempt stayed under the {WIDEN_FLOOR:?} widen floor: {slow:?}");
}

fn tcp_fabric() -> Vec<TcpTransport<StoreMsg>> {
    let listeners: Vec<TcpListener> = (0..4)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    // One dial attempt, no pause: a send to the dead server is dropped at
    // once instead of sitting out a reconnect budget.
    listeners
        .into_iter()
        .enumerate()
        .map(|(i, l)| {
            TcpTransport::<StoreMsg>::start_with(ActorId(i), l, addrs.clone(), ONE_SHOT).unwrap()
        })
        .collect()
}

fn channel_fabric() -> Vec<ChannelTransport<StoreMsg>> {
    ChannelTransport::<StoreMsg>::mesh(4)
}

#[test]
fn tcp_client_gets_past_a_quorum_member_killed_mid_phase() {
    widened_past_on_some_attempt(tcp_fabric, Dies::InPhase1);
}

#[test]
fn channel_client_gets_past_a_quorum_member_killed_mid_phase() {
    widened_past_on_some_attempt(channel_fabric, Dies::InPhase1);
}

#[test]
fn tcp_client_gets_past_a_quorum_member_killed_between_r_a_and_w() {
    widened_past_on_some_attempt(tcp_fabric, Dies::BetweenRAckAndW);
}

#[test]
fn channel_client_gets_past_a_quorum_member_killed_between_r_a_and_w() {
    widened_past_on_some_attempt(channel_fabric, Dies::BetweenRAckAndW);
}
