//! Multi-process localhost demo of the TCP runtime.
//!
//! The parent process spawns `N` durable server processes and `K` client
//! processes (re-executing this binary in `--server` / `--client` child
//! modes), wires them into a full TCP mesh, drives the keyed read/write
//! workload over real sockets, and checks the clients' combined history
//! for keyed linearizability. It does so twice, a fresh mesh each time:
//!
//! 1. under `Fanout::All` and `ReadMode::TwoPhase`, to **cross-validate
//!    the byte accounting**: the per-kind message counts metered by each
//!    process's `NodeHost` must equal, exactly, the counts a same-seed
//!    simulator run charges for the same workload, and so must the bytes
//!    of `R`, `RV` and `W_A`, whose frames the workload alone fixes
//!    (`R_A` and `W` carry registers whose tags and values depend on the
//!    interleaving, so their bytes may differ by a varint here and
//!    there). Asking every server, and writing back on every read, makes
//!    the counts a function of the workload alone; under the default
//!    fanout they also depend on which replies were in by the time a
//!    quorum formed, and under the fast-path read the number of
//!    write-backs depends on which `R_A` arrived first — both timing;
//! 2. under the default options (both phases sent to a quorum by weight,
//!    fast-path reads), where every operation must complete and the
//!    validation burst must put strictly fewer phase-1 frames (`R` and
//!    `RV` together) and strictly fewer `W` frames on the wire than pass
//!    1 did. The `W` saving counts both the quorum-targeted phase 2 and
//!    the fast path's skipped write-backs.
//!
//! In each pass a weight transfer is then invoked on a live server,
//! propagated through the mesh (RB envelopes, refresh, client restarts —
//! all on the wire), and a second burst of client operations proves the
//! system still serves reads and writes under the moved weights. Last,
//! no server may have dialed a client: a reply rides the connection its
//! request came in on. In every report of both passes, the frames a
//! process wrote to its sockets must equal, in number and in bytes, what
//! its `NodeHost` metered: a message's size is its frame. Exits 0 only if
//! every phase of both passes (including clean child shutdown) succeeds.
//!
//! ```text
//! tcp_demo [--smoke] [--servers N] [--clients K] [--ops M] [--objects O] [--seed S]
//! ```
//!
//! Child protocol (internal): children print `PORT <p>` after binding,
//! receive `MESH <p0> <p1> …` on stdin, and then obey line commands —
//! `report`, `transfer <to> <num> <den>`, `ops <m>`, `quit` — answering
//! with `METRICS <report>` / `DONE <report>` / `TRANSFER_DONE` lines, a
//! report being the wire version byte and one `Wire` frame, in hex. See
//! `docs/RUNTIME.md` for a walkthrough.

#![allow(clippy::print_stdout)]

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Child as OsChild, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use awr_core::RpConfig;
use awr_net::{
    decode_frame, encode_frame_into, FrameError, Reader, Sink, TcpTransport, Wire, WIRE_VERSION,
};
use awr_sim::{ActorId, Metrics, NameTable, NodeHost, Time, Transport, UniformLatency};
use awr_storage::{
    check_linearizable_keyed, DynClient, DynMsg, DynOptions, DynServer, Fanout, HistOp, History,
    OpKind, ReadMode, StorageHandle, StorageHarness,
};
use awr_types::wire::{get_map, get_vec, put_map, put_seq};
use awr_types::{ClientId, ObjectId, ProcessId, Ratio, ServerId};

/// The requests a quorum-targeted client must send fewer of: phase 1,
/// as tag queries and register reads together, and phase 2.
const TARGETED_KINDS: [&[&str]; 2] = [&["R", "RV"], &["W"]];

/// Value type carried by the replicated registers in this demo.
type V = u64;

/// The five steady-state ABD kinds whose message counts are validated
/// exactly against the simulator.
const VALIDATED_KINDS: [&str; 5] = ["R", "RV", "R_A", "W", "W_A"];

/// The validated kinds whose bytes must equal the simulator's too: their
/// frames carry no register, so the workload alone fixes them.
const BYTE_EXACT_KINDS: [&str; 3] = ["R", "RV", "W_A"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    if let Some(i) = get("--server") {
        return server_main(i.parse().expect("--server index"), Params::from_args(&get));
    }
    if let Some(k) = get("--client") {
        return client_main(k.parse().expect("--client index"), Params::from_args(&get));
    }

    // Parent mode.
    let smoke = args.iter().any(|a| a == "--smoke");
    let p = Params {
        servers: get("--servers")
            .map(|v| v.parse().expect("--servers"))
            .unwrap_or(if smoke { 3 } else { 5 }),
        clients: get("--clients")
            .map(|v| v.parse().expect("--clients"))
            .unwrap_or(if smoke { 2 } else { 3 }),
        ops: get("--ops")
            .map(|v| v.parse().expect("--ops"))
            .unwrap_or(if smoke { 6 } else { 20 }),
        objects: get("--objects")
            .map(|v| v.parse().expect("--objects"))
            .unwrap_or(3),
        seed: get("--seed")
            .map(|v| v.parse().expect("--seed"))
            .unwrap_or(7),
        fanout: Fanout::All,      // parent sets per pass
        data_dir: PathBuf::new(), // parent fills per spawn
    };
    std::process::exit(parent_main(p));
}

/// Workload parameters shared by the parent and both child roles.
#[derive(Clone, Debug)]
struct Params {
    servers: usize,
    clients: usize,
    ops: u64,
    objects: u64,
    seed: u64,
    /// Whom the clients' phases ask (servers answer whoever asks); the
    /// byte-gated `Fanout::All` pass also pins two-phase reads.
    fanout: Fanout,
    data_dir: PathBuf,
}

impl Params {
    fn from_args(get: &impl Fn(&str) -> Option<String>) -> Params {
        Params {
            servers: get("--servers").expect("--servers").parse().unwrap(),
            clients: get("--clients").expect("--clients").parse().unwrap(),
            ops: get("--ops").map(|v| v.parse().unwrap()).unwrap_or(0),
            objects: get("--objects").map(|v| v.parse().unwrap()).unwrap_or(1),
            seed: get("--seed").expect("--seed").parse().unwrap(),
            fanout: match get("--fanout").as_deref() {
                Some("all") => Fanout::All,
                Some("quorum") | None => Fanout::Quorum,
                Some(other) => panic!("--fanout {other}: want all or quorum"),
            },
            data_dir: get("--data-dir").map(PathBuf::from).unwrap_or_default(),
        }
    }

    fn client_options(&self) -> DynOptions {
        let read = match self.fanout {
            Fanout::All => ReadMode::TwoPhase,
            Fanout::Quorum => ReadMode::FastPath,
        };
        DynOptions {
            fanout: self.fanout,
            read,
            ..DynOptions::default()
        }
    }

    fn cfg(&self) -> RpConfig {
        RpConfig::uniform(self.servers, (self.servers - 1) / 2)
    }

    fn mesh_size(&self) -> usize {
        self.servers + self.clients
    }
}

/// Per-kind tallies of a run, in the owned shape a child ships to the
/// parent across the process boundary (the in-memory [`Metrics`] keys
/// kinds by `&'static str`, which does not decode on the other side).
#[derive(Clone, Debug, Default)]
struct KindStats {
    /// Messages sent, per message kind.
    msgs: BTreeMap<String, u64>,
    /// Bytes of those messages, per message kind.
    bytes: BTreeMap<String, u64>,
}

impl KindStats {
    /// The owned per-kind view of `m`.
    fn of(m: &Metrics) -> KindStats {
        let owned = |by: &NameTable<u64>| by.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        KindStats {
            msgs: owned(&m.sent_by_kind),
            bytes: owned(&m.bytes_by_kind),
        }
    }

    /// Adds `other` into `self` (aggregating several processes' reports).
    fn absorb(&mut self, other: &KindStats) {
        for (mine, theirs) in [
            (&mut self.msgs, &other.msgs),
            (&mut self.bytes, &other.bytes),
        ] {
            for (k, v) in theirs {
                *mine.entry(k.clone()).or_default() += v;
            }
        }
    }

    fn msgs_of(&self, kind: &str) -> u64 {
        self.msgs.get(kind).copied().unwrap_or(0)
    }

    fn bytes_of(&self, kind: &str) -> u64 {
        self.bytes.get(kind).copied().unwrap_or(0)
    }
}

/// One process's stats report, shipped on stdout as one frame in hex.
#[derive(Debug)]
struct Report {
    role: String,
    idx: usize,
    /// Sends as the `NodeHost` metered them (what the simulator charges).
    sent: KindStats,
    /// Frames written to sockets, and their bytes.
    frames: u64,
    frame_bytes: u64,
    /// Sends dropped after the reconnect budget.
    dropped: u64,
    /// Successful dials, per peer (indexed by actor).
    dials: Vec<u64>,
    /// Frames decoded, over every connection.
    frames_received: u64,
    /// Completed client operations, oldest first, with wall-clock stamps
    /// (empty for servers).
    history: Vec<OpRecord>,
}

/// One completed client operation, stamped on the machine's wall clock
/// (ns since the epoch) just before it was invoked and just after it was
/// seen complete — the one clock processes share; each `NodeHost`'s own
/// starts at its process's start. The stamps can only widen the true
/// interval, which can only make the linearizability check more lenient,
/// never flag a correct run.
#[derive(Clone, Debug)]
struct OpRecord {
    obj: u64,
    write: bool,
    value: Option<V>,
    invoke: u64,
    response: u64,
}

impl Wire for Report {
    fn put(&self, out: &mut impl Sink) {
        self.role.put(out);
        self.idx.put(out);
        put_map(out, &self.sent.msgs);
        put_map(out, &self.sent.bytes);
        self.frames.put(out);
        self.frame_bytes.put(out);
        self.dropped.put(out);
        put_seq(out, self.dials.len(), &self.dials);
        self.frames_received.put(out);
        put_seq(out, self.history.len(), &self.history);
    }

    fn get(r: &mut Reader<'_>) -> Result<Report, FrameError> {
        Ok(Report {
            role: String::get(r)?,
            idx: usize::get(r)?,
            // A kind name and a count: at least 2 bytes an entry.
            sent: KindStats {
                msgs: get_map(r, 2)?,
                bytes: get_map(r, 2)?,
            },
            frames: u64::get(r)?,
            frame_bytes: u64::get(r)?,
            dropped: u64::get(r)?,
            dials: get_vec(r, 1)?,
            frames_received: u64::get(r)?,
            history: get_vec(r, 5)?,
        })
    }
}

impl Wire for OpRecord {
    fn put(&self, out: &mut impl Sink) {
        self.obj.put(out);
        self.write.put(out);
        self.value.put(out);
        self.invoke.put(out);
        self.response.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<OpRecord, FrameError> {
        Ok(OpRecord {
            obj: u64::get(r)?,
            write: bool::get(r)?,
            value: Option::get(r)?,
            invoke: u64::get(r)?,
            response: u64::get(r)?,
        })
    }
}

/// Decodes a report line — its version, then its frame, in hex — and
/// checks that the process wrote to its sockets exactly the frames its
/// `NodeHost` metered: as many, and as many bytes.
fn parse_report(hex: &str) -> Result<Report, String> {
    let line: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex report"))
        .collect();
    let Some((&WIRE_VERSION, frame)) = line.split_first() else {
        return Err(format!(
            "a report not of wire version {WIRE_VERSION}: {hex}"
        ));
    };
    let whole = decode_frame(frame).expect("decode report");
    let r: Report = whole.expect("a whole report frame").0;
    let metered = (
        r.sent.msgs.values().sum::<u64>(),
        r.sent.bytes.values().sum::<u64>(),
    );
    if (r.frames, r.frame_bytes) != metered {
        return Err(format!(
            "{} {}: {} frames of {} B on the sockets, {} sends of {} B metered",
            r.role, r.idx, r.frames, r.frame_bytes, metered.0, metered.1
        ));
    }
    Ok(r)
}

fn wall_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after the epoch")
        .as_nanos() as u64
}

// ---------------------------------------------------------------------
// Deterministic workload derivation (shared by TCP clients and the
// simulator comparator — this is what makes the byte totals comparable).
// ---------------------------------------------------------------------

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Operation `j` of client `k`: `(object, Some(value) = write / None = read)`.
fn op_spec(seed: u64, k: usize, j: u64, objects: u64) -> (ObjectId, Option<V>) {
    let h = splitmix64(seed ^ (k as u64).wrapping_mul(0x517C_C1B7_2722_0A95) ^ j);
    let obj = ObjectId(h % objects.max(1));
    if j.is_multiple_of(2) {
        (obj, Some(h | 1)) // writes carry a nonzero derived value
    } else {
        (obj, None)
    }
}

// ---------------------------------------------------------------------
// Child-side plumbing.
// ---------------------------------------------------------------------

/// Binds a listener, prints `PORT`, waits for `MESH`, and returns the
/// transport plus the stdin command channel.
fn child_handshake(me: ActorId, p: &Params) -> (TcpTransport<DynMsg<V>>, mpsc::Receiver<String>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let port = listener.local_addr().expect("local_addr").port();
    println!("PORT {port}");
    std::io::stdout().flush().expect("flush");

    let (tx, rx) = mpsc::channel::<String>();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });

    let mesh = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("MESH line before timeout");
    let ports: Vec<u16> = mesh
        .strip_prefix("MESH ")
        .expect("MESH prefix")
        .split_whitespace()
        .map(|p| p.parse().expect("port"))
        .collect();
    assert_eq!(ports.len(), p.mesh_size(), "mesh size mismatch");
    let addrs: Vec<SocketAddr> = ports
        .iter()
        .map(|&p| SocketAddr::from(([127, 0, 0, 1], p)))
        .collect();
    let transport = TcpTransport::start(me, listener, addrs).expect("transport start");
    (transport, rx)
}

fn report<A: awr_sim::Actor<Msg = DynMsg<V>>>(
    role: &str,
    idx: usize,
    history: &[OpRecord],
    host: &NodeHost<A, TcpTransport<DynMsg<V>>>,
) -> String {
    let t = host.transport();
    let pool = t.pool_stats();
    let r = Report {
        role: role.to_string(),
        idx,
        history: history.to_vec(),
        sent: KindStats::of(host.metrics()),
        frames: pool.frames_sent,
        frame_bytes: pool.frame_bytes_sent,
        dropped: pool.dropped,
        dials: (0..t.n_actors()).map(|i| t.dials_to(ActorId(i))).collect(),
        frames_received: t.frames_received(),
    };
    let mut line = vec![WIRE_VERSION];
    encode_frame_into(&r, &mut line);
    line.iter().map(|b| format!("{b:02x}")).collect()
}

fn server_main(i: usize, p: Params) {
    let dir = p.data_dir.join(format!("s{i}"));
    std::fs::create_dir_all(&dir).expect("server data dir");
    let storage = StorageHandle::<V>::file(&dir);
    let server =
        DynServer::with_storage(p.cfg(), ServerId(i as u32), DynOptions::default(), storage);
    let (transport, rx) = child_handshake(ActorId(i), &p);
    let mut host = NodeHost::start(server, transport, p.seed);

    let mut transfer_watch: Option<usize> = None;
    loop {
        host.step(Duration::from_millis(2));
        if let Some(baseline) = transfer_watch {
            if host.actor().completed_transfers().len() > baseline {
                println!("TRANSFER_DONE");
                std::io::stdout().flush().expect("flush");
                transfer_watch = None;
            }
        }
        let cmd = match rx.try_recv() {
            Ok(c) => c,
            Err(mpsc::TryRecvError::Empty) => continue,
            Err(mpsc::TryRecvError::Disconnected) => return,
        };
        let mut words = cmd.split_whitespace();
        match words.next() {
            Some("report") => {
                // Drain in-flight traffic so the counters are settled.
                host.run_until_idle(Duration::from_millis(50));
                println!("METRICS {}", report("server", i, &[], &host));
                std::io::stdout().flush().expect("flush");
            }
            Some("transfer") => {
                let to: u32 = words.next().expect("to").parse().expect("to");
                let num: i128 = words.next().expect("num").parse().expect("num");
                let den: i128 = words.next().expect("den").parse().expect("den");
                transfer_watch = Some(host.actor().completed_transfers().len());
                host.with_actor(|s, ctx| {
                    s.begin_transfer_queued(ServerId(to), Ratio::new(num, den), ctx)
                })
                .expect("transfer start");
            }
            Some("quit") => return,
            _ => {}
        }
    }
}

fn client_main(k: usize, p: Params) {
    let client = DynClient::<V>::new(
        ProcessId::Client(ClientId(k as u32)),
        p.cfg(),
        p.client_options(),
    );
    let (transport, rx) = child_handshake(ActorId(p.servers + k), &p);
    let mut host = NodeHost::start(client, transport, p.seed);

    let mut history: Vec<OpRecord> = Vec::new();
    let run_burst = |host: &mut NodeHost<DynClient<V>, TcpTransport<DynMsg<V>>>,
                     history: &mut Vec<OpRecord>,
                     burst: u64| {
        for _ in 0..burst {
            let j = history.len() as u64;
            let (obj, value) = op_spec(p.seed, k, j, p.objects);
            let invoke = wall_ns();
            host.with_actor(|c, ctx| match value {
                Some(v) => c.begin_write_obj(obj, v, ctx),
                None => c.begin_read_obj(obj, ctx),
            });
            let deadline = Instant::now() + Duration::from_secs(20);
            while host.actor().driver.completed.len() as u64 == j {
                host.step(Duration::from_millis(2));
                assert!(Instant::now() < deadline, "client {k} op {j} timed out");
            }
            let response = wall_ns();
            let (write, value) = match &host.actor().driver.completed[j as usize].kind {
                OpKind::Write(v) => (true, Some(*v)),
                OpKind::Read(v) => (false, *v),
            };
            history.push(OpRecord {
                obj: obj.key(),
                write,
                value,
                invoke,
                response,
            });
        }
    };

    // Initial validation burst, then obey commands.
    run_burst(&mut host, &mut history, p.ops);
    println!("DONE {}", report("client", k, &history, &host));
    std::io::stdout().flush().expect("flush");

    loop {
        host.step(Duration::from_millis(2));
        let cmd = match rx.try_recv() {
            Ok(c) => c,
            Err(mpsc::TryRecvError::Empty) => continue,
            Err(mpsc::TryRecvError::Disconnected) => return,
        };
        let mut words = cmd.split_whitespace();
        match words.next() {
            Some("ops") => {
                let burst: u64 = words.next().expect("count").parse().expect("count");
                run_burst(&mut host, &mut history, burst);
                println!("DONE {}", report("client", k, &history, &host));
                std::io::stdout().flush().expect("flush");
            }
            Some("quit") => return,
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Parent: orchestration and validation.
// ---------------------------------------------------------------------

/// A spawned child with a line-reader thread over its stdout.
struct Proc {
    name: String,
    child: OsChild,
    lines: mpsc::Receiver<String>,
}

impl Proc {
    fn spawn(name: String, args: Vec<String>) -> Proc {
        let exe = std::env::current_exe().expect("current_exe");
        let mut child = Command::new(exe)
            .args(&args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn child");
        let stdout = child.stdout.take().expect("child stdout");
        let (tx, lines) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Proc { name, child, lines }
    }

    fn send(&mut self, line: &str) {
        let stdin = self.child.stdin.as_mut().expect("child stdin");
        writeln!(stdin, "{line}").expect("write to child");
        stdin.flush().expect("flush to child");
    }

    /// Waits for the next line starting with `prefix`, returning the rest.
    fn expect(&mut self, prefix: &str, timeout: Duration) -> Result<String, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok(line) => {
                    if let Some(rest) = line.strip_prefix(prefix) {
                        return Ok(rest.trim().to_string());
                    }
                    // Unexpected chatter: surface it but keep waiting.
                    eprintln!("[{}] {}", self.name, line);
                }
                Err(_) => return Err(format!("{}: no `{prefix}` line in time", self.name)),
            }
        }
    }

    fn join(mut self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("{}: exited {status}", self.name)),
                Ok(None) if Instant::now() >= deadline => {
                    let _ = self.child.kill();
                    return Err(format!("{}: killed after shutdown timeout", self.name));
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                Err(e) => return Err(format!("{}: wait failed: {e}", self.name)),
            }
        }
    }
}

/// The simulator's per-kind accounting for the identical workload under
/// the same client options.
fn simulate_reference(p: &Params) -> KindStats {
    let mut h = StorageHarness::<V>::build(
        p.cfg(),
        p.clients,
        p.seed,
        UniformLatency::new(1_000, 50_000),
        p.client_options(),
    );
    for k in 0..p.clients {
        for j in 0..p.ops {
            let (obj, value) = op_spec(p.seed, k, j, p.objects);
            match value {
                Some(v) => {
                    h.write_obj(k, obj, v).expect("sim write");
                }
                None => {
                    h.read_obj(k, obj).expect("sim read");
                }
            }
        }
    }
    KindStats::of(h.world.metrics())
}

/// The spawned processes of one pass. Dropping it kills whatever is still
/// running and removes the servers' data directory, so every early return
/// cleans up.
struct Mesh {
    procs: Vec<Proc>,
    data_dir: PathBuf,
}

impl Drop for Mesh {
    fn drop(&mut self) {
        for proc in &mut self.procs {
            let _ = proc.child.kill();
        }
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}

/// Spawns servers and clients and exchanges ports.
fn spawn_mesh(p: &Params) -> Result<Mesh, String> {
    std::fs::create_dir_all(&p.data_dir).expect("data dir");
    let mut mesh = Mesh {
        procs: Vec::new(),
        data_dir: p.data_dir.clone(),
    };
    let common = [
        "--servers".to_string(),
        p.servers.to_string(),
        "--clients".into(),
        p.clients.to_string(),
        "--seed".into(),
        p.seed.to_string(),
    ];
    for i in 0..p.servers {
        let mut args = vec!["--server".to_string(), i.to_string()];
        args.extend(common.iter().cloned());
        args.extend(["--data-dir".into(), p.data_dir.display().to_string()]);
        mesh.procs.push(Proc::spawn(format!("server{i}"), args));
    }
    let fanout = match p.fanout {
        Fanout::All => "all",
        Fanout::Quorum => "quorum",
    };
    for k in 0..p.clients {
        let mut args = vec!["--client".to_string(), k.to_string()];
        args.extend(common.iter().cloned());
        args.extend([
            "--ops".into(),
            p.ops.to_string(),
            "--objects".into(),
            p.objects.to_string(),
            "--fanout".into(),
            fanout.into(),
        ]);
        mesh.procs.push(Proc::spawn(format!("client{k}"), args));
    }
    let mut ports = Vec::new();
    for proc in mesh.procs.iter_mut() {
        ports.push(proc.expect("PORT ", Duration::from_secs(30))?);
    }
    let line = format!("MESH {}", ports.join(" "));
    for proc in mesh.procs.iter_mut() {
        proc.send(&line);
    }
    println!("tcp_demo: mesh up on ports [{}]", ports.join(", "));
    Ok(mesh)
}

/// Keyed linearizability of the clients' combined history.
fn check_history(reports: &[Report]) -> Result<usize, String> {
    let mut history = History::new();
    for r in reports {
        for op in &r.history {
            history.record(HistOp {
                client: r.idx,
                obj: ObjectId(op.obj),
                kind: if op.write {
                    OpKind::Write(op.value.expect("a write carries its value"))
                } else {
                    OpKind::Read(op.value)
                },
                invoke: Time(op.invoke),
                response: Time(op.response),
            });
        }
    }
    check_linearizable_keyed(&history).map_err(|e| format!("history not linearizable: {e}"))?;
    Ok(history.len())
}

/// Cross-validation against the same-seed simulator run: `clients` are
/// the clients' reports of the validation burst.
fn validate_bytes(mesh: &mut Mesh, p: &Params, clients: &[Report]) -> Result<(), String> {
    let expected = simulate_reference(p);
    let mut agg = KindStats::default();
    for r in clients {
        agg.absorb(&r.sent);
    }
    // Servers may still be writing their final acks when the clients
    // report; poll until their counters settle at the expectation.
    let poll_deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let mut all = agg.clone();
        for proc in &mut mesh.procs[..p.servers] {
            proc.send("report");
            all.absorb(&parse_report(&proc.expect("METRICS ", Duration::from_secs(10))?)?.sent);
        }
        let settled = VALIDATED_KINDS
            .iter()
            .all(|k| all.msgs_of(k) == expected.msgs_of(k));
        if settled || Instant::now() >= poll_deadline {
            agg = all;
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }

    println!();
    println!("  kind   msgs(tcp)  msgs(sim)  bytes(tcp)  bytes(sim)");
    let mut ok = true;
    for kind in VALIDATED_KINDS {
        let (tm, sm) = (agg.msgs_of(kind), expected.msgs_of(kind));
        let (tb, sb) = (agg.bytes_of(kind), expected.bytes_of(kind));
        let exact = BYTE_EXACT_KINDS.contains(&kind);
        let row_ok = tm == sm && tm > 0 && (!exact || tb == sb);
        ok &= row_ok;
        println!(
            "  {kind:<6} {tm:>9}  {sm:>9}  {tb:>10}  {sb:>10}  {}",
            match (row_ok, exact) {
                (false, _) => "MISMATCH",
                (true, true) => "ok",
                (true, false) => "ok (counts)",
            }
        );
    }
    if !ok {
        return Err("byte accounting diverged from the simulator".into());
    }
    println!("  counts match the simulator exactly, and the bytes of R, RV and W_A do");
    println!();
    Ok(())
}

/// Every frame a server sent a client rode the client's own connection:
/// no server dialed a client. `clients` are the clients' latest reports.
fn check_dials(mesh: &mut Mesh, p: &Params, clients: &[Report]) -> Result<(), String> {
    let dials = |r: &Report, to: std::ops::Range<usize>| r.dials[to].iter().sum::<u64>();
    let mut among_servers = 0;
    for proc in &mut mesh.procs[..p.servers] {
        proc.send("report");
        let r = parse_report(&proc.expect("METRICS ", Duration::from_secs(10))?)?;
        let to_clients = dials(&r, p.servers..p.mesh_size());
        if to_clients > 0 {
            return Err(format!(
                "server {} dialed a client {to_clients} time(s) instead of answering on its connection",
                r.idx
            ));
        }
        among_servers += dials(&r, 0..p.servers);
    }
    let by_clients: u64 = clients.iter().map(|r| dials(r, 0..p.mesh_size())).sum();
    println!(
        "tcp_demo: {by_clients} dials by clients, {among_servers} among servers, none from a server to a client"
    );
    Ok(())
}

/// One whole pass on a fresh mesh under `p.fanout`: the validation burst
/// (byte-validated when `gate_bytes`), a live transfer, a second burst,
/// the linearizability check, the dial check, clean shutdown. Returns the frames of each
/// of [`TARGETED_KINDS`] the validation burst put on the wire.
fn run_pass(p: &Params, gate_bytes: bool) -> Result<[u64; TARGETED_KINDS.len()], String> {
    let started = Instant::now();
    let mut mesh = spawn_mesh(p)?;
    let clients = p.servers..p.mesh_size();

    // Clients run the validation workload.
    let mut reports: Vec<Report> = Vec::new();
    for proc in &mut mesh.procs[clients.clone()] {
        reports.push(parse_report(
            &proc.expect("DONE ", Duration::from_secs(120))?,
        )?);
    }
    let tcp_ops: u64 = reports.iter().map(|r| r.history.len() as u64).sum();
    if tcp_ops != p.ops * p.clients as u64 {
        return Err(format!("{tcp_ops} operations completed, not all"));
    }
    println!(
        "tcp_demo: {} operations completed over TCP in {:.2}s",
        tcp_ops,
        started.elapsed().as_secs_f64()
    );
    let frames = TARGETED_KINDS.map(|kinds| {
        let sent = |r: &Report| kinds.iter().map(|k| r.sent.msgs_of(k)).sum::<u64>();
        reports.iter().map(sent).sum()
    });
    if gate_bytes {
        validate_bytes(&mut mesh, p, &reports)?;
    }

    // Live weight transfer, then prove the system still serves ops.
    println!("tcp_demo: transferring 1/8 weight from server 0 to server 1 over TCP …");
    mesh.procs[0].send("transfer 1 1 8");
    mesh.procs[0].expect("TRANSFER_DONE", Duration::from_secs(30))?;
    let post_burst: u64 = 4;
    reports.clear();
    for proc in &mut mesh.procs[clients] {
        proc.send(&format!("ops {post_burst}"));
        let r = parse_report(&proc.expect("DONE ", Duration::from_secs(60))?)?;
        let done = r.history.len() as u64;
        if done != p.ops + post_burst {
            return Err(format!(
                "{} {}: {done} ops after the transfer",
                r.role, r.idx
            ));
        }
        reports.push(r);
    }
    println!(
        "tcp_demo: all {} post-transfer operations completed under the moved weights",
        post_burst * p.clients as u64
    );
    let checked = check_history(&reports)?;
    println!("tcp_demo: the {checked}-operation history is keyed-linearizable");
    check_dials(&mut mesh, p, &reports)?;
    println!("tcp_demo: every report's socket frames equal its metered sends, in number and bytes");

    // Clean shutdown.
    for proc in mesh.procs.iter_mut() {
        proc.send("quit");
    }
    let mut unclean = Vec::new();
    for proc in std::mem::take(&mut mesh.procs) {
        unclean.extend(proc.join(Duration::from_secs(10)).err());
    }
    if unclean.is_empty() {
        Ok(frames)
    } else {
        Err(unclean.join("; "))
    }
}

fn parent_main(mut p: Params) -> i32 {
    let started = Instant::now();
    println!(
        "tcp_demo: {} servers + {} clients on localhost, {} ops/client over {} objects, seed {}",
        p.servers, p.clients, p.ops, p.objects, p.seed
    );
    let mut frames = Vec::new();
    for (pass, fanout) in [Fanout::All, Fanout::Quorum].into_iter().enumerate() {
        p.fanout = fanout;
        println!();
        println!(
            "tcp_demo: pass {} — clients under {fanout:?}, {:?} reads",
            pass + 1,
            p.client_options().read
        );
        p.data_dir =
            std::env::temp_dir().join(format!("awr_tcp_demo_{}_{}", std::process::id(), pass + 1));
        match run_pass(&p, fanout == Fanout::All) {
            Ok(f) => frames.push(f),
            Err(e) => {
                eprintln!("tcp_demo: {e}");
                return 1;
            }
        }
    }
    println!();
    for (k, kinds) in TARGETED_KINDS.into_iter().enumerate() {
        let kind = kinds.join("` + `");
        let (all, quorum) = (frames[0][k], frames[1][k]);
        println!(
            "tcp_demo: `{kind}` frames of the validation burst: {all} asking everyone, {quorum} asking a quorum"
        );
        if quorum >= all {
            eprintln!("tcp_demo: the targeted pass did not send fewer `{kind}` frames");
            return 1;
        }
    }
    println!(
        "tcp_demo: PASS in {:.2}s (2 passes of {} processes, clean exit)",
        started.elapsed().as_secs_f64(),
        p.mesh_size()
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_stats_of_and_absorb() {
        let mut m = Metrics::default();
        *m.sent_by_kind.slot("R") += 3;
        *m.bytes_by_kind.slot("R") += 300;
        let mut a = KindStats::of(&m);
        let b = a.clone();
        a.absorb(&b);
        assert_eq!((a.msgs_of("R"), a.bytes_of("R")), (6, 600));
        assert_eq!((a.msgs_of("W"), a.bytes_of("W")), (0, 0));
    }
}
