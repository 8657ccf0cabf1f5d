//! The wall-clock workloads: a cluster hosted in this process, one OS
//! thread per node, each a `NodeHost` over a real loopback `TcpTransport`.
//!
//! No message delay is injected (stated in the output): latency here is
//! processor time plus the kernel's loopback path. Load is closed-loop —
//! each client thread starts its next operation when the previous one
//! returns — from at most as many client threads as the sizing machine
//! had cores.
//!
//! Every wait is bounded: an operation that has not returned after
//! [`OP_TIMEOUT`] or a transfer still pending [`TRANSFER_TIMEOUT`] after
//! the load stopped counts as failed.

use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use awr_core::{RpConfig, TransferOutcome};
use awr_net::{PoolStats, TcpTransport};
use awr_sim::{ActorId, Metrics, NodeHost, Step, Transport};
use awr_storage::workload::KeyDistribution;
use awr_storage::{DynClient, DynOptions, DynServer, FileStorage, OpKind, StorageHandle};
use awr_types::{ClientId, ObjectId, ProcessId, Ratio, ServerId, TaggedValue, WeightMap};

use crate::calib::{self, Calibrator, SpeedLog, SAMPLE_EVERY_NS};
use crate::checks::{self, OpRec};
use crate::metrics::Outcome;
use crate::procfs;
use crate::script::{Keying, OpScript, TransferSchedule};
use crate::stats::{self, Stat, SEGMENTS};
use crate::trace::{self, now_ns, Msg, RunTrace, ThreadTrace, TracedStorage, TracedTransport};

const OP_TIMEOUT: Duration = Duration::from_secs(5);
const TRANSFER_TIMEOUT: Duration = Duration::from_secs(10);
/// Receive deadline of one host step: bounds how long a node thread can
/// go without looking at its control flags.
const STEP: Duration = Duration::from_millis(2);
/// How many clusters are brought up per run; `setup_s` is their median.
const SETUPS: usize = 41;
/// `due` of the unmeasured transfer each server runs during set-up so the
/// server↔server links are dialled before the window opens.
const WARM_UP: u64 = u64::MAX;
/// One transfer per 250 ms, cluster-wide (96 in a 24 s run, `|C|` → ~200).
/// The pace is what keeps `tcp_reassign` on the stable side of a cliff.
/// Every transfer adds two changes to `C`; a server that falls behind the
/// client's `C` answers every `R`/`W` it is sent — all of them: the
/// client broadcasts — with its whole set until it has caught up, and
/// the cost of that answer grows with `|C|`. Past some `|C|` a server
/// that lags for a moment (the host takes the CPU for 50 ms) spends more
/// on those answers than it has, never catches up, its own transfers
/// never complete and the run fails. With every node on one CPU that
/// happened late in one 24 s run in twenty-five at one transfer per
/// 100 ms (`|C|` > 400), and in three of twenty-six with a second
/// instance competing for the CPU; at this pace, in none of forty under
/// the same competition. The benchmark must not depend on that regime
/// (no operation may fail); a change that moves the cliff shows in
/// `types.csref.full_share`, `wire_bytes_per_op` and `peak_rss_mb` first.
const TRANSFER_PERIOD_NS: u64 = 250_000_000;
/// Message kinds of the ABD read/write phases; everything else a server
/// sends is reassignment, refresh or rejoin traffic.
const ABD_KINDS: [&str; 4] = ["R", "R_A", "W", "W_A"];

// ---------------------------------------------------------------------
// Traced or not: one switch for both decorators
// ---------------------------------------------------------------------

/// The transport a node runs over: the bare `TcpTransport`, or the same
/// behind the tracing decorators.
pub trait Fabric: Transport<Msg> + Send + Sized + 'static {
    const TRACED: bool;
    fn wrap(tcp: TcpTransport<Msg>) -> Self;
    fn tcp(&self) -> &TcpTransport<Msg>;
    /// The file-backed store of a durable server rooted at `dir`.
    fn storage(dir: &Path) -> StorageHandle<u64>;
}

impl Fabric for TcpTransport<Msg> {
    const TRACED: bool = false;
    fn wrap(tcp: TcpTransport<Msg>) -> Self {
        tcp
    }
    fn tcp(&self) -> &TcpTransport<Msg> {
        self
    }
    fn storage(dir: &Path) -> StorageHandle<u64> {
        StorageHandle::file(dir)
    }
}

impl Fabric for TracedTransport<TcpTransport<Msg>> {
    const TRACED: bool = true;
    fn wrap(tcp: TcpTransport<Msg>) -> Self {
        TracedTransport::new(tcp)
    }
    fn tcp(&self) -> &TcpTransport<Msg> {
        self.inner()
    }
    fn storage(dir: &Path) -> StorageHandle<u64> {
        StorageHandle::new(TracedStorage::new(FileStorage::<u64>::open(dir)))
    }
}

// ---------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------

/// One TCP workload. See `benchmark/README.md` for why each exists.
#[derive(Clone, Copy, Debug)]
pub struct TcpSpec {
    pub name: &'static str,
    pub n: usize,
    pub f: usize,
    pub clients: usize,
    /// Servers log to a file-backed WAL (buffered writes, no fsync).
    pub durable: bool,
    pub read_pct: u32,
    pub keys: usize,
    pub keying: Keying,
    /// One transfer per this many ns, cluster-wide, on a ring.
    pub transfer_period_ns: Option<u64>,
    /// This server is dropped after the first half of the window and
    /// recovered from its WAL after three quarters.
    pub crash: Option<usize>,
}

pub fn spec_of(name: &str) -> Option<TcpSpec> {
    let zipf = Keying::Shared(KeyDistribution::Zipfian { exponent: 0.99 });
    let uniform = Keying::Shared(KeyDistribution::Uniform);
    match name {
        "tcp_read_mostly" => Some(TcpSpec {
            name: "tcp_read_mostly",
            n: 3,
            f: 1,
            clients: 2,
            durable: false,
            read_pct: 95,
            keys: 256,
            keying: zipf,
            transfer_period_ns: None,
            crash: None,
        }),
        "tcp_crash_restart" => Some(TcpSpec {
            name: "tcp_crash_restart",
            n: 3,
            f: 1,
            clients: 2,
            durable: true,
            read_pct: 20,
            keys: 64,
            keying: Keying::WriterPartitioned,
            transfer_period_ns: None,
            crash: Some(2),
        }),
        "tcp_reassign" => Some(TcpSpec {
            name: "tcp_reassign",
            n: 5,
            f: 1,
            clients: 1,
            durable: false,
            read_pct: 50,
            keys: 64,
            keying: uniform,
            transfer_period_ns: Some(TRANSFER_PERIOD_NS),
            crash: None,
        }),
        _ => None,
    }
}

impl TcpSpec {
    fn cfg(&self) -> RpConfig {
        RpConfig::uniform(self.n, self.f)
    }

    /// The part of the run the segment metrics cover, in ns: the whole
    /// run, or its healthy first half when a server is dropped later.
    fn window_ns(&self, run_ns: u64) -> u64 {
        if self.crash.is_some() {
            run_ns / 2
        } else {
            run_ns
        }
    }
}

// ---------------------------------------------------------------------
// Shared control block
// ---------------------------------------------------------------------

struct Ctl {
    stop_clients: AtomicBool,
    stop_servers: AtomicBool,
    kill: Vec<AtomicBool>,
    /// Start of the measured window on the process clock; 0 until set-up
    /// has finished and the window is published.
    window_start: AtomicU64,
    /// Transfers due at or after this instant are not issued.
    transfers_end: AtomicU64,
    clients_ready: AtomicUsize,
    servers_ready: AtomicUsize,
    /// Measured transfers issued and not yet completed, all servers.
    outstanding: AtomicUsize,
    /// Per key, the value of the last write its (single) writer saw
    /// acknowledged. Only filled under [`Keying::WriterPartitioned`].
    acked: Vec<AtomicU64>,
}

// ---------------------------------------------------------------------
// Node threads
// ---------------------------------------------------------------------

enum Boot {
    Fresh,
    /// Recover from the WAL; `target[k]` is the write to key `k` that was
    /// last acknowledged before the restart began.
    Recover {
        target: Vec<u64>,
    },
}

struct TransferRec {
    due: u64,
    started: u64,
    completed: Option<u64>,
}

struct ServerReport {
    metrics: Metrics,
    pool: PoolStats,
    transfers: Vec<TransferRec>,
    outcomes: Vec<(TransferOutcome, u64)>,
    refreshes: u64,
    changes_len: usize,
    weights: WeightMap,
    delivered: u64,
    load_ms: Option<f64>,
    recovered_at: Option<u64>,
    trace: Option<ThreadTrace>,
}

struct ServerArgs {
    id: usize,
    spec: TcpSpec,
    seed: u64,
    listener: TcpListener,
    addrs: Vec<SocketAddr>,
    dir: Option<PathBuf>,
    boot: Boot,
    ctl: Arc<Ctl>,
    thread_name: String,
}

fn covers(regs: &BTreeMap<ObjectId, TaggedValue<u64>>, target: &[u64]) -> bool {
    target.iter().enumerate().all(|(k, want)| {
        *want == 0 || regs.get(&ObjectId(k as u64)).and_then(|r| r.value) >= Some(*want)
    })
}

/// One ring transfer of 1/100, queued behind whatever is in flight.
fn issue_transfer<F: Fabric>(host: &mut NodeHost<DynServer<u64>, F>, to: ServerId) {
    let _g = trace::span("host.begin_transfer");
    host.with_actor(|srv, ctx| srv.begin_transfer_queued(to, Ratio::new(1, 100), ctx))
        .expect("ring transfer arguments are valid");
}

fn server_main<F: Fabric>(a: ServerArgs) -> ServerReport {
    if F::TRACED {
        trace::begin_thread(&a.thread_name);
    }
    let cfg = a.spec.cfg();
    let me = ServerId(a.id as u32);
    let opts = DynOptions::default();
    let mut load_ms = None;
    let server = match (&a.dir, &a.boot) {
        (None, _) => DynServer::<u64>::new(cfg.clone(), me, opts),
        (Some(dir), Boot::Fresh) => DynServer::with_storage(cfg.clone(), me, opts, F::storage(dir)),
        (Some(dir), Boot::Recover { .. }) => {
            let started = Instant::now();
            let s = DynServer::recover(cfg.clone(), me, opts, F::storage(dir));
            load_ms = Some(started.elapsed().as_secs_f64() * 1e3);
            s
        }
    };
    let tcp = TcpTransport::start(ActorId(a.id), a.listener, a.addrs).expect("start transport");
    let mut host = NodeHost::start(server, F::wrap(tcp), a.seed);

    let sched = a
        .spec
        .transfer_period_ns
        .map(|p| TransferSchedule::new(a.seed, a.spec.n, p));
    let mut pending: VecDeque<(u64, u64)> = VecDeque::new();
    let mut transfers: Vec<TransferRec> = Vec::new();
    let mut outcomes: Vec<(TransferOutcome, u64)> = Vec::new();
    let (mut reaped, mut round, mut delivered) = (0usize, 0u64, 0u64);
    let mut recovering = match a.boot {
        Boot::Recover { target } => Some(target),
        Boot::Fresh => None,
    };
    let mut recovered_at = None;

    match &sched {
        Some(s) => {
            issue_transfer(&mut host, s.recipient(a.id));
            pending.push_back((WARM_UP, now_ns()));
        }
        None => {
            a.ctl.servers_ready.fetch_add(1, Ordering::SeqCst);
        }
    }

    while !a.ctl.stop_servers.load(Ordering::SeqCst) && !a.ctl.kill[a.id].load(Ordering::SeqCst) {
        let t0 = a.ctl.window_start.load(Ordering::SeqCst);
        let next_due = match (&sched, t0) {
            (Some(s), t0) if t0 > 0 => Some(t0 + s.due_ns(a.id, round)),
            _ => None,
        };
        let wait = match next_due {
            Some(due) => STEP.min(Duration::from_nanos(due.saturating_sub(now_ns()))),
            None => STEP,
        };
        let step = {
            let _g = trace::span("host.step");
            host.step(wait)
        };
        if step == Step::Delivered {
            delivered += 1;
        }

        // Completions first, so a transfer's latency never includes the
        // time spent issuing the next one.
        let done = host.actor().completed_transfers().len();
        while reaped < done {
            let outcome = host.actor().completed_transfers()[reaped].0.clone();
            let now = now_ns();
            outcomes.push((outcome, now));
            let (due, started) = pending.pop_front().expect("a completion per request");
            if due == WARM_UP {
                a.ctl.servers_ready.fetch_add(1, Ordering::SeqCst);
            } else {
                transfers.push(TransferRec {
                    due,
                    started,
                    completed: Some(now),
                });
                a.ctl.outstanding.fetch_sub(1, Ordering::SeqCst);
            }
            reaped += 1;
        }

        if let (Some(s), Some(mut due)) = (&sched, next_due) {
            let end = a.ctl.transfers_end.load(Ordering::SeqCst);
            let mut now = now_ns();
            while due <= now && due < end {
                a.ctl.outstanding.fetch_add(1, Ordering::SeqCst);
                issue_transfer(&mut host, s.recipient(a.id));
                pending.push_back((due, now));
                round += 1;
                due = t0 + s.due_ns(a.id, round);
                now = now_ns();
            }
        }

        if let Some(target) = &recovering {
            if covers(host.actor().registers(), target) {
                recovered_at = Some(now_ns());
                recovering = None;
            }
        }
    }

    for (due, started) in pending {
        if due != WARM_UP {
            transfers.push(TransferRec {
                due,
                started,
                completed: None,
            });
        }
    }
    let actor = host.actor();
    ServerReport {
        metrics: host.metrics().clone(),
        pool: host.transport().tcp().pool_stats(),
        transfers,
        outcomes,
        refreshes: actor.refreshes,
        changes_len: actor.changes().len(),
        weights: actor.changes().weights(a.spec.n),
        delivered,
        load_ms,
        recovered_at,
        trace: trace::end_thread(),
    }
    // `host` drops here: the listener stops and every socket closes —
    // which is all a "crashed" server is to its peers.
}

struct ClientReport<F: Fabric> {
    ops: Vec<OpRec>,
    failed: u64,
    delivered: u64,
    /// Kept alive until the servers have stopped: dropping it earlier
    /// would make every late server→client ack cost its sender a full
    /// reconnect budget.
    host: NodeHost<DynClient<u64>, F>,
    trace: Option<ThreadTrace>,
}

struct ClientArgs {
    index: usize,
    spec: TcpSpec,
    seed: u64,
    listener: TcpListener,
    addrs: Vec<SocketAddr>,
    ctl: Arc<Ctl>,
}

fn client_main<F: Fabric>(a: ClientArgs) -> ClientReport<F> {
    if F::TRACED {
        trace::begin_thread(&format!("client{}", a.index));
    }
    let me = ActorId(a.spec.n + a.index);
    let client = DynClient::<u64>::new(
        ProcessId::Client(ClientId(a.index as u32)),
        a.spec.cfg(),
        DynOptions::default(),
    );
    let tcp = TcpTransport::start(me, a.listener, a.addrs).expect("start transport");
    let mut host = NodeHost::start(client, F::wrap(tcp), a.seed);
    let mut script = OpScript::new(
        a.seed,
        a.index,
        a.spec.clients,
        a.spec.keys,
        a.spec.keying,
        a.spec.read_pct,
    );
    let mut ops: Vec<OpRec> = Vec::new();
    let (mut failed, mut delivered) = (0u64, 0u64);

    'load: while !a.ctl.stop_clients.load(Ordering::SeqCst) {
        let op = script.next_op();
        let invoke = now_ns();
        {
            let _g = trace::span("host.begin_op");
            host.with_actor(|c, ctx| match op.write {
                Some(v) => c.begin_write_obj(op.obj, v, ctx),
                None => c.begin_read_obj(op.obj, ctx),
            });
        }
        while host.actor().driver.completed.is_empty() {
            if now_ns() - invoke > OP_TIMEOUT.as_nanos() as u64 {
                // The driver is still busy with this operation, so the
                // client cannot start another: it leaves the load.
                failed += 1;
                break 'load;
            }
            let _g = trace::span("host.step");
            if host.step(STEP) == Step::Delivered {
                delivered += 1;
            }
        }
        let response = now_ns();
        // Take the record out of the driver's log, which would otherwise
        // grow by one entry per operation for as long as the client lives:
        // memory that scales with how fast the system is, not with what
        // it holds.
        let done = host
            .with_actor(|c, _| c.driver.completed.pop())
            .expect("the loop above saw a completed operation");
        if let (OpKind::Write(v), Keying::WriterPartitioned) = (&done.kind, a.spec.keying) {
            a.ctl.acked[op.obj.key() as usize].store(*v, Ordering::SeqCst);
        }
        ops.push(OpRec {
            invoke,
            response,
            obj: done.obj,
            kind: done.kind,
            restarts: done.restarts,
        });
        if ops.len() == 1 {
            a.ctl.clients_ready.fetch_add(1, Ordering::SeqCst);
        }
    }
    ClientReport {
        ops,
        failed,
        delivered,
        host,
        trace: trace::end_thread(),
    }
}

// ---------------------------------------------------------------------
// Cluster lifecycle
// ---------------------------------------------------------------------

struct Cluster<F: Fabric> {
    spec: TcpSpec,
    seed: u64,
    ctl: Arc<Ctl>,
    addrs: Vec<SocketAddr>,
    dirs: Vec<Option<PathBuf>>,
    servers: Vec<Option<JoinHandle<ServerReport>>>,
    clients: Vec<JoinHandle<ClientReport<F>>>,
    /// Reports of server incarnations that were dropped mid-run.
    retired: Vec<ServerReport>,
}

/// Everything the threads of one cluster handed back.
struct Reports<F: Fabric> {
    servers: Vec<ServerReport>,
    clients: Vec<ClientReport<F>>,
}

fn wait_until(deadline_ns: u64) {
    let now = now_ns();
    if deadline_ns > now {
        std::thread::sleep(Duration::from_nanos(deadline_ns - now));
    }
}

/// Sleeps until `deadline_ns`, waking every [`SAMPLE_EVERY_NS`] to take a
/// sample of the host's speed.
fn calibrate_until(deadline_ns: u64, calibrator: &mut Calibrator, speed: &mut SpeedLog) {
    loop {
        let now = now_ns();
        if now >= deadline_ns {
            return;
        }
        speed.sample(calibrator);
        wait_until(deadline_ns.min(now + SAMPLE_EVERY_NS));
    }
}

fn poll(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let started = Instant::now();
    while !done() {
        if started.elapsed() > timeout {
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    true
}

impl<F: Fabric> Cluster<F> {
    /// Binds every node's listener, starts every thread and waits until
    /// set-up is complete: each client has one operation behind it and,
    /// when the workload reassigns, each server one transfer (so every
    /// link of the mesh is dialled). Returns the cluster and how long
    /// that took.
    fn start(spec: TcpSpec, seed: u64, data_root: &Path) -> Result<(Cluster<F>, f64), String> {
        let started = Instant::now();
        let nodes = spec.n + spec.clients;
        let mut listeners = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            listeners.push(TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?);
        }
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr().map_err(|e| format!("local_addr: {e}")))
            .collect::<Result<_, _>>()?;
        let ctl = Arc::new(Ctl {
            stop_clients: AtomicBool::new(false),
            stop_servers: AtomicBool::new(false),
            kill: (0..spec.n).map(|_| AtomicBool::new(false)).collect(),
            window_start: AtomicU64::new(0),
            transfers_end: AtomicU64::new(u64::MAX),
            clients_ready: AtomicUsize::new(0),
            servers_ready: AtomicUsize::new(0),
            outstanding: AtomicUsize::new(0),
            acked: (0..spec.keys).map(|_| AtomicU64::new(0)).collect(),
        });
        let dirs: Vec<Option<PathBuf>> = (0..spec.n)
            .map(|i| spec.durable.then(|| data_root.join(format!("s{i}"))))
            .collect();
        let mut cluster = Cluster {
            spec,
            seed,
            ctl,
            addrs,
            dirs,
            servers: Vec::new(),
            clients: Vec::new(),
            retired: Vec::new(),
        };
        let mut listeners = listeners.into_iter();
        for i in 0..spec.n {
            let listener = listeners.next().expect("one listener per node");
            let h = cluster.spawn_server(i, listener, Boot::Fresh, format!("server{i}"));
            cluster.servers.push(Some(h));
        }
        for k in 0..spec.clients {
            let args = ClientArgs {
                index: k,
                spec,
                seed,
                listener: listeners.next().expect("one listener per node"),
                addrs: cluster.addrs.clone(),
                ctl: Arc::clone(&cluster.ctl),
            };
            cluster
                .clients
                .push(std::thread::spawn(move || client_main::<F>(args)));
        }
        let ready = poll(OP_TIMEOUT + TRANSFER_TIMEOUT, || {
            cluster.ctl.clients_ready.load(Ordering::SeqCst) == spec.clients
                && cluster.ctl.servers_ready.load(Ordering::SeqCst) == spec.n
        });
        let setup_s = started.elapsed().as_secs_f64();
        if !ready {
            cluster.shutdown();
            return Err("set-up did not complete: a first operation or transfer hung".to_string());
        }
        Ok((cluster, setup_s))
    }

    fn spawn_server(
        &self,
        id: usize,
        listener: TcpListener,
        boot: Boot,
        thread_name: String,
    ) -> JoinHandle<ServerReport> {
        let args = ServerArgs {
            id,
            spec: self.spec,
            seed: self.seed,
            listener,
            addrs: self.addrs.clone(),
            dir: self.dirs[id].clone(),
            boot,
            ctl: Arc::clone(&self.ctl),
            thread_name,
        };
        std::thread::spawn(move || server_main::<F>(args))
    }

    /// Opens the measured window a few milliseconds from now.
    fn open_window(&self, run_ns: u64) -> u64 {
        let t0 = now_ns() + 5_000_000;
        self.ctl.transfers_end.store(t0 + run_ns, Ordering::SeqCst);
        self.ctl.window_start.store(t0, Ordering::SeqCst);
        t0
    }

    /// Drops server `id` the way a crash does: its thread exits, its
    /// listener and sockets close. The WAL directory stays.
    fn crash(&mut self, id: usize) {
        self.ctl.kill[id].store(true, Ordering::SeqCst);
        if let Some(h) = self.servers[id].take() {
            self.retired.push(h.join().expect("server thread panicked"));
        }
    }

    /// Restarts server `id` on its old port from its WAL. Returns when
    /// the restart began (the origin of `recovery_ms`).
    fn restart(&mut self, id: usize) -> Result<u64, String> {
        let began = now_ns();
        let target: Vec<u64> = self
            .ctl
            .acked
            .iter()
            .map(|a| a.load(Ordering::SeqCst))
            .collect();
        let mut listener = None;
        // The old listener is closed, but the port can stay busy for a
        // moment while the kernel tears the old sockets down.
        poll(Duration::from_secs(5), || {
            listener = TcpListener::bind(self.addrs[id]).ok();
            listener.is_some()
        });
        let listener = listener.ok_or_else(|| format!("could not rebind {}", self.addrs[id]))?;
        self.ctl.kill[id].store(false, Ordering::SeqCst);
        let h = self.spawn_server(
            id,
            listener,
            Boot::Recover { target },
            format!("server{id}r"),
        );
        self.servers[id] = Some(h);
        Ok(began)
    }

    /// Stop load → drain → stop servers → only then drop the clients'
    /// transports.
    fn shutdown(mut self) -> Reports<F> {
        self.ctl.stop_clients.store(true, Ordering::SeqCst);
        let clients: Vec<ClientReport<F>> = self
            .clients
            .drain(..)
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        // A transfer still pending after this wait is reported by its
        // server as never completed.
        poll(TRANSFER_TIMEOUT, || {
            self.ctl.outstanding.load(Ordering::SeqCst) == 0
        });
        // Let acks and relays already on the wire land before the
        // sockets start closing.
        std::thread::sleep(Duration::from_millis(20));
        self.ctl.stop_servers.store(true, Ordering::SeqCst);
        let mut servers: Vec<ServerReport> = self
            .servers
            .drain(..)
            .flatten()
            .map(|h| h.join().expect("server thread panicked"))
            .collect();
        servers.append(&mut self.retired);
        Reports { servers, clients }
    }
}

// ---------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------

/// Process-level counters at one edge of the measured window.
struct ProcSnap {
    cpu_s: f64,
    ctx: u64,
    allocs: u64,
}

impl ProcSnap {
    fn take() -> ProcSnap {
        ProcSnap {
            cpu_s: procfs::cpu_seconds(),
            ctx: procfs::context_switches(),
            allocs: crate::alloc::allocations(),
        }
    }
}

/// Everything one run left behind, before it is turned into numbers.
struct RunData<F: Fabric> {
    spec: TcpSpec,
    /// Start and length of the window the segment metrics cover.
    t0: u64,
    window_ns: u64,
    /// The host's speed, sampled through the whole run.
    speed: SpeedLog,
    setups: Vec<f64>,
    proc_before: ProcSnap,
    proc_after: ProcSnap,
    /// When the victim was dropped and when its restart began (both 0 on
    /// workloads without a crash).
    down_from: u64,
    restart_began: u64,
    dirs: Vec<Option<PathBuf>>,
    reports: Reports<F>,
    /// `VmHWM` once every node has stopped, less the benchmark's own
    /// operation log — and read before the output checks, whose history
    /// copies and WAL reloads are the benchmark's memory too.
    peak_rss_mb: f64,
}

impl<F: Fabric> RunData<F> {
    fn ops(&self) -> impl Iterator<Item = &OpRec> {
        self.reports.clients.iter().flat_map(|c| &c.ops)
    }

    fn in_window(&self) -> impl Iterator<Item = &OpRec> {
        self.ops()
            .filter(|o| stats::segment_of(o.response, self.t0, self.window_ns, SEGMENTS).is_some())
    }

    /// Send-side accounting of every host, servers first.
    fn host_metrics(&self) -> impl Iterator<Item = &Metrics> {
        let servers = self.reports.servers.iter().map(|s| &s.metrics);
        servers.chain(self.reports.clients.iter().map(|c| c.host.metrics()))
    }

    fn pools(&self) -> impl Iterator<Item = PoolStats> + '_ {
        let servers = self.reports.servers.iter().map(|s| s.pool);
        servers.chain(
            self.reports
                .clients
                .iter()
                .map(|c| c.host.transport().tcp().pool_stats()),
        )
    }

    fn transfers(&self) -> impl Iterator<Item = &TransferRec> {
        self.reports.servers.iter().flat_map(|s| &s.transfers)
    }

    fn recovered_at(&self) -> Option<u64> {
        self.reports.servers.iter().find_map(|s| s.recovered_at)
    }
}

/// Runs workload `spec` for `seconds` and returns what it measured. When
/// `F` is the traced fabric, also returns every thread's recording.
pub fn run<F: Fabric>(
    spec: TcpSpec,
    seed: u64,
    seconds: u64,
    work_dir: &Path,
) -> Result<(Outcome, RunTrace), String> {
    let data_root = work_dir.join(format!("tmp-{}-{}", std::process::id(), spec.name));
    let result = measure::<F>(spec, seed, seconds * 1_000_000_000, &data_root).map(|data| {
        let mut out = Outcome {
            correct: true,
            ..Outcome::default()
        };
        end_to_end(&data, &mut out);
        let checked = output_checks(&data, &mut out);
        let run_trace = if F::TRACED {
            per_layer(data, &checked, &mut out)
        } else {
            RunTrace::default()
        };
        (out, run_trace)
        // `data` is gone by here, and with it the clients' hosts: only now,
        // long after the servers stopped, do the clients' sockets close.
    });
    let _ = std::fs::remove_dir_all(&data_root);
    result
}

/// What the benchmark's own per-operation log occupies. It grows with the
/// number of operations completed, so left in `peak_rss_mb` it would make
/// a faster system look like a hungrier one.
fn op_log_mb<F: Fabric>(reports: &Reports<F>) -> f64 {
    let bytes: usize = reports
        .clients
        .iter()
        .map(|c| c.ops.len() * std::mem::size_of::<OpRec>())
        .sum();
    bytes as f64 / (1024.0 * 1024.0)
}

/// Brings the cluster up (several times; the last one is measured), runs
/// the timeline, and shuts everything down in order.
fn measure<F: Fabric>(
    spec: TcpSpec,
    seed: u64,
    run_ns: u64,
    data_root: &Path,
) -> Result<RunData<F>, String> {
    // Before any cluster is up: nothing to shut down if this fails.
    let mut calibrator = Calibrator::new()?;
    let mut setups: Vec<f64> = Vec::new();
    let mut cluster = None;
    for i in 0..SETUPS {
        // Set-up is part computing, part waiting (threads starting, dials,
        // 200 µs polls): only the computing follows the host's speed, so
        // only the CPU time in it goes on the calibrated clock.
        let before = (calibrator.sample(), calib::process_cpu_ns());
        let (c, setup_s) = Cluster::<F>::start(spec, seed, &data_root.join(format!("c{i}")))?;
        let cpu_s = (calib::process_cpu_ns() - before.1) as f64 / 1e9;
        let slowness = (before.0 + calibrator.sample()) / 2.0;
        setups.push(calib::calibrated_s(setup_s, cpu_s, slowness));
        if i + 1 < SETUPS {
            c.shutdown();
        } else {
            cluster = Some(c);
        }
    }
    let mut cluster = cluster.expect("SETUPS > 0");

    let mut speed = SpeedLog::default();
    speed.sample(&mut calibrator);
    let t0 = cluster.open_window(run_ns);
    let window_ns = spec.window_ns(run_ns);
    wait_until(t0);
    let proc_before = ProcSnap::take();
    calibrate_until(t0 + window_ns, &mut calibrator, &mut speed);
    let proc_after = ProcSnap::take();
    let (mut down_from, mut restart_began) = (0, 0);
    if let Some(victim) = spec.crash {
        down_from = now_ns();
        cluster.crash(victim);
        let restart_at = t0 + window_ns + (run_ns - window_ns) / 2;
        calibrate_until(restart_at, &mut calibrator, &mut speed);
        restart_began = cluster.restart(victim)?;
        calibrate_until(t0 + run_ns, &mut calibrator, &mut speed);
    }
    speed.sample(&mut calibrator);
    speed.despike();
    let dirs = cluster.dirs.clone();
    let reports = cluster.shutdown();
    Ok(RunData {
        spec,
        t0,
        window_ns,
        speed,
        setups,
        proc_before,
        proc_after,
        down_from,
        restart_began,
        dirs,
        peak_rss_mb: procfs::peak_rss_mb() - op_log_mb(&reports),
        reports,
    })
}

fn end_to_end<F: Fabric>(d: &RunData<F>, out: &mut Outcome) {
    let spec = d.spec;
    out.notes.push(format!(
        "{} servers (f={}) + {} closed-loop client thread(s) in one process over loopback TCP; injected message delay: 0",
        spec.n, spec.f, spec.clients
    ));
    if spec.durable {
        out.notes.push(
            "WAL: file-backed, buffered writes flushed when the buffer fills and on close, no fsync"
                .to_string(),
        );
    }

    let completed = d.ops().count() as u64;
    let op_failures: u64 = d.reports.clients.iter().map(|c| c.failed).sum();
    let stuck = d.transfers().filter(|t| t.completed.is_none()).count() as u64;
    // An operation cut short by the end of the load is neither completed
    // nor failed; it is not counted as attempted.
    out.attempted = completed + op_failures + d.transfers().count() as u64;
    out.failed = op_failures + stuck;
    if out.failed > 0 {
        // What whoever meets this needs first: who hung, how far apart the
        // servers' change sets ended, and whether the transport lost frames.
        let lens: Vec<usize> = d.reports.servers.iter().map(|s| s.changes_len).collect();
        let (dropped, dials) = d
            .pools()
            .fold((0, 0), |(dr, di), p| (dr + p.dropped, di + p.dials));
        out.notes.push(format!(
            "FAILED: {op_failures} operation(s) timed out, {stuck} transfer(s) never completed; |C| per server at the end {lens:?}; {dropped} frame(s) dropped, {dials} dial(s)"
        ));
    }

    // Times are on the calibrated clock: a segment counts for as many
    // seconds as it would have taken at host slowness 1, a latency is
    // divided by the slowness when its operation returned.
    let seg_ns = d.window_ns / SEGMENTS as u64;
    let mut per_seg = [0u64; SEGMENTS];
    for o in d.in_window() {
        per_seg[stats::segment_of(o.response, d.t0, d.window_ns, SEGMENTS).expect("filtered")] += 1;
    }
    let window_ops: u64 = per_seg.iter().sum();
    let tput: Vec<Option<f64>> = (0..SEGMENTS)
        .map(|i| {
            let from = d.t0 + i as u64 * seg_ns;
            Some(per_seg[i] as f64 / d.speed.calibrated_seconds(from, from + seg_ns))
        })
        .collect();
    let ops_per_s = stats::over_segments(&tput, window_ops).expect("five segments");
    let (slow, slow_lo, slow_hi) = d
        .speed
        .summary(d.t0, d.t0 + d.window_ns)
        .unwrap_or((1.0, 1.0, 1.0));
    out.notes.push(format!(
        "host slowness over the window: median {slow:.3} (min {slow_lo:.3}, max {slow_hi:.3}; 1 = the sizing machine undisturbed); ops_per_s, read/write latencies and the computing part of setup_s are on the calibrated clock"
    ));
    out.notes.push(format!(
        "wall-clock ops/s per segment, uncalibrated: {}",
        per_seg
            .iter()
            .map(|c| format!("{:.0}", *c as f64 / (seg_ns as f64 / 1e9)))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let latency = |reads: bool, q: f64| {
        let samples: Vec<(u64, u64)> = d
            .in_window()
            .filter(|o| o.is_read() == reads)
            .map(|o| {
                (
                    o.response,
                    d.speed.scale(o.response, o.latency()).round() as u64,
                )
            })
            .collect();
        stats::latency_quantile_us(&samples, d.t0, d.window_ns, q)
    };

    if F::TRACED {
        out.set_layer("trace.ops_per_s", ops_per_s);
        out.layer_value("proc.host_slowness", slow, window_ops);
        for (name, stat) in [
            ("read_p99_us", latency(true, 0.99)),
            ("write_p99_us", latency(false, 0.99)),
        ] {
            out.per_layer.extend(stat.map(|s| (name.to_string(), s)));
        }
        return;
    }
    out.set_e2e("ops_per_s", ops_per_s);
    for (name, stat) in [
        ("read_p50_us", latency(true, 0.50)),
        ("write_p50_us", latency(false, 0.50)),
    ] {
        match stat {
            Some(s) => out.set_e2e(name, s),
            None => out.fail_check(format!("no samples for {name}")),
        }
    }
    let wire_bytes: u64 = d.host_metrics().map(|m| m.bytes_sent).sum();
    out.set_e2e(
        "wire_bytes_per_op",
        Stat::single(wire_bytes as f64 / completed.max(1) as f64, completed),
    );
    out.set_e2e("peak_rss_mb", Stat::single(d.peak_rss_mb, 1));
    let setups: Vec<Option<f64>> = d.setups.iter().map(|s| Some(*s)).collect();
    out.set_e2e(
        "setup_s",
        stats::over_segments(&setups, SETUPS as u64).expect("SETUPS > 0"),
    );
}

/// What the output checks measured on the side.
struct Checked {
    history_len: u64,
    lin_ms: Option<f64>,
    wal_records: u64,
    wal_bytes: u64,
}

fn output_checks<F: Fabric>(d: &RunData<F>, out: &mut Outcome) -> Checked {
    let spec = d.spec;
    let cfg = spec.cfg();
    if spec.crash.is_some() {
        let down_ops = d
            .ops()
            .filter(|o| o.invoke >= d.down_from && o.invoke < d.restart_began)
            .count();
        match d.recovered_at() {
            Some(at) => out.notes.push(format!(
                "recovery: {:.1} ms from restart to every key caught up; {down_ops} ops while one server was down",
                (at - d.restart_began) as f64 / 1e6,
            )),
            None => {
                out.attempted += 1;
                out.failed += 1;
                out.fail_check("the restarted server never caught up with the acknowledged writes");
            }
        }
    }

    let history = checks::history(d.reports.clients.iter().map(|c| &c.ops));
    let lin_ms = if out.failed > 0 {
        // A timed-out write may or may not have taken effect, and the
        // checker takes completed operations only.
        out.fail_check(format!(
            "{} operation(s) or transfer(s) timed out; linearizability not checked over an incomplete history",
            out.failed
        ));
        None
    } else {
        checks::linearizable_into(out, &history)
    };

    if spec.transfer_period_ns.is_some() {
        let stamped: Vec<(TransferOutcome, u64)> = d
            .reports
            .servers
            .iter()
            .flat_map(|s| s.outcomes.iter().cloned())
            .collect();
        let n_transfers = stamped.len();
        match checks::audit(&cfg, stamped) {
            Ok(()) => out
                .notes
                .push(format!("transfer audit clean over {n_transfers} transfers")),
            Err(e) => out.fail_check(e),
        }
        let views: Vec<WeightMap> = d
            .reports
            .servers
            .iter()
            .map(|s| s.weights.clone())
            .collect();
        match checks::weights_sound(&cfg, &views) {
            Ok(()) => out.notes.push(format!(
                "final weights above the floor {} and summing to {} on every server",
                cfg.floor(),
                cfg.initial_total()
            )),
            Err(e) => out.fail_check(e),
        }
    }

    let (mut wal_records, mut wal_bytes) = (0u64, 0u64);
    if spec.durable && spec.keying == Keying::WriterPartitioned {
        // Per key, the last write its single writer saw acknowledged.
        let mut acked: BTreeMap<ObjectId, u64> = BTreeMap::new();
        for op in d.ops() {
            if let OpKind::Write(v) = &op.kind {
                let e = acked.entry(op.obj).or_insert(0);
                *e = (*e).max(*v);
            }
        }
        let stores: Vec<_> = d
            .dirs
            .iter()
            .flatten()
            .map(|dir| {
                wal_bytes += std::fs::metadata(dir.join("wal.jsonl")).map_or(0, |m| m.len());
                let handle = StorageHandle::<u64>::file(dir);
                wal_records += handle.wal_len() as u64;
                checks::replay(handle.load())
            })
            .collect();
        match checks::acked_on_quorum(&acked, &stores, &cfg.initial_weights) {
            Ok(()) => out.notes.push(format!(
                "every last acknowledged write ({} keys) reloads from a quorum of WALs",
                acked.len()
            )),
            Err(e) => out.fail_check(e),
        }
    }
    Checked {
        history_len: history.len() as u64,
        lin_ms,
        wal_records,
        wal_bytes,
    }
}

fn quantile_us(sorted: &[u64], q: f64) -> Option<Stat> {
    stats::quantile_sorted(sorted, q).map(|v| Stat::single(v as f64 / 1e3, sorted.len() as u64))
}

/// The traced run's numbers, layer by layer. Consumes the run (and hands
/// back the threads' recordings).
fn per_layer<F: Fabric>(mut d: RunData<F>, checked: &Checked, out: &mut Outcome) -> RunTrace {
    let mut run_trace = RunTrace::default();
    for s in d.reports.servers.iter_mut() {
        run_trace.threads.extend(s.trace.take());
    }
    for c in d.reports.clients.iter_mut() {
        run_trace.threads.extend(c.trace.take());
    }
    let completed = d.ops().count() as u64;
    let ops = completed.max(1) as f64;
    let window_count = d.in_window().count() as u64;
    let window_ops = window_count.max(1) as f64;

    // Workload-specific timings.
    let transfer_lat = stats::sorted(d.transfers().filter_map(|t| t.completed.map(|c| c - t.due)));
    let late = stats::sorted(d.transfers().map(|t| t.started - t.due));
    let down_lat = stats::sorted(
        d.ops()
            .filter(|o| o.invoke >= d.down_from && o.invoke < d.restart_began)
            .map(OpRec::latency),
    );
    let timings = [
        ("reassign_p50_us", quantile_us(&transfer_lat, 0.50)),
        ("reassign_p99_us", quantile_us(&transfer_lat, 0.99)),
        ("gen.late_p99_us", quantile_us(&late, 0.99)),
        ("down_op_p50_us", quantile_us(&down_lat, 0.50)),
    ];
    for (name, stat) in timings {
        out.per_layer.extend(stat.map(|s| (name.to_string(), s)));
    }
    if let Some(at) = d.recovered_at() {
        out.layer_value("recovery_ms", (at - d.restart_began) as f64 / 1e6, 1);
    }
    out.layer_value(
        "failed_share",
        stats::percent(out.failed as f64, out.attempted as f64),
        out.attempted,
    );

    // awr_net
    let send = run_trace.agg("net.send");
    let recv = run_trace.agg("net.recv_wait");
    let step = run_trace.agg("host.step");
    let pool = d.pools().fold(PoolStats::default(), |mut sum, p| {
        sum.frames_sent += p.frames_sent;
        sum.frame_bytes_sent += p.frame_bytes_sent;
        sum.dropped += p.dropped;
        sum.dials += p.dials;
        sum
    });
    let wire_bytes: u64 = d.host_metrics().map(|m| m.bytes_sent).sum();
    out.layer_value(
        "net.send_us_per_op",
        send.total_ns as f64 / 1e3 / ops,
        send.count,
    );
    out.layer_value(
        "net.send_ns_per_frame",
        send.total_ns as f64 / send.count.max(1) as f64,
        send.count,
    );
    let oneway = quantile_us(&run_trace.samples_sorted(|t| &t.oneway_ns), 0.50);
    out.per_layer
        .extend(oneway.map(|s| ("net.oneway_us_p50".to_string(), s)));
    out.layer_value(
        "net.recv_wait_share",
        stats::percent(recv.total_ns as f64, step.total_ns as f64),
        recv.count,
    );
    out.layer_value(
        "net.frames_per_op",
        pool.frames_sent as f64 / ops,
        pool.frames_sent,
    );
    out.layer_value(
        "net.frame_bytes_per_op",
        pool.frame_bytes_sent as f64 / ops,
        pool.frames_sent,
    );
    out.layer_value(
        "net.frame_overhead_bytes_per_frame",
        (pool.frame_bytes_sent as f64 - wire_bytes as f64) / pool.frames_sent.max(1) as f64,
        pool.frames_sent,
    );
    out.layer_value(
        "net.dropped_frames",
        pool.dropped as f64,
        pool.frames_sent + pool.dropped,
    );
    out.layer_value("net.dials", pool.dials as f64, pool.dials);

    // awr_sim (NodeHost): a step's self time is the callback — the step
    // minus waiting to receive, sending, and appending to the WAL.
    let servers = d.reports.servers.iter().map(|s| s.delivered);
    let delivered: u64 = servers
        .chain(d.reports.clients.iter().map(|c| c.delivered))
        .sum();
    let callbacks = step.self_ns
        + run_trace.agg("host.begin_op").self_ns
        + run_trace.agg("host.begin_transfer").self_ns;
    out.layer_value(
        "sim.host.callback_us_per_op",
        callbacks as f64 / 1e3 / ops,
        step.count,
    );
    out.layer_value("sim.host.steps_per_op", delivered as f64 / ops, delivered);

    // awr_storage
    let appends = run_trace.agg("wal.append");
    let wal_p50 = quantile_us(&run_trace.samples_sorted(|t| &t.wal_append_ns), 0.50);
    out.per_layer
        .extend(wal_p50.map(|s| ("storage.wal.append_us_p50".to_string(), s)));
    out.layer_value(
        "storage.wal.appends_per_op",
        appends.count as f64 / ops,
        appends.count,
    );
    out.layer_value(
        "storage.wal.bytes_per_op",
        checked.wal_bytes as f64 / ops,
        checked.wal_records,
    );
    out.layer_value(
        "storage.wal.records_end",
        checked.wal_records as f64,
        checked.wal_records,
    );
    if let Some(ms) = d.reports.servers.iter().find_map(|s| s.load_ms) {
        out.layer_value("storage.recover.load_ms", ms, 1);
    }
    let clients = || d.reports.clients.iter().map(|c| c.host.metrics());
    let hits: u64 = clients().map(|m| m.counter("read_fastpath_hit")).sum();
    let misses: u64 = clients().map(|m| m.counter("read_fastpath_miss")).sum();
    out.layer_value(
        "storage.read.fastpath_hit_rate",
        stats::percent(hits as f64, (hits + misses) as f64),
        hits + misses,
    );
    let (mut fan_sum, mut fan_n) = (0u64, 0u64);
    for hist in clients().filter_map(|m| m.sample_hist("read_writeback_fanout")) {
        for (value, times) in hist {
            fan_sum += value * times;
            fan_n += times;
        }
    }
    if fan_n > 0 {
        out.layer_value(
            "storage.read.writeback_fanout_mean",
            fan_sum as f64 / fan_n as f64,
            fan_n,
        );
    }
    let restarts: u64 = d.ops().map(|o| o.restarts).sum();
    out.layer_value(
        "storage.op.restarts_per_op",
        restarts as f64 / ops,
        completed,
    );
    let refreshes: u64 = d.reports.servers.iter().map(|s| s.refreshes).sum();
    out.layer_value("storage.refresh.count", refreshes as f64, refreshes);
    if let Some(ms) = checked.lin_ms {
        checks::lin_cost_layers(out, ms, checked.history_len);
    }

    // awr_types
    let len_end = d.reports.servers.iter().map(|s| s.changes_len).max();
    out.layer_value("types.changeset.len_end", len_end.unwrap_or(0) as f64, 1);
    let (delta, full) = (
        run_trace.counter("csref.delta"),
        run_trace.counter("csref.full"),
    );
    let refs = run_trace.counter("csref.summary") + delta + full;
    out.layer_value(
        "types.csref.full_share",
        stats::percent(full as f64, refs as f64),
        refs,
    );
    out.layer_value(
        "types.csref.delta_share",
        stats::percent(delta as f64, refs as f64),
        refs,
    );

    // awr_core / awr_rb: whatever a server sends outside the ABD phases
    // while weights move is the price of moving them — the transfer's own
    // rounds, the RB relays, and the gainer's refresh read.
    let outcomes = || d.reports.servers.iter().flat_map(|s| &s.outcomes);
    let n_transfers = outcomes().count() as u64;
    if n_transfers > 0 {
        let (mut msgs, mut bytes, mut t_msgs) = (0u64, 0u64, 0u64);
        for s in &d.reports.servers {
            for (kind, n) in &s.metrics.sent_by_kind {
                if !ABD_KINDS.contains(kind) {
                    msgs += n;
                    bytes += s.metrics.bytes_of_kind(kind);
                }
            }
            t_msgs += s.metrics.sent_of_kind("T");
        }
        let n = n_transfers as f64;
        let null = outcomes().filter(|(o, _)| !o.is_effective()).count();
        out.layer_value(
            "core.transfer.msgs_per_transfer",
            msgs as f64 / n,
            n_transfers,
        );
        out.layer_value(
            "core.transfer.bytes_per_transfer",
            bytes as f64 / n,
            n_transfers,
        );
        out.layer_value(
            "core.transfer.null_share",
            stats::percent(null as f64, n),
            n_transfers,
        );
        out.layer_value("rb.t_msgs_per_transfer", t_msgs as f64 / n, n_transfers);
    }

    // process, over the window the segment metrics cover
    let (before, after) = (&d.proc_before, &d.proc_after);
    out.layer_value(
        "proc.cpu_s_per_kop",
        (after.cpu_s - before.cpu_s) / (window_ops / 1e3),
        window_count,
    );
    out.layer_value(
        "proc.ctx_switches_per_op",
        after.ctx.saturating_sub(before.ctx) as f64 / window_ops,
        window_count,
    );
    out.layer_value(
        "proc.allocs_per_op",
        (after.allocs - before.allocs) as f64 / window_ops,
        window_count,
    );
    run_trace
}
