//! The same protocol actors on real OS threads: one thread per
//! [`NodeHost`]`<RpServer, ChannelTransport<WrMsg>>`, messages over
//! in-process channels with OS scheduling — no virtual time, true
//! parallelism. Transfers are driven through the `Invoke` management RPC.

use std::thread::JoinHandle;
use std::time::Duration;

use awr_sim::{ActorId, ChannelTransport, NodeHost, Transport};
use awr_types::{Ratio, ServerId};

use crate::audit::audit_transfers;
use crate::problem::{RpConfig, TransferOutcome};
use crate::restricted::messages::WrMsg;
use crate::restricted::server::RpServer;

/// How long a server's mesh must stay quiet before its thread returns.
/// In-process messages settle in microseconds; this is scheduler slack.
const IDLE: Duration = Duration::from_millis(500);

/// One thread per server over a mesh of `n + 1` endpoints. The extra
/// endpoint is returned: it is the test's `Invoke` injector (`RpServer`
/// ignores an `Invoke`'s sender). Each thread hands its server back once
/// its mesh has been idle, so `join` observes completion.
fn spawn_servers(
    cfg: &RpConfig,
    seed: u64,
) -> (ChannelTransport<WrMsg>, Vec<JoinHandle<RpServer>>) {
    let mut mesh = ChannelTransport::mesh(cfg.n + 1);
    let injector = mesh.pop().expect("n + 1 endpoints");
    let threads = mesh
        .into_iter()
        .zip(cfg.servers())
        .map(|(transport, s)| {
            let server = RpServer::new(cfg.clone(), s);
            std::thread::spawn(move || {
                let mut host = NodeHost::start(server, transport, seed);
                host.run_until_idle(IDLE);
                host.into_parts().0
            })
        })
        .collect();
    (injector, threads)
}

fn join_all(threads: Vec<JoinHandle<RpServer>>) -> Vec<RpServer> {
    threads
        .into_iter()
        .map(|t| t.join().expect("server thread"))
        .collect()
}

/// Every server's completions, in the auditor's order.
fn all_completed(servers: &[RpServer]) -> Vec<(TransferOutcome, crate::Time)> {
    let mut all: Vec<_> = servers
        .iter()
        .flat_map(|s| s.completed().iter().cloned())
        .collect();
    all.sort_by_key(|(o, t)| (*t, o.from, o.counter));
    all
}

#[test]
fn transfers_complete_on_real_threads() {
    let cfg = RpConfig::uniform(7, 2);
    let (mut injector, threads) = spawn_servers(&cfg, 0xBEEF);

    // Drive three concurrent transfers through the management RPC.
    for (from, to) in [(3usize, 0u32), (4, 1), (5, 2)] {
        injector.send(
            ActorId(from),
            WrMsg::Invoke {
                to: ServerId(to),
                delta: Ratio::dec("0.25"),
            },
        );
    }
    let servers = join_all(threads);

    let completed = all_completed(&servers);
    assert_eq!(completed.len(), 3, "all transfers must complete");
    assert!(completed.iter().all(|(o, _)| o.is_effective()));

    let report = audit_transfers(&cfg, &completed);
    assert!(report.is_clean(), "{:?}", report.violations);

    // Every server converged to the same weights.
    let w0 = servers[0].changes().weights(7);
    assert_eq!(w0.weight(ServerId(0)), Ratio::dec("1.25"));
    assert_eq!(w0.total(), Ratio::integer(7));
    for srv in &servers[1..] {
        assert_eq!(srv.changes().weights(7), w0, "server views diverged");
    }
}

#[test]
fn floor_respected_on_real_threads() {
    // Hammer one donor with repeated Invokes; C2 must hold on every thread
    // interleaving: the donor can never fall to 0.7 or below.
    let cfg = RpConfig::uniform(7, 2);
    let (mut injector, threads) = spawn_servers(&cfg, 0xF00);
    for i in 0..20u32 {
        injector.send(
            ActorId(3),
            WrMsg::Invoke {
                to: ServerId(i % 3),
                delta: Ratio::dec("0.1"),
            },
        );
        // Brief pause so some transfers complete and free the donor
        // (busy invokes are dropped by design).
        std::thread::sleep(Duration::from_millis(10));
    }
    let servers = join_all(threads);

    let donor = &servers[3];
    let effective = donor.completed().iter().filter(|(o, _)| o.is_effective());
    assert!(
        effective.count() >= 2,
        "paced invokes must not all find the donor busy: {:?}",
        donor.completed()
    );
    assert!(
        donor.weight() > Ratio::dec("0.7"),
        "floor breached: {}",
        donor.weight()
    );
    let report = audit_transfers(&cfg, &all_completed(&servers));
    assert!(report.is_clean(), "{:?}", report.violations);
}
