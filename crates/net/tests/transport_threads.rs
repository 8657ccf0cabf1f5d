//! `TcpTransport` spawns no thread. This check counts the whole process's
//! threads, so it is the only test in its binary: a neighbour starting or
//! finishing on the harness's other threads would move the count.

use std::net::TcpListener;
use std::time::Duration;

use awr_net::{FrameError, Reader, Sink, TcpTransport, Wire};
use awr_sim::{ActorId, Message, Transport};

#[derive(Clone, Debug, PartialEq)]
struct Ball(u64);
impl Message for Ball {}
impl Wire for Ball {
    fn put(&self, out: &mut impl Sink) {
        self.0.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Ball, FrameError> {
        Ok(Ball(u64::get(r)?))
    }
}

fn threads_of_this_process() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn a_mesh_runs_on_its_callers_thread_alone() {
    let before = threads_of_this_process();

    let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
    let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
    let addrs = vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()];
    let mut t0 = TcpTransport::<Ball>::start(ActorId(0), l0, addrs.clone()).unwrap();
    let mut t1 = TcpTransport::<Ball>::start(ActorId(1), l1, addrs).unwrap();
    assert_eq!(threads_of_this_process(), before);

    for n in 0..100u64 {
        t0.send(ActorId(1), Ball(n));
        let ping = t1.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(ping, (ActorId(0), Ball(n)));
        t1.send(ActorId(0), Ball(n + 1));
        let pong = t0.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(pong, (ActorId(1), Ball(n + 1)));
    }
    assert_eq!(threads_of_this_process(), before);
}
