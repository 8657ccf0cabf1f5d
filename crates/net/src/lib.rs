//! # awr-net — the real-transport runtime
//!
//! The socket half of the workspace's second runtime: the same protocol
//! actors that run in the deterministic simulator (`awr_sim::World`), and
//! on one thread each as `awr_sim::NodeHost`s over an in-process
//! `awr_sim::ChannelTransport` mesh, here run **one OS process per
//! actor**, exchanging length-prefixed binary frames over non-blocking
//! [`std::net::TcpStream`]s on localhost or a real network.
//!
//! Nothing in the protocol crates changes: this crate only implements the
//! [`awr_sim::Transport`] seam (see `awr_sim::transport`) and the plumbing
//! under it —
//!
//! * [`frame`] — the frame on a socket (the payload's length as a
//!   varint, one byte for any steady-state message, then the typed
//!   payload) and the 13-byte hello that opens a connection and states
//!   the wire version once for it. The codec is `awr_types::wire` (format
//!   [`WIRE_VERSION`], re-exported here): the [`Wire`] trait, its impls —
//!   positional fields, varints, fixed-width digests, one tag byte per
//!   enum — and the frame encoder/decoder with its length and truncation
//!   checks, encoding into and decoding out of
//!   the transport's own buffers with no allocation for a message that
//!   carries no change list or register map. The storage servers write
//!   their WAL in the same frames;
//! * [`tcp`] — [`TcpTransport`], the mesh endpoint an `awr_sim::NodeHost`
//!   pumps: it owns its listener and every socket and spawns no thread.
//!   One connection carries a node pair's frames both ways: a node
//!   answers on the connection a peer dialed in, and dials only a peer it
//!   holds no connection to. Every socket is registered once in an
//!   `epoll(7)` set, and receiving is one wait that returns only the
//!   ready ones, decoding frames on the node's own thread; sending appends
//!   to the connection's write buffer and writes without blocking, with
//!   lazy dialing, reconnect-then-drop crash-model semantics
//!   ([`Reconnect`], [`PoolStats`]) and a high-water rule that keeps two
//!   nodes flooding each other from deadlocking;
//! * `sys` (private) — the `epoll` binding: the only `unsafe` the
//!   workspace ships, and the reason the crate is Linux-only.
//!
//! The `tcp_demo` binary in this crate boots a full multi-process system:
//! N durable server processes and K client processes on localhost, the
//! keyed workload driven over real sockets, per-kind message counts
//! cross-validated against a same-seed simulator run, and every process's
//! socket bytes against its metered bytes: a message's `wire_size` is its
//! frame ([`frame_len`]), so the two are equal. `docs/RUNTIME.md`
//! at the repository root walks through both runtimes and the demo.
//!
//! ## Example: a two-node mesh in two threads
//!
//! Processes are the intended unit, but the transport does not care —
//! each endpoint is self-contained, so a test can run a mesh in threads:
//!
//! ```
//! use std::net::TcpListener;
//! use std::time::Duration;
//! use awr_net::{FrameError, Reader, Sink, TcpTransport, Wire};
//! use awr_sim::{ActorId, Message, Transport};
//!
//! #[derive(Clone, Debug, PartialEq)]
//! struct Ping(u32);
//! impl Message for Ping {}
//! impl Wire for Ping {
//!     fn put(&self, out: &mut impl Sink) {
//!         self.0.put(out);
//!     }
//!     fn get(r: &mut Reader<'_>) -> Result<Ping, FrameError> {
//!         Ok(Ping(u32::get(r)?))
//!     }
//! }
//!
//! // Bind both listeners first so the address list is complete...
//! let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
//! let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
//! let addrs = vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()];
//!
//! // ...then start one endpoint per node.
//! let mut t0 = TcpTransport::<Ping>::start(ActorId(0), l0, addrs.clone()).unwrap();
//! let mut t1 = TcpTransport::<Ping>::start(ActorId(1), l1, addrs).unwrap();
//!
//! t0.send(ActorId(1), Ping(7));
//! let (from, msg) = t1.recv_timeout(Duration::from_secs(5)).unwrap();
//! assert_eq!((from, msg), (ActorId(0), Ping(7)));
//! ```

// `deny`, not the `forbid` every other crate has: `sys` opts out, for the
// audited epoll binding.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
mod sys;
pub mod tcp;

pub use awr_types::wire::{
    decode_frame, encode_frame, encode_frame_into, frame_len, FrameError, Reader, Sink, Wire,
    MAX_FRAME, MAX_PREFIX, WIRE_VERSION,
};
pub use frame::{read_hello, write_hello};
pub use tcp::{PoolStats, Reconnect, TcpTransport};
