//! Process identifiers.
//!
//! The system model (paper §II) has two non-overlapping sets of processes: a
//! finite set of `n` servers and an unbounded set of clients. Newtypes keep
//! the two spaces statically distinct while [`ProcessId`] unifies them where
//! the paper does (the issuer field of a change may be either).

use std::fmt;

/// Identifier of a server, dense in `0..n`.
///
/// The paper indexes servers `s_1..s_n`; we use zero-based indices and render
/// them one-based in `Display` to match the paper's notation.
///
/// # Examples
///
/// ```
/// use awr_types::ServerId;
/// let s = ServerId(0);
/// assert_eq!(s.to_string(), "s1");
/// assert_eq!(s.index(), 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub u32);

impl ServerId {
    /// Zero-based index of this server.
    pub fn index(&self) -> usize {
        self.0 as usize
    }

    /// Iterator over all server ids of an `n`-server system.
    pub fn all(n: usize) -> impl Iterator<Item = ServerId> {
        (0..n as u32).map(ServerId)
    }
}

impl fmt::Debug for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0 + 1)
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0 + 1)
    }
}

/// Identifier of a client.
///
/// # Examples
///
/// ```
/// use awr_types::ClientId;
/// assert_eq!(ClientId(1).to_string(), "c2");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

impl fmt::Debug for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0 + 1)
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0 + 1)
    }
}

/// Identifier of an object (a keyed register) in the multi-object store.
///
/// The paper's reassignment machinery governs the *quorum system*, not a
/// datum: one weighted configuration can serve any number of registers.
/// `ObjectId` names one such register. Identifiers are dense by convention
/// but nothing requires it; [`ObjectId::DEFAULT`] is the register the
/// single-object convenience APIs operate on.
///
/// # Examples
///
/// ```
/// use awr_types::ObjectId;
/// assert_eq!(ObjectId(3).to_string(), "o3");
/// assert_eq!(ObjectId::DEFAULT, ObjectId(0));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// The conventional default object (id 0) — what the single-object
    /// harness APIs read and write.
    pub const DEFAULT: ObjectId = ObjectId(0);

    /// The raw key, the form the simulator's per-object metrics use.
    pub fn key(&self) -> u64 {
        self.0
    }

    /// Iterator over the first `n` object ids (dense key spaces).
    pub fn all(n: usize) -> impl Iterator<Item = ObjectId> {
        (0..n as u64).map(ObjectId)
    }
}

impl Default for ObjectId {
    fn default() -> ObjectId {
        ObjectId::DEFAULT
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Either a server or a client — the issuer of a reassignment request.
///
/// Ordering places all servers before all clients, which gives changes a
/// deterministic total order (useful for canonical set representations).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProcessId {
    /// A replica holding weight.
    Server(ServerId),
    /// An external reader/writer.
    Client(ClientId),
}

impl ProcessId {
    /// Returns the server id if this process is a server.
    pub fn as_server(&self) -> Option<ServerId> {
        match self {
            ProcessId::Server(s) => Some(*s),
            ProcessId::Client(_) => None,
        }
    }

    /// Returns `true` if this process is a server.
    pub fn is_server(&self) -> bool {
        matches!(self, ProcessId::Server(_))
    }
}

impl From<ServerId> for ProcessId {
    fn from(s: ServerId) -> ProcessId {
        ProcessId::Server(s)
    }
}

impl From<ClientId> for ProcessId {
    fn from(c: ClientId) -> ProcessId {
        ProcessId::Client(c)
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcessId::Server(s) => write!(f, "{s}"),
            ProcessId::Client(c) => write!(f, "{c}"),
        }
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_one_based() {
        assert_eq!(ServerId(0).to_string(), "s1");
        assert_eq!(ServerId(6).to_string(), "s7");
        assert_eq!(ClientId(0).to_string(), "c1");
        assert_eq!(ProcessId::from(ServerId(2)).to_string(), "s3");
    }

    #[test]
    fn all_servers() {
        let ids: Vec<_> = ServerId::all(3).collect();
        assert_eq!(ids, vec![ServerId(0), ServerId(1), ServerId(2)]);
    }

    #[test]
    fn ordering_servers_before_clients() {
        assert!(ProcessId::from(ServerId(99)) < ProcessId::from(ClientId(0)));
    }

    #[test]
    fn object_ids() {
        assert_eq!(ObjectId::default(), ObjectId::DEFAULT);
        assert_eq!(ObjectId(7).key(), 7);
        assert_eq!(ObjectId(7).to_string(), "o7");
        let all: Vec<_> = ObjectId::all(3).collect();
        assert_eq!(all, vec![ObjectId(0), ObjectId(1), ObjectId(2)]);
        assert!(ObjectId(1) < ObjectId(2));
    }

    #[test]
    fn as_server() {
        assert_eq!(ProcessId::from(ServerId(1)).as_server(), Some(ServerId(1)));
        assert_eq!(ProcessId::from(ClientId(1)).as_server(), None);
        assert!(ProcessId::from(ServerId(0)).is_server());
        assert!(!ProcessId::from(ClientId(0)).is_server());
    }
}
