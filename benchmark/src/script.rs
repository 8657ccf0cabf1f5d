//! Seed → inputs. The program under test receives only what these
//! generators produce: the same seed gives the same per-client operation
//! stream and the same transfer schedule, however fast the system runs.

use awr_storage::workload::{KeyDistribution, KeySampler};
use awr_types::{ObjectId, ServerId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One splitmix64 step — seed derivation for per-client streams.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How a client picks the key of its next operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Keying {
    /// Reads and writes draw from the same distribution over all keys.
    Shared(KeyDistribution),
    /// Reads draw uniformly over all keys; client `k` of `c` writes only
    /// keys `≡ k (mod c)`. One writer per key makes "the last write
    /// acknowledged for this key" a single number.
    WriterPartitioned,
}

/// One client operation: the key, and the value for a write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScriptedOp {
    pub obj: ObjectId,
    pub write: Option<u64>,
}

/// The closed-loop operation stream of one client.
pub struct OpScript {
    rng: StdRng,
    sampler: KeySampler,
    keying: Keying,
    read_pct: u32,
    client: usize,
    clients: usize,
    keys: usize,
    writes: u64,
}

impl OpScript {
    pub fn new(
        seed: u64,
        client: usize,
        clients: usize,
        keys: usize,
        keying: Keying,
        read_pct: u32,
    ) -> OpScript {
        let dist = match keying {
            Keying::Shared(d) => d,
            Keying::WriterPartitioned => KeyDistribution::Uniform,
        };
        assert!(
            keying != Keying::WriterPartitioned || keys >= clients,
            "every client needs a key to write"
        );
        OpScript {
            rng: StdRng::seed_from_u64(splitmix64(seed ^ splitmix64(client as u64 + 1))),
            sampler: KeySampler::new(keys, dist),
            keying,
            read_pct,
            client,
            clients,
            keys,
            writes: 0,
        }
    }

    /// Write values are unique across clients (client index in the top
    /// bits) and increase per client, as the linearizability checker and
    /// the recovery probe both assume.
    pub fn next_op(&mut self) -> ScriptedOp {
        let is_read = self.rng.random_range(0..100u32) < self.read_pct;
        let obj = match (self.keying, is_read) {
            (Keying::Shared(_), _) | (Keying::WriterPartitioned, true) => {
                self.sampler.sample(&mut self.rng)
            }
            (Keying::WriterPartitioned, false) => {
                let slots = (self.keys - self.client).div_ceil(self.clients);
                let slot = self.rng.random_range(0..slots);
                ObjectId((self.client + slot * self.clients) as u64)
            }
        };
        let write = (!is_read).then(|| {
            self.writes += 1;
            ((self.client as u64 + 1) << 40) | self.writes
        });
        ScriptedOp { obj, write }
    }
}

/// The cluster-wide transfer schedule: a fixed ring, one transfer per
/// `period_ns`, donor `s` giving to `s + 1`. The seed picks where on the
/// ring the schedule starts.
#[derive(Clone, Copy, Debug)]
pub struct TransferSchedule {
    n: usize,
    period_ns: u64,
    offset: usize,
}

impl TransferSchedule {
    pub fn new(seed: u64, n: usize, period_ns: u64) -> TransferSchedule {
        TransferSchedule {
            n,
            period_ns,
            offset: (splitmix64(seed) % n as u64) as usize,
        }
    }

    /// Whom `donor` gives to.
    pub fn recipient(&self, donor: usize) -> ServerId {
        ServerId(((donor + 1) % self.n) as u32)
    }

    /// Due time of `donor`'s `round`-th transfer, in ns after the start
    /// of the measured window.
    pub fn due_ns(&self, donor: usize, round: u64) -> u64 {
        let slot = (donor + self.n - self.offset) % self.n;
        (round * self.n as u64 + slot as u64) * self.period_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, client: usize, keying: Keying) -> Vec<ScriptedOp> {
        let mut s = OpScript::new(seed, client, 2, 64, keying, 20);
        (0..500).map(|_| s.next_op()).collect()
    }

    #[test]
    fn same_seed_same_ops() {
        let zipf = Keying::Shared(KeyDistribution::Zipfian { exponent: 0.99 });
        assert_eq!(stream(7, 0, zipf), stream(7, 0, zipf));
        assert_ne!(stream(7, 0, zipf), stream(8, 0, zipf));
        assert_ne!(stream(7, 0, zipf), stream(7, 1, zipf));
    }

    #[test]
    fn partitioned_writers_never_share_a_key() {
        for client in 0..2 {
            let ops = stream(3, client, Keying::WriterPartitioned);
            let mut last = 0;
            for op in ops.iter().filter(|o| o.write.is_some()) {
                assert_eq!(op.obj.key() as usize % 2, client);
                assert!((op.obj.key() as usize) < 64);
                let v = op.write.unwrap();
                assert!(v > last, "write values increase per client");
                last = v;
            }
            assert!(ops.iter().any(|o| o.write.is_none()));
        }
    }

    #[test]
    fn read_share_follows_the_spec() {
        let mut s = OpScript::new(1, 0, 2, 256, Keying::Shared(KeyDistribution::Uniform), 95);
        let reads = (0..10_000).filter(|_| s.next_op().write.is_none()).count();
        assert!((9_300..9_700).contains(&reads), "{reads}");
    }

    #[test]
    fn transfer_ring_is_one_per_period() {
        let s = TransferSchedule::new(11, 5, 20);
        let mut dues: Vec<u64> = (0..5)
            .flat_map(|d| (0..3).map(move |r| s.due_ns(d, r)))
            .collect();
        dues.sort_unstable();
        assert_eq!(dues, (0..15).map(|i| i * 20).collect::<Vec<_>>());
        assert_eq!(s.recipient(4), ServerId(0));
        // Same seed, same schedule.
        let t = TransferSchedule::new(11, 5, 20);
        assert_eq!(s.due_ns(3, 2), t.due_ns(3, 2));
    }
}
