//! In-process message hub: the deterministic, fault-injectable
//! backend used by tests, simulations and single-process benchmarks.
//!
//! Every participant [`join`](Network::join)s the hub and gets an
//! [`Endpoint`] whose inbound mailbox is an unbounded `std::sync::mpsc`
//! channel. Sends are synchronous hand-offs into the destination
//! mailbox, subject to injected faults (blocked links, isolation,
//! deterministic probabilistic drops).

use crate::{lock_clean, Backend, Endpoint, PeerId, TransportError};
use hlf_wire::{BufferPool, Bytes};
use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Deterministic SplitMix64 stream for probabilistic drop decisions:
/// same seed, same drop pattern, so partition tests are reproducible.
#[derive(Debug, Default)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Injected network faults, applied to every send through the hub.
#[derive(Debug, Default)]
struct FaultState {
    /// Directed links that silently drop traffic.
    blocked_links: HashSet<(PeerId, PeerId)>,
    /// Peers cut off in both directions.
    isolated: HashSet<PeerId>,
    /// Probability in [0, 1] that any send is dropped.
    drop_probability: f64,
    rng: SplitMix64,
}

impl FaultState {
    /// Returns `true` if this send should be dropped.
    fn should_drop(&mut self, from: PeerId, to: PeerId) -> bool {
        if self.isolated.contains(&from) || self.isolated.contains(&to) {
            return true;
        }
        if self.blocked_links.contains(&(from, to)) {
            return true;
        }
        self.drop_probability > 0.0 && self.rng.next_f64() < self.drop_probability
    }
}

/// Mailbox senders of the joined peers.
type Peers = HashMap<PeerId, Sender<(PeerId, Bytes)>>;

/// Shared hub state behind every in-process [`Endpoint`].
pub(crate) struct Hub {
    peers: RwLock<Peers>,
    faults: Mutex<FaultState>,
    /// Pool shared by every endpoint on this hub, so send buffers
    /// recycle no matter which participant allocated them.
    pub(crate) pool: BufferPool,
}

impl Hub {
    /// The peer table, poison-tolerant like [`lock_clean`]: a map
    /// insert or remove stays consistent if a holder unwinds.
    fn peers(&self) -> RwLockReadGuard<'_, Peers> {
        self.peers.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn peers_mut(&self) -> RwLockWriteGuard<'_, Peers> {
        self.peers.write().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn send(
        &self,
        from: PeerId,
        to: PeerId,
        payload: Bytes,
    ) -> Result<(), TransportError> {
        if lock_clean(&self.faults).should_drop(from, to) {
            return Err(TransportError::Dropped);
        }
        let peers = self.peers();
        let tx = peers.get(&to).ok_or(TransportError::UnknownPeer(to))?;
        tx.send((from, payload))
            .map_err(|_| TransportError::Disconnected(to))
    }
}

/// Handle on an in-process hub. Cheap to clone; all clones share the
/// same peer table, fault state and buffer pool.
#[derive(Clone)]
pub struct Network {
    hub: Arc<Hub>,
}

impl Default for Network {
    fn default() -> Network {
        Network::new()
    }
}

impl Network {
    /// Creates an empty hub with a default-sized buffer pool.
    pub fn new() -> Network {
        Network {
            hub: Arc::new(Hub {
                peers: RwLock::new(HashMap::new()),
                faults: Mutex::new(FaultState::default()),
                pool: BufferPool::default(),
            }),
        }
    }

    /// Registers `id` and returns its endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `id` already joined — two participants claiming one
    /// identity is a harness bug, never a runtime condition.
    pub fn join(&self, id: PeerId) -> Endpoint {
        let (tx, rx) = mpsc::channel();
        let mut peers = self.hub.peers_mut();
        assert!(
            peers.insert(id, tx).is_none(),
            "peer {id} joined the network twice"
        );
        drop(peers);
        Endpoint::new(id, Backend::Hub(Arc::clone(&self.hub)), rx)
    }

    /// Removes `id` from the hub, as if its process exited. Subsequent
    /// sends to it fail with [`TransportError::UnknownPeer`]; the peer
    /// may [`join`](Network::join) again later (crash/restart tests).
    pub fn part(&self, id: PeerId) {
        self.hub.peers_mut().remove(&id);
    }

    /// Silently drops all traffic on the directed link `from -> to`.
    pub fn block_link(&self, from: PeerId, to: PeerId) {
        lock_clean(&self.hub.faults).blocked_links.insert((from, to));
    }

    /// Clears every blocked link.
    pub fn unblock_all(&self) {
        lock_clean(&self.hub.faults).blocked_links.clear();
    }

    /// Cuts `id` off in both directions.
    pub fn isolate(&self, id: PeerId) {
        lock_clean(&self.hub.faults).isolated.insert(id);
    }

    /// Reconnects a previously [`isolate`](Network::isolate)d peer.
    pub fn heal(&self, id: PeerId) {
        lock_clean(&self.hub.faults).isolated.remove(&id);
    }

    /// Drops every send with probability `p`, deterministically from
    /// `seed`.
    pub fn set_drop_probability(&self, p: f64, seed: u64) {
        let mut faults = lock_clean(&self.hub.faults);
        faults.drop_probability = p.clamp(0.0, 1.0);
        faults.rng = SplitMix64 { state: seed };
    }

    /// Splits the network into two halves that cannot talk to each
    /// other (both directions blocked between every cross pair).
    pub fn partition(&self, side_a: &[PeerId], side_b: &[PeerId]) {
        let mut faults = lock_clean(&self.hub.faults);
        for &a in side_a {
            for &b in side_b {
                faults.blocked_links.insert((a, b));
                faults.blocked_links.insert((b, a));
            }
        }
    }

    /// Currently joined peers, in unspecified order.
    pub fn peers(&self) -> Vec<PeerId> {
        self.hub.peers().keys().copied().collect()
    }

    /// The hub-wide buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.hub.pool
    }
}
