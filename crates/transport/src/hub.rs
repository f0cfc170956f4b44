//! In-process message hub: the backend of the threaded tests and the
//! single-process benchmarks. It is a plain switch with no fault state;
//! loss, link cuts and crashes at chosen instants are
//! `hlf_simnet::FaultPlan`'s, in the deterministic simulator.
//!
//! Every participant [`join`](Network::join)s the hub and gets an
//! [`Endpoint`] whose inbound mailbox is an unbounded `std::sync::mpsc`
//! channel. Sends are synchronous hand-offs into the destination
//! mailbox. A participant that [`part`](Network::part)s can neither send
//! nor receive until it joins again: that is how a thread-driven node
//! crashes.

use crate::{Backend, Endpoint, PeerId, TransportError};
use hlf_wire::{BufferPool, Bytes};
use std::collections::HashMap;
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Mailbox senders of the joined peers.
type Peers = HashMap<PeerId, Sender<(PeerId, Bytes)>>;

/// Shared hub state behind every in-process [`Endpoint`].
pub(crate) struct Hub {
    peers: RwLock<Peers>,
    /// Pool shared by every endpoint on this hub, so send buffers
    /// recycle no matter which participant allocated them.
    pub(crate) pool: BufferPool,
}

impl Hub {
    /// The peer table, poison-tolerant like [`crate::lock_clean`]: a
    /// map insert or remove stays consistent if a holder unwinds.
    fn peers(&self) -> RwLockReadGuard<'_, Peers> {
        self.peers.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn peers_mut(&self) -> RwLockWriteGuard<'_, Peers> {
        self.peers.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hands `payload` to `to`'s mailbox. A sender that has parted is
    /// refused like an unknown destination: a crashed node is mute as
    /// well as deaf.
    pub(crate) fn send(
        &self,
        from: PeerId,
        to: PeerId,
        payload: Bytes,
    ) -> Result<(), TransportError> {
        let peers = self.peers();
        if !peers.contains_key(&from) {
            return Err(TransportError::UnknownPeer(from));
        }
        let tx = peers.get(&to).ok_or(TransportError::UnknownPeer(to))?;
        tx.send((from, payload))
            .map_err(|_| TransportError::Disconnected(to))
    }
}

/// Handle on an in-process hub. Cheap to clone; all clones share the
/// same peer table and buffer pool.
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

    /// Removes `id` from the hub, as if its process exited. From now on
    /// sends to it, and sends from any handle it still holds, fail with
    /// [`TransportError::UnknownPeer`]; the peer may
    /// [`join`](Network::join) again later (crash/restart tests).
    pub fn part(&self, id: PeerId) {
        self.hub.peers_mut().remove(&id);
    }

    /// The hub-wide buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.hub.pool
    }
}
