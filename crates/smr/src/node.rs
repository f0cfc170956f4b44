//! The threaded replica node: a [`NodeCore`] driven over a transport
//! [`Endpoint`] (in-process hub or TCP). This file is I/O only —
//! receive, decode, [`NodeCore::step`], encode, send, tick; every
//! protocol decision is in `crate::core`.

use crate::app::Application;
use crate::core::{Input, NodeCore, Output};
use crate::storage::LogStore;
use crate::wire::SmrMsg;
use hlf_transport::{Endpoint, PeerId, SenderHandle};
use hlf_wire::{from_bytes_shared, to_pooled_bytes, BufferPool, Bytes, ClientId, Encode, NodeId};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use crate::core::{NodeConfig, NodeStats};

/// The clients a replica pushes to, shared between its node thread
/// (which adds them as they submit or subscribe) and every
/// [`PushHandle`]. Poison-tolerant: a `HashSet` insert stays consistent
/// if a holder unwinds.
#[derive(Clone, Debug, Default)]
struct ClientSet(Arc<RwLock<HashSet<ClientId>>>);

impl ClientSet {
    fn read(&self) -> RwLockReadGuard<'_, HashSet<ClientId>> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn insert(&self, client: ClientId) {
        self.0.write().unwrap_or_else(PoisonError::into_inner).insert(client);
    }
}

/// A thread-safe handle for pushing application outputs to clients from
/// outside the node thread.
///
/// The ordering service's signing pool uses this: worker threads sign
/// blocks and transmit them to every connected frontend without passing
/// back through the node thread (paper §5.1's signing & sending pool).
#[derive(Clone, Debug)]
pub struct PushHandle {
    sender: SenderHandle,
    clients: ClientSet,
}

impl PushHandle {
    /// Builds a handle with a fixed client set, bypassing a running
    /// node. Intended for unit tests and custom drivers; inside a
    /// replica node, use the handle provided by [`spawn_replica`].
    pub fn for_tests(sender: SenderHandle, clients: Vec<ClientId>) -> PushHandle {
        PushHandle {
            sender,
            clients: ClientSet(Arc::new(RwLock::new(clients.into_iter().collect()))),
        }
    }

    /// Sends an unsolicited push (`seq == 0`) of `value`'s encoding to
    /// every connected client: the frame is
    /// `to_bytes(&SmrMsg::Reply { seq: 0, payload: to_bytes(value) })`.
    ///
    /// The push is encoded once, straight from `value` into one pooled
    /// buffer, and every recipient gets a view of that buffer, as with
    /// [`Output::ToAllClients`]: what the frontends of a process have not
    /// polled yet costs it one frame per pushing node, however many of
    /// them lag. The per-receiver cost that gives the in-process LAN
    /// benchmarks their receiver-count scaling (Fig. 7) is the
    /// receiver's own: decoding, hashing and comparing each copy.
    pub fn push_all<T: Encode + ?Sized>(&self, value: &T) {
        let bytes = SmrMsg::pooled_reply(0, value, self.sender.pool());
        for client in self.clients.read().iter() {
            let _ = self.sender.send(PeerId::Client(client.0), bytes.clone());
        }
    }

    /// Sends a reply to one client.
    pub fn send(&self, client: ClientId, seq: u64, payload: Bytes) {
        let msg = SmrMsg::Reply { seq, payload };
        let bytes = to_pooled_bytes(&msg, self.sender.pool());
        let _ = self.sender.send(PeerId::Client(client.0), bytes);
    }

    /// The transport hub's shared send-buffer pool.
    pub fn pool(&self) -> &BufferPool {
        self.sender.pool()
    }
}

/// Handle to a running replica node thread.
#[derive(Debug)]
pub struct NodeHandle {
    node: NodeId,
    shutdown: Arc<AtomicBool>,
    stats: Arc<NodeStats>,
    thread: Option<JoinHandle<()>>,
}

impl NodeHandle {
    /// This node's identity.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Live statistics.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Shared statistics handle that outlives `self` (for monitor
    /// threads in benchmarks).
    pub fn stats_arc(&self) -> Arc<NodeStats> {
        Arc::clone(&self.stats)
    }

    /// Signals the node to stop and joins its thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Spawns a replica node thread on `endpoint` — a hub endpoint
/// ([`hlf_transport::Network::join`]) or, in a multi-process
/// deployment, a TCP one ([`hlf_transport::TcpNetwork::endpoint`]);
/// its id must be `PeerId::Replica(config.consensus.node)`.
///
/// The node runs consensus, executes the application on decided
/// batches, persists decisions to `log`, and serves/performs state
/// transfer. `build_app` gets a [`PushHandle`] so the application's
/// worker threads can transmit to clients directly (the ordering
/// service's signing pool).
pub fn spawn_replica(
    config: NodeConfig,
    mut endpoint: Endpoint,
    log: Box<dyn LogStore>,
    build_app: impl FnOnce(PushHandle) -> Box<dyn Application>,
) -> NodeHandle {
    let node = config.consensus.node;
    debug_assert_eq!(endpoint.id(), PeerId::Replica(node.0), "endpoint/config id mismatch");
    if let Some(flight) = &config.flight {
        endpoint.attach_flight(Arc::clone(flight));
    }
    let shutdown = Arc::new(AtomicBool::new(false));
    let clients = ClientSet::default();
    let app = build_app(PushHandle {
        sender: endpoint.sender(),
        clients: clients.clone(),
    });
    let core = NodeCore::new(&config, app, log);
    let stats = core.stats();
    let mut worker = NodeWorker {
        core,
        n: config.consensus.quorums.n() as u32,
        endpoint,
        clients,
        tick_interval: config.tick_interval,
        started: Instant::now(),
        out: Vec::new(),
    };

    let thread_shutdown = Arc::clone(&shutdown);
    #[expect(clippy::expect_used, reason = "OS thread-spawn failure at boot is unrecoverable — the replica cannot exist without its worker thread")]
    let thread = std::thread::Builder::new()
        .name(format!("replica-{}", node.0))
        .spawn(move || worker.run(&thread_shutdown))
        .expect("spawn replica thread");

    NodeHandle {
        node,
        shutdown,
        stats,
        thread: Some(thread),
    }
}

/// The node thread's state: the core plus the I/O it is driven over.
struct NodeWorker {
    core: NodeCore,
    /// Cluster size (broadcast fan-out).
    n: u32,
    endpoint: Endpoint,
    clients: ClientSet,
    tick_interval: Duration,
    started: Instant,
    /// Reused across steps, so a step allocates no output buffer.
    out: Vec<Output>,
}

impl NodeWorker {
    fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    fn run(&mut self, shutdown: &AtomicBool) {
        self.core.recover(self.now_us(), &mut self.out);
        self.flush();
        let mut last_tick = Instant::now();
        while !shutdown.load(Ordering::Relaxed) {
            if let Ok((from, payload)) = self.endpoint.recv_timeout(self.tick_interval) {
                self.on_transport(from, &payload);
            }
            if last_tick.elapsed() >= self.tick_interval {
                last_tick = Instant::now();
                self.core.step(self.now_us(), Input::Tick, &mut self.out);
                self.flush();
            }
        }
    }

    fn on_transport(&mut self, from: PeerId, payload: &Bytes) {
        // Decode as views into the transport buffer: the request/reply
        // payload inside becomes a refcounted slice, not a fresh copy.
        let Ok(msg) = from_bytes_shared::<SmrMsg>(payload) else {
            return;
        };
        self.core.step(self.now_us(), Input::Frame(from, msg), &mut self.out);
        self.flush();
    }

    /// Encodes and sends everything the last step produced. A
    /// broadcast is encoded once into one pooled buffer.
    fn flush(&mut self) {
        let mut out = std::mem::take(&mut self.out);
        let pool = self.endpoint.pool();
        for output in out.drain(..) {
            match output {
                Output::ToReplicas(msg) => {
                    let bytes = to_pooled_bytes(&msg, pool);
                    for node in (0..self.n).filter(|node| NodeId(*node) != self.core.node()) {
                        let _ = self.endpoint.send(PeerId::Replica(node), bytes.clone());
                    }
                }
                Output::ToReplica(to, msg) => {
                    let _ = self
                        .endpoint
                        .send(PeerId::Replica(to.0), to_pooled_bytes(&msg, pool));
                }
                Output::ToClient(client, msg) => {
                    let _ = self
                        .endpoint
                        .send(PeerId::Client(client.0), to_pooled_bytes(&msg, pool));
                }
                Output::ToAllClients(msg) => {
                    let bytes = to_pooled_bytes(&msg, pool);
                    for client in self.clients.read().iter() {
                        let _ = self.endpoint.send(PeerId::Client(client.0), bytes.clone());
                    }
                }
                Output::ClientJoined(client) => self.clients.insert(client),
                Output::Committed { .. } => {}
            }
        }
        self.out = out;
    }
}
