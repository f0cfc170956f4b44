//! The threaded replica node: consensus + application + durability +
//! state transfer, wired to the in-process transport.

use crate::app::{Application, Dest};
use crate::obs::NodeObs;
use crate::storage::LogStore;
use crate::wire::{Framed, LogEntry, SmrMsg};
use hlf_wire::Bytes;
use hlf_consensus::messages::ConsensusMsg;
use hlf_consensus::replica::{Action, Config as ConsensusConfig, Replica};
use hlf_consensus::{HealthObs, ReplicaObs};
use hlf_obs::flight::EventKind;
use hlf_obs::{FlightRecorder, Registry};
use hlf_transport::{Endpoint, Network, PeerId, SenderHandle};
use hlf_wire::{from_bytes_shared, to_pooled_bytes, BufferPool, ClientId, NodeId};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    /// replica node, use the handle provided by
    /// [`spawn_replica_with`].
    pub fn for_tests(sender: SenderHandle, clients: Vec<ClientId>) -> PushHandle {
        PushHandle {
            sender,
            clients: ClientSet(Arc::new(RwLock::new(clients.into_iter().collect()))),
        }
    }

    /// Sends an unsolicited push (`seq == 0`) to every connected client.
    ///
    /// Each recipient gets a *fresh copy* of the payload rather than a
    /// reference-counted clone. On a real deployment every frontend
    /// connection serializes the full block onto the wire; paying that
    /// per-receiver cost here is what lets the in-process LAN benchmarks
    /// reproduce the paper's receiver-count scaling (Fig. 7).
    pub fn push_all(&self, payload: Bytes) {
        let pool = self.sender.pool();
        let msg = SmrMsg::Reply { seq: 0, payload };
        let bytes = to_pooled_bytes(&msg, pool);
        for client in self.clients.read().iter() {
            // Each copy recycles through the hub pool once the receiver
            // drops its last view, so steady-state pushes reuse a fixed
            // working set of buffers.
            let mut buf = pool.take(bytes.len());
            buf.extend_from_slice(&bytes);
            let _ = self.sender.send(PeerId::Client(client.0), pool.wrap(buf));
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

    /// Number of currently connected clients.
    pub fn client_count(&self) -> usize {
        self.clients.read().len()
    }
}

/// Node-level configuration on top of the consensus [`ConsensusConfig`].
pub struct NodeConfig {
    /// Consensus parameters (quorums, keys, timeouts...).
    pub consensus: ConsensusConfig,
    /// Checkpoint the application every this many decisions.
    pub checkpoint_interval: u64,
    /// Granularity of the internal clock.
    pub tick_interval: Duration,
    /// Metrics registry for this node; when set, the node attaches
    /// consensus ([`ReplicaObs`]), SMR ([`NodeObs`]) and slow-replica
    /// health ([`HealthObs`]) metrics to it.
    pub registry: Option<Arc<Registry>>,
    /// Flight recorder for this node; when set, consensus-phase and
    /// state-transfer events are recorded into its ring, and protocol
    /// anomalies (regency change, rollback, state transfer) snapshot the
    /// ring as [`hlf_obs::FlightDump`]s.
    pub flight: Option<Arc<FlightRecorder>>,
}

impl NodeConfig {
    /// Paper-flavoured defaults: checkpoint every 256 decisions, 20 ms
    /// ticks, no metrics registry.
    pub fn new(consensus: ConsensusConfig) -> NodeConfig {
        NodeConfig {
            consensus,
            checkpoint_interval: 256,
            tick_interval: Duration::from_millis(20),
            registry: None,
            flight: None,
        }
    }

    /// Attaches a metrics registry.
    pub fn with_registry(mut self, registry: Arc<Registry>) -> NodeConfig {
        self.registry = Some(registry);
        self
    }

    /// Attaches a flight recorder.
    pub fn with_flight(mut self, flight: Arc<FlightRecorder>) -> NodeConfig {
        self.flight = Some(flight);
        self
    }
}

impl std::fmt::Debug for NodeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeConfig")
            .field("consensus", &self.consensus)
            .field("checkpoint_interval", &self.checkpoint_interval)
            .finish()
    }
}

/// Shared counters a [`NodeHandle`] exposes while its thread runs.
#[derive(Debug, Default)]
pub struct NodeStats {
    decided: AtomicU64,
    executed_requests: AtomicU64,
    last_cid: AtomicU64,
    state_transfers: AtomicU64,
}

impl NodeStats {
    /// Instances decided (committed) so far.
    pub fn decided(&self) -> u64 {
        self.decided.load(Ordering::Relaxed)
    }
    /// Requests executed so far.
    pub fn executed_requests(&self) -> u64 {
        self.executed_requests.load(Ordering::Relaxed)
    }
    /// Highest committed instance.
    pub fn last_cid(&self) -> u64 {
        self.last_cid.load(Ordering::Relaxed)
    }
    /// Completed state transfers.
    pub fn state_transfers(&self) -> u64 {
        self.state_transfers.load(Ordering::Relaxed)
    }
}

/// Handle to a running replica node thread.
#[derive(Debug)]
pub struct NodeHandle {
    node: NodeId,
    shutdown: Arc<AtomicBool>,
    stats: Arc<NodeStats>,
    registry: Option<Arc<Registry>>,
    thread: Option<JoinHandle<()>>,
}

impl NodeHandle {
    /// This node's identity.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's metrics registry, if one was configured.
    pub fn obs_registry(&self) -> Option<&Arc<Registry>> {
        self.registry.as_ref()
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

/// In-progress state transfer bookkeeping.
struct Transfer {
    target_cid: u64,
    /// Checkpoint candidates keyed by (cid, snapshot bytes), counting
    /// distinct senders; `f + 1` matching senders make one trustworthy.
    checkpoints: HashMap<(u64, Bytes), HashSet<NodeId>>,
    /// Best proof-carrying entries seen so far.
    entries: BTreeMap<u64, LogEntry>,
    last_request_at: Instant,
}

/// Spawns a replica node thread.
///
/// The node joins `network` as `PeerId::Replica(id)`, runs consensus,
/// executes `app` on decided batches, persists decisions to `log`, and
/// serves/performs state transfer.
pub fn spawn_replica(
    config: NodeConfig,
    network: &Network,
    app: Box<dyn Application>,
    log: Box<dyn LogStore>,
) -> NodeHandle {
    spawn_replica_with(config, network, log, move |_| app)
}

/// Like [`spawn_replica`], but the application is built with access to
/// a [`PushHandle`] so its worker threads can transmit to clients
/// directly (the ordering service's signing pool).
pub fn spawn_replica_with(
    config: NodeConfig,
    network: &Network,
    log: Box<dyn LogStore>,
    build_app: impl FnOnce(PushHandle) -> Box<dyn Application> + Send + 'static,
) -> NodeHandle {
    let endpoint = network.join(PeerId::Replica(config.consensus.node.0));
    spawn_replica_endpoint_with(config, endpoint, log, build_app)
}

/// Like [`spawn_replica`], but on an already-built [`Endpoint`] —
/// this is how a multi-process deployment hands a replica its TCP
/// endpoint ([`hlf_transport::TcpNetwork::endpoint`]). The endpoint's
/// id must be `PeerId::Replica(config.consensus.node)`.
pub fn spawn_replica_endpoint(
    config: NodeConfig,
    endpoint: Endpoint,
    app: Box<dyn Application>,
    log: Box<dyn LogStore>,
) -> NodeHandle {
    spawn_replica_endpoint_with(config, endpoint, log, move |_| app)
}

/// Endpoint-taking form of [`spawn_replica_with`]; the common tail of
/// every replica spawn path.
pub fn spawn_replica_endpoint_with(
    config: NodeConfig,
    mut endpoint: Endpoint,
    log: Box<dyn LogStore>,
    build_app: impl FnOnce(PushHandle) -> Box<dyn Application> + Send + 'static,
) -> NodeHandle {
    let node = config.consensus.node;
    debug_assert_eq!(endpoint.id(), PeerId::Replica(node.0), "endpoint/config id mismatch");
    let registry = config.registry.clone();
    if let Some(flight) = &config.flight {
        endpoint.attach_flight(Arc::clone(flight));
    }
    let shutdown = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(NodeStats::default());
    let clients = ClientSet::default();
    let push_handle = PushHandle {
        sender: endpoint.sender(),
        clients: clients.clone(),
    };

    let thread_shutdown = Arc::clone(&shutdown);
    let thread_stats = Arc::clone(&stats);
    let thread = std::thread::Builder::new()
        .name(format!("replica-{}", node.0))
        .spawn(move || {
            let app = build_app(push_handle);
            let mut worker = NodeWorker::new(config, endpoint, app, log, thread_stats, clients);
            worker.run(&thread_shutdown);
        })
        // lint:allow(panic): OS thread-spawn failure at boot is unrecoverable — the replica cannot exist without its worker thread
        .expect("spawn replica thread");

    NodeHandle {
        node,
        shutdown,
        stats,
        registry,
        thread: Some(thread),
    }
}

struct NodeWorker {
    config: NodeConfig,
    endpoint: Endpoint,
    replica: Replica,
    app: Box<dyn Application>,
    log: Box<dyn LogStore>,
    stats: Arc<NodeStats>,
    clients: ClientSet,
    /// Last reply sent to each client, re-sent when a client
    /// retransmits an already-executed request (BFT-SMaRt's reply
    /// cache).
    reply_cache: HashMap<ClientId, (u64, Bytes)>,
    started: Instant,
    last_tick: Instant,
    /// Instances tentatively executed but not yet confirmed. With a
    /// pipelined consensus window several can be outstanding at once.
    tentative_executed: BTreeSet<u64>,
    transfer: Option<Transfer>,
    /// Suppress client-visible outputs while replaying transferred
    /// state.
    replaying: bool,
    obs: Option<NodeObs>,
    /// Arrival time of each client's latest in-flight request, for the
    /// request→decide latency histogram. One slot per client: a newer
    /// seq from the same client supersedes the old entry, so the map is
    /// bounded by the connected-client count.
    request_seen: HashMap<ClientId, (u64, Instant)>,
}

impl NodeWorker {
    fn new(
        config: NodeConfig,
        endpoint: Endpoint,
        app: Box<dyn Application>,
        log: Box<dyn LogStore>,
        stats: Arc<NodeStats>,
        clients: ClientSet,
    ) -> NodeWorker {
        let mut replica = Replica::new(config.consensus.clone());
        let n = config.consensus.quorums.n();
        let obs = config.registry.as_deref().map(|registry| {
            replica.attach_obs(ReplicaObs::new(registry));
            replica.attach_health_obs(HealthObs::new(registry, n));
            NodeObs::new(registry)
        });
        if let Some(flight) = &config.flight {
            replica.attach_flight(Arc::clone(flight));
        }
        NodeWorker {
            config,
            endpoint,
            replica,
            app,
            log,
            stats,
            clients,
            reply_cache: HashMap::new(),
            started: Instant::now(),
            last_tick: Instant::now(),
            tentative_executed: BTreeSet::new(),
            transfer: None,
            replaying: false,
            obs,
            request_seen: HashMap::new(),
        }
    }

    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn run(&mut self, shutdown: &AtomicBool) {
        // Recover from the durable log, if it has history.
        self.recover();
        while !shutdown.load(Ordering::Relaxed) {
            if let Ok((from, payload)) = self.endpoint.recv_timeout(self.config.tick_interval) { self.on_transport(from, &payload) }
            if self.last_tick.elapsed() >= self.config.tick_interval {
                self.last_tick = Instant::now();
                let now = self.now_ms();
                let actions = self.replica.on_tick(now);
                self.apply(actions);
                let outs = self.app.on_tick();
                self.route(outs);
                self.transfer_retry();
            }
        }
    }

    /// Replays the durable log into the application on startup.
    fn recover(&mut self) {
        let mut recovered = 0u64;
        if let Some((cid, snapshot)) = self.log.last_checkpoint() {
            self.app.restore(&snapshot);
            recovered = cid;
        }
        self.replaying = true;
        for entry in self.log.entries_from(recovered + 1) {
            self.app.execute_batch(entry.cid, &entry.batch, false);
            recovered = entry.cid;
        }
        self.replaying = false;
        if recovered > 0 {
            if let Some(obs) = &self.obs {
                obs.recoveries.inc();
            }
            hlf_obs::info!(
                "node {} recovered to cid {recovered} from durable log",
                self.replica.node().0
            );
            let now = self.now_ms();
            let actions = self.replica.install_state(now, recovered);
            self.stats.last_cid.store(recovered, Ordering::Relaxed);
            self.apply(actions);
        }
    }

    fn on_transport(&mut self, from: PeerId, payload: &Bytes) {
        // Decode as views into the transport buffer: the request/reply
        // payload inside becomes a refcounted slice, not a fresh copy.
        // `Framed` accepts both bare (traceless-peer) frames and frames
        // carrying a trailing trace context.
        let Ok(Framed { msg, trace }) = from_bytes_shared::<Framed>(payload) else {
            return;
        };
        let now = self.now_ms();
        match (from, msg) {
            (PeerId::Client(cid), SmrMsg::Request(request)) => {
                // Clients may only submit under their own identity.
                if request.client != ClientId(cid) {
                    return;
                }
                if let (Some(flight), Some(ctx)) = (&self.config.flight, trace) {
                    // Arrival of a traced submission at this replica.
                    flight.record(now * 1000, EventKind::Submit, ctx.id, cid as u64, request.seq);
                }
                self.clients.insert(request.client);
                // Retransmission of an already-answered request: replay
                // the cached reply instead of re-ordering.
                if let Some((seq, payload)) = self.reply_cache.get(&request.client) {
                    if *seq == request.seq {
                        let msg = SmrMsg::Reply {
                            seq: *seq,
                            payload: payload.clone(),
                        };
                        let bytes = to_pooled_bytes(&msg, self.endpoint.pool());
                        let _ = self.endpoint.send(PeerId::Client(cid), bytes);
                        return;
                    }
                }
                if self.obs.is_some() {
                    self.request_seen
                        .insert(request.client, (request.seq, Instant::now()));
                }
                let actions = self.replica.on_request(now, request);
                self.apply(actions);
            }
            (PeerId::Client(cid), SmrMsg::Subscribe) => {
                self.clients.insert(ClientId(cid));
            }
            (PeerId::Replica(id), SmrMsg::Consensus(msg)) => {
                let actions = self.replica.on_message(now, NodeId(id), msg);
                self.apply(actions);
            }
            (PeerId::Replica(id), SmrMsg::StateRequest { from_cid }) => {
                self.serve_state(NodeId(id), from_cid);
            }
            (PeerId::Replica(id), SmrMsg::StateReply {
                checkpoint,
                entries,
            }) => {
                self.on_state_reply(NodeId(id), checkpoint, entries);
            }
            _ => {}
        }
    }

    fn apply(&mut self, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Broadcast(msg) => self.broadcast_consensus(&msg),
                Action::Send(to, msg) => {
                    let bytes =
                        to_pooled_bytes(&SmrMsg::Consensus(msg), self.endpoint.pool());
                    let _ = self.endpoint.send(PeerId::Replica(to.0), bytes);
                }
                Action::DeliverTentative { cid, batch } => {
                    let outs = self.app.execute_batch(cid, &batch, true);
                    self.tentative_executed.insert(cid);
                    self.route(outs);
                }
                Action::Rollback { cid } => {
                    let outs = self.app.rollback(cid);
                    self.tentative_executed.remove(&cid);
                    self.route(outs);
                }
                Action::Commit { cid, batch, proof } => {
                    self.log.append(cid, &batch, &proof);
                    if self.tentative_executed.remove(&cid) {
                        self.app.confirm(cid);
                    } else {
                        let outs = self.app.execute_batch(cid, &batch, false);
                        self.route(outs);
                    }
                    self.stats.decided.fetch_add(1, Ordering::Relaxed);
                    self.stats
                        .executed_requests
                        .fetch_add(batch.len() as u64, Ordering::Relaxed);
                    self.stats.last_cid.store(cid, Ordering::Relaxed);
                    if let Some(obs) = &self.obs {
                        obs.commit_batch_len.record(batch.len() as u64);
                        for request in &batch.requests {
                            let matches = self
                                .request_seen
                                .get(&request.client)
                                .is_some_and(|(seq, _)| *seq == request.seq);
                            if matches {
                                if let Some((_, seen)) =
                                    self.request_seen.remove(&request.client)
                                {
                                    obs.request_decide_us
                                        .record(seen.elapsed().as_micros() as u64);
                                }
                            }
                        }
                    }
                    if cid % self.config.checkpoint_interval == 0 {
                        let snapshot = self.app.snapshot();
                        self.log.checkpoint(cid, &snapshot);
                    }
                }
                Action::Behind { target_cid } => self.start_transfer(target_cid),
            }
        }
    }

    fn broadcast_consensus(&self, msg: &ConsensusMsg) {
        let bytes = to_pooled_bytes(&SmrMsg::Consensus(msg.clone()), self.endpoint.pool());
        let self_id = self.replica.node();
        for node in 0..self.consensus_n() {
            if node as u32 != self_id.0 {
                let _ = self
                    .endpoint
                    .send(PeerId::Replica(node as u32), bytes.clone());
            }
        }
    }

    fn consensus_n(&self) -> usize {
        self.config.consensus.quorums.n()
    }

    fn route(&mut self, outs: Vec<crate::app::Outbound>) {
        if self.replaying {
            return;
        }
        for out in outs {
            if out.seq > 0 {
                if let Dest::Client(client) = out.dest {
                    self.reply_cache.insert(client, (out.seq, out.payload.clone()));
                }
            }
            let msg = SmrMsg::Reply {
                seq: out.seq,
                payload: out.payload,
            };
            let bytes = to_pooled_bytes(&msg, self.endpoint.pool());
            match out.dest {
                Dest::Client(client) => {
                    let _ = self.endpoint.send(PeerId::Client(client.0), bytes);
                }
                Dest::AllClients => {
                    for client in self.clients.read().iter() {
                        let _ = self.endpoint.send(PeerId::Client(client.0), bytes.clone());
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // State transfer
    // ------------------------------------------------------------------

    fn serve_state(&mut self, to: NodeId, from_cid: u64) {
        let checkpoint = self.log.last_checkpoint().filter(|(cid, _)| *cid >= from_cid);
        let entries_from = checkpoint
            .as_ref()
            .map(|(cid, _)| cid + 1)
            .unwrap_or(from_cid);
        let entries = self.log.entries_from(entries_from);
        if checkpoint.is_none() && entries.is_empty() {
            return;
        }
        let msg = SmrMsg::StateReply {
            checkpoint,
            entries,
        };
        let _ = self
            .endpoint
            .send(PeerId::Replica(to.0), to_pooled_bytes(&msg, self.endpoint.pool()));
    }

    fn start_transfer(&mut self, target_cid: u64) {
        if self
            .transfer
            .as_ref()
            .is_some_and(|t| t.target_cid >= target_cid)
        {
            return;
        }
        hlf_obs::info!(
            "node {} behind: starting state transfer towards cid {target_cid}",
            self.replica.node().0
        );
        if let Some(flight) = &self.config.flight {
            let at = self.now_ms() * 1000;
            flight.record(at, EventKind::StateTransfer, target_cid, 0, 0);
            flight.anomaly_at(at, "state_transfer");
        }
        self.transfer = Some(Transfer {
            target_cid,
            checkpoints: HashMap::new(),
            entries: BTreeMap::new(),
            last_request_at: Instant::now(),
        });
        self.request_state();
    }

    fn request_state(&self) {
        if let Some(obs) = &self.obs {
            obs.state_transfer_rounds.inc();
        }
        let from_cid = self.stats.last_cid() + 1;
        let msg = SmrMsg::StateRequest { from_cid };
        let bytes = to_pooled_bytes(&msg, self.endpoint.pool());
        let self_id = self.replica.node();
        for node in 0..self.consensus_n() {
            if node as u32 != self_id.0 {
                let _ = self
                    .endpoint
                    .send(PeerId::Replica(node as u32), bytes.clone());
            }
        }
    }

    fn transfer_retry(&mut self) {
        let Some(transfer) = &mut self.transfer else {
            return;
        };
        if transfer.last_request_at.elapsed() > Duration::from_millis(500) {
            transfer.last_request_at = Instant::now();
            self.request_state();
        }
    }

    fn on_state_reply(
        &mut self,
        from: NodeId,
        checkpoint: Option<(u64, Bytes)>,
        entries: Vec<LogEntry>,
    ) {
        let quorums = self.config.consensus.quorums.clone();
        let keys = self.config.consensus.keys.clone();
        let Some(transfer) = &mut self.transfer else {
            return;
        };
        if let Some((cid, snapshot)) = checkpoint {
            transfer
                .checkpoints
                .entry((cid, snapshot))
                .or_default()
                .insert(from);
        }
        for entry in entries {
            let valid = entry.proof.cid == entry.cid
                && entry.proof.hash == entry.batch.digest()
                && entry.proof.verify(&quorums, &keys).is_ok();
            if valid {
                transfer.entries.entry(entry.cid).or_insert(entry);
            }
        }
        self.try_complete_transfer();
    }

    // lint:allow(panic): map lookups run only after `contiguous`/`rest_ok` proved every cid in the range is present
    fn try_complete_transfer(&mut self) {
        let Some(transfer) = &self.transfer else {
            return;
        };
        let need_up_to = transfer.target_cid.saturating_sub(1);
        let have_from = self.stats.last_cid() + 1;

        // Option A: contiguous proven entries cover the whole gap.
        let contiguous = (have_from..=need_up_to).all(|cid| transfer.entries.contains_key(&cid));

        // Option B: an f+1-attested checkpoint plus entries after it.
        let f = self.config.consensus.quorums.f();
        let attested: Option<(u64, Bytes)> = transfer
            .checkpoints
            .iter()
            .filter(|(_, senders)| senders.len() > f)
            .map(|((cid, snap), _)| (*cid, snap.clone()))
            .max_by_key(|(cid, _)| *cid);

        if contiguous {
            let entries: Vec<LogEntry> = (have_from..=need_up_to)
                .map(|cid| transfer.entries[&cid].clone())
                .collect();
            self.finish_transfer(None, entries, need_up_to);
        } else if let Some((ckpt_cid, snapshot)) = attested {
            if ckpt_cid >= have_from.saturating_sub(1) && ckpt_cid <= need_up_to {
                let rest_ok =
                    (ckpt_cid + 1..=need_up_to).all(|cid| transfer.entries.contains_key(&cid));
                if rest_ok {
                    let entries: Vec<LogEntry> = (ckpt_cid + 1..=need_up_to)
                        .map(|cid| transfer.entries[&cid].clone())
                        .collect();
                    self.finish_transfer(Some((ckpt_cid, snapshot)), entries, need_up_to);
                }
            }
        }
    }

    fn finish_transfer(
        &mut self,
        checkpoint: Option<(u64, Bytes)>,
        entries: Vec<LogEntry>,
        reached: u64,
    ) {
        self.replaying = true;
        if let Some((cid, snapshot)) = checkpoint {
            self.app.restore(&snapshot);
            self.log.checkpoint(cid, &snapshot);
        }
        for entry in entries {
            self.app.execute_batch(entry.cid, &entry.batch, false);
            self.log.append(entry.cid, &entry.batch, &entry.proof);
        }
        self.replaying = false;
        self.transfer = None;
        self.tentative_executed.clear();
        self.stats.last_cid.store(reached, Ordering::Relaxed);
        self.stats.state_transfers.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.state_transfers.inc();
        }
        if let Some(flight) = &self.config.flight {
            flight.record(self.now_ms() * 1000, EventKind::StateTransfer, reached, 1, 0);
        }
        hlf_obs::info!(
            "node {} finished state transfer at cid {reached}",
            self.replica.node().0
        );
        let now = self.now_ms();
        let actions = self.replica.install_state(now, reached);
        self.apply(actions);
    }
}
