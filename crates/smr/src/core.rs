//! The sans-io replica node: consensus + application + durable log +
//! reply cache + state transfer, with no clock, socket or thread.
//!
//! [`NodeCore::step`] is the single entry point. A driver feeds it one
//! [`Input`] at a time together with the current time and carries out
//! the [`Output`]s it appends: the threaded node ([`crate::node`]) does
//! so over a transport [`hlf_transport::Endpoint`] (in-process hub or
//! TCP), the geo simulator (`ordering_core::sim`) over virtual links.
//! Every protocol decision above [`Replica`] lives here, so all drivers
//! run the same code.

use crate::app::{Application, Dest, Outbound};
use crate::obs::NodeObs;
use crate::storage::LogStore;
use crate::wire::{LogEntry, SmrMsg};
use hlf_consensus::messages::{ConsensusMsg, Request};
use hlf_consensus::replica::{self, digest64, signer_bitmap, Action, Config as ConsensusConfig, Replica};
use hlf_consensus::{HealthObs, ReplicaObs};
use hlf_obs::flight::EventKind;
use hlf_obs::{FlightRecorder, Registry};
use hlf_transport::PeerId;
use hlf_wire::{Bytes, ClientId, NodeId};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A pending `StateRequest` round is repeated after this long (µs).
const TRANSFER_RETRY_US: u64 = 500_000;

/// Most clients with an open request→decide stamp (24 bytes each).
const REQUEST_SEEN_MAX: usize = 1 << 16;

/// Node-level configuration on top of the consensus [`ConsensusConfig`].
pub struct NodeConfig {
    /// Consensus parameters (quorums, keys, timeouts...).
    pub consensus: ConsensusConfig,
    /// Checkpoint the application every this many decisions.
    pub checkpoint_interval: u64,
    /// Granularity of the driver's clock: how often it feeds
    /// [`Input::Tick`].
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

/// Counters a node shares with whoever holds its handle.
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

/// What a driver feeds into [`NodeCore::step`].
#[allow(
    clippy::large_enum_variant,
    reason = "a frame is moved into `step` once; boxing it would cost an allocation per frame to shrink a value that is never stored"
)]
#[derive(Clone, Debug)]
pub enum Input {
    /// A decoded frame from a peer. The driver vouches for `PeerId`
    /// (the transport authenticates senders).
    Frame(PeerId, SmrMsg),
    /// [`NodeConfig::tick_interval`] has passed: drives consensus
    /// timeouts, the application's tick hook and state-transfer retry.
    Tick,
}

/// An effect the driver must carry out. Broadcasts stay distinct from
/// unicasts so a driver can encode the message once.
#[derive(Clone, Debug, PartialEq)]
pub enum Output {
    /// Send to every *other* replica.
    ToReplicas(SmrMsg),
    /// Send to one replica.
    ToReplica(NodeId, SmrMsg),
    /// Send to one client.
    ToClient(ClientId, SmrMsg),
    /// Send to every client that has joined so far.
    ToAllClients(SmrMsg),
    /// First frame from this client: it now receives `ToAllClients`
    /// traffic (and whatever the driver pushes on its own, such as the
    /// ordering service's signed blocks).
    ClientJoined(ClientId),
    /// Instance `cid` was committed, logged and executed.
    Committed {
        /// The decided instance.
        cid: u64,
        /// [`digest64`] of the decided batch.
        digest: u64,
        /// Bitmap of the nodes whose votes form the decision proof.
        signers: u64,
    },
}

/// In-progress state transfer bookkeeping.
struct Transfer {
    target_cid: u64,
    /// Checkpoint candidates keyed by (cid, snapshot bytes), counting
    /// distinct senders; `f + 1` matching senders make one trustworthy.
    checkpoints: HashMap<(u64, Bytes), HashSet<NodeId>>,
    /// Best proof-carrying entries seen so far.
    entries: BTreeMap<u64, LogEntry>,
    last_request_us: u64,
}

/// One replica node, minus I/O.
pub struct NodeCore {
    consensus: ConsensusConfig,
    checkpoint_interval: u64,
    replica: Replica,
    /// What the replica's current step asked for; drained, and reused by
    /// the next step.
    actions: Vec<Action>,
    app: Box<dyn Application>,
    log: Box<dyn LogStore>,
    stats: Arc<NodeStats>,
    clients: HashSet<ClientId>,
    /// Last reply sent to each client, re-sent when a client
    /// retransmits an already-executed request (BFT-SMaRt's reply
    /// cache).
    reply_cache: HashMap<ClientId, (u64, Bytes)>,
    /// Instances tentatively executed but not yet confirmed. With a
    /// pipelined consensus window several can be outstanding at once.
    tentative_executed: BTreeSet<u64>,
    transfer: Option<Transfer>,
    obs: Option<NodeObs>,
    flight: Option<Arc<FlightRecorder>>,
    /// `(seq, first sight in µs)` of each client's latest in-flight
    /// request, for the request→decide latency histogram; see
    /// [`NodeCore::note_first_sight`]. One slot per client, removed when
    /// its request decides.
    request_seen: HashMap<ClientId, (u64, u64)>,
}

impl std::fmt::Debug for NodeCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeCore")
            .field("replica", &self.replica)
            .field("last_cid", &self.stats.last_cid())
            .finish()
    }
}

impl NodeCore {
    /// Builds the node around `app` and `log`. Nothing runs until the
    /// driver calls [`NodeCore::recover`] and then [`NodeCore::step`].
    pub fn new(config: &NodeConfig, app: Box<dyn Application>, log: Box<dyn LogStore>) -> NodeCore {
        let mut replica = Replica::new(config.consensus.clone());
        let obs = config.registry.as_deref().map(|registry| {
            replica.attach_obs(ReplicaObs::new(registry));
            replica.attach_health_obs(HealthObs::new(registry, config.consensus.quorums.n()));
            NodeObs::new(registry)
        });
        if let Some(flight) = &config.flight {
            replica.attach_flight(Arc::clone(flight));
        }
        NodeCore {
            consensus: config.consensus.clone(),
            checkpoint_interval: config.checkpoint_interval,
            replica,
            actions: Vec::new(),
            app,
            log,
            stats: Arc::new(NodeStats::default()),
            clients: HashSet::new(),
            reply_cache: HashMap::new(),
            tentative_executed: BTreeSet::new(),
            transfer: None,
            obs,
            flight: config.flight.clone(),
            request_seen: HashMap::new(),
        }
    }

    /// This node's identity.
    pub fn node(&self) -> NodeId {
        self.consensus.node
    }

    /// Requests seen here and not yet decided that hold a
    /// request→decide stamp: at most one per client, none once the
    /// cluster is idle.
    pub fn open_request_stamps(&self) -> usize {
        self.request_seen.len()
    }

    /// The live counters (shared: the handle outlives a borrow).
    pub fn stats(&self) -> Arc<NodeStats> {
        Arc::clone(&self.stats)
    }

    /// The replicated application (state inspection in tests).
    pub fn app(&self) -> &dyn Application {
        self.app.as_ref()
    }

    /// Replays the durable log into the application. Call once, before
    /// the first [`NodeCore::step`].
    pub fn recover(&mut self, now_us: u64, out: &mut Vec<Output>) {
        let mut recovered = 0u64;
        if let Some((cid, snapshot)) = self.log.last_checkpoint() {
            self.app.restore(&snapshot);
            recovered = cid;
        }
        for entry in self.log.entries_from(recovered + 1) {
            // Replies of replayed batches went out before the restart.
            self.app.execute_batch(entry.cid, &entry.batch, false);
            recovered = entry.cid;
        }
        if recovered > 0 {
            if let Some(obs) = &self.obs {
                obs.recoveries.inc();
            }
            hlf_obs::info!(
                "node {} recovered to cid {recovered} from durable log",
                self.node().0
            );
            self.stats.last_cid.store(recovered, Ordering::Relaxed);
            self.consensus(now_us, replica::Input::InstallState(recovered), out);
        }
    }

    /// Advances the node by one input at time `now_us` (any monotonic
    /// microsecond clock), appending the resulting effects to `out`.
    pub fn step(&mut self, now_us: u64, input: Input, out: &mut Vec<Output>) {
        match input {
            Input::Frame(PeerId::Client(id), SmrMsg::Requests(mut requests)) => {
                let client = ClientId(id);
                // Clients may only submit under their own identity: one
                // foreign request condemns the whole frame.
                if requests.iter().any(|request| request.client != client) {
                    return;
                }
                self.join(client, out);
                // Retransmission of an already-answered request: replay
                // the cached reply instead of re-ordering it. The rest
                // of the window goes on.
                if let Some((seq, payload)) = self.reply_cache.get(&client) {
                    if requests.iter().any(|request| request.seq == *seq) {
                        let reply = SmrMsg::Reply {
                            seq: *seq,
                            payload: payload.clone(),
                        };
                        out.push(Output::ToClient(client, reply));
                        requests.retain(|request| request.seq != *seq);
                    }
                }
                let Some(last) = requests.last() else {
                    return;
                };
                self.note_first_sight(std::slice::from_ref(last), now_us);
                self.consensus(now_us, replica::Input::Requests(requests), out);
            }
            Input::Frame(PeerId::Client(id), SmrMsg::Subscribe) => self.join(ClientId(id), out),
            Input::Frame(PeerId::Replica(id), SmrMsg::Consensus(msg)) => {
                // A follower often meets a request in the leader's
                // PROPOSE (or a peer's Forward) before the client's own
                // copy arrives, and may decide on that copy alone.
                match &msg {
                    ConsensusMsg::Propose { batch, .. } => {
                        self.note_first_sight(&batch.requests, now_us);
                    }
                    ConsensusMsg::Forward { requests } => self.note_first_sight(requests, now_us),
                    _ => {}
                }
                self.consensus(now_us, replica::Input::Message(NodeId(id), msg), out);
            }
            Input::Frame(PeerId::Replica(id), SmrMsg::StateRequest { from_cid }) => {
                self.serve_state(NodeId(id), from_cid, out);
            }
            Input::Frame(PeerId::Replica(id), SmrMsg::StateReply { checkpoint, entries }) => {
                self.on_state_reply(now_us, NodeId(id), checkpoint, entries, out);
            }
            Input::Frame(..) => {}
            Input::Tick => {
                self.consensus(now_us, replica::Input::Tick, out);
                let outs = self.app.on_tick();
                self.route(outs, out);
                self.transfer_retry(now_us, out);
            }
        }
    }

    /// Stamps the request→decide clock of the requests a frame carries —
    /// a client's window, a peer's `Forward`, the leader's PROPOSE — at
    /// their *first sight* on this node: an earlier stamp of the same
    /// request stands, a request already delivered gets none (its late
    /// copy would leave a slot no decide ever clears), and a newer seq
    /// supersedes the client's slot. A run of one client's requests is
    /// stamped by its last one, which is what a slot per client holds
    /// anyway.
    fn note_first_sight(&mut self, requests: &[Request], now_us: u64) {
        if self.obs.is_none() {
            return;
        }
        for run in requests.chunk_by(|a, b| a.client == b.client) {
            let Some(last) = run.last() else { continue };
            if self.replica.was_delivered(&last.id()) {
                continue;
            }
            // A faulty leader can name any client in a PROPOSE: past
            // the cap only clients that already have a slot are stamped.
            if self.request_seen.len() >= REQUEST_SEEN_MAX
                && !self.request_seen.contains_key(&last.client)
            {
                continue;
            }
            let slot = self.request_seen.entry(last.client).or_insert((last.seq, now_us));
            if slot.0 < last.seq {
                *slot = (last.seq, now_us);
            }
        }
    }

    fn join(&mut self, client: ClientId, out: &mut Vec<Output>) {
        if self.clients.insert(client) {
            out.push(Output::ClientJoined(client));
        }
    }

    /// Steps consensus with `input` and carries out what it asks for.
    fn consensus(&mut self, now_us: u64, input: replica::Input, out: &mut Vec<Output>) {
        let mut actions = std::mem::take(&mut self.actions);
        self.replica.step(now_us / 1000, input, &mut actions);
        for action in actions.drain(..) {
            self.apply(now_us, action, out);
        }
        self.actions = actions;
    }

    fn apply(&mut self, now_us: u64, action: Action, out: &mut Vec<Output>) {
        match action {
            Action::Broadcast(msg) => out.push(Output::ToReplicas(SmrMsg::Consensus(msg))),
            Action::Send(to, msg) => out.push(Output::ToReplica(to, SmrMsg::Consensus(msg))),
            Action::DeliverTentative { cid, batch } => {
                let outs = self.app.execute_batch(cid, &batch, true);
                self.tentative_executed.insert(cid);
                self.route(outs, out);
            }
            Action::Rollback { cid } => {
                let outs = self.app.rollback(cid);
                self.tentative_executed.remove(&cid);
                self.route(outs, out);
            }
            Action::Commit { cid, batch, proof } => {
                self.log.append(cid, &batch, &proof);
                if self.tentative_executed.remove(&cid) {
                    self.app.confirm(cid);
                } else {
                    let outs = self.app.execute_batch(cid, &batch, false);
                    self.route(outs, out);
                }
                self.stats.decided.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .executed_requests
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                self.stats.last_cid.store(cid, Ordering::Relaxed);
                if let Some(obs) = &self.obs {
                    obs.commit_batch_len.record(batch.len() as u64);
                    for request in &batch.requests {
                        if let Some(&(seq, seen_us)) = self.request_seen.get(&request.client) {
                            if seq == request.seq {
                                self.request_seen.remove(&request.client);
                                obs.request_decide_us.record(now_us.saturating_sub(seen_us));
                            }
                        }
                    }
                }
                if cid % self.checkpoint_interval == 0 {
                    let snapshot = self.app.snapshot();
                    self.log.checkpoint(cid, &snapshot);
                }
                out.push(Output::Committed {
                    cid,
                    digest: digest64(&proof.hash),
                    signers: signer_bitmap(proof.votes.iter().map(|vote| vote.node)),
                });
            }
            Action::Behind { target_cid } => self.start_transfer(now_us, target_cid, out),
        }
    }

    fn route(&mut self, outs: Vec<Outbound>, out: &mut Vec<Output>) {
        for Outbound { dest, seq, payload } in outs {
            match dest {
                Dest::Client(client) => {
                    if seq > 0 {
                        self.reply_cache.insert(client, (seq, payload.clone()));
                    }
                    out.push(Output::ToClient(client, SmrMsg::Reply { seq, payload }));
                }
                Dest::AllClients => out.push(Output::ToAllClients(SmrMsg::Reply { seq, payload })),
            }
        }
    }

    // ------------------------------------------------------------------
    // State transfer
    // ------------------------------------------------------------------

    fn serve_state(&mut self, to: NodeId, from_cid: u64, out: &mut Vec<Output>) {
        let checkpoint = self.log.last_checkpoint().filter(|(cid, _)| *cid >= from_cid);
        let entries_from = checkpoint
            .as_ref()
            .map(|(cid, _)| cid + 1)
            .unwrap_or(from_cid);
        let entries = self.log.entries_from(entries_from);
        if checkpoint.is_none() && entries.is_empty() {
            return;
        }
        out.push(Output::ToReplica(to, SmrMsg::StateReply { checkpoint, entries }));
    }

    fn start_transfer(&mut self, now_us: u64, target_cid: u64, out: &mut Vec<Output>) {
        if self
            .transfer
            .as_ref()
            .is_some_and(|t| t.target_cid >= target_cid)
        {
            return;
        }
        hlf_obs::info!(
            "node {} behind: starting state transfer towards cid {target_cid}",
            self.node().0
        );
        if let Some(flight) = &self.flight {
            flight.record(now_us, EventKind::StateTransfer, target_cid, 0, 0);
            flight.anomaly_at(now_us, "state_transfer");
        }
        self.transfer = Some(Transfer {
            target_cid,
            checkpoints: HashMap::new(),
            entries: BTreeMap::new(),
            last_request_us: now_us,
        });
        self.request_state(out);
    }

    fn request_state(&self, out: &mut Vec<Output>) {
        if let Some(obs) = &self.obs {
            obs.state_transfer_rounds.inc();
        }
        let from_cid = self.stats.last_cid() + 1;
        out.push(Output::ToReplicas(SmrMsg::StateRequest { from_cid }));
    }

    fn transfer_retry(&mut self, now_us: u64, out: &mut Vec<Output>) {
        let Some(transfer) = &mut self.transfer else {
            return;
        };
        if now_us.saturating_sub(transfer.last_request_us) >= TRANSFER_RETRY_US {
            transfer.last_request_us = now_us;
            self.request_state(out);
        }
    }

    fn on_state_reply(
        &mut self,
        now_us: u64,
        from: NodeId,
        checkpoint: Option<(u64, Bytes)>,
        entries: Vec<LogEntry>,
        out: &mut Vec<Output>,
    ) {
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
                && entry
                    .proof
                    .verify(&self.consensus.quorums, self.replica.keys())
                    .is_ok();
            if valid {
                transfer.entries.entry(entry.cid).or_insert(entry);
            }
        }
        self.try_complete_transfer(now_us, out);
    }

    #[expect(clippy::indexing_slicing, reason = "the map is indexed only over a range `covered` proved fully present")]
    fn try_complete_transfer(&mut self, now_us: u64, out: &mut Vec<Output>) {
        let Some(transfer) = &self.transfer else {
            return;
        };
        let need_up_to = transfer.target_cid.saturating_sub(1);
        let last_cid = self.stats.last_cid();
        // Proven entries cover everything after `base` up to the target.
        let covered =
            |base: u64| (base + 1..=need_up_to).all(|cid| transfer.entries.contains_key(&cid));

        // Either the entries continue our own log, or they continue the
        // highest checkpoint that f + 1 senders attest byte for byte.
        let f = self.consensus.quorums.f();
        let checkpoint = if covered(last_cid) {
            None
        } else {
            let attested = transfer
                .checkpoints
                .iter()
                .filter(|((cid, _), senders)| {
                    senders.len() > f && (last_cid..=need_up_to).contains(cid)
                })
                .max_by_key(|((cid, _), _)| *cid);
            match attested {
                Some(((cid, snapshot), _)) if covered(*cid) => Some((*cid, snapshot.clone())),
                _ => return,
            }
        };
        let base = checkpoint.as_ref().map_or(last_cid, |(cid, _)| *cid);
        let entries = (base + 1..=need_up_to)
            .map(|cid| transfer.entries[&cid].clone())
            .collect();
        self.finish_transfer(now_us, checkpoint, entries, need_up_to, out);
    }

    fn finish_transfer(
        &mut self,
        now_us: u64,
        checkpoint: Option<(u64, Bytes)>,
        entries: Vec<LogEntry>,
        reached: u64,
        out: &mut Vec<Output>,
    ) {
        if let Some((cid, snapshot)) = checkpoint {
            self.app.restore(&snapshot);
            self.log.checkpoint(cid, &snapshot);
        }
        for entry in entries {
            // Clients already hold these replies from the live replicas.
            self.app.execute_batch(entry.cid, &entry.batch, false);
            self.log.append(entry.cid, &entry.batch, &entry.proof);
        }
        self.transfer = None;
        self.tentative_executed.clear();
        // `max`: consensus may have committed past the target meanwhile.
        self.stats.last_cid.fetch_max(reached, Ordering::Relaxed);
        self.stats.state_transfers.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.state_transfers.inc();
        }
        if let Some(flight) = &self.flight {
            flight.record(now_us, EventKind::StateTransfer, reached, 1, 0);
        }
        hlf_obs::info!(
            "node {} finished state transfer at cid {reached}",
            self.node().0
        );
        self.consensus(now_us, replica::Input::InstallState(reached), out);
    }
}
