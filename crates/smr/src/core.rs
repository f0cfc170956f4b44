//! The sans-io replica node: consensus + application + durable log +
//! reply cache + catch-up, with no clock, socket or thread.
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
use hlf_consensus::messages::{Batch, ConsensusMsg, Request};
use hlf_consensus::{digest64, signer_bitmap, Action, Config as ConsensusConfig, Input as ConsensusInput, Replica};
use hlf_consensus::Executed;
use hlf_obs::EventKind;
use hlf_obs::{FlightRecorder, Registry};
use hlf_transport::PeerId;
use hlf_wire::{Bytes, ClientId, Decode, Encode, NodeId, Reader, WireError};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Most clients with an open request→decide stamp (24 bytes each).
const REQUEST_SEEN_MAX: usize = 1 << 16;

/// Node-level configuration on top of the consensus [`ConsensusConfig`].
pub struct NodeConfig {
    /// Consensus parameters (quorums, keys, timeouts, and the
    /// checkpoint period: the node checkpoints at every decision whose
    /// commit carries the sessions' executed half).
    pub consensus: ConsensusConfig,
    /// Granularity of the driver's clock: how often it feeds
    /// [`Input::Tick`].
    pub tick_interval: Duration,
    /// Metrics registry for this node: the node records its consensus
    /// (`consensus.*`) and SMR (`smr.node.*`) metrics into it, or into a
    /// private registry when this is `None`.
    pub registry: Option<Arc<Registry>>,
    /// Flight recorder for this node; when set, consensus-phase and
    /// state-transfer events are recorded into its ring.
    pub flight: Option<Arc<FlightRecorder>>,
}

impl NodeConfig {
    /// 20 ms ticks, metrics into a private registry.
    pub fn new(consensus: ConsensusConfig) -> NodeConfig {
        NodeConfig {
            consensus,
            tick_interval: Duration::from_millis(20),
            registry: None,
            flight: None,
        }
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
    duplicates_skipped: AtomicU64,
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
    /// Catch-ups that moved this node's frontier: answers to its
    /// `StateRequest` that it committed decisions from, or installed a
    /// checkpoint from.
    pub fn state_transfers(&self) -> u64 {
        self.state_transfers.load(Ordering::Relaxed)
    }
    /// Decided requests the executor skipped because their session had
    /// already executed them (the log keeps them, verbatim).
    pub fn duplicates_skipped(&self) -> u64 {
        self.duplicates_skipped.load(Ordering::Relaxed)
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
    /// timeouts (catch-up retries among them) and the application's tick
    /// hook.
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

/// One replica node, minus I/O.
pub struct NodeCore {
    consensus: ConsensusConfig,
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
    /// The checkpoint `(cid, bytes)` each peer's latest answer carried:
    /// `f + 1` byte-equal ones make it trustworthy. `Some` from this
    /// node's `StateRequest` until an answer moves its frontier; answers
    /// are read only then.
    checkpoint_claims: Option<HashMap<NodeId, (u64, Bytes)>>,
    /// When each peer was last sent a `StateReply` (µs): at most one per
    /// request timeout.
    answered_at: HashMap<NodeId, u64>,
    obs: NodeObs,
    flight: Option<Arc<FlightRecorder>>,
    /// `(seq, sight in µs)` of one in-flight request per client, for the
    /// request→decide latency histogram; see
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
        let registry = config
            .registry
            .clone()
            .unwrap_or_else(|| Registry::new(format!("node-{}", config.consensus.node.0)));
        let mut replica = Replica::new(config.consensus.clone());
        replica.attach_obs(&registry);
        if let Some(flight) = &config.flight {
            replica.attach_flight(Arc::clone(flight));
        }
        NodeCore {
            consensus: config.consensus.clone(),
            replica,
            actions: Vec::new(),
            app,
            log,
            stats: Arc::new(NodeStats::default()),
            clients: HashSet::new(),
            reply_cache: HashMap::new(),
            tentative_executed: BTreeSet::new(),
            checkpoint_claims: None,
            answered_at: HashMap::new(),
            obs: NodeObs::new(&registry),
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

    /// Replays the durable log into the application and the sessions.
    /// Call once, before the first [`NodeCore::step`].
    pub fn recover(&mut self, now_us: u64, out: &mut Vec<Output>) {
        let mut recovered = 0u64;
        let mut executed = Executed::default();
        if let Some((cid, checkpoint)) = self.log.last_checkpoint() {
            let Ok((sessions, snapshot)) = split_checkpoint(&checkpoint) else {
                // Left empty, the node catches up by state transfer.
                hlf_obs::warn!("node {} ignores an unreadable checkpoint at cid {cid}", self.node().0);
                return;
            };
            self.app.restore(&snapshot);
            executed = sessions;
            recovered = cid;
        }
        let mut owed = BTreeMap::new();
        for entry in self.log.entries_from(recovered + 1) {
            let skipped = executed.execute(&entry.batch);
            let outs = self.app.execute_batch(entry.cid, &executable(&entry.batch, &skipped), false);
            last_replies(outs, &mut owed);
            recovered = entry.cid;
        }
        // Replies of replayed batches went out before the restart; the
        // cache answers a client that missed its last one.
        self.reply_cache.extend(owed);
        if recovered > 0 {
            self.obs.recoveries.inc();
            hlf_obs::info!(
                "node {} recovered to cid {recovered} from durable log",
                self.node().0
            );
            self.stats.last_cid.store(recovered, Ordering::Relaxed);
            self.consensus(now_us, ConsensusInput::InstallState(recovered, executed), out);
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
                self.consensus(now_us, ConsensusInput::Requests(requests), out);
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
                self.consensus(now_us, ConsensusInput::Message(NodeId(id), msg), out);
            }
            Input::Frame(PeerId::Replica(id), SmrMsg::StateRequest { from_cid }) => {
                self.serve_log(now_us, NodeId(id), from_cid, out);
            }
            Input::Frame(PeerId::Replica(id), SmrMsg::StateReply { checkpoint, entries }) => {
                self.on_state_reply(now_us, NodeId(id), checkpoint, entries, out);
            }
            Input::Frame(..) => {}
            Input::Tick => {
                self.consensus(now_us, ConsensusInput::Tick, out);
                let outs = self.app.on_tick();
                self.route(outs, out);
            }
        }
    }

    /// Stamps the request→decide clock of the requests a frame carries —
    /// a client's window, a peer's `Forward`, the leader's PROPOSE. A
    /// client's slot holds one stamp and keeps it until that request
    /// decides, so a stream of windows is sampled, one request at a time,
    /// all along, not only at its last request. A free slot takes the
    /// first request of the run not yet delivered, at this sight of it (a
    /// request already delivered gets none: its late copy would leave a
    /// slot no decide ever clears). A stamp whose request was executed
    /// another way, by a caught-up checkpoint or as a skipped duplicate, is
    /// replaced like a free slot.
    fn note_first_sight(&mut self, requests: &[Request], now_us: u64) {
        for run in requests.chunk_by(|a, b| a.client == b.client) {
            let Some(client) = run.first().map(|request| request.client) else { continue };
            match self.request_seen.get(&client) {
                Some(&(seq, _)) if !self.replica.was_executed(&(client, seq)) => continue,
                // A faulty leader can name any client in a PROPOSE: past
                // the cap only clients that already have a slot are
                // stamped.
                None if self.request_seen.len() >= REQUEST_SEEN_MAX => continue,
                _ => {}
            }
            match run.iter().find(|request| !self.replica.was_executed(&request.id())) {
                Some(request) => self.request_seen.insert(client, (request.seq, now_us)),
                None => self.request_seen.remove(&client),
            };
        }
    }

    fn join(&mut self, client: ClientId, out: &mut Vec<Output>) {
        if self.clients.insert(client) {
            out.push(Output::ClientJoined(client));
        }
    }

    /// Steps consensus with `input` and carries out what it asks for.
    fn consensus(&mut self, now_us: u64, input: ConsensusInput, out: &mut Vec<Output>) {
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
            Action::DeliverTentative { cid, batch, skipped } => {
                let outs = self.app.execute_batch(cid, &executable(&batch, &skipped), true);
                self.tentative_executed.insert(cid);
                self.route(outs, out);
            }
            Action::Rollback { cid } => {
                let outs = self.app.rollback(cid);
                self.tentative_executed.remove(&cid);
                self.route(outs, out);
            }
            Action::Commit {
                cid,
                batch,
                proof,
                skipped,
                checkpoint,
            } => {
                // The log keeps the batch verbatim: the proof covers it.
                // The executor runs what the sessions have not executed,
                // the same requests on every replica.
                self.log.append(cid, &batch, &proof);
                if self.tentative_executed.remove(&cid) {
                    self.app.confirm(cid);
                } else {
                    let outs = self.app.execute_batch(cid, &executable(&batch, &skipped), false);
                    self.route(outs, out);
                }
                self.stats.decided.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .executed_requests
                    .fetch_add((batch.len() - skipped.len()) as u64, Ordering::Relaxed);
                self.stats
                    .duplicates_skipped
                    .fetch_add(skipped.len() as u64, Ordering::Relaxed);
                self.stats.last_cid.store(cid, Ordering::Relaxed);
                self.obs.commit_batch_len.record(batch.len() as u64);
                self.obs.duplicates_skipped.add(skipped.len() as u64);
                for request in &batch.requests {
                    if let Some(&(seq, seen_us)) = self.request_seen.get(&request.client) {
                        if seq == request.seq {
                            self.request_seen.remove(&request.client);
                            self.obs.request_decide_us.record(now_us.saturating_sub(seen_us));
                        }
                    }
                }
                if let Some(executed) = checkpoint {
                    let snapshot = checkpoint_bytes(&executed, &self.app.snapshot());
                    self.log.checkpoint(cid, &snapshot);
                }
                out.push(Output::Committed {
                    cid,
                    digest: digest64(&proof.hash),
                    signers: signer_bitmap(proof.votes.iter().map(|vote| vote.node)),
                });
            }
            Action::Behind { from_cid } => self.ask_peers(now_us, from_cid, out),
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
    // Catch-up
    // ------------------------------------------------------------------

    /// Answers a peer's `StateRequest` from the log: the proven entries
    /// from `from_cid` on, or, once the log no longer reaches back that
    /// far, its checkpoint and the entries above it. At most one answer
    /// per peer per request timeout.
    fn serve_log(&mut self, now_us: u64, to: NodeId, from_cid: u64, out: &mut Vec<Output>) {
        let every_us = self.consensus.request_timeout_ms.saturating_mul(1000);
        if self.answered_at.get(&to).is_some_and(|&at| now_us.saturating_sub(at) < every_us) {
            return;
        }
        let checkpoint = self.log.last_checkpoint().filter(|(cid, _)| *cid >= from_cid);
        let entries_from = checkpoint
            .as_ref()
            .map(|(cid, _)| cid + 1)
            .unwrap_or(from_cid);
        let entries = self.log.entries_from(entries_from);
        if checkpoint.is_none() && entries.is_empty() {
            return;
        }
        self.answered_at.insert(to, now_us);
        out.push(Output::ToReplica(to, SmrMsg::StateReply { checkpoint, entries }));
    }

    /// [`Action::Behind`]: asks every peer for its decisions from
    /// `from_cid` on.
    fn ask_peers(&mut self, now_us: u64, from_cid: u64, out: &mut Vec<Output>) {
        hlf_obs::debug!("node {} asks its peers for decisions from cid {from_cid}", self.node().0);
        if let Some(flight) = &self.flight {
            flight.record(now_us, EventKind::StateTransfer, from_cid, 0, 0);
        }
        self.checkpoint_claims.get_or_insert_with(HashMap::new);
        self.obs.state_transfer_rounds.inc();
        out.push(Output::ToReplicas(SmrMsg::StateRequest { from_cid }));
    }

    /// A peer's answer. A checkpoint at or above the frontier is
    /// installed once `f + 1` peers sent it byte for byte; then each entry
    /// goes to the replica as a decision, which commits the one that
    /// continues its log (after verifying its proof) like any other.
    fn on_state_reply(
        &mut self,
        now_us: u64,
        from: NodeId,
        checkpoint: Option<(u64, Bytes)>,
        entries: Vec<LogEntry>,
        out: &mut Vec<Output>,
    ) {
        let Some(claims) = &mut self.checkpoint_claims else {
            return;
        };
        let before = self.replica.next_cid();
        if let Some(claim) = checkpoint {
            claims.insert(from, claim.clone());
            let vouchers = claims.values().filter(|other| **other == claim).count();
            if vouchers > self.consensus.quorums.f() && claim.0 >= before {
                self.install_checkpoint(now_us, claim, out);
            }
        }
        for entry in entries {
            self.consensus(now_us, ConsensusInput::Decided(entry.batch, entry.proof), out);
        }
        let reached = self.replica.next_cid() - 1;
        if reached < before {
            return;
        }
        self.checkpoint_claims = None;
        self.stats.state_transfers.fetch_add(1, Ordering::Relaxed);
        self.obs.state_transfers.inc();
        if let Some(flight) = &self.flight {
            flight.record(now_us, EventKind::StateTransfer, reached, 1, 0);
        }
        hlf_obs::info!("node {} caught up to cid {reached}", self.node().0);
    }

    /// Restores an attested checkpoint: the application's snapshot, the
    /// log's checkpoint, and the sessions' executed half in the replica,
    /// which resumes after it. The restored state holds no tentative
    /// execution.
    fn install_checkpoint(&mut self, now_us: u64, (cid, bytes): (u64, Bytes), out: &mut Vec<Output>) {
        let Ok((executed, snapshot)) = split_checkpoint(&bytes) else {
            return;
        };
        self.app.restore(&snapshot);
        self.log.checkpoint(cid, &bytes);
        self.tentative_executed.clear();
        self.stats.last_cid.store(cid, Ordering::Relaxed);
        self.consensus(now_us, ConsensusInput::InstallState(cid, executed), out);
    }
}

/// Records in `owed` the last reply to each client among `outs` (of a
/// batch executed without routing its outputs).
fn last_replies(outs: Vec<Outbound>, owed: &mut BTreeMap<ClientId, (u64, Bytes)>) {
    for Outbound { dest, seq, payload } in outs {
        if let Dest::Client(client) = dest {
            if seq > 0 {
                owed.insert(client, (seq, payload));
            }
        }
    }
}

/// A checkpoint's bytes: the executed half of every session, then the
/// application's snapshot.
fn checkpoint_bytes(executed: &Executed, snapshot: &Bytes) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(executed.encoded_len() + snapshot.len());
    executed.encode(&mut bytes);
    bytes.extend_from_slice(snapshot.as_slice());
    bytes
}

/// Splits a checkpoint into the sessions' executed half and the
/// application's snapshot (a view of `checkpoint`, not a copy).
fn split_checkpoint(checkpoint: &Bytes) -> Result<(Executed, Bytes), WireError> {
    let mut reader = Reader::for_shared(checkpoint);
    let executed = Executed::decode(&mut reader)?;
    let snapshot = reader.take_view(reader.remaining())?;
    Ok((executed, snapshot))
}

/// The requests of `batch` the executor runs: all but the ascending
/// `skipped` positions.
fn executable<'a>(batch: &'a Batch, skipped: &[usize]) -> Cow<'a, Batch> {
    if skipped.is_empty() {
        return Cow::Borrowed(batch);
    }
    let kept = batch
        .requests
        .iter()
        .enumerate()
        .filter(|(pos, _)| skipped.binary_search(pos).is_err())
        .map(|(_, request)| request.clone());
    Cow::Owned(Batch::new(kept.collect()))
}
