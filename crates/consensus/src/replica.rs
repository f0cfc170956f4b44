//! The Mod-SMaRt replica: a sans-io consensus state machine.
//!
//! The replica consumes [`Input`]s through [`Replica::step`] — client
//! requests, peer messages, clock ticks — and emits [`Action`]s:
//! messages to send, batches to deliver, tentative deliveries to roll
//! back. It performs no I/O and reads no clock, which lets the identical
//! protocol logic run:
//!
//! * on real threads over [`hlf_transport`](https://docs.rs) channels
//!   for the LAN throughput experiments, and
//! * inside the [`hlf_simnet`](https://docs.rs) discrete-event simulator
//!   for the geo-distributed latency experiments.
//!
//! ## Protocol recap (paper §4)
//!
//! The leader of the current *regency* proposes a batch (PROPOSE); every
//! replica echoes a signed WRITE vote for the batch digest; on a quorum
//! of WRITEs a replica sends a signed ACCEPT; on a quorum of ACCEPTs the
//! batch is decided. WHEAT's *tentative execution* additionally delivers
//! the batch right after the WRITE quorum. Timeouts escalate through
//! request forwarding into a STOP / STOP-DATA / SYNC leader change.

use crate::messages::{
    Batch, ConsensusMsg, DecisionProof, Request, SlotRebind, SlotReport, StopData, Vote, VotePhase,
};
use crate::obs::{HealthObs, ReplicaObs};
use crate::quorum::{QuorumSystem, QuorumTracker};
use crate::session::{Executed, Sessions, WINDOW};
use crate::sync::{select_window, validate_sync_window, MAX_WINDOW};
use hlf_crypto::ecdsa::{PinnedKey, SigningKey};
use hlf_crypto::sha256::Hash256;
use hlf_obs::flight::EventKind;
use hlf_obs::{FlightRecorder, StragglerDetector};
use hlf_wire::{ClientId, NodeId};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// How many future instances' messages a replica buffers while lagging.
const FUTURE_HORIZON: u64 = 64;
/// How many recent decisions are cached to answer `ValueRequest`s.
const RECENT_DECISIONS: usize = 64;

/// First 8 bytes of a digest as a little-endian `u64` — the compact
/// value identity flight events carry for the cluster auditor. Truncation
/// is fine: the auditor compares equality across replicas, it never
/// inverts the hash.
pub fn digest64(hash: &Hash256) -> u64 {
    hash.as_bytes()
        .iter()
        .take(8)
        .rev()
        .fold(0u64, |acc, &b| (acc << 8) | b as u64)
}

/// Folds node ids into a signer bitmap (bit `i` = node `i` signed).
/// The auditor pops the count and checks distinctness; n ≤ 64 holds for
/// every configuration this codebase runs.
pub fn signer_bitmap(nodes: impl Iterator<Item = NodeId>) -> u64 {
    nodes.fold(0u64, |mask, node| mask | 1u64 << (node.0 as u64 & 63))
}

/// Static configuration of a replica.
#[derive(Clone)]
pub struct Config {
    /// This replica's identity (an index below `quorums.n()`).
    pub node: NodeId,
    /// The quorum system (classic or WHEAT-weighted).
    pub quorums: QuorumSystem,
    /// Every replica's public key, indexed by node id, pinned: every
    /// vote, STOP-DATA and decision proof is verified against one of
    /// these. Pin a key set once and hand each replica clones, which
    /// share the comb tables.
    pub keys: Vec<PinnedKey>,
    /// This replica's private key (for WRITE/ACCEPT votes and
    /// STOP-DATA records).
    pub signing_key: SigningKey,
    /// WHEAT tentative execution: deliver after the WRITE quorum.
    pub tentative_execution: bool,
    /// Maximum requests per proposed batch (the paper uses 400).
    pub batch_max: usize,
    /// Maximum total payload bytes per batch.
    pub max_batch_bytes: usize,
    /// Base request timeout; twice this triggers a leader change.
    pub request_timeout_ms: u64,
    /// Cap on the requests queued across every client's session.
    pub max_pending: usize,
    /// Sliding-window depth: how many consensus slots may run agreement
    /// at once. `1` reproduces classic one-at-a-time operation; larger
    /// values keep the WAN pipe full (decides still release in order).
    pub pipeline_depth: usize,
    /// Every this many decisions (0: never), the decision's
    /// [`Action::Commit`] carries the executed half of every session
    /// for the checkpoint taken there.
    pub checkpoint_interval: u64,
}

impl std::fmt::Debug for Config {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Config")
            .field("node", &self.node)
            .field("n", &self.quorums.n())
            .field("f", &self.quorums.f())
            .field("tentative_execution", &self.tentative_execution)
            .field("batch_max", &self.batch_max)
            .field("pipeline_depth", &self.pipeline_depth)
            .finish()
    }
}

impl Config {
    /// A classic BFT-SMaRt configuration with paper defaults
    /// (batches of up to 400 requests, 2 s request timeout).
    ///
    /// # Panics
    ///
    /// Panics if `keys.len() != quorums.n()` or `node` is out of range.
    pub fn new(
        node: NodeId,
        quorums: QuorumSystem,
        keys: Vec<PinnedKey>,
        signing_key: SigningKey,
    ) -> Config {
        assert_eq!(keys.len(), quorums.n(), "one key per replica");
        assert!(node.as_usize() < quorums.n(), "node id out of range");
        Config {
            node,
            quorums,
            keys,
            signing_key,
            tentative_execution: false,
            batch_max: 400,
            max_batch_bytes: 8 * 1024 * 1024,
            request_timeout_ms: 2_000,
            max_pending: 100_000,
            pipeline_depth: 1,
            checkpoint_interval: 256,
        }
    }

    /// Enables WHEAT tentative execution.
    pub fn with_tentative_execution(mut self, enabled: bool) -> Config {
        self.tentative_execution = enabled;
        self
    }

    /// Overrides the batch size limit.
    pub fn with_batch_max(mut self, batch_max: usize) -> Config {
        self.batch_max = batch_max;
        self
    }

    /// Overrides the request timeout.
    pub fn with_request_timeout_ms(mut self, ms: u64) -> Config {
        self.request_timeout_ms = ms;
        self
    }

    /// Sets the in-flight consensus window depth, clamped to
    /// `1..=`[`MAX_WINDOW`] (the view-change protocol's horizon).
    pub fn with_pipeline_depth(mut self, depth: usize) -> Config {
        self.pipeline_depth = depth.clamp(1, MAX_WINDOW as usize);
        self
    }

    /// Overrides the checkpoint period (in decisions; 0 = never).
    pub fn with_checkpoint_interval(mut self, interval: u64) -> Config {
        self.checkpoint_interval = interval;
        self
    }

    /// How far above a client's `executed_below` a batch may reach:
    /// [`WINDOW`], less what the slots a follower has not yet committed
    /// can carry, so PROPOSE validation on a follower up to a window
    /// behind never rejects a batch a correct leader built. (A window
    /// deeper than half of [`WINDOW`] keeps the other half.)
    fn propose_ahead(&self) -> u64 {
        let in_window = (self.pipeline_depth as u64).saturating_mul(self.batch_max as u64);
        WINDOW - in_window.min(WINDOW / 2)
    }
}

/// What a driver feeds into [`Replica::step`].
#[expect(
    clippy::large_enum_variant,
    reason = "an input is moved into `step` once; boxing the message would cost an allocation per message to shrink a value that is never stored"
)]
#[derive(Clone, Debug)]
pub enum Input {
    /// A window of client requests that arrived in one frame: all are
    /// queued before the leader looks for a slot, so an idle leader
    /// proposes them as one batch.
    Requests(Vec<Request>),
    /// A message from peer replica `NodeId`.
    Message(NodeId, ConsensusMsg),
    /// Time has passed: drives timeout escalation and fetch retries.
    Tick,
    /// Application-level state transfer (or recovery from the durable
    /// log) reached this instance, with the executed half of every
    /// session as of that instance: the replica resumes after it, and
    /// its sessions dedup exactly as if it had decided every instance
    /// itself.
    InstallState(u64, Executed),
}

/// An effect the driver must carry out.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Send `msg` to every *other* replica.
    Broadcast(ConsensusMsg),
    /// Send `msg` to one replica.
    Send(NodeId, ConsensusMsg),
    /// WHEAT only: the batch reached a WRITE quorum and is delivered
    /// tentatively; a later [`Action::Rollback`] may undo it.
    DeliverTentative {
        /// Instance delivered tentatively.
        cid: u64,
        /// The tentatively delivered batch.
        batch: Batch,
        /// Positions in `batch` to skip: requests already executed, or
        /// carried by a lower tentative slot or earlier in this batch
        /// (the positions [`Action::Commit`] will skip if it holds).
        skipped: Vec<usize>,
    },
    /// Undo the tentative delivery of `cid` (leader change re-bound a
    /// different value).
    Rollback {
        /// Instance whose tentative delivery is revoked.
        cid: u64,
    },
    /// Final, irreversible decision of `cid`.
    Commit {
        /// Decided instance.
        cid: u64,
        /// Decided batch.
        batch: Batch,
        /// Transferable quorum proof of the decision.
        proof: DecisionProof,
        /// Positions in `batch` to skip, ascending: requests its
        /// client's window marks executed (or out of reach). The batch
        /// itself stays verbatim, since the proof covers its digest.
        skipped: Vec<usize>,
        /// At every [`Config::checkpoint_interval`]th decision, the
        /// executed half of every session after this batch, which the
        /// checkpoint taken here must carry.
        checkpoint: Option<Executed>,
    },
    /// The replica detected it is behind: the application layer should
    /// run state transfer up to `target_cid`.
    Behind {
        /// First instance the rest of the group is working on.
        target_cid: u64,
    },
}

/// Counters exposed for benchmarks and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Instances decided.
    pub decided_instances: u64,
    /// Requests delivered inside decided batches.
    pub delivered_requests: u64,
    /// Regency changes installed.
    pub regency_changes: u64,
    /// Tentative deliveries rolled back.
    pub rollbacks: u64,
    /// In-flight slots re-proposed by a new regent's SYNC.
    pub reproposals: u64,
}

/// Per-instance consensus state.
#[derive(Debug)]
struct Instance {
    /// Epoch = the regency this round runs under.
    epoch: u32,
    /// This epoch's proposal and the digest `accept_proposal` took of it.
    proposal: Option<(Batch, Hash256)>,
    writes: QuorumTracker,
    accepts: QuorumTracker,
    write_sent: bool,
    accept_sent: bool,
    /// Digest delivered tentatively (WHEAT), if any.
    tentative: Option<Hash256>,
    /// The slot's irrevocable decision (accept quorum reached), held
    /// until every lower slot has committed: decides release strictly
    /// in order even when quorums complete out of order.
    decided: Option<(Batch, DecisionProof)>,
    /// Sticky across epoch bumps: our most recent WRITE in this
    /// instance, its value, and supporting votes (the potential
    /// certificate reported in STOP-DATA).
    last_write: Option<(u32, Hash256)>,
    last_write_value: Option<Batch>,
    last_write_cert: Vec<Vote>,
    /// Replica clock when the current epoch's proposal was installed
    /// (phase-timing anchor; reset on epoch bumps).
    proposed_at: Option<u64>,
    /// Replica clock when the WRITE quorum first formed this epoch.
    write_quorum_at: Option<u64>,
}

impl Instance {
    fn new(epoch: u32) -> Instance {
        Instance {
            epoch,
            proposal: None,
            writes: QuorumTracker::new(),
            accepts: QuorumTracker::new(),
            write_sent: false,
            accept_sent: false,
            tentative: None,
            decided: None,
            last_write: None,
            last_write_value: None,
            last_write_cert: Vec::new(),
            proposed_at: None,
            write_quorum_at: None,
        }
    }

    /// Resets per-epoch vote state while keeping the sticky write
    /// history (used when a regency change bumps the epoch).
    fn bump_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
        self.proposal = None;
        self.writes.clear();
        self.accepts.clear();
        self.write_sent = false;
        self.accept_sent = false;
        self.proposed_at = None;
        self.write_quorum_at = None;
        // `tentative` is kept: a rollback is only emitted if the new
        // epoch binds a different value. `decided` is kept too — an
        // accept quorum is irrevocable across regencies.
    }
}

/// The Mod-SMaRt consensus replica.
///
/// # Examples
///
/// Drive four replicas by hand through one instance (the
/// [`crate::testing::Cluster`] harness automates this):
///
/// ```
/// use hlf_consensus::testing::Cluster;
/// use hlf_consensus::messages::Request;
/// use hlf_wire::ClientId;
///
/// let mut cluster = Cluster::classic(4, 1);
/// cluster.submit_to_all(Request::new(ClientId(1), 1, &b"tx"[..]));
/// cluster.run_to_quiescence();
/// let decisions = cluster.decisions(0);
/// assert_eq!(decisions.len(), 1);
/// assert_eq!(decisions[0].1.requests[0].payload.as_ref(), b"tx");
/// ```
pub struct Replica {
    cfg: Config,
    regency: u32,
    /// Current undecided instance id (instances start at 1).
    next_cid: u64,
    /// Live agreement slots, keyed by instance id. All keys lie in
    /// `next_cid .. next_cid + pipeline_depth` (the sliding window);
    /// entries are created lazily and removed when the slot commits.
    insts: BTreeMap<u64, Instance>,
    /// One session per client: the request pool, in-flight counts and
    /// what has executed.
    sessions: Sessions,
    /// Recent decisions, oldest first; the last one's proof is reported
    /// in STOP-DATA.
    recent_decisions: VecDeque<(u64, Batch, DecisionProof)>,
    // Timeout machinery.
    now_ms: u64,
    oldest_pending_since: Option<u64>,
    forwarded: bool,
    timeout_ms: u64,
    // Regency change.
    stop_votes: BTreeMap<u32, BTreeSet<NodeId>>,
    stop_sent_for: u32,
    syncing: bool,
    sync_started_at: u64,
    collect: HashMap<NodeId, StopData>,
    /// SYNC accepted while behind, adopted after state transfer
    /// (regency, frontier cid, frontier batch, window rebinds).
    pending_sync: Option<(u32, u64, Batch, Vec<SlotRebind>)>,
    // Catch-up.
    future: BTreeMap<u64, Vec<(NodeId, ConsensusMsg)>>,
    fetching_value: bool,
    fetch_started_at: u64,
    /// Current-instance agreement messages that arrived while a
    /// synchronization phase was in progress (or for a newer epoch than
    /// ours); replayed once the sync concludes.
    sync_buffer: Vec<(NodeId, ConsensusMsg)>,
    /// STOP-DATA records that reached us (as prospective leader) before
    /// our own STOP quorum installed the regency.
    early_stopdata: Vec<(NodeId, StopData)>,
    metrics: Metrics,
    /// Optional per-phase histograms and event counters (attached by
    /// the runtime when a registry exists; `None` costs nothing).
    obs: Option<ReplicaObs>,
    /// Optional flight recorder for distributed tracing; records
    /// protocol events and auto-dumps on anomalies (regency change,
    /// rollback). `None` costs nothing.
    flight: Option<Arc<FlightRecorder>>,
    /// Per-peer vote-arrival EWMAs flagging slow replicas.
    health: StragglerDetector,
    /// Optional metric handles the health detector reports through.
    health_obs: Option<HealthObs>,
    /// Propose times of recently decided instances `(cid, ms)`, so
    /// WRITE votes that arrive after the instance closed — the
    /// hallmark of a straggler — still feed the health detector.
    recent_proposed_at: VecDeque<(u64, u64)>,
    /// Replica clock when the frontier last advanced; a higher slot
    /// deciding while this sits still for a full timeout is a pipeline
    /// stall (auto-dumped to the flight recorder once per stall).
    frontier_since: u64,
    /// Whether the current stall already dumped the flight ring.
    stall_dumped: bool,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("node", &self.cfg.node)
            .field("regency", &self.regency)
            .field("next_cid", &self.next_cid)
            .field("pending", &self.sessions.queued())
            .field("syncing", &self.syncing)
            .finish()
    }
}

impl Replica {
    /// Creates a replica at regency 0, instance 1.
    pub fn new(cfg: Config) -> Replica {
        let timeout = cfg.request_timeout_ms;
        let n = cfg.quorums.n();
        Replica {
            insts: BTreeMap::new(),
            cfg,
            regency: 0,
            next_cid: 1,
            sessions: Sessions::default(),
            recent_decisions: VecDeque::new(),
            now_ms: 0,
            oldest_pending_since: None,
            forwarded: false,
            timeout_ms: timeout,
            stop_votes: BTreeMap::new(),
            stop_sent_for: 0,
            syncing: false,
            sync_started_at: 0,
            collect: HashMap::new(),
            pending_sync: None,
            future: BTreeMap::new(),
            fetching_value: false,
            fetch_started_at: 0,
            sync_buffer: Vec::new(),
            early_stopdata: Vec::new(),
            metrics: Metrics::default(),
            obs: None,
            flight: None,
            health: StragglerDetector::new(n),
            health_obs: None,
            recent_proposed_at: VecDeque::new(),
            frontier_since: 0,
            stall_dumped: false,
        }
    }

    /// Attaches per-phase histograms and event counters (usually
    /// resolved from the owning node's registry). Without this the
    /// replica keeps only the plain [`Metrics`] counters.
    pub fn attach_obs(&mut self, obs: ReplicaObs) {
        self.obs = Some(obs);
    }

    /// Attaches a flight recorder: subsequent protocol steps record
    /// trace events into it, and anomalies (regency change, tentative
    /// rollback) snapshot the ring. Event timestamps use the replica's
    /// own `now_ms` clock (µs-scaled), so simulated runs stay
    /// deterministic.
    pub fn attach_flight(&mut self, flight: Arc<FlightRecorder>) {
        self.flight = Some(flight);
    }

    /// Attaches metric handles for the slow-replica health detector.
    pub fn attach_health_obs(&mut self, obs: HealthObs) {
        self.health_obs = Some(obs);
    }

    /// The slow-replica health detector's current view.
    pub fn health(&self) -> &StragglerDetector {
        &self.health
    }

    /// Records a flight event stamped with replica time (ms → µs).
    #[inline]
    fn flight_record(&self, kind: EventKind, a: u64, b: u64, c: u64) {
        if let Some(flight) = &self.flight {
            flight.record(self.now_ms * 1000, kind, a, b, c);
        }
    }

    /// Feeds one vote-arrival lag into the health detector, mirroring
    /// the outcome into metrics and the flight recorder.
    fn observe_vote_lag(&mut self, peer: NodeId, lag_us: u64) {
        let transition = self.health.observe(peer.as_usize(), lag_us);
        if let Some(obs) = &self.health_obs {
            obs.vote_lag_us.record(lag_us);
            if let Some(ewma) = self.health.peer_lag_us(peer.as_usize()) {
                if let Some(gauge) = obs.peer_lag_us.get(peer.as_usize()) {
                    gauge.set(ewma as i64);
                }
            }
            if let Some(ev) = transition {
                if ev.suspected {
                    obs.suspicions.inc();
                }
                obs.suspected_peers
                    .set(self.health.suspected_peers().len() as i64);
            }
        }
        if let Some(ev) = transition {
            if ev.suspected {
                hlf_obs::info!(
                    "replica {} suspects peer {} as slow (ewma {}us vs median {}us)",
                    self.cfg.node.as_usize(),
                    ev.peer,
                    ev.ewma_us,
                    ev.median_us
                );
                self.flight_record(
                    EventKind::Suspect,
                    ev.peer as u64,
                    ev.ewma_us,
                    ev.median_us,
                );
            }
        }
    }

    /// Every replica's public key, indexed by node id, pinned for
    /// repeated verification.
    pub fn keys(&self) -> &[PinnedKey] {
        &self.cfg.keys
    }

    /// This replica's id.
    pub fn node(&self) -> NodeId {
        self.cfg.node
    }

    /// Current regency.
    pub fn regency(&self) -> u32 {
        self.regency
    }

    /// The leader of regency `r` is replica `r mod n`.
    pub fn leader_of(&self, regency: u32) -> NodeId {
        NodeId(regency % self.cfg.quorums.n() as u32)
    }

    /// Current leader.
    pub fn leader(&self) -> NodeId {
        self.leader_of(self.regency)
    }

    /// Returns `true` if this replica currently leads.
    pub fn is_leader(&self) -> bool {
        self.leader() == self.cfg.node
    }

    /// The instance currently being agreed on.
    pub fn next_cid(&self) -> u64 {
        self.next_cid
    }

    /// Number of requests waiting to be ordered.
    pub fn pending_len(&self) -> usize {
        self.sessions.queued()
    }

    /// Whether request `(client, seq)` has executed here (its client's
    /// session window marks it).
    pub fn was_executed(&self, id: &(ClientId, u64)) -> bool {
        self.sessions.window(id.0).is_executed(id.1)
    }

    /// The executed half of every session, as of the last commit.
    pub fn executed(&self) -> Executed {
        self.sessions.executed()
    }

    /// Counter snapshot.
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// Returns `true` while a synchronization phase is in progress.
    pub fn is_syncing(&self) -> bool {
        self.syncing
    }

    /// Window slots currently holding an installed proposal.
    pub fn window_occupancy(&self) -> usize {
        self.insts.values().filter(|i| i.proposal.is_some()).count()
    }

    // ------------------------------------------------------------------
    // Window bookkeeping
    // ------------------------------------------------------------------

    /// One past the highest slot the window admits.
    fn window_end(&self) -> u64 {
        self.next_cid + self.cfg.pipeline_depth as u64
    }

    /// Epoch a vote for `cid` must carry: the slot's live epoch, or the
    /// current regency for a slot with no state yet.
    fn slot_epoch(&self, cid: u64) -> u32 {
        self.insts.get(&cid).map_or(self.regency, |i| i.epoch)
    }

    /// The live slot for `cid`, created lazily at the current regency.
    fn inst_mut(&mut self, cid: u64) -> &mut Instance {
        let regency = self.regency;
        self.insts.entry(cid).or_insert_with(|| Instance::new(regency))
    }

    /// Checks the sessions' in-flight counts against the live slots'
    /// proposals (debug builds only: this is the O(window) scan the
    /// counts replace).
    fn debug_check_in_flight(&self) {
        if cfg!(debug_assertions) {
            let mut expect: HashMap<(ClientId, u64), u32> = HashMap::new();
            for (batch, _) in self.insts.values().filter_map(|i| i.proposal.as_ref()) {
                for request in &batch.requests {
                    *expect.entry(request.id()).or_insert(0) += 1;
                }
            }
            debug_assert_eq!(self.sessions.in_flight_marks(), expect, "in-flight counts out of step");
        }
    }

    /// Resets slot `cid` to `regency`, dropping its proposal from
    /// flight.
    fn bump_slot(&mut self, cid: u64, regency: u32) {
        let slot = self.inst_mut(cid);
        let dropped = slot.proposal.take();
        slot.bump_epoch(regency);
        if let Some((batch, _)) = dropped {
            self.sessions.unmark(&batch);
        }
    }

    /// Resets every live slot to `regency`: no proposal survives, so
    /// nothing is in flight.
    fn bump_all_slots(&mut self, regency: u32) {
        let cids: Vec<u64> = self.insts.keys().copied().collect();
        for cid in cids {
            self.bump_slot(cid, regency);
        }
    }

    /// Mirrors window occupancy into the pipeline gauge.
    fn update_window_gauge(&self) {
        if let Some(obs) = &self.obs {
            obs.pipeline_window.set(self.window_occupancy() as i64);
        }
    }

    // ------------------------------------------------------------------
    // Inputs
    // ------------------------------------------------------------------

    /// Advances the replica by one input at time `now_ms` (any monotonic
    /// millisecond clock), appending the effects to `actions`.
    pub fn step(&mut self, now_ms: u64, input: Input, actions: &mut Vec<Action>) {
        self.now_ms = self.now_ms.max(now_ms);
        match input {
            Input::Requests(requests) => self.enqueue_requests(requests, actions),
            Input::Message(from, msg) => self.handle(from, msg, actions),
            Input::Tick => self.tick(actions),
            Input::InstallState(last_decided, executed) => {
                self.resume_after(last_decided, executed, actions)
            }
        }
    }

    fn tick(&mut self, actions: &mut Vec<Action>) {
        // Retry an outstanding value fetch whose replies were lost.
        if self.fetching_value
            && self.now_ms.saturating_sub(self.fetch_started_at) > self.timeout_ms
        {
            self.fetching_value = false;
            self.maybe_fetch_gap(actions);
        }
        if self.syncing {
            if self.now_ms.saturating_sub(self.sync_started_at) > self.timeout_ms {
                self.request_regency_change(self.regency + 1, actions);
                self.sync_started_at = self.now_ms;
            }
            return;
        }
        // Pipeline stall: a higher slot already decided while the
        // frontier sat unresolved for a full timeout. Snapshot the
        // flight ring once per stall so the blockage is diagnosable.
        if !self.stall_dumped
            && self.now_ms.saturating_sub(self.frontier_since) > self.timeout_ms
            && self
                .insts
                .range(self.next_cid + 1..)
                .any(|(_, slot)| slot.decided.is_some())
        {
            self.stall_dumped = true;
            hlf_obs::info!(
                "replica {} pipeline stalled at cid {} (higher slot decided)",
                self.cfg.node.as_usize(),
                self.next_cid
            );
            if let Some(flight) = &self.flight {
                flight.anomaly_at(self.now_ms * 1000, "pipeline_stall");
            }
        }
        if let Some(t0) = self.oldest_pending_since {
            let age = self.now_ms.saturating_sub(t0);
            if age > self.timeout_ms && !self.forwarded {
                // Stage 1: forward pending requests to the leader in case
                // the client never reached it.
                self.forwarded = true;
                if !self.is_leader() {
                    let requests = self.sessions.unproposed(self.cfg.batch_max);
                    actions.push(Action::Send(self.leader(), ConsensusMsg::Forward { requests }));
                }
            }
            if age > 2 * self.timeout_ms {
                // Stage 2: demand a leader change.
                self.request_regency_change(self.regency + 1, actions);
                self.oldest_pending_since = Some(self.now_ms);
                self.forwarded = false;
            }
        }
    }

    /// [`Input::InstallState`]: the replica resumes at `last_decided + 1`
    /// with `executed` as its sessions' executed half.
    fn resume_after(&mut self, last_decided: u64, executed: Executed, actions: &mut Vec<Action>) {
        if last_decided < self.next_cid {
            return;
        }
        self.next_cid = last_decided + 1;
        self.bump_all_slots(self.regency);
        self.insts.clear();
        self.sessions.install(executed);
        if self.sessions.queued() == 0 {
            self.oldest_pending_since = None;
        }
        self.fetching_value = false;
        self.frontier_since = self.now_ms;
        self.stall_dumped = false;
        self.update_window_gauge();
        if let Some((regency, cid, batch, rebinds)) = self.pending_sync.take() {
            if regency == self.regency && cid == self.next_cid {
                self.adopt_window(cid, batch, rebinds, actions);
            }
        }
        self.drain_future(actions);
        self.replay_sync_buffer(actions);
    }

    // ------------------------------------------------------------------
    // Request pool
    // ------------------------------------------------------------------

    /// Queues every request, then proposes once.
    fn enqueue_requests(&mut self, requests: Vec<Request>, actions: &mut Vec<Action>) {
        if self.sessions.enqueue(requests, self.cfg.max_pending) > 0 {
            if let Some(obs) = &self.obs {
                obs.pending_requests.set(self.sessions.queued() as i64);
            }
            if self.oldest_pending_since.is_none() {
                self.oldest_pending_since = Some(self.now_ms);
            }
        }
        self.try_propose(actions);
    }

    // ------------------------------------------------------------------
    // Proposing
    // ------------------------------------------------------------------

    /// Fills the window in slot order: the leader opens slot `s + 1`
    /// while slot `s` is still in its WRITE phase, as long as
    /// unproposed requests remain.
    fn try_propose(&mut self, actions: &mut Vec<Action>) {
        if !self.is_leader() || self.syncing {
            return;
        }
        loop {
            let Some(cid) = (self.next_cid..self.window_end())
                .find(|cid| self.insts.get(cid).is_none_or(|i| i.proposal.is_none()))
            else {
                return; // window full
            };
            if self.sessions.queued() == 0 {
                return;
            }
            let batch = self.build_batch();
            if batch.is_empty() {
                return; // everything pending is already in flight
            }
            let msg = ConsensusMsg::Propose {
                cid,
                epoch: self.regency,
                batch,
            };
            actions.push(Action::Broadcast(msg.clone()));
            self.handle(self.cfg.node, msg, actions);
            if cid >= self.next_cid && self.insts.get(&cid).is_none_or(|i| i.proposal.is_none()) {
                return; // own proposal not installed; avoid spinning
            }
        }
    }

    /// Queued requests no live slot carries yet, round-robin across
    /// clients, up to the batch caps.
    fn build_batch(&mut self) -> Batch {
        self.debug_check_in_flight();
        let ahead = self.cfg.propose_ahead();
        Batch::new(self.sessions.build_batch(self.cfg.batch_max, ahead, self.cfg.max_batch_bytes))
    }

    // ------------------------------------------------------------------
    // Message dispatch
    // ------------------------------------------------------------------

    fn handle(&mut self, from: NodeId, msg: ConsensusMsg, actions: &mut Vec<Action>) {
        match msg {
            ConsensusMsg::Propose { cid, epoch, batch } => {
                self.handle_propose(from, cid, epoch, batch, actions)
            }
            ConsensusMsg::Write(vote) => self.handle_write(from, vote, actions),
            ConsensusMsg::Accept(vote) => self.handle_accept(from, vote, actions),
            ConsensusMsg::Stop { regency } => self.handle_stop(from, regency, actions),
            ConsensusMsg::StopData(sd) => self.handle_stop_data(from, sd, actions),
            ConsensusMsg::Sync {
                regency,
                collect,
                cid,
                batch,
                rebinds,
            } => self.handle_sync(from, regency, collect, cid, batch, rebinds, actions),
            ConsensusMsg::Forward { requests } => self.enqueue_requests(requests, actions),
            ConsensusMsg::ValueRequest { cid } => self.handle_value_request(from, cid, actions),
            ConsensusMsg::ValueReply { cid, batch, proof } => {
                self.handle_value_reply(cid, batch, proof, actions)
            }
        }
    }

    /// Buffers a current-instance agreement message that cannot be
    /// processed yet (a synchronization phase is running, or the vote
    /// belongs to a newer epoch we have not installed).
    fn buffer_for_after_sync(&mut self, from: NodeId, msg: ConsensusMsg) {
        if self.sync_buffer.len() < 4 * self.cfg.quorums.n() * 4 {
            self.sync_buffer.push((from, msg));
        }
    }

    /// Replays messages buffered during a synchronization phase.
    fn replay_sync_buffer(&mut self, actions: &mut Vec<Action>) {
        if self.sync_buffer.is_empty() || self.syncing {
            return;
        }
        let buffered = std::mem::take(&mut self.sync_buffer);
        for (from, msg) in buffered {
            self.handle(from, msg, actions);
        }
    }

    /// Buffers a message beyond the live window; triggers value fetch
    /// if enough distinct peers are demonstrably ahead.
    fn buffer_future(&mut self, from: NodeId, msg: ConsensusMsg, cid: u64, actions: &mut Vec<Action>) {
        if cid > self.next_cid + FUTURE_HORIZON {
            return;
        }
        self.future.entry(cid).or_default().push((from, msg));
        self.maybe_fetch_gap(actions);
    }

    /// Starts (or continues) fetching the current instance's decided
    /// value when at least `f + 1` distinct peers are observably ahead
    /// of us — at least one of them is correct and has the decision.
    fn maybe_fetch_gap(&mut self, actions: &mut Vec<Action>) {
        if self.fetching_value {
            return;
        }
        let ahead: HashSet<NodeId> = self
            .future
            .iter()
            .filter(|(&cid, _)| cid > self.next_cid)
            .flat_map(|(_, msgs)| msgs.iter().map(|(n, _)| *n))
            .collect();
        if ahead.len() >= self.cfg.quorums.one_correct_count() {
            self.fetching_value = true;
            self.fetch_started_at = self.now_ms;
            let cid = self.next_cid;
            for node in ahead {
                actions.push(Action::Send(node, ConsensusMsg::ValueRequest { cid }));
            }
        }
    }

    fn drain_future(&mut self, actions: &mut Vec<Action>) {
        // Process buffered messages for every slot the window now
        // admits; commits widen the window further, so loop.
        self.future.retain(|&cid, _| cid >= self.next_cid);
        loop {
            let Some((&cid, _)) = self.future.range(self.next_cid..self.window_end()).next()
            else {
                return;
            };
            let Some(msgs) = self.future.remove(&cid) else {
                return;
            };
            for (from, msg) in msgs {
                self.handle(from, msg, actions);
            }
        }
    }

    // ------------------------------------------------------------------
    // Agreement rounds
    // ------------------------------------------------------------------

    fn handle_propose(
        &mut self,
        from: NodeId,
        cid: u64,
        epoch: u32,
        batch: Batch,
        actions: &mut Vec<Action>,
    ) {
        if cid >= self.window_end() {
            self.buffer_future(from, ConsensusMsg::Propose { cid, epoch, batch }, cid, actions);
            return;
        }
        if cid < self.next_cid {
            return;
        }
        if self.syncing || epoch > self.slot_epoch(cid) {
            self.buffer_for_after_sync(from, ConsensusMsg::Propose { cid, epoch, batch });
            return;
        }
        if epoch != self.regency
            || from != self.leader()
            || self.insts.get(&cid).is_some_and(|i| i.proposal.is_some())
        {
            return;
        }
        // Validate the batch: non-empty (normal path), within limits,
        // each request fresh in its client's window, and disjoint from
        // every other live slot (a leader must not order a request twice
        // inside the window).
        self.debug_check_in_flight();
        if batch.is_empty()
            || batch.len() > self.cfg.batch_max
            || batch.payload_bytes() > self.cfg.max_batch_bytes
            || !self.sessions.proposable(&batch)
        {
            return;
        }
        self.accept_proposal(cid, batch, actions);
    }

    /// Installs a batch as slot `cid`'s proposal and casts our WRITE.
    fn accept_proposal(&mut self, cid: u64, batch: Batch, actions: &mut Vec<Action>) {
        let hash = batch.digest();
        // A conflicting tentative delivery (the slot re-bound to a
        // different value) is undone before the slot re-runs, and every
        // tentative slot above cascades with it.
        if self
            .insts
            .get(&cid)
            .is_some_and(|i| i.tentative.is_some() && i.tentative != Some(hash))
        {
            self.rollback_from(cid, actions);
        }
        let now = self.now_ms;
        self.sessions.mark(&batch);
        let (epoch, replaced) = {
            let slot = self.inst_mut(cid);
            let replaced = slot.proposal.replace((batch.clone(), hash));
            slot.proposed_at = Some(now);
            (slot.epoch, replaced)
        };
        if let Some((replaced, _)) = replaced {
            self.sessions.unmark(&replaced);
        }
        self.recent_proposed_at.push_back((cid, now));
        if self.recent_proposed_at.len() > 128 {
            self.recent_proposed_at.pop_front();
        }
        if self.flight.is_some() {
            self.flight_record(
                EventKind::Propose,
                cid,
                self.regency as u64,
                batch.len() as u64,
            );
            // Link every transaction in the batch to this instance so
            // the offline merger can attribute consensus phases to
            // individual traces.
            for (pos, request) in batch.requests.iter().enumerate() {
                self.flight_record(
                    EventKind::TxInBatch,
                    hlf_obs::trace_id(request.client.0, request.seq),
                    cid,
                    pos as u64,
                );
            }
        }

        let vote = Vote::sign(
            &self.cfg.signing_key,
            VotePhase::Write,
            self.cfg.node,
            cid,
            epoch,
            hash,
        );
        let slot = self.inst_mut(cid);
        slot.write_sent = true;
        slot.last_write = Some((epoch, hash));
        slot.last_write_value = Some(batch);
        slot.last_write_cert = vec![vote.clone()];
        self.update_window_gauge();

        actions.push(Action::Broadcast(ConsensusMsg::Write(vote.clone())));
        self.record_write(vote, actions);
        // Votes can outrun the proposal: the slot may already hold an
        // accept quorum whose value just became locally known.
        self.try_decide(cid, actions);
    }

    fn handle_write(&mut self, from: NodeId, vote: Vote, actions: &mut Vec<Action>) {
        if vote.cid >= self.window_end() {
            self.buffer_future(from, ConsensusMsg::Write(vote.clone()), vote.cid, actions);
            return;
        }
        if vote.cid < self.next_cid {
            // The instance already closed without this vote — the
            // defining symptom of a straggler. Feed its arrival lag to
            // the health detector before discarding it.
            if vote.phase == VotePhase::Write && vote.node == from {
                self.observe_late_write(from, &vote);
            }
            return;
        }
        if vote.phase != VotePhase::Write || vote.node != from {
            return;
        }
        if self.syncing || vote.epoch > self.slot_epoch(vote.cid) {
            self.buffer_for_after_sync(from, ConsensusMsg::Write(vote));
            return;
        }
        if vote.epoch != self.slot_epoch(vote.cid) {
            return;
        }
        if from != self.cfg.node {
            let Some(key) = self.cfg.keys.get(from.as_usize()) else {
                return;
            };
            if !vote.verify(key) {
                return;
            }
        }
        self.record_ooo_depth(&vote);
        self.record_write(vote, actions);
    }

    /// Records how far above the frontier an accepted vote landed.
    fn record_ooo_depth(&self, vote: &Vote) {
        if vote.cid > self.next_cid {
            if let Some(obs) = &self.obs {
                obs.pipeline_ooo_votes.record(vote.cid - self.next_cid);
            }
        }
    }

    /// Measures a WRITE vote that arrived after its instance decided,
    /// against that instance's recorded propose time. Signatures are
    /// still checked so an attacker cannot smear a healthy peer.
    fn observe_late_write(&mut self, from: NodeId, vote: &Vote) {
        if from == self.cfg.node {
            return;
        }
        let Some(&(_, t0)) = self
            .recent_proposed_at
            .iter()
            .rev()
            .find(|&&(cid, _)| cid == vote.cid)
        else {
            return;
        };
        let Some(key) = self.cfg.keys.get(from.as_usize()) else {
            return;
        };
        if !vote.verify(key) {
            return;
        }
        let lag_us = self.now_ms.saturating_sub(t0) * 1000;
        self.flight_record(EventKind::WriteVote, vote.cid, vote.node.0 as u64, lag_us);
        self.observe_vote_lag(from, lag_us);
    }

    fn record_write(&mut self, vote: Vote, actions: &mut Vec<Action>) {
        let cid = vote.cid;
        if vote.node != self.cfg.node {
            // Attribute the lag to the vote's *own* slot: with several
            // slots live, a vote for an older slot measured against a
            // newer slot's proposal time would smear a healthy peer.
            if let Some(t0) = self.insts.get(&cid).and_then(|i| i.proposed_at) {
                let lag_us = self.now_ms.saturating_sub(t0) * 1000;
                self.flight_record(EventKind::WriteVote, cid, vote.node.0 as u64, lag_us);
                self.observe_vote_lag(vote.node, lag_us);
            }
        }
        let slot = self.inst_mut(cid);
        if !slot.writes.contains(vote.node) {
            slot.writes.insert(vote);
        }
        self.check_write_quorum(cid, actions);
    }

    fn check_write_quorum(&mut self, cid: u64, actions: &mut Vec<Action>) {
        let Some(slot) = self.insts.get(&cid) else {
            return;
        };
        let Some((_, hash)) = slot.proposal else {
            return;
        };
        let cert = slot.writes.votes_for(hash);
        if !self.cfg.quorums.is_quorum(cert.iter().map(|v| v.node)) {
            return;
        }
        let epoch = slot.epoch;
        let proposed_at = slot.proposed_at;
        let accept_sent = slot.accept_sent;
        let cert_len = cert.len();
        let cert_signers = signer_bitmap(cert.iter().map(|v| v.node));
        // Snapshot the certificate for a possible STOP-DATA.
        self.inst_mut(cid).last_write_cert = cert;

        if !accept_sent {
            let now = self.now_ms;
            {
                let slot = self.inst_mut(cid);
                slot.accept_sent = true;
                // The WRITE quorum just formed: close the WRITE phase.
                slot.write_quorum_at = Some(now);
            }
            if let Some(obs) = &self.obs {
                if let Some(t0) = proposed_at {
                    obs.write_phase_ms.record(now.saturating_sub(t0));
                }
                obs.write_quorum_votes.record(cert_len as u64);
            }
            self.flight_record(
                EventKind::WriteQuorum,
                cid,
                cert_len as u64,
                proposed_at.map_or(0, |t0| now.saturating_sub(t0) * 1000),
            );
            // Value identity + distinct signers for the cluster auditor's
            // certified-value-preservation and quorum-validity checks.
            self.flight_record(EventKind::WriteCert, cid, digest64(&hash), cert_signers);
            let vote = Vote::sign(
                &self.cfg.signing_key,
                VotePhase::Accept,
                self.cfg.node,
                cid,
                epoch,
                hash,
            );
            actions.push(Action::Broadcast(ConsensusMsg::Accept(vote.clone())));
            self.record_accept(vote, actions);
        }

        self.release_tentatives(actions);
    }

    /// WHEAT tentative deliveries release strictly in slot order: slot
    /// `s` is delivered only once every lower live slot has been. Out
    /// of order tentative execution would corrupt the application's
    /// sequential state.
    fn release_tentatives(&mut self, actions: &mut Vec<Action>) {
        if !self.cfg.tentative_execution {
            return;
        }
        for cid in self.next_cid..self.window_end() {
            let Some(slot) = self.insts.get(&cid) else {
                break;
            };
            if slot.tentative.is_some() {
                continue; // already delivered; keep scanning upward
            }
            if !slot.accept_sent {
                break; // write quorum not formed yet: stop, stay in order
            }
            let Some((batch, hash)) = slot.proposal.clone() else {
                break;
            };
            let skipped = self.tentative_skips(cid, &batch);
            self.inst_mut(cid).tentative = Some(hash);
            if let Some(obs) = &self.obs {
                obs.tentative_deliveries.inc();
            }
            self.flight_record(EventKind::TentativeDeliver, cid, 0, 0);
            self.flight_record(EventKind::TentativeHash, cid, digest64(&hash), 0);
            hlf_obs::trace!(
                "replica {} tentatively delivers cid {}",
                self.cfg.node.as_usize(),
                cid
            );
            actions.push(Action::DeliverTentative { cid, batch, skipped });
        }
    }

    /// The positions of slot `cid`'s tentative batch that its commit will
    /// skip, provided every lower tentative slot commits as delivered:
    /// requests executed already, or carried by a lower live slot or
    /// earlier in the batch. A request only this slot carries and that
    /// is fresh in its window is decided at once; any other replays the
    /// lower slots into a copy of its client's window.
    fn tentative_skips(&self, cid: u64, batch: &Batch) -> Vec<usize> {
        let mut skipped = Vec::new();
        for (pos, request) in batch.requests.iter().enumerate() {
            let window = self.sessions.window(request.client);
            if self.sessions.in_flight(request.client, request.seq) <= 1 && window.is_fresh(request.seq) {
                continue;
            }
            let mut window = window.clone();
            let lower = self
                .insts
                .range(self.next_cid..cid)
                .filter_map(|(_, slot)| slot.proposal.as_ref())
                .flat_map(|(lower, _)| lower.requests.iter());
            for earlier in lower.chain(batch.requests.iter().take(pos)) {
                if earlier.client == request.client {
                    window.execute(earlier.seq);
                }
            }
            if !window.is_fresh(request.seq) {
                skipped.push(pos);
            }
        }
        skipped
    }

    fn handle_accept(&mut self, from: NodeId, vote: Vote, actions: &mut Vec<Action>) {
        if vote.cid >= self.window_end() {
            self.buffer_future(from, ConsensusMsg::Accept(vote.clone()), vote.cid, actions);
            return;
        }
        if vote.cid < self.next_cid || vote.phase != VotePhase::Accept || vote.node != from {
            return;
        }
        if self.syncing || vote.epoch > self.slot_epoch(vote.cid) {
            self.buffer_for_after_sync(from, ConsensusMsg::Accept(vote));
            return;
        }
        if vote.epoch != self.slot_epoch(vote.cid) {
            return;
        }
        if from != self.cfg.node {
            let Some(key) = self.cfg.keys.get(from.as_usize()) else {
                return;
            };
            if !vote.verify(key) {
                return;
            }
        }
        self.record_ooo_depth(&vote);
        self.record_accept(vote, actions);
    }

    fn record_accept(&mut self, vote: Vote, actions: &mut Vec<Action>) {
        let cid = vote.cid;
        if vote.node != self.cfg.node {
            // Measure ACCEPT lag from the slot's own WRITE quorum (when
            // known) so both phases contribute ~one-message-delay
            // samples attributed to the right slot.
            let t0 = self
                .insts
                .get(&cid)
                .and_then(|i| i.write_quorum_at.or(i.proposed_at));
            if let Some(t0) = t0 {
                let lag_us = self.now_ms.saturating_sub(t0) * 1000;
                self.flight_record(EventKind::AcceptVote, cid, vote.node.0 as u64, lag_us);
                self.observe_vote_lag(vote.node, lag_us);
            }
        }
        let slot = self.inst_mut(cid);
        if !slot.accepts.contains(vote.node) {
            slot.accepts.insert(vote);
        }
        self.try_decide(cid, actions);
    }

    fn try_decide(&mut self, cid: u64, actions: &mut Vec<Action>) {
        let Some(slot) = self.insts.get(&cid) else {
            return;
        };
        if slot.decided.is_none() {
            // Find a hash with an accept quorum. Usually this is the
            // proposed hash, but a replica that missed the PROPOSE can
            // still learn the decision digest this way.
            let Some(hash) = slot.accepts.quorum_hash(&self.cfg.quorums) else {
                return;
            };
            let proof = DecisionProof {
                cid,
                hash,
                votes: slot.accepts.votes_for(hash),
            };
            match &slot.proposal {
                Some((batch, proposed)) if *proposed == hash => {
                    let batch = batch.clone();
                    self.inst_mut(cid).decided = Some((batch, proof));
                }
                _ => {
                    // Decided digest known, value missing: fetch once
                    // the slot reaches the frontier (release order is
                    // strict anyway, so nothing above can commit first).
                    if cid == self.next_cid && !self.fetching_value {
                        self.fetching_value = true;
                        self.fetch_started_at = self.now_ms;
                        for node in self.cfg.quorums.nodes() {
                            if node != self.cfg.node {
                                actions.push(Action::Send(node, ConsensusMsg::ValueRequest { cid }));
                            }
                        }
                    }
                    return;
                }
            }
        }
        self.release_decides(actions);
    }

    /// Commits every decided slot from the frontier upward, in order.
    fn release_decides(&mut self, actions: &mut Vec<Action>) {
        if self.syncing {
            return;
        }
        while self
            .insts
            .get(&self.next_cid)
            .is_some_and(|slot| slot.decided.is_some())
        {
            // `commit` removes the slot; its decision moves out with it.
            let Some((batch, proof)) = self
                .insts
                .get_mut(&self.next_cid)
                .and_then(|slot| slot.decided.take())
            else {
                break;
            };
            self.commit(batch, proof, actions);
        }
        // The new frontier may hold an accept quorum for a value this
        // replica never saw: re-run its decision check to start the
        // fetch it deferred while it sat above the frontier.
        let frontier = self.next_cid;
        let needs_fetch = self.insts.get(&frontier).is_some_and(|slot| {
            slot.decided.is_none() && slot.accepts.quorum_hash(&self.cfg.quorums).is_some()
        });
        if needs_fetch {
            self.try_decide(frontier, actions);
        }
    }

    fn commit(&mut self, batch: Batch, proof: DecisionProof, actions: &mut Vec<Action>) {
        let cid = self.next_cid;
        let slot = self.insts.remove(&cid);
        // The decided batch is usually the slot's own proposal, whose
        // in-flight counts drop as it executes; any other proposal the
        // slot held drops separately.
        let proposal = slot.as_ref().and_then(|s| s.proposal.as_ref());
        let proposed = proposal.is_some_and(|(_, hash)| *hash == proof.hash);
        if let Some((other, _)) = proposal.filter(|_| !proposed) {
            self.sessions.unmark(other);
        }
        let skipped = self.sessions.commit(&batch, proposed);
        let proposed_at = slot.as_ref().and_then(|s| s.proposed_at);
        let write_quorum_at = slot.as_ref().and_then(|s| s.write_quorum_at);
        let checkpoint = cid.is_multiple_of(self.cfg.checkpoint_interval).then(|| self.sessions.executed());
        // Kept past execution, so without the leaf cache.
        self.recent_decisions.push_back((cid, batch.without_leaves(), proof.clone()));
        while self.recent_decisions.len() > RECENT_DECISIONS {
            self.recent_decisions.pop_front();
        }
        self.metrics.decided_instances += 1;
        self.metrics.delivered_requests += batch.len() as u64;
        if let Some(obs) = &self.obs {
            obs.decided.inc();
            obs.pending_requests.set(self.sessions.queued() as i64);
            obs.accept_quorum_votes.record(proof.votes.len() as u64);
            if let Some(t0) = write_quorum_at {
                obs.accept_phase_ms.record(self.now_ms.saturating_sub(t0));
            }
            if let Some(t0) = proposed_at {
                obs.decide_ms.record(self.now_ms.saturating_sub(t0));
            }
        }
        self.flight_record(
            EventKind::Decide,
            cid,
            batch.len() as u64,
            proposed_at.map_or(0, |t0| self.now_ms.saturating_sub(t0) * 1000),
        );
        // Decided value + ACCEPT-quorum signer bitmap for the cluster
        // auditor's agreement and quorum-certificate checks.
        self.flight_record(
            EventKind::DecideHash,
            cid,
            digest64(&proof.hash),
            signer_bitmap(proof.votes.iter().map(|v| v.node)),
        );
        hlf_obs::trace!(
            "replica {} decides cid {} ({} requests)",
            self.cfg.node.as_usize(),
            cid,
            batch.len()
        );

        actions.push(Action::Commit {
            cid,
            batch,
            proof,
            skipped,
            checkpoint,
        });

        // Advance the frontier; higher slots stay live in the window.
        self.next_cid += 1;
        self.frontier_since = self.now_ms;
        self.stall_dumped = false;
        self.fetching_value = false;
        self.timeout_ms = self.cfg.request_timeout_ms;
        self.forwarded = false;
        self.oldest_pending_since = if self.sessions.queued() == 0 {
            None
        } else {
            Some(self.now_ms)
        };
        self.update_window_gauge();

        self.drain_future(actions);
        self.maybe_fetch_gap(actions);
        self.try_propose(actions);
    }

    // ------------------------------------------------------------------
    // Regency change
    // ------------------------------------------------------------------

    fn request_regency_change(&mut self, regency: u32, actions: &mut Vec<Action>) {
        if regency <= self.regency || self.stop_sent_for >= regency {
            return;
        }
        self.stop_sent_for = regency;
        self.timeout_ms = self.timeout_ms.saturating_mul(2);
        actions.push(Action::Broadcast(ConsensusMsg::Stop { regency }));
        self.note_stop_vote(self.cfg.node, regency, actions);
    }

    fn handle_stop(&mut self, from: NodeId, regency: u32, actions: &mut Vec<Action>) {
        if regency <= self.regency || from.as_usize() >= self.cfg.quorums.n() {
            return;
        }
        self.note_stop_vote(from, regency, actions);
    }

    fn note_stop_vote(&mut self, from: NodeId, regency: u32, actions: &mut Vec<Action>) {
        let votes = {
            let set = self.stop_votes.entry(regency).or_default();
            set.insert(from);
            set.len()
        };
        // Amplification: join once f+1 distinct replicas demand the
        // change (at least one of them is correct).
        if votes >= self.cfg.quorums.one_correct_count() && self.stop_sent_for < regency {
            self.stop_sent_for = regency;
            actions.push(Action::Broadcast(ConsensusMsg::Stop { regency }));
            self.note_stop_vote(self.cfg.node, regency, actions);
            return;
        }
        if votes >= self.cfg.quorums.certify_count() && regency > self.regency {
            self.install_regency(regency, actions);
        }
    }

    fn install_regency(&mut self, regency: u32, actions: &mut Vec<Action>) {
        self.regency = regency;
        self.metrics.regency_changes += 1;
        if let Some(obs) = &self.obs {
            obs.regency_changes.inc();
        }
        self.flight_record(
            EventKind::RegencyChange,
            regency as u64,
            self.leader_of(regency).0 as u64,
            0,
        );
        if let Some(flight) = &self.flight {
            // A leader change is the canonical anomaly: snapshot the
            // events that led up to it.
            flight.anomaly_at(self.now_ms * 1000, "regency_change");
        }
        hlf_obs::info!(
            "replica {} installs regency {} (leader {})",
            self.cfg.node.as_usize(),
            regency,
            self.leader_of(regency).as_usize()
        );
        self.syncing = true;
        self.sync_started_at = self.now_ms;
        self.collect.clear();
        self.stop_votes.retain(|&r, _| r > regency);

        let decision = self.recent_decisions.back().map(|(_, _, proof)| proof.clone());
        let quorums = &self.cfg.quorums;
        let quorum_cert = |slot: &Instance| {
            if quorums.is_quorum(slot.last_write_cert.iter().map(|v| v.node)) {
                slot.last_write_cert.clone()
            } else {
                Vec::new()
            }
        };
        let (last_write, last_write_value, write_cert) = match self.insts.get(&self.next_cid) {
            Some(slot) => (slot.last_write, slot.last_write_value.clone(), quorum_cert(slot)),
            None => (None, None, Vec::new()),
        };
        // Report every live slot above the frontier too: a certified
        // write there binds the new regent to re-propose its value, and
        // even an uncertified report can supply the value bytes behind
        // another replica's certificate.
        let extra_slots: Vec<SlotReport> = self
            .insts
            .range(self.next_cid + 1..)
            .filter(|(_, slot)| slot.last_write.is_some())
            .map(|(&cid, slot)| SlotReport {
                cid,
                last_write: slot.last_write,
                value: slot.last_write_value.clone(),
                write_cert: quorum_cert(slot),
            })
            .collect();
        let sd = StopData::sign_with_slots(
            &self.cfg.signing_key,
            self.cfg.node,
            regency,
            self.next_cid,
            last_write,
            last_write_value,
            write_cert,
            extra_slots,
            decision,
        );

        // Pause every live slot's votes; keep sticky write history.
        self.bump_all_slots(regency);

        let leader = self.leader();
        if leader == self.cfg.node {
            self.handle_stop_data(self.cfg.node, sd, actions);
            // Replay STOP-DATA that arrived before we installed this
            // regency.
            let early = std::mem::take(&mut self.early_stopdata);
            for (from, early_sd) in early {
                if early_sd.regency == regency {
                    self.handle_stop_data(from, early_sd, actions);
                } else if early_sd.regency > regency {
                    self.early_stopdata.push((from, early_sd));
                }
            }
        } else {
            actions.push(Action::Send(leader, ConsensusMsg::StopData(sd)));
        }
    }

    fn handle_stop_data(&mut self, from: NodeId, sd: StopData, actions: &mut Vec<Action>) {
        if sd.node != from {
            return;
        }
        // STOP-DATA can outrun the STOP quorum: if it names a regency
        // we have not installed yet and we would lead it, keep it.
        if sd.regency > self.regency && self.leader_of(sd.regency) == self.cfg.node {
            if self.early_stopdata.len() < 4 * self.cfg.quorums.n() {
                self.early_stopdata.push((from, sd));
            }
            return;
        }
        if !self.syncing || sd.regency != self.regency || self.leader() != self.cfg.node {
            return;
        }
        let Some(key) = self.cfg.keys.get(sd.node.as_usize()) else {
            return;
        };
        if !sd.verify_signature(key) {
            return;
        }
        self.collect.entry(sd.node).or_insert(sd);
        if self.collect.len() < self.cfg.quorums.collect_count() {
            return;
        }
        let collect: Vec<StopData> = self.collect.values().cloned().collect();
        let Ok(selection) =
            select_window(&collect, self.regency, &self.cfg.quorums, &self.cfg.keys)
        else {
            return;
        };
        // Re-propose every in-flight slot above the frontier: bound
        // slots verbatim, unbound gaps as empty batches so in-order
        // release can pass them.
        let mut rebinds = Vec::with_capacity(selection.extra.len());
        for (slot_cid, bound) in &selection.extra {
            match bound {
                Some(bound) => match &bound.value {
                    Some(value) => rebinds.push(SlotRebind {
                        cid: *slot_cid,
                        batch: value.clone(),
                    }),
                    // Certified hash without recoverable bytes: wait
                    // for more STOP-DATA or the sync timeout.
                    None => return,
                },
                None => rebinds.push(SlotRebind {
                    cid: *slot_cid,
                    batch: Batch::empty(),
                }),
            }
        }
        let batch = match &selection.bound {
            Some(bound) => match &bound.value {
                Some(batch) => batch.clone(),
                // Bound hash without recoverable bytes: wait for more
                // STOP-DATA (another entry may carry the value) or for
                // the sync timeout to escalate.
                None => return,
            },
            None => {
                // Free choice at the frontier — but never re-order a
                // request that a rebound slot above already carries.
                let mut batch = self.build_batch(); // possibly empty: sync may no-op
                let rebound: HashSet<(ClientId, u64)> = rebinds
                    .iter()
                    .flat_map(|r| r.batch.requests.iter().map(|q| q.id()))
                    .collect();
                if !rebound.is_empty() {
                    batch = Batch::new(
                        batch
                            .requests
                            .iter()
                            .filter(|r| !rebound.contains(&r.id()))
                            .cloned()
                            .collect(),
                    );
                }
                batch
            }
        };
        let msg = ConsensusMsg::Sync {
            regency: self.regency,
            collect,
            cid: selection.cid,
            batch,
            rebinds,
        };
        actions.push(Action::Broadcast(msg.clone()));
        self.handle(self.cfg.node, msg, actions);
    }

    #[allow(clippy::too_many_arguments, reason = "the fields of one SYNC message")]
    fn handle_sync(
        &mut self,
        from: NodeId,
        regency: u32,
        collect: Vec<StopData>,
        cid: u64,
        batch: Batch,
        rebinds: Vec<SlotRebind>,
        actions: &mut Vec<Action>,
    ) {
        if regency < self.regency || from != self.leader_of(regency) {
            return;
        }
        if validate_sync_window(
            &collect,
            regency,
            cid,
            &batch,
            &rebinds,
            &self.cfg.quorums,
            &self.cfg.keys,
        )
        .is_err()
        {
            return;
        }
        if regency > self.regency {
            // We missed the STOP quorum; the validated collect set is
            // itself evidence that the group moved on.
            self.regency = regency;
            self.metrics.regency_changes += 1;
            if let Some(obs) = &self.obs {
                obs.regency_changes.inc();
            }
            self.flight_record(
                EventKind::RegencyChange,
                regency as u64,
                self.leader_of(regency).0 as u64,
                1,
            );
            if let Some(flight) = &self.flight {
                flight.anomaly_at(self.now_ms * 1000, "regency_change");
            }
            hlf_obs::info!(
                "replica {} adopts regency {} from SYNC",
                self.cfg.node.as_usize(),
                regency
            );
            self.bump_all_slots(regency);
            self.stop_votes.retain(|&r, _| r > regency);
        }

        // The synchronization phase is over.
        self.syncing = false;
        self.collect.clear();
        self.sync_started_at = self.now_ms;
        self.forwarded = false;
        if self.oldest_pending_since.is_some() {
            self.oldest_pending_since = Some(self.now_ms);
        }

        match cid.cmp(&self.next_cid) {
            std::cmp::Ordering::Less => {
                // We already decided this instance; nothing to adopt.
            }
            std::cmp::Ordering::Greater => {
                // We are behind: remember the window, ask for state
                // transfer.
                self.pending_sync = Some((regency, cid, batch, rebinds));
                hlf_obs::debug!(
                    "replica {} behind: at cid {} while group syncs cid {}",
                    self.cfg.node.as_usize(),
                    self.next_cid,
                    cid
                );
                actions.push(Action::Behind { target_cid: cid });
            }
            std::cmp::Ordering::Equal => {
                self.adopt_window(cid, batch, rebinds, actions);
            }
        }
        self.replay_sync_buffer(actions);
    }

    /// Adopts a synchronization-phase window: the frontier value plus
    /// every re-proposed in-flight slot above it, ascending. Conflicting
    /// tentative deliveries are rolled back (highest slot first) by
    /// [`Replica::accept_proposal`] as each slot re-binds.
    fn adopt_window(
        &mut self,
        cid: u64,
        batch: Batch,
        rebinds: Vec<SlotRebind>,
        actions: &mut Vec<Action>,
    ) {
        debug_assert_eq!(cid, self.next_cid);
        if !rebinds.is_empty() {
            if let Some(obs) = &self.obs {
                for _ in &rebinds {
                    obs.pipeline_reproposals.inc();
                }
            }
            self.metrics.reproposals += rebinds.len() as u64;
        }
        let mut pairs = Vec::with_capacity(1 + rebinds.len());
        // An empty frontier re-proposal still runs agreement so the
        // group converges on instance numbering.
        pairs.push((cid, batch));
        for rebind in rebinds {
            pairs.push((rebind.cid, rebind.batch));
        }
        for (slot_cid, value) in pairs {
            let regency = self.regency;
            // Audit trail: which value each slot re-binds to under the
            // new regency (certified values must re-appear verbatim).
            self.flight_record(
                EventKind::Rebind,
                slot_cid,
                digest64(&value.digest()),
                regency as u64,
            );
            self.bump_slot(slot_cid, regency);
            self.accept_proposal(slot_cid, value, actions);
        }
    }

    /// Rolls back every tentative delivery at or above `floor`, highest
    /// slot first, so the application's positional undo snapshots unwind
    /// to the state before `floor` executed.
    fn rollback_from(&mut self, floor: u64, actions: &mut Vec<Action>) {
        let cids: Vec<u64> = self
            .insts
            .range(floor..)
            .filter(|(_, slot)| slot.tentative.is_some())
            .map(|(&cid, _)| cid)
            .collect();
        for &cid in cids.iter().rev() {
            self.inst_mut(cid).tentative = None;
            self.metrics.rollbacks += 1;
            if let Some(obs) = &self.obs {
                obs.rollbacks.inc();
            }
            self.flight_record(EventKind::Rollback, cid, 0, 0);
            hlf_obs::debug!(
                "replica {} rolls back tentative cid {} (window re-bound)",
                self.cfg.node.as_usize(),
                cid
            );
            actions.push(Action::Rollback { cid });
        }
        if !cids.is_empty() {
            if let Some(flight) = &self.flight {
                flight.anomaly_at(self.now_ms * 1000, "rollback");
            }
        }
    }

    // ------------------------------------------------------------------
    // Value transfer
    // ------------------------------------------------------------------

    fn handle_value_request(&mut self, from: NodeId, cid: u64, actions: &mut Vec<Action>) {
        if let Some((_, batch, proof)) = self
            .recent_decisions
            .iter()
            .find(|(decided_cid, _, _)| *decided_cid == cid)
        {
            actions.push(Action::Send(
                from,
                ConsensusMsg::ValueReply {
                    cid,
                    batch: batch.clone(),
                    proof: proof.clone(),
                },
            ));
        }
    }

    fn handle_value_reply(
        &mut self,
        cid: u64,
        batch: Batch,
        proof: DecisionProof,
        actions: &mut Vec<Action>,
    ) {
        if cid != self.next_cid {
            return;
        }
        if proof.cid != cid
            || proof.hash != batch.digest()
            || proof.verify(&self.cfg.quorums, &self.cfg.keys).is_err()
        {
            return;
        }
        // A proven decision: adopt it directly. A conflicting tentative
        // delivery (and every tentative slot stacked above it) unwinds
        // first.
        if self
            .insts
            .get(&cid)
            .is_some_and(|i| i.tentative.is_some() && i.tentative != Some(proof.hash))
        {
            self.rollback_from(cid, actions);
        }
        self.commit(batch, proof, actions);
        self.release_decides(actions);
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop, reason = "index doubles as the node id in tests")]
mod tests {
    use super::*;
    use crate::session::WINDOW;
    use crate::testing::{step, test_keys, Cluster, Observed};
    use hlf_wire::Bytes;

    fn make_replicas(n: usize, f: usize) -> Vec<Replica> {
        let (signing, keys) = test_keys(n);
        (0..n)
            .map(|i| {
                Replica::new(Config::new(
                    NodeId(i as u32),
                    QuorumSystem::classic(n, f).unwrap(),
                    keys.clone(),
                    signing[i].clone(),
                ))
            })
            .collect()
    }

    /// The signing keys of `make_replicas(4, _)`.
    fn signing_keys() -> Vec<SigningKey> {
        test_keys(4).0
    }

    /// `replica`'s actions on `msg` from peer `from`, at time 0.
    fn deliver(replica: &mut Replica, from: u32, msg: ConsensusMsg) -> Vec<Action> {
        step(replica, 0, Input::Message(NodeId(from), msg))
    }

    fn req(seq: u64) -> Request {
        Request::new(ClientId(9), seq, Bytes::from(vec![seq as u8; 16]))
    }

    #[test]
    fn leader_proposes_on_request() {
        let mut replicas = make_replicas(4, 1);
        let actions = step(&mut replicas[0], 0, Input::Requests(vec![req(1)]));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Broadcast(ConsensusMsg::Propose { cid: 1, epoch: 0, .. })
        )));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Broadcast(ConsensusMsg::Write(_)))));
    }

    #[test]
    fn non_leader_does_not_propose() {
        let mut replicas = make_replicas(4, 1);
        let actions = step(&mut replicas[1], 0, Input::Requests(vec![req(1)]));
        assert!(actions.is_empty());
        assert_eq!(replicas[1].pending_len(), 1);
    }

    #[test]
    fn duplicate_requests_are_deduplicated() {
        let mut replicas = make_replicas(4, 1);
        step(&mut replicas[1], 0, Input::Requests(vec![req(1)]));
        step(&mut replicas[1], 0, Input::Requests(vec![req(1)]));
        assert_eq!(replicas[1].pending_len(), 1);
    }

    #[test]
    fn full_happy_path_four_replicas() {
        // Every replica gets the request (clients broadcast) and commits
        // it as instance 1, with nothing else on the way.
        let mut cluster = Cluster::classic(4, 1);
        cluster.submit_to_all(req(1));
        cluster.run_to_quiescence();
        for i in 0..4 {
            let commit = Observed::Commit(1, Batch::new(vec![req(1)]));
            assert_eq!(cluster.observed(i), [commit], "replica {i}");
            assert_eq!(cluster.replica(i).next_cid(), 2);
        }
    }

    #[test]
    fn write_votes_with_wrong_epoch_ignored() {
        let mut replicas = make_replicas(4, 1);
        let signing = signing_keys().remove(1);
        let vote = Vote::sign(
            &signing,
            VotePhase::Write,
            NodeId(1),
            1,
            5, // wrong epoch: regency is 0
            Batch::empty().digest(),
        );
        let actions = deliver(&mut replicas[0], 1, ConsensusMsg::Write(vote));
        assert!(actions.is_empty());
    }

    #[test]
    fn forged_vote_signature_rejected() {
        let mut replicas = make_replicas(4, 1);
        let wrong_key = SigningKey::from_seed(b"attacker");
        let vote = Vote::sign(
            &wrong_key,
            VotePhase::Write,
            NodeId(1),
            1,
            0,
            Batch::empty().digest(),
        );
        let actions = deliver(&mut replicas[0], 1, ConsensusMsg::Write(vote));
        assert!(actions.is_empty());
    }

    #[test]
    fn vote_relayed_by_wrong_sender_rejected() {
        let mut replicas = make_replicas(4, 1);
        let signing = signing_keys().remove(1);
        let vote = Vote::sign(
            &signing,
            VotePhase::Write,
            NodeId(1),
            1,
            0,
            Batch::empty().digest(),
        );
        // Node 2 replays node 1's vote: `vote.node != from`.
        let actions = deliver(&mut replicas[0], 2, ConsensusMsg::Write(vote));
        assert!(actions.is_empty());
    }

    #[test]
    fn timeout_escalates_to_stop() {
        let mut replicas = make_replicas(4, 1);
        // Node 1 (not leader) has pending requests that never decide.
        step(&mut replicas[1], 0, Input::Requests(vec![req(1), req(2), req(3)]));
        // Stage 1 at t > timeout: one message forwards them all, in order.
        let mut actions = step(&mut replicas[1], 2_500, Input::Tick);
        assert_eq!(actions.len(), 1, "one Forward, whatever is pending: {actions:?}");
        let Some(Action::Send(NodeId(0), ConsensusMsg::Forward { requests })) = actions.pop() else {
            panic!("expected a Forward to the leader");
        };
        assert_eq!(requests, vec![req(1), req(2), req(3)]);
        // The leader queues all of them and proposes once.
        let proposes: Vec<usize> = deliver(&mut replicas[0], 1, ConsensusMsg::Forward { requests })
            .iter()
            .filter_map(|a| match a {
                Action::Broadcast(ConsensusMsg::Propose { batch, .. }) => Some(batch.len()),
                _ => None,
            })
            .collect();
        assert_eq!(proposes, vec![3]);
        // Stage 2 at t > 2*timeout: STOP for regency 1.
        let actions = step(&mut replicas[1], 4_500, Input::Tick);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Broadcast(ConsensusMsg::Stop { regency: 1 }))));
    }

    #[test]
    fn f_plus_one_stops_amplify() {
        let mut replicas = make_replicas(4, 1);
        // Two other replicas demand regency 1; we join without our own
        // timeout having fired.
        let a1 = deliver(&mut replicas[3], 1, ConsensusMsg::Stop { regency: 1 });
        assert!(a1.is_empty());
        let a2 = deliver(&mut replicas[3], 2, ConsensusMsg::Stop { regency: 1 });
        assert!(a2
            .iter()
            .any(|a| matches!(a, Action::Broadcast(ConsensusMsg::Stop { regency: 1 }))));
        // Own vote makes three: the regency installs and STOP-DATA goes
        // to the new leader (node 1).
        assert_eq!(replicas[3].regency(), 1);
        assert!(replicas[3].is_syncing());
        assert!(a2
            .iter()
            .any(|a| matches!(a, Action::Send(NodeId(1), ConsensusMsg::StopData(_)))));
    }

    #[test]
    fn stale_stop_ignored() {
        let mut replicas = make_replicas(4, 1);
        let actions = deliver(&mut replicas[0], 1, ConsensusMsg::Stop { regency: 0 });
        assert!(actions.is_empty());
    }

    #[test]
    fn value_request_answered_from_recent_decisions() {
        let mut replicas = make_replicas(4, 1);
        // Manufacture a decision on replica 0 via the full path: use 3
        // replicas' accept votes.
        let signing = signing_keys();
        let batch = Batch::new(vec![req(1)]);
        let hash = batch.digest();
        // The leader proposes; its own write is recorded.
        step(&mut replicas[0], 0, Input::Requests(vec![req(1)]));
        for i in 1..3 {
            let w = Vote::sign(&signing[i], VotePhase::Write, NodeId(i as u32), 1, 0, hash);
            deliver(&mut replicas[0], i as u32, ConsensusMsg::Write(w));
        }
        for i in 1..3 {
            let a = Vote::sign(&signing[i], VotePhase::Accept, NodeId(i as u32), 1, 0, hash);
            deliver(&mut replicas[0], i as u32, ConsensusMsg::Accept(a));
        }
        assert_eq!(replicas[0].metrics().decided_instances, 1);

        let actions = deliver(&mut replicas[0], 3, ConsensusMsg::ValueRequest { cid: 1 });
        assert!(matches!(
            &actions[..],
            [Action::Send(NodeId(3), ConsensusMsg::ValueReply { cid: 1, .. })]
        ));

        // And a verified ValueReply lets a lagging replica commit
        // directly.
        let Action::Send(_, reply) = actions.into_iter().next().unwrap() else {
            panic!("a ValueRequest is answered with a Send")
        };
        let actions = deliver(&mut replicas[3], 0, reply);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Commit { cid: 1, .. })));
        assert_eq!(replicas[3].next_cid(), 2);
    }

    /// Three peers' signed ACCEPTs for `hash` in slot 1, epoch 0, fed to
    /// `replica`; returns the actions of the vote that completes the
    /// quorum.
    fn feed_accept_quorum(replica: &mut Replica, hash: Hash256) -> Vec<Action> {
        let signing = signing_keys();
        let mut last = Vec::new();
        for i in 0..3u32 {
            let accept = Vote::sign(&signing[i as usize], VotePhase::Accept, NodeId(i), 1, 0, hash);
            last = deliver(replica, i, ConsensusMsg::Accept(accept));
        }
        last
    }

    fn value_requests(actions: &[Action]) -> usize {
        actions
            .iter()
            .filter(|a| matches!(a, Action::Send(_, ConsensusMsg::ValueRequest { cid: 1 })))
            .count()
    }

    #[test]
    fn accept_quorum_before_propose_decides_when_the_proposal_lands() {
        let mut replica = make_replicas(4, 1).remove(3);
        let batch = Batch::new(vec![req(1)]);
        // The quorum names a digest whose value is unknown here: no
        // decision, the value is asked for.
        let actions = feed_accept_quorum(&mut replica, batch.digest());
        assert_eq!(value_requests(&actions), 3);
        assert_eq!(replica.metrics().decided_instances, 0);
        // The proposal lands: its stored digest is the decided one.
        let propose = ConsensusMsg::Propose { cid: 1, epoch: 0, batch: batch.clone() };
        let actions = deliver(&mut replica, 0, propose);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Commit { cid: 1, batch: b, .. } if *b == batch)));
        assert_eq!(replica.next_cid(), 2);
    }

    #[test]
    fn accept_quorum_for_another_hash_fetches_the_value() {
        // The leader proposed B here, the rest of the cluster decided A:
        // the slot holds a batch, but not the decided one.
        let mut replica = make_replicas(4, 1).remove(3);
        let (batch_a, batch_b) = (Batch::new(vec![req(1)]), Batch::new(vec![req(2)]));
        deliver(&mut replica, 0, ConsensusMsg::Propose { cid: 1, epoch: 0, batch: batch_b });
        let actions = feed_accept_quorum(&mut replica, batch_a.digest());
        assert_eq!(value_requests(&actions), 3);
        assert!(!actions.iter().any(|a| matches!(a, Action::Commit { .. })));
        assert_eq!(replica.metrics().decided_instances, 0);
        assert_eq!(replica.next_cid(), 1);
    }

    #[test]
    fn bogus_value_reply_rejected() {
        let mut replicas = make_replicas(4, 1);
        let batch = Batch::new(vec![req(1)]);
        let forged = DecisionProof {
            cid: 1,
            hash: batch.digest(),
            votes: vec![],
        };
        let reply = ConsensusMsg::ValueReply {
            cid: 1,
            batch,
            proof: forged,
        };
        let actions = deliver(&mut replicas[3], 0, reply);
        assert!(actions.is_empty());
        assert_eq!(replicas[3].next_cid(), 1);
    }

    #[test]
    fn batch_respects_limits() {
        let mut replicas = make_replicas(4, 1);
        // More requests than batch_max, queued at a follower (which
        // proposes nothing): a batch caps at batch_max, oldest first.
        step(&mut replicas[1], 0, Input::Requests((1..=500).map(req).collect()));
        assert_eq!(replicas[1].pending_len(), 500);
        let batch = replicas[1].build_batch();
        assert_eq!(batch.len(), 400);
        assert!(batch.requests.iter().map(|r| r.seq).eq(1..=400));
    }

    /// The seqs of every request replica `i` committed, in commit order.
    fn committed_seqs(cluster: &Cluster, i: usize) -> Vec<u64> {
        cluster
            .decisions(i)
            .iter()
            .flat_map(|(_, batch)| batch.requests.iter().map(|r| r.id().1))
            .collect()
    }

    /// A deep queue drained through a hundred decisions. Two followers
    /// queued the requests in another order than the leader proposes
    /// them, so their client's ring fills from the front and from the
    /// middle; at every step every ring stays within one `WINDOW` of
    /// entries, the in-flight counts match the live slots, and in the
    /// end every request is decided exactly once and the pool is empty.
    #[test]
    fn deep_queue_stays_bounded_through_many_decisions() {
        const REQUESTS: u64 = 2_000;
        let mut cluster = Cluster::with_configs(
            4,
            QuorumSystem::classic(4, 1).unwrap(),
            |cfg| {
                let mut cfg = cfg.with_batch_max(20).with_pipeline_depth(4);
                cfg.max_pending = REQUESTS as usize;
                cfg
            },
        );
        let arrival = |i: usize, k: u64| match i {
            2 => REQUESTS + 1 - k,                                 // reversed
            3 if k <= REQUESTS / 2 => 2 * k,                       // evens first,
            3 => 2 * (k - REQUESTS / 2) - 1,                       // then odds
            _ => k,
        };
        for k in 1..=REQUESTS {
            for i in 0..4 {
                cluster.submit_to(i, req(arrival(i, k)));
            }
        }
        assert_eq!(cluster.replica(3).pending_len(), REQUESTS as usize, "max_pending admits them all");
        while cluster.step() {
            for i in 0..4 {
                let r = cluster.replica(i);
                let ring = r.sessions.longest_ring();
                assert!(ring <= WINDOW as usize, "replica {i}: a ring of {ring}");
                assert!(ring >= r.pending_len(), "replica {i}: one client holds every request");
                r.debug_check_in_flight();
            }
        }
        for i in 0..4 {
            let mut seqs = committed_seqs(&cluster, i);
            assert!(cluster.decisions(i).len() >= 100, "replica {i}");
            seqs.sort_unstable();
            assert_eq!(seqs, (1..=REQUESTS).collect::<Vec<_>>(), "replica {i}");
            let r = cluster.replica(i);
            assert_eq!((r.pending_len(), r.sessions.longest_ring()), (0, 0), "replica {i}");
            assert!(r.sessions.in_flight_marks().is_empty(), "replica {i}");
        }
    }

    /// Executed requests leave the pool's count and every Forward at
    /// once, whatever order they were queued in, and a Forward lists a
    /// client's requests in seq order.
    #[test]
    fn delivered_entries_are_neither_counted_nor_forwarded() {
        let mut cluster = Cluster::classic(4, 1);
        cluster.submit_to(0, req(1));
        cluster.submit_to(0, req(2));
        step(cluster.replica_mut(1), 0, Input::Requests((1..=5).rev().map(req).collect()));
        cluster.run_to_quiescence();
        assert_eq!(committed_seqs(&cluster, 1), vec![1, 2]);
        let follower = cluster.replica_mut(1);
        assert_eq!((follower.pending_len(), follower.sessions.longest_ring()), (3, 3));
        // Room for two more queued requests.
        follower.cfg.max_pending = 5;
        step(follower, 0, Input::Requests(vec![req(6), req(7), req(8)]));
        assert_eq!(follower.pending_len(), 5);
        let Some(Action::Send(NodeId(0), ConsensusMsg::Forward { requests })) =
            step(follower, 2_500, Input::Tick).pop()
        else {
            panic!("expected a Forward to the leader");
        };
        assert_eq!(requests, (3..=7).map(req).collect::<Vec<_>>());
    }

    /// A PROPOSE that carries one request twice (a faulty leader's):
    /// WHEAT's tentative delivery and the commit skip the second copy
    /// alike, so the confirmed tentative execution is the committed one.
    #[test]
    fn a_request_twice_in_one_batch_is_skipped_tentatively_and_at_commit() {
        let (signing, keys) = test_keys(4);
        let cfg = Config::new(NodeId(1), QuorumSystem::classic(4, 1).unwrap(), keys, signing[1].clone());
        let mut follower = Replica::new(cfg.with_tentative_execution(true));
        let batch = Batch::new(vec![req(1), req(1), req(2)]);
        let hash = batch.digest();
        let mut actions = deliver(&mut follower, 0, ConsensusMsg::Propose { cid: 1, epoch: 0, batch });
        for phase in [VotePhase::Write, VotePhase::Accept] {
            for peer in [0u32, 2] {
                let vote = Vote::sign(&signing[peer as usize], phase, NodeId(peer), 1, 0, hash);
                let msg = match phase {
                    VotePhase::Write => ConsensusMsg::Write(vote),
                    VotePhase::Accept => ConsensusMsg::Accept(vote),
                };
                actions.extend(deliver(&mut follower, peer, msg));
            }
        }
        let skips: Vec<&Vec<usize>> = actions
            .iter()
            .filter_map(|action| match action {
                Action::DeliverTentative { skipped, .. } | Action::Commit { skipped, .. } => Some(skipped),
                _ => None,
            })
            .collect();
        assert_eq!(skips, [&vec![1], &vec![1]]);
        assert!(follower.was_executed(&req(1).id()) && follower.was_executed(&req(2).id()));
    }

    #[test]
    fn byzantine_leader_equivocation_cannot_decide_two_values() {
        // The leader sends different batches to different replicas. With
        // n = 4, each faction has at most 2 write votes for its hash —
        // below the quorum of 3 — so neither value can be decided.
        let mut replicas = make_replicas(4, 1);
        let signing = signing_keys();
        let batch_a = Batch::new(vec![req(1)]);
        let batch_b = Batch::new(vec![req(2)]);

        // Replicas 1 and 2 get batch A; replica 3 gets batch B.
        let propose = |batch: &Batch| ConsensusMsg::Propose {
            cid: 1,
            epoch: 0,
            batch: batch.clone(),
        };
        for i in [1usize, 2] {
            deliver(&mut replicas[i], 0, propose(&batch_a));
        }
        deliver(&mut replicas[3], 0, propose(&batch_b));

        // Exchange all write votes among 1, 2, 3 (leader stays silent).
        let votes: Vec<Vote> = vec![
            Vote::sign(&signing[1], VotePhase::Write, NodeId(1), 1, 0, batch_a.digest()),
            Vote::sign(&signing[2], VotePhase::Write, NodeId(2), 1, 0, batch_a.digest()),
            Vote::sign(&signing[3], VotePhase::Write, NodeId(3), 1, 0, batch_b.digest()),
        ];
        for i in 1..4usize {
            for vote in &votes {
                if vote.node.as_usize() != i {
                    let write = ConsensusMsg::Write(vote.clone());
                    let actions = deliver(&mut replicas[i], vote.node.0, write);
                    // No replica may reach an accept quorum.
                    assert!(!actions
                        .iter()
                        .any(|a| matches!(a, Action::Commit { .. })));
                }
            }
        }
        for r in &replicas {
            assert_eq!(r.metrics().decided_instances, 0);
        }
    }

    #[test]
    fn obs_records_phase_latencies_and_counters() {
        let mut cluster = Cluster::classic(4, 1);
        let registry = hlf_obs::Registry::new("obs-replica-test");
        for i in 0..4 {
            cluster.replica_mut(i).attach_obs(ReplicaObs::new(&registry));
        }
        for seq in 1..=5 {
            cluster.submit_to_all(Request::new(ClientId(3), seq, &b"tx"[..]));
            cluster.run_to_quiescence();
        }

        let snap = registry.snapshot();
        // All four replicas decided 5 instances each.
        assert_eq!(snap.counter_value("consensus.replica.decided"), Some(20));
        let write = snap.histogram("consensus.replica.write_phase_ms").unwrap();
        let accept = snap.histogram("consensus.replica.accept_phase_ms").unwrap();
        let decide = snap.histogram("consensus.replica.decide_ms").unwrap();
        assert_eq!(write.count, 20);
        assert_eq!(accept.count, 20);
        assert_eq!(decide.count, 20);
        // The write quorum needed at least 3 of 4 matching votes.
        let votes = snap
            .histogram("consensus.replica.write_quorum_votes")
            .unwrap();
        assert!(votes.buckets.first().unwrap().0 >= 3);
        // Proof quorums too.
        let proof_votes = snap
            .histogram("consensus.replica.accept_quorum_votes")
            .unwrap();
        assert!(proof_votes.buckets.first().unwrap().0 >= 3);
        // Everything drained.
        assert_eq!(
            snap.gauge_value("consensus.replica.pending_requests"),
            Some(0)
        );
        assert_eq!(snap.counter_value("consensus.replica.rollbacks"), Some(0));
    }

    #[test]
    fn obs_counts_tentative_deliveries() {
        let mut cluster = Cluster::wheat(5, 1);
        let registry = hlf_obs::Registry::new("obs-wheat-test");
        for i in 0..5 {
            cluster.replica_mut(i).attach_obs(ReplicaObs::new(&registry));
        }
        cluster.submit_to_all(Request::new(ClientId(4), 1, &b"tx"[..]));
        cluster.run_to_quiescence();

        let snap = registry.snapshot();
        let tentative = snap
            .counter_value("consensus.replica.tentative_deliveries")
            .unwrap();
        // Every replica that reached the write quorum delivered
        // tentatively before deciding.
        assert!(tentative >= 1, "no tentative deliveries recorded");
        assert_eq!(snap.counter_value("consensus.replica.decided"), Some(5));
    }

    /// Acceptance criterion: an induced regency change auto-dumps the
    /// flight recorder, and the dump contains the protocol events that
    /// led up to the change.
    #[test]
    fn flight_recorder_dumps_on_regency_change() {
        let mut replicas = make_replicas(4, 1);
        let flight = Arc::new(FlightRecorder::with_capacity("node-3", 256));
        replicas[3].attach_flight(Arc::clone(&flight));

        // Normal traffic first so the ring holds pre-anomaly history:
        // the leader's PROPOSE reaches replica 3.
        let batch = Batch::new(vec![req(1)]);
        let propose = ConsensusMsg::Propose {
            cid: 1,
            epoch: 0,
            batch: batch.clone(),
        };
        deliver(&mut replicas[3], 0, propose);

        // Two peers demand regency 1; with our amplified STOP that is a
        // certify quorum, so the regency installs.
        let stop = |from| Input::Message(NodeId(from), ConsensusMsg::Stop { regency: 1 });
        step(&mut replicas[3], 10, stop(1));
        step(&mut replicas[3], 20, stop(2));
        assert_eq!(replicas[3].regency(), 1);

        let dumps = flight.take_dumps();
        assert_eq!(dumps.len(), 1, "regency change must dump exactly once");
        let dump = &dumps[0];
        assert_eq!(dump.reason, "regency_change");
        assert_eq!(dump.node, "node-3");
        // The dump holds the history: the PROPOSE/WRITE activity before
        // the change, and the change itself.
        let kinds: Vec<EventKind> = dump.events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::Propose), "missing pre-anomaly propose");
        assert!(kinds.contains(&EventKind::TxInBatch), "missing tx link event");
        assert!(
            kinds.contains(&EventKind::RegencyChange),
            "missing the regency change itself"
        );
        // And it replays through the stable JSON codec byte-identically.
        let json = dump.to_json();
        let back = hlf_obs::FlightDump::from_json(&json).unwrap();
        assert_eq!(back.to_json(), json);
    }

    /// A persistently slow peer is flagged by the vote-arrival health
    /// detector, surfaced through metrics and the flight recorder.
    #[test]
    fn straggler_detector_flags_slow_peer() {
        let signing = signing_keys();
        let registry = hlf_obs::Registry::new("health-test");
        // Drive the leader (replica 0) by hand: peers 1 and 2 vote
        // ~10 ms after each PROPOSE, peer 3 consistently ~150 ms late —
        // a straggler whose WRITE still lands before the quorum closes.
        let mut replica = make_replicas(4, 1).remove(0);
        let flight = Arc::new(FlightRecorder::with_capacity("node-0", 4096));
        replica.attach_flight(Arc::clone(&flight));
        replica.attach_health_obs(HealthObs::new(&registry, 4));
        let mut now = 0u64;
        for round in 1..=30u64 {
            let request = req(round);
            let batch = Batch::new(vec![request.clone()]);
            let hash = batch.digest();
            step(&mut replica, now, Input::Requests(vec![request]));
            // WRITE phase: fast peers at +10ms, slow peer at +150ms.
            let w1 = Vote::sign(&signing[1], VotePhase::Write, NodeId(1), round, 0, hash);
            step(&mut replica, now + 10, Input::Message(NodeId(1), ConsensusMsg::Write(w1)));
            let w3 = Vote::sign(&signing[3], VotePhase::Write, NodeId(3), round, 0, hash);
            step(&mut replica, now + 150, Input::Message(NodeId(3), ConsensusMsg::Write(w3)));
            // ACCEPT phase: the quorum needs 3 matching votes; feed the
            // slow peer last so its lag is sampled first.
            let a1 = Vote::sign(&signing[1], VotePhase::Accept, NodeId(1), round, 0, hash);
            step(&mut replica, now + 160, Input::Message(NodeId(1), ConsensusMsg::Accept(a1)));
            let a2 = Vote::sign(&signing[2], VotePhase::Accept, NodeId(2), round, 0, hash);
            step(&mut replica, now + 160, Input::Message(NodeId(2), ConsensusMsg::Accept(a2)));
            now += 1_000;
        }

        assert!(
            replica.health().is_suspected(3),
            "slow peer not suspected: lags {:?}",
            (0..4).map(|i| replica.health().peer_lag_us(i)).collect::<Vec<_>>()
        );
        assert_eq!(replica.health().suspected_peers(), vec![3]);
        let snap = registry.snapshot();
        assert!(snap.counter_value("consensus.health.suspicions").unwrap() >= 1);
        assert!(snap.gauge_value("consensus.health.peer_lag_us.3").unwrap() > 100_000);
        assert!(
            flight.events().iter().any(|e| e.kind == EventKind::Suspect && e.a == 3),
            "suspicion not recorded in flight ring"
        );
    }

    fn make_leader_with_depth(depth: usize) -> (Replica, Vec<SigningKey>) {
        let (signing, keys) = test_keys(4);
        let leader = Replica::new(
            Config::new(
                NodeId(0),
                QuorumSystem::classic(4, 1).unwrap(),
                keys,
                signing[0].clone(),
            )
            .with_pipeline_depth(depth),
        );
        (leader, signing)
    }

    #[test]
    fn pipelined_leader_keeps_window_full() {
        let (mut leader, signing) = make_leader_with_depth(4);
        let mut actions = Vec::new();
        for seq in 1..=5 {
            actions.extend(step(&mut leader, 0, Input::Requests(vec![req(seq)])));
        }
        let mut proposed = std::collections::BTreeMap::new();
        for action in &actions {
            if let Action::Broadcast(ConsensusMsg::Propose { cid, batch, .. }) = action {
                proposed.insert(*cid, batch.digest());
            }
        }
        // Four slots open immediately; the fifth request waits for the
        // window to slide.
        assert_eq!(proposed.keys().copied().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        assert_eq!(leader.window_occupancy(), 4);
        assert_eq!(leader.pending_len(), 5);

        // Decide the frontier slot: the window slides and the waiting
        // request is proposed into the freed slot.
        let hash = proposed[&1];
        for peer in [1usize, 2] {
            let w = Vote::sign(&signing[peer], VotePhase::Write, NodeId(peer as u32), 1, 0, hash);
            step(&mut leader, 10, Input::Message(NodeId(peer as u32), ConsensusMsg::Write(w)));
        }
        let a1 = Vote::sign(&signing[1], VotePhase::Accept, NodeId(1), 1, 0, hash);
        step(&mut leader, 20, Input::Message(NodeId(1), ConsensusMsg::Accept(a1)));
        let a2 = Vote::sign(&signing[2], VotePhase::Accept, NodeId(2), 1, 0, hash);
        let decide = step(&mut leader, 20, Input::Message(NodeId(2), ConsensusMsg::Accept(a2)));
        assert!(decide.iter().any(|a| matches!(a, Action::Commit { cid: 1, .. })));
        assert!(decide.iter().any(|a| matches!(
            a,
            Action::Broadcast(ConsensusMsg::Propose { cid: 5, .. })
        )));
        assert_eq!(leader.window_occupancy(), 4);
        assert_eq!(leader.pending_len(), 4);
    }

    #[test]
    fn straggler_attribution_uses_per_slot_proposal_time() {
        // With two slots in flight, a vote for the *younger* slot must
        // be measured against that slot's own proposal time. Here the
        // vote lands 600 ms after slot 1 opened but only 100 ms after
        // slot 2 did — the peer's lag is 100 ms, not 600 ms.
        let (mut leader, signing) = make_leader_with_depth(2);
        step(&mut leader, 0, Input::Requests(vec![req(1)]));
        let slot2 = step(&mut leader, 500, Input::Requests(vec![req(2)]));
        let hash2 = slot2
            .iter()
            .find_map(|a| match a {
                Action::Broadcast(ConsensusMsg::Propose { cid: 2, batch, .. }) => {
                    Some(batch.digest())
                }
                _ => None,
            })
            .expect("slot 2 proposed");
        let w = Vote::sign(&signing[3], VotePhase::Write, NodeId(3), 2, 0, hash2);
        step(&mut leader, 600, Input::Message(NodeId(3), ConsensusMsg::Write(w)));
        let lag = leader.health().peer_lag_us(3).expect("lag sample recorded");
        assert!(
            lag <= 150_000,
            "vote lag attributed to the wrong slot: {lag}µs (expected ~100,000µs)"
        );
        assert!(lag >= 50_000, "lag sample lost: {lag}µs");
    }
}
