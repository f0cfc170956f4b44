//! Geo-distributed ordering-service simulation (paper §6.3).
//!
//! The paper's WAN experiments place ordering nodes in Oregon, Ireland,
//! Sydney and São Paulo (plus Virginia as WHEAT's spare) and frontends
//! in Canada, Oregon, Virginia and São Paulo, then measure end-to-end
//! envelope latency: submission at a frontend until the frontend has
//! collected enough matching copies of the block containing it.
//!
//! We do not have EC2; we have the *same ordering node*: the sans-io
//! [`NodeCore`] (consensus, durable log, checkpoints, state transfer)
//! running the real [`OrderingNodeApp`], and the frontends' real
//! [`BlockCollector`], driven here by the deterministic [`hlf_simnet`]
//! simulator instead of threads and sockets. Two things are modelled
//! rather than run: link latency (a measured inter-region RTT matrix
//! plus bandwidth and jitter) and the block-signing delay (a fixed
//! timer in place of the ECDSA pool, so pushed blocks carry no
//! signature). Propagation dominates WAN latency, so the *shape* of
//! Figs. 8 and 9 — WHEAT beating BFT-SMaRt by roughly half,
//! Vmax-co-located frontends beating Vmin ones, block size 100 adding
//! fill delay — is reproduced faithfully; absolute numbers track the
//! RTT matrix.
//!
//! The same world, on a zero-latency LAN with no frontends, is where
//! the node core's own tests run (seeded loss, cut links, crashes and
//! forced STOPs): one driver of [`NodeCore`] in the simulator.

use crate::collector::BlockCollector;
use crate::node::OrderingNodeApp;
use crate::service::ServiceOptions;
use hlf_audit::{AuditViolation, ClusterAuditor};
use hlf_consensus::messages::Request;
use hlf_fabric::block::Block;
use hlf_obs::EventKind;
use hlf_obs::{FlightDump, FlightRecorder, Registry, Snapshot};
use hlf_simnet::{Region, RegionMatrix};
use hlf_simnet::{
    percentile, Actor, Ctx, FaultPlan, LatencyModel, SimMessage, SimTime, Simulation,
};
use hlf_smr::Application;
use hlf_smr::{Input, NodeConfig, NodeCore, Output};
use hlf_smr::runtime::ClusterKeys;
use hlf_smr::MemoryLog;
use hlf_smr::SmrMsg;
use hlf_transport::PeerId;
use hlf_wire::{Bytes, ClientId, NodeId};
use std::any::Any;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::Duration;

/// Which protocol variant to simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// Classic BFT-SMaRt: 4 replicas, cardinality quorums, final
    /// delivery after ACCEPT.
    BftSmart,
    /// WHEAT: 5 replicas (Virginia spare), binary weights, tentative
    /// delivery after WRITE.
    Wheat,
}

/// Messages crossing the simulated network.
#[derive(Clone, Debug)]
enum GeoMsg {
    /// An encoded frame of the SMR protocol — envelope submission,
    /// consensus traffic, state transfer — byte for byte what a threaded
    /// node puts on its transport. The receiver decodes it, so every
    /// batch arrives without the sender's leaf cache, as off a socket.
    /// Replica-to-replica frames carry a sender-unique id so
    /// [`EventKind::FrameSeq`] send/recv pairs can be stitched into a
    /// causal cluster timeline. The tag is bookkeeping, not protocol
    /// state: it never reaches the node core and does not count toward
    /// the wire size.
    Smr(Bytes, u64),
    /// Replica-to-frontend block copy (the signing pool's push).
    Block(Block),
}

/// The bytes a transport carries for `msg`.
fn encode(msg: &SmrMsg) -> Bytes {
    Bytes::from(hlf_wire::to_bytes(msg))
}

impl SimMessage for GeoMsg {
    fn wire_size(&self) -> usize {
        match self {
            GeoMsg::Smr(frame, _) => frame.len(),
            GeoMsg::Block(block) => block.wire_size(),
        }
    }
}

const TICK_TOKEN: u64 = 0;
const SUBMIT_TOKEN: u64 = 1;
/// Signing-job tokens start here.
const SIGN_TOKEN_BASE: u64 = 1000;
/// Frontend `slot` is SMR client `FRONTEND_CLIENT_BASE + slot`.
const FRONTEND_CLIENT_BASE: u32 = 100;
/// XOR mask applied to a digest when forging an injected flight event;
/// non-zero, so the forged digest always conflicts with the real one.
const FORGED_DIGEST_MASK: u64 = 0x00ff_00ff_00ff_00ff;

/// Observability-layer fault injection used to validate the auditor:
/// a forged flight event is recorded on one replica's ring while the
/// protocol itself runs untouched, so a detection proves the auditor
/// works without needing a genuinely unsafe consensus implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(not(test), expect(dead_code, reason = "only the auditor's tests inject (`GeoConfig::with_injection`)"))]
pub(crate) enum AuditInjection {
    /// On `node`'s `nth` (0-based) commit, additionally record a
    /// [`EventKind::DecideHash`] for the same instance with a flipped
    /// digest — a fabricated equivocation.
    EquivocatingDecide { node: usize, nth: u64 },
    /// On `node`'s `nth` commit, record a [`EventKind::WriteCert`] for
    /// a conflicting digest — as if a certified value had been dropped
    /// in favour of another across a view change.
    DroppedCertifiedValue { node: usize, nth: u64 },
}

/// Sees each output of one replica before the world carries it out;
/// `false` drops it.
type Interposer = Box<dyn FnMut(&Output) -> bool>;

/// An ordering node inside the simulator: the simnet driver of a
/// [`NodeCore`]. Everything here is simulation — virtual links and
/// clock, the modelled signing delay, audit bookkeeping; the protocol
/// is the core's.
struct ReplicaActor {
    core: NodeCore,
    n: usize,
    /// [`NodeConfig::tick_interval`]: it steps [`Input::Tick`] this often.
    tick_every: SimTime,
    /// Actor indices of the frontends. Placement is static: every
    /// frontend receives every block from the first one on.
    frontends: Vec<usize>,
    /// Blocks the application cut during the current step (the far
    /// end of its block sink), when it pushes blocks to the frontends.
    cut_blocks: Option<Receiver<Block>>,
    sign_delay: SimTime,
    next_sign_token: u64,
    signing: HashMap<u64, Block>,
    /// Flight recorder for sign-phase events ([`EventKind::SignStart`]
    /// and [`EventKind::SignDone`]) and frame tags; the protocol events
    /// are recorded by the core itself. Timestamps are virtual-time
    /// microseconds, so recording is deterministic.
    flight: Option<Arc<FlightRecorder>>,
    /// Counter feeding sender-unique frame tags.
    next_frame: u64,
    /// Commits applied so far, for `nth`-commit fault injection.
    commits_seen: u64,
    /// Observability-layer fault injection (auditor validation).
    inject: Option<AuditInjection>,
    /// Sees each output first and may drop it (none in the geo runs).
    interpose: Option<Interposer>,
    /// Reused across steps.
    out: Vec<Output>,
}

impl ReplicaActor {
    /// Replica `config.consensus.node` of `n`, on an empty log, recording
    /// into `config.flight` and pushing to no frontend.
    fn new(config: &NodeConfig, app: Box<dyn Application>, n: usize) -> ReplicaActor {
        ReplicaActor {
            core: NodeCore::new(config, app, Box::new(MemoryLog::new())),
            n,
            tick_every: SimTime::from_micros(config.tick_interval.as_micros() as u64),
            frontends: Vec::new(),
            cut_blocks: None,
            sign_delay: SimTime::from_micros(500),
            next_sign_token: SIGN_TOKEN_BASE,
            signing: HashMap::new(),
            flight: config.flight.clone(),
            next_frame: 0,
            commits_seen: 0,
            inject: None,
            interpose: None,
            out: Vec::new(),
        }
    }

    /// The transport identity of actor `index`.
    fn peer_of(&self, index: usize) -> PeerId {
        if index < self.n {
            PeerId::Replica(index as u32)
        } else {
            PeerId::Client(FRONTEND_CLIENT_BASE + (index - self.n) as u32)
        }
    }

    /// Sends one encoded frame to a peer replica, recording the
    /// [`EventKind::FrameSeq`] send half under a sender-unique tag so
    /// the audit timeline can stitch the matching receive to it.
    fn send_frame(&mut self, to: usize, frame: Bytes, ctx: &mut Ctx<'_, GeoMsg>) {
        let tag = ((ctx.self_id() as u64) << 40) | self.next_frame;
        self.next_frame += 1;
        if let Some(flight) = &self.flight {
            flight.record(ctx.now().as_micros(), EventKind::FrameSeq, to as u64, tag, 0);
        }
        ctx.send(to, GeoMsg::Smr(frame, tag));
    }

    /// Records the forged flight event of a configured
    /// [`AuditInjection`] when this commit is the injection target.
    fn maybe_inject(&self, cid: u64, digest: u64, signers: u64, ctx: &Ctx<'_, GeoMsg>) {
        let (Some(inject), Some(flight)) = (self.inject, &self.flight) else {
            return;
        };
        let (kind, node, nth) = match inject {
            AuditInjection::EquivocatingDecide { node, nth } => (EventKind::DecideHash, node, nth),
            AuditInjection::DroppedCertifiedValue { node, nth } => (EventKind::WriteCert, node, nth),
        };
        if node == ctx.self_id() && nth == self.commits_seen {
            let forged = digest ^ FORGED_DIGEST_MASK;
            flight.record(ctx.now().as_micros(), kind, cid, forged, signers);
        }
    }

    /// Runs one call into the core at the current virtual time and
    /// carries out what it asks for.
    fn drive(
        &mut self,
        ctx: &mut Ctx<'_, GeoMsg>,
        call: impl FnOnce(&mut NodeCore, u64, &mut Vec<Output>),
    ) {
        let mut out = std::mem::take(&mut self.out);
        call(&mut self.core, ctx.now().as_micros(), &mut out);
        self.flush(&mut out, ctx);
        self.out = out;
    }

    fn step(&mut self, input: Input, ctx: &mut Ctx<'_, GeoMsg>) {
        self.drive(ctx, |core, now_us, out| core.step(now_us, input, out));
    }

    fn flush(&mut self, out: &mut Vec<Output>, ctx: &mut Ctx<'_, GeoMsg>) {
        for output in out.drain(..) {
            if let Some(interpose) = &mut self.interpose {
                if !interpose(&output) {
                    continue;
                }
            }
            match output {
                Output::ToReplicas(msg) => {
                    let frame = encode(&msg);
                    let me = ctx.self_id();
                    for node in (0..self.n).filter(|node| *node != me) {
                        self.send_frame(node, frame.clone(), ctx);
                    }
                }
                Output::ToReplica(to, msg) => self.send_frame(to.as_usize(), encode(&msg), ctx),
                // The ordering application answers through its block
                // sink, never with replies; frontend placement is static.
                Output::ToClient(..) | Output::ToAllClients(..) | Output::ClientJoined(_) => {}
                Output::Committed { cid, digest, signers } => {
                    self.maybe_inject(cid, digest, signers, ctx);
                    self.commits_seen += 1;
                }
            }
        }
        // The modelled signing pool: every block the application cut
        // in this step is held for the ECDSA delay, then transmitted.
        let Some(cut_blocks) = &self.cut_blocks else {
            return;
        };
        while let Ok(block) = cut_blocks.try_recv() {
            if let Some(flight) = &self.flight {
                let number = block.header.number;
                flight.record(ctx.now().as_micros(), EventKind::SignStart, number, 0, 0);
            }
            let token = self.next_sign_token;
            self.next_sign_token += 1;
            self.signing.insert(token, block);
            ctx.set_timer(self.sign_delay, token);
        }
    }
}

impl Actor<GeoMsg> for ReplicaActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, GeoMsg>) {
        self.drive(ctx, NodeCore::recover);
        ctx.set_timer(self.tick_every, TICK_TOKEN);
    }

    fn on_message(&mut self, from: usize, msg: GeoMsg, ctx: &mut Ctx<'_, GeoMsg>) {
        let GeoMsg::Smr(frame, tag) = msg else { return };
        if from < self.n {
            if let Some(flight) = &self.flight {
                flight.record(ctx.now().as_micros(), EventKind::FrameSeq, from as u64, tag, 1);
            }
        }
        // A frame that does not decode is dropped, as by a socket reader.
        let Ok(msg) = hlf_wire::from_bytes_shared::<SmrMsg>(&frame) else {
            return;
        };
        self.step(Input::Frame(self.peer_of(from), msg), ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, GeoMsg>) {
        if token == TICK_TOKEN {
            self.step(Input::Tick, ctx);
            ctx.set_timer(self.tick_every, TICK_TOKEN);
        } else if let Some(block) = self.signing.remove(&token) {
            if let Some(flight) = &self.flight {
                let number = block.header.number;
                flight.record(ctx.now().as_micros(), EventKind::SignDone, number, 0, 0);
            }
            for &frontend in &self.frontends {
                ctx.send(frontend, GeoMsg::Block(block.clone()));
            }
        }
    }
}

/// A frontend inside the simulator: open-loop workload generator, the
/// real [`BlockCollector`], and a latency probe.
struct FrontendActor {
    client: ClientId,
    replicas: Vec<usize>,
    envelope_size: usize,
    /// Mean inter-submission gap.
    submit_every: SimTime,
    collector: BlockCollector,
    next_seq: u64,
    submit_times: HashMap<u64, SimTime>,
    /// Samples only count after the warm-up boundary.
    warmup: SimTime,
    stop_at: SimTime,
    /// Flight recorder for submission and delivery events (the
    /// collector records the collection phase into the same ring).
    flight: Option<Arc<FlightRecorder>>,
}

impl FrontendActor {
    fn submit(&mut self, ctx: &mut Ctx<'_, GeoMsg>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        // Envelope payload: frontend client id + seq + padding to size.
        let mut payload = Vec::with_capacity(self.envelope_size.max(12));
        payload.extend_from_slice(&self.client.0.to_le_bytes());
        payload.extend_from_slice(&seq.to_le_bytes());
        payload.resize(self.envelope_size.max(12), 0xee);
        let request = Request::new(self.client, seq, payload);
        self.submit_times.insert(seq, ctx.now());
        if let Some(flight) = &self.flight {
            flight.record(
                ctx.now().as_micros(),
                EventKind::Submit,
                hlf_obs::trace_id(self.client.0, seq),
                self.client.0 as u64,
                seq,
            );
        }
        let frame = GeoMsg::Smr(encode(&SmrMsg::Requests(vec![request])), 0);
        for &replica in &self.replicas {
            ctx.send(replica, frame.clone());
        }
    }

    fn on_block_copy(&mut self, from: usize, block: Block, ctx: &mut Ctx<'_, GeoMsg>) {
        let now = ctx.now();
        self.collector
            .offer(NodeId(from as u32), block, now.as_micros());
        // Each released block: sample the latency of our own envelopes.
        while let Some(block) = self.collector.pop_ready() {
            let number = block.header.number;
            for envelope in &block.envelopes {
                let Some((client, seq)) = envelope.get(..12).map(|id| id.split_at(4)) else {
                    continue;
                };
                if client != self.client.0.to_le_bytes() {
                    continue;
                }
                #[expect(clippy::expect_used, reason = "`get(..12)` then `split_at(4)` leaves exactly 8 bytes")]
                let seq = u64::from_le_bytes(seq.try_into().expect("8 bytes"));
                if let Some(submitted) = self.submit_times.remove(&seq) {
                    if let Some(flight) = &self.flight {
                        flight.record(
                            now.as_micros(),
                            EventKind::Deliver,
                            hlf_obs::trace_id(self.client.0, seq),
                            number,
                            0,
                        );
                    }
                    if now >= self.warmup {
                        ctx.sample("latency_ms", (now - submitted).as_millis_f64());
                    }
                }
            }
        }
    }
}

impl Actor<GeoMsg> for FrontendActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, GeoMsg>) {
        self.submit(ctx);
        ctx.set_timer(self.submit_every, SUBMIT_TOKEN);
    }

    fn on_message(&mut self, from: usize, msg: GeoMsg, ctx: &mut Ctx<'_, GeoMsg>) {
        if let GeoMsg::Block(block) = msg {
            self.on_block_copy(from, block, ctx);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, GeoMsg>) {
        if token == SUBMIT_TOKEN && ctx.now() < self.stop_at {
            self.submit(ctx);
            ctx.set_timer(self.submit_every, SUBMIT_TOKEN);
        }
    }
}

/// Passive in-sim auditor: on a virtual-time timer it drains every
/// replica's flight ring into its [`ClusterAuditor`]. It never sends a
/// message, so attaching it cannot perturb the simulated protocol run;
/// the experiment reads its summary after the run.
struct AuditorActor {
    auditor: ClusterAuditor,
    recorders: Vec<Arc<FlightRecorder>>,
    /// Per-replica [`FlightRecorder::events_since`] cursors.
    cursors: Vec<u64>,
    drain_every: SimTime,
}

impl AuditorActor {
    /// Drains every replica ring incrementally into the auditor.
    fn drain(&mut self) {
        for (node, (recorder, cursor)) in self.recorders.iter().zip(&mut self.cursors).enumerate() {
            let (head, events) = recorder.events_since(*cursor);
            *cursor = head;
            for event in &events {
                self.auditor.observe(node, event);
            }
        }
    }
}

impl Actor<GeoMsg> for AuditorActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, GeoMsg>) {
        ctx.set_timer(self.drain_every, TICK_TOKEN);
    }

    fn on_message(&mut self, _from: usize, _msg: GeoMsg, _ctx: &mut Ctx<'_, GeoMsg>) {}

    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_, GeoMsg>) {
        self.drain();
        ctx.set_timer(self.drain_every, TICK_TOKEN);
    }
}

/// An actor of the world, reachable by its concrete type (a test
/// reaches a replica's core, the experiment its auditor's summary).
trait Member: Actor<GeoMsg> + Any {}

impl<T: Actor<GeoMsg> + Any> Member for T {}

/// The simulated world. Actor indices: replicas `0..n`, then the
/// frontends, if any, then the auditor, if any.
type World = Simulation<GeoMsg, dyn Member>;

/// Configuration of one geo-distributed run.
#[derive(Clone, Debug)]
pub struct GeoConfig {
    /// Protocol variant.
    pub protocol: Protocol,
    /// Envelope size in bytes (paper: 40, 200, 1024, 4096).
    pub envelope_size: usize,
    /// Envelopes per block (paper: 10 and 100).
    pub block_size: usize,
    /// Per-frontend submission rate (envelopes/second). The paper keeps
    /// cluster throughput above 1000 tx/s with 4 frontends.
    pub rate_per_frontend: f64,
    /// Simulated run length.
    pub duration: SimTime,
    /// Samples before this instant are discarded as warm-up.
    pub warmup: SimTime,
    /// Simulation seed.
    pub seed: u64,
    /// Ablation override: force weighted voting on/off independently of
    /// the protocol preset (requires the WHEAT 5-node placement).
    pub weights_override: Option<bool>,
    /// Ablation override: force tentative execution on/off.
    pub tentative_override: Option<bool>,
    /// Record distributed-trace flight events on every replica and
    /// frontend and return each node's ring in the result.
    /// Event timestamps are virtual-time microseconds, so a traced run
    /// is still deterministic.
    pub trace: bool,
    /// Degrade one replica: `(node index, extra one-way delay)` added to
    /// every link touching that node (the "slow replica" the health
    /// detector should flag).
    pub slow_replica: Option<(usize, SimTime)>,
    /// Consensus sliding-window depth (1 = unpipelined).
    pub pipeline_depth: usize,
    /// Run the online safety auditor ([`hlf_audit::ClusterAuditor`])
    /// over every replica's flight ring while the simulation executes
    /// and return the `AuditSummary` in the result. Implies flight
    /// recording on the replicas (frontend recording still requires
    /// [`GeoConfig::trace`]); like tracing, it never perturbs the run.
    pub audit: bool,
    /// Observability-layer fault injection for auditor validation.
    pub(crate) inject: Option<AuditInjection>,
    /// Crash-stop one replica: `(node, instant)`. From the instant on,
    /// the node neither processes nor emits anything — crash the
    /// regency-0 leader (node 0) to force a view change.
    pub crash_replica: Option<(usize, SimTime)>,
    /// Consensus request timeout (ms) before replicas suspect the
    /// leader and vote to change the regency.
    pub request_timeout_ms: u64,
}

impl GeoConfig {
    /// Paper-like defaults: 1 KiB envelopes, blocks of 10, 275
    /// envelopes/s per frontend (1100 tx/s aggregate), 60 s runs.
    pub fn new(protocol: Protocol) -> GeoConfig {
        GeoConfig {
            protocol,
            envelope_size: 1024,
            block_size: 10,
            rate_per_frontend: 275.0,
            duration: SimTime::from_secs(60),
            warmup: SimTime::from_secs(5),
            seed: 1,
            weights_override: None,
            tentative_override: None,
            trace: false,
            slow_replica: None,
            pipeline_depth: 1,
            audit: false,
            inject: None,
            crash_replica: None,
            request_timeout_ms: 10_000,
        }
    }

    /// Enables flight recording on every replica and frontend.
    pub fn with_trace(mut self) -> GeoConfig {
        self.trace = true;
        self
    }

    /// Adds `extra` one-way delay to every link touching replica `node`.
    pub fn with_slow_replica(mut self, node: usize, extra: SimTime) -> GeoConfig {
        self.slow_replica = Some((node, extra));
        self
    }

    /// Sets the consensus sliding-window depth (slots in flight at
    /// once; 1 disables pipelining).
    pub fn with_pipeline_depth(mut self, depth: usize) -> GeoConfig {
        self.pipeline_depth = depth;
        self
    }

    /// Enables the online cluster safety auditor.
    pub fn with_audit(mut self) -> GeoConfig {
        self.audit = true;
        self
    }

    /// Seeds an observability-layer fault for auditor validation.
    #[cfg(test)]
    pub(crate) fn with_injection(mut self, inject: AuditInjection) -> GeoConfig {
        self.inject = Some(inject);
        self
    }

    /// Crash-stops replica `node` at `at` (virtual time).
    pub fn with_crash_replica(mut self, node: usize, at: SimTime) -> GeoConfig {
        self.crash_replica = Some((node, at));
        self
    }

    /// Sets the consensus request timeout (leader-suspicion fuse).
    pub fn with_request_timeout_ms(mut self, ms: u64) -> GeoConfig {
        self.request_timeout_ms = ms;
        self
    }
}

/// Outcome of the online cluster audit.
#[derive(Clone, Debug)]
pub struct AuditSummary {
    /// Safety violations detected, in detection order (empty on a
    /// correct run).
    pub violations: Vec<AuditViolation>,
    /// Total flight events fed through the auditor.
    pub events: u64,
}

/// Latency summary for one frontend.
#[derive(Clone, Debug)]
pub struct FrontendLatency {
    /// Frontend placement.
    pub region: Region,
    /// Median end-to-end latency (ms).
    pub median_ms: f64,
    /// 90th percentile latency (ms).
    pub p90_ms: f64,
    /// Samples collected after warm-up.
    pub samples: usize,
}

/// Result of a geo-distributed run.
#[derive(Clone, Debug)]
pub struct GeoResult {
    /// Per-frontend latency summaries, in placement order: Canada,
    /// Oregon, Virginia, São Paulo.
    pub frontends: Vec<FrontendLatency>,
    /// Aggregate delivered envelopes per simulated second.
    pub throughput: f64,
    /// Per-replica obs snapshots (replica order) at run end.
    pub obs: Vec<Snapshot>,
    /// The ring of every replica (`geo-node-{i}`) then frontend
    /// (`geo-frontend-{slot}`) recorder at run end, when
    /// [`GeoConfig::trace`] was set.
    pub flights: Option<Vec<FlightDump>>,
    /// Online audit summary, when [`GeoConfig::audit`] was set.
    pub audit: Option<AuditSummary>,
}

/// Replica placement for a protocol (paper §6.3).
fn replica_regions(protocol: Protocol) -> Vec<Region> {
    match protocol {
        Protocol::BftSmart => vec![
            Region::Oregon,
            Region::Ireland,
            Region::Sydney,
            Region::SaoPaulo,
        ],
        // Node ids 0 and 1 carry Vmax under the binary weighting, so
        // Oregon (leader) and Virginia come first — exactly the paper's
        // weighting.
        Protocol::Wheat => vec![
            Region::Oregon,
            Region::Virginia,
            Region::Ireland,
            Region::Sydney,
            Region::SaoPaulo,
        ],
    }
}

/// Frontend placement (paper §6.3): Canada, Oregon, Virginia, São Paulo.
fn frontend_regions() -> Vec<Region> {
    vec![
        Region::Canada,
        Region::Oregon,
        Region::Virginia,
        Region::SaoPaulo,
    ]
}

/// Runs one geo-distributed latency experiment.
///
/// # Panics
///
/// Panics on nonsensical configurations (zero rate, zero duration).
pub fn run_geo_experiment(config: &GeoConfig) -> GeoResult {
    run_geo(config, FaultPlan::none())
}

/// [`run_geo_experiment`] under a link-fault plan (actor indices:
/// replicas first, then frontends). [`GeoConfig::crash_replica`] joins
/// the plan.
fn run_geo(config: &GeoConfig, faults: FaultPlan) -> GeoResult {
    assert!(config.rate_per_frontend > 0.0, "rate must be positive");
    assert!(config.duration > SimTime::ZERO, "duration must be positive");

    let replicas = replica_regions(config.protocol);
    let frontends = frontend_regions();
    let n = replicas.len();
    let f = 1usize;

    let (default_weights, default_tentative) = match config.protocol {
        Protocol::BftSmart => (false, false),
        Protocol::Wheat => (true, true),
    };
    let weighted = config.weights_override.unwrap_or(default_weights);
    let tentative = config.tentative_override.unwrap_or(default_tentative);
    // The nodes are assembled exactly like the shipped ones, from
    // service options; `with_tentative` after `with_wheat` also gives
    // the ablation "weights without tentative execution".
    let options = ServiceOptions::new(f)
        .with_block_size(config.block_size)
        .with_wheat(weighted)
        .with_tentative(tentative)
        .with_request_timeout_ms(config.request_timeout_ms)
        .with_pipeline_depth(config.pipeline_depth);
    let keys = ClusterKeys::derive("geo", n);

    // Latency model: one-way region delays + 1 Gbit/s per-link
    // bandwidth + 2 ms jitter. EC2 inter-region links do not bind at
    // this workload's few MB/s — the paper observes at most 29 ms of
    // envelope-size impact, which only holds when transmission time of
    // a full consensus batch stays in the low tens of milliseconds.
    let mut placement: Vec<Region> = replicas.clone();
    placement.extend(frontends.iter().copied());
    let matrix = RegionMatrix::aws();
    let base_delay = matrix.delay_fn(placement);
    let slow_replica = config.slow_replica;
    let model = LatencyModel::from_fn(move |from, to| {
        let mut delay = base_delay(from, to);
        if let Some((node, extra)) = slow_replica {
            if from == node || to == node {
                delay = delay.saturating_add(extra);
            }
        }
        delay
    })
    .with_bandwidth_bps(125_000_000)
    .with_jitter(SimTime::from_millis(2));

    let mut sim = World::new(model, config.seed);
    sim.set_faults(match config.crash_replica {
        Some((node, at)) => faults.crash_at(node, at),
        None => faults,
    });
    let frontend_indices: Vec<usize> = (n..n + frontends.len()).collect();
    let registries: Vec<Arc<Registry>> =
        (0..n).map(|i| Registry::new(format!("geo-node-{i}"))).collect();
    // Rings sized so a full run's events survive to the end-of-run read
    // (replicas log ~10 events per consensus instance plus one per
    // transaction; frontends ~4 per transaction).
    let recording = config.trace || config.audit;
    let replica_flights: Vec<Arc<FlightRecorder>> = if recording {
        (0..n)
            .map(|i| Arc::new(FlightRecorder::with_capacity(format!("geo-node-{i}"), 1 << 17)))
            .collect()
    } else {
        Vec::new()
    };
    let frontend_flights: Vec<Arc<FlightRecorder>> = if config.trace {
        (0..frontends.len())
            .map(|slot| {
                Arc::new(FlightRecorder::with_capacity(format!("geo-frontend-{slot}"), 1 << 15))
            })
            .collect()
    } else {
        Vec::new()
    };
    for (i, registry) in registries.iter().enumerate() {
        let flight = replica_flights.get(i).cloned();
        let mut node_config = options.runtime.node_config(i, &keys, Arc::clone(registry), flight);
        // Coarser than a threaded node's 20 ms: ticks only drive
        // timeouts, and WAN timeouts are seconds.
        node_config.tick_interval = Duration::from_millis(500);
        // The application's block sink is a queue the actor drains
        // into signing timers after every step.
        let (cut_tx, cut_blocks) = channel();
        let app = OrderingNodeApp::new(
            options.app_config(i, &keys, Arc::clone(registry), None),
            move |block| {
                let _ = cut_tx.send(block);
            },
        );
        let mut replica = ReplicaActor::new(&node_config, Box::new(app), n);
        replica.frontends = frontend_indices.clone();
        replica.cut_blocks = Some(cut_blocks);
        replica.inject = config.inject;
        sim.add_actor(Box::new(replica));
    }
    let gap = SimTime::from_micros((1_000_000.0 / config.rate_per_frontend) as u64);
    for slot in 0..frontends.len() {
        let client = ClientId(FRONTEND_CLIENT_BASE + slot as u32);
        let flight = frontend_flights.get(slot).cloned();
        let mut collector = BlockCollector::new(options.frontend_config(client, &keys));
        if let Some(flight) = &flight {
            collector.attach_flight(Arc::clone(flight));
        }
        sim.add_actor(Box::new(FrontendActor {
            client,
            replicas: (0..n).collect(),
            envelope_size: config.envelope_size,
            submit_every: gap,
            collector,
            next_seq: 1,
            submit_times: HashMap::new(),
            warmup: config.warmup,
            stop_at: config.duration,
            flight,
        }));
    }
    if config.audit {
        sim.add_actor(Box::new(AuditorActor {
            auditor: ClusterAuditor::new(n, f),
            recorders: replica_flights.clone(),
            cursors: vec![0; n],
            drain_every: SimTime::from_millis(200),
        }));
    }

    sim.run_until(config.duration.saturating_add(SimTime::from_secs(10)));

    // Summarize per frontend.
    let samples = sim.samples();
    let mut per_frontend = Vec::new();
    let mut total_delivered = 0usize;
    for (slot, &region) in frontends.iter().enumerate() {
        let actor_index = n + slot;
        let latencies: Vec<f64> = samples
            .iter()
            .filter(|s| s.node == actor_index && s.name == "latency_ms")
            .map(|s| s.value)
            .collect();
        total_delivered += latencies.len();
        per_frontend.push(FrontendLatency {
            region,
            median_ms: percentile(&latencies, 50.0).unwrap_or(f64::NAN),
            p90_ms: percentile(&latencies, 90.0).unwrap_or(f64::NAN),
            samples: latencies.len(),
        });
    }
    let measured_window = config.duration.saturating_sub(config.warmup);
    let throughput = total_delivered as f64 / (measured_window.as_micros() as f64 / 1e6);

    let obs = registries.iter().map(|r| r.snapshot()).collect();

    let flights = config.trace.then(|| {
        replica_flights
            .iter()
            .chain(&frontend_flights)
            .map(|recorder| FlightDump {
                node: recorder.name().to_string(),
                events: recorder.events(),
            })
            .collect()
    });

    // Final catch-up drain: the timer fires every 200 ms, so the tail
    // of the run may not have been consumed yet.
    let audit = config.audit.then(|| sim.actor_mut(n + frontends.len())).and_then(|auditor| {
        let auditor = (auditor as &mut dyn Any).downcast_mut::<AuditorActor>()?;
        auditor.drain();
        Some(AuditSummary {
            violations: auditor.auditor.violations().to_vec(),
            events: auditor.auditor.observed(),
        })
    });

    GeoResult {
        frontends: per_frontend,
        throughput,
        obs,
        flights,
        audit,
    }
}

#[cfg(test)]
mod node_core;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn quick_config(protocol: Protocol) -> GeoConfig {
        let mut config = GeoConfig::new(protocol);
        config.duration = SimTime::from_secs(12);
        config.warmup = SimTime::from_secs(2);
        config.rate_per_frontend = 100.0;
        config
    }

    #[test]
    fn bftsmart_latencies_are_plausible() {
        let result = run_geo_experiment(&quick_config(Protocol::BftSmart));
        for fl in &result.frontends {
            assert!(fl.samples > 100, "{}: {} samples", fl.region, fl.samples);
            // WAN consensus over these regions cannot be faster than
            // ~100 ms or slower than ~2 s.
            assert!(
                fl.median_ms > 100.0 && fl.median_ms < 2_000.0,
                "{}: median {}",
                fl.region,
                fl.median_ms
            );
            assert!(fl.p90_ms >= fl.median_ms);
        }
        assert!(result.throughput > 200.0, "throughput {}", result.throughput);
    }

    #[test]
    fn wheat_beats_bftsmart_everywhere() {
        let bft = run_geo_experiment(&quick_config(Protocol::BftSmart));
        let wheat = run_geo_experiment(&quick_config(Protocol::Wheat));
        for (b, w) in bft.frontends.iter().zip(&wheat.frontends) {
            assert!(
                w.median_ms < b.median_ms,
                "{}: wheat {} vs bft {}",
                b.region,
                w.median_ms,
                b.median_ms
            );
        }
    }

    #[test]
    fn larger_blocks_increase_latency() {
        let small = run_geo_experiment(&quick_config(Protocol::BftSmart));
        let mut big_config = quick_config(Protocol::BftSmart);
        big_config.block_size = 100;
        let big = run_geo_experiment(&big_config);
        // Median latency with 100-envelope blocks must exceed the
        // 10-envelope configuration (fill delay), as in paper Fig. 9.
        let avg = |r: &GeoResult| {
            r.frontends.iter().map(|f| f.median_ms).sum::<f64>() / r.frontends.len() as f64
        };
        assert!(avg(&big) > avg(&small));
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let a = run_geo_experiment(&quick_config(Protocol::BftSmart));
        let b = run_geo_experiment(&quick_config(Protocol::BftSmart));
        for (x, y) in a.frontends.iter().zip(&b.frontends) {
            assert_eq!(x.median_ms, y.median_ms);
            assert_eq!(x.samples, y.samples);
        }
    }

    #[test]
    fn obs_snapshots_cover_phases_and_cuts() {
        let mut config = quick_config(Protocol::Wheat);
        config.duration = SimTime::from_secs(8);
        let result = run_geo_experiment(&config);
        let snaps = result.obs;
        assert_eq!(snaps.len(), 5);
        for (i, snap) in snaps.iter().enumerate() {
            assert_eq!(snap.registry, format!("geo-node-{i}"));
            let decided = snap.counter_value("consensus.replica.decided").unwrap();
            assert!(decided > 0, "node {i} decided nothing");
            let write = snap.histogram("consensus.replica.write_phase_ms").unwrap();
            let accept = snap.histogram("consensus.replica.accept_phase_ms").unwrap();
            assert!(write.count > 0, "node {i} has no WRITE samples");
            assert!(accept.count > 0, "node {i} has no ACCEPT samples");
            assert!(
                snap.counter_value("core.cutter.cut_size").unwrap() > 0,
                "node {i} cut no blocks"
            );
        }
        // WHEAT delivers tentatively after WRITE on every replica.
        assert!(snaps
            .iter()
            .any(|s| s.counter_value("consensus.replica.tentative_deliveries").unwrap() > 0));
    }

    #[test]
    fn tracing_does_not_perturb_the_run() {
        let plain = run_geo_experiment(&quick_config(Protocol::BftSmart));
        let traced = run_geo_experiment(&quick_config(Protocol::BftSmart).with_trace());
        for (x, y) in plain.frontends.iter().zip(&traced.frontends) {
            assert_eq!(x.median_ms, y.median_ms);
            assert_eq!(x.samples, y.samples);
        }
        let dumps = traced.flights.expect("trace requested");
        // Four replicas + four frontends each return their ring.
        assert_eq!(dumps.len(), 8);
        let kinds: HashSet<EventKind> = dumps
            .iter()
            .flat_map(|d| d.events.iter().map(|e| e.kind))
            .collect();
        for kind in [
            EventKind::Submit,
            EventKind::SignStart,
            EventKind::SignDone,
            EventKind::CollectFirst,
            EventKind::CollectDone,
            EventKind::Deliver,
        ] {
            assert!(kinds.contains(&kind), "missing {kind:?}");
        }
    }

    #[test]
    fn slow_replica_slows_its_own_frontend_only() {
        let fast = run_geo_experiment(&quick_config(Protocol::BftSmart));
        let mut config = quick_config(Protocol::BftSmart);
        // Node 3 (Sao Paulo in the BFT-SMaRt placement) gets an extra
        // 250 ms on every link; it is not the leader, so consensus
        // proceeds at normal speed without its votes.
        config.slow_replica = Some((3, SimTime::from_millis(250)));
        let slowed = run_geo_experiment(&config);
        let avg = |r: &GeoResult| {
            r.frontends.iter().map(|f| f.median_ms).sum::<f64>() / r.frontends.len() as f64
        };
        // 2f+1 fast replicas still form quorums: medians stay in the
        // same regime rather than absorbing the full 500 ms RTT.
        assert!(avg(&slowed) < avg(&fast) + 250.0);
        for fl in &slowed.frontends {
            assert!(fl.samples > 100, "{}: {} samples", fl.region, fl.samples);
        }
    }

    #[test]
    fn audit_is_clean_on_healthy_and_degraded_runs() {
        for (what, config) in [
            ("bftsmart", quick_config(Protocol::BftSmart).with_audit()),
            ("wheat", quick_config(Protocol::Wheat).with_audit()),
            (
                "pipelined k=4",
                quick_config(Protocol::BftSmart).with_audit().with_pipeline_depth(4),
            ),
            (
                "slow replica",
                quick_config(Protocol::BftSmart)
                    .with_audit()
                    .with_slow_replica(3, SimTime::from_millis(250)),
            ),
        ] {
            let result = run_geo_experiment(&config);
            let audit = result.audit.expect("audit requested");
            let lines: Vec<String> =
                audit.violations.iter().map(|v| v.to_line()).collect();
            assert!(lines.is_empty(), "{what}: false positives {lines:?}");
            assert!(audit.events > 1_000, "{what}: auditor saw only {} events", audit.events);
        }
    }

    #[test]
    fn audit_does_not_perturb_the_run() {
        let plain = run_geo_experiment(&quick_config(Protocol::Wheat));
        let audited = run_geo_experiment(&quick_config(Protocol::Wheat).with_audit());
        for (x, y) in plain.frontends.iter().zip(&audited.frontends) {
            assert_eq!(x.median_ms, y.median_ms);
            assert_eq!(x.samples, y.samples);
        }
    }

    #[test]
    fn seeded_equivocation_is_caught_and_named() {
        let config = quick_config(Protocol::BftSmart)
            .with_audit()
            .with_injection(AuditInjection::EquivocatingDecide { node: 2, nth: 5 });
        let audit = run_geo_experiment(&config).audit.expect("audit requested");
        let lines: Vec<String> = audit.violations.iter().map(|v| v.to_line()).collect();
        // One forged decide breaches two invariants (agreement and
        // certified-value preservation); every violation must point at
        // the seeded node and one single instance — no collateral noise.
        let v = audit
            .violations
            .iter()
            .find(|v| v.kind == hlf_audit::ViolationKind::Equivocation)
            .unwrap_or_else(|| panic!("no equivocation flagged: {lines:?}"));
        assert_eq!(v.node, 2, "{}", v.to_line());
        assert!(v.detail.contains(&format!("cid {}", v.cid)), "{}", v.detail);
        assert!(!v.slice.is_empty(), "violation must carry a timeline slice");
        assert!(
            audit.violations.iter().all(|w| w.node == 2 && w.cid == v.cid),
            "collateral violations beyond the seeded one: {lines:?}"
        );
    }

    #[test]
    fn seeded_certified_value_drop_is_caught_and_named() {
        let config = quick_config(Protocol::BftSmart)
            .with_audit()
            .with_injection(AuditInjection::DroppedCertifiedValue { node: 1, nth: 7 });
        let audit = run_geo_experiment(&config).audit.expect("audit requested");
        let lines: Vec<String> = audit.violations.iter().map(|v| v.to_line()).collect();
        assert_eq!(audit.violations.len(), 1, "expected exactly the seeded violation: {lines:?}");
        let v = &audit.violations[0];
        assert_eq!(v.kind, hlf_audit::ViolationKind::CertifiedValueDropped);
        assert_eq!(v.node, 1, "{}", v.to_line());
        assert!(v.detail.contains(&format!("cid {}", v.cid)), "{}", v.detail);
    }

    #[test]
    fn leader_crash_triggers_view_change_and_stays_audit_clean() {
        let mut config = quick_config(Protocol::BftSmart)
            .with_audit()
            .with_trace()
            .with_request_timeout_ms(2_000)
            .with_crash_replica(0, SimTime::from_secs(4));
        config.duration = SimTime::from_secs(20);
        let result = run_geo_experiment(&config);
        // Survivors must have installed a later regency...
        let dumps = result.flights.expect("trace requested");
        assert!(
            dumps
                .iter()
                .flat_map(|d| d.events.iter())
                .any(|e| e.kind == EventKind::RegencyChange && e.a >= 1),
            "no regency change recorded after crashing the leader"
        );
        // ...and service must have resumed under the new leader.
        assert!(result.throughput > 50.0, "throughput {}", result.throughput);
        // The view change is a *correct* execution: the auditor must
        // stay silent through the rebind (no false positives).
        let audit = result.audit.expect("audit requested");
        let lines: Vec<String> = audit.violations.iter().map(|v| v.to_line()).collect();
        assert!(lines.is_empty(), "false positives across view change: {lines:?}");
    }

    #[test]
    fn replica_left_behind_catches_up_by_state_transfer() {
        // Replica 3 is slow (+1 s on every link) and never hears the
        // regency-0 leader (link 0 -> 3 is cut), so it learns decisions
        // only by catching up from its peers' logs, one slow round trip
        // and one request timeout at a time (consensus reports `Behind`,
        // which the node core must act on — the simulator used to
        // ignore it). Once the leader has crashed and the new regency
        // is installed, it decides with its peers again.
        let mut config = quick_config(Protocol::BftSmart)
            .with_audit()
            .with_request_timeout_ms(2_000)
            .with_slow_replica(3, SimTime::from_millis(1_000))
            .with_crash_replica(0, SimTime::from_secs(4));
        config.duration = SimTime::from_secs(20);
        let result = run_geo(&config, FaultPlan::none().block_link(0, 3));
        let snaps = result.obs;
        let transfers =
            |node: usize| snaps[node].counter_value("smr.node.state_transfers").unwrap();
        // Twice: to cid 8 before the crash, and to cid 14 after it,
        // before the new regency is installed; from then on it hears the
        // new leader and decides with its peers.
        assert_eq!(transfers(3), 2, "replica 3 did not catch up once each side of the crash");
        assert_eq!(transfers(1) + transfers(2), 0);
        // With replica 0 dead, a frontend's three matching copies of
        // every later block must include replica 3's: service resuming
        // proves its chain position equals its peers'. (At most 800
        // envelopes can be delivered before the crash; 100/s over the
        // 18 s window is 1800.)
        assert!(result.throughput > 100.0, "throughput {}", result.throughput);
        let audit = result.audit.expect("audit requested");
        let lines: Vec<String> = audit.violations.iter().map(|v| v.to_line()).collect();
        assert!(lines.is_empty(), "false positives across state transfer: {lines:?}");
    }

    #[test]
    fn isolated_frontend_link_does_not_stall_others() {
        // Replicas 0 and 1 never reach frontend 1 (Oregon): it sees two
        // copies of each block, one short of 2f + 1, and delivers
        // nothing. The other frontends must be unaffected.
        let config = quick_config(Protocol::BftSmart).with_audit();
        let n = replica_regions(Protocol::BftSmart).len();
        let result = run_geo(&config, FaultPlan::none().block_link(0, n + 1).block_link(1, n + 1));
        for (slot, fl) in result.frontends.iter().enumerate() {
            if slot == 1 {
                assert_eq!(fl.samples, 0, "{}: the starved frontend delivered", fl.region);
            } else {
                assert!(fl.samples > 100, "{}: {} samples", fl.region, fl.samples);
            }
        }
        let audit = result.audit.expect("audit requested");
        let lines: Vec<String> = audit.violations.iter().map(|v| v.to_line()).collect();
        assert!(lines.is_empty(), "false positives with a starved frontend: {lines:?}");
    }

    #[test]
    fn placements_match_paper() {
        assert_eq!(replica_regions(Protocol::BftSmart).len(), 4);
        let wheat = replica_regions(Protocol::Wheat);
        assert_eq!(wheat.len(), 5);
        assert_eq!(wheat[0], Region::Oregon);
        assert_eq!(wheat[1], Region::Virginia);
        assert_eq!(frontend_regions().len(), 4);
    }
}
