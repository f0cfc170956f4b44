//! Four sans-io nodes (`NodeCore` + an application + `MemoryLog`)
//! driven by one `hlf_simnet::Simulation` whose links deliver at once
//! and in send order — no threads, no sleeps.
//!
//! State transfer, on ordering nodes (`OrderingNodeApp`): replica 3 is cut off for 70 decisions: many checkpoint intervals,
//! so its peers prune the log it would need, and more than consensus
//! itself can re-fetch value by value. Reconnected, it must notice the
//! gap at the next view change, ask for state, install an `f + 1`
//! attested checkpoint plus proof-carrying entries — ignoring a forged
//! reply — and end byte-equal to its peers.
//!
//! Request windows, on replicated counters (`CounterApp`, whose reply to
//! each request is the running count, so the replies a node emits spell
//! out the order it executed in): what one client frame may carry and
//! how it is ordered; and where the request→decide clock of
//! `smr.node.request_decide_us` starts.

use hlf_consensus::messages::{Batch, ConsensusMsg, DecisionProof, Request, Vote, VotePhase};
use hlf_crypto::ecdsa::SigningKey;
use hlf_simnet::{Actor, Ctx, FaultPlan, LatencyModel, SimMessage, SimTime, Simulation};
use hlf_smr::app::{Application, CounterApp};
use hlf_smr::core::{Input, NodeCore, Output};
use hlf_smr::runtime::ClusterKeys;
use hlf_smr::storage::MemoryLog;
use hlf_smr::wire::{LogEntry, SmrMsg};
use hlf_transport::PeerId;
use hlf_wire::{Bytes, ClientId, NodeId};
use ordering_core::node::OrderingNodeApp;
use ordering_core::service::ServiceOptions;
use std::sync::Arc;

const N: usize = 4;
const CLIENT: u32 = 7;
const CHECKPOINT_EVERY: u64 = 5;

/// A frame between two replicas.
#[derive(Clone)]
struct Frame(SmrMsg);

impl SimMessage for Frame {
    fn wire_size(&self) -> usize {
        0
    }
}

/// What a peer receives of `msg`: its decoding, as off a socket, so
/// every batch arrives without the sender's leaf cache.
fn over_the_wire(msg: &SmrMsg) -> SmrMsg {
    hlf_wire::from_bytes(&hlf_wire::to_bytes(msg)).expect("a sent message decodes")
}

/// One node as a simulation actor, recording what it emits.
struct Node {
    core: NodeCore,
    /// Its metrics registry.
    registry: Arc<hlf_obs::Registry>,
    out: Vec<Output>,
    /// `from_cid` of every `StateRequest` it broadcast.
    state_requests: Vec<u64>,
    /// When non-empty, its next `StateRequest` round is lost on the way
    /// to the honest peers and answered by these frames alone (the
    /// faulty replica getting its word in first).
    forged_replies: Vec<(PeerId, SmrMsg)>,
    /// Batch length of every PROPOSE it broadcast, in emission order.
    proposes: Vec<usize>,
    /// Every reply it addressed to a client, `(client, seq, payload)`,
    /// in emission order.
    replies: Vec<(u32, u64, Bytes)>,
    /// `(cid, batch digest)` of every commit, in order.
    commits: Vec<(u64, u64)>,
    /// While set, the ACCEPT votes it broadcasts are lost.
    drop_accepts: bool,
}

impl Node {
    fn step(&mut self, input: Input, ctx: &mut Ctx<'_, Frame>) {
        let mut out = std::mem::take(&mut self.out);
        self.core.step(ctx.now().as_micros(), input, &mut out);
        for output in out.drain(..) {
            match output {
                Output::ToReplicas(msg) => {
                    if let SmrMsg::StateRequest { from_cid } = msg {
                        self.state_requests.push(from_cid);
                        if !self.forged_replies.is_empty() {
                            for (forger, reply) in std::mem::take(&mut self.forged_replies) {
                                self.step(Input::Frame(forger, reply), ctx);
                            }
                            continue;
                        }
                    }
                    if let SmrMsg::Consensus(ConsensusMsg::Propose { batch, .. }) = &msg {
                        self.proposes.push(batch.len());
                    }
                    if self.drop_accepts && matches!(msg, SmrMsg::Consensus(ConsensusMsg::Accept(_))) {
                        continue;
                    }
                    let me = ctx.self_id();
                    for to in (0..N).filter(|&to| to != me) {
                        ctx.send(to, Frame(over_the_wire(&msg)));
                    }
                }
                Output::ToReplica(to, msg) => ctx.send(to.as_usize(), Frame(over_the_wire(&msg))),
                Output::ToClient(client, SmrMsg::Reply { seq, payload }) => {
                    self.replies.push((client.0, seq, payload));
                }
                Output::Committed { cid, digest, .. } => self.commits.push((cid, digest)),
                _ => {}
            }
        }
        self.out = out;
    }

    /// `(client, seq)` of every reply it emitted, in order.
    fn executed(&self) -> Vec<(u32, u64)> {
        self.replies.iter().map(|(client, seq, _)| (*client, *seq)).collect()
    }

    /// Samples it has recorded in `smr.node.request_decide_us`.
    fn decide_samples(&self) -> u64 {
        let snapshot = self.registry.snapshot();
        snapshot.histogram("smr.node.request_decide_us").map_or(0, |h| h.count)
    }
}

impl Actor<Frame> for Node {
    fn on_message(&mut self, from: usize, Frame(msg): Frame, ctx: &mut Ctx<'_, Frame>) {
        self.step(Input::Frame(PeerId::Replica(from as u32), msg), ctx);
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_, Frame>) {}
}

struct Net {
    sim: Simulation<Frame, Node>,
}

impl Net {
    /// Four ordering nodes.
    fn new() -> Net {
        Net::with_apps(Net::options(), |options, i, keys| {
            Box::new(OrderingNodeApp::new(options.app_config(i, keys, None, None), |_| {}))
        })
    }

    /// Four replicated counters.
    fn counters() -> Net {
        Net::with_apps(Net::options(), |_, _, _| Box::new(CounterApp::new()))
    }

    /// Four replicated counters that execute tentatively (WHEAT's
    /// delivery at the WRITE quorum, on classic quorums).
    fn tentative_counters() -> Net {
        Net::with_apps(Net::options().with_tentative(true), |_, _, _| Box::new(CounterApp::new()))
    }

    fn options() -> ServiceOptions {
        ServiceOptions::new(1).with_block_size(2).with_request_timeout_ms(200)
    }

    fn with_apps(
        options: ServiceOptions,
        app: impl Fn(&ServiceOptions, usize, &ClusterKeys) -> Box<dyn Application>,
    ) -> Net {
        let runtime = options
            .runtime_options()
            .with_checkpoint_interval(CHECKPOINT_EVERY);
        let keys = ClusterKeys::derive("node-core-test", N);
        let mut sim = Simulation::new(LatencyModel::constant(SimTime::ZERO), 0);
        for i in 0..N {
            let registry = hlf_obs::Registry::new(format!("node-{i}"));
            let config = runtime.node_config(i, &keys, Some(Arc::clone(&registry)), None);
            sim.add_actor(Box::new(Node {
                core: NodeCore::new(&config, app(&options, i, &keys), Box::new(MemoryLog::new())),
                registry,
                out: Vec::new(),
                state_requests: Vec::new(),
                forged_replies: Vec::new(),
                proposes: Vec::new(),
                replies: Vec::new(),
                commits: Vec::new(),
                drop_accepts: false,
            }));
        }
        Net { sim }
    }

    fn node(&self, node: usize) -> &Node {
        self.sim.actor(node)
    }

    /// Heals (`up`) or cuts every link to and from `node`.
    fn set_links(&mut self, node: usize, up: bool) {
        for peer in (0..N).filter(|&peer| peer != node) {
            for (from, to) in [(node, peer), (peer, node)] {
                if up {
                    self.sim.heal(from, to);
                } else {
                    self.sim.cut(from, to);
                }
            }
        }
    }

    /// The nodes a peer can reach: not crashed, not cut off.
    fn reachable(&self) -> Vec<usize> {
        (0..N)
            .filter(|&node| (0..N).any(|peer| peer != node && self.sim.link_up(peer, node)))
            .collect()
    }

    fn last_cid(&self, node: usize) -> u64 {
        self.node(node).core.stats().last_cid()
    }

    /// Feeds `input` to `node` now; nothing it sends is delivered yet.
    fn input(&mut self, node: usize, input: Input) {
        self.sim.inject(node, |node, ctx| node.step(input, ctx));
    }

    /// Client `sender` hands one window to every reachable replica.
    /// Nothing the replicas send in response is delivered yet.
    fn send_window(&mut self, sender: u32, window: &[Request]) {
        for node in self.reachable() {
            self.input(node, Input::Frame(PeerId::Client(sender), SmrMsg::Requests(window.to_vec())));
        }
    }

    /// The client submits one envelope to every reachable replica.
    fn submit(&mut self, seq: u64) {
        self.send_window(CLIENT, &[request(CLIENT, seq)]);
        self.sim.run();
    }

    /// Batch length of every PROPOSE broadcast, node by node (in these
    /// runs only the leader proposes).
    fn proposes(&self) -> Vec<usize> {
        (0..N).flat_map(|node| self.node(node).proposes.clone()).collect()
    }

    /// Every `StateRequest` broadcast: `(sender, from_cid)`.
    fn state_requests(&self) -> Vec<(usize, u64)> {
        (0..N)
            .flat_map(|node| self.node(node).state_requests.iter().map(move |&cid| (node, cid)))
            .collect()
    }

    /// Loses (`true`) or delivers every ACCEPT vote from now on.
    fn drop_accepts(&mut self, drop: bool) {
        for node in 0..N {
            self.sim.actor_mut(node).drop_accepts = drop;
        }
    }

    /// Forces a STOP for `regency` at this point of the schedule: every
    /// reachable replica hears it from `f + 1` peers, so each joins as
    /// if its own request timer had run out now. Nothing is delivered
    /// yet.
    fn force_stop(&mut self, regency: u32) {
        for node in self.reachable() {
            for from in (0..N).filter(|&peer| peer != node).take(2) {
                let stop = SmrMsg::Consensus(ConsensusMsg::Stop { regency });
                self.input(node, Input::Frame(PeerId::Replica(from as u32), stop));
            }
        }
    }

    /// Ticks, and has the client retransmit seqs `1..=last` now and
    /// then, until every reachable replica's counter has executed them
    /// all (or a deadline passes).
    fn settle(&mut self, last: u64) {
        for round in 0..200 {
            if self.reachable().iter().all(|&node| counter(self, node) >= last * 8) {
                return;
            }
            if round % 5 == 4 {
                let window: Vec<Request> = (1..=last).map(|seq| request(CLIENT, seq)).collect();
                self.send_window(CLIENT, &window);
            }
            self.tick(100_000);
        }
    }

    /// Every reachable replica executed each of seqs `1..=last` exactly
    /// once.
    fn assert_executed_once(&self, last: u64) {
        for node in self.reachable() {
            assert_eq!(counter(self, node), last * 8, "replica {node} executed a request twice or missed one");
        }
    }

    /// Moves the clock forward and ticks every reachable replica.
    fn tick(&mut self, advance_us: u64) {
        self.sim.advance(SimTime::from_micros(advance_us));
        for node in self.reachable() {
            self.input(node, Input::Tick);
        }
        self.sim.run();
    }
}

fn request(client: u32, seq: u64) -> Request {
    Request::new(ClientId(client), seq, Bytes::from(seq.to_le_bytes().to_vec()))
}

/// A state reply no correct replica would send: an entry whose quorum
/// "proof" is signed by keys outside the cluster, and a checkpoint only
/// this one sender vouches for.
fn forged_reply(cid: u64) -> SmrMsg {
    let rogue = SigningKey::from_seed(b"not-a-cluster-key");
    let batch = Batch::new(vec![Request::new(ClientId(CLIENT), 999, &b"forged"[..])]);
    let votes: Vec<Vote> = (0..3)
        .map(|node| Vote::sign(&rogue, VotePhase::Accept, NodeId(node), cid, 0, batch.digest()))
        .collect();
    let proof = DecisionProof {
        cid,
        hash: batch.digest(),
        votes,
    };
    SmrMsg::StateReply {
        checkpoint: Some((cid - 1, Bytes::from_static(b"bogus snapshot"))),
        entries: vec![LogEntry { cid, batch, proof }],
    }
}

#[test]
fn cut_off_replica_catches_up_from_attested_checkpoint_and_proven_entries() {
    let mut net = Net::new();

    // Everyone decides two instances together.
    for seq in 1..=2 {
        net.submit(seq);
    }
    assert!((0..N).all(|node| net.last_cid(node) == 2));

    // Replica 3 drops off for 70 decisions. Its peers checkpoint every
    // 5 and prune, so their logs no longer reach back to cid 3; and a
    // replica only keeps its last 64 decisions for value fetches, so
    // consensus-level catch-up cannot close the gap either.
    net.set_links(3, false);
    for seq in 3..=72 {
        net.submit(seq);
    }
    assert!((0..3).all(|node| net.last_cid(node) == 72));
    assert_eq!(net.last_cid(3), 2);

    // It comes back just as the leader (replica 0, the faulty one)
    // falls silent. The next request can only be ordered after a view
    // change, whose SYNC tells replica 3 how far behind it is.
    net.set_links(3, true);
    net.sim.crash(0);
    net.sim.actor_mut(3).forged_replies = vec![(PeerId::Replica(0), forged_reply(71))];
    net.submit(73);
    for _ in 0..60 {
        if !net.state_requests().is_empty() {
            break;
        }
        net.tick(100_000);
    }

    // It asked for everything after its last decision. Only the forged
    // answer has come back so far: an entry "proven" by keys outside
    // the cluster and a checkpoint with a single voucher move nothing.
    assert_eq!(net.state_requests(), vec![(3, 3)]);
    assert_eq!(net.last_cid(3), 2);
    assert_eq!(net.node(3).core.stats().state_transfers(), 0);

    // The retry reaches replicas 1 and 2: their identical checkpoint at
    // cid 70 is attested by f + 1 senders, entries 71 and 72 carry valid
    // decision proofs. One transfer, then cid 73 is ordered with the
    // peers under the new leader.
    for _ in 0..60 {
        if (1..N).all(|node| net.last_cid(node) == 73) {
            break;
        }
        net.tick(100_000);
    }
    assert_eq!(net.node(3).core.stats().state_transfers(), 1);
    assert!((1..N).all(|node| net.last_cid(node) == 73), "view change did not resume ordering");
    assert!(net.state_requests().iter().all(|(node, _)| *node == 3));
    // Had the forged entry for cid 71 been kept, it would have shadowed
    // the real one and forked replica 3's chain. Next block number,
    // previous header hash and buffered envelopes are byte-equal to its
    // peers'.
    let snapshot = net.node(3).core.app().snapshot();
    assert_eq!(snapshot, net.node(1).core.app().snapshot());
    assert_eq!(snapshot, net.node(2).core.app().snapshot());
}

#[test]
fn window_naming_a_foreign_client_is_dropped_whole() {
    let mut net = Net::counters();
    let window = [request(CLIENT, 1), request(CLIENT + 1, 1), request(CLIENT, 2)];
    net.send_window(CLIENT, &window);
    net.sim.run();
    assert_eq!(net.proposes(), Vec::<usize>::new(), "nothing may be proposed");
    assert!((0..N).all(|node| net.last_cid(node) == 0 && net.node(node).executed().is_empty()));
    // Not even its own requests were queued: the next honest window is
    // ordered alone.
    net.send_window(CLIENT, &[request(CLIENT, 3)]);
    net.sim.run();
    assert_eq!(net.proposes(), vec![1]);
    assert!((0..N).all(|node| net.node(node).executed() == [(CLIENT, 3)]));
}

#[test]
fn answered_seq_in_a_window_is_replayed_and_the_rest_is_ordered() {
    let mut net = Net::counters();
    net.submit(1);
    let answer = net.node(2).replies[0].clone();
    assert_eq!((answer.0, answer.1), (CLIENT, 1));

    // A retransmission of seq 1 rides in a window with a new request.
    net.send_window(CLIENT, &[request(CLIENT, 1), request(CLIENT, 2)]);
    for node in 0..N {
        // Answered from the reply cache at once, byte for byte...
        assert_eq!(net.node(node).replies.len(), 2);
        assert_eq!(net.node(node).replies[1], net.node(node).replies[0]);
    }
    assert_eq!(net.node(2).replies[1], answer);
    net.sim.run();
    // ...and not ordered again, while seq 2 is.
    assert_eq!(net.proposes(), vec![1, 1]);
    for node in 0..N {
        assert_eq!(net.node(node).core.stats().executed_requests(), 2);
        assert_eq!(net.node(node).executed(), [(CLIENT, 1), (CLIENT, 1), (CLIENT, 2)]);
    }
}

/// `smr.node.request_decide_us` runs from a request's first sight on a
/// node. The client's copy reaches only the leader, so the followers
/// meet the request in its PROPOSE and decide on that copy: each records
/// its sample all the same. The client's copies that arrive after the
/// decide start no clock: nothing would ever stop it.
#[test]
fn request_decide_clock_starts_at_first_sight_propose_included() {
    let mut net = Net::counters();
    let window = SmrMsg::Requests(vec![request(CLIENT, 1)]);
    net.input(0, Input::Frame(PeerId::Client(CLIENT), window.clone()));
    net.sim.run();
    for node in 0..N {
        assert_eq!(net.last_cid(node), 1);
        assert_eq!(net.node(node).decide_samples(), 1, "node {node}");
        assert_eq!(net.node(node).core.open_request_stamps(), 0, "node {node}");
    }
    for node in 1..N {
        net.input(node, Input::Frame(PeerId::Client(CLIENT), window.clone()));
    }
    net.sim.run();
    for node in 0..N {
        assert_eq!(net.node(node).core.open_request_stamps(), 0, "stale stamp on node {node}");
    }
    // The usual order of arrival — client copy first, PROPOSE second —
    // still gives one sample per request, clocked from the client copy.
    net.submit(2);
    for node in 0..N {
        assert_eq!(net.node(node).decide_samples(), 2, "node {node}");
        assert_eq!(net.node(node).core.open_request_stamps(), 0, "node {node}");
    }
}

#[test]
fn duplicates_inside_and_across_windows_are_ordered_once() {
    let mut net = Net::counters();
    net.send_window(CLIENT, &[request(CLIENT, 1), request(CLIENT, 1), request(CLIENT, 2)]);
    // Seq 2 is now pending (in flight at the leader) everywhere.
    net.send_window(CLIENT, &[request(CLIENT, 2), request(CLIENT, 3)]);
    net.sim.run();
    for node in 0..N {
        assert_eq!(net.node(node).core.stats().executed_requests(), 3);
        assert_eq!(net.node(node).executed(), [(CLIENT, 1), (CLIENT, 2), (CLIENT, 3)]);
    }
}

#[test]
fn idle_leader_proposes_a_window_as_one_batch() {
    let mut net = Net::counters();
    let window: Vec<Request> = (1..=7).map(|seq| request(CLIENT, seq)).collect();
    net.send_window(CLIENT, &window);
    assert_eq!(net.proposes(), vec![7], "one PROPOSE carrying the whole window");
    net.sim.run();
    assert_eq!(net.proposes(), vec![7]);
    assert!((0..N).all(|node| net.last_cid(node) == 1));
}

#[test]
fn any_window_size_orders_every_request_once_in_seq_order() {
    const PER_CLIENT: u64 = 250;
    let clients = [CLIENT, CLIENT + 1];
    for window in [1usize, 7, 64] {
        let mut net = Net::counters();
        let seqs: Vec<u64> = (1..=PER_CLIENT).collect();
        // The two clients take turns, a window each; the replicas run
        // consensus only once all 500 requests have been handed in.
        for chunk in seqs.chunks(window) {
            for client in clients {
                let requests: Vec<Request> = chunk.iter().map(|&seq| request(client, seq)).collect();
                net.send_window(client, &requests);
            }
        }
        net.sim.run();
        for node in 0..N {
            let executed = net.node(node).executed();
            assert_eq!(executed.len() as u64, 2 * PER_CLIENT, "window {window}, node {node}");
            for client in clients {
                let of_client: Vec<u64> = executed
                    .iter()
                    .filter(|(c, _)| *c == client)
                    .map(|(_, seq)| *seq)
                    .collect();
                assert_eq!(of_client, seqs, "window {window}, node {node}, client {client}");
            }
            assert_eq!(net.node(node).commits, net.node(0).commits, "window {window}: node {node}'s chain differs");
        }
        assert!(!net.node(0).commits.is_empty());
    }
}

/// What replica `node`'s counter says: 8 per executed request (every
/// payload here is one `u64`).
fn counter(net: &Net, node: usize) -> u64 {
    let snapshot = net.node(node).core.app().snapshot();
    snapshot.as_slice().first_chunk::<8>().map_or(0, |bytes| u64::from_le_bytes(*bytes))
}

/// Exactly once through a state transfer and a regency change, on a
/// lossy network (seeded). Client 7 hands seq 1 to replica 1 while it
/// is cut off, then to the others, which decide it (with seqs 2 and 3)
/// without replica 1. Then the leader crashes and replica 1 leads
/// regency 1: the free choice of its SYNC re-proposes seq 1 from its
/// pool, and it catches up on cids 1 to 3 by state transfer before it
/// votes. Seq 1 is decided a second time, and every replica skips it
/// there: each request executes once on every replica.
#[test]
fn request_decided_again_after_a_transfer_and_a_regency_executes_once() {
    let mut net = Net::counters();
    net.sim.set_seed(0x5e55_1015);
    net.sim.set_faults(FaultPlan::none().drop_probability(0.03));
    net.set_links(1, false);
    net.input(1, Input::Frame(PeerId::Client(CLIENT), SmrMsg::Requests(vec![request(CLIENT, 1)])));
    for seq in 1..=3 {
        net.submit(seq);
    }
    for _ in 0..50 {
        if [0, 2, 3].iter().all(|&node| net.last_cid(node) >= 3) {
            break;
        }
        net.submit(3);
        net.tick(100_000);
    }
    assert_eq!(net.last_cid(1), 0);

    net.set_links(1, true);
    net.sim.crash(0);
    net.send_window(CLIENT, &[request(CLIENT, 4)]);
    net.sim.run();
    for _ in 0..100 {
        if (1..N).all(|node| counter(&net, node) >= 4 * 8) {
            break;
        }
        net.tick(100_000);
    }
    assert_eq!(net.node(1).core.stats().state_transfers(), 1, "replica 1 caught up by transfer");
    for node in 1..N {
        assert_eq!(counter(&net, node), 4 * 8, "replica {node} executed a request twice or missed one");
        assert_eq!(net.node(node).core.stats().duplicates_skipped(), 1, "replica {node}");
    }
}

/// Forced STOP before PROPOSE (seeded 2 % loss): the window of seqs 2
/// and 3 reaches the followers but not the leader, and every timer runs
/// out before the leader hears of it. Replica 1 leads regency 1 and
/// orders the window from its pool; the leader's late copy, and every
/// retransmission, executes nowhere again.
#[test]
fn forced_stop_before_propose_executes_each_request_once() {
    let mut net = Net::counters();
    net.sim.set_seed(0x5709_0001);
    net.sim.set_faults(FaultPlan::none().drop_probability(0.02));
    net.submit(1);
    let window = SmrMsg::Requests(vec![request(CLIENT, 2), request(CLIENT, 3)]);
    for node in 1..N {
        net.input(node, Input::Frame(PeerId::Client(CLIENT), window.clone()));
    }
    net.force_stop(1);
    net.sim.run();
    net.input(0, Input::Frame(PeerId::Client(CLIENT), window));
    net.sim.run();
    net.settle(3);
    net.assert_executed_once(3);
}

/// Forced STOP between WRITE and ACCEPT: every replica has written the
/// window of seqs 2 and 3 (its ACCEPT votes are lost), none has decided
/// it. The new leader re-binds the written value from the STOP-DATA it
/// collects, and each replica digests the rebind it decodes from the
/// SYNC afresh.
#[test]
fn forced_stop_between_write_and_accept_executes_each_request_once() {
    let mut net = Net::counters();
    net.sim.set_seed(0x5709_0002);
    net.submit(1);
    net.drop_accepts(true);
    net.send_window(CLIENT, &[request(CLIENT, 2), request(CLIENT, 3)]);
    net.sim.run();
    assert!((0..N).all(|node| net.last_cid(node) == 1 && counter(&net, node) == 8));
    net.drop_accepts(false);
    net.force_stop(1);
    net.sim.run();
    net.settle(3);
    net.assert_executed_once(3);
    assert!((0..N).all(|node| net.last_cid(node) == 2), "the written value was not re-bound");
}

/// Forced STOP after a tentative delivery: every replica has executed
/// the window of seqs 2 and 3 at its WRITE quorum, none has decided it.
/// Regency 1 re-binds the same value, so the commit confirms the
/// tentative execution instead of running it again.
#[test]
fn forced_stop_after_a_tentative_delivery_executes_each_request_once() {
    let mut net = Net::tentative_counters();
    net.sim.set_seed(0x5709_0003);
    net.submit(1);
    net.drop_accepts(true);
    net.send_window(CLIENT, &[request(CLIENT, 2), request(CLIENT, 3)]);
    net.sim.run();
    assert!((0..N).all(|node| net.last_cid(node) == 1 && counter(&net, node) == 3 * 8));
    net.drop_accepts(false);
    net.force_stop(1);
    net.sim.run();
    net.settle(3);
    net.assert_executed_once(3);
    assert!((0..N).all(|node| net.last_cid(node) == 2));
}

/// Forced STOP during a state transfer: replica 3 misses 40 decisions,
/// so its peers have pruned what it would need, though the client's
/// copies of the last three still reach it and wait in its pool. A
/// first forced STOP's SYNC tells it how far behind it is; a second
/// STOP, to regency 3, which replica 3 leads, lands while its state
/// request is still unanswered. It ends with the same count as its
/// peers.
#[test]
fn forced_stop_during_a_state_transfer_executes_each_request_once() {
    let mut net = Net::counters();
    net.sim.set_seed(0x5709_0004);
    net.submit(1);
    net.set_links(3, false);
    for seq in 2..=41 {
        if seq >= 39 {
            net.input(3, Input::Frame(PeerId::Client(CLIENT), SmrMsg::Requests(vec![request(CLIENT, seq)])));
        }
        net.submit(seq);
    }
    net.set_links(3, true);
    net.send_window(CLIENT, &[request(CLIENT, 42)]);
    net.force_stop(1);
    while net.state_requests().is_empty() && net.sim.step() {}
    assert_eq!(net.state_requests().len(), 1, "replica 3 did not ask for state");
    net.force_stop(3);
    net.sim.run();
    net.settle(42);
    net.assert_executed_once(42);
    assert!(net.node(3).core.stats().state_transfers() >= 1, "replica 3 caught up by transfer");
}
