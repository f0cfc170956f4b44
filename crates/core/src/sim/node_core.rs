//! The node core's tests, on the world's replicas: four sans-io nodes
//! (`NodeCore` + an application + `MemoryLog`) on a LAN whose links
//! deliver at once and in send order, each ticking from its own timer
//! every `NodeConfig::tick_interval` — no threads, no sleeps. Each
//! replica's interposer records what it emits and loses what a test
//! tells it to.
//!
//! On ordering nodes (`OrderingNodeApp`): state transfer past pruned
//! logs and a forged reply. On replicated counters (`CounterApp`, whose
//! reply to each request is the running count, so the replies a node
//! emits spell out the order it executed in): what one client window
//! may carry and how it is ordered, where the request→decide clock
//! starts, and exactly-once under seeded `FaultPlan` loss with forced
//! STOPs at chosen points of the schedule. A failing run prints its
//! seed; `set_seed` with it replays the run.

use super::{Interposer, ReplicaActor, World};
use crate::node::OrderingNodeApp;
use crate::service::ServiceOptions;
use hlf_consensus::messages::{Batch, ConsensusMsg, DecisionProof, Request, Vote, VotePhase};
use hlf_crypto::ecdsa::SigningKey;
use hlf_fabric::block::Block;
use hlf_obs::EventKind;
use hlf_obs::{FlightRecorder, Registry};
use hlf_simnet::{FaultPlan, LatencyModel, SimTime};
use hlf_smr::{Application, CounterApp};
use hlf_smr::{Input, NodeCore, Output};
use hlf_smr::runtime::ClusterKeys;
use hlf_smr::{LogEntry, SmrMsg};
use hlf_transport::PeerId;
use hlf_wire::{Bytes, ClientId, NodeId};
use std::any::Any;
use std::cell::{Ref, RefCell};
use std::ops::Deref;
use std::rc::Rc;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;

const N: usize = 4;
const CLIENT: u32 = 7;
const CHECKPOINT_EVERY: u64 = 5;

/// What one replica's interposer has seen, and what it loses.
#[derive(Default)]
struct Seen {
    /// Batch length of every PROPOSE it broadcast, in emission order.
    proposes: Vec<usize>,
    /// Every reply it addressed to a client, `(client, seq, payload)`,
    /// in emission order.
    replies: Vec<(u32, u64, Bytes)>,
    /// `(cid, batch digest)` of every commit, in order.
    commits: Vec<(u64, u64)>,
    /// `from_cid` of every `StateRequest` it broadcast.
    state_requests: Vec<u64>,
    /// The recipient of every `StateReply` it sent.
    state_replies: Vec<NodeId>,
    /// While set, the ACCEPT votes it broadcasts are lost.
    drop_accepts: bool,
    /// When set, its next `StateRequest` round is lost on the way to
    /// every peer.
    lose_state_request: bool,
}

/// The interposer that records into `seen` and loses what it says.
fn recorder(seen: Rc<RefCell<Seen>>) -> Interposer {
    Box::new(move |output| {
        let mut seen = seen.borrow_mut();
        match output {
            Output::ToReplicas(SmrMsg::StateRequest { from_cid }) => {
                seen.state_requests.push(*from_cid);
                return !std::mem::take(&mut seen.lose_state_request);
            }
            Output::ToReplica(to, SmrMsg::StateReply { .. }) => seen.state_replies.push(*to),
            Output::ToReplicas(SmrMsg::Consensus(ConsensusMsg::Propose { batch, .. })) => {
                seen.proposes.push(batch.len());
            }
            Output::ToReplicas(SmrMsg::Consensus(ConsensusMsg::Accept(_))) => {
                return !seen.drop_accepts;
            }
            Output::ToClient(client, SmrMsg::Reply { seq, payload }) => {
                seen.replies.push((client.0, *seq, payload.clone()));
            }
            Output::Committed { cid, digest, .. } => seen.commits.push((*cid, *digest)),
            _ => {}
        }
        true
    })
}

/// One replica as a test reads it: its core, and (through `Deref`)
/// what its interposer has seen.
struct View<'a> {
    core: &'a NodeCore,
    registry: &'a Registry,
    seen: Ref<'a, Seen>,
}

impl Deref for View<'_> {
    type Target = Seen;

    fn deref(&self) -> &Seen {
        &self.seen
    }
}

impl View<'_> {
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

/// Four replicas of the world on a zero-latency LAN, with no frontends.
struct Lan {
    sim: World,
    seen: Vec<Rc<RefCell<Seen>>>,
    registries: Vec<Arc<Registry>>,
    flights: Vec<Arc<FlightRecorder>>,
    /// What each ordering node's block sink has been handed, unsigned
    /// and in cut order (none on counters).
    cut: Vec<Receiver<Block>>,
}

impl Lan {
    /// Four ordering nodes.
    fn new() -> Lan {
        let (sinks, cut): (Vec<_>, Vec<_>) = (0..N).map(|_| channel()).unzip();
        let mut lan = Lan::with_apps(Lan::options(), |options, i, keys| {
            let sink = sinks[i].clone();
            Box::new(OrderingNodeApp::new(options.app_config(i, keys, Registry::new(format!("app-{i}")), None), move |block| {
                let _ = sink.send(block);
            }))
        });
        lan.cut = cut;
        lan
    }

    /// Four replicated counters.
    fn counters() -> Lan {
        Lan::with_apps(Lan::options(), |_, _, _| Box::new(CounterApp::new()))
    }

    /// Four replicated counters that execute tentatively (WHEAT's
    /// delivery at the WRITE quorum, on classic quorums).
    fn tentative_counters() -> Lan {
        Lan::with_apps(Lan::options().with_tentative(true), |_, _, _| Box::new(CounterApp::new()))
    }

    fn options() -> ServiceOptions {
        ServiceOptions::new(1).with_block_size(2).with_request_timeout_ms(200)
    }

    fn with_apps(
        options: ServiceOptions,
        app: impl Fn(&ServiceOptions, usize, &ClusterKeys) -> Box<dyn Application>,
    ) -> Lan {
        let runtime = options.runtime.clone().with_checkpoint_interval(CHECKPOINT_EVERY);
        let keys = ClusterKeys::derive("node-core-test", N);
        let mut lan = Lan {
            sim: World::new(LatencyModel::constant(SimTime::ZERO), 0),
            seen: Vec::new(),
            registries: Vec::new(),
            flights: Vec::new(),
            cut: Vec::new(),
        };
        for i in 0..N {
            let registry = Registry::new(format!("node-{i}"));
            let flight = Arc::new(FlightRecorder::with_capacity(format!("node-{i}"), 1 << 16));
            let config = runtime.node_config(i, &keys, Arc::clone(&registry), Some(Arc::clone(&flight)));
            let seen = Rc::new(RefCell::new(Seen::default()));
            let mut replica = ReplicaActor::new(&config, app(&options, i, &keys), N);
            replica.interpose = Some(recorder(Rc::clone(&seen)));
            lan.sim.add_actor(Box::new(replica));
            lan.seen.push(seen);
            lan.registries.push(registry);
            lan.flights.push(flight);
        }
        // Every replica recovers and arms its tick timer.
        lan.sim.run_until(SimTime::ZERO);
        lan
    }

    fn node(&self, node: usize) -> View<'_> {
        let replica = (self.sim.actor(node) as &dyn Any).downcast_ref::<ReplicaActor>().expect("a replica");
        View {
            core: &replica.core,
            registry: &self.registries[node],
            seen: self.seen[node].borrow(),
        }
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
        self.sim.inject(node, |replica, ctx| {
            let replica = (replica as &mut dyn Any).downcast_mut::<ReplicaActor>().expect("a replica");
            replica.step(input, ctx);
        });
    }

    /// Delivers everything due now, and what that sends in turn.
    fn deliver(&mut self) {
        self.sim.run_until(self.sim.now());
    }

    /// Moves the clock forward by `us`, delivering as it goes; the
    /// replicas tick on their own timers.
    fn advance(&mut self, us: u64) {
        self.sim.advance(SimTime::from_micros(us));
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
        self.deliver();
    }

    /// Batch length of every PROPOSE broadcast, node by node (in these
    /// runs only the leader proposes).
    fn proposes(&self) -> Vec<usize> {
        (0..N).flat_map(|node| self.node(node).proposes.clone()).collect()
    }

    /// Every `StateRequest` broadcast: `(sender, from_cid)`.
    fn state_requests(&self) -> Vec<(usize, u64)> {
        (0..N)
            .flat_map(|node| self.node(node).state_requests.iter().map(move |&cid| (node, cid)).collect::<Vec<_>>())
            .collect()
    }

    /// Loses (`true`) or delivers every ACCEPT vote from now on.
    fn drop_accepts(&mut self, drop: bool) {
        for seen in &self.seen {
            seen.borrow_mut().drop_accepts = drop;
        }
    }

    /// Replica-to-replica frames lost so far: the sends the flight
    /// rings hold without their receive (exact once every frame in
    /// flight has been delivered, and no link is cut).
    fn dropped(&self) -> usize {
        let frames: Vec<u64> = self
            .flights
            .iter()
            .flat_map(|flight| flight.events_since(0).1)
            .filter(|event| event.kind == EventKind::FrameSeq)
            .map(|event| event.c)
            .collect();
        let sent = frames.iter().filter(|&&received| received == 0).count();
        sent - (frames.len() - sent)
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

    /// Runs, and has the client retransmit seqs `1..=last` now and
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
            self.advance(100_000);
        }
    }

    /// Every reachable replica executed each of seqs `1..=last` exactly
    /// once.
    fn assert_executed_once(&self, last: u64) {
        for node in self.reachable() {
            assert_eq!(counter(self, node), last * 8, "replica {node} executed a request twice or missed one");
        }
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

/// What replica `node`'s counter says: 8 per executed request (every
/// payload here is one `u64`).
fn counter(net: &Lan, node: usize) -> u64 {
    let snapshot = net.node(node).core.app().snapshot();
    snapshot.as_slice().first_chunk::<8>().map_or(0, |bytes| u64::from_le_bytes(*bytes))
}

#[test]
fn cut_off_replica_catches_up_from_attested_checkpoint_and_proven_entries() {
    let mut net = Lan::new();

    // Everyone decides two instances together.
    for seq in 1..=2 {
        net.submit(seq);
    }
    assert!((0..N).all(|node| net.last_cid(node) == 2));

    // Replica 3 drops off for 70 decisions. Its peers checkpoint every
    // 5 and prune, so their logs no longer reach back to cid 3: only a
    // checkpoint can close the gap.
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
    net.seen[3].borrow_mut().lose_state_request = true;
    net.submit(73);
    for _ in 0..60 {
        if !net.state_requests().is_empty() {
            break;
        }
        net.advance(100_000);
    }
    // Its first request is lost on the way to the honest peers, and the
    // faulty replica gets its word in first.
    net.input(3, Input::Frame(PeerId::Replica(0), forged_reply(71)));

    // It asked for everything after its last decision (its peers, whose
    // request timed out too, asked from their own frontier). Only the
    // forged answer has come back so far: an entry "proven" by keys
    // outside the cluster and a checkpoint with a single voucher move
    // nothing.
    assert_eq!(net.node(3).state_requests, [3]);
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
        net.advance(100_000);
    }
    assert_eq!(net.node(3).core.stats().state_transfers(), 1);
    assert!((1..N).all(|node| net.last_cid(node) == 73), "view change did not resume ordering");
    // Replica 3 asked from cid 3 twice (the lost request and its retry)
    // and, level again, from 73 when its own request timed out; replicas
    // 1 and 2 asked from 73 at each of their two request timeouts.
    assert_eq!(net.state_requests(), [(1, 73), (1, 73), (2, 73), (2, 73), (3, 3), (3, 3), (3, 73)]);
    assert!((1..N).all(|node| net.node(node).core.stats().state_transfers() == (node == 3) as u64));
    // Had the forged entry for cid 71 been kept, it would have shadowed
    // the real one and forked replica 3's chain. Next block number,
    // previous header hash and buffered envelopes are byte-equal to its
    // peers'.
    let snapshot = net.node(3).core.app().snapshot();
    assert_eq!(snapshot, net.node(1).core.app().snapshot());
    assert_eq!(snapshot, net.node(2).core.app().snapshot());
}

/// A peer that repeats its `StateRequest` gets one answer per request
/// timeout: 100 copies within one timeout cost replica 0 one reply, and
/// a copy after the timeout one more.
#[test]
fn repeated_state_requests_get_one_reply_per_timeout() {
    let mut net = Lan::counters();
    for seq in 1..=3 {
        net.submit(seq);
    }
    let ask = || Input::Frame(PeerId::Replica(3), SmrMsg::StateRequest { from_cid: 2 });
    for _ in 0..100 {
        net.input(0, ask());
        net.advance(1_000);
    }
    assert_eq!(net.node(0).state_replies, [NodeId(3)]);
    net.advance(200_000);
    net.input(0, ask());
    assert_eq!(net.node(0).state_replies, [NodeId(3); 2]);
}

#[test]
fn window_naming_a_foreign_client_is_dropped_whole() {
    let mut net = Lan::counters();
    let window = [request(CLIENT, 1), request(CLIENT + 1, 1), request(CLIENT, 2)];
    net.send_window(CLIENT, &window);
    net.deliver();
    assert_eq!(net.proposes(), Vec::<usize>::new(), "nothing may be proposed");
    assert!((0..N).all(|node| net.last_cid(node) == 0 && net.node(node).executed().is_empty()));
    // Not even its own requests were queued: the next honest window is
    // ordered alone.
    net.send_window(CLIENT, &[request(CLIENT, 3)]);
    net.deliver();
    assert_eq!(net.proposes(), vec![1]);
    assert!((0..N).all(|node| net.node(node).executed() == [(CLIENT, 3)]));
}

#[test]
fn answered_seq_in_a_window_is_replayed_and_the_rest_is_ordered() {
    let mut net = Lan::counters();
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
    net.deliver();
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
    let mut net = Lan::counters();
    let window = SmrMsg::Requests(vec![request(CLIENT, 1)]);
    net.input(0, Input::Frame(PeerId::Client(CLIENT), window.clone()));
    net.deliver();
    for node in 0..N {
        assert_eq!(net.last_cid(node), 1);
        assert_eq!(net.node(node).decide_samples(), 1, "node {node}");
        assert_eq!(net.node(node).core.open_request_stamps(), 0, "node {node}");
    }
    for node in 1..N {
        net.input(node, Input::Frame(PeerId::Client(CLIENT), window.clone()));
    }
    net.deliver();
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
    let mut net = Lan::counters();
    net.send_window(CLIENT, &[request(CLIENT, 1), request(CLIENT, 1), request(CLIENT, 2)]);
    // Seq 2 is now pending (in flight at the leader) everywhere.
    net.send_window(CLIENT, &[request(CLIENT, 2), request(CLIENT, 3)]);
    net.deliver();
    for node in 0..N {
        assert_eq!(net.node(node).core.stats().executed_requests(), 3);
        assert_eq!(net.node(node).executed(), [(CLIENT, 1), (CLIENT, 2), (CLIENT, 3)]);
    }
}

#[test]
fn idle_leader_proposes_a_window_as_one_batch() {
    let mut net = Lan::counters();
    let window: Vec<Request> = (1..=7).map(|seq| request(CLIENT, seq)).collect();
    net.send_window(CLIENT, &window);
    assert_eq!(net.proposes(), vec![7], "one PROPOSE carrying the whole window");
    net.deliver();
    assert_eq!(net.proposes(), vec![7]);
    assert!((0..N).all(|node| net.last_cid(node) == 1));
}

#[test]
fn any_window_size_orders_every_request_once_in_seq_order() {
    const PER_CLIENT: u64 = 250;
    let clients = [CLIENT, CLIENT + 1];
    for window in [1usize, 7, 64] {
        let mut net = Lan::counters();
        let seqs: Vec<u64> = (1..=PER_CLIENT).collect();
        // The two clients take turns, a window each; the replicas run
        // consensus only once all 500 requests have been handed in.
        for chunk in seqs.chunks(window) {
            for client in clients {
                let requests: Vec<Request> = chunk.iter().map(|&seq| request(client, seq)).collect();
                net.send_window(client, &requests);
            }
        }
        net.deliver();
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

/// Exactly once through a state transfer and a regency change, on a
/// lossy network (seeded). Client 7 hands seq 1 to replica 1 while it
/// is cut off, then to the others, which decide it (with seqs 2 and 3)
/// without replica 1. Then the leader crashes and replica 1 leads
/// regency 1: the free choice of its SYNC re-proposes seq 1 from its
/// pool, and it catches up on cids 1 to 3 by state transfer before it
/// votes. Seq 1 is decided a second time, and every replica skips it
/// there: each request executes once on every replica. The seed
/// matters: on most, replica 1's first request timeout fetches cids 1
/// to 3 from a peer's log before the regency change, and seq 1 is never
/// decided again.
#[test]
fn request_decided_again_after_a_transfer_and_a_regency_executes_once() {
    let net = regency_run(3, 0.03);
    assert_eq!(net.node(1).core.stats().state_transfers(), 1, "replica 1 caught up by transfer");
    for node in 1..N {
        assert_eq!(counter(&net, node), 4 * 8, "replica {node} executed a request twice or missed one");
        assert_eq!(net.node(node).core.stats().duplicates_skipped(), 1, "replica {node}");
    }
}

/// The regency schedule at `loss` on `seed`: replica 1 is cut off while
/// the others decide seqs 1 to 3 (it holds seq 1 in its pool), then it
/// heals just as the leader, replica 0, crashes, and seq 4 arrives. Runs until
/// replicas 1 to 3 have each executed all four, or for 100 × 100 ms.
fn regency_run(seed: u64, loss: f64) -> Lan {
    let mut net = Lan::counters();
    net.sim.set_seed(seed);
    net.sim.set_faults(FaultPlan::none().drop_probability(loss));
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
        net.advance(100_000);
    }
    assert_eq!(net.last_cid(1), 0, "seed {seed}: replica 1 decided while cut off");

    net.set_links(1, true);
    net.sim.crash(0);
    net.send_window(CLIENT, &[request(CLIENT, 4)]);
    net.deliver();
    for _ in 0..100 {
        if (1..N).all(|node| counter(&net, node) >= 4 * 8) {
            break;
        }
        net.advance(100_000);
    }
    net
}

/// Forced STOP before PROPOSE (seeded 2 % loss): the window of seqs 2
/// and 3 reaches the followers but not the leader, and every timer runs
/// out before the leader hears of it. Replica 1 leads regency 1 and
/// orders the window from its pool; the leader's late copy, and every
/// retransmission, executes nowhere again.
#[test]
fn forced_stop_before_propose_executes_each_request_once() {
    let mut net = Lan::counters();
    net.sim.set_seed(0x5709_0001);
    net.sim.set_faults(FaultPlan::none().drop_probability(0.02));
    net.submit(1);
    let window = SmrMsg::Requests(vec![request(CLIENT, 2), request(CLIENT, 3)]);
    for node in 1..N {
        net.input(node, Input::Frame(PeerId::Client(CLIENT), window.clone()));
    }
    net.force_stop(1);
    net.deliver();
    net.input(0, Input::Frame(PeerId::Client(CLIENT), window));
    net.deliver();
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
    let mut net = Lan::counters();
    net.sim.set_seed(0x5709_0002);
    net.submit(1);
    net.drop_accepts(true);
    net.send_window(CLIENT, &[request(CLIENT, 2), request(CLIENT, 3)]);
    net.deliver();
    assert!((0..N).all(|node| net.last_cid(node) == 1 && counter(&net, node) == 8));
    net.drop_accepts(false);
    net.force_stop(1);
    net.deliver();
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
    let mut net = Lan::tentative_counters();
    net.sim.set_seed(0x5709_0003);
    net.submit(1);
    net.drop_accepts(true);
    net.send_window(CLIENT, &[request(CLIENT, 2), request(CLIENT, 3)]);
    net.deliver();
    assert!((0..N).all(|node| net.last_cid(node) == 1 && counter(&net, node) == 3 * 8));
    net.drop_accepts(false);
    net.force_stop(1);
    net.deliver();
    net.settle(3);
    net.assert_executed_once(3);
    assert!((0..N).all(|node| net.last_cid(node) == 2));
}

/// WHEAT: replica 3 executes seq 2 tentatively at its WRITE quorum, then
/// is cut off while its peers decide it (and seqs 3 and 4). A forced
/// STOP's SYNC shows it the gap, and it catches up on cids 2 to 4 from a
/// peer's log: cid 2 confirms its tentative execution instead of running
/// seq 2 a second time.
#[test]
fn tentatively_executed_cid_caught_up_by_transfer_executes_once() {
    let mut net = Lan::tentative_counters();
    net.submit(1);
    net.send_window(CLIENT, &[request(CLIENT, 2)]);
    while counter(&net, 3) < 2 * 8 && net.sim.step() {}
    assert_eq!(net.last_cid(3), 1, "replica 3 executed seq 2 only tentatively");
    net.set_links(3, false);
    net.submit(3);
    net.submit(4);
    net.set_links(3, true);
    net.force_stop(1);
    net.advance(5_000_000);
    for node in 0..N {
        assert_eq!(counter(&net, node), 4 * 8, "replica {node} executed a request twice or missed one");
    }
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
    let mut net = Lan::counters();
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
    net.deliver();
    net.settle(42);
    net.assert_executed_once(42);
    assert!(net.node(3).core.stats().state_transfers() >= 1, "replica 3 caught up by transfer");
}

/// One client's ten sequential requests, over seeded 5 % loss between
/// the replicas: each is answered with the count that includes it, by
/// more than `f` replicas, and executes once on every replica.
#[test]
fn message_loss_is_tolerated() {
    let net = counter_run(0x1055_0005, 0.05);
    net.assert_executed_once(10);
    for seq in 1..=10u64 {
        let repliers = (0..N)
            .filter(|&node| net.node(node).replies.iter().any(|(_, s, _)| *s == seq))
            .count();
        assert!(repliers > 1, "seq {seq} answered by {repliers} replica(s)");
    }
    for node in 0..N {
        for (client, seq, reply) in &net.node(node).replies {
            assert_eq!((*client, reply.as_ref()), (CLIENT, &(seq * 8).to_le_bytes()[..]), "replica {node}, seq {seq}");
        }
    }
}

/// The counter schedule at `loss` on `seed`: one client's ten sequential
/// requests, each submitted and settled before the next.
fn counter_run(seed: u64, loss: f64) -> Lan {
    let mut net = Lan::counters();
    net.sim.set_seed(seed);
    net.sim.set_faults(FaultPlan::none().drop_probability(loss));
    for seq in 1..=10 {
        net.submit(seq);
        net.settle(seq);
    }
    net
}

/// On this seed one replica loses its ACCEPT quorum for the last
/// instance, and no later instance runs to show it the gap. At its
/// first request timeout it asks every peer for its frontier's value,
/// adopts the proven reply, and ends level with them.
#[test]
fn replica_that_missed_the_last_decision_fetches_it() {
    let net = counter_run(25, 0.05);
    net.assert_executed_once(10);
    assert!((0..N).all(|node| net.last_cid(node) == net.last_cid(0)));
}

/// A lossy run of the whole-node world is a function of its seed: run
/// twice, every replica commits the same instances and emits the same
/// replies, byte for byte; another seed loses other frames. (The
/// whole-node counterpart of
/// `consensus::testing::tests::seeded_lossy_random_run_replays_exactly`;
/// a failing run prints the seed that replays it.)
#[test]
fn seeded_lossy_run_replays_exactly() {
    type Trace = (Vec<(Vec<(u64, u64)>, Vec<(u32, u64, Bytes)>)>, usize);
    let run = |seed: u64| -> Trace {
        let net = counter_run(seed, 0.05);
        let seen = (0..N)
            .map(|node| (net.node(node).commits.clone(), net.node(node).replies.clone()))
            .collect();
        (seen, net.dropped())
    };
    let first = run(0x5eed);
    assert!(first.1 > 0, "the run lost no frame");
    assert!(first.0.iter().all(|(commits, _)| commits.len() >= 10), "a replica fell behind");
    assert_eq!(first, run(0x5eed));
    assert_ne!(first.1, run(0x5eed + 1).1, "another seed lost as many frames");
}

/// Sixteen envelopes in one window, over seeded 3 % loss between the
/// replicas: every replica cuts the same chain, and it holds each
/// envelope exactly once. These replicas push to no frontend: a lost
/// block push is never re-sent (ROADMAP item 5), and this does not test
/// it.
#[test]
fn ordering_tolerates_message_loss() {
    let chains = ordering_run(0x1055_0003, 0.03);
    for (node, chain) in chains.iter().enumerate() {
        assert_eq!(chain, &chains[0], "replica {node} cut another chain");
    }
    let mut ordered: Vec<Bytes> = chains[0].iter().flat_map(|b| b.envelopes.iter().cloned()).collect();
    ordered.sort();
    let mut sent: Vec<Bytes> = (1..=16).map(|seq| request(CLIENT, seq).payload).collect();
    sent.sort();
    assert_eq!(ordered, sent, "the chain does not hold each envelope exactly once");
}

/// The ordering schedule at `loss` on `seed`: sixteen envelopes in one
/// window. Returns each replica's cut chain once every chain holds 16
/// envelopes, or after 200 × 100 ms.
fn ordering_run(seed: u64, loss: f64) -> Vec<Vec<Block>> {
    let mut net = Lan::new();
    net.sim.set_seed(seed);
    net.sim.set_faults(FaultPlan::none().drop_probability(loss));
    let window: Vec<Request> = (1..=16).map(|seq| request(CLIENT, seq)).collect();
    net.send_window(CLIENT, &window);
    net.deliver();
    let mut chains: Vec<Vec<Block>> = vec![Vec::new(); N];
    for _ in 0..200 {
        for (chain, cut) in chains.iter_mut().zip(&net.cut) {
            chain.extend(cut.try_iter());
        }
        if chains.iter().all(|chain| envelopes(chain) >= 16) {
            break;
        }
        net.advance(100_000);
    }
    chains
}

fn envelopes(chain: &[Block]) -> usize {
    chain.iter().map(|b| b.envelopes.len()).sum()
}

/// A fixed slice of each lossy schedule's seeds (ROADMAP item 18): the
/// counter schedule's seeds on which a replica ended a decision behind,
/// the ordering schedule's on which replica 0 cut an empty chain, and
/// the regency schedule's first hundred (eleven of them stalled), when
/// a lost STOP, STOP-DATA or SYNC was never sent again.
#[test]
fn counter_slice_levels_every_replica() {
    let slice = [(0.05, &[239, 318, 382, 502, 516, 558, 589][..]), (0.03, &[160, 471, 589][..])];
    let mut failed = Vec::new();
    for (loss, seeds) in slice {
        for &seed in seeds {
            let net = counter_run(seed, loss);
            let level = (0..N).all(|node| counter(&net, node) == 80 && net.last_cid(node) == net.last_cid(0));
            if !level {
                failed.push((loss, seed));
            }
        }
    }
    assert!(failed.is_empty(), "counter schedule: (loss, seed) {failed:?} left a replica behind");
}

/// See `counter_slice_levels_every_replica`.
#[test]
fn ordering_slice_cuts_every_envelope() {
    let slice = [(0.05, &[122, 248, 363, 400][..]), (0.03, &[363][..])];
    let mut failed = Vec::new();
    for (loss, seeds) in slice {
        for &seed in seeds {
            if !ordering_run(seed, loss).iter().all(|chain| envelopes(chain) == 16) {
                failed.push((loss, seed));
            }
        }
    }
    assert!(failed.is_empty(), "ordering schedule: (loss, seed) {failed:?} cut a short chain");
}

/// See `counter_slice_levels_every_replica`.
#[test]
fn regency_slice_executes_seq_4_everywhere() {
    let failed: Vec<u64> = (0..100)
        .filter(|&seed| {
            let net = regency_run(seed, 0.03);
            !(1..N).all(|node| counter(&net, node) == 4 * 8)
        })
        .collect();
    assert!(failed.is_empty(), "regency schedule: seeds {failed:?} left seq 4 unexecuted");
}

/// A client streams windows of 8, one every 2.5 ms over 1 ms links, so
/// each window arrives while the instance before it is still running. A
/// stamp stays until its request decides and the next window's first
/// request takes the free slot, so the stream is sampled all along: at
/// least once per 4 decisions on every node. (A slot that every newer
/// seq overwrote measured only the stream's last request: 1 sample in
/// 126 decisions.)
#[test]
fn streamed_windows_are_sampled_all_along() {
    const WINDOWS: u64 = 150;
    let mut net = Lan::counters();
    net.sim.set_latency(LatencyModel::constant(SimTime::from_micros(1_000)));
    let window = |k: u64| -> Vec<Request> { (8 * k + 1..=8 * k + 8).map(|seq| request(CLIENT, seq)).collect() };
    for k in 0..WINDOWS {
        net.send_window(CLIENT, &window(k));
        net.advance(2_500);
    }
    net.advance(100_000);
    for node in 0..N {
        assert_eq!(net.node(node).executed().len() as u64, 8 * WINDOWS, "node {node}");
        let (decided, samples) = (net.last_cid(node), net.node(node).decide_samples());
        assert!(decided >= 100, "node {node}: {decided} decisions");
        assert!(4 * samples >= decided, "node {node}: {samples} samples in {decided} decisions");
        assert_eq!(net.node(node).core.open_request_stamps(), 0, "node {node}");
    }
}
