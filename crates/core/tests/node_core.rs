//! Four sans-io nodes (`NodeCore` + an application + `MemoryLog`)
//! driven from one in-memory queue with a counter for a clock — no
//! threads, no sleeps.
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
use hlf_smr::app::{Application, CounterApp};
use hlf_smr::core::{Input, NodeCore, Output};
use hlf_smr::runtime::ClusterKeys;
use hlf_smr::storage::MemoryLog;
use hlf_smr::wire::{LogEntry, SmrMsg};
use hlf_transport::PeerId;
use hlf_wire::{Bytes, ClientId, NodeId};
use ordering_core::node::OrderingNodeApp;
use ordering_core::service::ServiceOptions;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

const N: usize = 4;
const CLIENT: u32 = 7;
const CHECKPOINT_EVERY: u64 = 5;

struct Net {
    cores: Vec<NodeCore>,
    /// Per node: its metrics registry.
    registries: Vec<Arc<hlf_obs::Registry>>,
    queue: VecDeque<(usize, PeerId, SmrMsg)>,
    now_us: u64,
    /// Nodes whose links are down: nothing reaches or leaves them.
    cut: HashSet<usize>,
    /// Every `StateRequest` broadcast: `(sender, from_cid)`.
    state_requests: Vec<(usize, u64)>,
    /// When non-empty, the next `StateRequest` round is lost on the
    /// way to the honest peers and answered by these frames alone (the
    /// faulty replica getting its word in first).
    forged_replies: Vec<(PeerId, SmrMsg)>,
    /// Batch length of every PROPOSE broadcast, in emission order.
    proposes: Vec<usize>,
    /// Per node: every reply it addressed to a client, `(client, seq,
    /// payload)`, in emission order.
    replies: Vec<Vec<(u32, u64, Bytes)>>,
    /// Per node: `(cid, batch digest)` of every commit, in order.
    commits: Vec<Vec<(u64, u64)>>,
}

impl Net {
    /// Four ordering nodes.
    fn new() -> Net {
        Net::with_apps(|options, i, keys| {
            Box::new(OrderingNodeApp::new(options.app_config(i, keys, None, None), |_| {}))
        })
    }

    /// Four replicated counters.
    fn counters() -> Net {
        Net::with_apps(|_, _, _| Box::new(CounterApp::new()))
    }

    fn with_apps(app: impl Fn(&ServiceOptions, usize, &ClusterKeys) -> Box<dyn Application>) -> Net {
        let options = ServiceOptions::new(1)
            .with_block_size(2)
            .with_request_timeout_ms(200);
        let runtime = options
            .runtime_options()
            .with_checkpoint_interval(CHECKPOINT_EVERY);
        let keys = ClusterKeys::derive("node-core-test", N);
        let registries: Vec<_> = (0..N).map(|i| hlf_obs::Registry::new(format!("node-{i}"))).collect();
        let cores = (0..N)
            .map(|i| {
                let config = runtime.node_config(i, &keys, Some(Arc::clone(&registries[i])), None);
                NodeCore::new(&config, app(&options, i, &keys), Box::new(MemoryLog::new()))
            })
            .collect();
        Net {
            cores,
            registries,
            queue: VecDeque::new(),
            now_us: 0,
            cut: HashSet::new(),
            state_requests: Vec::new(),
            forged_replies: Vec::new(),
            proposes: Vec::new(),
            replies: vec![Vec::new(); N],
            commits: vec![Vec::new(); N],
        }
    }

    fn reachable(&self) -> Vec<usize> {
        (0..N).filter(|node| !self.cut.contains(node)).collect()
    }

    fn last_cid(&self, node: usize) -> u64 {
        self.cores[node].stats().last_cid()
    }

    fn step(&mut self, node: usize, input: Input) {
        let mut out = Vec::new();
        self.cores[node].step(self.now_us, input, &mut out);
        let from = PeerId::Replica(node as u32);
        for output in out {
            match output {
                Output::ToReplicas(msg) => {
                    if let SmrMsg::StateRequest { from_cid } = msg {
                        self.state_requests.push((node, from_cid));
                        if !self.forged_replies.is_empty() {
                            for (forger, reply) in std::mem::take(&mut self.forged_replies) {
                                self.now_us += 50;
                                self.step(node, Input::Frame(forger, reply));
                            }
                            continue;
                        }
                    }
                    if let SmrMsg::Consensus(ConsensusMsg::Propose { batch, .. }) = &msg {
                        self.proposes.push(batch.len());
                    }
                    for to in (0..N).filter(|to| *to != node) {
                        self.queue.push_back((to, from, msg.clone()));
                    }
                }
                Output::ToReplica(to, msg) => self.queue.push_back((to.as_usize(), from, msg)),
                Output::ToClient(client, SmrMsg::Reply { seq, payload }) => {
                    self.replies[node].push((client.0, seq, payload));
                }
                Output::Committed { cid, digest, .. } => self.commits[node].push((cid, digest)),
                _ => {}
            }
        }
    }

    /// Delivers queued frames (dropping those on a cut link) until none
    /// is left. Each delivery advances the clock by 50 µs.
    fn run(&mut self) {
        while let Some((to, from, msg)) = self.queue.pop_front() {
            let PeerId::Replica(sender) = from else { unreachable!() };
            if self.cut.contains(&to) || self.cut.contains(&(sender as usize)) {
                continue;
            }
            self.now_us += 50;
            self.step(to, Input::Frame(from, msg));
        }
    }

    /// Client `sender` hands one window to every reachable replica.
    /// Nothing the replicas send in response is delivered yet.
    fn send_window(&mut self, sender: u32, window: &[Request]) {
        for node in self.reachable() {
            self.now_us += 50;
            self.step(node, Input::Frame(PeerId::Client(sender), SmrMsg::Requests(window.to_vec())));
        }
    }

    /// The client submits one envelope to every reachable replica.
    fn submit(&mut self, seq: u64) {
        self.send_window(CLIENT, &[request(CLIENT, seq)]);
        self.run();
    }

    /// Samples `node` has recorded in `smr.node.request_decide_us`.
    fn decide_samples(&self, node: usize) -> u64 {
        let snapshot = self.registries[node].snapshot();
        snapshot.histogram("smr.node.request_decide_us").map_or(0, |h| h.count)
    }

    /// `(client, seq)` of every reply `node` emitted, in order.
    fn executed(&self, node: usize) -> Vec<(u32, u64)> {
        self.replies[node].iter().map(|(client, seq, _)| (*client, *seq)).collect()
    }

    /// Moves the clock forward and ticks every reachable replica.
    fn tick(&mut self, advance_us: u64) {
        self.now_us += advance_us;
        for node in self.reachable() {
            self.step(node, Input::Tick);
        }
        self.run();
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
    net.cut.insert(3);
    for seq in 3..=72 {
        net.submit(seq);
    }
    assert!((0..3).all(|node| net.last_cid(node) == 72));
    assert_eq!(net.last_cid(3), 2);

    // It comes back just as the leader (replica 0, the faulty one)
    // falls silent. The next request can only be ordered after a view
    // change, whose SYNC tells replica 3 how far behind it is.
    net.cut.remove(&3);
    net.cut.insert(0);
    net.forged_replies = vec![(PeerId::Replica(0), forged_reply(71))];
    net.submit(73);
    for _ in 0..60 {
        if !net.state_requests.is_empty() {
            break;
        }
        net.tick(100_000);
    }

    // It asked for everything after its last decision. Only the forged
    // answer has come back so far: an entry "proven" by keys outside
    // the cluster and a checkpoint with a single voucher move nothing.
    assert_eq!(net.state_requests, vec![(3, 3)]);
    assert_eq!(net.last_cid(3), 2);
    assert_eq!(net.cores[3].stats().state_transfers(), 0);

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
    assert_eq!(net.cores[3].stats().state_transfers(), 1);
    assert!((1..N).all(|node| net.last_cid(node) == 73), "view change did not resume ordering");
    assert!(net.state_requests.iter().all(|(node, _)| *node == 3));
    // Had the forged entry for cid 71 been kept, it would have shadowed
    // the real one and forked replica 3's chain. Next block number,
    // previous header hash and buffered envelopes are byte-equal to its
    // peers'.
    let snapshot = net.cores[3].app().snapshot();
    assert_eq!(snapshot, net.cores[1].app().snapshot());
    assert_eq!(snapshot, net.cores[2].app().snapshot());
}

#[test]
fn window_naming_a_foreign_client_is_dropped_whole() {
    let mut net = Net::counters();
    let window = [request(CLIENT, 1), request(CLIENT + 1, 1), request(CLIENT, 2)];
    net.send_window(CLIENT, &window);
    net.run();
    assert_eq!(net.proposes, Vec::<usize>::new(), "nothing may be proposed");
    assert!((0..N).all(|node| net.last_cid(node) == 0 && net.executed(node).is_empty()));
    // Not even its own requests were queued: the next honest window is
    // ordered alone.
    net.send_window(CLIENT, &[request(CLIENT, 3)]);
    net.run();
    assert_eq!(net.proposes, vec![1]);
    assert!((0..N).all(|node| net.executed(node) == [(CLIENT, 3)]));
}

#[test]
fn answered_seq_in_a_window_is_replayed_and_the_rest_is_ordered() {
    let mut net = Net::counters();
    net.submit(1);
    let answer = net.replies[2][0].clone();
    assert_eq!((answer.0, answer.1), (CLIENT, 1));

    // A retransmission of seq 1 rides in a window with a new request.
    net.send_window(CLIENT, &[request(CLIENT, 1), request(CLIENT, 2)]);
    for node in 0..N {
        // Answered from the reply cache at once, byte for byte...
        assert_eq!(net.replies[node].len(), 2);
        assert_eq!(net.replies[node][1], net.replies[node][0]);
    }
    assert_eq!(net.replies[2][1], answer);
    net.run();
    // ...and not ordered again, while seq 2 is.
    assert_eq!(net.proposes, vec![1, 1]);
    for node in 0..N {
        assert_eq!(net.cores[node].stats().executed_requests(), 2);
        assert_eq!(net.executed(node), [(CLIENT, 1), (CLIENT, 1), (CLIENT, 2)]);
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
    net.now_us += 50;
    net.step(0, Input::Frame(PeerId::Client(CLIENT), window.clone()));
    net.run();
    for node in 0..N {
        assert_eq!(net.last_cid(node), 1);
        assert_eq!(net.decide_samples(node), 1, "node {node}");
        assert_eq!(net.cores[node].open_request_stamps(), 0, "node {node}");
    }
    for node in 1..N {
        net.now_us += 50;
        net.step(node, Input::Frame(PeerId::Client(CLIENT), window.clone()));
    }
    net.run();
    for node in 0..N {
        assert_eq!(net.cores[node].open_request_stamps(), 0, "stale stamp on node {node}");
    }
    // The usual order of arrival — client copy first, PROPOSE second —
    // still gives one sample per request, clocked from the client copy.
    net.submit(2);
    for node in 0..N {
        assert_eq!(net.decide_samples(node), 2, "node {node}");
        assert_eq!(net.cores[node].open_request_stamps(), 0, "node {node}");
    }
}

#[test]
fn duplicates_inside_and_across_windows_are_ordered_once() {
    let mut net = Net::counters();
    net.send_window(CLIENT, &[request(CLIENT, 1), request(CLIENT, 1), request(CLIENT, 2)]);
    // Seq 2 is now pending (in flight at the leader) everywhere.
    net.send_window(CLIENT, &[request(CLIENT, 2), request(CLIENT, 3)]);
    net.run();
    for node in 0..N {
        assert_eq!(net.cores[node].stats().executed_requests(), 3);
        assert_eq!(net.executed(node), [(CLIENT, 1), (CLIENT, 2), (CLIENT, 3)]);
    }
}

#[test]
fn idle_leader_proposes_a_window_as_one_batch() {
    let mut net = Net::counters();
    let window: Vec<Request> = (1..=7).map(|seq| request(CLIENT, seq)).collect();
    net.send_window(CLIENT, &window);
    assert_eq!(net.proposes, vec![7], "one PROPOSE carrying the whole window");
    net.run();
    assert_eq!(net.proposes, vec![7]);
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
        net.run();
        for node in 0..N {
            let executed = net.executed(node);
            assert_eq!(executed.len() as u64, 2 * PER_CLIENT, "window {window}, node {node}");
            for client in clients {
                let of_client: Vec<u64> = executed
                    .iter()
                    .filter(|(c, _)| *c == client)
                    .map(|(_, seq)| *seq)
                    .collect();
                assert_eq!(of_client, seqs, "window {window}, node {node}, client {client}");
            }
            assert_eq!(net.commits[node], net.commits[0], "window {window}: node {node}'s chain differs");
        }
        assert!(!net.commits[0].is_empty());
    }
}
