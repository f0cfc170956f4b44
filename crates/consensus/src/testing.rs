//! A deterministic in-memory cluster harness for protocol tests.
//!
//! [`Cluster`] owns `n` [`Replica`]s and a message queue. Messages are
//! delivered one at a time — in FIFO order or in a seeded random order —
//! so every interleaving a test explores is reproducible. Crash faults,
//! message drops, and manual clock advancement are supported; Byzantine
//! behaviours are injected by crafting messages directly (see the
//! integration tests).

use crate::messages::{Batch, ConsensusMsg, Request};
use crate::quorum::QuorumSystem;
use crate::replica::{Action, Config, Replica};
use hlf_crypto::ecdsa::{PinnedKey, SigningKey};
use hlf_wire::NodeId;
use std::collections::{HashSet, VecDeque};

/// A queued in-flight message.
#[derive(Clone, Debug)]
struct InFlight {
    from: NodeId,
    to: NodeId,
    msg: ConsensusMsg,
}

/// An event observed at a replica, in observation order.
#[derive(Clone, Debug, PartialEq)]
pub enum Observed {
    /// Tentative (WHEAT) delivery.
    Tentative(u64, Batch),
    /// Rollback of a tentative delivery.
    Rollback(u64),
    /// Final commit.
    Commit(u64, Batch),
    /// The replica asked for state transfer.
    Behind(u64),
}

/// Deterministic multi-replica test cluster.
pub struct Cluster {
    replicas: Vec<Replica>,
    queue: VecDeque<InFlight>,
    crashed: HashSet<NodeId>,
    /// Observed deliveries per replica.
    observed: Vec<Vec<Observed>>,
    now_ms: u64,
    rng_state: u64,
    /// When `Some(p)`, each delivery is dropped with probability `p`.
    drop_probability: Option<f64>,
    /// When true, pop a random queue element instead of the front.
    random_order: bool,
    steps: u64,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("n", &self.replicas.len())
            .field("queued", &self.queue.len())
            .field("now_ms", &self.now_ms)
            .finish()
    }
}

/// Deterministic key material for a test cluster of size `n`: the
/// signing keys and the public keys, pinned once (clone them into each
/// replica's [`Config`]; clones share the tables).
pub fn test_keys(n: usize) -> (Vec<SigningKey>, Vec<PinnedKey>) {
    let signing: Vec<SigningKey> = (0..n)
        .map(|i| SigningKey::from_seed(format!("cluster-key-{i}").as_bytes()))
        .collect();
    let pinned = signing.iter().map(|k| PinnedKey::new(*k.verifying_key())).collect();
    (signing, pinned)
}

impl Cluster {
    /// Builds a cluster with per-replica configs derived by `configure`.
    #[expect(clippy::indexing_slicing, reason = "deterministic test harness — `test_keys(n)` returns exactly `n` keys for indices `0..n`")]
    pub fn with_configs(
        n: usize,
        quorums: QuorumSystem,
        configure: impl Fn(Config) -> Config,
    ) -> Cluster {
        let (signing, verifying) = test_keys(n);
        let replicas = (0..n)
            .map(|i| {
                let cfg = Config::new(
                    NodeId(i as u32),
                    quorums.clone(),
                    verifying.clone(),
                    signing[i].clone(),
                );
                Replica::new(configure(cfg))
            })
            .collect();
        Cluster {
            replicas,
            queue: VecDeque::new(),
            crashed: HashSet::new(),
            observed: vec![Vec::new(); n],
            now_ms: 0,
            rng_state: 0x9e3779b97f4a7c15,
            drop_probability: None,
            random_order: false,
            steps: 0,
        }
    }

    /// A classic BFT-SMaRt cluster (`n`, `f`).
    ///
    /// # Panics
    ///
    /// Panics on invalid `(n, f)`.
    #[expect(clippy::unwrap_used, reason = "deterministic test harness — an out-of-range replica index is harness misuse and must fail the test loudly")]
    pub fn classic(n: usize, f: usize) -> Cluster {
        Cluster::with_configs(n, QuorumSystem::classic(n, f).unwrap(), |c| c)
    }

    /// A WHEAT cluster with tentative execution enabled.
    ///
    /// # Panics
    ///
    /// Panics on invalid `(n, f)`.
    #[expect(clippy::unwrap_used, reason = "deterministic test harness — an out-of-range replica index is harness misuse and must fail the test loudly")]
    pub fn wheat(n: usize, f: usize) -> Cluster {
        Cluster::with_configs(n, QuorumSystem::wheat_binary(n, f).unwrap(), |c| {
            c.with_tentative_execution(true)
        })
    }

    /// Enables seeded random delivery order (explores interleavings).
    pub fn randomize_order(&mut self, seed: u64) {
        self.random_order = true;
        self.rng_state = seed;
    }

    /// Drops each queued delivery with probability `p` (seeded).
    pub fn set_drop_probability(&mut self, p: f64, seed: u64) {
        self.drop_probability = Some(p);
        self.rng_state = seed;
    }

    /// Crashes a replica: it receives nothing and sends nothing.
    pub fn crash(&mut self, node: NodeId) {
        self.crashed.insert(node);
    }

    /// Current simulated time.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Immutable replica access.
    #[expect(clippy::indexing_slicing, reason = "deterministic test harness — an out-of-range replica index is harness misuse and must fail the test loudly")]
    pub fn replica(&self, i: usize) -> &Replica {
        &self.replicas[i]
    }

    /// Mutable replica access (e.g. to attach observability with
    /// [`Replica::attach_obs`] before driving traffic).
    #[expect(clippy::indexing_slicing, reason = "deterministic test harness — an out-of-range replica index is harness misuse and must fail the test loudly")]
    pub fn replica_mut(&mut self, i: usize) -> &mut Replica {
        &mut self.replicas[i]
    }

    /// Number of replicas.
    pub fn n(&self) -> usize {
        self.replicas.len()
    }

    /// Events observed at replica `i`.
    #[expect(clippy::indexing_slicing, reason = "deterministic test harness — an out-of-range replica index is harness misuse and must fail the test loudly")]
    pub fn observed(&self, i: usize) -> &[Observed] {
        &self.observed[i]
    }

    /// Final commits observed at replica `i`, in order.
    #[expect(clippy::indexing_slicing, reason = "deterministic test harness — an out-of-range replica index is harness misuse and must fail the test loudly")]
    pub fn decisions(&self, i: usize) -> Vec<(u64, Batch)> {
        self.observed[i]
            .iter()
            .filter_map(|o| match o {
                Observed::Commit(cid, batch) => Some((*cid, batch.clone())),
                _ => None,
            })
            .collect()
    }

    /// Total messages processed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    fn next_rand(&mut self) -> u64 {
        self.rng_state = self.rng_state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Submits a request to a single replica.
    #[expect(clippy::indexing_slicing, reason = "deterministic test harness — an out-of-range replica index is harness misuse and must fail the test loudly")]
    pub fn submit_to(&mut self, i: usize, request: Request) {
        if self.crashed.contains(&NodeId(i as u32)) {
            return;
        }
        let now = self.now_ms;
        let actions = self.replicas[i].on_request(now, request);
        self.apply_actions(i, actions);
    }

    /// Submits a request to every replica (as BFT-SMaRt clients do).
    pub fn submit_to_all(&mut self, request: Request) {
        for i in 0..self.replicas.len() {
            self.submit_to(i, request.clone());
        }
    }

    /// Advances the clock and ticks every live replica.
    #[expect(clippy::indexing_slicing, reason = "deterministic test harness — an out-of-range replica index is harness misuse and must fail the test loudly")]
    pub fn advance_time(&mut self, delta_ms: u64) {
        self.now_ms += delta_ms;
        let now = self.now_ms;
        for i in 0..self.replicas.len() {
            if self.crashed.contains(&NodeId(i as u32)) {
                continue;
            }
            let actions = self.replicas[i].on_tick(now);
            self.apply_actions(i, actions);
        }
    }

    /// Feeds a hand-crafted message into a replica (Byzantine tests).
    #[expect(clippy::indexing_slicing, reason = "deterministic test harness — an out-of-range replica index is harness misuse and must fail the test loudly")]
    pub fn inject(&mut self, to: usize, from: NodeId, msg: ConsensusMsg) {
        let now = self.now_ms;
        let actions = self.replicas[to].on_message(now, from, msg);
        self.apply_actions(to, actions);
    }

    /// Simulates completed application-level state transfer at `i`.
    #[expect(clippy::indexing_slicing, reason = "deterministic test harness — an out-of-range replica index is harness misuse and must fail the test loudly")]
    pub fn install_state(&mut self, i: usize, last_decided: u64) {
        let now = self.now_ms;
        let actions = self.replicas[i].install_state(now, last_decided);
        self.apply_actions(i, actions);
    }

    #[expect(clippy::indexing_slicing, reason = "deterministic test harness — an out-of-range replica index is harness misuse and must fail the test loudly")]
    fn apply_actions(&mut self, from_index: usize, actions: Vec<Action>) {
        let from = NodeId(from_index as u32);
        if self.crashed.contains(&from) {
            return;
        }
        for action in actions {
            match action {
                Action::Broadcast(msg) => {
                    for i in 0..self.replicas.len() {
                        if i != from_index {
                            self.queue.push_back(InFlight {
                                from,
                                to: NodeId(i as u32),
                                msg: msg.clone(),
                            });
                        }
                    }
                }
                Action::Send(to, msg) => {
                    self.queue.push_back(InFlight { from, to, msg });
                }
                Action::DeliverTentative { cid, batch } => {
                    self.observed[from_index].push(Observed::Tentative(cid, batch));
                }
                Action::Rollback { cid } => {
                    self.observed[from_index].push(Observed::Rollback(cid));
                }
                Action::Commit { cid, batch, .. } => {
                    self.observed[from_index].push(Observed::Commit(cid, batch));
                }
                Action::Behind { target_cid } => {
                    self.observed[from_index].push(Observed::Behind(target_cid));
                }
            }
        }
    }

    /// Delivers one queued message. Returns `false` when idle.
    #[expect(clippy::indexing_slicing, reason = "deterministic test harness — an out-of-range replica index is harness misuse and must fail the test loudly")]
    pub fn step(&mut self) -> bool {
        let in_flight = if self.random_order && self.queue.len() > 1 {
            let idx = (self.next_rand() % self.queue.len() as u64) as usize;
            self.queue.remove(idx)
        } else {
            self.queue.pop_front()
        };
        let Some(in_flight) = in_flight else {
            return false;
        };
        self.steps += 1;
        if self.crashed.contains(&in_flight.to) || self.crashed.contains(&in_flight.from) {
            return true;
        }
        if let Some(p) = self.drop_probability {
            let roll = (self.next_rand() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            if roll < p {
                return true;
            }
        }
        let now = self.now_ms;
        let to = in_flight.to.as_usize();
        let actions = self.replicas[to].on_message(now, in_flight.from, in_flight.msg);
        self.apply_actions(to, actions);
        true
    }

    /// Runs until no messages remain (or a step budget is exhausted).
    pub fn run_to_quiescence(&mut self) {
        let budget = 2_000_000u64;
        let start = self.steps;
        while self.step() {
            assert!(
                self.steps - start < budget,
                "cluster failed to quiesce within {budget} steps"
            );
        }
    }

    /// Asserts the core safety property: no two replicas committed
    /// different batches for the same instance.
    ///
    /// # Panics
    ///
    /// Panics (test assertion) on divergence.
    pub fn assert_consistent(&self) {
        use std::collections::HashMap;
        let mut by_cid: HashMap<u64, (usize, hlf_crypto::sha256::Hash256)> = HashMap::new();
        for (i, events) in self.observed.iter().enumerate() {
            for event in events {
                if let Observed::Commit(cid, batch) = event {
                    let digest = batch.digest();
                    match by_cid.get(cid) {
                        None => {
                            by_cid.insert(*cid, (i, digest));
                        }
                        Some((first, existing)) => {
                            assert_eq!(
                                *existing, digest,
                                "instance {cid} decided differently at replicas {first} and {i}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Asserts every live replica committed the same ordered sequence
    /// of (cid, digest) pairs up to the shortest log.
    #[expect(clippy::indexing_slicing, reason = "deterministic test harness — an out-of-range replica index is harness misuse and must fail the test loudly")]
    pub fn assert_prefix_consistent(&self) {
        let logs: Vec<Vec<(u64, hlf_crypto::sha256::Hash256)>> = (0..self.n())
            .map(|i| {
                self.decisions(i)
                    .into_iter()
                    .map(|(cid, batch)| (cid, batch.digest()))
                    .collect()
            })
            .collect();
        for a in 0..logs.len() {
            for b in a + 1..logs.len() {
                let common = logs[a].len().min(logs[b].len());
                assert_eq!(
                    &logs[a][..common],
                    &logs[b][..common],
                    "replicas {a} and {b} diverge"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlf_wire::Bytes;
    use hlf_wire::ClientId;

    fn req(seq: u64) -> Request {
        Request::new(ClientId(7), seq, Bytes::from(vec![seq as u8; 32]))
    }

    #[test]
    fn single_request_commits_everywhere() {
        let mut cluster = Cluster::classic(4, 1);
        cluster.submit_to_all(req(1));
        cluster.run_to_quiescence();
        for i in 0..4 {
            let d = cluster.decisions(i);
            assert_eq!(d.len(), 1, "replica {i}");
            assert_eq!(d[0].0, 1);
        }
        cluster.assert_consistent();
    }

    #[test]
    fn pipeline_of_requests_commits_in_order() {
        let mut cluster = Cluster::classic(4, 1);
        for seq in 1..=20 {
            cluster.submit_to_all(req(seq));
            cluster.run_to_quiescence();
        }
        for i in 0..4 {
            let cids: Vec<u64> = cluster.decisions(i).iter().map(|(c, _)| *c).collect();
            assert_eq!(cids, (1..=20).collect::<Vec<u64>>());
        }
        cluster.assert_prefix_consistent();
    }

    #[test]
    fn batched_requests_commit_together() {
        let mut cluster = Cluster::classic(4, 1);
        // Submit to followers first so nothing triggers an early
        // proposal, then to the leader, which batches all of them.
        for seq in 1..=10 {
            for i in 1..4 {
                cluster.submit_to(i, req(seq));
            }
        }
        for seq in 1..=10 {
            cluster.submit_to(0, req(seq));
        }
        cluster.run_to_quiescence();
        // The leader proposed seq 1 alone first (request-driven), then
        // the rest as one batch — or some similar split. All replicas
        // must agree on whatever happened.
        cluster.assert_prefix_consistent();
        let total: usize = cluster
            .decisions(1)
            .iter()
            .map(|(_, b)| b.len())
            .sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn larger_clusters_commit() {
        for (n, f) in [(7, 2), (10, 3)] {
            let mut cluster = Cluster::classic(n, f);
            cluster.submit_to_all(req(1));
            cluster.run_to_quiescence();
            for i in 0..n {
                assert_eq!(cluster.decisions(i).len(), 1, "n={n} replica {i}");
            }
            cluster.assert_consistent();
        }
    }

    #[test]
    fn crashed_follower_does_not_block() {
        let mut cluster = Cluster::classic(4, 1);
        cluster.crash(NodeId(3));
        cluster.submit_to_all(req(1));
        cluster.run_to_quiescence();
        for i in 0..3 {
            assert_eq!(cluster.decisions(i).len(), 1);
        }
        assert!(cluster.decisions(3).is_empty());
    }

    #[test]
    fn crashed_leader_triggers_regency_change_and_recovery() {
        let mut cluster = Cluster::classic(4, 1);
        cluster.crash(NodeId(0));
        cluster.submit_to_all(req(1));
        cluster.run_to_quiescence();
        // Nothing decides yet.
        for i in 1..4 {
            assert!(cluster.decisions(i).is_empty());
        }
        // Time passes: forward stage, then STOP stage.
        cluster.advance_time(2_500);
        cluster.run_to_quiescence();
        cluster.advance_time(2_500);
        cluster.run_to_quiescence();
        // Regency 1 installed, node 1 leads, request decided.
        for i in 1..4 {
            assert_eq!(cluster.replica(i).regency(), 1, "replica {i}");
            assert_eq!(cluster.decisions(i).len(), 1, "replica {i}");
        }
        cluster.assert_consistent();
    }

    #[test]
    fn random_delivery_order_preserves_safety() {
        for seed in 0..10 {
            let mut cluster = Cluster::classic(4, 1);
            cluster.randomize_order(seed);
            for seq in 1..=5 {
                cluster.submit_to_all(req(seq));
            }
            cluster.run_to_quiescence();
            cluster.assert_prefix_consistent();
        }
    }

    #[test]
    fn wheat_tentative_then_commit() {
        let mut cluster = Cluster::wheat(5, 1);
        cluster.submit_to_all(req(1));
        cluster.run_to_quiescence();
        for i in 0..5 {
            let events = cluster.observed(i);
            let tentative_pos = events
                .iter()
                .position(|e| matches!(e, Observed::Tentative(1, _)));
            let commit_pos = events
                .iter()
                .position(|e| matches!(e, Observed::Commit(1, _)));
            assert!(tentative_pos.is_some(), "replica {i} missed tentative");
            assert!(commit_pos.is_some(), "replica {i} missed commit");
            assert!(tentative_pos < commit_pos, "tentative precedes commit");
        }
        cluster.assert_consistent();
    }
}
