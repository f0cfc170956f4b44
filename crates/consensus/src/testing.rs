//! A deterministic in-memory cluster harness for protocol tests.
//!
//! [`Cluster`] runs `n` [`Replica`]s as the actors of one
//! [`hlf_simnet::Simulation`]. By default every message arrives at once
//! and in send order; [`Cluster::randomize_order`] gives each delivery a
//! seeded random delay instead, so every interleaving a test explores is
//! reproducible from one seed. Crashes and message drops are the
//! simulator's [`FaultPlan`], and a run that panics prints its seed and
//! plan. Byzantine behaviours are injected by crafting messages directly
//! (see the integration tests).

use crate::messages::{Batch, ConsensusMsg, Request};
use crate::quorum::QuorumSystem;
use crate::replica::{Action, Config, Input, Replica};
use hlf_crypto::ecdsa::{batch_tally, BatchTally, PinnedKey, SigningKey};
use hlf_crypto::sha256::Hash256;
use hlf_simnet::{Actor, Ctx, FaultPlan, LatencyModel, SimMessage, SimTime, Simulation};
use hlf_wire::NodeId;
use std::collections::HashMap;

/// Upper bound of the delay a randomized cluster draws per delivery.
const REORDER_WINDOW: SimTime = SimTime::from_micros(1_000);

/// Most deliveries one [`Cluster::run_to_quiescence`] may take.
const QUIESCENCE_BUDGET: u64 = 2_000_000;

impl SimMessage for ConsensusMsg {
    /// The cluster charges no bandwidth, so size plays no part.
    fn wire_size(&self) -> usize {
        0
    }
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
    /// The replica asked to catch up from this instance.
    Behind(u64),
}

/// One [`Replica::step`] into a fresh list: the actions `input` caused.
pub fn step(replica: &mut Replica, now_ms: u64, input: Input) -> Vec<Action> {
    let mut actions = Vec::new();
    replica.step(now_ms, input, &mut actions);
    actions
}

/// A replica as a simulation actor, recording what it delivers.
struct Node {
    replica: Replica,
    observed: Vec<Observed>,
    /// What the replica's steps have verified.
    verified: BatchTally,
    /// Reused by every step.
    actions: Vec<Action>,
}

impl Node {
    fn step(&mut self, input: Input, ctx: &mut Ctx<'_, ConsensusMsg>) {
        let before = batch_tally();
        self.replica.step(ctx.now().as_millis(), input, &mut self.actions);
        let after = batch_tally();
        self.verified.batches += after.batches - before.batches;
        self.verified.signatures += after.signatures - before.signatures;
        for action in self.actions.drain(..) {
            let observed = match action {
                Action::Broadcast(msg) => {
                    let me = ctx.self_id();
                    for to in (0..ctx.node_count()).filter(|&to| to != me) {
                        ctx.send(to, msg.clone());
                    }
                    continue;
                }
                Action::Send(to, msg) => {
                    ctx.send(to.as_usize(), msg);
                    continue;
                }
                Action::DeliverTentative { cid, batch, .. } => Observed::Tentative(cid, batch),
                Action::Rollback { cid } => Observed::Rollback(cid),
                Action::Commit { cid, batch, .. } => Observed::Commit(cid, batch),
                Action::Behind { from_cid } => Observed::Behind(from_cid),
            };
            self.observed.push(observed);
        }
    }
}

impl Actor<ConsensusMsg> for Node {
    fn on_message(&mut self, from: usize, msg: ConsensusMsg, ctx: &mut Ctx<'_, ConsensusMsg>) {
        self.step(Input::Message(NodeId(from as u32), msg), ctx);
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_, ConsensusMsg>) {}
}

/// Deterministic multi-replica test cluster.
#[derive(Debug)]
pub struct Cluster {
    n: usize,
    sim: Simulation<ConsensusMsg, Node>,
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
    pub fn with_configs(
        n: usize,
        quorums: QuorumSystem,
        configure: impl Fn(Config) -> Config,
    ) -> Cluster {
        let (signing, verifying) = test_keys(n);
        let mut sim = Simulation::new(LatencyModel::constant(SimTime::ZERO), 0);
        for (i, key) in signing.into_iter().enumerate() {
            let cfg = Config::new(NodeId(i as u32), quorums.clone(), verifying.clone(), key);
            sim.add_actor(Box::new(Node {
                replica: Replica::new(configure(cfg)),
                observed: Vec::new(),
                verified: BatchTally::default(),
                actions: Vec::new(),
            }));
        }
        Cluster { n, sim }
    }

    /// A classic BFT-SMaRt cluster (`n`, `f`).
    ///
    /// # Panics
    ///
    /// Panics on invalid `(n, f)`.
    #[expect(clippy::unwrap_used, reason = "deterministic test harness — an invalid `(n, f)` is harness misuse and must fail the test loudly")]
    pub fn classic(n: usize, f: usize) -> Cluster {
        Cluster::with_configs(n, QuorumSystem::classic(n, f).unwrap(), |c| c)
    }

    /// A WHEAT cluster with tentative execution enabled.
    ///
    /// # Panics
    ///
    /// Panics on invalid `(n, f)`.
    #[expect(clippy::unwrap_used, reason = "deterministic test harness — an invalid `(n, f)` is harness misuse and must fail the test loudly")]
    pub fn wheat(n: usize, f: usize) -> Cluster {
        Cluster::with_configs(n, QuorumSystem::wheat_binary(n, f).unwrap(), |c| {
            c.with_tentative_execution(true)
        })
    }

    /// Delays each delivery by a random draw from `seed`'s stream
    /// (explores interleavings); the clock moves with the deliveries.
    pub fn randomize_order(&mut self, seed: u64) {
        self.sim
            .set_latency(LatencyModel::constant(SimTime::ZERO).with_jitter(REORDER_WINDOW));
        self.sim.set_seed(seed);
    }

    /// Drops each message with probability `p`, drawn from the
    /// cluster's seed. Replaces the fault plan: call it before any
    /// [`Cluster::crash`].
    pub fn set_drop_probability(&mut self, p: f64) {
        self.sim.set_faults(FaultPlan::none().drop_probability(p));
    }

    /// Crashes a replica: it receives nothing and sends nothing.
    pub fn crash(&mut self, node: NodeId) {
        self.sim.crash(node.as_usize());
    }

    /// Immutable replica access.
    pub fn replica(&self, i: usize) -> &Replica {
        &self.sim.actor(i).replica
    }

    /// Mutable replica access (e.g. to attach observability with
    /// [`Replica::attach_obs`] before driving traffic).
    pub fn replica_mut(&mut self, i: usize) -> &mut Replica {
        &mut self.sim.actor_mut(i).replica
    }

    /// The signature batches replica `i`'s steps have verified, and the
    /// signatures in them (`hlf_crypto::ecdsa::batch_tally`, counted on
    /// the cluster's one thread around each step).
    pub fn verify_tally(&self, i: usize) -> BatchTally {
        self.sim.actor(i).verified
    }

    /// Events observed at replica `i`.
    pub fn observed(&self, i: usize) -> &[Observed] {
        &self.sim.actor(i).observed
    }

    /// Final commits observed at replica `i`, in order.
    pub fn decisions(&self, i: usize) -> Vec<(u64, Batch)> {
        self.observed(i)
            .iter()
            .filter_map(|o| match o {
                Observed::Commit(cid, batch) => Some((*cid, batch.clone())),
                _ => None,
            })
            .collect()
    }

    /// Messages delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// Feeds `input` to replica `i` now, unless it crashed.
    fn input(&mut self, i: usize, input: Input) {
        self.sim.inject(i, |node, ctx| node.step(input, ctx));
    }

    /// Submits a request to a single replica.
    pub fn submit_to(&mut self, i: usize, request: Request) {
        self.input(i, Input::Requests(vec![request]));
    }

    /// Submits a request to every replica (as BFT-SMaRt clients do).
    pub fn submit_to_all(&mut self, request: Request) {
        for i in 0..self.n {
            self.submit_to(i, request.clone());
        }
    }

    /// Delivers what falls due within `delta_ms`, then ticks every live
    /// replica at the end of it.
    pub fn advance_time(&mut self, delta_ms: u64) {
        self.sim.advance(SimTime::from_millis(delta_ms));
        for i in 0..self.n {
            self.input(i, Input::Tick);
        }
    }

    /// Feeds a hand-crafted message into a replica (Byzantine tests).
    pub fn inject(&mut self, to: usize, from: NodeId, msg: ConsensusMsg) {
        self.input(to, Input::Message(from, msg));
    }

    /// Delivers one queued message. Returns `false` when idle.
    pub fn step(&mut self) -> bool {
        self.sim.step()
    }

    /// Runs until no messages remain (or a step budget is exhausted).
    pub fn run_to_quiescence(&mut self) {
        let mut left = QUIESCENCE_BUDGET;
        while self.sim.step() {
            left -= 1;
            assert!(left > 0, "cluster failed to quiesce within {QUIESCENCE_BUDGET} steps");
        }
    }

    /// Asserts the core safety property: no two replicas committed
    /// different batches for the same instance.
    ///
    /// # Panics
    ///
    /// Panics (test assertion) on divergence.
    pub fn assert_consistent(&self) {
        let mut by_cid: HashMap<u64, (usize, Hash256)> = HashMap::new();
        for i in 0..self.n {
            for (cid, batch) in self.decisions(i) {
                let digest = batch.digest();
                let (first, existing) = *by_cid.entry(cid).or_insert((i, digest));
                assert_eq!(
                    existing, digest,
                    "instance {cid} decided differently at replicas {first} and {i}"
                );
            }
        }
    }

    /// Asserts every live replica committed the same ordered sequence
    /// of (cid, digest) pairs up to the shortest log.
    #[expect(clippy::indexing_slicing, reason = "deterministic test harness — an out-of-range replica index is harness misuse and must fail the test loudly")]
    pub fn assert_prefix_consistent(&self) {
        let logs: Vec<Vec<(u64, Hash256)>> = (0..self.n)
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

    /// A lossy, randomly ordered run is a function of its seed: run
    /// twice, it observes the same logs after the same deliveries.
    #[test]
    fn seeded_lossy_random_run_replays_exactly() {
        let run = || {
            let mut cluster = Cluster::classic(4, 1);
            cluster.randomize_order(0x5eed);
            cluster.set_drop_probability(0.05);
            for seq in 1..=6 {
                cluster.submit_to_all(req(seq));
                cluster.run_to_quiescence();
            }
            for _ in 0..6 {
                cluster.advance_time(2_600);
                cluster.run_to_quiescence();
            }
            let logs: Vec<Vec<Observed>> = (0..4).map(|i| cluster.observed(i).to_vec()).collect();
            (logs, cluster.events_processed())
        };
        let first = run();
        assert!(first.0.iter().all(|log| !log.is_empty()), "a replica decided nothing");
        assert_eq!(first, run());
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
