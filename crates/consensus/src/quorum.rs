//! Quorum systems: classic cardinality quorums and WHEAT's weighted
//! binary vote assignment.
//!
//! BFT-SMaRt forms quorums of `⌈(n+f+1)/2⌉` replicas. WHEAT
//! ("Separating the WHEAT from the chaff", SRDS 2015) adds `Δ` spare
//! replicas and assigns *votes*: `2f` replicas get `Vmax = 1 + Δ/f`
//! votes, the rest get `Vmin = 1`; a quorum is any set with total weight
//! of at least `2f·Vmax + 1`. With `f = 1, Δ = 1` (the paper's
//! geo-distributed setup) this yields weights `[2, 2, 1, 1, 1]` and
//! quorum weight 5, so the two `Vmax` replicas plus any third replica
//! already form a quorum — the mechanism that lets the fastest replicas
//! drive latency.

use crate::messages::{verify_votes, Vote};
use hlf_crypto::ecdsa::PinnedKey;
use hlf_crypto::sha256::Hash256;
use hlf_wire::NodeId;
use std::collections::HashMap;

/// Vote-weight assignment across a replica group.
///
/// # Examples
///
/// ```
/// use hlf_consensus::QuorumSystem;
/// use hlf_wire::NodeId;
///
/// // Classic BFT-SMaRt: n = 4, f = 1 — quorum is any 3 replicas.
/// let classic = QuorumSystem::classic(4, 1).unwrap();
/// assert!(classic.is_quorum([NodeId(0), NodeId(1), NodeId(2)].iter().copied()));
/// assert!(!classic.is_quorum([NodeId(0), NodeId(1)].iter().copied()));
///
/// // WHEAT with one spare: nodes 0 and 1 weigh 2 — three replicas
/// // including both heavy ones form a quorum.
/// let wheat = QuorumSystem::wheat_binary(5, 1).unwrap();
/// assert!(wheat.is_quorum([NodeId(0), NodeId(1), NodeId(4)].iter().copied()));
/// assert!(!wheat.is_quorum([NodeId(2), NodeId(3), NodeId(4)].iter().copied()));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuorumSystem {
    weights: Vec<u64>,
    quorum_weight: u64,
    f: usize,
}

/// Error building a quorum system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuorumError {
    /// `n < 3f + 1`: the group cannot tolerate `f` Byzantine replicas.
    TooFewReplicas {
        /// Group size requested.
        n: usize,
        /// Fault threshold requested.
        f: usize,
    },
    /// WHEAT requires the number of spares `Δ = n - (3f+1)` to be a
    /// positive multiple of `f` for the binary assignment.
    InvalidSpares {
        /// Computed number of spare replicas.
        delta: usize,
        /// Fault threshold requested.
        f: usize,
    },
}

impl std::fmt::Display for QuorumError {
    fn fmt(&self, f2: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuorumError::TooFewReplicas { n, f } => {
                write!(f2, "n = {n} cannot tolerate f = {f} (need n >= 3f+1)")
            }
            QuorumError::InvalidSpares { delta, f } => {
                write!(f2, "delta = {delta} spares invalid for f = {f}")
            }
        }
    }
}

impl std::error::Error for QuorumError {}

impl QuorumSystem {
    /// Classic BFT-SMaRt quorums: every replica weighs 1 and a quorum is
    /// `⌈(n+f+1)/2⌉` replicas.
    ///
    /// # Errors
    ///
    /// Returns `QuorumError::TooFewReplicas` when `n < 3f + 1` or
    /// `f == 0` with `n == 0`.
    pub fn classic(n: usize, f: usize) -> Result<QuorumSystem, QuorumError> {
        if n < 3 * f + 1 || n == 0 {
            return Err(QuorumError::TooFewReplicas { n, f });
        }
        Ok(QuorumSystem {
            weights: vec![1; n],
            quorum_weight: ((n + f + 1) as u64).div_ceil(2),
            f,
        })
    }

    /// WHEAT's binary vote assignment for `n = 3f + 1 + Δ` replicas.
    ///
    /// The first `2f` node ids receive `Vmax = 1 + Δ/f` votes and the
    /// rest `Vmin = 1`. Following the WHEAT paper, the caller should
    /// order node ids so the fastest replicas come first.
    ///
    /// # Errors
    ///
    /// Returns `QuorumError::TooFewReplicas` if `n < 3f + 1`, and
    /// `QuorumError::InvalidSpares` if `Δ = n - (3f+1)` is zero or not
    /// a multiple of `f`.
    pub fn wheat_binary(n: usize, f: usize) -> Result<QuorumSystem, QuorumError> {
        if f == 0 || n < 3 * f + 1 {
            return Err(QuorumError::TooFewReplicas { n, f });
        }
        let delta = n - (3 * f + 1);
        if delta == 0 || !delta.is_multiple_of(f) {
            return Err(QuorumError::InvalidSpares { delta, f });
        }
        let vmax = 1 + (delta / f) as u64;
        let mut weights = vec![1u64; n];
        for w in weights.iter_mut().take(2 * f) {
            *w = vmax;
        }
        Ok(QuorumSystem {
            weights,
            quorum_weight: 2 * f as u64 * vmax + 1,
            f,
        })
    }

    /// Number of replicas.
    pub fn n(&self) -> usize {
        self.weights.len()
    }

    /// Byzantine fault threshold.
    pub fn f(&self) -> usize {
        self.f
    }

    /// Weight of a single replica (0 for out-of-range ids).
    pub(crate) fn weight(&self, node: NodeId) -> u64 {
        self.weights.get(node.as_usize()).copied().unwrap_or(0)
    }

    /// Sums the weights of `voters` (callers must deduplicate ids).
    pub(crate) fn weight_of(&self, voters: impl Iterator<Item = NodeId>) -> u64 {
        voters.map(|v| self.weight(v)).sum()
    }

    /// Returns `true` if `voters` (assumed distinct) form a quorum.
    pub fn is_quorum(&self, voters: impl Iterator<Item = NodeId>) -> bool {
        self.weight_of(voters) >= self.quorum_weight
    }

    /// The `f + 1` threshold by count — enough to contain one correct
    /// replica. Used for STOP amplification and reply voting.
    pub(crate) fn one_correct_count(&self) -> usize {
        self.f + 1
    }

    /// The `2f + 1` threshold by count — the classic "certified" count
    /// used by frontends collecting matching blocks.
    pub(crate) fn certify_count(&self) -> usize {
        2 * self.f + 1
    }

    /// Replicas needed in a synchronization-phase collect set (`n - f`).
    pub(crate) fn collect_count(&self) -> usize {
        self.n() - self.f
    }

    /// All node ids in this group.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n() as u32).map(NodeId)
    }
}

/// Per-slot vote collection: one tracker per consensus slot and phase,
/// so votes arriving out of order across a pipelined window accumulate
/// independently and quorum detection stays a pure function of the
/// votes seen for *that* slot.
///
/// At most one vote per node is kept, the first one recorded;
/// equivocation between *slots* therefore cannot leak weight from one
/// tracker into another. A peer's vote is recorded unverified and its
/// signature checked only once a quorum needs it: [`QuorumTracker::settle`]
/// verifies the fewest pending votes that complete a quorum in one
/// batch, drops those that fail and looks again, so a vote that arrives
/// after its quorum is never verified. Only verified votes back
/// [`QuorumTracker::quorum_hash`] and [`QuorumTracker::votes_for`], and
/// so every certificate, STOP-DATA and decision proof built from them.
#[derive(Clone, Debug, Default)]
pub(crate) struct QuorumTracker {
    /// Votes whose signatures are known good: a replica's own, and
    /// peers' that [`QuorumTracker::settle`] verified.
    votes: HashMap<NodeId, Vote>,
    /// Peers' votes not verified yet.
    pending: Vec<Vote>,
}

impl QuorumTracker {
    /// An empty tracker.
    pub(crate) fn new() -> QuorumTracker {
        QuorumTracker::default()
    }

    /// `true` if `node` already voted on this slot/phase.
    fn contains(&self, node: NodeId) -> bool {
        self.votes.contains_key(&node) || self.pending.iter().any(|vote| vote.node == node)
    }

    /// Records `vote` unless its node already voted on this slot/phase:
    /// as verified when `verified` (the replica's own vote), else as
    /// pending, for [`QuorumTracker::settle`] to check if a quorum needs
    /// it. A later vote from the same node is neither kept nor checked.
    pub(crate) fn record(&mut self, vote: Vote, verified: bool) {
        if self.contains(vote.node) {
            return;
        }
        if verified {
            self.votes.insert(vote.node, vote);
        } else {
            self.pending.push(vote);
        }
    }

    /// Verifies what a quorum needs and returns the hash that a quorum
    /// of verified votes backs: `hash` itself when given, else any.
    ///
    /// While verified and pending votes for some hash together reach
    /// the quorum weight but the verified ones alone do not, the fewest
    /// pending votes for it that complete the quorum (heaviest first)
    /// are verified as one batch; those that fail are dropped and the
    /// check runs again.
    pub(crate) fn settle(
        &mut self,
        hash: Option<Hash256>,
        quorums: &QuorumSystem,
        keys: &[PinnedKey],
    ) -> Option<Hash256> {
        loop {
            // Verified, and verified plus pending, weight behind `target`.
            let weights = |target: &Hash256| {
                let weight = |votes: &mut dyn Iterator<Item = &Vote>| {
                    quorums.weight_of(votes.filter(|v| v.hash == *target).map(|v| v.node))
                };
                let verified = weight(&mut self.votes.values());
                (verified, verified + weight(&mut self.pending.iter()))
            };
            // One vote per node: at most one hash can reach the quorum
            // weight even counting pending votes.
            let target = self
                .votes
                .values()
                .chain(&self.pending)
                .map(|vote| vote.hash)
                .filter(|candidate| hash.is_none_or(|hash| hash == *candidate))
                .find(|candidate| weights(candidate).1 >= quorums.quorum_weight)?;
            let (mut weight, _) = weights(&target);
            if weight >= quorums.quorum_weight {
                return Some(target);
            }
            let (mut batch, rest): (Vec<Vote>, Vec<Vote>) =
                std::mem::take(&mut self.pending).into_iter().partition(|vote| vote.hash == target);
            self.pending = rest;
            batch.sort_by_key(|vote| std::cmp::Reverse(quorums.weight(vote.node)));
            let fewest = batch
                .iter()
                .position(|vote| {
                    weight += quorums.weight(vote.node);
                    weight >= quorums.quorum_weight
                })
                .map_or(batch.len(), |last| last + 1);
            self.pending.extend(batch.split_off(fewest));
            let keyed: Vec<(Vote, &PinnedKey)> = batch
                .into_iter()
                .filter_map(|vote| keys.get(vote.node.as_usize()).map(|key| (vote, key)))
                .collect();
            let verdicts = verify_votes(keyed.iter().map(|(vote, key)| (vote, *key)));
            for ((vote, _), good) in keyed.into_iter().zip(verdicts) {
                if good {
                    self.votes.insert(vote.node, vote);
                }
            }
        }
    }

    /// The value hash backed by a quorum of verified voters, if any.
    ///
    /// Votes are grouped by hash; voters are distinct by construction,
    /// so the group weights feed [`QuorumSystem::is_quorum`] directly.
    pub(crate) fn quorum_hash(&self, quorums: &QuorumSystem) -> Option<Hash256> {
        let mut by_hash: HashMap<Hash256, Vec<NodeId>> = HashMap::new();
        for vote in self.votes.values() {
            by_hash.entry(vote.hash).or_default().push(vote.node);
        }
        by_hash
            .into_iter()
            .find(|(_, voters)| quorums.is_quorum(voters.iter().copied()))
            .map(|(hash, _)| hash)
    }

    /// The verified votes matching `hash`, sorted by node id — a
    /// certificate usable in decision proofs and view-change collect
    /// messages.
    pub(crate) fn votes_for(&self, hash: Hash256) -> Vec<Vote> {
        let mut cert: Vec<Vote> = self
            .votes
            .values()
            .filter(|v| v.hash == hash)
            .cloned()
            .collect();
        cert.sort_by_key(|v| v.node.0);
        cert
    }

    /// Forgets all votes (epoch bump on a slot).
    pub(crate) fn clear(&mut self) {
        self.votes.clear();
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> impl Iterator<Item = NodeId> + '_ {
        v.iter().map(|&i| NodeId(i))
    }

    #[test]
    fn classic_sizes_match_paper_clusters() {
        // The paper's LAN experiments: n = 4, 7, 10 tolerate f = 1, 2, 3.
        for (n, f, q) in [(4, 1, 3), (7, 2, 5), (10, 3, 7)] {
            let sys = QuorumSystem::classic(n, f).unwrap();
            assert_eq!(sys.quorum_weight, q, "n={n}");
            assert_eq!(sys.weights.iter().sum::<u64>(), n as u64);
            assert_eq!(sys.certify_count(), 2 * f + 1);
            assert_eq!(sys.collect_count(), n - f);
        }
    }

    #[test]
    fn classic_rejects_undersized_groups() {
        assert_eq!(
            QuorumSystem::classic(3, 1),
            Err(QuorumError::TooFewReplicas { n: 3, f: 1 })
        );
        assert_eq!(
            QuorumSystem::classic(0, 0),
            Err(QuorumError::TooFewReplicas { n: 0, f: 0 })
        );
    }

    #[test]
    fn wheat_paper_configuration() {
        // Five replicas, f = 1: weights [2,2,1,1,1], quorum weight 5.
        let sys = QuorumSystem::wheat_binary(5, 1).unwrap();
        assert_eq!(sys.weight(NodeId(0)), 2);
        assert_eq!(sys.weight(NodeId(1)), 2);
        assert_eq!(sys.weight(NodeId(2)), 1);
        assert_eq!(sys.weight(NodeId(4)), 1);
        assert_eq!(sys.quorum_weight, 5);
        assert_eq!(sys.weights.iter().sum::<u64>(), 7);

        // Fast path: both Vmax replicas + any third.
        assert!(sys.is_quorum(ids(&[0, 1, 2])));
        assert!(sys.is_quorum(ids(&[0, 1, 4])));
        // One Vmax + all Vmin also works (weight 5)...
        assert!(sys.is_quorum(ids(&[0, 2, 3, 4])));
        // ...but three Vmin alone do not.
        assert!(!sys.is_quorum(ids(&[2, 3, 4])));
        assert!(!sys.is_quorum(ids(&[0, 1])));
    }

    #[test]
    fn wheat_quorum_intersection_exceeds_byzantine_weight() {
        // Exhaustively check the safety condition for the paper's setup:
        // any two quorums intersect in weight > f * Vmax = 2.
        let sys = QuorumSystem::wheat_binary(5, 1).unwrap();
        let all: Vec<u32> = (0..5).collect();
        let subsets = 1u32 << 5;
        let quorums: Vec<u32> = (0..subsets)
            .filter(|mask| {
                let members = all.iter().filter(|&&i| mask & (1 << i) != 0).copied();
                sys.is_quorum(members.map(NodeId))
            })
            .collect();
        for &a in &quorums {
            for &b in &quorums {
                let inter = a & b;
                let weight: u64 = (0..5)
                    .filter(|i| inter & (1 << i) != 0)
                    .map(|i| sys.weight(NodeId(i)))
                    .sum();
                assert!(weight > 2, "quorums {a:b} and {b:b} intersect too little");
            }
        }
    }

    #[test]
    fn wheat_rejects_invalid_spares() {
        // n = 4 has delta = 0.
        assert_eq!(
            QuorumSystem::wheat_binary(4, 1),
            Err(QuorumError::InvalidSpares { delta: 0, f: 1 })
        );
        // f = 2, n = 8 -> delta = 1, not a multiple of 2.
        assert_eq!(
            QuorumSystem::wheat_binary(8, 2),
            Err(QuorumError::InvalidSpares { delta: 1, f: 2 })
        );
        // f = 2, n = 9 -> delta = 2: valid, Vmax = 2.
        let sys = QuorumSystem::wheat_binary(9, 2).unwrap();
        assert_eq!(sys.weight(NodeId(0)), 2);
        assert_eq!(sys.weight(NodeId(3)), 2);
        assert_eq!(sys.weight(NodeId(4)), 1);
        assert_eq!(sys.quorum_weight, 9);
    }

    #[test]
    fn duplicate_voters_are_callers_responsibility() {
        let sys = QuorumSystem::classic(4, 1).unwrap();
        // Document the contract: weight_of sums blindly.
        assert_eq!(sys.weight_of(ids(&[0, 0, 0])), 3);
    }

    #[test]
    fn out_of_range_nodes_weigh_zero() {
        let sys = QuorumSystem::classic(4, 1).unwrap();
        assert_eq!(sys.weight(NodeId(99)), 0);
        assert!(!sys.is_quorum(ids(&[99, 98, 97])));
    }

    #[test]
    fn nodes_iterates_group() {
        let sys = QuorumSystem::classic(4, 1).unwrap();
        let nodes: Vec<NodeId> = sys.nodes().collect();
        assert_eq!(nodes, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn tracker_detects_quorum_per_hash() {
        use crate::messages::VotePhase;
        use hlf_crypto::ecdsa::SigningKey;
        let sys = QuorumSystem::classic(4, 1).unwrap();
        let keys: Vec<SigningKey> = (0..4)
            .map(|i| SigningKey::from_seed(format!("tracker-{i}").as_bytes()))
            .collect();
        let hash_a = hlf_crypto::sha256::sha256(b"value-a");
        let hash_b = hlf_crypto::sha256::sha256(b"value-b");
        let mut tracker = QuorumTracker::new();
        tracker.record(Vote::sign(&keys[0], VotePhase::Write, NodeId(0), 7, 0, hash_a), true);
        tracker.record(Vote::sign(&keys[1], VotePhase::Write, NodeId(1), 7, 0, hash_b), true);
        assert_eq!(tracker.quorum_hash(&sys), None);
        tracker.record(Vote::sign(&keys[2], VotePhase::Write, NodeId(2), 7, 0, hash_a), true);
        assert_eq!(tracker.quorum_hash(&sys), None);
        tracker.record(Vote::sign(&keys[3], VotePhase::Write, NodeId(3), 7, 0, hash_a), true);
        assert_eq!(tracker.quorum_hash(&sys), Some(hash_a));
        // The certificate holds only matching votes, in node order.
        let cert = tracker.votes_for(hash_a);
        assert_eq!(cert.len(), 3);
        assert!(cert.windows(2).all(|w| w[0].node.0 < w[1].node.0));
        assert!(cert.iter().all(|v| v.hash == hash_a));
    }

    #[test]
    fn tracker_replaces_duplicate_voter() {
        use crate::messages::VotePhase;
        use hlf_crypto::ecdsa::SigningKey;
        let sys = QuorumSystem::classic(4, 1).unwrap();
        let key = SigningKey::from_seed(b"tracker-dup");
        let hash = hlf_crypto::sha256::sha256(b"value");
        let mut tracker = QuorumTracker::new();
        for _ in 0..5 {
            tracker.record(Vote::sign(&key, VotePhase::Write, NodeId(0), 1, 0, hash), true);
        }
        assert_eq!(tracker.votes.len(), 1);
        assert!(tracker.contains(NodeId(0)));
        assert_eq!(tracker.quorum_hash(&sys), None);
        tracker.clear();
        assert!(tracker.votes.is_empty());
    }

    /// Seeded property loops (see `hlf_simnet::for_each_case`).
    mod properties {
        use super::*;
        use hlf_simnet::for_each_case;

        /// For every valid classic configuration, two quorums must
        /// intersect in at least f+1 replicas.
        #[test]
        fn classic_intersection() {
            for_each_case(0x9000_0001, 64, |rng| {
                let f = rng.next_in(1..4);
                let n = 3 * f + 1;
                let sys = QuorumSystem::classic(n, f).unwrap();
                let q = sys.quorum_weight as usize;
                // Minimal quorums: any q replicas. Two sets of size q out
                // of n overlap in >= 2q - n >= f + 1.
                assert!(2 * q > n + f);
            });
        }

        /// WHEAT total weight and quorum weight satisfy the generic
        /// safety inequality 2*Qw - W > f*Vmax for valid deltas.
        #[test]
        fn wheat_inequality() {
            for_each_case(0x9000_0002, 64, |rng| {
                let (f, mult) = (rng.next_in(1..4), rng.next_in(1..3));
                let delta = f * mult;
                let n = 3 * f + 1 + delta;
                let sys = QuorumSystem::wheat_binary(n, f).unwrap();
                let vmax = 1 + (delta / f) as u64;
                // 2f replicas gain (Vmax - 1) = delta/f extra weight each.
                assert_eq!(sys.weights.iter().sum::<u64>(), (n as u64) + 2 * (delta as u64));
                assert!(2 * sys.quorum_weight > sys.weights.iter().sum::<u64>() + f as u64 * vmax);
            });
        }
    }
}
