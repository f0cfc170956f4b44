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

use crate::messages::Vote;
use hlf_crypto::sha256::Hash256;
use hlf_wire::NodeId;
use std::collections::HashMap;

/// Vote-weight assignment across a replica group.
///
/// # Examples
///
/// ```
/// use hlf_consensus::quorum::QuorumSystem;
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
    /// Returns [`QuorumError::TooFewReplicas`] when `n < 3f + 1` or
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
    /// Returns [`QuorumError::TooFewReplicas`] if `n < 3f + 1`, and
    /// [`QuorumError::InvalidSpares`] if `Δ = n - (3f+1)` is zero or not
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
    pub fn weight(&self, node: NodeId) -> u64 {
        self.weights.get(node.as_usize()).copied().unwrap_or(0)
    }

    /// Weight a vote set must reach to be a quorum.
    pub fn quorum_weight(&self) -> u64 {
        self.quorum_weight
    }

    /// Total weight of all replicas.
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().sum()
    }

    /// Sums the weights of `voters` (callers must deduplicate ids).
    pub fn weight_of(&self, voters: impl Iterator<Item = NodeId>) -> u64 {
        voters.map(|v| self.weight(v)).sum()
    }

    /// Returns `true` if `voters` (assumed distinct) form a quorum.
    pub fn is_quorum(&self, voters: impl Iterator<Item = NodeId>) -> bool {
        self.weight_of(voters) >= self.quorum_weight
    }

    /// The `f + 1` threshold by count — enough to contain one correct
    /// replica. Used for STOP amplification and reply voting.
    pub fn one_correct_count(&self) -> usize {
        self.f + 1
    }

    /// The `2f + 1` threshold by count — the classic "certified" count
    /// used by frontends collecting matching blocks.
    pub fn certify_count(&self) -> usize {
        2 * self.f + 1
    }

    /// Replicas needed in a synchronization-phase collect set (`n - f`).
    pub fn collect_count(&self) -> usize {
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
/// At most one vote per node is kept (a newer vote from the same node
/// replaces the old one, matching the single-instance behaviour);
/// equivocation between *slots* therefore cannot leak weight from one
/// tracker into another.
#[derive(Clone, Debug, Default)]
pub struct QuorumTracker {
    votes: HashMap<NodeId, Vote>,
}

impl QuorumTracker {
    /// An empty tracker.
    pub fn new() -> QuorumTracker {
        QuorumTracker {
            votes: HashMap::new(),
        }
    }

    /// Number of distinct voters seen.
    pub fn len(&self) -> usize {
        self.votes.len()
    }

    /// `true` when no votes were recorded.
    pub fn is_empty(&self) -> bool {
        self.votes.is_empty()
    }

    /// `true` if `node` already voted on this slot/phase.
    pub fn contains(&self, node: NodeId) -> bool {
        self.votes.contains_key(&node)
    }

    /// Records `vote` under its signer, replacing any earlier vote from
    /// the same node.
    pub fn insert(&mut self, vote: Vote) {
        self.votes.insert(vote.node, vote);
    }

    /// The value hash backed by a quorum of recorded voters, if any.
    ///
    /// Votes are grouped by hash; voters are distinct by construction,
    /// so the group weights feed [`QuorumSystem::is_quorum`] directly.
    pub fn quorum_hash(&self, quorums: &QuorumSystem) -> Option<Hash256> {
        let mut by_hash: HashMap<Hash256, Vec<NodeId>> = HashMap::new();
        for vote in self.votes.values() {
            by_hash.entry(vote.hash).or_default().push(vote.node);
        }
        by_hash
            .into_iter()
            .find(|(_, voters)| quorums.is_quorum(voters.iter().copied()))
            .map(|(hash, _)| hash)
    }

    /// The votes matching `hash`, sorted by node id — a certificate
    /// usable in decision proofs and view-change collect messages.
    pub fn votes_for(&self, hash: Hash256) -> Vec<Vote> {
        let mut cert: Vec<Vote> = self
            .votes
            .values()
            .filter(|v| v.hash == hash)
            .cloned()
            .collect();
        cert.sort_by_key(|v| v.node.0);
        cert
    }

    /// Iterates over all recorded votes.
    pub fn iter(&self) -> impl Iterator<Item = &Vote> {
        self.votes.values()
    }

    /// Forgets all votes (epoch bump on a slot).
    pub fn clear(&mut self) {
        self.votes.clear();
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
            assert_eq!(sys.quorum_weight(), q, "n={n}");
            assert_eq!(sys.total_weight(), n as u64);
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
        assert_eq!(sys.quorum_weight(), 5);
        assert_eq!(sys.total_weight(), 7);

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
        assert_eq!(sys.quorum_weight(), 9);
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
        tracker.insert(Vote::sign(&keys[0], VotePhase::Write, NodeId(0), 7, 0, hash_a));
        tracker.insert(Vote::sign(&keys[1], VotePhase::Write, NodeId(1), 7, 0, hash_b));
        assert_eq!(tracker.quorum_hash(&sys), None);
        tracker.insert(Vote::sign(&keys[2], VotePhase::Write, NodeId(2), 7, 0, hash_a));
        assert_eq!(tracker.quorum_hash(&sys), None);
        tracker.insert(Vote::sign(&keys[3], VotePhase::Write, NodeId(3), 7, 0, hash_a));
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
            tracker.insert(Vote::sign(&key, VotePhase::Write, NodeId(0), 1, 0, hash));
        }
        assert_eq!(tracker.len(), 1);
        assert!(tracker.contains(NodeId(0)));
        assert_eq!(tracker.quorum_hash(&sys), None);
        tracker.clear();
        assert!(tracker.is_empty());
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
                let q = sys.quorum_weight() as usize;
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
                assert_eq!(sys.total_weight(), (n as u64) + 2 * (delta as u64));
                assert!(2 * sys.quorum_weight() > sys.total_weight() + f as u64 * vmax);
            });
        }
    }
}
