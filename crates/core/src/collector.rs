//! Block-copy collection: the frontend's decision of *when a pushed
//! block can be trusted*, with no socket and no clock.
//!
//! [`BlockCollector`] is fed block copies ([`BlockCollector::offer`])
//! and releases completed blocks strictly in order
//! ([`BlockCollector::pop_ready`]). The threaded
//! [`crate::frontend::Frontend`] and the simulator's frontend actor
//! both run it, so they cannot disagree on the copy threshold.

use crate::obs::FrontendObs;
use hlf_crypto::ecdsa::{PinnedKey, Signature};
use hlf_crypto::sha256::Hash256;
use hlf_fabric::block::{Block, BlockSignature};
use hlf_obs::EventKind;
use hlf_obs::{FlightRecorder, Registry};
use hlf_wire::{ClientId, NodeId};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Per-slot bound on the verified-signature dedup cache. A Byzantine
/// orderer can mint unlimited distinct `(node, header, signature)`
/// triples for one block number; beyond this many the oldest entries
/// are ring-evicted (the cache only skips work, so eviction never
/// affects correctness).
pub(crate) const VERIFY_CACHE_PER_SLOT: usize = 64;

/// How the frontend decides a pushed block is trustworthy.
#[derive(Clone, Debug)]
pub(crate) enum DeliveryPolicy {
    /// Collect `2f + 1` byte-matching copies; no signature checks
    /// (the paper's default).
    MatchOnly,
    /// Verify each copy's signature and accept after `f + 1` valid
    /// ones (paper footnote 8). Requires the orderer public keys.
    Verify {
        /// Orderer public keys indexed by node id, pinned: every pushed
        /// copy is checked against its sender's.
        orderer_keys: Vec<PinnedKey>,
    },
}

/// Matching block copies a frontend of an `n`-node, `f`-fault cluster
/// needs before it trusts a block.
///
/// Final deliveries: `2f + 1` unverified copies (at least `f + 1` come
/// from correct nodes), or `f + 1` signature-verified ones. Under
/// tentative execution a correct node may push a block it later rolls
/// back, so either policy waits for `⌈(n + f + 1) / 2⌉` copies — the
/// quorum a tentative result needs to be final (paper §4).
pub(crate) fn copies_needed(n: usize, f: usize, tentative: bool, policy: &DeliveryPolicy) -> usize {
    if tentative {
        return (n + f + 1).div_ceil(2);
    }
    match policy {
        DeliveryPolicy::MatchOnly => 2 * f + 1,
        DeliveryPolicy::Verify { .. } => f + 1,
    }
}

/// Frontend configuration.
#[derive(Clone, Debug)]
pub struct FrontendConfig {
    /// This frontend's client identity on the SMR layer.
    pub id: ClientId,
    /// Ordering cluster size.
    pub n: usize,
    /// Fault threshold.
    pub f: usize,
    /// The cluster delivers tentatively (WHEAT): blocks may be rolled
    /// back, so more copies are needed ([`copies_needed`]).
    pub tentative: bool,
    /// Trust policy for pushed blocks.
    pub(crate) policy: DeliveryPolicy,
    /// Maximum block numbers collecting copies at once. Byzantine
    /// orderers can push copies for numbers that never complete; past
    /// this bound the least-recently-touched round is evicted.
    pub max_collecting: usize,
}

impl FrontendConfig {
    /// Default (match-only, final deliveries) configuration.
    pub fn new(id: ClientId, n: usize, f: usize) -> FrontendConfig {
        FrontendConfig {
            id,
            n,
            f,
            tentative: false,
            policy: DeliveryPolicy::MatchOnly,
            max_collecting: 1024,
        }
    }

    /// Declares whether the cluster executes tentatively.
    pub(crate) fn with_tentative(mut self, tentative: bool) -> FrontendConfig {
        self.tentative = tentative;
        self
    }

    /// Switches to signature verification with `f + 1` copies, against
    /// clones of the orderers' pinned keys (which share their tables).
    pub(crate) fn with_verification(mut self, orderer_keys: &[PinnedKey]) -> FrontendConfig {
        self.policy = DeliveryPolicy::Verify {
            orderer_keys: orderer_keys.to_vec(),
        };
        self
    }
}

type VerifiedTriple = (u32, Hash256, Signature);

/// The copies of one block number that share one header.
#[derive(Debug)]
struct Candidate {
    /// The first copy's content (every copy counted here is byte-equal).
    block: Block,
    signatures: Vec<BlockSignature>,
    nodes: HashSet<NodeId>,
    /// Whether `block`'s envelopes hash to its header, once a
    /// mismatching copy made someone check.
    consistent: Option<bool>,
}

impl Candidate {
    fn new(block: Block) -> Candidate {
        Candidate {
            block,
            signatures: Vec::new(),
            nodes: HashSet::new(),
            consistent: None,
        }
    }

    fn consistent(&mut self) -> bool {
        *self.consistent.get_or_insert_with(|| self.block.data_consistent())
    }
}

/// Per-block-number collection state.
#[derive(Debug)]
struct Collecting {
    /// header hash -> the copies carrying that header
    candidates: HashMap<Hash256, Candidate>,
    /// `(node, header hash, signature)` triples that already passed
    /// ECDSA verification in this collection round, so re-pushed copies
    /// skip the expensive check (verification mode only). Bounded to
    /// [`VERIFY_CACHE_PER_SLOT`] entries, ring-evicted oldest-first.
    verified: HashSet<VerifiedTriple>,
    /// Insertion order of `verified`, driving the ring eviction.
    verified_order: VecDeque<VerifiedTriple>,
    /// When the first copy for this slot arrived, in the caller's µs
    /// (collection-round latency = first copy -> threshold reached).
    first_seen_us: u64,
    /// Monotonic stamp of the most recent copy for this slot (LRU key
    /// for round eviction).
    last_touch: u64,
}

impl Collecting {
    fn new(now_us: u64) -> Collecting {
        Collecting {
            candidates: HashMap::new(),
            verified: HashSet::new(),
            verified_order: VecDeque::new(),
            first_seen_us: now_us,
            last_touch: 0,
        }
    }

    /// Caches a verified triple; returns the net change in entry count.
    #[expect(clippy::expect_used, reason = "`pop_front` runs only after the length check proved the deque non-empty")]
    fn insert_verified(&mut self, triple: VerifiedTriple) -> i64 {
        if !self.verified.insert(triple) {
            return 0;
        }
        self.verified_order.push_back(triple);
        if self.verified_order.len() > VERIFY_CACHE_PER_SLOT {
            let oldest = self.verified_order.pop_front().expect("nonempty");
            self.verified.remove(&oldest);
            return 0;
        }
        1
    }
}

/// Collects pushed block copies until enough match, then releases the
/// blocks of each channel in number order.
///
/// Time is an argument (`now_us`, any monotonic microsecond clock): it
/// stamps flight events and measures collection rounds, nothing else.
pub(crate) struct BlockCollector {
    config: FrontendConfig,
    /// Per-channel next block number to deliver (1 for new channels).
    next_deliver: HashMap<String, u64>,
    /// (channel, number) -> collection state.
    collecting: BTreeMap<(String, u64), Collecting>,
    /// (channel, number) -> completed block.
    ready: BTreeMap<(String, u64), Block>,
    /// `core.frontend.*` metrics, in the registry given to
    /// [`BlockCollector::attach_obs`] or a private one.
    obs: FrontendObs,
    /// Flight recorder for collection-phase and eviction events.
    flight: Option<Arc<FlightRecorder>>,
    /// Monotonic counter stamping collection-round activity (LRU).
    touch: u64,
    /// Verified-triple entries across all rounds (mirrors the
    /// `core.frontend.verify_cache_entries` gauge).
    verify_cache_entries: i64,
}

impl std::fmt::Debug for BlockCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCollector")
            .field("id", &self.config.id)
            .finish()
    }
}

impl BlockCollector {
    /// An empty collector for the cluster `config` describes.
    pub(crate) fn new(config: FrontendConfig) -> BlockCollector {
        BlockCollector {
            obs: FrontendObs::new(&Registry::new(format!("frontend-{}", config.id.0))),
            config,
            next_deliver: HashMap::new(),
            collecting: BTreeMap::new(),
            ready: BTreeMap::new(),
            flight: None,
            touch: 0,
            verify_cache_entries: 0,
        }
    }

    /// The configuration in effect.
    pub(crate) fn config(&self) -> &FrontendConfig {
        &self.config
    }

    /// Records `core.frontend.*` metrics into `registry` from now on
    /// instead of the collector's private one.
    pub(crate) fn attach_obs(&mut self, registry: &Registry) {
        self.obs = FrontendObs::new(registry);
    }

    /// Starts recording collection-phase and eviction flight events
    /// into `flight`.
    pub(crate) fn attach_flight(&mut self, flight: Arc<FlightRecorder>) {
        self.flight = Some(flight);
    }

    /// Counts one envelope relayed to the cluster.
    pub(crate) fn count_submitted(&self) {
        self.obs.submitted.inc();
    }

    /// Counts one rejected block copy.
    pub(crate) fn discard_copy(&self) {
        self.obs.discarded_copies.inc();
    }

    fn next_deliver_on(&self, channel: &str) -> u64 {
        self.next_deliver.get(channel).copied().unwrap_or(1)
    }

    /// Ingests one pushed block copy from `from`.
    pub(crate) fn offer(&mut self, from: NodeId, block: Block, now_us: u64) {
        let slot = (block.header.channel.clone(), block.header.number);
        if slot.1 < self.next_deliver_on(&slot.0) || self.ready.contains_key(&slot) {
            self.discard_copy();
            return;
        }
        let header_hash = block.header_hash();
        let mut newly_verified = None;
        if let DeliveryPolicy::Verify { orderer_keys } = &self.config.policy {
            // The copy must carry a valid signature from its sender.
            // Copies a node re-pushes (retransmits, view changes) repeat
            // the same triple, so consult the round's cache before
            // paying for an ECDSA verification. The cache is read
            // through `get` — an invalid copy must not allocate
            // collection state for its slot.
            let cache = self.collecting.get(&slot).map(|c| &c.verified);
            let valid = block.signatures.iter().any(|s| {
                if s.node != from.0 {
                    return false;
                }
                let triple = (s.node, header_hash, s.signature);
                if cache.is_some_and(|v| v.contains(&triple)) {
                    self.obs.verify_cache_hits.inc();
                    return true;
                }
                let fresh = orderer_keys
                    .get(s.node as usize)
                    .is_some_and(|key| key.verify_digest(&header_hash, &s.signature).is_ok());
                if fresh {
                    newly_verified = Some(triple);
                }
                fresh
            });
            if !valid {
                self.discard_copy();
                return;
            }
        }
        let threshold = copies_needed(
            self.config.n,
            self.config.f,
            self.config.tentative,
            &self.config.policy,
        );
        self.touch += 1;
        let is_new_round = !self.collecting.contains_key(&slot);
        if is_new_round {
            if self.collecting.len() >= self.config.max_collecting {
                self.evict_stalest_round(now_us);
            }
            if let Some(flight) = &self.flight {
                flight.record(now_us, EventKind::CollectFirst, slot.1, from.0 as u64, 0);
            }
        }
        let entry = self
            .collecting
            .entry(slot.clone())
            .or_insert_with(|| Collecting::new(now_us));
        entry.last_touch = self.touch;
        if let Some(triple) = newly_verified {
            self.verify_cache_entries += entry.insert_verified(triple);
        }
        // The first copy under a header is stored unchecked, and a later
        // one that is byte-equal joins it: threshold-many equal copies
        // from distinct nodes include a correct node's, so what is
        // delivered hashes to its header. Only two different copies
        // under one header pay the SHA-256 pass over the envelopes, to
        // tell which one lies. (Both hashing to it would be a SHA-256
        // collision.)
        let mut liars = 0;
        let candidate = match entry.candidates.entry(header_hash) {
            Entry::Vacant(vacant) => vacant.insert(Candidate::new(block.clone())),
            Entry::Occupied(occupied) => {
                let stored = occupied.into_mut();
                if stored.block.envelopes != block.envelopes {
                    if stored.consistent() || !block.data_consistent() {
                        self.discard_copy();
                        return;
                    }
                    // The stored copies lied: this one takes their place.
                    liars = stored.nodes.len();
                    *stored = Candidate::new(block.clone());
                    stored.consistent = Some(true);
                }
                stored
            }
        };
        if !candidate.nodes.insert(from) {
            return; // duplicate copy from the same node
        }
        for signature in block.signatures {
            if !candidate.signatures.iter().any(|s| s.node == signature.node) {
                candidate.signatures.push(signature);
            }
        }
        let copies = candidate.nodes.len() as u64;
        let complete = (candidate.nodes.len() >= threshold).then(|| {
            let mut complete = candidate.block.clone();
            complete.signatures = candidate.signatures.clone();
            complete
        });
        for _ in 0..liars {
            self.discard_copy();
        }
        if let Some(complete) = complete {
            if let Some(round) = self.collecting.remove(&slot) {
                self.verify_cache_entries -= round.verified.len() as i64;
                let round_us = now_us.saturating_sub(round.first_seen_us);
                self.obs.collect_round_us.record(round_us);
                if let Some(flight) = &self.flight {
                    flight.record(now_us, EventKind::CollectDone, slot.1, copies, round_us);
                }
            }
            self.ready.insert(slot, complete);
        }
        self.obs.collecting_rounds.set(self.collecting.len() as i64);
        self.obs.verify_cache_entries.set(self.verify_cache_entries);
    }

    /// Removes the least-recently-touched collection round (called when
    /// the concurrent-round bound is exceeded).
    fn evict_stalest_round(&mut self, now_us: u64) {
        let Some(slot) = self
            .collecting
            .iter()
            .min_by_key(|(_, round)| round.last_touch)
            .map(|(slot, _)| slot.clone())
        else {
            return;
        };
        if let Some(round) = self.collecting.remove(&slot) {
            self.verify_cache_entries -= round.verified.len() as i64;
        }
        self.obs.evicted_rounds.inc();
        if let Some(flight) = &self.flight {
            flight.record(now_us, EventKind::CollectEvict, slot.1, 0, 0);
        }
    }

    /// Pops the next in-order ready block for any channel, preferring
    /// the lexicographically first channel with one available.
    ///
    /// Blocks are released strictly in order; a gap (e.g. number 5
    /// completing before 4) is held back until the predecessor arrives.
    pub(crate) fn pop_ready(&mut self) -> Option<Block> {
        let slot = self
            .ready
            .keys()
            .find(|(channel, number)| *number == self.next_deliver_on(channel))
            .cloned()?;
        self.take_ready(slot)
    }

    /// Like [`BlockCollector::pop_ready`], but only for one channel.
    pub(crate) fn pop_ready_on(&mut self, channel: &str) -> Option<Block> {
        self.take_ready((channel.to_string(), self.next_deliver_on(channel)))
    }

    fn take_ready(&mut self, slot: (String, u64)) -> Option<Block> {
        let block = self.ready.remove(&slot)?;
        self.next_deliver.insert(slot.0, slot.1 + 1);
        self.obs.delivered_blocks.inc();
        Some(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlf_crypto::ecdsa::SigningKey;
    use hlf_wire::Bytes;

    fn collector() -> BlockCollector {
        BlockCollector::new(FrontendConfig::new(ClientId(50), 4, 1))
    }

    fn honest_block() -> Block {
        Block::build(1, Hash256::ZERO, vec![Bytes::from(vec![7u8; 64]), Bytes::from(vec![8u8; 64])])
    }

    /// `block` with one envelope byte flipped under an unchanged header.
    fn tampered(block: &Block) -> Block {
        let mut copy = block.clone();
        let mut bytes = copy.envelopes[1].as_slice().to_vec();
        bytes[3] ^= 1;
        copy.envelopes[1] = Bytes::from(bytes);
        copy
    }

    #[test]
    fn later_copy_with_same_header_and_other_data_is_discarded() {
        let mut collector = collector();
        let honest = honest_block();
        collector.offer(NodeId(0), honest.clone(), 0);
        // Same header, one flipped byte, from another node: discarded,
        // and no step towards 2f + 1.
        let forged = tampered(&honest);
        assert_eq!(forged.header_hash(), honest.header_hash());
        collector.offer(NodeId(3), forged, 1);
        assert_eq!(collector.obs.discarded_copies.get(), 1);
        collector.offer(NodeId(1), honest.clone(), 2);
        assert!(collector.pop_ready().is_none(), "two honest copies and a forgery are not 2f + 1");
        // The third honest copy completes the block, with honest data.
        collector.offer(NodeId(2), honest.clone(), 3);
        let delivered = collector.pop_ready().expect("2f + 1 honest copies");
        assert_eq!(delivered.envelopes, honest.envelopes);
        assert!(delivered.data_consistent());
        assert_eq!(collector.obs.discarded_copies.get(), 1);
    }

    /// A tampered first copy is stored unchecked (a faulty orderer can
    /// open a round with a self-consistent forgery just as well, and
    /// `max_collecting` bounds rounds), but the first honest copy under
    /// its header exposes it: the honest block delivers, and the forgery
    /// is the one copy discarded.
    #[test]
    fn tampered_first_copy_gives_way_to_the_honest_ones() {
        let mut collector = collector();
        let honest = honest_block();
        collector.offer(NodeId(3), tampered(&honest), 0);
        assert_eq!(collector.obs.discarded_copies.get(), 0, "stored unchecked");
        for node in 0..3 {
            collector.offer(NodeId(node), honest.clone(), 1);
        }
        assert_eq!(collector.pop_ready().map(|b| b.envelopes), Some(honest.envelopes));
        assert_eq!(collector.obs.discarded_copies.get(), 1);
    }

    /// Under either policy, a tampered copy (validly signed by its
    /// faulty sender) that arrives before the honest ones or after the
    /// first of them: the honest block delivers, consistent, and the
    /// tampered copy is the one discarded.
    #[test]
    fn tampered_copy_before_or_after_honest_ones_is_discarded() {
        let keys: Vec<SigningKey> = (0..4)
            .map(|node| SigningKey::from_seed(format!("collector-{node}").as_bytes()))
            .collect();
        let pinned: Vec<PinnedKey> = keys.iter().map(|key| PinnedKey::new(*key.verifying_key())).collect();
        let honest = honest_block();
        let copy = |block: &Block, node: u32| {
            let mut copy = block.clone();
            copy.sign(node, &keys[node as usize]);
            (NodeId(node), copy)
        };
        for verify in [false, true] {
            for tampered_at in [0, 1] {
                let mut config = FrontendConfig::new(ClientId(50), 4, 1);
                if verify {
                    config = config.with_verification(&pinned);
                }
                let needed = copies_needed(4, 1, false, &config.policy);
                let mut collector = BlockCollector::new(config);
                let mut copies: Vec<(NodeId, Block)> = (0..needed as u32).map(|node| copy(&honest, node)).collect();
                copies.insert(tampered_at, copy(&tampered(&honest), 3));
                for (t, (from, block)) in copies.into_iter().enumerate() {
                    collector.offer(from, block, t as u64);
                }
                let case = format!("verify {verify}, tampered copy at {tampered_at}");
                let delivered = collector.pop_ready().expect(&case);
                assert_eq!(delivered.envelopes, honest.envelopes, "{case}");
                assert!(delivered.data_consistent(), "{case}");
                assert_eq!(collector.obs.discarded_copies.get(), 1, "{case}");
            }
        }
    }
}
