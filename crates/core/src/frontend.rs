//! The frontend: the peer-side half of the ordering service
//! (paper §5, Figure 4).
//!
//! A frontend (1) relays envelopes from its trust domain to the
//! ordering cluster, and (2) collects the blocks the cluster pushes
//! back. Because the default frontend does **not** verify orderer
//! signatures, it waits for `2f + 1` byte-matching block copies — which
//! guarantees at least `f + 1` valid signatures for downstream peers.
//! With verification enabled (paper footnote 8), `f + 1` copies
//! suffice.

use crate::channel::tag_envelope;
use crate::obs::FrontendObs;
use hlf_wire::Bytes;
use hlf_crypto::ecdsa::VerifyingKey;
use hlf_crypto::sha256::Hash256;
use hlf_fabric::block::{Block, BlockSignature, SYSTEM_CHANNEL};
use hlf_obs::flight::EventKind;
use hlf_obs::{FlightRecorder, Registry};
use hlf_smr::client::{ProxyConfig, ServiceProxy};
use hlf_transport::Network;
use hlf_wire::{ClientId, NodeId};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-slot bound on the verified-signature dedup cache. A Byzantine
/// orderer can mint unlimited distinct `(node, header, signature)`
/// triples for one block number; beyond this many the oldest entries
/// are ring-evicted (the cache only skips work, so eviction never
/// affects correctness).
const VERIFY_CACHE_PER_SLOT: usize = 64;

/// How the frontend decides a pushed block is trustworthy.
#[derive(Clone, Debug)]
pub enum DeliveryPolicy {
    /// Collect `2f + 1` byte-matching copies; no signature checks
    /// (the paper's default).
    MatchOnly,
    /// Verify each copy's signature and accept after `f + 1` valid
    /// ones (paper footnote 8). Requires the orderer public keys.
    Verify {
        /// Orderer public keys indexed by node id.
        orderer_keys: Vec<VerifyingKey>,
    },
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
    /// Trust policy for pushed blocks.
    pub policy: DeliveryPolicy,
    /// Maximum block numbers collecting copies at once. Byzantine
    /// orderers can push copies for numbers that never complete; past
    /// this bound the least-recently-touched round is evicted.
    pub max_collecting: usize,
}

impl FrontendConfig {
    /// Default (match-only) configuration.
    pub fn new(id: ClientId, n: usize, f: usize) -> FrontendConfig {
        FrontendConfig {
            id,
            n,
            f,
            policy: DeliveryPolicy::MatchOnly,
            max_collecting: 1024,
        }
    }

    /// Switches to signature verification with `f + 1` copies.
    pub fn with_verification(mut self, orderer_keys: Vec<VerifyingKey>) -> FrontendConfig {
        self.policy = DeliveryPolicy::Verify { orderer_keys };
        self
    }

    /// Overrides the concurrent collection-round bound.
    pub fn with_max_collecting(mut self, max: usize) -> FrontendConfig {
        self.max_collecting = max.max(1);
        self
    }
}

/// Per-block-number collection state.
#[derive(Debug)]
struct Collecting {
    /// header hash -> (block content, signatures gathered, nodes seen)
    candidates: HashMap<Hash256, (Block, Vec<BlockSignature>, HashSet<NodeId>)>,
    /// `(node, header hash, signature)` triples that already passed
    /// ECDSA verification in this collection round, so re-pushed copies
    /// skip the expensive check (verification mode only). Bounded to
    /// [`VERIFY_CACHE_PER_SLOT`] entries, ring-evicted oldest-first.
    verified: HashSet<(u32, Hash256, hlf_crypto::ecdsa::Signature)>,
    /// Insertion order of `verified`, driving the ring eviction.
    verified_order: VecDeque<(u32, Hash256, hlf_crypto::ecdsa::Signature)>,
    /// When the first copy for this slot arrived (collection-round
    /// latency = first copy -> threshold reached).
    first_seen: Instant,
    /// Monotonic stamp of the most recent copy for this slot (LRU key
    /// for round eviction).
    last_touch: u64,
}

impl Collecting {
    fn new() -> Collecting {
        Collecting {
            candidates: HashMap::new(),
            verified: HashSet::new(),
            verified_order: VecDeque::new(),
            first_seen: Instant::now(),
            last_touch: 0,
        }
    }

    /// Caches a verified triple; returns the net change in entry count.
    // lint:allow(panic): `pop_front` runs only after the length check proved the deque non-empty
    fn insert_verified(&mut self, triple: (u32, Hash256, hlf_crypto::ecdsa::Signature)) -> i64 {
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

/// Frontend counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Envelopes relayed to the cluster.
    pub submitted: u64,
    /// Blocks delivered in order.
    pub delivered_blocks: u64,
    /// Block copies discarded (bad signature, stale number...).
    pub discarded_copies: u64,
    /// Signature checks skipped because the same `(node, header,
    /// signature)` triple was already verified in the same round.
    pub verify_cache_hits: u64,
    /// Collection rounds evicted before completing because the
    /// concurrent-round bound was hit.
    pub evicted_rounds: u64,
}

/// The ordering-service frontend.
pub struct Frontend {
    proxy: ServiceProxy,
    config: FrontendConfig,
    /// Per-channel next block number to deliver (1 for new channels).
    next_deliver: HashMap<String, u64>,
    /// (channel, number) -> collection state.
    collecting: BTreeMap<(String, u64), Collecting>,
    /// (channel, number) -> completed block.
    ready: BTreeMap<(String, u64), Block>,
    stats: FrontendStats,
    obs: Option<FrontendObs>,
    /// Flight recorder for collection-phase events and eviction
    /// anomaly dumps.
    flight: Option<Arc<FlightRecorder>>,
    /// Monotonic counter stamping collection-round activity (LRU).
    touch: u64,
    /// Verified-triple entries across all rounds (mirrors the
    /// `core.frontend.verify_cache_entries` gauge).
    verify_cache_entries: i64,
}

impl std::fmt::Debug for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frontend")
            .field("id", &self.config.id)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Frontend {
    /// Connects a frontend to the cluster's network and registers for
    /// block pushes.
    pub fn connect(network: &Network, config: FrontendConfig) -> Frontend {
        let proxy = ServiceProxy::new(
            network,
            ProxyConfig::classic(config.id, config.n, config.f),
        );
        Frontend::over_proxy(proxy, config)
    }

    /// Connects over an already-built transport endpoint — the
    /// multi-process path, where the endpoint wraps a TCP network
    /// ([`hlf_transport::TcpNetwork::endpoint`]).
    pub fn connect_endpoint(
        endpoint: hlf_transport::Endpoint,
        config: FrontendConfig,
    ) -> Frontend {
        let proxy = ServiceProxy::with_endpoint(
            endpoint,
            ProxyConfig::classic(config.id, config.n, config.f),
        );
        Frontend::over_proxy(proxy, config)
    }

    fn over_proxy(proxy: ServiceProxy, config: FrontendConfig) -> Frontend {
        proxy.subscribe();
        Frontend {
            proxy,
            config,
            next_deliver: HashMap::new(),
            collecting: BTreeMap::new(),
            ready: BTreeMap::new(),
            stats: FrontendStats::default(),
            obs: None,
            flight: None,
            touch: 0,
            verify_cache_entries: 0,
        }
    }

    /// Starts recording `core.frontend.*` metrics into `registry`.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.obs = Some(FrontendObs::new(registry));
    }

    /// Starts recording collection-phase flight events (and eviction
    /// anomaly dumps) into `flight`.
    pub fn attach_flight(&mut self, flight: Arc<FlightRecorder>) {
        self.flight = Some(flight);
    }

    /// This frontend's client id.
    pub fn id(&self) -> ClientId {
        self.config.id
    }

    /// Counters.
    pub fn stats(&self) -> FrontendStats {
        self.stats
    }

    /// Relays an opaque envelope on the default [`SYSTEM_CHANNEL`].
    pub fn submit(&mut self, envelope: impl Into<Bytes>) {
        self.submit_to_channel(SYSTEM_CHANNEL, envelope);
    }

    /// Relays an opaque envelope on an explicit channel (asynchronous,
    /// like the BFT shim's client thread pool). Each channel forms its
    /// own hash chain of blocks.
    pub fn submit_to_channel(&mut self, channel: &str, envelope: impl Into<Bytes>) {
        self.stats.submitted += 1;
        if let Some(obs) = &self.obs {
            obs.submitted.inc();
        }
        let tagged = tag_envelope(channel, &envelope.into());
        let seq = self.proxy.invoke_async(tagged);
        if let Some(flight) = &self.flight {
            let id = hlf_obs::trace_id(self.config.id.0, seq);
            flight.record_now(EventKind::Submit, id, self.config.id.0 as u64, seq);
        }
    }

    /// Counts one rejected block copy in both counter sets.
    fn discard_copy(&mut self) {
        self.stats.discarded_copies += 1;
        if let Some(obs) = &self.obs {
            obs.discarded_copies.inc();
        }
    }

    /// Counts one in-order block delivery in both counter sets.
    fn count_delivery(&mut self, number: u64) {
        self.stats.delivered_blocks += 1;
        if let Some(obs) = &self.obs {
            obs.delivered_blocks.inc();
        }
        if let Some(flight) = &self.flight {
            flight.record_now(EventKind::Deliver, number, 0, 0);
        }
    }

    /// Copies needed before a block is trusted.
    fn threshold(&self) -> usize {
        match self.config.policy {
            DeliveryPolicy::MatchOnly => 2 * self.config.f + 1,
            DeliveryPolicy::Verify { .. } => self.config.f + 1,
        }
    }

    fn next_deliver_on(&self, channel: &str) -> u64 {
        self.next_deliver.get(channel).copied().unwrap_or(1)
    }

    /// Ingests one pushed block copy from `from`.
    fn accept(&mut self, from: NodeId, block: Block) {
        if block.header.number < self.next_deliver_on(&block.header.channel)
            || !block.data_consistent()
        {
            self.discard_copy();
            return;
        }
        let slot = (block.header.channel.clone(), block.header.number);
        let mut newly_verified = None;
        if let DeliveryPolicy::Verify { orderer_keys } = &self.config.policy {
            // The copy must carry a valid signature from its sender.
            // Copies a node re-pushes (retransmits, view changes) repeat
            // the same triple, so consult the round's cache before
            // paying for an ECDSA verification. The cache is read
            // through `get` — an invalid copy must not allocate
            // collection state for its slot.
            let header_hash = block.header_hash();
            let cache = self.collecting.get(&slot).map(|c| &c.verified);
            let mut cache_hits = 0;
            let valid = block.signatures.iter().any(|s| {
                if s.node != from.0 {
                    return false;
                }
                let triple = (s.node, header_hash, s.signature);
                if cache.is_some_and(|v| v.contains(&triple)) {
                    cache_hits += 1;
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
            self.stats.verify_cache_hits += cache_hits;
            if !valid {
                self.discard_copy();
                return;
            }
        }
        let threshold = self.threshold();
        self.touch += 1;
        if !self.collecting.contains_key(&slot)
            && self.collecting.len() >= self.config.max_collecting
        {
            self.evict_stalest_round();
        }
        let touch = self.touch;
        let is_new_round = !self.collecting.contains_key(&slot);
        let entry = self.collecting.entry(slot.clone()).or_insert_with(Collecting::new);
        entry.last_touch = touch;
        if is_new_round {
            if let Some(flight) = &self.flight {
                flight.record_now(EventKind::CollectFirst, slot.1, from.0 as u64, 0);
            }
        }
        if let Some(triple) = newly_verified {
            self.verify_cache_entries += entry.insert_verified(triple);
        }
        let entry = self.collecting.get_mut(&slot).expect("just inserted"); // lint:allow(panic): the entry was inserted earlier in this call
        let key = block.header_hash();
        let (stored, signatures, nodes) = entry
            .candidates
            .entry(key)
            .or_insert_with(|| (block.clone(), Vec::new(), HashSet::new()));
        if !nodes.insert(from) {
            return; // duplicate copy from the same node
        }
        for signature in block.signatures {
            if !signatures.iter().any(|s| s.node == signature.node) {
                signatures.push(signature);
            }
        }
        if nodes.len() >= threshold {
            let copies = nodes.len() as u64;
            let mut complete = stored.clone();
            complete.signatures = signatures.clone();
            if let Some(round) = self.collecting.remove(&slot) {
                self.verify_cache_entries -= round.verified.len() as i64;
                let round_us = round.first_seen.elapsed().as_micros() as u64;
                if let Some(obs) = &self.obs {
                    obs.collect_round_us.record(round_us);
                }
                if let Some(flight) = &self.flight {
                    flight.record_now(EventKind::CollectDone, slot.1, copies, round_us);
                }
            }
            self.ready.insert(slot, complete);
        }
        if let Some(obs) = &self.obs {
            obs.collecting_rounds.set(self.collecting.len() as i64);
            obs.verify_cache_entries.set(self.verify_cache_entries);
        }
    }

    /// Removes the least-recently-touched collection round (called when
    /// the concurrent-round bound is exceeded).
    fn evict_stalest_round(&mut self) {
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
        self.stats.evicted_rounds += 1;
        if let Some(obs) = &self.obs {
            obs.evicted_rounds.inc();
        }
        if let Some(flight) = &self.flight {
            flight.record_now(EventKind::CollectEvict, slot.1, 0, 0);
            flight.anomaly("collect_evict");
        }
    }

    /// Pops the next in-order ready block for any channel, preferring
    /// the lexicographically first channel with one available.
    fn pop_ready(&mut self) -> Option<Block> {
        let slot = self
            .ready
            .keys()
            .find(|(channel, number)| *number == self.next_deliver_on(channel))
            .cloned()?;
        let block = self.ready.remove(&slot).expect("key just seen"); // lint:allow(panic): the key was produced by iterating this map
        let number = slot.1;
        self.next_deliver.insert(slot.0, slot.1 + 1);
        self.count_delivery(number);
        Some(block)
    }

    /// Returns the next block in sequence, waiting up to `timeout`.
    ///
    /// Blocks are delivered strictly in order; a gap (e.g. number 5
    /// completing before 4) is held back until the predecessor arrives.
    pub fn next_block(&mut self, timeout: Duration) -> Option<Block> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(block) = self.pop_ready() {
                return Some(block);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let push = self.proxy.next_push(deadline - now)?;
            let Ok(block) = hlf_wire::from_bytes_shared::<Block>(&push.payload) else {
                self.discard_copy();
                continue;
            };
            self.accept(push.from, block);
        }
    }

    /// Like [`Frontend::next_block`], but only for one channel.
    pub fn next_block_on(&mut self, channel: &str, timeout: Duration) -> Option<Block> {
        let deadline = Instant::now() + timeout;
        loop {
            let slot = (channel.to_string(), self.next_deliver_on(channel));
            if let Some(block) = self.ready.remove(&slot) {
                let number = slot.1;
                self.next_deliver.insert(slot.0, slot.1 + 1);
                self.count_delivery(number);
                return Some(block);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let push = self.proxy.next_push(deadline - now)?;
            let Ok(block) = hlf_wire::from_bytes_shared::<Block>(&push.payload) else {
                self.discard_copy();
                continue;
            };
            self.accept(push.from, block);
        }
    }

    /// Drains any block copies that already arrived without waiting.
    pub fn poll(&mut self) {
        while let Some(push) = self.proxy.try_push() {
            if let Ok(block) = hlf_wire::from_bytes_shared::<Block>(&push.payload) {
                self.accept(push.from, block);
            } else {
                self.discard_copy();
            }
        }
    }

    /// Non-blocking: next in-order block if already complete.
    pub fn try_next_block(&mut self) -> Option<Block> {
        self.poll();
        self.pop_ready()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlf_crypto::ecdsa::SigningKey;
    use hlf_transport::PeerId;

    fn orderer_keys(n: usize) -> (Vec<SigningKey>, Vec<VerifyingKey>) {
        let sk: Vec<SigningKey> = (0..n)
            .map(|i| SigningKey::from_seed(format!("fe-orderer-{i}").as_bytes()))
            .collect();
        let vk = sk.iter().map(|k| *k.verifying_key()).collect();
        (sk, vk)
    }

    fn block(number: u64, prev: Hash256, tag: u8) -> Block {
        Block::build(number, prev, vec![Bytes::from(vec![tag; 16])])
    }

    /// Builds a frontend plus raw replica endpoints to feed it by hand.
    fn fixture(
        policy: DeliveryPolicy,
        n: usize,
        f: usize,
    ) -> (Frontend, Vec<hlf_transport::Endpoint>, Network) {
        let network = Network::new();
        let replicas: Vec<_> = (0..n as u32)
            .map(|i| network.join(PeerId::replica(i)))
            .collect();
        let frontend = Frontend::connect(
            &network,
            FrontendConfig {
                id: ClientId(50),
                n,
                f,
                policy,
                max_collecting: 1024,
            },
        );
        // Drain the Subscribe messages.
        for r in &replicas {
            let _ = r.recv_timeout(Duration::from_millis(100));
        }
        (frontend, replicas, network)
    }

    fn push_block(replica: &hlf_transport::Endpoint, block: &Block) {
        let payload = Bytes::from(hlf_wire::to_bytes(block));
        let msg = hlf_smr::wire::SmrMsg::Reply { seq: 0, payload };
        replica
            .send(PeerId::client(50), Bytes::from(hlf_wire::to_bytes(&msg)))
            .unwrap();
    }

    #[test]
    fn delivers_after_2f_plus_1_matching_copies() {
        let (mut frontend, replicas, _n) = fixture(DeliveryPolicy::MatchOnly, 4, 1);
        let (sk, _) = orderer_keys(4);
        let base = block(1, Hash256::ZERO, 1);
        // Each replica signs its own copy.
        for (i, replica) in replicas.iter().enumerate().take(2) {
            let mut copy = base.clone();
            copy.sign(i as u32, &sk[i]);
            push_block(replica, &copy);
        }
        // Two copies are not enough.
        assert!(frontend.next_block(Duration::from_millis(100)).is_none());
        let mut copy = base.clone();
        copy.sign(2, &sk[2]);
        push_block(&replicas[2], &copy);
        let delivered = frontend.next_block(Duration::from_secs(2)).unwrap();
        assert_eq!(delivered.header.number, 1);
        // The merged block accumulated all three signatures, giving
        // peers their f+1 valid ones.
        assert_eq!(delivered.signatures.len(), 3);
    }

    #[test]
    fn duplicate_copies_from_one_node_count_once() {
        let (mut frontend, replicas, _n) = fixture(DeliveryPolicy::MatchOnly, 4, 1);
        let (sk, _) = orderer_keys(4);
        let mut copy = block(1, Hash256::ZERO, 1);
        copy.sign(0, &sk[0]);
        for _ in 0..5 {
            push_block(&replicas[0], &copy);
        }
        assert!(frontend.next_block(Duration::from_millis(150)).is_none());
    }

    #[test]
    fn equivocating_minority_cannot_deliver() {
        // A Byzantine node pushes a different block for number 1; the
        // honest majority's block wins and the rogue one evaporates.
        let (mut frontend, replicas, _n) = fixture(DeliveryPolicy::MatchOnly, 4, 1);
        let (sk, _) = orderer_keys(4);
        let honest = block(1, Hash256::ZERO, 1);
        let rogue = block(1, Hash256::ZERO, 99);
        let mut rogue_copy = rogue.clone();
        rogue_copy.sign(3, &sk[3]);
        push_block(&replicas[3], &rogue_copy);
        for i in 0..3 {
            let mut copy = honest.clone();
            copy.sign(i as u32, &sk[i]);
            push_block(&replicas[i], &copy);
        }
        let delivered = frontend.next_block(Duration::from_secs(2)).unwrap();
        assert_eq!(delivered.header.data_hash, honest.header.data_hash);
    }

    #[test]
    fn in_order_delivery_holds_back_gaps() {
        let (mut frontend, replicas, _n) = fixture(DeliveryPolicy::MatchOnly, 4, 1);
        let (sk, _) = orderer_keys(4);
        let b1 = block(1, Hash256::ZERO, 1);
        let b2 = block(2, b1.header_hash(), 2);
        // Block 2 completes first.
        for i in 0..3 {
            let mut copy = b2.clone();
            copy.sign(i as u32, &sk[i]);
            push_block(&replicas[i], &copy);
        }
        assert!(frontend.next_block(Duration::from_millis(100)).is_none());
        for i in 0..3 {
            let mut copy = b1.clone();
            copy.sign(i as u32, &sk[i]);
            push_block(&replicas[i], &copy);
        }
        let first = frontend.next_block(Duration::from_secs(2)).unwrap();
        assert_eq!(first.header.number, 1);
        let second = frontend.next_block(Duration::from_secs(2)).unwrap();
        assert_eq!(second.header.number, 2);
        assert_eq!(frontend.stats().delivered_blocks, 2);
    }

    #[test]
    fn verification_mode_needs_only_f_plus_1() {
        let (sk, vk) = orderer_keys(4);
        let (mut frontend, replicas, _n) =
            fixture(DeliveryPolicy::Verify { orderer_keys: vk }, 4, 1);
        let base = block(1, Hash256::ZERO, 1);
        for i in 0..2 {
            let mut copy = base.clone();
            copy.sign(i as u32, &sk[i]);
            push_block(&replicas[i], &copy);
        }
        let delivered = frontend.next_block(Duration::from_secs(2)).unwrap();
        assert_eq!(delivered.header.number, 1);
        assert_eq!(delivered.signatures.len(), 2);
    }

    #[test]
    fn verification_mode_caches_repeated_signature_checks() {
        let (sk, vk) = orderer_keys(4);
        let (mut frontend, replicas, _n) =
            fixture(DeliveryPolicy::Verify { orderer_keys: vk }, 4, 1);
        let mut copy = block(1, Hash256::ZERO, 1);
        copy.sign(0, &sk[0]);
        // The same signed copy re-pushed by the same node: the first
        // push verifies, the rest are answered from the round's cache.
        for _ in 0..3 {
            push_block(&replicas[0], &copy);
        }
        assert!(frontend.next_block(Duration::from_millis(150)).is_none());
        assert_eq!(frontend.stats().verify_cache_hits, 2);
        assert_eq!(frontend.stats().discarded_copies, 0);
        // A second distinct node still completes the round (f + 1 = 2).
        let mut second = block(1, Hash256::ZERO, 1);
        second.sign(1, &sk[1]);
        push_block(&replicas[1], &second);
        let delivered = frontend.next_block(Duration::from_secs(2)).unwrap();
        assert_eq!(delivered.header.number, 1);
    }

    #[test]
    fn registry_records_collection_rounds_and_deliveries() {
        let (mut frontend, replicas, _n) = fixture(DeliveryPolicy::MatchOnly, 4, 1);
        let registry = Registry::new("frontend-test");
        frontend.attach_obs(&registry);
        let (sk, _) = orderer_keys(4);
        frontend.submit(Bytes::from_static(b"envelope"));
        let base = block(1, Hash256::ZERO, 1);
        for i in 0..3 {
            let mut copy = base.clone();
            copy.sign(i as u32, &sk[i]);
            push_block(&replicas[i], &copy);
        }
        let delivered = frontend.next_block(Duration::from_secs(2)).unwrap();
        assert_eq!(delivered.header.number, 1);
        // A stale copy for the already-delivered number is discarded.
        let mut stale = base.clone();
        stale.sign(3, &sk[3]);
        push_block(&replicas[3], &stale);
        assert!(frontend.next_block(Duration::from_millis(100)).is_none());
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("core.frontend.submitted"), Some(1));
        assert_eq!(snap.counter_value("core.frontend.delivered_blocks"), Some(1));
        assert_eq!(snap.counter_value("core.frontend.discarded_copies"), Some(1));
        let round = snap.histogram("core.frontend.collect_round_us").unwrap();
        assert_eq!(round.count, 1);
        // The obs counters track the plain stats struct exactly.
        assert_eq!(frontend.stats().delivered_blocks, 1);
        assert_eq!(frontend.stats().discarded_copies, 1);
    }

    #[test]
    fn collection_rounds_are_bounded_with_lru_eviction() {
        let network = Network::new();
        let replicas: Vec<_> = (0..4u32).map(|i| network.join(PeerId::replica(i))).collect();
        let mut frontend = Frontend::connect(
            &network,
            FrontendConfig::new(ClientId(50), 4, 1).with_max_collecting(2),
        );
        let registry = Registry::new("frontend-bound-test");
        frontend.attach_obs(&registry);
        for r in &replicas {
            let _ = r.recv_timeout(Duration::from_millis(100));
        }
        let (sk, _) = orderer_keys(4);
        let b1 = block(1, Hash256::ZERO, 1);
        let b2 = block(2, b1.header_hash(), 2);
        let b3 = block(3, b2.header_hash(), 3);
        // One copy each of numbers 1 and 2, then number 1 again: round 1
        // becomes the most recently touched, round 2 the stalest.
        for (i, b) in [(0usize, &b1), (1, &b2), (1, &b1)] {
            let mut copy = b.clone();
            copy.sign(i as u32, &sk[i]);
            push_block(&replicas[i], &copy);
        }
        assert!(frontend.next_block(Duration::from_millis(150)).is_none());
        assert_eq!(frontend.stats().evicted_rounds, 0);
        // A third concurrent round exceeds the bound of 2: the stalest
        // round (number 2) is evicted, not the hot one.
        let mut copy = b3.clone();
        copy.sign(2, &sk[2]);
        push_block(&replicas[2], &copy);
        assert!(frontend.next_block(Duration::from_millis(150)).is_none());
        assert_eq!(frontend.stats().evicted_rounds, 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("core.frontend.evicted_rounds"), Some(1));
        assert_eq!(snap.gauge_value("core.frontend.collecting_rounds"), Some(2));
        // The surviving hot round still completes and delivers.
        for i in [2usize, 3] {
            let mut copy = b1.clone();
            copy.sign(i as u32, &sk[i]);
            push_block(&replicas[i], &copy);
        }
        let delivered = frontend.next_block(Duration::from_secs(2)).unwrap();
        assert_eq!(delivered.header.number, 1);
    }

    #[test]
    fn verify_cache_is_ring_bounded_per_slot() {
        let (sk, vk) = orderer_keys(4);
        let (mut frontend, replicas, _n) =
            fixture(DeliveryPolicy::Verify { orderer_keys: vk }, 4, 1);
        let registry = Registry::new("frontend-ring-test");
        frontend.attach_obs(&registry);
        // A Byzantine orderer pushes many distinct blocks for the same
        // number, each validly signed: every one lands in the round's
        // verified cache, which must stay ring-bounded.
        let over = VERIFY_CACHE_PER_SLOT + 6;
        for tag in 0..over {
            let mut copy = block(1, Hash256::ZERO, tag as u8);
            copy.sign(0, &sk[0]);
            push_block(&replicas[0], &copy);
        }
        // Hub sends are synchronous hand-offs, so every copy is already
        // in the mailbox: drain it all, however long verifying takes.
        assert!(frontend.try_next_block().is_none());
        let snap = registry.snapshot();
        assert_eq!(
            snap.gauge_value("core.frontend.verify_cache_entries"),
            Some(VERIFY_CACHE_PER_SLOT as i64)
        );
        assert_eq!(snap.gauge_value("core.frontend.collecting_rounds"), Some(1));
    }

    #[test]
    fn verification_mode_rejects_unsigned_copies() {
        let (sk, vk) = orderer_keys(4);
        let (mut frontend, replicas, _n) =
            fixture(DeliveryPolicy::Verify { orderer_keys: vk }, 4, 1);
        let base = block(1, Hash256::ZERO, 1);
        // Unsigned copy and a copy signed with the wrong node id are
        // both discarded.
        push_block(&replicas[0], &base);
        let mut wrong = base.clone();
        wrong.sign(1, &sk[2]);
        push_block(&replicas[1], &wrong);
        assert!(frontend.next_block(Duration::from_millis(150)).is_none());
        assert_eq!(frontend.stats().discarded_copies, 2);
    }
}
