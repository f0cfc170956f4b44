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

use crate::channel::channel_payload;
use crate::collector::BlockCollector;
use hlf_wire::Bytes;
use hlf_fabric::block::{Block, SYSTEM_CHANNEL};
use hlf_obs::flight::EventKind;
use hlf_obs::{FlightRecorder, Registry};
use hlf_smr::client::{ProxyConfig, Push, ServiceProxy};
use hlf_transport::Network;
use hlf_wire::ClientId;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::collector::{DeliveryPolicy, FrontendConfig, FrontendStats};

/// The ordering-service frontend: a [`ServiceProxy`] to relay envelopes
/// and receive pushes, feeding a [`BlockCollector`] that decides when a
/// block is trustworthy.
pub struct Frontend {
    proxy: ServiceProxy,
    collector: BlockCollector,
    /// Flight recorder for submission and delivery events (the
    /// collector records the collection phase into the same ring).
    flight: Option<Arc<FlightRecorder>>,
    /// Clock origin for the collector when no flight recorder (whose
    /// clock is used otherwise) is attached.
    origin: Instant,
}

impl std::fmt::Debug for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frontend")
            .field("id", &self.id())
            .field("stats", &self.stats())
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
            collector: BlockCollector::new(config),
            flight: None,
            origin: Instant::now(),
        }
    }

    /// Starts recording `core.frontend.*` metrics into `registry`.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.collector.attach_obs(registry);
    }

    /// Starts recording collection-phase flight events (and eviction
    /// anomaly dumps) into `flight`.
    pub fn attach_flight(&mut self, flight: Arc<FlightRecorder>) {
        self.collector.attach_flight(Arc::clone(&flight));
        self.flight = Some(flight);
    }

    /// This frontend's client id.
    pub fn id(&self) -> ClientId {
        self.collector.config().id
    }

    /// Counters.
    pub fn stats(&self) -> FrontendStats {
        self.collector.stats()
    }

    /// Relays an opaque envelope on the default [`SYSTEM_CHANNEL`],
    /// untagged unless its first byte could start a channel tag
    /// ([`channel_payload`]).
    ///
    /// The envelope joins the proxy's request window
    /// ([`ServiceProxy::invoke_async`]) and leaves with it: when the
    /// window fills, when this frontend next waits for a block
    /// ([`Frontend::next_block`], [`Frontend::poll`] and
    /// [`Frontend::try_next_block`] finding nothing more), on
    /// [`Frontend::flush`], or on drop. A caller that submits and never
    /// takes blocks calls `flush`, as with a `BufWriter`.
    pub fn submit(&mut self, envelope: impl Into<Bytes>) {
        self.submit_to_channel(SYSTEM_CHANNEL, envelope);
    }

    /// Relays an opaque envelope on an explicit channel (asynchronous,
    /// like the BFT shim's client thread pool). Each channel forms its
    /// own hash chain of blocks.
    pub fn submit_to_channel(&mut self, channel: &str, envelope: impl Into<Bytes>) {
        self.collector.count_submitted();
        let seq = self.proxy.invoke_async(channel_payload(channel, envelope.into()));
        if let Some(flight) = &self.flight {
            let id = self.id().0;
            flight.record_now(EventKind::Submit, hlf_obs::trace_id(id, seq), id as u64, seq);
        }
    }

    /// Sends the envelopes submitted so far that are still waiting in
    /// the request window.
    pub fn flush(&mut self) {
        self.proxy.flush();
    }

    /// The collector's clock: the flight recorder's when one is
    /// attached, so every event in its ring shares one time base.
    fn now_us(&self) -> u64 {
        match &self.flight {
            Some(flight) => flight.now_us(),
            None => self.origin.elapsed().as_micros() as u64,
        }
    }

    /// Hands one received push to the collector.
    fn ingest(&mut self, push: Push) {
        match hlf_wire::from_bytes_shared::<Block>(&push.payload) {
            Ok(block) => self.collector.offer(push.from, block, self.now_us()),
            Err(_) => self.collector.discard_copy(),
        }
    }

    /// Records the in-order release of `block`.
    fn delivered(&self, block: Block) -> Block {
        if let Some(flight) = &self.flight {
            flight.record_now(EventKind::Deliver, block.header.number, 0, 0);
        }
        block
    }

    /// Waits up to `timeout` for `pop` to yield a block, feeding the
    /// collector with pushes as they arrive.
    fn wait_for(
        &mut self,
        timeout: Duration,
        pop: impl Fn(&mut BlockCollector) -> Option<Block>,
    ) -> Option<Block> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(block) = pop(&mut self.collector) {
                return Some(self.delivered(block));
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let push = self.proxy.next_push(deadline - now)?;
            self.ingest(push);
        }
    }

    /// Returns the next block in sequence, waiting up to `timeout`.
    ///
    /// Blocks are delivered strictly in order; a gap (e.g. number 5
    /// completing before 4) is held back until the predecessor arrives.
    pub fn next_block(&mut self, timeout: Duration) -> Option<Block> {
        self.wait_for(timeout, BlockCollector::pop_ready)
    }

    /// Like [`Frontend::next_block`], but only for one channel.
    pub fn next_block_on(&mut self, channel: &str, timeout: Duration) -> Option<Block> {
        self.wait_for(timeout, |collector| collector.pop_ready_on(channel))
    }

    /// Drains any block copies that already arrived without waiting.
    pub fn poll(&mut self) {
        while let Some(push) = self.proxy.try_push() {
            self.ingest(push);
        }
    }

    /// Non-blocking: next in-order block if already complete.
    pub fn try_next_block(&mut self) -> Option<Block> {
        self.poll();
        self.collector.pop_ready().map(|block| self.delivered(block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::VERIFY_CACHE_PER_SLOT;
    use hlf_crypto::ecdsa::{PinnedKey, SigningKey};
    use hlf_crypto::sha256::Hash256;
    use hlf_transport::PeerId;

    fn orderer_keys(n: usize) -> (Vec<SigningKey>, Vec<PinnedKey>) {
        let sk: Vec<SigningKey> = (0..n)
            .map(|i| SigningKey::from_seed(format!("fe-orderer-{i}").as_bytes()))
            .collect();
        let vk = sk.iter().map(|k| PinnedKey::new(*k.verifying_key())).collect();
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
        let mut config = FrontendConfig::new(ClientId(50), n, f);
        config.policy = policy;
        fixture_with(config)
    }

    fn fixture_with(config: FrontendConfig) -> (Frontend, Vec<hlf_transport::Endpoint>, Network) {
        let network = Network::new();
        let replicas: Vec<_> = (0..config.n as u32)
            .map(|i| network.join(PeerId::replica(i)))
            .collect();
        let frontend = Frontend::connect(&network, config);
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

    /// What the frontend sends for a plain system-channel envelope is
    /// the envelope itself; one whose first byte is the tag's magic byte
    /// goes behind a tag. Both untag to the envelope on the system
    /// channel.
    #[test]
    fn system_envelopes_travel_untagged_unless_they_start_like_a_tag() {
        use crate::channel::{tag_envelope, untag_envelope, TAG_MAGIC};
        use hlf_smr::wire::SmrMsg;
        let (mut frontend, replicas, _n) = fixture(DeliveryPolicy::MatchOnly, 4, 1);
        let plain = Bytes::from_static(b"plain envelope");
        let weird = Bytes::from(vec![TAG_MAGIC; 9]);
        frontend.submit(plain.clone());
        frontend.submit(weird.clone());
        frontend.flush();
        let (_, frame) = replicas[0].recv_timeout(Duration::from_secs(2)).unwrap();
        let Ok(SmrMsg::Requests(requests)) = hlf_wire::from_bytes(&frame) else {
            panic!("expected one window of requests");
        };
        let payloads: Vec<Bytes> = requests.into_iter().map(|request| request.payload).collect();
        assert_eq!(payloads, [plain.clone(), tag_envelope(SYSTEM_CHANNEL, &weird)]);
        for (payload, envelope) in payloads.iter().zip([plain, weird]) {
            assert_eq!(untag_envelope(payload), (SYSTEM_CHANNEL, envelope));
        }
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
    fn tentative_cluster_needs_the_tentative_quorum_of_copies() {
        // WHEAT, n = 5, f = 1: a tentatively executed block may still be
        // rolled back, so ⌈(n+f+1)/2⌉ = 4 matching copies are needed —
        // not the 2f+1 = 3 of final deliveries.
        let (mut frontend, replicas, _n) =
            fixture_with(FrontendConfig::new(ClientId(50), 5, 1).with_tentative(true));
        let (sk, _) = orderer_keys(5);
        let base = block(1, Hash256::ZERO, 1);
        for (i, replica) in replicas.iter().enumerate().take(3) {
            let mut copy = base.clone();
            copy.sign(i as u32, &sk[i]);
            push_block(replica, &copy);
        }
        assert!(frontend.next_block(Duration::from_millis(100)).is_none());
        let mut copy = base.clone();
        copy.sign(3, &sk[3]);
        push_block(&replicas[3], &copy);
        let delivered = frontend.next_block(Duration::from_secs(2)).unwrap();
        assert_eq!(delivered.header.number, 1);
        assert_eq!(delivered.signatures.len(), 4);
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
