//! The ordering node application: the replicated state machine that
//! turns the totally ordered envelope stream into signed blocks
//! (paper §5.1, "Ordering Nodes" side of Figure 5).

use crate::blockcutter::{BlockCutter, Cut, CutReason};
use crate::channel::untag_envelope;
use crate::obs::CutterObs;
use hlf_wire::Bytes;
use hlf_consensus::messages::Batch;
use hlf_crypto::ecdsa::SigningKey;
use hlf_crypto::sha256::Hash256;
use hlf_fabric::block::Block;
use hlf_obs::Registry;
use hlf_smr::{Application, Outbound};
use hlf_wire::{Decode, Encode, Reader};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-channel chain state: exactly the paper's tiny application state
/// (§5.2) — the next block number and the previous header hash — plus
/// the channel's blockcutter.
#[derive(Clone, Debug)]
struct ChainState {
    cutter: BlockCutter,
    next_number: u64,
    prev_hash: Hash256,
}

impl ChainState {
    fn new(block_size: usize, max_block_bytes: usize) -> ChainState {
        ChainState {
            cutter: BlockCutter::new(block_size, max_block_bytes),
            next_number: 1,
            prev_hash: Hash256::ZERO,
        }
    }
}

/// Configuration of one ordering node's application layer.
#[derive(Clone)]
pub(crate) struct OrderingNodeConfig {
    /// This node's id (used in block signatures).
    pub node: u32,
    /// Key used to sign block headers (may be the consensus key; the
    /// two uses are domain-separated).
    pub signing_key: SigningKey,
    /// Envelopes per block (the paper evaluates 10 and 100).
    pub block_size: usize,
    /// Byte cap per block.
    pub max_block_bytes: usize,
    /// Signer threads (the paper uses 16).
    pub signing_threads: usize,
    /// HLF 1.0 sometimes requires a block to be signed twice — once for
    /// the header and once to attach it to an execution context (paper
    /// footnote 10, halving `TP_sign`). When enabled, the signing pool
    /// produces the second signature as well.
    pub double_sign: bool,
    /// Cut a partial block at the end of every executed consensus batch.
    /// This is a *deterministic* stand-in for Fabric's wall-clock
    /// `BatchTimeout` (batch boundaries are identical at all replicas),
    /// bounding envelope latency under light traffic.
    pub flush_on_batch_end: bool,
    /// Registry the blockcutter and signing-pool metrics record into
    /// (`core.cutter.*`, `core.signing.*`); a private one unless set.
    pub registry: Arc<Registry>,
    /// Flight recorder receiving `SignStart`/`SignDone` events from the
    /// signing pool. `None` disables recording.
    pub flight: Option<Arc<hlf_obs::FlightRecorder>>,
}

impl std::fmt::Debug for OrderingNodeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderingNodeConfig")
            .field("node", &self.node)
            .field("block_size", &self.block_size)
            .field("signing_threads", &self.signing_threads)
            .finish()
    }
}

impl OrderingNodeConfig {
    /// Paper-default configuration: blocks of 10 envelopes, 16 signer
    /// threads, 8 MiB byte cap.
    pub(crate) fn new(node: u32, signing_key: SigningKey) -> OrderingNodeConfig {
        OrderingNodeConfig {
            node,
            signing_key,
            block_size: 10,
            max_block_bytes: 8 * 1024 * 1024,
            signing_threads: 16,
            double_sign: false,
            flush_on_batch_end: false,
            registry: Registry::new(format!("node-{node}")),
            flight: None,
        }
    }

    /// Sets the envelopes-per-block target.
    pub(crate) fn with_block_size(mut self, block_size: usize) -> OrderingNodeConfig {
        self.block_size = block_size;
        self
    }

    /// Sets the signer thread count.
    pub(crate) fn with_signing_threads(mut self, threads: usize) -> OrderingNodeConfig {
        self.signing_threads = threads;
        self
    }

    /// Enables HLF 1.0's second block signature (paper footnote 10).
    pub(crate) fn with_double_sign(mut self, enabled: bool) -> OrderingNodeConfig {
        self.double_sign = enabled;
        self
    }

    /// Enables deterministic partial-block flushing at batch boundaries.
    pub(crate) fn with_flush_on_batch_end(mut self, enabled: bool) -> OrderingNodeConfig {
        self.flush_on_batch_end = enabled;
        self
    }

}

/// Undo record for WHEAT tentative execution: a snapshot of every
/// channel's chain state (channels are few and their state is tiny).
#[derive(Debug)]
struct Undo {
    cid: u64,
    chains: BTreeMap<String, ChainState>,
}

/// The replicated application run by every ordering node.
///
/// Replicated state is exactly what the paper says it is (§5.2): the
/// next block number and the previous header hash — plus any envelopes
/// buffered in the blockcutter at a checkpoint boundary.
pub(crate) struct OrderingNodeApp {
    config: OrderingNodeConfig,
    /// Channel name -> chain state (BTreeMap: deterministic snapshot
    /// and iteration order across replicas).
    chains: BTreeMap<String, ChainState>,
    /// Where cut, chained, still unsigned blocks go. The application is
    /// clock- and thread-free: signing and transmission are the sink's.
    sink: Box<dyn FnMut(Block) + Send>,
    cutter_obs: CutterObs,
    undo: Vec<Undo>,
}

impl std::fmt::Debug for OrderingNodeApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderingNodeApp")
            .field("node", &self.config.node)
            .field("channels", &self.chains.len())
            .finish()
    }
}

impl OrderingNodeApp {
    /// Builds the application. Every block it cuts is chained to its
    /// predecessor and handed, unsigned, to `sink`: on a threaded node
    /// that is [`crate::signing::signing_sink`] (sign on a pool, push
    /// to every frontend), in the simulator a queue the actor drains
    /// into modelled signing timers.
    pub(crate) fn new(config: OrderingNodeConfig, sink: impl FnMut(Block) + Send + 'static) -> OrderingNodeApp {
        let cutter_obs = CutterObs::new(&config.registry);
        OrderingNodeApp {
            chains: BTreeMap::new(),
            config,
            sink: Box::new(sink),
            cutter_obs,
            undo: Vec::new(),
        }
    }

    /// Chains `cut` into the next block on `channel` and hands it to the
    /// block sink.
    fn seal_block(
        chain: &mut ChainState,
        channel: &str,
        cut: Cut,
        sink: &mut dyn FnMut(Block),
        obs: &CutterObs,
    ) {
        let reason = match cut.reason {
            CutReason::Size => &obs.cut_size,
            CutReason::Bytes => &obs.cut_bytes,
            CutReason::Flush => &obs.cut_batch_end,
        };
        obs.record_cut(reason, cut.len(), chain.cutter.block_size());
        let (number, prev) = (chain.next_number, chain.prev_hash);
        let block = Block::from_leaves(channel, number, prev, cut.envelopes, &cut.leaves);
        chain.prev_hash = block.header_hash();
        chain.next_number += 1;
        sink(block);
    }
}

impl Application for OrderingNodeApp {
    fn execute_batch(&mut self, cid: u64, batch: &Batch, tentative: bool) -> Vec<Outbound> {
        if tentative {
            self.undo.push(Undo {
                cid,
                chains: self.chains.clone(),
            });
        }
        // Each payload's leaf, the hash of the envelope behind its tag,
        // hashed when the batch was digested (or now, for a batch that
        // never was).
        for (request, leaf) in batch.requests.iter().zip(batch.leaves()) {
            let (channel, envelope) = untag_envelope(&request.payload);
            // Looked up by the borrowed name: only a new channel
            // allocates one.
            if !self.chains.contains_key(channel) {
                let chain = ChainState::new(self.config.block_size, self.config.max_block_bytes);
                self.chains.insert(channel.to_owned(), chain);
            }
            let Some(chain) = self.chains.get_mut(channel) else {
                continue; // inserted just above
            };
            if let Some(cut) = chain.cutter.push_hashed(envelope, *leaf) {
                Self::seal_block(chain, channel, cut, &mut *self.sink, &self.cutter_obs);
            }
        }
        if self.config.flush_on_batch_end {
            // Deterministic flush: batch boundaries are the same at
            // every replica, so partial blocks still match.
            for (channel, chain) in &mut self.chains {
                if chain.cutter.pending() > 0 {
                    let cut = chain.cutter.drain();
                    Self::seal_block(chain, channel, cut, &mut *self.sink, &self.cutter_obs);
                }
            }
        }
        // Blocks leave through the sink (custom replier); execution
        // produces no synchronous replies.
        Vec::new()
    }

    fn confirm(&mut self, cid: u64) {
        self.undo.retain(|u| u.cid != cid);
    }

    fn rollback(&mut self, cid: u64) -> Vec<Outbound> {
        if let Some(pos) = self.undo.iter().position(|u| u.cid == cid) {
            let undo = self.undo.remove(pos);
            self.chains = undo.chains;
            // Blocks already signed and pushed for the rolled-back
            // suffix cannot be unsent; frontends discard them because
            // they never gather 2f+1 matching copies.
        }
        Vec::new()
    }

    fn snapshot(&self) -> Bytes {
        let mut out = Vec::new();
        (self.chains.len() as u32).encode(&mut out);
        for (channel, chain) in &self.chains {
            channel.encode(&mut out);
            chain.next_number.encode(&mut out);
            chain.prev_hash.encode(&mut out);
            chain.cutter.encode(&mut out);
        }
        Bytes::from(out)
    }

    #[expect(clippy::expect_used, reason = "a snapshot that fails to decode was certified by consensus yet is corrupt — halting beats running with unknown state")]
    fn restore(&mut self, snapshot: &[u8]) {
        let mut reader = Reader::new(snapshot);
        let count = u32::decode(&mut reader).expect("valid snapshot");
        let mut chains = BTreeMap::new();
        for _ in 0..count {
            let channel = String::decode(&mut reader).expect("valid snapshot");
            let mut chain =
                ChainState::new(self.config.block_size, self.config.max_block_bytes);
            chain.next_number = u64::decode(&mut reader).expect("valid snapshot");
            chain.prev_hash = Hash256::decode(&mut reader).expect("valid snapshot");
            chain
                .cutter
                .restore(&mut reader)
                .expect("valid snapshot cutter state");
            chains.insert(channel, chain);
        }
        self.chains = chains;
        self.undo.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlf_consensus::messages::Request;
    use hlf_fabric::block::SYSTEM_CHANNEL;
    use hlf_wire::ClientId;
    use std::sync::mpsc::{channel, Receiver};

    /// Next block number on the system channel (1 before the first).
    fn next_number(app: &OrderingNodeApp) -> u64 {
        app.chains.get(SYSTEM_CHANNEL).map_or(1, |c| c.next_number)
    }

    /// The hash the next block on `channel` will chain to.
    fn prev_hash_on(app: &OrderingNodeApp, channel: &str) -> Hash256 {
        app.chains.get(channel).map_or(Hash256::ZERO, |c| c.prev_hash)
    }

    /// Envelopes buffered (decided but uncut) on `channel`.
    fn pending_on(app: &OrderingNodeApp, channel: &str) -> usize {
        app.chains.get(channel).map_or(0, |c| c.cutter.pending())
    }

    fn config(block_size: usize) -> OrderingNodeConfig {
        OrderingNodeConfig::new(0, SigningKey::from_seed(b"orderer-0")).with_block_size(block_size)
    }

    /// Builds an app whose block sink is a channel the test reads.
    fn app_with_sink(config: OrderingNodeConfig) -> (OrderingNodeApp, Receiver<Block>) {
        let (tx, rx) = channel();
        let app = OrderingNodeApp::new(config, move |block| {
            let _ = tx.send(block);
        });
        (app, rx)
    }

    fn batch(cid_tag: u8, count: usize) -> Batch {
        Batch::new(
            (0..count)
                .map(|i| {
                    Request::new(ClientId(9), i as u64, vec![cid_tag, i as u8, 0, 0])
                })
                .collect(),
        )
    }

    #[test]
    fn cuts_chained_blocks_into_the_sink() {
        let (mut app, blocks) = app_with_sink(config(5));
        app.execute_batch(1, &batch(1, 12), false);
        // 12 envelopes, block size 5 -> 2 blocks, 2 pending.
        let blocks: Vec<Block> = blocks.try_iter().collect();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].header.number, 1);
        assert_eq!(blocks[0].header.prev_hash, Hash256::ZERO);
        assert_eq!(blocks[1].header.prev_hash, blocks[0].header.hash());
        assert_eq!(blocks[0].envelopes.len(), 5);
        assert_eq!(blocks[1].envelopes.len(), 5);
        assert_eq!(pending_on(&app, SYSTEM_CHANNEL), 2);
        // Signing is the sink's job: the application emits bare blocks.
        assert!(blocks[0].signatures.is_empty());
    }

    #[test]
    fn snapshot_restore_roundtrip_with_pending() {
        let (mut app, _blocks) = app_with_sink(config(10));
        app.execute_batch(1, &batch(1, 13), false);
        assert_eq!(next_number(&app), 2);
        let snap = app.snapshot();

        let (mut other, _blocks2) = app_with_sink(config(10));
        other.restore(&snap);
        assert_eq!(next_number(&other), 2);
        assert_eq!(
            prev_hash_on(&other, SYSTEM_CHANNEL),
            prev_hash_on(&app, SYSTEM_CHANNEL)
        );
        assert_eq!(pending_on(&other, SYSTEM_CHANNEL), 3);
    }

    #[test]
    fn tentative_rollback_restores_chain_position() {
        use hlf_fabric::block::SYSTEM_CHANNEL;
        let (mut app, blocks) = app_with_sink(config(5));
        app.execute_batch(1, &batch(1, 5), false);
        let _b1 = blocks.try_recv().unwrap();
        let number = next_number(&app);
        let prev = prev_hash_on(&app, SYSTEM_CHANNEL);

        // Tentative execution cuts a block...
        app.execute_batch(2, &batch(2, 7), true);
        assert_eq!(next_number(&app), number + 1);
        let _speculative = blocks.try_recv().unwrap();

        // ...that a leader change rolls back.
        app.rollback(2);
        assert_eq!(next_number(&app), number);
        assert_eq!(prev_hash_on(&app, SYSTEM_CHANNEL), prev);
        assert_eq!(pending_on(&app, SYSTEM_CHANNEL), 0);

        // Re-execution with the re-bound batch reuses the numbering.
        app.execute_batch(2, &batch(3, 5), false);
        let b2 = blocks.try_recv().unwrap();
        assert_eq!(b2.header.number, number);
        assert_eq!(b2.header.prev_hash, prev);
    }

    #[test]
    fn confirm_discards_undo() {
        let (mut app, _blocks) = app_with_sink(config(5));
        app.execute_batch(1, &batch(1, 5), true);
        app.confirm(1);
        // A (buggy) rollback after confirm must be a no-op.
        let n = next_number(&app);
        app.rollback(1);
        assert_eq!(next_number(&app), n);
    }

    #[test]
    fn flush_on_batch_end_emits_partial_blocks() {
        let (mut app, blocks) = app_with_sink(config(10).with_flush_on_batch_end(true));
        // 7 envelopes < block size 10, but the batch boundary flushes.
        app.execute_batch(1, &batch(1, 7), false);
        let block = blocks.try_recv().unwrap();
        assert_eq!(block.envelopes.len(), 7);
        assert_eq!(block.header.number, 1);
        // A full block plus a remainder in one batch: two blocks.
        app.execute_batch(2, &batch(2, 12), false);
        let sizes: Vec<usize> = blocks.try_iter().map(|b| b.envelopes.len()).collect();
        assert_eq!(sizes, vec![10, 2]);
    }

    /// Seeded property loops (see `hlf_simnet::for_each_case`).
    mod properties {
        use super::*;
        use crate::channel::{channel_payload, TAG_MAGIC};
        use hlf_fabric::block::SYSTEM_CHANNEL;
        use hlf_simnet::{for_each_case, SimRng};

        /// One random envelope and the channel it goes on: a raw
        /// system-channel envelope, one whose first byte is the tag's
        /// magic byte (so it travels tagged), or one on another channel.
        fn envelope(rng: &mut SimRng) -> (&'static str, Bytes) {
            let mut bytes = rng.bytes(0..300);
            match rng.next_range(3) {
                0 => {
                    if bytes.first() == Some(&TAG_MAGIC) {
                        bytes[0] = 0;
                    }
                    (SYSTEM_CHANNEL, Bytes::from(bytes))
                }
                1 => {
                    bytes.insert(0, TAG_MAGIC);
                    (SYSTEM_CHANNEL, Bytes::from(bytes))
                }
                _ => (["ch-a", "ch-b"][rng.next_range(2) as usize], Bytes::from(bytes)),
            }
        }

        /// Every block the application builds from a batch's leaves has
        /// the data hash `Block::data_hash` computes from its envelope
        /// bytes, and each channel's blocks chain and hold exactly that
        /// channel's envelopes in order. Batches arrive digested (leaves
        /// cached) or not, some with skipped requests (the owned copy
        /// the executor builds), through cutter carry-over across
        /// batches, snapshot/restore in the middle of a block and WHEAT
        /// rollbacks.
        #[test]
        fn blocks_built_from_leaves_match_their_envelope_bytes() {
            for_each_case(0x1eaf_0001, 64, |rng| {
                let config = config(rng.next_in(1..6)).with_flush_on_batch_end(rng.next_range(3) == 0);
                let (tx, blocks) = channel();
                let app_on = |tx: &std::sync::mpsc::Sender<Block>| {
                    let tx = tx.clone();
                    OrderingNodeApp::new(config.clone(), move |block| {
                        let _ = tx.send(block);
                    })
                };
                let mut app = app_on(&tx);
                // Per channel: envelopes executed for good, and the blocks
                // kept (a rolled-back execution's blocks are discarded,
                // as a frontend discards them).
                let mut expected: BTreeMap<&str, Vec<Bytes>> = BTreeMap::new();
                let mut kept: Vec<Block> = Vec::new();
                let mut seq = 0u64;
                for cid in 1..=rng.next_in(1..12) as u64 {
                    let envelopes = rng.vec(1..9, envelope);
                    let requests = envelopes.iter().map(|(channel, envelope)| {
                        seq += 1;
                        Request::new(ClientId(1), seq, channel_payload(channel, envelope.clone()))
                    });
                    let mut batch = Batch::new(requests.collect());
                    let mut executed = envelopes;
                    if rng.next_range(2) == 0 {
                        batch.digest();
                    }
                    if rng.next_range(4) == 0 {
                        // Skipped requests: the executor runs a copy that
                        // holds the rest and no leaves.
                        let skip = rng.next_in(0..batch.len());
                        let mut rest = batch.requests.clone();
                        rest.remove(skip);
                        executed.remove(skip);
                        batch = Batch::new(rest);
                    }
                    match rng.next_range(5) {
                        0 => {
                            app.execute_batch(cid, &batch, true);
                            blocks.try_iter().for_each(drop);
                            app.rollback(cid);
                            continue;
                        }
                        1 => {
                            let snapshot = app.snapshot();
                            app = app_on(&tx);
                            app.restore(&snapshot);
                        }
                        _ => {}
                    }
                    app.execute_batch(cid, &batch, false);
                    kept.extend(blocks.try_iter());
                    for (channel, envelope) in executed {
                        expected.entry(channel).or_default().push(envelope);
                    }
                }
                for block in &kept {
                    assert_eq!(block.header.data_hash, Block::data_hash(&block.envelopes));
                }
                for (channel, envelopes) in expected {
                    let mut prev = Hash256::ZERO;
                    let mut cut = Vec::new();
                    for block in kept.iter().filter(|b| b.header.channel == channel) {
                        assert_eq!(block.header.prev_hash, prev, "{channel} chain broken");
                        prev = block.header_hash();
                        cut.extend(block.envelopes.iter().cloned());
                    }
                    assert_eq!(cut.len() + pending_on(&app, channel), envelopes.len(), "{channel}");
                    assert_eq!(cut[..], envelopes[..cut.len()], "{channel}: envelopes differ");
                }
            });
        }
    }

    #[test]
    fn registry_records_cut_reasons_and_fill() {
        let registry = Registry::new("core-node-test");
        let (mut app, _blocks) = app_with_sink(
            OrderingNodeConfig {
                registry: Arc::clone(&registry),
                ..config(5).with_flush_on_batch_end(true)
            },
        );
        // 12 envelopes, block size 5, flush on batch end: two full cuts
        // (Size) plus a 2-envelope batch-end flush.
        app.execute_batch(1, &batch(1, 12), false);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("core.cutter.cut_size"), Some(2));
        assert_eq!(snap.counter_value("core.cutter.cut_bytes"), Some(0));
        assert_eq!(snap.counter_value("core.cutter.cut_batch_end"), Some(1));
        let fill = snap.histogram("core.cutter.block_fill_pct").unwrap();
        assert_eq!(fill.count, 3);
        assert_eq!(fill.max, 100);
        assert_eq!(fill.min, 40);
    }
}
