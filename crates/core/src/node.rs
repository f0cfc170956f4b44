//! The ordering node application: the replicated state machine that
//! turns the totally ordered envelope stream into signed blocks
//! (paper §5.1, "Ordering Nodes" side of Figure 5).

use crate::blockcutter::{BlockCutter, CutReason};
use crate::channel::untag_envelope;
use crate::obs::CutterObs;
use hlf_wire::Bytes;
use hlf_consensus::messages::Batch;
use hlf_crypto::ecdsa::SigningKey;
use hlf_crypto::sha256::Hash256;
use hlf_fabric::block::Block;
use hlf_obs::Registry;
use hlf_smr::app::{Application, Outbound};
use hlf_wire::{Decode, Encode, Reader};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
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
pub struct OrderingNodeConfig {
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
    /// Registry to record blockcutter and signing-pool metrics into
    /// (`core.cutter.*`, `core.signing.*`). `None` disables recording.
    pub registry: Option<Arc<Registry>>,
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
    pub fn new(node: u32, signing_key: SigningKey) -> OrderingNodeConfig {
        OrderingNodeConfig {
            node,
            signing_key,
            block_size: 10,
            max_block_bytes: 8 * 1024 * 1024,
            signing_threads: 16,
            double_sign: false,
            flush_on_batch_end: false,
            registry: None,
            flight: None,
        }
    }

    /// Sets the envelopes-per-block target.
    pub fn with_block_size(mut self, block_size: usize) -> OrderingNodeConfig {
        self.block_size = block_size;
        self
    }

    /// Sets the signer thread count.
    pub fn with_signing_threads(mut self, threads: usize) -> OrderingNodeConfig {
        self.signing_threads = threads;
        self
    }

    /// Enables HLF 1.0's second block signature (paper footnote 10).
    pub fn with_double_sign(mut self, enabled: bool) -> OrderingNodeConfig {
        self.double_sign = enabled;
        self
    }

    /// Enables deterministic partial-block flushing at batch boundaries.
    pub fn with_flush_on_batch_end(mut self, enabled: bool) -> OrderingNodeConfig {
        self.flush_on_batch_end = enabled;
        self
    }

    /// Records cutter and signing metrics into `registry`.
    pub fn with_registry(mut self, registry: Arc<Registry>) -> OrderingNodeConfig {
        self.registry = Some(registry);
        self
    }

    /// Records signing-phase flight events into `flight`.
    pub fn with_flight(mut self, flight: Arc<hlf_obs::FlightRecorder>) -> OrderingNodeConfig {
        self.flight = Some(flight);
        self
    }
}

/// Live counters shared with benchmarks.
#[derive(Debug, Default)]
pub struct OrderingNodeStats {
    blocks_cut: AtomicU64,
    envelopes_ordered: AtomicU64,
}

impl OrderingNodeStats {
    /// Blocks cut (and handed to the block sink) so far.
    pub fn blocks_cut(&self) -> u64 {
        self.blocks_cut.load(Ordering::Relaxed)
    }
    /// Envelopes fed through the blockcutter so far.
    pub fn envelopes_ordered(&self) -> u64 {
        self.envelopes_ordered.load(Ordering::Relaxed)
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
pub struct OrderingNodeApp {
    config: OrderingNodeConfig,
    /// Channel name -> chain state (BTreeMap: deterministic snapshot
    /// and iteration order across replicas).
    chains: BTreeMap<String, ChainState>,
    /// Where cut, chained, still unsigned blocks go. The application is
    /// clock- and thread-free: signing and transmission are the sink's.
    sink: Box<dyn FnMut(Block) + Send>,
    stats: Arc<OrderingNodeStats>,
    cutter_obs: Option<CutterObs>,
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
    pub fn new(config: OrderingNodeConfig, sink: impl FnMut(Block) + Send + 'static) -> OrderingNodeApp {
        let cutter_obs = config.registry.as_deref().map(CutterObs::new);
        OrderingNodeApp {
            chains: BTreeMap::new(),
            config,
            sink: Box::new(sink),
            stats: Arc::new(OrderingNodeStats::default()),
            cutter_obs,
            undo: Vec::new(),
        }
    }

    /// Live counters.
    pub fn stats(&self) -> Arc<OrderingNodeStats> {
        Arc::clone(&self.stats)
    }

    /// Next block number to be assigned on a channel (1 for unknown
    /// channels).
    pub fn next_number_on(&self, channel: &str) -> u64 {
        self.chains.get(channel).map(|c| c.next_number).unwrap_or(1)
    }

    /// Next block number on the system channel.
    pub fn next_number(&self) -> u64 {
        self.next_number_on(hlf_fabric::block::SYSTEM_CHANNEL)
    }

    /// Channels with chain state on this node, in deterministic order.
    pub fn channels(&self) -> impl Iterator<Item = &str> {
        self.chains.keys().map(String::as_str)
    }

    /// The hash the next block on `channel` will chain to.
    pub fn prev_hash_on(&self, channel: &str) -> Hash256 {
        self.chains
            .get(channel)
            .map(|c| c.prev_hash)
            .unwrap_or(Hash256::ZERO)
    }

    /// Envelopes buffered (decided but uncut) on `channel`.
    pub fn pending_on(&self, channel: &str) -> usize {
        self.chains
            .get(channel)
            .map(|c| c.cutter.pending())
            .unwrap_or(0)
    }

    /// Chains `envelopes` into the next block on `channel` and hands it
    /// to the block sink.
    fn seal_block(
        chain: &mut ChainState,
        channel: String,
        envelopes: Vec<Bytes>,
        sink: &mut dyn FnMut(Block),
        stats: &OrderingNodeStats,
    ) {
        let block =
            Block::build_in_channel(channel, chain.next_number, chain.prev_hash, envelopes);
        chain.prev_hash = block.header_hash();
        chain.next_number += 1;
        stats.blocks_cut.fetch_add(1, Ordering::Relaxed);
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
        for request in &batch.requests {
            self.stats.envelopes_ordered.fetch_add(1, Ordering::Relaxed);
            let (channel, envelope) = untag_envelope(&request.payload);
            let block_size = self.config.block_size;
            let max_block_bytes = self.config.max_block_bytes;
            let chain = self
                .chains
                .entry(channel.clone())
                .or_insert_with(|| ChainState::new(block_size, max_block_bytes));
            if let Some(cut) = chain.cutter.push(envelope) {
                if let Some(obs) = &self.cutter_obs {
                    let reason = match cut.reason {
                        CutReason::Size => &obs.cut_size,
                        CutReason::Bytes => &obs.cut_bytes,
                    };
                    obs.record_cut(reason, cut.len(), chain.cutter.block_size());
                }
                Self::seal_block(
                    chain,
                    channel,
                    cut.into_envelopes(),
                    &mut *self.sink,
                    &self.stats,
                );
            }
        }
        if self.config.flush_on_batch_end {
            // Deterministic flush: batch boundaries are the same at
            // every replica, so partial blocks still match.
            let channels: Vec<String> = self
                .chains
                .iter()
                .filter(|(_, chain)| chain.cutter.pending() > 0)
                .map(|(channel, _)| channel.clone())
                .collect();
            for channel in channels {
                #[expect(clippy::expect_used, reason = "`channels` was collected from this map's own keys")]
                let chain = self.chains.get_mut(&channel).expect("channel exists");
                let envelopes = chain.cutter.drain();
                if let Some(obs) = &self.cutter_obs {
                    obs.record_cut(
                        &obs.cut_batch_end,
                        envelopes.len(),
                        chain.cutter.block_size(),
                    );
                }
                Self::seal_block(chain, channel, envelopes, &mut *self.sink, &self.stats);
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
    use hlf_wire::ClientId;
    use std::sync::mpsc::{channel, Receiver};

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
        assert_eq!(app.stats().blocks_cut(), 2);
        assert_eq!(app.stats().envelopes_ordered(), 12);
        // Signing is the sink's job: the application emits bare blocks.
        assert!(blocks[0].signatures.is_empty());
    }

    #[test]
    fn snapshot_restore_roundtrip_with_pending() {
        use hlf_fabric::block::SYSTEM_CHANNEL;
        let (mut app, _blocks) = app_with_sink(config(10));
        app.execute_batch(1, &batch(1, 13), false);
        assert_eq!(app.next_number(), 2);
        let snap = app.snapshot();

        let (mut other, _blocks2) = app_with_sink(config(10));
        other.restore(&snap);
        assert_eq!(other.next_number(), 2);
        assert_eq!(
            other.prev_hash_on(SYSTEM_CHANNEL),
            app.prev_hash_on(SYSTEM_CHANNEL)
        );
        assert_eq!(other.pending_on(SYSTEM_CHANNEL), 3);
    }

    #[test]
    fn tentative_rollback_restores_chain_position() {
        use hlf_fabric::block::SYSTEM_CHANNEL;
        let (mut app, blocks) = app_with_sink(config(5));
        app.execute_batch(1, &batch(1, 5), false);
        let _b1 = blocks.try_recv().unwrap();
        let number = app.next_number();
        let prev = app.prev_hash_on(SYSTEM_CHANNEL);

        // Tentative execution cuts a block...
        app.execute_batch(2, &batch(2, 7), true);
        assert_eq!(app.next_number(), number + 1);
        let _speculative = blocks.try_recv().unwrap();

        // ...that a leader change rolls back.
        app.rollback(2);
        assert_eq!(app.next_number(), number);
        assert_eq!(app.prev_hash_on(SYSTEM_CHANNEL), prev);
        assert_eq!(app.pending_on(SYSTEM_CHANNEL), 0);

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
        let n = app.next_number();
        app.rollback(1);
        assert_eq!(app.next_number(), n);
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

    #[test]
    fn registry_records_cut_reasons_and_fill() {
        let registry = Arc::new(Registry::new("core-node-test"));
        let (mut app, _blocks) = app_with_sink(
            config(5)
                .with_flush_on_batch_end(true)
                .with_registry(Arc::clone(&registry)),
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
