//! The parallel signing & sending pool (paper §5.1 and §6.1).
//!
//! Block headers are constructed sequentially by the node thread; only
//! the ECDSA signature and the transmission to frontends run on this
//! pool. Parallel signing cannot introduce non-determinism because the
//! signature never feeds back into replicated state — the next header
//! chains to the previous header's *hash*, not its signature.

use crate::node::OrderingNodeConfig;
use crate::obs::SigningObs;
use hlf_crypto::ecdsa::SigningKey;
use hlf_fabric::block::Block;
use hlf_obs::flight::EventKind;
use hlf_obs::{FlightRecorder, Registry};
use hlf_smr::node::PushHandle;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Pool counters.
#[derive(Debug, Default)]
pub struct SigningStats {
    submitted: AtomicU64,
    signed: AtomicU64,
}

impl SigningStats {
    /// Blocks handed to the pool so far.
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Acquire)
    }

    /// Blocks signed so far.
    pub fn signed(&self) -> u64 {
        self.signed.load(Ordering::Acquire)
    }

    /// A consistent `(submitted, signed)` pair with `submitted >=
    /// signed` guaranteed.
    ///
    /// The load order is what makes this hold: `signed` is read
    /// *first*. A block is always counted in `submitted` before any
    /// signer can count it in `signed`, so at every instant the true
    /// values satisfy `submitted >= signed`. Reading `signed` at `t0`
    /// and `submitted` at `t1 >= t0` then gives `submitted(t1) >=
    /// submitted(t0) >= signed(t0)` — counters only grow. (Reading
    /// `submitted` first allows the opposite race: signers can complete
    /// blocks between the two loads and `signed` can overtake the stale
    /// `submitted` reading.)
    pub fn counters(&self) -> (u64, u64) {
        let signed = self.signed.load(Ordering::Acquire);
        let submitted = self.submitted.load(Ordering::Acquire);
        (submitted, signed)
    }

    /// Blocks submitted but not yet signed — the queue depth as the
    /// counters see it. Derived from [`SigningStats::counters`], so it
    /// can never underflow; the `saturating_sub` is belt-and-braces.
    pub fn pending(&self) -> u64 {
        let (submitted, signed) = self.counters();
        submitted.saturating_sub(signed)
    }
}

/// Most blocks a worker signs as one group ([`Block::sign_group`]). A
/// group of `g` pays its two inversions once, so the inversions' share
/// of a signature falls as `1/g`: at 16 it is under a microsecond of
/// ~14 (a cap of 64 measured the same throughput, a cap of 4 about 8 %
/// less). A worker also never holds more than this many blocks away
/// from the other workers.
const GROUP_MAX: usize = 16;

/// A fixed-size pool of signer threads.
///
/// Each submitted block is signed with the node's key and handed to the
/// `deliver` callback (which, in the ordering node, transmits it to all
/// registered frontends through a [`hlf_smr::PushHandle`]).
///
/// A worker takes the first queued block blocking and then whatever is
/// *already* queued, up to [`GROUP_MAX`], signs the group at once and
/// delivers its blocks in queue order. It never waits for a group to
/// fill: a lone block is signed alone and at once.
pub struct SigningPool {
    jobs: SyncSender<(Block, Instant)>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<SigningStats>,
    obs: Option<SigningObs>,
    flight: Option<Arc<FlightRecorder>>,
}

impl std::fmt::Debug for SigningPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SigningPool")
            .field("workers", &self.workers.len())
            .field("signed", &self.stats.signed())
            .finish()
    }
}

impl SigningPool {
    /// Spawns `threads` signer workers (the paper's setup uses 16, one
    /// per hardware thread).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(
        threads: usize,
        node: u32,
        key: SigningKey,
        deliver: impl Fn(Block) + Send + Sync + 'static,
    ) -> SigningPool {
        SigningPool::with_registry(threads, node, key, None, deliver)
    }

    /// Like [`SigningPool::new`], additionally recording queue-wait and
    /// signing-time metrics into `registry` when one is given.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_registry(
        threads: usize,
        node: u32,
        key: SigningKey,
        registry: Option<&Registry>,
        deliver: impl Fn(Block) + Send + Sync + 'static,
    ) -> SigningPool {
        SigningPool::with_observers(threads, node, key, registry, None, deliver)
    }

    /// Like [`SigningPool::with_registry`], additionally recording
    /// `SignStart`/`SignDone` flight events into `flight` when one is
    /// given (the sign-phase edges of the distributed trace timeline).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_observers(
        threads: usize,
        node: u32,
        key: SigningKey,
        registry: Option<&Registry>,
        flight: Option<Arc<FlightRecorder>>,
        deliver: impl Fn(Block) + Send + Sync + 'static,
    ) -> SigningPool {
        assert!(threads > 0, "signing pool needs at least one thread");
        // Bounded queue: when signing cannot keep up, `submit` blocks
        // the node thread — the CPU "tug of war" between the
        // application's worker threads and consensus the paper
        // describes in §6.2. An unbounded queue would let the measured
        // ordering rate silently outrun the signing rate.
        let (jobs, job_rx) = mpsc::sync_channel::<(Block, Instant)>(256);
        // std's receiver is single-consumer: the workers take turns on
        // it, each holding the lock only while it waits for one job.
        let job_rx = Arc::new(Mutex::new(job_rx));
        let deliver = Arc::new(deliver);
        let stats = Arc::new(SigningStats::default());
        let obs = registry.map(SigningObs::new);
        let workers = (0..threads)
            .map(|w| {
                let job_rx = Arc::clone(&job_rx);
                let key = key.clone();
                let deliver = Arc::clone(&deliver);
                let stats = Arc::clone(&stats);
                let obs = obs.clone();
                let flight = flight.clone();
                #[expect(clippy::expect_used, reason = "OS thread-spawn failure at pool construction is unrecoverable")]
                // lint:allow(thread): the handles are collected into `workers` below and joined in SigningPool::drop
                std::thread::Builder::new()
                    .name(format!("signer-{node}-{w}"))
                    .spawn(move || {
                        loop {
                            // The first job blocking, then whatever is
                            // already queued: a group is never waited for.
                            // The guard is released before signing starts.
                            let mut group = Vec::new();
                            {
                                let job_rx = job_rx.lock().unwrap_or_else(PoisonError::into_inner);
                                let Ok(first) = job_rx.recv() else { break };
                                group.push(first);
                                while group.len() < GROUP_MAX {
                                    let Ok(next) = job_rx.try_recv() else { break };
                                    group.push(next);
                                }
                            }
                            let dequeued_at = Instant::now();
                            let (mut blocks, enqueued): (Vec<Block>, Vec<Instant>) =
                                group.into_iter().unzip();
                            Block::sign_group(&mut blocks, node, &key);
                            // Each block's share of its group's signing time.
                            let sign_us =
                                dequeued_at.elapsed().as_micros() as u64 / blocks.len() as u64;
                            for (block, enqueued_at) in blocks.into_iter().zip(enqueued) {
                                let queue_wait_us = (dequeued_at - enqueued_at).as_micros() as u64;
                                stats.signed.fetch_add(1, Ordering::Release);
                                if let Some(obs) = &obs {
                                    obs.queue_wait_us.record(queue_wait_us);
                                    obs.sign_us.record(sign_us);
                                    obs.signed.inc();
                                }
                                if let Some(flight) = &flight {
                                    flight.record_now(
                                        EventKind::SignDone,
                                        block.header.number,
                                        sign_us,
                                        queue_wait_us,
                                    );
                                }
                                deliver(block);
                            }
                        }
                    })
                    .expect("spawn signer thread")
            })
            .collect();
        SigningPool {
            jobs,
            workers,
            stats,
            obs,
            flight,
        }
    }

    /// Queues a block for signing and delivery, blocking while the
    /// queue is full (backpressure onto the node thread).
    pub fn submit(&self, block: Block) {
        // Blocks ahead of this one: waiting in the queue or being signed.
        let ahead = self.stats.pending();
        self.stats.submitted.fetch_add(1, Ordering::Release);
        if let Some(obs) = &self.obs {
            obs.queue_depth.set(ahead as i64);
        }
        if let Some(flight) = &self.flight {
            flight.record_now(EventKind::SignStart, block.header.number, ahead, 0);
        }
        // The pool only shuts down on drop, after the node thread; a
        // send failure means teardown is racing us and the block is
        // moot.
        let _ = self.jobs.send((block, Instant::now()));
    }

    /// Pool counters.
    pub fn stats(&self) -> Arc<SigningStats> {
        Arc::clone(&self.stats)
    }
}

/// The block sink of a threaded ordering node: each block is signed on
/// a pool of `config.signing_threads` workers and transmitted by the
/// signing worker to every connected frontend through `push` — the
/// *custom replier* that broadcasts blocks instead of answering the
/// invoking client. The pool lives (and is joined) with the returned
/// closure.
pub fn signing_sink(
    config: &OrderingNodeConfig,
    push: PushHandle,
) -> impl FnMut(Block) + Send + 'static {
    let double_sign = config.double_sign;
    let context_key = config.signing_key.clone();
    let node = config.node;
    let pool = SigningPool::with_observers(
        config.signing_threads,
        config.node,
        config.signing_key.clone(),
        config.registry.as_deref(),
        config.flight.clone(),
        move |block: Block| {
            if double_sign {
                // Footnote 10: a second signature attaches the block
                // to an execution context. We model its full CPU
                // cost; the context structure itself is out of scope.
                let mut context = Vec::with_capacity(64);
                context.extend_from_slice(b"hlfbft/exec-context/v1");
                context.extend_from_slice(block.header_hash().as_bytes());
                context.extend_from_slice(&node.to_le_bytes());
                let digest = hlf_crypto::sha256::sha256(&context);
                std::hint::black_box(context_key.sign_digest(&digest));
            }
            // Encode into a pooled buffer: the last frontend copy
            // to drop returns it to the transport pool.
            let bytes = hlf_wire::to_pooled_bytes(&block, push.pool());
            push.push_all(bytes);
        },
    );
    move |block| pool.submit(block)
}

impl Drop for SigningPool {
    fn drop(&mut self) {
        // Closing the channel stops the workers after they drain it.
        self.jobs = mpsc::sync_channel(0).0;
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlf_crypto::ecdsa::PinnedKey;
    use hlf_wire::Bytes;
    use hlf_crypto::sha256::Hash256;
    use std::time::{Duration, Instant};

    fn block(number: u64) -> Block {
        Block::build(
            number,
            Hash256::ZERO,
            vec![Bytes::from(number.to_le_bytes().to_vec())],
        )
    }

    #[test]
    fn signs_and_delivers_every_block() {
        let key = SigningKey::from_seed(b"pool");
        let delivered = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&delivered);
        let pool = SigningPool::new(4, 7, key.clone(), move |b| sink.lock().unwrap().push(b));
        for number in 1..=50 {
            pool.submit(block(number));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while delivered.lock().unwrap().len() < 50 {
            assert!(Instant::now() < deadline, "pool stalled");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.stats().signed(), 50);
        assert_eq!(pool.stats().submitted(), 50);
        assert_eq!(pool.stats().pending(), 0);
        let keys = vec![PinnedKey::new(*key.verifying_key()); 8];
        let blocks = delivered.lock().unwrap();
        let mut numbers: Vec<u64> = blocks.iter().map(|b| b.header.number).collect();
        numbers.sort_unstable();
        assert_eq!(numbers, (1..=50).collect::<Vec<u64>>());
        // Every signature verifies against the node's key.
        for b in blocks.iter() {
            assert_eq!(b.signatures.len(), 1);
            assert_eq!(b.signatures[0].node, 7);
            assert_eq!(b.valid_signatures(&keys[..1]), 0);
            // node id 7 indexes beyond a 1-key slice; the full map has it:
            assert_eq!(b.valid_signatures(&keys), 1);
        }
        drop(blocks);
    }

    /// A burst larger than two groups on two workers: every block is
    /// signed exactly once with a signature that verifies, and each
    /// worker delivers its blocks in queue order.
    #[test]
    fn burst_is_signed_once_each_and_in_order_per_worker() {
        let key = SigningKey::from_seed(b"pool-burst");
        let delivered = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&delivered);
        let pool = SigningPool::new(2, 0, key.clone(), move |b| {
            let worker = std::thread::current().name().unwrap_or_default().to_string();
            sink.lock().unwrap().push((worker, b));
        });
        for number in 1..=37 {
            pool.submit(block(number));
        }
        drop(pool); // drains the queue, partly filled last group included
        let delivered = delivered.lock().unwrap();
        let keys = [PinnedKey::new(*key.verifying_key())];
        let mut numbers = Vec::new();
        let mut last_of: std::collections::HashMap<&str, u64> = Default::default();
        for (worker, b) in delivered.iter() {
            assert_eq!(b.signatures.len(), 1, "block {} signed once", b.header.number);
            assert_eq!(b.valid_signatures(&keys), 1);
            numbers.push(b.header.number);
            let last = last_of.insert(worker.as_str(), b.header.number);
            assert!(last < Some(b.header.number), "{worker} delivered out of queue order");
        }
        numbers.sort_unstable();
        assert_eq!(numbers, (1..=37).collect::<Vec<u64>>());
    }

    /// A lone block is signed at once: no worker waits for a second
    /// block to fill a group.
    #[test]
    fn lone_block_is_signed_without_waiting_for_a_second() {
        let key = SigningKey::from_seed(b"pool-lone");
        let (tx, rx) = mpsc::channel();
        let tx = Mutex::new(tx);
        let pool = SigningPool::new(2, 0, key.clone(), move |b| {
            let _ = tx.lock().unwrap().send(b);
        });
        pool.submit(block(1));
        let signed = rx.recv_timeout(Duration::from_secs(10)).expect("lone block signed");
        assert_eq!(signed.valid_signatures(&[PinnedKey::new(*key.verifying_key())]), 1);
        assert_eq!(pool.stats().counters(), (1, 1));
    }

    #[test]
    fn drop_joins_workers() {
        let key = SigningKey::from_seed(b"pool2");
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        let pool = SigningPool::new(2, 0, key, move |_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        for number in 1..=10 {
            pool.submit(block(number));
        }
        drop(pool); // must not hang
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let key = SigningKey::from_seed(b"pool3");
        let _ = SigningPool::new(0, 0, key, |_| {});
    }

    /// Regression: `pending()` must never underflow while the pool is
    /// under load. The old implementation loaded `submitted` before
    /// `signed`, so a signer completing between the two loads could
    /// make the stale `submitted` reading smaller than `signed`. The
    /// fixed load order (`signed` first) makes `submitted >= signed`
    /// hold for every observed pair; this test hammers the pair-load
    /// from a racing reader thread to catch a reintroduced swap.
    #[test]
    fn pending_never_underflows_under_load() {
        let key = SigningKey::from_seed(b"pool4");
        let pool = Arc::new(SigningPool::new(4, 3, key, |_| {}));
        let stats = pool.stats();
        let stop = Arc::new(AtomicU64::new(0));

        let reader_stop = Arc::clone(&stop);
        let reader = std::thread::spawn(move || {
            let mut observations = 0u64;
            while reader_stop.load(Ordering::Relaxed) == 0 {
                let (submitted, signed) = stats.counters();
                assert!(
                    submitted >= signed,
                    "observed signed ({signed}) ahead of submitted ({submitted})"
                );
                observations += 1;
            }
            observations
        });

        for number in 1..=2000 {
            pool.submit(block(number));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while pool.stats().signed() < 2000 {
            assert!(Instant::now() < deadline, "pool stalled");
            std::thread::yield_now();
        }
        stop.store(1, Ordering::Relaxed);
        let observations = reader.join().unwrap();
        assert!(observations > 0, "reader thread never sampled the counters");
        assert_eq!(pool.stats().pending(), 0);
    }

    /// A signing sink over a real hub endpoint plus the frontend-side
    /// endpoint its pushes arrive on.
    fn sink_with_frontend(
        config: &OrderingNodeConfig,
    ) -> (impl FnMut(Block), hlf_transport::Endpoint, hlf_transport::Network) {
        use hlf_transport::{Network, PeerId};
        let network = Network::new();
        let replica = network.join(PeerId::replica(0));
        let frontend = network.join(PeerId::client(1));
        let push = PushHandle::for_tests(replica.sender(), vec![hlf_wire::ClientId(1)]);
        (signing_sink(config, push), frontend, network)
    }

    fn recv_block(frontend: &hlf_transport::Endpoint) -> Block {
        let (_, raw) = frontend
            .recv_timeout(Duration::from_secs(5))
            .expect("block pushed");
        let msg: hlf_smr::wire::SmrMsg = hlf_wire::from_bytes(&raw).unwrap();
        let hlf_smr::wire::SmrMsg::Reply { seq: 0, payload } = msg else {
            panic!("expected push")
        };
        hlf_wire::from_bytes(&payload).unwrap()
    }

    #[test]
    fn signing_sink_signs_and_pushes_to_frontends() {
        let key = SigningKey::from_seed(b"orderer-0");
        let registry = Arc::new(hlf_obs::Registry::new("sink-test"));
        let config = OrderingNodeConfig::new(0, key.clone())
            .with_signing_threads(2)
            .with_registry(Arc::clone(&registry));
        let (mut sink, frontend, _network) = sink_with_frontend(&config);
        for number in 1..=3 {
            sink(block(number));
        }
        let mut numbers = Vec::new();
        for _ in 0..3 {
            let pushed = recv_block(&frontend);
            // Each block carries this node's signature.
            assert_eq!(pushed.valid_signatures(&[PinnedKey::new(*key.verifying_key())]), 1);
            numbers.push(pushed.header.number);
        }
        numbers.sort_unstable();
        assert_eq!(numbers, vec![1, 2, 3]);
        // Signing metrics flow through the node's registry.
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("core.signing.signed"), Some(3));
        assert_eq!(snap.histogram("core.signing.sign_us").unwrap().count, 3);
    }

    #[test]
    fn double_sign_still_produces_valid_blocks() {
        let key = SigningKey::from_seed(b"orderer-0");
        let config = OrderingNodeConfig::new(0, key.clone())
            .with_signing_threads(2)
            .with_double_sign(true);
        let (mut sink, frontend, _network) = sink_with_frontend(&config);
        sink(block(1));
        let pushed = recv_block(&frontend);
        assert_eq!(pushed.valid_signatures(&[PinnedKey::new(*key.verifying_key())]), 1);
    }

    #[test]
    fn registry_records_queue_and_sign_timings() {
        let key = SigningKey::from_seed(b"pool5");
        let registry = hlf_obs::Registry::new("signing-test");
        let delivered = Arc::new(AtomicU64::new(0));
        let sink = Arc::clone(&delivered);
        let pool = SigningPool::with_registry(2, 1, key, Some(&registry), move |_| {
            sink.fetch_add(1, Ordering::Relaxed);
        });
        for number in 1..=20 {
            pool.submit(block(number));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while delivered.load(Ordering::Relaxed) < 20 {
            assert!(Instant::now() < deadline, "pool stalled");
            std::thread::sleep(Duration::from_millis(5));
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("core.signing.signed"), Some(20));
        assert_eq!(snap.histogram("core.signing.queue_wait_us").unwrap().count, 20);
        assert_eq!(snap.histogram("core.signing.sign_us").unwrap().count, 20);
        assert!(snap.histogram("core.signing.sign_us").unwrap().sum > 0);
    }
}
