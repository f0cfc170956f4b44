//! One-call assembly of the complete BFT ordering service: ordering
//! cluster + frontends, ready for use by a Fabric-style network.

use crate::frontend::{Frontend, FrontendConfig};
use crate::node::{OrderingNodeApp, OrderingNodeConfig};
use crate::signing::signing_sink;
use hlf_wire::Bytes;
use hlf_crypto::ecdsa::VerifyingKey;
use hlf_obs::{FlightRecorder, Registry, Snapshot};
use hlf_smr::node::PushHandle;
use hlf_smr::runtime::{ClusterKeys, ClusterRuntime, RuntimeOptions};
use hlf_smr::storage::MemoryLog;
use hlf_transport::Network;
use hlf_wire::ClientId;
use std::sync::Arc;
use std::time::Duration;

/// An ordering node checkpoints every this many decisions. Its whole
/// state is a block number, a header hash and the cutter's pending
/// envelopes, so a checkpoint costs nothing (paper §5.2; ABL3 in
/// EXPERIMENTS.md sweeps 8 → 2048 with no trend), while the log keeps
/// every decided payload since the last one: at the SMR default of 256,
/// batches of 4 KiB envelopes retain ~150 MiB per copy — the bulk of
/// `hub_large_fanout`'s peak RSS. At 64 that is under 40 MiB.
const CHECKPOINT_EVERY: u64 = 64;

/// Service-level options.
#[derive(Clone, Debug)]
pub struct ServiceOptions {
    /// Fault threshold; the cluster has `3f + 1` nodes (or more with
    /// WHEAT spares).
    pub f: usize,
    /// Envelopes per block.
    pub block_size: usize,
    /// Signer threads per node.
    pub signing_threads: usize,
    /// WHEAT: weighted quorums + tentative execution.
    pub wheat: bool,
    /// Tentative execution alone (no weighted quorums). Implied by
    /// `wheat`; set it separately to study tentative delivery on a
    /// classic `3f + 1` cluster.
    pub tentative: bool,
    /// Consensus batch cap.
    pub batch_max: usize,
    /// Request timeout before leader-change escalation.
    pub request_timeout_ms: u64,
    /// Frontends verify orderer signatures (then `f + 1` copies
    /// suffice; paper footnote 8).
    pub frontend_verification: bool,
    /// Sign each block twice (paper footnote 10, halving `TP_sign`).
    pub double_sign: bool,
    /// Flush partial blocks at batch boundaries (deterministic
    /// `BatchTimeout` stand-in).
    pub flush_on_batch_end: bool,
    /// Consensus sliding-window depth: slots the leader keeps in
    /// flight at once (1 = unpipelined).
    pub pipeline_depth: usize,
}

impl ServiceOptions {
    /// Paper-default options for fault threshold `f`.
    pub fn new(f: usize) -> ServiceOptions {
        ServiceOptions {
            f,
            block_size: 10,
            signing_threads: 4,
            wheat: false,
            tentative: false,
            batch_max: 400,
            request_timeout_ms: 2_000,
            frontend_verification: false,
            double_sign: false,
            flush_on_batch_end: false,
            pipeline_depth: 1,
        }
    }

    /// Sets envelopes per block.
    pub fn with_block_size(mut self, block_size: usize) -> ServiceOptions {
        self.block_size = block_size;
        self
    }

    /// Sets signer thread count per node.
    pub fn with_signing_threads(mut self, threads: usize) -> ServiceOptions {
        self.signing_threads = threads;
        self
    }

    /// Enables WHEAT (weighted quorums + tentative execution). The
    /// cluster must then be created with `3f + 1 + f·k` nodes.
    pub fn with_wheat(mut self, wheat: bool) -> ServiceOptions {
        self.wheat = wheat;
        self
    }

    /// Enables tentative execution without weighted quorums (works on a
    /// classic `3f + 1` cluster).
    pub fn with_tentative(mut self, tentative: bool) -> ServiceOptions {
        self.tentative = tentative;
        self
    }

    /// Enables frontend signature verification.
    pub fn with_frontend_verification(mut self, on: bool) -> ServiceOptions {
        self.frontend_verification = on;
        self
    }

    /// Sets the request timeout.
    pub fn with_request_timeout_ms(mut self, ms: u64) -> ServiceOptions {
        self.request_timeout_ms = ms;
        self
    }

    /// Enables the second block signature (paper footnote 10).
    pub fn with_double_sign(mut self, enabled: bool) -> ServiceOptions {
        self.double_sign = enabled;
        self
    }

    /// Enables deterministic partial-block flushing at batch boundaries.
    pub fn with_flush_on_batch_end(mut self, enabled: bool) -> ServiceOptions {
        self.flush_on_batch_end = enabled;
        self
    }

    /// Sets the consensus sliding-window depth (slots in flight at
    /// once; 1 disables pipelining).
    pub fn with_pipeline_depth(mut self, depth: usize) -> ServiceOptions {
        self.pipeline_depth = depth;
        self
    }

    /// The SMR-layer options these service options imply. Together with
    /// [`RuntimeOptions::node_config`] and
    /// [`ServiceOptions::app_config`] this is the single assembly path
    /// of an ordering node, whatever drives it (hub threads, one
    /// process per replica over TCP, the geo simulator).
    pub fn runtime_options(&self) -> RuntimeOptions {
        let mut runtime = RuntimeOptions::classic(self.f)
            .with_checkpoint_interval(CHECKPOINT_EVERY)
            .with_batch_max(self.batch_max)
            .with_request_timeout_ms(self.request_timeout_ms)
            .with_pipeline_depth(self.pipeline_depth);
        runtime.wheat_weights = self.wheat;
        runtime.tentative_execution = self.tentative_execution();
        runtime
    }

    /// Whether replicas deliver tentatively (after the WRITE quorum).
    fn tentative_execution(&self) -> bool {
        self.wheat || self.tentative
    }

    /// The application-layer configuration of replica `i`. The ordering
    /// application reuses the replica's consensus key for block
    /// signatures (the two signature uses are domain-separated).
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a replica of `keys`' cluster.
    #[expect(clippy::indexing_slicing, reason = "bootstrap — a replica index outside the cluster must fail startup loudly")]
    pub fn app_config(
        &self,
        i: usize,
        keys: &ClusterKeys,
        registry: Option<Arc<Registry>>,
        flight: Option<Arc<FlightRecorder>>,
    ) -> OrderingNodeConfig {
        let mut config = OrderingNodeConfig::new(i as u32, keys.signing[i].clone())
            .with_block_size(self.block_size)
            .with_signing_threads(self.signing_threads)
            .with_double_sign(self.double_sign)
            .with_flush_on_batch_end(self.flush_on_batch_end);
        config.registry = registry;
        config.flight = flight;
        config
    }

    /// The ordering application of replica `i` on a threaded node (hub
    /// or TCP): blocks are signed on a pool and pushed through `push`.
    pub fn threaded_app(
        &self,
        i: usize,
        keys: &ClusterKeys,
        registry: Arc<Registry>,
        flight: Option<Arc<FlightRecorder>>,
        push: PushHandle,
    ) -> OrderingNodeApp {
        let config = self.app_config(i, keys, Some(registry), flight);
        let sink = signing_sink(&config, push);
        OrderingNodeApp::new(config, sink)
    }

    /// The configuration of frontend `id` of a cluster whose orderers
    /// hold `orderer_keys`: copy threshold from the execution mode,
    /// verification keys when enabled.
    pub fn frontend_config(&self, id: ClientId, orderer_keys: &[VerifyingKey]) -> FrontendConfig {
        let config = FrontendConfig::new(id, orderer_keys.len(), self.f)
            .with_tentative(self.tentative_execution());
        if self.frontend_verification {
            config.with_verification(orderer_keys)
        } else {
            config
        }
    }
}

/// A running BFT ordering service.
pub struct OrderingService {
    runtime: ClusterRuntime,
    options: ServiceOptions,
    n: usize,
    orderer_keys: Vec<VerifyingKey>,
    next_frontend: u32,
    /// Shared registry for every frontend created via
    /// [`OrderingService::frontend`].
    frontend_registry: Arc<Registry>,
    /// Shared flight recorder for every frontend (submit, collect and
    /// deliver events); populated only while `HLF_TRACE` is on.
    frontend_flight: Arc<FlightRecorder>,
}

impl std::fmt::Debug for OrderingService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderingService")
            .field("n", &self.n)
            .field("f", &self.options.f)
            .field("block_size", &self.options.block_size)
            .finish()
    }
}

impl OrderingService {
    /// Boots an ordering cluster of `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics on invalid `(n, f)` or WHEAT-spare combinations.
    pub fn start(n: usize, options: ServiceOptions) -> OrderingService {
        // The runtime derives its consensus keys deterministically; the
        // ordering apps sign blocks with the same keys.
        let keys = ClusterKeys::derive("runtime", n);
        let orderer_keys = keys.verifying.clone();
        let app_options = options.clone();
        let runtime = ClusterRuntime::start_custom(
            n,
            options.runtime_options(),
            move |i, push, registry, flight| {
                Box::new(app_options.threaded_app(i, &keys, registry, flight, push))
            },
            |_| Box::new(MemoryLog::new()),
        );
        OrderingService {
            runtime,
            options,
            n,
            orderer_keys,
            next_frontend: 1000,
            frontend_registry: Registry::new("frontends"),
            frontend_flight: Arc::new(hlf_obs::FlightRecorder::new("frontends")),
        }
    }

    /// Number of ordering nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The service options in effect.
    pub fn options(&self) -> &ServiceOptions {
        &self.options
    }

    /// Public keys whose signatures appear on blocks (for committing
    /// peers' validation).
    pub fn orderer_keys(&self) -> &[VerifyingKey] {
        &self.orderer_keys
    }

    /// The underlying transport (fault injection in tests).
    pub fn network(&self) -> &Network {
        self.runtime.network()
    }

    /// The underlying SMR runtime (crash/restart in tests).
    pub fn runtime_mut(&mut self) -> &mut ClusterRuntime {
        &mut self.runtime
    }

    /// Per-node SMR statistics.
    pub fn node_stats(&self, i: usize) -> &hlf_smr::node::NodeStats {
        self.runtime.stats(i)
    }

    /// A sampling closure over node `i`'s executed-request counter
    /// (used by benchmark flow control and throughput probes).
    pub fn executed_probe(&self, i: usize) -> impl Fn() -> u64 + Send + 'static {
        let stats = self.runtime.stats_arc(i);
        move || stats.executed_requests()
    }

    /// Connects a new frontend (wired to the shared `frontends`
    /// obs registry).
    pub fn frontend(&mut self) -> Frontend {
        self.next_frontend += 1;
        let config = self
            .options
            .frontend_config(ClientId(self.next_frontend), &self.orderer_keys);
        let mut frontend = Frontend::connect(self.runtime.network(), config);
        frontend.attach_obs(&self.frontend_registry);
        if hlf_obs::trace_enabled() {
            frontend.attach_flight(Arc::clone(&self.frontend_flight));
        }
        frontend
    }

    /// Node `i`'s flight recorder (populated only under `HLF_TRACE`).
    pub fn flight(&self, i: usize) -> Arc<hlf_obs::FlightRecorder> {
        self.runtime.flight(i)
    }

    /// The flight recorder shared by every frontend from
    /// [`OrderingService::frontend`].
    pub fn frontend_flight(&self) -> Arc<hlf_obs::FlightRecorder> {
        Arc::clone(&self.frontend_flight)
    }

    /// Drains pending anomaly dumps from every node recorder and the
    /// shared frontend recorder.
    pub fn take_flight_dumps(&self) -> Vec<hlf_obs::FlightDump> {
        let mut dumps = self.runtime.take_flight_dumps();
        dumps.extend(self.frontend_flight.take_dumps());
        dumps
    }

    /// Node `i`'s obs registry (consensus, SMR, cutter and signing
    /// metrics).
    pub fn obs_registry(&self, i: usize) -> Arc<Registry> {
        self.runtime.obs_registry(i)
    }

    /// Snapshots of every registry in the service: each node's
    /// (`node-0` .. `node-{n-1}`), the SMR `clients` registry, then the
    /// shared `frontends` registry.
    pub fn obs_snapshots(&self) -> Vec<Snapshot> {
        let mut snapshots = self.runtime.obs_snapshots();
        snapshots.push(self.frontend_registry.snapshot());
        snapshots
    }

    /// Convenience: submit `envelopes` through a frontend and wait for
    /// them all to come back in blocks. Returns the delivered blocks.
    pub fn order_all(
        frontend: &mut Frontend,
        envelopes: Vec<Bytes>,
        timeout: Duration,
    ) -> Vec<hlf_fabric::block::Block> {
        let total = envelopes.len();
        for envelope in envelopes {
            frontend.submit(envelope);
        }
        let mut blocks = Vec::new();
        let mut received = 0usize;
        let deadline = std::time::Instant::now() + timeout;
        while received < total {
            let now = std::time::Instant::now();
            if now >= deadline {
                break;
            }
            if let Some(block) = frontend.next_block(deadline - now) {
                received += block.envelopes.len();
                blocks.push(block);
            }
        }
        blocks
    }

    /// Stops all ordering nodes.
    pub fn shutdown(self) {
        self.runtime.shutdown();
    }
}
