//! One-call cluster bootstrap for tests, benchmarks and examples.

use crate::app::Application;
use crate::client::{ProxyConfig, ServiceProxy};
use crate::node::{spawn_replica, NodeConfig, NodeHandle};
use crate::storage::{LogStore, MemoryLog};
use hlf_consensus::quorum::QuorumSystem;
use hlf_consensus::replica::Config as ConsensusConfig;
use hlf_crypto::ecdsa::{PinnedKey, SigningKey, VerifyingKey};
use hlf_obs::{FlightRecorder, Registry, Snapshot};
use hlf_transport::{Network, PeerId};
use hlf_wire::{ClientId, NodeId};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Deterministic cluster key material.
#[derive(Clone)]
pub struct ClusterKeys {
    /// Per-replica signing keys.
    pub signing: Vec<SigningKey>,
    /// Per-replica public keys, indexed by node id.
    pub verifying: Vec<VerifyingKey>,
    /// `verifying` pinned, built on the first [`ClusterKeys::pinned`]
    /// call and shared by every clone of this value.
    pinned: Arc<OnceLock<Vec<PinnedKey>>>,
}

impl ClusterKeys {
    /// Derives keys for `n` replicas from a cluster seed.
    pub fn derive(seed: &str, n: usize) -> ClusterKeys {
        let signing: Vec<SigningKey> = (0..n)
            .map(|i| SigningKey::from_seed(format!("{seed}/replica-{i}").as_bytes()))
            .collect();
        let verifying = signing.iter().map(|k| *k.verifying_key()).collect();
        ClusterKeys {
            signing,
            verifying,
            pinned: Arc::default(),
        }
    }

    /// The public keys pinned for verification, index for index. The
    /// comb tables are built once, on the first call from this value or
    /// any clone of it, so every replica and collector assembled from
    /// one key set shares one table per key.
    pub fn pinned(&self) -> &[PinnedKey] {
        self.pinned.get_or_init(|| PinnedKey::pin_all(&self.verifying))
    }
}

/// Tunables for a bootstrapped cluster.
#[derive(Clone, Debug)]
pub struct RuntimeOptions {
    /// Fault threshold.
    pub f: usize,
    /// Use WHEAT weighted quorums (requires spare replicas).
    pub wheat_weights: bool,
    /// Enable WHEAT tentative execution.
    pub tentative_execution: bool,
    /// Consensus batch size limit.
    pub batch_max: usize,
    /// Request timeout before escalation.
    pub request_timeout_ms: u64,
    /// Checkpoint period in decisions.
    pub checkpoint_interval: u64,
    /// Consensus sliding-window depth (1 = unpipelined).
    pub pipeline_depth: usize,
}

impl RuntimeOptions {
    /// Classic BFT-SMaRt defaults for a given `f`.
    pub fn classic(f: usize) -> RuntimeOptions {
        RuntimeOptions {
            f,
            wheat_weights: false,
            tentative_execution: false,
            batch_max: 400,
            request_timeout_ms: 2_000,
            checkpoint_interval: 256,
            pipeline_depth: 1,
        }
    }

    /// Shorter timeouts for fault-injection tests.
    pub fn with_request_timeout_ms(mut self, ms: u64) -> RuntimeOptions {
        self.request_timeout_ms = ms;
        self
    }

    /// Overrides the batch cap.
    pub fn with_batch_max(mut self, batch_max: usize) -> RuntimeOptions {
        self.batch_max = batch_max;
        self
    }

    /// Overrides the checkpoint period.
    pub fn with_checkpoint_interval(mut self, interval: u64) -> RuntimeOptions {
        self.checkpoint_interval = interval;
        self
    }

    /// Sets the consensus sliding-window depth (number of slots the
    /// leader keeps in flight at once).
    pub fn with_pipeline_depth(mut self, depth: usize) -> RuntimeOptions {
        self.pipeline_depth = depth;
        self
    }

    /// The configuration replica `i` of a `keys.signing.len()`-node
    /// cluster runs with. Every deployment shape — in-process hub,
    /// one process per replica over TCP, the geo simulator — assembles
    /// its nodes here, so they cannot drift apart.
    ///
    /// # Panics
    ///
    /// Panics on invalid `(n, f)` or WHEAT-spare combinations and on
    /// `i >= n`.
    #[expect(clippy::expect_used, clippy::indexing_slicing, reason = "bootstrap — an invalid (n, f) topology or replica index must fail startup loudly")]
    pub fn node_config(
        &self,
        i: usize,
        keys: &ClusterKeys,
        registry: Option<Arc<Registry>>,
        flight: Option<Arc<FlightRecorder>>,
    ) -> NodeConfig {
        let n = keys.signing.len();
        assert!(i < n, "replica index {i} outside cluster of {n}");
        let quorums = if self.wheat_weights {
            QuorumSystem::wheat_binary(n, self.f).expect("valid WHEAT configuration")
        } else {
            QuorumSystem::classic(n, self.f).expect("valid classic configuration")
        };
        let consensus = ConsensusConfig::new(
            NodeId(i as u32),
            quorums,
            keys.pinned().to_vec(),
            keys.signing[i].clone(),
        )
        .with_tentative_execution(self.tentative_execution)
        .with_batch_max(self.batch_max)
        .with_request_timeout_ms(self.request_timeout_ms)
        .with_pipeline_depth(self.pipeline_depth);
        let mut config = NodeConfig::new(consensus);
        config.checkpoint_interval = self.checkpoint_interval;
        config.registry = registry;
        config.flight = flight;
        config
    }
}

/// A running in-process cluster of replica nodes.
pub struct ClusterRuntime {
    network: Network,
    handles: Vec<Option<NodeHandle>>,
    keys: ClusterKeys,
    options: RuntimeOptions,
    next_client: u32,
    /// Per-node metrics registries (`node-0` .. `node-{n-1}`), created
    /// up front and reused across [`ClusterRuntime::restart`] so
    /// counters survive a crash/recover cycle.
    registries: Vec<Arc<Registry>>,
    /// Per-node flight recorders (`node-0` .. `node-{n-1}`), created up
    /// front like the registries. Nodes only *write* to them when
    /// `HLF_TRACE` is on, but the handles always exist so callers can
    /// drain anomaly dumps after a run.
    flights: Vec<Arc<FlightRecorder>>,
    /// Shared registry for proxies created via [`ClusterRuntime::proxy`].
    client_registry: Arc<Registry>,
}

impl std::fmt::Debug for ClusterRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterRuntime")
            .field("n", &self.handles.len())
            .field("f", &self.options.f)
            .finish()
    }
}

impl ClusterRuntime {
    /// Boots `n` replica nodes with applications from `app_factory` and
    /// in-memory logs.
    ///
    /// # Panics
    ///
    /// Panics on invalid `(n, f)` combinations.
    pub fn start(
        n: usize,
        options: RuntimeOptions,
        app_factory: impl Fn(usize) -> Box<dyn Application>,
    ) -> ClusterRuntime {
        Self::start_with_logs(n, options, app_factory, |_| Box::new(MemoryLog::new()))
    }

    /// Boots one replica node per key of `keys`, with applications built
    /// with access to a [`crate::node::PushHandle`] (the ordering
    /// service's signing pool needs one per node), the node's registry
    /// and, when tracing is on, its flight recorder.
    ///
    /// # Panics
    ///
    /// Panics on invalid `(n, f)` combinations.
    pub fn start_custom(
        keys: ClusterKeys,
        options: RuntimeOptions,
        app_builder: impl Fn(
            usize,
            crate::node::PushHandle,
            Arc<Registry>,
            Option<Arc<FlightRecorder>>,
        ) -> Box<dyn Application>,
        log_factory: impl Fn(usize) -> Box<dyn LogStore>,
    ) -> ClusterRuntime {
        let n = keys.signing.len();
        let mut runtime = Self::prepare(keys, options);
        for i in 0..n {
            let config = runtime.node_config(i);
            let (registry, flight) = (runtime.obs_registry(i), config.flight.clone());
            let handle = spawn_replica(
                config,
                runtime.network.join(PeerId::replica(i as u32)),
                log_factory(i),
                |push| app_builder(i, push, registry, flight),
            );
            runtime.handles.push(Some(handle));
        }
        runtime
    }

    /// Boots a cluster with caller-provided log stores (e.g.
    /// [`crate::storage::FileLog`] for durability tests).
    ///
    /// # Panics
    ///
    /// Panics on invalid `(n, f)` combinations.
    pub fn start_with_logs(
        n: usize,
        options: RuntimeOptions,
        app_factory: impl Fn(usize) -> Box<dyn Application>,
        log_factory: impl Fn(usize) -> Box<dyn LogStore>,
    ) -> ClusterRuntime {
        let keys = ClusterKeys::derive("runtime", n);
        Self::start_custom(keys, options, |i, _, _, _| app_factory(i), log_factory)
    }

    fn prepare(keys: ClusterKeys, options: RuntimeOptions) -> ClusterRuntime {
        let n = keys.signing.len();
        let registries = (0..n).map(|i| Registry::new(format!("node-{i}"))).collect();
        let flights = (0..n)
            .map(|i| Arc::new(FlightRecorder::new(format!("node-{i}"))))
            .collect();
        ClusterRuntime {
            network: Network::new(),
            handles: Vec::new(),
            keys,
            options,
            next_client: 0,
            registries,
            flights,
            client_registry: Registry::new("clients"),
        }
    }

    #[expect(clippy::indexing_slicing, reason = "cluster test-runtime harness — node indices come from the caller's own `0..n` loop and misuse must fail tests loudly")]
    fn node_config(&self, i: usize) -> NodeConfig {
        // Flight recording costs a ring write per protocol event; only
        // arm it when tracing was requested.
        let flight = hlf_obs::trace_enabled().then(|| Arc::clone(&self.flights[i]));
        self.options
            .node_config(i, &self.keys, Some(Arc::clone(&self.registries[i])), flight)
    }

    fn spawn_node(
        &self,
        i: usize,
        app: Box<dyn Application>,
        log: Box<dyn LogStore>,
    ) -> NodeHandle {
        let endpoint = self.network.join(PeerId::replica(i as u32));
        spawn_replica(self.node_config(i), endpoint, log, |_| app)
    }

    /// The shared transport hub (for fault injection).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Number of replicas.
    pub fn n(&self) -> usize {
        self.handles.len()
    }

    /// Node statistics handle (panics if the node was crashed).
    #[expect(clippy::expect_used, clippy::indexing_slicing, reason = "cluster test-runtime harness — node indices come from the caller's own `0..n` loop and misuse must fail tests loudly")]
    pub fn stats(&self, i: usize) -> &crate::node::NodeStats {
        self.handles[i].as_ref().expect("node running").stats()
    }

    /// Shared statistics handle for node `i` (panics if crashed).
    #[expect(clippy::expect_used, clippy::indexing_slicing, reason = "cluster test-runtime harness — node indices come from the caller's own `0..n` loop and misuse must fail tests loudly")]
    pub fn stats_arc(&self, i: usize) -> std::sync::Arc<crate::node::NodeStats> {
        self.handles[i].as_ref().expect("node running").stats_arc()
    }

    /// Node `i`'s metrics registry. Unlike [`ClusterRuntime::stats`],
    /// this works while the node is crashed (the registry is owned by
    /// the runtime and survives restarts).
    #[expect(clippy::indexing_slicing, reason = "cluster test-runtime harness — node indices come from the caller's own `0..n` loop and misuse must fail tests loudly")]
    pub fn obs_registry(&self, i: usize) -> Arc<Registry> {
        Arc::clone(&self.registries[i])
    }

    /// The registry shared by all proxies from [`ClusterRuntime::proxy`].
    pub fn client_obs_registry(&self) -> Arc<Registry> {
        Arc::clone(&self.client_registry)
    }

    /// Node `i`'s flight recorder. Only populated while `HLF_TRACE` is
    /// on, but the handle always exists (like the registries, it
    /// survives crash/restart cycles).
    #[expect(clippy::indexing_slicing, reason = "cluster test-runtime harness — node indices come from the caller's own `0..n` loop and misuse must fail tests loudly")]
    pub fn flight(&self, i: usize) -> Arc<FlightRecorder> {
        Arc::clone(&self.flights[i])
    }

    /// Drains every node's pending anomaly dumps, in node order.
    pub fn take_flight_dumps(&self) -> Vec<hlf_obs::FlightDump> {
        self.flights.iter().flat_map(|f| f.take_dumps()).collect()
    }

    /// Snapshots every node registry plus the client registry, in node
    /// order, for [`hlf_obs::to_json_many`] or text reports.
    pub fn obs_snapshots(&self) -> Vec<Snapshot> {
        let mut snaps: Vec<Snapshot> = self.registries.iter().map(|r| r.snapshot()).collect();
        snaps.push(self.client_registry.snapshot());
        snaps
    }

    /// Creates a synchronous client proxy with the classic `f + 1`
    /// reply threshold (or the tentative quorum when the cluster runs
    /// WHEAT tentative execution).
    pub fn proxy(&mut self) -> ServiceProxy {
        self.next_client += 1;
        let id = ClientId(self.next_client);
        let config = if self.options.tentative_execution {
            ProxyConfig::tentative(id, self.n(), self.options.f)
        } else {
            ProxyConfig::classic(id, self.n(), self.options.f)
        };
        let mut proxy = ServiceProxy::new(&self.network, config);
        proxy.attach_obs(&self.client_registry);
        proxy
    }

    /// Creates a proxy with an explicit configuration.
    pub fn proxy_with(&self, config: ProxyConfig) -> ServiceProxy {
        ServiceProxy::new(&self.network, config)
    }

    /// Crashes node `i`: its thread stops and its mailbox disappears.
    #[expect(clippy::indexing_slicing, reason = "cluster test-runtime harness — node indices come from the caller's own `0..n` loop and misuse must fail tests loudly")]
    pub fn crash(&mut self, i: usize) {
        if let Some(handle) = self.handles[i].take() {
            self.network.part(PeerId::replica(i as u32));
            self.network.isolate(PeerId::replica(i as u32));
            handle.shutdown();
            self.network.heal(PeerId::replica(i as u32));
        }
    }

    /// Restarts a crashed node with a fresh application instance; it
    /// recovers via its log and state transfer.
    ///
    /// # Panics
    ///
    /// Panics if the node is still running.
    #[expect(clippy::indexing_slicing, reason = "cluster test-runtime harness — node indices come from the caller's own `0..n` loop and misuse must fail tests loudly")]
    pub fn restart(&mut self, i: usize, app: Box<dyn Application>, log: Box<dyn LogStore>) {
        assert!(self.handles[i].is_none(), "node {i} still running");
        let handle = self.spawn_node(i, app, log);
        self.handles[i] = Some(handle);
    }

    /// Waits until every live node has decided at least `cid`, up to
    /// `timeout`. Returns `true` on success.
    pub fn wait_for_cid(&self, cid: u64, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let all = self
                .handles
                .iter()
                .flatten()
                .all(|h| h.stats().last_cid() >= cid);
            if all {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Stops every node.
    pub fn shutdown(mut self) {
        for handle in self.handles.iter_mut() {
            if let Some(handle) = handle.take() {
                handle.shutdown();
            }
        }
    }
}
