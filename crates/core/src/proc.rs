//! Ordering-replica assembly, and its per-process entry points for one
//! ordering replica or frontend per OS process over TCP.
//!
//! `start_replica` is the one place a threaded ordering replica is
//! put together: [`OrderingService::start`](crate::service::OrderingService::start)
//! runs it once per hub endpoint (and again on a restart), and
//! [`start_replica_endpoint`] once per TCP endpoint. Every process
//! derives the same deterministic cluster key material
//! (`ClusterKeys::derive("runtime", n)`), so a replica started here
//! interoperates with any other process started with the same
//! `(n, options)` — and with in-process clusters, which is what the
//! cross-backend benchmarks compare.

use crate::frontend::Frontend;
use crate::node::OrderingNodeApp;
use crate::service::ServiceOptions;
use crate::signing::signing_sink;
use hlf_obs::{FlightRecorder, Registry};
use hlf_smr::node::{spawn_replica, NodeHandle};
use hlf_smr::runtime::ClusterKeys;
use hlf_smr::MemoryLog;
use hlf_transport::Endpoint;
use hlf_wire::ClientId;
use std::sync::Arc;

/// Starts ordering replica `i` of the cluster holding `keys` on
/// `endpoint`: consensus and blocks record into `registry` and, when
/// given, `flight`; blocks are signed on a pool and pushed to every
/// subscribed frontend.
pub(crate) fn start_replica(
    i: usize,
    keys: &ClusterKeys,
    options: &ServiceOptions,
    endpoint: Endpoint,
    registry: Arc<Registry>,
    flight: Option<Arc<FlightRecorder>>,
) -> NodeHandle {
    let node_config = options.runtime.node_config(i, keys, Arc::clone(&registry), flight.clone());
    let app_config = options.app_config(i, keys, registry, flight);
    spawn_replica(node_config, endpoint, Box::new(MemoryLog::new()), move |push| {
        let sink = signing_sink(&app_config, push);
        Box::new(OrderingNodeApp::new(app_config, sink))
    })
}

/// Starts ordering replica `i` of an `n`-node cluster on an
/// already-built transport endpoint (normally
/// [`hlf_transport::TcpNetwork::endpoint`]), without a flight recorder.
/// Returns the node handle; the process typically parks until signalled
/// and then drops it.
///
/// # Panics
///
/// Panics on invalid `(n, f)` combinations or `i >= n`.
pub fn start_replica_endpoint(
    i: usize,
    n: usize,
    options: &ServiceOptions,
    endpoint: Endpoint,
    registry: Arc<Registry>,
) -> NodeHandle {
    start_replica_endpoint_with_flight(i, n, options, endpoint, registry, None)
}

/// [`start_replica_endpoint`] with a flight recorder (e.g. one shared
/// with an admin/telemetry endpoint). The recorder receives the node's
/// consensus, state-transfer *and* signing-phase events.
///
/// # Panics
///
/// Panics on invalid `(n, f)` or WHEAT-spare combinations or `i >= n`,
/// exactly like the in-process bootstrap.
pub fn start_replica_endpoint_with_flight(
    i: usize,
    n: usize,
    options: &ServiceOptions,
    endpoint: Endpoint,
    registry: Arc<Registry>,
    flight: Option<Arc<FlightRecorder>>,
) -> NodeHandle {
    start_replica(i, &ClusterKeys::derive("runtime", n), options, endpoint, registry, flight)
}

/// Connects a frontend for an `n`-node cluster on an already-built
/// transport endpoint. `id` must match the endpoint's client id.
pub fn connect_frontend_endpoint(
    id: u32,
    n: usize,
    options: &ServiceOptions,
    endpoint: Endpoint,
) -> Frontend {
    let keys = ClusterKeys::derive("runtime", n);
    Frontend::connect_endpoint(endpoint, options.frontend_config(ClientId(id), &keys))
}
