//! Multi-process deployment assembly: one ordering replica or
//! frontend per OS process, over the TCP transport.
//!
//! [`OrderingService::start`](crate::service::OrderingService::start)
//! boots a whole cluster in one address space; this module is its
//! per-process counterpart. Every process derives the same
//! deterministic cluster key material (`ClusterKeys::derive("runtime",
//! n)`), so a replica started here interoperates with any other
//! process started with the same `(n, options)` — and with in-process
//! clusters, which is what the cross-backend benchmarks compare.

use crate::frontend::Frontend;
use crate::service::ServiceOptions;
use hlf_obs::Registry;
use hlf_smr::node::{spawn_replica, NodeHandle};
use hlf_smr::runtime::ClusterKeys;
use hlf_smr::storage::MemoryLog;
use hlf_transport::Endpoint;
use hlf_wire::ClientId;
use std::sync::Arc;

/// Starts ordering replica `i` of an `n`-node cluster on an
/// already-built transport endpoint (normally
/// [`hlf_transport::TcpNetwork::endpoint`]). Returns the node handle;
/// the process typically parks until signalled and then drops it.
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
    let flight = hlf_obs::trace_enabled()
        .then(|| Arc::new(hlf_obs::FlightRecorder::new(format!("node-{i}"))));
    start_replica_endpoint_with_flight(i, n, options, endpoint, registry, flight)
}

/// [`start_replica_endpoint`] with an explicit flight recorder (e.g.
/// one shared with an admin/telemetry endpoint), instead of the
/// `HLF_TRACE`-gated default. The recorder receives the node's
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
    flight: Option<Arc<hlf_obs::FlightRecorder>>,
) -> NodeHandle {
    let keys = ClusterKeys::derive("runtime", n);
    let node_config = options.runtime_options().node_config(
        i,
        &keys,
        Some(Arc::clone(&registry)),
        flight.clone(),
    );
    let options = options.clone();
    spawn_replica(
        node_config,
        endpoint,
        Box::new(MemoryLog::new()),
        move |push| Box::new(options.threaded_app(i, &keys, registry, flight, push)),
    )
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
