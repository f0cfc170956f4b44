//! SMR-layer observability: node-side request latency and state
//! transfer metrics, client-side retransmission and invocation
//! metrics, resolved once from an [`hlf_obs::Registry`]. Nodes and
//! proxies always record: into the registry they are given, or else
//! into a private one.
//!
//! Metric names (see DESIGN.md §Observability):
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `smr.node.request_decide_us`     | histogram | request received → batch committed |
//! | `smr.node.commit_batch_len`      | histogram | requests per committed batch |
//! | `smr.node.state_transfers`       | counter   | catch-ups that moved the frontier |
//! | `smr.node.state_transfer_rounds` | counter   | StateRequest broadcasts |
//! | `smr.node.recoveries`            | counter   | startups that replayed a durable log |
//! | `smr.node.duplicates_skipped`    | counter   | decided requests not executed: their session had executed them |
//! | `smr.client.invoke_us`           | histogram | synchronous invocation round-trip |
//! | `smr.client.retransmits`         | counter   | request retransmissions |
//! | `smr.client.invoke_timeouts`     | counter   | invocations that timed out |

use hlf_obs::{Counter, Histogram, Registry};
use std::sync::Arc;

/// Handles to every node-side SMR metric; built by
/// [`crate::core::NodeCore::new`] in the [`crate::core::NodeConfig`]'s
/// registry, or a private one.
#[derive(Debug)]
pub(crate) struct NodeObs {
    /// Request received from a client → its batch committed, in µs of
    /// wall time (includes consensus plus node-thread queuing).
    pub request_decide_us: Arc<Histogram>,
    /// Requests per committed batch.
    pub commit_batch_len: Arc<Histogram>,
    /// Catch-ups that moved the frontier.
    pub state_transfers: Arc<Counter>,
    /// StateRequest broadcasts (each `Behind` the replica raised).
    pub state_transfer_rounds: Arc<Counter>,
    /// Startups that found and replayed a non-empty durable log.
    pub recoveries: Arc<Counter>,
    /// Decided requests the executor skipped because their client's
    /// session had already executed them.
    pub duplicates_skipped: Arc<Counter>,
}

impl NodeObs {
    /// Resolves (creating on first use) every node metric in `registry`.
    pub(crate) fn new(registry: &Registry) -> NodeObs {
        NodeObs {
            request_decide_us: registry.histogram("smr.node.request_decide_us"),
            commit_batch_len: registry.histogram("smr.node.commit_batch_len"),
            state_transfers: registry.counter("smr.node.state_transfers"),
            state_transfer_rounds: registry.counter("smr.node.state_transfer_rounds"),
            recoveries: registry.counter("smr.node.recoveries"),
            duplicates_skipped: registry.counter("smr.node.duplicates_skipped"),
        }
    }
}

/// Handles to every client-side proxy metric; attach with
/// [`crate::client::ServiceProxy::attach_obs`].
#[derive(Debug)]
pub(crate) struct ProxyObs {
    /// Synchronous invocation round-trip (request sent → reply quorum),
    /// in µs of wall time.
    pub invoke_us: Arc<Histogram>,
    /// Request retransmissions within an invocation's timeout window.
    pub retransmits: Arc<Counter>,
    /// Invocations that gave up without a reply quorum.
    pub invoke_timeouts: Arc<Counter>,
}

impl ProxyObs {
    /// Resolves (creating on first use) every proxy metric in `registry`.
    pub(crate) fn new(registry: &Registry) -> ProxyObs {
        ProxyObs {
            invoke_us: registry.histogram("smr.client.invoke_us"),
            retransmits: registry.counter("smr.client.retransmits"),
            invoke_timeouts: registry.counter("smr.client.invoke_timeouts"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_all_metrics() {
        let registry = Registry::new("smr-obs-test");
        let node = NodeObs::new(&registry);
        let proxy = ProxyObs::new(&registry);
        node.request_decide_us.record(1_200);
        node.state_transfers.inc();
        proxy.retransmits.inc();
        let snap = registry.snapshot();
        assert_eq!(
            snap.histogram("smr.node.request_decide_us").unwrap().count,
            1
        );
        assert_eq!(snap.counter_value("smr.node.state_transfers"), Some(1));
        assert_eq!(snap.counter_value("smr.client.retransmits"), Some(1));
        // Resolving twice shares the underlying metrics.
        let again = NodeObs::new(&registry);
        again.state_transfers.inc();
        assert_eq!(node.state_transfers.get(), 2);
    }
}
