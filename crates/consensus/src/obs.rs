//! Replica-side observability: per-phase latency histograms and
//! protocol event counters, resolved once from an [`hlf_obs::Registry`]
//! so the consensus hot path records through bare `Arc` derefs. A
//! replica always records: into the registry passed to
//! [`crate::replica::Replica::attach_obs`], or else into a private one
//! it makes at construction.
//!
//! Metric names (see DESIGN.md §Observability):
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `consensus.replica.write_phase_ms`  | histogram | PROPOSE accepted → WRITE quorum |
//! | `consensus.replica.accept_phase_ms` | histogram | WRITE quorum → decision |
//! | `consensus.replica.decide_ms`       | histogram | PROPOSE accepted → decision |
//! | `consensus.replica.write_quorum_votes`  | histogram | matching WRITE votes when the quorum formed |
//! | `consensus.replica.accept_quorum_votes` | histogram | ACCEPT votes in the decision proof |
//! | `consensus.replica.decided`              | counter | instances decided |
//! | `consensus.replica.tentative_deliveries` | counter | WHEAT tentative deliveries |
//! | `consensus.replica.rollbacks`            | counter | tentative deliveries undone |
//! | `consensus.replica.regency_changes`      | counter | leader changes installed |
//! | `consensus.replica.regency`              | gauge   | the regency currently installed |
//! | `consensus.replica.pending_requests`     | gauge   | requests waiting to be ordered |
//! | `consensus.pipeline.window`      | gauge     | in-flight slots with an installed proposal |
//! | `consensus.pipeline.ooo_votes`   | histogram | vote slot depth above the frontier (out-of-order) |
//! | `consensus.pipeline.reproposals` | counter   | in-flight slots re-proposed by a new regent |

use hlf_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

/// Handles to every replica metric; resolved by
/// [`crate::replica::Replica::attach_obs`].
#[derive(Debug)]
pub(crate) struct ReplicaObs {
    /// PROPOSE accepted → WRITE quorum reached, in ms of replica time.
    pub write_phase_ms: Arc<Histogram>,
    /// WRITE quorum reached → instance decided, in ms of replica time.
    pub accept_phase_ms: Arc<Histogram>,
    /// PROPOSE accepted → instance decided, in ms of replica time.
    pub decide_ms: Arc<Histogram>,
    /// Matching WRITE votes counted the moment the quorum formed.
    pub write_quorum_votes: Arc<Histogram>,
    /// ACCEPT votes bundled into the decision proof.
    pub accept_quorum_votes: Arc<Histogram>,
    /// Instances decided.
    pub decided: Arc<Counter>,
    /// WHEAT tentative deliveries emitted.
    pub tentative_deliveries: Arc<Counter>,
    /// Tentative deliveries rolled back by a leader change.
    pub rollbacks: Arc<Counter>,
    /// Regency (leader) changes installed: one per install, however
    /// many regencies it skips.
    pub regency_changes: Arc<Counter>,
    /// The regency currently installed.
    pub regency: Arc<Gauge>,
    /// Requests currently waiting to be ordered.
    pub pending_requests: Arc<Gauge>,
    /// In-flight window occupancy: slots holding an installed proposal.
    pub pipeline_window: Arc<Gauge>,
    /// Depth above the frontier of each accepted out-of-order vote.
    pub pipeline_ooo_votes: Arc<Histogram>,
    /// In-flight slots re-proposed (rebound) by a new regent's SYNC.
    pub pipeline_reproposals: Arc<Counter>,
}

impl ReplicaObs {
    /// Resolves (creating on first use) every replica metric in
    /// `registry`.
    pub(crate) fn new(registry: &Registry) -> ReplicaObs {
        ReplicaObs {
            write_phase_ms: registry.histogram("consensus.replica.write_phase_ms"),
            accept_phase_ms: registry.histogram("consensus.replica.accept_phase_ms"),
            decide_ms: registry.histogram("consensus.replica.decide_ms"),
            write_quorum_votes: registry.histogram("consensus.replica.write_quorum_votes"),
            accept_quorum_votes: registry.histogram("consensus.replica.accept_quorum_votes"),
            decided: registry.counter("consensus.replica.decided"),
            tentative_deliveries: registry.counter("consensus.replica.tentative_deliveries"),
            rollbacks: registry.counter("consensus.replica.rollbacks"),
            regency_changes: registry.counter("consensus.replica.regency_changes"),
            regency: registry.gauge("consensus.replica.regency"),
            pending_requests: registry.gauge("consensus.replica.pending_requests"),
            pipeline_window: registry.gauge("consensus.pipeline.window"),
            pipeline_ooo_votes: registry.histogram("consensus.pipeline.ooo_votes"),
            pipeline_reproposals: registry.counter("consensus.pipeline.reproposals"),
        }
    }
}

/// Handles to the slow-replica health metrics fed by the replica's
/// [`hlf_obs::StragglerDetector`]:
///
/// | name | kind | meaning |
/// |------|------|---------|
/// | `consensus.health.vote_lag_us`      | histogram | per-vote arrival lag across all peers |
/// | `consensus.health.suspicions`       | counter   | peers newly flagged as stragglers |
/// | `consensus.health.suspected_peers`  | gauge     | peers currently suspected |
/// | `consensus.health.peer_lag_us.N`    | gauge     | peer N's EWMA vote-arrival lag |
#[derive(Debug)]
pub(crate) struct HealthObs {
    /// Vote-arrival lag samples (µs) from every peer, every vote.
    pub vote_lag_us: Arc<Histogram>,
    /// Peers newly flagged as stragglers (clears not counted).
    pub suspicions: Arc<Counter>,
    /// Peers currently under suspicion.
    pub suspected_peers: Arc<Gauge>,
    /// Per-peer EWMA vote-arrival lag (µs), indexed by replica id.
    pub peer_lag_us: Vec<Arc<Gauge>>,
}

impl HealthObs {
    /// Resolves (creating on first use) the health metrics for an
    /// `n`-replica group in `registry`.
    pub(crate) fn new(registry: &Registry, n: usize) -> HealthObs {
        HealthObs {
            vote_lag_us: registry.histogram("consensus.health.vote_lag_us"),
            suspicions: registry.counter("consensus.health.suspicions"),
            suspected_peers: registry.gauge("consensus.health.suspected_peers"),
            peer_lag_us: (0..n)
                .map(|i| registry.gauge(&format!("consensus.health.peer_lag_us.{i}")))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_all_metrics() {
        let registry = Registry::new("replica-obs-test");
        let obs = ReplicaObs::new(&registry);
        obs.decided.inc();
        obs.write_phase_ms.record(3);
        obs.pending_requests.set(7);
        obs.pipeline_window.set(3);
        obs.pipeline_ooo_votes.record(2);
        obs.pipeline_reproposals.inc();
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("consensus.replica.decided"), Some(1));
        assert_eq!(snap.gauge_value("consensus.pipeline.window"), Some(3));
        assert_eq!(snap.counter_value("consensus.pipeline.reproposals"), Some(1));
        assert_eq!(snap.histogram("consensus.pipeline.ooo_votes").unwrap().count, 1);
        assert_eq!(
            snap.histogram("consensus.replica.write_phase_ms").unwrap().count,
            1
        );
        assert_eq!(snap.gauge_value("consensus.replica.pending_requests"), Some(7));
        // Second resolution returns the same underlying metrics.
        let again = ReplicaObs::new(&registry);
        again.decided.inc();
        assert_eq!(obs.decided.get(), 2);
    }

    #[test]
    fn health_obs_resolves_per_peer_gauges() {
        let registry = Registry::new("health-obs-test");
        let health = HealthObs::new(&registry, 4);
        assert_eq!(health.peer_lag_us.len(), 4);
        health.vote_lag_us.record(1_500);
        health.suspicions.inc();
        health.suspected_peers.set(1);
        health.peer_lag_us[3].set(150_000);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("consensus.health.suspicions"), Some(1));
        assert_eq!(snap.gauge_value("consensus.health.peer_lag_us.3"), Some(150_000));
        assert_eq!(snap.histogram("consensus.health.vote_lag_us").unwrap().count, 1);
    }
}
