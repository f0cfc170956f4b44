//! Ordering-pipeline observability: blockcutter cut accounting,
//! signing-pool queueing vs. signing time, and frontend collection
//! rounds, resolved once from an [`hlf_obs::Registry`].
//!
//! Metric names (see DESIGN.md §Observability):
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `core.cutter.cut_size`           | counter   | blocks cut because the envelope count was reached |
//! | `core.cutter.cut_bytes`          | counter   | blocks cut early by the byte cap |
//! | `core.cutter.cut_batch_end`      | counter   | partial blocks flushed at batch boundaries |
//! | `core.cutter.block_fill_pct`     | histogram | envelopes per block as % of the configured size |
//! | `core.signing.queue_wait_us`     | histogram | block submitted → a signer picks it up |
//! | `core.signing.sign_us`           | histogram | ECDSA signing time per block (group time / group size) |
//! | `core.signing.queue_depth`       | gauge     | blocks waiting in the signing queue |
//! | `core.signing.signed`            | counter   | blocks signed and delivered |
//! | `core.frontend.collect_round_us` | histogram | first block copy → matching-copy threshold |
//! | `core.frontend.delivered_blocks` | counter   | blocks released in order |
//! | `core.frontend.discarded_copies` | counter   | block copies rejected |
//! | `core.frontend.submitted`        | counter   | envelopes relayed to the cluster |

use hlf_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

/// Blockcutter metrics, recorded by the ordering node application at
/// each cut site.
#[derive(Clone, Debug)]
pub struct CutterObs {
    /// Blocks cut because the envelope count reached `block_size`.
    pub cut_size: Arc<Counter>,
    /// Blocks cut early because the next envelope would exceed the
    /// byte cap.
    pub cut_bytes: Arc<Counter>,
    /// Partial blocks flushed at consensus-batch boundaries.
    pub cut_batch_end: Arc<Counter>,
    /// Envelopes per cut block as a percentage of the configured block
    /// size (100 for every count-triggered cut; lower for byte-cap cuts
    /// and batch-end flushes).
    pub block_fill_pct: Arc<Histogram>,
}

impl CutterObs {
    /// Resolves (creating on first use) the cutter metrics in `registry`.
    pub fn new(registry: &Registry) -> CutterObs {
        CutterObs {
            cut_size: registry.counter("core.cutter.cut_size"),
            cut_bytes: registry.counter("core.cutter.cut_bytes"),
            cut_batch_end: registry.counter("core.cutter.cut_batch_end"),
            block_fill_pct: registry.histogram("core.cutter.block_fill_pct"),
        }
    }

    /// Records one cut of `envelopes` envelopes against a target of
    /// `block_size`, attributing it to the given reason counter.
    pub fn record_cut(&self, reason: &Counter, envelopes: usize, block_size: usize) {
        reason.inc();
        self.block_fill_pct
            .record((envelopes * 100 / block_size.max(1)) as u64);
    }
}

/// Signing-pool metrics, recorded by the signer worker threads.
#[derive(Clone, Debug)]
pub struct SigningObs {
    /// Block submitted to the pool → a signer dequeues it, in µs.
    pub queue_wait_us: Arc<Histogram>,
    /// ECDSA signing time per block, in µs.
    pub sign_us: Arc<Histogram>,
    /// Blocks waiting in the signing queue (sampled at submit time).
    pub queue_depth: Arc<Gauge>,
    /// Blocks signed and handed to delivery.
    pub signed: Arc<Counter>,
}

impl SigningObs {
    /// Resolves (creating on first use) the signing metrics in
    /// `registry`.
    pub fn new(registry: &Registry) -> SigningObs {
        SigningObs {
            queue_wait_us: registry.histogram("core.signing.queue_wait_us"),
            sign_us: registry.histogram("core.signing.sign_us"),
            queue_depth: registry.gauge("core.signing.queue_depth"),
            signed: registry.counter("core.signing.signed"),
        }
    }
}

/// Frontend metrics, recorded as block copies arrive and rounds
/// complete.
#[derive(Clone, Debug)]
pub struct FrontendObs {
    /// First copy of a block arriving → the matching-copy threshold
    /// reached, in µs (the paper's `2f + 1` match time).
    pub collect_round_us: Arc<Histogram>,
    /// Blocks released to the consumer in order.
    pub delivered_blocks: Arc<Counter>,
    /// Block copies rejected (bad signature, stale number, garbage).
    pub discarded_copies: Arc<Counter>,
    /// Envelopes relayed to the ordering cluster.
    pub submitted: Arc<Counter>,
    /// Collection rounds open right now (bounded by the frontend's
    /// `max_collecting`).
    pub collecting_rounds: Arc<Gauge>,
    /// Verified-signature dedup entries cached across all open rounds.
    pub verify_cache_entries: Arc<Gauge>,
    /// Collection rounds evicted before completing (bound pressure).
    pub evicted_rounds: Arc<Counter>,
}

impl FrontendObs {
    /// Resolves (creating on first use) the frontend metrics in
    /// `registry`.
    pub fn new(registry: &Registry) -> FrontendObs {
        FrontendObs {
            collect_round_us: registry.histogram("core.frontend.collect_round_us"),
            delivered_blocks: registry.counter("core.frontend.delivered_blocks"),
            discarded_copies: registry.counter("core.frontend.discarded_copies"),
            submitted: registry.counter("core.frontend.submitted"),
            collecting_rounds: registry.gauge("core.frontend.collecting_rounds"),
            verify_cache_entries: registry.gauge("core.frontend.verify_cache_entries"),
            evicted_rounds: registry.counter("core.frontend.evicted_rounds"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_all_metrics() {
        let registry = Registry::new("core-obs-test");
        let cutter = CutterObs::new(&registry);
        let signing = SigningObs::new(&registry);
        let frontend = FrontendObs::new(&registry);
        cutter.record_cut(&cutter.cut_size, 10, 10);
        cutter.record_cut(&cutter.cut_batch_end, 3, 10);
        cutter.record_cut(&cutter.cut_bytes, 2, 10);
        signing.queue_wait_us.record(42);
        frontend.delivered_blocks.inc();
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("core.cutter.cut_size"), Some(1));
        assert_eq!(snap.counter_value("core.cutter.cut_batch_end"), Some(1));
        assert_eq!(snap.counter_value("core.cutter.cut_bytes"), Some(1));
        let fill = snap.histogram("core.cutter.block_fill_pct").unwrap();
        assert_eq!(fill.count, 3);
        assert_eq!(fill.max, 100);
        assert_eq!(fill.min, 20);
        assert_eq!(
            snap.histogram("core.signing.queue_wait_us").unwrap().count,
            1
        );
        assert_eq!(snap.counter_value("core.frontend.delivered_blocks"), Some(1));
    }
}
