//! The metric registry: a named bag of metrics a component *owns*.
//!
//! There is deliberately no global registry. Each node (replica,
//! frontend, client) creates or receives an `Arc<Registry>`; hot paths
//! hold `Arc`s to individual metrics (one pointer deref to record),
//! and exporters walk [`Registry::snapshot`]. This keeps tests
//! hermetic — two nodes in one process never share a metric — and
//! makes ownership explicit in the wiring, mirroring how `NodeStats`
//! handles were already passed around.

use crate::metrics::{Counter, Gauge};
use crate::snapshot::{MetricSnapshot, MetricValue, Snapshot};
use crate::Histogram;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One registered metric.
#[derive(Debug, Clone)]
pub enum Metric {
    /// Monotonic counter.
    Counter(Arc<Counter>),
    /// Up/down gauge.
    Gauge(Arc<Gauge>),
    /// Latency/size distribution.
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics.
///
/// Lookup takes a lock; the intended pattern is to resolve each metric
/// once at construction time and keep the `Arc` (recording is then
/// lock-free). `BTreeMap` keeps snapshots sorted by name.
#[derive(Debug)]
pub struct Registry {
    name: String,
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry. The name identifies the owner in reports,
    /// e.g. `node-0` or `frontend-2`.
    pub fn new(name: impl Into<String>) -> Arc<Registry> {
        Arc::new(Registry {
            name: name.into(),
            metrics: Mutex::new(BTreeMap::new()),
        })
    }

    /// The registry's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the counter with this name, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if the name is registered as a different metric kind.
    #[expect(clippy::panic, reason = "documented API contract — registering one name as two metric kinds is a programming bug caught at first use")]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = match self.metrics.lock() {
            Ok(m) => m,
            Err(poisoned) => poisoned.into_inner(),
        };
        let entry = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())));
        match entry {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Returns the gauge with this name, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if the name is registered as a different metric kind.
    #[expect(clippy::panic, reason = "documented API contract — registering one name as two metric kinds is a programming bug caught at first use")]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut metrics = match self.metrics.lock() {
            Ok(m) => m,
            Err(poisoned) => poisoned.into_inner(),
        };
        let entry = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())));
        match entry {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Returns the histogram with this name, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if the name is registered as a different metric kind.
    #[expect(clippy::panic, reason = "documented API contract — registering one name as two metric kinds is a programming bug caught at first use")]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut metrics = match self.metrics.lock() {
            Ok(m) => m,
            Err(poisoned) => poisoned.into_inner(),
        };
        let entry = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())));
        match entry {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Registers an externally owned metric under `name`, replacing
    /// any previous registration. Lets components expose counters they
    /// already keep (e.g. `SigningStats`) without double bookkeeping.
    pub fn register(&self, name: &str, metric: Metric) {
        match self.metrics.lock() {
            Ok(mut m) => m,
            Err(poisoned) => poisoned.into_inner(),
        }
        .insert(name.to_string(), metric);
    }

    /// Point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = match self.metrics.lock() {
            Ok(m) => m,
            Err(poisoned) => poisoned.into_inner(),
        };
        Snapshot {
            registry: self.name.clone(),
            metrics: metrics
                .iter()
                .map(|(name, metric)| MetricSnapshot {
                    name: name.clone(),
                    value: match metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_metric() {
        let r = Registry::new("test");
        let a = r.counter("x.y.z");
        let b = r.counter("x.y.z");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(r.snapshot().counter_value("x.y.z"), Some(2));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new("test");
        let _ = r.counter("m");
        let _ = r.gauge("m");
    }

    #[test]
    fn register_external_metric() {
        let r = Registry::new("test");
        let external = Arc::new(Counter::new());
        external.add(5);
        r.register("pre.existing.counter", Metric::Counter(Arc::clone(&external)));
        assert_eq!(r.snapshot().counter_value("pre.existing.counter"), Some(5));
        external.inc();
        assert_eq!(r.snapshot().counter_value("pre.existing.counter"), Some(6));
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let r = Registry::new("test");
        let _ = r.counter("b");
        let _ = r.counter("a");
        let _ = r.histogram("c");
        let snap = r.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }
}
