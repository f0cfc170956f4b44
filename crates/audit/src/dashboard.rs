//! Text cluster dashboard, drawn by `hlf_top`.
//!
//! Shows, per replica: the current regency, pipeline-window
//! occupancy, the decide frontier, and straggler suspicion — plus
//! cluster-wide tx/s and p50/p99 decide-latency sparklines over
//! one-second buckets, backed by [`hlf_obs::TimeSeries`] rings.
//!
//! The renderer is deterministic and side-effect free
//! ([`Dashboard::render`] returns a `String`); the caller decides
//! where the frame goes.

use crate::monitor::ClusterAuditor;
use hlf_obs::EventKind;
use hlf_obs::{FlightEvent, TimeSeries};

/// Sparkline window: last 30 one-second buckets.
const SPARK_WINDOW: usize = 30;

/// Per-second aggregation bucket.
#[derive(Default)]
struct Bucket {
    decided_txs: u64,
    latencies_us: Vec<u64>,
}

/// Rolling per-replica + cluster statistics for the dashboard.
pub struct Dashboard {
    n: usize,
    /// Last event seen per replica (µs), for straggler display.
    last_seen_us: Vec<u64>,
    /// Suspicion counts per replica (who is suspected, by anyone).
    suspected: Vec<u64>,
    bucket: Bucket,
    bucket_start_us: u64,
    tps: TimeSeries,
    p50_ms: TimeSeries,
    p99_ms: TimeSeries,
    now_us: u64,
}

impl Dashboard {
    /// Dashboard over an `n`-replica cluster.
    pub fn new(n: usize) -> Dashboard {
        Dashboard {
            n,
            last_seen_us: vec![0; n],
            suspected: vec![0; n],
            bucket: Bucket::default(),
            bucket_start_us: 0,
            tps: TimeSeries::with_capacity(SPARK_WINDOW),
            p50_ms: TimeSeries::with_capacity(SPARK_WINDOW),
            p99_ms: TimeSeries::with_capacity(SPARK_WINDOW),
            now_us: 0,
        }
    }

    /// Feeds one replica event (call alongside
    /// [`ClusterAuditor::observe`]).
    #[expect(clippy::indexing_slicing, reason = "`node` and `peer` are bounds-checked before indexing")]
    pub fn observe(&mut self, node: usize, event: &FlightEvent) {
        if node >= self.n {
            return;
        }
        self.now_us = self.now_us.max(event.at_us);
        self.last_seen_us[node] = self.last_seen_us[node].max(event.at_us);
        self.roll_buckets(event.at_us);
        match event.kind {
            EventKind::Decide => {
                self.bucket.decided_txs += event.b;
                self.bucket.latencies_us.push(event.c);
            }
            EventKind::Suspect => {
                let peer = event.a as usize;
                if peer < self.n {
                    self.suspected[peer] += 1;
                }
            }
            _ => {}
        }
    }

    /// Closes every whole-second bucket up to `at_us` into the
    /// sparkline series.
    fn roll_buckets(&mut self, at_us: u64) {
        while at_us >= self.bucket_start_us + 1_000_000 {
            let bucket = std::mem::take(&mut self.bucket);
            self.tps.push(bucket.decided_txs as f64);
            let mut lat = bucket.latencies_us;
            lat.sort_unstable();
            if lat.is_empty() {
                self.p50_ms.push(0.0);
                self.p99_ms.push(0.0);
            } else {
                let pick = |q: f64| -> f64 {
                    let idx = ((lat.len() - 1) as f64 * q).round() as usize;
                    lat.get(idx).copied().unwrap_or(0) as f64 / 1000.0
                };
                self.p50_ms.push(pick(0.50));
                self.p99_ms.push(pick(0.99));
            }
            self.bucket_start_us += 1_000_000;
        }
    }

    /// Renders one frame from the auditor's per-replica view.
    #[expect(clippy::indexing_slicing, reason = "`node` iterates 0..n, the length of both vecs")]
    pub fn render(&self, auditor: &ClusterAuditor) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "hlf cluster dashboard  t={:>7.1}s  violations={}\n",
            self.now_us as f64 / 1e6,
            auditor.violations().len()
        ));
        out.push_str("node  regency  window  frontier  suspicions  lag\n");
        for node in 0..self.n {
            let (regency, frontier, window) = auditor.node_view(node).unwrap_or((0, 0, 0));
            let lag_ms = self.now_us.saturating_sub(self.last_seen_us[node]) / 1000;
            let straggler = if self.suspected[node] > 0 { " ⚠" } else { "" };
            out.push_str(&format!(
                "{node:>4}  {regency:>7}  {window:>6}  {frontier:>8}  {:>10}  {lag_ms:>4}ms{straggler}\n",
                self.suspected[node]
            ));
        }
        out.push_str(&format!(
            "tx/s {:>8.0}  {}\n",
            self.tps.last().unwrap_or(0.0),
            self.tps.sparkline()
        ));
        out.push_str(&format!(
            "p50  {:>6.1}ms  {}\n",
            self.p50_ms.last().unwrap_or(0.0),
            self.p50_ms.sparkline()
        ));
        out.push_str(&format!(
            "p99  {:>6.1}ms  {}\n",
            self.p99_ms.last().unwrap_or(0.0),
            self.p99_ms.sparkline()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64, kind: EventKind, a: u64, b: u64, c: u64) -> FlightEvent {
        FlightEvent { at_us, kind, a, b, c }
    }

    #[test]
    fn buckets_roll_into_sparklines() {
        let mut dash = Dashboard::new(4);
        // 3 seconds of decides with rising latency.
        for s in 0..3u64 {
            for i in 0..10u64 {
                dash.observe(
                    0,
                    &ev(s * 1_000_000 + i * 1000, EventKind::Decide, i, 5, (s + 1) * 10_000),
                );
            }
        }
        // A fourth-second event closes the third bucket.
        dash.observe(0, &ev(3_000_000, EventKind::Submit, 0, 0, 0));
        assert_eq!(dash.tps.len(), 3);
        assert_eq!(dash.tps.values(), vec![50.0, 50.0, 50.0]);
        assert_eq!(dash.p50_ms.values(), vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn render_shows_every_replica_and_suspicions() {
        let mut dash = Dashboard::new(4);
        let mut aud = ClusterAuditor::new(4, 1);
        dash.observe(0, &ev(1_500_000, EventKind::Decide, 0, 3, 9000));
        dash.observe(1, &ev(1_500_000, EventKind::Suspect, 3, 0, 0));
        let frame = dash.render(&aud);
        for node in 0..4 {
            assert!(frame.contains(&format!("\n{node:>4}  ")), "missing node {node}: {frame}");
        }
        assert!(frame.contains('⚠'), "straggler marker missing: {frame}");
        aud.observe(0, &ev(1, EventKind::DecideHash, 0, 0xab, 0b0011));
        assert!(dash.render(&aud).contains("violations=1"));
    }

    #[test]
    fn empty_dashboard_renders_without_panicking() {
        let dash = Dashboard::new(4);
        let aud = ClusterAuditor::new(4, 1);
        let frame = dash.render(&aud);
        assert!(frame.contains("tx/s"));
    }
}
