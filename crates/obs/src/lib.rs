//! Zero-dependency observability for the ordering service.
//!
//! The paper's evaluation (Figs. 6–9) is entirely about *where time
//! goes* — signing throughput, WRITE-vs-ACCEPT latency under tentative
//! execution, geo quorum formation. This crate is the substrate every
//! perf experiment reports through:
//!
//! - [`Counter`] / [`Gauge`] — lock-free atomic scalars.
//! - [`Histogram`] — log-linear-bucket latency histogram (HDR-style,
//!   16 sub-buckets per power of two) with p50/p90/p99/max snapshots.
//! - [`SpanTimer`] — RAII scope timer that records elapsed µs into a
//!   histogram on drop.
//! - [`Registry`] — a named bag of metrics that a node *owns* (no
//!   globals); exporters walk [`Snapshot`]s.
//! - [`Snapshot`] — point-in-time copy with a human-readable text
//!   report ([`Snapshot::to_text`]) and a stable JSON form
//!   ([`Snapshot::to_json`] / [`Snapshot::from_json`]).
//! - [`log!`] and friends — leveled stderr logging, off by default,
//!   gated by the `HLF_LOG` environment variable.
//! - [`TraceContext`] — compact per-transaction trace identity carried
//!   inside wire messages, gated by `HLF_TRACE` ([`trace_enabled`]).
//! - [`FlightRecorder`] — per-node lock-free ring buffer of recent
//!   protocol events that auto-dumps stable JSON ([`FlightDump`]) on
//!   anomalies (regency change, rollback, state transfer, eviction).
//! - [`StragglerDetector`] — per-peer vote-arrival EWMAs flagging slow
//!   replicas relative to the median peer.
//! - [`TimeSeries`] — windowed sample ring with sparkline rendering for
//!   live dashboards (`HLF_DASH`).
//! - [`delta_since`] / [`ScrapeSession`] — delta snapshots and scrape
//!   cursors, so remote 1 Hz scrapes ship changes instead of the world.
//! - [`to_prometheus`] — Prometheus text exposition over snapshots,
//!   one `node="…"` label per registry.
//!
//! Metric names follow `crate.subsystem.metric`, e.g.
//! `consensus.replica.write_phase_ms` (see DESIGN.md §Observability).
//!
//! # Example
//!
//! ```
//! use hlf_obs::Registry;
//!
//! let registry = Registry::new("node-0");
//! let decided = registry.counter("smr.node.decided");
//! let latency = registry.histogram("smr.node.request_decide_us");
//!
//! decided.inc();
//! latency.record(1_250);
//! {
//!     let _span = latency.span(); // records elapsed µs on drop
//! }
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter_value("smr.node.decided"), Some(1));
//! let json = snap.to_json();
//! let back = hlf_obs::Snapshot::from_json(&json).unwrap();
//! assert_eq!(back.counter_value("smr.node.decided"), Some(1));
//! ```

// Panic, `unsafe` and stdout discipline of this library target (DESIGN.md
// §7); an exception is an `#[expect(clippy::.., reason = "..")]`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::undocumented_unsafe_blocks,
    clippy::print_stdout,
    clippy::allow_attributes_without_reason
)]

pub mod delta;
pub mod flight;
pub mod health;
pub mod histogram;
pub mod logging;
pub mod metrics;
pub mod prometheus;
pub mod registry;
pub mod snapshot;
pub mod span;
pub mod timeseries;
pub mod trace;

pub use delta::{delta_since, ScrapeSession};
pub use flight::{
    dumps_from_json, dumps_to_json, EventKind, FlightDump, FlightEvent, FlightRecorder,
};
pub use prometheus::to_prometheus;
pub use health::{StragglerDetector, SuspicionEvent};
pub use histogram::Histogram;
pub use logging::Level;
pub use metrics::{Counter, Gauge};
pub use registry::{Metric, Registry};
pub use snapshot::{
    from_json_many, to_json_many, HistogramSnapshot, MetricSnapshot, MetricValue, Snapshot,
};
pub use span::SpanTimer;
pub use timeseries::TimeSeries;
pub use trace::{set_trace_enabled, trace_enabled, trace_id, trace_id_parts, TraceContext};
