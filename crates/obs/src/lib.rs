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
//! - [`Registry`] — a named bag of metrics that a node *owns* (no
//!   globals); exporters walk [`Snapshot`]s. Every component records
//!   unconditionally, into the registry it is given or a private one.
//! - [`Snapshot`] — point-in-time copy with a stable JSON form
//!   ([`Snapshot::to_json`] / [`Snapshot::from_json`]).
//! - [`log!`] and friends — leveled stderr logging, off by default,
//!   gated by the `HLF_LOG` environment variable.
//! - [`FlightRecorder`] — per-node lock-free ring buffer of recent
//!   protocol events, drained by one cursor reader
//!   ([`FlightRecorder::events_since`]) into stable JSON
//!   ([`FlightDump`]); [`trace_id`] names one transaction's events
//!   across nodes.
//! - [`StragglerDetector`] — per-peer vote-arrival EWMAs flagging slow
//!   replicas relative to the median peer.
//! - [`TimeSeries`] — windowed sample ring with sparkline rendering for
//!   `hlf_top`'s dashboard.
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

mod delta;
mod flight;
mod health;
mod histogram;
pub mod logging;
mod metrics;
mod prometheus;
mod registry;
mod snapshot;
mod timeseries;
mod trace;

pub use delta::{delta_since, ScrapeSession};
pub use flight::{EventKind, FlightDump, FlightEvent, FlightRecorder};
pub use prometheus::to_prometheus;
pub use health::{StragglerDetector, SuspicionEvent};
pub use histogram::{bucket_index, bucket_lower, bucket_upper, Histogram, NUM_BUCKETS};
pub use logging::Level;
pub use metrics::{Counter, Gauge};
pub use registry::Registry;
pub use snapshot::{HistogramSnapshot, MetricSnapshot, MetricValue, Snapshot};
pub use timeseries::TimeSeries;
pub use trace::trace_id;
