//! Cluster-wide safety auditing for the BFT ordering service.
//!
//! Node-local observability (metrics, traces, per-node flight rings)
//! answers "what did *this* replica do?". This crate answers the
//! question the paper actually makes claims about: **did the cluster
//! stay safe?** It consumes the per-node
//! [`FlightRecorder`](hlf_obs::FlightRecorder) event streams every
//! replica already produces and provides three layers:
//!
//! - [`timeline`] — merges per-node rings into one causally-ordered
//!   cluster timeline, stitching a Lamport clock from the simulator's
//!   wire send/recv ([`hlf_obs::flight::EventKind::FrameSeq`]) events
//!   so message order survives virtual-timestamp ties.
//! - [`monitor`] — the online [`ClusterAuditor`]: agreement,
//!   certified-value preservation across view changes,
//!   tentative-rollback consistency, quorum-certificate validity
//!   (≥ 2f+1 distinct signers), and strictly monotonic decide release.
//!   Breaches become structured [`AuditViolation`]s carrying a slice of
//!   the recent merged timeline.
//! - [`dashboard`] — a live in-place text dashboard (`HLF_DASH=1`,
//!   1 Hz): per-replica regency / window occupancy / decide frontier /
//!   straggler suspicion, plus tx/s and p50/p99 sparklines over
//!   [`hlf_obs::TimeSeries`] rings.
//!
//! The simulator (`ordering_core::sim`) drives an auditor over every
//! geo/fault scenario; its unit tests prove seeded equivocation and
//! certified-value-drop injections are caught with zero false
//! positives on clean runs, and `hlf_top` drives one over the flight
//! rings of live `hlf_node` processes.

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

pub mod dashboard;
pub mod monitor;
pub mod timeline;

pub use dashboard::{dash_enabled, Dashboard};
pub use monitor::{AuditViolation, ClusterAuditor, ViolationKind};
pub use timeline::{reconstruct, CausalEvent};
