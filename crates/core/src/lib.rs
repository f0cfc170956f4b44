//! # ordering-core — the BFT-SMaRt ordering service
//!
//! The primary contribution of *"A Byzantine Fault-Tolerant Ordering
//! Service for the Hyperledger Fabric Blockchain Platform"* (DSN 2018):
//! an ordering service built from
//!
//! * a **cluster of `3f + 1` ordering nodes** running BFT-SMaRt
//!   consensus (`hlf-consensus` + `hlf-smr`), each feeding the totally
//!   ordered envelope stream through a [`blockcutter::BlockCutter`],
//!   chaining block headers, and signing them on a parallel
//!   [`signing::SigningPool`] before a *custom replier* pushes every
//!   block to all connected frontends;
//! * **frontends** ([`frontend::Frontend`]) that relay envelopes on
//!   behalf of Fabric clients and collect `2f + 1` matching block
//!   copies (or `f + 1` verified ones; `⌈(n+f+1)/2⌉` while the cluster
//!   executes tentatively) in a [`collector::BlockCollector`] before
//!   releasing blocks, in order, to committing peers.
//!
//! [`service::OrderingService`] assembles the whole thing in-process
//! and [`proc`] one replica or frontend per OS process over TCP; both
//! are thread drivers of the sans-io [`hlf_smr::core::NodeCore`].
//! [`sim`] drives that same node core, the same
//! [`node::OrderingNodeApp`] and the same
//! [`collector::BlockCollector`] inside the discrete-event WAN
//! simulator for the paper's geo-distributed latency experiments; only
//! link latency and the block-signing delay are modelled there.
//!
//! # Examples
//!
//! ```
//! use hlf_wire::Bytes;
//! use ordering_core::service::{OrderingService, ServiceOptions};
//! use std::time::Duration;
//!
//! // 4 ordering nodes tolerate 1 Byzantine fault; blocks of 5.
//! let mut service = OrderingService::start(
//!     4,
//!     ServiceOptions::new(1).with_block_size(5).with_signing_threads(2),
//! );
//! let mut frontend = service.frontend();
//! for i in 0..5u8 {
//!     frontend.submit(Bytes::from(vec![i; 64]));
//! }
//! let block = frontend.next_block(Duration::from_secs(10)).expect("a block");
//! assert_eq!(block.envelopes.len(), 5);
//! assert!(block.signatures.len() >= 2); // >= f+1 valid signatures
//! service.shutdown();
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

pub mod blockcutter;
pub mod channel;
pub mod collector;
pub mod frontend;
pub mod node;
pub mod obs;
pub mod proc;
pub mod service;
pub mod signing;
pub mod sim;

pub use blockcutter::{BlockCutter, Cut, CutReason};
pub use collector::{copies_needed, BlockCollector, DeliveryPolicy, FrontendConfig, FrontendStats};
pub use frontend::Frontend;
pub use node::{OrderingNodeApp, OrderingNodeConfig, OrderingNodeStats};
pub use obs::{CutterObs, FrontendObs, SigningObs};
pub use service::{OrderingService, ServiceOptions};
pub use signing::{signing_sink, SigningPool, SigningStats};
