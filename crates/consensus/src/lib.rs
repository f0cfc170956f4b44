//! BFT-SMaRt's Mod-SMaRt consensus protocol and the WHEAT variant,
//! implemented sans-io.
//!
//! This crate is the replication substrate under the hlf-bft ordering
//! service (paper §4): the PROPOSE / WRITE / ACCEPT message pattern with
//! `⌈(n+f+1)/2⌉` quorums, a signed-certificate synchronization phase
//! (leader change), and WHEAT's two geo-replication optimizations —
//! weighted voting ([`quorum::QuorumSystem::wheat_binary`]) and
//! tentative execution ([`replica::Config::with_tentative_execution`]).
//!
//! The [`replica::Replica`] performs no I/O: it consumes requests,
//! messages and clock ticks, and emits [`replica::Action`]s. Drivers in
//! `hlf-smr` (threads) and `ordering-core` (discrete-event simulation)
//! carry those actions out.
//!
//! # Examples
//!
//! ```
//! use hlf_consensus::testing::Cluster;
//! use hlf_consensus::messages::Request;
//! use hlf_wire::ClientId;
//!
//! // Four replicas tolerate one Byzantine fault.
//! let mut cluster = Cluster::classic(4, 1);
//! cluster.submit_to_all(Request::new(ClientId(1), 1, &b"envelope"[..]));
//! cluster.run_to_quiescence();
//! assert_eq!(cluster.decisions(2).len(), 1);
//! cluster.assert_consistent();
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

pub mod messages;
mod obs;
mod quorum;
mod replica;
mod session;
mod sync;
pub mod testing;

pub use messages::{Batch, ConsensusMsg, DecisionProof, Request, StopData, Vote, VotePhase};
pub use quorum::{QuorumError, QuorumSystem};
pub use replica::{digest64, signer_bitmap, Action, Config, Input, Replica};
pub use session::{Executed, Window};

use std::error::Error;
use std::fmt;

/// Errors surfaced by consensus validation logic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConsensusError {
    /// A decision or write certificate failed verification.
    InvalidProof(&'static str),
    /// A synchronization-phase collect set failed validation.
    InvalidCollect(&'static str),
    /// Invalid quorum-system configuration.
    Config(QuorumError),
}

impl fmt::Display for ConsensusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsensusError::InvalidProof(what) => write!(f, "invalid proof: {what}"),
            ConsensusError::InvalidCollect(what) => write!(f, "invalid collect set: {what}"),
            ConsensusError::Config(e) => write!(f, "configuration error: {e}"),
        }
    }
}

impl Error for ConsensusError {}

impl From<QuorumError> for ConsensusError {
    fn from(e: QuorumError) -> Self {
        ConsensusError::Config(e)
    }
}
