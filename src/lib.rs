//! # hlf-bft
//!
//! A Rust reproduction of *"A Byzantine Fault-Tolerant Ordering Service
//! for the Hyperledger Fabric Blockchain Platform"* (Sousa, Bessani,
//! Vukolić — DSN 2018).
//!
//! This facade crate re-exports the workspace's public surface:
//!
//! * [`crypto`] — SHA-256 / HMAC / P-256 ECDSA built from scratch,
//! * [`wire`] — the canonical binary wire format,
//! * [`transport`] — in-process reliable channels with fault injection,
//! * [`simnet`] — deterministic discrete-event WAN simulator,
//! * [`consensus`] — BFT-SMaRt's Mod-SMaRt protocol plus the WHEAT
//!   geo-replication optimizations (sans-io state machine),
//! * [`smr`] — the state-machine-replication layer (clients, batching,
//!   checkpoints, state transfer, reconfiguration),
//! * [`fabric`] — a miniature Hyperledger-Fabric-style substrate
//!   (envelopes, blocks, ledger, validation, endorsement),
//! * [`ordering`] — the paper's contribution: the BFT ordering service
//!   (blockcutter, signing pool, frontends).
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system
//! inventory and `EXPERIMENTS.md` for paper-vs-measured results.

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

pub use hlf_consensus as consensus;
pub use hlf_crypto as crypto;
pub use hlf_fabric as fabric;
pub use hlf_simnet as simnet;
pub use hlf_smr as smr;
pub use hlf_transport as transport;
pub use hlf_wire as wire;
pub use ordering_core as ordering;
