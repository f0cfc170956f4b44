//! # hlf-bft
//!
//! A Rust reproduction of *"A Byzantine Fault-Tolerant Ordering Service
//! for the Hyperledger Fabric Blockchain Platform"* (Sousa, Bessani,
//! Vukolić — DSN 2018).
//!
//! The system lives in the workspace's member crates, which the tests
//! and examples of this package name directly:
//!
//! * `hlf_crypto` — SHA-256 / HMAC / Poly1305 / P-256 ECDSA built from
//!   scratch,
//! * `hlf_wire` — the canonical binary wire format,
//! * `hlf_transport` — authenticated point-to-point links: an in-process
//!   hub and kernel TCP sockets,
//! * `hlf_simnet` — deterministic discrete-event WAN simulator, and the
//!   one fault injector (seeded loss, link cuts, crashes),
//! * `hlf_consensus` — BFT-SMaRt's Mod-SMaRt protocol plus the WHEAT
//!   geo-replication optimizations (sans-io state machine),
//! * `hlf_smr` — the state-machine-replication layer (clients, batching,
//!   checkpoints, state transfer, recovery),
//! * `hlf_fabric` — a miniature Hyperledger-Fabric-style substrate
//!   (envelopes, blocks, ledger, validation, endorsement),
//! * `ordering_core` — the paper's contribution: the BFT ordering service
//!   (blockcutter, signing pool, frontends).
//!
//! This crate exports nothing: a member crate's surface is what other
//! packages name, and a facade re-exporting whole crates would keep every
//! module public whether or not anything uses it.
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system
//! inventory and `EXPERIMENTS.md` for paper-vs-measured results.
