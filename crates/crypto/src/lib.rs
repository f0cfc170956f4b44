//! From-scratch cryptography substrate for the hlf-bft ordering service.
//!
//! The DSN 2018 ordering-service paper signs every block header with ECDSA
//! over NIST P-256 and chains blocks with SHA-256, using the Hyperledger
//! Fabric SDK for both. This crate provides the same primitives without any
//! external dependency:
//!
//! * [`mod@sha256`] — FIPS 180-4 SHA-256 (one-shot, incremental, and many
//!   messages at once in SIMD lanes),
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104), used by deterministic ECDSA
//!   and to derive the transport's keys,
//! * [`poly1305`] — the RFC 8439 one-time authenticator that seals
//!   transport frames (eight blocks at a time on AVX-512 IFMA),
//! * `bignum` — fixed-width 256-bit integers with Montgomery arithmetic,
//! * `p256` — the NIST P-256 (secp256r1) group,
//! * [`ecdsa`] — RFC 6979 deterministic ECDSA signing and verification.
//!
//! The implementation favours clarity and portability over side-channel
//! hardening: it is constant-*algorithm* but not audited constant-*time*,
//! which is the right trade-off for a research reproduction whose threat
//! model is protocol-level Byzantine behaviour, not co-located attackers.
//!
//! # Examples
//!
//! ```
//! use hlf_crypto::ecdsa::SigningKey;
//! use hlf_crypto::sha256::sha256;
//!
//! let key = SigningKey::from_seed(b"ordering node 0");
//! let digest = sha256(b"block header bytes");
//! let sig = key.sign_digest(&digest);
//! assert!(key.verifying_key().verify_digest(&digest, &sig).is_ok());
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

mod bignum;
pub mod ecdsa;
pub mod hex;
pub mod hmac;
mod p256;
pub mod poly1305;
pub mod sha256;

pub use bignum::{Monty, U256};
pub use ecdsa::{Signature, SigningKey, VerifyingKey};
pub use p256::Point;
pub use sha256::{sha256, Digest, Hash256};
