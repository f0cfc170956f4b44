//! A miniature Hyperledger-Fabric-style substrate.
//!
//! The ordering service under reproduction plugs into Hyperledger
//! Fabric v1.0. We cannot ship Fabric's Go codebase, so this crate
//! rebuilds the parts the ordering service interacts with (paper §3):
//!
//! * [`envelope`] — proposals, endorsements, and the signed transaction
//!   envelopes the ordering service totally orders (protocol steps 1-3),
//! * [`block`] — hash-chained blocks with orderer signatures, and the
//!   per-channel [`block::Ledger`],
//! * [`kvstore`] — the versioned key/value world state with
//!   read-tracking simulation views,
//! * [`chaincode`] — deterministic smart contracts
//!   ([`chaincode::KvChaincode`], [`chaincode::AssetChaincode`]),
//! * [`peer`] — endorsing/committing peers: simulation + endorsement
//!   signatures (step 2), block validation with endorsement-policy and
//!   MVCC read-set checks, and state commit (steps 5-6).
//!
//! # Examples
//!
//! The full transaction flow against a single peer (the ordering
//! service normally sits between assembly and commit):
//!
//! ```
//! use hlf_wire::Bytes;
//! use hlf_crypto::ecdsa::SigningKey;
//! use hlf_crypto::sha256::Hash256;
//! use hlf_fabric::block::Block;
//! use hlf_fabric::chaincode::KvChaincode;
//! use hlf_fabric::envelope::{Envelope, Proposal};
//! use hlf_fabric::peer::{EndorsementPolicy, Peer, PeerConfig};
//! use std::collections::HashMap;
//!
//! let peer_key = SigningKey::from_seed(b"peer-0");
//! let orderer_key = SigningKey::from_seed(b"orderer-0");
//! let client_key = SigningKey::from_seed(b"client-7");
//!
//! let mut peer = Peer::new(PeerConfig {
//!     id: 0,
//!     signing_key: peer_key.clone(),
//!     endorser_keys: vec![*peer_key.verifying_key()],
//!     orderer_keys: vec![*orderer_key.verifying_key()],
//!     orderer_signatures_needed: 1,
//!     policies: HashMap::from([("kv".to_string(), EndorsementPolicy::AnyN(1))]),
//! });
//! peer.install_chaincode(Box::new(KvChaincode::new()));
//! peer.register_client(7, *client_key.verifying_key());
//!
//! // 1-3: propose, endorse, assemble.
//! let proposal = Proposal {
//!     channel: "ch1".into(),
//!     chaincode: "kv".into(),
//!     client: 7,
//!     nonce: 1,
//!     args: vec![Bytes::from_static(b"put"), Bytes::from_static(b"k"),
//!                Bytes::from_static(b"v")],
//! };
//! let response = peer.endorse(&proposal).unwrap();
//! let envelope = Envelope::assemble(proposal, vec![response], &client_key).unwrap();
//!
//! // 4: (ordering service) cut a signed block.
//! let mut block = Block::build(1, Hash256::ZERO, vec![envelope.to_bytes()]);
//! block.sign(0, &orderer_key);
//!
//! // 5-6: validate and commit.
//! let events = peer.validate_and_commit(block).unwrap();
//! assert!(events[0].validation.is_valid());
//! assert_eq!(peer.state().get("k").unwrap().0.as_ref(), b"v");
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

pub mod block;
pub mod chaincode;
pub mod client;
pub mod envelope;
pub mod kvstore;
pub mod peer;
pub mod types;

pub use block::{Block, BlockHeader, BlockSignature, Ledger, LedgerError};
pub use client::{ClientError, FabricClient};
pub use chaincode::{AssetChaincode, Chaincode, ChaincodeError, KvChaincode};
pub use envelope::{AssemblyError, Endorsement, Envelope, Proposal, ProposalResponse};
pub use kvstore::{composite_key, prefix_range_end, SimulationView, VersionedKv};
pub use peer::{CommitEvent, EndorseError, EndorsementPolicy, Peer, PeerConfig};
pub use types::{ReadItem, RwSet, TxValidation, Version, WriteItem};
