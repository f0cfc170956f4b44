//! Peers: endorsement (step 2) and validation/commit (steps 5-6).

use crate::block::{Block, Ledger, LedgerError};
use crate::chaincode::{Chaincode, ChaincodeError};
use crate::envelope::{Envelope, Proposal, ProposalResponse};
use crate::kvstore::{SimulationView, VersionedKv};
use crate::types::{TxValidation, Version};
use hlf_crypto::ecdsa::{PinnedKey, SigningKey, VerifyingKey};
use hlf_crypto::sha256::Hash256;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// How many endorsements a transaction needs (per chaincode).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EndorsementPolicy {
    /// Any `n` distinct endorsers from the known set.
    AnyN(usize),
    /// All of the listed peers must endorse.
    AllOf(Vec<u32>),
}

impl EndorsementPolicy {
    /// Evaluates the policy over the envelope's valid endorsements.
    pub(crate) fn satisfied(&self, envelope: &Envelope, endorser_keys: &[VerifyingKey]) -> bool {
        match self {
            EndorsementPolicy::AnyN(n) => envelope.valid_endorsements(endorser_keys) >= *n,
            EndorsementPolicy::AllOf(peers) => {
                let valid = envelope.valid_endorser_set(endorser_keys);
                peers.iter().all(|p| valid.contains(p))
            }
        }
    }
}

/// Events a peer emits while committing a block (what Fabric surfaces
/// to client SDK listeners, paper step 6).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitEvent {
    /// Block number committed.
    pub block: u64,
    /// Transaction id.
    pub tx_id: Hash256,
    /// Validation outcome.
    pub validation: TxValidation,
}

/// Peer configuration: trust anchors and policies.
#[derive(Clone)]
pub struct PeerConfig {
    /// This peer's id.
    pub id: u32,
    /// This peer's endorsement signing key.
    pub signing_key: SigningKey,
    /// All endorsing peers' public keys, indexed by peer id.
    pub endorser_keys: Vec<VerifyingKey>,
    /// Ordering-service public keys, indexed by node id.
    pub orderer_keys: Vec<VerifyingKey>,
    /// Orderer signatures a block needs (`f + 1`).
    pub orderer_signatures_needed: usize,
    /// Per-chaincode endorsement policies.
    pub policies: HashMap<String, EndorsementPolicy>,
}

impl fmt::Debug for PeerConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PeerConfig")
            .field("id", &self.id)
            .field("endorsers", &self.endorser_keys.len())
            .field("orderers", &self.orderer_keys.len())
            .finish()
    }
}

/// A combined endorsing + committing peer on one channel.
pub struct Peer {
    config: PeerConfig,
    /// `config.orderer_keys`, pinned once: every block is checked
    /// against these.
    orderer_keys: Vec<PinnedKey>,
    state: VersionedKv,
    ledger: Ledger,
    chaincodes: HashMap<String, Box<dyn Chaincode>>,
    /// Client keys registered with the MSP (member service provider).
    client_keys: HashMap<u32, VerifyingKey>,
    seen_tx: HashSet<Hash256>,
}

impl fmt::Debug for Peer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Peer")
            .field("id", &self.config.id)
            .field("height", &self.ledger.height())
            .field("state_keys", &self.state.len())
            .finish()
    }
}

/// Endorsement failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EndorseError {
    /// No such chaincode installed.
    UnknownChaincode(String),
    /// The client is not registered with this peer's MSP.
    UnknownClient(u32),
    /// Chaincode execution failed.
    Chaincode(ChaincodeError),
}

impl fmt::Display for EndorseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EndorseError::UnknownChaincode(name) => write!(f, "unknown chaincode {name}"),
            EndorseError::UnknownClient(id) => write!(f, "unknown client {id}"),
            EndorseError::Chaincode(e) => write!(f, "chaincode error: {e}"),
        }
    }
}

impl std::error::Error for EndorseError {}

impl Peer {
    /// Creates a peer on the default system channel.
    pub fn new(config: PeerConfig) -> Peer {
        Peer::new_on_channel(config, crate::block::SYSTEM_CHANNEL)
    }

    /// Creates a peer joined to an explicit channel; blocks from other
    /// channels are rejected at commit time.
    pub fn new_on_channel(config: PeerConfig, channel: impl Into<String>) -> Peer {
        Peer {
            orderer_keys: PinnedKey::pin_all(&config.orderer_keys),
            config,
            state: VersionedKv::new(),
            ledger: Ledger::for_channel(channel),
            chaincodes: HashMap::new(),
            client_keys: HashMap::new(),
            seen_tx: HashSet::new(),
        }
    }

    /// The channel this peer participates in.
    pub fn channel(&self) -> &str {
        self.ledger.channel()
    }

    /// This peer's id.
    pub fn id(&self) -> u32 {
        self.config.id
    }

    /// Installs a chaincode.
    pub fn install_chaincode(&mut self, chaincode: Box<dyn Chaincode>) {
        self.chaincodes.insert(chaincode.name().to_string(), chaincode);
    }

    /// Registers a client public key (MSP enrolment).
    pub fn register_client(&mut self, client: u32, key: VerifyingKey) {
        self.client_keys.insert(client, key);
    }

    /// Read access to the world state.
    pub fn state(&self) -> &VersionedKv {
        &self.state
    }

    /// Read access to the ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Simulates a proposal and signs the result (step 2).
    ///
    /// # Errors
    ///
    /// Returns an `EndorseError` for unknown chaincodes/clients or a
    /// failing invocation.
    pub fn endorse(&self, proposal: &Proposal) -> Result<ProposalResponse, EndorseError> {
        if !self.client_keys.contains_key(&proposal.client) {
            return Err(EndorseError::UnknownClient(proposal.client));
        }
        let chaincode = self
            .chaincodes
            .get(&proposal.chaincode)
            .ok_or_else(|| EndorseError::UnknownChaincode(proposal.chaincode.clone()))?;
        let mut view = SimulationView::new(&self.state);
        let response = chaincode
            .invoke(&proposal.args, &mut view)
            .map_err(EndorseError::Chaincode)?;
        let rw_set = view.into_rw_set();
        Ok(ProposalResponse::sign(
            self.config.id,
            &self.config.signing_key,
            &proposal.tx_id(),
            rw_set,
            response,
        ))
    }

    /// Validates a block and commits it (steps 5-6): checks orderer
    /// signatures and chaining, then per transaction the client
    /// signature, endorsement policy and MVCC read set. Valid
    /// transactions' writes are applied; invalid ones are recorded but
    /// not executed.
    ///
    /// # Errors
    ///
    /// Returns a [`LedgerError`] when the *block itself* is rejected
    /// (bad chain, too few orderer signatures). Per-transaction
    /// failures do not reject the block.
    pub fn validate_and_commit(&mut self, block: Block) -> Result<Vec<CommitEvent>, LedgerError> {
        // Block-level checks + append first (Fabric stores the block
        // with validation flags; we keep flags in the returned events).
        let number = block.header.number;
        let envelopes = block.envelopes.clone();
        self.ledger.append(
            block,
            &self.orderer_keys,
            self.config.orderer_signatures_needed,
        )?;

        let mut events = Vec::with_capacity(envelopes.len());
        for (index, raw) in envelopes.iter().enumerate() {
            // Decode once, as a view of the block's backing buffer: the
            // envelope adopts `raw` as its canonical bytes, so the
            // tx-id and signature checks below hash those bytes without
            // re-encoding.
            let (tx_id, validation) = match Envelope::from_shared(raw) {
                Ok(envelope) => (
                    envelope.tx_id(),
                    self.validate_tx(&envelope, number, index as u32),
                ),
                Err(_) => (Hash256::ZERO, TxValidation::Malformed),
            };
            events.push(CommitEvent {
                block: number,
                tx_id,
                validation,
            });
        }
        Ok(events)
    }

    fn validate_tx(&mut self, envelope: &Envelope, block: u64, tx_index: u32) -> TxValidation {
        if !self.seen_tx.insert(envelope.tx_id()) {
            return TxValidation::Duplicate;
        }
        // Client signature must verify against the registered key.
        let Some(client_key) = self.client_keys.get(&envelope.proposal().client) else {
            return TxValidation::BadEndorsement;
        };
        if !envelope.verify_client(client_key) {
            return TxValidation::BadEndorsement;
        }
        // Endorsement policy for the chaincode (default: 1 endorsement).
        let policy = self
            .config
            .policies
            .get(&envelope.proposal().chaincode)
            .cloned()
            .unwrap_or(EndorsementPolicy::AnyN(1));
        if !policy.satisfied(envelope, &self.config.endorser_keys) {
            return TxValidation::BadEndorsement;
        }
        // MVCC: every read must still be current.
        if !self.state.mvcc_ok(envelope.rw_set()) {
            return TxValidation::MvccConflict;
        }
        self.state
            .apply(envelope.rw_set(), Version { block, tx: tx_index });
        TxValidation::Valid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaincode::{AssetChaincode, KvChaincode};
    use hlf_wire::Bytes;

    struct Fixture {
        peers: Vec<Peer>,
        client_key: SigningKey,
        orderer_keys: Vec<SigningKey>,
    }

    fn fixture(n_peers: usize) -> Fixture {
        let peer_signing: Vec<SigningKey> = (0..n_peers)
            .map(|i| SigningKey::from_seed(format!("peer-sign-{i}").as_bytes()))
            .collect();
        let endorser_keys: Vec<VerifyingKey> =
            peer_signing.iter().map(|k| *k.verifying_key()).collect();
        let orderer_signing: Vec<SigningKey> = (0..4)
            .map(|i| SigningKey::from_seed(format!("orderer-sign-{i}").as_bytes()))
            .collect();
        let orderer_keys: Vec<VerifyingKey> =
            orderer_signing.iter().map(|k| *k.verifying_key()).collect();
        let client_key = SigningKey::from_seed(b"client-1");

        let mut policies = HashMap::new();
        policies.insert("kv".to_string(), EndorsementPolicy::AnyN(2));
        policies.insert("asset".to_string(), EndorsementPolicy::AnyN(2));

        let peers: Vec<Peer> = (0..n_peers)
            .map(|i| {
                let mut peer = Peer::new(PeerConfig {
                    id: i as u32,
                    signing_key: peer_signing[i].clone(),
                    endorser_keys: endorser_keys.clone(),
                    orderer_keys: orderer_keys.clone(),
                    orderer_signatures_needed: 2,
                    policies: policies.clone(),
                });
                peer.install_chaincode(Box::new(KvChaincode::new()));
                peer.install_chaincode(Box::new(AssetChaincode::new()));
                peer.register_client(1, *client_key.verifying_key());
                peer
            })
            .collect();
        Fixture {
            peers,
            client_key,
            orderer_keys: orderer_signing,
        }
    }

    fn proposal(nonce: u64, args: &[&str]) -> Proposal {
        Proposal {
            channel: "ch1".into(),
            chaincode: "kv".into(),
            client: 1,
            nonce,
            args: args.iter().map(|a| Bytes::copy_from_slice(a.as_bytes())).collect(),
        }
    }

    /// Runs the full client-side flow: endorse at 2 peers, assemble.
    fn endorsed_envelope(fx: &Fixture, p: Proposal) -> Envelope {
        let responses: Vec<ProposalResponse> = fx.peers[..2]
            .iter()
            .map(|peer| peer.endorse(&p).unwrap())
            .collect();
        Envelope::assemble(p, responses, &fx.client_key).unwrap()
    }

    fn make_block(fx: &Fixture, number: u64, prev: Hash256, envelopes: Vec<Bytes>) -> Block {
        let mut block = Block::build(number, prev, envelopes);
        block.sign(0, &fx.orderer_keys[0]);
        block.sign(1, &fx.orderer_keys[1]);
        block
    }

    #[test]
    fn full_transaction_flow_commits() {
        let mut fx = fixture(3);
        let envelope = endorsed_envelope(&fx, proposal(1, &["put", "color", "red"]));
        let block = make_block(&fx, 1, Hash256::ZERO, vec![envelope.to_bytes()]);
        for peer in fx.peers.iter_mut() {
            let events = peer.validate_and_commit(block.clone()).unwrap();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].validation, TxValidation::Valid);
            assert_eq!(
                peer.state().get("color").unwrap().0,
                Bytes::from_static(b"red")
            );
            assert_eq!(peer.ledger().height(), 1);
        }
    }

    #[test]
    fn mvcc_conflict_between_dependent_txs_in_one_block() {
        let mut fx = fixture(3);
        // Seed the key so both transactions read the same version.
        let seed = endorsed_envelope(&fx, proposal(1, &["put", "k", "0"]));
        let b1 = make_block(&fx, 1, Hash256::ZERO, vec![seed.to_bytes()]);
        let prev = b1.header_hash();
        for peer in fx.peers.iter_mut() {
            peer.validate_and_commit(b1.clone()).unwrap();
        }

        // Two get-then-put transactions simulated against the same
        // state: the first commits, invalidating the second's read set.
        let tx_a = endorsed_envelope(&fx, proposal(2, &["get", "k"]));
        let mut p_b = proposal(3, &["put", "k", "2"]);
        p_b.args.insert(1, Bytes::from_static(b"k")); // keep args distinct
        let tx_b = {
            // Make tx_b read k as well so its read set conflicts.
            let p = Proposal {
                args: vec![
                    Bytes::from_static(b"get"),
                    Bytes::from_static(b"k"),
                ],
                nonce: 4,
                ..proposal(4, &[])
            };
            endorsed_envelope(&fx, p)
        };
        // tx_a2 writes k (after reading), so it bumps the version.
        let tx_a2 = {
            let p = Proposal {
                args: vec![
                    Bytes::from_static(b"put"),
                    Bytes::from_static(b"k"),
                    Bytes::from_static(b"1"),
                ],
                nonce: 5,
                ..proposal(5, &[])
            };
            endorsed_envelope(&fx, p)
        };
        let _ = (tx_a, p_b);

        // Block: [write k] then [read k simulated pre-write]. The read
        // recorded version 1.0; after tx_a2 commits k@2.0, tx_b's read
        // set is stale -> MVCC conflict.
        let block = make_block(&fx, 2, prev, vec![tx_a2.to_bytes(), tx_b.to_bytes()]);
        let events = fx.peers[0].validate_and_commit(block).unwrap();
        assert_eq!(events[0].validation, TxValidation::Valid);
        assert_eq!(events[1].validation, TxValidation::MvccConflict);
    }

    #[test]
    fn insufficient_endorsements_marked_invalid() {
        let mut fx = fixture(3);
        let p = proposal(1, &["put", "x", "1"]);
        // Only one endorsement; policy wants 2.
        let response = fx.peers[0].endorse(&p).unwrap();
        let envelope = Envelope::assemble(p, vec![response], &fx.client_key).unwrap();
        let block = make_block(&fx, 1, Hash256::ZERO, vec![envelope.to_bytes()]);
        let events = fx.peers[0].validate_and_commit(block).unwrap();
        assert_eq!(events[0].validation, TxValidation::BadEndorsement);
        // Invalid transactions do not touch the state but stay in the
        // ledger (paper step 6).
        assert!(fx.peers[0].state().get("x").is_none());
        assert_eq!(fx.peers[0].ledger().height(), 1);
    }

    #[test]
    fn duplicate_tx_marked() {
        let mut fx = fixture(3);
        let envelope = endorsed_envelope(&fx, proposal(1, &["put", "d", "1"]));
        let raw = envelope.to_bytes();
        let block = make_block(&fx, 1, Hash256::ZERO, vec![raw.clone(), raw]);
        let events = fx.peers[0].validate_and_commit(block).unwrap();
        assert_eq!(events[0].validation, TxValidation::Valid);
        assert_eq!(events[1].validation, TxValidation::Duplicate);
    }

    #[test]
    fn malformed_envelope_marked() {
        let mut fx = fixture(3);
        let block = make_block(&fx, 1, Hash256::ZERO, vec![Bytes::from_static(b"junk")]);
        let events = fx.peers[0].validate_and_commit(block).unwrap();
        assert_eq!(events[0].validation, TxValidation::Malformed);
    }

    #[test]
    fn unsigned_block_rejected_entirely() {
        let mut fx = fixture(3);
        let envelope = endorsed_envelope(&fx, proposal(1, &["put", "y", "1"]));
        let mut block = Block::build(1, Hash256::ZERO, vec![envelope.to_bytes()]);
        block.sign(0, &fx.orderer_keys[0]); // one signature, need 2
        assert!(matches!(
            fx.peers[0].validate_and_commit(block),
            Err(LedgerError::InsufficientSignatures { .. })
        ));
    }

    #[test]
    fn endorsement_from_unknown_client_rejected() {
        let fx = fixture(2);
        let mut p = proposal(1, &["put", "z", "1"]);
        p.client = 99;
        assert_eq!(
            fx.peers[0].endorse(&p),
            Err(EndorseError::UnknownClient(99))
        );
    }

    #[test]
    fn all_of_policy() {
        let fx = fixture(3);
        let p = proposal(1, &["put", "w", "1"]);
        let responses: Vec<ProposalResponse> = fx.peers[..2]
            .iter()
            .map(|peer| peer.endorse(&p).unwrap())
            .collect();
        let envelope = Envelope::assemble(p, responses, &fx.client_key).unwrap();
        let keys: Vec<VerifyingKey> = fx
            .peers
            .iter()
            .map(|p| *p.config.signing_key.verifying_key())
            .collect();
        assert!(EndorsementPolicy::AllOf(vec![0, 1]).satisfied(&envelope, &keys));
        assert!(!EndorsementPolicy::AllOf(vec![0, 2]).satisfied(&envelope, &keys));
        assert!(EndorsementPolicy::AnyN(2).satisfied(&envelope, &keys));
        assert!(!EndorsementPolicy::AnyN(3).satisfied(&envelope, &keys));
    }

    #[test]
    fn state_diverges_only_on_different_blocks() {
        // Two peers applying the same blocks end in identical state.
        let mut fx = fixture(2);
        let e1 = endorsed_envelope(&fx, proposal(1, &["put", "a", "1"]));
        let e2 = endorsed_envelope(&fx, proposal(2, &["put", "b", "2"]));
        let b1 = make_block(&fx, 1, Hash256::ZERO, vec![e1.to_bytes()]);
        let b2 = make_block(&fx, 2, b1.header_hash(), vec![e2.to_bytes()]);
        for peer in fx.peers.iter_mut() {
            peer.validate_and_commit(b1.clone()).unwrap();
            peer.validate_and_commit(b2.clone()).unwrap();
        }
        let s0 = &fx.peers[0];
        let s1 = &fx.peers[1];
        assert_eq!(s0.state().get("a"), s1.state().get("a"));
        assert_eq!(s0.state().get("b"), s1.state().get("b"));
        assert_eq!(s0.ledger().tip_hash(), s1.ledger().tip_hash());
    }
}
