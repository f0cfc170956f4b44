//! Transaction proposals, endorsements and envelopes (paper steps 1-3).
//!
//! [`Envelope`] is immutable after construction, which makes its
//! encode-once/hash-once caches sound: the canonical wire encoding and
//! the derived digests are computed at most once per envelope and
//! shared by every later serialization, signature check and hash.

use crate::types::RwSet;
use hlf_crypto::ecdsa::{Signature, SigningKey, VerifyingKey};
use hlf_crypto::sha256::{sha256, sha256_concat, Hash256};
use hlf_wire::Bytes;
use hlf_wire::{
    decode_seq, encode_seq, seq_encoded_len, splice_canonical, Decode, Encode, Reader, WireError,
};
use std::sync::OnceLock;

/// A client's signed request to invoke a chaincode function (step 1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Proposal {
    /// Target channel.
    pub channel: String,
    /// Target chaincode name.
    pub chaincode: String,
    /// Issuing client id.
    pub client: u32,
    /// Client-chosen nonce making the transaction id unique.
    pub nonce: u64,
    /// Invocation arguments (first is conventionally the function name).
    pub args: Vec<Bytes>,
}

impl Proposal {
    /// The transaction id: hash of the proposal content.
    pub fn tx_id(&self) -> Hash256 {
        let mut bytes = Vec::with_capacity(18 + self.encoded_len());
        bytes.extend_from_slice(b"hlfbft/proposal/v1");
        self.encode(&mut bytes);
        sha256(&bytes)
    }
}

impl Encode for Proposal {
    fn encode(&self, out: &mut Vec<u8>) {
        self.channel.encode(out);
        self.chaincode.encode(out);
        self.client.encode(out);
        self.nonce.encode(out);
        encode_seq(&self.args, out);
    }

    fn encoded_len(&self) -> usize {
        self.channel.encoded_len()
            + self.chaincode.encoded_len()
            + 4
            + 8
            + seq_encoded_len(&self.args)
    }
}

impl Decode for Proposal {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Proposal {
            channel: Decode::decode(r)?,
            chaincode: Decode::decode(r)?,
            client: Decode::decode(r)?,
            nonce: Decode::decode(r)?,
            args: decode_seq(r)?,
        })
    }
}

/// What an endorser signs: the tx id, the simulated rw-set digest and
/// the response.
fn endorsement_digest(tx_id: &Hash256, rw_set: &RwSet, response: &Bytes) -> Hash256 {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"hlfbft/endorsement/v1");
    tx_id.encode(&mut bytes);
    rw_set.digest().encode(&mut bytes);
    response.encode(&mut bytes);
    sha256(&bytes)
}

/// An endorsing peer's signature over a simulation result (step 2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Endorsement {
    /// Endorsing peer id.
    pub peer: u32,
    /// Signature over the endorsement digest.
    pub signature: Signature,
}

impl Encode for Endorsement {
    fn encode(&self, out: &mut Vec<u8>) {
        self.peer.encode(out);
        self.signature.encode(out);
    }

    fn encoded_len(&self) -> usize {
        4 + 64
    }
}

impl Decode for Endorsement {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Endorsement {
            peer: Decode::decode(r)?,
            signature: Decode::decode(r)?,
        })
    }
}

/// A peer's reply to a proposal: the simulation result plus its
/// endorsement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProposalResponse {
    /// Read/write sets from simulation.
    pub(crate) rw_set: RwSet,
    /// Chaincode response payload.
    pub response: Bytes,
    /// The endorsement signature.
    pub(crate) endorsement: Endorsement,
}

impl ProposalResponse {
    /// Signs a simulation result as `peer`.
    pub(crate) fn sign(
        peer: u32,
        key: &SigningKey,
        tx_id: &Hash256,
        rw_set: RwSet,
        response: Bytes,
    ) -> ProposalResponse {
        let digest = endorsement_digest(tx_id, &rw_set, &response);
        ProposalResponse {
            rw_set,
            response,
            endorsement: Endorsement {
                peer,
                signature: key.sign_digest(&digest),
            },
        }
    }
}

/// A fully assembled transaction envelope (step 3): the unit the
/// ordering service totally orders.
///
/// Fields are private and immutable after construction, so the
/// canonical-bytes and digest caches can never go stale. Build one via
/// [`Envelope::assemble`], [`Envelope::new`] or [`Envelope::from_bytes`].
#[derive(Clone)]
pub struct Envelope {
    proposal: Proposal,
    rw_set: RwSet,
    response: Bytes,
    pub(crate) endorsements: Vec<Endorsement>,
    client_signature: Signature,
    /// Encode-once: the canonical wire encoding, computed lazily (or
    /// adopted zero-copy from the input buffer when decoded out of a
    /// shared buffer — decode is canonical, so input bytes == re-encode).
    canonical: OnceLock<Bytes>,
    /// Hash-once caches derived from the immutable content.
    cached_tx_id: OnceLock<Hash256>,
    cached_client_digest: OnceLock<Hash256>,
    cached_endorse_digest: OnceLock<Hash256>,
}

impl PartialEq for Envelope {
    fn eq(&self, other: &Envelope) -> bool {
        self.proposal == other.proposal
            && self.rw_set == other.rw_set
            && self.response == other.response
            && self.endorsements == other.endorsements
            && self.client_signature == other.client_signature
    }
}
impl Eq for Envelope {}

impl std::fmt::Debug for Envelope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Envelope")
            .field("proposal", &self.proposal)
            .field("rw_set", &self.rw_set)
            .field("response", &self.response)
            .field("endorsements", &self.endorsements)
            .field("client_signature", &self.client_signature)
            .finish()
    }
}

/// Failure assembling an envelope from proposal responses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AssemblyError {
    /// No responses supplied.
    NoResponses,
    /// Endorsers disagreed on the rw-set or response, so no consistent
    /// envelope exists (step 3: "determine if the responses have the
    /// matching read/write set").
    Mismatched,
}

impl std::fmt::Display for AssemblyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssemblyError::NoResponses => f.write_str("no proposal responses"),
            AssemblyError::Mismatched => f.write_str("endorsers returned mismatched results"),
        }
    }
}

impl std::error::Error for AssemblyError {}

impl Envelope {
    /// Builds an envelope from its parts with empty caches.
    ///
    /// The signature is taken as-is; use [`Envelope::assemble`] for the
    /// client-side path that signs the content.
    pub(crate) fn new(
        proposal: Proposal,
        rw_set: RwSet,
        response: Bytes,
        endorsements: Vec<Endorsement>,
        client_signature: Signature,
    ) -> Envelope {
        Envelope {
            proposal,
            rw_set,
            response,
            endorsements,
            client_signature,
            canonical: OnceLock::new(),
            cached_tx_id: OnceLock::new(),
            cached_client_digest: OnceLock::new(),
            cached_endorse_digest: OnceLock::new(),
        }
    }

    /// Assembles and signs an envelope from matching proposal responses
    /// (the client-side step 3 of the paper's protocol).
    ///
    /// # Errors
    ///
    /// `AssemblyError::NoResponses` on empty input and
    /// `AssemblyError::Mismatched` when endorsers disagree.
    pub fn assemble(
        proposal: Proposal,
        responses: Vec<ProposalResponse>,
        client_key: &SigningKey,
    ) -> Result<Envelope, AssemblyError> {
        let first = responses.first().ok_or(AssemblyError::NoResponses)?;
        let rw_set = first.rw_set.clone();
        let response = first.response.clone();
        if !responses
            .iter()
            .all(|r| r.rw_set == rw_set && r.response == response)
        {
            return Err(AssemblyError::Mismatched);
        }
        let endorsements: Vec<Endorsement> =
            responses.into_iter().map(|r| r.endorsement).collect();
        let digest = Envelope::signing_digest(&proposal, &rw_set, &response, &endorsements);
        let envelope = Envelope::new(
            proposal,
            rw_set,
            response,
            endorsements,
            client_key.sign_digest(&digest),
        );
        let _ = envelope.cached_client_digest.set(digest);
        Ok(envelope)
    }

    /// The original proposal.
    pub fn proposal(&self) -> &Proposal {
        &self.proposal
    }

    /// The agreed simulation rw-set.
    pub(crate) fn rw_set(&self) -> &RwSet {
        &self.rw_set
    }

    /// The agreed chaincode response.
    pub fn response(&self) -> &Bytes {
        &self.response
    }

    fn signing_digest(
        proposal: &Proposal,
        rw_set: &RwSet,
        response: &Bytes,
        endorsements: &[Endorsement],
    ) -> Hash256 {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"hlfbft/envelope/v1");
        proposal.encode(&mut bytes);
        rw_set.encode(&mut bytes);
        response.encode(&mut bytes);
        encode_seq(endorsements, &mut bytes);
        sha256(&bytes)
    }

    /// The canonical wire encoding, computed once (encode-once).
    ///
    /// Decoding out of a shared buffer seeds this with a zero-copy view
    /// of the input, so an envelope that transits a node is never
    /// re-serialized.
    pub(crate) fn canonical_bytes(&self) -> &Bytes {
        self.canonical.get_or_init(|| {
            let mut out = Vec::with_capacity(self.content_encoded_len());
            self.encode_content(&mut out);
            Bytes::from(out)
        })
    }

    fn encode_content(&self, out: &mut Vec<u8>) {
        self.proposal.encode(out);
        self.rw_set.encode(out);
        self.response.encode(out);
        encode_seq(&self.endorsements, out);
        self.client_signature.encode(out);
    }

    fn content_encoded_len(&self) -> usize {
        self.proposal.encoded_len()
            + self.rw_set.encoded_len()
            + self.response.encoded_len()
            + seq_encoded_len(&self.endorsements)
            + 64
    }

    /// The digest the client signature covers (hash-once).
    ///
    /// Computed by splicing the memoized canonical bytes — the signed
    /// content is exactly the canonical encoding minus the trailing
    /// 64-byte signature — so no field is re-serialized.
    fn client_digest(&self) -> Hash256 {
        *self.cached_client_digest.get_or_init(|| {
            let canonical = self.canonical_bytes();
            #[expect(clippy::indexing_slicing, reason = "canonical bytes always end with the 64-byte signature")]
            let content = &canonical[..canonical.len() - 64];
            sha256_concat(&[b"hlfbft/envelope/v1", content])
        })
    }

    /// The transaction id (hash-once).
    pub fn tx_id(&self) -> Hash256 {
        *self.cached_tx_id.get_or_init(|| self.proposal.tx_id())
    }

    /// A compact distributed-tracing id: the first 8 bytes of the
    /// transaction id, little-endian. Deterministic, so every node that
    /// sees this envelope derives the same id without coordination, and
    /// the offline trace merger can join per-node flight-recorder
    /// events back to the transaction.
    pub fn trace_id(&self) -> u64 {
        #[expect(clippy::expect_used, reason = "a SHA-256 digest has 32 bytes")]
        u64::from_le_bytes(self.tx_id().as_bytes()[..8].try_into().expect("8 bytes"))
    }

    /// Verifies the client signature.
    pub(crate) fn verify_client(&self, key: &VerifyingKey) -> bool {
        key.verify_digest(&self.client_digest(), &self.client_signature)
            .is_ok()
    }

    /// Counts valid endorsements from distinct peers whose keys are in
    /// `endorser_keys` (indexed by peer id).
    pub(crate) fn valid_endorsements(&self, endorser_keys: &[VerifyingKey]) -> usize {
        self.valid_endorser_set(endorser_keys).len()
    }

    /// The set of peer ids with valid endorsements on this envelope.
    pub(crate) fn valid_endorser_set(
        &self,
        endorser_keys: &[VerifyingKey],
    ) -> std::collections::HashSet<u32> {
        let digest = *self
            .cached_endorse_digest
            .get_or_init(|| endorsement_digest(&self.tx_id(), &self.rw_set, &self.response));
        self.endorsements
            .iter()
            .filter(|e| {
                endorser_keys
                    .get(e.peer as usize)
                    .is_some_and(|key| key.verify_digest(&digest, &e.signature).is_ok())
            })
            .map(|e| e.peer)
            .collect()
    }

    /// Serializes to the opaque bytes the ordering service sees. Cheap
    /// after the first call: clones the memoized canonical buffer.
    pub fn to_bytes(&self) -> Bytes {
        self.canonical_bytes().clone()
    }

    /// Parses envelope bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for malformed bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Envelope, WireError> {
        hlf_wire::from_bytes(bytes)
    }

    /// Parses envelope bytes out of a shared buffer: payload fields and
    /// the canonical-bytes cache become zero-copy views of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for malformed bytes.
    pub(crate) fn from_shared(bytes: &Bytes) -> Result<Envelope, WireError> {
        hlf_wire::from_bytes_shared(bytes)
    }
}

impl Encode for Envelope {
    fn encode(&self, out: &mut Vec<u8>) {
        splice_canonical(self.canonical_bytes(), out);
    }

    fn encoded_len(&self) -> usize {
        match self.canonical.get() {
            Some(canonical) => canonical.len(),
            None => self.content_encoded_len(),
        }
    }
}

impl Decode for Envelope {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let start = r.position();
        let envelope = Envelope::new(
            Decode::decode(r)?,
            Decode::decode(r)?,
            Decode::decode(r)?,
            decode_seq(r)?,
            Decode::decode(r)?,
        );
        // Decode is canonical (fixed-width ints, length prefixes), so
        // the consumed input bytes ARE the canonical encoding: adopt
        // them as the encode-once cache when they are freely shareable.
        if let Some(view) = r.shared_view(start, r.position()) {
            let _ = envelope.canonical.set(view);
        }
        Ok(envelope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ReadItem, Version, WriteItem};

    fn proposal() -> Proposal {
        Proposal {
            channel: "ch1".into(),
            chaincode: "kv".into(),
            client: 4,
            nonce: 99,
            args: vec![Bytes::from_static(b"put"), Bytes::from_static(b"k")],
        }
    }

    fn rw_set() -> RwSet {
        RwSet {
            reads: vec![ReadItem {
                key: "k".into(),
                version: Some(Version { block: 1, tx: 0 }),
            }],
            writes: vec![WriteItem {
                key: "k".into(),
                value: Some(Bytes::from_static(b"v")),
            }],
        }
    }

    fn endorser_keys(n: usize) -> (Vec<SigningKey>, Vec<VerifyingKey>) {
        let sk: Vec<SigningKey> = (0..n)
            .map(|i| SigningKey::from_seed(format!("peer-{i}").as_bytes()))
            .collect();
        let vk = sk.iter().map(|k| *k.verifying_key()).collect();
        (sk, vk)
    }

    fn assembled(n: usize) -> (Envelope, Vec<VerifyingKey>, SigningKey) {
        let (sk, vk) = endorser_keys(n);
        let client_key = SigningKey::from_seed(b"client-4");
        let p = proposal();
        let tx_id = p.tx_id();
        let responses: Vec<ProposalResponse> = (0..n)
            .map(|i| {
                ProposalResponse::sign(
                    i as u32,
                    &sk[i],
                    &tx_id,
                    rw_set(),
                    Bytes::from_static(b"ok"),
                )
            })
            .collect();
        let envelope = Envelope::assemble(p, responses, &client_key).unwrap();
        (envelope, vk, client_key)
    }

    #[test]
    fn tx_id_depends_on_nonce_and_args() {
        let p1 = proposal();
        let mut p2 = proposal();
        p2.nonce = 100;
        assert_ne!(p1.tx_id(), p2.tx_id());
        let mut p3 = proposal();
        p3.args.push(Bytes::from_static(b"extra"));
        assert_ne!(p1.tx_id(), p3.tx_id());
        assert_eq!(p1.tx_id(), proposal().tx_id());
    }

    #[test]
    fn trace_id_is_deterministic_and_survives_the_wire() {
        let (envelope, _, _) = assembled(2);
        let id = envelope.trace_id();
        assert_eq!(
            id,
            u64::from_le_bytes(envelope.tx_id().as_bytes()[..8].try_into().unwrap())
        );
        // A node that decodes the envelope off the wire derives the
        // same trace id as the client that built it.
        let parsed = Envelope::from_bytes(&envelope.to_bytes()).unwrap();
        assert_eq!(parsed.trace_id(), id);

        let mut p2 = proposal();
        p2.nonce = 77;
        assert_ne!(p2.tx_id(), envelope.tx_id());
    }

    #[test]
    fn assemble_verify_roundtrip() {
        let (envelope, vk, client_key) = assembled(3);
        assert!(envelope.verify_client(client_key.verifying_key()));
        assert_eq!(envelope.valid_endorsements(&vk), 3);

        // Wire roundtrip through the opaque bytes the orderer carries.
        let bytes = envelope.to_bytes();
        let parsed = Envelope::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, envelope);
        assert_eq!(parsed.valid_endorsements(&vk), 3);
    }

    #[test]
    fn mismatched_responses_rejected() {
        let (sk, _) = endorser_keys(2);
        let client_key = SigningKey::from_seed(b"client-4");
        let p = proposal();
        let tx_id = p.tx_id();
        let mut other_set = rw_set();
        other_set.writes[0].value = Some(Bytes::from_static(b"different"));
        let responses = vec![
            ProposalResponse::sign(0, &sk[0], &tx_id, rw_set(), Bytes::from_static(b"ok")),
            ProposalResponse::sign(1, &sk[1], &tx_id, other_set, Bytes::from_static(b"ok")),
        ];
        assert_eq!(
            Envelope::assemble(p.clone(), responses, &client_key),
            Err(AssemblyError::Mismatched)
        );
        assert_eq!(
            Envelope::assemble(p, vec![], &client_key),
            Err(AssemblyError::NoResponses)
        );
    }

    #[test]
    fn endorsement_forgery_detected() {
        let (envelope, vk, client_key) = assembled(2);

        // Rebuild the envelope with a tampered write set but the
        // original signatures: endorsements die.
        let mut tampered_set = envelope.rw_set().clone();
        tampered_set.writes[0].value = Some(Bytes::from_static(b"evil"));
        let tampered = Envelope::new(
            envelope.proposal().clone(),
            tampered_set,
            envelope.response().clone(),
            envelope.endorsements.clone(),
            envelope.client_signature,
        );
        assert_eq!(tampered.valid_endorsements(&vk), 0);
        // And the client signature no longer covers the content either.
        assert!(!tampered.verify_client(client_key.verifying_key()));
    }

    #[test]
    fn duplicate_endorser_counts_once() {
        let (sk, vk) = endorser_keys(1);
        let client_key = SigningKey::from_seed(b"client-4");
        let p = proposal();
        let tx_id = p.tx_id();
        let r =
            ProposalResponse::sign(0, &sk[0], &tx_id, rw_set(), Bytes::from_static(b"ok"));
        let envelope =
            Envelope::assemble(p, vec![r.clone(), r], &client_key).unwrap();
        assert_eq!(envelope.valid_endorsements(&vk), 1);
    }

    #[test]
    fn cached_digest_matches_scratch_hash_for_every_constructor() {
        // The memoized client digest must equal a from-scratch hash of
        // the envelope content no matter how the envelope was built.
        let (envelope, _, client_key) = assembled(2);
        let scratch = |e: &Envelope| {
            Envelope::signing_digest(e.proposal(), e.rw_set(), e.response(), &e.endorsements)
        };

        // assemble() — digest seeded eagerly at signing time.
        assert_eq!(envelope.client_digest(), scratch(&envelope));
        assert!(envelope.verify_client(client_key.verifying_key()));

        // new() — digest computed lazily from the canonical cache.
        let rebuilt = Envelope::new(
            envelope.proposal().clone(),
            envelope.rw_set().clone(),
            envelope.response().clone(),
            envelope.endorsements.clone(),
            envelope.client_signature,
        );
        assert_eq!(rebuilt.client_digest(), scratch(&rebuilt));

        // from_bytes() — plain-slice decode, lazy canonical encode.
        let parsed = Envelope::from_bytes(&envelope.to_bytes()).unwrap();
        assert_eq!(parsed.client_digest(), scratch(&parsed));

        // from_shared() — canonical cache adopted zero-copy from input.
        let shared = envelope.to_bytes();
        let parsed = Envelope::from_shared(&shared).unwrap();
        assert_eq!(parsed.client_digest(), scratch(&parsed));
        assert!(parsed.canonical_bytes().shares_storage_with(&shared));

        // clone() — caches travel with the clone and stay correct.
        let cloned = parsed.clone();
        assert_eq!(cloned.client_digest(), scratch(&cloned));
    }

    #[test]
    fn encode_uses_canonical_cache() {
        let (envelope, _, _) = assembled(2);
        let first = envelope.to_bytes();
        let second = envelope.to_bytes();
        // Same memoized buffer, not a re-encode.
        assert!(first.shares_storage_with(&second));
        assert_eq!(hlf_wire::to_bytes(&envelope), first.to_vec());
        assert_eq!(envelope.encoded_len(), first.len());
    }
}
