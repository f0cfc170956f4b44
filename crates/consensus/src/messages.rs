//! Protocol messages for Mod-SMaRt consensus.
//!
//! WRITE and ACCEPT votes are individually signed. Per-message ECDSA
//! would be prohibitive in a per-request protocol, but Mod-SMaRt votes
//! are per *batch* (up to hundreds of requests), so the cost is noise —
//! and signed votes is what makes the synchronization phase's collected
//! certificates transferable and Byzantine-safe.

use crate::ConsensusError;
use hlf_wire::Bytes;
use hlf_crypto::ecdsa::{PinnedKey, Signature, SigningKey};
use hlf_crypto::sha256::{sha256, sha256_concat, Digest, Hash256};
use hlf_wire::{decode_seq, encode_seq, seq_encoded_len, Decode, Encode, Reader, WireError};
use hlf_wire::{ClientId, NodeId};

/// A client request: the unit the ordering service totally orders
/// (an opaque Fabric envelope, from consensus's point of view).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Request {
    /// Issuing client (a frontend in the ordering service).
    pub client: ClientId,
    /// Client-local sequence number, used for deduplication and reply
    /// matching.
    pub seq: u64,
    /// Opaque payload.
    pub payload: Bytes,
}

impl Request {
    /// Creates a request.
    pub fn new(client: ClientId, seq: u64, payload: impl Into<Bytes>) -> Request {
        Request {
            client,
            seq,
            payload: payload.into(),
        }
    }

    /// The request's deduplication identity.
    pub fn id(&self) -> (ClientId, u64) {
        (self.client, self.seq)
    }
}

impl Encode for Request {
    fn encode(&self, out: &mut Vec<u8>) {
        self.client.encode(out);
        self.seq.encode(out);
        self.payload.encode(out);
    }

    fn encoded_len(&self) -> usize {
        4 + 8 + 4 + self.payload.len()
    }
}

impl Decode for Request {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Request {
            client: Decode::decode(r)?,
            seq: Decode::decode(r)?,
            payload: Decode::decode(r)?,
        })
    }
}

/// The wire format's length prefix (`hlf_wire::encode_seq`, byte
/// strings), for digests that hash an encoding without building it.
fn len_prefix(len: usize) -> [u8; 4] {
    #[expect(clippy::expect_used, reason = "the wire format caps every value at u32 length, and the encoder this mirrors panics on the same input")]
    let len = u32::try_from(len).expect("value length fits in u32");
    len.to_le_bytes()
}

/// An ordered batch of requests — the value one consensus instance
/// decides.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Batch {
    /// The requests, in proposal order.
    pub requests: Vec<Request>,
}

impl Batch {
    /// Creates a batch from requests.
    pub fn new(requests: Vec<Request>) -> Batch {
        Batch { requests }
    }

    /// An empty batch (used by the synchronization phase to conclude an
    /// instance when no value is bound and no requests are pending).
    pub fn empty() -> Batch {
        Batch::default()
    }

    /// Returns `true` if the batch holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Canonical digest of the batch (what WRITE/ACCEPT votes refer to).
    ///
    /// It is `sha256("hlfbft/batch/v1" ‖ encode_seq(requests))`, hashed
    /// as it is produced: each payload goes to the hasher as the view
    /// it is, so no copy of the batch is built.
    pub fn digest(&self) -> Hash256 {
        let mut digest = Digest::new();
        digest.update(b"hlfbft/batch/v1");
        digest.update(&len_prefix(self.requests.len()));
        for request in &self.requests {
            let mut header = [0u8; 16];
            header[..4].copy_from_slice(&request.client.0.to_le_bytes());
            header[4..12].copy_from_slice(&request.seq.to_le_bytes());
            header[12..].copy_from_slice(&len_prefix(request.payload.len()));
            digest.update(&header);
            digest.update(&request.payload);
        }
        digest.finalize()
    }

    /// Total payload bytes across requests.
    pub fn payload_bytes(&self) -> usize {
        self.requests.iter().map(|r| r.payload.len()).sum()
    }
}

impl Encode for Batch {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(&self.requests, out);
    }

    fn encoded_len(&self) -> usize {
        seq_encoded_len(&self.requests)
    }
}

impl Decode for Batch {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Batch {
            requests: decode_seq(r)?,
        })
    }
}

/// The phase a signed vote belongs to (domain separation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VotePhase {
    /// WRITE phase (second round of the message pattern).
    Write,
    /// ACCEPT phase (third round).
    Accept,
}

impl VotePhase {
    fn domain(&self) -> &'static [u8] {
        match self {
            VotePhase::Write => b"hlfbft/write-vote/v1",
            VotePhase::Accept => b"hlfbft/accept-vote/v1",
        }
    }
}

/// A signed consensus vote: "node `node` voted for batch hash `hash` in
/// instance `cid`, epoch `epoch`, phase `phase`".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Vote {
    /// Consensus instance.
    pub cid: u64,
    /// Epoch within the instance (equal to the regency it ran under).
    pub epoch: u32,
    /// Digest of the batch voted for.
    pub hash: Hash256,
    /// Voting replica.
    pub node: NodeId,
    /// Phase of the vote.
    pub phase: VotePhase,
    /// ECDSA signature over the above.
    pub signature: Signature,
}

impl Vote {
    fn signing_digest(
        phase: VotePhase,
        cid: u64,
        epoch: u32,
        hash: &Hash256,
        node: NodeId,
    ) -> Hash256 {
        sha256_concat(&[
            phase.domain(),
            &cid.to_le_bytes(),
            &epoch.to_le_bytes(),
            hash.as_bytes(),
            &node.0.to_le_bytes(),
        ])
    }

    /// Creates and signs a vote.
    pub fn sign(
        key: &SigningKey,
        phase: VotePhase,
        node: NodeId,
        cid: u64,
        epoch: u32,
        hash: Hash256,
    ) -> Vote {
        let digest = Vote::signing_digest(phase, cid, epoch, &hash, node);
        Vote {
            cid,
            epoch,
            hash,
            node,
            phase,
            signature: key.sign_digest(&digest),
        }
    }

    /// Verifies the vote against the claimed node's public key.
    pub fn verify(&self, key: &PinnedKey) -> bool {
        let digest = Vote::signing_digest(self.phase, self.cid, self.epoch, &self.hash, self.node);
        key.verify_digest(&digest, &self.signature).is_ok()
    }
}

impl Encode for Vote {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cid.encode(out);
        self.epoch.encode(out);
        self.hash.encode(out);
        self.node.encode(out);
        out.push(match self.phase {
            VotePhase::Write => 0,
            VotePhase::Accept => 1,
        });
        self.signature.encode(out);
    }

    fn encoded_len(&self) -> usize {
        8 + 4 + 32 + 4 + 1 + 64
    }
}

impl Decode for Vote {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Vote {
            cid: Decode::decode(r)?,
            epoch: Decode::decode(r)?,
            hash: Decode::decode(r)?,
            node: Decode::decode(r)?,
            phase: match u8::decode(r)? {
                0 => VotePhase::Write,
                1 => VotePhase::Accept,
                d => return Err(WireError::InvalidDiscriminant(d)),
            },
            signature: Decode::decode(r)?,
        })
    }
}

/// A quorum of signed ACCEPT votes proving that instance `cid` decided
/// the batch with digest `hash`.
///
/// Decision proofs make decisions transferable: a replica that was
/// offline can accept a decided batch from a single peer as long as the
/// proof checks out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecisionProof {
    /// The decided instance.
    pub cid: u64,
    /// Digest of the decided batch.
    pub hash: Hash256,
    /// Quorum of ACCEPT votes for `(cid, hash)`.
    pub votes: Vec<Vote>,
}

impl DecisionProof {
    /// Verifies the proof: distinct signers, correct phase/cid/hash,
    /// valid signatures, and quorum weight per `quorums`.
    pub fn verify(
        &self,
        quorums: &crate::quorum::QuorumSystem,
        keys: &[PinnedKey],
    ) -> Result<(), ConsensusError> {
        let mut seen = std::collections::HashSet::new();
        let mut epoch: Option<u32> = None;
        for vote in &self.votes {
            if vote.phase != VotePhase::Accept
                || vote.cid != self.cid
                || vote.hash != self.hash
            {
                return Err(ConsensusError::InvalidProof("vote fields mismatch"));
            }
            if *epoch.get_or_insert(vote.epoch) != vote.epoch {
                return Err(ConsensusError::InvalidProof("mixed epochs"));
            }
            if !seen.insert(vote.node) {
                return Err(ConsensusError::InvalidProof("duplicate voter"));
            }
            let key = keys
                .get(vote.node.as_usize())
                .ok_or(ConsensusError::InvalidProof("unknown voter"))?;
            if !vote.verify(key) {
                return Err(ConsensusError::InvalidProof("bad signature"));
            }
        }
        if !quorums.is_quorum(seen.iter().copied()) {
            return Err(ConsensusError::InvalidProof("not a quorum"));
        }
        Ok(())
    }
}

impl Encode for DecisionProof {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cid.encode(out);
        self.hash.encode(out);
        encode_seq(&self.votes, out);
    }

    fn encoded_len(&self) -> usize {
        8 + 32 + seq_encoded_len(&self.votes)
    }
}

impl Decode for DecisionProof {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(DecisionProof {
            cid: Decode::decode(r)?,
            hash: Decode::decode(r)?,
            votes: decode_seq(r)?,
        })
    }
}

/// One in-flight slot *above* the sender's frontier in a pipelined
/// window: the slot id plus the sender's WRITE state for it, reported
/// inside [`StopData`] so the new regent can re-bind every live slot
/// (an ACCEPT quorum may exist for a slot whose predecessors are still
/// undecided — dropping such a slot's certificate would fork).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlotReport {
    /// The in-flight consensus instance being reported.
    pub cid: u64,
    /// `(epoch, hash)` of the sender's most recent WRITE vote for `cid`.
    pub last_write: Option<(u32, Hash256)>,
    /// The batch behind `last_write`, if known.
    pub value: Option<Batch>,
    /// WRITE votes collected for `last_write` (a certificate when they
    /// reach quorum weight).
    pub write_cert: Vec<Vote>,
}

impl SlotReport {
    /// Folds this report into a signing preimage (values are hashed,
    /// not embedded, exactly like the frontier value in [`StopData`]).
    fn fold_digest(&self, bytes: &mut Vec<u8>) {
        self.cid.encode(bytes);
        self.last_write.encode(bytes);
        match &self.value {
            None => bytes.push(0),
            Some(batch) => {
                bytes.push(1);
                batch.digest().encode(bytes);
            }
        }
        encode_seq(&self.write_cert, bytes);
    }
}

impl Encode for SlotReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cid.encode(out);
        self.last_write.encode(out);
        self.value.encode(out);
        encode_seq(&self.write_cert, out);
    }

    fn encoded_len(&self) -> usize {
        8 + self.last_write.encoded_len()
            + self.value.encoded_len()
            + seq_encoded_len(&self.write_cert)
    }
}

impl Decode for SlotReport {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SlotReport {
            cid: Decode::decode(r)?,
            last_write: Decode::decode(r)?,
            value: Decode::decode(r)?,
            write_cert: decode_seq(r)?,
        })
    }
}

/// A replica's signed contribution to the synchronization phase: its
/// view of the current instance when regency `regency` was installed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StopData {
    /// The regency being installed.
    pub regency: u32,
    /// The sender's current (undecided) consensus instance — the
    /// frontier of its pipelined window.
    pub cid: u64,
    /// `(epoch, hash)` of the sender's most recent WRITE vote for `cid`,
    /// if it cast one.
    pub last_write: Option<(u32, Hash256)>,
    /// The batch behind `last_write`, if known.
    pub value: Option<Batch>,
    /// WRITE votes collected for `last_write` (a certificate when they
    /// reach quorum weight).
    pub write_cert: Vec<Vote>,
    /// In-flight slots above `cid` (pipelined window), in ascending slot
    /// order. Empty whenever the window depth is 1.
    pub extra_slots: Vec<SlotReport>,
    /// Proof of the sender's most recent decision (`cid - 1`), when it
    /// has decided anything.
    pub decision: Option<DecisionProof>,
    /// Sender.
    pub node: NodeId,
    /// Signature over all preceding fields.
    pub signature: Signature,
}

impl StopData {
    #[allow(clippy::too_many_arguments, reason = "the fields of one STOP-DATA record")]
    fn signing_digest(
        regency: u32,
        cid: u64,
        last_write: &Option<(u32, Hash256)>,
        value: &Option<Batch>,
        write_cert: &[Vote],
        extra_slots: &[SlotReport],
        decision: &Option<DecisionProof>,
        node: NodeId,
    ) -> Hash256 {
        let mut bytes = Vec::with_capacity(256);
        bytes.extend_from_slice(b"hlfbft/stop-data/v2");
        regency.encode(&mut bytes);
        cid.encode(&mut bytes);
        last_write.encode(&mut bytes);
        // Hash the value rather than embedding it, keeping the signed
        // blob small.
        match value {
            None => bytes.push(0),
            Some(batch) => {
                bytes.push(1);
                batch.digest().encode(&mut bytes);
            }
        }
        encode_seq(write_cert, &mut bytes);
        (extra_slots.len() as u32).encode(&mut bytes);
        for report in extra_slots {
            report.fold_digest(&mut bytes);
        }
        decision.encode(&mut bytes);
        node.encode(&mut bytes);
        sha256(&bytes)
    }

    /// Builds and signs a stop-data record with an empty window report
    /// (the window-depth-1 case).
    #[allow(clippy::too_many_arguments, reason = "the fields of one STOP-DATA record")]
    pub fn sign(
        key: &SigningKey,
        node: NodeId,
        regency: u32,
        cid: u64,
        last_write: Option<(u32, Hash256)>,
        value: Option<Batch>,
        write_cert: Vec<Vote>,
        decision: Option<DecisionProof>,
    ) -> StopData {
        StopData::sign_with_slots(
            key, node, regency, cid, last_write, value, write_cert, vec![], decision,
        )
    }

    /// Builds and signs a stop-data record carrying per-slot reports for
    /// in-flight slots above the frontier.
    #[allow(clippy::too_many_arguments, reason = "the fields of one STOP-DATA record")]
    pub fn sign_with_slots(
        key: &SigningKey,
        node: NodeId,
        regency: u32,
        cid: u64,
        last_write: Option<(u32, Hash256)>,
        value: Option<Batch>,
        write_cert: Vec<Vote>,
        extra_slots: Vec<SlotReport>,
        decision: Option<DecisionProof>,
    ) -> StopData {
        let digest = StopData::signing_digest(
            regency,
            cid,
            &last_write,
            &value,
            &write_cert,
            &extra_slots,
            &decision,
            node,
        );
        StopData {
            regency,
            cid,
            last_write,
            value,
            write_cert,
            extra_slots,
            decision,
            node,
            signature: key.sign_digest(&digest),
        }
    }

    /// Verifies the sender's signature (not the embedded certificates;
    /// the selection function checks those separately).
    pub fn verify_signature(&self, key: &PinnedKey) -> bool {
        let digest = StopData::signing_digest(
            self.regency,
            self.cid,
            &self.last_write,
            &self.value,
            &self.write_cert,
            &self.extra_slots,
            &self.decision,
            self.node,
        );
        key.verify_digest(&digest, &self.signature).is_ok()
    }
}

impl Encode for StopData {
    fn encode(&self, out: &mut Vec<u8>) {
        self.regency.encode(out);
        self.cid.encode(out);
        self.last_write.encode(out);
        self.value.encode(out);
        encode_seq(&self.write_cert, out);
        encode_seq(&self.extra_slots, out);
        self.decision.encode(out);
        self.node.encode(out);
        self.signature.encode(out);
    }

    fn encoded_len(&self) -> usize {
        4 + 8
            + self.last_write.encoded_len()
            + self.value.encoded_len()
            + seq_encoded_len(&self.write_cert)
            + seq_encoded_len(&self.extra_slots)
            + self.decision.encoded_len()
            + 4
            + 64
    }
}

impl Decode for StopData {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(StopData {
            regency: Decode::decode(r)?,
            cid: Decode::decode(r)?,
            last_write: Decode::decode(r)?,
            value: Decode::decode(r)?,
            write_cert: decode_seq(r)?,
            extra_slots: decode_seq(r)?,
            decision: Decode::decode(r)?,
            node: Decode::decode(r)?,
            signature: Decode::decode(r)?,
        })
    }
}

/// One slot re-proposal inside a [`ConsensusMsg::Sync`]: the new regent
/// re-binds every live window slot above the resume frontier in one
/// atomic message, so followers adopt the whole window (or none of it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlotRebind {
    /// The slot being re-proposed.
    pub cid: u64,
    /// The value the slot resumes with: the certified bound value when
    /// one exists in the collect set, or an empty gap-filler batch.
    pub batch: Batch,
}

impl Encode for SlotRebind {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cid.encode(out);
        self.batch.encode(out);
    }

    fn encoded_len(&self) -> usize {
        8 + self.batch.encoded_len()
    }
}

impl Decode for SlotRebind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SlotRebind {
            cid: Decode::decode(r)?,
            batch: Decode::decode(r)?,
        })
    }
}

/// All messages exchanged by consensus replicas.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConsensusMsg {
    /// Leader's proposal for instance `cid` in epoch `epoch`.
    Propose {
        /// Instance being proposed.
        cid: u64,
        /// Epoch (= regency) of the proposal.
        epoch: u32,
        /// The proposed batch.
        batch: Batch,
    },
    /// A signed WRITE vote.
    Write(Vote),
    /// A signed ACCEPT vote.
    Accept(Vote),
    /// Request to install `regency` (sent on timeout).
    Stop {
        /// The regency the sender wants installed.
        regency: u32,
    },
    /// A replica's signed state snapshot, sent to the new leader.
    StopData(StopData),
    /// The new leader's synchronization message: the collect set that
    /// justifies its choice plus the re-proposal.
    Sync {
        /// Regency being concluded.
        regency: u32,
        /// At least `n - f` verified stop-data records.
        collect: Vec<StopData>,
        /// The instance the group resumes at.
        cid: u64,
        /// The value re-proposed for `cid`.
        batch: Batch,
        /// Re-proposals for in-flight window slots above `cid`, in
        /// contiguous ascending order up to the highest bound slot.
        /// Empty whenever the window depth is 1 or no later slot was
        /// bound.
        rebinds: Vec<SlotRebind>,
    },
    /// Pending client requests forwarded to the current leader in one
    /// message (sent after the first timeout stage).
    Forward {
        /// The forwarded requests, oldest first.
        requests: Vec<Request>,
    },
    /// Ask a peer for the decided batch of `cid`.
    ValueRequest {
        /// The decided instance whose value is missing.
        cid: u64,
    },
    /// Answer to [`ConsensusMsg::ValueRequest`], carrying the batch and
    /// its decision proof.
    ValueReply {
        /// The decided instance.
        cid: u64,
        /// Its decided batch.
        batch: Batch,
        /// Proof that `batch` was decided.
        proof: DecisionProof,
    },
}

impl Encode for ConsensusMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ConsensusMsg::Propose { cid, epoch, batch } => {
                out.push(0);
                cid.encode(out);
                epoch.encode(out);
                batch.encode(out);
            }
            ConsensusMsg::Write(vote) => {
                out.push(1);
                vote.encode(out);
            }
            ConsensusMsg::Accept(vote) => {
                out.push(2);
                vote.encode(out);
            }
            ConsensusMsg::Stop { regency } => {
                out.push(3);
                regency.encode(out);
            }
            ConsensusMsg::StopData(sd) => {
                out.push(4);
                sd.encode(out);
            }
            ConsensusMsg::Sync {
                regency,
                collect,
                cid,
                batch,
                rebinds,
            } => {
                out.push(5);
                regency.encode(out);
                encode_seq(collect, out);
                cid.encode(out);
                batch.encode(out);
                encode_seq(rebinds, out);
            }
            ConsensusMsg::Forward { requests } => {
                out.push(6);
                encode_seq(requests, out);
            }
            ConsensusMsg::ValueRequest { cid } => {
                out.push(7);
                cid.encode(out);
            }
            ConsensusMsg::ValueReply { cid, batch, proof } => {
                out.push(8);
                cid.encode(out);
                batch.encode(out);
                proof.encode(out);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            ConsensusMsg::Propose { batch, .. } => 8 + 4 + batch.encoded_len(),
            ConsensusMsg::Write(vote) | ConsensusMsg::Accept(vote) => vote.encoded_len(),
            ConsensusMsg::Stop { .. } => 4,
            ConsensusMsg::StopData(sd) => sd.encoded_len(),
            ConsensusMsg::Sync {
                collect,
                batch,
                rebinds,
                ..
            } => 4 + seq_encoded_len(collect) + 8 + batch.encoded_len() + seq_encoded_len(rebinds),
            ConsensusMsg::Forward { requests } => seq_encoded_len(requests),
            ConsensusMsg::ValueRequest { .. } => 8,
            ConsensusMsg::ValueReply { cid: _, batch, proof } => {
                8 + batch.encoded_len() + proof.encoded_len()
            }
        }
    }
}

impl Decode for ConsensusMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode(r)? {
            0 => ConsensusMsg::Propose {
                cid: Decode::decode(r)?,
                epoch: Decode::decode(r)?,
                batch: Decode::decode(r)?,
            },
            1 => ConsensusMsg::Write(Decode::decode(r)?),
            2 => ConsensusMsg::Accept(Decode::decode(r)?),
            3 => ConsensusMsg::Stop {
                regency: Decode::decode(r)?,
            },
            4 => ConsensusMsg::StopData(Decode::decode(r)?),
            5 => ConsensusMsg::Sync {
                regency: Decode::decode(r)?,
                collect: decode_seq(r)?,
                cid: Decode::decode(r)?,
                batch: Decode::decode(r)?,
                rebinds: decode_seq(r)?,
            },
            6 => ConsensusMsg::Forward {
                requests: decode_seq(r)?,
            },
            7 => ConsensusMsg::ValueRequest {
                cid: Decode::decode(r)?,
            },
            8 => ConsensusMsg::ValueReply {
                cid: Decode::decode(r)?,
                batch: Decode::decode(r)?,
                proof: Decode::decode(r)?,
            },
            d => return Err(WireError::InvalidDiscriminant(d)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quorum::QuorumSystem;
    use hlf_wire::{from_bytes, to_bytes};

    fn keys(n: usize) -> (Vec<SigningKey>, Vec<PinnedKey>) {
        let signing: Vec<SigningKey> = (0..n)
            .map(|i| SigningKey::from_seed(format!("replica-{i}").as_bytes()))
            .collect();
        let verifying = signing.iter().map(|k| PinnedKey::new(*k.verifying_key())).collect();
        (signing, verifying)
    }

    fn sample_batch() -> Batch {
        Batch::new(vec![
            Request::new(ClientId(1), 1, Bytes::from_static(b"tx-a")),
            Request::new(ClientId(2), 7, Bytes::from_static(b"tx-b")),
        ])
    }

    #[test]
    fn batch_digest_is_canonical_and_sensitive() {
        let a = sample_batch();
        let b = sample_batch();
        assert_eq!(a.digest(), b.digest());
        let mut c = sample_batch();
        c.requests[0].seq = 2;
        assert_ne!(a.digest(), c.digest());
        // Order matters (this is an *ordered* batch).
        let mut d = sample_batch();
        d.requests.reverse();
        assert_ne!(a.digest(), d.digest());
        assert_eq!(a.payload_bytes(), 8);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert!(Batch::empty().is_empty());
    }

    #[test]
    fn vote_sign_verify_and_domain_separation() {
        let (sk, vk) = keys(1);
        let h = sample_batch().digest();
        let write = Vote::sign(&sk[0], VotePhase::Write, NodeId(0), 5, 2, h);
        assert!(write.verify(&vk[0]));

        // The same fields signed as ACCEPT must not verify as WRITE.
        let accept = Vote::sign(&sk[0], VotePhase::Accept, NodeId(0), 5, 2, h);
        let mut forged = accept.clone();
        forged.phase = VotePhase::Write;
        assert!(!forged.verify(&vk[0]));

        // Any field change breaks the signature.
        let mut tampered = write.clone();
        tampered.cid = 6;
        assert!(!tampered.verify(&vk[0]));
    }

    #[test]
    fn decision_proof_verification() {
        let (sk, vk) = keys(4);
        let quorums = QuorumSystem::classic(4, 1).unwrap();
        let h = sample_batch().digest();
        let votes: Vec<Vote> = (0..3)
            .map(|i| Vote::sign(&sk[i], VotePhase::Accept, NodeId(i as u32), 9, 0, h))
            .collect();
        let proof = DecisionProof {
            cid: 9,
            hash: h,
            votes,
        };
        proof.verify(&quorums, &vk).unwrap();

        // Two votes are not a quorum.
        let thin = DecisionProof {
            cid: 9,
            hash: h,
            votes: proof.votes[..2].to_vec(),
        };
        assert!(thin.verify(&quorums, &vk).is_err());

        // Duplicated voter is rejected.
        let mut dup = proof.clone();
        dup.votes[1] = dup.votes[0].clone();
        assert!(dup.verify(&quorums, &vk).is_err());

        // Write votes cannot masquerade as accepts.
        let writes: Vec<Vote> = (0..3)
            .map(|i| Vote::sign(&sk[i], VotePhase::Write, NodeId(i as u32), 9, 0, h))
            .collect();
        let wrong_phase = DecisionProof {
            cid: 9,
            hash: h,
            votes: writes,
        };
        assert!(wrong_phase.verify(&quorums, &vk).is_err());

        // Mixed epochs rejected.
        let mut mixed = proof.clone();
        mixed.votes[2] = Vote::sign(&sk[2], VotePhase::Accept, NodeId(2), 9, 1, h);
        assert!(mixed.verify(&quorums, &vk).is_err());
    }

    #[test]
    fn stop_data_signature_covers_all_fields() {
        let (sk, vk) = keys(2);
        let batch = sample_batch();
        let sd = StopData::sign(
            &sk[0],
            NodeId(0),
            3,
            11,
            Some((2, batch.digest())),
            Some(batch.clone()),
            vec![],
            None,
        );
        assert!(sd.verify_signature(&vk[0]));
        assert!(!sd.verify_signature(&vk[1]));

        let mut tampered = sd.clone();
        tampered.cid = 12;
        assert!(!tampered.verify_signature(&vk[0]));

        let mut swapped_value = sd.clone();
        swapped_value.value = Some(Batch::empty());
        assert!(!swapped_value.verify_signature(&vk[0]));
    }

    #[test]
    fn stop_data_signature_covers_extra_slots() {
        let (sk, vk) = keys(1);
        let batch = sample_batch();
        let report = SlotReport {
            cid: 12,
            last_write: Some((0, batch.digest())),
            value: Some(batch.clone()),
            write_cert: vec![],
        };
        let sd = StopData::sign_with_slots(
            &sk[0],
            NodeId(0),
            3,
            11,
            None,
            None,
            vec![],
            vec![report],
            None,
        );
        assert!(sd.verify_signature(&vk[0]));

        // Dropping, retargeting, or value-swapping a slot report breaks
        // the signature.
        let mut dropped = sd.clone();
        dropped.extra_slots.clear();
        assert!(!dropped.verify_signature(&vk[0]));
        let mut moved = sd.clone();
        moved.extra_slots[0].cid = 13;
        assert!(!moved.verify_signature(&vk[0]));
        let mut swapped = sd.clone();
        swapped.extra_slots[0].value = Some(Batch::empty());
        assert!(!swapped.verify_signature(&vk[0]));
    }

    #[test]
    fn all_messages_roundtrip() {
        let (sk, _) = keys(1);
        let batch = sample_batch();
        let h = batch.digest();
        let vote = Vote::sign(&sk[0], VotePhase::Write, NodeId(0), 1, 0, h);
        let accept = Vote::sign(&sk[0], VotePhase::Accept, NodeId(0), 1, 0, h);
        let report = SlotReport {
            cid: 2,
            last_write: Some((0, h)),
            value: Some(batch.clone()),
            write_cert: vec![vote.clone()],
        };
        let sd = StopData::sign_with_slots(
            &sk[0],
            NodeId(0),
            1,
            1,
            None,
            None,
            vec![],
            vec![report],
            None,
        );
        let proof = DecisionProof {
            cid: 1,
            hash: h,
            votes: vec![accept.clone()],
        };
        let messages = vec![
            ConsensusMsg::Propose {
                cid: 1,
                epoch: 0,
                batch: batch.clone(),
            },
            ConsensusMsg::Write(vote),
            ConsensusMsg::Accept(accept),
            ConsensusMsg::Stop { regency: 4 },
            ConsensusMsg::StopData(sd.clone()),
            ConsensusMsg::Sync {
                regency: 4,
                collect: vec![sd],
                cid: 1,
                batch: batch.clone(),
                rebinds: vec![SlotRebind {
                    cid: 2,
                    batch: batch.clone(),
                }],
            },
            ConsensusMsg::Forward { requests: vec![] },
            ConsensusMsg::Forward {
                requests: batch.requests.clone(),
            },
            ConsensusMsg::ValueRequest { cid: 3 },
            ConsensusMsg::ValueReply {
                cid: 3,
                batch,
                proof,
            },
        ];
        for msg in messages {
            let bytes = to_bytes(&msg);
            assert_eq!(bytes.len(), msg.encoded_len());
            assert_eq!(from_bytes::<ConsensusMsg>(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn junk_discriminant_rejected() {
        assert_eq!(
            from_bytes::<ConsensusMsg>(&[99]),
            Err(WireError::InvalidDiscriminant(99))
        );
    }

    /// Seeded property loops (see `hlf_simnet::for_each_case`).
    mod properties {
        use super::*;
        use hlf_simnet::for_each_case;

        #[test]
        fn request_roundtrip() {
            for_each_case(0xc0de_0001, 64, |rng| {
                let (client, seq) = (rng.next_u64() as u32, rng.next_u64());
                let req = Request::new(ClientId(client), seq, rng.bytes(0..512));
                let bytes = to_bytes(&req);
                assert_eq!(from_bytes::<Request>(&bytes).unwrap(), req);
            });
        }

        /// The streamed digest is the digest of the materialised
        /// encoding, so proofs and log records written before the
        /// streaming still verify.
        #[test]
        fn batch_digest_matches_materialised_encoding() {
            let materialised = |batch: &Batch| {
                let mut bytes = b"hlfbft/batch/v1".to_vec();
                encode_seq(&batch.requests, &mut bytes);
                sha256(&bytes)
            };
            assert_eq!(Batch::empty().digest(), materialised(&Batch::empty()));
            for_each_case(0xc0de_0003, 64, |rng| {
                let batch = Batch::new(rng.vec(0..12, |r| {
                    // A third of the payloads are empty; the rest reach
                    // past several hash blocks.
                    let payload = if r.next_range(3) == 0 { Vec::new() } else { r.bytes(0..300) };
                    Request::new(ClientId(r.next_u64() as u32), r.next_u64(), payload)
                }));
                assert_eq!(batch.digest(), materialised(&batch));
            });
        }

        #[test]
        fn vote_signing_digest_matches_materialised_encoding() {
            for_each_case(0xc0de_0004, 64, |rng| {
                let phase = if rng.next_range(2) == 0 { VotePhase::Write } else { VotePhase::Accept };
                let (cid, epoch) = (rng.next_u64(), rng.next_u64() as u32);
                let hash = sha256(&rng.bytes(0..8));
                let node = NodeId(rng.next_u64() as u32);
                let mut bytes = phase.domain().to_vec();
                cid.encode(&mut bytes);
                epoch.encode(&mut bytes);
                hash.encode(&mut bytes);
                node.encode(&mut bytes);
                assert_eq!(Vote::signing_digest(phase, cid, epoch, &hash, node), sha256(&bytes));
            });
        }

        #[test]
        fn batch_digest_injective_on_request_count() {
            let batch_of = |k: u64| {
                Batch::new((0..k).map(|i| Request::new(ClientId(0), i, vec![0u8; 4])).collect())
            };
            for_each_case(0xc0de_0002, 64, |rng| {
                let k = rng.next_range(8);
                assert_ne!(batch_of(k).digest(), batch_of(k + 1).digest());
            });
        }
    }
}
