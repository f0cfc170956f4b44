//! Blocks, headers and the hash-chained ledger.
//!
//! Matches the paper's description (§5.1): a block carries a sequence
//! number, the hash of the previous block's header, and the hash of its
//! own envelopes; ordering nodes sign the header, and peers require
//! `f + 1` valid orderer signatures.

use hlf_wire::Bytes;
use hlf_crypto::ecdsa::{verify_batch, PinnedKey, Signature, SigningKey};
use hlf_crypto::sha256::{sha256_concat, sha256_many, Digest, Hash256};
use hlf_wire::{decode_seq, encode_seq, seq_encoded_len, Decode, Encode, Reader, WireError};
use std::sync::OnceLock;

/// The default channel used when an application does not partition its
/// ledger.
pub const SYSTEM_CHANNEL: &str = "system";

/// A block header: the only state the ordering nodes must carry between
/// blocks (paper §5.2: "just the sequence number of the next block and
/// the hash of the previous block"), plus the channel the block belongs
/// to — each channel is an independent hash chain (paper §3, step 4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockHeader {
    /// The channel whose chain this block extends.
    pub channel: String,
    /// Block sequence number within the channel (genesis = 0).
    pub number: u64,
    /// Hash of the previous block's header ([`Hash256::ZERO`] for the
    /// genesis block).
    pub prev_hash: Hash256,
    /// Hash of the block's envelope data.
    pub data_hash: Hash256,
}

impl BlockHeader {
    /// Canonical hash of the header — what orderers sign and what the
    /// next block chains to.
    pub fn hash(&self) -> Hash256 {
        // The domain tag and the header's wire encoding, hashed field
        // by field (the channel name is length-prefixed like any string).
        sha256_concat(&[
            b"hlfbft/block-header/v1",
            &(self.channel.len() as u32).to_le_bytes(),
            self.channel.as_bytes(),
            &self.number.to_le_bytes(),
            self.prev_hash.as_bytes(),
            self.data_hash.as_bytes(),
        ])
    }
}

impl Encode for BlockHeader {
    fn encode(&self, out: &mut Vec<u8>) {
        self.channel.encode(out);
        self.number.encode(out);
        self.prev_hash.encode(out);
        self.data_hash.encode(out);
    }

    fn encoded_len(&self) -> usize {
        self.channel.encoded_len() + 8 + 32 + 32
    }
}

impl Decode for BlockHeader {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BlockHeader {
            channel: Decode::decode(r)?,
            number: Decode::decode(r)?,
            prev_hash: Decode::decode(r)?,
            data_hash: Decode::decode(r)?,
        })
    }
}

/// An ordering node's signature over a block header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockSignature {
    /// Signing ordering node.
    pub node: u32,
    /// ECDSA signature over the header hash.
    pub signature: Signature,
}

impl Encode for BlockSignature {
    fn encode(&self, out: &mut Vec<u8>) {
        self.node.encode(out);
        self.signature.encode(out);
    }

    fn encoded_len(&self) -> usize {
        4 + 64
    }
}

impl Decode for BlockSignature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BlockSignature {
            node: Decode::decode(r)?,
            signature: Decode::decode(r)?,
        })
    }
}

/// A block: header, opaque envelopes, and orderer signatures.
#[derive(Clone)]
pub struct Block {
    /// The chained header. Treated as immutable once the block is
    /// built — see [`Block::header_hash`].
    pub header: BlockHeader,
    /// Raw envelope bytes, in decided order. The ordering service never
    /// parses these (paper step 4: "does not read the contents").
    pub envelopes: Vec<Bytes>,
    /// Orderer signatures over the header hash.
    pub signatures: Vec<BlockSignature>,
    /// Hash-once cache for the header hash; sound because nothing
    /// mutates `header` after construction.
    cached_header_hash: OnceLock<Hash256>,
}

impl PartialEq for Block {
    fn eq(&self, other: &Block) -> bool {
        self.header == other.header
            && self.envelopes == other.envelopes
            && self.signatures == other.signatures
    }
}
impl Eq for Block {}

impl std::fmt::Debug for Block {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Block")
            .field("header", &self.header)
            .field("envelopes", &self.envelopes)
            .field("signatures", &self.signatures)
            .finish()
    }
}

impl Block {
    /// Computes the data hash for a set of envelopes.
    ///
    /// It is `sha256("hlfbft/block-data/v2" ‖ n ‖ Σ len ‖
    /// sha256(envelope))`, each length a `u32` in its wire encoding: a
    /// hash over the envelopes' leaves. Every verifier calls this and
    /// hashes each envelope from its bytes; an ordering node that holds
    /// the leaves already builds with [`Block::from_leaves`] instead.
    pub fn data_hash(envelopes: &[Bytes]) -> Hash256 {
        let leaves = sha256_many(envelopes.iter().map(|envelope| &envelope[..]));
        Block::data_hash_of(envelopes.iter().map(Bytes::len).zip(leaves))
    }

    /// The data hash over `(length, leaf)` pairs.
    fn data_hash_of(leaves: impl ExactSizeIterator<Item = (usize, Hash256)>) -> Hash256 {
        let mut digest = Digest::new();
        digest.update(b"hlfbft/block-data/v2");
        digest.update(&(leaves.len() as u32).to_le_bytes());
        for (len, leaf) in leaves {
            let mut entry = [0u8; 36];
            entry[..4].copy_from_slice(&(len as u32).to_le_bytes());
            entry[4..].copy_from_slice(leaf.as_bytes());
            digest.update(&entry);
        }
        digest.finalize()
    }

    /// Builds an unsigned block on the [`SYSTEM_CHANNEL`] chaining onto
    /// `prev_hash`.
    pub fn build(number: u64, prev_hash: Hash256, envelopes: Vec<Bytes>) -> Block {
        let data_hash = Block::data_hash(&envelopes);
        Block::with_data_hash(SYSTEM_CHANNEL.into(), number, prev_hash, envelopes, data_hash)
    }

    /// Builds an unsigned block on an explicit channel from envelopes
    /// whose leaves, `sha256(envelope)` each in order, the caller
    /// computed from the same bytes: its data hash is
    /// [`Block::data_hash`] of `envelopes` without hashing them again.
    /// A wrong leaf makes a block no verifier accepts.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` and `envelopes` differ in length.
    pub fn from_leaves(
        channel: impl Into<String>,
        number: u64,
        prev_hash: Hash256,
        envelopes: Vec<Bytes>,
        leaves: &[Hash256],
    ) -> Block {
        assert_eq!(leaves.len(), envelopes.len(), "one leaf per envelope");
        let lens = envelopes.iter().map(Bytes::len);
        let data_hash = Block::data_hash_of(lens.zip(leaves.iter().copied()));
        Block::with_data_hash(channel.into(), number, prev_hash, envelopes, data_hash)
    }

    fn with_data_hash(
        channel: String,
        number: u64,
        prev_hash: Hash256,
        envelopes: Vec<Bytes>,
        data_hash: Hash256,
    ) -> Block {
        Block {
            header: BlockHeader {
                channel,
                number,
                prev_hash,
                data_hash,
            },
            envelopes,
            signatures: Vec::new(),
            cached_header_hash: OnceLock::new(),
        }
    }

    /// The header hash, computed once per block (hash-once): every
    /// signer, verifier and chain link hashes the same header exactly
    /// one time.
    ///
    /// The cache is sound as long as `header` is not mutated after the
    /// block is built; nothing in this workspace does, and external
    /// callers who do must not reuse the block afterwards.
    pub fn header_hash(&self) -> Hash256 {
        *self.cached_header_hash.get_or_init(|| self.header.hash())
    }

    /// Signs the header with an orderer key, appending the signature:
    /// [`Block::sign_group`] of one.
    pub fn sign(&mut self, node: u32, key: &SigningKey) {
        Block::sign_group(std::slice::from_mut(self), node, key);
    }

    /// Signs the header of every block of `blocks` with one orderer key
    /// as one group ([`SigningKey::sign_digests`]: the group shares its
    /// two inversions), appending to each block the signature
    /// [`Block::sign`] would.
    pub fn sign_group(blocks: &mut [Block], node: u32, key: &SigningKey) {
        let hashes: Vec<Hash256> = blocks.iter().map(Block::header_hash).collect();
        for (block, signature) in blocks.iter_mut().zip(key.sign_digests(&hashes)) {
            block.signatures.push(BlockSignature { node, signature });
        }
    }

    /// Counts valid signatures from distinct known orderers, verified
    /// as one batch.
    pub fn valid_signatures(&self, orderer_keys: &[PinnedKey]) -> usize {
        let header_hash = self.header_hash();
        let (nodes, signed): (Vec<u32>, Vec<_>) = self
            .signatures
            .iter()
            .filter_map(|s| {
                let key = orderer_keys.get(s.node as usize)?;
                Some((s.node, (key, header_hash, s.signature)))
            })
            .unzip();
        let mut seen = std::collections::HashSet::new();
        nodes
            .into_iter()
            .zip(verify_batch(&signed))
            .filter(|(node, verdict)| verdict.is_ok() && seen.insert(*node))
            .count()
    }

    /// Checks internal consistency: data hash matches envelopes.
    pub fn data_consistent(&self) -> bool {
        Block::data_hash(&self.envelopes) == self.header.data_hash
    }

    /// Exact serialized size in bytes.
    pub fn wire_size(&self) -> usize {
        self.encoded_len()
    }
}

impl Encode for Block {
    fn encode(&self, out: &mut Vec<u8>) {
        self.header.encode(out);
        encode_seq(&self.envelopes, out);
        encode_seq(&self.signatures, out);
    }

    fn encoded_len(&self) -> usize {
        self.header.encoded_len()
            + seq_encoded_len(&self.envelopes)
            + seq_encoded_len(&self.signatures)
    }
}

impl Decode for Block {
    /// Decoding out of a shared buffer (see [`Reader::for_shared`])
    /// makes every envelope a zero-copy view of the input frame.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Block {
            header: Decode::decode(r)?,
            envelopes: decode_seq(r)?,
            signatures: decode_seq(r)?,
            cached_header_hash: OnceLock::new(),
        })
    }
}

/// Error appending a block to a ledger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LedgerError {
    /// Block number is not `last + 1`.
    WrongNumber {
        /// Number the ledger expected.
        expected: u64,
        /// Number the block carried.
        got: u64,
    },
    /// `prev_hash` does not match the previous header's hash.
    BrokenChain,
    /// `data_hash` does not cover the envelopes.
    BadDataHash,
    /// Fewer valid orderer signatures than required.
    InsufficientSignatures {
        /// Signatures required.
        needed: usize,
        /// Valid signatures found.
        got: usize,
    },
    /// Block belongs to a different channel than this ledger.
    WrongChannel {
        /// Channel this ledger tracks.
        expected: String,
        /// Channel the block named.
        got: String,
    },
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::WrongNumber { expected, got } => {
                write!(f, "expected block {expected}, got {got}")
            }
            LedgerError::BrokenChain => f.write_str("previous-hash chain broken"),
            LedgerError::BadDataHash => f.write_str("data hash does not cover envelopes"),
            LedgerError::InsufficientSignatures { needed, got } => {
                write!(f, "need {needed} orderer signatures, got {got}")
            }
            LedgerError::WrongChannel { expected, got } => {
                write!(f, "block for channel {got}, ledger tracks {expected}")
            }
        }
    }
}

impl std::error::Error for LedgerError {}

/// The per-channel hash-chained block store kept by committing peers.
#[derive(Clone, Debug)]
pub struct Ledger {
    channel: String,
    blocks: Vec<Block>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger::new()
    }
}

impl Ledger {
    /// An empty [`SYSTEM_CHANNEL`] ledger (next block is number 1;
    /// number 0 is reserved for a genesis/config block in Fabric, which
    /// we model implicitly).
    pub fn new() -> Ledger {
        Ledger::for_channel(SYSTEM_CHANNEL)
    }

    /// An empty ledger for an explicit channel.
    pub(crate) fn for_channel(channel: impl Into<String>) -> Ledger {
        Ledger {
            channel: channel.into(),
            blocks: Vec::new(),
        }
    }

    /// The channel this ledger tracks.
    pub fn channel(&self) -> &str {
        &self.channel
    }

    /// Number of blocks.
    pub fn height(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// The hash the next block must chain to.
    pub fn tip_hash(&self) -> Hash256 {
        self.blocks
            .last()
            .map(|b| b.header_hash())
            .unwrap_or(Hash256::ZERO)
    }

    /// Next expected block number.
    pub fn next_number(&self) -> u64 {
        self.blocks.last().map(|b| b.header.number + 1).unwrap_or(1)
    }

    /// Reads a block by number.
    pub fn block(&self, number: u64) -> Option<&Block> {
        self.blocks.iter().find(|b| b.header.number == number)
    }

    /// All blocks in order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Validates chaining, data hash and signatures, then appends.
    ///
    /// # Errors
    ///
    /// Returns a [`LedgerError`] describing the first violated check.
    pub fn append(
        &mut self,
        block: Block,
        orderer_keys: &[PinnedKey],
        needed_signatures: usize,
    ) -> Result<(), LedgerError> {
        if block.header.channel != self.channel {
            return Err(LedgerError::WrongChannel {
                expected: self.channel.clone(),
                got: block.header.channel.clone(),
            });
        }
        if block.header.number != self.next_number() {
            return Err(LedgerError::WrongNumber {
                expected: self.next_number(),
                got: block.header.number,
            });
        }
        if block.header.prev_hash != self.tip_hash() {
            return Err(LedgerError::BrokenChain);
        }
        if !block.data_consistent() {
            return Err(LedgerError::BadDataHash);
        }
        let got = block.valid_signatures(orderer_keys);
        if got < needed_signatures {
            return Err(LedgerError::InsufficientSignatures {
                needed: needed_signatures,
                got,
            });
        }
        self.blocks.push(block);
        Ok(())
    }

    /// Full-chain integrity scan (used after state transfer and in
    /// property tests).
    pub fn verify_chain(&self) -> bool {
        let mut prev = Hash256::ZERO;
        let mut number = None::<u64>;
        for block in &self.blocks {
            if block.header.prev_hash != prev || !block.data_consistent() {
                return false;
            }
            if let Some(n) = number {
                if block.header.number != n + 1 {
                    return false;
                }
            }
            number = Some(block.header.number);
            prev = block.header_hash();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> (Vec<SigningKey>, Vec<PinnedKey>) {
        let sk: Vec<SigningKey> = (0..n)
            .map(|i| SigningKey::from_seed(format!("orderer-{i}").as_bytes()))
            .collect();
        let vk = sk.iter().map(|k| PinnedKey::new(*k.verifying_key())).collect();
        (sk, vk)
    }

    fn envelopes(tag: u8, count: usize) -> Vec<Bytes> {
        (0..count)
            .map(|i| Bytes::from(vec![tag, i as u8, 0, 1, 2]))
            .collect()
    }

    #[test]
    fn header_hash_chains_blocks() {
        let b1 = Block::build(1, Hash256::ZERO, envelopes(1, 3));
        let b2 = Block::build(2, b1.header_hash(), envelopes(2, 3));
        assert_eq!(b2.header.prev_hash, b1.header_hash());
        assert_ne!(b1.header_hash(), b2.header.hash());
    }

    #[test]
    fn data_hash_covers_envelope_boundaries() {
        // ["ab", "c"] and ["a", "bc"] must hash differently.
        let a = Block::data_hash(&[Bytes::from_static(b"ab"), Bytes::from_static(b"c")]);
        let b = Block::data_hash(&[Bytes::from_static(b"a"), Bytes::from_static(b"bc")]);
        assert_ne!(a, b);
    }

    #[test]
    fn signature_counting_rejects_forgeries_and_duplicates() {
        let (sk, vk) = keys(4);
        let mut block = Block::build(1, Hash256::ZERO, envelopes(0, 2));
        block.sign(0, &sk[0]);
        block.sign(1, &sk[1]);
        assert_eq!(block.valid_signatures(&vk), 2);

        // Duplicate signer counts once.
        block.sign(0, &sk[0]);
        assert_eq!(block.valid_signatures(&vk), 2);

        // A signature claiming the wrong node id fails verification.
        block.sign(3, &sk[2]);
        assert_eq!(block.valid_signatures(&vk), 2);

        // Unknown node id is ignored.
        block.sign(99, &sk[2]);
        assert_eq!(block.valid_signatures(&vk), 2);
    }

    #[test]
    fn ledger_append_enforces_all_checks() {
        let (sk, vk) = keys(4);
        let mut ledger = Ledger::new();
        let mut b1 = Block::build(1, Hash256::ZERO, envelopes(1, 2));
        b1.sign(0, &sk[0]);
        b1.sign(1, &sk[1]);

        // Not enough signatures.
        assert_eq!(
            ledger.append(b1.clone(), &vk, 3),
            Err(LedgerError::InsufficientSignatures { needed: 3, got: 2 })
        );
        ledger.append(b1.clone(), &vk, 2).unwrap();
        assert_eq!(ledger.height(), 1);

        // Wrong number.
        let mut wrong_number = Block::build(5, b1.header_hash(), envelopes(2, 1));
        wrong_number.sign(0, &sk[0]);
        wrong_number.sign(1, &sk[1]);
        assert_eq!(
            ledger.append(wrong_number, &vk, 2),
            Err(LedgerError::WrongNumber { expected: 2, got: 5 })
        );

        // Broken chain.
        let mut broken = Block::build(2, Hash256::ZERO, envelopes(2, 1));
        broken.sign(0, &sk[0]);
        broken.sign(1, &sk[1]);
        assert_eq!(ledger.append(broken, &vk, 2), Err(LedgerError::BrokenChain));

        // Tampered data.
        let mut tampered = Block::build(2, b1.header_hash(), envelopes(2, 1));
        tampered.sign(0, &sk[0]);
        tampered.sign(1, &sk[1]);
        tampered.envelopes[0] = Bytes::from_static(b"evil");
        assert_eq!(ledger.append(tampered, &vk, 2), Err(LedgerError::BadDataHash));

        // A good block appends.
        let mut b2 = Block::build(2, b1.header_hash(), envelopes(2, 1));
        b2.sign(2, &sk[2]);
        b2.sign(3, &sk[3]);
        ledger.append(b2, &vk, 2).unwrap();
        assert!(ledger.verify_chain());
        assert_eq!(ledger.next_number(), 3);
        assert!(ledger.block(2).is_some());
        assert!(ledger.block(9).is_none());
    }

    #[test]
    fn block_roundtrip() {
        let (sk, _) = keys(1);
        let mut block = Block::build(7, Hash256::ZERO, envelopes(9, 4));
        block.sign(0, &sk[0]);
        let bytes = hlf_wire::to_bytes(&block);
        assert_eq!(hlf_wire::from_bytes::<Block>(&bytes).unwrap(), block);
        assert_eq!(block.wire_size(), bytes.len(), "wire_size is exact");
    }

    #[test]
    fn header_hash_memo_matches_recompute() {
        let block = Block::build(3, Hash256::ZERO, envelopes(1, 2));
        assert_eq!(block.header_hash(), block.header.hash());
        // Memo survives cloning and repeated calls.
        let clone = block.clone();
        assert_eq!(clone.header_hash(), block.header.hash());
    }

    #[test]
    fn shared_decode_yields_envelope_views() {
        let block = Block::build(2, Hash256::ZERO, envelopes(5, 3));
        let frame = Bytes::from(hlf_wire::to_bytes(&block));
        let decoded: Block = hlf_wire::from_bytes_shared(&frame).unwrap();
        assert_eq!(decoded, block);
        // Each decoded envelope is a view of the frame, not a copy:
        // slicing the frame at the same offset shares storage.
        let mut offset = block.header.encoded_len() + 4;
        for envelope in &decoded.envelopes {
            offset += 4;
            assert!(envelope.shares_storage_with(&frame.slice(offset..offset + envelope.len())));
            offset += envelope.len();
        }
    }

    #[test]
    fn forged_chain_detected_by_scan() {
        let (sk, vk) = keys(2);
        let mut ledger = Ledger::new();
        let mut b1 = Block::build(1, Hash256::ZERO, envelopes(1, 1));
        b1.sign(0, &sk[0]);
        ledger.append(b1, &vk, 1).unwrap();
        assert!(ledger.verify_chain());
        // Directly tamper with the stored block (simulating storage
        // corruption): the scan catches it.
        ledger.blocks[0].envelopes[0] = Bytes::from_static(b"tampered");
        assert!(!ledger.verify_chain());
    }

    /// Seeded property loops (see `hlf_simnet::for_each_case`).
    mod properties {
        use super::*;
        use hlf_crypto::sha256::sha256;
        use hlf_simnet::{for_each_case, SimRng};

        /// The field-by-field header hash is the hash of the domain tag
        /// and the header's wire encoding, as it was when the encoding
        /// was built first: signatures over stored blocks still verify.
        #[test]
        fn header_hash_matches_materialised_encoding() {
            for_each_case(0xb10c_0002, 64, |rng| {
                let header = BlockHeader {
                    channel: "c".repeat(rng.next_in(0..80)),
                    number: rng.next_u64(),
                    prev_hash: sha256(&rng.bytes(0..8)),
                    data_hash: sha256(&rng.bytes(0..8)),
                };
                let mut bytes = b"hlfbft/block-header/v1".to_vec();
                header.encode(&mut bytes);
                assert_eq!(header.hash(), sha256(&bytes));
            });
        }

        /// `data_hash` is the hash of its v2 domain tag, the envelope
        /// count, and each envelope's length and hash in their wire
        /// encoding; a block built from the same leaves carries it.
        #[test]
        fn data_hash_matches_materialised_encoding() {
            for_each_case(0xb10c_0003, 64, |rng| {
                let envelopes = rng.vec(0..40, |r| Bytes::from(r.bytes(0..200)));
                let mut bytes = b"hlfbft/block-data/v2".to_vec();
                (envelopes.len() as u32).encode(&mut bytes);
                for envelope in &envelopes {
                    (envelope.len() as u32).encode(&mut bytes);
                    sha256(envelope).encode(&mut bytes);
                }
                assert_eq!(Block::data_hash(&envelopes), sha256(&bytes));
                let leaves: Vec<Hash256> = envelopes.iter().map(|e| sha256(e)).collect();
                let block = Block::from_leaves("c", 1, Hash256::ZERO, envelopes, &leaves);
                assert_eq!(block.header.data_hash, sha256(&bytes));
                assert!(block.data_consistent());
            });
        }

        #[test]
        fn data_hash_injective_on_structure() {
            let envelopes =
                |rng: &mut SimRng| rng.vec(0..8, |r| Bytes::from(r.bytes(0..32)));
            for_each_case(0xb10c_0001, 64, |rng| {
                let a = envelopes(rng);
                // Half the cases compare a list with itself, so both
                // sides of the equivalence are exercised.
                let b = if rng.next_range(2) == 0 { a.clone() } else { envelopes(rng) };
                assert_eq!(Block::data_hash(&a) == Block::data_hash(&b), a == b);
            });
        }
    }
}
