//! The correctness checker: what one frontend was delivered must be one
//! hash chain holding every submitted envelope exactly once, in order,
//! byte for byte, under a quorum of orderer signatures.
//!
//! What costs next to nothing runs on every block as it arrives: numbering,
//! `prev_hash`, distinct signers, and every envelope's sequence number and
//! bytes against what the generator made. What costs more than ordering
//! does runs after timing stops: the data hash of every block, recomputed
//! from the generator's bytes, and ECDSA verification of the signatures.
//! One verification takes as long as ordering eight small envelopes, so
//! signatures are verified on a sample only, the block holding every
//! `stride`-th envelope; the stride and the counts are printed with the
//! result.

use crate::gen::{seq_of, Payloads};
use hlf_crypto::ecdsa::VerifyingKey;
use hlf_crypto::sha256::Hash256;
use hlf_fabric::block::{Block, BlockSignature};
use hlf_wire::Bytes;
use std::collections::BTreeSet;

/// Blocks per run whose signatures are verified after timing, shared
/// among the frontends (about 3.5 signatures a block, 0.25 ms each: a
/// second of one core).
const SIGNED_BLOCKS: u64 = 1_200;

/// Every how many envelopes a block's signatures are kept and verified,
/// for a run expected to deliver `envelopes` to each of `frontends`. It
/// counts envelopes, not blocks, because the node also cuts a block where
/// a consensus batch ends, so blocks may be smaller than the block size.
pub fn signature_stride(envelopes: u64, frontends: usize) -> u64 {
    (envelopes * frontends as u64)
        .div_ceil(SIGNED_BLOCKS)
        .max(1)
}

/// What is kept of every delivered block for the after-timing checks.
struct Seen {
    header_hash: Hash256,
    data_hash: Hash256,
    envelopes: u32,
}

/// How many signatures the after-timing check verified, on how many blocks.
#[derive(Default)]
pub struct Verified {
    pub signed_blocks: u64,
    pub signatures: u64,
}

impl Verified {
    pub fn plus(self, other: Verified) -> Verified {
        Verified {
            signed_blocks: self.signed_blocks + other.signed_blocks,
            signatures: self.signatures + other.signatures,
        }
    }
}

/// The chain one frontend has been delivered so far.
pub struct Chain<'a> {
    payloads: &'a Payloads,
    quorum: usize,
    /// Signatures are kept and verified on the block that holds every
    /// `stride`-th envelope.
    pub stride: u64,
    next_number: u64,
    prev_hash: Hash256,
    /// Envelopes delivered in order so far = the next sequence number expected.
    pub delivered: u64,
    blocks: Vec<Seen>,
    /// Block number and signatures of the sampled blocks.
    signed: Vec<(u64, Vec<BlockSignature>)>,
    /// The first violation seen; later blocks are still counted.
    pub violation: Option<String>,
}

impl<'a> Chain<'a> {
    /// `quorum` = distinct orderer signatures each block must carry (2f+1).
    pub fn new(payloads: &'a Payloads, quorum: usize, stride: u64) -> Chain<'a> {
        Chain {
            payloads,
            quorum,
            stride,
            next_number: 1,
            prev_hash: Hash256::ZERO,
            delivered: 0,
            blocks: Vec::new(),
            signed: Vec::new(),
            violation: None,
        }
    }

    pub fn blocks(&self) -> usize {
        self.blocks.len()
    }

    fn violate(&mut self, number: u64, what: String) {
        if self.violation.is_none() {
            let block = self.blocks.get(number.wrapping_sub(1) as usize);
            self.violation = Some(format!(
                "block {number} ({} envelopes, header hash {}): {what}",
                block.map_or(0, |b| b.envelopes),
                block.map_or_else(|| "?".into(), |b| b.header_hash.to_hex()),
            ));
        }
    }

    /// Takes the next delivered block. Returns how many envelopes it
    /// advanced the in-order frontier by (0 for a block that breaks order).
    pub fn accept(&mut self, block: &Block) -> u64 {
        let number = self.next_number;
        self.blocks.push(Seen {
            header_hash: block.header_hash(),
            data_hash: block.header.data_hash,
            envelopes: block.envelopes.len() as u32,
        });
        if block.header.number != number {
            let got = block.header.number;
            self.violate(number, format!("carries block number {got}"));
        }
        if block.header.prev_hash != self.prev_hash {
            let prev = block.header.prev_hash.to_hex();
            self.violate(
                number,
                format!("prev_hash {prev} is not the hash of the block before it"),
            );
        }
        let signers: BTreeSet<u32> = block.signatures.iter().map(|s| s.node).collect();
        if signers.len() < self.quorum {
            self.violate(
                number,
                format!("{} distinct signers, need {}", signers.len(), self.quorum),
            );
        }
        let mut advanced = 0;
        for envelope in &block.envelopes {
            let expected = self.delivered + advanced;
            if seq_of(envelope) != Some(expected) {
                let seq = seq_of(envelope);
                self.violate(
                    number,
                    format!("envelope carries sequence {seq:?}, expected {expected}"),
                );
                break;
            }
            if !self.payloads.is_envelope(expected, envelope) {
                self.violate(
                    number,
                    format!("envelope {expected} is not the submitted bytes"),
                );
                break;
            }
            advanced += 1;
        }
        // The envelope sequences stride, 2 x stride, ... pick the sample.
        if (self.delivered + advanced) / self.stride > self.delivered / self.stride {
            self.signed.push((number, block.signatures.clone()));
        }
        self.delivered += advanced;
        self.next_number = number + 1;
        self.prev_hash = block.header_hash();
        advanced
    }

    /// After timing: every block's data hash is the hash of the envelopes
    /// the generator made for it (their bytes were compared on arrival, so
    /// this is `data_consistent()` for every block without keeping any).
    pub fn verify_data_hashes(&mut self) -> u64 {
        let mut seq = 0u64;
        let mut bad = None;
        for (i, block) in self.blocks.iter().enumerate() {
            let envelopes: Vec<Bytes> = (seq..seq + block.envelopes as u64)
                .map(|s| self.payloads.envelope(s))
                .collect();
            seq += block.envelopes as u64;
            if bad.is_none() && Block::data_hash(&envelopes) != block.data_hash {
                bad = Some(i as u64 + 1);
            }
        }
        if let Some(number) = bad {
            self.violate(number, "data_hash does not cover the envelopes".into());
        }
        self.blocks.len() as u64
    }

    /// After timing: on every sampled block a quorum of distinct orderers'
    /// signatures over the header hash verifies.
    pub fn verify_signatures(&mut self, keys: &[VerifyingKey]) -> Verified {
        let mut verified = Verified::default();
        for (number, signatures) in std::mem::take(&mut self.signed) {
            let header_hash = self.blocks[number as usize - 1].header_hash;
            let valid: BTreeSet<u32> = signatures
                .iter()
                .filter(|s| {
                    keys.get(s.node as usize)
                        .is_some_and(|key| key.verify_digest(&header_hash, &s.signature).is_ok())
                })
                .map(|s| s.node)
                .collect();
            verified.signed_blocks += 1;
            verified.signatures += signatures.len() as u64;
            if valid.len() < self.quorum {
                self.violate(
                    number,
                    format!(
                        "{} valid orderer signatures, need {}",
                        valid.len(),
                        self.quorum
                    ),
                );
            }
        }
        verified
    }

    /// A receive-only frontend must have seen the submitter's chain, block
    /// for block.
    pub fn same_chain_as(&self, other: &Chain) -> Result<(), String> {
        if self.blocks.len() != other.blocks.len() {
            return Err(format!(
                "{} blocks against the submitter's {}",
                self.blocks.len(),
                other.blocks.len()
            ));
        }
        match self
            .blocks
            .iter()
            .zip(&other.blocks)
            .position(|(a, b)| a.header_hash != b.header_hash)
        {
            Some(i) => Err(format!("block {} differs from the submitter's", i + 1)),
            None => Ok(()),
        }
    }
}
