//! Seeded inputs: the same `--seed` gives the same envelopes, byte for byte.

use hlf_crypto::sha256::{Digest, Hash256};
use hlf_wire::Bytes;

/// Bytes of seeded noise the payloads are cut from.
const NOISE: usize = 8_192;

/// xorshift64*: the only randomness in the benchmark.
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> XorShift {
        // A zero state would stay zero; mix the seed first.
        XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// The envelope stream of one run: `envelope(seq)` is a pure function of
/// `(seed, len, seq)`, so the checker regenerates what the generator sent.
pub struct Payloads {
    noise: Vec<u8>,
    len: usize,
}

impl Payloads {
    pub fn new(seed: u64, len: usize) -> Payloads {
        assert!(
            len >= 8,
            "an envelope starts with its 8-byte sequence number"
        );
        let mut rng = XorShift::new(seed);
        let mut noise = Vec::with_capacity(NOISE + len + 8);
        while noise.len() < NOISE + len {
            noise.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        Payloads { noise, len }
    }

    /// What follows the sequence number in envelope `seq`: a window of
    /// the noise whose offset depends on `seq`.
    fn body(&self, seq: u64) -> &[u8] {
        let offset = (seq.wrapping_mul(0x9e37_79b9) % NOISE as u64) as usize;
        &self.noise[offset + 8..offset + self.len]
    }

    /// Envelope `seq`: its sequence number, then its window of the noise.
    pub fn envelope(&self, seq: u64) -> Bytes {
        let mut envelope = Vec::with_capacity(self.len);
        envelope.extend_from_slice(&seq.to_le_bytes());
        envelope.extend_from_slice(self.body(seq));
        Bytes::from(envelope)
    }

    /// Whether `bytes` is envelope `seq`, without building it.
    pub fn is_envelope(&self, seq: u64, bytes: &[u8]) -> bool {
        bytes.len() == self.len && bytes[..8] == seq.to_le_bytes() && &bytes[8..] == self.body(seq)
    }

    /// Digest of the first `count` envelopes (the self-test compares seeds).
    pub fn digest(&self, count: u64) -> Hash256 {
        let mut digest = Digest::new();
        for seq in 0..count {
            digest.update(&self.envelope(seq));
        }
        digest.finalize()
    }
}

/// The sequence number an envelope carries, if it is long enough to carry one.
pub fn seq_of(envelope: &[u8]) -> Option<u64> {
    envelope
        .get(..8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
}
