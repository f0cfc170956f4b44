//! FIPS 180-4 SHA-256, one-shot and incremental.

use std::fmt;

/// A 256-bit hash value.
///
/// Used throughout the workspace for block hashes, header chains and
/// transaction identifiers.
///
/// # Examples
///
/// ```
/// use hlf_crypto::sha256::{sha256, Hash256};
///
/// let h: Hash256 = sha256(b"abc");
/// assert_eq!(
///     h.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// assert_eq!(Hash256::from_hex(&h.to_hex()).unwrap(), h);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Hash256(pub [u8; 32]);

impl Hash256 {
    /// The all-zero hash, used as the "previous hash" of genesis blocks.
    pub const ZERO: Hash256 = Hash256([0u8; 32]);

    /// Returns the lowercase hex encoding of the hash.
    pub fn to_hex(&self) -> String {
        crate::hex::encode(&self.0)
    }

    /// Parses a 64-character hex string.
    ///
    /// # Errors
    ///
    /// Returns `None` if the string is not exactly 64 hex characters.
    pub fn from_hex(s: &str) -> Option<Hash256> {
        let bytes = crate::hex::decode(s)?;
        let arr: [u8; 32] = bytes.try_into().ok()?;
        Some(Hash256(arr))
    }

    /// Views the hash as a byte slice.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Returns `true` if every byte is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 32]
    }
}

impl fmt::Debug for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash256({}..)", &self.to_hex()[..16])
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Hash256 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Hash256 {
    fn from(bytes: [u8; 32]) -> Self {
        Hash256(bytes)
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use hlf_crypto::sha256::{sha256, Digest};
///
/// let mut d = Digest::new();
/// d.update(b"hello ");
/// d.update(b"world");
/// assert_eq!(d.finalize(), sha256(b"hello world"));
/// ```
#[derive(Clone)]
pub struct Digest {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Digest")
            .field("total_len", &self.total_len)
            .finish()
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// Creates a fresh hasher.
    pub fn new() -> Digest {
        Digest {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    #[expect(clippy::indexing_slicing, reason = "`take ≤ 64 - buffered` and `tail.len() < 64` keep every range inside the 64-byte buffer")]
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(rest.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        // Every whole block of the caller's slice goes to the compress
        // function in one run, uncopied.
        let (blocks, tail) = rest.split_at(rest.len() & !63);
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Finishes the hash and returns the digest, consuming the hasher.
    #[expect(clippy::indexing_slicing, reason = "`buffered < 64` between calls, so the pad byte and the tail ranges lie inside the 64-byte buffer")]
    pub fn finalize(mut self) -> Hash256 {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 8-byte big-endian bit length.
        self.buffer[self.buffered] = 0x80;
        self.buffer[self.buffered + 1..].fill(0);
        if self.buffered >= 56 {
            // Fewer than 8 bytes remain: the length goes in a block of
            // its own.
            compress_blocks(&mut self.state, &self.buffer);
            self.buffer.fill(0);
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &self.buffer);
        state_hash(&self.state)
    }
}

/// The digest a final state stands for: its eight words, big-endian.
fn state_hash(state: &[u32; 8]) -> Hash256 {
    let mut out = [0u8; 32];
    for (word, bytes) in state.iter().zip(out.chunks_exact_mut(4)) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    Hash256(out)
}

/// Runs the compression function over `data`, a whole number of
/// 64-byte blocks, updating `state`.
///
/// Two implementations, chosen from CPUID at run time: the SHA
/// extension's ([`shani`]) where the processor has it, the portable
/// [`compress_blocks_scalar`] everywhere else.
fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
    debug_assert_eq!(data.len() % 64, 0);
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        // SAFETY: `available()` just confirmed that this processor has
        // every target feature `shani::compress_blocks` is compiled with.
        unsafe { shani::compress_blocks(state, data) }
        return;
    }
    compress_blocks_scalar(state, data);
}

/// Which of the two [`compress_blocks`] implementations CPUID selects on
/// this host: `"sha-ni"` or `"scalar"`. For logs and benchmark output;
/// nothing branches on it.
pub fn compress_backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        return "sha-ni";
    }
    "scalar"
}

/// The portable compression loop, and the reference the tests hold the
/// hardware one against.
fn compress_blocks_scalar(state: &mut [u32; 8], data: &[u8]) {
    for block in data.as_chunks::<64>().0 {
        compress(state, block);
    }
}

#[expect(clippy::expect_used, clippy::indexing_slicing, reason = "schedule indices are `< 64` over `[u32; 64]`; `chunks_exact(4)` yields exact 4-byte chunks")]
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// SHA-256 compression with the x86 SHA extension (`sha256rnds2`,
/// `sha256msg1`, `sha256msg2`): the eight state words stay in two
/// registers across all the blocks of a call.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// Whether this processor runs [`compress_blocks`]. `std` caches
    /// CPUID, so this is a load and a mask.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Four message words from 16 message bytes (big-endian words, the
    /// first in lane 0).
    #[inline]
    #[target_feature(enable = "sse2,ssse3")]
    fn load_words(bytes: &[u8; 16]) -> __m128i {
        let big_endian = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: `bytes` is a reference to 16 readable bytes, and
        // `_mm_loadu_si128` asks no alignment of its pointer.
        unsafe { _mm_shuffle_epi8(_mm_loadu_si128(bytes.as_ptr().cast()), big_endian) }
    }

    /// Four round constants, `K[4 * group..][..4]`, the first in lane 0.
    #[expect(clippy::indexing_slicing, reason = "callers pass `group < 16`, so `4 * group + 3 < 64`, the length of `K`")]
    #[inline]
    #[target_feature(enable = "sse2")]
    fn round_constants(group: usize) -> __m128i {
        let k = |i: usize| K[4 * group + i] as i32;
        _mm_set_epi32(k(3), k(2), k(1), k(0))
    }

    /// The compression function over every whole 64-byte block of
    /// `data` (a trailing partial block is not read).
    ///
    /// Safe to call only where the processor has `sha`, `sse2`, `ssse3`
    /// and `sse4.1` ([`available`]); the compiler makes every other
    /// caller say so in an `unsafe` block.
    #[expect(clippy::indexing_slicing, reason = "`as_chunks::<16>` of a 64-byte block has 4 elements; `% 4` keeps the ring indices inside `[__m128i; 4]`")]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
        let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
        // The layout `sha256rnds2` works on: {a, b, e, f} and
        // {c, d, g, h}, the first-named word in the highest lane.
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);

        for block in data.as_chunks::<64>().0 {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let quarters = block.as_chunks::<16>().0;
            let mut w = [
                load_words(&quarters[0]),
                load_words(&quarters[1]),
                load_words(&quarters[2]),
                load_words(&quarters[3]),
            ];
            // Sixteen groups of four rounds. `w` is a ring of the last
            // sixteen schedule words; from group 4 on the oldest four
            // are replaced by the next four before they are used.
            for group in 0..16 {
                if group >= 4 {
                    let (w0, w1) = (w[group % 4], w[(group + 1) % 4]);
                    let (w2, w3) = (w[(group + 2) % 4], w[(group + 3) % 4]);
                    // w[t] = σ1(w[t-2]) + w[t-7] + σ0(w[t-15]) + w[t-16]:
                    // msg1 adds σ0, alignr picks w[t-7], msg2 adds σ1.
                    let partial =
                        _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
                    w[group % 4] = _mm_sha256msg2_epu32(partial, w3);
                }
                let wk = _mm_add_epi32(w[group % 4], round_constants(group));
                // Two rounds per instruction, on the low two lanes.
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        *state = [
            _mm_extract_epi32(abef, 3),
            _mm_extract_epi32(abef, 2),
            _mm_extract_epi32(cdgh, 3),
            _mm_extract_epi32(cdgh, 2),
            _mm_extract_epi32(abef, 1),
            _mm_extract_epi32(abef, 0),
            _mm_extract_epi32(cdgh, 1),
            _mm_extract_epi32(cdgh, 0),
        ]
        .map(|word| word as u32);
    }
}

/// One-shot SHA-256 of `data`.
///
/// # Examples
///
/// ```
/// use hlf_crypto::sha256::sha256;
///
/// let empty = sha256(b"");
/// assert_eq!(
///     empty.to_hex(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Hash256 {
    let mut d = Digest::new();
    d.update(data);
    d.finalize()
}

/// SHA-256 over the concatenation of several byte strings, without
/// materializing the concatenation.
pub fn sha256_concat(parts: &[&[u8]]) -> Hash256 {
    let mut d = Digest::new();
    for p in parts {
        d.update(p);
    }
    d.finalize()
}

/// One-shot SHA-256 by the portable compression function alone,
/// whatever the processor offers, with its own padding: the reference
/// the tests hold [`sha256`] against.
#[cfg(test)]
pub fn sha256_reference(data: &[u8]) -> Hash256 {
    let mut state = H0;
    let (blocks, tail) = data.split_at(data.len() & !63);
    compress_blocks_scalar(&mut state, blocks);
    // The tail, 0x80, zeros and the bit length: one block, or two when
    // fewer than 8 bytes remain after the pad byte.
    let mut last = [0u8; 128];
    last[..tail.len()].copy_from_slice(tail);
    last[tail.len()] = 0x80;
    let end = if tail.len() < 56 { 64 } else { 128 };
    last[end - 8..end].copy_from_slice(&(data.len() as u64).wrapping_mul(8).to_be_bytes());
    compress_blocks_scalar(&mut state, &last[..end]);
    state_hash(&state)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Says which compress the dispatcher picked, so a log of a host
    /// without the extension shows the differential tests compared the
    /// scalar code with itself.
    fn announce_dispatch() {
        eprintln!(
            "sha256: dispatched compress is {}, reference is scalar",
            compress_backend()
        );
    }

    /// NIST FIPS 180-4 / common test vectors, through both compress
    /// implementations.
    #[test]
    fn nist_vectors() {
        announce_dispatch();
        let cases: [(&[u8], &str); 5] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                b"The quick brown fox jumps over the lazy dog",
                "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(sha256(input).to_hex(), expected);
            assert_eq!(sha256_reference(input).to_hex(), expected);
        }
    }

    #[test]
    fn million_a() {
        const EXPECTED: &str = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        let mut d = Digest::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            d.update(&chunk);
        }
        assert_eq!(d.finalize().to_hex(), EXPECTED);
        assert_eq!(sha256_reference(&vec![b'a'; 1_000_000]).to_hex(), EXPECTED);
    }

    /// Every message length around the two padding boundaries (55/56
    /// and 63/64 bytes buffered), where `finalize` switches between one
    /// and two closing blocks.
    #[test]
    fn padding_boundaries_match_scalar() {
        let data: Vec<u8> = (0..200u8).collect();
        for len in 0..=data.len() {
            assert_eq!(
                sha256(&data[..len]),
                sha256_reference(&data[..len]),
                "length {len}"
            );
        }
    }

    /// Seeded property loops (see `hlf_simnet::for_each_case`).
    mod properties {
        use super::*;
        use hlf_simnet::for_each_case;

        /// The dispatched compress and the scalar one, called directly:
        /// same state in, same blocks (at an unaligned address), same
        /// state out.
        #[test]
        fn dispatched_compress_matches_scalar() {
            announce_dispatch();
            for_each_case(0x5a25_0001, 64, |rng| {
                let offset = rng.next_in(0..16);
                let blocks = rng.next_in(0..40);
                let mut backing = vec![0u8; offset + blocks * 64];
                rng.fill_bytes(&mut backing);
                let data = &backing[offset..];
                let mut dispatched = H0.map(|word| word ^ rng.next_u64() as u32);
                let mut scalar = dispatched;
                compress_blocks(&mut dispatched, data);
                compress_blocks_scalar(&mut scalar, data);
                assert_eq!(dispatched, scalar, "{blocks} blocks at offset {offset}");
            });
        }

        /// Whole digests: random lengths up to 70 000 bytes, fed from an
        /// unaligned offset in random pieces, against the scalar
        /// reference.
        #[test]
        fn digest_matches_scalar_for_any_split() {
            for_each_case(0x5a25_0002, 64, |rng| {
                let offset = rng.next_in(0..16);
                // Half the cases stay small, where buffering and padding
                // are most of the work.
                let len = if rng.next_range(2) == 0 {
                    rng.next_in(0..300)
                } else {
                    rng.next_in(0..70_001)
                };
                let mut backing = vec![0u8; offset + len];
                rng.fill_bytes(&mut backing);
                let data = &backing[offset..];
                let reference = sha256_reference(data);
                assert_eq!(sha256(data), reference, "one shot, length {len}");

                let mut digest = Digest::new();
                let mut rest = data;
                while !rest.is_empty() {
                    let piece = match rng.next_range(3) {
                        0 => rng.next_in(0..4),
                        1 => rng.next_in(0..130),
                        _ => rng.next_in(0..rest.len() + 1),
                    }
                    .min(rest.len());
                    digest.update(&rest[..piece]);
                    rest = &rest[piece..];
                }
                assert_eq!(digest.finalize(), reference, "split, length {len}");
            });
        }
    }

    #[test]
    fn incremental_matches_oneshot_across_boundaries() {
        let data: Vec<u8> = (0..300u16).map(|i| (i % 251) as u8).collect();
        let reference = sha256(&data);
        for split1 in [0, 1, 55, 56, 63, 64, 65, 127, 128, 200] {
            for split2 in [split1, split1 + 1, 250, 299] {
                if split2 < split1 || split2 > data.len() {
                    continue;
                }
                let mut d = Digest::new();
                d.update(&data[..split1]);
                d.update(&data[split1..split2]);
                d.update(&data[split2..]);
                assert_eq!(d.finalize(), reference, "splits {split1}/{split2}");
            }
        }
    }

    #[test]
    fn concat_matches_oneshot() {
        let a = b"block header";
        let b = b" and payload";
        let mut joined = a.to_vec();
        joined.extend_from_slice(b);
        assert_eq!(sha256_concat(&[a, b]), sha256(&joined));
    }

    #[test]
    fn hash256_hex_roundtrip_and_display() {
        let h = sha256(b"roundtrip");
        assert_eq!(Hash256::from_hex(&h.to_hex()), Some(h));
        assert_eq!(format!("{h}"), h.to_hex());
        assert!(format!("{h:?}").starts_with("Hash256("));
        assert!(Hash256::from_hex("zz").is_none());
        assert!(Hash256::from_hex("ab").is_none());
        assert!(Hash256::ZERO.is_zero());
        assert!(!h.is_zero());
    }
}
