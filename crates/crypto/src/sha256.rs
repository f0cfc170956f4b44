//! FIPS 180-4 SHA-256: one-shot, incremental, and many messages at once.

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
    #[expect(clippy::indexing_slicing, reason = "`buffered < 64` between calls, and a padded tail is one or two blocks")]
    pub fn finalize(mut self) -> Hash256 {
        let (tail, blocks) = padded_tail(&self.buffer[..self.buffered], self.total_len);
        compress_blocks(&mut self.state, tail[..blocks].as_flattened());
        state_hash(&self.state)
    }
}

/// A message's closing blocks: its last `rest.len() < 64` bytes, 0x80,
/// zeros and the bit length of its `len` bytes, big-endian. One block, or
/// two when fewer than 8 bytes remain after the pad byte; the count is
/// returned beside them.
#[expect(clippy::indexing_slicing, reason = "`rest.len() < 64`, so the bytes, the pad byte and the 8-byte length at `64 · blocks - 8` lie inside the 128-byte tail")]
fn padded_tail(rest: &[u8], len: u64) -> ([[u8; 64]; 2], usize) {
    debug_assert!(rest.len() < 64);
    let mut tail = [[0u8; 64]; 2];
    let blocks = if rest.len() < 56 { 1 } else { 2 };
    let padded = tail.as_flattened_mut();
    padded[..rest.len()].copy_from_slice(rest);
    padded[rest.len()] = 0x80;
    padded[64 * blocks - 8..64 * blocks].copy_from_slice(&len.wrapping_mul(8).to_be_bytes());
    (tail, blocks)
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
    #[cfg(test)]
    COMPRESSIONS.set(COMPRESSIONS.get() + data.len() as u64 / 64);
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        let mut states = [*state];
        // SAFETY: `available()` just confirmed that this processor has
        // every target feature `shani::compress_streams` is compiled with.
        unsafe { shani::compress_streams(&mut states, [data.as_chunks::<64>().0]) }
        *state = states[0];
        return;
    }
    compress_blocks_scalar(state, data);
}

#[cfg(test)]
thread_local! {
    /// Blocks [`compress_blocks`] has compressed on this thread, for the
    /// clock-free cost guards.
    pub(crate) static COMPRESSIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

thread_local! {
    /// Steps of the sixteen-lane engine on this thread; see [`lane_steps`].
    static LANE_STEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Steps the sixteen-lane engine of [`sha256_many`] has run on this
/// thread, each one 64-byte block of each of sixteen messages: what the
/// clock-free cost guards of its callers count. Always 0 on a processor
/// without AVX-512.
pub fn lane_steps() -> u64 {
    LANE_STEPS.get()
}

/// Which of the two [`compress_blocks`] implementations CPUID selects on
/// this host: `"sha-ni"` or `"scalar"`, for the differential tests' log
/// line; nothing branches on it.
#[cfg(test)]
pub(crate) fn compress_backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        return "sha-ni";
    }
    "scalar"
}

/// Which engines [`sha256_many`] steps through on this host, in order,
/// for the differential tests' log line; nothing branches on it.
#[cfg(test)]
pub(crate) fn many_backend() -> String {
    let mut tiers = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if avx512::available() {
            tiers.push("avx512 x16");
        }
        if shani::available() {
            tiers.push("sha-ni x2");
        }
    }
    tiers.push(compress_backend());
    tiers.join(" then ")
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

    /// The compression function over `S` independent streams: the
    /// blocks of `data[s]` into `states[s]`, every stream the same number
    /// of blocks. With two streams the rounds of one fill the latency
    /// of the other's; one stream is [`super::compress_blocks`].
    ///
    /// Safe to call only where the processor has `sha`, `sse2`, `ssse3`
    /// and `sse4.1` ([`available`]); the compiler makes every other
    /// caller say so in an `unsafe` block.
    #[expect(clippy::indexing_slicing, reason = "`s < S` indexes the `[_; S]` arrays, `block < stream.len()` since every stream holds as many blocks as the first, `as_chunks::<16>` of a 64-byte block has 4 elements and `% 4` keeps the ring indices inside `[__m128i; 4]`")]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_streams<const S: usize>(states: &mut [[u32; 8]; S], data: [&[[u8; 64]]; S]) {
        let blocks = data.first().map_or(0, |first| first.len());
        debug_assert!(data.iter().all(|stream| stream.len() == blocks));
        // The layout `sha256rnds2` works on: {a, b, e, f} and
        // {c, d, g, h}, the first-named word in the highest lane.
        let mut abef = states.map(|[a, b, _, _, e, f, _, _]| _mm_set_epi32(a as i32, b as i32, e as i32, f as i32));
        let mut cdgh = states.map(|[_, _, c, d, _, _, g, h]| _mm_set_epi32(c as i32, d as i32, g as i32, h as i32));

        for block in (0..blocks).map(|block| data.map(|stream| &stream[block])) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w: [[__m128i; 4]; S] = std::array::from_fn(|s| {
                let quarters = block[s].as_chunks::<16>().0;
                [
                    load_words(&quarters[0]),
                    load_words(&quarters[1]),
                    load_words(&quarters[2]),
                    load_words(&quarters[3]),
                ]
            });
            // Sixteen groups of four rounds. `w` is a ring of the last
            // sixteen schedule words; from group 4 on the oldest four
            // are replaced by the next four before they are used.
            for group in 0..16 {
                for s in 0..S {
                    let w = &mut w[s];
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
                    cdgh[s] = _mm_sha256rnds2_epu32(cdgh[s], abef[s], wk);
                    abef[s] = _mm_sha256rnds2_epu32(abef[s], cdgh[s], _mm_shuffle_epi32(wk, 0x0e));
                }
            }
            for s in 0..S {
                abef[s] = _mm_add_epi32(abef[s], abef_in[s]);
                cdgh[s] = _mm_add_epi32(cdgh[s], cdgh_in[s]);
            }
        }

        for ((state, abef), cdgh) in states.iter_mut().zip(abef).zip(cdgh) {
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

/// `sha256` of each of `messages`, in order.
///
/// The messages are independent, so several are hashed at once, in
/// *lanes*: where CPUID reports AVX-512 (`avx512f`, `avx512bw`), sixteen
/// messages a step in the 32-bit lanes of a 512-bit register, while at
/// least [`LANE_CROSSOVER`] are left; then two at a time where it reports
/// the SHA extension; the rest one at a time. A lane whose message is
/// done takes the next one, so messages of mixed lengths keep every lane
/// busy, and each message's padded tail goes through the lanes too.
pub fn sha256_many<'a>(messages: impl IntoIterator<Item = &'a [u8]>) -> Vec<Hash256> {
    let mut streams: Vec<Stream<'a>> = messages.into_iter().map(Stream::new).collect();
    hash_streams(&mut streams, Tiers::ALL);
    streams.iter().map(|stream| state_hash(&stream.state)).collect()
}

/// Fewest unfinished messages the sixteen-lane engine goes on stepping
/// for: one lane step costs about as much as ten blocks in SHA-NI pairs,
/// so with more than six lanes idle the pairs finish sooner.
const LANE_CROSSOVER: usize = 10;

/// The multi-stream engines [`hash_streams`] may use, each where CPUID
/// also reports it; the tests switch them off one by one.
#[derive(Clone, Copy)]
struct Tiers {
    lanes: bool,
    pair: bool,
}

impl Tiers {
    const ALL: Tiers = Tiers { lanes: true, pair: true };
}

/// Finishes every stream: sixteen-lane steps, then SHA-NI pairs, then one
/// at a time, each engine taking what the one before left.
fn hash_streams(streams: &mut [Stream<'_>], tiers: Tiers) {
    #[cfg(target_arch = "x86_64")]
    {
        if tiers.lanes && avx512::available() {
            run_lanes(streams, LANE_CROSSOVER, |states, data| {
                LANE_STEPS.set(LANE_STEPS.get() + data[0].len() as u64);
                // SAFETY: `available()` just confirmed that this processor
                // has every target feature `avx512::compress` is compiled
                // with.
                unsafe { avx512::compress(states, data) }
            });
        }
        if tiers.pair && shani::available() {
            // SAFETY: `available()` just confirmed that this processor has
            // every target feature `shani::compress_streams` is compiled
            // with.
            run_lanes(streams, 2, |states: &mut [[u32; 8]; 2], data| unsafe { shani::compress_streams(states, data) });
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tiers;
    run_lanes(streams, 1, |[state]: &mut [[u32; 8]; 1], [data]| compress_blocks(state, data.as_flattened()));
}

/// One message of [`sha256_many`] on its way through the compression
/// function: its state and the blocks it has left, the message's own
/// whole blocks and then its padded tail.
struct Stream<'a> {
    state: [u32; 8],
    body: &'a [[u8; 64]],
    /// The message's [`padded_tail`], `tail_blocks` long.
    tail: [[u8; 64]; 2],
    tail_blocks: usize,
    /// Blocks compressed so far, counting `body` then `tail`.
    done: usize,
}

impl<'a> Stream<'a> {
    fn new(message: &'a [u8]) -> Stream<'a> {
        let (body, rest) = message.as_chunks::<64>();
        let (tail, tail_blocks) = padded_tail(rest, message.len() as u64);
        Stream { state: H0, body, tail, tail_blocks, done: 0 }
    }

    /// The blocks left that lie one after the other in memory: the rest
    /// of the body, else the rest of the tail; none once it is done.
    fn blocks(&self) -> &[[u8; 64]] {
        match self.done.checked_sub(self.body.len()) {
            None => self.body.get(self.done..),
            Some(tail_done) => self.tail.get(tail_done..self.tail_blocks),
        }
        .unwrap_or_default()
    }

    fn finished(&self) -> bool {
        self.done >= self.body.len() + self.tail_blocks
    }
}

/// Steps the unfinished `streams` through an engine of `N` lanes until
/// fewer than `min` are left for it. A lane holds one stream until it is
/// done, then takes the next unfinished one. Each step hands `compress`
/// one state and one run of blocks per lane, all runs as long as the
/// shortest a held stream has left in one piece; a lane without a stream
/// runs a copy of another lane's blocks into a state that is thrown away.
#[expect(clippy::indexing_slicing, reason = "lanes hold indices of `streams` below its length, and every run is cut to `run`, the shortest length among them")]
fn run_lanes<const N: usize>(
    streams: &mut [Stream<'_>],
    min: usize,
    mut compress: impl FnMut(&mut [[u32; 8]; N], [&[[u8; 64]]; N]),
) {
    let mut lanes = [None::<usize>; N];
    let mut next = 0;
    loop {
        for lane in lanes.iter_mut().filter(|lane| lane.is_none()) {
            while next < streams.len() && streams[next].finished() {
                next += 1;
            }
            if next < streams.len() {
                *lane = Some(next);
                next += 1;
            }
        }
        let held = || lanes.iter().flatten().map(|&i| &streams[i]);
        let (Some(first), Some(run)) = (held().next(), held().map(|stream| stream.blocks().len()).min()) else {
            return;
        };
        if held().count() < min {
            return;
        }
        let idle = &first.blocks()[..run];
        let mut states = [H0; N];
        let data = std::array::from_fn(|lane| match lanes[lane] {
            Some(i) => {
                states[lane] = streams[i].state;
                &streams[i].blocks()[..run]
            }
            None => idle,
        });
        compress(&mut states, data);
        for (lane, state) in lanes.iter_mut().zip(states) {
            if let Some(i) = *lane {
                let stream = &mut streams[i];
                stream.state = state;
                stream.done += run;
                if stream.finished() {
                    *lane = None;
                }
            }
        }
    }
}

/// SHA-256 compression in the sixteen 32-bit lanes of AVX-512 registers:
/// register `w` of the state holds word `w` of sixteen independent
/// messages, and each round is a handful of rotations, three-input
/// logic ops and additions on all of them at once.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::K;
    use std::arch::x86_64::*;

    /// Whether this processor runs [`compress`]. `std` caches CPUID, so
    /// this is a load and a mask.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw")
    }

    /// The sixteen words of one lane's block, each byte-swapped to its
    /// big-endian value.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    fn load_block(block: &[u8; 64]) -> __m512i {
        let big_endian = _mm512_set4_epi32(0x0c0d_0e0f, 0x0809_0a0b, 0x0405_0607, 0x0001_0203);
        // SAFETY: `block` is a reference to 64 readable bytes, and
        // `_mm512_loadu_si512` asks no alignment of its pointer.
        unsafe { _mm512_shuffle_epi8(_mm512_loadu_si512(block.as_ptr().cast()), big_endian) }
    }

    /// Transposes sixteen rows of sixteen words: word `j` of row `i`
    /// becomes word `i` of row `j`. Pairs of 32-bit words, then of
    /// 64-bit words, then 128-bit quarters are interleaved.
    #[expect(clippy::indexing_slicing, reason = "every index is below 16, the length of the arrays")]
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn transpose(rows: [__m512i; 16]) -> [__m512i; 16] {
        // t[2i], t[2i+1]: rows 2i and 2i+1 interleaved, words 0,1 and 2,3
        // of every quarter.
        let t: [__m512i; 16] = std::array::from_fn(|i| {
            let (a, b) = (rows[i & !1], rows[i | 1]);
            if i % 2 == 0 { _mm512_unpacklo_epi32(a, b) } else { _mm512_unpackhi_epi32(a, b) }
        });
        // u[4g + c]: quarter q holds column 4q + c of rows 4g..4g + 4.
        let u: [__m512i; 16] = std::array::from_fn(|i| {
            let (g, c) = (i / 4, i % 4);
            let (a, b) = (t[4 * g + c / 2], t[4 * g + 2 + c / 2]);
            if c % 2 == 0 { _mm512_unpacklo_epi64(a, b) } else { _mm512_unpackhi_epi64(a, b) }
        });
        // Column 4q + c is quarter q of u[c], u[4 + c], u[8 + c] and
        // u[12 + c]: a 4 × 4 transpose of quarters.
        let mut out = [_mm512_setzero_si512(); 16];
        for c in 0..4 {
            let low01 = _mm512_shuffle_i32x4::<0x44>(u[c], u[4 + c]);
            let low23 = _mm512_shuffle_i32x4::<0xee>(u[c], u[4 + c]);
            let high01 = _mm512_shuffle_i32x4::<0x44>(u[8 + c], u[12 + c]);
            let high23 = _mm512_shuffle_i32x4::<0xee>(u[8 + c], u[12 + c]);
            out[c] = _mm512_shuffle_i32x4::<0x88>(low01, high01);
            out[4 + c] = _mm512_shuffle_i32x4::<0xdd>(low01, high01);
            out[8 + c] = _mm512_shuffle_i32x4::<0x88>(low23, high23);
            out[12 + c] = _mm512_shuffle_i32x4::<0xdd>(low23, high23);
        }
        out
    }

    /// `x ⋙ a ⊕ x ⋙ b ⊕ x ⋙ c`, `Σ0` and `Σ1`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn big_sigma<const A: i32, const B: i32, const C: i32>(x: __m512i) -> __m512i {
        _mm512_ternarylogic_epi32::<0x96>(_mm512_ror_epi32::<A>(x), _mm512_ror_epi32::<B>(x), _mm512_ror_epi32::<C>(x))
    }

    /// `x ⋙ a ⊕ x ⋙ b ⊕ x ≫ c`, `σ0` and `σ1`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn small_sigma<const A: i32, const B: i32, const C: u32>(x: __m512i) -> __m512i {
        _mm512_ternarylogic_epi32::<0x96>(_mm512_ror_epi32::<A>(x), _mm512_ror_epi32::<B>(x), _mm512_srli_epi32::<C>(x))
    }

    /// The compression function over sixteen independent streams: the
    /// blocks of `data[l]` into `states[l]`, every stream the same number
    /// of blocks.
    ///
    /// Safe to call only where the processor has `avx512f` and
    /// `avx512bw` ([`available`]); the compiler makes every other caller
    /// say so in an `unsafe` block.
    #[expect(clippy::indexing_slicing, reason = "lane and word indices are below 16 and 8, the lengths of the arrays, the ring indices are `% 16`, and `block < stream.len()` since every stream holds as many blocks as the first")]
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) fn compress(states: &mut [[u32; 8]; 16], data: [&[[u8; 64]]; 16]) {
        let blocks = data[0].len();
        debug_assert!(data.iter().all(|stream| stream.len() == blocks));
        // Word `w` of every lane in register `w`.
        let mut state: [__m512i; 8] = std::array::from_fn(|w| {
            let words: [u32; 16] = std::array::from_fn(|lane| states[lane][w]);
            // SAFETY: `words` is 64 readable bytes, and
            // `_mm512_loadu_si512` asks no alignment of its pointer.
            unsafe { _mm512_loadu_si512(words.as_ptr().cast()) }
        });

        for block in (0..blocks).map(|block| data.map(|stream| &stream[block])) {
            let mut w = transpose(block.map(|lane_block| load_block(lane_block)));
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = state;
            // Four groups of sixteen rounds, written out so that every
            // index into the ring `w` is a constant and `w` stays in
            // registers (a rolled loop indexes it in memory).
            for (group, k) in K.as_chunks::<16>().0.iter().enumerate() {
                macro_rules! rounds {
                    ($($j:literal)*) => {$(
                        if group > 0 {
                            // w[t] = σ1(w[t-2]) + w[t-7] + σ0(w[t-15]) + w[t-16].
                            let s0 = small_sigma::<7, 18, 3>(w[($j + 1) % 16]);
                            let s1 = small_sigma::<17, 19, 10>(w[($j + 14) % 16]);
                            w[$j] = _mm512_add_epi32(_mm512_add_epi32(w[$j], s0), _mm512_add_epi32(w[($j + 9) % 16], s1));
                        }
                        let ch = _mm512_ternarylogic_epi32::<0xca>(e, f, g);
                        let t1 = _mm512_add_epi32(
                            _mm512_add_epi32(h, big_sigma::<6, 11, 25>(e)),
                            _mm512_add_epi32(ch, _mm512_add_epi32(w[$j], _mm512_set1_epi32(k[$j] as i32))),
                        );
                        let maj = _mm512_ternarylogic_epi32::<0xe8>(a, b, c);
                        let t2 = _mm512_add_epi32(big_sigma::<2, 13, 22>(a), maj);
                        h = g;
                        g = f;
                        f = e;
                        e = _mm512_add_epi32(d, t1);
                        d = c;
                        c = b;
                        b = a;
                        a = _mm512_add_epi32(t1, t2);
                    )*};
                }
                rounds!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
            }
            for (word, round) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                *word = _mm512_add_epi32(*word, round);
            }
        }

        for (w, word) in state.iter().enumerate() {
            let mut words = [0u32; 16];
            // SAFETY: `words` is 64 writable bytes, and
            // `_mm512_storeu_si512` asks no alignment of its pointer.
            unsafe { _mm512_storeu_si512(words.as_mut_ptr().cast(), *word) };
            for (lane_state, word) in states.iter_mut().zip(words) {
                lane_state[w] = word;
            }
        }
    }
}

/// One-shot SHA-256 by the portable compression function alone,
/// whatever the processor offers, with its own padding: the reference
/// the tests hold [`sha256`] against.
#[cfg(test)]
pub(crate) fn sha256_reference(data: &[u8]) -> Hash256 {
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

    /// Says which compress the dispatcher picked and which engines
    /// `sha256_many` has, so a log of a host without the extensions shows
    /// the differential tests compared the scalar code with itself.
    fn announce_dispatch() {
        eprintln!(
            "sha256: dispatched compress is {}, sha256_many steps {}, reference is scalar",
            compress_backend(),
            many_backend()
        );
    }

    /// `sha256_many` restricted to `tiers`.
    fn many_through(messages: &[&[u8]], tiers: Tiers) -> Vec<Hash256> {
        let mut streams: Vec<Stream<'_>> = messages.iter().map(|message| Stream::new(message)).collect();
        hash_streams(&mut streams, tiers);
        streams.iter().map(|stream| state_hash(&stream.state)).collect()
    }

    /// Every combination of the multi-stream engines; one this host lacks
    /// falls through to the next, so each combination still hashes.
    const EVERY_TIER: [Tiers; 4] = [
        Tiers { lanes: true, pair: true },
        Tiers { lanes: true, pair: false },
        Tiers { lanes: false, pair: true },
        Tiers { lanes: false, pair: false },
    ];

    fn assert_many_matches_reference(messages: &[&[u8]], what: &str) {
        let reference: Vec<Hash256> = messages.iter().map(|message| sha256_reference(message)).collect();
        assert_eq!(sha256_many(messages.iter().copied()), reference, "{what}");
        for tiers in EVERY_TIER {
            let (lanes, pair) = (tiers.lanes, tiers.pair);
            assert_eq!(many_through(messages, tiers), reference, "{what}, lanes {lanes}, pair {pair}");
        }
    }

    /// No message, one empty message; sixteen messages of 200 bytes but
    /// one, at each lane position in turn, whose length puts its tail at
    /// a padding boundary; then the same with every message at that
    /// length.
    #[test]
    fn many_matches_reference_at_every_lane_and_padding_boundary() {
        announce_dispatch();
        assert_many_matches_reference(&[], "no message");
        assert_many_matches_reference(&[b""], "one empty message");
        let data: Vec<u8> = (0..400u16).map(|i| (i * 7 % 251) as u8).collect();
        for len in [0, 55, 56, 63, 64, 119, 120, 127, 128] {
            for position in 0..16 {
                let messages: Vec<&[u8]> =
                    (0..16).map(|lane| if lane == position { &data[1..1 + len] } else { &data[..200] }).collect();
                assert_many_matches_reference(&messages, &format!("length {len} at lane {position}"));
            }
            let messages: Vec<&[u8]> = (0..17).map(|start| &data[start..start + len]).collect();
            assert_many_matches_reference(&messages, &format!("17 messages of length {len}"));
        }
    }

    /// Clock-free cost guard for the tiers: equal 4 KiB messages (64
    /// blocks and a tail block each) take whole lane steps while at least
    /// `LANE_CROSSOVER` are left, then pairs, then one stream for an odd
    /// one out.
    #[test]
    fn many_takes_the_lanes_from_the_crossover_up() {
        announce_dispatch();
        let message = vec![0x5a; 4096];
        let lanes = many_backend().contains("avx512");
        let pair = many_backend().contains("sha-ni x2");
        // (messages, lane steps, messages the lanes leave)
        let cases = [(32, 2 * 65, 0), (16 + LANE_CROSSOVER, 2 * 65, 0), (20, 65, 4), (21, 65, 5), (LANE_CROSSOVER - 1, 0, LANE_CROSSOVER as u64 - 1), (1, 0, 1)];
        for (count, steps, left) in cases {
            let messages = vec![&message[..]; count];
            let (lane_steps_before, single_before) = (lane_steps(), COMPRESSIONS.get());
            assert_eq!(sha256_many(messages.iter().copied()), vec![sha256_reference(&message); count]);
            let (steps, left) = if lanes { (steps, left) } else { (0, count as u64) };
            assert_eq!(lane_steps() - lane_steps_before, steps, "{count} messages");
            // What the lanes leave goes in pairs, and an odd one alone.
            let alone = if pair { left % 2 } else { left };
            assert_eq!(COMPRESSIONS.get() - single_before, alone * 65, "{count} messages");
        }
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

        /// `sha256_many` through every tier: 0–40 messages of 0–5 000
        /// bytes, all of one length or each its own, each at its own
        /// unaligned start.
        #[test]
        fn many_matches_reference_for_any_lengths() {
            announce_dispatch();
            for_each_case(0x5a25_0003, 64, |rng| {
                let count = rng.next_in(0..41);
                let one_length = (rng.next_range(2) == 0).then(|| rng.next_in(0..5_001));
                let lengths: Vec<usize> = (0..count).map(|_| one_length.unwrap_or_else(|| rng.next_in(0..5_001))).collect();
                let mut backing = vec![0u8; lengths.iter().sum::<usize>() + 16 * count];
                rng.fill_bytes(&mut backing);
                let mut messages = Vec::new();
                let mut rest = &backing[..];
                for len in &lengths {
                    let (message, after) = rest[rng.next_in(0..16)..].split_at(*len);
                    messages.push(message);
                    rest = after;
                }
                assert_many_matches_reference(&messages, &format!("lengths {lengths:?}"));
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
    }
}
