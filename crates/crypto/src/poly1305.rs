//! Poly1305 (RFC 8439 §2.5): a one-time authenticator over the prime
//! field `2¹³⁰ − 5`.
//!
//! A 32-byte one-time key `(r, s)` tags a message by evaluating the
//! polynomial whose coefficients are the message's 16-byte blocks (each
//! with a 1 appended above its last byte) at the clamped `r`, modulo
//! `2¹³⁰ − 5`, and adding `s` modulo `2¹²⁸`. A key must tag one message
//! only; the transport derives a fresh one per frame.
//!
//! Two implementations, picked from CPUID at run time, give the same
//! tags:
//!
//! * a portable scalar path: the accumulator in three radix-2⁴⁴ limbs
//!   (44, 44 and 42 bits), one `u128` multiply-accumulate per limb
//!   product, and no branch, index or early exit that depends on the
//!   key or the accumulator;
//! * where CPUID reports AVX-512 IFMA (`avx512f` + `avx512ifma`, the
//!   gate `p256::lanes` uses) and the message is at least 160 bytes
//!   long (`LANE_CROSSOVER`), an eight-way Horner evaluation: lane
//!   `j` of a 512-bit register accumulates blocks `j`, `j + 8`, … as
//!   `h ← (h + m)·r⁸`, the last step multiplies lane `j` by `r⁸⁻ʲ`
//!   instead, and the lanes' sum is the scalar accumulator. Zero blocks
//!   in front, which leave the accumulator at 0, round the block count
//!   up to a multiple of eight, so every block, the partial last one
//!   too, goes through the lanes.

use std::cell::Cell;

/// A key: `r` then `s`, 16 bytes each, little-endian.
const KEY_LEN: usize = 32;
/// A tag: 16 bytes, little-endian.
const TAG_LEN: usize = 16;

/// Shortest message the lanes take: the powers `r²…r⁸`, the lane set-up
/// and the final sum over the lanes cost about 95 ns, what ten blocks
/// cost the scalar path (measured on a 2 GHz Xeon with AVX-512 IFMA:
/// 110 ns each at 160 bytes, lanes 115 ns against 156 ns at 200).
const LANE_CROSSOVER: usize = 160;

/// Message bytes per lane step: one 16-byte block in each of eight lanes.
const LANE_BYTES: usize = 128;

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;
/// The `2¹²⁸` bit every whole block carries, in limb 2 (bit `88 + 40`).
const HIBIT: u64 = 1 << 40;

/// A residue modulo `2¹³⁰ − 5` in radix 2⁴⁴: limbs of 44, 44 and 42
/// bits, carried (each a little above its width at most) but not
/// canonical.
type Limbs = [u64; 3];

thread_local! {
    /// Steps of the eight-lane path on this thread; see [`lane_steps`].
    static LANE_STEPS: Cell<u64> = const { Cell::new(0) };
}

/// Steps the eight-lane path has run on this thread, each one 16-byte
/// block in each of eight lanes (128 bytes of message): what the
/// clock-free cost guards count. Always 0 on a processor without
/// AVX-512 IFMA.
pub fn lane_steps() -> u64 {
    LANE_STEPS.get()
}

/// The Poly1305 tag of `message` under the one-time `key`.
///
/// # Examples
///
/// ```
/// use hlf_crypto::poly1305::poly1305;
///
/// // RFC 8439 §2.5.2.
/// let key = hlf_crypto::hex::decode("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b").unwrap();
/// let tag = poly1305(&key.try_into().unwrap(), b"Cryptographic Forum Research Group");
/// assert_eq!(hlf_crypto::hex::encode(&tag), "a8061dc1305136c6c22b8baf0c0127a9");
/// ```
pub fn poly1305(key: &[u8; KEY_LEN], message: &[u8]) -> [u8; TAG_LEN] {
    mac(key, message, LANE_CROSSOVER)
}

/// [`poly1305`] with the lanes taking messages from `crossover` bytes
/// up (where CPUID has them); the tests force each path with it.
fn mac(key: &[u8; KEY_LEN], message: &[u8], crossover: usize) -> [u8; TAG_LEN] {
    // lint:secret-scope(key, r_bytes, s_bytes, r, s, h) — the one-time
    // key and the accumulator it keys.
    let (r_bytes, s_bytes) = halves(key);
    let r = clamp(r_bytes);
    let s = u128::from_le_bytes(s_bytes);
    #[cfg(target_arch = "x86_64")]
    let h = if !message.is_empty() && message.len() >= crossover && ifma::available() {
        LANE_STEPS.set(LANE_STEPS.get() + message.len().div_ceil(LANE_BYTES) as u64);
        // SAFETY: `available()` just confirmed that this processor has
        // every target feature `ifma::accumulate` is compiled with.
        unsafe { ifma::accumulate(&r, message) }
    } else {
        accumulate(&r, message)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let h = {
        let _ = crossover;
        accumulate(&r, message)
    };
    finish(h, s)
}

/// The scalar path: the accumulator after every block of `message`,
/// one Horner step each.
fn accumulate(r: &Limbs, message: &[u8]) -> Limbs {
    // lint:secret-scope(r, h) — the key and the accumulator.
    let (blocks, tail) = message.as_chunks::<16>();
    let mut h: Limbs = [0; 3];
    for block in blocks {
        h = absorb(h, r, block, HIBIT);
    }
    if !tail.is_empty() {
        // The partial block carries its 1 just above its last byte, in
        // the block itself.
        let mut last = [0u8; 16];
        let (body, pad) = last.split_at_mut(tail.len());
        body.copy_from_slice(tail);
        if let Some(one) = pad.first_mut() {
            *one = 1;
        }
        h = absorb(h, r, &last, 0);
    }
    h
}

/// The key's two little-endian halves.
fn halves(key: &[u8; KEY_LEN]) -> ([u8; 16], [u8; 16]) {
    // lint:secret-scope(key, r, s, halves) — the one-time key.
    let (r, s) = key.split_at(16);
    let mut halves = ([0u8; 16], [0u8; 16]);
    halves.0.copy_from_slice(r);
    halves.1.copy_from_slice(s);
    halves
}

/// `r` with RFC 8439's clamp applied, in limbs.
fn clamp(r: [u8; 16]) -> Limbs {
    // lint:secret-scope(r, lo, hi) — the one-time key's `r`.
    let r = u128::from_le_bytes(r) & 0x0fff_fffc_0fff_fffc_0fff_fffc_0fff_ffff;
    let (lo, hi) = (r as u64, (r >> 64) as u64);
    [lo & MASK44, ((lo >> 44) | (hi << 20)) & MASK44, hi >> 24]
}

/// `(h + block + pad·2⁸⁸)·r`: one Horner step of the scalar path.
fn absorb(h: Limbs, r: &Limbs, block: &[u8; 16], pad: u64) -> Limbs {
    // lint:secret-scope(h, r, a) — the accumulator and the key.
    let m = u128::from_le_bytes(*block);
    let (lo, hi) = (m as u64, (m >> 64) as u64);
    let [h0, h1, h2] = h;
    let a = [
        h0 + (lo & MASK44),
        h1 + (((lo >> 44) | (hi << 20)) & MASK44),
        h2 + ((hi >> 24) | pad),
    ];
    mul(&a, r)
}

/// `a·b mod 2¹³⁰ − 5`, carried. A product at `2¹³²` or above comes back
/// times 20 (`2¹³² = 4·2¹³⁰ ≡ 20`), so `b₁` and `b₂` enter the low
/// limbs times 20.
fn mul(a: &Limbs, b: &Limbs) -> Limbs {
    // lint:secret-scope(a, b, a0, a1, a2, b0, b1, b2, s1, s2) — the
    // accumulator and powers of the key.
    let [a0, a1, a2] = a.map(u128::from);
    let [b0, b1, b2] = b.map(u128::from);
    let (s1, s2) = (b1 * 20, b2 * 20);
    carry(
        a0 * b0 + a1 * s2 + a2 * s1,
        a0 * b1 + a1 * b0 + a2 * s2,
        a0 * b2 + a1 * b1 + a2 * b0,
    )
}

/// Limbs 0, 1, 2 (at `2⁰`, `2⁴⁴`, `2⁸⁸`), each below `2¹⁰⁰`, carried
/// into a residue whose limbs are below `2⁴⁴`, `2⁴⁴ + 2¹⁷` and `2⁴²`.
fn carry(d0: u128, d1: u128, d2: u128) -> Limbs {
    // lint:secret-scope(d0, d1, d2, c, h0, h1, h2) — the accumulator.
    let d1 = d1 + (d0 >> 44);
    let d2 = d2 + (d1 >> 44);
    let c = d2 >> 42;
    let h0 = (d0 as u64 & MASK44) as u128 + c * 5;
    let h1 = (d1 as u64 & MASK44) + (h0 >> 44) as u64;
    [h0 as u64 & MASK44, h1, d2 as u64 & MASK42]
}

/// `(h mod 2¹³⁰ − 5) + s mod 2¹²⁸`, little-endian, with the last
/// subtraction of the prime chosen by a mask.
fn finish(h: Limbs, s: u128) -> [u8; TAG_LEN] {
    // lint:secret-scope(h, s, h0, h1, h2, g0, g1, g2, keep, tag) — the
    // accumulator and the key's `s`.
    let [h0, h1, h2] = h;
    // Twice around the limbs: below 2¹³⁰ with every limb in its width.
    let (h1, h2) = (h1 & MASK44, h2 + (h1 >> 44));
    let (h2, h0) = (h2 & MASK42, h0 + (h2 >> 42) * 5);
    let (h0, h1) = (h0 & MASK44, h1 + (h0 >> 44));
    let (h1, h2) = (h1 & MASK44, h2 + (h1 >> 44));
    let (h2, h0) = (h2 & MASK42, h0 + (h2 >> 42) * 5);
    let (h0, h1) = (h0 & MASK44, h1 + (h0 >> 44));
    // g = h + 5 − 2¹³⁰; it is h mod p where it is not negative.
    let g0 = h0 + 5;
    let g1 = h1 + (g0 >> 44);
    let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
    let (g0, g1) = (g0 & MASK44, g1 & MASK44);
    let keep = (g2 >> 63).wrapping_sub(1); // all ones where g ≥ 0
    let h0 = (h0 & !keep) | (g0 & keep);
    let h1 = (h1 & !keep) | (g1 & keep);
    let h2 = (h2 & !keep) | (g2 & keep);
    // `h1` may be exactly 2⁴⁴ here, so the limbs are added, not or-ed.
    let h = u128::from(h0).wrapping_add(u128::from(h1) << 44).wrapping_add(u128::from(h2) << 88);
    let tag = h.wrapping_add(s);
    tag.to_le_bytes()
}

/// The eight-lane path: radix-2⁴⁴ limbs in the 64-bit lanes of three
/// registers, multiplied with `vpmadd52luq`/`vpmadd52huq`.
#[cfg(target_arch = "x86_64")]
mod ifma {
    use super::{carry, mul, Limbs, HIBIT, LANE_BYTES, MASK42, MASK44};
    use std::arch::x86_64::*;

    /// Whether this processor runs the lanes. `std` caches CPUID, so
    /// this is a load and a mask.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")
    }

    /// A residue in each of eight lanes: register `i` holds limb `i`.
    #[derive(Clone, Copy)]
    struct Fe([__m512i; 3]);

    /// A multiplier in each lane, with its limbs 1 and 2 also times 20.
    struct Multiplier {
        r: [__m512i; 3],
        s1: __m512i,
        s2: __m512i,
    }

    impl Multiplier {
        /// Lane `j` multiplies by `per_lane[j]`.
        #[target_feature(enable = "avx512f")]
        fn new(per_lane: &[Limbs; 8]) -> Multiplier {
            // lint:secret-scope(per_lane, limb, r, s1, s2) — powers of
            // the one-time key.
            let limb = |i: usize| {
                let lanes = per_lane.map(|power| power.get(i).copied().unwrap_or(0) as i64);
                let [l0, l1, l2, l3, l4, l5, l6, l7] = lanes;
                _mm512_setr_epi64(l0, l1, l2, l3, l4, l5, l6, l7)
            };
            let r = [limb(0), limb(1), limb(2)];
            let twenty = |v: __m512i| _mm512_add_epi64(_mm512_slli_epi64::<4>(v), _mm512_slli_epi64::<2>(v));
            let [_, r1, r2] = r;
            Multiplier { r, s1: twenty(r1), s2: twenty(r2) }
        }
    }

    /// `(h + m)·r` in every lane. Every limb of `h + m` is below
    /// `2⁴⁵ + 2¹⁵` (`2⁴²·⁶` for limb 2) and every limb of `r` and `20·r`
    /// below `2⁴⁹`, inside the multiplier's 52 bits; a product's low 52
    /// bits stay at its limb and its high bits land 8 bits up the next
    /// limb, or, from limb 2, at `2¹⁴⁰ ≡ 5·2¹⁰` in limb 0.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn step(h: &Fe, m: &Fe, r: &Multiplier) -> Fe {
        // lint:secret-scope(h, r, a0, a1, a2, r0, r1, r2, lo0, lo1, lo2, hi0, hi1, hi2, t0, t1, t2, c) —
        // the accumulator and powers of the one-time key.
        let [h0, h1, h2] = h.0;
        let [m0, m1, m2] = m.0;
        let (a0, a1, a2) = (_mm512_add_epi64(h0, m0), _mm512_add_epi64(h1, m1), _mm512_add_epi64(h2, m2));
        let [r0, r1, r2] = r.r;
        let (s1, s2) = (r.s1, r.s2);
        let zero = _mm512_setzero_si512();
        let lo = |x: __m512i, y: __m512i, z: __m512i, u: __m512i, v: __m512i, w: __m512i| {
            _mm512_madd52lo_epu64(_mm512_madd52lo_epu64(_mm512_madd52lo_epu64(zero, x, u), y, v), z, w)
        };
        let hi = |x: __m512i, y: __m512i, z: __m512i, u: __m512i, v: __m512i, w: __m512i| {
            _mm512_madd52hi_epu64(_mm512_madd52hi_epu64(_mm512_madd52hi_epu64(zero, x, u), y, v), z, w)
        };
        let (lo0, hi0) = (lo(a0, a1, a2, r0, s2, s1), hi(a0, a1, a2, r0, s2, s1));
        let (lo1, hi1) = (lo(a0, a1, a2, r1, r0, s2), hi(a0, a1, a2, r1, r0, s2));
        let (lo2, hi2) = (lo(a0, a1, a2, r2, r1, r0), hi(a0, a1, a2, r2, r1, r0));
        // The high parts are below 2⁴¹, so their products by 2⁸ and by
        // 5·2¹⁰ fit the multiplier's low 52 bits: one fused step each.
        let t0 = _mm512_madd52lo_epu64(lo0, hi2, _mm512_set1_epi64(5 << 10));
        let t1 = _mm512_madd52lo_epu64(lo1, hi0, _mm512_set1_epi64(1 << 8));
        let t2 = _mm512_madd52lo_epu64(lo2, hi1, _mm512_set1_epi64(1 << 8));
        // One carry out of each limb, all three at once: the limbs come
        // out below 2⁴⁴ + 2¹⁵, 2⁴⁴ + 2¹¹ and 2⁴² + 2¹¹, as carried as
        // the next step needs, one shift and add deep instead of four.
        let (mask44, mask42) = (_mm512_set1_epi64(MASK44 as i64), _mm512_set1_epi64(MASK42 as i64));
        let c = _mm512_srli_epi64::<42>(t2);
        Fe([
            _mm512_add_epi64(_mm512_and_si512(t0, mask44), _mm512_add_epi64(c, _mm512_slli_epi64::<2>(c))),
            _mm512_add_epi64(_mm512_and_si512(t1, mask44), _mm512_srli_epi64::<44>(t0)),
            _mm512_add_epi64(_mm512_and_si512(t2, mask42), _mm512_srli_epi64::<44>(t1)),
        ])
    }

    /// Block `j` of `chunk` in lane `j`, with its `2¹²⁸` bit where
    /// `whole` has bit `j` set.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load(chunk: &[u8; LANE_BYTES], whole: __mmask8) -> Fe {
        let (first, second) = chunk.split_at(64);
        // SAFETY: `first` and `second` are 64 readable bytes each, and
        // `_mm512_loadu_si512` asks no alignment of its pointer.
        let (a, b) = unsafe { (_mm512_loadu_si512(first.as_ptr().cast()), _mm512_loadu_si512(second.as_ptr().cast())) };
        // The even quadwords of the 128 bytes are the blocks' low halves.
        let lo = _mm512_permutex2var_epi64(a, _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14), b);
        let hi = _mm512_permutex2var_epi64(a, _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15), b);
        let mask44 = _mm512_set1_epi64(MASK44 as i64);
        Fe([
            _mm512_and_si512(lo, mask44),
            _mm512_and_si512(_mm512_or_si512(_mm512_srli_epi64::<44>(lo), _mm512_slli_epi64::<20>(hi)), mask44),
            _mm512_or_si512(_mm512_srli_epi64::<24>(hi), _mm512_maskz_set1_epi64(whole, HIBIT as i64)),
        ])
    }

    /// `bytes` (at most a chunk) from lane `lead` on, a partial last
    /// block closed by its 1 byte, and the lanes of its whole blocks.
    fn padded(bytes: &[u8], lead: usize) -> ([u8; LANE_BYTES], __mmask8) {
        let mut chunk = [0u8; LANE_BYTES];
        let (_, from_lead) = chunk.split_at_mut((16 * lead).min(LANE_BYTES));
        let (body, after) = from_lead.split_at_mut(bytes.len().min(from_lead.len()));
        body.copy_from_slice(bytes.get(..body.len()).unwrap_or_default());
        if !bytes.len().is_multiple_of(16) {
            if let Some(one) = after.first_mut() {
                *one = 1;
            }
        }
        let whole = ((1u32 << (bytes.len() / 16)) - 1) << lead;
        (chunk, whole as __mmask8)
    }

    /// The accumulator after every block of `message`, not empty, as the
    /// scalar path leaves it, eight blocks a step.
    ///
    /// Zero blocks in front of the message (no `2¹²⁸` bit: value 0, so
    /// `h` stays 0 through them) make its block count a multiple of
    /// eight; lane `j` then takes blocks `j`, `j + 8`, … as
    /// `h ← (h + m)·r⁸`, the last step multiplies lane `j` by `r⁸⁻ʲ`
    /// instead, and the lanes add up to `h`. A partial last block goes
    /// through its lane closed by its 1 byte and without the `2¹²⁸` bit,
    /// as in the scalar path.
    ///
    /// Safe to call only where the processor has `avx512f` and
    /// `avx512ifma` ([`available`]); the compiler makes every other
    /// caller say so in an `unsafe` block.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn accumulate(r: &Limbs, message: &[u8]) -> Limbs {
        // lint:secret-scope(r, r2, r3, r4, r5, r6, r7, r8, by_r8, tail, acc, h0, h1, h2) —
        // the accumulator and powers of the one-time key.
        // r², then r³ and r⁴, then r⁵ to r⁸: three multiplications deep.
        let r2 = mul(r, r);
        let (r3, r4) = (mul(&r2, r), mul(&r2, &r2));
        let (r5, r6, r7, r8) = (mul(&r4, r), mul(&r4, &r2), mul(&r4, &r3), mul(&r4, &r4));
        let by_r8 = Multiplier::new(&[r8; 8]);
        let tail = Multiplier::new(&[r8, r7, r6, r5, r4, r3, r2, *r]);

        let lead = (8 - message.len().div_ceil(16) % 8) % 8;
        let (first, rest) = message.split_at((16 * (8 - lead)).min(message.len()));
        let (middle, partial) = rest.as_chunks::<LANE_BYTES>();
        let (chunk, whole) = padded(first, lead);
        let mut pending = load(&chunk, whole);
        let mut acc = Fe([_mm512_setzero_si512(); 3]);
        for chunk in middle {
            acc = step(&acc, &pending, &by_r8);
            pending = load(chunk, 0xff);
        }
        if !partial.is_empty() {
            let (chunk, whole) = padded(partial, 0);
            acc = step(&acc, &pending, &by_r8);
            pending = load(&chunk, whole);
        }
        acc = step(&acc, &pending, &tail);
        let [h0, h1, h2] = acc.0.map(|limbs| u128::from(_mm512_reduce_add_epi64(limbs) as u64));
        carry(h0, h1, h2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bignum::U256;
    use crate::hex;

    /// Says whether the lanes exist here, so a log of a host without
    /// IFMA shows the differential tests compared the scalar path with
    /// itself.
    fn announce_dispatch() {
        #[cfg(target_arch = "x86_64")]
        let lanes = ifma::available();
        #[cfg(not(target_arch = "x86_64"))]
        let lanes = false;
        let path = if lanes { "avx512-ifma x8" } else { "scalar" };
        eprintln!("poly1305: lane path is {path}, reference is big-integer long division");
    }

    /// `2¹³⁰ − 5`.
    fn prime() -> U256 {
        U256::from_limbs([u64::MAX - 4, u64::MAX, 3, 0])
    }

    /// `x mod p` for a 512-bit `x`, one bit at a time: shift the
    /// remainder up, bring the next bit in, subtract `p` where it fits.
    fn reduce(x: &[u64; 8], p: &U256) -> U256 {
        let mut rem = U256::ZERO;
        for bit in (0..512).rev() {
            let (doubled, _) = rem.adc(&rem);
            let (with_bit, _) = doubled.adc(&U256::from_u64(x[bit / 64] >> (bit % 64) & 1));
            rem = with_bit;
            let (less, borrow) = rem.sbb(p);
            if !borrow {
                rem = less;
            }
        }
        rem
    }

    /// RFC 8439 §2.5.1 in big integers: each block's value with its 1
    /// appended, added and multiplied by the clamped `r` modulo `p`.
    fn reference(key: &[u8; 32], message: &[u8]) -> [u8; 16] {
        let p = prime();
        let mut r_bytes = [0u8; 32];
        r_bytes[..16].copy_from_slice(&key[..16]);
        for (byte, clamp) in r_bytes.iter_mut().zip(hex::decode("ffffff0ffcffff0ffcffff0ffcffff0f").unwrap()) {
            *byte &= clamp;
        }
        let le = |bytes: &[u8]| {
            let mut limbs = [0u64; 4];
            for (i, byte) in bytes.iter().enumerate() {
                limbs[i / 8] |= u64::from(*byte) << (8 * (i % 8));
            }
            U256::from_limbs(limbs)
        };
        let r = le(&r_bytes);
        let mut acc = U256::ZERO;
        for block in message.chunks(16) {
            let mut n = block.to_vec();
            n.push(1);
            let (sum, _) = acc.adc(&le(&n));
            acc = reduce(&sum.widening_mul(&r), &p);
        }
        let (tag, _) = acc.adc(&le(&key[16..]));
        let mut out = [0u8; 16];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = (tag.limbs()[i / 8] >> (8 * (i % 8))) as u8;
        }
        out
    }

    fn key(hex_key: &str) -> [u8; 32] {
        hex::decode(hex_key).unwrap().try_into().unwrap()
    }

    /// The tag through the scalar path, through the lanes wherever the
    /// message holds a whole chunk, and through the dispatcher.
    fn tiers(key: &[u8; 32], message: &[u8]) -> [[u8; 16]; 3] {
        [mac(key, message, usize::MAX), mac(key, message, 0), poly1305(key, message)]
    }

    #[test]
    fn rfc8439_vector() {
        announce_dispatch();
        let key = key("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
        let message = b"Cryptographic Forum Research Group";
        let expected = "a8061dc1305136c6c22b8baf0c0127a9";
        assert_eq!(hex::encode(&reference(&key, message)), expected);
        for tag in tiers(&key, message) {
            assert_eq!(hex::encode(&tag), expected);
        }
    }

    /// RFC 8439 appendix A.3 vectors 5–9, which run the last reduction
    /// at and around `2¹³⁰ − 5`: `(r, s, message, tag)`, `r` one byte.
    #[test]
    fn rfc8439_reduction_vectors() {
        let ff = "ff".repeat(16);
        let cases = [
            ("02", "00".repeat(16), ff.clone(), "03".to_string() + &"00".repeat(15)),
            ("02", ff.clone(), "02".to_string() + &"00".repeat(15), "03".to_string() + &"00".repeat(15)),
            ("01", "00".repeat(16), [ff.as_str(), "f0", &"ff".repeat(15), "11", &"00".repeat(15)].concat(), "05".to_string() + &"00".repeat(15)),
            ("01", "00".repeat(16), [ff.as_str(), "fb", &"fe".repeat(15), &"01".repeat(16)].concat(), "00".repeat(16)),
            ("02", "00".repeat(16), "fd".to_string() + &"ff".repeat(15), "fa".to_string() + &"ff".repeat(15)),
        ];
        for (r, s, message, expected) in cases {
            let key = key(&[r, &"00".repeat(15), &s].concat());
            let message = hex::decode(&message).unwrap();
            assert_eq!(hex::encode(&reference(&key, &message)), expected, "reference, {message:02x?}");
            for tag in tiers(&key, &message) {
                assert_eq!(hex::encode(&tag), expected, "{message:02x?}");
            }
        }
    }

    /// Every length 0–300 from an unaligned start, against the
    /// big-integer reference, under a key with every `r` bit the clamp
    /// keeps set (the largest limbs) and under a patterned one.
    #[test]
    fn every_short_length_matches_reference() {
        announce_dispatch();
        let data: Vec<u8> = (0..320u16).map(|i| (i * 37 % 256) as u8).collect();
        for key in [[0xff; 32], std::array::from_fn(|i| (i * 29 + 3) as u8)] {
            for len in 0..=300 {
                let message = &data[3..3 + len];
                let expected = reference(&key, message);
                assert_eq!(tiers(&key, message), [expected; 3], "length {len}");
            }
        }
    }

    /// Clock-free cost guard: the dispatcher gives the lanes every block
    /// of a message from the crossover up, one step per eight blocks or
    /// part of eight, and none below it.
    #[test]
    fn lanes_take_every_block_from_the_crossover_up() {
        announce_dispatch();
        #[cfg(target_arch = "x86_64")]
        let lanes = ifma::available();
        #[cfg(not(target_arch = "x86_64"))]
        let lanes = false;
        let data = vec![0xa5u8; 57_344];
        let below = LANE_CROSSOVER - 1;
        let at = LANE_CROSSOVER.div_ceil(LANE_BYTES) as u64;
        for (len, steps) in [(0, 0), (below, 0), (LANE_CROSSOVER, at), (2_200, 18), (2_304, 18), (14_336, 112), (57_344, 448)] {
            let before = lane_steps();
            poly1305(&[7; 32], &data[..len]);
            let expected = if lanes { steps } else { 0 };
            assert_eq!(lane_steps() - before, expected, "{len} bytes");
        }
    }

    /// Seeded property loops (see `hlf_simnet::for_each_case`).
    mod properties {
        use super::*;
        use hlf_simnet::for_each_case;

        /// Random keys, random lengths up to 70 000 bytes (half of them
        /// below 600), each from an unaligned start: the scalar path, the
        /// lanes and the dispatcher against the big-integer reference.
        #[test]
        fn every_tier_matches_reference_for_any_length() {
            announce_dispatch();
            for_each_case(0x9013_0001, 48, |rng| {
                let offset = rng.next_in(0..16);
                let len = if rng.next_range(2) == 0 { rng.next_in(0..600) } else { rng.next_in(0..70_001) };
                let mut backing = vec![0u8; offset + len];
                rng.fill_bytes(&mut backing);
                let mut key = [0u8; 32];
                rng.fill_bytes(&mut key);
                let message = &backing[offset..];
                let expected = reference(&key, message);
                assert_eq!(tiers(&key, message), [expected; 3], "length {len} at offset {offset}");
            });
        }

        /// Messages whose blocks are all ones (the largest limbs a block
        /// gives), under keys whose clamped `r` is all ones: the lanes
        /// against the scalar path, where the carries run longest.
        #[test]
        fn lanes_match_scalar_at_the_largest_limbs() {
            for_each_case(0x9013_0002, 16, |rng| {
                let len = rng.next_in(128..9_000);
                let message = vec![0xff; len];
                let mut key = [0xffu8; 32];
                rng.fill_bytes(&mut key[16..]);
                assert_eq!(mac(&key, &message, 0), mac(&key, &message, usize::MAX), "length {len}");
            });
        }
    }
}
