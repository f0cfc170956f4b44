//! Fixed-width 256-bit unsigned integers with Montgomery modular
//! arithmetic, sized exactly for the NIST P-256 field and scalar moduli.

use std::cmp::Ordering;
use std::fmt;

/// A 256-bit unsigned integer stored as four little-endian 64-bit limbs.
///
/// # Examples
///
/// ```
/// use hlf_crypto::U256;
///
/// let a = U256::from_u64(7);
/// let b = U256::from_hex("1c").unwrap();
/// assert!(a < b);
/// assert_eq!(a.to_hex(), format!("{:064x}", 7));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256 {
    /// Little-endian limbs: `limbs[0]` is least significant.
    limbs: [u64; 4],
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x{})", self.to_hex())
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U256 {
    #[expect(clippy::indexing_slicing, reason = "limb indices are `0..4` loop counters over fixed `[u64; 4]` arrays — in bounds by construction")]
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        Ordering::Equal
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

impl U256 {
    /// The value zero.
    pub const ZERO: U256 = U256 { limbs: [0; 4] };
    /// The value one.
    pub(crate) const ONE: U256 = U256 {
        limbs: [1, 0, 0, 0],
    };

    /// Builds a value from little-endian limbs.
    pub(crate) const fn from_limbs(limbs: [u64; 4]) -> U256 {
        U256 { limbs }
    }

    /// Returns the little-endian limbs.
    pub(crate) const fn limbs(&self) -> [u64; 4] {
        self.limbs
    }

    /// Builds a value from a `u64`.
    pub const fn from_u64(v: u64) -> U256 {
        U256 {
            limbs: [v, 0, 0, 0],
        }
    }

    /// Parses a big-endian hex string of at most 64 characters.
    ///
    /// # Errors
    ///
    /// Returns `None` on empty input, invalid characters, or overflow.
    pub fn from_hex(s: &str) -> Option<U256> {
        if s.is_empty() || s.len() > 64 {
            return None;
        }
        let padded = format!("{s:0>64}");
        let bytes = crate::hex::decode(&padded)?;
        let arr: [u8; 32] = bytes.try_into().ok()?;
        Some(U256::from_be_bytes(&arr))
    }

    /// Returns the zero-padded 64-character big-endian hex encoding.
    pub fn to_hex(&self) -> String {
        crate::hex::encode(&self.to_be_bytes())
    }

    /// Interprets 32 big-endian bytes.
    #[allow(clippy::needless_range_loop, reason = "limb indices are the clearer idiom here")]
    #[expect(clippy::expect_used, clippy::indexing_slicing, reason = "`i * 8..(i + 1) * 8` with `i < 4` slices a `[u8; 32]` into exact 8-byte chunks")]
    pub(crate) fn from_be_bytes(bytes: &[u8; 32]) -> U256 {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let chunk: [u8; 8] = bytes[i * 8..(i + 1) * 8].try_into().expect("8-byte chunk");
            limbs[3 - i] = u64::from_be_bytes(chunk);
        }
        U256 { limbs }
    }

    /// Serializes to 32 big-endian bytes.
    #[allow(clippy::needless_range_loop, reason = "limb indices are the clearer idiom here")]
    #[expect(clippy::indexing_slicing, reason = "`i * 8..(i + 1) * 8` with `i < 4` slices a `[u8; 32]` into exact 8-byte chunks")]
    pub(crate) fn to_be_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..(i + 1) * 8].copy_from_slice(&self.limbs[3 - i].to_be_bytes());
        }
        out
    }

    /// Returns `true` if the value is zero.
    pub(crate) fn is_zero(&self) -> bool {
        self.limbs == [0; 4]
    }

    /// Returns bit `i` (0 = least significant). Bits ≥ 256 are zero.
    #[expect(clippy::indexing_slicing, reason = "`i / 64 < 4` is guaranteed by the `i >= 256` early return")]
    pub fn bit(&self, i: usize) -> bool {
        if i >= 256 {
            return false;
        }
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of significant bits (0 for zero).
    #[cfg(test)]
    pub(crate) fn bit_len(&self) -> usize {
        for i in (0..4).rev() {
            if self.limbs[i] != 0 {
                return i * 64 + (64 - self.limbs[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// Wrapping addition; returns `(sum, carry)`.
    #[inline]
    #[allow(clippy::needless_range_loop, reason = "limb indices are the clearer idiom")]
    #[expect(clippy::indexing_slicing, reason = "limb indices are `0..4` loop counters over fixed `[u64; 4]` arrays — in bounds by construction")]
    pub(crate) fn adc(&self, other: &U256) -> (U256, bool) {
        let mut limbs = [0u64; 4];
        let mut carry = 0u64;
        for i in 0..4 {
            let v = self.limbs[i] as u128 + other.limbs[i] as u128 + carry as u128;
            limbs[i] = v as u64;
            carry = (v >> 64) as u64;
        }
        (U256 { limbs }, carry != 0)
    }

    /// Wrapping subtraction; returns `(difference, borrow)`.
    #[inline]
    #[allow(clippy::needless_range_loop, reason = "limb indices are the clearer idiom")]
    #[expect(clippy::indexing_slicing, reason = "limb indices are `0..4` loop counters over fixed `[u64; 4]` arrays — in bounds by construction")]
    pub(crate) fn sbb(&self, other: &U256) -> (U256, bool) {
        let mut limbs = [0u64; 4];
        let mut borrow = false;
        for i in 0..4 {
            let (d, b1) = self.limbs[i].overflowing_sub(other.limbs[i]);
            let (d, b2) = d.overflowing_sub(borrow as u64);
            limbs[i] = d;
            borrow = b1 | b2;
        }
        (U256 { limbs }, borrow)
    }

    /// Limb-wise select: `b` when `cond`, else `a`, without a branch.
    #[inline]
    #[allow(clippy::needless_range_loop, reason = "three arrays walked in step")]
    #[expect(clippy::indexing_slicing, reason = "limb indices are `0..4` loop counters over fixed `[u64; 4]` arrays — in bounds by construction")]
    fn select(cond: bool, a: &U256, b: &U256) -> U256 {
        let mask = 0u64.wrapping_sub(cond as u64);
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            limbs[i] = (a.limbs[i] & !mask) | (b.limbs[i] & mask);
        }
        U256 { limbs }
    }

    /// Modular addition for `self, other < modulus`.
    ///
    /// Branch-free: the reducing subtraction always runs and a mask
    /// selects the result — the carry/compare outcome is a coin flip on
    /// random field elements, so a branch here mispredicts constantly
    /// inside the point-arithmetic inner loops.
    #[inline]
    pub(crate) fn add_mod(&self, other: &U256, modulus: &U256) -> U256 {
        debug_assert!(self < modulus && other < modulus);
        let (sum, carry) = self.adc(other);
        let (diff, borrow) = sum.sbb(modulus);
        U256::select(carry | !borrow, &sum, &diff)
    }

    /// Modular subtraction for `self, other < modulus` (branch-free,
    /// see [`U256::add_mod`]).
    #[inline]
    pub(crate) fn sub_mod(&self, other: &U256, modulus: &U256) -> U256 {
        debug_assert!(self < modulus && other < modulus);
        let (diff, borrow) = self.sbb(other);
        let (wrapped, _) = diff.adc(modulus);
        U256::select(borrow, &diff, &wrapped)
    }

    /// Doubles the value modulo `modulus` (`self < modulus`).
    pub(crate) fn double_mod(&self, modulus: &U256) -> U256 {
        self.add_mod(self, modulus)
    }

    /// Reduces an arbitrary 256-bit value modulo `modulus`, assuming
    /// `modulus > 2^255` (true for both P-256 moduli), so at most one
    /// subtraction is needed.
    pub(crate) fn reduce_once(&self, modulus: &U256) -> U256 {
        debug_assert!(modulus.bit(255), "modulus must exceed 2^255");
        if self >= modulus {
            self.sbb(modulus).0
        } else {
            *self
        }
    }

    /// Full 256x256 -> 512-bit multiplication (little-endian 8 limbs).
    #[cfg(test)]
    pub(crate) fn widening_mul(&self, other: &U256) -> [u64; 8] {
        let mut t = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let v = t[i + j] as u128 + self.limbs[i] as u128 * other.limbs[j] as u128 + carry;
                t[i + j] = v as u64;
                carry = v >> 64;
            }
            t[i + 4] = carry as u64;
        }
        t
    }

    /// Full 256-bit squaring to 512 bits (little-endian 8 limbs).
    ///
    /// Exploits the symmetry of the cross products (`a_i·a_j` appears
    /// twice for `i ≠ j`): 6 cross multiplications doubled once, plus 4
    /// diagonal squares, versus 16 multiplications for the generic path.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "`i + j` with `i, j < 4` stays inside the fixed 8-limb product array")]
    pub(crate) fn widening_square(&self) -> [u64; 8] {
        let a = &self.limbs;
        let mut t = [0u64; 8];
        // Cross products a_i * a_j for i < j.
        for i in 0..3 {
            let mut carry: u128 = 0;
            for j in (i + 1)..4 {
                let v = t[i + j] as u128 + a[i] as u128 * a[j] as u128 + carry;
                t[i + j] = v as u64;
                carry = v >> 64;
            }
            // t[i + 4] is untouched so far, so the carry cannot overflow.
            t[i + 4] = carry as u64;
        }
        // Double the cross products (t[7] is zero before the shift).
        let mut high = 0u64;
        for limb in t.iter_mut() {
            let new_high = *limb >> 63;
            *limb = (*limb << 1) | high;
            high = new_high;
        }
        // Add the diagonal squares a_i^2 at positions 2i, 2i+1.
        let mut carry: u128 = 0;
        for i in 0..4 {
            let sq = a[i] as u128 * a[i] as u128;
            let lo = t[2 * i] as u128 + (sq as u64) as u128 + carry;
            t[2 * i] = lo as u64;
            let hi = t[2 * i + 1] as u128 + (sq >> 64) + (lo >> 64);
            t[2 * i + 1] = hi as u64;
            carry = hi >> 64;
        }
        debug_assert_eq!(carry, 0);
        t
    }
}

/// Montgomery arithmetic context for a fixed odd 256-bit modulus.
///
/// Values inside the Montgomery domain are plain [`U256`]s; the caller is
/// responsible for keeping domain and plain representations apart (the
/// `crate::p256` module wraps this in typed field/scalar elements).
///
/// # Examples
///
/// ```
/// use hlf_crypto::{Monty, U256};
///
/// let m = Monty::new(U256::from_hex(
///     "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551",
/// ).unwrap());
/// let a = m.to_monty(&U256::from_u64(3));
/// let b = m.to_monty(&U256::from_u64(5));
/// assert_eq!(m.from_monty(&m.mul(&a, &b)), U256::from_u64(15));
/// ```
#[derive(Clone, Debug)]
pub struct Monty {
    modulus: U256,
    /// `-modulus^{-1} mod 2^64`.
    n0: u64,
    /// `R mod modulus` where `R = 2^256` (this is `1` in the domain).
    r1: U256,
    /// `R^2 mod modulus`, used to enter the domain.
    r2: U256,
    /// Set when the modulus is the P-256 field prime, whose Solinas
    /// structure admits a reduction round with a single multiplication
    /// (see [`Monty::reduce_wide`]).
    p256_field: bool,
}

/// Little-endian limbs of the P-256 field prime
/// `p = 2^256 - 2^224 + 2^192 + 2^96 - 1`.
const P256_FIELD_LIMBS: [u64; 4] = [
    0xffff_ffff_ffff_ffff,
    0x0000_0000_ffff_ffff,
    0,
    0xffff_ffff_0000_0001,
];

impl Monty {
    /// Creates a context for an odd modulus greater than `2^255`.
    ///
    /// # Panics
    ///
    /// Panics if the modulus is even or does not exceed `2^255` (both
    /// P-256 moduli do; the bound keeps single-subtraction reduction valid).
    pub fn new(modulus: U256) -> Monty {
        assert!(modulus.bit(0), "modulus must be odd");
        assert!(modulus.bit(255), "modulus must exceed 2^255");

        // Newton's iteration for the inverse of modulus mod 2^64:
        // inv_{k+1} = inv_k * (2 - m * inv_k); doubling precision each step.
        let m0 = modulus.limbs[0];
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        debug_assert_eq!(m0.wrapping_mul(inv), 1);
        let n0 = inv.wrapping_neg();

        // r1 = 2^256 mod m by 256 modular doublings of 1;
        // r2 = 2^512 mod m by 256 more.
        let mut r = U256::ONE;
        for _ in 0..256 {
            r = r.double_mod(&modulus);
        }
        let r1 = r;
        for _ in 0..256 {
            r = r.double_mod(&modulus);
        }
        let r2 = r;

        let p256_field = modulus.limbs == P256_FIELD_LIMBS;
        debug_assert!(!p256_field || n0 == 1);

        Monty {
            modulus,
            n0,
            r1,
            r2,
            p256_field,
        }
    }

    /// The modulus this context reduces by.
    pub(crate) fn modulus(&self) -> &U256 {
        &self.modulus
    }

    /// `1` in the Montgomery domain (`R mod m`).
    pub(crate) fn one(&self) -> U256 {
        self.r1
    }

    /// Converts a plain value (must be `< modulus`) into the domain.
    pub fn to_monty(&self, a: &U256) -> U256 {
        debug_assert!(a < &self.modulus);
        self.mul(a, &self.r2)
    }

    /// Converts a domain value back to its plain representation.
    pub fn from_monty(&self, a: &U256) -> U256 {
        self.montgomery_reduce_product(a, &U256::ONE)
    }

    /// Montgomery product `a * b * R^{-1} mod m`.
    ///
    /// For the P-256 field prime the schoolbook product feeds the
    /// Solinas-specialised reduction (20 multiplications total instead
    /// of CIOS's 36); other moduli use interleaved CIOS.
    #[inline(always)]
    pub fn mul(&self, a: &U256, b: &U256) -> U256 {
        if self.p256_field {
            self.montgomery_mul_p256(a, b)
        } else {
            self.montgomery_reduce_product(a, b)
        }
    }

    /// Interleaved CIOS product specialised to the P-256 field prime:
    /// five multiplications per round instead of nine (see
    /// [`Monty::reduce_wide_p256`] for the Solinas round derivation).
    #[inline(always)]
    #[allow(clippy::needless_range_loop, reason = "CIOS is written in index form")]
    #[expect(clippy::indexing_slicing, reason = "limb indices are `0..4` loop counters over fixed `[u64; 4]` arrays — in bounds by construction")]
    fn montgomery_mul_p256(&self, a: &U256, b: &U256) -> U256 {
        const M3: u64 = 0xffff_ffff_0000_0001;
        let mut t = [0u64; 6];
        for i in 0..4 {
            // t += a[i] * b
            let ai = a.limbs[i] as u128;
            let mut carry: u128 = 0;
            for j in 0..4 {
                let v = t[j] as u128 + ai * b.limbs[j] as u128 + carry;
                t[j] = v as u64;
                carry = v >> 64;
            }
            let v = t[4] as u128 + carry;
            t[4] = v as u64;
            t[5] = (v >> 64) as u64;

            // Reduce with mu = t[0] (p ≡ -1 mod 2^64) and shift down a limb.
            let mu = t[0] as u128;
            let v = t[1] as u128 + (mu << 32);
            t[0] = v as u64;
            let carry = v >> 64;
            let v = t[2] as u128 + carry;
            t[1] = v as u64;
            let carry = v >> 64;
            let v = t[3] as u128 + mu * M3 as u128 + carry;
            t[2] = v as u64;
            let carry = v >> 64;
            let v = t[4] as u128 + carry;
            t[3] = v as u64;
            let carry = v >> 64;
            t[4] = (t[5] as u128 + carry) as u64;
            t[5] = 0;
        }
        let result = U256 {
            limbs: [t[0], t[1], t[2], t[3]],
        };
        if t[4] != 0 || result >= self.modulus {
            result.sbb(&self.modulus).0
        } else {
            result
        }
    }

    /// Montgomery square.
    ///
    /// Uses the symmetric 512-bit squaring plus a standalone Montgomery
    /// reduction, saving roughly a third of the 64×64 multiplications
    /// compared with the CIOS product — the point doubling chains of
    /// [`crate::p256`] are squaring-heavy, so this shows up directly in
    /// ECDSA sign/verify latency.
    #[inline(always)]
    pub(crate) fn square(&self, a: &U256) -> U256 {
        self.reduce_wide(&a.widening_square())
    }

    /// Montgomery reduction of a 512-bit value `t < m·2^256`:
    /// returns `t · R^{-1} mod m`.
    #[inline(always)]
    pub(crate) fn reduce_wide(&self, wide: &[u64; 8]) -> U256 {
        if self.p256_field {
            self.reduce_wide_p256(wide)
        } else {
            self.reduce_wide_generic(wide)
        }
    }

    /// Generic-modulus Montgomery reduction of a 512-bit value.
    ///
    /// The carry leaving round `i` belongs at limb `i + 4`, which round
    /// `i + 1` is about to write anyway (its `j = 3` step), so it is
    /// deferred one round instead of propagated — no data-dependent
    /// carry loop. The deferred carry is absorbed *before* the `mu·m[3]`
    /// product is added so the u128 accumulator cannot overflow even
    /// when `m[3] = 2^64 - 1`.
    #[expect(clippy::indexing_slicing, reason = "`i + j` with `i, j < 4` stays inside the fixed 8-limb product array")]
    fn reduce_wide_generic(&self, wide: &[u64; 8]) -> U256 {
        let m = &self.modulus.limbs;
        let mut t = *wide;
        let mut pending: u128 = 0;
        for i in 0..4 {
            let mu = t[i].wrapping_mul(self.n0) as u128;
            let mut carry = (t[i] as u128 + mu * m[0] as u128) >> 64;
            for j in 1..3 {
                let v = t[i + j] as u128 + mu * m[j] as u128 + carry;
                t[i + j] = v as u64;
                carry = v >> 64;
            }
            let absorbed = t[i + 3] as u128 + pending;
            let v = (absorbed as u64 as u128) + mu * m[3] as u128 + carry;
            t[i + 3] = v as u64;
            pending = (v >> 64) + (absorbed >> 64);
        }
        // The final round's carry lands on limb 7; its overflow is the
        // virtual limb t[8], which Montgomery bounds keep at 0 or 1.
        let v = t[7] as u128 + pending;
        t[7] = v as u64;
        let extra = (v >> 64) as u64;
        let result = U256 {
            limbs: [t[4], t[5], t[6], t[7]],
        };
        if extra != 0 || result >= self.modulus {
            result.sbb(&self.modulus).0
        } else {
            result
        }
    }

    /// Montgomery reduction specialised to the P-256 field prime.
    ///
    /// Because `p ≡ -1 (mod 2^64)`, the round quotient is `mu = t[i]`
    /// with no multiplication, and the Solinas limbs collapse the
    /// `mu·p` accumulation into shifts:
    ///
    /// - limb `i`:   `t[i] + mu·(2^64 - 1) = mu·2^64` — zeroed, carries `mu`;
    /// - limb `i+1`: `mu·(2^32 - 1)` plus that carry is exactly `mu << 32`;
    /// - limb `i+2`: `m[2] = 0`, carries only;
    /// - limb `i+3`: the single real product `mu · 0xffffffff00000001`.
    ///
    /// One multiplication per round instead of five; the carry leaving
    /// round `i` is deferred to round `i + 1`'s limb-`i+4` write exactly
    /// as in the generic path.
    #[inline(always)]
    #[expect(clippy::indexing_slicing, reason = "`i + j` with `i, j < 4` stays inside the fixed 8-limb product array")]
    fn reduce_wide_p256(&self, wide: &[u64; 8]) -> U256 {
        const M3: u64 = 0xffff_ffff_0000_0001;
        let mut t = *wide;
        let mut pending: u128 = 0;
        for i in 0..4 {
            let mu = t[i] as u128;
            let v = t[i + 1] as u128 + (mu << 32);
            t[i + 1] = v as u64;
            let carry = v >> 64;
            let v = t[i + 2] as u128 + carry;
            t[i + 2] = v as u64;
            let carry = v >> 64;
            // Bound: t + mu·M3 + carry + pending
            //      ≤ (2^64-1)·(2^64 - 2^32 + 2) + 2^64 < 2^128 — no overflow.
            let v = t[i + 3] as u128 + mu * M3 as u128 + carry + pending;
            t[i + 3] = v as u64;
            pending = v >> 64;
        }
        let v = t[7] as u128 + pending;
        t[7] = v as u64;
        let extra = (v >> 64) as u64;
        let result = U256 {
            limbs: [t[4], t[5], t[6], t[7]],
        };
        if extra != 0 || result >= self.modulus {
            result.sbb(&self.modulus).0
        } else {
            result
        }
    }

    #[allow(clippy::needless_range_loop, reason = "CIOS is written in index form")]
    #[expect(clippy::indexing_slicing, reason = "limb indices are `0..4` loop counters over fixed `[u64; 4]` arrays — in bounds by construction")]
    fn montgomery_reduce_product(&self, a: &U256, b: &U256) -> U256 {
        let m = &self.modulus.limbs;
        let mut t = [0u64; 6];
        for i in 0..4 {
            // t += a[i] * b
            let ai = a.limbs[i] as u128;
            let mut carry: u128 = 0;
            for j in 0..4 {
                let v = t[j] as u128 + ai * b.limbs[j] as u128 + carry;
                t[j] = v as u64;
                carry = v >> 64;
            }
            let v = t[4] as u128 + carry;
            t[4] = v as u64;
            t[5] = (v >> 64) as u64;

            // Reduce: make t divisible by 2^64 and shift down one limb.
            let mu = (t[0].wrapping_mul(self.n0)) as u128;
            let v = t[0] as u128 + mu * m[0] as u128;
            let mut carry = v >> 64;
            for j in 1..4 {
                let v = t[j] as u128 + mu * m[j] as u128 + carry;
                t[j - 1] = v as u64;
                carry = v >> 64;
            }
            let v = t[4] as u128 + carry;
            t[3] = v as u64;
            carry = v >> 64;
            let v = t[5] as u128 + carry;
            t[4] = v as u64;
            t[5] = (v >> 64) as u64;
            debug_assert_eq!(t[5], 0);
        }
        let result = U256 {
            limbs: [t[0], t[1], t[2], t[3]],
        };
        if t[4] != 0 || result >= self.modulus {
            result.sbb(&self.modulus).0
        } else {
            result
        }
    }

    /// Domain addition.
    #[inline(always)]
    pub(crate) fn add(&self, a: &U256, b: &U256) -> U256 {
        a.add_mod(b, &self.modulus)
    }

    /// Domain subtraction.
    #[inline(always)]
    pub(crate) fn sub(&self, a: &U256, b: &U256) -> U256 {
        a.sub_mod(b, &self.modulus)
    }

    /// Domain negation of a *non-zero* `a` when `negate` is set, `a`
    /// itself otherwise — without a branch on either: the subtraction
    /// always runs and a mask selects. (Zero would come back as the
    /// non-canonical `modulus`; the callers negate curve `y`
    /// coordinates, which are never zero on P-256.)
    #[inline]
    pub(crate) fn neg_if(&self, a: &U256, negate: bool) -> U256 {
        debug_assert!(!a.is_zero());
        let (negated, _) = self.modulus.sbb(a);
        U256::select(negate, a, &negated)
    }

    /// Domain exponentiation by a plain exponent (square-and-multiply).
    #[cfg(test)]
    pub(crate) fn pow(&self, base: &U256, exponent: &U256) -> U256 {
        let mut acc = self.one();
        let bits = exponent.bit_len();
        for i in (0..bits).rev() {
            acc = self.square(&acc);
            if exponent.bit(i) {
                acc = self.mul(&acc, base);
            }
        }
        acc
    }

    /// Domain inversion for prime moduli via Fermat's little theorem.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `a` is zero; inversion of zero is undefined.
    #[cfg(test)]
    pub(crate) fn inv(&self, a: &U256) -> U256 {
        debug_assert!(!a.is_zero(), "inversion of zero");
        let exp = self.modulus.sbb(&U256::from_u64(2)).0;
        self.pow(a, &exp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N_HEX: &str = "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551";
    const P_HEX: &str = "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff";

    fn n_ctx() -> Monty {
        Monty::new(U256::from_hex(N_HEX).unwrap())
    }

    #[test]
    fn hex_roundtrip() {
        let v = U256::from_hex("deadbeef00112233").unwrap();
        assert_eq!(v.to_hex(), format!("{:064x}", 0xdeadbeef00112233u64));
        assert_eq!(U256::from_hex(&v.to_hex()).unwrap(), v);
        assert!(U256::from_hex("").is_none());
        assert!(U256::from_hex(&"f".repeat(65)).is_none());
    }

    #[test]
    fn be_bytes_roundtrip() {
        let v = U256::from_hex(N_HEX).unwrap();
        assert_eq!(U256::from_be_bytes(&v.to_be_bytes()), v);
    }

    #[test]
    fn add_sub_carry_borrow() {
        let max = U256::from_limbs([u64::MAX; 4]);
        let (sum, carry) = max.adc(&U256::ONE);
        assert!(carry);
        assert!(sum.is_zero());
        let (diff, borrow) = U256::ZERO.sbb(&U256::ONE);
        assert!(borrow);
        assert_eq!(diff, max);
    }

    #[test]
    fn ordering_and_bits() {
        let a = U256::from_hex("0100000000000000000000000000000000").unwrap();
        let b = U256::from_u64(u64::MAX);
        assert!(a > b);
        assert_eq!(a.bit_len(), 129);
        assert!(a.bit(128));
        assert!(!a.bit(127));
        assert!(!a.bit(999));
        assert_eq!(U256::ZERO.bit_len(), 0);
    }

    #[test]
    fn widening_square_matches_widening_mul() {
        for v in [
            U256::ZERO,
            U256::ONE,
            U256::from_u64(u64::MAX),
            U256::from_hex(N_HEX).unwrap(),
            U256::from_limbs([u64::MAX; 4]),
        ] {
            assert_eq!(v.widening_square(), v.widening_mul(&v));
        }
    }

    #[test]
    fn reduce_wide_matches_cios() {
        let ctx = n_ctx();
        let a = ctx.to_monty(&U256::from_hex("deadbeefcafebabe0123456789abcdef").unwrap());
        let b = ctx.to_monty(&U256::from_u64(0x1337));
        assert_eq!(ctx.reduce_wide(&a.widening_mul(&b)), ctx.mul(&a, &b));
        assert_eq!(ctx.square(&a), ctx.mul(&a, &a));
        // Multiplying by the domain's 1 (= R mod m) and reducing is the
        // identity on domain values: a·R·R^{-1} ≡ a.
        let wide = a.widening_mul(&ctx.one());
        assert_eq!(ctx.reduce_wide(&wide), a);
    }

    #[test]
    fn widening_mul_small_values() {
        let a = U256::from_u64(u64::MAX);
        let prod = a.widening_mul(&a);
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        assert_eq!(prod[0], 1);
        assert_eq!(prod[1], u64::MAX - 1);
        assert_eq!(prod[2..], [0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn monty_roundtrip_and_mul() {
        let ctx = n_ctx();
        for v in [0u64, 1, 2, 12345, u64::MAX] {
            let x = U256::from_u64(v);
            assert_eq!(ctx.from_monty(&ctx.to_monty(&x)), x);
        }
        let a = ctx.to_monty(&U256::from_u64(1_000_003));
        let b = ctx.to_monty(&U256::from_u64(999_983));
        let prod = ctx.from_monty(&ctx.mul(&a, &b));
        assert_eq!(prod, U256::from_u64(1_000_003 * 999_983));
    }

    #[test]
    fn monty_near_modulus_wraps() {
        let ctx = n_ctx();
        let n_minus_1 = ctx.modulus().sbb(&U256::ONE).0;
        let a = ctx.to_monty(&n_minus_1);
        // (n-1)^2 mod n == 1
        assert_eq!(ctx.from_monty(&ctx.square(&a)), U256::ONE);
        // (n-1) + 1 == 0 mod n
        assert!(ctx.add(&n_minus_1, &U256::ONE).is_zero());
    }

    #[test]
    fn inversion_on_both_moduli() {
        for modulus in [N_HEX, P_HEX] {
            let ctx = Monty::new(U256::from_hex(modulus).unwrap());
            for v in [1u64, 2, 3, 65537, 0xdeadbeef] {
                let a = ctx.to_monty(&U256::from_u64(v));
                let inv = ctx.inv(&a);
                assert_eq!(
                    ctx.from_monty(&ctx.mul(&a, &inv)),
                    U256::ONE,
                    "v={v} mod {modulus}"
                );
            }
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let ctx = n_ctx();
        let base = ctx.to_monty(&U256::from_u64(7));
        let mut acc = ctx.one();
        for _ in 0..13 {
            acc = ctx.mul(&acc, &base);
        }
        assert_eq!(ctx.pow(&base, &U256::from_u64(13)), acc);
        assert_eq!(ctx.pow(&base, &U256::ZERO), ctx.one());
    }

    #[test]
    fn neg_is_additive_inverse() {
        let ctx = n_ctx();
        let a = U256::from_u64(424242);
        let neg = ctx.neg_if(&a, true);
        assert!(ctx.add(&a, &neg).is_zero());
        assert_eq!(ctx.neg_if(&a, false), a);
    }

    #[test]
    fn reduce_once() {
        let n = U256::from_hex(N_HEX).unwrap();
        let over = n.adc(&U256::from_u64(5)).0;
        assert_eq!(over.reduce_once(&n), U256::from_u64(5));
        assert_eq!(U256::from_u64(5).reduce_once(&n), U256::from_u64(5));
    }

    /// Seeded property loops (see `hlf_simnet::for_each_case`).
    mod properties {
        use super::*;
        use hlf_simnet::{for_each_case, SimRng};

        const CASES: u64 = 64;

        fn arb_u256(rng: &mut SimRng) -> U256 {
            U256::from_limbs([rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()])
        }

        #[test]
        fn add_then_sub_roundtrips() {
            for_each_case(0xb160_0001, CASES, |rng| {
                let (a, b) = (arb_u256(rng), arb_u256(rng));
                let (sum, _) = a.adc(&b);
                let (back, _) = sum.sbb(&b);
                assert_eq!(back, a);
            });
        }

        #[test]
        fn mul_commutes() {
            for_each_case(0xb160_0002, CASES, |rng| {
                let (a, b) = (arb_u256(rng), arb_u256(rng));
                assert_eq!(a.widening_mul(&b), b.widening_mul(&a));
            });
        }

        #[test]
        fn monty_mul_matches_plain_semantics() {
            // Products that fit in 128 bits can be checked exactly.
            let ctx = Monty::new(U256::from_hex(super::N_HEX).unwrap());
            for_each_case(0xb160_0003, CASES, |rng| {
                let (a, b) = (rng.next_u64(), rng.next_u64());
                let am = ctx.to_monty(&U256::from_u64(a));
                let bm = ctx.to_monty(&U256::from_u64(b));
                let got = ctx.from_monty(&ctx.mul(&am, &bm));
                let expect = (a as u128) * (b as u128);
                let expect = U256::from_limbs([expect as u64, (expect >> 64) as u64, 0, 0]);
                assert_eq!(got, expect);
            });
        }

        #[test]
        fn modular_add_sub_inverse() {
            let n = U256::from_hex(super::N_HEX).unwrap();
            for_each_case(0xb160_0004, CASES, |rng| {
                let a = arb_u256(rng).reduce_once(&n);
                let a = if a >= n { a.sbb(&n).0 } else { a };
                let b = arb_u256(rng).reduce_once(&n);
                let b = if b >= n { b.sbb(&n).0 } else { b };
                let s = a.add_mod(&b, &n);
                assert_eq!(s.sub_mod(&b, &n), a);
            });
        }

        #[test]
        fn bytes_roundtrip() {
            for_each_case(0xb160_0005, CASES, |rng| {
                let a = arb_u256(rng);
                assert_eq!(U256::from_be_bytes(&a.to_be_bytes()), a);
            });
        }

        #[test]
        fn widening_square_is_self_mul() {
            for_each_case(0xb160_0006, CASES, |rng| {
                let a = arb_u256(rng);
                assert_eq!(a.widening_square(), a.widening_mul(&a));
            });
        }

        #[test]
        fn monty_square_matches_mul() {
            let ctx = Monty::new(U256::from_hex(super::N_HEX).unwrap());
            for_each_case(0xb160_0007, CASES, |rng| {
                let a = arb_u256(rng).reduce_once(ctx.modulus());
                let am = ctx.to_monty(&a);
                assert_eq!(ctx.square(&am), ctx.mul(&am, &am));
                assert_eq!(ctx.reduce_wide(&am.widening_mul(&am)), ctx.mul(&am, &am));
            });
        }
    }
}
