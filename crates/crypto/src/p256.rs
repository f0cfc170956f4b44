//! The NIST P-256 (secp256r1) elliptic-curve group.
//!
//! Field and scalar elements are [`U256`]s held in Montgomery form; points
//! use Jacobian projective coordinates. Formulas are the standard
//! `dbl-2001-b` (exploiting `a = -3`) and `add-2007-bl`.

use crate::bignum::{Monty, U256};
use std::fmt;
use std::sync::{Mutex, OnceLock};

#[cfg(target_arch = "x86_64")]
mod lanes;

/// Field prime `p = 2^256 - 2^224 + 2^192 + 2^96 - 1`.
pub(crate) const P_HEX: &str = "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff";
/// Group order `n`.
pub(crate) const N_HEX: &str = "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551";
/// Curve coefficient `b`.
#[cfg(test)]
const B_HEX: &str = "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b";
/// Base-point x coordinate.
pub(crate) const GX_HEX: &str = "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296";
/// Base-point y coordinate.
pub(crate) const GY_HEX: &str = "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5";

/// Montgomery context for the field prime `p`.
#[expect(clippy::expect_used, reason = "parses compile-time curve-constant hex — cannot fail for a correct constant, proven by tests")]
pub(crate) fn field() -> &'static Monty {
    static CTX: OnceLock<Monty> = OnceLock::new();
    CTX.get_or_init(|| Monty::new(U256::from_hex(P_HEX).expect("valid p")))
}

/// Montgomery context for the group order `n`.
#[expect(clippy::expect_used, reason = "parses compile-time curve-constant hex — cannot fail for a correct constant, proven by tests")]
pub(crate) fn scalar_field() -> &'static Monty {
    static CTX: OnceLock<Monty> = OnceLock::new();
    CTX.get_or_init(|| Monty::new(U256::from_hex(N_HEX).expect("valid n")))
}

/// The group order as a plain integer.
#[expect(clippy::expect_used, reason = "parses compile-time curve-constant hex — cannot fail for a correct constant, proven by tests")]
pub(crate) fn order() -> &'static U256 {
    static N: OnceLock<U256> = OnceLock::new();
    N.get_or_init(|| U256::from_hex(N_HEX).expect("valid n"))
}

/// The base point `G`.
#[expect(clippy::expect_used, reason = "parses compile-time curve-constant hex — cannot fail for a correct constant, proven by tests")]
fn base_point() -> &'static Point {
    static G: OnceLock<Point> = OnceLock::new();
    G.get_or_init(|| {
        let f = field();
        Point {
            x: f.to_monty(&U256::from_hex(GX_HEX).expect("valid gx")),
            y: f.to_monty(&U256::from_hex(GY_HEX).expect("valid gy")),
            z: f.one(),
        }
    })
}

/// The curve coefficients `a = -3` and `b` in Montgomery form, for the
/// curve-equation checks the tests hold points against.
#[cfg(test)]
fn curve_ab() -> (U256, U256) {
    let f = field();
    let a = f.sub(&U256::ZERO, &f.to_monty(&U256::from_u64(3)));
    let b = f.to_monty(&U256::from_hex(B_HEX).unwrap());
    (a, b)
}

/// A non-identity point in affine coordinates (Montgomery-form
/// components, `z = 1` implied).
///
/// Only used for precomputed tables: mixed Jacobian+affine addition
/// ([`Point::add_affine`]) saves the `z2`-dependent work of the general
/// formula (~4 field multiplications per addition).
#[derive(Clone, Copy, Debug)]
struct AffinePoint {
    x: U256,
    y: U256,
}

/// `x^(2^n)`: `n` squarings in the domain of `f`.
fn sqn(f: &Monty, mut x: U256, n: usize) -> U256 {
    for _ in 0..n {
        x = f.square(&x);
    }
    x
}

/// Inverts a non-zero field element with a fixed addition chain for
/// `p − 2` (255 squarings + 12 multiplications, versus ~384 operations
/// for generic square-and-multiply).
///
/// The chain exploits the Solinas structure of
/// `p = 2^256 − 2^224 + 2^192 + 2^96 − 1`; its correctness is checked
/// against [`Monty::inv`] by the property tests below.
fn invert_field(a: &U256) -> U256 {
    cost::count(cost::Op::FieldInversion);
    let f = field();
    let x1 = *a; //                                   a^(2^1 - 1)
    let x2 = f.mul(&sqn(f, x1, 1), &x1); //           a^(2^2 - 1)
    let x3 = f.mul(&sqn(f, x2, 1), &x1); //           a^(2^3 - 1)
    let x6 = f.mul(&sqn(f, x3, 3), &x3); //           a^(2^6 - 1)
    let x12 = f.mul(&sqn(f, x6, 6), &x6); //          a^(2^12 - 1)
    let x15 = f.mul(&sqn(f, x12, 3), &x3); //         a^(2^15 - 1)
    let x16 = f.mul(&sqn(f, x15, 1), &x1); //         a^(2^16 - 1)
    let x32 = f.mul(&sqn(f, x16, 16), &x16); //       a^(2^32 - 1)
    let i53 = sqn(f, x32, 15); //                     a^((2^32 - 1)·2^15)
    let x47 = f.mul(&x15, &i53); //                   a^(2^47 - 1)
    // (((i53·2^17 + 1)·2^143 + x47)·2^47 + x47)·2^2 + 1  =  p - 2
    let t = f.mul(&sqn(f, i53, 17), &x1);
    let t = f.mul(&sqn(f, t, 143), &x47);
    let t = f.mul(&x47, &sqn(f, t, 47));
    f.mul(&sqn(f, t, 2), &x1)
}

/// The low 128 bits of `n − 2`, `0xbce6faada7179e84f3b9cac2fc63254f`,
/// as a 4-bit sliding window read from the top: each step squares the
/// accumulator `.0` times, then multiplies by `a^.1` (`.1` odd, ≤ 15).
const SCALAR_INV_TAIL: [(usize, usize); 27] = [
    (4, 11), (2, 3), (5, 7), (6, 13), (4, 15), (4, 5), (5, 11), (5, 13), (5, 7),
    (7, 11), (2, 3), (6, 15), (2, 1), (8, 9), (3, 7), (5, 7), (4, 7), (5, 7),
    (5, 5), (3, 3), (8, 11), (4, 15), (5, 3), (5, 3), (6, 9), (4, 5), (6, 15),
];

/// Inverts a non-zero scalar (Montgomery form, modulo the group order)
/// with a fixed addition chain for `n − 2`: 253 squarings + 39
/// multiplications, versus ~430 operations for [`Monty::inv`]'s generic
/// square-and-multiply.
///
/// The top half of `n − 2` is `ffffffff 00000000 ffffffff ffffffff`,
/// three copies of `a^(2^32 − 1)`; the bottom half has no structure and
/// goes through [`SCALAR_INV_TAIL`]. The exponent is a public constant,
/// so the sequence of operations — and every table index — is the same
/// for every input: constant-time by construction. Checked against
/// [`Monty::inv`] by the tests below.
#[expect(clippy::indexing_slicing, reason = "`power / 2` with `power ≤ 15` from the constant `SCALAR_INV_TAIL` indexes the 8-entry `odd` table, as does `i - 1` with `i ∈ 1..8`")]
pub(crate) fn invert_scalar(a: &U256) -> U256 {
    cost::count(cost::Op::ScalarInversion);
    let sf = scalar_field();
    // odd[i] = a^(2i + 1)
    let a2 = sf.square(a);
    let mut odd = [*a; 8];
    for i in 1..8 {
        odd[i] = sf.mul(&odd[i - 1], &a2);
    }
    let x4 = odd[7]; //                                a^(2^4 - 1)
    let x8 = sf.mul(&sqn(sf, x4, 4), &x4); //          a^(2^8 - 1)
    let x16 = sf.mul(&sqn(sf, x8, 8), &x8); //         a^(2^16 - 1)
    let x32 = sf.mul(&sqn(sf, x16, 16), &x16); //      a^(2^32 - 1)
    let t = sf.mul(&sqn(sf, x32, 64), &x32); //        ffffffff 00000000 ffffffff
    let mut t = sf.mul(&sqn(sf, t, 32), &x32); //      .. ffffffff
    for (squarings, power) in SCALAR_INV_TAIL {
        t = sf.mul(&sqn(sf, t, squarings), &odd[power / 2]);
    }
    t
}

/// Inverts a non-zero scalar (Montgomery form) in variable time, for a
/// *public* value only: the `s` of signatures being verified.
/// [`invert_scalar`]'s chain is the path for secrets (signing nonces).
///
/// Kaliski's almost-Montgomery inverse: a binary GCD of halvings,
/// subtractions and doublings whose sequence follows the value (about
/// 380 steps of 256-bit adds and shifts, against the chain's 292
/// Montgomery products), returns `a⁻¹·2^k mod n` with `256 ≤ k ≤ 512`;
/// one product by `2^(512 − k)·2²⁵⁶` turns it into `a`'s inverse in the
/// domain, `a⁻¹·2⁵¹²`. Checked against [`Monty::inv`] by the tests below.
pub(crate) fn invert_scalar_public(a: &U256) -> U256 {
    cost::count(cost::Op::ScalarInversion);
    let sf = scalar_field();
    let n = order();
    let half = |v: &U256| {
        let [l0, l1, l2, l3] = v.limbs();
        U256::from_limbs([l0 >> 1 | l1 << 63, l1 >> 1 | l2 << 63, l2 >> 1 | l3 << 63, l3 >> 1])
    };
    // `n = u·s + v·r` with `u, v ≥ 1` holds throughout, so `r` and `s`
    // stay at most `n`, but for the last doubling of `r`.
    let (mut u, mut v, mut r, mut s, mut k) = (*n, *a, U256::ZERO, U256::ONE, 0usize);
    let mut carry = false;
    while !v.is_zero() {
        if !u.bit(0) {
            u = half(&u);
            s = s.adc(&s).0;
        } else if !v.bit(0) {
            v = half(&v);
            r = r.adc(&r).0;
        } else if u > v {
            u = half(&u.sbb(&v).0);
            r = r.adc(&s).0;
            s = s.adc(&s).0;
        } else {
            v = half(&v.sbb(&u).0);
            s = s.adc(&r).0;
            (r, carry) = r.adc(&r);
        }
        k += 1;
    }
    // `r < 2n` is `−a⁻¹·2^k`.
    if carry || &r >= n {
        r = r.sbb(n).0;
    }
    let almost = n.sbb(&r).0;
    debug_assert!((256..=512).contains(&k), "k = {k}");
    let shift = 512usize.saturating_sub(k);
    let limb = |i: usize| if shift / 64 == i { 1u64 << (shift % 64) } else { 0 };
    // `2^shift` in the domain; `2²⁵⁶` itself is `R`, whose domain form is `R²`.
    let power = if shift < 256 {
        sf.to_monty(&U256::from_limbs([limb(0), limb(1), limb(2), limb(3)]))
    } else {
        sf.to_monty(&sf.one())
    };
    sf.mul(&almost, &power)
}

/// Montgomery's trick: replaces every (non-zero) element of `values` by
/// its inverse in the domain of `f` with a *single* call to `invert` —
/// invert the product of all of them, then peel each element's inverse
/// off with two multiplications.
///
/// No branch and no index depends on a value, so the scalar use (ECDSA
/// nonces) is as constant-time as `invert` is.
pub(crate) fn batch_invert(f: &Monty, values: &mut [U256], invert: fn(&U256) -> U256) {
    // lint:secret-scope(values, value, prefix, before, acc, inv, own) —
    // group signing passes the RFC 6979 nonces: the running prefix
    // products and every peeled inverse are as secret as the nonces.
    let mut prefix = Vec::with_capacity(values.len());
    let mut acc = f.one();
    for value in values.iter() {
        prefix.push(acc); // product of everything before `value`
        acc = f.mul(&acc, value);
    }
    let mut inv = invert(&acc);
    for (value, before) in values.iter_mut().zip(&prefix).rev() {
        let own = f.mul(&inv, before);
        inv = f.mul(&inv, value);
        *value = own;
    }
}

/// `1/z` of every (non-identity) point of a batch, for a single field
/// inversion in total ([`batch_invert`]).
fn batch_invert_z(points: &[Point]) -> Vec<U256> {
    let mut z_invs: Vec<U256> = points.iter().map(|p| p.z).collect();
    debug_assert!(z_invs.iter().all(|z| !z.is_zero()), "the identity has no affine form");
    batch_invert(field(), &mut z_invs, invert_field);
    z_invs
}

/// Normalizes a batch of non-identity Jacobian points to affine with a
/// single field inversion.
fn batch_normalize(points: &[Point]) -> Vec<AffinePoint> {
    let f = field();
    points
        .iter()
        .zip(&batch_invert_z(points))
        .map(|(p, z_inv)| {
            let z_inv2 = f.square(z_inv);
            let z_inv3 = f.mul(&z_inv2, z_inv);
            AffinePoint {
                x: f.mul(&p.x, &z_inv2),
                y: f.mul(&p.y, &z_inv3),
            }
        })
        .collect()
}

/// Windows of a [`SignedComb`]: `37 · 7 = 259` bits cover a 256-bit
/// scalar plus the carry its signed recoding can push out of the top.
const COMB_WINDOWS: usize = 37;
/// Entries per window: the digit magnitudes `1..=64`.
const COMB_ENTRIES: usize = 64;

/// Booth recoding of a scalar into 37 signed radix-128 digits
/// `d_i ∈ [−64, 64]` with `scalar = Σ d_i · 128^i`.
///
/// Window `i` holds bits `7i .. 7i + 7`; a window above 64 (after the
/// carry from below) becomes `w − 128` and carries one into the next.
/// The top window holds 4 bits plus at most that carry, so nothing
/// leaves window 36. Branch-free: the carry is `(v + 63) >> 7`, and
/// every shift and limb index comes from the loop position, never the
/// scalar.
fn signed_digits(scalar: &U256) -> [i8; COMB_WINDOWS] {
    // lint:secret-scope(scalar, limbs, pair, v, carry, digits, digit) — the
    // digits of an RFC 6979 nonce are as secret as the nonce.
    let limbs = scalar.limbs();
    let mut digits = [0i8; COMB_WINDOWS];
    let mut carry = 0u64;
    for (i, digit) in digits.iter_mut().enumerate() {
        let (limb, shift) = ((7 * i) / 64, (7 * i) % 64);
        let low = limbs.get(limb).copied().unwrap_or(0) as u128;
        let high = limbs.get(limb + 1).copied().unwrap_or(0) as u128;
        let pair = low | high << 64;
        let v = ((pair >> shift) & 0x7f) as u64 + carry; // 0..=128
        carry = (v + 63) >> 7; // 1 exactly when v > 64
        *digit = (v as i64 - (carry << 7) as i64) as i8;
    }
    digits
}

/// Precomputed signed-digit comb for one fixed point `P`.
///
/// `windows[i][j - 1] = j · 128^i · P` for `i ∈ 0..37`, `j ∈ 1..=64`,
/// stored affine (2,368 points, 148 KiB, ~1 ms to build). A
/// multiplication by `P` recodes the scalar into 37 signed digits
/// ([`signed_digits`]) and performs **at most 37 mixed additions and
/// zero doublings**: every power of 128 is baked into the table, and a
/// negative digit adds the entry with its `y` negated branch-free.
///
/// One table for the generator serves [`Point::mul_base`]; ECDSA
/// verification builds one per long-lived public key
/// ([`crate::ecdsa::PinnedKey`]).
pub(crate) struct SignedComb {
    windows: Vec<[AffinePoint; COMB_ENTRIES]>,
    /// The radix-2⁵² copy the lane walks gather from, built on the
    /// comb's first lane walk.
    #[cfg(target_arch = "x86_64")]
    lanes: OnceLock<lanes::LaneComb>,
}

impl SignedComb {
    /// Builds the comb of a non-identity point: per window 32 doublings
    /// and 31 additions, then one batched field inversion for all 2,368
    /// entries.
    #[expect(clippy::expect_used, clippy::indexing_slicing, reason = "`j - 1`, `j / 2 - 1` and `j - 2` with `j ∈ 2..=64` index the 64-entry `multiples`; `chunks_exact(64)` yields exactly 64-entry chunks")]
    pub(crate) fn new(point: &Point) -> SignedComb {
        debug_assert!(!point.is_identity(), "the identity has no comb");
        let mut jacobian = Vec::with_capacity(COMB_WINDOWS * COMB_ENTRIES);
        let mut base = *point; // 128^i · P
        for _ in 0..COMB_WINDOWS {
            let mut multiples = [base; COMB_ENTRIES]; // multiples[j - 1] = j · base
            for j in 2..=COMB_ENTRIES {
                multiples[j - 1] = if j % 2 == 0 {
                    multiples[j / 2 - 1].double()
                } else {
                    multiples[j - 2].add(&base)
                };
            }
            jacobian.extend_from_slice(&multiples);
            base = multiples[COMB_ENTRIES - 1].double(); // 128 · old base
        }
        let windows = batch_normalize(&jacobian)
            .chunks_exact(COMB_ENTRIES)
            .map(|chunk| <[AffinePoint; COMB_ENTRIES]>::try_from(chunk).expect("64-entry window"))
            .collect();
        SignedComb {
            windows,
            #[cfg(target_arch = "x86_64")]
            lanes: OnceLock::new(),
        }
    }

    /// The comb's lane copy, built on first use.
    #[cfg(target_arch = "x86_64")]
    fn lane_comb(&self) -> &lanes::LaneComb {
        self.lanes.get_or_init(|| lanes::LaneComb::new(self))
    }

    /// `acc + scalar · P` for any 256-bit `scalar`: one mixed addition
    /// per nonzero signed digit (at most 37) and **no doublings**.
    #[expect(clippy::indexing_slicing, reason = "`magnitude ∈ 1..=64` after the zero check indexes the 64-entry window")]
    pub(crate) fn mul_add(&self, scalar: &U256, mut acc: Point) -> Point {
        // lint:secret-scope(scalar, digits, digit, sign, magnitude, entry) —
        // signing walks the generator's comb with the RFC 6979 nonce.
        let f = field();
        let digits = signed_digits(scalar);
        for (window, digit) in self.windows.iter().zip(digits) {
            let sign = digit >> 7; // 0, or −1 for a negative digit
            let magnitude = ((digit ^ sign) - sign) as usize; // |digit| ∈ 0..=64
            if magnitude != 0 { // lint:allow(consttime): zero-digit skip is a documented throughput/constant-time tradeoff (DESIGN.md §7): nonces are single-use RFC 6979 values and deployments are LAN ordering clusters without co-resident attackers
                let entry = &window[magnitude - 1]; // lint:allow(consttime): data-dependent comb lookup — documented throughput/constant-time tradeoff (DESIGN.md §7): nonces are single-use RFC 6979 values and deployments are LAN ordering clusters without co-resident attackers
                let signed = AffinePoint {
                    x: entry.x,
                    y: f.neg_if(&entry.y, sign != 0),
                };
                acc = acc.add_affine(&signed);
            }
        }
        acc
    }
}

/// The generator's comb, built on first use.
fn base_table() -> &'static SignedComb {
    static T: OnceLock<SignedComb> = OnceLock::new();
    T.get_or_init(|| SignedComb::new(&Point::generator()))
}

/// Nonces per lane walk of the generator's comb (`lanes`): one per
/// 64-bit lane of an AVX-512 register.
const LANES: usize = 8;

/// The fewest nonces worth a lane walk. A walk costs the same for one
/// filled lane as for eight, and about what one scalar walk costs: a
/// lone nonce — a vote's signature — gains nothing from it and keeps
/// [`Point::mul_base`], two already sign faster in the lanes.
const LANE_CROSSOVER: usize = 2;

/// Which walk [`Point::mul_base_group`] gives a chunk of at least
/// [`LANE_CROSSOVER`] nonces on this host, as CPUID selects it:
/// `"avx512-ifma"` or `"scalar"`, for the tests to say what they
/// compared.
#[cfg(test)]
pub(crate) fn mul_base_group_backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if lanes::available() {
        return "avx512-ifma";
    }
    "scalar"
}

/// Direct-mapped global cache of per-point affine window tables.
///
/// Building a window table costs 14 point operations plus one batched
/// field inversion — more than the mixed-addition savings it buys a
/// single multiplication. The callers that matter reuse the same few
/// points over and over (ECDSA verification multiplies by long-lived
/// public keys), so tables are cached keyed by the point's raw Jacobian
/// Montgomery limbs. A logically equal point with a different Jacobian
/// representation simply misses; identical `Point` values — the common
/// case — hit after the first call.
const WINDOW_CACHE_SLOTS: usize = 64;

struct WindowCacheEntry {
    key: (U256, U256, U256),
    table: [AffinePoint; 15],
}

fn window_cache() -> &'static [Mutex<Option<WindowCacheEntry>>] {
    static CACHE: OnceLock<Vec<Mutex<Option<WindowCacheEntry>>>> = OnceLock::new();
    CACHE
        .get_or_init(|| (0..WINDOW_CACHE_SLOTS).map(|_| Mutex::new(None)).collect())
        .as_slice()
}

/// A point on P-256 in Jacobian coordinates (Montgomery-form components).
///
/// The identity (point at infinity) is represented by `z = 0`.
///
/// # Examples
///
/// ```
/// use hlf_crypto::Point;
/// use hlf_crypto::U256;
///
/// let g = Point::generator();
/// let two_g = g.double();
/// assert_eq!(g.add(&g), two_g);
/// assert_eq!(g.mul(&U256::from_u64(2)), two_g);
/// ```
#[derive(Clone, Copy)]
pub struct Point {
    x: U256,
    y: U256,
    z: U256,
}

impl fmt::Debug for Point {
    #[expect(clippy::expect_used, reason = "`to_affine()` is reached only on the non-identity branch")]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_identity() {
            write!(f, "Point(identity)")
        } else {
            let (x, y) = self.to_affine().expect("non-identity point");
            write!(f, "Point(x=0x{}, y=0x{})", x.to_hex(), y.to_hex())
        }
    }
}

impl PartialEq for Point {
    fn eq(&self, other: &Self) -> bool {
        // Compare in affine terms without inversions:
        // X1*Z2^2 == X2*Z1^2 and Y1*Z2^3 == Y2*Z1^3.
        if self.is_identity() || other.is_identity() {
            return self.is_identity() == other.is_identity();
        }
        let f = field();
        let z1z1 = f.square(&self.z);
        let z2z2 = f.square(&other.z);
        let lhs_x = f.mul(&self.x, &z2z2);
        let rhs_x = f.mul(&other.x, &z1z1);
        if lhs_x != rhs_x {
            return false;
        }
        let z1z1z1 = f.mul(&z1z1, &self.z);
        let z2z2z2 = f.mul(&z2z2, &other.z);
        let lhs_y = f.mul(&self.y, &z2z2z2);
        let rhs_y = f.mul(&other.y, &z1z1z1);
        lhs_y == rhs_y
    }
}

impl Eq for Point {}

impl Point {
    /// The point at infinity (group identity).
    pub fn identity() -> Point {
        Point {
            x: field().one(),
            y: field().one(),
            z: U256::ZERO,
        }
    }

    /// The standard base point `G`.
    pub fn generator() -> Point {
        *base_point()
    }

    /// Builds a point from affine coordinates, checking the curve equation.
    /// Test-only, like [`Point::is_on_curve`] and [`Point::decompress`].
    ///
    /// # Errors
    ///
    /// Returns `None` if `(x, y)` does not satisfy `y^2 = x^3 - 3x + b`
    /// or a coordinate is not a canonical field element.
    #[cfg(test)]
    pub(crate) fn from_affine(x: &U256, y: &U256) -> Option<Point> {
        let f = field();
        if x >= f.modulus() || y >= f.modulus() {
            return None;
        }
        let xm = f.to_monty(x);
        let ym = f.to_monty(y);
        let p = Point {
            x: xm,
            y: ym,
            z: f.one(),
        };
        if p.is_on_curve() {
            Some(p)
        } else {
            None
        }
    }

    /// Returns the affine coordinates, or `None` for the identity.
    pub(crate) fn to_affine(self) -> Option<(U256, U256)> {
        if self.is_identity() {
            return None;
        }
        let f = field();
        let z_inv = invert_field(&self.z);
        let z_inv2 = f.square(&z_inv);
        let z_inv3 = f.mul(&z_inv2, &z_inv);
        let x = f.from_monty(&f.mul(&self.x, &z_inv2));
        let y = f.from_monty(&f.mul(&self.y, &z_inv3));
        Some((x, y))
    }

    /// The affine x-coordinates (plain integers) of a batch of
    /// non-identity points, for a single field inversion in total —
    /// what group signing needs of its `k·G` points.
    pub(crate) fn batch_affine_x(points: &[Point]) -> Vec<U256> {
        let f = field();
        points
            .iter()
            .zip(&batch_invert_z(points))
            .map(|(p, z_inv)| f.from_monty(&f.mul(&p.x, &f.square(z_inv))))
            .collect()
    }

    /// Returns `true` for the point at infinity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Checks the Jacobian curve equation `Y^2 = X^3 + aXZ^4 + bZ^6`: the
    /// oracle the tests hold computed points against.
    #[cfg(test)]
    pub(crate) fn is_on_curve(&self) -> bool {
        if self.is_identity() {
            return true;
        }
        let f = field();
        let (a, b) = curve_ab();
        let y2 = f.square(&self.y);
        let x3 = f.mul(&f.square(&self.x), &self.x);
        let z2 = f.square(&self.z);
        let z4 = f.square(&z2);
        let z6 = f.mul(&z4, &z2);
        let axz4 = f.mul(&f.mul(&a, &self.x), &z4);
        let bz6 = f.mul(&b, &z6);
        y2 == f.add(&f.add(&x3, &axz4), &bz6)
    }

    /// Point doubling (`dbl-2001-b`, exploits `a = -3`).
    pub fn double(&self) -> Point {
        cost::count(cost::Op::Doubling);
        if self.is_identity() || self.y.is_zero() {
            return Point::identity();
        }
        let f = field();
        let delta = f.square(&self.z);
        let gamma = f.square(&self.y);
        let beta = f.mul(&self.x, &gamma);
        let alpha = {
            let t1 = f.sub(&self.x, &delta);
            let t2 = f.add(&self.x, &delta);
            let t3 = f.mul(&t1, &t2);
            f.add(&f.add(&t3, &t3), &t3)
        };
        let beta4 = {
            let b2 = f.add(&beta, &beta);
            f.add(&b2, &b2)
        };
        let beta8 = f.add(&beta4, &beta4);
        let x3 = f.sub(&f.square(&alpha), &beta8);
        let z3 = {
            let t = f.add(&self.y, &self.z);
            f.sub(&f.sub(&f.square(&t), &gamma), &delta)
        };
        let gamma2 = f.square(&gamma);
        let gamma2_8 = {
            let t2 = f.add(&gamma2, &gamma2);
            let t4 = f.add(&t2, &t2);
            f.add(&t4, &t4)
        };
        let y3 = f.sub(&f.mul(&alpha, &f.sub(&beta4, &x3)), &gamma2_8);
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Point addition (`add-2007-bl`).
    pub fn add(&self, other: &Point) -> Point {
        if self.is_identity() {
            return *other;
        }
        if other.is_identity() {
            return *self;
        }
        let f = field();
        let z1z1 = f.square(&self.z);
        let z2z2 = f.square(&other.z);
        let u1 = f.mul(&self.x, &z2z2);
        let u2 = f.mul(&other.x, &z1z1);
        let s1 = f.mul(&f.mul(&self.y, &other.z), &z2z2);
        let s2 = f.mul(&f.mul(&other.y, &self.z), &z1z1);
        let h = f.sub(&u2, &u1);
        let r0 = f.sub(&s2, &s1);
        if h.is_zero() {
            return if r0.is_zero() {
                self.double()
            } else {
                Point::identity()
            };
        }
        let h2 = f.add(&h, &h);
        let i = f.square(&h2);
        let j = f.mul(&h, &i);
        let r = f.add(&r0, &r0);
        let v = f.mul(&u1, &i);
        let v2 = f.add(&v, &v);
        let x3 = f.sub(&f.sub(&f.square(&r), &j), &v2);
        let s1j = f.mul(&s1, &j);
        let s1j2 = f.add(&s1j, &s1j);
        let y3 = f.sub(&f.mul(&r, &f.sub(&v, &x3)), &s1j2);
        let z3 = {
            let t = f.add(&self.z, &other.z);
            let t2 = f.sub(&f.sub(&f.square(&t), &z1z1), &z2z2);
            f.mul(&t2, &h)
        };
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed Jacobian + affine addition (`madd-2007-bl`, `z2 = 1`).
    ///
    /// Saves ~4 field multiplications over [`Point::add`] because the
    /// affine operand needs no `z2` work; this is why the window tables
    /// below are normalized to affine before the main loop.
    fn add_affine(&self, other: &AffinePoint) -> Point {
        cost::count(cost::Op::MixedAddition);
        let f = field();
        if self.is_identity() {
            return Point {
                x: other.x,
                y: other.y,
                z: f.one(),
            };
        }
        let z1z1 = f.square(&self.z);
        let u2 = f.mul(&other.x, &z1z1);
        let s2 = f.mul(&f.mul(&other.y, &self.z), &z1z1);
        let h = f.sub(&u2, &self.x);
        let r0 = f.sub(&s2, &self.y);
        if h.is_zero() {
            return if r0.is_zero() {
                self.double()
            } else {
                Point::identity()
            };
        }
        let hh = f.square(&h);
        let i = {
            let t = f.add(&hh, &hh);
            f.add(&t, &t)
        };
        let j = f.mul(&h, &i);
        let r = f.add(&r0, &r0);
        let v = f.mul(&self.x, &i);
        let v2 = f.add(&v, &v);
        let x3 = f.sub(&f.sub(&f.square(&r), &j), &v2);
        let yj = f.mul(&self.y, &j);
        let yj2 = f.add(&yj, &yj);
        let y3 = f.sub(&f.mul(&r, &f.sub(&v, &x3)), &yj2);
        let z3 = {
            let t = f.add(&self.z, &h);
            f.sub(&f.sub(&f.square(&t), &z1z1), &hh)
        };
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Builds the affine window table `[P, 2P, .., 15P]` for this
    /// (non-identity) point, normalized with one batched inversion.
    #[expect(clippy::expect_used, clippy::indexing_slicing, reason = "indices `j - 1`, `j / 2 - 1`, `j - 2` with `j ∈ 2..=15` stay inside the 15-entry table; `batch_normalize` of 15 points yields 15")]
    fn window_table(&self) -> [AffinePoint; 15] {
        let mut jacobian = [Point::identity(); 15];
        jacobian[0] = *self;
        for j in 2..=15usize {
            jacobian[j - 1] = if j % 2 == 0 {
                jacobian[j / 2 - 1].double()
            } else {
                jacobian[j - 2].add(self)
            };
        }
        batch_normalize(&jacobian)
            .try_into()
            .expect("15-entry window")
    }

    /// [`Point::window_table`] through the global direct-mapped cache:
    /// repeated multiplications by the same point (ECDSA public keys)
    /// skip the table build and its field inversion entirely.
    #[expect(clippy::indexing_slicing, reason = "`slot` is reduced `% WINDOW_CACHE_SLOTS`, the cache's exact length")]
    fn window_table_cached(&self) -> [AffinePoint; 15] {
        let key = (self.x, self.y, self.z);
        let bytes = self.x.to_be_bytes();
        let slot = (bytes[31] ^ bytes[0]) as usize % WINDOW_CACHE_SLOTS;
        let mut guard = match window_cache()[slot].lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(entry) = guard.as_ref() {
            if entry.key == key {
                return entry.table;
            }
        }
        let table = self.window_table();
        *guard = Some(WindowCacheEntry { key, table });
        table
    }

    /// Scalar multiplication: fixed 4-bit windows over a batch-normalized
    /// affine table, so the inner loop pays 4 doublings plus one *mixed*
    /// addition per non-zero nibble.
    ///
    /// The scalar is interpreted as a plain (non-Montgomery) integer.
    /// Agreement with the naive `Point::mul_reference` path is enforced
    /// by property tests.
    #[expect(clippy::indexing_slicing, reason = "`nibble ∈ 1..=15` after the zero check indexes the 15-entry window table")]
    pub fn mul(&self, scalar: &U256) -> Point {
        // lint:secret-scope(scalar, bytes, nibble) — when the caller's
        // scalar is secret, its nibbles steer the window walk below.
        if scalar.is_zero() || self.is_identity() { // lint:allow(consttime): zero scalars are rejected at key/nonce generation, so signing never takes this arm
            return Point::identity();
        }
        let table = self.window_table_cached();
        let bytes = scalar.to_be_bytes();
        let mut acc = Point::identity();
        let mut started = false;
        for byte in bytes {
            for nibble in [byte >> 4, byte & 0x0f] {
                if started {
                    acc = acc.double().double().double().double();
                }
                if nibble != 0 { // lint:allow(consttime): nibble-skip is a documented throughput/constant-time tradeoff (DESIGN.md §7): nonces are single-use RFC 6979 values and deployments are LAN ordering clusters without co-resident attackers
                    acc = acc.add_affine(&table[nibble as usize - 1]); // lint:allow(consttime): data-dependent window walk — documented throughput/constant-time tradeoff (DESIGN.md §7): nonces are single-use RFC 6979 values and deployments are LAN ordering clusters without co-resident attackers
                    started = true;
                }
            }
        }
        acc
    }

    /// Reference scalar multiplication: the original fixed-window ladder
    /// over a per-call Jacobian table.
    ///
    /// Kept as the verified baseline the tests cross-check the fast
    /// paths ([`Point::mul`], [`Point::mul_base`], [`Point::lincomb`])
    /// against.
    #[cfg(test)]
    pub(crate) fn mul_reference(&self, scalar: &U256) -> Point {
        if scalar.is_zero() || self.is_identity() {
            return Point::identity();
        }
        // Precompute 1P..15P.
        let mut table = [Point::identity(); 16];
        table[1] = *self;
        for i in 2..16 {
            table[i] = if i % 2 == 0 {
                table[i / 2].double()
            } else {
                table[i - 1].add(self)
            };
        }
        let bytes = scalar.to_be_bytes();
        let mut acc = Point::identity();
        let mut started = false;
        for byte in bytes {
            for nibble in [byte >> 4, byte & 0x0f] {
                if started {
                    acc = acc.double().double().double().double();
                }
                if nibble != 0 {
                    acc = if started {
                        acc.add(&table[nibble as usize])
                    } else {
                        table[nibble as usize]
                    };
                    started = true;
                }
            }
        }
        acc
    }

    /// `scalar * G` via the generator's precomputed [`SignedComb`]: at
    /// most 37 mixed additions, no runtime doublings.
    pub(crate) fn mul_base(scalar: &U256) -> Point {
        base_table().mul_add(scalar, Point::identity())
    }

    /// `k·G` for every scalar of a group, equal point for point to
    /// [`Point::mul_base`] of each: where CPUID reports AVX-512 IFMA,
    /// chunks of eight walk the comb side by side, one nonce per lane
    /// (`lanes`), and a chunk below [`LANE_CROSSOVER`] — or any chunk on
    /// any other processor — walks it one scalar at a time.
    pub(crate) fn mul_base_group(scalars: &[U256]) -> Vec<Point> {
        let mut points = Vec::with_capacity(scalars.len());
        for chunk in scalars.chunks(LANES) {
            let walked = (chunk.len() >= LANE_CROSSOVER).then(|| Point::mul_base_lanes(chunk));
            match walked.flatten() {
                Some(walked) => points.extend(walked),
                None => points.extend(chunk.iter().map(Point::mul_base)),
            }
        }
        points
    }

    /// One lane walk of up to eight scalars, or `None` where the
    /// processor lacks the instructions. A lane that comes back as the
    /// identity — `k ≡ 0 (mod n)`, or a walk that met a doubling or the
    /// opposite point, which the lanes' mixed addition does not handle —
    /// is walked again by [`Point::mul_base`].
    #[cfg(target_arch = "x86_64")]
    fn mul_base_lanes(scalars: &[U256]) -> Option<Vec<Point>> {
        let mut points = lanes::mul_base(scalars)?;
        for (point, scalar) in points.iter_mut().zip(scalars) {
            if point.is_identity() {
                *point = Point::mul_base(scalar);
            }
        }
        Some(points)
    }

    /// No lane walk off x86-64.
    #[cfg(not(target_arch = "x86_64"))]
    fn mul_base_lanes(_: &[U256]) -> Option<Vec<Point>> {
        None
    }

    /// `u1·G + u2·Q` for each `(u1, comb of Q, u2)`, the same point as
    /// `comb.mul_add(u2, Point::mul_base(u1))` (what a pinned
    /// verification computes): where `lanes` is set and CPUID reports
    /// AVX-512 IFMA, chunks of up to four take one lane walk, at least
    /// two lanes each (`lanes`); otherwise, or off x86-64, each job walks
    /// both combs one scalar at a time.
    pub(crate) fn lincomb_pinned_group(jobs: &[(U256, &SignedComb, U256)], lanes: bool) -> Vec<Point> {
        let mut points = Vec::with_capacity(jobs.len());
        for chunk in jobs.chunks(LANES / 2) {
            match lanes.then(|| Point::lincomb_lanes(chunk)).flatten() {
                Some(walked) => points.extend(walked),
                None => points.extend(chunk.iter().map(|(u1, comb, u2)| comb.mul_add(u2, Point::mul_base(u1)))),
            }
        }
        points
    }

    /// One lane walk of up to four jobs of
    /// [`Point::lincomb_pinned_group`], or `None` where the processor
    /// lacks the instructions. A half that comes back as the identity —
    /// a zero scalar, or a walk that met a doubling or the opposite
    /// point — is walked again by its scalar comb walk.
    #[cfg(target_arch = "x86_64")]
    fn lincomb_lanes(jobs: &[(U256, &SignedComb, U256)]) -> Option<Vec<Point>> {
        let halves = lanes::mul_pairs(jobs)?;
        let sums = jobs.iter().zip(halves).map(|((u1, comb, u2), (g, q))| {
            let g = if g.is_identity() { Point::mul_base(u1) } else { g };
            let q = if q.is_identity() { comb.mul_add(u2, Point::identity()) } else { q };
            g.add(&q)
        });
        Some(sums.collect())
    }

    /// No lane walk off x86-64.
    #[cfg(not(target_arch = "x86_64"))]
    fn lincomb_lanes(_: &[(U256, &SignedComb, U256)]) -> Option<Vec<Point>> {
        None
    }

    /// Strauss–Shamir interleaved double-scalar multiplication:
    /// `u1·G + u2·Q` with a *shared* doubling chain, so the two
    /// multiplications cost one ladder of 252 doublings instead of two.
    ///
    /// The `G` additions come straight from the first 15 entries of the
    /// generator comb's first window (`[G, 2G, .., 64G]`); the `Q`
    /// additions use a batch-normalized affine window table. This is the
    /// verification path for keys that are not pinned.
    #[expect(clippy::indexing_slicing, reason = "`i < 32` indexes the 32-byte scalar encodings; nibbles `≤ 15` index the 15-entry tables")]
    pub(crate) fn lincomb(u1: &U256, q: &Point, u2: &U256) -> Point {
        if q.is_identity() || u2.is_zero() {
            return Point::mul_base(u1);
        }
        if u1.is_zero() {
            return q.mul(u2);
        }
        let g_table = &base_table().windows[0]; // [G, 2G, .., 64G]; nibbles use 15
        let q_table = q.window_table_cached();
        let b1 = u1.to_be_bytes();
        let b2 = u2.to_be_bytes();
        let mut acc = Point::identity();
        let mut started = false;
        for i in 0..32 {
            for shift in [4u8, 0] {
                if started {
                    acc = acc.double().double().double().double();
                }
                let n1 = ((b1[i] >> shift) & 0x0f) as usize;
                let n2 = ((b2[i] >> shift) & 0x0f) as usize;
                if n1 != 0 {
                    acc = acc.add_affine(&g_table[n1 - 1]);
                    started = true;
                }
                if n2 != 0 {
                    acc = acc.add_affine(&q_table[n2 - 1]);
                    started = true;
                }
            }
        }
        acc
    }

    /// Checks whether this (non-identity) point's affine x-coordinate,
    /// reduced modulo the group order, equals `r` — without leaving
    /// Jacobian coordinates.
    ///
    /// `x = X/Z² (mod p)` and `x ≡ r (mod n)` with `0 ≤ x < p < 2n`
    /// leaves exactly two candidates, `r` and `r + n`; each is checked
    /// with one multiplication against `X`, avoiding the field inversion
    /// a `to_affine` round-trip would pay. Used by ECDSA verification.
    pub(crate) fn affine_x_reduced_eq(&self, r: &U256) -> bool {
        debug_assert!(!self.is_identity());
        let f = field();
        let zz = f.square(&self.z);
        if f.mul(&f.to_monty(r), &zz) == self.x {
            return true;
        }
        let (r_plus_n, carry) = r.adc(order());
        if !carry && &r_plus_n < f.modulus() {
            return f.mul(&f.to_monty(&r_plus_n), &zz) == self.x;
        }
        false
    }

    /// Recovers the point with the given x coordinate and y parity: how
    /// a test builds a point with a chosen x.
    ///
    /// Uses the `p ≡ 3 (mod 4)` square root `y = (x³ - 3x + b)^((p+1)/4)`.
    ///
    /// # Errors
    ///
    /// Returns `None` when `x` is not a canonical field element or no
    /// curve point has that x coordinate.
    #[cfg(test)]
    pub(crate) fn decompress(x: &U256, y_is_odd: bool) -> Option<Point> {
        let f = field();
        if x >= f.modulus() {
            return None;
        }
        let (a, b) = curve_ab();
        let xm = f.to_monty(x);
        // rhs = x^3 + a*x + b
        let x3 = f.mul(&f.square(&xm), &xm);
        let ax = f.mul(&a, &xm);
        let rhs = f.add(&f.add(&x3, &ax), &b);
        // sqrt via (p+1)/4 (valid because p ≡ 3 mod 4)
        let exponent = {
            let (p_plus_1, carry) = f.modulus().adc(&U256::ONE);
            debug_assert!(!carry);
            // (p+1)/4: shift right twice.
            let mut limbs = p_plus_1.limbs();
            for _ in 0..2 {
                let mut carry = 0u64;
                for limb in limbs.iter_mut().rev() {
                    let new_carry = *limb & 1;
                    *limb = (*limb >> 1) | (carry << 63);
                    carry = new_carry;
                }
            }
            U256::from_limbs(limbs)
        };
        let y = f.pow(&rhs, &exponent);
        // Verify the candidate actually squares back (x may have no
        // square root when x is not on the curve).
        if f.square(&y) != rhs {
            return None;
        }
        let y_plain = f.from_monty(&y);
        let y_final = if y_plain.bit(0) == y_is_odd {
            y_plain
        } else {
            f.from_monty(&f.sub(&U256::ZERO, &y))
        };
        Point::from_affine(x, &y_final)
    }
}

/// Per-thread operation counts for the deterministic cost guards: a
/// test runs one signature group or one verification under
/// [`cost::measure`] and asserts how many inversions, doublings and
/// mixed additions it took. Outside tests [`cost::count`] is empty and
/// compiles away.
pub(crate) mod cost {
    /// The operations the guards count.
    #[derive(Clone, Copy)]
    pub(crate) enum Op {
        FieldInversion,
        ScalarInversion,
        Doubling,
        MixedAddition,
        /// One window of a lane walk: a mixed addition in each of eight
        /// lanes.
        LaneStep,
    }

    #[cfg(not(test))]
    #[inline(always)]
    pub(crate) fn count(_: Op) {}

    #[cfg(test)]
    pub(crate) fn count(op: Op) {
        COUNTS.with(|counts| {
            let mut now = counts.get();
            now[op as usize] += 1;
            counts.set(now);
        });
    }

    #[cfg(test)]
    thread_local! {
        static COUNTS: std::cell::Cell<[u64; 5]> = const { std::cell::Cell::new([0; 5]) };
    }

    /// What one piece of work cost, operation by operation.
    #[cfg(test)]
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) struct Costs {
        pub(crate) field_inversions: u64,
        pub(crate) scalar_inversions: u64,
        pub(crate) doublings: u64,
        pub(crate) mixed_additions: u64,
        pub(crate) lane_steps: u64,
    }

    /// Runs `work` and returns what it cost on this thread.
    #[cfg(test)]
    pub(crate) fn measure(work: impl FnOnce()) -> Costs {
        let before = COUNTS.get();
        work();
        let after = COUNTS.get();
        let spent = |op: Op| after[op as usize] - before[op as usize];
        Costs {
            field_inversions: spent(Op::FieldInversion),
            scalar_inversions: spent(Op::ScalarInversion),
            doublings: spent(Op::Doubling),
            mixed_additions: spent(Op::MixedAddition),
            lane_steps: spent(Op::LaneStep),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_cache_hits_and_evictions_agree_with_reference() {
        // More distinct points than cache slots: every slot sees
        // insertions, evictions, and (second pass) hits. Both passes
        // must agree with the uncached reference ladder.
        let k = U256::from_u64(0xDEAD_BEEF_CAFE_F00D);
        let points: Vec<Point> = (1..=(super::WINDOW_CACHE_SLOTS as u64 + 8))
            .map(|i| Point::generator().mul_reference(&U256::from_u64(i * i + 1)))
            .collect();
        for pass in 0..2 {
            for q in &points {
                assert_eq!(q.mul(&k), q.mul_reference(&k), "pass {pass}");
            }
        }
    }

    #[test]
    fn generator_is_on_curve() {
        assert!(Point::generator().is_on_curve());
        assert!(Point::identity().is_on_curve());
        assert!(Point::identity().is_identity());
    }

    #[test]
    fn known_multiples_of_g() {
        // k = 2 and k = 3 from the NIST/SECG "point multiplication" vectors.
        let two_g = Point::mul_base(&U256::from_u64(2));
        let (x, y) = two_g.to_affine().unwrap();
        assert_eq!(
            x.to_hex(),
            "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978"
        );
        assert_eq!(
            y.to_hex(),
            "07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1"
        );
        // y must also satisfy the curve equation with the published x
        // (checked structurally by is_on_curve below).
        assert!(two_g.is_on_curve());
        let three_g = Point::mul_base(&U256::from_u64(3));
        let (x3, _) = three_g.to_affine().unwrap();
        assert_eq!(
            x3.to_hex(),
            "5ecbe4d1a6330a44c8f7ef951d4bf165e6c6b721efada985fb41661bc6e7fd6c"
        );
    }

    #[test]
    fn order_times_g_is_identity() {
        assert!(Point::mul_base(order()).is_identity());
    }

    #[test]
    fn n_minus_1_g_is_neg_g() {
        let n_minus_1 = order().sbb(&U256::ONE).0;
        let p = Point::mul_base(&n_minus_1);
        assert_eq!(p.add(&Point::generator()), Point::identity());
    }

    #[test]
    fn add_double_consistency() {
        let g = Point::generator();
        assert_eq!(g.add(&g), g.double());
        let g2 = g.double();
        let g4a = g2.double();
        let g4b = g2.add(&g2);
        let g4c = g.add(&g2).add(&g);
        assert_eq!(g4a, g4b);
        assert_eq!(g4a, g4c);
        assert!(g4a.is_on_curve());
    }

    #[test]
    fn identity_is_neutral() {
        let g = Point::generator();
        assert_eq!(g.add(&Point::identity()), g);
        assert_eq!(Point::identity().add(&g), g);
        assert_eq!(Point::identity().double(), Point::identity());
        assert!(Point::identity().mul(&U256::from_u64(42)).is_identity());
        assert!(g.mul(&U256::ZERO).is_identity());
    }

    #[test]
    fn scalar_mul_distributes_over_addition() {
        // (a + b) G == aG + bG for scalars that don't wrap the order.
        let a = U256::from_hex("1234567890abcdef1122334455667788").unwrap();
        let b = U256::from_hex("ffeeddccbbaa0099deadbeefcafebabe").unwrap();
        let (sum, carry) = a.adc(&b);
        assert!(!carry);
        let lhs = Point::mul_base(&sum);
        let rhs = Point::mul_base(&a).add(&Point::mul_base(&b));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn scalar_mul_composes() {
        // a * (b * G) == (a*b mod n) * G
        let sf = scalar_field();
        let a = U256::from_u64(0x1337);
        let b = U256::from_hex("deadbeefdeadbeefdeadbeefdeadbeef").unwrap();
        let ab = sf.from_monty(&sf.mul(&sf.to_monty(&a), &sf.to_monty(&b)));
        let lhs = Point::mul_base(&b).mul(&a);
        let rhs = Point::mul_base(&ab);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn decompress_rejects_non_residue_x() {
        // x = 0 is not on P-256 (b is a non-residue adjustment); scan a
        // few small x values and ensure rejection is clean, not a panic.
        let mut rejected = 0;
        for x in 0u64..20 {
            if Point::decompress(&U256::from_u64(x), false).is_none() {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "some small x must be off-curve");
        // Coordinates >= p are rejected outright.
        assert!(Point::decompress(field().modulus(), false).is_none());
    }

    #[test]
    fn decompress_honours_parity_bit() {
        let p = Point::mul_base(&U256::from_u64(5));
        let (x, y) = p.to_affine().unwrap();
        let even = Point::decompress(&x, false).unwrap();
        let odd = Point::decompress(&x, true).unwrap();
        assert_eq!(even.add(&odd), Point::identity(), "negations of each other");
        let recovered = if y.bit(0) { odd } else { even };
        assert_eq!(recovered, p);
    }

    #[test]
    fn from_affine_rejects_off_curve() {
        assert!(Point::from_affine(&U256::from_u64(1), &U256::from_u64(1)).is_none());
        // Coordinates >= p are rejected even if congruent to a curve point.
        let p_plus = field().modulus().adc(&U256::ONE).0;
        assert!(Point::from_affine(&p_plus, &U256::from_u64(1)).is_none());
    }

    /// Scalars that stress the window decompositions: identities,
    /// boundaries of the group order, and values with long zero runs
    /// (which exercise the `started`/skip logic of every ladder).
    fn edge_scalars() -> Vec<U256> {
        let n = *order();
        let mut scalars = vec![
            U256::ZERO,
            U256::ONE,
            U256::from_u64(2),
            U256::from_u64(15),
            U256::from_u64(16),
            n.sbb(&U256::ONE).0,
            n,
            n.adc(&U256::ONE).0,
            U256::from_limbs([u64::MAX; 4]),
            // Long zero runs.
            U256::from_hex("8000000000000000000000000000000000000000000000000000000000000001")
                .unwrap(),
            U256::from_hex("f000000000000000000000000000000000000000000000000000000000000000")
                .unwrap(),
            U256::from_hex("0000000000000000000000000000000100000000000000000000000000000000")
                .unwrap(),
        ];
        scalars.push(U256::from_limbs([1, 0, 0, 1 << 63]));
        scalars
    }

    #[test]
    fn fast_paths_agree_with_reference_on_edge_scalars() {
        let q = Point::generator().mul_reference(&U256::from_u64(0xfab));
        for k in edge_scalars() {
            let reference = Point::generator().mul_reference(&k);
            assert_eq!(Point::mul_base(&k), reference, "mul_base, k={k}");
            assert_eq!(
                q.mul(&k),
                q.mul_reference(&k),
                "windowed mul, k={k}"
            );
            for u2 in [U256::ZERO, U256::ONE, k] {
                assert_eq!(
                    Point::lincomb(&k, &q, &u2),
                    reference.add(&q.mul_reference(&u2)),
                    "lincomb, u1={k} u2={u2}"
                );
            }
        }
    }

    #[test]
    fn affine_x_reduced_eq_matches_to_affine() {
        for k in [1u64, 2, 77, 0xdeadbeef] {
            let p = Point::mul_base(&U256::from_u64(k));
            let (x, _) = p.to_affine().unwrap();
            let r = x.reduce_once(order());
            assert!(p.affine_x_reduced_eq(&r), "k={k}");
            let wrong = r.add_mod(&U256::ONE, order());
            assert!(!p.affine_x_reduced_eq(&wrong), "k={k}");
        }
        // A non-trivial z: build via additions so z != 1.
        let p = Point::generator().double().add(&Point::generator());
        let (x, _) = p.to_affine().unwrap();
        assert!(p.affine_x_reduced_eq(&x.reduce_once(order())));
    }

    #[test]
    fn invert_field_matches_generic_inversion() {
        let f = field();
        for v in [1u64, 2, 3, 65537, 0xdeadbeef] {
            let a = f.to_monty(&U256::from_u64(v));
            assert_eq!(invert_field(&a), f.inv(&a), "v={v}");
        }
        let (gx, _) = Point::generator().to_affine().unwrap();
        let a = f.to_monty(&gx);
        assert_eq!(f.mul(&a, &invert_field(&a)), f.one());
    }

    #[test]
    fn batch_normalize_matches_to_affine() {
        let points: Vec<Point> = (1..=20u64)
            .map(|k| Point::mul_base(&U256::from_u64(k)).double().add(&Point::generator()))
            .collect();
        let affine = batch_normalize(&points);
        let f = field();
        for (p, a) in points.iter().zip(&affine) {
            let (x, y) = p.to_affine().unwrap();
            assert_eq!(f.from_monty(&a.x), x);
            assert_eq!(f.from_monty(&a.y), y);
        }
    }

    /// Pins the table [`Point::mul_base`] walks: entry `j - 1` of window
    /// `i` of the generator's comb is `j · 128^i · G`, computed here by
    /// the reference ladder as `j · (128^i · G)`.
    #[test]
    fn generator_comb_entries_are_the_multiples_of_g() {
        let f = field();
        let comb = SignedComb::new(&Point::generator());
        assert_eq!(comb.windows.len(), 37);
        for (i, window) in comb.windows.iter().enumerate() {
            let base = Point::generator().mul_reference(&shifted(U256::ONE, 7 * i));
            for (j, entry) in (1u64..).zip(window) {
                let (x, y) = base.mul_reference(&U256::from_u64(j)).to_affine().unwrap();
                assert_eq!((f.from_monty(&entry.x), f.from_monty(&entry.y)), (x, y), "i={i} j={j}");
            }
        }
        let base = base_table();
        for (built, cached) in comb.windows.iter().zip(&base.windows) {
            for (a, b) in built.iter().zip(cached) {
                assert_eq!((a.x, a.y), (b.x, b.y));
            }
        }
    }

    /// `value · 2^bits`, wrapping at `2^256`.
    fn shifted(mut value: U256, bits: usize) -> U256 {
        for _ in 0..bits {
            value = value.adc(&value).0;
        }
        value
    }

    /// Rebuilds `Σ d_i · 128^i` from the top digit down, wrapping at
    /// `2^256` (the exact sum is the scalar, so wrapping partial sums
    /// land on it too).
    fn from_digits(digits: &[i8]) -> U256 {
        digits.iter().rev().fold(U256::ZERO, |acc, &d| {
            let acc = shifted(acc, 7);
            let magnitude = U256::from_u64(d.unsigned_abs() as u64);
            if d < 0 { acc.sbb(&magnitude).0 } else { acc.adc(&magnitude).0 }
        })
    }

    /// A scalar whose 7-bit windows (bits `7i .. 7i + 7`, the last one
    /// 4 bits wide) are `windows[i]`.
    fn from_windows(windows: &[u64]) -> U256 {
        windows.iter().enumerate().fold(U256::ZERO, |acc, (i, &w)| {
            acc.adc(&shifted(U256::from_u64(w), 7 * i)).0
        })
    }

    /// Scalars at the corners of the signed recoding: 1, `n − 1`, every
    /// power of two, a window of exactly 64 (the largest digit that
    /// does not carry) and of 65 (the smallest that does) in every
    /// position, all-127 windows whose carry ripples into window 36, and
    /// the all-ones scalar.
    fn recoding_edge_scalars() -> Vec<U256> {
        let n = *order();
        let mut scalars = vec![U256::ONE, n.sbb(&U256::ONE).0, U256::from_limbs([u64::MAX; 4])];
        scalars.extend((0..256).map(|k| shifted(U256::ONE, k)));
        for i in 0..COMB_WINDOWS {
            scalars.push(shifted(U256::from_u64(64), 7 * i));
            scalars.push(shifted(U256::from_u64(65), 7 * i));
        }
        scalars.push(from_windows(&[127; 36])); // 2^252 − 1
        scalars.push(from_windows(&[64; 36]));
        scalars.push(from_windows(&[65; 36]));
        scalars
    }

    #[test]
    fn signed_digits_stay_in_range_and_rebuild_the_scalar() {
        for k in recoding_edge_scalars() {
            let digits = signed_digits(&k);
            assert!(digits.iter().all(|d| (-64..=64).contains(d)), "k={k} {digits:?}");
            assert_eq!(from_digits(&digits), k, "{digits:?}");
        }
        // The carry of thirty-six all-127 windows lands in window 36.
        let digits = signed_digits(&from_windows(&[127; 36]));
        assert_eq!((digits[0], digits[1], digits[35], digits[36]), (-1, 0, 0, 1));
        let exact = signed_digits(&U256::from_u64(64));
        assert_eq!((exact[0], exact[1]), (64, 0));
        let carried = signed_digits(&U256::from_u64(65));
        assert_eq!((carried[0], carried[1]), (-63, 1));
    }

    #[test]
    fn signed_combs_match_reference_on_recoding_edges() {
        let q = Point::generator().mul_reference(&U256::from_u64(0xfab));
        let comb = SignedComb::new(&q);
        for k in recoding_edge_scalars() {
            assert_eq!(Point::mul_base(&k), Point::generator().mul_reference(&k), "mul_base, k={k}");
            assert_eq!(comb.mul_add(&k, Point::identity()), q.mul_reference(&k), "pinned comb, k={k}");
        }
    }

    /// Clock-free cost guard: `mul_base` is one mixed addition per
    /// nonzero signed digit — at most 37 — and no doubling.
    #[test]
    fn mul_base_costs_at_most_37_mixed_additions_and_no_doubling() {
        Point::mul_base(&U256::ONE); // builds the generator's comb outside the count
        for k in recoding_edge_scalars() {
            let costs = cost::measure(|| {
                Point::mul_base(&k);
            });
            assert!(costs.mixed_additions <= 37, "k={k} {costs:?}");
            assert_eq!(costs.doublings, 0, "k={k}");
        }
    }

    /// Says which walk the lane tests compared with the scalar one, so a
    /// log of a host without AVX-512 IFMA shows that they compared the
    /// scalar walk with itself.
    fn announce_lanes() {
        eprintln!(
            "p256: lane walk is {}, reference is the scalar walk",
            mul_base_group_backend()
        );
    }

    /// One lane walk of `chunk` where the processor has it, else the
    /// scalar walk of each scalar.
    fn lane_walk(chunk: &[U256]) -> Vec<Point> {
        Point::mul_base_lanes(chunk).unwrap_or_else(|| chunk.iter().map(Point::mul_base).collect())
    }

    /// Every scalar through lane walks of every width 1..=8, against
    /// [`Point::mul_base`].
    fn assert_lanes_match_scalar(scalars: &[U256]) {
        announce_lanes();
        for width in 1..=LANES {
            for chunk in scalars.chunks(width) {
                let walked = lane_walk(chunk);
                assert_eq!(walked.len(), chunk.len());
                for (lane, (k, point)) in chunk.iter().zip(&walked).enumerate() {
                    assert_eq!(*point, Point::mul_base(k), "k={k}, lane {lane} of {width}");
                }
            }
        }
    }

    #[test]
    fn lane_walk_matches_scalar_on_recoding_edges() {
        let mut scalars = recoding_edge_scalars();
        scalars.push(U256::from_u64(2));
        assert_lanes_match_scalar(&scalars);
    }

    /// `k = 0` never leaves the identity, and `k = n` meets the opposite
    /// point in window 36: both lanes come back with `Z = 0` from the
    /// walk, beside lanes that do not, and the scalar walk redoes them.
    #[test]
    fn lane_walk_flags_identity_lanes_for_the_scalar_walk() {
        announce_lanes();
        let n = *order();
        let chunk = [U256::from_u64(5), U256::ZERO, n.sbb(&U256::ONE).0, n, U256::ONE];
        #[cfg(target_arch = "x86_64")]
        if let Some(raw) = lanes::mul_base(&chunk) {
            let flagged: Vec<bool> = raw.iter().map(Point::is_identity).collect();
            assert_eq!(flagged, [false, true, false, true, false]);
        }
        let walked = lane_walk(&chunk);
        for (k, point) in chunk.iter().zip(&walked) {
            assert_eq!(*point, Point::mul_base(k), "k={k}");
        }
        assert!(walked[1].is_identity() && walked[3].is_identity());
        assert_eq!(Point::mul_base_group(&chunk), walked);
    }

    /// `lincomb_pinned_group` through the lanes against the scalar combs
    /// on the recoding edges and zero, in chunks of one to four jobs:
    /// zero and small scalars leave whole runs of windows empty, so their
    /// halves come back flagged and are walked again.
    #[test]
    fn pinned_group_lanes_match_scalar_on_recoding_edges() {
        announce_lanes();
        let q = Point::generator().mul_reference(&U256::from_u64(0xfab));
        let (comb, other) = (SignedComb::new(&q), SignedComb::new(&q.double()));
        let mut scalars = recoding_edge_scalars();
        scalars.push(U256::ZERO);
        let jobs: Vec<(U256, &SignedComb, U256)> = scalars
            .iter()
            .zip(scalars.iter().rev())
            .enumerate()
            .map(|(i, (u1, u2))| (*u1, if i % 3 == 0 { &other } else { &comb }, *u2))
            .collect();
        for width in 1..=LANES / 2 {
            for chunk in jobs.chunks(width) {
                let walked = Point::lincomb_pinned_group(chunk, true);
                assert_eq!(walked, Point::lincomb_pinned_group(chunk, false), "width {width}");
            }
        }
    }

    /// Clock-free cost guard of the dispatch: a chunk of eight is one
    /// lane walk (37 lane steps, no scalar mixed addition) where the
    /// processor has IFMA, and a chunk below the crossover never walks
    /// the lanes.
    #[test]
    fn group_walk_takes_the_lanes_from_the_crossover_up() {
        announce_lanes();
        Point::mul_base_group(&[U256::ONE; LANES]); // builds both tables outside the count
        let lanes = mul_base_group_backend() != "scalar";
        for len in 1..=2 * LANES + 1 {
            let scalars: Vec<U256> = (1..=len as u64).map(|i| U256::from_u64(i * 0x1234_5678_9abc)).collect();
            let costs = cost::measure(|| {
                Point::mul_base_group(&scalars);
            });
            // Chunks of eight, then the rest: each chunk of at least
            // the crossover is one walk on an IFMA host.
            let chunks: Vec<usize> = scalars.chunks(LANES).map(<[U256]>::len).collect();
            let walked = |chunk: &&usize| lanes && **chunk >= LANE_CROSSOVER;
            let walks = chunks.iter().filter(walked).count() as u64;
            let scalar_walked: usize = chunks.iter().filter(|c| !walked(c)).sum();
            assert_eq!(costs.lane_steps, 37 * walks, "{len} scalars: {costs:?}");
            assert!(costs.mixed_additions <= 37 * scalar_walked as u64, "{len} scalars: {costs:?}");
            assert_eq!(costs.mixed_additions == 0, scalar_walked == 0, "{len} scalars: {costs:?}");
        }
    }

    /// Seeded property loops (see `hlf_simnet::for_each_case`).
    mod properties {
        use super::*;
        use hlf_simnet::{for_each_case, SimRng};

        const CASES: u64 = 64;

        #[test]
        fn lane_walk_matches_scalar_on_seeded_scalars() {
            let mut rng = SimRng::new(0x9256_000a);
            let scalars: Vec<U256> = (0..1000)
                .map(|i| if i % 4 == 3 { sparse_scalar(&mut rng) } else { arb_scalar(&mut rng) })
                .collect();
            assert_lanes_match_scalar(&scalars);
        }

        fn arb_limbs(rng: &mut SimRng) -> [u64; 4] {
            [rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()]
        }

        fn arb_scalar(rng: &mut SimRng) -> U256 {
            U256::from_limbs(arb_limbs(rng))
        }

        /// Scalars whose limbs are sparsified, giving long zero runs.
        fn sparse_scalar(rng: &mut SimRng) -> U256 {
            let (a, m) = (arb_limbs(rng), arb_limbs(rng));
            U256::from_limbs([a[0] & m[0], a[1] & m[1], a[2] & m[2], a[3] & m[3]])
        }

        #[test]
        fn comb_mul_base_matches_reference() {
            for_each_case(0x9256_0001, CASES, |rng| {
                let k = arb_scalar(rng);
                assert_eq!(Point::mul_base(&k), Point::generator().mul_reference(&k));
            });
        }

        #[test]
        fn windowed_mul_matches_reference() {
            for_each_case(0x9256_0002, CASES, |rng| {
                let (k, seed) = (arb_scalar(rng), rng.next_u64());
                let q = Point::generator().mul_reference(&U256::from_u64(seed | 1));
                assert_eq!(q.mul(&k), q.mul_reference(&k));
            });
        }

        #[test]
        fn lincomb_matches_two_reference_muls() {
            for_each_case(0x9256_0003, CASES, |rng| {
                let (u1, u2, seed) = (arb_scalar(rng), arb_scalar(rng), rng.next_u64());
                let q = Point::generator().mul_reference(&U256::from_u64(seed | 1));
                let expect = Point::generator()
                    .mul_reference(&u1)
                    .add(&q.mul_reference(&u2));
                assert_eq!(Point::lincomb(&u1, &q, &u2), expect);
            });
        }

        #[test]
        fn sparse_scalars_agree() {
            let q = Point::generator().double();
            for_each_case(0x9256_0004, CASES, |rng| {
                let k = sparse_scalar(rng);
                assert_eq!(Point::mul_base(&k), Point::generator().mul_reference(&k));
                assert_eq!(q.mul(&k), q.mul_reference(&k));
            });
        }

        #[test]
        fn scalar_inversion_chain_matches_generic_inversion() {
            let sf = scalar_field();
            let check = |a: U256| {
                let am = sf.to_monty(&a);
                assert_eq!(invert_scalar(&am), sf.inv(&am), "a={a}");
                assert_eq!(invert_scalar_public(&am), sf.inv(&am), "public, a={a}");
            };
            check(U256::ONE);
            check(U256::from_u64(2));
            check(order().sbb(&U256::ONE).0);
            for bits in [1, 63, 64, 128, 200, 255] {
                check(shifted(U256::ONE, bits));
                check(sf.from_monty(&shifted(U256::ONE, bits)));
            }
            for_each_case(0x9256_0006, 1000, |rng| {
                let a = arb_scalar(rng).reduce_once(order());
                if !a.is_zero() {
                    check(a);
                }
            });
        }

        #[test]
        fn batch_invert_matches_one_inversion_each() {
            let sf = scalar_field();
            for_each_case(0x9256_0007, CASES, |rng| {
                let len = (rng.next_u64() % 20) as usize;
                let values: Vec<U256> = (0..len)
                    .map(|_| sf.to_monty(&sparse_scalar(rng).reduce_once(order())))
                    .filter(|v| !v.is_zero())
                    .collect();
                let mut inverted = values.clone();
                batch_invert(sf, &mut inverted, invert_scalar);
                let expect: Vec<U256> = values.iter().map(|v| sf.inv(v)).collect();
                assert_eq!(inverted, expect);
            });
        }

        /// A scalar whose every 7-bit window is a recoding corner (0, 1,
        /// 63, 64, 65, 127) or random.
        fn extreme_windows(rng: &mut SimRng) -> U256 {
            let windows: Vec<u64> = (0..37)
                .map(|_| match rng.next_u64() % 7 {
                    0 => 0,
                    1 => 1,
                    2 => 63,
                    3 => 64,
                    4 => 65,
                    5 => 127,
                    _ => rng.next_u64() & 0x7f,
                })
                .collect();
            // Window 36 is bits 252..256: keep its 4 bits.
            let top = windows[36] & 0x0f;
            from_windows(&[&windows[..36], &[top]].concat())
        }

        #[test]
        fn signed_combs_match_reference_on_extreme_windows() {
            let q = Point::generator().mul_reference(&U256::from_u64(0x5eed));
            let comb = SignedComb::new(&q);
            for_each_case(0x9256_0009, CASES, |rng| {
                let k = extreme_windows(rng);
                assert_eq!(from_digits(&signed_digits(&k)), k);
                assert_eq!(Point::mul_base(&k), Point::generator().mul_reference(&k));
                assert_eq!(comb.mul_add(&k, Point::identity()), q.mul_reference(&k));
            });
        }

        #[test]
        fn comb_of_any_point_matches_reference() {
            for_each_case(0x9256_0008, 8, |rng| {
                let (k, a, seed) = (arb_scalar(rng), arb_scalar(rng), rng.next_u64());
                let q = Point::generator().mul_reference(&U256::from_u64(seed | 1));
                let comb = SignedComb::new(&q);
                let acc = Point::generator().mul_reference(&a);
                assert_eq!(comb.mul_add(&k, acc), q.mul_reference(&k).add(&acc));
                assert_eq!(comb.mul_add(&U256::ZERO, acc), acc);
            });
        }

        #[test]
        fn field_inversion_chain_is_correct() {
            let f = field();
            for_each_case(0x9256_0005, CASES, |rng| {
                let a = arb_scalar(rng).reduce_once(f.modulus());
                if a.is_zero() {
                    return;
                }
                let am = f.to_monty(&a);
                assert_eq!(invert_field(&am), f.inv(&am));
            });
        }
    }
}
