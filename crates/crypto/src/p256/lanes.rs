//! Eight comb walks at once, one per 64-bit lane of an AVX-512
//! register, multiplied with the IFMA instructions.
//!
//! Group signing needs `k·G` for every nonce of a group, and batch
//! verification `u1·G` and `u2·Q` for every signature of a batch; each is
//! a walk of a [`SignedComb`]: 37 mixed additions whose shape does not
//! depend on the scalar. Here up to eight walks run side by side, each
//! lane over its own comb:
//!
//! * a field element is five 52-bit limbs; register `i` of an [`Fe`]
//!   holds limb `i` of all eight lanes, and a product is 25 (a square 15)
//!   `vpmadd52luq`/`vpmadd52huq` pairs;
//! * the Montgomery radix is `R = 2²⁶⁰`, five limbs. `p ≡ −1 (mod 2⁹⁶)`,
//!   so `−p⁻¹ ≡ 1 (mod 2⁵²)`: each reduction digit is the low limb itself,
//!   and the `2⁵² − 1` low limb of `p` folds into the carry;
//! * every value stays below `2²⁵⁷` with its limbs carried, never
//!   canonical: `R > 8p` leaves the room, so a product of two such values
//!   reduces to below `2p` again, and a sum or difference is brought back
//!   by [`fold`] with `2²⁵⁶ ≡ 2²²⁴ − 2¹⁹² − 2⁹⁶ + 1`, never by comparing;
//! * a zero digit keeps a lane's accumulator and a lane's first nonzero
//!   digit loads the table entry, by masked blends where the scalar walk
//!   branches: every lane does all 37 additions;
//! * each comb a walk reads is gathered from by one masked gather per
//!   limb, over the lanes that walk it: the generator's for all eight
//!   lanes of a signing walk, and in a verification walk the generator's
//!   for the `u1` lanes and each key's for the `u2` lanes of its
//!   signatures;
//! * a lane walks any run of consecutive windows ([`Plan`]): a signing
//!   walk gives each lane all 37, a verification walk of fewer than four
//!   signatures cuts each scalar into runs over the idle lanes and adds
//!   the runs up afterwards.
//!
//! The points come back as Jacobian points in the scalar code's
//! Montgomery form (`R = 2²⁵⁶`), canonical. A lane whose walk met the
//! identity or a doubling — which the mixed addition cannot do — ends
//! with `Z = 0`, and the caller walks that scalar again with the scalar
//! comb walk.

use super::{cost, field, signed_digits, Point, SignedComb, COMB_ENTRIES, COMB_WINDOWS, LANES};
use crate::bignum::U256;
use std::arch::x86_64::*;
use std::sync::OnceLock;

/// Whether this processor runs the lane walk. `std` caches CPUID, so
/// this is a load and a mask.
pub(super) fn available() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")
}

const MASK52: u64 = (1 << 52) - 1;
/// The field prime in radix 2⁵² (limb 2 is zero).
const P: [u64; 5] = [MASK52, (1 << 44) - 1, 0, 1 << 36, 0xffff_ffff_0000];

/// A table entry: `x` then `y`, five radix-2⁵² limbs each, in the lane
/// Montgomery form `v·2²⁶⁰ mod p`, canonical.
type Entry = [i64; 10];

/// A [`SignedComb`] re-encoded for the lanes: the same 37 × 64 entries,
/// window after window, 80 bytes each (185 KiB), built from the scalar
/// comb on its first lane walk ([`SignedComb::lane_comb`]).
pub(super) struct LaneComb {
    entries: Vec<Entry>,
}

impl LaneComb {
    pub(super) fn new(comb: &SignedComb) -> LaneComb {
        let f = field();
        // The scalar table holds `v·2²⁵⁶`; four doublings make `v·2²⁶⁰`.
        let lane_form = |scalar_form: &U256| {
            let mut v = *scalar_form;
            for _ in 0..4 {
                v = v.double_mod(f.modulus());
            }
            radix52(&v).map(|limb| limb as i64)
        };
        let entries = comb
            .windows
            .iter()
            .flatten()
            .map(|entry| {
                let [x0, x1, x2, x3, x4] = lane_form(&entry.x);
                let [y0, y1, y2, y3, y4] = lane_form(&entry.y);
                [x0, x1, x2, x3, x4, y0, y1, y2, y3, y4]
            })
            .collect();
        LaneComb { entries }
    }
}

/// `i64`s per comb window: 64 entries of ten limbs.
const WINDOW_I64S: i64 = 10 * COMB_ENTRIES as i64;

/// What each lane does at each step of a walk: its signed digit, and
/// where in its comb the window of that digit starts, in `i64`s. A lane
/// may walk any run of windows, so a scalar can be cut over several
/// lanes; a step past the last window is a zero digit at window 36.
struct Plan {
    digits: Vec<[i64; LANES]>,
    rows: Vec<[i64; LANES]>,
}

impl Plan {
    /// `steps` steps of zero digits.
    fn new(steps: usize) -> Plan {
        let last = COMB_WINDOWS as i64 - 1;
        let rows = (0..steps as i64).map(|step| [step.min(last) * WINDOW_I64S; LANES]).collect();
        Plan { digits: vec![[0; LANES]; steps], rows }
    }

    /// Lane `lane` walks `scalar`'s digits of the windows from `first`
    /// on, one per step.
    #[expect(clippy::indexing_slicing, reason = "every caller's `lane < LANES` indexes the `LANES` digits and rows of a step")]
    fn lay(&mut self, lane: usize, scalar: &U256, first: usize) {
        // lint:secret-scope(scalar, digits, digit) — a signing walk lays
        // the digits of RFC 6979 nonces.
        let digits = signed_digits(scalar);
        for (window, (step_digits, step_rows)) in (first..).zip(self.digits.iter_mut().zip(&mut self.rows)) {
            let digit = digits.get(window).copied().unwrap_or(0);
            step_digits[lane] = i64::from(digit);
            step_rows[lane] = window.min(COMB_WINDOWS - 1) as i64 * WINDOW_I64S;
        }
    }
}

/// The two constants of the lane form.
struct Forms {
    /// `1` in the lane form: `2²⁶⁰ mod p`.
    one: [u64; 5],
    /// `2²⁵⁶ mod p`: a lane product by it turns the lane form into the
    /// scalar code's `v·2²⁵⁶`.
    to_scalar_form: [u64; 5],
}

fn forms() -> &'static Forms {
    static FORMS: OnceLock<Forms> = OnceLock::new();
    FORMS.get_or_init(|| {
        let f = field();
        Forms {
            one: radix52(&f.to_monty(&U256::from_u64(16))),
            to_scalar_form: radix52(&f.one()),
        }
    })
}

/// Five 52-bit limbs of a 256-bit value, least significant first.
fn radix52(v: &U256) -> [u64; 5] {
    let [w0, w1, w2, w3] = v.limbs();
    [
        w0 & MASK52,
        (w0 >> 52 | w1 << 12) & MASK52,
        (w1 >> 40 | w2 << 24) & MASK52,
        (w2 >> 28 | w3 << 36) & MASK52,
        w3 >> 16,
    ]
}

/// The inverse of [`radix52`], for carried limbs of a value below `2²⁵⁶`.
fn radix64([l0, l1, l2, l3, l4]: [u64; 5]) -> U256 {
    U256::from_limbs([
        l0 | l1 << 52,
        l1 >> 12 | l2 << 40,
        l2 >> 24 | l3 << 28,
        l3 >> 36 | l4 << 16,
    ])
}

/// `k·G` for each of up to eight scalars by one lane walk, or `None`
/// where the processor lacks the instructions. A lane whose walk met the
/// identity or a doubling comes back as the identity (`Z = 0`).
pub(super) fn mul_base(scalars: &[U256]) -> Option<Vec<Point>> {
    if !available() {
        return None;
    }
    debug_assert!(scalars.len() <= LANES, "one walk has {LANES} lanes");
    let mut plan = Plan::new(COMB_WINDOWS);
    for (lane, scalar) in (0..LANES).zip(scalars) {
        plan.lay(lane, scalar, 0);
    }
    let lanes = mask_of(0..scalars.len());
    // SAFETY: `available()` has just confirmed that this processor has
    // `avx512f` and `avx512ifma`, every target feature `walk` is compiled
    // with.
    let out = unsafe { walk(&[(super::base_table().lane_comb(), lanes)], &plan) };
    Some((0..scalars.len()).map(|lane| out.point(lane)).collect())
}

/// Verifications per walk: each takes two lanes at least.
pub(super) const PAIRS: usize = LANES / 2;

/// `(u1·G, u2·Q)` for each of up to four `(u1, comb of Q, u2)` by one
/// lane walk, or `None` where the processor lacks the instructions.
///
/// Each of the `2m` scalars of `m` jobs is cut into `PAIRS / m` runs of
/// windows (four for one job, two for two, else one), one lane each, so
/// the walk takes 10, 19 or 37 steps; the generator's comb serves the
/// `u1` lanes and each job's comb its `u2` lanes, and the runs of a
/// scalar are added up after the walk. A half one of whose lanes met the
/// identity or a doubling comes back as the identity.
pub(super) fn mul_pairs(jobs: &[(U256, &SignedComb, U256)]) -> Option<Vec<(Point, Point)>> {
    if !available() {
        return None;
    }
    let m = jobs.len();
    debug_assert!((1..=PAIRS).contains(&m), "one walk has {PAIRS} pairs of lanes");
    let runs = (PAIRS / m).max(1);
    let steps = COMB_WINDOWS.div_ceil(runs);
    // Run `run` of job `i`'s `u1` is lane `2m·run + i`, of its `u2` lane
    // `2m·run + m + i`.
    let lane = |run: usize, half: usize, i: usize| 2 * m * run + half * m + i;
    let mut plan = Plan::new(steps);
    let mut tables: Vec<(&LaneComb, __mmask8)> = vec![(super::base_table().lane_comb(), 0)];
    for (i, (u1, comb, u2)) in jobs.iter().enumerate() {
        let table = comb.lane_comb();
        let slot = match tables.iter().skip(1).position(|(seen, _)| std::ptr::eq(*seen, table)) {
            Some(seen) => seen + 1,
            None => {
                tables.push((table, 0));
                tables.len() - 1
            }
        };
        for run in 0..runs {
            plan.lay(lane(run, 0, i), u1, run * steps);
            plan.lay(lane(run, 1, i), u2, run * steps);
            for (table, half) in [(0, 0), (slot, 1)] {
                if let Some((_, lanes)) = tables.get_mut(table) {
                    *lanes |= mask_of(lane(run, half, i)..lane(run, half, i) + 1);
                }
            }
        }
    }
    // SAFETY: `available()` has just confirmed that this processor has
    // `avx512f` and `avx512ifma`, every target feature `walk` is compiled
    // with.
    let out = unsafe { walk(&tables, &plan) };
    let half = |half: usize, i: usize| {
        let parts: Vec<Point> = (0..runs).map(|run| out.point(lane(run, half, i))).collect();
        if parts.iter().any(Point::is_identity) {
            return Point::identity();
        }
        parts.iter().fold(Point::identity(), |sum, part| sum.add(part))
    };
    Some((0..m).map(|i| (half(0, i), half(1, i))).collect())
}

/// The lane mask of `lanes`.
fn mask_of(lanes: std::ops::Range<usize>) -> __mmask8 {
    lanes.fold(0, |mask, lane| mask | 1 << lane)
}

/// The walk's result: limb `l` of coordinate `c` (`X`, `Y`, `Z`) of every
/// lane at `limbs[5 * c + l]`, canonical, in the scalar code's form.
struct LaneOut {
    limbs: [[u64; LANES]; 15],
}

impl LaneOut {
    fn point(&self, lane: usize) -> Point {
        let coordinate = |c: usize| {
            radix64(std::array::from_fn(|l| {
                self.limbs.get(5 * c + l).and_then(|limb| limb.get(lane)).copied().unwrap_or(0)
            }))
        };
        Point {
            x: coordinate(0),
            y: coordinate(1),
            z: coordinate(2),
        }
    }
}

/// A field element in each of eight lanes: register `i` holds limb `i`
/// (bits `52i ..`) of every lane.
#[derive(Clone, Copy)]
struct Fe([__m512i; 5]);

#[inline]
#[target_feature(enable = "avx512f")]
fn splat(limbs: &[u64; 5]) -> Fe {
    let [l0, l1, l2, l3, l4] = limbs.map(|limb| limb as i64);
    Fe([
        _mm512_set1_epi64(l0),
        _mm512_set1_epi64(l1),
        _mm512_set1_epi64(l2),
        _mm512_set1_epi64(l3),
        _mm512_set1_epi64(l4),
    ])
}

/// Carries signed limbs of a value in `[0, 2²⁶⁰)` so that every limb is
/// in `[0, 2⁵²)` — what the multiplier reads of its operands.
#[expect(clippy::indexing_slicing, reason = "`i + 1 ≤ 4` over the five limbs")]
#[inline]
#[target_feature(enable = "avx512f")]
fn carry(mut l: [__m512i; 5]) -> Fe {
    let mask = _mm512_set1_epi64(MASK52 as i64);
    for i in 0..4 {
        let out = _mm512_srai_epi64::<52>(l[i]);
        l[i] = _mm512_and_si512(l[i], mask);
        l[i + 1] = _mm512_add_epi64(l[i + 1], out);
    }
    Fe(l)
}

/// The same value modulo `p` below `2²⁵⁶ + 2²²⁸` (so below `2p`): the
/// bits of a carried value above `2²⁵⁶`, `t < 16`, come back in as
/// `t·(2²²⁴ − 2¹⁹² − 2⁹⁶ + 1)`.
#[inline]
#[target_feature(enable = "avx512f")]
fn fold(a: Fe) -> Fe {
    let [l0, l1, l2, l3, l4] = a.0;
    let t = _mm512_srli_epi64::<48>(l4);
    let l4 = _mm512_and_si512(l4, _mm512_set1_epi64((1 << 48) - 1));
    carry([
        _mm512_add_epi64(l0, t),
        _mm512_sub_epi64(l1, _mm512_slli_epi64::<44>(t)),
        l2,
        _mm512_sub_epi64(l3, _mm512_slli_epi64::<36>(t)),
        _mm512_add_epi64(l4, _mm512_slli_epi64::<16>(t)),
    ])
}

/// `a + b`, below `2p`.
#[inline]
#[target_feature(enable = "avx512f")]
fn add(a: &Fe, b: &Fe) -> Fe {
    let [a0, a1, a2, a3, a4] = a.0;
    let [b0, b1, b2, b3, b4] = b.0;
    fold(carry([
        _mm512_add_epi64(a0, b0),
        _mm512_add_epi64(a1, b1),
        _mm512_add_epi64(a2, b2),
        _mm512_add_epi64(a3, b3),
        _mm512_add_epi64(a4, b4),
    ]))
}

/// `a − b` as `a + 4p − b` (`b < 2²⁵⁷ < 4p`), below `2p`.
#[inline]
#[target_feature(enable = "avx512f")]
fn sub(a: &Fe, b: &Fe) -> Fe {
    let [a0, a1, a2, a3, a4] = a.0;
    let [b0, b1, b2, b3, b4] = b.0;
    let [p0, p1, p2, p3, p4] = P.map(|limb| _mm512_set1_epi64((limb << 2) as i64));
    let limb = |a, p, b| _mm512_sub_epi64(_mm512_add_epi64(a, p), b);
    fold(carry([
        limb(a0, p0, b0),
        limb(a1, p1, b1),
        limb(a2, p2, b2),
        limb(a3, p3, b3),
        limb(a4, p4, b4),
    ]))
}

/// `p − y` for a canonical table coordinate `y ∈ [1, p − 1]`.
#[inline]
#[target_feature(enable = "avx512f")]
fn neg_canonical(y: &Fe) -> Fe {
    let [y0, y1, y2, y3, y4] = y.0;
    let [p0, p1, p2, p3, p4] = P.map(|limb| _mm512_set1_epi64(limb as i64));
    carry([
        _mm512_sub_epi64(p0, y0),
        _mm512_sub_epi64(p1, y1),
        _mm512_sub_epi64(p2, y2),
        _mm512_sub_epi64(p3, y3),
        _mm512_sub_epi64(p4, y4),
    ])
}

/// Montgomery reduction of a ten-limb product `t < 2²⁵⁶·2²⁶⁰`: `t·2⁻²⁶⁰`
/// modulo `p`, below `t/2²⁶⁰ + p`.
///
/// Round `i` adds `m·p·2^(52i)` with `m` the low 52 bits of limb `i`
/// (`−p⁻¹ ≡ 1 mod 2⁵²`). `m·(2⁵² − 1)` against limb `i` leaves its high
/// bits plus `m` as the carry into limb `i + 1`; limbs 1, 3 and 4 of `p`
/// go through the multiplier and limb 2 is zero.
#[expect(clippy::indexing_slicing, reason = "`i + 5 ≤ 9` over the ten product limbs")]
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn reduce(mut t: [__m512i; 10]) -> Fe {
    let mask = _mm512_set1_epi64(MASK52 as i64);
    let [_, p1, _, p3, p4] = P.map(|limb| _mm512_set1_epi64(limb as i64));
    for i in 0..5 {
        let m = _mm512_and_si512(t[i], mask);
        let out = _mm512_add_epi64(_mm512_srli_epi64::<52>(t[i]), m);
        t[i + 1] = _mm512_madd52lo_epu64(_mm512_add_epi64(t[i + 1], out), m, p1);
        t[i + 2] = _mm512_madd52hi_epu64(t[i + 2], m, p1);
        t[i + 3] = _mm512_madd52lo_epu64(t[i + 3], m, p3);
        t[i + 4] = _mm512_madd52lo_epu64(_mm512_madd52hi_epu64(t[i + 4], m, p3), m, p4);
        t[i + 5] = _mm512_madd52hi_epu64(t[i + 5], m, p4);
    }
    let [_, _, _, _, _, r0, r1, r2, r3, r4] = t;
    carry([r0, r1, r2, r3, r4])
}

/// `a·b·2⁻²⁶⁰ mod p`, below `2p` for `a, b < 2²⁵⁷`.
#[expect(clippy::indexing_slicing, reason = "`i + j + 1 ≤ 9` over the ten product limbs")]
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn mul(a: &Fe, b: &Fe) -> Fe {
    let mut t = [_mm512_setzero_si512(); 10];
    for (i, &ai) in a.0.iter().enumerate() {
        for (j, &bj) in b.0.iter().enumerate() {
            t[i + j] = _mm512_madd52lo_epu64(t[i + j], ai, bj);
            t[i + j + 1] = _mm512_madd52hi_epu64(t[i + j + 1], ai, bj);
        }
    }
    reduce(t)
}

/// `a²·2⁻²⁶⁰ mod p`: the ten cross products once, doubled, and the five
/// squares — 15 multiplier pairs where [`mul`] spends 25.
#[expect(clippy::indexing_slicing, reason = "`i + j + 1 ≤ 9` and `2i + 1 ≤ 9` over the ten product limbs")]
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn sqr(a: &Fe) -> Fe {
    let a = a.0;
    let mut t = [_mm512_setzero_si512(); 10];
    for i in 0..5 {
        for j in i + 1..5 {
            t[i + j] = _mm512_madd52lo_epu64(t[i + j], a[i], a[j]);
            t[i + j + 1] = _mm512_madd52hi_epu64(t[i + j + 1], a[i], a[j]);
        }
    }
    for limb in &mut t {
        *limb = _mm512_add_epi64(*limb, *limb);
    }
    for i in 0..5 {
        t[2 * i] = _mm512_madd52lo_epu64(t[2 * i], a[i], a[i]);
        t[2 * i + 1] = _mm512_madd52hi_epu64(t[2 * i + 1], a[i], a[i]);
    }
    reduce(t)
}

/// A canonical copy of `a < 2p`: `a − p` where that is not negative.
#[inline]
#[target_feature(enable = "avx512f")]
fn canonical(a: &Fe) -> Fe {
    let [a0, a1, a2, a3, a4] = a.0;
    let [p0, p1, p2, p3, p4] = P.map(|limb| _mm512_set1_epi64(limb as i64));
    let d = carry([
        _mm512_sub_epi64(a0, p0),
        _mm512_sub_epi64(a1, p1),
        _mm512_sub_epi64(a2, p2),
        _mm512_sub_epi64(a3, p3),
        _mm512_sub_epi64(a4, p4),
    ]);
    let below_p = _mm512_cmplt_epi64_mask(d.0[4], _mm512_setzero_si512());
    blend(below_p, &d, a)
}

/// Lane-wise `if mask { b } else { a }`.
#[inline]
#[target_feature(enable = "avx512f")]
fn blend(mask: __mmask8, a: &Fe, b: &Fe) -> Fe {
    let [a0, a1, a2, a3, a4] = a.0;
    let [b0, b1, b2, b3, b4] = b.0;
    Fe([
        _mm512_mask_blend_epi64(mask, a0, b0),
        _mm512_mask_blend_epi64(mask, a1, b1),
        _mm512_mask_blend_epi64(mask, a2, b2),
        _mm512_mask_blend_epi64(mask, a3, b3),
        _mm512_mask_blend_epi64(mask, a4, b4),
    ])
}

/// Jacobian `(X1, Y1, Z1)` plus affine `(x2, y2)`: the mixed addition of
/// [`Point::add_affine`] (`madd-2007-bl`) with its two factors of 2 left
/// out — its `(X3, Y3, Z3)` is this one's times `(4, 8, 2)`, the same
/// point. 8 products and 3 squares; `Z3 = 0` when `H = 0`, the doubling
/// and the opposite point this formula does not handle.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn add_affine([x1, y1, z1]: &[Fe; 3], x2: &Fe, y2: &Fe) -> [Fe; 3] {
    let z1z1 = sqr(z1);
    let u2 = mul(x2, &z1z1);
    let s2 = mul(&mul(y2, z1), &z1z1);
    let h = sub(&u2, x1);
    let r = sub(&s2, y1);
    let hh = sqr(&h);
    let hhh = mul(&h, &hh);
    let v = mul(x1, &hh);
    let x3 = sub(&sub(&sqr(&r), &hhh), &add(&v, &v));
    let y3 = sub(&mul(&r, &sub(&v, &x3)), &mul(y1, &hhh));
    let z3 = mul(z1, &h);
    [x3, y3, z3]
}

/// The eight walks: `Σ plan.digits[s][lane] · (the entry of window
/// plan.rows[s][lane])` per lane, one mixed addition per step in every
/// lane, each lane gathering from the one comb of `tables` whose mask
/// holds it (a lane in no mask reads zeros and must have only zero
/// digits).
///
/// Safe to call only where the processor has `avx512f` and
/// `avx512ifma` ([`available`]); the compiler makes every other caller
/// say so in an `unsafe` block.
#[target_feature(enable = "avx512f,avx512ifma")]
fn walk(tables: &[(&LaneComb, __mmask8)], plan: &Plan) -> LaneOut {
    // lint:secret-scope(plan, step_digits, digit, negative, magnitude, nonzero, index, entry, y2) —
    // a signing walk's lanes carry the digits of RFC 6979 nonces (a
    // verification walk's come from public signatures and digests).
    let zero = Fe([_mm512_setzero_si512(); 5]);
    let one = splat(&forms().one);
    let mut acc = [zero; 3];
    let mut infinite: __mmask8 = 0xff;
    for (step_digits, step_rows) in plan.digits.iter().zip(&plan.rows) {
        cost::count(cost::Op::LaneStep);
        // SAFETY: `step_digits` and `step_rows` are references to eight
        // readable `i64`s each, and `_mm512_loadu_si512` asks no
        // alignment of its pointer.
        let (digit, row) = unsafe {
            (_mm512_loadu_si512(step_digits.as_ptr().cast()), _mm512_loadu_si512(step_rows.as_ptr().cast()))
        };
        let negative = _mm512_cmplt_epi64_mask(digit, _mm512_setzero_si512());
        let magnitude = _mm512_abs_epi64(digit); // 0..=64
        let nonzero = _mm512_test_epi64_mask(magnitude, magnitude);
        // The offset of entry `|d| − 1` of the lane's window in `i64`s,
        // ten per entry; a zero digit reads entry 63 and is blended away
        // below.
        let slot = _mm512_and_si512(
            _mm512_sub_epi64(magnitude, _mm512_set1_epi64(1)),
            _mm512_set1_epi64(COMB_ENTRIES as i64 - 1),
        );
        let index = _mm512_add_epi64(row, _mm512_add_epi64(_mm512_slli_epi64::<3>(slot), _mm512_slli_epi64::<1>(slot)));
        let mut entry = [_mm512_setzero_si512(); 10];
        for &(table, lanes) in tables {
            let base = table.entries.as_flattened();
            for (limb, gathered) in entry.iter_mut().enumerate() {
                // SAFETY: `base` is a live comb's 37 · 640 `i64`s, borrowed
                // for the whole call. `Plan` keeps every row at
                // `640 · w` with `w < 37`, and every lane of `slot` is
                // `e < 64`, so a lane in `lanes` reads
                // `base[640 · w + 10 · e + limb]` with `limb < 10`, inside
                // `base`; a masked gather does not touch memory for a
                // lane outside its mask, which keeps what `gathered` held.
                *gathered = unsafe { _mm512_mask_i64gather_epi64::<8>(*gathered, lanes, index, base.as_ptr().wrapping_add(limb)) }; // lint:allow(consttime): data-dependent comb lookup — for a signature a documented throughput/constant-time tradeoff (DESIGN.md §7: nonces are single-use RFC 6979 values and deployments are LAN ordering clusters without co-resident attackers); for a verification the digits come from public signatures and digests
            }
        }
        let [e0, e1, e2, e3, e4, e5, e6, e7, e8, e9] = entry;
        let x2 = Fe([e0, e1, e2, e3, e4]);
        let y2 = Fe([e5, e6, e7, e8, e9]);
        let y2 = blend(negative, &y2, &neg_canonical(&y2));
        let sum = add_affine(&acc, &x2, &y2);
        let (added, first) = (nonzero & !infinite, nonzero & infinite);
        let [x, y, z] = acc;
        acc = [
            blend(first, &blend(added, &x, &sum[0]), &x2),
            blend(first, &blend(added, &y, &sum[1]), &y2),
            blend(first, &blend(added, &z, &sum[2]), &one),
        ];
        infinite &= !nonzero;
    }
    // A lane that never left the identity has `Z = 0` already.
    let to_scalar_form = splat(&forms().to_scalar_form);
    let mut out = LaneOut {
        limbs: [[0; LANES]; 15],
    };
    for (coordinate, limbs) in acc.iter().zip(out.limbs.chunks_exact_mut(5)) {
        let Fe(value) = canonical(&mul(coordinate, &to_scalar_form));
        for (limb, stored) in value.iter().zip(limbs) {
            // SAFETY: `stored` is a reference to eight writable `u64`s, and
            // `_mm512_storeu_si512` asks no alignment of its pointer.
            unsafe { _mm512_storeu_si512(stored.as_mut_ptr().cast(), *limb) };
        }
    }
    out
}
