//! Deterministic pseudo-random number generation for simulations.
//!
//! A self-contained xoshiro256++ generator seeded through SplitMix64.
//! Keeping this in-repo (rather than using the `rand` crate) guarantees
//! that simulated experiments replay bit-identically across `rand`
//! versions and platforms.

use std::ops::Range;

/// xoshiro256++ PRNG with SplitMix64 seeding.
///
/// # Examples
///
/// ```
/// use hlf_simnet::SimRng;
///
/// let mut a = SimRng::new(7);
/// let mut b = SimRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    state: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> SimRng {
        // SplitMix64 expansion, as recommended by the xoshiro authors.
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let state = [next_sm(), next_sm(), next_sm(), next_sm()];
        SimRng { state }
    }

    /// Next uniformly distributed 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0
            .wrapping_add(s3)
            .rotate_left(23)
            .wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// Uniform value in `[0, bound)`; returns 0 for `bound == 0`.
    ///
    /// Uses Lemire's multiply-shift with rejection for unbiased output.
    pub fn next_range(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        // 53 random bits over 2^53.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fills `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            #[expect(clippy::indexing_slicing, reason = "`chunks_mut(8)` yields chunks of at most 8 bytes")]
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// Uniform `usize` in the half-open `range`.
    pub fn next_in(&mut self, range: Range<usize>) -> usize {
        range.start + self.next_range(range.len() as u64) as usize
    }

    /// A list whose length is drawn uniformly from `len`, one `item`
    /// per slot.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut SimRng) -> T) -> Vec<T> {
        (0..self.next_in(len)).map(|_| item(self)).collect()
    }

    /// Random bytes, with a length drawn uniformly from `len`.
    pub fn bytes(&mut self, len: Range<usize>) -> Vec<u8> {
        let mut buf = vec![0u8; self.next_in(len)];
        self.fill_bytes(&mut buf);
        buf
    }
}

/// The workspace's property-test loop: runs `property` `cases` times,
/// each on a fresh generator derived from `seed` and the case number.
///
/// A failing case prints both before its panic propagates, so it can be
/// replayed alone with `SimRng::new(seed + case)`.
pub fn for_each_case(seed: u64, cases: u64, mut property: impl FnMut(&mut SimRng)) {
    struct Report(u64, u64);
    impl Drop for Report {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("property failed: seed {:#x}, case {}", self.0, self.1);
            }
        }
    }
    for case in 0..cases {
        let _report = Report(seed, case);
        property(&mut SimRng::new(seed.wrapping_add(case)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let seq = |seed: u64| -> Vec<u64> {
            let mut rng = SimRng::new(seed);
            (0..16).map(|_| rng.next_u64()).collect()
        };
        assert_eq!(seq(42), seq(42));
        assert_ne!(seq(42), seq(43));
    }

    #[test]
    fn range_is_bounded_and_covers() {
        let mut rng = SimRng::new(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.next_range(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit in 1000 draws");
        assert_eq!(rng.next_range(0), 0);
        assert_eq!(rng.next_range(1), 0);
    }

    #[test]
    fn f64_in_unit_interval_with_plausible_mean() {
        let mut rng = SimRng::new(2);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean} not near 0.5");
    }

    #[test]
    fn for_each_case_gives_every_case_its_own_replayable_stream() {
        let mut firsts = Vec::new();
        for_each_case(9, 64, |rng| {
            let len = rng.bytes(3..17).len();
            assert!((3..17).contains(&len));
            firsts.push(len);
        });
        assert_eq!(firsts.len(), 64);
        assert_eq!(firsts[5], SimRng::new(9 + 5).bytes(3..17).len());
        assert!(firsts.iter().any(|&l| l != firsts[0]), "cases must differ");
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut rng = SimRng::new(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert_ne!(buf, [0u8; 13]);
    }
}
