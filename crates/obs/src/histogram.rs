//! Log-linear-bucket histograms (HDR style).
//!
//! Values are binned into 16 linear sub-buckets per power of two,
//! giving a guaranteed relative error ≤ 1/16 (~6.25%) across the full
//! `u64` range with a fixed 976-bucket table — no allocation or
//! rebalancing on the record path, which is a handful of relaxed
//! atomic ops.
//!
//! Layout: values `0..16` map 1:1 to buckets `0..16`. For `v >= 16`,
//! let `m` be the index of the most significant set bit (`m >= 4`);
//! the bucket is `16 + (m - 4) * 16 + ((v >> (m - 4)) - 16)`. Each
//! group of 16 buckets spans one power of two with linear width
//! `2^(m-4)`.

use crate::snapshot::HistogramSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket precision: 2^4 = 16 linear buckets per power of two.
const SUB_BITS: u32 = 4;
/// Number of linear sub-buckets in each power-of-two group.
const SUB_COUNT: usize = 1 << SUB_BITS;
/// Bucket groups cover msb positions `SUB_BITS..=63`.
const GROUPS: usize = 64 - SUB_BITS as usize;
/// Total bucket count: 16 unit buckets + 60 groups of 16.
pub const NUM_BUCKETS: usize = SUB_COUNT + GROUPS * SUB_COUNT;

/// Bucket index for a value. Total order preserving: `a <= b` implies
/// `bucket_index(a) <= bucket_index(b)`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT as u64 {
        return v as usize;
    }
    let m = 63 - v.leading_zeros(); // m >= SUB_BITS
    let group = (m - SUB_BITS) as usize;
    let sub = ((v >> group) as usize) - SUB_COUNT;
    SUB_COUNT + group * SUB_COUNT + sub
}

/// Smallest value mapping to bucket `index`.
#[inline]
pub fn bucket_lower(index: usize) -> u64 {
    if index < SUB_COUNT {
        return index as u64;
    }
    let group = (index - SUB_COUNT) / SUB_COUNT;
    let sub = (index - SUB_COUNT) % SUB_COUNT;
    ((SUB_COUNT + sub) as u64) << group
}

/// Largest value mapping to bucket `index` (inclusive).
#[inline]
pub fn bucket_upper(index: usize) -> u64 {
    if index < SUB_COUNT {
        return index as u64;
    }
    let group = (index - SUB_COUNT) / SUB_COUNT;
    bucket_lower(index) + ((1u64 << group) - 1)
}

/// A concurrent log-linear histogram.
///
/// `record` is lock-free and wait-free (relaxed atomics only);
/// `snapshot` walks the bucket table without stopping writers, so a
/// snapshot taken under concurrent recording is a *consistent-enough*
/// view: per-bucket counts are exact at some instant, aggregate
/// `count`/`sum` may trail by in-flight records.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[expect(clippy::unreachable, reason = "the Vec is built with exactly NUM_BUCKETS entries, so the array conversion cannot fail")]
    pub fn new() -> Histogram {
        // `AtomicU64` is not `Copy`; build the table through a Vec.
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; NUM_BUCKETS]> = match buckets.into_boxed_slice().try_into() {
            Ok(b) => b,
            Err(_) => unreachable!("bucket table has NUM_BUCKETS entries"),
        };
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "`bucket_index` maps every u64 into `0..NUM_BUCKETS` by construction")]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records `n` identical observations.
    #[expect(clippy::indexing_slicing, reason = "`bucket_index` maps every u64 into `0..NUM_BUCKETS` by construction")]
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.saturating_mul(n), Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Starts a [`crate::SpanTimer`] that records elapsed microseconds
    /// into this histogram when dropped.
    pub fn span(&self) -> crate::SpanTimer<'_> {
        crate::SpanTimer::new(self)
    }

    /// Point-in-time copy with only the non-empty buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((bucket_lower(i), bucket_upper(i), c));
            }
        }
        let count = self.count.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_buckets_are_exact() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_contain_value() {
        let probes = [
            16u64,
            17,
            31,
            32,
            100,
            1_000,
            65_535,
            65_536,
            1 << 40,
            (1 << 40) + 12_345,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &probes {
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "index in table for {v}");
            assert!(
                bucket_lower(i) <= v && v <= bucket_upper(i),
                "value {v} outside bucket {i}: [{}, {}]",
                bucket_lower(i),
                bucket_upper(i)
            );
        }
    }

    #[test]
    fn buckets_tile_the_range() {
        // Every bucket starts exactly one past the previous bucket's
        // upper bound, and the last bucket ends at u64::MAX.
        for i in 1..NUM_BUCKETS {
            assert_eq!(
                bucket_lower(i),
                bucket_upper(i - 1) + 1,
                "gap or overlap between buckets {} and {}",
                i - 1,
                i
            );
        }
        assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn relative_error_is_bounded() {
        // Bucket width / lower bound <= 1/16 for all v >= 16.
        for i in 16..NUM_BUCKETS {
            let lo = bucket_lower(i);
            let width = bucket_upper(i) - lo + 1;
            assert!(width <= lo / 16 + 1, "bucket {i} too wide: {width} at {lo}");
        }
    }

    #[test]
    fn record_and_snapshot() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().count, 0);
        assert_eq!(h.snapshot().min, 0);
        for v in [1u64, 1, 5, 100, 10_000] {
            h.record(v);
        }
        h.record_n(7, 3);
        let s = h.snapshot();
        assert_eq!(s.count, 8);
        assert_eq!(s.sum, 1 + 1 + 5 + 100 + 10_000 + 21);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 10_000);
        let total: u64 = s.buckets.iter().map(|&(_, _, c)| c).sum();
        assert_eq!(total, 8);
        // Bucket holding the two 1s.
        assert!(s.buckets.iter().any(|&(lo, hi, c)| lo <= 1 && 1 <= hi && c == 2));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..25_000u64 {
                        h.record(t * 1_000 + (i % 97));
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100_000);
        assert_eq!(s.buckets.iter().map(|&(_, _, c)| c).sum::<u64>(), 100_000);
    }
}
