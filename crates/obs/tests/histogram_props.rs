//! Seeded property tests (`hlf_simnet::for_each_case`) for histogram
//! bucket math and quantiles, a generative JSON round-trip, and
//! concurrent-writer checks (the
//! histogram is written lock-free from every replica thread, so the
//! snapshot/merge algebra has to hold under real interleavings, not
//! just sequential recording).

use hlf_obs::histogram::{bucket_index, bucket_lower, bucket_upper, NUM_BUCKETS};
use hlf_obs::{Histogram, HistogramSnapshot, MetricSnapshot, MetricValue, Snapshot};
use hlf_simnet::{for_each_case, SimRng};
use std::ops::Range;
use std::sync::Arc;

/// Deterministic value stream for the threaded tests. Values stay in a
/// latency-like range so buckets collide across threads (the
/// interesting contention case).
fn stream(seed: u64, len: usize) -> Vec<u64> {
    let mut rng = SimRng::new(seed);
    (0..len).map(|_| rng.next_range(50_000_000)).collect()
}

/// An arbitrary `u64` of arbitrary magnitude: uniform bits shifted
/// right by 0..64, so every bucket row and the overflow range are hit.
fn any_u64(rng: &mut SimRng) -> u64 {
    rng.next_u64() >> rng.next_range(64)
}

fn values(rng: &mut SimRng, len: Range<usize>) -> Vec<u64> {
    rng.vec(len, any_u64)
}

fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

/// Eight threads hammering ONE shared histogram produce exactly the
/// sequential snapshot: no lost counts, no torn min/max, same buckets.
#[test]
fn concurrent_writers_lose_nothing() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 20_000;
    let shared = Arc::new(Histogram::new());
    let slices: Vec<Vec<u64>> = (0..THREADS)
        .map(|t| stream(0xfeed_0000 + t as u64, PER_THREAD))
        .collect();

    let handles: Vec<_> = slices
        .iter()
        .map(|slice| {
            let h = Arc::clone(&shared);
            let values = slice.clone();
            std::thread::spawn(move || {
                for v in values {
                    h.record(v);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("writer thread panicked");
    }

    let all: Vec<u64> = slices.into_iter().flatten().collect();
    let expected = snapshot_of(&all);
    let got = shared.snapshot();
    assert_eq!(got.count, (THREADS * PER_THREAD) as u64);
    assert_eq!(got, expected, "concurrent snapshot diverged from sequential");
}

/// Per-thread histograms merged in any grouping equal one histogram of
/// everything — the cross-replica aggregation path is safe regardless
/// of which replica's snapshot arrives first.
#[test]
fn parallel_shards_merge_to_the_sequential_snapshot() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 10_000;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let h = Histogram::new();
                for v in stream(0xabba_0000 + t as u64, PER_THREAD) {
                    h.record(v);
                }
                h.snapshot()
            })
        })
        .collect();
    let shards: Vec<HistogramSnapshot> = handles
        .into_iter()
        .map(|h| h.join().expect("recorder thread panicked"))
        .collect();

    let fold = |order: &mut dyn Iterator<Item = &HistogramSnapshot>| {
        let mut acc = HistogramSnapshot::default();
        for s in order {
            acc.merge(s);
        }
        acc
    };
    let forward = fold(&mut shards.iter());
    let reverse = fold(&mut shards.iter().rev());
    // Pairwise tree merge: (0⊕1) ⊕ (2⊕3) ⊕ ...
    let mut tree = HistogramSnapshot::default();
    for pair in shards.chunks(2) {
        let mut node = pair[0].clone();
        if let Some(second) = pair.get(1) {
            node.merge(second);
        }
        tree.merge(&node);
    }
    assert_eq!(forward, reverse, "merge order changed the aggregate");
    assert_eq!(forward, tree, "merge grouping changed the aggregate");

    let all: Vec<u64> = (0..THREADS)
        .flat_map(|t| stream(0xabba_0000 + t as u64, PER_THREAD))
        .collect();
    assert_eq!(
        forward,
        snapshot_of(&all),
        "merged shards diverged from single-histogram recording"
    );
}

const CASES: u64 = 64;

/// Every recorded value falls in a bucket whose range contains it.
#[test]
fn bucket_contains_value() {
    for_each_case(0x0b5_0001, CASES, |rng| {
        let v = any_u64(rng);
        let i = bucket_index(v);
        assert!(i < NUM_BUCKETS);
        assert!(bucket_lower(i) <= v, "lower {} > {}", bucket_lower(i), v);
        assert!(v <= bucket_upper(i), "upper {} < {}", bucket_upper(i), v);
    });
}

/// Bucketing preserves order: a <= b implies bucket(a) <= bucket(b).
#[test]
fn bucket_index_is_monotone() {
    for_each_case(0x0b5_0002, CASES, |rng| {
        let (a, b) = (any_u64(rng), any_u64(rng));
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(bucket_index(lo) <= bucket_index(hi));
    });
}

/// Quantiles are monotone in q and bounded by [min, max].
#[test]
fn quantiles_are_monotone() {
    for_each_case(0x0b5_0003, CASES, |rng| {
        let snap = snapshot_of(&values(rng, 1..200));
        let (qa, qb) = (rng.next_range(101), rng.next_range(101));
        let (qlo, qhi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        let vlo = snap.quantile(qlo as f64 / 100.0);
        let vhi = snap.quantile(qhi as f64 / 100.0);
        assert!(vlo <= vhi, "q{qlo}={vlo} > q{qhi}={vhi}");
        assert!(vhi <= snap.max);
        // Any quantile is at least the smallest bucket's lower bound.
        assert!(vlo >= snap.buckets[0].0);
    });
}

/// A quantile answer is never below the true value by more than
/// the bucket's relative error (the bucket upper bound is
/// reported, so it can only overshoot within one bucket width).
#[test]
fn median_lands_in_a_populated_bucket() {
    for_each_case(0x0b5_0004, CASES, |rng| {
        let snap = snapshot_of(&rng.vec(1..100, |r| r.next_range(1_000_000)));
        let p50 = snap.p50();
        // p50 equals some populated bucket's (clamped) upper bound.
        assert!(
            snap.buckets.iter().any(|&(_, hi, _)| p50 == hi.min(snap.max)),
            "p50 {p50} not a bucket boundary"
        );
    });
}

/// Bucket-wise merge is associative (and agrees with recording all
/// values into one histogram), so cross-replica aggregation order
/// never changes a report. Also the regression test for `merge`
/// overflowing `count`/`sum` with `+=` instead of wrapping like
/// `Histogram::record` does: uniform `u64` values overflow the sum
/// within a few records.
#[test]
fn merge_is_associative() {
    for_each_case(0x0b5_0005, CASES, |rng| {
        let mut uniform = || rng.vec(0..50, SimRng::next_u64);
        let (a, b, c) = (uniform(), uniform(), uniform());
        let (sa, sb, sc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));

        // (a ⊕ b) ⊕ c
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        // a ⊕ (b ⊕ c)
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        assert_eq!(&left, &right);

        // Both equal the histogram of the concatenation, wrapped sum
        // included.
        let all = [a, b, c].concat();
        let direct = snapshot_of(&all);
        assert_eq!(left.count, direct.count);
        assert_eq!(left.sum, direct.sum);
        assert_eq!(left.buckets, direct.buckets);
        if !all.is_empty() {
            assert_eq!(left.min, direct.min);
            assert_eq!(left.max, direct.max);
        }
    });
}

/// Snapshot totals equal what was recorded, and the JSON form
/// round-trips exactly for arbitrary recorded data.
#[test]
fn recorded_snapshot_roundtrips_via_json() {
    for_each_case(0x0b5_0006, CASES, |rng| {
        let values = values(rng, 0..100);
        let snap = snapshot_of(&values);
        assert_eq!(snap.count, values.len() as u64);
        assert_eq!(
            snap.buckets.iter().map(|&(_, _, c)| c).sum::<u64>(),
            values.len() as u64
        );
        if let Some(&max) = values.iter().max() {
            assert_eq!(snap.max, max);
            assert_eq!(snap.min, *values.iter().min().unwrap());
        }

        let wrapped = Snapshot {
            registry: "prop".to_string(),
            metrics: vec![MetricSnapshot {
                name: "test.histogram".to_string(),
                value: MetricValue::Histogram(snap),
            }],
        };
        let back = Snapshot::from_json(&wrapped.to_json()).unwrap();
        assert_eq!(back, wrapped);
    });
}

/// The reported p99 is within one log-linear bucket of the exact
/// order statistic: it lands in the *same* bucket as the true
/// `ceil(0.99 * n)`-th smallest value and never undershoots it.
/// That bounds the quantile error to the bucket's relative width
/// for every input distribution.
#[test]
fn p99_is_within_one_bucket_of_exact() {
    for_each_case(0x0b5_0007, CASES, |rng| {
        let mut sorted = values(rng, 1..400);
        let snap = snapshot_of(&sorted);
        let reported = snap.p99();

        sorted.sort_unstable();
        let rank = ((0.99 * sorted.len() as f64).ceil() as usize).max(1);
        let exact = sorted[rank - 1];

        assert!(reported >= exact, "p99 {reported} undershoots exact {exact}");
        assert_eq!(
            bucket_index(reported),
            bucket_index(exact),
            "p99 {reported} left the exact value's bucket"
        );
        // And it cannot exceed the bucket's upper bound (clamped to the
        // observed max), i.e. the overshoot is below one bucket width.
        assert!(reported <= bucket_upper(bucket_index(exact)).min(snap.max));
    });
}
