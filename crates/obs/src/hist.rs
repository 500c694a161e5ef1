//! Log-linear latency histograms with exact atomic counts.
//!
//! A [`Histogram`] is a fixed array of [`N_BUCKETS`] atomic buckets. The
//! values 0 to 3 each have a bucket of their own; above that, every
//! octave `[2^k, 2^(k+1))` is split into [`SUB_BUCKETS`] equal
//! sub-buckets of width `2^(k-2)` (the last one's upper edge is
//! `u64::MAX`). Recording is three relaxed atomic adds and one atomic max
//! — cheap enough to leave on unconditionally, and *exact*: totals are
//! never sampled or decayed, so a quiescent histogram's bucket sum equals
//! the number of `record` calls, which lets tests assert on counts
//! deterministically even when the recorded durations themselves are
//! nondeterministic.
//!
//! Percentiles come from a [`HistSnapshot`]: the reported quantile is the
//! upper edge of the bucket containing that rank, capped at the observed
//! maximum, so `p50 <= p95 <= p99 <= max` holds by construction. A
//! sub-bucket's upper edge is below 5/4 of its lower edge, so a reported
//! quantile overstates the value at that rank by less than a quarter
//! (values below 8 are exact).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Sub-buckets per octave (a power of two).
pub const SUB_BUCKETS: usize = 4;

/// `log2(SUB_BUCKETS)`: the bits below an octave's leading one that pick
/// its sub-bucket.
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// Bucket count: one per value below [`SUB_BUCKETS`], then
/// [`SUB_BUCKETS`] per octave from `2^SUB_BITS` up to `2^63`.
pub const N_BUCKETS: usize = SUB_BUCKETS * (64 - SUB_BITS as usize + 1);

/// Bucket holding `v`: `v` itself below [`SUB_BUCKETS`], else the octave
/// of `v`'s leading one and the `log2(SUB_BUCKETS)` bits after it.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let k = 63 - v.leading_zeros();
    let sub = (v >> (k - SUB_BITS)) as usize & (SUB_BUCKETS - 1);
    (k - SUB_BITS + 1) as usize * SUB_BUCKETS + sub
}

/// Inclusive upper edge of bucket `i` (`u64::MAX` for the last bucket).
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    // Bucket i covers [(S + sub) << shift, (S + sub + 1) << shift); the
    // last bucket's end is 2^64.
    let shift = i / SUB_BUCKETS - 1;
    let end = ((SUB_BUCKETS + i % SUB_BUCKETS + 1) as u128) << shift;
    (end - 1) as u64
}

/// A log-linear bucketed histogram safe for concurrent recording.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub const fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; N_BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation. Thread-safe; counts are exact.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Point-in-time copy. `count` is the bucket sum, so a snapshot is
    /// always self-consistent even if taken mid-record.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; N_BUCKETS];
        let mut count = 0u64;
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Relaxed);
            count += *out;
        }
        HistSnapshot {
            buckets,
            count,
            sum: self.sum.load(Relaxed),
            max: self.max.load(Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`] for exposition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    pub buckets: [u64; N_BUCKETS],
    /// Total observations (sum of buckets).
    pub count: u64,
    /// Sum of all recorded values (wraps on overflow).
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistSnapshot {
    /// Quantile `q` in `[0, 1]`: the upper edge of the bucket containing
    /// rank `ceil(q * count)`, capped at `max`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Non-empty buckets as `(inclusive_upper_edge, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper(i), c))
            .collect()
    }
}

/// A monotone counter (e.g. the pool busy-time integral, in µs).
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    pub const fn new() -> Self {
        Self {
            v: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn add(&self, delta: u64) {
        self.v.fetch_add(delta, Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.v.load(Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_edges_split_each_octave_in_four() {
        assert_eq!(N_BUCKETS, 252);
        // Values below 8 have buckets of their own.
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
        // The buckets tile 0..=u64::MAX in order, with no gap or overlap.
        let mut lower = 0u64;
        for i in 0..N_BUCKETS {
            let upper = bucket_upper(i);
            assert!(upper >= lower, "bucket {i} is empty");
            assert_eq!(bucket_index(lower), i, "lower edge of bucket {i}");
            assert_eq!(bucket_index(upper), i, "upper edge of bucket {i}");
            if i + 1 < N_BUCKETS {
                lower = upper + 1;
            } else {
                assert_eq!(upper, u64::MAX);
            }
        }
        // Each octave [2^k, 2^(k+1)) from k = 2 on splits into four equal
        // sub-buckets, so an upper edge lies less than a quarter of its
        // lower edge above it.
        for k in 2..64u32 {
            let width = 1u64 << (k - 2);
            for sub in 0..4u64 {
                let lo = (4 + sub) * width;
                let upper = bucket_upper(bucket_index(lo));
                assert_eq!(upper, lo + (width - 1), "octave {k}, sub-bucket {sub}");
                assert!(upper - lo < lo / 4);
            }
        }
        // A memo-hit select's 100 µs reads as 111 µs, not the octave's 127.
        assert_eq!(bucket_upper(bucket_index(100)), 111);
        assert_eq!(bucket_upper(bucket_index(1000)), 1023);
        assert_eq!(bucket_upper(bucket_index(5000)), 5119);
    }

    #[test]
    fn u64_max_clamps_into_last_bucket() {
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
        assert_eq!(bucket_index(1u64 << 63), N_BUCKETS - SUB_BUCKETS);
        assert_eq!(bucket_upper(N_BUCKETS - 1), u64::MAX);
        let h = Histogram::new();
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.buckets[N_BUCKETS - 1], 1);
    }

    #[test]
    fn quantiles_walk_bucket_edges() {
        let h = Histogram::new();
        // 90 fast (bucket upper edge 111), 9 medium (edge 1023), 1 slow.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..9 {
            h.record(1000);
        }
        h.record(50_000);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 50_000);
        assert_eq!(s.p50(), 111);
        assert_eq!(s.p95(), 1023);
        assert_eq!(s.p99(), 1023);
        assert_eq!(s.quantile(1.0), 50_000);
    }

    #[test]
    fn quantiles_cap_at_observed_max() {
        let h = Histogram::new();
        h.record(3000); // bucket upper edge is 3071 — must not be reported
        let s = h.snapshot();
        assert_eq!(s.p50(), 3000);
        assert_eq!(s.p99(), 3000);
    }

    #[test]
    fn quantiles_are_monotone() {
        let h = Histogram::new();
        for v in [0u64, 1, 7, 64, 900, 900, 12_345, 1 << 40] {
            h.record(v);
        }
        let s = h.snapshot();
        assert!(s.p50() <= s.p95());
        assert!(s.p95() <= s.p99());
        assert!(s.p99() <= s.max);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.max, 0);
        assert!(s.nonzero_buckets().is_empty());
    }

    #[test]
    fn concurrent_records_keep_exact_totals() {
        let h = Arc::new(Histogram::new());
        let threads = 8;
        let per = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..per {
                        h.record(t * 1_000 + (i % 37));
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, threads * per, "every record lands exactly once");
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
        // The value multiset is deterministic, so sum and max are too.
        let expect_sum: u64 = (0..threads)
            .flat_map(|t| (0..per).map(move |i| t * 1_000 + (i % 37)))
            .sum();
        assert_eq!(s.sum, expect_sum);
        assert_eq!(s.max, (threads - 1) * 1_000 + 36);
    }

    #[test]
    fn nonzero_buckets_ascend() {
        let h = Histogram::new();
        h.record(0);
        h.record(5);
        h.record(5_000);
        let nz = h.snapshot().nonzero_buckets();
        assert_eq!(nz, vec![(0, 1), (5, 1), (5119, 1)]);
    }
}
