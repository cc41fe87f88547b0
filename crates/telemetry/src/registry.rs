//! Metric primitives: counters, high-water gauges, log2 histograms.
//!
//! All three are plain `AtomicU64` aggregates with `const fn new`, so
//! they can live in statics and record from any thread without locks or
//! allocation. Counters and gauges always record: the simulation
//! components count in plain locals and the engine flushes them once per
//! epoch, while the store and the measurement cache add once per
//! operation, next to I/O or a lock that costs far more.
//! [`Histogram::record`] is the per-sample path and first checks the
//! process-wide [`crate::enabled`] switch; [`Histogram::observe`]
//! bypasses it for local (non-registry) instances.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: one for zero plus one per power of two
/// up to `u64::MAX` (`2^0..2^63`).
pub const BUCKETS: usize = 65;

/// The bucket a value lands in: `0` for zero, else `64 - leading_zeros`
/// — bucket `i >= 1` covers `[2^(i-1), 2^i - 1]`.
#[inline]
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (`0`, then `2^i - 1`).
#[inline]
#[must_use]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    val: AtomicU64,
}

impl Counter {
    /// A zeroed counter, usable in statics.
    #[must_use]
    pub const fn new() -> Counter {
        Counter {
            val: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline(always)]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline(always)]
    pub fn add(&self, n: u64) {
        self.val.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.val.load(Ordering::Relaxed)
    }

    /// Resets to zero (snapshot plumbing, not a hot-path operation).
    pub fn reset(&self) {
        self.val.store(0, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Counter {
        Counter::new()
    }
}

/// High-water gauge: retains the maximum value ever recorded.
#[derive(Debug)]
pub struct Gauge {
    val: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge, usable in statics.
    #[must_use]
    pub const fn new() -> Gauge {
        Gauge {
            val: AtomicU64::new(0),
        }
    }

    /// Raises the high-water mark to `v` if larger.
    #[inline(always)]
    pub fn record_max(&self, v: u64) {
        self.val.fetch_max(v, Ordering::Relaxed);
    }

    /// Current high-water mark.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.val.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.val.store(0, Ordering::Relaxed);
    }
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge::new()
    }
}

/// Fixed log2-bucket histogram over `u64` values (integer nanoseconds
/// on every current use).
///
/// 65 buckets cover the full `u64` range exactly: bucket 0 holds zeros,
/// bucket `i` holds `[2^(i-1), 2^i - 1]`. Recording is three relaxed
/// fetch-adds (bucket, count, sum); `count` and `sum` are maintained
/// redundantly so percentile math never re-walks buckets and the
/// proptest invariant `sum(buckets) == count` stays checkable.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    /// A zeroed histogram, usable in statics.
    #[must_use]
    pub const fn new() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    /// Records `v`, if telemetry is enabled.
    #[inline(always)]
    pub fn record(&self, v: u64) {
        if crate::enabled() {
            self.observe(v);
        }
    }

    /// Records `v` unconditionally (for local histograms in tests and
    /// tools that own their own lifecycle).
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (wrapping on overflow, like Prometheus).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Copies the bucket counts out.
    #[must_use]
    pub fn buckets(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (o, b) in out.iter_mut().zip(self.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Resets every cell to zero.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// Quantile estimate from bucket counts: the upper bound of the bucket
/// where the cumulative count first reaches `ceil(q * count)`. Returns 0
/// for an empty histogram. `q` is clamped to `[0, 1]`.
#[must_use]
pub fn bucket_quantile(buckets: &[u64; BUCKETS], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * count as f64).ceil() as u64).max(1);
    let mut cum = 0u64;
    for (i, &b) in buckets.iter().enumerate() {
        cum = cum.saturating_add(b);
        if cum >= rank {
            return bucket_upper_bound(i);
        }
    }
    bucket_upper_bound(BUCKETS - 1)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..BUCKETS {
            let ub = bucket_upper_bound(i);
            assert_eq!(bucket_index(ub), i, "upper bound of bucket {i}");
            if i < 64 {
                assert_eq!(bucket_index(ub + 1), i + 1);
            }
        }
    }

    #[test]
    fn histogram_observe_tracks_count_and_sum() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 1000, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        let buckets = h.buckets();
        assert_eq!(buckets.iter().sum::<u64>(), 6);
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[64], 1);
    }

    #[test]
    fn quantiles_walk_cumulative_counts() {
        let h = Histogram::new();
        // 90 fast observations (bucket of 100 = 7), 10 slow (bucket of
        // 100_000 = 17): p50 lands in the fast bucket, p99 in the slow.
        for _ in 0..90 {
            h.observe(100);
        }
        for _ in 0..10 {
            h.observe(100_000);
        }
        let b = h.buckets();
        assert_eq!(bucket_quantile(&b, h.count(), 0.50), 127);
        assert_eq!(bucket_quantile(&b, h.count(), 0.99), 131_071);
        assert_eq!(bucket_quantile(&b, h.count(), 0.0), 127);
        assert_eq!(bucket_quantile(&[0; BUCKETS], 0, 0.99), 0);
    }
}
