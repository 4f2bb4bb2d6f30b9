//! Fixed-bucket log₂-scale histograms.
//!
//! The record path is allocation-free and lock-free: one
//! `leading_zeros` to pick the bucket, then three relaxed `fetch_add`s
//! (bucket, count, sum). Bucket boundaries are powers of two, so the
//! same type serves nanosecond latencies (65 buckets cover 1 ns to
//! ~584 years) and tile occupancy counts without configuration — the
//! price is that quantiles are bucket-resolution approximations (an
//! answer is exact up to one power of two), which is the standard
//! monitoring trade.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of buckets: bucket `0` holds the value `0`, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket a value falls into (`0` for `0`, else `64 - clz(v)`).
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
pub(crate) fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// The shared atomic cells behind a [`Histogram`] handle.
pub(crate) struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    pub(crate) fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    pub(crate) fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A handle onto one histogram series. Cloning shares the cells; a
/// disabled handle ([`Histogram::noop`]) records nothing. Obtain
/// registered handles from [`crate::Registry::histogram`]; a
/// [`Histogram::standalone`] works without any registry (the type the
/// bench bins and occupancy reports aggregate through, so service and
/// bench quantiles agree by construction).
#[derive(Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCore>>);

impl Histogram {
    /// A disabled handle: every record is a no-op, the snapshot is
    /// empty.
    pub fn noop() -> Self {
        Histogram(None)
    }

    /// An enabled handle not attached to any registry.
    pub fn standalone() -> Self {
        Histogram(Some(Arc::new(HistogramCore::new())))
    }

    /// Record one sample.
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(core) = &self.0 {
            core.observe(v);
        }
    }

    /// A point-in-time copy of the cells.
    pub fn snapshot(&self) -> HistogramSnapshot {
        match &self.0 {
            Some(core) => core.snapshot(),
            None => HistogramSnapshot::default(),
        }
    }
}

/// A point-in-time copy of one histogram's cells, with quantile /
/// mean accessors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value (exact, not bucket-rounded).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// The `q`-quantile (`q` in `[0, 1]`), as the inclusive upper bound
    /// of the bucket holding the rank — an overestimate by at most one
    /// power of two. `0` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The histogram's true max caps the open-ended estimate
                // of the top occupied bucket.
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Mean recorded value (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Cumulative `(upper_bound, count ≤ upper_bound)` pairs for every
    /// occupied bucket — the Prometheus `_bucket{le=...}` series (the
    /// implicit `+Inf` bucket is the total [`Self::count`]).
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                cum += n;
                out.push((bucket_upper(i), cum));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
        // Every value lands in a bucket whose bounds contain it.
        for v in [0u64, 1, 2, 5, 100, 1_000_000, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper(i));
            if i > 0 {
                assert!(v > bucket_upper(i - 1));
            }
        }
    }

    #[test]
    fn quantiles_bound_the_data() {
        let h = Histogram::standalone();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.max, 1000);
        let p50 = s.quantile(0.5);
        let p99 = s.quantile(0.99);
        // Upper bucket bounds: within one power of two of the truth.
        assert!((500..=1023).contains(&p50), "p50 = {p50}");
        assert!((991..=1000).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p99);
        assert_eq!(s.quantile(1.0), 1000, "p100 is capped at the true max");
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn empty_and_noop() {
        let s = Histogram::standalone().snapshot();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.cumulative().is_empty());
        let noop = Histogram::noop();
        noop.observe(7);
        assert_eq!(noop.snapshot().count, 0);
    }

    #[test]
    fn cumulative_is_monotone_and_totals() {
        let h = Histogram::standalone();
        for v in [0u64, 1, 1, 3, 900] {
            h.observe(v);
        }
        let s = h.snapshot();
        let cum = s.cumulative();
        assert!(cum.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(cum.last().unwrap().1, s.count);
    }

    #[test]
    fn concurrent_observations_are_exact() {
        let h = Histogram::standalone();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = h.clone();
                scope.spawn(move || {
                    for v in 0..5_000u64 {
                        h.observe(v % 17);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 20_000);
        assert_eq!(s.sum, 4 * (0..5_000u64).map(|v| v % 17).sum::<u64>());
    }
}
