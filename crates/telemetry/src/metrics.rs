//! A thread-safe metric registry: counters, gauges, and log-bucketed
//! latency histograms with percentile summaries.
//!
//! Metrics are created (or fetched) by name from a [`Registry`]; the
//! returned `Arc` handles are lock-free to record into, so hot paths
//! can cache a handle and update it with a single atomic op. Names are
//! expected in `snake_case` with a unit suffix (`_us`, `_bytes`,
//! `_total`) so both exposition formats stay readable.
//!
//! # Histogram semantics
//!
//! Values are `u64`s sorted into 65 logarithmic buckets: bucket 0 holds
//! exactly the value 0, and bucket `i ≥ 1` holds `2^(i−1) ..= 2^i − 1`
//! (so the bucket *upper bounds* are 0, 1, 3, 7, 15, …, `u64::MAX`).
//! Quantile `q` is answered from the bucket counts: with `n` recorded
//! samples, the rank is `max(1, ceil(q·n))` and the answer is the upper
//! bound of the first bucket whose cumulative count reaches that rank,
//! clamped to the recorded `[min, max]` — an upper bound on the true
//! sample quantile that is exact whenever the sample sits on a bucket
//! edge or is the largest sample, and never a value outside the range
//! actually observed. An empty histogram reports 0 for every statistic.

use crate::sync::lock_unpoisoned;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of histogram buckets (one for zero + one per power of two).
pub const BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `d` (negative to decrease).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Raise the value to `v` if it is below it.
    pub fn fetch_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Point-in-time view of a [`Histogram`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median upper bound.
    pub p50: u64,
    /// 90th-percentile upper bound.
    pub p90: u64,
    /// 99th-percentile upper bound.
    pub p99: u64,
}

/// A log-bucketed histogram of `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket a value falls into: 0 for 0, else `floor(log2(v)) + 1`.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (0, 1, 3, 7, …, `u64::MAX`).
///
/// # Panics
/// Panics when `i >= BUCKETS`.
pub fn bucket_upper_bound(i: usize) -> u64 {
    assert!(i < BUCKETS, "bucket index {i} out of range");
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating sum: two racing saturated adds stay saturated.
        let mut sum = self.sum.load(Ordering::Relaxed);
        loop {
            let next = sum.saturating_add(v);
            match self
                .sum
                .compare_exchange_weak(sum, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => sum = actual,
            }
        }
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration as whole microseconds (the workspace-wide unit
    /// for latency histograms).
    pub fn record_duration_us(&self, d: Duration) {
        self.record(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Saturating sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (index with [`bucket_index`]).
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Upper bound of the bucket holding the `max(1, ceil(q·count))`-th
    /// smallest sample, clamped to the recorded `[min, max]`; 0 when
    /// empty. `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        let mut bound = bucket_upper_bound(BUCKETS - 1);
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= rank {
                bound = bucket_upper_bound(i);
                break;
            }
        }
        // A bucket's upper bound can exceed every sample in it. The min
        // and max are read after the buckets; a record racing this read
        // may not have published them yet, so clamp only a consistent
        // pair.
        let (min, max) = (
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        );
        if min <= max {
            bound.clamp(min, max)
        } else {
            bound
        }
    }

    /// Snapshot every summary statistic at once.
    ///
    /// # Example
    ///
    /// ```
    /// let h = mosaic_telemetry::Histogram::default();
    /// for v in [1u64, 2, 3] {
    ///     h.record(v);
    /// }
    /// let s = h.summary();
    /// assert_eq!((s.count, s.sum, s.min, s.max), (3, 6, 1, 3));
    /// assert_eq!(s.p50, 3); // rank 2 lands in bucket [2, 3]
    /// ```
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count();
        HistogramSummary {
            count,
            sum: self.sum(),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// A named metric handle, as stored in (and listed from) a registry.
#[derive(Clone, Debug)]
pub enum Metric {
    /// A [`Counter`].
    Counter(Arc<Counter>),
    /// A [`Gauge`].
    Gauge(Arc<Gauge>),
    /// A [`Histogram`].
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A thread-safe, name-keyed collection of metrics. Listing is sorted
/// by name so every exposition is stable and diffable.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter `name`.
    ///
    /// # Panics
    /// Panics when `name` already names a different metric kind — the
    /// two call sites disagree about the schema, which is a bug.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || Metric::Counter(Arc::default())) {
            Metric::Counter(c) => c,
            // lint:allow(panic) documented "# Panics": a kind mismatch is a caller schema bug
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Get or create the gauge `name`.
    ///
    /// # Panics
    /// Panics when `name` already names a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, || Metric::Gauge(Arc::default())) {
            Metric::Gauge(g) => g,
            // lint:allow(panic) documented "# Panics": a kind mismatch is a caller schema bug
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Get or create the histogram `name`.
    ///
    /// # Panics
    /// Panics when `name` already names a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, || Metric::Histogram(Arc::default())) {
            Metric::Histogram(h) => h,
            // lint:allow(panic) documented "# Panics": a kind mismatch is a caller schema bug
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = lock_unpoisoned(&self.metrics);
        metrics.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// All metrics, sorted by name.
    pub fn list(&self) -> Vec<(String, Metric)> {
        lock_unpoisoned(&self.metrics)
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("jobs_total");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("jobs_total").get(), 5, "same handle by name");
        let g = r.gauge("in_flight");
        g.add(3);
        g.add(-1);
        assert_eq!(g.get(), 2);
        g.set(-7);
        assert_eq!(g.get(), -7);
        g.fetch_max(5);
        g.fetch_max(4);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn bucket_index_boundaries() {
        // Exact edges: 0 | 1 | 2..3 | 4..7 | 8..15 | …
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        for i in 1..64 {
            let low = 1u64 << (i - 1);
            assert_eq!(bucket_index(low), i, "lower edge of bucket {i}");
            let high = (1u64 << i) - 1 + u64::from(i == 64);
            assert_eq!(bucket_index(high), i, "upper edge of bucket {i}");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
    }

    #[test]
    fn bucket_upper_bounds() {
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        for i in 1..64 {
            assert_eq!(
                bucket_index(bucket_upper_bound(i)),
                i,
                "upper bound of bucket {i} is in bucket {i}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bucket_upper_bound_rejects_out_of_range() {
        let _ = bucket_upper_bound(BUCKETS);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::default();
        assert_eq!(
            h.summary(),
            HistogramSummary {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                p50: 0,
                p90: 0,
                p99: 0,
            }
        );
        assert_eq!(h.quantile(1.0), 0);
    }

    #[test]
    fn single_sample_summary() {
        let h = Histogram::default();
        h.record(100);
        let s = h.summary();
        assert_eq!((s.count, s.sum, s.min, s.max), (1, 100, 100, 100));
        // 100 lives in bucket [64, 127]; every quantile reports its
        // upper bound clamped to the one observed value.
        assert_eq!((s.p50, s.p90, s.p99), (100, 100, 100));
    }

    #[test]
    fn zero_only_samples() {
        let h = Histogram::default();
        h.record(0);
        h.record(0);
        let s = h.summary();
        assert_eq!((s.count, s.sum, s.min, s.max), (2, 0, 0, 0));
        assert_eq!((s.p50, s.p99), (0, 0));
    }

    #[test]
    fn quantiles_at_bucket_edges_are_exact() {
        let h = Histogram::default();
        // 10 samples, each exactly on a bucket upper bound.
        for v in [1u64, 1, 1, 1, 1, 3, 3, 3, 3, 7] {
            h.record(v);
        }
        // rank(0.5) = 5 -> fifth smallest is 1 (bucket upper bound 1).
        assert_eq!(h.quantile(0.5), 1);
        // rank(0.9) = 9 -> ninth smallest is 3 (bucket upper bound 3).
        assert_eq!(h.quantile(0.9), 3);
        // rank(0.99) = ceil(9.9) = 10 -> the 7.
        assert_eq!(h.quantile(0.99), 7);
        // Extremes: q=0 clamps to rank 1; q=1 is the max's bucket.
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 7);
    }

    #[test]
    fn quantile_reports_bucket_upper_bound_not_sample() {
        let h = Histogram::default();
        h.record(5); // bucket [4, 7]
        h.record(9); // bucket [8, 15]
        assert_eq!(h.quantile(0.5), 7, "upper bound of the containing bucket");
        // The top bucket's bound 15 was never observed: clamp to the max.
        assert_eq!(h.quantile(0.9), 9, "clamped to the largest sample");
    }

    #[test]
    fn quantiles_never_leave_the_observed_range() {
        // The published `serial_16` shape: every sample in [4096, 8191],
        // the largest 5463. No quantile may report the unobserved 8191.
        let h = Histogram::default();
        for v in [4236u64, 4402, 4511, 4978, 5463] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!((s.min, s.max), (4236, 5463));
        assert_eq!((s.p50, s.p90, s.p99), (5463, 5463, 5463));
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            let v = h.quantile(q);
            assert!((s.min..=s.max).contains(&v), "q={q}: {v}");
        }
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn record_duration_uses_microseconds() {
        let h = Histogram::default();
        h.record_duration_us(Duration::from_millis(3));
        assert_eq!(h.sum(), 3000);
        assert_eq!(h.min.load(Ordering::Relaxed), 3000);
    }

    #[test]
    fn bucket_counts_track_records() {
        let h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[2], 2);
        assert_eq!(counts[3..].iter().sum::<u64>(), 0);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.histogram("latency_us");
        let _ = r.counter("latency_us");
    }

    #[test]
    fn list_is_sorted_by_name() {
        let r = Registry::new();
        let _ = r.counter("b_total");
        let _ = r.gauge("a_gauge");
        let _ = r.histogram("c_us");
        let names: Vec<String> = r.list().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a_gauge", "b_total", "c_us"]);
    }
}
