//! Concurrent-recording stress tests: many threads hammer one registry
//! and one tracer, and every assertion is deterministic — totals,
//! bucket counts, and span counts are exact regardless of interleaving.

use mosaic_telemetry::{bucket_index, Registry, Tracer};
use std::sync::Arc;

const THREADS: usize = 8;
const ITERS: u64 = 1_000;

#[test]
fn concurrent_counter_and_gauge_totals_are_exact() {
    let registry = Arc::new(Registry::new());
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let registry = Arc::clone(&registry);
            scope.spawn(move || {
                let counter = registry.counter("stress_total");
                let gauge = registry.gauge("stress_balance");
                for i in 0..ITERS {
                    counter.inc();
                    counter.add(2);
                    gauge.add(1);
                    gauge.add(-1);
                    gauge.fetch_max(i as i64);
                }
            });
        }
    });
    assert_eq!(
        registry.counter("stress_total").get(),
        THREADS as u64 * ITERS * 3
    );
    // Every +1 was matched by a -1, and set() was never called, so
    // fetch_max decides the final value: the largest i seen.
    assert_eq!(registry.gauge("stress_balance").get(), ITERS as i64 - 1);
}

#[test]
fn concurrent_histogram_counts_sums_and_buckets_are_exact() {
    let registry = Arc::new(Registry::new());
    // Each thread records the same fixed sample set, so the merged
    // distribution is known exactly.
    let samples: Vec<u64> = (0..ITERS).collect();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let registry = Arc::clone(&registry);
            let samples = &samples;
            scope.spawn(move || {
                let histogram = registry.histogram("stress_us");
                for &v in samples {
                    histogram.record(v);
                }
            });
        }
    });
    let h = registry.histogram("stress_us");
    let n = THREADS as u64 * ITERS;
    assert_eq!(h.count(), n);
    let per_thread_sum: u64 = samples.iter().sum();
    assert_eq!(h.sum(), THREADS as u64 * per_thread_sum);

    let mut expected = [0u64; mosaic_telemetry::BUCKETS];
    for &v in &samples {
        expected[bucket_index(v)] += THREADS as u64;
    }
    assert_eq!(h.bucket_counts(), expected, "per-bucket counts are exact");

    let s = h.summary();
    assert_eq!(s.min, 0);
    assert_eq!(s.max, ITERS - 1);
    // Quantiles are deterministic functions of the (exact) bucket
    // counts: rank(0.5) = 4000 falls in bucket [256, 511] because
    // cumulative(511) = 8 * 512 = 4096 >= 4000.
    assert_eq!(s.p50, 511);
    // Rank 7200 needs cumulative 8*1000, bucket [512, 1023], whose
    // bound is clamped to the largest sample.
    assert_eq!(s.p90, ITERS - 1);
    assert_eq!(s.p99, ITERS - 1);
}

#[test]
fn concurrent_spans_all_recorded_with_thread_local_nesting() {
    let tracer = Arc::new(Tracer::new());
    const SPANS_PER_THREAD: usize = 50;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let tracer = Arc::clone(&tracer);
            scope.spawn(move || {
                for i in 0..SPANS_PER_THREAD {
                    let _outer = tracer.span(&format!("outer_{t}_{i}"));
                    let _inner = tracer.span(&format!("inner_{t}_{i}"));
                }
            });
        }
    });
    let spans = tracer.snapshot();
    assert_eq!(spans.len(), THREADS * SPANS_PER_THREAD * 2);
    assert_eq!(tracer.dropped(), 0);

    // Ids are unique across threads.
    let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), spans.len());

    // Every inner span's parent is its same-suffix outer span, never a
    // span from another thread.
    for span in spans.iter().filter(|s| s.name.starts_with("inner_")) {
        let suffix = span.name.trim_start_matches("inner_");
        let outer = spans
            .iter()
            .find(|s| s.name == format!("outer_{suffix}"))
            .expect("matching outer span exists");
        assert_eq!(span.parent, outer.id, "nesting stayed thread-local");
        assert_eq!(span.thread, outer.thread);
    }
}
