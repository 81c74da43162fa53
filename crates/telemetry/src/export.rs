//! Exposition: render a [`Tracer`]'s spans and a [`Registry`]'s metrics
//! as JSON (machine-readable dumps, parseable by the workspace's own
//! `Json` reader) or as Prometheus-style text (for scraping and for the
//! service's `metrics` op).
//!
//! The emitters are self-contained string builders — this crate sits
//! below every other crate in the workspace, so it cannot borrow their
//! JSON plumbing.

use crate::metrics::{bucket_upper_bound, Metric, Registry, BUCKETS};
use crate::span::{SpanRecord, Tracer};

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn span_json(s: &SpanRecord) -> String {
    format!(
        "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":\"{}\",\"start_ns\":{},\"wall_ns\":{}}}",
        s.id,
        s.parent,
        escape_json(&s.name),
        escape_json(&s.thread),
        s.start_ns,
        s.wall_ns
    )
}

/// Render a tracer's recorded spans as a JSON trace:
/// `{"dropped": n, "spans": [...]}` with spans in completion order.
pub fn trace_json(tracer: &Tracer) -> String {
    let spans = tracer.snapshot();
    let body: Vec<String> = spans.iter().map(span_json).collect();
    format!(
        "{{\"dropped\":{},\"spans\":[{}]}}",
        tracer.dropped(),
        body.join(",")
    )
}

/// Render a registry as JSON:
/// `{"counters": {...}, "gauges": {...}, "histograms": {name: summary}}`
/// where each histogram summary carries
/// `count/sum/min/max/p50/p90/p99`.
pub fn metrics_json(registry: &Registry) -> String {
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for (name, metric) in registry.list() {
        let name = escape_json(&name);
        match metric {
            Metric::Counter(c) => counters.push(format!("\"{name}\":{}", c.get())),
            Metric::Gauge(g) => gauges.push(format!("\"{name}\":{}", g.get())),
            Metric::Histogram(h) => {
                let s = h.summary();
                histograms.push(format!(
                    "\"{name}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                    s.count, s.sum, s.min, s.max, s.p50, s.p90, s.p99
                ));
            }
        }
    }
    format!(
        "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
        counters.join(","),
        gauges.join(","),
        histograms.join(",")
    )
}

/// Render trace and metrics together: `{"trace": ..., "metrics": ...}`.
/// This is the payload `--trace-out` writes and the bench harness
/// persists.
pub fn dump_json(tracer: &Tracer, registry: &Registry) -> String {
    format!(
        "{{\"trace\":{},\"metrics\":{}}}",
        trace_json(tracer),
        metrics_json(registry)
    )
}

/// Render a registry as Prometheus-style text exposition: `# TYPE`
/// comments, plain counter/gauge sample lines, and for histograms the
/// conventional cumulative `_bucket{le="..."}` series plus `_sum` and
/// `_count`. Empty trailing buckets are elided (the `+Inf` bucket
/// always closes the series).
pub fn prometheus(registry: &Registry) -> String {
    let mut out = String::new();
    for (name, metric) in registry.list() {
        match metric {
            Metric::Counter(c) => {
                out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.get()));
            }
            Metric::Gauge(g) => {
                out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", g.get()));
            }
            Metric::Histogram(h) => {
                out.push_str(&format!("# TYPE {name} histogram\n"));
                let counts = h.bucket_counts();
                let last_used = counts.iter().rposition(|&c| c > 0).unwrap_or(0);
                let mut cumulative = 0u64;
                for (i, &c) in counts.iter().enumerate().take(last_used + 1) {
                    cumulative += c;
                    // Bucket 64's bound is u64::MAX; +Inf covers it.
                    if i < BUCKETS - 1 {
                        out.push_str(&format!(
                            "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                            bucket_upper_bound(i)
                        ));
                    }
                }
                out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
                out.push_str(&format!("{name}_sum {}\n", h.sum()));
                out.push_str(&format!("{name}_count {}\n", h.count()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_json_strings() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn trace_json_lists_spans_with_links() {
        let tracer = Tracer::new();
        {
            let _outer = tracer.span("outer");
            let _inner = tracer.span("inner");
        }
        let json = trace_json(&tracer);
        assert!(json.starts_with("{\"dropped\":0,\"spans\":["));
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"name\":\"outer\""));
        assert!(json.contains("\"parent\":0"), "outer is a root");
    }

    #[test]
    fn metrics_json_sections() {
        let r = Registry::new();
        r.counter("jobs_total").add(3);
        r.gauge("in_flight").set(-2);
        r.histogram("latency_us").record(100);
        let json = metrics_json(&r);
        assert!(json.contains("\"counters\":{\"jobs_total\":3}"));
        assert!(json.contains("\"gauges\":{\"in_flight\":-2}"));
        assert!(json.contains(
            "\"latency_us\":{\"count\":1,\"sum\":100,\"min\":100,\"max\":100,\
             \"p50\":100,\"p90\":100,\"p99\":100}"
        ));
    }

    #[test]
    fn empty_registry_renders_empty_sections() {
        let r = Registry::new();
        assert_eq!(
            metrics_json(&r),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
        assert_eq!(prometheus(&r), "");
    }

    #[test]
    fn dump_json_nests_both_documents() {
        let tracer = Tracer::new();
        let r = Registry::new();
        r.counter("c_total").inc();
        let json = dump_json(&tracer, &r);
        assert!(json.starts_with("{\"trace\":{"));
        assert!(json.contains("\"metrics\":{\"counters\":{\"c_total\":1}"));
    }

    #[test]
    fn prometheus_counter_and_gauge_lines() {
        let r = Registry::new();
        r.counter("jobs_total").add(7);
        r.gauge("in_flight").set(2);
        let text = prometheus(&r);
        assert!(text.contains("# TYPE jobs_total counter\njobs_total 7\n"));
        assert!(text.contains("# TYPE in_flight gauge\nin_flight 2\n"));
    }

    #[test]
    fn prometheus_histogram_is_cumulative_and_closed_by_inf() {
        let r = Registry::new();
        let h = r.histogram("latency_us");
        h.record(0); // bucket 0, le="0"
        h.record(1); // bucket 1, le="1"
        h.record(5); // bucket 3, le="7"
        let text = prometheus(&r);
        assert!(text.contains("# TYPE latency_us histogram\n"));
        assert!(text.contains("latency_us_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("latency_us_bucket{le=\"1\"} 2\n"));
        assert!(
            text.contains("latency_us_bucket{le=\"3\"} 2\n"),
            "cumulative"
        );
        assert!(text.contains("latency_us_bucket{le=\"7\"} 3\n"));
        assert!(
            !text.contains("le=\"15\""),
            "trailing empty buckets are elided"
        );
        assert!(text.contains("latency_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("latency_us_sum 6\n"));
        assert!(text.contains("latency_us_count 3\n"));
    }
}
