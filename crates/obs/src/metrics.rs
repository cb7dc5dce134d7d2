//! The metrics side: wait-free counters, gauges and fixed-bucket
//! histograms behind a named [`MetricsRegistry`], rendered as
//! Prometheus-style text exposition.
//!
//! Handles ([`Counter`], [`Gauge`], `Arc<Histogram>`) are cheap clones
//! of shared atomics — registration takes a lock once, the hot path
//! never does. A registry is a plain value, not a global: a service
//! owns its registry so tests asserting exact counts never see another
//! instance's traffic. A process-wide registry for code without an
//! obvious owner (the persistent store, the kernel) lives at
//! [`global`](crate::global).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of histogram buckets: powers of two of microseconds, so the
/// top bucket starts at 2^47 µs (≈ 4.5 years) — effectively +∞.
const BUCKETS: usize = 48;

/// A fixed-bucket, power-of-two latency histogram.
///
/// Bucket `i` counts observations in `[2^i, 2^(i+1))` microseconds
/// (bucket 0 also absorbs sub-microsecond observations; the last bucket
/// absorbs everything larger). Recording is one relaxed atomic
/// increment plus a `fetch_max` for the running maximum — writers never
/// contend on a lock — and quantiles are read by walking the 48
/// counters.
///
/// Fixed buckets trade resolution for bounded memory and wait-free
/// writes: a quantile is reported as the **upper bound** of the bucket
/// the rank falls in, capped at the exact maximum, i.e. within 2× of
/// the true value, which is ample for p50/p99/p99.9 service
/// dashboards. The maximum is exact (to the microsecond), because tail
/// debugging wants the real worst case, not a bucket bound.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    max_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            max_micros: AtomicU64::new(0),
        }
    }

    /// Index of the bucket covering `d`.
    fn bucket_of(d: Duration) -> usize {
        let micros = u64::try_from(d.as_micros()).unwrap_or(u64::MAX).max(1);
        (63 - micros.leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Records one observation (wait-free).
    pub fn record(&self, d: Duration) {
        self.buckets[Self::bucket_of(d)].fetch_add(1, Ordering::Relaxed);
        let micros = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The largest observation in seconds (exact, not bucketed); `0.0`
    /// while empty.
    pub fn max_seconds(&self) -> f64 {
        self.max_micros.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in seconds, reported as the
    /// upper bound of the bucket the rank lands in, capped at the exact
    /// maximum; `0.0` while empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        // Rank of the requested quantile, 1-based, clamped into range.
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        // A bucket's upper bound can lie past every observation; the
        // exact maximum caps it (a sub-µs maximum counts as 1 µs, as in
        // `bucket_of`).
        let max_micros = self.max_micros.load(Ordering::Relaxed).max(1);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper bound of bucket i is 2^(i+1) µs.
                return (1u64 << (i + 1)).min(max_micros) as f64 / 1e6;
            }
        }
        unreachable!("rank ≤ total implies some bucket reaches it")
    }

    /// The standard dashboard summary of this histogram.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            p50_secs: self.quantile(0.50),
            p99_secs: self.quantile(0.99),
            p999_secs: self.quantile(0.999),
            max_secs: self.max_seconds(),
        }
    }
}

/// The dashboard view of one [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Median in seconds, bucketed.
    pub p50_secs: f64,
    /// 99th percentile in seconds, bucketed.
    pub p99_secs: f64,
    /// 99.9th percentile in seconds, bucketed.
    pub p999_secs: f64,
    /// Largest observation in seconds (exact).
    pub max_secs: f64,
}

/// A monotonically increasing counter handle (wait-free increments).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value — for counters mirrored from an external
    /// snapshot at scrape time rather than incremented in place.
    pub fn store(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable gauge handle holding an `f64` (stored as bits, so reads
/// and writes stay single atomic operations).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// One registered series.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics, rendered as Prometheus-style text.
///
/// Series names may carry labels in the standard spelling —
/// `pchls_lane_latency_seconds{lane="hit"}` — which the exposition
/// renderer keeps, merging histogram `quantile` labels into the
/// existing set. Registration is idempotent: asking twice for the same
/// name returns the same underlying series.
///
/// # Panics
///
/// Registering a name twice with different metric kinds panics — the
/// two call sites disagree about what the series is.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    series: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn register(&self, name: &str, fresh: Metric) -> Metric {
        let mut series = self.series.lock().expect("metrics registry lock");
        series.entry(name.to_owned()).or_insert(fresh).clone()
    }

    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &str) -> Counter {
        match self.register(name, Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            other => panic!("series `{name}` is not a counter: {other:?}"),
        }
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.register(name, Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            other => panic!("series `{name}` is not a gauge: {other:?}"),
        }
    }

    /// The histogram registered under `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.register(name, Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(h) => h,
            other => panic!("series `{name}` is not a histogram: {other:?}"),
        }
    }

    /// Renders every registered series as Prometheus-style text
    /// exposition: one `# TYPE` line per family, counters and gauges as
    /// single samples, histograms as summaries (`quantile` labels plus
    /// `_count` and `_max` samples).
    #[must_use]
    pub fn render(&self) -> String {
        let series = self.series.lock().expect("metrics registry lock");
        let mut out = String::new();
        let mut last_family = String::new();
        for (name, metric) in series.iter() {
            let (family, labels) = split_labels(name);
            if family != last_family {
                let kind = match metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "summary",
                };
                let _ = writeln!(out, "# TYPE {family} {kind}");
                last_family = family.to_owned();
            }
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name} {}", format_value(g.get()));
                }
                Metric::Histogram(h) => {
                    for (q, v) in [
                        ("0.5", h.quantile(0.50)),
                        ("0.99", h.quantile(0.99)),
                        ("0.999", h.quantile(0.999)),
                    ] {
                        let merged = merge_label(family, labels, &format!("quantile=\"{q}\""));
                        let _ = writeln!(out, "{merged} {}", format_value(v));
                    }
                    let with = |suffix: &str| match labels {
                        "" => format!("{family}{suffix}"),
                        labels => format!("{family}{suffix}{{{labels}}}"),
                    };
                    let _ = writeln!(out, "{} {}", with("_count"), h.count());
                    let _ = writeln!(out, "{} {}", with("_max"), format_value(h.max_seconds()));
                }
            }
        }
        out
    }
}

/// Splits `name{labels}` into `(name, labels)`; labels are `""` when
/// absent.
fn split_labels(name: &str) -> (&str, &str) {
    match name.split_once('{') {
        Some((family, rest)) => (family, rest.trim_end_matches('}')),
        None => (name, ""),
    }
}

/// `family{labels,extra}` — appends `extra` to an existing label set or
/// starts one.
fn merge_label(family: &str, labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        format!("{family}{{{extra}}}")
    } else {
        format!("{family}{{{labels},{extra}}}")
    }
}

/// Prometheus sample values: plain decimal, never scientific notation
/// for the magnitudes this system produces.
fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.max_seconds(), 0.0);
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let h = Histogram::new();
        // 99 fast observations (~100 µs) and one slow (~2 s).
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_secs(2));
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        let p100 = h.quantile(1.0);
        // 100 µs lands in bucket [64, 128) µs → upper bound 128 µs.
        assert!((p50 - 128e-6).abs() < 1e-12, "p50={p50}");
        assert!((p99 - 128e-6).abs() < 1e-12, "p99={p99}");
        // 2 s lands in bucket [2^21, 2^22) µs, whose upper bound
        // (≈ 4.19 s) lies past the exact maximum → capped at 2 s.
        assert!((p100 - 2.0).abs() < 1e-12, "p100={p100}");
        assert!(p50 <= p99 && p99 <= p100);
    }

    #[test]
    fn p999_separates_a_one_in_a_thousand_tail() {
        let h = Histogram::new();
        for _ in 0..1000 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_secs(1));
        h.record(Duration::from_secs(1));
        // p99 is blind to a 2/1002 tail; p99.9 is not (its rank, 1001,
        // lands on the first slow observation).
        assert!(h.quantile(0.99) < 1e-3);
        assert!(h.quantile(0.999) > 0.5, "p999={}", h.quantile(0.999));
    }

    #[test]
    fn max_is_exact_not_bucketed() {
        let h = Histogram::new();
        h.record(Duration::from_micros(100));
        h.record(Duration::from_micros(777_777));
        // The bucketed p100 would round up to 2^20 µs ≈ 1.05 s; max is exact.
        assert!((h.max_seconds() - 0.777_777).abs() < 1e-9);
        let summary = h.summary();
        assert_eq!(summary.count, 2);
        assert!((summary.max_secs - 0.777_777).abs() < 1e-9);
        assert!(summary.p50_secs <= summary.p99_secs && summary.p99_secs <= summary.p999_secs);
        assert!(summary.p999_secs <= summary.max_secs);
    }

    #[test]
    fn extreme_durations_stay_in_range() {
        let h = Histogram::new();
        h.record(Duration::from_nanos(1));
        h.record(Duration::from_secs(60 * 60 * 24 * 365 * 10));
        assert_eq!(h.count(), 2);
        assert!(h.quantile(0.0) > 0.0);
        assert!(h.quantile(1.0).is_finite());
        assert!(h.max_seconds().is_finite());
    }

    #[test]
    fn handles_share_the_registered_series() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("pchls_requests_total");
        let b = registry.counter("pchls_requests_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);

        let g = registry.gauge("pchls_queue_depth");
        g.set(4.0);
        assert_eq!(registry.gauge("pchls_queue_depth").get(), 4.0);

        let h = registry.histogram("pchls_latency_seconds");
        h.record(Duration::from_millis(3));
        assert_eq!(registry.histogram("pchls_latency_seconds").count(), 1);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let registry = MetricsRegistry::new();
        let _ = registry.counter("pchls_requests_total");
        let _ = registry.gauge("pchls_requests_total");
    }

    #[test]
    fn exposition_groups_families_and_merges_quantile_labels() {
        let registry = MetricsRegistry::new();
        registry.counter("pchls_requests_total").add(7);
        registry.gauge("pchls_queue_depth").set(2.0);
        registry
            .histogram("pchls_lane_latency_seconds{lane=\"hit\"}")
            .record(Duration::from_micros(100));
        registry
            .histogram("pchls_lane_latency_seconds{lane=\"synth\"}")
            .record(Duration::from_millis(10));
        let text = registry.render();
        assert!(
            text.contains("# TYPE pchls_requests_total counter\n"),
            "{text}"
        );
        assert!(text.contains("pchls_requests_total 7\n"), "{text}");
        assert!(text.contains("# TYPE pchls_queue_depth gauge\n"), "{text}");
        assert!(text.contains("pchls_queue_depth 2\n"), "{text}");
        // One TYPE line covers both labeled histograms of the family.
        assert_eq!(
            text.matches("# TYPE pchls_lane_latency_seconds summary")
                .count(),
            1,
            "{text}"
        );
        assert!(
            text.contains("pchls_lane_latency_seconds{lane=\"hit\",quantile=\"0.99\"}"),
            "{text}"
        );
        assert!(
            text.contains("pchls_lane_latency_seconds_count{lane=\"synth\"} 1\n"),
            "{text}"
        );
    }
}
