//! The metrics registry: named counters, gauges, and log2-bucketed
//! histograms.
//!
//! All metric types are plain atomics; the registry's `RwLock` guards
//! only the name → handle map, which steady-state code never touches
//! (handles are `Arc`s, created once at wiring time). Rendering is a
//! cold path and takes the read lock.
//!
//! # Names and labels
//!
//! A metric's full name may carry a fixed label set baked into the
//! string, e.g. `obf_server_requests_total{verb="STAT"}`. The registry
//! treats the whole string as the key; [`labeled`] builds such names.
//! Rendered text output is one `name{labels} value` line per metric,
//! sorted bytewise by name, so output is stable across runs.
//!
//! # Histogram bucket math
//!
//! A histogram holds 65 buckets over `u64` samples (microseconds, by
//! convention): bucket 0 is the exact value 0, and bucket `i` (1..=64)
//! covers `[2^(i-1), 2^i - 1]`. Recording is one `fetch_add` on the
//! bucket plus sum/count/max updates. Quantiles use the nearest-rank
//! method over the bucket counts: the reported value is the inclusive
//! upper bound of the bucket containing that rank, clamped to the exact
//! observed maximum — so p50/p90/p99 are exact to log2 resolution and
//! the top quantile of a single-bucket population is exact.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move in both directions (or track a peak
/// via [`Gauge::max`]).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` is larger (peak tracking).
    pub fn max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of buckets: one for zero plus one per power of two.
const BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples (by convention:
/// microseconds).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a sample: 0 for 0, else `floor(log2(v)) + 1`.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Inclusive upper bound of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample. Four relaxed atomic RMWs, no locks.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`), exact to log2 bucket
    /// resolution: the inclusive upper bound of the bucket holding rank
    /// `ceil(q * count)`, clamped to the observed maximum. Returns 0
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, c) in counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Point-in-time summary of a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

/// Point-in-time view of a whole registry, name-sorted.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, u64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Look up a counter value by full name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look up a histogram summary by full name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A named collection of metrics. Each serving component (a
/// `ServerState`) owns one, so co-resident servers in one process
/// never share counters; `global()` provides the
/// process-wide instance for engine-level instrumentation.
#[derive(Debug, Default)]
pub struct Registry {
    inner: RwLock<Inner>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the counter with this full name.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.inner.read().unwrap().counters.get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            self.inner
                .write()
                .unwrap()
                .counters
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// Get or create the gauge with this full name.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.inner.read().unwrap().gauges.get(name) {
            return Arc::clone(g);
        }
        Arc::clone(
            self.inner
                .write()
                .unwrap()
                .gauges
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// Get or create the histogram with this full name.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.inner.read().unwrap().histograms.get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.inner
                .write()
                .unwrap()
                .histograms
                .entry(name.to_string())
                .or_default(),
        )
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.read().unwrap();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(n, g)| (n.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
        }
    }

    /// Render every metric as stable `name{labels} value` text: one
    /// line per counter/gauge, and `_count`/`_sum`/`_max`/`_p50`/
    /// `_p90`/`_p99` expansion lines per histogram (suffix spliced
    /// before any `{labels}`). Lines are bytewise-sorted within each
    /// metric class, counters first, then gauges, then histograms.
    pub fn render_text(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        for (name, v) in &snap.counters {
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, v) in &snap.gauges {
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, h) in &snap.histograms {
            for (suffix, v) in [
                ("_count", h.count),
                ("_sum", h.sum),
                ("_max", h.max),
                ("_p50", h.p50),
                ("_p90", h.p90),
                ("_p99", h.p99),
            ] {
                out.push_str(&format!("{} {v}\n", splice_suffix(name, suffix)));
            }
        }
        out
    }
}

/// Build a labeled metric name: `labeled("x_total", &[("verb", "STAT")])`
/// is `x_total{verb="STAT"}`. Labels render in the order given; callers
/// use a fixed order so names are stable.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{name}{{{}}}", body.join(","))
}

/// Insert `suffix` before the `{labels}` part of a full name (or append
/// if unlabeled).
fn splice_suffix(name: &str, suffix: &str) -> String {
    match name.find('{') {
        Some(i) => format!("{}{}{}", &name[..i], suffix, &name[i..]),
        None => format!("{name}{suffix}"),
    }
}

/// Reads one value back out of [`Registry::render_text`] output: the
/// line whose full name (labels and histogram suffix included) is
/// `name`. `None` when no such line exists.
pub fn text_value(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (n, v) = line.rsplit_once(' ')?;
        if n == name {
            v.parse().ok()
        } else {
            None
        }
    })
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry, for instrumentation below the serving
/// layer (engine check timings, library-level spans). Serving
/// components own their own [`Registry`] instead, so co-resident
/// servers stay distinguishable.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Snapshot of the process-wide registry.
pub fn metrics_snapshot() -> MetricsSnapshot {
    global().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("c_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name returns the same underlying atomic.
        assert_eq!(r.counter("c_total").get(), 5);
        let g = r.gauge("g");
        g.set(7);
        g.max(3);
        assert_eq!(g.get(), 7);
        g.max(9);
        assert_eq!(g.get(), 9);
        g.add(1);
        g.sub(4);
        assert_eq!(g.get(), 6);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_exact_to_bucket_resolution() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        // Rank 50 falls in bucket [32, 63]; upper bound 63.
        assert_eq!(h.quantile(0.50), 63);
        // Rank 90 and 99 fall in bucket [64, 127], clamped to max 100.
        assert_eq!(h.quantile(0.90), 100);
        assert_eq!(h.quantile(0.99), 100);
    }

    #[test]
    fn histogram_single_value_population_is_exact() {
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(5);
        }
        assert_eq!(h.quantile(0.5), 5);
        assert_eq!(h.quantile(0.99), 5);
    }

    #[test]
    fn render_text_is_sorted_and_stable() {
        let r = Registry::new();
        r.counter("b_total").inc();
        r.counter("a_total").add(2);
        r.gauge("g").set(3);
        let h = r.histogram(&labeled("lat_micros", &[("verb", "STAT")]));
        h.record(10);
        let text = r.render_text();
        let expected = "a_total 2\n\
                        b_total 1\n\
                        g 3\n\
                        lat_micros_count{verb=\"STAT\"} 1\n\
                        lat_micros_sum{verb=\"STAT\"} 10\n\
                        lat_micros_max{verb=\"STAT\"} 10\n\
                        lat_micros_p50{verb=\"STAT\"} 10\n\
                        lat_micros_p90{verb=\"STAT\"} 10\n\
                        lat_micros_p99{verb=\"STAT\"} 10\n";
        assert_eq!(text, expected);
        // Rendering twice yields identical bytes.
        assert_eq!(text, r.render_text());
        // And every line reads back by its full name.
        assert_eq!(text_value(&text, "a_total"), Some(2));
        assert_eq!(text_value(&text, "g"), Some(3));
        assert_eq!(text_value(&text, "lat_micros_sum{verb=\"STAT\"}"), Some(10));
        assert_eq!(text_value(&text, "a"), None);
    }

    #[test]
    fn snapshot_lookup_helpers() {
        let r = Registry::new();
        r.counter("hits_total").add(3);
        r.histogram("h").record(8);
        let s = r.snapshot();
        assert_eq!(s.counter("hits_total"), Some(3));
        assert_eq!(s.counter("absent"), None);
        assert_eq!(s.histogram("h").unwrap().count, 1);
    }

    #[test]
    fn labeled_name_shapes() {
        assert_eq!(labeled("x", &[]), "x");
        assert_eq!(
            labeled("x_total", &[("verb", "STAT"), ("ok", "true")]),
            "x_total{verb=\"STAT\",ok=\"true\"}"
        );
    }
}
