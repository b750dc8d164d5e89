//! The metrics registry: named counters, gauges, and log-bucketed
//! histograms with lock-free hot paths.
//!
//! Metric handles are `Arc`s shared between the registry and every
//! instrumentation site; updates are single atomic operations, so a metric
//! can be hammered from the serving scheduler or the training loop without
//! contention. The registry's mutex is only taken on the cold paths —
//! get-or-create by name, and [`Registry::snapshot`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Number of power-of-two buckets in a [`Histogram`] (covers all of `u64`).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move in both directions.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrites the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`sub`](Self::sub)).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (a running-maximum gauge).
    pub fn record_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Returns the bucket index of `v`: `floor(log2(max(v, 1)))`.
///
/// Bucket `i` holds values in `[2^i, 2^(i+1))`, except bucket 0, which
/// holds `{0, 1}`. With nanosecond inputs the relative resolution is a
/// factor of two per bucket — coarse for exact statistics, plenty for
/// latency quantiles spanning nine orders of magnitude.
pub fn bucket_index(v: u64) -> usize {
    (63 - (v | 1).leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `i` (0 for bucket 0).
pub fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// Exclusive upper bound of bucket `i` (`u64::MAX` for the last bucket,
/// whose true bound `2^64` is not representable).
pub fn bucket_upper(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        1u64 << (i + 1)
    }
}

/// A log-bucketed histogram of `u64` observations (typically nanoseconds).
///
/// Recording is three relaxed atomic adds — no locks, no allocation; the
/// exact `count` and `sum` ride along with the buckets so means are exact
/// and only quantiles pay the bucket resolution.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    /// Last exemplar trace id per bucket (0 = none); see
    /// [`record_with_exemplar`](Self::record_with_exemplar).
    exemplar_ids: [AtomicU64; HISTOGRAM_BUCKETS],
    /// The observed value that carried each bucket's exemplar.
    exemplar_vals: [AtomicU64; HISTOGRAM_BUCKETS],
}

#[allow(clippy::declare_interior_mutable_const)] // const used purely as an array initializer
const ZERO: AtomicU64 = AtomicU64::new(0);

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [ZERO; 64],
            exemplar_ids: [ZERO; 64],
            exemplar_vals: [ZERO; 64],
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one observation and stamps it as the bucket's **exemplar**:
    /// the last `(value, trace_id)` pair to land in each bucket, exported
    /// in the OpenMetrics rendering and the JSON dump so a scrape can
    /// answer "show me a request that hit this latency bucket". A
    /// `trace_id` of 0 records the value without touching the exemplar.
    pub fn record_with_exemplar(&self, v: u64, trace_id: u64) {
        self.record(v);
        if trace_id != 0 {
            let i = bucket_index(v);
            self.exemplar_vals[i].store(v, Ordering::Relaxed);
            self.exemplar_ids[i].store(trace_id, Ordering::Relaxed);
        }
    }

    /// [`record_with_exemplar`](Self::record_with_exemplar) for a duration.
    pub fn record_duration_with_exemplar(&self, d: Duration, trace_id: u64) {
        self.record_with_exemplar(d.as_nanos().min(u64::MAX as u128) as u64, trace_id);
    }

    /// A point-in-time copy of the histogram state.
    ///
    /// Concurrent recorders may land between the field loads, so `count`,
    /// `sum`, and the bucket totals are each individually correct but not
    /// guaranteed mutually consistent mid-flight; quiescent reads (the
    /// normal snapshot use) are exact.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let exemplars: Vec<Option<Exemplar>> = (0..HISTOGRAM_BUCKETS)
            .map(|i| {
                let trace_id = self.exemplar_ids[i].load(Ordering::Relaxed);
                (trace_id != 0).then(|| Exemplar {
                    value: self.exemplar_vals[i].load(Ordering::Relaxed),
                    trace_id,
                })
            })
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
            exemplars,
        }
    }
}

/// The last observation that landed in a histogram bucket, tagged with the
/// trace that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// The observed value.
    pub value: u64,
    /// The non-zero trace id stamped on the observation.
    pub trace_id: u64,
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Exact sum of all observed values.
    pub sum: u64,
    /// Per-bucket counts, `HISTOGRAM_BUCKETS` entries.
    pub buckets: Vec<u64>,
    /// Per-bucket exemplars (`HISTOGRAM_BUCKETS` entries, `None` where no
    /// exemplar-stamped observation has landed).
    pub exemplars: Vec<Option<Exemplar>>,
}

impl HistogramSnapshot {
    /// Exact mean of the observations (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0.0 ≤ q ≤ 1.0`), 0 for an empty histogram.
    ///
    /// Finds the bucket containing the rank-`⌈q·count⌉` observation and
    /// interpolates linearly inside it, so the estimate is within one
    /// bucket width (a factor of two) of the true order statistic.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= rank {
                let lo = bucket_lower(i) as f64;
                let hi = bucket_upper(i) as f64;
                let frac = (rank - seen as f64) / c as f64;
                return lo + (hi - lo) * frac;
            }
            seen += c;
        }
        bucket_upper(HISTOGRAM_BUCKETS - 1) as f64
    }
}

/// One registered metric: a shared handle plus its kind.
#[derive(Debug, Clone)]
pub enum Metric {
    /// A [`Counter`].
    Counter(Arc<Counter>),
    /// A [`Gauge`].
    Gauge(Arc<Gauge>),
    /// A [`Histogram`].
    Histogram(Arc<Histogram>),
}

/// A point-in-time value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSnapshot {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// A named collection of metrics.
///
/// There is one process-wide default ([`global`]) used by the library's
/// built-in instrumentation; subsystems that need isolated numbers (one
/// serving instance, a test) create their own with [`Registry::new`].
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Returns the counter named `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.metrics.lock().unwrap();
        match m.entry(name.to_string()).or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} already registered as {other:?}, wanted counter"),
        }
    }

    /// Returns the gauge named `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.metrics.lock().unwrap();
        match m.entry(name.to_string()).or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} already registered as {other:?}, wanted gauge"),
        }
    }

    /// Returns the histogram named `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric {name:?} already registered as {other:?}, wanted histogram"),
        }
    }

    /// A consistent-by-name snapshot of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.metrics.lock().unwrap();
        let metrics = m
            .iter()
            .map(|(name, metric)| {
                let snap = match metric {
                    Metric::Counter(c) => MetricSnapshot::Counter(c.get()),
                    Metric::Gauge(g) => MetricSnapshot::Gauge(g.get()),
                    Metric::Histogram(h) => MetricSnapshot::Histogram(h.snapshot()),
                };
                (name.clone(), snap)
            })
            .collect();
        Snapshot { metrics }
    }
}

/// The process-wide default registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A point-in-time dump of a whole [`Registry`], name-sorted.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` pairs in lexicographic name order.
    pub metrics: Vec<(String, MetricSnapshot)>,
}

impl Snapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.find(name)? {
            MetricSnapshot::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.find(name)? {
            MetricSnapshot::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.find(name)? {
            MetricSnapshot::Histogram(h) => Some(h),
            _ => None,
        }
    }

    fn find(&self, name: &str) -> Option<&MetricSnapshot> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }

    /// Renders the snapshot in the classic Prometheus text exposition
    /// format (`text/plain; version=0.0.4`) — what a stock Prometheus
    /// scraper accepts.
    ///
    /// Every series is preceded by `# HELP` and `# TYPE` lines; metric
    /// names are sanitized (`.` and `-` become `_`, the original dotted
    /// name survives in the HELP text and in [`render_json`](Self::render_json)).
    /// Histograms expand into cumulative `_bucket{le="…"}` series plus
    /// `_sum` and `_count`, counters gain the conventional `_total` suffix.
    pub fn render_prometheus(&self) -> String {
        self.render_prom_inner(false)
    }

    /// Renders the snapshot in the OpenMetrics text format: identical to
    /// [`render_prometheus`](Self::render_prometheus) plus per-bucket
    /// **exemplars** (`# {trace_id="…"} value` suffixes on bucket lines,
    /// from [`Histogram::record_with_exemplar`]) and the mandatory `# EOF`
    /// terminator. Served by the telemetry endpoint when the client's
    /// `Accept` header asks for `application/openmetrics-text`.
    pub fn render_openmetrics(&self) -> String {
        let mut out = self.render_prom_inner(true);
        out.push_str("# EOF\n");
        out
    }

    fn render_prom_inner(&self, exemplars: bool) -> String {
        let mut out = String::new();
        for (name, m) in &self.metrics {
            let pname = sanitize_prometheus(name);
            let help = escape_help(name);
            match m {
                MetricSnapshot::Counter(v) => {
                    out.push_str(&format!(
                        "# HELP {pname}_total LightTS counter {help}\n\
                         # TYPE {pname}_total counter\n{pname}_total {v}\n"
                    ));
                }
                MetricSnapshot::Gauge(v) => {
                    out.push_str(&format!(
                        "# HELP {pname} LightTS gauge {help}\n# TYPE {pname} gauge\n{pname} {v}\n"
                    ));
                }
                MetricSnapshot::Histogram(h) => {
                    out.push_str(&format!(
                        "# HELP {pname} LightTS histogram {help}\n# TYPE {pname} histogram\n"
                    ));
                    let mut cum = 0u64;
                    for (i, &c) in h.buckets.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        cum += c;
                        let le = bucket_upper(i);
                        out.push_str(&format!("{pname}_bucket{{le=\"{le}\"}} {cum}"));
                        if exemplars {
                            if let Some(Some(ex)) = h.exemplars.get(i) {
                                out.push_str(&format!(
                                    " # {{trace_id=\"{}\"}} {}",
                                    ex.trace_id, ex.value
                                ));
                            }
                        }
                        out.push('\n');
                    }
                    out.push_str(&format!("{pname}_bucket{{le=\"+Inf\"}} {}\n", h.count));
                    out.push_str(&format!("{pname}_sum {}\n", h.sum));
                    out.push_str(&format!("{pname}_count {}\n", h.count));
                }
            }
        }
        out
    }

    /// Renders the snapshot as one JSON object keyed by metric name.
    ///
    /// Names keep their original dotted form here (only the Prometheus
    /// rendering sanitizes). Counters and gauges map to bare numbers;
    /// histograms map to `{"count", "sum", "mean", "p50", "p90", "p99",
    /// "buckets", "exemplars"}` where `buckets` is an array of
    /// `[upper_bound, count]` pairs for the non-empty buckets and
    /// `exemplars` an array of `[upper_bound, value, trace_id]` triples
    /// for buckets carrying one.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:", crate::span::json_string(name)));
            match m {
                MetricSnapshot::Counter(v) => out.push_str(&v.to_string()),
                MetricSnapshot::Gauge(v) => out.push_str(&v.to_string()),
                MetricSnapshot::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                        h.count,
                        h.sum,
                        fmt_f64(h.mean()),
                        fmt_f64(h.quantile(0.5)),
                        fmt_f64(h.quantile(0.9)),
                        fmt_f64(h.quantile(0.99)),
                    ));
                    let mut first = true;
                    for (bi, &c) in h.buckets.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        out.push_str(&format!("[{},{}]", bucket_upper(bi), c));
                    }
                    out.push_str("],\"exemplars\":[");
                    let mut first = true;
                    for (bi, ex) in h.exemplars.iter().enumerate() {
                        let Some(ex) = ex else { continue };
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        out.push_str(&format!(
                            "[{},{},{}]",
                            bucket_upper(bi),
                            ex.value,
                            ex.trace_id
                        ));
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push('}');
        out
    }
}

/// Formats an `f64` so it parses back as JSON (no `inf`/`NaN` output).
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` on a whole f64 prints without a decimal point; that is
        // still valid JSON, so leave it.
        s
    } else {
        "null".to_string()
    }
}

fn sanitize_prometheus(name: &str) -> String {
    let mut out: String =
        name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
    // A Prometheus metric name must not start with a digit.
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Escapes a HELP text per the exposition format (`\` and newline only).
fn escape_help(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(3);
        assert_eq!(g.get(), 12);
        g.record_max(7);
        assert_eq!(g.get(), 12, "record_max must not lower the gauge");
        g.record_max(40);
        assert_eq!(g.get(), 40);
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(u64::MAX), 63);
        for i in 1..63 {
            let lo = bucket_lower(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            assert_eq!(bucket_index(lo - 1), i - 1, "below bucket {i}");
            assert_eq!(bucket_index(bucket_upper(i) - 1), i, "top of bucket {i}");
        }
    }

    #[test]
    fn histogram_mean_is_exact_and_quantiles_bracket() {
        let h = Histogram::new();
        for v in [10u64, 100, 1000, 10_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 11_110);
        assert_eq!(s.mean(), 11_110.0 / 4.0);
        // p50 must fall within a factor of 2 of the true median bracket.
        let p50 = s.quantile(0.5);
        assert!((64.0..=256.0).contains(&p50), "p50 {p50}");
        let p99 = s.quantile(0.99);
        assert!((8192.0..=16384.0).contains(&p99), "p99 {p99}");
        assert!(s.quantile(0.0) <= s.quantile(1.0));
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.99), 0.0);
    }

    #[test]
    fn registry_get_or_create_returns_same_handle() {
        let r = Registry::new();
        let a = r.counter("x.hits");
        let b = r.counter("x.hits");
        a.inc();
        b.inc();
        assert_eq!(r.snapshot().counter("x.hits"), Some(2));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("m");
        r.gauge("m");
    }

    #[test]
    fn snapshot_renders_prometheus_and_json() {
        let r = Registry::new();
        r.counter("serve.requests").add(3);
        r.gauge("serve.queue_depth").set(2);
        r.histogram("serve.latency_ns").record(1500);
        let snap = r.snapshot();
        let prom = snap.render_prometheus();
        assert!(prom.contains("serve_requests_total 3"), "{prom}");
        assert!(prom.contains("serve_queue_depth 2"), "{prom}");
        assert!(prom.contains("serve_latency_ns_bucket{le=\"2048\"} 1"), "{prom}");
        assert!(prom.contains("serve_latency_ns_sum 1500"), "{prom}");
        let json = snap.render_json();
        assert!(json.contains("\"serve.requests\":3"), "{json}");
        assert!(json.contains("\"count\":1"), "{json}");
        // Machine-readable: the JSON dump must parse.
        crate::jsonl::parse(&json).expect("snapshot JSON parses");
    }

    #[test]
    fn prometheus_rendering_has_help_and_type_for_every_series() {
        let r = Registry::new();
        r.counter("a.requests").inc();
        r.gauge("a.depth").set(1);
        r.histogram("a.lat_ns").record(100);
        let prom = r.snapshot().render_prometheus();
        assert!(prom.contains("# HELP a_requests_total "), "{prom}");
        assert!(prom.contains("# TYPE a_requests_total counter"), "{prom}");
        assert!(prom.contains("# HELP a_depth "), "{prom}");
        assert!(prom.contains("# TYPE a_depth gauge"), "{prom}");
        assert!(prom.contains("# HELP a_lat_ns "), "{prom}");
        assert!(prom.contains("# TYPE a_lat_ns histogram"), "{prom}");
        // The HELP text preserves the original dotted name.
        assert!(prom.contains("a.requests"), "{prom}");
        // Every non-comment line is `name{labels}? value` with a finite value.
        for line in prom.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let (_, v) = line.rsplit_once(' ').expect("sample line shape: {line}");
            v.parse::<f64>().expect("numeric sample value");
        }
        // No exemplars and no EOF marker in the classic rendering.
        assert!(!prom.contains("trace_id"), "{prom}");
        assert!(!prom.contains("# EOF"), "{prom}");
    }

    #[test]
    fn openmetrics_rendering_carries_exemplars_and_eof() {
        let r = Registry::new();
        let h = r.histogram("t.lat_ns");
        h.record_with_exemplar(1500, 0xABCD);
        h.record(90); // no exemplar for this bucket
        let snap = r.snapshot();
        let hs = snap.histogram("t.lat_ns").unwrap();
        assert_eq!(
            hs.exemplars[bucket_index(1500)],
            Some(Exemplar { value: 1500, trace_id: 0xABCD })
        );
        assert_eq!(hs.exemplars[bucket_index(90)], None);
        let om = snap.render_openmetrics();
        // Bucket counts are cumulative (the le="2048" bucket also counts
        // the 90 sample); the exemplar is the bucket's own last sample.
        assert!(om.contains("t_lat_ns_bucket{le=\"2048\"} 2 # {trace_id=\"43981\"} 1500"), "{om}");
        assert!(om.ends_with("# EOF\n"), "{om}");
        let json = snap.render_json();
        assert!(json.contains("\"exemplars\":[[2048,1500,43981]]"), "{json}");
        crate::jsonl::parse(&json).expect("snapshot JSON parses");
    }

    #[test]
    fn sanitized_names_never_start_with_a_digit() {
        assert_eq!(sanitize_prometheus("3sigma.count"), "_3sigma_count");
        assert_eq!(sanitize_prometheus("serve.latency-ns"), "serve_latency_ns");
    }
}
