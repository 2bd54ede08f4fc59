//! `gc_telemetry` — lock-free observability primitives for GraphCache+.
//!
//! Three layers, none of which may slow the query hot path down:
//!
//! * **Counters and gauges** — `AtomicU64`s ([`Counter`], [`Gauge`]),
//!   owned by whoever reports them. Updates are `fetch_add`/`store` with
//!   `Relaxed` ordering, so the hot path never takes a lock. Counters are
//!   cheap enough to stay always-on.
//! * **Latency histograms** — [`Histogram`]: log-bucketed (one bucket per
//!   power of two), recorded with one `fetch_add` + one `fetch_max`.
//!   [`HistogramSnapshot`]s are plain data, merge field-wise, and report
//!   p50/p95/p99/max. Recording is intended to sit behind a config flag
//!   (`GcConfig::metrics`) so paper-setting timings are unaffected.
//! * **Trace spans** — [`Stage`] names the pipeline stages of one query
//!   (signature pre-filter, candidate scan, sub-iso verify, hit probe,
//!   admission, audit, delta repair); [`StageSpans`] is a per-query record
//!   of nanoseconds
//!   spent in each, attached to `QueryMetrics` and folded into per-cache
//!   totals. Span recording sits behind `GcConfig::trace`.
//!
//! [`Exposition`] renders any of the above into Prometheus-style text
//! (`# TYPE` headers, `name{label="v"} value` samples, cumulative
//! `_bucket{le="..."}` histogram lines) for the server's `stats` scrape
//! and the `experiments` drivers' `METRICS_report.json`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log buckets: bucket 0 holds the value 0, bucket `b` (1..)
/// holds values in `[2^(b-1), 2^b)`, and the last bucket absorbs the tail.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing lock-free counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
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

/// A lock-free gauge (a value that can go up or down).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge starting at zero.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the current value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Index of the log bucket holding `v`: 0 for 0, else `floor(log2 v) + 1`,
/// capped at the last bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper edge of bucket `b` (the value reported for quantiles
/// that land in it). The last bucket is open-ended.
#[inline]
fn bucket_upper(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// A live log-bucketed histogram. One `fetch_add` on the bucket, one on
/// count/sum, one `fetch_max` for the exact maximum — no locks, no
/// allocation.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy (individual cells exact, set not read
    /// atomically — same contract as `RuntimeHealth::snapshot`).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut s = HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        };
        for (dst, src) in s.buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        s
    }
}

/// Plain-data copy of a [`Histogram`]: mergeable, serializable, and the
/// unit that travels over the wire in a `stats` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Exact maximum observed value.
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
    /// Field-wise sum: merging per-client (or per-shard) snapshots yields
    /// exactly the snapshot of the merged stream.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q` in `[0, 1]`, resolved to the containing
    /// bucket's upper edge (clamped to the exact max, which keeps the tail
    /// honest). 0 when empty. Non-decreasing in `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(b).min(self.max);
            }
        }
        self.max
    }

    /// Median (log-bucket resolution).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile (log-bucket resolution).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile (log-bucket resolution).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Exact maximum observed value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One pipeline stage of a GC+ query, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Candidate filtering: Method M's O(1) signature pre-filter, and
    /// under the label index its log sync plus `CS_M` (an index lookup or
    /// an exact twin's memo patch).
    Prefilter,
    /// The Method M scan over the pruned candidate set (pre-filter and
    /// verification included).
    CandidateScan,
    /// Sub-iso decision procedures (VF2/VF2+/GQL) alone.
    Verify,
    /// Hit discovery against cache + window entries.
    HitProbe,
    /// Window push / cache admission / credit attribution.
    Admission,
    /// Consistency-auditor passes (per cache, not per query).
    Audit,
    /// Delta-repair maintenance: classifying touched entries and splicing
    /// repaired bits in place instead of invalidating.
    Repair,
}

/// All stages, in the order their spans are laid out in [`StageSpans`].
pub const STAGES: [Stage; 7] = [
    Stage::Prefilter,
    Stage::CandidateScan,
    Stage::Verify,
    Stage::HitProbe,
    Stage::Admission,
    Stage::Audit,
    Stage::Repair,
];

impl Stage {
    /// Stable metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Prefilter => "prefilter",
            Stage::CandidateScan => "candidate_scan",
            Stage::Verify => "verify",
            Stage::HitProbe => "hit_probe",
            Stage::Admission => "admission",
            Stage::Audit => "audit",
            Stage::Repair => "repair",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Prefilter => 0,
            Stage::CandidateScan => 1,
            Stage::Verify => 2,
            Stage::HitProbe => 3,
            Stage::Admission => 4,
            Stage::Audit => 5,
            Stage::Repair => 6,
        }
    }
}

/// Nanoseconds spent in each pipeline stage — the per-query trace record
/// attached to `QueryMetrics`, and (summed) the per-cache stage totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSpans {
    nanos: [u64; STAGES.len()],
}

impl StageSpans {
    /// An all-zero record.
    pub fn new() -> Self {
        StageSpans::default()
    }

    /// Adds `nanos` to the given stage's span.
    pub fn record(&mut self, stage: Stage, nanos: u64) {
        self.nanos[stage.index()] += nanos;
    }

    /// Nanoseconds recorded for one stage.
    pub fn get(&self, stage: Stage) -> u64 {
        self.nanos[stage.index()]
    }

    /// Field-wise sum.
    pub fn merge(&mut self, other: &StageSpans) {
        for (dst, src) in self.nanos.iter_mut().zip(&other.nanos) {
            *dst += src;
        }
    }

    /// Total nanoseconds across all stages.
    pub fn total(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// `(stage, nanos)` pairs in execution order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, u64)> + '_ {
        STAGES.iter().map(move |&s| (s, self.nanos[s.index()]))
    }
}

/// Prometheus-style text builder: `# TYPE` headers, `name{k="v"} value`
/// samples, cumulative `_bucket{le="..."}` lines for histograms.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
}

impl Exposition {
    /// An empty exposition.
    pub fn new() -> Self {
        Exposition::default()
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: impl std::fmt::Display) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(&format!("{k}=\"{v}\""));
            }
            self.out.push('}');
        }
        self.out.push_str(&format!(" {value}\n"));
    }

    /// Appends one counter sample.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        if !self.out.contains(&format!("# TYPE {name} ")) {
            self.out.push_str(&format!("# TYPE {name} counter\n"));
        }
        self.sample(name, labels, value);
    }

    /// Appends one gauge sample.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        if !self.out.contains(&format!("# TYPE {name} ")) {
            self.out.push_str(&format!("# TYPE {name} gauge\n"));
        }
        self.sample(name, labels, value);
    }

    /// Appends one histogram: cumulative `_bucket{le=..}` lines (empty
    /// buckets elided, `+Inf` always present), then `_sum` and `_count`.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], snap: &HistogramSnapshot) {
        if !self.out.contains(&format!("# TYPE {name} ")) {
            self.out.push_str(&format!("# TYPE {name} histogram\n"));
        }
        let mut cum = 0u64;
        for (b, &n) in snap.buckets.iter().enumerate() {
            cum += n;
            if n == 0 {
                continue;
            }
            let mut le_labels: Vec<(&str, &str)> = labels.to_vec();
            let le = if b >= HISTOGRAM_BUCKETS - 1 {
                "+Inf".to_string()
            } else {
                bucket_upper(b).to_string()
            };
            le_labels.push(("le", &le));
            self.sample(&format!("{name}_bucket"), &le_labels, cum);
        }
        let mut inf_labels: Vec<(&str, &str)> = labels.to_vec();
        inf_labels.push(("le", "+Inf"));
        self.sample(&format!("{name}_bucket"), &inf_labels, snap.count);
        self.sample(&format!("{name}_sum"), labels, snap.sum);
        self.sample(&format!("{name}_count"), labels, snap.count);
    }

    /// The accumulated text.
    pub fn render(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_are_lock_free_and_shared() {
        let c = std::sync::Arc::new(Counter::new());
        let again = std::sync::Arc::clone(&c);
        c.inc();
        again.add(4);
        assert_eq!(c.get(), 5, "both handles reach the same counter");
        let g = Gauge::new();
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
        let mut exp = Exposition::new();
        exp.counter("gc_requests_total", &[], c.get());
        exp.gauge("gc_occupancy", &[], g.get());
        let text = exp.render();
        assert!(text.contains("# TYPE gc_requests_total counter"));
        assert!(text.contains("gc_requests_total 5"));
        assert!(text.contains("gc_occupancy 3"));
    }

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // bucket 0 = {0}; bucket b = [2^(b-1), 2^b)
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        for b in 1..HISTOGRAM_BUCKETS - 1 {
            let lo = 1u64 << (b - 1);
            assert_eq!(bucket_index(lo), b, "lower edge of bucket {b}");
            assert_eq!(bucket_index(lo + (lo - 1)), b, "upper edge of bucket {b}");
            if b + 1 < HISTOGRAM_BUCKETS {
                assert_eq!(bucket_index(lo * 2), b + 1, "first value past bucket {b}");
            }
        }
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // the reported quantile value lands in the same bucket as the
        // observation it stands for
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 900, 1023, 1024, 1 << 40] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 8);
        assert_eq!(s.max, 1 << 40);
        assert_eq!(s.quantile(1.0), 1 << 40, "top quantile clamps to max");
    }

    #[test]
    fn merge_of_snapshots_equals_snapshot_of_merged() {
        let a = Histogram::new();
        let b = Histogram::new();
        let merged = Histogram::new();
        for (i, v) in [3u64, 17, 0, 255, 256, 99, 1 << 30, 5].iter().enumerate() {
            if i % 2 == 0 { &a } else { &b }.record(*v);
            merged.record(*v);
        }
        let mut folded = a.snapshot();
        folded.merge(&b.snapshot());
        assert_eq!(folded, merged.snapshot());
        // and quantiles agree, by construction
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(folded.quantile(q), merged.snapshot().quantile(q));
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v * v);
        }
        let s = h.snapshot();
        let mut prev = 0u64;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = s.quantile(q);
            assert!(v >= prev, "quantile({q}) regressed: {v} < {prev}");
            assert!(v <= s.max, "quantile({q}) above max");
            prev = v;
        }
        assert_eq!(s.p50(), s.quantile(0.5));
        assert!(s.p50() <= s.p95() && s.p95() <= s.p99() && s.p99() <= s.max());
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn stage_spans_record_merge_and_iterate() {
        let mut q = StageSpans::new();
        q.record(Stage::HitProbe, 120);
        q.record(Stage::Verify, 480);
        q.record(Stage::Verify, 20);
        assert_eq!(q.get(Stage::Verify), 500);
        assert_eq!(q.get(Stage::Prefilter), 0);
        let mut total = StageSpans::new();
        total.merge(&q);
        total.merge(&q);
        assert_eq!(total.get(Stage::HitProbe), 240);
        assert_eq!(total.total(), 1240);
        let names: Vec<&str> = total.iter().map(|(s, _)| s.name()).collect();
        assert_eq!(
            names,
            [
                "prefilter",
                "candidate_scan",
                "verify",
                "hit_probe",
                "admission",
                "audit",
                "repair"
            ]
        );
    }

    #[test]
    fn exposition_renders_prometheus_histogram_lines() {
        let h = Histogram::new();
        for v in [1u64, 3, 3, 300] {
            h.record(v);
        }
        let mut exp = Exposition::new();
        exp.counter("gc_queries_total", &[("shard", "0")], 4);
        exp.histogram("gc_query_latency_ns", &[], &h.snapshot());
        let text = exp.render();
        assert!(text.contains("# TYPE gc_queries_total counter"));
        assert!(text.contains("gc_queries_total{shard=\"0\"} 4"));
        assert!(text.contains("# TYPE gc_query_latency_ns histogram"));
        // cumulative: le="1" sees 1 obs, le="3" sees 3, +Inf sees all 4
        assert!(text.contains("gc_query_latency_ns_bucket{le=\"1\"} 1"));
        assert!(text.contains("gc_query_latency_ns_bucket{le=\"3\"} 3"));
        assert!(text.contains("gc_query_latency_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("gc_query_latency_ns_sum 307"));
        assert!(text.contains("gc_query_latency_ns_count 4"));
    }
}
