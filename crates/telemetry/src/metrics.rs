//! The label-aware metrics registry: counters, gauges and log2
//! histograms collected from [`MetricSource`]s into diffable
//! [`Snapshot`]s with a JSON exporter and parser.
//!
//! The flow mirrors production metric pipelines scaled to this repo:
//! stats structs (AxE measurements, MoF endpoint stats, service
//! histograms) implement [`MetricSource`]; a [`Registry`] holds the
//! sources under a scope name plus labels; `Registry::snapshot()` walks
//! them into one flat, sorted [`Snapshot`] that serializes to JSON and
//! parses back for round-trip testing and CI smoke checks.

use crate::json::{Json, JsonError};

/// Aggregate view of a histogram at snapshot time. All statistics are in
/// the histogram's native unit (the recorder decides: microseconds,
/// requests, bytes, ...).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample (0 if empty).
    pub min: f64,
    /// Largest sample (0 if empty).
    pub max: f64,
    /// Interpolated 50th percentile.
    pub p50: f64,
    /// Interpolated 90th percentile.
    pub p90: f64,
    /// Interpolated 99th percentile.
    pub p99: f64,
}

/// One metric's value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A point-in-time level.
    Gauge(f64),
    /// A distribution summary.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// The value as a plain number: counters and gauges directly,
    /// histograms via their mean.
    pub fn as_f64(&self) -> f64 {
        match self {
            MetricValue::Counter(v) => *v as f64,
            MetricValue::Gauge(v) => *v,
            MetricValue::Histogram(h) => h.mean,
        }
    }

    /// The histogram summary, if this is one.
    pub fn as_histogram(&self) -> Option<&HistogramSnapshot> {
        match self {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

/// A named, labeled metric inside a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Slash-separated name, e.g. `axe/cache_hit_rate`.
    pub name: String,
    /// Label key/value pairs, e.g. `[("dataset", "ss")]`.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: MetricValue,
}

/// A flat, ordered collection of metrics — the exported artifact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    metrics: Vec<Metric>,
}

impl Snapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// All metrics, in registration order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// First metric with this full name, any labels.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| &m.value)
    }

    /// The metric with this full name carrying all the given labels.
    pub fn get_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|m| {
                m.name == name
                    && labels
                        .iter()
                        .all(|(k, v)| m.labels.iter().any(|(mk, mv)| mk == k && mv == v))
            })
            .map(|m| &m.value)
    }

    /// Appends a metric.
    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// Serializes the snapshot to JSON.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("name".to_string(), Json::Str(m.name.clone())),
                    (
                        "labels".to_string(),
                        Json::Obj(
                            m.labels
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                                .collect(),
                        ),
                    ),
                ];
                match &m.value {
                    MetricValue::Counter(v) => {
                        fields.push(("type".to_string(), Json::Str("counter".to_string())));
                        fields.push(("value".to_string(), Json::Num(*v as f64)));
                    }
                    MetricValue::Gauge(v) => {
                        fields.push(("type".to_string(), Json::Str("gauge".to_string())));
                        fields.push(("value".to_string(), Json::Num(*v)));
                    }
                    MetricValue::Histogram(h) => {
                        fields.push(("type".to_string(), Json::Str("histogram".to_string())));
                        fields.push(("count".to_string(), Json::Num(h.count as f64)));
                        fields.push(("mean".to_string(), Json::Num(h.mean)));
                        fields.push(("min".to_string(), Json::Num(h.min)));
                        fields.push(("max".to_string(), Json::Num(h.max)));
                        fields.push(("p50".to_string(), Json::Num(h.p50)));
                        fields.push(("p90".to_string(), Json::Num(h.p90)));
                        fields.push(("p99".to_string(), Json::Num(h.p99)));
                    }
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![("metrics".to_string(), Json::Arr(metrics))]).render()
    }

    /// Parses a snapshot back from its JSON form.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or a missing/unknown metric shape.
    pub fn from_json(text: &str) -> Result<Snapshot, JsonError> {
        let bad = |message: &'static str| JsonError { offset: 0, message };
        let doc = Json::parse(text)?;
        let list = doc
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing `metrics` array"))?;
        let mut snap = Snapshot::new();
        for entry in list {
            let name = entry
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("metric lacks name"))?
                .to_string();
            let labels = entry
                .get("labels")
                .and_then(Json::as_obj)
                .ok_or_else(|| bad("metric lacks labels"))?
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| bad("label value must be a string"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let num = |key: &'static str| -> Result<f64, JsonError> {
                entry
                    .get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad("histogram field missing"))
            };
            let value = match entry.get("type").and_then(Json::as_str) {
                Some("counter") => MetricValue::Counter(
                    entry
                        .get("value")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("counter value must be a whole number"))?,
                ),
                Some("gauge") => MetricValue::Gauge(
                    entry
                        .get("value")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| bad("gauge value must be a number"))?,
                ),
                Some("histogram") => MetricValue::Histogram(HistogramSnapshot {
                    count: entry
                        .get("count")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("histogram count must be a whole number"))?,
                    mean: num("mean")?,
                    min: num("min")?,
                    max: num("max")?,
                    p50: num("p50")?,
                    p90: num("p90")?,
                    p99: num("p99")?,
                }),
                _ => return Err(bad("unknown metric type")),
            };
            snap.push(Metric {
                name,
                labels,
                value,
            });
        }
        Ok(snap)
    }
}

/// The write side handed to a [`MetricSource`]: metric names are
/// prefixed with the registration scope and carry its labels.
pub struct Scope<'a> {
    snap: &'a mut Snapshot,
    prefix: String,
    labels: Vec<(String, String)>,
}

impl<'a> Scope<'a> {
    fn full_name(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}/{}", self.prefix, name)
        }
    }

    /// Emits a counter.
    pub fn counter(&mut self, name: &str, value: u64) {
        let metric = Metric {
            name: self.full_name(name),
            labels: self.labels.clone(),
            value: MetricValue::Counter(value),
        };
        self.snap.push(metric);
    }

    /// Emits a gauge.
    pub fn gauge(&mut self, name: &str, value: f64) {
        let metric = Metric {
            name: self.full_name(name),
            labels: self.labels.clone(),
            value: MetricValue::Gauge(value),
        };
        self.snap.push(metric);
    }

    /// Emits a histogram summary.
    pub fn histogram(&mut self, name: &str, h: HistogramSnapshot) {
        let metric = Metric {
            name: self.full_name(name),
            labels: self.labels.clone(),
            value: MetricValue::Histogram(h),
        };
        self.snap.push(metric);
    }

    /// A sub-scope whose metric names gain another path segment (used by
    /// composite sources, e.g. service stats nesting backend stats).
    pub fn nested(&mut self, segment: &str) -> Scope<'_> {
        Scope {
            prefix: self.full_name(segment),
            labels: self.labels.clone(),
            snap: self.snap,
        }
    }
}

/// Anything that can contribute metrics to a snapshot.
///
/// Implemented by the stats structs across the workspace (AxE
/// `Measurement`, MoF `EndpointStats`, framework `ServiceStats`, desim
/// `FifoStats`) and by plain closures for one-off gauges:
///
/// ```
/// use lsdgnn_telemetry::{Registry, Scope};
/// let mut reg = Registry::new();
/// reg.register("link", &[("tier", "mof")], Box::new(|s: &mut Scope| {
///     s.gauge("utilization", 0.7);
/// }));
/// let snap = reg.snapshot();
/// assert_eq!(snap.get("link/utilization").unwrap().as_f64(), 0.7);
/// ```
pub trait MetricSource {
    /// Appends this source's metrics.
    fn collect(&self, out: &mut Scope<'_>);
}

impl<F: Fn(&mut Scope<'_>)> MetricSource for F {
    fn collect(&self, out: &mut Scope<'_>) {
        self(out)
    }
}

struct Registered {
    scope: String,
    labels: Vec<(String, String)>,
    source: Box<dyn MetricSource>,
}

/// Holds registered [`MetricSource`]s and produces [`Snapshot`]s.
#[derive(Default)]
pub struct Registry {
    sources: Vec<Registered>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("sources", &self.sources.len())
            .finish()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a source under `scope` (the metric-name prefix) with
    /// the given labels.
    pub fn register(
        &mut self,
        scope: &str,
        labels: &[(&str, &str)],
        source: Box<dyn MetricSource>,
    ) {
        self.sources.push(Registered {
            scope: scope.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            source,
        });
    }

    /// Number of registered sources.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// Collects every source into one snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        for reg in &self.sources {
            let mut scope = Scope {
                snap: &mut snap,
                prefix: reg.scope.clone(),
                labels: reg.labels.clone(),
            };
            reg.source.collect(&mut scope);
        }
        snap
    }
}

/// A power-of-two bucketed histogram over plain `u64` samples (bucket
/// `i` covers `[2^i, 2^(i+1))`; bucket 0 also covers zero), with
/// interpolated percentiles.
///
/// It is the workspace's one latency histogram and is unit-agnostic: the
/// serving layer records latencies in microseconds, queue depths in
/// requests, batch sizes in requests.
///
/// # Example
///
/// ```
/// use lsdgnn_telemetry::Log2Histogram;
/// let mut h = Log2Histogram::new();
/// for v in [1, 2, 4, 8] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(0.99) <= 8.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let idx = if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (zero if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample (zero if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Raw log2 bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Interpolated `q`-percentile (`0.0..=1.0`): linear within the
    /// containing bucket, clamped to the observed `[min, max]`, so a
    /// single-sample histogram returns that sample at every `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "percentile must be within [0, 1]");
        if self.count == 0 {
            return 0.0;
        }
        // Edge quantiles are exact, not interpolated: interpolation would
        // report mid-bucket for q=0 whenever the first occupied bucket
        // holds more than one sample.
        if q <= 0.0 {
            return self.min() as f64;
        }
        if q >= 1.0 {
            return self.max as f64;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            if seen + b >= target {
                let lo = if i == 0 { 0u64 } else { 1u64 << i };
                let hi = if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
                let frac = (target - seen) as f64 / b as f64;
                let v = lo as f64 + frac * (hi - lo) as f64;
                return v.clamp(self.min as f64, self.max as f64);
            }
            seen += b;
        }
        self.max as f64
    }

    /// The summary exported into snapshots.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            mean: self.mean(),
            min: self.min() as f64,
            max: self.max as f64,
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
        }
    }

    /// Folds another histogram's samples into this one (bucket-wise; min
    /// and max merge exactly, percentiles stay bucket-approximate).
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_collects_prefixed_and_labeled() {
        let mut reg = Registry::new();
        reg.register(
            "axe",
            &[("dataset", "ss")],
            Box::new(|s: &mut Scope| {
                s.gauge("cache_hit_rate", 0.25);
                s.counter("samples", 100);
            }),
        );
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.get("axe/cache_hit_rate").unwrap().as_f64(), 0.25);
        assert_eq!(
            snap.get_labeled("axe/samples", &[("dataset", "ss")])
                .unwrap(),
            &MetricValue::Counter(100)
        );
        assert!(snap
            .get_labeled("axe/samples", &[("dataset", "ll")])
            .is_none());
    }

    #[test]
    fn nested_scopes_extend_names() {
        let mut snap = Snapshot::new();
        let mut scope = Scope {
            snap: &mut snap,
            prefix: "service".to_string(),
            labels: vec![],
        };
        scope.nested("backend").counter("local_requests", 3);
        assert!(snap.get("service/backend/local_requests").is_some());
    }

    #[test]
    fn histogram_percentiles_interpolate_and_clamp() {
        let mut h = Log2Histogram::new();
        h.record(100);
        // Single sample: every percentile is that sample.
        assert_eq!(h.percentile(0.0), 100.0);
        assert_eq!(h.percentile(0.5), 100.0);
        assert_eq!(h.percentile(1.0), 100.0);
        // Empty: zero.
        assert_eq!(Log2Histogram::new().percentile(0.99), 0.0);
        // Cross-bucket: p99 lands in the top bucket, below max.
        let mut h = Log2Histogram::new();
        for _ in 0..99 {
            h.record(4);
        }
        h.record(1000);
        let p50 = h.percentile(0.5);
        let p99 = h.percentile(0.99);
        assert!((4.0..8.0).contains(&p50), "p50 {p50}");
        assert!(p50 <= p99 && p99 <= 1000.0);
    }

    #[test]
    fn histogram_merge_accumulates() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        a.record(2);
        b.record(64);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 2);
        assert_eq!(a.max(), 64);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let mut h = Log2Histogram::new();
        for v in [1u64, 5, 900, 17] {
            h.record(v);
        }
        let mut reg = Registry::new();
        let hist = h.clone();
        reg.register(
            "svc",
            &[("backend", "cpu"), ("shard", "0")],
            Box::new(move |s: &mut Scope| {
                s.counter("requests", 41);
                s.gauge("utilization", 0.125);
                s.histogram("latency_us", hist.snapshot());
            }),
        );
        let snap = reg.snapshot();
        let parsed = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(Snapshot::from_json("{}").is_err());
        assert!(Snapshot::from_json(r#"{"metrics":[{"name":"x"}]}"#).is_err());
        assert!(
            Snapshot::from_json(r#"{"metrics":[{"name":"x","labels":{},"type":"blob"}]}"#).is_err()
        );
    }

    #[test]
    #[should_panic(expected = "within")]
    fn bad_percentile_panics() {
        Log2Histogram::new().percentile(2.0);
    }
}
