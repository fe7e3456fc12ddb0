//! The batteries-included [`Recorder`]: aggregate counters, histograms,
//! and a span tree, with text and JSON-lines rendering.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::json::JsonValue;
use crate::threads::{lock, PerThread, SpanStack};
use crate::{Kind, Recorder};

/// One completed (or still-open) span in the recorded tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name (from the [`crate::names`] registry).
    pub name: &'static str,
    /// Wall time in nanoseconds; 0 while the span is still open.
    pub nanos: u64,
    /// Counters attributed to this span (fired while it was innermost).
    pub counters: BTreeMap<&'static str, u64>,
    /// Child spans, in open order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn new(name: &'static str) -> Self {
        SpanNode {
            name,
            nanos: 0,
            counters: BTreeMap::new(),
            children: Vec::new(),
        }
    }
}

/// Sub-buckets per power of two: 16 linear slots, bounding the relative
/// bucketing error at 1/16 (6.25%).
const SUB_BUCKETS: usize = 16;
/// log₂ of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 4;
/// One exact region (values `0..SUB_BUCKETS`) plus 60 log-linear majors
/// covering the rest of the `u64` range.
const NUM_BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BITS as usize) * SUB_BUCKETS;

/// A fixed-size log-linear histogram (HDR-style): values below
/// [`SUB_BUCKETS`] are counted exactly, larger values land in one of
/// [`SUB_BUCKETS`] linear sub-buckets per power of two, so every
/// percentile estimate is within 1/16 (6.25%) of the true sample. No
/// allocation per sample; two histograms [`merge`](Histogram::merge)
/// bucket-by-bucket, which is how per-worker latency recorders combine.
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: vec![0; NUM_BUCKETS],
        }
    }
}

/// Bucket index for a value: exact below [`SUB_BUCKETS`], log-linear
/// above (leading bit picks the major, the next [`SUB_BITS`] bits the
/// sub-bucket).
fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    let major = 63 - value.leading_zeros(); // ≥ SUB_BITS
    let sub = ((value >> (major - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
    (major - SUB_BITS + 1) as usize * SUB_BUCKETS + sub
}

/// Largest value mapping to bucket `i` (inclusive upper bound).
fn bucket_top(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let major = (i / SUB_BUCKETS - 1) as u32 + SUB_BITS;
    let sub = (i % SUB_BUCKETS) as u64;
    let width = 1u64 << (major - SUB_BITS);
    let lower = (1u64 << major) + sub * width;
    lower + (width - 1)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds `other` into `self`, bucket by bucket. Merging per-worker
    /// histograms then summarizing equals summarizing one histogram fed
    /// every sample — the property multi-threaded recorders rely on.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// The percentile read-out.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            },
            p10: self.percentile(0.10),
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
            p999: self.percentile(0.999),
        }
    }

    /// Nearest-rank percentile estimate from the log-linear buckets.
    ///
    /// The rule, also documented on [`HistogramSummary`]: the p-th
    /// percentile is the upper bound of the bucket holding sample number
    /// `ceil(p·n)` (clamped to `[1, n]`), clamped into `[min, max]`.
    /// Exact for values below [`SUB_BUCKETS`], within 1/16 (6.25%)
    /// otherwise. At small sample counts the nearest-rank rule pins tail
    /// percentiles to the maximum by construction — `ceil(p·n) = n`
    /// whenever `n < 1/(1−p)` — so p95 needs n ≥ 20, p99 needs n ≥ 100,
    /// and p99.9 needs n ≥ 1000 before they can report anything below
    /// `max`. The clamp keeps `min ≤ p50 ≤ p95 ≤ p99 ≤ p99.9 ≤ max` at
    /// every sample count, including n < 4.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_top(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Read-out of one histogram.
///
/// Percentiles follow the nearest-rank rule (sample `ceil(p·n)`,
/// reported as its bucket's inclusive upper bound, clamped into
/// `[min, max]`). Small sample counts therefore collapse tail
/// percentiles onto `max` — see [`Histogram::percentile`] for the exact
/// thresholds — but the ordering `min ≤ p50 ≤ p95 ≤ p99 ≤ p999 ≤ max`
/// holds at every `n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample, or 0 if empty.
    pub min: u64,
    /// Largest sample, or 0 if empty.
    pub max: u64,
    /// Mean sample, or 0.0 if empty.
    pub mean: f64,
    /// 10th-percentile estimate: the robust fast-path latency. Unlike
    /// `min` (a single extreme sample), this shifts with the whole
    /// distribution, which is what regression gates need.
    pub p10: u64,
    /// Median estimate (upper bucket bound, clamped to `[min, max]`).
    pub p50: u64,
    /// 95th-percentile estimate (same estimator as `p50`).
    pub p95: u64,
    /// 99th-percentile estimate (same estimator as `p50`).
    pub p99: u64,
    /// 99.9th-percentile estimate (same estimator as `p50`).
    pub p999: u64,
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    /// Per-name seen-sets backing [`Recorder::distinct`]; the resulting
    /// first-sighting counts live in `counters` like any other counter.
    seen: BTreeMap<&'static str, crate::profile::SeenSet>,
    /// Each thread's span tree.
    threads: PerThread<SpanTree>,
}

/// One thread's span tree: its completed root spans and its open spans.
#[derive(Debug, Default)]
struct SpanTree {
    roots: Vec<SpanNode>,
    open: SpanStack<SpanNode>,
}

impl Inner {
    /// Adds `delta` to the counter and to the calling thread's innermost
    /// open span.
    fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
        if let Some(open) = self.threads.mine().1.open.innermost() {
            *open.counters.entry(name).or_insert(0) += delta;
        }
    }

    /// Completed root spans, grouped by thread index.
    fn roots(&self) -> impl Iterator<Item = &SpanNode> {
        self.threads.iter().flat_map(|tree| &tree.roots)
    }
}

/// An aggregating [`Recorder`].
///
/// Counters sum globally *and* are attributed to the innermost open
/// span on the calling thread, so the rendered tree shows where the work
/// happened. Each thread grows its own tree; roots are grouped by
/// [`crate::thread_index`]. Interior mutability is a plain `Mutex`: the
/// recorder is only consulted when observability is explicitly enabled.
#[derive(Debug, Default)]
pub struct StatsRecorder {
    inner: Mutex<Inner>,
}

impl StatsRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter_value(&self, name: &str) -> u64 {
        let inner = lock(&self.inner);
        inner.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let inner = lock(&self.inner);
        inner.counters.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Summary of a histogram, if any samples were recorded.
    pub fn histogram_summary(&self, name: &str) -> Option<HistogramSummary> {
        let inner = lock(&self.inner);
        inner.histograms.get(name).map(|h| h.summary())
    }

    /// Completed root spans, grouped by thread index (open spans are not
    /// included).
    pub fn span_roots(&self) -> Vec<SpanNode> {
        lock(&self.inner).roots().cloned().collect()
    }

    /// Human-readable span tree with per-span timings and counters, one
    /// thread's tree after another by thread index.
    ///
    /// ```text
    /// cli.check                         1.204ms
    ///   check.schema                    1.102ms  check.classes=12
    /// ```
    pub fn render_tree(&self) -> String {
        let inner = lock(&self.inner);
        let mut out = String::new();
        for tree in inner.threads.iter() {
            // Open spans still render (without timing) so a crash
            // mid-span does not hide where the tree was.
            for node in tree.roots.iter().chain(tree.open.values()) {
                render_span(&mut out, node, 0);
            }
        }
        out
    }

    /// Counter table, one `name value` row per line, sorted by name.
    pub fn render_counters(&self) -> String {
        let inner = lock(&self.inner);
        let width = inner
            .counters
            .keys()
            .map(|k| k.len())
            .max()
            .unwrap_or(0)
            .max(8);
        let mut out = String::new();
        for (name, value) in &inner.counters {
            out.push_str(&format!("{name:width$}  {value}\n"));
        }
        for (name, h) in &inner.histograms {
            let s = h.summary();
            out.push_str(&format!(
                "{name:width$}  n={} sum={} min={} mean={:.1} p50={} p95={} p99={} p999={} max={}\n",
                s.count, s.sum, s.min, s.mean, s.p50, s.p95, s.p99, s.p999, s.max
            ));
        }
        out
    }

    /// Line-delimited JSON: one `counter`, `histogram`, or `span` event
    /// per line. Spans carry a `path` ("a/b/c") locating them in the
    /// tree. Parse it back with [`crate::json::parse_lines`].
    pub fn to_json_lines(&self) -> String {
        let inner = lock(&self.inner);
        let mut out = String::new();
        for (name, value) in &inner.counters {
            let obj = JsonValue::object([
                ("type", JsonValue::string("counter")),
                ("name", JsonValue::string(name)),
                ("value", JsonValue::number(*value as f64)),
            ]);
            out.push_str(&obj.render());
            out.push('\n');
        }
        for (name, h) in &inner.histograms {
            let s = h.summary();
            let obj = JsonValue::object([
                ("type", JsonValue::string("histogram")),
                ("name", JsonValue::string(name)),
                ("count", JsonValue::number(s.count as f64)),
                ("sum", JsonValue::number(s.sum as f64)),
                ("min", JsonValue::number(s.min as f64)),
                ("p50", JsonValue::number(s.p50 as f64)),
                ("p95", JsonValue::number(s.p95 as f64)),
                ("p99", JsonValue::number(s.p99 as f64)),
                ("p999", JsonValue::number(s.p999 as f64)),
                ("max", JsonValue::number(s.max as f64)),
            ]);
            out.push_str(&obj.render());
            out.push('\n');
        }
        for root in inner.roots() {
            json_spans(&mut out, root, "");
        }
        out
    }
}

fn render_span(out: &mut String, node: &SpanNode, depth: usize) {
    let indent = "  ".repeat(depth);
    let label = format!("{indent}{}", node.name);
    out.push_str(&format!("{label:<40} {:>10}", fmt_nanos(node.nanos)));
    for (name, value) in &node.counters {
        out.push_str(&format!("  {name}={value}"));
    }
    out.push('\n');
    for child in &node.children {
        render_span(out, child, depth + 1);
    }
}

fn fmt_nanos(nanos: u64) -> String {
    if nanos == 0 {
        "-".to_string()
    } else if nanos < 10_000 {
        format!("{nanos}ns")
    } else if nanos < 10_000_000 {
        format!("{:.1}us", nanos as f64 / 1_000.0)
    } else {
        format!("{:.1}ms", nanos as f64 / 1_000_000.0)
    }
}

fn json_spans(out: &mut String, node: &SpanNode, prefix: &str) {
    let path = if prefix.is_empty() {
        node.name.to_string()
    } else {
        format!("{prefix}/{}", node.name)
    };
    let obj = JsonValue::object([
        ("type", JsonValue::string("span")),
        ("path", JsonValue::string(&path)),
        ("nanos", JsonValue::number(node.nanos as f64)),
    ]);
    out.push_str(&obj.render());
    out.push('\n');
    for child in &node.children {
        json_spans(out, child, &path);
    }
}

impl Recorder for StatsRecorder {
    fn keeps(&self, kind: Kind) -> bool {
        matches!(
            kind,
            Kind::Counter | Kind::Span | Kind::Histogram | Kind::Distinct
        )
    }

    fn counter(&self, name: &'static str, delta: u64) {
        lock(&self.inner).add(name, delta);
    }

    fn histogram(&self, name: &'static str, value: u64) {
        let mut inner = lock(&self.inner);
        inner.histograms.entry(name).or_default().record(value);
    }

    fn span_enter(&self, name: &'static str) {
        let mut inner = lock(&self.inner);
        inner.threads.mine().1.open.enter(name, SpanNode::new(name));
    }

    fn span_exit(&self, name: &'static str, nanos: u64) {
        let mut inner = lock(&self.inner);
        let tree = inner.threads.mine().1;
        // Spans closed early with it (their guards not dropped yet) have
        // no duration of their own and keep 0.
        tree.open.exit(name, |open, closed, mut node| {
            if closed == name {
                node.nanos = nanos;
            }
            match open.innermost() {
                Some(parent) => parent.children.push(node),
                None => tree.roots.push(node),
            }
        });
    }

    fn distinct(&self, name: &'static str, key: u64) {
        let mut inner = lock(&self.inner);
        if inner.seen.entry(name).or_default().insert(key) {
            inner.add(name, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_tree_nests_and_attributes_counters() {
        let r = StatsRecorder::new();
        r.span_enter("outer");
        r.counter("work", 1);
        r.span_enter("inner");
        r.counter("work", 10);
        r.span_exit("inner", 500);
        r.counter("work", 2);
        r.span_exit("outer", 2000);

        assert_eq!(r.counter_value("work"), 13);
        let roots = r.span_roots();
        assert_eq!(roots.len(), 1);
        let outer = &roots[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.nanos, 2000);
        assert_eq!(outer.counters.get("work"), Some(&3));
        assert_eq!(outer.children.len(), 1);
        assert_eq!(outer.children[0].counters.get("work"), Some(&10));
    }

    #[test]
    fn unbalanced_exits_do_not_panic() {
        let r = StatsRecorder::new();
        r.span_exit("ghost", 1); // exit with nothing open
        r.span_enter("a");
        r.span_enter("b");
        r.span_exit("ghost", 1); // no `ghost` open: ignored, 'b' stays open
        r.span_exit("a", 100); // 'b' is still open: closed first, under 'a'
        let roots = r.span_roots();
        assert_eq!(roots.len(), 1);
        assert_eq!((roots[0].name, roots[0].nanos), ("a", 100));
        let b = &roots[0].children[0];
        assert_eq!((b.name, b.nanos), ("b", 0), "closed early, no duration");
    }

    #[test]
    fn histogram_summary_tracks_min_mean_max() {
        let r = StatsRecorder::new();
        for v in [1u64, 2, 3, 4, 10] {
            r.histogram("h", v);
        }
        let s = r.histogram_summary("h").unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 20);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 10);
        assert!((s.mean - 4.0).abs() < 1e-9);
        // Values below SUB_BUCKETS are counted exactly: the 3rd sample
        // (p50) is 3; the 5th (p95/p99/p999, n < 20) is the max.
        assert_eq!(s.p50, 3);
        assert_eq!(s.p95, 10);
        assert_eq!(s.p99, 10);
        assert_eq!(s.p999, 10);
        assert!(s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn percentiles_on_uniform_and_constant_streams() {
        let r = StatsRecorder::new();
        for v in 0..1000u64 {
            r.histogram("u", v);
        }
        let s = r.histogram_summary("u").unwrap();
        // Log-linear buckets keep every estimate within 1/16 of the true
        // nearest-rank sample (499, 949, 989, 999 here).
        assert_eq!(s.p50, 511); // bucket [496, 511]
        assert_eq!(s.p95, 959); // bucket [928, 959]
        assert_eq!(s.p99, 991); // bucket [960, 991]
        assert_eq!(s.p999, 999); // bucket top 1023 clamps to max
        let r2 = StatsRecorder::new();
        for _ in 0..100 {
            r2.histogram("c", 7);
        }
        let s2 = r2.histogram_summary("c").unwrap();
        assert_eq!((s2.p50, s2.p95, s2.p99), (7, 7, 7));
        let r3 = StatsRecorder::new();
        r3.histogram("zero", 0);
        let s3 = r3.histogram_summary("zero").unwrap();
        assert_eq!((s3.p50, s3.p99), (0, 0));
    }

    #[test]
    fn small_sample_counts_clamp_tails_onto_max() {
        // The documented n < 4 rule: nearest-rank pins p95/p99/p999 to
        // the maximum, and the [min, max] clamp keeps the ordering.
        for samples in [&[7u64][..], &[3, 900][..], &[1, 50, 2_000][..]] {
            let mut h = Histogram::new();
            for &v in samples {
                h.record(v);
            }
            let s = h.summary();
            let max = *samples.iter().max().unwrap();
            assert_eq!(s.p95, max, "{samples:?}");
            assert_eq!(s.p99, max, "{samples:?}");
            assert_eq!(s.p999, max, "{samples:?}");
            assert!(s.min <= s.p50 && s.p50 <= s.p95 && s.p999 <= s.max);
        }
    }

    #[test]
    fn bucket_error_is_bounded_and_merge_equals_combined() {
        // Relative error bound: every percentile estimate over a wide
        // value range stays within 1/16 above the true sample.
        let mut h = Histogram::new();
        let mut rng = 0x1234_5678_9abc_def0u64;
        let mut values = Vec::new();
        for _ in 0..10_000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (rng >> 33) % 5_000_000;
            h.record(v);
            values.push(v);
        }
        values.sort_unstable();
        for (p, got) in [
            (0.50, h.percentile(0.50)),
            (0.95, h.percentile(0.95)),
            (0.99, h.percentile(0.99)),
            (0.999, h.percentile(0.999)),
        ] {
            let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let truth = values[rank - 1];
            assert!(got >= truth, "p{p}: {got} < true {truth}");
            assert!(
                got as f64 <= truth as f64 * (1.0 + 1.0 / 16.0) + 1.0,
                "p{p}: {got} above error bound for true {truth}"
            );
        }
        // Splitting the same stream across two histograms and merging
        // yields identical summaries — the per-worker merge property.
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        for (i, &v) in values.iter().enumerate() {
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.summary(), h.summary());
        // Merging into an empty histogram copies min/max.
        let mut empty = Histogram::new();
        empty.merge(&a);
        assert_eq!(empty.summary(), a.summary());
    }

    #[test]
    fn json_lines_round_trip_through_parser() {
        let r = StatsRecorder::new();
        r.span_enter("outer");
        r.counter("work.done", 7);
        r.span_enter("inner");
        r.span_exit("inner", 500);
        r.span_exit("outer", 2_000);
        r.histogram("fanout", 3);
        r.histogram("fanout", 5);

        let lines = crate::json::parse_lines(&r.to_json_lines()).expect("own output parses");
        let find = |ty: &str, key: &str, name: &str| {
            lines
                .iter()
                .find(|v| {
                    v.get("type").and_then(|t| t.as_str()) == Some(ty)
                        && v.get(key).and_then(|n| n.as_str()) == Some(name)
                })
                .unwrap_or_else(|| panic!("no {ty} {name}"))
                .clone()
        };
        let counter = find("counter", "name", "work.done");
        assert_eq!(counter.get("value").and_then(|v| v.as_f64()), Some(7.0));
        let hist = find("histogram", "name", "fanout");
        assert_eq!(hist.get("count").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(hist.get("sum").and_then(|v| v.as_f64()), Some(8.0));
        let inner = find("span", "path", "outer/inner");
        assert_eq!(inner.get("nanos").and_then(|v| v.as_f64()), Some(500.0));
    }

    #[test]
    fn disabled_instrumentation_is_cheap() {
        // Smoke test, not a benchmark: with no recorder installed on this
        // thread, a counter bump must cost on the order of an atomic load
        // (plus, at worst, an empty dispatch while a parallel test holds a
        // scoped recorder elsewhere) — if it ever allocates per call, this
        // blows past the (very generous) bound even on a loaded CI machine.
        let iters = 1_000_000u64;
        let start = std::time::Instant::now();
        for i in 0..iters {
            crate::counter("noop.smoke", i & 1);
        }
        let per_call = start.elapsed().as_nanos() as f64 / iters as f64;
        assert!(
            per_call < 200.0,
            "disabled counter cost {per_call:.1}ns/call"
        );
        // The attribution entry points must ride the same fast path: one
        // relaxed load, no label hashing, no seen-set work when disabled.
        let start = std::time::Instant::now();
        for i in 0..iters {
            crate::labeled_counter("noop.smoke", i, i & 1);
        }
        let per_call = start.elapsed().as_nanos() as f64 / iters as f64;
        assert!(
            per_call < 200.0,
            "disabled labeled counter cost {per_call:.1}ns/call"
        );
        let start = std::time::Instant::now();
        for i in 0..iters {
            crate::distinct("noop.smoke", i);
        }
        let per_call = start.elapsed().as_nanos() as f64 / iters as f64;
        assert!(
            per_call < 200.0,
            "disabled distinct cost {per_call:.1}ns/call"
        );
    }

    #[test]
    fn render_tree_indents_children() {
        let r = StatsRecorder::new();
        r.span_enter("root");
        r.span_enter("leaf");
        r.span_exit("leaf", 1_000);
        r.span_exit("root", 20_000_000);
        let tree = r.render_tree();
        assert!(tree.contains("root"), "{tree}");
        assert!(tree.contains("  leaf"), "{tree}");
        assert!(tree.contains("20.0ms"), "{tree}");
    }
}
