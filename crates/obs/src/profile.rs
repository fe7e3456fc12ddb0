//! Cost attribution: labeled metrics with bounded cardinality, and
//! distinct-work tracking.
//!
//! The aggregated counters of [`StatsRecorder`](crate::StatsRecorder)
//! say *how much* work a run did; this module says *where it
//! concentrated* and *how much of it was repeated*:
//!
//! * [`ProfileRecorder`] aggregates the labeled stream
//!   ([`crate::labeled_counter`] / [`crate::labeled_histogram`]) into
//!   per-label series. A label is a cheap `u64` key — a class id, a
//!   query id, a structural pair hash — so hot paths never format
//!   strings. Per-name cardinality is bounded: the first `cap` distinct
//!   labels are tracked exactly and every later label folds into a
//!   single `other` overflow bucket, so attribution can stay on against
//!   adversarial label sets without unbounded memory.
//! * [`SeenSet`] is a compact open-addressed hash set of `u64` keys
//!   backing [`Recorder::distinct`](crate::Recorder::distinct): the
//!   counter `foo.distinct` is bumped only the first time each key is
//!   seen, so the ratio `foo / foo.distinct` — the duplicate-work ratio,
//!   the measured case for memoization — is a first-class counter next
//!   to the plain total.
//!
//! The JSON export ([`ProfileRecorder::to_json`], schema
//! `chc-profile/1`) round-trips through [`crate::json`].

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::json::JsonValue;
use crate::names;
use crate::sampler::SpanSampler;

/// Default per-name label-cardinality cap; see [`ProfileRecorder::with_cap`].
pub const DEFAULT_LABEL_CAP: usize = 1024;

/// Hard ceiling on tracked distinct keys per counter name. Once a
/// [`SeenSet`] holds this many keys it saturates: further novel keys are
/// reported as duplicates (undercounting `*.distinct`) rather than
/// growing without bound. 2^24 keys ≈ 192 MiB worst case across a run
/// that actually performs that many distinct decisions.
const SEEN_MAX_KEYS: usize = 1 << 24;

/// A compact open-addressed set of `u64` keys (linear probing,
/// power-of-two capacity, grown at ~70% load).
///
/// Zero is used as the empty-slot sentinel; a real zero key is carried
/// in a side flag. Insertion order is irrelevant — only novelty matters.
#[derive(Debug, Default)]
pub struct SeenSet {
    slots: Vec<u64>,
    len: usize,
    has_zero: bool,
}

/// SplitMix64 finalizer: a cheap, well-mixing scramble so sequential
/// keys (class ids) spread across the table.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl SeenSet {
    /// An empty set. No allocation until the first insert.
    pub fn new() -> Self {
        SeenSet::default()
    }

    /// Number of distinct keys seen so far.
    pub fn len(&self) -> usize {
        self.len + usize::from(self.has_zero)
    }

    /// Whether no key has been seen yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts `key`; returns `true` iff it was not already present.
    /// Saturates (returns `false` for novel keys) past [`SEEN_MAX_KEYS`].
    pub fn insert(&mut self, key: u64) -> bool {
        if key == 0 {
            let new = !self.has_zero;
            self.has_zero = true;
            return new;
        }
        if self.slots.is_empty() {
            self.slots = vec![0; 64];
        } else if self.len * 10 >= self.slots.len() * 7 {
            if self.len >= SEEN_MAX_KEYS {
                return false;
            }
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut idx = (mix(key) as usize) & mask;
        loop {
            let slot = self.slots[idx];
            if slot == key {
                return false;
            }
            if slot == 0 {
                self.slots[idx] = key;
                self.len += 1;
                return true;
            }
            idx = (idx + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![0; doubled]);
        let mask = self.slots.len() - 1;
        for key in old.into_iter().filter(|&k| k != 0) {
            let mut idx = (mix(key) as usize) & mask;
            while self.slots[idx] != 0 {
                idx = (idx + 1) & mask;
            }
            self.slots[idx] = key;
        }
    }
}

/// One labeled counter series: exact per-label values for the first
/// `cap` distinct labels, everything later folded into `other`.
#[derive(Debug, Default)]
struct LabeledCounter {
    entries: BTreeMap<u64, u64>,
    other: u64,
    /// Distinct labels that arrived after the cap and folded into `other`.
    overflow_labels: SeenSet,
}

/// One labeled histogram series, aggregated as (count, sum, max) per
/// label under the same cardinality regime as counters.
#[derive(Debug, Default)]
struct LabeledHist {
    entries: BTreeMap<u64, (u64, u64, u64)>,
    other: (u64, u64, u64),
    overflow_labels: SeenSet,
}

#[derive(Default)]
struct ProfInner {
    counters: BTreeMap<&'static str, u64>,
    seen: BTreeMap<&'static str, SeenSet>,
    labeled: BTreeMap<&'static str, LabeledCounter>,
    hists: BTreeMap<&'static str, LabeledHist>,
}

/// A point-in-time view of one labeled counter series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledSnapshot {
    /// `(label, value)` pairs, hottest first (descending by value, then
    /// ascending by label for determinism).
    pub entries: Vec<(u64, u64)>,
    /// Total folded into the overflow bucket by the cardinality cap.
    pub other: u64,
    /// How many distinct labels the overflow bucket absorbed.
    pub other_labels: u64,
}

/// The attribution recorder: plain counters, distinct-work counters, and
/// labeled counter/histogram series with bounded per-name cardinality.
///
/// Spans and plain histograms are deliberately not aggregated here — use
/// [`StatsRecorder`](crate::StatsRecorder) (or fan out to both) when the
/// span tree matters. The `chc profile` subcommand installs this
/// together with a [`SpanSampler`](crate::SpanSampler).
pub struct ProfileRecorder {
    cap: usize,
    inner: Mutex<ProfInner>,
}

impl Default for ProfileRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProfileRecorder {
    /// A recorder with the default label-cardinality cap
    /// ([`DEFAULT_LABEL_CAP`] distinct labels per metric name).
    pub fn new() -> Self {
        Self::with_cap(DEFAULT_LABEL_CAP)
    }

    /// A recorder tracking at most `cap` distinct labels per metric
    /// name exactly; later labels fold into the `other` bucket. A cap of
    /// zero routes everything to `other`.
    pub fn with_cap(cap: usize) -> Self {
        ProfileRecorder {
            cap,
            inner: Mutex::new(ProfInner::default()),
        }
    }

    /// Current value of a plain (or distinct) counter; 0 if never bumped.
    pub fn counter_value(&self, name: &str) -> u64 {
        let inner = self.inner.lock().expect("profile lock");
        inner.counters.get(name).copied().unwrap_or(0)
    }

    /// All plain + distinct counters, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let inner = self.inner.lock().expect("profile lock");
        inner.counters.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Snapshot of one labeled counter series, hottest label first.
    pub fn labeled(&self, name: &str) -> Option<LabeledSnapshot> {
        let inner = self.inner.lock().expect("profile lock");
        let lc = inner.labeled.get(name)?;
        let mut entries: Vec<(u64, u64)> = lc.entries.iter().map(|(&l, &v)| (l, v)).collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Some(LabeledSnapshot {
            entries,
            other: lc.other,
            other_labels: lc.overflow_labels.len() as u64,
        })
    }

    /// Snapshot of one labeled histogram series as
    /// `(label, count, sum)`, largest sum first; the final element of the
    /// tuple list never includes the `other` bucket, returned separately
    /// as `(count, sum)`.
    #[allow(clippy::type_complexity)]
    pub fn labeled_sums(&self, name: &str) -> Option<(Vec<(u64, u64, u64)>, (u64, u64))> {
        let inner = self.inner.lock().expect("profile lock");
        let lh = inner.hists.get(name)?;
        let mut entries: Vec<(u64, u64, u64)> = lh
            .entries
            .iter()
            .map(|(&l, &(count, sum, _max))| (l, count, sum))
            .collect();
        entries.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        Some((entries, (lh.other.0, lh.other.1)))
    }

    /// Snapshot of one labeled histogram series as `(label, max)`,
    /// unsorted. The per-class peak-live column of `chc profile --mem`
    /// reads this; the `other` bucket's max is not tracked and is
    /// omitted.
    pub fn labeled_max(&self, name: &str) -> Option<Vec<(u64, u64)>> {
        let inner = self.inner.lock().expect("profile lock");
        let lh = inner.hists.get(name)?;
        Some(
            lh.entries
                .iter()
                .map(|(&l, &(_count, _sum, max))| (l, max))
                .collect(),
        )
    }

    /// The whole profile as one `chc-profile/1` JSON document:
    ///
    /// ```json
    /// {"schema":"chc-profile/1","cap":1024,
    ///  "counters":{"subtype.queries":209490,"subtype.queries.distinct":512},
    ///  "labeled":{"sat.calls":{"entries":[{"label":7,"value":31}],
    ///             "other":{"labels":0,"value":0}}},
    ///  "histograms":{"check.class.nanos":{"entries":[
    ///      {"label":7,"count":1,"sum":18000}],
    ///      "other":{"count":0,"sum":0}}}}
    /// ```
    ///
    /// Labels are rendered as numbers; resolving them back to class or
    /// query names is the caller's job (the ids are only meaningful
    /// against the schema that produced them). The document parses back
    /// through [`crate::json::parse`].
    pub fn to_json(&self) -> JsonValue {
        let inner = self.inner.lock().expect("profile lock");
        let counters = JsonValue::object(
            inner
                .counters
                .iter()
                .map(|(&k, &v)| (k, JsonValue::number(v as f64))),
        );
        let labeled = JsonValue::object(inner.labeled.iter().map(|(&name, lc)| {
            let mut entries: Vec<(u64, u64)> = lc.entries.iter().map(|(&l, &v)| (l, v)).collect();
            entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let entries = JsonValue::array(entries.into_iter().map(|(l, v)| {
                JsonValue::object([
                    ("label", JsonValue::number(l as f64)),
                    ("value", JsonValue::number(v as f64)),
                ])
            }));
            let other = JsonValue::object([
                ("labels", JsonValue::number(lc.overflow_labels.len() as f64)),
                ("value", JsonValue::number(lc.other as f64)),
            ]);
            (
                name,
                JsonValue::object([("entries", entries), ("other", other)]),
            )
        }));
        let histograms = JsonValue::object(inner.hists.iter().map(|(&name, lh)| {
            let mut entries: Vec<(u64, (u64, u64, u64))> =
                lh.entries.iter().map(|(&l, &t)| (l, t)).collect();
            entries.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(&b.0)));
            let entries = JsonValue::array(entries.into_iter().map(|(l, (count, sum, max))| {
                JsonValue::object([
                    ("label", JsonValue::number(l as f64)),
                    ("count", JsonValue::number(count as f64)),
                    ("sum", JsonValue::number(sum as f64)),
                    ("max", JsonValue::number(max as f64)),
                ])
            }));
            let other = JsonValue::object([
                ("labels", JsonValue::number(lh.overflow_labels.len() as f64)),
                ("count", JsonValue::number(lh.other.0 as f64)),
                ("sum", JsonValue::number(lh.other.1 as f64)),
            ]);
            (
                name,
                JsonValue::object([("entries", entries), ("other", other)]),
            )
        }));
        JsonValue::object([
            ("schema", JsonValue::string("chc-profile/1")),
            ("cap", JsonValue::number(self.cap as f64)),
            ("counters", counters),
            ("labeled", labeled),
            ("histograms", histograms),
        ])
    }
}

/// The duplicate-work ratio `total / distinct` (1.0 before any
/// distinct key was seen).
fn duplicate_ratio(total: u64, distinct: u64) -> f64 {
    if distinct == 0 {
        1.0
    } else {
        total as f64 / distinct as f64
    }
}

/// The reports `chc profile` builds from an attribution run. Labels of
/// the per-class series are class ids; `class_name` resolves them, since
/// the ids only mean something against the schema that produced them.
impl ProfileRecorder {
    /// `check.class.nanos` per class as `(label, count, sum)`, hottest
    /// first, and the sum over all of them.
    fn class_nanos(&self) -> (Vec<(u64, u64, u64)>, u64) {
        let entries = self
            .labeled_sums(names::CHECK_CLASS_NANOS)
            .map(|(entries, _other)| entries)
            .unwrap_or_default();
        let total = entries.iter().map(|&(_, _, sum)| sum).sum();
        (entries, total)
    }

    /// `(total, distinct)` for the two memoizable hot paths:
    /// `subtype.queries` and `sat.calls`.
    fn duplicate_work(&self) -> [(u64, u64); 2] {
        [
            (names::SUBTYPE_QUERIES, names::SUBTYPE_QUERIES_DISTINCT),
            (names::SAT_CALLS, names::SAT_CALLS_DISTINCT),
        ]
        .map(|(total, distinct)| (self.counter_value(total), self.counter_value(distinct)))
    }

    /// The human-readable hot-spot report: the duplicate-work ratios,
    /// the sampler's yield, and the `top` hottest classes by check time
    /// with their subtype/sat/contradiction/row counts. With `mem`, two
    /// memory columns (bytes allocated, peak live) and a line
    /// reconciling them against the process-wide allocator totals.
    pub fn render_hot_spots<'a>(
        &self,
        sampler: &SpanSampler,
        top: usize,
        mem: bool,
        class_name: impl Fn(u64) -> &'a str,
    ) -> String {
        use crate::{format_bytes, format_ns};
        use std::fmt::Write as _;

        let (nanos_by_class, total_nanos) = self.class_nanos();
        let labeled_of = |name: &str| -> BTreeMap<u64, u64> {
            self.labeled(name)
                .map(|s| s.entries.into_iter().collect())
                .unwrap_or_default()
        };
        let columns = [
            names::SUBTYPE_QUERIES,
            names::SAT_CALLS,
            names::CHECK_CONTRADICTIONS,
            names::QUERY_ROWS_SCANNED,
        ]
        .map(labeled_of);
        let mem_bytes = labeled_of(names::MEM_CHECK_CLASS_BYTES);
        let mem_peak: BTreeMap<u64, u64> = self
            .labeled_max(names::MEM_CHECK_CLASS_PEAK)
            .map(|v| v.into_iter().collect())
            .unwrap_or_default();
        let [(subtype, subtype_distinct), (sat, sat_distinct)] = self.duplicate_work();

        let mut out = String::new();
        let _ = writeln!(
            out,
            "  duplicate work: subtype.queries {subtype} / {subtype_distinct} distinct = {:.1}x, \
             sat.calls {sat} / {sat_distinct} distinct = {:.1}x",
            duplicate_ratio(subtype, subtype_distinct),
            duplicate_ratio(sat, sat_distinct),
        );
        let _ = writeln!(
            out,
            "  sampler: {} sample(s) at {} intervals, {} distinct stack path(s)",
            sampler.samples(),
            format_ns(sampler.interval().as_nanos().min(u64::MAX as u128) as u64),
            sampler.folded_counts().len(),
        );
        let _ = write!(
            out,
            "\n  {:<28} {:>10} {:>7} {:>9} {:>7} {:>7} {:>9}",
            "class", "time", "share", "subtype", "sat", "contra", "rows"
        );
        if mem {
            let _ = write!(out, " {:>10} {:>10}", "alloc", "peak");
        }
        out.push('\n');
        for &(label, _count, sum) in nanos_by_class.iter().take(top) {
            let share = if total_nanos == 0 {
                0.0
            } else {
                100.0 * sum as f64 / total_nanos as f64
            };
            let [st, sa, co, ro] = columns
                .each_ref()
                .map(|c| c.get(&label).copied().unwrap_or(0));
            let _ = write!(
                out,
                "  {:<28} {:>10} {share:>6.1}% {st:>9} {sa:>7} {co:>7} {ro:>9}",
                class_name(label),
                format_ns(sum),
            );
            if mem {
                let bytes = mem_bytes.get(&label).copied().unwrap_or(0);
                let peak = mem_peak.get(&label).copied().unwrap_or(0);
                let _ = write!(
                    out,
                    " {:>10} {:>10}",
                    format_bytes(bytes),
                    format_bytes(peak)
                );
            }
            out.push('\n');
        }
        if nanos_by_class.len() > top {
            let _ = writeln!(
                out,
                "  … {} more class(es); raise --top or read --profile-out",
                nanos_by_class.len() - top
            );
        }
        if mem {
            // The per-class series only see what ran inside
            // `check_class`, so Σbytes ≤ global allocated and every
            // class peak ≤ global peak; if either fails, the
            // attribution is broken.
            let m = crate::memalloc::snapshot();
            let class_bytes: u64 = mem_bytes.values().sum();
            let class_peak = mem_peak.values().copied().max().unwrap_or(0);
            let pct = if m.bytes_total == 0 {
                0.0
            } else {
                100.0 * class_bytes as f64 / m.bytes_total as f64
            };
            let _ = writeln!(
                out,
                "  mem: global {} allocated, peak live {}; per-class Σ {} ({pct:.1}% of global), \
                 max class peak {}",
                format_bytes(m.bytes_total),
                format_bytes(m.bytes_peak),
                format_bytes(class_bytes),
                format_bytes(class_peak),
            );
        }
        out
    }

    /// The one-line summary `chc profile` prints on stdout: the class
    /// count, the duplicate-work ratios, and the sampler's yield.
    pub fn render_summary(&self, workload: &str, classes: usize, sampler: &SpanSampler) -> String {
        let [(subtype, subtype_distinct), (sat, sat_distinct)] = self.duplicate_work();
        format!(
            "profile: {workload} — {classes} classes, subtype {subtype}/{subtype_distinct} ({:.1}x), \
             sat {sat}/{sat_distinct} ({:.1}x), {} sample(s)",
            duplicate_ratio(subtype, subtype_distinct),
            duplicate_ratio(sat, sat_distinct),
            sampler.samples(),
        )
    }

    /// The enriched `chc-profile/1` document: [`ProfileRecorder::to_json`]
    /// plus the workload name, the allocator totals, the name-resolved
    /// hot-class table, and the sampled stacks.
    pub fn to_profile_json<'a>(
        &self,
        workload: &str,
        sampler: &SpanSampler,
        class_name: impl Fn(u64) -> &'a str,
    ) -> JsonValue {
        let base = self.to_json();
        let part = |key: &str| {
            base.get(key)
                .cloned()
                .unwrap_or_else(|| JsonValue::object([]))
        };
        let (nanos_by_class, total_nanos) = self.class_nanos();
        let hot = JsonValue::array(nanos_by_class.iter().map(|&(label, _count, sum)| {
            let share = if total_nanos == 0 {
                0.0
            } else {
                sum as f64 / total_nanos as f64
            };
            JsonValue::object([
                ("class", JsonValue::string(class_name(label))),
                ("label", JsonValue::number(label as f64)),
                ("nanos", JsonValue::number(sum as f64)),
                (
                    "share",
                    JsonValue::number((share * 1_000.0).round() / 1_000.0),
                ),
            ])
        }));
        let stacks = JsonValue::array(sampler.folded_counts().into_iter().map(|(path, count)| {
            JsonValue::object([
                ("stack", JsonValue::string(&path)),
                ("count", JsonValue::number(count as f64)),
            ])
        }));
        let sampler_obj = JsonValue::object([
            (
                "interval_nanos",
                JsonValue::number(sampler.interval().as_nanos().min(u64::MAX as u128) as f64),
            ),
            ("samples", JsonValue::number(sampler.samples() as f64)),
            ("idle", JsonValue::number(sampler.idle() as f64)),
            ("stacks", stacks),
        ]);
        JsonValue::object([
            ("schema", JsonValue::string("chc-profile/1")),
            ("workload", JsonValue::string(workload)),
            ("mem", crate::memalloc::snapshot_json()),
            ("cap", part("cap")),
            ("counters", part("counters")),
            ("labeled", part("labeled")),
            ("histograms", part("histograms")),
            ("hot_classes", hot),
            ("sampler", sampler_obj),
        ])
    }
}

impl crate::Recorder for ProfileRecorder {
    fn counter(&self, name: &'static str, delta: u64) {
        let mut inner = self.inner.lock().expect("profile lock");
        *inner.counters.entry(name).or_insert(0) += delta;
    }

    fn labeled_counter(&self, name: &'static str, label: u64, delta: u64) {
        let cap = self.cap;
        let mut inner = self.inner.lock().expect("profile lock");
        let lc = inner.labeled.entry(name).or_default();
        if let Some(v) = lc.entries.get_mut(&label) {
            *v += delta;
        } else if lc.entries.len() < cap {
            lc.entries.insert(label, delta);
        } else {
            lc.other += delta;
            lc.overflow_labels.insert(label);
        }
    }

    fn labeled_histogram(&self, name: &'static str, label: u64, value: u64) {
        let cap = self.cap;
        let mut inner = self.inner.lock().expect("profile lock");
        let lh = inner.hists.entry(name).or_default();
        if let Some((count, sum, max)) = lh.entries.get_mut(&label) {
            *count += 1;
            *sum += value;
            *max = (*max).max(value);
        } else if lh.entries.len() < cap {
            lh.entries.insert(label, (1, value, value));
        } else {
            lh.other.0 += 1;
            lh.other.1 += value;
            lh.other.2 = lh.other.2.max(value);
            lh.overflow_labels.insert(label);
        }
    }

    fn distinct(&self, name: &'static str, key: u64) {
        let mut inner = self.inner.lock().expect("profile lock");
        let new = inner.seen.entry(name).or_default().insert(key);
        if new {
            *inner.counters.entry(name).or_insert(0) += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder as _;
    use std::sync::Arc;

    #[test]
    fn seen_set_counts_distinct_keys() {
        let mut s = SeenSet::new();
        assert!(s.insert(42));
        assert!(!s.insert(42));
        assert!(s.insert(0)); // zero key uses the side flag, not a slot
        assert!(!s.insert(0));
        for k in 1..=1000u64 {
            s.insert(k * 7919);
        }
        assert_eq!(s.len(), 1002);
        // Seen keys stay seen across growth; an unseen one is novel.
        assert!(!s.insert(42));
        assert!(!s.insert(7919));
        assert!(s.insert(3));
    }

    #[test]
    fn distinct_counter_tracks_first_sightings_only() {
        let rec = ProfileRecorder::new();
        for key in [1u64, 2, 1, 3, 2, 1] {
            rec.distinct("t.distinct", key);
        }
        assert_eq!(rec.counter_value("t.distinct"), 3);
    }

    #[test]
    fn label_storm_is_exact_under_the_cap() {
        // 10k distinct labels against a cap of 32: the 32 tracked series
        // stay exact, everything else lands in `other`, and nothing is
        // lost — sum(entries) + other == total emitted.
        let cap = 32;
        let rec = ProfileRecorder::with_cap(cap);
        let mut total = 0u64;
        for round in 0..3u64 {
            for label in 0..10_000u64 {
                let delta = 1 + (label % 5) + round;
                rec.labeled_counter("t.storm", label, delta);
                total += delta;
            }
        }
        let snap = rec.labeled("t.storm").expect("series exists");
        assert_eq!(snap.entries.len(), cap);
        // The first `cap` distinct labels to arrive (0..32) are tracked
        // exactly: label l got 3 rounds of (1 + l%5 + round).
        for &(label, value) in &snap.entries {
            assert!(
                label < cap as u64,
                "tracked label {label} beyond the first {cap}"
            );
            assert_eq!(value, 3 * (1 + label % 5) + 3);
        }
        let kept: u64 = snap.entries.iter().map(|&(_, v)| v).sum();
        assert_eq!(kept + snap.other, total, "cap must not lose counts");
        assert_eq!(snap.other_labels, 10_000 - cap as u64);
    }

    #[test]
    fn cap_zero_routes_everything_to_other_without_losing_counts() {
        // `--label-cap 0` is the degenerate but legal configuration:
        // no per-label series at all, every observation folded into
        // `other`, and Σentries + other == total still holds.
        let rec = ProfileRecorder::with_cap(0);
        let mut total = 0u64;
        let mut hist_count = 0u64;
        let mut hist_sum = 0u64;
        for label in 0..100u64 {
            rec.labeled_counter("t.cap0", label, label + 1);
            total += label + 1;
            rec.labeled_histogram("t.cap0.hist", label, label * 10);
            hist_count += 1;
            hist_sum += label * 10;
        }
        let snap = rec.labeled("t.cap0").expect("series exists");
        assert!(snap.entries.is_empty());
        assert_eq!(snap.other, total, "cap 0 must not lose counts");
        assert_eq!(snap.other_labels, 100);
        let (entries, other) = rec.labeled_sums("t.cap0.hist").expect("hist exists");
        assert!(entries.is_empty());
        assert_eq!(other, (hist_count, hist_sum));
    }

    #[test]
    fn cap_one_keeps_exactly_one_series_and_folds_the_rest() {
        let rec = ProfileRecorder::with_cap(1);
        let mut total = 0u64;
        for round in 0..2u64 {
            for label in 0..50u64 {
                rec.labeled_counter("t.cap1", label, 2 + round);
                total += 2 + round;
            }
        }
        let snap = rec.labeled("t.cap1").expect("series exists");
        assert_eq!(snap.entries, vec![(0, 5)], "first label stays exact");
        let kept: u64 = snap.entries.iter().map(|&(_, v)| v).sum();
        assert_eq!(kept + snap.other, total, "cap 1 must not lose counts");
        assert_eq!(snap.other_labels, 49);
        // The JSON document stays well-formed at the degenerate caps.
        let doc = rec.to_json();
        crate::json::parse(&doc.render()).expect("chc-profile/1 round-trips at cap 1");
    }

    #[test]
    fn labeled_max_exposes_per_label_peaks() {
        let rec = ProfileRecorder::with_cap(8);
        rec.labeled_histogram("t.peaks", 3, 100);
        rec.labeled_histogram("t.peaks", 3, 700);
        rec.labeled_histogram("t.peaks", 3, 250);
        rec.labeled_histogram("t.peaks", 9, 40);
        let mut maxes = rec.labeled_max("t.peaks").expect("series exists");
        maxes.sort_unstable();
        assert_eq!(maxes, vec![(3, 700), (9, 40)]);
        assert!(rec.labeled_max("t.absent").is_none());
    }

    #[test]
    fn labeled_histogram_aggregates_count_sum_max() {
        let rec = ProfileRecorder::with_cap(2);
        rec.labeled_histogram("t.h", 7, 10);
        rec.labeled_histogram("t.h", 7, 30);
        rec.labeled_histogram("t.h", 8, 5);
        rec.labeled_histogram("t.h", 9, 100); // overflows the cap of 2
        let (entries, other) = rec.labeled_sums("t.h").expect("series exists");
        assert_eq!(entries, vec![(7, 2, 40), (8, 1, 5)]);
        assert_eq!(other, (1, 100));
    }

    #[test]
    fn json_export_round_trips() {
        let rec = ProfileRecorder::with_cap(4);
        rec.counter("t.total", 9);
        rec.distinct("t.total.distinct", 1);
        rec.distinct("t.total.distinct", 1);
        rec.distinct("t.total.distinct", 2);
        for label in 0..6u64 {
            rec.labeled_counter("t.by_label", label, label + 1);
            rec.labeled_histogram("t.nanos", label, 100 * (label + 1));
        }
        let doc = rec.to_json();
        let text = doc.render();
        let parsed = crate::json::parse(&text).expect("profile JSON parses back");
        assert_eq!(parsed.render(), text, "render/parse/render is a fixpoint");
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some("chc-profile/1")
        );
        let counters = parsed.get("counters").expect("counters object");
        assert_eq!(
            counters.get("t.total.distinct").and_then(|v| v.as_f64()),
            Some(2.0)
        );
        let series = parsed
            .get("labeled")
            .and_then(|l| l.get("t.by_label"))
            .expect("labeled series");
        let entries = series.get("entries").and_then(|e| e.as_array()).unwrap();
        assert_eq!(entries.len(), 4);
        let other = series.get("other").expect("other bucket");
        assert_eq!(other.get("labels").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(other.get("value").and_then(|v| v.as_f64()), Some(5.0 + 6.0));
    }

    #[test]
    fn free_functions_reach_a_scoped_profile_recorder() {
        let rec = Arc::new(ProfileRecorder::new());
        {
            let _g = crate::scoped(rec.clone());
            crate::labeled_counter("t.free", 3, 2);
            crate::distinct("t.free.distinct", 99);
            crate::distinct("t.free.distinct", 99);
            let _l = crate::label_scope(11);
            crate::labeled_counter_scoped("t.free", 1);
        }
        crate::labeled_counter("t.free", 3, 100); // outside the scope: dropped
        let snap = rec.labeled("t.free").expect("series exists");
        assert_eq!(snap.entries, vec![(3, 2), (11, 1)]);
        assert_eq!(rec.counter_value("t.free.distinct"), 1);
        assert_eq!(crate::current_label(), None, "label scope popped");
    }
}
