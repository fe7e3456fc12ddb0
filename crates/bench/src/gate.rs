//! The continuous-benchmark regression gate.
//!
//! `scripts/bench_gate.sh` runs the bench suite with `CHC_BENCH_JSON`
//! set, collects the JSON lines into a `BENCH.json` document (schema
//! [`SCHEMA_VERSION`]), and compares it against the committed
//! `BENCH_BASELINE.json`. The comparison logic lives here so it is unit
//! testable; the `bench-diff` binary is a thin CLI over [`BenchDoc`] and
//! [`compare`].
//!
//! ## The regression rule
//!
//! A bench regresses only when the slowdown is *systematic*, not one
//! noisy sample. All three must hold:
//!
//! ```text
//! fresh.median > baseline.median × (1 + threshold)     -- typical run slower
//! fresh.min    > baseline.median                       -- no fresh sample was fast
//! fresh.min    > baseline.min × (1 + threshold)        -- best case slower too
//! ```
//!
//! The min clauses are what make the rule robust on shared hardware: a
//! machine hiccup inflates medians and maxima, but the best-case sample
//! of an unchanged program keeps landing near the baseline's best case.
//! Only a real slowdown shifts the *floor*. The threshold defaults to
//! [`DEFAULT_THRESHOLD`] and may be overridden per bench by a
//! `threshold` field in the baseline entry (`bench-diff collect` seeds
//! one from the observed sample spread).
//!
//! ## Ratio rows
//!
//! Absolute medians move with the host's speed; the ratio of two benches
//! from one fresh run does not. Each pair in [`RATIO_BOUNDS`] fails the
//! gate when the fresh run's numerator median exceeds the bound times
//! its denominator median, whatever the baseline says.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use chc_obs::json::{self, JsonValue};

/// The `schema` field every BENCH.json document carries.
pub const SCHEMA_VERSION: &str = "chc-bench/1";

/// Relative slowdown tolerated before a bench counts as regressed.
pub const DEFAULT_THRESHOLD: f64 = 0.10;

/// Floor for per-bench thresholds suggested from sample spread — even a
/// bench with perfectly tight samples sees this much cross-run drift on
/// shared hardware.
pub const MIN_SUGGESTED_THRESHOLD: f64 = 0.15;

/// Ceiling for per-bench thresholds suggested from sample spread.
pub const MAX_SUGGESTED_THRESHOLD: f64 = 0.60;

/// Within-run ratio bounds: `(numerator, denominator, bound)` bench ids.
/// `validate_recorded/flight` over `validate_recorded/none` is the tax
/// the always-on flight recorder puts on validation.
pub const RATIO_BOUNDS: &[(&str, &str, f64)] =
    &[("validate_recorded/flight", "validate_recorded/none", 1.15)];

/// One bench entry in a BENCH.json document.
#[derive(Debug, Clone, PartialEq)]
pub struct GateEntry {
    /// `group/bench` identifier.
    pub id: String,
    /// Median ns/iter over the samples.
    pub median_ns: f64,
    /// Fastest sample, ns/iter.
    pub min_ns: f64,
    /// Slowest sample, ns/iter.
    pub max_ns: f64,
    /// Number of timed samples.
    pub samples: u64,
    /// Iterations per timed batch.
    pub iters: u64,
    /// Per-bench noise threshold; `None` means the gate default.
    pub threshold: Option<f64>,
}

/// A whole BENCH.json document: results plus provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// Git revision the run was taken at (`unknown` outside a checkout).
    pub git_rev: String,
    /// One entry per bench, in suite order.
    pub results: Vec<GateEntry>,
    /// Recorder counter snapshot from a fixed reference workload, for
    /// catching *work* regressions the wall clock hides.
    pub counters: BTreeMap<String, u64>,
}

impl BenchDoc {
    /// Parses a rendered BENCH.json document, checking the schema tag.
    pub fn parse(text: &str) -> Result<BenchDoc, String> {
        let doc = json::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("missing `schema` field")?;
        if schema != SCHEMA_VERSION {
            return Err(format!("schema {schema:?}, expected {SCHEMA_VERSION:?}"));
        }
        let git_rev = doc
            .get("git_rev")
            .and_then(JsonValue::as_str)
            .unwrap_or("unknown")
            .to_string();
        let results = doc
            .get("results")
            .and_then(JsonValue::as_array)
            .ok_or("missing `results` array")?
            .iter()
            .map(GateEntry::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let mut counters = BTreeMap::new();
        if let Some(JsonValue::Obj(map)) = doc.get("counters") {
            for (k, v) in map {
                let n = v.as_f64().ok_or_else(|| format!("counter {k}: not a number"))?;
                counters.insert(k.clone(), n as u64);
            }
        }
        Ok(BenchDoc {
            git_rev,
            results,
            counters,
        })
    }

    /// Renders the document (one line; BENCH.json is machine-first).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("schema", JsonValue::string(SCHEMA_VERSION)),
            ("git_rev", JsonValue::string(&self.git_rev)),
            (
                "results",
                JsonValue::array(self.results.iter().map(GateEntry::to_json)),
            ),
            (
                "counters",
                JsonValue::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::number(*v as f64)))
                        .collect(),
                ),
            ),
        ])
    }

    /// The entry with this id, if present.
    pub fn entry(&self, id: &str) -> Option<&GateEntry> {
        self.results.iter().find(|r| r.id == id)
    }
}

impl GateEntry {
    fn from_json(v: &JsonValue) -> Result<GateEntry, String> {
        let num = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("result entry missing numeric `{key}`: {}", v.render()))
        };
        Ok(GateEntry {
            id: v
                .get("id")
                .and_then(JsonValue::as_str)
                .ok_or("result entry missing `id`")?
                .to_string(),
            median_ns: num("median_ns")?,
            min_ns: num("min_ns")?,
            max_ns: num("max_ns")?,
            samples: num("samples")? as u64,
            iters: num("iters")? as u64,
            threshold: v.get("threshold").and_then(JsonValue::as_f64),
        })
    }

    fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("id", JsonValue::string(&self.id)),
            ("median_ns", JsonValue::number(self.median_ns)),
            ("min_ns", JsonValue::number(self.min_ns)),
            ("max_ns", JsonValue::number(self.max_ns)),
            ("samples", JsonValue::number(self.samples as f64)),
            ("iters", JsonValue::number(self.iters as f64)),
        ];
        if let Some(t) = self.threshold {
            fields.push(("threshold", JsonValue::number(t)));
        }
        JsonValue::object(fields)
    }
}

/// A per-bench noise threshold from the observed sample spread:
/// 2 × (max − min)/median, clamped to
/// [[`MIN_SUGGESTED_THRESHOLD`], [`MAX_SUGGESTED_THRESHOLD`]]. Benches
/// whose samples already scatter by 20% within one run drift even more
/// between runs and need more headroom than stable ones.
pub fn suggested_threshold(min_ns: f64, max_ns: f64, median_ns: f64) -> f64 {
    if median_ns <= 0.0 {
        return MIN_SUGGESTED_THRESHOLD;
    }
    let spread = 2.0 * (max_ns - min_ns) / median_ns;
    spread.clamp(MIN_SUGGESTED_THRESHOLD, MAX_SUGGESTED_THRESHOLD)
}

/// Per-bench outcome of a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the noise threshold (or faster).
    Ok,
    /// Systematically slower than the baseline allows.
    Regressed,
    /// In the fresh run but not the baseline (new bench; informational).
    New,
    /// In the baseline but missing from the fresh run (bench deleted or
    /// the run is incomplete) — fails the gate.
    Missing,
}

/// One row of the comparison table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Bench id.
    pub id: String,
    /// Baseline median, if the baseline has this bench.
    pub baseline_ns: Option<f64>,
    /// Fresh median, if the fresh run has this bench.
    pub fresh_ns: Option<f64>,
    /// fresh/baseline median ratio when both sides exist.
    pub ratio: Option<f64>,
    /// The threshold this row was judged against.
    pub threshold: f64,
    /// The outcome.
    pub verdict: Verdict,
}

/// One row of the counter-snapshot diff: a named work counter from the
/// fixed reference workload, on each side of the comparison. Counters
/// are exact (no timing), so any delta is a real behavior change — this
/// is how work regressions stay visible when wall-clock noise masks
/// them. Informational: counter drift never fails the gate by itself,
/// because intentional behavior changes legitimately move work counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRow {
    /// Counter name (e.g. `subtype.queries`).
    pub name: String,
    /// Baseline value, if the baseline snapshot has this counter.
    pub baseline: Option<u64>,
    /// Fresh value, if the fresh snapshot has this counter.
    pub fresh: Option<u64>,
}

impl CounterRow {
    /// True when the two sides disagree (including one side missing).
    pub fn changed(&self) -> bool {
        self.baseline != self.fresh
    }
}

/// One within-run ratio of two fresh medians, against its bound.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioRow {
    /// The numerator's bench id.
    pub numerator: String,
    /// The denominator's bench id.
    pub denominator: String,
    /// numerator/denominator median ratio in the fresh run.
    pub ratio: f64,
    /// The largest ratio that passes.
    pub bound: f64,
}

impl RatioRow {
    /// True when the ratio is past its bound.
    pub fn failed(&self) -> bool {
        self.ratio > self.bound
    }
}

/// The result of comparing a fresh run against a baseline.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Baseline-order rows, then any new benches.
    pub rows: Vec<Row>,
    /// Counter-snapshot diff over the union of both snapshots' names.
    pub counters: Vec<CounterRow>,
    /// The [`RATIO_BOUNDS`] pairs the fresh run has both benches of.
    pub ratios: Vec<RatioRow>,
}

impl Comparison {
    /// True if any row fails the gate (regressed or missing) or any
    /// ratio is past its bound.
    pub fn failed(&self) -> bool {
        self.rows
            .iter()
            .any(|r| matches!(r.verdict, Verdict::Regressed | Verdict::Missing))
            || self.ratios.iter().any(RatioRow::failed)
    }

    /// A human-readable table, one row per bench.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let id_width = self
            .rows
            .iter()
            .map(|r| r.id.len())
            .max()
            .unwrap_or(4)
            .max(4);
        let _ = writeln!(
            out,
            "{:<id_width$}  {:>12}  {:>12}  {:>7}  {:>6}  verdict",
            "id", "baseline", "fresh", "ratio", "thresh"
        );
        for r in &self.rows {
            let fmt_opt = |ns: Option<f64>| match ns {
                Some(ns) => format!("{:.0} ns", ns),
                None => "-".to_string(),
            };
            let ratio = match r.ratio {
                Some(x) => format!("{x:.3}"),
                None => "-".to_string(),
            };
            let verdict = match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "REGRESSED",
                Verdict::New => "new",
                Verdict::Missing => "MISSING",
            };
            let _ = writeln!(
                out,
                "{:<id_width$}  {:>12}  {:>12}  {:>7}  {:>5.0}%  {}",
                r.id,
                fmt_opt(r.baseline_ns),
                fmt_opt(r.fresh_ns),
                ratio,
                r.threshold * 100.0,
                verdict
            );
        }
        if !self.ratios.is_empty() {
            let _ = writeln!(out, "ratios (within the fresh run):");
            for r in &self.ratios {
                let _ = writeln!(
                    out,
                    "{} / {}  {:.3}  bound {:.2}  {}",
                    r.numerator,
                    r.denominator,
                    r.ratio,
                    r.bound,
                    if r.failed() { "REGRESSED" } else { "ok" }
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters (fixed reference workload; exact, informational):");
            let name_width = self
                .counters
                .iter()
                .map(|c| c.name.len())
                .max()
                .unwrap_or(4)
                .max(4);
            let _ = writeln!(
                out,
                "{:<name_width$}  {:>12}  {:>12}  delta",
                "name", "baseline", "fresh"
            );
            for c in &self.counters {
                let fmt_opt = |v: Option<u64>| match v {
                    Some(v) => v.to_string(),
                    None => "-".to_string(),
                };
                let delta = match (c.baseline, c.fresh) {
                    (Some(b), Some(f)) if b == f => "=".to_string(),
                    (Some(b), Some(f)) => {
                        let diff = f as i128 - b as i128;
                        if b > 0 {
                            format!("{diff:+} ({:+.1}%) CHANGED", 100.0 * diff as f64 / b as f64)
                        } else {
                            format!("{diff:+} CHANGED")
                        }
                    }
                    (None, Some(_)) => "new CHANGED".to_string(),
                    (Some(_), None) => "gone CHANGED".to_string(),
                    (None, None) => "=".to_string(),
                };
                let _ = writeln!(
                    out,
                    "{:<name_width$}  {:>12}  {:>12}  {}",
                    c.name,
                    fmt_opt(c.baseline),
                    fmt_opt(c.fresh),
                    delta
                );
            }
        }
        out
    }
}

/// Compares `fresh` against `baseline` under the regression rule.
///
/// `default_threshold` applies to baseline entries without their own
/// `threshold` field.
pub fn compare(baseline: &BenchDoc, fresh: &BenchDoc, default_threshold: f64) -> Comparison {
    let mut rows = Vec::new();
    for base in &baseline.results {
        let threshold = base.threshold.unwrap_or(default_threshold);
        match fresh.entry(&base.id) {
            None => rows.push(Row {
                id: base.id.clone(),
                baseline_ns: Some(base.median_ns),
                fresh_ns: None,
                ratio: None,
                threshold,
                verdict: Verdict::Missing,
            }),
            Some(new) => {
                let ratio = new.median_ns / base.median_ns;
                let systematic = new.median_ns > base.median_ns * (1.0 + threshold)
                    && new.min_ns > base.median_ns
                    && new.min_ns > base.min_ns * (1.0 + threshold);
                rows.push(Row {
                    id: base.id.clone(),
                    baseline_ns: Some(base.median_ns),
                    fresh_ns: Some(new.median_ns),
                    ratio: Some(ratio),
                    threshold,
                    verdict: if systematic {
                        Verdict::Regressed
                    } else {
                        Verdict::Ok
                    },
                });
            }
        }
    }
    for new in &fresh.results {
        if baseline.entry(&new.id).is_none() {
            rows.push(Row {
                id: new.id.clone(),
                baseline_ns: None,
                fresh_ns: Some(new.median_ns),
                ratio: None,
                threshold: default_threshold,
                verdict: Verdict::New,
            });
        }
    }
    let mut names: Vec<&String> = baseline.counters.keys().collect();
    for name in fresh.counters.keys() {
        if !baseline.counters.contains_key(name) {
            names.push(name);
        }
    }
    names.sort();
    let counters = names
        .into_iter()
        .map(|name| CounterRow {
            name: name.clone(),
            baseline: baseline.counters.get(name).copied(),
            fresh: fresh.counters.get(name).copied(),
        })
        .collect();
    let ratios = RATIO_BOUNDS
        .iter()
        .filter_map(|&(numerator, denominator, bound)| {
            let (n, d) = (fresh.entry(numerator)?, fresh.entry(denominator)?);
            Some(RatioRow {
                numerator: numerator.to_string(),
                denominator: denominator.to_string(),
                ratio: n.median_ns / d.median_ns,
                bound,
            })
        })
        .collect();
    Comparison {
        rows,
        counters,
        ratios,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str, median: f64, min: f64, max: f64, threshold: Option<f64>) -> GateEntry {
        GateEntry {
            id: id.to_string(),
            median_ns: median,
            min_ns: min,
            max_ns: max,
            samples: 10,
            iters: 64,
            threshold,
        }
    }

    fn doc(results: Vec<GateEntry>) -> BenchDoc {
        BenchDoc {
            git_rev: "test".to_string(),
            results,
            counters: BTreeMap::new(),
        }
    }

    #[test]
    fn doc_round_trips_through_json() {
        let mut counters = BTreeMap::new();
        counters.insert("subtype.queries".to_string(), 1234);
        let d = BenchDoc {
            git_rev: "abc123".to_string(),
            results: vec![
                entry("g/a", 100.0, 90.0, 130.0, Some(0.25)),
                entry("g/b", 5.5, 5.0, 6.0, None),
            ],
            counters,
        };
        let parsed = BenchDoc::parse(&d.to_json().render()).unwrap();
        assert_eq!(parsed, d);
    }

    #[test]
    fn parse_rejects_wrong_schema_and_shape() {
        assert!(BenchDoc::parse("{\"schema\":\"chc-bench/99\",\"results\":[]}").is_err());
        assert!(BenchDoc::parse("{\"results\":[]}").is_err());
        assert!(BenchDoc::parse("{\"schema\":\"chc-bench/1\"}").is_err());
        assert!(
            BenchDoc::parse("{\"schema\":\"chc-bench/1\",\"results\":[{\"id\":\"x\"}]}").is_err()
        );
    }

    #[test]
    fn systematic_slowdown_regresses() {
        let base = doc(vec![entry("g/a", 100.0, 95.0, 110.0, None)]);
        // 30% slower and even the fastest fresh sample beats no baseline
        // run: regressed.
        let fresh = doc(vec![entry("g/a", 130.0, 120.0, 140.0, None)]);
        let cmp = compare(&base, &fresh, DEFAULT_THRESHOLD);
        assert_eq!(cmp.rows[0].verdict, Verdict::Regressed);
        assert!(cmp.failed());
        assert!(cmp.render().contains("REGRESSED"));
    }

    #[test]
    fn noisy_median_with_fast_min_passes() {
        let base = doc(vec![entry("g/a", 100.0, 95.0, 110.0, None)]);
        // Median inflated 30% but min ≤ baseline median: one-off noise.
        let fresh = doc(vec![entry("g/a", 130.0, 98.0, 400.0, None)]);
        let cmp = compare(&base, &fresh, DEFAULT_THRESHOLD);
        assert_eq!(cmp.rows[0].verdict, Verdict::Ok);
        assert!(!cmp.failed());
    }

    #[test]
    fn best_case_within_baseline_noise_passes() {
        let base = doc(vec![entry("g/a", 100.0, 95.0, 110.0, None)]);
        // Median up 30% and every fresh sample beats the baseline median,
        // but the fresh *best case* (101) is within the threshold of the
        // baseline best case (95 × 1.1): the floor did not move, so this
        // is load on the machine, not a slower program.
        let fresh = doc(vec![entry("g/a", 130.0, 101.0, 400.0, None)]);
        let cmp = compare(&base, &fresh, DEFAULT_THRESHOLD);
        assert_eq!(cmp.rows[0].verdict, Verdict::Ok);
        assert!(!cmp.failed());
    }

    #[test]
    fn per_bench_threshold_overrides_default() {
        let base = doc(vec![entry("g/a", 100.0, 95.0, 110.0, Some(0.50))]);
        let fresh = doc(vec![entry("g/a", 140.0, 135.0, 150.0, None)]);
        // 40% slower, but this bench tolerates 50%.
        assert!(!compare(&base, &fresh, DEFAULT_THRESHOLD).failed());
        // The default would have tripped.
        let strict = doc(vec![entry("g/a", 100.0, 95.0, 110.0, None)]);
        assert!(compare(&strict, &fresh, DEFAULT_THRESHOLD).failed());
    }

    #[test]
    fn missing_fails_and_new_is_informational() {
        let base = doc(vec![entry("g/a", 100.0, 95.0, 110.0, None)]);
        let fresh = doc(vec![entry("g/b", 10.0, 9.0, 11.0, None)]);
        let cmp = compare(&base, &fresh, DEFAULT_THRESHOLD);
        let verdicts: Vec<_> = cmp.rows.iter().map(|r| (r.id.as_str(), r.verdict)).collect();
        assert_eq!(
            verdicts,
            vec![("g/a", Verdict::Missing), ("g/b", Verdict::New)]
        );
        assert!(cmp.failed());
        // New benches alone never fail the gate.
        let cmp = compare(&doc(vec![]), &fresh, DEFAULT_THRESHOLD);
        assert!(!cmp.failed());
    }

    #[test]
    fn counter_diff_covers_union_and_flags_changes() {
        let mut base = doc(vec![entry("g/a", 100.0, 95.0, 110.0, None)]);
        base.counters.insert("subtype.queries".to_string(), 100);
        base.counters.insert("check.joint_sat_calls".to_string(), 40);
        base.counters.insert("gone.counter".to_string(), 7);
        let mut fresh = doc(vec![entry("g/a", 100.0, 95.0, 110.0, None)]);
        fresh.counters.insert("subtype.queries".to_string(), 100);
        fresh.counters.insert("check.joint_sat_calls".to_string(), 55);
        fresh.counters.insert("new.counter".to_string(), 3);
        let cmp = compare(&base, &fresh, DEFAULT_THRESHOLD);
        let by_name = |n: &str| cmp.counters.iter().find(|c| c.name == n).unwrap();
        assert!(!by_name("subtype.queries").changed());
        assert!(by_name("check.joint_sat_calls").changed());
        assert_eq!(by_name("gone.counter").fresh, None);
        assert_eq!(by_name("new.counter").baseline, None);
        let text = cmp.render();
        assert!(text.contains("counters"), "{text}");
        assert!(text.contains("+15 (+37.5%) CHANGED"), "{text}");
        assert!(text.contains("new CHANGED"), "{text}");
        assert!(text.contains("gone CHANGED"), "{text}");
        // Unchanged counters render as `=` and counter drift alone never
        // fails the gate.
        assert!(!cmp.failed());
    }

    #[test]
    fn empty_counter_snapshots_render_no_counter_table() {
        let base = doc(vec![entry("g/a", 100.0, 95.0, 110.0, None)]);
        let fresh = doc(vec![entry("g/a", 100.0, 95.0, 110.0, None)]);
        let cmp = compare(&base, &fresh, DEFAULT_THRESHOLD);
        assert!(cmp.counters.is_empty());
        assert!(!cmp.render().contains("counters"));
    }

    #[test]
    fn recorder_tax_is_gated_as_a_ratio_within_the_fresh_run() {
        // Both rows pass against the baseline on their own: the host was
        // slower for `none` too.
        let base = doc(vec![
            entry("validate_recorded/none", 100.0, 95.0, 110.0, Some(0.6)),
            entry("validate_recorded/flight", 100.0, 95.0, 110.0, Some(0.6)),
        ]);
        let taxed = doc(vec![
            entry("validate_recorded/none", 120.0, 115.0, 125.0, None),
            entry("validate_recorded/flight", 156.0, 150.0, 160.0, None),
        ]);
        let cmp = compare(&base, &taxed, DEFAULT_THRESHOLD);
        assert!(cmp.rows.iter().all(|r| r.verdict == Verdict::Ok));
        assert_eq!(cmp.ratios.len(), 1);
        assert!((cmp.ratios[0].ratio - 1.3).abs() < 1e-9);
        assert!(cmp.failed());
        let text = cmp.render();
        assert!(
            text.contains("validate_recorded/flight / validate_recorded/none  1.300  bound 1.15  REGRESSED"),
            "{text}"
        );
        // Within the bound, the gate passes.
        let light = doc(vec![
            entry("validate_recorded/none", 120.0, 115.0, 125.0, None),
            entry("validate_recorded/flight", 130.0, 125.0, 135.0, None),
        ]);
        assert!(!compare(&base, &light, DEFAULT_THRESHOLD).failed());
        // With one side missing there is no ratio; the missing row fails.
        let half = doc(vec![entry("validate_recorded/none", 120.0, 115.0, 125.0, None)]);
        let cmp = compare(&base, &half, DEFAULT_THRESHOLD);
        assert!(cmp.ratios.is_empty());
        assert!(cmp.failed());
    }

    #[test]
    fn suggested_threshold_tracks_spread() {
        // Tight spread: floor.
        assert_eq!(
            suggested_threshold(98.0, 102.0, 100.0),
            MIN_SUGGESTED_THRESHOLD
        );
        // 20% spread → 40% threshold.
        let t = suggested_threshold(90.0, 110.0, 100.0);
        assert!((t - 0.40).abs() < 1e-9, "{t}");
        // Wild spread: ceiling.
        assert_eq!(
            suggested_threshold(50.0, 500.0, 100.0),
            MAX_SUGGESTED_THRESHOLD
        );
        assert_eq!(suggested_threshold(0.0, 0.0, 0.0), MIN_SUGGESTED_THRESHOLD);
    }
}
