//! The keep-table end to end: under a recorder that keeps spans and
//! counters only, as the always-on flight recorder does, the checker and
//! the validator prepare and send no histogram, labeled metric or
//! distinct key, and send their counters once per run, whatever the
//! input size.
//!
//! This binary holds one test on purpose. The keep-table is process-wide,
//! so a test installing a recorder that keeps labeled metrics on another
//! thread of the same binary would turn the checker's attribution on here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use excuses::core::{check, ValidationOptions};
use excuses::extent::validate_all;
use excuses::obs::{self as obs, Kind, Recorder};
use excuses::workloads::{build_hospital, generate, HierarchyParams, HospitalParams};

/// Counts the calls of each observation method it receives. It keeps
/// spans and counters only.
#[derive(Default)]
struct CallCounts {
    counter: AtomicU64,
    span: AtomicU64,
    histogram: AtomicU64,
    labeled: AtomicU64,
    distinct: AtomicU64,
}

impl CallCounts {
    /// `(counter, span, histogram, labeled, distinct)` calls.
    fn get(&self) -> [u64; 5] {
        [
            &self.counter,
            &self.span,
            &self.histogram,
            &self.labeled,
            &self.distinct,
        ]
        .map(|n| n.load(Ordering::Relaxed))
    }
}

fn bump(n: &AtomicU64) {
    n.fetch_add(1, Ordering::Relaxed);
}

impl Recorder for CallCounts {
    fn keeps(&self, kind: Kind) -> bool {
        matches!(kind, Kind::Counter | Kind::Span)
    }
    fn counter(&self, _: &'static str, _: u64) {
        bump(&self.counter);
    }
    fn span_enter(&self, _: &'static str) {
        bump(&self.span);
    }
    fn histogram(&self, _: &'static str, _: u64) {
        bump(&self.histogram);
    }
    fn labeled_counter(&self, _: &'static str, _: u64, _: u64) {
        bump(&self.labeled);
    }
    fn labeled_histogram(&self, _: &'static str, _: u64, _: u64) {
        bump(&self.labeled);
    }
    fn distinct(&self, _: &'static str, _: u64) {
        bump(&self.distinct);
    }
}

/// The calls `run` makes under a fresh [`CallCounts`].
fn calls(run: impl FnOnce()) -> [u64; 5] {
    let counts = Arc::new(CallCounts::default());
    {
        let _scope = obs::scoped(counts.clone());
        run();
    }
    counts.get()
}

#[test]
fn a_spans_and_counters_recorder_gets_a_constant_number_of_calls() {
    let at = |classes| {
        let schema = generate(&HierarchyParams {
            classes,
            ..HierarchyParams::default()
        })
        .schema;
        calls(|| {
            check(&schema);
        })
    };
    let (small, large) = (at(100), at(400));
    let [counters, spans, histograms, labeled, distinct] = small;
    assert!(counters > 0 && spans > 0, "{small:?}");
    assert_eq!([histograms, labeled, distinct], [0; 3], "check: {small:?}");
    assert_eq!(small, large, "check at 100 and 400 classes");

    let at = |patients| {
        let db = build_hospital(&HospitalParams {
            patients,
            ..HospitalParams::default()
        });
        let schema = &db.virtualized.schema;
        let opts = ValidationOptions::default();
        calls(|| {
            validate_all(schema, &db.store, opts, db.ids.patient);
        })
    };
    let (small, large) = (at(100), at(400));
    let [counters, spans, histograms, labeled, distinct] = small;
    assert!(counters > 0 && spans > 0, "{small:?}");
    assert_eq!([histograms, labeled, distinct], [0; 3], "validate: {small:?}");
    assert_eq!(small, large, "validate_all over 100 and 400 patients");
}
