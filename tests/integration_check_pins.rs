//! Pins the checker's reports, byte for byte, on schemas large enough to
//! exercise every deduplication branch of the joint-satisfiability check:
//! the evolve400 fixture pair, and generated hierarchies with seeded
//! faults, whose reports carry `IncompatibleParents` findings and sites
//! already holding an error. Each report is pinned by the FNV-1a digest
//! of its rendering plus its error and warning counts (the renderings run
//! to hundreds of kilobytes). A change to the checker that alters any
//! diagnostic, or their order, changes a digest.
//!
//! The same schemas also check the impact cone of each edit: a class
//! outside it has the same diagnostics before and after the edit.
//!
//! Last, the checker's counter totals on `evolve400-old.sdl` are pinned,
//! along with the recorder traffic they cost: the checker reports its
//! counters once per class, not once per subtype query.

use std::collections::BTreeMap;
use std::sync::Arc;

use excuses::core::{check, check_incremental, CheckReport, DiagKind};
use excuses::model::Schema;
use excuses::obs::{self, names, FlightRecorder, ProfileRecorder, StatsRecorder};
use excuses::workloads::{generate, seed_contradictions, HierarchyParams};

const EVOLVE_OLD: &str = include_str!("../crates/workloads/fixtures/evolve400-old.sdl");
const EVOLVE_NEW: &str = include_str!("../crates/workloads/fixtures/evolve400-new.sdl");

/// `(case, FNV-1a of report.render, errors, warnings)`.
const PINS: &[(&str, u64, usize, usize)] = &[
    ("evolve400/old", 0x7bcd47d99a790eac, 0, 5241),
    ("evolve400/new", 0x7bcd47d99a790eac, 0, 5241),
    ("dedup/old", 0xc8a9b8379a407cf7, 4, 0),
    ("dedup/new", 0xc8a9b8379a407cf7, 4, 0),
    ("faulty200-11/old", 0xe9350562a9af932b, 0, 8737),
    ("faulty200-11/new", 0x6364f68115c0689d, 174, 8505),
    ("faulty250-12/old", 0xb2d8da6bd08b053a, 0, 9620),
    ("faulty250-12/new", 0xa222f7ac4a5a7863, 587, 8874),
    ("faulty150-13/old", 0xbd91d7fb4518c964, 0, 3600),
    ("faulty150-13/new", 0x53572c70a5f9cee4, 761, 3010),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Generated hierarchies with faults seeded by dropping excuses; the
/// contradiction rates are high enough that joins inherit disjoint
/// constraints.
fn faulty(classes: usize, seed: u64, contradiction_rate: f64, faults: usize) -> (Schema, Schema) {
    let gen = generate(&HierarchyParams {
        classes,
        max_supers: 3,
        redefine_rate: 0.6,
        contradiction_rate,
        seed,
        ..Default::default()
    });
    let (broken, _) = seed_contradictions(&gen, faults, seed);
    (gen.schema, broken)
}

/// One site per deduplication branch. `J`'s constraints overlap pairwise
/// but share no value; the k-way test is skipped because the declarer
/// `D` already failed its declaration check. `QR` and `T` inherit
/// disjoint constraints (`IncompatibleParents`), which makes the k-way
/// test redundant there. `X` contradicts `P` directly, so its pair is
/// not reported twice. The edited version touches only `J`, so the
/// edit's cone is `J` alone and `D`'s error lies outside it.
const DEDUP: &str = "
    class P with p: {'a, 'b, 'c};
    class D is-a P with p: {'a, 'b, 'x};
    class E is-a P with p: {'b, 'c};
    class F is-a P with p: {'a, 'c};
    class J is-a D, E, F;
    class Q with q: {'Dove};
    class R with q: {'Hawk};
    class QR is-a Q, R;
    class S is-a P with p: {'y} excuses p on P;
    class T is-a S, E;
    class X is-a P with p: {'z};
";

fn cases() -> Vec<(String, Schema, Schema)> {
    let old = excuses::sdl::compile(EVOLVE_OLD).unwrap();
    let new = excuses::sdl::compile(EVOLVE_NEW).unwrap();
    let dedup = excuses::sdl::compile(DEDUP).unwrap();
    let dedup_edited = excuses::sdl::compile(&DEDUP.replace(
        "class J is-a D, E, F;",
        "class J is-a D, E, F with r: String;",
    ))
    .unwrap();
    let mut out = vec![
        ("evolve400".to_string(), old, new),
        ("dedup".to_string(), dedup, dedup_edited),
    ];
    for (classes, seed, rate, faults) in
        [(200, 11, 0.5, 30), (250, 12, 0.8, 80), (150, 13, 1.0, 150)]
    {
        let (clean, broken) = faulty(classes, seed, rate, faults);
        out.push((format!("faulty{classes}-{seed}"), clean, broken));
    }
    out
}

fn pin(name: &str, schema: &Schema, report: &CheckReport) -> (String, u64, usize, usize) {
    (
        name.to_string(),
        fnv1a(report.render(schema).to_string().as_bytes()),
        report.errors().count(),
        report.warnings().count(),
    )
}

#[test]
fn reports_match_the_pinned_digests() {
    let mut got = Vec::new();
    for (name, old, new) in cases() {
        got.push(pin(&format!("{name}/old"), &old, &check(&old)));
        got.push(pin(&format!("{name}/new"), &new, &check(&new)));
    }
    let table: String = got
        .iter()
        .map(|(n, d, e, w)| format!("    (\"{n}\", {d:#018x}, {e}, {w}),\n"))
        .collect();
    let pinned: Vec<_> = PINS
        .iter()
        .map(|&(n, d, e, w)| (n.to_string(), d, e, w))
        .collect();
    assert_eq!(got, pinned, "report digests moved; current table:\n{table}");
}

#[test]
fn faulty_reports_exercise_every_dedup_branch() {
    let mut incompatible = 0;
    let mut declaration_errors = 0;
    for (_, _, broken) in cases().into_iter().skip(1) {
        for d in check(&broken).errors() {
            match d.kind {
                DiagKind::IncompatibleParents { .. } => incompatible += 1,
                DiagKind::UnexcusedContradiction { .. } | DiagKind::ExcuseRangeEscape { .. } => {
                    declaration_errors += 1
                }
                _ => {}
            }
        }
    }
    assert!(incompatible > 0, "no IncompatibleParents findings");
    assert!(declaration_errors > 0, "no failed declaration checks");
}

/// Each class's diagnostics in `check(schema)`, as messages naming
/// classes, by class name.
fn messages_by_class(schema: &Schema) -> BTreeMap<String, Vec<String>> {
    let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for d in &check(schema).diagnostics {
        let class = schema.class_name(d.class).to_string();
        out.entry(class).or_default().push(d.message(schema).to_string());
    }
    out
}

/// `check_incremental` reports the full check, and every class outside
/// its impact cone keeps the diagnostics it had before the edit.
#[test]
fn incremental_reports_equal_full_reports() {
    for (name, old, new) in cases() {
        for (from, to) in [(&old, &new), (&new, &old)] {
            let inc = check_incremental(from, &check(from), to);
            assert_eq!(inc.report.diagnostics, check(to).diagnostics, "{name}");
            let (before, after) = (messages_by_class(from), messages_by_class(to));
            for c in to.class_ids().filter(|c| !inc.dirty.classes.contains(c)) {
                let class = to.class_name(c);
                assert_eq!(after.get(class), before.get(class), "{name}: `{class}`");
            }
        }
    }
}

/// The checker's counter totals on `evolve400-old.sdl`.
const EVOLVE_OLD_TOTALS: &[(&str, u64)] = &[
    (names::CHECK_CLASSES, 400),
    (names::CHECK_CONTRADICTIONS, 11_375),
    (names::CHECK_EXCUSES_RESOLVED, 11_375),
    (names::CHECK_JOINT_SAT_CALLS, 2_313),
    (names::SUBTYPE_QUERIES, 34_404),
    (names::SUBTYPE_QUERIES_DISTINCT, 7_350),
    (names::SAT_CALLS, 113),
];

#[test]
fn counter_totals_and_recorder_traffic_are_pinned() {
    let schema = excuses::sdl::compile(EVOLVE_OLD).unwrap();

    let stats = Arc::new(StatsRecorder::new());
    {
        let _scope = obs::scoped(stats.clone());
        check(&schema);
    }
    for &(name, total) in EVOLVE_OLD_TOTALS {
        assert_eq!(stats.counter_value(name), total, "{name}");
    }

    // The per-class labeled series sum to the same totals.
    let profile = Arc::new(ProfileRecorder::new());
    {
        let _scope = obs::scoped(profile.clone());
        check(&schema);
    }
    for &(name, total) in EVOLVE_OLD_TOTALS {
        assert_eq!(profile.counter_value(name), total, "{name}");
    }
    for name in [
        names::CHECK_CONTRADICTIONS,
        names::SUBTYPE_QUERIES,
        names::SAT_CALLS,
    ] {
        let series = profile
            .labeled(name)
            .unwrap_or_else(|| panic!("no labeled {name}"));
        let labeled: u64 = series.entries.iter().map(|&(_, v)| v).sum::<u64>() + series.other;
        assert_eq!(labeled, profile.counter_value(name), "labeled {name}");
    }

    // The always-on flight recorder sees a few transitions per class,
    // not a few per subtype query.
    let flight = Arc::new(FlightRecorder::new());
    let traffic = {
        let _scope = obs::scoped(flight.clone());
        let before = flight.seq();
        check(&schema);
        flight.seq() - before
    };
    let classes = schema.num_classes() as u64;
    assert!(
        traffic <= 16 * classes,
        "{traffic} flight transitions for {classes} classes"
    );
}
