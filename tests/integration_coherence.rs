//! The coherence sweep behind `chc lint`'s L001 and L003 against the
//! decision procedure it stands in front of.
//!
//! `incoherent_sites` settles a site from its minimal declarer's §5.1
//! verdict when it has one minimal declarer, and otherwise asks
//! `common_value_witness_of`. Over generated hierarchies (with and
//! without seeded faults) and every committed `.sdl` file, it must report
//! exactly the sites where `admits_common_value` is false. The corpus must
//! reach both branches and hold incoherent sites, or the comparison proves
//! nothing.
//!
//! The checker reads the same overlap relation and the same §5.1 covers,
//! so the two agree both ways: each `IncompatibleParents` or
//! `JointlyUnsatisfiable` error sits on a site the sweep reports, and
//! each site the sweep reports carries a checker error at that class or
//! at one of its ancestors, for the same attribute.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use excuses::core::{admits_common_value, check, incoherent_sites, DiagKind};
use excuses::lint::{LintCode, LintConfig};
use excuses::model::{ClassId, Schema, Sym};
use excuses::obs::{self, names, StatsRecorder};
use excuses::workloads::{generate, seed_contradictions, HierarchyParams};

/// Generated shapes: `(classes, max_supers, tokens, redefine, contradict,
/// seed, faults)`. `max_supers ≥ 3` gives joins of three or more
/// lineages; the faults drop excuses, so declarations fail §5.1.
const SHAPES: &[(usize, usize, usize, f64, f64, u64, usize)] = &[
    (120, 1, 8, 0.6, 0.6, 31, 10),
    (150, 2, 8, 0.6, 0.5, 32, 20),
    (200, 3, 4, 0.6, 0.8, 33, 40),
    (150, 4, 3, 0.8, 1.0, 34, 60),
    (100, 5, 6, 0.5, 0.6, 35, 25),
];

/// Joins whose constraints overlap pair by pair but share no value (the
/// checker's `JointlyUnsatisfiable`), one restored by an excuse, and a
/// pure record type against a refined class type, redeclared and joined:
/// records and entities, so no value satisfies both.
const VIGNETTES: &str = "
    class P1 with p: {'a, 'b}; q: 1..10;
    class P2 with p: {'b, 'c}; q: 8..20;
    class P3 with p: {'a, 'c}; q: 12..30;
    class Join is-a P1, P2, P3;
    class Q3 with p: {'a, 'c} excuses p on P2;
    class Excused is-a P1, P2, Q3;
    class Deeper is-a Join with r: String;
    class Physician with x: String;
    class Patient with doctor: [x: String];
    class Special is-a Patient with doctor: Physician [x: String];
    class Referral is-a Patient;
    class Visit with doctor: Physician [x: String];
    class Referred is-a Referral, Visit;
";

fn corpus() -> Vec<(String, Schema)> {
    let mut out = vec![(
        "vignettes".to_string(),
        excuses::sdl::compile(VIGNETTES).unwrap(),
    )];
    for &(classes, max_supers, tokens, redefine, contradict, seed, faults) in SHAPES {
        let gen = generate(&HierarchyParams {
            classes,
            max_supers,
            tokens,
            redefine_rate: redefine,
            contradiction_rate: contradict,
            seed,
            ..Default::default()
        });
        let (faulty, _) = seed_contradictions(&gen, faults, seed);
        out.push((format!("randhier-{seed}"), gen.schema));
        out.push((format!("randhier-{seed}+{faults} faults"), faulty));
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for dir in [
        "tests/fixtures",
        "examples/data",
        "crates/lint/tests/fixtures",
        "crates/workloads/fixtures",
    ] {
        let mut files: Vec<_> = std::fs::read_dir(root.join(dir))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "sdl"))
            .collect();
        files.sort();
        for path in files {
            let src = std::fs::read_to_string(&path).unwrap();
            let schema = excuses::sdl::compile(&src).unwrap();
            out.push((
                path.strip_prefix(root).unwrap().display().to_string(),
                schema,
            ));
        }
    }
    out
}

/// Every site the decision procedure finds incoherent, and how many
/// sites there are.
fn exact_sweep(schema: &Schema) -> (BTreeSet<(ClassId, Sym)>, u64) {
    let mut sites = 0;
    let mut incoherent = BTreeSet::new();
    for class in schema.class_ids() {
        for attr in schema.applicable_attrs(class) {
            sites += 1;
            if !admits_common_value(schema, class, attr) {
                incoherent.insert((class, attr));
            }
        }
    }
    (incoherent, sites)
}

#[test]
fn the_sweep_equals_the_decision_procedure_at_every_site() {
    let (mut settled, mut decided, mut incoherent) = (0, 0, 0);
    for (name, schema) in corpus() {
        let stats = Arc::new(StatsRecorder::new());
        let swept = {
            let _scope = obs::scoped(stats.clone());
            incoherent_sites(&schema)
        };
        let (exact, sites) = exact_sweep(&schema);
        assert_eq!(swept, exact, "{name}");
        let calls = stats.counter_value(names::SAT_CALLS);
        assert!(
            calls <= sites,
            "{name}: {calls} decisions for {sites} sites"
        );
        decided += calls;
        settled += sites - calls;
        incoherent += exact.len();
    }
    assert!(settled > 0, "no site was settled by its declaration");
    assert!(decided > 0, "no site reached the decision procedure");
    assert!(incoherent > 0, "the corpus holds no incoherent site");
}

/// The checker's pair and k-way errors, `IncompatibleParents` and
/// `JointlyUnsatisfiable`, each sit on a site the sweep reports.
#[test]
fn every_jointly_unsatisfiable_site_is_incoherent() {
    let (mut pairs, mut k_way) = (0, 0);
    for (name, schema) in corpus() {
        let swept = incoherent_sites(&schema);
        for d in check(&schema).errors() {
            match d.kind {
                DiagKind::IncompatibleParents { .. } => pairs += 1,
                DiagKind::JointlyUnsatisfiable { .. } => k_way += 1,
                _ => continue,
            }
            assert!(
                swept.contains(&(d.class, d.attr)),
                "{name}: {}.{} has {:?} but is not incoherent",
                schema.class_name(d.class),
                schema.resolve(d.attr),
                d.kind
            );
        }
    }
    assert!(pairs > 0, "the corpus holds no IncompatibleParents error");
    assert!(k_way > 0, "the corpus holds no JointlyUnsatisfiable error");
}

/// The converse: every site `(C, p)` the sweep reports carries a checker
/// error at `(A, p)`, where `A` is `C` or one of its ancestors. The error
/// need not sit at `C` itself: a class that inherits an incoherent site
/// through one parent, or joins constraints one parent already holds,
/// leaves the report to that parent, and a failed declaration is
/// reported at its declarer.
#[test]
fn every_incoherent_site_carries_a_checker_error() {
    let mut incoherent = 0;
    for (name, schema) in corpus() {
        let report = check(&schema);
        let errors: BTreeSet<(ClassId, Sym)> = report.errors().map(|d| (d.class, d.attr)).collect();
        for (class, attr) in incoherent_sites(&schema) {
            incoherent += 1;
            assert!(
                schema
                    .ancestors_with_self(class)
                    .any(|a| errors.contains(&(a, attr))),
                "{name}: {}.{} is incoherent but no checker error sits at it or above it",
                schema.class_name(class),
                schema.resolve(attr)
            );
        }
    }
    assert!(incoherent > 0, "the corpus holds no incoherent site");
}

/// Two class ranges may always share an instance, so joins of unrelated
/// class ranges, refined class types over them, and `AnyEntity` against a
/// class are clean under the checker and silent under L001, while a pure
/// record type against a refined class type stays an error in both.
#[test]
fn class_typed_joins_are_clean_in_check_and_l001() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(root.join("tests/fixtures/class-joins.sdl")).unwrap();
    let schema = excuses::sdl::compile(&src).unwrap();
    let report = check(&schema);
    assert!(report.diagnostics.is_empty(), "{}", report.render(&schema));
    let lint = excuses::lint::run(&schema, &LintConfig::default());
    assert_eq!(lint.count(LintCode::IncoherentClass), 0);

    let schema = excuses::sdl::compile(VIGNETTES).unwrap();
    let report = check(&schema);
    let lint = excuses::lint::run(&schema, &LintConfig::default());
    for (class, kind) in [
        ("Special", "UnexcusedContradiction"),
        ("Referred", "IncompatibleParents"),
    ] {
        let class = schema.class_by_name(class).unwrap();
        let at: Vec<String> = report
            .errors()
            .filter(|d| d.class == class)
            .map(|d| format!("{:?}", d.kind))
            .collect();
        assert!(
            at.len() == 1 && at[0].starts_with(kind),
            "{}: {at:?}",
            schema.class_name(class)
        );
        let l001 =
            |f: &&excuses::lint::Finding| f.code == LintCode::IncoherentClass && f.class == class;
        assert_eq!(lint.findings.iter().filter(l001).count(), 1);
    }
}
