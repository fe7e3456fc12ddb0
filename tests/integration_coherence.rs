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
//! The checker's `JointlyUnsatisfiable` errors come from the same
//! procedure, so each one must sit on a site the sweep reports.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use excuses::core::{admits_common_value, check, incoherent_sites, DiagKind};
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
/// pure record type over a refined class type: records and entities, so
/// no value satisfies both.
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

#[test]
fn every_jointly_unsatisfiable_site_is_incoherent() {
    let mut reported = 0;
    for (name, schema) in corpus() {
        let swept = incoherent_sites(&schema);
        for d in check(&schema).errors() {
            if let DiagKind::JointlyUnsatisfiable { .. } = d.kind {
                reported += 1;
                assert!(
                    swept.contains(&(d.class, d.attr)),
                    "{name}: {}.{} is jointly unsatisfiable but not incoherent",
                    schema.class_name(d.class),
                    schema.resolve(d.attr)
                );
            }
        }
    }
    assert!(
        reported > 0,
        "the corpus holds no JointlyUnsatisfiable error"
    );
}
