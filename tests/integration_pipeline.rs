//! Full-pipeline integration: SDL text → checked schema → virtual classes
//! → populated extents → typed queries → partitioned storage, all on the
//! paper's hospital Information System.

use excuses::core::{check, MissingPolicy, Semantics, ValidationOptions};
use excuses::extent::validate_stored;
use excuses::query::{compile as compile_query, execute, CheckMode, Query};
use excuses::sdl::{compile, print_schema};
use excuses::storage::{PartitionedStore, VariantStore};
use excuses::types::TypeContext;
use excuses::workloads::{build_hospital, vignettes, HospitalParams};

#[test]
fn sdl_round_trip_preserves_checker_verdict() {
    for (name, src) in vignettes::all() {
        let schema = compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let printed = print_schema(&schema);
        let reparsed = compile(&printed).unwrap_or_else(|e| panic!("{name} reparse: {e}"));
        assert_eq!(
            check(&schema).is_ok(),
            check(&reparsed).is_ok(),
            "{name}: verdict changed across round trip"
        );
        assert_eq!(print_schema(&reparsed), printed, "{name}: print not a fixed point");
    }
}

#[test]
fn hospital_pipeline_end_to_end() {
    let db = build_hospital(&HospitalParams {
        patients: 1500,
        tubercular_fraction: 0.08,
        alcoholic_fraction: 0.07,
        ambulatory_fraction: 0.06,
        ..Default::default()
    });
    let s = &db.virtualized.schema;

    // 1. Schema is checker-clean even with two virtual classes.
    assert!(check(s).is_ok());

    // 2. Every stored patient validates under the final semantics.
    let opts = ValidationOptions { semantics: Semantics::Correct, missing: MissingPolicy::Absent };
    for &p in &db.patients {
        let v = validate_stored(s, &db.store, opts, p);
        assert!(v.is_empty(), "{:?}", v.iter().map(|x| x.render(s).to_string()).collect::<Vec<_>>());
    }

    // 3. But none of them validate under *strict* semantics if exceptional —
    //    the excuses are doing real work.
    //    (Tubercular patients carry their exception on the *hospital*
    //    object — a Swiss hospital has no accreditation and a state-less
    //    address — so for patients the strictly-invalid set is exactly
    //    the alcoholics and ambulatories.)
    let strict = ValidationOptions { semantics: Semantics::Strict, missing: MissingPolicy::Absent };
    let n_exceptional = db
        .patients
        .iter()
        .filter(|&&p| {
            db.store.is_member(p, db.ids.alcoholic) || db.store.is_member(p, db.ids.ambulatory)
        })
        .count();
    let strict_invalid = db
        .patients
        .iter()
        .filter(|&&p| !validate_stored(s, &db.store, strict, p).is_empty())
        .count();
    assert_eq!(strict_invalid, n_exceptional);
    // The Swiss hospitals themselves are the strictly-invalid objects on
    // the tubercular side: valid under Correct, invalid under Strict.
    let h1 = db
        .virtualized
        .virtuals
        .iter()
        .find(|i| i.path.len() == 1)
        .unwrap();
    assert!(db.store.count(h1.class) > 0);
    for h in db.store.extent(h1.class) {
        assert!(validate_stored(s, &db.store, opts, h).is_empty());
        assert!(!validate_stored(s, &db.store, strict, h).is_empty());
    }

    // 4. Typed query over the same store: guarded state access emits
    //    exactly the non-tubercular rows with zero checks.
    let ctx = TypeContext::with_virtuals(&db.virtualized);
    let q = Query::over(db.ids.patient)
        .where_not_in(db.ids.tubercular)
        .emit(vec![db.ids.treated_at, db.ids.location, db.ids.state]);
    let plan = compile_query(&ctx, &q, CheckMode::Eliminate).unwrap();
    assert_eq!(plan.checks_per_row(), 0);
    let r = execute(&db.virtualized.schema, &db.store, &plan);
    assert_eq!(r.stats.unchecked_failures, 0);
    assert_eq!(
        r.stats.rows_emitted,
        db.patients.len() - db.store.count(db.ids.tubercular)
    );

    // 5. Storage: partitioned layout returns the same attribute values as
    //    the extent store, and guided fetches never exceed scan fetches.
    let exceptional = [db.ids.tubercular, db.ids.alcoholic, db.ids.ambulatory];
    let part = PartitionedStore::build(s, &db.store, db.ids.patient, &exceptional).unwrap();
    let variant = VariantStore::build(s, &db.store, db.ids.patient);
    for &p in db.patients.iter().step_by(11) {
        for attr in [db.ids.name, db.ids.age, db.ids.treated_at] {
            let expect = db.store.get_attr(p, attr).cloned();
            assert_eq!(part.fetch_directory(p, attr).value, expect);
            assert_eq!(variant.fetch(p, attr).value, expect);
            let known_not: Vec<_> = exceptional
                .iter()
                .copied()
                .filter(|&c| !db.store.is_member(p, c))
                .collect();
            let guided = part.fetch_guided(p, attr, &[], &known_not);
            let scan = part.fetch_scan(p, attr);
            assert_eq!(guided.value, expect);
            assert!(guided.probes <= scan.probes);
        }
    }
}

#[test]
fn extent_subset_invariant_holds_everywhere() {
    let db = build_hospital(&HospitalParams { patients: 800, ..Default::default() });
    let s = &db.virtualized.schema;
    for class in s.class_ids() {
        for sup in s.strict_ancestors(class) {
            for o in db.store.extent(class) {
                assert!(
                    db.store.is_member(o, sup),
                    "extent of {} not within {}",
                    s.class_name(class),
                    s.class_name(sup)
                );
            }
        }
    }
}

#[test]
fn unguarded_failures_match_exceptional_population_exactly() {
    let db = build_hospital(&HospitalParams {
        patients: 1000,
        tubercular_fraction: 0.15,
        ..Default::default()
    });
    let ctx = TypeContext::with_virtuals(&db.virtualized);
    let q = Query::over(db.ids.patient).emit(vec![
        db.ids.treated_at,
        db.ids.location,
        db.ids.state,
    ]);
    let plan = compile_query(&ctx, &q, CheckMode::Never).unwrap();
    let r = execute(&db.virtualized.schema, &db.store, &plan);
    assert_eq!(r.stats.unchecked_failures, db.store.count(db.ids.tubercular));
}
