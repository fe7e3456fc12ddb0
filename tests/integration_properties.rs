//! Randomized integration tests over generated schemas and stores,
//! driven by the workspace's seeded PRNG (the build is offline, so no
//! proptest; each test sweeps a fixed, deterministic set of seeds).

use excuses::core::{
    check, evolve, validate_object, MissingPolicy, Semantics, ValidationOptions,
};
use excuses::extent::ExtentStore;
use excuses::model::{ClassId, Range};
use excuses::sdl::{compile, print_schema};
use excuses::types::{subtype, CondTy, Prim, Ty};
use excuses::workloads::rng::SplitMix64;
use excuses::workloads::{
    detection_score, generate, populate, seed_contradictions, HierarchyParams, PopulateParams,
};

/// `cases` deterministic seeds drawn from `[lo, hi)`.
fn seeds(stream: u64, cases: usize, lo: u64, hi: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(stream);
    (0..cases)
        .map(|_| rng.gen_range_i64(lo as i64, hi as i64 - 1) as u64)
        .collect()
}

/// print ∘ compile is a fixed point on arbitrary generated schemas.
#[test]
fn printer_round_trips_random_schemas() {
    for seed in seeds(0x9121, 24, 0, 500) {
        let gen = generate(&HierarchyParams { seed, classes: 40, ..Default::default() });
        let text = print_schema(&gen.schema);
        let reparsed = compile(&text).expect("printed schemas reparse");
        assert_eq!(print_schema(&reparsed), text);
        assert!(check(&reparsed).is_ok());
    }
}

/// The same on one large hierarchy, where every class, token and excused
/// name is used many times over.
#[test]
fn printer_round_trips_a_400_class_hierarchy() {
    let gen = generate(&HierarchyParams { classes: 400, ..Default::default() });
    let text = print_schema(&gen.schema);
    let reparsed = compile(&text).expect("printed schema reparses");
    assert_eq!(print_schema(&reparsed), text);
}

/// The Correct semantics accepts everything Strict accepts (excuses
/// only widen, never narrow, the valid population).
#[test]
fn correct_accepts_superset_of_strict() {
    for seed in seeds(0x5752, 24, 0, 500) {
        let gen = generate(&HierarchyParams { seed, classes: 30, ..Default::default() });
        let (store, objects) = populate(&gen.schema, &PopulateParams { per_class: 4, seed });
        for &o in &objects {
            let classes = store.classes_of(o);
            let strict = ValidationOptions {
                semantics: Semantics::Strict,
                missing: MissingPolicy::Vacuous,
            };
            let correct = ValidationOptions {
                semantics: Semantics::Correct,
                missing: MissingPolicy::Vacuous,
            };
            let strict_ok = validate_object(&gen.schema, &store, strict, o, &classes).is_empty();
            let correct_ok = validate_object(&gen.schema, &store, correct, o, &classes).is_empty();
            if strict_ok {
                assert!(correct_ok, "strict-valid object rejected by Correct");
            }
        }
    }
}

/// Seeded unexcused contradictions are always detected (recall 1.0)
/// with no false positives outside knock-on sites (precision 1.0), and
/// repairing every fault with `add_excuse` restores a clean schema.
#[test]
fn fault_seeding_detection_and_repair() {
    for seed in seeds(0xFA17, 24, 0, 200) {
        let gen = generate(&HierarchyParams { seed, classes: 60, ..Default::default() });
        let n = gen.excused_sites.len().min(5);
        let (mutated, faults) = seed_contradictions(&gen, n, seed ^ 0xF00D);
        let (precision, recall) = detection_score(&mutated, &faults);
        assert_eq!(recall, 1.0);
        assert_eq!(precision, 1.0);

        // Repair: re-excuse each fault site against every contradicted
        // ancestor; the checker must come back clean.
        let mut schema = mutated;
        for fault in &faults {
            let ancestors: Vec<ClassId> = schema.strict_ancestors(fault.class).collect();
            for b in ancestors {
                let contradicted = schema.declared_attr(b, fault.attr).is_some_and(|decl| {
                    let s_range =
                        &schema.declared_attr(fault.class, fault.attr).unwrap().spec.range;
                    !decl.spec.range.subsumes(&schema, s_range)
                });
                if contradicted {
                    schema = evolve::add_excuse(&schema, fault.class, fault.attr, fault.attr, b)
                        .expect("repair applies")
                        .schema;
                }
            }
        }
        assert!(check(&schema).is_ok(), "{}", check(&schema).render(&schema));
    }
}

/// Extent subset invariant holds under arbitrary create/add/remove/
/// destroy sequences.
#[test]
fn extent_invariant_under_random_ops() {
    let mut op_rng = SplitMix64::new(0xE47E);
    for seed in seeds(0xE47F, 24, 0, 300) {
        let gen = generate(&HierarchyParams { seed, classes: 15, ..Default::default() });
        let schema = &gen.schema;
        let mut store = ExtentStore::new(schema);
        let classes: Vec<ClassId> = schema.class_ids().collect();
        let mut oids = Vec::new();
        let n_ops = op_rng.gen_range(1, 59);
        for _ in 0..n_ops {
            let (op, a, b) = (
                op_rng.gen_range(0, 3) as u8,
                op_rng.gen_range(0, 29),
                op_rng.gen_range(0, 29),
            );
            match op {
                0 => {
                    let c = classes[a % classes.len()];
                    oids.push(store.create(schema, &[c]));
                }
                1 if !oids.is_empty() => {
                    let o = oids[a % oids.len()];
                    let c = classes[b % classes.len()];
                    if store.exists(o) {
                        store.add_to_class(schema, o, c);
                    }
                }
                2 if !oids.is_empty() => {
                    let o = oids[a % oids.len()];
                    let c = classes[b % classes.len()];
                    if store.exists(o) {
                        store.remove_from_class(schema, o, c);
                    }
                }
                3 if !oids.is_empty() => {
                    let o = oids[a % oids.len()];
                    store.destroy(o);
                }
                _ => {}
            }
            // Invariant: every extent is a subset of each ancestor extent.
            for &c in &classes {
                for sup in schema.strict_ancestors(c) {
                    for o in store.extent(c) {
                        assert!(store.is_member(o, sup));
                    }
                }
            }
        }
    }
}

#[test]
fn subtype_is_reflexive_and_transitive_on_samples() {
    let schema = compile(
        "
        class Person;
        class HP is-a Person;
        class Physician is-a HP;
        class Cardiologist is-a Physician;
        class Psychologist is-a HP;
        class Patient is-a Person with treatedBy: Physician;
        class Alcoholic is-a Patient with
            treatedBy: Psychologist excuses treatedBy on Patient;
        ",
    )
    .unwrap();
    let ids: Vec<ClassId> = schema.class_ids().collect();
    let treated_by = schema.sym("treatedBy").unwrap();
    let physician = schema.class_by_name("Physician").unwrap();
    let psychologist = schema.class_by_name("Psychologist").unwrap();
    let cardiologist = schema.class_by_name("Cardiologist").unwrap();
    let alcoholic = schema.class_by_name("Alcoholic").unwrap();
    let patient = schema.class_by_name("Patient").unwrap();

    let mut tys: Vec<Ty> = ids.iter().map(|&c| Ty::Class(c)).collect();
    tys.push(Ty::AnyEntity);
    tys.push(Ty::Prim(Prim::Int(1, 120)));
    tys.push(Ty::Prim(Prim::Int(16, 65)));
    tys.push(Ty::Prim(Prim::Str));
    tys.push(Ty::Record(vec![(treated_by, CondTy::plain(Ty::Class(physician)))]));
    tys.push(Ty::Record(vec![(treated_by, CondTy::plain(Ty::Class(cardiologist)))]));
    tys.push(Ty::Record(vec![(
        treated_by,
        CondTy::plain(Ty::Class(physician)).with_arm(alcoholic, Ty::Class(psychologist)),
    )]));
    tys.push(Ty::Record(vec![(
        treated_by,
        CondTy::plain(Ty::Class(physician)).with_arm(patient, Ty::Class(psychologist)),
    )]));
    tys.push(Ty::Record(vec![]));

    for a in &tys {
        assert!(subtype(&schema, a, a), "reflexivity failed for {a:?}");
    }
    for a in &tys {
        for b in &tys {
            for c in &tys {
                if subtype(&schema, a, b) && subtype(&schema, b, c) {
                    assert!(
                        subtype(&schema, a, c),
                        "transitivity failed: {a:?} <: {b:?} <: {c:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn range_subsumption_is_a_preorder() {
    let schema = compile(
        "
        class A; class B is-a A; class C is-a B;
        ",
    )
    .unwrap();
    let a = schema.class_by_name("A").unwrap();
    let b = schema.class_by_name("B").unwrap();
    let c = schema.class_by_name("C").unwrap();
    let mut b2 = excuses::model::SchemaBuilder::new();
    let t1 = b2.intern("x");
    let t2 = b2.intern("y");
    let ranges = vec![
        Range::int(1, 10).unwrap(),
        Range::int(2, 5).unwrap(),
        Range::int(1, 100).unwrap(),
        Range::Str,
        Range::None,
        Range::AnyEntity,
        Range::Class(a),
        Range::Class(b),
        Range::Class(c),
        Range::enumeration([t1]).unwrap(),
        Range::enumeration([t1, t2]).unwrap(),
    ];
    for r in &ranges {
        assert!(r.subsumes(&schema, r), "reflexivity failed for {r:?}");
    }
    for x in &ranges {
        for y in &ranges {
            for z in &ranges {
                if x.subsumes(&schema, y) && y.subsumes(&schema, z) {
                    assert!(x.subsumes(&schema, z), "transitivity: {x:?} {y:?} {z:?}");
                }
            }
        }
    }
}

/// Checker soundness w.r.t. satisfiability: on a checker-clean schema,
/// every class admits a value for every applicable attribute — the
/// joint-satisfiability check really does guarantee instances can
/// exist. (The checker tests pairwise overlap; this probes whether
/// higher-order conflicts slip through on realistic workloads.)
#[test]
fn accepted_classes_are_satisfiable() {
    for seed in seeds(0x5A71, 30, 1000, 1200) {
        let gen = generate(&HierarchyParams { seed, classes: 40, ..Default::default() });
        let schema = &gen.schema;
        let ctx = excuses::types::TypeContext::new(schema);
        for class in schema.class_ids() {
            let mut facts = excuses::types::EntityFacts::of_class(schema, class);
            for other in schema.class_ids() {
                if !facts.known_in(other) {
                    facts.assume_not_in(schema, other);
                }
            }
            for attr in schema.applicable_attrs(class) {
                if let Some(ty) = ctx.attr_type(&facts, attr) {
                    assert!(
                        !ty.is_never(),
                        "seed {}: {}.{} accepted but unsatisfiable",
                        seed,
                        schema.class_name(class),
                        schema.resolve(attr)
                    );
                }
            }
        }
    }
}

/// The §5.2 ladder is a lattice: Strict is the strictest rule, and the
/// final (Correct) rule implies both of the permissive failures —
/// acceptance under Correct always entails acceptance under Broadened
/// and under MemberOfExcuser (they drop one conjunct each).
#[test]
fn semantics_ladder_implications() {
    for seed in seeds(0x1ADD, 20, 0, 150) {
        let gen = generate(&HierarchyParams { seed, classes: 25, ..Default::default() });
        let schema = &gen.schema;
        let (mut store, objects) = populate(schema, &PopulateParams { per_class: 3, seed });
        // Perturb some values so not everything is valid.
        let mut rng = SplitMix64::new(seed ^ 0x5EED);
        for &o in objects.iter().step_by(3) {
            if let Some(&attr) = rng.choose(&gen.attr_syms) {
                if let Some(&tok) = rng.choose(&gen.token_syms) {
                    store.set_attr(o, attr, excuses::model::Value::Tok(tok));
                }
            }
        }
        let judge = |sem, o: excuses::model::Oid| {
            let opts = ValidationOptions { semantics: sem, missing: MissingPolicy::Vacuous };
            validate_object(schema, &store, opts, o, &store.classes_of(o)).is_empty()
        };
        for &o in &objects {
            let strict = judge(Semantics::Strict, o);
            let correct = judge(Semantics::Correct, o);
            let broadened = judge(Semantics::Broadened, o);
            let member = judge(Semantics::MemberOfExcuser, o);
            if strict {
                assert!(correct && broadened && member, "Strict must imply all others");
            }
            if correct {
                assert!(broadened, "Correct must imply Broadened");
                assert!(member, "Correct must imply MemberOfExcuser");
            }
        }
    }
}
