//! Differential test of store validation against a reference: the
//! per-object `validate_object_counted` that closed each object's
//! memberships and searched each constraint's excusers on every check.
//! The reference lives only here.
//!
//! Inputs: generated hierarchies with excuses, populated and then given
//! extra classes and random, often out-of-range, token values; the
//! generated hospital database and the example data files after
//! `refresh_virtual_extents`, whose virtual classes carry excuses; and
//! those stores after rounds of `add_to_class`, `remove_from_class`,
//! `destroy`, `set_attr` and `clear_attr`. Each runs under every
//! `Semantics` with both `MissingPolicy` values, through `validate_all`,
//! `validate_loaded`, `validate_stored` and `validate_object` (given the
//! object's most specific classes, not their closure). Each must return
//! the reference's violations in its order, report its `validate.checks`
//! and `validate.admitted` sums, and write its `validate.check` ledger
//! records. A last test checks that a validation loop builds one plan
//! per distinct membership signature (`validate.plans`).

use std::sync::Arc;

use excuses::core::{
    virtualize, MissingPolicy, Semantics, ValidationCounts, ValidationOptions, Violation,
    Virtualized,
};
use excuses::extent::{
    load_data, refresh_virtual_extents, validate_all, validate_loaded, validate_stored,
    ExtentStore, LoadedData,
};
use excuses::model::{ClassId, Oid, Range, Schema, Sym, Value};
use excuses::obs::{self, names, AuditRecorder, Event, EventLevel, Recorder, StatsRecorder};
use excuses::workloads::rng::SplitMix64;
use excuses::workloads::{
    build_hospital, generate, populate, HierarchyParams, HospitalParams, PopulateParams,
};

/// The validator as it was before plans: one object at a time.
mod reference {
    use excuses::core::{
        constraint_verdict, CheckVerdict, MissingPolicy, ValidationCounts, ValidationOptions,
        Violation,
    };
    use excuses::model::{ClassId, InstanceView, Oid, Schema, Value};
    use excuses::obs::{names, EventLevel};

    pub fn validate_object_counted(
        schema: &Schema,
        view: &dyn InstanceView,
        opts: ValidationOptions,
        x: Oid,
        memberships: &[ClassId],
        counts: &mut ValidationCounts,
    ) -> Vec<Violation> {
        let mut closed: Vec<ClassId> = Vec::new();
        for &m in memberships {
            for a in schema.ancestors_with_self(m) {
                if !closed.contains(&a) {
                    closed.push(a);
                }
            }
        }
        closed.sort();

        let mut out = Vec::new();
        for &class in &closed {
            for decl in &schema.class(class).attrs {
                let value = match (view.attr_value(x, decl.name), opts.missing) {
                    (None, MissingPolicy::Vacuous) => continue,
                    (None, MissingPolicy::Absent) => Value::ABSENT,
                    (Some(v), _) => v,
                };
                let verdict = constraint_verdict(
                    schema,
                    view,
                    opts.semantics,
                    x,
                    class,
                    decl.name,
                    &decl.spec.range,
                    value,
                );
                counts.checks += 1;
                counts.admitted += u64::from(matches!(verdict, CheckVerdict::Excused { .. }));
                excuses::obs::event_with(EventLevel::Audit, names::EVENT_VALIDATE_CHECK, |ev| {
                    let ev = ev
                        .field("object", x.raw())
                        .field("class", schema.class_name(class))
                        .field("attr", schema.resolve(decl.name))
                        .field("value", value.render(schema));
                    match verdict {
                        CheckVerdict::Pass => ev.field("verdict", "pass"),
                        CheckVerdict::Excused { excuser, attr } => ev
                            .field("verdict", "excused")
                            .field("excuser", schema.class_name(excuser))
                            .field("excuse_attr", schema.resolve(attr)),
                        CheckVerdict::Violation => ev.field("verdict", "violation"),
                    }
                });
                if verdict == CheckVerdict::Violation {
                    out.push(Violation {
                        class,
                        attr: decl.name,
                        value: value.clone(),
                    });
                }
            }
        }
        out
    }
}

/// What one validation run returned and reported.
#[derive(Debug, PartialEq)]
struct Observed {
    violations: Vec<(Oid, Vec<Violation>)>,
    checks: u64,
    admitted: u64,
    ledger: Vec<Event>,
}

/// Runs `run` with an audit ledger and a stats recorder scoped, and
/// collects its `validate.check` records and validation counters.
fn observe(run: impl FnOnce() -> Vec<(Oid, Vec<Violation>)>) -> Observed {
    let audit = Arc::new(AuditRecorder::with_capacity_and_level(
        1 << 20,
        EventLevel::Audit,
    ));
    let stats = Arc::new(StatsRecorder::new());
    let fan = Arc::new(obs::FanoutRecorder::new(vec![
        audit.clone() as Arc<dyn Recorder>,
        stats.clone(),
    ]));
    let violations = {
        let _g = obs::scoped(fan);
        run()
    };
    Observed {
        violations,
        checks: stats.counter_value(names::VALIDATE_CHECKS),
        admitted: stats.counter_value(names::VALIDATE_ADMITTED),
        ledger: audit
            .events()
            .into_iter()
            .filter(|e| e.name == names::EVENT_VALIDATE_CHECK)
            .collect(),
    }
}

/// The reference over `objects`, keeping every object's result when
/// `all`, else only the invalid ones.
fn reference_run(
    schema: &Schema,
    store: &ExtentStore,
    opts: ValidationOptions,
    objects: &[Oid],
    all: bool,
) -> Observed {
    observe(|| {
        let mut counts = ValidationCounts::default();
        let out = objects
            .iter()
            .map(|&o| {
                let classes = store.classes_of(o);
                let v = reference::validate_object_counted(
                    schema,
                    store,
                    opts,
                    o,
                    &classes,
                    &mut counts,
                );
                (o, v)
            })
            .filter(|(_, v)| all || !v.is_empty())
            .collect();
        counts.report();
        out
    })
}

/// Every pairing of a §5.2 rule with a missing-value policy.
fn every_option() -> Vec<ValidationOptions> {
    let mut out = Vec::new();
    for semantics in Semantics::ALL {
        for missing in [MissingPolicy::Vacuous, MissingPolicy::Absent] {
            out.push(ValidationOptions { semantics, missing });
        }
    }
    out
}

/// The classes of `o` no other class of `o` lies below: their closure
/// is all of `o`'s classes.
fn most_specific(schema: &Schema, store: &ExtentStore, o: Oid) -> Vec<ClassId> {
    let classes = store.classes_of(o);
    classes
        .iter()
        .copied()
        .filter(|&c| !classes.iter().any(|&d| schema.is_strict_subclass(d, c)))
        .collect()
}

fn live(store: &ExtentStore, objects: &[Oid]) -> Vec<Oid> {
    objects
        .iter()
        .copied()
        .filter(|&o| store.exists(o))
        .collect()
}

/// Compares `validate_all` from every root class, `validate_stored` and
/// `validate_object` on every live object, with the reference; returns
/// the reference's violations and admitted checks, summed over the
/// options.
fn assert_store_agrees(
    schema: &Schema,
    store: &ExtentStore,
    objects: &[Oid],
    case: &str,
) -> (usize, u64) {
    let mut seen = (0, 0);
    let objects = live(store, objects);
    let roots: Vec<ClassId> = schema
        .class_ids()
        .filter(|&c| schema.supers(c).is_empty())
        .collect();
    for opts in every_option() {
        let case = format!("{case}, {opts:?}");
        for &root in &roots {
            let extent: Vec<Oid> = store.extent(root).collect();
            let want = reference_run(schema, store, opts, &extent, false);
            let got = observe(|| validate_all(schema, store, opts, root));
            assert_eq!(
                got,
                want,
                "{case}: validate_all from {}",
                schema.class_name(root)
            );
        }
        let want = reference_run(schema, store, opts, &objects, true);
        let got = observe(|| {
            objects
                .iter()
                .map(|&o| (o, validate_stored(schema, store, opts, o)))
                .collect()
        });
        assert_eq!(got, want, "{case}: validate_stored");
        seen.0 += want.violations.iter().map(|(_, v)| v.len()).sum::<usize>();
        seen.1 += want.admitted;
        let got = observe(|| {
            objects
                .iter()
                .map(|&o| {
                    let classes = most_specific(schema, store, o);
                    let v = excuses::core::validate_object(schema, store, opts, o, &classes);
                    (o, v)
                })
                .collect()
        });
        assert_eq!(got, want, "{case}: validate_object");
    }
    seen
}

/// Compares `validate_loaded` with the reference over the data file's
/// objects, in definition order.
fn assert_loaded_agrees(schema: &Schema, data: &LoadedData, case: &str) {
    let objects: Vec<Oid> = data.names.iter().map(|(_, o)| *o).collect();
    for opts in every_option() {
        let want = reference_run(schema, &data.store, opts, &objects, true);
        let got = observe(|| {
            let mut out = Vec::new();
            validate_loaded(schema, data, opts, |name, v| {
                out.push((data.oid(name).expect("a loaded name"), v));
                Ok::<_, ()>(())
            })
            .unwrap();
            out
        });
        assert_eq!(got, want, "{case}, {opts:?}: validate_loaded");
    }
}

/// Every token a top-level enumeration range of `schema` names, an
/// integer and a string: values that some constraints admit and others
/// do not.
fn value_pool(schema: &Schema) -> Vec<Value> {
    let mut tokens = std::collections::BTreeSet::new();
    for c in schema.class_ids() {
        for decl in &schema.class(c).attrs {
            if let Range::Enum(set) = &decl.spec.range {
                tokens.extend(set.iter().copied());
            }
        }
    }
    let mut pool: Vec<Value> = tokens.into_iter().map(Value::Tok).collect();
    pool.push(Value::Int(7));
    pool.push(Value::Str("s".into()));
    pool
}

/// One round of random store edits over `objects`: memberships gained
/// and lost, objects destroyed, attributes set and cleared.
fn mutate(
    rng: &mut SplitMix64,
    schema: &Schema,
    store: &mut ExtentStore,
    objects: &[Oid],
    attrs: &[Sym],
    pool: &[Value],
    virtuals: Option<&Virtualized>,
) {
    let classes: Vec<ClassId> = schema
        .class_ids()
        .filter(|&c| !schema.class(c).is_virtual())
        .collect();
    let pick = |rng: &mut SplitMix64, n: usize| rng.gen_range_i64(0, n as i64 - 1) as usize;
    for _ in 0..objects.len() / 2 + 1 {
        let live = live(store, objects);
        if live.is_empty() {
            return;
        }
        let o = live[pick(rng, live.len())];
        match pick(rng, 16) {
            0..=2 => store.add_to_class(schema, o, classes[pick(rng, classes.len())]),
            3..=4 => store.remove_from_class(schema, o, classes[pick(rng, classes.len())]),
            5 => store.destroy(o),
            6..=12 => {
                let attr = attrs[pick(rng, attrs.len())];
                let value = match pick(rng, 4) {
                    0 => Value::Obj(live[pick(rng, live.len())]),
                    _ => pool[pick(rng, pool.len())].clone(),
                };
                store.set_attr(o, attr, value);
            }
            _ => {
                store.clear_attr(o, attrs[pick(rng, attrs.len())]);
            }
        }
    }
    if let Some(v) = virtuals {
        refresh_virtual_extents(store, v);
    }
}

#[test]
fn generated_hierarchies_validate_as_the_reference_does() {
    let (mut excused, mut seen) = (0, (0, 0));
    for seed in 0..12u64 {
        let gen = generate(&HierarchyParams {
            seed,
            classes: 24,
            ..Default::default()
        });
        let schema = &gen.schema;
        excused += gen.excused_sites.len();
        let (mut store, objects) = populate(schema, &PopulateParams { per_class: 2, seed });
        let pool = value_pool(schema);
        let mut rng = SplitMix64::new(seed ^ 0x5eed);
        for round in 0..4 {
            let case = format!("seed {seed} round {round}");
            let (violations, admitted) = assert_store_agrees(schema, &store, &objects, &case);
            (seen.0, seen.1) = (seen.0 + violations, seen.1 + admitted);
            mutate(
                &mut rng,
                schema,
                &mut store,
                &objects,
                &gen.attr_syms,
                &pool,
                None,
            );
        }
    }
    assert!(excused > 50, "{excused} excused sites");
    assert!(
        seen.0 > 1000 && seen.1 > 100,
        "{seen:?} violations and admissions"
    );
}

#[test]
fn the_hospital_database_validates_as_the_reference_does() {
    let db = build_hospital(&HospitalParams {
        patients: 60,
        hospitals: 4,
        physicians: 6,
        tubercular_fraction: 0.2,
        alcoholic_fraction: 0.2,
        ambulatory_fraction: 0.2,
        seed: 11,
    });
    let v = &db.virtualized;
    let schema = &v.schema;
    assert!(v.virtuals.iter().any(|i| db.store.count(i.class) > 0));
    let objects: Vec<Oid> = (0..db.store.num_objects() as u64)
        .map(Oid::from_raw)
        .collect();
    let ids = &db.ids;
    let attrs = [
        ids.treated_by,
        ids.treated_at,
        ids.location,
        ids.state,
        ids.accreditation,
        ids.ward,
        ids.age,
    ];
    let pool = value_pool(schema);
    let mut store = db.store.clone();
    let (mut rng, mut seen) = (SplitMix64::new(0x405), (0, 0));
    for round in 0..4 {
        let case = format!("hospital round {round}");
        let (violations, admitted) = assert_store_agrees(schema, &store, &objects, &case);
        (seen.0, seen.1) = (seen.0 + violations, seen.1 + admitted);
        mutate(
            &mut rng,
            schema,
            &mut store,
            &objects,
            &attrs,
            &pool,
            Some(v),
        );
    }
    assert!(
        seen.0 > 100 && seen.1 > 100,
        "{seen:?} violations and admissions"
    );
}

/// `chc validate`'s preparation: virtualize, load, refresh.
fn load_example(sdl: &str, chd: &str) -> (Virtualized, LoadedData) {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |p: &str| std::fs::read_to_string(root.join(p)).unwrap();
    let schema = excuses::sdl::compile(&read(sdl)).unwrap();
    let v = virtualize(&schema).unwrap();
    let mut data = load_data(&v.schema, &read(chd)).unwrap();
    refresh_virtual_extents(&mut data.store, &v);
    (v, data)
}

#[test]
fn data_files_validate_as_the_reference_does() {
    let mut seen = (0, 0);
    for (sdl, chd) in [
        ("examples/data/hospital.sdl", "examples/data/hospital.chd"),
        ("examples/data/quaker.sdl", "examples/data/quaker.chd"),
        (
            "tests/fixtures/load-edges.sdl",
            "tests/fixtures/load-edges.chd",
        ),
    ] {
        let (v, mut data) = load_example(sdl, chd);
        let schema = &v.schema;
        let objects: Vec<Oid> = data.names.iter().map(|(_, o)| *o).collect();
        let attrs: Vec<Sym> = schema
            .class_ids()
            .flat_map(|c| schema.class(c).attrs.iter().map(|d| d.name))
            .collect();
        let pool = value_pool(schema);
        let mut rng = SplitMix64::new(chd.len() as u64);
        // Destroys shrink these small stores fast: eight rounds pass the
        // admission floor below.
        for round in 0..8 {
            let case = format!("{chd} round {round}");
            assert_loaded_agrees(schema, &data, &case);
            let (violations, admitted) = assert_store_agrees(schema, &data.store, &objects, &case);
            (seen.0, seen.1) = (seen.0 + violations, seen.1 + admitted);
            mutate(
                &mut rng,
                schema,
                &mut data.store,
                &objects,
                &attrs,
                &pool,
                Some(&v),
            );
        }
    }
    assert!(
        seen.0 > 100 && seen.1 > 100,
        "{seen:?} violations and admissions"
    );
}

/// The distinct class sets among `objects`.
fn signatures(store: &ExtentStore, objects: impl Iterator<Item = Oid>) -> usize {
    let sets: std::collections::BTreeSet<Vec<ClassId>> =
        objects.map(|o| store.classes_of(o)).collect();
    sets.len()
}

/// Runs `run` under a stats recorder; returns its `validate.plans`.
fn plans_counted(run: impl FnOnce()) -> u64 {
    let stats = Arc::new(StatsRecorder::new());
    {
        let _g = obs::scoped(stats.clone());
        run();
    }
    stats.counter_value(names::VALIDATE_PLANS)
}

#[test]
fn one_plan_is_built_per_membership_signature() {
    let opts = ValidationOptions::default();
    for (sdl, chd, want) in [
        ("examples/data/hospital.sdl", "examples/data/hospital.chd", Some(9)),
        ("examples/data/quaker.sdl", "examples/data/quaker.chd", None),
        ("tests/fixtures/load-edges.sdl", "tests/fixtures/load-edges.chd", None),
    ] {
        let (v, data) = load_example(sdl, chd);
        let distinct = signatures(&data.store, data.names.iter().map(|(_, o)| *o));
        let plans = plans_counted(|| {
            validate_loaded(&v.schema, &data, opts, |_, _| Ok::<_, ()>(())).unwrap();
        });
        assert_eq!(plans, distinct as u64, "{chd}");
        if let Some(want) = want {
            assert_eq!(plans, want, "{chd}");
        }
    }
    let db = build_hospital(&HospitalParams {
        patients: 200,
        ..Default::default()
    });
    let schema = &db.virtualized.schema;
    let patient = db.ids.patient;
    let distinct = signatures(&db.store, db.store.extent(patient));
    let plans = plans_counted(|| {
        validate_all(schema, &db.store, opts, patient);
    });
    assert!(distinct > 3, "{distinct} signatures");
    assert_eq!(plans, distinct as u64);
}
