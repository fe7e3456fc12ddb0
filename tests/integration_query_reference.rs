//! Differential test of query execution against a reference: the
//! executor as it was before rows borrowed from the store, which cloned
//! every value it walked and every value a predicate read. The reference
//! lives only here.
//!
//! Inputs: generated hospital databases, and those stores after rounds of
//! `add_to_class`, `remove_from_class`, `set_attr` (often with values
//! outside the attribute's range, or references to the wrong class) and
//! `clear_attr`, each round closed by `refresh_virtual_extents`; plus a
//! store of record values, some with fields missing. Plans cover every
//! `CheckMode`, all five `Pred` kinds and the empty emit path. Each run
//! must emit the reference's values in its order and report its
//! `ExecStats` field for field; a row is owned only for the empty path.

use std::borrow::Cow;

use excuses::core::Virtualized;
use excuses::extent::{refresh_virtual_extents, ExtentStore};
use excuses::model::{ClassId, Oid, Range, Schema, Sym, Value};
use excuses::query::{compile, execute, CheckMode, Plan, Pred, Query};
use excuses::types::TypeContext;
use excuses::workloads::rng::SplitMix64;
use excuses::workloads::{build_hospital, HospitalDb, HospitalParams};

/// The executor as it was before it borrowed: one clone per step.
mod reference {
    use excuses::core::{constraint_holds, Semantics};
    use excuses::extent::ExtentStore;
    use excuses::model::{Oid, Schema, Sym, Value};
    use excuses::query::{ExecStats, Plan, Pred};

    pub struct ExecResult {
        pub values: Vec<Value>,
        pub stats: ExecStats,
    }

    pub fn execute(schema: &Schema, store: &ExtentStore, plan: &Plan) -> ExecResult {
        let mut stats = ExecStats::default();
        let mut values = Vec::new();
        'row: for oid in store.extent(plan.class) {
            stats.rows_scanned += 1;
            for pred in &plan.filter {
                if !eval_pred(store, oid, pred) {
                    continue 'row;
                }
            }
            let mut cur = Value::Obj(oid);
            for (i, &attr) in plan.emit.iter().enumerate() {
                let checked = plan.step_checks[i];
                let owner = cur.as_obj();
                let next = match &cur {
                    Value::Obj(o) => store.get_attr(*o, attr).cloned(),
                    Value::Record(_) => cur.field(attr).cloned(),
                    _ => None,
                };
                if checked {
                    stats.checks_executed += 1;
                    let value = next.clone().unwrap_or(Value::Absent);
                    let safe = match owner {
                        Some(o) => runtime_safety_check(schema, store, o, attr, &value),
                        None => next.is_some(),
                    };
                    if !safe || next.is_none() {
                        stats.rows_skipped_by_check += 1;
                        continue 'row;
                    }
                }
                match next {
                    Some(v) => cur = v,
                    None => {
                        stats.unchecked_failures += 1;
                        continue 'row;
                    }
                }
            }
            stats.rows_emitted += 1;
            values.push(cur);
        }
        ExecResult { values, stats }
    }

    fn runtime_safety_check(
        schema: &Schema,
        store: &ExtentStore,
        owner: Oid,
        attr: Sym,
        value: &Value,
    ) -> bool {
        if value.is_absent() {
            return false;
        }
        for &declarer in schema.declarers_of(attr) {
            if !store.is_member(owner, declarer) {
                continue;
            }
            let range = &schema
                .declared_attr(declarer, attr)
                .expect("declarer")
                .spec
                .range;
            if !constraint_holds(
                schema,
                store,
                Semantics::Correct,
                owner,
                declarer,
                attr,
                range,
                value,
            ) {
                return false;
            }
        }
        true
    }

    fn follow_path(store: &ExtentStore, oid: Oid, path: &[Sym]) -> Option<Value> {
        let (last, steps) = path.split_last()?;
        let mut cur = oid;
        for &s in steps {
            cur = store.follow(cur, s)?;
        }
        store.get_attr(cur, *last).cloned()
    }

    fn eval_pred(store: &ExtentStore, oid: Oid, pred: &Pred) -> bool {
        match pred {
            Pred::InClass(c) => store.is_member(oid, *c),
            Pred::NotInClass(c) => !store.is_member(oid, *c),
            Pred::PathInClass(path, c) => match follow_path(store, oid, path) {
                Some(Value::Obj(o)) => store.is_member(o, *c),
                _ => false,
            },
            Pred::TokEq(path, tok) => follow_path(store, oid, path) == Some(Value::Tok(*tok)),
            Pred::IntLe(path, n) => match follow_path(store, oid, path) {
                Some(Value::Int(v)) => v <= *n,
                _ => false,
            },
        }
    }
}

/// Totals over every run, so the test can insist it reached each branch.
#[derive(Default, Debug)]
struct Seen {
    plans: usize,
    emitted: usize,
    checks: usize,
    skipped: usize,
    failures: usize,
    owned: usize,
}

fn assert_agrees(schema: &Schema, store: &ExtentStore, plan: &Plan, case: &str, seen: &mut Seen) {
    let want = reference::execute(schema, store, plan);
    let got = execute(schema, store, plan);
    assert_eq!(got.stats, want.stats, "{case}: {plan:?}");
    let got_values: Vec<&Value> = got.values.iter().map(|v| &**v).collect();
    let want_values: Vec<&Value> = want.values.iter().collect();
    assert_eq!(got_values, want_values, "{case}: {plan:?}");
    for v in &got.values {
        let owned = matches!(v, Cow::Owned(_));
        assert_eq!(owned, plan.emit.is_empty(), "{case}: {plan:?}");
        seen.owned += usize::from(owned);
    }
    seen.plans += 1;
    seen.emitted += want.stats.rows_emitted;
    seen.checks += want.stats.checks_executed;
    seen.skipped += want.stats.rows_skipped_by_check;
    seen.failures += want.stats.unchecked_failures;
}

/// Every query over `classes` with one of `filters` and one of `paths`
/// that type-checks, in every check mode.
fn plans(
    ctx: &TypeContext,
    classes: &[ClassId],
    filters: &[Vec<Pred>],
    paths: &[Vec<Sym>],
) -> Vec<Plan> {
    let mut out = Vec::new();
    for &class in classes {
        for filter in filters {
            for emit in paths {
                let query = Query {
                    class,
                    filter: filter.clone(),
                    emit: emit.clone(),
                };
                for mode in [CheckMode::Always, CheckMode::Never, CheckMode::Eliminate] {
                    if let Ok(plan) = compile(ctx, &query, mode) {
                        out.push(plan);
                    }
                }
            }
        }
    }
    out
}

fn hospital_plans(db: &HospitalDb) -> Vec<Plan> {
    let s = &db.virtualized.schema;
    let ids = &db.ids;
    let sym = |name: &str| s.sym(name).unwrap();
    let class = |name: &str| s.class_by_name(name).unwrap();
    let filters = vec![
        vec![],
        vec![Pred::InClass(ids.alcoholic)],
        vec![Pred::NotInClass(ids.tubercular)],
        vec![Pred::PathInClass(vec![ids.treated_by], ids.psychologist)],
        vec![Pred::TokEq(
            vec![ids.treated_at, ids.location, ids.state],
            sym("NJ"),
        )],
        vec![Pred::IntLe(vec![ids.age], 40)],
        vec![
            Pred::NotInClass(ids.ambulatory),
            Pred::PathInClass(vec![ids.treated_at, ids.location], ids.address),
            Pred::IntLe(vec![ids.age], 70),
        ],
    ];
    let paths = vec![
        vec![],
        vec![ids.name],
        vec![ids.age],
        vec![ids.ward],
        vec![ids.treated_by],
        vec![ids.treated_by, ids.name],
        vec![
            ids.treated_by,
            sym("affiliatedWith"),
            ids.location,
            ids.city,
        ],
        vec![ids.treated_at, ids.accreditation],
        vec![ids.treated_at, ids.location, ids.city],
        vec![ids.treated_at, ids.location, ids.state],
    ];
    plans(
        &TypeContext::with_virtuals(&db.virtualized),
        &[ids.patient, class("Person"), ids.alcoholic, ids.tubercular],
        &filters,
        &paths,
    )
}

/// Values `set_attr` draws from: every enumeration token, in-range and
/// out-of-range integers, a string and an absent value.
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
    pool.extend([
        Value::Int(30),
        Value::Int(65),
        Value::Int(500),
        Value::str("s"),
        Value::Absent,
    ]);
    pool
}

/// One round of random store edits: memberships gained and lost,
/// attributes set and cleared; then virtual extents refreshed.
fn mutate(
    rng: &mut SplitMix64,
    v: &Virtualized,
    store: &mut ExtentStore,
    attrs: &[Sym],
    pool: &[Value],
) {
    let schema = &v.schema;
    let classes: Vec<ClassId> = schema
        .class_ids()
        .filter(|&c| !schema.class(c).is_virtual())
        .collect();
    let objects = store.num_objects();
    let pick = |rng: &mut SplitMix64, n: usize| rng.gen_range_i64(0, n as i64 - 1) as usize;
    for _ in 0..objects / 3 {
        let o = Oid::from_raw(pick(rng, objects) as u64);
        match pick(rng, 10) {
            0 => store.add_to_class(schema, o, classes[pick(rng, classes.len())]),
            1 => store.remove_from_class(schema, o, classes[pick(rng, classes.len())]),
            2..=7 => {
                let attr = attrs[pick(rng, attrs.len())];
                let value = match pick(rng, 3) {
                    0 => Value::Obj(Oid::from_raw(pick(rng, objects) as u64)),
                    _ => pool[pick(rng, pool.len())].clone(),
                };
                store.set_attr(o, attr, value);
            }
            _ => {
                store.clear_attr(o, attrs[pick(rng, attrs.len())]);
            }
        }
    }
    refresh_virtual_extents(store, v);
}

#[test]
fn generated_hospital_queries_run_as_the_reference_does() {
    let mut seen = Seen::default();
    for seed in [3, 17] {
        let db = build_hospital(&HospitalParams {
            patients: 80,
            hospitals: 5,
            physicians: 8,
            tubercular_fraction: 0.2,
            alcoholic_fraction: 0.2,
            ambulatory_fraction: 0.2,
            seed,
        });
        let v = &db.virtualized;
        let plans = hospital_plans(&db);
        assert!(plans.len() > 300, "{} plans compiled", plans.len());
        let ids = &db.ids;
        let attrs = [
            ids.treated_by,
            ids.treated_at,
            ids.location,
            ids.state,
            ids.city,
            ids.accreditation,
            ids.ward,
            ids.age,
            ids.name,
        ];
        let pool = value_pool(&v.schema);
        let mut store = db.store.clone();
        let mut rng = SplitMix64::new(seed ^ 0x9e7);
        for round in 0..4 {
            let case = format!("seed {seed} round {round}");
            for plan in &plans {
                assert_agrees(&v.schema, &store, plan, &case, &mut seen);
            }
            mutate(&mut rng, v, &mut store, &attrs, &pool);
        }
    }
    assert!(
        seen.emitted > 10_000
            && seen.checks > 10_000
            && seen.skipped > 1_000
            && seen.failures > 1_000
            && seen.owned > 1_000,
        "{seen:?}"
    );
}

#[test]
fn record_paths_run_as_the_reference_does() {
    let schema = excuses::sdl::compile(
        "class Person with age: 1..120; home: [street: String; city: String];",
    )
    .unwrap();
    let person = schema.class_by_name("Person").unwrap();
    let [age, home, street, city] =
        ["age", "home", "street", "city"].map(|n| schema.sym(n).unwrap());
    let mut store = ExtentStore::new(&schema);
    for i in 0..40 {
        let o = store.create(&schema, &[person]);
        store.set_attr(o, age, Value::Int(i * 3));
        let value = match i % 5 {
            0 => Value::record(vec![
                (street, Value::str("1 Main")),
                (city, Value::str("Bern")),
            ]),
            1 => Value::record(vec![(street, Value::str("2 Main"))]),
            2 => Value::str("not a record"),
            3 => Value::Absent,
            _ => continue,
        };
        store.set_attr(o, home, value);
    }
    let plans = plans(
        &TypeContext::new(&schema),
        &[person],
        &[vec![], vec![Pred::IntLe(vec![age], 60)]],
        &[vec![], vec![home], vec![home, city], vec![home, street]],
    );
    assert!(plans.len() >= 20, "{} plans compiled", plans.len());
    let mut seen = Seen::default();
    for plan in &plans {
        assert_agrees(&schema, &store, plan, "records", &mut seen);
    }
    assert!(seen.skipped > 0 && seen.failures > 0, "{seen:?}");
}
