//! Queries whose paths traverse anonymous record values, plus predicate
//! coverage the unit tests skip.

use chc_extent::ExtentStore;
use chc_model::Value;
use chc_query::{compile, execute, CheckMode, Pred, Query};
use chc_sdl::compile as compile_sdl;
use chc_types::TypeContext;

#[test]
fn emit_through_an_anonymous_record() {
    let schema = compile_sdl(
        "class Person with home: [street: String; city: String];",
    )
    .unwrap();
    let person = schema.class_by_name("Person").unwrap();
    let home = schema.sym("home").unwrap();
    let street = schema.sym("street").unwrap();
    let city = schema.sym("city").unwrap();
    let mut store = ExtentStore::new(&schema);
    for i in 0..5 {
        let o = store.create(&schema, &[person]);
        store.set_attr(
            o,
            home,
            Value::record(vec![
                (street, Value::str(&format!("{i} Main"))),
                (city, Value::str("Springfield")),
            ]),
        );
    }
    let ctx = TypeContext::new(&schema);
    let q = Query::over(person).emit(vec![home, city]);
    let plan = compile(&ctx, &q, CheckMode::Eliminate).unwrap();
    assert!(plan.warnings.is_empty(), "{:?}", plan.warnings);
    let r = execute(&schema, &store, &plan);
    assert_eq!(r.stats.rows_emitted, 5);
    assert!(r.values.iter().all(|v| **v == Value::str("Springfield")));
    assert_eq!(r.stats.checks_executed, 0);
}

#[test]
fn path_in_class_predicate_filters() {
    let schema = compile_sdl(
        "
        class Person;
        class Physician is-a Person;
        class Psychologist is-a Person;
        class Patient is-a Person with treatedBy: Person; name: String;
        ",
    )
    .unwrap();
    let patient = schema.class_by_name("Patient").unwrap();
    let physician = schema.class_by_name("Physician").unwrap();
    let psychologist = schema.class_by_name("Psychologist").unwrap();
    let treated_by = schema.sym("treatedBy").unwrap();
    let name = schema.sym("name").unwrap();
    let mut store = ExtentStore::new(&schema);
    let doc = store.create(&schema, &[physician]);
    let shrink = store.create(&schema, &[psychologist]);
    for (i, carer) in [doc, shrink, doc].into_iter().enumerate() {
        let p = store.create(&schema, &[patient]);
        store.set_attr(p, treated_by, Value::Obj(carer));
        store.set_attr(p, name, Value::str(&format!("p{i}")));
    }
    let ctx = TypeContext::new(&schema);
    let q = Query::over(patient)
        .where_pred(Pred::PathInClass(vec![treated_by], physician))
        .emit(vec![name]);
    let plan = compile(&ctx, &q, CheckMode::Eliminate).unwrap();
    let r = execute(&schema, &store, &plan);
    assert_eq!(r.stats.rows_emitted, 2);
}

#[test]
fn missing_attribute_with_check_is_skipped_not_failed() {
    let schema = compile_sdl("class Person with age: 1..120;").unwrap();
    let person = schema.class_by_name("Person").unwrap();
    let age = schema.sym("age").unwrap();
    let mut store = ExtentStore::new(&schema);
    let with_age = store.create(&schema, &[person]);
    store.set_attr(with_age, age, Value::Int(30));
    store.create(&schema, &[person]); // no age set
    let ctx = TypeContext::new(&schema);
    let q = Query::over(person).emit(vec![age]);
    let always = compile(&ctx, &q, CheckMode::Always).unwrap();
    let r = execute(&schema, &store, &always);
    assert_eq!(r.stats.rows_emitted, 1);
    assert_eq!(r.stats.rows_skipped_by_check, 1);
    assert_eq!(r.stats.unchecked_failures, 0);
    let never = compile(&ctx, &q, CheckMode::Never).unwrap();
    let r = execute(&schema, &store, &never);
    assert_eq!(r.stats.unchecked_failures, 1);
}

#[test]
fn always_mode_handles_record_paths() {
    let schema = compile_sdl(
        "class Person with home: [city: String];",
    )
    .unwrap();
    let person = schema.class_by_name("Person").unwrap();
    let home = schema.sym("home").unwrap();
    let city = schema.sym("city").unwrap();
    let mut store = ExtentStore::new(&schema);
    let o = store.create(&schema, &[person]);
    store.set_attr(o, home, Value::record(vec![(city, Value::str("Bern"))]));
    let ctx = TypeContext::new(&schema);
    let q = Query::over(person).emit(vec![home, city]);
    let plan = compile(&ctx, &q, CheckMode::Always).unwrap();
    let r = execute(&schema, &store, &plan);
    assert_eq!(r.stats.rows_emitted, 1, "checked record access must not skip valid rows");
    assert_eq!(r.stats.checks_executed, 2);
}
