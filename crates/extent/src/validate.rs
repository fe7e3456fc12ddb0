//! Store-integrated instance validation.

use chc_core::{
    validate_object, validate_object_counted, ValidationCounts, ValidationOptions, Violation,
};
use chc_model::{Oid, Schema};
use chc_obs::{names, EventLevel};

use crate::data::LoadedData;
use crate::store::ExtentStore;

/// Validates one stored object against every constraint applicable to its
/// current memberships (§5.2 semantics chosen via `opts`).
pub fn validate_stored(
    schema: &Schema,
    store: &ExtentStore,
    opts: ValidationOptions,
    oid: Oid,
) -> Vec<Violation> {
    validate_object(schema, store, opts, oid, &store.classes_of(oid))
}

/// [`validate_stored`], adding the object's checks to `counts` for the
/// caller to report.
fn validate_stored_counted(
    schema: &Schema,
    store: &ExtentStore,
    opts: ValidationOptions,
    oid: Oid,
    counts: &mut ValidationCounts,
) -> Vec<Violation> {
    validate_object_counted(schema, store, opts, oid, &store.classes_of(oid), counts)
}

/// Validates the whole store; returns `(oid, violations)` for each invalid
/// object. The `validate.checks` and `validate.admitted` counters arrive
/// once, summed over the store.
pub fn validate_all(
    schema: &Schema,
    store: &ExtentStore,
    opts: ValidationOptions,
    root: chc_model::ClassId,
) -> Vec<(Oid, Vec<Violation>)> {
    let _span = chc_obs::span(names::SPAN_VALIDATE_ALL);
    let crumb = chc_obs::breadcrumb(names::EVENT_VALIDATE_OBJECT);
    let mut counts = ValidationCounts::default();
    let invalid = store
        .extent(root)
        .filter_map(|o| {
            crumb.set(o.raw());
            let v = validate_stored_counted(schema, store, opts, o, &mut counts);
            (!v.is_empty()).then_some((o, v))
        })
        .collect();
    counts.report();
    invalid
}

/// Validates every object of a loaded data file, in definition order,
/// handing each object's name and violations to `judge`; stops at the
/// first error `judge` returns. This is `chc validate`'s loop.
///
/// The recorders see one `validate.all` phase span, not one span per
/// object, and the `validate.checks` and `validate.admitted` counters
/// once, summed over the objects judged (also when `judge` stops the
/// loop). Per object, the audit ledger gets a `validate.object` record
/// joining the name to its surrogate (built only while a sink keeps
/// `Info` events), and the flight recorder's breadcrumb names the
/// surrogate being judged, so a crash report says which object it was.
pub fn validate_loaded<E>(
    schema: &Schema,
    data: &LoadedData,
    opts: ValidationOptions,
    mut judge: impl FnMut(&str, Vec<Violation>) -> Result<(), E>,
) -> Result<(), E> {
    let _span = chc_obs::span(names::SPAN_VALIDATE_ALL);
    let crumb = chc_obs::breadcrumb(names::EVENT_VALIDATE_OBJECT);
    let mut counts = ValidationCounts::default();
    let judged = data.names.iter().try_for_each(|(name, oid)| {
        crumb.set(oid.raw());
        chc_obs::event_with(EventLevel::Info, names::EVENT_VALIDATE_OBJECT, |ev| {
            ev.field("name", name).field("object", oid.raw())
        });
        judge(
            name,
            validate_stored_counted(schema, &data.store, opts, *oid, &mut counts),
        )
    });
    counts.report();
    judged
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_model::Value;
    use chc_sdl::compile;

    #[test]
    fn stored_alcoholic_validates_through_the_excuse() {
        let s = compile(
            "
            class Person;
            class Physician is-a Person;
            class Psychologist is-a Person;
            class Patient is-a Person with treatedBy: Physician;
            class Alcoholic is-a Patient with
                treatedBy: Psychologist excuses treatedBy on Patient;
            ",
        )
        .unwrap();
        let mut store = ExtentStore::new(&s);
        let psych = store.create(&s, &[s.class_by_name("Psychologist").unwrap()]);
        let phys = store.create(&s, &[s.class_by_name("Physician").unwrap()]);
        let alcoholic = store.create(&s, &[s.class_by_name("Alcoholic").unwrap()]);
        let plain = store.create(&s, &[s.class_by_name("Patient").unwrap()]);
        let treated_by = s.sym("treatedBy").unwrap();
        store.set_attr(alcoholic, treated_by, Value::Obj(psych));
        store.set_attr(plain, treated_by, Value::Obj(phys));
        let opts = ValidationOptions::default();
        assert!(validate_stored(&s, &store, opts, alcoholic).is_empty());
        assert!(validate_stored(&s, &store, opts, plain).is_empty());

        // A *plain* patient treated by a psychologist is invalid — the
        // excuse does not leak (the flaw of the Broadened semantics).
        store.set_attr(plain, treated_by, Value::Obj(psych));
        let violations = validate_stored(&s, &store, opts, plain);
        assert_eq!(violations.len(), 1);

        let patient = s.class_by_name("Patient").unwrap();
        let bad = validate_all(&s, &store, opts, patient);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].0, plain);
    }
}
