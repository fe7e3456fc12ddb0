//! Store-integrated instance validation.

use std::collections::HashMap;

use chc_core::{Plan, ValidationCounts, ValidationOptions, Violation};
use chc_model::{FxBuildHasher, Oid, Schema};
use chc_obs::{names, EventLevel};

use crate::data::LoadedData;
use crate::store::ExtentStore;

/// Validates one stored object against every constraint applicable to its
/// current memberships (§5.2 semantics chosen via `opts`), through one
/// plan built from the store's membership words.
pub fn validate_stored(
    schema: &Schema,
    store: &ExtentStore,
    opts: ValidationOptions,
    oid: Oid,
) -> Vec<Violation> {
    let mut counts = ValidationCounts::default();
    let plan = Plan::new(schema, opts, store.membership_words(oid));
    let out = plan.run(store, oid, &mut counts);
    counts.report();
    out
}

/// The plans of one validation loop over a store: one per distinct
/// membership-word slice, built the first time an object shows it.
struct Plans<'s> {
    schema: &'s Schema,
    opts: ValidationOptions,
    by_words: HashMap<&'s [u64], Plan<'s>, FxBuildHasher>,
    counts: ValidationCounts,
}

impl<'s> Plans<'s> {
    fn new(schema: &'s Schema, opts: ValidationOptions) -> Self {
        Plans {
            schema,
            opts,
            by_words: HashMap::default(),
            counts: ValidationCounts::default(),
        }
    }

    /// Validates `oid` by its signature's plan.
    fn validate(&mut self, store: &'s ExtentStore, oid: Oid) -> Vec<Violation> {
        let (schema, opts) = (self.schema, self.opts);
        let words = store.membership_words(oid);
        let plan = self
            .by_words
            .entry(words)
            .or_insert_with(|| Plan::new(schema, opts, words));
        plan.run(store, oid, &mut self.counts)
    }

    /// Sends the loop's `validate.checks`, `validate.admitted` and
    /// `validate.plans` counters, one call each.
    fn report(&self) {
        self.counts.report();
        if !self.by_words.is_empty() {
            chc_obs::counter(names::VALIDATE_PLANS, self.by_words.len() as u64);
        }
    }
}

/// Validates the whole store; returns `(oid, violations)` for each invalid
/// object. The `validate.checks`, `validate.admitted` and
/// `validate.plans` counters arrive once, summed over the store.
pub fn validate_all(
    schema: &Schema,
    store: &ExtentStore,
    opts: ValidationOptions,
    root: chc_model::ClassId,
) -> Vec<(Oid, Vec<Violation>)> {
    let _span = chc_obs::span(names::SPAN_VALIDATE_ALL);
    let crumb = chc_obs::breadcrumb(names::EVENT_VALIDATE_OBJECT);
    let mut plans = Plans::new(schema, opts);
    let invalid = store
        .extent(root)
        .filter_map(|o| {
            crumb.set(o.raw());
            let v = plans.validate(store, o);
            (!v.is_empty()).then_some((o, v))
        })
        .collect();
    plans.report();
    invalid
}

/// Validates every object of a loaded data file, in definition order,
/// handing each object's name and violations to `judge`; stops at the
/// first error `judge` returns. This is `chc validate`'s loop.
///
/// The recorders see one `validate.all` phase span, not one span per
/// object, and the `validate.checks`, `validate.admitted` and
/// `validate.plans` counters once, summed over the objects judged (also
/// when `judge` stops the loop). Per object, the audit ledger gets a
/// `validate.object` record joining the name to its surrogate (built
/// only while a sink keeps `Info` events), and the flight recorder's
/// breadcrumb names the surrogate being judged, so a crash report says
/// which object it was.
pub fn validate_loaded<E>(
    schema: &Schema,
    data: &LoadedData,
    opts: ValidationOptions,
    mut judge: impl FnMut(&str, Vec<Violation>) -> Result<(), E>,
) -> Result<(), E> {
    let _span = chc_obs::span(names::SPAN_VALIDATE_ALL);
    let crumb = chc_obs::breadcrumb(names::EVENT_VALIDATE_OBJECT);
    let mut plans = Plans::new(schema, opts);
    let judged = data.names.iter().try_for_each(|(name, oid)| {
        crumb.set(oid.raw());
        chc_obs::event_with(EventLevel::Info, names::EVENT_VALIDATE_OBJECT, |ev| {
            ev.field("name", name).field("object", oid.raw())
        });
        judge(name, plans.validate(&data.store, *oid))
    });
    plans.report();
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
