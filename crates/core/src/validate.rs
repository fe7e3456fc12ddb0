//! Run-time instance validation under the §5.2 semantics.
//!
//! Given an object's class memberships and attribute values, check every
//! applicable constraint: "if an object is an instance of several classes,
//! then for each class C and property p specified on C, the object must
//! either obey the constraints stated for p on C or it must be an instance
//! of some other class which excuses this constraint" (§5.1).
//!
//! Which constraints apply, their excusers and whether the object belongs
//! to each depend only on the object's classes, so they are resolved once
//! per set of classes into a [`Plan`]; per object, only its values are
//! read and checked. A store loop keeps one plan per membership
//! signature it meets (`chc_extent::validate_loaded`).

use chc_model::{AttrDecl, BitSet, ClassId, ExcuserEntry, InstanceView, Oid, Schema, Sym, Value};
use chc_obs::{names, EventLevel};

use crate::semantics::{decide, CheckVerdict, Semantics};

/// How to treat attributes with no stored value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissingPolicy {
    /// A missing attribute satisfies every constraint (open-world; useful
    /// while an object is being populated).
    Vacuous,
    /// A missing attribute is [`Value::Absent`]: it satisfies only `None`
    /// ranges and excuse branches admitting absence (closed-world; what
    /// the experiments use).
    Absent,
}

/// Validation configuration.
#[derive(Debug, Clone, Copy)]
pub struct ValidationOptions {
    /// Which §5.2 rule to evaluate under.
    pub semantics: Semantics,
    /// Treatment of unset attributes.
    pub missing: MissingPolicy,
}

impl Default for ValidationOptions {
    fn default() -> Self {
        ValidationOptions {
            semantics: Semantics::Correct,
            missing: MissingPolicy::Absent,
        }
    }
}

/// One violated constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The class whose constraint is violated.
    pub class: ClassId,
    /// The attribute.
    pub attr: Sym,
    /// The offending value ([`Value::Absent`] if unset).
    pub value: Value,
}

impl Violation {
    /// The violation with names resolved against `schema`.
    pub fn render<'a>(&'a self, schema: &'a Schema) -> impl std::fmt::Display + 'a {
        chc_obs::display_with(move |f| {
            write!(
                f,
                "object violates `{}.{}` with value {:?}",
                schema.class_name(self.class),
                schema.resolve(self.attr),
                self.value
            )
        })
    }
}

/// Executed and admitted run-time checks, summed over a run of
/// validations and reported once ([`ValidationCounts::report`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidationCounts {
    /// Checks executed: the `validate.checks` counter.
    pub checks: u64,
    /// Checks admitted by an excuse: the `validate.admitted` counter.
    pub admitted: u64,
}

impl ValidationCounts {
    /// Sends the sums to the recorder, one call per non-zero counter.
    pub fn report(&self) {
        if self.checks > 0 {
            chc_obs::counter(names::VALIDATE_CHECKS, self.checks);
        }
        if self.admitted > 0 {
            chc_obs::counter(names::VALIDATE_ADMITTED, self.admitted);
        }
    }
}

/// Validates object `x` against every constraint of every class in
/// `memberships` *and their ancestors*. Returns all violations.
///
/// `memberships` need not be closed under is-a: the plan is built for
/// their closure, a bitset of each class's ancestors. That closure
/// is taken to be all of `x`'s classes, so it decides which excusers `x`
/// belongs to; `view` is asked only for values and for the classes of
/// the objects they refer to.
pub fn validate_object(
    schema: &Schema,
    view: &dyn InstanceView,
    opts: ValidationOptions,
    x: Oid,
    memberships: &[ClassId],
) -> Vec<Violation> {
    let mut closed = BitSet::new(schema.num_classes());
    for a in memberships
        .iter()
        .flat_map(|&m| schema.ancestors_with_self(m))
    {
        closed.insert(a.index());
    }
    let mut counts = ValidationCounts::default();
    let out = Plan::new(schema, opts, closed.words()).run(&view, x, &mut counts);
    counts.report();
    out
}

/// The §5.2 checks for every object with one set of classes (its
/// *membership signature*), with what depends only on those classes
/// resolved once: which constraints apply, in which order, and their
/// excusers. Whether an object belongs to an excuser is one bit of the
/// signature. [`Plan::run`] checks one object's values against it.
///
/// The checks come class by class in ascending id order, and within a
/// class by its declarations (sorted by attribute symbol): the order of
/// the violations, the audit records and the counts.
#[derive(Debug)]
pub struct Plan<'s> {
    schema: &'s Schema,
    opts: ValidationOptions,
    /// The signature: class `c` is bit `c % 64` of word `c / 64`.
    words: &'s [u64],
    checks: Vec<Check<'s>>,
}

/// One constraint `(class, decl)` of a plan, with its excusers.
#[derive(Debug)]
struct Check<'s> {
    class: ClassId,
    decl: &'s AttrDecl,
    excusers: &'s [ExcuserEntry],
}

/// The classes whose bits are set in `words`, ascending.
fn classes_in(words: &[u64]) -> impl Iterator<Item = ClassId> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            let b = (bits != 0).then(|| bits.trailing_zeros())?;
            bits &= bits - 1;
            Some(ClassId::from_raw((w * 64) as u32 + b))
        })
    })
}

impl<'s> Plan<'s> {
    /// The plan for objects whose classes are the bits set in `words`
    /// (class `c` is bit `c % 64` of word `c / 64`), a set closed under
    /// is-a, as an extent store keeps it. Its one table is sized before
    /// it is filled.
    pub fn new(schema: &'s Schema, opts: ValidationOptions, words: &'s [u64]) -> Plan<'s> {
        let mut checks = Vec::with_capacity(
            classes_in(words)
                .map(|class| schema.class(class).attrs.len())
                .sum(),
        );
        for class in classes_in(words) {
            checks.extend(schema.class(class).attrs.iter().map(|decl| Check {
                class,
                decl,
                excusers: schema.excusers_of(class, decl.name),
            }));
        }
        Plan {
            schema,
            opts,
            words,
            checks,
        }
    }

    /// Whether the plan's objects belong to `class`.
    fn member(&self, class: ClassId) -> bool {
        let c = class.index();
        self.words
            .get(c / 64)
            .is_some_and(|word| word & (1 << (c % 64)) != 0)
    }

    /// Checks object `x`, whose classes are the plan's, reading its
    /// values by reference through `view` (generic, so a store's reads
    /// are direct calls); returns its violations in plan order. Each
    /// executed check sends one `validate.check` audit record and adds
    /// to `counts`, which the caller reports.
    pub fn run<V: InstanceView>(
        &self,
        view: &V,
        x: Oid,
        counts: &mut ValidationCounts,
    ) -> Vec<Violation> {
        let (schema, refs): (_, &dyn InstanceView) = (self.schema, view);
        let mut out = Vec::new();
        for check in &self.checks {
            let (class, decl) = (check.class, check.decl);
            let value = match (view.attr_value(x, decl.name), self.opts.missing) {
                (None, MissingPolicy::Vacuous) => continue,
                (None, MissingPolicy::Absent) => Value::ABSENT,
                (Some(v), _) => v,
            };
            let verdict = decide(
                self.opts.semantics,
                decl.spec.range.contains(schema, refs, value),
                check.excusers,
                |e| self.member(e.excuser),
                |e| schema.excuser_spec(e).range.contains(schema, refs, value),
            );
            // One executed check = one unit of `validate.checks` = one
            // ledger record; the E11 acceptance check asserts these
            // totals agree. The record's fields are rendered only while
            // an audit sink reads them.
            counts.checks += 1;
            counts.admitted += u64::from(matches!(verdict, CheckVerdict::Excused { .. }));
            chc_obs::event_with(EventLevel::Audit, names::EVENT_VALIDATE_CHECK, |ev| {
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
        out
    }
}

/// Convenience: whether `x` is fully valid.
pub fn object_is_valid(
    schema: &Schema,
    view: &dyn InstanceView,
    opts: ValidationOptions,
    x: Oid,
    memberships: &[ClassId],
) -> bool {
    validate_object(schema, view, opts, x, memberships).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_model::Oid;
    use chc_sdl::compile;
    use std::collections::HashMap;

    struct MapView {
        member: HashMap<(Oid, ClassId), bool>,
        values: HashMap<(Oid, Sym), Value>,
    }

    impl InstanceView for MapView {
        fn is_instance(&self, oid: Oid, class: ClassId) -> bool {
            *self.member.get(&(oid, class)).unwrap_or(&false)
        }
        fn attr_value(&self, oid: Oid, attr: Sym) -> Option<&Value> {
            self.values.get(&(oid, attr))
        }
    }

    fn nixon_schema() -> Schema {
        compile(
            "
            class Person with opinion: {'Hawk, 'Dove, 'Ostrich};
            class Quaker is-a Person with
                opinion: {'Dove} excuses opinion on Republican;
            class Republican is-a Person with
                opinion: {'Hawk} excuses opinion on Quaker;
            ",
        )
        .unwrap()
    }

    fn dick(schema: &Schema, opinion_tok: &str) -> (MapView, Oid, Vec<ClassId>) {
        let person = schema.class_by_name("Person").unwrap();
        let quaker = schema.class_by_name("Quaker").unwrap();
        let republican = schema.class_by_name("Republican").unwrap();
        let x = Oid::from_raw(0);
        let mut member = HashMap::new();
        for c in [person, quaker, republican] {
            member.insert((x, c), true);
        }
        let mut values = HashMap::new();
        values.insert(
            (x, schema.sym("opinion").unwrap()),
            Value::Tok(schema.sym(opinion_tok).unwrap()),
        );
        (MapView { member, values }, x, vec![quaker, republican])
    }

    #[test]
    fn dick_may_be_hawk_or_dove_not_ostrich() {
        let schema = nixon_schema();
        for (tok, ok) in [("Hawk", true), ("Dove", true), ("Ostrich", false)] {
            let (view, x, classes) = dick(&schema, tok);
            let valid = object_is_valid(&schema, &view, ValidationOptions::default(), x, &classes);
            assert_eq!(valid, ok, "opinion {tok}");
        }
    }

    #[test]
    fn pure_quaker_must_be_dove() {
        let schema = nixon_schema();
        let person = schema.class_by_name("Person").unwrap();
        let quaker = schema.class_by_name("Quaker").unwrap();
        let x = Oid::from_raw(1);
        let mut member = HashMap::new();
        member.insert((x, person), true);
        member.insert((x, quaker), true);
        let mut values = HashMap::new();
        values.insert(
            (x, schema.sym("opinion").unwrap()),
            Value::Tok(schema.sym("Hawk").unwrap()),
        );
        let view = MapView { member, values };
        let violations =
            validate_object(&schema, &view, ValidationOptions::default(), x, &[quaker]);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].class, quaker);
    }

    #[test]
    fn memberships_are_closed_over_ancestors() {
        // Passing only [Quaker] must still check Person's constraint.
        let schema = nixon_schema();
        let quaker = schema.class_by_name("Quaker").unwrap();
        let person = schema.class_by_name("Person").unwrap();
        let x = Oid::from_raw(2);
        let mut member = HashMap::new();
        member.insert((x, quaker), true);
        member.insert((x, person), true);
        let mut values = HashMap::new();
        values.insert((x, schema.sym("opinion").unwrap()), Value::Int(7));
        let view = MapView { member, values };
        let violations =
            validate_object(&schema, &view, ValidationOptions::default(), x, &[quaker]);
        // Int(7) violates both Person's and Quaker's enum constraints.
        assert_eq!(violations.len(), 2);
    }

    #[test]
    fn missing_policy_vacuous_vs_absent() {
        let schema = compile("class Person with name: String;").unwrap();
        let person = schema.class_by_name("Person").unwrap();
        let x = Oid::from_raw(0);
        let view = MapView {
            member: HashMap::new(),
            values: HashMap::new(),
        };
        let vacuous = ValidationOptions {
            semantics: Semantics::Correct,
            missing: MissingPolicy::Vacuous,
        };
        assert!(object_is_valid(&schema, &view, vacuous, x, &[person]));
        let absent = ValidationOptions::default();
        assert!(!object_is_valid(&schema, &view, absent, x, &[person]));
    }

    #[test]
    fn audit_ledger_records_one_event_per_executed_check() {
        use chc_obs::AuditRecorder;
        use std::sync::Arc;

        let schema = nixon_schema();
        let (view, x, classes) = dick(&schema, "Hawk");
        let audit = Arc::new(AuditRecorder::new());
        let stats = Arc::new(chc_obs::StatsRecorder::new());
        let fan = Arc::new(chc_obs::FanoutRecorder::new(vec![
            audit.clone() as Arc<dyn chc_obs::Recorder>,
            stats.clone() as Arc<dyn chc_obs::Recorder>,
        ]));
        {
            let _g = chc_obs::scoped(fan);
            let violations =
                validate_object(&schema, &view, ValidationOptions::default(), x, &classes);
            assert!(violations.is_empty());
        }
        // One ledger record per executed check, equal to the counter.
        let events = audit.events();
        assert_eq!(
            events.len() as u64,
            stats.counter_value(chc_obs::names::VALIDATE_CHECKS)
        );
        assert_eq!(
            events.len(),
            3,
            "Person, Quaker, Republican each check opinion"
        );
        // dick's 'Hawk violates Quaker's {'Dove}; the record must name
        // the admitting excuse (Republican's opinion declaration).
        let excused: Vec<_> = events
            .iter()
            .filter(|e| e.get("verdict").and_then(|v| v.as_str()) == Some("excused"))
            .collect();
        assert_eq!(excused.len(), 1);
        assert_eq!(
            excused[0].get("class").and_then(|v| v.as_str()),
            Some("Quaker")
        );
        assert_eq!(
            excused[0].get("excuser").and_then(|v| v.as_str()),
            Some("Republican")
        );
        assert_eq!(
            excused[0].get("excuse_attr").and_then(|v| v.as_str()),
            Some("opinion")
        );
        assert_eq!(
            excused[0].get("value").and_then(|v| v.as_str()),
            Some("'Hawk")
        );
        assert_eq!(
            stats.counter_value(chc_obs::names::VALIDATE_ADMITTED),
            1,
            "one admission through an excuse"
        );
    }

    #[test]
    fn vacuous_skips_are_not_executed_checks() {
        use std::sync::Arc;
        let schema = compile("class Person with name: String;").unwrap();
        let person = schema.class_by_name("Person").unwrap();
        let x = Oid::from_raw(0);
        let view = MapView {
            member: HashMap::new(),
            values: HashMap::new(),
        };
        let stats = Arc::new(chc_obs::StatsRecorder::new());
        {
            let _g = chc_obs::scoped(stats.clone());
            let vacuous = ValidationOptions {
                semantics: Semantics::Correct,
                missing: MissingPolicy::Vacuous,
            };
            validate_object(&schema, &view, vacuous, x, &[person]);
        }
        assert_eq!(stats.counter_value(chc_obs::names::VALIDATE_CHECKS), 0);
    }

    #[test]
    fn none_range_accepts_only_absent() {
        let schema = compile(
            "
            class Ward;
            class Patient with ward: Ward;
            class Ambulatory is-a Patient with ward: None excuses ward on Patient;
            ",
        )
        .unwrap();
        let patient = schema.class_by_name("Patient").unwrap();
        let ambulatory = schema.class_by_name("Ambulatory").unwrap();
        let x = Oid::from_raw(0);
        let mut member = HashMap::new();
        member.insert((x, patient), true);
        member.insert((x, ambulatory), true);
        let view = MapView {
            member,
            values: HashMap::new(),
        };
        // No ward value: Absent satisfies Ambulatory's None range, and the
        // Patient constraint is excused (x ∈ Ambulatory, Absent ∈ None).
        assert!(object_is_valid(
            &schema,
            &view,
            ValidationOptions::default(),
            x,
            &[ambulatory]
        ));
    }
}
