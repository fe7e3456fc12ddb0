//! Run-time instance validation under the §5.2 semantics.
//!
//! Given an object's class memberships and attribute values, check every
//! applicable constraint: "if an object is an instance of several classes,
//! then for each class C and property p specified on C, the object must
//! either obey the constraints stated for p on C or it must be an instance
//! of some other class which excuses this constraint" (§5.1).

use chc_model::{ClassId, InstanceView, Oid, Schema, Sym, Value};
use chc_obs::{names, EventLevel};

use crate::semantics::{constraint_verdict, CheckVerdict, Semantics};

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
    /// Renders against the schema.
    pub fn render(&self, schema: &Schema) -> String {
        format!(
            "object violates `{}.{}` with value {:?}",
            schema.class_name(self.class),
            schema.resolve(self.attr),
            self.value
        )
    }
}

/// Validates object `x` against every constraint of every class in
/// `memberships` *and their ancestors*. Returns all violations.
///
/// `memberships` need not be closed under is-a; closure is computed here
/// (extent stores usually maintain closed membership, in which case the
/// closure is a cheap no-op dedup).
pub fn validate_object(
    schema: &Schema,
    view: &dyn InstanceView,
    opts: ValidationOptions,
    x: Oid,
    memberships: &[ClassId],
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
    // Executed and admitted checks, reported once per object below.
    let (mut checks, mut admitted) = (0u64, 0u64);
    for &class in &closed {
        for decl in &schema.class(class).attrs {
            let stored = view.attr_value(x, decl.name);
            let value = match (&stored, opts.missing) {
                (None, MissingPolicy::Vacuous) => continue,
                (None, MissingPolicy::Absent) => Value::Absent,
                (Some(v), _) => v.clone(),
            };
            let verdict = constraint_verdict(
                schema,
                view,
                opts.semantics,
                x,
                class,
                decl.name,
                &decl.spec.range,
                &value,
            );
            // One executed check = one unit of `validate.checks` = one
            // ledger record; the E11 acceptance check asserts these
            // totals agree. The record's fields are rendered only while
            // an audit sink reads them.
            checks += 1;
            admitted += u64::from(matches!(verdict, CheckVerdict::Excused { .. }));
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
                    value,
                });
            }
        }
    }
    if checks > 0 {
        chc_obs::counter(names::VALIDATE_CHECKS, checks);
    }
    if admitted > 0 {
        chc_obs::counter(names::VALIDATE_ADMITTED, admitted);
    }
    out
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
        fn attr_value(&self, oid: Oid, attr: Sym) -> Option<Value> {
            self.values.get(&(oid, attr)).cloned()
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
