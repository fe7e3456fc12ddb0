//! Path-expression safety analysis.
//!
//! §5.4's motivating query iterates `p` over `Patient` and evaluates
//! `p.treatedAt.location.city` / `.state`. The analysis here walks an
//! attribute path over the typing context, accumulating the possible type
//! at each step and recording *hazards* — ways the evaluation could fail
//! at run time. The query compiler uses the hazard list two ways:
//!
//! * warn the user "that the query/program may result in a run-time
//!   failure for certain database states";
//! * "avoid the introduction of run-time safety tests in those cases
//!   where it has determined that no type error can occur".

use chc_model::Sym;

use crate::ctx::TypeContext;
use crate::facts::EntityFacts;
use crate::tyset::{Atom, TySet};

/// A way a path step can fail at run time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hazard {
    /// The value being dereferenced may be absent (an excused `None`
    /// range upstream) — e.g. `state` on a Swiss address.
    MayBeAbsent {
        /// Index of the failing step in the path.
        step: usize,
    },
    /// The attribute may not be applicable to the value (no class the
    /// value may belong to declares it).
    MayBeInapplicable {
        /// Index of the failing step in the path.
        step: usize,
    },
    /// The value may be a scalar, which has no attributes at all.
    ScalarDereference {
        /// Index of the failing step in the path.
        step: usize,
    },
}

impl Hazard {
    /// The step index the hazard occurs at.
    pub fn step(&self) -> usize {
        match self {
            Hazard::MayBeAbsent { step }
            | Hazard::MayBeInapplicable { step }
            | Hazard::ScalarDereference { step } => *step,
        }
    }
}

/// The outcome of analyzing one attribute path.
#[derive(Debug, Clone)]
pub struct PathAnalysis {
    /// The possible type of the full path expression.
    pub result: TySet,
    /// Every potential run-time failure, in path order.
    pub hazards: Vec<Hazard>,
}

impl PathAnalysis {
    /// Whether the path can be evaluated with no run-time checks.
    pub fn is_safe(&self) -> bool {
        self.hazards.is_empty()
    }
}

/// Analyzes `path` starting from an entity with the given facts.
pub fn analyze_path(ctx: &TypeContext<'_>, start: &EntityFacts, path: &[Sym]) -> PathAnalysis {
    analyze_path_from(ctx, TySet::of(Atom::Entity(start.clone())), path)
}

/// Analyzes `path` starting from an arbitrary typed value.
pub fn analyze_path_from(ctx: &TypeContext<'_>, start: TySet, path: &[Sym]) -> PathAnalysis {
    let mut cur = start;
    let mut hazards = Vec::new();
    for (step, &attr) in path.iter().enumerate() {
        let mut next = TySet::never();
        let mut absent_hazard = false;
        let mut inapplicable_hazard = false;
        let mut scalar_hazard = false;
        for atom in &cur.atoms {
            match atom {
                Atom::Entity(facts) => match ctx.attr_type(facts, attr) {
                    Some(t) => next = next.union(t),
                    None => inapplicable_hazard = true,
                },
                Atom::Rec(fields) => match fields.get(&attr) {
                    Some(t) => next = next.union(t.clone()),
                    None => inapplicable_hazard = true,
                },
                Atom::Absent => absent_hazard = true,
                Atom::Int(..) | Atom::Str | Atom::Enum(_) => scalar_hazard = true,
            }
        }
        if absent_hazard {
            hazards.push(Hazard::MayBeAbsent { step });
        }
        if inapplicable_hazard {
            hazards.push(Hazard::MayBeInapplicable { step });
        }
        if scalar_hazard {
            hazards.push(Hazard::ScalarDereference { step });
        }
        cur = next;
    }
    PathAnalysis { result: cur, hazards }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_core::virtualize;
    use chc_sdl::compile;

    const TUBERCULAR: &str = "
        class Address with state: {'NJ, 'NY}; city: String;
        class Hospital with accreditation: {'Local}; location: Address;
        class Patient with treatedAt: Hospital;
        class Tubercular_Patient is-a Patient with
            treatedAt: Hospital [
                accreditation: None excuses accreditation on Hospital;
                location: Address [
                    state: None excuses state on Address;
                    country: {'Switzerland}
                ]
            ];
    ";

    #[test]
    fn city_is_safe_state_is_not() {
        let schema = compile(TUBERCULAR).unwrap();
        let v = virtualize(&schema).unwrap();
        let ctx = TypeContext::with_virtuals(&v);
        let s = &v.schema;
        let patient = s.class_by_name("Patient").unwrap();
        let path_city = [
            s.sym("treatedAt").unwrap(),
            s.sym("location").unwrap(),
            s.sym("city").unwrap(),
        ];
        let path_state = [
            s.sym("treatedAt").unwrap(),
            s.sym("location").unwrap(),
            s.sym("state").unwrap(),
        ];
        let facts = EntityFacts::of_class(s, patient);
        let city = analyze_path(&ctx, &facts, &path_city);
        assert!(city.is_safe(), "{:?}", city.hazards);
        let state = analyze_path(&ctx, &facts, &path_state);
        // The path itself never dereferences an absent value (state is the
        // last step), but its *result* may be absent, which makes any use
        // of it hazardous; a consumer checks `may_be_absent`.
        assert!(state.result.may_be_absent());
    }

    #[test]
    fn guard_restores_safety() {
        let schema = compile(TUBERCULAR).unwrap();
        let v = virtualize(&schema).unwrap();
        let ctx = TypeContext::with_virtuals(&v);
        let s = &v.schema;
        let patient = s.class_by_name("Patient").unwrap();
        let tb = s.class_by_name("Tubercular_Patient").unwrap();
        let path_state = [
            s.sym("treatedAt").unwrap(),
            s.sym("location").unwrap(),
            s.sym("state").unwrap(),
        ];
        let mut facts = EntityFacts::of_class(s, patient);
        facts.assume_not_in(s, tb);
        let state = analyze_path(&ctx, &facts, &path_state);
        assert!(state.is_safe());
        assert!(!state.result.may_be_absent());
    }

    #[test]
    fn dereferencing_through_a_maybe_absent_value_is_hazardous() {
        // Reading `…location.state.???` would dereference an absent value;
        // model this by extending the path beyond a maybe-absent step.
        let schema = compile(
            "
            class Inner with x: 1..5;
            class Holder with inner: Inner;
            class Odd is-a Holder with
                inner: None excuses inner on Holder;
            ",
        )
        .unwrap();
        let ctx = TypeContext::new(&schema);
        let holder = schema.class_by_name("Holder").unwrap();
        let facts = EntityFacts::of_class(&schema, holder);
        let path = [schema.sym("inner").unwrap(), schema.sym("x").unwrap()];
        let a = analyze_path(&ctx, &facts, &path);
        assert!(!a.is_safe());
        assert!(a.hazards.iter().any(|h| matches!(h, Hazard::MayBeAbsent { step: 1 })));
        // Guarding away the exceptional subclass removes the hazard.
        let odd = schema.class_by_name("Odd").unwrap();
        let mut guarded = facts.clone();
        guarded.assume_not_in(&schema, odd);
        let a2 = analyze_path(&ctx, &guarded, &path);
        assert!(a2.is_safe(), "{:?}", a2.hazards);
    }

    #[test]
    fn inapplicable_attribute_is_flagged() {
        let schema = compile(
            "
            class Person with name: String;
            class Employee is-a Person with salary: Integer;
            ",
        )
        .unwrap();
        let ctx = TypeContext::new(&schema);
        let person = schema.class_by_name("Person").unwrap();
        let employee = schema.class_by_name("Employee").unwrap();
        let salary = schema.sym("salary").unwrap();
        let a = analyze_path(&ctx, &EntityFacts::of_class(&schema, person), &[salary]);
        assert!(a
            .hazards
            .iter()
            .any(|h| matches!(h, Hazard::MayBeInapplicable { step: 0 })));
        let b = analyze_path(&ctx, &EntityFacts::of_class(&schema, employee), &[salary]);
        assert!(b.is_safe());
    }

    #[test]
    fn scalar_dereference_is_flagged() {
        let schema = compile("class Person with age: 1..120;").unwrap();
        let ctx = TypeContext::new(&schema);
        let person = schema.class_by_name("Person").unwrap();
        let path = [schema.sym("age").unwrap(), schema.sym("age").unwrap()];
        let a = analyze_path(&ctx, &EntityFacts::of_class(&schema, person), &path);
        assert!(a
            .hazards
            .iter()
            .any(|h| matches!(h, Hazard::ScalarDereference { step: 1 })));
    }

    #[test]
    fn record_valued_attributes_are_traversable() {
        let schema = compile(
            "
            class Person with home: [street: String; city: String];
            ",
        )
        .unwrap();
        let ctx = TypeContext::new(&schema);
        let person = schema.class_by_name("Person").unwrap();
        let path = [schema.sym("home").unwrap(), schema.sym("city").unwrap()];
        let a = analyze_path(&ctx, &EntityFacts::of_class(&schema, person), &path);
        assert!(a.is_safe(), "{:?}", a.hazards);
        let bad = [schema.sym("home").unwrap(), schema.sym("street2").unwrap_or(schema.sym("home").unwrap())];
        let b = analyze_path(&ctx, &EntityFacts::of_class(&schema, person), &bad);
        assert!(!b.is_safe());
    }
}
