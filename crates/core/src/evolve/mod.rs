//! Schema evolution with re-checking.
//!
//! Two of the paper's desiderata concern change: *locality* ("allow
//! incremental changes to be made locally, without having to modify
//! earlier definitions") and *veracity* ("a modification to some class
//! definition is propagated to all its subclasses; this may result in
//! unexcused contradictions being found by the compiler/environment,
//! which the designer must address explicitly", §6).
//!
//! Each operation here copies the schema, applies one edit, rebuilds, and
//! checks the result in full — class ids and symbols remain valid across
//! the edit. Which classes an edit can affect (its impact cone, the
//! locality desideratum as an algorithm) is [`diff::impact_cone`].

use chc_model::{AttrSpec, ClassId, ModelError, Range, Schema, SchemaBuilder, Sym};

use crate::check::check;
use crate::diagnostics::CheckReport;

pub mod diff;

/// The result of an evolution step: the new schema plus its full check
/// report.
#[derive(Debug, Clone)]
pub struct Evolved {
    /// The edited schema.
    pub schema: Schema,
    /// Diagnostics of the edited schema.
    pub report: CheckReport,
}

fn finish(b: SchemaBuilder) -> Result<Evolved, ModelError> {
    let schema = b.build()?;
    let report = check(&schema);
    Ok(Evolved { schema, report })
}

/// Replaces the range of `class.attr`, keeping its excuse clauses.
pub fn set_range(
    schema: &Schema,
    class: ClassId,
    attr: Sym,
    range: Range,
) -> Result<Evolved, ModelError> {
    let mut b = SchemaBuilder::from_schema(schema);
    let old = b
        .attr_spec(class, attr)
        .cloned()
        .ok_or_else(|| ModelError::UnknownAttr {
            class: schema.class_name(class).to_string(),
            attr: schema.resolve(attr).to_string(),
        })?;
    b.set_attr_spec(class, attr, AttrSpec { range, excuses: old.excuses })?;
    finish(b)
}

/// Adds an `excuses excused_attr on on` clause to `class.attr`.
pub fn add_excuse(
    schema: &Schema,
    class: ClassId,
    attr: Sym,
    excused_attr: Sym,
    on: ClassId,
) -> Result<Evolved, ModelError> {
    let mut b = SchemaBuilder::from_schema(schema);
    let old = b
        .attr_spec(class, attr)
        .cloned()
        .ok_or_else(|| ModelError::UnknownAttr {
            class: schema.class_name(class).to_string(),
            attr: schema.resolve(attr).to_string(),
        })?;
    b.set_attr_spec(class, attr, old.excusing(excused_attr, on))?;
    finish(b)
}

/// Removes every `excuses … on on` clause from `class.attr`.
pub fn drop_excuse(
    schema: &Schema,
    class: ClassId,
    attr: Sym,
    on: ClassId,
) -> Result<Evolved, ModelError> {
    let mut b = SchemaBuilder::from_schema(schema);
    b.remove_excuse(class, attr, on);
    finish(b)
}

/// Declares a new subclass with the given supers and attributes — the
/// paper's canonical extension: "the process of stepwise refinement by
/// specialization suggests that programming proceed by extending the class
/// hierarchy at the bottom" (§6).
pub fn add_subclass(
    schema: &Schema,
    name: &str,
    supers: &[ClassId],
    attrs: &[(&str, AttrSpec)],
) -> Result<Evolved, ModelError> {
    let mut b = SchemaBuilder::from_schema(schema);
    let id = b.declare(name)?;
    for &s in supers {
        b.add_super(id, s)?;
    }
    for (attr_name, spec) in attrs {
        b.add_attr(id, attr_name, spec.clone())?;
    }
    finish(b)
}

/// Adds an is-a edge between two existing classes (e.g. inserting a class
/// into the middle of the hierarchy).
pub fn add_super_edge(
    schema: &Schema,
    class: ClassId,
    superclass: ClassId,
) -> Result<Evolved, ModelError> {
    let mut b = SchemaBuilder::from_schema(schema);
    b.add_super(class, superclass)?;
    finish(b)
}

/// Removes an attribute declaration entirely.
pub fn remove_attr(schema: &Schema, class: ClassId, attr: Sym) -> Result<Evolved, ModelError> {
    let mut b = SchemaBuilder::from_schema(schema);
    b.remove_attr(class, attr);
    finish(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_sdl::compile;

    fn hospital() -> Schema {
        compile(
            "
            class Physician;
            class Psychologist;
            class Patient with treatedBy: Physician;
            class Alcoholic is-a Patient with
                treatedBy: Psychologist excuses treatedBy on Patient;
            ",
        )
        .unwrap()
    }

    #[test]
    fn dropping_an_excuse_surfaces_the_contradiction() {
        let schema = hospital();
        let alcoholic = schema.class_by_name("Alcoholic").unwrap();
        let patient = schema.class_by_name("Patient").unwrap();
        let treated_by = schema.sym("treatedBy").unwrap();
        assert!(check(&schema).is_ok());
        let evolved = drop_excuse(&schema, alcoholic, treated_by, patient).unwrap();
        assert!(!evolved.report.is_ok());
        assert_eq!(evolved.report.errors().count(), 1);
    }

    #[test]
    fn widening_a_superclass_range_can_make_an_excuse_redundant() {
        // Generalize Patient.treatedBy to AnyEntity: Alcoholic's range is
        // now a proper specialization, so its excuse becomes redundant.
        let schema = hospital();
        let patient = schema.class_by_name("Patient").unwrap();
        let treated_by = schema.sym("treatedBy").unwrap();
        let evolved = set_range(&schema, patient, treated_by, Range::AnyEntity).unwrap();
        assert!(evolved.report.is_ok());
        assert_eq!(evolved.report.warnings().count(), 1);
    }

    #[test]
    fn narrowing_a_superclass_range_breaks_subclasses() {
        // Veracity: a modification propagates; the checker reports the new
        // contradiction at the (unmodified) subclass.
        let schema = compile(
            "
            class Person with age: 1..120;
            class Employee is-a Person with age: 16..65;
            ",
        )
        .unwrap();
        let person = schema.class_by_name("Person").unwrap();
        let employee = schema.class_by_name("Employee").unwrap();
        let age = schema.sym("age").unwrap();
        let evolved =
            set_range(&schema, person, age, Range::int(18, 40).unwrap()).unwrap();
        assert!(!evolved.report.is_ok());
        let errs: Vec<_> = evolved.report.errors().collect();
        assert_eq!(errs[0].class, employee);
    }

    #[test]
    fn adding_an_exceptional_subclass_is_local() {
        // Locality: extending at the bottom never touches earlier
        // definitions, and the excuse makes it check clean.
        let schema = hospital();
        let patient = schema.class_by_name("Patient").unwrap();
        let treated_by = schema.sym("treatedBy").unwrap();
        let psychologist = schema.class_by_name("Psychologist").unwrap();
        let evolved = add_subclass(
            &schema,
            "Neurotic",
            &[patient],
            &[(
                "treatedBy",
                AttrSpec::plain(Range::Class(psychologist)).excusing(treated_by, patient),
            )],
        )
        .unwrap();
        assert!(evolved.report.is_ok(), "{}", evolved.report.render(&evolved.schema));
        // The original classes are untouched (ids and declarations).
        let alc_old = schema.class_by_name("Alcoholic").unwrap();
        assert_eq!(evolved.schema.class_by_name("Alcoholic").unwrap(), alc_old);
    }

    #[test]
    fn adding_the_same_subclass_without_excuse_fails() {
        let schema = hospital();
        let patient = schema.class_by_name("Patient").unwrap();
        let psychologist = schema.class_by_name("Psychologist").unwrap();
        let evolved = add_subclass(
            &schema,
            "Neurotic",
            &[patient],
            &[("treatedBy", AttrSpec::plain(Range::Class(psychologist)))],
        )
        .unwrap();
        assert!(!evolved.report.is_ok());
    }

    #[test]
    fn adding_an_excuse_repairs_a_contradiction() {
        let schema = compile(
            "
            class Physician;
            class Psychologist;
            class Patient with treatedBy: Physician;
            class Alcoholic is-a Patient with treatedBy: Psychologist;
            ",
        )
        .unwrap();
        assert!(!check(&schema).is_ok());
        let alcoholic = schema.class_by_name("Alcoholic").unwrap();
        let patient = schema.class_by_name("Patient").unwrap();
        let treated_by = schema.sym("treatedBy").unwrap();
        let evolved =
            add_excuse(&schema, alcoholic, treated_by, treated_by, patient).unwrap();
        assert!(evolved.report.is_ok());
    }

    #[test]
    fn removing_an_attr_removes_its_constraints() {
        let schema = hospital();
        let patient = schema.class_by_name("Patient").unwrap();
        let treated_by = schema.sym("treatedBy").unwrap();
        // Removing Patient.treatedBy would leave Alcoholic's excuse
        // dangling — the builder rejects that, which is itself a veracity
        // property: the excuse names a constraint that no longer exists.
        let result = remove_attr(&schema, patient, treated_by);
        assert!(result.is_err());
    }

    #[test]
    fn unknown_attr_edit_is_an_error() {
        let schema = hospital();
        let patient = schema.class_by_name("Patient").unwrap();
        let bogus = {
            // Any symbol not declared on Patient.
            schema.sym("treatedBy").unwrap()
        };
        let alcoholic = schema.class_by_name("Alcoholic").unwrap();
        let _ = alcoholic;
        let nope = set_range(&schema, patient, bogus, Range::Str);
        assert!(nope.is_ok(), "treatedBy is declared on Patient");
        // A truly undeclared attribute errors.
        let missing = schema.sym("name");
        if let Some(m) = missing {
            assert!(set_range(&schema, patient, m, Range::Str).is_err());
        }
    }
}
