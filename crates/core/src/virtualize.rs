//! Synthesis of virtual classes for embedded excuses (§5.6).
//!
//! A refinement such as
//!
//! ```text
//! class Tubercular_Patient is-a Patient with
//!     treatedAt: Hospital [ accreditation: None excuses accreditation on Hospital;
//!                           location: Address [ state: None excuses state on Address;
//!                                               country: {'Switzerland} ] ];
//! ```
//!
//! "sets up virtual classes": an exceptional subclass `H1` of `Hospital`
//! and an exceptional subclass `A1` of `Address`. This pass rewrites every
//! class-refining record range into a reference to a synthesized virtual
//! class carrying the refined fields (and their excuses) as ordinary
//! declarations, after which the main checker applies unchanged — exactly
//! how the paper discharges `Tubercular_Patient`'s "unresolved
//! contradictions".
//!
//! The extent of a virtual class is *computed*, not stored: "the extent of
//! H1 \[is\] exactly those objects which are the values of treatedAt
//! attributes for some Tubercular_Patient". The returned
//! [`VirtualClassInfo`] records the root class and attribute path that
//! define each virtual extent; `chc-extent` evaluates them.

use chc_model::{
    AttrSpec, ClassId, FieldSpec, ModelError, Range, Schema, SchemaBuilder, Sym,
};

/// Where a virtual class came from and how to compute its extent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualClassInfo {
    /// The synthesized class.
    pub class: ClassId,
    /// Its base (the refined class; the virtual class is-a base).
    pub base: ClassId,
    /// The class whose attribute carries the refinement.
    pub root: ClassId,
    /// The attribute path from `root` whose values form the extent
    /// (e.g. `[treatedAt]` for H1, `[treatedAt, location]` for A1).
    pub path: Vec<Sym>,
}

impl VirtualClassInfo {
    /// The one-line description `chc virtualize` prints:
    /// `virtual class H1 is-a Hospital — extent = values of treatedAt over
    /// Tubercular_Patient`.
    pub fn describe(&self, schema: &Schema) -> String {
        let path: Vec<&str> = self.path.iter().map(|p| schema.resolve(*p)).collect();
        format!(
            "virtual class {} is-a {} — extent = values of {} over {}",
            schema.class_name(self.class),
            schema.class_name(self.base),
            path.join("."),
            schema.class_name(self.root),
        )
    }
}

/// The output of [`virtualize`].
#[derive(Debug, Clone)]
pub struct Virtualized {
    /// The rewritten schema. Class ids of the input schema are preserved;
    /// virtual classes are appended.
    pub schema: Schema,
    /// One record per synthesized class.
    pub virtuals: Vec<VirtualClassInfo>,
}

/// Rewrites every class-refining record range into a virtual class.
pub fn virtualize(schema: &Schema) -> Result<Virtualized, ModelError> {
    let mut b = SchemaBuilder::from_schema(schema);
    let mut virtuals = Vec::new();
    // Snapshot the original declarations; the builder grows as we go.
    let originals: Vec<ClassId> = schema.class_ids().collect();
    for class in originals {
        let decls: Vec<(Sym, AttrSpec)> = schema
            .class(class)
            .attrs
            .iter()
            .map(|d| (d.name, d.spec.clone()))
            .collect();
        for (attr, spec) in decls {
            let mut path = vec![attr];
            let new_range = lower_range(
                schema,
                &mut b,
                &mut virtuals,
                class,
                &mut path,
                spec.range.clone(),
            )?;
            if new_range != spec.range {
                b.set_attr_spec(class, attr, AttrSpec { range: new_range, excuses: spec.excuses })?;
            }
        }
    }
    Ok(Virtualized { schema: b.build()?, virtuals })
}

fn lower_range(
    schema: &Schema,
    b: &mut SchemaBuilder,
    virtuals: &mut Vec<VirtualClassInfo>,
    root: ClassId,
    path: &mut Vec<Sym>,
    range: Range,
) -> Result<Range, ModelError> {
    match range {
        Range::Record { base: Some(base), fields } => {
            let name = virtual_name(schema, root, base, path);
            let vclass = b.declare_virtual(&name)?;
            b.add_super(vclass, base)?;
            for field in fields {
                path.push(field.name);
                let lowered =
                    lower_range(schema, b, virtuals, root, path, field.spec.range)?;
                path.pop();
                let field_name = schema.resolve(field.name).to_string();
                b.add_attr(
                    vclass,
                    &field_name,
                    AttrSpec { range: lowered, excuses: field.spec.excuses },
                )?;
            }
            virtuals.push(VirtualClassInfo {
                class: vclass,
                base,
                root,
                path: path.clone(),
            });
            Ok(Range::Class(vclass))
        }
        Range::Record { base: None, fields } => {
            // Anonymous records stay structural, but refinements nested
            // inside them still become virtual classes.
            let mut out = Vec::with_capacity(fields.len());
            for field in fields {
                path.push(field.name);
                let lowered =
                    lower_range(schema, b, virtuals, root, path, field.spec.range)?;
                path.pop();
                out.push(FieldSpec {
                    name: field.name,
                    spec: AttrSpec { range: lowered, excuses: field.spec.excuses },
                });
            }
            Ok(Range::Record { base: None, fields: out })
        }
        other => Ok(other),
    }
}

/// H1-style names: `Hospital@Tubercular_Patient.treatedAt`. The `@` keeps
/// virtual names out of the user's namespace (they do not lex as SDL
/// identifiers) while staying readable in diagnostics.
fn virtual_name(schema: &Schema, root: ClassId, base: ClassId, path: &[Sym]) -> String {
    let mut name = format!("{}@{}", schema.class_name(base), schema.class_name(root));
    for p in path {
        name.push('.');
        name.push_str(schema.resolve(*p));
    }
    name
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use chc_model::ClassKind;
    use chc_sdl::compile;

    const TUBERCULAR: &str = "
        class Address with state: {'NJ, 'NY}; city: String;
        class Hospital with accreditation: {'Local, 'State, 'Federal}; location: Address;
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
    fn synthesizes_h1_and_a1() {
        let schema = compile(TUBERCULAR).unwrap();
        let v = virtualize(&schema).unwrap();
        assert_eq!(v.virtuals.len(), 2);
        let hospital = v.schema.class_by_name("Hospital").unwrap();
        let address = v.schema.class_by_name("Address").unwrap();
        let tb = v.schema.class_by_name("Tubercular_Patient").unwrap();
        // Inner classes are pushed first (post-order), so A1 precedes H1.
        let a1 = &v.virtuals[0];
        let h1 = &v.virtuals[1];
        assert_eq!(h1.base, hospital);
        assert_eq!(h1.root, tb);
        assert_eq!(
            h1.path,
            vec![v.schema.sym("treatedAt").unwrap()]
        );
        assert_eq!(a1.base, address);
        assert_eq!(
            a1.path,
            vec![v.schema.sym("treatedAt").unwrap(), v.schema.sym("location").unwrap()]
        );
        assert!(v.schema.class(h1.class).is_virtual());
        assert!(v.schema.is_strict_subclass(h1.class, hospital));
        assert!(v.schema.is_strict_subclass(a1.class, address));
    }

    #[test]
    fn rewritten_declaration_points_at_virtual_class() {
        let schema = compile(TUBERCULAR).unwrap();
        let v = virtualize(&schema).unwrap();
        let tb = v.schema.class_by_name("Tubercular_Patient").unwrap();
        let treated_at = v.schema.sym("treatedAt").unwrap();
        let decl = v.schema.declared_attr(tb, treated_at).unwrap();
        let h1 = v.virtuals.iter().find(|i| i.path.len() == 1).unwrap();
        assert_eq!(decl.spec.range, Range::Class(h1.class));
    }

    #[test]
    fn virtualized_schema_passes_the_checker() {
        // §5.6: "With these implicit classes, the definition of
        // Tubercular_Patient no longer has unresolved contradictions."
        let schema = compile(TUBERCULAR).unwrap();
        let v = virtualize(&schema).unwrap();
        let report = check(&v.schema);
        assert!(report.is_ok(), "{}", report.render(&v.schema));
    }

    #[test]
    fn original_ids_survive() {
        let schema = compile(TUBERCULAR).unwrap();
        let patient_before = schema.class_by_name("Patient").unwrap();
        let v = virtualize(&schema).unwrap();
        assert_eq!(v.schema.class_by_name("Patient").unwrap(), patient_before);
        assert_eq!(
            v.schema.num_classes(),
            schema.num_classes() + 2
        );
    }

    #[test]
    fn schema_without_refinements_is_unchanged() {
        let schema = compile("class A with x: 1..2; class B is-a A;").unwrap();
        let v = virtualize(&schema).unwrap();
        assert!(v.virtuals.is_empty());
        assert_eq!(v.schema.num_classes(), schema.num_classes());
    }

    #[test]
    fn virtual_classes_are_marked() {
        let schema = compile(TUBERCULAR).unwrap();
        let v = virtualize(&schema).unwrap();
        let n_virtual = v
            .schema
            .class_ids()
            .filter(|&c| v.schema.class(c).kind == ClassKind::Virtual)
            .count();
        assert_eq!(n_virtual, 2);
    }

    #[test]
    fn refinement_without_contradiction_also_works() {
        // §2b: office: Address [room#: 1..9999] — a proper refinement, no
        // excuses needed anywhere.
        let schema = compile(
            "
            class Address with city: String;
            class Person with
                office: Address [room#: 1..9999];
            ",
        )
        .unwrap();
        let v = virtualize(&schema).unwrap();
        assert_eq!(v.virtuals.len(), 1);
        let report = check(&v.schema);
        assert!(report.is_ok(), "{}", report.render(&v.schema));
    }
}
