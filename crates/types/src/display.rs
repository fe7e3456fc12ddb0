//! Human-readable rendering of types, in the paper's notation.
//!
//! `[treatedBy : Physician + Psychologist/Alcoholic]` and friends.

use chc_model::{ClassId, Schema, Sym};

use crate::subtype::{cond_of, CondTy, Prim, Ty};
use crate::tyset::{Atom, TySet};
use crate::{EntityFacts, TypeContext};

/// Renders a declarative type.
pub fn render_ty(schema: &Schema, ty: &Ty) -> String {
    match ty {
        Ty::Prim(p) => render_prim(schema, p),
        Ty::Class(c) => schema.class_name(*c).to_string(),
        Ty::AnyEntity => "AnyEntity".to_string(),
        Ty::Record(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(name, cond)| {
                    format!("{} : {}", schema.resolve(*name), render_cond(schema, cond))
                })
                .collect();
            format!("[{}]", inner.join("; "))
        }
    }
}

/// Renders a conditional type `T0 + T1/E1 + …`.
pub fn render_cond(schema: &Schema, cond: &CondTy) -> String {
    let mut out = render_ty(schema, &cond.base);
    for (class, ty) in &cond.arms {
        out.push_str(&format!(
            " + {}/{}",
            render_ty(schema, ty),
            schema.class_name(*class)
        ));
    }
    out
}

fn render_prim(schema: &Schema, p: &Prim) -> String {
    match p {
        Prim::Int(lo, hi) if *lo == i64::MIN && *hi == i64::MAX => "Integer".to_string(),
        Prim::Int(lo, hi) => format!("{lo}..{hi}"),
        Prim::Str => "String".to_string(),
        Prim::Absent => "None".to_string(),
        Prim::Enum(toks) => {
            let mut names: Vec<String> =
                toks.iter().map(|t| format!("'{}", schema.resolve(*t))).collect();
            names.sort();
            format!("{{{}}}", names.join(", "))
        }
    }
}

/// Renders a deduced disjunctive type.
pub fn render_tyset(schema: &Schema, ty: &TySet) -> String {
    if ty.is_never() {
        return "⊥ (uninhabited)".to_string();
    }
    let parts: Vec<String> = ty.atoms.iter().map(|a| render_atom(schema, a)).collect();
    parts.join(" ∪ ")
}

/// The `chc explain` view of `class.attr` under `ctx`: one `Declarer <
/// [attr : T]` line per conditional type a declarer contributes (the
/// subtype-theory view of §5.4), then the effective type deduced for
/// instances of the class, `  Class.attr : T`.
pub fn render_explain(ctx: &TypeContext<'_>, class: ClassId, attr: Sym) -> String {
    let schema = ctx.schema;
    let mut out = String::new();
    for (declarer, _) in schema.constraints_on(class, attr) {
        if let Some(cond) = cond_of(schema, declarer, attr) {
            out.push_str(&format!(
                "{} < [{} : {}]\n",
                schema.class_name(declarer),
                schema.resolve(attr),
                render_cond(schema, &cond)
            ));
        }
    }
    let ty = match ctx.attr_type(&EntityFacts::of_class(schema, class), attr) {
        Some(ty) => render_tyset(schema, &ty),
        None => "not applicable".to_string(),
    };
    out.push_str(&format!(
        "  {}.{} : {ty}\n",
        schema.class_name(class),
        schema.resolve(attr)
    ));
    out
}

fn render_atom(schema: &Schema, atom: &Atom) -> String {
    match atom {
        Atom::Int(lo, hi) if *lo == i64::MIN && *hi == i64::MAX => "Integer".to_string(),
        Atom::Int(lo, hi) => format!("{lo}..{hi}"),
        Atom::Str => "String".to_string(),
        Atom::Absent => "None".to_string(),
        Atom::Enum(toks) => {
            let mut names: Vec<String> =
                toks.iter().map(|t| format!("'{}", schema.resolve(*t))).collect();
            names.sort();
            format!("{{{}}}", names.join(", "))
        }
        Atom::Entity(facts) => {
            // The most specific positive classes: those with no positive
            // strict descendant.
            let pos: Vec<_> = facts.pos_classes().collect();
            let minimal: Vec<String> = pos
                .iter()
                .filter(|&&c| !pos.iter().any(|&d| d != c && schema.is_strict_subclass(d, c)))
                .map(|&c| schema.class_name(c).to_string())
                .collect();
            let neg: Vec<String> = schema
                .class_ids()
                .filter(|&c| {
                    facts.known_not_in(c)
                        && !schema
                            .supers(c)
                            .iter()
                            .any(|&p| facts.known_not_in(p))
                })
                .map(|c| format!("¬{}", schema.class_name(c)))
                .collect();
            let mut parts = minimal;
            if parts.is_empty() {
                parts.push("AnyEntity".to_string());
            }
            parts.extend(neg);
            parts.join(" ∧ ")
        }
        Atom::Rec(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(name, ty)| {
                    format!("{} : {}", schema.resolve(*name), render_tyset(schema, ty))
                })
                .collect();
            format!("[{}]", inner.join("; "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::TypeContext;
    use crate::facts::EntityFacts;
    use crate::subtype::cond_of;
    use chc_sdl::compile;

    #[test]
    fn renders_the_paper_conditional_type() {
        let schema = compile(
            "
            class Physician;
            class Psychologist;
            class Patient with treatedBy: Physician;
            class Alcoholic is-a Patient with
                treatedBy: Psychologist excuses treatedBy on Patient;
            ",
        )
        .unwrap();
        let patient = schema.class_by_name("Patient").unwrap();
        let treated_by = schema.sym("treatedBy").unwrap();
        let cond = cond_of(&schema, patient, treated_by).unwrap();
        assert_eq!(render_cond(&schema, &cond), "Physician + Psychologist/Alcoholic");
    }

    #[test]
    fn renders_deduced_types() {
        let schema = compile(
            "
            class Employee with salary: Integer;
            class Temporary is-a Employee with
                salary: None excuses salary on Employee;
            ",
        )
        .unwrap();
        let ctx = TypeContext::new(&schema);
        let employee = schema.class_by_name("Employee").unwrap();
        let salary = schema.sym("salary").unwrap();
        let facts = EntityFacts::of_class(&schema, employee);
        let ty = ctx.attr_type(&facts, salary).unwrap();
        let rendered = render_tyset(&schema, &ty);
        assert!(rendered.contains("Integer"), "{rendered}");
        assert!(rendered.contains("None"), "{rendered}");
    }

    #[test]
    fn entity_atoms_show_minimal_classes_and_negations() {
        let schema = compile(
            "
            class Person;
            class Patient is-a Person;
            class Alcoholic is-a Patient;
            ",
        )
        .unwrap();
        let patient = schema.class_by_name("Patient").unwrap();
        let alcoholic = schema.class_by_name("Alcoholic").unwrap();
        let mut facts = EntityFacts::of_class(&schema, patient);
        facts.assume_not_in(&schema, alcoholic);
        let rendered = render_tyset(
            &schema,
            &TySet::of(Atom::Entity(facts)),
        );
        assert_eq!(rendered, "Patient ∧ ¬Alcoholic");
    }

    #[test]
    fn never_renders_as_bottom() {
        let schema = compile("class A;").unwrap();
        assert!(render_tyset(&schema, &TySet::never()).contains('⊥'));
    }
}
