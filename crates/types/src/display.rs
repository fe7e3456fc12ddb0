//! Human-readable rendering of types, in the paper's notation.
//!
//! `[treatedBy : Physician + Psychologist/Alcoholic]` and friends. Each
//! renderer is a [`fmt::Display`] that writes straight into its caller's
//! formatter.

use std::collections::BTreeSet;
use std::fmt;

use chc_model::{ClassId, Schema, Sym};
use chc_obs::display_with;

use crate::subtype::{cond_of, CondTy, Prim, Ty};
use crate::tyset::{Atom, TySet};
use crate::{EntityFacts, TypeContext};

/// A declarative type.
pub fn render_ty<'a>(schema: &'a Schema, ty: &'a Ty) -> impl fmt::Display + 'a {
    display_with(move |f| match ty {
        Ty::Prim(Prim::Int(lo, hi)) => write_int(f, *lo, *hi),
        Ty::Prim(Prim::Str) => f.write_str("String"),
        Ty::Prim(Prim::Absent) => f.write_str("None"),
        Ty::Prim(Prim::Enum(toks)) => write_enum(f, schema, toks),
        Ty::Class(c) => f.write_str(schema.class_name(*c)),
        Ty::AnyEntity => f.write_str("AnyEntity"),
        Ty::Record(fields) => {
            for (i, (name, cond)) in fields.iter().enumerate() {
                let (sep, name) = (if i == 0 { "[" } else { "; " }, schema.resolve(*name));
                write!(f, "{sep}{name} : {}", render_cond(schema, cond))?;
            }
            f.write_str(if fields.is_empty() { "[]" } else { "]" })
        }
    })
}

/// A conditional type `T0 + T1/E1 + …`.
pub fn render_cond<'a>(schema: &'a Schema, cond: &'a CondTy) -> impl fmt::Display + 'a {
    display_with(move |f| {
        write!(f, "{}", render_ty(schema, &cond.base))?;
        for (class, ty) in &cond.arms {
            write!(f, " + {}/{}", render_ty(schema, ty), schema.class_name(*class))?;
        }
        Ok(())
    })
}

/// A deduced disjunctive type.
pub fn render_tyset<'a>(schema: &'a Schema, ty: &'a TySet) -> impl fmt::Display + 'a {
    display_with(move |f| {
        if ty.is_never() {
            return f.write_str("⊥ (uninhabited)");
        }
        for (i, atom) in ty.atoms.iter().enumerate() {
            write!(f, "{}{}", if i == 0 { "" } else { " ∪ " }, render_atom(schema, atom))?;
        }
        Ok(())
    })
}

/// The `chc explain` view of `class.attr` under `ctx`: one `Declarer <
/// [attr : T]` line per conditional type a declarer contributes (the
/// subtype-theory view of §5.4), then the effective type deduced for
/// instances of the class, `  Class.attr : T`.
pub fn render_explain<'a>(
    ctx: &'a TypeContext<'a>,
    class: ClassId,
    attr: Sym,
) -> impl fmt::Display + 'a {
    display_with(move |f| {
        let schema = ctx.schema;
        let attr_name = schema.resolve(attr);
        for (declarer, _) in schema.constraints_on(class, attr) {
            if let Some(cond) = cond_of(schema, declarer, attr) {
                let declarer = schema.class_name(declarer);
                writeln!(f, "{declarer} < [{attr_name} : {}]", render_cond(schema, &cond))?;
            }
        }
        write!(f, "  {}.{attr_name} : ", schema.class_name(class))?;
        match ctx.attr_type(&EntityFacts::of_class(schema, class), attr) {
            Some(ty) => writeln!(f, "{}", render_tyset(schema, &ty)),
            None => writeln!(f, "not applicable"),
        }
    })
}

fn render_atom<'a>(schema: &'a Schema, atom: &'a Atom) -> impl fmt::Display + 'a {
    display_with(move |f| match atom {
        Atom::Int(lo, hi) => write_int(f, *lo, *hi),
        Atom::Str => f.write_str("String"),
        Atom::Absent => f.write_str("None"),
        Atom::Enum(toks) => write_enum(f, schema, toks),
        Atom::Entity(facts) => {
            // The most specific positive classes (those with no positive
            // strict descendant), or `AnyEntity`; then the negative facts
            // no parent's negative fact implies.
            let pos: Vec<_> = facts.pos_classes().collect();
            let below = |c| pos.iter().any(|&d| d != c && schema.is_strict_subclass(d, c));
            let mut sep = "";
            for &c in pos.iter().filter(|&&c| !below(c)) {
                write!(f, "{sep}{}", schema.class_name(c))?;
                sep = " ∧ ";
            }
            if sep.is_empty() {
                f.write_str("AnyEntity")?;
            }
            let implied = |c| schema.supers(c).iter().any(|&p| facts.known_not_in(p));
            for c in schema.class_ids().filter(|&c| facts.known_not_in(c) && !implied(c)) {
                write!(f, " ∧ ¬{}", schema.class_name(c))?;
            }
            Ok(())
        }
        Atom::Rec(fields) => {
            for (i, (name, ty)) in fields.iter().enumerate() {
                let (sep, name) = (if i == 0 { "[" } else { "; " }, schema.resolve(*name));
                write!(f, "{sep}{name} : {}", render_tyset(schema, ty))?;
            }
            f.write_str(if fields.is_empty() { "[]" } else { "]" })
        }
    })
}

/// `Integer`, or the interval `lo..hi`.
fn write_int(f: &mut fmt::Formatter<'_>, lo: i64, hi: i64) -> fmt::Result {
    match (lo, hi) {
        (i64::MIN, i64::MAX) => f.write_str("Integer"),
        _ => write!(f, "{lo}..{hi}"),
    }
}

/// A token set, `{'a, 'b}`, in name order.
fn write_enum(f: &mut fmt::Formatter<'_>, schema: &Schema, toks: &BTreeSet<Sym>) -> fmt::Result {
    let mut names: Vec<&str> = toks.iter().map(|t| schema.resolve(*t)).collect();
    names.sort_unstable();
    for (i, name) in names.iter().enumerate() {
        write!(f, "{}'{name}", if i == 0 { "{" } else { ", " })?;
    }
    f.write_str(if names.is_empty() { "{}" } else { "}" })
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
        assert_eq!(render_cond(&schema, &cond).to_string(), "Physician + Psychologist/Alcoholic");
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
        let rendered = render_tyset(&schema, &ty).to_string();
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
        let rendered = render_tyset(&schema, &TySet::of(Atom::Entity(facts))).to_string();
        assert_eq!(rendered, "Patient ∧ ¬Alcoholic");
    }

    #[test]
    fn never_renders_as_bottom() {
        let schema = compile("class A;").unwrap();
        assert!(render_tyset(&schema, &TySet::never()).to_string().contains('⊥'));
    }
}
