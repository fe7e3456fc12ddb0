//! The declarative type language and subtype relation of §5.4.
//!
//! Types are primitives, class identifiers, and record types `[p : T]`
//! whose fields carry *conditional types* `T0 + T1/E1 + …`. The subtype
//! relation `<` "is interpreted as subset in the semantics of types"; the
//! decision procedure here is the syntactic system the paper sketches,
//! validated against an exhaustive set-theoretic oracle in
//! [`crate::oracle`].

use std::collections::BTreeSet;

use chc_model::{ClassId, Range, Schema, Sym};

/// A scalar domain.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Prim {
    /// Integers in an interval.
    Int(i64, i64),
    /// Any string.
    Str,
    /// A token set.
    Enum(BTreeSet<Sym>),
    /// The `None` type (absence).
    Absent,
}

/// A type of the §5.4 theory.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ty {
    /// A scalar domain.
    Prim(Prim),
    /// Instances of a class (class identifiers are types).
    Class(ClassId),
    /// Any entity.
    AnyEntity,
    /// A record type; each field carries a conditional type.
    Record(Vec<(Sym, CondTy)>),
}

/// A conditional type `T0 + T1/E1 + … + Tn/En` (§5.4): values in `T0`, or
/// values in `Ti` provided the *owner* belongs to `Ei`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CondTy {
    /// The unconditional part `T0`.
    pub base: Box<Ty>,
    /// The excused arms `Ti/Ei`.
    pub arms: Vec<(ClassId, Ty)>,
}

impl CondTy {
    /// A conditional type with no arms.
    pub fn plain(ty: Ty) -> Self {
        CondTy { base: Box::new(ty), arms: Vec::new() }
    }

    /// Adds an arm `ty/cond`.
    pub fn with_arm(mut self, cond: ClassId, ty: Ty) -> Self {
        self.arms.push((cond, ty));
        self
    }
}

/// Converts a schema range into the type it denotes. Refined-class ranges
/// are widened to their base (run [`chc_core::virtualize()`] first for full
/// precision).
pub fn ty_of_range(range: &Range) -> Ty {
    match range {
        Range::Int { lo, hi } => Ty::Prim(Prim::Int(*lo, *hi)),
        Range::Str => Ty::Prim(Prim::Str),
        Range::Enum(set) => Ty::Prim(Prim::Enum(set.clone())),
        Range::None => Ty::Prim(Prim::Absent),
        Range::AnyEntity => Ty::AnyEntity,
        Range::Class(c) => Ty::Class(*c),
        Range::Record { base: Some(c), .. } => Ty::Class(*c),
        Range::Record { base: None, fields } => Ty::Record(
            fields
                .iter()
                .map(|f| {
                    let mut ct = CondTy::plain(ty_of_range(&f.spec.range));
                    // Nested excuses make the *excusers'* ranges available
                    // as arms; those live on the excuser side, so here we
                    // only carry the declared range.
                    ct.arms.clear();
                    (f.name, ct)
                })
                .collect(),
        ),
    }
}

/// The conditional type a constraint `(declarer, attr)` contributes to the
/// theory: its declared range plus one arm per excuser. This is how
/// `Patient < [treatedBy: Physician + Psychologist/Alcoholic]` arises.
pub fn cond_of(schema: &Schema, declarer: ClassId, attr: Sym) -> Option<CondTy> {
    let decl = schema.declared_attr(declarer, attr)?;
    let mut cond = CondTy::plain(ty_of_range(&decl.spec.range));
    for entry in schema.excusers_of(declarer, attr) {
        cond = cond.with_arm(entry.excuser, ty_of_range(&schema.excuser_spec(entry).range));
    }
    Some(cond)
}

/// Decides `a <: b` (every value of `a` is a value of `b`).
pub fn subtype(schema: &Schema, a: &Ty, b: &Ty) -> bool {
    // One query per top-level decision; structural recursion goes through
    // `subtype_inner` so deep record types count once.
    chc_obs::counter(chc_obs::names::SUBTYPE_QUERIES, 1);
    chc_obs::labeled_counter_scoped(chc_obs::names::SUBTYPE_QUERIES, 1);
    if chc_obs::keeps(chc_obs::Kind::Distinct) {
        chc_obs::distinct(chc_obs::names::SUBTYPE_QUERIES_DISTINCT, pair_hash(0x54, a, b));
    }
    subtype_inner(schema, a, b)
}

/// Structural hash of a `(sub, sup)` query, tagged by decision kind so
/// `subtype` and `cond_subtype` pairs never collide. Only computed while
/// a recorder keeps distinct keys; it keys the `subtype.queries.distinct`
/// duplicate-work counter.
fn pair_hash<T: std::hash::Hash>(tag: u8, a: &T, b: &T) -> u64 {
    use std::hash::{Hash as _, Hasher as _};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    tag.hash(&mut h);
    a.hash(&mut h);
    b.hash(&mut h);
    h.finish()
}

fn subtype_inner(schema: &Schema, a: &Ty, b: &Ty) -> bool {
    match (a, b) {
        (Ty::Prim(p), Ty::Prim(q)) => prim_subtype(p, q),
        (Ty::Class(x), Ty::Class(y)) => schema.is_subclass(*x, *y),
        (Ty::Class(_) | Ty::AnyEntity, Ty::AnyEntity) => true,
        (Ty::AnyEntity, Ty::Record(fields)) => fields.is_empty(),
        (Ty::Record(fa), Ty::Record(fb)) => fb.iter().all(|(name, ctb)| {
            fa.iter()
                .find(|(n, _)| n == name)
                .is_some_and(|(_, cta)| cond_subtype_inner(schema, cta, ctb))
        }),
        (Ty::Class(c), Ty::Record(fields)) => fields.iter().all(|(attr, ctb)| {
            // Some constraint on c (or an ancestor) must already guarantee
            // the field's conditional type.
            schema
                .ancestors_with_self(*c)
                .filter_map(|anc| cond_of(schema, anc, *attr))
                .any(|cta| cond_subtype_inner(schema, &cta, ctb))
        }),
        _ => false,
    }
}

/// `T0 + Ti/Ei <: U0 + Uj/Fj`: the base must fit the base, and every arm
/// must fit the base or a pointwise-stronger arm.
pub fn cond_subtype(schema: &Schema, a: &CondTy, b: &CondTy) -> bool {
    chc_obs::counter(chc_obs::names::SUBTYPE_QUERIES, 1);
    chc_obs::labeled_counter_scoped(chc_obs::names::SUBTYPE_QUERIES, 1);
    if chc_obs::keeps(chc_obs::Kind::Distinct) {
        chc_obs::distinct(chc_obs::names::SUBTYPE_QUERIES_DISTINCT, pair_hash(0x43, a, b));
    }
    cond_subtype_inner(schema, a, b)
}

fn cond_subtype_inner(schema: &Schema, a: &CondTy, b: &CondTy) -> bool {
    if !subtype_inner(schema, &a.base, &b.base) {
        return false;
    }
    a.arms.iter().all(|(cond, ty)| {
        subtype_inner(schema, ty, &b.base)
            || b.arms.iter().any(|(bcond, bty)| {
                schema.is_subclass(*cond, *bcond) && subtype_inner(schema, ty, bty)
            })
    })
}

fn prim_subtype(a: &Prim, b: &Prim) -> bool {
    match (a, b) {
        (Prim::Int(alo, ahi), Prim::Int(blo, bhi)) => blo <= alo && ahi <= bhi,
        (Prim::Str, Prim::Str) => true,
        (Prim::Absent, Prim::Absent) => true,
        (Prim::Enum(x), Prim::Enum(y)) => x.is_subset(y),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_sdl::compile;

    fn hospital() -> Schema {
        compile(
            "
            class Person;
            class Physician is-a Person;
            class Cardiologist is-a Physician;
            class Psychologist is-a Person;
            class Patient is-a Person with treatedBy: Physician;
            class Alcoholic is-a Patient with
                treatedBy: Psychologist excuses treatedBy on Patient;
            ",
        )
        .unwrap()
    }

    fn treated_by_record(schema: &Schema, cond: CondTy) -> Ty {
        Ty::Record(vec![(schema.sym("treatedBy").unwrap(), cond)])
    }

    #[test]
    fn patient_is_subtype_of_its_conditional_record() {
        // Patient < [treatedBy: Physician + Psychologist/Alcoholic]
        let s = hospital();
        let patient = s.class_by_name("Patient").unwrap();
        let physician = s.class_by_name("Physician").unwrap();
        let psychologist = s.class_by_name("Psychologist").unwrap();
        let alcoholic = s.class_by_name("Alcoholic").unwrap();
        let target = treated_by_record(
            &s,
            CondTy::plain(Ty::Class(physician)).with_arm(alcoholic, Ty::Class(psychologist)),
        );
        assert!(subtype(&s, &Ty::Class(patient), &target));
        // But not of the unconditional record: some patients (alcoholics)
        // are not treated by physicians.
        let strict_target = treated_by_record(&s, CondTy::plain(Ty::Class(physician)));
        assert!(!subtype(&s, &Ty::Class(patient), &strict_target));
    }

    #[test]
    fn record_depth_subtyping() {
        // [treatedBy: Cardiologist] < [treatedBy: Physician]
        let s = hospital();
        let cardiologist = s.class_by_name("Cardiologist").unwrap();
        let physician = s.class_by_name("Physician").unwrap();
        let a = treated_by_record(&s, CondTy::plain(Ty::Class(cardiologist)));
        let b = treated_by_record(&s, CondTy::plain(Ty::Class(physician)));
        assert!(subtype(&s, &a, &b));
        assert!(!subtype(&s, &b, &a));
    }

    #[test]
    fn unconditional_is_subtype_of_conditional() {
        // [treatedBy: Physician] < [treatedBy: Physician + Psychologist/Alcoholic]
        let s = hospital();
        let physician = s.class_by_name("Physician").unwrap();
        let psychologist = s.class_by_name("Psychologist").unwrap();
        let alcoholic = s.class_by_name("Alcoholic").unwrap();
        let a = treated_by_record(&s, CondTy::plain(Ty::Class(physician)));
        let b = treated_by_record(
            &s,
            CondTy::plain(Ty::Class(physician)).with_arm(alcoholic, Ty::Class(psychologist)),
        );
        assert!(subtype(&s, &a, &b));
        assert!(!subtype(&s, &b, &a));
    }

    #[test]
    fn arm_absorbed_by_wider_base() {
        // [x: Physician + Cardiologist/E] <: [x: Physician] because the
        // arm's type already fits the target base.
        let s = hospital();
        let physician = s.class_by_name("Physician").unwrap();
        let cardiologist = s.class_by_name("Cardiologist").unwrap();
        let alcoholic = s.class_by_name("Alcoholic").unwrap();
        let a = treated_by_record(
            &s,
            CondTy::plain(Ty::Class(physician)).with_arm(alcoholic, Ty::Class(cardiologist)),
        );
        let b = treated_by_record(&s, CondTy::plain(Ty::Class(physician)));
        assert!(subtype(&s, &a, &b));
    }

    #[test]
    fn arm_condition_must_weaken_not_strengthen() {
        // An arm usable only by Alcoholics fits an arm usable by all
        // Patients, not vice versa.
        let s = hospital();
        let physician = s.class_by_name("Physician").unwrap();
        let psychologist = s.class_by_name("Psychologist").unwrap();
        let patient = s.class_by_name("Patient").unwrap();
        let alcoholic = s.class_by_name("Alcoholic").unwrap();
        let narrow_cond = treated_by_record(
            &s,
            CondTy::plain(Ty::Class(physician)).with_arm(alcoholic, Ty::Class(psychologist)),
        );
        let wide_cond = treated_by_record(
            &s,
            CondTy::plain(Ty::Class(physician)).with_arm(patient, Ty::Class(psychologist)),
        );
        assert!(subtype(&s, &narrow_cond, &wide_cond));
        assert!(!subtype(&s, &wide_cond, &narrow_cond));
    }

    #[test]
    fn class_subtyping_and_any_entity() {
        let s = hospital();
        let physician = s.class_by_name("Physician").unwrap();
        let cardiologist = s.class_by_name("Cardiologist").unwrap();
        assert!(subtype(&s, &Ty::Class(cardiologist), &Ty::Class(physician)));
        assert!(subtype(&s, &Ty::Class(physician), &Ty::AnyEntity));
        assert!(!subtype(&s, &Ty::AnyEntity, &Ty::Class(physician)));
        assert!(subtype(&s, &Ty::AnyEntity, &Ty::Record(vec![])));
    }

    #[test]
    fn prim_subtyping() {
        let a = Ty::Prim(Prim::Int(16, 65));
        let b = Ty::Prim(Prim::Int(1, 120));
        let s = hospital();
        assert!(subtype(&s, &a, &b));
        assert!(!subtype(&s, &b, &a));
        assert!(!subtype(&s, &a, &Ty::Prim(Prim::Str)));
        assert!(subtype(&s, &Ty::Prim(Prim::Absent), &Ty::Prim(Prim::Absent)));
    }

    #[test]
    fn salary_conditional_from_the_paper() {
        // [salary : Integer + None / Temporary_Employee] is a type, and
        // [salary: Integer] is a subtype of it.
        let s = compile(
            "
            class Employee with salary: Integer;
            class Temporary_Employee is-a Employee with
                salary: None excuses salary on Employee;
            ",
        )
        .unwrap();
        let employee = s.class_by_name("Employee").unwrap();
        let temp = s.class_by_name("Temporary_Employee").unwrap();
        let salary = s.sym("salary").unwrap();
        let cond = cond_of(&s, employee, salary).unwrap();
        assert_eq!(cond.arms.len(), 1);
        assert_eq!(cond.arms[0], (temp, Ty::Prim(Prim::Absent)));
        let a = Ty::Record(vec![(
            salary,
            CondTy::plain(Ty::Prim(Prim::Int(i64::MIN, i64::MAX))),
        )]);
        let b = Ty::Record(vec![(salary, cond)]);
        assert!(subtype(&s, &a, &b));
        assert!(subtype(&s, &Ty::Class(employee), &b));
    }
}
