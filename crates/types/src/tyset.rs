//! Disjunctive value types.
//!
//! The analyses of §5.4 manipulate *sets of possible values* of an
//! expression. A [`TySet`] is a finite union of [`Atom`]s — scalar domains,
//! the absent value, record shapes, and entities qualified by membership
//! facts. Unions arise from conditional types (`Physician +
//! Psychologist/Alcoholic`); intersections arise from an entity being
//! subject to several constraints at once.

use std::collections::{BTreeMap, BTreeSet};

use chc_model::{Range, Schema, Sym};

use crate::facts::EntityFacts;

/// One disjunct of a [`TySet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Atom {
    /// Integers in an inclusive interval.
    Int(i64, i64),
    /// Any string.
    Str,
    /// One of a finite set of tokens.
    Enum(BTreeSet<Sym>),
    /// The absent value (the denotation of a `None` range).
    Absent,
    /// An entity about which we hold membership facts.
    Entity(EntityFacts),
    /// A record value with per-field types; unlisted fields are
    /// unconstrained.
    Rec(BTreeMap<Sym, TySet>),
}

/// A finite union of atoms; the empty union is the uninhabited type.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TySet {
    /// The disjuncts.
    pub atoms: Vec<Atom>,
}

impl TySet {
    /// The empty (uninhabited) type.
    pub fn never() -> Self {
        TySet::default()
    }

    /// A single-atom type.
    pub fn of(atom: Atom) -> Self {
        TySet { atoms: vec![atom] }
    }

    /// Whether no value inhabits this type.
    pub fn is_never(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Converts a schema range to its type. Refined-class ranges
    /// (`Range::Record { base: Some(_), .. }`) should have been eliminated
    /// by `chc_core::virtualize` first; if one is met its refinements are
    /// soundly widened to the base class.
    pub fn from_range(schema: &Schema, range: &Range) -> TySet {
        match range {
            Range::Int { lo, hi } => TySet::of(Atom::Int(*lo, *hi)),
            Range::Str => TySet::of(Atom::Str),
            Range::Enum(set) => TySet::of(Atom::Enum(set.clone())),
            Range::None => TySet::of(Atom::Absent),
            Range::AnyEntity => TySet::of(Atom::Entity(EntityFacts::unknown(schema))),
            Range::Class(c) => TySet::of(Atom::Entity(EntityFacts::of_class(schema, *c))),
            Range::Record { base: Some(c), .. } => {
                TySet::of(Atom::Entity(EntityFacts::of_class(schema, *c)))
            }
            Range::Record { base: None, fields } => {
                let mut map = BTreeMap::new();
                for f in fields {
                    map.insert(f.name, TySet::from_range(schema, &f.spec.range));
                }
                TySet::of(Atom::Rec(map))
            }
        }
    }

    /// Union with another type.
    pub fn union(mut self, other: TySet) -> TySet {
        for atom in other.atoms {
            self.push(atom);
        }
        self
    }

    /// Adds a disjunct, merging scalar atoms where easy.
    pub fn push(&mut self, atom: Atom) {
        match &atom {
            Atom::Enum(new) => {
                for existing in &mut self.atoms {
                    if let Atom::Enum(set) = existing {
                        set.extend(new.iter().copied());
                        return;
                    }
                }
            }
            Atom::Int(lo, hi) => {
                for existing in &mut self.atoms {
                    if let Atom::Int(elo, ehi) = existing {
                        // Merge overlapping or adjacent intervals only.
                        if *lo <= ehi.saturating_add(1) && *elo <= hi.saturating_add(1) {
                            *elo = (*elo).min(*lo);
                            *ehi = (*ehi).max(*hi);
                            return;
                        }
                    }
                }
            }
            Atom::Str | Atom::Absent => {
                if self.atoms.contains(&atom) {
                    return;
                }
            }
            Atom::Entity(new) => {
                // Drop if an existing entity atom is weaker (a superset):
                // fewer facts = more values.
                if self.atoms.iter().any(
                    |a| matches!(a, Atom::Entity(e) if new.implies(e)),
                ) {
                    return;
                }
            }
            Atom::Rec(_) => {}
        }
        self.atoms.push(atom);
    }

    /// Intersection: pairwise atom meets, dropping empty combinations.
    pub fn intersect(&self, schema: &Schema, other: &TySet) -> TySet {
        let mut out = TySet::never();
        for a in &self.atoms {
            for b in &other.atoms {
                if let Some(m) = atom_meet(schema, a, b) {
                    out.push(m);
                }
            }
        }
        out
    }

    /// Whether this type can produce the absent value — the hazard §5.4's
    /// safety analysis looks for ("some patients are at hospitals whose
    /// address does not have a state field").
    pub fn may_be_absent(&self) -> bool {
        self.atoms.iter().any(|a| matches!(a, Atom::Absent))
    }

    /// Whether every value of this type is an entity known to be in
    /// `class` (a sound subset test against a class target).
    pub fn all_within_class(&self, class: chc_model::ClassId) -> bool {
        !self.is_never()
            && self.atoms.iter().all(|a| match a {
                Atom::Entity(f) => f.known_in(class),
                _ => false,
            })
    }

    /// Whether every value is an integer within `lo..=hi`.
    pub fn all_within_int(&self, lo: i64, hi: i64) -> bool {
        !self.is_never()
            && self.atoms.iter().all(|a| match a {
                Atom::Int(alo, ahi) => lo <= *alo && *ahi <= hi,
                _ => false,
            })
    }

    /// Removes atoms that cannot be entities of `class` (narrowing after a
    /// successful `x in C` test) — entity atoms gain the positive fact.
    pub fn narrow_to_class(&self, schema: &Schema, class: chc_model::ClassId) -> TySet {
        let mut out = TySet::never();
        for a in &self.atoms {
            if let Atom::Entity(f) = a {
                if f.known_not_in(class) {
                    continue;
                }
                let mut f2 = f.clone();
                f2.assume_in(schema, class);
                if !f2.contradictory() {
                    out.push(Atom::Entity(f2));
                }
            }
        }
        out
    }

    /// Adds the fact `∉ class` to every entity atom, dropping atoms known
    /// to be in it (narrowing for the else branch of a membership test).
    pub fn narrow_away_from_class(&self, schema: &Schema, class: chc_model::ClassId) -> TySet {
        let mut out = TySet::never();
        for a in &self.atoms {
            match a {
                Atom::Entity(f) => {
                    if f.known_in(class) {
                        continue;
                    }
                    let mut f2 = f.clone();
                    f2.assume_not_in(schema, class);
                    if !f2.contradictory() {
                        out.push(Atom::Entity(f2));
                    }
                }
                other => out.push(other.clone()),
            }
        }
        out
    }
}

/// Greatest lower bound of two atoms, or `None` when provably disjoint.
fn atom_meet(schema: &Schema, a: &Atom, b: &Atom) -> Option<Atom> {
    match (a, b) {
        (Atom::Int(alo, ahi), Atom::Int(blo, bhi)) => {
            let lo = (*alo).max(*blo);
            let hi = (*ahi).min(*bhi);
            (lo <= hi).then_some(Atom::Int(lo, hi))
        }
        (Atom::Str, Atom::Str) => Some(Atom::Str),
        (Atom::Absent, Atom::Absent) => Some(Atom::Absent),
        (Atom::Enum(x), Atom::Enum(y)) => {
            let meet: BTreeSet<Sym> = x.intersection(y).copied().collect();
            (!meet.is_empty()).then_some(Atom::Enum(meet))
        }
        (Atom::Entity(x), Atom::Entity(y)) => {
            let mut f = x.clone();
            f.merge(y);
            (!f.contradictory()).then_some(Atom::Entity(f))
        }
        (Atom::Rec(x), Atom::Rec(y)) => {
            let mut out = x.clone();
            for (name, ty) in y {
                match out.get_mut(name) {
                    Some(existing) => {
                        let met = existing.intersect(schema, ty);
                        if met.is_never() {
                            return None;
                        }
                        *existing = met;
                    }
                    None => {
                        out.insert(*name, ty.clone());
                    }
                }
            }
            Some(Atom::Rec(out))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_sdl::compile;

    fn schema() -> Schema {
        compile(
            "
            class Person;
            class Physician is-a Person;
            class Psychologist is-a Person;
            class Oncologist is-a Physician;
            ",
        )
        .unwrap()
    }

    #[test]
    fn int_meet_and_disjointness() {
        let s = schema();
        let a = TySet::of(Atom::Int(1, 10));
        let b = TySet::of(Atom::Int(5, 20));
        let m = a.intersect(&s, &b);
        assert_eq!(m.atoms, vec![Atom::Int(5, 10)]);
        let c = TySet::of(Atom::Int(50, 60));
        assert!(a.intersect(&s, &c).is_never());
    }

    #[test]
    fn entity_meet_merges_facts() {
        let s = schema();
        let phys = s.class_by_name("Physician").unwrap();
        let onc = s.class_by_name("Oncologist").unwrap();
        let a = TySet::from_range(&s, &Range::Class(phys));
        let b = TySet::from_range(&s, &Range::Class(onc));
        let m = a.intersect(&s, &b);
        assert!(m.all_within_class(onc));
        assert!(m.all_within_class(phys));
    }

    #[test]
    fn entity_meet_detects_contradiction_via_negation() {
        let s = schema();
        let phys = s.class_by_name("Physician").unwrap();
        let mut not_phys = EntityFacts::unknown(&s);
        not_phys.assume_not_in(&s, phys);
        let a = TySet::of(Atom::Entity(not_phys));
        let b = TySet::from_range(&s, &Range::Class(phys));
        assert!(a.intersect(&s, &b).is_never());
    }

    #[test]
    fn union_merges_enums_and_intervals() {
        let mut s1 = TySet::of(Atom::Int(1, 5));
        s1.push(Atom::Int(6, 10));
        assert_eq!(s1.atoms, vec![Atom::Int(1, 10)]);
        let schema = schema();
        let mut i = chc_model::SchemaBuilder::new();
        let a = i.intern("a");
        let b = i.intern("b");
        let mut e = TySet::of(Atom::Enum([a].into_iter().collect()));
        e.push(Atom::Enum([b].into_iter().collect()));
        assert_eq!(e.atoms.len(), 1);
        let _ = schema;
    }

    #[test]
    fn disjoint_intervals_stay_separate() {
        let mut s1 = TySet::of(Atom::Int(1, 5));
        s1.push(Atom::Int(100, 200));
        assert_eq!(s1.atoms.len(), 2);
        assert!(!s1.all_within_int(1, 5));
        assert!(s1.all_within_int(1, 200));
    }

    #[test]
    fn narrowing_to_and_away() {
        let s = schema();
        let person = s.class_by_name("Person").unwrap();
        let phys = s.class_by_name("Physician").unwrap();
        let base = TySet::from_range(&s, &Range::Class(person));
        let to = base.narrow_to_class(&s, phys);
        assert!(to.all_within_class(phys));
        let away = base.narrow_away_from_class(&s, phys);
        assert!(!away.is_never());
        let Atom::Entity(f) = &away.atoms[0] else { panic!() };
        assert!(f.known_not_in(phys));
        assert!(f.known_not_in(s.class_by_name("Oncologist").unwrap()));
    }

    #[test]
    fn absent_detection() {
        let s = schema();
        let t = TySet::from_range(&s, &Range::None);
        assert!(t.may_be_absent());
        let t2 = TySet::from_range(&s, &Range::Str);
        assert!(!t2.may_be_absent());
        let u = t.union(t2);
        assert!(u.may_be_absent());
    }

    #[test]
    fn scalar_and_entity_are_disjoint() {
        let s = schema();
        let person = s.class_by_name("Person").unwrap();
        let ints = TySet::of(Atom::Int(1, 2));
        let ents = TySet::from_range(&s, &Range::Class(person));
        assert!(ints.intersect(&s, &ents).is_never());
    }

    #[test]
    fn weaker_entity_atom_absorbs_stronger() {
        let s = schema();
        let person = s.class_by_name("Person").unwrap();
        let phys = s.class_by_name("Physician").unwrap();
        let mut u = TySet::from_range(&s, &Range::Class(person));
        u.push(Atom::Entity(EntityFacts::of_class(&s, phys)));
        // Physician ⊆ Person, so the union stays a single weak atom.
        assert_eq!(u.atoms.len(), 1);
    }
}
