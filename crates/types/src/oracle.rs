//! An exhaustive, set-theoretic oracle for the type theory.
//!
//! The paper promises a type reasoning system that is *sound and
//! complete*. For token-valued schemas we can check both properties by
//! brute force: enumerate every possible object (each upward-closed
//! membership set × each candidate value) and compute the exact set of
//! values the §5.2 semantics admits; the deductive
//! [`TypeContext::attr_type`] must
//!
//! * **equal** the exact set when the membership facts are total, and
//! * **contain** it (soundness) when the facts are partial.
//!
//! Experiment E9 runs this agreement test over randomized schemas.

use std::collections::BTreeSet;

use chc_core::{constraint_holds, Semantics};
use chc_model::{BitSet, ClassId, InstanceView, Oid, Range, Schema, Sym, Value};

use crate::ctx::TypeContext;
use crate::facts::EntityFacts;
use crate::tyset::{Atom, TySet};

/// A candidate attribute value in the token universe: a token or absence.
pub type TokenValue = Option<Sym>;

/// Enumerates every upward-closed, nonempty membership set of the schema.
/// (Membership must be closed under is-a: §3c's subset constraint.)
pub fn enumerate_memberships(schema: &Schema) -> Vec<Vec<ClassId>> {
    let n = schema.num_classes();
    assert!(n <= 16, "oracle universes must stay small (got {n} classes)");
    let ids: Vec<ClassId> = schema.class_ids().collect();
    let mut out = Vec::new();
    'subset: for mask in 1u32..(1 << n) {
        let mut set = BitSet::new(n);
        for (i, id) in ids.iter().enumerate() {
            if mask & (1 << i) != 0 {
                // Upward closure: every ancestor must also be present.
                for a in schema.ancestors_with_self(*id) {
                    if mask & (1 << a.index()) == 0 {
                        continue 'subset;
                    }
                }
                set.insert(i);
            }
        }
        out.push(set.iter().map(|i| ids[i]).collect());
    }
    out
}

/// The token universe of a schema: every token mentioned in any enum range
/// of `attr`, anywhere.
pub fn token_universe(schema: &Schema, attr: Sym) -> BTreeSet<Sym> {
    let mut out = BTreeSet::new();
    for c in schema.class_ids() {
        if let Some(decl) = schema.declared_attr(c, attr) {
            if let Range::Enum(toks) = &decl.spec.range {
                out.extend(toks.iter().copied());
            }
        }
    }
    out
}

struct OracleView<'a> {
    membership: &'a [ClassId],
}

impl InstanceView for OracleView<'_> {
    fn is_instance(&self, _oid: Oid, class: ClassId) -> bool {
        self.membership.contains(&class)
    }
    fn attr_value(&self, _oid: Oid, _attr: Sym) -> Option<&Value> {
        None
    }
}

/// The exact set of values of `attr` the §5.2 *Correct* semantics admits
/// for an object whose total membership is `membership`. Returns `None`
/// when no member class declares the attribute (it is inapplicable).
pub fn allowed_exact(
    schema: &Schema,
    membership: &[ClassId],
    attr: Sym,
    universe: &BTreeSet<Sym>,
) -> Option<BTreeSet<TokenValue>> {
    let declarers: Vec<ClassId> = membership
        .iter()
        .copied()
        .filter(|&c| schema.declared_attr(c, attr).is_some())
        .collect();
    if declarers.is_empty() {
        return None;
    }
    let view = OracleView { membership };
    let x = Oid::from_raw(0);
    let mut out = BTreeSet::new();
    let candidates = universe
        .iter()
        .map(|&t| Some(t))
        .chain(std::iter::once(None));
    for cand in candidates {
        let value = match cand {
            Some(t) => Value::Tok(t),
            None => Value::Absent,
        };
        let ok = declarers.iter().all(|&b| {
            let range = &schema.declared_attr(b, attr).unwrap().spec.range;
            constraint_holds(schema, &view, Semantics::Correct, x, b, attr, range, &value)
        });
        if ok {
            out.insert(cand);
        }
    }
    Some(out)
}

/// Flattens a token-valued [`TySet`] into the set of values it denotes
/// within `universe`.
pub fn denote_tokens(ty: &TySet, universe: &BTreeSet<Sym>) -> BTreeSet<TokenValue> {
    let mut out = BTreeSet::new();
    for atom in &ty.atoms {
        match atom {
            Atom::Enum(set) => out.extend(set.iter().filter(|t| universe.contains(t)).map(|&t| Some(t))),
            Atom::Absent => {
                out.insert(None);
            }
            other => panic!("token oracle met non-token atom {other:?}"),
        }
    }
    out
}

/// Total-knowledge facts for a membership set: in every listed class, out
/// of every other.
pub fn total_facts(schema: &Schema, membership: &[ClassId]) -> EntityFacts {
    let mut f = EntityFacts::unknown(schema);
    for &c in membership {
        f.assume_in(schema, c);
    }
    for c in schema.class_ids() {
        if !membership.contains(&c) {
            f.assume_not_in(schema, c);
        }
    }
    f
}

/// The outcome of one oracle sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// Membership sets × attributes compared.
    pub cases: usize,
    /// Cases where deduction ≠ exact under total knowledge
    /// (completeness+soundness failures).
    pub total_mismatches: usize,
    /// Cases where deduction ⊉ exact under partial knowledge (soundness
    /// failures).
    pub partial_unsound: usize,
}

impl OracleReport {
    /// Whether the deductive system agreed with the oracle everywhere.
    pub fn agrees(&self) -> bool {
        self.total_mismatches == 0 && self.partial_unsound == 0
    }
}

/// Sweeps every membership set of `schema` against the oracle for `attr`.
pub fn sweep(schema: &Schema, attr: Sym) -> OracleReport {
    let ctx = TypeContext::new(schema);
    let universe = token_universe(schema, attr);
    let mut report = OracleReport::default();
    for membership in enumerate_memberships(schema) {
        let Some(exact) = allowed_exact(schema, &membership, attr, &universe) else {
            continue;
        };
        report.cases += 1;

        // Total knowledge: deduction must be exact.
        let facts = total_facts(schema, &membership);
        let deduced = ctx
            .attr_type(&facts, attr)
            .expect("declarer exists, so the attribute is applicable");
        if denote_tokens(&deduced, &universe) != exact {
            report.total_mismatches += 1;
        }

        // Partial knowledge (positives only): deduction must be sound
        // (a superset of the exact set).
        let mut partial = EntityFacts::unknown(schema);
        for &c in &membership {
            partial.assume_in(schema, c);
        }
        let deduced = ctx.attr_type(&partial, attr).expect("applicable");
        if !exact.is_subset(&denote_tokens(&deduced, &universe)) {
            report.partial_unsound += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_sdl::compile;
    use chc_workloads::rng::SplitMix64;

    #[test]
    fn membership_enumeration_is_upward_closed() {
        let schema = compile(
            "
            class A;
            class B is-a A;
            class C is-a B;
            ",
        )
        .unwrap();
        let sets = enumerate_memberships(&schema);
        // {A}, {A,B}, {A,B,C} only.
        assert_eq!(sets.len(), 3);
        let a = schema.class_by_name("A").unwrap();
        for set in &sets {
            assert!(set.contains(&a));
        }
    }

    #[test]
    fn nixon_oracle_agrees() {
        let schema = compile(
            "
            class Person with opinion: {'Hawk, 'Dove, 'Ostrich};
            class Quaker is-a Person with
                opinion: {'Dove} excuses opinion on Republican;
            class Republican is-a Person with
                opinion: {'Hawk} excuses opinion on Quaker;
            ",
        )
        .unwrap();
        let opinion = schema.sym("opinion").unwrap();
        let report = sweep(&schema, opinion);
        assert!(report.cases >= 4);
        assert!(report.agrees(), "{report:?}");
        // Spot-check dick: {Person, Quaker, Republican} admits Hawk/Dove.
        let person = schema.class_by_name("Person").unwrap();
        let quaker = schema.class_by_name("Quaker").unwrap();
        let republican = schema.class_by_name("Republican").unwrap();
        let universe = token_universe(&schema, opinion);
        let exact =
            allowed_exact(&schema, &[person, quaker, republican], opinion, &universe).unwrap();
        let hawk = schema.sym("Hawk").unwrap();
        let dove = schema.sym("Dove").unwrap();
        let expect: BTreeSet<TokenValue> = [Some(hawk), Some(dove)].into_iter().collect();
        assert_eq!(exact, expect);
    }

    #[test]
    fn none_excuse_oracle_agrees() {
        let schema = compile(
            "
            class E with status: {'Paid, 'Unpaid};
            class T is-a E with status: None excuses status on E;
            ",
        )
        .unwrap();
        let status = schema.sym("status").unwrap();
        let report = sweep(&schema, status);
        assert!(report.agrees(), "{report:?}");
        let e = schema.class_by_name("E").unwrap();
        let t = schema.class_by_name("T").unwrap();
        let universe = token_universe(&schema, status);
        // A plain E may not be absent; a T may only be absent... no — a T
        // satisfies E's constraint via its own token too? T's range is
        // None, so a T's status must be Absent (T's own constraint) — and
        // E's constraint is excused by membership in T.
        let exact_e = allowed_exact(&schema, &[e], status, &universe).unwrap();
        assert!(!exact_e.contains(&None));
        assert_eq!(exact_e.len(), 2);
        let exact_t = allowed_exact(&schema, &[e, t], status, &universe).unwrap();
        let expect: BTreeSet<TokenValue> = [None].into_iter().collect();
        assert_eq!(exact_t, expect);
    }

    /// Builds a random layered schema over one token-valued attribute with
    /// random excuses, then checks oracle agreement exhaustively.
    fn random_schema(rng: &mut SplitMix64) -> (Schema, Sym) {
        use chc_model::{AttrSpec, Range, SchemaBuilder};
        let n_classes = rng.gen_range(3, 8);
        let n_tokens = rng.gen_range(2, 4);
        let mut b = SchemaBuilder::new();
        let tokens: Vec<Sym> =
            (0..n_tokens).map(|i| b.intern(&format!("t{i}"))).collect();
        let attr = b.intern("p");
        let mut classes = Vec::new();
        let mut declarers: Vec<ClassId> = Vec::new();
        for i in 0..n_classes {
            let id = b.declare(&format!("C{i}")).unwrap();
            // Random supers among earlier classes (keeps it acyclic).
            for &earlier in &classes {
                if rng.gen_bool(0.3) {
                    b.add_super(id, earlier).unwrap();
                }
            }
            classes.push(id);
            // Random declaration of p with a random nonempty token subset
            // or None.
            if rng.gen_bool(0.7) {
                let range = if rng.gen_bool(0.15) {
                    Range::None
                } else {
                    let subset: Vec<Sym> = tokens
                        .iter()
                        .copied()
                        .filter(|_| rng.gen_bool(0.5))
                        .collect();
                    if subset.is_empty() {
                        Range::enumeration([tokens[0]]).unwrap()
                    } else {
                        Range::enumeration(subset).unwrap()
                    }
                };
                let mut spec = AttrSpec::plain(range);
                // Random excuses pointing at earlier declarers.
                for &d in &declarers {
                    if rng.gen_bool(0.4) {
                        spec = spec.excusing(attr, d);
                    }
                }
                b.add_attr(id, "p", spec).unwrap();
                declarers.push(id);
            }
        }
        (b.build().unwrap(), attr)
    }

    #[test]
    fn randomized_oracle_agreement() {
        let mut rng = SplitMix64::new(0xB0B1DA);
        let mut total_cases = 0;
        for _ in 0..60 {
            let (schema, attr) = random_schema(&mut rng);
            let report = sweep(&schema, attr);
            assert!(report.agrees(), "disagreement on random schema: {report:?}");
            total_cases += report.cases;
        }
        assert!(total_cases > 500, "oracle exercised only {total_cases} cases");
    }
}
