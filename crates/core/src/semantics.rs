//! The candidate semantics of §5.2.
//!
//! The paper derives the meaning of `excuses` by trying and rejecting
//! three simpler rules before arriving at the correct one. All four are
//! implemented so the counterexamples can be demonstrated mechanically
//! (experiment E7), plus the excuse-blind *strict* rule as a baseline.
//!
//! For an object `x`, a constraint is the declaration of attribute `p`
//! with range `R` on class `B`; `(E, S)` ranges over the excusers of
//! `(B, p)` with their declared ranges:
//!
//! | Variant           | Rule |
//! |-------------------|------|
//! | `Strict`          | `x.p ∈ R` |
//! | `Broadened`       | `x.p ∈ R ∨ ∃(E,S). x.p ∈ S` |
//! | `MemberOfExcuser` | `x.p ∈ R ∨ ∃E. x ∈ E` |
//! | `ExactPartition`  | `(x ∉ ∪E ∧ x.p ∈ R) ∨ ∃(E,S). x ∈ E ∧ x.p ∈ S` |
//! | `Correct`         | `x.p ∈ R ∨ ∃(E,S). x ∈ E ∧ x.p ∈ S` |

use chc_model::{ClassId, ExcuserEntry, InstanceView, Oid, Range, Schema, Sym, Value};

/// Which §5.2 rule to evaluate constraints under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Semantics {
    /// Excuses ignored entirely; classic strict inheritance.
    Strict,
    /// First attempt: "broadens the allowed range of p for instances of
    /// the classes being contradicted". Rejected because it "permits even
    /// non-alcoholic patients to be treated by psychologists".
    Broadened,
    /// Second attempt: deviations allowed "only when the object also
    /// belongs to an excusing class" — but with no constraint from the
    /// excuser, so dagwood (Quaker ∧ Republican) "would be allowed to
    /// have even opinion 'Ostrich".
    MemberOfExcuser,
    /// Third attempt: "requires the excusing condition to hold exactly
    /// when an object belongs in an exceptional class". Rejected as overly
    /// restrictive: mutual excusers each "point a finger at the other".
    ExactPartition,
    /// The paper's final rule: each instance must obey each applicable
    /// constraint *unless* it belongs to a class that excuses it, in which
    /// case either the original or the excusing specification must hold.
    Correct,
}

impl Semantics {
    /// All five variants, for table-driven experiments.
    pub const ALL: [Semantics; 5] = [
        Semantics::Strict,
        Semantics::Broadened,
        Semantics::MemberOfExcuser,
        Semantics::ExactPartition,
        Semantics::Correct,
    ];

    /// A short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Semantics::Strict => "strict",
            Semantics::Broadened => "broadened",
            Semantics::MemberOfExcuser => "member-of-excuser",
            Semantics::ExactPartition => "exact-partition",
            Semantics::Correct => "correct (final)",
        }
    }
}

/// The audited outcome of one constraint evaluation: not just whether it
/// held, but *which branch of the rule* made it hold — the provenance
/// that the audit ledger (E11) records per executed run-time check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckVerdict {
    /// The value lies in the declared range itself (`x.p ∈ R`).
    Pass,
    /// The value escapes the declared range but an excuse admits it —
    /// a §6 "exceptional case", explicitly marked and retrievable.
    Excused {
        /// The class carrying the admitting `excuses` clause.
        excuser: ClassId,
        /// The attribute whose declaration on the excuser carries it.
        attr: Sym,
    },
    /// No branch of the rule admits the value.
    Violation,
}

impl CheckVerdict {
    /// Whether the constraint held (by either branch).
    pub fn holds(self) -> bool {
        !matches!(self, CheckVerdict::Violation)
    }
}

/// Evaluates whether object `x` satisfies the constraint `(on, attr, range)`
/// under the chosen semantics, consulting `view` for `x`'s memberships and
/// attribute values.
///
/// `value` is `x.attr` (callers pass [`Value::Absent`] when the attribute
/// is unset, which is exactly what a `None` range accepts).
#[allow(clippy::too_many_arguments)] // the paper's judgment has exactly these inputs
pub fn constraint_holds(
    schema: &Schema,
    view: &dyn InstanceView,
    semantics: Semantics,
    x: Oid,
    on: ClassId,
    attr: Sym,
    range: &Range,
    value: &Value,
) -> bool {
    constraint_verdict(schema, view, semantics, x, on, attr, range, value).holds()
}

/// As [`constraint_holds`], but reporting which branch of the rule
/// decided: the declared range, a specific excuse, or neither. For the
/// variants that consult excuses, the *first* admitting excuser (in
/// declaration order) is the one named — the same order the boolean
/// short-circuit always took.
#[allow(clippy::too_many_arguments)] // the paper's judgment has exactly these inputs
pub fn constraint_verdict(
    schema: &Schema,
    view: &dyn InstanceView,
    semantics: Semantics,
    x: Oid,
    on: ClassId,
    attr: Sym,
    range: &Range,
    value: &Value,
) -> CheckVerdict {
    decide(
        semantics,
        range.contains(schema, view, value),
        schema.excusers_of(on, attr),
        |e| view.is_instance(x, e.excuser),
        |e| schema.excuser_spec(e).range.contains(schema, view, value),
    )
}

/// The rule of `semantics` for one value: `in_r` is whether the value
/// lies in the declared range, and `excusers` are the constraint's
/// excusers in ascending order; `member` says whether the object
/// belongs to an excuser and `admits` whether its range holds the
/// value. The first excuser that admits the value under the rule is
/// the one named.
pub(crate) fn decide(
    semantics: Semantics,
    in_r: bool,
    excusers: &[ExcuserEntry],
    member: impl Fn(&ExcuserEntry) -> bool,
    admits: impl Fn(&ExcuserEntry) -> bool,
) -> CheckVerdict {
    let first = |pred: &dyn Fn(&ExcuserEntry) -> bool| {
        excusers
            .iter()
            .find(|e| pred(e))
            .map_or(CheckVerdict::Violation, |e| CheckVerdict::Excused {
                excuser: e.excuser,
                attr: e.attr,
            })
    };
    match semantics {
        Semantics::ExactPartition if excusers.iter().any(&member) => {
            first(&|e| member(e) && admits(e))
        }
        _ if in_r => CheckVerdict::Pass,
        Semantics::Strict | Semantics::ExactPartition => CheckVerdict::Violation,
        Semantics::Broadened => first(&admits),
        Semantics::MemberOfExcuser => first(&member),
        Semantics::Correct => first(&|e| member(e) && admits(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_model::{AttrSpec, Oid, SchemaBuilder};
    use std::collections::HashMap;

    /// A toy view: explicit memberships and values.
    struct Toy {
        schema_ancestor: HashMap<(Oid, ClassId), bool>,
        values: HashMap<(Oid, Sym), Value>,
    }

    impl InstanceView for Toy {
        fn is_instance(&self, oid: Oid, class: ClassId) -> bool {
            *self.schema_ancestor.get(&(oid, class)).unwrap_or(&false)
        }
        fn attr_value(&self, oid: Oid, attr: Sym) -> Option<&Value> {
            self.values.get(&(oid, attr))
        }
    }

    /// Builds the Quaker/Republican schema with mutual excuses (§5.1),
    /// returning (schema, person, quaker, republican, opinion, hawk, dove,
    /// ostrich).
    fn nixon() -> (Schema, ClassId, ClassId, ClassId, Sym, Sym, Sym, Sym) {
        let mut b = SchemaBuilder::new();
        let person = b.declare("Person").unwrap();
        let quaker = b.declare("Quaker").unwrap();
        let republican = b.declare("Republican").unwrap();
        b.add_super(quaker, person).unwrap();
        b.add_super(republican, person).unwrap();
        let hawk = b.intern("Hawk");
        let dove = b.intern("Dove");
        let ostrich = b.intern("Ostrich");
        let opinion = b.intern("opinion");
        b.add_attr(
            person,
            "opinion",
            AttrSpec::plain(Range::enumeration([hawk, dove, ostrich]).unwrap()),
        )
        .unwrap();
        b.add_attr(
            quaker,
            "opinion",
            AttrSpec::plain(Range::enumeration([dove]).unwrap()).excusing(opinion, republican),
        )
        .unwrap();
        b.add_attr(
            republican,
            "opinion",
            AttrSpec::plain(Range::enumeration([hawk]).unwrap()).excusing(opinion, quaker),
        )
        .unwrap();
        let s = b.build().unwrap();
        (s, person, quaker, republican, opinion, hawk, dove, ostrich)
    }

    fn dick_view(
        quaker: ClassId,
        republican: ClassId,
        person: ClassId,
        opinion: Sym,
        val: Sym,
    ) -> (Toy, Oid) {
        let dick = Oid::from_raw(1);
        let mut membership = HashMap::new();
        membership.insert((dick, quaker), true);
        membership.insert((dick, republican), true);
        membership.insert((dick, person), true);
        let mut values = HashMap::new();
        values.insert((dick, opinion), Value::Tok(val));
        (
            Toy {
                schema_ancestor: membership,
                values,
            },
            dick,
        )
    }

    /// Checks dick against *both* class-local constraints (Quaker.opinion
    /// and Republican.opinion).
    fn dick_ok(sem: Semantics, val_is: &str) -> bool {
        let (s, person, quaker, republican, opinion, hawk, dove, ostrich) = nixon();
        let val = match val_is {
            "hawk" => hawk,
            "dove" => dove,
            _ => ostrich,
        };
        let (view, dick) = dick_view(quaker, republican, person, opinion, val);
        let v = Value::Tok(val);
        let q_range = &s.declared_attr(quaker, opinion).unwrap().spec.range;
        let r_range = &s.declared_attr(republican, opinion).unwrap().spec.range;
        constraint_holds(&s, &view, sem, dick, quaker, opinion, q_range, &v)
            && constraint_holds(&s, &view, sem, dick, republican, opinion, r_range, &v)
    }

    #[test]
    fn correct_semantics_allows_hawk_or_dove_but_not_ostrich() {
        assert!(dick_ok(Semantics::Correct, "hawk"));
        assert!(dick_ok(Semantics::Correct, "dove"));
        assert!(!dick_ok(Semantics::Correct, "ostrich"));
    }

    #[test]
    fn member_of_excuser_wrongly_allows_ostrich() {
        // The paper's dagwood counterexample: "neither assertion would
        // place a condition on his opinion!"
        assert!(dick_ok(Semantics::MemberOfExcuser, "ostrich"));
    }

    #[test]
    fn exact_partition_wrongly_rejects_everything() {
        // "each class points a finger at the other, insisting that the
        // other's condition must hold" — hawk fails Republican's excuse
        // branch pointing at Quaker, dove fails Quaker's pointing at
        // Republican... and neither original branch is reachable.
        assert!(
            !dick_ok(Semantics::ExactPartition, "hawk")
                || !dick_ok(Semantics::ExactPartition, "dove")
        );
        assert!(!dick_ok(Semantics::ExactPartition, "ostrich"));
    }

    #[test]
    fn verdict_names_the_admitting_excuser() {
        let (s, person, quaker, republican, opinion, hawk, _dove, _ostrich) = nixon();
        let (view, dick) = dick_view(quaker, republican, person, opinion, hawk);
        let v = Value::Tok(hawk);
        // 'Hawk escapes Quaker's {'Dove}; Republican's excuse admits it.
        let q_range = &s.declared_attr(quaker, opinion).unwrap().spec.range;
        let verdict = constraint_verdict(
            &s,
            &view,
            Semantics::Correct,
            dick,
            quaker,
            opinion,
            q_range,
            &v,
        );
        assert_eq!(
            verdict,
            CheckVerdict::Excused {
                excuser: republican,
                attr: opinion
            }
        );
        assert!(verdict.holds());
        // A value inside the declared range is Pass, never Excused.
        let r_range = &s.declared_attr(republican, opinion).unwrap().spec.range;
        assert_eq!(
            constraint_verdict(
                &s,
                &view,
                Semantics::Correct,
                dick,
                republican,
                opinion,
                r_range,
                &v
            ),
            CheckVerdict::Pass
        );
        // Under Strict the same check is a Violation.
        assert_eq!(
            constraint_verdict(
                &s,
                &view,
                Semantics::Strict,
                dick,
                quaker,
                opinion,
                q_range,
                &v
            ),
            CheckVerdict::Violation
        );
    }

    #[test]
    fn verdicts_agree_with_constraint_holds_across_all_semantics() {
        let (s, person, quaker, republican, opinion, hawk, dove, ostrich) = nixon();
        for tok in [hawk, dove, ostrich] {
            let (view, dick) = dick_view(quaker, republican, person, opinion, tok);
            let v = Value::Tok(tok);
            for sem in Semantics::ALL {
                for on in [person, quaker, republican] {
                    let range = &s.declared_attr(on, opinion).unwrap().spec.range;
                    let held = constraint_holds(&s, &view, sem, dick, on, opinion, range, &v);
                    let verdict = constraint_verdict(&s, &view, sem, dick, on, opinion, range, &v);
                    assert_eq!(held, verdict.holds(), "{sem:?} on {on:?} tok {tok:?}");
                }
            }
        }
    }

    #[test]
    fn strict_semantics_rejects_everything_for_dick() {
        assert!(!dick_ok(Semantics::Strict, "hawk"));
        assert!(!dick_ok(Semantics::Strict, "dove"));
        assert!(!dick_ok(Semantics::Strict, "ostrich"));
    }

    #[test]
    fn broadened_leaks_to_non_members() {
        // A plain Person (neither Quaker nor Republican) may not hold just
        // any opinion under Correct, but Broadened lets the Quaker range
        // leak into... actually Person's own range is all three opinions;
        // the leak shows on the Quaker constraint applied to a pure Quaker
        // vs a non-Quaker — model the Alcoholic example shape instead:
        // the Quaker-only constraint `opinion ∈ {Dove}` evaluated for a
        // pure Quaker with opinion Hawk. Under Broadened it passes because
        // *Republican's* range {Hawk} excuses (Quaker, opinion) regardless
        // of membership; under Correct it fails (not a Republican).
        let (s, person, quaker, republican, opinion, hawk, _dove, _ostrich) = nixon();
        let pure_quaker = Oid::from_raw(2);
        let mut membership = HashMap::new();
        membership.insert((pure_quaker, quaker), true);
        membership.insert((pure_quaker, person), true);
        let mut values = HashMap::new();
        values.insert((pure_quaker, opinion), Value::Tok(hawk));
        let view = Toy {
            schema_ancestor: membership,
            values,
        };
        let q_range = &s.declared_attr(quaker, opinion).unwrap().spec.range;
        let v = Value::Tok(hawk);
        assert!(constraint_holds(
            &s,
            &view,
            Semantics::Broadened,
            pure_quaker,
            quaker,
            opinion,
            q_range,
            &v
        ));
        assert!(!constraint_holds(
            &s,
            &view,
            Semantics::Correct,
            pure_quaker,
            quaker,
            opinion,
            q_range,
            &v
        ));
        let _ = republican;
    }
}
