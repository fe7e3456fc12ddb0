//! Joint admissibility of constraint sets — the value-existence test
//! shared by the §5.1 checker and `chc-lint`'s incoherence lint (L001)
//! — and the [`Derivation`] provenance tree that justifies its answer.
//!
//! Under the §5.2 semantics, an instance of `class` satisfies a
//! constraint `(B, p: R)` either directly (`x.p ∈ R`) or through an
//! excuser `E` it belongs to (`x ∈ E ∧ x.p ∈ S_E`). The *allowed set* of
//! the constraint for instances of `class` is therefore `R` plus the
//! ranges of every excuser applicable to `class`; the class can carry a
//! value for `p` iff some single value lies in every constraint's allowed
//! set at once.
//!
//! The decision procedure is [`common_value_witness`], which returns
//! *what* value exists (a [`Witness`]) rather than a bare boolean;
//! [`admits_common_value`] is the boolean view the hot paths use, and
//! [`explain_admissibility`] packages the same decision as a
//! [`Derivation`]: which is-a edge contributed each constraint, which
//! excuse enlarged which allowed set, and either a witness value or the
//! empty-intersection verdict. Checker diagnostics (`chc check
//! --explain`), lint findings (L001–L003), and the validator's audit
//! ledger all justify their verdicts from this one structure.
//!
//! Entity-valued ranges (`Class(_)`, `AnyEntity`, refined records) are
//! treated as mutually overlapping — a first-order approximation matching
//! [`Range::overlaps`]: whether two entity classes share an instance is a
//! question about extents, not the schema.
//!
//! [`incoherent_sites`] answers the question for every site of a schema
//! at once. It settles most sites from their minimal declarer's §5.1
//! verdict and runs the decision procedure only on the rest.

use std::collections::BTreeSet;

use chc_model::{AttrDecl, AttrSpec, ClassId, Excuse, Range, Schema, Sym};
use chc_obs::json::JsonValue;

use crate::canon::{RangeId, RangeTable};
use crate::check::{minimal_declarers, Declarers};

/// Does some single value satisfy every constraint on `attr` inherited
/// by (or declared on) `class`, with applicable excuses folded in?
///
/// An unconstrained attribute is trivially satisfiable. A `false` answer
/// means `class` is *incoherent at `attr`*: no instance of the class can
/// carry any value, whatever the extent contains.
pub fn admits_common_value(schema: &Schema, class: ClassId, attr: Sym) -> bool {
    let constraints = schema.constraints_on(class, attr);
    admits_common_value_of(schema, class, attr, &constraints)
}

/// As [`admits_common_value`], over an already-collected constraint set
/// (the checker reuses the set it fetched for pairwise reporting).
pub fn admits_common_value_of(
    schema: &Schema,
    class: ClassId,
    attr: Sym,
    constraints: &[(ClassId, &AttrSpec)],
) -> bool {
    common_value_witness_of(schema, class, attr, constraints).is_some()
}

/// A concrete value (or value kind) witnessing that a constraint set is
/// jointly satisfiable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Witness {
    /// Every constraint admits absence (`None` ranges all around).
    Absent,
    /// Every constraint admits an arbitrary string.
    AnyString,
    /// Every constraint admits a pure record value.
    AnyRecord,
    /// Every constraint admits an entity reference (class-valued ranges
    /// are treated as mutually overlapping; see the module docs).
    AnyEntity,
    /// This enumeration token is in every allowed set.
    Token(Sym),
    /// This integer is in every allowed set.
    Int(i64),
}

impl Witness {
    /// A human-readable rendering (`'Dove`, `42`, `any string`, …).
    pub fn render(&self, schema: &Schema) -> String {
        match self {
            Witness::Absent => "absent".to_string(),
            Witness::AnyString => "any string".to_string(),
            Witness::AnyRecord => "any record".to_string(),
            Witness::AnyEntity => "an entity".to_string(),
            Witness::Token(t) => format!("'{}", schema.resolve(*t)),
            Witness::Int(i) => i.to_string(),
        }
    }
}

/// The witness-producing decision procedure behind
/// [`admits_common_value`]: `Some(w)` iff the constraints on `attr`
/// jointly admit a value, with `w` naming one such value (or value
/// kind). `None` means the intersection of the allowed sets is empty.
pub fn common_value_witness(schema: &Schema, class: ClassId, attr: Sym) -> Option<Witness> {
    let constraints = schema.constraints_on(class, attr);
    common_value_witness_of(schema, class, attr, &constraints)
}

/// As [`common_value_witness`], over an already-collected constraint set.
pub fn common_value_witness_of(
    schema: &Schema,
    class: ClassId,
    attr: Sym,
    constraints: &[(ClassId, &AttrSpec)],
) -> Option<Witness> {
    // Counted at the decision procedure itself (every caller funnels
    // through here): the total, the per-class attribution, and the
    // distinct `(class, attr)` pairs for the duplicate-work ratio.
    chc_obs::counter(chc_obs::names::SAT_CALLS, 1);
    if chc_obs::enabled() {
        chc_obs::labeled_counter(chc_obs::names::SAT_CALLS, class.index() as u64, 1);
        let key = ((class.index() as u64) << 32) | attr.index() as u64;
        chc_obs::distinct(chc_obs::names::SAT_CALLS_DISTINCT, key);
    }
    if constraints.is_empty() {
        return Some(Witness::AnyEntity);
    }

    // An admission test with early exit: does the constraint (b, raw)
    // admit some value matching `pred`, either via its own range or via an
    // excuser branch an instance of `class` is entitled to? Allowed sets
    // can carry hundreds of excuser ranges; they are never materialized.
    let admits = |b: ClassId, raw: &Range, pred: &dyn Fn(&Range) -> bool| {
        pred(raw)
            || schema
                .applicable_excusers(class, b, attr)
                .any(|e| pred(&schema.excuser_spec(e).range))
    };
    let all_admit = |pred: &dyn Fn(&Range) -> bool| {
        constraints
            .iter()
            .all(|(b, spec)| admits(*b, &spec.range, pred))
    };

    // Kind shortcuts (a common value of that kind certainly exists).
    if all_admit(&|r| matches!(r, Range::None)) {
        return Some(Witness::Absent);
    }
    if all_admit(&|r| matches!(r, Range::Str)) {
        return Some(Witness::AnyString);
    }
    if all_admit(&|r| matches!(r, Range::Record { base: None, .. })) {
        return Some(Witness::AnyRecord);
    }
    if all_admit(&|r| {
        matches!(
            r,
            Range::Class(_) | Range::AnyEntity | Range::Record { base: Some(_), .. }
        )
    }) {
        return Some(Witness::AnyEntity);
    }

    // Tokens: materialize the first constraint's admitted tokens once
    // (any common token must be among them), then filter candidates
    // through the remaining constraints with early-exit admission tests.
    let (b0, spec0) = constraints[0];
    let mut candidates: Vec<Sym> = {
        let mut toks = std::collections::BTreeSet::new();
        if let Range::Enum(set) = &spec0.range {
            toks.extend(set.iter().copied());
        }
        for e in schema.applicable_excusers(class, b0, attr) {
            if let Range::Enum(set) = &schema.excuser_spec(e).range {
                toks.extend(set.iter().copied());
            }
        }
        toks.into_iter().collect()
    };
    for (b, spec) in constraints.iter().skip(1) {
        if candidates.is_empty() {
            break;
        }
        candidates.retain(|t| {
            admits(
                *b,
                &spec.range,
                &|r| matches!(r, Range::Enum(set) if set.contains(t)),
            )
        });
    }
    if let Some(&t) = candidates.first() {
        return Some(Witness::Token(t));
    }

    // Integers: the first constraint's admitted intervals, clipped through
    // the rest (each further constraint's intervals are collected lazily).
    let mut intervals: Vec<(i64, i64)> = {
        let mut out = Vec::new();
        if let Range::Int { lo, hi } = spec0.range {
            out.push((lo, hi));
        }
        for e in schema.applicable_excusers(class, b0, attr) {
            if let Range::Int { lo, hi } = schema.excuser_spec(e).range {
                out.push((lo, hi));
            }
        }
        out
    };
    for (b, spec) in constraints.iter().skip(1) {
        if intervals.is_empty() {
            break;
        }
        let mut theirs: Vec<(i64, i64)> = Vec::new();
        if let Range::Int { lo, hi } = spec.range {
            theirs.push((lo, hi));
        }
        for e in schema.applicable_excusers(class, *b, attr) {
            if let Range::Int { lo, hi } = schema.excuser_spec(e).range {
                theirs.push((lo, hi));
            }
        }
        let mut next = Vec::new();
        for &(alo, ahi) in &intervals {
            for &(blo, bhi) in &theirs {
                let lo = alo.max(blo);
                let hi = ahi.min(bhi);
                if lo <= hi {
                    next.push((lo, hi));
                }
            }
        }
        next.sort();
        next.dedup();
        intervals = next;
    }
    intervals.first().map(|&(lo, _)| Witness::Int(lo))
}

/// Every `(class, attr)` site of `schema`, over each class's applicable
/// attributes, where [`admits_common_value`] is `false`.
///
/// A site whose declarers have one minimal element `M` carries exactly
/// the constraints of the site `(M, attr)`, and its instances may take
/// every excuse branch `M`'s instances may. Suppose `M`'s declaration
/// passes the §5.1 rule: for each other declarer `B`, `R_B ⊇ S_M` or some
/// excuser `E` with `M ⊆ E` has `S_E ⊇ S_M`. Then every value of `S_M`
/// lies in every allowed set of the site, so the site is coherent as soon
/// as `S_M` holds a value. That verdict is decided once per declaration,
/// on canonical ranges. Every other site (two or more minimal declarers,
/// a declaration that fails the rule, an empty `S_M`) goes to
/// [`common_value_witness_of`], which stays the one decision procedure.
pub fn incoherent_sites(schema: &Schema) -> BTreeSet<(ClassId, Sym)> {
    let ranges = RangeTable::new(schema);
    let declarers = Declarers::new(schema);
    // `subsumes` also lets a pure record type `[..]` cover a refined class
    // type `C [..]`. Their values are records and entities, which the
    // decision procedure keeps apart, so such a cover settles nothing.
    let covers = |sup: RangeId, sub: RangeId| {
        let pure_record = |id| matches!(ranges.range(id), Range::Record { base: None, .. });
        ranges.subsumes(sup, sub) && pure_record(sup) == pure_record(sub)
    };
    // Does `m`'s declaration `decl` settle the sites it is the minimal
    // declarer of? `m` is itself an applicable excuser of every constraint
    // its declaration excuses, and `S_M ⊇ S_M`.
    let settles = |m: ClassId, decl: &AttrDecl| {
        let (attr, s) = (decl.name, ranges.decl(m, decl.name));
        let excused_here = |b| decl.spec.excuses.contains(&Excuse { attr, on: b });
        inhabited(&decl.spec.range)
            && declarers.on(m, attr).into_iter().all(|b| {
                b == m
                    || covers(ranges.decl(b, attr), s)
                    || excused_here(b)
                    || ranges
                        .applicable_excusers(m, b, attr)
                        .any(|(_, e)| covers(e, s))
            })
    };
    // Indexed like `schema.class(m).attrs`.
    let settling: Vec<Vec<bool>> = schema
        .class_ids()
        .map(|m| {
            let attrs = &schema.class(m).attrs;
            attrs.iter().map(|d| settles(m, d)).collect()
        })
        .collect();
    let settled = |m: ClassId, attr: Sym| {
        let attrs = &schema.class(m).attrs;
        let at = attrs.binary_search_by_key(&attr, |d| d.name);
        settling[m.index()][at.expect("declarer")]
    };

    let mut incoherent = BTreeSet::new();
    for class in schema.class_ids() {
        for attr in schema.applicable_attrs(class) {
            // A class declaring `attr` lies below every other declarer.
            if schema.declared_attr(class, attr).is_some() && settled(class, attr) {
                continue;
            }
            let on = declarers.on(class, attr);
            let mut minimal = minimal_declarers(schema, &on);
            if let (Some(m), None) = (minimal.next(), minimal.next()) {
                if settled(m, attr) {
                    continue;
                }
            }
            let constraints: Vec<_> = on
                .iter()
                .map(|&b| (b, &schema.declared_attr(b, attr).expect("declarer").spec))
                .collect();
            if common_value_witness_of(schema, class, attr, &constraints).is_none() {
                incoherent.insert((class, attr));
            }
        }
    }
    incoherent
}

/// Whether `range` holds any value. [`Range::int`] and
/// [`Range::enumeration`] refuse reversed intervals and empty
/// enumerations, but the variants are public and can be built directly.
fn inhabited(range: &Range) -> bool {
    match range {
        Range::Int { lo, hi } => lo <= hi,
        Range::Enum(set) => !set.is_empty(),
        _ => true,
    }
}

/// One excuse branch enlarging a constraint's allowed set for instances
/// of the derivation's subject class.
#[derive(Debug, Clone, PartialEq)]
pub struct ExcuseNode {
    /// The class carrying the `excuses` clause.
    pub excuser: ClassId,
    /// The attribute whose declaration on the excuser carries it.
    pub attr: Sym,
    /// The excuser's declared range — what the branch admits.
    pub range: Range,
}

/// One constraint contributing to the subject's allowed-set
/// intersection, with the is-a path that imports it.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstraintNode {
    /// The class whose declaration states the constraint.
    pub declarer: ClassId,
    /// The declared range.
    pub range: Range,
    /// An is-a chain from the subject class to the declarer, inclusive
    /// at both ends (`[subject]` alone when declared locally). One
    /// shortest path is reported when several exist.
    pub path: Vec<ClassId>,
    /// Excuse branches applicable to the subject class that enlarge
    /// this constraint's allowed set (§5.2: `x ∈ E ∧ x.p ∈ S_E`).
    pub excuses: Vec<ExcuseNode>,
}

/// How a derivation concludes.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The constraints jointly admit this witness value.
    Admits(Witness),
    /// The intersection of the allowed sets is empty: the subject class
    /// is incoherent at the attribute.
    Empty,
    /// An excuse that can never fire: the excuser and the excused class
    /// share no descendant, so no instance is ever entitled to the
    /// branch (L002's finding).
    NoSharedDescendant {
        /// The class carrying the excuse.
        excuser: ClassId,
        /// The class whose constraint it claims to excuse.
        on: ClassId,
    },
}

/// A provenance tree justifying an admissibility verdict: for a subject
/// `(class, attr)`, every contributing constraint with its is-a path
/// and applicable excuse branches, plus the conclusion. Built by
/// [`explain_admissibility`]; rendered by `chc check --explain` and
/// embedded in L001–L003 lint findings.
#[derive(Debug, Clone, PartialEq)]
pub struct Derivation {
    /// The class whose instances are being reasoned about.
    pub class: ClassId,
    /// The attribute under scrutiny.
    pub attr: Sym,
    /// Every constraint on `attr` the subject inherits or declares.
    pub constraints: Vec<ConstraintNode>,
    /// The conclusion, consistent with [`admits_common_value`].
    pub verdict: Verdict,
}

impl Derivation {
    /// Multi-line human-readable rendering (used by `chc check
    /// --explain`).
    pub fn render(&self, schema: &Schema) -> String {
        let mut out = format!(
            "derivation for `{}.{}`:\n",
            schema.class_name(self.class),
            schema.resolve(self.attr)
        );
        for c in &self.constraints {
            let attr = schema.resolve(self.attr);
            let via = if c.path.len() <= 1 {
                "declared locally".to_string()
            } else {
                let names: Vec<&str> = c.path.iter().map(|p| schema.class_name(*p)).collect();
                format!("via {}", names.join(" is-a "))
            };
            out.push_str(&format!(
                "  constraint `{attr}: {}` on `{}` ({via})\n",
                c.range.render(schema),
                schema.class_name(c.declarer),
            ));
            for e in &c.excuses {
                out.push_str(&format!(
                    "    + excused by `{}.{}: {}` (allowed set grows)\n",
                    schema.class_name(e.excuser),
                    schema.resolve(e.attr),
                    e.range.render(schema),
                ));
            }
        }
        match &self.verdict {
            Verdict::Admits(w) => out.push_str(&format!(
                "  verdict: satisfiable — admits {}\n",
                w.render(schema)
            )),
            Verdict::Empty => out.push_str(
                "  verdict: unsatisfiable — the intersection of the allowed sets is empty\n",
            ),
            Verdict::NoSharedDescendant { excuser, on } => out.push_str(&format!(
                "  verdict: excuse can never apply — `{}` and `{}` share no descendant\n",
                schema.class_name(*excuser),
                schema.class_name(*on),
            )),
        }
        out
    }

    /// The derivation as a [`JsonValue`] object (the shape embedded in
    /// lint findings; see docs/OBSERVABILITY.md).
    pub fn to_json(&self, schema: &Schema) -> JsonValue {
        let constraints = JsonValue::array(self.constraints.iter().map(|c| {
            JsonValue::object([
                ("declarer", JsonValue::string(schema.class_name(c.declarer))),
                ("range", JsonValue::string(&c.range.render(schema))),
                (
                    "path",
                    JsonValue::array(
                        c.path
                            .iter()
                            .map(|p| JsonValue::string(schema.class_name(*p))),
                    ),
                ),
                (
                    "excuses",
                    JsonValue::array(c.excuses.iter().map(|e| {
                        JsonValue::object([
                            ("excuser", JsonValue::string(schema.class_name(e.excuser))),
                            ("attr", JsonValue::string(schema.resolve(e.attr))),
                            ("range", JsonValue::string(&e.range.render(schema))),
                        ])
                    })),
                ),
            ])
        }));
        let verdict = match &self.verdict {
            Verdict::Admits(w) => JsonValue::object([
                ("kind", JsonValue::string("admits")),
                ("witness", JsonValue::string(&w.render(schema))),
            ]),
            Verdict::Empty => JsonValue::object([("kind", JsonValue::string("empty"))]),
            Verdict::NoSharedDescendant { excuser, on } => JsonValue::object([
                ("kind", JsonValue::string("dead-excuse")),
                ("excuser", JsonValue::string(schema.class_name(*excuser))),
                ("on", JsonValue::string(schema.class_name(*on))),
            ]),
        };
        JsonValue::object([
            ("class", JsonValue::string(schema.class_name(self.class))),
            ("attr", JsonValue::string(schema.resolve(self.attr))),
            ("constraints", constraints),
            ("verdict", verdict),
        ])
    }
}

/// One shortest is-a chain from `from` down to its ancestor `to`,
/// inclusive at both ends (BFS over direct supers).
fn isa_path(schema: &Schema, from: ClassId, to: ClassId) -> Vec<ClassId> {
    if from == to {
        return vec![from];
    }
    let mut prev: std::collections::BTreeMap<ClassId, ClassId> = std::collections::BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(c) = queue.pop_front() {
        for &s in schema.supers(c) {
            if s != from && !prev.contains_key(&s) {
                prev.insert(s, c);
                if s == to {
                    let mut path = vec![to];
                    let mut cur = to;
                    while cur != from {
                        cur = prev[&cur];
                        path.push(cur);
                    }
                    path.reverse();
                    return path;
                }
                queue.push_back(s);
            }
        }
    }
    // `to` is not an ancestor (callers pass declarers from
    // `constraints_on`, so this is defensive): report both endpoints.
    vec![from, to]
}

/// Builds the full [`Derivation`] for `(class, attr)`: the same decision
/// [`admits_common_value`] makes, with its evidence attached.
pub fn explain_admissibility(schema: &Schema, class: ClassId, attr: Sym) -> Derivation {
    let constraints = schema.constraints_on(class, attr);
    let witness = common_value_witness_of(schema, class, attr, &constraints);
    let nodes = constraints
        .iter()
        .map(|&(declarer, spec)| ConstraintNode {
            declarer,
            range: spec.range.clone(),
            path: isa_path(schema, class, declarer),
            excuses: schema
                .applicable_excusers(class, declarer, attr)
                .map(|e| ExcuseNode {
                    excuser: e.excuser,
                    attr: e.attr,
                    range: schema.excuser_spec(e).range.clone(),
                })
                .collect(),
        })
        .collect();
    Derivation {
        class,
        attr,
        constraints: nodes,
        verdict: match witness {
            Some(w) => Verdict::Admits(w),
            None => Verdict::Empty,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_sdl::compile;

    fn sat(src: &str, class: &str, attr: &str) -> bool {
        let schema = compile(src).unwrap();
        let c = schema.class_by_name(class).unwrap();
        let a = schema.sym(attr).unwrap();
        admits_common_value(&schema, c, a)
    }

    fn explain(src: &str, class: &str, attr: &str) -> (chc_model::Schema, Derivation) {
        let schema = compile(src).unwrap();
        let c = schema.class_by_name(class).unwrap();
        let a = schema.sym(attr).unwrap();
        let d = explain_admissibility(&schema, c, a);
        (schema, d)
    }

    #[test]
    fn single_constraints_are_satisfiable() {
        let src = "
            class T with a: 1..10; b: {'x}; c: String; d: None; e: T;
        ";
        for attr in ["a", "b", "c", "d", "e"] {
            assert!(sat(src, "T", attr), "{attr}");
        }
    }

    #[test]
    fn disjoint_kinds_are_unsatisfiable() {
        let src = "
            class A with p: 1..10;
            class B with p: {'tok};
            class AB is-a A, B;
        ";
        assert!(!sat(src, "AB", "p"));
        assert!(sat(src, "A", "p"));
    }

    #[test]
    fn excuses_enlarge_the_allowed_set() {
        let src = "
            class A with p: 1..10;
            class B is-a A with p: 20..30 excuses p on A;
        ";
        assert!(sat(src, "B", "p"));
        let without = "
            class C with p: 20..30;
            class A with p: 1..10;
            class B is-a A with p: 20..30 excuses p on C;
        ";
        // The excuse targets an unrelated class, so it cannot lift the
        // inherited constraint from A; 20..30 ∩ 1..10 = ∅.
        assert!(!sat(without, "B", "p"));
    }

    #[test]
    fn unconstrained_attr_is_satisfiable() {
        let schema = compile("class T").unwrap();
        let t = schema.class_by_name("T").unwrap();
        let mut b = chc_model::SchemaBuilder::from_schema(&schema);
        let ghost = b.intern("ghost");
        drop(b);
        assert!(admits_common_value(&schema, t, ghost));
    }

    #[test]
    fn witnesses_name_a_concrete_common_value() {
        let schema = compile(
            "
            class A with p: 1..10; q: {'a, 'b}; r: String;
            class B is-a A with p: 5..20; q: {'b, 'c};
            ",
        )
        .unwrap();
        let b = schema.class_by_name("B").unwrap();
        let w = |attr: &str| common_value_witness(&schema, b, schema.sym(attr).unwrap()).unwrap();
        assert_eq!(w("p"), Witness::Int(5), "lowest point of 1..10 ∩ 5..20");
        let tok = match w("q") {
            Witness::Token(t) => schema.resolve(t).to_string(),
            other => panic!("expected token witness, got {other:?}"),
        };
        assert_eq!(tok, "b");
        assert_eq!(w("r"), Witness::AnyString);
    }

    #[test]
    fn derivation_names_conflicting_declarers_and_paths() {
        let src = "
            class Dove_Keeper with opinion: {'Dove};
            class Hawk_Club with opinion: {'Hawk};
            class Member is-a Dove_Keeper, Hawk_Club with badge: String;
        ";
        let (schema, d) = explain(src, "Member", "opinion");
        assert_eq!(d.verdict, Verdict::Empty);
        let declarers: Vec<&str> = d
            .constraints
            .iter()
            .map(|c| schema.class_name(c.declarer))
            .collect();
        assert!(declarers.contains(&"Dove_Keeper"));
        assert!(declarers.contains(&"Hawk_Club"));
        for c in &d.constraints {
            assert_eq!(c.path.first(), Some(&d.class), "path starts at the subject");
            assert_eq!(
                c.path.last(),
                Some(&c.declarer),
                "path ends at the declarer"
            );
        }
        let text = d.render(&schema);
        assert!(text.contains("Dove_Keeper"), "{text}");
        assert!(text.contains("Hawk_Club"), "{text}");
        assert!(text.contains("unsatisfiable"), "{text}");
    }

    #[test]
    fn derivation_attaches_the_applicable_excuse_branch() {
        let src = "
            class A with p: 1..10;
            class B is-a A with p: 20..30 excuses p on A;
        ";
        let (schema, d) = explain(src, "B", "p");
        // B's local 20..30 intersected with A's excused allowed set
        // ({1..10} ∪ {20..30}) leaves 20..30; the witness is its floor.
        assert_eq!(d.verdict, Verdict::Admits(Witness::Int(20)));
        let a = schema.class_by_name("A").unwrap();
        let b = schema.class_by_name("B").unwrap();
        let on_a = d.constraints.iter().find(|c| c.declarer == a).unwrap();
        assert_eq!(on_a.excuses.len(), 1);
        assert_eq!(on_a.excuses[0].excuser, b);
        assert_eq!(on_a.excuses[0].range, Range::Int { lo: 20, hi: 30 });
        let text = d.render(&schema);
        assert!(text.contains("excused by `B.p: 20..30`"), "{text}");
    }

    #[test]
    fn derivation_verdict_agrees_with_the_boolean_decision() {
        let src = "
            class A with p: 1..10; q: {'x};
            class B is-a A with p: 20..30; q: {'x, 'y};
        ";
        let schema = compile(src).unwrap();
        for class in schema.class_ids() {
            for attr in ["p", "q"] {
                let a = schema.sym(attr).unwrap();
                let d = explain_admissibility(&schema, class, a);
                assert_eq!(
                    matches!(d.verdict, Verdict::Admits(_)),
                    admits_common_value(&schema, class, a),
                    "{}.{attr}",
                    schema.class_name(class)
                );
            }
        }
    }

    #[test]
    fn an_uninhabited_range_is_not_settled_by_its_declaration() {
        // `Range::enumeration` and `Range::int` refuse these ranges; the
        // public variants do not. `T.p` passes §5.1 vacuously (nothing
        // above it), and `U.q`'s `5..1` is subsumed by `0..10`, yet
        // neither declaration holds a value.
        let mut b = chc_model::SchemaBuilder::new();
        let t = b.declare("T").unwrap();
        let u = b.declare("U").unwrap();
        b.add_super(u, t).unwrap();
        let empty = Range::Enum(BTreeSet::new());
        b.add_attr(t, "p", AttrSpec::plain(empty)).unwrap();
        b.add_attr(t, "q", AttrSpec::plain(Range::Int { lo: 0, hi: 10 }))
            .unwrap();
        b.add_attr(u, "q", AttrSpec::plain(Range::Int { lo: 5, hi: 1 }))
            .unwrap();
        let schema = b.build().unwrap();
        let swept = incoherent_sites(&schema);
        let names: Vec<String> = swept
            .iter()
            .map(|&(c, a)| format!("{}.{}", schema.class_name(c), schema.resolve(a)))
            .collect();
        assert_eq!(names, ["T.p", "U.p", "U.q"]);
        for class in schema.class_ids() {
            for attr in schema.applicable_attrs(class) {
                let incoherent = swept.contains(&(class, attr));
                assert_eq!(incoherent, !admits_common_value(&schema, class, attr));
            }
        }
    }

    #[test]
    fn derivation_json_round_trips_through_the_parser() {
        let src = "
            class Dove_Keeper with opinion: {'Dove};
            class Hawk_Club with opinion: {'Hawk};
            class Member is-a Dove_Keeper, Hawk_Club;
        ";
        let (schema, d) = explain(src, "Member", "opinion");
        let json = d.to_json(&schema);
        let parsed = chc_obs::json::parse(&json.render()).expect("renders valid JSON");
        assert_eq!(parsed.get("class").and_then(|v| v.as_str()), Some("Member"));
        let verdict = parsed.get("verdict").unwrap();
        assert_eq!(verdict.get("kind").and_then(|v| v.as_str()), Some("empty"));
        assert_eq!(
            parsed
                .get("constraints")
                .and_then(|v| v.as_array())
                .map(|a| a.len()),
            Some(2)
        );
    }
}
