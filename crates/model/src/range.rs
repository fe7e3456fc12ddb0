//! Attribute ranges (value constraints) and attribute specifications.
//!
//! A class definition such as
//!
//! ```text
//! class Alcoholic is-a Patient with
//!     treatedBy : Psychologist excuses treatedBy on Patient;
//! ```
//!
//! attaches to attribute `treatedBy` an [`AttrSpec`]: a [`Range`]
//! (`Psychologist`) plus zero or more [`Excuse`] clauses. Ranges cover the
//! paper's full constraint vocabulary: integer intervals (`1..120`),
//! strings, enumerations (`{'AL,…,'WV}`), class references, in-line record
//! types (`[street: String; …]`), refined class types
//! (`Physician [certifiedBy: {'ABO}]`, §2b), the `AnyEntity` top, and the
//! `None` range marking an attribute *inapplicable* (§4.1).

use std::collections::BTreeSet;

use crate::class::ClassId;
use crate::error::ModelError;
use crate::schema::Schema;
use crate::symbol::Sym;
use crate::value::Value;
use crate::view::InstanceView;

/// An `excuses p on C` clause: the declaring attribute specification
/// excuses the constraint identified by the pair `(on, attr)` (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Excuse {
    /// The attribute whose constraint is excused.
    pub attr: Sym,
    /// The class on which that constraint was stated.
    pub on: ClassId,
}

/// A named field of an in-line record type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FieldSpec {
    /// Field name.
    pub name: Sym,
    /// Constraint (and possibly nested excuses, §5.6) for the field.
    pub spec: AttrSpec,
}

/// The range of values an attribute may take.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Range {
    /// A closed integer interval, e.g. `16..65`.
    Int {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Any character string.
    Str,
    /// A finite set of enumeration tokens, e.g. `{'Hawk, 'Dove, 'Ostrich}`.
    Enum(BTreeSet<Sym>),
    /// Instances of a named class.
    Class(ClassId),
    /// Any entity whatsoever (the `ANYENTITY` top of §5.5).
    AnyEntity,
    /// An in-line record or refined class type (§2b, §5.6). With
    /// `base: Some(c)` this is `C [f1: R1; …]` — entities of class `c`
    /// whose listed attributes satisfy the refinements. With `base: None`
    /// it is a pure record type `[f1: R1; …]` holding record values.
    Record {
        /// The refined class, if any.
        base: Option<ClassId>,
        /// Refined / additional fields, sorted by field name.
        fields: Vec<FieldSpec>,
    },
    /// The attribute is inapplicable; the only permitted value is
    /// [`Value::Absent`] (§4.1: `ward` on `Ambulatory_Patient`).
    None,
}

impl Range {
    /// Builds an integer interval range, validating `lo <= hi`.
    pub fn int(lo: i64, hi: i64) -> Result<Range, ModelError> {
        if lo > hi {
            Err(ModelError::InvalidIntRange { lo, hi })
        } else {
            Ok(Range::Int { lo, hi })
        }
    }

    /// Builds an enumeration range, validating non-emptiness.
    pub fn enumeration<I: IntoIterator<Item = Sym>>(tokens: I) -> Result<Range, ModelError> {
        let set: BTreeSet<Sym> = tokens.into_iter().collect();
        if set.is_empty() {
            Err(ModelError::EmptyEnum)
        } else {
            Ok(Range::Enum(set))
        }
    }

    /// Builds a record range, validating field-name uniqueness and sorting
    /// fields by name.
    pub fn record(
        schema_names: &impl Fn(Sym) -> String,
        base: Option<ClassId>,
        mut fields: Vec<FieldSpec>,
    ) -> Result<Range, ModelError> {
        fields.sort_by_key(|f| f.name);
        for w in fields.windows(2) {
            if w[0].name == w[1].name {
                return Err(ModelError::DuplicateField {
                    field: schema_names(w[0].name),
                });
            }
        }
        Ok(Range::Record { base, fields })
    }

    /// Whether `value` belongs to this range, consulting `view` for class
    /// membership and attribute values of referenced entities.
    // `schema` is threaded for API symmetry with `subsumes`/`overlaps` and
    // future range forms that need it at the leaves.
    #[allow(clippy::only_used_in_recursion)]
    pub fn contains(&self, schema: &Schema, view: &dyn InstanceView, value: &Value) -> bool {
        match (self, value) {
            (Range::Int { lo, hi }, Value::Int(i)) => lo <= i && i <= hi,
            (Range::Str, Value::Str(_)) => true,
            (Range::Enum(set), Value::Tok(t)) => set.contains(t),
            (Range::Class(c), Value::Obj(o)) => view.is_instance(*o, *c),
            (Range::AnyEntity, Value::Obj(_)) => true,
            (Range::None, Value::Absent) => true,
            (
                Range::Record {
                    base: Some(c),
                    fields,
                },
                Value::Obj(o),
            ) => {
                view.is_instance(*o, *c)
                    && fields.iter().all(|f| {
                        let v = view.attr_value(*o, f.name).unwrap_or(Value::Absent);
                        f.spec.range.contains(schema, view, &v)
                    })
            }
            (Range::Record { base: None, fields }, Value::Record(_)) => fields.iter().all(|f| {
                let v = value.field(f.name).cloned().unwrap_or(Value::Absent);
                f.spec.range.contains(schema, view, &v)
            }),
            _ => false,
        }
    }

    /// Structural subsumption: does every value of `sub` belong to `self`?
    ///
    /// This is the *strict specialization* test of §3d ("the age
    /// restrictions of Employees must imply the age restrictions of
    /// Persons"). It is sound but deliberately ignores excuse clauses —
    /// folding excuses into subtyping is the job of `chc-types`'
    /// conditional types.
    pub fn subsumes(&self, schema: &Schema, sub: &Range) -> bool {
        // One query per top-level decision; record-field recursion goes
        // through `subsumes_structurally` so nested fields don't inflate
        // E3/E8.
        chc_obs::counter(chc_obs::names::SUBTYPE_QUERIES, 1);
        if chc_obs::enabled() {
            chc_obs::labeled_counter_scoped(chc_obs::names::SUBTYPE_QUERIES, 1);
            chc_obs::distinct(
                chc_obs::names::SUBTYPE_QUERIES_DISTINCT,
                self.subsumption_key(sub),
            );
        }
        self.subsumes_structurally(schema, sub)
    }

    /// The structural key of the `(self, sub)` subsumption question that
    /// feeds the `subtype.queries.distinct` duplicate-work counter. The
    /// tag keeps range pairs disjoint from `chc_types`' Ty/CondTy pairs
    /// under the same counter name.
    pub fn subsumption_key(&self, sub: &Range) -> u64 {
        use std::hash::{Hash as _, Hasher as _};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        0x52u8.hash(&mut h);
        self.hash(&mut h);
        sub.hash(&mut h);
        h.finish()
    }

    /// The decision behind [`Range::subsumes`] without its per-query
    /// accounting, for callers that count their queries in batches (the
    /// checker reports them once per class).
    pub fn subsumes_structurally(&self, schema: &Schema, sub: &Range) -> bool {
        match (self, sub) {
            (Range::Int { lo, hi }, Range::Int { lo: l2, hi: h2 }) => lo <= l2 && h2 <= hi,
            (Range::Str, Range::Str) => true,
            (Range::Enum(sup), Range::Enum(sub)) => sub.is_subset(sup),
            (Range::Class(b), Range::Class(a)) => schema.is_subclass(*a, *b),
            (Range::Class(b), Range::Record { base: Some(a), .. }) => schema.is_subclass(*a, *b),
            (Range::AnyEntity, Range::Class(_))
            | (Range::AnyEntity, Range::AnyEntity)
            | (Range::AnyEntity, Range::Record { base: Some(_), .. }) => true,
            (Range::None, Range::None) => true,
            (
                Range::Record {
                    base: sup_base,
                    fields: sup_fields,
                },
                Range::Record {
                    base: sub_base,
                    fields: sub_fields,
                },
            ) => {
                let base_ok = match (sup_base, sub_base) {
                    (None, _) => true,
                    (Some(b), Some(a)) => schema.is_subclass(*a, *b),
                    (Some(_), None) => false,
                };
                // Record subtyping à la Cardelli: the subtype must constrain
                // every field the supertype constrains, at least as tightly.
                // A field refined on a *class* base is also constrained by the
                // base class's own declaration, but that check belongs to the
                // core checker; structurally we require explicit coverage.
                base_ok
                    && sup_fields.iter().all(|sf| {
                        sub_fields
                            .iter()
                            .find(|f| f.name == sf.name)
                            .map(|f| sf.spec.range.subsumes_structurally(schema, &f.spec.range))
                            .unwrap_or(false)
                    })
            }
            (
                Range::Record {
                    base: Some(b),
                    fields,
                },
                Range::Class(a),
            ) => {
                // `C [..]` subsumes a plain class only if the refinement adds
                // nothing, i.e. there are no refined fields.
                fields.is_empty() && schema.is_subclass(*a, *b)
            }
            _ => false,
        }
    }

    /// A compact, single-line rendering in SDL syntax, for diagnostics
    /// and the audit ledger (record fields are rendered in-line rather
    /// than with the pretty-printer's indentation).
    pub fn render(&self, schema: &Schema) -> String {
        match self {
            Range::Int { lo, hi } if *lo == i64::MIN && *hi == i64::MAX => "Integer".to_string(),
            Range::Int { lo, hi } => format!("{lo}..{hi}"),
            Range::Str => "String".to_string(),
            Range::None => "None".to_string(),
            Range::AnyEntity => "AnyEntity".to_string(),
            Range::Enum(toks) => {
                let mut names: Vec<String> = toks
                    .iter()
                    .map(|t| format!("'{}", schema.resolve(*t)))
                    .collect();
                names.sort();
                format!("{{{}}}", names.join(", "))
            }
            Range::Class(c) => schema.class_name(*c).to_string(),
            Range::Record { base, fields } => {
                let mut out = String::new();
                if let Some(b) = base {
                    out.push_str(schema.class_name(*b));
                    out.push(' ');
                }
                out.push('[');
                let rendered: Vec<String> = fields
                    .iter()
                    .map(|f| {
                        format!(
                            "{}: {}",
                            schema.resolve(f.name),
                            f.spec.range.render(schema)
                        )
                    })
                    .collect();
                out.push_str(&rendered.join("; "));
                out.push(']');
                out
            }
        }
    }

    /// Whether two ranges can possibly share a value (a cheap,
    /// over-approximate disjointness test used in diagnostics).
    pub fn overlaps(&self, schema: &Schema, other: &Range) -> bool {
        match (self, other) {
            (Range::Int { lo, hi }, Range::Int { lo: l2, hi: h2 }) => lo <= h2 && l2 <= hi,
            (Range::Str, Range::Str) => true,
            (Range::Enum(a), Range::Enum(b)) => a.intersection(b).next().is_some(),
            (Range::Class(a), Range::Class(b)) => {
                // Two classes overlap unless provably disjoint; without
                // disjointness declarations, related classes certainly
                // overlap and unrelated ones may.
                schema.is_subclass(*a, *b) || schema.is_subclass(*b, *a)
            }
            // Refined classes overlap like their bases (refinements can
            // only shrink, never provably to empty).
            (Range::Class(a), Range::Record { base: Some(b), .. })
            | (Range::Record { base: Some(a), .. }, Range::Class(b))
            | (Range::Record { base: Some(a), .. }, Range::Record { base: Some(b), .. }) => {
                schema.is_subclass(*a, *b) || schema.is_subclass(*b, *a)
            }
            (Range::Record { base: None, .. }, Range::Record { base: None, .. }) => true,
            (Range::AnyEntity, r) | (r, Range::AnyEntity) => matches!(
                r,
                Range::Class(_) | Range::AnyEntity | Range::Record { base: Some(_), .. }
            ),
            (Range::None, Range::None) => true,
            _ => false,
        }
    }
}

/// The full specification an attribute declaration attaches: a range plus
/// the excuse clauses of §5.1.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AttrSpec {
    /// The constraint on the attribute's values.
    pub range: Range,
    /// Constraints on *other* classes that this declaration excuses.
    pub excuses: Vec<Excuse>,
}

impl AttrSpec {
    /// A specification with no excuses.
    pub fn plain(range: Range) -> Self {
        AttrSpec {
            range,
            excuses: Vec::new(),
        }
    }

    /// Adds an `excuses attr on class` clause.
    pub fn excusing(mut self, attr: Sym, on: ClassId) -> Self {
        self.excuses.push(Excuse { attr, on });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SchemaBuilder;
    use crate::view::NoInstances;

    fn toy() -> (Schema, ClassId, ClassId, ClassId) {
        let mut b = SchemaBuilder::new();
        let person = b.declare("Person").unwrap();
        let physician = b.declare("Physician").unwrap();
        let oncologist = b.declare("Oncologist").unwrap();
        b.add_super(physician, person).unwrap();
        b.add_super(oncologist, physician).unwrap();
        (b.build().unwrap(), person, physician, oncologist)
    }

    #[test]
    fn int_range_validation_and_containment() {
        assert!(Range::int(10, 5).is_err());
        let r = Range::int(16, 65).unwrap();
        let (schema, ..) = toy();
        let v = NoInstances;
        assert!(r.contains(&schema, &v, &Value::Int(16)));
        assert!(r.contains(&schema, &v, &Value::Int(65)));
        assert!(!r.contains(&schema, &v, &Value::Int(15)));
        assert!(!r.contains(&schema, &v, &Value::str("16")));
    }

    #[test]
    fn enum_containment_and_subset_subsumption() {
        let (schema, ..) = toy();
        let mut b = SchemaBuilder::new(); // only for interning convenience
        let hawk = b.intern("Hawk");
        let dove = b.intern("Dove");
        let ostrich = b.intern("Ostrich");
        let all = Range::enumeration([hawk, dove, ostrich]).unwrap();
        let doves = Range::enumeration([dove]).unwrap();
        assert!(all.subsumes(&schema, &doves));
        assert!(!doves.subsumes(&schema, &all));
        assert!(doves.contains(&schema, &NoInstances, &Value::Tok(dove)));
        assert!(!doves.contains(&schema, &NoInstances, &Value::Tok(hawk)));
        assert!(Range::enumeration(std::iter::empty()).is_err());
    }

    #[test]
    fn class_range_subsumption_follows_is_a() {
        let (schema, person, physician, oncologist) = toy();
        let rp = Range::Class(physician);
        let ro = Range::Class(oncologist);
        let rper = Range::Class(person);
        assert!(rp.subsumes(&schema, &ro));
        assert!(rper.subsumes(&schema, &rp));
        assert!(!ro.subsumes(&schema, &rp));
        assert!(Range::AnyEntity.subsumes(&schema, &rp));
        assert!(!rp.subsumes(&schema, &Range::AnyEntity));
    }

    #[test]
    fn none_range_only_holds_absent_and_is_not_a_specialization() {
        let (schema, _, physician, _) = toy();
        let none = Range::None;
        assert!(none.contains(&schema, &NoInstances, &Value::Absent));
        assert!(!none.contains(&schema, &NoInstances, &Value::Int(1)));
        // §4.1: inapplicability is a contradiction, not a specialization.
        assert!(!Range::Class(physician).subsumes(&schema, &none));
        assert!(none.subsumes(&schema, &none));
    }

    #[test]
    fn int_overlap() {
        let (schema, ..) = toy();
        let a = Range::int(1, 10).unwrap();
        let b = Range::int(10, 20).unwrap();
        let c = Range::int(11, 20).unwrap();
        assert!(a.overlaps(&schema, &b));
        assert!(!a.overlaps(&schema, &c));
    }

    #[test]
    fn record_range_width_and_depth_subtyping() {
        let (schema, ..) = toy();
        let mut b = SchemaBuilder::new();
        let street = b.intern("street");
        let room = b.intern("room");
        let names = |s: Sym| format!("{s:?}");
        let sup = Range::record(
            &names,
            None,
            vec![FieldSpec {
                name: street,
                spec: AttrSpec::plain(Range::Str),
            }],
        )
        .unwrap();
        let sub = Range::record(
            &names,
            None,
            vec![
                FieldSpec {
                    name: street,
                    spec: AttrSpec::plain(Range::Str),
                },
                FieldSpec {
                    name: room,
                    spec: AttrSpec::plain(Range::int(1, 9999).unwrap()),
                },
            ],
        )
        .unwrap();
        assert!(sup.subsumes(&schema, &sub), "extra fields are fine (width)");
        assert!(
            !sub.subsumes(&schema, &sup),
            "missing field breaks subsumption"
        );
    }

    #[test]
    fn record_value_containment_treats_missing_fields_as_absent() {
        let (schema, ..) = toy();
        let mut b = SchemaBuilder::new();
        let street = b.intern("street");
        let names = |s: Sym| format!("{s:?}");
        let r = Range::record(
            &names,
            None,
            vec![FieldSpec {
                name: street,
                spec: AttrSpec::plain(Range::Str),
            }],
        )
        .unwrap();
        let ok = Value::record(vec![(street, Value::str("Main"))]);
        let missing = Value::record(vec![]);
        assert!(r.contains(&schema, &NoInstances, &ok));
        assert!(!r.contains(&schema, &NoInstances, &missing));
    }

    #[test]
    fn duplicate_record_fields_rejected() {
        let mut b = SchemaBuilder::new();
        let street = b.intern("street");
        let names = |_s: Sym| "street".to_string();
        let err = Range::record(
            &names,
            None,
            vec![
                FieldSpec {
                    name: street,
                    spec: AttrSpec::plain(Range::Str),
                },
                FieldSpec {
                    name: street,
                    spec: AttrSpec::plain(Range::Str),
                },
            ],
        );
        assert_eq!(
            err,
            Err(ModelError::DuplicateField {
                field: "street".into()
            })
        );
    }
}
