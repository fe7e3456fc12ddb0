//! Canonical range forms: the checker's normalize-then-compare view of
//! the declared ranges, after the structure of CLASSIC subsumption
//! (Borgida & Patel-Schneider): normalize every description once, then
//! answer subsumption and disjointness by cheap structural tests on the
//! normal forms.
//!
//! A [`RangeTable`] interns every range declared in a schema — and so
//! every excuser range, since an excuser's range is its own declaration —
//! into a [`RangeId`]. Structurally equal ranges share an id. Each id
//! carries a canonical form:
//!
//! * enumerations become bitsets over dense token ids, so `⊆` and `∩ ≠ ∅`
//!   are word operations;
//! * class references keep the class id and answer through the schema's
//!   precomputed ancestor closure;
//! * integer intervals become `(lo, hi)`;
//! * records (pure or refined) keep their structure and fall back to
//!   [`Range::subsumes_structurally`] against each other.
//!
//! [`RangeTable::subsumes`] and [`RangeTable::overlaps`] decide exactly
//! what [`Range::subsumes`] and [`Range::overlaps`] decide on the
//! original ranges; the differential test in `tests/integration_canon.rs` at the workspace root
//! pins that over generated schemas and the paper's edge cases.
//!
//! The table holds no excuser index of its own: `chc-model`'s [`Schema`]
//! owns the one index of declarers and excusers, and
//! [`RangeTable::applicable_excusers`] only maps the entries of
//! [`Schema::applicable_excusers`] to range ids.

use std::collections::HashMap;

use chc_model::{BitSet, ClassId, Range, Schema, Sym};

/// The interned id of a canonical range in a [`RangeTable`].
pub type RangeId = u32;

/// A range's canonical form.
#[derive(Debug)]
enum Form {
    Int {
        lo: i64,
        hi: i64,
    },
    Str,
    Enum(BitSet),
    Class(ClassId),
    AnyEntity,
    None,
    /// A pure record (`base: None`) or refined class type; `refined` is
    /// whether any field is constrained. Record-vs-record questions go
    /// to the structural test on the original ranges.
    Record {
        base: Option<ClassId>,
        refined: bool,
    },
}

/// Every range declared in one schema, interned into canonical forms.
#[derive(Debug)]
pub struct RangeTable<'s> {
    schema: &'s Schema,
    forms: Vec<Form>,
    /// One representative original range per id.
    ranges: Vec<&'s Range>,
    /// `(attr, range id)` of every declaration, class by class, each
    /// class's run sorted by `attr` like `schema.class(c).attrs`.
    decls: Vec<(Sym, RangeId)>,
    /// Class `c`'s run is `decls[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
}

impl<'s> RangeTable<'s> {
    /// Interns every declared range of `schema`.
    pub fn new(schema: &'s Schema) -> Self {
        let mut tokens: HashMap<Sym, usize> = HashMap::new();
        for c in schema.class_ids() {
            for decl in &schema.class(c).attrs {
                if let Range::Enum(set) = &decl.spec.range {
                    for &t in set {
                        let next = tokens.len();
                        tokens.entry(t).or_insert(next);
                    }
                }
            }
        }
        let mut forms = Vec::new();
        let mut ranges = Vec::new();
        let mut ids: HashMap<&'s Range, RangeId> = HashMap::new();
        let mut decls = Vec::with_capacity(schema.num_attr_decls());
        let mut starts = vec![0];
        for c in schema.class_ids() {
            for d in &schema.class(c).attrs {
                let range = &d.spec.range;
                let id = *ids.entry(range).or_insert_with(|| {
                    forms.push(canonical(range, &tokens));
                    ranges.push(range);
                    (forms.len() - 1) as RangeId
                });
                decls.push((d.name, id));
            }
            starts.push(decls.len());
        }
        RangeTable {
            schema,
            forms,
            ranges,
            decls,
            starts,
        }
    }

    /// The id of the range `class` declares for `attr`.
    ///
    /// # Panics
    /// Panics if `class` does not declare `attr`.
    pub fn decl(&self, class: ClassId, attr: Sym) -> RangeId {
        let decls = &self.decls[self.starts[class.index()]..self.starts[class.index() + 1]];
        let at = decls
            .binary_search_by_key(&attr, |&(name, _)| name)
            .expect("declared attribute");
        decls[at].1
    }

    /// The excusers of the constraint `(on, attr)` that `class` is a
    /// subclass of, with the ids of their ranges: the canonical view of
    /// [`Schema::applicable_excusers`], in the same order.
    pub fn applicable_excusers(
        &self,
        class: ClassId,
        on: ClassId,
        attr: Sym,
    ) -> impl Iterator<Item = (ClassId, RangeId)> + '_ {
        self.schema
            .applicable_excusers(class, on, attr)
            .map(|e| (e.excuser, self.decl(e.excuser, e.attr)))
    }

    /// A range with canonical id `id` (one of the structurally equal
    /// declarations it interns).
    pub fn range(&self, id: RangeId) -> &'s Range {
        self.ranges[id as usize]
    }

    /// Does every value of `sub` belong to `sup`? Decides exactly what
    /// [`Range::subsumes`] decides on the original ranges.
    pub fn subsumes(&self, sup: RangeId, sub: RangeId) -> bool {
        let schema = self.schema;
        match (&self.forms[sup as usize], &self.forms[sub as usize]) {
            (Form::Int { lo, hi }, Form::Int { lo: l2, hi: h2 }) => lo <= l2 && h2 <= hi,
            (Form::Str, Form::Str) | (Form::None, Form::None) => true,
            (Form::Enum(sup), Form::Enum(sub)) => sub.is_subset(sup),
            (Form::Class(b), Form::Class(a) | Form::Record { base: Some(a), .. }) => {
                schema.is_subclass(*a, *b)
            }
            (
                Form::AnyEntity,
                Form::Class(_) | Form::AnyEntity | Form::Record { base: Some(_), .. },
            ) => true,
            (Form::Record { .. }, Form::Record { .. }) => self
                .range(sup)
                .subsumes_structurally(schema, self.range(sub)),
            (
                Form::Record {
                    base: Some(b),
                    refined,
                },
                Form::Class(a),
            ) => !refined && schema.is_subclass(*a, *b),
            _ => false,
        }
    }

    /// Whether range `id` holds a value. [`Range::int`] and
    /// [`Range::enumeration`] refuse reversed intervals and empty
    /// enumerations, but the variants are public and can be built directly.
    pub fn inhabited(&self, id: RangeId) -> bool {
        match &self.forms[id as usize] {
            Form::Int { lo, hi } => lo <= hi,
            Form::Enum(bits) => !bits.is_empty(),
            _ => true,
        }
    }

    /// Whether both ranges or neither are pure record types. [`subsumes`]
    /// also lets a pure record type `[..]` subsume a refined class type
    /// `C [..]`, but the values of the two are records and entities, which
    /// never meet: such a pair shares no value.
    ///
    /// [`subsumes`]: RangeTable::subsumes
    pub fn same_record_kind(&self, a: RangeId, b: RangeId) -> bool {
        let pure = |id: RangeId| matches!(self.forms[id as usize], Form::Record { base: None, .. });
        pure(a) == pure(b)
    }

    /// Can the two ranges share a value? Decides exactly what
    /// [`Range::overlaps`] decides on the original ranges.
    pub fn overlaps(&self, a: RangeId, b: RangeId) -> bool {
        let related =
            |x: ClassId, y: ClassId| self.schema.is_subclass(x, y) || self.schema.is_subclass(y, x);
        match (&self.forms[a as usize], &self.forms[b as usize]) {
            (Form::Int { lo, hi }, Form::Int { lo: l2, hi: h2 }) => lo <= h2 && l2 <= hi,
            (Form::Str, Form::Str) | (Form::None, Form::None) => true,
            (Form::Enum(x), Form::Enum(y)) => x.intersects(y),
            (
                Form::Class(x) | Form::Record { base: Some(x), .. },
                Form::Class(y) | Form::Record { base: Some(y), .. },
            ) => related(*x, *y),
            (Form::Record { base: None, .. }, Form::Record { base: None, .. }) => true,
            (Form::AnyEntity, r) | (r, Form::AnyEntity) => matches!(
                r,
                Form::Class(_) | Form::AnyEntity | Form::Record { base: Some(_), .. }
            ),
            _ => false,
        }
    }
}

fn canonical(range: &Range, tokens: &HashMap<Sym, usize>) -> Form {
    match range {
        Range::Int { lo, hi } => Form::Int { lo: *lo, hi: *hi },
        Range::Str => Form::Str,
        Range::Enum(set) => {
            let mut bits = BitSet::new(tokens.len());
            for t in set {
                bits.insert(tokens[t]);
            }
            Form::Enum(bits)
        }
        Range::Class(c) => Form::Class(*c),
        Range::AnyEntity => Form::AnyEntity,
        Range::None => Form::None,
        Range::Record { base, fields } => Form::Record {
            base: *base,
            refined: !fields.is_empty(),
        },
    }
}
