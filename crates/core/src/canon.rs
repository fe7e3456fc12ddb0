//! The checker's interned view of the declared ranges.
//!
//! `chc-model` owns the range algebra: [`Range::sort`] classifies a
//! range's values, and [`Range::subsumes`], [`Range::overlaps`] and
//! [`Range::inhabited`] compare sorts first and then apply one rule per
//! sort, after the structure of CLASSIC subsumption (Borgida &
//! Patel-Schneider). A [`RangeTable`] keeps only what makes the checker's
//! many questions cheap:
//!
//! * every range declared in a schema — and so every excuser range,
//!   since an excuser's range is its own declaration — is interned into
//!   a [`RangeId`], structurally equal ranges sharing an id;
//! * enumerations also carry a bitset over dense token ids, so `⊆` and
//!   `∩ ≠ ∅` between two of them are word operations.
//!
//! Every other pair goes to the `chc-model` decision, so
//! [`RangeTable::subsumes`] and [`RangeTable::overlaps`] decide exactly
//! what [`Range::subsumes`] and [`Range::overlaps`] decide on the
//! original ranges; the differential test in `tests/integration_canon.rs`
//! at the workspace root pins that over generated schemas and the
//! paper's edge cases.
//!
//! The table holds no excuser index of its own: `chc-model`'s [`Schema`]
//! owns the one index of declarers and excusers, and
//! [`RangeTable::applicable_excusers`] only maps the entries of
//! [`Schema::applicable_excusers`] to range ids.

use std::collections::HashMap;

use chc_model::{BitSet, ClassId, Range, Schema, Sym};

/// The interned id of a range in a [`RangeTable`].
pub type RangeId = u32;

/// Every range declared in one schema, interned.
#[derive(Debug)]
pub struct RangeTable<'s> {
    schema: &'s Schema,
    /// One representative original range per id.
    ranges: Vec<&'s Range>,
    /// Per id, an enumeration's tokens as a bitset over dense token ids.
    tokens: Vec<Option<BitSet>>,
    /// `(attr, range id)` of every declaration, class by class, each
    /// class's run sorted by `attr` like `schema.class(c).attrs`.
    decls: Vec<(Sym, RangeId)>,
    /// Class `c`'s run is `decls[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
}

impl<'s> RangeTable<'s> {
    /// Interns every declared range of `schema`.
    pub fn new(schema: &'s Schema) -> Self {
        let mut dense: HashMap<Sym, usize> = HashMap::new();
        for c in schema.class_ids() {
            for decl in &schema.class(c).attrs {
                if let Range::Enum(set) = &decl.spec.range {
                    for &t in set {
                        let next = dense.len();
                        dense.entry(t).or_insert(next);
                    }
                }
            }
        }
        let mut ranges = Vec::new();
        let mut tokens = Vec::new();
        let mut ids: HashMap<&'s Range, RangeId> = HashMap::new();
        let mut decls = Vec::with_capacity(schema.num_attr_decls());
        let mut starts = vec![0];
        for c in schema.class_ids() {
            for d in &schema.class(c).attrs {
                let range = &d.spec.range;
                let id = *ids.entry(range).or_insert_with(|| {
                    tokens.push(match range {
                        Range::Enum(set) => {
                            let mut bits = BitSet::new(dense.len());
                            for t in set {
                                bits.insert(dense[t]);
                            }
                            Some(bits)
                        }
                        _ => None,
                    });
                    ranges.push(range);
                    (ranges.len() - 1) as RangeId
                });
                decls.push((d.name, id));
            }
            starts.push(decls.len());
        }
        RangeTable {
            schema,
            ranges,
            tokens,
            decls,
            starts,
        }
    }

    /// The id of the range `class` declares for `attr`.
    ///
    /// # Panics
    /// Panics if `class` does not declare `attr`.
    pub fn decl(&self, class: ClassId, attr: Sym) -> RangeId {
        self.decls[self.decl_index(class, attr)].1
    }

    /// The position of `class`'s declaration of `attr` among all
    /// declarations, numbered class by class in id order and, within a
    /// class, in `schema.class(class).attrs` order.
    ///
    /// # Panics
    /// Panics if `class` does not declare `attr`.
    pub(crate) fn decl_index(&self, class: ClassId, attr: Sym) -> usize {
        let start = self.starts[class.index()];
        let decls = &self.decls[start..self.starts[class.index() + 1]];
        let at = decls
            .binary_search_by_key(&attr, |&(name, _)| name)
            .expect("declared attribute");
        start + at
    }

    /// The number [`RangeTable::decl_index`] gives `class`'s first
    /// declaration.
    pub(crate) fn first_decl(&self, class: ClassId) -> usize {
        self.starts[class.index()]
    }

    /// The schema whose ranges the table interns.
    pub(crate) fn schema(&self) -> &'s Schema {
        self.schema
    }

    /// The excusers of the constraint `(on, attr)` that `class` is a
    /// subclass of, with the ids of their ranges: the interned view of
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

    /// A range with id `id` (one of the structurally equal declarations
    /// it interns).
    pub fn range(&self, id: RangeId) -> &'s Range {
        self.ranges[id as usize]
    }

    /// The token bitsets of two enumerations, if both ranges are one.
    fn enums(&self, a: RangeId, b: RangeId) -> Option<(&BitSet, &BitSet)> {
        Some((
            self.tokens[a as usize].as_ref()?,
            self.tokens[b as usize].as_ref()?,
        ))
    }

    /// Does every value of `sub` belong to `sup`? Decides exactly what
    /// [`Range::subsumes`] decides on the original ranges.
    pub fn subsumes(&self, sup: RangeId, sub: RangeId) -> bool {
        match self.enums(sup, sub) {
            Some((sup, sub)) => sub.is_subset(sup),
            None => self
                .range(sup)
                .subsumes_structurally(self.schema, self.range(sub)),
        }
    }

    /// Whether range `id` holds a value ([`Range::inhabited`]).
    pub fn inhabited(&self, id: RangeId) -> bool {
        self.range(id).inhabited()
    }

    /// Can the two ranges share a value? Decides exactly what
    /// [`Range::overlaps`] decides on the original ranges.
    pub fn overlaps(&self, a: RangeId, b: RangeId) -> bool {
        match self.enums(a, b) {
            Some((x, y)) => x.intersects(y),
            None => self.range(a).overlaps(self.range(b)),
        }
    }
}
