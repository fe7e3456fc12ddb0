//! The immutable schema: classes, the is-a DAG, and the constraint index.
//!
//! A [`Schema`] is produced by [`SchemaBuilder`](crate::builder::SchemaBuilder)
//! and is thereafter read-only. It precomputes the reflexive-transitive
//! closure of the is-a relation (so `is_subclass` is O(1)) and an index
//! from each constraint `(class, attr)` to the classes that excuse it —
//! the paper's veracity property: "the only additional information we need
//! is the definitions of attributes which contain the clause
//! `excuses p on C`" (§6).
//!
//! This crate owns that index, built once by `SchemaBuilder::build` in
//! vectors indexed by dense ids: the declarers of each attribute by
//! [`Sym`], and the excusers of each constraint by the excused class,
//! then by attribute. Every reader goes through the methods below — the
//! checker and the coherence sweep in `chc-core` (through
//! [`declarers_on`](Schema::declarers_on),
//! [`excused_elsewhere`](Schema::excused_elsewhere) and
//! [`applicable_excusers`](Schema::applicable_excusers), the latter also
//! behind `canon::RangeTable`), the type contexts of `chc-types`, the
//! lints, and the load driver's insert recipes.

use crate::bitset::BitSet;
use crate::class::{AttrDecl, Class, ClassId};
use crate::range::AttrSpec;
use crate::source::SourceMap;
use crate::symbol::{Interner, Sym};

/// One entry in the excuse index: `excuser`'s declaration of `attr`
/// carries a clause excusing the indexed constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExcuserEntry {
    /// The class whose attribute declaration carries the excuse.
    pub excuser: ClassId,
    /// The name of that declaration on the excuser (normally the same
    /// attribute name as the excused constraint).
    pub attr: Sym,
}

/// The classes declaring one attribute.
#[derive(Debug, Clone)]
pub(crate) struct Declarers {
    /// In ascending id order.
    pub(crate) classes: Vec<ClassId>,
    /// The same classes, for intersecting with an ancestor closure.
    pub(crate) bits: BitSet,
}

/// One excused constraint `(on, attr)` of a class `on`, which declares or
/// inherits `attr`, with the declarations excusing it.
#[derive(Debug, Clone)]
pub(crate) struct Excused {
    pub(crate) on: ClassId,
    pub(crate) attr: Sym,
    /// This constraint's rows of [`Schema::excusers`], sorted by excuser
    /// id; several rows may share an excuser.
    pub(crate) entries: std::ops::Range<u32>,
    /// The excuser classes, for intersecting with an ancestor closure.
    pub(crate) bits: BitSet,
    /// Whether some entry is carried by a declaration of an attribute
    /// other than `attr`.
    pub(crate) elsewhere: bool,
}

/// An immutable schema.
#[derive(Debug, Clone)]
pub struct Schema {
    pub(crate) interner: Interner,
    pub(crate) classes: Vec<Class>,
    /// Indexed by [`Sym`]: the class of that name.
    pub(crate) by_name: Vec<Option<ClassId>>,
    /// `ancestors[c]` is the reflexive-transitive closure of is-a from `c`.
    pub(crate) ancestors: Vec<BitSet>,
    /// `descendants[c]` is the reflexive set of classes with `c` as ancestor.
    pub(crate) descendants: Vec<BitSet>,
    /// The symbols some class declares as an attribute, ascending.
    pub(crate) attr_names: Vec<Sym>,
    /// Indexed by [`Sym`]: the classes declaring that attribute (`None`
    /// for a symbol no class declares as an attribute).
    pub(crate) declarers: Vec<Option<Declarers>>,
    /// Every excuse clause, as the entry of the constraint it excuses:
    /// grouped by constraint, in the order of `excused`.
    pub(crate) excusers: Vec<ExcuserEntry>,
    /// The excused constraints, sorted by class and then attribute.
    pub(crate) excused: Vec<Excused>,
    /// Class `c`'s constraints are `excused[excused_starts[c]..excused_starts[c + 1]]`.
    pub(crate) excused_starts: Vec<u32>,
    /// Source positions of classes/declarations/excuses/is-a edges, when
    /// the schema was compiled from SDL text (empty otherwise).
    pub(crate) source_map: SourceMap,
}

impl Schema {
    /// Number of classes (declared and virtual).
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Iterates all class ids in declaration order.
    pub fn class_ids(&self) -> impl Iterator<Item = ClassId> {
        (0..self.classes.len() as u32).map(ClassId::from_raw)
    }

    /// The class with the given id.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    /// The name of a class as a string.
    pub fn class_name(&self, id: ClassId) -> &str {
        self.interner.resolve(self.classes[id.index()].name)
    }

    /// Resolves any interned symbol.
    pub fn resolve(&self, sym: Sym) -> &str {
        self.interner.resolve(sym)
    }

    /// Looks up an already-interned symbol by string.
    pub fn sym(&self, s: &str) -> Option<Sym> {
        self.interner.get(s)
    }

    /// Number of interned symbols: every [`Sym`] of this schema has an
    /// index below it.
    pub fn num_syms(&self) -> usize {
        self.interner.len()
    }

    /// Finds a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        let sym = self.interner.get(name)?;
        self.by_name.get(sym.index()).copied().flatten()
    }

    /// Whether `sub` is `sup` or a (transitive) subclass of it.
    #[inline]
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        self.ancestors[sub.index()].contains(sup.index())
    }

    /// Whether `sub` is a *strict* subclass of `sup`.
    pub fn is_strict_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        sub != sup && self.is_subclass(sub, sup)
    }

    /// All ancestors of `id`, including `id` itself, in ascending id order.
    pub fn ancestors_with_self(&self, id: ClassId) -> impl Iterator<Item = ClassId> + '_ {
        self.ancestors[id.index()]
            .iter()
            .map(|i| ClassId::from_raw(i as u32))
    }

    /// The descendants of `id`, including `id` itself, as a bitset over
    /// class indices.
    pub fn descendant_bits(&self, id: ClassId) -> &BitSet {
        &self.descendants[id.index()]
    }

    /// Strict ancestors of `id` (excluding `id`).
    pub fn strict_ancestors(&self, id: ClassId) -> impl Iterator<Item = ClassId> + '_ {
        self.ancestors_with_self(id).filter(move |&a| a != id)
    }

    /// All descendants of `id`, including `id` itself.
    pub fn descendants_with_self(&self, id: ClassId) -> impl Iterator<Item = ClassId> + '_ {
        self.descendants[id.index()]
            .iter()
            .map(|i| ClassId::from_raw(i as u32))
    }

    /// Direct superclasses.
    pub fn supers(&self, id: ClassId) -> &[ClassId] {
        &self.classes[id.index()].supers
    }

    /// Direct subclasses (computed; not stored on the class).
    pub fn direct_subclasses(&self, id: ClassId) -> Vec<ClassId> {
        self.class_ids()
            .filter(|&c| self.classes[c.index()].supers.contains(&id))
            .collect()
    }

    /// The attribute names applicable to instances of `id`: declared on it
    /// or on any ancestor (§3: "patients and doctors also have names,
    /// addresses, etc. which are inherited from Person"), in ascending
    /// [`Sym`] order. An attribute applies when its declarer bitset meets
    /// the ancestor closure of `id`, so nothing is collected or sorted.
    pub fn applicable_attrs(&self, id: ClassId) -> impl Iterator<Item = Sym> + '_ {
        let ancestors = &self.ancestors[id.index()];
        self.attr_names.iter().copied().filter(move |&attr| {
            self.declarers(attr)
                .is_some_and(|d| d.bits.intersects(ancestors))
        })
    }

    fn declarers(&self, attr: Sym) -> Option<&Declarers> {
        self.declarers.get(attr.index())?.as_ref()
    }

    /// The classes declaring `attr`, in ascending id order.
    pub fn declarers_of(&self, attr: Sym) -> &[ClassId] {
        self.declarers(attr).map_or(&[], |d| &d.classes)
    }

    /// The classes among `class` and its ancestors that declare `attr`,
    /// in ascending id order: the constraints on `attr` that apply to
    /// instances of `class`.
    pub fn declarers_on(&self, class: ClassId, attr: Sym) -> impl Iterator<Item = ClassId> + '_ {
        let ancestors = &self.ancestors[class.index()];
        self.declarers(attr).into_iter().flat_map(move |d| {
            d.bits
                .intersection_iter(ancestors)
                .map(|i| ClassId::from_raw(i as u32))
        })
    }

    /// Every constraint applicable to instances of `class` for attribute
    /// `attr`: the declarations of `attr` on `class` and on each of its
    /// ancestors, as `(declaring class, spec)` pairs. The declaring class
    /// identifies the constraint — the pair the paper uses as the excuse
    /// target (§5.1).
    pub fn constraints_on(&self, class: ClassId, attr: Sym) -> Vec<(ClassId, &AttrSpec)> {
        self.declarers_on(class, attr)
            .map(|d| (d, &self.classes[d.index()].attr(attr).expect("declarer").spec))
            .collect()
    }

    /// Whether `class` declares or inherits attribute `attr`.
    pub fn has_attr(&self, class: ClassId, attr: Sym) -> bool {
        self.declarers_on(class, attr).next().is_some()
    }

    /// The local declaration of `attr` on exactly `class`, if any.
    pub fn declared_attr(&self, class: ClassId, attr: Sym) -> Option<&AttrDecl> {
        self.classes[class.index()].attr(attr)
    }

    fn excused(&self, on: ClassId, attr: Sym) -> Option<&Excused> {
        let c = on.index();
        let excused = &self.excused[self.excused_starts[c] as usize..self.excused_starts[c + 1] as usize];
        let at = excused.binary_search_by_key(&attr, |e| e.attr).ok()?;
        Some(&excused[at])
    }

    fn entries(&self, excused: &Excused) -> &[ExcuserEntry] {
        &self.excusers[excused.entries.start as usize..excused.entries.end as usize]
    }

    /// The classes whose declarations excuse the constraint `(class, attr)`,
    /// in ascending excuser order.
    pub fn excusers_of(&self, class: ClassId, attr: Sym) -> &[ExcuserEntry] {
        self.excused(class, attr).map_or(&[], |e| self.entries(e))
    }

    /// The excusers of `(on, attr)` that `class` is a subclass of — the
    /// ones whose excuse branch instances of `class` can take under the
    /// §5.2 semantics. Computed by bitset intersection with the ancestor
    /// closure, so it stays cheap even for heavily excused constraints.
    pub fn applicable_excusers<'s>(
        &'s self,
        class: ClassId,
        on: ClassId,
        attr: Sym,
    ) -> impl Iterator<Item = &'s ExcuserEntry> + 's {
        let ancestors = &self.ancestors[class.index()];
        self.excused(on, attr).into_iter().flat_map(move |excused| {
            let entries = self.entries(excused);
            excused.bits.intersection_iter(ancestors).flat_map(move |i| {
                // Several entries may share an excuser class (distinct
                // carrying attributes); yield the whole run.
                let lo = entries.partition_point(|e| e.excuser.index() < i);
                let len = entries[lo..].partition_point(|e| e.excuser.index() == i);
                &entries[lo..lo + len]
            })
        })
    }

    /// Whether a declaration of an attribute other than `attr` carries an
    /// excuse of the constraint `(on, attr)`. When none does, every
    /// excuser of `(on, attr)` declares `attr` and carries the clause on
    /// that declaration.
    pub fn excused_elsewhere(&self, on: ClassId, attr: Sym) -> bool {
        self.excused(on, attr).is_some_and(|e| e.elsewhere)
    }

    /// All excused constraints `(on, attr)`, by class and then attribute.
    pub fn excused_constraints(&self) -> impl Iterator<Item = (ClassId, Sym)> + '_ {
        self.excused.iter().map(|e| (e.on, e.attr))
    }

    /// The range an excuser imposes: the declared spec of its carrying
    /// attribute.
    pub fn excuser_spec(&self, entry: &ExcuserEntry) -> &AttrSpec {
        &self
            .classes[entry.excuser.index()]
            .attr(entry.attr)
            .expect("excuser entry must point at a real declaration")
            .spec
    }

    /// Total number of attribute declarations across all classes.
    pub fn num_attr_decls(&self) -> usize {
        self.classes.iter().map(|c| c.attrs.len()).sum()
    }

    /// The source positions recorded when this schema was compiled from
    /// SDL text. Empty (every lookup `None`) for API-built schemas.
    pub fn source_map(&self) -> &SourceMap {
        &self.source_map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SchemaBuilder;
    use crate::range::{AttrSpec, Range};

    /// Person <- Employee <- Manager; Person <- Patient.
    fn diamondless() -> (Schema, ClassId, ClassId, ClassId, ClassId) {
        let mut b = SchemaBuilder::new();
        let person = b.declare("Person").unwrap();
        let employee = b.declare("Employee").unwrap();
        let manager = b.declare("Manager").unwrap();
        let patient = b.declare("Patient").unwrap();
        b.add_super(employee, person).unwrap();
        b.add_super(manager, employee).unwrap();
        b.add_super(patient, person).unwrap();
        b.add_attr(person, "age", AttrSpec::plain(Range::int(1, 120).unwrap()))
            .unwrap();
        b.add_attr(employee, "age", AttrSpec::plain(Range::int(16, 65).unwrap()))
            .unwrap();
        let s = b.build().unwrap();
        (s, person, employee, manager, patient)
    }

    #[test]
    fn subclass_closure_is_reflexive_and_transitive() {
        let (s, person, employee, manager, patient) = diamondless();
        assert!(s.is_subclass(manager, person));
        assert!(s.is_subclass(manager, manager));
        assert!(s.is_subclass(employee, person));
        assert!(!s.is_subclass(person, employee));
        assert!(!s.is_subclass(patient, employee));
        assert!(s.is_strict_subclass(manager, person));
        assert!(!s.is_strict_subclass(person, person));
    }

    #[test]
    fn constraints_accumulate_up_the_hierarchy() {
        let (s, person, employee, manager, _) = diamondless();
        let age = s.sym("age").unwrap();
        let cs = s.constraints_on(manager, age);
        let declarers: Vec<ClassId> = cs.iter().map(|(c, _)| *c).collect();
        assert!(declarers.contains(&person));
        assert!(declarers.contains(&employee));
        assert_eq!(cs.len(), 2);
        assert_eq!(s.constraints_on(person, age).len(), 1);
    }

    #[test]
    fn applicable_attrs_include_inherited() {
        let (s, _, _, manager, patient) = diamondless();
        let age = s.sym("age").unwrap();
        assert!(s.applicable_attrs(manager).any(|a| a == age));
        assert!(s.applicable_attrs(patient).any(|a| a == age));
        assert!(s.has_attr(manager, age));
    }

    #[test]
    fn descendants_mirror_ancestors() {
        let (s, person, employee, manager, patient) = diamondless();
        let d: Vec<ClassId> = s.descendants_with_self(person).collect();
        assert_eq!(d.len(), 4);
        let d: Vec<ClassId> = s.descendants_with_self(employee).collect();
        assert!(d.contains(&manager) && !d.contains(&patient));
    }

    #[test]
    fn direct_subclasses() {
        let (s, person, employee, _, patient) = diamondless();
        let subs = s.direct_subclasses(person);
        assert!(subs.contains(&employee) && subs.contains(&patient));
        assert_eq!(subs.len(), 2);
    }

    #[test]
    fn class_lookup_by_name() {
        let (s, person, ..) = diamondless();
        assert_eq!(s.class_by_name("Person"), Some(person));
        assert_eq!(s.class_by_name("Nobody"), None);
        assert_eq!(s.class_name(person), "Person");
    }
}
