//! The immutable schema: classes, the is-a DAG, and the excuse index.
//!
//! A [`Schema`] is produced by [`SchemaBuilder`](crate::builder::SchemaBuilder)
//! and is thereafter read-only. It precomputes the reflexive-transitive
//! closure of the is-a relation (so `is_subclass` is O(1)) and an index
//! from each constraint `(class, attr)` to the classes that excuse it —
//! the paper's veracity property: "the only additional information we need
//! is the definitions of attributes which contain the clause
//! `excuses p on C`" (§6).

use std::collections::{BTreeSet, HashMap};

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

/// An immutable schema.
#[derive(Debug, Clone)]
pub struct Schema {
    pub(crate) interner: Interner,
    pub(crate) classes: Vec<Class>,
    pub(crate) by_name: HashMap<Sym, ClassId>,
    /// `ancestors[c]` is the reflexive-transitive closure of is-a from `c`.
    pub(crate) ancestors: Vec<BitSet>,
    /// `descendants[c]` is the reflexive set of classes with `c` as ancestor.
    pub(crate) descendants: Vec<BitSet>,
    /// `(class, attr)` → classes excusing that constraint, sorted by
    /// excuser id.
    pub(crate) excusers: HashMap<(ClassId, Sym), Vec<ExcuserEntry>>,
    /// `(class, attr)` → bitset of excuser class ids (fast intersection
    /// with ancestor closures).
    pub(crate) excuser_bits: HashMap<(ClassId, Sym), BitSet>,
    /// attr → classes declaring it, in ascending id order.
    pub(crate) declarers: HashMap<Sym, Vec<ClassId>>,
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

    /// Finds a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.interner.get(name).and_then(|s| self.by_name.get(&s).copied())
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

    /// The ancestors of `id`, including `id` itself, as a bitset over
    /// class indices — for intersecting with other class sets a word at
    /// a time.
    pub fn ancestor_bits(&self, id: ClassId) -> &BitSet {
        &self.ancestors[id.index()]
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
    /// addresses, etc. which are inherited from Person").
    pub fn applicable_attrs(&self, id: ClassId) -> BTreeSet<Sym> {
        let mut out = BTreeSet::new();
        for a in self.ancestors_with_self(id) {
            for decl in &self.classes[a.index()].attrs {
                out.insert(decl.name);
            }
        }
        out
    }

    /// The classes declaring `attr`, in ascending id order.
    pub fn declarers_of(&self, attr: Sym) -> &[ClassId] {
        self.declarers.get(&attr).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Every constraint applicable to instances of `class` for attribute
    /// `attr`: the declarations of `attr` on `class` and on each of its
    /// ancestors, as `(declaring class, spec)` pairs. The declaring class
    /// identifies the constraint — the pair the paper uses as the excuse
    /// target (§5.1).
    pub fn constraints_on(&self, class: ClassId, attr: Sym) -> Vec<(ClassId, &AttrSpec)> {
        // Walk the (usually short) declarer list rather than the
        // (possibly large) ancestor set.
        self.declarers_of(attr)
            .iter()
            .filter(|&&d| self.is_subclass(class, d))
            .map(|&d| (d, &self.classes[d.index()].attr(attr).expect("declarer").spec))
            .collect()
    }

    /// Whether `class` declares or inherits attribute `attr`.
    pub fn has_attr(&self, class: ClassId, attr: Sym) -> bool {
        self.declarers_of(attr)
            .iter()
            .any(|&d| self.is_subclass(class, d))
    }

    /// The local declaration of `attr` on exactly `class`, if any.
    pub fn declared_attr(&self, class: ClassId, attr: Sym) -> Option<&AttrDecl> {
        self.classes[class.index()].attr(attr)
    }

    /// The classes whose declarations excuse the constraint `(class, attr)`.
    pub fn excusers_of(&self, class: ClassId, attr: Sym) -> &[ExcuserEntry] {
        self.excusers
            .get(&(class, attr))
            .map(Vec::as_slice)
            .unwrap_or(&[])
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
        let entries = self.excusers_of(on, attr);
        self.excuser_bits
            .get(&(on, attr))
            .into_iter()
            .flat_map(move |bits| {
                bits.intersection_iter(&self.ancestors[class.index()]).flat_map(move |i| {
                    let target = ClassId::from_raw(i as u32);
                    let at = entries
                        .binary_search_by_key(&target, |e| e.excuser)
                        .expect("bit implies entry");
                    // Several entries may share an excuser class (distinct
                    // carrying attributes); yield the whole run.
                    let mut lo = at;
                    while lo > 0 && entries[lo - 1].excuser == target {
                        lo -= 1;
                    }
                    let mut hi = at + 1;
                    while hi < entries.len() && entries[hi].excuser == target {
                        hi += 1;
                    }
                    entries[lo..hi].iter()
                })
            })
    }

    /// All excused constraints, for diagnostics and reporting.
    pub fn excused_constraints(&self) -> impl Iterator<Item = (ClassId, Sym)> + '_ {
        self.excusers.keys().copied()
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
        assert!(s.applicable_attrs(manager).contains(&age));
        assert!(s.applicable_attrs(patient).contains(&age));
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
