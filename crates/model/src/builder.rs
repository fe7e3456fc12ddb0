//! Mutable construction of schemas.
//!
//! A [`SchemaBuilder`] supports forward references (declare all class
//! names first, then attach supers/attributes in any order) and performs
//! the structural checks at [`SchemaBuilder::build`]: name uniqueness,
//! is-a acyclicity, and referential integrity of excuse clauses.

use crate::bitset::BitSet;
use crate::class::{AttrDecl, Class, ClassId, ClassKind};
use crate::error::ModelError;
use crate::range::AttrSpec;
use crate::schema::{Declarers, Excused, ExcuserEntry, Schema};
use crate::source::{SourceMap, Span};
use crate::symbol::{Interner, Sym};

/// A schema under construction.
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    interner: Interner,
    classes: Vec<Class>,
    /// Indexed by [`Sym`]: the class of that name.
    by_name: Vec<Option<ClassId>>,
    source_map: SourceMap,
}

impl SchemaBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reconstructs a builder from an existing schema, preserving every
    /// class id (classes are re-declared in id order). This is the basis
    /// for schema *evolution*: copy, mutate, rebuild, re-check — existing
    /// `ClassId`s and `Sym`s remain valid against the rebuilt schema.
    pub fn from_schema(schema: &Schema) -> Self {
        let mut b = SchemaBuilder {
            interner: schema.interner.clone(),
            classes: schema.classes.clone(),
            by_name: schema.by_name.clone(),
            source_map: schema.source_map.clone(),
        };
        // build() re-sorts, but keep the invariant locally too.
        for c in &mut b.classes {
            c.attrs.sort_by_key(|d| d.name);
        }
        b
    }

    /// Replaces the specification of an already-declared attribute.
    pub fn set_attr_spec(
        &mut self,
        class: ClassId,
        attr: Sym,
        spec: AttrSpec,
    ) -> Result<(), ModelError> {
        let class_name = self.name_of(class);
        let attr_name = self.interner.resolve(attr).to_string();
        let decl = self.classes[class.index()]
            .attrs
            .iter_mut()
            .find(|d| d.name == attr)
            .ok_or(ModelError::UnknownAttr { class: class_name, attr: attr_name })?;
        decl.spec = spec;
        Ok(())
    }

    /// Removes a declared attribute; returns whether it existed.
    pub fn remove_attr(&mut self, class: ClassId, attr: Sym) -> bool {
        let attrs = &mut self.classes[class.index()].attrs;
        let before = attrs.len();
        attrs.retain(|d| d.name != attr);
        attrs.len() != before
    }

    /// Removes one `excuses attr_on on on` clause from a declaration;
    /// returns whether a clause was removed.
    pub fn remove_excuse(&mut self, class: ClassId, attr: Sym, on: ClassId) -> bool {
        if let Some(decl) = self.classes[class.index()]
            .attrs
            .iter_mut()
            .find(|d| d.name == attr)
        {
            let before = decl.spec.excuses.len();
            decl.spec.excuses.retain(|e| e.on != on);
            return decl.spec.excuses.len() != before;
        }
        false
    }

    /// Read access to a declared attribute spec during construction.
    pub fn attr_spec(&self, class: ClassId, attr: Sym) -> Option<&AttrSpec> {
        self.classes[class.index()].attrs.iter().find(|d| d.name == attr).map(|d| &d.spec)
    }

    /// Interns an arbitrary string (attribute names, enum tokens).
    pub fn intern(&mut self, s: &str) -> Sym {
        self.interner.intern(s)
    }

    /// Declares a new class with no supers or attributes yet.
    pub fn declare(&mut self, name: &str) -> Result<ClassId, ModelError> {
        self.declare_kind(name, ClassKind::Declared)
    }

    /// Declares a virtual (synthesized) class — used by the core checker's
    /// §5.6 virtualization pass.
    pub fn declare_virtual(&mut self, name: &str) -> Result<ClassId, ModelError> {
        self.declare_kind(name, ClassKind::Virtual)
    }

    fn declare_kind(&mut self, name: &str, kind: ClassKind) -> Result<ClassId, ModelError> {
        let sym = self.interner.intern(name);
        if self.by_name.get(sym.index()).is_some_and(Option::is_some) {
            return Err(ModelError::DuplicateClass(name.to_string()));
        }
        let id = ClassId::from_raw(u32::try_from(self.classes.len()).expect("class id overflow"));
        self.classes.push(Class { name: sym, supers: Vec::new(), attrs: Vec::new(), kind });
        if self.by_name.len() <= sym.index() {
            self.by_name.resize(sym.index() + 1, None);
        }
        self.by_name[sym.index()] = Some(id);
        Ok(id)
    }

    /// Adds an is-a edge `class is-a superclass`.
    pub fn add_super(&mut self, class: ClassId, superclass: ClassId) -> Result<(), ModelError> {
        if self.classes[class.index()].supers.contains(&superclass) {
            return Err(ModelError::DuplicateSuper {
                class: self.name_of(class),
                superclass: self.name_of(superclass),
            });
        }
        self.classes[class.index()].supers.push(superclass);
        Ok(())
    }

    /// Declares attribute `name` on `class` with the given specification.
    pub fn add_attr(
        &mut self,
        class: ClassId,
        name: &str,
        spec: AttrSpec,
    ) -> Result<Sym, ModelError> {
        let sym = self.interner.intern(name);
        self.add_attr_sym(class, sym, spec).map(|()| sym)
    }

    /// [`add_attr`](Self::add_attr) for a name this builder has already
    /// interned.
    pub fn add_attr_sym(&mut self, class: ClassId, attr: Sym, spec: AttrSpec) -> Result<(), ModelError> {
        if self.classes[class.index()].attrs.iter().any(|d| d.name == attr) {
            return Err(ModelError::DuplicateAttr {
                class: self.name_of(class),
                attr: self.interner.resolve(attr).to_string(),
            });
        }
        self.classes[class.index()].attrs.push(AttrDecl { name: attr, spec });
        Ok(())
    }

    /// Number of classes declared so far.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Mutable access to the source map under construction; `chc-sdl`
    /// records class/attribute/excuse/is-a positions through this while
    /// lowering, so diagnostics can point at `file:line:col`.
    pub fn source_map_mut(&mut self) -> &mut SourceMap {
        &mut self.source_map
    }

    /// Convenience: records a class-definition position.
    pub fn record_class_span(&mut self, class: ClassId, span: Span) {
        self.source_map.record_class(class, span);
    }

    fn name_of(&self, id: ClassId) -> String {
        self.interner.resolve(self.classes[id.index()].name).to_string()
    }

    /// Finalizes the schema, checking acyclicity and excuse integrity and
    /// precomputing the is-a closures.
    pub fn build(mut self) -> Result<Schema, ModelError> {
        let n = self.classes.len();
        // Sort attributes by name so Class::attr can binary-search.
        for c in &mut self.classes {
            c.attrs.sort_by_key(|d| d.name);
        }

        let topo = self.toposort()?;

        // Ancestor closure in topological order (supers before subs): a
        // class's set is filled in place from its supers' finished sets.
        let mut ancestors: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
        for &c in &topo {
            let mut set = std::mem::replace(&mut ancestors[c], BitSet::new(0));
            set.insert(c);
            for s in &self.classes[c].supers {
                set.union_with(&ancestors[s.index()]);
            }
            ancestors[c] = set;
        }

        // Descendants are the transpose of ancestors.
        let mut descendants: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
        for (c, anc) in ancestors.iter().enumerate() {
            for a in anc.iter() {
                descendants[a].insert(c);
            }
        }

        // Declarers of each attribute, in ascending class order.
        let mut declarers: Vec<Option<Declarers>> = vec![None; self.interner.len()];
        for (ci, class) in self.classes.iter().enumerate() {
            for decl in &class.attrs {
                let d = declarers[decl.name.index()]
                    .get_or_insert_with(|| Declarers { classes: Vec::new(), bits: BitSet::new(n) });
                d.classes.push(ClassId::from_raw(ci as u32));
                d.bits.insert(ci);
            }
        }
        // Referential integrity: the excused attribute must be declared on
        // or inherited by the excused class.
        let declared = |attr: Sym, on: ClassId| {
            declarers
                .get(attr.index())
                .and_then(Option::as_ref)
                .is_some_and(|d| d.bits.intersects(&ancestors[on.index()]))
        };

        // Excuse index: one counting sort of every clause by excused class
        // keeps each class's clauses in scan order (excuser, declaration,
        // clause); a stable sort by attribute then groups each constraint,
        // its entries still in ascending excuser order.
        let clauses = || {
            self.classes.iter().enumerate().flat_map(|(ci, class)| {
                class.attrs.iter().flat_map(move |decl| {
                    let entry = ExcuserEntry { excuser: ClassId::from_raw(ci as u32), attr: decl.name };
                    decl.spec.excuses.iter().map(move |exc| (exc, entry))
                })
            })
        };
        let mut starts = vec![0usize; n + 1];
        for (exc, _) in clauses() {
            starts[exc.on.index() + 1] += 1;
        }
        for c in 0..n {
            starts[c + 1] += starts[c];
        }
        let placeholder = ExcuserEntry { excuser: ClassId::from_raw(0), attr: Sym::from_raw(0) };
        let mut rows = vec![(Sym::from_raw(0), placeholder); starts[n]];
        let mut next = starts.clone();
        for (exc, entry) in clauses() {
            rows[next[exc.on.index()]] = (exc.attr, entry);
            next[exc.on.index()] += 1;
        }
        let mut excused = Vec::new();
        let mut excused_starts = Vec::with_capacity(n + 1);
        excused_starts.push(0);
        for (c, bounds) in starts.windows(2).enumerate() {
            let on = ClassId::from_raw(c as u32);
            let class_rows = &mut rows[bounds[0]..bounds[1]];
            class_rows.sort_by_key(|&(attr, _)| attr);
            let mut at = bounds[0];
            for run in class_rows.chunk_by(|a, b| a.0 == b.0) {
                if !declared(run[0].0, on) {
                    // Name the clause a scan in class order meets first.
                    let (exc, _) = clauses()
                        .find(|(exc, _)| !declared(exc.attr, exc.on))
                        .expect("a failing constraint has a failing clause");
                    return Err(ModelError::ExcusedAttrUndeclared {
                        on: self.name_of(exc.on),
                        attr: self.interner.resolve(exc.attr).to_string(),
                    });
                }
                let attr = run[0].0;
                let mut bits = BitSet::new(n);
                for (_, e) in run {
                    bits.insert(e.excuser.index());
                }
                let elsewhere = run.iter().any(|(_, e)| e.attr != attr);
                let end = at + run.len();
                excused.push(Excused { on, attr, entries: at as u32..end as u32, bits, elsewhere });
                at = end;
            }
            excused_starts.push(excused.len() as u32);
        }
        let excusers = rows.into_iter().map(|(_, e)| e).collect();

        let attr_names = declarers
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_some())
            .map(|(i, _)| Sym::from_raw(i as u32))
            .collect();
        Ok(Schema {
            interner: self.interner,
            classes: self.classes,
            by_name: self.by_name,
            ancestors,
            descendants,
            attr_names,
            declarers,
            excusers,
            excused,
            excused_starts,
            source_map: self.source_map,
        })
    }

    /// Topological sort of class indices such that supers precede subs;
    /// errors with the name of a class on a cycle.
    fn toposort(&self) -> Result<Vec<usize>, ModelError> {
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let n = self.classes.len();
        let mut color = vec![WHITE; n];
        let mut order = Vec::with_capacity(n);
        // Iterative DFS over super edges; post-order emits supers first.
        for start in 0..n {
            if color[start] != WHITE {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            color[start] = GRAY;
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                let supers = &self.classes[node].supers;
                if *next < supers.len() {
                    let s = supers[*next].index();
                    *next += 1;
                    match color[s] {
                        WHITE => {
                            color[s] = GRAY;
                            stack.push((s, 0));
                        }
                        GRAY => return Err(ModelError::IsACycle(self.name_of(ClassId::from_raw(s as u32)))),
                        _ => {}
                    }
                } else {
                    color[node] = BLACK;
                    order.push(node);
                    stack.pop();
                }
            }
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::Range;

    #[test]
    fn duplicate_class_rejected() {
        let mut b = SchemaBuilder::new();
        b.declare("Person").unwrap();
        assert_eq!(b.declare("Person"), Err(ModelError::DuplicateClass("Person".into())));
    }

    #[test]
    fn duplicate_attr_rejected() {
        let mut b = SchemaBuilder::new();
        let p = b.declare("Person").unwrap();
        b.add_attr(p, "age", AttrSpec::plain(Range::int(1, 120).unwrap())).unwrap();
        let err = b.add_attr(p, "age", AttrSpec::plain(Range::Str));
        assert_eq!(
            err,
            Err(ModelError::DuplicateAttr { class: "Person".into(), attr: "age".into() })
        );
    }

    #[test]
    fn duplicate_super_rejected() {
        let mut b = SchemaBuilder::new();
        let p = b.declare("Person").unwrap();
        let e = b.declare("Employee").unwrap();
        b.add_super(e, p).unwrap();
        assert!(b.add_super(e, p).is_err());
    }

    #[test]
    fn self_cycle_detected() {
        let mut b = SchemaBuilder::new();
        let p = b.declare("Ouroboros").unwrap();
        b.add_super(p, p).unwrap();
        assert_eq!(b.build().unwrap_err(), ModelError::IsACycle("Ouroboros".into()));
    }

    #[test]
    fn long_cycle_detected() {
        let mut b = SchemaBuilder::new();
        let a = b.declare("A").unwrap();
        let c = b.declare("B").unwrap();
        let d = b.declare("C").unwrap();
        b.add_super(a, c).unwrap();
        b.add_super(c, d).unwrap();
        b.add_super(d, a).unwrap();
        assert!(matches!(b.build(), Err(ModelError::IsACycle(_))));
    }

    #[test]
    fn diamond_is_fine() {
        let mut b = SchemaBuilder::new();
        let person = b.declare("Person").unwrap();
        let quaker = b.declare("Quaker").unwrap();
        let republican = b.declare("Republican").unwrap();
        let dick = b.declare("QuakerRepublican").unwrap();
        b.add_super(quaker, person).unwrap();
        b.add_super(republican, person).unwrap();
        b.add_super(dick, quaker).unwrap();
        b.add_super(dick, republican).unwrap();
        let s = b.build().unwrap();
        assert!(s.is_subclass(dick, person));
        assert!(s.is_subclass(dick, quaker));
        assert!(s.is_subclass(dick, republican));
        assert_eq!(s.ancestors_with_self(dick).count(), 4);
    }

    #[test]
    fn excuse_on_undeclared_attr_rejected() {
        let mut b = SchemaBuilder::new();
        let patient = b.declare("Patient").unwrap();
        let alcoholic = b.declare("Alcoholic").unwrap();
        b.add_super(alcoholic, patient).unwrap();
        let treated_by = b.intern("treatedBy");
        // Patient never declares treatedBy, so the excuse dangles.
        b.add_attr(
            alcoholic,
            "treatedBy",
            AttrSpec::plain(Range::Str).excusing(treated_by, patient),
        )
        .unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            ModelError::ExcusedAttrUndeclared { on: "Patient".into(), attr: "treatedBy".into() }
        );
    }

    #[test]
    fn excuse_index_built() {
        let mut b = SchemaBuilder::new();
        let patient = b.declare("Patient").unwrap();
        let psychologist = b.declare("Psychologist").unwrap();
        let physician = b.declare("Physician").unwrap();
        let alcoholic = b.declare("Alcoholic").unwrap();
        b.add_super(alcoholic, patient).unwrap();
        b.add_attr(patient, "treatedBy", AttrSpec::plain(Range::Class(physician))).unwrap();
        let treated_by = b.intern("treatedBy");
        b.add_attr(
            alcoholic,
            "treatedBy",
            AttrSpec::plain(Range::Class(psychologist)).excusing(treated_by, patient),
        )
        .unwrap();
        let s = b.build().unwrap();
        let entries = s.excusers_of(patient, treated_by);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].excuser, alcoholic);
        assert_eq!(
            s.excuser_spec(&entries[0]).range,
            Range::Class(psychologist)
        );
    }

    #[test]
    fn excuse_may_target_inherited_attr() {
        // SpecialAlc-style: excusing (Patient, treatedBy) is legal from a
        // grand-child; excusing an attr Patient merely *inherits* is too.
        let mut b = SchemaBuilder::new();
        let person = b.declare("Person").unwrap();
        let patient = b.declare("Patient").unwrap();
        let odd = b.declare("Odd").unwrap();
        b.add_super(patient, person).unwrap();
        b.add_super(odd, patient).unwrap();
        b.add_attr(person, "age", AttrSpec::plain(Range::int(1, 120).unwrap())).unwrap();
        let age = b.intern("age");
        b.add_attr(
            odd,
            "age",
            AttrSpec::plain(Range::int(0, 500).unwrap()).excusing(age, patient),
        )
        .unwrap();
        // Patient inherits `age`, so the excuse resolves.
        assert!(b.build().is_ok());
    }
}
