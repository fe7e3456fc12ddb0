//! Differential test of `chc_core::diff_schemas` against a reference:
//! the diff as it was when it matched every class, attribute, edge and
//! excuse clause through rendered names, building two `String`s per
//! excuse clause on each side. The reference lives only here.
//!
//! The two must produce the same edits (order, kind, detail, class,
//! attribute, ids and both spans) on generated pairs whose class ids and
//! symbol numbers differ between the sides: the old schema is printed in
//! id order, the new one with its classes shuffled after random edits of
//! every `EditDetail` kind, among them a swapped excuse `on` class that
//! keeps the clause count, a renamed class, an added or retired
//! enumeration token, and an added or removed is-a edge. Both directions
//! of each pair are compared, and so are the committed fixture pairs and
//! the vignettes against shuffled reprints of themselves.

use std::collections::BTreeSet;

use excuses::core::{diff_schemas, EditDetail, SchemaDiff, SchemaEdit};
use excuses::model::{AttrSpec, ClassId, Excuse, FieldSpec, Range, Schema, SchemaBuilder, Sym};
use excuses::sdl::{compile, print_class, print_schema};
use excuses::workloads::rng::SplitMix64;
use excuses::workloads::{generate, vignettes, HierarchyParams};

/// The name-based diff, as it was before it matched excuse clauses as
/// symbol pairs through one old-to-new id map.
mod reference {
    use std::collections::{BTreeMap, BTreeSet};

    use excuses::core::{EditDetail, EditKind, RangeRel, SchemaDiff, SchemaEdit};
    use excuses::model::{ClassId, Range, Schema, Sym};

    /// Translates a range from `old`'s id space into `new`'s, matching classes
    /// by name and enum tokens / field names by spelling. `None` when some
    /// referenced class or token has no counterpart in `new`.
    fn translate_range(old: &Schema, range: &Range, new: &Schema) -> Option<Range> {
        match range {
            Range::Int { lo, hi } => Some(Range::Int { lo: *lo, hi: *hi }),
            Range::Str => Some(Range::Str),
            Range::AnyEntity => Some(Range::AnyEntity),
            Range::None => Some(Range::None),
            Range::Enum(set) => set
                .iter()
                .map(|t| new.sym(old.resolve(*t)))
                .collect::<Option<BTreeSet<Sym>>>()
                .map(Range::Enum),
            Range::Class(c) => new.class_by_name(old.class_name(*c)).map(Range::Class),
            Range::Record { base, fields } => {
                let base = match base {
                    Some(c) => Some(new.class_by_name(old.class_name(*c))?),
                    None => None,
                };
                let fields = fields
                    .iter()
                    .map(|f| {
                        let name = new.sym(old.resolve(f.name))?;
                        let range = translate_range(old, &f.spec.range, new)?;
                        // Excuse clauses inside field specs do not affect
                        // subsumption; drop them rather than translating.
                        Some(chc_model::FieldSpec {
                            name,
                            spec: chc_model::AttrSpec::plain(range),
                        })
                    })
                    .collect::<Option<Vec<_>>>()?;
                Some(Range::Record { base, fields })
            }
        }
    }

    /// Compares an old range against its replacement across schemas.
    ///
    /// Enumerations are compared by resolved token spelling (a token the new
    /// schema never interns is still a plain narrowing, not a [`Changed`]);
    /// everything else is translated into the new schema and compared with
    /// [`Range::subsumes`] both ways.
    pub fn compare_ranges(old: &Schema, old_range: &Range, new: &Schema, new_range: &Range) -> RangeRel {
        if let (Range::Enum(os), Range::Enum(ns)) = (old_range, new_range) {
            let on: BTreeSet<&str> = os.iter().map(|t| old.resolve(*t)).collect();
            let nn: BTreeSet<&str> = ns.iter().map(|t| new.resolve(*t)).collect();
            return match (nn.is_subset(&on), on.is_subset(&nn)) {
                (true, true) => RangeRel::Equal,
                (true, false) => RangeRel::Narrowed,
                (false, true) => RangeRel::Widened,
                (false, false) => RangeRel::Changed,
            };
        }
        let Some(translated) = translate_range(old, old_range, new) else {
            return RangeRel::Changed;
        };
        let old_subsumes_new = translated.subsumes(new, new_range);
        let new_subsumes_old = new_range.subsumes(new, &translated);
        match (old_subsumes_new, new_subsumes_old) {
            (true, true) => RangeRel::Equal,
            (true, false) => RangeRel::Narrowed,
            (false, true) => RangeRel::Widened,
            (false, false) => RangeRel::Changed,
        }
    }

    /// The `(excused-attr, on-class)` clauses of a declaration, by name.
    fn excuse_names(schema: &Schema, class: ClassId, attr: Sym) -> BTreeSet<(String, String)> {
        match schema.declared_attr(class, attr) {
            Some(decl) => decl
                .spec
                .excuses
                .iter()
                .map(|e| {
                    (
                        schema.resolve(e.attr).to_string(),
                        schema.class_name(e.on).to_string(),
                    )
                })
                .collect(),
            None => BTreeSet::new(),
        }
    }

    /// Computes the semantic diff between two independently compiled schemas.
    ///
    /// Classes, attributes, is-a edges, and excuse clauses are matched by
    /// *name* — ids and interned symbols are schema-private. A renamed class
    /// therefore reports as retire + add, which is the honest answer: nothing
    /// ties the two definitions together once the name is gone.
    pub fn diff_schemas(old: &Schema, new: &Schema) -> SchemaDiff {
        let mut edits = Vec::new();

        for nc in new.class_ids() {
            let name = new.class_name(nc);
            let Some(oc) = old.class_by_name(name) else {
                edits.push(SchemaEdit {
                    kind: EditKind::Additive,
                    detail: EditDetail::ClassAdded,
                    class: name.to_string(),
                    attr: None,
                    old_class: None,
                    new_class: Some(nc),
                    old_span: None,
                    new_span: new.source_map().class_span(nc),
                });
                continue;
            };
            diff_class(old, oc, new, nc, &mut edits);
        }

        for oc in old.class_ids() {
            let name = old.class_name(oc);
            if new.class_by_name(name).is_none() {
                edits.push(SchemaEdit {
                    kind: EditKind::Breaking,
                    detail: EditDetail::ClassRetired,
                    class: name.to_string(),
                    attr: None,
                    old_class: Some(oc),
                    new_class: None,
                    old_span: old.source_map().class_span(oc),
                    new_span: None,
                });
            }
        }

        SchemaDiff { edits }
    }

    /// Diffs one matched class pair: edges, then attributes, then excuses.
    fn diff_class(old: &Schema, oc: ClassId, new: &Schema, nc: ClassId, edits: &mut Vec<SchemaEdit>) {
        let name = new.class_name(nc).to_string();

        let old_supers: BTreeSet<&str> = old.supers(oc).iter().map(|&s| old.class_name(s)).collect();
        let new_supers: BTreeSet<&str> = new.supers(nc).iter().map(|&s| new.class_name(s)).collect();
        for &sup in new_supers.difference(&old_supers) {
            let sup_id = new.class_by_name(sup).expect("direct super resolves");
            edits.push(SchemaEdit {
                kind: EditKind::Breaking,
                detail: EditDetail::EdgeAdded { sup: sup.to_string() },
                class: name.clone(),
                attr: None,
                old_class: Some(oc),
                new_class: Some(nc),
                old_span: old.source_map().class_span(oc),
                new_span: new.source_map().super_span(nc, sup_id),
            });
        }
        for &sup in old_supers.difference(&new_supers) {
            let sup_id = old.class_by_name(sup).expect("direct super resolves");
            edits.push(SchemaEdit {
                kind: EditKind::Breaking,
                detail: EditDetail::EdgeRemoved { sup: sup.to_string() },
                class: name.clone(),
                attr: None,
                old_class: Some(oc),
                new_class: Some(nc),
                old_span: old.source_map().super_span(oc, sup_id),
                new_span: new.source_map().class_span(nc),
            });
        }

        let old_attrs: BTreeMap<&str, Sym> =
            old.class(oc).attrs.iter().map(|d| (old.resolve(d.name), d.name)).collect();
        let new_attrs: BTreeMap<&str, Sym> =
            new.class(nc).attrs.iter().map(|d| (new.resolve(d.name), d.name)).collect();

        for (&attr_name, &na) in &new_attrs {
            let n_spec = &new.declared_attr(nc, na).expect("declared").spec;
            let Some(&oa) = old_attrs.get(attr_name) else {
                edits.push(SchemaEdit {
                    kind: EditKind::Additive,
                    detail: EditDetail::AttrAdded { range: n_spec.range.render(new).to_string() },
                    class: name.clone(),
                    attr: Some(attr_name.to_string()),
                    old_class: Some(oc),
                    new_class: Some(nc),
                    old_span: old.source_map().class_span(oc),
                    new_span: new.source_map().attr_span(nc, na),
                });
                continue;
            };
            let o_spec = &old.declared_attr(oc, oa).expect("declared").spec;

            let rel = compare_ranges(old, &o_spec.range, new, &n_spec.range);
            if rel != RangeRel::Equal {
                let (kind, detail) = match rel {
                    RangeRel::Narrowed => (
                        EditKind::Refining,
                        EditDetail::RangeNarrowed {
                            old: o_spec.range.render(old).to_string(),
                            new: n_spec.range.render(new).to_string(),
                        },
                    ),
                    RangeRel::Widened => (
                        EditKind::Breaking,
                        EditDetail::RangeWidened {
                            old: o_spec.range.render(old).to_string(),
                            new: n_spec.range.render(new).to_string(),
                        },
                    ),
                    _ => (
                        EditKind::Breaking,
                        EditDetail::RangeChanged {
                            old: o_spec.range.render(old).to_string(),
                            new: n_spec.range.render(new).to_string(),
                        },
                    ),
                };
                edits.push(SchemaEdit {
                    kind,
                    detail,
                    class: name.clone(),
                    attr: Some(attr_name.to_string()),
                    old_class: Some(oc),
                    new_class: Some(nc),
                    old_span: old.source_map().attr_span(oc, oa),
                    new_span: new.source_map().attr_span(nc, na),
                });
            }

            let old_exc = excuse_names(old, oc, oa);
            let new_exc = excuse_names(new, nc, na);
            for (excused, on) in new_exc.difference(&old_exc) {
                let span = new
                    .sym(excused)
                    .zip(new.class_by_name(on))
                    .and_then(|(e, on_id)| new.source_map().excuse_span(nc, e, on_id));
                edits.push(SchemaEdit {
                    kind: EditKind::Refining,
                    detail: EditDetail::ExcuseAdded { excused: excused.clone(), on: on.clone() },
                    class: name.clone(),
                    attr: Some(attr_name.to_string()),
                    old_class: Some(oc),
                    new_class: Some(nc),
                    old_span: old.source_map().attr_span(oc, oa),
                    new_span: span.or_else(|| new.source_map().attr_span(nc, na)),
                });
            }
            for (excused, on) in old_exc.difference(&new_exc) {
                let span = old
                    .sym(excused)
                    .zip(old.class_by_name(on))
                    .and_then(|(e, on_id)| old.source_map().excuse_span(oc, e, on_id));
                edits.push(SchemaEdit {
                    kind: EditKind::Breaking,
                    detail: EditDetail::ExcuseRetired { excused: excused.clone(), on: on.clone() },
                    class: name.clone(),
                    attr: Some(attr_name.to_string()),
                    old_class: Some(oc),
                    new_class: Some(nc),
                    old_span: span.or_else(|| old.source_map().attr_span(oc, oa)),
                    new_span: new.source_map().attr_span(nc, na),
                });
            }
        }

        for (&attr_name, &oa) in &old_attrs {
            if !new_attrs.contains_key(attr_name) {
                let o_spec = &old.declared_attr(oc, oa).expect("declared").spec;
                edits.push(SchemaEdit {
                    kind: EditKind::Breaking,
                    detail: EditDetail::AttrRemoved { range: o_spec.range.render(old).to_string() },
                    class: name.clone(),
                    attr: Some(attr_name.to_string()),
                    old_class: Some(oc),
                    new_class: Some(nc),
                    old_span: old.source_map().attr_span(oc, oa),
                    new_span: new.source_map().class_span(nc),
                });
            }
        }
    }
}

/// One kind of random edit. Most are applied to the schema through the
/// builder; a rename and an edge removal are applied to the printed text.
#[derive(Clone, Copy, Debug)]
enum Edit {
    AddClass,
    RenameClass,
    AddEdge,
    RemoveEdge,
    AddAttr,
    RemoveAttr,
    NarrowRange,
    WidenRange,
    ChangeRange,
    AddToken,
    RetireToken,
    AddExcuse,
    RetireExcuse,
    SwapExcuseOn,
}

const EDITS: [Edit; 14] = [
    Edit::AddClass,
    Edit::RenameClass,
    Edit::AddEdge,
    Edit::RemoveEdge,
    Edit::AddAttr,
    Edit::RemoveAttr,
    Edit::NarrowRange,
    Edit::WidenRange,
    Edit::ChangeRange,
    Edit::AddToken,
    Edit::RetireToken,
    Edit::AddExcuse,
    Edit::RetireExcuse,
    Edit::SwapExcuseOn,
];

/// Edits applied to an old schema: the builder holds the model edits,
/// the two lists the text edits made after printing.
struct Editor<'s> {
    old: &'s Schema,
    b: SchemaBuilder,
    renames: Vec<(String, String)>,
    dropped_edges: Vec<(String, String)>,
}

impl Editor<'_> {
    fn class(&self, rng: &mut SplitMix64) -> ClassId {
        ClassId::from_raw(rng.gen_range(0, self.old.num_classes() - 1) as u32)
    }

    /// A random declaration among those `pick` accepts.
    fn decl(
        &self,
        rng: &mut SplitMix64,
        pick: impl Fn(&AttrSpec) -> bool,
    ) -> Option<(ClassId, Sym)> {
        let decls: Vec<(ClassId, Sym)> = self
            .old
            .class_ids()
            .flat_map(|c| self.old.class(c).attrs.iter().map(move |d| (c, d)))
            .filter(|(_, d)| pick(&d.spec))
            .map(|(c, d)| (c, d.name))
            .collect();
        rng.choose(&decls).copied()
    }

    /// A class other than those in `not` that declares or inherits `attr`.
    fn host(&self, rng: &mut SplitMix64, attr: Sym, not: &[ClassId]) -> Option<ClassId> {
        let hosts: Vec<ClassId> = self
            .old
            .class_ids()
            .filter(|&c| self.old.has_attr(c, attr) && !not.contains(&c))
            .collect();
        rng.choose(&hosts).copied()
    }

    fn tokens(&self) -> Vec<Sym> {
        (0..8)
            .filter_map(|i| self.old.sym(&format!("tok{i}")))
            .collect()
    }

    fn set_range(&mut self, c: ClassId, a: Sym, range: Range) {
        if let Some(spec) = self.b.attr_spec(c, a) {
            let spec = AttrSpec {
                range,
                excuses: spec.excuses.clone(),
            };
            self.b.set_attr_spec(c, a, spec).unwrap();
        }
    }

    fn set_excuses(&mut self, c: ClassId, a: Sym, excuses: Vec<Excuse>) {
        if let Some(spec) = self.b.attr_spec(c, a) {
            let spec = AttrSpec {
                range: spec.range.clone(),
                excuses,
            };
            self.b.set_attr_spec(c, a, spec).unwrap();
        }
    }

    fn apply(&mut self, edit: Edit, rng: &mut SplitMix64) {
        let old = self.old;
        let is_enum = |s: &AttrSpec| matches!(s.range, Range::Enum(_));
        match edit {
            Edit::AddClass => {
                let n = self.b.num_classes();
                let id = self.b.declare(&format!("Fresh{n}")).unwrap();
                let sup = self.class(rng);
                self.b.add_super(id, sup).unwrap();
                self.b
                    .add_attr(id, "extra", AttrSpec::plain(Range::Str))
                    .unwrap();
            }
            Edit::RenameClass => {
                let name = old.class_name(self.class(rng)).to_string();
                self.renames.push((name.clone(), format!("{name}r")));
            }
            Edit::AddEdge => {
                let c = self.class(rng);
                let sup = ClassId::from_raw(rng.gen_range(0, c.index()) as u32);
                if sup != c {
                    // A repeated edge is refused, which leaves no edit.
                    let _ = self.b.add_super(c, sup);
                }
            }
            Edit::RemoveEdge => {
                let c = self.class(rng);
                if let Some(&sup) = rng.choose(old.supers(c)) {
                    let edge = (
                        old.class_name(c).to_string(),
                        old.class_name(sup).to_string(),
                    );
                    self.dropped_edges.push(edge);
                }
            }
            Edit::AddAttr => {
                let c = self.class(rng);
                let name = format!("attr{}", rng.gen_range(0, 9));
                if old
                    .sym(&name)
                    .is_none_or(|a| old.declared_attr(c, a).is_none())
                {
                    let _ = self
                        .b
                        .add_attr(c, &name, AttrSpec::plain(Range::int(1, 9).unwrap()));
                }
            }
            Edit::RemoveAttr => {
                if let Some((c, a)) = self.decl(rng, |_| true) {
                    self.b.remove_attr(c, a);
                }
            }
            Edit::NarrowRange | Edit::WidenRange | Edit::AddToken => {
                let Some((c, a)) = self.decl(rng, is_enum) else {
                    return;
                };
                let Some(Range::Enum(mut set)) = self.b.attr_spec(c, a).map(|s| s.range.clone())
                else {
                    return;
                };
                match edit {
                    Edit::NarrowRange if set.len() > 1 => {
                        let drop = *rng
                            .choose(&set.iter().copied().collect::<Vec<_>>())
                            .unwrap();
                        set.remove(&drop);
                    }
                    Edit::WidenRange => set.extend(rng.choose(&self.tokens()).copied()),
                    Edit::AddToken => {
                        set.insert(self.b.intern("freshTok"));
                    }
                    _ => return,
                }
                self.set_range(c, a, Range::Enum(set));
            }
            Edit::ChangeRange => {
                let Some((c, a)) = self.decl(rng, |_| true) else {
                    return;
                };
                let range = match rng.gen_range(0, 3) {
                    0 => Range::Str,
                    1 => Range::Class(self.class(rng)),
                    2 => Range::Record {
                        base: Some(self.class(rng)),
                        fields: vec![FieldSpec {
                            name: a,
                            spec: AttrSpec::plain(Range::int(0, 5).unwrap()),
                        }],
                    },
                    _ => Range::int(0, 9).unwrap(),
                };
                self.set_range(c, a, range);
            }
            Edit::RetireToken => {
                let Some(tok) = rng.choose(&self.tokens()).copied() else {
                    return;
                };
                for c in old.class_ids() {
                    for d in &old.class(c).attrs {
                        let Some(Range::Enum(mut set)) =
                            self.b.attr_spec(c, d.name).map(|s| s.range.clone())
                        else {
                            continue;
                        };
                        if set.remove(&tok) {
                            let range = if set.is_empty() {
                                Range::Str
                            } else {
                                Range::Enum(set)
                            };
                            self.set_range(c, d.name, range);
                        }
                    }
                }
            }
            Edit::AddExcuse => {
                let Some((c, a)) = self.decl(rng, |_| true) else {
                    return;
                };
                let mut excuses = self.b.attr_spec(c, a).unwrap().excuses.clone();
                let listed: Vec<ClassId> = excuses.iter().map(|e| e.on).collect();
                if let Some(on) = self.host(rng, a, &listed) {
                    excuses.push(Excuse { attr: a, on });
                    self.set_excuses(c, a, excuses);
                }
            }
            Edit::RetireExcuse => {
                let Some((c, a)) = self.decl(rng, |s| !s.excuses.is_empty()) else {
                    return;
                };
                if let Some(e) = self
                    .b
                    .attr_spec(c, a)
                    .and_then(|s| s.excuses.first().copied())
                {
                    self.b.remove_excuse(c, a, e.on);
                }
            }
            Edit::SwapExcuseOn => {
                let Some((c, a)) = self.decl(rng, |s| !s.excuses.is_empty()) else {
                    return;
                };
                let Some(mut excuses) = self.b.attr_spec(c, a).map(|s| s.excuses.clone()) else {
                    return;
                };
                let at = rng.gen_range(0, excuses.len().saturating_sub(1));
                let Some(e) = excuses.get(at).copied() else {
                    return;
                };
                let listed: Vec<ClassId> = excuses.iter().map(|e| e.on).collect();
                if let Some(on) = self.host(rng, e.attr, &listed) {
                    excuses[at] = Excuse { attr: e.attr, on };
                    self.set_excuses(c, a, excuses);
                }
            }
        }
    }

    /// Builds the edited schema and prints it with its classes shuffled,
    /// then applies the text edits. `None` when an edit combination is
    /// not a valid schema (an excuse left on a class that no longer has
    /// the attribute, say).
    fn finish(self, rng: &mut SplitMix64) -> Option<String> {
        let schema = self.b.build().ok()?;
        let mut order: Vec<ClassId> = schema.class_ids().collect();
        rng.shuffle(&mut order);
        let mut src = String::new();
        for c in order {
            let mut class = String::new();
            print_class(&schema, c, &mut class);
            for (sub, sup) in &self.dropped_edges {
                class = drop_edge(&class, sub, sup);
            }
            src.push_str(&class);
            src.push('\n');
        }
        for (from, to) in &self.renames {
            src = rename(&src, from, to);
        }
        compile(&src).ok()?;
        Some(src)
    }
}

/// Drops `sup` from the is-a list on the first line of `sub`'s printed
/// definition.
fn drop_edge(class: &str, sub: &str, sup: &str) -> String {
    let (head, body) = class.split_once('\n').unwrap_or((class, ""));
    let Some(list) = head.strip_prefix(&format!("class {sub} is-a ")) else {
        return class.to_string();
    };
    let (list, with) = list
        .strip_suffix(" with")
        .map_or((list, ""), |l| (l, " with"));
    let supers: Vec<&str> = list.split(", ").filter(|&s| s != sup).collect();
    let head = if supers.is_empty() {
        format!("class {sub}{with}")
    } else {
        format!("class {sub} is-a {}{with}", supers.join(", "))
    };
    format!("{head}\n{body}")
}

/// Renames every identifier spelled `from` to `to`; enumeration tokens
/// (`'name`) are not identifiers.
fn rename(src: &str, from: &str, to: &str) -> String {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut out = String::with_capacity(src.len());
    let mut rest = src;
    while let Some(start) = rest.find(|c: char| ident(c)) {
        let end = rest[start..]
            .find(|c: char| !ident(c))
            .map_or(rest.len(), |n| start + n);
        out.push_str(&rest[..start]);
        let word = &rest[start..end];
        let quoted = rest[..start].ends_with('\'');
        out.push_str(if word == from && !quoted { to } else { word });
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

/// The `EditDetail` variant, for coverage.
fn variant(detail: &EditDetail) -> &'static str {
    match detail {
        EditDetail::ClassAdded => "ClassAdded",
        EditDetail::ClassRetired => "ClassRetired",
        EditDetail::EdgeAdded { .. } => "EdgeAdded",
        EditDetail::EdgeRemoved { .. } => "EdgeRemoved",
        EditDetail::AttrAdded { .. } => "AttrAdded",
        EditDetail::AttrRemoved { .. } => "AttrRemoved",
        EditDetail::RangeNarrowed { .. } => "RangeNarrowed",
        EditDetail::RangeWidened { .. } => "RangeWidened",
        EditDetail::RangeChanged { .. } => "RangeChanged",
        EditDetail::ExcuseAdded { .. } => "ExcuseAdded",
        EditDetail::ExcuseRetired { .. } => "ExcuseRetired",
    }
}

/// Asserts that the diff and the reference agree from `a` to `b` and
/// back; returns the reference's edits in both directions.
fn assert_agrees(what: &str, a: &Schema, b: &Schema) -> Vec<SchemaDiff> {
    let mut diffs = Vec::new();
    for (dir, old, new) in [("forward", a, b), ("backward", b, a)] {
        let (got, want) = (diff_schemas(old, new), reference::diff_schemas(old, new));
        if got.edits != want.edits {
            let at = got.edits.iter().zip(&want.edits).position(|(g, w)| g != w);
            let at = at.unwrap_or(got.edits.len().min(want.edits.len()));
            panic!(
                "{what} ({dir}): {} edits, the reference {}; first difference at {at}:\n{:?}\nvs\n{:?}",
                got.edits.len(),
                want.edits.len(),
                got.edits.get(at),
                want.edits.get(at),
            );
        }
        diffs.push(want);
    }
    diffs
}

#[test]
fn generated_pairs_agree_with_the_reference() {
    let mut seen = BTreeSet::new();
    let (mut swapped, mut compared) = (0, 0);
    for seed in 1..=6u64 {
        let params = HierarchyParams {
            classes: 60,
            max_supers: 1 + seed as usize % 3,
            redefine_rate: 0.6,
            contradiction_rate: 0.6,
            seed,
            ..Default::default()
        };
        let old_src = print_schema(&generate(&params).schema);
        let old = compile(&old_src).unwrap();
        let mut rng = SplitMix64::new(seed);
        // Each edit kind alone, then several at once.
        let mut plans: Vec<Vec<Edit>> = EDITS.iter().map(|&e| vec![e]).collect();
        for _ in 0..6 {
            plans.push((0..4).map(|_| *rng.choose(&EDITS).unwrap()).collect());
        }
        for (i, plan) in plans.iter().enumerate() {
            let mut ed = Editor {
                old: &old,
                b: SchemaBuilder::from_schema(&old),
                renames: Vec::new(),
                dropped_edges: Vec::new(),
            };
            for &edit in plan {
                ed.apply(edit, &mut rng);
            }
            let Some(new_src) = ed.finish(&mut rng) else {
                continue;
            };
            let new = compile(&new_src).unwrap();
            compared += 1;
            let what = format!("seed {seed} plan {i} {plan:?}");
            for diff in assert_agrees(&what, &old, &new) {
                seen.extend(diff.edits.iter().map(|e| variant(&e.detail)));
                let at = |e: &SchemaEdit| (e.class.clone(), e.attr.clone());
                let added: BTreeSet<_> = diff
                    .edits
                    .iter()
                    .filter(|e| matches!(e.detail, EditDetail::ExcuseAdded { .. }))
                    .map(at)
                    .collect();
                swapped += diff
                    .edits
                    .iter()
                    .filter(|e| matches!(e.detail, EditDetail::ExcuseRetired { .. }))
                    .filter(|e| added.contains(&at(e)))
                    .count();
            }
        }
    }
    let all: BTreeSet<&str> = [
        "ClassAdded",
        "ClassRetired",
        "EdgeAdded",
        "EdgeRemoved",
        "AttrAdded",
        "AttrRemoved",
        "RangeNarrowed",
        "RangeWidened",
        "RangeChanged",
        "ExcuseAdded",
        "ExcuseRetired",
    ]
    .into();
    assert!(
        compared >= 100,
        "only {compared} of 120 edited schemas were valid"
    );
    assert_eq!(seen, all, "every edit kind is reached");
    assert!(
        swapped > 0,
        "some declaration swaps an excuse clause for another"
    );
}

#[test]
fn fixture_pairs_and_reprinted_vignettes_agree_with_the_reference() {
    let pairs = [
        (
            include_str!("../crates/workloads/fixtures/evolve400-old.sdl"),
            include_str!("../crates/workloads/fixtures/evolve400-new.sdl"),
        ),
        (
            include_str!("../examples/data/hospital.sdl"),
            include_str!("../examples/data/hospital-evolved.sdl"),
        ),
        (
            include_str!("fixtures/record-kind-old.sdl"),
            include_str!("fixtures/record-kind-new.sdl"),
        ),
        (
            include_str!("fixtures/excuse-edits-old.sdl"),
            include_str!("fixtures/excuse-edits-new.sdl"),
        ),
    ];
    for (i, (a, b)) in pairs.iter().enumerate() {
        assert_agrees(
            &format!("fixture pair {i}"),
            &compile(a).unwrap(),
            &compile(b).unwrap(),
        );
    }
    let mut rng = SplitMix64::new(7);
    for (name, src) in vignettes::all() {
        let schema = compile(src).unwrap();
        let ed = Editor {
            old: &schema,
            b: SchemaBuilder::from_schema(&schema),
            renames: Vec::new(),
            dropped_edges: Vec::new(),
        };
        let reprinted = compile(&ed.finish(&mut rng).unwrap()).unwrap();
        for diff in assert_agrees(name, &schema, &reprinted) {
            assert!(diff.is_empty(), "{name}: a reprint has no edits");
        }
    }
}
