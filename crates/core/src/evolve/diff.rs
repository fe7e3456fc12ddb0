//! Semantic schema diffing with impact cones.
//!
//! The paper's §6 treats schema evolution as a first-class operation; the
//! *veracity* desideratum demands that "a modification to some class
//! definition is propagated to all its subclasses". This module makes
//! that propagation a static analysis: [`diff_schemas`] matches classes,
//! attributes, is-a edges, and excuse clauses across two *independently
//! compiled* schemas by name, classifies every edit as additive, refining,
//! or breaking, and [`impact_cone`] projects each edit over the is-a DAG
//! into the [`DirtySet`] of classes whose check verdict may flip and
//! extents whose stored objects need re-validation.
//!
//! [`check_incremental`] then consumes the dirty set: classes outside the
//! cone carry their diagnostics over from the old report (translated to
//! new-schema ids), classes inside it are re-checked, and the result is
//! bit-for-bit the full [`check`] of the new schema — re-verified on every
//! fixture by the test suite and pinned at O(cone) by `bench_diff_cone`.

use std::collections::{BTreeMap, BTreeSet};

use chc_model::{ClassId, Range, Schema, Span, Sym};

use crate::check::Checker;
use crate::diagnostics::{CheckReport, DiagKind, Diagnostic};

/// How an edit relates old readers and writers to the new schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EditKind {
    /// Pure extension: nothing that type-checked before can break.
    Additive,
    /// The constraint vocabulary got stronger in a §5.1-compatible way
    /// (range narrowed, excuse added).
    Refining,
    /// Old verdicts and stored objects may be invalidated (range widened
    /// or removed, excuse retired, is-a edge added or removed).
    Breaking,
}

impl EditKind {
    /// Lower-case label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            EditKind::Additive => "additive",
            EditKind::Refining => "refining",
            EditKind::Breaking => "breaking",
        }
    }
}

/// What exactly changed. Ranges are carried as rendered SDL strings so an
/// edit stays meaningful even when one side's ids are gone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditDetail {
    /// A class exists only in the new schema.
    ClassAdded,
    /// A class exists only in the old schema.
    ClassRetired,
    /// `class is-a sup` appears only in the new schema.
    EdgeAdded {
        /// The superclass name.
        sup: String,
    },
    /// `class is-a sup` appears only in the old schema.
    EdgeRemoved {
        /// The superclass name.
        sup: String,
    },
    /// An attribute declaration exists only in the new schema.
    AttrAdded {
        /// Rendered range of the new declaration.
        range: String,
    },
    /// An attribute declaration exists only in the old schema.
    AttrRemoved {
        /// Rendered range of the removed declaration.
        range: String,
    },
    /// The new range admits strictly fewer values.
    RangeNarrowed {
        /// Rendered old range.
        old: String,
        /// Rendered new range.
        new: String,
    },
    /// The new range admits strictly more values.
    RangeWidened {
        /// Rendered old range.
        old: String,
        /// Rendered new range.
        new: String,
    },
    /// The ranges are incomparable (neither subsumes the other, or the old
    /// range no longer translates into the new schema).
    RangeChanged {
        /// Rendered old range.
        old: String,
        /// Rendered new range.
        new: String,
    },
    /// An `excuses excused on on` clause exists only in the new schema.
    ExcuseAdded {
        /// The excused attribute.
        excused: String,
        /// The class carrying the excused constraint.
        on: String,
    },
    /// An `excuses excused on on` clause exists only in the old schema.
    ExcuseRetired {
        /// The excused attribute.
        excused: String,
        /// The class carrying the excused constraint.
        on: String,
    },
}

/// One matched, classified edit between two schemas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaEdit {
    /// Additive / refining / breaking.
    pub kind: EditKind,
    /// The structural change.
    pub detail: EditDetail,
    /// Name of the class the edit is anchored at.
    pub class: String,
    /// Name of the attribute involved, if any.
    pub attr: Option<String>,
    /// The class's id in the old schema, when it exists there.
    pub old_class: Option<ClassId>,
    /// The class's id in the new schema, when it exists there.
    pub new_class: Option<ClassId>,
    /// Source position of the edited site in the old schema's file.
    pub old_span: Option<Span>,
    /// Source position of the edited site in the new schema's file.
    pub new_span: Option<Span>,
}

impl SchemaEdit {
    /// One-line human description, e.g.
    /// `breaking: Person.age range narrowed from 0..130 to 1..120`.
    pub fn describe(&self) -> String {
        let site = match &self.attr {
            Some(a) => format!("{}.{a}", self.class),
            None => self.class.clone(),
        };
        let what = match &self.detail {
            EditDetail::ClassAdded => format!("class `{site}` added"),
            EditDetail::ClassRetired => format!("class `{site}` retired"),
            EditDetail::EdgeAdded { sup } => format!("`{site} is-a {sup}` edge added"),
            EditDetail::EdgeRemoved { sup } => format!("`{site} is-a {sup}` edge removed"),
            EditDetail::AttrAdded { range } => format!("attribute `{site}: {range}` added"),
            EditDetail::AttrRemoved { range } => format!("attribute `{site}: {range}` removed"),
            EditDetail::RangeNarrowed { old, new } => {
                format!("`{site}` range narrowed from {old} to {new}")
            }
            EditDetail::RangeWidened { old, new } => {
                format!("`{site}` range widened from {old} to {new}")
            }
            EditDetail::RangeChanged { old, new } => {
                format!("`{site}` range changed from {old} to {new} (incomparable)")
            }
            EditDetail::ExcuseAdded { excused, on } => {
                format!("`{site}` now excuses `{excused}` on `{on}`")
            }
            EditDetail::ExcuseRetired { excused, on } => {
                format!("`{site}` no longer excuses `{excused}` on `{on}`")
            }
        };
        format!("{}: {what}", self.kind.label())
    }
}

/// The full set of edits between two schemas.
#[derive(Debug, Clone, Default)]
pub struct SchemaDiff {
    /// All edits, grouped by class in new-schema id order (retired classes
    /// last, in old-schema order).
    pub edits: Vec<SchemaEdit>,
}

impl SchemaDiff {
    /// Whether the schemas are semantically identical.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// Count of edits of the given kind.
    pub fn count(&self, kind: EditKind) -> usize {
        self.edits.iter().filter(|e| e.kind == kind).count()
    }
}

/// The classes an edit (or a whole diff) can affect, in new-schema ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtySet {
    /// Classes whose check verdict may flip — exactly what
    /// [`check_incremental`] re-checks.
    pub classes: BTreeSet<ClassId>,
    /// Classes whose stored extents need re-validation (the edit can only
    /// have *shrunk* admission somewhere below them).
    pub extents: BTreeSet<ClassId>,
}

impl DirtySet {
    /// Merges another dirty set into this one.
    pub fn union_with(&mut self, other: &DirtySet) {
        self.classes.extend(other.classes.iter().copied());
        self.extents.extend(other.extents.iter().copied());
    }
}

/// How an old range relates to its replacement, judged semantically (via
/// [`Range::subsumes`] in the new schema) rather than syntactically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeRel {
    /// Mutually subsuming.
    Equal,
    /// The new range is a strict specialization of the old.
    Narrowed,
    /// The new range strictly subsumes the old.
    Widened,
    /// Incomparable, or the old range mentions classes/tokens that no
    /// longer exist.
    Changed,
}

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
                detail: EditDetail::AttrAdded { range: n_spec.range.render(new) },
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
                        old: o_spec.range.render(old),
                        new: n_spec.range.render(new),
                    },
                ),
                RangeRel::Widened => (
                    EditKind::Breaking,
                    EditDetail::RangeWidened {
                        old: o_spec.range.render(old),
                        new: n_spec.range.render(new),
                    },
                ),
                _ => (
                    EditKind::Breaking,
                    EditDetail::RangeChanged {
                        old: o_spec.range.render(old),
                        new: n_spec.range.render(new),
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
                detail: EditDetail::AttrRemoved { range: o_spec.range.render(old) },
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

/// Whether an edit can only have *shrunk* admission somewhere — the cases
/// where stored objects that validated against the old schema may no
/// longer validate (the D001 stored-object hazard).
fn shrinks_admission(detail: &EditDetail) -> bool {
    matches!(
        detail,
        EditDetail::AttrAdded { .. }
            | EditDetail::RangeNarrowed { .. }
            | EditDetail::RangeChanged { .. }
            | EditDetail::ExcuseRetired { .. }
            | EditDetail::EdgeAdded { .. }
    )
}

/// The impact cone of a single edit, in new-schema ids.
///
/// A class's verdict is a function of the definitions of its
/// ancestors-with-self and the is-a relations among them (declarers,
/// *applicable* excusers, and supers all live in that closure), so a
/// definition edit at `C` can only flip verdicts in `C`'s descendant
/// cone. Excuse and is-a-edge edits conservatively dirty the ancestor
/// cone too: they move which constraints are *applicable* along paths
/// through `C`, and the §5.1 k-way admission check
/// ([`crate::sat::admits_common_value`]) re-derives admissibility from
/// that closure.
pub fn edit_cone(old: &Schema, new: &Schema, edit: &SchemaEdit) -> DirtySet {
    let mut dirty = DirtySet::default();
    let down = |schema: &Schema, c: ClassId, out: &mut BTreeSet<ClassId>| {
        out.extend(schema.descendants_with_self(c));
    };
    match (&edit.detail, edit.new_class) {
        (EditDetail::ClassRetired, _) => {
            // Map the retired class's old descendants into the new schema
            // by name, then take *their* descendant cones there.
            let oc = edit.old_class.expect("retired class has an old id");
            for od in old.descendants_with_self(oc) {
                if let Some(nd) = new.class_by_name(old.class_name(od)) {
                    down(new, nd, &mut dirty.classes);
                }
            }
        }
        (
            EditDetail::EdgeAdded { .. }
            | EditDetail::EdgeRemoved { .. }
            | EditDetail::ExcuseAdded { .. }
            | EditDetail::ExcuseRetired { .. },
            Some(nc),
        ) => {
            dirty.classes.extend(new.ancestors_with_self(nc));
            // The ancestor side of a *removed* edge or excuse only exists
            // in the old schema — map it across by name.
            if let Some(oc) = edit.old_class {
                for oa in old.ancestors_with_self(oc) {
                    if let Some(na) = new.class_by_name(old.class_name(oa)) {
                        dirty.classes.insert(na);
                    }
                }
            }
            down(new, nc, &mut dirty.classes);
        }
        (_, Some(nc)) => down(new, nc, &mut dirty.classes),
        (_, None) => {}
    }
    if shrinks_admission(&edit.detail) {
        if let Some(nc) = edit.new_class {
            down(new, nc, &mut dirty.extents);
        }
    }
    dirty
}

/// The union of [`edit_cone`] over every edit in the diff.
pub fn impact_cone(old: &Schema, new: &Schema, diff: &SchemaDiff) -> DirtySet {
    let mut dirty = DirtySet::default();
    for edit in &diff.edits {
        dirty.union_with(&edit_cone(old, new, edit));
    }
    dirty
}

/// The result of an incremental re-check.
#[derive(Debug, Clone)]
pub struct IncrementalCheck {
    /// The semantic diff that drove the re-check.
    pub diff: SchemaDiff,
    /// The classes re-checked / extents flagged.
    pub dirty: DirtySet,
    /// The full report of the new schema — identical to `check(new)`.
    pub report: CheckReport,
}

/// Translates one old-schema diagnostic into new-schema ids, matching
/// classes by name and the attribute by spelling. `None` when anything no
/// longer resolves (the caller then falls back to re-checking the class).
fn translate_diag(old: &Schema, new: &Schema, d: &Diagnostic) -> Option<Diagnostic> {
    let class_of = |c: ClassId| new.class_by_name(old.class_name(c));
    let kind = match &d.kind {
        DiagKind::UnexcusedContradiction { contradicted } => {
            DiagKind::UnexcusedContradiction { contradicted: class_of(*contradicted)? }
        }
        DiagKind::ExcuseRangeEscape { contradicted, excuser } => DiagKind::ExcuseRangeEscape {
            contradicted: class_of(*contradicted)?,
            excuser: class_of(*excuser)?,
        },
        DiagKind::IncompatibleParents { a, b } => {
            DiagKind::IncompatibleParents { a: class_of(*a)?, b: class_of(*b)? }
        }
        DiagKind::JointlyUnsatisfiable { declarers } => DiagKind::JointlyUnsatisfiable {
            declarers: declarers.iter().map(|&c| class_of(c)).collect::<Option<Vec<_>>>()?,
        },
        DiagKind::RedundantExcuse { on } => DiagKind::RedundantExcuse { on: class_of(*on)? },
    };
    Some(Diagnostic {
        severity: d.severity,
        kind,
        class: class_of(d.class)?,
        attr: new.sym(old.resolve(d.attr))?,
    })
}

/// Re-checks `new` in O(cone): classes outside the dirty set carry their
/// diagnostics over from `old_report` (translated to new ids), classes
/// inside it are re-checked. Classes are processed in new-schema id order
/// — ancestors first — and carried-over diagnostics enter the checker's
/// index of error sites as they are spliced in, so the cross-class
/// deduplication inside the joint-satisfiability check sees exactly the
/// report prefix a full check would have built.
///
/// The resulting report is identical to `check(new)`; the caller supplies
/// `old_report` (typically remembered from the last full check) so the
/// hot path never touches the clean region of the schema.
pub fn check_incremental(old: &Schema, old_report: &CheckReport, new: &Schema) -> IncrementalCheck {
    let diff = diff_schemas(old, new);
    let dirty = impact_cone(old, new, &diff);

    let mut by_old_class: BTreeMap<ClassId, Vec<&Diagnostic>> = BTreeMap::new();
    for d in &old_report.diagnostics {
        by_old_class.entry(d.class).or_default().push(d);
    }

    let mut checker = Checker::new(new);
    for nc in new.class_ids() {
        if dirty.classes.contains(&nc) {
            checker.check_class(nc);
            continue;
        }
        // A clean class always has an old counterpart: unmatched new
        // classes are ClassAdded edits and land in their own cone.
        let oc = old.class_by_name(new.class_name(nc)).expect("clean class existed before");
        let carried = by_old_class.get(&oc).map(Vec::as_slice).unwrap_or(&[]);
        let mut translated = Vec::with_capacity(carried.len());
        let mut ok = true;
        for d in carried {
            match translate_diag(old, new, d) {
                Some(t) => translated.push(t),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            checker.carry_over(translated);
        } else {
            checker.check_class(nc);
        }
    }

    IncrementalCheck { diff, dirty, report: checker.finish() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use chc_sdl::compile;

    const HOSPITAL_OLD: &str = "
        class Physician;
        class Psychologist;
        class Person with age: 1..120;
        class Patient is-a Person with treatedBy: Physician;
        class Alcoholic is-a Patient with
            treatedBy: Psychologist excuses treatedBy on Patient;
    ";

    fn s(src: &str) -> Schema {
        compile(src).unwrap()
    }

    fn find<'d>(diff: &'d SchemaDiff, class: &str) -> Vec<&'d SchemaEdit> {
        diff.edits.iter().filter(|e| e.class == class).collect()
    }

    #[test]
    fn identical_schemas_diff_empty() {
        let old = s(HOSPITAL_OLD);
        let new = s(HOSPITAL_OLD);
        assert!(diff_schemas(&old, &new).is_empty());
        let dirty = impact_cone(&old, &new, &diff_schemas(&old, &new));
        assert!(dirty.classes.is_empty() && dirty.extents.is_empty());
    }

    #[test]
    fn narrowing_is_refining_and_dirties_descendant_extents() {
        let old = s(HOSPITAL_OLD);
        let new = s(&HOSPITAL_OLD.replace("age: 1..120", "age: 18..65"));
        let diff = diff_schemas(&old, &new);
        assert_eq!(diff.edits.len(), 1);
        let e = &diff.edits[0];
        assert_eq!(e.kind, EditKind::Refining);
        assert!(matches!(&e.detail, EditDetail::RangeNarrowed { old, new }
            if old == "1..120" && new == "18..65"));
        let dirty = impact_cone(&old, &new, &diff);
        let person = new.class_by_name("Person").unwrap();
        let expected: BTreeSet<ClassId> = new.descendants_with_self(person).collect();
        assert_eq!(dirty.classes, expected);
        assert_eq!(dirty.extents, expected, "narrowing endangers stored objects below");
        // Unrelated roots stay clean.
        let physician = new.class_by_name("Physician").unwrap();
        assert!(!dirty.classes.contains(&physician));
    }

    #[test]
    fn widening_is_breaking_but_not_extent_dirtying() {
        let old = s(HOSPITAL_OLD);
        let new = s(&HOSPITAL_OLD.replace("age: 1..120", "age: 0..150"));
        let diff = diff_schemas(&old, &new);
        assert_eq!(diff.edits.len(), 1);
        assert_eq!(diff.edits[0].kind, EditKind::Breaking);
        assert!(matches!(diff.edits[0].detail, EditDetail::RangeWidened { .. }));
        let dirty = impact_cone(&old, &new, &diff);
        assert!(dirty.extents.is_empty(), "widening admits strictly more");
        assert!(!dirty.classes.is_empty());
    }

    #[test]
    fn enum_narrowing_with_retired_token_is_not_changed() {
        // `'WV` is dropped everywhere in the new schema, so its token is
        // never interned there — the comparison must still see a clean
        // subset, not an incomparable pair.
        let old = s("class Address with state: {'AL, 'NJ, 'WV};");
        let new = s("class Address with state: {'AL, 'NJ};");
        let diff = diff_schemas(&old, &new);
        assert_eq!(diff.edits.len(), 1);
        assert!(matches!(diff.edits[0].detail, EditDetail::RangeNarrowed { .. }));
    }

    #[test]
    fn excuse_retirement_is_breaking_with_old_span() {
        let old = s(HOSPITAL_OLD);
        let new = s(&HOSPITAL_OLD.replace(" excuses treatedBy on Patient", ""));
        let diff = diff_schemas(&old, &new);
        let edits = find(&diff, "Alcoholic");
        assert_eq!(edits.len(), 1);
        assert_eq!(edits[0].kind, EditKind::Breaking);
        assert!(matches!(&edits[0].detail,
            EditDetail::ExcuseRetired { excused, on } if excused == "treatedBy" && on == "Patient"));
        assert!(edits[0].old_span.is_some(), "anchored at the old excuse clause");
        let dirty = impact_cone(&old, &new, &diff);
        let alcoholic = new.class_by_name("Alcoholic").unwrap();
        assert!(dirty.classes.contains(&alcoholic));
        assert!(dirty.extents.contains(&alcoholic));
        // Conservative ancestor direction per the excuse-edit rule.
        let patient = new.class_by_name("Patient").unwrap();
        assert!(dirty.classes.contains(&patient));
    }

    #[test]
    fn edge_edits_are_breaking_and_dirty_both_directions() {
        let old = s(HOSPITAL_OLD);
        let new = s(&HOSPITAL_OLD.replace("class Patient is-a Person", "class Patient"));
        let diff = diff_schemas(&old, &new);
        let edits = find(&diff, "Patient");
        assert_eq!(edits.len(), 1);
        assert!(matches!(&edits[0].detail, EditDetail::EdgeRemoved { sup } if sup == "Person"));
        assert_eq!(edits[0].kind, EditKind::Breaking);
        let dirty = impact_cone(&old, &new, &diff);
        let person = new.class_by_name("Person").unwrap();
        let alcoholic = new.class_by_name("Alcoholic").unwrap();
        assert!(dirty.classes.contains(&person), "ancestor side of the cone");
        assert!(dirty.classes.contains(&alcoholic), "descendant side of the cone");
    }

    #[test]
    fn rename_reports_retire_plus_add_not_breaking_edits() {
        let old = s(HOSPITAL_OLD);
        let new = s(&HOSPITAL_OLD.replace("Psychologist", "Therapist"));
        let diff = diff_schemas(&old, &new);
        let kinds: Vec<_> = diff.edits.iter().map(|e| (&e.detail, e.class.as_str())).collect();
        assert!(
            kinds.iter().any(|(d, c)| matches!(d, EditDetail::ClassAdded) && *c == "Therapist"),
            "{kinds:?}"
        );
        assert!(kinds
            .iter()
            .any(|(d, c)| matches!(d, EditDetail::ClassRetired) && *c == "Psychologist"));
        // Alcoholic's range referred to the renamed class: that is a real
        // range change, but no spurious edge or excuse edits appear.
        assert!(!diff
            .edits
            .iter()
            .any(|e| matches!(e.detail, EditDetail::EdgeAdded { .. } | EditDetail::EdgeRemoved { .. })));
        assert!(!diff
            .edits
            .iter()
            .any(|e| matches!(e.detail, EditDetail::ExcuseAdded { .. } | EditDetail::ExcuseRetired { .. })));
    }

    #[test]
    fn class_addition_is_additive_and_local() {
        let old = s(HOSPITAL_OLD);
        let new = s(&format!(
            "{HOSPITAL_OLD}\nclass Surgeon is-a Physician with specialty: {{'Cardiac, 'Ortho}};"
        ));
        let diff = diff_schemas(&old, &new);
        assert_eq!(diff.edits.len(), 1);
        assert_eq!(diff.edits[0].kind, EditKind::Additive);
        let dirty = impact_cone(&old, &new, &diff);
        let surgeon = new.class_by_name("Surgeon").unwrap();
        assert_eq!(dirty.classes, BTreeSet::from([surgeon]), "locality: only the new leaf");
        assert!(dirty.extents.is_empty());
    }

    fn assert_incremental_matches_full(old_src: &str, new_src: &str) {
        let old = s(old_src);
        let new = s(new_src);
        let old_report = check(&old);
        let inc = check_incremental(&old, &old_report, &new);
        let full = check(&new);
        assert_eq!(
            inc.report.diagnostics, full.diagnostics,
            "incremental vs full on\n{new_src}\n(dirty: {:?})",
            inc.dirty.classes
        );
    }

    #[test]
    fn incremental_equals_full_on_handwritten_edits() {
        let edits = [
            HOSPITAL_OLD.to_string(),
            HOSPITAL_OLD.replace("age: 1..120", "age: 18..65"),
            HOSPITAL_OLD.replace("age: 1..120", "age: 0..150"),
            HOSPITAL_OLD.replace(" excuses treatedBy on Patient", ""),
            HOSPITAL_OLD.replace("class Patient is-a Person", "class Patient"),
            HOSPITAL_OLD.replace("Psychologist", "Therapist"),
            HOSPITAL_OLD.replace("treatedBy: Physician", "treatedBy: Psychologist"),
            format!("{HOSPITAL_OLD}\nclass Neurotic is-a Patient with treatedBy: Psychologist;"),
            format!(
                "{HOSPITAL_OLD}\nclass Surgeon is-a Physician with specialty: {{'Cardiac}};"
            ),
        ];
        for new_src in &edits {
            assert_incremental_matches_full(HOSPITAL_OLD, new_src);
            // And the reverse direction of every edit.
            assert_incremental_matches_full(new_src, HOSPITAL_OLD);
        }
    }

    #[test]
    fn incremental_carries_over_diagnostics_of_clean_classes() {
        // The old schema already has an error *outside* the edit's cone;
        // the incremental report must still contain it, translated.
        let old_src = "
            class A with x: 1..10;
            class B is-a A with x: 0..20;
            class C with y: String;
        ";
        let new_src = "
            class A with x: 1..10;
            class B is-a A with x: 0..20;
            class C with y: String; z: 1..5;
        ";
        let old = s(old_src);
        let new = s(new_src);
        let old_report = check(&old);
        assert_eq!(old_report.errors().count(), 1);
        let inc = check_incremental(&old, &old_report, &new);
        let b = new.class_by_name("B").unwrap();
        assert!(!inc.dirty.classes.contains(&b), "B is outside the cone");
        assert_eq!(inc.report.diagnostics, check(&new).diagnostics);
        assert_eq!(inc.report.errors().count(), 1);
    }
}
