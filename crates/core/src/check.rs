//! The schema checker: §5.1's revised rule for specialization.
//!
//! > "The revised rule for specialization is that if a subclass specifies
//! > a new range for an existing attribute, then this range must itself be
//! > a specialization of the inherited range(s), or it must excuse the
//! > definition(s) of the constraint(s) being contradicted."
//!
//! The checker also enforces the multiple-inheritance side of the rule
//! (§5.3): a class inheriting mutually unsatisfiable constraints is an
//! error unless an excuse adjudicates, and it reports redundant excuses
//! as warnings. Because contradictions must be *explicit*, the checker can
//! distinguish erroneous definitions from intentional ones — the property
//! default inheritance destroys (§4.2.4).
//!
//! A check pays only for distinct work. Ranges are compared through the
//! interned table of [`crate::canon`], the cross-class deduplication of
//! error reports answers from a dense index of error sites kept beside
//! the report, and the checker's counter totals reach the recorder once
//! per check. Per-class attribution (label scope, timing, memory probe,
//! labeled twins) and distinct-pair keys are prepared only while an
//! installed recorder keeps them (`chc_obs::keeps`).
//!
//! # What is decided once
//!
//! Each declaration `(class, p: S)` is checked against every constraint
//! `(B, p: R_B)` it inherits, once, and the checker records whether `S`
//! is *covered* by it: `S` holds a value, and the declaration itself
//! excuses `(B, p)`, or `R_B ⊇ S`, or an excuser `E` with `class ⊆ E` has
//! `S_E ⊇ S`. Subsumption never crosses value sorts
//! ([`Range::sort`](chc_model::Range::sort)): a pure record type holds
//! records and a refined class type entities, so neither covers the
//! other. An excuse on the declaration itself
//! covers it outright (its excuser range is `S`, and a range subsumes
//! itself), so the excuser scan only looks for the first other excuser
//! covering `S`, which makes that excuse redundant.
//!
//! The joint-satisfiability pass then reuses those verdicts instead of
//! deciding the same facts from the allowed sets again. Both reuses rest
//! on §5.1's rule being transitive through the allowed sets: a covered
//! declaration puts every value of `S` in the allowed set of `(B, p)` for
//! instances of `class`, and `S` itself is in the allowed set of
//! `(class, p)`.
//!
//! * A pair `(B, class)` whose declaration is covered by `B` shares the
//!   values of `S`, and the pairwise test would find the overlap (every
//!   range that covers an inhabited `S` overlaps it), so the
//!   pair is settled from the verdict. The k-way test never runs at a
//!   declared site: `class` is its one minimal declarer.
//! * At a join, a pair `(B1, B2)` from two lineages is settled when the
//!   class's declaration is covered by both *and* is an enumeration or an
//!   integer interval: then both covering ranges hold the tokens or
//!   integers of `S`, and the pairwise test sees them meet. Class-typed
//!   ranges are left to the test. `X` and `Y` both cover `Z` when
//!   `Z is-a X, Y`, but the test treats unrelated classes as disjoint
//!   (the first-order approximation of [`RangeTable::overlaps`]) and
//!   reports the pair, and settling it would change the report.

use chc_model::{ClassId, Schema, Sort, Sym};
use chc_obs::profile::SeenSet;
use chc_obs::{names, Kind};

use crate::canon::{RangeId, RangeTable};
use crate::diagnostics::{CheckReport, DiagKind, Diagnostic, Severity};

/// Checks a whole schema against the specialization-or-excuse rule.
///
/// ```
/// use chc_sdl::compile;
/// use chc_core::check;
///
/// let schema = compile("
///     class Physician;
///     class Psychologist;
///     class Patient with treatedBy: Physician;
///     class Alcoholic is-a Patient with treatedBy: Psychologist;
/// ").unwrap();
/// // Unexcused contradiction: rejected.
/// assert!(!check(&schema).is_ok());
///
/// let fixed = compile("
///     class Physician;
///     class Psychologist;
///     class Patient with treatedBy: Physician;
///     class Alcoholic is-a Patient with
///         treatedBy: Psychologist excuses treatedBy on Patient;
/// ").unwrap();
/// assert!(check(&fixed).is_ok());
/// ```
pub fn check(schema: &Schema) -> CheckReport {
    let _span = chc_obs::span(names::SPAN_CHECK_SCHEMA);
    let _mem =
        chc_obs::memalloc::span_mem(names::MEM_CHECK_SCHEMA_BYTES, names::MEM_CHECK_SCHEMA_PEAK);
    let mut checker = Checker::new(schema);
    for class in schema.class_ids() {
        checker.check_class(class);
    }
    checker.work.report();
    checker.report
}

/// An error diagnostic sits at this `(class, attr)` site.
const SITE_ERROR: u8 = 1;
/// An `UnexcusedContradiction` or `ExcuseRangeEscape` — a failed
/// declaration check — sits at this site.
const SITE_DECLARATION: u8 = 2;

/// The checker's work so far, reported to the recorder in one batch
/// when the check is done: the same totals as one call per event.
#[derive(Default)]
struct Work {
    classes: u64,
    contradictions: u64,
    excuses_resolved: u64,
    subtype_queries: u64,
    joint_sat_calls: u64,
    sat_calls: u64,
    /// Whether an installed recorder kept distinct keys when the check
    /// began.
    distinct: bool,
    /// `(sup, sub)` range-id pairs already reported as distinct subtype
    /// queries during this check.
    seen_pairs: SeenSet,
}

impl Work {
    /// One subtype query: does `sup` subsume `sub`? Each distinct pair is
    /// reported once per check, under the same structural key
    /// [`chc_model::Range::subsumes`] reports it with.
    fn subsumes(&mut self, ranges: &RangeTable<'_>, sup: RangeId, sub: RangeId) -> bool {
        self.subtype_queries += 1;
        if self.distinct
            && self
                .seen_pairs
                .insert((u64::from(sup) << 32) | u64::from(sub))
        {
            let key = ranges.range(sup).subsumption_key(ranges.range(sub));
            chc_obs::distinct(names::SUBTYPE_QUERIES_DISTINCT, key);
        }
        ranges.subsumes(sup, sub)
    }

    /// The counts with a class-labeled twin: `(contradictions, subtype
    /// queries)`.
    fn labeled_counts(&self) -> (u64, u64) {
        (self.contradictions, self.subtype_queries)
    }

    /// Sends the class-labeled twins of the work done since `before`
    /// ([`Work::labeled_counts`]) under `class`.
    fn report_class(&self, class: ClassId, before: (u64, u64)) {
        let label = class.index() as u64;
        let (contradictions, queries) = self.labeled_counts();
        for (name, delta) in [
            (names::CHECK_CONTRADICTIONS, contradictions - before.0),
            (names::SUBTYPE_QUERIES, queries - before.1),
        ] {
            if delta > 0 {
                chc_obs::labeled_counter(name, label, delta);
            }
        }
    }

    /// Sends the check's totals to the recorder, one call per counter.
    fn report(&self) {
        for (name, total) in [
            (names::CHECK_CLASSES, self.classes),
            (names::CHECK_CONTRADICTIONS, self.contradictions),
            (names::CHECK_EXCUSES_RESOLVED, self.excuses_resolved),
            (names::SUBTYPE_QUERIES, self.subtype_queries),
            (names::CHECK_JOINT_SAT_CALLS, self.joint_sat_calls),
            (names::SAT_CALLS, self.sat_calls),
        ] {
            if total > 0 {
                chc_obs::counter(name, total);
            }
        }
    }
}

/// The §5.1 verdicts of the class being checked, one row per attribute it
/// declares, in `class.attrs` order: the declarers of the attribute among
/// the class and its ancestors (ascending, as
/// [`Schema::declarers_on`] yields them), and for each whether the class's
/// declaration is *covered* by that declarer's constraint.
#[derive(Default)]
struct Verdicts {
    /// Row `k` is `declarers[rows[k]..rows[k + 1]]`.
    rows: Vec<usize>,
    declarers: Vec<ClassId>,
    covered: Vec<bool>,
}

impl Verdicts {
    fn clear(&mut self) {
        self.rows.clear();
        self.rows.push(0);
        self.declarers.clear();
        self.covered.clear();
    }

    fn push(&mut self, declarer: ClassId, covered: bool) {
        self.declarers.push(declarer);
        self.covered.push(covered);
    }

    fn end_row(&mut self) {
        self.rows.push(self.declarers.len());
    }

    fn row(&self, k: usize) -> (&[ClassId], &[bool]) {
        let at = self.rows[k]..self.rows[k + 1];
        (&self.declarers[at.clone()], &self.covered[at])
    }
}

/// One check in progress: the report being built, the interned ranges of
/// the schema, and the index of error sites in the report.
///
/// [`check`] checks every class in id order (ancestors first), so the
/// deduplication in the joint-satisfiability check sees exactly the
/// report prefix of the classes before it.
struct Checker<'s> {
    schema: &'s Schema,
    ranges: RangeTable<'s>,
    report: CheckReport,
    /// Indexed by class: `(attr, SITE_* bits)` of the diagnostics in
    /// `report` at that class, one entry per attribute.
    sites: Vec<Vec<(Sym, u8)>>,
    /// The verdicts of the class being checked (kept to reuse the buffers).
    verdicts: Verdicts,
    work: Work,
}

impl<'s> Checker<'s> {
    /// A check of `schema` with an empty report.
    fn new(schema: &'s Schema) -> Self {
        Checker {
            schema,
            ranges: RangeTable::new(schema),
            report: CheckReport::default(),
            sites: vec![Vec::new(); schema.num_classes()],
            verdicts: Verdicts::default(),
            work: Work {
                distinct: chc_obs::keeps(Kind::Distinct),
                ..Work::default()
            },
        }
    }

    /// Checks one class, appending its diagnostics to the report.
    fn check_class(&mut self, class: ClassId) {
        self.work.classes += 1;
        // Attribution: while a recorder keeps labeled metrics, everything
        // this class's check does downstream (sat calls) is labeled with
        // the class id, its counts get class-labeled twins, and its wall
        // time feeds the per-class histogram behind `chc profile`'s
        // time-share column.
        if chc_obs::keeps(Kind::Labeled) {
            let label = class.index() as u64;
            let _label = chc_obs::label_scope(label);
            // Memory attribution rides the same scope when the tracking
            // allocator is live: bytes allocated and peak net-live growth
            // while checking this class, keyed by the class id.
            let mem = chc_obs::memalloc::installed().then(chc_obs::memalloc::probe);
            let before = self.work.labeled_counts();
            let start = std::time::Instant::now();
            self.check_class_inner(class);
            let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.work.report_class(class, before);
            chc_obs::labeled_histogram(names::CHECK_CLASS_NANOS, label, nanos);
            if let Some(mem) = mem {
                let stats = mem.stats();
                drop(mem);
                chc_obs::labeled_counter(
                    names::MEM_CHECK_CLASS_BYTES,
                    label,
                    stats.bytes_allocated,
                );
                chc_obs::labeled_histogram(names::MEM_CHECK_CLASS_PEAK, label, stats.peak_live);
            }
            return;
        }
        self.check_class_inner(class);
    }

    fn check_class_inner(&mut self, class: ClassId) {
        let schema = self.schema;
        let attrs = &schema.class(class).attrs;
        // Part 1: each locally declared attribute vs. each inherited
        // constraint, recording the verdicts.
        let mut verdicts = std::mem::take(&mut self.verdicts);
        verdicts.clear();
        for decl in attrs {
            self.check_declaration(class, decl.name, &mut verdicts);
        }
        // Part 2: joint satisfiability of inherited constraints (multiple
        // inheritance / diamond memberships). Single-parent classes inherit
        // exactly their parent's constraint sets (checked at the parent), so
        // only locally declared attributes can introduce new pairs there;
        // join points must consider every applicable attribute.
        if schema.supers(class).len() < 2 {
            for (row, decl) in attrs.iter().enumerate() {
                self.check_declared_site(class, decl.name, verdicts.row(row));
            }
        } else {
            for attr in schema.applicable_attrs(class) {
                match attrs.binary_search_by_key(&attr, |d| d.name) {
                    Ok(row) => self.check_declared_site(class, attr, verdicts.row(row)),
                    Err(_) => self.check_joint_satisfiability(class, attr),
                }
            }
        }
        self.verdicts = verdicts;
    }

    fn push(&mut self, d: Diagnostic) {
        let mut bits = 0;
        if d.severity == Severity::Error {
            bits |= SITE_ERROR;
        }
        if matches!(
            d.kind,
            DiagKind::UnexcusedContradiction { .. } | DiagKind::ExcuseRangeEscape { .. }
        ) {
            bits |= SITE_DECLARATION;
        }
        if bits != 0 {
            let row = &mut self.sites[d.class.index()];
            match row.iter_mut().find(|(attr, _)| *attr == d.attr) {
                Some((_, b)) => *b |= bits,
                None => row.push((d.attr, bits)),
            }
        }
        self.report.diagnostics.push(d);
    }

    fn site_has(&self, class: ClassId, attr: Sym, bit: u8) -> bool {
        self.sites[class.index()]
            .iter()
            .any(|&(a, b)| a == attr && b & bit != 0)
    }

    /// Checks `class`'s declaration of `attr` against each constraint it
    /// inherits, and records in `verdicts` which of them cover it.
    fn check_declaration(&mut self, class: ClassId, attr: Sym, verdicts: &mut Verdicts) {
        let schema = self.schema;
        let spec = &schema.declared_attr(class, attr).expect("declared").spec;
        let s_range = self.ranges.decl(class, attr);
        let inhabited = self.ranges.inhabited(s_range);

        for ancestor in schema.declarers_on(class, attr) {
            if ancestor == class {
                verdicts.push(class, inhabited);
                continue;
            }
            let r_range = self.ranges.decl(ancestor, attr);
            let contradiction = !self.work.subsumes(&self.ranges, r_range, s_range);
            let has_local_excuse = spec
                .excuses
                .iter()
                .any(|e| e.on == ancestor && e.attr == attr);
            let diag = |severity, kind| Diagnostic {
                severity,
                kind,
                class,
                attr,
            };
            let redundant = || {
                diag(
                    Severity::Warning,
                    DiagKind::RedundantExcuse { on: ancestor },
                )
            };

            if !contradiction {
                // Proper specialization; a local excuse for it is redundant.
                if has_local_excuse {
                    self.push(redundant());
                }
                verdicts.push(ancestor, inhabited);
                continue;
            }
            self.work.contradictions += 1;

            // The constraint (ancestor, attr) is contradicted. Under the §5.2
            // semantics an instance of `class` escapes it only through an
            // excuser E it *belongs to* whose range S_E admits the value, so a
            // declaration is sound iff some excuser E with class ⊆ E has
            // S ⊆ S_E. (E = class itself when the local declaration carries
            // the excuse; then S_E = S trivially, so the scan only asks
            // whether another excuser covers S too.)
            let mut first_applicable = None;
            let mut covered = false;
            for (excuser, range) in self.ranges.applicable_excusers(class, ancestor, attr) {
                first_applicable.get_or_insert(excuser);
                if has_local_excuse && excuser == class {
                    continue;
                }
                if self.work.subsumes(&self.ranges, range, s_range) {
                    covered = true;
                    break;
                }
            }

            let Some(first_applicable) = first_applicable else {
                let kind = DiagKind::UnexcusedContradiction {
                    contradicted: ancestor,
                };
                self.push(diag(Severity::Error, kind));
                verdicts.push(ancestor, false);
                continue;
            };

            if !has_local_excuse && !covered {
                let kind = DiagKind::ExcuseRangeEscape {
                    contradicted: ancestor,
                    excuser: first_applicable,
                };
                self.push(diag(Severity::Error, kind));
                verdicts.push(ancestor, false);
                continue;
            }
            self.work.excuses_resolved += 1;
            if has_local_excuse && covered {
                // Already excused by an ancestor (the SpecialAlc case, §5.3):
                // "nothing wrong will happen if an excuse is added — it will
                // simply be redundant."
                self.push(redundant());
            }
            verdicts.push(ancestor, inhabited);
        }
        verdicts.end_row();
    }

    /// The joint-satisfiability check at a site `class` declares `attr`
    /// at, given the declarers of the site and the verdicts of `class`'s
    /// declaration against each. See [`Checker::check_joint_satisfiability`]
    /// for the pairwise test; here a pair is settled without it when the
    /// verdicts already imply that its allowed sets share a value.
    fn check_declared_site(
        &mut self,
        class: ClassId,
        attr: Sym,
        (declarers, covered): (&[ClassId], &[bool]),
    ) {
        if declarers.len() < 2 {
            return;
        }
        self.work.joint_sat_calls += 1;
        let schema = self.schema;
        // Two covers of one enumeration or interval share its values; two
        // covers of one class need not share an instance (see the module
        // docs).
        let joins_by_value = matches!(
            self.ranges.range(self.ranges.decl(class, attr)).sort(),
            Sort::Token | Sort::Int
        );
        let mut heirs = None;
        let mut allowed = AllowedSets::default();
        for i in 0..declarers.len() {
            for j in i + 1..declarers.len() {
                let settled = if declarers[i] == class {
                    covered[j]
                } else if declarers[j] == class {
                    covered[i]
                } else {
                    joins_by_value && covered[i] && covered[j]
                };
                if settled
                    || heirs
                        .get_or_insert_with(|| Heirs::new(schema, class, declarers))
                        .share(i, j)
                {
                    continue;
                }
                self.check_pair(class, attr, declarers, &mut allowed, (i, j));
            }
        }
        // `class` lies below every other declarer, so it is the site's one
        // minimal declarer and its declaration check stands for the k-way
        // test.
    }

    /// At a join `class` inherits `attr` at without declaring it: for every
    /// pair of constraints on `attr`, verify that a common value can exist
    /// once applicable excuses are folded in. The *allowed set* of a
    /// constraint for instances of `class` is its range plus the ranges of
    /// excusers that `class` is a subclass of; two constraints are jointly
    /// satisfiable (to first order) iff their allowed sets overlap.
    fn check_joint_satisfiability(&mut self, class: ClassId, attr: Sym) {
        let schema = self.schema;
        let declarers: Vec<ClassId> = schema.declarers_on(class, attr).collect();
        if declarers.len() < 2 {
            return;
        }
        self.work.joint_sat_calls += 1;
        let heirs = Heirs::new(schema, class, &declarers);
        let mut allowed = AllowedSets::default();
        for i in 0..declarers.len() {
            for j in i + 1..declarers.len() {
                // Same downward-monotonicity argument per pair: if some direct
                // parent already inherits both constraints, it owns the check.
                if !heirs.share(i, j) {
                    self.check_pair(class, attr, &declarers, &mut allowed, (i, j));
                }
            }
        }

        // Exact k-way satisfiability over the allowed sets. Every provably
        // disjoint *pair* was already attributed by name above; this catches
        // the residual case where all pairs overlap but no single value
        // satisfies the whole set. Skip when this site already has an error
        // (the schema is known broken here; a second report is noise) or when
        // the whole constraint set is co-inherited through one parent (checked
        // there).
        if self.site_has(class, attr, SITE_ERROR) || heirs.one_parent_inherits_all() {
            return;
        }
        let declaration_errored = declarers
            .iter()
            .any(|&b| self.site_has(b, attr, SITE_ERROR));
        if declaration_errored {
            return;
        }
        // Fast path: if the constraint set has a *unique minimal* declarer M
        // whose declaration passed the acceptance rule, every value of M's
        // range already satisfies each ancestor constraint (directly or via
        // the excuse branch the instance is entitled to) — the site is
        // satisfiable by construction. Only genuine multi-lineage joins (two
        // or more incomparable minimal declarers) need the k-way test.
        if minimal_declarers(schema, &declarers).nth(1).is_none() {
            return;
        }
        // Exact admission over the allowed sets, shared with chc-lint's
        // incoherence lint (L001).
        let constraints: Vec<_> = declarers
            .iter()
            .map(|&b| (b, &schema.declared_attr(b, attr).expect("declarer").spec))
            .collect();
        self.work.sat_calls += 1;
        if crate::sat::common_value_witness_counted(schema, class, attr, &constraints).is_some() {
            return;
        }

        self.push(Diagnostic {
            severity: Severity::Error,
            kind: DiagKind::JointlyUnsatisfiable { declarers },
            class,
            attr,
        });
    }

    /// The pairwise test of constraints `i` and `j` of the site `(class,
    /// attr)`: reports `IncompatibleParents` unless their raw ranges or
    /// their allowed sets overlap, or the pair contradicts directly and the
    /// declaration check already reported it.
    fn check_pair(
        &mut self,
        class: ClassId,
        attr: Sym,
        declarers: &[ClassId],
        allowed: &mut AllowedSets,
        (i, j): (usize, usize),
    ) {
        let (b1, b2) = (declarers[i], declarers[j]);
        let raw = |b| self.ranges.decl(b, attr);
        if self.ranges.overlaps(raw(b1), raw(b2)) {
            return;
        }
        let (rs1, rs2) = allowed.pair(&self.ranges, (class, attr), declarers, (i, j));
        if rs1
            .iter()
            .any(|&x| rs2.iter().any(|&y| self.ranges.overlaps(x, y)))
        {
            return;
        }
        let schema = self.schema;
        // Avoid duplicating a contradiction already reported by the
        // declaration check (sub contradicts super directly).
        let related = schema.is_subclass(b1, b2) || schema.is_subclass(b2, b1);
        let already_reported = related
            && [b1, b2, class]
                .into_iter()
                .any(|c| self.site_has(c, attr, SITE_DECLARATION));
        if !already_reported {
            self.push(Diagnostic {
                severity: Severity::Error,
                kind: DiagKind::IncompatibleParents { a: b1, b: b2 },
                class,
                attr,
            });
        }
    }
}

/// The allowed sets of one site's constraints — each constraint's range
/// plus the ranges of the excusers applicable to the checked class —
/// built on first use; most pairs pass on their raw ranges.
#[derive(Default)]
struct AllowedSets(Vec<Option<Vec<RangeId>>>);

impl AllowedSets {
    /// The allowed sets of constraints `i` and `j` of the site
    /// `(class, attr)`, whose declarers are `declarers`.
    fn pair(
        &mut self,
        ranges: &RangeTable<'_>,
        (class, attr): (ClassId, Sym),
        declarers: &[ClassId],
        (i, j): (usize, usize),
    ) -> (&[RangeId], &[RangeId]) {
        if self.0.is_empty() {
            self.0.resize(declarers.len(), None);
        }
        for k in [i, j] {
            self.0[k].get_or_insert_with(|| {
                let b = declarers[k];
                let excused = ranges.applicable_excusers(class, b, attr);
                std::iter::once(ranges.decl(b, attr))
                    .chain(excused.map(|(_, r)| r))
                    .collect()
            });
        }
        let built = |k: usize| self.0[k].as_deref().expect("built above");
        (built(i), built(j))
    }
}

/// The minimal declarers of a site, given all its declarers: those with
/// no other declarer strictly below them. Every declarer lies above one
/// of them, so a site with one minimal declarer `M` has exactly the
/// constraints of the site `(M, attr)`.
pub(crate) fn minimal_declarers<'a>(
    schema: &'a Schema,
    declarers: &'a [ClassId],
) -> impl Iterator<Item = ClassId> + 'a {
    declarers.iter().copied().filter(move |&b| {
        !declarers
            .iter()
            .any(|&other| schema.is_strict_subclass(other, b))
    })
}

/// For each constraint at a joint-satisfiability site, the direct parents
/// of the checked class that inherit it, as a bitmask over parent
/// positions (`words` `u64`s per constraint).
struct Heirs {
    words: usize,
    masks: Vec<u64>,
}

impl Heirs {
    fn new(schema: &Schema, class: ClassId, declarers: &[ClassId]) -> Self {
        let supers = schema.supers(class);
        let words = supers.len().div_ceil(64).max(1);
        let mut masks = vec![0u64; declarers.len() * words];
        for (i, &b) in declarers.iter().enumerate() {
            for (p, &parent) in supers.iter().enumerate() {
                if schema.is_subclass(parent, b) {
                    masks[i * words + p / 64] |= 1 << (p % 64);
                }
            }
        }
        Heirs { words, masks }
    }

    fn mask(&self, i: usize) -> &[u64] {
        &self.masks[i * self.words..(i + 1) * self.words]
    }

    /// Whether some direct parent inherits both constraint `i` and `j`.
    fn share(&self, i: usize, j: usize) -> bool {
        if self.words == 1 {
            return self.masks[i] & self.masks[j] != 0;
        }
        self.mask(i)
            .iter()
            .zip(self.mask(j))
            .any(|(a, b)| a & b != 0)
    }

    /// Whether some direct parent inherits every constraint.
    fn one_parent_inherits_all(&self) -> bool {
        (0..self.words).any(|w| {
            self.masks
                .iter()
                .skip(w)
                .step_by(self.words)
                .fold(!0, |acc, m| acc & m)
                != 0
        })
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use chc_sdl::compile;

    fn check_src(src: &str) -> (Schema, CheckReport) {
        let schema = compile(src).unwrap();
        let report = check(&schema);
        (schema, report)
    }

    #[test]
    fn proper_specialization_is_clean() {
        let (_, report) = check_src(
            "
            class Person with age: 1..120;
            class Employee is-a Person with age: 16..65;
            ",
        );
        assert!(report.is_ok());
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    fn unexcused_contradiction_is_an_error() {
        let (schema, report) = check_src(
            "
            class Physician;
            class Psychologist;
            class Patient with treatedBy: Physician;
            class Alcoholic is-a Patient with treatedBy: Psychologist;
            ",
        );
        assert!(!report.is_ok());
        let errs: Vec<_> = report.errors().collect();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].class, schema.class_by_name("Alcoholic").unwrap());
        assert!(matches!(errs[0].kind, DiagKind::UnexcusedContradiction { .. }));
    }

    #[test]
    fn excused_contradiction_is_accepted() {
        let (_, report) = check_src(
            "
            class Physician;
            class Psychologist;
            class Patient with treatedBy: Physician;
            class Alcoholic is-a Patient with
                treatedBy: Psychologist excuses treatedBy on Patient;
            ",
        );
        assert!(report.is_ok(), "{:?}", report.diagnostics);
    }

    #[test]
    fn redundant_excuse_is_a_warning() {
        let (_, report) = check_src(
            "
            class Person with age: 1..120;
            class Employee is-a Person with
                age: 16..65 excuses age on Person;
            ",
        );
        assert!(report.is_ok());
        assert_eq!(report.warnings().count(), 1);
    }

    #[test]
    fn special_alc_inherits_the_excuse() {
        // §5.3: FOO ⊆ Psychologist needs no further excuse.
        let (_, report) = check_src(
            "
            class Physician;
            class Psychologist;
            class FOO is-a Psychologist;
            class Patient with treatedBy: Physician;
            class Alcoholic is-a Patient with
                treatedBy: Psychologist excuses treatedBy on Patient;
            class SpecialAlc is-a Alcoholic with treatedBy: FOO;
            ",
        );
        assert!(report.is_ok(), "{:?}", report.diagnostics);
        assert_eq!(report.warnings().count(), 0);
    }

    #[test]
    fn special_alc_with_redundant_excuse_warns() {
        let (_, report) = check_src(
            "
            class Physician;
            class Psychologist;
            class FOO is-a Psychologist;
            class Patient with treatedBy: Physician;
            class Alcoholic is-a Patient with
                treatedBy: Psychologist excuses treatedBy on Patient;
            class SpecialAlc is-a Alcoholic with
                treatedBy: FOO excuses treatedBy on Patient;
            ",
        );
        assert!(report.is_ok());
        assert_eq!(report.warnings().count(), 1);
    }

    #[test]
    fn special_alc_escaping_both_needs_excuses_on_both() {
        // §5.3: "if FOO is not a subclass of Psychologist, then treatedBy
        // needs to be excused on Alcoholic; and if FOO is not even a
        // subclass of Physicians, then treatedBy needs to be excused on
        // Patient as well."
        let base = "
            class Physician;
            class Psychologist;
            class Chiropractor;
            class Patient with treatedBy: Physician;
            class Alcoholic is-a Patient with
                treatedBy: Psychologist excuses treatedBy on Patient;
        ";
        // Missing both excuses: two errors.
        let (_, report) = check_src(&format!(
            "{base} class SpecialAlc is-a Alcoholic with treatedBy: Chiropractor;"
        ));
        assert_eq!(report.errors().count(), 2);
        // Excusing only Alcoholic still contradicts Patient.
        let (_, report) = check_src(&format!(
            "{base} class SpecialAlc is-a Alcoholic with
                treatedBy: Chiropractor excuses treatedBy on Alcoholic;"
        ));
        assert_eq!(report.errors().count(), 1);
        // Excusing both is clean.
        let (_, report) = check_src(&format!(
            "{base} class SpecialAlc is-a Alcoholic with
                treatedBy: Chiropractor
                    excuses treatedBy on Alcoholic
                    excuses treatedBy on Patient;"
        ));
        assert!(report.is_ok(), "{:?}", report.diagnostics);
    }

    #[test]
    fn unexcused_diamond_is_incompatible() {
        let (schema, report) = check_src(
            "
            class Person with opinion: {'Hawk, 'Dove, 'Ostrich};
            class Quaker is-a Person with opinion: {'Dove};
            class Republican is-a Person with opinion: {'Hawk};
            class QR is-a Quaker, Republican;
            ",
        );
        let errs: Vec<_> = report.errors().collect();
        assert_eq!(errs.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(errs[0].class, schema.class_by_name("QR").unwrap());
        assert!(matches!(errs[0].kind, DiagKind::IncompatibleParents { .. }));
    }

    #[test]
    fn mutually_excused_diamond_is_accepted() {
        let (_, report) = check_src(
            "
            class Person with opinion: {'Hawk, 'Dove, 'Ostrich};
            class Quaker is-a Person with
                opinion: {'Dove} excuses opinion on Republican;
            class Republican is-a Person with
                opinion: {'Hawk} excuses opinion on Quaker;
            class QR is-a Quaker, Republican;
            ",
        );
        assert!(report.is_ok(), "{:?}", report.diagnostics);
    }

    #[test]
    fn one_sided_excuse_resolves_blood_pressure() {
        // §5.1: hemorrhage's low blood pressure overrides renal failure's
        // high blood pressure.
        let (_, report) = check_src(
            "
            class Patient;
            class Renal_Failure_Patient is-a Patient with bloodPressure: 140..220;
            class Hemorrhaging_Patient is-a Patient with
                bloodPressure: 50..90 excuses bloodPressure on Renal_Failure_Patient;
            class Both is-a Renal_Failure_Patient, Hemorrhaging_Patient;
            ",
        );
        assert!(report.is_ok(), "{:?}", report.diagnostics);
    }

    #[test]
    fn none_range_contradiction_requires_excuse() {
        // §4.1: ward is inapplicable to ambulatory patients.
        let (_, report) = check_src(
            "
            class Ward;
            class Patient with ward: Ward;
            class Ambulatory_Patient is-a Patient with ward: None;
            ",
        );
        assert_eq!(report.errors().count(), 1);
        let (_, report) = check_src(
            "
            class Ward;
            class Patient with ward: Ward;
            class Ambulatory_Patient is-a Patient with
                ward: None excuses ward on Patient;
            ",
        );
        assert!(report.is_ok());
    }

    #[test]
    fn excuse_range_escape_detected() {
        // The excuse admits Psychologist, but the subclass claims a range
        // outside both Physician and Psychologist.
        let (_, report) = check_src(
            "
            class Physician;
            class Psychologist;
            class Plumber;
            class Patient with treatedBy: Physician;
            class Alcoholic is-a Patient with
                treatedBy: Psychologist excuses treatedBy on Patient;
            class Odd is-a Alcoholic with treatedBy: Plumber;
            ",
        );
        let errs: Vec<_> = report.errors().collect();
        // Plumber contradicts Psychologist (Alcoholic) — unexcused — and
        // contradicts Physician (Patient) where the applicable excuse
        // (via Alcoholic) does not cover Plumber.
        assert_eq!(errs.len(), 2);
        assert!(errs
            .iter()
            .any(|e| matches!(e.kind, DiagKind::ExcuseRangeEscape { .. })));
    }

    #[test]
    fn grandparent_contradiction_also_checked() {
        let (_, report) = check_src(
            "
            class A with x: 1..100;
            class B is-a A with x: 10..50;
            class C is-a B with x: 200..300;
            ",
        );
        // C contradicts both A and B.
        assert_eq!(report.errors().count(), 2);
    }

    #[test]
    fn three_way_conflict_detected_even_when_pairs_overlap() {
        // {a,b} ∩ {b,c} ∩ {a,c}: every pair overlaps, the triple is empty.
        let (schema, report) = check_src(
            "
            class P1 with p: {'a, 'b};
            class P2 with p: {'b, 'c};
            class P3 with p: {'a, 'c};
            class Join is-a P1, P2, P3;
            ",
        );
        let errs: Vec<_> = report.errors().collect();
        assert_eq!(errs.len(), 1, "{}", report.render(&schema));
        assert_eq!(errs[0].class, schema.class_by_name("Join").unwrap());
        assert!(matches!(errs[0].kind, DiagKind::JointlyUnsatisfiable { .. }));
        // One excuse (usable by Join) restores satisfiability.
        let (schema2, report2) = check_src(
            "
            class P1 with p: {'a, 'b};
            class P2 with p: {'b, 'c};
            class P3 with p: {'a, 'c} excuses p on P2;
            class Join is-a P1, P2, P3;
            ",
        );
        // P3's excuse lets P2's constraint admit {'a,'c}; 'a satisfies all.
        assert!(report2.is_ok(), "{}", report2.render(&schema2));
    }

    #[test]
    fn three_way_integer_conflict_detected() {
        let (_, report) = check_src(
            "
            class P1 with p: 1..10;
            class P2 with p: 8..20;
            class P3 with p: 12..30;
            class Join is-a P1, P2, P3;
            ",
        );
        assert_eq!(report.errors().count(), 1);
        // With compatible intervals the join is fine.
        let (_, ok) = check_src(
            "
            class P1 with p: 1..10;
            class P2 with p: 8..20;
            class P3 with p: 9..30;
            class Join is-a P1, P2, P3;
            ",
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn a_parent_past_the_first_mask_word_still_owns_its_pairs() {
        // `A` joins two disjoint constraints (an error reported at `A`).
        // `Join` inherits the same pair only through `A`, its 65th direct
        // parent, so `A` owns the pair and `Join` stays clean.
        let mut src = String::from(
            "class Root1 with p: {'a}; class Root2 with p: {'b};
             class A is-a Root1, Root2;",
        );
        let fillers: Vec<String> = (0..64).map(|i| format!("F{i}")).collect();
        for f in &fillers {
            src.push_str(&format!(" class {f};"));
        }
        src.push_str(&format!(" class Join is-a {}, A;", fillers.join(", ")));
        let (schema, report) = check_src(&src);
        let errs: Vec<_> = report.errors().collect();
        assert_eq!(errs.len(), 1, "{}", report.render(&schema));
        assert_eq!(errs[0].class, schema.class_by_name("A").unwrap());
    }

    #[test]
    fn cross_hierarchy_excuse_is_legal() {
        // Quaker excuses Republican although neither is an ancestor of the
        // other (§5.3: "any specification on a class can contradict (and
        // excuse) a constraint on any other class").
        let (_, report) = check_src(
            "
            class Person with opinion: {'Hawk, 'Dove};
            class Republican is-a Person with opinion: {'Hawk};
            class Quaker is-a Person with
                opinion: {'Dove} excuses opinion on Republican;
            ",
        );
        assert!(report.is_ok(), "{:?}", report.diagnostics);
    }
}
