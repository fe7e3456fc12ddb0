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
//! `(B, p: R_B)` it inherits, once, by `cover::Covers::push`, which records
//! whether the constraint *covers* it (see `crate::cover`). It asks one
//! subtype query per declarer, `R_B ⊇ S`, and the same answers decide the
//! excuses: an excuser carrying its clause on a declaration of `p` is one
//! of those declarers, so a contradicted `(B, p)` is excused by another
//! class exactly when a covering declarer other than `class` carries
//! `excuses p on B`. The excuse index is scanned only for a constraint a
//! declaration of another attribute excuses, and to name the first
//! excuser of an uncovered contradiction. Subsumption never crosses value
//! sorts ([`Range::sort`](chc_model::Range::sort)): a
//! pure record type holds records and a refined class type entities, so
//! neither covers the other.
//!
//! The joint-satisfiability pass at a declared site reads those covers
//! instead of deciding the same facts from the allowed sets again. A pair
//! whose constraints both cover the declaration (`class`'s own covers it
//! when `S` holds a value) shares the values of `S`, and the pairwise
//! test would find them (every range that covers an inhabited `S`
//! overlaps it), so the pair is settled whatever the sort of `S`. The
//! k-way test never runs at a declared site: `class` is its one minimal
//! declarer. At a join that declares nothing, a declaration below two
//! constraints lies below a parent that inherits both and owns the pair,
//! so there the pairwise test decides every pair it is asked about.

use chc_model::{ClassId, Schema, Sym};
use chc_obs::profile::SeenSet;
use chc_obs::{names, Kind};

use crate::canon::{RangeId, RangeTable};
use crate::cover::{Covers, Standing};
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
    /// The covers of the declarations of the class being checked.
    covers: Covers,
    /// The standings of the declaration being checked (kept to reuse the
    /// buffer).
    standings: Vec<(ClassId, Standing)>,
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
            covers: Covers::default(),
            standings: Vec::new(),
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
        // constraint, recording the covers.
        self.covers.restart(self.ranges.first_decl(class));
        for decl in attrs {
            self.check_declaration(class, decl.name);
        }
        // Part 2: joint satisfiability of inherited constraints (multiple
        // inheritance / diamond memberships). Single-parent classes inherit
        // exactly their parent's constraint sets (checked at the parent), so
        // only locally declared attributes can introduce new pairs there;
        // join points must consider every applicable attribute.
        if schema.supers(class).len() < 2 {
            for decl in attrs {
                self.check_declared_site(class, decl.name);
            }
        } else {
            for attr in schema.applicable_attrs(class) {
                match attrs.binary_search_by_key(&attr, |d| d.name) {
                    Ok(_) => self.check_declared_site(class, attr),
                    Err(_) => self.check_joint_satisfiability(class, attr),
                }
            }
        }
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
    /// inherits, and records which of them cover it.
    fn check_declaration(&mut self, class: ClassId, attr: Sym) {
        let mut standings = std::mem::take(&mut self.standings);
        let (ranges, work) = (&self.ranges, &mut self.work);
        let subsumes = |sup, sub| work.subsumes(ranges, sup, sub);
        standings.clear();
        self.covers
            .push(ranges, class, attr, subsumes, Some(&mut standings));
        for &(on, standing) in &standings {
            let contradicts = !matches!(standing, Standing::Own | Standing::Specializes { .. });
            self.work.contradictions += u64::from(contradicts);
            let kind = match standing {
                Standing::Own | Standing::Specializes { excused: false } => continue,
                // A local excuse for a proper specialization is redundant.
                Standing::Specializes { excused: true } => DiagKind::RedundantExcuse { on },
                Standing::Unexcused => DiagKind::UnexcusedContradiction { contradicted: on },
                Standing::Escapes { excuser } => DiagKind::ExcuseRangeEscape {
                    contradicted: on,
                    excuser,
                },
                Standing::Excused { redundantly } => {
                    self.work.excuses_resolved += 1;
                    // Already excused by an ancestor (the SpecialAlc case,
                    // §5.3): "nothing wrong will happen if an excuse is
                    // added — it will simply be redundant."
                    if !redundantly {
                        continue;
                    }
                    DiagKind::RedundantExcuse { on }
                }
            };
            let severity = match kind {
                DiagKind::RedundantExcuse { .. } => Severity::Warning,
                _ => Severity::Error,
            };
            self.push(Diagnostic {
                severity,
                kind,
                class,
                attr,
            });
        }
        self.standings = standings;
    }

    /// The joint-satisfiability check at a site `class` declares `attr`
    /// at. See [`Checker::check_joint_satisfiability`] for the pairwise
    /// test; here a pair is settled without it when both its constraints
    /// cover the declaration, so their allowed sets share its values.
    fn check_declared_site(&mut self, class: ClassId, attr: Sym) {
        let covered = self.covers.row(self.ranges.decl_index(class, attr));
        if covered.len() < 2 {
            return;
        }
        self.work.joint_sat_calls += 1;
        // `class` lies below every other declarer, so it is the site's one
        // minimal declarer and its declaration check stands for the k-way
        // test.
        if covered.iter().all(|&c| c) {
            return;
        }
        let covered = covered.to_vec();
        let declarers: Vec<ClassId> = self.schema.declarers_on(class, attr).collect();
        self.check_pairs(class, attr, &declarers, |i, j| covered[i] && covered[j]);
    }

    /// At a join `class` inherits `attr` at without declaring it: for every
    /// pair of constraints on `attr`, verify that a common value can exist
    /// once applicable excuses are folded in. The *allowed set* of a
    /// constraint for instances of `class` is its range plus the ranges of
    /// excusers that `class` is a subclass of; two constraints are jointly
    /// satisfiable iff their allowed sets overlap.
    fn check_joint_satisfiability(&mut self, class: ClassId, attr: Sym) {
        let schema = self.schema;
        let declarers: Vec<ClassId> = schema.declarers_on(class, attr).collect();
        if declarers.len() < 2 {
            return;
        }
        self.work.joint_sat_calls += 1;
        self.check_pairs(class, attr, &declarers, |_, _| false);

        // Exact k-way satisfiability over the allowed sets. Every provably
        // disjoint *pair* was already attributed by name above; this catches
        // the residual case where all pairs overlap but no single value
        // satisfies the whole set. Skip when this site already has an error
        // (the schema is known broken here; a second report is noise) or when
        // the whole constraint set is co-inherited through one parent (checked
        // there).
        if self.site_has(class, attr, SITE_ERROR) || a_parent_inherits(schema, class, &declarers) {
            return;
        }
        // A site with one minimal declarer `M` never gets here: the parent
        // below `M` inherits every constraint.
        let declaration_errored = declarers
            .iter()
            .any(|&b| self.site_has(b, attr, SITE_ERROR));
        if declaration_errored {
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

    /// The pairwise test on every pair `(i, j)` of the site's declarers
    /// that `settled` leaves open. A pair that a direct parent of `class`
    /// inherits whole is left to that parent (allowed sets only grow
    /// downwards, so the parent's test decides it).
    fn check_pairs(
        &mut self,
        class: ClassId,
        attr: Sym,
        declarers: &[ClassId],
        settled: impl Fn(usize, usize) -> bool,
    ) {
        for i in 0..declarers.len() {
            for j in i + 1..declarers.len() {
                let pair = [declarers[i], declarers[j]];
                if settled(i, j) || a_parent_inherits(self.schema, class, &pair) {
                    continue;
                }
                self.check_pair(class, attr, pair);
            }
        }
    }

    /// The pairwise test of the constraints of `b1` and `b2` at the site
    /// `(class, attr)`: reports `IncompatibleParents` unless their raw
    /// ranges or their allowed sets overlap, or the pair contradicts
    /// directly and the declaration check already reported it.
    fn check_pair(&mut self, class: ClassId, attr: Sym, [b1, b2]: [ClassId; 2]) {
        let raw = |b| self.ranges.decl(b, attr);
        if self.ranges.overlaps(raw(b1), raw(b2)) {
            return;
        }
        // Each constraint's range plus the ranges of the excusers
        // applicable to `class`.
        let allowed = |b| {
            let excused = self.ranges.applicable_excusers(class, b, attr);
            std::iter::once(raw(b)).chain(excused.map(|(_, r)| r))
        };
        let theirs: Vec<RangeId> = allowed(b2).collect();
        if allowed(b1).any(|x| theirs.iter().any(|&y| self.ranges.overlaps(x, y))) {
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

/// Whether some direct parent of `class` lies below every class in
/// `declarers`, so it inherits all their constraints on an attribute and
/// its own check owns them.
fn a_parent_inherits(schema: &Schema, class: ClassId, declarers: &[ClassId]) -> bool {
    let inherits = |p| declarers.iter().all(|&b| schema.is_subclass(p, b));
    schema.supers(class).iter().any(|&p| inherits(p))
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

    #[test]
    fn class_typed_joins_are_compatible() {
        // An object may belong to several classes at once, so two class
        // ranges always may share an instance: the undeclared join `D`,
        // the declared join `C`, refined class types and `AnyEntity` are
        // clean, and the coherence sweep agrees.
        let (schema, report) = check_src(
            "
            class X with n: 0..10;
            class Y with n: 0..10;
            class Z is-a X, Y;
            class P1 with a: X; r: X [n: 1..5]; e: AnyEntity;
            class P2 with a: Y; r: Y [n: 3..9]; e: Y;
            class D is-a P1, P2;
            class C is-a P1, P2 with a: Z;
            ",
        );
        assert!(report.diagnostics.is_empty(), "{}", report.render(&schema));
        assert!(crate::sat::incoherent_sites(&schema).is_empty());
        // A pure record type holds records, not entities: still an error.
        let (schema, report) = check_src(
            "
            class X with n: 0..10;
            class P1 with r: [n: 1..5];
            class P2 with r: X [n: 1..5];
            class D is-a P1, P2;
            ",
        );
        let errs: Vec<_> = report.errors().collect();
        assert_eq!(errs.len(), 1, "{}", report.render(&schema));
        assert!(matches!(errs[0].kind, DiagKind::IncompatibleParents { .. }));
        let d = schema.class_by_name("D").unwrap();
        let r = schema.sym("r").unwrap();
        assert!(crate::sat::incoherent_sites(&schema).contains(&(d, r)));
    }
}
