//! Differential test of `chc_core::check` against a reference: the
//! checker as it was before the joint-satisfiability check reused each
//! declaration's §5.1 verdict, when it decided every pair of constraints
//! at a declared site again from the allowed sets. The reference lives
//! only here.
//!
//! The two must agree diagnostic for diagnostic, in order, on generated
//! hierarchies (two to four supers per class) and their seeded-fault
//! variants, the evolve400 fixture pair, the paper's vignettes,
//! `tests/fixtures/excuse-shapes.sdl`, and
//! `tests/fixtures/mixed-ranges.sdl`, which mixes class, record, integer
//! and enumeration ranges. They must also count the same contradictions,
//! resolved excuses, joint-satisfiability calls and decision-procedure
//! calls; the checker may ask fewer subtype queries.
//!
//! The generator carries every excuse clause on a declaration of the
//! attribute it excuses, from a class below the excused one. The checker
//! reads those excusers off each declaration's row of declarers and
//! scans the excuse index only for the other shapes, so the generated
//! hierarchies are also rebuilt with clauses moved onto declarations of
//! other attributes, clauses carried twice, excusers outside the excused
//! class's descendants and uninhabited ranges, and compared again.

use std::sync::Arc;

use excuses::core::{CheckReport, DiagKind, Diagnostic, Severity};
use excuses::model::{AttrSpec, ClassId, Range, Schema, SchemaBuilder, Sym};
use excuses::obs::{self, names, StatsRecorder};
use excuses::workloads::rng::SplitMix64;
use excuses::workloads::{generate, seed_contradictions, vignettes, HierarchyParams};

const EVOLVE_OLD: &str = include_str!("../crates/workloads/fixtures/evolve400-old.sdl");
const EVOLVE_NEW: &str = include_str!("../crates/workloads/fixtures/evolve400-new.sdl");
const MIXED: &str = include_str!("fixtures/mixed-ranges.sdl");
const SHAPES: &str = include_str!("fixtures/excuse-shapes.sdl");

/// The reference checker, as it was before the joint-satisfiability check
/// reused the declaration verdicts.
mod reference {
    use std::collections::HashMap;

    use excuses::core::canon::{RangeId, RangeTable};
    use excuses::obs as chc_obs;
    use excuses::obs::names;
    use excuses::obs::profile::SeenSet;

    use super::*;

    pub fn check(schema: &Schema) -> CheckReport {
        let _span = chc_obs::span(names::SPAN_CHECK_SCHEMA);
        let _mem = chc_obs::memalloc::span_mem(
            names::MEM_CHECK_SCHEMA_BYTES,
            names::MEM_CHECK_SCHEMA_PEAK,
        );
        let mut checker = Checker::new(schema);
        for class in schema.class_ids() {
            checker.check_class(class);
        }
        checker.finish()
    }

    /// An error diagnostic sits at this `(class, attr)` site.
    const SITE_ERROR: u8 = 1;
    /// An `UnexcusedContradiction` or `ExcuseRangeEscape` — a failed
    /// declaration check — sits at this site.
    const SITE_DECLARATION: u8 = 2;

    /// The checker's work on the class being checked, reported to the
    /// recorder in one batch when the class is done.
    #[derive(Default)]
    struct Work {
        contradictions: u64,
        excuses_resolved: u64,
        subtype_queries: u64,
        joint_sat_calls: u64,
        /// Whether a recorder was live when the class's check began.
        recording: bool,
        /// `(sup, sub)` range-id pairs already reported as distinct subtype
        /// queries during this check (kept across classes).
        seen_pairs: SeenSet,
    }

    impl Work {
        /// One subtype query: does `sup` subsume `sub`? Each distinct pair is
        /// reported once per check, under the same structural key
        /// [`chc_model::Range::subsumes`] reports it with.
        fn subsumes(&mut self, ranges: &RangeTable<'_>, sup: RangeId, sub: RangeId) -> bool {
            self.subtype_queries += 1;
            if self.recording
                && self
                    .seen_pairs
                    .insert((u64::from(sup) << 32) | u64::from(sub))
            {
                let key = ranges.range(sup).subsumption_key(ranges.range(sub));
                chc_obs::distinct(names::SUBTYPE_QUERIES_DISTINCT, key);
            }
            ranges.subsumes(sup, sub)
        }

        /// Sends the class's counters to the recorder — the same totals, and
        /// per-class labeled twins, as one call per event — and resets them.
        fn report(&mut self, class: ClassId) {
            let label = class.index() as u64;
            let emit = |name, delta: &mut u64, labeled| {
                let delta = std::mem::take(delta);
                if delta > 0 {
                    chc_obs::counter(name, delta);
                    if labeled {
                        chc_obs::labeled_counter(name, label, delta);
                    }
                }
            };
            emit(names::CHECK_CONTRADICTIONS, &mut self.contradictions, true);
            emit(
                names::CHECK_EXCUSES_RESOLVED,
                &mut self.excuses_resolved,
                false,
            );
            emit(names::SUBTYPE_QUERIES, &mut self.subtype_queries, true);
            emit(
                names::CHECK_JOINT_SAT_CALLS,
                &mut self.joint_sat_calls,
                false,
            );
        }
    }

    /// One check in progress: the report being built, the canonical forms of
    /// the schema's ranges, and the index of error sites in the report.
    ///
    /// Classes are checked in id order (ancestors first), so the
    /// deduplication in the joint-satisfiability check sees exactly the
    /// report prefix of the classes before it. Incremental re-checking
    /// (schema evolution) checks some classes and carries the diagnostics of
    /// the others over with [`Checker::carry_over`], which keeps the index
    /// in step with the report.
    struct Checker<'s> {
        schema: &'s Schema,
        ranges: RangeTable<'s>,
        report: CheckReport,
        /// `(class, attr)` → `SITE_*` bits of the diagnostics in `report`.
        sites: HashMap<(ClassId, Sym), u8>,
        work: Work,
    }

    impl<'s> Checker<'s> {
        /// A check of `schema` with an empty report.
        fn new(schema: &'s Schema) -> Self {
            Checker {
                schema,
                ranges: RangeTable::new(schema),
                report: CheckReport::default(),
                sites: HashMap::new(),
                work: Work::default(),
            }
        }

        /// The report built so far.
        fn finish(self) -> CheckReport {
            self.report
        }

        /// Checks one class, appending its diagnostics to the report. After
        /// a local edit only the touched class and its descendants need
        /// rechecking — the *locality* desideratum of §5.
        fn check_class(&mut self, class: ClassId) {
            chc_obs::counter(names::CHECK_CLASSES, 1);
            self.work.recording =
                chc_obs::keeps(chc_obs::Kind::Labeled) || chc_obs::keeps(chc_obs::Kind::Distinct);
            // Attribution: while a recorder is on, everything this class's
            // check does downstream (sat calls) is labeled with the class id,
            // and its wall time feeds the per-class histogram behind `chc
            // profile`'s time-share column.
            if self.work.recording {
                let label = class.index() as u64;
                let _label = chc_obs::label_scope(label);
                // Memory attribution rides the same scope when the tracking
                // allocator is live: bytes allocated and peak net-live growth
                // while checking this class, keyed by the class id.
                let mem = chc_obs::memalloc::installed().then(chc_obs::memalloc::probe);
                let start = std::time::Instant::now();
                self.check_class_inner(class);
                let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
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
            // Part 1: each locally declared attribute vs. each inherited constraint.
            for decl in &schema.class(class).attrs {
                self.check_declaration(class, decl.name);
            }
            // Part 2: joint satisfiability of inherited constraints (multiple
            // inheritance / diamond memberships). Single-parent classes inherit
            // exactly their parent's constraint sets (checked at the parent), so
            // only locally declared attributes can introduce new pairs there;
            // join points must consider every applicable attribute.
            if schema.supers(class).len() < 2 {
                for decl in &schema.class(class).attrs {
                    self.check_joint_satisfiability(class, decl.name);
                }
            } else {
                for attr in schema.applicable_attrs(class) {
                    self.check_joint_satisfiability(class, attr);
                }
            }
            self.work.report(class);
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
                *self.sites.entry((d.class, d.attr)).or_insert(0) |= bits;
            }
            self.report.diagnostics.push(d);
        }

        fn site_has(&self, class: ClassId, attr: Sym, bit: u8) -> bool {
            self.sites.get(&(class, attr)).is_some_and(|b| b & bit != 0)
        }

        fn check_declaration(&mut self, class: ClassId, attr: Sym) {
            let schema = self.schema;
            let spec = &schema.declared_attr(class, attr).expect("declared").spec;
            let s_range = self.ranges.decl(class, attr);

            for ancestor in schema.declarers_on(class, attr) {
                if ancestor == class {
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
                    continue;
                }
                self.work.contradictions += 1;

                // The constraint (ancestor, attr) is contradicted. Under the §5.2
                // semantics an instance of `class` escapes it only through an
                // excuser E it *belongs to* whose range S_E admits the value, so a
                // declaration is sound iff some excuser E with class ⊆ E has
                // S ⊆ S_E. (E = class itself when the local declaration carries
                // the excuse; then S_E = S trivially.)
                let mut first_applicable = None;
                let mut covered = false;
                let mut covered_by_other = false;
                for (excuser, range) in self.ranges.applicable_excusers(class, ancestor, attr) {
                    first_applicable.get_or_insert(excuser);
                    if self.work.subsumes(&self.ranges, range, s_range) {
                        covered = true;
                        covered_by_other |= excuser != class;
                    }
                }

                let Some(first_applicable) = first_applicable else {
                    let kind = DiagKind::UnexcusedContradiction {
                        contradicted: ancestor,
                    };
                    self.push(diag(Severity::Error, kind));
                    continue;
                };

                if !covered {
                    let kind = DiagKind::ExcuseRangeEscape {
                        contradicted: ancestor,
                        excuser: first_applicable,
                    };
                    self.push(diag(Severity::Error, kind));
                    continue;
                }
                self.work.excuses_resolved += 1;
                if has_local_excuse && covered_by_other {
                    // Already excused by an ancestor (the SpecialAlc case, §5.3):
                    // "nothing wrong will happen if an excuse is added — it will
                    // simply be redundant."
                    self.push(redundant());
                }
            }
        }

        /// For every pair of constraints on `attr` inherited by `class`, verify
        /// that a common value can exist once applicable excuses are folded in.
        /// The *allowed set* of a constraint for instances of `class` is its
        /// range plus the ranges of excusers that `class` is a subclass of; two
        /// constraints are jointly satisfiable (to first order) iff their
        /// allowed sets overlap.
        fn check_joint_satisfiability(&mut self, class: ClassId, attr: Sym) {
            let schema = self.schema;
            // A class with a single parent and no local declaration inherits
            // exactly its parent's constraint set, whose joint satisfiability is
            // checked at the parent — and the allowed sets only *grow* toward the
            // leaves (more excusers become applicable), so the verdict carries
            // down. Only join points and declarers need checking.
            let declared = schema.declared_attr(class, attr).is_some();
            if schema.supers(class).len() < 2 && !declared {
                return;
            }
            let declarers: Vec<ClassId> = schema.declarers_on(class, attr).collect();
            if declarers.len() < 2 {
                return;
            }
            self.work.joint_sat_calls += 1;
            let ranges: Vec<RangeId> = declarers
                .iter()
                .map(|&b| self.ranges.decl(b, attr))
                .collect();
            let heirs = Heirs::new(schema, class, &declarers);
            // The allowed set of each constraint — its range plus the ranges
            // of excusers applicable to this class — built on first use; most
            // pairs already pass on their raw ranges.
            let mut allowed: Vec<Option<Vec<RangeId>>> = Vec::new();

            for i in 0..declarers.len() {
                for j in i + 1..declarers.len() {
                    // Same downward-monotonicity argument per pair: if some direct
                    // parent already inherits both constraints, it owns the check.
                    if heirs.share(i, j) || self.ranges.overlaps(ranges[i], ranges[j]) {
                        continue;
                    }
                    if allowed.is_empty() {
                        allowed.resize(declarers.len(), None);
                    }
                    for k in [i, j] {
                        allowed[k].get_or_insert_with(|| {
                            let excused =
                                self.ranges.applicable_excusers(class, declarers[k], attr);
                            std::iter::once(ranges[k])
                                .chain(excused.map(|(_, r)| r))
                                .collect()
                        });
                    }
                    let built = |k: usize| allowed[k].as_deref().expect("built above");
                    let (rs1, rs2) = (built(i), built(j));
                    if rs1
                        .iter()
                        .any(|&x| rs2.iter().any(|&y| self.ranges.overlaps(x, y)))
                    {
                        continue;
                    }
                    let (b1, b2) = (declarers[i], declarers[j]);
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

            // Exact k-way satisfiability over the allowed sets. Every provably
            // disjoint *pair* was already attributed by name above; this catches
            // the residual case where all pairs overlap but no single value
            // satisfies the whole set. Skip when this site already has an error
            // (the schema is known broken here; a second report is noise) or when
            // the whole constraint set is co-inherited through one parent and
            // nothing is declared locally (checked there).
            let already_errored = self.site_has(class, attr, SITE_ERROR);
            let all_covered = !declared && heirs.one_parent_inherits_all();
            if already_errored || all_covered {
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
            if excuses::core::sat::admits_common_value_of(schema, class, attr, &constraints) {
                return;
            }

            self.push(Diagnostic {
                severity: Severity::Error,
                kind: DiagKind::JointlyUnsatisfiable { declarers },
                class,
                attr,
            });
        }
    }

    /// The minimal declarers of a site, given all its declarers: those with
    /// no other declarer strictly below them. Every declarer lies above one
    /// of them, so a site with one minimal declarer `M` has exactly the
    /// constraints of the site `(M, attr)`.
    fn minimal_declarers<'a>(
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
}

/// The counters the verdict reuse must leave unchanged.
const KEPT_COUNTS: [&str; 4] = [
    names::CHECK_CONTRADICTIONS,
    names::CHECK_EXCUSES_RESOLVED,
    names::CHECK_JOINT_SAT_CALLS,
    names::SAT_CALLS,
];

/// Runs `f` under a fresh stats recorder.
fn counted(f: impl FnOnce() -> CheckReport) -> (CheckReport, Arc<StatsRecorder>) {
    let stats = Arc::new(StatsRecorder::new());
    let report = {
        let _scope = obs::scoped(stats.clone());
        f()
    };
    (report, stats)
}

/// Asserts that `check` and the reference agree on `schema`: the same
/// diagnostics in the same order, the same kept counts, and no more
/// subtype queries. Returns the report.
fn assert_agrees(what: &str, schema: &Schema) -> CheckReport {
    let (got, got_stats) = counted(|| excuses::core::check(schema));
    let (want, want_stats) = counted(|| reference::check(schema));
    if got.diagnostics != want.diagnostics {
        let at = got
            .diagnostics
            .iter()
            .zip(&want.diagnostics)
            .position(|(g, w)| g != w)
            .unwrap_or(got.diagnostics.len().min(want.diagnostics.len()));
        panic!(
            "{what}: {} diagnostics, the reference {}; first difference at {at}: {:?} vs {:?}",
            got.diagnostics.len(),
            want.diagnostics.len(),
            got.diagnostics.get(at),
            want.diagnostics.get(at),
        );
    }
    for name in KEPT_COUNTS {
        let (g, w) = (
            got_stats.counter_value(name),
            want_stats.counter_value(name),
        );
        assert_eq!(g, w, "{what}: {name}");
    }
    let queries = |s: &StatsRecorder| s.counter_value(names::SUBTYPE_QUERIES);
    assert!(
        queries(&got_stats) <= queries(&want_stats),
        "{what}: {} subtype queries, the reference {}",
        queries(&got_stats),
        queries(&want_stats),
    );
    got
}

#[test]
fn generated_hierarchies_agree() {
    for max_supers in 2..=4 {
        for seed in 1..=4 {
            let params = HierarchyParams {
                classes: 150,
                max_supers,
                redefine_rate: 0.6,
                contradiction_rate: [0.3, 0.6, 0.9, 1.0][seed as usize - 1],
                seed: 100 * max_supers as u64 + seed,
                ..Default::default()
            };
            let what = format!("supers={max_supers} seed={}", params.seed);
            let gen = generate(&params);
            assert_agrees(&what, &gen.schema);
            let (broken, _) = seed_contradictions(&gen, 40, params.seed);
            assert_agrees(&format!("{what} with faults"), &broken);
        }
    }
}

/// `schema` rebuilt with the excuse shapes the generator never emits.
/// Some declarations carrying clauses hand them to a new declaration of
/// another attribute with the same range (moved, or copied so the class
/// excuses one constraint from two declarations) or move them onto
/// another declaration the class already has; some classes excuse a
/// constraint of a class they are not below, on their declaration of the
/// excused attribute or of another one; and a few declarations get an
/// uninhabited range, which `Range::enumeration` refuses and SDL cannot
/// write.
fn reshaped(schema: &Schema, seed: u64) -> Schema {
    let mut rng = SplitMix64::new(seed);
    let mut b = SchemaBuilder::from_schema(schema);
    let mut carriers = 0;
    for class in schema.class_ids() {
        let attrs = &schema.class(class).attrs;
        for decl in attrs {
            let spec = &decl.spec;
            if rng.gen_bool(0.05) {
                let empty = AttrSpec {
                    range: Range::Enum(Default::default()),
                    ..spec.clone()
                };
                b.set_attr_spec(class, decl.name, empty).unwrap();
                continue;
            }
            if spec.excuses.is_empty() {
                continue;
            }
            let bare = AttrSpec::plain(spec.range.clone());
            match rng.gen_range(0, 4) {
                // Moved, or copied, onto a new declaration of the same range.
                shape @ (0 | 1) => {
                    carriers += 1;
                    b.add_attr(class, &format!("carrier{carriers}"), spec.clone())
                        .unwrap();
                    if shape == 0 {
                        b.set_attr_spec(class, decl.name, bare).unwrap();
                    }
                }
                // Moved onto another declaration of the class.
                2 => {
                    let Some(other) = attrs.iter().find(|d| d.name != decl.name) else {
                        continue;
                    };
                    let mut carrier = b.attr_spec(class, other.name).unwrap().clone();
                    carrier.excuses.extend(&spec.excuses);
                    b.set_attr_spec(class, other.name, carrier).unwrap();
                    b.set_attr_spec(class, decl.name, bare).unwrap();
                }
                _ => {}
            }
        }
    }
    // Excuses from classes outside the excused class's descendants.
    let classes: Vec<ClassId> = schema.class_ids().collect();
    for _ in 0..classes.len() / 2 {
        let on = *rng.choose(&classes).unwrap();
        let excuser = *rng.choose(&classes).unwrap();
        let attrs: Vec<Sym> = schema.applicable_attrs(on).collect();
        let Some(&attr) = rng.choose(&attrs) else {
            continue;
        };
        if schema.is_subclass(excuser, on) {
            continue;
        }
        let carrier = match schema.declared_attr(excuser, attr) {
            Some(_) if rng.gen_bool(0.5) => attr,
            _ => match rng.choose(&schema.class(excuser).attrs) {
                Some(d) => d.name,
                None => continue,
            },
        };
        let spec = b.attr_spec(excuser, carrier).unwrap().clone();
        b.set_attr_spec(excuser, carrier, spec.excusing(attr, on))
            .unwrap();
    }
    b.build().unwrap()
}

#[test]
fn reshaped_excuses_agree() {
    let mut elsewhere = 0;
    for max_supers in 2..=4 {
        for seed in 1..=4 {
            let params = HierarchyParams {
                classes: 150,
                max_supers,
                redefine_rate: 0.6,
                contradiction_rate: [0.3, 0.6, 0.9, 1.0][seed as usize - 1],
                seed: 100 * max_supers as u64 + seed,
                ..Default::default()
            };
            let gen = generate(&params);
            let (broken, _) = seed_contradictions(&gen, 40, params.seed);
            for (what, schema) in [("clean", &gen.schema), ("faulty", &broken)] {
                let schema = reshaped(schema, params.seed);
                elsewhere += schema
                    .excused_constraints()
                    .filter(|&(on, attr)| schema.excused_elsewhere(on, attr))
                    .count();
                assert_agrees(
                    &format!("reshaped {what} supers={max_supers} seed={}", params.seed),
                    &schema,
                );
            }
        }
    }
    assert!(elsewhere > 100, "{elsewhere} constraints excused on another attribute");
}

#[test]
fn the_evolve400_pair_and_the_vignettes_agree() {
    for (name, src) in [("evolve400-old", EVOLVE_OLD), ("evolve400-new", EVOLVE_NEW)] {
        assert_agrees(name, &excuses::sdl::compile(src).unwrap());
    }
    for (name, src) in vignettes::all() {
        assert_agrees(name, &vignettes::compiled(src));
    }
    assert_agrees("excuse-shapes", &excuses::sdl::compile(SHAPES).unwrap());
}

/// The fixture reaches every diagnostic kind. At the class-typed join
/// `C`, `a: Z` with `Z is-a X, Y` is covered by both `a: X` and `a: Y`,
/// and two class ranges always may share an instance, so both checkers
/// find the pair compatible and `C` is clean. At the record sites
/// `RB`, `RE` and `RF` a refined class type redeclares a pure record
/// type: the two hold entities and records, so neither subsumes the
/// other, and each site fails its declaration check instead of
/// inheriting incompatible constraints from itself. Both checkers read
/// the one range algebra in `chc-model`, so they agree there too; no site
/// is excepted from the comparison.
#[test]
fn the_mixed_range_fixture_agrees() {
    let schema = excuses::sdl::compile(MIXED).unwrap();
    let report = assert_agrees("mixed-ranges", &schema);
    let kind = |d: &Diagnostic| match d.kind {
        DiagKind::UnexcusedContradiction { .. } => 0,
        DiagKind::ExcuseRangeEscape { .. } => 1,
        DiagKind::IncompatibleParents { .. } => 2,
        DiagKind::JointlyUnsatisfiable { .. } => 3,
        DiagKind::RedundantExcuse { .. } => 4,
    };
    let mut seen = [false; 5];
    for d in &report.diagnostics {
        seen[kind(d)] = true;
    }
    assert_eq!(seen, [true; 5], "{}", report.render(&schema));
    let kinds_at = |class: &str| -> Vec<usize> {
        let class = schema.class_by_name(class).unwrap();
        let at = report.diagnostics.iter().filter(|d| d.class == class);
        at.map(kind).collect()
    };
    assert_eq!(kinds_at("C"), []);
    assert_eq!(kinds_at("RB"), [0]);
    assert_eq!(kinds_at("RE"), [1, 0]);
    assert_eq!(kinds_at("RF"), [0]);
}
