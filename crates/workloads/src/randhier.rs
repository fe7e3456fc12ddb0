//! Random class-hierarchy generation for the scaling experiments.
//!
//! The generator produces schemas that *pass the excuses checker* (every
//! contradiction intentionally excused), with tunable size, fan-in,
//! redefinition rate, and contradiction rate. A companion mutator,
//! [`seed_contradictions`], then removes excuses at known sites so
//! experiment E1 can measure the checker's detection precision/recall.

use chc_core::{check, DiagKind, Severity};
use chc_model::{
    AttrSpec, ClassId, Range, Schema, SchemaBuilder, Sym,
};

use crate::rng::SplitMix64;

/// Parameters for [`generate`].
#[derive(Debug, Clone)]
pub struct HierarchyParams {
    /// Number of classes.
    pub classes: usize,
    /// Maximum direct superclasses per class (≥1 ⇒ DAGs possible).
    pub max_supers: usize,
    /// Number of distinct root attributes introduced across the schema.
    pub attrs: usize,
    /// Number of enumeration tokens shared by all attribute ranges.
    pub tokens: usize,
    /// Probability that a class redefines an inherited attribute.
    pub redefine_rate: f64,
    /// Probability that a redefinition *contradicts* (and therefore
    /// excuses) rather than properly specializes.
    pub contradiction_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HierarchyParams {
    fn default() -> Self {
        HierarchyParams {
            classes: 100,
            max_supers: 2,
            attrs: 8,
            tokens: 8,
            redefine_rate: 0.4,
            contradiction_rate: 0.3,
            seed: 0xC1A55,
        }
    }
}

impl HierarchyParams {
    /// Parses `classes=60,supers=2,attrs=8,tokens=8,redefine=0.4,contradict=0.3,seed=7`
    /// (the `--hier` option of `chc load` and `chc profile`); omitted
    /// keys keep the defaults.
    pub fn parse(spec: &str) -> Result<HierarchyParams, String> {
        let mut p = HierarchyParams::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("--hier entry `{part}` is not `key=value`"))?;
            let value = value.trim();
            let int = || value.parse::<usize>().map_err(|e| format!("--hier {key}={value}: {e}"));
            let float = || value.parse::<f64>().map_err(|e| format!("--hier {key}={value}: {e}"));
            match key.trim() {
                "classes" => p.classes = int()?,
                "supers" => p.max_supers = int()?,
                "attrs" => p.attrs = int()?,
                "tokens" => p.tokens = int()?,
                "redefine" => p.redefine_rate = float()?,
                "contradict" => p.contradiction_rate = float()?,
                "seed" => p.seed = value.parse().map_err(|e| format!("--hier seed={value}: {e}"))?,
                other => {
                    return Err(format!(
                        "unknown --hier key `{other}` (classes|supers|attrs|tokens|redefine|contradict|seed)"
                    ))
                }
            }
        }
        Ok(p)
    }
}

/// A generated hierarchy plus its bookkeeping.
#[derive(Debug, Clone)]
pub struct GeneratedHierarchy {
    /// The checker-clean schema.
    pub schema: Schema,
    /// Sites `(class, attr)` whose declaration carries at least one excuse
    /// (candidates for mutation).
    pub excused_sites: Vec<(ClassId, Sym)>,
    /// The shared attribute symbols.
    pub attr_syms: Vec<Sym>,
    /// The shared token symbols.
    pub token_syms: Vec<Sym>,
}

/// Generates a checker-clean random hierarchy.
pub fn generate(params: &HierarchyParams) -> GeneratedHierarchy {
    let mut rng = SplitMix64::new(params.seed);
    let mut b = SchemaBuilder::new();
    let tokens: Vec<Sym> = (0..params.tokens)
        .map(|i| b.intern(&format!("tok{i}")))
        .collect();
    let attr_names: Vec<String> = (0..params.attrs).map(|i| format!("attr{i}")).collect();
    let attr_syms: Vec<Sym> = attr_names.iter().map(|n| b.intern(n)).collect();

    // Track, per class, the full set of (declarer, attr, range) constraints
    // it inherits, so redefinitions can compute subsets / contradictions
    // and excuse correctly. We reconstruct from a shadow structure rather
    // than rebuilding the schema per class.
    #[derive(Clone)]
    struct Shadow {
        /// attr index → (declaring shadow index, range) — all constraints.
        constraints: Vec<Vec<(usize, Range)>>,
    }
    let mut shadows: Vec<Shadow> = Vec::with_capacity(params.classes);
    let mut ids: Vec<ClassId> = Vec::with_capacity(params.classes);
    let mut excused_sites = Vec::new();

    for ci in 0..params.classes {
        let id = b.declare(&format!("C{ci}")).unwrap();
        ids.push(id);
        let n_supers = if ci == 0 { 0 } else { rng.gen_range(1, params.max_supers.min(ci)) };
        let mut supers: Vec<usize> = (0..ci).collect();
        rng.shuffle(&mut supers);
        supers.truncate(n_supers);
        for &s in &supers {
            b.add_super(id, ids[s]).unwrap();
        }
        // Inherited constraints: union over supers.
        let mut constraints: Vec<Vec<(usize, Range)>> = vec![Vec::new(); params.attrs];
        for &s in &supers {
            for (ai, cs) in shadows[s].constraints.iter().enumerate() {
                for c in cs {
                    if !constraints[ai].contains(c) {
                        constraints[ai].push(c.clone());
                    }
                }
            }
        }

        for ai in 0..params.attrs {
            let inherited = constraints[ai].clone();
            if inherited.is_empty() {
                // Root introduction of this attribute, with modest
                // probability so attributes spread through the hierarchy.
                if rng.gen_bool(0.3) {
                    let range = random_enum(&mut rng, &tokens, params.tokens);
                    b.add_attr(id, &attr_names[ai], AttrSpec::plain(range.clone())).unwrap();
                    constraints[ai].push((ci, range));
                }
                continue;
            }
            // A class inheriting constraints with an empty k-way meet from
            // its lineages *must* adjudicate (else the checker rightly
            // rejects the schema as unsatisfiable) — the Quaker/Republican
            // shape and its k-way generalizations.
            let must_redefine = inherited.len() >= 2 && enum_meet(&inherited).is_none();
            if !must_redefine && !rng.gen_bool(params.redefine_rate) {
                continue;
            }
            let contradict = must_redefine || rng.gen_bool(params.contradiction_rate);
            let range = if contradict {
                random_enum(&mut rng, &tokens, params.tokens)
            } else {
                // Proper specialization: a nonempty subset of the meet of
                // inherited ranges (fall back to contradiction if empty).
                match enum_meet(&inherited) {
                    Some(meet) => subset_of(&mut rng, &meet),
                    None => random_enum(&mut rng, &tokens, params.tokens),
                }
            };
            let mut spec = AttrSpec::plain(range.clone());
            // Excuse every inherited constraint the new range escapes.
            let mut excused_any = false;
            for (declarer, dr) in &inherited {
                if !dr.subsumes_enum(&range) {
                    spec = spec.excusing(attr_syms[ai], ids[*declarer]);
                    excused_any = true;
                }
            }
            b.add_attr(id, &attr_names[ai], spec).unwrap();
            if excused_any {
                excused_sites.push((id, attr_syms[ai]));
            }
            constraints[ai].push((ci, range));
        }
        shadows.push(Shadow { constraints });
    }

    let schema = b.build().expect("generator produces structurally valid schemas");
    debug_assert!(
        check(&schema).is_ok(),
        "generator must produce checker-clean schemas"
    );
    GeneratedHierarchy { schema, excused_sites, attr_syms, token_syms: tokens }
}

/// Enum-range helpers (the generator works purely over token sets).
trait EnumRange {
    fn subsumes_enum(&self, other: &Range) -> bool;
}

impl EnumRange for Range {
    fn subsumes_enum(&self, other: &Range) -> bool {
        match (self, other) {
            (Range::Enum(a), Range::Enum(b)) => b.is_subset(a),
            _ => false,
        }
    }
}

fn random_enum(rng: &mut SplitMix64, tokens: &[Sym], universe: usize) -> Range {
    let size = rng.gen_range(1, universe.max(1));
    let mut picked: Vec<Sym> = tokens.to_vec();
    rng.shuffle(&mut picked);
    picked.truncate(size);
    Range::enumeration(picked).expect("nonempty")
}

fn enum_meet(constraints: &[(usize, Range)]) -> Option<Vec<Sym>> {
    let mut iter = constraints.iter().map(|(_, r)| match r {
        Range::Enum(s) => s.clone(),
        _ => unreachable!("generator only emits enum ranges"),
    });
    let mut acc = iter.next()?;
    for s in iter {
        acc = acc.intersection(&s).copied().collect();
    }
    (!acc.is_empty()).then(|| acc.into_iter().collect())
}

fn subset_of(rng: &mut SplitMix64, meet: &[Sym]) -> Range {
    let size = rng.gen_range(1, meet.len());
    let mut picked = meet.to_vec();
    rng.shuffle(&mut picked);
    picked.truncate(size);
    Range::enumeration(picked).expect("nonempty")
}

/// Applies one semantic edit to a generated hierarchy — the evolution
/// workload behind `chc diff` and `chc check --incremental`: the
/// declared enum range at one excused site is narrowed to half its
/// tokens, keeping its excuse clauses intact. The result differs from
/// the original by exactly one range edit, so the diff's impact cone is
/// the edited class's subtree and incremental re-checking touches only
/// that cone. `pick` selects the site (wrapping), deterministically.
pub fn single_class_edit(
    gen: &GeneratedHierarchy,
    pick: usize,
) -> (Schema, (ClassId, Sym)) {
    // Prefer sites whose range has at least two tokens, so halving it is
    // a real narrowing and the differ classifies the edit as an edit;
    // order them by subtree size so low `pick` values select edits whose
    // impact cone is small relative to the schema (the point of the
    // incremental workload).
    let mut wide: Vec<(usize, ClassId, Sym)> = gen
        .excused_sites
        .iter()
        .copied()
        .filter(|&(c, a)| {
            matches!(
                &gen.schema.declared_attr(c, a).expect("site exists").spec.range,
                Range::Enum(s) if s.len() >= 2
            )
        })
        .map(|(c, a)| (gen.schema.descendants_with_self(c).count(), c, a))
        .collect();
    wide.sort_by_key(|&(cone, c, a)| (cone, c, a));
    let sites: Vec<(ClassId, Sym)> = if wide.is_empty() {
        gen.excused_sites.clone()
    } else {
        wide.into_iter().map(|(_, c, a)| (c, a)).collect()
    };
    assert!(!sites.is_empty(), "hierarchy has no excused site to edit");
    let (class, attr) = sites[pick % sites.len()];
    let mut b = SchemaBuilder::from_schema(&gen.schema);
    let mut spec = b.attr_spec(class, attr).expect("site exists").clone();
    if let Range::Enum(toks) = &spec.range {
        let keep: Vec<Sym> = toks.iter().copied().take(toks.len().div_ceil(2)).collect();
        spec.range = Range::enumeration(keep).expect("nonempty");
    }
    b.set_attr_spec(class, attr, spec).unwrap();
    (b.build().expect("edit preserves structure"), (class, attr))
}

/// A mutation that removed one excuse, making the contradiction at
/// `(class, attr)` unexcused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeededFault {
    /// The declaring class whose excuse was dropped.
    pub class: ClassId,
    /// The attribute.
    pub attr: Sym,
}

/// Removes the excuses from `count` randomly chosen excused sites,
/// returning the mutated schema and the ground-truth fault list. The
/// checker's E1 score is precision/recall of its error reports against
/// this list.
pub fn seed_contradictions(
    gen: &GeneratedHierarchy,
    count: usize,
    seed: u64,
) -> (Schema, Vec<SeededFault>) {
    let mut rng = SplitMix64::new(seed);
    // A site only qualifies as a *fault* if removing its excuses leaves
    // some contradicted constraint genuinely uncovered — if another
    // applicable excuser would still cover the range, the schema stays
    // correct and there is nothing to detect.
    let mut sites: Vec<(ClassId, Sym)> = gen
        .excused_sites
        .iter()
        .copied()
        .filter(|&(class, attr)| {
            let s_range = &gen.schema.declared_attr(class, attr).expect("site").spec.range;
            gen.schema.strict_ancestors(class).any(|b| {
                let Some(decl) = gen.schema.declared_attr(b, attr) else {
                    return false;
                };
                if decl.spec.range.subsumes(&gen.schema, s_range) {
                    return false;
                }
                // Contradicted; is any *other* excuser still covering?
                !gen.schema.excusers_of(b, attr).iter().any(|e| {
                    e.excuser != class
                        && gen.schema.is_subclass(class, e.excuser)
                        && gen
                            .schema
                            .excuser_spec(e)
                            .range
                            .subsumes(&gen.schema, s_range)
                })
            })
        })
        .collect();
    rng.shuffle(&mut sites);
    sites.truncate(count);
    let mut b = SchemaBuilder::from_schema(&gen.schema);
    let mut faults = Vec::new();
    for (class, attr) in sites {
        let spec = b.attr_spec(class, attr).expect("site exists").clone();
        b.set_attr_spec(class, attr, AttrSpec::plain(spec.range)).unwrap();
        faults.push(SeededFault { class, attr });
    }
    (b.build().expect("mutation preserves structure"), faults)
}

/// Scores the checker against a seeded-fault ground truth: a fault counts
/// as detected if any error diagnostic lands on its `(class, attr)` site.
pub fn detection_score(schema: &Schema, faults: &[SeededFault]) -> (f64, f64) {
    let report = check(schema);
    let error_sites: Vec<(ClassId, Sym)> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .filter(|d| {
            matches!(
                d.kind,
                DiagKind::UnexcusedContradiction { .. }
                    | DiagKind::ExcuseRangeEscape { .. }
                    | DiagKind::IncompatibleParents { .. }
                    | DiagKind::JointlyUnsatisfiable { .. }
            )
        })
        .map(|d| (d.class, d.attr))
        .collect();
    if faults.is_empty() {
        return (1.0, 1.0);
    }
    let detected = faults
        .iter()
        .filter(|f| error_sites.iter().any(|(c, a)| *c == f.class && *a == f.attr))
        .count();
    let recall = detected as f64 / faults.len() as f64;
    // Precision: errors at non-fault sites are false positives *unless*
    // they are knock-on effects at descendants of a fault site (removing
    // an excuse legitimately breaks subclasses that relied on it).
    let false_pos = error_sites
        .iter()
        .filter(|(c, a)| {
            !faults.iter().any(|f| f.attr == *a && schema.is_subclass(*c, f.class))
        })
        .count();
    let precision = if error_sites.is_empty() {
        1.0
    } else {
        1.0 - false_pos as f64 / error_sites.len() as f64
    };
    (precision, recall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_schemas_are_checker_clean() {
        for seed in 0..5 {
            let gen = generate(&HierarchyParams { seed, classes: 60, ..Default::default() });
            let report = check(&gen.schema);
            assert!(report.is_ok(), "seed {seed}: {}", report.render(&gen.schema));
            assert_eq!(gen.schema.num_classes(), 60);
        }
    }

    #[test]
    fn hier_spec_overrides_only_the_named_keys() {
        let p = HierarchyParams::parse("classes=60, seed=7,contradict=0.5").unwrap();
        assert_eq!((p.classes, p.seed, p.contradiction_rate), (60, 7, 0.5));
        assert_eq!(p.max_supers, HierarchyParams::default().max_supers);
        assert!(HierarchyParams::parse("classes").is_err());
        assert!(HierarchyParams::parse("depth=3").unwrap_err().contains("unknown --hier key"));
    }

    #[test]
    fn generation_is_deterministic() {
        let p = HierarchyParams::default();
        let a = generate(&p);
        let c = generate(&p);
        assert_eq!(a.schema.num_classes(), c.schema.num_classes());
        assert_eq!(a.excused_sites, c.excused_sites);
        assert_eq!(
            chc_sdl::print_schema(&a.schema),
            chc_sdl::print_schema(&c.schema)
        );
    }

    #[test]
    fn hierarchies_contain_excused_contradictions() {
        let gen = generate(&HierarchyParams { classes: 200, ..Default::default() });
        assert!(
            gen.excused_sites.len() > 5,
            "only {} excused sites generated",
            gen.excused_sites.len()
        );
    }

    #[test]
    fn seeded_faults_are_detected_with_full_recall() {
        let gen = generate(&HierarchyParams { classes: 150, ..Default::default() });
        let n = gen.excused_sites.len().min(10);
        let (mutated, faults) = seed_contradictions(&gen, n, 42);
        assert_eq!(faults.len(), n);
        assert!(!check(&mutated).is_ok());
        let (precision, recall) = detection_score(&mutated, &faults);
        assert_eq!(recall, 1.0, "checker must find every seeded fault");
        assert_eq!(precision, 1.0, "checker must not cry wolf");
    }

    #[test]
    fn single_class_edit_narrows_one_site_deterministically() {
        let gen = generate(&HierarchyParams::default());
        let (evolved, (class, attr)) = single_class_edit(&gen, 0);
        let old_r = &gen.schema.declared_attr(class, attr).unwrap().spec.range;
        let new_r = &evolved.declared_attr(class, attr).unwrap().spec.range;
        assert!(old_r.subsumes(&gen.schema, new_r) && old_r != new_r, "a strict narrowing");
        assert_eq!(
            gen.schema.declared_attr(class, attr).unwrap().spec.excuses,
            evolved.declared_attr(class, attr).unwrap().spec.excuses,
            "the excuse clauses survive the edit"
        );
        let (again, site) = single_class_edit(&gen, 0);
        assert_eq!(site, (class, attr));
        assert_eq!(chc_sdl::print_schema(&evolved), chc_sdl::print_schema(&again));
        // A different pick edits a different site.
        let (_, other) = single_class_edit(&gen, 1);
        assert_ne!(other, (class, attr));
    }

    #[test]
    fn zero_faults_scores_perfectly() {
        let gen = generate(&HierarchyParams::default());
        let (schema, faults) = seed_contradictions(&gen, 0, 1);
        assert!(check(&schema).is_ok());
        assert_eq!(detection_score(&schema, &faults), (1.0, 1.0));
    }

    #[test]
    fn deeper_hierarchies_via_single_supers() {
        let gen = generate(&HierarchyParams {
            classes: 40,
            max_supers: 1,
            ..Default::default()
        });
        // A pure tree: every class except the root has exactly one parent.
        for c in gen.schema.class_ids() {
            assert!(gen.schema.supers(c).len() <= 1);
        }
    }
}
