//! Q001–Q005 — the query safety analyzer.
//!
//! Runs the planner's hazard analysis (`chc_query::analyze_query`) over a
//! batch of parsed queries and files the results as coded findings:
//!
//! * **Q001 `unsafe-path`** — a projection step can hit a class or branch
//!   where the attribute is excused or absent (§5.4's "may result in a
//!   run-time failure for certain database states"), or the path is a
//!   definite type error the planner would reject.
//! * **Q002 `dead-guard`** — a `not in C` filter excluding no possible
//!   member of the source extent.
//! * **Q003 `empty-source`** — the scanned class is incoherent (L001), or
//!   the guards are contradictory: the query is vacuous by construction.
//! * **Q004 `discharged-check`** — info: a run-time check the compiler
//!   eliminated, with the admissibility derivation as evidence.
//! * **Q005 `guard-suggestion`** — info: a minimal `p not in C` guard set
//!   that would restore type safety, found by §4.2 case analysis.

use std::collections::HashMap;

use chc_core::{admits_common_value, explain_admissibility, Derivation, Virtualized};
use chc_model::{ClassId, Schema, Sym};
use chc_query::ast::Pred;
use chc_query::{analyze_query, synthesize_guards, SpannedQuery};
use chc_types::{Atom, EntityFacts, Hazard, TypeContext, TySet};

use crate::config::LintLevel;
use crate::finding::Finding;
use crate::LintCode;

pub(crate) fn run(
    v: &Virtualized,
    queries: &[SpannedQuery],
    file: &str,
    out: &mut Vec<Finding>,
) {
    let ctx = TypeContext::with_virtuals(v);
    let schema = &v.schema;
    // Scan-class incoherence, computed lazily: `.chq` batches tend to
    // reuse a handful of source classes, and a full L001 sweep per batch
    // would dominate the analyzer's cost.
    let mut incoherence: HashMap<ClassId, Option<Sym>> = HashMap::new();
    for (qi, sq) in queries.iter().enumerate() {
        let scan = sq.query.class;
        let file_of = |span| (Some(file.to_string()), span);
        let bad_attr = *incoherence.entry(scan).or_insert_with(|| {
            schema
                .applicable_attrs(scan)
                .find(|&a| !admits_common_value(schema, scan, a))
        });
        if let Some(attr) = bad_attr {
            let (file, span) = file_of(Some(sq.class_span));
            out.push(Finding {
                code: LintCode::EmptySource,
                level: LintLevel::Warn,
                class: scan,
                attr: Some(attr),
                span,
                file,
                query: Some(qi),
                message: format!(
                    "source class `{}` is incoherent at `{}` and can have no instances; \
                     the query scans nothing",
                    schema.class_name(scan),
                    schema.resolve(attr),
                ),
                derivation: Some(explain_admissibility(schema, scan, attr)),
            });
            continue;
        }

        let safety = analyze_query(&ctx, sq);
        if let Some((err, span)) = &safety.error {
            let (code, message) = match err {
                chc_query::TypeError::PathNeverTyped { step } => (
                    LintCode::UnsafePath,
                    format!(
                        "type error: `{}` at step {} is inapplicable to every possible \
                         value; the path can never be evaluated",
                        sq.query.emit.get(*step).map_or("?", |&a| schema.resolve(a)),
                        step + 1,
                    ),
                ),
                chc_query::TypeError::FilterNeverTyped { pred } => (
                    LintCode::UnsafePath,
                    format!("type error: the path in filter {} is never typed", pred + 1),
                ),
                chc_query::TypeError::VacuousQuery { pred } => (
                    LintCode::EmptySource,
                    format!(
                        "type error: filter {} contradicts what is already known; \
                         the query is vacuous",
                        pred + 1,
                    ),
                ),
            };
            let (file, span) = file_of(*span);
            out.push(Finding {
                code,
                level: LintLevel::Warn,
                class: scan,
                attr: None,
                span,
                file,
                query: Some(qi),
                message,
                derivation: None,
            });
            continue;
        }

        // Q002: dead guards. A `not in C` excludes nothing when the
        // entity is already known to be outside C (downward closure of
        // an earlier guard) or when C shares no descendant with the
        // scanned class at all.
        for (i, pred) in sq.query.filter.iter().enumerate() {
            let Pred::NotInClass(c) = pred else { continue };
            let facts = &safety.pred_facts[i];
            let overlaps = schema
                .descendants_with_self(scan)
                .any(|x| schema.is_subclass(x, *c));
            if facts.known_not_in(*c) || !overlaps {
                let why = if facts.known_not_in(*c) {
                    "already implied by the earlier guards"
                } else {
                    "no member of the source class can be in it"
                };
                let (file, span) = file_of(sq.pred_spans.get(i).copied());
                out.push(Finding {
                    code: LintCode::DeadGuard,
                    level: LintLevel::Warn,
                    class: *c,
                    attr: None,
                    span,
                    file,
                    query: Some(qi),
                    message: format!(
                        "guard `not in {}` excludes nothing: {why}",
                        schema.class_name(*c),
                    ),
                    derivation: None,
                });
            }
        }

        // Q001 for every residual hazard, Q004 for every discharged step.
        for (si, st) in safety.steps.iter().enumerate() {
            let attr_name = schema.resolve(st.attr);
            for h in &st.hazards {
                chc_obs::counter(chc_obs::names::LINT_HAZARDS, 1);
                let message = match h {
                    Hazard::MayBeAbsent { .. } => format!(
                        "the value fetched at `{attr_name}` may be absent for some \
                         database states (an excused `None` upstream); a run-time \
                         check is required",
                    ),
                    Hazard::MayBeInapplicable { .. } => format!(
                        "`{attr_name}` may be inapplicable to the value at step {}; \
                         a run-time check is required",
                        si + 1,
                    ),
                    Hazard::ScalarDereference { .. } => format!(
                        "the value at step {} may be a scalar, which has no \
                         attributes; a run-time check is required",
                        si + 1,
                    ),
                };
                let (file, span) = file_of(st.span);
                out.push(Finding {
                    code: LintCode::UnsafePath,
                    level: LintLevel::Warn,
                    class: scan,
                    attr: Some(st.attr),
                    span,
                    file,
                    query: Some(qi),
                    message,
                    derivation: None,
                });
            }
            if !st.check_needed {
                let (file, span) = file_of(st.span);
                out.push(Finding {
                    code: LintCode::DischargedCheck,
                    level: LintLevel::Info,
                    class: scan,
                    attr: Some(st.attr),
                    span,
                    file,
                    query: Some(qi),
                    message: format!(
                        "run-time check at `{attr_name}` eliminated: no type error \
                         can occur at this step",
                    ),
                    derivation: step_derivation(schema, &st.incoming, st.attr),
                });
            }
        }
        if safety.result_may_be_absent {
            chc_obs::counter(chc_obs::names::LINT_HAZARDS, 1);
            let last = safety.steps.last();
            let (file, span) = file_of(last.and_then(|st| st.span));
            out.push(Finding {
                code: LintCode::UnsafePath,
                level: LintLevel::Warn,
                class: scan,
                attr: last.map(|st| st.attr),
                span,
                file,
                query: Some(qi),
                message: "the projected result may be absent for some database states \
                          (an excused `None` range); consumers must test for it"
                    .to_string(),
                derivation: None,
            });
        }

        // Q005: when hazards remain, look for the guard set that would
        // remove them all.
        if safety.hazard_count() > 0 {
            if let Some(guards) = synthesize_guards(&ctx, &sq.query) {
                chc_obs::counter(chc_obs::names::LINT_GUARDS_SYNTHESIZED, 1);
                let clause = guards
                    .iter()
                    .map(|&c| format!("`not in {}`", schema.class_name(c)))
                    .collect::<Vec<_>>()
                    .join(" and ");
                let derivation = safety
                    .steps
                    .iter()
                    .find(|st| !st.hazards.is_empty())
                    .or(safety.steps.last())
                    .and_then(|st| step_derivation(schema, &st.incoming, st.attr));
                let (file, span) = file_of(Some(sq.span));
                out.push(Finding {
                    code: LintCode::GuardSuggestion,
                    level: LintLevel::Info,
                    class: guards[0],
                    attr: None,
                    span,
                    file,
                    query: Some(qi),
                    message: format!(
                        "adding {clause} would restore type safety (0 checks per row)",
                    ),
                    derivation,
                });
            }
        }
    }
}

/// Evidence for a step verdict: the admissibility derivation of the
/// attribute on the excuser class that contributes the exceptional
/// branch, falling back to the declaring class itself. `None` when the
/// incoming type has no entity atom with a known declaring class.
fn step_derivation(schema: &Schema, incoming: &TySet, attr: Sym) -> Option<Derivation> {
    let facts = incoming.atoms.iter().find_map(|a| match a {
        Atom::Entity(f) => Some(f),
        _ => None,
    })?;
    let decl = declaring_class(schema, facts, attr)?;
    let excuser = schema
        .excusers_of(decl, attr)
        .iter()
        .map(|e| e.excuser)
        .find(|&e| !facts.known_not_in(e));
    Some(explain_admissibility(schema, excuser.unwrap_or(decl), attr))
}

/// The class among the entity's known memberships that declares `attr`.
fn declaring_class(schema: &Schema, facts: &EntityFacts, attr: Sym) -> Option<ClassId> {
    facts
        .pos_classes()
        .find(|&c| schema.declared_attr(c, attr).is_some())
}
