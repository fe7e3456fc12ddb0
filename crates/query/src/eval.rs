//! The query evaluator, instrumented for experiment E4.
//!
//! Evaluation is a straightforward scan–filter–project loop; the
//! interesting part is the accounting. Every run-time safety check the
//! plan requests is counted, and every *unchecked* failure (dereferencing
//! an absent value, or an attribute missing at run time) is counted
//! instead of crashing — so the three [`CheckMode`](crate::plan::CheckMode)s
//! can be compared on work done and failures suffered.
//!
//! The accounting is published two ways. Each [`execute`] call returns its
//! own [`ExecStats`], and when a `chc-obs` recorder is installed the same
//! totals are mirrored to the `query.*` counters — `query.rows_scanned`,
//! `query.rows_emitted`, `query.checks_executed`, plus
//! `query.checks_eliminated`, the per-row checks the plan *dropped*
//! relative to a check-everything plan (§5.4's savings, made visible).

use std::borrow::Cow;

use chc_core::{constraint_holds, Semantics};
use chc_extent::ExtentStore;
use chc_model::{Oid, Schema, Value};
use chc_obs::{names, Kind};

use crate::ast::Pred;
use crate::plan::Plan;

/// Execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Objects scanned from the extent.
    pub rows_scanned: usize,
    /// Rows surviving the filter and emitting a value.
    pub rows_emitted: usize,
    /// Run-time safety checks executed.
    pub checks_executed: usize,
    /// Failures that a check *would* have caught but none was present —
    /// run-time type errors in an unchecked plan.
    pub unchecked_failures: usize,
    /// Rows skipped by a failing check (graceful handling).
    pub rows_skipped_by_check: usize,
}

/// The emitted values plus statistics. Rows borrow from the store the
/// plan ran over; only a row for an empty emit path, the scanned object
/// itself, is owned.
#[derive(Debug, Clone)]
pub struct ExecResult<'s> {
    /// Projected values, in scan order.
    pub values: Vec<Cow<'s, Value>>,
    /// The accounting.
    pub stats: ExecStats,
}

/// Runs a plan over a store.
///
/// The cost model for a run-time safety check is the one a compiler
/// *without* the §5.4 type theory must emit: before trusting a fetched
/// value, verify it against every constraint applicable to its owner for
/// that attribute (the §5.2 rule), since nothing was proven statically.
/// Checks the type-guided compiler eliminates are exactly this work saved.
///
/// The walk reads every value in place, so a run allocates its row vector
/// and nothing per row.
pub fn execute<'s>(schema: &Schema, store: &'s ExtentStore, plan: &Plan) -> ExecResult<'s> {
    let _span = chc_obs::span(names::SPAN_QUERY_EXECUTE);
    let _mem = chc_obs::memalloc::span_mem(
        names::MEM_QUERY_EXECUTE_BYTES,
        names::MEM_QUERY_EXECUTE_PEAK,
    );
    // Attribute everything this execution does (its own counters below,
    // plus the subtype queries the runtime safety checks trigger) to the
    // scanned class — `chc profile query` groups cost by that label.
    let label = plan.class.index() as u64;
    let _label = chc_obs::keeps(Kind::Labeled).then(|| chc_obs::label_scope(label));
    let mut stats = ExecStats::default();
    let mut values = Vec::with_capacity(store.count(plan.class));
    'row: for oid in store.extent(plan.class) {
        stats.rows_scanned += 1;
        for pred in &plan.filter {
            if !eval_pred(store, oid, pred) {
                continue 'row;
            }
        }
        // Project the path, honoring the per-step check placement. `cur`
        // is the value reached so far, `None` while still at `oid`.
        let mut cur: Option<&'s Value> = None;
        for (&attr, &checked) in plan.emit.iter().zip(&plan.step_checks) {
            let owner = cur.map_or(Some(oid), Value::as_obj);
            let next = match owner {
                Some(o) => store.get_attr(o, attr),
                None => cur.and_then(|v| v.field(attr)),
            };
            if checked {
                stats.checks_executed += 1;
                let safe = match (owner, next) {
                    (Some(o), Some(v)) => runtime_safety_check(schema, store, o, attr, v),
                    // Record-value field access: presence is the whole check
                    // (record fields carry no class constraints of their own).
                    (None, Some(_)) => true,
                    (_, None) => false,
                };
                if !safe {
                    stats.rows_skipped_by_check += 1;
                    continue 'row;
                }
            }
            let Some(v) = next else {
                stats.unchecked_failures += 1;
                continue 'row;
            };
            cur = Some(v);
        }
        stats.rows_emitted += 1;
        values.push(cur.map_or(Cow::Owned(Value::Obj(oid)), Cow::Borrowed));
    }
    chc_obs::counter(names::QUERY_ROWS_SCANNED, stats.rows_scanned as u64);
    chc_obs::counter(names::QUERY_ROWS_EMITTED, stats.rows_emitted as u64);
    chc_obs::counter(names::QUERY_CHECKS_EXECUTED, stats.checks_executed as u64);
    chc_obs::labeled_counter(names::QUERY_ROWS_SCANNED, label, stats.rows_scanned as u64);
    chc_obs::labeled_counter(
        names::QUERY_CHECKS_EXECUTED,
        label,
        stats.checks_executed as u64,
    );
    // Checks a check-everything compiler would have run but this plan
    // statically proved away: one per eliminated step, per scanned row.
    let eliminated_per_row = plan.emit.len().saturating_sub(plan.checks_per_row());
    chc_obs::counter(
        names::QUERY_CHECKS_ELIMINATED,
        (stats.rows_scanned * eliminated_per_row) as u64,
    );
    ExecResult { values, stats }
}

/// The work one run-time safety test performs: re-validate the fetched
/// value against each applicable constraint under the Correct semantics.
fn runtime_safety_check(
    schema: &Schema,
    store: &ExtentStore,
    owner: Oid,
    attr: chc_model::Sym,
    value: &Value,
) -> bool {
    if value.is_absent() {
        // An absent value cannot be dereferenced / used; the check's job
        // is precisely to catch this before the crash.
        return false;
    }
    for &declarer in schema.declarers_of(attr) {
        if !store.is_member(owner, declarer) {
            continue;
        }
        let range = &schema
            .declared_attr(declarer, attr)
            .expect("declarer")
            .spec
            .range;
        if !constraint_holds(
            schema,
            store,
            Semantics::Correct,
            owner,
            declarer,
            attr,
            range,
            value,
        ) {
            return false;
        }
    }
    true
}

fn eval_pred(store: &ExtentStore, oid: Oid, pred: &Pred) -> bool {
    match pred {
        Pred::InClass(c) => store.is_member(oid, *c),
        Pred::NotInClass(c) => !store.is_member(oid, *c),
        Pred::PathInClass(path, c) => match store.follow_path(oid, path) {
            Some(Value::Obj(o)) => store.is_member(*o, *c),
            _ => false,
        },
        Pred::TokEq(path, tok) => store.follow_path(oid, path) == Some(&Value::Tok(*tok)),
        Pred::IntLe(path, n) => match store.follow_path(oid, path) {
            Some(Value::Int(v)) => v <= n,
            _ => false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Query;
    use crate::plan::{compile, CheckMode};
    use chc_types::TypeContext;
    use chc_workloads::{build_hospital, HospitalParams};

    fn db() -> chc_workloads::HospitalDb {
        build_hospital(&HospitalParams {
            patients: 400,
            tubercular_fraction: 0.1,
            ..Default::default()
        })
    }

    #[test]
    fn safe_city_query_runs_checkless_and_clean() {
        let db = db();
        let ctx = TypeContext::with_virtuals(&db.virtualized);
        let s = &db.virtualized.schema;
        let q =
            Query::over(db.ids.patient).emit(vec![db.ids.treated_at, db.ids.location, db.ids.city]);
        let plan = compile(&ctx, &q, CheckMode::Eliminate).unwrap();
        let result = execute(&db.virtualized.schema, &db.store, &plan);
        assert_eq!(result.stats.rows_scanned, 400);
        assert_eq!(result.stats.rows_emitted, 400);
        assert_eq!(result.stats.checks_executed, 0);
        assert_eq!(result.stats.unchecked_failures, 0);
        let _ = s;
    }

    #[test]
    fn unguarded_state_query_fails_on_swiss_addresses() {
        let db = db();
        let ctx = TypeContext::with_virtuals(&db.virtualized);
        let q = Query::over(db.ids.patient).emit(vec![
            db.ids.treated_at,
            db.ids.location,
            db.ids.state,
        ]);
        // Unchecked: the tubercular rows blow up (counted, not crashed).
        let never = compile(&ctx, &q, CheckMode::Never).unwrap();
        let r = execute(&db.virtualized.schema, &db.store, &never);
        let n_tb = db.store.count(db.ids.tubercular);
        assert_eq!(r.stats.unchecked_failures, n_tb);
        assert_eq!(r.stats.rows_emitted, 400 - n_tb);

        // Naive: three checks on every row.
        let naive = compile(&ctx, &q, CheckMode::Always).unwrap();
        let r = execute(&db.virtualized.schema, &db.store, &naive);
        assert_eq!(r.stats.unchecked_failures, 0);
        assert!(r.stats.checks_executed >= 400 * 2);
    }

    #[test]
    fn guarded_state_query_is_safe_without_checks() {
        let db = db();
        let ctx = TypeContext::with_virtuals(&db.virtualized);
        let q = Query::over(db.ids.patient)
            .where_not_in(db.ids.tubercular)
            .emit(vec![db.ids.treated_at, db.ids.location, db.ids.state]);
        let plan = compile(&ctx, &q, CheckMode::Eliminate).unwrap();
        assert_eq!(plan.checks_per_row(), 0);
        let r = execute(&db.virtualized.schema, &db.store, &plan);
        assert_eq!(r.stats.unchecked_failures, 0);
        let n_tb = db.store.count(db.ids.tubercular);
        assert_eq!(r.stats.rows_emitted, 400 - n_tb);
    }

    #[test]
    fn membership_guard_narrows_rows_and_types() {
        let db = db();
        let ctx = TypeContext::with_virtuals(&db.virtualized);
        let s = &db.virtualized.schema;
        let q = Query::over(db.ids.patient)
            .where_in(db.ids.alcoholic)
            .emit(vec![db.ids.treated_by, db.ids.name]);
        let plan = compile(&ctx, &q, CheckMode::Eliminate).unwrap();
        let r = execute(&db.virtualized.schema, &db.store, &plan);
        assert_eq!(r.stats.rows_emitted, db.store.count(db.ids.alcoholic));
        for v in &r.values {
            assert!(matches!(&**v, Value::Str(name) if name.starts_with("Psy")));
        }
        let _ = s;
    }

    #[test]
    fn token_and_int_predicates() {
        let db = db();
        let ctx = TypeContext::with_virtuals(&db.virtualized);
        let s = &db.virtualized.schema;
        let nj = s.sym("NJ").unwrap();
        let q = Query::over(db.ids.patient)
            .where_pred(Pred::TokEq(
                vec![db.ids.treated_at, db.ids.location, db.ids.state],
                nj,
            ))
            .emit(vec![db.ids.name]);
        let plan = compile(&ctx, &q, CheckMode::Eliminate).unwrap();
        let r = execute(&db.virtualized.schema, &db.store, &plan);
        assert!(r.stats.rows_emitted > 0);
        assert!(r.stats.rows_emitted < 400);

        let q = Query::over(db.ids.patient)
            .where_pred(Pred::IntLe(vec![db.ids.age], 40))
            .emit(vec![db.ids.name]);
        let plan = compile(&ctx, &q, CheckMode::Eliminate).unwrap();
        let r2 = execute(&db.virtualized.schema, &db.store, &plan);
        assert!(r2.stats.rows_emitted > 0 && r2.stats.rows_emitted < 400);
    }

    #[test]
    fn eliminate_mode_matches_always_mode_semantics() {
        // Same emitted rows; strictly fewer checks.
        let db = db();
        let ctx = TypeContext::with_virtuals(&db.virtualized);
        let q = Query::over(db.ids.patient).emit(vec![
            db.ids.treated_at,
            db.ids.location,
            db.ids.state,
        ]);
        let always = execute(
            &db.virtualized.schema,
            &db.store,
            &compile(&ctx, &q, CheckMode::Always).unwrap(),
        );
        let elim = execute(
            &db.virtualized.schema,
            &db.store,
            &compile(&ctx, &q, CheckMode::Eliminate).unwrap(),
        );
        assert_eq!(always.values, elim.values);
        assert!(elim.stats.checks_executed < always.stats.checks_executed);
        assert_eq!(elim.stats.unchecked_failures, 0);
    }
}
