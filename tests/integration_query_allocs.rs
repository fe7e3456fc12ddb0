//! Allocations of one query execution. The executor reads every value in
//! place, so a run allocates its row vector and nothing per row: the
//! count must not grow with the store.
//!
//! This binary installs the tracking allocator and holds a single test,
//! so no other test thread allocates between the two counter readings.

use excuses::obs::memalloc::{snapshot, TrackingAllocator};
use excuses::query::{compile, execute, CheckMode, Pred, Query};
use excuses::types::TypeContext;
use excuses::workloads::{build_hospital, HospitalDb, HospitalParams};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

fn db(patients: usize) -> HospitalDb {
    build_hospital(&HospitalParams {
        patients,
        tubercular_fraction: 0.2,
        alcoholic_fraction: 0.2,
        ambulatory_fraction: 0.2,
        ..Default::default()
    })
}

/// Allocations made by running `query` in `mode` over `db`, and the rows
/// it emitted.
fn allocs(db: &HospitalDb, query: &Query, mode: CheckMode) -> (u64, usize) {
    let ctx = TypeContext::with_virtuals(&db.virtualized);
    let plan = compile(&ctx, query, mode).unwrap();
    let before = snapshot().allocs;
    let result = execute(&db.virtualized.schema, &db.store, &plan);
    let after = snapshot().allocs;
    (after - before, result.stats.rows_emitted)
}

#[test]
fn execute_allocates_the_same_over_100_and_1000_patients() {
    let (small, large) = (db(100), db(1000));
    let ids = &small.ids;
    let state = vec![ids.treated_at, ids.location, ids.state];
    let queries = [
        Query::over(ids.patient).emit(vec![ids.treated_at, ids.location, ids.city]),
        Query::over(ids.patient).emit(state.clone()),
        Query::over(ids.patient)
            .where_not_in(ids.tubercular)
            .where_pred(Pred::IntLe(vec![ids.age], 60))
            .emit(state.clone()),
        Query::over(ids.patient)
            .where_pred(Pred::PathInClass(vec![ids.treated_by], ids.psychologist))
            .emit(vec![ids.treated_by, ids.name]),
        Query::over(ids.alcoholic).emit(vec![ids.name]),
        Query::over(ids.patient).emit(vec![]),
    ];
    for query in &queries {
        for mode in [CheckMode::Always, CheckMode::Never, CheckMode::Eliminate] {
            let (small_allocs, small_rows) = allocs(&small, query, mode);
            let (large_allocs, large_rows) = allocs(&large, query, mode);
            assert!(large_rows > 5 * small_rows.max(1), "{query:?} {mode:?}");
            assert_eq!(
                small_allocs, large_allocs,
                "{query:?} in {mode:?}: {small_rows} vs {large_rows} rows"
            );
        }
    }
}
