//! E5 (table component): extent maintenance throughput.
//!
//! §3c: automatic subset propagation versus hand-written per-class set
//! procedures. Throughput is comparable (both touch one set per
//! ancestor); the automatic store's advantage is *correctness under
//! evolution*, which the report binary quantifies — this bench shows the
//! safety is not bought with a slowdown.
//!
//! `validate_recorded` gates the always-on recorder's tax on the
//! validate phase: every patient of a populated hospital store is
//! validated with no recorder installed (`none`), then under a scoped
//! flight recorder (`flight`), the one `chc` always installs.

use std::sync::Arc;

use chc_bench::{criterion_group, criterion_main};
use chc_bench::harness::{BenchmarkId, Criterion, Throughput};

use chc_baselines::ManualSetStore;
use chc_bench::chain_schema;
use chc_core::ValidationOptions;
use chc_extent::{validate_all, ExtentStore};
use chc_model::ClassId;
use chc_obs::FlightRecorder;
use chc_workloads::hospital::{self, HospitalParams};

fn bench_create(c: &mut Criterion) {
    let mut group = c.benchmark_group("E5_create_object");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for &depth in &[4usize, 8, 16] {
        let schema = chain_schema(depth);
        let leaf = ClassId::from_raw(depth as u32 - 1);
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(
            BenchmarkId::new("automatic", depth),
            &schema,
            |b, schema| {
                let mut store = ExtentStore::new(schema);
                b.iter(|| store.create(schema, &[leaf]))
            },
        );
        group.bench_with_input(BenchmarkId::new("manual_sets", depth), &schema, |b, schema| {
            let mut store = ManualSetStore::new(schema);
            b.iter(|| store.create(leaf))
        });
    }
    group.finish();
}

fn bench_membership(c: &mut Criterion) {
    let mut group = c.benchmark_group("E5_membership_test");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let schema = chain_schema(16);
    let leaf = ClassId::from_raw(15);
    let root = ClassId::from_raw(0);
    let mut store = ExtentStore::new(&schema);
    let mut oids = Vec::new();
    for _ in 0..10_000 {
        oids.push(store.create(&schema, &[leaf]));
    }
    group.bench_function("is_member", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % oids.len();
            store.is_member(oids[i], root)
        })
    });
    group.finish();
}

fn bench_validate_recorded(c: &mut Criterion) {
    let mut group = c.benchmark_group("validate_recorded");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let db = hospital::build(&HospitalParams {
        patients: 10_000,
        ..HospitalParams::default()
    });
    let schema = &db.virtualized.schema;
    let opts = ValidationOptions::default();
    let validate = || validate_all(schema, &db.store, opts, db.ids.patient);
    group.throughput(Throughput::Elements(db.patients.len() as u64));
    group.bench_function("none", |b| b.iter(validate));
    let flight = Arc::new(FlightRecorder::new());
    group.bench_function("flight", |b| {
        let _scope = chc_obs::scoped(flight.clone());
        b.iter(validate)
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_create,
    bench_membership,
    bench_validate_recorded
);
criterion_main!(benches);
