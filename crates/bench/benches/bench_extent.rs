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
//!
//! `extent_load` gates the `.chd` loader: it loads the text of a
//! 10,000-patient hospital, one entry per line, written here from a
//! generated store.

use std::sync::Arc;

use chc_bench::{criterion_group, criterion_main};
use chc_bench::harness::{BenchmarkId, Criterion, Throughput};

use chc_baselines::ManualSetStore;
use chc_bench::chain_schema;
use chc_core::ValidationOptions;
use chc_extent::{load_data, validate_all, ExtentStore};
use chc_model::{ClassId, Schema, Sym, Value};
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

/// `.chd` text for every object in `store`: one line each, named
/// `o<surrogate>`, listing its most specific non-virtual classes and its
/// values.
fn chd_text(schema: &Schema, store: &ExtentStore) -> String {
    fn value(schema: &Schema, v: &Value) -> String {
        match v {
            Value::Obj(o) => format!("@o{}", o.raw()),
            Value::Record(fields) => {
                let parts: Vec<String> = fields
                    .iter()
                    .map(|(f, v)| format!("{} = {}", schema.resolve(*f), value(schema, v)))
                    .collect();
                format!("[{}]", parts.join(", "))
            }
            v => v.render(schema),
        }
    }
    let mut oids: Vec<_> = schema.class_ids().flat_map(|c| store.extent(c)).collect();
    oids.sort_unstable();
    oids.dedup();
    let mut out = String::new();
    for oid in oids {
        let concrete: Vec<ClassId> = store
            .classes_of(oid)
            .into_iter()
            .filter(|&c| !schema.class(c).is_virtual())
            .collect();
        let leaves: Vec<&str> = concrete
            .iter()
            .filter(|&&c| !concrete.iter().any(|&d| d != c && schema.is_subclass(d, c)))
            .map(|&c| schema.class_name(c))
            .collect();
        let mut attrs: Vec<Sym> = concrete
            .iter()
            .flat_map(|&c| schema.applicable_attrs(c))
            .collect();
        attrs.sort_unstable();
        attrs.dedup();
        let fields: Vec<String> = attrs
            .iter()
            .filter_map(|&a| {
                let v = store.get_attr(oid, a).filter(|v| !v.is_absent())?;
                Some(format!("{} = {}", schema.resolve(a), value(schema, v)))
            })
            .collect();
        out.push_str(&format!(
            "o{} : {} {{ {} }}\n",
            oid.raw(),
            leaves.join(", "),
            fields.join(", ")
        ));
    }
    out
}

fn bench_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("extent_load");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let db = hospital::build(&HospitalParams {
        patients: 10_000,
        ..HospitalParams::default()
    });
    let schema = &db.virtualized.schema;
    let text = chd_text(schema, &db.store);
    let objects = load_data(schema, &text)
        .expect("the written text loads")
        .names
        .len();
    group.throughput(Throughput::Elements(objects as u64));
    group.bench_function("hospital_10000", |b| {
        b.iter(|| load_data(schema, &text).expect("the written text loads"))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_create,
    bench_membership,
    bench_validate_recorded,
    bench_load
);
criterion_main!(benches);
