//! Schema-diff cost vs. full-check cost by schema size (E16).
//!
//! The §6 locality desideratum asks that an edit's consequences stay
//! below the edited class. `diff/{n}` times [`diff_schemas`] plus
//! [`impact_cone`] on a single-class edit: the differ walks both schemas
//! once (O(schema)) and the cone is small. `full/{n}` times the whole
//! checker on the new schema, which is what `chc check --since` runs
//! after the diff.

use chc_bench::harness::{BenchmarkId, Criterion, Throughput};
use chc_bench::{criterion_group, criterion_main};

use chc_bench::{evolved_pair, SCHEMA_SIZES};
use chc_core::{check, diff_schemas, impact_cone};

fn bench_diff_cone(c: &mut Criterion) {
    let mut group = c.benchmark_group("diff_cone");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for &n in &SCHEMA_SIZES {
        let (old, new) = evolved_pair(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("diff", n), &n, |b, _| {
            b.iter(|| {
                let diff = diff_schemas(&old, &new);
                let dirty = impact_cone(&old, &new, &diff);
                assert!(!diff.edits.is_empty());
                dirty.classes.len()
            })
        });
        group.bench_with_input(BenchmarkId::new("full", n), &n, |b, _| {
            b.iter(|| check(&new).diagnostics.len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_diff_cone);
criterion_main!(benches);
