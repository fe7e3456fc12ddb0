//! Lint-pass throughput vs. schema size.
//!
//! The lints share the verifiability budget of `chc check` (§5.3): both
//! are meant to run on every edit, so the pass must stay near-linear in
//! the number of classes. The coherence sweep visits every class ×
//! applicable attribute, but settles most sites from their minimal
//! declarer's §5.1 verdict (decided once per declaration) and runs the
//! exact `admits_common_value` decision only at joins of two or more
//! lineages and at failed declarations. The structural lints (L002,
//! L004–L006) are graph walks.

use chc_bench::harness::{BenchmarkId, Criterion, Throughput};
use chc_bench::{criterion_group, criterion_main};

use chc_bench::{sized_schema, SCHEMA_SIZES};
use chc_lint::{run, LintConfig};

fn bench_lint(c: &mut Criterion) {
    let mut group = c.benchmark_group("lint_schema");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let config = LintConfig::new();
    for &n in &SCHEMA_SIZES {
        let schema = sized_schema(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &schema, |b, schema| {
            b.iter(|| {
                let report = run(schema, &config);
                // The generated workload schemas are fully excused, so
                // only structural lints may fire — never a deny.
                assert!(report.is_ok());
                report.findings.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lint);
criterion_main!(benches);
