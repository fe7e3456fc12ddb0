//! Query-safety-analyzer throughput vs. schema size.
//!
//! The Q lints are meant to run on every edit of a `.chq` batch, like
//! the schema lints on every edit of the schema, so a fixed batch of 50
//! queries must stay near-linear as the schema underneath it grows from
//! 50 to 3200 classes. Guard synthesis (Q005) is the part with the
//! superlinear temptation — its candidate set is pruned to subclasses
//! of the scanned class, and this bench is the regression tripwire.

use chc_bench::harness::{BenchmarkId, Criterion, Throughput};
use chc_bench::{criterion_group, criterion_main};

use chc_bench::{sized_schema, SCHEMA_SIZES};
use chc_core::{virtualize, Virtualized};
use chc_lint::{run_queries, LintConfig};
use chc_query::{parse_query_file, SpannedQuery};

const QUERIES_PER_BATCH: usize = 50;

/// A batch of one-step projections spread over the hierarchy, each on
/// an attribute actually applicable to its scanned class (inapplicable
/// ones would short-circuit into a definite type error and never reach
/// the hazard analysis this bench is about).
fn build_batch(v: &Virtualized) -> Vec<SpannedQuery> {
    let s = &v.schema;
    let mut lines = Vec::with_capacity(QUERIES_PER_BATCH);
    let classes: Vec<_> = s.class_ids().collect();
    let mut ci = 0;
    while lines.len() < QUERIES_PER_BATCH {
        let class = classes[ci * 7 % classes.len()];
        ci += 1;
        let name = s.class_name(class);
        if name.contains('@') {
            continue; // virtual classes are not scannable by name
        }
        let Some(attr) = s.applicable_attrs(class).next() else {
            continue;
        };
        lines.push(format!("for x in {name} emit x.{};", s.resolve(attr)));
    }
    let batch = lines.join("\n");
    parse_query_file(s, &batch).expect("generated batch parses")
}

fn bench_query_lint(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_lint");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let config = LintConfig::new();
    for &n in &SCHEMA_SIZES {
        let schema = sized_schema(n);
        let v = virtualize(&schema).expect("generated schema virtualizes");
        let queries = build_batch(&v);
        group.throughput(Throughput::Elements(queries.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &queries, |b, queries| {
            b.iter(|| {
                let report = run_queries(&v, queries, None, &config);
                // Generated schemas are fully excused and the batch has
                // no `-- expect:` directives, so nothing can deny.
                assert!(report.is_ok());
                report.findings.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_query_lint);
criterion_main!(benches);
