//! SDL front-end cost vs. schema size: lex, parse, resolve names and
//! build the schema, with the source map every diagnostic points into.
//!
//! Every check, lint, diff and incremental request starts here, so the
//! series gates the compile layer on its own. The input is a generated
//! hierarchy printed once; only `compile_with_source` is timed.

use chc_bench::harness::{BenchmarkId, Criterion, Throughput};
use chc_bench::{criterion_group, criterion_main, sized_schema};
use chc_sdl::{compile_with_source, print_schema};

fn bench_sdl_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("sdl_compile");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for n in [400, 1600, 3200] {
        let text = print_schema(&sized_schema(n));
        group.throughput(Throughput::Bytes(text.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &text, |b, text| {
            b.iter(|| compile_with_source(text, "bench.sdl").unwrap().num_classes())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sdl_compile);
criterion_main!(benches);
