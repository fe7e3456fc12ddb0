//! `perfbench trace`: replays a workload's requests in-process.
//!
//! For each request this calls the public functions `src/bin/chc.rs`
//! calls, in the same order, and records one span per call: name,
//! start, end, parent, and the request it belongs to. Spans stay in
//! memory until the replay ends, then go to `spans.jsonl`.
//!
//! Two kinds of pass over the requests:
//! * timing passes with no `chc_obs` recorder installed give the self
//!   times (a span's duration minus the time its child spans cover);
//!   each figure is the median over the passes, so the first touches of
//!   the heap and the input files do not land on one request;
//! * a counting pass installs a `StatsRecorder` per request, reads the
//!   library's own counters, and opens a `chc_obs::memalloc` probe in
//!   every span for the byte figures. Its times are discarded.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chc_core::{
    check, check_incremental, virtualize, CheckReport, MissingPolicy, Semantics, ValidationOptions,
};
use chc_extent::{load_data, refresh_virtual_extents, validate_stored};
use chc_lint::LintConfig;
use chc_model::Schema;
use chc_obs::json::JsonValue;
use chc_query::{compile as compile_query, execute, parse_query, CheckMode};
use chc_sdl::compile_with_source;
use chc_types::TypeContext;
use chc_workloads::{
    run_load, LibraryTarget, LoadConfig, MixSpec, Mode, OpGenerator, OpKind, StopRule, Target,
    TargetOptions,
};

use crate::flag_value;

/// Timing passes per trace.
const TIMING_PASSES: u32 = 3;

struct SpanRec {
    name: &'static str,
    pass: u32,
    request: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans around calls; in counting mode it also measures the
/// bytes each call allocates.
struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    request: u32,
    pass: u32,
    counting: bool,
    /// Per span name: bytes allocated (summed) and peak live growth (max).
    bytes: BTreeMap<&'static str, (u64, u64)>,
}

impl Tracer {
    fn new(counting: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            pass: 0,
            counting,
            bytes: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name,
            pass: self.pass,
            request: self.request,
            parent: self.stack.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.stack.push(idx);
        self.spans[idx].start_ns = self.now_ns();
        idx
    }

    fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now_ns();
        self.stack.pop();
    }

    /// Runs `f` inside a span named `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name);
        let probe = self.counting.then(chc_obs::memalloc::probe);
        let out = f();
        if let Some(probe) = probe {
            let s = probe.stats();
            let e = self.bytes.entry(name).or_default();
            e.0 += s.bytes_allocated;
            e.1 = e.1.max(s.peak_live);
        }
        self.close(idx);
        out
    }

    /// Runs one request under a root span shared by all its calls.
    fn request<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.request += 1;
        let idx = self.open(name);
        let out = f(self);
        self.close(idx);
        out
    }

    /// Self time of every span, in span order.
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c))
            .collect()
    }
}

/// One request from `requests.json`.
struct Request {
    kind: String,
    args: Vec<String>,
    expect: JsonValue,
}

/// Figures taken from the library's return values in the first timing
/// pass.
#[derive(Default)]
struct Facts {
    lint_findings: u64,
    cone_classes: u64,
    cone_total: u64,
    rows_scanned: u64,
    rows_emitted: u64,
    objects_loaded: u64,
}

pub fn main(args: &[String]) -> Result<(), String> {
    let dir = Path::new(flag_value(args, "--dir").ok_or("trace needs --dir")?);
    let doc = chc_obs::json::parse(&read(dir, "requests.json")?)?;
    let requests = parse_requests(&doc)?;

    let mut timing = Tracer::new(false);
    let mut facts = Facts::default();
    let mut failures = Vec::new();
    for pass in 0..TIMING_PASSES {
        timing.pass = pass;
        for r in &requests {
            let mut scratch = Facts::default();
            let facts = if pass == 0 { &mut facts } else { &mut scratch };
            if !replay(&mut timing, dir, r, facts)? && pass == 0 {
                failures.push(format!("{} {}", r.kind, r.args.join(" ")));
            }
        }
    }

    let mut counting = Tracer::new(true);
    let mut counters: BTreeMap<(String, &'static str), u64> = BTreeMap::new();
    for r in &requests {
        let rec = Arc::new(chc_obs::StatsRecorder::new());
        {
            let _scope = chc_obs::scoped(rec.clone());
            replay(&mut counting, dir, r, &mut Facts::default())?;
        }
        for (name, value) in rec.counters() {
            *counters.entry((r.kind.clone(), name)).or_insert(0) += value;
        }
    }

    let inproc_mean_ns = match requests.iter().find(|r| r.kind == "load") {
        Some(r) => inprocess_load_mean_ns(dir, r)?,
        None => 0.0,
    };

    write_spans(dir, &timing)?;
    let doc = report(
        &timing,
        &counting,
        &counters,
        &facts,
        inproc_mean_ns,
        failures,
    )?;
    println!("{}", doc.render());
    Ok(())
}

fn read(dir: &Path, file: &str) -> Result<String, String> {
    std::fs::read_to_string(dir.join(file)).map_err(|e| format!("{file}: {e}"))
}

fn parse_requests(doc: &JsonValue) -> Result<Vec<Request>, String> {
    let list = doc
        .get("requests")
        .and_then(JsonValue::as_array)
        .ok_or("requests.json has no `requests` list")?;
    list.iter()
        .map(|r| {
            let kind = r
                .get("kind")
                .and_then(JsonValue::as_str)
                .ok_or("request without kind")?;
            let args = r
                .get("args")
                .and_then(JsonValue::as_array)
                .ok_or("request without args")?
                .iter()
                .map(|a| a.as_str().map(str::to_string).ok_or("non-string argument"))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request {
                kind: kind.to_string(),
                args,
                expect: r
                    .get("expect")
                    .cloned()
                    .unwrap_or_else(|| JsonValue::object([])),
            })
        })
        .collect()
}

fn expect_num(r: &Request, key: &str) -> Option<u64> {
    r.expect
        .get(key)
        .and_then(JsonValue::as_f64)
        .map(|v| v as u64)
}

/// Replays one request; returns whether its outputs match the expected
/// answers (kinds whose answer only the subprocess run can check count
/// as matching).
fn replay(t: &mut Tracer, dir: &Path, r: &Request, facts: &mut Facts) -> Result<bool, String> {
    let a = &r.args;
    let arg = |i: usize| {
        a.get(i)
            .map(String::as_str)
            .ok_or(format!("{}: too few arguments", r.kind))
    };
    match r.kind.as_str() {
        "check" => t.request("request.check", |t| {
            let path = arg(1)?;
            let src = read(dir, path)?;
            let schema = t
                .span("sdl.compile", || compile_with_source(&src, path))
                .map_err(|e| e.to_string())?;
            let report = t.span("core.check", || check(&schema));
            black_box(t.span("cli.render", || render_check(path, &schema, &report)));
            Ok(report.errors().count() == 0
                && Some(schema.num_classes() as u64) == expect_num(r, "classes"))
        }),
        "incremental" => t.request("request.incremental", |t| {
            let (old_path, new_path) = (arg(3)?, arg(4)?);
            let src = read(dir, new_path)?;
            let schema = t
                .span("sdl.compile", || compile_with_source(&src, new_path))
                .map_err(|e| e.to_string())?;
            let old_src = read(dir, old_path)?;
            let old_schema = t
                .span("sdl.compile", || compile_with_source(&old_src, old_path))
                .map_err(|e| e.to_string())?;
            let old_report = t.span("core.check", || check(&old_schema));
            let inc = t.span("core.evolve.incremental", || {
                check_incremental(&old_schema, &old_report, &schema)
            });
            facts.cone_classes += inc.dirty.classes.len() as u64;
            facts.cone_total += schema.num_classes() as u64;
            black_box(t.span("cli.render", || {
                render_check(new_path, &schema, &inc.report)
            }));
            Ok(true)
        }),
        "lint" => t.request("request.lint", |t| {
            let path = arg(1)?;
            let src = read(dir, path)?;
            let schema = t
                .span("sdl.compile", || compile_with_source(&src, path))
                .map_err(|e| e.to_string())?;
            let report = t.span("lint.run", || chc_lint::run(&schema, &LintConfig::new()));
            facts.lint_findings += report.findings.len() as u64;
            black_box(t.span("cli.render", || {
                if report.findings.is_empty() {
                    format!("{path}: {} classes — no lints fired", schema.num_classes())
                } else {
                    chc_lint::render_report(&report, &schema, Some(&src))
                }
            }));
            Ok(true)
        }),
        "diff" => t.request("request.diff", |t| {
            let (old_path, new_path) = (arg(3)?, arg(4)?);
            let old_src = read(dir, old_path)?;
            let new_src = read(dir, new_path)?;
            let old = t
                .span("sdl.compile", || compile_with_source(&old_src, old_path))
                .map_err(|e| e.to_string())?;
            let new = t
                .span("sdl.compile", || compile_with_source(&new_src, new_path))
                .map_err(|e| e.to_string())?;
            let outcome = t.span("core.evolve.diff", || {
                chc_lint::run_diff(&old, &new, Some(old_path), &LintConfig::new())
            });
            black_box(t.span("cli.render", || {
                let edits: Vec<String> = outcome.diff.edits.iter().map(|e| e.describe()).collect();
                format!(
                    "{}\n{}",
                    edits.join("\n"),
                    outcome.report.to_json(&new).render()
                )
            }));
            let edits = &outcome.diff.edits;
            Ok(Some(edits.len() as u64) == expect_num(r, "edits")
                && edits.first().is_some_and(|e| {
                    Some(e.class.as_str()) == r.expect.get("class").and_then(JsonValue::as_str)
                        && e.attr.as_deref() == r.expect.get("attr").and_then(JsonValue::as_str)
                }))
        }),
        "validate" => t.request("request.validate", |t| {
            let (schema_path, data_path) = (arg(1)?, arg(2)?);
            let (v, mut data) = load_pipeline(t, dir, schema_path, data_path)?;
            t.span("extent.refresh_virtual", || {
                refresh_virtual_extents(&mut data.store, &v)
            });
            facts.objects_loaded += data.names.len() as u64;
            let opts = ValidationOptions {
                semantics: Semantics::Correct,
                missing: MissingPolicy::Absent,
            };
            let mut out = String::new();
            let mut invalid = Vec::new();
            for (name, oid) in &data.names {
                let violations = t.span("extent.validate", || {
                    validate_stored(&v.schema, &data.store, opts, *oid)
                });
                if !violations.is_empty() {
                    t.span("cli.render", || {
                        for viol in &violations {
                            let _ = writeln!(out, "{name}: {}", viol.render(&v.schema));
                        }
                    });
                    invalid.push(JsonValue::string(name));
                }
            }
            black_box(out);
            Ok(Some(&JsonValue::array(invalid)) == r.expect.get("invalid")
                && Some(data.names.len() as u64) == expect_num(r, "objects"))
        }),
        "query" => t.request("request.query", |t| {
            let (schema_path, data_path, text) = (arg(1)?, arg(2)?, arg(3)?);
            let (v, mut data) = load_pipeline(t, dir, schema_path, data_path)?;
            let ctx = TypeContext::with_virtuals(&v);
            t.span("extent.refresh_virtual", || {
                refresh_virtual_extents(&mut data.store, &v)
            });
            facts.objects_loaded += data.names.len() as u64;
            let query = t
                .span("query.compile", || parse_query(&v.schema, text))
                .map_err(|e| format!("query: {e}"))?;
            let plan = t
                .span("query.compile", || {
                    compile_query(&ctx, &query, CheckMode::Eliminate)
                })
                .map_err(|e| format!("query type error: {e:?}"))?;
            let result = t.span("query.execute", || execute(&v.schema, &data.store, &plan));
            black_box(t.span("cli.render", || {
                let mut out = String::new();
                for val in &result.values {
                    out.push_str(&val.render(&v.schema));
                    out.push('\n');
                }
                out
            }));
            facts.rows_scanned += result.stats.rows_scanned as u64;
            facts.rows_emitted += result.stats.rows_emitted as u64;
            Ok(Some(result.stats.rows_emitted as u64) == expect_num(r, "rows"))
        }),
        "load" => t.request("request.load", |t| {
            let (schema_path, data_path) = (arg(1)?, arg(2)?);
            let (ops, seed, _) = load_flags(r)?;
            let (v, mut data) = load_pipeline(t, dir, schema_path, data_path)?;
            t.span("extent.refresh_virtual", || {
                refresh_virtual_extents(&mut data.store, &v)
            });
            facts.objects_loaded += data.names.len() as u64;
            let objects = data.names.iter().map(|(_, oid)| *oid).collect();
            let target = t.span("driver.setup", || {
                LibraryTarget::new(v, data.store, objects, target_options())
            });
            let gen = OpGenerator::new(seed, MixSpec::default());
            for i in 0..ops {
                let op = gen.op_at(i);
                let name = match op.kind {
                    OpKind::Validate => "driver.validate",
                    OpKind::Query => "driver.query",
                    OpKind::Insert => "driver.insert",
                    OpKind::Evolve => "driver.evolve",
                };
                black_box(t.span(name, || target.run(&op)));
            }
            Ok(true)
        }),
        other => Err(format!("unknown request kind `{other}`")),
    }
}

/// The steps `chc validate`, `chc query` and `chc load` share: compile,
/// check, virtualize, load the data file.
fn load_pipeline(
    t: &mut Tracer,
    dir: &Path,
    schema_path: &str,
    data_path: &str,
) -> Result<(chc_core::Virtualized, chc_extent::LoadedData), String> {
    let src = read(dir, schema_path)?;
    let schema = t
        .span("sdl.compile", || compile_with_source(&src, schema_path))
        .map_err(|e| e.to_string())?;
    let data_src = read(dir, data_path)?;
    let report = t.span("core.check", || check(&schema));
    if !report.is_ok() {
        return Err(format!("{schema_path} has errors"));
    }
    let v = t
        .span("core.virtualize", || virtualize(&schema))
        .map_err(|e| e.to_string())?;
    let data = t
        .span("extent.load", || load_data(&v.schema, &data_src))
        .map_err(|e| e.to_string())?;
    Ok((v, data))
}

/// `chc check`'s stdout for a report.
fn render_check(path: &str, schema: &Schema, report: &CheckReport) -> String {
    if report.diagnostics.is_empty() {
        return format!(
            "{path}: {} classes, {} declarations — clean",
            schema.num_classes(),
            schema.num_attr_decls()
        );
    }
    format!(
        "{}\n{} error(s), {} warning(s)",
        report.render(schema),
        report.errors().count(),
        report.warnings().count()
    )
}

/// `chc load`'s target options for a data file.
fn target_options() -> TargetOptions {
    TargetOptions {
        epsilon: 0.05,
        validation: ValidationOptions {
            semantics: Semantics::Correct,
            missing: MissingPolicy::Absent,
        },
        ..TargetOptions::default()
    }
}

/// `--ops`, `--seed` and `--threads` of a load request.
fn load_flags(r: &Request) -> Result<(u64, u64, usize), String> {
    let get = |flag: &str| flag_value(&r.args, flag).ok_or(format!("load request without {flag}"));
    Ok((
        get("--ops")?.parse().map_err(|e| format!("--ops: {e}"))?,
        get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        get("--threads")?
            .parse()
            .map_err(|e| format!("--threads: {e}"))?,
    ))
}

/// Mean op latency of `run_load` in this process, at the load request's
/// thread count and with no recorder: `chc load`'s mean divided by this
/// is what the always-on flight recorder and the process add per op.
fn inprocess_load_mean_ns(dir: &Path, r: &Request) -> Result<f64, String> {
    let (ops, seed, threads) = load_flags(r)?;
    let arg = |i: usize| {
        r.args
            .get(i)
            .map(String::as_str)
            .ok_or("load: too few arguments")
    };
    let mut scratch = Tracer::new(false);
    let (v, mut data) = load_pipeline(&mut scratch, dir, arg(1)?, arg(2)?)?;
    refresh_virtual_extents(&mut data.store, &v);
    let objects = data.names.iter().map(|(_, oid)| *oid).collect();
    let target = LibraryTarget::new(v, data.store, objects, target_options());
    let summary = run_load(
        &target,
        &LoadConfig {
            id: "perfbench".to_string(),
            mix: MixSpec::default(),
            mode: Mode::Closed {
                threads,
                think: Duration::ZERO,
            },
            stop: StopRule::Ops(ops),
            seed,
            window: Duration::ZERO,
            slow_match: None,
        },
    );
    Ok(summary.overall.mean)
}

fn write_spans(dir: &Path, t: &Tracer) -> Result<(), String> {
    let file =
        std::fs::File::create(dir.join("spans.jsonl")).map_err(|e| format!("spans.jsonl: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    for (i, s) in t.spans.iter().enumerate() {
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"pass\":{},\"request\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name,
            s.pass,
            s.request,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.start_ns,
            s.end_ns
        )
        .map_err(|e| format!("spans.jsonl: {e}"))?;
    }
    out.flush().map_err(|e| format!("spans.jsonl: {e}"))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The per-layer figures, the traced duration of each request kind, and
/// the in-process load mean, as one JSON object.
fn report(
    timing: &Tracer,
    counting: &Tracer,
    counters: &BTreeMap<(String, &'static str), u64>,
    facts: &Facts,
    inproc_mean_ns: f64,
    failures: Vec<String>,
) -> Result<JsonValue, String> {
    let self_ns = timing.self_ns();
    // Within each request the self times sum to the request span, by
    // construction; this guards the construction.
    let mut by_request: BTreeMap<u32, u64> = BTreeMap::new();
    for (s, n) in timing.spans.iter().zip(&self_ns) {
        *by_request.entry(s.request).or_insert(0) += n;
    }
    for s in timing.spans.iter().filter(|s| s.parent.is_none()) {
        if by_request.get(&s.request) != Some(&(s.end_ns - s.start_ns)) {
            return Err(format!(
                "self times of request {} do not sum to its span",
                s.request
            ));
        }
    }

    let mut pass_self_s: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut durations: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (s, n) in timing.spans.iter().zip(&self_ns) {
        let per_pass = pass_self_s
            .entry(s.name)
            .or_insert_with(|| vec![0.0; TIMING_PASSES as usize]);
        per_pass[s.pass as usize] += *n as f64 / 1e9;
        durations
            .entry(s.name)
            .or_default()
            .push((s.end_ns - s.start_ns) as f64 / 1e9);
    }
    let self_s: BTreeMap<&str, f64> = pass_self_s
        .into_iter()
        .map(|(name, v)| (name, median(v)))
        .collect();
    let count = |kind: &str, name: &str| -> f64 {
        counters
            .iter()
            .filter(|((k, n), _)| k == kind && *n == name)
            .map(|(_, v)| *v as f64)
            .sum()
    };
    let bytes = |name: &str| counting.bytes.get(name).copied().unwrap_or_default();
    let layer = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let mean_us = |name: &str| {
        let d = durations.get(name).cloned().unwrap_or_default();
        ratio(d.iter().sum::<f64>() * 1e6, d.len() as f64)
    };

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    for name in [
        "sdl.compile",
        "core.check",
        "core.evolve.diff",
        "core.evolve.incremental",
        "lint.run",
        "cli.render",
        "core.virtualize",
        "extent.load",
        "extent.refresh_virtual",
        "extent.validate",
        "query.compile",
        "query.execute",
    ] {
        metrics.push((format!("{name}.self_s"), layer(name), "s"));
    }
    for name in ["sdl.compile", "core.check", "extent.load"] {
        metrics.push((format!("{name}.alloc_bytes"), bytes(name).0 as f64, "bytes"));
    }
    for name in ["sdl.compile", "extent.load"] {
        metrics.push((format!("{name}.peak_bytes"), bytes(name).1 as f64, "bytes"));
    }
    let validate_checks = count("validate", chc_obs::names::VALIDATE_CHECKS);
    let executed = count("query", chc_obs::names::QUERY_CHECKS_EXECUTED);
    let eliminated = count("query", chc_obs::names::QUERY_CHECKS_ELIMINATED);
    metrics.extend([
        (
            "core.check.joint_sat_calls".to_string(),
            count("check", chc_obs::names::CHECK_JOINT_SAT_CALLS),
            "count",
        ),
        (
            "types.subtype.dup_ratio".to_string(),
            ratio(
                count("check", chc_obs::names::SUBTYPE_QUERIES),
                count("check", chc_obs::names::SUBTYPE_QUERIES_DISTINCT),
            ),
            "ratio",
        ),
        (
            "core.evolve.cone_ratio".to_string(),
            ratio(facts.cone_classes as f64, facts.cone_total as f64),
            "ratio",
        ),
        (
            "lint.findings".to_string(),
            facts.lint_findings as f64,
            "count",
        ),
        (
            "lint.sat_calls".to_string(),
            count("lint", chc_obs::names::SAT_CALLS),
            "count",
        ),
        (
            "extent.load.objects_per_s".to_string(),
            ratio(facts.objects_loaded as f64, layer("extent.load")),
            "1/s",
        ),
        (
            "extent.validate.checks".to_string(),
            validate_checks,
            "count",
        ),
        (
            "extent.validate.admitted_ratio".to_string(),
            ratio(
                count("validate", chc_obs::names::VALIDATE_ADMITTED),
                validate_checks,
            ),
            "ratio",
        ),
        (
            "query.check_elimination_ratio".to_string(),
            ratio(eliminated, eliminated + executed),
            "ratio",
        ),
        (
            "query.rows_scanned_per_emitted".to_string(),
            ratio(facts.rows_scanned as f64, facts.rows_emitted as f64),
            "ratio",
        ),
        (
            "driver.virtual_refreshes".to_string(),
            count("load", chc_obs::names::LOAD_VIRTUAL_REFRESHES),
            "count",
        ),
    ]);
    for kind in ["validate", "query", "insert", "evolve"] {
        metrics.push((
            format!("driver.{kind}.mean_us"),
            mean_us(&format!("driver.{kind}")),
            "us",
        ));
    }

    let request_s = JsonValue::object(
        durations
            .iter()
            .filter_map(|(name, d)| {
                Some((
                    name.strip_prefix("request.")?,
                    JsonValue::number(median(d.clone())),
                ))
            })
            .collect::<Vec<_>>(),
    );
    Ok(JsonValue::object([
        (
            "metrics",
            JsonValue::object(metrics.iter().map(|(name, value, unit)| {
                (
                    name.as_str(),
                    JsonValue::object([
                        ("value", JsonValue::number(*value)),
                        ("unit", JsonValue::string(unit)),
                    ]),
                )
            })),
        ),
        ("request_s", request_s),
        ("inprocess_load_mean_ns", JsonValue::number(inproc_mean_ns)),
        (
            "failures",
            JsonValue::array(failures.iter().map(|f| JsonValue::string(f))),
        ),
    ]))
}
