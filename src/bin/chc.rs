//! `chc` — a command-line front end for schemas with contradictions.
//!
//! ```text
//! chc [--trace] [--stats] [--trace-out <f.json>] [--flame-out <f.folded>]
//!     [--stats-out <f.json>] [--audit-out <f.jsonl>] [--profile-out <f.json>]
//!     [--crash-out <f.json>] [--watchdog <dur>]
//!     <command> ...
//!
//! chc check <schema.sdl> [--explain] [--incremental --since <old.sdl>]
//!                                        type-check a schema (exit 1 on errors);
//!                                        --explain prints an admissibility
//!                                        derivation for each diagnosed site;
//!                                        --incremental re-checks only the
//!                                        impact cone of the edits since the
//!                                        old schema, carrying the rest of
//!                                        the verdict over (same output)
//! chc lint <schema.sdl> [--format text|json] [--query <file.chq|"query">]
//!          [--allow <code>] [--warn <code>] [--deny <code>] [--deny warnings]
//!                                        run the static-analysis lints (docs/LINTS.md);
//!                                        --query adds the Q001–Q005 query
//!                                        safety analysis over a `.chq` batch
//!                                        or an ad-hoc query string
//! chc diff <old.sdl> <new.sdl> [--format text|json]
//!          [--allow <code>] [--warn <code>] [--deny <code>] [--deny warnings]
//!                                        semantically diff two schemas:
//!                                        classify every edit as additive,
//!                                        refining, or breaking; compute its
//!                                        impact cone over the is-a DAG; and
//!                                        run the D001–D005 evolution lints
//!                                        (exit 1 on denied findings)
//! chc print <schema.sdl>                 canonical pretty-printed form
//! chc virtualize <schema.sdl>            show the §5.6 virtual classes
//!                                        (exit 1 if the virtualized schema has errors)
//! chc explain <schema.sdl> <Class> [<attr>]
//!                                        effective conditional types (§5.4)
//! chc analyze <schema.sdl> "<query>"     deprecated alias for
//!                                        `chc lint <schema.sdl> --query "<query>"`
//! chc query <schema.sdl> <data.chd> "<query>"
//!                                        compile and run a query; rows on
//!                                        stdout, accounting on stderr
//! chc validate <schema.sdl> <data.chd> [--audit-summary]
//!                                        load instance data and validate it;
//!                                        --audit-summary prints admissions
//!                                        grouped by excuse (E11)
//! chc load <schema.sdl> [data.chd] [--mix validate=70,query=20,insert=9,evolve=1]
//!          [--threads N] [--duration 5s | --ops N] [--mode closed|open]
//!          [--rate R] [--think D] [--seed N] [--epsilon F] [--populate N]
//!          [--window D] [--report out.html] [--id NAME] [--hier classes=N,...]
//!                                        run a mixed load against the schema:
//!                                        latency percentiles per op type on
//!                                        stderr, `chc-load/1` JSON lines
//!                                        appended to $CHC_BENCH_JSON, and a
//!                                        self-contained HTML report via
//!                                        --report (docs/OBSERVABILITY.md)
//! chc profile <check|validate|query> <schema.sdl | --hier classes=N,...>
//!             [data.chd] ["query"] [--top N] [--label-cap K] [--interval 250us]
//!             [--mem]
//!                                        run the workload under cost
//!                                        attribution and the span-stack
//!                                        sampler: per-class hot-spot table
//!                                        and duplicate-work ratios on
//!                                        stderr, one summary line on
//!                                        stdout, `chc-profile/1` JSON via
//!                                        --profile-out, *sampled* folded
//!                                        stacks via --flame-out; --mem adds
//!                                        per-class bytes-allocated and
//!                                        peak-live columns from the
//!                                        tracking allocator
//! chc doctor <crash.json>                render a `chc-crash/1` report
//!                                        (written by --crash-out /
//!                                        $CHC_CRASH_DIR on panic or stall)
//!                                        human-readably on stdout
//! ```
//!
//! Global flags may appear anywhere, before or after the subcommand.
//! `--trace` prints a span tree (what ran, how long) and `--stats` the
//! counter table (subtype queries, classes checked, …) on **stderr**
//! after the command completes, so stdout stays machine-parseable
//! (`chc lint --format json --stats | jq` works); both aggregate through
//! a [`chc_obs::StatsRecorder`], and `--stats-out <file>` writes the
//! same snapshot as line-delimited JSON. `--trace-out <file>` writes the
//! event-level timeline as Chrome trace-event JSON (open it in
//! <https://ui.perfetto.dev> or `chrome://tracing`) and `--flame-out
//! <file>` writes folded stacks for flamegraph tools; both capture
//! through a [`chc_obs::TraceRecorder`]. `--audit-out <file>` writes the
//! structured audit ledger (one JSON line per executed run-time check,
//! naming the admitting excuse for every tolerated deviation) through a
//! bounded [`chc_obs::AuditRecorder`]. `--profile-out <file>` writes the
//! labeled cost-attribution snapshot (per-class counters and nanosecond
//! histograms, distinct-key counters) through a
//! [`chc_obs::ProfileRecorder`]; under `chc profile` the same file gets
//! the enriched `chc-profile/1` document with resolved class names and
//! sampled stacks. All sinks compose freely, and all
//! reporting and flushing happens even when the command fails — a
//! failing `check` is exactly the run whose trace you want.
//!
//! Two layers are always on, independent of flags: the
//! [`chc_obs::memalloc`] tracking allocator (every run knows its
//! alloc/free/peak totals, surfaced as `mem.*` counters in the stats
//! snapshot) and a [`chc_obs::FlightRecorder`] black box (a bounded
//! ring of recent span transitions and counter deltas). A panic — or a
//! stall, when `--watchdog <dur>` is armed — dumps a round-trip-checked
//! `chc-crash/1` report to `--crash-out` (or `$CHC_CRASH_DIR`) with the
//! flight tail, per-thread open-span stacks, counter and memory
//! snapshots, and the registered schema digest; the same panic hook
//! also flushes every `--*-out` sink, so a run that dies mid-command
//! still leaves its evidence on disk. `chc doctor` renders the report.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use excuses::core::{
    check, explain_admissibility, virtualize, MissingPolicy, Semantics, ValidationOptions,
};
use excuses::extent::{load_data, refresh_virtual_extents, validate_stored};
use excuses::lint::{LintCode, LintConfig, LintLevel};
use excuses::query::{
    compile as compile_query, execute, parse_query, parse_query_file, CheckMode,
};
use excuses::sdl::{compile_with_source, print_schema};
use excuses::types::{cond_of, render_cond, render_tyset, EntityFacts, TypeContext};
use excuses::workloads::{parse_duration, HierarchyParams, MixSpec, StopRule};

/// Every run is accounted by the tracking allocator: the fast path is a
/// few relaxed atomics (pinned by a smoke test in `chc_obs::memalloc`),
/// and in exchange `mem.*` counters, `chc profile --mem`, and crash
/// reports all know where the bytes went.
#[global_allocator]
static ALLOC: chc_obs::memalloc::TrackingAllocator = chc_obs::memalloc::TrackingAllocator;

/// Global observability flags, accepted anywhere on the command line.
#[derive(Default)]
struct Flags {
    trace: bool,
    stats: bool,
    trace_out: Option<String>,
    flame_out: Option<String>,
    stats_out: Option<String>,
    audit_out: Option<String>,
    profile_out: Option<String>,
    crash_out: Option<String>,
    watchdog: Option<std::time::Duration>,
    audit_summary: bool,
    explain: bool,
}

/// The flag-selected recorders and their `--*-out` destinations,
/// shareable with the panic hook: both the normal exit path and a
/// mid-run panic must flush the same files, whichever comes first.
struct Sinks {
    stats: Option<Arc<chc_obs::StatsRecorder>>,
    trace: Option<Arc<chc_obs::TraceRecorder>>,
    audit: Option<Arc<chc_obs::AuditRecorder>>,
    profile: Option<Arc<chc_obs::ProfileRecorder>>,
    stats_out: Option<String>,
    trace_out: Option<String>,
    flame_out: Option<String>,
    audit_out: Option<String>,
    profile_out: Option<String>,
    /// Under `chc profile` the enriched document is written by
    /// `run_profile_cmd`; the bare form is only flushed here when a
    /// panic kept that from happening.
    is_profile: bool,
    mem_done: AtomicBool,
    flushed: AtomicBool,
}

impl Sinks {
    /// Mirrors the tracking allocator's totals into the installed
    /// recorders as `mem.*` counters, once, while the global recorder
    /// is still up (call before [`chc_obs::clear_global`]).
    fn record_mem_counters(&self) {
        if self.mem_done.swap(true, Ordering::SeqCst) || !chc_obs::memalloc::installed() {
            return;
        }
        let m = chc_obs::memalloc::snapshot();
        chc_obs::counter(chc_obs::names::MEM_ALLOCS, m.allocs);
        chc_obs::counter(chc_obs::names::MEM_FREES, m.frees);
        chc_obs::counter(chc_obs::names::MEM_BYTES_TOTAL, m.bytes_total);
        chc_obs::counter(chc_obs::names::MEM_BYTES_LIVE, m.bytes_live);
        chc_obs::counter(chc_obs::names::MEM_BYTES_PEAK, m.bytes_peak);
    }

    /// Writes every configured `--*-out` file, once; later calls are
    /// no-ops, so the panic hook and the normal exit path can race
    /// safely. Returns the write errors.
    fn flush_files(&self, on_panic: bool) -> Vec<String> {
        if self.flushed.swap(true, Ordering::SeqCst) {
            return Vec::new();
        }
        let mut errs = Vec::new();
        let mut write = |path: &Option<String>, body: String| {
            if let Some(path) = path {
                if let Err(e) = std::fs::write(path, body) {
                    errs.push(format!("{path}: {e}"));
                }
            }
        };
        if let Some(r) = &self.stats {
            write(&self.stats_out, r.to_json_lines());
        }
        if let Some(r) = &self.trace {
            write(&self.trace_out, r.to_chrome_trace());
            write(&self.flame_out, r.to_folded_stacks());
        }
        if let Some(r) = &self.audit {
            write(&self.audit_out, r.to_json_lines());
        }
        if !self.is_profile || on_panic {
            if let Some(r) = &self.profile {
                write(&self.profile_out, r.to_json().render() + "\n");
            }
        }
        errs
    }
}

/// FNV-1a, for the schema digest embedded in crash reports.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Registers the compiled schema in the crash-report context, so a
/// post-mortem names the exact input that was being processed.
fn register_schema_context(path: &str, src: &str) {
    chc_obs::flight::set_context("schema_file", path);
    chc_obs::flight::set_context("schema_digest", &format!("{:016x}", fnv1a64(src.as_bytes())));
}

/// Best-effort extraction of a panic payload for the crash report.
fn panic_message(info: &std::panic::PanicHookInfo<'_>) -> String {
    let payload = if let Some(s) = info.payload().downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = info.payload().downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    match info.location() {
        Some(loc) => format!("{payload} (at {loc})"),
        None => payload,
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    chc_obs::flight::set_context("bin", concat!("chc ", env!("CARGO_PKG_VERSION")));
    chc_obs::flight::set_context("argv", &raw.join(" "));
    let (args, flags) = match take_flags(raw) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    // `profile` owns attribution and sampling: it parses its options up
    // front (the recorders need the cap and interval before install) and
    // takes over `--flame-out`, writing *sampled* folded stacks instead
    // of the tracer's event-derived ones.
    let profile_args = if args.first().is_some_and(|a| a == "profile") {
        match parse_profile_args(&args[1..]) {
            Ok(pa) => Some(pa),
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };
    let is_profile = profile_args.is_some();
    let stats_rec = (flags.trace || flags.stats || flags.stats_out.is_some())
        .then(|| Arc::new(chc_obs::StatsRecorder::new()));
    let trace_rec = (flags.trace_out.is_some() || (flags.flame_out.is_some() && !is_profile))
        .then(|| Arc::new(chc_obs::TraceRecorder::new()));
    let audit_rec = (flags.audit_out.is_some() || flags.audit_summary)
        .then(|| Arc::new(chc_obs::AuditRecorder::new()));
    let profile_rec = (flags.profile_out.is_some() || is_profile).then(|| {
        let cap = profile_args
            .as_ref()
            .map(|pa| pa.label_cap)
            .unwrap_or(chc_obs::profile::DEFAULT_LABEL_CAP);
        Arc::new(chc_obs::ProfileRecorder::with_cap(cap))
    });
    let sampler = profile_args
        .as_ref()
        .map(|pa| Arc::new(chc_obs::SpanSampler::start(pa.interval)));
    // The black box is always on — the point of a flight recorder is
    // that it was running *before* anything went wrong — so every chc
    // run installs a recorder even with no flags at all.
    let flight = Arc::new(chc_obs::FlightRecorder::new());
    let mut sinks: Vec<Arc<dyn chc_obs::Recorder>> = vec![flight.clone()];
    if let Some(r) = &stats_rec {
        sinks.push(r.clone());
    }
    if let Some(r) = &trace_rec {
        sinks.push(r.clone());
    }
    if let Some(r) = &audit_rec {
        sinks.push(r.clone());
    }
    if let Some(r) = &profile_rec {
        sinks.push(r.clone());
    }
    if let Some(r) = &sampler {
        sinks.push(r.clone());
    }
    let recorder: Arc<dyn chc_obs::Recorder> = if sinks.len() == 1 {
        sinks.pop().expect("one sink")
    } else {
        Arc::new(chc_obs::FanoutRecorder::new(sinks))
    };
    chc_obs::set_global(recorder);

    let sinks = Arc::new(Sinks {
        stats: stats_rec.clone(),
        trace: trace_rec.clone(),
        audit: audit_rec.clone(),
        profile: profile_rec.clone(),
        stats_out: flags.stats_out.clone(),
        trace_out: flags.trace_out.clone(),
        flame_out: flags.flame_out.clone(),
        audit_out: flags.audit_out.clone(),
        profile_out: flags.profile_out.clone(),
        is_profile,
        mem_done: AtomicBool::new(false),
        flushed: AtomicBool::new(false),
    });

    // Crash destination: --crash-out wins, else $CHC_CRASH_DIR gets a
    // pid-stamped file. With neither, panics still flush the sinks but
    // no chc-crash/1 report is written.
    let crash_path: Option<PathBuf> = flags
        .crash_out
        .as_ref()
        .map(PathBuf::from)
        .or_else(|| {
            std::env::var("CHC_CRASH_DIR")
                .ok()
                .filter(|d| !d.is_empty())
                .map(|d| {
                    std::path::Path::new(&d)
                        .join(format!("chc-crash-{}.json", std::process::id()))
                })
        });
    let crash_writer = Arc::new(chc_obs::CrashWriter::new(flight.clone(), crash_path));
    {
        let hook_sinks = sinks.clone();
        let hook_crash = crash_writer.clone();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            // The global recorder is still installed mid-panic, so the
            // mem.* counters land in the flushed snapshots too.
            hook_sinks.record_mem_counters();
            match hook_crash.dump("panic", &panic_message(info)) {
                Some(Ok(path)) => eprintln!("chc: crash report written to {}", path.display()),
                Some(Err(e)) => eprintln!("chc: failed to write crash report: {e}"),
                None => {}
            }
            for err in hook_sinks.flush_files(true) {
                eprintln!("chc: flush during panic: {err}");
            }
        }));
    }
    let mut watchdog = match flags.watchdog {
        Some(timeout) => {
            if crash_writer.path().is_none() {
                eprintln!("error: --watchdog needs --crash-out or $CHC_CRASH_DIR");
                return ExitCode::from(2);
            }
            Some(chc_obs::Watchdog::start(crash_writer.clone(), timeout))
        }
        None => None,
    };

    let outcome = match &profile_args {
        Some(pa) => run_profile_cmd(
            pa,
            &flags,
            profile_rec.as_ref().expect("profile recorder installed"),
            sampler.as_ref().expect("sampler installed"),
        ),
        None => run(&args, &flags),
    };
    if let Some(dog) = &mut watchdog {
        dog.stop();
    }
    // Report and flush unconditionally: a failing command is exactly the
    // run whose trace and counters matter most. Human-readable reports go
    // to stderr so stdout stays machine-parseable under `--format json`.
    sinks.record_mem_counters();
    chc_obs::clear_global();
    if let Some(r) = &stats_rec {
        if flags.trace {
            eprint!("{}", r.render_tree());
        }
        if flags.stats {
            eprint!("{}", r.render_counters());
        }
    }
    if let Some(r) = &audit_rec {
        if flags.audit_summary {
            print!("{}", render_audit_summary(r));
        }
    }
    let flush_err = sinks.flush_files(false).into_iter().next();
    let code = match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    };
    match flush_err {
        Some(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
        None => code,
    }
}

/// Extracts the global flags from `args`, wherever they appear relative
/// to the subcommand; `--trace-out f.json` and `--trace-out=f.json` are
/// both accepted. Returns the remaining positional arguments.
fn take_flags(args: Vec<String>) -> Result<(Vec<String>, Flags), String> {
    let mut flags = Flags::default();
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value_of = |name: &str, inline: Option<&str>| -> Result<String, String> {
            match inline {
                Some(v) if !v.is_empty() => Ok(v.to_string()),
                Some(_) => Err(format!("{name} needs a value")),
                None => it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{name} needs a value")),
            }
        };
        match arg.as_str() {
            "--trace" => flags.trace = true,
            "--stats" => flags.stats = true,
            "--audit-summary" => flags.audit_summary = true,
            "--explain" => flags.explain = true,
            "--trace-out" => flags.trace_out = Some(value_of("--trace-out", None)?),
            "--flame-out" => flags.flame_out = Some(value_of("--flame-out", None)?),
            "--stats-out" => flags.stats_out = Some(value_of("--stats-out", None)?),
            "--audit-out" => flags.audit_out = Some(value_of("--audit-out", None)?),
            "--profile-out" => flags.profile_out = Some(value_of("--profile-out", None)?),
            "--crash-out" => flags.crash_out = Some(value_of("--crash-out", None)?),
            "--watchdog" => {
                flags.watchdog = Some(parse_duration(&value_of("--watchdog", None)?)?)
            }
            other => {
                if let Some(v) = other.strip_prefix("--trace-out=") {
                    flags.trace_out = Some(value_of("--trace-out", Some(v))?);
                } else if let Some(v) = other.strip_prefix("--flame-out=") {
                    flags.flame_out = Some(value_of("--flame-out", Some(v))?);
                } else if let Some(v) = other.strip_prefix("--stats-out=") {
                    flags.stats_out = Some(value_of("--stats-out", Some(v))?);
                } else if let Some(v) = other.strip_prefix("--audit-out=") {
                    flags.audit_out = Some(value_of("--audit-out", Some(v))?);
                } else if let Some(v) = other.strip_prefix("--profile-out=") {
                    flags.profile_out = Some(value_of("--profile-out", Some(v))?);
                } else if let Some(v) = other.strip_prefix("--crash-out=") {
                    flags.crash_out = Some(value_of("--crash-out", Some(v))?);
                } else if let Some(v) = other.strip_prefix("--watchdog=") {
                    flags.watchdog = Some(parse_duration(&value_of("--watchdog", Some(v))?)?);
                } else {
                    rest.push(arg);
                }
            }
        }
    }
    Ok((rest, flags))
}

/// Renders the `--audit-summary` table from the ledger: §6 asks for
/// "statistics about exceptional cases", so admissions are grouped by
/// the excuse that admitted them.
fn render_audit_summary(rec: &chc_obs::AuditRecorder) -> String {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;
    let mut checks = 0u64;
    let mut passed = 0u64;
    let mut violations = 0u64;
    let mut admitted: BTreeMap<(String, String, String, String), u64> = BTreeMap::new();
    for ev in rec.events() {
        if ev.name != chc_obs::names::EVENT_VALIDATE_CHECK {
            continue;
        }
        checks += 1;
        let get = |k: &str| {
            ev.get(k)
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_string()
        };
        match ev.get("verdict").and_then(|v| v.as_str()) {
            Some("pass") => passed += 1,
            Some("excused") => {
                *admitted
                    .entry((
                        get("excuser"),
                        get("excuse_attr"),
                        get("class"),
                        get("attr"),
                    ))
                    .or_insert(0) += 1;
            }
            _ => violations += 1,
        }
    }
    let admitted_total: u64 = admitted.values().sum();
    let mut out = format!(
        "audit: {checks} check(s) executed — {passed} passed, \
         {admitted_total} admitted by excuse, {violations} violation(s)\n"
    );
    for ((excuser, excuse_attr, class, attr), n) in &admitted {
        let _ = writeln!(
            out,
            "  `{excuser}.{excuse_attr}` excusing `{class}.{attr}`: {n}"
        );
    }
    if rec.dropped() > 0 {
        let _ = writeln!(
            out,
            "  (ring full: {} older record(s) evicted; totals reflect retained events only)",
            rec.dropped()
        );
    }
    out
}

/// Levenshtein distance between two short strings — the budget for the
/// "did you mean" suggestion when a `--allow/--warn/--deny` value names
/// no known lint.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// Resolves a lint code or name (`L002`, `dead-excuse`, `D001`, …); an
/// unknown value is an error, with the closest known code or name
/// suggested when it is plausibly a typo.
fn parse_lint_code_arg(value: &str) -> Result<LintCode, String> {
    if let Some(code) = LintCode::parse(value) {
        return Ok(code);
    }
    let lower = value.to_ascii_lowercase();
    let best = LintCode::ALL
        .iter()
        .flat_map(|c| [c.code(), c.name()])
        .map(|cand| (edit_distance(&lower, &cand.to_ascii_lowercase()), cand))
        .min();
    match best {
        Some((d, suggestion)) if d <= 3 => Err(format!(
            "unknown lint `{value}` (did you mean `{suggestion}`? see docs/LINTS.md)"
        )),
        _ => Err(format!("unknown lint `{value}` (see docs/LINTS.md)")),
    }
}

/// Applies one `--allow/--warn/--deny <code|name>` flag (shared by
/// `chc lint` and `chc diff`); `--deny warnings` escalates every warning.
fn apply_level_flag(
    config: &mut LintConfig,
    flag: &str,
    value: Option<&String>,
) -> Result<(), String> {
    let value = value.ok_or_else(|| format!("{flag} needs a lint code (e.g. L002)"))?;
    let level = match flag {
        "--allow" => LintLevel::Allow,
        "--warn" => LintLevel::Warn,
        _ => LintLevel::Deny,
    };
    if flag == "--deny" && value == "warnings" {
        config.deny_warnings = true;
        return Ok(());
    }
    config.set(parse_lint_code_arg(value)?, level);
    Ok(())
}

/// `chc lint`'s own arguments, parsed by [`parse_lint_args`].
struct LintArgs {
    config: LintConfig,
    json: bool,
    query: Option<String>,
    schema: Option<String>,
}

/// Parses `chc lint`'s own arguments: `--format text|json`, repeated
/// `--allow/--warn/--deny <code|name>` (last one wins per lint), `--deny
/// warnings`, and `--query <file.chq|"query">`. The schema path is the
/// sole positional argument and may appear anywhere among the flags.
fn parse_lint_args(args: &[String]) -> Result<LintArgs, String> {
    let mut config = LintConfig::new();
    let mut json = false;
    let mut query = None;
    let mut schema = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("text") => json = false,
                other => {
                    return Err(format!(
                        "--format needs `text` or `json`, got `{}`",
                        other.unwrap_or("nothing")
                    ))
                }
            },
            flag @ ("--allow" | "--warn" | "--deny") => {
                apply_level_flag(&mut config, flag, it.next())?
            }
            "--query" => {
                query = Some(
                    it.next()
                        .ok_or("--query needs a .chq file or a query string")?
                        .clone(),
                );
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown lint option `{other}`"))
            }
            other => {
                if schema.replace(other.to_string()).is_some() {
                    return Err(format!("unexpected lint argument `{other}`"));
                }
            }
        }
    }
    Ok(LintArgs {
        config,
        json,
        query,
        schema,
    })
}

/// `chc check`'s own arguments, parsed by [`parse_check_args`].
struct CheckArgs {
    schema: Option<String>,
    since: Option<String>,
}

/// Parses `chc check`'s own arguments: the schema path (anywhere among
/// the flags) plus `--incremental --since <old.sdl>`, which must appear
/// together — `--since` names the baseline, `--incremental` opts into
/// cone-scoped re-checking.
fn parse_check_args(args: &[String]) -> Result<CheckArgs, String> {
    let mut schema = None;
    let mut since = None;
    let mut incremental = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--incremental" => incremental = true,
            "--since" => {
                since = Some(
                    it.next()
                        .ok_or("--since needs the old schema (.sdl) to diff against")?
                        .clone(),
                );
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown check option `{other}`"))
            }
            other => {
                if schema.replace(other.to_string()).is_some() {
                    return Err(format!("unexpected check argument `{other}`"));
                }
            }
        }
    }
    if incremental != since.is_some() {
        return Err("--incremental and --since <old.sdl> go together".to_string());
    }
    Ok(CheckArgs { schema, since })
}

/// `chc diff`'s own arguments, parsed by [`parse_diff_args`].
struct DiffArgs {
    config: LintConfig,
    json: bool,
    old: String,
    new: String,
}

/// Parses `chc diff`'s own arguments: two positional schema paths (old
/// then new), `--format text|json`, and the same severity flags as
/// `chc lint`.
fn parse_diff_args(args: &[String]) -> Result<DiffArgs, String> {
    let mut config = LintConfig::new();
    let mut json = false;
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("text") => json = false,
                other => {
                    return Err(format!(
                        "--format needs `text` or `json`, got `{}`",
                        other.unwrap_or("nothing")
                    ))
                }
            },
            flag @ ("--allow" | "--warn" | "--deny") => {
                apply_level_flag(&mut config, flag, it.next())?
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown diff option `{other}`"))
            }
            other => paths.push(other.to_string()),
        }
    }
    let mut paths = paths.into_iter();
    match (paths.next(), paths.next(), paths.next()) {
        (Some(old), Some(new), None) => Ok(DiffArgs { config, json, old, new }),
        _ => Err("diff needs exactly two schemas: chc diff <old.sdl> <new.sdl>".to_string()),
    }
}

/// The `chc-diff/1` JSON envelope: the classified edit list, the dirty
/// set (class names, in the new schema), edit counts by kind, and the
/// D-family lint report nested under `"lints"` as its own `chc-lint/1`
/// envelope.
fn diff_to_json(
    outcome: &excuses::lint::DiffReport,
    old_path: &str,
    new_path: &str,
    new_schema: &excuses::model::Schema,
) -> chc_obs::json::JsonValue {
    use chc_obs::json::JsonValue;
    use excuses::core::EditKind;
    let edits = outcome.diff.edits.iter().map(|e| {
        let mut fields: Vec<(&str, JsonValue)> = vec![
            ("kind", JsonValue::string(e.kind.label())),
            ("class", JsonValue::string(&e.class)),
            ("edit", JsonValue::string(&e.describe())),
        ];
        if let Some(attr) = &e.attr {
            fields.push(("attr", JsonValue::string(attr)));
        }
        // Locate the edit where it is visible: in the new file when the
        // declaration survives, in the old file when it was retired.
        if let Some(span) = e.new_span {
            fields.push(("line", JsonValue::number(span.line as f64)));
            fields.push(("col", JsonValue::number(span.col as f64)));
        } else if let Some(span) = e.old_span {
            fields.push(("old_line", JsonValue::number(span.line as f64)));
            fields.push(("old_col", JsonValue::number(span.col as f64)));
        }
        JsonValue::object(fields)
    });
    let names = |ids: &std::collections::BTreeSet<excuses::model::ClassId>| {
        JsonValue::array(ids.iter().map(|&c| JsonValue::string(new_schema.class_name(c))))
    };
    JsonValue::object([
        ("schema", JsonValue::string("chc-diff/1")),
        ("tool", JsonValue::string("chc-diff")),
        ("old", JsonValue::string(old_path)),
        ("new", JsonValue::string(new_path)),
        ("edits", JsonValue::array(edits)),
        (
            "dirty",
            JsonValue::object([
                ("classes", names(&outcome.dirty.classes)),
                ("extents", names(&outcome.dirty.extents)),
            ]),
        ),
        (
            "counts",
            JsonValue::object([
                ("edits", JsonValue::number(outcome.diff.edits.len() as f64)),
                ("additive", JsonValue::number(outcome.diff.count(EditKind::Additive) as f64)),
                ("refining", JsonValue::number(outcome.diff.count(EditKind::Refining) as f64)),
                ("breaking", JsonValue::number(outcome.diff.count(EditKind::Breaking) as f64)),
            ]),
        ),
        ("lints", outcome.report.to_json(new_schema)),
    ])
}

/// `chc diff <old.sdl> <new.sdl>`: compile both schemas, diff them
/// semantically, and run the D-family evolution lints over the edit
/// list. Text findings render rustc-style into whichever file anchors
/// them (retired declarations quote the old file); `--format json`
/// emits the `chc-diff/1` envelope. Exit 1 when a denied finding fired.
fn run_diff_cmd(args: &[String]) -> Result<ExitCode, String> {
    let da = parse_diff_args(args)?;
    let (old_path, new_path) = (da.old.as_str(), da.new.as_str());
    let old_src = std::fs::read_to_string(old_path).map_err(|e| format!("{old_path}: {e}"))?;
    let new_src = std::fs::read_to_string(new_path).map_err(|e| format!("{new_path}: {e}"))?;
    register_schema_context(new_path, &new_src);
    let (old_schema, new_schema) = {
        let _span = chc_obs::span(chc_obs::names::SPAN_CLI_COMPILE);
        (
            compile_with_source(&old_src, old_path).map_err(|e| format!("{old_path}: {e}"))?,
            compile_with_source(&new_src, new_path).map_err(|e| format!("{new_path}: {e}"))?,
        )
    };
    let outcome =
        excuses::lint::run_diff(&old_schema, &new_schema, Some(old_path), &da.config);
    if da.json {
        println!("{}", diff_to_json(&outcome, old_path, new_path, &new_schema).render());
    } else {
        if !outcome.report.findings.is_empty() {
            println!(
                "{}",
                excuses::lint::render_report_sources(
                    &outcome.report,
                    &new_schema,
                    Some(&new_src),
                    Some(&old_src),
                )
            );
        }
        use excuses::core::EditKind;
        println!(
            "{old_path} -> {new_path}: {} edit(s) ({} additive, {} refining, {} breaking); \
             dirty: {} class(es) to re-check, {} extent(s) to re-validate",
            outcome.diff.edits.len(),
            outcome.diff.count(EditKind::Additive),
            outcome.diff.count(EditKind::Refining),
            outcome.diff.count(EditKind::Breaking),
            outcome.dirty.classes.len(),
            outcome.dirty.extents.len(),
        );
    }
    Ok(if outcome.report.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `chc load`'s own arguments, parsed by [`parse_load_args`].
struct LoadArgs {
    schema: Option<String>,
    data: Option<String>,
    mix: MixSpec,
    threads: usize,
    stop: Option<StopRule>,
    open: bool,
    rate: f64,
    think: std::time::Duration,
    seed: u64,
    epsilon: f64,
    populate: usize,
    window: std::time::Duration,
    report: Option<String>,
    id: Option<String>,
    hier: Option<HierarchyParams>,
}

/// Parses `--hier classes=60,supers=2,attrs=8,tokens=8,redefine=0.4,contradict=0.3,seed=7`;
/// omitted keys keep the [`HierarchyParams`] defaults.
fn parse_hier_spec(spec: &str) -> Result<HierarchyParams, String> {
    let mut p = HierarchyParams::default();
    for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("--hier entry `{part}` is not `key=value`"))?;
        let value = value.trim();
        let int = || value.parse::<usize>().map_err(|e| format!("--hier {key}={value}: {e}"));
        let float = || value.parse::<f64>().map_err(|e| format!("--hier {key}={value}: {e}"));
        match key.trim() {
            "classes" => p.classes = int()?,
            "supers" => p.max_supers = int()?,
            "attrs" => p.attrs = int()?,
            "tokens" => p.tokens = int()?,
            "redefine" => p.redefine_rate = float()?,
            "contradict" => p.contradiction_rate = float()?,
            "seed" => p.seed = value.parse().map_err(|e| format!("--hier seed={value}: {e}"))?,
            other => {
                return Err(format!(
                    "unknown --hier key `{other}` (classes|supers|attrs|tokens|redefine|contradict|seed)"
                ))
            }
        }
    }
    Ok(p)
}

fn parse_load_args(args: &[String]) -> Result<LoadArgs, String> {
    let mut la = LoadArgs {
        schema: None,
        data: None,
        mix: MixSpec::default(),
        threads: 1,
        stop: None,
        open: false,
        rate: 1_000.0,
        think: std::time::Duration::ZERO,
        seed: 0xC_10AD,
        epsilon: 0.05,
        populate: 20,
        window: std::time::Duration::ZERO,
        report: None,
        id: None,
        hier: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--mix" => la.mix = MixSpec::parse(value_of("--mix")?)?,
            "--threads" => {
                la.threads = value_of("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--duration" => {
                la.stop = Some(StopRule::Duration(parse_duration(value_of("--duration")?)?))
            }
            "--ops" => {
                la.stop = Some(StopRule::Ops(
                    value_of("--ops")?.parse().map_err(|e| format!("--ops: {e}"))?,
                ))
            }
            "--mode" => match value_of("--mode")?.as_str() {
                "closed" => la.open = false,
                "open" => la.open = true,
                other => return Err(format!("--mode needs `closed` or `open`, got `{other}`")),
            },
            "--rate" => {
                la.rate = value_of("--rate")?.parse().map_err(|e| format!("--rate: {e}"))?;
                la.open = true;
            }
            "--think" => la.think = parse_duration(value_of("--think")?)?,
            "--seed" => {
                la.seed = value_of("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--epsilon" => {
                la.epsilon = value_of("--epsilon")?
                    .parse()
                    .map_err(|e| format!("--epsilon: {e}"))?;
                if !(0.0..=1.0).contains(&la.epsilon) {
                    return Err(format!("--epsilon must be in [0, 1], got {}", la.epsilon));
                }
            }
            "--populate" => {
                la.populate = value_of("--populate")?
                    .parse()
                    .map_err(|e| format!("--populate: {e}"))?
            }
            "--window" => la.window = parse_duration(value_of("--window")?)?,
            "--report" => la.report = Some(value_of("--report")?.clone()),
            "--id" => la.id = Some(value_of("--id")?.clone()),
            "--hier" => la.hier = Some(parse_hier_spec(value_of("--hier")?)?),
            other if other.starts_with("--") => {
                return Err(format!("unknown load option `{other}`"))
            }
            other => {
                if la.schema.is_none() {
                    la.schema = Some(other.to_string());
                } else if la.data.is_none() {
                    la.data = Some(other.to_string());
                } else {
                    return Err(format!("unexpected load argument `{other}`"));
                }
            }
        }
    }
    Ok(la)
}

fn run_load_cmd(args: &[String]) -> Result<ExitCode, String> {
    use excuses::workloads::{generate, LibraryTarget, LoadConfig, Mode, TargetOptions};

    let la = parse_load_args(args)?;

    // Schema: a generated hierarchy (`--hier`) or a compiled .sdl file.
    let (schema, default_id) = match (&la.hier, &la.schema) {
        (Some(params), _) => (generate(params).schema, "hier".to_string()),
        (None, Some(path)) => {
            let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            register_schema_context(path, &src);
            let schema = {
                let _span = chc_obs::span(chc_obs::names::SPAN_CLI_COMPILE);
                compile_with_source(&src, path).map_err(|e| format!("{path}: {e}"))?
            };
            let report = check(&schema);
            if !report.is_ok() {
                println!("{}", report.render(&schema));
                return Err("schema has errors; fix it before load-testing".to_string());
            }
            let stem = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("load")
                .to_string();
            (schema, stem)
        }
        (None, None) => return Err("load needs a schema file or --hier".to_string()),
    };

    // Target: load a data file if given, else populate synthetically.
    let opts = |missing: MissingPolicy| TargetOptions {
        epsilon: la.epsilon,
        validation: ValidationOptions {
            semantics: Semantics::Correct,
            missing,
        },
        ..TargetOptions::default()
    };
    let target = match &la.data {
        Some(data_path) => {
            let data_src =
                std::fs::read_to_string(data_path).map_err(|e| format!("{data_path}: {e}"))?;
            let v = virtualize(&schema).map_err(|e| e.to_string())?;
            let mut data = load_data(&v.schema, &data_src).map_err(|e| e.to_string())?;
            refresh_virtual_extents(&mut data.store, &v);
            let objects: Vec<_> = data.names.iter().map(|(_, oid)| *oid).collect();
            // Source-file objects carry exactly the attributes the file
            // declares, so missing values are violations (as in
            // `chc validate`); populated objects below are always total.
            LibraryTarget::new(v, data.store, objects, opts(MissingPolicy::Absent))
        }
        None => LibraryTarget::from_schema(&schema, la.populate, la.seed, opts(MissingPolicy::Vacuous))?,
    };

    let cfg = LoadConfig {
        id: la.id.unwrap_or(default_id),
        mix: la.mix,
        mode: if la.open {
            Mode::Open { threads: la.threads, rate: la.rate }
        } else {
            Mode::Closed { threads: la.threads, think: la.think }
        },
        stop: la.stop.unwrap_or(StopRule::Duration(std::time::Duration::from_secs(2))),
        seed: la.seed,
        window: la.window,
        ..LoadConfig::default()
    };
    let summary = excuses::workloads::run_load(&target, &cfg);

    // Accounting to stderr (the `chc query` convention), a one-line
    // result to stdout, JSON lines to $CHC_BENCH_JSON, HTML to --report.
    eprint!("{}", summary.render_text());
    if let Ok(path) = std::env::var("CHC_BENCH_JSON") {
        if !path.is_empty() {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| format!("CHC_BENCH_JSON={path}: {e}"))?;
            f.write_all(summary.to_bench_lines().as_bytes())
                .map_err(|e| format!("CHC_BENCH_JSON={path}: {e}"))?;
        }
    }
    if let Some(path) = &la.report {
        std::fs::write(path, excuses::workloads::driver::report::render_html(&summary))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!(
        "load: {} ops in {:.2}s ({:.0} ops/s), p95 {} — {}",
        summary.total_ops,
        summary.elapsed.as_secs_f64(),
        summary.throughput(),
        format_ns_cli(summary.overall.p95),
        match &la.report {
            Some(p) => format!("report written to {p}"),
            None => "no report file (--report <out.html>)".to_string(),
        }
    );
    Ok(ExitCode::SUCCESS)
}

/// Which workload `chc profile` runs under attribution.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ProfileWorkload {
    Check,
    Validate,
    Query,
}

impl ProfileWorkload {
    fn name(self) -> &'static str {
        match self {
            ProfileWorkload::Check => "check",
            ProfileWorkload::Validate => "validate",
            ProfileWorkload::Query => "query",
        }
    }
}

/// Options of the `profile` subcommand (global flags are in [`Flags`]).
struct ProfileArgs {
    workload: ProfileWorkload,
    schema: Option<String>,
    hier: Option<HierarchyParams>,
    data: Option<String>,
    query: Option<String>,
    /// Rows in the hot-spot table.
    top: usize,
    /// Per-name label-cardinality cap for the attribution recorder.
    label_cap: usize,
    /// Sampling interval of the span-stack sampler.
    interval: std::time::Duration,
    /// Add per-class memory columns from the tracking allocator.
    mem: bool,
}

fn parse_profile_args(args: &[String]) -> Result<ProfileArgs, String> {
    let usage = "usage: chc profile <check|validate|query> <schema.sdl | --hier classes=N,...> \
                 [data.chd] [\"query\"] [--top N] [--label-cap K] [--interval 250us] [--mem] \
                 [--profile-out f.json] [--flame-out f.folded]";
    let mut pa = ProfileArgs {
        workload: ProfileWorkload::Check,
        schema: None,
        hier: None,
        data: None,
        query: None,
        top: 10,
        label_cap: 4096,
        interval: std::time::Duration::from_micros(250),
        mem: false,
    };
    let mut workload_seen = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--top" => {
                pa.top = value_of("--top")?.parse().map_err(|e| format!("--top: {e}"))?
            }
            "--label-cap" => {
                pa.label_cap = value_of("--label-cap")?
                    .parse()
                    .map_err(|e| format!("--label-cap: {e}"))?
            }
            "--interval" => pa.interval = parse_duration(value_of("--interval")?)?,
            "--mem" => pa.mem = true,
            "--hier" => pa.hier = Some(parse_hier_spec(value_of("--hier")?)?),
            other if other.starts_with("--") => {
                return Err(format!("unknown profile option `{other}`\n{usage}"))
            }
            other if !workload_seen => {
                workload_seen = true;
                pa.workload = match other {
                    "check" => ProfileWorkload::Check,
                    "validate" => ProfileWorkload::Validate,
                    "query" => ProfileWorkload::Query,
                    _ => return Err(format!("unknown profile workload `{other}`\n{usage}")),
                };
            }
            other => {
                if pa.schema.is_none() {
                    pa.schema = Some(other.to_string());
                } else if pa.data.is_none() {
                    pa.data = Some(other.to_string());
                } else if pa.query.is_none() {
                    pa.query = Some(other.to_string());
                } else {
                    return Err(format!("unexpected profile argument `{other}`\n{usage}"));
                }
            }
        }
    }
    if !workload_seen {
        return Err(usage.to_string());
    }
    if pa.schema.is_none() && pa.hier.is_none() {
        return Err("profile needs a schema file or --hier".to_string());
    }
    match pa.workload {
        ProfileWorkload::Check => {}
        ProfileWorkload::Validate => {
            if pa.data.is_none() {
                return Err("profile validate needs a data file".to_string());
            }
        }
        ProfileWorkload::Query => {
            if pa.data.is_none() || pa.query.is_none() {
                return Err("profile query needs a data file and a query string".to_string());
            }
        }
    }
    Ok(pa)
}

/// Runs the requested workload under the attribution recorder and the
/// span-stack sampler, then reports: a per-class hot-spot table and the
/// duplicate-work ratios on stderr, a one-line summary on stdout, the
/// `chc-profile/1` JSON document to `--profile-out`, and the *sampled*
/// folded stacks to `--flame-out`.
fn run_profile_cmd(
    pa: &ProfileArgs,
    flags: &Flags,
    profile: &Arc<chc_obs::ProfileRecorder>,
    sampler: &Arc<chc_obs::SpanSampler>,
) -> Result<ExitCode, String> {
    use excuses::workloads::generate;
    use std::fmt::Write as _;

    let span = chc_obs::span(chc_obs::names::SPAN_CLI_PROFILE);
    let (schema, source_name) = match (&pa.hier, &pa.schema) {
        (Some(params), _) => (
            generate(params).schema,
            format!("--hier classes={}", params.classes),
        ),
        (None, Some(path)) => {
            let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            register_schema_context(path, &src);
            let schema = {
                let _span = chc_obs::span(chc_obs::names::SPAN_CLI_COMPILE);
                compile_with_source(&src, path).map_err(|e| format!("{path}: {e}"))?
            };
            (schema, path.clone())
        }
        (None, None) => unreachable!("parse_profile_args requires a schema"),
    };

    // The workload itself. Diagnostics are counted, not printed — the
    // subject here is cost, and stdout stays one machine-greppable line.
    let mut workload_note = String::new();
    match pa.workload {
        ProfileWorkload::Check => {
            let report = check(&schema);
            let _ = write!(
                workload_note,
                "{} error(s), {} warning(s)",
                report.errors().count(),
                report.warnings().count()
            );
        }
        ProfileWorkload::Validate => {
            let data_path = pa.data.as_deref().expect("validated by the parser");
            let data_src =
                std::fs::read_to_string(data_path).map_err(|e| format!("{data_path}: {e}"))?;
            let report = check(&schema);
            if !report.is_ok() {
                return Err("schema has errors; fix it before validating data".to_string());
            }
            let v = virtualize(&schema).map_err(|e| e.to_string())?;
            let mut data = load_data(&v.schema, &data_src).map_err(|e| e.to_string())?;
            refresh_virtual_extents(&mut data.store, &v);
            let opts = ValidationOptions {
                semantics: Semantics::Correct,
                missing: MissingPolicy::Absent,
            };
            let mut bad = 0usize;
            for (_, oid) in &data.names {
                bad += usize::from(!validate_stored(&v.schema, &data.store, opts, *oid).is_empty());
            }
            let _ = write!(workload_note, "{} object(s), {} invalid", data.names.len(), bad);
        }
        ProfileWorkload::Query => {
            let data_path = pa.data.as_deref().expect("validated by the parser");
            let text = pa.query.as_deref().expect("validated by the parser");
            let data_src =
                std::fs::read_to_string(data_path).map_err(|e| format!("{data_path}: {e}"))?;
            let report = check(&schema);
            if !report.is_ok() {
                return Err("schema has errors; fix it before querying data".to_string());
            }
            let v = virtualize(&schema).map_err(|e| e.to_string())?;
            let ctx = TypeContext::with_virtuals(&v);
            let mut data = load_data(&v.schema, &data_src).map_err(|e| e.to_string())?;
            refresh_virtual_extents(&mut data.store, &v);
            let query =
                parse_query(&v.schema, text).map_err(|e| format!("query:{}: {e}", e.span))?;
            let plan = compile_query(&ctx, &query, CheckMode::Eliminate)
                .map_err(|e| format!("query type error: {e:?}"))?;
            let result = execute(&v.schema, &data.store, &plan);
            let _ = write!(
                workload_note,
                "{} row(s) scanned, {} emitted",
                result.stats.rows_scanned, result.stats.rows_emitted
            );
        }
    }
    drop(span);
    sampler.stop();

    // --- the hot-spot table (stderr) ---
    let nanos_by_class = profile
        .labeled_sums(chc_obs::names::CHECK_CLASS_NANOS)
        .map(|(entries, _other)| entries)
        .unwrap_or_default();
    let total_nanos: u64 = nanos_by_class.iter().map(|&(_, _, sum)| sum).sum();
    let labeled_of = |name: &str| -> std::collections::BTreeMap<u64, u64> {
        profile
            .labeled(name)
            .map(|s| s.entries.into_iter().collect())
            .unwrap_or_default()
    };
    let subtype_by_class = labeled_of(chc_obs::names::SUBTYPE_QUERIES);
    let sat_by_class = labeled_of(chc_obs::names::SAT_CALLS);
    let contra_by_class = labeled_of(chc_obs::names::CHECK_CONTRADICTIONS);
    let rows_by_class = labeled_of(chc_obs::names::QUERY_ROWS_SCANNED);
    let mem_bytes_by_class = labeled_of(chc_obs::names::MEM_CHECK_CLASS_BYTES);
    let mem_peak_by_class: std::collections::BTreeMap<u64, u64> = profile
        .labeled_max(chc_obs::names::MEM_CHECK_CLASS_PEAK)
        .map(|v| v.into_iter().collect())
        .unwrap_or_default();

    let subtype_total = profile.counter_value(chc_obs::names::SUBTYPE_QUERIES);
    let subtype_distinct = profile.counter_value(chc_obs::names::SUBTYPE_QUERIES_DISTINCT);
    let sat_total = profile.counter_value(chc_obs::names::SAT_CALLS);
    let sat_distinct = profile.counter_value(chc_obs::names::SAT_CALLS_DISTINCT);
    let ratio = |total: u64, distinct: u64| -> f64 {
        if distinct == 0 {
            1.0
        } else {
            total as f64 / distinct as f64
        }
    };

    let mut report = String::new();
    let _ = writeln!(
        report,
        "profile: {} {} — {} classes ({workload_note})",
        pa.workload.name(),
        source_name,
        schema.num_classes(),
    );
    let _ = writeln!(
        report,
        "  duplicate work: subtype.queries {subtype_total} / {subtype_distinct} distinct = {:.1}x, \
         sat.calls {sat_total} / {sat_distinct} distinct = {:.1}x",
        ratio(subtype_total, subtype_distinct),
        ratio(sat_total, sat_distinct),
    );
    let _ = writeln!(
        report,
        "  sampler: {} sample(s) at {} intervals, {} distinct stack path(s)",
        sampler.samples(),
        format_ns_cli(sampler.interval().as_nanos().min(u64::MAX as u128) as u64),
        sampler.folded_counts().len(),
    );
    if pa.mem {
        let _ = writeln!(
            report,
            "\n  {:<28} {:>10} {:>7} {:>9} {:>7} {:>7} {:>9} {:>10} {:>10}",
            "class", "time", "share", "subtype", "sat", "contra", "rows", "alloc", "peak"
        );
    } else {
        let _ = writeln!(
            report,
            "\n  {:<28} {:>10} {:>7} {:>9} {:>7} {:>7} {:>9}",
            "class", "time", "share", "subtype", "sat", "contra", "rows"
        );
    }
    let shown = nanos_by_class.iter().take(pa.top);
    for &(label, _count, sum) in shown {
        let class = chc_model::ClassId::from_raw(label as u32);
        let share = if total_nanos == 0 {
            0.0
        } else {
            100.0 * sum as f64 / total_nanos as f64
        };
        if pa.mem {
            let _ = writeln!(
                report,
                "  {:<28} {:>10} {:>6.1}% {:>9} {:>7} {:>7} {:>9} {:>10} {:>10}",
                schema.class_name(class),
                format_ns_cli(sum),
                share,
                subtype_by_class.get(&label).copied().unwrap_or(0),
                sat_by_class.get(&label).copied().unwrap_or(0),
                contra_by_class.get(&label).copied().unwrap_or(0),
                rows_by_class.get(&label).copied().unwrap_or(0),
                format_bytes_cli(mem_bytes_by_class.get(&label).copied().unwrap_or(0)),
                format_bytes_cli(mem_peak_by_class.get(&label).copied().unwrap_or(0)),
            );
        } else {
            let _ = writeln!(
                report,
                "  {:<28} {:>10} {:>6.1}% {:>9} {:>7} {:>7} {:>9}",
                schema.class_name(class),
                format_ns_cli(sum),
                share,
                subtype_by_class.get(&label).copied().unwrap_or(0),
                sat_by_class.get(&label).copied().unwrap_or(0),
                contra_by_class.get(&label).copied().unwrap_or(0),
                rows_by_class.get(&label).copied().unwrap_or(0),
            );
        }
    }
    if nanos_by_class.len() > pa.top {
        let _ = writeln!(
            report,
            "  … {} more class(es); raise --top or read --profile-out",
            nanos_by_class.len() - pa.top
        );
    }
    if pa.mem {
        // Reconciliation against the process-wide allocator totals: the
        // per-class series can only account for what ran inside
        // `check_class`, so Σbytes ≤ global allocated and every class
        // peak ≤ global peak — if either inequality fails, the
        // attribution is broken.
        let m = chc_obs::memalloc::snapshot();
        let class_bytes: u64 = mem_bytes_by_class.values().sum();
        let class_peak = mem_peak_by_class.values().copied().max().unwrap_or(0);
        let pct = if m.bytes_total == 0 {
            0.0
        } else {
            100.0 * class_bytes as f64 / m.bytes_total as f64
        };
        let _ = writeln!(
            report,
            "  mem: global {} allocated, peak live {}; per-class Σ {} ({pct:.1}% of global), \
             max class peak {}",
            format_bytes_cli(m.bytes_total),
            format_bytes_cli(m.bytes_peak),
            format_bytes_cli(class_bytes),
            format_bytes_cli(class_peak),
        );
    }
    eprint!("{report}");

    // --- machine outputs ---
    if let Some(path) = &flags.flame_out {
        let folded = sampler.to_folded_stacks();
        std::fs::write(path, folded).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &flags.profile_out {
        let doc = profile_json(pa, profile, sampler, &schema, &nanos_by_class, total_nanos);
        let text = doc.render();
        // Self-check: the document must parse back through chc_obs::json
        // before it is allowed on disk — an unparseable profile is a bug.
        chc_obs::json::parse(&text)
            .map_err(|e| format!("internal error: profile JSON does not round-trip: {e}"))?;
        std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    println!(
        "profile: {} — {} classes, subtype {}/{} ({:.1}x), sat {}/{} ({:.1}x), {} sample(s)",
        pa.workload.name(),
        schema.num_classes(),
        subtype_total,
        subtype_distinct,
        ratio(subtype_total, subtype_distinct),
        sat_total,
        sat_distinct,
        ratio(sat_total, sat_distinct),
        sampler.samples(),
    );
    Ok(ExitCode::SUCCESS)
}

/// The enriched `chc-profile/1` document: the recorder's own export plus
/// the workload name, the name-resolved hot-class table, and the sampled
/// stacks.
fn profile_json(
    pa: &ProfileArgs,
    profile: &chc_obs::ProfileRecorder,
    sampler: &chc_obs::SpanSampler,
    schema: &chc_model::Schema,
    nanos_by_class: &[(u64, u64, u64)],
    total_nanos: u64,
) -> chc_obs::json::JsonValue {
    use chc_obs::json::JsonValue;
    let base = profile.to_json();
    let part = |key: &str| base.get(key).cloned().unwrap_or_else(|| JsonValue::object([]));
    let hot = JsonValue::array(nanos_by_class.iter().map(|&(label, _count, sum)| {
        let class = chc_model::ClassId::from_raw(label as u32);
        let share = if total_nanos == 0 {
            0.0
        } else {
            sum as f64 / total_nanos as f64
        };
        JsonValue::object([
            ("class", JsonValue::string(schema.class_name(class))),
            ("label", JsonValue::number(label as f64)),
            ("nanos", JsonValue::number(sum as f64)),
            ("share", JsonValue::number((share * 1_000.0).round() / 1_000.0)),
        ])
    }));
    let stacks = JsonValue::array(sampler.folded_counts().into_iter().map(|(path, count)| {
        JsonValue::object([
            ("stack", JsonValue::string(&path)),
            ("count", JsonValue::number(count as f64)),
        ])
    }));
    let sampler_obj = JsonValue::object([
        (
            "interval_nanos",
            JsonValue::number(sampler.interval().as_nanos().min(u64::MAX as u128) as f64),
        ),
        ("samples", JsonValue::number(sampler.samples() as f64)),
        ("idle", JsonValue::number(sampler.idle() as f64)),
        ("stacks", stacks),
    ]);
    let m = chc_obs::memalloc::snapshot();
    let mem_obj = JsonValue::object([
        (
            "installed",
            JsonValue::number(f64::from(u8::from(chc_obs::memalloc::installed()))),
        ),
        ("allocs", JsonValue::number(m.allocs as f64)),
        ("frees", JsonValue::number(m.frees as f64)),
        ("bytes_total", JsonValue::number(m.bytes_total as f64)),
        ("bytes_live", JsonValue::number(m.bytes_live as f64)),
        ("bytes_peak", JsonValue::number(m.bytes_peak as f64)),
    ]);
    JsonValue::object([
        ("schema", JsonValue::string("chc-profile/1")),
        ("workload", JsonValue::string(pa.workload.name())),
        ("mem", mem_obj),
        ("cap", part("cap")),
        ("counters", part("counters")),
        ("labeled", part("labeled")),
        ("histograms", part("histograms")),
        ("hot_classes", hot),
        ("sampler", sampler_obj),
    ])
}

/// `1.2MB`-style rendering for the memory columns.
fn format_bytes_cli(bytes: u64) -> String {
    if bytes < 1_024 {
        format!("{bytes}B")
    } else if bytes < 1_024 * 1_024 {
        format!("{:.1}KB", bytes as f64 / 1_024.0)
    } else if bytes < 1_024 * 1_024 * 1_024 {
        format!("{:.1}MB", bytes as f64 / (1_024.0 * 1_024.0))
    } else {
        format!("{:.2}GB", bytes as f64 / (1_024.0 * 1_024.0 * 1_024.0))
    }
}

/// `1.2us`-style rendering for the stdout summary line.
fn format_ns_cli(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1_000.0)
    } else {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    }
}

/// `chc doctor <crash.json>`: render a `chc-crash/1` report (written by
/// the panic hook or the `--watchdog` stall detector) human-readably.
/// The rendering is the command's *output*, so unlike the per-command
/// summaries it goes to stdout.
fn run_doctor_cmd(args: &[String]) -> Result<ExitCode, String> {
    let usage = "usage: chc doctor <crash.json>";
    let path = args.first().ok_or(usage)?;
    if args.len() > 1 {
        return Err(usage.to_string());
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = chc_obs::json::parse(&text).map_err(|e| format!("{path}: not valid JSON: {e}"))?;
    match doc.get("schema").and_then(|v| v.as_str()) {
        Some("chc-crash/1") => {}
        Some(other) => return Err(format!("{path}: unsupported schema `{other}` (want chc-crash/1)")),
        None => return Err(format!("{path}: missing `schema` tag (want chc-crash/1)")),
    }
    print!("{}", render_crash_report(&doc));
    Ok(ExitCode::SUCCESS)
}

/// The human-readable rendering behind `chc doctor`.
fn render_crash_report(doc: &chc_obs::json::JsonValue) -> String {
    use chc_obs::json::JsonValue;
    use std::fmt::Write as _;

    let str_of = |v: Option<&JsonValue>| v.and_then(|v| v.as_str()).unwrap_or("?").to_string();
    let num_of = |v: Option<&JsonValue>| v.and_then(|v| v.as_f64()).unwrap_or(0.0);
    let mut out = String::new();

    let reason = str_of(doc.get("reason"));
    let _ = writeln!(out, "chc crash report ({reason})");
    let _ = writeln!(out, "  message: {}", str_of(doc.get("message")));
    let _ = writeln!(
        out,
        "  pid {} after {}",
        num_of(doc.get("pid")) as u64,
        format_ns_cli((num_of(doc.get("uptime_us")) as u64).saturating_mul(1_000)),
    );

    if let Some(JsonValue::Obj(ctx)) = doc.get("context") {
        if !ctx.is_empty() {
            let _ = writeln!(out, "\ncontext:");
            for (k, v) in ctx {
                let _ = writeln!(out, "  {:<14} {}", k, v.as_str().unwrap_or("?"));
            }
        }
    }

    if let Some(mem) = doc.get("mem") {
        let installed = num_of(mem.get("installed")) as u64 == 1;
        if installed {
            let _ = writeln!(
                out,
                "\nmemory: {} allocated over {} allocs; live {} ({} allocs), peak {}",
                format_bytes_cli(num_of(mem.get("bytes_total")) as u64),
                num_of(mem.get("allocs")) as u64,
                format_bytes_cli(num_of(mem.get("bytes_live")) as u64),
                (num_of(mem.get("allocs")) as u64).saturating_sub(num_of(mem.get("frees")) as u64),
                format_bytes_cli(num_of(mem.get("bytes_peak")) as u64),
            );
        } else {
            let _ = writeln!(out, "\nmemory: tracking allocator not installed in this binary");
        }
    }

    if let Some(JsonValue::Obj(counters)) = doc.get("counters") {
        if !counters.is_empty() {
            let mut rows: Vec<(&str, u64)> = counters
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_f64().unwrap_or(0.0) as u64))
                .collect();
            rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
            let shown = rows.len().min(20);
            let _ = writeln!(out, "\ncounters (top {shown} of {}):", rows.len());
            for (name, value) in rows.iter().take(shown) {
                let _ = writeln!(out, "  {name:<32} {value:>12}");
            }
        }
    }

    let _ = writeln!(out, "\nopen spans at time of death:");
    let threads = doc.get("threads").and_then(|v| v.as_array()).unwrap_or(&[]);
    if threads.is_empty() {
        let _ = writeln!(out, "  (none)");
    }
    for t in threads {
        let stack: Vec<&str> = t
            .get("stack")
            .and_then(|v| v.as_array())
            .unwrap_or(&[])
            .iter()
            .filter_map(|v| v.as_str())
            .collect();
        let _ = writeln!(
            out,
            "  thread {}: {}",
            num_of(t.get("thread")) as u64,
            if stack.is_empty() {
                "(idle)".to_string()
            } else {
                stack.join(" > ")
            },
        );
    }

    let flight = doc.get("flight").and_then(|v| v.as_array()).unwrap_or(&[]);
    let dropped = num_of(doc.get("flight_dropped")) as u64;
    let shown = flight.len().min(40);
    let skipped = flight.len() - shown;
    let _ = write!(out, "\nflight tail (last {shown} of {} recorded", flight.len());
    if dropped > 0 {
        let _ = write!(out, ", {dropped} older dropped from ring");
    }
    let _ = writeln!(out, "):");
    if skipped > 0 {
        let _ = writeln!(out, "  … {skipped} earlier entr(ies) elided; read the JSON for all");
    }
    for e in flight.iter().skip(skipped) {
        let kind = str_of(e.get("kind"));
        let value = num_of(e.get("value")) as u64;
        let suffix = match kind.as_str() {
            "exit" => format!(" ({})", format_ns_cli(value)),
            "counter" => format!(" +{value}"),
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "  [{:>8}] t+{:<10} thread {} {:<7} {}{}",
            num_of(e.get("seq")) as u64,
            format_ns_cli((num_of(e.get("t_us")) as u64).saturating_mul(1_000)),
            num_of(e.get("thread")) as u64,
            kind,
            str_of(e.get("name")),
            suffix,
        );
    }
    out
}

fn run(args: &[String], flags: &Flags) -> Result<ExitCode, String> {
    let usage = "usage: chc [--trace] [--stats] [--trace-out <f.json>] [--flame-out <f.folded>] [--stats-out <f.json>] [--audit-out <f.jsonl>] [--profile-out <f.json>] [--crash-out <f.json>] [--watchdog <dur>] <check|lint|diff|print|virtualize|explain|analyze|query|validate|load|profile|doctor> <schema.sdl> [...]";
    let cmd = args.first().ok_or(usage)?;
    // `doctor` reads a crash report, not a schema: skip the compile.
    if cmd == "doctor" {
        return run_doctor_cmd(&args[1..]);
    }
    // `load` acquires its schema itself (`--hier` generates one instead
    // of reading a file), so it skips the generic compile below.
    if cmd == "load" {
        let _span = chc_obs::span(chc_obs::names::SPAN_CLI_LOAD);
        return run_load_cmd(&args[1..]);
    }
    // `diff` compiles two schemas, so it skips the generic single-schema
    // compile below too.
    if cmd == "diff" {
        let _span = chc_obs::span(chc_obs::names::SPAN_CLI_DIFF);
        return run_diff_cmd(&args[1..]);
    }
    // `lint` and `check` take their schema as a free positional among
    // their own flags (`chc lint --query q.chq schema.sdl` and
    // `chc check --incremental --since old.sdl new.sdl` are valid);
    // every other command takes it as the first argument.
    let lint_args = if cmd == "lint" {
        Some(parse_lint_args(&args[1..])?)
    } else {
        None
    };
    let check_args = if cmd == "check" {
        Some(parse_check_args(&args[1..])?)
    } else {
        None
    };
    let path = match (&lint_args, &check_args) {
        (Some(la), _) => la.schema.clone().ok_or(usage)?,
        (_, Some(ca)) => ca.schema.clone().ok_or(usage)?,
        _ => args.get(1).cloned().ok_or(usage)?,
    };
    let path = path.as_str();
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    register_schema_context(path, &src);
    let schema = {
        let _span = chc_obs::span(chc_obs::names::SPAN_CLI_COMPILE);
        compile_with_source(&src, path).map_err(|e| format!("{path}: {e}"))?
    };
    let _cmd_span = match cmd.as_str() {
        "check" => Some(chc_obs::span(chc_obs::names::SPAN_CLI_CHECK)),
        "lint" => Some(chc_obs::span(chc_obs::names::SPAN_CLI_LINT)),
        "validate" => Some(chc_obs::span(chc_obs::names::SPAN_CLI_VALIDATE)),
        "analyze" => Some(chc_obs::span(chc_obs::names::SPAN_CLI_ANALYZE)),
        "query" => Some(chc_obs::span(chc_obs::names::SPAN_CLI_QUERY)),
        _ => None,
    };

    match cmd.as_str() {
        "check" => {
            let ca = check_args.expect("parsed above for `check`");
            // With `--incremental --since <old.sdl>`, only classes in the
            // impact cone of the edits are re-checked; the rest of the
            // verdict is carried over from the old schema's report. The
            // stdout report is identical to a full check (the incremental
            // accounting goes to stderr), so the two modes can be diffed.
            let report = match &ca.since {
                Some(old_path) => {
                    let old_src = std::fs::read_to_string(old_path)
                        .map_err(|e| format!("{old_path}: {e}"))?;
                    let old_schema = compile_with_source(&old_src, old_path)
                        .map_err(|e| format!("{old_path}: {e}"))?;
                    let old_report = check(&old_schema);
                    let inc =
                        excuses::core::check_incremental(&old_schema, &old_report, &schema);
                    eprintln!(
                        "incremental: {} edit(s) since {old_path}; re-checked {} of {} class(es)",
                        inc.diff.edits.len(),
                        inc.dirty.classes.len(),
                        schema.num_classes(),
                    );
                    inc.report
                }
                None => check(&schema),
            };
            if report.diagnostics.is_empty() {
                println!(
                    "{path}: {} classes, {} declarations — clean",
                    schema.num_classes(),
                    schema.num_attr_decls()
                );
                return Ok(ExitCode::SUCCESS);
            }
            println!("{}", report.render(&schema));
            if flags.explain {
                // One derivation per diagnosed (class, attribute) site:
                // the full argument for why the site is (in)coherent.
                let mut seen = std::collections::BTreeSet::new();
                for d in &report.diagnostics {
                    if seen.insert((d.class, d.attr)) {
                        println!(
                            "{}",
                            explain_admissibility(&schema, d.class, d.attr).render(&schema)
                        );
                    }
                }
            }
            let errors = report.errors().count();
            let warnings = report.warnings().count();
            println!("{errors} error(s), {warnings} warning(s)");
            Ok(if report.is_ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "lint" => {
            let la = lint_args.expect("parsed above for `lint`");
            let Some(qarg) = &la.query else {
                let report = excuses::lint::run(&schema, &la.config);
                if la.json {
                    println!("{}", report.to_json(&schema).render());
                } else if report.findings.is_empty() {
                    println!("{path}: {} classes — no lints fired", schema.num_classes());
                } else {
                    println!(
                        "{}",
                        excuses::lint::render_report(&report, &schema, Some(&src))
                    );
                }
                return Ok(if report.is_ok() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                });
            };
            // `--query` takes either a `.chq` batch file or an ad-hoc
            // query string; only the former gets a file name in locations.
            let (qtext, qfile) =
                if qarg.ends_with(".chq") || std::path::Path::new(qarg).is_file() {
                    let text =
                        std::fs::read_to_string(qarg).map_err(|e| format!("{qarg}: {e}"))?;
                    (text, Some(qarg.as_str()))
                } else {
                    (qarg.clone(), None)
                };
            let v = virtualize(&schema).map_err(|e| e.to_string())?;
            let queries = parse_query_file(&v.schema, &qtext).map_err(|e| {
                format!("{}:{}: {e}", qfile.unwrap_or("<query>"), e.span)
            })?;
            // Schema lints run over the original schema; query analysis
            // over the virtualized one. Both render against `v.schema`,
            // which preserves original class ids and the source map.
            let report =
                excuses::lint::run_with_queries(&schema, &v, &queries, qfile, &la.config);
            if la.json {
                println!("{}", report.to_json(&v.schema).render());
            } else if report.findings.is_empty() {
                println!(
                    "{path}: {} classes, {} quer{} — no lints fired",
                    schema.num_classes(),
                    queries.len(),
                    if queries.len() == 1 { "y" } else { "ies" }
                );
            } else {
                println!(
                    "{}",
                    excuses::lint::render_report_sources(
                        &report,
                        &v.schema,
                        Some(&src),
                        Some(&qtext)
                    )
                );
            }
            Ok(if report.is_ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "print" => {
            print!("{}", print_schema(&schema));
            Ok(ExitCode::SUCCESS)
        }
        "virtualize" => {
            let v = virtualize(&schema).map_err(|e| e.to_string())?;
            if v.virtuals.is_empty() {
                println!("{path}: no embedded excuses; nothing to virtualize");
                return Ok(ExitCode::SUCCESS);
            }
            for info in &v.virtuals {
                let path_str: Vec<&str> = info.path.iter().map(|p| v.schema.resolve(*p)).collect();
                println!(
                    "virtual class {} is-a {} — extent = values of {} over {}",
                    v.schema.class_name(info.class),
                    v.schema.class_name(info.base),
                    path_str.join("."),
                    v.schema.class_name(info.root),
                );
            }
            let report = check(&v.schema);
            println!(
                "virtualized schema: {} classes, {}",
                v.schema.num_classes(),
                if report.is_ok() {
                    "clean"
                } else {
                    "HAS ERRORS"
                }
            );
            if !report.is_ok() {
                println!("{}", report.render(&v.schema));
            }
            Ok(if report.is_ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "explain" => {
            let class_name = args.get(2).ok_or("explain needs a class name")?;
            let class = schema
                .class_by_name(class_name)
                .ok_or_else(|| format!("unknown class `{class_name}`"))?;
            let v = virtualize(&schema).map_err(|e| e.to_string())?;
            let ctx = TypeContext::with_virtuals(&v);
            let schema = &v.schema;
            let facts = EntityFacts::of_class(schema, class);
            let attrs: Vec<_> = match args.get(3) {
                Some(a) => {
                    vec![schema
                        .sym(a)
                        .ok_or_else(|| format!("unknown attribute `{a}`"))?]
                }
                None => schema.applicable_attrs(class).into_iter().collect(),
            };
            for attr in attrs {
                // The subtype-theory view: the conditional type each
                // declarer contributes…
                for (declarer, _) in schema.constraints_on(class, attr) {
                    if let Some(cond) = cond_of(schema, declarer, attr) {
                        println!(
                            "{} < [{} : {}]",
                            schema.class_name(declarer),
                            schema.resolve(attr),
                            render_cond(schema, &cond)
                        );
                    }
                }
                // …and the deduced effective type for instances of the class.
                match ctx.attr_type(&facts, attr) {
                    Some(ty) => println!(
                        "  {}.{} : {}",
                        class_name,
                        schema.resolve(attr),
                        render_tyset(schema, &ty)
                    ),
                    None => println!("  {}.{} : not applicable", class_name, schema.resolve(attr)),
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "analyze" => {
            let text = args.get(2).ok_or("analyze needs a query string")?;
            eprintln!(
                "note: `chc analyze` is deprecated; use `chc lint <schema.sdl> --query \"<query>\"`"
            );
            let v = virtualize(&schema).map_err(|e| e.to_string())?;
            let queries =
                parse_query_file(&v.schema, text).map_err(|e| format!("{}: {e}", e.span))?;
            let report =
                excuses::lint::run_queries(&v, &queries, None, &LintConfig::new());
            let rendered =
                excuses::lint::render_report_sources(&report, &v.schema, None, Some(text));
            if !rendered.is_empty() {
                println!("{rendered}");
            }
            // Definite compile-time errors (Q001/Q003 over a never-typed
            // result) render as `type error: …`; Q004's "no type error
            // can occur" must not trip this.
            let type_error = report
                .findings
                .iter()
                .any(|f| f.message.starts_with("type error"));
            if !type_error && report.is_ok() && report.warnings().next().is_none() {
                println!("safe        : no run-time type error can occur");
            }
            Ok(if type_error {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        "query" => {
            let data_path = args.get(2).ok_or("query needs a data file")?;
            let text = args.get(3).ok_or("query needs a query string")?;
            let data_src =
                std::fs::read_to_string(data_path).map_err(|e| format!("{data_path}: {e}"))?;
            let report = check(&schema);
            if !report.is_ok() {
                println!("{}", report.render(&schema));
                return Err("schema has errors; fix it before querying data".to_string());
            }
            let v = virtualize(&schema).map_err(|e| e.to_string())?;
            let ctx = TypeContext::with_virtuals(&v);
            let mut data = load_data(&v.schema, &data_src).map_err(|e| e.to_string())?;
            refresh_virtual_extents(&mut data.store, &v);
            let query =
                parse_query(&v.schema, text).map_err(|e| format!("query:{}: {e}", e.span))?;
            let plan = match compile_query(&ctx, &query, CheckMode::Eliminate) {
                Ok(plan) => plan,
                Err(e) => {
                    eprintln!("query: type error: {e:?}");
                    return Ok(ExitCode::FAILURE);
                }
            };
            let result = execute(&v.schema, &data.store, &plan);
            // Rows on stdout, all accounting on stderr: `chc query … | sort`
            // sees only result values. One buffered, locked writer keeps it
            // to a few large writes; a closed pipe ends in an error exit.
            let mut rows = std::io::BufWriter::new(std::io::stdout().lock());
            for val in &result.values {
                writeln!(rows, "{}", val.render(&v.schema)).map_err(|e| format!("stdout: {e}"))?;
            }
            rows.flush().map_err(|e| format!("stdout: {e}"))?;
            let warnings = plan.warnings.len() + usize::from(plan.result_may_be_absent);
            eprintln!(
                "query: {} row(s) scanned, {} emitted, {} check(s)/row, {} compile-time warning(s)",
                result.stats.rows_scanned,
                result.stats.rows_emitted,
                plan.checks_per_row(),
                warnings,
            );
            if plan.result_may_be_absent {
                eprintln!(
                    "query: result may be absent — {} row(s) skipped by the run-time check",
                    result.stats.rows_skipped_by_check,
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        "validate" => {
            let data_path = args.get(2).ok_or("validate needs a data file")?;
            let src =
                std::fs::read_to_string(data_path).map_err(|e| format!("{data_path}: {e}"))?;
            let report = check(&schema);
            if !report.is_ok() {
                println!("{}", report.render(&schema));
                return Err("schema has errors; fix it before validating data".to_string());
            }
            let v = virtualize(&schema).map_err(|e| e.to_string())?;
            let mut data = load_data(&v.schema, &src).map_err(|e| e.to_string())?;
            refresh_virtual_extents(&mut data.store, &v);
            let opts = ValidationOptions {
                semantics: Semantics::Correct,
                missing: MissingPolicy::Absent,
            };
            let mut bad = 0usize;
            for (name, oid) in &data.names {
                // Ledger join key: which surrogate belongs to which
                // source-file name.
                chc_obs::event_with(
                    chc_obs::EventLevel::Info,
                    chc_obs::names::EVENT_VALIDATE_OBJECT,
                    |ev| ev.field("name", name.as_str()).field("object", oid.raw()),
                );
                let violations = validate_stored(&v.schema, &data.store, opts, *oid);
                for viol in &violations {
                    println!("{name}: {}", viol.render(&v.schema));
                }
                bad += usize::from(!violations.is_empty());
            }
            println!("{} object(s), {} invalid", data.names.len(), bad);
            Ok(if bad == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        other => Err(format!("unknown command `{other}`\n{usage}")),
    }
}
