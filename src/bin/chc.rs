//! `chc` — a command-line front end for schemas with contradictions.
//!
//! ```text
//! chc [--trace] [--stats] [--trace-out <f.json>] [--flame-out <f.folded>]
//!     [--stats-out <f.json>] [--audit-out <f.jsonl>] [--profile-out <f.json>]
//!     [--crash-out <f.json>] [--watchdog <dur>] <command> ...
//!
//! chc check <schema.sdl> [--explain] [--incremental --since <old.sdl>]
//!         type-check (exit 1 on errors); --explain adds admissibility
//!         derivations; --incremental re-checks only the edits' impact cone
//! chc lint <schema.sdl> [--format text|json] [--query <file.chq|"query">]
//!     [--allow <code>] [--warn <code>] [--deny <code>] [--deny warnings]
//!         static-analysis lints (docs/LINTS.md); --query adds Q001–Q005
//! chc diff <old.sdl> <new.sdl> [--format text|json]
//!     [--allow <code>] [--warn <code>] [--deny <code>] [--deny warnings]
//!         classified edits, their impact cone, and the D001–D005 lints
//! chc print <schema.sdl>
//!         canonical pretty-printed form
//! chc virtualize <schema.sdl>
//!         the §5.6 virtual classes (exit 1 if the result has errors)
//! chc explain <schema.sdl> <Class> [<attr>]
//!         effective conditional types (§5.4)
//! chc query <schema.sdl> <data.chd> "<query>"
//!         run a query: rows on stdout, accounting on stderr
//! chc validate <schema.sdl> <data.chd> [--audit-summary]
//!         validate instance data; --audit-summary groups admissions by
//!         excuse (E11)
//! chc load <schema.sdl> [data.chd] [--mix validate=70,query=20,insert=9,evolve=1]
//!     [--threads N] [--duration 5s | --ops N] [--mode closed|open] [--rate R]
//!     [--think D] [--seed N] [--epsilon F] [--populate N] [--window D]
//!     [--report out.html] [--id NAME] [--hier classes=N,...] [--audit-summary]
//!         mixed load: latency percentiles on stderr, `chc-load/1` lines
//!         appended to $CHC_BENCH_JSON, an HTML report via --report
//! chc profile <check|validate|query> <schema.sdl | --hier classes=N,...>
//!     [data.chd] ["query"] [--top N] [--label-cap K] [--interval 250us] [--mem]
//!         cost attribution: per-class hot spots on stderr, one summary
//!         line on stdout, `chc-profile/1` via --profile-out, sampled
//!         stacks via --flame-out; --mem adds per-class memory columns
//! chc doctor <crash.json>
//!         render a `chc-crash/1` report human-readably
//! ```
//!
//! One table ([`GLOBAL_OPTS`], [`COMMANDS`]) declares every option and one
//! matcher ([`parse_argv`]) reads argv against it: `--x v` and `--x=v`
//! both work, options and positionals mix in any order (global options
//! may also precede the command), repeated options apply in order, and
//! the command, its options and its positional count are checked before
//! any file is read.
//!
//! `--trace` (span tree) and `--stats` (counter table) print on stderr,
//! so stdout stays machine-parseable; `--stats-out`, `--trace-out`
//! (Chrome trace JSON), `--flame-out` (folded stacks), `--audit-out` (one
//! JSON line per run-time check, naming the admitting excuse) and
//! `--profile-out` (labeled cost attribution) write files. All of them
//! report and flush even when the command fails. All stdout goes through
//! one buffered writer: a closed or full stdout is `error: stdout: …`,
//! exit 2. Always on: the [`chc_obs::memalloc`] tracking allocator and a
//! [`chc_obs::FlightRecorder`], whose `chc-crash/1` report a panic (or a
//! stall, under `--watchdog`) writes to `--crash-out` or `$CHC_CRASH_DIR`.

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use chc_obs::names;
use excuses::core::{
    check, explain_admissibility, virtualize, MissingPolicy, Semantics, ValidationOptions,
    Virtualized,
};
use excuses::extent::{load_data, refresh_virtual_extents, validate_stored, LoadedData};
use excuses::lint::{LintCode, LintConfig, LintLevel};
use excuses::model::Schema;
use excuses::query::{compile as compile_query, execute, parse_query, parse_query_file, CheckMode};
use excuses::sdl::{compile_with_source, print_schema};
use excuses::types::{render_explain, TypeContext};
use excuses::workloads::{parse_duration, HierarchyParams, MixSpec, StopRule};

/// Every run is accounted by the tracking allocator: the fast path is a
/// few relaxed atomics (pinned by a smoke test in `chc_obs::memalloc`),
/// and in exchange `mem.*` counters, `chc profile --mem`, and crash
/// reports all know where the bytes went.
#[global_allocator]
static ALLOC: chc_obs::memalloc::TrackingAllocator = chc_obs::memalloc::TrackingAllocator;

/// Options every command accepts, before or after the command name. In
/// an option list, `--x` is a switch and `--x=` takes a value.
const GLOBAL_OPTS: &str = "--trace --stats --trace-out= --flame-out= --stats-out= \
    --audit-out= --profile-out= --crash-out= --watchdog=";

const GLOBAL_USAGE: &str = "chc [--trace] [--stats] [--trace-out <f.json>] \
    [--flame-out <f.folded>] [--stats-out <f.json>] [--audit-out <f.jsonl>] \
    [--profile-out <f.json>] [--crash-out <f.json>] [--watchdog <dur>] <command> ...";

/// A subcommand: its own options, how many positional arguments it takes
/// (`min..=max`), and its usage line.
struct Command {
    name: &'static str,
    opts: &'static str,
    arity: (usize, usize),
    usage: &'static str,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "check",
        opts: "--explain --incremental --since=",
        arity: (1, 1),
        usage: "check <schema.sdl> [--explain] [--incremental --since <old.sdl>]",
    },
    Command {
        name: "lint",
        opts: "--format= --query= --allow= --warn= --deny=",
        arity: (1, 1),
        usage: "lint <schema.sdl> [--format text|json] [--query <file.chq|\"query\">] \
            [--allow <code>] [--warn <code>] [--deny <code>] [--deny warnings]",
    },
    Command {
        name: "diff",
        opts: "--format= --allow= --warn= --deny=",
        arity: (2, 2),
        usage: "diff <old.sdl> <new.sdl> [--format text|json] \
            [--allow <code>] [--warn <code>] [--deny <code>] [--deny warnings]",
    },
    Command {
        name: "print",
        opts: "",
        arity: (1, 1),
        usage: "print <schema.sdl>",
    },
    Command {
        name: "virtualize",
        opts: "",
        arity: (1, 1),
        usage: "virtualize <schema.sdl>",
    },
    Command {
        name: "explain",
        opts: "",
        arity: (2, 3),
        usage: "explain <schema.sdl> <Class> [<attr>]",
    },
    Command {
        name: "query",
        opts: "",
        arity: (3, 3),
        usage: "query <schema.sdl> <data.chd> \"<query>\"",
    },
    Command {
        name: "validate",
        opts: "--audit-summary",
        arity: (2, 2),
        usage: "validate <schema.sdl> <data.chd> [--audit-summary]",
    },
    Command {
        name: "load",
        opts: "--mix= --threads= --duration= --ops= --mode= --rate= --think= --seed= \
            --epsilon= --populate= --window= --report= --id= --hier= --audit-summary",
        arity: (0, 2),
        usage: "load <schema.sdl> [data.chd] [--mix validate=70,query=20,insert=9,evolve=1] \
            [--threads N] [--duration 5s | --ops N] [--mode closed|open] [--rate R] \
            [--think D] [--seed N] [--epsilon F] [--populate N] [--window D] \
            [--report out.html] [--id NAME] [--hier classes=N,...] [--audit-summary]",
    },
    Command {
        name: "profile",
        opts: "--top= --label-cap= --interval= --hier= --mem",
        arity: (1, 4),
        usage: "profile <check|validate|query> <schema.sdl | --hier classes=N,...> \
            [data.chd] [\"query\"] [--top N] [--label-cap K] [--interval 250us] [--mem]",
    },
    Command {
        name: "doctor",
        opts: "",
        arity: (1, 1),
        usage: "doctor <crash.json>",
    },
];

/// The option names of an option list.
fn opt_names(opts: &'static str) -> impl Iterator<Item = &'static str> {
    opts.split_whitespace().map(|o| o.trim_end_matches('='))
}

/// `name` as spelled in an option list, and whether it takes a value.
fn lookup(opts: &'static str, name: &str) -> Option<(&'static str, bool)> {
    opts.split_whitespace()
        .find_map(|o| match o.strip_suffix('=') {
            Some(n) if n == name => Some((n, true)),
            None if o == name => Some((o, false)),
            _ => None,
        })
}

/// The full usage text: the global options, then one line per command.
fn usage() -> String {
    let head = format!("usage: {GLOBAL_USAGE}");
    COMMANDS
        .iter()
        .fold(head, |text, c| text + "\n       chc " + c.usage)
}

/// A command line matched against the table: the command, its
/// positional arguments, and every option in argv order (`None` for a
/// switch).
struct Args {
    cmd: &'static Command,
    pos: Vec<String>,
    opts: Vec<(&'static str, Option<String>)>,
}

/// The one argument matcher. It walks argv once, splitting options
/// (`--x`, `--x v`, `--x=v`) from positionals; then it resolves the
/// command (the first positional), checks every option against the
/// global options and the command's own, and checks the positional
/// count. Unknown commands and options get a did-you-mean.
fn parse_argv(argv: Vec<String>) -> Result<Args, String> {
    // Whether an option takes a value does not depend on the command
    // (a unit test pins that), so an option before the command name
    // reads its value correctly too.
    let known = |name: &str| {
        let mut lists = std::iter::once(GLOBAL_OPTS).chain(COMMANDS.iter().map(|c| c.opts));
        lists.find_map(|opts| lookup(opts, name))
    };
    let mut pos = Vec::new();
    let mut opts = Vec::new();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            pos.push(arg);
            continue;
        }
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name.to_string(), Some(value.to_string())),
            None => (arg, None),
        };
        let value = match (known(&name), inline) {
            (Some((_, true)), Some(v)) if !v.is_empty() => Some(v),
            (Some((_, true)), None) => it.next().filter(|v| !v.starts_with("--")),
            (Some((_, true)), Some(_)) => None,
            (Some(_), Some(_)) => return Err(format!("{name} takes no value")),
            (_, _) => {
                opts.push((name, None));
                continue;
            }
        };
        let value = value.ok_or_else(|| format!("{name} needs a value"))?;
        opts.push((name, Some(value)));
    }
    if pos.is_empty() {
        return Err(usage());
    }
    let name = pos.remove(0);
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        let hint = did_you_mean(&name, COMMANDS.iter().map(|c| c.name));
        return Err(format!("unknown command `{name}`{hint}\n{}", usage()));
    };
    let opts = opts
        .into_iter()
        .map(|(opt, value)| {
            if let Some((n, _)) = lookup(GLOBAL_OPTS, &opt).or_else(|| lookup(cmd.opts, &opt)) {
                return Ok((n, value));
            }
            let hint = did_you_mean(&opt, opt_names(GLOBAL_OPTS).chain(opt_names(cmd.opts)));
            Err(format!("unknown {name} option `{opt}`{hint}"))
        })
        .collect::<Result<_, String>>()?;
    let (min, max) = cmd.arity;
    if let Some(extra) = pos.get(max) {
        return Err(format!(
            "unexpected {name} argument `{extra}`\nusage: chc {}",
            cmd.usage
        ));
    }
    if pos.len() < min {
        return Err(format!("usage: chc {}", cmd.usage));
    }
    Ok(Args { cmd, pos, opts })
}

impl Args {
    /// Whether the option was given at all.
    fn flag(&self, name: &str) -> bool {
        self.opts.iter().any(|(n, _)| *n == name)
    }

    /// The option's last value (a repeated option overrides).
    fn value(&self, name: &str) -> Option<&str> {
        let last = self.opts.iter().rev().find(|(n, _)| *n == name);
        last.and_then(|(_, v)| v.as_deref())
    }

    /// The option's last value through `convert`. Every occurrence must
    /// convert, so a bad value is an error even when a later one overrides.
    fn get<T>(
        &self,
        name: &str,
        convert: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let values = self.opts.iter().filter(|(n, _)| *n == name);
        values
            .filter_map(|(_, v)| v.as_deref())
            .try_fold(None, |_, v| convert(v).map(Some))
    }

    /// [`Args::get`] through [`str::parse`], errors prefixed by the name.
    fn parse<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.get(name, |v| v.parse().map_err(|e| format!("{name}: {e}")))
    }

    /// Which of `names` was given last, for options that override each
    /// other (`--ops` and `--duration`, `--mode` and `--rate`).
    fn last_of(&self, names: &[&str]) -> Option<&'static str> {
        let mut given = self.opts.iter().rev().map(|(n, _)| *n);
        given.find(|n| names.contains(n))
    }
}

/// Levenshtein distance between two short strings — the budget for the
/// did-you-mean suggestions.
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

/// The candidate closest to `value` when it is plausibly a typo (at
/// most 3 edits, ignoring case).
fn closest<'a>(value: &str, candidates: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    let lower = value.to_ascii_lowercase();
    candidates
        .into_iter()
        .map(|c| (edit_distance(&lower, &c.to_ascii_lowercase()), c))
        .min()
        .filter(|&(d, _)| d <= 3)
        .map(|(_, c)| c)
}

/// ` (did you mean `x`?)` after an unknown name, or nothing.
fn did_you_mean<'a>(value: &str, candidates: impl IntoIterator<Item = &'a str>) -> String {
    closest(value, candidates).map_or(String::new(), |c| format!(" (did you mean `{c}`?)"))
}

/// `write!`/`writeln!` into the command's stdout; a failed write (closed
/// pipe, full disk) ends the command with `error: stdout: …`.
macro_rules! out {
    ($out:expr, $($arg:tt)*) => { write!($out, $($arg)*).map_err(|e| format!("stdout: {e}"))? };
}
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => { writeln!($out, $($arg)*).map_err(|e| format!("stdout: {e}"))? };
}

/// The option-selected recorders and their `--*-out` destinations,
/// shareable with the panic hook: both the normal exit path and a
/// mid-run panic must flush the same files, whichever comes first.
struct Sinks {
    stats: Option<Arc<chc_obs::StatsRecorder>>,
    trace: Option<Arc<chc_obs::TraceRecorder>>,
    audit: Option<Arc<chc_obs::AuditRecorder>>,
    profile: Option<Arc<chc_obs::ProfileRecorder>>,
    /// Only under `chc profile`, which then writes the enriched
    /// `--profile-out` document and the *sampled* `--flame-out` stacks
    /// itself; the files are only flushed here when a panic kept that
    /// from happening.
    sampler: Option<Arc<chc_obs::SpanSampler>>,
    /// The command line's options, for the `--*-out` paths.
    opts: Vec<(&'static str, Option<String>)>,
    mem_done: AtomicBool,
    flushed: AtomicBool,
}

impl Sinks {
    /// The recorders `args` asks for; a `sampling` interval means `chc
    /// profile`, whose attribution recorder keeps `label_cap` labels.
    fn new(args: &Args, label_cap: usize, sampling: Option<Duration>) -> Sinks {
        let profiling = sampling.is_some();
        Sinks {
            stats: (args.flag("--trace") || args.flag("--stats") || args.flag("--stats-out"))
                .then(|| Arc::new(chc_obs::StatsRecorder::new())),
            trace: (args.flag("--trace-out") || (args.flag("--flame-out") && !profiling))
                .then(|| Arc::new(chc_obs::TraceRecorder::new())),
            audit: (args.flag("--audit-out") || args.flag("--audit-summary"))
                .then(|| Arc::new(chc_obs::AuditRecorder::new())),
            profile: (args.flag("--profile-out") || profiling)
                .then(|| Arc::new(chc_obs::ProfileRecorder::with_cap(label_cap))),
            sampler: sampling.map(|interval| Arc::new(chc_obs::SpanSampler::start(interval))),
            opts: args.opts.clone(),
            mem_done: AtomicBool::new(false),
            flushed: AtomicBool::new(false),
        }
    }

    /// Installs the flight recorder and every selected recorder as the
    /// global recorder.
    fn install(&self, flight: Arc<chc_obs::FlightRecorder>) {
        let sinks: Vec<Arc<dyn chc_obs::Recorder>> = [
            Some(flight.clone() as Arc<dyn chc_obs::Recorder>),
            self.stats.clone().map(|r| r as _),
            self.trace.clone().map(|r| r as _),
            self.audit.clone().map(|r| r as _),
            self.profile.clone().map(|r| r as _),
            self.sampler.clone().map(|r| r as _),
        ]
        .into_iter()
        .flatten()
        .collect();
        chc_obs::set_global(if sinks.len() == 1 {
            flight
        } else {
            Arc::new(chc_obs::FanoutRecorder::new(sinks))
        });
    }

    /// Mirrors the tracking allocator's totals into the installed
    /// recorders as `mem.*` counters, once, while the global recorder
    /// is still up (call before [`chc_obs::clear_global`]).
    fn record_mem_counters(&self) {
        if !self.mem_done.swap(true, Ordering::SeqCst) {
            chc_obs::memalloc::record_counters();
        }
    }

    /// Writes every configured `--*-out` file, once; later calls are
    /// no-ops, so the panic hook and the normal exit path can race
    /// safely. Returns the write errors.
    fn flush_files(&self, on_panic: bool) -> Vec<String> {
        if self.flushed.swap(true, Ordering::SeqCst) {
            return Vec::new();
        }
        let mut errs = Vec::new();
        let mut write = |opt: &str, body: String| {
            // A repeated option writes to its last path.
            let given = self.opts.iter().rev().find(|(n, _)| *n == opt);
            if let Some(path) = given.and_then(|(_, path)| path.as_ref()) {
                if let Err(e) = std::fs::write(path, body) {
                    errs.push(format!("{path}: {e}"));
                }
            }
        };
        if let Some(r) = &self.stats {
            write("--stats-out", r.to_json_lines());
        }
        if let Some(r) = &self.trace {
            write("--trace-out", r.to_chrome_trace());
            write("--flame-out", r.to_folded_stacks());
        }
        if let Some(r) = &self.audit {
            write("--audit-out", r.to_json_lines());
        }
        if self.sampler.is_none() || on_panic {
            if let Some(r) = &self.profile {
                write("--profile-out", r.to_json().render() + "\n");
            }
        }
        errs
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    chc_obs::flight::set_context("bin", concat!("chc ", env!("CARGO_PKG_VERSION")));
    chc_obs::flight::set_context("argv", &raw.join(" "));
    let parsed = parse_argv(raw).and_then(|args| {
        let watchdog = args.get("--watchdog", parse_duration)?;
        // `profile` sizes the recorders it owns, so its options for them
        // are read before anything is installed.
        let profiling = args.cmd.name == "profile";
        let default_cap = if profiling {
            4096
        } else {
            chc_obs::profile::DEFAULT_LABEL_CAP
        };
        let label_cap = args.parse("--label-cap")?.unwrap_or(default_cap);
        let interval = args.get("--interval", parse_duration)?;
        let sampling = profiling.then(|| interval.unwrap_or(Duration::from_micros(250)));
        let sinks = Arc::new(Sinks::new(&args, label_cap, sampling));
        Ok((args, watchdog, sinks))
    });
    let (args, watchdog, sinks) = match parsed {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    // The black box is always on — the point of a flight recorder is
    // that it was running *before* anything went wrong — so every chc
    // run installs a recorder even with no options at all.
    let flight = Arc::new(chc_obs::FlightRecorder::new());
    sinks.install(flight.clone());

    // With no crash destination, panics still flush the sinks but no
    // chc-crash/1 report is written.
    let crash_path = chc_obs::flight::crash_destination(args.value("--crash-out"));
    let crash_writer = Arc::new(chc_obs::CrashWriter::new(flight, crash_path));
    {
        let hook_sinks = sinks.clone();
        let hook_crash = crash_writer.clone();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            // The global recorder is still installed mid-panic, so the
            // mem.* counters land in the flushed snapshots too.
            hook_sinks.record_mem_counters();
            match hook_crash.dump("panic", &chc_obs::flight::panic_message(info)) {
                Some(Ok(path)) => eprintln!("chc: crash report written to {}", path.display()),
                Some(Err(e)) => eprintln!("chc: failed to write crash report: {e}"),
                None => {}
            }
            for err in hook_sinks.flush_files(true) {
                eprintln!("chc: flush during panic: {err}");
            }
        }));
    }
    let mut watchdog = match watchdog {
        Some(_) if crash_writer.path().is_none() => {
            eprintln!("error: --watchdog needs --crash-out or $CHC_CRASH_DIR");
            return ExitCode::from(2);
        }
        Some(timeout) => Some(chc_obs::Watchdog::start(crash_writer.clone(), timeout)),
        None => None,
    };

    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    let outcome = run(&args, &sinks, &mut out);
    if let Some(dog) = &mut watchdog {
        dog.stop();
    }
    // Report and flush unconditionally: a failing command is exactly the
    // run whose trace and counters matter most. Human-readable reports go
    // to stderr so stdout stays machine-parseable under `--format json`.
    sinks.record_mem_counters();
    chc_obs::clear_global();
    if let Some(r) = &sinks.stats {
        if args.flag("--trace") {
            eprint!("{}", r.render_tree());
        }
        if args.flag("--stats") {
            eprint!("{}", r.render_counters());
        }
    }
    let summary = match &sinks.audit {
        Some(r) if args.flag("--audit-summary") => out.write_all(r.render_summary().as_bytes()),
        _ => Ok(()),
    };
    let stdout = summary
        .and_then(|()| out.flush())
        .map_err(|e| format!("stdout: {e}"));
    let (code, mut errors) = match outcome {
        Ok(code) => (code, stdout.err().into_iter().collect()),
        Err(msg) => (ExitCode::from(2), vec![msg]),
    };
    errors.extend(sinks.flush_files(false).into_iter().next());
    for msg in &errors {
        eprintln!("error: {msg}");
    }
    if errors.is_empty() {
        code
    } else {
        ExitCode::from(2)
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Reads and compiles a schema under the `cli.compile` span, and
/// registers it in the crash-report context, so a post-mortem names the
/// exact input that was being processed.
fn read_schema(path: &str) -> Result<(String, Schema), String> {
    let src = read(path)?;
    chc_obs::flight::set_file_context("schema", path, src.as_bytes());
    let _span = chc_obs::span(names::SPAN_CLI_COMPILE);
    let schema = compile_with_source(&src, path).map_err(|e| format!("{path}: {e}"))?;
    Ok((src, schema))
}

/// Instance data is only judged against a coherent schema: otherwise
/// print the checker's report and refuse, naming what was refused.
fn require_clean(schema: &Schema, out: &mut dyn Write, refused: &str) -> Result<(), String> {
    let report = check(schema);
    if !report.is_ok() {
        outln!(out, "{}", report.render(schema));
        return Err(format!("schema has errors; fix it before {refused}"));
    }
    Ok(())
}

/// Virtualizes `schema` and loads `data_src` into the result, with the
/// §5.6 virtual extents refreshed.
fn load_instances(schema: &Schema, data_src: &str) -> Result<(Virtualized, LoadedData), String> {
    let v = virtualize(schema).map_err(|e| e.to_string())?;
    let mut data = load_data(&v.schema, data_src).map_err(|e| e.to_string())?;
    refresh_virtual_extents(&mut data.store, &v);
    Ok((v, data))
}

/// How source-file objects are judged: they carry exactly the
/// attributes the file declares, so a missing value is a violation.
const FILE_VALIDATION: ValidationOptions = ValidationOptions {
    semantics: Semantics::Correct,
    missing: MissingPolicy::Absent,
};

fn exit_ok(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(args: &Args, sinks: &Sinks, out: &mut dyn Write) -> Result<ExitCode, String> {
    match args.cmd.name {
        "check" => run_check(args, out),
        "lint" => run_lint(args, out),
        "diff" => run_diff(args, out),
        "print" => {
            let (_, schema) = read_schema(&args.pos[0])?;
            out!(out, "{}", print_schema(&schema));
            Ok(ExitCode::SUCCESS)
        }
        "virtualize" => run_virtualize(args, out),
        "explain" => run_explain(args, out),
        "query" => run_query(args, out),
        "validate" => run_validate(args, out),
        "load" => run_load(args, out),
        "profile" => run_profile(args, sinks, out),
        "doctor" => run_doctor(args, out),
        other => unreachable!("`{other}` is in the command table but not dispatched"),
    }
}

/// `chc check`. With `--incremental --since <old.sdl>`, only classes in
/// the impact cone of the edits are re-checked and the rest of the
/// verdict is carried over from the old schema's report. The stdout
/// report is identical to a full check (the incremental accounting goes
/// to stderr), so the two modes can be diffed.
fn run_check(args: &Args, out: &mut dyn Write) -> Result<ExitCode, String> {
    let since = args.value("--since");
    if args.flag("--incremental") != since.is_some() {
        return Err("--incremental and --since <old.sdl> go together".to_string());
    }
    let path = &args.pos[0];
    let (_, schema) = read_schema(path)?;
    let _span = chc_obs::span(names::SPAN_CLI_CHECK);
    let report = match since {
        Some(old_path) => {
            let old_schema = compile_with_source(&read(old_path)?, old_path)
                .map_err(|e| format!("{old_path}: {e}"))?;
            let old_report = check(&old_schema);
            let inc = excuses::core::check_incremental(&old_schema, &old_report, &schema);
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
        let (classes, decls) = (schema.num_classes(), schema.num_attr_decls());
        outln!(
            out,
            "{path}: {classes} classes, {decls} declarations — clean"
        );
        return Ok(ExitCode::SUCCESS);
    }
    outln!(out, "{}", report.render(&schema));
    if args.flag("--explain") {
        // One derivation per diagnosed (class, attribute) site: the full
        // argument for why the site is (in)coherent.
        let mut seen = std::collections::BTreeSet::new();
        for d in &report.diagnostics {
            if seen.insert((d.class, d.attr)) {
                let derivation = explain_admissibility(&schema, d.class, d.attr);
                outln!(out, "{}", derivation.render(&schema));
            }
        }
    }
    let (errors, warnings) = (report.errors().count(), report.warnings().count());
    outln!(out, "{errors} error(s), {warnings} warning(s)");
    Ok(exit_ok(report.is_ok()))
}

/// `--format text|json` of `lint` and `diff`: whether JSON was asked for.
fn wants_json(args: &Args) -> Result<bool, String> {
    let json = args.get("--format", |v| match v {
        "json" => Ok(true),
        "text" => Ok(false),
        other => Err(format!("--format needs `text` or `json`, got `{other}`")),
    })?;
    Ok(json.unwrap_or(false))
}

/// The severity configuration from `--allow/--warn/--deny <code|name>`,
/// applied in argv order (the last option for a lint wins); `--deny
/// warnings` escalates every warning. An unknown code is an error, with
/// the closest known code or name suggested when it is plausibly a typo.
fn lint_config(args: &Args) -> Result<LintConfig, String> {
    let mut config = LintConfig::new();
    for (opt, value) in &args.opts {
        let level = match *opt {
            "--allow" => LintLevel::Allow,
            "--warn" => LintLevel::Warn,
            "--deny" => LintLevel::Deny,
            _ => continue,
        };
        let value = value.as_deref().unwrap_or_default();
        if level == LintLevel::Deny && value == "warnings" {
            config.deny_warnings = true;
            continue;
        }
        let Some(code) = LintCode::parse(value) else {
            let names = LintCode::ALL.iter().flat_map(|c| [c.code(), c.name()]);
            let hint =
                closest(value, names).map_or(String::new(), |c| format!("did you mean `{c}`? "));
            return Err(format!("unknown lint `{value}` ({hint}see docs/LINTS.md)"));
        };
        config.set(code, level);
    }
    Ok(config)
}

/// `chc lint`; with `--query`, the schema lints plus the query safety
/// analysis over a `.chq` batch file or an ad-hoc query string (only the
/// former gets a file name in locations).
fn run_lint(args: &Args, out: &mut dyn Write) -> Result<ExitCode, String> {
    let (json, config) = (wants_json(args)?, lint_config(args)?);
    let path = &args.pos[0];
    let (src, schema) = read_schema(path)?;
    let _span = chc_obs::span(names::SPAN_CLI_LINT);
    let Some(qarg) = args.value("--query") else {
        let report = excuses::lint::run(&schema, &config);
        if json {
            outln!(out, "{}", report.to_json(&schema).render());
        } else if report.findings.is_empty() {
            let classes = schema.num_classes();
            outln!(out, "{path}: {classes} classes — no lints fired");
        } else {
            let rendered = excuses::lint::render_report(&report, &schema, Some(&src));
            outln!(out, "{rendered}");
        }
        return Ok(exit_ok(report.is_ok()));
    };
    let (qtext, qfile) = if qarg.ends_with(".chq") || Path::new(qarg).is_file() {
        (read(qarg)?, Some(qarg))
    } else {
        (qarg.to_string(), None)
    };
    let v = virtualize(&schema).map_err(|e| e.to_string())?;
    let queries = parse_query_file(&v.schema, &qtext)
        .map_err(|e| format!("{}:{}: {e}", qfile.unwrap_or("<query>"), e.span))?;
    // Schema lints run over the original schema; query analysis over the
    // virtualized one. Both render against `v.schema`, which preserves
    // original class ids and the source map.
    let report = excuses::lint::run_with_queries(&schema, &v, &queries, qfile, &config);
    if json {
        outln!(out, "{}", report.to_json(&v.schema).render());
    } else if report.findings.is_empty() {
        let (classes, n) = (schema.num_classes(), queries.len());
        let plural = if n == 1 { "y" } else { "ies" };
        outln!(
            out,
            "{path}: {classes} classes, {n} quer{plural} — no lints fired"
        );
    } else {
        let rendered =
            excuses::lint::render_report_sources(&report, &v.schema, Some(&src), Some(&qtext));
        outln!(out, "{rendered}");
    }
    Ok(exit_ok(report.is_ok()))
}

/// `chc diff <old.sdl> <new.sdl>`: compile both schemas, diff them
/// semantically, and run the D-family evolution lints over the edit
/// list. Text findings render rustc-style into whichever file anchors
/// them (retired declarations quote the old file); `--format json`
/// emits the `chc-diff/1` envelope. Exit 1 when a denied finding fired.
fn run_diff(args: &Args, out: &mut dyn Write) -> Result<ExitCode, String> {
    let (json, config) = (wants_json(args)?, lint_config(args)?);
    let _span = chc_obs::span(names::SPAN_CLI_DIFF);
    let (old_path, new_path) = (&args.pos[0], &args.pos[1]);
    let (old_src, old_schema) = read_schema(old_path)?;
    let (new_src, new_schema) = read_schema(new_path)?;
    let outcome = excuses::lint::run_diff(&old_schema, &new_schema, Some(old_path), &config);
    if json {
        let doc = outcome.to_json(old_path, new_path, &new_schema);
        outln!(out, "{}", doc.render());
    } else {
        if !outcome.report.findings.is_empty() {
            let rendered = excuses::lint::render_report_sources(
                &outcome.report,
                &new_schema,
                Some(&new_src),
                Some(&old_src),
            );
            outln!(out, "{rendered}");
        }
        outln!(out, "{}", outcome.summary(old_path, new_path));
    }
    Ok(exit_ok(outcome.report.is_ok()))
}

fn run_virtualize(args: &Args, out: &mut dyn Write) -> Result<ExitCode, String> {
    let path = &args.pos[0];
    let (_, schema) = read_schema(path)?;
    let v = virtualize(&schema).map_err(|e| e.to_string())?;
    if v.virtuals.is_empty() {
        outln!(out, "{path}: no embedded excuses; nothing to virtualize");
        return Ok(ExitCode::SUCCESS);
    }
    for info in &v.virtuals {
        outln!(out, "{}", info.describe(&v.schema));
    }
    let report = check(&v.schema);
    let (ok, classes) = (report.is_ok(), v.schema.num_classes());
    let verdict = if ok { "clean" } else { "HAS ERRORS" };
    outln!(out, "virtualized schema: {classes} classes, {verdict}");
    if !ok {
        outln!(out, "{}", report.render(&v.schema));
    }
    Ok(exit_ok(ok))
}

fn run_explain(args: &Args, out: &mut dyn Write) -> Result<ExitCode, String> {
    let (_, schema) = read_schema(&args.pos[0])?;
    let class_name = &args.pos[1];
    let class = schema
        .class_by_name(class_name)
        .ok_or_else(|| format!("unknown class `{class_name}`"))?;
    let v = virtualize(&schema).map_err(|e| e.to_string())?;
    let ctx = TypeContext::with_virtuals(&v);
    let sym = |a: &String| {
        v.schema
            .sym(a)
            .ok_or_else(|| format!("unknown attribute `{a}`"))
    };
    let attrs: Vec<_> = match args.pos.get(2) {
        Some(a) => vec![sym(a)?],
        None => v.schema.applicable_attrs(class).into_iter().collect(),
    };
    for attr in attrs {
        out!(out, "{}", render_explain(&ctx, class, attr));
    }
    Ok(ExitCode::SUCCESS)
}

/// `chc query`: rows on stdout, all accounting on stderr, so `chc query
/// … | sort` sees only result values.
fn run_query(args: &Args, out: &mut dyn Write) -> Result<ExitCode, String> {
    let (_, schema) = read_schema(&args.pos[0])?;
    let _span = chc_obs::span(names::SPAN_CLI_QUERY);
    let (data_path, text) = (&args.pos[1], &args.pos[2]);
    let data_src = read(data_path)?;
    require_clean(&schema, out, "querying data")?;
    let (v, data) = load_instances(&schema, &data_src)?;
    let ctx = TypeContext::with_virtuals(&v);
    let query = parse_query(&v.schema, text).map_err(|e| format!("query:{}: {e}", e.span))?;
    let plan = match compile_query(&ctx, &query, CheckMode::Eliminate) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("query: type error: {e:?}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let result = execute(&v.schema, &data.store, &plan);
    for val in &result.values {
        outln!(out, "{}", val.render(&v.schema));
    }
    let stats = &result.stats;
    eprintln!(
        "query: {} row(s) scanned, {} emitted, {} check(s)/row, {} compile-time warning(s)",
        stats.rows_scanned,
        stats.rows_emitted,
        plan.checks_per_row(),
        plan.warnings.len() + usize::from(plan.result_may_be_absent),
    );
    if plan.result_may_be_absent {
        eprintln!(
            "query: result may be absent — {} row(s) skipped by the run-time check",
            stats.rows_skipped_by_check,
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn run_validate(args: &Args, out: &mut dyn Write) -> Result<ExitCode, String> {
    let (_, schema) = read_schema(&args.pos[0])?;
    let _span = chc_obs::span(names::SPAN_CLI_VALIDATE);
    let data_src = read(&args.pos[1])?;
    require_clean(&schema, out, "validating data")?;
    let (v, data) = load_instances(&schema, &data_src)?;
    let mut bad = 0usize;
    for (name, oid) in &data.names {
        // Ledger join key: which surrogate belongs to which source-file
        // name.
        chc_obs::event_with(
            chc_obs::EventLevel::Info,
            names::EVENT_VALIDATE_OBJECT,
            |ev| ev.field("name", name.as_str()).field("object", oid.raw()),
        );
        let violations = validate_stored(&v.schema, &data.store, FILE_VALIDATION, *oid);
        for viol in &violations {
            outln!(out, "{name}: {}", viol.render(&v.schema));
        }
        bad += usize::from(!violations.is_empty());
    }
    outln!(out, "{} object(s), {} invalid", data.names.len(), bad);
    Ok(exit_ok(bad == 0))
}

/// `chc load`: a mixed workload against a compiled `.sdl` file or a
/// generated hierarchy (`--hier`), over a data file or a synthetic
/// population.
fn run_load(args: &Args, out: &mut dyn Write) -> Result<ExitCode, String> {
    use excuses::workloads::{generate, LibraryTarget, LoadConfig, Mode, TargetOptions};

    let _span = chc_obs::span(names::SPAN_CLI_LOAD);
    let hier = args.get("--hier", HierarchyParams::parse)?;
    let mix = args.get("--mix", MixSpec::parse)?.unwrap_or_default();
    let threads = args.parse("--threads")?.unwrap_or(1);
    let ops = args.parse("--ops")?;
    let duration = args.get("--duration", parse_duration)?;
    let mode = args.get("--mode", |v| match v {
        "closed" | "open" => Ok(v == "open"),
        other => Err(format!("--mode needs `closed` or `open`, got `{other}`")),
    })?;
    let rate = args.parse("--rate")?.unwrap_or(1_000.0);
    let think = args.get("--think", parse_duration)?.unwrap_or_default();
    let seed = args.parse("--seed")?.unwrap_or(0xC_10AD);
    let epsilon = args.get("--epsilon", |v| match v.parse::<f64>() {
        Ok(eps) if (0.0..=1.0).contains(&eps) => Ok(eps),
        Ok(eps) => Err(format!("--epsilon must be in [0, 1], got {eps}")),
        Err(e) => Err(format!("--epsilon: {e}")),
    })?;
    let populate = args.parse("--populate")?.unwrap_or(20);
    let window = args.get("--window", parse_duration)?.unwrap_or_default();
    let report_path = args.value("--report");
    // `--rate` implies the open mode; the later of it and `--mode` wins,
    // as does the later of `--ops` and `--duration`.
    let open = args.last_of(&["--mode", "--rate"]) == Some("--rate") || mode == Some(true);
    let stop = match (args.last_of(&["--ops", "--duration"]), ops, duration) {
        (Some("--ops"), Some(n), _) => StopRule::Ops(n),
        (_, _, Some(d)) => StopRule::Duration(d),
        _ => StopRule::Duration(Duration::from_secs(2)),
    };

    // Schema: a generated hierarchy (`--hier`) or a compiled .sdl file.
    let (schema, default_id) = match (&hier, args.pos.first()) {
        (Some(params), _) => (generate(params).schema, "hier"),
        (None, Some(path)) => {
            let (_, schema) = read_schema(path)?;
            require_clean(&schema, out, "load-testing")?;
            let stem = Path::new(path).file_stem().and_then(|s| s.to_str());
            (schema, stem.unwrap_or("load"))
        }
        (None, None) => return Err("load needs a schema file or --hier".to_string()),
    };

    // Target: load a data file if given, else populate synthetically.
    // Source-file objects carry exactly the attributes the file declares,
    // so missing values are violations (as in `chc validate`); populated
    // objects are always total.
    let opts = |missing: MissingPolicy| TargetOptions {
        epsilon: epsilon.unwrap_or(0.05),
        validation: ValidationOptions {
            semantics: Semantics::Correct,
            missing,
        },
        ..TargetOptions::default()
    };
    let target = match args.pos.get(1) {
        Some(data_path) => {
            let (v, data) = load_instances(&schema, &read(data_path)?)?;
            let objects = data.names.iter().map(|(_, oid)| *oid).collect();
            LibraryTarget::new(v, data.store, objects, opts(MissingPolicy::Absent))
        }
        None => LibraryTarget::from_schema(&schema, populate, seed, opts(MissingPolicy::Vacuous))?,
    };

    let cfg = LoadConfig {
        id: args.value("--id").unwrap_or(default_id).to_string(),
        mix,
        mode: if open {
            Mode::Open { threads, rate }
        } else {
            Mode::Closed { threads, think }
        },
        stop,
        seed,
        window,
        ..LoadConfig::default()
    };
    let summary = excuses::workloads::run_load(&target, &cfg);

    // Accounting to stderr (the `chc query` convention), a one-line
    // result to stdout, JSON lines to $CHC_BENCH_JSON, HTML to --report.
    eprint!("{}", summary.render_text());
    let bench_json = std::env::var("CHC_BENCH_JSON").unwrap_or_default();
    if let Some(path) = Some(bench_json).filter(|p| !p.is_empty()) {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(summary.to_bench_lines().as_bytes()))
            .map_err(|e| format!("CHC_BENCH_JSON={path}: {e}"))?;
    }
    if let Some(path) = report_path {
        let html = excuses::workloads::driver::report::render_html(&summary);
        std::fs::write(path, html).map_err(|e| format!("{path}: {e}"))?;
    }
    let report_note = match report_path {
        Some(p) => format!("report written to {p}"),
        None => "no report file (--report <out.html>)".to_string(),
    };
    outln!(
        out,
        "load: {} ops in {:.2}s ({:.0} ops/s), p95 {} — {report_note}",
        summary.total_ops,
        summary.elapsed.as_secs_f64(),
        summary.throughput(),
        chc_obs::format_ns(summary.overall.p95),
    );
    Ok(ExitCode::SUCCESS)
}

/// `chc profile`: runs the workload under the attribution recorder and
/// the span-stack sampler, then reports: a per-class hot-spot table and
/// the duplicate-work ratios on stderr, a one-line summary on stdout, the
/// `chc-profile/1` JSON document to `--profile-out`, and the *sampled*
/// folded stacks to `--flame-out`.
fn run_profile(args: &Args, sinks: &Sinks, out: &mut dyn Write) -> Result<ExitCode, String> {
    let (Some(profile), Some(sampler)) = (&sinks.profile, &sinks.sampler) else {
        unreachable!("`chc profile` always installs the attribution recorder and the sampler");
    };
    let workload = args.pos[0].as_str();
    let (schema_path, data, query) = (args.pos.get(1), args.pos.get(2), args.pos.get(3));
    let hier = args.get("--hier", HierarchyParams::parse)?;
    let top = args.parse("--top")?.unwrap_or(10);
    let (has_schema, usage) = (hier.is_some() || schema_path.is_some(), args.cmd.usage);
    match workload {
        "check" | "validate" | "query" if !has_schema => {
            return Err("profile needs a schema file or --hier".to_string())
        }
        "validate" if data.is_none() => return Err("profile validate needs a data file".into()),
        "query" if data.is_none() || query.is_none() => {
            return Err("profile query needs a data file and a query string".to_string())
        }
        "check" | "validate" | "query" => {}
        other => {
            return Err(format!(
                "unknown profile workload `{other}`\nusage: chc {usage}"
            ))
        }
    }

    let span = chc_obs::span(names::SPAN_CLI_PROFILE);
    let (schema, source_name) = match (&hier, schema_path) {
        (Some(params), _) => (
            excuses::workloads::generate(params).schema,
            format!("--hier classes={}", params.classes),
        ),
        (None, Some(path)) => (read_schema(path)?.1, path.clone()),
        (None, None) => unreachable!("checked above"),
    };
    // The workload itself. Diagnostics are counted, not printed — the
    // subject here is cost, and stdout stays one machine-greppable line.
    let note = match (workload, data) {
        ("validate" | "query", Some(data_path)) => {
            let data_src = read(data_path)?;
            let refused = if workload == "query" {
                "querying data"
            } else {
                "validating data"
            };
            require_clean(&schema, &mut std::io::sink(), refused)?;
            let (v, data) = load_instances(&schema, &data_src)?;
            match query.filter(|_| workload == "query") {
                Some(text) => {
                    let ctx = TypeContext::with_virtuals(&v);
                    let query = parse_query(&v.schema, text)
                        .map_err(|e| format!("query:{}: {e}", e.span))?;
                    let plan = compile_query(&ctx, &query, CheckMode::Eliminate)
                        .map_err(|e| format!("query type error: {e:?}"))?;
                    let stats = execute(&v.schema, &data.store, &plan).stats;
                    let (scanned, emitted) = (stats.rows_scanned, stats.rows_emitted);
                    format!("{scanned} row(s) scanned, {emitted} emitted")
                }
                None => {
                    let invalid = |oid| {
                        !validate_stored(&v.schema, &data.store, FILE_VALIDATION, oid).is_empty()
                    };
                    let bad = data.names.iter().filter(|(_, oid)| invalid(*oid)).count();
                    format!("{} object(s), {bad} invalid", data.names.len())
                }
            }
        }
        _ => {
            let report = check(&schema);
            let (errors, warnings) = (report.errors().count(), report.warnings().count());
            format!("{errors} error(s), {warnings} warning(s)")
        }
    };
    drop(span);
    sampler.stop();

    let class_name =
        |label: u64| schema.class_name(excuses::model::ClassId::from_raw(label as u32));
    eprint!(
        "profile: {workload} {source_name} — {} classes ({note})\n{}",
        schema.num_classes(),
        profile.render_hot_spots(sampler, top, args.flag("--mem"), class_name),
    );
    if let Some(path) = args.value("--flame-out") {
        std::fs::write(path, sampler.to_folded_stacks()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = args.value("--profile-out") {
        let doc = profile.to_profile_json(workload, sampler, class_name);
        let text = doc.render();
        // Self-check: the document must parse back through chc_obs::json
        // before it is allowed on disk — an unparseable profile is a bug.
        chc_obs::json::parse(&text)
            .map_err(|e| format!("internal error: profile JSON does not round-trip: {e}"))?;
        std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    let summary = profile.render_summary(workload, schema.num_classes(), sampler);
    outln!(out, "{summary}");
    Ok(ExitCode::SUCCESS)
}

/// `chc doctor <crash.json>`: render a `chc-crash/1` report (written by
/// the panic hook or the `--watchdog` stall detector) human-readably.
/// The rendering is the command's *output*, so it goes to stdout.
fn run_doctor(args: &Args, out: &mut dyn Write) -> Result<ExitCode, String> {
    let path = &args.pos[0];
    let doc =
        chc_obs::json::parse(&read(path)?).map_err(|e| format!("{path}: not valid JSON: {e}"))?;
    let tag = doc.get("schema").and_then(|v| v.as_str());
    if tag != Some("chc-crash/1") {
        let found = tag.map_or("missing `schema` tag".into(), |t| {
            format!("unsupported schema `{t}`")
        });
        return Err(format!("{path}: {found} (want chc-crash/1)"));
    }
    out!(out, "{}", chc_obs::flight::render_crash_report(&doc));
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_module_doc_shows_every_usage_line() {
        // The doc wraps long usage lines; compare with whitespace folded.
        let fold = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
        let doc: Vec<&str> = include_str!("chc.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//!"))
            .collect();
        let doc = fold(&doc.join(" "));
        let usages = COMMANDS.iter().map(|c| format!("chc {}", c.usage));
        for usage in usages.chain([GLOBAL_USAGE.to_string()]) {
            assert!(doc.contains(&fold(&usage)), "module doc lacks `{usage}`");
        }
    }

    #[test]
    fn every_option_is_in_its_usage_and_agrees_on_taking_a_value() {
        let lists = || std::iter::once(GLOBAL_OPTS).chain(COMMANDS.iter().map(|c| c.opts));
        let usages = std::iter::once(GLOBAL_USAGE).chain(COMMANDS.iter().map(|c| c.usage));
        for (opts, usage) in lists().zip(usages) {
            for name in opt_names(opts) {
                assert!(usage.contains(name), "`{usage}` does not show {name}");
                let takes = lookup(opts, name).map(|(_, v)| v);
                assert!(lists().all(|o| lookup(o, name).is_none_or(|(_, v)| Some(v) == takes)));
            }
        }
    }
}
