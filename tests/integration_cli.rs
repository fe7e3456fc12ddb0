//! End-to-end tests of the `chc` command-line front end.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn write_schema(name: &str, body: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("chc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, body).unwrap();
    path
}

fn chc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chc"))
        .args(args)
        .output()
        .expect("chc runs")
}

const CLEAN: &str = "
class Physician;
class Psychologist;
class Patient with treatedBy: Physician;
class Alcoholic is-a Patient with
    treatedBy: Psychologist excuses treatedBy on Patient;
";

const BROKEN: &str = "
class Physician;
class Psychologist;
class Patient with treatedBy: Physician;
class Alcoholic is-a Patient with treatedBy: Psychologist;
";

#[test]
fn check_clean_schema_exits_zero() {
    let path = write_schema("clean.sdl", CLEAN);
    let out = chc(&["check", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean"));
}

#[test]
fn check_broken_schema_exits_nonzero_and_names_the_site() {
    let path = write_schema("broken.sdl", BROKEN);
    let out = chc(&["check", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Alcoholic.treatedBy"), "{stdout}");
    assert!(stdout.contains("excuses treatedBy on Patient"), "{stdout}");
}

#[test]
fn print_emits_reparsable_canonical_form() {
    let path = write_schema("print.sdl", CLEAN);
    let out = chc(&["print", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    let reprinted = write_schema("print2.sdl", &text);
    let out2 = chc(&["print", reprinted.to_str().unwrap()]);
    assert_eq!(text, String::from_utf8_lossy(&out2.stdout));
}

#[test]
fn explain_prints_the_conditional_type() {
    let path = write_schema("explain.sdl", CLEAN);
    let out = chc(&["explain", path.to_str().unwrap(), "Patient", "treatedBy"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("Physician + Psychologist/Alcoholic"),
        "{stdout}"
    );
}

#[test]
fn lint_query_flags_unsafe_and_accepts_guarded() {
    let hospital = write_schema(
        "analyze.sdl",
        "
        class Address with city: String; state: {'NJ};
        class Hospital with location: Address;
        class Patient with treatedAt: Hospital;
        class Tubercular_Patient is-a Patient with
            treatedAt: Hospital [
                location: Address [
                    state: None excuses state on Address
                ]
            ];
        ",
    );
    let out = chc(&[
        "lint",
        hospital.to_str().unwrap(),
        "--query",
        "for p in Patient emit p.treatedAt.location.state",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("may be absent"), "{stdout}");

    let out = chc(&[
        "lint",
        hospital.to_str().unwrap(),
        "--query",
        "for p in Patient where p not in Tubercular_Patient emit p.treatedAt.location.state",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no type error can occur"), "{stdout}");
    assert!(!stdout.contains("warning["), "{stdout}");
}

#[test]
fn lint_query_rejects_ill_typed_queries() {
    let path = write_schema("illtyped.sdl", CLEAN);
    let out = chc(&[
        "lint",
        path.to_str().unwrap(),
        "--query",
        "for p in Physician emit p.treatedBy",
        "--deny",
        "warnings",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("type error"));
}

#[test]
fn bad_usage_and_bad_files_fail_cleanly() {
    let out = chc(&["frobnicate", "/nonexistent"]);
    assert_eq!(out.status.code(), Some(2));
    // The command is judged before any file is opened.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command `frobnicate`"), "{stderr}");
    assert!(!stderr.contains("/nonexistent"), "{stderr}");
    let out = chc(&["check", "/nonexistent.sdl"]);
    assert_eq!(out.status.code(), Some(2));
    let bad = write_schema("syntax.sdl", "class A with x 1..2");
    let out = chc(&["check", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("expected"));
}

#[test]
fn validate_loads_data_and_judges_it() {
    let schema = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/data/hospital.sdl");
    let data = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/data/hospital.chd");
    let out = chc(&["validate", schema.to_str().unwrap(), data.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("0 invalid"), "{stdout}");

    // Break the data: a plain patient treated by the psychologist.
    let bad = write_schema(
        "bad.chd",
        r#"
        paul : Psychologist { name = "Paul", age = 44 }
        bern : Address { street = "Main", city = "Bern", state = 'NJ }
        gen  : Hospital { accreditation = 'Federal, location = @bern }
        ann  : Patient { name = "Ann", age = 30, treatedBy = @paul, treatedAt = @gen }
        "#,
    );
    let out = chc(&["validate", schema.to_str().unwrap(), bad.to_str().unwrap()]);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ann:"), "{stdout}");
    assert!(stdout.contains("Patient.treatedBy"), "{stdout}");
}

#[test]
fn malformed_record_values_are_positioned_errors_not_crashes() {
    use excuses::extent::data::MAX_RECORD_DEPTH;
    let schema = write_schema(
        "records.sdl",
        "class T with home: [zip: 1..99999]; age: 1..120;",
    );
    let validate = |name: &str, data: &str| {
        let path = write_schema(name, data);
        let out = chc(&["validate", schema.to_str().unwrap(), path.to_str().unwrap()]);
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        (out.status.code(), stdout, stderr)
    };

    // A record value naming a field twice is a syntax error, never the
    // duplicate-field assertion in `Value::record` (exit 101).
    let (code, _, stderr) = validate("dup-field.chd", "\nt1 : T { home = [zip = 1, zip = 2] }\n");
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("line 2: field `zip` given twice in record"),
        "{stderr}"
    );
    // A top-level attribute given twice keeps its last value.
    let (code, stdout, stderr) = validate("dup-attr.chd", "t1 : T { age = 3, age = 200 }\n");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stdout.contains("`T.age` with value Int(200)"), "{stdout}");

    // Nesting: a value at the limit loads and is judged; one level more
    // is a positioned error, and so is a value deep enough to overflow
    // the stack of a parser without the limit (exit 134).
    let nested = |depth: usize| {
        format!(
            "t1 : T {{ home = {}1{} }}\n",
            "[zip = ".repeat(depth),
            "]".repeat(depth)
        )
    };
    let (code, stdout, stderr) = validate("deep-limit.chd", &nested(MAX_RECORD_DEPTH));
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stdout.ends_with("1 object(s), 1 invalid\n"), "{stderr}");
    for (name, depth) in [
        ("deep-over.chd", MAX_RECORD_DEPTH + 1),
        ("deep-20000.chd", 20_000),
    ] {
        let (code, _, stderr) = validate(name, &nested(depth));
        assert_eq!(code, Some(2), "{name}: {stderr}");
        let want = format!("line 1: record value nested deeper than {MAX_RECORD_DEPTH} levels");
        assert!(stderr.contains(&want), "{name}: {stderr}");
    }
}

#[test]
fn check_with_stats_prints_nonzero_counters() {
    let schema = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/data/hospital.sdl");
    let out = chc(&["check", "--stats", schema.to_str().unwrap()]);
    assert!(out.status.success());
    // Reports go to stderr; stdout stays the command's own output.
    let stderr = String::from_utf8_lossy(&out.stderr);
    let counter = |name: &str| -> u64 {
        stderr
            .lines()
            .find(|l| l.trim_start().starts_with(name))
            .unwrap_or_else(|| panic!("no `{name}` row in:\n{stderr}"))
            .split_whitespace()
            .last()
            .unwrap()
            .parse()
            .unwrap()
    };
    assert!(counter("subtype.queries") > 0, "{stderr}");
    assert!(counter("check.classes") > 0, "{stderr}");
}

#[test]
fn validate_with_trace_prints_span_tree() {
    let schema = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/data/hospital.sdl");
    let data = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/data/hospital.chd");
    let out = chc(&[
        "validate",
        "--trace",
        schema.to_str().unwrap(),
        data.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    // The span tree names the command phases, with timings, on stderr.
    assert!(stderr.contains("cli.compile"), "{stderr}");
    assert!(stderr.contains("cli.validate"), "{stderr}");
    assert!(stderr.contains("check.schema"), "{stderr}");
    assert!(
        stderr.contains("us") || stderr.contains("ms") || stderr.contains("ns"),
        "{stderr}"
    );
}

#[test]
fn global_flags_accepted_before_and_after_subcommand() {
    let path = write_schema("order.sdl", CLEAN);
    let p = path.to_str().unwrap();
    // `chc --stats check s.sdl` and `chc check --stats s.sdl` are the
    // same command; value-carrying flags move around identically.
    let before = chc(&["--stats", "check", p]);
    let after = chc(&["check", "--stats", p]);
    assert!(before.status.success() && after.status.success());
    assert_eq!(before.stdout, after.stdout);
    assert_eq!(before.stderr, after.stderr);
    assert!(String::from_utf8_lossy(&after.stderr).contains("check.classes"));

    let out_dir = std::env::temp_dir().join("chc-cli-tests");
    let t1 = out_dir.join("order1.json");
    let t2 = out_dir.join("order2.json");
    let a = chc(&["--trace-out", t1.to_str().unwrap(), "check", p]);
    let b = chc(&["check", "--trace-out", t2.to_str().unwrap(), p]);
    assert!(a.status.success() && b.status.success());
    assert!(t1.exists() && t2.exists());
    // The `=` spelling works too, and a missing value is a clean error.
    let eq = chc(&[&format!("--trace-out={}", t1.to_str().unwrap()), "check", p]);
    assert!(eq.status.success());
    let missing = chc(&["check", p, "--trace-out"]);
    assert_eq!(missing.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&missing.stderr).contains("--trace-out"));
}

#[test]
fn flags_can_appear_anywhere_and_compose() {
    let path = write_schema("flags.sdl", CLEAN);
    let out = chc(&["--trace", "check", "--stats", path.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("cli.check"), "{stderr}");
    assert!(stderr.contains("check.classes"), "{stderr}");

    // Without the flags, no observability output sneaks in.
    let out = chc(&["check", path.to_str().unwrap()]);
    let all = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!all.contains("cli.check"), "{all}");
    assert!(!all.contains("check.classes"), "{all}");
}

#[test]
fn stats_report_keeps_json_stdout_machine_parseable() {
    // The whole point of stderr routing: `chc lint --format json --stats`
    // must emit a single JSON document on stdout, nothing else.
    let path = write_schema("pure.sdl", CLEAN);
    let out = chc(&[
        "lint",
        path.to_str().unwrap(),
        "--format",
        "json",
        "--stats",
        "--trace",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parsed = chc_obs::json::parse(&stdout).expect("stdout is pure JSON");
    assert_eq!(
        parsed.get("tool").and_then(|v| v.as_str()),
        Some("chc-lint")
    );
    // …while the reports still arrive, on stderr.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cli.lint"), "{stderr}");
    assert!(stderr.contains("lint.classes"), "{stderr}");
}

#[test]
fn query_emits_rows_on_stdout_and_accounting_on_stderr() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/data");
    let schema = dir.join("hospital.sdl");
    let data = dir.join("hospital.chd");
    let out = chc(&[
        "query",
        schema.to_str().unwrap(),
        data.to_str().unwrap(),
        "for p in Patient emit p.name",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Rows only on stdout — one per line, pipeable.
    assert_eq!(stdout.lines().count(), 3, "{stdout}");
    for name in ["Ann", "Bob", "Tom"] {
        assert!(stdout.contains(name), "{stdout}");
    }
    assert!(!stdout.contains("scanned"), "{stdout}");
    // All accounting on stderr.
    assert!(stderr.contains("3 row(s) scanned"), "{stderr}");
    assert!(stderr.contains("3 emitted"), "{stderr}");
    assert!(stderr.contains("0 compile-time warning(s)"), "{stderr}");
}

#[test]
fn query_into_a_closed_pipe_is_an_error_exit_not_a_panic() {
    // `chc … | head` closes the pipe early. Every command writes stdout
    // through one buffered writer, so each one's failed write (here the
    // read end is closed before the command starts) ends in `error:
    // stdout: …` and exit 2: no panic, and no crash report.
    let crash_dir = std::env::temp_dir().join("chc-cli-tests/closed-pipe-crashes");
    let _ = std::fs::remove_dir_all(&crash_dir);
    std::fs::create_dir_all(&crash_dir).unwrap();
    let schema = write_schema("pipe.sdl", "class Patient with name: String;");
    let name = "x".repeat(100);
    let data: String = (0..4_000)
        .map(|i| format!("p{i} : Patient {{ name = \"{name}{i}\" }}\n"))
        .collect();
    let data_path = write_schema("pipe.chd", &data);
    let (s, d) = (schema.to_str().unwrap(), data_path.to_str().unwrap());
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let example = |f: &str| dir.join("examples/data").join(f).to_str().unwrap().to_string();
    let (hospital, evolved) = (example("hospital.sdl"), example("hospital-evolved.sdl"));
    let crash = dir.join("tests/fixtures/crash/load-panic.json");
    let cases: [&[&str]; 9] = [
        &["query", s, d, "for p in Patient emit p.name"],
        &["check", &hospital],
        &["lint", &hospital],
        &["diff", &hospital, &evolved],
        &["print", &hospital],
        &["virtualize", &hospital],
        &["explain", &hospital, "Tubercular_Patient"],
        &["validate", s, d],
        &["doctor", crash.to_str().unwrap()],
    ];
    for args in cases {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_chc"))
            .args(args)
            .env("CHC_CRASH_DIR", &crash_dir)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("chc runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("error: stdout:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let crashes: Vec<_> = std::fs::read_dir(&crash_dir).unwrap().collect();
    assert!(crashes.is_empty(), "crash reports written: {crashes:?}");
}

#[test]
fn query_reports_skipped_rows_when_the_result_may_be_absent() {
    // Tom is tubercular: his sanatorium's address has no state, so the
    // surviving run-time check drops his row and stderr says why.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/data");
    let schema = dir.join("hospital.sdl");
    let data = dir.join("hospital.chd");
    let out = chc(&[
        "query",
        schema.to_str().unwrap(),
        data.to_str().unwrap(),
        "for p in Patient emit p.treatedAt.location.state",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stdout.lines().count(), 2, "{stdout}");
    assert!(stderr.contains("3 row(s) scanned, 2 emitted"), "{stderr}");
    assert!(stderr.contains("1 compile-time warning(s)"), "{stderr}");
    assert!(stderr.contains("result may be absent"), "{stderr}");
    assert!(stderr.contains("1 row(s) skipped"), "{stderr}");
}

#[test]
fn query_rejects_ill_typed_queries_with_a_failing_exit() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/data");
    let schema = dir.join("hospital.sdl");
    let data = dir.join("hospital.chd");
    let out = chc(&[
        "query",
        schema.to_str().unwrap(),
        data.to_str().unwrap(),
        "for h in Hospital emit h.treatedBy",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("type error"));
}

#[test]
fn load_runs_a_mixed_workload_and_writes_all_three_sinks() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/data");
    let schema = dir.join("hospital.sdl");
    let data = dir.join("hospital.chd");
    let tmp = std::env::temp_dir().join("chc-cli-tests");
    std::fs::create_dir_all(&tmp).unwrap();
    let report = tmp.join("load-report.html");
    let ndjson = tmp.join("load-bench.ndjson");
    let _ = std::fs::remove_file(&report);
    let _ = std::fs::remove_file(&ndjson);
    let out = Command::new(env!("CARGO_BIN_EXE_chc"))
        .args([
            "load",
            schema.to_str().unwrap(),
            data.to_str().unwrap(),
            "--mix",
            "validate=70,query=20,insert=9,evolve=1",
            "--threads",
            "2",
            "--ops",
            "400",
            "--seed",
            "11",
            "--report",
            report.to_str().unwrap(),
        ])
        .env("CHC_BENCH_JSON", ndjson.to_str().unwrap())
        .output()
        .expect("chc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("400 ops"), "{stdout}");
    // Sink 1: the stderr table with per-op percentiles.
    let stderr = String::from_utf8_lossy(&out.stderr);
    for needed in ["validate", "p99.9", "ops/s", "all"] {
        assert!(stderr.contains(needed), "stderr missing {needed}: {stderr}");
    }
    // Sink 2: chc-load/1 lines appended to $CHC_BENCH_JSON.
    let lines = std::fs::read_to_string(&ndjson).unwrap();
    assert!(lines.contains("\"schema\":\"chc-load/1\""), "{lines}");
    assert!(lines.contains("\"id\":\"load/hospital/all\""), "{lines}");
    assert!(lines.contains("\"samples\":400"), "{lines}");
    // Sink 3: the self-contained HTML report.
    let html = std::fs::read_to_string(&report).unwrap();
    assert!(html.contains("table class=\"summary\""), "report has no summary table");
    assert!(html.contains("<svg"), "report has no charts");
    assert!(!html.contains("<script"), "report must not need JS");
}

#[test]
fn load_generates_a_hierarchy_and_rejects_bad_mixes() {
    let out = Command::new(env!("CARGO_BIN_EXE_chc"))
        .args(["load", "--hier", "classes=30,seed=3", "--ops", "100", "--seed", "5"])
        .output()
        .expect("chc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("100 ops"));

    let out = chc(&["load", "--hier", "classes=10", "--mix", "teleport=1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown mix kind"));
}

const EVOLVED_OLD: &str = "
class Person with age: 1..120;
class Patient is-a Person with treatedBy: Person;
";

const EVOLVED_NEW: &str = "
class Person with age: 21..65;
class Patient is-a Person with treatedBy: Person;
";

#[test]
fn diff_reports_edits_and_exits_on_denied_findings() {
    let old = write_schema("diff-old.sdl", EVOLVED_OLD);
    let new = write_schema("diff-new.sdl", EVOLVED_NEW);
    // A narrowing under stored objects: D001 warns but does not fail.
    let out = chc(&["diff", old.to_str().unwrap(), new.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("warning[D001]"), "{stdout}");
    assert!(stdout.contains("1 refining"), "{stdout}");
    assert!(stdout.contains("2 class(es) to re-check"), "{stdout}");
    // Under --deny warnings the same diff fails.
    let out = chc(&[
        "diff",
        old.to_str().unwrap(),
        new.to_str().unwrap(),
        "--deny",
        "warnings",
    ]);
    assert!(!out.status.success());
    // An explicit --allow survives the blanket deny.
    let out = chc(&[
        "diff",
        old.to_str().unwrap(),
        new.to_str().unwrap(),
        "--deny",
        "warnings",
        "--allow",
        "breaking-narrowing",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn diff_json_wraps_the_lint_report_in_the_chc_diff_envelope() {
    let old = write_schema("diffj-old.sdl", EVOLVED_OLD);
    let new = write_schema("diffj-new.sdl", EVOLVED_NEW);
    let out = chc(&[
        "diff",
        old.to_str().unwrap(),
        new.to_str().unwrap(),
        "--format",
        "json",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"schema\":\"chc-diff/1\""), "{stdout}");
    assert!(stdout.contains("\"schema\":\"chc-lint/1\""), "{stdout}");
    assert!(stdout.contains("\"kind\":\"diff\""), "{stdout}");
    assert!(stdout.contains("\"refining\":1"), "{stdout}");
}

#[test]
fn check_incremental_matches_the_full_check_byte_for_byte() {
    let old = write_schema("inc-old.sdl", EVOLVED_OLD);
    let new = write_schema("inc-new.sdl", EVOLVED_NEW);
    let full = chc(&["check", new.to_str().unwrap()]);
    let inc = chc(&[
        "check",
        new.to_str().unwrap(),
        "--incremental",
        "--since",
        old.to_str().unwrap(),
    ]);
    assert_eq!(full.status.code(), inc.status.code());
    assert_eq!(full.stdout, inc.stdout, "incremental stdout must be identical");
    let stderr = String::from_utf8_lossy(&inc.stderr);
    assert!(stderr.contains("incremental:"), "{stderr}");
    // --incremental without --since (and vice versa) is a usage error.
    let out = chc(&["check", new.to_str().unwrap(), "--incremental"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--since"));
}

#[test]
fn unknown_lint_codes_get_a_did_you_mean() {
    let path = write_schema("dym.sdl", CLEAN);
    let out = chc(&["lint", path.to_str().unwrap(), "--deny", "dead-excuze"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("did you mean `dead-excuse`?"), "{stderr}");
    // The same helper serves `chc diff`, and D codes are suggested too.
    let out = chc(&["diff", "a.sdl", "b.sdl", "--warn", "D01"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("did you mean `D001`?"), "{stderr}");
    // Nothing close: no suggestion, still an error.
    let out = chc(&["lint", path.to_str().unwrap(), "--allow", "qqqqqqqqqqqq"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown lint"), "{stderr}");
    assert!(!stderr.contains("did you mean"), "{stderr}");
}

#[test]
fn usage_errors_come_before_any_file_is_read() {
    // Each extra positional names a file that does not exist: the usage
    // error must win over the I/O error.
    let cases: [&[&str]; 4] = [
        &["validate", "/nonexistent.sdl", "/nonexistent.chd", "extra"],
        &["query", "/nonexistent.sdl", "/nonexistent.chd", "q", "extra"],
        &["print", "/nonexistent.sdl", "extra"],
        &["explain", "/nonexistent.sdl", "C", "a", "extra"],
    ];
    for args in cases {
        let out = chc(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let want = format!("unexpected {} argument `extra`", args[0]);
        assert!(stderr.contains(&want), "{args:?}: {stderr}");
        assert!(!stderr.contains("No such file"), "{args:?}: {stderr}");
    }
}

#[test]
fn command_options_are_only_accepted_by_their_commands() {
    let path = write_schema("scoped.sdl", CLEAN);
    let p = path.to_str().unwrap();
    for (args, option) in [
        (["lint", p, "--explain"], "unknown lint option `--explain`"),
        (["check", p, "--audit-summary"], "unknown check option `--audit-summary`"),
    ] {
        let out = chc(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(option), "{stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    // Before the command name, a command's own option still applies.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/data");
    let (sdl, chd) = (dir.join("quaker.sdl"), dir.join("quaker.chd"));
    let (sdl, chd) = (sdl.to_str().unwrap(), chd.to_str().unwrap());
    let before = chc(&["--audit-summary", "validate", sdl, chd]);
    let after = chc(&["validate", sdl, chd, "--audit-summary"]);
    assert!(before.status.success());
    assert_eq!(before.stdout, after.stdout);
    assert!(String::from_utf8_lossy(&before.stdout).contains("admitted by excuse"));
}

#[test]
fn misspelled_options_get_a_did_you_mean() {
    let path = write_schema("fromat.sdl", CLEAN);
    let out = chc(&["lint", path.to_str().unwrap(), "--fromat", "json"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("did you mean `--format`?"), "{stderr}");
    let out = chc(&["chek", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("did you mean `check`?"));
}

/// Load and profile runs print timings, so their stdout is compared
/// with every word that holds a digit masked.
fn digits_masked(bytes: &[u8]) -> String {
    let text = String::from_utf8_lossy(bytes);
    let mask = |w| if str::contains(w, |c: char| c.is_ascii_digit()) { "#" } else { w };
    text.split_whitespace().map(mask).collect::<Vec<_>>().join(" ")
}

#[test]
fn every_value_option_reads_the_same_as_v_and_eq_v() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let file = |f: &str| dir.join(f).to_str().unwrap().to_string();
    let (sdl, chd) = (file("examples/data/hospital.sdl"), file("examples/data/hospital.chd"));
    let evolved = file("examples/data/hospital-evolved.sdl");
    let chq = file("examples/data/hospital_queries.chq");
    let tmp = std::env::temp_dir().join("chc-cli-tests/eq");
    std::fs::create_dir_all(&tmp).unwrap();
    let out = |f: &str| tmp.join(f).to_str().unwrap().to_string();
    let crash = out("c.json");
    let load: Vec<&str> = vec!["load", &sdl, &chd, "--ops", "50", "--seed", "3"];
    let profile: Vec<&str> = vec!["profile", "check", &sdl];
    // (the option, its value, the rest of a command line that takes it)
    let cases: Vec<(&str, String, Vec<&str>)> = vec![
        ("--trace-out", out("t.json"), vec!["check", &sdl]),
        ("--flame-out", out("f.folded"), vec!["check", &sdl]),
        ("--stats-out", out("s.json"), vec!["check", &sdl]),
        ("--audit-out", out("a.jsonl"), vec!["validate", &sdl, &chd]),
        ("--profile-out", out("p.json"), vec!["check", &sdl]),
        ("--crash-out", out("c.json"), vec!["check", &sdl]),
        ("--watchdog", "30s".into(), vec!["check", &sdl, "--crash-out", &crash]),
        ("--since", evolved.clone(), vec!["check", &sdl, "--incremental"]),
        ("--format", "json".into(), vec!["lint", &sdl]),
        ("--query", chq, vec!["lint", &sdl]),
        ("--allow", "L002".into(), vec!["lint", &sdl]),
        ("--warn", "dead-excuse".into(), vec!["diff", &sdl, &evolved]),
        ("--deny", "warnings".into(), vec!["diff", &evolved, &sdl]),
        ("--mix", "validate=1,query=1".into(), load.clone()),
        ("--threads", "2".into(), load.clone()),
        ("--duration", "20ms".into(), vec!["load", &sdl]),
        ("--ops", "20".into(), vec!["load", &sdl]),
        ("--mode", "open".into(), load.clone()),
        ("--rate", "100000".into(), load.clone()),
        ("--think", "1us".into(), load.clone()),
        ("--seed", "9".into(), vec!["load", &sdl, "--ops", "50"]),
        ("--epsilon", "0.5".into(), load.clone()),
        ("--populate", "5".into(), vec!["load", &sdl, "--ops", "50"]),
        ("--window", "10ms".into(), load.clone()),
        ("--report", out("r.html"), load.clone()),
        ("--id", "eq".into(), load.clone()),
        ("--hier", "classes=20,seed=4".into(), vec!["load", "--ops", "50"]),
        ("--top", "3".into(), profile.clone()),
        ("--label-cap", "8".into(), profile.clone()),
        ("--interval", "100us".into(), profile.clone()),
    ];
    for (option, value, rest) in &cases {
        let spaced: Vec<&str> = rest.iter().copied().chain([*option, value.as_str()]).collect();
        let joined = format!("{option}={value}");
        let eq: Vec<&str> = rest.iter().copied().chain([joined.as_str()]).collect();
        let (a, b) = (chc(&spaced), chc(&eq));
        let stderr = String::from_utf8_lossy(&a.stderr);
        assert!(a.status.code().is_some_and(|c| c < 2), "{spaced:?}: {stderr}");
        assert_eq!(a.status.code(), b.status.code(), "{spaced:?} vs {eq:?}");
        if matches!(rest[0], "load" | "profile") {
            assert_eq!(digits_masked(&a.stdout), digits_masked(&b.stdout), "{eq:?}");
        } else {
            assert_eq!(a.stdout, b.stdout, "{spaced:?} vs {eq:?}");
        }
    }
}
