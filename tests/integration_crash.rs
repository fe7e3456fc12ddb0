//! End-to-end tests of the crash path: an induced panic under `chc load`
//! must still flush every requested `--*-out` sink, write a round-trippable
//! `chc-crash/1` report, and `chc doctor` must render it. Also smokes the
//! `chc profile … --mem` memory-attribution columns.

use std::path::PathBuf;
use std::process::{Command, Output};

use chc_obs::json::JsonValue;

fn chc(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_chc"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("chc runs")
}

/// A directory of one test's own, removed when the test ends, failed or
/// not.
struct TempDir(PathBuf);

impl TempDir {
    fn new(test: &str) -> TempDir {
        let dir = std::env::temp_dir()
            .join(format!("chc-crash-tests-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Drop must not panic: a directory left behind is only litter.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn num(doc: &JsonValue, key: &str) -> f64 {
    doc.get(key).and_then(JsonValue::as_f64).unwrap_or(-1.0)
}

/// The heart of the tentpole: panic mid-load, get every artifact anyway.
#[test]
fn induced_panic_flushes_sinks_and_writes_crash_report() {
    let tmp = TempDir::new("induced-panic");
    let crash = tmp.join("crash.json");
    let stats = tmp.join("crash-stats.json");
    let audit = tmp.join("crash-audit.jsonl");
    let trace = tmp.join("crash-trace.json");
    let out = chc(
        &[
            "--stats-out",
            stats.to_str().unwrap(),
            "--audit-out",
            audit.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
            "load",
            "--hier",
            "classes=60,seed=7",
            "--ops",
            "64",
            "--threads",
            "2",
            "--crash-out",
            crash.to_str().unwrap(),
        ],
        &[("CHC_CRASH_INJECT", "32")],
    );
    assert!(
        !out.status.success(),
        "an injected panic must not exit 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Satellite 1: every sink the user asked for exists and parses,
    // panic or no panic.
    let stats_doc = std::fs::read_to_string(&stats).expect("stats sink flushed on panic");
    let parsed = chc_obs::json::parse_lines(&stats_doc).expect("stats sink is valid JSONL");
    assert!(!parsed.is_empty(), "stats sink is non-empty");
    // The panic hook records the allocator totals before flushing, so the
    // snapshot must carry the mem.* counters.
    let has_mem = parsed.iter().any(|r| {
        r.get("name").and_then(JsonValue::as_str) == Some("mem.bytes.peak")
            && num(r, "value") > 0.0
    });
    assert!(has_mem, "stats snapshot has a nonzero mem.bytes.peak:\n{stats_doc}");
    let audit_doc = std::fs::read_to_string(&audit).expect("audit sink flushed on panic");
    chc_obs::json::parse_lines(&audit_doc).expect("audit sink is valid JSONL");
    let trace_doc = std::fs::read_to_string(&trace).expect("trace sink flushed on panic");
    chc_obs::json::parse(&trace_doc).expect("trace sink is valid JSON");

    // The crash report itself.
    let doc = chc_obs::json::parse(&std::fs::read_to_string(&crash).expect("crash report written"))
        .expect("crash report is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("chc-crash/1")
    );
    assert_eq!(doc.get("reason").and_then(JsonValue::as_str), Some("panic"));
    let message = doc.get("message").and_then(JsonValue::as_str).unwrap();
    assert!(
        message.contains("crash injected at op 32"),
        "message names the injection: {message}"
    );
    let flight = doc.get("flight").and_then(JsonValue::as_array).unwrap();
    assert!(!flight.is_empty(), "flight tail is non-empty");
    for e in flight {
        assert!(e.get("seq").is_some() && e.get("kind").is_some() && e.get("name").is_some());
    }
    // The main thread was inside cli.load > load.run when the worker
    // panicked — the open-span stacks must show it.
    let threads = doc.get("threads").and_then(JsonValue::as_array).unwrap();
    let stacks: Vec<Vec<&str>> = threads
        .iter()
        .map(|t| {
            t.get("stack")
                .and_then(JsonValue::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(JsonValue::as_str)
                .collect()
        })
        .collect();
    assert!(
        stacks.iter().any(|s| s.first() == Some(&"cli.load")),
        "some thread was inside cli.load: {stacks:?}"
    );
    let mem = doc.get("mem").expect("crash report has a mem snapshot");
    assert_eq!(num(mem, "installed"), 1.0, "chc runs under the tracking allocator");
    assert!(num(mem, "bytes_peak") >= num(mem, "bytes_live"));
    assert!(num(&doc, "uptime_us") > 0.0);

    // `chc doctor` renders it on stdout.
    let doc_out = chc(&["doctor", crash.to_str().unwrap()], &[]);
    assert!(
        doc_out.status.success(),
        "{}",
        String::from_utf8_lossy(&doc_out.stderr)
    );
    let rendered = String::from_utf8_lossy(&doc_out.stdout);
    for marker in [
        "chc crash report (panic)",
        "crash injected at op 32",
        "open spans at time of death:",
        "cli.load > load.run",
        "flight tail",
    ] {
        assert!(rendered.contains(marker), "doctor output has {marker:?}:\n{rendered}");
    }
}

#[test]
fn crash_dir_env_var_names_the_report() {
    let tmp = TempDir::new("crash-dir");
    let dir = &tmp.0;
    let out = chc(
        &[
            "load",
            "--hier",
            "classes=40,seed=9",
            "--ops",
            "32",
            "--threads",
            "1",
        ],
        &[("CHC_CRASH_INJECT", "5"), ("CHC_CRASH_DIR", dir.to_str().unwrap())],
    );
    assert!(!out.status.success());
    let report = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| {
            let n = e.file_name().to_string_lossy().to_string();
            n.starts_with("chc-crash-") && n.ends_with(".json")
        })
        .expect("$CHC_CRASH_DIR got a chc-crash-<pid>.json");
    let doc = chc_obs::json::parse(&std::fs::read_to_string(report.path()).unwrap()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("chc-crash/1")
    );
}

#[test]
fn doctor_rejects_non_crash_input() {
    let tmp = TempDir::new("doctor-rejects");
    let bad = tmp.join("bad.json");
    std::fs::write(&bad, "this is not json").unwrap();
    let out = chc(&["doctor", bad.to_str().unwrap()], &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("not valid JSON"));

    let wrong = tmp.join("wrong-schema.json");
    std::fs::write(&wrong, r#"{"schema":"chc-load/1"}"#).unwrap();
    let out = chc(&["doctor", wrong.to_str().unwrap()], &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unsupported schema"));
}

/// Hostile JSON is a positioned error, not a stack overflow (exit 134)
/// or an unpositioned complaint.
#[test]
fn doctor_reports_malformed_json_with_a_position() {
    let tmp = TempDir::new("doctor-malformed");
    let deep = tmp.join("deep.json");
    std::fs::write(&deep, "[".repeat(50_000)).unwrap();
    let cut = tmp.join("cut.json");
    let report = include_str!("fixtures/crash/load-panic.json");
    std::fs::write(&cut, &report[..100]).unwrap();
    let too_deep = "not valid JSON: 1:1001: arrays and objects nest deeper than 1000 levels";
    let truncated = "not valid JSON: 1:101: unterminated string";
    for (path, want) in [(&deep, too_deep), (&cut, truncated)] {
        let out = chc(&["doctor", path.to_str().unwrap()], &[]);
        assert_eq!(out.status.code(), Some(2), "{path:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(want), "{path:?}: {stderr}");
    }
}

/// A clean run with `--crash-out` writes nothing — the report is a crash
/// artifact, not a log file.
#[test]
fn no_crash_report_on_clean_exit() {
    let tmp = TempDir::new("no-crash");
    let crash = tmp.join("no-crash.json");
    let out = chc(
        &[
            "load",
            "--hier",
            "classes=40,seed=9",
            "--ops",
            "32",
            "--threads",
            "1",
            "--crash-out",
            crash.to_str().unwrap(),
        ],
        &[],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!crash.exists(), "clean runs leave no crash report");
}

/// `--watchdog` without any crash destination is a usage error: a stall
/// detector with nowhere to write would fire into the void.
#[test]
fn watchdog_without_destination_is_an_error() {
    let out = chc(&["--watchdog", "30s", "check", "nonexistent.sdl"], &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--watchdog needs --crash-out"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `chc profile check --mem` prints the per-class memory columns and a
/// reconciliation line against the global allocator totals, while stdout
/// stays a single greppable summary line.
#[test]
fn profile_mem_columns_reconcile() {
    let out = chc(
        &[
            "profile",
            "check",
            "--hier",
            "classes=800,seed=1025",
            "--mem",
        ],
        &[],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let header = stderr
        .lines()
        .find(|l| l.contains(" class ") || l.trim_start().starts_with("class "))
        .expect("hot-spot table header");
    assert!(
        header.contains("alloc") && header.contains("peak"),
        "--mem adds the memory columns: {header}"
    );
    let recon = stderr
        .lines()
        .find(|l| l.trim_start().starts_with("mem: global "))
        .expect("reconciliation line present");
    assert!(
        recon.contains("% of global") && recon.contains("max class peak"),
        "{recon}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 1, "stdout stays one line: {stdout}");
}
