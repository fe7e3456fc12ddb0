//! End-to-end tests of the event-level trace exporters: `chc
//! --trace-out` / `--flame-out` output must be valid, well nested, and
//! consistent with the aggregated `--trace` span tree for the same run.

use std::path::PathBuf;
use std::process::{Command, Output};

use chc_obs::json::JsonValue;

fn chc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chc"))
        .args(args)
        .output()
        .expect("chc runs")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("chc-trace-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn hospital() -> (String, String) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    (
        root.join("examples/data/hospital.sdl")
            .to_str()
            .unwrap()
            .to_string(),
        root.join("examples/data/hospital.chd")
            .to_str()
            .unwrap()
            .to_string(),
    )
}

/// The span events of a parsed Chrome trace, as (phase, name) pairs in
/// buffer order, skipping metadata/instant events.
fn span_events(doc: &JsonValue) -> Vec<(String, String)> {
    doc.get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array")
        .iter()
        .filter_map(|e| {
            let ph = e.get("ph")?.as_str()?;
            if ph != "B" && ph != "E" {
                return None;
            }
            Some((ph.to_string(), e.get("name")?.as_str()?.to_string()))
        })
        .collect()
}

#[test]
fn trace_out_is_valid_chrome_trace_json() {
    let (sdl, chd) = hospital();
    let out_path = tmp("validate.json");
    let out = chc(&[
        "validate",
        "--trace-out",
        out_path.to_str().unwrap(),
        &sdl,
        &chd,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = std::fs::read_to_string(&out_path).unwrap();
    // Round-trips through the in-tree JSON parser...
    let doc = chc_obs::json::parse(&text).expect("trace-out parses");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(JsonValue::as_str),
        Some("ns")
    );
    let events = span_events(&doc);
    assert!(!events.is_empty());
    // ...every event is well formed (ts µs, pid/tid numbers)...
    for ev in doc.get("traceEvents").unwrap().as_array().unwrap() {
        assert!(ev.get("ph").and_then(JsonValue::as_str).is_some(), "{ev:?}");
        if ev.get("ph").and_then(JsonValue::as_str) != Some("M") {
            assert!(ev.get("ts").and_then(JsonValue::as_f64).is_some(), "{ev:?}");
        }
        assert!(
            ev.get("pid").and_then(JsonValue::as_f64).is_some(),
            "{ev:?}"
        );
    }
    // ...and the B/E stream is well nested (a valid Perfetto timeline).
    let mut stack = Vec::new();
    for (ph, name) in &events {
        match ph.as_str() {
            "B" => stack.push(name.clone()),
            _ => assert_eq!(stack.pop().as_ref(), Some(name), "unbalanced at {name}"),
        }
    }
    assert!(stack.is_empty(), "spans left open: {stack:?}");
}

/// The span events of a parsed Chrome trace, as (phase, name, tid)
/// triples in buffer order, skipping metadata/instant events.
fn span_events_by_tid(doc: &JsonValue) -> Vec<(String, String, u64)> {
    doc.get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array")
        .iter()
        .filter_map(|e| {
            let ph = e.get("ph")?.as_str()?;
            if ph != "B" && ph != "E" {
                return None;
            }
            let tid = e.get("tid")?.as_f64()? as u64;
            Some((ph.to_string(), e.get("name")?.as_str()?.to_string(), tid))
        })
        .collect()
}

/// Runs `chc --trace --trace-out <file> <args>` and checks that the
/// aggregated span tree on stderr nests exactly as the timeline does,
/// thread by thread: the tree renders each thread's spans in turn, by
/// thread index, and each thread's part must equal the (depth, name)
/// sequence of that tid's B events.
fn assert_tree_matches_timeline(file: &str, args: &[&str]) {
    let out_path = tmp(file);
    let mut argv = vec!["--trace", "--trace-out", out_path.to_str().unwrap()];
    argv.extend_from_slice(args);
    let out = chc(&argv);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The rendered tree goes to stderr. Reconstruct (depth, name) from
    // it: two spaces of indent per level, name is the first token.
    let stderr = String::from_utf8_lossy(&out.stderr);
    let tree: Vec<(usize, String)> = stderr
        .lines()
        .filter(|l| {
            let name = l.split_whitespace().next().unwrap_or("");
            name.contains('.') && !l.contains(" object(s), ")
        })
        .map(|l| {
            let indent = l.len() - l.trim_start().len();
            (indent / 2, l.split_whitespace().next().unwrap().to_string())
        })
        .collect();
    assert!(!tree.is_empty(), "{stderr}");
    // Reconstruct the same (depth, name) sequence per tid from B events.
    let text = std::fs::read_to_string(&out_path).unwrap();
    let doc = chc_obs::json::parse(&text).unwrap();
    let mut by_tid: std::collections::BTreeMap<u64, (usize, Vec<(usize, String)>)> =
        std::collections::BTreeMap::new();
    for (ph, name, tid) in span_events_by_tid(&doc) {
        let (depth, spans) = by_tid.entry(tid).or_default();
        match ph.as_str() {
            "B" => {
                spans.push((*depth, name));
                *depth += 1;
            }
            _ => *depth -= 1,
        }
    }
    let mut rest = &tree[..];
    for (tid, (depth, from_trace)) in &by_tid {
        assert_eq!(*depth, 0, "tid {tid} left spans open");
        assert!(
            rest.len() >= from_trace.len(),
            "tree too short for tid {tid}"
        );
        let (part, tail) = rest.split_at(from_trace.len());
        assert_eq!(
            part, from_trace,
            "aggregated tree and event timeline disagree on tid {tid}\n\
             tree: {part:?}\ntrace: {from_trace:?}"
        );
        rest = tail;
    }
    assert!(rest.is_empty(), "tree spans with no timeline: {rest:?}");
}

#[test]
fn trace_out_nesting_matches_the_aggregated_span_tree() {
    let (sdl, chd) = hospital();
    // One thread: the whole run is tid 0's tree.
    assert_tree_matches_timeline("consistency.json", &["validate", &sdl, &chd]);
    // Two load workers beside the main thread: each worker's spans are
    // roots of its own thread's tree, never children of the main
    // thread's `load.run`.
    assert_tree_matches_timeline(
        "consistency-load.json",
        &[
            "load",
            "--hier",
            "classes=40,seed=9",
            "--threads",
            "2",
            "--ops",
            "2000",
        ],
    );
}

#[test]
fn flame_out_is_valid_folded_stacks() {
    let (sdl, chd) = hospital();
    let out_path = tmp("validate.folded");
    let out = chc(&[
        "--flame-out",
        out_path.to_str().unwrap(),
        "validate",
        &sdl,
        &chd,
    ]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&out_path).unwrap();
    let mut saw_nested = false;
    for line in text.lines() {
        let (path, value) = line.rsplit_once(' ').expect("`stack value` shape");
        value.parse::<u64>().expect("integer weight");
        assert!(!path.is_empty());
        saw_nested |= path.contains(';');
    }
    assert!(saw_nested, "no nested stack in:\n{text}");
    assert!(
        text.lines()
            .any(|l| l.starts_with("cli.validate;check.schema ")),
        "{text}"
    );
}

#[test]
fn failing_command_still_reports_and_flushes() {
    let dir = std::env::temp_dir().join("chc-trace-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let schema = dir.join("broken.sdl");
    std::fs::write(
        &schema,
        "
        class Physician;
        class Psychologist;
        class Patient with treatedBy: Physician;
        class Alcoholic is-a Patient with treatedBy: Psychologist;
        ",
    )
    .unwrap();
    let out_path = tmp("failing.json");
    let flame_path = tmp("failing.folded");
    let out = chc(&[
        "check",
        "--trace",
        "--stats",
        "--trace-out",
        out_path.to_str().unwrap(),
        "--flame-out",
        flame_path.to_str().unwrap(),
        schema.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "the schema is broken");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The span tree and counter table still print (to stderr)...
    assert!(stderr.contains("cli.check"), "{stderr}");
    assert!(stderr.contains("check.classes"), "{stderr}");
    // ...and both trace files still flush, with the check span present.
    let doc = chc_obs::json::parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
    assert!(
        span_events(&doc).iter().any(|(_, n)| n == "check.schema"),
        "no check.schema span in flushed trace"
    );
    let folded = std::fs::read_to_string(&flame_path).unwrap();
    assert!(folded.contains("cli.check"), "{folded}");

    // Same for a hard error (exit 2): a file that fails to compile
    // still flushes the compile span.
    let bad = dir.join("syntax.sdl");
    std::fs::write(&bad, "class A with x 1..2").unwrap();
    let out_path2 = tmp("syntax.json");
    let out = chc(&[
        "check",
        "--trace-out",
        out_path2.to_str().unwrap(),
        bad.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    let doc = chc_obs::json::parse(&std::fs::read_to_string(&out_path2).unwrap()).unwrap();
    let events = span_events(&doc);
    assert!(
        events.iter().any(|(_, n)| n == "cli.compile"),
        "no cli.compile span in {events:?}"
    );
}
