//! Pins `chc validate` under the always-on flight recorder: the audit
//! outputs stay byte-identical, events reach only the sinks that keep
//! their level (so the flight recorder never makes the validator build
//! an audit payload), its traffic is a constant per validate phase,
//! a crash mid-validate names the object, and the
//! E11 invariant (`validate.checks` equals the number of
//! `validate.check` ledger records) holds on a generated patients file.

use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use excuses::core::{check, virtualize, MissingPolicy, Semantics, ValidationOptions};
use excuses::extent::{
    load_data, refresh_virtual_extents, validate_loaded, LoadedData,
};
use excuses::model::Schema;
use excuses::obs::flight::{crash_report, render_crash_report};
use excuses::obs::json::{self, JsonValue};
use excuses::obs::{
    self as obs, names, AuditRecorder, Event, EventLevel, FanoutRecorder, FlightRecorder, Kind,
    Recorder, StatsRecorder,
};
use excuses::sdl::compile;

const HOSPITAL_SDL: &str = include_str!("../examples/data/hospital.sdl");

/// Patients in the generated file.
const PATIENTS: usize = 600;

/// `(case, exit code, FNV-1a of stdout, FNV-1a of the --audit-out
/// ledger, FNV-1a of the --audit-summary stdout)`, taken before the
/// flight recorder moved to per-thread buffers and lazy payloads.
const PINS: &[(&str, i32, u64, u64, u64)] = &[
    (
        "hospital",
        0,
        0x070c_edb9_738a_cf92,
        0x7a6f_db1e_0348_706f,
        0xcd21_52c9_ca18_7799,
    ),
    (
        "patients600",
        1,
        0xff00_8c2a_91e3_ab7d,
        0x41c0_a0f3_a218_64e5,
        0x012a_0a58_e8e7_00ce,
    ),
];

/// `(query, exit code, FNV-1a of stdout)` for the four query shapes of
/// the data-validate benchmark on the generated file, taken before the
/// store moved to dense per-oid tables. The `not in Tubercular_Patient`
/// query reads memberships the virtual-class refresh wrote.
const QUERY_PINS: &[(&str, i32, u64)] = &[
    (
        "for p in Patient emit p.treatedAt.location.city",
        0,
        0xaa66_11dd_65bf_2576,
    ),
    (
        "for p in Patient emit p.treatedAt.location.state",
        0,
        0xb2eb_2bd1_c329_5e55,
    ),
    (
        "for p in Patient where p not in Tubercular_Patient emit p.treatedAt.location.state",
        0,
        0xb2eb_2bd1_c329_5e55,
    ),
    (
        "for a in Alcoholic emit a.treatedBy.name",
        0,
        0xf71d_c01f_724c_0ec8,
    ),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn chc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chc"))
        .args(args)
        .output()
        .expect("chc runs")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("chc-flight-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{name}", std::process::id()))
}

fn example(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/data")
        .join(name)
        .to_str()
        .unwrap()
        .to_string()
}

/// A deterministic hospital data file with `patients` patients: mostly
/// plain patients, plus alcoholics treated by psychologists and
/// tubercular patients at the unaccredited Swiss clinic (both admitted
/// by excuses), and a few invalid objects: alcoholics treated by
/// physicians, patients treated by psychologists, patients with no age.
fn patients_chd(patients: usize) -> String {
    let mut out = String::from(
        "davos : Address { street = \"Bahnhofstrasse 1\", city = \"Davos\", country = 'Switzerland }\n\
         clinic : Hospital { location = @davos }\n",
    );
    let states = ["'AL", "'NJ", "'NY", "'WV"];
    let levels = ["'Local", "'State", "'Federal"];
    for i in 0..8 {
        let _ = writeln!(
            out,
            "addr{i} : Address {{ street = \"Main {i}\", city = \"City{}\", state = {} }}",
            i % 3,
            states[i % states.len()]
        );
        let _ = writeln!(
            out,
            "hosp{i} : Hospital {{ accreditation = {}, location = @addr{i} }}",
            levels[i % levels.len()]
        );
        let _ = writeln!(
            out,
            "doc{i} : Physician {{ name = \"Doc{i}\", age = {} }}",
            30 + i
        );
        let _ = writeln!(
            out,
            "psy{i} : Psychologist {{ name = \"Psy{i}\", age = {} }}",
            40 + i
        );
    }
    for i in 0..patients {
        let (doc, psy, hosp) = (i % 8, (i / 8) % 8, (i / 3) % 8);
        let age = 1 + i % 119;
        let line = match i % 20 {
            0..=11 => format!(
                "Patient {{ name = \"P{i}\", age = {age}, treatedBy = @doc{doc}, treatedAt = @hosp{hosp} }}"
            ),
            12..=14 => format!(
                "Alcoholic {{ name = \"P{i}\", age = {age}, treatedBy = @psy{psy}, treatedAt = @hosp{hosp} }}"
            ),
            15..=16 => format!(
                "Tubercular_Patient {{ name = \"P{i}\", age = {age}, treatedBy = @doc{doc}, treatedAt = @clinic }}"
            ),
            17 => format!(
                "Alcoholic {{ name = \"P{i}\", age = {age}, treatedBy = @doc{doc}, treatedAt = @hosp{hosp} }}"
            ),
            18 => format!(
                "Patient {{ name = \"P{i}\", age = {age}, treatedBy = @psy{psy}, treatedAt = @hosp{hosp} }}"
            ),
            _ => format!("Patient {{ name = \"P{i}\", treatedBy = @doc{doc}, treatedAt = @hosp{hosp} }}"),
        };
        let _ = writeln!(out, "p{i} : {line}");
    }
    out
}

/// Writes the generated file under a name of the calling test's own, so
/// tests running in parallel never rewrite a file another one reads.
fn patients_file(test: &str) -> String {
    let path = tmp(&format!("{test}-patients{PATIENTS}.chd"));
    std::fs::write(&path, patients_chd(PATIENTS)).unwrap();
    path.to_str().unwrap().to_string()
}

fn event_count(ledger: &[JsonValue], event: &str, verdict: Option<&str>) -> u64 {
    ledger
        .iter()
        .filter(|r| r.get("event").and_then(JsonValue::as_str) == Some(event))
        .filter(|r| verdict.is_none() || r.get("verdict").and_then(JsonValue::as_str) == verdict)
        .count() as u64
}

fn stats_counter(path: &PathBuf, name: &str) -> u64 {
    json::parse_lines(&std::fs::read_to_string(path).unwrap())
        .expect("stats snapshot is valid JSONL")
        .iter()
        .find(|r| r.get("name").and_then(JsonValue::as_str) == Some(name))
        .and_then(|r| r.get("value"))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0) as u64
}

#[test]
fn validate_stdout_ledger_and_summary_match_the_pinned_bytes() {
    let cases = [
        ("hospital", example("hospital.chd")),
        ("patients600", patients_file("pins")),
    ];
    let sdl = example("hospital.sdl");
    let mut got = Vec::new();
    for (case, data) in &cases {
        let ledger = tmp(&format!("{case}.jsonl"));
        let out = chc(&[
            "validate",
            "--audit-out",
            ledger.to_str().unwrap(),
            &sdl,
            data,
        ]);
        let summary = chc(&["validate", "--audit-summary", &sdl, data]);
        assert_eq!(summary.status.code(), out.status.code(), "{case}");
        got.push((
            *case,
            out.status.code().expect("exit code"),
            fnv1a(&out.stdout),
            fnv1a(&std::fs::read(&ledger).unwrap()),
            fnv1a(&summary.stdout),
        ));
        let _ = std::fs::remove_file(&ledger);
    }
    let render = |pins: &[(&str, i32, u64, u64, u64)]| {
        pins.iter()
            .map(|(c, code, a, b, d)| format!("({c:?}, {code}, {a:#018x}, {b:#018x}, {d:#018x})"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(render(&got), render(PINS), "validate outputs moved");
}

#[test]
fn query_stdout_matches_the_pinned_bytes() {
    let (sdl, data) = (example("hospital.sdl"), patients_file("query-pins"));
    let got: Vec<String> = QUERY_PINS
        .iter()
        .map(|(query, _, _)| {
            let out = chc(&["query", &sdl, &data, query]);
            let code = out.status.code().expect("exit code");
            format!("({query:?}, {code}, {:#018x})", fnv1a(&out.stdout))
        })
        .collect();
    let want: Vec<String> = QUERY_PINS
        .iter()
        .map(|(query, code, digest)| format!("({query:?}, {code}, {digest:#018x})"))
        .collect();
    assert_eq!(got.join("\n"), want.join("\n"), "query outputs moved");
}

#[test]
fn ledger_records_equal_the_checks_counter_on_generated_data() {
    let ledger = tmp("e11.jsonl");
    let stats = tmp("e11-stats.json");
    let out = chc(&[
        "validate",
        "--audit-out",
        ledger.to_str().unwrap(),
        "--stats-out",
        stats.to_str().unwrap(),
        &example("hospital.sdl"),
        &patients_file("e11"),
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "the generated file has invalid objects"
    );
    let records = json::parse_lines(&std::fs::read_to_string(&ledger).unwrap())
        .expect("ledger is valid JSONL");
    let checks = stats_counter(&stats, names::VALIDATE_CHECKS);
    assert_eq!(event_count(&records, "validate.check", None), checks);
    assert_eq!(
        event_count(&records, "validate.check", Some("excused")),
        stats_counter(&stats, names::VALIDATE_ADMITTED)
    );
    assert_eq!(
        event_count(&records, "validate.object", None),
        (PATIENTS + 34) as u64,
        "one validate.object record per named object"
    );
    assert!(checks > 4 * PATIENTS as u64, "{checks} checks");
    let _ = std::fs::remove_file(&ledger);
    let _ = std::fs::remove_file(&stats);
}

/// Counts the events it receives and how many of them carry fields. It
/// keeps events at every level when `keeps` is set, and at none
/// otherwise.
#[derive(Default)]
struct PayloadProbe {
    keeps: bool,
    events: AtomicU64,
    with_fields: AtomicU64,
}

impl Recorder for PayloadProbe {
    fn event(&self, event: &Event) {
        self.events.fetch_add(1, Ordering::Relaxed);
        if !event.fields.is_empty() {
            self.with_fields.fetch_add(1, Ordering::Relaxed);
        }
    }
    fn keeps(&self, kind: Kind) -> bool {
        self.keeps && matches!(kind, Kind::Event(_))
    }
}

/// The hospital schema, virtualized, and the generated file with
/// `patients` patients loaded into it with the virtual extents fresh.
fn generated_data(patients: usize) -> (Schema, LoadedData) {
    let schema = compile(HOSPITAL_SDL).unwrap();
    assert!(check(&schema).is_ok());
    let v = virtualize(&schema).unwrap();
    let mut data = load_data(&v.schema, &patients_chd(patients)).unwrap();
    refresh_virtual_extents(&mut data.store, &v);
    (v.schema, data)
}

/// How `chc validate` judges source-file objects.
const FILE_VALIDATION: ValidationOptions = ValidationOptions {
    semantics: Semantics::Correct,
    missing: MissingPolicy::Absent,
};

/// Validates every object of the generated file through `chc validate`'s
/// loop ([`validate_loaded`]), with `recorder` scoped; returns `(objects,
/// invalid objects)`.
fn validate_generated(recorder: Arc<dyn Recorder>) -> (u64, u64) {
    let (schema, data) = generated_data(PATIENTS);
    let _scope = obs::scoped(recorder);
    let mut invalid = 0;
    validate_loaded(&schema, &data, FILE_VALIDATION, |_, violations| {
        invalid += u64::from(!violations.is_empty());
        Ok::<_, ()>(())
    })
    .unwrap();
    (data.names.len() as u64, invalid)
}

#[test]
fn event_payloads_are_built_only_for_sinks_that_read_them() {
    // The flight recorder alone keeps no event level: the event leaves
    // its sequence number and ring as they were, and the payload
    // closure never runs.
    let built = AtomicU64::new(0);
    let flight = Arc::new(FlightRecorder::new());
    {
        let _scope = obs::scoped(flight.clone());
        for level in EventLevel::ALL {
            obs::event_with(level, "t.event", |ev| {
                built.fetch_add(1, Ordering::Relaxed);
                ev.field("k", "v")
            });
        }
    }
    assert_eq!(built.load(Ordering::Relaxed), 0);
    assert_eq!(flight.seq(), 0);
    assert!(flight.tail().is_empty());

    // An audit sink keeping that level gets the payload, built once for
    // every sink of a fanout; one filtering it out does not. Neither
    // way does the event reach the flight recorder.
    for (min_level, want) in [(EventLevel::Info, 1), (EventLevel::Audit, 0)] {
        let audit = Arc::new(AuditRecorder::with_capacity_and_level(16, min_level));
        let flight = Arc::new(FlightRecorder::new());
        let fan = Arc::new(FanoutRecorder::new(vec![
            flight.clone() as Arc<dyn Recorder>,
            audit.clone(),
        ]));
        built.store(0, Ordering::Relaxed);
        {
            let _scope = obs::scoped(fan);
            obs::event_with(EventLevel::Info, "t.event", |ev| {
                built.fetch_add(1, Ordering::Relaxed);
                ev.field("k", "v")
            });
        }
        assert_eq!(
            built.load(Ordering::Relaxed),
            want,
            "min level {min_level:?}"
        );
        assert_eq!(audit.len() as u64, want);
        assert_eq!(flight.seq(), 0, "min level {min_level:?}");
    }
}

#[test]
fn validating_under_the_flight_recorder_builds_no_audit_payload() {
    // Next to the flight recorder, a sink keeping no level receives no
    // event at all, so no payload is built for anyone.
    let probe = Arc::new(PayloadProbe::default());
    let fan = Arc::new(FanoutRecorder::new(vec![
        Arc::new(FlightRecorder::new()) as Arc<dyn Recorder>,
        probe.clone(),
    ]));
    let (objects, invalid) = validate_generated(fan);
    assert!(invalid > 0);
    assert_eq!(probe.events.load(Ordering::Relaxed), 0);
    assert_eq!(probe.with_fields.load(Ordering::Relaxed), 0);

    // With an audit sink listening, every event carries its payload.
    let probe = Arc::new(PayloadProbe {
        keeps: true,
        ..PayloadProbe::default()
    });
    let fan = Arc::new(FanoutRecorder::new(vec![
        Arc::new(AuditRecorder::new()) as Arc<dyn Recorder>,
        probe.clone(),
    ]));
    validate_generated(fan);
    let events = probe.events.load(Ordering::Relaxed);
    assert!(events > objects);
    assert_eq!(probe.with_fields.load(Ordering::Relaxed), events);
}

#[test]
fn flight_traffic_per_validated_object_is_bounded() {
    let flight = Arc::new(FlightRecorder::new());
    let stats = Arc::new(StatsRecorder::new());
    let fan = Arc::new(FanoutRecorder::new(vec![
        flight.clone() as Arc<dyn Recorder>,
        stats.clone(),
    ]));
    let (objects, _) = validate_generated(fan);
    let checks = stats.counter_value(names::VALIDATE_CHECKS);
    let admitted = stats.counter_value(names::VALIDATE_ADMITTED);
    let transitions = flight.seq();
    // The `validate.all` span's enter and exit, and one update each of
    // `validate.checks`, `validate.admitted` and `validate.plans`, summed
    // over the run. No span, counter update or event per object or per
    // check.
    assert_eq!(
        transitions, 5,
        "flight transitions for {objects} objects and {admitted} admitted checks"
    );
    assert!(
        checks > 2 * objects && admitted > 0,
        "{checks} checks and {admitted} admitted for {objects} objects"
    );
    assert_eq!(
        flight
            .counters()
            .iter()
            .find(|(n, _)| *n == names::VALIDATE_CHECKS)
            .map(|(_, v)| *v),
        Some(checks)
    );
}

/// Panics on the `n`th `validate.object` event, first taking the crash
/// report of `flight`, as `chc`'s panic hook does when a panic starts
/// and before the stack unwinds.
struct PanicOnNthObject {
    flight: Arc<FlightRecorder>,
    n: u64,
    seen: AtomicU64,
    report: Mutex<Option<JsonValue>>,
}

impl Recorder for PanicOnNthObject {
    fn keeps(&self, kind: Kind) -> bool {
        kind == Kind::Event(EventLevel::Info)
    }

    fn event(&self, event: &Event) {
        if event.name == names::EVENT_VALIDATE_OBJECT
            && self.seen.fetch_add(1, Ordering::Relaxed) + 1 == self.n
        {
            let report = crash_report("panic", "injected", &self.flight);
            *self.report.lock().unwrap() = Some(report);
            panic!("injected at validate.object event {}", self.n);
        }
    }
}

#[test]
fn a_crash_mid_validate_names_the_object_being_validated() {
    const N: u64 = 250;
    let (schema, data) = generated_data(PATIENTS);
    // The `validate.object` event follows the breadcrumb's `set`, so the
    // `N`th event is emitted while the breadcrumb names the `N`th
    // object in file order, before that object is judged.
    let (name, oid) = data.names.iter().nth(N as usize - 1).unwrap();

    let flight = Arc::new(FlightRecorder::new());
    let panicker = Arc::new(PanicOnNthObject {
        flight: flight.clone(),
        n: N,
        seen: AtomicU64::new(0),
        report: Mutex::new(None),
    });
    let fan = Arc::new(FanoutRecorder::new(vec![
        flight.clone() as Arc<dyn Recorder>,
        panicker.clone(),
    ]));
    let mut judged = Vec::new();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        let _scope = obs::scoped(fan);
        validate_loaded(&schema, &data, FILE_VALIDATION, |name, _| {
            judged.push(name.to_string());
            Ok::<_, ()>(())
        })
    }));
    assert!(
        outcome.is_err(),
        "the injected panic unwinds out of the loop"
    );
    let first: Vec<String> = data
        .names
        .iter()
        .map(|(n, _)| n.to_string())
        .take(judged.len())
        .collect();
    assert_eq!(judged, first, "judged in file order");
    assert!(
        !judged.iter().any(|j| j == name),
        "`{name}` was not judged before the crash"
    );

    let report = panicker
        .report
        .lock()
        .unwrap()
        .take()
        .expect("report taken");
    let doc = json::parse(&report.render()).expect("chc-crash/1 round-trips");
    let threads = doc.get("threads").and_then(JsonValue::as_array).unwrap();
    assert_eq!(threads.len(), 1, "{threads:?}");
    let stack: Vec<&str> = threads[0]
        .get("stack")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .filter_map(JsonValue::as_str)
        .collect();
    assert_eq!(stack, [names::SPAN_VALIDATE_ALL], "the open phase span");
    let item = threads[0].get("item").expect("the breadcrumb is reported");
    assert_eq!(
        item.get("name").and_then(JsonValue::as_str),
        Some(names::EVENT_VALIDATE_OBJECT)
    );
    assert_eq!(
        item.get("value").and_then(JsonValue::as_f64),
        Some(oid.raw() as f64),
        "the breadcrumb names `{name}`"
    );
    let rendered = render_crash_report(&doc).to_string();
    let want = format!("validate.all (at validate.object {})", oid.raw());
    assert!(rendered.contains(&want), "{rendered}");
}

#[test]
fn trace_out_keeps_every_phase_of_a_large_validate() {
    // Past the trace ring's 65,536 events if spans marked objects.
    const OBJECTS: usize = 70_000;
    let data = tmp("trace-out-patients.chd");
    std::fs::write(&data, patients_chd(OBJECTS)).unwrap();
    let trace = tmp("trace-out.json");
    let out = chc(&[
        "--trace-out",
        trace.to_str().unwrap(),
        "validate",
        &example("hospital.sdl"),
        data.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "the generated file has invalid objects"
    );
    let doc = json::parse(&std::fs::read_to_string(&trace).unwrap()).expect("valid JSON");
    let dropped = doc.get("otherData").and_then(|d| d.get("dropped"));
    assert_eq!(
        dropped.and_then(JsonValue::as_f64),
        Some(0.0),
        "no event dropped"
    );
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .unwrap();
    for span in [
        names::SPAN_CLI_VALIDATE,
        names::SPAN_EXTENT_LOAD,
        names::SPAN_VALIDATE_ALL,
    ] {
        let count = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some(ph))
                .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some(span))
                .count()
        };
        assert_eq!((count("B"), count("E")), (1, 1), "{span}");
    }
    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_file(&trace);
}
