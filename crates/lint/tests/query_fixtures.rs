//! Per-Q-code fixture pairs: for each query lint, a schema + `.chq`
//! batch that fires it and a near-miss that stays clean of it (and of
//! every warn/deny-level finding — info notes like Q004/Q005 are
//! advisory and allowed anywhere).

use chc_core::{virtualize, Virtualized};
use chc_lint::{run_queries, LintCode, LintConfig, LintLevel, LintReport};
use chc_query::parse_query_file;

const MINI_HOSPITAL: &str = include_str!("fixtures/mini_hospital.sdl");

fn lint(sdl: &str, chq: &str, chq_file: &str) -> (Virtualized, LintReport) {
    let schema = chc_sdl::compile(sdl).expect("fixture schema compiles");
    let v = virtualize(&schema).expect("fixture schema virtualizes");
    let queries = parse_query_file(&v.schema, chq).expect("fixture queries parse");
    let report = run_queries(&v, &queries, Some(chq_file), &LintConfig::new());
    (v, report)
}

/// (code, schema, fires batch, fires name, clean schema, clean batch, clean name)
const PAIRS: [(LintCode, &str, &str, &str, &str, &str, &str); 5] = [
    (
        LintCode::UnsafePath,
        MINI_HOSPITAL,
        include_str!("fixtures/Q001_fires.chq"),
        "Q001_fires.chq",
        MINI_HOSPITAL,
        include_str!("fixtures/Q001_clean.chq"),
        "Q001_clean.chq",
    ),
    (
        LintCode::DeadGuard,
        include_str!("fixtures/Q002_fires.sdl"),
        include_str!("fixtures/Q002_fires.chq"),
        "Q002_fires.chq",
        include_str!("fixtures/Q002_clean.sdl"),
        include_str!("fixtures/Q002_clean.chq"),
        "Q002_clean.chq",
    ),
    (
        LintCode::EmptySource,
        include_str!("fixtures/Q003.sdl"),
        include_str!("fixtures/Q003_fires.chq"),
        "Q003_fires.chq",
        include_str!("fixtures/Q003.sdl"),
        include_str!("fixtures/Q003_clean.chq"),
        "Q003_clean.chq",
    ),
    (
        LintCode::DischargedCheck,
        MINI_HOSPITAL,
        include_str!("fixtures/Q004_fires.chq"),
        "Q004_fires.chq",
        include_str!("fixtures/Q004_clean.sdl"),
        include_str!("fixtures/Q004_clean.chq"),
        "Q004_clean.chq",
    ),
    (
        LintCode::GuardSuggestion,
        MINI_HOSPITAL,
        include_str!("fixtures/Q005_fires.chq"),
        "Q005_fires.chq",
        MINI_HOSPITAL,
        include_str!("fixtures/Q005_clean.chq"),
        "Q005_clean.chq",
    ),
];

#[test]
fn each_fires_fixture_fires_its_lint() {
    for (code, sdl, chq, file, _, _, _) in PAIRS {
        let (_, report) = lint(sdl, chq, file);
        assert!(
            report.count(code) >= 1,
            "{file}: expected {code} to fire, got {:?}",
            report.findings.iter().map(|f| f.code).collect::<Vec<_>>(),
        );
    }
}

#[test]
fn each_clean_fixture_is_clean_of_its_code_and_of_warnings() {
    for (code, _, _, _, sdl, chq, file) in PAIRS {
        let (v, report) = lint(sdl, chq, file);
        let rendered = chc_lint::render_report_sources(&report, &v.schema, None, Some(chq));
        assert_eq!(
            report.count(code),
            0,
            "{file}: near-miss for {code} should not fire it, got:\n{rendered}",
        );
        assert!(
            report.is_ok() && report.warnings().next().is_none(),
            "{file}: near-miss should carry no warn/deny findings, got:\n{rendered}",
        );
    }
}

#[test]
fn fires_findings_point_into_the_query_file() {
    for (code, sdl, chq, file, _, _, _) in PAIRS {
        let (v, report) = lint(sdl, chq, file);
        let f = report
            .findings
            .iter()
            .find(|f| f.code == code)
            .expect("fires");
        let loc = f.location(&v.schema).expect("span recorded from the batch").to_string();
        assert!(
            loc.starts_with(&format!("{file}:")),
            "{code}: location should be chq-file:line:col, got {loc}"
        );
        let text = chc_lint::render_finding(f, &v.schema, Some(chq)).to_string();
        assert!(text.contains(&format!("--> {loc}")), "{text}");
        assert!(
            text.lines().last().unwrap().trim_end().ends_with('^'),
            "{text}"
        );
    }
}

#[test]
fn allow_suppresses_and_deny_escalates_query_lints() {
    let schema = chc_sdl::compile(MINI_HOSPITAL).unwrap();
    let v = virtualize(&schema).unwrap();
    let chq = include_str!("fixtures/Q001_fires.chq");
    let queries = parse_query_file(&v.schema, chq).unwrap();

    let mut cfg = LintConfig::new();
    cfg.set(LintCode::UnsafePath, LintLevel::Allow);
    let report = run_queries(&v, &queries, None, &cfg);
    assert_eq!(report.count(LintCode::UnsafePath), 0);

    let mut cfg = LintConfig::new();
    cfg.set(LintCode::UnsafePath, LintLevel::Deny);
    let report = run_queries(&v, &queries, None, &cfg);
    assert!(!report.is_ok());
    assert!(report.denied().all(|f| f.code == LintCode::UnsafePath));

    // `--deny warnings` escalates Q001 but leaves the info-level
    // Q004/Q005 notes advisory.
    let mut cfg = LintConfig::new();
    cfg.deny_warnings = true;
    let report = run_queries(&v, &queries, None, &cfg);
    assert!(!report.is_ok());
    assert!(report
        .findings
        .iter()
        .all(|f| f.level == LintLevel::Deny || f.level == LintLevel::Info));
}

#[test]
fn unmet_expectation_is_a_deny_finding() {
    let schema = chc_sdl::compile(MINI_HOSPITAL).unwrap();
    let v = virtualize(&schema).unwrap();
    // This query is perfectly safe; expecting Q001 must fail the run.
    let chq = "-- expect: Q001\nfor p in Patient emit p.site.location.city;\n";
    let queries = parse_query_file(&v.schema, chq).unwrap();
    let report = run_queries(&v, &queries, None, &LintConfig::new());
    assert!(!report.is_ok());
    let f = report.denied().next().expect("synthetic deny finding");
    assert_eq!(f.code, LintCode::UnsafePath);
    assert!(f.message.contains("expected Q001 to fire"), "{}", f.message);
}

#[test]
fn query_findings_round_trip_through_json_with_kind_and_file() {
    let (v, report) = lint(MINI_HOSPITAL, include_str!("fixtures/Q001_fires.chq"), "q.chq");
    let json = report.to_json(&v.schema);
    let text = json.render();
    let parsed = chc_obs::json::parse(&text).expect("valid JSON");
    assert_eq!(parsed, json);
    let findings = parsed.get("findings").and_then(|f| f.as_array()).unwrap();
    assert!(!findings.is_empty());
    for f in findings {
        assert_eq!(f.get("kind").and_then(|v| v.as_str()), Some("query"));
        assert_eq!(f.get("file").and_then(|v| v.as_str()), Some("q.chq"));
        assert!(f.get("query").and_then(|v| v.as_f64()).is_some());
    }
}

#[test]
fn schema_only_json_keeps_the_legacy_shape_plus_kind() {
    // Deprecation window: consumers of the schema-only JSON report must
    // see the shape they always saw — `kind` is the one additive field,
    // and the query-batch fields stay absent entirely.
    let schema = chc_sdl::compile(include_str!("fixtures/L005_fires.sdl")).unwrap();
    let report = chc_lint::run(&schema, &LintConfig::new());
    let parsed = chc_obs::json::parse(&report.to_json(&schema).render()).unwrap();
    let findings = parsed.get("findings").and_then(|f| f.as_array()).unwrap();
    assert!(!findings.is_empty());
    for f in findings {
        assert_eq!(f.get("kind").and_then(|v| v.as_str()), Some("schema"));
        assert!(f.get("file").is_none());
        assert!(f.get("query").is_none());
        for key in ["code", "name", "level", "message", "class"] {
            assert!(f.get(key).is_some(), "legacy key `{key}` missing");
        }
    }
}
