//! Per-lint fixture pairs: for each code, one schema that fires it and
//! one near-miss that stays clean (of that code *and* of everything
//! else — the near-misses double as whole-engine false-positive tests).

use chc_lint::{run, LintCode, LintConfig, LintLevel};
use chc_model::Schema;

fn lint(src: &str, file: &str) -> (Schema, chc_lint::LintReport) {
    let schema = chc_sdl::compile_with_source(src, file).expect(file);
    let report = run(&schema, &LintConfig::new());
    (schema, report)
}

const PAIRS: [(LintCode, &str, &str, &str, &str); 6] = [
    (
        LintCode::IncoherentClass,
        "L001_fires.sdl",
        include_str!("fixtures/L001_fires.sdl"),
        "L001_clean.sdl",
        include_str!("fixtures/L001_clean.sdl"),
    ),
    (
        LintCode::DeadExcuse,
        "L002_fires.sdl",
        include_str!("fixtures/L002_fires.sdl"),
        "L002_clean.sdl",
        include_str!("fixtures/L002_clean.sdl"),
    ),
    (
        LintCode::UnreachableBranch,
        "L003_fires.sdl",
        include_str!("fixtures/L003_fires.sdl"),
        "L003_clean.sdl",
        include_str!("fixtures/L003_clean.sdl"),
    ),
    (
        LintCode::RedundantIsA,
        "L004_fires.sdl",
        include_str!("fixtures/L004_fires.sdl"),
        "L004_clean.sdl",
        include_str!("fixtures/L004_clean.sdl"),
    ),
    (
        LintCode::NoopRedefinition,
        "L005_fires.sdl",
        include_str!("fixtures/L005_fires.sdl"),
        "L005_clean.sdl",
        include_str!("fixtures/L005_clean.sdl"),
    ),
    (
        LintCode::UnusedClass,
        "L006_fires.sdl",
        include_str!("fixtures/L006_fires.sdl"),
        "L006_clean.sdl",
        include_str!("fixtures/L006_clean.sdl"),
    ),
];

#[test]
fn each_fires_fixture_fires_its_lint() {
    for (code, file, src, _, _) in PAIRS {
        let (_, report) = lint(src, file);
        assert!(
            report.count(code) >= 1,
            "{file}: expected {code} to fire, got {:?}",
            report.findings.iter().map(|f| f.code).collect::<Vec<_>>(),
        );
    }
}

#[test]
fn each_clean_fixture_is_completely_clean() {
    for (code, _, _, file, src) in PAIRS {
        let (schema, report) = lint(src, file);
        assert!(
            report.findings.is_empty(),
            "{file}: near-miss for {code} should be clean, got:\n{}",
            chc_lint::render_report(&report, &schema, Some(src)),
        );
    }
}

#[test]
fn fires_findings_carry_file_positions() {
    for (code, file, src, _, _) in PAIRS {
        let (schema, report) = lint(src, file);
        let f = report
            .findings
            .iter()
            .find(|f| f.code == code)
            .expect("fires");
        let loc = f.location(&schema).expect("span recorded from SDL").to_string();
        assert!(
            loc.starts_with(&format!("{file}:")),
            "{code}: location should be file:line:col, got {loc}"
        );
        // The rendered block quotes the offending source line with a caret.
        let text = chc_lint::render_finding(f, &schema, Some(src)).to_string();
        assert!(text.contains(&format!("--> {loc}")), "{text}");
        assert!(
            text.lines().last().unwrap().trim_end().ends_with('^'),
            "{text}"
        );
    }
}

#[test]
fn allow_suppresses_and_deny_escalates() {
    let src = include_str!("fixtures/L005_fires.sdl");
    let schema = chc_sdl::compile(src).unwrap();

    let mut cfg = LintConfig::new();
    cfg.set(LintCode::NoopRedefinition, LintLevel::Allow);
    assert!(run(&schema, &cfg).findings.is_empty());

    let mut cfg = LintConfig::new();
    cfg.set(LintCode::NoopRedefinition, LintLevel::Deny);
    let report = run(&schema, &cfg);
    assert!(!report.is_ok());
    assert_eq!(report.denied().count(), 1);

    let mut cfg = LintConfig::new();
    cfg.deny_warnings = true;
    assert!(!run(&schema, &cfg).is_ok());
}

#[test]
fn json_report_round_trips_through_chc_obs() {
    let (schema, report) = lint(include_str!("fixtures/L001_fires.sdl"), "L001_fires.sdl");
    let json = report.to_json(&schema);
    let text = json.render();
    let parsed = chc_obs::json::parse(&text).expect("valid JSON");
    assert_eq!(parsed, json);
    assert_eq!(
        parsed.get("schema").and_then(|v| v.as_str()),
        Some("chc-lint/1"),
        "the envelope leads with its version tag"
    );
    assert_eq!(
        parsed.get("tool").and_then(|v| v.as_str()),
        Some("chc-lint")
    );
    assert_eq!(
        parsed.get("file").and_then(|v| v.as_str()),
        Some("L001_fires.sdl")
    );
    let findings = parsed.get("findings").and_then(|v| v.as_array()).unwrap();
    assert!(!findings.is_empty());
    let f = &findings[0];
    assert_eq!(f.get("code").and_then(|v| v.as_str()), Some("L001"));
    assert!(f.get("line").and_then(|v| v.as_f64()).is_some());
}

#[test]
fn coherence_findings_embed_a_derivation() {
    // L001/L002/L003 justify their verdicts with the same Derivation
    // structure the checker's --explain renders.
    for (fixture, code, verdict_kind) in [
        (include_str!("fixtures/L001_fires.sdl"), "L001", "empty"),
        (
            include_str!("fixtures/L002_fires.sdl"),
            "L002",
            "dead-excuse",
        ),
        (include_str!("fixtures/L003_fires.sdl"), "L003", "empty"),
    ] {
        let (schema, report) = lint(fixture, "fixture.sdl");
        let json = report.to_json(&schema);
        let findings = json.get("findings").and_then(|v| v.as_array()).unwrap();
        let f = findings
            .iter()
            .find(|f| f.get("code").and_then(|v| v.as_str()) == Some(code))
            .unwrap_or_else(|| panic!("{code} fires on its fixture"));
        let d = f
            .get("derivation")
            .unwrap_or_else(|| panic!("{code} carries a derivation"));
        assert_eq!(
            d.get("verdict")
                .and_then(|v| v.get("kind"))
                .and_then(|v| v.as_str()),
            Some(verdict_kind),
            "{code}"
        );
        assert!(
            !d.get("constraints")
                .and_then(|v| v.as_array())
                .unwrap()
                .is_empty(),
            "{code} derivation cites at least one constraint"
        );
    }
    // Structural lints carry no derivation.
    let (schema, report) = lint(include_str!("fixtures/L004_fires.sdl"), "f.sdl");
    let json = report.to_json(&schema);
    let findings = json.get("findings").and_then(|v| v.as_array()).unwrap();
    let f = findings
        .iter()
        .find(|f| f.get("code").and_then(|v| v.as_str()) == Some("L004"))
        .unwrap();
    assert!(f.get("derivation").is_none());
}

#[test]
fn api_built_schemas_lint_without_spans() {
    // Schemas assembled through the builder have no source map; findings
    // must still be produced, just without positions.
    let mut b = chc_model::SchemaBuilder::new();
    let person = b.declare("Person").unwrap();
    let ghost = b.declare("Ghost").unwrap();
    let spec = chc_model::AttrSpec::plain(chc_model::Range::Str);
    b.add_attr(person, "name", spec).unwrap();
    let _ = ghost;
    let schema = b.build().unwrap();
    let report = run(&schema, &LintConfig::new());
    assert_eq!(report.count(LintCode::UnusedClass), 1);
    assert!(report.findings[0].span.is_none());
    assert!(report.findings[0].location(&schema).is_none());
}
