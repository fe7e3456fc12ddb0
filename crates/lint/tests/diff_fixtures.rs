//! Integration tests for the D-family evolution lints: each code fires
//! on a minimal old/new schema pair, the findings render into the right
//! file, and the JSON envelope tags them as `"kind": "diff"`.

use chc_lint::{render_report_sources, run_diff, LintCode, LintConfig, LintLevel};
use chc_model::Schema;

fn diff(old_src: &str, new_src: &str) -> (Schema, Schema, chc_lint::DiffReport) {
    let old = chc_sdl::compile_with_source(old_src, "old.sdl").unwrap();
    let new = chc_sdl::compile_with_source(new_src, "new.sdl").unwrap();
    let report = run_diff(&old, &new, Some("old.sdl"), &LintConfig::new());
    (old, new, report)
}

#[test]
fn d001_fires_on_a_narrowing_with_its_extent_count() {
    let (_, new, outcome) = diff(
        "class Person with age: 1..120;\nclass Employee is-a Person;\n",
        "class Person with age: 21..65;\nclass Employee is-a Person;\n",
    );
    let f = outcome
        .report
        .findings
        .iter()
        .find(|f| f.code == LintCode::BreakingNarrowing)
        .expect("D001 fires");
    assert_eq!(f.level, LintLevel::Warn);
    assert_eq!(new.class_name(f.class), "Person");
    // Both Person and Employee store objects that may now be out of range.
    assert!(f.message.contains("2 extent(s)"), "{}", f.message);
    assert!(f.file.is_none(), "D001 anchors in the new file");
    assert!(f.span.is_some());
}

#[test]
fn d002_fires_with_a_derivation_when_an_edit_introduces_a_contradiction() {
    // Old: Employee narrows Person.age (coherent). New: Person's range
    // moves away, leaving Employee's unexcused redefinition disjoint —
    // no admissible value for Employee.age remains.
    let (_, new, outcome) = diff(
        "class Person with age: 1..120;\nclass Employee is-a Person with age: 18..65;\n",
        "class Person with age: 70..120;\nclass Employee is-a Person with age: 18..65;\n",
    );
    let f = outcome
        .report
        .findings
        .iter()
        .find(|f| f.code == LintCode::ContradictionIntroduced)
        .expect("D002 fires");
    assert_eq!(new.class_name(f.class), "Employee");
    assert!(
        f.derivation.is_some(),
        "D002 justifies the incoherence with the admissibility derivation"
    );
}

#[test]
fn d003_fires_on_a_retired_excuse_and_anchors_in_the_old_file() {
    let old_src = "class Physician;\nclass Psychologist;\n\
                   class Patient with treatedBy: Physician;\n\
                   class Alcoholic is-a Patient with\n    \
                   treatedBy: Psychologist excuses treatedBy on Patient;\n";
    let new_src = "class Physician;\nclass Psychologist;\n\
                   class Patient with treatedBy: Physician;\n\
                   class Alcoholic is-a Patient with\n    treatedBy: Psychologist;\n";
    let (_, new, outcome) = diff(old_src, new_src);
    let f = outcome
        .report
        .findings
        .iter()
        .find(|f| f.code == LintCode::ExcuseRetiredOrphan)
        .expect("D003 fires");
    assert_eq!(new.class_name(f.class), "Alcoholic");
    assert_eq!(f.file.as_deref(), Some("old.sdl"));
    let span = f.span.expect("anchored at the retired clause");
    assert_eq!(span.line, 5, "points at the old excuses clause");
    // The renderer quotes the *old* source for findings carrying a file.
    let text = render_report_sources(&outcome.report, &new, Some(new_src), Some(old_src)).to_string();
    assert!(text.contains("old.sdl:5:"), "{text}");
    assert!(text.contains("excuses treatedBy on Patient"), "{text}");
}

#[test]
fn d004_and_d005_are_advisory() {
    let (_, _, outcome) = diff(
        "class Person with age: 1..120;\n",
        "class Person with age: 0..130;\n",
    );
    let widened = outcome
        .report
        .findings
        .iter()
        .find(|f| f.code == LintCode::SilentWidening)
        .expect("D004 fires");
    assert_eq!(widened.level, LintLevel::Info);
    let cone = outcome
        .report
        .findings
        .iter()
        .find(|f| f.code == LintCode::ConeReport)
        .expect("D005 fires");
    assert_eq!(cone.level, LintLevel::Info);
    assert!(cone.message.contains("impact cone"), "{}", cone.message);
    assert!(outcome.report.is_ok(), "info findings never fail the run");
}

#[test]
fn severity_flags_apply_to_d_codes() {
    let old = "class Person with age: 1..120;\n";
    let new = "class Person with age: 21..65;\n";
    let o = chc_sdl::compile(old).unwrap();
    let n = chc_sdl::compile(new).unwrap();

    let mut cfg = LintConfig::new();
    cfg.set(LintCode::BreakingNarrowing, LintLevel::Allow);
    cfg.set(LintCode::ConeReport, LintLevel::Allow);
    let outcome = run_diff(&o, &n, None, &cfg);
    assert!(outcome.report.findings.is_empty());

    let mut cfg = LintConfig::new();
    cfg.deny_warnings = true;
    let outcome = run_diff(&o, &n, None, &cfg);
    assert!(!outcome.report.is_ok(), "--deny warnings escalates D001");
}

#[test]
fn diff_findings_round_trip_through_json_with_kind_diff() {
    let (_, new, outcome) = diff(
        "class Person with age: 1..120;\n",
        "class Person with age: 21..65;\n",
    );
    let json = outcome.report.to_json(&new);
    let parsed = chc_obs::json::parse(&json.render()).expect("valid JSON");
    assert_eq!(parsed, json);
    assert_eq!(
        parsed.get("schema").and_then(|v| v.as_str()),
        Some("chc-lint/1")
    );
    let findings = parsed.get("findings").and_then(|v| v.as_array()).unwrap();
    assert!(!findings.is_empty());
    for f in findings {
        assert_eq!(
            f.get("kind").and_then(|v| v.as_str()),
            Some("diff"),
            "every D finding is tagged kind=diff"
        );
        let code = f.get("code").and_then(|v| v.as_str()).unwrap();
        assert!(code.starts_with('D'), "{code}");
    }
}
