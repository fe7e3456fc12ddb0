//! The lint driver: runs every registered lint, applies severity
//! configuration, and packages the findings.

use chc_core::Virtualized;
use chc_model::Schema;
use chc_obs::json::JsonValue;
use chc_query::SpannedQuery;

use crate::config::{LintConfig, LintLevel};
use crate::finding::Finding;
use crate::lints::{self, LintCtx};
use crate::LintCode;

/// The outcome of a lint run: surviving findings, ordered by source
/// position (findings without spans sort last, by class then code).
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All warn- and deny-level findings. Allowed lints never appear.
    pub findings: Vec<Finding>,
}

/// Runs every lint over `schema` and filters by `config`.
///
/// ```
/// let schema = chc_sdl::compile("
///     class Person with age: 1..120;
///     class Employee is-a Person with age: 1..120;
/// ").unwrap();
/// let report = chc_lint::run(&schema, &chc_lint::LintConfig::new());
/// // Employee.age repeats Person.age verbatim: L005 fires.
/// assert_eq!(report.findings.len(), 1);
/// assert_eq!(report.findings[0].code, chc_lint::LintCode::NoopRedefinition);
/// ```
pub fn run(schema: &Schema, config: &LintConfig) -> LintReport {
    let _span = chc_obs::span(chc_obs::names::SPAN_LINT_RUN);
    let ctx = LintCtx::new(schema);
    let mut findings = Vec::new();
    lints::incoherent::run(&ctx, &mut findings);
    lints::dead_excuse::run(&ctx, &mut findings);
    lints::unreachable::run(&ctx, &mut findings);
    lints::redundant_isa::run(&ctx, &mut findings);
    lints::noop_redef::run(&ctx, &mut findings);
    lints::unused::run(&ctx, &mut findings);

    findings.retain_mut(|f| match config.level(f.code) {
        LintLevel::Allow => false,
        level => {
            f.level = level;
            true
        }
    });
    chc_obs::counter(chc_obs::names::LINT_FIRED, findings.len() as u64);

    sort_findings(&mut findings);
    LintReport { findings }
}

/// Runs the query safety analyzer (Q001–Q005) over a parsed `.chq` batch
/// against a virtualized schema, filtered by `config`. `file` names the
/// batch in locations and the JSON report (`<query>` for ad-hoc strings).
///
/// A query preceded by a `-- expect: Q001 …` directive inverts the
/// severity contract for the named codes: findings that do fire are
/// downgraded to info (so known-hazardous showcase queries pass a
/// `--deny warnings` sweep), and an expected code that does *not* fire
/// becomes a deny-level finding — the fixture has gone stale.
pub fn run_queries(
    v: &Virtualized,
    queries: &[SpannedQuery],
    file: Option<&str>,
    config: &LintConfig,
) -> LintReport {
    let _span = chc_obs::span(chc_obs::names::SPAN_LINT_QUERY);
    let file = file.unwrap_or("<query>");
    let mut findings = Vec::new();
    lints::query::run(v, queries, file, &mut findings);

    let mut fired: Vec<Vec<LintCode>> = vec![Vec::new(); queries.len()];
    for f in &findings {
        if let Some(qi) = f.query {
            fired[qi].push(f.code);
        }
    }
    let expects_code = |qi: Option<usize>, code: LintCode| {
        qi.is_some_and(|qi| {
            queries[qi]
                .expect
                .iter()
                .any(|e| e.eq_ignore_ascii_case(code.code()) || e == code.name())
        })
    };
    findings.retain_mut(|f| {
        if expects_code(f.query, f.code) {
            f.level = LintLevel::Info;
            f.message.push_str(" (expected)");
            true
        } else {
            match config.level(f.code) {
                LintLevel::Allow => false,
                level => {
                    f.level = level;
                    true
                }
            }
        }
    });
    for (qi, sq) in queries.iter().enumerate() {
        for exp in &sq.expect {
            let met = fired[qi].iter().any(|c| {
                exp.eq_ignore_ascii_case(c.code()) || exp == c.name()
            });
            if !met {
                findings.push(Finding {
                    code: LintCode::parse(exp).unwrap_or(LintCode::UnsafePath),
                    level: LintLevel::Deny,
                    class: sq.query.class,
                    attr: None,
                    span: Some(sq.span),
                    file: Some(file.to_string()),
                    query: Some(qi),
                    message: format!(
                        "expected {exp} to fire on this query, but it did not"
                    ),
                    derivation: None,
                });
            }
        }
    }
    chc_obs::counter(chc_obs::names::LINT_FIRED, findings.len() as u64);

    sort_findings(&mut findings);
    LintReport { findings }
}

/// The outcome of a diff-lint run: the semantic edit list, the impact
/// cone it dirties, and the D-family findings over both.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The matched, classified edits between the two schemas.
    pub diff: chc_core::SchemaDiff,
    /// Union of every edit's impact cone, in new-schema ids.
    pub dirty: chc_core::DirtySet,
    /// The D001–D005 findings, filtered by the severity configuration.
    pub report: LintReport,
}

/// Diffs `old` against `new` and runs the evolution lints (D001–D005)
/// over the edit list, filtered by `config`. Findings anchored in the old
/// schema's file (e.g. a retired excuse clause, D003) carry `old_file` in
/// [`Finding::file`]; everything else locates in the new schema.
///
/// Render findings against the *new* schema — every finding's class id
/// lives there.
pub fn run_diff(
    old: &Schema,
    new: &Schema,
    old_file: Option<&str>,
    config: &LintConfig,
) -> DiffReport {
    let _span = chc_obs::span(chc_obs::names::SPAN_LINT_RUN);
    let old_file = old_file.or_else(|| old.source_map().file()).unwrap_or("<old>");
    let diff = chc_core::diff_schemas(old, new);
    let dirty = chc_core::impact_cone(old, new, &diff);
    let mut findings = Vec::new();
    lints::diff::run(old, new, &diff, &dirty, old_file, &mut findings);

    findings.retain_mut(|f| match config.level(f.code) {
        LintLevel::Allow => false,
        level => {
            f.level = level;
            true
        }
    });
    chc_obs::counter(chc_obs::names::LINT_FIRED, findings.len() as u64);

    sort_findings(&mut findings);
    DiffReport { diff, dirty, report: LintReport { findings } }
}

/// Runs the schema lints and the query safety analyzer in one report.
/// Schema lints run over the original `schema` (virtual classes would
/// only produce cascade noise); query analysis needs the virtualized
/// view. Render the result against `v.schema` — original class ids are
/// preserved by virtualization and the source map is carried over.
pub fn run_with_queries(
    schema: &Schema,
    v: &Virtualized,
    queries: &[SpannedQuery],
    file: Option<&str>,
    config: &LintConfig,
) -> LintReport {
    let mut findings = run(schema, config).findings;
    findings.extend(run_queries(v, queries, file, config).findings);
    LintReport { findings }
}

/// Source order within each input: spanned findings first (by position),
/// then span-less ones by class and code; schema findings (no file)
/// before query findings.
fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        let key = |f: &Finding| {
            (
                f.file.clone(),
                f.query,
                f.span.is_none(),
                f.span.map(|s| (s.line, s.col)).unwrap_or((0, 0)),
                f.class,
                f.code,
            )
        };
        key(a).cmp(&key(b))
    });
}

impl LintReport {
    /// Whether the run passes: no deny-level findings.
    pub fn is_ok(&self) -> bool {
        self.denied().next().is_none()
    }

    /// The deny-level findings.
    pub fn denied(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.level == LintLevel::Deny)
    }

    /// The warn-level findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.level == LintLevel::Warn)
    }

    /// The info-level findings (advisory notes; never fail the run).
    pub fn infos(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.level == LintLevel::Info)
    }

    /// How many findings carry each code, over [`LintCode::ALL`].
    pub fn count(&self, code: LintCode) -> usize {
        self.findings.iter().filter(|f| f.code == code).count()
    }

    /// The whole report as a [`JsonValue`] object:
    /// `{"schema":"chc-lint/1","tool":"chc-lint","file":…,"findings":[…],"counts":{…}}`.
    /// The `schema` field is the envelope version tag — downstream
    /// parsers should check it to detect format drift. Rendering the
    /// value and feeding the text back through `chc_obs::json::parse`
    /// reproduces it.
    pub fn to_json(&self, schema: &Schema) -> JsonValue {
        let mut fields: Vec<(&str, JsonValue)> = Vec::new();
        fields.push(("schema", JsonValue::string("chc-lint/1")));
        fields.push(("tool", JsonValue::string("chc-lint")));
        if let Some(file) = schema.source_map().file() {
            fields.push(("file", JsonValue::string(file)));
        }
        fields.push((
            "findings",
            JsonValue::array(self.findings.iter().map(|f| f.to_json(schema))),
        ));
        fields.push((
            "counts",
            JsonValue::object([
                ("total", JsonValue::number(self.findings.len() as f64)),
                ("warn", JsonValue::number(self.warnings().count() as f64)),
                ("deny", JsonValue::number(self.denied().count() as f64)),
                ("info", JsonValue::number(self.infos().count() as f64)),
            ]),
        ));
        JsonValue::object(fields)
    }
}

impl DiffReport {
    /// The `chc-diff/1` envelope: the classified edit list, the dirty set
    /// (class names, in the new schema), edit counts by kind, and the
    /// D-family report nested under `"lints"` as its own `chc-lint/1`
    /// envelope ([`LintReport::to_json`]).
    pub fn to_json(&self, old_path: &str, new_path: &str, new_schema: &Schema) -> JsonValue {
        use chc_core::EditKind;
        let edits = self.diff.edits.iter().map(|e| {
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
        let names = |ids: &std::collections::BTreeSet<chc_model::ClassId>| {
            JsonValue::array(ids.iter().map(|&c| JsonValue::string(new_schema.class_name(c))))
        };
        let count = |kind| JsonValue::number(self.diff.count(kind) as f64);
        JsonValue::object([
            ("schema", JsonValue::string("chc-diff/1")),
            ("tool", JsonValue::string("chc-diff")),
            ("old", JsonValue::string(old_path)),
            ("new", JsonValue::string(new_path)),
            ("edits", JsonValue::array(edits)),
            (
                "dirty",
                JsonValue::object([
                    ("classes", names(&self.dirty.classes)),
                    ("extents", names(&self.dirty.extents)),
                ]),
            ),
            (
                "counts",
                JsonValue::object([
                    ("edits", JsonValue::number(self.diff.edits.len() as f64)),
                    ("additive", count(EditKind::Additive)),
                    ("refining", count(EditKind::Refining)),
                    ("breaking", count(EditKind::Breaking)),
                ]),
            ),
            ("lints", self.report.to_json(new_schema)),
        ])
    }

    /// The one-line text summary `chc diff` ends with: edit counts by
    /// kind and the size of the dirty set.
    pub fn summary(&self, old_path: &str, new_path: &str) -> String {
        use chc_core::EditKind;
        format!(
            "{old_path} -> {new_path}: {} edit(s) ({} additive, {} refining, {} breaking); \
             dirty: {} class(es) to re-check, {} extent(s) to re-validate",
            self.diff.edits.len(),
            self.diff.count(EditKind::Additive),
            self.diff.count(EditKind::Refining),
            self.diff.count(EditKind::Breaking),
            self.dirty.classes.len(),
            self.dirty.extents.len(),
        )
    }
}
