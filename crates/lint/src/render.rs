//! The text renderer: rustc-style findings that quote the offending SDL
//! line with a caret.
//!
//! ```text
//! warning[L004]: is-a edge `QR is-a Person` is redundant: already implied by superclass `Quaker`
//!   --> demo.sdl:4:23
//!    |
//!  4 | class QR is-a Quaker, Person;
//!    |                       ^
//! ```
//!
//! Query findings (`Q...`) point into the `.chq` file instead of the
//! schema; [`render_report_sources`] takes both texts and quotes the
//! right one per finding.

use chc_model::Schema;

use crate::config::LintLevel;
use crate::engine::LintReport;
use crate::finding::Finding;

/// Renders one finding. `src` is the text the finding's span points into
/// (the SDL source for schema findings, the query text for Q findings),
/// used to quote the offending line; without it (or without a span) only
/// the headline and location are printed.
pub fn render_finding(finding: &Finding, schema: &Schema, src: Option<&str>) -> String {
    let lines: Option<Vec<&str>> = src.map(|s| s.lines().collect());
    render_quoting(finding, schema, lines.as_deref())
}

/// [`render_finding`] over the source text already split into lines, so
/// a whole report splits each text once.
fn render_quoting(finding: &Finding, schema: &Schema, lines: Option<&[&str]>) -> String {
    let level = match finding.level {
        LintLevel::Deny => "error",
        LintLevel::Info => "info",
        _ => "warning",
    };
    let mut out = format!("{level}[{}]: {}", finding.code.code(), finding.message);
    let Some(span) = finding.span else {
        return out;
    };
    if let Some(loc) = finding.location(schema) {
        out.push_str(&format!("\n  --> {loc}"));
    }
    let quoted = lines.and_then(|l| l.get((span.line as usize).checked_sub(1)?));
    if let Some(line) = quoted {
        let gutter = span.line.to_string().len().max(2);
        let caret_pad = " ".repeat(span.col as usize - 1);
        out.push_str(&format!(
            "\n{blank} |\n{num:>gutter$} | {line}\n{blank} | {caret_pad}^",
            blank = " ".repeat(gutter),
            num = span.line,
        ));
    }
    out
}

/// Renders a whole report against a single source text (schema-only
/// runs). The empty report renders as the empty string.
pub fn render_report(report: &LintReport, schema: &Schema, src: Option<&str>) -> String {
    render_report_sources(report, schema, src, None)
}

/// Renders a mixed report: schema findings quote `schema_src`, query
/// findings (those carrying a file) quote `query_src`.
pub fn render_report_sources(
    report: &LintReport,
    schema: &Schema,
    schema_src: Option<&str>,
    query_src: Option<&str>,
) -> String {
    if report.findings.is_empty() {
        return String::new();
    }
    let schema_lines: Option<Vec<&str>> = schema_src.map(|s| s.lines().collect());
    let query_lines: Option<Vec<&str>> = query_src.map(|s| s.lines().collect());
    let mut blocks: Vec<String> = report
        .findings
        .iter()
        .map(|f| {
            let lines = if f.file.is_some() {
                &query_lines
            } else {
                &schema_lines
            };
            render_quoting(f, schema, lines.as_deref())
        })
        .collect();
    let denied = report.denied().count();
    let warned = report.warnings().count();
    let noted = report.infos().count();
    let mut summary = Vec::new();
    if denied > 0 {
        summary.push(format!("{denied} error{}", plural(denied)));
    }
    if warned > 0 {
        summary.push(format!("{warned} warning{}", plural(warned)));
    }
    if noted > 0 {
        summary.push(format!("{noted} note{}", plural(noted)));
    }
    blocks.push(format!("lint: {} emitted", summary.join(", ")));
    blocks.join("\n\n")
}

fn plural(n: usize) -> &'static str {
    if n == 1 { "" } else { "s" }
}
