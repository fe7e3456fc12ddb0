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

use std::fmt;

use chc_model::Schema;

use crate::config::LintLevel;
use crate::engine::LintReport;
use crate::finding::Finding;

/// One finding. `src` is the text the finding's span points into (the
/// SDL source for schema findings, the query text for Q findings), used
/// to quote the offending line; without it (or without a span) only the
/// headline and location are written.
pub fn render_finding<'a>(
    finding: &'a Finding,
    schema: &'a Schema,
    src: Option<&'a str>,
) -> impl fmt::Display + 'a {
    chc_obs::display_with(move |f| {
        let lines: Option<Vec<&str>> = src.map(|s| s.lines().collect());
        write_quoting(f, finding, schema, lines.as_deref())
    })
}

/// Writes [`render_finding`] over the source text already split into
/// lines, so a whole report splits each text once.
fn write_quoting(
    f: &mut fmt::Formatter<'_>,
    finding: &Finding,
    schema: &Schema,
    lines: Option<&[&str]>,
) -> fmt::Result {
    let level = match finding.level {
        LintLevel::Deny => "error",
        LintLevel::Info => "info",
        _ => "warning",
    };
    write!(f, "{level}[{}]: {}", finding.code.code(), finding.message)?;
    let Some(span) = finding.span else {
        return Ok(());
    };
    if let Some(loc) = finding.location(schema) {
        write!(f, "\n  --> {loc}")?;
    }
    let quoted = lines.and_then(|l| l.get((span.line as usize).checked_sub(1)?));
    if let Some(line) = quoted {
        let gutter = span.line.to_string().len().max(2);
        let (num, col) = (span.line, span.col as usize);
        write!(f, "\n{:gutter$} |\n{num:>gutter$} | {line}\n{:gutter$} | {:>col$}", "", "", "^")?;
    }
    Ok(())
}

/// A whole report against a single source text (schema-only runs), as a
/// `String`. The empty report renders as the empty string.
pub fn render_report(report: &LintReport, schema: &Schema, src: Option<&str>) -> String {
    render_report_sources(report, schema, src, None).to_string()
}

/// A mixed report: schema findings quote `schema_src`, query findings
/// (those carrying a file) quote `query_src`. Each finding is followed by
/// a blank line, then the `lint: … emitted` summary; the empty report
/// writes nothing.
pub fn render_report_sources<'a>(
    report: &'a LintReport,
    schema: &'a Schema,
    schema_src: Option<&'a str>,
    query_src: Option<&'a str>,
) -> impl fmt::Display + 'a {
    chc_obs::display_with(move |f| {
        if report.findings.is_empty() {
            return Ok(());
        }
        let schema_lines: Option<Vec<&str>> = schema_src.map(|s| s.lines().collect());
        let query_lines: Option<Vec<&str>> = query_src.map(|s| s.lines().collect());
        for finding in &report.findings {
            let lines = match finding.file {
                Some(_) => &query_lines,
                None => &schema_lines,
            };
            write_quoting(f, finding, schema, lines.as_deref())?;
            f.write_str("\n\n")?;
        }
        let counts = [
            (report.denied().count(), "error"),
            (report.warnings().count(), "warning"),
            (report.infos().count(), "note"),
        ];
        f.write_str("lint: ")?;
        for (i, (n, what)) in counts.into_iter().filter(|&(n, _)| n > 0).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}{n} {what}{}", if n == 1 { "" } else { "s" })?;
        }
        f.write_str(" emitted")
    })
}
