//! Lint findings: what a lint reports, where, and how loudly.

use chc_core::Derivation;
use chc_model::{ClassId, Schema, Span, Sym};
use chc_obs::json::JsonValue;

use crate::code::LintCode;
use crate::config::LintLevel;

/// One lint finding, anchored to a class (and possibly an attribute) with
/// a source span when the input carried positions. Schema findings point
/// into the SDL file via the schema's source map; query findings point
/// into the `.chq` file (or ad-hoc string) named by [`Finding::file`].
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which lint fired.
    pub code: LintCode,
    /// Effective severity after configuration (never `Allow`; allowed
    /// findings are dropped before they reach the report).
    pub level: LintLevel,
    /// The class the finding is about (for query lints: the scanned
    /// class, or the class a guard names).
    pub class: ClassId,
    /// The attribute involved, when the lint is attribute-scoped.
    pub attr: Option<Sym>,
    /// Source position of the offending declaration or query token.
    pub span: Option<Span>,
    /// For query findings: the file (or `<query>`) the span points into.
    /// Schema findings leave this `None` and locate via the source map.
    pub file: Option<String>,
    /// For query findings: 0-based index of the query within its batch.
    pub query: Option<usize>,
    /// Human-readable explanation, with schema names resolved.
    pub message: String,
    /// The provenance tree justifying the verdict, when the lint's
    /// decision came from the shared admissibility procedure
    /// (L001/L002/L003, and Q003/Q004/Q005 on the query side). Embedded
    /// in the JSON report so the linter, the checker's `--explain`, and
    /// the validator's audit ledger all cite the same structure.
    pub derivation: Option<Derivation>,
}

impl Finding {
    /// The `file:line:col` (or `line:col`) prefix, when a span is known.
    /// Query findings locate in their own file, not the schema's.
    pub fn location<'a>(&'a self, schema: &'a Schema) -> Option<impl std::fmt::Display + 'a> {
        let span = self.span?;
        Some(chc_obs::display_with(move |f| match &self.file {
            Some(file) => write!(f, "{file}:{span}"),
            None => write!(f, "{}", schema.source_map().locate(span)),
        }))
    }

    /// This finding as a [`JsonValue`] object (round-trippable through
    /// `chc_obs::json::parse`).
    pub fn to_json(&self, schema: &Schema) -> JsonValue {
        let mut fields: Vec<(&str, JsonValue)> = vec![
            ("code", JsonValue::string(self.code.code())),
            ("name", JsonValue::string(self.code.name())),
            (
                "kind",
                JsonValue::string(if self.code.is_query() {
                    "query"
                } else if self.code.is_diff() {
                    "diff"
                } else {
                    "schema"
                }),
            ),
            (
                "level",
                JsonValue::string(match self.level {
                    LintLevel::Deny => "deny",
                    LintLevel::Info => "info",
                    _ => "warn",
                }),
            ),
            ("class", JsonValue::string(schema.class_name(self.class))),
            ("message", JsonValue::string(&self.message)),
        ];
        if let Some(attr) = self.attr {
            fields.push(("attr", JsonValue::string(schema.resolve(attr))));
        }
        if let Some(span) = self.span {
            fields.push(("line", JsonValue::number(span.line as f64)));
            fields.push(("col", JsonValue::number(span.col as f64)));
        }
        if let Some(file) = &self.file {
            fields.push(("file", JsonValue::string(file)));
        }
        if let Some(q) = self.query {
            fields.push(("query", JsonValue::number(q as f64)));
        }
        if let Some(d) = &self.derivation {
            fields.push(("derivation", d.to_json(schema)));
        }
        JsonValue::object(fields)
    }
}
