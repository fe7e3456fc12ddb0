//! Checker diagnostics.
//!
//! The paper's *verifiability* desideratum (§5): "the language compiler or
//! environment should be able to alert the programmer about cases of
//! inconsistent specification." Diagnostics are the alerting vehicle:
//! hard errors for unexcused contradictions, warnings for redundant
//! excuses ("nothing wrong will happen if an excuse is added — it will
//! simply be redundant", §5.3).

use std::fmt::{self, Display};

use chc_model::{ClassId, Schema, Sym};

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; the schema is still well-formed.
    Warning,
    /// The schema violates the specialization-or-excuse rule.
    Error,
}

/// What went wrong (or is merely odd).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiagKind {
    /// A subclass redefined an attribute with a range that is not a
    /// specialization of an inherited range, and no applicable excuse
    /// covers the contradicted constraint (§5.1's revised rule).
    UnexcusedContradiction {
        /// The class carrying the contradicted constraint.
        contradicted: ClassId,
    },
    /// The declared range escapes the excusing range: an excuse for the
    /// contradicted constraint exists, but the new range is not within
    /// what the excuser allows, so instances would still violate the
    /// §5.2 semantics.
    ExcuseRangeEscape {
        /// The class carrying the contradicted constraint.
        contradicted: ClassId,
        /// The excuser whose range was escaped.
        excuser: ClassId,
    },
    /// Two inherited constraints on the same attribute are mutually
    /// unsatisfiable and neither is excused — instances of this class
    /// cannot exist (the unexcused Quaker∧Republican situation, §4.1).
    IncompatibleParents {
        /// One constraint-carrying ancestor.
        a: ClassId,
        /// The other.
        b: ClassId,
    },
    /// Every pair of inherited constraints overlaps, but no single value
    /// satisfies all of them at once (a k-way conflict) — instances of
    /// this class still cannot exist.
    JointlyUnsatisfiable {
        /// The constraint-carrying ancestors.
        declarers: Vec<ClassId>,
    },
    /// An excuse was stated for a constraint the declaration does not in
    /// fact contradict (harmless; §5.3).
    RedundantExcuse {
        /// The excused class.
        on: ClassId,
    },
}

/// One checker finding, attached to a class/attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// The finding.
    pub kind: DiagKind,
    /// The class whose definition triggered the finding.
    pub class: ClassId,
    /// The attribute involved.
    pub attr: Sym,
}

impl Diagnostic {
    /// The source position of the finding's site (the attribute
    /// declaration, falling back to the class definition), when the
    /// schema was compiled from SDL text.
    pub fn span(&self, schema: &Schema) -> Option<chc_model::Span> {
        schema.source_map().site_span(self.class, Some(self.attr))
    }

    /// The diagnostic with names resolved against `schema`, prefixed
    /// with `file:line:col` when a source position is known.
    pub fn render<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        chc_obs::display_with(move |f| {
            if let Some(span) = self.span(schema) {
                write!(f, "{}: ", schema.source_map().locate(span))?;
            }
            self.message(schema).fmt(f)
        })
    }

    /// The diagnostic message, without any position prefix.
    pub fn message<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        chc_obs::display_with(move |f| {
            let (sev, class) = (self.severity, schema.class_name(self.class));
            let attr = schema.resolve(self.attr);
            match &self.kind {
                DiagKind::UnexcusedContradiction { contradicted } => write!(
                    f,
                    "{sev}: `{class}.{attr}` contradicts the constraint on `{}` without excusing \
                     it; add `excuses {attr} on {}` or specialize the range",
                    schema.class_name(*contradicted),
                    schema.class_name(*contradicted),
                ),
                DiagKind::ExcuseRangeEscape { contradicted, excuser } => write!(
                    f,
                    "{sev}: `{class}.{attr}` is excused on `{}` via `{}`, but its range is not \
                     contained in the excusing range",
                    schema.class_name(*contradicted),
                    schema.class_name(*excuser),
                ),
                DiagKind::IncompatibleParents { a, b } => write!(
                    f,
                    "{sev}: `{class}` inherits incompatible constraints on `{attr}` from `{}` \
                     and `{}`; instances cannot satisfy both — excuse one of them",
                    schema.class_name(*a),
                    schema.class_name(*b),
                ),
                DiagKind::JointlyUnsatisfiable { declarers } => {
                    write!(
                        f,
                        "{sev}: no value of `{class}.{attr}` can satisfy all of the \
                         constraints inherited from "
                    )?;
                    for (i, d) in declarers.iter().enumerate() {
                        let sep = if i == 0 { "" } else { ", " };
                        write!(f, "{sep}`{}`", schema.class_name(*d))?;
                    }
                    f.write_str(" at once — excuse at least one of them")
                }
                DiagKind::RedundantExcuse { on } => write!(
                    f,
                    "{sev}: the excuse of `{}.{attr}` by `{class}` is redundant (the range is \
                     already a specialization or another excuse applies)",
                    schema.class_name(*on),
                ),
            }
        })
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The result of checking a schema.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// All findings, in class-id order.
    pub diagnostics: Vec<Diagnostic>,
}

impl CheckReport {
    /// Whether the schema is accepted (no errors; warnings allowed).
    pub fn is_ok(&self) -> bool {
        self.diagnostics.iter().all(|d| d.severity != Severity::Error)
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error)
    }

    /// The warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning)
    }

    /// Every finding rendered against `schema`, one per line.
    pub fn render<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        chc_obs::display_with(move |f| {
            for (i, d) in self.diagnostics.iter().enumerate() {
                f.write_str(if i == 0 { "" } else { "\n" })?;
                d.render(schema).fmt(f)?;
            }
            Ok(())
        })
    }
}
