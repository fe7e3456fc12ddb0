//! SDL errors: lexical, syntactic, and lowering failures.

use std::fmt;

use chc_model::ModelError;

use crate::token::Pos;

/// An error produced while lexing, parsing, or lowering SDL text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SdlError {
    /// An unexpected character in the input.
    Lex {
        /// Where it occurred.
        pos: Pos,
        /// Description of the offending input.
        what: String,
    },
    /// The parser saw something other than what the grammar requires.
    Parse {
        /// Where it occurred.
        pos: Pos,
        /// What was expected.
        expected: String,
        /// What was found.
        found: String,
    },
    /// The AST referenced a class name never defined.
    UnknownClass {
        /// Where it occurred.
        pos: Pos,
        /// The undefined name.
        name: String,
    },
    /// A structural error reported by the schema builder.
    Model {
        /// The nearest source position, when lowering can attribute the
        /// error to a declaration (e.g. the second occurrence of a
        /// duplicated class, or a class on an is-a cycle).
        pos: Option<Pos>,
        /// The underlying structural error.
        err: ModelError,
    },
}

impl fmt::Display for SdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdlError::Lex { pos, what } => write!(f, "{pos}: lexical error: {what}"),
            SdlError::Parse {
                pos,
                expected,
                found,
            } => {
                write!(f, "{pos}: expected {expected}, found {found}")
            }
            SdlError::UnknownClass { pos, name } => {
                write!(f, "{pos}: reference to undefined class `{name}`")
            }
            SdlError::Model { pos: Some(p), err } => write!(f, "{p}: schema error: {err}"),
            SdlError::Model { pos: None, err } => write!(f, "schema error: {err}"),
        }
    }
}

impl std::error::Error for SdlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SdlError::Model { err, .. } => Some(err),
            _ => None,
        }
    }
}

impl From<ModelError> for SdlError {
    fn from(e: ModelError) -> Self {
        SdlError::Model { pos: None, err: e }
    }
}
