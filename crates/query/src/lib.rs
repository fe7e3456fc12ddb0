//! # chc-query — typed queries with run-time check elimination
//!
//! §5.4's payoff, end to end: a small query language over class extents
//! ([`Query`]), a type-checking compiler ([`compile`]) that narrows the
//! iteration variable through membership guards, warns about residual
//! hazards, and — depending on [`CheckMode`] — inserts run-time safety
//! checks only where a type error can actually occur; and an instrumented
//! evaluator ([`execute`]) that reports its accounting two ways: the
//! per-call [`ExecStats`] returned with each result, and the workspace-wide
//! `chc-obs` recorder (`query.checks_executed`, `query.rows_scanned`, …)
//! that experiment E4 and the `chc --stats` CLI read.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyze;
pub mod ast;
pub mod eval;
pub mod parse;
pub mod plan;

pub use analyze::{analyze_query, synthesize_guards, QuerySafety, StepSafety};
pub use ast::{Pred, Query, QueryBuilder};
pub use eval::{execute, ExecResult, ExecStats};
pub use parse::{
    parse_query, parse_query_file, parse_query_spanned, QueryParseError, QueryParseErrorKind,
    SpannedQuery,
};
pub use plan::{compile, CheckMode, Plan, TypeError};
