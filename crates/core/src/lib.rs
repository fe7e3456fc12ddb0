//! # chc-core — the excuses semantics
//!
//! The paper's primary contribution (§5): class definitions may
//! *contradict* constraints stated on other classes, provided the
//! contradiction is explicitly acknowledged with an
//! `excuses p on C` clause. This crate implements:
//!
//! * [`check()`] — the revised specialization rule (§5.1): a redefined
//!   range must specialize every inherited range or excuse each
//!   contradicted constraint; plus joint-satisfiability checking for
//!   multiple inheritance and redundant-excuse warnings. It compares
//!   ranges through their [`canon`]ical forms.
//! * [`Semantics`] and [`constraint_holds`] — all four candidate
//!   semantics of §5.2 (and a strict baseline), with the paper's final
//!   rule `x.p ∈ R ∨ ∃(E,S). x ∈ E ∧ x.p ∈ S`.
//! * [`validate_object`] — run-time instance validation, including
//!   objects belonging to several incomparable classes.
//! * [`virtualize()`] — synthesis of the virtual classes (`H1`, `A1`)
//!   implied by embedded excuses (§5.6).
//! * [`evolve`] — local schema edits with re-checking (the locality and
//!   veracity desiderata).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod canon;
pub mod check;
pub mod diagnostics;
pub mod evolve;
pub mod sat;
pub mod semantics;
pub mod validate;
pub mod virtualize;

pub use check::check;
pub use diagnostics::{CheckReport, DiagKind, Diagnostic, Severity};
pub use evolve::diff::{
    check_incremental, diff_schemas, edit_cone, impact_cone, DirtySet, EditDetail, EditKind,
    IncrementalCheck, RangeRel, SchemaDiff, SchemaEdit,
};
pub use evolve::Evolved;
pub use sat::{
    admits_common_value, common_value_witness, explain_admissibility, incoherent_sites,
    Derivation, Witness,
};
pub use semantics::{constraint_holds, constraint_verdict, CheckVerdict, Semantics};
pub use validate::{object_is_valid, validate_object, MissingPolicy, ValidationOptions, Violation};
pub use virtualize::{virtualize, VirtualClassInfo, Virtualized};
