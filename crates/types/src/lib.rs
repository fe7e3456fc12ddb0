//! # chc-types — the conditional type theory of §5.4
//!
//! "A challenge for designers and implementors … is then to design a type
//! theory and a type inference/checking algorithm" for class hierarchies
//! with excuses. This crate is that theory:
//!
//! * [`Ty`]/[`CondTy`] with [`subtype()`] — the declarative type language
//!   with conditional types `[p : T0 + T1/E1 + …]` and the subtype
//!   relation the paper's example theorems require.
//! * [`EntityFacts`] — positive/negative membership knowledge, closed
//!   under the is-a hierarchy.
//! * [`TypeContext::attr_type`] — the possible type of `x.p` given facts
//!   about `x`, folding every applicable constraint and its excusers.
//! * [`branch_on_membership`] / [`deduce_not_in`] — guard narrowing and
//!   the paper's negative deduction (modus tollens over conditionals).
//! * [`analyze_path`] — safety analysis of attribute paths, powering
//!   compile-time run-time-check elimination in `chc-query`.
//! * [`oracle`] — an exhaustive set-theoretic oracle certifying the
//!   deductions sound and (under total knowledge) complete.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ctx;
pub mod display;
pub mod facts;
pub mod narrow;
pub mod oracle;
pub mod safety;
pub mod subtype;
pub mod tyset;

pub use ctx::{AttrTypeCache, TypeContext};
pub use display::{render_cond, render_explain, render_ty, render_tyset};
pub use facts::EntityFacts;
pub use narrow::{branch_on_membership, deduce_not_in, Branches};
pub use safety::{analyze_path, analyze_path_from, Hazard, PathAnalysis};
pub use subtype::{cond_of, cond_subtype, subtype, ty_of_range, CondTy, Prim, Ty};
pub use tyset::{Atom, TySet};
