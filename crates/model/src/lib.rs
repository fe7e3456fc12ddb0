//! # chc-model — the object/data model substrate
//!
//! This crate defines the vocabulary shared by every other crate in the
//! `excuses` workspace, implementing the object-based data model of
//! Borgida's *Modeling Class Hierarchies with Contradictions* (SIGMOD
//! 1988), §1–§3:
//!
//! * objects identified by surrogates ([`Oid`]),
//! * attribute values ([`Value`]),
//! * value constraints / ranges ([`Range`]) including in-line record
//!   types and the `None` (inapplicable) range,
//! * classes with multiple inheritance ([`Class`], [`ClassId`]),
//! * `excuses p on C` clauses attached to attribute specs ([`Excuse`]),
//! * immutable [`Schema`]s with precomputed is-a closures and an excuse
//!   index, built via [`SchemaBuilder`].
//!
//! Semantic checking of schemas (is a redefinition a proper
//! specialization? is a contradiction excused?) lives in `chc-core`; the
//! conditional type theory lives in `chc-types`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bitset;
pub mod builder;
pub mod class;
pub mod error;
pub mod hash;
pub mod object;
pub mod range;
pub mod schema;
pub mod source;
pub mod symbol;
pub mod value;
pub mod view;

pub use bitset::BitSet;
pub use builder::SchemaBuilder;
pub use class::{AttrDecl, Class, ClassId, ClassKind};
pub use error::ModelError;
pub use hash::{FxBuildHasher, FxHasher};
pub use object::{Oid, OidAllocator};
pub use range::{AttrSpec, Excuse, FieldSpec, Range, Sort};
pub use schema::{ExcuserEntry, Schema};
pub use source::{SourceMap, Span};
pub use symbol::{Interner, Sym};
pub use value::Value;
pub use view::{InstanceView, NoInstances};
