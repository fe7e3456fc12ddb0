//! # chc-storage — the §5.5 storage substrate
//!
//! Semantic-grouping logical records ([`RecordFormat`]), byte-level codecs
//! for homogeneous and self-describing rows ([`codec`]), row fragments
//! ([`Fragment`]), and the two storage layouts the paper weighs:
//! horizontal partitioning with type-guided file search
//! ([`PartitionedStore`]) versus a single table of variant records
//! ([`VariantStore`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod engine;
pub mod fragment;
pub mod record;

pub use codec::CodecError;
pub use engine::{Fetched, PartitionedStore, VariantStore};
pub use fragment::Fragment;
pub use record::RecordFormat;
