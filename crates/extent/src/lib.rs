//! # chc-extent — extent management
//!
//! The paper's §2c/§3c machinery: class extents with the subset constraint
//! maintained automatically ([`ExtentStore`]), definitional classes
//! ([`DefClass`]), meta-classes with class-level attributes
//! ([`MetaClass`]), computed extents for §5.6's virtual classes
//! ([`virtual_extent()`], [`refresh_virtual_extents`]), store-integrated
//! validation ([`validate_stored`], [`validate_loaded`]), and excusable
//! integrity assertions over relationships between objects
//! ([`AssertionSet`], §2d).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod assertions;
pub mod data;
pub mod defclass;
pub mod metaclass;
pub mod store;
pub mod validate;
pub mod virtual_extent;

pub use assertions::{Assertion, AssertionSet, AssertionViolation};
pub use data::{load_data, DataError, LoadedData, Names, NamesIter};
pub use defclass::DefClass;
pub use metaclass::{avg_over_extent, MetaClass};
pub use store::ExtentStore;
pub use validate::{validate_all, validate_loaded, validate_stored};
pub use virtual_extent::{refresh_virtual_extents, virtual_extent};
