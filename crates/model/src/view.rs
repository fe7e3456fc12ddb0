//! The interface through which constraint evaluation observes a database.
//!
//! Range containment for `Class`/refined-class ranges needs to know which
//! classes an object belongs to and what its attribute values are. Those
//! facts live in an object store (`chc-extent`, `chc-storage`), which this
//! crate must not depend on; [`InstanceView`] is the seam.

use crate::class::ClassId;
use crate::object::Oid;
use crate::symbol::Sym;
use crate::value::Value;

/// Read-only access to object membership and attribute values.
pub trait InstanceView {
    /// Whether `oid` is an instance of `class` (including via subclasses).
    fn is_instance(&self, oid: Oid, class: ClassId) -> bool;

    /// The stored value of `attr` on `oid`, if any. `None` is treated by
    /// callers as [`Value::Absent`].
    fn attr_value(&self, oid: Oid, attr: Sym) -> Option<&Value>;
}

/// A borrowed view, so `&dyn InstanceView` can stand where a sized view
/// is asked for.
impl<T: InstanceView + ?Sized> InstanceView for &T {
    fn is_instance(&self, oid: Oid, class: ClassId) -> bool {
        (**self).is_instance(oid, class)
    }

    fn attr_value(&self, oid: Oid, attr: Sym) -> Option<&Value> {
        (**self).attr_value(oid, attr)
    }
}

/// A view of an empty database: no instances, no values. Useful for
/// evaluating purely structural ranges in tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoInstances;

impl InstanceView for NoInstances {
    fn is_instance(&self, _oid: Oid, _class: ClassId) -> bool {
        false
    }

    fn attr_value(&self, _oid: Oid, _attr: Sym) -> Option<&Value> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_instances_is_empty() {
        let mut i = crate::symbol::Interner::new();
        let attr = i.intern("age");
        let v = NoInstances;
        assert!(!v.is_instance(Oid::from_raw(0), ClassId::from_raw(0)));
        assert!(v.attr_value(Oid::from_raw(0), attr).is_none());
    }
}
