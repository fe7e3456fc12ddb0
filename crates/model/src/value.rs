//! Run-time values for attributes.
//!
//! The value universe follows §5.5 of the paper: integers, strings,
//! enumeration tokens (e.g. `'Dove`), entity references (surrogates), and
//! tuple structures (record values from in-line record types). [`Value::Absent`]
//! represents the value of an attribute whose range has been excused to
//! `None` — i.e. the attribute is inapplicable to this object.

use crate::object::Oid;
use crate::symbol::Sym;

/// A run-time attribute value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// An integer, e.g. an age or a room number.
    Int(i64),
    /// A character string.
    Str(Box<str>),
    /// An enumeration token such as `'Dove` or `'Switzerland`.
    Tok(Sym),
    /// A reference to another object by surrogate.
    Obj(Oid),
    /// A record value from an in-line record type; fields are kept sorted
    /// by name so equality is structural.
    Record(Box<[(Sym, Value)]>),
    /// The "value" of an inapplicable attribute (range `None`).
    Absent,
}

impl Value {
    /// [`Value::Absent`] behind a `'static` reference, for readers that
    /// return `&Value` and must stand in for a missing one.
    pub const ABSENT: &'static Value = &Value::Absent;

    /// Builds a string value.
    pub fn str(s: &str) -> Self {
        Value::Str(s.into())
    }

    /// Builds a record value, sorting fields by name and rejecting
    /// duplicate field names.
    ///
    /// # Panics
    /// Panics if two fields share a name — record values come from typed
    /// construction sites where this is a programming error.
    pub fn record(mut fields: Vec<(Sym, Value)>) -> Self {
        fields.sort_by_key(|(name, _)| *name);
        for w in fields.windows(2) {
            assert!(w[0].0 != w[1].0, "duplicate field in record value");
        }
        Value::Record(fields.into_boxed_slice())
    }

    /// Looks up a field of a record value; `None` for non-records or
    /// missing fields.
    pub fn field(&self, name: Sym) -> Option<&Value> {
        match self {
            Value::Record(fields) => fields
                .binary_search_by_key(&name, |(n, _)| *n)
                .ok()
                .map(|i| &fields[i].1),
            _ => None,
        }
    }

    /// A compact, single-line rendering with symbols resolved, for
    /// diagnostics, the audit ledger and `chc query` rows, written
    /// straight into the formatter.
    pub fn display<'a>(&'a self, schema: &'a crate::schema::Schema) -> impl std::fmt::Display + 'a {
        chc_obs::display_with(move |f| match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Tok(t) => write!(f, "'{}", schema.resolve(*t)),
            Value::Obj(o) => write!(f, "{o}"),
            Value::Record(fields) => {
                for (i, (name, v)) in fields.iter().enumerate() {
                    let sep = if i == 0 { "[" } else { ", " };
                    write!(f, "{sep}{} = {}", schema.resolve(*name), v.display(schema))?;
                }
                f.write_str(if fields.is_empty() { "[]" } else { "]" })
            }
            Value::Absent => f.write_str("absent"),
        })
    }

    /// [`Value::display`] as a `String`.
    pub fn render(&self, schema: &crate::schema::Schema) -> String {
        self.display(schema).to_string()
    }

    /// Whether this value is [`Value::Absent`].
    pub fn is_absent(&self) -> bool {
        matches!(self, Value::Absent)
    }

    /// The referenced object, if this is an entity reference.
    pub fn as_obj(&self) -> Option<Oid> {
        match self {
            Value::Obj(oid) => Some(*oid),
            _ => None,
        }
    }

    /// The integer payload, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Interner;

    #[test]
    fn record_fields_are_sorted_and_retrievable() {
        let mut i = Interner::new();
        let street = i.intern("street");
        let city = i.intern("city");
        let v = Value::record(vec![
            (city, Value::str("Bern")),
            (street, Value::str("Main St")),
        ]);
        assert_eq!(v.field(street), Some(&Value::str("Main St")));
        assert_eq!(v.field(city), Some(&Value::str("Bern")));
    }

    #[test]
    fn field_on_non_record_is_none() {
        let mut i = Interner::new();
        let f = i.intern("f");
        assert_eq!(Value::Int(3).field(f), None);
    }

    #[test]
    #[should_panic(expected = "duplicate field")]
    fn duplicate_record_fields_panic() {
        let mut i = Interner::new();
        let f = i.intern("f");
        let _ = Value::record(vec![(f, Value::Int(1)), (f, Value::Int(2))]);
    }

    #[test]
    fn record_equality_is_order_insensitive() {
        let mut i = Interner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        let v1 = Value::record(vec![(a, Value::Int(1)), (b, Value::Int(2))]);
        let v2 = Value::record(vec![(b, Value::Int(2)), (a, Value::Int(1))]);
        assert_eq!(v1, v2);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::str("x").as_int(), None);
        assert!(Value::Absent.is_absent());
        let o = Oid::from_raw(3);
        assert_eq!(Value::Obj(o).as_obj(), Some(o));
    }
}
