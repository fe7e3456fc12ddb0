//! Logical record formats — the "semantic grouping" of Daplex (§5.5).
//!
//! "A standard technique for storing information about objects is to
//! create logical records which have as fields the attributes defined on
//! some class." A [`RecordFormat`] lists, per attribute, the *kind* of
//! value stored: the sort of the declared range ([`Sort`]; an entity is
//! stored as its 64-bit surrogate, a token as its symbol index, an
//! inapplicable attribute not at all). Kinds matter because §5.5's difficulty is precisely
//! "some attribute may be filled by values from incompatible types
//! (INTEGER vs. ENTITY vs. String vs. various enumerations …), where we
//! run the problem of having different values with indistinguishable
//! bit-string representations, or widely differing storage requirements."

use chc_model::{ClassId, Schema, Sort, Sym};

/// A record format: the attributes stored for instances of a class
/// signature, with their kinds, sorted by attribute symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordFormat {
    /// `(attribute, kind)` pairs, sorted by attribute.
    pub fields: Vec<(Sym, Sort)>,
}

impl RecordFormat {
    /// The storage format for an object whose most specific classes are
    /// `classes` (an object may belong to several, §4.1): each applicable
    /// attribute with its *most specific* kind. When two memberships give
    /// incompatible kinds, the excuser's (more specific class's) kind
    /// wins; the §5.2 semantics guarantees stored values obey one of them.
    pub fn for_classes(schema: &Schema, classes: &[ClassId]) -> RecordFormat {
        let mut fields: Vec<(Sym, Sort)> = Vec::new();
        for &class in classes {
            for attr in schema.applicable_attrs(class) {
                // Most specific declaration along this class's ancestry: a
                // declarer no other declarer is a strict subclass of.
                let constraints = schema.constraints_on(class, attr);
                let kind = constraints
                    .iter()
                    .find(|(b, _)| {
                        !constraints
                            .iter()
                            .any(|(other, _)| other != b && schema.is_strict_subclass(*other, *b))
                    })
                    .map(|(_, spec)| spec.range.sort())
                    .expect("applicable attr has a declaration");
                match fields.iter_mut().find(|(a, _)| *a == attr) {
                    Some((_, existing)) => {
                        // Prefer the more specific (later class) kind; a
                        // Missing kind (excused None) always wins — the
                        // attribute is simply not stored.
                        if kind == Sort::Absent || *existing == Sort::Absent {
                            *existing = Sort::Absent;
                        } else {
                            *existing = kind;
                        }
                    }
                    None => fields.push((attr, kind)),
                }
            }
        }
        fields.sort_by_key(|(a, _)| *a);
        RecordFormat { fields }
    }

    /// The kind stored for `attr`, if the format has the field.
    pub fn kind_of(&self, attr: Sym) -> Option<Sort> {
        self.fields
            .binary_search_by_key(&attr, |(a, _)| *a)
            .ok()
            .map(|i| self.fields[i].1)
    }

    /// Whether two formats are bit-compatible (§5.5: partitioning is only
    /// *needed* when they are not).
    pub fn compatible_with(&self, other: &RecordFormat) -> bool {
        // Compatible iff every shared field has the same kind.
        self.fields.iter().all(|(a, k)| match other.kind_of(*a) {
            Some(ok) => ok == *k,
            None => true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_sdl::compile;

    #[test]
    fn format_collects_applicable_attrs_with_kinds() {
        let s = compile(
            "
            class Hospital;
            class Person with name: String; age: 1..120;
            class Patient is-a Person with treatedAt: Hospital; acuity: {'Low, 'High};
            ",
        )
        .unwrap();
        let patient = s.class_by_name("Patient").unwrap();
        let f = RecordFormat::for_classes(&s, &[patient]);
        assert_eq!(f.kind_of(s.sym("name").unwrap()), Some(Sort::Str));
        assert_eq!(f.kind_of(s.sym("age").unwrap()), Some(Sort::Int));
        assert_eq!(f.kind_of(s.sym("treatedAt").unwrap()), Some(Sort::Entity));
        assert_eq!(f.kind_of(s.sym("acuity").unwrap()), Some(Sort::Token));
        assert_eq!(f.fields.len(), 4);
    }

    #[test]
    fn excused_none_drops_the_field() {
        let s = compile(
            "
            class Employee with salary: Integer;
            class Temporary is-a Employee with
                salary: None excuses salary on Employee;
                lumpSum: Integer;
            ",
        )
        .unwrap();
        let temp = s.class_by_name("Temporary").unwrap();
        let employee = s.class_by_name("Employee").unwrap();
        let salary = s.sym("salary").unwrap();
        let femp = RecordFormat::for_classes(&s, &[employee]);
        let ftemp = RecordFormat::for_classes(&s, &[temp]);
        assert_eq!(femp.kind_of(salary), Some(Sort::Int));
        assert_eq!(ftemp.kind_of(salary), Some(Sort::Absent));
        // Int vs Missing on the same attribute ⇒ incompatible formats ⇒
        // horizontal partitioning required (§5.5).
        assert!(!femp.compatible_with(&ftemp));
    }

    #[test]
    fn entity_valued_exceptions_stay_compatible() {
        // §5.5: "nothing new needs to be done as far as storage in dealing
        // with cases like the treatedBy attribute" — both ranges are
        // entities, so both store surrogates.
        let s = compile(
            "
            class Physician;
            class Psychologist;
            class Patient with treatedBy: Physician;
            class Alcoholic is-a Patient with
                treatedBy: Psychologist excuses treatedBy on Patient;
            ",
        )
        .unwrap();
        let patient = s.class_by_name("Patient").unwrap();
        let alcoholic = s.class_by_name("Alcoholic").unwrap();
        let fp = RecordFormat::for_classes(&s, &[patient]);
        let fa = RecordFormat::for_classes(&s, &[alcoholic]);
        assert!(fp.compatible_with(&fa));
        assert_eq!(fa.kind_of(s.sym("treatedBy").unwrap()), Some(Sort::Entity));
    }

    #[test]
    fn multiple_membership_merges_formats() {
        let s = compile(
            "
            class A with x: 1..10;
            class B with y: String;
            ",
        )
        .unwrap();
        let a = s.class_by_name("A").unwrap();
        let b = s.class_by_name("B").unwrap();
        let f = RecordFormat::for_classes(&s, &[a, b]);
        assert_eq!(f.fields.len(), 2);
    }
}
