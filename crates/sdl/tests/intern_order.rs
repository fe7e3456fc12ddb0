//! The order in which compile interns names.
//!
//! `Sym` order decides how a class's attributes are stored and the order
//! of enumeration tokens, so it reaches every output byte. Compile interns
//! class names first, in source order; then, per top-level attribute, the
//! names in its range (a record field's name before the field's own range)
//! and its excused names, and only then the attribute's own name. The
//! schema below is written in a different order: classes are used before
//! they are declared, attributes come after their tokens and excused
//! names, and records nest.

use chc_sdl::{compile, print_schema};

const SRC: &str = "\
-- Forward references: Base and Ward are used before they are declared.
class Patient is-a Base with
    treatedAt : Ward [
        zone : {'North, 'South} excuses zone on Ward;
        nested : [inner : {'Deep}; alpha : 1..2]
    ] excuses treatedAt on Base;
    blood : {'B, 'A, 'O};
    age : 1..2 excuses legacy on Base excuses blood on Base;
    zeta : String
class Base with
    treatedAt : Ward;
    legacy : 1..9;
    blood : {'Z, 'B};
    age : Integer
class Ward with
    zone : {'East, 'North};
    nested : [alpha : 1..3; inner : {'Deep, 'Shallow}]
";

/// Every interned name, in `Sym` order.
const SYMS: &[&str] = &[
    "Patient",
    "Base",
    "Ward",
    "zone",
    "North",
    "South",
    "nested",
    "inner",
    "Deep",
    "alpha",
    "treatedAt",
    "B",
    "A",
    "O",
    "blood",
    "legacy",
    "age",
    "zeta",
    "Z",
    "East",
    "Shallow",
];

/// Each class's stored attribute declarations, by `Debug`.
const DECLS: &[(&str, &str)] = &[
    (
        "Patient",
        "[AttrDecl { name: Sym(10), spec: AttrSpec { range: Record { base: Some(ClassId(2)), fields: [FieldSpec { name: Sym(3), spec: AttrSpec { range: Enum({Sym(4), Sym(5)}), excuses: [Excuse { attr: Sym(3), on: ClassId(2) }] } }, FieldSpec { name: Sym(6), spec: AttrSpec { range: Record { base: None, fields: [FieldSpec { name: Sym(7), spec: AttrSpec { range: Enum({Sym(8)}), excuses: [] } }, FieldSpec { name: Sym(9), spec: AttrSpec { range: Int { lo: 1, hi: 2 }, excuses: [] } }] }, excuses: [] } }] }, excuses: [Excuse { attr: Sym(10), on: ClassId(1) }] } }, \
         AttrDecl { name: Sym(14), spec: AttrSpec { range: Enum({Sym(11), Sym(12), Sym(13)}), excuses: [] } }, \
         AttrDecl { name: Sym(16), spec: AttrSpec { range: Int { lo: 1, hi: 2 }, excuses: [Excuse { attr: Sym(15), on: ClassId(1) }, Excuse { attr: Sym(14), on: ClassId(1) }] } }, \
         AttrDecl { name: Sym(17), spec: AttrSpec { range: Str, excuses: [] } }]",
    ),
    (
        "Base",
        "[AttrDecl { name: Sym(10), spec: AttrSpec { range: Class(ClassId(2)), excuses: [] } }, \
         AttrDecl { name: Sym(14), spec: AttrSpec { range: Enum({Sym(11), Sym(18)}), excuses: [] } }, \
         AttrDecl { name: Sym(15), spec: AttrSpec { range: Int { lo: 1, hi: 9 }, excuses: [] } }, \
         AttrDecl { name: Sym(16), spec: AttrSpec { range: Int { lo: -9223372036854775808, hi: 9223372036854775807 }, excuses: [] } }]",
    ),
    (
        "Ward",
        "[AttrDecl { name: Sym(3), spec: AttrSpec { range: Enum({Sym(4), Sym(19)}), excuses: [] } }, \
         AttrDecl { name: Sym(6), spec: AttrSpec { range: Record { base: None, fields: [FieldSpec { name: Sym(7), spec: AttrSpec { range: Enum({Sym(8), Sym(20)}), excuses: [] } }, FieldSpec { name: Sym(9), spec: AttrSpec { range: Int { lo: 1, hi: 3 }, excuses: [] } }] }, excuses: [] } }]",
    ),
];

const PRINTED: &str = "\
class Patient is-a Base with
    age : 1..2 excuses legacy on Base excuses blood on Base;
    blood : {'A, 'B, 'O};
    treatedAt : Ward [
        nested : [
            alpha : 1..2;
            inner : {'Deep}
        ];
        zone : {'North, 'South} excuses zone on Ward
    ] excuses treatedAt on Base;
    zeta : String;

class Base with
    age : Integer;
    blood : {'B, 'Z};
    legacy : 1..9;
    treatedAt : Ward;

class Ward with
    nested : [
        alpha : 1..3;
        inner : {'Deep, 'Shallow}
    ];
    zone : {'East, 'North};

";

#[test]
fn names_are_interned_in_the_pinned_order() {
    let schema = compile(SRC).unwrap();
    for (i, name) in SYMS.iter().enumerate() {
        assert_eq!(schema.sym(name).map(|s| s.index()), Some(i), "{name}");
    }
    // Type keywords and keywords are never interned.
    for word in [
        "String",
        "Integer",
        "None",
        "AnyEntity",
        "class",
        "with",
        "excuses",
        "on",
    ] {
        assert_eq!(schema.sym(word), None, "{word}");
    }
}

#[test]
fn stored_declarations_follow_the_interning_order() {
    let schema = compile(SRC).unwrap();
    assert_eq!(schema.num_classes(), DECLS.len());
    for (id, &(name, decls)) in schema.class_ids().zip(DECLS) {
        assert_eq!(schema.class_name(id), name);
        assert_eq!(format!("{:?}", schema.class(id).attrs), decls, "{name}");
    }
}

#[test]
fn printed_text_is_pinned_and_a_fixed_point() {
    let printed = print_schema(&compile(SRC).unwrap());
    assert_eq!(printed, PRINTED);
    assert_eq!(print_schema(&compile(&printed).unwrap()), printed);
}
