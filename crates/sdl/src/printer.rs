//! Pretty-printing schemas back to SDL text.
//!
//! The printer produces canonical text that re-parses to a structurally
//! identical schema (modulo attribute ordering, which the model sorts by
//! name), so `print ∘ compile` is idempotent — the round-trip property the
//! test suite checks.

use std::fmt::Write as _;

use chc_model::{AttrSpec, ClassId, ClassKind, Range, Schema};

/// Prints all declared (non-virtual) classes of a schema as SDL text.
pub fn print_schema(schema: &Schema) -> String {
    let mut out = String::new();
    for id in schema.class_ids() {
        if schema.class(id).kind == ClassKind::Virtual {
            continue;
        }
        print_class(schema, id, &mut out);
        out.push('\n');
    }
    out
}

/// Prints one class definition.
pub fn print_class(schema: &Schema, id: ClassId, out: &mut String) {
    let class = schema.class(id);
    write!(out, "class {}", schema.resolve(class.name)).unwrap();
    if !class.supers.is_empty() {
        let names: Vec<&str> = class.supers.iter().map(|&s| schema.class_name(s)).collect();
        write!(out, " is-a {}", names.join(", ")).unwrap();
    }
    if !class.attrs.is_empty() {
        out.push_str(" with\n");
        // Canonical order: by attribute *name*, so printing is a fixed
        // point even across re-interning.
        let mut decls: Vec<_> = class.attrs.iter().collect();
        decls.sort_by_key(|d| schema.resolve(d.name));
        for decl in decls {
            write!(out, "    {} : ", schema.resolve(decl.name)).unwrap();
            print_spec(schema, &decl.spec, 1, out);
            out.push_str(";\n");
        }
    } else {
        out.push('\n');
    }
}

fn print_spec(schema: &Schema, spec: &AttrSpec, depth: usize, out: &mut String) {
    print_range(schema, &spec.range, depth, out);
    for exc in &spec.excuses {
        write!(
            out,
            " excuses {} on {}",
            schema.resolve(exc.attr),
            schema.class_name(exc.on)
        )
        .unwrap();
    }
}

fn print_range(schema: &Schema, range: &Range, depth: usize, out: &mut String) {
    match range {
        Range::Int { lo, hi } if *lo == i64::MIN && *hi == i64::MAX => out.push_str("Integer"),
        Range::Int { lo, hi } => write!(out, "{lo}..{hi}").unwrap(),
        Range::Str => out.push_str("String"),
        Range::None => out.push_str("None"),
        Range::AnyEntity => out.push_str("AnyEntity"),
        Range::Enum(toks) => {
            let mut names: Vec<String> = toks
                .iter()
                .map(|t| format!("'{}", schema.resolve(*t)))
                .collect();
            names.sort();
            write!(out, "{{{}}}", names.join(", ")).unwrap();
        }
        Range::Class(c) => out.push_str(schema.class_name(*c)),
        Range::Record { base, fields } => {
            if let Some(b) = base {
                out.push_str(schema.class_name(*b));
                out.push(' ');
            }
            out.push('[');
            let indent = "    ".repeat(depth + 1);
            let mut fields: Vec<_> = fields.iter().collect();
            fields.sort_by_key(|f| schema.resolve(f.name));
            for (i, f) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(';');
                }
                write!(out, "\n{indent}{} : ", schema.resolve(f.name)).unwrap();
                print_spec(schema, &f.spec, depth + 1, out);
            }
            write!(out, "\n{}]", "    ".repeat(depth)).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::compile;

    const HOSPITAL: &str = "
        class Address with street: String; city: String; state: {'NJ, 'NY};
        class Person with name: String; age: 1..120; home: Address;
        class Hospital with accreditation: {'Local, 'State, 'Federal}; location: Address;
        class Physician is-a Person with affiliatedWith: Hospital;
        class Psychologist is-a Person;
        class Patient is-a Person with treatedBy: Physician; treatedAt: Hospital;
        class Alcoholic is-a Patient with
            treatedBy: Psychologist excuses treatedBy on Patient;
        class Tubercular_Patient is-a Patient with
            treatedAt: Hospital [
                accreditation: None excuses accreditation on Hospital;
                location: Address [
                    state: None excuses state on Address;
                    country: {'Switzerland}
                ]
            ];
    ";

    #[test]
    fn print_then_parse_round_trips() {
        let schema = compile(HOSPITAL).unwrap();
        let text = print_schema(&schema);
        let schema2 = compile(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        let text2 = print_schema(&schema2);
        assert_eq!(
            text, text2,
            "printer must be a fixed point of compile∘print"
        );
    }

    #[test]
    fn printed_text_mentions_excuses() {
        let schema = compile(HOSPITAL).unwrap();
        let text = print_schema(&schema);
        assert!(text.contains("excuses treatedBy on Patient"));
        assert!(text.contains("excuses accreditation on Hospital"));
        assert!(text.contains("is-a Patient"));
    }

    #[test]
    fn integer_prints_as_keyword() {
        let schema = compile("class T with salary: Integer").unwrap();
        let text = print_schema(&schema);
        assert!(text.contains("salary : Integer"));
    }

    #[test]
    fn the_smallest_integer_round_trips() {
        let mut b = chc_model::SchemaBuilder::new();
        let t = b.declare("T").unwrap();
        let range = Range::Int {
            lo: i64::MIN,
            hi: 0,
        };
        b.add_attr(t, "x", AttrSpec::plain(range.clone())).unwrap();
        let text = print_schema(&b.build().unwrap());
        assert!(text.contains("x : -9223372036854775808..0"), "{text}");
        let schema = compile(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        let x = schema.sym("x").unwrap();
        let t = schema.class_by_name("T").unwrap();
        assert_eq!(schema.declared_attr(t, x).unwrap().spec.range, range);
        assert_eq!(print_schema(&schema), text);
    }

    #[test]
    fn empty_class_prints_without_with() {
        let schema = compile("class Empty").unwrap();
        let text = print_schema(&schema);
        assert!(text.contains("class Empty"));
        assert!(!text.contains("with"));
        compile(&text).unwrap();
    }
}
