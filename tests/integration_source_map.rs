//! The source map's law: every class, attribute, excuse and is-a span a
//! compiled schema reports is the position the parsed syntax tree gives
//! the token that introduced the entity. Checked over generated
//! hierarchies printed as SDL and over the paper's vignettes, plus three
//! edge cases: a repeated `excuses a on C` clause (the later span wins),
//! an API-built schema (every lookup is `None`), and a compiled schema
//! rebuilt through `SchemaBuilder::from_schema` after `remove_attr` and
//! `remove_excuse`.

use std::collections::BTreeMap;

use excuses::model::{Schema, SchemaBuilder, Span};
use excuses::sdl::token::Pos;
use excuses::sdl::{compile, parse, print_schema};
use excuses::workloads::{generate, vignettes, HierarchyParams};

/// The positions the syntax tree gives, by name. A later excuse clause
/// with the same (class, attr, on) key replaces an earlier one.
#[derive(Default)]
struct Expected<'a> {
    classes: BTreeMap<&'a str, Span>,
    supers: BTreeMap<(&'a str, &'a str), Span>,
    attrs: BTreeMap<(&'a str, &'a str), Span>,
    excuses: BTreeMap<(&'a str, &'a str, &'a str), Span>,
}

fn expected(src: &str) -> Expected<'_> {
    let ast = parse(src).unwrap();
    let span = |p: Pos| Span {
        line: p.line,
        col: p.col,
    };
    let mut e = Expected::default();
    for class in &ast.classes {
        let c = ast.name(class.name);
        e.classes.insert(c, span(class.pos));
        for sup in ast.supers_of(class) {
            e.supers.insert((c, ast.name(sup.name)), span(sup.pos));
        }
        for attr in ast.attrs_of(class) {
            e.attrs.insert((c, ast.name(attr.name)), span(attr.pos));
            for exc in ast.excuses_of(attr) {
                e.excuses
                    .insert((c, ast.name(exc.attr), ast.name(exc.on)), span(exc.pos));
            }
        }
    }
    e
}

/// Asserts the law for every entity of `schema`, compiled from `src` or
/// rebuilt from a schema that was.
fn assert_law(what: &str, src: &str, schema: &Schema) {
    let e = expected(src);
    let m = schema.source_map();
    for c in schema.class_ids() {
        let name = schema.class_name(c);
        assert_eq!(
            m.class_span(c),
            e.classes.get(name).copied(),
            "{what}: class {name}"
        );
        for &sup in schema.supers(c) {
            let key = (name, schema.class_name(sup));
            assert_eq!(
                m.super_span(c, sup),
                Some(e.supers[&key]),
                "{what}: edge {key:?}"
            );
        }
        for decl in &schema.class(c).attrs {
            let key = (name, schema.resolve(decl.name));
            assert_eq!(
                m.attr_span(c, decl.name),
                Some(e.attrs[&key]),
                "{what}: attr {key:?}"
            );
            for exc in &decl.spec.excuses {
                let key = (name, schema.resolve(exc.attr), schema.class_name(exc.on));
                let got = m.excuse_span(c, exc.attr, exc.on);
                assert_eq!(got, Some(e.excuses[&key]), "{what}: excuse {key:?}");
            }
        }
    }
}

#[test]
fn generated_hierarchies_and_vignettes_keep_their_spans() {
    for (seed, max_supers) in [(1, 1), (2, 2), (3, 3), (4, 4)] {
        let params = HierarchyParams {
            classes: 120,
            max_supers,
            redefine_rate: 0.6,
            contradiction_rate: 0.5,
            seed,
            ..Default::default()
        };
        let src = print_schema(&generate(&params).schema);
        assert_law(&format!("seed {seed}"), &src, &compile(&src).unwrap());
    }
    for (name, src) in vignettes::all() {
        assert_law(name, src, &compile(src).unwrap());
    }
}

#[test]
fn a_repeated_excuse_clause_keeps_the_later_span() {
    let src = "class A with x: 1..10;\nclass B is-a A with\n    x: 20..30 excuses x on A excuses x on A;\n";
    let schema = compile(src).unwrap();
    assert_law("repeated clause", src, &schema);
    let (a, b, x) = (
        schema.class_by_name("A").unwrap(),
        schema.class_by_name("B").unwrap(),
        schema.sym("x").unwrap(),
    );
    assert_eq!(
        schema.source_map().excuse_span(b, x, a),
        Some(Span { line: 3, col: 30 })
    );
}

#[test]
fn an_api_built_schema_has_no_spans() {
    let schema = generate(&HierarchyParams {
        classes: 60,
        ..Default::default()
    })
    .schema;
    let m = schema.source_map();
    assert!(m.is_empty());
    for c in schema.class_ids() {
        assert_eq!(m.class_span(c), None);
        for &sup in schema.supers(c) {
            assert_eq!(m.super_span(c, sup), None);
        }
        for decl in &schema.class(c).attrs {
            assert_eq!(m.attr_span(c, decl.name), None);
            for exc in &decl.spec.excuses {
                assert_eq!(m.excuse_span(c, exc.attr, exc.on), None);
            }
        }
    }
}

#[test]
fn a_rebuilt_schema_keeps_the_spans_of_what_is_left() {
    let src = vignettes::HOSPITAL;
    let schema = compile(src).unwrap();
    let class = |name| schema.class_by_name(name).unwrap();
    let sym = |name| schema.sym(name).unwrap();
    let mut b = SchemaBuilder::from_schema(&schema);
    assert!(b.remove_attr(class("Cancer_Patient"), sym("chemoTherapy")));
    assert!(b.remove_excuse(class("Alcoholic"), sym("treatedBy"), class("Patient")));
    let rebuilt = b.build().unwrap();
    assert_eq!(rebuilt.num_attr_decls() + 1, schema.num_attr_decls());
    assert!(rebuilt
        .declared_attr(class("Alcoholic"), sym("treatedBy"))
        .unwrap()
        .spec
        .excuses
        .is_empty());
    assert_law("rebuilt hospital", src, &rebuilt);
}
