//! Lowering parsed ASTs into `chc_model::Schema`s.
//!
//! Resolution is two-pass so classes may be referenced before their
//! definition appears (the paper freely forward-references `Employee`
//! inside its own definition, and `Hospital` before defining it).
//!
//! While lowering, the builder's [`SourceMap`](chc_model::SourceMap) is
//! populated with the position of every class definition, attribute
//! declaration, excuse clause, and is-a edge, so downstream diagnostics
//! (`chc-core`'s checker, `chc-lint`) can point at `file:line:col`.
//! Structural errors raised by the builder are wrapped with the nearest
//! source position.

use chc_model::{
    AttrSpec, ClassId, Excuse, FieldSpec, ModelError, Range, Schema, SchemaBuilder, Sym,
};

use crate::ast::{AttrAst, Name, RangeAst, SchemaAst};
use crate::error::SdlError;
use crate::parser::parse;
use crate::token::Pos;

/// Parses and lowers SDL source text into a checked-for-structure schema.
///
/// ```
/// let schema = chc_sdl::compile("
///     class Person with age: 1..120;
///     class Employee is-a Person with age: 16..65;
/// ").unwrap();
/// let employee = schema.class_by_name("Employee").unwrap();
/// let person = schema.class_by_name("Person").unwrap();
/// assert!(schema.is_strict_subclass(employee, person));
/// ```
pub fn compile(src: &str) -> Result<Schema, SdlError> {
    compile_in(src, None)
}

/// Like [`compile`], but records `file` in the schema's
/// [`SourceMap`](chc_model::SourceMap), so diagnostics over the resulting
/// schema render positions as `file:line:col` rather than `line:col`.
pub fn compile_with_source(src: &str, file: &str) -> Result<Schema, SdlError> {
    compile_in(src, Some(file))
}

fn compile_in(src: &str, file: Option<&str>) -> Result<Schema, SdlError> {
    let _span = chc_obs::span(chc_obs::names::SPAN_SDL_COMPILE);
    let _mem = chc_obs::memalloc::span_mem(
        chc_obs::names::MEM_SDL_COMPILE_BYTES,
        chc_obs::names::MEM_SDL_COMPILE_PEAK,
    );
    // Bound here, the AST is dropped inside the span and counted in it.
    let ast = parse(src)?;
    lower(&ast, file)
}

/// Lowers an already-parsed AST, recording `file` in the source map as
/// [`compile_with_source`] does.
pub fn lower(ast: &SchemaAst<'_>, file: Option<&str>) -> Result<Schema, SdlError> {
    let mut l = Lower {
        ast,
        b: SchemaBuilder::new(),
        syms: vec![None; ast.names.len()],
        classes: vec![None; ast.names.len()],
    };
    let map = l.b.source_map_mut();
    if let Some(f) = file {
        map.set_file(f);
    }
    // Nested clauses are counted too, but never recorded.
    let attrs = ast.classes.iter().map(|c| c.attrs.len()).sum();
    map.reserve(
        ast.classes.len(),
        attrs,
        ast.excuses.len(),
        ast.supers.len(),
    );
    // Pass 1: declare every class name.
    for class in &ast.classes {
        // On a duplicate, `class.pos` is the second occurrence.
        let id = model_at(l.b.declare(ast.name(class.name)), class.pos)?;
        l.classes[class.name.index()] = Some(id);
    }
    // Pass 2: supers and attributes.
    for class in &ast.classes {
        let id = l.classes[class.name.index()].expect("declared in pass 1");
        l.b.record_class_span(id, span(class.pos));
        for sup in ast.supers_of(class) {
            let sup_id = l.class(sup.name, sup.pos)?;
            model_at(l.b.add_super(id, sup_id), sup.pos)?;
            l.b.source_map_mut().record_super(id, sup_id, span(sup.pos));
        }
        for attr in ast.attrs_of(class) {
            // A declaration's range and excused names are interned before
            // its own name: `Sym` order is pinned, as it orders attributes.
            let spec = l.attr_spec(attr)?;
            let attr_sym = l.sym(attr.name);
            let map = l.b.source_map_mut();
            map.record_attr(id, attr_sym, span(attr.pos));
            for (exc, at) in spec.excuses.iter().zip(ast.excuses_of(attr)) {
                map.record_excuse(id, exc.attr, exc.on, span(at.pos));
            }
            model_at(l.b.add_attr_sym(id, attr_sym, spec), attr.pos)?;
        }
    }
    l.b.build().map_err(|err| SdlError::Model {
        pos: build_error_pos(ast, &err),
        err,
    })
}

/// Lowering state: each parse-local [`Name`] maps to its `Sym` and its
/// class, each resolved through the builder at most once.
struct Lower<'s, 'a> {
    ast: &'s SchemaAst<'a>,
    b: SchemaBuilder,
    syms: Vec<Option<Sym>>,
    classes: Vec<Option<ClassId>>,
}

impl Lower<'_, '_> {
    fn sym(&mut self, name: Name) -> Sym {
        let (b, text) = (&mut self.b, self.ast.name(name));
        *self.syms[name.index()].get_or_insert_with(|| b.intern(text))
    }

    fn class(&self, name: Name, pos: Pos) -> Result<ClassId, SdlError> {
        self.classes[name.index()].ok_or_else(|| SdlError::UnknownClass {
            pos,
            name: self.ast.name(name).to_string(),
        })
    }

    fn attr_spec(&mut self, attr: &AttrAst) -> Result<AttrSpec, SdlError> {
        let range = self.range(attr.range, attr.pos)?;
        let clauses = self.ast.excuses_of(attr);
        let mut excuses = Vec::with_capacity(clauses.len());
        for exc in clauses {
            let on = self.class(exc.on, exc.pos)?;
            let attr = self.sym(exc.attr);
            excuses.push(Excuse { attr, on });
        }
        Ok(AttrSpec { range, excuses })
    }

    fn range(&mut self, range: RangeAst, pos: Pos) -> Result<Range, SdlError> {
        let ast = self.ast;
        Ok(match range {
            RangeAst::Int(lo, hi) => model_at(Range::int(lo, hi), pos)?,
            RangeAst::Str => Range::Str,
            RangeAst::Integer => Range::Int {
                lo: i64::MIN,
                hi: i64::MAX,
            },
            RangeAst::None => Range::None,
            RangeAst::AnyEntity => Range::AnyEntity,
            RangeAst::Enum(toks) => model_at(
                Range::enumeration(ast.tokens(toks).iter().map(|&t| self.sym(t))),
                pos,
            )?,
            RangeAst::Named(name) => Range::Class(self.class(name, pos)?),
            RangeAst::Refined(name, fields) => {
                let base = self.class(name, pos)?;
                self.record(Some(base), ast.fields(fields), pos)?
            }
            RangeAst::Record(fields) => self.record(None, ast.fields(fields), pos)?,
        })
    }

    fn record(
        &mut self,
        base: Option<ClassId>,
        fields: &[AttrAst],
        pos: Pos,
    ) -> Result<Range, SdlError> {
        let mut specs = Vec::with_capacity(fields.len());
        for f in fields {
            // A field's name is interned before its range.
            let name = self.sym(f.name);
            let spec = self.attr_spec(f)?;
            specs.push(FieldSpec { name, spec });
        }
        let resolve = |s: Sym| {
            fields
                .iter()
                .find(|f| self.syms[f.name.index()] == Some(s))
                .map_or_else(|| format!("{s:?}"), |f| self.ast.name(f.name).to_string())
        };
        model_at(Range::record(&resolve, base, specs), pos)
    }
}

fn span(p: Pos) -> chc_model::Span {
    let Pos { line, col } = p;
    chc_model::Span { line, col }
}

/// Wraps a builder error with the source position of the declaration
/// being lowered.
fn model_at<T>(r: Result<T, ModelError>, pos: Pos) -> Result<T, SdlError> {
    let pos = Some(pos);
    r.map_err(|err| SdlError::Model { pos, err })
}

/// The position for an error `build()` raises, which no longer knows the
/// declaration at fault: a class on an is-a cycle, or an excuse clause.
fn build_error_pos(ast: &SchemaAst<'_>, err: &ModelError) -> Option<Pos> {
    match err {
        ModelError::IsACycle(name) => {
            let class = ast.classes.iter().find(|c| ast.name(c.name) == name);
            class.map(|c| c.pos)
        }
        ModelError::ExcusedAttrUndeclared { on, attr } => excuse_pos(ast, on, attr),
        _ => None,
    }
}

/// Finds the `excuses attr on C` clause naming `on`/`attr`, including
/// clauses nested inside record ranges.
fn excuse_pos(ast: &SchemaAst<'_>, on: &str, attr: &str) -> Option<Pos> {
    fn scan(ast: &SchemaAst<'_>, attrs: &[AttrAst], on: &str, attr: &str) -> Option<Pos> {
        for a in attrs {
            let clauses = ast.excuses_of(a);
            let named = clauses
                .iter()
                .find(|e| ast.name(e.on) == on && ast.name(e.attr) == attr);
            if let Some(e) = named {
                return Some(e.pos);
            }
            if let RangeAst::Refined(_, fields) | RangeAst::Record(fields) = a.range {
                if let Some(p) = scan(ast, ast.fields(fields), on, attr) {
                    return Some(p);
                }
            }
        }
        None
    }
    ast.classes
        .iter()
        .find_map(|c| scan(ast, ast.attrs_of(c), on, attr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_model::ModelError;

    #[test]
    fn lowers_paper_schema() {
        let schema = compile(
            "
            class Address with
                street: String; city: String; state: {'AL, 'WV};
            class Person with
                name: String; age: 1..120; home: Address;
            class Employee is-a Person with
                age: 16..65; supervisor: Employee; office: Address;
            ",
        )
        .unwrap();
        let person = schema.class_by_name("Person").unwrap();
        let employee = schema.class_by_name("Employee").unwrap();
        assert!(schema.is_strict_subclass(employee, person));
        let age = schema.sym("age").unwrap();
        assert_eq!(schema.constraints_on(employee, age).len(), 2);
    }

    #[test]
    fn forward_references_resolve() {
        let schema = compile(
            "
            class Patient is-a Person with treatedAt: Hospital;
            class Person;
            class Hospital;
            ",
        )
        .unwrap();
        assert!(schema.class_by_name("Hospital").is_some());
    }

    #[test]
    fn unknown_class_reported_with_position() {
        let err = compile("class A with x: Nowhere").unwrap_err();
        assert!(matches!(err, SdlError::UnknownClass { ref name, .. } if name == "Nowhere"));
    }

    #[test]
    fn excuses_land_in_the_index() {
        let schema = compile(
            "
            class Physician;
            class Psychologist;
            class Patient with treatedBy: Physician;
            class Alcoholic is-a Patient with
                treatedBy: Psychologist excuses treatedBy on Patient;
            ",
        )
        .unwrap();
        let patient = schema.class_by_name("Patient").unwrap();
        let alcoholic = schema.class_by_name("Alcoholic").unwrap();
        let treated_by = schema.sym("treatedBy").unwrap();
        let entries = schema.excusers_of(patient, treated_by);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].excuser, alcoholic);
    }

    #[test]
    fn nested_excuses_lower_into_field_specs() {
        let schema = compile(
            "
            class Address with state: {'NJ}; country: {'USA};
            class Hospital with accreditation: {'Local}; location: Address;
            class Patient with treatedAt: Hospital;
            class Tubercular_Patient is-a Patient with
                treatedAt: Hospital [
                    accreditation: None excuses accreditation on Hospital;
                    location: Address [
                        state: None excuses state on Address;
                        country: {'Switzerland}
                    ]
                ];
            ",
        )
        .unwrap();
        let tb = schema.class_by_name("Tubercular_Patient").unwrap();
        let treated_at = schema.sym("treatedAt").unwrap();
        let decl = schema.declared_attr(tb, treated_at).unwrap();
        let Range::Record {
            base: Some(base),
            fields,
        } = &decl.spec.range
        else {
            panic!("expected refined record range");
        };
        assert_eq!(*base, schema.class_by_name("Hospital").unwrap());
        assert_eq!(fields.len(), 2);
        let acc = &fields[0];
        assert_eq!(acc.spec.excuses.len(), 1);
        assert_eq!(
            acc.spec.excuses[0].on,
            schema.class_by_name("Hospital").unwrap()
        );
    }

    #[test]
    fn model_errors_carry_the_nearest_position() {
        // The duplicate is the second `class A`, at column 10.
        let err = compile("class A; class A").unwrap_err();
        match err {
            SdlError::Model {
                pos: Some(pos),
                err: ModelError::DuplicateClass(name),
            } => {
                assert_eq!(name, "A");
                assert_eq!((pos.line, pos.col), (1, 10));
            }
            other => panic!("unexpected error {other:?}"),
        }
        // A cycle is detected at build time; the position points at one of
        // the classes on the cycle.
        let err = compile("class A is-a B; class B is-a A").unwrap_err();
        match err {
            SdlError::Model {
                pos,
                err: ModelError::IsACycle(_),
            } => assert!(pos.is_some()),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn source_map_records_spans() {
        let schema = compile_with_source(
            "class Person with age: 1..120;\nclass Employee is-a Person with age: 16..65;",
            "demo.sdl",
        )
        .unwrap();
        let m = schema.source_map();
        assert_eq!(m.file(), Some("demo.sdl"));
        let person = schema.class_by_name("Person").unwrap();
        let employee = schema.class_by_name("Employee").unwrap();
        let age = schema.sym("age").unwrap();
        assert_eq!(m.class_span(person).unwrap().line, 1);
        assert_eq!(m.class_span(employee).unwrap().line, 2);
        let decl = m.attr_span(employee, age).unwrap();
        assert_eq!((decl.line, decl.col), (2, 33));
        let edge = m.super_span(employee, person).unwrap();
        assert_eq!((edge.line, edge.col), (2, 21));
        assert_eq!(m.locate(decl).to_string(), "demo.sdl:2:33");
    }

    #[test]
    fn excuse_spans_are_recorded() {
        let schema = compile(
            "
            class Physician;
            class Psychologist;
            class Patient with treatedBy: Physician;
            class Alcoholic is-a Patient with
                treatedBy: Psychologist excuses treatedBy on Patient;
            ",
        )
        .unwrap();
        let alcoholic = schema.class_by_name("Alcoholic").unwrap();
        let patient = schema.class_by_name("Patient").unwrap();
        let treated_by = schema.sym("treatedBy").unwrap();
        let span = schema
            .source_map()
            .excuse_span(alcoholic, treated_by, patient)
            .expect("excuse span recorded");
        assert_eq!(span.line, 6);
    }

    #[test]
    fn integer_keyword_is_unbounded() {
        let schema = compile("class T with salary: Integer").unwrap();
        let t = schema.class_by_name("T").unwrap();
        let salary = schema.sym("salary").unwrap();
        let decl = schema.declared_attr(t, salary).unwrap();
        assert_eq!(
            decl.spec.range,
            Range::Int {
                lo: i64::MIN,
                hi: i64::MAX
            }
        );
    }
}
