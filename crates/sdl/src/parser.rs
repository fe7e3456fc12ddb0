//! Recursive-descent parser for SDL.
//!
//! Grammar (semicolons after the last attribute and after a class body are
//! optional, matching the paper's loose typography):
//!
//! ```text
//! schema   := class*
//! class    := "class" IDENT ("is-a" IDENT ("," IDENT)*)? ("with" attrs)?
//! attrs    := attr (";" attr)* ";"?
//! attr     := IDENT ":" range excuse*
//! excuse   := "excuses" IDENT "on" IDENT
//! range    := INT ".." INT
//!           | "{" QUOTED ("," QUOTED)* "}"
//!           | "[" attrs "]"
//!           | IDENT ("[" attrs "]")?     -- String/Integer/None/AnyEntity special-cased
//! ```

use std::collections::HashMap;

use crate::ast::{AttrAst, ClassAst, ExcuseAst, Name, RangeAst, SchemaAst, SuperAst};
use crate::error::SdlError;
use crate::lexer::Lexer;
use crate::token::{Spanned, Tok};

/// How deeply records and refinements may nest: one level more is a
/// syntax error, where a deeper input would overflow the stack of the
/// passes that walk ranges recursively.
pub const MAX_RECORD_DEPTH: usize = 1000;

/// Parses SDL source text into an AST.
pub fn parse(src: &str) -> Result<SchemaAst<'_>, SdlError> {
    let mut lexer = Lexer::new(src);
    let cur = lexer.next_token()?;
    let mut p = Parser {
        lexer,
        cur,
        lex_err: None,
        index: HashMap::new(),
        names: Vec::new(),
        excuses: Vec::new(),
        depth: 0,
    };
    let classes = p.classes();
    // Read on past a syntax error: the first lexical error in the source
    // is the one reported, wherever it is.
    while p.cur.tok != Tok::Eof {
        p.pull();
    }
    if let Some(e) = p.lex_err {
        return Err(e);
    }
    let (classes, names) = (classes?, p.names);
    Ok(SchemaAst { classes, names })
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The current token; [`Tok::Eof`] once the lexer has failed.
    cur: Spanned<'a>,
    lex_err: Option<SdlError>,
    index: HashMap<&'a str, Name>,
    names: Vec<&'a str>,
    /// Scratch for one declaration's clauses, so each list is allocated once.
    excuses: Vec<ExcuseAst>,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn pull(&mut self) {
        match self.lexer.next_token() {
            Ok(next) => self.cur = next,
            Err(e) => (self.cur.tok, self.lex_err) = (Tok::Eof, Some(e)),
        }
    }

    fn bump(&mut self) -> Tok<'a> {
        let t = self.cur.tok;
        if t != Tok::Eof {
            self.pull();
        }
        t
    }

    fn eat(&mut self, want: Tok<'_>) -> bool {
        let hit = self.cur.tok == want;
        if hit {
            self.bump();
        }
        hit
    }

    fn expect(&mut self, want: Tok<'_>, ctx: &str) -> Result<(), SdlError> {
        self.eat(want)
            .then_some(())
            .ok_or_else(|| self.unexpected(ctx))
    }

    fn unexpected(&self, expected: &str) -> SdlError {
        SdlError::Parse {
            pos: self.cur.pos,
            expected: expected.to_string(),
            found: self.cur.tok.to_string(),
        }
    }

    /// The id of `text`, numbering names in order of first occurrence.
    fn name(&mut self, text: &'a str) -> Name {
        let next = Name(u32::try_from(self.names.len()).expect("name id overflow"));
        *self.index.entry(text).or_insert_with(|| {
            self.names.push(text);
            next
        })
    }

    fn ident(&mut self, ctx: &str) -> Result<Name, SdlError> {
        let Tok::Ident(s) = self.cur.tok else {
            return Err(self.unexpected(ctx));
        };
        self.bump();
        Ok(self.name(s))
    }

    fn classes(&mut self) -> Result<Vec<ClassAst>, SdlError> {
        let mut classes = Vec::new();
        while self.cur.tok != Tok::Eof {
            classes.push(self.class()?);
        }
        Ok(classes)
    }

    fn class(&mut self) -> Result<ClassAst, SdlError> {
        let pos = self.cur.pos;
        self.expect(Tok::KwClass, "`class`")?;
        let name = self.ident("a class name")?;
        let mut supers = Vec::new();
        if self.eat(Tok::KwIsA) {
            loop {
                let pos = self.cur.pos;
                let name = self.ident("a superclass name")?;
                supers.push(SuperAst { name, pos });
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
        }
        let mut attrs = Vec::new();
        if self.eat(Tok::KwWith) {
            attrs = self.attrs(&[Tok::KwClass, Tok::Eof])?;
        }
        // Optional trailing semicolon after a class body.
        self.eat(Tok::Semi);
        Ok(ClassAst {
            name,
            supers,
            attrs,
            pos,
        })
    }

    /// Parses `attr (; attr)* ;?` until one of `stops` (not consumed).
    fn attrs(&mut self, stops: &[Tok<'_>]) -> Result<Vec<AttrAst>, SdlError> {
        let mut out = Vec::new();
        loop {
            if stops.contains(&self.cur.tok) {
                return Ok(out);
            }
            out.push(self.attr()?);
            // Attributes are separated by `;`; a stop token also ends the list.
            if self.eat(Tok::Semi) {
                continue;
            }
            if stops.contains(&self.cur.tok) {
                return Ok(out);
            }
            return Err(self.unexpected("`;` or the end of the attribute list"));
        }
    }

    fn attr(&mut self) -> Result<AttrAst, SdlError> {
        let pos = self.cur.pos;
        let name = self.ident("an attribute name")?;
        self.expect(Tok::Colon, "`:` after attribute name")?;
        let range = self.range()?;
        self.excuses.clear();
        while self.cur.tok == Tok::KwExcuses {
            let pos = self.cur.pos;
            self.bump();
            let attr = self.ident("the excused attribute's name")?;
            self.expect(Tok::KwOn, "`on`")?;
            let on = self.ident("the excused class's name")?;
            self.excuses.push(ExcuseAst { attr, on, pos });
        }
        let excuses = self.excuses.as_slice().into();
        Ok(AttrAst {
            name,
            range,
            excuses,
            pos,
        })
    }

    fn range(&mut self) -> Result<RangeAst, SdlError> {
        match self.cur.tok {
            Tok::Int(lo) => {
                self.bump();
                self.expect(Tok::DotDot, "`..` in integer range")?;
                match self.bump() {
                    Tok::Int(hi) => Ok(RangeAst::Int(lo, hi)),
                    _ => Err(self.unexpected("the range's upper bound")),
                }
            }
            Tok::LBrace => {
                self.bump();
                let mut toks = Vec::new();
                loop {
                    match self.bump() {
                        Tok::Quoted(t) => toks.push(self.name(t)),
                        _ => return Err(self.unexpected("an enumeration token like `'Dove`")),
                    }
                    match self.bump() {
                        Tok::Comma => continue,
                        Tok::RBrace => break,
                        _ => return Err(self.unexpected("`,` or `}`")),
                    }
                }
                Ok(RangeAst::Enum(toks))
            }
            Tok::LBracket => Ok(RangeAst::Record(self.record()?)),
            Tok::Ident(name) => {
                self.bump();
                Ok(match name {
                    "String" => RangeAst::Str,
                    "Integer" => RangeAst::Integer,
                    "None" => RangeAst::None,
                    "AnyEntity" | "ANYENTITY" => RangeAst::AnyEntity,
                    _ if self.cur.tok == Tok::LBracket => {
                        RangeAst::Refined(self.name(name), self.record()?)
                    }
                    _ => RangeAst::Named(self.name(name)),
                })
            }
            _ => Err(self.unexpected("a range (integer interval, enumeration, class, or record)")),
        }
    }

    /// Parses `[ attrs ]`, at most [`MAX_RECORD_DEPTH`] deep.
    fn record(&mut self) -> Result<Vec<AttrAst>, SdlError> {
        if self.depth == MAX_RECORD_DEPTH {
            return Err(self.unexpected(&format!("records nested at most {MAX_RECORD_DEPTH} deep")));
        }
        self.depth += 1;
        self.bump();
        let fields = self.attrs(&[Tok::RBracket])?;
        self.expect(Tok::RBracket, "`]`")?;
        self.depth -= 1;
        Ok(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_figure_one() {
        let src = "
            class Address with
                street: String;
                city: String;
                state: {'AL, 'WV};
            class Person with
                name: String;
                age: 1..120;
                home: Address;
            class Employee is-a Person with
                age: 16..65;
                supervisor: Employee;
                office: Address;
        ";
        let ast = parse(src).unwrap();
        assert_eq!(ast.classes.len(), 3);
        assert_eq!(ast.name(ast.classes[0].name), "Address");
        let supers: Vec<&str> = ast.classes[2]
            .supers
            .iter()
            .map(|s| ast.name(s.name))
            .collect();
        assert_eq!(supers, vec!["Person"]);
        assert_eq!(ast.classes[2].attrs.len(), 3);
        assert_eq!(ast.classes[2].attrs[0].range, RangeAst::Int(16, 65));
    }

    #[test]
    fn parses_excuse_clause() {
        let src = "
            class Alcoholic is a Patient with
                treatedBy: Psychologist excuses treatedBy on Patient;
        ";
        let ast = parse(src).unwrap();
        let attr = &ast.classes[0].attrs[0];
        assert_eq!(attr.excuses.len(), 1);
        assert_eq!(ast.name(attr.excuses[0].attr), "treatedBy");
        assert_eq!(ast.name(attr.excuses[0].on), "Patient");
    }

    #[test]
    fn parses_nested_records_with_embedded_excuses() {
        let src = "
            class Tubercular_Patient is-a Patient with
                treatedAt: Hospital [
                    accreditation: None excuses accreditation on Hospital;
                    location: Address [
                        state: None excuses state on Address;
                        country: {'Switzerland}
                    ]
                ];
        ";
        let ast = parse(src).unwrap();
        let attr = &ast.classes[0].attrs[0];
        let RangeAst::Refined(base, fields) = &attr.range else {
            panic!("expected refined class range");
        };
        assert_eq!(ast.name(*base), "Hospital");
        assert_eq!(fields.len(), 2);
        assert_eq!(ast.name(fields[0].excuses[0].on), "Hospital");
        let RangeAst::Refined(base2, inner) = &fields[1].range else {
            panic!("expected nested refined range");
        };
        assert_eq!(ast.name(*base2), "Address");
        let RangeAst::Enum(toks) = &inner[1].range else {
            panic!("expected an enumeration");
        };
        assert_eq!(
            toks.iter().map(|&t| ast.name(t)).collect::<Vec<_>>(),
            ["Switzerland"]
        );
    }

    #[test]
    fn parses_multiple_supers() {
        let ast = parse("class Dick is-a Quaker, Republican").unwrap();
        let supers: Vec<&str> = ast.classes[0]
            .supers
            .iter()
            .map(|s| ast.name(s.name))
            .collect();
        assert_eq!(supers, vec!["Quaker", "Republican"]);
        // Each superclass reference carries its own position.
        assert_eq!(ast.classes[0].supers[0].pos.col, 17);
        assert_eq!(ast.classes[0].supers[1].pos.col, 25);
    }

    #[test]
    fn parses_anonymous_record() {
        let ast = parse("class Person with home: [street: String; city: String]").unwrap();
        let RangeAst::Record(fields) = &ast.classes[0].attrs[0].range else {
            panic!("expected record range");
        };
        assert_eq!(fields.len(), 2);
    }

    #[test]
    fn trailing_semicolons_are_optional() {
        assert!(parse("class A with x: 1..2").is_ok());
        assert!(parse("class A with x: 1..2;").is_ok());
        assert!(parse("class A with x: 1..2; class B").is_ok());
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse("class A with x 1..2").unwrap_err();
        match err {
            SdlError::Parse { pos, .. } => assert_eq!(pos.line, 1),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("klass A").is_err());
        assert!(parse("class A with x: ").is_err());
        assert!(parse("class A with x: {'a 'b}").is_err());
        assert!(parse("class A with x: 1..").is_err());
    }

    #[test]
    fn special_type_names() {
        let ast = parse("class T with a: Integer; b: None; c: AnyEntity; d: String").unwrap();
        let rs: Vec<&RangeAst> = ast.classes[0].attrs.iter().map(|a| &a.range).collect();
        assert_eq!(rs[0], &RangeAst::Integer);
        assert_eq!(rs[1], &RangeAst::None);
        assert_eq!(rs[2], &RangeAst::AnyEntity);
        assert_eq!(rs[3], &RangeAst::Str);
    }
}
