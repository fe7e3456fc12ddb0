//! Differential test of `chc_sdl::compile` against a reference: the
//! lexer, parser, syntax tree and lowering as they were before the
//! compile moved to a flat syntax tree, a push-only source map and a
//! one-pass excuse index. The reference lives only here; it lowers
//! through today's `SchemaBuilder`.
//!
//! The two must agree on every `Sym`'s text in order, the printed
//! schema, every class, attribute, excuse and is-a span (taken, for the
//! reference, from its own syntax tree, where a repeated key keeps the
//! later span), and the `SdlError` of a rejected input, position
//! included. Inputs are generated schemas at three sizes, printed with
//! their classes shuffled and decorated with the lexer's edge cases, the
//! vignettes, the committed `.sdl` fixtures, and byte-flipped and
//! truncated mutants of all of them. A second law checks the excuse
//! index itself against a scan of every clause in class order.

use std::collections::BTreeMap;

use excuses::model::{AttrSpec, ClassId, Excuse, ExcuserEntry, ModelError, Schema, SchemaBuilder, Span, Sym};
use excuses::sdl::token::Pos;
use excuses::sdl::{compile, print_schema, SdlError};
use excuses::workloads::rng::SplitMix64;
use excuses::workloads::{generate, vignettes, HierarchyParams};

/// The lexer, parser, syntax tree and lowering, verbatim but for their
/// `use` lines and `compile`'s observability span.
#[allow(dead_code, clippy::all)]
mod reference {
    pub mod token {
        use std::fmt;

        pub use excuses::sdl::token::Pos;

        /// One lexical token; names are slices of the source.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Tok<'a> {
            /// `class`
            KwClass,
            /// `with`
            KwWith,
            /// `excuses`
            KwExcuses,
            /// `on`
            KwOn,
            /// `is-a` (also written `is a` or `is_a` in the paper)
            KwIsA,
            /// An identifier: class or attribute name, or type keyword such as
            /// `String`, `Integer`, `None`, `AnyEntity` (disambiguated by the parser).
            Ident(&'a str),
            /// An enumeration token, e.g. `'Dove`.
            Quoted(&'a str),
            /// An integer literal (possibly negative).
            Int(i64),
            /// `:`
            Colon,
            /// `;`
            Semi,
            /// `,`
            Comma,
            /// `{`
            LBrace,
            /// `}`
            RBrace,
            /// `[`
            LBracket,
            /// `]`
            RBracket,
            /// `..`
            DotDot,
            /// End of input.
            Eof,
        }

        impl fmt::Display for Tok<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self {
                    Tok::KwClass => write!(f, "`class`"),
                    Tok::KwWith => write!(f, "`with`"),
                    Tok::KwExcuses => write!(f, "`excuses`"),
                    Tok::KwOn => write!(f, "`on`"),
                    Tok::KwIsA => write!(f, "`is-a`"),
                    Tok::Ident(s) => write!(f, "identifier `{s}`"),
                    Tok::Quoted(s) => write!(f, "token `'{s}`"),
                    Tok::Int(i) => write!(f, "integer `{i}`"),
                    Tok::Colon => write!(f, "`:`"),
                    Tok::Semi => write!(f, "`;`"),
                    Tok::Comma => write!(f, "`,`"),
                    Tok::LBrace => write!(f, "`{{`"),
                    Tok::RBrace => write!(f, "`}}`"),
                    Tok::LBracket => write!(f, "`[`"),
                    Tok::RBracket => write!(f, "`]`"),
                    Tok::DotDot => write!(f, "`..`"),
                    Tok::Eof => write!(f, "end of input"),
                }
            }
        }

        /// A token with its source position.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct Spanned<'a> {
            /// The token.
            pub tok: Tok<'a>,
            /// Where it starts.
            pub pos: Pos,
        }
    }

    pub mod lexer {
        use super::token::{Pos, Spanned, Tok};
        use excuses::sdl::SdlError;

        /// A pull lexer: [`Lexer::next_token`] reads one token at a time, and
        /// returns [`Tok::Eof`] for ever once the source is used up.
        pub struct Lexer<'a> {
            src: &'a str,
            at: usize,
            line: u32,
            /// Where the current line starts; columns count bytes from there.
            line_start: usize,
        }

        impl<'a> Lexer<'a> {
            /// A lexer at the start of `src`.
            pub fn new(src: &'a str) -> Self {
                Lexer {
                    src,
                    at: 0,
                    line: 1,
                    line_start: 0,
                }
            }

            /// Reads the next token.
            pub fn next_token(&mut self) -> Result<Spanned<'a>, SdlError> {
                self.skip_trivia();
                let pos = Pos {
                    line: self.line,
                    col: u32::try_from(self.at - self.line_start + 1).unwrap_or(u32::MAX),
                };
                let Some(c) = self.byte(0) else {
                    return Ok(Spanned { tok: Tok::Eof, pos });
                };
                let tok = match c {
                    b':' => self.one(Tok::Colon),
                    b';' => self.one(Tok::Semi),
                    b',' => self.one(Tok::Comma),
                    b'{' => self.one(Tok::LBrace),
                    b'}' => self.one(Tok::RBrace),
                    b'[' => self.one(Tok::LBracket),
                    b']' => self.one(Tok::RBracket),
                    b'.' if self.byte(1) == Some(b'.') => {
                        self.at += 2;
                        Tok::DotDot
                    }
                    b'.' => return Err(lex_error(pos, "stray `.` (did you mean `..`?)")),
                    b'\'' => {
                        self.at += 1;
                        let word = self.take_word();
                        if word.is_empty() {
                            return Err(lex_error(pos, "empty enumeration token after `'`"));
                        }
                        Tok::Quoted(word)
                    }
                    b'-' if self.byte(1).is_some_and(|d| d.is_ascii_digit()) => {
                        self.at += 1;
                        Tok::Int(-self.take_int(pos)?)
                    }
                    c if c.is_ascii_digit() => Tok::Int(self.take_int(pos)?),
                    c if ident_start(c) => match self.take_word() {
                        "class" => Tok::KwClass,
                        "with" => Tok::KwWith,
                        "excuses" => Tok::KwExcuses,
                        "on" => Tok::KwOn,
                        "is-a" | "is_a" | "isa" => Tok::KwIsA,
                        // "is" followed by "a" is the paper's spaced spelling.
                        "is" => {
                            self.skip_trivia();
                            let save = self.at;
                            if self.take_word() == "a" {
                                Tok::KwIsA
                            } else {
                                self.at = save;
                                Tok::Ident("is")
                            }
                        }
                        word => Tok::Ident(word),
                    },
                    other => return Err(lex_error(pos, format!("unexpected character `{}`", other as char))),
                };
                Ok(Spanned { tok, pos })
            }

            /// The byte `ahead` bytes past the cursor.
            fn byte(&self, ahead: usize) -> Option<u8> {
                self.src.as_bytes().get(self.at + ahead).copied()
            }

            fn one(&mut self, tok: Tok<'a>) -> Tok<'a> {
                self.at += 1;
                tok
            }

            /// Skips whitespace and comments, the only input that spans lines.
            fn skip_trivia(&mut self) {
                loop {
                    match (self.byte(0), self.byte(1)) {
                        (Some(b'\n'), _) => {
                            self.at += 1;
                            self.line += 1;
                            self.line_start = self.at;
                        }
                        (Some(c), _) if c.is_ascii_whitespace() => self.at += 1,
                        (Some(b'-'), Some(b'-')) | (Some(b'/'), Some(b'/')) => {
                            // Up to, not past, the newline, which the next turn counts.
                            self.at = self.src[self.at..].find('\n').map_or(self.src.len(), |i| self.at + i);
                        }
                        _ => return,
                    }
                }
            }

            /// Reads an identifier; it is all ASCII, so slicing the source is safe.
            fn take_word(&mut self) -> &'a str {
                let start = self.at;
                while let Some(c) = self.byte(0) {
                    if ident_continue(c) {
                        self.at += 1;
                    } else if c == b'-' && self.byte(1).is_some_and(|d| d.is_ascii_alphabetic()) {
                        self.at += 2;
                    } else {
                        break;
                    }
                }
                &self.src[start..self.at]
            }

            fn take_int(&mut self, pos: Pos) -> Result<i64, SdlError> {
                let start = self.at;
                while self.byte(0).is_some_and(|d| d.is_ascii_digit()) {
                    self.at += 1;
                }
                let n = self.src[start..self.at].parse();
                n.map_err(|_| lex_error(pos, "integer literal overflows i64"))
            }
        }

        fn ident_start(c: u8) -> bool {
            c.is_ascii_alphabetic() || c == b'_'
        }

        fn ident_continue(c: u8) -> bool {
            c.is_ascii_alphanumeric() || c == b'_' || c == b'#'
        }

        fn lex_error(pos: Pos, what: impl Into<String>) -> SdlError {
            SdlError::Lex { pos, what: what.into() }
        }
    }

    pub mod ast {
        use super::token::Pos;

        /// A name as parsed: an index into [`SchemaAst::names`]. Names are
        /// numbered in order of first occurrence, so equal text is an equal `Name`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub struct Name(pub(crate) u32);

        impl Name {
            /// The index of this name in [`SchemaAst::names`].
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        /// A parsed schema: a sequence of class definitions.
        #[derive(Debug, Clone, PartialEq, Eq, Default)]
        pub struct SchemaAst<'a> {
            /// The class definitions in source order.
            pub classes: Vec<ClassAst>,
            /// The text of every [`Name`], sliced from the source.
            pub names: Vec<&'a str>,
        }

        impl<'a> SchemaAst<'a> {
            /// The text of `name`.
            pub fn name(&self, name: Name) -> &'a str {
                self.names[name.index()]
            }
        }

        /// One `class C is-a S1, S2 with …` definition.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct ClassAst {
            /// The class name.
            pub name: Name,
            /// Direct superclasses, in source order.
            pub supers: Vec<SuperAst>,
            /// Attribute declarations.
            pub attrs: Vec<AttrAst>,
            /// Source position of the `class` keyword.
            pub pos: Pos,
        }

        /// One superclass reference in an `is-a` list.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct SuperAst {
            /// The superclass name.
            pub name: Name,
            /// Source position of the name in the `is-a` list.
            pub pos: Pos,
        }

        /// One attribute declaration `p : R excuses p on C; …`.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct AttrAst {
            /// The attribute name.
            pub name: Name,
            /// Its range.
            pub range: RangeAst,
            /// Excuse clauses attached to the declaration.
            pub excuses: Vec<ExcuseAst>,
            /// Source position of the attribute name.
            pub pos: Pos,
        }

        /// An `excuses p on C` clause.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct ExcuseAst {
            /// The excused attribute's name.
            pub attr: Name,
            /// The class carrying the excused constraint.
            pub on: Name,
            /// Source position of the `excuses` keyword.
            pub pos: Pos,
        }

        /// A parsed range.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum RangeAst {
            /// `16..65`
            Int(i64, i64),
            /// `String`
            Str,
            /// `Integer` — the unbounded integer type of §5.4's
            /// `[salary : Integer + None / Temporary_Employee]`.
            Integer,
            /// `{'Hawk, 'Dove}`
            Enum(Vec<Name>),
            /// `None` — the attribute is inapplicable.
            None,
            /// `AnyEntity` — the entity top of §5.5.
            AnyEntity,
            /// A class reference such as `Physician`.
            Named(Name),
            /// A refined class such as `Physician [certifiedBy : {'ABO}]`.
            Refined(Name, Vec<AttrAst>),
            /// An anonymous in-line record such as `[street: String; city: String]`.
            Record(Vec<AttrAst>),
        }
    }

    pub mod parser {
        use std::collections::HashMap;

        use excuses::model::FxBuildHasher;

        use super::ast::{AttrAst, ClassAst, ExcuseAst, Name, RangeAst, SchemaAst, SuperAst};
        use super::lexer::Lexer;
        use super::token::{Spanned, Tok};
        use excuses::sdl::SdlError;

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
                index: HashMap::default(),
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
            index: HashMap<&'a str, Name, FxBuildHasher>,
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
                self.eat(want).then_some(()).ok_or_else(|| self.unexpected(ctx))
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
                            _ if self.cur.tok == Tok::LBracket => RangeAst::Refined(self.name(name), self.record()?),
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
    }

    pub mod resolve {
        use excuses::model::{AttrSpec, ClassId, Excuse, FieldSpec, ModelError, Range, Schema, SchemaBuilder, Sym};

        use super::ast::{AttrAst, ExcuseAst, Name, RangeAst, SchemaAst};
        use super::parser::parse;
        use super::token::Pos;
        use excuses::sdl::SdlError;

        /// `compile` without its observability span: parse, then lower.
        pub fn compile(src: &str) -> Result<Schema, SdlError> {
            let ast = parse(src)?;
            lower(&ast, None)
        }

        /// Lowers an already-parsed AST, recording `file` in the source map.
        pub fn lower(ast: &SchemaAst<'_>, file: Option<&str>) -> Result<Schema, SdlError> {
            let mut l = Lower {
                ast,
                b: SchemaBuilder::new(),
                syms: vec![None; ast.names.len()],
                classes: vec![None; ast.names.len()],
            };
            if let Some(f) = file {
                l.b.source_map_mut().set_file(f);
            }
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
                for sup in &class.supers {
                    let sup_id = l.class(sup.name, sup.pos)?;
                    model_at(l.b.add_super(id, sup_id), sup.pos)?;
                    l.b.source_map_mut().record_super(id, sup_id, span(sup.pos));
                }
                for attr in &class.attrs {
                    // A declaration's range and excused names are interned before
                    // its own name: `Sym` order is pinned, as it orders attributes.
                    let spec = l.attr_spec(attr)?;
                    let attr_sym = l.sym(attr.name);
                    let map = l.b.source_map_mut();
                    map.record_attr(id, attr_sym, span(attr.pos));
                    for (exc, at) in spec.excuses.iter().zip(&attr.excuses) {
                        map.record_excuse(id, exc.attr, exc.on, span(at.pos));
                    }
                    model_at(l.b.add_attr(id, ast.name(attr.name), spec), attr.pos)?;
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
                let range = self.range(&attr.range, attr.pos)?;
                let mut excuses = Vec::with_capacity(attr.excuses.len());
                for exc in &attr.excuses {
                    let on = self.class(exc.on, exc.pos)?;
                    let attr = self.sym(exc.attr);
                    excuses.push(Excuse { attr, on });
                }
                Ok(AttrSpec { range, excuses })
            }

            fn range(&mut self, range: &RangeAst, pos: Pos) -> Result<Range, SdlError> {
                Ok(match range {
                    RangeAst::Int(lo, hi) => model_at(Range::int(*lo, *hi), pos)?,
                    RangeAst::Str => Range::Str,
                    RangeAst::Integer => Range::Int {
                        lo: i64::MIN,
                        hi: i64::MAX,
                    },
                    RangeAst::None => Range::None,
                    RangeAst::AnyEntity => Range::AnyEntity,
                    RangeAst::Enum(toks) => model_at(Range::enumeration(toks.iter().map(|&t| self.sym(t))), pos)?,
                    RangeAst::Named(name) => Range::Class(self.class(*name, pos)?),
                    RangeAst::Refined(name, fields) => {
                        let base = self.class(*name, pos)?;
                        self.record(Some(base), fields, pos)?
                    }
                    RangeAst::Record(fields) => self.record(None, fields, pos)?,
                })
            }

            fn record(&mut self, base: Option<ClassId>, fields: &[AttrAst], pos: Pos) -> Result<Range, SdlError> {
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

        fn span(p: Pos) -> excuses::model::Span {
            let Pos { line, col } = p;
            excuses::model::Span { line, col }
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
                    let named = |e: &&ExcuseAst| ast.name(e.on) == on && ast.name(e.attr) == attr;
                    if let Some(e) = a.excuses.iter().find(named) {
                        return Some(e.pos);
                    }
                    if let RangeAst::Refined(_, fields) | RangeAst::Record(fields) = &a.range {
                        if let Some(p) = scan(ast, fields, on, attr) {
                            return Some(p);
                        }
                    }
                }
                None
            }
            ast.classes.iter().find_map(|c| scan(ast, &c.attrs, on, attr))
        }
    }
}

/// The spans the reference syntax tree gives, by name; a repeated key
/// keeps the later span, as the source map must.
#[derive(Default)]
struct Expected<'a> {
    classes: BTreeMap<&'a str, Span>,
    supers: BTreeMap<(&'a str, &'a str), Span>,
    attrs: BTreeMap<(&'a str, &'a str), Span>,
    excuses: BTreeMap<(&'a str, &'a str, &'a str), Span>,
}

fn expected<'a>(ast: &reference::ast::SchemaAst<'a>) -> Expected<'a> {
    let span = |p: reference::token::Pos| Span {
        line: p.line,
        col: p.col,
    };
    let mut e = Expected::default();
    for class in &ast.classes {
        let c = ast.name(class.name);
        e.classes.insert(c, span(class.pos));
        for sup in &class.supers {
            e.supers.insert((c, ast.name(sup.name)), span(sup.pos));
        }
        for attr in &class.attrs {
            e.attrs.insert((c, ast.name(attr.name)), span(attr.pos));
            for exc in &attr.excuses {
                e.excuses
                    .insert((c, ast.name(exc.attr), ast.name(exc.on)), span(exc.pos));
            }
        }
    }
    e
}

/// Compiles `src` both ways and asserts that the two agree; returns
/// whether both accepted it.
fn assert_agrees(what: &str, src: &str) -> bool {
    let got = compile(src);
    let want = reference::resolve::compile(src);
    if let Err(SdlError::Lex { pos, .. }) = &want {
        if reads_i64_min(src, *pos) {
            // The one intended change: the reference reads a literal's
            // digits unsigned, so it rejected `i64::MIN`.
            assert!(
                !matches!(&got, Err(SdlError::Lex { pos: at, .. }) if at == pos),
                "{what}: i64::MIN"
            );
            return false;
        }
    }
    let (got, want) = match (got, want) {
        (Ok(got), Ok(want)) => (got, want),
        (Err(got), Err(want)) => {
            assert_eq!(got.to_string(), want.to_string(), "{what}: error text");
            assert_eq!(got, want, "{what}: error");
            return false;
        }
        (got, want) => panic!(
            "{what}: compile gave {:?}, the reference {:?}",
            got.map(|_| ()),
            want.map(|_| ())
        ),
    };
    assert_eq!(got.num_syms(), want.num_syms(), "{what}: symbols");
    for i in 0..got.num_syms() {
        let sym = Sym::from_raw(i as u32);
        assert_eq!(got.resolve(sym), want.resolve(sym), "{what}: {sym:?}");
    }
    assert_eq!(print_schema(&got), print_schema(&want), "{what}: printed");

    let ast = reference::parser::parse(src).unwrap();
    let e = expected(&ast);
    let m = got.source_map();
    let (mut supers, mut attrs, mut excuses) = (0, 0, 0);
    for c in got.class_ids() {
        let name = got.class_name(c);
        assert_eq!(m.class_span(c), e.classes.get(name).copied(), "{what}: class {name}");
        for &sup in got.supers(c) {
            let key = (name, got.class_name(sup));
            assert_eq!(
                m.super_span(c, sup),
                e.supers.get(&key).copied(),
                "{what}: edge {key:?}"
            );
            supers += 1;
        }
        for decl in &got.class(c).attrs {
            let key = (name, got.resolve(decl.name));
            assert_eq!(
                m.attr_span(c, decl.name),
                e.attrs.get(&key).copied(),
                "{what}: attr {key:?}"
            );
            attrs += 1;
            for exc in &decl.spec.excuses {
                let key = (name, got.resolve(exc.attr), got.class_name(exc.on));
                let span = m.excuse_span(c, exc.attr, exc.on);
                assert_eq!(span, e.excuses.get(&key).copied(), "{what}: excuse {key:?}");
                excuses += 1;
            }
        }
    }
    assert_eq!(got.num_classes(), e.classes.len(), "{what}: classes");
    assert_eq!((supers, attrs), (e.supers.len(), e.attrs.len()), "{what}: edges, attrs");
    assert!(excuses >= e.excuses.len(), "{what}: excuse clauses");
    true
}

/// Whether the literal at `pos` in `src` is `-9223372036854775808`.
fn reads_i64_min(src: &str, pos: Pos) -> bool {
    let line = src.split('\n').nth(pos.line as usize - 1).unwrap_or("");
    let rest = line.as_bytes().get(pos.col as usize - 1..).unwrap_or(&[]);
    let literal = b"-9223372036854775808";
    rest.starts_with(literal) && !rest.get(literal.len()).is_some_and(u8::is_ascii_digit)
}

/// One of `choices`, picked by `rng`.
fn pick<'a>(rng: &mut SplitMix64, choices: &[&'a str]) -> &'a str {
    choices[rng.gen_range(0, choices.len() - 1)]
}

/// Reprints `printed` (the output of `print_schema`) with its classes
/// shuffled and the lexer's edge cases worked in: every spelling of
/// is-a, one split across a line break, tabs, CR and form feed, both
/// comment styles, `ANYENTITY`, repeated excuse clauses, and optional
/// semicolons dropped or added.
fn decorate(printed: &str, rng: &mut SplitMix64) -> String {
    let mut blocks: Vec<&str> = printed.split("\n\n").filter(|b| !b.trim().is_empty()).collect();
    rng.shuffle(&mut blocks);
    let mut out = String::new();
    for block in blocks {
        let mut block = block.trim_end().to_string();
        if block.ends_with(';') && rng.gen_bool(0.5) {
            block.pop();
        } else if !block.contains(" with") && rng.gen_bool(0.5) {
            block.push(';');
        }
        let is_a = [
            " is-a ",
            " is_a ",
            " isa ",
            " is a ",
            " is\n  a ",
            " is --split\n a ",
            "\tis\r\n\ta\t",
        ];
        block = block.replacen(" is-a ", pick(rng, &is_a), 1);
        if rng.gen_bool(0.5) {
            block = block.replace("AnyEntity", "ANYENTITY");
        }
        out.push_str(&repeat_some_clauses(&block, rng));
        out.push('\n');
        out.push_str(pick(rng, &["\n", "\r\n\n", "\n\x0c\n", "\n--next\n", "\n//next\n\n"]));
    }
    let mut spaced = String::with_capacity(out.len() * 2);
    for ch in out.chars() {
        match ch {
            ' ' if rng.gen_bool(0.1) => spaced.push_str(pick(
                rng,
                &["\t", " \t ", "\r\n", "\x0c", " -- note\n", " // note\n", "\n\t\t"],
            )),
            '\n' if rng.gen_bool(0.1) => spaced.push_str(pick(rng, &["\r\n", "\n\x0c", "\n\t"])),
            c => spaced.push(c),
        }
    }
    spaced
}

/// `block` with some of its `excuses p on C` clauses written twice.
fn repeat_some_clauses(block: &str, rng: &mut SplitMix64) -> String {
    let mut out = String::new();
    let mut rest = block;
    while let Some(at) = rest.find(" excuses ") {
        let on = at + rest[at..].find(" on ").expect("`on` follows `excuses`") + 4;
        let end = rest[on..].find([';', '\n', ' ']).map_or(rest.len(), |i| on + i);
        out.push_str(&rest[..end]);
        if rng.gen_bool(0.15) {
            out.push_str(&rest[at..end]);
        }
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

/// Byte-flipped and truncated copies of `src`. Only ASCII bytes are
/// flipped, and only to ASCII, so each copy stays UTF-8.
fn mutants(src: &str, count: usize, rng: &mut SplitMix64) -> Vec<String> {
    const BYTES: &[u8] = b"aZ_#-'.:;,{}[]0123456789 \t\r\n\x0c/";
    let mut out = Vec::new();
    for i in 0..count {
        let mut bytes = src.as_bytes().to_vec();
        if bytes.is_empty() {
            break;
        }
        if i % 4 == 3 {
            let mut cut = rng.gen_range(0, bytes.len() - 1);
            while !src.is_char_boundary(cut) {
                cut -= 1;
            }
            bytes.truncate(cut);
        } else {
            for _ in 0..1 + i % 3 {
                let at = rng.gen_range(0, bytes.len() - 1);
                if bytes[at].is_ascii() {
                    bytes[at] = BYTES[rng.gen_range(0, BYTES.len() - 1)];
                }
            }
        }
        out.push(String::from_utf8(bytes).expect("ASCII flips keep UTF-8"));
    }
    out
}

/// Every committed `.sdl` file, by path.
fn fixtures() -> Vec<(String, String)> {
    let root = env!("CARGO_MANIFEST_DIR");
    let dirs = [
        "tests/fixtures",
        "tests/fixtures/malformed",
        "crates/workloads/fixtures",
        "crates/lint/tests/fixtures",
        "examples/data",
    ];
    let mut out = Vec::new();
    for dir in dirs {
        let mut paths: Vec<_> = std::fs::read_dir(format!("{root}/{dir}"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "sdl"))
            .collect();
        paths.sort();
        for path in paths {
            let text = std::fs::read_to_string(&path).unwrap();
            out.push((path.display().to_string(), text));
        }
    }
    assert!(out.len() >= 20, "found only {} fixtures", out.len());
    out
}

#[test]
fn generated_schemas_agree_with_the_reference() {
    let mut rng = SplitMix64::new(0x5D1_C0DE);
    for (classes, seeds) in [(30, 0..12), (200, 12..16), (800, 16..17)] {
        for seed in seeds {
            let params = HierarchyParams {
                classes,
                max_supers: 1 + seed as usize % 3,
                redefine_rate: 0.6,
                contradiction_rate: 0.5,
                seed,
                ..Default::default()
            };
            let printed = print_schema(&generate(&params).schema);
            assert!(assert_agrees(
                &format!("{classes} classes, seed {seed}, printed"),
                &printed
            ));
            let decorated = decorate(&printed, &mut rng);
            assert!(assert_agrees(
                &format!("{classes} classes, seed {seed}, decorated"),
                &decorated
            ));
            let count = if classes > 100 { 4 } else { 12 };
            for (i, m) in mutants(&decorated, count, &mut rng).iter().enumerate() {
                assert_agrees(&format!("{classes} classes, seed {seed}, mutant {i}"), m);
            }
        }
    }
}

#[test]
fn vignettes_and_fixtures_agree_with_the_reference() {
    let mut rng = SplitMix64::new(0xF1_C5);
    let mut inputs: Vec<(String, String)> = vignettes::all()
        .into_iter()
        .map(|(name, src)| (name.to_string(), src.to_string()))
        .collect();
    inputs.extend(fixtures());
    for (name, src) in &inputs {
        assert_agrees(name, src);
        let count = if src.len() > 100_000 { 3 } else { 40 };
        for (i, m) in mutants(src, count, &mut rng).iter().enumerate() {
            assert_agrees(&format!("{name}, mutant {i}"), m);
        }
    }
}

#[test]
fn the_smallest_integer_is_the_one_intended_change() {
    let src = "class A with x: -9223372036854775808..0;\nclass B with y: -9223372036854775809..0";
    assert!(!assert_agrees("i64::MIN", src));
    let err = compile(src).unwrap_err().to_string();
    assert_eq!(err, "2:17: lexical error: integer literal overflows i64");
    let err = reference::resolve::compile(src).unwrap_err().to_string();
    assert_eq!(err, "1:17: lexical error: integer literal overflows i64");
}

#[test]
fn rejected_excuse_clauses_agree_with_the_reference() {
    // Three dangling clauses; the first one in class order is reported,
    // at its position, not the first by excused class or attribute.
    let src = "class A with x: 1..2;\n\
               class B is-a A with x: 3..4 excuses y on C;\n\
               class C is-a A with x: 5..6 excuses x on A; w: 1..1 excuses z on A\n\
               class D is-a B with y: String excuses q on A\n";
    assert!(!assert_agrees("dangling clauses", src));
    let err = compile(src).unwrap_err();
    assert_eq!(
        err.to_string(),
        "2:29: schema error: excuse refers to attribute `y` on `C`, but `C` neither declares nor inherits it"
    );
}

/// Every excuse clause, grouped by the constraint `(on, attr)` it
/// excuses, each group in the order of a scan of every clause of every
/// declaration in class order.
fn scan(schema: &Schema) -> BTreeMap<(ClassId, Sym), Vec<ExcuserEntry>> {
    let mut out: BTreeMap<(ClassId, Sym), Vec<ExcuserEntry>> = BTreeMap::new();
    for c in schema.class_ids() {
        for decl in &schema.class(c).attrs {
            for exc in &decl.spec.excuses {
                let entry = ExcuserEntry {
                    excuser: c,
                    attr: decl.name,
                };
                out.entry((exc.on, exc.attr)).or_default().push(entry);
            }
        }
    }
    out
}

/// Asserts the excuse index law on `schema`: `excusers_of`,
/// `excused_elsewhere`, `applicable_excusers` and `excused_constraints`
/// answer what a scan of the clauses does.
fn assert_index_law(what: &str, schema: &Schema) {
    let want = scan(schema);
    for on in schema.class_ids() {
        for i in 0..schema.num_syms() {
            let attr = Sym::from_raw(i as u32);
            let entries = want.get(&(on, attr)).map_or(&[][..], Vec::as_slice);
            assert_eq!(schema.excusers_of(on, attr), entries, "{what}: {on:?} {attr:?}");
            let elsewhere = entries.iter().any(|e| e.attr != attr);
            assert_eq!(schema.excused_elsewhere(on, attr), elsewhere, "{what}: {on:?} {attr:?}");
        }
    }
    for (&(on, attr), entries) in &want {
        for class in schema.class_ids().step_by(5) {
            let got: Vec<ExcuserEntry> = schema.applicable_excusers(class, on, attr).copied().collect();
            let mut applicable = entries.clone();
            applicable.retain(|e| schema.is_subclass(class, e.excuser));
            assert_eq!(got, applicable, "{what}: {class:?} under {on:?} {attr:?}");
        }
    }
    let constraints: Vec<(ClassId, Sym)> = want.into_keys().collect();
    assert_eq!(
        schema.excused_constraints().collect::<Vec<_>>(),
        constraints,
        "{what}: constraints"
    );
}

#[test]
fn the_excuse_index_answers_a_scan_of_the_clauses() {
    for seed in 0..6 {
        let params = HierarchyParams {
            classes: 60 + 40 * seed as usize,
            max_supers: 1 + seed as usize % 3,
            redefine_rate: 0.7,
            contradiction_rate: 0.6,
            seed,
            ..Default::default()
        };
        let schema = generate(&params).schema;
        assert_index_law(&format!("seed {seed}"), &schema);
        let printed = print_schema(&schema);
        let repeated = repeat_some_clauses(&printed, &mut SplitMix64::new(seed));
        assert_index_law(&format!("seed {seed}, compiled"), &compile(&repeated).unwrap());
    }
    for (name, src) in vignettes::all() {
        assert_index_law(name, &compile(src).unwrap());
    }
    let shapes = include_str!("fixtures/excuse-shapes.sdl");
    assert_index_law("excuse-shapes", &compile(shapes).unwrap());
}

#[test]
fn an_undeclared_excuse_names_the_first_failing_clause_of_the_scan() {
    let mut rng = SplitMix64::new(0xE0C5);
    let mut failed = 0;
    for seed in 0..24 {
        let schema = generate(&HierarchyParams {
            classes: 40,
            redefine_rate: 0.6,
            contradiction_rate: 0.5,
            seed,
            ..Default::default()
        })
        .schema;
        let mut b = SchemaBuilder::from_schema(&schema);
        // Add clauses to random declarations: most name a declared or
        // inherited attribute, some dangle.
        let decls: Vec<(ClassId, Sym)> = schema
            .class_ids()
            .flat_map(|c| schema.class(c).attrs.iter().map(move |d| (c, d.name)))
            .collect();
        let mut specs: BTreeMap<(ClassId, Sym), AttrSpec> = BTreeMap::new();
        for _ in 0..30 {
            let &(c, a) = rng.choose(&decls).unwrap();
            let on = ClassId::from_raw(rng.gen_range(0, schema.num_classes() - 1) as u32);
            let attr = Sym::from_raw(rng.gen_range(0, schema.num_syms() - 1) as u32);
            let spec = specs
                .entry((c, a))
                .or_insert_with(|| schema.declared_attr(c, a).unwrap().spec.clone());
            spec.excuses.push(Excuse { attr, on });
        }
        for ((c, a), spec) in specs {
            b.set_attr_spec(c, a, spec).unwrap();
        }
        // The first clause of the scan whose attribute `on` neither
        // declares nor inherits.
        let mut first = None;
        'scan: for c in schema.class_ids() {
            for decl in &schema.class(c).attrs {
                let spec = b.attr_spec(c, decl.name).unwrap();
                for exc in &spec.excuses {
                    if !schema.has_attr(exc.on, exc.attr) {
                        first = Some(ModelError::ExcusedAttrUndeclared {
                            on: schema.class_name(exc.on).to_string(),
                            attr: schema.resolve(exc.attr).to_string(),
                        });
                        break 'scan;
                    }
                }
            }
        }
        match (b.build(), first) {
            (Ok(built), None) => assert_index_law(&format!("seed {seed}, edited"), &built),
            (Err(got), Some(want)) => {
                assert_eq!(got, want, "seed {seed}");
                failed += 1;
            }
            (got, want) => panic!("seed {seed}: build gave {:?}, the scan {want:?}", got.map(|_| ())),
        }
    }
    assert!(failed >= 12, "only {failed} edited schemas had a dangling clause");
}
