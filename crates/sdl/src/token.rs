//! Tokens of the schema definition language.

use std::fmt;

/// A source position, 1-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// Line number, starting at 1.
    pub line: u32,
    /// Column number (in bytes), starting at 1.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

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
