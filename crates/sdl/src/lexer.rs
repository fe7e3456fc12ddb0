//! The SDL lexer.
//!
//! Comments run from `--` to end of line (the paper's prose style) and
//! `//` is accepted as a synonym. Identifiers may contain letters, digits,
//! `_`, `#` (the paper writes `room#`), and an embedded `-` when followed
//! by a letter (so `is-a` lexes as one word, later promoted to a keyword).

use crate::error::SdlError;
use crate::token::{Pos, Spanned, Tok};

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
            // Identifiers and keywords first: they are most tokens.
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
            b'-' if self.byte(1).is_some_and(|d| d.is_ascii_digit()) => self.take_int(pos)?,
            c if c.is_ascii_digit() => self.take_int(pos)?,
            other => {
                return Err(lex_error(
                    pos,
                    format!("unexpected character `{}`", other as char),
                ))
            }
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
        let bytes = self.src.as_bytes();
        let mut at = self.at;
        while let Some(&c) = bytes.get(at) {
            match c {
                b'\n' => {
                    at += 1;
                    self.line += 1;
                    self.line_start = at;
                }
                b'-' | b'/' if bytes.get(at + 1) == Some(&c) => {
                    // Up to, not past, the newline, which the next turn counts.
                    at = self.src[at..].find('\n').map_or(bytes.len(), |i| at + i);
                }
                c if c.is_ascii_whitespace() => at += 1,
                _ => break,
            }
        }
        self.at = at;
    }

    /// Reads an identifier; it is all ASCII, so slicing the source is safe.
    fn take_word(&mut self) -> &'a str {
        let src = self.src;
        let bytes = src.as_bytes();
        let start = self.at;
        let mut at = start;
        while let Some(&c) = bytes.get(at) {
            if IDENT_CONTINUE[usize::from(c)] {
                at += 1;
            } else if c == b'-' && bytes.get(at + 1).is_some_and(u8::is_ascii_alphabetic) {
                at += 2;
            } else {
                break;
            }
        }
        self.at = at;
        &src[start..at]
    }

    /// Reads an integer literal with its sign, if any, so `i64::MIN`
    /// reads back as it prints.
    fn take_int(&mut self, pos: Pos) -> Result<Tok<'a>, SdlError> {
        let start = self.at;
        self.at += 1;
        while self.byte(0).is_some_and(|d| d.is_ascii_digit()) {
            self.at += 1;
        }
        let n = self.src[start..self.at].parse();
        n.map(Tok::Int)
            .map_err(|_| lex_error(pos, "integer literal overflows i64"))
    }
}

fn ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

/// The bytes that continue an identifier: ASCII letters and digits, `_`
/// and `#`.
const IDENT_CONTINUE: [bool; 256] = {
    let mut table = [false; 256];
    let mut c = 0;
    while c < 256 {
        let b = c as u8;
        table[c] = b.is_ascii_alphanumeric() || b == b'_' || b == b'#';
        c += 1;
    }
    table
};

fn lex_error(pos: Pos, what: impl Into<String>) -> SdlError {
    SdlError::Lex {
        pos,
        what: what.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lexes a whole source text, ending with [`Tok::Eof`].
    fn lex(src: &str) -> Result<Vec<Spanned<'_>>, SdlError> {
        let mut lexer = Lexer::new(src);
        let mut out = vec![lexer.next_token()?];
        while out.last().unwrap().tok != Tok::Eof {
            out.push(lexer.next_token()?);
        }
        Ok(out)
    }

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("class Employee is-a Person with"),
            vec![
                Tok::KwClass,
                Tok::Ident("Employee"),
                Tok::KwIsA,
                Tok::Ident("Person"),
                Tok::KwWith,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn spaced_is_a() {
        assert_eq!(
            toks("Patient is a Person"),
            vec![
                Tok::Ident("Patient"),
                Tok::KwIsA,
                Tok::Ident("Person"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn is_not_followed_by_a_stays_ident() {
        assert_eq!(
            toks("is b"),
            vec![Tok::Ident("is"), Tok::Ident("b"), Tok::Eof]
        );
    }

    #[test]
    fn ranges_and_enums() {
        assert_eq!(
            toks("age: 16..65; state: {'AL, 'WV}"),
            vec![
                Tok::Ident("age"),
                Tok::Colon,
                Tok::Int(16),
                Tok::DotDot,
                Tok::Int(65),
                Tok::Semi,
                Tok::Ident("state"),
                Tok::Colon,
                Tok::LBrace,
                Tok::Quoted("AL"),
                Tok::Comma,
                Tok::Quoted("WV"),
                Tok::RBrace,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn negative_ints() {
        assert_eq!(
            toks("-40..120"),
            vec![Tok::Int(-40), Tok::DotDot, Tok::Int(120), Tok::Eof]
        );
        assert_eq!(
            toks("-9223372036854775808..9223372036854775807"),
            vec![
                Tok::Int(i64::MIN),
                Tok::DotDot,
                Tok::Int(i64::MAX),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("class A -- the A class\nclass B // another\n"),
            vec![
                Tok::KwClass,
                Tok::Ident("A"),
                Tok::KwClass,
                Tok::Ident("B"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn hash_in_identifier() {
        assert_eq!(toks("room#"), vec![Tok::Ident("room#"), Tok::Eof]);
    }

    #[test]
    fn positions_track_lines() {
        let spans = lex("class\n  Foo").unwrap();
        assert_eq!(spans[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(spans[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn bad_character_errors() {
        assert!(matches!(lex("class ?"), Err(SdlError::Lex { .. })));
        assert!(matches!(lex("x: 1 . 2"), Err(SdlError::Lex { .. })));
        assert!(matches!(lex("' "), Err(SdlError::Lex { .. })));
    }
}
