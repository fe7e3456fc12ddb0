//! A deliberately tiny JSON subset: objects with string keys, arrays,
//! strings, and numbers — what the line-delimited event sink and the
//! Chrome trace-event exporter emit. The build environment is offline,
//! so no serde; ~150 lines of hand-rolled emitter and parser keep every
//! sink round-trippable.

use std::collections::BTreeMap;
use std::fmt;

/// A value in the event-sink JSON subset.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A string (escaped on render).
    Str(String),
    /// A finite number.
    Num(f64),
    /// An object; values may be any subset value, including objects.
    Obj(BTreeMap<String, JsonValue>),
    /// An array of subset values.
    Arr(Vec<JsonValue>),
}

impl JsonValue {
    /// A string value.
    pub fn string(s: &str) -> JsonValue {
        JsonValue::Str(s.to_string())
    }

    /// A number value.
    pub fn number(n: f64) -> JsonValue {
        JsonValue::Num(n)
    }

    /// An object from key/value pairs.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, JsonValue)>) -> JsonValue {
        JsonValue::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// An array from values.
    pub fn array(items: impl IntoIterator<Item = JsonValue>) -> JsonValue {
        JsonValue::Arr(items.into_iter().collect())
    }

    /// Field lookup on an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The compact JSON text ([`fmt::Display`]) as a `String`.
    pub fn render(&self) -> String {
        self.to_string()
    }
}

/// Compact JSON: sorted keys, no whitespace; whole numbers below 9e15
/// print as integers.
impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Str(s) => write_string(f, s),
            JsonValue::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => write!(f, "{}", *n as i64),
            JsonValue::Num(n) => write!(f, "{n}"),
            JsonValue::Obj(m) => {
                for (i, (k, v)) in m.iter().enumerate() {
                    f.write_str(if i == 0 { "{" } else { "," })?;
                    write_string(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str(if m.is_empty() { "{}" } else { "}" })
            }
            JsonValue::Arr(items) => {
                for (i, v) in items.iter().enumerate() {
                    write!(f, "{}{v}", if i == 0 { "[" } else { "," })?;
                }
                f.write_str(if items.is_empty() { "[]" } else { "]" })
            }
        }
    }
}

/// Writes `s` quoted and escaped, each unescaped run with one write.
fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    // Every escaped byte is ASCII, so `run..i` ends on a char boundary.
    let mut run = 0;
    let escaped = |&(_, b): &(usize, u8)| b < 0x20 || b == b'"' || b == b'\\';
    for (i, b) in s.bytes().enumerate().filter(escaped) {
        f.write_str(&s[run..i])?;
        run = i + 1;
        match b {
            b'\n' => f.write_str("\\n")?,
            b'\t' => f.write_str("\\t")?,
            b'\r' => f.write_str("\\r")?,
            b'"' | b'\\' => write!(f, "\\{}", b as char)?,
            _ => write!(f, "\\u{b:04x}")?,
        }
    }
    write!(f, "{}\"", &s[run..])
}

/// How deeply arrays and objects may nest: the limit `.sdl` records and
/// `.chd` values have too. The parser recurses once per level, so the
/// limit is what keeps hostile input from overflowing the stack.
pub const MAX_DEPTH: usize = 1_000;

/// Parses one document of the subset. Every error starts with the
/// `line:column` (1-based; the column counts characters) where parsing
/// stopped.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    parse_at(input, 1)
}

/// Parses a whole line-delimited JSON document, skipping blank lines.
/// Error positions are lines of the whole document.
pub fn parse_lines(input: &str) -> Result<Vec<JsonValue>, String> {
    input
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_at(l, i + 1))
        .collect()
}

/// [`parse`], with `input` starting on line `first_line`.
fn parse_at(input: &str, first_line: usize) -> Result<JsonValue, String> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.document().map_err(|msg| {
        let mut end = p.pos.min(input.len());
        while !input.is_char_boundary(end) {
            end -= 1;
        }
        let before = &input[..end];
        let line = first_line + before.matches('\n').count();
        let column = before.rsplit('\n').next().unwrap_or("").chars().count() + 1;
        format!("{line}:{column}: {msg}")
    })
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    /// Where parsing is; on an error, where it stopped.
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

/// What the parser found at a position, for error messages.
fn found(b: Option<&u8>) -> String {
    match b {
        None => "end of input".to_string(),
        Some(&b) if b.is_ascii_graphic() => format!("`{}`", b as char),
        Some(&b) => format!("byte {b:#04x}"),
    }
}

impl Parser<'_> {
    fn document(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        let v = self.value()?;
        self.skip_ws();
        match self.pos == self.bytes.len() {
            true => Ok(v),
            false => Err("trailing input".to_string()),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            let got = found(self.bytes.get(self.pos));
            Err(format!("expected `{}`, found {got}", b as char))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.bytes.get(self.pos) {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "arrays and objects nest deeper than {MAX_DEPTH} levels"
            )),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("expected a value, found {}", found(other))),
        }
    }

    /// Parses an array or object one level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        self.depth += 1;
        let v = parse(self)?;
        self.depth -= 1;
        Ok(v)
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                other => return Err(format!("expected `,` or `]`, found {}", found(other))),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(map));
                }
                other => return Err(format!("expected `,` or `}}`, found {}", found(other))),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape, found {}", found(other))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // One scalar: `pos` only ever stops on a character
                    // boundary of the text.
                    let c = self.text[self.pos..].chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>().map(JsonValue::Num).map_err(|e| {
            self.pos = start;
            format!("bad number `{text}`: {e}")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let v = JsonValue::object([
            ("type", JsonValue::string("counter")),
            ("name", JsonValue::string("check.classes")),
            ("value", JsonValue::number(42.0)),
        ]);
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn rendered_bytes_are_pinned() {
        let s = JsonValue::string;
        let n = JsonValue::number;
        // Keys sort bytewise, whatever order they were given in.
        let keys = JsonValue::object([("b", n(1.0)), ("a", n(2.0)), ("B", n(3.0)), ("10", n(4.0))]);
        assert_eq!(keys.render(), r#"{"10":4,"B":3,"a":2,"b":1}"#);
        // Every escape; other control characters as `\u00xx`, the rest raw.
        let esc = s("q\"b\\n\nt\tr\r\u{0}\u{8}\u{c}\u{1f} \u{7f}é/");
        assert_eq!(
            esc.render(),
            concat!(
                r#""q\"b\\n\nt\tr\r\u0000\u0008\u000c\u001f "#,
                "\u{7f}",
                r#"é/""#
            )
        );
        assert_eq!(
            JsonValue::object([("k\n", s(""))]).render(),
            r#"{"k\n":""}"#
        );
        // Whole numbers below 9e15 print as integers; the rest as `f64`.
        let nums = [
            0.0,
            -0.0,
            42.0,
            -7.0,
            1.5,
            -0.25,
            0.1,
            1e-7,
            8_999_999_999_999_999.0,
        ];
        let big = [9e15, -9e15, 1e16, 1e21];
        let arr = JsonValue::array(nums.into_iter().chain(big).map(n));
        assert_eq!(
            arr.render(),
            "[0,0,42,-7,1.5,-0.25,0.1,0.0000001,8999999999999999,\
             9000000000000000,-9000000000000000,10000000000000000,1000000000000000000000]"
        );
        // Nested empty objects and arrays.
        let empty = || JsonValue::object([]);
        let nested = JsonValue::object([
            ("a", empty()),
            ("b", JsonValue::array([])),
            (
                "c",
                JsonValue::array([empty(), JsonValue::array([JsonValue::array([])])]),
            ),
        ]);
        assert_eq!(nested.render(), r#"{"a":{},"b":[],"c":[{},[[]]]}"#);
    }

    #[test]
    fn escapes_round_trip() {
        let v = JsonValue::object([("k", JsonValue::string("a\"b\\c\nd\te\u{1}"))]);
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn parse_lines_skips_blanks() {
        let doc = "{\"a\":1}\n\n{\"b\":2}\n";
        let vs = parse_lines(doc).unwrap();
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[1].get("b").and_then(JsonValue::as_f64), Some(2.0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("{'a':1}").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("[1,").is_err());
        assert!(parse("[1 2]").is_err());
    }

    #[test]
    fn every_error_names_its_line_and_column() {
        let cases = [
            ("", "1:1: expected a value, found end of input"),
            ("[1,", "1:4: expected a value, found end of input"),
            ("[1 2]", "1:4: expected `,` or `]`, found `2`"),
            ("{\"a\":1", "1:7: expected `,` or `}`, found end of input"),
            ("{\n  \"a\" 1}", "2:7: expected `:`, found `1`"),
            ("{\"a\":1} extra", "1:9: trailing input"),
            ("[\"é\", x]", "1:7: expected a value, found `x`"),
            ("[1-2]", "1:2: bad number `1-2`: invalid float literal"),
            ("\"abc", "1:5: unterminated string"),
            ("\"\\q\"", "1:3: bad escape, found `q`"),
        ];
        for (input, want) in cases {
            assert_eq!(parse(input).unwrap_err(), want, "{input:?}");
        }
        // A truncated document: the position is where the text ends.
        let doc = JsonValue::object([("a", JsonValue::array([JsonValue::number(1.0)]))]);
        let text = doc.render();
        for cut in 0..text.len() {
            let err = parse(&text[..cut]).unwrap_err();
            assert!(err.starts_with(&format!("1:{}: ", cut + 1)), "{cut}: {err}");
        }
        // In a line-delimited document, the line is the document's.
        let err = parse_lines("{\"a\":1}\n\n{\"b\":}\n").unwrap_err();
        assert_eq!(err, "3:6: expected a value, found `}`");
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let deep = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        let limit = format!(
            "1:{}: arrays and objects nest deeper than 1000 levels",
            MAX_DEPTH + 1
        );
        assert_eq!(deep, limit);
        // Far past the limit, unclosed, and mixed with objects.
        assert!(parse(&"[".repeat(50_000))
            .unwrap_err()
            .contains("nest deeper"));
        let mixed = "{\"k\":[".repeat(MAX_DEPTH);
        assert!(parse(&mixed).unwrap_err().contains("nest deeper"));
    }

    #[test]
    fn arrays_and_nesting_round_trip() {
        let v = JsonValue::object([
            (
                "traceEvents",
                JsonValue::array([
                    JsonValue::object([
                        ("ph", JsonValue::string("B")),
                        ("ts", JsonValue::number(1.5)),
                        ("args", JsonValue::object([("n", JsonValue::number(3.0))])),
                    ]),
                    JsonValue::object([("ph", JsonValue::string("E"))]),
                ]),
            ),
            ("displayTimeUnit", JsonValue::string("ns")),
        ]);
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
        let events = parse(&text).unwrap();
        let arr = events.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(
            arr[0]
                .get("args")
                .and_then(|a| a.get("n"))
                .and_then(JsonValue::as_f64),
            Some(3.0)
        );
        assert_eq!(parse("[]").unwrap(), JsonValue::Arr(vec![]));
    }
}
