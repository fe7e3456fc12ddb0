//! A concrete syntax for instance data, so whole databases can be loaded
//! from text and validated:
//!
//! ```text
//! -- <name> : <Class>[, <Class>…] { <attr> = <value>; … }
//! greg  : Physician { name = "Greg", age = 52 }
//! davos : Address   { city = "Davos", country = 'Switzerland }
//! pat1  : Alcoholic { treatedBy = @greg, age = 40 }
//! ```
//!
//! Values: integers, double-quoted strings (with `\"`, `\\` and `\n`
//! escapes), `'Token` enumeration literals, `@name` object references
//! (forward references allowed), and `[f = v, …]` record values, nested at
//! most [`MAX_RECORD_DEPTH`] deep, each field named once. An attribute
//! given twice in one entry keeps its last value. An entry is a line, or,
//! while a bracket is open or a `name : Class` head has no `{ … }` yet,
//! that line and the next ones, read as if joined by single spaces; `--`
//! starts a comment outside a string.
//!
//! A counting pass over the bytes comes first. An entry ends at a line
//! break or at the end of the file, so there is at most one entry more
//! than there are `\n` bytes, and every stored value follows its own
//! `=`. The smallest entry, `a:A{}`, takes five bytes and its line break
//! a sixth, and the smallest stored value, `a=1`, takes three and its
//! `,` or closing `}` a fourth, so the entries are capped at a sixth of
//! the file's bytes and the values at a quarter: a file whose strings
//! are full of `=` or line breaks reserves no more than that. These
//! bounds size the object table, the membership words, the names, the
//! name index and the value arena before the scan, so none of them grows
//! while it runs.
//!
//! Then one byte cursor walks the file. A table-driven loop passes over
//! blanks and plain content, noting only where content ends; quotes,
//! brackets, separators, `=`, `:`, line breaks and non-ASCII bytes are
//! looked at one by one. Names, classes and every value kind are parsed
//! in place, from the spans the cursor finds, and each object is created
//! and its values lowered as its entry is read. A field, and a record
//! value's closing `]`, end where the field around them ends, so the
//! cursor keeps each open field list's string and bracket state. A value
//! with an `@ref` to an object defined further down keeps its byte span
//! and a slot in its object's values, and is read again at the end, into
//! that slot.
//!
//! Errors are reported in a fixed order: the first syntax error in file
//! order, else the first duplicate-object or unknown-class error, else the
//! first unknown-attribute or unknown-object error.

use std::borrow::Cow;
use std::collections::HashMap;

use chc_model::{ClassId, FxBuildHasher, Oid, Schema, Sym, Value};

use crate::store::ExtentStore;

/// How deep record values may nest: `[f = [f = 1]]` is two levels. A
/// deeper value is a syntax error, so neither the loader nor anything
/// that later walks the value can run out of stack.
pub const MAX_RECORD_DEPTH: usize = 1000;

/// A data-loading failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// Syntax problem at (line, description).
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        what: String,
    },
    /// An object name was defined twice.
    DuplicateObject(String),
    /// A class name not in the schema.
    UnknownClass(String),
    /// An attribute name never interned in the schema.
    UnknownAttr(String),
    /// An `@name` reference to an object never defined.
    UnknownObject(String),
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::Syntax { line, what } => write!(f, "line {line}: {what}"),
            DataError::DuplicateObject(n) => write!(f, "object `{n}` defined twice"),
            DataError::UnknownClass(n) => write!(f, "unknown class `{n}`"),
            DataError::UnknownAttr(n) => write!(f, "unknown attribute `{n}`"),
            DataError::UnknownObject(n) => write!(f, "reference to undefined object `@{n}`"),
        }
    }
}

impl std::error::Error for DataError {}

/// The result of loading a data file.
#[derive(Debug)]
pub struct LoadedData {
    /// The populated store.
    pub store: ExtentStore,
    /// Object name → surrogate, in definition order.
    pub names: Names,
}

impl LoadedData {
    /// Looks up an object by its data-file name.
    pub fn oid(&self, name: &str) -> Option<Oid> {
        self.names.iter().find(|(n, _)| *n == name).map(|(_, o)| *o)
    }
}

/// Object names and their surrogates, in definition order: one string
/// holding every name, and where each name ends in it.
#[derive(Debug, Clone)]
pub struct Names {
    text: String,
    ends: Vec<(usize, Oid)>,
}

impl Names {
    /// The number of names.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Each name with its surrogate, in definition order.
    pub fn iter(&self) -> NamesIter<'_> {
        NamesIter {
            text: &self.text,
            start: 0,
            ends: self.ends.iter(),
        }
    }

    fn push(&mut self, name: &str, oid: Oid) {
        self.text.push_str(name);
        self.ends.push((self.text.len(), oid));
    }
}

impl<'a> IntoIterator for &'a Names {
    type Item = (&'a str, &'a Oid);
    type IntoIter = NamesIter<'a>;

    fn into_iter(self) -> NamesIter<'a> {
        self.iter()
    }
}

/// The iterator of [`Names::iter`].
#[derive(Debug, Clone)]
pub struct NamesIter<'a> {
    text: &'a str,
    start: usize,
    ends: std::slice::Iter<'a, (usize, Oid)>,
}

impl<'a> Iterator for NamesIter<'a> {
    type Item = (&'a str, &'a Oid);

    fn next(&mut self) -> Option<Self::Item> {
        let (end, oid) = self.ends.next()?;
        let name = &self.text[self.start..*end];
        self.start = *end;
        Some((name, oid))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

impl ExactSizeIterator for NamesIter<'_> {}

/// Upper bounds on the entries and the stored values of a data file,
/// from one counting pass over its bytes (see the module doc).
fn capacity_bounds(src: &[u8]) -> (usize, usize) {
    let (mut lines, mut eqs) = (0usize, 0usize);
    // Byte-wide counters per 255-byte chunk let the loop run on vector
    // lanes, about ten times as fast as word-wide ones.
    for chunk in src.chunks(usize::from(u8::MAX)) {
        let (mut l, mut e) = (0u8, 0u8);
        for &b in chunk {
            l += u8::from(b == b'\n');
            e += u8::from(b == b'=');
        }
        lines += usize::from(l);
        eqs += usize::from(e);
    }
    ((lines + 1).min((src.len() + 1) / 6), eqs.min(src.len() / 4))
}

/// Parses and loads a data file against `schema`: after a counting pass
/// sizes its tables, one pass over its bytes creates each object and
/// stores its values as its entry is read. A value holding an `@ref` to
/// an object defined further down is lowered again once every object
/// exists.
pub fn load_data(schema: &Schema, src: &str) -> Result<LoadedData, DataError> {
    let _span = chc_obs::span(chc_obs::names::SPAN_EXTENT_LOAD);
    let _mem = chc_obs::memalloc::span_mem(
        chc_obs::names::MEM_EXTENT_LOAD_BYTES,
        chc_obs::names::MEM_EXTENT_LOAD_PEAK,
    );
    let (entries, values) = capacity_bounds(src.as_bytes());
    let mut store = ExtentStore::new(schema);
    store.reserve(entries, values);
    let mut loader = Loader {
        schema,
        store,
        names: Names {
            text: String::new(),
            ends: Vec::with_capacity(entries),
        },
        by_name: HashMap::with_capacity_and_hasher(entries, FxBuildHasher::default()),
        key_slots: Vec::new(),
        deferred: Vec::new(),
        class_error: None,
        attr_error: None,
        forward: false,
        all_defined: false,
        fanout: 0,
        cur: Cursor {
            src,
            end: src.len(),
            line: 1,
            ..Cursor::default()
        },
    };
    let read = loader.read();
    // One counter update per load, not per object, whether or not the
    // load succeeds.
    if loader.fanout > 0 {
        chc_obs::counter(chc_obs::names::EXTENT_ADD_FANOUT, loader.fanout);
    }
    read?;
    loader.finish()
}

/// How the cursor's fast loop sees a byte: content it only passes over,
/// an ASCII blank, or one it looks at on its own.
const PLAIN: u8 = 0;
const BLANK: u8 = 1;
const SPECIAL: u8 = 2;

#[inline]
fn class(b: u8) -> u8 {
    match b {
        b' ' | b'\t' | b'\r' | 0x0b | 0x0c => BLANK,
        b'\n' | b'"' | b'\\' | b'-' | b'[' | b']' | b'{' | b'}' | b',' | b';' | b'=' | b':' => {
            SPECIAL
        }
        0x80.. => SPECIAL,
        _ => PLAIN,
    }
}

/// One reading of the text: `"` toggles its string state, inside a
/// string `\` makes the next byte inert, and outside strings it counts
/// `[` (and, when `braces`, `{`) up and the closers down.
#[derive(Clone, Copy, Default)]
struct Reading {
    in_str: bool,
    esc: bool,
    depth: i32,
}

impl Reading {
    #[inline]
    fn feed(&mut self, b: u8, braces: bool) {
        match b {
            _ if std::mem::take(&mut self.esc) => {}
            b'"' => self.in_str = !self.in_str,
            b'\\' => self.esc = self.in_str,
            _ if self.in_str => {}
            b'[' => self.depth += 1,
            b']' => self.depth -= 1,
            b'{' if braces => self.depth += 1,
            b'}' if braces => self.depth -= 1,
            _ => {}
        }
    }
}

/// A field list being read: an entry's body (level 0), a deferred value
/// read again (level 0, one field), or a record value in the field of the
/// level below.
#[derive(Default)]
struct Level {
    /// Its reading in `Cursor::readings`, which it pushed if `own`; a
    /// record read in step with its parent shares the parent's.
    reading: usize,
    own: bool,
    /// The depth at which a `,` or `;` separates its fields.
    base: i32,
    /// Nested past [`MAX_RECORD_DEPTH`]: its fields are not read.
    too_deep: bool,
    /// Whether the record is still lowered: it stops at the first field
    /// that is not.
    lower: bool,
    /// Where its fields and keys start on the cursor's stacks.
    fields: usize,
    keys: usize,
    err: Option<DataError>,
    field: Field,
}

/// The field being read: its first content byte, whether its `=` is
/// read, its value's first content byte (with the comment reading
/// there), and the symbol its value is lowered under.
#[derive(Default)]
struct Field {
    start: Option<usize>,
    eq: bool,
    value: Option<usize>,
    comment: Reading,
    attr: Option<Sym>,
}

#[derive(Clone, Copy, Default, PartialEq, Eq)]
enum Phase {
    /// Between entries.
    #[default]
    Idle,
    /// An entry's name, up to its first `:`.
    Name,
    /// Its classes, up to the first `{` after that.
    Classes,
    Body,
    /// Past an error in the entry's head, to the entry's end.
    Skip,
    /// A deferred value, read again.
    Value,
}

/// A top-level attribute value that refers forward, by its byte span and
/// the comment reading at its start.
struct Deferred {
    line: usize,
    oid: Oid,
    attr: Sym,
    span: (usize, usize),
    comment: Reading,
}

/// The byte cursor and the entry it is in.
#[derive(Default)]
struct Cursor<'a> {
    src: &'a str,
    pos: usize,
    end: usize,
    line: usize,
    line_start: usize,
    phase: Phase,
    /// Comments are found line by line, so this reading starts afresh on
    /// every line; `entry` reads the whole entry, braces included.
    comment: Reading,
    entry: Reading,
    brace: bool,
    colon: bool,
    /// One reading per field list, from its first byte.
    readings: Vec<Reading>,
    /// Whether some reading waits to skip an escaped byte.
    escaped: bool,
    /// The end of the last content byte, and of the last one that is not
    /// a `]` or `}`; the positions of those closers read since.
    last: usize,
    plain_end: usize,
    closers: Vec<usize>,
    /// `(content end, next line's start)` at each line break inside the
    /// entry, where the text reads as one space.
    joins: Vec<(usize, usize)>,
    /// Whether the next content byte starts a class, key or value.
    pending: bool,
    entry_line: usize,
    /// The start of the name or class being read.
    part: usize,
    /// The head's error, and whether a missing `}` is reported first.
    head_error: Option<(DataError, bool)>,
    name: &'a str,
    classes: Vec<ClassId>,
    any_class: bool,
    oid: Option<Oid>,
    fanout: u64,
    /// The entry's attribute values, one per attribute.
    values: Vec<(Sym, Value)>,
    /// The top-level keys the entry has read.
    keys_read: usize,
    first_deferred: usize,
    levels: Vec<Level>,
    /// The lowered fields and the keys of the open records.
    fields: Vec<(Sym, Value)>,
    keys: Vec<Cow<'a, str>>,
    /// The value of a deferred one read again.
    reread: Option<Option<Value>>,
}

/// The loader's state while the cursor walks the entries. Syntax errors
/// end the load; the first name-resolution error of each kind is kept,
/// and once one is kept the loader only checks syntax (and, before a
/// class error, object names and classes).
struct Loader<'a, 's> {
    schema: &'s Schema,
    store: ExtentStore,
    names: Names,
    by_name: HashMap<&'a str, Oid, FxBuildHasher>,
    /// Per position in an entry's keys, the last key read there as it
    /// stands in the source, and its symbol.
    key_slots: Vec<Option<(&'a str, Sym)>>,
    deferred: Vec<Deferred>,
    /// The first duplicate-object or unknown-class error.
    class_error: Option<DataError>,
    /// The first unknown-attribute or unknown-object error.
    attr_error: Option<DataError>,
    /// Set when lowering stops at an `@ref` to a name not defined yet.
    forward: bool,
    /// Set once every entry is read: an unknown `@ref` is then an error.
    all_defined: bool,
    /// Extents joined by the objects created so far: the load's
    /// `extent.add_fanout`.
    fanout: u64,
    cur: Cursor<'a>,
}

impl<'a> Loader<'a, '_> {
    fn read(&mut self) -> Result<(), DataError> {
        while self.next_entry() {
            self.scan()?;
        }
        Ok(())
    }

    /// Skips blank and comment lines, and starts the next entry at its
    /// first content byte; `false` at the end of the file.
    fn next_entry(&mut self) -> bool {
        let c = &mut self.cur;
        let bytes = c.src.as_bytes();
        loop {
            let rest = &c.src[c.pos..];
            c.pos += rest.len()
                - rest
                    .trim_start_matches(|ch: char| ch != '\n' && ch.is_whitespace())
                    .len();
            match bytes.get(c.pos) {
                None => return false,
                Some(b'\n') => c.next_line(),
                Some(b'-') if bytes.get(c.pos + 1) == Some(&b'-') => c.skip_comment(bytes),
                Some(_) => break,
            }
        }
        (c.phase, c.entry_line, c.part) = (Phase::Name, c.line, c.pos);
        (c.last, c.plain_end, c.escaped) = (c.pos, c.pos, false);
        (c.entry, c.brace, c.colon) = (Reading::default(), false, false);
        (c.head_error, c.any_class, c.oid, c.fanout) = (None, false, None, 0);
        c.closers.clear();
        c.joins.clear();
        c.classes.clear();
        c.values.clear();
        c.keys_read = 0;
        c.first_deferred = self.deferred.len();
        true
    }

    /// Reads to the end of the current entry, or deferred value.
    fn scan(&mut self) -> Result<(), DataError> {
        let bytes = self.cur.src.as_bytes();
        loop {
            let c = &mut self.cur;
            if !c.escaped {
                // Blanks and plain content change no reading.
                let mut p = c.pos;
                while p < c.end && class(bytes[p]) == BLANK {
                    p += 1;
                }
                if p < c.end && class(bytes[p]) == PLAIN {
                    if c.pending {
                        c.mark(p);
                    }
                    p += 1;
                    let mut last = p;
                    while p < c.end {
                        match class(bytes[p]) {
                            PLAIN => (p, last) = (p + 1, p + 1),
                            BLANK => p += 1,
                            _ => break,
                        }
                    }
                    (c.last, c.plain_end) = (last, last);
                    c.closers.clear();
                }
                c.pos = p;
            }
            if c.pos == c.end {
                return self.end_of_text();
            }
            let b = bytes[c.pos];
            if b == b'\n' {
                if self.line_end()? {
                    return Ok(());
                }
                continue;
            }
            if b == b'-'
                && bytes.get(c.pos + 1) == Some(&b'-')
                && !c.comment.in_str
                && !c.comment.esc
            {
                c.skip_comment(bytes);
                continue;
            }
            let (width, blank) = match b {
                0x80.. => {
                    let ch = c.src[c.pos..]
                        .chars()
                        .next()
                        .expect("the cursor is on a char");
                    (ch.len_utf8(), ch.is_whitespace())
                }
                _ => (1, class(b) == BLANK),
            };
            if blank {
                if c.escaped {
                    c.feed(b' ');
                }
                c.pos += width;
                continue;
            }
            if c.pending {
                c.mark(c.pos);
            }
            // Only quotes, escapes and brackets move a reading, and any
            // byte lets a pending escape go.
            if c.escaped || matches!(b, b'"' | b'\\' | b'[' | b']' | b'{' | b'}') {
                c.feed(if b >= 0x80 { b'a' } else { b });
            }
            c.brace |= b == b'{';
            c.colon |= b == b':';
            let phase = c.phase;
            let levels = matches!(phase, Phase::Body | Phase::Value);
            match b {
                b':' if phase == Phase::Name => self.name_end(),
                b',' if phase == Phase::Classes => self.class_end(),
                b'{' if phase == Phase::Classes => self.body_start(),
                b',' | b';' if levels => self.separator(),
                b'=' if levels => self.key_end(),
                b'[' if levels => self.open_record(),
                _ => {}
            }
            let c = &mut self.cur;
            if b == b']' || b == b'}' {
                c.closers.push(c.pos);
            } else {
                c.closers.clear();
                c.plain_end = c.pos + width;
            }
            c.pos += width;
            c.last = c.pos;
        }
    }

    /// At a line break: ends the entry if it is whole (returning `true`),
    /// else reads the break as one space.
    fn line_end(&mut self) -> Result<bool, DataError> {
        let c = &mut self.cur;
        if c.phase != Phase::Value && c.closed() {
            c.next_line();
            self.end_entry()?;
            return Ok(true);
        }
        let end = if c.last > c.line_start {
            c.last
        } else {
            c.line_start
        };
        c.joins.push((end, c.pos + 1));
        c.feed(b' ');
        c.next_line();
        Ok(false)
    }

    fn end_of_text(&mut self) -> Result<(), DataError> {
        if self.cur.phase == Phase::Value {
            self.terminate(0, 0);
            return Ok(());
        }
        if self.cur.closed() {
            return self.end_entry();
        }
        self.fanout -= self.cur.fanout;
        Err(self.cur.syntax("unterminated `{`"))
    }

    /// The text of `src[a..b]` as the entry reads it: each line break
    /// inside, with the blanks and comment around it, is one space.
    fn text(&self, a: usize, b: usize) -> Cow<'a, str> {
        let src = self.cur.src;
        if b <= a {
            return Cow::Borrowed("");
        }
        let inside = |&(e, s): &(usize, usize)| e > a && s < b;
        if !self.cur.joins.iter().any(inside) {
            return Cow::Borrowed(&src[a..b]);
        }
        let (mut out, mut p) = (String::new(), a);
        for &(e, s) in self.cur.joins.iter().filter(|j| inside(j)) {
            out.push_str(&src[p..e]);
            out.push(' ');
            // The next line's content starts after its blanks, if it has any.
            let rest = src[s..].trim_start_matches(|c: char| c != '\n' && c.is_whitespace());
            let empty = rest.is_empty() || rest.starts_with('\n') || rest.starts_with("--");
            p = if empty { s } else { src.len() - rest.len() };
        }
        out.push_str(&src[p..b]);
        Cow::Owned(out)
    }

    /// At the name's `:`: checks the name and whether it is taken.
    fn name_end(&mut self) {
        let c = &mut self.cur;
        let name = &c.src[c.part..c.last.max(c.part)];
        // A line break inside reads as a space, which no name holds.
        if name.is_empty() || !name.chars().all(|ch| ch.is_alphanumeric() || ch == '_') {
            let e = c.syntax("object names are alphanumeric/underscore");
            c.skip(e, false);
            return;
        }
        c.name = name;
        if self.class_error.is_none() && self.by_name.contains_key(name) {
            self.class_error = Some(DataError::DuplicateObject(name.to_string()));
        }
        c.phase = Phase::Classes;
        c.pending = true;
    }

    /// At a `,` or `{` after a class, or at the end of a head with no
    /// body: looks the class up.
    fn class_end(&mut self) {
        let name = match self.cur.pending {
            true => Cow::Borrowed(""),
            false => self.text(self.cur.part, self.cur.last),
        };
        self.cur.pending = true;
        if name.is_empty() {
            return;
        }
        self.cur.any_class = true;
        if self.class_error.is_none() {
            match self.schema.class_by_name(&name) {
                Some(c) => self.cur.classes.push(c),
                None => self.class_error = Some(DataError::UnknownClass(name.into_owned())),
            }
        }
    }

    /// At the `{` that opens the body.
    fn body_start(&mut self) {
        self.class_end();
        let c = &mut self.cur;
        if !c.any_class {
            let e = c.syntax("expected at least one class");
            c.skip(e, true);
            return;
        }
        self.create();
        let c = &mut self.cur;
        c.phase = Phase::Body;
        c.readings.clear();
        c.readings.push(Reading::default());
        c.levels.clear();
        c.levels.push(Level::default());
    }

    fn create(&mut self) {
        if self.class_error.is_some() {
            return;
        }
        let c = &mut self.cur;
        let (oid, fanout) = self.store.create_counted(self.schema, &c.classes);
        (c.fanout, c.oid) = (fanout, Some(oid));
        self.fanout += fanout;
        self.by_name.insert(c.name, oid);
        self.names.push(c.name, oid);
    }

    /// At a `,` or `;`: ends the field of the outermost level it
    /// separates, and the records inside that field.
    fn separator(&mut self) {
        let c = &mut self.cur;
        let root = c.phase == Phase::Value;
        let at = c.levels.iter().enumerate().position(|(k, l)| {
            let r = c.readings[l.reading];
            r.depth == l.base && !(l.too_deep || r.in_str || (root && k == 0))
        });
        if let Some(j) = at {
            self.terminate(j, 0);
            self.cur.pending = true;
        }
    }

    /// At an `=`: ends the current field's key, unless it has one.
    fn key_end(&mut self) {
        let k = self.cur.levels.len() - 1;
        let level = &self.cur.levels[k];
        if level.too_deep || level.field.eq {
            return;
        }
        let key = self.text(level.field.start.unwrap_or(usize::MAX), self.cur.last);
        let attr = if k == 0 {
            self.forward = false;
            let at = self.cur.keys_read;
            self.cur.keys_read += 1;
            match self.cur.oid {
                Some(_) if self.lowering() => self.key_symbol(at, key),
                _ => None,
            }
        } else if self.cur.keys[level.keys..].contains(&key) {
            let e = self
                .cur
                .syntax(format!("field `{key}` given twice in record"));
            self.cur.fail(k, e);
            None
        } else {
            let sym = if level.lower { self.symbol(&key) } else { None };
            self.cur.keys.push(key);
            sym
        };
        let c = &mut self.cur;
        let field = &mut c.levels[k].field;
        (field.eq, field.attr, c.pending) = (true, attr, true);
    }

    /// At a `[`: opens a record if it starts the current field's value.
    fn open_record(&mut self) {
        let c = &mut self.cur;
        let parent = c.levels.last().expect("a body has a level");
        if parent.too_deep || parent.field.value != Some(c.pos) {
            return;
        }
        let (mut reading, own) = (parent.reading, c.readings[parent.reading].in_str);
        if own {
            c.readings.push(Reading::default());
            reading = c.readings.len() - 1;
        }
        let level = Level {
            reading,
            own,
            base: c.readings[reading].depth,
            too_deep: c.levels.len() > MAX_RECORD_DEPTH,
            lower: parent.field.attr.is_some(),
            fields: c.fields.len(),
            keys: c.keys.len(),
            ..Level::default()
        };
        c.pending = !level.too_deep;
        c.levels.push(level);
    }

    /// Ends the current field of level `j` and every record inside it:
    /// level `j + 1 + i` must end with the `(first + i)`th closer from
    /// the end of the text read so far, and level `j`'s field ends before
    /// the `first`th.
    fn terminate(&mut self, j: usize, first: usize) {
        let mut inner = None;
        while self.cur.levels.len() > j + 1 {
            let k = self.cur.levels.len() - 1;
            let n = first + (k - j - 1);
            let value = if self.cur.closer(n) != Some(b']') {
                Err(self.cur.syntax("unterminated `[`"))
            } else if self.cur.levels[k].too_deep {
                let what = format!("record value nested deeper than {MAX_RECORD_DEPTH} levels");
                Err(self.cur.syntax(what))
            } else {
                self.end_field(k, self.cur.end_before(n + 1), inner.take());
                let c = &mut self.cur;
                let level = &mut c.levels[k];
                match level.err.take() {
                    Some(e) => Err(e),
                    None if level.lower => Ok(Some(Value::record(
                        c.fields.drain(level.fields..).collect(),
                    ))),
                    None => Ok(None),
                }
            };
            let c = &mut self.cur;
            let level = c.levels.pop().expect("k is a level");
            if level.own {
                c.readings.pop();
            }
            c.fields.truncate(level.fields);
            c.keys.truncate(level.keys);
            inner = Some(value);
        }
        self.end_field(j, self.cur.end_before(first), inner);
    }

    /// Ends level `k`'s current field at `end`; `inner` is its value when
    /// that is a record.
    fn end_field(&mut self, k: usize, end: usize, inner: Option<Result<Option<Value>, DataError>>) {
        let field = std::mem::take(&mut self.cur.levels[k].field);
        if !field.eq {
            if field.start.is_some_and(|start| end > start) {
                let e = self.cur.syntax(match k {
                    0 => "expected `attr = value`",
                    _ => "expected `field = value` in record",
                });
                self.cur.fail(k, e);
            }
            return;
        }
        let start = field.value.unwrap_or(end);
        let lowered = match inner {
            Some(v) => v,
            None => {
                let text = self.text(start, end);
                self.scalar(&text, field.attr.is_some())
            }
        };
        match lowered {
            Err(e) => self.cur.fail(k, e),
            Ok(v) if self.cur.phase == Phase::Value && k == 0 => self.cur.reread = Some(v),
            Ok(v) if k == 0 => self.attribute(field.attr, v, (start, end), field.comment),
            Ok(Some(v)) => self
                .cur
                .fields
                .push((field.attr.expect("lowered under a symbol"), v)),
            Ok(None) => self.cur.levels[k].lower = false,
        }
    }

    /// Stores a top-level attribute value, or defers it while it waits on
    /// a forward reference.
    fn attribute(
        &mut self,
        attr: Option<Sym>,
        v: Option<Value>,
        span: (usize, usize),
        comment: Reading,
    ) {
        let c = &mut self.cur;
        let (Some(oid), Some(attr)) = (c.oid, attr) else {
            return;
        };
        // A later value for an attribute that already waits on a forward
        // reference must land after it: it waits too.
        let waiting = self.deferred[c.first_deferred..]
            .iter()
            .any(|d| d.attr == attr);
        match v {
            Some(v) if !waiting => match c.values.iter_mut().find(|(a, _)| *a == attr) {
                Some(slot) => slot.1 = v,
                None => c.values.push((attr, v)),
            },
            None if !self.forward => {}
            _ => self.deferred.push(Deferred {
                line: c.entry_line,
                oid,
                attr,
                span,
                comment,
            }),
        }
    }

    /// At the end of an entry: reports its first syntax error, or stores
    /// its values.
    fn end_entry(&mut self) -> Result<(), DataError> {
        let c = &mut self.cur;
        let closing = c.closer(0) == Some(b'}');
        match std::mem::take(&mut c.phase) {
            Phase::Name => Err(c.syntax("expected `name : Class { … }`")),
            Phase::Skip => match c.head_error.take().expect("skipping past an error") {
                (_, true) if !closing => Err(c.syntax("expected closing `}`")),
                (e, _) => Err(e),
            },
            Phase::Classes => {
                self.class_end();
                if !self.cur.any_class {
                    return Err(self.cur.syntax("expected at least one class"));
                }
                self.create();
                Ok(())
            }
            _ if !closing => {
                self.fanout -= c.fanout;
                Err(c.syntax("expected closing `}`"))
            }
            _ => {
                self.terminate(0, 1);
                let c = &mut self.cur;
                if let Some(e) = c.levels[0].err.take() {
                    return Err(e);
                }
                if let Some(oid) = c.oid {
                    // A value waiting on a forward reference gets its slot
                    // now, so reading it again fills the slot in place.
                    for d in &self.deferred[c.first_deferred..] {
                        if !c.values.iter().any(|(a, _)| *a == d.attr) {
                            c.values.push((d.attr, Value::Absent));
                        }
                    }
                    self.store.set_attrs(oid, &mut c.values);
                }
                Ok(())
            }
        }
    }

    /// Reports the first kept error, or stores the deferred values.
    fn finish(mut self) -> Result<LoadedData, DataError> {
        if let Some(e) = self.class_error {
            return Err(e);
        }
        // Every object exists now, so a reference that still fails to
        // resolve is an error. Deferred values all precede the first
        // attribute error, which is reported only if none of them fails.
        let first_attr_error = self.attr_error.take();
        self.all_defined = true;
        for d in std::mem::take(&mut self.deferred) {
            match self.read_again(&d)? {
                Some(v) => self.store.set_attr(d.oid, d.attr, v),
                None => {
                    return Err(self
                        .attr_error
                        .take()
                        .expect("lowering stopped on an error"))
                }
            }
        }
        match first_attr_error {
            Some(e) => Err(e),
            None => Ok(LoadedData {
                store: self.store,
                names: self.names,
            }),
        }
    }

    /// Reads a deferred value again, lowering it.
    fn read_again(&mut self, d: &Deferred) -> Result<Option<Value>, DataError> {
        let c = &mut self.cur;
        let (start, end) = d.span;
        (c.pos, c.end, c.line_start, c.last, c.plain_end) = (start, end, start, start, start);
        (c.phase, c.entry_line, c.comment, c.escaped) = (Phase::Value, d.line, d.comment, false);
        c.closers.clear();
        c.joins.clear();
        c.readings = vec![Reading::default()];
        let field = Field {
            eq: true,
            attr: Some(d.attr),
            ..Field::default()
        };
        c.levels = vec![Level {
            field,
            ..Level::default()
        }];
        c.pending = true;
        self.scan()?;
        match self.cur.levels[0].err.take() {
            Some(e) => Err(e),
            None => Ok(self.cur.reread.take().flatten()),
        }
    }

    /// Whether values are still lowered: no name-resolution error yet.
    fn lowering(&self) -> bool {
        self.class_error.is_none() && self.attr_error.is_none()
    }

    /// Resolves an entry's `at`th top-level key. A key as it stands in
    /// the source is first compared with the last one read at that
    /// position, so entries of one shape probe the interner once per
    /// key, not once per entry; a key joined across a line break is
    /// always probed.
    fn key_symbol(&mut self, at: usize, key: Cow<'a, str>) -> Option<Sym> {
        let Cow::Borrowed(key) = key else {
            return self.symbol(&key);
        };
        match self.key_slots.get(at) {
            Some(&Some((seen, sym))) if seen == key => return Some(sym),
            Some(_) => {}
            None => self.key_slots.resize(at + 1, None),
        }
        let sym = self.symbol(key)?;
        self.key_slots[at] = Some((key, sym));
        Some(sym)
    }

    fn symbol(&mut self, name: &str) -> Option<Sym> {
        let sym = self.schema.sym(name);
        if sym.is_none() {
            self.attr_error = Some(DataError::UnknownAttr(name.to_string()));
        }
        sym
    }

    /// Checks the syntax of a value that is not a record and, when
    /// `lower`, lowers it. `None` when not lowering or when lowering
    /// stopped: at a name-resolution error (kept in `attr_error`) or at a
    /// forward reference (`forward`).
    fn scalar(&mut self, text: &str, lower: bool) -> Result<Option<Value>, DataError> {
        if let Some(rest) = text.strip_prefix('@') {
            if !lower {
                return Ok(None);
            }
            let name = rest.trim();
            if let Some(&oid) = self.by_name.get(name) {
                return Ok(Some(Value::Obj(oid)));
            }
            if self.all_defined {
                self.attr_error = Some(DataError::UnknownObject(name.to_string()));
            } else {
                self.forward = true;
            }
            return Ok(None);
        }
        if let Some(rest) = text.strip_prefix('\'') {
            return Ok(if lower {
                self.symbol(rest.trim()).map(Value::Tok)
            } else {
                None
            });
        }
        if text.starts_with('"') {
            let inner = text
                .strip_prefix('"')
                .and_then(|t| t.strip_suffix('"'))
                .ok_or_else(|| self.cur.syntax(format!("unterminated string `{text}`")))?;
            let s = unescape(inner).map_err(|what| self.cur.syntax(what))?;
            return Ok(lower.then(|| Value::Str(s.into())));
        }
        let i = text
            .parse::<i64>()
            .map_err(|_| self.cur.syntax(format!("cannot parse value `{text}`")))?;
        Ok(lower.then_some(Value::Int(i)))
    }
}

impl Cursor<'_> {
    fn next_line(&mut self) {
        (self.pos, self.line) = (self.pos + 1, self.line + 1);
        (self.line_start, self.comment) = (self.pos, Reading::default());
    }

    /// From a `--`, skips to the line break.
    fn skip_comment(&mut self, bytes: &[u8]) {
        let rest = &bytes[self.pos..self.end];
        self.pos += rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
    }

    /// Feeds a byte to every reading.
    fn feed(&mut self, b: u8) {
        self.comment.feed(b, false);
        self.entry.feed(b, true);
        for r in &mut self.readings {
            r.feed(b, false);
        }
        self.escaped = b == b'\\'
            && (self.comment.esc || self.entry.esc || self.readings.iter().any(|r| r.esc));
    }

    /// Notes `pos` as the first content byte of a class, key or value.
    fn mark(&mut self, pos: usize) {
        self.pending = false;
        if self.phase == Phase::Classes {
            self.part = pos;
        } else if let Some(level) = self.levels.last_mut() {
            let field = &mut level.field;
            if field.eq {
                (field.value, field.comment) = (Some(pos), self.comment);
            } else {
                field.start = Some(pos);
            }
        }
    }

    /// Whether the entry read so far is whole: no bracket open, and a `{`
    /// read, or no `:`, or a `}` last. (A line with no content can be
    /// taken as ending in the last one's byte: that line was not whole.)
    fn closed(&self) -> bool {
        self.entry.depth == 0
            && (self.brace || !self.colon || self.src.as_bytes()[self.last - 1] == b'}')
    }

    fn syntax(&self, what: impl Into<String>) -> DataError {
        DataError::Syntax {
            line: self.entry_line,
            what: what.into(),
        }
    }

    /// Reads the rest of the entry only for its end; `e` is its error,
    /// after a missing closing `}` when `brace_first`.
    fn skip(&mut self, e: DataError, brace_first: bool) {
        (self.head_error, self.phase, self.pending) = (Some((e, brace_first)), Phase::Skip, false);
    }

    fn fail(&mut self, k: usize, e: DataError) {
        self.levels[k].err.get_or_insert(e);
    }

    /// Where the text read so far ends once its last `n` closers are
    /// taken off.
    fn end_before(&self, n: usize) -> usize {
        match self.closers.len().checked_sub(n + 1) {
            Some(i) => self.closers[i] + 1,
            None => self.plain_end,
        }
    }

    /// The `n`th closer from the end of the text read so far.
    fn closer(&self, n: usize) -> Option<u8> {
        let i = self.closers.len().checked_sub(n + 1)?;
        Some(self.src.as_bytes()[self.closers[i]])
    }
}

/// The text of a string literal with its escapes resolved; borrowed
/// when it has none.
fn unescape(inner: &str) -> Result<Cow<'_, str>, String> {
    if !inner.contains('\\') {
        return Ok(Cow::Borrowed(inner));
    }
    let mut s = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('"') => s.push('"'),
                Some('\\') => s.push('\\'),
                Some('n') => s.push('\n'),
                other => return Err(format!("bad escape `\\{other:?}`")),
            }
        } else {
            s.push(c);
        }
    }
    Ok(Cow::Owned(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_core::{MissingPolicy, Semantics, ValidationOptions};
    use chc_sdl::compile;

    fn schema() -> Schema {
        compile(
            "
            class Person with name: String; age: 1..120;
            class Physician is-a Person;
            class Psychologist is-a Person;
            class Patient is-a Person with treatedBy: Physician;
            class Alcoholic is-a Patient with
                treatedBy: Psychologist excuses treatedBy on Patient;
            ",
        )
        .unwrap()
    }

    const DATA: &str = r#"
        -- staff
        greg : Physician { name = "Greg", age = 52 }
        paul : Psychologist { name = "Paul", age = 44 }

        pat1 : Patient {
            name = "Ann",
            age  = 30,
            treatedBy = @greg
        }
        pat2 : Alcoholic { name = "Bob", age = 41, treatedBy = @paul }
    "#;

    #[test]
    fn loads_and_validates() {
        let s = schema();
        let data = load_data(&s, DATA).unwrap();
        assert_eq!(data.names.len(), 4);
        let opts = ValidationOptions {
            semantics: Semantics::Correct,
            missing: MissingPolicy::Absent,
        };
        for (name, oid) in &data.names {
            let v = crate::validate::validate_stored(&s, &data.store, opts, *oid);
            assert!(v.is_empty(), "{name}: {v:?}");
        }
        // Memberships are right.
        let alcoholic = s.class_by_name("Alcoholic").unwrap();
        let patient = s.class_by_name("Patient").unwrap();
        let bob = data.oid("pat2").unwrap();
        assert!(data.store.is_member(bob, alcoholic));
        assert!(data.store.is_member(bob, patient));
    }

    #[test]
    fn forward_references_resolve() {
        let s = schema();
        let data = load_data(
            &s,
            r#"
            pat : Patient { name = "X", age = 5, treatedBy = @doc }
            doc : Physician { name = "D", age = 50 }
            "#,
        )
        .unwrap();
        let pat = data.oid("pat").unwrap();
        let doc = data.oid("doc").unwrap();
        let treated_by = s.sym("treatedBy").unwrap();
        assert_eq!(data.store.get_attr(pat, treated_by), Some(&Value::Obj(doc)));
    }

    #[test]
    fn invalid_instances_are_caught_downstream() {
        // The loader loads; the validator judges: a plain patient treated
        // by a psychologist is invalid under the final semantics.
        let s = schema();
        let data = load_data(
            &s,
            r#"
            paul : Psychologist { name = "Paul", age = 44 }
            pat  : Patient { name = "Ann", age = 30, treatedBy = @paul }
            "#,
        )
        .unwrap();
        let opts = ValidationOptions {
            semantics: Semantics::Correct,
            missing: MissingPolicy::Absent,
        };
        let pat = data.oid("pat").unwrap();
        let v = crate::validate::validate_stored(&s, &data.store, opts, pat);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn record_values_and_tokens() {
        let s =
            compile("class T with home: [street: String; zip: 1..99999]; mood: {'Happy, 'Sad};")
                .unwrap();
        let data = load_data(
            &s,
            r#"t1 : T { home = [street = "Main \"St\"", zip = 123], mood = 'Happy }"#,
        )
        .unwrap();
        let t1 = data.oid("t1").unwrap();
        let home = s.sym("home").unwrap();
        let street = s.sym("street").unwrap();
        let v = data.store.get_attr(t1, home).unwrap();
        assert_eq!(v.field(street), Some(&Value::str("Main \"St\"")));
    }

    #[test]
    fn errors_are_informative() {
        let s = schema();
        assert!(matches!(
            load_data(&s, "x : Nobody {}"),
            Err(DataError::UnknownClass(_))
        ));
        assert!(matches!(
            load_data(&s, "x : Patient { bogus = 1 }"),
            Err(DataError::UnknownAttr(_))
        ));
        assert!(matches!(
            load_data(&s, "x : Patient { treatedBy = @ghost }"),
            Err(DataError::UnknownObject(_))
        ));
        assert!(matches!(
            load_data(&s, "x : Patient {}\nx : Patient {}"),
            Err(DataError::DuplicateObject(_))
        ));
        assert!(matches!(
            load_data(&s, "x : Patient { name = }"),
            Err(DataError::Syntax { .. })
        ));
        assert!(matches!(
            load_data(&s, "x : Patient { name = \"unclosed"),
            Err(DataError::Syntax { .. })
        ));
    }

    #[test]
    fn capacity_bounds_count_and_cap() {
        let src = "a : A { x = 1, y = 2 }\nb : A {}\n";
        assert_eq!(capacity_bounds(src.as_bytes()), (3, 2));
        // `=` and line breaks inside a string count, but never past one
        // entry per six bytes and one value per four.
        let dense = format!("a : A {{ s = \"{}\" }}", "=".repeat(4000));
        let (entries, values) = capacity_bounds(dense.as_bytes());
        assert_eq!((entries, values), (1, dense.len() / 4));
        let breaks = "\n".repeat(6000);
        assert_eq!(capacity_bounds(breaks.as_bytes()), (1000, 0));
        assert_eq!(capacity_bounds(b""), (0, 0));
        assert_eq!(capacity_bounds(b"a:A{}"), (1, 0));
        assert_eq!(capacity_bounds(b"a:A{}\nb:A{x=1}"), (2, 1));
    }

    #[test]
    fn names_keep_definition_order() {
        let s = compile("class A;").unwrap();
        let data = load_data(&s, "zed : A {}\n\u{e9}t\u{e9} : A {}\nb : A {}").unwrap();
        let names: Vec<(&str, Oid)> = data.names.iter().map(|(n, o)| (n, *o)).collect();
        let want: Vec<(&str, Oid)> = ["zed", "\u{e9}t\u{e9}", "b"]
            .into_iter()
            .zip((0..).map(Oid::from_raw))
            .collect();
        assert_eq!(names, want);
        assert_eq!(data.names.iter().len(), 3);
        assert_eq!(data.oid("b"), Some(Oid::from_raw(2)));
    }

    #[test]
    fn multiple_memberships() {
        let s = compile("class A; class B;").unwrap();
        let data = load_data(&s, "x : A, B {}").unwrap();
        let x = data.oid("x").unwrap();
        assert!(data.store.is_member(x, s.class_by_name("A").unwrap()));
        assert!(data.store.is_member(x, s.class_by_name("B").unwrap()));
    }
}
