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
//! given twice in one entry keeps its last value.
//!
//! Errors are reported in a fixed order: the first syntax error in file
//! order, else the first duplicate-object or unknown-class error, else the
//! first unknown-attribute or unknown-object error.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use chc_model::{ClassId, Oid, Schema, Sym, Value};

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
    pub names: Vec<(String, Oid)>,
}

impl LoadedData {
    /// Looks up an object by its data-file name.
    pub fn oid(&self, name: &str) -> Option<Oid> {
        self.names.iter().find(|(n, _)| n == name).map(|(_, o)| *o)
    }
}

/// Parses and loads a data file against `schema` in one pass over its
/// entries: each object is created and its values stored as its entry is
/// read. A value holding an `@ref` to an object defined further down is
/// lowered again once every object exists.
pub fn load_data(schema: &Schema, src: &str) -> Result<LoadedData, DataError> {
    let _span = chc_obs::span(chc_obs::names::SPAN_EXTENT_LOAD);
    let _mem = chc_obs::memalloc::span_mem(
        chc_obs::names::MEM_EXTENT_LOAD_BYTES,
        chc_obs::names::MEM_EXTENT_LOAD_PEAK,
    );
    let (entries, unterminated) = entry_texts(src);
    let mut loader = Loader {
        schema,
        store: ExtentStore::new(schema),
        names: Vec::with_capacity(entries.len()),
        by_name: HashMap::with_capacity(entries.len()),
        classes: Vec::new(),
        values: Vec::new(),
        deferred: Vec::new(),
        class_error: None,
        attr_error: None,
        forward: false,
        all_defined: false,
    };
    for (line, text) in &entries {
        loader.entry(*line, text)?;
    }
    if let Some(e) = unterminated {
        return Err(e);
    }
    loader.finish()
}

/// Splits `src` into entries, each with its 1-based first line. An entry
/// is one line, or, while a bracket is open or a `name : Class` head has
/// no `{ … }` yet, that line and the following ones joined by spaces;
/// only a joined entry owns its text. The error is an entry left open
/// at the end of the file.
fn entry_texts(src: &str) -> (Vec<(usize, Cow<'_, str>)>, Option<DataError>) {
    let mut out = Vec::new();
    let mut lines = src.lines().enumerate();
    while let Some((lineno, line)) = lines.next() {
        let first = strip_comment(line).trim();
        if first.is_empty() {
            continue;
        }
        let mut scan = Balance::default();
        scan.feed(first);
        if scan.closed(first) {
            out.push((lineno + 1, Cow::Borrowed(first)));
            continue;
        }
        let mut text = first.to_string();
        while !scan.closed(&text) {
            let Some((_, more)) = lines.next() else {
                let e = DataError::Syntax {
                    line: lineno + 1,
                    what: "unterminated `{`".to_string(),
                };
                return (out, Some(e));
            };
            let more = strip_comment(more).trim();
            text.push(' ');
            text.push_str(more);
            scan.feed(" ");
            scan.feed(more);
        }
        out.push((lineno + 1, Cow::Owned(text)));
    }
    (out, None)
}

fn strip_comment(line: &str) -> &str {
    // `--` starts a comment unless inside a string literal.
    let mut in_str = false;
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => in_str = !in_str,
            b'\\' if in_str => i += 1,
            b'-' if !in_str && bytes.get(i + 1) == Some(&b'-') => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

/// Bracket balance of an entry's text, fed a piece at a time so a
/// multi-line entry is scanned once.
#[derive(Default)]
struct Balance {
    depth: i32,
    in_str: bool,
    escaped: bool,
    brace: bool,
    colon: bool,
}

impl Balance {
    fn feed(&mut self, piece: &str) {
        for &b in piece.as_bytes() {
            self.brace |= b == b'{';
            self.colon |= b == b':';
            if std::mem::take(&mut self.escaped) {
                continue;
            }
            match b {
                b'"' => self.in_str = !self.in_str,
                b'\\' if self.in_str => self.escaped = true,
                b'{' | b'[' if !self.in_str => self.depth += 1,
                b'}' | b']' if !self.in_str => self.depth -= 1,
                _ => {}
            }
        }
    }

    /// Whether the text fed so far, `text`, is a whole entry.
    fn closed(&self, text: &str) -> bool {
        self.depth == 0 && (self.brace || !self.colon || text.ends_with('}'))
    }
}

/// Splits on `,`/`;` at nesting depth zero, respecting strings.
fn split_top_level(body: &str) -> impl Iterator<Item = &str> {
    let bytes = body.as_bytes();
    let (mut start, mut i, mut depth, mut in_str) = (0, 0, 0i32, false);
    std::iter::from_fn(move || {
        if start > bytes.len() {
            return None;
        }
        while i < bytes.len() {
            match bytes[i] {
                b'"' => in_str = !in_str,
                b'\\' if in_str => i += 1,
                b'[' if !in_str => depth += 1,
                b']' if !in_str => depth -= 1,
                b',' | b';' if !in_str && depth == 0 => {
                    let piece = &body[start..i];
                    i += 1;
                    start = i;
                    return Some(piece);
                }
                _ => {}
            }
            i += 1;
        }
        let piece = &body[start..];
        start = bytes.len() + 1;
        Some(piece)
    })
}

/// A top-level attribute value that refers forward; it is lowered again
/// once every object exists.
struct Deferred<'a> {
    line: usize,
    oid: Oid,
    attr: Sym,
    text: &'a str,
}

/// The loader's state while it walks the entries. Syntax errors return at
/// once; the first name-resolution error of each kind is kept, and once
/// one is kept the loader only checks syntax (and, before a class error,
/// object names and classes).
struct Loader<'a, 's> {
    schema: &'s Schema,
    store: ExtentStore,
    names: Vec<(String, Oid)>,
    by_name: HashMap<&'a str, Oid>,
    /// The current entry's classes.
    classes: Vec<ClassId>,
    /// The current entry's attribute values, one per attribute.
    values: Vec<(Sym, Value)>,
    deferred: Vec<Deferred<'a>>,
    /// The first duplicate-object or unknown-class error.
    class_error: Option<DataError>,
    /// The first unknown-attribute or unknown-object error.
    attr_error: Option<DataError>,
    /// Set when lowering stops at an `@ref` to a name not defined yet.
    forward: bool,
    /// Set once every entry is read: an unknown `@ref` is then an error.
    all_defined: bool,
}

impl<'a> Loader<'a, '_> {
    fn entry(&mut self, line: usize, text: &'a str) -> Result<(), DataError> {
        let err = |what: &str| DataError::Syntax {
            line,
            what: what.to_string(),
        };
        let (name, rest) = text
            .split_once(':')
            .ok_or_else(|| err("expected `name : Class { … }`"))?;
        let name = name.trim();
        if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
            return Err(err("object names are alphanumeric/underscore"));
        }
        let (classes_part, body) = match rest.split_once('{') {
            Some((c, b)) => {
                let b = b
                    .trim_end()
                    .strip_suffix('}')
                    .ok_or_else(|| err("expected closing `}`"))?;
                (c, Some(b))
            }
            None => (rest, None),
        };
        if self.class_error.is_none() && self.by_name.contains_key(name) {
            self.class_error = Some(DataError::DuplicateObject(name.to_string()));
        }
        self.classes.clear();
        let mut any_class = false;
        for cname in classes_part
            .split(',')
            .map(str::trim)
            .filter(|c| !c.is_empty())
        {
            any_class = true;
            if self.class_error.is_none() {
                match self.schema.class_by_name(cname) {
                    Some(c) => self.classes.push(c),
                    None => self.class_error = Some(DataError::UnknownClass(cname.to_string())),
                }
            }
        }
        if !any_class {
            return Err(err("expected at least one class"));
        }
        let oid = if self.class_error.is_none() {
            let oid = self.store.create(self.schema, &self.classes);
            self.by_name.insert(name, oid);
            self.names.push((name.to_string(), oid));
            Some(oid)
        } else {
            None
        };
        let first_deferred = self.deferred.len();
        for field in body.into_iter().flat_map(split_top_level) {
            let field = field.trim();
            if field.is_empty() {
                continue;
            }
            let (attr, value) = field
                .split_once('=')
                .ok_or_else(|| err("expected `attr = value`"))?;
            let value = value.trim();
            let attr = match oid {
                Some(_) if self.lowering() => self.symbol(attr.trim()),
                _ => None,
            };
            self.forward = false;
            let lowered = self.value(line, value, 0, attr.is_some())?;
            let (Some(oid), Some(attr)) = (oid, attr) else {
                continue;
            };
            // A later value for an attribute that already waits on a
            // forward reference must land after it: it waits too.
            let waiting = self.deferred[first_deferred..]
                .iter()
                .any(|d| d.attr == attr);
            match lowered {
                Some(v) if !waiting => match self.values.iter_mut().find(|(a, _)| *a == attr) {
                    Some(slot) => slot.1 = v,
                    None => self.values.push((attr, v)),
                },
                None if !self.forward => {}
                _ => self.deferred.push(Deferred {
                    line,
                    oid,
                    attr,
                    text: value,
                }),
            }
        }
        if let Some(oid) = oid {
            self.store.set_attrs(oid, self.values.drain(..).collect());
        }
        Ok(())
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
            match self.value(d.line, d.text, 0, true)? {
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

    /// Whether values are still lowered: no name-resolution error yet.
    fn lowering(&self) -> bool {
        self.class_error.is_none() && self.attr_error.is_none()
    }

    fn symbol(&mut self, name: &str) -> Option<Sym> {
        let sym = self.schema.sym(name);
        if sym.is_none() {
            self.attr_error = Some(DataError::UnknownAttr(name.to_string()));
        }
        sym
    }

    /// Checks the syntax of one value and, when `lower`, lowers it. `None`
    /// when not lowering or when lowering stopped: at a name-resolution
    /// error (kept in `attr_error`) or at a forward reference (`forward`).
    fn value(
        &mut self,
        line: usize,
        text: &'a str,
        depth: usize,
        lower: bool,
    ) -> Result<Option<Value>, DataError> {
        let err = |what: String| DataError::Syntax { line, what };
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
                .ok_or_else(|| err(format!("unterminated string `{text}`")))?;
            let s = unescape(inner).map_err(err)?;
            return Ok(lower.then(|| Value::Str(s.into())));
        }
        if text.starts_with('[') {
            let inner = text
                .strip_prefix('[')
                .and_then(|t| t.strip_suffix(']'))
                .ok_or_else(|| err("unterminated `[`".to_string()))?;
            if depth == MAX_RECORD_DEPTH {
                return Err(err(format!(
                    "record value nested deeper than {MAX_RECORD_DEPTH} levels"
                )));
            }
            let mut lower = lower;
            let mut fields = Vec::new();
            let mut seen = HashSet::new();
            for part in split_top_level(inner) {
                let part = part.trim();
                if part.is_empty() {
                    continue;
                }
                let (k, v) = part
                    .split_once('=')
                    .ok_or_else(|| err("expected `field = value` in record".to_string()))?;
                let k = k.trim();
                if !seen.insert(k) {
                    return Err(err(format!("field `{k}` given twice in record")));
                }
                let sym = if lower { self.symbol(k) } else { None };
                match (sym, self.value(line, v.trim(), depth + 1, sym.is_some())?) {
                    (Some(sym), Some(v)) => fields.push((sym, v)),
                    _ => lower = false,
                }
            }
            return Ok(lower.then(|| Value::record(fields)));
        }
        let i = text
            .parse::<i64>()
            .map_err(|_| err(format!("cannot parse value `{text}`")))?;
        Ok(lower.then_some(Value::Int(i)))
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
        let s = compile(
            "class T with home: [street: String; zip: 1..99999]; mood: {'Happy, 'Sad};",
        )
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
    fn multiple_memberships() {
        let s = compile("class A; class B;").unwrap();
        let data = load_data(&s, "x : A, B {}").unwrap();
        let x = data.oid("x").unwrap();
        assert!(data.store.is_member(x, s.class_by_name("A").unwrap()));
        assert!(data.store.is_member(x, s.class_by_name("B").unwrap()));
    }
}
