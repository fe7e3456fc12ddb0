//! Differential test of the `.chd` loader against a reference: the
//! two-pass loader `load_data` replaced, which built an owned entry for
//! every object before storing any. The reference lives only here.
//!
//! Inputs are seeded SplitMix64 data files (forward references, multi-line
//! entries, a `{` on the line after its head, comments inside and outside
//! strings, escapes and brackets inside strings, records, multi-class
//! entries, blank lines, CRLF line ends, tabs and U+00A0 around
//! separators, non-ASCII object names, and injected faults) and byte
//! edits and truncations of `examples/data/{hospital,quaker}.chd`. On success
//! the two must agree on `names`, every object's classes, every extent in
//! order and every attribute value; on failure, on the `DataError` and its
//! message. The only allowed differences are the loader's two fixes: a
//! record value naming a field twice is a syntax error (the reference
//! panicked or reported a later error), and record values nested deeper
//! than `MAX_RECORD_DEPTH` are a syntax error (the reference overflowed
//! its stack; the inputs here stay far below that depth).

use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};

use chc_extent::{load_data, DataError, LoadedData};
use chc_model::{ClassId, Oid, Schema, Sym, Value};

/// The reference loader, as it was before the one-pass loader.
mod reference {
    use super::*;

    /// What the reference stores: names, memberships and values.
    pub struct Loaded {
        pub names: Vec<(String, Oid)>,
        /// Upward-closed classes per oid.
        pub classes: Vec<BTreeSet<ClassId>>,
        pub values: HashMap<(Oid, Sym), Value>,
    }

    pub fn load_data(schema: &Schema, src: &str) -> Result<Loaded, DataError> {
        let mut out = Loaded {
            names: Vec::new(),
            classes: Vec::new(),
            values: HashMap::new(),
        };
        let mut by_name: HashMap<String, Oid> = HashMap::new();

        // Pass 1: create objects with memberships.
        let entries = parse_entries(src)?;
        for e in &entries {
            if by_name.contains_key(&e.name) {
                return Err(DataError::DuplicateObject(e.name.clone()));
            }
            let mut classes = Vec::new();
            for cname in &e.classes {
                classes.push(
                    schema
                        .class_by_name(cname)
                        .ok_or_else(|| DataError::UnknownClass(cname.clone()))?,
                );
            }
            let oid = Oid::from_raw(out.classes.len() as u64);
            out.classes.push(
                classes
                    .iter()
                    .flat_map(|&c| schema.ancestors_with_self(c))
                    .collect(),
            );
            by_name.insert(e.name.clone(), oid);
            out.names.push((e.name.clone(), oid));
        }

        // Pass 2: attributes.
        for e in &entries {
            let oid = by_name[&e.name];
            for (attr_name, raw) in &e.attrs {
                let attr = schema
                    .sym(attr_name)
                    .ok_or_else(|| DataError::UnknownAttr(attr_name.clone()))?;
                let value = lower_value(schema, &by_name, raw)?;
                out.values.insert((oid, attr), value);
            }
        }
        Ok(out)
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum RawValue {
        Int(i64),
        Str(String),
        Tok(String),
        Ref(String),
        Record(Vec<(String, RawValue)>),
    }

    fn lower_value(
        schema: &Schema,
        by_name: &HashMap<String, Oid>,
        raw: &RawValue,
    ) -> Result<Value, DataError> {
        Ok(match raw {
            RawValue::Int(i) => Value::Int(*i),
            RawValue::Str(s) => Value::str(s),
            RawValue::Tok(t) => Value::Tok(
                schema
                    .sym(t)
                    .ok_or_else(|| DataError::UnknownAttr(t.clone()))?,
            ),
            RawValue::Ref(n) => Value::Obj(
                *by_name
                    .get(n)
                    .ok_or_else(|| DataError::UnknownObject(n.clone()))?,
            ),
            RawValue::Record(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (fname, fval) in fields {
                    let sym = schema
                        .sym(fname)
                        .ok_or_else(|| DataError::UnknownAttr(fname.clone()))?;
                    out.push((sym, lower_value(schema, by_name, fval)?));
                }
                Value::record(out)
            }
        })
    }

    #[derive(Debug)]
    struct Entry {
        name: String,
        classes: Vec<String>,
        attrs: Vec<(String, RawValue)>,
    }

    fn parse_entries(src: &str) -> Result<Vec<Entry>, DataError> {
        let mut out = Vec::new();
        let mut lines = src.lines().enumerate().peekable();
        while let Some((lineno, line)) = lines.next() {
            let mut text = strip_comment(line).trim().to_string();
            if text.is_empty() {
                continue;
            }
            // An entry may span lines until its closing `}`.
            while !balanced(&text) {
                match lines.next() {
                    Some((_, more)) => {
                        text.push(' ');
                        text.push_str(strip_comment(more).trim());
                    }
                    None => {
                        return Err(DataError::Syntax {
                            line: lineno + 1,
                            what: "unterminated `{`".to_string(),
                        })
                    }
                }
            }
            out.push(parse_entry(lineno + 1, &text)?);
        }
        Ok(out)
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

    fn balanced(text: &str) -> bool {
        let mut depth = 0i32;
        let mut in_str = false;
        let bytes = text.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'"' => in_str = !in_str,
                b'\\' if in_str => i += 1,
                b'{' | b'[' if !in_str => depth += 1,
                b'}' | b']' if !in_str => depth -= 1,
                _ => {}
            }
            i += 1;
        }
        depth == 0 && (text.contains('{') || !text.contains(':') || text.ends_with('}'))
    }

    fn parse_entry(line: usize, text: &str) -> Result<Entry, DataError> {
        let err = |what: &str| DataError::Syntax {
            line,
            what: what.to_string(),
        };
        let (name, rest) = text
            .split_once(':')
            .ok_or_else(|| err("expected `name : Class { … }`"))?;
        let name = name.trim().to_string();
        if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
            return Err(err("object names are alphanumeric/underscore"));
        }
        let (classes_part, body) = match rest.split_once('{') {
            Some((c, b)) => {
                let b = b.trim_end();
                let b = b
                    .strip_suffix('}')
                    .ok_or_else(|| err("expected closing `}`"))?;
                (c, Some(b))
            }
            None => (rest, None),
        };
        let classes: Vec<String> = classes_part
            .split(',')
            .map(|c| c.trim().to_string())
            .filter(|c| !c.is_empty())
            .collect();
        if classes.is_empty() {
            return Err(err("expected at least one class"));
        }
        let mut attrs = Vec::new();
        if let Some(body) = body {
            for field in split_top_level(body) {
                let field = field.trim();
                if field.is_empty() {
                    continue;
                }
                let (attr, value) = field
                    .split_once('=')
                    .ok_or_else(|| err("expected `attr = value`"))?;
                attrs.push((attr.trim().to_string(), parse_value(line, value.trim())?));
            }
        }
        Ok(Entry {
            name,
            classes,
            attrs,
        })
    }

    /// Splits on `,`/`;` at nesting depth zero, respecting strings.
    fn split_top_level(body: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = String::new();
        let mut depth = 0i32;
        let mut in_str = false;
        let mut chars = body.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' => {
                    in_str = !in_str;
                    cur.push(c);
                }
                '\\' if in_str => {
                    cur.push(c);
                    if let Some(n) = chars.next() {
                        cur.push(n);
                    }
                }
                '[' if !in_str => {
                    depth += 1;
                    cur.push(c);
                }
                ']' if !in_str => {
                    depth -= 1;
                    cur.push(c);
                }
                ',' | ';' if !in_str && depth == 0 => {
                    out.push(std::mem::take(&mut cur));
                }
                _ => cur.push(c),
            }
        }
        if !cur.trim().is_empty() {
            out.push(cur);
        }
        out
    }

    fn parse_value(line: usize, text: &str) -> Result<RawValue, DataError> {
        let err = |what: String| DataError::Syntax { line, what };
        if let Some(rest) = text.strip_prefix('@') {
            return Ok(RawValue::Ref(rest.trim().to_string()));
        }
        if let Some(rest) = text.strip_prefix('\'') {
            return Ok(RawValue::Tok(rest.trim().to_string()));
        }
        if text.starts_with('"') {
            let inner = text
                .strip_prefix('"')
                .and_then(|t| t.strip_suffix('"'))
                .ok_or_else(|| err(format!("unterminated string `{text}`")))?;
            let mut s = String::new();
            let mut chars = inner.chars();
            while let Some(c) = chars.next() {
                if c == '\\' {
                    match chars.next() {
                        Some('"') => s.push('"'),
                        Some('\\') => s.push('\\'),
                        Some('n') => s.push('\n'),
                        other => return Err(err(format!("bad escape `\\{other:?}`"))),
                    }
                } else {
                    s.push(c);
                }
            }
            return Ok(RawValue::Str(s));
        }
        if text.starts_with('[') {
            let inner = text
                .strip_prefix('[')
                .and_then(|t| t.strip_suffix(']'))
                .ok_or_else(|| err("unterminated `[`".to_string()))?;
            let mut fields = Vec::new();
            for part in split_top_level(inner) {
                let part = part.trim();
                if part.is_empty() {
                    continue;
                }
                let (k, v) = part
                    .split_once('=')
                    .ok_or_else(|| err("expected `field = value` in record".to_string()))?;
                fields.push((k.trim().to_string(), parse_value(line, v.trim())?));
            }
            return Ok(RawValue::Record(fields));
        }
        text.parse::<i64>()
            .map(RawValue::Int)
            .map_err(|_| err(format!("cannot parse value `{text}`")))
    }
}

/// SplitMix64: a small seeded generator, so every case is reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

const SCHEMA: &str = "
    class Place with city: String; zone: {'North, 'South};
    class Person with name: String; age: 1..120; friend: Person; mood: {'Happy, 'Sad};
        home: [street: String; zip: 1..99999; geo: [lat: 0..90; lon: 0..180]];
    class Doctor is-a Person with clinic: Place;
    class Patient is-a Person with doctor: Doctor;
    class Nurse is-a Person;
";

/// Words a generated file draws on; the `X` variants are unknown to the
/// schema.
const CLASSES: &[&str] = &["Place", "Person", "Doctor", "Patient", "Nurse"];
const ATTRS: &[&str] = &[
    "name", "age", "friend", "mood", "home", "clinic", "doctor", "city", "zone",
];
const TOKENS: &[&str] = &["North", "South", "Happy", "Sad"];
const STRINGS: &[&str] = &[
    "Ann",
    "Main St",
    "say \\\"hi\\\"",
    "back\\\\slash",
    "two\\nlines",
    "not -- a comment",
    "a, b; [c]",
    "{brace}",
    "x = y : z",
    "}",
    "a]b",
    "--",
    "\\\"",
    "",
];

/// Whitespace around separators: `trim` strips any Unicode whitespace,
/// so tabs and no-break spaces count as much as spaces do.
fn gap(rng: &mut Rng) -> &'static str {
    rng.pick(&[" ", " ", " ", "\t", "\u{a0}", " \t", ""])
}

/// Object `i`'s name: ASCII, or led by a non-ASCII letter, which the
/// name check (`char::is_alphanumeric`) admits.
fn object_name(i: usize, unicode: bool) -> String {
    match i % 4 {
        1 if unicode => format!("é{i}"),
        2 if unicode => format!("名{i}"),
        3 if unicode => format!("Ωß{i}"),
        _ => format!("o{i}"),
    }
}

/// One value of a generated entry: `depth` bounds record nesting.
fn gen_value(rng: &mut Rng, names: &[String], depth: usize) -> String {
    match rng.below(if depth < 3 { 6 } else { 5 }) {
        0 => format!("{}", rng.below(200) as i64 - 20),
        1 => format!("\"{}\"", rng.pick(STRINGS)),
        2 => format!("'{}", rng.pick(TOKENS)),
        3 | 4 => format!("@{}", names[rng.below(names.len())]),
        _ => {
            let fields = ["street", "zip", "geo", "lat", "lon"];
            let n = rng.below(4);
            let mut start = rng.below(fields.len());
            let parts: Vec<String> = (0..n)
                .map(|_| {
                    // Distinct field names: a repeated one is an error
                    // only the new loader reports.
                    let f = fields[start % fields.len()];
                    start += 1;
                    let eq = format!("{}={}", gap(rng), gap(rng));
                    format!("{f}{eq}{}", gen_value(rng, names, depth + 1))
                })
                .collect();
            let sep = format!("{}{}", rng.pick(&[",", ";"]), gap(rng));
            format!("[{}]", parts.join(&sep))
        }
    }
}

/// A generated data file, well formed unless `faults` is set, in which
/// case a few entries carry a fault each.
fn gen_file(rng: &mut Rng, faults: bool) -> String {
    let objects = 1 + rng.below(40);
    let unicode = rng.chance(30);
    let nl = if rng.chance(25) { "\r\n" } else { "\n" };
    let names: Vec<String> = (0..objects).map(|i| object_name(i, unicode)).collect();
    let mut out = String::new();
    for own in &names {
        if rng.chance(15) {
            out.push_str("-- a comment line, with \"quotes\" and {braces}");
            out.push_str(nl);
        }
        if rng.chance(15) {
            out.push_str(nl);
        }
        let fault = if faults && rng.chance(12) {
            rng.below(11)
        } else {
            usize::MAX
        };
        let name = match fault {
            0 => names[rng.below(objects)].clone(), // possibly a duplicate
            1 => format!("{own}{}", rng.pick(&["!", "€", " x"])),
            _ => own.clone(),
        };
        let mut classes: Vec<&str> = (0..1 + rng.below(2)).map(|_| rng.pick(CLASSES)).collect();
        if fault == 2 {
            classes.push("Ghost");
        }
        let mut fields: Vec<String> = (0..rng.below(5))
            .map(|_| {
                let eq = format!("{}={}", gap(rng), gap(rng));
                format!("{}{eq}{}", rng.pick(ATTRS), gen_value(rng, &names, 0))
            })
            .collect();
        match fault {
            3 => fields.push(format!("bogus = {}", gen_value(rng, &names, 0))),
            4 => fields.push("mood = 'Grumpy".to_string()),
            5 => fields.push("friend = @nobody".to_string()),
            6 => fields.push("age = 12x".to_string()),
            7 => fields.push("name = \"unterminated".to_string()),
            8 => fields.push("name \"no equals\"".to_string()),
            9 => fields.push("home = [zip = 1, geo = [lat = @nobody]]".to_string()),
            10 => fields.push("name = \"bad \\q escape\"".to_string()),
            _ => {}
        }
        let sep = format!("{}{}", rng.pick(&[",", ";"]), gap(rng));
        let comma = format!("{},{}", gap(rng), gap(rng));
        let head = format!("{name}{}:{}{}", gap(rng), gap(rng), classes.join(&comma));
        // A `{` on the line after the head, or on the head's line.
        let open = if rng.chance(20) {
            format!("{nl}{}{{", gap(rng))
        } else {
            format!("{}{{", gap(rng))
        };
        if rng.chance(25) && !fields.is_empty() {
            // A multi-line entry, with trailing comments and blank lines.
            out.push_str(&format!("{head}{open} -- opens here{nl}"));
            for f in &fields {
                out.push_str(&format!("    {f}{sep} -- trailing{nl}"));
                if rng.chance(20) {
                    out.push_str(nl);
                }
            }
            out.push('}');
            out.push_str(nl);
        } else if fields.is_empty() && rng.chance(5) {
            out.push_str(&format!("{head}{nl}"));
        } else {
            out.push_str(&format!("{head}{open} {}{}}}", fields.join(&sep), gap(rng)));
            if rng.chance(20) {
                out.push_str(" -- trailing comment");
            }
            out.push_str(nl);
        }
    }
    if faults && rng.chance(10) {
        out.push_str("last : Person { name = \"open\"");
        out.push_str(nl);
    }
    out
}

/// Every symbol the loader could have looked up in `src`.
fn candidate_syms(schema: &Schema, src: &str) -> Vec<Sym> {
    let words: BTreeSet<&str> = src
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .collect();
    words.into_iter().filter_map(|w| schema.sym(w)).collect()
}

fn is_fixed_bug(e: &DataError) -> bool {
    matches!(e, DataError::Syntax { what, .. }
        if what.contains("given twice in record") || what.contains("nested deeper than"))
}

fn assert_same(schema: &Schema, src: &str, case: &str) {
    let want = catch_unwind(AssertUnwindSafe(|| reference::load_data(schema, src)));
    let got = load_data(schema, src);
    let got = match (want, got) {
        (_, Err(e)) if is_fixed_bug(&e) => return,
        (Err(_), got) => panic!("{case}: reference panicked, loader gave {got:?}\n{src}"),
        (Ok(Err(want)), Err(got)) => {
            assert_eq!(got, want, "{case}\n{src}");
            assert_eq!(got.to_string(), want.to_string(), "{case}");
            return;
        }
        (Ok(want), got) => match (want, got) {
            (Ok(want), Ok(got)) => (want, got),
            (want, got) => panic!(
                "{case}: reference {:?}, loader {:?}\n{src}",
                want.err(),
                got.err()
            ),
        },
    };
    let (want, LoadedData { store, names }) = got;
    let names: Vec<(String, Oid)> = names.iter().map(|(n, o)| (n.to_string(), *o)).collect();
    assert_eq!(names, want.names, "{case}: names");
    assert_eq!(store.num_objects(), want.classes.len(), "{case}");
    for (i, classes) in want.classes.iter().enumerate() {
        let oid = Oid::from_raw(i as u64);
        let got: Vec<ClassId> = store.classes_of(oid);
        assert_eq!(
            got,
            classes.iter().copied().collect::<Vec<_>>(),
            "{case}: classes of {oid}"
        );
    }
    for class in schema.class_ids() {
        let want_extent: Vec<Oid> = (0..want.classes.len())
            .filter(|&i| want.classes[i].contains(&class))
            .map(|i| Oid::from_raw(i as u64))
            .collect();
        assert_eq!(
            store.extent(class).collect::<Vec<_>>(),
            want_extent,
            "{case}: extent"
        );
    }
    let syms = candidate_syms(schema, src);
    for i in 0..want.classes.len() {
        let oid = Oid::from_raw(i as u64);
        for &attr in &syms {
            assert_eq!(
                store.get_attr(oid, attr),
                want.values.get(&(oid, attr)),
                "{case}: {oid}.{}",
                schema.resolve(attr)
            );
        }
    }
}

#[test]
fn generated_files_load_as_the_reference_loads_them() {
    let schema = chc_sdl::compile(SCHEMA).unwrap();
    let (mut loaded, mut failed) = (0, 0);
    for seed in 0..600u64 {
        let mut rng = Rng(seed);
        let faults = seed % 2 == 1;
        let src = gen_file(&mut rng, faults);
        let ok = load_data(&schema, &src).is_ok();
        assert_same(&schema, &src, &format!("seed {seed}"));
        if ok {
            loaded += 1;
        } else {
            failed += 1;
        }
    }
    // Both outcomes are well represented, so neither side is vacuous.
    assert!(
        loaded > 150 && failed > 150,
        "{loaded} loaded, {failed} failed"
    );
}

/// Byte edits the mutator makes: every one is ASCII.
const EDIT_BYTES: &[u8] = b"{}[]\"\\:,;=@'- \nxZ_09\r\t";

/// One to three edits of `src`: each truncates, replaces or removes one
/// character, or inserts an edit byte, at a character boundary, so the
/// text stays UTF-8.
fn mutate(rng: &mut Rng, src: &str) -> String {
    let mut text = src.to_string();
    for _ in 0..1 + rng.below(3) {
        let mut at = rng.below(text.len().max(1)).min(text.len());
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        let byte = char::from(EDIT_BYTES[rng.below(EDIT_BYTES.len())]);
        let next = text[at..].chars().next().map_or(at, |c| at + c.len_utf8());
        match rng.below(4) {
            0 => text.truncate(at),
            1 if at < text.len() => text.replace_range(at..next, byte.encode_utf8(&mut [0; 4])),
            2 if at < text.len() => text.replace_range(at..next, ""),
            _ => text.insert(at, byte),
        }
    }
    text
}

#[test]
fn edited_examples_load_as_the_reference_loads_them() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/data");
    for example in ["hospital", "quaker"] {
        let sdl = std::fs::read_to_string(format!("{dir}/{example}.sdl")).unwrap();
        let chd = std::fs::read_to_string(format!("{dir}/{example}.chd")).unwrap();
        let schema = chc_sdl::compile(&sdl).unwrap();
        assert_same(&schema, &chd, example);
        for cut in 0..=chd.len() {
            assert_same(&schema, &chd[..cut], &format!("{example} cut at {cut}"));
        }
        let mut rng = Rng(0x5eed ^ example.len() as u64);
        for i in 0..3000 {
            let src = mutate(&mut rng, &chd);
            assert_same(&schema, &src, &format!("{example} edit {i}"));
        }
    }
}

#[test]
fn edited_generated_files_load_as_the_reference_loads_them() {
    let schema = chc_sdl::compile(SCHEMA).unwrap();
    for seed in 0..300u64 {
        let mut rng = Rng(seed.wrapping_mul(31) + 7);
        let src = gen_file(&mut rng, false);
        let src = mutate(&mut rng, &src);
        assert_same(&schema, &src, &format!("edited seed {seed}"));
    }
}

/// Pieces a token-soup entry's body is strung from: fields, records,
/// keys holding a quote, strings, comments, escapes and line breaks, so
/// that strings and brackets open in one place and close in another.
const SOUP: &[&str] = &[
    "home = [",
    "zip = ",
    "geo = [lat = ",
    "age = 1",
    "[",
    "]",
    "a]",
    "=",
    ", ",
    "; ",
    "1",
    "@x",
    "@y",
    "'Happy",
    "\"",
    "\"k = ",
    "\"a\"",
    "name = \"",
    "\\",
    "-- c",
    "-",
    "\n",
    " ",
    "\t",
    "\u{a0}",
    "{",
    "}",
    "é",
];

/// One to three entries with random heads, random bodies strung from
/// [`SOUP`], and random ends.
fn soup(rng: &mut Rng) -> String {
    let mut out = String::new();
    for _ in 0..1 + rng.below(3) {
        out.push_str(rng.pick(&["x", "y", "é", "x y", "", "\"x"]));
        out.push_str(rng.pick(&[
            " : Person",
            " : Place",
            " : Person, Place",
            ":",
            " : \"P",
            "",
        ]));
        out.push_str(rng.pick(&[" { ", "{", " [ ", "\n{ ", ""]));
        for _ in 0..rng.below(12) {
            out.push_str(rng.pick(SOUP));
        }
        out.push_str(rng.pick(&[" }", "}", "] }", "", " } }", "\n}"]));
        out.push_str(rng.pick(&["\n", "\r\n", " -- c\n", "", "\n\n"]));
    }
    out
}

#[test]
fn token_soup_loads_as_the_reference_loads_it() {
    let schema = chc_sdl::compile(SCHEMA).unwrap();
    let (mut loaded, mut failed) = (0, 0);
    for seed in 0..20_000u64 {
        let mut rng = Rng(seed ^ 0x50_0b);
        let src = soup(&mut rng);
        if load_data(&schema, &src).is_ok() {
            loaded += 1;
        } else {
            failed += 1;
        }
        assert_same(&schema, &src, &format!("soup {seed}"));
    }
    assert!(
        loaded > 30 && failed > 1000,
        "{loaded} loaded, {failed} failed"
    );
}

/// Inputs where the readings of one entry part ways: a string open
/// across a line break (comments are found line by line), a key holding
/// a quote before a record value, a record closed by `}`, a head with no
/// class and no closing `}`, class names and strings that span lines, and
/// a string holding `--` read again behind a forward reference.
const HANDPICKED: &[&str] = &[
    "x : Person { name = \"abc\n\", friend = @y -- c\n}\ny : Person {}\n",
    "x : Person { name = \"abc\n\", friend = @y\n}\ny : Person {}\n",
    "x : Person { \"k = [zip = 1], home = \"c\"] }\n",
    "x : Person { home = [zip = 1} }\n",
    "x : { age = 1 } y\n",
    "x : Per\n\n  son -- c\n {}\n",
    "x : Person { name = \"a  -- b\n   c]}\" }\n",
    "x : Person\n{ home = [street = \"a\\\"\n\"] }\n",
    "x : Person { name = @y; name = \"--\" }\ny : Person {}\n",
];

#[test]
fn handpicked_inputs_load_as_the_reference_loads_them() {
    let schema = chc_sdl::compile(SCHEMA).unwrap();
    for (i, src) in HANDPICKED.iter().enumerate() {
        assert_same(&schema, src, &format!("handpicked {i}"));
    }
}

/// Keys that lead to one attribute, one spelling each, with a value for
/// it; and keys that differ from one of them by a letter.
const KEYED: &[(&str, &str)] = &[
    ("name", "\"Ann\""),
    ("age", "41"),
    ("mood", "'Sad"),
    ("friend", "@o0"),
    ("home", "[zip = 7]"),
    ("doctor", "@o1"),
];
const MISSPELLED: &[&str] = &["nam", "names", "agee", "Age", "moo", "frien"];

/// Entries whose keys repeat from entry to entry, mostly at the same
/// positions and sometimes shifted by one or more, with now and then a
/// misspelled key, a key broken across a line break, or a body spread
/// over several lines.
fn gen_keyed(rng: &mut Rng) -> String {
    let mut out = String::from("o0 : Doctor {}\no1 : Doctor {}\n");
    let order: Vec<usize> = (0..KEYED.len()).collect();
    for i in 2..2 + rng.below(30) {
        let shift = if rng.chance(70) { 0 } else { rng.below(KEYED.len()) };
        let skip = if rng.chance(20) { rng.below(KEYED.len()) } else { usize::MAX };
        let mut fields = Vec::new();
        for &k in order.iter().cycle().skip(shift).take(KEYED.len()) {
            if k == skip {
                continue;
            }
            let (key, value) = KEYED[k];
            let key = match rng.below(200) {
                0 => rng.pick(MISSPELLED).to_string(),
                1 => format!("{}\n{}", &key[..2], &key[2..]),
                _ => key.to_string(),
            };
            fields.push(format!("{key} = {value}"));
        }
        let class = rng.pick(&["Patient", "Doctor", "Person, Patient"]);
        let sep = if rng.chance(15) { ",\n    " } else { ", " };
        out.push_str(&format!("o{i} : {class} {{ {} }}\n", fields.join(sep)));
    }
    out
}

/// Keys the previous entry had at another position or with another
/// spelling: shifted by one, broken across a line break (so the entry
/// reads `na me`, which no attribute is), an unknown key where the last
/// entry had a known one, and a known key after an unknown one.
const KEY_SLOTS: &[&str] = &[
    "a : Person { name = \"x\", age = 3 }\nb : Person { age = 4, name = \"y\" }\n",
    "a : Person { name = \"x\", age = 3 }\nb : Person { mood = 'Sad, name = \"y\", age = 5 }\n",
    "a : Person { name = \"x\" }\nb : Person { na\nme = \"y\" }\n",
    "a : Person { name = \"x\" }\nb : Person { name\n = \"y\" }\nc : Person { name = \"z\" }\n",
    "a : Person { name = \"x\", age = 3 }\nb : Person { name = \"y\", agee = 4 }\n",
    "a : Person { name = \"x\" }\nb : Person { nam = \"y\" }\nc : Person { name = \"z\" }\n",
    "a : Person { name = \"x\" }\nb : Person { names = \"y\" }\n",
    "a : Person { home = [zip = 1] }\nb : Person { ho\nme = [zip = 2] }\n",
    "a : Person { nam = 1 }\nb : Person { name = \"y\" }\n",
    "a : Person { age = 1,\n name = \"x\" }\nb : Person { age = 2, name = \"y\" }\n",
    "a : Person { age = 1 }\nb : Person { age = 2, agee = 3 }\nc : Person { zz = 1, age = 2 }\n",
];

#[test]
fn repeated_keys_load_as_the_reference_loads_them() {
    let schema = chc_sdl::compile(SCHEMA).unwrap();
    for (i, src) in KEY_SLOTS.iter().enumerate() {
        assert_same(&schema, src, &format!("key slots {i}"));
    }
    let (mut loaded, mut failed) = (0, 0);
    for seed in 0..400u64 {
        let mut rng = Rng(seed ^ 0x006b_6579);
        let src = gen_keyed(&mut rng);
        match load_data(&schema, &src) {
            Ok(_) => loaded += 1,
            Err(_) => failed += 1,
        }
        assert_same(&schema, &src, &format!("keyed {seed}"));
    }
    assert!(
        loaded > 100 && failed > 100,
        "{loaded} loaded, {failed} failed"
    );
}
