//! Differential test of the `.chd` loader against a reference: the
//! two-pass loader `load_data` replaced, which built an owned entry for
//! every object before storing any. The reference lives only here.
//!
//! Inputs are seeded SplitMix64 data files (forward references, multi-line
//! entries, comments inside and outside strings, escapes, records,
//! multi-class entries, blank lines, and injected faults) and byte edits
//! and truncations of `examples/data/{hospital,quaker}.chd`. On success
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
    "",
];

/// One value of a generated entry: `depth` bounds record nesting.
fn gen_value(rng: &mut Rng, objects: usize, depth: usize) -> String {
    match rng.below(if depth < 3 { 6 } else { 5 }) {
        0 => format!("{}", rng.below(200) as i64 - 20),
        1 => format!("\"{}\"", rng.pick(STRINGS)),
        2 => format!("'{}", rng.pick(TOKENS)),
        3 | 4 => format!("@o{}", rng.below(objects)),
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
                    format!("{f} = {}", gen_value(rng, objects, depth + 1))
                })
                .collect();
            format!("[{}]", parts.join(if rng.chance(50) { ", " } else { "; " }))
        }
    }
}

/// A generated data file, well formed unless `faults` is set, in which
/// case a few entries carry a fault each.
fn gen_file(rng: &mut Rng, faults: bool) -> String {
    let objects = 1 + rng.below(40);
    let mut out = String::new();
    for i in 0..objects {
        if rng.chance(15) {
            out.push_str("-- a comment line, with \"quotes\" and {braces}\n");
        }
        if rng.chance(15) {
            out.push('\n');
        }
        let fault = if faults && rng.chance(12) {
            rng.below(11)
        } else {
            usize::MAX
        };
        let name = match fault {
            0 => format!("o{}", rng.below(objects)), // possibly a duplicate
            1 => format!("o{i}!"),
            _ => format!("o{i}"),
        };
        let mut classes: Vec<&str> = (0..1 + rng.below(2)).map(|_| rng.pick(CLASSES)).collect();
        if fault == 2 {
            classes.push("Ghost");
        }
        let mut fields: Vec<String> = (0..rng.below(5))
            .map(|_| format!("{} = {}", rng.pick(ATTRS), gen_value(rng, objects, 0)))
            .collect();
        match fault {
            3 => fields.push(format!("bogus = {}", gen_value(rng, objects, 0))),
            4 => fields.push("mood = 'Grumpy".to_string()),
            5 => fields.push("friend = @nobody".to_string()),
            6 => fields.push("age = 12x".to_string()),
            7 => fields.push("name = \"unterminated".to_string()),
            8 => fields.push("name \"no equals\"".to_string()),
            9 => fields.push("home = [zip = 1, geo = [lat = @nobody]]".to_string()),
            10 => fields.push("name = \"bad \\q escape\"".to_string()),
            _ => {}
        }
        let sep = if rng.chance(50) { ", " } else { "; " };
        let head = format!("{name} : {}", classes.join(", "));
        if rng.chance(25) && !fields.is_empty() {
            // A multi-line entry, with trailing comments and blank lines.
            out.push_str(&format!("{head} {{ -- opens here\n"));
            for f in &fields {
                out.push_str(&format!("    {f}{sep} -- trailing\n"));
                if rng.chance(20) {
                    out.push('\n');
                }
            }
            out.push_str("}\n");
        } else if fields.is_empty() && rng.chance(5) {
            out.push_str(&format!("{head}\n"));
        } else {
            out.push_str(&format!("{head} {{ {} }}", fields.join(sep)));
            if rng.chance(20) {
                out.push_str(" -- trailing comment");
            }
            out.push('\n');
        }
    }
    if faults && rng.chance(10) {
        out.push_str("last : Person { name = \"open\"\n");
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

/// Byte edits the mutator makes: every one keeps the text UTF-8.
const EDIT_BYTES: &[u8] = b"{}[]\"\\:,;=@'- \nxZ_09";

fn mutate(rng: &mut Rng, src: &str) -> String {
    let mut bytes = src.as_bytes().to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(bytes.len().max(1));
        match rng.below(4) {
            0 => bytes.truncate(at),
            1 if at < bytes.len() => bytes[at] = EDIT_BYTES[rng.below(EDIT_BYTES.len())],
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at.min(bytes.len()), EDIT_BYTES[rng.below(EDIT_BYTES.len())]),
        }
    }
    String::from_utf8(bytes).expect("the examples and the edit bytes are ASCII")
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
