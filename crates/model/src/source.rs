//! Source spans: mapping schema entities back to the SDL text they came
//! from.
//!
//! The paper's verifiability desideratum (§5) wants the environment to
//! "alert the programmer about cases of inconsistent specification" — an
//! alert is only actionable if it points at the offending line. A
//! [`SourceMap`] records, for every class, attribute declaration, excuse
//! clause, and is-a edge, the position of the token that introduced it.
//! `chc-sdl` populates the map while lowering; schemas built directly
//! through the API simply have an empty map and diagnostics fall back to
//! name-only rendering.
//!
//! Spans survive schema *evolution*: `SchemaBuilder::from_schema`
//! preserves class ids, so positions recorded for the original text stay
//! valid for unchanged entities after a rebuild.

use crate::class::ClassId;
use crate::symbol::Sym;

/// A source position (1-based line and byte column), the start of the
/// token that introduced an entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// Line number, starting at 1.
    pub line: u32,
    /// Column number (in bytes), starting at 1.
    pub col: u32,
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Positions of schema entities in the SDL source they were compiled
/// from. Empty for schemas assembled directly through [`SchemaBuilder`]
/// (every lookup returns `None`).
///
/// Every table is dense by class id: recording classes in id order (as
/// lowering does) is a push, and a lookup scans one class's run.
///
/// [`SchemaBuilder`]: crate::builder::SchemaBuilder
#[derive(Debug, Clone, Default)]
pub struct SourceMap {
    /// The file the source came from, when known (used as the diagnostic
    /// path prefix).
    file: Option<String>,
    /// Indexed by class: the position of its `class` keyword.
    classes: Vec<Option<Span>>,
    /// attr → position of the attribute name in the declaration.
    attrs: Runs<Sym>,
    /// (excused attr, excused class) → position of the `excuses` keyword
    /// of that clause in one of the class's declarations.
    excuses: Runs<(Sym, ClassId)>,
    /// direct super → position of the superclass name in the `is-a` list.
    supers: Runs<ClassId>,
}

/// Spans keyed by `(class, key)`, kept as one run of rows per class in
/// class-id order, each run in recording order.
#[derive(Debug, Clone)]
struct Runs<K> {
    /// `ends[c]` is one past class `c`'s last row, which start at
    /// `ends[c - 1]` (0 for the first class). Classes past the end have
    /// no rows.
    ends: Vec<usize>,
    rows: Vec<(K, Span)>,
}

impl<K> Default for Runs<K> {
    fn default() -> Self {
        Runs { ends: Vec::new(), rows: Vec::new() }
    }
}

impl<K: PartialEq + Copy> Runs<K> {
    fn run(&self, class: ClassId) -> &[(K, Span)] {
        let c = class.index();
        match self.ends.get(c) {
            Some(&end) => &self.rows[if c == 0 { 0 } else { self.ends[c - 1] }..end],
            None => &[],
        }
    }

    fn reserve(&mut self, classes: usize, rows: usize) {
        self.ends.reserve(classes);
        self.rows.reserve(rows);
    }

    /// Appends to `class`'s run: a push when no later class has rows
    /// yet, as when classes are recorded in id order.
    fn record(&mut self, class: ClassId, key: K, span: Span) {
        let c = class.index();
        if self.ends.len() <= c {
            self.ends.resize(c + 1, self.rows.len());
        }
        self.rows.insert(self.ends[c], (key, span));
        for end in &mut self.ends[c..] {
            *end += 1;
        }
    }

    /// The span recorded last for `key` in `class`'s run.
    fn get(&self, class: ClassId, key: K) -> Option<Span> {
        self.run(class).iter().rev().find(|&&(k, _)| k == key).map(|&(_, span)| span)
    }
}

impl SourceMap {
    /// An empty map (what API-built schemas carry).
    pub fn new() -> Self {
        SourceMap::default()
    }

    /// Whether any span was recorded at all.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
            && self.attrs.rows.is_empty()
            && self.excuses.rows.is_empty()
            && self.supers.rows.is_empty()
    }

    /// The source file name, if one was recorded.
    pub fn file(&self) -> Option<&str> {
        self.file.as_deref()
    }

    /// Records the source file name.
    pub fn set_file(&mut self, file: &str) {
        self.file = Some(file.to_string());
    }

    /// Makes room for the spans of `classes` classes, `attrs` attribute
    /// declarations, `excuses` excuse clauses and `supers` is-a edges,
    /// so recording that many allocates once per table.
    pub fn reserve(&mut self, classes: usize, attrs: usize, excuses: usize, supers: usize) {
        self.classes.reserve(classes);
        self.attrs.reserve(classes, attrs);
        self.excuses.reserve(classes, excuses);
        self.supers.reserve(classes, supers);
    }

    /// Records the position of a class definition.
    pub fn record_class(&mut self, class: ClassId, span: Span) {
        let c = class.index();
        if self.classes.len() <= c {
            self.classes.resize(c + 1, None);
        }
        self.classes[c] = Some(span);
    }

    /// Records the position of an attribute declaration.
    pub fn record_attr(&mut self, class: ClassId, attr: Sym, span: Span) {
        self.attrs.record(class, attr, span);
    }

    /// Records the position of an `excuses attr on C` clause carried by
    /// `class`'s declaration of `attr`.
    pub fn record_excuse(&mut self, class: ClassId, attr: Sym, on: ClassId, span: Span) {
        self.excuses.record(class, (attr, on), span);
    }

    /// Records the position of the direct is-a edge `class is-a sup`.
    pub fn record_super(&mut self, class: ClassId, sup: ClassId, span: Span) {
        self.supers.record(class, sup, span);
    }

    /// The position of a class definition.
    pub fn class_span(&self, class: ClassId) -> Option<Span> {
        self.classes.get(class.index()).copied().flatten()
    }

    /// The position of an attribute declaration.
    pub fn attr_span(&self, class: ClassId, attr: Sym) -> Option<Span> {
        self.attrs.get(class, attr)
    }

    /// The position of an excuse clause.
    pub fn excuse_span(&self, class: ClassId, attr: Sym, on: ClassId) -> Option<Span> {
        self.excuses.get(class, (attr, on))
    }

    /// The position of a direct is-a edge.
    pub fn super_span(&self, class: ClassId, sup: ClassId) -> Option<Span> {
        self.supers.get(class, sup)
    }

    /// The best position for a diagnostic at `(class, attr)`: the
    /// attribute declaration if present, else the class definition.
    pub fn site_span(&self, class: ClassId, attr: Option<Sym>) -> Option<Span> {
        attr.and_then(|a| self.attr_span(class, a))
            .or_else(|| self.class_span(class))
    }

    /// A position as `file:line:col` (or `line:col` when no file was
    /// recorded) — the prefix diagnostics print.
    pub fn locate(&self, span: Span) -> impl std::fmt::Display + '_ {
        chc_obs::display_with(move |f| match &self.file {
            Some(file) => write!(f, "{file}:{span}"),
            None => write!(f, "{span}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map_answers_none() {
        let m = SourceMap::new();
        assert!(m.is_empty());
        assert_eq!(m.class_span(ClassId::from_raw(0)), None);
        assert_eq!(m.file(), None);
    }

    #[test]
    fn recorded_spans_come_back() {
        let mut m = SourceMap::new();
        let c = ClassId::from_raw(3);
        let s = Span { line: 7, col: 2 };
        m.record_class(c, s);
        m.set_file("x.sdl");
        assert_eq!(m.class_span(c), Some(s));
        assert_eq!(m.site_span(c, None), Some(s));
        assert_eq!(m.locate(s).to_string(), "x.sdl:7:2");
        assert!(!m.is_empty());
    }

    #[test]
    fn excuse_spans_are_keyed_by_the_full_clause() {
        let mut m = SourceMap::new();
        let mut interner = crate::symbol::Interner::new();
        let attr = interner.intern("treatedBy");
        let (excuser, on) = (ClassId::from_raw(4), ClassId::from_raw(2));
        let s = Span { line: 9, col: 31 };
        m.record_excuse(excuser, attr, on, s);
        assert_eq!(m.excuse_span(excuser, attr, on), Some(s));
        // Any other (class, attr, on) triple is a different clause.
        assert_eq!(m.excuse_span(on, attr, excuser), None);
        assert_eq!(m.excuse_span(excuser, interner.intern("age"), on), None);
        assert_eq!(m.excuse_span(excuser, attr, ClassId::from_raw(3)), None);
    }

    #[test]
    fn super_spans_are_per_edge() {
        let mut m = SourceMap::new();
        let (sub, a, b) = (ClassId::from_raw(5), ClassId::from_raw(1), ClassId::from_raw(2));
        m.record_super(sub, a, Span { line: 3, col: 14 });
        m.record_super(sub, b, Span { line: 3, col: 22 });
        assert_eq!(m.super_span(sub, a), Some(Span { line: 3, col: 14 }));
        assert_eq!(m.super_span(sub, b), Some(Span { line: 3, col: 22 }));
        // The edge is directed: the reverse pair was never recorded.
        assert_eq!(m.super_span(a, sub), None);
    }

    #[test]
    fn classes_may_be_recorded_in_any_order() {
        let mut m = SourceMap::new();
        let at = |line, col| Some(Span { line, col });
        let (a, b, c) = (ClassId::from_raw(0), ClassId::from_raw(2), ClassId::from_raw(5));
        m.record_super(c, b, Span { line: 9, col: 5 });
        m.record_super(b, a, Span { line: 4, col: 1 });
        m.record_super(c, a, Span { line: 9, col: 1 });
        // A repeated key answers with the later span.
        m.record_super(b, a, Span { line: 4, col: 7 });
        assert_eq!(m.super_span(b, a), at(4, 7));
        assert_eq!(m.super_span(c, a), at(9, 1));
        assert_eq!(m.super_span(c, b), at(9, 5));
        for class in [a, ClassId::from_raw(3), ClassId::from_raw(9)] {
            assert_eq!(m.super_span(class, a), None);
        }
    }

    #[test]
    fn site_span_prefers_the_attr() {
        let mut m = SourceMap::new();
        let c = ClassId::from_raw(0);
        let mut interner = crate::symbol::Interner::new();
        let attr = interner.intern("age");
        m.record_class(c, Span { line: 1, col: 1 });
        m.record_attr(c, attr, Span { line: 2, col: 5 });
        assert_eq!(m.site_span(c, Some(attr)), Some(Span { line: 2, col: 5 }));
        assert_eq!(m.locate(Span { line: 2, col: 5 }).to_string(), "2:5");
    }
}
