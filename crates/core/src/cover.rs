//! The §5.1 cover table, shared by the checker and
//! [`crate::sat::incoherent_sites`].
//!
//! A declaration `(class, p: S)` is *covered* by a constraint
//! `(B, p: R_B)` at or above `class` when `S` holds a value and `B` is
//! `class`, or `R_B ⊇ S`, or the declaration itself excuses `(B, p)`, or
//! an excuser `E` with `class ⊆ E` has `S_E ⊇ S`. Then every value of
//! `S` lies in the allowed set of `(B, p)` for instances of `class` and
//! of its descendants (allowed sets only grow downwards). So two
//! constraints covering one declaration share its values, and a site
//! whose one minimal declarer is covered by every constraint above it is
//! coherent by construction.
//!
//! [`Covers::push`] is the one routine that decides covers. It reads the
//! excusers of each contradicted constraint off the declaration's *row*:
//! the declarers of `p` at or above `class`, each with whether its range
//! covers `S`, one subtype query each. An excuser `E` counts only when
//! `class ⊆ E`, so one carrying its clause on a declaration of `p` is on
//! the row; one carrying it on another attribute
//! ([`Schema::excused_elsewhere`]) is found by a scan of the excuse index,
//! as is the first excuser an uncovered contradiction's error names. The
//! checker calls it class by class, so each class is charged its own
//! subtype queries, and keeps only that class's rows ([`Covers::restart`]);
//! [`Covers::new`] calls it for a whole schema.

use chc_model::{ClassId, Schema, Sym};

use crate::canon::{RangeId, RangeTable};

/// How a declaration `(class, p: S)` stands against a constraint
/// `(B, p: R_B)` at or above `class`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Standing {
    /// `B` is `class`.
    Own,
    /// `R_B ⊇ S`; `excused` when the declaration excuses `(B, p)` anyway.
    Specializes { excused: bool },
    /// `S` contradicts `R_B`, and no excuser of `(B, p)` lies above `class`.
    Unexcused,
    /// `S` contradicts `R_B`, and no excuse covers it; `excuser` is the
    /// first excuser of `(B, p)` above `class`.
    Escapes { excuser: ClassId },
    /// `S` contradicts `R_B` and is excused, by the declaration or by an
    /// excuser whose range covers `S`; `redundantly` when by both.
    Excused { redundantly: bool },
}

/// For each declaration, numbered as [`RangeTable::decl_index`], and each
/// declarer of its attribute at or above its class, in
/// [`Schema::declarers_on`] order: whether that declarer covers it.
#[derive(Debug, Default)]
pub(crate) struct Covers {
    /// The number of the first declaration kept.
    first: usize,
    /// Declaration `first + i`'s row is `covered[ends[i - 1]..ends[i]]`.
    ends: Vec<usize>,
    covered: Vec<bool>,
    /// The declarer row of the declaration being pushed (kept to reuse
    /// the buffer).
    row: Vec<Declarer>,
}

/// One declarer `B` of a declaration `(class, p: S)`'s row.
#[derive(Debug, Clone, Copy)]
struct Declarer {
    class: ClassId,
    /// `B` is `class`, or `R_B ⊇ S`.
    specializes: bool,
    /// A specializing declarer other than `class` excuses `(B, p)` on its
    /// declaration of `p`.
    excused: bool,
}

impl Covers {
    /// The covers of every declaration of the schema `ranges` interns.
    pub(crate) fn new(ranges: &RangeTable<'_>) -> Covers {
        let schema = ranges.schema();
        let mut covers = Covers::default();
        for class in schema.class_ids() {
            for decl in &schema.class(class).attrs {
                let subsumes = |sup, sub| ranges.subsumes(sup, sub);
                covers.push(ranges, class, decl.name, subsumes, None);
            }
        }
        covers
    }

    /// Drops every row kept; the next declaration pushed is number `d`.
    pub(crate) fn restart(&mut self, d: usize) {
        self.first = d;
        self.ends.clear();
        self.covered.clear();
    }

    /// Decides how `class`'s declaration of `attr` stands against each
    /// constraint at or above `class`, and appends the declaration's row.
    /// Declarations are pushed in [`RangeTable::decl_index`] order.
    /// `subsumes` answers each subtype query, so the caller can count
    /// them. Only with `standings` to fill does it tell the standings
    /// apart beyond what decides a cover: whether an excuse is redundant.
    pub(crate) fn push(
        &mut self,
        ranges: &RangeTable<'_>,
        class: ClassId,
        attr: Sym,
        mut subsumes: impl FnMut(RangeId, RangeId) -> bool,
        mut standings: Option<&mut Vec<(ClassId, Standing)>>,
    ) {
        debug_assert_eq!(self.first + self.ends.len(), ranges.decl_index(class, attr));
        let schema = ranges.schema();
        let spec = &schema.declared_attr(class, attr).expect("declared").spec;
        let s = ranges.decl(class, attr);
        let inhabited = ranges.inhabited(s);
        let detail = standings.is_some();
        // The row is built up front when the standings are wanted, and
        // otherwise only when a contradiction needs the excusers on it;
        // then the declarers already met are asked again.
        let mut built = detail;
        if built {
            self.build_row(ranges, class, attr, &mut subsumes);
        }
        for (i, b) in schema.declarers_on(class, attr).enumerate() {
            let specializes = if built {
                self.row[i].specializes
            } else {
                b == class || subsumes(ranges.decl(b, attr), s)
            };
            let excused = || spec.excuses.iter().any(|e| e.on == b && e.attr == attr);
            let standing = if b == class {
                Standing::Own
            } else if specializes {
                Standing::Specializes {
                    excused: detail && excused(),
                }
            } else {
                // The declaration's own excuse makes `class` an excuser
                // with `S_E = S`, so the row only looks for another, which
                // makes that excuse redundant.
                let excused = excused();
                if excused && !detail {
                    Standing::Excused { redundantly: false }
                } else {
                    if !built {
                        self.build_row(ranges, class, attr, &mut subsumes);
                        built = true;
                    }
                    if self.row[i].excused {
                        Standing::Excused {
                            redundantly: excused,
                        }
                    } else {
                        resolve_elsewhere(ranges, class, b, attr, s, excused, &mut subsumes)
                    }
                }
            };
            let covers = !matches!(standing, Standing::Unexcused | Standing::Escapes { .. });
            self.covered.push(inhabited && covers);
            if let Some(out) = standings.as_deref_mut() {
                out.push((b, standing));
            }
        }
        self.ends.push(self.covered.len());
    }

    /// Fills the row of `class`'s declaration `S` of `attr`: each
    /// declarer, whether it specializes `S` (one subtype query each), and
    /// whether a specializing declarer other than `class` excuses its
    /// constraint on its own declaration of `attr`.
    fn build_row(
        &mut self,
        ranges: &RangeTable<'_>,
        class: ClassId,
        attr: Sym,
        subsumes: &mut impl FnMut(RangeId, RangeId) -> bool,
    ) {
        let schema = ranges.schema();
        let s = ranges.decl(class, attr);
        let row = &mut self.row;
        row.clear();
        row.extend(schema.declarers_on(class, attr).map(|b| Declarer {
            class: b,
            specializes: b == class || subsumes(ranges.decl(b, attr), s),
            excused: false,
        }));
        for i in 0..row.len() {
            let e = row[i];
            if e.class == class || !e.specializes {
                continue;
            }
            let clauses = &schema.declared_attr(e.class, attr).expect("declarer").spec.excuses;
            for clause in clauses.iter().filter(|c| c.attr == attr) {
                if let Ok(j) = row.binary_search_by_key(&clause.on, |d| d.class) {
                    row[j].excused = true;
                }
            }
        }
    }

    /// Whether each constraint at or above declaration `d` covers it.
    pub(crate) fn row(&self, d: usize) -> &[bool] {
        let i = d - self.first;
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p]);
        &self.covered[start..self.ends[i]]
    }

    /// Whether every constraint at or above declaration `d` covers it.
    pub(crate) fn settled(&self, d: usize) -> bool {
        self.row(d).iter().all(|&c| c)
    }
}

/// The standing of `class`'s declaration `S` of `attr` against a
/// contradicted `(on, attr)` that no declarer on its row excuses: excused
/// only by a covering excuse carried on another attribute (or, when
/// `excused`, by the declaration's own), else unexcused or escaping its
/// first excuser.
fn resolve_elsewhere(
    ranges: &RangeTable<'_>,
    class: ClassId,
    on: ClassId,
    attr: Sym,
    s: RangeId,
    excused: bool,
    subsumes: &mut impl FnMut(RangeId, RangeId) -> bool,
) -> Standing {
    let schema = ranges.schema();
    let elsewhere = schema.excused_elsewhere(on, attr);
    if excused && !elsewhere {
        return Standing::Excused { redundantly: false };
    }
    let mut first = None;
    let mut by_other = false;
    for e in schema.applicable_excusers(class, on, attr) {
        first.get_or_insert(e.excuser);
        if !elsewhere {
            break;
        }
        if e.attr != attr
            && !(excused && e.excuser == class)
            && subsumes(ranges.decl(e.excuser, e.attr), s)
        {
            by_other = true;
            break;
        }
    }
    match first {
        None => Standing::Unexcused,
        Some(_) if excused || by_other => Standing::Excused {
            redundantly: excused && by_other,
        },
        Some(excuser) => Standing::Escapes { excuser },
    }
}

/// The minimal declarers of a site, given all its declarers: those with
/// no other declarer strictly below them. Every declarer lies above one
/// of them, so a site with one minimal declarer `M` has exactly the
/// constraints of the site `(M, attr)`.
pub(crate) fn minimal_declarers<'a>(
    schema: &'a Schema,
    declarers: &'a [ClassId],
) -> impl Iterator<Item = ClassId> + 'a {
    declarers.iter().copied().filter(move |&b| {
        !declarers
            .iter()
            .any(|&other| schema.is_strict_subclass(other, b))
    })
}
