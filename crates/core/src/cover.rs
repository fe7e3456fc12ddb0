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
//! [`Covers::push`] is the one routine that decides covers. The checker
//! calls it class by class, so each class is charged its own subtype
//! queries; [`Covers::new`] calls it for a whole schema.

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
    /// Declaration `d`'s row is `covered[ends[d - 1]..ends[d]]`.
    ends: Vec<usize>,
    covered: Vec<bool>,
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
        debug_assert_eq!(self.ends.len(), ranges.decl_index(class, attr));
        let schema = ranges.schema();
        let spec = &schema.declared_attr(class, attr).expect("declared").spec;
        let s = ranges.decl(class, attr);
        let inhabited = ranges.inhabited(s);
        let detail = standings.is_some();
        for b in schema.declarers_on(class, attr) {
            let excused = || spec.excuses.iter().any(|e| e.on == b && e.attr == attr);
            let standing = if b == class {
                Standing::Own
            } else if subsumes(ranges.decl(b, attr), s) {
                Standing::Specializes {
                    excused: detail && excused(),
                }
            } else {
                // Under §5.2 an instance escapes `(B, p)` only through an
                // excuser it belongs to whose range admits the value. The
                // declaration's own excuse makes `class` such an excuser
                // with `S_E = S`, so the scan only looks for another, which
                // makes that excuse redundant.
                let excused = excused();
                if excused && !detail {
                    Standing::Excused { redundantly: false }
                } else {
                    let mut first = None;
                    let mut by_other = false;
                    for (e, r) in ranges.applicable_excusers(class, b, attr) {
                        first.get_or_insert(e);
                        if !(excused && e == class) && subsumes(r, s) {
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
            };
            let covers = !matches!(standing, Standing::Unexcused | Standing::Escapes { .. });
            self.covered.push(inhabited && covers);
            if let Some(out) = standings.as_deref_mut() {
                out.push((b, standing));
            }
        }
        self.ends.push(self.covered.len());
    }

    /// Whether each constraint at or above declaration `d` covers it.
    pub(crate) fn row(&self, d: usize) -> &[bool] {
        let start = d.checked_sub(1).map_or(0, |p| self.ends[p]);
        &self.covered[start..self.ends[d]]
    }

    /// Whether every constraint at or above declaration `d` covers it.
    pub(crate) fn settled(&self, d: usize) -> bool {
        self.row(d).iter().all(|&c| c)
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
