//! The abstract syntax of SDL schemas, with names unresolved.
//!
//! The tree is flat: [`SchemaAst`] holds one table per node kind, and a
//! node's children are a [`List`], a run of consecutive rows in their
//! kind's table. The parser pushes each list as one block when it closes,
//! so a parse grows a handful of vectors rather than allocating one per
//! list; a record's fields close, and are pushed, before the declaration
//! that holds them.

use crate::token::Pos;

/// A name as parsed: an index into [`SchemaAst::names`]. Names are
/// numbered in order of first occurrence, so equal text is an equal `Name`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Name(pub(crate) u32);

impl Name {
    /// The index of this name in [`SchemaAst::names`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A run of consecutive rows in one of [`SchemaAst`]'s tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct List {
    pub(crate) start: u32,
    pub(crate) end: u32,
}

impl List {
    /// The rows from `start` up to the end of `table`.
    pub(crate) fn since<T>(start: usize, table: &[T]) -> List {
        let index = |i: usize| u32::try_from(i).expect("syntax tree overflow");
        List {
            start: index(start),
            end: index(table.len()),
        }
    }

    /// The number of rows.
    pub fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the list has no rows.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    fn of<T>(self, table: &[T]) -> &[T] {
        &table[self.start as usize..self.end as usize]
    }
}

/// A parsed schema: class definitions and the tables their parts live in.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SchemaAst<'a> {
    /// The class definitions in source order.
    pub classes: Vec<ClassAst>,
    /// Every superclass reference; see [`SchemaAst::supers_of`].
    pub supers: Vec<SuperAst>,
    /// Every attribute declaration and record field; see
    /// [`SchemaAst::attrs_of`] and [`SchemaAst::fields`].
    pub attrs: Vec<AttrAst>,
    /// Every excuse clause; see [`SchemaAst::excuses_of`].
    pub excuses: Vec<ExcuseAst>,
    /// Every enumeration token; see [`SchemaAst::tokens`].
    pub tokens: Vec<Name>,
    /// The text of every [`Name`], sliced from the source.
    pub names: Vec<&'a str>,
}

impl<'a> SchemaAst<'a> {
    /// The text of `name`.
    pub fn name(&self, name: Name) -> &'a str {
        self.names[name.index()]
    }

    /// A class's direct superclasses, in source order.
    pub fn supers_of(&self, class: &ClassAst) -> &[SuperAst] {
        class.supers.of(&self.supers)
    }

    /// A class's attribute declarations, in source order.
    pub fn attrs_of(&self, class: &ClassAst) -> &[AttrAst] {
        class.attrs.of(&self.attrs)
    }

    /// A record's fields, in source order.
    pub fn fields(&self, fields: List) -> &[AttrAst] {
        fields.of(&self.attrs)
    }

    /// A declaration's excuse clauses, in source order.
    pub fn excuses_of(&self, attr: &AttrAst) -> &[ExcuseAst] {
        attr.excuses.of(&self.excuses)
    }

    /// An enumeration's tokens, in source order.
    pub fn tokens(&self, tokens: List) -> &[Name] {
        tokens.of(&self.tokens)
    }
}

/// One `class C is-a S1, S2 with …` definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassAst {
    /// The class name.
    pub name: Name,
    /// Direct superclasses, rows of [`SchemaAst::supers`].
    pub supers: List,
    /// Attribute declarations, rows of [`SchemaAst::attrs`].
    pub attrs: List,
    /// Source position of the `class` keyword.
    pub pos: Pos,
}

/// One superclass reference in an `is-a` list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperAst {
    /// The superclass name.
    pub name: Name,
    /// Source position of the name in the `is-a` list.
    pub pos: Pos,
}

/// One attribute declaration `p : R excuses p on C; …`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrAst {
    /// The attribute name.
    pub name: Name,
    /// Its range.
    pub range: RangeAst,
    /// Excuse clauses attached to the declaration, rows of
    /// [`SchemaAst::excuses`].
    pub excuses: List,
    /// Source position of the attribute name.
    pub pos: Pos,
}

/// An `excuses p on C` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExcuseAst {
    /// The excused attribute's name.
    pub attr: Name,
    /// The class carrying the excused constraint.
    pub on: Name,
    /// Source position of the `excuses` keyword.
    pub pos: Pos,
}

/// A parsed range. Lists of tokens and fields are rows of
/// [`SchemaAst::tokens`] and [`SchemaAst::attrs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeAst {
    /// `16..65`
    Int(i64, i64),
    /// `String`
    Str,
    /// `Integer` — the unbounded integer type of §5.4's
    /// `[salary : Integer + None / Temporary_Employee]`.
    Integer,
    /// `{'Hawk, 'Dove}`
    Enum(List),
    /// `None` — the attribute is inapplicable.
    None,
    /// `AnyEntity` — the entity top of §5.5.
    AnyEntity,
    /// A class reference such as `Physician`.
    Named(Name),
    /// A refined class such as `Physician [certifiedBy : {'ABO}]`.
    Refined(Name, List),
    /// An anonymous in-line record such as `[street: String; city: String]`.
    Record(List),
}
