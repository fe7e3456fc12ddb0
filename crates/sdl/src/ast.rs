//! The abstract syntax of SDL schemas, with names unresolved.

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

/// A parsed schema: a sequence of class definitions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SchemaAst<'a> {
    /// The class definitions in source order.
    pub classes: Vec<ClassAst>,
    /// The text of every [`Name`], sliced from the source.
    pub names: Vec<&'a str>,
}

impl<'a> SchemaAst<'a> {
    /// The text of `name`.
    pub fn name(&self, name: Name) -> &'a str {
        self.names[name.index()]
    }
}

/// One `class C is-a S1, S2 with …` definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassAst {
    /// The class name.
    pub name: Name,
    /// Direct superclasses, in source order.
    pub supers: Vec<SuperAst>,
    /// Attribute declarations.
    pub attrs: Vec<AttrAst>,
    /// Source position of the `class` keyword.
    pub pos: Pos,
}

/// One superclass reference in an `is-a` list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperAst {
    /// The superclass name.
    pub name: Name,
    /// Source position of the name in the `is-a` list.
    pub pos: Pos,
}

/// One attribute declaration `p : R excuses p on C; …`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrAst {
    /// The attribute name.
    pub name: Name,
    /// Its range.
    pub range: RangeAst,
    /// Excuse clauses attached to the declaration.
    pub excuses: Vec<ExcuseAst>,
    /// Source position of the attribute name.
    pub pos: Pos,
}

/// An `excuses p on C` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExcuseAst {
    /// The excused attribute's name.
    pub attr: Name,
    /// The class carrying the excused constraint.
    pub on: Name,
    /// Source position of the `excuses` keyword.
    pub pos: Pos,
}

/// A parsed range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RangeAst {
    /// `16..65`
    Int(i64, i64),
    /// `String`
    Str,
    /// `Integer` — the unbounded integer type of §5.4's
    /// `[salary : Integer + None / Temporary_Employee]`.
    Integer,
    /// `{'Hawk, 'Dove}`
    Enum(Vec<Name>),
    /// `None` — the attribute is inapplicable.
    None,
    /// `AnyEntity` — the entity top of §5.5.
    AnyEntity,
    /// A class reference such as `Physician`.
    Named(Name),
    /// A refined class such as `Physician [certifiedBy : {'ABO}]`.
    Refined(Name, Vec<AttrAst>),
    /// An anonymous in-line record such as `[street: String; city: String]`.
    Record(Vec<AttrAst>),
}
