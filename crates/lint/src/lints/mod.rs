//! The individual lints, one module per code, sharing a [`LintCtx`].

pub(crate) mod dead_excuse;
pub(crate) mod diff;
pub(crate) mod incoherent;
pub(crate) mod noop_redef;
pub(crate) mod query;
pub(crate) mod redundant_isa;
pub(crate) mod unreachable;
pub(crate) mod unused;

use std::collections::BTreeSet;

use chc_model::{ClassId, Schema, Sym};

/// Facts shared across lints, computed once per run. The expensive part —
/// the coherence sweep — is shared by L001 (incoherent class) and L003
/// (unreachable branch).
pub(crate) struct LintCtx<'s> {
    pub schema: &'s Schema,
    /// (class, attr) pairs whose constraint set admits no value.
    pub incoherent_at: BTreeSet<(ClassId, Sym)>,
    /// Classes incoherent at *some* attribute (can have no instances),
    /// indexed by class.
    pub incoherent: Vec<bool>,
}

impl<'s> LintCtx<'s> {
    pub fn new(schema: &'s Schema) -> Self {
        if schema.num_classes() > 0 {
            chc_obs::counter(chc_obs::names::LINT_CLASSES, schema.num_classes() as u64);
        }
        let incoherent_at = chc_core::incoherent_sites(schema);
        let mut incoherent = vec![false; schema.num_classes()];
        for &(class, _) in &incoherent_at {
            incoherent[class.index()] = true;
        }
        LintCtx { schema, incoherent_at, incoherent }
    }

    /// Do `a` and `b` share a descendant (including themselves)? This is
    /// whether an instance could ever belong to both classes at once.
    pub fn share_descendant(&self, a: ClassId, b: ClassId) -> bool {
        self.schema
            .descendants_with_self(a)
            .any(|x| self.schema.is_subclass(x, b))
    }

    /// As [`share_descendant`](Self::share_descendant), but the shared
    /// descendant must also be coherent (able to have instances).
    pub fn share_coherent_descendant(&self, a: ClassId, b: ClassId) -> bool {
        self.schema
            .descendants_with_self(a)
            .any(|x| self.schema.is_subclass(x, b) && !self.incoherent[x.index()])
    }
}
