//! L003 — unreachable conditional-type branch.
//!
//! §5.4 reads an excused attribute as a *conditional type*: for `p`
//! declared on `C` with range `T0` and excused by `E1` with range `T1`,
//! members of `C` see `p : [T0 + T1/E1]` — the `T1` branch applies to
//! instances that are also in `E1`. The branch is *reachable* only if
//! some class lies under both `C` and `E1` **and** that class is coherent
//! (can have instances, see L001). When the intersection is non-empty but
//! consists solely of incoherent classes, the guard can never hold for a
//! live instance and the branch is dead weight in every membership test.
//!
//! (An excuser that does not intersect the host hierarchy at all is
//! reported by L002 instead; the two lints partition the failure modes.)

use chc_model::Sym;

use crate::config::LintLevel;
use crate::finding::Finding;
use crate::lints::LintCtx;
use crate::LintCode;

pub(crate) fn run(ctx: &LintCtx<'_>, out: &mut Vec<Finding>) {
    let schema = ctx.schema;
    for host in schema.class_ids() {
        for decl in &schema.class(host).attrs {
            for entry in schema.excusers_of(host, decl.name) {
                // Structurally dead excuses are L002's finding.
                if !ctx.share_descendant(entry.excuser, host) {
                    continue;
                }
                if ctx.share_coherent_descendant(entry.excuser, host) {
                    continue;
                }
                // Justify "every shared descendant is incoherent" with the
                // derivation for one shared descendant at one attribute
                // where its constraint set admits nothing.
                let derivation = schema
                    .descendants_with_self(entry.excuser)
                    .filter(|&d| schema.is_subclass(d, host))
                    .find_map(|d| {
                        ctx.incoherent_at
                            .range((d, Sym::from_raw(0))..)
                            .next()
                            .filter(|&&(c, _)| c == d)
                            .map(|&(c, a)| chc_core::explain_admissibility(schema, c, a))
                    });
                out.push(Finding {
                    code: LintCode::UnreachableBranch,
                    level: LintLevel::Warn,
                    class: entry.excuser,
                    attr: Some(decl.name),
                    file: None,
                    query: None,
                    span: schema
                        .source_map()
                        .excuse_span(entry.excuser, decl.name, host)
                        .or_else(|| {
                            schema
                                .source_map()
                                .site_span(entry.excuser, Some(entry.attr))
                        }),
                    message: format!(
                        "conditional-type branch guarded by `{excuser}` in `{host}.{attr}` is \
                         unreachable: every class under both `{host}` and `{excuser}` is \
                         incoherent",
                        excuser = schema.class_name(entry.excuser),
                        host = schema.class_name(host),
                        attr = schema.resolve(decl.name),
                    ),
                    derivation,
                });
            }
        }
    }
}
