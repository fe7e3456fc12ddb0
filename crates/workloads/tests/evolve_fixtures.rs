//! Guards the committed `fixtures/evolve400-{old,new}.sdl` pair: a
//! 400-class generated hierarchy and the same hierarchy after one
//! [`single_class_edit`]. The pair feeds the `chc diff` /
//! `chc check --incremental --since` pins in `scripts/stdout.cksum` and
//! experiment E16, so it must stay byte-identical to what the generator
//! produces.
//!
//! To regenerate after changing the generator:
//! `cargo test -p chc-workloads --test evolve_fixtures regenerate -- --ignored`

use std::collections::BTreeMap;

use chc_model::Schema;
use chc_workloads::{generate, single_class_edit, HierarchyParams};

const OLD: &str = include_str!("../fixtures/evolve400-old.sdl");
const NEW: &str = include_str!("../fixtures/evolve400-new.sdl");

fn params() -> HierarchyParams {
    HierarchyParams { classes: 400, seed: 0xE16, ..Default::default() }
}

fn generated() -> (String, String) {
    let gen = generate(&params());
    let (evolved, _site) = single_class_edit(&gen, 0);
    (chc_sdl::print_schema(&gen.schema), chc_sdl::print_schema(&evolved))
}

#[test]
fn committed_fixtures_match_the_generator() {
    let (old, new) = generated();
    assert_eq!(OLD, old, "evolve400-old.sdl is stale; regenerate (see module docs)");
    assert_eq!(NEW, new, "evolve400-new.sdl is stale; regenerate (see module docs)");
}

/// Each class's diagnostics in `check(schema)`, as messages naming
/// classes, by class name.
fn messages_by_class(schema: &Schema) -> BTreeMap<String, Vec<String>> {
    let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for d in &chc_core::check(schema).diagnostics {
        let class = schema.class_name(d.class).to_string();
        out.entry(class).or_default().push(d.message(schema).to_string());
    }
    out
}

#[test]
fn classes_outside_the_cone_keep_their_diagnostics_on_the_fixture_pair() {
    let old = chc_sdl::compile(OLD).unwrap();
    let new = chc_sdl::compile(NEW).unwrap();
    for (from, to) in [(&old, &new), (&new, &old)] {
        let diff = chc_core::diff_schemas(from, to);
        assert!(!diff.edits.is_empty(), "the pair differs by one edit");
        let cone = chc_core::impact_cone(from, to, &diff);
        assert!(
            cone.classes.len() < to.num_classes() / 4,
            "a single-class edit must dirty a small cone, not the schema \
             ({} of {} classes dirty)",
            cone.classes.len(),
            to.num_classes()
        );
        let (before, after) = (messages_by_class(from), messages_by_class(to));
        for c in to.class_ids().filter(|c| !cone.classes.contains(c)) {
            let name = to.class_name(c);
            assert_eq!(after.get(name), before.get(name), "`{name}` is outside the cone");
        }
    }
}

#[test]
#[ignore = "writes the fixture files; run explicitly to regenerate"]
fn regenerate() {
    let (old, new) = generated();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures");
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(format!("{dir}/evolve400-old.sdl"), old).unwrap();
    std::fs::write(format!("{dir}/evolve400-new.sdl"), new).unwrap();
}
