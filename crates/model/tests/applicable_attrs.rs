//! `Schema::applicable_attrs` reads the declarer bitsets. It must yield
//! the set the definition names — every attribute declared on the class
//! or on an ancestor — in ascending `Sym` order, as the collection over
//! each ancestor's declarations it replaced did.

use std::collections::BTreeSet;

use chc_model::{Schema, Sym};
use chc_workloads::{generate, seed_contradictions, vignettes, HierarchyParams};

/// The definition: the names declared on `class` and its ancestors,
/// collected and sorted.
fn by_definition(schema: &Schema, class: chc_model::ClassId) -> Vec<Sym> {
    let mut out = BTreeSet::new();
    for a in schema.ancestors_with_self(class) {
        out.extend(schema.class(a).attrs.iter().map(|d| d.name));
    }
    out.into_iter().collect()
}

fn assert_agrees(what: &str, schema: &Schema) {
    for class in schema.class_ids() {
        let got: Vec<Sym> = schema.applicable_attrs(class).collect();
        assert_eq!(
            got,
            by_definition(schema, class),
            "{what}: {}",
            schema.class_name(class)
        );
    }
}

#[test]
fn generated_schemas_agree() {
    for (max_supers, attrs, seed) in [(1, 8, 1), (2, 8, 2), (3, 20, 3), (4, 3, 4)] {
        let params = HierarchyParams {
            classes: 200,
            max_supers,
            attrs,
            seed,
            ..Default::default()
        };
        let gen = generate(&params);
        assert_agrees(&format!("seed {seed}"), &gen.schema);
        let (broken, _) = seed_contradictions(&gen, 10, seed);
        assert_agrees(&format!("seed {seed} with faults"), &broken);
    }
}

#[test]
fn the_vignettes_agree() {
    for (name, src) in vignettes::all() {
        assert_agrees(name, &vignettes::compiled(src));
    }
}
