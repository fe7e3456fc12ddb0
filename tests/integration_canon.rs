//! Differential test of the checker's canonical range forms: on every
//! pair of ranges a schema declares for the same attribute, the
//! canonical `subsumes` / `overlaps` tests agree with the structural
//! `Range::subsumes` / `Range::overlaps`, and the canonical excuser index
//! agrees with `Schema::applicable_excusers`.

use excuses::core::canon::RangeTable;
use excuses::model::{ClassId, Schema, Sym};
use excuses::workloads::{generate, seed_contradictions, vignettes, HierarchyParams};

/// Compares the canonical tests against the structural ones on `pairs`
/// of declarations, given as `(class, attr)` sites.
fn assert_pairs_agree(schema: &Schema, table: &RangeTable<'_>, sites: &[(ClassId, Sym)]) {
    for &(c1, a1) in sites {
        let r1 = &schema.declared_attr(c1, a1).unwrap().spec.range;
        let id1 = table.decl(c1, a1);
        assert_eq!(
            table.range(id1),
            r1,
            "interned range differs from its declaration"
        );
        for &(c2, a2) in sites {
            let r2 = &schema.declared_attr(c2, a2).unwrap().spec.range;
            let id2 = table.decl(c2, a2);
            let what = || format!("{} vs {}", r1.render(schema), r2.render(schema));
            assert_eq!(
                table.subsumes(id1, id2),
                r1.subsumes(schema, r2),
                "subsumes: {}",
                what()
            );
            assert_eq!(
                table.overlaps(id1, id2),
                r1.overlaps(schema, r2),
                "overlaps: {}",
                what()
            );
        }
    }
}

/// Every pair of ranges declared for the same attribute, plus the
/// canonical excuser index at every inherited constraint.
fn assert_canonical_agrees(schema: &Schema) {
    let table = RangeTable::new(schema);
    let mut attrs: Vec<_> = schema
        .class_ids()
        .flat_map(|c| schema.class(c).attrs.iter().map(|d| d.name))
        .collect();
    attrs.sort();
    attrs.dedup();
    for &attr in &attrs {
        let sites: Vec<_> = schema
            .declarers_of(attr)
            .iter()
            .map(|&c| (c, attr))
            .collect();
        assert_pairs_agree(schema, &table, &sites);
        for class in schema.class_ids() {
            for &on in schema.declarers_of(attr) {
                if !schema.is_subclass(class, on) {
                    continue;
                }
                let canonical: Vec<_> = table.applicable_excusers(class, on, attr).collect();
                let structural: Vec<_> = schema
                    .applicable_excusers(class, on, attr)
                    .map(|e| (e.excuser, table.decl(e.excuser, e.attr)))
                    .collect();
                assert_eq!(
                    canonical,
                    structural,
                    "excusers of {}.{}",
                    schema.class_name(on),
                    schema.resolve(attr)
                );
            }
        }
    }
}

#[test]
fn generated_schemas_agree() {
    let shapes = [
        HierarchyParams {
            classes: 120,
            seed: 1,
            ..Default::default()
        },
        HierarchyParams {
            classes: 200,
            max_supers: 4,
            tokens: 70,
            seed: 2,
            ..Default::default()
        },
        HierarchyParams {
            classes: 150,
            redefine_rate: 0.8,
            contradiction_rate: 0.9,
            seed: 3,
            ..Default::default()
        },
        HierarchyParams {
            classes: 90,
            attrs: 3,
            tokens: 3,
            max_supers: 3,
            seed: 4,
            ..Default::default()
        },
    ];
    for params in &shapes {
        let gen = generate(params);
        assert_canonical_agrees(&gen.schema);
        // Dropping excuses leaves schemas with errors; the forms are the
        // same, the excuser index shrinks.
        let (broken, faults) = seed_contradictions(&gen, 12, params.seed);
        assert!(!faults.is_empty(), "seed {} seeded no faults", params.seed);
        assert!(!excuses::core::check(&broken).is_ok());
        assert_canonical_agrees(&broken);
    }
}

#[test]
fn paper_vignettes_agree() {
    for (name, src) in vignettes::all() {
        let schema = excuses::sdl::compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_canonical_agrees(&schema);
    }
}

/// The paper's edge cases, compared across *all* declared ranges (not
/// only same-attribute pairs), so every pair of range kinds meets.
#[test]
fn edge_case_ranges_agree_across_kinds() {
    let schema = excuses::sdl::compile(
        "
        class Address with street: String; city: String; state: {'AL, 'NJ, 'NY, 'WV};
        class Hospital with accreditation: {'Local, 'State, 'Federal}; location: Address;
        class Person with name: String; age: 1..120; anything: AnyEntity; count: Integer;
        class Physician is-a Person with certifiedBy: {'ABO, 'ABIM};
        class Psychologist is-a Person;
        class Oncologist is-a Physician with certifiedBy: {'ABO};
        class Patient is-a Person with treatedBy: Physician; treatedAt: Hospital; ward: Person;
        class Alcoholic is-a Patient with
            treatedBy: Psychologist excuses treatedBy on Patient;
        class Ambulatory_Patient is-a Patient with ward: None excuses ward on Patient;
        class Refined is-a Patient with
            treatedBy: Physician [certifiedBy: {'ABO}];
            anything: Oncologist;
            count: 0..10;
            age: 18..65;
        class Plain is-a Patient with treatedBy: Physician [];
        class Tubercular_Patient is-a Patient with
            treatedAt: Hospital [
                accreditation: None excuses accreditation on Hospital;
                location: Address [
                    state: None excuses state on Address;
                    country: {'Switzerland}
                ]
            ];
        class Record_Holder with home: [street: String; city: String];
        class Narrow_Holder is-a Record_Holder with home: [street: String; city: String; zip: 1..99999];
        ",
    )
    .unwrap();
    assert_canonical_agrees(&schema);
    let table = RangeTable::new(&schema);
    let all: Vec<_> = schema
        .class_ids()
        .flat_map(|c| schema.class(c).attrs.iter().map(move |d| (c, d.name)))
        .collect();
    assert_pairs_agree(&schema, &table, &all);
}
