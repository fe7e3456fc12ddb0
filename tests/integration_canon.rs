//! Differential test of the checker's canonical range forms: on every
//! pair of ranges a schema declares for the same attribute, the
//! canonical `subsumes` / `overlaps` tests agree with the structural
//! `Range::subsumes` / `Range::overlaps`. The schema's declarer and
//! excuser index, and the canonical excusers read through it, agree with
//! a reference rebuilt by scanning every declaration's `excuses` clauses.

use std::collections::{BTreeMap, BTreeSet};

use excuses::core::canon::RangeTable;
use excuses::model::{ClassId, ExcuserEntry, Schema, Sym};
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
                r1.overlaps(r2),
                "overlaps: {}",
                what()
            );
        }
    }
}

/// The declarer and excuser index, rebuilt from the declarations alone.
struct Reference {
    /// Each attribute's declaring classes, in ascending id order.
    declarers: BTreeMap<Sym, Vec<ClassId>>,
    /// Each excused constraint `(on, attr)`'s excusers, in ascending
    /// excuser order and, within one excuser, in declaration order.
    excusers: BTreeMap<(ClassId, Sym), Vec<ExcuserEntry>>,
}

impl Reference {
    fn new(schema: &Schema) -> Self {
        let mut declarers: BTreeMap<Sym, Vec<ClassId>> = BTreeMap::new();
        let mut excusers: BTreeMap<(ClassId, Sym), Vec<ExcuserEntry>> = BTreeMap::new();
        for class in schema.class_ids() {
            for decl in &schema.class(class).attrs {
                declarers.entry(decl.name).or_default().push(class);
                for exc in &decl.spec.excuses {
                    excusers
                        .entry((exc.on, exc.attr))
                        .or_default()
                        .push(ExcuserEntry {
                            excuser: class,
                            attr: decl.name,
                        });
                }
            }
        }
        Reference {
            declarers,
            excusers,
        }
    }

    fn declarers_of(&self, attr: Sym) -> &[ClassId] {
        self.declarers.get(&attr).map_or(&[], Vec::as_slice)
    }

    fn declarers_on(&self, schema: &Schema, class: ClassId, attr: Sym) -> Vec<ClassId> {
        let all = self.declarers_of(attr).iter();
        all.filter(|&&d| schema.is_subclass(class, d))
            .copied()
            .collect()
    }

    fn excusers_of(&self, on: ClassId, attr: Sym) -> &[ExcuserEntry] {
        self.excusers.get(&(on, attr)).map_or(&[], Vec::as_slice)
    }
}

/// Every pair of ranges declared for the same attribute; the schema's
/// declarer and excuser index at every class, attribute and ancestor;
/// and the canonical excusers read through that index.
fn assert_canonical_agrees(schema: &Schema) {
    let table = RangeTable::new(schema);
    let reference = Reference::new(schema);
    // Class names are symbols no class declares as an attribute.
    let mut syms: BTreeSet<Sym> = reference.declarers.keys().copied().collect();
    syms.extend(schema.class_ids().map(|c| schema.class(c).name));
    for &attr in reference.declarers.keys() {
        let sites: Vec<_> = reference.declarers[&attr]
            .iter()
            .map(|&c| (c, attr))
            .collect();
        assert_pairs_agree(schema, &table, &sites);
    }
    let excused: BTreeSet<_> = schema.excused_constraints().collect();
    let expected: BTreeSet<_> = reference.excusers.keys().copied().collect();
    assert_eq!(excused, expected, "excused constraints");
    for &attr in &syms {
        let all = reference.declarers_of(attr);
        assert_eq!(schema.declarers_of(attr), all, "declarers of {attr:?}");
        for class in schema.class_ids() {
            let at = || format!("{}.{}", schema.class_name(class), schema.resolve(attr));
            let on = reference.declarers_on(schema, class, attr);
            let got: Vec<_> = schema.declarers_on(class, attr).collect();
            assert_eq!(got, on, "declarers on {}", at());
            let constraints = schema.constraints_on(class, attr);
            let got: Vec<_> = constraints.iter().map(|&(d, _)| d).collect();
            assert_eq!(got, on, "constraints on {}", at());
            for (d, spec) in constraints {
                assert_eq!(spec, &schema.declared_attr(d, attr).unwrap().spec);
            }
            assert_eq!(schema.has_attr(class, attr), !on.is_empty(), "has {}", at());
            assert_eq!(
                schema.excusers_of(class, attr),
                reference.excusers_of(class, attr),
                "excusers of {}",
                at()
            );
            for sup in schema.ancestors_with_self(class) {
                let expected: Vec<_> = reference
                    .excusers_of(sup, attr)
                    .iter()
                    .filter(|e| schema.is_subclass(class, e.excuser))
                    .collect();
                let got: Vec<_> = schema.applicable_excusers(class, sup, attr).collect();
                assert_eq!(got, expected, "{} under {}", at(), schema.class_name(sup));
                let canonical: Vec<_> = table.applicable_excusers(class, sup, attr).collect();
                let expected: Vec<_> = expected
                    .iter()
                    .map(|e| (e.excuser, table.decl(e.excuser, e.attr)))
                    .collect();
                assert_eq!(canonical, expected, "canonical {}", at());
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

/// Excuses that target a constraint the `on` class only inherits, and one
/// excuser whose two declarations excuse the same constraint.
#[test]
fn excuses_on_inherited_constraints_agree() {
    let schema = excuses::sdl::compile(
        "
        class Person with age: 1..120; years: 0..10;
        class Patient is-a Person;
        class Odd is-a Patient with
            age: 0..500 excuses age on Patient;
            years: 0..500 excuses age on Patient excuses years on Person;
        class Odder is-a Odd with age: 0..600 excuses age on Patient excuses age on Person;
        class Other is-a Person with age: 200..300 excuses age on Person;
        class Join is-a Odder, Other;
        ",
    )
    .unwrap();
    assert_canonical_agrees(&schema);
    let (patient, odd) = (
        schema.class_by_name("Patient").unwrap(),
        schema.class_by_name("Odd").unwrap(),
    );
    let age = schema.sym("age").unwrap();
    assert!(schema.declared_attr(patient, age).is_none());
    let excusers: Vec<_> = schema
        .excusers_of(patient, age)
        .iter()
        .map(|e| e.excuser)
        .collect();
    assert_eq!(excusers, [odd, odd, schema.class_by_name("Odder").unwrap()]);
    assert!(schema.excused_constraints().any(|c| c == (patient, age)));
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
