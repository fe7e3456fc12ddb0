//! `ExtentStore` against a model built from `BTreeSet`s and a `HashMap`:
//! seeded sequences of `create`, `add_to_class`, `remove_from_class`,
//! `destroy`, `set_attr` and `clear_attr` on a random 70-class DAG (so
//! membership spans two words per object), checking after every step the
//! ascending extents, `count`, `num_objects`, `exists`, `classes_of`,
//! `get_attr` and `follow_path`, and at the end the `extent.add_fanout` /
//! `extent.remove_fanout` counter totals.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;

use chc_extent::ExtentStore;
use chc_model::{ClassId, Oid, Schema, Sym, Value};
use chc_obs::{names, StatsRecorder};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const CLASSES: usize = 70;

/// A random DAG: each class has up to two earlier superclasses.
fn schema(rng: &mut Rng) -> Schema {
    let mut sdl = String::from("class C0 with a: C0; b: C0; n: 1..100;\n");
    for i in 1..CLASSES {
        let supers: BTreeSet<usize> = (0..1 + rng.below(2)).map(|_| rng.below(i)).collect();
        let supers: Vec<String> = supers.iter().map(|s| format!("C{s}")).collect();
        let _ = writeln!(sdl, "class C{i} is-a {};", supers.join(", "));
    }
    chc_sdl::compile(&sdl).unwrap()
}

#[derive(Default)]
struct Model {
    minted: u64,
    objects: BTreeMap<Oid, BTreeSet<ClassId>>,
    values: HashMap<(Oid, Sym), Value>,
    add_fanout: u64,
    remove_fanout: u64,
}

impl Model {
    fn follow_path(&self, oid: Oid, path: &[Sym]) -> Option<Value> {
        let (last, steps) = path.split_last()?;
        let mut cur = oid;
        for s in steps {
            match self.values.get(&(cur, *s)) {
                Some(Value::Obj(o)) => cur = *o,
                _ => return None,
            }
        }
        self.values.get(&(cur, *last)).cloned()
    }
}

fn check(schema: &Schema, store: &ExtentStore, model: &Model, syms: &[Sym], step: &str) {
    for class in schema.class_ids() {
        let want: Vec<Oid> = model
            .objects
            .iter()
            .filter(|(_, cs)| cs.contains(&class))
            .map(|(&o, _)| o)
            .collect();
        assert_eq!(
            store.extent(class).collect::<Vec<_>>(),
            want,
            "{step}: extent {class:?}"
        );
        assert_eq!(store.count(class), want.len(), "{step}");
    }
    assert_eq!(store.num_objects(), model.objects.len(), "{step}");
    // Every surrogate ever minted, plus one never minted.
    for raw in 0..=model.minted {
        let oid = Oid::from_raw(raw);
        let classes = model.objects.get(&oid);
        assert_eq!(store.exists(oid), classes.is_some(), "{step}: exists {oid}");
        let want: Vec<ClassId> = classes
            .map(|c| c.iter().copied().collect())
            .unwrap_or_default();
        assert_eq!(store.classes_of(oid), want, "{step}: classes_of {oid}");
        for &attr in syms {
            assert_eq!(
                store.get_attr(oid, attr),
                model.values.get(&(oid, attr)),
                "{step}"
            );
        }
        for path in [
            &syms[..1],
            &syms[..2],
            &[syms[0], syms[1], syms[2]],
            &[syms[1], syms[0]],
        ] {
            assert_eq!(
                store.follow_path(oid, path),
                model.follow_path(oid, path),
                "{step}"
            );
        }
    }
}

fn run(seed: u64, steps: usize) {
    let mut rng = Rng(seed);
    let schema = schema(&mut rng);
    let syms = [
        schema.sym("a").unwrap(),
        schema.sym("b").unwrap(),
        schema.sym("n").unwrap(),
    ];
    let class = |i: usize| ClassId::from_raw(i as u32);
    let rec = Arc::new(StatsRecorder::new());
    let _scope = chc_obs::scoped(rec.clone());
    let mut store = ExtentStore::new(&schema);
    let mut model = Model::default();
    for step in 0..steps {
        let live: Vec<Oid> = model.objects.keys().copied().collect();
        let any = Oid::from_raw(rng.below(model.minted as usize + 2) as u64);
        let pick = |rng: &mut Rng| live[rng.below(live.len())];
        let what = match rng.below(10) {
            _ if live.is_empty() => 0,
            n => n,
        };
        let desc = match what {
            0..=2 => {
                let classes: Vec<ClassId> = (0..rng.below(3))
                    .map(|_| class(rng.below(CLASSES)))
                    .collect();
                let oid = store.create(&schema, &classes);
                assert_eq!(oid, Oid::from_raw(model.minted), "dense surrogates");
                model.minted += 1;
                let closure: BTreeSet<ClassId> = classes
                    .iter()
                    .flat_map(|&c| schema.ancestors_with_self(c))
                    .collect();
                model.add_fanout += closure.len() as u64;
                model.objects.insert(oid, closure);
                format!("create {oid} in {classes:?}")
            }
            3 => {
                let (oid, c) = (pick(&mut rng), class(rng.below(CLASSES)));
                store.add_to_class(&schema, oid, c);
                let set = model.objects.get_mut(&oid).unwrap();
                for a in schema.ancestors_with_self(c) {
                    model.add_fanout += u64::from(set.insert(a));
                }
                format!("add {oid} to {c:?}")
            }
            4 => {
                let (oid, c) = (pick(&mut rng), class(rng.below(CLASSES)));
                store.remove_from_class(&schema, oid, c);
                let set = model.objects.get_mut(&oid).unwrap();
                for d in schema.descendants_with_self(c) {
                    model.remove_fanout += u64::from(set.remove(&d));
                }
                format!("remove {oid} from {c:?}")
            }
            5 => {
                store.destroy(any);
                model.objects.remove(&any);
                model.values.retain(|(o, _), _| *o != any);
                format!("destroy {any}")
            }
            6..=8 => {
                let (oid, attr) = (pick(&mut rng), syms[rng.below(3)]);
                let value = match rng.below(3) {
                    0 => Value::Int(rng.below(100) as i64),
                    _ => Value::Obj(Oid::from_raw(rng.below(model.minted as usize) as u64)),
                };
                store.set_attr(oid, attr, value.clone());
                model.values.insert((oid, attr), value);
                format!("set {oid}.{attr:?}")
            }
            _ => {
                let attr = syms[rng.below(3)];
                let had = model.values.remove(&(any, attr)).is_some();
                assert_eq!(store.clear_attr(any, attr), had, "clear {any}.{attr:?}");
                format!("clear {any}.{attr:?}")
            }
        };
        check(
            &schema,
            &store,
            &model,
            &syms,
            &format!("seed {seed} step {step}: {desc}"),
        );
    }
    assert_eq!(
        rec.counter_value(names::EXTENT_ADD_FANOUT),
        model.add_fanout,
        "seed {seed}"
    );
    assert_eq!(
        rec.counter_value(names::EXTENT_REMOVE_FANOUT),
        model.remove_fanout,
        "seed {seed}"
    );
}

#[test]
fn store_matches_the_model_on_seeded_operation_sequences() {
    for seed in 0..12 {
        run(seed, 300);
    }
}

#[test]
fn out_of_range_surrogates_are_absent() {
    let schema = chc_sdl::compile("class A with n: 1..9;").unwrap();
    let mut store = ExtentStore::new(&schema);
    let a = schema.class_by_name("A").unwrap();
    let n = schema.sym("n").unwrap();
    store.create(&schema, &[a]);
    for raw in [1, 2, u64::MAX] {
        let oid = Oid::from_raw(raw);
        assert!(!store.exists(oid) && !store.is_member(oid, a));
        assert!(store.classes_of(oid).is_empty());
        assert_eq!(store.get_attr(oid, n), None);
        assert!(!store.clear_attr(oid, n));
        store.destroy(oid);
    }
    assert_eq!(store.num_objects(), 1);
}
