//! `perfbench gen`: a workload's inputs, from its seed alone.
//!
//! Every workload runs the same seven request kinds (check, lint, diff,
//! incremental check, validate, four queries, load), so every metric
//! exists on every workload; what differs is which inputs are large.
//! `schema-ci` runs the schema-side kinds on a 1600-class generated
//! hierarchy, `data-validate` runs validate and the queries on 100,000
//! patients, and `online-mix` runs a 50,000-op `chc load`. Every other
//! request of a workload runs on the 14-class hospital schema and a
//! 1,000-patient data file, so its figure should stay flat under a
//! change aimed at the large inputs.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

use chc_extent::ExtentStore;
use chc_model::{Range, Schema, SchemaBuilder, Value};
use chc_obs::json::JsonValue;
use chc_workloads::vignettes::{compiled, HOSPITAL};
use chc_workloads::{build_hospital, generate, single_class_edit, HierarchyParams, HospitalParams};

use crate::flag_value;

/// Input sizes. `tiny` exists for the benchmark's own smoke tests.
struct Scale {
    classes: usize,
    big_patients: usize,
    small_patients: usize,
    light_ops: u64,
    heavy_ops: u64,
}

const FULL: Scale = Scale {
    classes: 1600,
    big_patients: 100_000,
    small_patients: 1_000,
    light_ops: 20_000,
    heavy_ops: 50_000,
};

const TINY: Scale = Scale {
    classes: 60,
    big_patients: 2_000,
    small_patients: 400,
    light_ops: 500,
    heavy_ops: 2_000,
};

/// The four query shapes of `examples/data/hospital_queries.chq`.
const QUERIES: [(&str, &str); 4] = [
    ("safe", "for p in Patient emit p.treatedAt.location.city"),
    (
        "hazardous",
        "for p in Patient emit p.treatedAt.location.state",
    ),
    (
        "guarded",
        "for p in Patient where p not in Tubercular_Patient emit p.treatedAt.location.state",
    ),
    ("narrow", "for a in Alcoholic emit a.treatedBy.name"),
];

pub fn main(args: &[String]) -> Result<(), String> {
    let workload = flag_value(args, "--workload").ok_or("gen needs --workload")?;
    if !["schema-ci", "data-validate", "online-mix"].contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (schema-ci|data-validate|online-mix)"
        ));
    }
    let seed: u64 = flag_value(args, "--seed")
        .ok_or("gen needs --seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let out = Path::new(flag_value(args, "--out").ok_or("gen needs --out")?);
    let scale = match flag_value(args, "--scale").unwrap_or("full") {
        "full" => &FULL,
        "tiny" => &TINY,
        other => return Err(format!("unknown --scale `{other}` (full|tiny)")),
    };
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let write = |name: &str, body: &str| {
        std::fs::write(out.join(name), body).map_err(|e| format!("{name}: {e}"))
    };

    let (hospital, hospital_edited, hospital_edit) = hospital_pair()?;
    write("H.sdl", &hospital)?;
    write("H2.sdl", &hospital_edited)?;
    write(
        "queries.chq",
        &QUERIES
            .iter()
            .map(|(_, q)| format!("{q};\n"))
            .collect::<String>(),
    )?;
    let small = hospital_data(scale.small_patients, seed)?;
    write("D_small.chd", &small.text)?;

    let mut requests = Vec::new();
    // Schema side: the generated hierarchy on schema-ci, else the hospital.
    let (schema_file, edited_file, edit, classes) = if workload == "schema-ci" {
        // The hierarchy keeps the generator's default seed: check time
        // differs up to 2x between 1600-class hierarchies drawn from
        // different seeds, which would swamp any change being measured.
        // The workload seed picks the edited site instead.
        let gen = generate(&HierarchyParams {
            classes: scale.classes,
            ..HierarchyParams::default()
        });
        let (edited, (class, attr)) = single_class_edit(&gen, (seed % 8) as usize);
        write("S.sdl", &chc_sdl::print_schema(&gen.schema))?;
        write("S2.sdl", &chc_sdl::print_schema(&edited))?;
        let edit = Edit {
            class: gen.schema.class_name(class).to_string(),
            attr: gen.schema.resolve(attr).to_string(),
        };
        ("S.sdl", "S2.sdl", edit, gen.schema.num_classes())
    } else {
        let classes = compiled(HOSPITAL).num_classes();
        ("H.sdl", "H2.sdl", hospital_edit, classes)
    };
    requests.push(request(
        "check",
        &["check", schema_file],
        [("exit", num(0)), ("classes", num(classes))],
    ));
    requests.push(request("lint", &["lint", schema_file], []));
    requests.push(request(
        "diff",
        &["diff", "--format", "json", schema_file, edited_file],
        [
            ("edits", num(1)),
            ("class", JsonValue::string(&edit.class)),
            ("attr", JsonValue::string(&edit.attr)),
        ],
    ));
    requests.push(request(
        "incremental",
        &[
            "check",
            "--incremental",
            "--since",
            schema_file,
            edited_file,
        ],
        [(
            "same_as",
            JsonValue::array(["check", edited_file].map(JsonValue::string)),
        )],
    ));

    // Data side: 100,000 patients on data-validate, else the small file.
    let data = if workload == "data-validate" {
        let big = hospital_data(scale.big_patients, seed)?;
        write("D.chd", &big.text)?;
        Some(big)
    } else {
        None
    };
    let (data_file, d) = match &data {
        Some(big) => ("D.chd", big),
        None => ("D_small.chd", &small),
    };
    requests.push(request(
        "validate",
        &["validate", "H.sdl", data_file],
        [
            ("exit", num(1)),
            ("objects", num(d.objects)),
            (
                "invalid",
                JsonValue::array(d.invalid.iter().map(|n| JsonValue::string(n))),
            ),
        ],
    ));
    for (shape, text) in QUERIES {
        let rows = match shape {
            "safe" => d.patients,
            "hazardous" | "guarded" => d.patients - d.tubercular,
            _ => d.alcoholic,
        };
        requests.push(request(
            "query",
            &["query", "H.sdl", data_file, text],
            [("rows", num(rows))],
        ));
    }

    // The online mix: heavy on online-mix, light elsewhere.
    let ops = if workload == "online-mix" {
        scale.heavy_ops
    } else {
        scale.light_ops
    };
    let (ops_s, seed_s) = (ops.to_string(), seed.to_string());
    requests.push(request(
        "load",
        &[
            "load",
            "H.sdl",
            "D_small.chd",
            "--threads",
            "2",
            "--ops",
            &ops_s,
            "--seed",
            &seed_s,
        ],
        [("ops", num(ops as usize))],
    ));

    let doc = JsonValue::object([
        ("workload", JsonValue::string(workload)),
        ("seed", JsonValue::string(&seed_s)),
        ("requests", JsonValue::array(requests)),
    ]);
    write("requests.json", &(doc.render() + "\n"))
}

fn num(n: usize) -> JsonValue {
    JsonValue::number(n as f64)
}

fn request<'a>(
    kind: &str,
    args: &[&str],
    expect: impl IntoIterator<Item = (&'a str, JsonValue)>,
) -> JsonValue {
    JsonValue::object([
        ("kind", JsonValue::string(kind)),
        (
            "args",
            JsonValue::array(args.iter().map(|a| JsonValue::string(a))),
        ),
        ("expect", JsonValue::object(expect)),
    ])
}

/// The site of one schema edit.
struct Edit {
    class: String,
    attr: String,
}

/// The hospital vignette, and the same schema with `Address.state`
/// narrowed to half its tokens: one refining edit for `chc diff` and
/// `chc check --incremental` on the small schema.
fn hospital_pair() -> Result<(String, String, Edit), String> {
    let schema = compiled(HOSPITAL);
    let (class_name, attr_name) = ("Address", "state");
    let class = schema
        .class_by_name(class_name)
        .ok_or("hospital has no Address")?;
    let attr = schema.sym(attr_name).ok_or("hospital has no state")?;
    let mut b = SchemaBuilder::from_schema(&schema);
    let mut spec = b
        .attr_spec(class, attr)
        .ok_or("Address.state is not declared")?
        .clone();
    if let Range::Enum(tokens) = &spec.range {
        let keep: Vec<_> = tokens
            .iter()
            .copied()
            .take(tokens.len().div_ceil(2))
            .collect();
        spec.range = Range::enumeration(keep).map_err(|e| e.to_string())?;
    }
    b.set_attr_spec(class, attr, spec)
        .map_err(|e| e.to_string())?;
    let edited = b.build().map_err(|e| e.to_string())?;
    Ok((
        chc_sdl::print_schema(&schema),
        chc_sdl::print_schema(&edited),
        Edit {
            class: class_name.to_string(),
            attr: attr_name.to_string(),
        },
    ))
}

/// A generated hospital data file and the answers it implies.
struct HospitalData {
    text: String,
    objects: usize,
    patients: usize,
    tubercular: usize,
    alcoholic: usize,
    /// Seeded objects known to be invalid, by name.
    invalid: Vec<String>,
}

/// `patients` patients from [`build_hospital`] (default 5/5/5%
/// exceptional fractions), plus three to five seeded `Patient`s treated
/// by a `Psychologist`, which violates `Patient.treatedBy: Physician`
/// with no excuse. Fails unless the written file loads back to the
/// generator's object count.
fn hospital_data(patients: usize, seed: u64) -> Result<HospitalData, String> {
    let db = build_hospital(&HospitalParams {
        patients,
        seed,
        ..HospitalParams::default()
    });
    let schema = &db.virtualized.schema;
    let ids = &db.ids;
    let (mut text, objects) = write_chd(schema, &db.store);
    let psychologist = db
        .store
        .extent(ids.psychologist)
        .next()
        .expect("a psychologist");
    let hospital = db
        .store
        .extent(ids.hospital)
        .find(|&h| db.store.get_attr(h, ids.accreditation).is_some())
        .expect("an accredited hospital");
    let ward_class = schema.class_by_name("Ward").expect("hospital has Ward");
    let ward = db.store.extent(ward_class).next().expect("a ward");
    let invalid: Vec<String> = (0..3 + seed % 3).map(|i| format!("bad{i}")).collect();
    for (i, name) in invalid.iter().enumerate() {
        let _ = writeln!(
            text,
            "{name} : Patient {{ age = {}, name = \"Bad{i}\", treatedAt = @o{}, treatedBy = @o{}, ward = @o{} }}",
            30 + i,
            hospital.raw(),
            psychologist.raw(),
            ward.raw()
        );
    }
    let objects = objects + invalid.len();
    let loaded = chc_extent::load_data(schema, &text).map_err(|e| format!("written .chd: {e}"))?;
    if loaded.names.len() != objects {
        return Err(format!(
            "written .chd loads {} objects, the generator made {objects}",
            loaded.names.len()
        ));
    }
    Ok(HospitalData {
        text,
        objects,
        patients: db.patients.len() + invalid.len(),
        tubercular: db.store.count(ids.tubercular),
        alcoholic: db.store.count(ids.alcoholic),
        invalid,
    })
}

/// Writes every object of `store` as `.chd` text: one line per object,
/// in surrogate order, named `o<surrogate>`, listing its most specific
/// non-virtual classes and its attributes sorted by name. Returns the
/// text and the object count.
fn write_chd(schema: &Schema, store: &ExtentStore) -> (String, usize) {
    let objects: BTreeSet<_> = schema.class_ids().flat_map(|c| store.extent(c)).collect();
    let mut out = String::new();
    for &oid in &objects {
        let member = store.classes_of(oid);
        let concrete: Vec<_> = member
            .iter()
            .copied()
            .filter(|&c| !schema.class(c).is_virtual())
            .collect();
        let leaves: Vec<&str> = concrete
            .iter()
            .copied()
            .filter(|&c| !concrete.iter().any(|&d| d != c && schema.is_subclass(d, c)))
            .map(|c| schema.class_name(c))
            .collect();
        let mut attrs = BTreeMap::new();
        for &c in &member {
            for attr in schema.applicable_attrs(c) {
                if let Some(text) = store.get_attr(oid, attr).and_then(|v| chd_value(schema, v)) {
                    attrs.insert(schema.resolve(attr), text);
                }
            }
        }
        let fields: Vec<String> = attrs.iter().map(|(a, v)| format!("{a} = {v}")).collect();
        let _ = writeln!(
            out,
            "o{} : {} {{ {} }}",
            oid.raw(),
            leaves.join(", "),
            fields.join(", ")
        );
    }
    (out, objects.len())
}

/// A value in `.chd` syntax; `None` for [`Value::Absent`], which the
/// format writes by leaving the attribute out.
fn chd_value(schema: &Schema, value: &Value) -> Option<String> {
    Some(match value {
        Value::Int(i) => i.to_string(),
        Value::Str(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        Value::Tok(t) => format!("'{}", schema.resolve(*t)),
        Value::Obj(o) => format!("@o{}", o.raw()),
        Value::Record(fields) => {
            let parts: Vec<String> = fields
                .iter()
                .filter_map(|(f, v)| {
                    Some(format!(
                        "{} = {}",
                        schema.resolve(*f),
                        chd_value(schema, v)?
                    ))
                })
                .collect();
            format!("[{}]", parts.join(", "))
        }
        Value::Absent => return None,
    })
}
