//! The storage engine: horizontal partitioning vs. a single variant table.
//!
//! §5.5: "the obvious solution is to perform some form of 'horizontal
//! partitioning': store objects in the exceptional subclass in a logical
//! file with a distinct record format. […] This does imply that it is no
//! longer possible to associate with every attribute a single table where
//! all its values are stored. However, once again the type deduction
//! algorithm can then help reduce the run-time search for the file where
//! some particular object's attribute value is located."
//!
//! [`PartitionedStore`] implements the partitioning with three fetch
//! strategies (full scan, type-guided, and an oracle directory);
//! [`VariantStore`] implements the rejected single-table layout with
//! self-describing rows. Experiment E6 compares them.

use std::collections::HashMap;

use chc_extent::ExtentStore;
use chc_model::{ClassId, Oid, Schema, Sym, Value};

use crate::codec::{decode_variant, encode_variant, CodecError};
use crate::fragment::Fragment;
use crate::record::RecordFormat;

fn resolve_sym(raw: u32) -> Sym {
    Sym::from_raw(raw)
}

/// A fetch outcome plus the number of fragment probes it cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fetched {
    /// The value, if the object stores the attribute.
    pub value: Option<Value>,
    /// Fragment probes performed (hash lookups across logical files).
    pub probes: usize,
}

/// Horizontally partitioned storage: one fragment per *exceptionality
/// signature* (the subset of exceptional classes an object belongs to).
#[derive(Debug, Clone)]
pub struct PartitionedStore {
    /// The exceptional classes that drive partitioning.
    pub exceptional: Vec<ClassId>,
    fragments: Vec<(Vec<ClassId>, Fragment)>,
    directory: HashMap<Oid, usize>,
}

impl PartitionedStore {
    /// Materializes every instance of `root` from `store`, partitioned by
    /// which of `exceptional` classes each belongs to.
    pub fn build(
        schema: &Schema,
        store: &ExtentStore,
        root: ClassId,
        exceptional: &[ClassId],
    ) -> Result<PartitionedStore, CodecError> {
        let _span = chc_obs::span(chc_obs::names::SPAN_STORAGE_BUILD);
        let mut out = PartitionedStore {
            exceptional: exceptional.to_vec(),
            fragments: Vec::new(),
            directory: HashMap::new(),
        };
        for oid in store.extent(root) {
            let mut signature: Vec<ClassId> = exceptional
                .iter()
                .copied()
                .filter(|&c| store.is_member(oid, c))
                .collect();
            signature.sort();
            let idx = match out.fragments.iter().position(|(sig, _)| *sig == signature) {
                Some(i) => i,
                None => {
                    let mut classes = vec![root];
                    classes.extend(signature.iter().copied());
                    let format = RecordFormat::for_classes(schema, &classes);
                    out.fragments.push((signature.clone(), Fragment::new(format)));
                    out.fragments.len() - 1
                }
            };
            out.fragments[idx]
                .1
                .insert(oid, |attr| store.get_attr(oid, attr).cloned())?;
            out.directory.insert(oid, idx);
        }
        Ok(out)
    }

    /// Number of fragments (logical files).
    pub fn num_fragments(&self) -> usize {
        self.fragments.len()
    }

    /// Rows per fragment, for reporting.
    pub fn fragment_sizes(&self) -> Vec<(usize, usize)> {
        self.fragments
            .iter()
            .enumerate()
            .map(|(i, (_, f))| (i, f.len()))
            .collect()
    }

    /// Total encoded bytes.
    pub fn byte_len(&self) -> usize {
        self.fragments.iter().map(|(_, f)| f.byte_len()).sum()
    }

    fn read(&self, frag: &Fragment, oid: Oid, attr: Sym) -> Option<Value> {
        let row = frag.get(oid, resolve_sym)?.ok()?;
        row.into_iter().find(|(a, _)| *a == attr).map(|(_, v)| v)
    }

    /// Fetches with no type information: probe fragments in order until
    /// the object is found.
    pub fn fetch_scan(&self, oid: Oid, attr: Sym) -> Fetched {
        let mut probes = 0;
        for (_, frag) in &self.fragments {
            probes += 1;
            if frag.contains(oid) {
                chc_obs::counter(chc_obs::names::STORAGE_FRAGMENTS_PROBED, probes as u64);
                return Fetched { value: self.read(frag, oid, attr), probes };
            }
        }
        chc_obs::counter(chc_obs::names::STORAGE_FRAGMENTS_PROBED, probes as u64);
        Fetched { value: None, probes }
    }

    /// Fetches guided by type-deduced membership facts: fragments whose
    /// signature is incompatible with what is known about the object are
    /// skipped without probing.
    pub fn fetch_guided(
        &self,
        oid: Oid,
        attr: Sym,
        known_in: &[ClassId],
        known_not_in: &[ClassId],
    ) -> Fetched {
        let mut probes = 0;
        let mut skipped = 0u64;
        for (sig, frag) in &self.fragments {
            let compatible = known_not_in.iter().all(|c| !sig.contains(c))
                && known_in
                    .iter()
                    .filter(|c| self.exceptional.contains(c))
                    .all(|c| sig.contains(c));
            if !compatible {
                skipped += 1;
                continue;
            }
            probes += 1;
            if frag.contains(oid) {
                chc_obs::counter(chc_obs::names::STORAGE_FRAGMENTS_PROBED, probes as u64);
                chc_obs::counter(chc_obs::names::STORAGE_FRAGMENTS_SKIPPED, skipped);
                return Fetched { value: self.read(frag, oid, attr), probes };
            }
        }
        chc_obs::counter(chc_obs::names::STORAGE_FRAGMENTS_PROBED, probes as u64);
        chc_obs::counter(chc_obs::names::STORAGE_FRAGMENTS_SKIPPED, skipped);
        Fetched { value: None, probes }
    }

    /// Fetches through an exact oid→fragment directory (the lower bound a
    /// perfect index achieves; guided fetches approach it as knowledge
    /// grows).
    pub fn fetch_directory(&self, oid: Oid, attr: Sym) -> Fetched {
        chc_obs::counter(chc_obs::names::STORAGE_FRAGMENTS_PROBED, 1);
        match self.directory.get(&oid) {
            Some(&idx) => Fetched {
                value: self.read(&self.fragments[idx].1, oid, attr),
                probes: 1,
            },
            None => Fetched { value: None, probes: 1 },
        }
    }
}

/// The rejected alternative: one table whose rows are self-describing
/// variant records (tag bytes everywhere, §5.5's "indistinguishable
/// bit-string representations" problem solved by paying per-value tags).
#[derive(Debug, Clone)]
pub struct VariantStore {
    bytes: Vec<u8>,
    directory: HashMap<Oid, (usize, usize)>,
}

impl VariantStore {
    /// Materializes every instance of `root` into one variant table.
    pub fn build(schema: &Schema, store: &ExtentStore, root: ClassId) -> VariantStore {
        let mut out = VariantStore { bytes: Vec::new(), directory: HashMap::new() };
        for oid in store.extent(root) {
            let mut row: Vec<(Sym, Value)> = Vec::new();
            for attr in schema.applicable_attrs(root) {
                if let Some(v) = store.get_attr(oid, attr) {
                    row.push((attr, v.clone()));
                }
            }
            // Exceptional subclasses may store attrs the root never
            // declares (lumpSum, country); sweep the object's classes.
            for class in store.classes_of(oid) {
                for attr in schema.applicable_attrs(class) {
                    if row.iter().all(|(a, _)| *a != attr) {
                        if let Some(v) = store.get_attr(oid, attr) {
                            row.push((attr, v.clone()));
                        }
                    }
                }
            }
            let start = out.bytes.len();
            encode_variant(&row, &mut out.bytes);
            out.directory.insert(oid, (start, out.bytes.len() - start));
        }
        out
    }

    /// Fetches an attribute by decoding the full variant row.
    pub fn fetch(&self, oid: Oid, attr: Sym) -> Fetched {
        match self.directory.get(&oid) {
            Some(&(start, len)) => {
                let row = decode_variant(&self.bytes[start..start + len], resolve_sym)
                    .expect("self-encoded rows decode");
                Fetched {
                    value: row.into_iter().find(|(a, _)| *a == attr).map(|(_, v)| v),
                    probes: 1,
                }
            }
            None => Fetched { value: None, probes: 1 },
        }
    }

    /// Total encoded bytes (bigger than the partitioned layout: tags and
    /// attribute ids are stored per row).
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_workloads::{build_hospital, HospitalParams};

    fn db() -> chc_workloads::HospitalDb {
        build_hospital(&HospitalParams {
            patients: 300,
            tubercular_fraction: 0.1,
            alcoholic_fraction: 0.1,
            ambulatory_fraction: 0.1,
            ..Default::default()
        })
    }

    #[test]
    fn partitions_by_exceptional_signature() {
        let db = db();
        let s = &db.virtualized.schema;
        let part = PartitionedStore::build(
            s,
            &db.store,
            db.ids.patient,
            &[db.ids.tubercular, db.ids.alcoholic, db.ids.ambulatory],
        )
        .unwrap();
        // plain(+cancer), tb, alc, amb signatures appear.
        assert_eq!(part.num_fragments(), 4);
        let total: usize = part.fragment_sizes().iter().map(|(_, n)| n).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn all_strategies_agree_on_values() {
        let db = db();
        let s = &db.virtualized.schema;
        let part = PartitionedStore::build(
            s,
            &db.store,
            db.ids.patient,
            &[db.ids.tubercular, db.ids.alcoholic, db.ids.ambulatory],
        )
        .unwrap();
        let variant = VariantStore::build(s, &db.store, db.ids.patient);
        for &p in db.patients.iter().take(50) {
            for attr in [db.ids.name, db.ids.age, db.ids.treated_by, db.ids.ward] {
                let a = part.fetch_scan(p, attr).value;
                let b = part.fetch_directory(p, attr).value;
                let c = part.fetch_guided(p, attr, &[], &[]).value;
                let d = variant.fetch(p, attr).value;
                assert_eq!(a, b);
                assert_eq!(a, c);
                assert_eq!(a, d);
                assert_eq!(a, db.store.get_attr(p, attr).cloned());
            }
        }
    }

    #[test]
    fn guided_fetch_probes_fewer_fragments() {
        let db = db();
        let s = &db.virtualized.schema;
        let part = PartitionedStore::build(
            s,
            &db.store,
            db.ids.patient,
            &[db.ids.tubercular, db.ids.alcoholic, db.ids.ambulatory],
        )
        .unwrap();
        // A patient known (by type deduction from a guard) to be plain.
        let plain = db
            .patients
            .iter()
            .copied()
            .find(|&p| {
                !db.store.is_member(p, db.ids.tubercular)
                    && !db.store.is_member(p, db.ids.alcoholic)
                    && !db.store.is_member(p, db.ids.ambulatory)
            })
            .unwrap();
        let guided = part.fetch_guided(
            plain,
            db.ids.name,
            &[],
            &[db.ids.tubercular, db.ids.alcoholic, db.ids.ambulatory],
        );
        assert_eq!(guided.probes, 1, "knowledge pins the fragment");
        let scan = part.fetch_scan(plain, db.ids.name);
        assert!(scan.probes >= guided.probes);
        assert_eq!(guided.value, scan.value);

        // Positive knowledge pins an exceptional fragment directly.
        let tb = db
            .patients
            .iter()
            .copied()
            .find(|&p| db.store.is_member(p, db.ids.tubercular))
            .unwrap();
        let guided_tb = part.fetch_guided(tb, db.ids.name, &[db.ids.tubercular], &[]);
        assert_eq!(guided_tb.probes, 1);
    }

    #[test]
    fn variant_table_is_larger_than_partitioned() {
        let db = db();
        let s = &db.virtualized.schema;
        let part = PartitionedStore::build(
            s,
            &db.store,
            db.ids.patient,
            &[db.ids.tubercular, db.ids.alcoholic, db.ids.ambulatory],
        )
        .unwrap();
        let variant = VariantStore::build(s, &db.store, db.ids.patient);
        assert!(
            variant.byte_len() > part.byte_len(),
            "variant {} <= partitioned {}",
            variant.byte_len(),
            part.byte_len()
        );
    }

    #[test]
    fn missing_objects_and_attrs() {
        let db = db();
        let s = &db.virtualized.schema;
        let part = PartitionedStore::build(s, &db.store, db.ids.patient, &[db.ids.tubercular])
            .unwrap();
        let ghost = Oid::from_raw(u64::MAX);
        assert_eq!(part.fetch_scan(ghost, db.ids.name).value, None);
        assert_eq!(part.fetch_directory(ghost, db.ids.name).value, None);
        // An ambulatory patient's ward is genuinely absent.
        if let Some(amb) = db
            .patients
            .iter()
            .copied()
            .find(|&p| db.store.is_member(p, db.ids.ambulatory))
        {
            assert_eq!(part.fetch_directory(amb, db.ids.ward).value, None);
        }
    }
}
