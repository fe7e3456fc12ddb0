//! Homogeneous row fragments — the "logical files with a distinct record
//! format" of §5.5's horizontal partitioning.

use std::collections::HashMap;

use chc_model::{Oid, Sym, Value};

use crate::codec::{decode_fixed, encode_fixed, CodecError};
use crate::record::RecordFormat;

/// One fragment: a byte heap of fixed-format rows plus an oid directory.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// The single record format of every row in this fragment.
    pub format: RecordFormat,
    bytes: Vec<u8>,
    directory: HashMap<Oid, (usize, usize)>,
    order: Vec<Oid>,
}

impl Fragment {
    /// An empty fragment with the given format.
    pub fn new(format: RecordFormat) -> Self {
        Fragment { format, bytes: Vec::new(), directory: HashMap::new(), order: Vec::new() }
    }

    /// Appends a row for `oid` built from `lookup`.
    pub fn insert(
        &mut self,
        oid: Oid,
        lookup: impl FnMut(Sym) -> Option<Value>,
    ) -> Result<(), CodecError> {
        let start = self.bytes.len();
        encode_fixed(&self.format, lookup, &mut self.bytes)?;
        self.directory.insert(oid, (start, self.bytes.len() - start));
        self.order.push(oid);
        Ok(())
    }

    /// Whether the fragment holds a row for `oid` (one hash probe — the
    /// unit of work experiment E6 counts).
    pub fn contains(&self, oid: Oid) -> bool {
        self.directory.contains_key(&oid)
    }

    /// Decodes the full row for `oid`.
    pub fn get(
        &self,
        oid: Oid,
        resolve_sym: impl Fn(u32) -> Sym + Copy,
    ) -> Option<Result<Vec<(Sym, Value)>, CodecError>> {
        let &(start, len) = self.directory.get(&oid)?;
        Some(decode_fixed(&self.format, &self.bytes[start..start + len], resolve_sym))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the fragment is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Total encoded size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Scans all rows in insertion order.
    pub fn scan<'a>(
        &'a self,
        resolve_sym: impl Fn(u32) -> Sym + Copy + 'a,
    ) -> impl Iterator<Item = (Oid, Result<Vec<(Sym, Value)>, CodecError>)> + 'a {
        self.order.iter().map(move |&oid| {
            let row = self.get(oid, resolve_sym).expect("oid in order is in directory");
            (oid, row)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_model::Sort;
    use chc_model::SchemaBuilder;

    #[test]
    fn insert_get_scan() {
        let mut b = SchemaBuilder::new();
        let age = b.intern("age");
        let name = b.intern("name");
        let mut fields = vec![(age, Sort::Int), (name, Sort::Str)];
        fields.sort_by_key(|(a, _)| *a);
        let mut frag = Fragment::new(RecordFormat { fields });
        let syms = [age, name];
        let resolve = move |raw: u32| syms.iter().copied().find(|s| s.index() == raw as usize).unwrap();
        for i in 0..10u64 {
            frag.insert(Oid::from_raw(i), |a| {
                if a == age {
                    Some(Value::Int(i as i64 + 20))
                } else {
                    Some(Value::str(&format!("p{i}")))
                }
            })
            .unwrap();
        }
        assert_eq!(frag.len(), 10);
        assert!(frag.contains(Oid::from_raw(3)));
        assert!(!frag.contains(Oid::from_raw(99)));
        let row = frag.get(Oid::from_raw(3), resolve).unwrap().unwrap();
        assert!(row.contains(&(age, Value::Int(23))));
        assert_eq!(frag.scan(resolve).count(), 10);
        assert!(frag.byte_len() > 0);
    }
}
