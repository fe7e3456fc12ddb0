//! Byte-level row encoding.
//!
//! Two codecs, matching §5.5's two layouts:
//!
//! * [`encode_fixed`]/[`decode_fixed`] — a format-directed codec: the
//!   [`RecordFormat`] fixes each field's kind, so no per-value tags are
//!   stored (strings and tuples are length-prefixed). This is the codec of
//!   a homogeneous fragment.
//! * [`encode_variant`]/[`decode_variant`] — a self-describing codec with
//!   a tag byte per field, for the single-table layout where "different
//!   values with indistinguishable bit-string representations" would
//!   otherwise collide.

use chc_model::{Oid, Sort, Sym, Value};

use crate::record::RecordFormat;

/// A decoding failure (corrupt bytes or format mismatch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended prematurely.
    Truncated,
    /// A tag byte was not recognized.
    BadTag(u8),
    /// A stored value's kind contradicts the format.
    KindMismatch,
    /// Trailing bytes after a complete row.
    TrailingBytes,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "row bytes truncated"),
            CodecError::BadTag(t) => write!(f, "unrecognized value tag {t:#x}"),
            CodecError::KindMismatch => write!(f, "value kind contradicts record format"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after row"),
        }
    }
}

impl std::error::Error for CodecError {}

const PRESENT: u8 = 1;
const ABSENT: u8 = 0;

/// Encodes a row under a fixed format. `values` supplies the value per
/// attribute (missing entries encode as absent). Fields of kind
/// [`Sort::Absent`] store only a zero presence byte.
pub fn encode_fixed(
    format: &RecordFormat,
    mut lookup: impl FnMut(Sym) -> Option<Value>,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    for &(attr, kind) in &format.fields {
        match lookup(attr) {
            None | Some(Value::Absent) => out.push(ABSENT),
            Some(v) => {
                out.push(PRESENT);
                encode_payload(kind, &v, out)?;
            }
        }
    }
    Ok(())
}

fn encode_payload(kind: Sort, v: &Value, out: &mut Vec<u8>) -> Result<(), CodecError> {
    match (kind, v) {
        (Sort::Int, Value::Int(i)) => out.extend_from_slice(&i.to_le_bytes()),
        (Sort::Token, Value::Tok(s)) => {
            out.extend_from_slice(&(s.index() as u32).to_le_bytes())
        }
        (Sort::Entity, Value::Obj(o)) => out.extend_from_slice(&o.raw().to_le_bytes()),
        (Sort::Str, Value::Str(s)) => {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        (Sort::Record, Value::Record(fields)) => {
            out.extend_from_slice(&(fields.len() as u32).to_le_bytes());
            for (name, value) in fields.iter() {
                out.extend_from_slice(&(name.index() as u32).to_le_bytes());
                encode_variant_value(value, out);
            }
        }
        _ => return Err(CodecError::KindMismatch),
    }
    Ok(())
}

/// Decodes a fixed-format row into `(attr, value)` pairs (absent fields
/// omitted).
pub fn decode_fixed(
    format: &RecordFormat,
    bytes: &[u8],
    resolve_sym: impl Fn(u32) -> Sym + Copy,
) -> Result<Vec<(Sym, Value)>, CodecError> {
    let mut at = 0usize;
    let mut out = Vec::new();
    for &(attr, kind) in &format.fields {
        let presence = *bytes.get(at).ok_or(CodecError::Truncated)?;
        at += 1;
        if presence == ABSENT {
            continue;
        }
        let v = decode_payload(kind, bytes, &mut at, resolve_sym)?;
        out.push((attr, v));
    }
    if at != bytes.len() {
        return Err(CodecError::TrailingBytes);
    }
    Ok(out)
}

fn decode_payload(
    kind: Sort,
    bytes: &[u8],
    at: &mut usize,
    resolve_sym: impl Fn(u32) -> Sym + Copy,
) -> Result<Value, CodecError> {
    match kind {
        Sort::Int => Ok(Value::Int(i64::from_le_bytes(take(bytes, at)?))),
        Sort::Token => {
            let raw = u32::from_le_bytes(take(bytes, at)?);
            Ok(Value::Tok(resolve_sym(raw)))
        }
        Sort::Entity => Ok(Value::Obj(Oid::from_raw(u64::from_le_bytes(take(bytes, at)?)))),
        Sort::Str => {
            let len = u32::from_le_bytes(take(bytes, at)?) as usize;
            let s = bytes.get(*at..*at + len).ok_or(CodecError::Truncated)?;
            *at += len;
            Ok(Value::Str(String::from_utf8_lossy(s).into_owned().into()))
        }
        Sort::Record => {
            let n = u32::from_le_bytes(take(bytes, at)?) as usize;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let name = resolve_sym(u32::from_le_bytes(take(bytes, at)?));
                let v = decode_variant_value(bytes, at, resolve_sym)?;
                fields.push((name, v));
            }
            Ok(Value::record(fields))
        }
        Sort::Absent => Err(CodecError::KindMismatch),
    }
}

fn take<const N: usize>(bytes: &[u8], at: &mut usize) -> Result<[u8; N], CodecError> {
    let s = bytes.get(*at..*at + N).ok_or(CodecError::Truncated)?;
    *at += N;
    Ok(s.try_into().expect("slice length checked"))
}

// ---- self-describing (variant) codec ----

const TAG_INT: u8 = 0x10;
const TAG_TOK: u8 = 0x11;
const TAG_STR: u8 = 0x12;
const TAG_OBJ: u8 = 0x13;
const TAG_REC: u8 = 0x14;
const TAG_ABSENT: u8 = 0x15;

/// Encodes one value with a leading tag byte.
pub fn encode_variant_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Tok(s) => {
            out.push(TAG_TOK);
            out.extend_from_slice(&(s.index() as u32).to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Obj(o) => {
            out.push(TAG_OBJ);
            out.extend_from_slice(&o.raw().to_le_bytes());
        }
        Value::Record(fields) => {
            out.push(TAG_REC);
            out.extend_from_slice(&(fields.len() as u32).to_le_bytes());
            for (name, value) in fields.iter() {
                out.extend_from_slice(&(name.index() as u32).to_le_bytes());
                encode_variant_value(value, out);
            }
        }
        Value::Absent => out.push(TAG_ABSENT),
    }
}

/// Decodes one tagged value.
pub fn decode_variant_value(
    bytes: &[u8],
    at: &mut usize,
    resolve_sym: impl Fn(u32) -> Sym + Copy,
) -> Result<Value, CodecError> {
    let tag = *bytes.get(*at).ok_or(CodecError::Truncated)?;
    *at += 1;
    match tag {
        TAG_INT => Ok(Value::Int(i64::from_le_bytes(take(bytes, at)?))),
        TAG_TOK => Ok(Value::Tok(resolve_sym(u32::from_le_bytes(take(bytes, at)?)))),
        TAG_STR => {
            let len = u32::from_le_bytes(take(bytes, at)?) as usize;
            let s = bytes.get(*at..*at + len).ok_or(CodecError::Truncated)?;
            *at += len;
            Ok(Value::Str(String::from_utf8_lossy(s).into_owned().into()))
        }
        TAG_OBJ => Ok(Value::Obj(Oid::from_raw(u64::from_le_bytes(take(bytes, at)?)))),
        TAG_REC => {
            let n = u32::from_le_bytes(take(bytes, at)?) as usize;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let name = resolve_sym(u32::from_le_bytes(take(bytes, at)?));
                let v = decode_variant_value(bytes, at, resolve_sym)?;
                fields.push((name, v));
            }
            Ok(Value::record(fields))
        }
        TAG_ABSENT => Ok(Value::Absent),
        other => Err(CodecError::BadTag(other)),
    }
}

/// Encodes a whole row self-describingly: field count, then
/// `(sym, tagged value)` pairs.
pub fn encode_variant(fields: &[(Sym, Value)], out: &mut Vec<u8>) {
    out.extend_from_slice(&(fields.len() as u32).to_le_bytes());
    for (name, value) in fields {
        out.extend_from_slice(&(name.index() as u32).to_le_bytes());
        encode_variant_value(value, out);
    }
}

/// Decodes a self-describing row.
pub fn decode_variant(
    bytes: &[u8],
    resolve_sym: impl Fn(u32) -> Sym + Copy,
) -> Result<Vec<(Sym, Value)>, CodecError> {
    let mut at = 0usize;
    let n = u32::from_le_bytes(take(bytes, &mut at)?) as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name = resolve_sym(u32::from_le_bytes(take(bytes, &mut at)?));
        let v = decode_variant_value(bytes, &mut at, resolve_sym)?;
        out.push((name, v));
    }
    if at != bytes.len() {
        return Err(CodecError::TrailingBytes);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_model::{Interner, SchemaBuilder};

    fn syms(n: usize) -> (Interner, Vec<Sym>) {
        let mut i = Interner::new();
        let syms = (0..n).map(|k| i.intern(&format!("s{k}"))).collect();
        (i, syms)
    }

    #[test]
    fn fixed_round_trip_all_kinds() {
        let (_, s) = syms(6);
        let format = RecordFormat {
            fields: {
                let mut f = vec![
                    (s[0], Sort::Int),
                    (s[1], Sort::Token),
                    (s[2], Sort::Str),
                    (s[3], Sort::Entity),
                    (s[4], Sort::Absent),
                    (s[5], Sort::Record),
                ];
                f.sort_by_key(|(a, _)| *a);
                f
            },
        };
        let tuple = Value::record(vec![(s[0], Value::Int(1)), (s[1], Value::str("x"))]);
        let values = vec![
            (s[0], Value::Int(-42)),
            (s[1], Value::Tok(s[2])),
            (s[2], Value::str("hello")),
            (s[3], Value::Obj(Oid::from_raw(99))),
            (s[5], tuple.clone()),
        ];
        let mut bytes = Vec::new();
        encode_fixed(
            &format,
            |a| values.iter().find(|(n, _)| *n == a).map(|(_, v)| v.clone()),
            &mut bytes,
        )
        .unwrap();
        let resolve = |raw: u32| s[raw as usize];
        let decoded = decode_fixed(&format, &bytes, resolve).unwrap();
        let mut expect = values.clone();
        expect.sort_by_key(|(a, _)| *a);
        assert_eq!(decoded, expect);
    }

    #[test]
    fn kind_mismatch_rejected_at_encode() {
        let (_, s) = syms(1);
        let format = RecordFormat { fields: vec![(s[0], Sort::Int)] };
        let mut out = Vec::new();
        let err = encode_fixed(&format, |_| Some(Value::str("oops")), &mut out);
        assert_eq!(err, Err(CodecError::KindMismatch));
    }

    #[test]
    fn truncated_and_trailing_bytes_detected() {
        let (_, s) = syms(1);
        let format = RecordFormat { fields: vec![(s[0], Sort::Int)] };
        let mut bytes = Vec::new();
        encode_fixed(&format, |_| Some(Value::Int(7)), &mut bytes).unwrap();
        let resolve = |raw: u32| s[raw as usize];
        assert_eq!(
            decode_fixed(&format, &bytes[..bytes.len() - 1], resolve),
            Err(CodecError::Truncated)
        );
        let mut extra = bytes.clone();
        extra.push(0);
        assert_eq!(decode_fixed(&format, &extra, resolve), Err(CodecError::TrailingBytes));
    }

    #[test]
    fn variant_round_trip() {
        let (_, s) = syms(3);
        let row = vec![
            (s[0], Value::Absent),
            (s[1], Value::Int(5)),
            (s[2], Value::record(vec![(s[0], Value::Obj(Oid::from_raw(1)))])),
        ];
        let mut bytes = Vec::new();
        encode_variant(&row, &mut bytes);
        let resolve = |raw: u32| s[raw as usize];
        assert_eq!(decode_variant(&bytes, resolve).unwrap(), row);
    }

    #[test]
    fn bad_tag_rejected() {
        let (_, s) = syms(1);
        let bytes = [1u32.to_le_bytes().as_slice(), &0u32.to_le_bytes(), &[0xFF]].concat();
        let resolve = |raw: u32| s[raw as usize];
        assert_eq!(decode_variant(&bytes, resolve), Err(CodecError::BadTag(0xFF)));
    }

    // Randomized round-trip coverage, driven by the workspace's seeded
    // PRNG (the build is offline, so no proptest).

    fn random_string(rng: &mut chc_workloads::rng::SplitMix64) -> String {
        let len = rng.gen_range(0, 24);
        (0..len)
            .map(|_| {
                // Mix ASCII, escapes, and multi-byte scalars.
                match rng.gen_range(0, 3) {
                    0 => char::from(rng.gen_range(0x20, 0x7E) as u8),
                    1 => ['\0', '\n', '"', '\\', '\u{7f}'][rng.gen_range(0, 4)],
                    _ => char::from_u32(rng.gen_range(0x80, 0x2FFF) as u32).unwrap_or('é'),
                }
            })
            .collect()
    }

    #[test]
    fn prop_variant_round_trips() {
        let mut rng = chc_workloads::rng::SplitMix64::new(0xC0DEC);
        for _ in 0..256 {
            let mut b = SchemaBuilder::new();
            let mut row: Vec<(Sym, Value)> = Vec::new();
            let mut all_syms = Vec::new();
            for k in 0..rng.gen_range(0, 7) {
                let sym = b.intern(&format!("i{k}"));
                all_syms.push(sym);
                row.push((sym, Value::Int(rng.next_u64() as i64)));
            }
            for k in 0..rng.gen_range(0, 7) {
                let sym = b.intern(&format!("s{k}"));
                all_syms.push(sym);
                let s = random_string(&mut rng);
                row.push((sym, Value::str(&s)));
            }
            let mut bytes = Vec::new();
            encode_variant(&row, &mut bytes);
            // Symbol indexes are dense from 0, so resolve via position.
            let resolve = |raw: u32| all_syms[raw as usize];
            assert_eq!(decode_variant(&bytes, resolve).unwrap(), row);
        }
    }

    #[test]
    fn prop_fixed_round_trips_ints() {
        let mut rng = chc_workloads::rng::SplitMix64::new(0xF1C5ED);
        for _ in 0..256 {
            let vals: Vec<Option<i64>> = (0..rng.gen_range(1, 9))
                .map(|_| rng.gen_bool(0.7).then(|| rng.next_u64() as i64))
                .collect();
            let mut b = SchemaBuilder::new();
            let syms: Vec<Sym> = (0..vals.len()).map(|k| b.intern(&format!("f{k}"))).collect();
            let format = RecordFormat {
                fields: syms.iter().map(|&s| (s, Sort::Int)).collect(),
            };
            let mut bytes = Vec::new();
            encode_fixed(
                &format,
                |a| {
                    let idx = syms.iter().position(|&s| s == a).unwrap();
                    vals[idx].map(Value::Int)
                },
                &mut bytes,
            )
            .unwrap();
            let resolve = |raw: u32| syms[raw as usize];
            let decoded = decode_fixed(&format, &bytes, resolve).unwrap();
            let expect: Vec<(Sym, Value)> = syms
                .iter()
                .zip(&vals)
                .filter_map(|(&s, v)| v.map(|i| (s, Value::Int(i))))
                .collect();
            assert_eq!(decoded, expect);
        }
    }
}
