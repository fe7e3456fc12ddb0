//! One fast hasher for text keys.
//!
//! The interner, the SDL parser's name index and the `.chd` loader's
//! object index hash short identifiers, hundreds of thousands of times per
//! input. [`FxHasher`] is the multiply-rotate hash of the Firefox and
//! rustc hash maps: a word of input costs one add and one multiply, where
//! the standard library's SipHash costs several rounds.
//!
//! It is **not** resistant to hash flooding: keys chosen to collide make a
//! map quadratic. Every key here comes from the user's own schema and data
//! files, so there is no adversary to flood the map; a test bounds the
//! time on names that share long prefixes, the shape an honest input can
//! have.

use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of rustc's `FxHasher`: odd, with its bits spread.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// An Fx-style streaming hasher: each word is added to the state and the
/// sum multiplied by [`K`].
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // The length keeps `"a"` and `"a\0"` apart.
            self.add(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The multiply leaves the best-mixed bits at the top; the rotation
    /// brings them down to the bits a hash table indexes its buckets by.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// The [`std::hash::BuildHasher`] for maps keyed by text: `HashMap<K, V,
/// FxBuildHasher>`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::{Interner, Sym};
    use std::hash::BuildHasher;

    fn hash(s: &str) -> u64 {
        FxBuildHasher::default().hash_one(s)
    }

    #[test]
    fn equal_keys_hash_equal_and_near_keys_apart() {
        assert_eq!(hash("Patient"), hash("Patient"));
        let near = ["", "a", "a\0", "b", "ab", "ba", "Patient", "Patient1"];
        for (i, x) in near.iter().enumerate() {
            for y in &near[i + 1..] {
                assert_ne!(hash(x), hash(y), "{x:?} vs {y:?}");
            }
        }
    }

    #[test]
    fn interning_names_that_share_a_long_prefix_stays_linear() {
        // 100,000 names that differ only after a 1 KB prefix take a few
        // seconds to intern and look up in a debug build. A hash that let
        // them share buckets would compare each new name with every
        // earlier one: hours, not seconds.
        let mut name = "p".repeat(1024);
        let mut with_suffix = |i: usize| {
            name.truncate(1024);
            name.push_str(&i.to_string());
            name.clone()
        };
        let start = std::time::Instant::now();
        let mut interner = Interner::new();
        let syms: Vec<Sym> = (0..100_000)
            .map(|i| interner.intern(&with_suffix(i)))
            .collect();
        for (i, &sym) in syms.iter().enumerate() {
            assert_eq!(interner.get(&with_suffix(i)), Some(sym));
        }
        let took = start.elapsed();
        assert_eq!(interner.len(), syms.len());
        assert!(took.as_secs_f64() < 30.0, "took {took:?}");
    }
}
