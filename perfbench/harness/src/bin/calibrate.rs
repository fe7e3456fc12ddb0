//! A fixed unit of work for measuring the host's current speed.
//!
//! Shared build hosts speed up and slow down by a third over minutes,
//! which moves every timing alike. The benchmark runs this binary
//! between requests and scales each timing by how long it took nearby.
//! It uses only the standard library and its default allocator, so no
//! change to the code under test can move it.

use std::collections::BTreeMap;
use std::hint::black_box;

fn main() {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut keys = Vec::with_capacity(40_000);
    let mut map = BTreeMap::new();
    for i in 0..40_000u64 {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let key = format!("k{}", (z ^ (z >> 31)) % 1_000_000);
        map.insert(key.clone(), i);
        keys.push(key);
    }
    keys.sort();
    let hits = keys.iter().filter(|k| map.contains_key(*k)).count();
    black_box(hits);
}
