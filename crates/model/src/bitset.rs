//! A compact fixed-capacity bit set, used for precomputed ancestor /
//! descendant closures over class identifiers.

/// A fixed-capacity set of small integers backed by `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Box<[u64]>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold values `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0u64; capacity.div_ceil(64)].into_boxed_slice(),
            capacity,
        }
    }

    /// The set as words: element `i` is bit `i % 64` of word `i / 64`.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The capacity this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `i`; returns whether it was newly inserted.
    ///
    /// # Panics
    /// Panics if `i >= capacity`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.capacity, "bit {i} out of capacity {}", self.capacity);
        let (w, b) = (i / 64, i % 64);
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Removes `i`; returns whether it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.capacity, "bit {i} out of capacity {}", self.capacity);
        let (w, b) = (i / 64, i % 64);
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Membership test; out-of-range values are simply absent.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Unions `other` into `self`.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// Whether the two sets share any element.
    pub fn intersects(&self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Whether every element of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// Number of elements present.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates the elements of `self ∩ other` in ascending order.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn intersection_iter<'a>(&'a self, other: &'a BitSet) -> impl Iterator<Item = usize> + 'a {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .enumerate()
            .flat_map(|(wi, (a, b))| {
                let mut bits = a & b;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        None
                    } else {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        Some(wi * 64 + b)
                    }
                })
            })
    }

    /// Iterates the elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(0));
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert!(!s.contains(0));
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(1000));
    }

    #[test]
    fn union_and_subset() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(3);
        b.insert(3);
        b.insert(77);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        a.union_with(&b);
        assert!(b.is_subset(&a));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut s = BitSet::new(200);
        for i in [5usize, 64, 65, 199, 0] {
            s.insert(i);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 5, 64, 65, 199]);
    }

    #[test]
    fn len_and_empty() {
        let mut s = BitSet::new(64);
        assert!(s.is_empty());
        s.insert(63);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }
}
