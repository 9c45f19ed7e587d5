//! A compact dynamic bitset.
//!
//! Used for CACQ tuple lineage ("extra state, called tuple lineage, is
//! maintained with each tuple", §3.1) and for grouped-filter match sets:
//! with hundreds of standing queries, per-tuple query sets must be cheap to
//! copy, union, and iterate.

use std::fmt;

/// A growable bitset over `usize` indexes.
#[derive(Default)]
pub struct BitSet {
    words: Vec<u64>,
}

impl Clone for BitSet {
    fn clone(&self) -> Self {
        BitSet {
            words: self.words.clone(),
        }
    }

    /// Reuses `self`'s existing allocation: repeated `clone_from` into a
    /// scratch set is allocation-free once the scratch has grown to size.
    fn clone_from(&mut self, source: &Self) {
        self.words.clear();
        self.words.extend_from_slice(&source.words);
    }
}

impl PartialEq for BitSet {
    /// Content equality: trailing zero words are ignored.
    fn eq(&self, other: &Self) -> bool {
        let n = self.words.len().max(other.words.len());
        (0..n).all(|i| {
            self.words.get(i).copied().unwrap_or(0) == other.words.get(i).copied().unwrap_or(0)
        })
    }
}
impl Eq for BitSet {}

impl std::hash::Hash for BitSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash only up to the last nonzero word, consistent with PartialEq.
        let last = self
            .words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |i| i + 1);
        self.words[..last].hash(state);
    }
}

impl BitSet {
    /// An empty set.
    pub fn new() -> Self {
        BitSet::default()
    }

    /// An empty set with room for `bits` without reallocating.
    pub fn with_capacity(bits: usize) -> Self {
        BitSet {
            words: Vec::with_capacity(bits.div_ceil(64)),
        }
    }

    /// Set bit `i`.
    pub fn insert(&mut self, i: usize) {
        let w = i / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << (i % 64);
    }

    /// Clear bit `i`.
    pub fn remove(&mut self, i: usize) {
        let w = i / 64;
        if w < self.words.len() {
            self.words[w] &= !(1u64 << (i % 64));
        }
    }

    /// Test bit `i`.
    pub fn contains(&self, i: usize) -> bool {
        let w = i / 64;
        w < self.words.len() && (self.words[w] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Remove every bit.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// `self |= other`.
    pub fn union_with(&mut self, other: &BitSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// `self &= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        for (i, a) in self.words.iter_mut().enumerate() {
            *a &= other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// `self &= !other`.
    pub fn difference_with(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= !b;
        }
    }

    /// `self |= a & !b` in one word-parallel pass, with no temporary set.
    ///
    /// This is the shape of every "matchers minus exceptions" probe (e.g.
    /// `!=` factors minus the excepted constant, or a prefix bitmap minus
    /// tombstoned factors): fusing it avoids the `clone` + `difference_with`
    /// + `union_with` triple and its per-probe allocation.
    pub fn union_andnot(&mut self, a: &BitSet, b: &BitSet) {
        if a.words.len() > self.words.len() {
            self.words.resize(a.words.len(), 0);
        }
        for (i, (dst, &aw)) in self.words.iter_mut().zip(a.words.iter()).enumerate() {
            *dst |= aw & !b.words.get(i).copied().unwrap_or(0);
        }
    }

    /// Approximate heap footprint in bytes (capacity, not just length).
    pub fn approx_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// True if every bit of `self` is also in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// Iterate set bits in increasing order.
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

impl FromIterator<usize> for BitSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut s = BitSet::new();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new();
        assert!(!s.contains(0));
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(1000);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(1000));
        assert_eq!(s.len(), 4);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.len(), 3);
        // removing a bit beyond the allocation is a no-op
        s.remove(100_000);
    }

    #[test]
    fn set_algebra() {
        let a: BitSet = [1, 2, 3, 64].into_iter().collect();
        let b: BitSet = [2, 3, 4, 128].into_iter().collect();
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4, 64, 128]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![2, 3]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 64]);
    }

    #[test]
    fn subsets() {
        let a: BitSet = [1, 2].into_iter().collect();
        let b: BitSet = [1, 2, 3].into_iter().collect();
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        // empty set is subset of everything
        assert!(BitSet::new().is_subset(&a));
        assert!(BitSet::new().is_subset(&BitSet::new()));
    }

    #[test]
    fn iteration_order_is_increasing() {
        let s: BitSet = [200, 5, 63, 64, 0].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 5, 63, 64, 200]);
    }

    #[test]
    fn union_andnot_matches_composed_ops() {
        let a: BitSet = [1, 2, 3, 64, 130].into_iter().collect();
        let b: BitSet = [2, 64, 999].into_iter().collect();
        for seed in [vec![], vec![0usize, 3, 200]] {
            let base: BitSet = seed.iter().copied().collect();
            let mut fused = base.clone();
            fused.union_andnot(&a, &b);
            let mut composed = a.clone();
            composed.difference_with(&b);
            composed.union_with(&base);
            assert_eq!(fused, composed);
        }
        // Exceptions set longer than the matcher set must not resize self.
        let mut out = BitSet::new();
        out.union_andnot(&BitSet::new(), &b);
        assert!(out.is_empty());
    }

    #[test]
    fn clone_from_reuses_capacity_and_copies_content() {
        let big: BitSet = [4000].into_iter().collect();
        let small: BitSet = [3].into_iter().collect();
        let mut scratch = BitSet::new();
        scratch.clone_from(&big);
        let cap = scratch.approx_bytes();
        scratch.clone_from(&small);
        assert_eq!(scratch, small);
        assert_eq!(scratch.approx_bytes(), cap, "capacity must be retained");
    }

    #[test]
    fn equality_is_content_based_despite_trailing_zero_words() {
        let mut a = BitSet::new();
        a.insert(500);
        a.remove(500);
        let b = BitSet::new();
        // a has allocated words, b has none, but both are empty...
        assert!(a.is_empty() && b.is_empty());
        // ...and equality, subset, and hashing all agree
        assert_eq!(a, b);
        assert!(a.is_subset(&b) && b.is_subset(&a));
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |s: &BitSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }
}
