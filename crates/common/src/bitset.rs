//! A compact dynamic bitset.
//!
//! Used for column null masks, SteM segment liveness, and the query SteM's
//! match sets and tombstones: with thousands of standing queries, per-tuple
//! query sets must be cheap to clear, set, and iterate.

use std::fmt;

/// A growable bitset over `usize` indexes.
#[derive(Clone, Default)]
pub struct BitSet {
    words: Vec<u64>,
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

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Remove every bit.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Approximate heap footprint in bytes (capacity, not just length).
    pub fn approx_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
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
        assert_eq!(s.iter().count(), 4);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.iter().count(), 3);
        // removing a bit beyond the allocation is a no-op
        s.remove(100_000);
    }

    #[test]
    fn iteration_order_is_increasing() {
        let s: BitSet = [200, 5, 63, 64, 0].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 5, 63, 64, 200]);
    }

    #[test]
    fn equality_is_content_based_despite_trailing_zero_words() {
        let mut a = BitSet::new();
        a.insert(500);
        a.remove(500);
        let b = BitSet::new();
        // a has allocated words, b has none, but both are empty and equal.
        assert!(a.is_empty() && b.is_empty());
        assert_eq!(a, b);
    }
}
