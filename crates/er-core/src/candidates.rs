//! Candidate-pair sets — the common output of every filtering technique
//! (paper §III).
//!
//! For Clean-Clean ER a candidate is a pair `(i, j)` with `i` indexing into
//! `E1` and `j` into `E2`. Filters may generate the same pair repeatedly
//! (blocking does so by construction); a [`CandidateSet`] stores each pair
//! once, which is exactly what Comparison Propagation guarantees for
//! blocking workflows and what the index-query scheme guarantees for NN
//! methods.

use crate::hash::FastSet;

/// A candidate pair: `left` indexes `E1`, `right` indexes `E2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pair {
    /// Index into the first (indexed) collection `E1`.
    pub left: u32,
    /// Index into the second (query) collection `E2`.
    pub right: u32,
}

impl Pair {
    /// Creates a pair.
    #[inline]
    pub fn new(left: u32, right: u32) -> Self {
        Self { left, right }
    }

    /// Packs the pair into one `u64` key (left in the high half).
    #[inline]
    pub fn key(self) -> u64 {
        (u64::from(self.left) << 32) | u64::from(self.right)
    }

    /// Inverse of [`Pair::key`].
    #[inline]
    pub fn from_key(key: u64) -> Self {
        Self {
            left: (key >> 32) as u32,
            right: key as u32,
        }
    }
}

/// A deduplicated set of candidate pairs.
///
/// Construction is append-oriented: filters call [`CandidateSet::insert`]
/// (or bulk-extend) as they discover pairs; duplicates are absorbed. `|C|`,
/// the cardinality the PQ measure divides by, is [`CandidateSet::len`].
#[derive(Debug, Clone, Default)]
pub struct CandidateSet {
    pairs: FastSet<u64>,
}

impl CandidateSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty set with capacity for `n` pairs.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            pairs: FastSet::with_capacity_and_hasher(n, Default::default()),
        }
    }

    /// Inserts a pair; returns true if it was new.
    #[inline]
    pub fn insert(&mut self, pair: Pair) -> bool {
        self.pairs.insert(pair.key())
    }

    /// Inserts a pair given raw indices.
    #[inline]
    pub fn insert_raw(&mut self, left: u32, right: u32) -> bool {
        self.insert(Pair::new(left, right))
    }

    /// True if the pair is present.
    #[inline]
    pub fn contains(&self, pair: Pair) -> bool {
        self.pairs.contains(&pair.key())
    }

    /// Number of distinct candidate pairs, `|C|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if no candidates were produced.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates over the pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = Pair> + '_ {
        self.pairs.iter().map(|&k| Pair::from_key(k))
    }

    /// Returns the pairs sorted by `(left, right)` — useful for stable test
    /// assertions and serialization.
    pub fn to_sorted_vec(&self) -> Vec<Pair> {
        let mut v: Vec<Pair> = self.iter().collect();
        v.sort_unstable();
        v
    }
}

impl FromIterator<Pair> for CandidateSet {
    fn from_iter<I: IntoIterator<Item = Pair>>(iter: I) -> Self {
        let mut set = Self::new();
        for p in iter {
            set.insert(p);
        }
        set
    }
}

impl Extend<Pair> for CandidateSet {
    fn extend<I: IntoIterator<Item = Pair>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_roundtrip() {
        for (l, r) in [(0, 0), (1, 2), (u32::MAX, 7), (42, u32::MAX)] {
            let p = Pair::new(l, r);
            assert_eq!(Pair::from_key(p.key()), p);
        }
    }

    #[test]
    fn asymmetric_pairs_are_distinct() {
        // Clean-Clean ER pairs are ordered: (1,2) != (2,1).
        assert_ne!(Pair::new(1, 2).key(), Pair::new(2, 1).key());
    }

    #[test]
    fn insert_deduplicates() {
        let mut c = CandidateSet::new();
        assert!(c.insert_raw(3, 4));
        assert!(!c.insert_raw(3, 4));
        assert!(c.insert_raw(4, 3));
        assert_eq!(c.len(), 2);
        assert!(c.contains(Pair::new(3, 4)));
        assert!(!c.contains(Pair::new(9, 9)));
    }

    #[test]
    fn sorted_vec_is_ordered() {
        let c: CandidateSet = [Pair::new(2, 1), Pair::new(1, 9), Pair::new(1, 2)]
            .into_iter()
            .collect();
        assert_eq!(
            c.to_sorted_vec(),
            vec![Pair::new(1, 2), Pair::new(1, 9), Pair::new(2, 1)]
        );
    }

    #[test]
    fn extend_and_from_iterator_agree() {
        let pairs = [Pair::new(1, 1), Pair::new(2, 2), Pair::new(1, 1)];
        let a: CandidateSet = pairs.into_iter().collect();
        let mut b = CandidateSet::new();
        b.extend(pairs);
        assert_eq!(a.to_sorted_vec(), b.to_sorted_vec());
        assert_eq!(a.len(), 2);
    }
}
