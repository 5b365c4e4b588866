//! Clean-Clean ER datasets: two individually duplicate-free, overlapping
//! collections `(E1, E2)` plus a ground truth of matching pairs (paper §III).

use crate::candidates::{CandidateSet, Pair};
use crate::entity::Entity;
use crate::hash::FastSet;

/// The ground truth: the set of duplicate pairs `D(E1 × E2)`.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    pairs: Vec<Pair>,
    index: FastSet<u64>,
}

impl GroundTruth {
    /// Builds the ground truth from duplicate pairs. Duplicated entries are
    /// collapsed.
    pub fn from_pairs(pairs: impl IntoIterator<Item = Pair>) -> Self {
        let mut index = FastSet::default();
        let mut unique = Vec::new();
        for p in pairs {
            if index.insert(p.key()) {
                unique.push(p);
            }
        }
        unique.sort_unstable();
        Self {
            pairs: unique,
            index,
        }
    }

    /// Rebuilds the membership index (needed after deserialization, which
    /// skips it).
    pub fn reindex(&mut self) {
        self.index = self.pairs.iter().map(|p| p.key()).collect();
    }

    /// Number of duplicate pairs, `|D(E1 × E2)|`.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if the ground truth is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// True if `pair` is a duplicate.
    #[inline]
    pub fn contains(&self, pair: Pair) -> bool {
        self.index.contains(&pair.key())
    }

    /// Iterates over the duplicate pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = Pair> + '_ {
        self.pairs.iter().copied()
    }

    /// Counts how many pairs of `candidates` are duplicates, `|D(C)|`.
    pub fn duplicates_in(&self, candidates: &CandidateSet) -> usize {
        // Iterate the smaller side.
        if candidates.len() <= self.len() {
            candidates.iter().filter(|&p| self.contains(p)).count()
        } else {
            self.pairs
                .iter()
                .filter(|p| candidates.contains(**p))
                .count()
        }
    }
}

/// A Clean-Clean ER dataset: `E1`, `E2` and the ground truth.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// A short identifier, e.g. `"D4"`.
    pub name: String,
    /// Human-readable description of the two sources, e.g. `"DBLP / ACM"`.
    pub sources: String,
    /// The first (by convention, indexed) collection.
    pub e1: Vec<Entity>,
    /// The second (by convention, query) collection.
    pub e2: Vec<Entity>,
    /// The duplicate pairs.
    pub groundtruth: GroundTruth,
}

impl Dataset {
    /// Creates a dataset, validating that every ground-truth pair is within
    /// bounds.
    pub fn new(
        name: impl Into<String>,
        sources: impl Into<String>,
        e1: Vec<Entity>,
        e2: Vec<Entity>,
        groundtruth: GroundTruth,
    ) -> Self {
        let ds = Self {
            name: name.into(),
            sources: sources.into(),
            e1,
            e2,
            groundtruth,
        };
        for p in ds.groundtruth.iter() {
            assert!(
                (p.left as usize) < ds.e1.len() && (p.right as usize) < ds.e2.len(),
                "ground-truth pair {p:?} out of bounds for |E1|={} |E2|={}",
                ds.e1.len(),
                ds.e2.len()
            );
        }
        ds
    }

    /// `|E1| × |E2|` — the brute-force comparison count the filters avoid.
    pub fn cartesian(&self) -> u64 {
        self.e1.len() as u64 * self.e2.len() as u64
    }

    /// Swaps the roles of `E1` and `E2` (the `RVS` configuration parameter
    /// of the cardinality-based NN methods), remapping the ground truth.
    pub fn reversed(&self) -> Dataset {
        Dataset {
            name: self.name.clone(),
            sources: format!("{} (reversed)", self.sources),
            e1: self.e2.clone(),
            e2: self.e1.clone(),
            groundtruth: GroundTruth::from_pairs(
                self.groundtruth.iter().map(|p| Pair::new(p.right, p.left)),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::Entity;

    fn tiny() -> Dataset {
        let e1 = vec![
            Entity::from_pairs([("name", "alpha")]),
            Entity::from_pairs([("name", "beta")]),
        ];
        let e2 = vec![
            Entity::from_pairs([("name", "alpha!")]),
            Entity::from_pairs([("name", "gamma")]),
            Entity::from_pairs([("name", "beta.")]),
        ];
        let gt = GroundTruth::from_pairs([Pair::new(0, 0), Pair::new(1, 2)]);
        Dataset::new("T", "A / B", e1, e2, gt)
    }

    #[test]
    fn groundtruth_deduplicates() {
        let gt = GroundTruth::from_pairs([Pair::new(0, 0), Pair::new(0, 0), Pair::new(1, 1)]);
        assert_eq!(gt.len(), 2);
        assert!(gt.contains(Pair::new(0, 0)));
        assert!(!gt.contains(Pair::new(0, 1)));
    }

    #[test]
    fn duplicates_in_counts_hits() {
        let ds = tiny();
        let mut c = CandidateSet::new();
        c.insert_raw(0, 0); // duplicate
        c.insert_raw(0, 1); // not
        c.insert_raw(1, 2); // duplicate
        assert_eq!(ds.groundtruth.duplicates_in(&c), 2);
    }

    #[test]
    fn duplicates_in_symmetric_in_sizes() {
        // Exercise both branches of the size heuristic.
        let gt = GroundTruth::from_pairs((0..10).map(|i| Pair::new(i, i)));
        let small: CandidateSet = [Pair::new(0, 0), Pair::new(5, 5)].into_iter().collect();
        assert_eq!(gt.duplicates_in(&small), 2);
        let big: CandidateSet = (0..100u32)
            .flat_map(|l| (0..2u32).map(move |r| Pair::new(l, r)))
            .collect();
        assert_eq!(gt.duplicates_in(&big), 2); // (0,0) and (1,1)
    }

    #[test]
    fn cartesian_product() {
        assert_eq!(tiny().cartesian(), 6);
    }

    #[test]
    fn reversed_swaps_sides_and_groundtruth() {
        let ds = tiny();
        let rev = ds.reversed();
        assert_eq!(rev.e1.len(), 3);
        assert_eq!(rev.e2.len(), 2);
        assert!(rev.groundtruth.contains(Pair::new(0, 0)));
        assert!(rev.groundtruth.contains(Pair::new(2, 1)));
        assert_eq!(rev.groundtruth.len(), ds.groundtruth.len());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_groundtruth_panics() {
        let gt = GroundTruth::from_pairs([Pair::new(5, 0)]);
        let _ = Dataset::new("X", "", vec![Entity::new()], vec![Entity::new()], gt);
    }
}
