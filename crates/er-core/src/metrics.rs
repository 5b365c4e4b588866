//! The effectiveness measures of the benchmark (paper §III).
//!
//! * **Pair completeness** `PC(C) = |D(C)| / |D(E1 × E2)|` — recall,
//! * **Pairs quality** `PQ(C) = |D(C)| / |C|` — precision.
//!
//! Both are in `[0, 1]`; the paper's Problem 1 fixes a recall target
//! `PC ≥ τ = 0.9` and maximizes PQ under it.

use crate::candidates::CandidateSet;
use crate::dataset::GroundTruth;

/// PC, PQ and the underlying counts for one filter execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Effectiveness {
    /// Pair completeness (recall).
    pub pc: f64,
    /// Pairs quality (precision).
    pub pq: f64,
    /// `|C|` — number of candidate pairs.
    pub candidates: usize,
    /// `|D(C)|` — duplicates among the candidates.
    pub duplicates_found: usize,
}

impl Effectiveness {
    /// True if this run meets the recall target of Problem 1.
    pub fn meets(&self, target_pc: f64) -> bool {
        self.pc >= target_pc
    }
}

/// Evaluates a candidate set against the ground truth.
///
/// Degenerate inputs follow the measure definitions: an empty ground truth
/// gives `PC = 0` (nothing to find ⇒ recall undefined, reported as 0), an
/// empty candidate set gives `PQ = 0`.
pub fn evaluate(candidates: &CandidateSet, gt: &GroundTruth) -> Effectiveness {
    let found = gt.duplicates_in(candidates);
    let pc = if gt.is_empty() {
        0.0
    } else {
        found as f64 / gt.len() as f64
    };
    let pq = if candidates.is_empty() {
        0.0
    } else {
        found as f64 / candidates.len() as f64
    };
    Effectiveness {
        pc,
        pq,
        candidates: candidates.len(),
        duplicates_found: found,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::Pair;

    fn gt3() -> GroundTruth {
        GroundTruth::from_pairs([Pair::new(0, 0), Pair::new(1, 1), Pair::new(2, 2)])
    }

    #[test]
    fn perfect_filter_scores_one() {
        let c: CandidateSet = gt3().iter().collect();
        let eff = evaluate(&c, &gt3());
        assert_eq!(eff.pc, 1.0);
        assert_eq!(eff.pq, 1.0);
        assert_eq!(eff.duplicates_found, 3);
    }

    #[test]
    fn partial_recall_and_precision() {
        let c: CandidateSet = [
            Pair::new(0, 0),
            Pair::new(0, 1),
            Pair::new(0, 2),
            Pair::new(1, 1),
        ]
        .into_iter()
        .collect();
        let eff = evaluate(&c, &gt3());
        assert!((eff.pc - 2.0 / 3.0).abs() < 1e-12);
        assert!((eff.pq - 0.5).abs() < 1e-12);
        assert!(eff.meets(0.6));
        assert!(!eff.meets(0.9));
    }

    #[test]
    fn empty_candidates() {
        let eff = evaluate(&CandidateSet::new(), &gt3());
        assert_eq!(eff.pc, 0.0);
        assert_eq!(eff.pq, 0.0);
        assert_eq!(eff.candidates, 0);
    }

    #[test]
    fn empty_groundtruth() {
        let c: CandidateSet = [Pair::new(0, 0)].into_iter().collect();
        let eff = evaluate(&c, &GroundTruth::default());
        assert_eq!(eff.pc, 0.0);
        assert_eq!(eff.pq, 0.0);
    }

    #[test]
    fn pc_pq_tradeoff() {
        // Growing C can only grow PC and (with non-duplicates) shrink PQ.
        let small: CandidateSet = [Pair::new(0, 0)].into_iter().collect();
        let mut big = small.clone();
        big.insert(Pair::new(5, 5));
        big.insert(Pair::new(1, 1));
        let e_small = evaluate(&small, &gt3());
        let e_big = evaluate(&big, &gt3());
        assert!(e_big.pc >= e_small.pc);
        assert!(e_big.pq <= e_small.pq);
    }
}
