//! A minimal verification (matching) step — the second half of the
//! filtering–verification framework (paper §I).
//!
//! The study benchmarks *filtering*; verification is out of its scope, but
//! a downstream user adopts a filter only as part of the full pipeline.
//! This module provides the classic rule-based matcher the paper's
//! introduction describes ("compare similarity values with thresholds") so
//! examples and integration tests can measure end-to-end ER quality and
//! the verification cost a filter saves.

use crate::candidates::CandidateSet;
use crate::dataset::GroundTruth;
use crate::hash::FastSet;
use crate::schema::TextView;
use er_text::tokenize;

/// A rule-based matcher: two entities match when the Jaccard similarity of
/// their token sets reaches `threshold`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JaccardMatcher {
    /// Match threshold in `[0, 1]`.
    pub threshold: f64,
}

/// End-to-end ER quality after verification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchingQuality {
    /// Matches found / ground-truth duplicates.
    pub recall: f64,
    /// Matches found that are true duplicates / all declared matches.
    pub precision: f64,
    /// Harmonic mean of the above.
    pub f1: f64,
    /// Candidate pairs the matcher examined (the verification cost).
    pub verified: usize,
    /// Declared matches.
    pub matches: usize,
}

impl JaccardMatcher {
    /// Verifies every candidate pair, returning the declared matches.
    pub fn verify(&self, view: &TextView, candidates: &CandidateSet) -> CandidateSet {
        // Token sets are computed lazily and memoized per entity: a
        // candidate set touching few entities costs few tokenizations.
        let mut cache1: Vec<Option<FastSet<String>>> = vec![None; view.e1.len()];
        let mut cache2: Vec<Option<FastSet<String>>> = vec![None; view.e2.len()];
        let tokens = |text: &str| -> FastSet<String> { tokenize(text).into_iter().collect() };

        let mut matches = CandidateSet::new();
        for pair in candidates.iter() {
            let a = cache1[pair.left as usize]
                .get_or_insert_with(|| tokens(&view.e1[pair.left as usize]));
            let a = a.clone();
            let b = cache2[pair.right as usize]
                .get_or_insert_with(|| tokens(&view.e2[pair.right as usize]));
            let overlap = a.iter().filter(|t| b.contains(*t)).count();
            let union = a.len() + b.len() - overlap;
            let sim = if union == 0 {
                0.0
            } else {
                overlap as f64 / union as f64
            };
            if sim >= self.threshold {
                matches.insert(pair);
            }
        }
        matches
    }

    /// Runs verification and scores the end-to-end result.
    pub fn evaluate(
        &self,
        view: &TextView,
        candidates: &CandidateSet,
        gt: &GroundTruth,
    ) -> MatchingQuality {
        let matches = self.verify(view, candidates);
        let true_matches = gt.duplicates_in(&matches);
        let recall = if gt.is_empty() {
            0.0
        } else {
            true_matches as f64 / gt.len() as f64
        };
        let precision = if matches.is_empty() {
            0.0
        } else {
            true_matches as f64 / matches.len() as f64
        };
        let f1 = if recall + precision == 0.0 {
            0.0
        } else {
            2.0 * recall * precision / (recall + precision)
        };
        MatchingQuality {
            recall,
            precision,
            f1,
            verified: candidates.len(),
            matches: matches.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::Pair;

    fn view() -> TextView {
        TextView {
            e1: vec!["acme rotary pump".into(), "zenith filter".into()].into(),
            e2: vec!["acme rotary pump unit".into(), "unrelated thing".into()].into(),
        }
    }

    #[test]
    fn verification_filters_candidates_by_similarity() {
        let candidates: CandidateSet = [Pair::new(0, 0), Pair::new(0, 1), Pair::new(1, 1)]
            .into_iter()
            .collect();
        let matches = JaccardMatcher { threshold: 0.5 }.verify(&view(), &candidates);
        assert_eq!(matches.len(), 1);
        assert!(matches.contains(Pair::new(0, 0)));
    }

    #[test]
    fn matcher_only_sees_candidates() {
        // A true match outside the candidate set cannot be found — the
        // filtering-recall ceiling the paper's Problem 1 protects.
        let gt = GroundTruth::from_pairs([Pair::new(0, 0)]);
        let empty = CandidateSet::new();
        let q = JaccardMatcher { threshold: 0.1 }.evaluate(&view(), &empty, &gt);
        assert_eq!(q.recall, 0.0);
        assert_eq!(q.verified, 0);
    }

    #[test]
    fn end_to_end_quality_scores() {
        let gt = GroundTruth::from_pairs([Pair::new(0, 0)]);
        let candidates: CandidateSet = [Pair::new(0, 0), Pair::new(1, 1)].into_iter().collect();
        let q = JaccardMatcher { threshold: 0.5 }.evaluate(&view(), &candidates, &gt);
        assert_eq!(q.recall, 1.0);
        assert_eq!(q.precision, 1.0);
        assert_eq!(q.f1, 1.0);
        assert_eq!(q.verified, 2);
        assert_eq!(q.matches, 1);
    }

    #[test]
    fn threshold_one_requires_identical_token_sets() {
        let v = TextView {
            e1: vec!["a b".into()].into(),
            e2: vec!["b a".into(), "a b c".into()].into(),
        };
        let candidates: CandidateSet = [Pair::new(0, 0), Pair::new(0, 1)].into_iter().collect();
        let matches = JaccardMatcher { threshold: 1.0 }.verify(&v, &candidates);
        assert_eq!(matches.len(), 1);
        assert!(matches.contains(Pair::new(0, 0)), "order-insensitive");
    }
}
