//! The qualitative taxonomies of the paper (§V): *scope* (Table I) and
//! *internal functionality* (Table II), as typed data so the harness can
//! re-print the tables and tests can assert the paper's claims (e.g. that
//! kNN-Join is the only deterministic, cardinality-based method with a
//! syntactic representation).

use std::fmt;

/// The three families of filtering methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodFamily {
    /// Blocking workflows (§IV-B).
    Blocking,
    /// Sparse vector-based NN methods (§IV-C).
    SparseNn,
    /// Dense vector-based NN methods (§IV-D).
    DenseNn,
}

/// Entity representation at the core of a method (Table I rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Representation {
    /// Token / character n-gram co-occurrence on the actual text.
    Syntactic,
    /// Embedding vectors encapsulating a textual value.
    Semantic,
}

/// Type of operation (Table II rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operation {
    /// No randomness; stable output across runs.
    Deterministic,
    /// Relies on randomness; results vary per run (averaged in the study).
    Stochastic,
}

/// Type of threshold (Table II columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Threshold {
    /// Minimum similarity of candidate pairs (global condition).
    Similarity,
    /// Maximum number of candidates per query entity (local condition).
    Cardinality,
}

/// One NN method's placement in both taxonomies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodProfile {
    /// Display name.
    pub name: &'static str,
    /// Method family.
    pub family: MethodFamily,
    /// Core representation.
    pub representation: Representation,
    /// Operation type.
    pub operation: Operation,
    /// Threshold type (`None` for blocking workflows, which are not part of
    /// Table II).
    pub threshold: Option<Threshold>,
}

/// The taxonomy of every technique evaluated in the study.
pub static METHOD_PROFILES: &[MethodProfile] = &[
    MethodProfile {
        name: "Blocking workflows",
        family: MethodFamily::Blocking,
        representation: Representation::Syntactic,
        operation: Operation::Deterministic,
        threshold: None,
    },
    MethodProfile {
        name: "e-Join",
        family: MethodFamily::SparseNn,
        representation: Representation::Syntactic,
        operation: Operation::Deterministic,
        threshold: Some(Threshold::Similarity),
    },
    MethodProfile {
        name: "kNN-Join",
        family: MethodFamily::SparseNn,
        representation: Representation::Syntactic,
        operation: Operation::Deterministic,
        threshold: Some(Threshold::Cardinality),
    },
    MethodProfile {
        name: "MH-LSH",
        family: MethodFamily::DenseNn,
        representation: Representation::Syntactic,
        operation: Operation::Stochastic,
        threshold: Some(Threshold::Similarity),
    },
    MethodProfile {
        name: "HP-LSH",
        family: MethodFamily::DenseNn,
        representation: Representation::Semantic,
        operation: Operation::Stochastic,
        threshold: Some(Threshold::Similarity),
    },
    MethodProfile {
        name: "CP-LSH",
        family: MethodFamily::DenseNn,
        representation: Representation::Semantic,
        operation: Operation::Stochastic,
        threshold: Some(Threshold::Similarity),
    },
    MethodProfile {
        name: "FAISS",
        family: MethodFamily::DenseNn,
        representation: Representation::Semantic,
        operation: Operation::Deterministic,
        threshold: Some(Threshold::Cardinality),
    },
    MethodProfile {
        name: "SCANN",
        family: MethodFamily::DenseNn,
        representation: Representation::Semantic,
        operation: Operation::Deterministic,
        threshold: Some(Threshold::Cardinality),
    },
    MethodProfile {
        name: "DeepBlocker",
        family: MethodFamily::DenseNn,
        representation: Representation::Semantic,
        operation: Operation::Stochastic,
        threshold: Some(Threshold::Cardinality),
    },
];

/// Table I: which `(representation, schema setting)` combinations each
/// family supports. Blocking and sparse NN cover only syntactic
/// representations; dense NN covers all four fields.
pub fn scope_supports(family: MethodFamily, representation: Representation) -> bool {
    match (family, representation) {
        (MethodFamily::DenseNn, _) => true,
        (_, Representation::Syntactic) => true,
        (_, Representation::Semantic) => false,
    }
}

impl fmt::Display for MethodFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MethodFamily::Blocking => "Blocking",
            MethodFamily::SparseNn => "Sparse NN",
            MethodFamily::DenseNn => "Dense NN",
        };
        f.write_str(s)
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Operation::Deterministic => "Deterministic",
            Operation::Stochastic => "Stochastic",
        })
    }
}

impl fmt::Display for Threshold {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Threshold::Similarity => "Similarity Threshold",
            Threshold::Cardinality => "Cardinality Threshold",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knn_join_is_the_unique_syntactic_cardinality_method() {
        // The paper's conclusion 5: "the only method that combines a
        // cardinality threshold with a syntactic representation is kNN-Join".
        let matching: Vec<_> = METHOD_PROFILES
            .iter()
            .filter(|p| {
                p.representation == Representation::Syntactic
                    && p.threshold == Some(Threshold::Cardinality)
            })
            .collect();
        assert_eq!(matching.len(), 1);
        assert_eq!(matching[0].name, "kNN-Join");
    }

    #[test]
    fn table2_cells_match_paper() {
        let find = |n: &str| {
            METHOD_PROFILES
                .iter()
                .find(|p| p.name == n)
                .expect("profile")
        };
        assert_eq!(find("e-Join").operation, Operation::Deterministic);
        assert_eq!(find("DeepBlocker").operation, Operation::Stochastic);
        assert_eq!(find("FAISS").threshold, Some(Threshold::Cardinality));
        assert_eq!(find("MH-LSH").threshold, Some(Threshold::Similarity));
    }

    #[test]
    fn only_dense_nn_supports_semantic_scope() {
        assert!(scope_supports(
            MethodFamily::DenseNn,
            Representation::Semantic
        ));
        assert!(!scope_supports(
            MethodFamily::Blocking,
            Representation::Semantic
        ));
        assert!(!scope_supports(
            MethodFamily::SparseNn,
            Representation::Semantic
        ));
        for fam in [
            MethodFamily::Blocking,
            MethodFamily::SparseNn,
            MethodFamily::DenseNn,
        ] {
            assert!(scope_supports(fam, Representation::Syntactic));
        }
    }
}
