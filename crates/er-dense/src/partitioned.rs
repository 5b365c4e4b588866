//! The SCANN-equivalent index (paper §IV-D): k-means partitioning plus
//! brute-force or asymmetric-hashing (product-quantization) scoring.
//!
//! SCANN splits the indexed dataset into disjoint partitions during
//! training; a query is answered by scoring only the most relevant
//! partitions. Scoring is either exact (`BF`) or approximate (`AH`), and
//! the similarity is dot product (`DP`) or squared Euclidean (`L2²`) —
//! the four combinations Table V sweeps.

use crate::artifact::{emb_key, flag, vecs_bytes};
use crate::embed::{EmbeddingConfig, HashEmbedder};
use crate::flat::{knn_over, Metric};
use crate::pq::ProductQuantizer;
use crate::vector::{dot, l2_sq, FlatVectors};
use er_core::filter::{Filter, FilterOutput, Prepared};
use er_core::schema::TextView;
use er_core::timing::{PhaseBreakdown, Stage};
use er_text::Cleaner;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Lloyd's k-means with k-means++ seeding; returns the centroids.
///
/// Shared by the partitioned index and the product quantizer. Deterministic
/// for a fixed seed. `k` is clamped to the number of points.
pub fn kmeans(data: &[Vec<f32>], k: usize, iterations: usize, seed: u64) -> Vec<Vec<f32>> {
    assert!(!data.is_empty(), "k-means on empty data");
    let k = k.clamp(1, data.len());
    let dim = data[0].len();
    let mut rng = StdRng::seed_from_u64(seed);

    // k-means++ initialization.
    let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
    centroids.push(data[rng.gen_range(0..data.len())].clone());
    let mut dists: Vec<f32> = data.iter().map(|v| l2_sq(v, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f32 = dists.iter().sum();
        let next = if total <= f32::EPSILON {
            rng.gen_range(0..data.len())
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = data.len() - 1;
            for (i, &d) in dists.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        centroids.push(data[next].clone());
        for (d, v) in dists.iter_mut().zip(data) {
            *d = d.min(l2_sq(v, centroids.last().expect("just pushed")));
        }
    }

    // Lloyd iterations.
    let mut assignment = vec![0usize; data.len()];
    for _ in 0..iterations {
        let mut changed = false;
        for (i, v) in data.iter().enumerate() {
            let mut best = 0;
            let mut best_d = f32::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let d = l2_sq(v, centroid);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        let mut sums = vec![vec![0.0f32; dim]; k];
        let mut counts = vec![0usize; k];
        for (v, &a) in data.iter().zip(&assignment) {
            counts[a] += 1;
            for (s, x) in sums[a].iter_mut().zip(v) {
                *s += x;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for s in &mut sums[c] {
                    *s /= counts[c] as f32;
                }
                centroids[c] = std::mem::take(&mut sums[c]);
            }
            // Empty clusters keep their previous centroid.
        }
        if !changed {
            break;
        }
    }
    centroids
}

/// Assigns each vector to its nearest centroid.
pub fn assign(data: &[Vec<f32>], centroids: &[Vec<f32>]) -> Vec<usize> {
    data.iter()
        .map(|v| {
            let mut best = 0;
            let mut best_d = f32::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let d = l2_sq(v, centroid);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            best
        })
        .collect()
}

/// Scoring mode (Table V's `index` parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scoring {
    /// Exact distance computations ("BF").
    BruteForce,
    /// Product-quantization lookup-table scoring ("AH").
    AsymmetricHashing,
}

/// A trained partitioned index.
#[derive(Debug)]
pub(crate) struct PartitionedIndex {
    pub(crate) vectors: FlatVectors,
    pub(crate) centroids: Vec<Vec<f32>>,
    /// Member ids per partition.
    pub(crate) members: Vec<Vec<u32>>,
    pub(crate) metric: Metric,
    pub(crate) scoring: Scoring,
    pub(crate) pq: Option<(ProductQuantizer, Vec<Vec<u8>>)>,
}

impl PartitionedIndex {
    fn build(vectors: Vec<Vec<f32>>, metric: Metric, scoring: Scoring, seed: u64) -> Self {
        let n = vectors.len();
        // SCANN guidance: ~sqrt(n) partitions.
        let k = ((n as f64).sqrt().round() as usize).clamp(1, 4096);
        let centroids = kmeans(&vectors, k, 10, seed);
        let assignment = assign(&vectors, &centroids);
        let mut members = vec![Vec::new(); centroids.len()];
        for (i, &a) in assignment.iter().enumerate() {
            members[a].push(i as u32);
        }
        let pq = match scoring {
            Scoring::BruteForce => None,
            Scoring::AsymmetricHashing => {
                let dim = vectors.first().map_or(0, Vec::len);
                let m = (dim / 4).clamp(1, 64);
                let pq = ProductQuantizer::train(&vectors, m, seed.wrapping_add(99));
                let codes = vectors.iter().map(|v| pq.encode(v)).collect();
                Some((pq, codes))
            }
        };
        Self {
            vectors: FlatVectors::from_rows(&vectors),
            centroids,
            members,
            metric,
            scoring,
            pq,
        }
    }

    /// kNN search probing the `n_probe` most relevant partitions.
    fn knn(&self, query: &[f32], k: usize, n_probe: usize) -> Vec<(u32, f32)> {
        // Rank partitions by centroid affinity under the metric.
        let mut ranked: Vec<(usize, f32)> = self
            .centroids
            .iter()
            .enumerate()
            .map(|(c, centroid)| {
                let cost = match self.metric {
                    Metric::Dot => -dot(query, centroid),
                    Metric::L2Sq => l2_sq(query, centroid),
                };
                (c, cost)
            })
            .collect();
        ranked.sort_unstable_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        let probed = ranked.iter().take(n_probe.max(1)).map(|&(c, _)| c);
        let ids = probed.flat_map(|c| self.members[c].iter().copied());

        match (&self.scoring, &self.pq) {
            (Scoring::BruteForce, _) | (_, None) => knn_over(k, ids, |id| match self.metric {
                Metric::Dot => -dot(query, self.vectors.row(id as usize)),
                Metric::L2Sq => l2_sq(query, self.vectors.row(id as usize)),
            }),
            (Scoring::AsymmetricHashing, Some((pq, codes))) => {
                let table = pq.lookup_table(query, self.metric == Metric::Dot);
                knn_over(k, ids, |id| pq.score(&table, &codes[id as usize]))
            }
        }
    }
}

/// The SCANN-equivalent filter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionedKnn {
    /// Apply stop-word removal + stemming (`CL`).
    pub cleaning: bool,
    /// Neighbors per query (`K`).
    pub k: usize,
    /// Reverse datasets (`RVS`).
    pub reversed: bool,
    /// `BF` or `AH` (Table V's `index`).
    pub scoring: Scoring,
    /// `DP` or `L2²` (Table V's `similarity`).
    pub metric: Metric,
    /// Partitions probed per query; the fraction SCANN tunes for its
    /// recall/latency target. We probe enough partitions for exactness to
    /// be governed by `scoring`, defaulting to 1/4 of the partitions.
    pub probe_fraction: f64,
    /// Embedding configuration.
    pub embedding: EmbeddingConfig,
    /// Partitioning seed.
    pub seed: u64,
}

impl PartitionedKnn {
    /// One-line configuration description for Table X-style reports.
    pub fn describe(&self) -> String {
        format!(
            "CL={} RVS={} K={} index={} sim={}",
            if self.cleaning { "y" } else { "-" },
            if self.reversed { "y" } else { "-" },
            self.k,
            match self.scoring {
                Scoring::BruteForce => "BF",
                Scoring::AsymmetricHashing => "AH",
            },
            match self.metric {
                Metric::Dot => "DP",
                Metric::L2Sq => "L2^2",
            }
        )
    }
}

impl PartitionedKnn {
    /// Computes per-query rankings up to `k_max` neighbors under the
    /// configured partitioning/probing/scoring (see [`FlatKnn::rankings`]
    /// for the role of rankings in the sweep).
    ///
    /// [`FlatKnn::rankings`]: crate::flat::FlatKnn::rankings
    pub fn rankings(&self, view: &TextView, k_max: usize) -> er_core::QueryRankings {
        let prepared = self.prepare(view);
        self.rankings_from(prepared.downcast::<PartitionedArtifact>(), k_max)
    }

    /// [`PartitionedKnn::rankings`] on a shared prepare-stage artifact:
    /// the embeddings and trained partitioning are reused, only the
    /// scoring runs.
    pub fn rankings_from(
        &self,
        artifact: &PartitionedArtifact,
        k_max: usize,
    ) -> er_core::QueryRankings {
        let Some(index) = &artifact.index else {
            return er_core::QueryRankings {
                neighbors: vec![Vec::new(); artifact.queries.len()],
                reversed: self.reversed,
            };
        };
        let n_probe = ((index.members.len() as f64 * self.probe_fraction).ceil() as usize).max(1);
        let neighbors = artifact
            .queries
            .iter()
            .map(|q| {
                if q.iter().all(|&v| v == 0.0) {
                    return Vec::new();
                }
                index
                    .knn(q, k_max, n_probe)
                    .into_iter()
                    .map(|(i, cost)| (i, f64::from(-cost)))
                    .collect()
            })
            .collect();
        er_core::QueryRankings {
            neighbors,
            reversed: self.reversed,
        }
    }
}

/// The prepare-stage artifact: embedded queries plus the trained
/// partitioned index (`None` when the indexed collection is empty). `K`
/// and the probe fraction stay in the query stage.
pub struct PartitionedArtifact {
    pub(crate) index: Option<PartitionedIndex>,
    pub(crate) queries: Vec<Vec<f32>>,
}

impl PartitionedArtifact {
    /// Approximate heap footprint for cache accounting.
    pub(crate) fn bytes(&self) -> usize {
        let index: usize = self.index.as_ref().map_or(0, |idx| {
            let members: usize = idx
                .members
                .iter()
                .map(|m| std::mem::size_of::<Vec<u32>>() + m.len() * 4)
                .sum();
            let codes: usize = idx.pq.as_ref().map_or(0, |(_, codes)| {
                codes
                    .iter()
                    .map(|c| std::mem::size_of::<Vec<u8>>() + c.len())
                    .sum()
            });
            idx.vectors.heap_bytes() + vecs_bytes(&idx.centroids) + members + codes
        });
        index + vecs_bytes(&self.queries)
    }
}

impl Filter for PartitionedKnn {
    fn name(&self) -> String {
        "SCANN".to_owned()
    }

    fn repr_key(&self) -> String {
        format!(
            "scann:CL={}:RVS={}:idx={}:sim={}:s={:x}:{}",
            flag(self.cleaning),
            flag(self.reversed),
            match self.scoring {
                Scoring::BruteForce => "BF",
                Scoring::AsymmetricHashing => "AH",
            },
            match self.metric {
                Metric::Dot => "DP",
                Metric::L2Sq => "L2",
            },
            self.seed,
            emb_key(&self.embedding)
        )
    }

    fn prepare(&self, view: &TextView) -> Prepared {
        let cleaner = if self.cleaning {
            Cleaner::on()
        } else {
            Cleaner::off()
        };
        let embedder = HashEmbedder::new(self.embedding);
        let (index_texts, query_texts) = if self.reversed {
            (&view.e2, &view.e1)
        } else {
            (&view.e1, &view.e2)
        };
        let mut breakdown = PhaseBreakdown::new();
        let (index_vecs, queries) = breakdown.time_in(Stage::Prepare, "preprocess", || {
            let a: Vec<Vec<f32>> = index_texts
                .iter()
                .map(|t| embedder.embed(t, &cleaner))
                .collect();
            let b: Vec<Vec<f32>> = query_texts
                .iter()
                .map(|t| embedder.embed(t, &cleaner))
                .collect();
            (a, b)
        });
        let index = breakdown.time_in(Stage::Prepare, "index", || {
            (!index_vecs.is_empty())
                .then(|| PartitionedIndex::build(index_vecs, self.metric, self.scoring, self.seed))
        });
        let artifact = PartitionedArtifact { index, queries };
        let bytes = artifact.bytes();
        Prepared::new(artifact, bytes, breakdown)
    }

    fn query(&self, _view: &TextView, prepared: &Prepared) -> FilterOutput {
        let art = prepared.downcast::<PartitionedArtifact>();
        let mut out = FilterOutput::default();
        let Some(index) = &art.index else {
            return out;
        };
        let n_probe = ((index.members.len() as f64 * self.probe_fraction).ceil() as usize).max(1);

        out.breakdown.time("query", || {
            for (q, query) in art.queries.iter().enumerate() {
                if query.iter().all(|&v| v == 0.0) {
                    continue;
                }
                for (i, _) in index.knn(query, self.k, n_probe) {
                    if self.reversed {
                        out.candidates.insert_raw(q as u32, i);
                    } else {
                        out.candidates.insert_raw(i, q as u32);
                    }
                }
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn clustered(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let center = (i % 4) as f32 * 3.0;
                (0..dim)
                    .map(|_| center + rng.gen_range(-0.2..0.2))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn kmeans_finds_separated_clusters() {
        let data = clustered(200, 4, 1);
        let centroids = kmeans(&data, 4, 20, 3);
        assert_eq!(centroids.len(), 4);
        // Every point should be within its cluster spread of some centroid.
        for v in &data {
            let nearest = centroids
                .iter()
                .map(|c| l2_sq(v, c))
                .fold(f32::INFINITY, f32::min);
            assert!(nearest < 1.0, "point far from every centroid: {nearest}");
        }
    }

    #[test]
    fn kmeans_deterministic_per_seed() {
        let data = clustered(60, 3, 2);
        assert_eq!(kmeans(&data, 3, 10, 5), kmeans(&data, 3, 10, 5));
    }

    #[test]
    fn kmeans_clamps_k() {
        let data = clustered(3, 2, 3);
        assert_eq!(kmeans(&data, 10, 5, 0).len(), 3);
    }

    #[test]
    fn assign_partitions_cover_all_points() {
        let data = clustered(100, 3, 4);
        let centroids = kmeans(&data, 5, 10, 1);
        let assignment = assign(&data, &centroids);
        assert_eq!(assignment.len(), 100);
        assert!(assignment.iter().all(|&a| a < centroids.len()));
    }

    #[test]
    fn full_probe_bruteforce_matches_flat() {
        let data = clustered(150, 6, 5);
        let idx = PartitionedIndex::build(data.clone(), Metric::L2Sq, Scoring::BruteForce, 7);
        let flat = FlatIndex::build(data.clone(), Metric::L2Sq);
        let query = &data[10];
        let a: Vec<u32> = idx
            .knn(query, 5, idx.members.len())
            .iter()
            .map(|x| x.0)
            .collect();
        let b: Vec<u32> = flat.knn(query, 5).iter().map(|x| x.0).collect();
        assert_eq!(a, b, "probing all partitions must equal exact search");
    }

    #[test]
    fn ah_scoring_finds_same_cluster() {
        let data = clustered(200, 8, 6);
        let idx =
            PartitionedIndex::build(data.clone(), Metric::L2Sq, Scoring::AsymmetricHashing, 8);
        let query = &data[0]; // cluster 0
        for (id, _) in idx.knn(query, 5, idx.members.len()) {
            assert_eq!(id as usize % 4, 0, "AH neighbor from wrong cluster");
        }
    }

    #[test]
    fn filter_runs_both_scorings() {
        let view = TextView {
            e1: vec![
                "canon camera".into(),
                "office chair".into(),
                "usb cable".into(),
            ]
            .into(),
            e2: vec!["canon camera body".into(), "black office chair".into()].into(),
        };
        for scoring in [Scoring::BruteForce, Scoring::AsymmetricHashing] {
            let f = PartitionedKnn {
                cleaning: false,
                k: 1,
                reversed: false,
                scoring,
                metric: Metric::L2Sq,
                probe_fraction: 1.0,
                embedding: EmbeddingConfig {
                    dim: 32,
                    ..Default::default()
                },
                seed: 3,
            };
            let out = f.run(&view);
            assert_eq!(out.candidates.len(), 2, "{scoring:?}");
            assert!(out
                .candidates
                .contains(er_core::candidates::Pair::new(0, 0)));
        }
    }
}
