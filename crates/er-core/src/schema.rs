//! Schema-agnostic vs. schema-based settings (paper §VI).
//!
//! The schema-agnostic setting concatenates every attribute value of a
//! profile into one long textual value; the schema-based setting keeps only
//! the value of the *best attribute*, chosen by coverage (portion of
//! entities with a non-empty value) and distinctiveness (portion of distinct
//! values among those). This module computes both views plus the attribute
//! and corpus statistics behind Figure 3.

use crate::dataset::Dataset;
use crate::hash::{FastMap, FastSet};
use er_text::{tokenize, Cleaner};

/// Which textual view of the profiles a filter should run on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaMode {
    /// Use all attribute values, concatenated ("long textual value").
    Agnostic,
    /// Use only the named attribute's value.
    Based(String),
    /// Use only the automatically selected best attribute.
    BestAttribute,
}

/// Per-attribute statistics (Figure 3a).
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeStats {
    /// Attribute name.
    pub name: String,
    /// Portion of all entities (E1 ∪ E2) with a non-empty value.
    pub coverage: f64,
    /// Portion of duplicate profiles with a non-empty value — the paper's
    /// "groundtruth coverage"; it upper-bounds schema-based recall.
    pub groundtruth_coverage: f64,
    /// Portion of distinct values among covered entities.
    pub distinctiveness: f64,
}

impl AttributeStats {
    /// The selection score: attributes must be both frequent and
    /// discriminating, so we rank by the product.
    pub fn score(&self) -> f64 {
        self.coverage * self.distinctiveness
    }
}

/// The extracted per-entity texts both collections of a dataset.
///
/// Both columns are `Arc`-backed so that [`TextView::reversed`] and clones
/// held by prepared artifacts share storage instead of copying every
/// entity string.
#[derive(Debug, Clone, Default)]
pub struct TextView {
    /// One string per `E1` entity.
    pub e1: std::sync::Arc<[String]>,
    /// One string per `E2` entity.
    pub e2: std::sync::Arc<[String]>,
}

impl TextView {
    /// Builds a view from any pair of string columns.
    pub fn new(
        e1: impl Into<std::sync::Arc<[String]>>,
        e2: impl Into<std::sync::Arc<[String]>>,
    ) -> TextView {
        TextView {
            e1: e1.into(),
            e2: e2.into(),
        }
    }

    /// Swaps the two sides (the `RVS` parameter). Costs two `Arc` clones.
    pub fn reversed(&self) -> TextView {
        TextView {
            e1: self.e2.clone(),
            e2: self.e1.clone(),
        }
    }

    /// A content fingerprint over both columns (FNV-1a over lengths and
    /// bytes, side-distinguishing), used as the dataset half of artifact
    /// cache keys.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        for (side, column) in [(1u8, &self.e1), (2u8, &self.e2)] {
            eat(&[side]);
            eat(&(column.len() as u64).to_le_bytes());
            for text in column.iter() {
                eat(&(text.len() as u64).to_le_bytes());
                eat(text.as_bytes());
            }
        }
        h
    }
}

/// Aggregate corpus statistics for Figures 3b/3c.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusStats {
    /// Total number of distinct tokens across both collections.
    pub vocabulary_size: usize,
    /// Total number of characters across both collections.
    pub char_length: usize,
}

/// Computes coverage / distinctiveness statistics for every attribute name
/// appearing in the dataset, sorted by descending [`AttributeStats::score`].
pub fn attribute_stats(ds: &Dataset) -> Vec<AttributeStats> {
    #[derive(Default)]
    struct Acc {
        covered: usize,
        distinct: FastSet<String>,
        gt_covered: usize,
    }
    let mut accs: FastMap<String, Acc> = FastMap::default();

    let all = ds.e1.iter().chain(ds.e2.iter());
    for entity in all {
        let mut seen: FastSet<&str> = FastSet::default();
        for attr in &entity.attributes {
            if attr.value.is_empty() || !seen.insert(attr.name.as_str()) {
                continue;
            }
            let acc = accs.entry(attr.name.clone()).or_default();
            acc.covered += 1;
            acc.distinct.insert(attr.value.clone());
        }
    }

    // Ground-truth coverage: count duplicate *profiles* (both sides) that
    // carry a non-empty value for the attribute.
    for pair in ds.groundtruth.iter() {
        for entity in [&ds.e1[pair.left as usize], &ds.e2[pair.right as usize]] {
            let mut seen: FastSet<&str> = FastSet::default();
            for attr in &entity.attributes {
                if attr.value.is_empty() || !seen.insert(attr.name.as_str()) {
                    continue;
                }
                if let Some(acc) = accs.get_mut(&attr.name) {
                    acc.gt_covered += 1;
                }
            }
        }
    }

    let total = (ds.e1.len() + ds.e2.len()).max(1) as f64;
    let gt_total = (2 * ds.groundtruth.len()).max(1) as f64;
    let mut stats: Vec<AttributeStats> = accs
        .into_iter()
        .map(|(name, acc)| AttributeStats {
            name,
            coverage: acc.covered as f64 / total,
            groundtruth_coverage: acc.gt_covered as f64 / gt_total,
            distinctiveness: acc.distinct.len() as f64 / acc.covered.max(1) as f64,
        })
        .collect();
    stats.sort_by(|a, b| {
        b.score()
            .partial_cmp(&a.score())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.name.cmp(&b.name))
    });
    stats
}

/// Returns the best attribute per coverage × distinctiveness, if the
/// dataset has any non-empty attribute.
pub fn best_attribute(ds: &Dataset) -> Option<String> {
    attribute_stats(ds).into_iter().next().map(|s| s.name)
}

/// Extracts the per-entity texts for the requested schema mode.
///
/// Entities lacking the selected attribute yield an empty string; filters
/// simply produce no signatures/vectors for them, which is how the paper's
/// coverage losses materialize in schema-based settings.
pub fn text_view(ds: &Dataset, mode: &SchemaMode) -> TextView {
    let attr = match mode {
        SchemaMode::Agnostic => None,
        SchemaMode::Based(name) => Some(name.clone()),
        SchemaMode::BestAttribute => best_attribute(ds),
    };
    let extract = |entity: &crate::entity::Entity| -> String {
        match &attr {
            None => entity.all_values(),
            Some(name) => entity.value_of(name).unwrap_or("").to_owned(),
        }
    };
    TextView {
        e1: ds.e1.iter().map(extract).collect(),
        e2: ds.e2.iter().map(extract).collect(),
    }
}

/// Computes vocabulary size and character length of a view, optionally
/// after cleaning (stop-word removal + stemming), for Figures 3b/3c.
pub fn corpus_stats(view: &TextView, cleaned: bool) -> CorpusStats {
    let cleaner = if cleaned {
        Cleaner::on()
    } else {
        Cleaner::off()
    };
    let mut vocab: FastSet<String> = FastSet::default();
    let mut chars = 0usize;
    for text in view.e1.iter().chain(view.e2.iter()) {
        let tokens = if cleaned {
            cleaner.clean_to_tokens(text)
        } else {
            tokenize(text)
        };
        for t in &tokens {
            chars += t.chars().count();
        }
        // Account for separating spaces, matching "overall character
        // length of the textual content".
        chars += tokens.len().saturating_sub(1);
        vocab.extend(tokens);
    }
    CorpusStats {
        vocabulary_size: vocab.len(),
        char_length: chars,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::Pair;
    use crate::dataset::GroundTruth;
    use crate::entity::Entity;

    fn movie_ds() -> Dataset {
        let e1 = vec![
            Entity::from_pairs([("title", "Heat"), ("year", "1995")]),
            Entity::from_pairs([("title", "Alien"), ("year", "1979")]),
            Entity::from_pairs([("title", ""), ("year", "1995")]),
        ];
        let e2 = vec![
            Entity::from_pairs([("title", "Heat (1995)"), ("year", "1995")]),
            Entity::from_pairs([("title", "Aliens"), ("year", "1986")]),
        ];
        let gt = GroundTruth::from_pairs([Pair::new(0, 0)]);
        Dataset::new("M", "A / B", e1, e2, gt)
    }

    #[test]
    fn title_beats_year_on_distinctiveness() {
        let stats = attribute_stats(&movie_ds());
        assert_eq!(stats[0].name, "title");
        let year = stats.iter().find(|s| s.name == "year").expect("year stats");
        // 1995 repeats -> distinctiveness < 1.
        assert!(year.distinctiveness < 1.0);
        assert_eq!(best_attribute(&movie_ds()).as_deref(), Some("title"));
    }

    #[test]
    fn coverage_counts_nonempty_only() {
        let stats = attribute_stats(&movie_ds());
        let title = stats.iter().find(|s| s.name == "title").expect("title");
        // 4 of 5 entities carry a title.
        assert!((title.coverage - 0.8).abs() < 1e-9);
        // Both duplicate profiles carry a title.
        assert!((title.groundtruth_coverage - 1.0).abs() < 1e-9);
    }

    #[test]
    fn agnostic_view_concatenates() {
        let view = text_view(&movie_ds(), &SchemaMode::Agnostic);
        assert_eq!(view.e1[0], "Heat 1995");
        assert_eq!(view.e1[2], "1995");
    }

    #[test]
    fn based_view_selects_attribute() {
        let view = text_view(&movie_ds(), &SchemaMode::Based("title".into()));
        assert_eq!(view.e1[0], "Heat");
        assert_eq!(view.e1[2], ""); // missing title -> empty text
        let auto = text_view(&movie_ds(), &SchemaMode::BestAttribute);
        assert_eq!(auto.e1, view.e1);
    }

    #[test]
    fn reversed_view_swaps() {
        let view = text_view(&movie_ds(), &SchemaMode::Agnostic);
        let rev = view.reversed();
        assert_eq!(rev.e1, view.e2);
        assert_eq!(rev.e2, view.e1);
        // Reversal shares the column storage rather than deep-cloning.
        assert!(std::sync::Arc::ptr_eq(&rev.e1, &view.e2));
        assert!(std::sync::Arc::ptr_eq(&rev.e2, &view.e1));
    }

    #[test]
    fn fingerprint_distinguishes_content_and_sides() {
        let view = text_view(&movie_ds(), &SchemaMode::Agnostic);
        assert_eq!(view.fingerprint(), view.clone().fingerprint());
        assert_ne!(view.fingerprint(), view.reversed().fingerprint());
        let other = text_view(&movie_ds(), &SchemaMode::BestAttribute);
        assert_ne!(view.fingerprint(), other.fingerprint());
        // Concatenation boundaries matter: ["ab"] != ["a", "b"].
        let joined = TextView::new(vec!["ab".to_owned()], vec![]);
        let split = TextView::new(vec!["a".to_owned(), "b".to_owned()], vec![]);
        assert_ne!(joined.fingerprint(), split.fingerprint());
    }

    #[test]
    fn schema_based_shrinks_corpus() {
        let ds = movie_ds();
        let agn = corpus_stats(&text_view(&ds, &SchemaMode::Agnostic), false);
        let based = corpus_stats(&text_view(&ds, &SchemaMode::BestAttribute), false);
        assert!(based.vocabulary_size <= agn.vocabulary_size);
        assert!(based.char_length <= agn.char_length);
    }

    #[test]
    fn cleaning_never_grows_corpus() {
        let ds = movie_ds();
        let view = text_view(&ds, &SchemaMode::Agnostic);
        let raw = corpus_stats(&view, false);
        let clean = corpus_stats(&view, true);
        assert!(clean.vocabulary_size <= raw.vocabulary_size);
        assert!(clean.char_length <= raw.char_length);
    }
}
