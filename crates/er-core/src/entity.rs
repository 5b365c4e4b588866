//! The entity-profile model of the benchmark (paper §III).
//!
//! An entity profile is a set of textual `⟨name, value⟩` pairs describing a
//! real-world object. The model covers relational records (fixed schema) and
//! semi-structured RDF-style descriptions (heterogeneous schemata) alike.

/// A single textual `⟨name, value⟩` pair inside an entity profile.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Attribute {
    /// The attribute name, e.g. `"title"`.
    pub name: String,
    /// The attribute value, e.g. `"DBLP-ACM"`. May be empty.
    pub value: String,
}

impl Attribute {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, value: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            value: value.into(),
        }
    }
}

/// An entity profile: an ordered collection of attributes.
///
/// Profiles are identified positionally within their collection; the
/// candidate-pair layer works with `u32` indices into `E1`/`E2`, never with
/// the profiles themselves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Entity {
    /// The attributes of this profile, in source order.
    pub attributes: Vec<Attribute>,
}

impl Entity {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a profile from `(name, value)` pairs.
    pub fn from_pairs<N, V>(pairs: impl IntoIterator<Item = (N, V)>) -> Self
    where
        N: Into<String>,
        V: Into<String>,
    {
        Self {
            attributes: pairs
                .into_iter()
                .map(|(n, v)| Attribute::new(n, v))
                .collect(),
        }
    }

    /// Appends an attribute.
    pub fn push(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.attributes.push(Attribute::new(name, value));
    }

    /// Returns the value of the first attribute named `name`, if present and
    /// non-empty.
    pub fn value_of(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|a| a.name == name && !a.value.is_empty())
            .map(|a| a.value.as_str())
    }

    /// Concatenates all attribute values into one long textual value — the
    /// schema-agnostic representation of the profile.
    pub fn all_values(&self) -> String {
        let total: usize = self.attributes.iter().map(|a| a.value.len() + 1).sum();
        let mut out = String::with_capacity(total);
        for attr in &self.attributes {
            if attr.value.is_empty() {
                continue;
            }
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&attr.value);
        }
        out
    }

    /// Total number of characters across all attribute values.
    pub fn char_len(&self) -> usize {
        self.attributes
            .iter()
            .map(|a| a.value.chars().count())
            .sum()
    }

    /// True if the profile has no attribute with a non-empty value.
    pub fn is_empty(&self) -> bool {
        self.attributes.iter().all(|a| a.value.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Entity {
        Entity::from_pairs([("name", "Joe's Diner"), ("phone", ""), ("city", "Athens")])
    }

    #[test]
    fn value_of_skips_empty_values() {
        let e = sample();
        assert_eq!(e.value_of("name"), Some("Joe's Diner"));
        assert_eq!(e.value_of("phone"), None);
        assert_eq!(e.value_of("missing"), None);
    }

    #[test]
    fn value_of_returns_first_match() {
        let e = Entity::from_pairs([("t", "a"), ("t", "b")]);
        assert_eq!(e.value_of("t"), Some("a"));
    }

    #[test]
    fn all_values_concatenates_nonempty() {
        assert_eq!(sample().all_values(), "Joe's Diner Athens");
        assert_eq!(Entity::new().all_values(), "");
    }

    #[test]
    fn char_len_counts_chars_not_bytes() {
        let e = Entity::from_pairs([("n", "café")]);
        assert_eq!(e.char_len(), 4);
    }

    #[test]
    fn is_empty_detects_blank_profiles() {
        assert!(Entity::new().is_empty());
        assert!(Entity::from_pairs([("a", "")]).is_empty());
        assert!(!sample().is_empty());
    }
}
