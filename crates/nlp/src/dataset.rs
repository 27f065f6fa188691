//! Labeled example sets.

use serde::{Deserialize, Serialize};

/// One labeled example: a padded token sequence and its gold class.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Example {
    /// Input token ids.
    pub tokens: Vec<u32>,
    /// Gold label (teacher prediction, possibly noise-flipped).
    pub label: usize,
}

/// A set of labeled examples (a dev or test split).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dataset {
    examples: Vec<Example>,
}

impl Dataset {
    /// Creates a dataset from examples.
    pub fn new(examples: Vec<Example>) -> Self {
        Self { examples }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Iterates over examples.
    pub fn iter(&self) -> impl Iterator<Item = &Example> {
        self.examples.iter()
    }

    /// Borrow the examples.
    pub fn examples(&self) -> &[Example] {
        &self.examples
    }
}

impl FromIterator<Example> for Dataset {
    fn from_iter<I: IntoIterator<Item = Example>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

impl Extend<Example> for Dataset {
    fn extend<I: IntoIterator<Item = Example>>(&mut self, iter: I) {
        self.examples.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex(label: usize) -> Example {
        Example { tokens: vec![1, 2], label }
    }

    #[test]
    fn len_and_iteration() {
        let d = Dataset::new(vec![ex(0), ex(1), ex(1)]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.iter().filter(|e| e.label == 1).count(), 2);
    }

    #[test]
    fn collect_and_extend() {
        let mut d: Dataset = (0..3).map(|i| ex(i % 2)).collect();
        d.extend([ex(0)]);
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn empty_dataset_is_safe() {
        let d = Dataset::default();
        assert!(d.is_empty());
        assert_eq!(d.iter().count(), 0);
    }
}
