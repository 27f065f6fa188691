//! Equal-population centroid dictionaries.
//!
//! Non-outlier weights are sorted by value and divided into `2^k` clusters of
//! (as close as possible to) equal population; the arithmetic mean of each
//! cluster becomes its centroid (paper §6). Because cluster boundaries are
//! value-ordered, assigning a weight to its centroid is a binary search over
//! the boundary table.

/// An equal-population dictionary: sorted centroids plus the cluster upper
/// boundaries used for assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct CentroidDictionary {
    centroids: Vec<f32>,
    /// `boundaries[i]` is the maximum value assigned to cluster `i`
    /// (inclusive); the last cluster has an implicit `+inf` boundary.
    boundaries: Vec<f32>,
}

impl CentroidDictionary {
    /// Builds a dictionary of `clusters` centroids from `values`.
    ///
    /// Values need not be sorted. If there are fewer distinct values than
    /// clusters, some clusters are empty and reuse their neighbor's centroid —
    /// harmless, they are simply never assigned.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or `clusters == 0`.
    pub fn build(values: &[f32], clusters: usize) -> Self {
        let mut sorted: Vec<f32> = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("weights must not be NaN"));
        Self::from_sorted(&sorted, clusters)
    }

    /// [`CentroidDictionary::build`] over values already in ascending
    /// order: dictionaries of several sizes over one population are cut
    /// from one sort.
    ///
    /// # Panics
    ///
    /// Panics if `sorted` is empty or `clusters == 0`.
    pub fn from_sorted(sorted: &[f32], clusters: usize) -> Self {
        assert!(!sorted.is_empty(), "cannot build a dictionary from no values");
        assert!(clusters > 0, "dictionary needs at least one cluster");
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "values must be sorted");

        let n = sorted.len();
        let mut centroids = Vec::with_capacity(clusters);
        let mut boundaries = Vec::with_capacity(clusters.saturating_sub(1));
        let mut prev_centroid = sorted[0];
        for c in 0..clusters {
            let start = c * n / clusters;
            let end = ((c + 1) * n / clusters).max(start);
            if start >= end {
                // Empty cluster: reuse the previous centroid; give it a
                // zero-width boundary so nothing maps to it.
                centroids.push(prev_centroid);
                if c < clusters - 1 {
                    boundaries.push(*boundaries.last().unwrap_or(&sorted[0]));
                }
                continue;
            }
            let slice = &sorted[start..end];
            let centroid = slice.iter().map(|&x| x as f64).sum::<f64>() as f32 / slice.len() as f32;
            centroids.push(centroid);
            prev_centroid = centroid;
            if c < clusters - 1 {
                boundaries.push(sorted[end - 1]);
            }
        }
        Self { centroids, boundaries }
    }

    /// The centroid values.
    pub fn centroids(&self) -> &[f32] {
        &self.centroids
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.centroids.len()
    }

    /// Whether the dictionary is empty (never true for built dictionaries).
    pub fn is_empty(&self) -> bool {
        self.centroids.is_empty()
    }

    /// Index of the cluster `value` belongs to.
    pub fn assign(&self, value: f32) -> u16 {
        // partition_point returns the first boundary >= value is false...
        // we want the first cluster whose boundary >= value.
        let idx = self.boundaries.partition_point(|&b| b < value);
        idx as u16
    }

    /// Centroid for a stored index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn lookup(&self, index: u16) -> f32 {
        self.centroids[index as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sti_tensor::Rng;

    #[test]
    fn equal_population_on_uniform_data() {
        let values: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let dict = CentroidDictionary::build(&values, 4);
        assert_eq!(dict.len(), 4);
        // Clusters of 250 consecutive integers: means are ~124.5, 374.5, ...
        let expected = [124.5, 374.5, 624.5, 874.5];
        for (c, e) in dict.centroids().iter().zip(expected) {
            assert!((c - e).abs() < 1.0, "centroid {c} vs expected {e}");
        }
    }

    #[test]
    fn assignment_maps_values_to_nearest_population_cluster() {
        let values: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let dict = CentroidDictionary::build(&values, 4);
        assert_eq!(dict.assign(0.0), 0);
        assert_eq!(dict.assign(99.0), 3);
        assert_eq!(dict.assign(30.0), 1);
        // Out-of-range values clamp to the edge clusters.
        assert_eq!(dict.assign(-100.0), 0);
        assert_eq!(dict.assign(1e6), 3);
    }

    #[test]
    fn quantization_error_shrinks_with_more_clusters() {
        let mut rng = Rng::new(4);
        let mut values = vec![0.0f32; 4096];
        rng.fill_gaussian(&mut values, 0.0, 1.0);
        let mut prev_mse = f32::INFINITY;
        for bits in [2u32, 3, 4, 5, 6] {
            let dict = CentroidDictionary::build(&values, 1 << bits);
            let mse: f32 = values
                .iter()
                .map(|&v| {
                    let err = v - dict.lookup(dict.assign(v));
                    err * err
                })
                .sum::<f32>()
                / values.len() as f32;
            assert!(mse < prev_mse, "mse did not shrink at {bits} bits: {mse} >= {prev_mse}");
            prev_mse = mse;
        }
    }

    #[test]
    fn handles_fewer_values_than_clusters() {
        let dict = CentroidDictionary::build(&[1.0, 2.0], 8);
        assert_eq!(dict.len(), 8);
        let idx = dict.assign(1.0);
        assert!((dict.lookup(idx) - 1.0).abs() < 1.5);
    }

    #[test]
    #[should_panic(expected = "no values")]
    fn build_rejects_empty_input() {
        let _ = CentroidDictionary::build(&[], 4);
    }
}
