//! Submodels assembled from externally supplied (e.g. dequantized) shards.

use crate::config::ShardId;
use crate::model::Model;
use crate::weights::ShardWeights;

/// One layer of an assembled submodel: the selected slice indexes and their
/// (possibly lossy) weights, in matching order.
#[derive(Debug, Clone, PartialEq)]
pub struct AssembledLayer {
    /// Which vertical slices of the original layer these weights belong to.
    pub slice_idxs: Vec<usize>,
    /// The slice weights (dequantized from whatever fidelity was loaded).
    pub shards: Vec<ShardWeights>,
}

/// An `n × m` submodel materialized in the working buffer: the output of
/// decompressing the shards an execution plan selected.
///
/// The transformer architecture requires every layer to have the same width
/// `m` (§4.2 of the paper); [`AssembledSubmodel::push_layer`] enforces this.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AssembledSubmodel {
    layers: Vec<AssembledLayer>,
}

impl AssembledSubmodel {
    /// Creates an empty submodel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer.
    ///
    /// # Panics
    ///
    /// Panics if `slice_idxs` and `shards` differ in length, are empty, or
    /// the width differs from previously pushed layers.
    pub fn push_layer(&mut self, slice_idxs: Vec<usize>, shards: Vec<ShardWeights>) {
        assert_eq!(slice_idxs.len(), shards.len(), "slice/shard count mismatch");
        assert!(!shards.is_empty(), "a submodel layer needs at least one shard");
        if let Some(first) = self.layers.first() {
            assert_eq!(
                first.slice_idxs.len(),
                slice_idxs.len(),
                "all submodel layers must share the same width m"
            );
        }
        self.layers.push(AssembledLayer { slice_idxs, shards });
    }

    /// Number of layers `n`.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Width `m` (0 if empty).
    pub fn width(&self) -> usize {
        self.layers.first().map_or(0, |l| l.shards.len())
    }

    /// The assembled layers in execution order.
    pub fn layers(&self) -> &[AssembledLayer] {
        &self.layers
    }

    /// Builds the full-fidelity submodel from a model's own weights, each
    /// selected shard read through [`Model::read_shard`] — used by the
    /// teacher and by baselines that skip quantization.
    ///
    /// `slices_per_layer[l]` lists the selected slice indexes of layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if any slice index is out of range for the model.
    pub fn from_model_slices(model: &Model, slices_per_layer: &[Vec<usize>]) -> Self {
        let cfg = model.config();
        let mut out = Self::new();
        let mut read = model.read_scratch();
        for (l, slices) in slices_per_layer.iter().enumerate() {
            let shards: Vec<ShardWeights> = slices
                .iter()
                .map(|&s| {
                    assert!(s < cfg.heads, "slice {s} out of range");
                    let mut shard = ShardWeights::zeros(cfg);
                    model.read_shard(ShardId::new(l as u16, s as u16), &mut shard, &mut read);
                    shard
                })
                .collect();
            out.push_layer(slices.clone(), shards);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;

    fn model() -> Model {
        Model::synthetic(1, ModelConfig::tiny())
    }

    #[test]
    fn depth_and_width_reflect_pushes() {
        let sub = AssembledSubmodel::from_model_slices(&model(), &[vec![0, 1], vec![2, 3]]);
        assert_eq!(sub.depth(), 2);
        assert_eq!(sub.width(), 2);
    }

    #[test]
    #[should_panic(expected = "same width")]
    fn rejects_ragged_widths() {
        let _ = AssembledSubmodel::from_model_slices(&model(), &[vec![0, 1], vec![2]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_slice_index() {
        let _ = AssembledSubmodel::from_model_slices(&model(), &[vec![99]]);
    }

    #[test]
    fn empty_submodel_reports_zero() {
        let sub = AssembledSubmodel::new();
        assert_eq!(sub.depth(), 0);
        assert_eq!(sub.width(), 0);
    }
}
