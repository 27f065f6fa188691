//! The full sharded model: synthesis, teacher forward, submodel forward.

use std::sync::Arc;

use sti_tensor::{stats, Matrix, Rng};

use crate::assemble::AssembledSubmodel;
use crate::classifier::Classifier;
use crate::config::{ModelConfig, ShardId};
use crate::embedding::Embedding;
use crate::layer::ForwardScratch;
use crate::operand::ShardOperand;
use crate::synthetic::{synthetic_layer, GainPattern};
use crate::weights::{LayerWeights, ShardWeights};

/// A complete sharded transformer model with synthetic weights.
///
/// The model plays two roles in the reproduction:
///
/// 1. **Teacher / weight source** — its full-fidelity weights define the
///    ground truth labels of the synthetic tasks and are what gets
///    quantized into the shard store.
/// 2. **Resident parameters** — embedding, layer norms, biases, and the
///    classifier head stay in memory (paper §6) and are shared by every
///    submodel execution.
///
/// **Ownership:** one writer at construction, then shared and immutable.
/// The weights sit behind a reference count and no method reaches them
/// mutably, so `clone()` is a handle to the same model: every engine and
/// server built over one task reads the residents of the one copy.
#[derive(Debug, Clone)]
pub struct Model {
    weights: Arc<Weights>,
}

#[derive(Debug)]
struct Weights {
    cfg: ModelConfig,
    embedding: Embedding,
    layers: Vec<LayerWeights>,
    classifier: Classifier,
    /// `0..M`: the slice indexes of a full-width layer.
    all_slices: Vec<usize>,
}

impl Model {
    /// Generates a model with uniformly distributed shard gains.
    pub fn synthetic(seed: u64, cfg: ModelConfig) -> Self {
        Self::synthetic_with_pattern(seed, cfg, GainPattern::Uniform)
    }

    /// Generates a model whose shard-importance structure follows `pattern`
    /// (different synthetic tasks use different patterns; cf. paper Fig. 5).
    pub fn synthetic_with_pattern(seed: u64, cfg: ModelConfig, pattern: GainPattern) -> Self {
        cfg.validate();
        let mut rng = Rng::new(seed);
        let embedding = Embedding::synthetic(&cfg, rng.next_u64());
        let layers = (0..cfg.layers).map(|l| synthetic_layer(&cfg, &mut rng, l, pattern)).collect();
        let classifier = Classifier::synthetic(&cfg, rng.next_u64());
        let all_slices = (0..cfg.heads).collect();
        Self { weights: Arc::new(Weights { cfg, embedding, layers, classifier, all_slices }) }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.weights.cfg
    }

    /// The resident embedding tables.
    pub fn embedding(&self) -> &Embedding {
        &self.weights.embedding
    }

    /// The classifier head.
    pub fn classifier(&self) -> &Classifier {
        &self.weights.classifier
    }

    /// All layers (full fidelity).
    pub fn layers(&self) -> &[LayerWeights] {
        &self.weights.layers
    }

    /// Full-fidelity weights of one shard.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn shard(&self, id: ShardId) -> &ShardWeights {
        &self.weights.layers[id.layer as usize].shards[id.slice as usize]
    }

    /// The slice indexes of a full-width layer, `0..M`.
    pub fn all_slices(&self) -> &[usize] {
        &self.weights.all_slices
    }

    /// Runs the full `N × M` model at full fidelity — the teacher.
    pub fn forward_full(&self, tokens: &[u32]) -> Vec<f32> {
        let mut x = self.weights.embedding.embed(tokens);
        let mut scratch = ForwardScratch::new(&self.weights.cfg);
        self.run_layers(&mut x, 0, self.full_layers(), true, &mut scratch);
        self.weights.classifier.logits(&x)
    }

    /// Every layer at full width and fidelity, as the layer loop takes it.
    fn full_layers(&self) -> impl Iterator<Item = (&[usize], &LayerWeights)> {
        self.weights.layers.iter().map(|layer| (self.all_slices(), layer))
    }

    /// Feeds hidden state `x` through consecutive layers starting at layer
    /// `first`, layer `first + i` executing the `i`-th item of `layers` — its
    /// slice indexes and their weights in matching order — against this
    /// model's resident parameters. `first > 0` resumes from a hidden state
    /// an earlier call produced, which is bit-identical to one uninterrupted
    /// pass.
    ///
    /// # Panics
    ///
    /// Panics if `layers` runs past the model's depth.
    pub fn forward_layers<'a>(
        &self,
        mut x: Matrix,
        first: usize,
        layers: impl IntoIterator<Item = (&'a [usize], Vec<&'a ShardWeights>)>,
    ) -> Matrix {
        let mut scratch = ForwardScratch::new(&self.weights.cfg);
        self.run_layers(&mut x, first, layers, false, &mut scratch);
        x
    }

    /// Class logits of [`Model::forward_layers`]' final hidden state. The
    /// classifier reads the CLS row only, so the last layer computes that row
    /// alone ([`ForwardScratch::layer_cls`]): the same bits for one row's
    /// worth of attention scores, residuals, norms and FFN instead of `l`.
    /// With no layers, the logits of `x` itself.
    ///
    /// # Panics
    ///
    /// Panics if `layers` runs past the model's depth.
    pub fn forward_logits<'a>(
        &self,
        mut x: Matrix,
        first: usize,
        layers: impl IntoIterator<Item = (&'a [usize], Vec<&'a ShardWeights>)>,
    ) -> Vec<f32> {
        let mut scratch = ForwardScratch::new(&self.weights.cfg);
        self.run_layers(&mut x, first, layers, true, &mut scratch);
        self.weights.classifier.logits(&x)
    }

    /// The one layer loop every forward path shares, over `x` in place;
    /// `cls_only` runs the last layer for the CLS row alone.
    fn run_layers<'a, S: ShardOperand>(
        &self,
        x: &mut Matrix,
        first: usize,
        layers: impl IntoIterator<Item = (&'a [usize], S)>,
        cls_only: bool,
        scratch: &mut ForwardScratch,
    ) {
        let mut residents = self.weights.layers[first..].iter().map(|l| &l.resident);
        let mut layers = layers.into_iter().peekable();
        while let Some((slice_idxs, shards)) = layers.next() {
            let resident = residents.next().expect("submodel deeper than model");
            let cfg = &self.weights.cfg;
            if cls_only && layers.peek().is_none() {
                scratch.layer_cls(x, shards, slice_idxs, resident, cfg);
            } else {
                scratch.layer(x, shards, slice_idxs, resident, cfg);
            }
        }
    }

    /// Runs a submodel over the model's own full-fidelity weights.
    ///
    /// `slices_per_layer[l]` lists the slice indexes executed at layer `l`;
    /// its length is the submodel depth `n` (the bottom `n` layers run, as
    /// in depth-adaptive transformers).
    ///
    /// # Panics
    ///
    /// Panics if any layer list is empty or widths are ragged.
    pub fn forward_submodel(&self, tokens: &[u32], slices_per_layer: &[Vec<usize>]) -> Vec<f32> {
        assert!(!slices_per_layer.is_empty(), "submodel needs at least one layer");
        let width = slices_per_layer[0].len();
        let layers = slices_per_layer.iter().enumerate().map(|(l, slices)| {
            assert_eq!(slices.len(), width, "submodel layers must share one width");
            (slices.as_slice(), slices.iter().map(|&s| &self.weights.layers[l].shards[s]).collect())
        });
        self.forward_logits(self.weights.embedding.embed(tokens), 0, layers)
    }

    /// Runs an externally assembled submodel (dequantized shards) through
    /// the model's resident parameters.
    ///
    /// # Panics
    ///
    /// Panics if the submodel is empty or deeper than the model.
    pub fn forward_assembled(&self, tokens: &[u32], submodel: &AssembledSubmodel) -> Vec<f32> {
        assert!(submodel.depth() > 0, "assembled submodel is empty");
        assert!(submodel.depth() <= self.weights.cfg.layers, "submodel deeper than model");
        let layers = submodel
            .layers()
            .iter()
            .map(|asm| (asm.slice_idxs.as_slice(), asm.shards.iter().collect()));
        self.forward_logits(self.weights.embedding.embed(tokens), 0, layers)
    }

    /// Runs an assembled submodel and returns `(predicted class, softmax
    /// probabilities)`.
    pub fn predict_assembled(
        &self,
        tokens: &[u32],
        submodel: &AssembledSubmodel,
    ) -> (usize, Vec<f32>) {
        let mut logits = self.forward_assembled(tokens, submodel);
        sti_tensor::softmax::softmax_slice(&mut logits);
        let class = stats::argmax(&logits).expect("at least one class");
        (class, logits)
    }

    /// Teacher prediction: full model, full fidelity.
    pub fn predict_full(&self, tokens: &[u32]) -> usize {
        let mut x = Matrix::zeros(0, 0);
        self.predict_full_with(tokens, &mut x, &mut ForwardScratch::new(&self.weights.cfg))
    }

    /// [`Model::predict_full`] in the caller's memory: `x` holds the hidden
    /// state (the embedding first, the final CLS row last) and `scratch`
    /// everything else, so with both sized for this model it allocates
    /// nothing.
    pub fn predict_full_with(
        &self,
        tokens: &[u32],
        x: &mut Matrix,
        scratch: &mut ForwardScratch,
    ) -> usize {
        self.weights.embedding.embed_into(tokens, x);
        self.run_layers(x, 0, self.full_layers(), true, scratch);
        stats::argmax(scratch.logits(&self.weights.classifier, x)).expect("at least one class")
    }

    /// Bytes of resident (non-streamed) parameters: embedding, layer norms,
    /// biases, classifier.
    pub fn resident_byte_size(&self) -> usize {
        self.weights.embedding.byte_size()
            + self.weights.layers.iter().map(|l| l.resident.byte_size()).sum::<usize>()
            + self.weights.classifier.byte_size()
    }

    /// FP32 bytes of all sharded (streamable) parameters.
    pub fn sharded_byte_size(&self) -> usize {
        self.weights.cfg.layer_fp32_bytes() * self.weights.cfg.layers
    }
}

// Re-export for ergonomic embedding access in downstream crates.
pub use crate::embedding::Embedding as ModelEmbedding;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> Model {
        Model::synthetic(42, ModelConfig::tiny())
    }

    #[test]
    fn forward_full_is_deterministic() {
        let m = tiny_model();
        assert_eq!(m.forward_full(&[1, 2, 3]), m.forward_full(&[1, 2, 3]));
    }

    #[test]
    fn different_inputs_give_different_logits() {
        let m = tiny_model();
        let a = m.forward_full(&[1, 2, 3]);
        let b = m.forward_full(&[4, 5, 6]);
        assert_ne!(a, b);
    }

    #[test]
    fn submodel_of_full_size_equals_forward_full() {
        let m = tiny_model();
        let cfg = m.config().clone();
        let slices: Vec<Vec<usize>> = (0..cfg.layers).map(|_| (0..cfg.heads).collect()).collect();
        assert_eq!(m.forward_full(&[7, 8]), m.forward_submodel(&[7, 8], &slices));
    }

    #[test]
    fn assembled_full_fidelity_matches_internal_forward() {
        let m = tiny_model();
        let cfg = m.config().clone();
        let slices: Vec<Vec<usize>> = (0..cfg.layers).map(|_| (0..cfg.heads).collect()).collect();
        let sub = AssembledSubmodel::from_model_slices(m.layers(), &slices, &cfg);
        let a = m.forward_assembled(&[3, 1], &sub);
        let b = m.forward_full(&[3, 1]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn resuming_from_a_kept_hidden_state_is_bit_identical() {
        let m = tiny_model();
        let all: Vec<usize> = (0..m.config().heads).collect();
        let layer = |l: usize| (all.as_slice(), m.layers()[l].shards.iter().collect());
        let embedded = m.embedding().embed(&[4, 9, 2]);
        let entering_1 = m.forward_layers(embedded.clone(), 0, [layer(0)]);
        let resumed = m.forward_layers(entering_1, 1, [layer(1)]);
        assert_eq!(resumed, m.forward_layers(embedded, 0, [layer(0), layer(1)]));
        assert_eq!(m.classifier().logits(&resumed), m.forward_full(&[4, 9, 2]));
    }

    /// The CLS-only last layer is invisible in the logits: every path that
    /// ends in the classifier equals the classifier over full hidden states,
    /// at depth one (the last layer is the first), with out-of-order slices,
    /// resumed mid-model, and with no layer left to run.
    #[test]
    fn logits_equal_the_classifier_over_full_hidden_states_bit_for_bit() {
        let bits = |logits: Vec<f32>| logits.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        let m = tiny_model();
        let embedded = || m.embedding().embed(&[6, 0, 61]);
        fn grid<'a>(
            m: &'a Model,
            slices: &'a [&'a [usize]],
        ) -> impl Iterator<Item = (&'a [usize], Vec<&'a ShardWeights>)> {
            let layers = m.layers().iter().zip(slices);
            layers.map(|(layer, &s)| (s, s.iter().map(|&i| &layer.shards[i]).collect()))
        }
        let grids: [&[&[usize]]; 3] =
            [&[&[2, 0]], &[&[3, 1, 0], &[0, 2, 3]], &[&[0, 1, 2, 3], &[0, 1, 2, 3]]];
        for slices in grids {
            let hidden = m.forward_layers(embedded(), 0, grid(&m, slices));
            let want = bits(m.classifier().logits(&hidden));
            assert_eq!(bits(m.forward_logits(embedded(), 0, grid(&m, slices))), want);
            let owned: Vec<Vec<usize>> = slices.iter().map(|s| s.to_vec()).collect();
            assert_eq!(bits(m.forward_submodel(&[6, 0, 61], &owned)), want);
            let sub = AssembledSubmodel::from_model_slices(m.layers(), &owned, m.config());
            assert_eq!(bits(m.forward_assembled(&[6, 0, 61], &sub)), want);
            // Resumed at the last layer, and past it.
            let entering = m.forward_layers(embedded(), 0, grid(&m, slices).take(slices.len() - 1));
            let last = grid(&m, slices).skip(slices.len() - 1);
            assert_eq!(bits(m.forward_logits(entering, slices.len() - 1, last)), want);
            assert_eq!(bits(m.forward_logits(hidden, slices.len(), [])), want);
        }
    }

    #[test]
    fn narrower_submodel_changes_but_still_predicts() {
        let m = tiny_model();
        let slices: Vec<Vec<usize>> = vec![vec![0, 1], vec![2, 3]];
        let logits = m.forward_submodel(&[1, 2, 3], &slices);
        assert_eq!(logits.len(), m.config().classes);
        assert!(logits.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn shallow_submodel_runs() {
        let m = tiny_model();
        let slices: Vec<Vec<usize>> = vec![(0..m.config().heads).collect()];
        let logits = m.forward_submodel(&[9], &slices);
        assert!(logits.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn shard_accessor_matches_layer_storage() {
        let m = tiny_model();
        let id = ShardId::new(1, 2);
        assert_eq!(m.shard(id), &m.layers()[1].shards[2]);
    }

    #[test]
    fn resident_bytes_far_smaller_than_sharded() {
        let m = Model::synthetic(1, ModelConfig::scaled_bert());
        // Embedding dominates resident size but everything resident must
        // still be far below the streamable shard bytes.
        assert!(m.resident_byte_size() < m.sharded_byte_size());
    }

    #[test]
    #[should_panic(expected = "deeper than model")]
    fn assembled_too_deep_is_rejected() {
        let m = tiny_model();
        let cfg = m.config().clone();
        let slices: Vec<Vec<usize>> =
            (0..cfg.layers + 1).map(|_| (0..cfg.heads).collect()).collect();
        // Build an over-deep submodel by repeating the last layer's weights.
        let mut sub = AssembledSubmodel::new();
        for l in 0..slices.len() {
            let src = l.min(cfg.layers - 1);
            let shards: Vec<_> =
                (0..cfg.heads).map(|s| m.layers()[src].shards[s].clone()).collect();
            sub.push_layer((0..cfg.heads).collect(), shards);
        }
        let _ = m.forward_assembled(&[1], &sub);
    }

    #[test]
    fn quantized_assembly_stays_close_to_teacher() {
        use sti_quant::{Bitwidth, QuantConfig, QuantizedBlob};
        let m = tiny_model();
        let cfg = m.config().clone();
        let qc = QuantConfig::default();
        // Assemble the full grid from 6-bit round-tripped weights.
        let mut sub = AssembledSubmodel::new();
        for l in 0..cfg.layers {
            let shards: Vec<ShardWeights> = (0..cfg.heads)
                .map(|s| {
                    let flat = m.layers()[l].shards[s].flatten();
                    let blob = QuantizedBlob::quantize(&flat, Bitwidth::B6, &qc);
                    ShardWeights::from_flat(&blob.dequantize(), &cfg)
                })
                .collect();
            sub.push_layer((0..cfg.heads).collect(), shards);
        }
        let teacher = m.forward_full(&[5, 6, 7]);
        let student = m.forward_assembled(&[5, 6, 7], &sub);
        let max_diff =
            teacher.iter().zip(&student).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        assert!(max_diff < 1.0, "6-bit logits drifted too far: {max_diff}");
    }
}
