//! The full sharded model: synthesis, teacher forward, submodel forward.

use std::sync::Arc;

use sti_tensor::parallel::parallel_update_scratch;
use sti_tensor::{stats, Matrix, Rng};

use crate::assemble::AssembledSubmodel;
use crate::classifier::Classifier;
use crate::config::{ModelConfig, ShardId};
use crate::embedding::Embedding;
use crate::layer::ForwardScratch;
use crate::operand::{ShardOperand, WholeLayer};
use crate::source::{ReadScratch, ShardWeightSource};
use crate::synthetic::{GainPattern, SeededShards};
use crate::weights::{ModelLayer, ShardWeights};

/// A complete sharded transformer model: its resident parameters, and the
/// source its full-fidelity shard weights are read from.
///
/// The model plays two roles in the reproduction:
///
/// 1. **Resident parameters** — embedding, layer norms, biases, and the
///    classifier head stay in memory (paper §6) and are shared by every
///    submodel execution. They are all the model holds.
/// 2. **Teacher / weight source** — its full-fidelity shard weights define
///    the ground-truth labels of the synthetic tasks and are what gets
///    quantized into the shard store. Every reader gets them through
///    [`Model::read_shard`], which writes one shard into memory the caller
///    owns, from the model's [`ShardWeightSource`]: a synthesised model
///    regenerates the shard from the seeds it was drawn with, and a model
///    re-pointed with [`Model::with_shard_source`] (a `TaskContext`'s)
///    reads its shard store's full-fidelity records, the same bits. No
///    model holds the FP32 grid of all its shards, or ever built one.
///
/// **Ownership:** one writer at construction, then shared and immutable.
/// The residents and the shard source sit behind reference counts and no
/// method reaches them mutably, so `clone()` is a handle to the same model:
/// every engine and server built over one task reads the residents of the
/// one copy.
#[derive(Debug, Clone)]
pub struct Model {
    residents: Arc<Residents>,
    shards: Arc<dyn ShardWeightSource>,
}

#[derive(Debug)]
struct Residents {
    cfg: ModelConfig,
    embedding: Embedding,
    layers: Vec<ModelLayer>,
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
    /// It draws the residents and each shard's seeds, and no shard: a read
    /// regenerates the shard from its seeds, the weights
    /// [`synthetic_layer`](crate::synthetic::synthetic_layer) draws from the
    /// same RNG stream.
    pub fn synthetic_with_pattern(seed: u64, cfg: ModelConfig, pattern: GainPattern) -> Self {
        cfg.validate();
        let mut rng = Rng::new(seed);
        let embedding = Embedding::synthetic(&cfg, rng.next_u64());
        let mut seeds = SeededShards::new(&cfg);
        let layers = (0..cfg.layers)
            .map(|_| ModelLayer { resident: seeds.draw_layer(&mut rng, pattern) })
            .collect();
        let classifier = Classifier::synthetic(&cfg, rng.next_u64());
        let all_slices = (0..cfg.heads).collect();
        let residents = Residents { cfg, embedding, layers, classifier, all_slices };
        Self { residents: Arc::new(residents), shards: Arc::new(seeds) }
    }

    /// This model's residents over another source of its shard weights —
    /// a store written from this model — which must hold the same weights
    /// bit for bit. The residents are shared, not copied; once every handle
    /// on the old source is gone, so is its memory.
    pub fn with_shard_source(&self, shards: Arc<dyn ShardWeightSource>) -> Self {
        Self { residents: self.residents.clone(), shards }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.residents.cfg
    }

    /// The resident embedding tables.
    pub fn embedding(&self) -> &Embedding {
        &self.residents.embedding
    }

    /// The classifier head.
    pub fn classifier(&self) -> &Classifier {
        &self.residents.classifier
    }

    /// All layers, as the model holds them: their resident parameters.
    pub fn layers(&self) -> &[ModelLayer] {
        &self.residents.layers
    }

    /// Writes shard `id`'s full-fidelity weights into `out`, working in
    /// `scratch`: the one way to read them, whatever the source. With `out`
    /// shaped for this model ([`ShardWeights::zeros`]) and `scratch` from
    /// [`read_scratch`](Self::read_scratch), it allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range, or if the source cannot produce the
    /// shard (see its [`ShardWeightSource::read_shard`]).
    pub fn read_shard(&self, id: ShardId, out: &mut ShardWeights, scratch: &mut ReadScratch) {
        let cfg = &self.residents.cfg;
        assert!(
            (id.layer as usize) < cfg.layers && (id.slice as usize) < cfg.heads,
            "shard {id:?} is outside the {}x{} model",
            cfg.layers,
            cfg.heads
        );
        self.shards.read_shard(id, out, scratch);
    }

    /// A scratch every [`read_shard`](Self::read_shard) of this model fits
    /// in (see [`ShardWeightSource::read_scratch`]).
    pub fn read_scratch(&self) -> ReadScratch {
        self.shards.read_scratch()
    }

    /// The slice indexes of a full-width layer, `0..M`.
    pub fn all_slices(&self) -> &[usize] {
        &self.residents.all_slices
    }

    /// Runs the full `N × M` model at full fidelity — the teacher.
    pub fn forward_full(&self, tokens: &[u32]) -> Vec<f32> {
        let mut state = [self.embedding().embed(tokens)];
        self.run_full(&mut state);
        self.classifier().logits(&state[0])
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
        let mut scratch = ForwardScratch::new(self.config());
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
        let mut scratch = ForwardScratch::new(self.config());
        self.run_layers(&mut x, first, layers, true, &mut scratch);
        self.classifier().logits(&x)
    }

    /// The one layer loop every submodel path shares, over `x` in place;
    /// `cls_only` runs the last layer for the CLS row alone.
    fn run_layers<'a, S: ShardOperand>(
        &self,
        x: &mut Matrix,
        first: usize,
        layers: impl IntoIterator<Item = (&'a [usize], S)>,
        cls_only: bool,
        scratch: &mut ForwardScratch,
    ) {
        let cfg = self.config();
        let mut residents = self.residents.layers[first..].iter().map(|l| &l.resident);
        let mut layers = layers.into_iter().peekable();
        while let Some((slice_idxs, shards)) = layers.next() {
            let resident = residents.next().expect("submodel deeper than model");
            if cls_only && layers.peek().is_none() {
                scratch.layer_cls(x, shards, slice_idxs, resident, cfg);
            } else {
                scratch.layer(x, shards, slice_idxs, resident, cfg);
            }
        }
    }

    /// The teacher pass, layer-major: each layer's `M` shards are read once
    /// through [`Model::read_shard`], on the calling thread, into one layer
    /// of memory (through one [`ReadScratch`] for the layer), and every
    /// hidden state of `states` (embedded inputs) is run through that layer
    /// before the next is read; the last layer for
    /// the CLS row alone. The states spread over the available cores, each
    /// worker running its layers in a [`ForwardScratch`] the calling thread
    /// built, so a worker allocates nothing (`sti_tensor::parallel`). Each
    /// state's arithmetic is the per-input pass's, so the bits do not depend
    /// on how many inputs share the pass.
    fn run_full(&self, states: &mut [Matrix]) {
        let (cfg, slices) = (self.config(), self.all_slices());
        let mut layer: Vec<ShardWeights> =
            (0..cfg.heads).map(|_| ShardWeights::zeros(cfg)).collect();
        for (l, ModelLayer { resident }) in self.layers().iter().enumerate() {
            // The read buffers live while the layer is read, not through
            // the section below, whose workers' scratch they would add to.
            let mut read = self.read_scratch();
            for (s, shard) in layer.iter_mut().enumerate() {
                self.read_shard(ShardId::new(l as u16, s as u16), shard, &mut read);
            }
            drop(read);
            let (layer, cls_only) = (WholeLayer(&layer), l + 1 == cfg.layers);
            parallel_update_scratch(
                states,
                || ForwardScratch::new(cfg),
                |forward, _, x| {
                    if cls_only {
                        forward.layer_cls(x, layer, slices, resident, cfg);
                    } else {
                        forward.layer(x, layer, slices, resident, cfg);
                    }
                },
            );
        }
    }

    /// Runs an externally assembled submodel (dequantized shards) through
    /// the model's resident parameters.
    ///
    /// # Panics
    ///
    /// Panics if the submodel is empty or deeper than the model.
    pub fn forward_assembled(&self, tokens: &[u32], submodel: &AssembledSubmodel) -> Vec<f32> {
        assert!(submodel.depth() > 0, "assembled submodel is empty");
        assert!(submodel.depth() <= self.config().layers, "submodel deeper than model");
        let layers = submodel
            .layers()
            .iter()
            .map(|asm| (asm.slice_idxs.as_slice(), asm.shards.iter().collect()));
        self.forward_logits(self.embedding().embed(tokens), 0, layers)
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
        self.predict_full_all(&[tokens])[0]
    }

    /// Teacher predictions for every input, in one layer-major pass: each
    /// shard is read once however many inputs there are (a regenerated
    /// shard costs about 180 µs at `scaled_bert()`, a store read about
    /// 11 µs). Each input's arithmetic is the same however many share the
    /// pass, so its prediction is the one it gets alone
    /// ([`Model::predict_full`]). Holds one layer of FP32 shards and one
    /// hidden state per input.
    pub fn predict_full_all(&self, inputs: &[&[u32]]) -> Vec<usize> {
        let mut states: Vec<Matrix> =
            inputs.iter().map(|tokens| self.embedding().embed(tokens)).collect();
        self.run_full(&mut states);
        let mut forward = ForwardScratch::new(self.config());
        let classifier = self.classifier();
        states
            .iter()
            .map(|x| stats::argmax(forward.logits(classifier, x)).expect("at least one class"))
            .collect()
    }

    /// Bytes of resident (non-streamed) parameters: embedding, layer norms,
    /// biases, classifier.
    pub fn resident_byte_size(&self) -> usize {
        self.embedding().byte_size()
            + self.layers().iter().map(|l| l.resident.byte_size()).sum::<usize>()
            + self.classifier().byte_size()
    }

    /// FP32 bytes of all sharded (streamable) parameters.
    pub fn sharded_byte_size(&self) -> usize {
        self.config().layer_fp32_bytes() * self.config().layers
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

    /// Every shard of `m`, read once: `[layer][slice]`.
    fn read_grid(m: &Model) -> Vec<Vec<ShardWeights>> {
        let cfg = m.config();
        (0..cfg.layers as u16)
            .map(|l| {
                (0..cfg.heads as u16)
                    .map(|s| {
                        let mut shard = ShardWeights::zeros(cfg);
                        m.read_shard(ShardId::new(l, s), &mut shard, &mut m.read_scratch());
                        shard
                    })
                    .collect()
            })
            .collect()
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
    fn full_width_assembled_submodel_equals_forward_full() {
        let m = tiny_model();
        let cfg = m.config().clone();
        let slices: Vec<Vec<usize>> = (0..cfg.layers).map(|_| (0..cfg.heads).collect()).collect();
        let sub = AssembledSubmodel::from_model_slices(&m, &slices);
        let bits = |logits: Vec<f32>| logits.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        for tokens in [&[3, 1][..], &[7, 8], &[63; 9]] {
            assert_eq!(bits(m.forward_assembled(tokens, &sub)), bits(m.forward_full(tokens)));
        }
    }

    #[test]
    fn resuming_from_a_kept_hidden_state_is_bit_identical() {
        let m = tiny_model();
        let grid = read_grid(&m);
        let all: Vec<usize> = (0..m.config().heads).collect();
        let layer = |l: usize| (all.as_slice(), grid[l].iter().collect());
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
        let weights = read_grid(&m);
        let embedded = || m.embedding().embed(&[6, 0, 61]);
        fn grid<'a>(
            weights: &'a [Vec<ShardWeights>],
            slices: &'a [&'a [usize]],
        ) -> impl Iterator<Item = (&'a [usize], Vec<&'a ShardWeights>)> {
            let layers = weights.iter().zip(slices);
            layers.map(|(layer, &s)| (s, s.iter().map(|&i| &layer[i]).collect()))
        }
        let grids: [&[&[usize]]; 3] =
            [&[&[2, 0]], &[&[3, 1, 0], &[0, 2, 3]], &[&[0, 1, 2, 3], &[0, 1, 2, 3]]];
        for slices in grids {
            let hidden = m.forward_layers(embedded(), 0, grid(&weights, slices));
            let want = bits(m.classifier().logits(&hidden));
            assert_eq!(bits(m.forward_logits(embedded(), 0, grid(&weights, slices))), want);
            let owned: Vec<Vec<usize>> = slices.iter().map(|s| s.to_vec()).collect();
            let sub = AssembledSubmodel::from_model_slices(&m, &owned);
            assert_eq!(bits(m.forward_assembled(&[6, 0, 61], &sub)), want);
            // Resumed at the last layer, and past it.
            let before_last = grid(&weights, slices).take(slices.len() - 1);
            let entering = m.forward_layers(embedded(), 0, before_last);
            let last = grid(&weights, slices).skip(slices.len() - 1);
            assert_eq!(bits(m.forward_logits(entering, slices.len() - 1, last)), want);
            assert_eq!(bits(m.forward_logits(hidden, slices.len(), [])), want);
        }
        // The teacher runs the full grid through its own layer loop.
        let full = grid(&weights, &[&[0, 1, 2, 3], &[0, 1, 2, 3]]);
        let want = bits(m.classifier().logits(&m.forward_layers(embedded(), 0, full)));
        assert_eq!(bits(m.forward_full(&[6, 0, 61])), want);
    }

    #[test]
    fn narrower_submodel_changes_but_still_predicts() {
        let m = tiny_model();
        let sub = AssembledSubmodel::from_model_slices(&m, &[vec![0, 1], vec![2, 3]]);
        let logits = m.forward_assembled(&[1, 2, 3], &sub);
        assert_eq!(logits.len(), m.config().classes);
        assert!(logits.iter().all(|x| x.is_finite()));
        assert_ne!(logits, m.forward_full(&[1, 2, 3]));
    }

    #[test]
    fn shallow_submodel_runs() {
        let m = tiny_model();
        let sub = AssembledSubmodel::from_model_slices(&m, &[(0..m.config().heads).collect()]);
        let logits = m.forward_assembled(&[9], &sub);
        assert!(logits.iter().all(|x| x.is_finite()));
    }

    /// A read overwrites whatever the slot held, and a model re-pointed at
    /// another source keeps the residents it shares.
    #[test]
    fn read_shard_overwrites_the_slot_and_follows_the_source() {
        let (m, other) = (tiny_model(), Model::synthetic(43, ModelConfig::tiny()));
        let id = ShardId::new(1, 2);
        let (mut fresh, mut dirty) =
            (ShardWeights::zeros(m.config()), read_grid(&other)[0][1].clone());
        m.read_shard(id, &mut fresh, &mut m.read_scratch());
        m.read_shard(id, &mut dirty, &mut m.read_scratch());
        assert_eq!(dirty, fresh);
        assert_ne!(fresh, ShardWeights::zeros(m.config()));
        let repointed = m.with_shard_source(other.shards.clone());
        repointed.read_shard(id, &mut dirty, &mut repointed.read_scratch());
        assert_eq!(dirty, read_grid(&other)[1][2]);
        assert!(std::ptr::eq(repointed.embedding(), m.embedding()));
        assert_eq!(repointed.layers().as_ptr(), m.layers().as_ptr());
    }

    #[test]
    #[should_panic(expected = "outside the 2x4 model")]
    fn read_shard_rejects_a_slice_past_the_layer() {
        let m = tiny_model();
        m.read_shard(
            ShardId::new(0, 4),
            &mut ShardWeights::zeros(m.config()),
            &mut m.read_scratch(),
        );
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
        let grid = read_grid(&m);
        // Build an over-deep submodel by repeating the last layer's weights.
        let mut sub = AssembledSubmodel::new();
        for l in 0..cfg.layers + 1 {
            sub.push_layer((0..cfg.heads).collect(), grid[l.min(cfg.layers - 1)].clone());
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
        for layer in read_grid(&m) {
            let shards: Vec<ShardWeights> = layer
                .iter()
                .map(|shard| {
                    let blob = QuantizedBlob::quantize(&shard.flatten(), Bitwidth::B6, &qc);
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
